//! Pieces the workloads share: timed set-up, operations through the
//! directory's transaction wrapper, and the checks that replicas hold what
//! the harness's model says they should.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use repdir_core::suite::DirSuite;
use repdir_core::{RepClient, SuiteError, UserKey, Value};
use repdir_replica::{ReplicatedDirectory, SessionClient, TransactionalRep};

use crate::measure::{median, Tally};
use crate::trace::{self, Tracer};

/// Key index → value of every key the harness expects to be present.
pub type Model = BTreeMap<UserKey, Value>;

/// How many times set-up runs in one benchmark run; its median is
/// `setup_s`.
pub const SETUP_REPEATS: usize = 5;

/// Builds the fixture [`SETUP_REPEATS`] times, dropping all but the last,
/// and returns it with the median build time in seconds.
pub fn setup_median<F>(mut build: impl FnMut() -> F) -> (F, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut fixture = None;
    for _ in 0..SETUP_REPEATS {
        drop(fixture.take());
        let t = Instant::now();
        fixture = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    let setup_s = median(&times).expect("at least one set-up");
    (fixture.expect("at least one set-up"), setup_s)
}

/// Suite-level work counted by the harness during a traced phase. The
/// suites a directory builds are per transaction, each with fresh counters,
/// so they are read inside the transaction body after the suite call.
#[derive(Clone, Copy, Debug, Default)]
pub struct SuiteCounts {
    pub waves: u64,
    pub member_msgs: u64,
    pub pings: u64,
    /// Attempts beyond the first, summed over operations.
    pub retries: u64,
    /// Member messages and pings spent by listings, and entries listed.
    pub list_msgs: u64,
    pub list_entries: u64,
}

impl SuiteCounts {
    /// Adds the counters of `suite`, which served one attempt.
    pub fn absorb_suite<C: RepClient + 'static>(&mut self, suite: &DirSuite<C>) -> u64 {
        let msgs: u64 = suite.message_counts().iter().sum::<u64>();
        let pings: u64 = suite.ping_counts().iter().sum::<u64>();
        self.waves += suite.obs().counter("suite.quorum.waves").get();
        self.member_msgs += msgs;
        self.pings += pings;
        msgs + pings
    }

    pub fn absorb(&mut self, o: SuiteCounts) {
        self.waves += o.waves;
        self.member_msgs += o.member_msgs;
        self.pings += o.pings;
        self.retries += o.retries;
        self.list_msgs += o.list_msgs;
        self.list_entries += o.list_entries;
    }
}

/// Runs `body` through [`ReplicatedDirectory::run`] — the production
/// transaction wrapper — with a `directory` span around the call and a
/// `suite` span around each attempt's suite call.
pub fn dir_op<R>(
    dir: &ReplicatedDirectory,
    tracer: Option<&Tracer>,
    parent: u64,
    op: u64,
    counts: &mut SuiteCounts,
    mut body: impl FnMut(&mut DirSuite<SessionClient>) -> Result<R, SuiteError>,
) -> Result<R, SuiteError> {
    let span = trace::open(tracer, "directory", parent, op);
    let mut attempts = 0u64;
    let out = dir.run(|suite| {
        attempts += 1;
        let out = {
            let _s = trace::open(tracer, "suite", span.id(), op);
            body(suite)
        };
        if tracer.is_some() {
            counts.absorb_suite(suite);
        }
        out
    });
    counts.retries += attempts.saturating_sub(1);
    out
}

/// The three members' summary roots agree. Polls the roots, not the maps:
/// cloning whole maps every few milliseconds would itself slow repair.
fn roots_agree(reps: &[Arc<TransactionalRep>]) -> bool {
    let mut roots = reps.iter().map(|r| r.summary_children(0, 0));
    let Some(Ok(first)) = roots.next() else {
        return false;
    };
    roots.all(|r| r.as_ref() == Ok(&first))
}

/// Polls until the members' summary roots agree, returning how long that
/// took, or `None` after `limit`.
pub fn wait_converged(reps: &[Arc<TransactionalRep>], limit: Duration) -> Option<Duration> {
    let start = Instant::now();
    loop {
        if roots_agree(reps) {
            return Some(start.elapsed());
        }
        if start.elapsed() > limit {
            return None;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Checks that every member's map is byte-identical to the first's and
/// that the entries match the model. Counts one attempted check.
pub fn check_members(reps: &[Arc<TransactionalRep>], model: &Model, tally: &mut Tally, what: &str) {
    tally.attempted += 1;
    let maps: Vec<_> = reps.iter().map(|r| r.snapshot()).collect();
    if let Some(i) = (1..maps.len()).find(|&i| maps[i] != maps[0]) {
        tally.not_converged(|| format!("{what}: member {i} differs from member 0"));
        return;
    }
    let entries = maps[0].iter().map(|(k, _, v)| (k, v));
    if let Some(diff) = first_difference(entries, model) {
        tally.not_converged(|| format!("{what}: members disagree with the model at {diff}"));
    }
}

/// The first key where `listed` and `model` differ, if any.
pub fn first_difference<'a>(
    listed: impl Iterator<Item = (&'a UserKey, &'a Value)>,
    model: &Model,
) -> Option<String> {
    let mut expected = model.iter();
    let mut listed = listed;
    loop {
        match (listed.next(), expected.next()) {
            (None, None) => return None,
            (Some((k, v)), Some((mk, mv))) if k == mk && v == mv => continue,
            (Some((k, _)), Some((mk, _))) if k == mk => {
                return Some(format!("{k:?} (wrong value)"))
            }
            (Some((k, _)), Some((mk, _))) => {
                return Some(format!("{:?} (listed {k:?})", k.min(mk)))
            }
            (Some((k, _)), None) => return Some(format!("{k:?} (extra)")),
            (None, Some((mk, _))) => return Some(format!("{mk:?} (missing)")),
        }
    }
}

/// Lists the directory `count` times, checking each listing against the
/// model. Returns each listing's latency in milliseconds.
pub fn list_checks(
    dir: &ReplicatedDirectory,
    model: &Model,
    count: usize,
    tally: &mut Tally,
) -> Vec<f64> {
    let mut times = Vec::with_capacity(count);
    let mut counts = SuiteCounts::default();
    for n in 0..count {
        tally.attempted += 1;
        let t = Instant::now();
        match dir_op(dir, None, trace::ROOT, 0, &mut counts, |s| s.scan()) {
            Ok(listed) => {
                times.push(t.elapsed().as_secs_f64() * 1e3);
                if let Some(d) = first_difference(listed.iter().map(|(k, v)| (k, v)), model) {
                    tally.wrong(|| format!("final listing {n}: differs from the model at {d}"));
                }
            }
            Err(e) => tally.error(|| format!("final listing {n}: {e}")),
        }
    }
    times
}

/// Longest a catch-up may take before it counts as not converged.
pub const CONVERGE_LIMIT: Duration = Duration::from_secs(30);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys;
    use repdir_core::suite::SuiteConfig;

    fn model_of(n: u64) -> Model {
        (0..n)
            .map(|i| (keys::user_key(i), keys::value(i, 0)))
            .collect()
    }

    fn dir_with(n: u64) -> ReplicatedDirectory {
        let dir = ReplicatedDirectory::new(SuiteConfig::symmetric(3, 2, 2).unwrap(), 1).unwrap();
        let entries: Vec<_> = (0..n).map(|i| (keys::key(i), keys::value(i, 0))).collect();
        dir.insert_many(&entries).unwrap();
        dir
    }

    #[test]
    fn a_listing_that_matches_the_model_passes() {
        let dir = dir_with(40);
        let mut tally = Tally::default();
        let times = list_checks(&dir, &model_of(40), 2, &mut tally);
        assert_eq!(times.len(), 2);
        assert_eq!((tally.attempted, tally.failed()), (2, 0));
    }

    #[test]
    fn a_planted_wrong_listing_is_counted() {
        let dir = dir_with(40);
        let mut model = model_of(40);
        // The model expects a value the directory never stored.
        let k = keys::user_key(3);
        model.insert(k, keys::value(3, 9));
        let mut tally = Tally::default();
        list_checks(&dir, &model, 1, &mut tally);
        assert_eq!(tally.wrong, 1, "{:?}", tally.notes);
    }

    /// Members holding the preloaded keys `0..n`, identical by
    /// construction.
    fn identical_members(n: u64) -> Vec<Arc<TransactionalRep>> {
        (0..3)
            .map(|i| {
                let rep = TransactionalRep::new(repdir_core::RepId(i));
                let t = repdir_txn::TxnId(1);
                rep.begin(t).unwrap();
                for idx in 0..n {
                    let v = repdir_core::Version::new(1);
                    rep.insert(t, &keys::key(idx), v, &keys::value(idx, 0))
                        .unwrap();
                }
                rep.commit(t).unwrap();
                rep
            })
            .collect()
    }

    #[test]
    fn a_planted_lost_key_is_counted() {
        let reps = identical_members(40);
        assert!(wait_converged(&reps, Duration::from_secs(1)).is_some());
        let mut tally = Tally::default();
        check_members(&reps, &model_of(40), &mut tally, "clean");
        assert_eq!(
            (tally.attempted, tally.failed()),
            (1, 0),
            "{:?}",
            tally.notes
        );
        // The model holds a key every member lost.
        let mut tally = Tally::default();
        check_members(&reps, &model_of(41), &mut tally, "planted");
        assert_eq!(tally.not_converged, 1, "{:?}", tally.notes);
        // One member loses a key the others keep.
        let rep = &reps[1];
        let t = repdir_txn::TxnId(2);
        rep.begin(t).unwrap();
        let pred = rep.predecessor(t, &keys::key(5)).unwrap().key;
        let succ = rep.successor(t, &keys::key(5)).unwrap().key;
        rep.coalesce(t, &pred, &succ, repdir_core::Version::new(2))
            .unwrap();
        rep.commit(t).unwrap();
        assert!(wait_converged(&reps, Duration::from_millis(50)).is_none());
        let mut tally = Tally::default();
        check_members(&reps, &model_of(40), &mut tally, "planted");
        assert_eq!(tally.not_converged, 1, "{:?}", tally.notes);
    }

    #[test]
    fn first_difference_names_the_key() {
        let model = model_of(3);
        let listed: Vec<_> = model.iter().take(2).collect();
        let d = first_difference(listed.into_iter(), &model).unwrap();
        assert!(d.contains("missing"), "{d}");
        assert!(first_difference(model.iter(), &model).is_none());
    }
}
