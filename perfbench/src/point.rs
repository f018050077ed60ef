//! `point`: the production API. An in-process `ReplicatedDirectory`
//! (3 members, R=2, W=2, gap-map backend, no repair drivers) preloaded with
//! 20,000 keys, driven by two closed-loop clients running the point mix.
//! Quorum collection, range locks, txn/WAL and the gap map do the work;
//! codec, RPC, fabric and repair do none.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use repdir_core::suite::SuiteConfig;
use repdir_replica::ReplicatedDirectory;
use repdir_storage::Backend;

use crate::harness::{self, dir_op, SuiteCounts};
use crate::keys;
use crate::mix::{self, Answer, MixClient, Op};
use crate::trace::{self, Tracer, ROOT};
use crate::{Args, Phase, Report};

const PRELOAD: u64 = 20_000;
const CLIENTS: u64 = 2;
const PRELOAD_CHUNK: u64 = 500;
/// Listings of the whole preloaded directory, each checked against the
/// model; their median is `list_p50_ms`.
const LISTINGS: usize = 3;

pub fn config() -> SuiteConfig {
    SuiteConfig::symmetric(3, 2, 2).expect("3-2-2 is a valid weighted-voting config")
}

/// The fixture: a preloaded directory.
pub fn build(seed: u64) -> ReplicatedDirectory {
    let dir = ReplicatedDirectory::with_backend(config(), seed, Backend::GapMap)
        .expect("member count matches the config");
    for chunk in mix::preload_chunks(PRELOAD, PRELOAD_CHUNK) {
        dir.insert_many(&chunk)
            .expect("preload on a healthy directory");
    }
    dir
}

/// One closed-loop client: each operation waits for its reply.
fn client_loop(
    dir: &ReplicatedDirectory,
    client: &mut MixClient,
    start: Instant,
    deadline: Instant,
    tracer: Option<&Tracer>,
    op_ids: &AtomicU64,
) -> Phase {
    let mut phase = Phase::new(start);
    while Instant::now() < deadline {
        let op = client.next_op();
        let id = op_ids.fetch_add(1, Ordering::Relaxed);
        let span = trace::open(tracer, "op", ROOT, id);
        let key = op.key();
        let counts = &mut phase.counts;
        let t = Instant::now();
        let answer = match op {
            Op::Lookup(_) => dir_op(dir, tracer, span.id(), id, counts, |s| s.lookup(&key))
                .map(|o| Answer::Lookup(if o.present { o.value } else { None })),
            Op::Insert(idx) => {
                let value = keys::value(idx, 0);
                dir_op(dir, tracer, span.id(), id, counts, |s| {
                    s.insert(&key, &value)
                })
                .map(|_| Answer::Written)
            }
            Op::Delete { .. } => dir_op(dir, tracer, span.id(), id, counts, |s| s.delete(&key))
                .map(|_| Answer::Written),
        };
        let took = t.elapsed();
        if answer.is_ok() {
            phase.lat.record(op.kind(), took);
        }
        phase.tally.attempted += 1;
        client.settle(&op, answer, &mut phase.tally);
    }
    phase
}

fn run_mix(
    dir: &ReplicatedDirectory,
    clients: &mut [MixClient],
    seconds: f64,
    tracer: Option<&Tracer>,
    op_ids: &AtomicU64,
) -> Phase {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let phases: Vec<Phase> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| s.spawn(move || client_loop(dir, c, start, deadline, tracer, op_ids)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut out = Phase::new(start);
    out.elapsed = start.elapsed();
    for p in phases {
        out.absorb(p);
    }
    out
}

pub fn run(args: &Args) -> Report {
    let (dir, setup_s) = harness::setup_median(|| build(args.seed));
    let mut clients: Vec<MixClient> = (0..CLIENTS)
        .map(|c| MixClient::new(args.seed, c, PRELOAD))
        .collect();
    let op_ids = AtomicU64::new(1);
    // Listings run before the mix, on the preloaded directory, so their cost
    // does not depend on how much the mix got done.
    let mut listing = crate::measure::Tally::default();
    let list_ms = harness::list_checks(&dir, &mix::preload_model(PRELOAD), LISTINGS, &mut listing);
    let mut report = crate::measure_phases(args, setup_s, |seconds, tracer| {
        run_mix(&dir, &mut clients, seconds, tracer.map(|t| &**t), &op_ids)
    });
    if let Some(t) = report.traced.as_mut() {
        t.stale_votes_queued = dir.stale_vote_queue().len() as u64;
    }

    report.list_ms = list_ms;
    report.tally.absorb(listing);

    // Untimed check of the final state: owned keys read back as written.
    let mut counts = SuiteCounts::default();
    for (idx, live) in clients.iter().flat_map(MixClient::final_checks) {
        let got = dir_op(&dir, None, ROOT, 0, &mut counts, |s| {
            s.lookup(&keys::key(idx))
        })
        .map(|o| if o.present { o.value } else { None });
        mix::settle_final(idx, live, got, &mut report.tally);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_short_mix_answers_correctly() {
        let dir = ReplicatedDirectory::new(config(), 3).unwrap();
        for chunk in mix::preload_chunks(200, 100) {
            dir.insert_many(&chunk).unwrap();
        }
        let mut clients: Vec<MixClient> = (0..2).map(|c| MixClient::new(3, c, 200)).collect();
        let phase = run_mix(&dir, &mut clients, 0.2, None, &AtomicU64::new(1));
        assert!(phase.lat.completed() > 0);
        assert_eq!(phase.tally.failed(), 0, "{:?}", phase.tally.notes);
        let mut model = mix::preload_model(200);
        clients.iter().for_each(|c| c.extend_model(&mut model));
        let mut tally = crate::measure::Tally::default();
        harness::list_checks(&dir, &model, 1, &mut tally);
        assert_eq!(tally.failed(), 0, "{:?}", tally.notes);
    }
}
