//! `catchup`: repair and snapshot do the work while the suite does little.
//! An in-process `ReplicatedDirectory` with its repair drivers running and
//! 20,000 preloaded keys goes through cycles of: take member 2 down, apply
//! 2,000 writes (delete the key if present, else insert it), bring member 2
//! back, time until the three members' summary roots agree, then check that
//! the three maps are equal and match the model. A second thread runs
//! lookups throughout, so the run also shows what background repair costs
//! foreground reads.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use repdir_core::Value;
use repdir_repair::Pacing;
use repdir_replica::ReplicatedDirectory;

use crate::harness::{self, dir_op, Model};
use crate::keys::{self, Rng};
use crate::measure::OpKind;
use crate::trace::{self, Span, Tracer, ROOT};
use crate::{Args, Phase, Report};

const PRELOAD: u64 = 20_000;
const WRITES_PER_CYCLE: usize = 2_000;
/// The member taken down in every cycle.
const DOWN: usize = 2;
const FINAL_LISTINGS: usize = 1;

/// The fixture: a preloaded directory with its repair drivers running.
pub fn build(seed: u64) -> ReplicatedDirectory {
    let dir = crate::point::build(seed);
    dir.spawn_repair_drivers(Pacing::default());
    dir
}

/// What the reader may check during one cycle: the model as the cycle
/// began, and the keys the cycle writes, which the reader leaves alone.
struct View {
    epoch: u64,
    /// Per preloaded key index, the generation of its present value.
    present: Vec<Option<u64>>,
    writing: Vec<bool>,
}

impl View {
    fn expected(&self, idx: u64) -> Option<Value> {
        self.present[idx as usize].map(|g| keys::value(idx, g))
    }
}

/// The hand-over between the writer, which publishes a view per cycle, and
/// the reader, which acknowledges it before the cycle writes anything.
struct Handover {
    view: Mutex<Arc<View>>,
    epoch: AtomicU64,
    acked: AtomicU64,
    stop: AtomicBool,
}

impl Handover {
    fn publish(&self, view: View) {
        let epoch = view.epoch;
        *self.view.lock().expect("view lock poisoned") = Arc::new(view);
        self.epoch.store(epoch, Ordering::SeqCst);
        while self.acked.load(Ordering::SeqCst) < epoch {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

/// The writer's model and its seeded choice of keys.
struct Writer {
    rng: Rng,
    present: Vec<Option<u64>>,
    next_generation: Vec<u64>,
    order: Vec<u64>,
    epoch: u64,
    op_ids: u64,
}

impl Writer {
    fn new(seed: u64) -> Self {
        Writer {
            rng: Rng::derive(seed, 1_000),
            present: vec![Some(0); PRELOAD as usize],
            next_generation: vec![1; PRELOAD as usize],
            order: (0..PRELOAD).collect(),
            epoch: 0,
            op_ids: 1 << 40,
        }
    }

    /// The next cycle's distinct keys (a partial Fisher–Yates shuffle).
    fn pick(&mut self) -> Vec<u64> {
        let n = self.order.len();
        for i in 0..WRITES_PER_CYCLE {
            let j = i + self.rng.below((n - i) as u64) as usize;
            self.order.swap(i, j);
        }
        self.order[..WRITES_PER_CYCLE].to_vec()
    }

    fn model(&self) -> Model {
        self.present
            .iter()
            .zip(0..)
            .filter_map(|(g, idx)| g.map(|g| (keys::user_key(idx), keys::value(idx, g))))
            .collect()
    }
}

/// One cycle: down, writes, heal, converge, check.
fn cycle(
    dir: &ReplicatedDirectory,
    w: &mut Writer,
    handover: &Handover,
    tracer: Option<&Tracer>,
    phase: &mut Phase,
) {
    let batch = w.pick();
    let mut writing = vec![false; PRELOAD as usize];
    for &idx in &batch {
        writing[idx as usize] = true;
    }
    w.epoch += 1;
    handover.publish(View {
        epoch: w.epoch,
        present: w.present.clone(),
        writing,
    });

    let reps = dir.reps();
    reps[DOWN].set_available(false);
    for idx in batch {
        w.op_ids += 1;
        let id = w.op_ids;
        let span = trace::open(tracer, "op", ROOT, id);
        let key = keys::key(idx);
        let counts = &mut phase.counts;
        phase.tally.attempted += 1;
        let t = Instant::now();
        let (kind, result) = match w.present[idx as usize] {
            Some(_) => (
                OpKind::Delete,
                dir_op(dir, tracer, span.id(), id, counts, |s| s.delete(&key)).map(drop),
            ),
            None => {
                let value = keys::value(idx, w.next_generation[idx as usize]);
                (
                    OpKind::Insert,
                    dir_op(dir, tracer, span.id(), id, counts, |s| {
                        s.insert(&key, &value)
                    })
                    .map(drop),
                )
            }
        };
        match result {
            Ok(()) => {
                phase.lat.record(kind, t.elapsed());
                let slot = &mut w.present[idx as usize];
                *slot = match slot {
                    Some(_) => None,
                    None => {
                        let g = w.next_generation[idx as usize];
                        w.next_generation[idx as usize] += 1;
                        Some(g)
                    }
                };
            }
            Err(e) => {
                // The write's fate is unknown; the final check will say
                // whether the members kept it.
                phase
                    .tally
                    .error(|| format!("cycle {}: {kind:?} of {idx} failed: {e}", w.epoch));
            }
        }
    }

    reps[DOWN].set_available(true);
    let healed = tracer.map(|t| t.now_ns());
    match harness::wait_converged(reps, harness::CONVERGE_LIMIT) {
        Some(took) => {
            phase.catchup_s.push(took.as_secs_f64());
            if let (Some(t), Some(start_ns)) = (tracer, healed) {
                t.record(Span {
                    id: t.next_id(),
                    parent: ROOT,
                    op: w.epoch,
                    name: "catchup",
                    start_ns,
                    end_ns: start_ns + took.as_nanos() as u64,
                });
            }
            harness::check_members(
                reps,
                &w.model(),
                &mut phase.tally,
                &format!("cycle {}", w.epoch),
            );
        }
        None => {
            phase.tally.attempted += 1;
            phase
                .tally
                .not_converged(|| format!("cycle {}: members never converged", w.epoch));
        }
    }
}

/// Lookups of keys the current cycle does not write, checked against the
/// model as the cycle began; deleted keys must read absent.
fn reader(
    dir: &ReplicatedDirectory,
    handover: &Handover,
    seed: u64,
    start: Instant,
    tracer: Option<&Tracer>,
    op_ids: &mut u64,
) -> Phase {
    let mut rng = Rng::derive(seed, 2_000);
    let mut phase = Phase::new(start);
    let mut view = Arc::clone(&handover.view.lock().expect("view lock poisoned"));
    while !handover.stop.load(Ordering::SeqCst) {
        if handover.epoch.load(Ordering::SeqCst) != view.epoch {
            view = Arc::clone(&handover.view.lock().expect("view lock poisoned"));
            handover.acked.store(view.epoch, Ordering::SeqCst);
        }
        let idx = loop {
            let i = rng.below(PRELOAD);
            if !view.writing[i as usize] {
                break i;
            }
        };
        *op_ids += 1;
        let id = *op_ids;
        let span = trace::open(tracer, "op", ROOT, id);
        let key = keys::key(idx);
        phase.tally.attempted += 1;
        let t = Instant::now();
        let got = dir_op(dir, tracer, span.id(), id, &mut phase.counts, |s| {
            s.lookup(&key)
        });
        let took = t.elapsed();
        match got {
            Ok(o) => {
                phase.lat.record(OpKind::Lookup, took);
                let got = if o.present { o.value } else { None };
                let expected = view.expected(idx);
                if got != expected {
                    phase.tally.wrong(|| {
                        format!(
                            "cycle {}: lookup of {idx} read {got:?}, expected {expected:?}",
                            view.epoch
                        )
                    });
                }
            }
            Err(e) => phase.tally.error(|| format!("lookup of {idx} failed: {e}")),
        }
    }
    phase
}

fn run_cycles(
    dir: &ReplicatedDirectory,
    w: &mut Writer,
    seconds: f64,
    seed: u64,
    tracer: Option<&Tracer>,
    reader_ids: &mut u64,
) -> Phase {
    let handover = Handover {
        view: Mutex::new(Arc::new(View {
            epoch: w.epoch,
            present: w.present.clone(),
            writing: vec![false; PRELOAD as usize],
        })),
        epoch: AtomicU64::new(w.epoch),
        acked: AtomicU64::new(w.epoch),
        stop: AtomicBool::new(false),
    };
    let reader_seed = seed ^ w.epoch;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut phase = std::thread::scope(|s| {
        let r = s.spawn(|| reader(dir, &handover, reader_seed, start, tracer, reader_ids));
        let mut phase = Phase::new(start);
        while Instant::now() < deadline {
            cycle(dir, w, &handover, tracer, &mut phase);
        }
        handover.stop.store(true, Ordering::SeqCst);
        phase.absorb(r.join().expect("reader thread panicked"));
        phase
    });
    phase.elapsed = start.elapsed();
    phase
}

pub fn run(args: &Args) -> Report {
    let (dir, setup_s) = harness::setup_median(|| build(args.seed));
    let mut writer = Writer::new(args.seed);
    let mut reader_ids = 0u64;
    let mut report = crate::measure_phases(args, setup_s, |seconds, tracer| {
        run_cycles(
            &dir,
            &mut writer,
            seconds,
            args.seed,
            tracer.map(|t| &**t),
            &mut reader_ids,
        )
    });
    if let Some(t) = report.traced.as_mut() {
        t.stale_votes_queued = dir.stale_vote_queue().len() as u64;
    }
    report.list_ms = harness::list_checks(&dir, &writer.model(), FINAL_LISTINGS, &mut report.tally);
    report
}
