//! An elastic, process-wide worker pool for per-call jobs.
//!
//! The suite sends one message to each quorum member and gathers the
//! replies (paper §3–§4); a transaction commits at every representative the
//! same way. Each of those member calls is a short job, and creating and
//! joining an OS thread for it costs more than the call itself when members
//! are in process. [`spawn`] hands the job to a warm worker instead.
//!
//! The pool is *elastic*, not fixed-size: a job goes to an idle worker if
//! one exists, otherwise a new worker thread is started for it. A job
//! therefore never queues behind another one — a member call blocked on a
//! range lock holds its worker, and the next job simply gets a fresh one —
//! so lock waits, deadlock detection and lock timeouts behave exactly as
//! they would with a thread per call. Workers that stay idle for a few
//! milliseconds retire, so the pool holds only as many threads as the
//! current load keeps busy.
//!
//! Jobs are `'static` closures: they own what they use (`Arc` clients,
//! cloned keys, values and obs handles). A panicking job does not take its
//! worker down; whoever waits for the job's result learns of the panic
//! through whatever the job reports (see `std::panic::catch_unwind`).
//!
//! The pool counts `exec.jobs` (jobs submitted) and `exec.threads_spawned`
//! (worker threads started) on [`repdir_obs::global`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use repdir_obs::{Counter, Registry};

use crate::sync::{Condvar, Mutex, MutexGuard};

/// How long a worker waits for its next job before it retires. A steady
/// load hands a parked worker its next job within microseconds, so a
/// worker idle for longer is not serving the load: keeping it would hold
/// its stack and malloc arena resident, while starting a new one later
/// costs tens of microseconds, at most once per timeout (under 1% of a
/// core).
const IDLE_TIMEOUT: Duration = Duration::from_millis(5);

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Runs `job` on a pooled worker thread: an idle one if any, else a newly
/// started one. Never blocks on other jobs.
///
/// # Panics
///
/// Panics if the operating system refuses to start a needed worker thread.
///
/// # Examples
///
/// ```
/// let (tx, rx) = repdir_core::channel::unbounded();
/// for i in 0..3 {
///     let tx = tx.clone();
///     repdir_core::exec::spawn(move || {
///         let _ = tx.send(i * i);
///     });
/// }
/// drop(tx);
/// let mut squares: Vec<i32> = std::iter::from_fn(|| rx.recv().ok()).collect();
/// squares.sort_unstable();
/// assert_eq!(squares, vec![0, 1, 4]);
/// ```
pub fn spawn(job: impl FnOnce() + Send + 'static) {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool::new(repdir_obs::global(), IDLE_TIMEOUT))
        .spawn(Box::new(job));
}

/// The pool behind [`spawn`]; tests build private ones with their own idle
/// timeouts and registries.
struct Pool {
    inner: Arc<Inner>,
}

struct Inner {
    /// Parked workers, most recently parked last. Jobs go to the last one,
    /// so a light load keeps reusing the same few workers and the rest
    /// time out and retire.
    idle: Mutex<Vec<Arc<Slot>>>,
    idle_timeout: Duration,
    /// Worker threads currently alive, parked or running a job.
    live: AtomicUsize,
    jobs: Counter,
    threads_spawned: Counter,
}

/// One parked worker's hand-off cell.
#[derive(Default)]
struct Slot {
    job: Mutex<Option<Job>>,
    ready: Condvar,
}

impl Pool {
    fn new(registry: &Registry, idle_timeout: Duration) -> Self {
        Pool {
            inner: Arc::new(Inner {
                idle: Mutex::new(Vec::new()),
                idle_timeout,
                live: AtomicUsize::new(0),
                jobs: registry.counter("exec.jobs"),
                threads_spawned: registry.counter("exec.threads_spawned"),
            }),
        }
    }

    fn spawn(&self, job: Job) {
        self.inner.jobs.inc();
        // Claim a parked worker under the idle lock, then hand it the job
        // under its own slot lock; the two locks are never held together.
        let parked = self.inner.idle.lock().pop();
        match parked {
            Some(slot) => {
                *slot.job.lock() = Some(job);
                slot.ready.notify_one();
            }
            None => {
                self.inner.threads_spawned.inc();
                self.inner.live.fetch_add(1, Ordering::SeqCst);
                let inner = Arc::clone(&self.inner);
                let started = std::thread::Builder::new()
                    .name("repdir-exec".into())
                    .spawn(move || inner.work(job));
                if let Err(e) = started {
                    self.inner.live.fetch_sub(1, Ordering::SeqCst);
                    panic!("start pool worker: {e}");
                }
            }
        }
    }

    /// Worker threads currently alive.
    #[cfg(test)]
    fn live(&self) -> usize {
        self.inner.live.load(Ordering::SeqCst)
    }
}

impl Inner {
    /// A worker's life: run the job, park, run whatever it is handed, and
    /// retire once a park times out unclaimed.
    fn work(&self, mut job: Job) {
        let slot = Arc::new(Slot::default());
        loop {
            // The job reports its own outcome (panics included) to whoever
            // waits for it; the worker only has to survive it.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
            match self.park(&slot) {
                Some(next) => job = next,
                None => break,
            }
        }
        self.live.fetch_sub(1, Ordering::SeqCst);
    }

    /// Parks `slot` on the idle stack and waits for a job. `None` means the
    /// worker timed out and took itself off the stack: it must retire.
    fn park(&self, slot: &Arc<Slot>) -> Option<Job> {
        self.idle.lock().push(Arc::clone(slot));
        let mut cell = slot.job.lock();
        loop {
            if let Some(job) = cell.take() {
                return Some(job);
            }
            if !slot
                .ready
                .wait_for(&mut cell, self.idle_timeout)
                .timed_out()
                || cell.is_some()
            {
                continue;
            }
            // Timed out with nothing handed over. If the slot is still on
            // the stack, nobody can claim it any more once it is removed:
            // retire. If it is gone, a spawner claimed this worker and its
            // job is on the way: keep waiting.
            let retired = MutexGuard::unlocked(&mut cell, || {
                let mut idle = self.idle.lock();
                match idle.iter().position(|s| Arc::ptr_eq(s, slot)) {
                    Some(at) => {
                        idle.remove(at);
                        true
                    }
                    None => false,
                }
            });
            if retired {
                return None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::unbounded;
    use std::sync::Barrier;
    use std::time::Instant;

    /// An idle timeout no test outlasts: workers never retire mid-test.
    const LONG: Duration = Duration::from_secs(600);

    fn pool(idle_timeout: Duration) -> (Pool, Registry) {
        let registry = Registry::new();
        (Pool::new(&registry, idle_timeout), registry)
    }

    /// Polls `cond` for up to five seconds.
    fn eventually(cond: impl Fn() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        cond()
    }

    #[test]
    fn a_blocked_job_never_holds_up_a_later_one() {
        // Job A waits on a barrier only job B can release. A fixed pool of
        // one would deadlock here; the elastic pool starts a second worker.
        let (pool, registry) = pool(LONG);
        let barrier = Arc::new(Barrier::new(2));
        let (tx, rx) = unbounded();
        for name in ["a", "b"] {
            let barrier = Arc::clone(&barrier);
            let tx = tx.clone();
            pool.spawn(Box::new(move || {
                barrier.wait();
                let _ = tx.send(name);
            }));
        }
        let mut done = vec![
            rx.recv_timeout(Duration::from_secs(5)).expect("first job"),
            rx.recv_timeout(Duration::from_secs(5)).expect("second job"),
        ];
        done.sort_unstable();
        assert_eq!(done, vec!["a", "b"]);
        assert_eq!(registry.snapshot().counter("exec.threads_spawned"), 2);
    }

    #[test]
    fn warm_workers_are_reused() {
        let (pool, registry) = pool(LONG);
        let (tx, rx) = unbounded();
        for i in 0..50 {
            let tx = tx.clone();
            pool.spawn(Box::new(move || {
                let _ = tx.send(i);
            }));
            // One job at a time: each finds the previous job's worker
            // parked (or about to park) and reuses it.
            assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(i));
            assert!(eventually(|| pool.inner.idle.lock().len() == pool.live()));
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("exec.jobs"), 50);
        assert_eq!(snap.counter("exec.threads_spawned"), 1);
    }

    #[test]
    fn a_panicking_job_does_not_kill_the_pool() {
        let (pool, registry) = pool(LONG);
        let (tx, rx) = unbounded();
        let reporter = tx.clone();
        pool.spawn(Box::new(move || {
            let outcome = std::panic::catch_unwind(|| panic!("injected job panic"));
            let _ = reporter.send(outcome.is_err());
        }));
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(true));
        assert!(eventually(|| pool.inner.idle.lock().len() == 1));
        // An unreported panic escapes the job; the worker survives it.
        pool.spawn(Box::new(|| panic!("injected unreported panic")));
        assert!(eventually(|| pool.inner.idle.lock().len() == 1));
        assert_eq!(pool.live(), 1);
        let reporter = tx.clone();
        pool.spawn(Box::new(move || {
            let _ = reporter.send(true);
        }));
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(true));
        assert_eq!(registry.snapshot().counter("exec.threads_spawned"), 1);
    }

    #[test]
    fn idle_workers_retire() {
        let (pool, _registry) = pool(Duration::from_millis(30));
        let barrier = Arc::new(Barrier::new(4));
        for _ in 0..3 {
            let barrier = Arc::clone(&barrier);
            pool.spawn(Box::new(move || {
                barrier.wait();
            }));
        }
        assert_eq!(pool.live(), 3);
        barrier.wait();
        assert!(
            eventually(|| pool.live() == 0),
            "idle workers never retired"
        );
        assert!(pool.inner.idle.lock().is_empty());
        // A retired pool starts afresh on demand.
        let (tx, rx) = unbounded();
        pool.spawn(Box::new(move || {
            let _ = tx.send(());
        }));
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(()));
    }

    #[test]
    fn claims_racing_retirement_are_never_lost() {
        // Idle timeouts this short make spawners routinely claim a worker
        // in the instant it times out; every job must still run.
        let (pool, _registry) = pool(Duration::from_micros(200));
        let (tx, rx) = unbounded();
        for i in 0..500 {
            let tx = tx.clone();
            pool.spawn(Box::new(move || {
                let _ = tx.send(i);
            }));
            if i % 7 == 0 {
                std::thread::sleep(Duration::from_micros(150));
            }
        }
        drop(tx);
        let mut got: Vec<i32> = Vec::new();
        while let Ok(i) = rx.recv_timeout(Duration::from_secs(5)) {
            got.push(i);
        }
        got.sort_unstable();
        assert_eq!(got, (0..500).collect::<Vec<_>>());
    }
}
