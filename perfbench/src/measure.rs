//! What a run measures: per-operation latencies, answer checking, and the
//! process-wide figures (allocations, CPU time, peak memory).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Counts every allocation the process makes, on any thread.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a statistic and publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations (including reallocations) made so far by the process.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// User plus system CPU time of the whole process, in milliseconds, from
/// `/proc/self/stat`. The kernel folds the time of exited threads (the
/// suite's fan-out threads) into the process total.
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the line, in clock ticks of 1/100 s.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<u64>().expect("numeric tick field");
    (ticks(11) + ticks(12)) as f64 * 10.0
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .expect("VmHWM in /proc/self/status");
    kb as f64 / 1024.0
}

/// The operation kinds whose latency is reported.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    Lookup,
    Insert,
    Delete,
    List,
}

/// One completed operation: when it completed, since the phase began, and
/// how long it took.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sample {
    pub at_ns: u64,
    pub took_ns: u64,
}

/// Latency samples of completed operations, by kind.
#[derive(Clone, Debug)]
pub struct Latencies {
    origin: Instant,
    pub lookup: Vec<Sample>,
    pub insert: Vec<Sample>,
    pub delete: Vec<Sample>,
    pub list: Vec<Sample>,
}

impl Default for Latencies {
    fn default() -> Self {
        Latencies::new(Instant::now())
    }
}

impl Latencies {
    /// Samples of a phase that began at `origin`.
    pub fn new(origin: Instant) -> Self {
        Latencies {
            origin,
            lookup: Vec::new(),
            insert: Vec::new(),
            delete: Vec::new(),
            list: Vec::new(),
        }
    }

    /// Records an operation of `kind` that just completed after `took`.
    pub fn record(&mut self, kind: OpKind, took: Duration) {
        let sample = Sample {
            at_ns: self.origin.elapsed().as_nanos() as u64,
            took_ns: took.as_nanos() as u64,
        };
        match kind {
            OpKind::Lookup => self.lookup.push(sample),
            OpKind::Insert => self.insert.push(sample),
            OpKind::Delete => self.delete.push(sample),
            OpKind::List => self.list.push(sample),
        }
    }

    pub fn absorb(&mut self, other: Latencies) {
        self.lookup.extend(other.lookup);
        self.insert.extend(other.insert);
        self.delete.extend(other.delete);
        self.list.extend(other.list);
    }

    pub fn completed(&self) -> u64 {
        (self.lookup.len() + self.insert.len() + self.delete.len() + self.list.len()) as u64
    }

    fn all(&self) -> impl Iterator<Item = &Sample> {
        self.lookup
            .iter()
            .chain(&self.insert)
            .chain(&self.delete)
            .chain(&self.list)
    }
}

/// A run is measured in windows of this length and each figure is the
/// median over the windows, so a few seconds in which the machine runs
/// slow move it less than they move a figure pooled over the whole run.
pub const WINDOW: Duration = Duration::from_secs(3);

/// Samples a window must hold beyond a reported percentile.
const TAIL_SAMPLES: f64 = 10.0;

/// The number of windows in a phase of length `elapsed`; the last window
/// takes the remainder.
fn window_count(elapsed: Duration) -> usize {
    ((elapsed.as_nanos() / WINDOW.as_nanos()) as usize).max(1)
}

fn by_window(samples: &[Sample], n: usize, elapsed: Duration) -> Vec<Vec<u64>> {
    let mut per = vec![Vec::new(); n];
    let width = (elapsed.as_nanos() as u64 / n as u64).max(1);
    for s in samples {
        per[((s.at_ns / width) as usize).min(n - 1)].push(s.took_ns);
    }
    per
}

/// The median over windows of each window's `q`-quantile, in nanoseconds.
/// The run is cut into as many equal windows as fit [`WINDOW`], but never
/// so many that a window holds fewer than ten samples beyond the
/// percentile; a rare operation's tail is taken over the whole run.
pub fn windowed_quantile_ns(samples: &[Sample], q: f64, elapsed: Duration) -> Option<f64> {
    let by_tail = (samples.len() as f64 * (1.0 - q) / TAIL_SAMPLES) as usize;
    let n = window_count(elapsed).min(by_tail).max(1);
    let per = by_window(samples, n, elapsed);
    let qs: Vec<f64> = per.iter().filter_map(|w| quantile_ns(w, q)).collect();
    median(&qs)
}

/// The median over windows of completed operations per second. A
/// window's rate is its completions after the first, divided by the time
/// from its first completion to its last, so the figure is not rounded to
/// whole operations per window.
pub fn windowed_rate(lat: &Latencies, elapsed: Duration) -> f64 {
    let n = window_count(elapsed);
    let width = (elapsed.as_nanos() as u64 / n as u64).max(1);
    let mut spans = vec![(u64::MAX, 0u64, 0u64); n];
    for s in lat.all() {
        let w = &mut spans[((s.at_ns / width) as usize).min(n - 1)];
        *w = (w.0.min(s.at_ns), w.1.max(s.at_ns), w.2 + 1);
    }
    let rates: Vec<f64> = spans
        .iter()
        .filter(|&&(first, last, count)| count > 1 && last > first)
        .map(|&(first, last, count)| (count - 1) as f64 / ((last - first) as f64 / 1e9))
        .collect();
    median(&rates).unwrap_or(0.0)
}

/// The `q`-quantile (nearest rank) of `samples` in nanoseconds, or `None`
/// when there are none.
pub fn quantile_ns(samples: &[u64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1] as f64)
}

/// The median of `values`, or `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Work attempted and how much of it failed. A failure is an operation
/// that still errored after the directory's retries, an answer that
/// disagrees with the harness's model, or a catch-up that did not end with
/// byte-identical members matching the model.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub errored: u64,
    pub wrong: u64,
    pub not_converged: u64,
    /// The first few failures, for the report.
    pub notes: Vec<String>,
}

impl Tally {
    const MAX_NOTES: usize = 8;

    pub fn failed(&self) -> u64 {
        self.errored + self.wrong + self.not_converged
    }

    pub fn ratio(&self) -> f64 {
        self.failed() as f64 / self.attempted.max(1) as f64
    }

    pub fn error(&mut self, what: impl FnOnce() -> String) {
        self.errored += 1;
        self.note(what);
    }

    pub fn wrong(&mut self, what: impl FnOnce() -> String) {
        self.wrong += 1;
        self.note(what);
    }

    pub fn not_converged(&mut self, what: impl FnOnce() -> String) {
        self.not_converged += 1;
        self.note(what);
    }

    fn note(&mut self, what: impl FnOnce() -> String) {
        if self.notes.len() < Self::MAX_NOTES {
            self.notes.push(what());
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.errored += other.errored;
        self.wrong += other.wrong;
        self.not_converged += other.not_converged;
        for n in other.notes {
            if self.notes.len() < Self::MAX_NOTES {
                self.notes.push(n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_ns(&s, 0.5), Some(50.0));
        assert_eq!(quantile_ns(&s, 0.99), Some(99.0));
        assert_eq!(quantile_ns(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn windowed_figures_take_the_median_window() {
        let w = WINDOW.as_nanos() as u64;
        let mut lat = Latencies::default();
        // Three windows; the second runs ten times slower and does a
        // tenth of the work.
        for (window, took, count) in [(0, 100, 100), (1, 1_000, 10), (2, 100, 100)] {
            for i in 0..count {
                lat.lookup.push(Sample {
                    at_ns: window * w + i,
                    took_ns: took,
                });
            }
        }
        let elapsed = WINDOW * 3;
        assert_eq!(windowed_quantile_ns(&lat.lookup, 0.5, elapsed), Some(100.0));
        // 210 samples hold two beyond the 99th percentile: one window.
        assert_eq!(
            windowed_quantile_ns(&lat.lookup, 0.99, elapsed),
            Some(1_000.0)
        );
        // 100 completions 1 ns apart: 99 intervals over 99 ns.
        let rate = windowed_rate(&lat, elapsed);
        assert!((rate - 1e9).abs() < 1e-3, "{rate}");
        // A phase shorter than a window is one window.
        assert_eq!(window_count(WINDOW / 2), 1);
    }

    #[test]
    fn tally_counts_every_failure_kind() {
        let mut t = Tally {
            attempted: 10,
            ..Tally::default()
        };
        t.error(|| "e".into());
        t.wrong(|| "w".into());
        t.not_converged(|| "c".into());
        assert_eq!(t.failed(), 3);
        assert!((t.ratio() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn process_figures_are_readable() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_ms() >= 0.0);
        let before = allocs();
        let v = std::hint::black_box(vec![1u8; 64]);
        drop(v);
        // The test harness may run without the counting allocator; only
        // check that reading the counter works.
        assert!(allocs() >= before);
    }
}
