//! The traced run's span recorder. Spans are kept in memory while the run
//! measures and written out when it ends; each span has a name, a start and
//! end, the span that caused it, and the operation it belongs to.
//!
//! The spans come from the benchmark's own code around its calls into each
//! layer (operation → directory transaction → suite call → member call),
//! so a layer's self time is what the layer itself spent outside the
//! layers below it.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The parent of a root span.
pub const ROOT: u64 = 0;

/// One closed span. Times are nanoseconds since the recorder was made.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span store shared by every thread of a traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(ROOT + 1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the recorder was made.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A fresh span id, for a span recorded with [`Tracer::record`].
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a span measured elsewhere (e.g. a phase timed by the caller).
    pub fn record(&self, span: Span) {
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Writes the spans as tab-separated lines to `path`.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\top\tname\tstart_ns\tend_ns")?;
        for s in self.spans() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// An open span; recorded when dropped. With no recorder it records
/// nothing and reads no clock.
#[must_use = "a span closes when dropped"]
pub struct Open<'a> {
    tracer: Option<&'a Tracer>,
    id: u64,
    parent: u64,
    op: u64,
    name: &'static str,
    start_ns: u64,
}

impl Open<'_> {
    /// This span's id, the parent for spans it causes ([`ROOT`] when
    /// untraced).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        if let Some(t) = self.tracer {
            t.record(Span {
                id: self.id,
                parent: self.parent,
                op: self.op,
                name: self.name,
                start_ns: self.start_ns,
                end_ns: t.now_ns(),
            });
        }
    }
}

/// Opens a span named `name` under `parent` for operation `op`.
pub fn open<'a>(tracer: Option<&'a Tracer>, name: &'static str, parent: u64, op: u64) -> Open<'a> {
    match tracer {
        None => Open {
            tracer: None,
            id: ROOT,
            parent,
            op,
            name,
            start_ns: 0,
        },
        Some(t) => Open {
            tracer: Some(t),
            id: t.next_id(),
            parent,
            op,
            name,
            start_ns: t.now_ns(),
        },
    }
}

/// The span context handed to code running on other threads: which
/// operation is current and which span the next spans hang under.
#[derive(Debug)]
pub struct Context {
    pub tracer: Option<Arc<Tracer>>,
    parent: AtomicU64,
    op: AtomicU64,
}

impl Context {
    pub fn new(tracer: Option<Arc<Tracer>>) -> Arc<Self> {
        Arc::new(Context {
            tracer,
            parent: AtomicU64::new(ROOT),
            op: AtomicU64::new(ROOT),
        })
    }

    /// Spans opened through [`Context::open`] from now on hang under
    /// `parent` and belong to `op`.
    pub fn enter(&self, parent: u64, op: u64) {
        self.parent.store(parent, Ordering::Relaxed);
        self.op.store(op, Ordering::Relaxed);
    }

    pub fn open(&self, name: &'static str) -> Open<'_> {
        open(
            self.tracer.as_deref(),
            name,
            self.parent.load(Ordering::Relaxed),
            self.op.load(Ordering::Relaxed),
        )
    }
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part of the span's interval its children cover.
    pub self_ns: u64,
}

/// Sums count, duration and self time per span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != ROOT {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur - covered.min(dur);
    }
    out
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two overlapping member calls under one suite call, as a parallel
        // quorum wave makes them.
        let spans = [
            span(1, ROOT, "op", 0, 100),
            span(2, 1, "suite", 10, 90),
            span(3, 2, "member", 20, 60),
            span(4, 2, "member", 40, 70),
            span(5, 2, "member", 85, 120),
        ];
        let t = totals(&spans);
        assert_eq!(t["op"].self_ns, 20);
        // Children cover 20..70 and 85..90 of 10..90.
        assert_eq!(t["suite"].self_ns, 80 - 55);
        assert_eq!(t["member"].count, 3);
        assert_eq!(t["member"].self_ns, 40 + 30 + 35);
    }

    #[test]
    fn open_records_parent_and_op() {
        let tracer = Tracer::default();
        {
            let op = open(Some(&tracer), "op", ROOT, 7);
            let _child = open(Some(&tracer), "suite", op.id(), 7);
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let op = spans.iter().find(|s| s.name == "op").unwrap();
        let child = spans.iter().find(|s| s.name == "suite").unwrap();
        assert_eq!(child.parent, op.id);
        assert!(child.start_ns >= op.start_ns && child.end_ns <= op.end_ns);
        assert!(spans.iter().all(|s| s.op == 7));
    }

    #[test]
    fn untraced_spans_record_nothing() {
        let s = open(None, "op", ROOT, 1);
        assert_eq!(s.id(), ROOT);
    }
}
