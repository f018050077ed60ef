//! The repository's benchmark: runs one named workload against the public
//! API of the directory crates, checks every answer against a model kept
//! by the harness, and prints every metric by name with its unit.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload point|fabric|catchup|fabric-lister --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the last line of standard output is a JSON object with
//! the end-to-end metrics; with `--trace 1` the run measures half its time
//! untraced and half with the span recorder on, and reports the per-layer
//! metrics of the traced half. The workloads and the metrics are described
//! in `perfbench/NOTES.md`.

mod catchup;
mod fabric;
mod harness;
mod keys;
mod layers;
mod measure;
mod mix;
mod point;
mod trace;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use harness::SuiteCounts;
use layers::{Probe, Traced};
use measure::{windowed_quantile_ns, windowed_rate, Latencies, Tally};
use trace::Tracer;

#[global_allocator]
static ALLOC: measure::CountingAlloc = measure::CountingAlloc;

/// Every end-to-end metric with its unit, in report order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("lookup_p50_us", "us"),
    ("lookup_p95_us", "us"),
    ("insert_p50_us", "us"),
    ("insert_p95_us", "us"),
    ("delete_p50_us", "us"),
    ("delete_p95_us", "us"),
    ("list_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// The workloads `BENCHMARK.json` runs.
#[cfg(test)]
const GATED: &[&str] = &["point", "fabric"];
/// Every workload this program runs. `catchup` and `fabric-lister` stay out
/// of `BENCHMARK.json` while the defects they show make them fail or stall
/// (see NOTES.md).
const WORKLOADS: &[&str] = &["point", "fabric", "catchup", "fabric-lister"];

/// Command-line arguments.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => {
                return Err(format!("unknown workload {value:?}; one of {WORKLOADS:?}"))
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// What one measured phase of a workload produced.
#[derive(Debug, Default)]
pub struct Phase {
    pub lat: Latencies,
    pub tally: Tally,
    pub elapsed: Duration,
    pub counts: SuiteCounts,
    /// Heal-to-converged times of the catch-up cycles, in seconds.
    pub catchup_s: Vec<f64>,
}

impl Phase {
    pub fn absorb(&mut self, other: Phase) {
        self.lat.absorb(other.lat);
        self.tally.absorb(other.tally);
        self.elapsed = self.elapsed.max(other.elapsed);
        self.counts.absorb(other.counts);
        self.catchup_s.extend(other.catchup_s);
    }

    /// A phase that began at `start`.
    pub fn new(start: std::time::Instant) -> Self {
        Phase {
            lat: Latencies::new(start),
            ..Phase::default()
        }
    }

    fn ops_per_s(&self) -> f64 {
        windowed_rate(&self.lat, self.elapsed)
    }
}

/// A workload's results.
#[derive(Debug, Default)]
pub struct Report {
    pub setup_s: f64,
    /// Peak resident memory when the measured phase begins, in MiB.
    pub peak_rss_mb: f64,
    /// The untraced phase, which the end-to-end metrics come from.
    pub measured: Phase,
    /// Every failure of every phase and check.
    pub tally: Tally,
    pub list_ms: Vec<f64>,
    pub catchup_s: Vec<f64>,
    pub traced: Option<Traced>,
}

/// Runs the workload's measured phase: the whole run untraced, or with
/// `--trace 1` an untraced half followed by a traced half whose spans and
/// counters give the per-layer metrics.
pub fn measure_phases(
    args: &Args,
    setup_s: f64,
    mut phase: impl FnMut(f64, Option<&Arc<Tracer>>) -> Phase,
) -> Report {
    // Memory is read before the mix: what the mix adds is mostly the
    // simulated disk's log, whose size follows how many operations the
    // machine got through, not the program's memory use.
    let mut report = Report {
        setup_s,
        peak_rss_mb: measure::peak_rss_mb(),
        ..Report::default()
    };
    if !args.trace {
        report.measured = phase(args.seconds, None);
    } else {
        let half = args.seconds / 2.0;
        report.measured = phase(half, None);
        let tracer = Arc::new(Tracer::default());
        let before = Probe::take();
        let on = phase(half, Some(&tracer));
        let after = Probe::take();
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}.tsv", args.workload));
        if let Err(e) = tracer.write_tsv(&path) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
        report.traced = Some(Traced {
            ops: on.lat.completed(),
            catchups: on.catchup_s.len() as u64,
            counts: on.counts,
            spans: trace::totals(&tracer.spans()),
            before,
            after,
            ops_per_s_off: report.measured.ops_per_s(),
            ops_per_s_on: on.ops_per_s(),
            failed_ratio: 0.0,
            stale_votes_queued: 0,
        });
        report.catchup_s.extend(on.catchup_s.iter().copied());
        report.tally.absorb(on.tally);
    }
    report
        .catchup_s
        .extend(report.measured.catchup_s.iter().copied());
    report
        .tally
        .absorb(std::mem::take(&mut report.measured.tally));
    report
}

fn end_to_end(report: &Report) -> Vec<(&'static str, f64)> {
    let lat = &report.measured.lat;
    let elapsed = report.measured.elapsed;
    let q = |s: &[measure::Sample], q: f64| windowed_quantile_ns(s, q, elapsed);
    let us = |s: &[measure::Sample], p: f64| q(s, p).map_or(f64::NAN, |ns| ns / 1e3);
    // Listings in the mix (fabric) are windowed like every other
    // operation; otherwise they are the workload's listings outside the mix.
    let list_ms = match q(&lat.list, 0.5) {
        Some(ns) => ns / 1e6,
        None => measure::median(&report.list_ms).unwrap_or(f64::NAN),
    };
    let values = vec![
        ("setup_s", report.setup_s),
        ("ops_per_s", report.measured.ops_per_s()),
        ("lookup_p50_us", us(&lat.lookup, 0.5)),
        ("lookup_p95_us", us(&lat.lookup, 0.95)),
        ("insert_p50_us", us(&lat.insert, 0.5)),
        ("insert_p95_us", us(&lat.insert, 0.95)),
        ("delete_p50_us", us(&lat.delete, 0.5)),
        ("delete_p95_us", us(&lat.delete, 0.95)),
        ("list_p50_ms", list_ms),
        ("peak_rss_mb", report.peak_rss_mb),
    ];
    debug_assert!(values
        .iter()
        .map(|v| v.0)
        .eq(END_TO_END.iter().map(|m| m.0)));
    values
}

/// The 99th percentiles, printed for reference. They are not in
/// `BENCHMARK.json`: a `fabric` run has barely ten inserts or deletes beyond
/// p99, and on a shared machine p99 moves more between runs than any bound
/// the benchmark may set.
fn tails(phase: &Phase) -> [(&'static str, f64); 3] {
    let us = |s: &[measure::Sample]| {
        windowed_quantile_ns(s, 0.99, phase.elapsed).map_or(f64::NAN, |ns| ns / 1e3)
    };
    [
        ("lookup_p99_us", us(&phase.lat.lookup)),
        ("insert_p99_us", us(&phase.lat.insert)),
        ("delete_p99_us", us(&phase.lat.delete)),
    ]
}

/// A JSON number; a metric that could not be measured has no number and
/// is reported as `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn result_line(report: &Report, metrics: &[(&'static str, f64)], units: &[(&str, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v)| {
            let unit = units
                .iter()
                .find(|u| u.0 == *name)
                .map(|u| u.1)
                .expect("every metric has a unit");
            format!(
                r#""{name}": {{"value": {}, "unit": "{unit}"}}"#,
                json_number(*v)
            )
        })
        .collect();
    let all_measured = metrics.iter().all(|(_, v)| v.is_finite());
    format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        report.tally.failed() == 0 && all_measured,
        report.tally.attempted.max(1),
        report.tally.failed(),
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload point|fabric|catchup|fabric-lister --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let mut report = match args.workload.as_str() {
        "point" => point::run(&args),
        "fabric" => fabric::run(&args),
        "catchup" => catchup::run(&args),
        "fabric-lister" => fabric::run_lister(&args),
        other => unreachable!("parse_args accepted workload {other}"),
    };
    let failed_ratio = report.tally.ratio();
    if let Some(t) = report.traced.as_mut() {
        t.failed_ratio = failed_ratio;
    }
    let (metrics, units) = match &report.traced {
        Some(t) => (t.metrics(), layers::PER_LAYER),
        None => (end_to_end(&report), END_TO_END),
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let lat = &report.measured.lat;
    println!(
        "samples: lookup {} insert {} delete {} list {} catchup {}",
        lat.lookup.len(),
        lat.insert.len(),
        lat.delete.len(),
        lat.list.len() + report.list_ms.len(),
        report.catchup_s.len()
    );
    for (name, v) in &metrics {
        let unit = units.iter().find(|u| u.0 == *name).map_or("", |u| u.1);
        println!("{name:<40} {v:>14.3} {unit}");
    }
    if report.traced.is_none() {
        for (name, p99) in tails(&report.measured) {
            println!("{name:<40} {p99:>14.3} us (not gated: see NOTES.md)");
        }
    }
    // The catchup workload's own figure; no gated workload has a heal.
    if let Some(c) = measure::median(&report.catchup_s) {
        println!("{:<40} {c:>14.3} s", "catchup_s");
    }
    println!(
        "{:<40} {:>14.6} ratio ({} failed of {} attempted)",
        "failures",
        failed_ratio,
        report.tally.failed(),
        report.tally.attempted
    );
    for note in &report.tally.notes {
        println!("failure: {note}");
    }
    println!("{}", result_line(&report, &metrics, units));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&argv("--workload fabric --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            a,
            Args {
                workload: "fabric".into(),
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload point --seed x --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload point --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload point --seed 1")).is_err());
        assert!(parse_args(&argv("--workload point --seed 1 --seconds 1 --trace")).is_err());
    }

    #[test]
    fn a_failure_makes_the_result_incorrect() {
        let mut report = Report::default();
        report.tally.attempted = 4;
        let metrics = vec![("setup_s", 1.5)];
        let ok = result_line(&report, &metrics, END_TO_END);
        assert!(
            ok.starts_with(r#"{"correct": true, "attempted": 4, "failed": 0"#),
            "{ok}"
        );
        report.tally.wrong(|| "planted".into());
        let bad = result_line(&report, &metrics, END_TO_END);
        assert!(
            bad.starts_with(r#"{"correct": false, "attempted": 4, "failed": 1"#),
            "{bad}"
        );
    }

    /// `BENCHMARK.json` at the repository root names exactly the metrics
    /// this program reports, with the same units.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let rest = &json[start..];
            rest[..rest.find(']').expect("section closes")].to_string()
        };
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", layers::PER_LAYER)] {
            let s = section(key);
            let entries = s.matches("\"name\"").count();
            assert_eq!(entries, table.len(), "{key}: metric count");
            for (name, unit) in table {
                let pat = format!(r#""name": "{name}", "unit": "{unit}""#);
                assert!(s.contains(&pat), "{key}: {pat} missing");
            }
        }
        let workloads = section("workloads");
        assert_eq!(workloads.matches("\"name\"").count(), GATED.len());
        for w in GATED {
            assert!(workloads.contains(&format!(r#""name": "{w}""#)), "{w}");
        }
    }
}
