//! Per-layer metrics of the traced run: counts from the program's own
//! public counters (the process-wide `repdir_obs` registry and the suites'
//! counters), times from the benchmark's spans, and the process figures.

use std::collections::BTreeMap;

use repdir_obs::Snapshot;

use crate::harness::SuiteCounts;
use crate::measure;
use crate::trace::Totals;

/// Every per-layer metric with its unit, in report order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("directory.self_us", "us"),
    ("directory.retries_per_kop", "count/kop"),
    ("suite.self_us", "us"),
    ("suite.waves_per_op", "count/op"),
    ("suite.member_msgs_per_op", "count/op"),
    ("suite.pings_per_op", "count/op"),
    ("suite.list_msgs_per_entry", "count/entry"),
    ("lock.waits_per_kop", "count/kop"),
    ("lock.wait_us_per_op", "us"),
    ("lock.deadlocks", "count"),
    ("lock.timeouts", "count"),
    ("txn.commit_us", "us"),
    ("wal.syncs_per_op", "count/op"),
    ("wal.appends_per_op", "count/op"),
    ("rep.handle_us", "us"),
    ("rep.requests_per_op", "count/op"),
    ("rpc.calls_per_op", "count/op"),
    ("rpc.batch_parts_per_call", "count/call"),
    ("fabric.msgs_per_op", "count/op"),
    ("rpc.transport_us", "us"),
    ("repair.sweeps_per_catchup", "count"),
    ("repair.pulls_per_catchup", "count"),
    ("repair.snapshot_installs_per_catchup", "count"),
    ("repair.install_ms", "ms"),
    ("repair.bytes_per_catchup", "bytes"),
    ("repair.peer_errors_per_catchup", "count"),
    ("repair.stale_votes_queued", "count"),
    ("catchup.heal_to_converged_ms", "ms"),
    ("cpu_ms_per_kop", "ms"),
    ("allocs_per_op", "count/op"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_us", "us"),
    ("failed_ratio", "ratio"),
];

/// Process-wide readings taken at the edges of the traced phase.
#[derive(Clone, Debug)]
pub struct Probe {
    obs: Snapshot,
    allocs: u64,
    cpu_ms: f64,
}

impl Probe {
    pub fn take() -> Self {
        Probe {
            obs: repdir_obs::global().snapshot(),
            allocs: measure::allocs(),
            cpu_ms: measure::cpu_ms(),
        }
    }
}

/// Everything the traced phase observed.
#[derive(Debug)]
pub struct Traced {
    /// Operations completed in the traced phase (all kinds).
    pub ops: u64,
    /// Catch-up cycles completed in the traced phase.
    pub catchups: u64,
    pub counts: SuiteCounts,
    pub spans: BTreeMap<&'static str, Totals>,
    pub before: Probe,
    pub after: Probe,
    /// Completed operations per second of the untraced and traced halves.
    pub ops_per_s_off: f64,
    pub ops_per_s_on: f64,
    pub failed_ratio: f64,
    /// Stale votes waiting in the directory's queue when the traced phase
    /// ended (read-repair evidence no driver has consumed).
    pub stale_votes_queued: u64,
}

impl Traced {
    /// The per-layer metrics, named as in [`PER_LAYER`].
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let d = self.after.obs.diff(&self.before.obs);
        let c = |name: &str| d.counter(name) as f64;
        let hist_sum_us = |name: &str| d.histogram(name).map_or(0.0, |h| h.sum_us as f64);
        let hist_mean_us = |name: &str| {
            d.histogram(name)
                .filter(|h| h.count > 0)
                .map_or(0.0, |h| h.sum_us as f64 / h.count as f64)
        };
        let span = |name: &str| self.spans.get(name).copied().unwrap_or_default();
        let ops = self.ops.max(1) as f64;
        let per_op = |x: f64| x / ops;
        let per_catchup = |x: f64| x / self.catchups.max(1) as f64;
        let self_us_per_op = |name: &str| per_op(span(name).self_ns as f64 / 1e3);
        // Member calls are the harness's spans around each RPC (fabric
        // only); transport is what the call took beyond the server's own
        // handling of it.
        let member = span("member");
        let transport_us = if member.count == 0 {
            0.0
        } else {
            (member.total_ns as f64 / 1e3 - hist_sum_us("rep.handle")) / member.count as f64
        };
        // The fabric harness commits itself and spans it; the directory's
        // commit records the program's own `txn.commit` span.
        let commit = span("commit");
        let commit_us = if commit.count > 0 {
            commit.total_ns as f64 / 1e3 / commit.count as f64
        } else {
            hist_mean_us("txn.commit")
        };
        let batch_calls = c("rpc.batch.calls");
        let catchup = span("catchup");
        let counts = &self.counts;
        let values = vec![
            ("directory.self_us", self_us_per_op("directory")),
            (
                "directory.retries_per_kop",
                per_op(counts.retries as f64) * 1e3,
            ),
            ("suite.self_us", self_us_per_op("suite")),
            ("suite.waves_per_op", per_op(counts.waves as f64)),
            (
                "suite.member_msgs_per_op",
                per_op(counts.member_msgs as f64),
            ),
            ("suite.pings_per_op", per_op(counts.pings as f64)),
            (
                "suite.list_msgs_per_entry",
                counts.list_msgs as f64 / counts.list_entries.max(1) as f64,
            ),
            ("lock.waits_per_kop", per_op(c("lock.waited")) * 1e3),
            ("lock.wait_us_per_op", per_op(hist_sum_us("lock.wait_us"))),
            ("lock.deadlocks", c("lock.deadlocks")),
            ("lock.timeouts", c("lock.timeouts")),
            ("txn.commit_us", commit_us),
            ("wal.syncs_per_op", per_op(c("wal.syncs"))),
            ("wal.appends_per_op", per_op(c("wal.appends"))),
            ("rep.handle_us", hist_mean_us("rep.handle")),
            ("rep.requests_per_op", per_op(c("rep.requests"))),
            ("rpc.calls_per_op", per_op(c("rpc.calls"))),
            (
                "rpc.batch_parts_per_call",
                if batch_calls > 0.0 {
                    c("rpc.batch.parts") / batch_calls
                } else {
                    0.0
                },
            ),
            ("fabric.msgs_per_op", per_op(c("net.sent"))),
            ("rpc.transport_us", transport_us),
            (
                "repair.sweeps_per_catchup",
                per_catchup(c("repair.driver.sweeps")),
            ),
            (
                "repair.pulls_per_catchup",
                per_catchup(c("repair.driver.targeted_pulls")),
            ),
            (
                "repair.snapshot_installs_per_catchup",
                per_catchup(c("repair.snapshot.installs")),
            ),
            (
                "repair.install_ms",
                hist_mean_us("repair.snapshot.install") / 1e3,
            ),
            (
                "repair.bytes_per_catchup",
                per_catchup(c("repair.bytes") + c("repair.snapshot.bytes")),
            ),
            (
                "repair.peer_errors_per_catchup",
                per_catchup(c("repair.peer_errors")),
            ),
            ("repair.stale_votes_queued", self.stale_votes_queued as f64),
            (
                "catchup.heal_to_converged_ms",
                if catchup.count == 0 {
                    0.0
                } else {
                    catchup.total_ns as f64 / 1e6 / catchup.count as f64
                },
            ),
            (
                "cpu_ms_per_kop",
                per_op(self.after.cpu_ms - self.before.cpu_ms) * 1e3,
            ),
            (
                "allocs_per_op",
                per_op(self.after.allocs.saturating_sub(self.before.allocs) as f64),
            ),
            (
                "trace.overhead_pct",
                (self.ops_per_s_off / self.ops_per_s_on.max(f64::MIN_POSITIVE) - 1.0) * 100.0,
            ),
            ("trace.unattributed_us", self_us_per_op("op")),
            ("failed_ratio", self.failed_ratio),
        ];
        debug_assert!(values.iter().map(|v| v.0).eq(PER_LAYER.iter().map(|p| p.0)));
        values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_per_layer_metric_is_computed_in_order() {
        let p = Probe::take();
        let t = Traced {
            ops: 10,
            catchups: 0,
            counts: SuiteCounts::default(),
            spans: BTreeMap::new(),
            before: p.clone(),
            after: p,
            ops_per_s_off: 100.0,
            ops_per_s_on: 80.0,
            failed_ratio: 0.0,
            stale_votes_queued: 0,
        };
        let m = t.metrics();
        assert!(m.iter().map(|v| v.0).eq(PER_LAYER.iter().map(|p| p.0)));
        let overhead = m.iter().find(|v| v.0 == "trace.overhead_pct").unwrap().1;
        assert!((overhead - 25.0).abs() < 1e-9);
    }
}
