//! Thread gate for the pooled member-call executor (`repdir_core::exec`).
//!
//! Every quorum wave (pings, reads, writes), hedge and per-member commit is
//! a job on one elastic, process-wide worker pool. Once the pool is warm, a
//! steady workload must reuse its workers instead of starting an OS thread
//! per member call: a thread per call would start several threads per
//! operation. This file holds a single test so that no other test in the
//! same process touches the pool's counters.

use repdir::core::suite::SuiteConfig;
use repdir::core::{Key, UserKey, Value};
use repdir::replica::ReplicatedDirectory;
use std::sync::Arc;

const PRELOAD: u64 = 200;

fn key(i: u64) -> Key {
    Key::User(UserKey::from_u64(i))
}

/// Client `client`'s `n` mixed operations: lookups of preloaded keys,
/// inserts of keys only this client writes. Checks every answer.
fn mix(dir: &ReplicatedDirectory, client: u64, round: u64, n: u64) {
    for op in 0..n {
        if op % 4 == 3 {
            let k = key(1_000_000 * (client + 1) + round * n + op);
            dir.insert(&k, &Value::from("fresh")).expect("insert");
            assert!(dir.lookup(&k).expect("lookup").present);
        } else {
            let out = dir.lookup(&key(op % PRELOAD)).expect("lookup");
            assert_eq!(out.value, Some(Value::from("preloaded")));
        }
    }
}

/// Two client threads run `n` operations each.
fn run_two_clients(dir: &Arc<ReplicatedDirectory>, round: u64, n: u64) {
    let clients: Vec<_> = (0..2)
        .map(|client| {
            let dir = Arc::clone(dir);
            std::thread::spawn(move || mix(&dir, client, round, n))
        })
        .collect();
    for client in clients {
        client.join().expect("client thread");
    }
}

#[test]
fn steady_mixed_load_reuses_pool_workers() {
    let dir =
        Arc::new(ReplicatedDirectory::new(SuiteConfig::symmetric(3, 2, 2).unwrap(), 7).unwrap());
    for i in 0..PRELOAD {
        dir.insert(&key(i), &Value::from("preloaded")).unwrap();
    }
    run_two_clients(&dir, 0, 200);

    let registry = repdir::obs::global();
    let spawned = registry.counter("exec.threads_spawned");
    let jobs = registry.counter("exec.jobs");
    let (spawned_before, jobs_before) = (spawned.get(), jobs.get());
    run_two_clients(&dir, 1, 1_000);
    let spawned = spawned.get() - spawned_before;
    let jobs = jobs.get() - jobs_before;

    // Every operation is at least a read-quorum ping wave, a lookup wave
    // and a commit at three members; the waves really went through the
    // pool.
    assert!(jobs >= 2_000 * 5, "only {jobs} pooled jobs for 2,000 ops");
    assert!(
        spawned <= 32,
        "{spawned} worker threads started for 2,000 warm ops ({jobs} jobs)"
    );
}
