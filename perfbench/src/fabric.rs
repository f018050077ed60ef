//! `fabric`: three `TransactionalRep`s served with `serve_rep` on one
//! zero-delay `Network`, so latency is processor time only. The only
//! workload that goes through codec, RPC and fabric, and the only one whose
//! mix has listings (session quorums, batched envelopes).
//!
//! One closed-loop client runs the point mix plus one full listing per 256
//! point operations. Only one: a listing holds lookup locks over the whole
//! key space and each member's server handles its requests on one thread,
//! so a lock wait inside a handler would stall that member's commit
//! traffic until the lock timeout (see NOTES.md).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use repdir_core::suite::{DirSuite, RandomPolicy, SuiteConfig};
use repdir_core::{
    BatchReply, BatchRequest, CoalesceOutcome, InsertOutcome, Key, LookupReply, NeighborReply,
    RepClient, RepError, RepId, RepResult, SuiteError, Value, Version,
};
use repdir_net::{Network, NodeId, RpcClient, ServerHandle};
use repdir_rangelock::DeadlockDomain;
use repdir_replica::{serve_rep, RemoteSessionClient, TransactionalRep};
use repdir_txn::TxnId;

use crate::harness::{self, Model, SuiteCounts};
use crate::keys::{self, mix64};
use crate::mix::{self, Answer, MixClient, Op};
use crate::trace::{self, Context, Tracer, ROOT};
use crate::{Args, Phase, Report};

const PRELOAD: u64 = 2_000;
const PRELOAD_CHUNK: u64 = 250;
/// Point operations between two listings.
const OPS_PER_LISTING: u64 = 256;
/// Attempts per transaction, as `ReplicatedDirectory::run` allows.
const MAX_ATTEMPTS: u32 = 8;
const CLIENT_NODE: NodeId = NodeId(1);

fn server_node(member: u32) -> NodeId {
    NodeId(100 + member)
}

/// A member client with a `member` span around every call.
struct Member {
    inner: RemoteSessionClient,
    ctx: Arc<Context>,
}

impl RepClient for Member {
    fn id(&self) -> RepId {
        self.inner.id()
    }
    fn ping(&self) -> RepResult<()> {
        let _s = self.ctx.open("member");
        self.inner.ping()
    }
    fn lookup(&self, key: &Key) -> RepResult<LookupReply> {
        let _s = self.ctx.open("member");
        self.inner.lookup(key)
    }
    fn predecessor(&self, key: &Key) -> RepResult<NeighborReply> {
        let _s = self.ctx.open("member");
        self.inner.predecessor(key)
    }
    fn successor(&self, key: &Key) -> RepResult<NeighborReply> {
        let _s = self.ctx.open("member");
        self.inner.successor(key)
    }
    fn predecessor_chain(&self, key: &Key, limit: usize) -> RepResult<Vec<NeighborReply>> {
        let _s = self.ctx.open("member");
        self.inner.predecessor_chain(key, limit)
    }
    fn successor_chain(&self, key: &Key, limit: usize) -> RepResult<Vec<NeighborReply>> {
        let _s = self.ctx.open("member");
        self.inner.successor_chain(key, limit)
    }
    fn insert(&self, key: &Key, version: Version, value: &Value) -> RepResult<InsertOutcome> {
        let _s = self.ctx.open("member");
        self.inner.insert(key, version, value)
    }
    fn coalesce(&self, low: &Key, high: &Key, version: Version) -> RepResult<CoalesceOutcome> {
        let _s = self.ctx.open("member");
        self.inner.coalesce(low, high, version)
    }
    fn batch(&self, reqs: &[BatchRequest]) -> RepResult<Vec<BatchReply>> {
        let _s = self.ctx.open("member");
        self.inner.batch(reqs)
    }
}

/// The served members and the client's RPC node.
pub struct Fabric {
    servers: Vec<ServerHandle>,
    rpc: Arc<RpcClient>,
    config: SuiteConfig,
    next_txn: AtomicU64,
    policy_seed: AtomicU64,
}

impl Drop for Fabric {
    fn drop(&mut self) {
        for s in &self.servers {
            s.stop();
        }
    }
}

impl Fabric {
    pub fn new(seed: u64) -> Self {
        let net = Arc::new(Network::new(seed));
        let domain = Arc::new(DeadlockDomain::new());
        let reps: Vec<_> = (0..3)
            .map(|i| {
                let rep = TransactionalRep::new(RepId(i));
                rep.join_deadlock_domain(&domain);
                rep
            })
            .collect();
        let servers = reps
            .into_iter()
            .zip(0..)
            .map(|(rep, i)| serve_rep(Arc::clone(&net), server_node(i), rep))
            .collect();
        Fabric {
            servers,
            rpc: Arc::new(RpcClient::new(net, CLIENT_NODE)),
            config: crate::point::config(),
            next_txn: AtomicU64::new(1),
            policy_seed: AtomicU64::new(seed),
        }
    }

    /// Runs `body` in a transaction shaped like `ReplicatedDirectory::run`:
    /// begin at every member, a fresh suite with a random policy, commit at
    /// every member concurrently; abort and retry with jittered backoff on
    /// deadlock, lock timeout or an unavailable member.
    fn run<R>(
        &self,
        ctx: &Arc<Context>,
        parent: u64,
        op: u64,
        counts: &mut SuiteCounts,
        mut body: impl FnMut(&mut DirSuite<Member>) -> Result<R, SuiteError>,
    ) -> (Result<R, SuiteError>, u64) {
        let tracer = ctx.tracer.as_deref();
        let span = trace::open(tracer, "directory", parent, op);
        let mut attempt = 0;
        loop {
            ctx.enter(span.id(), op);
            let txn = TxnId(self.next_txn.fetch_add(1, Ordering::Relaxed));
            let clients: Vec<Member> = (0..3)
                .map(|i| {
                    let inner = RemoteSessionClient::new(
                        Arc::clone(&self.rpc),
                        server_node(i),
                        RepId(i),
                        txn,
                    );
                    {
                        let _s = ctx.open("member");
                        // A member that cannot begin stays unusable for this
                        // transaction; the suite routes around it.
                        let _ = inner.begin();
                    }
                    Member {
                        inner,
                        ctx: Arc::clone(ctx),
                    }
                })
                .collect();
            let seed = self.policy_seed.fetch_add(1, Ordering::Relaxed);
            let mut suite = DirSuite::new(
                clients,
                self.config.clone(),
                Box::new(RandomPolicy::new(seed)),
            )
            .expect("member count matches the config");
            let out = {
                let s = trace::open(tracer, "suite", span.id(), op);
                ctx.enter(s.id(), op);
                body(&mut suite)
            };
            let msgs = if tracer.is_some() {
                counts.absorb_suite(&suite)
            } else {
                0
            };
            match out {
                Ok(r) => {
                    let s = trace::open(tracer, "commit", span.id(), op);
                    ctx.enter(s.id(), op);
                    finish(&suite, ctx, |m| {
                        let _ = m.inner.commit();
                    });
                    return (Ok(r), msgs);
                }
                Err(e) => {
                    ctx.enter(span.id(), op);
                    finish(&suite, ctx, |m| m.inner.abort());
                    attempt += 1;
                    let retryable = matches!(
                        e,
                        SuiteError::Rep(RepError::Deadlock)
                            | SuiteError::Rep(RepError::LockTimeout)
                            | SuiteError::Rep(RepError::Unavailable)
                    );
                    if !retryable || attempt >= MAX_ATTEMPTS {
                        return (Err(e), msgs);
                    }
                    counts.retries += 1;
                    let base = 1u64 << attempt.min(6);
                    let jitter = mix64(seed ^ u64::from(attempt)) % base;
                    std::thread::sleep(Duration::from_millis(base + jitter));
                }
            }
        }
    }
}

/// Commits or aborts at every member concurrently, as `DirTxn::commit`
/// does.
fn finish(suite: &DirSuite<Member>, ctx: &Context, f: impl Fn(&Member) + Sync) {
    std::thread::scope(|scope| {
        for i in 0..suite.member_count() {
            let m = suite.member(i);
            let f = &f;
            scope.spawn(move || {
                let _s = ctx.open("member");
                f(m);
            });
        }
    });
}

/// The fixture: served members preloaded through the fabric.
pub fn build(seed: u64) -> Fabric {
    let fx = Fabric::new(seed);
    let ctx = Context::new(None);
    let mut counts = SuiteCounts::default();
    for chunk in mix::preload_chunks(PRELOAD, PRELOAD_CHUNK) {
        fx.run(&ctx, ROOT, 0, &mut counts, |s| s.insert_many(&chunk))
            .0
            .expect("preload on a healthy fabric");
    }
    fx
}

/// The single client's state across phases.
struct Client {
    mix: MixClient,
    model: Model,
    point_ops: u64,
    op_ids: u64,
}

/// The point mix, with one listing per [`OPS_PER_LISTING`] point
/// operations when `lists` is set.
fn run_mix(
    fx: &Fabric,
    client: &mut Client,
    seconds: f64,
    tracer: Option<Arc<Tracer>>,
    lists: bool,
) -> Phase {
    let ctx = Context::new(tracer);
    let tracer = ctx.tracer.clone();
    let tracer = tracer.as_deref();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut phase = Phase::new(start);
    while Instant::now() < deadline {
        client.op_ids += 1;
        let id = client.op_ids;
        let span = trace::open(tracer, "op", ROOT, id);
        phase.tally.attempted += 1;
        let counts = &mut phase.counts;
        if lists && client.point_ops > 0 && client.point_ops.is_multiple_of(OPS_PER_LISTING) {
            client.point_ops += 1;
            let t = Instant::now();
            let (listed, msgs) = fx.run(&ctx, span.id(), id, counts, |s| s.scan());
            match listed {
                Ok(listed) => {
                    phase.lat.record(crate::measure::OpKind::List, t.elapsed());
                    counts.list_msgs += msgs;
                    counts.list_entries += listed.len() as u64;
                    let listed = listed.iter().map(|(k, v)| (k, v));
                    if let Some(d) = harness::first_difference(listed, &client.model) {
                        phase
                            .tally
                            .wrong(|| format!("listing differs from the model at {d}"));
                    }
                }
                Err(e) => phase.tally.error(|| format!("listing failed: {e}")),
            }
            continue;
        }
        client.point_ops += 1;
        let op = client.mix.next_op();
        let key = op.key();
        let t = Instant::now();
        let answer = match op {
            Op::Lookup(_) => fx
                .run(&ctx, span.id(), id, counts, |s| s.lookup(&key))
                .0
                .map(|o| Answer::Lookup(if o.present { o.value } else { None })),
            Op::Insert(idx) => {
                let value = keys::value(idx, 0);
                fx.run(&ctx, span.id(), id, counts, |s| s.insert(&key, &value))
                    .0
                    .map(|_| Answer::Written)
            }
            Op::Delete { .. } => fx
                .run(&ctx, span.id(), id, counts, |s| s.delete(&key))
                .0
                .map(|_| Answer::Written),
        };
        let took = t.elapsed();
        if answer.is_ok() {
            phase.lat.record(op.kind(), took);
            match op {
                Op::Insert(idx) => {
                    client
                        .model
                        .insert(keys::user_key(idx), keys::value(idx, 0));
                }
                Op::Delete { idx, .. } => {
                    client.model.remove(&keys::user_key(idx));
                }
                Op::Lookup(_) => {}
            }
        }
        client.mix.settle(&op, answer, &mut phase.tally);
    }
    phase.elapsed = start.elapsed();
    phase
}

impl Client {
    fn new(seed: u64) -> Self {
        Client {
            mix: MixClient::new(seed, 0, PRELOAD),
            model: mix::preload_model(PRELOAD),
            point_ops: 0,
            op_ids: 0,
        }
    }

    /// Untimed check of the final state: owned keys read back as written.
    fn check_final(&self, fx: &Fabric, tally: &mut crate::measure::Tally) {
        let ctx = Context::new(None);
        let mut counts = SuiteCounts::default();
        for (idx, live) in self.mix.final_checks() {
            let got = fx
                .run(&ctx, ROOT, 0, &mut counts, |s| s.lookup(&keys::key(idx)))
                .0
                .map(|o| if o.present { o.value } else { None });
            mix::settle_final(idx, live, got, tally);
        }
    }
}

pub fn run(args: &Args) -> Report {
    let (fx, setup_s) = harness::setup_median(|| build(args.seed));
    let mut client = Client::new(args.seed);
    let mut report = crate::measure_phases(args, setup_s, |seconds, tracer| {
        run_mix(&fx, &mut client, seconds, tracer.cloned(), true)
    });
    client.check_final(&fx, &mut report.tally);
    report
}

/// Lists the directory back to back until `seconds` pass, beside a writer.
/// The writer's keys come and go, so a listing is checked on the keys that
/// never change: every preloaded key, with its value.
fn lister(fx: &Fabric, seconds: f64, tracer: Option<Arc<Tracer>>) -> Phase {
    let ctx = Context::new(tracer);
    let tracer = ctx.tracer.clone();
    let tracer = tracer.as_deref();
    let preloaded = mix::preload_model(PRELOAD);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut phase = Phase::new(start);
    let mut id = 1 << 40;
    while Instant::now() < deadline {
        id += 1;
        let span = trace::open(tracer, "op", ROOT, id);
        phase.tally.attempted += 1;
        let t = Instant::now();
        match fx
            .run(&ctx, span.id(), id, &mut phase.counts, |s| s.scan())
            .0
        {
            Ok(listed) => {
                phase.lat.record(crate::measure::OpKind::List, t.elapsed());
                let kept = listed
                    .iter()
                    .filter(|(k, v)| preloaded.get(k) == Some(v))
                    .count();
                if kept != preloaded.len() {
                    phase.tally.wrong(|| {
                        format!("concurrent listing kept {kept} of {PRELOAD} preloaded entries")
                    });
                }
            }
            Err(e) => phase
                .tally
                .error(|| format!("concurrent listing failed: {e}")),
        }
    }
    phase.elapsed = start.elapsed();
    phase
}

/// `fabric-lister`, not in `BENCHMARK.json`: the `fabric` fixture with a
/// second client listing back to back beside the point mix, the
/// configuration `fabric` avoids. It measures the stall a listing causes
/// when its lock waits block a member's single serving thread.
pub fn run_lister(args: &Args) -> Report {
    let (fx, setup_s) = harness::setup_median(|| build(args.seed));
    let mut client = Client::new(args.seed);
    let mut report = crate::measure_phases(args, setup_s, |seconds, tracer| {
        std::thread::scope(|s| {
            let listing = s.spawn(|| lister(&fx, seconds, tracer.cloned()));
            let mut phase = run_mix(&fx, &mut client, seconds, tracer.cloned(), false);
            phase.absorb(listing.join().expect("lister thread panicked"));
            phase
        })
    });
    client.check_final(&fx, &mut report.tally);
    report
}
