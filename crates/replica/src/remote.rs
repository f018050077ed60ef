//! Serving a representative over the simulated network, and the matching
//! remote client.

use std::sync::Arc;
use std::time::Duration;

use repdir_core::{
    BatchReply, BatchRequest, ChainEntry, CoalesceOutcome, InsertOutcome, Key, LookupReply,
    NeighborReply, RepClient, RepError, RepId, RepResult, Value, Version,
};
use repdir_net::{serve, Network, NodeId, RpcClient, ServerHandle};
use repdir_txn::TxnId;

use crate::codec::{
    decode_batch_response, decode_request, decode_response, encode_request, encode_response,
    Request, Response,
};
use crate::server::TransactionalRep;

/// Runs a [`TransactionalRep`] as an RPC server at `node`. Returns the
/// handle that stops the serving thread.
pub fn serve_rep(net: Arc<Network>, node: NodeId, rep: Arc<TransactionalRep>) -> ServerHandle {
    let obs = repdir_obs::global();
    let requests = obs.counter("rep.requests");
    let batch_served = obs.counter("rpc.batch.served");
    let batch_parts = obs.counter("rpc.batch.served_parts");
    serve(net, node, move |payload| {
        requests.inc();
        let _span = obs.span("rep.handle");
        let response = match decode_request(payload) {
            Err(e) => Response::Err(RepError::Storage(format!("bad request: {e}"))),
            Ok(req) => {
                if let Request::Batch(parts) = &req {
                    batch_served.inc();
                    batch_parts.add(parts.len() as u64);
                }
                dispatch(&rep, req)
            }
        };
        encode_response(&response)
    })
}

fn dispatch(rep: &TransactionalRep, req: Request) -> Response {
    fn wrap<T>(r: RepResult<T>, f: impl FnOnce(T) -> Response) -> Response {
        match r {
            Ok(v) => f(v),
            Err(e) => Response::Err(e),
        }
    }
    match req {
        Request::Ping => wrap(rep.ping(), |()| Response::Ok),
        Request::Begin(t) => wrap(rep.begin(t), |()| Response::Ok),
        Request::Lookup(t, k) => wrap(rep.lookup(t, &k), Response::Lookup),
        Request::Predecessor(t, k) => wrap(rep.predecessor(t, &k), Response::Neighbor),
        Request::Successor(t, k) => wrap(rep.successor(t, &k), Response::Neighbor),
        Request::PredecessorChain(t, k, limit) => wrap(
            rep.predecessor_chain(t, &k, limit as usize),
            Response::Chain,
        ),
        Request::SuccessorChain(t, k, limit) => {
            wrap(rep.successor_chain(t, &k, limit as usize), Response::Chain)
        }
        Request::SuccessorEntries(t, k, limit) => wrap(
            rep.successor_entries(t, &k, limit as usize),
            Response::Entries,
        ),
        Request::Insert(t, k, v, val) => wrap(rep.insert(t, &k, v, &val), Response::Insert),
        Request::Coalesce(t, l, h, v) => wrap(rep.coalesce(t, &l, &h, v), Response::Coalesce),
        Request::Commit(t) => wrap(rep.commit(t), |()| Response::Ok),
        Request::Abort(t) => {
            rep.abort(t);
            Response::Ok
        }
        // Sub-requests are dispatched in order; a failing sub-request
        // becomes a `Response::Err` part, and the client fails the whole
        // envelope on the first one it finds.
        Request::Batch(reqs) => {
            Response::Batch(reqs.into_iter().map(|r| dispatch(rep, r)).collect())
        }
        // Anti-entropy endpoints: read-only, no coordinator transaction.
        Request::Summary { level, path } => {
            wrap(rep.summary_children(level, path), Response::Summary)
        }
        Request::Pull { bucket } => wrap(rep.repair_bucket(bucket), Response::Pull),
        // Snapshot catch-up endpoints: read-only, cursor-addressed.
        Request::SnapshotBegin => wrap(rep.snapshot_manifest(), Response::SnapshotManifest),
        Request::SnapshotChunk { after, max } => wrap(
            rep.snapshot_chunk(after.as_ref(), max),
            Response::SnapshotChunk,
        ),
    }
}

/// A transaction's handle to a representative served across the network.
///
/// RPC failures (timeout, unreachable) surface as
/// [`RepError::Unavailable`] — exactly how the suite treats a
/// representative it cannot gather into a quorum. One `RemoteSessionClient`
/// serves one transaction; the underlying [`RpcClient`] node is shared per
/// suite client.
#[derive(Debug)]
pub struct RemoteSessionClient {
    rpc: Arc<RpcClient>,
    server: NodeId,
    rep_id: RepId,
    txn: TxnId,
    timeout: Duration,
}

impl RemoteSessionClient {
    /// Default per-call deadline.
    pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(2);

    /// Creates a client for representative `rep_id` served at `server`,
    /// acting for transaction `txn`.
    pub fn new(rpc: Arc<RpcClient>, server: NodeId, rep_id: RepId, txn: TxnId) -> Self {
        RemoteSessionClient {
            rpc,
            server,
            rep_id,
            txn,
            timeout: Self::DEFAULT_TIMEOUT,
        }
    }

    /// Overrides the per-call deadline.
    pub fn set_timeout(&mut self, timeout: Duration) {
        self.timeout = timeout;
    }

    /// Registers the transaction at the remote representative.
    ///
    /// # Errors
    ///
    /// [`RepError::Unavailable`] on RPC failure.
    pub fn begin(&self) -> RepResult<()> {
        match self.call(Request::Begin(self.txn))? {
            Response::Ok => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Commits the transaction at the remote representative.
    ///
    /// # Errors
    ///
    /// [`RepError::Unavailable`] on RPC failure.
    pub fn commit(&self) -> RepResult<()> {
        match self.call(Request::Commit(self.txn))? {
            Response::Ok => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Aborts the transaction at the remote representative (best effort —
    /// an unreachable representative will roll back when its lock timeouts
    /// fire or it restarts).
    pub fn abort(&self) {
        let _ = self.call(Request::Abort(self.txn));
    }

    fn call(&self, req: Request) -> RepResult<Response> {
        let reply = self
            .rpc
            .call(self.server, encode_request(&req), self.timeout)
            .map_err(|_| RepError::Unavailable)?;
        let resp =
            decode_response(&reply).map_err(|e| RepError::Storage(format!("bad response: {e}")))?;
        match resp {
            Response::Err(e) => Err(e),
            ok => Ok(ok),
        }
    }
}

fn unexpected(resp: Response) -> RepError {
    RepError::Storage(format!("protocol violation: unexpected response {resp:?}"))
}

impl RepClient for RemoteSessionClient {
    fn id(&self) -> RepId {
        self.rep_id
    }

    fn ping(&self) -> RepResult<()> {
        match self.call(Request::Ping)? {
            Response::Ok => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    fn lookup(&self, key: &Key) -> RepResult<LookupReply> {
        match self.call(Request::Lookup(self.txn, key.clone()))? {
            Response::Lookup(r) => Ok(r),
            other => Err(unexpected(other)),
        }
    }

    fn predecessor(&self, key: &Key) -> RepResult<NeighborReply> {
        match self.call(Request::Predecessor(self.txn, key.clone()))? {
            Response::Neighbor(r) => Ok(r),
            other => Err(unexpected(other)),
        }
    }

    fn successor(&self, key: &Key) -> RepResult<NeighborReply> {
        match self.call(Request::Successor(self.txn, key.clone()))? {
            Response::Neighbor(r) => Ok(r),
            other => Err(unexpected(other)),
        }
    }

    fn predecessor_chain(&self, key: &Key, limit: usize) -> RepResult<Vec<NeighborReply>> {
        match self.call(Request::PredecessorChain(
            self.txn,
            key.clone(),
            limit as u32,
        ))? {
            Response::Chain(chain) => Ok(chain),
            other => Err(unexpected(other)),
        }
    }

    fn successor_chain(&self, key: &Key, limit: usize) -> RepResult<Vec<NeighborReply>> {
        match self.call(Request::SuccessorChain(self.txn, key.clone(), limit as u32))? {
            Response::Chain(chain) => Ok(chain),
            other => Err(unexpected(other)),
        }
    }

    fn successor_entries(&self, key: &Key, limit: usize) -> RepResult<Vec<ChainEntry>> {
        match self.call(Request::SuccessorEntries(
            self.txn,
            key.clone(),
            limit as u32,
        ))? {
            Response::Entries(entries) => Ok(entries),
            other => Err(unexpected(other)),
        }
    }

    fn insert(&self, key: &Key, version: Version, value: &Value) -> RepResult<InsertOutcome> {
        match self.call(Request::Insert(
            self.txn,
            key.clone(),
            version,
            value.clone(),
        ))? {
            Response::Insert(r) => Ok(r),
            other => Err(unexpected(other)),
        }
    }

    fn coalesce(&self, low: &Key, high: &Key, version: Version) -> RepResult<CoalesceOutcome> {
        match self.call(Request::Coalesce(
            self.txn,
            low.clone(),
            high.clone(),
            version,
        ))? {
            Response::Coalesce(r) => Ok(r),
            other => Err(unexpected(other)),
        }
    }

    /// Packs the whole batch into one `Request::Batch` envelope — one
    /// message and one round trip regardless of how many probes it carries,
    /// which is the point of batched scatter envelopes.
    fn batch(&self, reqs: &[BatchRequest]) -> RepResult<Vec<BatchReply>> {
        if reqs.is_empty() {
            return Ok(Vec::new());
        }
        let wire: Vec<Request> = reqs
            .iter()
            .map(|r| match r {
                BatchRequest::Lookup(k) => Request::Lookup(self.txn, k.clone()),
                BatchRequest::SuccessorEntries(k, limit) => {
                    Request::SuccessorEntries(self.txn, k.clone(), *limit as u32)
                }
                BatchRequest::Insert(k, v, val) => {
                    Request::Insert(self.txn, k.clone(), *v, val.clone())
                }
            })
            .collect();
        let obs = repdir_obs::global();
        obs.counter("rpc.batch.calls").inc();
        obs.counter("rpc.batch.parts").add(reqs.len() as u64);
        // Decode through the arity-checking helper: a reply that cannot
        // answer exactly this envelope is a protocol violation, never a
        // silent truncation of the tail sub-requests.
        let reply = self
            .rpc
            .call(
                self.server,
                encode_request(&Request::Batch(wire)),
                self.timeout,
            )
            .map_err(|_| RepError::Unavailable)?;
        let parts = match decode_batch_response(&reply, reqs.len())
            .map_err(|e| RepError::Storage(format!("bad response: {e}")))?
        {
            Response::Batch(parts) => parts,
            Response::Err(e) => return Err(e),
            other => return Err(unexpected(other)),
        };
        reqs.iter()
            .zip(parts)
            .map(|(req, part)| match (req, part) {
                (BatchRequest::Lookup(_), Response::Lookup(r)) => Ok(BatchReply::Lookup(r)),
                (BatchRequest::Insert(..), Response::Insert(r)) => Ok(BatchReply::Insert(r)),
                (BatchRequest::SuccessorEntries(..), Response::Entries(e)) => {
                    Ok(BatchReply::Entries(e))
                }
                (_, Response::Err(e)) => Err(e),
                (_, other) => Err(unexpected(other)),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(s: &str) -> Key {
        Key::from(s)
    }

    fn setup() -> (
        Arc<Network>,
        Arc<TransactionalRep>,
        ServerHandle,
        Arc<RpcClient>,
    ) {
        let net = Arc::new(Network::new(11));
        let rep = TransactionalRep::new(RepId(0));
        let handle = serve_rep(Arc::clone(&net), NodeId(10), Arc::clone(&rep));
        let rpc = Arc::new(RpcClient::new(Arc::clone(&net), NodeId(0)));
        (net, rep, handle, rpc)
    }

    #[test]
    fn remote_round_trip() {
        let (_net, rep, _handle, rpc) = setup();
        let client = RemoteSessionClient::new(rpc, NodeId(10), RepId(0), TxnId(1));
        client.begin().unwrap();
        client.ping().unwrap();
        client
            .insert(&k("a"), Version::new(1), &Value::from("A"))
            .unwrap();
        assert!(client.lookup(&k("a")).unwrap().is_present());
        assert_eq!(client.successor(&Key::Low).unwrap().key, k("a"));
        assert_eq!(client.predecessor(&Key::High).unwrap().key, k("a"));
        client.commit().unwrap();
        assert_eq!(rep.len(), 1);
    }

    #[test]
    fn remote_errors_propagate_with_structure() {
        let (_net, _rep, _handle, rpc) = setup();
        let client = RemoteSessionClient::new(rpc, NodeId(10), RepId(0), TxnId(1));
        client.begin().unwrap();
        // Sentinel violation crosses the wire intact.
        let err = client
            .insert(&Key::Low, Version::new(1), &Value::empty())
            .unwrap_err();
        assert!(matches!(err, RepError::SentinelViolation { .. }));
        // Coalesce boundary error carries the key.
        let err = client
            .coalesce(&k("nope"), &Key::High, Version::new(1))
            .unwrap_err();
        assert_eq!(err, RepError::NoSuchBoundary { key: k("nope") });
        client.abort();
    }

    #[test]
    fn partition_makes_rep_unavailable() {
        let (net, _rep, _handle, rpc) = setup();
        let mut client = RemoteSessionClient::new(rpc, NodeId(10), RepId(0), TxnId(1));
        client.set_timeout(Duration::from_millis(50));
        client.begin().unwrap();
        net.partition(&[&[NodeId(0)], &[NodeId(10)]]);
        assert_eq!(client.ping(), Err(RepError::Unavailable));
        assert_eq!(client.lookup(&k("a")), Err(RepError::Unavailable));
        net.heal();
        client.ping().unwrap();
    }

    #[test]
    fn server_side_abort_rolls_back() {
        let (_net, rep, _handle, rpc) = setup();
        let client = RemoteSessionClient::new(rpc, NodeId(10), RepId(0), TxnId(1));
        client.begin().unwrap();
        client
            .insert(&k("temp"), Version::new(1), &Value::from("T"))
            .unwrap();
        client.abort();
        assert_eq!(rep.len(), 0);
    }

    #[test]
    fn batch_envelope_is_one_message_with_ordered_replies() {
        let (net, _rep, _handle, rpc) = setup();
        let client = RemoteSessionClient::new(rpc, NodeId(10), RepId(0), TxnId(1));
        client.begin().unwrap();
        client
            .insert(&k("a"), Version::new(1), &Value::from("A"))
            .unwrap();
        client
            .insert(&k("c"), Version::new(1), &Value::from("C"))
            .unwrap();
        let before = net.stats().sent;
        let replies = client
            .batch(&[
                BatchRequest::Lookup(k("a")),
                BatchRequest::SuccessorEntries(k("a"), 2),
                BatchRequest::SuccessorEntries(Key::Low, 8),
            ])
            .unwrap();
        // One request plus one response on the fabric for three probes.
        assert_eq!(net.stats().sent - before, 2);
        assert_eq!(replies.len(), 3);
        assert_eq!(
            replies[0],
            BatchReply::Lookup(client.lookup(&k("a")).unwrap())
        );
        assert_eq!(
            replies[1],
            BatchReply::Entries(client.successor_entries(&k("a"), 2).unwrap())
        );
        assert_eq!(
            replies[2],
            BatchReply::Entries(client.successor_entries(&Key::Low, 8).unwrap())
        );
        // A failing sub-request fails the envelope with its own error.
        let err = client
            .batch(&[BatchRequest::SuccessorEntries(Key::High, 1)])
            .unwrap_err();
        assert!(matches!(err, RepError::SentinelViolation { .. }), "{err:?}");
        client.abort();
    }

    #[test]
    fn successor_entries_travel_as_one_frame() {
        let (net, rep, _handle, rpc) = setup();
        let client = RemoteSessionClient::new(rpc, NodeId(10), RepId(0), TxnId(1));
        client.begin().unwrap();
        for key in ["a", "b", "c"] {
            client
                .insert(&k(key), Version::new(1), &Value::from(key))
                .unwrap();
        }
        let before = net.stats().sent;
        let chunk = client.successor_entries(&Key::Low, 8).unwrap();
        assert_eq!(net.stats().sent - before, 2, "one request, one response");
        assert_eq!(
            chunk,
            rep.successor_entries(TxnId(1), &Key::Low, 8).unwrap()
        );
        let keys: Vec<Key> = chunk.iter().map(|e| e.neighbor.key.clone()).collect();
        assert_eq!(keys, vec![k("a"), k("b"), k("c"), Key::High]);
        assert_eq!(chunk[1].value, Value::from("b"));
        client.abort();
    }

    #[test]
    fn batch_envelope_carries_inserts() {
        let (net, rep, _handle, rpc) = setup();
        let client = RemoteSessionClient::new(rpc, NodeId(10), RepId(0), TxnId(1));
        client.begin().unwrap();
        let before = net.stats().sent;
        let replies = client
            .batch(&[
                BatchRequest::Insert(k("a"), Version::new(1), Value::from("A")),
                BatchRequest::Insert(k("b"), Version::new(2), Value::from("B")),
                BatchRequest::Lookup(k("a")),
            ])
            .unwrap();
        // Two writes and a probe still ride one request/response pair.
        assert_eq!(net.stats().sent - before, 2);
        assert_eq!(replies.len(), 3);
        assert!(matches!(
            replies[0],
            BatchReply::Insert(InsertOutcome::Created { .. })
        ));
        assert!(matches!(
            replies[1],
            BatchReply::Insert(InsertOutcome::Created { .. })
        ));
        match &replies[2] {
            BatchReply::Lookup(r) => {
                assert!(r.is_present());
                assert_eq!(r.version(), Version::new(1));
            }
            other => panic!("expected lookup reply, got {other:?}"),
        }
        client.commit().unwrap();
        assert_eq!(rep.len(), 2);
    }

    #[test]
    fn short_batch_reply_is_a_protocol_error_not_a_truncation() {
        // A rigged server answers every batch with a single-part reply; the
        // client must refuse to zip it against a longer request list.
        let net = Arc::new(Network::new(13));
        let _handle = serve(Arc::clone(&net), NodeId(10), move |payload| {
            let resp = match decode_request(payload) {
                Ok(Request::Batch(_)) => Response::Batch(vec![Response::Ok]),
                _ => Response::Ok,
            };
            encode_response(&resp)
        });
        let rpc = Arc::new(RpcClient::new(Arc::clone(&net), NodeId(0)));
        let client = RemoteSessionClient::new(rpc, NodeId(10), RepId(0), TxnId(1));
        let err = client
            .batch(&[BatchRequest::Lookup(k("a")), BatchRequest::Lookup(k("b"))])
            .unwrap_err();
        match err {
            RepError::Storage(msg) => assert!(msg.contains("arity"), "{msg}"),
            other => panic!("expected storage error, got {other:?}"),
        }
    }

    #[test]
    fn remote_client_is_send_and_sync() {
        // The suite's fan-out executor lends &RemoteSessionClient to scoped
        // threads, so concurrent in-flight calls through one client (and
        // one shared RpcClient) must be sound.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RemoteSessionClient>();
    }

    #[test]
    fn concurrent_in_flight_calls_share_one_client() {
        let (_net, _rep, _handle, rpc) = setup();
        let client = RemoteSessionClient::new(rpc, NodeId(10), RepId(0), TxnId(1));
        client.begin().unwrap();
        for i in 0..8u32 {
            client
                .insert(
                    &Key::from(format!("k{i}").as_str()),
                    Version::new(1),
                    &Value::from("v"),
                )
                .unwrap();
        }
        // Eight threads issue overlapping lookups and pings through the
        // same client; the RPC router must hand every reply to its caller.
        std::thread::scope(|scope| {
            for t in 0..8u32 {
                let client = &client;
                scope.spawn(move || {
                    for _ in 0..20 {
                        client.ping().unwrap();
                        let key = Key::from(format!("k{t}").as_str());
                        assert!(client.lookup(&key).unwrap().is_present());
                    }
                });
            }
        });
        client.abort();
    }

    #[test]
    fn suite_runs_over_remote_clients() {
        use repdir_core::suite::{DirSuite, FixedPolicy, SuiteConfig};
        let net = Arc::new(Network::new(12));
        let mut handles = Vec::new();
        let mut reps = Vec::new();
        for i in 0..3u32 {
            let rep = TransactionalRep::new(RepId(i));
            handles.push(serve_rep(
                Arc::clone(&net),
                NodeId(100 + i),
                Arc::clone(&rep),
            ));
            reps.push(rep);
        }
        let rpc = Arc::new(RpcClient::new(Arc::clone(&net), NodeId(0)));
        let txn = TxnId(1);
        let clients: Vec<RemoteSessionClient> = (0..3u32)
            .map(|i| RemoteSessionClient::new(Arc::clone(&rpc), NodeId(100 + i), RepId(i), txn))
            .collect();
        for c in &clients {
            c.begin().unwrap();
        }
        let mut suite = DirSuite::new(
            clients,
            SuiteConfig::symmetric(3, 2, 2).unwrap(),
            Box::new(FixedPolicy::new()),
        )
        .unwrap();
        suite.insert(&k("net"), &Value::from("works")).unwrap();
        assert!(suite.lookup(&k("net")).unwrap().present);
        suite.delete(&k("net")).unwrap();
        assert!(!suite.lookup(&k("net")).unwrap().present);
        for i in 0..3 {
            suite.member(i).commit().unwrap();
        }
        // Reps 0 and 1 were the fixed quorum: both saw the traffic.
        assert!(reps[0].snapshot().is_empty());
    }
}
