//! Directory representatives: the abstract interface the suite algorithm
//! talks to, and a simple in-process implementation.
//!
//! In the paper (§3.1) "each directory representative is an instance of an
//! abstract object that stores one copy of the directory data", reached via
//! remote procedure calls (`Send(...) to (...)`). [`RepClient`] is that RPC
//! surface. The suite algorithm is generic over it, so the same code runs
//! against:
//!
//! * [`LocalRep`] — an in-process representative (used by the paper-style
//!   simulations, where only algorithmic counts matter),
//! * `repdir-replica`'s transactional representative (range locks + undo
//!   logging + write-ahead log), served directly or across `repdir-net`'s
//!   simulated network.

use std::fmt;
use std::sync::{Arc, RwLock};

use crate::error::RepError;
use crate::gapmap::{
    ChainEntry, CoalesceOutcome, GapMap, InsertOutcome, LookupReply, NeighborReply,
};
use crate::key::Key;
use crate::value::Value;
use crate::version::Version;

/// Identifies one representative within a suite.
///
/// Representatives are numbered `0..n` in suite order. The paper's figures
/// label them A, B, C, …; [`RepId::letter`] renders that form.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RepId(pub u32);

impl RepId {
    /// Renders the id in the paper's figure style: `0 → "A"`, `1 → "B"`, …
    /// Ids past `25` fall back to `R<n>`.
    pub fn letter(self) -> String {
        if self.0 < 26 {
            char::from(b'A' + self.0 as u8).to_string()
        } else {
            format!("R{}", self.0)
        }
    }
}

impl fmt::Debug for RepId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rep{}", self.0)
    }
}

impl fmt::Display for RepId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.letter())
    }
}

/// Result alias for representative operations.
pub type RepResult<T> = Result<T, RepError>;

/// One sub-request inside a batched scatter envelope
/// ([`RepClient::batch`]). Only the operations the suite packs together on
/// its bulk-walk hot paths are representable: a point lookup, the scan's
/// chunked range read, and the versioned insert that bulk ingest scatters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchRequest {
    /// `DirRepLookup(x)`.
    Lookup(Key),
    /// Up to `limit` successive `DirRepSuccessor` results from the key, each
    /// with its entry's value ([`RepClient::successor_entries`]).
    SuccessorEntries(Key, usize),
    /// `DirRepInsert(x, v, z)` — the write half of bulk ingest. Carries the
    /// explicit version the suite assigned, so replaying the same envelope
    /// after a session re-validation overwrites idempotently.
    Insert(Key, Version, Value),
}

/// The reply to one [`BatchRequest`], in request order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchReply {
    /// Reply to [`BatchRequest::Lookup`].
    Lookup(LookupReply),
    /// Reply to [`BatchRequest::SuccessorEntries`].
    Entries(Vec<ChainEntry>),
    /// Reply to [`BatchRequest::Insert`].
    Insert(InsertOutcome),
}

/// The remote-procedure-call surface of a directory representative
/// (paper Fig. 6).
///
/// Implementations must be usable from a shared reference: a suite fans one
/// logical operation out to several representatives, and the concurrent
/// implementations in `repdir-replica` serve many transactions at once.
/// The `Send + Sync` supertraits let the suite's scatter-gather executor
/// issue one wave of member RPCs from scoped threads — a quorum round costs
/// the *slowest* member's latency, not the sum.
///
/// Every method may return [`RepError::Unavailable`] if the representative
/// is down or unreachable; the suite treats that as a vote it cannot collect.
pub trait RepClient: Send + Sync {
    /// This representative's identity within the suite.
    fn id(&self) -> RepId;

    /// Cheap reachability probe used during quorum collection.
    ///
    /// # Errors
    ///
    /// [`RepError::Unavailable`] if the representative cannot currently
    /// serve requests.
    fn ping(&self) -> RepResult<()>;

    /// `DirRepLookup(x)` — entry version and value, or containing-gap
    /// version (Fig. 6). Sets a `RepLookup(x, x)` lock in transactional
    /// implementations.
    fn lookup(&self, key: &Key) -> RepResult<LookupReply>;

    /// `DirRepPredecessor(x)` — greatest entry below `x` plus the
    /// intervening gap version. Sets `RepLookup(y, x)` where `y` is the key
    /// returned.
    fn predecessor(&self, key: &Key) -> RepResult<NeighborReply>;

    /// `DirRepSuccessor(x)` — least entry above `x` plus the intervening gap
    /// version. Sets `RepLookup(x, y)` where `y` is the key returned.
    fn successor(&self, key: &Key) -> RepResult<NeighborReply>;

    /// Up to `limit` *successive* `DirRepPredecessor` results in one call —
    /// the §4 batching optimization ("three successive DirRepPredecessor …
    /// in a single message"). The default forwards to
    /// [`predecessor`](RepClient::predecessor) repeatedly; networked
    /// implementations override it to save round trips.
    ///
    /// # Errors
    ///
    /// As [`predecessor`](RepClient::predecessor).
    fn predecessor_chain(&self, key: &Key, limit: usize) -> RepResult<Vec<NeighborReply>> {
        let mut out = Vec::with_capacity(limit);
        let mut probe = key.clone();
        while out.len() < limit {
            let nb = self.predecessor(&probe)?;
            let done = nb.key == Key::Low;
            probe = nb.key.clone();
            out.push(nb);
            if done {
                break;
            }
        }
        Ok(out)
    }

    /// Up to `limit` successive `DirRepSuccessor` results in one call
    /// (mirror of [`predecessor_chain`](RepClient::predecessor_chain)).
    ///
    /// # Errors
    ///
    /// As [`successor`](RepClient::successor).
    fn successor_chain(&self, key: &Key, limit: usize) -> RepResult<Vec<NeighborReply>> {
        let mut out = Vec::with_capacity(limit);
        let mut probe = key.clone();
        while out.len() < limit {
            let nb = self.successor(&probe)?;
            let done = nb.key == Key::High;
            probe = nb.key.clone();
            out.push(nb);
            if done {
                break;
            }
        }
        Ok(out)
    }

    /// [`successor_chain`](RepClient::successor_chain) with each element's
    /// value, read under the element's own `RepLookup(x, y)` lock — a chunk
    /// of the scan's range read. The default looks every element up after
    /// the chain; transactional and networked implementations read the
    /// value in the same state access as the step.
    ///
    /// # Errors
    ///
    /// As [`successor`](RepClient::successor).
    fn successor_entries(&self, key: &Key, limit: usize) -> RepResult<Vec<ChainEntry>> {
        self.successor_chain(key, limit)?
            .into_iter()
            .map(|neighbor| match self.lookup(&neighbor.key)? {
                LookupReply::Present { value, .. } => Ok(ChainEntry { neighbor, value }),
                LookupReply::Absent { .. } => Err(RepError::Storage(format!(
                    "{:?} vanished between its successor step and its lookup",
                    neighbor.key
                ))),
            })
            .collect()
    }

    /// `DirRepInsert(x, v, z)` — create or overwrite the entry. Sets
    /// `RepModify(x, x)`.
    fn insert(&self, key: &Key, version: Version, value: &Value) -> RepResult<InsertOutcome>;

    /// `DirRepCoalesce(l, h, v)` — delete entries strictly inside `(l, h)`
    /// and give the resulting gap version `v`. Sets `RepModify(l, h)`.
    fn coalesce(&self, low: &Key, high: &Key, version: Version) -> RepResult<CoalesceOutcome>;

    /// Executes several requests as one envelope, returning the
    /// replies in request order. The default runs them sequentially —
    /// correct for in-process representatives, where a "message" is a
    /// method call — while networked implementations override it to pack
    /// the whole batch into a single RPC frame, so a suite wave costs one
    /// round trip regardless of how many probes it carries.
    ///
    /// The first failing sub-request fails the whole envelope: callers
    /// treat an envelope like any other member RPC.
    ///
    /// # Errors
    ///
    /// As the corresponding single-request methods.
    fn batch(&self, reqs: &[BatchRequest]) -> RepResult<Vec<BatchReply>> {
        reqs.iter()
            .map(|req| {
                Ok(match req {
                    BatchRequest::Lookup(key) => BatchReply::Lookup(self.lookup(key)?),
                    BatchRequest::SuccessorEntries(key, limit) => {
                        BatchReply::Entries(self.successor_entries(key, *limit)?)
                    }
                    BatchRequest::Insert(key, version, value) => {
                        BatchReply::Insert(self.insert(key, *version, value)?)
                    }
                })
            })
            .collect()
    }
}

/// Blanket implementation so `&C`, `Arc<C>`, `Box<C>`, … are themselves
/// clients.
impl<T: RepClient + ?Sized> RepClient for &T {
    fn id(&self) -> RepId {
        (**self).id()
    }
    fn ping(&self) -> RepResult<()> {
        (**self).ping()
    }
    fn lookup(&self, key: &Key) -> RepResult<LookupReply> {
        (**self).lookup(key)
    }
    fn predecessor(&self, key: &Key) -> RepResult<NeighborReply> {
        (**self).predecessor(key)
    }
    fn successor(&self, key: &Key) -> RepResult<NeighborReply> {
        (**self).successor(key)
    }
    fn predecessor_chain(&self, key: &Key, limit: usize) -> RepResult<Vec<NeighborReply>> {
        (**self).predecessor_chain(key, limit)
    }
    fn successor_chain(&self, key: &Key, limit: usize) -> RepResult<Vec<NeighborReply>> {
        (**self).successor_chain(key, limit)
    }
    fn successor_entries(&self, key: &Key, limit: usize) -> RepResult<Vec<ChainEntry>> {
        (**self).successor_entries(key, limit)
    }
    fn insert(&self, key: &Key, version: Version, value: &Value) -> RepResult<InsertOutcome> {
        (**self).insert(key, version, value)
    }
    fn coalesce(&self, low: &Key, high: &Key, version: Version) -> RepResult<CoalesceOutcome> {
        (**self).coalesce(low, high, version)
    }
    fn batch(&self, reqs: &[BatchRequest]) -> RepResult<Vec<BatchReply>> {
        (**self).batch(reqs)
    }
}

impl<T: RepClient + ?Sized> RepClient for Arc<T> {
    fn id(&self) -> RepId {
        (**self).id()
    }
    fn ping(&self) -> RepResult<()> {
        (**self).ping()
    }
    fn lookup(&self, key: &Key) -> RepResult<LookupReply> {
        (**self).lookup(key)
    }
    fn predecessor(&self, key: &Key) -> RepResult<NeighborReply> {
        (**self).predecessor(key)
    }
    fn successor(&self, key: &Key) -> RepResult<NeighborReply> {
        (**self).successor(key)
    }
    fn predecessor_chain(&self, key: &Key, limit: usize) -> RepResult<Vec<NeighborReply>> {
        (**self).predecessor_chain(key, limit)
    }
    fn successor_chain(&self, key: &Key, limit: usize) -> RepResult<Vec<NeighborReply>> {
        (**self).successor_chain(key, limit)
    }
    fn successor_entries(&self, key: &Key, limit: usize) -> RepResult<Vec<ChainEntry>> {
        (**self).successor_entries(key, limit)
    }
    fn insert(&self, key: &Key, version: Version, value: &Value) -> RepResult<InsertOutcome> {
        (**self).insert(key, version, value)
    }
    fn coalesce(&self, low: &Key, high: &Key, version: Version) -> RepResult<CoalesceOutcome> {
        (**self).coalesce(low, high, version)
    }
    fn batch(&self, reqs: &[BatchRequest]) -> RepResult<Vec<BatchReply>> {
        (**self).batch(reqs)
    }
}

#[derive(Debug)]
struct LocalRepInner {
    state: GapMap,
    available: bool,
}

/// An in-process directory representative.
///
/// `LocalRep` executes each operation atomically under an internal lock and
/// supports failure injection via [`set_available`](LocalRep::set_available).
/// It is the representative used by the paper-style simulations (§4), where
/// the statistics of interest are algorithmic counts rather than wall-clock
/// behaviour. Clones share the same underlying state, like multiple client
/// stubs for one server.
///
/// # Examples
///
/// ```
/// use repdir_core::{Key, LocalRep, RepClient, Value, Version};
///
/// let rep = LocalRep::new(repdir_core::RepId(0));
/// rep.insert(&Key::from("a"), Version::new(1), &Value::from("A"))?;
/// assert!(rep.lookup(&Key::from("a"))?.is_present());
/// # Ok::<(), repdir_core::RepError>(())
/// ```
#[derive(Clone, Debug)]
pub struct LocalRep {
    id: RepId,
    inner: Arc<RwLock<LocalRepInner>>,
}

impl LocalRep {
    /// Creates an empty, available representative.
    pub fn new(id: RepId) -> Self {
        LocalRep {
            id,
            inner: Arc::new(RwLock::new(LocalRepInner {
                state: GapMap::new(),
                available: true,
            })),
        }
    }

    /// Creates a representative with pre-loaded state (for tests and the
    /// worked figures of the paper).
    pub fn with_state(id: RepId, state: GapMap) -> Self {
        LocalRep {
            id,
            inner: Arc::new(RwLock::new(LocalRepInner {
                state,
                available: true,
            })),
        }
    }

    /// Injects or heals a failure: while unavailable, every operation —
    /// including [`ping`](RepClient::ping) — returns
    /// [`RepError::Unavailable`].
    pub fn set_available(&self, available: bool) {
        self.write().available = available;
    }

    /// Whether the representative is currently serving requests.
    pub fn is_available(&self) -> bool {
        self.read().available
    }

    /// Returns a copy of the representative's current state. Intended for
    /// test assertions and the simulation driver's statistics.
    pub fn snapshot(&self) -> GapMap {
        self.read().state.clone()
    }

    /// Runs a closure against the live state without copying (read-only).
    pub fn inspect<R>(&self, f: impl FnOnce(&GapMap) -> R) -> R {
        f(&self.read().state)
    }

    /// Number of entries currently stored.
    pub fn len(&self) -> usize {
        self.read().state.len()
    }

    /// Whether the representative stores no entries.
    pub fn is_empty(&self) -> bool {
        self.read().state.is_empty()
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, LocalRepInner> {
        self.inner.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, LocalRepInner> {
        self.inner.write().unwrap_or_else(|e| e.into_inner())
    }

    fn check_up(inner: &LocalRepInner) -> RepResult<()> {
        if inner.available {
            Ok(())
        } else {
            Err(RepError::Unavailable)
        }
    }
}

impl RepClient for LocalRep {
    fn id(&self) -> RepId {
        self.id
    }

    fn ping(&self) -> RepResult<()> {
        Self::check_up(&self.read())
    }

    fn lookup(&self, key: &Key) -> RepResult<LookupReply> {
        let g = self.read();
        Self::check_up(&g)?;
        Ok(g.state.lookup(key))
    }

    fn predecessor(&self, key: &Key) -> RepResult<NeighborReply> {
        let g = self.read();
        Self::check_up(&g)?;
        g.state.predecessor(key)
    }

    fn successor(&self, key: &Key) -> RepResult<NeighborReply> {
        let g = self.read();
        Self::check_up(&g)?;
        g.state.successor(key)
    }

    fn predecessor_chain(&self, key: &Key, limit: usize) -> RepResult<Vec<NeighborReply>> {
        let g = self.read();
        Self::check_up(&g)?;
        g.state.predecessor_chain(key, limit)
    }

    fn successor_chain(&self, key: &Key, limit: usize) -> RepResult<Vec<NeighborReply>> {
        let g = self.read();
        Self::check_up(&g)?;
        g.state.successor_chain(key, limit)
    }

    fn successor_entries(&self, key: &Key, limit: usize) -> RepResult<Vec<ChainEntry>> {
        let g = self.read();
        Self::check_up(&g)?;
        g.state.successor_entries(key, limit)
    }

    fn insert(&self, key: &Key, version: Version, value: &Value) -> RepResult<InsertOutcome> {
        let mut g = self.write();
        Self::check_up(&g)?;
        g.state.insert(key, version, value.clone())
    }

    fn coalesce(&self, low: &Key, high: &Key, version: Version) -> RepResult<CoalesceOutcome> {
        let mut g = self.write();
        Self::check_up(&g)?;
        g.state.coalesce(low, high, version)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(s: &str) -> Key {
        Key::from(s)
    }

    #[test]
    fn rep_id_letters() {
        assert_eq!(RepId(0).letter(), "A");
        assert_eq!(RepId(2).letter(), "C");
        assert_eq!(RepId(25).letter(), "Z");
        assert_eq!(RepId(26).letter(), "R26");
        assert_eq!(format!("{:?}", RepId(3)), "rep3");
        assert_eq!(RepId(1).to_string(), "B");
    }

    #[test]
    fn local_rep_round_trip() {
        let rep = LocalRep::new(RepId(0));
        rep.ping().unwrap();
        rep.insert(&k("a"), Version::new(1), &Value::from("A"))
            .unwrap();
        let r = rep.lookup(&k("a")).unwrap();
        assert!(r.is_present());
        assert_eq!(r.version(), Version::new(1));
        assert_eq!(rep.len(), 1);
        assert!(!rep.is_empty());
    }

    #[test]
    fn unavailable_rep_fails_every_operation() {
        let rep = LocalRep::new(RepId(1));
        rep.insert(&k("a"), Version::new(1), &Value::from("A"))
            .unwrap();
        rep.set_available(false);
        assert!(!rep.is_available());
        assert_eq!(rep.ping(), Err(RepError::Unavailable));
        assert_eq!(rep.lookup(&k("a")), Err(RepError::Unavailable));
        assert_eq!(rep.predecessor(&k("z")), Err(RepError::Unavailable));
        assert_eq!(rep.successor(&Key::Low), Err(RepError::Unavailable));
        assert_eq!(
            rep.insert(&k("b"), Version::new(1), &Value::empty()),
            Err(RepError::Unavailable)
        );
        assert_eq!(
            rep.coalesce(&Key::Low, &Key::High, Version::new(1)),
            Err(RepError::Unavailable)
        );
        // Healing restores service with state intact.
        rep.set_available(true);
        assert!(rep.lookup(&k("a")).unwrap().is_present());
    }

    #[test]
    fn clones_share_state() {
        let rep = LocalRep::new(RepId(0));
        let stub = rep.clone();
        stub.insert(&k("x"), Version::new(1), &Value::from("X"))
            .unwrap();
        assert!(rep.lookup(&k("x")).unwrap().is_present());
    }

    #[test]
    fn snapshot_is_detached_copy() {
        let rep = LocalRep::new(RepId(0));
        rep.insert(&k("x"), Version::new(1), &Value::from("X"))
            .unwrap();
        let snap = rep.snapshot();
        rep.coalesce(&Key::Low, &Key::High, Version::new(2))
            .unwrap();
        assert_eq!(snap.len(), 1);
        assert_eq!(rep.len(), 0);
        assert_eq!(rep.inspect(|s| s.len()), 0);
    }

    #[test]
    fn trait_usable_through_references_and_arcs() {
        fn exercise<C: RepClient>(c: C) {
            c.ping().unwrap();
            assert_eq!(c.id(), RepId(7));
        }
        let rep = LocalRep::new(RepId(7));
        exercise(&rep);
        exercise(Arc::new(rep.clone()));
        exercise(rep);
    }

    #[test]
    fn default_batch_matches_individual_calls() {
        let rep = LocalRep::new(RepId(0));
        rep.insert(&k("a"), Version::new(1), &Value::from("A"))
            .unwrap();
        rep.insert(&k("c"), Version::new(2), &Value::from("C"))
            .unwrap();
        let replies = rep
            .batch(&[
                BatchRequest::Lookup(k("a")),
                BatchRequest::SuccessorEntries(Key::Low, 3),
                BatchRequest::Lookup(k("b")),
            ])
            .unwrap();
        assert_eq!(replies.len(), 3);
        assert_eq!(replies[0], BatchReply::Lookup(rep.lookup(&k("a")).unwrap()));
        assert_eq!(
            replies[1],
            BatchReply::Entries(rep.successor_entries(&Key::Low, 3).unwrap())
        );
        assert_eq!(replies[2], BatchReply::Lookup(rep.lookup(&k("b")).unwrap()));
        // Write sub-requests apply through the same dispatch.
        let replies = rep
            .batch(&[BatchRequest::Insert(
                k("b"),
                Version::new(3),
                Value::from("B"),
            )])
            .unwrap();
        assert_eq!(
            replies,
            vec![BatchReply::Insert(InsertOutcome::Created {
                split_gap_version: Version::ZERO,
            })]
        );
        let b = rep.lookup(&k("b")).unwrap();
        assert!(b.is_present());
        assert_eq!(b.version(), Version::new(3));
        // An empty envelope is a no-op.
        assert_eq!(rep.batch(&[]).unwrap(), vec![]);
        // The first failing sub-request fails the envelope.
        rep.set_available(false);
        assert_eq!(
            rep.batch(&[BatchRequest::Lookup(k("a"))]),
            Err(RepError::Unavailable)
        );
    }

    #[test]
    fn successor_entries_pair_each_step_with_its_value() {
        // A client with only the required methods takes the provided path.
        struct Plain(LocalRep);
        impl RepClient for Plain {
            fn id(&self) -> RepId {
                self.0.id()
            }
            fn ping(&self) -> RepResult<()> {
                self.0.ping()
            }
            fn lookup(&self, key: &Key) -> RepResult<LookupReply> {
                self.0.lookup(key)
            }
            fn predecessor(&self, key: &Key) -> RepResult<NeighborReply> {
                self.0.predecessor(key)
            }
            fn successor(&self, key: &Key) -> RepResult<NeighborReply> {
                self.0.successor(key)
            }
            fn insert(&self, key: &Key, v: Version, value: &Value) -> RepResult<InsertOutcome> {
                self.0.insert(key, v, value)
            }
            fn coalesce(&self, low: &Key, high: &Key, v: Version) -> RepResult<CoalesceOutcome> {
                self.0.coalesce(low, high, v)
            }
        }
        let rep = LocalRep::new(RepId(0));
        for (key, v) in [("a", 1), ("b", 4), ("c", 2)] {
            rep.insert(&k(key), Version::new(v), &Value::from(key))
                .unwrap();
        }
        rep.coalesce(&k("a"), &k("c"), Version::new(6)).unwrap();
        let entry = |key: Key, entry: u64, gap: u64, value: &str| ChainEntry {
            neighbor: NeighborReply {
                key,
                entry_version: Version::new(entry),
                gap_version: Version::new(gap),
            },
            value: Value::from(value),
        };
        let all = vec![
            entry(k("a"), 1, 0, "a"),
            entry(k("c"), 2, 6, "c"),
            entry(Key::High, 0, 0, ""),
        ];
        assert_eq!(rep.successor_entries(&Key::Low, 8).unwrap(), all);
        assert_eq!(
            Plain(rep.clone()).successor_entries(&Key::Low, 8).unwrap(),
            all
        );
        // A limit cuts the chunk; the next one continues from its last key.
        assert_eq!(rep.successor_entries(&Key::Low, 1).unwrap(), all[..1]);
        assert_eq!(rep.successor_entries(&k("a"), 8).unwrap(), all[1..]);
        assert_eq!(
            rep.successor_entries(&Key::High, 1),
            Err(RepError::SentinelViolation {
                key: Key::High,
                op: "successor"
            })
        );
    }

    #[test]
    fn with_state_preloads_entries() {
        let mut m = GapMap::new();
        m.insert(&k("a"), Version::new(1), Value::from("A"))
            .unwrap();
        let rep = LocalRep::with_state(RepId(0), m);
        assert_eq!(rep.len(), 1);
    }
}
