//! Durable representative state: gap-versioned map + write-ahead log +
//! in-memory undo, with crash recovery.

use std::collections::HashMap;
use std::sync::Arc;

use repdir_core::{
    CoalesceOutcome, GapMap, InsertOutcome, Key, LookupReply, NeighborReply, RepError, UserKey,
    Value, Version,
};
use repdir_txn::{undo_for_coalesce, undo_for_insert, TxnId, UndoRecord};

use crate::simdisk::SimDisk;
use crate::state::{Backend, DirState};
use crate::wal::{replay, Wal, WalError, WalRecord};

/// A representative's state with full transactional durability:
///
/// * mutations apply to the in-memory [`GapMap`] and append redo records to
///   the WAL, the first one of a transaction preceded by its begin record;
/// * [`commit`](DurableState::commit) appends a commit record and syncs —
///   the durability point;
/// * [`abort`](DurableState::abort) rolls the memory state back via the
///   undo log and appends an abort record;
/// * a read-only transaction writes nothing to the WAL at all;
/// * [`recover`](DurableState::recover) rebuilds the committed state from
///   the durable log after a crash, discarding in-flight transactions.
///
/// This is the "transactional storage system … assumed to hold each
/// representative" of the paper's §2, made concrete.
///
/// # Examples
///
/// ```
/// use repdir_core::{Key, Value, Version};
/// use repdir_storage::{DurableState, SimDisk};
/// use repdir_txn::TxnId;
/// use std::sync::Arc;
///
/// let disk = Arc::new(SimDisk::new());
/// let mut st = DurableState::new(Arc::clone(&disk));
/// let t = TxnId(1);
/// st.begin(t);
/// st.insert(t, &Key::from("a"), Version::new(1), Value::from("A"))?;
/// st.commit(t);
///
/// // Crash: everything unsynced is lost; recovery finds the commit.
/// disk.crash(0);
/// let recovered = DurableState::recover(disk)?;
/// assert!(recovered.lookup(&Key::from("a")).is_present());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct DurableState {
    state: Box<dyn DirState>,
    wal: Wal,
    undo: HashMap<TxnId, Vec<UndoRecord>>,
}

impl DurableState {
    /// Creates empty state logging to `disk`, backed by the default
    /// [`GapMap`] representation.
    pub fn new(disk: Arc<SimDisk>) -> Self {
        Self::with_backend(disk, Backend::GapMap)
    }

    /// Creates empty state with an explicit representation (e.g. the §5
    /// B-tree).
    pub fn with_backend(disk: Arc<SimDisk>, backend: Backend) -> Self {
        DurableState {
            state: backend.new_state(),
            wal: Wal::new(disk),
            undo: HashMap::new(),
        }
    }

    /// Rebuilds committed state from the disk's durable log. Torn tails are
    /// discarded; transactions without a durable commit record are rolled
    /// back by omission.
    ///
    /// # Errors
    ///
    /// [`WalError`] if the durable log is internally inconsistent (not
    /// producible by this crate).
    pub fn recover(disk: Arc<SimDisk>) -> Result<Self, WalError> {
        Self::recover_with_backend(disk, Backend::GapMap)
    }

    /// Recovery into an explicit representation.
    ///
    /// # Errors
    ///
    /// As [`recover`](DurableState::recover).
    pub fn recover_with_backend(disk: Arc<SimDisk>, backend: Backend) -> Result<Self, WalError> {
        let (records, _clean) = crate::wal::decode_log(&disk.read_all());
        let map = replay(&records)?;
        let mut state = backend.new_state();
        state.load(&map);
        Ok(DurableState {
            state,
            wal: Wal::new(disk),
            undo: HashMap::new(),
        })
    }

    /// A [`GapMap`] copy of the current (including uncommitted) state.
    pub fn map(&self) -> GapMap {
        self.state.to_gapmap()
    }

    /// Version of the leading gap (between `LOW` and the first entry).
    pub fn low_gap(&self) -> Version {
        self.state.low_gap()
    }

    /// Visits entries with byte keys in `[low, high)` in key order as
    /// `(key, version, value, gap_after)` without copying the state; see
    /// [`DirState::visit_range`](crate::DirState::visit_range).
    pub fn visit_range(
        &self,
        low: Option<&[u8]>,
        high: Option<&[u8]>,
        visit: &mut dyn FnMut(&UserKey, Version, &Value, Version),
    ) {
        self.state.visit_range(low, high, visit);
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.state.len()
    }

    /// Whether no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.state.is_empty()
    }

    /// Number of in-flight transactions.
    pub fn active_txns(&self) -> usize {
        self.undo.len()
    }

    /// Registers a transaction. Its begin record is logged lazily, with
    /// its first mutation, so a read-only transaction never touches the
    /// WAL.
    pub fn begin(&mut self, txn: TxnId) {
        self.undo.entry(txn).or_default();
    }

    /// The undo log of a registered transaction, logging its begin record
    /// if this is its first mutation (every mutation pushes one undo
    /// record, so an empty log means nothing was logged yet).
    fn undo_log(&mut self, txn: TxnId) -> &mut Vec<UndoRecord> {
        let undo = self.undo.get_mut(&txn).expect("registered transaction");
        if undo.is_empty() {
            self.wal.append(&WalRecord::Begin { txn: txn.0 });
        }
        undo
    }

    /// `DirRepLookup` against current state (reads need no redo records).
    pub fn lookup(&self, key: &Key) -> LookupReply {
        self.state.lookup(key)
    }

    /// `DirRepPredecessor` against current state.
    ///
    /// # Errors
    ///
    /// As [`GapMap::predecessor`].
    pub fn predecessor(&self, key: &Key) -> Result<NeighborReply, RepError> {
        self.state.predecessor(key)
    }

    /// `DirRepSuccessor` against current state.
    ///
    /// # Errors
    ///
    /// As [`GapMap::successor`].
    pub fn successor(&self, key: &Key) -> Result<NeighborReply, RepError> {
        self.state.successor(key)
    }

    /// Transactional `DirRepInsert`: applies, logs redo, records undo.
    ///
    /// # Errors
    ///
    /// [`RepError::TransactionAborted`] for an unregistered transaction, or
    /// the underlying [`GapMap::insert`] error.
    pub fn insert(
        &mut self,
        txn: TxnId,
        key: &Key,
        version: Version,
        value: Value,
    ) -> Result<InsertOutcome, RepError> {
        if !self.undo.contains_key(&txn) {
            return Err(RepError::TransactionAborted);
        }
        let outcome = self.state.insert(key, version, value.clone())?;
        self.undo_log(txn).push(undo_for_insert(key, &outcome));
        self.wal.append(&WalRecord::Insert {
            txn: txn.0,
            key: key.clone(),
            version,
            value,
        });
        Ok(outcome)
    }

    /// Transactional `DirRepCoalesce`: applies, logs redo, records undo.
    ///
    /// # Errors
    ///
    /// [`RepError::TransactionAborted`] for an unregistered transaction, or
    /// the underlying [`GapMap::coalesce`] error.
    pub fn coalesce(
        &mut self,
        txn: TxnId,
        low: &Key,
        high: &Key,
        version: Version,
    ) -> Result<CoalesceOutcome, RepError> {
        if !self.undo.contains_key(&txn) {
            return Err(RepError::TransactionAborted);
        }
        let outcome = self.state.coalesce(low, high, version)?;
        self.undo_log(txn).push(undo_for_coalesce(low, &outcome));
        self.wal.append(&WalRecord::Coalesce {
            txn: txn.0,
            low: low.clone(),
            high: high.clone(),
            version,
        });
        Ok(outcome)
    }

    /// Commits: appends the commit record and syncs. After this returns, the
    /// transaction survives any crash. A transaction that logged nothing
    /// (read-only, or unknown) appends and syncs nothing.
    pub fn commit(&mut self, txn: TxnId) {
        if self.undo.remove(&txn).is_some_and(|undo| !undo.is_empty()) {
            self.wal.append(&WalRecord::Commit { txn: txn.0 });
            self.wal.sync();
        }
    }

    /// Aborts: rolls memory back via the undo log (reverse order) and logs
    /// an abort record if the transaction logged anything. Idempotent.
    /// Returns whether any state change was rolled back (lets callers skip
    /// cache invalidation for read-only transactions).
    pub fn abort(&mut self, txn: TxnId) -> bool {
        let Some(mut undo) = self.undo.remove(&txn) else {
            return false;
        };
        if undo.is_empty() {
            return false;
        }
        while let Some(rec) = undo.pop() {
            apply_undo_dyn(self.state.as_mut(), rec);
        }
        self.wal.append(&WalRecord::Abort { txn: txn.0 });
        true
    }

    /// Writes a checkpoint so recovery need not replay the whole log.
    /// Checkpoints are taken quiesced: the in-memory state must hold
    /// committed data only, or the snapshot would capture another
    /// transaction's uncommitted writes.
    ///
    /// # Errors
    ///
    /// [`WalError::CheckpointBusy`] if transactions are in flight; the
    /// caller (e.g. the snapshot installer finishing a stream) can retry
    /// once the representative drains.
    pub fn checkpoint(&mut self) -> Result<(), WalError> {
        if !self.undo.is_empty() {
            return Err(WalError::CheckpointBusy(self.undo.len()));
        }
        self.wal
            .append(&WalRecord::checkpoint_of(&self.state.to_gapmap()));
        self.wal.sync();
        Ok(())
    }

    /// Durably spills a stale vote observed against this representative
    /// (see [`WalRecord::StaleVote`]): appended outside any transaction and
    /// synced immediately, so a process restart finds the evidence and the
    /// repair driver resumes its targeted pulls.
    pub fn spill_stale_vote(&mut self, member: u64, key: Key, seen: Version, latest: Version) {
        self.wal.append(&WalRecord::StaleVote {
            member,
            key,
            seen,
            latest,
        });
        self.wal.sync();
    }

    /// The underlying disk (crash injection in tests).
    pub fn disk(&self) -> &Arc<SimDisk> {
        self.wal.disk()
    }
}

/// Applies one undo record against any [`DirState`] backend (the trait-
/// object twin of [`repdir_txn::apply_undo`]).
fn apply_undo_dyn(state: &mut dyn DirState, record: UndoRecord) {
    match record {
        UndoRecord::RemoveEntry { key } => {
            assert!(
                state.remove_entry_raw(&key),
                "undo RemoveEntry: no entry for {key:?}"
            );
        }
        UndoRecord::RestoreEntryValue {
            key,
            version,
            value,
        } => {
            assert!(
                state.update_entry_raw(&key, version, value),
                "undo RestoreEntryValue: no entry for {key:?}"
            );
        }
        UndoRecord::UndoCoalesce {
            low,
            old_gap_version,
            removed,
        } => {
            for r in removed {
                state.restore_entry(r.key, r.version, r.value, r.gap_after);
            }
            state
                .set_gap_after(&low, old_gap_version)
                .expect("undo UndoCoalesce: boundary vanished");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(s: &str) -> Key {
        Key::from(s)
    }
    fn v(n: u64) -> Version {
        Version::new(n)
    }
    fn val(s: &str) -> Value {
        Value::from(s)
    }

    #[test]
    fn committed_survives_crash_uncommitted_does_not() {
        let disk = Arc::new(SimDisk::new());
        let mut st = DurableState::new(Arc::clone(&disk));
        st.begin(TxnId(1));
        st.insert(TxnId(1), &k("a"), v(1), val("A")).unwrap();
        st.commit(TxnId(1));
        st.begin(TxnId(2));
        st.insert(TxnId(2), &k("b"), v(1), val("B")).unwrap();
        // "b" visible before the crash...
        assert!(st.lookup(&k("b")).is_present());

        disk.crash(0);
        let rec = DurableState::recover(disk).unwrap();
        assert!(rec.lookup(&k("a")).is_present());
        assert!(!rec.lookup(&k("b")).is_present());
    }

    #[test]
    fn read_only_transactions_write_nothing_to_the_wal() {
        let disk = Arc::new(SimDisk::new());
        let mut st = DurableState::new(Arc::clone(&disk));
        st.begin(TxnId(1));
        st.insert(TxnId(1), &k("a"), v(1), val("A")).unwrap();
        st.commit(TxnId(1));
        let (syncs, durable) = (disk.sync_count(), disk.durable_len());
        st.begin(TxnId(2));
        assert!(st.lookup(&k("a")).is_present());
        st.successor(&Key::Low).unwrap();
        st.commit(TxnId(2));
        st.begin(TxnId(3));
        assert!(!st.lookup(&k("b")).is_present());
        assert!(!st.abort(TxnId(3)));
        assert_eq!(disk.sync_count(), syncs);
        assert_eq!(disk.durable_len(), durable);
        assert_eq!(disk.volatile_len(), 0);
        // A failed first mutation logs nothing either.
        st.begin(TxnId(4));
        assert!(st.insert(TxnId(4), &Key::Low, v(9), val("x")).is_err());
        st.commit(TxnId(4));
        assert_eq!(disk.sync_count(), syncs);
        assert_eq!(disk.volatile_len(), 0);
        // The first mutation logs the begin record after all; recovery
        // still sees exactly the committed work.
        st.begin(TxnId(5));
        st.insert(TxnId(5), &k("c"), v(1), val("C")).unwrap();
        st.commit(TxnId(5));
        assert_eq!(disk.sync_count(), syncs + 1);
        disk.crash(0);
        let rec = DurableState::recover(disk).unwrap();
        assert!(rec.lookup(&k("a")).is_present());
        assert!(rec.lookup(&k("c")).is_present());
        assert_eq!(rec.len(), 2);
    }

    #[test]
    fn abort_rolls_back_memory_and_recovery_agrees() {
        let disk = Arc::new(SimDisk::new());
        let mut st = DurableState::new(Arc::clone(&disk));
        st.begin(TxnId(1));
        st.insert(TxnId(1), &k("a"), v(1), val("A")).unwrap();
        st.insert(TxnId(1), &k("b"), v(1), val("B")).unwrap();
        st.coalesce(TxnId(1), &Key::Low, &Key::High, v(2)).unwrap();
        st.abort(TxnId(1));
        assert!(st.is_empty());
        assert_eq!(st.map().version_of(&k("a")), v(0));

        st.disk().sync();
        let rec = DurableState::recover(Arc::clone(st.disk())).unwrap();
        assert!(rec.is_empty());
    }

    #[test]
    fn interleaved_transactions_roll_independently() {
        let disk = Arc::new(SimDisk::new());
        let mut st = DurableState::new(Arc::clone(&disk));
        st.begin(TxnId(1));
        st.begin(TxnId(2));
        st.insert(TxnId(1), &k("one"), v(1), val("1")).unwrap();
        st.insert(TxnId(2), &k("two"), v(1), val("2")).unwrap();
        assert_eq!(st.active_txns(), 2);
        st.commit(TxnId(2));
        st.abort(TxnId(1));
        assert!(!st.lookup(&k("one")).is_present());
        assert!(st.lookup(&k("two")).is_present());

        disk.crash(0);
        let rec = DurableState::recover(disk).unwrap();
        assert!(!rec.lookup(&k("one")).is_present());
        assert!(rec.lookup(&k("two")).is_present());
    }

    #[test]
    fn recovery_after_checkpoint_truncates_history() {
        let disk = Arc::new(SimDisk::new());
        let mut st = DurableState::new(Arc::clone(&disk));
        for (i, key) in ["a", "b", "c"].iter().enumerate() {
            let t = TxnId(i as u64 + 1);
            st.begin(t);
            st.insert(t, &k(key), v(1), val(key)).unwrap();
            st.commit(t);
        }
        st.checkpoint().unwrap();
        let t = TxnId(10);
        st.begin(t);
        st.coalesce(t, &k("a"), &k("c"), v(2)).unwrap();
        st.commit(t);

        disk.crash(0);
        let rec = DurableState::recover(disk).unwrap();
        assert!(rec.lookup(&k("a")).is_present());
        assert!(
            !rec.lookup(&k("b")).is_present(),
            "coalesced after checkpoint"
        );
        assert!(rec.lookup(&k("c")).is_present());
        assert_eq!(rec.map().version_of(&k("b")), v(2));
    }

    #[test]
    fn torn_commit_record_means_aborted() {
        let disk = Arc::new(SimDisk::new());
        let mut st = DurableState::new(Arc::clone(&disk));
        st.begin(TxnId(1));
        st.insert(TxnId(1), &k("a"), v(1), val("A")).unwrap();
        // Commit appended but crash tears all but 2 bytes of the whole
        // unsynced region — the commit record is unreadable.
        st.commit(TxnId(1));
        // Note: commit() synced. Do a second transaction without sync to
        // exercise the torn path.
        st.begin(TxnId(2));
        st.insert(TxnId(2), &k("b"), v(1), val("B")).unwrap();
        disk.crash(2);
        let rec = DurableState::recover(disk).unwrap();
        assert!(rec.lookup(&k("a")).is_present());
        assert!(!rec.lookup(&k("b")).is_present());
    }

    #[test]
    fn operations_require_registered_transaction() {
        let disk = Arc::new(SimDisk::new());
        let mut st = DurableState::new(disk);
        assert_eq!(
            st.insert(TxnId(99), &k("a"), v(1), val("A")),
            Err(RepError::TransactionAborted)
        );
        assert_eq!(
            st.coalesce(TxnId(99), &Key::Low, &Key::High, v(1)),
            Err(RepError::TransactionAborted)
        );
        // Commit/abort of unknown transactions are harmless no-ops.
        st.commit(TxnId(99));
        st.abort(TxnId(99));
    }

    #[test]
    fn checkpoint_with_active_txn_is_a_retryable_error() {
        let disk = Arc::new(SimDisk::new());
        let mut st = DurableState::new(disk);
        st.begin(TxnId(1));
        st.begin(TxnId(2));
        assert_eq!(st.checkpoint(), Err(WalError::CheckpointBusy(2)));
        // Nothing was appended: recovery sees no checkpoint record.
        st.disk().sync();
        let (records, _) = crate::wal::decode_log(&st.disk().read_all());
        assert!(!records
            .iter()
            .any(|r| matches!(r, WalRecord::Checkpoint { .. })));
        // Once the representative drains, the same call succeeds.
        st.commit(TxnId(1));
        st.abort(TxnId(2));
        st.checkpoint().unwrap();
    }

    #[test]
    fn failed_operation_leaves_no_residue() {
        let disk = Arc::new(SimDisk::new());
        let mut st = DurableState::new(Arc::clone(&disk));
        st.begin(TxnId(1));
        // Coalesce with a missing boundary fails: no undo, no wal record.
        assert!(st.coalesce(TxnId(1), &k("nope"), &Key::High, v(1)).is_err());
        st.commit(TxnId(1));
        disk.crash(0);
        let rec = DurableState::recover(disk).unwrap();
        assert!(rec.is_empty());
    }
}
