//! The point-operation mix of the `point` and `fabric` workloads: 80%
//! lookups of preloaded keys, 10% inserts of fresh keys the client owns and
//! 10% deletes of keys the client owns. Each client draws from its own
//! seeded stream and keeps the model of the keys it owns, so every answer
//! can be checked while other clients run.

use repdir_core::{Key, SuiteError, Value};

use crate::harness::Model;
use crate::keys::{self, Rng};
use crate::measure::{OpKind, Tally};

/// First key index of client `c`'s fresh keys; preloaded keys are
/// `0..preload`, far below.
fn fresh_base(client: u64) -> u64 {
    (client + 1) << 40
}

/// One operation of the mix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Look up preloaded key `idx`, which must read back with its value.
    Lookup(u64),
    /// Insert fresh key `idx`.
    Insert(u64),
    /// Delete the owned key at position `pos` of the client's live keys.
    Delete { idx: u64, pos: usize },
}

impl Op {
    pub fn kind(&self) -> OpKind {
        match self {
            Op::Lookup(_) => OpKind::Lookup,
            Op::Insert(_) => OpKind::Insert,
            Op::Delete { .. } => OpKind::Delete,
        }
    }

    pub fn key(&self) -> Key {
        match *self {
            Op::Lookup(idx) | Op::Insert(idx) | Op::Delete { idx, .. } => keys::key(idx),
        }
    }
}

/// What the directory answered.
pub enum Answer {
    Lookup(Option<Value>),
    Written,
}

/// One client's operation stream and the model of the keys it owns.
#[derive(Clone, Debug)]
pub struct MixClient {
    client: u64,
    rng: Rng,
    preload: u64,
    next_fresh: u64,
    /// Owned keys currently present.
    live: Vec<u64>,
    /// Owned keys deleted, which must read absent.
    deleted: Vec<u64>,
}

impl MixClient {
    pub fn new(seed: u64, client: u64, preload: u64) -> Self {
        MixClient {
            client,
            rng: Rng::derive(seed, client),
            preload,
            next_fresh: fresh_base(client),
            live: Vec::new(),
            deleted: Vec::new(),
        }
    }

    /// The next operation. A delete with no owned key left becomes an
    /// insert.
    pub fn next_op(&mut self) -> Op {
        match self.rng.below(10) {
            0..=7 => Op::Lookup(self.rng.below(self.preload)),
            9 if !self.live.is_empty() => {
                let pos = self.rng.below(self.live.len() as u64) as usize;
                Op::Delete {
                    idx: self.live[pos],
                    pos,
                }
            }
            _ => {
                let idx = self.next_fresh;
                self.next_fresh += 1;
                Op::Insert(idx)
            }
        }
    }

    /// Checks the directory's answer to `op` against the model, counts a
    /// failure in `tally` if it disagrees, and updates the model.
    pub fn settle(&mut self, op: &Op, answer: Result<Answer, SuiteError>, tally: &mut Tally) {
        let client = self.client;
        match (op, answer) {
            (_, Err(e)) => {
                tally.error(|| format!("client {client}: {op:?} failed: {e}"));
                // The write's fate is unknown; stop owning the key so no
                // later check depends on it.
                if let Op::Delete { pos, .. } = *op {
                    self.live.swap_remove(pos);
                }
            }
            (Op::Lookup(idx), Ok(Answer::Lookup(got))) => {
                if got.as_ref() != Some(&keys::value(*idx, 0)) {
                    tally.wrong(|| {
                        format!("client {client}: lookup of preloaded {idx} read {got:?}")
                    });
                }
            }
            (Op::Insert(idx), Ok(Answer::Written)) => self.live.push(*idx),
            (Op::Delete { idx, pos }, Ok(Answer::Written)) => {
                self.live.swap_remove(*pos);
                self.deleted.push(*idx);
            }
            (op, Ok(_)) => {
                tally.wrong(|| format!("client {client}: {op:?} got a mismatched answer"))
            }
        }
    }

    /// Adds the client's present keys to `model`.
    #[cfg(test)]
    pub fn extend_model(&self, model: &mut Model) {
        for &idx in &self.live {
            model.insert(keys::user_key(idx), keys::value(idx, 0));
        }
    }

    /// The owned keys looked up at the end of a run, each with whether it
    /// must be present: the last [`FINAL_CHECKS`] deleted and the last
    /// [`FINAL_CHECKS`] still live.
    pub fn final_checks(&self) -> impl Iterator<Item = (u64, bool)> + '_ {
        let deleted = self
            .deleted
            .iter()
            .rev()
            .take(FINAL_CHECKS)
            .map(|&i| (i, false));
        let live = self
            .live
            .iter()
            .rev()
            .take(FINAL_CHECKS)
            .map(|&i| (i, true));
        deleted.chain(live)
    }
}

/// The preloaded keys `0..n` with their values, as a model.
pub fn preload_model(n: u64) -> Model {
    (0..n)
        .map(|i| (keys::user_key(i), keys::value(i, 0)))
        .collect()
}

/// The preload entries `0..n`, in chunks of `chunk`, for bulk inserts.
pub fn preload_chunks(n: u64, chunk: u64) -> impl Iterator<Item = Vec<(Key, Value)>> {
    (0..n).step_by(chunk as usize).map(move |lo| {
        (lo..(lo + chunk).min(n))
            .map(|i| (keys::key(i), keys::value(i, 0)))
            .collect()
    })
}

/// How many deleted and how many live owned keys each client looks up at
/// the end of a run.
pub const FINAL_CHECKS: usize = 32;

/// Checks a final lookup of owned key `idx`: a live key must read back with
/// its value, a deleted key must read absent.
pub fn settle_final(
    idx: u64,
    live: bool,
    got: Result<Option<Value>, SuiteError>,
    tally: &mut Tally,
) {
    tally.attempted += 1;
    let expected = live.then(|| keys::value(idx, 0));
    match got {
        Ok(v) if v == expected => {}
        Ok(v) => tally.wrong(|| format!("owned key {idx} read {v:?}, expected {expected:?}")),
        Err(e) => tally.error(|| format!("final lookup of {idx} failed: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_mix_is_eighty_ten_ten_and_seeded() {
        let mut a = MixClient::new(3, 0, 1000);
        let mut b = MixClient::new(3, 0, 1000);
        let mut tally = Tally::default();
        let (mut lookups, mut inserts, mut deletes) = (0, 0, 0);
        for _ in 0..10_000 {
            let op = a.next_op();
            assert_eq!(op, b.next_op());
            match op {
                Op::Lookup(idx) => {
                    assert!(idx < 1000);
                    lookups += 1;
                }
                Op::Insert(_) => inserts += 1,
                Op::Delete { .. } => deletes += 1,
            }
            let answer = match op {
                Op::Lookup(idx) => Answer::Lookup(Some(keys::value(idx, 0))),
                _ => Answer::Written,
            };
            a.settle(&op, Ok(answer), &mut tally);
            b.settle(&op, Ok(Answer::Written), &mut Tally::default());
        }
        assert_eq!(tally.failed(), 0);
        assert!((7_700..8_300).contains(&lookups), "{lookups}");
        assert!((800..1_200).contains(&inserts), "{inserts}");
        assert!((800..1_200).contains(&deletes), "{deletes}");
    }

    #[test]
    fn a_planted_wrong_answer_is_counted() {
        let mut c = MixClient::new(1, 0, 10);
        let mut tally = Tally::default();
        c.settle(
            &Op::Lookup(4),
            Ok(Answer::Lookup(Some(keys::value(4, 1)))),
            &mut tally,
        );
        c.settle(&Op::Lookup(5), Ok(Answer::Lookup(None)), &mut tally);
        assert_eq!(tally.wrong, 2);
        settle_final(7, false, Ok(Some(keys::value(7, 0))), &mut tally);
        settle_final(8, true, Ok(None), &mut tally);
        assert_eq!(tally.wrong, 4);
        settle_final(9, true, Ok(Some(keys::value(9, 0))), &mut tally);
        assert_eq!(tally.wrong, 4);
    }

    #[test]
    fn clients_own_disjoint_fresh_keys() {
        let mut a = MixClient::new(1, 0, 10);
        let mut b = MixClient::new(1, 1, 10);
        let fresh = |c: &mut MixClient| loop {
            if let Op::Insert(idx) = c.next_op() {
                break idx;
            }
        };
        assert_ne!(fresh(&mut a), fresh(&mut b));
    }
}
