//! Seeded inputs: the key and value of every key index, and the random
//! stream each client draws its operations from.

use repdir_core::{Key, UserKey, Value};

/// SplitMix64's output finalizer. Each step (xor-shift, odd multiply) is a
/// bijection on `u64`, so distinct key indices give distinct keys.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The user key of key index `idx`. Repair buckets by the key's leading
/// byte, and `UserKey::from_u64` of a small index puts it in bucket 0, so
/// the index is hashed first: keys spread over all 256 buckets.
pub fn user_key(idx: u64) -> UserKey {
    UserKey::from_u64(mix64(idx))
}

/// [`user_key`] as a directory key.
pub fn key(idx: u64) -> Key {
    Key::from(user_key(idx))
}

/// The 16-byte value written for key index `idx` the `generation`-th time
/// it is inserted. A re-inserted key gets a new value, so a stale copy
/// reads back as a wrong answer, not as a match.
pub fn value(idx: u64, generation: u64) -> Value {
    let a = mix64(idx ^ 0x05EE_D0F7_A1E0);
    let b = mix64(a ^ generation.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut bytes = Vec::with_capacity(16);
    bytes.extend_from_slice(&a.to_le_bytes());
    bytes.extend_from_slice(&b.to_le_bytes());
    Value::new(bytes)
}

/// A SplitMix64 stream: the same seed gives the same operation sequence.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `stream` (a client or thread number).
    pub fn derive(seed: u64, stream: u64) -> Self {
        Rng(mix64(seed ^ mix64(stream.wrapping_add(0x00C1_1E17))))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repdir_repair::bucket_of;

    #[test]
    fn keys_cover_every_leading_byte_bucket() {
        let mut seen = [0u32; 256];
        for idx in 0..20_000 {
            seen[bucket_of(user_key(idx).as_bytes()) as usize] += 1;
        }
        // 20,000 keys over 256 buckets is ~78 a bucket.
        assert!(seen.iter().all(|&n| n > 30), "{seen:?}");
    }

    #[test]
    fn distinct_indices_give_distinct_keys() {
        let keys: std::collections::BTreeSet<UserKey> = (0..50_000).map(user_key).collect();
        assert_eq!(keys.len(), 50_000);
    }

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = {
            let mut r = Rng::derive(7, 1);
            (0..100).map(|_| r.below(10)).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::derive(7, 1);
            (0..100).map(|_| r.below(10)).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::derive(8, 1);
            (0..100).map(|_| r.below(10)).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn reinserted_values_differ() {
        assert_ne!(value(5, 0), value(5, 1));
        assert_eq!(value(5, 1).len(), 16);
    }
}
