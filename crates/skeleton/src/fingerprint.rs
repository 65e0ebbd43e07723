//! 64-bit FNV-1a fingerprints.
//!
//! Templates and patterns are identified by fingerprints of their canonical
//! skeleton text. FNV-1a is implemented here directly (no external crates):
//! it is fast on short keys, and collision resistance at 64 bits is ample for
//! the ~10^5 distinct templates a 40 M-query log produces.

use serde::{Deserialize, Serialize};
use std::fmt;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A 64-bit content fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Fingerprint(pub u64);

impl Fingerprint {
    /// Fingerprints a byte slice.
    pub fn of_bytes(bytes: &[u8]) -> Self {
        let mut h = FNV_OFFSET;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        Fingerprint(h)
    }

    /// Fingerprints a string.
    pub fn of_str(s: &str) -> Self {
        Self::of_bytes(s.as_bytes())
    }

    /// Combines two fingerprints order-sensitively (for sequences).
    pub fn combine(self, other: Fingerprint) -> Fingerprint {
        let mut h = self.0 ^ FNV_OFFSET;
        for b in other.0.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        Fingerprint(h)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// A streaming FNV-1a hasher for incremental fingerprinting.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// Fresh hasher.
    pub fn new() -> Self {
        Fnv1a(FNV_OFFSET)
    }

    /// Feeds bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Finishes and returns the fingerprint.
    pub fn finish(&self) -> Fingerprint {
        Fingerprint(self.0)
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// A [`std::hash::Hasher`] over the same FNV-1a stream as [`Fnv1a`].
///
/// The std `HashMap` defaults to SipHash-1-3, whose keyed rounds dominate
/// lookup cost for the short fixed-size keys the pipeline hashes millions of
/// times (user ids, fingerprints, template-id n-grams). FNV-1a is a handful
/// of arithmetic ops per byte and — unlike SipHash — needs no random keying,
/// which the pipeline does not want anyway: inputs are logs the operator
/// already controls, not untrusted network traffic, so hash-flooding
/// resistance buys nothing here.
#[derive(Debug, Clone, Copy)]
pub struct FnvHasher(u64);

impl std::hash::Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

/// [`std::hash::BuildHasher`] for [`FnvHasher`]; plugs into `HashMap`s via
/// [`FnvHashMap`]/[`FnvHashSet`].
#[derive(Debug, Clone, Copy, Default)]
pub struct FnvBuildHasher;

impl std::hash::BuildHasher for FnvBuildHasher {
    type Hasher = FnvHasher;

    fn build_hasher(&self) -> FnvHasher {
        FnvHasher(FNV_OFFSET)
    }
}

/// A `HashMap` keyed by FNV-1a — the hot-path map type for dedup state,
/// parse-cache memos, the template store index and pattern counting.
pub type FnvHashMap<K, V> = std::collections::HashMap<K, V, FnvBuildHasher>;

/// A `HashSet` hashed by FNV-1a.
pub type FnvHashSet<T> = std::collections::HashSet<T, FnvBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_known_fnv1a_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(Fingerprint::of_str("").0, 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fingerprint::of_str("a").0, 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fingerprint::of_str("foobar").0, 0x85944171f73967e8);
    }

    #[test]
    fn streaming_equals_oneshot() {
        let mut h = Fnv1a::new();
        h.update(b"SELECT ");
        h.update(b"objid");
        assert_eq!(h.finish(), Fingerprint::of_str("SELECT objid"));
    }

    #[test]
    fn combine_is_order_sensitive() {
        let a = Fingerprint::of_str("a");
        let b = Fingerprint::of_str("b");
        assert_ne!(a.combine(b), b.combine(a));
    }

    #[test]
    fn distinct_inputs_distinct_outputs() {
        assert_ne!(
            Fingerprint::of_str("SELECT a FROM t"),
            Fingerprint::of_str("SELECT b FROM t")
        );
    }

    #[test]
    fn build_hasher_matches_fingerprint_stream() {
        use std::hash::{BuildHasher, Hasher};
        let mut h = FnvBuildHasher.build_hasher();
        h.write(b"foobar");
        assert_eq!(h.finish(), Fingerprint::of_str("foobar").0);
    }

    #[test]
    fn fnv_hash_map_behaves_like_a_map() {
        let mut m: FnvHashMap<(u32, Fingerprint), u64> = FnvHashMap::default();
        for i in 0..1000u32 {
            m.insert((i, Fingerprint::of_bytes(&i.to_le_bytes())), u64::from(i));
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u32 {
            assert_eq!(
                m.get(&(i, Fingerprint::of_bytes(&i.to_le_bytes()))),
                Some(&u64::from(i))
            );
        }
        let mut s: FnvHashSet<Vec<u32>> = FnvHashSet::default();
        assert!(s.insert(vec![1, 2, 3]));
        assert!(!s.insert(vec![1, 2, 3]));
    }
}
