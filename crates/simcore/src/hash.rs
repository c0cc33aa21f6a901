//! A small deterministic hasher for the simulator's lookup-only maps.
//!
//! `std`'s default `RandomState` runs SipHash-1-3 under a random per-process
//! key, which costs tens of nanoseconds per lookup. The kernel's wait tables
//! and the per-message address and transaction maps do such lookups on
//! every event, and their keys are small integers or short strings the
//! simulation itself made. [`FastHasher`] is the multiply-rotate
//! construction of FxHash: one rotate, xor and multiply per word.
//!
//! The TCP path looks up on every message and every reconnect: the
//! proxy's shared connection table (`ConnTable`'s `by_id` and `by_peer`),
//! each connection worker's owned connections and fd-to-connection map,
//! its fd cache, the manager's `FdRegistry`, the phones' per-connection
//! framers, and simnet's ephemeral port pool ([`FastSet`]s of the ports
//! in use and in TIME_WAIT). The overload policy's per-upstream windows,
//! the fault layer's partitions and accept freezes and the SCTP
//! association tables are lookup tables too. The workspace's
//! `clippy.toml` disallows std's `HashMap` and `HashSet`, so no other
//! hasher creeps back in; these aliases are the one place they are named.
//!
//! **Use [`FastMap`] only for a map that is never iterated, or whose
//! iteration is sorted before anything sees it.** The walks that exist
//! all sort: simnet's `accept_thaw` its listeners, the linear-scan hunts
//! of `ConnTable` and `OwnedIdle` and `ConnTable::owned_by` by connection
//! id, a worker's fd-cache sweep and re-announce to a restarted supervisor
//! by connection id, and the worker's and the phones' poll lists by fd.
//! Iteration order still follows the table's insertion history and size,
//! which code changes move freely; an order that reaches the packet
//! schedule or a report must come from a sort or a `BTreeMap`. Keys must
//! come from inside the program: the hash has no defence against keys
//! crafted to collide.

// The one place allowed to name the std tables; see the module docs.
#[allow(clippy::disallowed_types)]
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed through [`FastHasher`].
#[allow(clippy::disallowed_types)]
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A `HashSet` keyed through [`FastHasher`]; the same rules as [`FastMap`].
#[allow(clippy::disallowed_types)]
pub type FastSet<T> = HashSet<T, BuildHasherDefault<FastHasher>>;

/// Multiply-rotate hasher; see the [module docs](self) for when to use it.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher {
    hash: u64,
}

/// An odd multiplier whose product with small integers spreads well over
/// the bits that `finish` rotates into bucket position (rustc-hash 2.x).
const SEED: u64 = 0xf135_7aea_2e62_a9c5;

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(last));
        }
    }
    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }
    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }
    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }
    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }
    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
    /// The multiply leaves its best-mixed bits at the top; `HashMap` picks
    /// buckets from the bottom, so rotate them down.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use std::hash::BuildHasher;

    use super::*;

    fn hash<T: std::hash::Hash>(t: T) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(t)
    }

    #[test]
    fn equal_keys_hash_equal_and_nearby_keys_spread() {
        assert_eq!(hash("sip:alice"), hash(String::from("sip:alice")));
        assert_ne!(hash("sip:alice"), hash("sip:alicf"));
        assert_ne!(hash((1u32, 2u32)), hash((2u32, 1u32)));
        // Consecutive small keys must not share their bucket bits.
        let mut low: Vec<u64> = (0u32..64).map(|i| hash(i) & 63).collect();
        low.sort_unstable();
        low.dedup();
        assert!(low.len() > 32, "only {} distinct buckets of 64", low.len());
    }
}
