//! A Chord distributed hash table for directory-less membership.
//!
//! "In fact, a new Tor design is possible that does not require directory
//! authorities that manually maintain and check the membership, because
//! verification is done by hardware through SGX. Tor can utilize a
//! distributed hash table to track the membership, similar to other
//! peer-to-peer systems." (§3.2, citing Chord)
//!
//! Node keys are the first 8 bytes of SHA-256 over the relay id; each node
//! keeps a 64-entry finger table, and lookups walk greedily through
//! fingers in O(log n) hops.

use std::collections::BTreeMap;

use teenet_crypto::sha256::sha256;

use crate::error::{Result, TorError};

/// Hashes an arbitrary identifier onto the 64-bit ring.
pub fn ring_key(id: &[u8]) -> u64 {
    let d = sha256(id);
    u64::from_be_bytes(d[..8].try_into().expect("8 bytes"))
}

/// Is `x` in the half-open ring interval `(a, b]` (wrapping)?
fn in_interval(x: u64, a: u64, b: u64) -> bool {
    if a < b {
        x > a && x <= b
    } else if a > b {
        x > a || x <= b
    } else {
        true // full circle
    }
}

#[derive(Debug, Clone)]
struct ChordNode {
    relay_id: u32,
    fingers: Vec<u64>, // keys of finger targets
}

/// The Chord ring.
#[derive(Debug, Default)]
pub struct ChordRing {
    nodes: BTreeMap<u64, ChordNode>,
}

impl ChordRing {
    /// An empty ring.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of member nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes joined.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Joins a relay to the ring (its key derives from its id).
    pub fn join(&mut self, relay_id: u32) {
        let key = ring_key(&relay_id.to_le_bytes());
        self.nodes.insert(
            key,
            ChordNode {
                relay_id,
                fingers: Vec::new(),
            },
        );
        self.rebuild_fingers();
    }

    /// All member relay ids.
    pub fn members(&self) -> Vec<u32> {
        self.nodes.values().map(|n| n.relay_id).collect()
    }

    /// Is a relay currently a member?
    pub fn contains(&self, relay_id: u32) -> bool {
        self.nodes.contains_key(&ring_key(&relay_id.to_le_bytes()))
    }

    fn successor_key(&self, key: u64) -> Option<u64> {
        self.nodes
            .range(key..)
            .next()
            .or_else(|| self.nodes.iter().next())
            .map(|(&k, _)| k)
    }

    fn rebuild_fingers(&mut self) {
        let keys: Vec<u64> = self.nodes.keys().copied().collect();
        for &node_key in &keys {
            let mut fingers = Vec::with_capacity(64);
            for i in 0..64u32 {
                let target = node_key.wrapping_add(1u64 << i);
                let succ = self.successor_key(target).expect("nonempty ring");
                fingers.push(succ);
            }
            self.nodes.get_mut(&node_key).expect("exists").fingers = fingers;
        }
    }

    /// The relay responsible for `key` (its successor on the ring).
    pub fn owner(&self, key: u64) -> Result<u32> {
        let k = self.successor_key(key).ok_or(TorError::Dht("empty ring"))?;
        Ok(self.nodes[&k].relay_id)
    }

    /// Performs a greedy finger-table lookup of `key` starting at
    /// `start_relay`; returns `(owner relay id, hop count)`.
    pub fn lookup(&self, start_relay: u32, key: u64) -> Result<(u32, usize)> {
        let start = ring_key(&start_relay.to_le_bytes());
        if !self.nodes.contains_key(&start) {
            return Err(TorError::Dht("start node not a member"));
        }
        let owner_key = self.successor_key(key).ok_or(TorError::Dht("empty ring"))?;
        let mut current = start;
        let mut hops = 0usize;
        let max_hops = self.nodes.len() + 64;
        while current != owner_key {
            if hops > max_hops {
                return Err(TorError::Dht("lookup did not converge"));
            }
            let node = &self.nodes[&current];
            // Closest preceding finger of `key`, else direct successor.
            let mut next = self.successor_key(current.wrapping_add(1)).expect("ring");
            for &f in node.fingers.iter().rev() {
                if f != current && in_interval(f, current, key) {
                    next = f;
                    break;
                }
            }
            if next == current {
                break;
            }
            current = next;
            hops += 1;
        }
        Ok((self.nodes[&owner_key].relay_id, hops))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ChordRing {
        /// Removes a relay (churn / exclusion after failed attestation).
        fn leave(&mut self, relay_id: u32) {
            let key = ring_key(&relay_id.to_le_bytes());
            self.nodes.remove(&key);
            self.rebuild_fingers();
        }
    }

    fn ring(n: u32) -> ChordRing {
        let mut r = ChordRing::new();
        for i in 0..n {
            r.join(i);
        }
        r
    }

    #[test]
    fn join_and_membership() {
        let mut r = ring(10);
        assert_eq!(r.len(), 10);
        assert!(r.contains(3));
        r.leave(3);
        assert!(!r.contains(3));
        assert_eq!(r.len(), 9);
    }

    #[test]
    fn owner_is_successor() {
        let r = ring(8);
        // The owner of any member's own key is that member.
        for i in 0..8u32 {
            let k = ring_key(&i.to_le_bytes());
            assert_eq!(r.owner(k).unwrap(), i);
        }
    }

    #[test]
    fn lookup_finds_owner_from_any_start() {
        let r = ring(32);
        for start in 0..32u32 {
            for target in [0u64, 42, u64::MAX / 2, u64::MAX] {
                let (found, _) = r.lookup(start, target).unwrap();
                assert_eq!(found, r.owner(target).unwrap());
            }
        }
    }

    #[test]
    fn lookup_hops_logarithmic() {
        let r = ring(256);
        let mut max_hops = 0usize;
        for start in (0..256u32).step_by(17) {
            for t in 0..64u64 {
                let key = t.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let (_, hops) = r.lookup(start, key).unwrap();
                max_hops = max_hops.max(hops);
            }
        }
        // log2(256) = 8; allow slack but far below linear.
        assert!(max_hops <= 24, "max hops {max_hops}");
    }

    #[test]
    fn empty_and_singleton_rings() {
        let r = ChordRing::new();
        assert!(r.is_empty());
        assert!(r.owner(5).is_err());
        let mut r = ChordRing::new();
        r.join(7);
        assert_eq!(r.owner(0).unwrap(), 7);
        assert_eq!(r.owner(u64::MAX).unwrap(), 7);
        let (found, hops) = r.lookup(7, 12345).unwrap();
        assert_eq!(found, 7);
        assert_eq!(hops, 0);
    }

    #[test]
    fn lookup_from_non_member_fails() {
        let r = ring(4);
        assert!(r.lookup(99, 0).is_err());
    }

    #[test]
    fn churn_reassigns_keys() {
        let mut r = ring(16);
        let key = 0xdead_beef_dead_beefu64;
        let before = r.owner(key).unwrap();
        r.leave(before);
        let after = r.owner(key).unwrap();
        assert_ne!(before, after);
        // Lookups still converge after churn.
        let member = r.members()[0];
        let (found, _) = r.lookup(member, key).unwrap();
        assert_eq!(found, after);
    }
}
