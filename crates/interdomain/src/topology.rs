//! AS-level topologies with business relationships.
//!
//! The paper's evaluation "create\[s\] a random topology with 30 ASes with
//! hypothetical business relationships" and models "export rules according
//! to their business relationship (i.e., peer, customer, and provider)"
//! (§5). The generator here builds the classic three-tier hierarchy: a
//! clique of tier-1 providers, a middle tier multi-homed to tier-1s with
//! occasional lateral peerings, and stub ASes buying transit from the
//! middle tier.

use teenet_crypto::SecureRng;

/// Identifies an autonomous system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AsId(pub u32);

impl core::fmt::Display for AsId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

/// The business relationship a neighbor has *to me*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Relationship {
    /// The neighbor pays me for transit.
    Customer,
    /// Settlement-free peer.
    Peer,
    /// I pay the neighbor for transit.
    Provider,
}

/// An undirected adjacency with its business meaning.
///
/// `(a, b, kind)` where for [`EdgeKind::TransitTo`] `a` is the provider of
/// `b`, and for [`EdgeKind::Peering`] the two are symmetric peers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// First AS sells transit to the second.
    TransitTo,
    /// Settlement-free peering.
    Peering,
}

/// An adjacency list of business-relationship edges.
pub type EdgeList = Vec<(AsId, AsId, EdgeKind)>;

/// An AS-level topology.
#[derive(Debug, Clone)]
pub struct Topology {
    n: u32,
    edges: Vec<(AsId, AsId, EdgeKind)>,
}

impl Topology {
    /// Builds a topology from explicit edges.
    pub fn from_edges(n: u32, edges: Vec<(AsId, AsId, EdgeKind)>) -> Self {
        debug_assert!(edges.iter().all(|&(a, b, _)| a.0 < n && b.0 < n && a != b));
        Topology { n, edges }
    }

    /// Number of ASes.
    pub fn len(&self) -> usize {
        self.n as usize
    }

    /// True if the topology has no ASes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// All AS ids.
    pub fn ases(&self) -> impl Iterator<Item = AsId> + '_ {
        (0..self.n).map(AsId)
    }

    /// All edges.
    pub fn edges(&self) -> &[(AsId, AsId, EdgeKind)] {
        &self.edges
    }

    /// Neighbors of `asn` with their relationship *to* `asn`.
    pub fn neighbors(&self, asn: AsId) -> Vec<(AsId, Relationship)> {
        let mut out = Vec::new();
        for &(a, b, kind) in &self.edges {
            match kind {
                EdgeKind::TransitTo => {
                    if a == asn {
                        out.push((b, Relationship::Customer));
                    } else if b == asn {
                        out.push((a, Relationship::Provider));
                    }
                }
                EdgeKind::Peering => {
                    if a == asn {
                        out.push((b, Relationship::Peer));
                    } else if b == asn {
                        out.push((a, Relationship::Peer));
                    }
                }
            }
        }
        out
    }

    /// Generates a random three-tier topology with `n ≥ 3` ASes.
    ///
    /// Tier sizes: ~10% tier-1 (min 2), ~30% middle, the rest stubs.
    /// Every non-tier-1 AS gets 1–2 providers one tier up; middle-tier
    /// ASes peer laterally with probability 0.2.
    pub fn random(n: u32, rng: &mut SecureRng) -> Self {
        assert!(n >= 3, "need at least 3 ASes");
        let t1 = (n / 10).max(2);
        let mid_end = t1 + (n * 3 / 10).max(1);
        let mut edges = Vec::new();

        // Tier-1 full-mesh peering.
        for i in 0..t1 {
            for j in (i + 1)..t1 {
                edges.push((AsId(i), AsId(j), EdgeKind::Peering));
            }
        }
        // Middle tier: 1-2 tier-1 providers each, lateral peerings.
        for i in t1..mid_end.min(n) {
            let p1 = rng.gen_range(t1 as u64) as u32;
            edges.push((AsId(p1), AsId(i), EdgeKind::TransitTo));
            if t1 > 1 && rng.gen_bool(0.5) {
                let mut p2 = rng.gen_range(t1 as u64) as u32;
                if p2 == p1 {
                    p2 = (p2 + 1) % t1;
                }
                edges.push((AsId(p2), AsId(i), EdgeKind::TransitTo));
            }
        }
        for i in t1..mid_end.min(n) {
            for j in (i + 1)..mid_end.min(n) {
                if rng.gen_bool(0.2) {
                    edges.push((AsId(i), AsId(j), EdgeKind::Peering));
                }
            }
        }
        // Stubs: 1-2 middle-tier (or tier-1) providers each.
        for i in mid_end.min(n)..n {
            let upper = mid_end.min(n).max(1);
            let p1 = rng.gen_range(upper as u64) as u32;
            edges.push((AsId(p1), AsId(i), EdgeKind::TransitTo));
            if rng.gen_bool(0.4) {
                let mut p2 = rng.gen_range(upper as u64) as u32;
                if p2 == p1 {
                    p2 = (p2 + 1) % upper;
                }
                if p2 != p1 {
                    edges.push((AsId(p2), AsId(i), EdgeKind::TransitTo));
                }
            }
        }
        Topology { n, edges }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Topology {
        /// Relationship of `neighbor` to `asn`, if adjacent.
        pub(crate) fn relationship(&self, asn: AsId, neighbor: AsId) -> Option<Relationship> {
            self.neighbors(asn)
                .into_iter()
                .find(|&(id, _)| id == neighbor)
                .map(|(_, rel)| rel)
        }
    }

    fn diamond() -> Topology {
        // 0 and 1 are tier-1 peers; both sell transit to 2; 2 sells to 3.
        Topology::from_edges(
            4,
            vec![
                (AsId(0), AsId(1), EdgeKind::Peering),
                (AsId(0), AsId(2), EdgeKind::TransitTo),
                (AsId(1), AsId(2), EdgeKind::TransitTo),
                (AsId(2), AsId(3), EdgeKind::TransitTo),
            ],
        )
    }

    #[test]
    fn relationships_are_consistent() {
        let t = diamond();
        assert_eq!(t.relationship(AsId(0), AsId(1)), Some(Relationship::Peer));
        assert_eq!(t.relationship(AsId(1), AsId(0)), Some(Relationship::Peer));
        assert_eq!(
            t.relationship(AsId(0), AsId(2)),
            Some(Relationship::Customer)
        );
        assert_eq!(
            t.relationship(AsId(2), AsId(0)),
            Some(Relationship::Provider)
        );
        assert_eq!(t.relationship(AsId(0), AsId(3)), None);
    }

    #[test]
    fn neighbors_enumeration() {
        let t = diamond();
        let n2 = t.neighbors(AsId(2));
        assert_eq!(n2.len(), 3);
        assert!(n2.contains(&(AsId(0), Relationship::Provider)));
        assert!(n2.contains(&(AsId(1), Relationship::Provider)));
        assert!(n2.contains(&(AsId(3), Relationship::Customer)));
    }

    #[test]
    fn random_topology_is_connected_via_providers() {
        // Every non-tier-1 AS must have at least one provider, so every AS
        // can reach tier 1 by walking up provider edges.
        let mut rng = SecureRng::seed_from_u64(42);
        for n in [3u32, 10, 30, 50] {
            let t = Topology::random(n, &mut rng);
            let t1 = (n / 10).max(2);
            for asn in t.ases().skip(t1 as usize) {
                let has_provider = t
                    .neighbors(asn)
                    .iter()
                    .any(|&(_, rel)| rel == Relationship::Provider);
                assert!(has_provider, "{asn} has no provider (n={n})");
            }
        }
    }

    #[test]
    fn random_topology_deterministic_per_seed() {
        let a = Topology::random(30, &mut SecureRng::seed_from_u64(7));
        let b = Topology::random(30, &mut SecureRng::seed_from_u64(7));
        assert_eq!(a.edges(), b.edges());
    }

    #[test]
    fn random_topologies_differ_across_seeds() {
        let a = Topology::random(30, &mut SecureRng::seed_from_u64(1));
        let b = Topology::random(30, &mut SecureRng::seed_from_u64(2));
        assert_ne!(a.edges(), b.edges());
    }

    #[test]
    fn no_self_loops() {
        let mut rng = SecureRng::seed_from_u64(3);
        let t = Topology::random(40, &mut rng);
        assert!(t.edges().iter().all(|&(a, b, _)| a != b));
    }
}
