//! Routes and the BGP decision process.

use crate::topology::AsId;

/// A candidate or selected route to a destination AS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// Destination AS.
    pub dst: AsId,
    /// AS path, next hop first, destination last. Empty for the
    /// destination's own (origin) route.
    pub path: Vec<AsId>,
    /// Local preference assigned by the selecting AS.
    pub local_pref: u32,
}

impl Route {
    /// The origin route an AS has to itself.
    pub fn origin(dst: AsId) -> Self {
        Route {
            dst,
            path: Vec::new(),
            local_pref: u32::MAX,
        }
    }

    /// The neighbor this route goes through (`None` for the origin route).
    pub fn next_hop(&self) -> Option<AsId> {
        self.path.first().copied()
    }

    /// AS-path length.
    pub fn path_len(&self) -> usize {
        self.path.len()
    }

    /// True if `asn` appears on the path (loop detection).
    pub fn contains(&self, asn: AsId) -> bool {
        self.path.contains(&asn)
    }

    /// BGP decision process: is `self` preferred over `other`?
    ///
    /// Higher local-pref wins, then shorter AS path, then lowest next-hop
    /// AS id as the deterministic tie-break.
    pub fn better_than(&self, other: &Route) -> bool {
        if self.local_pref != other.local_pref {
            return self.local_pref > other.local_pref;
        }
        if self.path.len() != other.path.len() {
            return self.path.len() < other.path.len();
        }
        match (self.next_hop(), other.next_hop()) {
            (Some(a), Some(b)) => a < b,
            (None, _) => true,
            (_, None) => false,
        }
    }

    /// Wire encoding (u32 fields, little-endian).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 + self.path.len() * 4);
        out.extend_from_slice(&self.dst.0.to_le_bytes());
        out.extend_from_slice(&self.local_pref.to_le_bytes());
        out.extend_from_slice(&(self.path.len() as u32).to_le_bytes());
        for hop in &self.path {
            out.extend_from_slice(&hop.0.to_le_bytes());
        }
        out
    }

    /// Parses [`Route::to_bytes`]; returns the route and bytes consumed.
    pub fn from_bytes(buf: &[u8]) -> Option<(Self, usize)> {
        if buf.len() < 12 {
            return None;
        }
        let dst = AsId(u32::from_le_bytes(buf[..4].try_into().ok()?));
        let local_pref = u32::from_le_bytes(buf[4..8].try_into().ok()?);
        let n = u32::from_le_bytes(buf[8..12].try_into().ok()?) as usize;
        // Checked: `n * 4` wraps a 32-bit `usize` for `n >= 2^30`.
        let len = n.checked_mul(4)?.checked_add(12)?;
        if buf.len() < len {
            return None;
        }
        let mut path = Vec::with_capacity(n);
        for i in 0..n {
            path.push(AsId(u32::from_le_bytes(
                buf[12 + i * 4..16 + i * 4].try_into().ok()?,
            )));
        }
        Some((
            Route {
                dst,
                path,
                local_pref,
            },
            len,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(dst: u32, path: &[u32], pref: u32) -> Route {
        Route {
            dst: AsId(dst),
            path: path.iter().map(|&i| AsId(i)).collect(),
            local_pref: pref,
        }
    }

    #[test]
    fn origin_route() {
        let o = Route::origin(AsId(3));
        assert_eq!(o.next_hop(), None);
        assert_eq!(o.path_len(), 0);
    }

    #[test]
    fn decision_prefers_local_pref() {
        // Longer path with higher pref wins: policy over path length.
        let customer = r(9, &[1, 2, 3, 9], 300);
        let provider = r(9, &[4, 9], 100);
        assert!(customer.better_than(&provider));
        assert!(!provider.better_than(&customer));
    }

    #[test]
    fn decision_prefers_shorter_path_at_equal_pref() {
        let short = r(9, &[4, 9], 200);
        let long = r(9, &[1, 2, 9], 200);
        assert!(short.better_than(&long));
    }

    #[test]
    fn decision_tiebreaks_on_next_hop() {
        let via1 = r(9, &[1, 9], 200);
        let via2 = r(9, &[2, 9], 200);
        assert!(via1.better_than(&via2));
        assert!(!via2.better_than(&via1));
    }

    #[test]
    fn origin_beats_everything() {
        let o = Route::origin(AsId(9));
        let learned = r(9, &[1, 9], 300);
        assert!(o.better_than(&learned));
    }

    #[test]
    fn loop_detection() {
        let route = r(9, &[1, 2, 9], 200);
        assert!(route.contains(AsId(2)));
        assert!(!route.contains(AsId(5)));
    }

    #[test]
    fn wire_roundtrip() {
        let route = r(9, &[1, 2, 9], 250);
        let bytes = route.to_bytes();
        let (parsed, used) = Route::from_bytes(&bytes).unwrap();
        assert_eq!(parsed, route);
        assert_eq!(used, bytes.len());
        assert!(Route::from_bytes(&bytes[..5]).is_none());
    }

    /// A header claiming `u32::MAX` hops is refused, not sized: the
    /// length is computed with checked arithmetic and compared first.
    #[test]
    fn a_hop_count_past_the_buffer_is_refused() {
        let mut bytes = r(9, &[1, 2, 9], 250).to_bytes();
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(Route::from_bytes(&bytes).is_none());
        bytes[8..12].copy_from_slice(&4u32.to_le_bytes());
        assert!(Route::from_bytes(&bytes).is_none());
    }
}
