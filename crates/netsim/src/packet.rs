//! Packets and node addressing.

use bytes::Bytes;

/// Identifies a node (host) in the simulated network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl core::fmt::Display for NodeId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The conventional Ethernet MTU; the paper's Table 2 measures "an MTU
/// sized packet".
pub const MTU: usize = 1500;

/// A datagram in flight or delivered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Monotonic per-simulation id (assigned at send).
    pub id: u64,
    /// Sender.
    pub src: NodeId,
    /// Destination.
    pub dst: NodeId,
    /// The materialised bytes (cheaply clonable).
    pub payload: Bytes,
    /// Zero bytes that follow `payload` on the wire without being stored:
    /// they take link time and count towards [`Packet::len`], but no
    /// buffer holds them (see [`crate::sim::Network::send_padded`]).
    pub pad: usize,
}

impl Packet {
    /// Length on the wire in bytes: the payload plus its padding.
    pub fn len(&self) -> usize {
        self.payload.len().saturating_add(self.pad)
    }

    /// True if the packet occupies no bytes on the wire.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction() {
        let p = Packet {
            id: 1,
            src: NodeId(0),
            dst: NodeId(1),
            payload: Bytes::from_static(b"hello"),
            pad: 0,
        };
        assert_eq!(p.len(), 5);
        assert!(!p.is_empty());
        assert_eq!(format!("{}", p.src), "n0");

        // Padding counts on the wire, and the sum saturates.
        let padded = Packet {
            pad: 95,
            ..p.clone()
        };
        assert_eq!((padded.len(), padded.payload.len()), (100, 5));
        let huge = Packet {
            pad: usize::MAX,
            ..p
        };
        assert_eq!(huge.len(), usize::MAX);
        let only_pad = Packet {
            payload: Bytes::new(),
            pad: 1,
            ..huge
        };
        assert!(!only_pad.is_empty());
    }
}
