//! A reliable, ordered byte stream over the lossy datagram network.
//!
//! Minimal ARQ in the smoltcp spirit: sequence numbers, cumulative acks,
//! retransmission on timeout, a checksum to reject corrupted segments, and
//! receive-side reassembly of out-of-order data. The Tor and middlebox
//! case studies run their framed protocols over this.
//!
//! The endpoint is driven explicitly (poll model): the application drains
//! its node inbox, feeds packets to [`StreamConn::handle_packet`], then
//! calls [`StreamConn::tick`] to (re)transmit.

use std::collections::BTreeMap;

use bytes::Bytes;

use crate::packet::{NodeId, Packet};
use crate::sim::Network;
use crate::time::{SimDuration, SimTime};

/// Maximum payload bytes per segment.
pub const MAX_SEGMENT: usize = 1024;

const TYPE_DATA: u8 = 0;
const TYPE_ACK: u8 = 1;

/// FNV-1a checksum over segment header + payload.
fn checksum(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c9dc5;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(16777619);
    }
    h
}

fn encode_segment(ty: u8, seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut body = Vec::with_capacity(13 + payload.len());
    body.push(ty);
    body.extend_from_slice(&seq.to_le_bytes());
    body.extend_from_slice(payload);
    let sum = checksum(&body);
    let mut out = Vec::with_capacity(4 + body.len());
    out.extend_from_slice(&sum.to_le_bytes());
    out.extend_from_slice(&body);
    out
}

fn decode_segment(bytes: &[u8]) -> Option<(u8, u64, &[u8])> {
    if bytes.len() < 13 {
        return None;
    }
    let sum = u32::from_le_bytes(bytes[..4].try_into().ok()?);
    let body = &bytes[4..];
    if checksum(body) != sum {
        return None;
    }
    let ty = body[0];
    let seq = u64::from_le_bytes(body[1..9].try_into().ok()?);
    Some((ty, seq, &body[9..]))
}

struct Outstanding {
    payload: Vec<u8>,
    last_sent: Option<SimTime>,
}

/// One end of a reliable byte-stream connection.
pub struct StreamConn {
    local: NodeId,
    peer: NodeId,
    next_send_seq: u64,
    outstanding: BTreeMap<u64, Outstanding>,
    next_recv_seq: u64,
    reorder: BTreeMap<u64, Vec<u8>>,
    assembled: Vec<u8>,
    /// Retransmission timeout.
    pub rto: SimDuration,
    /// Total segments retransmitted (for tests and stats).
    pub retransmissions: u64,
}

impl StreamConn {
    /// Creates an endpoint on `local` talking to `peer`.
    pub fn new(local: NodeId, peer: NodeId) -> Self {
        StreamConn {
            local,
            peer,
            next_send_seq: 0,
            outstanding: BTreeMap::new(),
            next_recv_seq: 0,
            reorder: BTreeMap::new(),
            assembled: Vec::new(),
            rto: SimDuration::from_millis(20),
            retransmissions: 0,
        }
    }

    /// Queues `data` for reliable transmission (segmented as needed).
    pub fn send(&mut self, data: &[u8]) {
        for chunk in data.chunks(MAX_SEGMENT) {
            self.outstanding.insert(
                self.next_send_seq,
                Outstanding {
                    payload: chunk.to_vec(),
                    last_sent: None,
                },
            );
            self.next_send_seq += 1;
        }
    }

    /// Processes one inbound packet addressed to this connection.
    ///
    /// Corrupted segments fail the checksum and are ignored (retransmission
    /// recovers them). Duplicate data is acked again but not re-delivered.
    pub fn handle_packet(&mut self, packet: &Packet, net: &mut Network) {
        if packet.src != self.peer || packet.dst != self.local {
            return;
        }
        let Some((ty, seq, payload)) = decode_segment(&packet.payload) else {
            return; // checksum failure: drop silently
        };
        match ty {
            TYPE_DATA => {
                if seq >= self.next_recv_seq && !self.reorder.contains_key(&seq) {
                    self.reorder.insert(seq, payload.to_vec());
                    // Pull any now-contiguous prefix into the stream.
                    while let Some(data) = self.reorder.remove(&self.next_recv_seq) {
                        self.assembled.extend_from_slice(&data);
                        self.next_recv_seq += 1;
                    }
                }
                // Cumulative ack: everything below next_recv_seq received.
                let ack = encode_segment(TYPE_ACK, self.next_recv_seq, &[]);
                net.send(self.local, self.peer, Bytes::from(ack));
            }
            TYPE_ACK => {
                // seq is cumulative: all segments < seq are delivered.
                let acked: Vec<u64> = self.outstanding.range(..seq).map(|(&s, _)| s).collect();
                for s in acked {
                    self.outstanding.remove(&s);
                }
            }
            _ => {}
        }
    }

    /// Transmits unsent segments and retransmits timed-out ones.
    pub fn tick(&mut self, net: &mut Network) {
        let now = net.now();
        for (&seq, out) in self.outstanding.iter_mut() {
            let due = match out.last_sent {
                None => true,
                Some(t) => now - t >= self.rto,
            };
            if due {
                if out.last_sent.is_some() {
                    self.retransmissions += 1;
                }
                out.last_sent = Some(now);
                let seg = encode_segment(TYPE_DATA, seq, &out.payload);
                net.send(self.local, self.peer, Bytes::from(seg));
            }
        }
    }

    /// Reads and consumes all contiguous received bytes.
    pub fn read(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.assembled)
    }

    /// True when every queued byte has been acknowledged.
    pub fn all_acked(&self) -> bool {
        self.outstanding.is_empty()
    }
}

/// Drives a pair of connected endpoints until both sides have delivered and
/// acknowledged everything (or `max_rounds` elapse). Returns `true` on
/// completion. Each round advances the network by one RTO.
pub fn drive_pair(
    a: &mut StreamConn,
    b: &mut StreamConn,
    net: &mut Network,
    max_rounds: usize,
) -> bool {
    for _ in 0..max_rounds {
        a.tick(net);
        b.tick(net);
        let deadline = net.now() + a.rto.max(b.rto);
        net.run_until(deadline);
        for p in net.recv_all(a.local) {
            a.handle_packet(&p, net);
        }
        for p in net.recv_all(b.local) {
            b.handle_packet(&p, net);
        }
        net.run_to_idle();
        for p in net.recv_all(a.local) {
            a.handle_packet(&p, net);
        }
        for p in net.recv_all(b.local) {
            b.handle_packet(&p, net);
        }
        if a.all_acked() && b.all_acked() {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultConfig;
    use crate::sim::LinkConfig;

    fn pair(faults: FaultConfig) -> (Network, StreamConn, StreamConn) {
        let mut net = Network::new(7);
        let a = net.add_node();
        let b = net.add_node();
        net.add_duplex_link(
            a,
            b,
            LinkConfig {
                faults,
                ..Default::default()
            },
        );
        (net, StreamConn::new(a, b), StreamConn::new(b, a))
    }

    #[test]
    fn segment_roundtrip() {
        let seg = encode_segment(TYPE_DATA, 42, b"payload");
        let (ty, seq, payload) = decode_segment(&seg).unwrap();
        assert_eq!(ty, TYPE_DATA);
        assert_eq!(seq, 42);
        assert_eq!(payload, b"payload");
    }

    #[test]
    fn segment_rejects_corruption() {
        let mut seg = encode_segment(TYPE_DATA, 1, b"data");
        seg[10] ^= 0x40;
        assert!(decode_segment(&seg).is_none());
        assert!(decode_segment(&seg[..5]).is_none());
    }

    #[test]
    fn transfer_over_clean_link() {
        let (mut net, mut a, mut b) = pair(FaultConfig::default());
        a.send(b"hello reliable world");
        assert!(drive_pair(&mut a, &mut b, &mut net, 10));
        assert_eq!(b.read(), b"hello reliable world");
        assert_eq!(a.retransmissions, 0);
    }

    #[test]
    fn transfer_survives_heavy_loss() {
        let (mut net, mut a, mut b) = pair(FaultConfig {
            drop_chance: 0.30,
            ..Default::default()
        });
        let data: Vec<u8> = (0..5000).map(|i| (i % 251) as u8).collect();
        a.send(&data);
        assert!(drive_pair(&mut a, &mut b, &mut net, 500));
        assert_eq!(b.read(), data);
        assert!(a.retransmissions > 0, "loss must have forced retransmits");
    }

    #[test]
    fn transfer_survives_corruption() {
        let (mut net, mut a, mut b) = pair(FaultConfig {
            corrupt_chance: 0.25,
            ..Default::default()
        });
        let data: Vec<u8> = (0..3000).map(|i| (i * 7 % 256) as u8).collect();
        a.send(&data);
        assert!(drive_pair(&mut a, &mut b, &mut net, 500));
        assert_eq!(b.read(), data);
    }

    #[test]
    fn transfer_survives_duplication_and_reordering() {
        let (mut net, mut a, mut b) = pair(FaultConfig {
            duplicate_chance: 0.2,
            reorder_chance: 0.3,
            max_delay: SimDuration::from_millis(30),
            ..Default::default()
        });
        let data: Vec<u8> = (0..4000).map(|i| (i % 256) as u8).collect();
        a.send(&data);
        assert!(drive_pair(&mut a, &mut b, &mut net, 500));
        assert_eq!(b.read(), data, "exactly-once in-order delivery");
    }

    #[test]
    fn bidirectional_transfer() {
        let (mut net, mut a, mut b) = pair(FaultConfig {
            drop_chance: 0.1,
            ..Default::default()
        });
        a.send(b"from a");
        b.send(b"from b, longer message");
        assert!(drive_pair(&mut a, &mut b, &mut net, 200));
        assert_eq!(b.read(), b"from a");
        assert_eq!(a.read(), b"from b, longer message");
    }

    #[test]
    fn large_multisegment_message() {
        let (mut net, mut a, mut b) = pair(FaultConfig::default());
        let data = vec![0xabu8; MAX_SEGMENT * 7 + 13];
        a.send(&data);
        assert!(drive_pair(&mut a, &mut b, &mut net, 50));
        assert_eq!(b.read(), data);
    }

    #[test]
    fn foreign_packets_ignored() {
        let (mut net, mut a, _) = pair(FaultConfig::default());
        let stranger = net.add_node();
        let bogus = Packet {
            id: 999,
            src: stranger,
            dst: NodeId(0),
            payload: Bytes::from(encode_segment(TYPE_DATA, 0, b"injected")),
            pad: 0,
        };
        a.handle_packet(&bogus, &mut net);
        assert!(
            a.read().is_empty(),
            "packet from wrong peer must be ignored"
        );
    }
}
