//! The deterministic discrete-event network simulator.
//!
//! Event-driven in the smoltcp spirit: no threads, no wall-clock — an
//! event queue popped in `(time, sequence)` order so identical inputs
//! replay identically. Nodes exchange datagrams over configured
//! links with latency, bandwidth-derived serialisation delay, and optional
//! fault injection.

use std::collections::VecDeque;

use bytes::Bytes;
use teenet_crypto::SecureRng;

use crate::fault::{FaultConfig, FaultDecision, FaultInjector};
use crate::packet::{NodeId, Packet};
use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};
use crate::trace::{Trace, TraceEvent, TraceRecord};

/// Properties of a unidirectional link.
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// Propagation latency.
    pub latency: SimDuration,
    /// Bandwidth in bytes per second (`None` = infinite).
    pub bandwidth_bps: Option<u64>,
    /// Fault injection on this link.
    pub faults: FaultConfig,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            latency: SimDuration::from_millis(1),
            bandwidth_bps: None,
            faults: FaultConfig::default(),
        }
    }
}

/// Per-link delivery and fault-outcome counters, readable while a
/// simulation runs (drive a workload, then assert on what the links did).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Datagrams handed to the link by [`Network::send`].
    pub sent: u64,
    /// Datagrams that reached their destination's inbox or were taken with
    /// [`Network::pop_delivery`] (includes corrupted and duplicated copies).
    pub delivered: u64,
    /// Datagrams lost to drop faults or rate limiting.
    pub dropped: u64,
    /// Datagrams delivered with corrupted payloads.
    pub corrupted: u64,
    /// Extra copies delivered by duplication faults.
    pub duplicated: u64,
    /// Datagrams held back by delay faults (beyond latency + serialisation).
    pub delayed: u64,
}

impl LinkStats {
    /// Folds another link's counters into this one.
    pub fn merge(&mut self, other: &LinkStats) {
        self.sent += other.sent;
        self.delivered += other.delivered;
        self.dropped += other.dropped;
        self.corrupted += other.corrupted;
        self.duplicated += other.duplicated;
        self.delayed += other.delayed;
    }
}

struct Link {
    config: LinkConfig,
    /// Boxed, so that a clean link carries no idle RNG (a Tor overlay is
    /// a full mesh of clean links).
    injector: Option<Box<FaultInjector>>,
    /// When the link is next free to begin serialising (FIFO queueing).
    next_free: SimTime,
    stats: LinkStats,
}

#[derive(Default)]
struct Node {
    /// Packets `run_until` delivered, until a `recv*` takes them.
    inbox: VecDeque<(SimTime, Packet)>,
    /// Deepest the inbox has ever been (queue-depth high-watermark).
    max_depth: usize,
}

#[derive(PartialEq, Eq)]
struct Delivery {
    at: SimTime,
    seq: u64,
    packet: Packet,
    /// Position of the link in `links[packet.src]`, resolved at send.
    link: u32,
    corrupted: bool,
    duplicated: bool,
}

impl Ord for Delivery {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl PartialOrd for Delivery {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The fault injector of link `src → dst` in a network seeded `seed`:
/// `None` for a clean link, else an RNG forked from the seed's root RNG
/// under a label of the endpoints. [`SecureRng::fork`] never perturbs its
/// parent, so the stream depends on nothing but `(seed, src, dst)` — not
/// on how many links were added before, nor on whether the network was
/// built or reset. `root` caches the root RNG, hashed from the seed by the
/// first faulty link that needs it: clean links never hash.
fn injector_for(
    seed: u64,
    root: &mut Option<SecureRng>,
    src: NodeId,
    dst: NodeId,
    faults: &FaultConfig,
) -> Option<FaultInjector> {
    if faults.is_clean() {
        return None;
    }
    let label = [
        b"link".as_slice(),
        &src.0.to_le_bytes(),
        &dst.0.to_le_bytes(),
    ]
    .concat();
    let root = root.get_or_insert_with(|| SecureRng::seed_from_u64(seed));
    Some(FaultInjector::new(faults.clone(), root.fork(&label)))
}

/// Position of the link `src → dst` in `links[src]`, if configured.
fn link_position(links: &[Vec<(NodeId, Link)>], src: NodeId, dst: NodeId) -> Option<usize> {
    links
        .get(src.0 as usize)?
        .iter()
        .position(|(d, _)| *d == dst)
}

/// The simulated network.
pub struct Network {
    now: SimTime,
    nodes: Vec<Node>,
    /// Outgoing links per source node: `links[src]` holds `(dst, link)`
    /// pairs. A node has a handful of neighbours, so the per-packet
    /// lookup is an index plus a short scan — no hashing.
    links: Vec<Vec<(NodeId, Link)>>,
    queue: EventQueue<Delivery>,
    next_packet_id: u64,
    next_seq: u64,
    /// Every link's fault injector is derived from this seed and the
    /// link's endpoints alone (see [`injector_for`]).
    seed: u64,
    /// `SecureRng::seed_from_u64(seed)`, once a faulty link has needed it.
    root: Option<SecureRng>,
    /// Packet trace (on by default; disable via [`Network::set_tracing`],
    /// payload capture opt-in via [`Network::enable_pcap`]).
    pub trace: Trace,
}

impl Network {
    /// Creates an empty network; `seed` drives all fault randomness.
    pub fn new(seed: u64) -> Self {
        Network {
            now: SimTime::ZERO,
            nodes: Vec::new(),
            links: Vec::new(),
            queue: EventQueue::new(),
            next_packet_id: 0,
            next_seq: 0,
            seed,
            root: None,
            trace: Trace::new(),
        }
    }

    /// Switches the trace to payload-capturing mode (for pcap export).
    /// Discards any existing trace records.
    pub fn enable_pcap(&mut self) {
        self.trace = Trace::with_payloads();
    }

    /// Turns packet tracing on or off. The trace accumulates one record
    /// per packet event, so a driver that never reads it (a long load
    /// run) should switch it off to keep the network's memory independent
    /// of how many packets flow through it.
    pub fn set_tracing(&mut self, enabled: bool) {
        self.trace.set_enabled(enabled);
    }

    /// Rewinds the network to the state `Network::new(seed)` plus the
    /// same nodes and links would produce, without reallocating the
    /// topology: the clock returns to zero, inboxes, the event queue,
    /// link stats/backlogs and the trace are cleared, and every fault
    /// injector is re-derived from the new seed. A shard engine replaying
    /// many sessions reuses one network this way instead of rebuilding
    /// it per session.
    ///
    /// Determinism: an injector's RNG is a pure function of the seed and
    /// the link's endpoints ([`injector_for`]), so re-deriving here
    /// reproduces exactly what [`Network::add_link`] derives on a fresh
    /// network — and a reset over clean links hashes nothing.
    pub fn reset(&mut self, seed: u64) {
        self.now = SimTime::ZERO;
        self.queue.clear();
        self.next_packet_id = 0;
        self.next_seq = 0;
        self.seed = seed;
        self.root = None;
        self.trace.clear();
        for node in &mut self.nodes {
            node.inbox.clear();
            node.max_depth = 0;
        }
        for (src, out) in self.links.iter_mut().enumerate() {
            let src = NodeId(src as u32);
            for (dst, link) in out {
                link.next_free = SimTime::ZERO;
                link.stats = LinkStats::default();
                if let Some(injector) = &mut link.injector {
                    let fresh = injector_for(seed, &mut self.root, src, *dst, &link.config.faults);
                    **injector = fresh.expect("a link's faults do not change");
                }
            }
        }
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node::default());
        id
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Configures the unidirectional link `src → dst`, replacing any
    /// link already configured between the two.
    pub fn add_link(&mut self, src: NodeId, dst: NodeId, config: LinkConfig) {
        let link = Link {
            injector: injector_for(self.seed, &mut self.root, src, dst, &config.faults)
                .map(Box::new),
            config,
            next_free: SimTime::ZERO,
            stats: LinkStats::default(),
        };
        let from = src.0 as usize;
        if self.links.len() <= from {
            self.links.resize_with(from + 1, Vec::new);
        }
        match link_position(&self.links, src, dst) {
            Some(at) => self.links[from][at].1 = link,
            None => self.links[from].push((dst, link)),
        }
    }

    /// Configures a symmetric (bidirectional) link.
    pub fn add_duplex_link(&mut self, a: NodeId, b: NodeId, config: LinkConfig) {
        self.add_link(a, b, config.clone());
        self.add_link(b, a, config);
    }

    /// Fully connects all current nodes with `config` links.
    pub fn connect_all(&mut self, config: LinkConfig) {
        let n = self.nodes.len() as u32;
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    self.add_link(NodeId(i), NodeId(j), config.clone());
                }
            }
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Sends a datagram; returns the packet id, or `None` if no link exists
    /// (the datagram is dropped, mirroring a missing route).
    pub fn send(&mut self, src: NodeId, dst: NodeId, payload: impl Into<Bytes>) -> Option<u64> {
        self.send_padded(src, dst, payload, 0)
    }

    /// [`Network::send`] for a datagram whose wire bytes are `payload`
    /// followed by `pad` zero bytes nobody will read, without storing the
    /// zeros. Everything the link does with a packet goes by its wire
    /// length `payload.len() + pad` — serialisation delay, trace records,
    /// [`Packet::len`], which byte a corruption fault hits — so the run is
    /// the one `send(payload ++ zeros(pad))` produces, except that a
    /// corruption landing in the padding has no stored byte to flip.
    pub fn send_padded(
        &mut self,
        src: NodeId,
        dst: NodeId,
        payload: impl Into<Bytes>,
        pad: usize,
    ) -> Option<u64> {
        let payload: Bytes = payload.into();
        let wire_len = payload.len().saturating_add(pad);
        let id = self.next_packet_id;
        self.next_packet_id += 1;
        let now = self.now;
        let record = |event| TraceRecord {
            time: now,
            event,
            packet_id: id,
            src,
            dst,
            len: wire_len,
        };

        let Some(link_at) = link_position(&self.links, src, dst) else {
            self.trace.record(record(TraceEvent::Dropped), None);
            return None;
        };
        let link = &mut self.links[src.0 as usize][link_at].1;

        self.trace.record(record(TraceEvent::Sent), None);

        link.stats.sent += 1;

        // FIFO serialisation: transmission begins when the link is free.
        let start = link.next_free.max(now);
        let serialisation = match link.config.bandwidth_bps {
            Some(bps) if bps > 0 => {
                SimDuration((wire_len as u64).saturating_mul(1_000_000_000) / bps)
            }
            _ => SimDuration::ZERO,
        };
        link.next_free = start + serialisation;
        let mut arrival = start + serialisation + link.config.latency;

        let mut corrupted = false;
        let mut duplicated = false;
        if let Some(injector) = &mut link.injector {
            match injector.decide(now) {
                FaultDecision::Drop => {
                    link.stats.dropped += 1;
                    self.trace.record(record(TraceEvent::Dropped), None);
                    return Some(id);
                }
                FaultDecision::Corrupt => {
                    corrupted = true;
                    link.stats.corrupted += 1;
                }
                FaultDecision::Duplicate => {
                    duplicated = true;
                    link.stats.duplicated += 1;
                }
                FaultDecision::Delay(extra) => {
                    arrival += extra;
                    link.stats.delayed += 1;
                }
                FaultDecision::Deliver => {}
            }
        }

        // Reuse the caller's buffer untouched (a cheap refcount clone for
        // an already-shared `Bytes`); only a corrupting fault pays for a
        // mutable copy.
        let payload = if corrupted {
            let mut bytes = payload.to_vec();
            if let Some(injector) = &mut link.injector {
                injector.corrupt(&mut bytes, pad);
            }
            Bytes::from(bytes)
        } else {
            payload
        };
        let packet = Packet {
            id,
            src,
            dst,
            payload,
            pad,
        };
        // Deliveries pop in `(at, seq)` order whatever order they were
        // pushed in, so the duplicate (the only case that needs a second
        // `Packet`) can go first and the original be moved, not cloned.
        let seq = self.next_seq;
        if duplicated {
            self.queue.push(Delivery {
                at: arrival + SimDuration::from_micros(1),
                seq: seq + 1,
                packet: packet.clone(),
                link: link_at as u32,
                corrupted: false,
                duplicated: true,
            });
        }
        self.queue.push(Delivery {
            at: arrival,
            seq,
            packet,
            link: link_at as u32,
            corrupted,
            duplicated: false,
        });
        self.next_seq += 1 + u64::from(duplicated);
        Some(id)
    }

    /// Takes the earliest in-flight delivery off the network: advances the
    /// clock to its arrival, traces and counts it, and hands the packet to
    /// the caller (an event loop dispatching on `packet.dst` itself)
    /// instead of an inbox. [`Network::run_until`] is this, into the inboxes.
    #[inline]
    pub fn pop_delivery(&mut self) -> Option<(SimTime, Packet)> {
        let delivery = self.queue.pop()?;
        self.now = delivery.at;
        let event = if delivery.corrupted {
            TraceEvent::Corrupted
        } else if delivery.duplicated {
            TraceEvent::Duplicated
        } else {
            TraceEvent::Delivered
        };
        self.trace.record(
            TraceRecord {
                time: delivery.at,
                event,
                packet_id: delivery.packet.id,
                src: delivery.packet.src,
                dst: delivery.packet.dst,
                len: delivery.packet.len(),
            },
            Some(&delivery.packet),
        );
        self.links[delivery.packet.src.0 as usize][delivery.link as usize]
            .1
            .stats
            .delivered += 1;
        Some((delivery.at, delivery.packet))
    }

    /// Processes events up to and including `until` into the destination
    /// inboxes, advancing the clock.
    pub fn run_until(&mut self, until: SimTime) {
        while self.next_event_at().is_some_and(|at| at <= until) {
            let (at, packet) = self.pop_delivery().expect("peeked");
            if let Some(node) = self.nodes.get_mut(packet.dst.0 as usize) {
                node.inbox.push_back((at, packet));
                node.max_depth = node.max_depth.max(node.inbox.len());
            }
        }
        self.now = self.now.max(until);
    }

    /// Moves the clock to `to` for a caller whose own event is next: no
    /// delivery may be due by then (one would be skipped, not delivered).
    #[inline]
    pub fn advance_to(&mut self, to: SimTime) {
        debug_assert!(self.next_event_at().is_none_or(|at| at > to));
        self.now = self.now.max(to);
    }

    /// Processes all queued events (runs the network to quiescence).
    pub fn run_to_idle(&mut self) {
        while let Some(at) = self.next_event_at() {
            self.run_until(at);
        }
    }

    /// Pops the next delivered packet at `node`, if any.
    pub fn recv(&mut self, node: NodeId) -> Option<Packet> {
        self.recv_timed(node).map(|(_, p)| p)
    }

    /// Pops the next delivered packet at `node` with its delivery time.
    pub fn recv_timed(&mut self, node: NodeId) -> Option<(SimTime, Packet)> {
        self.nodes.get_mut(node.0 as usize)?.inbox.pop_front()
    }

    /// Drains all delivered packets at `node`.
    pub fn recv_all(&mut self, node: NodeId) -> Vec<Packet> {
        match self.nodes.get_mut(node.0 as usize) {
            Some(n) => n.inbox.drain(..).map(|(_, p)| p).collect(),
            None => Vec::new(),
        }
    }

    /// Number of packets waiting at `node`.
    pub fn pending(&self, node: NodeId) -> usize {
        self.nodes.get(node.0 as usize).map_or(0, |n| n.inbox.len())
    }

    /// Current inbox depth at `node` (alias of [`Network::pending`], named
    /// for observability dashboards).
    pub fn queue_depth(&self, node: NodeId) -> usize {
        self.pending(node)
    }

    /// The deepest `node`'s inbox has ever been. Packets taken with
    /// [`Network::pop_delivery`] never enter an inbox and do not count.
    pub fn max_queue_depth(&self, node: NodeId) -> usize {
        self.nodes.get(node.0 as usize).map_or(0, |n| n.max_depth)
    }

    /// Delivery/fault counters of the link `src → dst`, if configured.
    pub fn link_stats(&self, src: NodeId, dst: NodeId) -> Option<LinkStats> {
        let at = link_position(&self.links, src, dst)?;
        Some(self.links[src.0 as usize][at].1.stats)
    }

    /// Fault outcomes summed over every link in the network.
    pub fn fault_totals(&self) -> LinkStats {
        let mut total = LinkStats::default();
        for (_, link) in self.links.iter().flatten() {
            total.merge(&link.stats);
        }
        total
    }

    /// Time of the earliest in-flight delivery, or `None` when the network
    /// is quiescent. Lets an external event loop interleave its own timers
    /// with network deliveries without overshooting either.
    #[inline]
    pub fn next_event_at(&self) -> Option<SimTime> {
        self.queue.peek().map(|d| d.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::RateLimit;
    use proptest::prelude::*;

    fn two_node_net(config: LinkConfig) -> (Network, NodeId, NodeId) {
        let mut net = Network::new(1);
        let a = net.add_node();
        let b = net.add_node();
        net.add_duplex_link(a, b, config);
        (net, a, b)
    }

    fn faulty_link() -> LinkConfig {
        LinkConfig {
            faults: FaultConfig {
                drop_chance: 0.3,
                corrupt_chance: 0.2,
                duplicate_chance: 0.1,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    /// Sends 50 datagrams `a → b` and returns everything observable:
    /// delivered payloads (fault outcomes included), link totals, queue
    /// watermark, clock, trace volume.
    fn drive(net: &mut Network, a: NodeId, b: NodeId) -> impl PartialEq + std::fmt::Debug {
        for i in 0..50u8 {
            net.send(a, b, vec![i; 16]);
            net.run_to_idle();
        }
        let payloads: Vec<Vec<u8>> = net.recv_all(b).iter().map(|p| p.payload.to_vec()).collect();
        (
            payloads,
            net.fault_totals(),
            net.max_queue_depth(b),
            net.now(),
            net.trace.records().len(),
        )
    }

    /// `reset(seed)` on a used network must reproduce exactly what a
    /// fresh `Network::new(seed)` with the same topology produces: same
    /// deliveries, same fault outcomes, same clock, same trace volume —
    /// over faulty links (injectors re-derived) and over clean ones
    /// (nothing to derive).
    #[test]
    fn reset_reproduces_a_fresh_network() {
        for config in [faulty_link(), LinkConfig::default()] {
            let (mut fresh, a, b) = two_node_net(config.clone());
            let baseline = drive(&mut fresh, a, b);

            // Dirty a second identical network under another seed, then
            // rewind it to seed 1 — it must match the fresh run exactly.
            let (mut reused, a2, b2) = two_node_net(config);
            reused.reset(999);
            drive(&mut reused, a2, b2);
            reused.reset(1);
            assert_eq!(drive(&mut reused, a2, b2), baseline);
        }
    }

    /// An injector's stream comes from the network's *seed*, not from RNG
    /// state the network carries: a faulty link added after `reset(seed)`
    /// behaves exactly like the same link on a fresh `Network::new(seed)`.
    #[test]
    fn link_added_after_reset_matches_a_fresh_network() {
        let (mut fresh, a, b) = two_node_net(faulty_link());
        let baseline = drive(&mut fresh, a, b);

        let mut reused = Network::new(999);
        let (a2, b2) = (reused.add_node(), reused.add_node());
        reused.reset(1);
        reused.add_duplex_link(a2, b2, faulty_link());
        assert_eq!(drive(&mut reused, a2, b2), baseline);
    }

    #[test]
    fn add_link_replaces_an_existing_link() {
        let (mut net, a, b) = two_node_net(LinkConfig {
            faults: FaultConfig {
                drop_chance: 1.0,
                ..Default::default()
            },
            ..Default::default()
        });
        net.send(a, b, &b"lost"[..]);
        net.add_link(
            a,
            b,
            LinkConfig {
                latency: SimDuration::from_millis(7),
                ..Default::default()
            },
        );
        // One link a → b, with the new config and fresh counters; the
        // reverse direction is untouched.
        assert_eq!(net.link_stats(a, b), Some(LinkStats::default()));
        net.send(a, b, &b"kept"[..]);
        net.run_to_idle();
        assert_eq!(net.now(), SimTime::ZERO + SimDuration::from_millis(7));
        assert_eq!(&net.recv(b).unwrap().payload[..], b"kept");
        let expect = LinkStats {
            sent: 1,
            delivered: 1,
            ..Default::default()
        };
        assert_eq!(net.link_stats(a, b), Some(expect));
        assert_eq!(net.fault_totals(), expect, "the replaced link is gone");
    }

    /// Compile-time regression: a whole simulated network — virtual
    /// clock, event heap, per-link fault RNGs — must stay `Send`, so each
    /// load-generation shard can own an independent network with its own
    /// virtual clock on its own OS thread.
    #[test]
    fn network_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Network>();
        assert_send::<LinkStats>();
    }

    #[test]
    fn basic_delivery_with_latency() {
        let (mut net, a, b) = two_node_net(LinkConfig {
            latency: SimDuration::from_millis(5),
            ..Default::default()
        });
        net.send(a, b, &b"hello"[..]);
        net.run_until(SimTime::ZERO + SimDuration::from_millis(4));
        assert_eq!(net.pending(b), 0, "not yet arrived");
        net.run_until(SimTime::ZERO + SimDuration::from_millis(5));
        let p = net.recv(b).expect("delivered");
        assert_eq!(&p.payload[..], b"hello");
        assert_eq!(net.now(), SimTime::ZERO + SimDuration::from_millis(5));
    }

    #[test]
    fn no_link_means_drop() {
        let mut net = Network::new(1);
        let a = net.add_node();
        let b = net.add_node();
        assert_eq!(net.send(a, b, &b"x"[..]), None);
        net.run_to_idle();
        assert_eq!(net.pending(b), 0);
        assert_eq!(net.trace.count(TraceEvent::Dropped), 1);
    }

    #[test]
    fn bandwidth_adds_serialisation_delay() {
        // 1000 bytes at 1 MB/s = 1 ms serialisation + 1 ms latency.
        let (mut net, a, b) = two_node_net(LinkConfig {
            latency: SimDuration::from_millis(1),
            bandwidth_bps: Some(1_000_000),
            ..Default::default()
        });
        net.send(a, b, vec![0u8; 1000]);
        net.run_until(SimTime::ZERO + SimDuration::from_micros(1_999));
        assert_eq!(net.pending(b), 0);
        net.run_until(SimTime::ZERO + SimDuration::from_millis(2));
        assert_eq!(net.pending(b), 1);
    }

    #[test]
    fn fifo_queueing_on_shared_link() {
        // Two back-to-back 1000-byte packets: the second waits for the
        // first to serialise.
        let (mut net, a, b) = two_node_net(LinkConfig {
            latency: SimDuration::ZERO,
            bandwidth_bps: Some(1_000_000),
            ..Default::default()
        });
        net.send(a, b, vec![1u8; 1000]);
        net.send(a, b, vec![2u8; 1000]);
        net.run_until(SimTime::ZERO + SimDuration::from_millis(1));
        assert_eq!(net.pending(b), 1);
        net.run_until(SimTime::ZERO + SimDuration::from_millis(2));
        assert_eq!(net.pending(b), 2);
        // Order preserved.
        assert_eq!(net.recv(b).unwrap().payload[0], 1);
        assert_eq!(net.recv(b).unwrap().payload[0], 2);
    }

    #[test]
    fn run_to_idle_delivers_everything() {
        let (mut net, a, b) = two_node_net(LinkConfig::default());
        for i in 0..10u8 {
            net.send(a, b, vec![i]);
        }
        net.run_to_idle();
        assert_eq!(net.recv_all(b).len(), 10);
    }

    #[test]
    fn drop_faults_lose_packets() {
        let (mut net, a, b) = two_node_net(LinkConfig {
            faults: FaultConfig {
                drop_chance: 1.0,
                ..Default::default()
            },
            ..Default::default()
        });
        net.send(a, b, &b"doomed"[..]);
        net.run_to_idle();
        assert_eq!(net.pending(b), 0);
        assert_eq!(net.trace.count(TraceEvent::Dropped), 1);
    }

    #[test]
    fn corruption_faults_flip_a_byte() {
        let (mut net, a, b) = two_node_net(LinkConfig {
            faults: FaultConfig {
                corrupt_chance: 1.0,
                ..Default::default()
            },
            ..Default::default()
        });
        net.send(a, b, &b"pristine"[..]);
        net.run_to_idle();
        let p = net.recv(b).unwrap();
        assert_ne!(&p.payload[..], b"pristine");
        assert_eq!(p.len(), 8);
        assert_eq!(net.trace.count(TraceEvent::Corrupted), 1);
    }

    #[test]
    fn duplication_faults_deliver_twice() {
        let (mut net, a, b) = two_node_net(LinkConfig {
            faults: FaultConfig {
                duplicate_chance: 1.0,
                ..Default::default()
            },
            ..Default::default()
        });
        net.send(a, b, &b"twice"[..]);
        net.run_to_idle();
        assert_eq!(net.pending(b), 2);
    }

    #[test]
    fn rate_limited_link_drops_excess() {
        let (mut net, a, b) = two_node_net(LinkConfig {
            faults: FaultConfig {
                rate_limit: Some(RateLimit {
                    tokens_per_interval: 3,
                    interval: SimDuration::from_secs(1),
                }),
                ..Default::default()
            },
            ..Default::default()
        });
        for _ in 0..10 {
            net.send(a, b, &b"p"[..]);
        }
        net.run_to_idle();
        assert_eq!(net.pending(b), 3);
    }

    // The decisions of link `0 → 1` under seed 1 and the benchmark's
    // `tor_open_faulty` mix, taken from the implementation before the RNG
    // drew from a four-block buffer. They pin the draw order where it
    // lives: drop, corrupt, duplicate, one `u64` each and none past the
    // first hit; reorder draws nothing while its chance is 0.
    #[test]
    fn fault_decisions_of_a_seeded_link_are_pinned() {
        let faults = FaultConfig {
            drop_chance: 0.05,
            corrupt_chance: 0.01,
            duplicate_chance: 0.01,
            ..Default::default()
        };
        let fresh = || injector_for(1, &mut None, NodeId(0), NodeId(1), &faults).expect("faulty");
        // Where a fully materialised 512-byte frame was hit, and with what.
        let hit = |inj: &mut FaultInjector| {
            let mut wire = [0u8; 512];
            inj.corrupt(&mut wire, 0);
            let at = wire.iter().position(|&b| b != 0).expect("one flip");
            (at, wire[at])
        };

        let mut inj = fresh();
        let mut counts = [0u32; 5];
        let mut fnv = 0xcbf2_9ce4_8422_2325u64;
        for i in 0..512 {
            let code = match inj.decide(SimTime(i)) {
                FaultDecision::Deliver => 0,
                FaultDecision::Drop => 1,
                FaultDecision::Corrupt => 2,
                FaultDecision::Duplicate => 3,
                FaultDecision::Delay(_) => 4,
            };
            counts[code] += 1;
            fnv = (fnv ^ code as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(counts, [474, 25, 8, 5, 0]);
        assert_eq!(fnv, 0x8cec_c29d_ff23_a3f3);
        // The stream stands where 1 + 2 + 3 draws per outcome leave it.
        assert_eq!(hit(&mut inj), (185, 0x20));

        // A runner frame: 24 header bytes and 488 of unmaterialised
        // padding draw as the 512 wire bytes do; only byte 12 is there
        // to be flipped.
        let (mut padded, mut whole) = (fresh(), fresh());
        let mut header = [0u8; 24];
        for expected in [(507, 0x02), (12, 0x10), (42, 0x10)] {
            padded.corrupt(&mut header, 488);
            assert_eq!(hit(&mut whole), expected);
        }
        let mut flipped = [0u8; 24];
        flipped[12] = 0x10;
        assert_eq!(header, flipped);
    }

    #[test]
    fn identical_seeds_identical_traces() {
        let build = || {
            let (mut net, a, b) = two_node_net(LinkConfig {
                faults: FaultConfig::lossy(),
                ..Default::default()
            });
            for i in 0..50u8 {
                net.send(a, b, vec![i]);
            }
            net.run_to_idle();
            net.recv_all(b)
                .iter()
                .map(|p| p.payload.to_vec())
                .collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn bidirectional_traffic() {
        let (mut net, a, b) = two_node_net(LinkConfig::default());
        net.send(a, b, &b"ping"[..]);
        net.run_to_idle();
        assert_eq!(&net.recv(b).unwrap().payload[..], b"ping");
        net.send(b, a, &b"pong"[..]);
        net.run_to_idle();
        assert_eq!(&net.recv(a).unwrap().payload[..], b"pong");
    }

    #[test]
    fn connect_all_creates_full_mesh() {
        let mut net = Network::new(1);
        let nodes: Vec<NodeId> = (0..4).map(|_| net.add_node()).collect();
        net.connect_all(LinkConfig::default());
        for &x in &nodes {
            for &y in &nodes {
                if x != y {
                    assert!(net.send(x, y, &b"m"[..]).is_some());
                }
            }
        }
        net.run_to_idle();
        for &n in &nodes {
            assert_eq!(net.pending(n), 3);
        }
    }

    #[test]
    fn link_stats_track_clean_traffic() {
        let (mut net, a, b) = two_node_net(LinkConfig::default());
        for i in 0..5u8 {
            net.send(a, b, vec![i]);
        }
        net.run_to_idle();
        let stats = net.link_stats(a, b).unwrap();
        assert_eq!(stats.sent, 5);
        assert_eq!(stats.delivered, 5);
        assert_eq!(stats.dropped, 0);
        assert_eq!(stats.corrupted, 0);
        // Reverse direction untouched.
        assert_eq!(net.link_stats(b, a).unwrap(), LinkStats::default());
        assert!(net.link_stats(b, NodeId(99)).is_none());
    }

    #[test]
    fn link_stats_track_fault_outcomes() {
        let (mut net, a, b) = two_node_net(LinkConfig {
            faults: FaultConfig {
                drop_chance: 0.3,
                corrupt_chance: 0.2,
                duplicate_chance: 0.2,
                ..Default::default()
            },
            ..Default::default()
        });
        for i in 0..200u8 {
            net.send(a, b, vec![i]);
        }
        net.run_to_idle();
        let stats = net.link_stats(a, b).unwrap();
        assert_eq!(stats.sent, 200);
        assert!(stats.dropped > 0, "{stats:?}");
        assert!(stats.corrupted > 0, "{stats:?}");
        assert!(stats.duplicated > 0, "{stats:?}");
        // Every sent packet either dropped or delivered; duplicates add
        // extra deliveries on top.
        assert_eq!(
            stats.delivered,
            stats.sent - stats.dropped + stats.duplicated
        );
        assert_eq!(net.fault_totals(), stats, "only one active link");
    }

    #[test]
    fn queue_depth_watermark_persists_after_drain() {
        let (mut net, a, b) = two_node_net(LinkConfig::default());
        for i in 0..7u8 {
            net.send(a, b, vec![i]);
        }
        net.run_to_idle();
        assert_eq!(net.queue_depth(b), 7);
        assert_eq!(net.max_queue_depth(b), 7);
        net.recv_all(b);
        assert_eq!(net.queue_depth(b), 0);
        assert_eq!(net.max_queue_depth(b), 7, "watermark survives drain");
        assert_eq!(net.max_queue_depth(a), 0);
    }

    #[test]
    fn recv_timed_reports_delivery_time() {
        let (mut net, a, b) = two_node_net(LinkConfig {
            latency: SimDuration::from_millis(3),
            ..Default::default()
        });
        net.send(a, b, &b"x"[..]);
        assert_eq!(
            net.next_event_at(),
            Some(SimTime::ZERO + SimDuration::from_millis(3))
        );
        net.run_to_idle();
        let (at, p) = net.recv_timed(b).unwrap();
        assert_eq!(at, SimTime::ZERO + SimDuration::from_millis(3));
        assert_eq!(&p.payload[..], b"x");
        assert_eq!(net.next_event_at(), None, "quiescent again");
    }

    /// `send_padded(header, n)` is `send(header ++ zeros(n))` with the
    /// zeros left out of memory: on a same-seed twin network, over a link
    /// with every fault kind and finite bandwidth, both deliver at the same
    /// times with the same wire lengths, link counters, queue watermark
    /// and clock, and the stored bytes are the materialised frame's head.
    #[test]
    fn padded_send_matches_the_materialised_frame() {
        let lossy = LinkConfig {
            latency: SimDuration::from_micros(300),
            bandwidth_bps: Some(1_000_000),
            faults: FaultConfig {
                drop_chance: 0.1,
                corrupt_chance: 0.2,
                duplicate_chance: 0.1,
                reorder_chance: 0.1,
                ..Default::default()
            },
        };
        let (mut whole, a, b) = two_node_net(lossy.clone());
        let (mut split, a2, b2) = two_node_net(lossy);
        let mut in_padding = 0;
        for i in 0..200usize {
            let header = [i as u8; 8];
            let pad = (i * 37) % 1200;
            let mut frame = header.to_vec();
            frame.resize(8 + pad, 0);
            assert_eq!(
                whole.send(a, b, frame),
                split.send_padded(a2, b2, header, pad)
            );
            if i % 3 == 0 {
                let until = whole.now() + SimDuration::from_micros(700);
                whole.run_until(until);
                split.run_until(until);
            }
        }
        whole.run_to_idle();
        split.run_to_idle();
        assert_eq!(whole.now(), split.now());
        assert_eq!(whole.link_stats(a, b), split.link_stats(a2, b2));
        assert_eq!(whole.max_queue_depth(b), split.max_queue_depth(b2));
        assert_eq!(whole.trace.records(), split.trace.records());
        let stats = split.link_stats(a2, b2).unwrap();
        assert!(stats.dropped > 0 && stats.duplicated > 0 && stats.delayed > 0);
        loop {
            match (whole.recv_timed(b), split.recv_timed(b2)) {
                (None, None) => break,
                (Some((at, w)), Some((at2, s))) => {
                    assert_eq!((at, w.id, w.len()), (at2, s.id, s.len()));
                    assert_eq!((w.pad, s.payload.len()), (0, 8));
                    assert_eq!(w.payload[..8], s.payload[..]);
                    // A flip in the tail of the materialised frame is the
                    // one thing the padded packet cannot show.
                    in_padding += usize::from(w.payload[8..].iter().any(|&x| x != 0));
                }
                (w, s) => panic!("one side delivered more: {w:?} vs {s:?}"),
            }
        }
        assert!(in_padding > 0, "some corruption must have hit the padding");
        assert!(in_padding < stats.corrupted as usize, "and some the header");
    }

    proptest! {
        /// `pop_delivery` hands out exactly what `run_until` puts in the
        /// inboxes: on same-seed twin networks over a duplex link with
        /// every fault kind and finite bandwidth, any interleaving of
        /// sends in both directions and clock advances delivers the same
        /// `(time, id, dst, bytes, wire length)` sequence per node, and
        /// leaves the same link counters, clock and trace. Only the inbox
        /// watermark differs: handed-off packets never enter an inbox.
        #[test]
        fn hand_off_delivers_what_the_inboxes_receive(
            steps in proptest::collection::vec(0u64..4_800, 1..200),
            seed in 0u64..1_000,
        ) {
            let twin = || {
                let mut net = Network::new(seed);
                net.enable_pcap();
                let (a, b) = (net.add_node(), net.add_node());
                net.add_duplex_link(a, b, LinkConfig {
                    latency: SimDuration::from_micros(300),
                    bandwidth_bps: Some(1_000_000),
                    faults: FaultConfig {
                        drop_chance: 0.1,
                        corrupt_chance: 0.2,
                        duplicate_chance: 0.1,
                        reorder_chance: 0.1,
                        ..Default::default()
                    },
                });
                (net, a, b)
            };
            let (mut inboxes, a, b) = twin();
            let (mut handed, ..) = twin();
            let seen = |at: SimTime, p: Packet| (at, p.id, p.dst, p.payload.to_vec(), p.len());
            let (mut want, mut got) = (Vec::new(), Vec::new());
            // One draw → a send (either way, `size` bytes of padding) or
            // an advance of `size` µs; a last advance past every delay.
            for step in steps.into_iter().chain([3 + 4 * 10_000_000]) {
                let (kind, size) = (step % 4, step / 4);
                if kind < 3 {
                    let (src, dst) = if kind == 0 { (b, a) } else { (a, b) };
                    let header = [step as u8; 8];
                    prop_assert_eq!(
                        inboxes.send_padded(src, dst, header, size as usize),
                        handed.send_padded(src, dst, header, size as usize)
                    );
                    continue;
                }
                let until = inboxes.now() + SimDuration::from_micros(size);
                inboxes.run_until(until);
                for node in [a, b] {
                    while let Some((at, p)) = inboxes.recv_timed(node) {
                        want.push(seen(at, p));
                    }
                }
                let round = got.len();
                while handed.next_event_at().is_some_and(|at| at <= until) {
                    let (at, p) = handed.pop_delivery().expect("peeked");
                    prop_assert_eq!(handed.now(), at);
                    got.push(seen(at, p));
                }
                handed.advance_to(until);
                got[round..].sort_by_key(|&(_, _, dst, ..)| dst); // a's, then b's
                prop_assert_eq!(inboxes.now(), handed.now());
            }
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(inboxes.next_event_at().or(handed.next_event_at()), None);
            for (src, dst) in [(a, b), (b, a)] {
                prop_assert_eq!(inboxes.link_stats(src, dst), handed.link_stats(src, dst));
            }
            prop_assert_eq!(inboxes.trace.records(), handed.trace.records());
            prop_assert_eq!(inboxes.trace.to_pcap(), handed.trace.to_pcap());
            prop_assert_eq!(handed.max_queue_depth(a) + handed.max_queue_depth(b), 0);
        }
    }

    /// What a delivery costs to move, recorded rather than minimised: the
    /// inline payload grew `Packet` from 40 bytes and `Delivery` from 64,
    /// and the replay got faster all the same. A header's 24 bytes sit on
    /// a word boundary inside the `Bytes`, so it is written and read as
    /// whole aligned words.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn hot_path_struct_sizes() {
        assert_eq!(std::mem::size_of::<Bytes>(), 32);
        assert_eq!(std::mem::size_of::<Packet>(), 56);
        assert_eq!(std::mem::size_of::<Delivery>(), 80);
        let header = Bytes::from_le_words([1, 2, 3]);
        let packet = Packet {
            id: 0,
            src: NodeId(0),
            dst: NodeId(1),
            payload: header,
            pad: 0,
        };
        let stored = packet.payload.as_ptr();
        let this = (&packet as *const Packet).cast::<u8>();
        assert!((this..this.wrapping_add(56)).contains(&stored), "inline");
        assert_eq!(stored as usize % 8, 0, "8-aligned");
    }

    #[test]
    fn corruption_in_padding_is_counted_and_leaves_the_payload_intact() {
        let (mut net, a, b) = two_node_net(LinkConfig {
            faults: FaultConfig {
                corrupt_chance: 1.0,
                ..Default::default()
            },
            ..Default::default()
        });
        // One stored byte in a megabyte on the wire: every flip misses it.
        for _ in 0..20 {
            net.send_padded(a, b, &b"x"[..], 1 << 20);
        }
        net.run_to_idle();
        assert_eq!(net.link_stats(a, b).unwrap().corrupted, 20);
        assert_eq!(net.trace.count(TraceEvent::Corrupted), 20);
        for p in net.recv_all(b) {
            assert_eq!((&p.payload[..], p.len()), (&b"x"[..], (1 << 20) + 1));
        }
    }

    #[test]
    fn wire_length_saturates_instead_of_overflowing() {
        let (mut net, a, b) = two_node_net(LinkConfig {
            latency: SimDuration::ZERO,
            bandwidth_bps: Some(u64::MAX),
            faults: FaultConfig {
                corrupt_chance: 1.0,
                ..Default::default()
            },
        });
        net.send_padded(a, b, &b"four"[..], usize::MAX);
        net.run_to_idle();
        assert_eq!(net.trace.records()[0].len, usize::MAX);
        assert_eq!(net.recv(b).unwrap().len(), usize::MAX);
    }

    /// The pcap holds what reached the inbox, faults applied: a corrupted
    /// delivery is captured with its flipped bit (and a duplicate twice),
    /// not left out because its trace label is not `Delivered`.
    #[test]
    fn pcap_captures_corrupted_and_duplicated_deliveries() {
        let pcap_of = |faults: FaultConfig| {
            let mut net = Network::new(1);
            net.enable_pcap();
            let (a, b) = (net.add_node(), net.add_node());
            net.add_link(
                a,
                b,
                LinkConfig {
                    faults,
                    ..Default::default()
                },
            );
            net.send(a, b, &b"captured"[..]);
            net.run_to_idle();
            net.trace.to_pcap()
        };
        let corrupted = pcap_of(FaultConfig {
            corrupt_chance: 1.0,
            ..Default::default()
        });
        assert_eq!(corrupted.len(), 24 + 16 + 8, "one record");
        let flipped: u32 = corrupted[40..]
            .iter()
            .zip(b"captured")
            .map(|(got, sent)| (got ^ sent).count_ones())
            .sum();
        assert_eq!(flipped, 1, "the sent payload with exactly one bit flipped");

        let duplicated = pcap_of(FaultConfig {
            duplicate_chance: 1.0,
            ..Default::default()
        });
        assert_eq!(duplicated.len(), 24 + 2 * (16 + 8), "original and copy");
        assert_eq!(duplicated[40..48], duplicated[64..72]);
    }

    #[test]
    fn pcap_capture_contains_delivered_payloads() {
        let mut net = Network::new(1);
        net.enable_pcap();
        let a = net.add_node();
        let b = net.add_node();
        net.add_duplex_link(a, b, LinkConfig::default());
        net.send(a, b, &b"captured"[..]);
        net.run_to_idle();
        let pcap = net.trace.to_pcap();
        assert!(pcap.len() > 24);
        assert!(pcap.windows(8).any(|w| w == b"captured"));
    }
}
