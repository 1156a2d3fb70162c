//! The deterministic discrete-event network simulator.
//!
//! Event-driven in the smoltcp spirit: no threads, no wall-clock — an
//! event queue popped in `(time, sequence)` order so identical inputs
//! replay identically. Nodes exchange datagrams over configured
//! links with latency, bandwidth-derived serialisation delay, and optional
//! fault injection. A consumer takes each delivery either as it happens,
//! lent in place by [`Network::deliver_next`], or in rounds: it runs the
//! network to quiescence with [`Network::run_to_idle`], which fills each
//! node's inbox, and then drains the inboxes with [`Network::recv`].

use std::collections::VecDeque;
use std::mem::ManuallyDrop;

use bytes::Bytes;
use teenet_crypto::SecureRng;

use crate::fault::{FaultConfig, FaultDecision, FaultInjector};
use crate::packet::{NodeId, Packet};
use crate::queue::{EventQueue, Keyed};
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
    /// [`Network::deliver_next`] (includes corrupted and duplicated copies).
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
    /// `config.bandwidth_bps`, reduced for the per-packet divide.
    rate: Option<Rate>,
    /// When the link is next free to begin serialising (FIFO queueing).
    next_free: SimTime,
    stats: LinkStats,
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

impl Keyed for Delivery {
    type Key = (SimTime, u64);

    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl Ord for Delivery {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

impl PartialOrd for Delivery {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Where [`Network::route`] sends a packet: when it arrives, over which
/// link, and what befalls it on the way.
#[derive(Clone, Copy)]
struct Route {
    at: SimTime,
    /// Position of the link in `links[src]`.
    link: u32,
    fate: Fate,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Fate {
    Clean,
    Corrupted,
    Duplicated,
    Dropped,
    /// No link `src → dst`: `at` and `link` mean nothing.
    Unrouted,
}

/// A link's bandwidth as the nanoseconds a byte takes, `10⁹ / bps`,
/// reduced by the gcd of the two once, when the link is added (10 Gbit/s,
/// 1.25 × 10⁹ bytes/s, is 4/5): a packet's divide is by a small number,
/// and the result is exactly `len · 10⁹ / bps` rounded down.
#[derive(Debug, Clone, Copy)]
struct Rate {
    num: u64,
    den: u64,
    bps: u64,
}

impl Rate {
    const NANOS: u64 = 1_000_000_000;

    /// `None` for infinite bandwidth (none configured, or zero).
    fn new(bandwidth_bps: Option<u64>) -> Option<Rate> {
        let bps = bandwidth_bps.filter(|&bps| bps > 0)?;
        let (mut a, mut b) = (Self::NANOS, bps);
        while b != 0 {
            (a, b) = (b, a % b);
        }
        Some(Rate {
            num: Self::NANOS / a,
            den: bps / a,
            bps,
        })
    }

    /// Serialisation delay of `len` bytes: `len.saturating_mul(10⁹) / bps`.
    #[inline]
    fn nanos(self, len: u64) -> u64 {
        if len <= u64::MAX / Self::NANOS {
            len * self.num / self.den
        } else {
            u64::MAX / self.bps
        }
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
    let mut label = [0u8; 12];
    label[..4].copy_from_slice(b"link");
    label[4..8].copy_from_slice(&src.0.to_le_bytes());
    label[8..].copy_from_slice(&dst.0.to_le_bytes());
    let root = root.get_or_insert_with(|| SecureRng::seed_from_u64(seed));
    Some(FaultInjector::new(faults.clone(), root.fork(&label)))
}

/// Position of the link `src → dst` in `links[src]`, if configured.
#[inline(never)]
fn link_position(links: &[Vec<(NodeId, Link)>], src: NodeId, dst: NodeId) -> Option<usize> {
    links
        .get(src.0 as usize)?
        .iter()
        .position(|(d, _)| *d == dst)
}

/// The simulated network.
pub struct Network {
    now: SimTime,
    /// Each node's inbox: packets `run_to_idle` delivered, until `recv`
    /// takes them.
    inboxes: Vec<VecDeque<Packet>>,
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
            inboxes: Vec::new(),
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
    /// the link's endpoints (`injector_for`), so re-deriving here
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
        for inbox in &mut self.inboxes {
            inbox.clear();
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
        let id = NodeId(self.inboxes.len() as u32);
        self.inboxes.push(VecDeque::new());
        id
    }

    /// Configures the unidirectional link `src → dst`, replacing any
    /// link already configured between the two.
    pub fn add_link(&mut self, src: NodeId, dst: NodeId, config: LinkConfig) {
        let link = Link {
            injector: injector_for(self.seed, &mut self.root, src, dst, &config.faults)
                .map(Box::new),
            rate: Rate::new(config.bandwidth_bps),
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
    ///
    /// Inlined into the caller, so that the payload goes from the
    /// caller's registers straight into its queue slot. Finding the link
    /// and the rare faulty delivery stay out of line.
    #[inline(always)]
    pub fn send_padded(
        &mut self,
        src: NodeId,
        dst: NodeId,
        payload: impl Into<Bytes>,
        pad: usize,
    ) -> Option<u64> {
        // Never dropped here, so no unwinding path takes its address and
        // it can stay in registers until it is written into its slot.
        let payload = ManuallyDrop::new(payload.into());
        let id = self.next_packet_id;
        self.next_packet_id += 1;
        let route = self.route(id, src, dst, payload.len().saturating_add(pad));
        let packet = move || Packet {
            id,
            src,
            dst,
            payload: ManuallyDrop::into_inner(payload),
            pad,
        };
        if route.fate != Fate::Clean {
            return self.send_faulty(route, packet());
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let delivery = move || Delivery {
            at: route.at,
            seq,
            packet: packet(),
            link: route.link,
            corrupted: false,
            duplicated: false,
        };
        match self.queue.vacancy((route.at, seq)) {
            Some(slot) => *slot = Some(delivery()),
            None => self.queue.push_to_heap(delivery()),
        }
        Some(id)
    }

    /// Everything a send does to packet `id` but queue it: traces it,
    /// counts it on its link, works out when it arrives and what befalls
    /// it on the way.
    #[inline(always)]
    fn route(&mut self, id: u64, src: NodeId, dst: NodeId, wire_len: usize) -> Route {
        let now = self.now;
        let record = |trace: &mut Trace, event| {
            if trace.is_enabled() {
                let record = TraceRecord {
                    time: now,
                    event,
                    packet_id: id,
                    src,
                    dst,
                    len: wire_len,
                };
                trace.record(record, None);
            }
        };

        let Some(link_at) = link_position(&self.links, src, dst) else {
            record(&mut self.trace, TraceEvent::Dropped);
            return Route {
                at: now,
                link: 0,
                fate: Fate::Unrouted,
            };
        };
        let link = &mut self.links[src.0 as usize][link_at].1;

        record(&mut self.trace, TraceEvent::Sent);

        link.stats.sent += 1;

        // FIFO serialisation: transmission begins when the link is free.
        let start = link.next_free.max(now);
        let serialisation = SimDuration(link.rate.map_or(0, |rate| rate.nanos(wire_len as u64)));
        link.next_free = start + serialisation;
        let mut at = start + serialisation + link.config.latency;

        let mut fate = Fate::Clean;
        if let Some(injector) = &mut link.injector {
            match injector.decide(now) {
                FaultDecision::Drop => {
                    link.stats.dropped += 1;
                    record(&mut self.trace, TraceEvent::Dropped);
                    fate = Fate::Dropped;
                }
                FaultDecision::Corrupt => {
                    fate = Fate::Corrupted;
                    link.stats.corrupted += 1;
                }
                FaultDecision::Duplicate => {
                    fate = Fate::Duplicated;
                    link.stats.duplicated += 1;
                }
                FaultDecision::Delay(extra) => {
                    at += extra;
                    link.stats.delayed += 1;
                }
                FaultDecision::Deliver => {}
            }
        }
        Route {
            at,
            link: link_at as u32,
            fate,
        }
    }

    /// The rest of [`Network::send_padded`] for a packet that is not
    /// delivered as sent: lost, corrupted or duplicated. Out of line, and
    /// handed a `Packet` built on the way here, so that the common path
    /// never lends its payload out or drops it (either would keep it in
    /// memory there). Only a corruption pays for a mutable copy of the
    /// payload; a duplicate arrives a microsecond after the original,
    /// under the next sequence number.
    #[cold]
    #[inline(never)]
    fn send_faulty(&mut self, route: Route, mut packet: Packet) -> Option<u64> {
        let corrupted = match route.fate {
            Fate::Unrouted => return None,
            Fate::Dropped => return Some(packet.id),
            fate => fate == Fate::Corrupted,
        };
        if corrupted {
            let mut bytes = packet.payload.to_vec();
            let link = &mut self.links[packet.src.0 as usize][route.link as usize].1;
            if let Some(injector) = &mut link.injector {
                injector.corrupt(&mut bytes, packet.pad);
            }
            packet.payload = Bytes::from(bytes);
        }
        let id = packet.id;
        let seq = self.next_seq;
        self.next_seq += 1 + u64::from(!corrupted);
        let mut queue = |at: SimTime, seq: u64, packet: Packet, duplicated: bool| {
            self.queue.push(Delivery {
                at,
                seq,
                packet,
                link: route.link,
                corrupted,
                duplicated,
            });
        };
        if !corrupted {
            let copy = packet.clone();
            queue(route.at + SimDuration::from_micros(1), seq + 1, copy, true);
        }
        queue(route.at, seq, packet, false);
        Some(id)
    }

    /// Takes the earliest in-flight delivery off the network: advances the
    /// clock to its arrival, traces and counts it, and lends the packet to
    /// `handle` where it lies in the queue — for an event loop dispatching
    /// on `packet.dst` itself, instead of an inbox. The packet is dropped
    /// once `handle` returns. [`Network::run_to_idle`] is this, into the
    /// inboxes.
    #[inline(always)]
    pub fn deliver_next<R>(&mut self, handle: impl FnOnce(SimTime, &Packet) -> R) -> Option<R> {
        let delivery = self.arrive()?;
        let out = handle(delivery.at, &delivery.packet);
        self.queue.discard_front();
        Some(out)
    }

    /// Advances the clock to the earliest in-flight delivery, traces it,
    /// counts it on its link and returns it, still queued.
    #[inline(always)]
    fn arrive(&mut self) -> Option<&Delivery> {
        let delivery = self.queue.front()?;
        self.now = delivery.at;
        let packet = &delivery.packet;
        if self.trace.is_enabled() {
            let event = if delivery.corrupted {
                TraceEvent::Corrupted
            } else if delivery.duplicated {
                TraceEvent::Duplicated
            } else {
                TraceEvent::Delivered
            };
            let record = TraceRecord {
                time: delivery.at,
                event,
                packet_id: packet.id,
                src: packet.src,
                dst: packet.dst,
                len: packet.len(),
            };
            self.trace.record(record, Some(packet));
        }
        self.links[packet.src.0 as usize][delivery.link as usize]
            .1
            .stats
            .delivered += 1;
        Some(delivery)
    }

    /// Processes events up to and including `until` into the destination
    /// inboxes, advancing the clock.
    fn run_until(&mut self, until: SimTime) {
        while self.next_event_at().is_some_and(|at| at <= until) {
            self.arrive();
            let Delivery { packet, .. } = self.queue.take_front().expect("arrived");
            if let Some(inbox) = self.inboxes.get_mut(packet.dst.0 as usize) {
                inbox.push_back(packet);
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

    /// Processes all queued events into the destination inboxes (runs the
    /// network to quiescence).
    pub fn run_to_idle(&mut self) {
        while let Some(at) = self.next_event_at() {
            self.run_until(at);
        }
    }

    /// Pops the oldest packet delivered to `node`'s inbox, if any.
    pub fn recv(&mut self, node: NodeId) -> Option<Packet> {
        self.inboxes.get_mut(node.0 as usize)?.pop_front()
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
        self.queue.front().map(|d| d.at)
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

    /// Everything waiting in `node`'s inbox, oldest first.
    fn drain(net: &mut Network, node: NodeId) -> Vec<Packet> {
        std::iter::from_fn(|| net.recv(node)).collect()
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
    /// delivered payloads (fault outcomes included), link totals, clock,
    /// trace volume.
    fn drive(net: &mut Network, a: NodeId, b: NodeId) -> impl PartialEq + std::fmt::Debug {
        for i in 0..50u8 {
            net.send(a, b, vec![i; 16]);
            net.run_to_idle();
        }
        let payloads: Vec<Vec<u8>> = drain(net, b).iter().map(|p| p.payload.to_vec()).collect();
        (
            payloads,
            net.fault_totals(),
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
        let at = SimTime::ZERO + SimDuration::from_millis(5);
        assert_eq!(net.next_event_at(), Some(at));
        assert!(net.recv(b).is_none(), "not yet arrived");
        net.run_to_idle();
        let p = net.recv(b).expect("delivered");
        assert_eq!(&p.payload[..], b"hello");
        assert_eq!(net.now(), at);
        assert_eq!(net.next_event_at(), None, "quiescent again");
    }

    #[test]
    fn no_link_means_drop() {
        let mut net = Network::new(1);
        let a = net.add_node();
        let b = net.add_node();
        assert_eq!(net.send(a, b, &b"x"[..]), None);
        assert_eq!(net.next_event_at(), None);
        net.run_to_idle();
        assert!(net.recv(b).is_none());
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
        let at = SimTime::ZERO + SimDuration::from_millis(2);
        assert_eq!(net.next_event_at(), Some(at));
        assert_eq!(net.deliver_next(|at, p| (at, p.len())), Some((at, 1000)));
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
        // Order preserved, one serialisation delay apart.
        let ms = |n| SimTime::ZERO + SimDuration::from_millis(n);
        assert_eq!(
            net.deliver_next(|at, p| (at, p.payload[0])),
            Some((ms(1), 1))
        );
        assert_eq!(
            net.deliver_next(|at, p| (at, p.payload[0])),
            Some((ms(2), 2))
        );
        assert_eq!(net.next_event_at(), None);
    }

    #[test]
    fn run_to_idle_delivers_everything() {
        let (mut net, a, b) = two_node_net(LinkConfig::default());
        for i in 0..10u8 {
            net.send(a, b, vec![i]);
        }
        net.run_to_idle();
        assert_eq!(drain(&mut net, b).len(), 10);
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
        assert!(net.recv(b).is_none());
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
        assert_eq!(drain(&mut net, b).len(), 2);
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
        assert_eq!(drain(&mut net, b).len(), 3);
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
            drain(&mut net, b)
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

    proptest! {
        /// Every datagram meets exactly one fate, and its link counts it.
        /// Over a link with every fault kind (rates as high as a session
        /// must survive), per packet id: a dropped packet never arrives, a
        /// duplicated one arrives twice as sent, a corrupted one once with
        /// exactly one bit flipped, and any other once as sent. The link's
        /// counters are those fates, `delivered = sent − dropped +
        /// duplicated`, and the network's totals are the one busy link's.
        #[test]
        fn link_stats_track_fault_outcomes(
            count in 1usize..200,
            drop in 0.0f64..0.35,
            corrupt in 0.0f64..0.25,
            duplicate in 0.0f64..0.25,
            reorder in 0.0f64..0.3,
            seed in 0u64..1000,
        ) {
            let mut net = Network::new(seed);
            let (a, b) = (net.add_node(), net.add_node());
            net.add_duplex_link(a, b, LinkConfig {
                faults: FaultConfig {
                    drop_chance: drop,
                    corrupt_chance: corrupt,
                    duplicate_chance: duplicate,
                    reorder_chance: reorder,
                    max_delay: SimDuration::from_millis(15),
                    rate_limit: None,
                },
                ..Default::default()
            });
            let sent: Vec<Vec<u8>> = (0..count).map(|i| vec![i as u8; 16]).collect();
            for (id, bytes) in sent.iter().enumerate() {
                prop_assert_eq!(net.send(a, b, bytes.clone()), Some(id as u64));
            }
            let mut arrived = vec![Vec::new(); count];
            while let Some((id, bytes)) = net.deliver_next(|_, p| (p.id, p.payload.to_vec())) {
                arrived[id as usize].push(bytes);
            }
            // The trace names each packet's fault, if it met one.
            let mut fates = vec![TraceEvent::Delivered; count];
            for r in net.trace.records() {
                if matches!(
                    r.event,
                    TraceEvent::Dropped | TraceEvent::Corrupted | TraceEvent::Duplicated
                ) {
                    fates[r.packet_id as usize] = r.event;
                }
            }
            let stats = net.link_stats(a, b).expect("configured");
            let mut seen = LinkStats {
                sent: count as u64,
                delayed: stats.delayed,
                ..Default::default()
            };
            for ((copies, want), fate) in arrived.iter().zip(&sent).zip(fates) {
                seen.delivered += copies.len() as u64;
                match fate {
                    TraceEvent::Dropped => {
                        prop_assert!(copies.is_empty());
                        seen.dropped += 1;
                    }
                    TraceEvent::Duplicated => {
                        prop_assert_eq!(copies, &[want.clone(), want.clone()]);
                        seen.duplicated += 1;
                    }
                    TraceEvent::Corrupted => {
                        prop_assert_eq!(copies.len(), 1);
                        let flipped: u32 = copies[0]
                            .iter()
                            .zip(want)
                            .map(|(got, sent)| (got ^ sent).count_ones())
                            .sum();
                        prop_assert_eq!((copies[0].len(), flipped), (want.len(), 1));
                        seen.corrupted += 1;
                    }
                    _ => prop_assert_eq!(copies, std::slice::from_ref(want)),
                }
            }
            prop_assert_eq!(stats, seen);
            prop_assert_eq!(stats.delivered, stats.sent - stats.dropped + stats.duplicated);
            prop_assert_eq!(net.fault_totals(), stats);
        }
    }

    /// `send_padded(header, n)` is `send(header ++ zeros(n))` with the
    /// zeros left out of memory: on a same-seed twin network, over a link
    /// with every fault kind and finite bandwidth, both deliver at the same
    /// times with the same wire lengths, link counters and clock, and the
    /// stored bytes are the materialised frame's head.
    #[test]
    fn padded_send_matches_the_materialised_frame() {
        // Every delivery due by `until`, with its arrival time.
        fn take(net: &mut Network, until: SimTime, out: &mut Vec<(SimTime, Packet)>) {
            while net.next_event_at().is_some_and(|at| at <= until) {
                out.extend(net.deliver_next(|at, p| (at, p.clone())));
            }
        }

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
        let (mut wholes, mut splits) = (Vec::new(), Vec::new());
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
                take(&mut whole, until, &mut wholes);
                take(&mut split, until, &mut splits);
                whole.advance_to(until);
                split.advance_to(until);
            }
        }
        take(&mut whole, SimTime(u64::MAX), &mut wholes);
        take(&mut split, SimTime(u64::MAX), &mut splits);
        assert_eq!(whole.now(), split.now());
        assert_eq!(whole.link_stats(a, b), split.link_stats(a2, b2));
        assert_eq!(whole.trace.records(), split.trace.records());
        let stats = split.link_stats(a2, b2).unwrap();
        assert!(stats.dropped > 0 && stats.duplicated > 0 && stats.delayed > 0);
        assert_eq!(wholes.len(), splits.len(), "one side delivered more");
        let mut in_padding = 0;
        for ((at, w), (at2, s)) in wholes.iter().zip(&splits) {
            assert_eq!((at, w.id, w.len()), (at2, s.id, s.len()));
            assert_eq!((w.pad, s.payload.len()), (0, 8));
            assert_eq!(w.payload[..8], s.payload[..]);
            // A flip in the tail of the materialised frame is the one
            // thing the padded packet cannot show.
            in_padding += usize::from(w.payload[8..].iter().any(|&x| x != 0));
        }
        assert!(in_padding > 0, "some corruption must have hit the padding");
        assert!(in_padding < stats.corrupted as usize, "and some the header");
    }

    proptest! {
        /// The reduced rate gives exactly `len.saturating_mul(10⁹) / bps`,
        /// the formula it replaces: for lengths from a few bytes up
        /// through where `len · 10⁹` saturates, at one byte a second,
        /// 10 Gbit/s, `u64::MAX` bytes a second and rates drawn at random.
        #[test]
        fn serialisation_delay_is_exact(
            len in any::<u64>(),
            bps in any::<u64>(),
            shift in 0u32..64,
        ) {
            let edge = u64::MAX / 1_000_000_000;
            let lens = [len >> shift, len, edge + (len & 3), edge - (len & 3), 0, 24];
            let rates = [1, 1_250_000_000, u64::MAX, bps.max(1), (bps >> shift).max(1)];
            for bps in rates {
                let rate = Rate::new(Some(bps)).expect("finite");
                for len in lens {
                    prop_assert_eq!(rate.nanos(len), len.saturating_mul(1_000_000_000) / bps);
                }
            }
            prop_assert!(Rate::new(Some(0)).is_none() && Rate::new(None).is_none());
            let ten_gbit = Rate::new(Some(1_250_000_000)).expect("finite");
            prop_assert_eq!((ten_gbit.num, ten_gbit.den), (4, 5));
        }

        /// `deliver_next` lends out exactly what `run_until` puts in the
        /// inboxes: on same-seed twin networks over a duplex link with
        /// every fault kind and finite bandwidth, any interleaving of
        /// sends in both directions and clock advances delivers the same
        /// `(id, dst, bytes, wire length)` sequence per node, and leaves
        /// the same link counters, clock and trace (which holds each
        /// delivery's time).
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
            let seen = |p: &Packet| (p.id, p.dst, p.payload.to_vec(), p.len());
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
                    while let Some(p) = inboxes.recv(node) {
                        want.push(seen(&p));
                    }
                }
                let round = got.len();
                while handed.next_event_at().is_some_and(|at| at <= until) {
                    let now = handed.now();
                    let (at, p) = handed.deliver_next(|at, p| (at, seen(p))).expect("peeked");
                    prop_assert!(now <= at && handed.now() == at);
                    got.push(p);
                }
                handed.advance_to(until);
                got[round..].sort_by_key(|&(_, dst, ..)| dst); // a's, then b's
                prop_assert_eq!(inboxes.now(), handed.now());
            }
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(inboxes.next_event_at().or(handed.next_event_at()), None);
            for (src, dst) in [(a, b), (b, a)] {
                prop_assert_eq!(inboxes.link_stats(src, dst), handed.link_stats(src, dst));
            }
            prop_assert_eq!(inboxes.trace.records(), handed.trace.records());
            prop_assert_eq!(inboxes.trace.to_pcap(), handed.trace.to_pcap());
        }
    }

    /// What a delivery occupies, recorded rather than minimised: the
    /// inline payload grew `Packet` from 40 bytes and `Delivery` from 64,
    /// and the replay got faster all the same. A queue slot is an
    /// `Option<Delivery>` no larger than the delivery (the flags' niche
    /// holds `None`). A header's 24 bytes sit on a word boundary inside
    /// the `Bytes`, so it is written and read as whole aligned words.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn hot_path_struct_sizes() {
        use std::mem::size_of;
        assert_eq!(size_of::<Bytes>(), 32);
        assert_eq!(size_of::<Packet>(), 56);
        assert_eq!(size_of::<Delivery>(), 80);
        assert_eq!(size_of::<Option<Delivery>>(), size_of::<Delivery>());
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
        for p in drain(&mut net, b) {
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
