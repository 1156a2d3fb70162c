//! The virtual-time load engine.
//!
//! Replays a calibrated per-session operation script ([`Calibration`])
//! against a simulated server at scale. The engine owns the driver events
//! (arrivals, service completions, retransmission timeouts) and
//! interleaves them with `teenet-netsim` deliveries via
//! [`Network::next_event_at`], so every network leg pays real latency,
//! bandwidth serialisation, FIFO queueing and (optionally) faults, while
//! service time derives from the calibrated SGX cycle cost at a fixed
//! clock rate. Everything — arrival times, fault outcomes, worker
//! assignment, event ordering — is deterministic in the seed.
//!
//! Request/response integrity: each datagram carries a checksummed header
//! `(session, op, attempt)`. Corrupted datagrams fail the check and are
//! discarded at the receiver; the client's retransmission timeout recovers
//! them, exactly like drops. The server keeps an idempotent-response
//! cache per session so a retransmitted request whose response was lost
//! does not pay the service cost twice.
//!
//! ## Frames and queues
//!
//! A frame is the 24-byte header followed by zeros up to the op's
//! calibrated size; the engine sends the header and tells `netsim` how
//! long the zeros are (`frame`), so a packet is 24 bytes stored inside the
//! `Packet` — no allocation — whatever its length on the wire. The three
//! header words go from registers into the packet's queue slot, written
//! once. A delivery is read where it lies in the network's queue
//! ([`Network::deliver_next`] lends it), not through an inbox: the engine
//! keeps its destination and decoded header, never the `Packet`. Driver
//! events pop in `(time, seq)` order from a `DriverQueue`, whose timeouts
//! skip the heap.
//!
//! ## Streaming replay
//!
//! Sessions are generated lazily from the arrival process, live in a ring
//! indexed directly by session id (`SessionRing`, as wide as the span of
//! live ids) and are retired (slot cleared) the moment they complete or
//! fail, so a later event for them misses and is dropped. Open-loop
//! arrivals are scheduled one at a time — only the next pending arrival is
//! ever queued — so driving N sessions costs O(live-id span) memory, not
//! O(N). Session identity is the global session index, carried in the
//! wire header and stored in the slot, so slot reuse is invisible to every
//! observable.
//!
//! Scheduling arrivals one ahead orders events exactly as queueing them
//! all at t=0 would: driver events order by `(time, seq)`, open-loop
//! arrival `i` is pinned to seq `i`, and the counter for every other event
//! starts at `sessions`. Arrival times strictly increase (`on_arrive`
//! asserts it), so arrival `i+1` is queued while handling arrival `i`,
//! before any event ordered after it can fire, and lazy insertion never
//! reorders the queue.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use bytes::Bytes;
use teenet_crypto::SecureRng;
use teenet_netsim::{FaultConfig, LinkConfig, Network, NodeId, Packet, SimDuration, SimTime};
use teenet_sgx::cost::CostModel;

use crate::arrival::{Arrival, ArrivalProcess};
use crate::metrics::{PhaseRollup, RunMetrics};
use crate::report::RunReport;
use crate::scenario::Calibration;

/// How load is injected.
#[derive(Debug, Clone, Copy)]
pub enum LoadMode {
    /// Open loop: Poisson arrivals. `rate_per_sec = None` auto-targets
    /// ~50% of the server's calibrated service capacity.
    Open {
        /// Arrival rate; `None` = auto from calibrated capacity.
        rate_per_sec: Option<f64>,
    },
    /// Closed loop: a fixed number of sessions in flight.
    Closed {
        /// Concurrent in-flight sessions.
        concurrency: u32,
    },
}

/// Knobs of one load run.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Total sessions to drive.
    pub sessions: u64,
    /// Seed for arrivals and link faults.
    pub seed: u64,
    /// Open or closed loop.
    pub mode: LoadMode,
    /// Parallel service workers at the server (enclave worker threads).
    pub workers: u32,
    /// Distinct client nodes (sessions round-robin across them, each with
    /// its own link, so unrelated sessions don't serialise behind each
    /// other at the sender).
    pub clients: u32,
    /// One-way link propagation latency.
    pub latency: SimDuration,
    /// Link bandwidth in bytes/second (`None` = infinite).
    pub bandwidth_bps: Option<u64>,
    /// Fault injection applied to every link.
    pub faults: FaultConfig,
    /// Server clock rate used to convert calibrated cycles to service
    /// time.
    pub clock_hz: u64,
    /// Retransmission timeout (`None` = derived from latency and the
    /// slowest calibrated op).
    pub timeout: Option<SimDuration>,
    /// Retransmissions before a session is abandoned.
    pub max_retries: u32,
}

impl LoadConfig {
    /// A config with sensible defaults for `sessions` under `mode`.
    pub fn new(sessions: u64, seed: u64, mode: LoadMode) -> Self {
        LoadConfig {
            sessions,
            seed,
            mode,
            workers: 4,
            clients: 8,
            latency: SimDuration::from_micros(500),
            bandwidth_bps: Some(1_250_000_000), // 10 Gbit/s
            faults: FaultConfig::default(),
            clock_hz: 3_000_000_000,
            timeout: None,
            max_retries: 8,
        }
    }
}

/// Driver-side events, interleaved with network deliveries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    Arrive { session: u64 },
    ServiceDone { session: u64, op: u32 },
    Timeout { session: u64, op: u32, attempt: u32 },
}

#[derive(PartialEq, Eq)]
struct DriverEvent {
    at: SimTime,
    seq: u64,
    ev: Ev,
}

impl Ord for DriverEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl PartialOrd for DriverEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The engine's pending driver events, popped in `(at, seq)` order.
///
/// Retransmission timeouts are the bulk of the events and are born sorted:
/// every one is pushed at `now + timeout` with `now` non-decreasing, the
/// timeout fixed for the engine's life and `seq` increasing, so their push
/// order *is* their `(at, seq)` order and a FIFO holds them. Everything
/// else (arrivals, service completions) goes through the heap. The next
/// event is the smaller of the two heads — the exact order one heap of all
/// events pops in, without two O(log n) sifts per request for a timeout
/// that nearly always expires stale.
#[derive(Default)]
struct DriverQueue {
    heap: BinaryHeap<Reverse<DriverEvent>>,
    timeouts: VecDeque<DriverEvent>,
}

impl DriverQueue {
    fn push(&mut self, event: DriverEvent) {
        if matches!(event.ev, Ev::Timeout { .. }) {
            debug_assert!(
                self.timeouts.back().is_none_or(|last| *last < event),
                "timeouts must be pushed in (at, seq) order"
            );
            self.timeouts.push_back(event);
        } else {
            self.heap.push(Reverse(event));
        }
    }

    /// When the next event fires.
    fn next_at(&self) -> Option<SimTime> {
        let heap = self.heap.peek().map(|Reverse(e)| e.at);
        let fifo = self.timeouts.front().map(|e| e.at);
        heap.into_iter().chain(fifo).min()
    }

    fn pop(&mut self) -> Option<DriverEvent> {
        let fifo_first = match (self.heap.peek(), self.timeouts.front()) {
            (Some(Reverse(h)), Some(t)) => t < h,
            (None, _) => true,
            (Some(_), None) => false,
        };
        if fifo_first {
            self.timeouts.pop_front()
        } else {
            self.heap.pop().map(|Reverse(e)| e)
        }
    }

    fn len(&self) -> usize {
        self.heap.len() + self.timeouts.len()
    }

    fn clear(&mut self) {
        self.heap.clear();
        self.timeouts.clear();
    }
}

#[derive(Debug, Clone, Copy)]
struct Session {
    arrived_at: SimTime,
    client: NodeId,
    /// Current op index into the calibration script.
    op: u32,
    /// Retransmission attempt of the current op.
    attempt: u32,
    /// Highest op the server has fully serviced (`None` = none yet).
    serviced_through: Option<u32>,
    /// Op currently occupying a worker, if any.
    in_service: Option<u32>,
}

/// Wire header: session (8) + op (4) + attempt (4) + checksum (8).
pub(crate) const HEADER_LEN: usize = 24;

/// FNV-1a's xor-multiply folded over `data`: bytes (`ShardPlan::session_seed`)
/// or, for the header checksum, its two 64-bit words. Each step is a
/// bijection of the sum and of the item, so a change confined to one word —
/// the single bit a corruption fault flips — always changes the sum.
pub(crate) fn fnv1a<T: Copy + Into<u64>>(data: &[T]) -> u64 {
    data.iter().fold(0xcbf2_9ce4_8422_2325, |h, &item| {
        (h ^ item.into()).wrapping_mul(0x1000_0000_01b3)
    })
}

/// A frame of `bytes` on the wire (never less than a header) for
/// `(session, op, attempt)`: the header, and how many zeros follow it.
/// Nothing reads the zeros and the checksum does not cover them, so they
/// travel as padding `netsim` accounts for without storing. The header's
/// three words are written once, little-endian, into the `Bytes`' own
/// aligned storage.
fn frame(session: u64, op: u32, attempt: u32, bytes: usize) -> (Bytes, usize) {
    let words = [session, u64::from(op) | u64::from(attempt) << 32];
    let header = Bytes::from_le_words([words[0], words[1], fnv1a(&words)]);
    (header, bytes.max(HEADER_LEN) - HEADER_LEN)
}

/// What the engine reads of a delivered frame: where it went, and its
/// header `(session, op, attempt)` unless the checksum fails.
type Rx = (NodeId, Option<(u64, u32, u32)>);

fn decode(buf: &[u8]) -> Option<(u64, u32, u32)> {
    let header: &[u8; HEADER_LEN] = buf.first_chunk()?;
    let word = |at: usize| u64::from_le_bytes(*header[at..].first_chunk().expect("in range"));
    let (session, op_attempt, sum) = (word(0), word(8), word(16));
    (fnv1a(&[session, op_attempt]) == sum).then_some((
        session,
        op_attempt as u32,
        (op_attempt >> 32) as u32,
    ))
}

/// Peak-resource diagnostics of one engine run. Never part of the
/// [`RunReport`]; used by the retirement and heap-bound regression tests
/// and by callers that want to confirm a run stayed O(live sessions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Most sessions ever live at once: live ring entries, bounded by
    /// concurrency + in-flight arrivals.
    pub peak_live_sessions: u64,
    /// Most driver events (arrivals, service completions, timeouts) ever
    /// queued at once, heap and timeout queue together. Open loop holds a
    /// single pending arrival plus O(live) timeouts.
    pub peak_heap_events: u64,
    /// Session slots the ring ends the run with: its capacity, a power of
    /// two covering the widest span of live ids.
    pub slots_allocated: u64,
}

/// Live sessions by direct index: session `id` lives in slot
/// `id & (capacity - 1)`, which also holds the id, so a lookup is one index
/// and one compare and retiring clears the slot. The engine issues ids
/// densely and in increasing order, so the live ones span a short window
/// and rarely meet; when a new id lands on a live slot the ring doubles and
/// re-places its sessions. Doubling keeps distinct slots distinct (the
/// wider mask still separates ids the narrower one did), so the ring holds
/// O(span of live ids) slots. Ids decoded off the wire are only looked up.
struct SessionRing {
    /// Always a power of two long.
    slots: Vec<Option<(u64, Session)>>,
    live: u64,
}

impl SessionRing {
    fn with_capacity(capacity: usize) -> Self {
        SessionRing {
            slots: vec![None; capacity.next_power_of_two()],
            live: 0,
        }
    }

    fn slot(&self, id: u64) -> usize {
        (id & (self.slots.len() as u64 - 1)) as usize
    }

    /// Inserts a newly arrived session; returns the live count after.
    fn insert(&mut self, id: u64, sess: Session) -> u64 {
        while let Some((held, _)) = self.slots[self.slot(id)] {
            assert_ne!(held, id, "a session id is issued once");
            let wider = vec![None; 2 * self.slots.len()];
            let old = std::mem::replace(&mut self.slots, wider);
            for (held, sess) in old.into_iter().flatten() {
                let at = self.slot(held);
                self.slots[at] = Some((held, sess));
            }
        }
        let at = self.slot(id);
        self.slots[at] = Some((id, sess));
        self.live += 1;
        self.live
    }

    fn get_mut(&mut self, id: u64) -> Option<&mut Session> {
        let at = self.slot(id);
        match &mut self.slots[at] {
            Some((held, sess)) if *held == id => Some(sess),
            _ => None,
        }
    }

    /// Drops a finished session: events that look its id up afterwards
    /// miss and are dropped as stale.
    fn retire(&mut self, id: u64) {
        let at = self.slot(id);
        if matches!(self.slots[at], Some((held, _)) if held == id) {
            self.slots[at] = None;
            self.live -= 1;
        }
    }

    fn clear(&mut self) {
        self.slots.fill(None);
        self.live = 0;
    }
}

/// The load engine. Construct with a [`LoadConfig`], then [`LoadRunner::run`]
/// a calibrated scenario script through it.
pub struct LoadRunner {
    config: LoadConfig,
}

pub(crate) struct Engine<'a> {
    cfg: &'a LoadConfig,
    cal: &'a Calibration,
    model: &'a CostModel,
    net: Network,
    server: NodeId,
    client_nodes: Vec<NodeId>,
    queue: DriverQueue,
    next_seq: u64,
    /// Scratch for [`Engine::step_network`]: one instant's deliveries.
    batch: Vec<Rx>,
    table: SessionRing,
    arrivals: ArrivalProcess,
    /// Earliest-free time per service worker.
    workers: Vec<SimTime>,
    /// Service time of each op of the script at this run's clock rate.
    service: Vec<SimDuration>,
    timeout: SimDuration,
    /// Every outcome accumulator, extracted into one mergeable value so
    /// the sharded runner can combine per-shard engines.
    metrics: RunMetrics,
    stats: EngineStats,
}

impl LoadRunner {
    /// A runner for `config`. The cost model is not fixed here: each run
    /// prices cycles with the model of the calibration's TEE backend
    /// ([`Calibration::cost_model`]).
    pub fn new(config: LoadConfig) -> Self {
        LoadRunner { config }
    }

    pub(crate) fn config(&self) -> &LoadConfig {
        &self.config
    }

    /// Drives `calibration`'s per-session script under this runner's
    /// config and returns the full report.
    /// `scenario` names the run. Memory is O(live sessions), not
    /// O(`sessions`).
    pub fn run(&self, scenario: &str, calibration: &Calibration) -> RunReport {
        self.run_with_stats(scenario, calibration).0
    }

    /// [`LoadRunner::run`], also returning the engine's peak-resource
    /// diagnostics (never part of the report).
    pub fn run_with_stats(
        &self,
        scenario: &str,
        calibration: &Calibration,
    ) -> (RunReport, EngineStats) {
        assert!(
            !calibration.ops.is_empty(),
            "calibration must contain at least one op"
        );
        let cfg = &self.config;
        let model = calibration.cost_model();
        let mut engine = Engine::new(cfg, calibration, &model);
        engine.prime();
        engine.drain();
        let stats = engine.stats();
        (engine.into_report(scenario, cfg), stats)
    }
}

/// The seq the counter for non-arrival events starts at: open-loop
/// arrival `i` is pinned to seq `i`, so an open loop's counter starts past
/// the arrival block; a closed loop numbers its arrivals from the counter.
fn first_seq(cfg: &LoadConfig) -> u64 {
    match cfg.mode {
        LoadMode::Open { .. } => cfg.sessions,
        LoadMode::Closed { .. } => 0,
    }
}

impl<'a> Engine<'a> {
    /// A ring of live sessions and (open loop) one-ahead arrival
    /// scheduling. A closed loop's first ring holds its concurrency (capped
    /// by the run's sessions); an open loop's starts at one slot and grows
    /// to the span its arrivals reach.
    pub(crate) fn new(cfg: &'a LoadConfig, cal: &'a Calibration, model: &'a CostModel) -> Self {
        let first = match cfg.mode {
            LoadMode::Closed { concurrency } => u64::from(concurrency).min(cfg.sessions),
            LoadMode::Open { .. } => 1,
        };
        let first = usize::try_from(first.max(1)).expect("at most a u32 concurrency");
        let mut net = Network::new(cfg.seed ^ 0x6e65_7473_696d); // "netsim"

        // The engine never reads the packet trace; recording it would be
        // the one remaining O(total packets) buffer in a streaming run.
        net.set_tracing(false);
        let server = net.add_node();
        let clients = cfg.clients.max(1);
        let link = LinkConfig {
            latency: cfg.latency,
            bandwidth_bps: cfg.bandwidth_bps,
            faults: cfg.faults.clone(),
        };
        let client_nodes: Vec<NodeId> = (0..clients)
            .map(|_| {
                let c = net.add_node();
                net.add_duplex_link(c, server, link.clone());
                c
            })
            .collect();

        // Retransmission timeout: a full round trip plus the slowest op's
        // service time, with 4× headroom for queueing, unless pinned.
        let service: Vec<SimDuration> = cal
            .ops
            .iter()
            .map(|op| SimDuration(op.service_nanos(model, cfg.clock_hz)))
            .collect();
        let slowest_op = service.iter().max().map_or(0, |d| d.as_nanos());
        let timeout = cfg.timeout.unwrap_or_else(|| {
            SimDuration(
                cfg.latency
                    .as_nanos()
                    .saturating_mul(2)
                    .saturating_add(slowest_op)
                    .saturating_mul(4)
                    .max(1_000_000),
            )
        });

        Engine {
            cfg,
            cal,
            model,
            net,
            server,
            client_nodes,
            queue: DriverQueue::default(),
            next_seq: first_seq(cfg),
            batch: Vec::new(),
            table: SessionRing::with_capacity(first),
            arrivals: arrival_process(cfg, cal, model, cfg.seed),
            workers: vec![SimTime::ZERO; cfg.workers.max(1) as usize],
            service,
            timeout,
            metrics: RunMetrics::new(),
            stats: EngineStats::default(),
        }
    }

    pub(crate) fn stats(&self) -> EngineStats {
        EngineStats {
            slots_allocated: self.table.slots.len() as u64,
            ..self.stats
        }
    }

    fn push_raw(&mut self, at: SimTime, seq: u64, ev: Ev) {
        self.queue.push(DriverEvent { at, seq, ev });
        self.stats.peak_heap_events = self.stats.peak_heap_events.max(self.queue.len() as u64);
    }

    fn push(&mut self, at: SimTime, ev: Ev) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push_raw(at, seq, ev);
    }

    /// Schedules the next open-loop arrival: exactly one pending arrival in
    /// the heap at any time, pinned to seq = index. Returns when it fires.
    fn schedule_next_arrival(&mut self) -> Option<SimTime> {
        let (idx, at) = self.arrivals.next_arrival()?;
        self.push_raw(at, idx, Ev::Arrive { session: idx });
        Some(at)
    }

    /// Queues the initial arrivals. Open loop: only the first (each
    /// arrival schedules its successor). Closed loop: the initial batch
    /// (O(concurrency)) the arrival process hands out up front.
    pub(crate) fn prime(&mut self) {
        if matches!(self.cfg.mode, LoadMode::Open { .. }) {
            self.schedule_next_arrival();
        } else {
            while let Some((idx, at)) = self.arrivals.next_arrival() {
                self.push(at, Ev::Arrive { session: idx });
            }
        }
    }

    /// The main event loop: repeatedly handle whichever comes first — the
    /// next network delivery or the next driver event. Network wins ties
    /// so a response arriving at time t beats a timeout firing at t.
    pub(crate) fn drain(&mut self) {
        loop {
            let drv = self.queue.next_at();
            let net = self.net.next_event_at();
            match (drv, net) {
                (None, None) => break,
                (Some(d), Some(n)) if n <= d => self.step_network(),
                (None, Some(_)) => self.step_network(),
                (Some(d), _) => self.step_driver(d),
            }
        }
    }

    /// Takes the earliest delivery off the network and handles it — alone,
    /// nearly always. When more are due at the same instant they all leave
    /// the network before any handler runs (a handler's zero-delay send
    /// opens a new batch) and are handled the server's first, then each
    /// client's in node order, a node's own in arrival order: `(dst, seq)`
    /// order, the server being the first node added. The most that land
    /// on the server in one batch is `max_server_queue`.
    fn step_network(&mut self) {
        let read = |at, packet: &Packet| (at, (packet.dst, decode(&packet.payload)));
        let Some((at, first)) = self.net.deliver_next(read) else {
            return;
        };
        let mut at_server = usize::from(first.0 == self.server);
        if self.net.next_event_at() != Some(at) {
            self.receive(at, first);
        } else {
            let mut batch = std::mem::take(&mut self.batch);
            batch.push(first);
            while self.net.next_event_at() == Some(at) {
                batch.extend(self.net.deliver_next(read).map(|(_, rx)| rx));
            }
            batch.sort_by_key(|&(dst, _)| dst); // stable: keeps seq order
            at_server = batch.iter().filter(|(dst, _)| *dst == self.server).count();
            for rx in batch.drain(..) {
                self.receive(at, rx);
            }
            self.batch = batch;
        }
        self.metrics.max_server_queue = self.metrics.max_server_queue.max(at_server as u64);
    }

    /// A frame that fails its checksum is discarded and counted.
    fn receive(&mut self, at: SimTime, (dst, header): Rx) {
        match header {
            Some((s, op, _)) if dst == self.server => self.on_request(at, s, op),
            Some((s, op, _)) => self.on_response(at, s, op),
            None => self.metrics.corrupt_rx += 1,
        }
    }

    fn step_driver(&mut self, at: SimTime) {
        self.net.advance_to(at);
        let Some(event) = self.queue.pop() else {
            return;
        };
        match event.ev {
            Ev::Arrive { session } => self.on_arrive(at, session),
            Ev::ServiceDone { session, op } => self.on_service_done(session, op),
            Ev::Timeout {
                session,
                op,
                attempt,
            } => self.on_timeout(at, session, op, attempt),
        }
    }

    fn on_arrive(&mut self, at: SimTime, session: u64) {
        if matches!(self.cfg.mode, LoadMode::Open { .. }) {
            // One-ahead scheduling keeps the queue's order only because
            // the arrival it queues lies strictly after this one.
            let next = self.schedule_next_arrival();
            debug_assert!(
                next.is_none_or(|next| next > self.net.now()),
                "open-loop arrivals must strictly increase"
            );
        }
        let sess = Session {
            arrived_at: at,
            client: self.client_nodes[(session % self.client_nodes.len() as u64) as usize],
            op: 0,
            attempt: 0,
            serviced_through: None,
            in_service: None,
        };
        let live = self.table.insert(session, sess);
        self.stats.peak_live_sessions = self.stats.peak_live_sessions.max(live);
        self.send_request(session, sess.client, 0, 0);
    }

    /// Transmits attempt `attempt` at op `op` of `session` from `client`
    /// and arms its retransmission timeout. Every handler resolves its
    /// session in the table once and hands on the fields it read there.
    fn send_request(&mut self, session: u64, client: NodeId, op: u32, attempt: u32) {
        let profile = &self.cal.ops[op as usize];
        if attempt == 0 {
            self.metrics.steady_client.fold(profile.client);
        }
        let (header, pad) = frame(session, op, attempt, profile.request_bytes as usize);
        self.net.send_padded(client, self.server, header, pad);
        self.push(
            self.net.now() + self.timeout,
            Ev::Timeout {
                session,
                op,
                attempt,
            },
        );
    }

    fn on_request(&mut self, at: SimTime, session: u64, op: u32) {
        // A miss is a session not yet arrived (stray bytes) or already
        // retired — either way the datagram is stale and dropped.
        let Some(sess) = self.table.get_mut(session) else {
            return;
        };
        if op != sess.op {
            return; // stale or duplicate of a finished op
        }
        if sess.in_service == Some(op) {
            return; // duplicate while a worker is already on it
        }
        if sess.serviced_through.is_some_and(|t| t >= op) {
            // Serviced before but the response was lost: resend from the
            // idempotent cache without paying the service cost again.
            let client = sess.client;
            self.send_response(client, session, op);
            return;
        }
        sess.in_service = Some(op);
        // Earliest-free worker, the first (lowest index) among equals.
        let worker = self
            .workers
            .iter_mut()
            .min_by_key(|free_at| **free_at)
            .expect("workers is non-empty");
        let done_at = (*worker).max(at) + self.service[op as usize];
        *worker = done_at;
        let profile = &self.cal.ops[op as usize];
        self.metrics.steady_server.fold(profile.server);
        self.metrics.transitions.merge(profile.transitions);
        self.push(done_at, Ev::ServiceDone { session, op });
    }

    fn on_service_done(&mut self, session: u64, op: u32) {
        let Some(sess) = self.table.get_mut(session) else {
            return; // session retired while the op was in service
        };
        sess.in_service = None;
        sess.serviced_through = Some(op);
        let client = sess.client;
        self.send_response(client, session, op);
    }

    fn send_response(&mut self, client: NodeId, session: u64, op: u32) {
        let bytes = self.cal.ops[op as usize].response_bytes as usize;
        let (header, pad) = frame(session, op, 0, bytes);
        self.net.send_padded(self.server, client, header, pad);
    }

    fn on_response(&mut self, at: SimTime, session: u64, op: u32) {
        let Some(sess) = self.table.get_mut(session) else {
            return; // response to a retired session
        };
        if op != sess.op {
            return; // duplicate or stale response
        }
        sess.op += 1;
        sess.attempt = 0;
        if (sess.op as usize) < self.cal.ops.len() {
            let (client, op) = (sess.client, sess.op);
            self.send_request(session, client, op, 0);
            return;
        }
        let took = at - sess.arrived_at;
        self.metrics.latency.record(took.as_nanos());
        self.metrics.completed += 1;
        self.metrics.last_done_ns = self.metrics.last_done_ns.max(at.as_nanos());
        self.next_closed_loop_arrival(at);
        self.table.retire(session);
    }

    fn on_timeout(&mut self, at: SimTime, session: u64, op: u32, attempt: u32) {
        let Some(sess) = self.table.get_mut(session) else {
            return; // timeout outlived its (retired) session
        };
        if sess.op != op || sess.attempt != attempt {
            return; // op already progressed; timeout is stale
        }
        if attempt < self.cfg.max_retries {
            self.metrics.retries += 1;
            sess.attempt = attempt + 1;
            let client = sess.client;
            self.send_request(session, client, op, attempt + 1);
            return;
        }
        self.metrics.failed += 1;
        self.metrics.last_done_ns = self.metrics.last_done_ns.max(at.as_nanos());
        self.next_closed_loop_arrival(at);
        self.table.retire(session);
    }

    /// Closed loop replaces each finished session with a new arrival.
    fn next_closed_loop_arrival(&mut self, at: SimTime) {
        if let Some((idx, when)) = self.arrivals.completion_arrival(at) {
            self.push(when, Ev::Arrive { session: idx });
        }
    }

    /// Ends a drained run — the serial engine's whole run, or one session
    /// of a pooled shard engine: folds the network's fault totals into the
    /// accumulated metrics and returns the virtual time the last session
    /// resolved at, zeroing it so a
    /// [`Engine::reset_for_session`]-rewound engine keeps accumulating
    /// into the same metrics with a per-session end time.
    pub(crate) fn finish_session(&mut self) -> u64 {
        self.metrics.net.merge(&self.net.fault_totals());
        std::mem::take(&mut self.metrics.last_done_ns)
    }

    /// Everything accumulated up to the last [`Engine::finish_session`].
    pub(crate) fn into_metrics(self) -> RunMetrics {
        self.metrics
    }

    /// Rewinds the engine to the state [`Engine::new`] would produce for
    /// this config with its seed replaced by `seed`, reusing every
    /// allocation: the network topology, the session ring, and the event
    /// queues' backing storage. The metrics are *not* rewound: they keep
    /// accumulating across sessions. The per-session seed is a
    /// parameter because the sharded replay derives it per index while
    /// the borrowed config's own seed stays the run seed.
    pub(crate) fn reset_for_session(&mut self, seed: u64) {
        self.net.reset(seed ^ 0x6e65_7473_696d); // "netsim", as in build()
        self.queue.clear();
        self.next_seq = first_seq(self.cfg);
        // Drained runs retire every session, but a defensive sweep keeps a
        // partially drained engine from leaking live slots into the next
        // session.
        self.table.clear();
        match self.cfg.mode {
            // A closed loop hands out indices only; it never drew from
            // its RNG, so rewinding the counters is the whole reset.
            LoadMode::Closed { .. } => self.arrivals.rewind(),
            LoadMode::Open { .. } => {
                self.arrivals = arrival_process(self.cfg, self.cal, self.model, seed);
            }
        }
        for w in &mut self.workers {
            *w = SimTime::ZERO;
        }
    }

    fn into_report(mut self, scenario: &str, cfg: &LoadConfig) -> RunReport {
        self.metrics.last_done_ns = self.finish_session();
        report_from_metrics(scenario, cfg, self.cal, self.model, self.metrics)
    }
}

/// Assembles the byte-stable [`RunReport`] from finished run metrics —
/// shared by the serial engine and the sharded runner, so both paths
/// format one identical way.
pub(crate) fn report_from_metrics(
    scenario: &str,
    cfg: &LoadConfig,
    cal: &Calibration,
    model: &CostModel,
    metrics: RunMetrics,
) -> RunReport {
    let duration_ns = metrics.last_done_ns.max(1);
    let throughput = metrics.completed as f64 / (duration_ns as f64 / 1e9);
    let mut calibration_phase = PhaseRollup::new("calibration");
    calibration_phase.fold(cal.setup);
    let mut total = calibration_phase.counters;
    total.merge(metrics.steady_client.counters);
    total.merge(metrics.steady_server.counters);
    let total_cycles = total.cycles(model);
    let (mode, rate, concurrency) = match cfg.mode {
        LoadMode::Open { .. } => ("open", effective_rate(cfg, cal, model), 0u32),
        LoadMode::Closed { concurrency } => ("closed", 0.0, concurrency.max(1)),
    };
    RunReport {
        scenario: scenario.to_string(),
        mode: mode.to_string(),
        transition_mode: cal.mode.as_str().to_string(),
        backend: cal.backend,
        seed: cfg.seed,
        rate_per_sec: rate,
        concurrency,
        sessions: cfg.sessions,
        completed: metrics.completed,
        failed: metrics.failed,
        retries: metrics.retries,
        corrupt_rx: metrics.corrupt_rx,
        duration_ns,
        throughput_per_sec: throughput,
        latency: metrics.latency,
        net: metrics.net,
        max_server_queue: metrics.max_server_queue,
        phases: vec![
            calibration_phase,
            metrics.steady_client,
            metrics.steady_server,
        ],
        total,
        total_cycles,
        transitions: metrics.transitions,
        switchless_workers: cal.switchless.workers.max(1),
    }
}

/// The open-loop arrival rate: the configured one, or 50% of the server's
/// calibrated service capacity (`workers / per-session busy time`).
pub(crate) fn effective_rate(cfg: &LoadConfig, cal: &Calibration, model: &CostModel) -> f64 {
    match cfg.mode {
        LoadMode::Open {
            rate_per_sec: Some(r),
        } => r,
        LoadMode::Open { rate_per_sec: None } => {
            let busy_ns = cal.session_service_nanos(model, cfg.clock_hz);
            if busy_ns == 0 {
                1_000.0
            } else {
                0.5 * cfg.workers.max(1) as f64 / (busy_ns as f64 / 1e9)
            }
        }
        LoadMode::Closed { .. } => 0.0,
    }
}

/// The arrival process of a run of `cfg` whose seed is `seed` (the
/// sharded replay substitutes a per-session seed).
pub(crate) fn arrival_process(
    cfg: &LoadConfig,
    cal: &Calibration,
    model: &CostModel,
    seed: u64,
) -> ArrivalProcess {
    let kind = match cfg.mode {
        LoadMode::Open { .. } => Arrival::OpenLoop {
            rate_per_sec: effective_rate(cfg, cal, model),
        },
        LoadMode::Closed { concurrency } => Arrival::ClosedLoop {
            concurrency: concurrency.max(1),
        },
    };
    let rng = SecureRng::seed_from_u64(seed).fork(b"arrivals");
    ArrivalProcess::new(kind, cfg.sessions, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::OpProfile;
    use proptest::prelude::*;
    use teenet_sgx::cost::Counters;
    use teenet_sgx::TransitionStats;

    fn c(sgx: u64, normal: u64) -> Counters {
        Counters {
            sgx_instr: sgx,
            normal_instr: normal,
        }
    }

    /// A synthetic two-op script: a cheap handshake then a pricier body.
    fn toy_calibration() -> Calibration {
        Calibration {
            setup: c(10, 1_000_000),
            ops: vec![
                OpProfile {
                    name: "hello",
                    client: c(0, 50_000),
                    server: c(4, 500_000),
                    request_bytes: 128,
                    response_bytes: 64,
                    transitions: TransitionStats {
                        taken: 2,
                        elided: 0,
                        fallbacks: 0,
                        idle_spins: 0,
                    },
                },
                OpProfile {
                    name: "work",
                    client: c(0, 10_000),
                    server: c(8, 2_000_000),
                    request_bytes: 256,
                    response_bytes: 1024,
                    transitions: TransitionStats {
                        taken: 4,
                        elided: 0,
                        fallbacks: 0,
                        idle_spins: 0,
                    },
                },
            ],
            mode: Default::default(),
            backend: teenet_sgx::TeeBackend::Sgx,
            switchless: Default::default(),
        }
    }

    #[test]
    fn open_loop_completes_all_sessions() {
        let cfg = LoadConfig::new(200, 7, LoadMode::Open { rate_per_sec: None });
        let report = LoadRunner::new(cfg).run("toy", &toy_calibration());
        assert_eq!(report.completed, 200);
        assert_eq!(report.failed, 0);
        assert_eq!(report.latency.count(), 200);
        assert!(report.throughput_per_sec > 0.0);
        // Each session = 2 requests + 2 responses on clean links.
        assert_eq!(report.net.sent, 800);
        assert_eq!(report.net.delivered, 800);
        // Server phase folded both ops per session.
        let server = report
            .phases
            .iter()
            .find(|p| p.name == "steady.server")
            .unwrap();
        assert_eq!(server.ops, 400);
        assert_eq!(server.counters.sgx_instr, 200 * 12);
        // Transition stats accumulate per serviced op: 2 + 4 pairs/session.
        assert_eq!(report.transitions.taken, 200 * 6);
        assert_eq!(report.transitions.elided, 0);
        assert_eq!(report.transition_mode, "classic");
    }

    /// Locks in the documented tie-break: "network wins ties so a response
    /// arriving at time t beats a timeout firing at t". With zero service
    /// time, latency L and timeout exactly 2L, both events land on the
    /// identical `SimTime`; the response must win, so the session completes
    /// with no retransmission and exactly one request/response pair on the
    /// wire. (An inverted tie-break would fire the timeout first and
    /// resend: retries = 1, sent = 3.)
    #[test]
    fn response_at_t_beats_timeout_at_t() {
        let mut cfg = LoadConfig::new(1, 1, LoadMode::Closed { concurrency: 1 });
        cfg.latency = SimDuration::from_millis(1);
        cfg.bandwidth_bps = None; // delivery at exactly send + latency
        cfg.timeout = Some(SimDuration(2_000_000)); // exactly one round trip
        let cal = Calibration {
            setup: c(0, 0),
            ops: vec![OpProfile {
                name: "ping",
                client: c(0, 0),
                server: c(0, 0), // zero service time: response at t = 2L
                request_bytes: 64,
                response_bytes: 64,
                transitions: TransitionStats::default(),
            }],
            mode: Default::default(),
            backend: teenet_sgx::TeeBackend::Sgx,
            switchless: Default::default(),
        };
        let report = LoadRunner::new(cfg).run("tie", &cal);
        assert_eq!(report.completed, 1);
        assert_eq!(report.retries, 0, "timeout at t must lose to response at t");
        assert_eq!(report.net.sent, 2, "no duplicate retransmission");
        assert_eq!(report.net.delivered, 2);
    }

    /// A link latency past half the clock made the derived timeout's round
    /// trip overflow: a panic in debug builds, a wrap to a tiny timeout
    /// and spurious retransmits in release. It now saturates, the response
    /// lands at the clock's last instant and beats the timeout there.
    #[test]
    fn a_latency_past_half_the_clock_saturates_the_derived_timeout() {
        let mut cfg = LoadConfig::new(1, 1, LoadMode::Closed { concurrency: 1 });
        cfg.latency = SimDuration(u64::MAX / 2);
        let toy = toy_calibration();
        let cal = Calibration {
            ops: toy.ops[..1].to_vec(),
            ..toy
        };
        let report = LoadRunner::new(cfg).run("far", &cal);
        assert_eq!((report.completed, report.failed, report.retries), (1, 0, 0));
    }

    /// A pinned timeout of the longest duration used to overflow `now +
    /// timeout` at the second request (a time in the past, in release).
    /// It now saturates, so both ops complete with no retransmission.
    #[test]
    fn a_timeout_of_the_longest_duration_saturates() {
        let mut cfg = LoadConfig::new(1, 1, LoadMode::Closed { concurrency: 1 });
        cfg.timeout = Some(SimDuration::from_secs(u64::MAX));
        let report = LoadRunner::new(cfg).run("patient", &toy_calibration());
        assert_eq!((report.completed, report.failed, report.retries), (1, 0, 0));
        assert_eq!(report.net.sent, 4);
    }

    #[test]
    fn closed_loop_completes_all_sessions() {
        let cfg = LoadConfig::new(150, 3, LoadMode::Closed { concurrency: 16 });
        let report = LoadRunner::new(cfg).run("toy", &toy_calibration());
        assert_eq!(report.completed, 150);
        assert_eq!(report.failed, 0);
        assert_eq!(report.concurrency, 16);
    }

    #[test]
    fn latency_includes_network_and_service() {
        // One session, no queueing: latency = 2 round trips + service.
        let mut cfg = LoadConfig::new(1, 1, LoadMode::Closed { concurrency: 1 });
        cfg.latency = SimDuration::from_millis(1);
        cfg.bandwidth_bps = None;
        let cal = toy_calibration();
        let model = CostModel::paper();
        let service: u64 = cal.session_service_nanos(&model, cfg.clock_hz);
        let report = LoadRunner::new(cfg).run("toy", &cal);
        let expect = 4 * 1_000_000 + service;
        let got = report.latency.max();
        // Histogram bucketing gives ≤ 1/32 relative error.
        assert!(
            got >= expect && got <= expect + expect / 32 + 1,
            "got {got}, expect {expect}"
        );
    }

    #[test]
    fn faulty_links_recover_via_retransmission() {
        let mut cfg = LoadConfig::new(80, 11, LoadMode::Open { rate_per_sec: None });
        cfg.faults = FaultConfig {
            drop_chance: 0.08,
            corrupt_chance: 0.05,
            duplicate_chance: 0.05,
            ..Default::default()
        };
        let report = LoadRunner::new(cfg).run("toy", &toy_calibration());
        assert_eq!(
            report.completed + report.failed,
            80,
            "every session resolves"
        );
        assert!(report.completed >= 78, "retries recover most faults");
        assert!(report.retries > 0, "faults actually fired");
        assert!(report.net.dropped > 0);
    }

    #[test]
    fn same_seed_byte_identical_reports() {
        let run = || {
            let mut cfg = LoadConfig::new(60, 99, LoadMode::Open { rate_per_sec: None });
            cfg.faults = FaultConfig {
                drop_chance: 0.05,
                ..Default::default()
            };
            LoadRunner::new(cfg).run("toy", &toy_calibration()).json()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_seeds_differ() {
        let run = |seed| {
            let cfg = LoadConfig::new(50, seed, LoadMode::Open { rate_per_sec: None });
            LoadRunner::new(cfg).run("toy", &toy_calibration()).json()
        };
        assert_ne!(run(1), run(2), "seed must actually drive the run");
    }

    #[test]
    fn open_loop_saturation_grows_latency() {
        // Driving arrivals at 4× capacity must show queueing in the tail
        // relative to a lightly loaded run.
        let run = |rate_scale: f64| {
            let cal = toy_calibration();
            let model = CostModel::paper();
            let base = LoadConfig::new(300, 5, LoadMode::Open { rate_per_sec: None });
            let capacity = base.workers as f64
                / (cal.session_service_nanos(&model, base.clock_hz) as f64 / 1e9);
            let mut cfg = base;
            cfg.mode = LoadMode::Open {
                rate_per_sec: Some(capacity * rate_scale),
            };
            cfg.timeout = Some(SimDuration::from_secs(3600)); // isolate queueing
            LoadRunner::new(cfg).run("toy", &cal)
        };
        let light = run(0.3);
        let heavy = run(4.0);
        assert!(
            heavy.latency.quantile(0.99) > 2 * light.latency.quantile(0.99),
            "p99 {} vs {}",
            heavy.latency.quantile(0.99),
            light.latency.quantile(0.99)
        );
    }

    #[test]
    fn frame_round_trips_and_is_never_shorter_than_its_header() {
        let (header, pad) = frame(42, 3, 1, 100);
        assert_eq!(decode(&header), Some((42, 3, 1)));
        assert_eq!(HEADER_LEN + pad, 100);
        for attempt in [0, u32::MAX] {
            let (max, _) = frame(u64::MAX, u32::MAX, attempt, 100);
            assert_eq!(decode(&max), Some((u64::MAX, u32::MAX, attempt)));
        }
        let mut flipped = header.to_vec();
        flipped[9] ^= 0x10;
        assert_eq!(decode(&flipped), None, "the checksum covers the header");
        // A 4-byte op still occupies a whole header on the wire.
        assert_eq!(frame(7, 0, 0, 4), (frame(7, 0, 0, 24).0, 0));
        assert_eq!(frame(7, 0, 0, 0).1, 0);
    }

    /// The header written as words is the wire format byte for byte:
    /// session, `op | attempt << 32` and the checksum of those two, each
    /// little-endian, and it decodes back to what built it.
    #[test]
    fn a_frame_built_from_words_round_trips() {
        for (session, op, attempt) in [(0, 0, 0), (42, 3, 1), (u64::MAX, u32::MAX, 7)] {
            let (header, _) = frame(session, op, attempt, 0);
            let words = [session, u64::from(op) | u64::from(attempt) << 32];
            let mut wire = Vec::new();
            for word in [words[0], words[1], fnv1a(&words)] {
                wire.extend_from_slice(&word.to_le_bytes());
            }
            assert_eq!(&header[..], &wire[..]);
            assert_eq!(decode(&header), Some((session, op, attempt)));
            assert_eq!(decode(&wire), Some((session, op, attempt)));
        }
    }

    /// Closed loop: exactly `concurrency` sessions are in flight at any
    /// instant. On clean links they finish in id order, so each retired
    /// session's slot is taken by its replacement and the ring never grows.
    /// Under drops, abandoned sessions retire too and retransmissions keep
    /// sessions live longer, but never more than `concurrency` at once.
    #[test]
    fn closed_loop_retires_sessions_slots_bounded_by_concurrency() {
        let concurrency = 16u32;
        for drop_chance in [0.0, 0.05] {
            let mut cfg = LoadConfig::new(500, 9, LoadMode::Closed { concurrency });
            cfg.faults = FaultConfig {
                drop_chance,
                ..Default::default()
            };
            let (report, stats) = LoadRunner::new(cfg).run_with_stats("toy", &toy_calibration());
            assert_eq!(report.completed + report.failed, 500);
            assert_eq!(
                stats.peak_live_sessions, concurrency as u64,
                "live sessions must equal the closed-loop concurrency (drop {drop_chance})"
            );
            if drop_chance == 0.0 {
                assert_eq!(report.completed, 500);
                assert_eq!(stats.slots_allocated, concurrency as u64);
            } else {
                assert!(report.retries > 0, "the drops fired");
            }
        }
    }

    #[test]
    fn open_loop_heap_holds_one_pending_arrival_not_all() {
        let n = 4000u64;
        let mut cfg = LoadConfig::new(n, 3, LoadMode::Open { rate_per_sec: None });
        // Retries keep a session live while later ids arrive: the ring's
        // span, not only the live count, must stay far below the total.
        cfg.faults = FaultConfig {
            drop_chance: 0.05,
            duplicate_chance: 0.05,
            ..Default::default()
        };
        let runner = LoadRunner::new(cfg);
        let cal = toy_calibration();
        let (report, stream) = runner.run_with_stats("toy", &cal);
        assert_eq!(report.completed, n);
        // One pending arrival + O(live) timeouts. At ~50% utilisation live
        // sessions stay far below the total.
        assert!(
            stream.peak_heap_events < n / 8,
            "the heap stayed O(live): {} events for {n} sessions",
            stream.peak_heap_events
        );
        assert!(
            stream.peak_live_sessions < n / 8,
            "sessions retire as they complete: {} live peak",
            stream.peak_live_sessions
        );
        assert!(
            stream.slots_allocated < n / 8,
            "the ring spans the live ids, not the run: {} slots",
            stream.slots_allocated
        );
        assert!(report.retries > 0, "the faults fired");
    }

    fn tagged(op: u32) -> Session {
        Session {
            arrived_at: SimTime::ZERO,
            client: NodeId(0),
            op,
            attempt: 0,
            serviced_through: None,
            in_service: None,
        }
    }

    /// Growth re-places live sessions without losing or aliasing any: the
    /// oldest stays live while a hundred newer ids come and go.
    #[test]
    fn ring_doubles_to_the_span_of_live_ids() {
        let mut ring = SessionRing::with_capacity(1);
        ring.insert(0, tagged(0));
        for id in 1..=100 {
            assert_eq!(ring.insert(id, tagged(id as u32)), 2);
            ring.retire(id);
        }
        assert_eq!(ring.slots.len(), 128);
        assert_eq!(ring.get_mut(0).map(|s| s.op), Some(0));
        assert!((1..=200).all(|id| ring.get_mut(id).is_none()));
        ring.retire(0);
        assert_eq!(ring.live, 0);
    }

    /// A rewound engine replays exactly what a fresh engine seeded with
    /// the substituted seed replays, in both loop disciplines (open loop
    /// re-derives its Poisson stream, closed loop only rewinds counters),
    /// while its metrics keep accumulating across the rewind.
    #[test]
    fn reset_for_session_matches_a_fresh_engine_in_both_modes() {
        let cal = toy_calibration();
        let model = CostModel::paper();
        for mode in [
            LoadMode::Open { rate_per_sec: None },
            LoadMode::Closed { concurrency: 4 },
        ] {
            let mut first = LoadConfig::new(40, 5, mode);
            first.faults = FaultConfig {
                drop_chance: 0.1,
                corrupt_chance: 0.05,
                duplicate_chance: 0.05,
                ..Default::default()
            };
            let second = LoadConfig {
                seed: 9,
                ..first.clone()
            };
            let fresh = |cfg: &LoadConfig| {
                let mut engine = Engine::new(cfg, &cal, &model);
                engine.prime();
                engine.drain();
                (engine.finish_session(), engine.into_metrics())
            };
            let (end_a, mut expect) = fresh(&first);
            let (end_b, b) = fresh(&second);
            expect.merge(&b);

            let mut pooled = Engine::new(&first, &cal, &model);
            pooled.prime();
            pooled.drain();
            assert_eq!(pooled.finish_session(), end_a);
            pooled.reset_for_session(second.seed);
            pooled.prime();
            pooled.drain();
            assert_eq!(pooled.finish_session(), end_b);
            assert_ne!(end_a, end_b, "the substituted seed drives the second run");

            let json = |m| report_from_metrics("toy", &first, &cal, &model, m).json();
            assert_eq!(json(pooled.into_metrics()), json(expect));
        }
    }

    proptest! {
        /// The decoder meets whatever a link delivers: arbitrary bytes
        /// never panic it, nothing shorter than a header decodes, and what
        /// does decode is a frame this engine could have sent.
        #[test]
        fn decode_survives_hostile_bytes(
            bytes in proptest::collection::vec(any::<u8>(), 0..64),
            valid in any::<bool>(),
        ) {
            let mut bytes = bytes;
            if valid && bytes.len() >= HEADER_LEN {
                let sum = fnv1a(&[0, 8].map(|at| {
                    u64::from_le_bytes(*bytes[at..].first_chunk().expect("in range"))
                }));
                bytes[16..HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
            }
            let decoded = decode(&bytes);
            prop_assert_eq!(decoded.is_some(), valid && bytes.len() >= HEADER_LEN);
            if let Some((session, op, attempt)) = decoded {
                prop_assert_eq!(&frame(session, op, attempt, 0).0[..], &bytes[..HEADER_LEN]);
            }
        }

        /// What `corrupt_rx` rests on: a corruption fault flips one bit,
        /// and every one of a frame's 192 single-bit flips fails the check.
        #[test]
        fn every_single_bit_flip_of_a_frame_is_rejected(
            session in any::<u64>(),
            op in any::<u32>(),
            attempt in any::<u32>(),
        ) {
            let header: [u8; HEADER_LEN] = frame(session, op, attempt, 0).0[..]
                .try_into()
                .expect("a frame header is HEADER_LEN bytes");
            prop_assert_eq!(decode(&header), Some((session, op, attempt)));
            for bit in 0..8 * HEADER_LEN {
                let mut flipped = header;
                flipped[bit / 8] ^= 1 << (bit % 8);
                prop_assert_eq!(decode(&flipped), None, "bit {} went unnoticed", bit);
            }
        }
    }

    proptest! {
        /// The ring is a map from live id to session: random inserts of
        /// dense increasing ids, retirements in any order and lookups of
        /// live, retired, never-issued and far-future ids agree with a
        /// `BTreeMap`, across however many doublings the live span forces.
        #[test]
        fn ring_agrees_with_a_map_model(
            steps in proptest::collection::vec(any::<u64>(), 1..400),
            first in 1usize..9,
        ) {
            let mut ring = SessionRing::with_capacity(first);
            let mut model = std::collections::BTreeMap::new();
            let mut next = 0u64;
            for step in steps {
                let pick = step / 8;
                // Any live id, any id issued so far, one not issued yet, or
                // one from the far end of the id space.
                let id = match pick % 4 {
                    0 if !model.is_empty() => {
                        *model.keys().nth((pick / 4) as usize % model.len()).expect("in range")
                    }
                    0 | 1 => pick / 4 % (next + 1),
                    2 => next + pick / 4 % 1_000,
                    _ => u64::MAX - pick / 4 % 1_000,
                };
                match step % 8 {
                    0..=2 => {
                        prop_assert_eq!(ring.insert(next, tagged(next as u32)), model.len() as u64 + 1);
                        model.insert(next, next as u32);
                        next += 1;
                    }
                    3..=5 => {
                        ring.retire(id);
                        model.remove(&id);
                    }
                    _ => prop_assert_eq!(ring.get_mut(id).map(|s| s.op), model.get(&id).copied()),
                }
                prop_assert_eq!(ring.live, model.len() as u64);
                prop_assert!(ring.slots.len().is_power_of_two());
            }
            for id in (0..next + 2).chain([u64::MAX]) {
                prop_assert_eq!(ring.get_mut(id).map(|s| s.op), model.get(&id).copied());
            }
        }
    }

    proptest! {
        /// Popping the smaller head of (heap, timeout FIFO) yields exactly
        /// the sequence one `BinaryHeap` of every event yields, for any
        /// interleaving of arrivals, service completions, timeouts and
        /// pops under a clock that never runs backwards.
        #[test]
        fn merged_queues_pop_in_single_heap_order(
            steps in proptest::collection::vec(0u64..4_000_000, 1..300),
            timeout in 0u64..3_000,
        ) {
            let mut merged = DriverQueue::default();
            let mut single: BinaryHeap<Reverse<DriverEvent>> = BinaryHeap::new();
            let mut now = 0u64;
            for (seq, step) in steps.into_iter().enumerate() {
                // One draw → what to do, how far the clock moved since
                // the last step, how far ahead a heap event fires. Small
                // ranges make equal times (seq breaks the tie) common.
                let (kind, advance, ahead) = (step % 4, step / 4 % 100, step / 400);
                now += advance * (step % 3); // often stands still
                let (at, ev) = match kind {
                    0 => (now + ahead, Ev::Arrive { session: step }),
                    1 => (now + ahead, Ev::ServiceDone { session: step, op: 0 }),
                    2 => (now + timeout, Ev::Timeout { session: step, op: 0, attempt: 0 }),
                    _ => {
                        prop_assert_eq!(merged.next_at(), single.peek().map(|Reverse(e)| e.at));
                        prop_assert!(merged.pop() == single.pop().map(|Reverse(e)| e));
                        continue;
                    }
                };
                let event = |seq| DriverEvent { at: SimTime(at), seq: seq as u64, ev };
                merged.push(event(seq));
                single.push(Reverse(event(seq)));
                prop_assert_eq!(merged.len(), single.len());
            }
            while let Some(Reverse(expect)) = single.pop() {
                prop_assert_eq!(merged.next_at(), Some(expect.at));
                prop_assert!(merged.pop() == Some(expect));
            }
            prop_assert!(merged.pop().is_none() && merged.next_at().is_none());
        }
    }
}
