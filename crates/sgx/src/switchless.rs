//! Switchless enclave transitions: a shared-ring call model in the spirit
//! of HotCalls (Svenningsson et al., "Speeding up enclave transitions for
//! IO-intensive applications").
//!
//! The paper charges every enclave↔host crossing as SGX(U) instructions
//! (EENTER/EEXIT at 10 000 cycles each, §5 fn. 6) and blames those
//! crossings for much of the steady-state overhead: "mainly due to
//! in-enclave I/O and dynamic memory allocation that cause context
//! switches". Switchless calls remove the crossing: the enclave posts the
//! request into an **untrusted shared ring** and a pool of host worker
//! threads, spinning on the ring, services it while the enclave keeps
//! running. What remains is ordinary work — writing the request into the
//! ring and the worker's poll/dispatch — charged as normal instructions.
//!
//! The emulated model, per would-be transition pair:
//!
//! * **Elided** — at least one worker is awake and the ring has a free
//!   slot: charge one [`crate::cost::Op::SwitchlessPost`] and one
//!   [`crate::cost::Op::SwitchlessPoll`] (normal instructions) and zero
//!   SGX instructions.
//! * **Fallback: ring full** — the ring has no free slot; the enclave
//!   takes a real transition (which drains the ring while the host runs).
//!   Under [`WorkerScaling::Adaptive`] the fallback also wakes one more
//!   pool worker (scale-up-on-fallback), paying the wake cost.
//! * **Fallback: workers asleep** — the pool exhausted its spin budget
//!   ([`SwitchlessConfig::worker_spin_ecalls`] consecutive ecalls with no
//!   switchless traffic) and went to sleep; the enclave takes a real
//!   transition and pays [`crate::cost::Op::SwitchlessWake`] to
//!   wake it.
//!
//! ## The idle-spin economy
//!
//! Spinning workers are not free: every awake worker that finds nothing
//! to service burns [`SwitchlessConfig::spin_budget`] spin units per
//! ecall, each charged as one [`crate::cost::Op::IdleSpin`] and
//! accumulated in [`TransitionStats::idle_spins`]. More workers drain bursts faster
//! (each extra awake worker retires one ring entry per post interval, so
//! fewer ring-full fallbacks), but every surplus worker is a pure
//! idle-spin tax — an over-provisioned pool can make switchless *lose*
//! against classic transitions, which is exactly the trade-off the
//! HotCalls literature reports. The default `spin_budget` of 0 reproduces
//! the original 1-worker accounting (spin cost unmodelled) so calibrated
//! fixtures are unaffected until a run opts in.
//!
//! Asynchronous exits (AEX on EPC eviction) are **never** elided — they
//! are hardware-initiated, not call-shaped, so no ring can absorb them.
//!
//! Ecalls are amortised instead of elided: a batched ecall
//! ([`crate::tee::TeePlatform::ecall_batch`]) pays one EENTER/EEXIT
//! pair for N queued calls, mirroring the paper's Table 2, where batching
//! 100 packets turns 6 SGX instructions per packet into 204 per batch.

/// How an enclave crosses the enclave↔host boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransitionMode {
    /// Every crossing is a real EENTER/EEXIT pair (the paper's baseline).
    #[default]
    Classic,
    /// Ocall-path crossings go through the shared call ring when possible.
    Switchless,
}

impl TransitionMode {
    /// Stable lowercase name (used in reports and JSON).
    pub fn as_str(self) -> &'static str {
        match self {
            TransitionMode::Classic => "classic",
            TransitionMode::Switchless => "switchless",
        }
    }
}

/// How the awake subset of the worker pool tracks load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WorkerScaling {
    /// The whole pool of [`SwitchlessConfig::workers`] spins from the
    /// moment switchless mode is entered; idle ecalls park the workers
    /// one by one (spin-then-sleep) and any asleep-fallback wakes the
    /// whole pool again.
    #[default]
    Fixed,
    /// Start with `min` workers spinning; a ring-full fallback wakes one
    /// more (scale-up-on-fallback, paying the wake cost) up to `max`,
    /// and idle ecalls past the spin-ecall budget park one at a time
    /// back down to `min` (scale-down-on-idle).
    Adaptive {
        /// Fewest workers kept spinning under idle load.
        min: usize,
        /// Most workers ever spinning under bursty load.
        max: usize,
    },
}

/// Tuning knobs of the switchless layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchlessConfig {
    /// Request slots in the untrusted shared ring. A burst longer than
    /// this inside one ecall overflows and falls back to a real
    /// transition (which drains the ring).
    pub ring_capacity: usize,
    /// Consecutive ecalls without switchless traffic the pool spins
    /// through before workers start going to sleep. `0` means workers
    /// start parking whenever an ecall posts nothing.
    pub worker_spin_ecalls: u32,
    /// Host worker threads in the pool (≥ 1; 0 is treated as 1). The
    /// default of 1 reproduces the original single-worker model exactly.
    pub workers: usize,
    /// Spin units each awake-but-idle worker burns per ecall, each
    /// charged as one [`crate::cost::Op::IdleSpin`]. `0` (the default)
    /// keeps idle spinning free, i.e. the pre-pool accounting.
    pub spin_budget: u32,
    /// Worker scaling policy (fixed pool vs adaptive `[min, max]`).
    pub scaling: WorkerScaling,
}

impl Default for SwitchlessConfig {
    fn default() -> Self {
        SwitchlessConfig {
            ring_capacity: 64,
            worker_spin_ecalls: 8,
            workers: 1,
            spin_budget: 0,
            scaling: WorkerScaling::Fixed,
        }
    }
}

impl SwitchlessConfig {
    /// Workers awake right after entering switchless mode.
    fn initial_awake(&self) -> usize {
        match self.scaling {
            WorkerScaling::Fixed => self.pool_size(),
            WorkerScaling::Adaptive { min, .. } => min.clamp(1, self.pool_size()),
        }
    }

    /// Workers woken by an asleep-fallback (the whole fixed pool; the
    /// adaptive floor, but at least one).
    fn wake_target(&self) -> usize {
        self.initial_awake()
    }

    /// Fewest awake workers idle parking may leave behind.
    fn sleep_floor(&self) -> usize {
        match self.scaling {
            WorkerScaling::Fixed => 0,
            WorkerScaling::Adaptive { min, .. } => min.min(self.pool_size()),
        }
    }

    /// Most workers ever awake at once.
    fn awake_ceiling(&self) -> usize {
        match self.scaling {
            WorkerScaling::Fixed => self.pool_size(),
            WorkerScaling::Adaptive { max, .. } => max.clamp(1, self.pool_size()),
        }
    }

    /// The pool size with the `0 == 1` degenerate config absorbed.
    fn pool_size(&self) -> usize {
        self.workers.max(1)
    }
}

/// Per-enclave accounting of boundary crossings, in EENTER/EEXIT *pairs*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TransitionStats {
    /// Real transition pairs taken (classic crossings and fallbacks).
    pub taken: u64,
    /// Transition pairs elided — serviced through the ring, or amortised
    /// away by ecall batching.
    pub elided: u64,
    /// Switchless posts that had to fall back to a real transition
    /// (ring full or workers asleep). Always a subset of `taken`.
    pub fallbacks: u64,
    /// Spin units burned by awake workers that found nothing to service
    /// (charged at [`crate::cost::Op::IdleSpin`] each) —
    /// the honest cost of keeping the pool hot.
    pub idle_spins: u64,
}

impl TransitionStats {
    /// A zeroed stats record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulates another record into this one.
    pub fn merge(&mut self, other: TransitionStats) {
        self.taken += other.taken;
        self.elided += other.elided;
        self.fallbacks += other.fallbacks;
        self.idle_spins += other.idle_spins;
    }

    /// Difference since an earlier snapshot (saturating, like
    /// [`crate::cost::Counters::since`]).
    pub fn since(&self, earlier: TransitionStats) -> TransitionStats {
        TransitionStats {
            taken: self.taken.saturating_sub(earlier.taken),
            elided: self.elided.saturating_sub(earlier.elided),
            fallbacks: self.fallbacks.saturating_sub(earlier.fallbacks),
            idle_spins: self.idle_spins.saturating_sub(earlier.idle_spins),
        }
    }
}

/// Outcome of posting a would-be transition to the switchless layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Post {
    /// Classic mode: take the real transition.
    Classic,
    /// Serviced through the ring; no SGX instructions.
    Elided,
    /// Switchless mode but the request could not be absorbed; take a real
    /// transition. `woke` is true when a worker had to be woken.
    Fallback {
        /// Whether a sleeping worker was woken (charges the wake cost).
        woke: bool,
    },
}

/// Per-enclave switchless state: mode, ring occupancy, pool liveness.
#[derive(Debug, Clone)]
pub struct SwitchlessState {
    /// Current transition mode.
    pub mode: TransitionMode,
    /// Ring/worker tuning.
    pub config: SwitchlessConfig,
    /// Crossing statistics since enclave creation.
    pub stats: TransitionStats,
    /// Workers currently spinning on the ring (the rest of the pool is
    /// parked on the wake futex).
    awake: usize,
    idle_ecalls: u32,
    ring_used: usize,
    posted_this_ecall: bool,
}

impl Default for SwitchlessState {
    fn default() -> Self {
        Self::new()
    }
}

impl SwitchlessState {
    /// Classic-mode state (no ring, no workers).
    pub fn new() -> Self {
        SwitchlessState {
            mode: TransitionMode::Classic,
            config: SwitchlessConfig::default(),
            stats: TransitionStats::new(),
            awake: 0,
            idle_ecalls: 0,
            ring_used: 0,
            posted_this_ecall: false,
        }
    }

    /// Switches modes. Entering switchless starts the policy's initial
    /// worker count spinning; returning to classic parks the pool. All
    /// per-ecall bookkeeping — including the posted-this-ecall flag, so a
    /// mid-ecall mode round-trip cannot carry stale spin-budget credit —
    /// is reset.
    pub fn set_mode(&mut self, mode: TransitionMode) {
        self.mode = mode;
        self.awake = if mode == TransitionMode::Switchless {
            self.config.initial_awake()
        } else {
            0
        };
        self.idle_ecalls = 0;
        self.ring_used = 0;
        self.posted_this_ecall = false;
    }

    /// Called at every EENTER: the host ran between ecalls, so the pool
    /// has drained the ring.
    pub(crate) fn on_ecall_start(&mut self) {
        self.ring_used = 0;
        self.posted_this_ecall = false;
    }

    /// Called at every EEXIT. Ecalls that post nothing burn the pool's
    /// spin-ecall budget; past it, workers park one per idle ecall down
    /// to the policy floor. Returns the spin units burned by awake
    /// workers that had nothing to service this ecall — an idle ecall
    /// idles the whole awake set, a posting ecall idles everyone beyond
    /// the one worker the traffic keeps busy. The caller charges them at
    /// [`crate::cost::Op::IdleSpin`] each.
    pub(crate) fn on_ecall_end(&mut self) -> u64 {
        if self.mode != TransitionMode::Switchless {
            return 0;
        }
        let idle_workers = if self.posted_this_ecall {
            self.idle_ecalls = 0;
            self.awake.saturating_sub(1)
        } else {
            self.idle_ecalls = self.idle_ecalls.saturating_add(1);
            let idle = self.awake;
            if self.idle_ecalls > self.config.worker_spin_ecalls
                && self.awake > self.config.sleep_floor()
            {
                self.awake -= 1;
            }
            idle
        };
        let spins = (idle_workers as u64).saturating_mul(u64::from(self.config.spin_budget));
        self.stats.idle_spins += spins;
        spins
    }

    /// Tries to absorb `pairs` would-be transition pairs into the ring.
    pub(crate) fn post(&mut self, pairs: u64) -> Post {
        if self.mode != TransitionMode::Switchless {
            return Post::Classic;
        }
        self.posted_this_ecall = true;
        self.idle_ecalls = 0;
        if self.awake == 0 {
            // Wake the pool via a real transition; the ring is empty
            // once the workers resume spinning.
            self.awake = self.config.wake_target();
            self.ring_used = 0;
            return Post::Fallback { woke: true };
        }
        // Extra awake workers drain the ring concurrently with the
        // enclave: each worker beyond the first retires one entry per
        // post interval (with one worker this is a no-op, preserving the
        // original single-worker occupancy model exactly).
        self.ring_used = self.ring_used.saturating_sub(self.awake - 1);
        let Ok(pairs) = usize::try_from(pairs) else {
            // A burst too large to even index overflows the ring by
            // definition: fall back rather than truncate the count.
            self.ring_used = 0;
            return Post::Fallback { woke: false };
        };
        if self.ring_used.saturating_add(pairs) > self.config.ring_capacity {
            // Overflow: the real transition gives the pool time to
            // drain everything.
            self.ring_used = 0;
            if let WorkerScaling::Adaptive { .. } = self.config.scaling {
                if self.awake < self.config.awake_ceiling() {
                    // Scale-up-on-fallback: the overflow is evidence the
                    // awake set is too small — wake one more worker,
                    // paying the wake cost.
                    self.awake += 1;
                    return Post::Fallback { woke: true };
                }
            }
            return Post::Fallback { woke: false };
        }
        self.ring_used += pairs;
        Post::Elided
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SwitchlessState {
        /// Whether any host worker is currently spinning on the ring.
        fn worker_awake(&self) -> bool {
            self.awake > 0
        }

        /// Number of host workers currently spinning on the ring.
        fn workers_awake(&self) -> usize {
            self.awake
        }
    }

    fn switchless(ring: usize, spin: u32) -> SwitchlessState {
        switchless_pool(ring, spin, 1)
    }

    fn switchless_pool(ring: usize, spin: u32, workers: usize) -> SwitchlessState {
        let mut s = SwitchlessState::new();
        s.config = SwitchlessConfig {
            ring_capacity: ring,
            worker_spin_ecalls: spin,
            workers,
            ..SwitchlessConfig::default()
        };
        s.set_mode(TransitionMode::Switchless);
        s
    }

    /// Compile-time regression: the switchless ring/worker state is plain
    /// owned data and must stay `Send` (it rides inside `Enclave`, which
    /// moves to a load shard's thread together with its platform).
    #[test]
    fn switchless_state_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<SwitchlessState>();
        assert_send::<TransitionStats>();
        assert_send::<WorkerScaling>();
    }

    #[test]
    fn classic_mode_never_elides() {
        let mut s = SwitchlessState::new();
        assert_eq!(s.post(1), Post::Classic);
        assert_eq!(s.post(10), Post::Classic);
    }

    #[test]
    fn awake_worker_elides_until_ring_full() {
        let mut s = switchless(3, 8);
        s.on_ecall_start();
        assert_eq!(s.post(1), Post::Elided);
        assert_eq!(s.post(1), Post::Elided);
        assert_eq!(s.post(1), Post::Elided);
        // Fourth post overflows the 3-slot ring: fallback drains it.
        assert_eq!(s.post(1), Post::Fallback { woke: false });
        // Drained: elision resumes.
        assert_eq!(s.post(1), Post::Elided);
    }

    #[test]
    fn ring_drains_between_ecalls() {
        let mut s = switchless(2, 8);
        s.on_ecall_start();
        assert_eq!(s.post(2), Post::Elided);
        s.on_ecall_end();
        s.on_ecall_start();
        assert_eq!(s.post(2), Post::Elided, "fresh ecall sees an empty ring");
    }

    #[test]
    fn idle_worker_sleeps_then_fallback_wakes_it() {
        let mut s = switchless(8, 1);
        // Two consecutive ecalls without switchless traffic: budget is 1,
        // so the second idle ecall puts the worker to sleep.
        for _ in 0..2 {
            s.on_ecall_start();
            s.on_ecall_end();
        }
        assert!(!s.worker_awake());
        s.on_ecall_start();
        assert_eq!(s.post(1), Post::Fallback { woke: true });
        assert!(s.worker_awake());
        assert_eq!(s.post(1), Post::Elided, "worker spins again after wake");
    }

    #[test]
    fn posting_keeps_worker_awake() {
        let mut s = switchless(8, 0);
        for _ in 0..5 {
            s.on_ecall_start();
            assert_eq!(s.post(1), Post::Elided);
            s.on_ecall_end();
            assert!(s.worker_awake(), "active traffic resets the spin budget");
        }
    }

    /// Regression (truncating-cast bug): `post` used to do `pairs as
    /// usize`, so on a 32-bit target a > 4 Gi-pair burst wrapped and
    /// could be "absorbed" by a 64-slot ring. Pair counts beyond what the
    /// ring could ever hold must fall back, on every target width.
    #[test]
    fn oversized_pair_count_falls_back_instead_of_truncating() {
        let mut s = switchless(64, 8);
        s.on_ecall_start();
        assert_eq!(s.post(u64::MAX), Post::Fallback { woke: false });
        assert_eq!(
            s.post((u32::MAX as u64) + 2),
            Post::Fallback { woke: false }
        );
        assert_eq!(s.ring_used, 0, "an overflowing burst never occupies slots");
        assert_eq!(s.post(1), Post::Elided, "ring still usable afterwards");
    }

    /// Regression (stale spin-budget credit): a mode round-trip mid-ecall
    /// used to leave `posted_this_ecall` set, so the first ecall after
    /// re-entering switchless mode was scored as active traffic even if
    /// it posted nothing.
    #[test]
    fn mode_round_trip_clears_posted_flag() {
        let mut s = switchless(8, 0);
        s.on_ecall_start();
        assert_eq!(s.post(1), Post::Elided);
        // Mid-ecall mode round-trip: the stale flag must not survive.
        s.set_mode(TransitionMode::Classic);
        s.set_mode(TransitionMode::Switchless);
        s.on_ecall_end();
        assert!(
            !s.worker_awake(),
            "an idle ecall after the round-trip must burn the spin budget \
             (budget 0: the worker parks) instead of riding stale credit"
        );
    }

    #[test]
    fn fixed_pool_starts_full_and_parks_one_per_idle_ecall() {
        let mut s = switchless_pool(8, 1, 4);
        assert_eq!(s.workers_awake(), 4);
        // Spin-ecall budget 1: the first idle ecall is tolerated, every
        // idle ecall past it parks one worker.
        for expected in [4usize, 4, 3, 2, 1] {
            assert_eq!(s.workers_awake(), expected);
            s.on_ecall_start();
            s.on_ecall_end();
        }
        assert!(!s.worker_awake());
        // The asleep-fallback wakes the whole fixed pool.
        s.on_ecall_start();
        assert_eq!(s.post(1), Post::Fallback { woke: true });
        assert_eq!(s.workers_awake(), 4);
    }

    #[test]
    fn extra_workers_drain_the_ring_mid_ecall() {
        // 2-slot ring: a 1-worker pool overflows on the third 1-pair
        // post, a 3-worker pool retires 2 entries per post interval and
        // never overflows.
        let mut one = switchless_pool(2, 8, 1);
        one.on_ecall_start();
        assert_eq!(one.post(1), Post::Elided);
        assert_eq!(one.post(1), Post::Elided);
        assert_eq!(one.post(1), Post::Fallback { woke: false });

        let mut three = switchless_pool(2, 8, 3);
        three.on_ecall_start();
        for _ in 0..16 {
            assert_eq!(three.post(1), Post::Elided);
        }
    }

    #[test]
    fn adaptive_pool_scales_up_on_fallback_and_down_on_idle() {
        let mut s = switchless_pool(1, 0, 4);
        s.config.scaling = WorkerScaling::Adaptive { min: 1, max: 3 };
        s.set_mode(TransitionMode::Switchless);
        assert_eq!(s.workers_awake(), 1, "adaptive pool starts at min");

        // Overflow the 1-slot ring: each full-ring fallback wakes one
        // more worker (woke: true charges the wake cost) up to max.
        s.on_ecall_start();
        assert_eq!(s.post(1), Post::Elided);
        assert_eq!(s.post(1), Post::Fallback { woke: true });
        assert_eq!(s.workers_awake(), 2);
        assert_eq!(s.post(2), Post::Fallback { woke: true });
        assert_eq!(s.workers_awake(), 3);
        assert_eq!(s.post(4), Post::Fallback { woke: false }, "at max: no wake");
        assert_eq!(s.workers_awake(), 3);
        s.on_ecall_end();

        // Idle ecalls (spin-ecall budget 0) park one worker each, down
        // to min — never below.
        for expected in [3usize, 2, 1, 1, 1] {
            assert_eq!(s.workers_awake(), expected);
            s.on_ecall_start();
            s.on_ecall_end();
        }
    }

    #[test]
    fn idle_spins_accrue_per_awake_worker_and_spin_budget() {
        let mut s = switchless_pool(8, 2, 3);
        s.config.spin_budget = 5;
        s.set_mode(TransitionMode::Switchless);

        // Idle ecall: all 3 awake workers burn their 5-unit budget.
        s.on_ecall_start();
        assert_eq!(s.on_ecall_end(), 15);
        // Posting ecall: one worker is busy, the other 2 idle-spin.
        s.on_ecall_start();
        assert_eq!(s.post(1), Post::Elided);
        assert_eq!(s.on_ecall_end(), 10);
        assert_eq!(s.stats.idle_spins, 25, "stats accumulate burned spins");

        // The 1-worker default with spin budget 0 burns nothing — the
        // pre-pool accounting.
        let mut legacy = switchless(8, 2);
        legacy.on_ecall_start();
        assert_eq!(legacy.on_ecall_end(), 0);
        legacy.on_ecall_start();
        assert_eq!(legacy.post(1), Post::Elided);
        assert_eq!(legacy.on_ecall_end(), 0);
        assert_eq!(legacy.stats.idle_spins, 0);
    }

    #[test]
    fn stats_since_is_saturating() {
        let a = TransitionStats {
            taken: 1,
            elided: 2,
            fallbacks: 0,
            idle_spins: 4,
        };
        let b = TransitionStats {
            taken: 5,
            elided: 1,
            fallbacks: 3,
            idle_spins: 1,
        };
        let d = a.since(b);
        assert_eq!(d.taken, 0);
        assert_eq!(d.elided, 1);
        assert_eq!(d.fallbacks, 0);
        assert_eq!(d.idle_spins, 3);
    }

    #[test]
    fn mode_names_are_stable() {
        assert_eq!(TransitionMode::Classic.as_str(), "classic");
        assert_eq!(TransitionMode::Switchless.as_str(), "switchless");
    }

    /// The pre-pool single-worker implementation, kept verbatim as the
    /// behavioural oracle: the N=1 configuration of the refactored state
    /// machine must be step-for-step identical to it (golden fixtures pin
    /// the reports; this pins `Post` outcomes and `TransitionStats` at
    /// the unit level).
    struct LegacySwitchless {
        ring_capacity: usize,
        worker_spin_ecalls: u32,
        worker_awake: bool,
        idle_ecalls: u32,
        ring_used: usize,
        posted_this_ecall: bool,
    }

    impl LegacySwitchless {
        fn new(ring: usize, spin: u32) -> Self {
            LegacySwitchless {
                ring_capacity: ring,
                worker_spin_ecalls: spin,
                worker_awake: true,
                idle_ecalls: 0,
                ring_used: 0,
                posted_this_ecall: false,
            }
        }

        fn on_ecall_start(&mut self) {
            self.ring_used = 0;
            self.posted_this_ecall = false;
        }

        fn on_ecall_end(&mut self) {
            if self.posted_this_ecall {
                self.idle_ecalls = 0;
            } else {
                self.idle_ecalls = self.idle_ecalls.saturating_add(1);
                if self.idle_ecalls > self.worker_spin_ecalls {
                    self.worker_awake = false;
                }
            }
        }

        fn post(&mut self, pairs: u64) -> Post {
            self.posted_this_ecall = true;
            self.idle_ecalls = 0;
            if !self.worker_awake {
                self.worker_awake = true;
                self.ring_used = 0;
                return Post::Fallback { woke: true };
            }
            let pairs = pairs as usize;
            if self.ring_used + pairs > self.ring_capacity {
                self.ring_used = 0;
                return Post::Fallback { woke: false };
            }
            self.ring_used += pairs;
            Post::Elided
        }
    }

    /// Sequential analogue of the `teenet-analyze` ring model checker:
    /// enumerate every ecall sequence over {post one pair, overflow
    /// post, idle ecall} for pools of 1, 2 and 4 workers and check the
    /// same invariants on the real implementation — outcome conservation
    /// (every post is elided or falls back), posts always leaving at
    /// least one worker spinning, occupancy within the ring capacity,
    /// and the awake set within the pool. The 1-worker sweep additionally
    /// locks every step to the pre-refactor implementation above.
    #[test]
    fn enumerated_ecall_sequences_conserve_outcomes() {
        const OPS: u32 = 3;
        const DEPTH: u32 = 7;
        for workers in [1usize, 2, 4] {
            for (ring, spin) in [(1usize, 0u32), (2, 1), (3, 2)] {
                for encoded in 0..OPS.pow(DEPTH) {
                    let mut seq = encoded;
                    let mut s = switchless_pool(ring, spin, workers);
                    let mut legacy = LegacySwitchless::new(ring, spin);
                    let (mut posts, mut elided, mut fallbacks) = (0u64, 0u64, 0u64);
                    for _ in 0..DEPTH {
                        let op = seq % OPS;
                        seq /= OPS;
                        s.on_ecall_start();
                        legacy.on_ecall_start();
                        if op < 2 {
                            let pairs = if op == 0 { 1 } else { ring as u64 + 1 };
                            let awake_before = s.worker_awake();
                            posts += 1;
                            let outcome = s.post(pairs);
                            match outcome {
                                Post::Elided => elided += 1,
                                Post::Fallback { woke } => {
                                    fallbacks += 1;
                                    if workers == 1 {
                                        assert_eq!(
                                            woke, !awake_before,
                                            "1-worker woke flag must reflect the worker state"
                                        );
                                    }
                                }
                                Post::Classic => {
                                    panic!("switchless mode never returns Classic")
                                }
                            }
                            if workers == 1 {
                                assert_eq!(
                                    outcome,
                                    legacy.post(pairs),
                                    "N=1 must match the pre-refactor implementation \
                                     (seq {encoded}, ring {ring}, spin {spin})"
                                );
                            }
                            assert!(s.worker_awake(), "a post always leaves a worker spinning");
                        }
                        s.on_ecall_end();
                        legacy.on_ecall_end();
                        if workers == 1 {
                            assert_eq!(
                                s.worker_awake(),
                                legacy.worker_awake,
                                "N=1 sleep/wake must match the pre-refactor implementation"
                            );
                        }
                        assert!(
                            s.ring_used <= s.config.ring_capacity,
                            "ring occupancy must stay within capacity"
                        );
                        assert!(
                            s.workers_awake() <= workers,
                            "awake set must stay within the pool"
                        );
                    }
                    assert_eq!(
                        elided + fallbacks,
                        posts,
                        "every post is elided or falls back \
                         (seq {encoded}, ring {ring}, spin {spin}, workers {workers})"
                    );
                }
            }
        }
    }
}
