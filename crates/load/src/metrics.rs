//! Metrics core: per-phase SGX instruction/cycle rollups folding in
//! [`teenet_sgx::cost::Counters`], and the mergeable [`RunMetrics`]
//! accumulator the sharded runner combines across worker threads.
//!
//! Every `merge` in this module is associative and commutative (sums,
//! histogram bucket adds, min/max), so metrics accumulated per shard and
//! merged in any grouping equal the metrics of one serial accumulation —
//! the property the shard-count byte-identity guarantee rests on, and the
//! one the proptests below pin down.

use teenet_netsim::sim::LinkStats;
use teenet_sgx::cost::{CostModel, Counters};
use teenet_sgx::TransitionStats;

use crate::hist::Histogram;

/// Accumulated SGX/normal-instruction cost of one named phase of a load
/// run (e.g. `calibration`, `steady.server`, `steady.client`), with the
/// number of operations it covers.
#[derive(Debug, Clone)]
pub struct PhaseRollup {
    /// Phase name (stable across runs; used as the JSON key).
    pub name: &'static str,
    /// Total instruction counters of the phase.
    pub counters: Counters,
    /// Operations folded into the rollup.
    pub ops: u64,
}

impl PhaseRollup {
    /// An empty rollup for `name`.
    pub fn new(name: &'static str) -> Self {
        PhaseRollup {
            name,
            counters: Counters::new(),
            ops: 0,
        }
    }

    /// Folds one operation's counters in.
    pub fn fold(&mut self, c: Counters) {
        self.counters.merge(c);
        self.ops += 1;
    }

    /// Merges another rollup of the same phase into this one.
    ///
    /// Associative and commutative (counter and op sums), so per-shard
    /// rollups merged in any order equal the serial rollup.
    pub fn merge(&mut self, other: &PhaseRollup) {
        debug_assert_eq!(self.name, other.name, "merging rollups of different phases");
        self.counters.merge(other.counters);
        self.ops += other.ops;
    }

    /// Cycles under the paper's conversion (§5 fn. 6).
    pub fn cycles(&self, model: &CostModel) -> u64 {
        self.counters.cycles(model)
    }
}

/// Every outcome accumulator of one load run (or one shard of one): the
/// latency distribution, session/recovery counts, per-phase cost rollups,
/// transition statistics, and network fault totals.
///
/// Extracted from the engine so the sharded runner can accumulate one
/// `RunMetrics` per worker thread and [`RunMetrics::merge`] them in fixed
/// shard order. Every field merges associatively and commutatively —
/// sums, histogram bucket adds, and maxima — so the merged result is
/// independent of how sessions were partitioned into shards.
#[derive(Clone)]
pub struct RunMetrics {
    /// Session latency distribution (arrival → final response), ns.
    pub latency: Histogram,
    /// Sessions that completed every operation.
    pub completed: u64,
    /// Sessions abandoned after exhausting retransmissions.
    pub failed: u64,
    /// Request retransmissions triggered by timeouts.
    pub retries: u64,
    /// Packets discarded at the receiver for failed integrity checks.
    pub corrupt_rx: u64,
    /// Virtual nanosecond at which the last session resolved (local to
    /// the accumulating engine's clock; the sharded scheduler maps shard-
    /// local values onto the global timeline before reporting).
    pub last_done_ns: u64,
    /// Client-side steady-state cost rollup.
    pub steady_client: PhaseRollup,
    /// Server-side steady-state cost rollup.
    pub steady_server: PhaseRollup,
    /// Enclave boundary crossings accumulated over all serviced ops.
    pub transitions: TransitionStats,
    /// Fault outcomes summed over all simulated links.
    pub net: LinkStats,
    /// Deepest any server inbox ever got.
    pub max_server_queue: u64,
}

impl RunMetrics {
    /// Empty metrics with the standard steady-state phase names.
    pub fn new() -> Self {
        RunMetrics {
            latency: Histogram::new(),
            completed: 0,
            failed: 0,
            retries: 0,
            corrupt_rx: 0,
            last_done_ns: 0,
            steady_client: PhaseRollup::new("steady.client"),
            steady_server: PhaseRollup::new("steady.server"),
            transitions: TransitionStats::new(),
            net: LinkStats::default(),
            max_server_queue: 0,
        }
    }

    /// Merges another run's (or shard's) metrics into this one.
    ///
    /// Associative and commutative: counts and rollups add, histograms
    /// add bucket-wise, `last_done_ns` and `max_server_queue` take the
    /// maximum. Merging per-shard metrics in any grouping therefore
    /// yields the same result as one serial accumulation — the invariant
    /// behind the shard-count-independent byte-identical reports.
    pub fn merge(&mut self, other: &RunMetrics) {
        self.latency.merge(&other.latency);
        self.completed += other.completed;
        self.failed += other.failed;
        self.retries += other.retries;
        self.corrupt_rx += other.corrupt_rx;
        self.last_done_ns = self.last_done_ns.max(other.last_done_ns);
        self.steady_client.merge(&other.steady_client);
        self.steady_server.merge(&other.steady_server);
        self.transitions.merge(other.transitions);
        self.net.merge(&other.net);
        self.max_server_queue = self.max_server_queue.max(other.max_server_queue);
    }
}

impl Default for RunMetrics {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl PhaseRollup {
        /// Folds `n` operations that each cost `c` (replayed profiles).
        pub(crate) fn fold_n(&mut self, c: Counters, n: u64) {
            self.counters.merge(Counters {
                sgx_instr: c.sgx_instr * n,
                normal_instr: c.normal_instr * n,
            });
            self.ops += n;
        }
    }

    use proptest::prelude::*;

    fn rollup(sgx: u64, normal: u64, ops: u64) -> PhaseRollup {
        let mut r = PhaseRollup::new("steady.server");
        r.counters.sgx_instr = sgx;
        r.counters.normal_instr = normal;
        r.ops = ops;
        r
    }

    fn metrics(seed: u64) -> RunMetrics {
        // A deterministic but irregular fixture derived from `seed` — the
        // values only need to differ across fields; merging does the rest.
        let mut m = RunMetrics::new();
        m.latency.record(seed.wrapping_mul(97) % 1_000_003 + 1);
        m.latency.record(seed % 7 + 1);
        m.completed = seed % 13;
        m.failed = seed % 3;
        m.retries = seed % 17;
        m.corrupt_rx = seed % 5;
        m.last_done_ns = seed.wrapping_mul(31) % 1_000_000;
        m.steady_client.fold_n(
            Counters {
                sgx_instr: seed % 11,
                normal_instr: seed % 1009,
            },
            seed % 9 + 1,
        );
        m.steady_server.fold_n(
            Counters {
                sgx_instr: seed % 19,
                normal_instr: seed % 2003,
            },
            seed % 4 + 1,
        );
        m.transitions.taken = seed % 23;
        m.transitions.elided = seed % 29;
        m.transitions.fallbacks = seed % 2;
        m.transitions.idle_spins = seed % 31;
        m.net.sent = seed % 37;
        m.net.delivered = seed % 37;
        m.net.dropped = seed % 6;
        m.max_server_queue = seed % 41;
        m
    }

    /// Field-wise equality for merge-law assertions (RunMetrics itself
    /// stays PartialEq-free because Histogram is).
    fn assert_same(a: &RunMetrics, b: &RunMetrics) {
        assert_eq!(a.latency.count(), b.latency.count());
        assert_eq!(a.latency.min(), b.latency.min());
        assert_eq!(a.latency.max(), b.latency.max());
        assert_eq!(a.latency.percentiles(), b.latency.percentiles());
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.failed, b.failed);
        assert_eq!(a.retries, b.retries);
        assert_eq!(a.corrupt_rx, b.corrupt_rx);
        assert_eq!(a.last_done_ns, b.last_done_ns);
        assert_eq!(a.steady_client.counters, b.steady_client.counters);
        assert_eq!(a.steady_client.ops, b.steady_client.ops);
        assert_eq!(a.steady_server.counters, b.steady_server.counters);
        assert_eq!(a.steady_server.ops, b.steady_server.ops);
        assert_eq!(a.transitions, b.transitions);
        assert_eq!(a.net, b.net);
        assert_eq!(a.max_server_queue, b.max_server_queue);
    }

    #[test]
    fn rollup_folds_and_converts() {
        let model = CostModel::paper();
        let mut r = PhaseRollup::new("steady.server");
        let c = Counters {
            sgx_instr: 2,
            normal_instr: 1000,
        };
        r.fold(c);
        r.fold_n(c, 9);
        assert_eq!(r.ops, 10);
        assert_eq!(r.counters.sgx_instr, 20);
        assert_eq!(r.counters.normal_instr, 10_000);
        assert_eq!(r.cycles(&model), 20 * 10_000 + 18_000);
    }

    #[test]
    fn rollup_merge_equals_combined_folding() {
        let c = |sgx: u64, normal: u64| Counters {
            sgx_instr: sgx,
            normal_instr: normal,
        };
        let mut a = PhaseRollup::new("steady.server");
        a.fold(c(2, 100));
        a.fold_n(c(3, 50), 4);
        let mut b = PhaseRollup::new("steady.server");
        b.fold(c(7, 9));
        let mut combined = PhaseRollup::new("steady.server");
        combined.fold(c(2, 100));
        combined.fold_n(c(3, 50), 4);
        combined.fold(c(7, 9));
        a.merge(&b);
        assert_eq!(a.counters, combined.counters);
        assert_eq!(a.ops, combined.ops);
    }

    #[test]
    fn run_metrics_merge_equals_serial_accumulation() {
        // Sharded accumulation (two halves merged) must equal one serial
        // accumulation of the same per-session observations.
        let sessions: Vec<u64> = (1..=20).collect();
        let mut serial = RunMetrics::new();
        for &s in &sessions {
            serial.merge(&metrics(s));
        }
        let mut left = RunMetrics::new();
        for &s in &sessions[..9] {
            left.merge(&metrics(s));
        }
        let mut right = RunMetrics::new();
        for &s in &sessions[9..] {
            right.merge(&metrics(s));
        }
        left.merge(&right);
        assert_same(&left, &serial);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// PhaseRollup::merge is associative and commutative.
        #[test]
        fn rollup_merge_laws(
            sa in 0u64..1 << 40,
            na in 0u64..1 << 40,
            oa in 0u64..1 << 20,
            sb in 0u64..1 << 40,
            nb in 0u64..1 << 40,
            ob in 0u64..1 << 20,
            sz in 0u64..1 << 40,
            nz in 0u64..1 << 40,
            oz in 0u64..1 << 20,
        ) {
            let (ra, rb, rc) = (rollup(sa, na, oa), rollup(sb, nb, ob), rollup(sz, nz, oz));

            let mut left = ra.clone();
            let mut bc = rb.clone();
            left.merge(&bc);
            left.merge(&rc);
            let mut right = ra.clone();
            bc = rb.clone();
            bc.merge(&rc);
            right.merge(&bc);
            prop_assert_eq!(left.counters, right.counters);
            prop_assert_eq!(left.ops, right.ops);

            let mut ab = ra.clone();
            ab.merge(&rb);
            let mut ba = rb.clone();
            ba.merge(&ra);
            prop_assert_eq!(ab.counters, ba.counters);
            prop_assert_eq!(ab.ops, ba.ops);
        }

        /// RunMetrics::merge is associative and commutative — the law that
        /// makes per-shard accumulation partition-independent.
        #[test]
        fn run_metrics_merge_laws(sa in any::<u64>(), sb in any::<u64>(), sc in any::<u64>()) {
            let (ma, mb, mc) = (metrics(sa), metrics(sb), metrics(sc));

            let mut left = ma.clone();
            let mut bc = mb.clone();
            left.merge(&bc);
            left.merge(&mc);
            let mut right = ma.clone();
            bc = mb.clone();
            bc.merge(&mc);
            right.merge(&bc);
            assert_same(&left, &right);

            let mut ab = ma.clone();
            ab.merge(&mb);
            let mut ba = mb.clone();
            ba.merge(&ma);
            assert_same(&ab, &ba);
        }
    }
}
