//! The workload abstraction: calibrate-then-replay operation profiles.
//! The profile types themselves live in `teenet-app` (the harness
//! returns them) and are re-exported here.
//!
//! Driving tens of thousands of *real* protocol sessions (each with
//! 1024-bit DH exchanges) is wall-clock infeasible, and — because the
//! repo's SGX cost model is deterministic per operation — unnecessary. A
//! scenario instead runs a handful of real sessions against the actual
//! enclave code, captures each operation's instruction counters and wire
//! sizes as an [`OpProfile`], and the runner replays those profiles at
//! scale on virtual time. The replay is exact, not approximate: a second
//! real session costs precisely what the first did, modulo the keys.

pub use teenet_app::profile::{cycles_to_nanos, Calibration, OpProfile};

/// A workload that can calibrate itself into per-session [`OpProfile`]s.
///
/// Implementations hold their configuration and seed; `calibrate` runs the
/// real protocol (real enclaves, real crypto) a bounded number of times
/// and must be deterministic in the seed.
///
/// `Send` is a supertrait so a boxed scenario (and the deployed service
/// inside it) can move to a load shard's worker thread.
pub trait Scenario: Send {
    /// Stable scenario name (used in reports and JSON).
    fn name(&self) -> &'static str;

    /// One-line description for `loadgen --list`.
    fn describe(&self) -> &'static str;

    /// Runs the real protocol and extracts the per-session script.
    fn calibrate(&mut self) -> Calibration;
}

#[cfg(test)]
mod tests {
    use super::*;
    use teenet_sgx::cost::{CostModel, Counters};
    use teenet_sgx::{SwitchlessConfig, TeeBackend, TransitionMode, TransitionStats};

    fn c(sgx: u64, normal: u64) -> Counters {
        Counters {
            sgx_instr: sgx,
            normal_instr: normal,
        }
    }

    #[test]
    fn session_costs_sum_over_ops() {
        let cal = Calibration {
            setup: c(1, 10),
            ops: vec![
                OpProfile {
                    name: "a",
                    client: c(0, 100),
                    server: c(2, 200),
                    request_bytes: 64,
                    response_bytes: 32,
                    transitions: TransitionStats::default(),
                },
                OpProfile {
                    name: "b",
                    client: c(1, 50),
                    server: c(3, 300),
                    request_bytes: 16,
                    response_bytes: 16,
                    transitions: TransitionStats::default(),
                },
            ],
            mode: TransitionMode::Classic,
            backend: TeeBackend::Sgx,
            switchless: SwitchlessConfig::default(),
        };
        assert_eq!(cal.session_server_cost(), c(5, 500));
        assert_eq!(cal.session_client_cost(), c(1, 150));
    }

    #[test]
    fn cycles_round_up_to_nanos() {
        // 1 cycle at 3 GHz is a fraction of a nanosecond — still ≥ 1ns.
        assert_eq!(cycles_to_nanos(1, 3_000_000_000), 1);
        assert_eq!(cycles_to_nanos(3, 3_000_000_000), 1);
        assert_eq!(cycles_to_nanos(4, 3_000_000_000), 2);
        assert_eq!(cycles_to_nanos(3_000_000_000, 3_000_000_000), 1_000_000_000);
        assert_eq!(cycles_to_nanos(0, 3_000_000_000), 0);
    }

    #[test]
    fn service_nanos_uses_paper_model() {
        let model = CostModel::paper();
        // One SGX instruction = 10_000 cycles.
        let op = OpProfile {
            name: "x",
            client: Counters::new(),
            server: Counters {
                sgx_instr: 1,
                normal_instr: 0,
            },
            request_bytes: 1,
            response_bytes: 1,
            transitions: TransitionStats::default(),
        };
        // 10_000 cycles at 1 GHz = 10_000 ns.
        assert_eq!(op.service_nanos(&model, 1_000_000_000), 10_000);
    }
}
