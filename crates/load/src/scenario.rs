//! The workload abstraction: calibrate-then-replay operation profiles.
//!
//! Driving tens of thousands of *real* protocol sessions (each with
//! 1024-bit DH exchanges) is wall-clock infeasible, and — because the
//! repo's SGX cost model is deterministic per operation — unnecessary. A
//! scenario instead runs a handful of real sessions against the actual
//! enclave code, captures each operation's instruction counters and wire
//! sizes as an [`OpProfile`], and the runner replays those profiles at
//! scale on virtual time. The replay is exact, not approximate: a second
//! real session costs precisely what the first did, modulo the keys.

use teenet_sgx::cost::{CostModel, Counters};
use teenet_sgx::{SwitchlessConfig, TeeBackend, TransitionMode, TransitionStats};

/// The calibrated cost of one client→server exchange within a session:
/// the client spends `client` instructions preparing `request_bytes`, the
/// server spends `server` instructions servicing it and replies with
/// `response_bytes`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpProfile {
    /// Step name (e.g. `attest.begin`, `record`, `cell`).
    pub name: &'static str,
    /// Client-side instruction cost of the step.
    pub client: Counters,
    /// Server-side instruction cost of the step.
    pub server: Counters,
    /// Request size on the wire, in bytes.
    pub request_bytes: u32,
    /// Response size on the wire, in bytes.
    pub response_bytes: u32,
    /// Server-side enclave boundary crossings during the step.
    pub transitions: TransitionStats,
}

impl OpProfile {
    /// Server-side service time of this step in virtual nanoseconds at
    /// `clock_hz` under `model`.
    pub fn service_nanos(&self, model: &CostModel, clock_hz: u64) -> u64 {
        cycles_to_nanos(self.server.cycles(model), clock_hz)
    }
}

/// Converts a cycle count to nanoseconds at `clock_hz`, rounding up so a
/// nonzero cost always consumes time.
pub fn cycles_to_nanos(cycles: u64, clock_hz: u64) -> u64 {
    let hz = clock_hz.max(1);
    (cycles.saturating_mul(1_000_000_000)).div_ceil(hz)
}

/// The output of calibrating a scenario: a one-time setup cost plus the
/// per-session operation script the runner replays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Calibration {
    /// One-time deployment cost (enclave launch, provisioning, topology
    /// attestation) paid before any session traffic.
    pub setup: Counters,
    /// The steps of one session, in order. Each is one request/response
    /// round trip.
    pub ops: Vec<OpProfile>,
    /// The transition mode the scenario was calibrated under.
    pub mode: TransitionMode,
    /// The TEE backend the scenario was calibrated against. Replay must
    /// price cycles with this backend's cost model, or the virtual clock
    /// disagrees with the calibration.
    pub backend: TeeBackend,
    /// The switchless worker-pool configuration the scenario was
    /// calibrated under (surfaces in reports so multi-worker runs are
    /// distinguishable from the single-worker default).
    pub switchless: SwitchlessConfig,
}

impl Calibration {
    /// The cost model any replay of this calibration prices cycles with.
    pub fn cost_model(&self) -> CostModel {
        self.backend.cost_model()
    }

    /// Summed server-side counters of one session.
    pub fn session_server_cost(&self) -> Counters {
        let mut total = Counters::new();
        for op in &self.ops {
            total.merge(op.server);
        }
        total
    }

    /// Summed client-side counters of one session.
    pub fn session_client_cost(&self) -> Counters {
        let mut total = Counters::new();
        for op in &self.ops {
            total.merge(op.client);
        }
        total
    }

    /// Server-side busy time of one session in virtual nanoseconds.
    pub fn session_service_nanos(&self, model: &CostModel, clock_hz: u64) -> u64 {
        self.ops
            .iter()
            .map(|op| op.service_nanos(model, clock_hz))
            .sum()
    }

    /// Summed boundary-crossing statistics of one session.
    pub fn session_transitions(&self) -> TransitionStats {
        let mut total = TransitionStats::new();
        for op in &self.ops {
            total.merge(op.transitions);
        }
        total
    }
}

impl From<teenet_app::WorkProfile> for Calibration {
    fn from(profile: teenet_app::WorkProfile) -> Self {
        let mut ops: Vec<OpProfile> = profile
            .steps
            .into_iter()
            .map(|s| OpProfile {
                name: s.name,
                client: s.client,
                server: s.server,
                request_bytes: wire_bytes(s.request_bytes),
                response_bytes: wire_bytes(s.response_bytes),
                transitions: s.transitions,
            })
            .collect();
        // Collected in place, `ops` keeps the capacity `steps` grew to by
        // pushes; a calibration outlives its profile, so it holds its ops
        // exactly, each with its frame sizes in 32 bits.
        ops.shrink_to_fit();
        Calibration {
            setup: profile.setup,
            ops,
            mode: profile.mode,
            backend: profile.backend,
            switchless: profile.switchless,
        }
    }
}

/// A calibrated frame size: one step's request or response, far below
/// 4 GiB.
fn wire_bytes(bytes: usize) -> u32 {
    u32::try_from(bytes).expect("a step's frame fits 32 bits")
}

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
        let op = OpProfile {
            name: "x",
            client: Counters::new(),
            server: c(1, 0), // one SGX instruction = 10_000 cycles
            request_bytes: 1,
            response_bytes: 1,
            transitions: TransitionStats::default(),
        };
        // 10_000 cycles at 1 GHz = 10_000 ns.
        assert_eq!(op.service_nanos(&model, 1_000_000_000), 10_000);
    }
}
