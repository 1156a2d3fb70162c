//! The calibrated-workload profile types shared by every application.
//!
//! A load run does not execute tens of thousands of real protocol
//! sessions — it runs a handful against the real enclaves (via
//! [`crate::AppHarness`]), captures each operation's instruction counters
//! and wire sizes as an [`OpProfile`], and replays the resulting
//! [`Calibration`] at scale on virtual time. The replay is exact, not
//! approximate: a second real session costs precisely what the first
//! did, modulo the keys. These types live here (rather than in the
//! attestation core or the load driver) so every application crate can
//! expose a calibration service without depending on either.

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

/// A calibrated workload: a one-time setup cost plus the per-session
/// operation script a load runner replays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Calibration {
    /// One-time deployment cost (enclave launch, provisioning, topology
    /// attestation) paid before any session traffic.
    pub setup: Counters,
    /// The steps of one session, in order. Each is one request/response
    /// round trip.
    pub ops: Vec<OpProfile>,
    /// The transition mode the workload was calibrated under.
    pub mode: TransitionMode,
    /// The TEE backend the workload was calibrated against. Replay must
    /// price cycles with this backend's cost model, or the virtual clock
    /// disagrees with the calibration.
    pub backend: TeeBackend,
    /// The switchless worker-pool configuration the workload was
    /// calibrated under (pool size, spin budget, scaling policy). The
    /// 1-worker / zero-spin default reproduces the single-worker ring
    /// exactly.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn c(sgx: u64, normal: u64) -> Counters {
        Counters {
            sgx_instr: sgx,
            normal_instr: normal,
        }
    }

    fn op(name: &'static str, client: Counters, server: Counters) -> OpProfile {
        OpProfile {
            name,
            client,
            server,
            request_bytes: 10,
            response_bytes: 20,
            transitions: TransitionStats {
                taken: 1,
                elided: 2,
                fallbacks: 0,
                idle_spins: 0,
            },
        }
    }

    #[test]
    fn session_rollups_sum_over_steps() {
        let cal = Calibration {
            setup: c(1, 10),
            ops: vec![op("a", c(0, 100), c(2, 200)), op("b", c(1, 50), c(3, 300))],
            mode: TransitionMode::Classic,
            backend: TeeBackend::Sgx,
            switchless: SwitchlessConfig::default(),
        };
        assert_eq!(cal.session_server_cost(), c(5, 500));
        assert_eq!(cal.session_client_cost(), c(1, 150));
        assert_eq!(
            cal.session_transitions(),
            TransitionStats {
                taken: 2,
                elided: 4,
                fallbacks: 0,
                idle_spins: 0
            }
        );
    }
}
