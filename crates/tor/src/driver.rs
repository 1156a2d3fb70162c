//! The Tor circuit+stream workload as an [`EnclaveService`]: one session
//! is a Tor client building a 3-hop circuit through SGX relays, opening a
//! stream, and exchanging one data cell.
//!
//! Admission (the attestation-heavy part, paper Table 3's FullSgx row) is
//! measured for real against the deployed platforms. Steady-state cell
//! work is counted by the service itself, because relay cell processing
//! in this codebase runs outside the counter-instrumented platform ecall
//! path: each step reports its server op counts and crossings in its
//! [`StepExecution`], which the harness prices like any metered step.
//!
//! Under [`TransitionMode::Switchless`] each relay's per-cell enclave
//! crossing is serviced through the shared call ring: the EENTER/EEXIT
//! pair becomes ring-post + worker-poll normal instructions. Admission
//! always runs classic — it is one-time cost the paper excludes from
//! steady state anyway.

use teenet_app::{AppError, EnclaveService, ServiceEnv, StepExecution, StepRequest, StepSpec};
use teenet_sgx::cost::{Op, OpCounts};
use teenet_sgx::{SwitchlessConfig, TransitionMode, TransitionStats};

use crate::cell::CELL_LEN;
use crate::deployment::{Phase, TorDeployment, TorSpec};
use crate::error::{Result, TorError};

/// Number of hops in the calibrated circuit (guard, middle, exit).
pub const HOPS: u64 = 3;

/// The Tor circuit+stream workload on a FullSgx deployment, driven
/// through [`teenet_app::AppHarness`].
///
/// Setup is the measured cost of admission — every relay attested by the
/// client, quoting enclaves included — plus one end-to-end validation
/// exchange. The session script is three `extend` steps (telescoping DH),
/// one `begin`, and one `data` cell.
#[derive(Default)]
pub struct TorService {
    deployed: Option<TorDeployment>,
    setup: OpCounts,
    mode: TransitionMode,
    switchless: SwitchlessConfig,
}

impl TorService {
    /// A service over the fast FullSgx deployment spec.
    pub fn new() -> Self {
        TorService::default()
    }
}

impl EnclaveService for TorService {
    type Error = TorError;

    fn name(&self) -> &'static str {
        "tor"
    }

    fn describe(&self) -> &'static str {
        "Tor circuit + stream traffic through attested SGX onion routers"
    }

    fn deploy(&mut self, env: &mut ServiceEnv) -> Result<()> {
        let mut spec = TorSpec::fast(Phase::FullSgx, env.seed);
        spec.backend = env.backend;
        self.deployed = Some(TorDeployment::build(spec)?);
        Ok(())
    }

    /// Runs admission (every relay attested), caches the setup cost, then
    /// proves the deployment actually carries traffic with one end-to-end
    /// echo exchange before any profiling.
    fn provision(&mut self, _env: &mut ServiceEnv) -> Result<()> {
        let dep = self
            .deployed
            .as_mut()
            .ok_or(TorError::CircuitState("tor service not deployed"))?;
        let admission = dep.run_admission()?;

        self.setup = platform_counts(dep);

        let path = dep.select_path(&admission, None)?;
        let reply = dep.exchange(path, b"calibrate")?;
        if reply != b"echo:calibrate" {
            return Err(TorError::CircuitState("calibration echo mismatch"));
        }
        Ok(())
    }

    /// The relay cell loop is counted by the service, not metered, so the
    /// mode and the switchless worker configuration are only recorded
    /// here and applied when counting each step.
    fn set_transition_mode(
        &mut self,
        mode: TransitionMode,
        switchless: SwitchlessConfig,
    ) -> Result<()> {
        self.mode = mode;
        self.switchless = switchless;
        Ok(())
    }

    /// Admission cost, snapshotted before the validation exchange so the
    /// echo traffic never leaks into the profile.
    fn setup_counts(&self) -> Result<OpCounts> {
        Ok(self.setup)
    }

    fn server_counts(&self) -> Result<OpCounts> {
        let dep = self
            .deployed
            .as_ref()
            .ok_or(TorError::CircuitState("tor service not deployed"))?;
        Ok(platform_counts(dep))
    }

    fn session_script(&self, _env: &ServiceEnv) -> Result<Vec<StepSpec>> {
        let mut script = Vec::with_capacity(HOPS as usize + 2);
        for hop in 0..HOPS {
            script.push(StepSpec {
                arg: hop,
                ..StepSpec::repeat("extend", 1)
            });
        }
        script.push(StepSpec::repeat("begin", 1));
        script.push(StepSpec::repeat("data", 1));
        Ok(script)
    }

    fn run_step(
        &mut self,
        spec: &StepSpec,
        _request: StepRequest,
        _env: &mut ServiceEnv,
    ) -> Result<StepExecution> {
        let (mut client, mut server) = (OpCounts::new(), OpCounts::new());
        let transitions = match spec.name {
            "extend" => {
                // Telescoping extend to hop N: the client runs a fresh DH
                // exchange (two modexps) and onion-wraps the cell once per
                // hop already in the circuit; the target relay runs its DH
                // half inside the enclave and unwraps one layer.
                client.charge(Op::Modexp768, 2);
                for _ in 0..=spec.arg {
                    client.aes(CELL_LEN);
                }
                server.charge(Op::Modexp768, 2);
                server.aes(CELL_LEN);
                cell_crossings(self.mode, self.switchless, &mut server, 1)
            }
            "begin" | "data" => {
                // A relayed cell: the client adds all three onion layers;
                // each of the three relays enters its enclave and strips
                // one.
                for _ in 0..HOPS {
                    client.aes(CELL_LEN);
                    server.aes(CELL_LEN);
                }
                cell_crossings(self.mode, self.switchless, &mut server, HOPS)
            }
            _ => return Err(TorError::CircuitState("unknown tor step")),
        };
        Ok(StepExecution {
            request_bytes: CELL_LEN,
            response_bytes: CELL_LEN,
            client,
            server,
            transitions,
        })
    }
}

/// Summed op counts of every relay and authority platform.
fn platform_counts(dep: &TorDeployment) -> OpCounts {
    let mut total = OpCounts::new();
    let platforms = dep.relay_platforms.iter().chain(&dep.authority_platforms);
    for (platform, _) in platforms.flatten() {
        total.merge(&platform.total_counts());
    }
    total
}

/// Charges `crossings` per-cell enclave crossings (one host crossing
/// each) to `server`: real transitions in classic mode, a ring post and a
/// worker poll in switchless mode (the relay's cell loop keeps the worker
/// spinning).
/// With a multi-worker pool, every worker beyond the one servicing the
/// post idles through its spin budget per posted pair — modelled exactly
/// like the metered ring's idle-spin charge, so over-provisioned Tor
/// relays pay for their extra spinners too.
fn cell_crossings(
    mode: TransitionMode,
    switchless: SwitchlessConfig,
    server: &mut OpCounts,
    pairs: u64,
) -> TransitionStats {
    match mode {
        TransitionMode::Classic => {
            server.charge(Op::HostCrossing, pairs);
            TransitionStats {
                taken: pairs,
                ..TransitionStats::new()
            }
        }
        TransitionMode::Switchless => {
            let idle_workers = switchless.workers.max(1) as u64 - 1;
            let idle_spins = pairs * idle_workers * u64::from(switchless.spin_budget);
            server.charge(Op::SwitchlessPost, pairs);
            server.charge(Op::SwitchlessPoll, pairs);
            server.charge(Op::IdleSpin, idle_spins);
            TransitionStats {
                elided: pairs,
                idle_spins,
                ..TransitionStats::new()
            }
        }
    }
}

impl From<AppError> for TorError {
    fn from(e: AppError) -> Self {
        TorError::CircuitState(e.message())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teenet_app::{AppHarness, Calibration};
    use teenet_sgx::TeeBackend;

    fn calibrate(seed: u64, mode: TransitionMode) -> Calibration {
        AppHarness::new(seed, mode, TeeBackend::Sgx, SwitchlessConfig::default())
            .calibrate(&mut TorService::new())
            .unwrap()
    }

    #[test]
    fn tor_profile_shape() {
        let profile = calibrate(11, TransitionMode::Classic);
        assert_eq!(profile.ops.len(), 5);
        assert_eq!(profile.ops[0].name, "extend");
        assert_eq!(profile.ops[4].name, "data");
        // Admission attests 6 relays: the setup dwarfs any single cell.
        assert!(profile.setup.sgx_instr > 0);
        assert!(profile.setup.normal_instr > profile.ops[0].server.normal_instr);
        // Extends carry DH work; data cells are symmetric-only and cheaper.
        assert!(profile.ops[0].server.normal_instr > profile.ops[4].server.normal_instr);
        assert!(profile
            .ops
            .iter()
            .all(|s| s.request_bytes as usize == CELL_LEN));
    }

    #[test]
    fn switchless_tor_removes_cell_transitions() {
        let classic = calibrate(11, TransitionMode::Classic);
        let sw = calibrate(11, TransitionMode::Switchless);
        let data_c = &classic.ops[4];
        let data_s = &sw.ops[4];
        assert_eq!(data_c.transitions.taken, HOPS);
        assert_eq!(data_s.transitions.taken, 0);
        assert_eq!(data_s.transitions.elided, HOPS);
        assert_eq!(data_s.server.sgx_instr, 0, "no per-cell EENTER/EEXIT");
        assert!(data_s.server.normal_instr > data_c.server.normal_instr);
        // Admission is mode-independent.
        assert_eq!(classic.setup, sw.setup);
    }
}
