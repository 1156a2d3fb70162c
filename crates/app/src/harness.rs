//! [`AppHarness`]: the one deploy → provision → calibrate flow shared by
//! every enclave application.
//!
//! The harness owns everything that used to be copy-pasted across the
//! four per-application `driver.rs` files: lifecycle ordering, uniform
//! instruction/transition metering around each step, the batched-ecall
//! marginal-cost measurement for switchless calibration, and assembly of
//! the final [`Calibration`].

use teenet_sgx::cost::Counters;
use teenet_sgx::{SwitchlessConfig, TeeBackend, TransitionMode, TransitionStats};

use crate::profile::{Calibration, OpProfile};
use crate::service::{
    AppError, EnclaveService, ServiceEnv, StepExecution, StepKind, StepOutcome, StepRequest,
    StepSpec,
};

/// Point-in-time snapshot of a service's cumulative meters.
#[derive(Debug, Clone, Copy)]
struct Meters {
    server: Counters,
    client: Counters,
    transitions: TransitionStats,
}

impl Meters {
    fn read<S: EnclaveService>(svc: &S) -> Result<Meters, S::Error> {
        Ok(Meters {
            server: svc.server_counters()?,
            client: svc.client_counters()?,
            transitions: svc.transition_stats()?,
        })
    }

    /// The delta accumulated since `earlier`.
    fn since(&self, earlier: &Meters) -> Meters {
        Meters {
            server: self.server.since(earlier.server),
            client: self.client.since(earlier.client),
            transitions: self.transitions.since(earlier.transitions),
        }
    }
}

/// The generic calibrator: drives an [`EnclaveService`] through its
/// lifecycle and meters every step into a replayable [`Calibration`].
#[derive(Debug)]
pub struct AppHarness {
    env: ServiceEnv,
}

impl AppHarness {
    /// A harness for one calibration run at `seed` under `mode`, against
    /// `backend`, with the `switchless` worker-pool configuration.
    pub fn new(
        seed: u64,
        mode: TransitionMode,
        backend: TeeBackend,
        switchless: SwitchlessConfig,
    ) -> Self {
        AppHarness {
            env: ServiceEnv::new(seed, mode, backend, switchless),
        }
    }

    /// Runs the full lifecycle — deploy, provision, mode switch, setup
    /// metering, per-step calibration, teardown — and returns the
    /// calibration.
    pub fn calibrate<S: EnclaveService>(&mut self, svc: &mut S) -> Result<Calibration, S::Error> {
        svc.deploy(&mut self.env)?;
        svc.provision(&mut self.env)?;
        svc.set_transition_mode(self.env.mode, self.env.switchless)?;
        let setup = svc.setup_counters()?;

        let script = svc.session_script(&self.env)?;
        if script.is_empty() {
            return Err(AppError::Harness("session script must not be empty").into());
        }

        let mut ops = Vec::new();
        for spec in &script {
            match spec.kind {
                StepKind::Repeat(n) => self.repeat_step(svc, spec, n, &mut ops)?,
                StepKind::AmortisedBatch(n) => self.amortised_step(svc, spec, n, &mut ops)?,
                StepKind::Computed => match svc.run_step(spec, StepRequest::Once, &mut self.env)? {
                    StepOutcome::Computed(op) => ops.push(op),
                    StepOutcome::Executed(_) => {
                        return Err(AppError::Harness(
                            "computed step returned an executed outcome",
                        )
                        .into());
                    }
                },
            }
        }

        svc.teardown(&mut self.env)?;
        // `ops` grew by pushes; a calibration outlives the run that built
        // it (a replay holds it for its whole length), so it keeps no slack.
        ops.shrink_to_fit();
        Ok(Calibration {
            setup,
            ops,
            mode: self.env.mode,
            backend: self.env.backend,
            switchless: self.env.switchless,
        })
    }

    /// Measures `spec` once and replays the measured step `n` times.
    fn repeat_step<S: EnclaveService>(
        &mut self,
        svc: &mut S,
        spec: &StepSpec,
        n: u32,
        ops: &mut Vec<OpProfile>,
    ) -> Result<(), S::Error> {
        if n == 0 {
            return Err(AppError::Calibration("step repeat must be at least 1").into());
        }
        let before = Meters::read(svc)?;
        let exec = self.executed(svc, spec, StepRequest::Once)?;
        let delta = Meters::read(svc)?.since(&before);
        let op = assemble(spec, &delta, &exec)?;
        for _ in 0..n {
            ops.push(op);
        }
        Ok(())
    }

    /// The batched-ecall marginal-cost measurement: a batch of one pays
    /// the full per-batch boundary cost; a batch of two reveals the pure
    /// marginal per-operation cost. The calibration carries the
    /// batch-of-one step once and the marginal step `n - 1` times.
    fn amortised_step<S: EnclaveService>(
        &mut self,
        svc: &mut S,
        spec: &StepSpec,
        n: u32,
        ops: &mut Vec<OpProfile>,
    ) -> Result<(), S::Error> {
        if n == 0 {
            return Err(AppError::Calibration("step repeat must be at least 1").into());
        }
        let before_one = Meters::read(svc)?;
        let exec_one = self.executed(svc, spec, StepRequest::Batch(1))?;
        let delta_one = Meters::read(svc)?.since(&before_one);
        let first = assemble(spec, &delta_one, &exec_one)?;

        let before_two = Meters::read(svc)?;
        let exec_two = self.executed(svc, spec, StepRequest::Batch(2))?;
        let delta_two = Meters::read(svc)?.since(&before_two);

        // Marginal cost of one more operation inside the same batch:
        // batch-of-two minus batch-of-one, on every meter.
        // batch-of-two minus batch-of-one, on every meter.
        let marginal = OpProfile {
            name: spec.name,
            client: {
                let mut two = delta_two.client;
                two.merge(exec_two.client);
                let mut one = delta_one.client;
                one.merge(exec_one.client);
                two.since(one)
            },
            server: delta_two.server.since(delta_one.server),
            request_bytes: wire_bytes(exec_two.request_bytes)?,
            response_bytes: wire_bytes(exec_two.response_bytes)?,
            transitions: delta_two.transitions.since(delta_one.transitions),
        };

        ops.push(first);
        for _ in 1..n {
            ops.push(marginal);
        }
        Ok(())
    }

    /// Runs one metered step and unwraps the executed outcome.
    fn executed<S: EnclaveService>(
        &mut self,
        svc: &mut S,
        spec: &StepSpec,
        request: StepRequest,
    ) -> Result<StepExecution, S::Error> {
        match svc.run_step(spec, request, &mut self.env)? {
            StepOutcome::Executed(exec) => Ok(exec),
            StepOutcome::Computed(_) => {
                Err(AppError::Harness("executed step returned a computed outcome").into())
            }
        }
    }
}

/// Builds a calibrated op from a metered delta plus the service's
/// execution report.
fn assemble(spec: &StepSpec, delta: &Meters, exec: &StepExecution) -> Result<OpProfile, AppError> {
    let mut client = delta.client;
    client.merge(exec.client);
    Ok(OpProfile {
        name: spec.name,
        client,
        server: delta.server,
        request_bytes: wire_bytes(exec.request_bytes)?,
        response_bytes: wire_bytes(exec.response_bytes)?,
        transitions: delta.transitions,
    })
}

/// A step's frame size in the 32 bits an [`OpProfile`] keeps.
fn wire_bytes(bytes: usize) -> Result<u32, AppError> {
    u32::try_from(bytes).map_err(|_| AppError::Calibration("a step's frame exceeds 4 GiB"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use teenet_sgx::cost::{Op, OpCounts};
    use teenet_sgx::SgxError;

    /// A synthetic service whose meters advance by fixed amounts per
    /// operation, so the harness arithmetic is checkable exactly.
    struct FakeService {
        deployed: bool,
        provisioned: bool,
        mode: Option<TransitionMode>,
        server: Counters,
        client: Counters,
        transitions: TransitionStats,
        script: Vec<StepSpec>,
        request_bytes: usize,
        torn_down: bool,
    }

    impl FakeService {
        fn new(script: Vec<StepSpec>) -> Self {
            FakeService {
                deployed: false,
                provisioned: false,
                mode: None,
                server: Counters::new(),
                client: Counters::new(),
                transitions: TransitionStats::new(),
                script,
                request_bytes: 16,
                torn_down: false,
            }
        }

        fn advance(&mut self, ops: u64) {
            // Per operation: 100 sgx + 10 normal server-side, 5 normal
            // client-side, one transition pair; plus a per-batch fixed
            // boundary cost of 40 sgx.
            self.server.sgx_instr += 40 + 100 * ops;
            self.server.normal_instr += 10 * ops;
            self.client.normal_instr += 5 * ops;
            self.transitions.taken += 1;
        }
    }

    impl EnclaveService for FakeService {
        type Error = SgxError;

        fn name(&self) -> &'static str {
            "fake"
        }

        fn describe(&self) -> &'static str {
            "synthetic fixed-cost service"
        }

        fn deploy(&mut self, _env: &mut ServiceEnv) -> Result<(), SgxError> {
            self.deployed = true;
            self.server.sgx_instr += 1000; // enclave load cost
            Ok(())
        }

        fn provision(&mut self, _env: &mut ServiceEnv) -> Result<(), SgxError> {
            self.provisioned = true;
            self.server.sgx_instr += 500;
            Ok(())
        }

        fn set_transition_mode(
            &mut self,
            mode: TransitionMode,
            _switchless: SwitchlessConfig,
        ) -> Result<(), SgxError> {
            self.mode = Some(mode);
            Ok(())
        }

        fn server_counters(&self) -> Result<Counters, SgxError> {
            Ok(self.server)
        }

        fn client_counters(&self) -> Result<Counters, SgxError> {
            Ok(self.client)
        }

        fn transition_stats(&self) -> Result<TransitionStats, SgxError> {
            Ok(self.transitions)
        }

        fn session_script(&self, _env: &ServiceEnv) -> Result<Vec<StepSpec>, SgxError> {
            Ok(self.script.clone())
        }

        fn run_step(
            &mut self,
            spec: &StepSpec,
            request: StepRequest,
            env: &mut ServiceEnv,
        ) -> Result<StepOutcome, SgxError> {
            match request {
                StepRequest::Once => {
                    if spec.kind == StepKind::Computed {
                        return Ok(StepOutcome::Computed(OpProfile {
                            name: spec.name,
                            client: Counters::new(),
                            server: Counters {
                                sgx_instr: spec.arg,
                                normal_instr: 0,
                            },
                            request_bytes: 7,
                            response_bytes: 7,
                            transitions: TransitionStats::new(),
                        }));
                    }
                    self.advance(1);
                    Ok(StepOutcome::Executed(StepExecution {
                        request_bytes: self.request_bytes,
                        response_bytes: 8,
                        client: hmacs(1, env),
                    }))
                }
                StepRequest::Batch(k) => {
                    self.advance(u64::from(k));
                    Ok(StepOutcome::Executed(StepExecution {
                        request_bytes: self.request_bytes,
                        response_bytes: 8,
                        client: hmacs(u64::from(k), env),
                    }))
                }
            }
        }

        fn teardown(&mut self, _env: &mut ServiceEnv) -> Result<(), SgxError> {
            self.torn_down = true;
            Ok(())
        }
    }

    /// The modelled client side of `n` operations: one HMAC each.
    fn hmacs(n: u64, env: &ServiceEnv) -> Counters {
        let mut counts = OpCounts::new();
        counts.charge(Op::HmacShort, n);
        counts.price(&env.model)
    }

    fn harness(mode: TransitionMode) -> AppHarness {
        AppHarness::new(7, mode, TeeBackend::Sgx, SwitchlessConfig::default())
    }

    #[test]
    fn lifecycle_runs_in_order_and_meters_setup() {
        let mut svc = FakeService::new(vec![StepSpec::repeat("op", 3)]);
        let cal = harness(TransitionMode::Classic)
            .calibrate(&mut svc)
            .unwrap();
        assert!(svc.deployed && svc.provisioned && svc.torn_down);
        assert_eq!(svc.mode, Some(TransitionMode::Classic));
        // Setup = deploy (1000) + provision (500), nothing else.
        assert_eq!(cal.setup.sgx_instr, 1500);
        assert_eq!(cal.ops.len(), 3);
        // Each repeated step carries the single real measurement:
        // per-batch 40 + per-op 100 sgx server-side.
        for s in &cal.ops {
            assert_eq!(s.server.sgx_instr, 140);
            assert_eq!(s.server.normal_instr, 10);
            assert_eq!(s.transitions.taken, 1);
            assert_eq!(s.request_bytes, 16);
        }
    }

    #[test]
    fn amortised_batch_isolates_marginal_cost() {
        let mut svc = FakeService::new(vec![StepSpec::amortised("rec", 4)]);
        let cal = harness(TransitionMode::Switchless)
            .calibrate(&mut svc)
            .unwrap();
        assert_eq!(cal.ops.len(), 4);
        // First step: full batch-of-one cost (40 fixed + 100 marginal).
        assert_eq!(cal.ops[0].server.sgx_instr, 140);
        assert_eq!(cal.ops[0].transitions.taken, 1);
        // Remaining steps: pure marginal cost, no boundary crossing.
        for s in &cal.ops[1..] {
            assert_eq!(s.server.sgx_instr, 100);
            assert_eq!(s.server.normal_instr, 10);
            assert_eq!(s.transitions.taken, 0);
        }
    }

    #[test]
    fn computed_steps_pass_through() {
        let mut svc = FakeService::new(vec![StepSpec::computed("model", 42)]);
        let cal = harness(TransitionMode::Classic)
            .calibrate(&mut svc)
            .unwrap();
        assert_eq!(cal.ops.len(), 1);
        assert_eq!(cal.ops[0].server.sgx_instr, 42);
    }

    #[test]
    fn empty_script_is_a_harness_error() {
        let mut svc = FakeService::new(Vec::new());
        let err = harness(TransitionMode::Classic)
            .calibrate(&mut svc)
            .unwrap_err();
        assert!(matches!(err, SgxError::EcallRejected(_)));
    }

    #[test]
    fn zero_repeat_is_a_calibration_error() {
        let mut svc = FakeService::new(vec![StepSpec::repeat("op", 0)]);
        let err = harness(TransitionMode::Classic)
            .calibrate(&mut svc)
            .unwrap_err();
        assert!(matches!(err, SgxError::EcallRejected(_)));
    }

    #[test]
    fn a_frame_past_32_bits_is_a_calibration_error() {
        let mut svc = FakeService::new(vec![StepSpec::repeat("op", 1)]);
        svc.request_bytes = u32::MAX as usize + 1;
        let err = harness(TransitionMode::Classic)
            .calibrate(&mut svc)
            .unwrap_err();
        assert_eq!(
            err,
            AppError::Calibration("a step's frame exceeds 4 GiB").into()
        );
    }
}
