//! [`AppHarness`]: the one deploy → provision → calibrate flow shared by
//! every enclave application.
//!
//! The harness owns everything that used to be copy-pasted across the
//! four per-application `driver.rs` files: lifecycle ordering, uniform
//! op-count/transition metering around each step, the batched-ecall
//! marginal-cost measurement for switchless calibration, and assembly of
//! the final [`Calibration`]. It is also the one place a calibration is
//! priced: services report op counts, and the harness prices the setup
//! and every op under its backend's cost model.

use teenet_sgx::cost::{CostModel, OpCounts};
use teenet_sgx::{SwitchlessConfig, TeeBackend, TransitionMode, TransitionStats};

use crate::profile::{Calibration, OpProfile};
use crate::service::{
    AppError, EnclaveService, ServiceEnv, StepExecution, StepKind, StepRequest, StepSpec,
};

/// Point-in-time snapshot of a service's cumulative meters, or what one
/// step spent on them.
#[derive(Debug, Clone, Copy)]
struct Meters {
    server: OpCounts,
    client: OpCounts,
    transitions: TransitionStats,
}

impl Meters {
    fn read<S: EnclaveService>(svc: &S) -> Result<Meters, S::Error> {
        Ok(Meters {
            server: svc.server_counts()?,
            client: svc.client_counts()?,
            transitions: svc.transition_stats()?,
        })
    }

    /// The delta accumulated since `earlier`.
    fn since(&self, earlier: &Meters) -> Meters {
        Meters {
            server: self.server.since(&earlier.server),
            client: self.client.since(&earlier.client),
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
    /// calibration, priced under the backend's cost model.
    pub fn calibrate<S: EnclaveService>(&mut self, svc: &mut S) -> Result<Calibration, S::Error> {
        svc.deploy(&mut self.env)?;
        svc.provision(&mut self.env)?;
        svc.set_transition_mode(self.env.mode, self.env.switchless)?;
        let model = self.env.backend.cost_model();
        let setup = svc.setup_counts()?.price(&model);

        let script = svc.session_script(&self.env)?;
        if script.is_empty() {
            return Err(AppError::Harness("session script must not be empty").into());
        }

        let mut ops = Vec::new();
        for spec in &script {
            match spec.kind {
                StepKind::Repeat(n) => self.repeat_step(svc, spec, n, &model, &mut ops)?,
                StepKind::AmortisedBatch(n) => {
                    self.amortised_step(svc, spec, n, &model, &mut ops)?
                }
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
        model: &CostModel,
        ops: &mut Vec<OpProfile>,
    ) -> Result<(), S::Error> {
        if n == 0 {
            return Err(AppError::Calibration("step repeat must be at least 1").into());
        }
        let (spent, exec) = self.measure(svc, spec, StepRequest::Once)?;
        let op = assemble(spec, &spent, &exec, model)?;
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
        model: &CostModel,
        ops: &mut Vec<OpProfile>,
    ) -> Result<(), S::Error> {
        if n == 0 {
            return Err(AppError::Calibration("step repeat must be at least 1").into());
        }
        let (one, exec_one) = self.measure(svc, spec, StepRequest::Batch(1))?;
        let (two, exec_two) = self.measure(svc, spec, StepRequest::Batch(2))?;
        // Marginal cost of one more operation inside the same batch:
        // batch-of-two minus batch-of-one, on every side.
        let marginal = assemble(spec, &two.since(&one), &exec_two, model)?;
        ops.push(assemble(spec, &one, &exec_one, model)?);
        for _ in 1..n {
            ops.push(marginal);
        }
        Ok(())
    }

    /// Runs one step and returns what it spent — the metered delta around
    /// it plus what it reported outside the meters — with its report.
    fn measure<S: EnclaveService>(
        &mut self,
        svc: &mut S,
        spec: &StepSpec,
        request: StepRequest,
    ) -> Result<(Meters, StepExecution), S::Error> {
        let before = Meters::read(svc)?;
        let exec = svc.run_step(spec, request, &mut self.env)?;
        let mut spent = Meters::read(svc)?.since(&before);
        spent.server.merge(&exec.server);
        spent.client.merge(&exec.client);
        spent.transitions.merge(exec.transitions);
        Ok((spent, exec))
    }
}

/// Prices what a step spent under `model` into a calibrated op, with the
/// wire sizes from its report.
fn assemble(
    spec: &StepSpec,
    spent: &Meters,
    exec: &StepExecution,
    model: &CostModel,
) -> Result<OpProfile, AppError> {
    Ok(OpProfile {
        name: spec.name,
        client: spent.client.price(model),
        server: spent.server.price(model),
        request_bytes: wire_bytes(exec.request_bytes)?,
        response_bytes: wire_bytes(exec.response_bytes)?,
        transitions: spent.transitions,
    })
}

/// A step's frame size in the 32 bits an [`OpProfile`] keeps.
fn wire_bytes(bytes: usize) -> Result<u32, AppError> {
    u32::try_from(bytes).map_err(|_| AppError::Calibration("a step's frame exceeds 4 GiB"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use teenet_sgx::cost::Op;
    use teenet_sgx::SgxError;

    /// A synthetic service whose meters advance by fixed op counts per
    /// operation, so the harness arithmetic is checkable exactly.
    struct FakeService {
        deployed: bool,
        provisioned: bool,
        mode: Option<TransitionMode>,
        server: OpCounts,
        client: OpCounts,
        transitions: TransitionStats,
        script: Vec<StepSpec>,
        request_bytes: usize,
        /// AES blocks and elided crossings per operation a step reports
        /// in its [`StepExecution`] instead of on the meters.
        unmetered: u64,
        torn_down: bool,
    }

    impl FakeService {
        fn new(script: Vec<StepSpec>) -> Self {
            FakeService {
                deployed: false,
                provisioned: false,
                mode: None,
                server: OpCounts::new(),
                client: OpCounts::new(),
                transitions: TransitionStats::new(),
                script,
                request_bytes: 16,
                unmetered: 0,
                torn_down: false,
            }
        }

        /// Runs a batch of `ops` operations. On the paper row, per
        /// operation: 100 sgx + 10 normal server-side and 5 normal
        /// client-side; per batch: one transition pair and a fixed
        /// boundary cost of 20 ecall pairs (40 sgx, free on a VM TEE).
        fn run(&mut self, ops: u64) -> StepExecution {
            self.server.charge(Op::EcallPair, 20);
            self.server.charge(Op::Ereport, 100 * ops);
            self.server.charge(Op::MarshalWord, 10 * ops);
            self.client.charge(Op::MarshalWord, 5 * ops);
            self.transitions.taken += 1;
            let mut exec = StepExecution {
                request_bytes: self.request_bytes,
                response_bytes: 8,
                transitions: TransitionStats {
                    elided: self.unmetered * ops,
                    ..TransitionStats::new()
                },
                ..StepExecution::default()
            };
            // The modelled client side: one HMAC per operation.
            exec.client.charge(Op::HmacShort, ops);
            exec.server.charge(Op::AesBlock, self.unmetered * ops);
            exec
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
            self.server.charge(Op::Ereport, 1000); // enclave load cost
            Ok(())
        }

        fn provision(&mut self, _env: &mut ServiceEnv) -> Result<(), SgxError> {
            self.provisioned = true;
            // 500 sgx on the paper row, 250 on the VM-TEE row.
            self.server.charge(Op::ChallengerEntry, 125);
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

        fn server_counts(&self) -> Result<OpCounts, SgxError> {
            Ok(self.server)
        }

        fn client_counts(&self) -> Result<OpCounts, SgxError> {
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
            _spec: &StepSpec,
            request: StepRequest,
            _env: &mut ServiceEnv,
        ) -> Result<StepExecution, SgxError> {
            Ok(match request {
                StepRequest::Once => self.run(1),
                StepRequest::Batch(k) => self.run(u64::from(k)),
            })
        }

        fn teardown(&mut self, _env: &mut ServiceEnv) -> Result<(), SgxError> {
            self.torn_down = true;
            Ok(())
        }
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
        // per-batch 40 + per-op 100 sgx server-side, and the metered
        // client's 5 plus the reported HMAC's 1 500 normal client-side.
        for s in &cal.ops {
            assert_eq!(s.server.sgx_instr, 140);
            assert_eq!(s.server.normal_instr, 10);
            assert_eq!(s.client.normal_instr, 1505);
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
            assert_eq!(s.client.normal_instr, 1505);
            assert_eq!(s.transitions.taken, 0);
        }
    }

    #[test]
    fn reported_counts_and_crossings_add_to_the_metered_delta() {
        for (mode, script) in [
            (TransitionMode::Classic, StepSpec::repeat("op", 2)),
            (TransitionMode::Switchless, StepSpec::amortised("op", 3)),
        ] {
            let mut svc = FakeService::new(vec![script]);
            svc.unmetered = 3;
            let cal = harness(mode).calibrate(&mut svc).unwrap();
            // Metered 10 normal plus three reported AES blocks (81 each),
            // and three reported elided crossings, in every op: the
            // batch-of-one and, for the amortised step, the marginal.
            for (i, s) in cal.ops.iter().enumerate() {
                assert_eq!(s.server.normal_instr, 10 + 3 * 81, "{mode:?} op {i}");
                assert_eq!(s.transitions.elided, 3, "{mode:?} op {i}");
            }
        }
    }

    #[test]
    fn vmtee_calibration_prices_at_the_vmtee_row() {
        let mut svc = FakeService::new(vec![StepSpec::amortised("rec", 2)]);
        let cal = AppHarness::new(
            7,
            TransitionMode::Switchless,
            TeeBackend::VmTee,
            SwitchlessConfig::default(),
        )
        .calibrate(&mut svc)
        .unwrap();
        // An ecall pair costs 0 on the VM-TEE row, so the batch's 20 pairs
        // add nothing; a challenger entry is 2, not 4.
        assert_eq!(cal.setup.sgx_instr, 1000 + 250);
        assert_eq!(cal.ops[0].server.sgx_instr, 100);
        assert_eq!(cal.ops[1].server.sgx_instr, 100);
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
