//! The attestation-storm workload as an [`EnclaveService`].
//!
//! One session is one full Figure-1 remote attestation of a target
//! enclave: the challenger's request, the in-enclave REPORT, the quoting
//! enclave's QUOTE, and the challenger's verification. The service runs
//! the real protocol message by message so the calibrated wire sizes are
//! the true ones, not estimates.
//!
//! The calibration types and the generic calibrator live in
//! `teenet-app`; this module only implements the service contract —
//! calibrate by driving [`AttestService`] through
//! [`AppHarness`](teenet_app::AppHarness).

use teenet_app::{AppError, EnclaveService, ServiceEnv, StepExecution, StepRequest, StepSpec};
use teenet_crypto::schnorr::{SchnorrGroup, SigningKey};
use teenet_crypto::SecureRng;
use teenet_sgx::cost::OpCounts;
use teenet_sgx::{
    deploy_platform, EnclaveCtx, EnclaveId, EnclaveProgram, EpidGroup, Report, SgxError,
    SwitchlessConfig, TeePlatform, TransitionMode, TransitionStats,
};

use crate::attest::{AttestConfig, AttestResponse, Challenger};
use crate::error::{Result, TeenetError};
use crate::identity::IdentityPolicy;
use crate::responder::AttestResponder;

/// Minimal attestation-target enclave for calibration.
struct AttestTarget {
    responder: AttestResponder,
}

impl EnclaveProgram for AttestTarget {
    fn code_image(&self) -> Vec<u8> {
        b"load-attest-target-v1".to_vec()
    }
    fn ecall(
        &mut self,
        ctx: &mut EnclaveCtx<'_>,
        fn_id: u64,
        input: &[u8],
    ) -> core::result::Result<Vec<u8>, SgxError> {
        match fn_id {
            0 => self.responder.handle_begin(ctx, input),
            1 => self.responder.handle_finish(ctx, input),
            _ => Err(SgxError::EcallRejected("unknown fn")),
        }
    }
}

struct Deployed {
    platform: Box<dyn TeePlatform>,
    enclave: EnclaveId,
    epid: EpidGroup,
    rng: SecureRng,
}

/// The attestation-storm workload: one Figure-1 remote attestation per
/// session, driven through [`teenet_app::AppHarness`].
pub struct AttestService {
    config: AttestConfig,
    deployed: Option<Deployed>,
}

impl AttestService {
    /// A service attesting a target under `config`.
    pub fn new(config: AttestConfig) -> Self {
        AttestService {
            config,
            deployed: None,
        }
    }

    fn state(&self) -> Result<&Deployed> {
        self.deployed
            .as_ref()
            .ok_or(TeenetError::Protocol("attest service not deployed"))
    }
}

impl Default for AttestService {
    fn default() -> Self {
        AttestService::new(AttestConfig::fast())
    }
}

impl EnclaveService for AttestService {
    type Error = TeenetError;

    fn name(&self) -> &'static str {
        "attest"
    }

    fn describe(&self) -> &'static str {
        "remote attestation storm: one Figure-1 attestation per session"
    }

    fn deploy(&mut self, env: &mut ServiceEnv) -> Result<()> {
        let mut rng = SecureRng::seed_from_u64(env.seed);
        let epid = EpidGroup::new(1, &mut rng).map_err(TeenetError::Sgx)?;
        let mut platform = deploy_platform(env.backend, "load-attest-target", &epid, env.seed)
            .map_err(TeenetError::Sgx)?;
        let author =
            SigningKey::generate(&SchnorrGroup::small(), &mut rng).map_err(TeenetError::Crypto)?;
        let enclave = platform
            .create_signed(
                Box::new(AttestTarget {
                    responder: AttestResponder::new(self.config.clone()),
                }),
                &author,
                1,
            )
            .map_err(TeenetError::Sgx)?;
        self.deployed = Some(Deployed {
            platform,
            enclave,
            epid,
            rng,
        });
        Ok(())
    }

    fn set_transition_mode(
        &mut self,
        mode: TransitionMode,
        switchless: SwitchlessConfig,
    ) -> Result<()> {
        let state = self
            .deployed
            .as_mut()
            .ok_or(TeenetError::Protocol("attest service not deployed"))?;
        let enclave = state.enclave;
        // Configure before switching: entering switchless initialises the
        // worker pool from the configuration in force at that moment.
        state
            .platform
            .configure_switchless(enclave, switchless)
            .map_err(TeenetError::Sgx)?;
        state
            .platform
            .set_transition_mode(enclave, mode)
            .map_err(TeenetError::Sgx)
    }

    /// Setup is the target enclave's load cost alone: the quoting enclave
    /// only works during sessions, and the challenger is unmetered.
    fn setup_counts(&self) -> Result<OpCounts> {
        let state = self.state()?;
        state
            .platform
            .counts_of(state.enclave)
            .map_err(TeenetError::Sgx)
    }

    /// The server side of an attestation is the target enclave plus its
    /// platform's quoting enclave.
    fn server_counts(&self) -> Result<OpCounts> {
        let state = self.state()?;
        let mut total = state
            .platform
            .counts_of(state.enclave)
            .map_err(TeenetError::Sgx)?;
        total.merge(&state.platform.attestor_counts());
        Ok(total)
    }

    fn transition_stats(&self) -> Result<TransitionStats> {
        let state = self.state()?;
        state
            .platform
            .transition_stats_of(state.enclave)
            .map_err(TeenetError::Sgx)
    }

    fn session_script(&self, _env: &ServiceEnv) -> Result<Vec<StepSpec>> {
        Ok(vec![StepSpec::repeat("attest", 1)])
    }

    fn run_step(
        &mut self,
        _spec: &StepSpec,
        _request: StepRequest,
        _env: &mut ServiceEnv,
    ) -> Result<StepExecution> {
        let config = self.config.clone();
        let state = self
            .deployed
            .as_mut()
            .ok_or(TeenetError::Protocol("attest service not deployed"))?;

        // One real attestation, driven message by message so the wire
        // sizes are the true ones, not estimates.
        let (challenger, request) =
            Challenger::start(IdentityPolicy::AcceptAny, config, &mut state.rng)?;
        let request_wire = request.to_bytes();

        let mut begin_input = request_wire.clone();
        begin_input.extend_from_slice(&state.platform.attestation_target_info().mrenclave.0);
        let report_bytes = state
            .platform
            .ecall_nohost(state.enclave, 0, &begin_input)
            .map_err(TeenetError::Sgx)?;
        let report = Report::from_bytes(&report_bytes).map_err(TeenetError::Sgx)?;
        let evidence = state.platform.evidence(&report).map_err(TeenetError::Sgx)?;
        let mut finish_input = request.nonce.to_vec();
        finish_input.extend_from_slice(&evidence.to_bytes());
        let response_wire = state
            .platform
            .ecall_nohost(state.enclave, 1, &finish_input)
            .map_err(TeenetError::Sgx)?;
        let response = AttestResponse::from_bytes(&response_wire)?;
        let outcome = challenger.verify(&response, &state.epid.public_key(), None)?;

        Ok(StepExecution {
            request_bytes: request_wire.len(),
            response_bytes: response_wire.len(),
            client: outcome.counts,
            ..StepExecution::default()
        })
    }
}

impl From<AppError> for TeenetError {
    fn from(e: AppError) -> Self {
        TeenetError::Protocol(e.message())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teenet_app::{AppHarness, Calibration};
    use teenet_sgx::TeeBackend;

    fn calibrate(config: &AttestConfig, seed: u64, mode: TransitionMode) -> Calibration {
        AppHarness::new(seed, mode, TeeBackend::Sgx, SwitchlessConfig::default())
            .calibrate(&mut AttestService::new(config.clone()))
            .unwrap()
    }

    #[test]
    fn attest_profile_matches_table1_shape() {
        let profile = calibrate(&AttestConfig::fast(), 42, TransitionMode::Classic);
        assert_eq!(profile.ops.len(), 1);
        let step = &profile.ops[0];
        // With DH the target dominates the challenger (paper: 4463M vs
        // 348M at 1024 bits; the ratio holds at the fast 768-bit group).
        assert!(step.server.normal_instr > 2 * step.client.normal_instr);
        assert!(step.server.sgx_instr > 0);
        // Real wire sizes: request = 34 + |dh share|; response carries a
        // quote, so it is bigger than the request.
        assert_eq!(step.request_bytes, 34 + 96); // 768-bit share
        assert!(step.response_bytes > step.request_bytes);
    }

    #[test]
    fn attest_service_calibrates_on_vmtee() {
        let sgx = calibrate(&AttestConfig::fast(), 7, TransitionMode::Classic);
        let vm = AppHarness::new(
            7,
            TransitionMode::Classic,
            TeeBackend::VmTee,
            SwitchlessConfig::default(),
        )
        .calibrate(&mut AttestService::new(AttestConfig::fast()))
        .unwrap();
        assert_eq!(vm.backend, TeeBackend::VmTee);
        assert_eq!(vm.ops.len(), sgx.ops.len());
        // Same protocol either way; the VM-TEE evidence carries an
        // endorsement chain, so its response is strictly longer.
        assert_eq!(vm.ops[0].request_bytes, sgx.ops[0].request_bytes);
        assert!(vm.ops[0].response_bytes > sgx.ops[0].response_bytes);
    }

    #[test]
    fn no_dh_profile_is_much_cheaper() {
        let with_dh = calibrate(&AttestConfig::fast(), 1, TransitionMode::Classic);
        let config = AttestConfig::no_dh(teenet_crypto::dh::DhGroup::modp768());
        let without = calibrate(&config, 1, TransitionMode::Classic);
        assert!(
            with_dh.ops[0].server.normal_instr > 5 * without.ops[0].server.normal_instr,
            "DH must dominate the target cost"
        );
    }
}
