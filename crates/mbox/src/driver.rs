//! The TLS-middlebox record-traffic workload as an
//! [`EnclaveService`].
//!
//! Setup covers enclave deployment plus a unilateral key provisioning
//! (one attestation). One session is `records_per_session` TLS records of
//! `record_bytes` application payload flowing client→server through the
//! in-enclave DPI engine. The per-record enclave cost is measured on a
//! real record; the client cost is the record encryption under the
//! paper's model.
//!
//! Under [`TransitionMode::Switchless`] records flow through the batched
//! ecall path ([`MiddleboxHost::process_batch`]): the first record of a
//! session carries the lone EENTER/EEXIT pair, and every further record
//! is a transition-free marginal cost, measured by the harness as
//! batch-of-two minus batch-of-one — the per-record amortisation of the
//! paper's Table 2.

use teenet::AttestConfig;
use teenet_app::{AppError, EnclaveService, ServiceEnv, StepExecution, StepRequest, StepSpec};
use teenet_crypto::SecureRng;
use teenet_sgx::cost::OpCounts;
use teenet_sgx::{EpidGroup, SwitchlessConfig, TransitionMode, TransitionStats};
use teenet_tls::handshake::{handshake, TlsConfig};
use teenet_tls::TlsSession;

use crate::dpi::{Action, Rule};
use crate::middlebox::ProvisionPolicy;
use crate::provision::EndpointRole;
use crate::scenarios::{MiddleboxHost, ProcessResult};
use crate::{MboxError, Result};

struct Deployed {
    gateway: MiddleboxHost,
    rng: SecureRng,
    srng: SecureRng,
    client: Option<TlsSession>,
    sid: [u8; 8],
}

/// The middlebox record-traffic workload: in-enclave DPI over provisioned
/// TLS sessions, driven through [`teenet_app::AppHarness`].
pub struct TlsMboxService {
    record_bytes: usize,
    records_per_session: u32,
    deployed: Option<Deployed>,
}

impl TlsMboxService {
    /// A service pushing `records_per_session` records of `record_bytes`
    /// payload through the gateway per session.
    pub fn new(record_bytes: usize, records_per_session: u32) -> Self {
        TlsMboxService {
            record_bytes,
            records_per_session,
            deployed: None,
        }
    }

    fn state(&self) -> Result<&Deployed> {
        self.deployed
            .as_ref()
            .ok_or(MboxError::Session("middlebox service not deployed"))
    }
}

impl Default for TlsMboxService {
    fn default() -> Self {
        TlsMboxService::new(1024, 4)
    }
}

impl EnclaveService for TlsMboxService {
    type Error = MboxError;

    fn name(&self) -> &'static str {
        "tls"
    }

    fn describe(&self) -> &'static str {
        "TLS middlebox record traffic: in-enclave DPI on provisioned sessions"
    }

    fn deploy(&mut self, env: &mut ServiceEnv) -> Result<()> {
        let mut rng = SecureRng::seed_from_u64(env.seed);
        let srng = rng.fork(b"tls-server");
        let epid = EpidGroup::new(7, &mut rng).map_err(MboxError::Sgx)?;
        let gateway = MiddleboxHost::deploy_backend(
            env.backend,
            "load-gateway",
            ProvisionPolicy::Unilateral,
            vec![Rule::new(b"password", Action::Alert)],
            AttestConfig::fast(),
            &epid,
            env.seed,
            &mut rng,
        )?;
        self.deployed = Some(Deployed {
            gateway,
            rng,
            srng,
            client: None,
            sid: [0; 8],
        });
        Ok(())
    }

    /// One endpoint handshake plus a unilateral key provisioning: the
    /// client attests the gateway and releases its session keys.
    fn provision(&mut self, env: &mut ServiceEnv) -> Result<()> {
        let state = self
            .deployed
            .as_mut()
            .ok_or(MboxError::Session("middlebox service not deployed"))?;
        let (client, _server) = handshake(TlsConfig::fast(), &mut state.rng, &mut state.srng)
            .map_err(|e| MboxError::Session(tls_err(e)))?;
        let (sid, active) = state.gateway.provision(
            EndpointRole::Client,
            &client,
            &mut state.rng,
            &mut env.ledger,
        )?;
        if !active {
            return Err(MboxError::Session("provisioned session failed to activate"));
        }
        state.client = Some(client);
        state.sid = sid;
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
            .ok_or(MboxError::Session("middlebox service not deployed"))?;
        let enclave = state.gateway.enclave;
        // Configure before switching: entering switchless initialises the
        // worker pool from the configuration in force at that moment.
        state
            .gateway
            .platform
            .configure_switchless(enclave, switchless)
            .map_err(MboxError::Sgx)?;
        state
            .gateway
            .platform
            .set_transition_mode(enclave, mode)
            .map_err(MboxError::Sgx)
    }

    fn server_counts(&self) -> Result<OpCounts> {
        Ok(self.state()?.gateway.platform.total_counts())
    }

    fn transition_stats(&self) -> Result<TransitionStats> {
        let state = self.state()?;
        state
            .gateway
            .platform
            .transition_stats_of(state.gateway.enclave)
            .map_err(MboxError::Sgx)
    }

    fn session_script(&self, env: &ServiceEnv) -> Result<Vec<StepSpec>> {
        if self.records_per_session == 0 {
            return Err(MboxError::Calibration("a session needs at least 1 record"));
        }
        Ok(vec![match env.mode {
            TransitionMode::Classic => StepSpec::repeat("record", self.records_per_session),
            TransitionMode::Switchless => StepSpec::amortised("record", self.records_per_session),
        }])
    }

    fn run_step(
        &mut self,
        _spec: &StepSpec,
        request: StepRequest,
        _env: &mut ServiceEnv,
    ) -> Result<StepExecution> {
        let payload = vec![0x61u8; self.record_bytes];
        let state = self
            .deployed
            .as_mut()
            .ok_or(MboxError::Session("middlebox service not deployed"))?;
        let client = state
            .client
            .as_mut()
            .ok_or(MboxError::Session("middlebox session not provisioned"))?;

        let count = match request {
            StepRequest::Once => 1,
            StepRequest::Batch(k) => k,
        };
        let mut records = Vec::new();
        for _ in 0..count {
            records.push(
                client
                    .send(&payload)
                    .map_err(|e| MboxError::Session(tls_err(e)))?,
            );
        }
        let record_len = records.first().map(Vec::len).unwrap_or(0);

        match request {
            StepRequest::Once => {
                let record = records
                    .first()
                    .ok_or(MboxError::Session("empty record batch"))?;
                expect_pass(
                    state
                        .gateway
                        .process(state.sid, EndpointRole::Client, record)?,
                )?;
            }
            StepRequest::Batch(_) => {
                let refs: Vec<&[u8]> = records.iter().map(Vec::as_slice).collect();
                for r in state
                    .gateway
                    .process_batch(state.sid, EndpointRole::Client, &refs)?
                {
                    expect_pass(r)?;
                }
            }
        }

        // Modelled client side: one record encryption and its MAC per
        // record in the batch.
        let mut client = OpCounts::new();
        for _ in 0..count {
            client.aes_hmac(record_len);
        }
        Ok(StepExecution {
            request_bytes: record_len,
            // The middlebox forwards the record onward; model the
            // ack/continue signal back to the sender as a bare status byte.
            response_bytes: 1,
            client,
            ..StepExecution::default()
        })
    }
}

impl From<AppError> for MboxError {
    fn from(e: AppError) -> Self {
        match e {
            AppError::Calibration(m) => MboxError::Calibration(m),
            AppError::Harness(m) => MboxError::Session(m),
        }
    }
}

fn expect_pass(result: ProcessResult) -> Result<()> {
    match result {
        ProcessResult::Pass(_) | ProcessResult::Rewritten(_) => Ok(()),
        ProcessResult::Blocked => Err(MboxError::Session("calibration record blocked")),
    }
}

fn tls_err(_e: teenet_tls::TlsError) -> &'static str {
    "tls failure during calibration"
}

#[cfg(test)]
mod tests {
    use super::*;
    use teenet_app::{AppHarness, Calibration};
    use teenet_sgx::TeeBackend;

    fn calibrate(
        seed: u64,
        record_bytes: usize,
        records_per_session: u32,
        mode: TransitionMode,
    ) -> Result<Calibration> {
        AppHarness::new(seed, mode, TeeBackend::Sgx, SwitchlessConfig::default())
            .calibrate(&mut TlsMboxService::new(record_bytes, records_per_session))
    }

    #[test]
    fn mbox_profile_shape() {
        let profile = calibrate(3, 1024, 4, TransitionMode::Classic).unwrap();
        assert_eq!(profile.ops.len(), 4);
        let step = &profile.ops[0];
        // Provisioning includes an attestation, so setup dwarfs a record.
        assert!(profile.setup.normal_instr > step.server.normal_instr);
        // In-enclave processing costs SGX instructions (ecall transitions).
        assert!(step.server.sgx_instr > 0);
        // Record is payload plus TLS framing overhead.
        assert!(step.request_bytes > 1024);
    }

    #[test]
    fn zero_record_session_is_a_domain_error() {
        let err = calibrate(3, 1024, 0, TransitionMode::Classic).unwrap_err();
        assert_eq!(
            err,
            MboxError::Calibration("a session needs at least 1 record")
        );
        let err = calibrate(3, 1024, 0, TransitionMode::Switchless).unwrap_err();
        assert!(matches!(err, MboxError::Calibration(_)));
    }

    #[test]
    fn bigger_records_cost_more() {
        let small = calibrate(5, 256, 1, TransitionMode::Classic).unwrap();
        let large = calibrate(5, 4096, 1, TransitionMode::Classic).unwrap();
        assert!(
            large.ops[0].server.normal_instr > small.ops[0].server.normal_instr,
            "DPI over a longer record must cost more"
        );
        assert!(large.ops[0].client.normal_instr > small.ops[0].client.normal_instr);
    }
}
