//! The BGP announcement-churn workload as an [`EnclaveService`]: one
//! session is one AS's round of churn — submit the private policy to the
//! controller enclave, have the controller recompute, and pull the
//! freshly sealed routes back.
//!
//! Setup is the measured cost of bootstrapping: loading all enclaves and
//! mutually attesting every AS-local controller to the inter-domain
//! controller, plus one warm-up round (submit, compute, distribute) so
//! steady-state measurements see a warmed controller.
//!
//! Under [`TransitionMode::Switchless`] the controller's and every AS's
//! sealed-blob sends (ocall-shaped host crossings) ride the shared call
//! ring during steady state; setup (attestation, initial convergence)
//! always runs classic.

use std::collections::HashMap;

use teenet::AttestConfig;
use teenet_app::{AppError, EnclaveService, ServiceEnv, StepExecution, StepRequest, StepSpec};
use teenet_crypto::SecureRng;
use teenet_sgx::cost::OpCounts;
use teenet_sgx::{SgxError, SwitchlessConfig, TransitionMode, TransitionStats};

use crate::deployment::{Result, SdnDeployment};
use crate::topology::Topology;

/// The BGP announcement-churn workload on a random three-tier topology of
/// `n_ases` ASes, driven through [`teenet_app::AppHarness`].
pub struct BgpService {
    n_ases: u32,
    deployed: Option<SdnDeployment>,
}

impl BgpService {
    /// A service over a random topology of `n_ases` ASes (at least 3).
    pub fn new(n_ases: u32) -> Self {
        BgpService {
            n_ases,
            deployed: None,
        }
    }

    fn state(&self) -> Result<&SdnDeployment> {
        self.deployed
            .as_ref()
            .ok_or(SgxError::EcallRejected("bgp service not deployed"))
    }
}

impl Default for BgpService {
    fn default() -> Self {
        BgpService::new(8)
    }
}

impl EnclaveService for BgpService {
    type Error = SgxError;

    fn name(&self) -> &'static str {
        "bgp"
    }

    fn describe(&self) -> &'static str {
        "BGP announcement churn against the SGX inter-domain controller"
    }

    fn deploy(&mut self, env: &mut ServiceEnv) -> Result<()> {
        if self.n_ases < 3 {
            return Err(AppError::Calibration("need at least 3 ASes for a topology").into());
        }
        let mut rng = SecureRng::seed_from_u64(env.seed ^ 0x0062_6770);
        let topology = Topology::random(self.n_ases, &mut rng);
        let policies = HashMap::new();
        self.deployed = Some(SdnDeployment::with_backend(
            &topology,
            &policies,
            AttestConfig::fast(),
            env.seed,
            env.backend,
        )?);
        Ok(())
    }

    /// Mutual attestation of every AS to the controller, then one warm-up
    /// round (submit, compute, distribute) so steady-state measurements
    /// see a warmed controller.
    fn provision(&mut self, _env: &mut ServiceEnv) -> Result<()> {
        let dep = self
            .deployed
            .as_mut()
            .ok_or(SgxError::EcallRejected("bgp service not deployed"))?;
        dep.attest_all()?;
        dep.submit_all()?;
        dep.compute()?;
        dep.distribute_routes()?;
        Ok(())
    }

    fn set_transition_mode(
        &mut self,
        mode: TransitionMode,
        switchless: SwitchlessConfig,
    ) -> Result<()> {
        self.deployed
            .as_mut()
            .ok_or(SgxError::EcallRejected("bgp service not deployed"))?
            .set_transition_mode(mode, switchless)
    }

    fn server_counts(&self) -> Result<OpCounts> {
        Ok(self.state()?.controller_platform.total_counts())
    }

    /// The session's client is AS 0; steady-state steps only touch that
    /// platform, so the fleet-wide sum meters exactly the subject AS.
    fn client_counts(&self) -> Result<OpCounts> {
        let dep = self.state()?;
        let mut total = OpCounts::new();
        for p in &dep.as_platforms {
            total.merge(&p.total_counts());
        }
        Ok(total)
    }

    fn transition_stats(&self) -> Result<TransitionStats> {
        self.state()?.transition_stats()
    }

    fn session_script(&self, _env: &ServiceEnv) -> Result<Vec<StepSpec>> {
        Ok(vec![
            StepSpec::repeat("announce", 1),
            StepSpec::repeat("pull", 1),
        ])
    }

    fn run_step(
        &mut self,
        spec: &StepSpec,
        _request: StepRequest,
        _env: &mut ServiceEnv,
    ) -> Result<StepExecution> {
        let dep = self
            .deployed
            .as_mut()
            .ok_or(SgxError::EcallRejected("bgp service not deployed"))?;
        // Steady state: AS 0 re-announces and the controller recomputes.
        let subject = 0usize;
        match spec.name {
            "announce" => {
                let announce_wire = dep.submit_one(subject)?;
                dep.compute()?;
                Ok(StepExecution {
                    request_bytes: announce_wire,
                    // Message 5 is the controller's short sealed ack.
                    response_bytes: 64,
                    ..StepExecution::default()
                })
            }
            "pull" => {
                let (pull_wire, installed) = dep.pull_one(subject)?;
                if installed == 0 {
                    return Err(SgxError::EcallRejected(
                        "calibration AS must install routes",
                    ));
                }
                Ok(StepExecution {
                    // Message 6 is the AS's nonce-bearing pull request.
                    request_bytes: 32,
                    response_bytes: pull_wire,
                    ..StepExecution::default()
                })
            }
            _ => Err(SgxError::EcallRejected("unknown bgp step")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teenet_app::{AppHarness, Calibration};
    use teenet_sgx::TeeBackend;

    fn calibrate(seed: u64, n_ases: u32, mode: TransitionMode) -> Result<Calibration> {
        AppHarness::new(seed, mode, TeeBackend::Sgx, SwitchlessConfig::default())
            .calibrate(&mut BgpService::new(n_ases))
    }

    #[test]
    fn bgp_profile_shape() {
        let profile = calibrate(21, 8, TransitionMode::Classic).unwrap();
        assert_eq!(profile.ops.len(), 2);
        let announce = &profile.ops[0];
        let pull = &profile.ops[1];
        // The announce step includes a full path recomputation inside the
        // controller enclave — it must dominate the pull.
        assert!(announce.server.normal_instr > pull.server.normal_instr);
        assert!(announce.server.sgx_instr > 0);
        assert!(pull.client.sgx_instr > 0);
        // Sealed blobs have real sizes.
        assert!(announce.request_bytes > 0);
        assert!(pull.response_bytes > 0);
        // Bootstrapping (attestation of every AS) dwarfs one churn round.
        let mut session = profile.session_server_cost();
        session.merge(profile.session_client_cost());
        assert!(profile.setup.normal_instr > session.normal_instr);
    }

    #[test]
    fn tiny_topology_is_a_domain_error() {
        let err = calibrate(21, 2, TransitionMode::Classic).unwrap_err();
        assert_eq!(
            err,
            SgxError::EcallRejected("need at least 3 ASes for a topology")
        );
    }

    #[test]
    fn announcement_batch_amortises_controller_entries() {
        let mut rng = SecureRng::seed_from_u64(99);
        let topology = Topology::random(6, &mut rng);
        let policies = HashMap::new();
        let mut dep = SdnDeployment::new(&topology, &policies, AttestConfig::fast(), 99).unwrap();
        dep.attest_all().unwrap();
        let t0 = dep.transition_stats().unwrap();
        dep.submit_batch(&[0, 1, 2]).unwrap();
        let batch = dep.transition_stats().unwrap().since(t0);
        let t1 = dep.transition_stats().unwrap();
        for i in 3..6 {
            dep.submit_one(i).unwrap();
        }
        let sequential = dep.transition_stats().unwrap().since(t1);
        assert!(
            batch.taken < sequential.taken,
            "one controller entry for the whole batch vs one per announcement"
        );
        assert_eq!(batch.elided, 2, "N-1 controller entries amortised away");
    }
}
