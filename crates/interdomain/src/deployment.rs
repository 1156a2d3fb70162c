//! The full SDN inter-domain routing deployment (Figure 2 end to end).
//!
//! One SGX platform hosts the inter-domain controller; every AS runs its
//! AS-local controller on its own platform. The untrusted "network" between
//! them is this driver, which only ever ferries opaque bytes — attestation
//! messages and channel ciphertexts — mirroring the paper's trust model.
//!
//! Also provides [`run_native`], the non-SGX baseline that executes the
//! identical workload without enclaves, which is the "w/o SGX" column of
//! Table 4 and the lower curve of Figure 3.

use std::collections::HashMap;

use teenet::attest::AttestConfig;
use teenet::ledger::{AttestKind, AttestLedger};
use teenet_crypto::schnorr::{SchnorrGroup, SigningKey};
use teenet_crypto::SecureRng;
use teenet_sgx::cost::Counters;
use teenet_sgx::{
    deploy_platform, EnclaveId, EpidGroup, Report, SgxError, SwitchlessConfig, TeeBackend,
    TeePlatform, TransitionMode, TransitionStats,
};

use crate::compute::{compute_routes, RoutingOutcome};
use crate::controller::{alc_fn, ic_fn, AsLocalController, InterdomainController};
use crate::cost;
use crate::policy::LocalPolicy;
use crate::predicate::Predicate;
use crate::topology::{AsId, Topology};

/// Result alias.
pub type Result<T> = core::result::Result<T, SgxError>;

/// Counters split the way Table 4 reports them.
#[derive(Debug, Clone)]
pub struct SdnReport {
    /// Steady-state counters of the inter-domain controller enclave.
    pub interdomain: Counters,
    /// Steady-state counters per AS-local controller enclave.
    pub aslocal: Vec<Counters>,
    /// Routes installed per AS.
    pub routes_installed: Vec<u32>,
    /// Remote attestations performed during setup.
    pub attestations: u64,
}

impl SdnReport {
    /// Average AS-local counters (the paper reports "the average of 30
    /// controllers").
    pub fn aslocal_avg(&self) -> Counters {
        if self.aslocal.is_empty() {
            return Counters::new();
        }
        let mut sum = Counters::new();
        for c in &self.aslocal {
            sum.merge(*c);
        }
        Counters {
            sgx_instr: sum.sgx_instr / self.aslocal.len() as u64,
            normal_instr: sum.normal_instr / self.aslocal.len() as u64,
        }
    }
}

/// A deployed SGX inter-domain routing system.
pub struct SdnDeployment {
    /// Platform hosting the inter-domain controller.
    pub controller_platform: Box<dyn TeePlatform>,
    /// One platform per AS.
    pub as_platforms: Vec<Box<dyn TeePlatform>>,
    controller_enclave: EnclaveId,
    as_enclaves: Vec<EnclaveId>,
    as_nonces: Vec<Option<[u8; 32]>>,
    /// Attestation accounting (Table 3).
    pub ledger: AttestLedger,
    topology: Topology,
}

impl SdnDeployment {
    /// Builds platforms and loads controller enclaves for `topology` with
    /// the given private `policies`.
    pub fn new(
        topology: &Topology,
        policies: &HashMap<AsId, LocalPolicy>,
        config: AttestConfig,
        seed: u64,
    ) -> Result<Self> {
        Self::with_backend(topology, policies, config, seed, TeeBackend::Sgx)
    }

    /// [`SdnDeployment::new`] on an explicit TEE backend.
    pub fn with_backend(
        topology: &Topology,
        policies: &HashMap<AsId, LocalPolicy>,
        config: AttestConfig,
        seed: u64,
        backend: TeeBackend,
    ) -> Result<Self> {
        let mut rng = SecureRng::seed_from_u64(seed);
        let epid = EpidGroup::new(1, &mut rng)?;
        let author = SigningKey::generate(&SchnorrGroup::small(), &mut rng)?;
        let expected = InterdomainController::expected_measurement(&config);

        let mut controller_platform =
            deploy_platform(backend, "interdomain-controller", &epid, seed)?;
        let controller_enclave = controller_platform.create_signed(
            Box::new(InterdomainController::new(config.clone())),
            &author,
            1,
        )?;

        let mut as_platforms = Vec::with_capacity(topology.len());
        let mut as_enclaves = Vec::with_capacity(topology.len());
        for as_id in topology.ases() {
            let mut platform = deploy_platform(
                backend,
                &format!("as-{}", as_id.0),
                &epid,
                seed + 1 + as_id.0 as u64,
            )?;
            let local_edges: Vec<_> = topology
                .edges()
                .iter()
                .copied()
                .filter(|&(a, b, _)| a == as_id || b == as_id)
                .collect();
            let policy = policies
                .get(&as_id)
                .cloned()
                .unwrap_or_else(|| LocalPolicy::new(as_id));
            let program = AsLocalController::new(
                policy,
                local_edges,
                config.clone(),
                expected,
                epid.public_key(),
            );
            let enclave = platform.create_signed(Box::new(program), &author, 1)?;
            as_platforms.push(platform);
            as_enclaves.push(enclave);
        }

        Ok(SdnDeployment {
            controller_platform,
            as_platforms,
            controller_enclave,
            as_enclaves,
            as_nonces: vec![None; topology.len()],
            ledger: AttestLedger::new(),
            topology: topology.clone(),
        })
    }

    /// Phase 1 (messages 1–4 of Figure 2): every AS-local controller
    /// attests the inter-domain controller and bootstraps its channel.
    pub fn attest_all(&mut self) -> Result<()> {
        let qe_mr = self.controller_platform.attestation_target_info().mrenclave;
        for i in 0..self.as_enclaves.len() {
            // Message 1 from the AS-local enclave (the challenger).
            let request =
                self.as_platforms[i].ecall_nohost(self.as_enclaves[i], alc_fn::CONNECT, &[])?;
            let nonce: [u8; 32] = request[..32].try_into().expect("nonce prefix");
            self.as_nonces[i] = Some(nonce);
            // Messages 2–4 on the controller platform.
            let mut begin_input = request.clone();
            begin_input.extend_from_slice(&qe_mr.0);
            let report_bytes = self.controller_platform.ecall_nohost(
                self.controller_enclave,
                ic_fn::ATTEST_BEGIN,
                &begin_input,
            )?;
            let report = Report::from_bytes(&report_bytes)?;
            let evidence = self.controller_platform.evidence(&report)?;
            let mut finish_input = nonce.to_vec();
            finish_input.extend_from_slice(&evidence.to_bytes());
            let response = self.controller_platform.ecall_nohost(
                self.controller_enclave,
                ic_fn::ATTEST_FINISH,
                &finish_input,
            )?;
            // Message 9 back at the AS.
            self.as_platforms[i].ecall_nohost(self.as_enclaves[i], alc_fn::COMPLETE, &response)?;
            self.ledger.record(
                AttestKind::InterdomainController,
                i as u64,
                u64::MAX, // the one controller
            );
        }
        Ok(())
    }

    /// Excludes setup costs, as the paper's Table 4 does ("we exclude the
    /// cost of enclave initialization and remote attestation").
    pub fn reset_counters(&mut self) -> Result<()> {
        self.controller_platform
            .reset_counters(self.controller_enclave)?;
        for i in 0..self.as_enclaves.len() {
            self.as_platforms[i].reset_counters(self.as_enclaves[i])?;
        }
        Ok(())
    }

    /// Phase 2 (message 5): policies and local topology flow to the
    /// controller through the secure channels.
    pub fn submit_all(&mut self) -> Result<()> {
        for i in 0..self.as_enclaves.len() {
            self.submit_one(i)?;
        }
        Ok(())
    }

    /// Submits AS `i`'s policy alone (one message-4/5 exchange). Returns
    /// the sealed policy blob's wire size; used by the load-calibration
    /// driver to measure a single announcement.
    pub fn submit_one(&mut self, i: usize) -> Result<usize> {
        let sealed =
            self.as_platforms[i].ecall_nohost(self.as_enclaves[i], alc_fn::SUBMIT_POLICY, &[])?;
        let wire = sealed.len();
        let nonce = self.as_nonces[i].expect("attested");
        let mut input = nonce.to_vec();
        input.extend_from_slice(&sealed);
        self.controller_platform
            .ecall_nohost(self.controller_enclave, ic_fn::SUBMIT, &input)?;
        Ok(wire)
    }

    /// Submits the policies of several ASes as **one announcement batch**:
    /// each AS seals its policy locally, then all sealed blobs enter the
    /// controller under a single EENTER/EEXIT pair
    /// ([`teenet_sgx::TeePlatform::ecall_batch`]). Returns each
    /// sealed blob's wire size.
    pub fn submit_batch(&mut self, indices: &[usize]) -> Result<Vec<usize>> {
        let mut calls = Vec::with_capacity(indices.len());
        let mut wires = Vec::with_capacity(indices.len());
        for &i in indices {
            let sealed = self.as_platforms[i].ecall_nohost(
                self.as_enclaves[i],
                alc_fn::SUBMIT_POLICY,
                &[],
            )?;
            wires.push(sealed.len());
            let nonce = self.as_nonces[i].expect("attested");
            let mut input = nonce.to_vec();
            input.extend_from_slice(&sealed);
            calls.push((ic_fn::SUBMIT, input));
        }
        self.controller_platform
            .ecall_batch_nohost(self.controller_enclave, &calls)?;
        Ok(wires)
    }

    /// Sets the transition mode of the controller enclave and every
    /// AS-local enclave, configuring each switchless ring first so the
    /// worker pools initialise from `switchless`.
    pub fn set_transition_mode(
        &mut self,
        mode: TransitionMode,
        switchless: SwitchlessConfig,
    ) -> Result<()> {
        self.controller_platform
            .configure_switchless(self.controller_enclave, switchless)?;
        self.controller_platform
            .set_transition_mode(self.controller_enclave, mode)?;
        for i in 0..self.as_enclaves.len() {
            self.as_platforms[i].configure_switchless(self.as_enclaves[i], switchless)?;
            self.as_platforms[i].set_transition_mode(self.as_enclaves[i], mode)?;
        }
        Ok(())
    }

    /// Combined crossing statistics: controller enclave plus every
    /// AS-local enclave.
    pub fn transition_stats(&self) -> Result<TransitionStats> {
        let mut total = self
            .controller_platform
            .transition_stats_of(self.controller_enclave)?;
        for i in 0..self.as_enclaves.len() {
            total.merge(self.as_platforms[i].transition_stats_of(self.as_enclaves[i])?);
        }
        Ok(total)
    }

    /// Phase 3 (message 6 prep): the controller computes paths for all
    /// ASes inside its enclave.
    pub fn compute(&mut self) -> Result<()> {
        self.controller_platform
            .ecall_nohost(self.controller_enclave, ic_fn::COMPUTE, &[])?;
        Ok(())
    }

    /// Phase 4 (messages 6–7): each AS pulls and installs its routes.
    /// Returns installed route counts.
    pub fn distribute_routes(&mut self) -> Result<Vec<u32>> {
        let mut counts = Vec::with_capacity(self.as_enclaves.len());
        for i in 0..self.as_enclaves.len() {
            counts.push(self.pull_one(i)?.1);
        }
        Ok(counts)
    }

    /// AS `i` pulls and installs its routes alone (messages 6–7 for one
    /// AS). Returns the sealed route blob's wire size and the installed
    /// route count; used by the load-calibration driver.
    pub fn pull_one(&mut self, i: usize) -> Result<(usize, u32)> {
        let nonce = self.as_nonces[i].expect("attested");
        let sealed = self.controller_platform.ecall_nohost(
            self.controller_enclave,
            ic_fn::GET_ROUTES,
            &nonce,
        )?;
        let count_bytes = self.as_platforms[i].ecall_nohost(
            self.as_enclaves[i],
            alc_fn::INSTALL_ROUTES,
            &sealed,
        )?;
        let count = u32::from_le_bytes(count_bytes[..4].try_into().expect("4"));
        Ok((sealed.len(), count))
    }

    /// Messages 8–9: submit a two-party verification predicate on behalf
    /// of AS `i`; returns the status byte
    /// (see [`crate::controller::verify_status`]).
    pub fn verify_predicate(
        &mut self,
        i: usize,
        party_a: AsId,
        party_b: AsId,
        predicate: &Predicate,
    ) -> Result<u8> {
        let mut plain = Vec::new();
        plain.extend_from_slice(&party_a.0.to_le_bytes());
        plain.extend_from_slice(&party_b.0.to_le_bytes());
        plain.extend_from_slice(&predicate.to_bytes());
        let sealed =
            self.as_platforms[i].ecall_nohost(self.as_enclaves[i], alc_fn::MAKE_VERIFY, &plain)?;
        let nonce = self.as_nonces[i].expect("attested");
        let mut input = nonce.to_vec();
        input.extend_from_slice(&sealed);
        let sealed_resp = self.controller_platform.ecall_nohost(
            self.controller_enclave,
            ic_fn::VERIFY,
            &input,
        )?;
        let status = self.as_platforms[i].ecall_nohost(
            self.as_enclaves[i],
            alc_fn::READ_VERIFY,
            &sealed_resp,
        )?;
        Ok(status[0])
    }

    /// Runs the whole Figure 2 flow and reports Table 4-style counters
    /// (setup excluded).
    pub fn run(&mut self) -> Result<SdnReport> {
        self.attest_all()?;
        let attestations = self.ledger.total();
        self.reset_counters()?;
        self.submit_all()?;
        self.compute()?;
        let routes_installed = self.distribute_routes()?;
        let interdomain = self
            .controller_platform
            .counters_of(self.controller_enclave)?;
        let mut aslocal = Vec::with_capacity(self.as_enclaves.len());
        for i in 0..self.as_enclaves.len() {
            aslocal.push(self.as_platforms[i].counters_of(self.as_enclaves[i])?);
        }
        Ok(SdnReport {
            interdomain,
            aslocal,
            routes_installed,
            attestations,
        })
    }

    /// The number of ASes.
    pub fn as_count(&self) -> usize {
        self.topology.len()
    }
}

/// Counters for the native (non-SGX) baseline of Table 4.
#[derive(Debug, Clone)]
pub struct NativeReport {
    /// Inter-domain controller normal instructions.
    pub interdomain: Counters,
    /// Per-AS normal instructions.
    pub aslocal: Vec<Counters>,
    /// The routing outcome (for correctness checks against the enclave
    /// run).
    pub outcome: RoutingOutcome,
}

impl NativeReport {
    /// Average AS-local counters.
    pub fn aslocal_avg(&self) -> Counters {
        if self.aslocal.is_empty() {
            return Counters::new();
        }
        let mut sum = Counters::new();
        for c in &self.aslocal {
            sum.merge(*c);
        }
        Counters {
            sgx_instr: 0,
            normal_instr: sum.normal_instr / self.aslocal.len() as u64,
        }
    }
}

/// Executes the identical routing workload natively ("w/o SGX"): same
/// computation, same per-unit costs, no enclave overheads.
pub fn run_native(topology: &Topology, policies: &HashMap<AsId, LocalPolicy>) -> NativeReport {
    let outcome = compute_routes(topology, policies);
    let mut interdomain = Counters::new();
    interdomain.normal(outcome.work_units * cost::ROUTE_EVAL_COST);
    let mut aslocal = Vec::with_capacity(topology.len());
    for as_id in topology.ases() {
        let mut c = Counters::new();
        c.normal(cost::ASLOCAL_BASE_COST);
        let n_routes = outcome.routes_of(as_id).len() as u64;
        c.normal(n_routes * cost::FIB_INSTALL_COST);
        aslocal.push(c);
    }
    NativeReport {
        interdomain,
        aslocal,
        outcome,
    }
}
