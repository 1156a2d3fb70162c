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
use std::sync::mpsc;
use std::{panic, thread};

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
#[derive(Debug, Clone, PartialEq, Eq)]
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
        average(&self.aslocal)
    }
}

/// The per-controller average of `counters` (zero when empty).
fn average(counters: &[Counters]) -> Counters {
    let n = counters.len().max(1) as u64;
    let mut sum = Counters::new();
    for c in counters {
        sum.merge(*c);
    }
    Counters {
        sgx_instr: sum.sgx_instr / n,
        normal_instr: sum.normal_instr / n,
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
    ///
    /// The two sides run as a two-stage pipeline. A scoped thread serves
    /// the controller's half (`ATTEST_BEGIN`, evidence, `ATTEST_FINISH`)
    /// in AS order while this thread issues every AS's `CONNECT`, then
    /// `COMPLETE`s the responses in order. Each platform sees the ecalls,
    /// inputs and order of a serial loop, so every counter, nonce and
    /// report byte is a serial loop's; the ledger records the ASes in
    /// order, each once its `COMPLETE` succeeds. On one core it costs
    /// about what the serial loop did.
    ///
    /// An `Err` is the one a serial loop returns: the lowest failing AS,
    /// and within it the first failing step. By then later ASes may
    /// already have run `CONNECT` and the controller their half, so the
    /// deployment is not reused after an error. A panic on either thread
    /// propagates.
    pub fn attest_all(&mut self) -> Result<()> {
        let qe_mr = self.controller_platform.attestation_target_info().mrenclave;
        let controller = &mut *self.controller_platform;
        let controller_enclave = self.controller_enclave;
        let (request_tx, request_rx) = mpsc::channel::<([u8; 32], Vec<u8>)>();
        let (response_tx, response_rx) = mpsc::channel();
        thread::scope(|scope| {
            let controller_side = scope.spawn(move || {
                for (nonce, begin_input) in request_rx {
                    let response =
                        attest_on_controller(controller, controller_enclave, nonce, &begin_input);
                    let failed = response.is_err();
                    // Stop at the first error, or once the AS side has
                    // stopped listening (a `COMPLETE` failed).
                    if response_tx.send(response).is_err() || failed {
                        break;
                    }
                }
            });
            // Message 1 from every AS-local enclave (the challenger).
            let mut connect_error = None;
            for i in 0..self.as_enclaves.len() {
                let connect =
                    self.as_platforms[i].ecall_nohost(self.as_enclaves[i], alc_fn::CONNECT, &[]);
                let mut request = match connect {
                    Ok(request) => request,
                    Err(e) => {
                        connect_error = Some(e);
                        break;
                    }
                };
                let nonce: [u8; 32] = request[..32].try_into().expect("nonce prefix");
                self.as_nonces[i] = Some(nonce);
                request.extend_from_slice(&qe_mr.0);
                if request_tx.send((nonce, request)).is_err() {
                    break; // the controller side stopped at an error
                }
            }
            drop(request_tx);
            // Message 9 back at each AS, in order.
            let completed = response_rx
                .iter()
                .enumerate()
                .try_for_each(|(i, response)| {
                    self.as_platforms[i].ecall_nohost(
                        self.as_enclaves[i],
                        alc_fn::COMPLETE,
                        &response?,
                    )?;
                    self.ledger.record(
                        AttestKind::InterdomainController,
                        i as u64,
                        u64::MAX, // the one controller
                    );
                    Ok(())
                });
            drop(response_rx);
            if let Err(panic) = controller_side.join() {
                panic::resume_unwind(panic);
            }
            completed.and(connect_error.map_or(Ok(()), Err))
        })
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

/// The controller's half of one attestation (messages 2–4 of Figure 2).
/// `begin_input` is the AS's request followed by the quoting enclave's
/// measurement; returns the response the AS `COMPLETE`s.
fn attest_on_controller(
    platform: &mut dyn TeePlatform,
    enclave: EnclaveId,
    nonce: [u8; 32],
    begin_input: &[u8],
) -> Result<Vec<u8>> {
    let report_bytes = platform.ecall_nohost(enclave, ic_fn::ATTEST_BEGIN, begin_input)?;
    let report = Report::from_bytes(&report_bytes)?;
    let evidence = platform.evidence(&report)?;
    let mut finish_input = nonce.to_vec();
    finish_input.extend_from_slice(&evidence.to_bytes());
    platform.ecall_nohost(enclave, ic_fn::ATTEST_FINISH, &finish_input)
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
        average(&self.aslocal)
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use teenet_sgx::{EnclaveCtx, EnclaveProgram, Measurement};

    const SEED: u64 = 42;

    fn deployment(n: u32) -> SdnDeployment {
        let t = Topology::random(n, &mut SecureRng::seed_from_u64(9));
        SdnDeployment::new(&t, &crate::default_policies(&t), AttestConfig::fast(), SEED).unwrap()
    }

    fn author() -> SigningKey {
        SigningKey::generate(&SchnorrGroup::small(), &mut SecureRng::seed_from_u64(7)).unwrap()
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// An enclave that answers every ecall with the same result.
    struct Canned(core::result::Result<Vec<u8>, SgxError>);

    impl EnclaveProgram for Canned {
        fn code_image(&self) -> Vec<u8> {
            b"canned".to_vec()
        }

        fn ecall(&mut self, _: &mut EnclaveCtx<'_>, _: u64, _: &[u8]) -> Result<Vec<u8>> {
            self.0.clone()
        }
    }

    /// An enclave whose every ecall panics.
    struct Panics;

    impl EnclaveProgram for Panics {
        fn code_image(&self) -> Vec<u8> {
            b"panics".to_vec()
        }

        fn ecall(&mut self, _: &mut EnclaveCtx<'_>, _: u64, _: &[u8]) -> Result<Vec<u8>> {
            panic!("enclave panicked")
        }
    }

    /// One way for AS `k`'s attestation to go wrong.
    #[derive(Debug, Clone, Copy)]
    enum Fault {
        /// AS `k`'s `CONNECT` fails.
        Connect,
        /// The controller rejects AS `k`'s request (`ATTEST_BEGIN`).
        Controller,
        /// AS `k` expects another controller measurement, so its
        /// `COMPLETE` fails.
        Complete,
    }

    fn with_fault(d: &mut SdnDeployment, k: usize, fault: Fault) {
        let epid = EpidGroup::new(1, &mut SecureRng::seed_from_u64(SEED)).unwrap();
        let program: Box<dyn EnclaveProgram> = match fault {
            Fault::Connect => Box::new(Canned(Err(SgxError::EcallRejected("refused")))),
            Fault::Controller => Box::new(Canned(Ok(vec![0; 64]))),
            Fault::Complete => Box::new(AsLocalController::new(
                LocalPolicy::new(AsId(k as u32)),
                Vec::new(),
                AttestConfig::fast(),
                Measurement([0xaa; 32]),
                epid.public_key(),
            )),
        };
        d.as_enclaves[k] = d.as_platforms[k]
            .create_signed(program, &author(), 1)
            .unwrap();
    }

    /// Runs `attest_all` on another thread and fails the test if it has
    /// not returned within a minute. A panic inside comes back as `Err`.
    fn attest_with_deadline(mut d: SdnDeployment) -> thread::Result<(Result<()>, SdnDeployment)> {
        let (tx, rx) = mpsc::channel();
        let runner = thread::spawn(move || {
            let outcome = d.attest_all();
            let _ = tx.send(());
            (outcome, d)
        });
        match rx.recv_timeout(Duration::from_secs(60)) {
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("attest_all did not return"),
            _ => runner.join(),
        }
    }

    /// Platform state after `attest_all` at seed 42 on a 10-AS topology,
    /// as the serial loop left it: every ecall, RNG draw and counter of
    /// the pipelined one must match.
    #[test]
    fn attest_all_leaves_pinned_platform_state() {
        const NONCES: [&str; 10] = [
            "66282c0620f488207c2e542336d572a31807d674f488299af868b03068ed0db3",
            "315523ca256b2d31c7b0c923c4a9d069431c3a67cfd756bfde3c93affa130581",
            "a9be55517bfc4205aa495bf7aec7a71e14a213cca11c5c3c8b5033bafa3dd574",
            "0253923694cf223329421d4749fbf69ce8c011af4b2fbbf4c25fa4633c6984ed",
            "138eb5e66c38d29c1432f078d3d3314e64b335d14fb4e5653f7443d8e2200b57",
            "302f82aa0f02af3867670c831f493ff1ed891b870539864f37afa6fb8a9d8294",
            "5a776f1a84455cbc4b3f19d18d71472449e9ba40d3ab1116936f964bc09409ac",
            "92f02c22e3f74397f0f5b263ae99d00461014abe8d87a84147c1873c7d02d3c0",
            "b0549964de17680aec24a127fc82d1183ff816c4462b7700419d52da9ff43743",
            "c15bd0fe1d0d10e151c51b38edfc5a47daaa94db9176d0b5243a7333b39bd085",
        ];
        let (outcome, d) = attest_with_deadline(deployment(10)).expect("no panic");
        outcome.unwrap();
        let controller = d.controller_enclave;
        assert_eq!(
            d.controller_platform.counters_of(controller).unwrap(),
            Counters {
                sgx_instr: 60,
                normal_instr: 42_085_020_560,
            }
        );
        assert_eq!(
            d.controller_platform
                .transition_stats_of(controller)
                .unwrap(),
            TransitionStats {
                taken: 20,
                ..TransitionStats::new()
            }
        );
        for (i, platform) in d.as_platforms.iter().enumerate() {
            assert_eq!(
                platform.counters_of(d.as_enclaves[i]).unwrap(),
                Counters {
                    sgx_instr: 12,
                    normal_instr: 218_500_486,
                },
                "AS{i}"
            );
        }
        let nonces: Vec<String> = d.as_nonces.iter().map(|n| hex(&n.unwrap())).collect();
        assert_eq!(nonces, NONCES);
        assert_eq!(d.ledger.rows(), [(AttestKind::InterdomainController, 10)]);
        assert_eq!(d.ledger.repeats_avoided(), 0);
        assert_eq!(
            d.transition_stats().unwrap(),
            TransitionStats {
                taken: 40,
                ..TransitionStats::new()
            }
        );
    }

    /// Faults at one AS, and at two where the lower one must win.
    #[test]
    fn a_failed_attestation_returns_the_serial_loops_error() {
        let bad_request = SgxError::EcallRejected("bad AttestRequest");
        let mismatch = SgxError::EcallRejected("controller attestation failed");
        let refused = SgxError::EcallRejected("refused");
        let cases: [(&[(usize, Fault)], &SgxError); 8] = [
            (&[(0, Fault::Connect)], &refused),
            (&[(0, Fault::Controller)], &bad_request),
            (&[(0, Fault::Complete)], &mismatch),
            (&[(5, Fault::Connect)], &refused),
            (&[(5, Fault::Controller)], &bad_request),
            (&[(5, Fault::Complete)], &mismatch),
            (&[(2, Fault::Complete), (5, Fault::Connect)], &mismatch),
            (&[(2, Fault::Controller), (5, Fault::Connect)], &bad_request),
        ];
        for (faults, expected) in cases {
            let mut d = deployment(10);
            for &(k, fault) in faults {
                with_fault(&mut d, k, fault);
            }
            let (outcome, d) = attest_with_deadline(d).expect("no panic");
            assert_eq!(outcome.as_ref(), Err(expected), "{faults:?}");
            assert_eq!(d.ledger.total(), faults[0].0 as u64, "{faults:?}");
        }
    }

    #[test]
    fn a_panic_on_either_side_propagates() {
        let mut as_side = deployment(10);
        as_side.as_enclaves[5] = as_side.as_platforms[5]
            .create_signed(Box::new(Panics), &author(), 1)
            .unwrap();
        let mut controller_side = deployment(10);
        controller_side.controller_enclave = controller_side
            .controller_platform
            .create_signed(Box::new(Panics), &author(), 1)
            .unwrap();
        for d in [as_side, controller_side] {
            let payload = attest_with_deadline(d).err().expect("a panic");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"enclave panicked"));
        }
    }
}
