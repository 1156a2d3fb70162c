//! The two enclave programs of Figure 2: the inter-domain controller and
//! the AS-local controller.
//!
//! "Our core idea is to enclose all private information inside the
//! enclaves and allow all communication to happen between enclaves through
//! a secure channel." (§3.1) The AS-local controller attests the
//! inter-domain controller (whose source all ASes have inspected and built
//! deterministically), then ships its private policy and local topology
//! over the bootstrapped channel; the controller computes routes for
//! everyone, returns each AS its own routes, and answers two-party
//! verification queries.

use std::collections::HashMap;

use teenet::attest::{AttestConfig, AttestRequest, AttestResponse, Challenger, TargetAttestor};
use teenet::channel::SecureChannel;
use teenet::identity::IdentityPolicy;
use teenet_crypto::schnorr::VerifyingKey;
use teenet_crypto::SecureRng;
use teenet_sgx::cost::Op;
use teenet_sgx::report::TargetInfo;
use teenet_sgx::{EnclaveCtx, EnclaveProgram, Evidence, Measurement, SgxError};

use crate::compute::{compute_routes, RoutingOutcome};
use crate::policy::LocalPolicy;
use crate::predicate::Predicate;
use crate::topology::{AsId, EdgeKind, EdgeList, Topology};
use crate::verify::{VerificationModule, VerifyStatus};
use crate::wire;

/// Heap bytes one BGP work unit allocates inside the enclave (candidate
/// route clones, path vectors, RIB entries). Drives the page-extension
/// traps that dominate the controller's SGX-instruction count (Table 4
/// reports 1448 SGX(U) instructions for the 30-AS run).
const HEAP_BYTES_PER_WORK_UNIT: usize = 560;

/// Heap bytes one installed route allocates in the AS-local controller's
/// FIB (Table 4 reports 42 SGX(U) instructions per AS-local controller).
const HEAP_BYTES_PER_ROUTE: usize = 2_048;

/// Ecall function ids of the inter-domain controller.
pub mod ic_fn {
    /// Attestation step 1 (input: AttestRequest ‖ QE measurement).
    pub const ATTEST_BEGIN: u64 = 0;
    /// Attestation step 2 (input: nonce ‖ Evidence).
    pub const ATTEST_FINISH: u64 = 1;
    /// Policy/topology submission (input: nonce ‖ sealed submission).
    pub const SUBMIT: u64 = 2;
    /// Path computation over all submissions (input: empty).
    pub const COMPUTE: u64 = 3;
    /// Fetch an AS's routes (input: nonce) → sealed route list.
    pub const GET_ROUTES: u64 = 4;
    /// Two-party predicate verification (input: nonce ‖ sealed request).
    pub const VERIFY: u64 = 5;
}

/// Ecall function ids of the AS-local controller.
pub mod alc_fn {
    /// Start attestation of the inter-domain controller → AttestRequest.
    pub const CONNECT: u64 = 0;
    /// Finish attestation (input: AttestResponse) → sealed submission.
    pub const COMPLETE: u64 = 1;
    /// Install routes (input: sealed route list) → route count (u32).
    pub const INSTALL_ROUTES: u64 = 2;
    /// Build a sealed verification request (input: party_a ‖ party_b ‖
    /// predicate).
    pub const MAKE_VERIFY: u64 = 3;
    /// Open a sealed verification response → status byte.
    pub const READ_VERIFY: u64 = 4;
    /// Build the sealed policy/topology submission (steady-state work,
    /// separated from COMPLETE so attestation can be excluded from
    /// measurements as the paper does).
    pub const SUBMIT_POLICY: u64 = 5;
}

/// Verification response status bytes.
pub mod verify_status {
    /// Waiting for the counterparty's matching submission.
    pub const PENDING: u8 = 0;
    /// Verified: the promise holds.
    pub const TRUE: u8 = 1;
    /// Verified: the promise is broken.
    pub const FALSE: u8 = 2;
}

type Nonce = [u8; 32];

fn nonce_of(input: &[u8]) -> Result<(Nonce, &[u8]), SgxError> {
    if input.len() < 32 {
        return Err(SgxError::EcallRejected("missing session nonce"));
    }
    let (n, rest) = input.split_at(32);
    let n = n
        .try_into()
        .map_err(|_| SgxError::EcallRejected("bad session nonce"))?;
    Ok((n, rest))
}

struct Session {
    channel: SecureChannel,
    as_id: Option<AsId>,
}

/// The inter-domain controller enclave program.
///
/// Its [`code_image`](EnclaveProgram::code_image) covers the version string
/// and configuration — the "common code base for the inter-domain
/// controller that they agree upon"; any behavioural modification (the
/// tests build a tampered `leaky_variant`) changes the measurement and is
/// caught by attestation.
pub struct InterdomainController {
    attest_config: AttestConfig,
    pending_attest: HashMap<Nonce, TargetAttestor>,
    sessions: HashMap<Nonce, Session>,
    submissions: HashMap<AsId, (LocalPolicy, EdgeList)>,
    outcome: Option<RoutingOutcome>,
    verifier: VerificationModule,
    /// Marker used only to build a tampered variant for tests: a
    /// behaviourally different binary with a different measurement.
    leaky: bool,
}

impl InterdomainController {
    /// A fresh controller accepting attestation under `config`.
    pub fn new(config: AttestConfig) -> Self {
        InterdomainController {
            attest_config: config,
            pending_attest: HashMap::new(),
            sessions: HashMap::new(),
            submissions: HashMap::new(),
            outcome: None,
            verifier: VerificationModule::new(),
            leaky: false,
        }
    }

    /// The measurement ASes agree upon after inspecting + deterministically
    /// building the controller source (what they configure as the expected
    /// identity).
    pub fn expected_measurement(config: &AttestConfig) -> Measurement {
        teenet_sgx::measure_image(&Self::image(false, config))
    }

    fn image(leaky: bool, config: &AttestConfig) -> Vec<u8> {
        let mut image = Vec::new();
        image.extend_from_slice(b"teenet-interdomain-controller-v1");
        image.push(config.with_dh as u8);
        image.extend_from_slice(&(config.group.bits as u32).to_le_bytes());
        if leaky {
            // The extra "exfiltration code" of a tampered build.
            image.extend_from_slice(b"\x90\x90leak-policies-to-sponsor");
        }
        image
    }

    fn session_mut(&mut self, nonce: &Nonce) -> Result<&mut Session, SgxError> {
        self.sessions
            .get_mut(nonce)
            .ok_or(SgxError::EcallRejected("unknown session"))
    }
}

impl EnclaveProgram for InterdomainController {
    fn code_image(&self) -> Vec<u8> {
        Self::image(self.leaky, &self.attest_config)
    }

    fn ecall(
        &mut self,
        ctx: &mut EnclaveCtx<'_>,
        fn_id: u64,
        input: &[u8],
    ) -> Result<Vec<u8>, SgxError> {
        match fn_id {
            ic_fn::ATTEST_BEGIN => {
                if input.len() < 32 {
                    return Err(SgxError::EcallRejected("short attest input"));
                }
                let (req_bytes, qe) = input.split_at(input.len() - 32);
                let request = AttestRequest::from_bytes(req_bytes)
                    .map_err(|_| SgxError::EcallRejected("bad AttestRequest"))?;
                let qe_target = TargetInfo {
                    mrenclave: Measurement(
                        qe.try_into()
                            .map_err(|_| SgxError::EcallRejected("bad QE measurement"))?,
                    ),
                };
                let (attestor, report) =
                    TargetAttestor::begin(ctx, &request, qe_target, self.attest_config.clone())
                        .map_err(|_| SgxError::EcallRejected("attest begin failed"))?;
                self.pending_attest.insert(request.nonce, attestor);
                Ok(report.to_bytes())
            }
            ic_fn::ATTEST_FINISH => {
                let (nonce, evidence_bytes) = nonce_of(input)?;
                let evidence = Evidence::from_bytes(evidence_bytes)?;
                let attestor = self
                    .pending_attest
                    .remove(&nonce)
                    .ok_or(SgxError::EcallRejected("no pending attestation"))?;
                let (response, channel) = attestor
                    .finish(ctx, evidence)
                    .map_err(|_| SgxError::EcallRejected("attest finish failed"))?;
                let channel =
                    channel.ok_or(SgxError::EcallRejected("attestation without channel"))?;
                self.sessions.insert(
                    nonce,
                    Session {
                        channel,
                        as_id: None,
                    },
                );
                Ok(response.to_bytes())
            }
            ic_fn::SUBMIT => {
                let (nonce, sealed) = nonce_of(input)?;
                ctx.counts.channel_record(sealed.len());
                let session = self.session_mut(&nonce)?;
                let plain = session
                    .channel
                    .open(sealed)
                    .map_err(|_| SgxError::EcallRejected("bad submission message"))?;
                let (policy, edges) = wire::decode_submission(&plain)
                    .ok_or(SgxError::EcallRejected("malformed submission"))?;
                let as_id = policy.as_id;
                session.as_id = Some(as_id);
                // Dynamic allocation: policy + edge storage.
                ctx.malloc(plain.len().max(1))?;
                self.submissions.insert(as_id, (policy, edges));
                Ok(Vec::new())
            }
            ic_fn::COMPUTE => {
                if self.submissions.is_empty() {
                    return Err(SgxError::EcallRejected("no submissions"));
                }
                // Assemble the global topology from local views
                // (deduplicating the two endpoints' reports of each edge).
                let mut edges: Vec<(AsId, AsId, EdgeKind)> = Vec::new();
                let mut policies: HashMap<AsId, LocalPolicy> = HashMap::new();
                let mut max_as = 0u32;
                // Deterministic assembly order regardless of submission
                // arrival (work-unit accounting must be reproducible).
                let mut submissions: Vec<_> = self.submissions.iter().collect();
                submissions.sort_by_key(|(as_id, _)| **as_id);
                for (as_id, (policy, local_edges)) in submissions {
                    policies.insert(*as_id, policy.clone());
                    max_as = max_as.max(as_id.0);
                    for &(a, b, kind) in local_edges {
                        max_as = max_as.max(a.0).max(b.0);
                        if !edges
                            .iter()
                            .any(|&(x, y, _)| (x, y) == (a, b) || (x, y) == (b, a))
                        {
                            edges.push((a, b, kind));
                        }
                    }
                }
                // Every AS on an edge must have submitted a policy;
                // missing ones get Gao–Rexford defaults.
                for i in 0..=max_as {
                    policies
                        .entry(AsId(i))
                        .or_insert_with(|| LocalPolicy::new(AsId(i)));
                }
                let topology = Topology::from_edges(max_as + 1, edges);
                let outcome = compute_routes(&topology, &policies);
                // Application cost: per work unit, native work plus the
                // in-enclave amplification (allocation + marshalling).
                ctx.charge(Op::RouteEval, outcome.work_units);
                ctx.charge(Op::EvalOverhead, outcome.work_units);
                // Heap growth: each work unit clones candidate routes,
                // path vectors and RIB entries (~560 B), allocated through
                // the in-enclave allocator so page-extension traps are
                // charged as they occur.
                for _ in 0..outcome.work_units {
                    ctx.malloc(HEAP_BYTES_PER_WORK_UNIT)?;
                }
                self.outcome = Some(outcome);
                Ok(Vec::new())
            }
            ic_fn::GET_ROUTES => {
                let (nonce, _) = nonce_of(input)?;
                let outcome = self
                    .outcome
                    .as_ref()
                    .ok_or(SgxError::EcallRejected("routes not computed"))?;
                let session = self
                    .sessions
                    .get_mut(&nonce)
                    .ok_or(SgxError::EcallRejected("unknown session"))?;
                let as_id = session
                    .as_id
                    .ok_or(SgxError::EcallRejected("no submission for session"))?;
                let routes = outcome.routes_of(as_id);
                let plain = wire::encode_routes(&routes);
                ctx.counts.channel_record(plain.len());
                let sealed = session.channel.seal(&plain);
                // Route delivery is enclave I/O.
                ctx.send_packets(&[&sealed], false);
                Ok(sealed)
            }
            ic_fn::VERIFY => {
                let (nonce, sealed) = nonce_of(input)?;
                ctx.counts.keyed_aes(sealed.len());
                let outcome = self.outcome.as_ref();
                let session = self
                    .sessions
                    .get_mut(&nonce)
                    .ok_or(SgxError::EcallRejected("unknown session"))?;
                let submitter = session
                    .as_id
                    .ok_or(SgxError::EcallRejected("no submission for session"))?;
                let plain = session
                    .channel
                    .open(sealed)
                    .map_err(|_| SgxError::EcallRejected("bad verify message"))?;
                if plain.len() < 8 {
                    return Err(SgxError::EcallRejected("short verify request"));
                }
                let bad = || SgxError::EcallRejected("short verify request");
                let party_a = AsId(u32::from_le_bytes(
                    plain[..4].try_into().map_err(|_| bad())?,
                ));
                let party_b = AsId(u32::from_le_bytes(
                    plain[4..8].try_into().map_err(|_| bad())?,
                ));
                let predicate = Predicate::from_bytes(&plain[8..])
                    .ok_or(SgxError::EcallRejected("malformed predicate"))?;
                let status = self
                    .verifier
                    .submit(submitter, party_a, party_b, &predicate, outcome)
                    .map_err(|_| SgxError::EcallRejected("verification rejected"))?;
                let byte = match status {
                    VerifyStatus::AwaitingCounterparty => verify_status::PENDING,
                    VerifyStatus::Verified(true) => verify_status::TRUE,
                    VerifyStatus::Verified(false) => verify_status::FALSE,
                };
                let session = self.session_mut(&nonce)?;
                Ok(session.channel.seal(&[byte]))
            }
            _ => Err(SgxError::EcallRejected("unknown controller fn")),
        }
    }
}

/// The AS-local controller enclave program.
pub struct AsLocalController {
    /// This AS's identity.
    pub as_id: AsId,
    policy: LocalPolicy,
    local_edges: Vec<(AsId, AsId, EdgeKind)>,
    attest_config: AttestConfig,
    expected_controller: Measurement,
    group_public: VerifyingKey,
    pending: Option<Challenger>,
    channel: Option<SecureChannel>,
    /// Routes received from the controller (readable for tests; stays in
    /// the enclave in the deployment model).
    pub installed_routes: Vec<crate::route::Route>,
}

impl AsLocalController {
    /// Builds the AS-local controller for `policy.as_id`.
    pub fn new(
        policy: LocalPolicy,
        local_edges: Vec<(AsId, AsId, EdgeKind)>,
        attest_config: AttestConfig,
        expected_controller: Measurement,
        group_public: VerifyingKey,
    ) -> Self {
        AsLocalController {
            as_id: policy.as_id,
            policy,
            local_edges,
            attest_config,
            expected_controller,
            group_public,
            pending: None,
            channel: None,
            installed_routes: Vec::new(),
        }
    }

    fn channel_mut(&mut self) -> Result<&mut SecureChannel, SgxError> {
        self.channel
            .as_mut()
            .ok_or(SgxError::EcallRejected("not connected"))
    }
}

impl EnclaveProgram for AsLocalController {
    fn code_image(&self) -> Vec<u8> {
        // The code identity covers version + configuration, not the
        // private policy (which is runtime data, provisioned after
        // attestation — policies must not be inferable from measurements).
        let mut image = Vec::new();
        image.extend_from_slice(b"teenet-aslocal-controller-v1");
        image.push(self.attest_config.with_dh as u8);
        image.extend_from_slice(&(self.attest_config.group.bits as u32).to_le_bytes());
        image.extend_from_slice(&self.expected_controller.0);
        image
    }

    fn ecall(
        &mut self,
        ctx: &mut EnclaveCtx<'_>,
        fn_id: u64,
        input: &[u8],
    ) -> Result<Vec<u8>, SgxError> {
        match fn_id {
            alc_fn::CONNECT => {
                let mut seed = [0u8; 32];
                ctx.random(&mut seed);
                let mut rng = SecureRng::from_seed(&seed);
                let (challenger, request) = Challenger::start(
                    IdentityPolicy::Mrenclave(self.expected_controller),
                    self.attest_config.clone(),
                    &mut rng,
                )
                .map_err(|_| SgxError::EcallRejected("challenger start failed"))?;
                self.pending = Some(challenger);
                Ok(request.to_bytes())
            }
            alc_fn::COMPLETE => {
                let response = AttestResponse::from_bytes(input)
                    .map_err(|_| SgxError::EcallRejected("bad AttestResponse"))?;
                let challenger = self
                    .pending
                    .take()
                    .ok_or(SgxError::EcallRejected("no pending attestation"))?;
                let outcome = challenger
                    .verify(&response, &self.group_public, None)
                    .map_err(|_| SgxError::EcallRejected("controller attestation failed"))?;
                // The challenger's crypto work happened inside this enclave.
                ctx.counts.merge(&outcome.counts);
                let channel = outcome
                    .channel
                    .ok_or(SgxError::EcallRejected("no channel"))?;
                self.channel = Some(channel);
                Ok(Vec::new())
            }
            alc_fn::SUBMIT_POLICY => {
                ctx.charge(Op::AslocalBase, 1);
                let plain = wire::encode_submission(&self.policy, &self.local_edges);
                ctx.counts.channel_record(plain.len());
                let channel = self.channel_mut()?;
                let sealed = channel.seal(&plain);
                ctx.send_packets(&[&sealed], false);
                Ok(sealed)
            }
            alc_fn::INSTALL_ROUTES => {
                ctx.counts.channel_record(input.len());
                let channel = self.channel_mut()?;
                let plain = channel
                    .open(input)
                    .map_err(|_| SgxError::EcallRejected("bad route message"))?;
                let routes = wire::decode_routes(&plain)
                    .ok_or(SgxError::EcallRejected("malformed routes"))?;
                // FIB installation: the dominant steady-state cost, with
                // the in-enclave amplification per route.
                ctx.charge(Op::FibInstall, routes.len() as u64);
                ctx.charge(Op::AslocalPerRoute, routes.len() as u64);
                for _ in 0..routes.len() {
                    ctx.malloc(HEAP_BYTES_PER_ROUTE)?;
                }
                let count = routes.len() as u32;
                self.installed_routes = routes;
                Ok(count.to_le_bytes().to_vec())
            }
            alc_fn::MAKE_VERIFY => {
                if input.len() < 8 {
                    return Err(SgxError::EcallRejected("short verify request"));
                }
                let channel = self.channel_mut()?;
                Ok(channel.seal(input))
            }
            alc_fn::READ_VERIFY => {
                let channel = self.channel_mut()?;
                let plain = channel
                    .open(input)
                    .map_err(|_| SgxError::EcallRejected("bad verify response"))?;
                if plain.len() != 1 {
                    return Err(SgxError::EcallRejected("malformed verify response"));
                }
                Ok(plain)
            }
            _ => Err(SgxError::EcallRejected("unknown AS-local fn")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teenet_crypto::dh::DhGroup;

    impl InterdomainController {
        /// A tampered controller (e.g. one that would exfiltrate policies).
        /// Identical interface, different code image → different MRENCLAVE.
        fn leaky_variant(config: AttestConfig) -> Self {
            InterdomainController {
                leaky: true,
                ..Self::new(config)
            }
        }
    }

    #[test]
    fn controller_images_differ_when_tampered() {
        let cfg = AttestConfig::fast();
        let honest = InterdomainController::new(cfg.clone());
        let leaky = InterdomainController::leaky_variant(cfg);
        assert_ne!(honest.code_image(), leaky.code_image());
    }

    #[test]
    fn controller_image_covers_config() {
        let a = InterdomainController::new(AttestConfig::fast());
        let b = InterdomainController::new(AttestConfig {
            with_dh: true,
            group: DhGroup::modp1024(),
        });
        assert_ne!(a.code_image(), b.code_image());
    }

    #[test]
    fn expected_measurement_matches_honest_build() {
        let cfg = AttestConfig::fast();
        let honest = InterdomainController::new(cfg.clone());
        assert_eq!(
            teenet_sgx::measure_image(&honest.code_image()),
            InterdomainController::expected_measurement(&cfg)
        );
        let leaky = InterdomainController::leaky_variant(cfg.clone());
        assert_ne!(
            teenet_sgx::measure_image(&leaky.code_image()),
            InterdomainController::expected_measurement(&cfg)
        );
    }

    #[test]
    fn aslocal_image_excludes_policy() {
        // Two ASes with different policies but the same configuration run
        // the same binary — measurements must match (policies are data).
        let cfg = AttestConfig::fast();
        let expected = InterdomainController::expected_measurement(&cfg);
        let mut rng = SecureRng::seed_from_u64(1);
        let group = teenet_crypto::schnorr::SchnorrGroup::small();
        let key = teenet_crypto::schnorr::SigningKey::generate(&group, &mut rng).unwrap();
        let mut p1 = LocalPolicy::new(AsId(1));
        p1.pref_override.insert(AsId(2), 999);
        let p2 = LocalPolicy::new(AsId(2));
        let a = AsLocalController::new(p1, vec![], cfg.clone(), expected, key.verifying_key());
        let b = AsLocalController::new(p2, vec![], cfg, expected, key.verifying_key());
        assert_eq!(a.code_image(), b.code_image());
    }
}
