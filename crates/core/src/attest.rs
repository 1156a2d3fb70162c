//! Remote attestation — the paper's Figure 1 protocol.
//!
//! ```text
//! Challenger enclave            Target enclave          Quoting enclave
//!   1) enclave spec + nonce
//!      (+ DH share)      ───────────▶
//!                               2) EREPORT (binds nonce
//!                                  and DH shares)
//!                               3) REPORT  ───────────▶
//!                                              intra-attestation:
//!                                              EGETKEY, MAC check
//!                               ◀───────────  4) QUOTE (signed)
//!   ◀──────  5..8) QUOTE + target DH share (+ certificate)
//!   9) verify signature, check identity policy,
//!      check binding, derive shared secret
//! ```
//!
//! Cost accounting reproduces Table 1: the challenger pays one DH keygen up
//! front and quote verification + one shared-secret computation at the end;
//! the target pays its attestation base plus (with DH) parameter
//! generation, keygen and the shared secret — the paper measured that "the
//! Diffie-Hellman key exchange takes up 90% of the cycles". (Our DH uses
//! the fixed Oakley group; the parameter-generation cost is charged per the
//! model because the paper's polarssl prototype generated parameters at
//! runtime — see `teenet-sgx::cost` provenance notes.)

use teenet_crypto::dh::{DhGroup, DhKeyPair};
use teenet_crypto::schnorr::VerifyingKey;
use teenet_crypto::sha256::Sha256;
use teenet_crypto::{BigUint, SecureRng};
use teenet_sgx::cost::{Op, OpCounts};
use teenet_sgx::report::{report_data_from, Report, TargetInfo, REPORT_DATA_LEN};
use teenet_sgx::{EnclaveCtx, Evidence};

use crate::channel::SecureChannel;
use crate::error::{Result, TeenetError};
use crate::identity::{IdentityPolicy, SoftwareCertificate};

/// Attestation configuration shared by both sides.
#[derive(Clone)]
pub struct AttestConfig {
    /// Bootstrap a secure channel with an embedded DH exchange.
    pub with_dh: bool,
    /// DH group (paper: 1024-bit).
    pub group: DhGroup,
}

impl Default for AttestConfig {
    fn default() -> Self {
        AttestConfig {
            with_dh: true,
            group: DhGroup::modp1024(),
        }
    }
}

impl AttestConfig {
    /// Fast configuration for tests (768-bit group).
    pub fn fast() -> Self {
        AttestConfig {
            with_dh: true,
            group: DhGroup::modp768(),
        }
    }

    /// Attestation without channel bootstrap (Table 1's "w/o DH" columns).
    pub fn no_dh(group: DhGroup) -> Self {
        AttestConfig {
            with_dh: false,
            group,
        }
    }
}

/// Message 1: the challenger's attestation request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttestRequest {
    /// Anti-replay nonce.
    pub nonce: [u8; 32],
    /// Challenger's DH public value (empty when `with_dh` is off).
    pub challenger_dh_pub: Vec<u8>,
}

impl AttestRequest {
    /// Wire encoding.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(34 + self.challenger_dh_pub.len());
        out.extend_from_slice(&self.nonce);
        out.extend_from_slice(&(self.challenger_dh_pub.len() as u16).to_le_bytes());
        out.extend_from_slice(&self.challenger_dh_pub);
        out
    }

    /// Parses the wire encoding.
    pub fn from_bytes(buf: &[u8]) -> Result<Self> {
        if buf.len() < 34 {
            return Err(TeenetError::Protocol("AttestRequest truncated"));
        }
        let nonce: [u8; 32] = buf[..32]
            .try_into()
            .map_err(|_| TeenetError::Protocol("AttestRequest nonce"))?;
        let len = u16::from_le_bytes([buf[32], buf[33]]) as usize;
        if buf.len() != 34 + len {
            return Err(TeenetError::Protocol("AttestRequest length"));
        }
        Ok(AttestRequest {
            nonce,
            challenger_dh_pub: buf[34..].to_vec(),
        })
    }
}

/// Messages 5–8 combined: the target's attestation response.
#[derive(Debug, Clone)]
pub struct AttestResponse {
    /// The signed attestation evidence (an EPID QUOTE on SGX, a
    /// PSP-signed report plus endorsement chain on a VM TEE).
    pub evidence: Evidence,
    /// Target's DH public value (empty when `with_dh` is off).
    pub target_dh_pub: Vec<u8>,
}

impl AttestResponse {
    /// Wire encoding. Byte-identical to the historical quote-carrying
    /// encoding when the evidence is EPID.
    pub fn to_bytes(&self) -> Vec<u8> {
        let evidence = self.evidence.to_bytes();
        let mut out = Vec::with_capacity(4 + evidence.len() + self.target_dh_pub.len());
        out.extend_from_slice(&(evidence.len() as u16).to_le_bytes());
        out.extend_from_slice(&evidence);
        out.extend_from_slice(&(self.target_dh_pub.len() as u16).to_le_bytes());
        out.extend_from_slice(&self.target_dh_pub);
        out
    }

    /// Parses the wire encoding.
    pub fn from_bytes(buf: &[u8]) -> Result<Self> {
        if buf.len() < 2 {
            return Err(TeenetError::Protocol("AttestResponse truncated"));
        }
        let qlen = u16::from_le_bytes([buf[0], buf[1]]) as usize;
        if buf.len() < 2 + qlen + 2 {
            return Err(TeenetError::Protocol("AttestResponse evidence length"));
        }
        let evidence_bytes = buf
            .get(2..2 + qlen)
            .ok_or(TeenetError::Protocol("AttestResponse evidence length"))?;
        let evidence = Evidence::from_bytes(evidence_bytes)?;
        let rest = buf
            .get(2 + qlen..)
            .ok_or(TeenetError::Protocol("AttestResponse evidence length"))?;
        let dlen = u16::from_le_bytes([rest[0], rest[1]]) as usize;
        if rest.len() != 2 + dlen {
            return Err(TeenetError::Protocol("AttestResponse dh length"));
        }
        Ok(AttestResponse {
            evidence,
            target_dh_pub: rest[2..].to_vec(),
        })
    }
}

/// Computes the report data binding the attestation session: a hash of the
/// nonce and both DH shares, embedded in the REPORT by the target so the
/// challenger knows the quoted enclave generated *this* key exchange.
fn binding(nonce: &[u8; 32], challenger_pub: &[u8], target_pub: &[u8]) -> [u8; REPORT_DATA_LEN] {
    let mut h = Sha256::new();
    h.update(b"teenet-attest-binding-v1");
    h.update(nonce);
    h.update(&(challenger_pub.len() as u64).to_le_bytes());
    h.update(challenger_pub);
    h.update(&(target_pub.len() as u64).to_le_bytes());
    h.update(target_pub);
    report_data_from(&h.finalize())
}

/// The challenger's side of remote attestation (runs in the challenger's
/// enclave or trusted context).
pub struct Challenger {
    policy: IdentityPolicy,
    config: AttestConfig,
    nonce: [u8; 32],
    dh: Option<DhKeyPair>,
    /// Ops the challenger performed (Table 1's challenger column).
    pub counts: OpCounts,
}

/// Successful attestation outcome on the challenger side.
///
/// (Not `Debug`: the channel holds key material.)
pub struct AttestOutcome {
    /// The verified identity of the attested enclave.
    pub body: teenet_sgx::ReportBody,
    /// Secure channel to the target (when DH was enabled).
    pub channel: Option<SecureChannel>,
    /// Every op the challenger performed (Table 1's challenger column),
    /// priced by whoever meters the challenger: its caller's cost model,
    /// or the enclave it runs in.
    pub counts: OpCounts,
}

/// The modexp op of the configured DH group's width.
fn modexp_op(config: &AttestConfig) -> Result<Op> {
    Op::modexp(config.group.bits).ok_or(TeenetError::Protocol("DH group of an unpriced width"))
}

impl Challenger {
    /// Starts an attestation: produces the state machine and message 1.
    pub fn start(
        policy: IdentityPolicy,
        config: AttestConfig,
        rng: &mut SecureRng,
    ) -> Result<(Self, AttestRequest)> {
        let mut counts = OpCounts::new();
        counts.charge(Op::AttestChallengerBase, 1);
        // The challenger runs in its own enclave: entering it and sending
        // message 1 costs one protocol leg of TEE transitions.
        counts.charge(Op::ChallengerEntry, 1);
        let mut nonce = [0u8; 32];
        rng.fill_bytes(&mut nonce);
        let (dh, challenger_dh_pub) = if config.with_dh {
            counts.charge(modexp_op(&config)?, 1); // keygen
            let kp = DhKeyPair::generate(&config.group, rng)?;
            let pubkey = kp.public_bytes();
            (Some(kp), pubkey)
        } else {
            (None, Vec::new())
        };
        Ok((
            Challenger {
                policy,
                config,
                nonce,
                dh,
                counts,
            },
            AttestRequest {
                nonce,
                challenger_dh_pub,
            },
        ))
    }

    /// Message 9: verifies the response — quote signature, identity policy,
    /// session binding — and derives the shared channel.
    pub fn verify(
        mut self,
        response: &AttestResponse,
        group_public: &VerifyingKey,
        certificate: Option<&SoftwareCertificate>,
    ) -> Result<AttestOutcome> {
        // Receiving messages 5-8 re-enters the challenger enclave.
        self.counts.charge(Op::ChallengerEntry, 1);
        // Signature check (one verification for an EPID quote, two for a
        // VM-TEE endorsement chain).
        response.evidence.verify(group_public, &mut self.counts)?;
        // Identity policy.
        self.policy.check(response.evidence.body(), certificate)?;
        // Session binding: the quoted report_data must commit to our nonce
        // and both DH shares.
        let challenger_pub = self
            .dh
            .as_ref()
            .map(|kp| kp.public_bytes())
            .unwrap_or_default();
        let expected = binding(&self.nonce, &challenger_pub, &response.target_dh_pub);
        if expected != response.evidence.body().report_data {
            return Err(TeenetError::BindingMismatch);
        }
        // Channel derivation.
        let channel = match &self.dh {
            Some(kp) => {
                self.counts.charge(modexp_op(&self.config)?, 1);
                let shared = kp
                    .shared_secret(&BigUint::from_bytes_be(&response.target_dh_pub))
                    .map_err(TeenetError::Crypto)?;
                Some(SecureChannel::from_shared_secret(
                    &shared,
                    &self.nonce,
                    true,
                )?)
            }
            None => None,
        };
        Ok(AttestOutcome {
            body: response.evidence.body().clone(),
            channel,
            counts: self.counts,
        })
    }
}

/// The target's side, split in two because the QUOTE is produced by the
/// quoting enclave between the steps. Both steps run *inside* the target
/// enclave (they take the [`EnclaveCtx`]); the host ferries the REPORT to
/// the QE and the QUOTE back.
pub struct TargetAttestor {
    config: AttestConfig,
    nonce: [u8; 32],
    challenger_pub: Vec<u8>,
    dh: Option<DhKeyPair>,
}

impl TargetAttestor {
    /// Step one (messages 2–3): generate the DH share, EREPORT with the
    /// session binding, hand the REPORT out for quoting.
    pub fn begin(
        ctx: &mut EnclaveCtx<'_>,
        request: &AttestRequest,
        qe_target: TargetInfo,
        config: AttestConfig,
    ) -> Result<(Self, Report)> {
        ctx.charge(Op::AttestTargetBase, 1);
        let mut rng_seed = [0u8; 32];
        ctx.random(&mut rng_seed);
        let mut rng = SecureRng::from_seed(&rng_seed);
        let (dh, target_pub) = if config.with_dh {
            // The paper's prototype generates DH parameters inside the
            // target — the dominant cost in Table 1's target column.
            ctx.charge(Op::DhParamGen, 1);
            ctx.charge(modexp_op(&config)?, 1); // keygen
            let kp = DhKeyPair::generate(&config.group, &mut rng).map_err(TeenetError::Crypto)?;
            let pubkey = kp.public_bytes();
            (Some(kp), pubkey)
        } else {
            (None, Vec::new())
        };
        let data = binding(&request.nonce, &request.challenger_dh_pub, &target_pub);
        let report = ctx.ereport(qe_target, &data);
        Ok((
            TargetAttestor {
                config,
                nonce: request.nonce,
                challenger_pub: request.challenger_dh_pub.clone(),
                dh,
            },
            report,
        ))
    }

    /// Step two (messages 5–8): package the attestation evidence into the
    /// response and derive the target's end of the secure channel.
    pub fn finish(
        self,
        ctx: &mut EnclaveCtx<'_>,
        evidence: Evidence,
    ) -> Result<(AttestResponse, Option<SecureChannel>)> {
        // Derive the seal key under which session state would persist
        // across enclave restarts (one EGETKEY).
        let _seal_key = ctx.egetkey(teenet_sgx::keys::KeyRequest::SealEnclave);
        let (target_dh_pub, channel) = match &self.dh {
            Some(kp) => {
                if self.challenger_pub.is_empty() {
                    return Err(TeenetError::Protocol("challenger sent no DH share"));
                }
                ctx.charge(modexp_op(&self.config)?, 1); // shared secret
                let shared = kp
                    .shared_secret(&BigUint::from_bytes_be(&self.challenger_pub))
                    .map_err(TeenetError::Crypto)?;
                let channel = SecureChannel::from_shared_secret(&shared, &self.nonce, false)?;
                (kp.public_bytes(), Some(channel))
            }
            None => (Vec::new(), None),
        };
        Ok((
            AttestResponse {
                evidence,
                target_dh_pub,
            },
            channel,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teenet_crypto::schnorr::{SchnorrGroup, SigningKey};
    use teenet_sgx::{
        deploy_platform, EnclaveProgram, EpidGroup, SgxError, TeeBackend, TeePlatform,
    };

    /// Test enclave program implementing the target side of attestation.
    struct Target {
        pending: Option<TargetAttestor>,
        pub channel: Option<SecureChannel>,
        config: AttestConfig,
    }

    impl EnclaveProgram for Target {
        fn code_image(&self) -> Vec<u8> {
            b"attest-target-v1".to_vec()
        }
        fn ecall(
            &mut self,
            ctx: &mut EnclaveCtx<'_>,
            fn_id: u64,
            input: &[u8],
        ) -> teenet_sgx::Result<Vec<u8>> {
            match fn_id {
                // begin: input = AttestRequest ‖ qe measurement (32)
                0 => {
                    let (req_bytes, qe) = input.split_at(input.len() - 32);
                    let request = AttestRequest::from_bytes(req_bytes)
                        .map_err(|_| SgxError::EcallRejected("bad request"))?;
                    let qe_target = TargetInfo {
                        mrenclave: teenet_sgx::Measurement(qe.try_into().expect("32")),
                    };
                    let (attestor, report) =
                        TargetAttestor::begin(ctx, &request, qe_target, self.config.clone())
                            .map_err(|_| SgxError::EcallRejected("begin failed"))?;
                    self.pending = Some(attestor);
                    Ok(report.to_bytes())
                }
                // finish: input = Evidence
                1 => {
                    let evidence = Evidence::from_bytes(input)?;
                    let attestor = self
                        .pending
                        .take()
                        .ok_or(SgxError::EcallRejected("no pending attestation"))?;
                    let (response, channel) = attestor
                        .finish(ctx, evidence)
                        .map_err(|_| SgxError::EcallRejected("finish failed"))?;
                    self.channel = channel;
                    Ok(response.to_bytes())
                }
                // receive a channel message and echo it decrypted+re-encrypted
                2 => {
                    let ch = self
                        .channel
                        .as_mut()
                        .ok_or(SgxError::EcallRejected("no channel"))?;
                    let plain = ch
                        .open(input)
                        .map_err(|_| SgxError::EcallRejected("bad channel msg"))?;
                    let mut reply = b"echo: ".to_vec();
                    reply.extend_from_slice(&plain);
                    Ok(ch.seal(&reply))
                }
                _ => Err(SgxError::EcallRejected("unknown fn")),
            }
        }
    }

    struct World {
        platform: Box<dyn TeePlatform>,
        enclave: teenet_sgx::EnclaveId,
        group_public: VerifyingKey,
        rng: SecureRng,
    }

    fn setup(config: AttestConfig) -> World {
        setup_backend(config, TeeBackend::Sgx)
    }

    fn setup_backend(config: AttestConfig, backend: TeeBackend) -> World {
        let mut rng = SecureRng::seed_from_u64(77);
        let epid = EpidGroup::new(1, &mut rng).unwrap();
        let mut platform = deploy_platform(backend, "target-host", &epid, 3).unwrap();
        let author = SigningKey::generate(&SchnorrGroup::small(), &mut rng).unwrap();
        let enclave = platform
            .create_signed(
                Box::new(Target {
                    pending: None,
                    channel: None,
                    config,
                }),
                &author,
                1,
            )
            .unwrap();
        World {
            platform,
            enclave,
            group_public: epid.public_key(),
            rng,
        }
    }

    /// Runs the full Figure-1 flow, returning the challenger outcome.
    fn run_attestation(
        world: &mut World,
        policy: IdentityPolicy,
        config: AttestConfig,
    ) -> Result<AttestOutcome> {
        let (challenger, request) = Challenger::start(policy, config, &mut world.rng)?;
        // Host ferries msg 1 into the target enclave.
        let mut input = request.to_bytes();
        input.extend_from_slice(&world.platform.attestation_target_info().mrenclave.0);
        let report_bytes = world.platform.ecall_nohost(world.enclave, 0, &input)?;
        let report = Report::from_bytes(&report_bytes)?;
        // Host runs the attestation component (msgs 3–4): the QE on SGX,
        // the PSP on a VM TEE.
        let evidence = world.platform.evidence(&report)?;
        // Host returns evidence to the target (msgs 5–8 assembled inside).
        let response_bytes = world
            .platform
            .ecall_nohost(world.enclave, 1, &evidence.to_bytes())?;
        let response = AttestResponse::from_bytes(&response_bytes)?;
        // Msg 9.
        challenger.verify(&response, &world.group_public, None)
    }

    #[test]
    fn full_attestation_with_channel() {
        let config = AttestConfig::fast();
        let mut world = setup(config.clone());
        let expected = world.platform.measurement_of(world.enclave).unwrap();
        let outcome =
            run_attestation(&mut world, IdentityPolicy::Mrenclave(expected), config).unwrap();
        assert_eq!(outcome.body.mrenclave, expected);
        let mut channel = outcome.channel.expect("channel bootstrapped");
        // Use the channel end-to-end through the enclave.
        let msg = channel.seal(b"hello enclave");
        let reply = world.platform.ecall_nohost(world.enclave, 2, &msg).unwrap();
        assert_eq!(channel.open(&reply).unwrap(), b"echo: hello enclave");
    }

    #[test]
    fn full_attestation_with_channel_on_vmtee() {
        // The same Figure-1 flow against the VM-TEE backend: the PSP's
        // evidence (report signature + endorsement chain) must satisfy the
        // unchanged in-enclave challenger, and the channel must work.
        let config = AttestConfig::fast();
        let mut world = setup_backend(config.clone(), TeeBackend::VmTee);
        let expected = world.platform.measurement_of(world.enclave).unwrap();
        let outcome =
            run_attestation(&mut world, IdentityPolicy::Mrenclave(expected), config).unwrap();
        assert_eq!(outcome.body.mrenclave, expected);
        let mut channel = outcome.channel.expect("channel bootstrapped");
        let msg = channel.seal(b"hello guest");
        let reply = world.platform.ecall_nohost(world.enclave, 2, &msg).unwrap();
        assert_eq!(channel.open(&reply).unwrap(), b"echo: hello guest");
        // The challenger paid the VM-TEE verification shape: two signature
        // checks, cheaper protocol-leg transitions.
        assert_eq!(outcome.counts.count(Op::QuoteVerify), 2);
        let priced = outcome.counts.price(world.platform.model());
        assert_eq!(priced.sgx_instr, 2 * 2, "two legs of two VM exits");
    }

    #[test]
    fn attestation_without_dh_has_no_channel() {
        let config = AttestConfig::no_dh(DhGroup::modp768());
        let mut world = setup(config.clone());
        let outcome = run_attestation(&mut world, IdentityPolicy::AcceptAny, config).unwrap();
        assert!(outcome.channel.is_none());
    }

    #[test]
    fn wrong_identity_rejected() {
        let config = AttestConfig::fast();
        let mut world = setup(config.clone());
        let err = run_attestation(
            &mut world,
            IdentityPolicy::Mrenclave(teenet_sgx::Measurement([0xee; 32])),
            config,
        )
        .map(|_| ())
        .unwrap_err();
        assert!(matches!(err, TeenetError::IdentityRejected(_)));
    }

    #[test]
    fn substituted_dh_share_breaks_binding() {
        // A MITM host replacing the target's DH share is caught because the
        // quoted report_data committed to the genuine share.
        let config = AttestConfig::fast();
        let mut world = setup(config.clone());
        let (challenger, request) =
            Challenger::start(IdentityPolicy::AcceptAny, config.clone(), &mut world.rng).unwrap();
        let mut input = request.to_bytes();
        input.extend_from_slice(&world.platform.attestation_target_info().mrenclave.0);
        let report_bytes = world
            .platform
            .ecall_nohost(world.enclave, 0, &input)
            .unwrap();
        let report = Report::from_bytes(&report_bytes).unwrap();
        let evidence = world.platform.evidence(&report).unwrap();
        let response_bytes = world
            .platform
            .ecall_nohost(world.enclave, 1, &evidence.to_bytes())
            .unwrap();
        let mut response = AttestResponse::from_bytes(&response_bytes).unwrap();
        // MITM swaps in its own DH public value.
        let attacker = DhKeyPair::generate(&config.group, &mut world.rng).unwrap();
        response.target_dh_pub = attacker.public_bytes();
        let err = challenger
            .verify(&response, &world.group_public, None)
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err, TeenetError::BindingMismatch);
    }

    #[test]
    fn replayed_response_fails_fresh_nonce() {
        // A response captured for one nonce cannot satisfy a new challenge.
        let config = AttestConfig::fast();
        let mut world = setup(config.clone());
        // First, an honest run captured by the adversary.
        let (challenger1, request1) =
            Challenger::start(IdentityPolicy::AcceptAny, config.clone(), &mut world.rng).unwrap();
        let mut input = request1.to_bytes();
        input.extend_from_slice(&world.platform.attestation_target_info().mrenclave.0);
        let report_bytes = world
            .platform
            .ecall_nohost(world.enclave, 0, &input)
            .unwrap();
        let report = Report::from_bytes(&report_bytes).unwrap();
        let evidence = world.platform.evidence(&report).unwrap();
        let response_bytes = world
            .platform
            .ecall_nohost(world.enclave, 1, &evidence.to_bytes())
            .unwrap();
        let response = AttestResponse::from_bytes(&response_bytes).unwrap();
        drop(challenger1);
        // Fresh challenge; replayed response must fail.
        let (challenger2, _) =
            Challenger::start(IdentityPolicy::AcceptAny, config, &mut world.rng).unwrap();
        let err = challenger2
            .verify(&response, &world.group_public, None)
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err, TeenetError::BindingMismatch);
    }

    #[test]
    fn table1_shape_dh_dominates_target() {
        // The DH-enabled target run must dwarf the no-DH run (paper: 154M
        // vs 4338M normal instructions).
        let config_dh = AttestConfig {
            with_dh: true,
            group: DhGroup::modp1024(),
        };
        let mut world = setup(config_dh.clone());
        run_attestation(&mut world, IdentityPolicy::AcceptAny, config_dh).unwrap();
        let with_dh = world.platform.counters_of(world.enclave).unwrap();

        let config_no = AttestConfig::no_dh(DhGroup::modp1024());
        let mut world2 = setup(config_no.clone());
        run_attestation(&mut world2, IdentityPolicy::AcceptAny, config_no).unwrap();
        let without = world2.platform.counters_of(world2.enclave).unwrap();

        assert!(
            with_dh.normal_instr > 20 * without.normal_instr,
            "DH {} vs no-DH {}",
            with_dh.normal_instr,
            without.normal_instr
        );
    }

    #[test]
    fn message_wire_roundtrips() {
        let req = AttestRequest {
            nonce: [7u8; 32],
            challenger_dh_pub: vec![1, 2, 3],
        };
        assert_eq!(AttestRequest::from_bytes(&req.to_bytes()).unwrap(), req);
        assert!(AttestRequest::from_bytes(&[0u8; 10]).is_err());
        let mut long = req.to_bytes();
        long.push(0);
        assert!(AttestRequest::from_bytes(&long).is_err());
    }
}
