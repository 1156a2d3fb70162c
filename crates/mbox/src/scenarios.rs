//! End-to-end §3.3 scenarios: deploying, attesting and provisioning
//! middleboxes around a live TLS session.
//!
//! "Passing session keys through the secure channel can be also done
//! unilaterally by either of the two end-points [...] For example, TLS
//! traffic in enterprise networks can be sent to the SGX-enabled cloud for
//! deep packet inspection."

use teenet::attest::AttestConfig;
use teenet::identity::IdentityPolicy;
use teenet::ledger::{AttestKind, AttestLedger};
use teenet::responder::attest_enclave;
use teenet_crypto::schnorr::{SchnorrGroup, SigningKey, VerifyingKey};
use teenet_crypto::SecureRng;
use teenet_sgx::{
    deploy_platform, measure_image, EnclaveId, EpidGroup, Measurement, TeeBackend, TeePlatform,
};
use teenet_tls::handshake::{handshake, TlsConfig};
use teenet_tls::session::TlsSession;

use crate::dpi::{DpiEngine, Rule};
use crate::error::{MboxError, Result};
use crate::middlebox::{mb_fn, process_status, MiddleboxEnclave, ProvisionPolicy};
use crate::provision::{EndpointRole, ProvisionMsg};

/// A deployed middlebox: its platform, enclave, and pinned identity.
pub struct MiddleboxHost {
    /// The TEE machine hosting the middlebox.
    pub platform: Box<dyn TeePlatform>,
    /// The middlebox enclave.
    pub enclave: EnclaveId,
    /// The identity endpoints pin (honest build of name+policy+rules).
    pub expected: Measurement,
    /// The attestation group's public key.
    pub group_public: VerifyingKey,
    /// Attestation configuration in use.
    pub attest: AttestConfig,
}

impl MiddleboxHost {
    /// Deploys a middlebox with the given rules onto a fresh SGX platform.
    pub fn deploy(
        name: &str,
        policy: ProvisionPolicy,
        rules: Vec<Rule>,
        attest: AttestConfig,
        epid: &EpidGroup,
        seed: u64,
        rng: &mut SecureRng,
    ) -> Result<Self> {
        Self::deploy_backend(
            TeeBackend::Sgx,
            name,
            policy,
            rules,
            attest,
            epid,
            seed,
            rng,
        )
    }

    /// [`MiddleboxHost::deploy`] onto an explicit TEE backend.
    #[allow(clippy::too_many_arguments)]
    pub fn deploy_backend(
        backend: TeeBackend,
        name: &str,
        policy: ProvisionPolicy,
        rules: Vec<Rule>,
        attest: AttestConfig,
        epid: &EpidGroup,
        seed: u64,
        rng: &mut SecureRng,
    ) -> Result<Self> {
        let engine = DpiEngine::build(rules);
        let expected = measure_image(&MiddleboxEnclave::image_for(name, 1, policy, &engine));
        let author = SigningKey::generate(&SchnorrGroup::small(), rng)
            .map_err(|e| MboxError::Teenet(teenet::TeenetError::Crypto(e)))?;
        let mut platform = deploy_platform(backend, &format!("mbox-{name}"), epid, seed)
            .map_err(MboxError::Sgx)?;
        let program = MiddleboxEnclave::new(name, 1, policy, engine, attest.clone());
        let enclave = platform.create_signed(Box::new(program), &author, 1)?;
        Ok(MiddleboxHost {
            platform,
            enclave,
            expected,
            group_public: epid.public_key(),
            attest,
        })
    }

    /// An endpoint attests this middlebox and releases its session keys.
    ///
    /// Returns the session id and whether the session is now active.
    pub fn provision(
        &mut self,
        role: EndpointRole,
        session: &TlsSession,
        rng: &mut SecureRng,
        ledger: &mut AttestLedger,
    ) -> Result<([u8; 8], bool)> {
        // Ledger target id: derived from the pinned identity so distinct
        // middleboxes count separately even across platforms.
        let target_tag = u64::from_le_bytes(self.expected.0[..8].try_into().expect("8"));
        ledger.record(AttestKind::MiddleboxProvision, role as u64, target_tag);
        let (outcome, nonce) = attest_enclave(
            IdentityPolicy::Mrenclave(self.expected),
            self.attest.clone(),
            rng,
            self.platform.as_mut(),
            self.enclave,
            mb_fn::ATTEST_BEGIN,
            mb_fn::ATTEST_FINISH,
            &self.group_public,
            None,
        )?;
        let mut channel = outcome
            .channel
            .ok_or(MboxError::Session("no channel from attestation"))?;
        let (seq_tx, seq_rx) = session.seqs();
        let (seq_c2s, seq_s2c) = match role {
            EndpointRole::Client => (seq_tx, seq_rx),
            EndpointRole::Server => (seq_rx, seq_tx),
        };
        let msg = ProvisionMsg {
            role,
            keys: session.export_keys(),
            seq_c2s,
            seq_s2c,
        };
        let mut input = nonce.to_vec();
        input.extend_from_slice(&channel.seal(&msg.to_bytes()));
        let reply = self
            .platform
            .ecall_nohost(self.enclave, mb_fn::PROVISION, &input)?;
        if reply.len() != 9 {
            return Err(MboxError::Session("bad provision reply"));
        }
        Ok((reply[..8].try_into().expect("8"), reply[8] == 1))
    }

    /// Runs one record through the middlebox.
    pub fn process(
        &mut self,
        sid: [u8; 8],
        direction: EndpointRole,
        record: &[u8],
    ) -> Result<ProcessResult> {
        let mut input = sid.to_vec();
        input.push(match direction {
            EndpointRole::Client => 0, // client→server records
            EndpointRole::Server => 1,
        });
        input.extend_from_slice(record);
        let reply = self
            .platform
            .ecall_nohost(self.enclave, mb_fn::PROCESS, &input)?;
        match reply.first() {
            Some(&process_status::PASS) => Ok(ProcessResult::Pass(reply[1..].to_vec())),
            Some(&process_status::BLOCKED) => Ok(ProcessResult::Blocked),
            Some(&process_status::REWRITTEN) => Ok(ProcessResult::Rewritten(reply[1..].to_vec())),
            _ => Err(MboxError::Session("bad process reply")),
        }
    }

    /// Runs several records through the middlebox under a **single**
    /// EENTER/EEXIT pair (batched ecall) — the switchless/batched hot path.
    /// Records are processed in order; sequence-number discipline is the
    /// same as calling [`MiddleboxHost::process`] repeatedly.
    pub fn process_batch(
        &mut self,
        sid: [u8; 8],
        direction: EndpointRole,
        records: &[&[u8]],
    ) -> Result<Vec<ProcessResult>> {
        let dir_byte = match direction {
            EndpointRole::Client => 0,
            EndpointRole::Server => 1,
        };
        let calls: Vec<(u64, Vec<u8>)> = records
            .iter()
            .map(|record| {
                let mut input = sid.to_vec();
                input.push(dir_byte);
                input.extend_from_slice(record);
                (mb_fn::PROCESS, input)
            })
            .collect();
        let replies = self.platform.ecall_batch_nohost(self.enclave, &calls)?;
        replies
            .iter()
            .map(|reply| match reply.first() {
                Some(&process_status::PASS) => Ok(ProcessResult::Pass(reply[1..].to_vec())),
                Some(&process_status::BLOCKED) => Ok(ProcessResult::Blocked),
                Some(&process_status::REWRITTEN) => {
                    Ok(ProcessResult::Rewritten(reply[1..].to_vec()))
                }
                _ => Err(MboxError::Session("bad process reply")),
            })
            .collect()
    }

    /// (alerts, blocked, passed) counters for a session.
    pub fn stats(&mut self, sid: [u8; 8]) -> Result<(u64, u64, u64)> {
        let reply = self
            .platform
            .ecall_nohost(self.enclave, mb_fn::STATS, &sid)?;
        if reply.len() != 24 {
            return Err(MboxError::Session("bad stats reply"));
        }
        Ok((
            u64::from_le_bytes(reply[..8].try_into().expect("8")),
            u64::from_le_bytes(reply[8..16].try_into().expect("8")),
            u64::from_le_bytes(reply[16..24].try_into().expect("8")),
        ))
    }
}

/// Result of processing one record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProcessResult {
    /// Forward these bytes (unchanged ciphertext).
    Pass(Vec<u8>),
    /// Drop the record.
    Blocked,
    /// Forward these re-sealed bytes.
    Rewritten(Vec<u8>),
}

/// Report from a scenario run.
#[derive(Debug)]
pub struct ScenarioReport {
    /// Rule matches observed by the middlebox.
    pub alerts: u64,
    /// Records blocked.
    pub blocked: u64,
    /// Records passed.
    pub passed: u64,
    /// Remote attestations performed.
    pub attestations: u64,
    /// Plaintexts the server actually received.
    pub server_received: Vec<Vec<u8>>,
}

/// The enterprise-outbound-inspection scenario: the *client side*
/// unilaterally provisions a gateway middlebox that blocks exfiltration
/// patterns; the server needs no changes.
pub fn enterprise_outbound(seed: u64) -> Result<ScenarioReport> {
    let mut rng = SecureRng::seed_from_u64(seed);
    let epid = EpidGroup::new(33, &mut rng).map_err(MboxError::Sgx)?;
    let mut ledger = AttestLedger::new();

    let mut gateway = MiddleboxHost::deploy(
        "enterprise-gw",
        ProvisionPolicy::Unilateral,
        vec![
            Rule::new(b"EXFIL", crate::dpi::Action::Block),
            Rule::new(b"password", crate::dpi::Action::Alert),
        ],
        AttestConfig::fast(),
        &epid,
        seed,
        &mut rng,
    )?;

    // A TLS session between an enterprise client and an external server.
    let mut srng = rng.fork(b"server");
    let (mut client, mut server) = handshake(TlsConfig::fast(), &mut rng, &mut srng)?;
    let (sid, active) = gateway.provision(EndpointRole::Client, &client, &mut rng, &mut ledger)?;
    assert!(active, "unilateral provisioning activates immediately");

    // The exfiltration attempt comes last: blocking a record tears the
    // TLS stream's sequence alignment, which in deployment means the
    // gateway kills the connection — so nothing can follow the block.
    let mut server_received = Vec::new();
    for plaintext in [
        b"GET /public".as_slice(),
        b"password reset request",
        b"regular traffic",
        b"EXFIL: customer database dump",
    ] {
        let record = client.send(plaintext)?;
        match gateway.process(sid, EndpointRole::Client, &record)? {
            ProcessResult::Pass(bytes) | ProcessResult::Rewritten(bytes) => {
                server_received.push(server.recv(&bytes)?);
            }
            ProcessResult::Blocked => break, // connection terminated
        }
    }
    let (alerts, blocked, passed) = gateway.stats(sid)?;
    Ok(ScenarioReport {
        alerts,
        blocked,
        passed,
        attestations: ledger.total(),
        server_received,
    })
}

/// The bilateral cloud-DPI scenario: both endpoints attest the middlebox
/// and release keys; inspection is alert-only.
pub fn cloud_dpi_bilateral(seed: u64) -> Result<ScenarioReport> {
    let mut rng = SecureRng::seed_from_u64(seed);
    let epid = EpidGroup::new(34, &mut rng).map_err(MboxError::Sgx)?;
    let mut ledger = AttestLedger::new();

    let mut dpi = MiddleboxHost::deploy(
        "cloud-dpi",
        ProvisionPolicy::Bilateral,
        vec![Rule::new(b"malware-signature", crate::dpi::Action::Alert)],
        AttestConfig::fast(),
        &epid,
        seed,
        &mut rng,
    )?;

    let mut srng = rng.fork(b"server");
    let (mut client, mut server) = handshake(TlsConfig::fast(), &mut rng, &mut srng)?;

    // Client provisions: not active yet — the middlebox refuses to touch
    // traffic until the *other* endpoint also consents.
    let (sid, active) = dpi.provision(EndpointRole::Client, &client, &mut rng, &mut ledger)?;
    assert!(!active, "bilateral needs both endpoints");
    assert!(
        dpi.process(sid, EndpointRole::Client, b"\x00\x00garbage")
            .is_err(),
        "processing before mutual consent must be refused"
    );
    // Server consents: the session activates.
    let (sid2, active) = dpi.provision(EndpointRole::Server, &server, &mut rng, &mut ledger)?;
    assert_eq!(sid, sid2);
    assert!(active);

    let mut server_received = Vec::new();
    for plaintext in [
        b"clean content".as_slice(),
        b"contains malware-signature bytes",
    ] {
        let record = client.send(plaintext)?;
        if let Ok(ProcessResult::Pass(bytes)) = dpi.process(sid, EndpointRole::Client, &record) {
            server_received.push(server.recv(&bytes)?)
        }
    }
    let (alerts, blocked, passed) = dpi.stats(sid)?;
    Ok(ScenarioReport {
        alerts,
        blocked,
        passed,
        attestations: ledger.total(),
        server_received,
    })
}
