//! The middlebox enclave: attested key reception and in-enclave record
//! processing.
//!
//! Endpoint approval is enforced by [`ProvisionPolicy`]: with
//! [`ProvisionPolicy::Bilateral`] the session only activates once *both*
//! endpoints have attested the middlebox and released the keys ("when both
//! end-points are SGX-enabled, it can be used to allow only the
//! middleboxes that both end-points agree upon decrypt/encrypt the TLS
//! traffic"); [`ProvisionPolicy::Unilateral`] activates on the first
//! release (the enterprise-inspection use case).

use std::collections::{HashMap, HashSet};

use teenet::attest::AttestConfig;
use teenet::responder::AttestResponder;
use teenet_sgx::{EnclaveCtx, EnclaveProgram, SgxError};
use teenet_tls::record::RecordProtection;

use crate::dpi::{DpiEngine, Verdict};
use crate::provision::{session_id, EndpointRole, ProvisionMsg};

/// How many endpoints must release keys before processing starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProvisionPolicy {
    /// Both endpoints must agree (attest + release).
    Bilateral,
    /// One endpoint suffices (enterprise / provider deployment).
    Unilateral,
}

/// Ecall function ids of the middlebox enclave.
pub mod mb_fn {
    /// Attestation begin (responder).
    pub const ATTEST_BEGIN: u64 = 0;
    /// Attestation finish (responder).
    pub const ATTEST_FINISH: u64 = 1;
    /// Key release: nonce(32) ‖ channel-sealed [`super::ProvisionMsg`].
    pub const PROVISION: u64 = 2;
    /// Record processing: session(8) ‖ direction(1: 0=c2s,1=s2c) ‖ record.
    pub const PROCESS: u64 = 3;
    /// Statistics: session(8) → alerts(u64) ‖ blocked(u64) ‖ passed(u64).
    pub const STATS: u64 = 4;
}

/// PROCESS result status bytes.
pub mod process_status {
    /// Record passes unchanged; record bytes follow.
    pub const PASS: u8 = 0;
    /// Record dropped by policy; nothing follows.
    pub const BLOCKED: u8 = 1;
    /// Record rewritten; re-sealed record bytes follow.
    pub const REWRITTEN: u8 = 2;
}

struct MbSession {
    c2s: RecordProtection,
    s2c: RecordProtection,
    provisioned: HashSet<EndpointRole>,
    active: bool,
    alerts: u64,
    blocked: u64,
    passed: u64,
}

/// The middlebox enclave program.
///
/// Its code image covers the middlebox name, version, provisioning policy
/// and the **full DPI rule configuration** — endpoints approving a
/// middlebox approve exactly this behaviour, so a middlebox with altered
/// rules (or an exfiltration patch) measures differently and fails
/// attestation.
pub struct MiddleboxEnclave {
    name: String,
    version: u16,
    policy: ProvisionPolicy,
    engine: DpiEngine,
    responder: AttestResponder,
    sessions: HashMap<[u8; 8], MbSession>,
}

impl MiddleboxEnclave {
    /// Builds a middlebox enclave.
    pub fn new(
        name: &str,
        version: u16,
        policy: ProvisionPolicy,
        engine: DpiEngine,
        attest: AttestConfig,
    ) -> Self {
        MiddleboxEnclave {
            name: name.to_owned(),
            version,
            policy,
            engine,
            responder: AttestResponder::new(attest),
            sessions: HashMap::new(),
        }
    }

    /// The code image an identical honest build would have (what endpoints
    /// pin as the expected identity).
    pub fn image_for(
        name: &str,
        version: u16,
        policy: ProvisionPolicy,
        engine: &DpiEngine,
    ) -> Vec<u8> {
        let mut image = Vec::new();
        image.extend_from_slice(b"teenet-middlebox-");
        image.extend_from_slice(name.as_bytes());
        image.extend_from_slice(&version.to_le_bytes());
        image.push(match policy {
            ProvisionPolicy::Bilateral => 0,
            ProvisionPolicy::Unilateral => 1,
        });
        image.extend_from_slice(&engine.config_bytes());
        image
    }

    fn required_endpoints(&self) -> usize {
        match self.policy {
            ProvisionPolicy::Bilateral => 2,
            ProvisionPolicy::Unilateral => 1,
        }
    }
}

impl EnclaveProgram for MiddleboxEnclave {
    fn code_image(&self) -> Vec<u8> {
        Self::image_for(&self.name, self.version, self.policy, &self.engine)
    }

    fn ecall(
        &mut self,
        ctx: &mut EnclaveCtx<'_>,
        fn_id: u64,
        input: &[u8],
    ) -> core::result::Result<Vec<u8>, SgxError> {
        match fn_id {
            mb_fn::ATTEST_BEGIN => self.responder.handle_begin(ctx, input),
            mb_fn::ATTEST_FINISH => self.responder.handle_finish(ctx, input),
            mb_fn::PROVISION => {
                if input.len() < 32 {
                    return Err(SgxError::EcallRejected("short provision input"));
                }
                let (nonce, sealed) = input.split_at(32);
                let nonce: [u8; 32] = nonce
                    .try_into()
                    .map_err(|_| SgxError::EcallRejected("bad session nonce"))?;
                ctx.counts.keyed_aes(sealed.len());
                let channel = self.responder.channel_mut(&nonce)?;
                let plain = channel
                    .open(sealed)
                    .map_err(|_| SgxError::EcallRejected("bad provision message"))?;
                let msg = ProvisionMsg::from_bytes(&plain)
                    .map_err(|_| SgxError::EcallRejected("malformed provision message"))?;
                let sid = session_id(&msg.keys);
                ctx.malloc(plain.len().max(1))?;
                let required = self.required_endpoints();
                let session = self.sessions.entry(sid).or_insert_with(|| MbSession {
                    c2s: RecordProtection::with_seq(
                        msg.keys.suite,
                        msg.keys.client_write.clone(),
                        msg.seq_c2s,
                    ),
                    s2c: RecordProtection::with_seq(
                        msg.keys.suite,
                        msg.keys.server_write.clone(),
                        msg.seq_s2c,
                    ),
                    provisioned: HashSet::new(),
                    active: false,
                    alerts: 0,
                    blocked: 0,
                    passed: 0,
                });
                session.provisioned.insert(msg.role);
                session.active = session.provisioned.len() >= required;
                let mut out = sid.to_vec();
                out.push(session.active as u8);
                Ok(out)
            }
            mb_fn::PROCESS => {
                if input.len() < 9 {
                    return Err(SgxError::EcallRejected("short process input"));
                }
                let sid: [u8; 8] = input[..8]
                    .try_into()
                    .map_err(|_| SgxError::EcallRejected("bad session id"))?;
                let direction = input[8];
                let record = &input[9..];
                // Decrypt for inspection, re-encrypt to forward.
                ctx.counts.keyed_aes(record.len());
                ctx.counts.aes(record.len());
                let session = self
                    .sessions
                    .get_mut(&sid)
                    .ok_or(SgxError::EcallRejected("unknown session"))?;
                if !session.active {
                    return Err(SgxError::EcallRejected(
                        "session not approved by all endpoints",
                    ));
                }
                let protection = if direction == 0 {
                    &mut session.c2s
                } else {
                    &mut session.s2c
                };
                // Decrypt a copy: for Pass the original ciphertext is
                // forwarded untouched; for Rewrite we re-seal at the same
                // sequence number so downstream state stays consistent.
                let seq_before = protection.seq();
                let plain = protection
                    .open(record)
                    .map_err(|_| SgxError::EcallRejected("record failed authentication"))?;
                match self.engine.inspect(&plain) {
                    Verdict::Pass { alerts } => {
                        session.alerts += alerts as u64;
                        session.passed += 1;
                        let mut out = vec![process_status::PASS];
                        out.extend_from_slice(record);
                        Ok(out)
                    }
                    Verdict::Blocked { alerts } => {
                        session.alerts += alerts as u64;
                        session.blocked += 1;
                        Ok(vec![process_status::BLOCKED])
                    }
                    Verdict::Rewritten { data, alerts } => {
                        session.alerts += alerts as u64;
                        session.passed += 1;
                        // Re-seal at the consumed sequence number.
                        let p = if direction == 0 {
                            &session.c2s
                        } else {
                            &session.s2c
                        };
                        let mut resealer =
                            RecordProtection::with_seq(p.suite(), p.keys().clone(), seq_before);
                        let sealed = resealer
                            .seal(&data)
                            .map_err(|_| SgxError::EcallRejected("reseal failed"))?;
                        let mut out = vec![process_status::REWRITTEN];
                        out.extend_from_slice(&sealed);
                        Ok(out)
                    }
                }
            }
            mb_fn::STATS => {
                if input.len() != 8 {
                    return Err(SgxError::EcallRejected("short stats input"));
                }
                let sid: [u8; 8] = input
                    .try_into()
                    .map_err(|_| SgxError::EcallRejected("bad session id"))?;
                let session = self
                    .sessions
                    .get(&sid)
                    .ok_or(SgxError::EcallRejected("unknown session"))?;
                let mut out = Vec::with_capacity(24);
                out.extend_from_slice(&session.alerts.to_le_bytes());
                out.extend_from_slice(&session.blocked.to_le_bytes());
                out.extend_from_slice(&session.passed.to_le_bytes());
                Ok(out)
            }
            _ => Err(SgxError::EcallRejected("unknown middlebox fn")),
        }
    }
}
