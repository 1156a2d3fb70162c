//! The quoting enclave, QUOTEs and the attestation (EPID) group.
//!
//! "Intel SGX uses a specially provisioned enclave, called quoting enclave,
//! whose identity is well-known [...] Only the quoting enclave can access
//! the processor key used for attestation. [...] The quoting enclave then
//! creates a signature of attestation result (QUOTE), using the private
//! key of the CPU." (paper §2.2)
//!
//! Intel's real scheme is EPID, a group signature: any platform in the
//! group produces signatures verifiable under one group public key without
//! identifying the platform. We model the privacy-relevant surface of that
//! — a per-group signing key shared by member platforms, one public
//! verification key for challengers — with a Schnorr signature (the paper
//! itself reduces EPID to "the private key of the CPU", fn. 2).

use teenet_crypto::schnorr::{SchnorrGroup, Signature, SigningKey, VerifyingKey};
use teenet_crypto::sha256::sha256;
use teenet_crypto::SecureRng;

use crate::cost::{Op, OpCounts};
use crate::error::{Result, SgxError};
use crate::keys::{derive_key, KeyRequest};
use crate::measurement::Measurement;
use crate::report::{verify_report, Report, ReportBody, TargetInfo};

/// The well-known quoting-enclave identity (same on every platform).
pub fn quoting_enclave_measurement() -> Measurement {
    Measurement(sha256(b"teenet-quoting-enclave-v1"))
}

/// An attestation group: platforms provisioned with the same group key
/// produce QUOTEs verifiable under the group's public key.
pub struct EpidGroup {
    /// Public group identifier.
    pub group_id: u64,
    signing: SigningKey,
}

impl EpidGroup {
    /// Creates a new attestation group (the "Intel provisioning service").
    pub fn new(group_id: u64, rng: &mut SecureRng) -> Result<Self> {
        let group = SchnorrGroup::standard();
        let signing = SigningKey::generate(&group, rng)?;
        Ok(EpidGroup { group_id, signing })
    }

    /// The verification key challengers use.
    pub fn public_key(&self) -> VerifyingKey {
        self.signing.verifying_key()
    }

    pub(crate) fn signing_key(&self) -> SigningKey {
        self.signing.clone()
    }
}

/// A QUOTE: a REPORT body signed by the platform's quoting enclave.
#[derive(Debug, Clone)]
pub struct Quote {
    /// The attested enclave's report body.
    pub body: ReportBody,
    /// Attestation group the signing platform belongs to.
    pub group_id: u64,
    /// Group signature over `(group_id, body)`.
    pub signature: Signature,
}

impl Quote {
    fn message(group_id: u64, body: &ReportBody) -> Vec<u8> {
        let mut msg = Vec::with_capacity(16 + 130);
        msg.extend_from_slice(b"QUOTE");
        msg.extend_from_slice(&group_id.to_le_bytes());
        msg.extend_from_slice(&body.to_bytes());
        msg
    }

    /// Verifies the group signature; charges the challenger's verification
    /// to `counts`.
    pub fn verify(&self, group_public: &VerifyingKey, counts: &mut OpCounts) -> Result<()> {
        counts.charge(Op::QuoteVerify, 1);
        group_public
            .verify(&Self::message(self.group_id, &self.body), &self.signature)
            .map_err(|_| SgxError::QuoteInvalid("group signature"))
    }
}

/// The per-platform quoting enclave.
pub struct QuotingEnclave {
    /// Ops performed by the quoting enclave.
    pub counts: OpCounts,
    group_id: u64,
    attestation_key: SigningKey,
    rng: SecureRng,
}

impl QuotingEnclave {
    /// Provisions the quoting enclave with the group's attestation key.
    pub fn new(group: &EpidGroup, rng: SecureRng) -> Self {
        QuotingEnclave {
            counts: OpCounts::new(),
            group_id: group.group_id,
            attestation_key: group.signing_key(),
            rng,
        }
    }

    /// The TargetInfo application enclaves use to EREPORT to the QE.
    pub fn target_info(&self) -> TargetInfo {
        TargetInfo {
            mrenclave: quoting_enclave_measurement(),
        }
    }

    /// Turns a REPORT (targeted at the QE) into a QUOTE.
    ///
    /// Performs the QE's half of intra-attestation — EGETKEY for its report
    /// key, MAC verification — then signs. Instruction accounting follows
    /// Table 1's quoting-enclave column: entering/exiting the QE, EGETKEY,
    /// and the dominant signature cost.
    pub fn quote(&mut self, device_key: &[u8; 32], report: &Report) -> Result<Quote> {
        // Host enters the QE with the report (EENTER ... EEXIT at the end);
        // the report/quote are moved over socket ocalls (recv report, send
        // verification, recv ack, send quote = 4 exits + 4 re-entries),
        // and intra-attestation is mutual (the QE EREPORTs back to the
        // target, Sec. 2.2), adding one EREPORT, an EGETKEY for the launch
        // key check, a second entry pair and a final acknowledgement round
        // trip.
        self.counts.charge(Op::EcallPair, 2);
        self.counts.charge(Op::HostCrossing, 4 + 1);
        self.counts.charge(Op::Ereport, 1);
        self.counts.charge(Op::Egetkey, 1);
        if report.target.mrenclave != quoting_enclave_measurement() {
            return Err(SgxError::QuoteInvalid("report not targeted at QE"));
        }
        // EGETKEY: the QE obtains its own report key.
        self.counts.charge(Op::Egetkey, 1);
        let report_key = derive_key(
            device_key,
            KeyRequest::Report,
            &quoting_enclave_measurement(),
            &Measurement([0u8; 32]),
        );
        self.counts.charge(Op::HmacShort, 1);
        verify_report(&report_key, report)?;
        // Sign the quote with the group attestation key.
        self.counts.charge(Op::QuoteSign, 1);
        self.counts.charge(Op::AttestQuoteBase, 1);
        let msg = Quote::message(self.group_id, &report.body);
        let signature = self
            .attestation_key
            .sign(&msg, &mut self.rng)
            .map_err(SgxError::Crypto)?;
        Ok(Quote {
            body: report.body.clone(),
            group_id: self.group_id,
            signature,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::report::{ereport, report_data_from};

    fn m(b: u8) -> Measurement {
        Measurement([b; 32])
    }

    fn setup() -> (EpidGroup, QuotingEnclave, [u8; 32]) {
        let mut rng = SecureRng::seed_from_u64(42);
        let group = EpidGroup::new(7, &mut rng).unwrap();
        let qe = QuotingEnclave::new(&group, rng.fork(b"qe"));
        (group, qe, [3u8; 32])
    }

    fn report_for_qe(device_key: &[u8; 32], qe: &QuotingEnclave) -> Report {
        let body = ReportBody {
            mrenclave: m(1),
            mrsigner: m(2),
            isv_svn: 1,
            report_data: report_data_from(b"dh-pubkey-digest"),
        };
        ereport(device_key, qe.target_info(), body)
    }

    #[test]
    fn quote_roundtrip() {
        let (group, mut qe, dk) = setup();
        let report = report_for_qe(&dk, &qe);
        let quote = qe.quote(&dk, &report).unwrap();
        let mut counts = OpCounts::new();
        quote.verify(&group.public_key(), &mut counts).unwrap();
        assert_eq!(quote.body.mrenclave, m(1));
        assert_eq!(counts.count(Op::QuoteVerify), 1);
    }

    #[test]
    fn quote_rejects_wrong_group_key() {
        let (_, mut qe, dk) = setup();
        let mut rng = SecureRng::seed_from_u64(99);
        let other_group = EpidGroup::new(8, &mut rng).unwrap();
        let report = report_for_qe(&dk, &qe);
        let quote = qe.quote(&dk, &report).unwrap();
        let mut counts = OpCounts::new();
        assert!(quote
            .verify(&other_group.public_key(), &mut counts)
            .is_err());
    }

    #[test]
    fn quote_rejects_report_for_other_target() {
        let (_, mut qe, dk) = setup();
        let body = ReportBody {
            mrenclave: m(1),
            mrsigner: m(2),
            isv_svn: 1,
            report_data: [0u8; 64],
        };
        // Report targeted at some other enclave, not the QE.
        let report = ereport(&dk, TargetInfo { mrenclave: m(9) }, body);
        assert!(qe.quote(&dk, &report).is_err());
    }

    #[test]
    fn quote_rejects_forged_report_mac() {
        let (_, mut qe, dk) = setup();
        let mut report = report_for_qe(&dk, &qe);
        report.body.mrenclave = m(66); // lie about identity after MACing
        assert!(matches!(
            qe.quote(&dk, &report),
            Err(SgxError::ReportMacMismatch)
        ));
    }

    #[test]
    fn tampered_quote_body_fails_verification() {
        let (group, mut qe, dk) = setup();
        let report = report_for_qe(&dk, &qe);
        let mut quote = qe.quote(&dk, &report).unwrap();
        quote.body.report_data[0] ^= 1;
        let mut counts = OpCounts::new();
        assert!(quote.verify(&group.public_key(), &mut counts).is_err());
    }

    #[test]
    fn two_platforms_same_group_verify_under_one_key() {
        // The EPID property the model preserves: quotes from different
        // platforms in one group verify under the same public key.
        let mut rng = SecureRng::seed_from_u64(1);
        let group = EpidGroup::new(7, &mut rng).unwrap();
        let mut qe_a = QuotingEnclave::new(&group, rng.fork(b"a"));
        let mut qe_b = QuotingEnclave::new(&group, rng.fork(b"b"));
        let dk_a = [1u8; 32];
        let dk_b = [2u8; 32];
        let ra = report_for_qe(&dk_a, &qe_a);
        let rb = report_for_qe(&dk_b, &qe_b);
        let qa = qe_a.quote(&dk_a, &ra).unwrap();
        let qb = qe_b.quote(&dk_b, &rb).unwrap();
        let mut c = OpCounts::new();
        qa.verify(&group.public_key(), &mut c).unwrap();
        qb.verify(&group.public_key(), &mut c).unwrap();
    }

    #[test]
    fn qe_counts_instructions() {
        let (_, mut qe, dk) = setup();
        let report = report_for_qe(&dk, &qe);
        qe.quote(&dk, &report).unwrap();
        // Table 1's quoting column: 17 SGX(U) and one quote signature.
        assert_eq!(qe.counts.price(&CostModel::paper()).sgx_instr, 17);
        assert_eq!(qe.counts.count(Op::QuoteSign), 1);
    }
}
