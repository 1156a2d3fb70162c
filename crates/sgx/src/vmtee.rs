//! The VM-TEE backend's parts: a TDX/SEV-SNP-style platform is the same
//! [`Platform`] as the SGX emulator, with other prices, more protected
//! memory and another attestation component.
//!
//! A VM-level TEE changes the *shape* of trusted-execution costs, not the
//! workloads:
//!
//! * **No world switch per guest call.** Code inside the guest calls
//!   trusted code directly — [`CostModel::vmtee`] prices the per-ecall
//!   transition pair ([`Op::EcallPair`]) at zero. Crossings that leave
//!   the guest (ocalls, packet I/O) still cost VM exits, charged in the
//!   cheaper `sgx_instr_cycles` of the VM-TEE profile.
//! * **Page acceptance instead of EPC paging.** Guest private memory is
//!   large enough that eviction never fires ([`VMTEE_EPC_PAGES`]), but
//!   every newly accepted page pays a PVALIDATE/EACCEPT-style cost
//!   ([`Op::PageAccept`]).
//! * **A security processor instead of a quoting enclave.** Attestation
//!   reports are signed by the platform [`SecurityProcessor`] under a
//!   per-chip key (VCEK) whose endorsement — a vendor-root signature over
//!   the VCEK public key — ships with the evidence, SEV-SNP style. The
//!   vendor root is the same key that anchors the EPID group, so one
//!   attestation root serves both backends.
//!
//! Everything else — enclave lifecycle, measurements, sealing, switchless
//! rings, counter accounting — is the [`Platform`] code both backends
//! share.
//!
//! [`Platform`]: crate::platform::Platform
//! [`CostModel::vmtee`]: crate::cost::CostModel::vmtee

use teenet_crypto::schnorr::{SchnorrGroup, Signature, SigningKey, VerifyingKey};
use teenet_crypto::sha256::sha256;
use teenet_crypto::SecureRng;

use crate::cost::{Op, OpCounts};
use crate::error::{Result, SgxError};
use crate::keys::{derive_key, KeyRequest};
use crate::measurement::Measurement;
use crate::quote::EpidGroup;
use crate::report::{verify_report, Report, ReportBody, TargetInfo};
use crate::tee::VMTEE_EVIDENCE_SENTINEL;
use crate::wire::{put_var, take, take_arr, take_var};

/// Guest private-memory capacity of a VM TEE, in pages. Large enough that
/// demand paging/eviction never fires (the VM-TEE story replaces EPC
/// pressure with per-page acceptance costs); the EPC bookkeeping is lazy,
/// so the capacity costs nothing up front.
pub const VMTEE_EPC_PAGES: usize = 1 << 20;

/// The well-known identity of the platform security processor's firmware
/// (same on every platform, like the quoting enclave's measurement).
pub fn psp_measurement() -> Measurement {
    Measurement(sha256(b"teenet-vmtee-psp-v1"))
}

fn endorsement_message(vcek_pub: &VerifyingKey) -> Vec<u8> {
    let pub_bytes = vcek_pub.to_bytes();
    let mut msg = Vec::with_capacity(10 + pub_bytes.len());
    msg.extend_from_slice(b"VMTEE-VCEK");
    msg.extend_from_slice(&pub_bytes);
    msg
}

fn report_message(body: &ReportBody) -> Vec<u8> {
    let mut msg = Vec::with_capacity(12 + ReportBody::WIRE_LEN);
    msg.extend_from_slice(b"VMTEE-REPORT");
    msg.extend_from_slice(&body.to_bytes());
    msg
}

/// VM-TEE attestation evidence: a report body signed under the platform's
/// VCEK, plus the vendor-root endorsement of that VCEK (the host-fetched
/// certificate chain of SEV-SNP, collapsed to its one load-bearing link).
#[derive(Debug, Clone)]
pub struct VmEvidence {
    /// The attested report body (identity + user data).
    pub body: ReportBody,
    /// Public half of the per-chip report-signing key (VCEK).
    pub signing_pub: VerifyingKey,
    /// VCEK signature over the report body.
    pub report_sig: Signature,
    /// Vendor-root signature over the VCEK public key.
    pub endorsement: Signature,
}

impl VmEvidence {
    /// Verifies the endorsement chain and then the report signature,
    /// charging both verifications to `counts`.
    ///
    /// `root` is the vendor root — the same public key that verifies EPID
    /// quotes, so challengers hold one attestation root per deployment.
    pub fn verify(&self, root: &VerifyingKey, counts: &mut OpCounts) -> Result<()> {
        counts.charge(Op::QuoteVerify, 1);
        root.verify(&endorsement_message(&self.signing_pub), &self.endorsement)
            .map_err(|_| SgxError::EndorsementInvalid("vendor root signature over VCEK"))?;
        counts.charge(Op::QuoteVerify, 1);
        self.signing_pub
            .verify(&report_message(&self.body), &self.report_sig)
            .map_err(|_| SgxError::QuoteInvalid("VCEK report signature"))
    }

    /// Canonical wire encoding: the report body, the
    /// [`VMTEE_EVIDENCE_SENTINEL`] in the group-id position (so EPID and
    /// VM-TEE evidence share one parser entry point), then the VCEK
    /// public key, report signature and endorsement as length-prefixed
    /// fields.
    pub fn to_bytes(&self) -> Vec<u8> {
        let pub_bytes = self.signing_pub.to_bytes();
        let sig_bytes = self.report_sig.to_bytes();
        let end_bytes = self.endorsement.to_bytes();
        let mut out = Vec::with_capacity(
            ReportBody::WIRE_LEN + 8 + 6 + pub_bytes.len() + sig_bytes.len() + end_bytes.len(),
        );
        out.extend_from_slice(&self.body.to_bytes());
        out.extend_from_slice(&VMTEE_EVIDENCE_SENTINEL.to_le_bytes());
        put_var(&mut out, &pub_bytes);
        put_var(&mut out, &sig_bytes);
        put_var(&mut out, &end_bytes);
        out
    }

    /// Parses the encoding of [`VmEvidence::to_bytes`].
    pub fn from_bytes(mut buf: &[u8]) -> Result<Self> {
        let body = take(&mut buf, ReportBody::WIRE_LEN, "vm evidence body")?;
        let sentinel = take_arr::<8>(&mut buf, "vm evidence sentinel")?;
        if u64::from_le_bytes(sentinel) != VMTEE_EVIDENCE_SENTINEL {
            return Err(SgxError::Crypto(teenet_crypto::CryptoError::Malformed(
                "vm evidence sentinel",
            )));
        }
        let pub_bytes = take_var(&mut buf, "vm evidence vcek key")?;
        let sig_bytes = take_var(&mut buf, "vm evidence report signature")?;
        let end_bytes = take_var(&mut buf, "vm evidence endorsement")?;
        if !buf.is_empty() {
            return Err(SgxError::Crypto(teenet_crypto::CryptoError::Malformed(
                "vm evidence trailing bytes",
            )));
        }
        Ok(VmEvidence {
            body: ReportBody::from_bytes(body)?,
            signing_pub: VerifyingKey::from_bytes(&SchnorrGroup::standard(), pub_bytes)
                .map_err(SgxError::Crypto)?,
            report_sig: Signature::from_bytes(sig_bytes).map_err(SgxError::Crypto)?,
            endorsement: Signature::from_bytes(end_bytes).map_err(SgxError::Crypto)?,
        })
    }
}

/// The platform security processor: holds the per-chip VCEK and its
/// vendor-root endorsement, and turns REPORTs into [`VmEvidence`].
pub struct SecurityProcessor {
    /// Ops performed by (and on behalf of) the PSP.
    pub counts: OpCounts,
    vcek: SigningKey,
    endorsement: Signature,
    rng: SecureRng,
}

impl SecurityProcessor {
    /// Provisions the PSP: generates the per-chip VCEK and has the vendor
    /// (the attestation group's root key) endorse it — the manufacturing
    /// step SEV-SNP performs at chip fabrication.
    pub fn new(group: &EpidGroup, mut rng: SecureRng) -> Result<Self> {
        let vcek = SigningKey::generate(&SchnorrGroup::standard(), &mut rng)?;
        let endorsement = group
            .signing_key()
            .sign(&endorsement_message(&vcek.verifying_key()), &mut rng)
            .map_err(SgxError::Crypto)?;
        Ok(SecurityProcessor {
            counts: OpCounts::new(),
            vcek,
            endorsement,
            rng,
        })
    }

    /// The TargetInfo guests use to address attestation reports to the
    /// PSP.
    pub fn target_info(&self) -> TargetInfo {
        TargetInfo {
            mrenclave: psp_measurement(),
        }
    }

    /// Turns a REPORT (targeted at the PSP) into signed evidence.
    ///
    /// The guest-to-PSP mailbox costs one crossing pair; the PSP then
    /// verifies the report MAC (same EGETKEY/HMAC discipline as the
    /// quoting enclave) and signs the body under the VCEK. There is no
    /// EPID socket shuffle and no mutual intra-attestation phase — the
    /// PSP is hardware, not a peer enclave — which is why VM-TEE
    /// attestation is cheaper in transitions but still pays the signature.
    pub fn attest(&mut self, device_key: &[u8; 32], report: &Report) -> Result<VmEvidence> {
        // Guest writes the report into the PSP mailbox and reads the
        // evidence back: one crossing pair.
        self.counts.charge(Op::HostCrossing, 1);
        if report.target.mrenclave != psp_measurement() {
            return Err(SgxError::QuoteInvalid("report not targeted at PSP"));
        }
        let report_key = derive_key(
            device_key,
            KeyRequest::Report,
            &psp_measurement(),
            &Measurement([0u8; 32]),
        );
        self.counts.charge(Op::HmacShort, 1);
        verify_report(&report_key, report)?;
        self.counts.charge(Op::QuoteSign, 1);
        self.counts.charge(Op::AttestQuoteBase, 1);
        let report_sig = self
            .vcek
            .sign(&report_message(&report.body), &mut self.rng)
            .map_err(SgxError::Crypto)?;
        Ok(VmEvidence {
            body: report.body.clone(),
            signing_pub: self.vcek.verifying_key(),
            report_sig,
            endorsement: self.endorsement.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::platform::Platform;
    use crate::report::{ereport, report_data_from};
    use crate::tee::{Evidence, TeeBackend, TeePlatform};

    fn setup() -> (EpidGroup, Platform) {
        let mut rng = SecureRng::seed_from_u64(42);
        let group = EpidGroup::new(7, &mut rng).unwrap();
        let p = Platform::new(TeeBackend::VmTee, "vm0", &group, 9).unwrap();
        (group, p)
    }

    fn report_for_psp(p: &Platform) -> Report {
        let body = ReportBody {
            mrenclave: Measurement([1u8; 32]),
            mrsigner: Measurement([2u8; 32]),
            isv_svn: 1,
            report_data: report_data_from(b"dh-pubkey-digest"),
        };
        ereport(p.device_key(), p.attestation_target_info(), body)
    }

    #[test]
    fn evidence_verifies_under_vendor_root() {
        let (group, mut p) = setup();
        let report = report_for_psp(&p);
        let ev = p.evidence(&report).unwrap();
        let mut c = OpCounts::new();
        ev.verify(&group.public_key(), &mut c).unwrap();
        // Endorsement check + report signature check.
        assert_eq!(c.count(Op::QuoteVerify), 2);
        assert_eq!(ev.backend(), TeeBackend::VmTee);
        assert_eq!(ev.body().mrenclave, Measurement([1u8; 32]));
    }

    #[test]
    fn evidence_wire_roundtrip_via_dispatcher() {
        let (group, mut p) = setup();
        let report = report_for_psp(&p);
        let ev = p.evidence(&report).unwrap();
        let bytes = ev.to_bytes();
        let parsed = Evidence::from_bytes(&bytes).unwrap();
        assert_eq!(parsed.backend(), TeeBackend::VmTee);
        assert_eq!(parsed.body(), ev.body());
        parsed
            .verify(&group.public_key(), &mut OpCounts::new())
            .unwrap();
        assert_eq!(parsed.to_bytes(), bytes, "canonical re-encoding");
    }

    #[test]
    fn wrong_root_is_an_endorsement_error() {
        let (_, mut p) = setup();
        let mut rng = SecureRng::seed_from_u64(99);
        let other = EpidGroup::new(8, &mut rng).unwrap();
        let report = report_for_psp(&p);
        let ev = p.evidence(&report).unwrap();
        assert!(matches!(
            ev.verify(&other.public_key(), &mut OpCounts::new()),
            Err(SgxError::EndorsementInvalid(_))
        ));
    }

    #[test]
    fn tampered_body_fails_report_signature() {
        let (group, mut p) = setup();
        let report = report_for_psp(&p);
        let ev = p.evidence(&report).unwrap();
        let Evidence::VmTee(mut vm) = ev else {
            panic!("vm evidence expected")
        };
        vm.body.report_data[0] ^= 1;
        assert!(matches!(
            vm.verify(&group.public_key(), &mut OpCounts::new()),
            Err(SgxError::QuoteInvalid(_))
        ));
    }

    #[test]
    fn psp_rejects_misdirected_and_forged_reports() {
        let (_, mut p) = setup();
        let body = ReportBody {
            mrenclave: Measurement([1u8; 32]),
            mrsigner: Measurement([2u8; 32]),
            isv_svn: 1,
            report_data: [0u8; 64],
        };
        // Targeted at some other enclave, not the PSP.
        let wrong_target = ereport(
            p.device_key(),
            TargetInfo {
                mrenclave: Measurement([9u8; 32]),
            },
            body.clone(),
        );
        assert!(matches!(
            p.evidence(&wrong_target),
            Err(SgxError::QuoteInvalid(_))
        ));
        // MACed on a different platform (different device key).
        let forged = ereport(&[6u8; 32], p.attestation_target_info(), body);
        assert!(matches!(
            p.evidence(&forged),
            Err(SgxError::ReportMacMismatch)
        ));
    }

    #[test]
    fn truncated_evidence_is_rejected() {
        let (_, mut p) = setup();
        let report = report_for_psp(&p);
        let ev = p.evidence(&report).unwrap();
        let bytes = ev.to_bytes();
        assert!(VmEvidence::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        let mut long = bytes.clone();
        long.push(0);
        assert!(VmEvidence::from_bytes(&long).is_err());
    }

    #[test]
    fn vmtee_platform_is_priced_by_the_vmtee_profile() {
        let mut rng = SecureRng::seed_from_u64(5);
        let group = EpidGroup::new(1, &mut rng).unwrap();
        let p = crate::tee::deploy_platform(TeeBackend::VmTee, "vm1", &group, 3).unwrap();
        assert_eq!(p.backend(), TeeBackend::VmTee);
        assert_eq!(p.platform_name(), "vm1");
        assert_eq!(p.model(), &CostModel::vmtee());
        assert_eq!(p.attestation_target_info().mrenclave, psp_measurement());
        assert_eq!(p.epc_free_pages(), VMTEE_EPC_PAGES);
        assert_eq!(p.attestor_counts(), OpCounts::new());
    }

    #[test]
    fn evidence_is_deterministic_in_name_and_seed() {
        let mut rng = SecureRng::seed_from_u64(42);
        let group = EpidGroup::new(7, &mut rng).unwrap();
        let mut a = Platform::new(TeeBackend::VmTee, "vm0", &group, 9).unwrap();
        let mut b = Platform::new(TeeBackend::VmTee, "vm0", &group, 9).unwrap();
        let ra = report_for_psp(&a);
        let rb = report_for_psp(&b);
        assert_eq!(
            a.evidence(&ra).unwrap().to_bytes(),
            b.evidence(&rb).unwrap().to_bytes()
        );
    }
}
