//! The multi-backend TEE abstraction.
//!
//! The paper models network applications on SGX enclaves, but the same
//! workloads run on VM-level TEEs (TDX, SEV-SNP) with a different *cost
//! shape*: no world switch per guest call, VM exits on I/O-shaped
//! crossings, page acceptance instead of EPC paging, and a security
//! processor signing attestation reports instead of an EPID quoting
//! enclave. [`TeePlatform`] captures the surface every workload actually
//! uses — deploy, destroy, ecall (plus batch), transition-mode and
//! switchless configuration, attestation evidence, counter and transition
//! accounting — so a service deploys against `dyn TeePlatform` and
//! calibrates identically under either backend.
//!
//! A backend is data, not a second implementor: [`Platform`] is the one
//! implementor, and [`TeeBackend`] picks its price vector
//! ([`TeeBackend::cost_model`]), its EPC capacity and its attestation
//! component in [`Platform::new`].
//!
//! [`Evidence`] is the backend-portable attestation artifact: an EPID
//! quote on SGX, a PSP-signed report plus host-fetched endorsement chain
//! on a VM TEE. The wire encoding keeps the EPID form identical to
//! [`Quote::to_bytes`] and distinguishes the VM-TEE form by a sentinel in
//! the group-id field, so pre-existing SGX byte streams parse unchanged.

use teenet_crypto::schnorr::{SigningKey, VerifyingKey};

use crate::cost::{CostModel, Counters};
use crate::enclave::{EnclaveId, EnclaveProgram};
use crate::error::Result;
use crate::measurement::Measurement;
use crate::ocall::{HostCalls, NullHost};
use crate::platform::Platform;
use crate::quote::{EpidGroup, Quote};
use crate::report::{Report, ReportBody, TargetInfo};
use crate::switchless::{SwitchlessConfig, TransitionMode, TransitionStats};
use crate::vmtee::VmEvidence;

/// Which TEE backend a platform (and everything calibrated on it) uses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum TeeBackend {
    /// Enclave TEE: the paper's SGX model (EENTER/EEXIT per call, EPC
    /// paging, EPID quoting enclave).
    #[default]
    Sgx,
    /// VM TEE: a TDX/SEV-SNP-style model (no world switch per guest
    /// call, VM exits on I/O crossings, page acceptance, PSP-signed
    /// reports with an endorsement chain).
    VmTee,
}

impl TeeBackend {
    /// Stable name, as accepted by `loadgen --backend` and emitted in
    /// reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            TeeBackend::Sgx => "sgx",
            TeeBackend::VmTee => "vmtee",
        }
    }

    /// Parses a backend name (the inverse of [`TeeBackend::as_str`]).
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "sgx" => Some(TeeBackend::Sgx),
            "vmtee" => Some(TeeBackend::VmTee),
            _ => None,
        }
    }

    /// The cost profile this backend prices crossings and attestation
    /// with.
    pub fn cost_model(&self) -> CostModel {
        match self {
            TeeBackend::Sgx => CostModel::paper(),
            TeeBackend::VmTee => CostModel::vmtee(),
        }
    }
}

impl core::fmt::Display for TeeBackend {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The group-id value that marks a serialised [`Evidence`] as VM-TEE
/// evidence rather than an EPID quote. EPID group ids are small
/// provisioning-service counters in practice; `u64::MAX` is reserved.
pub const VMTEE_EVIDENCE_SENTINEL: u64 = u64::MAX;

/// Backend-portable attestation evidence: what the target platform hands
/// a challenger in message 3 of the paper's Figure 1 flow.
#[derive(Debug, Clone)]
pub enum Evidence {
    /// An EPID-style QUOTE from the SGX quoting enclave.
    Epid(Quote),
    /// A PSP-signed attestation report plus its endorsement chain
    /// (SEV-SNP style).
    VmTee(VmEvidence),
}

impl Evidence {
    /// Which backend produced this evidence.
    pub fn backend(&self) -> TeeBackend {
        match self {
            Evidence::Epid(_) => TeeBackend::Sgx,
            Evidence::VmTee(_) => TeeBackend::VmTee,
        }
    }

    /// The attested report body (identity + user data), whichever the
    /// backend.
    pub fn body(&self) -> &ReportBody {
        match self {
            Evidence::Epid(q) => &q.body,
            Evidence::VmTee(e) => &e.body,
        }
    }

    /// Verifies the evidence against the attestation root (the EPID group
    /// public key, doubling as the VM-TEE vendor root), charging the
    /// verification cost to `counters`.
    ///
    /// EPID evidence costs one signature verification; VM-TEE evidence
    /// costs two (the endorsement link, then the report signature).
    pub fn verify(
        &self,
        root: &VerifyingKey,
        counters: &mut Counters,
        model: &CostModel,
    ) -> Result<()> {
        match self {
            Evidence::Epid(q) => q.verify(root, counters, model),
            Evidence::VmTee(e) => e.verify(root, counters, model),
        }
    }

    /// Canonical wire encoding. EPID evidence encodes exactly as
    /// [`Quote::to_bytes`]; VM-TEE evidence carries
    /// [`VMTEE_EVIDENCE_SENTINEL`] in the group-id position.
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            Evidence::Epid(q) => q.to_bytes(),
            Evidence::VmTee(e) => e.to_bytes(),
        }
    }

    /// Parses the encoding of [`Evidence::to_bytes`], dispatching on the
    /// group-id sentinel.
    pub fn from_bytes(buf: &[u8]) -> Result<Self> {
        let gid = buf
            .get(ReportBody::WIRE_LEN..ReportBody::WIRE_LEN + 8)
            .map(|g| {
                let mut b = [0u8; 8];
                b.copy_from_slice(g);
                u64::from_le_bytes(b)
            });
        match gid {
            Some(VMTEE_EVIDENCE_SENTINEL) => Ok(Evidence::VmTee(VmEvidence::from_bytes(buf)?)),
            _ => Ok(Evidence::Epid(Quote::from_bytes(buf)?)),
        }
    }
}

/// One TEE-capable machine, whatever the backend.
///
/// Object-safe and `Send`: services hold a `Box<dyn TeePlatform>` and one
/// independent platform instance can live per load-generation shard.
/// [`Platform`] is the one implementor.
pub trait TeePlatform: Send {
    /// Which backend this platform models.
    fn backend(&self) -> TeeBackend;

    /// Human-readable platform name (for reports and debugging).
    fn platform_name(&self) -> &str;

    /// The cost model all accounting on this platform uses.
    fn model(&self) -> &CostModel;

    /// Signs `program` with `author` and loads it under the measurement
    /// it signed: ECREATE → EADD/EEXTEND per page → EINIT. Launch is not
    /// charged to the enclave counters: the paper excludes it as a
    /// one-time cost (§5).
    fn create_signed(
        &mut self,
        program: Box<dyn EnclaveProgram>,
        author: &SigningKey,
        isv_svn: u16,
    ) -> Result<EnclaveId>;

    /// EREMOVE: tears an enclave down, releasing its protected memory.
    fn destroy_enclave(&mut self, id: EnclaveId) -> Result<()>;

    /// Performs an ecall into enclave `id` with host services available.
    fn ecall(
        &mut self,
        id: EnclaveId,
        fn_id: u64,
        input: &[u8],
        host: &mut dyn HostCalls,
    ) -> Result<Vec<u8>>;

    /// Performs a **batched** ecall: N queued calls executed under a
    /// single EENTER/EEXIT pair, the generalisation of the paper's Table 2
    /// I/O batching (1 packet costs 6 SGX instructions, 100 batched
    /// packets cost 204 — not 600).
    ///
    /// Each call still pays its own marshalling (normal instructions), and
    /// a call that fails aborts the batch, returning its error; results of
    /// the calls before it are discarded (their side effects inside the
    /// enclave stand, exactly as with sequential ecalls).
    fn ecall_batch(
        &mut self,
        id: EnclaveId,
        calls: &[(u64, Vec<u8>)],
        host: &mut dyn HostCalls,
    ) -> Result<Vec<Vec<u8>>>;

    /// Sets the transition mode of one enclave. Entering switchless
    /// starts the host worker spinning; returning to classic parks it.
    fn set_transition_mode(&mut self, id: EnclaveId, mode: TransitionMode) -> Result<()>;

    /// Tunes the switchless ring/worker of one enclave.
    fn configure_switchless(&mut self, id: EnclaveId, config: SwitchlessConfig) -> Result<()>;

    /// Crossing statistics of one enclave.
    fn transition_stats_of(&self, id: EnclaveId) -> Result<TransitionStats>;

    /// Sum of all enclaves' crossing statistics.
    fn total_transition_stats(&self) -> TransitionStats;

    /// Counters of one enclave.
    fn counters_of(&self, id: EnclaveId) -> Result<Counters>;

    /// Counters of the attestation component (quoting enclave on SGX,
    /// security processor on a VM TEE).
    fn attestor_counters(&self) -> Counters;

    /// Resets the counters of one enclave (e.g. to exclude setup phases,
    /// as the paper does for Table 4).
    fn reset_counters(&mut self, id: EnclaveId) -> Result<()>;

    /// Sum of all enclave counters plus the attestation component.
    fn total_counters(&self) -> Counters;

    /// The identity (measurement) of a loaded enclave.
    fn measurement_of(&self, id: EnclaveId) -> Result<Measurement>;

    /// The TargetInfo enclaves use to address attestation reports to this
    /// platform's attestation component.
    fn attestation_target_info(&self) -> TargetInfo;

    /// Turns a report (targeted at this platform's attestation component)
    /// into verifiable [`Evidence`].
    fn evidence(&mut self, report: &Report) -> Result<Evidence>;

    /// Free protected-memory pages remaining.
    fn epc_free_pages(&self) -> usize;

    /// Ecall without host services (pure computation inside the enclave).
    fn ecall_nohost(&mut self, id: EnclaveId, fn_id: u64, input: &[u8]) -> Result<Vec<u8>> {
        let mut host = NullHost;
        self.ecall(id, fn_id, input, &mut host)
    }

    /// Batched ecall without host services.
    fn ecall_batch_nohost(
        &mut self,
        id: EnclaveId,
        calls: &[(u64, Vec<u8>)],
    ) -> Result<Vec<Vec<u8>>> {
        let mut host = NullHost;
        self.ecall_batch(id, calls, &mut host)
    }
}

/// The backend factory: builds a platform named `name`, provisioned into
/// `group` (the EPID group on SGX; its key doubles as the vendor root on
/// a VM TEE), seeded with `seed`.
///
/// All deployments — services, tests, examples — go through here, so a
/// backend switch is one argument; [`Platform::new`] turns that argument
/// into the backend's prices, EPC capacity and attestation component.
pub fn deploy_platform(
    backend: TeeBackend,
    name: &str,
    group: &EpidGroup,
    seed: u64,
) -> Result<Box<dyn TeePlatform>> {
    Ok(Box::new(Platform::new(backend, name, group, seed)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use teenet_crypto::schnorr::SchnorrGroup;
    use teenet_crypto::SecureRng;

    #[test]
    fn backend_names_round_trip() {
        for b in [TeeBackend::Sgx, TeeBackend::VmTee] {
            assert_eq!(TeeBackend::parse(b.as_str()), Some(b));
            assert_eq!(format!("{b}"), b.as_str());
        }
        assert_eq!(TeeBackend::parse("tdx"), None);
        assert_eq!(TeeBackend::default(), TeeBackend::Sgx);
        assert_eq!(TeeBackend::Sgx.cost_model(), CostModel::paper());
        assert_eq!(TeeBackend::VmTee.cost_model(), CostModel::vmtee());
    }

    #[test]
    fn epid_evidence_wire_is_exactly_the_quote_wire() {
        let mut rng = SecureRng::seed_from_u64(3);
        let key = SigningKey::generate(&SchnorrGroup::small(), &mut rng).unwrap();
        let sig = key.sign(b"anything", &mut rng).unwrap();
        let q = Quote {
            body: ReportBody {
                mrenclave: Measurement([1u8; 32]),
                mrsigner: Measurement([2u8; 32]),
                isv_svn: 7,
                report_data: [9u8; 64],
            },
            group_id: 42,
            signature: sig,
        };
        let ev = Evidence::Epid(q.clone());
        assert_eq!(ev.to_bytes(), q.to_bytes(), "SGX byte streams unchanged");
        match Evidence::from_bytes(&q.to_bytes()).unwrap() {
            Evidence::Epid(parsed) => assert_eq!(parsed.body, q.body),
            Evidence::VmTee(_) => panic!("EPID bytes must parse as EPID"),
        }
    }

    /// Every truncation and bit flip of valid EPID and VM-TEE evidence goes
    /// through all three decoders. None panics; `Evidence` parses exactly
    /// what the decoder of its kind parses; and what parses verifies, under
    /// a root with its comb and a signing key on its second verification,
    /// exactly as fresh keys verifying for the first time (through a
    /// window, without a comb) decide.
    #[test]
    fn damaged_evidence_never_panics_and_verifies_as_the_window_path_decides() {
        use crate::quote::QuotingEnclave;
        use crate::report::{ereport, report_data_from};
        use crate::vmtee::{psp_measurement, SecurityProcessor};
        use teenet_crypto::hostile::truncations_and_flips;

        let mut rng = SecureRng::seed_from_u64(21);
        let group = EpidGroup::new(1, &mut rng).unwrap();
        let (model, device_key) = (CostModel::paper(), [5u8; 32]);
        let body = ReportBody {
            mrenclave: Measurement([1u8; 32]),
            mrsigner: Measurement([2u8; 32]),
            isv_svn: 3,
            report_data: report_data_from(b"hostile"),
        };
        let mut qe = QuotingEnclave::new(&group, rng.fork(b"qe"));
        let report = ereport(&device_key, qe.target_info(), body.clone());
        let epid = Evidence::Epid(qe.quote(&device_key, &report, &model).unwrap());
        let mut psp = SecurityProcessor::new(&group, rng.fork(b"psp")).unwrap();
        let target = TargetInfo {
            mrenclave: psp_measurement(),
        };
        let report = ereport(&device_key, target, body);
        let vm = Evidence::VmTee(psp.attest(&device_key, &report, &model).unwrap());

        let root = group.public_key();
        let verify = |ev: &Evidence, root: &VerifyingKey| {
            ev.verify(root, &mut Counters::new(), &model).is_ok()
        };
        assert!(
            verify(&epid, &root) && verify(&vm, &root),
            "the root has its comb"
        );
        let mut verified = 0;
        for valid in [epid.to_bytes(), vm.to_bytes()] {
            for bytes in truncations_and_flips(&valid) {
                let (quote, vm) = (Quote::from_bytes(&bytes), VmEvidence::from_bytes(&bytes));
                let Ok(evidence) = Evidence::from_bytes(&bytes) else {
                    assert!(quote.is_err() && vm.is_err());
                    continue;
                };
                match &evidence {
                    Evidence::Epid(q) => assert_eq!(q.to_bytes(), quote.unwrap().to_bytes()),
                    Evidence::VmTee(e) => assert_eq!(e.to_bytes(), vm.unwrap().to_bytes()),
                }
                let fresh_root =
                    VerifyingKey::from_bytes(&SchnorrGroup::standard(), &root.to_bytes());
                let fresh = Evidence::from_bytes(&bytes).unwrap();
                let window = verify(&fresh, &fresh_root.unwrap());
                assert!(!window, "damaged evidence verified");
                assert_eq!(verify(&evidence, &root), window);
                assert_eq!(verify(&evidence, &root), window);
                verified += 1;
            }
        }
        assert!(verified > 4_000, "{verified} damaged encodings parsed");
    }

    #[test]
    fn sgx_platform_implements_the_trait() {
        let mut rng = SecureRng::seed_from_u64(5);
        let group = EpidGroup::new(1, &mut rng).unwrap();
        let boxed = deploy_platform(TeeBackend::Sgx, "trait-test", &group, 7).unwrap();
        assert_eq!(boxed.backend(), TeeBackend::Sgx);
        assert_eq!(boxed.platform_name(), "trait-test");
        assert_eq!(boxed.model(), &CostModel::paper());
        assert_eq!(
            boxed.attestation_target_info().mrenclave,
            crate::quote::quoting_enclave_measurement()
        );
        assert_eq!(boxed.epc_free_pages(), crate::platform::DEFAULT_EPC_PAGES);
        assert_eq!(boxed.attestor_counters(), Counters::new());
    }

    #[test]
    fn evidence_rejects_garbage() {
        assert!(Evidence::from_bytes(&[]).is_err());
        assert!(Evidence::from_bytes(&[0u8; 10]).is_err());
        let mut sentinel_short = vec![0u8; ReportBody::WIRE_LEN];
        sentinel_short.extend_from_slice(&VMTEE_EVIDENCE_SENTINEL.to_le_bytes());
        assert!(Evidence::from_bytes(&sentinel_short).is_err());
    }
}
