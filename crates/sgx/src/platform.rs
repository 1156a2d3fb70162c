//! A TEE-capable platform (one physical machine), whichever the backend.
//!
//! Owns the device key, the protected memory (the EPC), the attestation
//! component and every loaded application enclave. The threat model is
//! the paper's (§2.1): the host software stack is untrusted and interacts
//! with enclaves only through ecalls/ocalls; it can refuse service (DoS)
//! but cannot read or alter enclave state — which in this emulator is
//! simply Rust state that the host side has no references to.
//!
//! A backend is data, not a type: [`Platform::new`] gives an SGX
//! platform the paper's prices, [`DEFAULT_EPC_PAGES`] and a
//! [`QuotingEnclave`], and a VM-TEE platform [`CostModel::vmtee`],
//! [`VMTEE_EPC_PAGES`] and a [`SecurityProcessor`]. Everything else —
//! enclave lifecycle, measurements, sealing, switchless rings, counter
//! accounting — is the same code on both.

use teenet_crypto::schnorr::SigningKey;
use teenet_crypto::sha256::sha256;
use teenet_crypto::SecureRng;

use crate::cost::{CostModel, Op, OpCounts};
use crate::enclave::{Enclave, EnclaveCtx, EnclaveId, EnclaveProgram};
use crate::epc::{Epc, PageType};
use crate::error::{Result, SgxError};
use crate::measurement::{measure_image, Measurement, Sigstruct, PAGE_SIZE};
use crate::ocall::HostCalls;
use crate::quote::{EpidGroup, QuotingEnclave};
use crate::report::{Report, TargetInfo};
use crate::switchless::{SwitchlessConfig, SwitchlessState, TransitionMode, TransitionStats};
use crate::tee::{Evidence, TeeBackend, TeePlatform};
use crate::vmtee::{SecurityProcessor, VMTEE_EPC_PAGES};

/// Default EPC size: 24 576 pages = 96 MiB (SGX1-era hardware).
pub const DEFAULT_EPC_PAGES: usize = 24_576;

/// Extra pages reserved per enclave for stack + static heap.
const BASE_RUNTIME_PAGES: usize = 16;

/// The label an ecall into `id` forks its RNG under: `"ecall"` then
/// `id`, little-endian.
fn ecall_label(id: EnclaveId) -> [u8; 13] {
    let mut label = [0u8; 13];
    label[..5].copy_from_slice(b"ecall");
    label[5..].copy_from_slice(&id.to_le_bytes());
    label
}

/// The component that turns a report into [`Evidence`]; which one a
/// platform has is what makes it SGX or VM-TEE.
enum Attestor {
    /// The SGX quoting enclave: EPID quotes.
    Quoting(QuotingEnclave),
    /// The VM-TEE security processor: PSP-signed reports.
    Psp(SecurityProcessor),
}

/// One TEE machine: enclaves, EPC, attestation component, device key.
pub struct Platform {
    name: String,
    model: CostModel,
    device_key: [u8; 32],
    epc: Epc,
    enclaves: Vec<Enclave>,
    rng: SecureRng,
    attestor: Attestor,
}

impl Platform {
    /// Builds a `backend` platform named `name`, provisioned into `group`
    /// (the EPID group on SGX; its key doubles as the vendor root on a VM
    /// TEE). `seed` determines the device key and all platform-local
    /// randomness.
    ///
    /// This is the one place a backend's cost model, EPC capacity and
    /// attestation component are chosen.
    pub fn new(backend: TeeBackend, name: &str, group: &EpidGroup, seed: u64) -> Result<Self> {
        let mut seed_bytes = Vec::from(name.as_bytes());
        seed_bytes.extend_from_slice(&seed.to_le_bytes());
        let device_key = sha256(&seed_bytes);
        let rng = SecureRng::from_seed(&device_key);
        let (epc_pages, attestor) = match backend {
            TeeBackend::Sgx => (
                DEFAULT_EPC_PAGES,
                Attestor::Quoting(QuotingEnclave::new(group, rng.fork(b"quoting-enclave"))),
            ),
            TeeBackend::VmTee => {
                seed_bytes.extend_from_slice(b"vmtee-psp");
                let psp = SecurityProcessor::new(group, SecureRng::from_seed(&seed_bytes))?;
                (VMTEE_EPC_PAGES, Attestor::Psp(psp))
            }
        };
        Ok(Platform {
            name: name.to_owned(),
            model: backend.cost_model(),
            device_key,
            epc: Epc::new(epc_pages),
            enclaves: Vec::new(),
            rng,
            attestor,
        })
    }

    /// The rest of EINIT for a program whose `image_len`-byte image
    /// measures `sigstruct.mrenclave`: the author's signature, then the
    /// EPC pages.
    fn init_enclave(
        &mut self,
        program: Box<dyn EnclaveProgram>,
        image_len: usize,
        sigstruct: &Sigstruct,
    ) -> Result<EnclaveId> {
        let mrsigner = sigstruct.verify()?;
        let image_pages = Enclave::image_pages(image_len);
        let id = self.enclaves.len() as EnclaveId;
        self.epc
            .add_pages(id, 0, image_pages + BASE_RUNTIME_PAGES, PageType::Regular)?;
        self.enclaves.push(Enclave {
            id,
            mrenclave: sigstruct.mrenclave,
            mrsigner,
            isv_svn: sigstruct.isv_svn,
            counts: OpCounts::new(),
            switchless: SwitchlessState::new(),
            program: Some(program),
            next_alloc_offset: (image_pages + BASE_RUNTIME_PAGES) * PAGE_SIZE,
            heap_used: 0,
            destroyed: false,
        });
        Ok(id)
    }

    /// The platform's device key, for tests that EREPORT from the host
    /// side.
    #[cfg(test)]
    pub(crate) fn device_key(&self) -> &[u8; 32] {
        &self.device_key
    }

    /// The same platform with an EPC of `epc_pages`, for paging tests.
    #[cfg(test)]
    fn with_epc(mut self, epc_pages: usize) -> Self {
        self.epc = Epc::new(epc_pages);
        self
    }

    /// Runs `calls` inside enclave `id` under one EENTER/EEXIT pair: the
    /// body of [`TeePlatform::ecall`] (one call) and
    /// [`TeePlatform::ecall_batch`]. `op` names the entry point in errors.
    ///
    /// The pair is paid once per entry — only batching amortises it, the
    /// other `calls.len() - 1` would-be pairs counting as elided — and the
    /// switchless ring absorbs only ocall-shaped crossings made while
    /// inside. On a VM-TEE row the pair costs zero instructions but still
    /// counts as a taken crossing. Each call pays its own marshalling; a
    /// failing call aborts the rest and returns its error.
    fn enter<'i>(
        &mut self,
        id: EnclaveId,
        op: &'static str,
        calls: impl ExactSizeIterator<Item = (u64, &'i [u8])>,
        host: &mut dyn HostCalls,
    ) -> Result<Vec<Vec<u8>>> {
        let enclave = self
            .enclaves
            .get_mut(id as usize)
            .ok_or(SgxError::NoSuchEnclave(id))?;
        enclave.check_alive(op)?;
        let mut program = enclave.program.take().ok_or(SgxError::NoSuchEnclave(id))?;
        enclave.counts.charge(Op::EcallPair, 1);
        enclave.switchless.stats.taken += 1;
        enclave.switchless.stats.elided += calls.len() as u64 - 1;
        enclave.switchless.on_ecall_start();

        let mut rng = self.rng.fork(&ecall_label(id));
        let mut ctx = EnclaveCtx {
            counts: &mut enclave.counts,
            mrenclave: enclave.mrenclave,
            mrsigner: enclave.mrsigner,
            isv_svn: enclave.isv_svn,
            device_key: &self.device_key,
            rng: &mut rng,
            host,
            epc: &mut self.epc,
            enclave_id: id,
            next_alloc_offset: &mut enclave.next_alloc_offset,
            heap_used: &mut enclave.heap_used,
            switchless: &mut enclave.switchless,
        };
        let replies = calls
            .map(|(fn_id, input)| {
                ctx.counts.marshal(input.len());
                let reply = program.ecall(&mut ctx, fn_id, input)?;
                ctx.charge(Op::MarshalWord, reply.len() as u64 / 8);
                Ok(reply)
            })
            .collect();
        let idle_spins = enclave.switchless.on_ecall_end();
        enclave.counts.charge(Op::IdleSpin, idle_spins);
        // Keep the platform RNG moving so successive ecalls differ.
        self.rng = self.rng.fork(b"step");
        enclave.program = Some(program);
        replies
    }

    fn enclave_ref(&self, id: EnclaveId) -> Result<&Enclave> {
        self.enclaves
            .get(id as usize)
            .ok_or(SgxError::NoSuchEnclave(id))
    }

    fn enclave_mut(&mut self, id: EnclaveId) -> Result<&mut Enclave> {
        self.enclaves
            .get_mut(id as usize)
            .ok_or(SgxError::NoSuchEnclave(id))
    }
}

impl TeePlatform for Platform {
    fn backend(&self) -> TeeBackend {
        match self.attestor {
            Attestor::Quoting(_) => TeeBackend::Sgx,
            Attestor::Psp(_) => TeeBackend::VmTee,
        }
    }

    fn platform_name(&self) -> &str {
        &self.name
    }

    fn model(&self) -> &CostModel {
        &self.model
    }

    fn create_signed(
        &mut self,
        program: Box<dyn EnclaveProgram>,
        author: &SigningKey,
        isv_svn: u16,
    ) -> Result<EnclaveId> {
        let image = program.code_image();
        let mut rng = self.rng.fork(b"sigstruct");
        let sigstruct = Sigstruct::sign(measure_image(&image), isv_svn, author, &mut rng)?;
        self.init_enclave(program, image.len(), &sigstruct)
    }

    fn destroy_enclave(&mut self, id: EnclaveId) -> Result<()> {
        let enclave = self.enclave_mut(id)?;
        enclave.check_alive("destroy")?;
        enclave.destroyed = true;
        enclave.program = None;
        self.epc.remove_enclave(id);
        Ok(())
    }

    fn ecall(
        &mut self,
        id: EnclaveId,
        fn_id: u64,
        input: &[u8],
        host: &mut dyn HostCalls,
    ) -> Result<Vec<u8>> {
        let mut replies = self.enter(id, "ecall", std::iter::once((fn_id, input)), host)?;
        Ok(replies.pop().unwrap_or_default())
    }

    fn ecall_batch(
        &mut self,
        id: EnclaveId,
        calls: &[(u64, Vec<u8>)],
        host: &mut dyn HostCalls,
    ) -> Result<Vec<Vec<u8>>> {
        if calls.is_empty() {
            return Ok(Vec::new());
        }
        let calls = calls
            .iter()
            .map(|(fn_id, input)| (*fn_id, input.as_slice()));
        self.enter(id, "ecall_batch", calls, host)
    }

    fn set_transition_mode(&mut self, id: EnclaveId, mode: TransitionMode) -> Result<()> {
        self.enclave_mut(id)?.switchless.set_mode(mode);
        Ok(())
    }

    fn configure_switchless(&mut self, id: EnclaveId, config: SwitchlessConfig) -> Result<()> {
        self.enclave_mut(id)?.switchless.config = config;
        Ok(())
    }

    fn transition_stats_of(&self, id: EnclaveId) -> Result<TransitionStats> {
        Ok(self.enclave_ref(id)?.switchless.stats)
    }

    fn total_transition_stats(&self) -> TransitionStats {
        let mut total = TransitionStats::new();
        for e in &self.enclaves {
            total.merge(e.switchless.stats);
        }
        total
    }

    fn counts_of(&self, id: EnclaveId) -> Result<OpCounts> {
        Ok(self.enclave_ref(id)?.counts)
    }

    fn attestor_counts(&self) -> OpCounts {
        match &self.attestor {
            Attestor::Quoting(qe) => qe.counts,
            Attestor::Psp(psp) => psp.counts,
        }
    }

    fn reset_counters(&mut self, id: EnclaveId) -> Result<()> {
        self.enclave_mut(id)?.counts = OpCounts::new();
        Ok(())
    }

    fn total_counts(&self) -> OpCounts {
        let mut total = self.attestor_counts();
        for e in &self.enclaves {
            total.merge(&e.counts);
        }
        total
    }

    fn measurement_of(&self, id: EnclaveId) -> Result<Measurement> {
        Ok(self.enclave_ref(id)?.mrenclave)
    }

    fn attestation_target_info(&self) -> TargetInfo {
        match &self.attestor {
            Attestor::Quoting(qe) => qe.target_info(),
            Attestor::Psp(psp) => psp.target_info(),
        }
    }

    fn evidence(&mut self, report: &Report) -> Result<Evidence> {
        let key = &self.device_key;
        match &mut self.attestor {
            Attestor::Quoting(qe) => Ok(Evidence::Epid(qe.quote(key, report)?)),
            Attestor::Psp(psp) => Ok(Evidence::VmTee(psp.attest(key, report)?)),
        }
    }

    fn epc_free_pages(&self) -> usize {
        self.epc.free_pages()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Counters;
    use crate::keys::KeyRequest;
    use crate::report::{report_data_from, ReportBody};
    use crate::tee::deploy_platform;
    use teenet_crypto::schnorr::SchnorrGroup;

    impl Platform {
        /// EINIT against a SIGSTRUCT signed elsewhere. `create_signed` signs
        /// the image it loads, so only this path can present a tampered
        /// binary: one that does not measure `sigstruct.mrenclave`.
        fn create_enclave(
            &mut self,
            program: Box<dyn EnclaveProgram>,
            sigstruct: &Sigstruct,
        ) -> Result<EnclaveId> {
            let image = program.code_image();
            // EINIT: the measured identity must match what the author signed.
            if measure_image(&image) != sigstruct.mrenclave {
                return Err(SgxError::InitFailed("measurement != SIGSTRUCT.mrenclave"));
            }
            self.init_enclave(program, image.len(), sigstruct)
        }
    }

    /// A trivial program: fn 0 echoes, fn 1 seals input, fn 2 allocates.
    struct Echo {
        version: u8,
        sealed: Option<crate::seal::SealedBlob>,
    }

    impl EnclaveProgram for Echo {
        fn code_image(&self) -> Vec<u8> {
            vec![b'e', b'c', b'h', b'o', self.version]
        }
        fn ecall(&mut self, ctx: &mut EnclaveCtx<'_>, fn_id: u64, input: &[u8]) -> Result<Vec<u8>> {
            match fn_id {
                0 => Ok(input.to_vec()),
                1 => {
                    let blob = ctx.seal(KeyRequest::SealEnclave, b"t", input);
                    self.sealed = Some(blob);
                    Ok(Vec::new())
                }
                2 => {
                    let blob = self
                        .sealed
                        .as_ref()
                        .ok_or(SgxError::EcallRejected("no blob"))?;
                    let blob = blob.clone();
                    ctx.unseal(KeyRequest::SealEnclave, &blob)
                }
                3 => {
                    ctx.malloc(10_000)?;
                    Ok(Vec::new())
                }
                _ => Err(SgxError::EcallRejected("unknown fn")),
            }
        }
    }

    fn setup() -> (Platform, SigningKey) {
        let mut rng = SecureRng::seed_from_u64(5);
        let group = EpidGroup::new(1, &mut rng).unwrap();
        let platform = Platform::new(TeeBackend::Sgx, "test", &group, 7).unwrap();
        let author = SigningKey::generate(&SchnorrGroup::small(), &mut rng).unwrap();
        (platform, author)
    }

    fn echo(version: u8) -> Box<Echo> {
        Box::new(Echo {
            version,
            sealed: None,
        })
    }

    /// Compile-time regression: a whole platform (device key, EPC,
    /// enclaves with their boxed programs, attestor) must stay
    /// `Send` so one independent instance can live per load-generation
    /// shard. Reintroducing non-`Send` state (an `Rc`, a thread-bound
    /// handle) fails this test at compile time.
    #[test]
    fn platform_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Platform>();
        assert_send::<Enclave>();
        assert_send::<Box<dyn EnclaveProgram>>();
        assert_send::<Box<dyn HostCalls>>();
    }

    #[test]
    fn ecall_roundtrip_and_counting() {
        let (mut p, author) = setup();
        let id = p.create_signed(echo(1), &author, 1).unwrap();
        let before = p.counters_of(id).unwrap();
        assert_eq!(before, Counters::new(), "launch is not charged");
        let out = p.ecall_nohost(id, 0, b"hello").unwrap();
        assert_eq!(out, b"hello");
        let after = p.counters_of(id).unwrap();
        assert_eq!(after.sgx_instr, 2, "EENTER + EEXIT");
        assert!(after.normal_instr > 0);
    }

    #[test]
    fn einit_rejects_mismatched_sigstruct() {
        let (mut p, author) = setup();
        let mut rng = SecureRng::seed_from_u64(11);
        // Sign version 1 but load version 2 ("tampered binary").
        let mr = measure_image(&echo(1).code_image());
        let sig = Sigstruct::sign(mr, 1, &author, &mut rng).unwrap();
        let err = p.create_enclave(echo(2), &sig).unwrap_err();
        assert!(matches!(err, SgxError::InitFailed(_)));
    }

    #[test]
    fn seal_unseal_within_enclave() {
        let (mut p, author) = setup();
        let id = p.create_signed(echo(1), &author, 1).unwrap();
        p.ecall_nohost(id, 1, b"top secret").unwrap();
        let out = p.ecall_nohost(id, 2, b"").unwrap();
        assert_eq!(out, b"top secret");
    }

    #[test]
    fn alloc_consumes_epc_and_charges() {
        let (mut p, author) = setup();
        let id = p.create_signed(echo(1), &author, 1).unwrap();
        let free_before = p.epc_free_pages();
        let c_before = p.counters_of(id).unwrap();
        p.ecall_nohost(id, 3, b"").unwrap();
        assert_eq!(p.epc_free_pages(), free_before - 3); // 10 KB → 3 pages
        let c = p.counters_of(id).unwrap().since(c_before);
        assert!(c.sgx_instr >= 4, "ecall pair + alloc exit pair");
    }

    #[test]
    fn epc_exhaustion_fails_enclave_creation() {
        let mut rng = SecureRng::seed_from_u64(5);
        let group = EpidGroup::new(1, &mut rng).unwrap();
        let mut p = Platform::new(TeeBackend::Sgx, "tiny", &group, 7)
            .unwrap()
            .with_epc(8);
        let author = SigningKey::generate(&SchnorrGroup::small(), &mut rng).unwrap();
        let err = p.create_signed(echo(1), &author, 1).unwrap_err();
        assert!(matches!(err, SgxError::EpcExhausted { .. }));
    }

    #[test]
    fn destroyed_enclave_rejects_ecalls() {
        let (mut p, author) = setup();
        let id = p.create_signed(echo(1), &author, 1).unwrap();
        p.destroy_enclave(id).unwrap();
        assert!(p.ecall_nohost(id, 0, b"x").is_err());
        assert!(p.destroy_enclave(id).is_err());
    }

    /// EREPORTs to the measurement in its input and hands the host the
    /// report body and MAC (the host merely ferries bytes).
    struct Reporter;
    impl EnclaveProgram for Reporter {
        fn code_image(&self) -> Vec<u8> {
            b"reporter-v1".to_vec()
        }
        fn ecall(
            &mut self,
            ctx: &mut EnclaveCtx<'_>,
            _fn_id: u64,
            input: &[u8],
        ) -> Result<Vec<u8>> {
            let target = TargetInfo {
                mrenclave: Measurement(input.try_into().unwrap()),
            };
            let report = ctx.ereport(target, &report_data_from(b"nonce"));
            let mut out = report.body.to_bytes();
            out.extend_from_slice(&report.mac);
            Ok(out)
        }
    }

    /// The full local flow on each backend: an enclave EREPORTs to the
    /// attestor, which turns the report into evidence that verifies under
    /// the group root; after it the platform total is the enclave's
    /// counters plus the attestor's.
    #[test]
    fn report_and_quote_flow() {
        let mut rng = SecureRng::seed_from_u64(5);
        let group = EpidGroup::new(1, &mut rng).unwrap();
        let author = SigningKey::generate(&SchnorrGroup::small(), &mut rng).unwrap();
        for backend in [TeeBackend::Sgx, TeeBackend::VmTee] {
            let mut p = deploy_platform(backend, "deployed", &group, 7).unwrap();
            let target = p.attestation_target_info();
            let id = p.create_signed(Box::new(Reporter), &author, 1).unwrap();
            let out = p.ecall_nohost(id, 0, &target.mrenclave.0).unwrap();
            let (body, mac) = out.split_at(ReportBody::WIRE_LEN);
            let report = Report {
                body: ReportBody::from_bytes(body).unwrap(),
                target,
                mac: mac.try_into().unwrap(),
            };
            let evidence = p.evidence(&report).unwrap();

            assert_ne!(p.attestor_counts(), OpCounts::new(), "{backend}");
            let mut sum = p.counts_of(id).unwrap();
            sum.merge(&p.attestor_counts());
            assert_eq!(p.total_counts(), sum, "{backend}");
            evidence
                .verify(&group.public_key(), &mut OpCounts::new())
                .unwrap();
            assert_eq!(evidence.backend(), p.backend());
            assert_eq!(evidence.body().mrenclave, p.measurement_of(id).unwrap());
        }
    }

    #[test]
    fn ecalls_with_randomness_differ_across_calls() {
        struct Rand;
        impl EnclaveProgram for Rand {
            fn code_image(&self) -> Vec<u8> {
                b"rand-v1".to_vec()
            }
            fn ecall(
                &mut self,
                ctx: &mut EnclaveCtx<'_>,
                _fn_id: u64,
                _input: &[u8],
            ) -> Result<Vec<u8>> {
                let mut buf = vec![0u8; 16];
                ctx.random(&mut buf);
                Ok(buf)
            }
        }
        let (mut p, author) = setup();
        let id = p.create_signed(Box::new(Rand), &author, 1).unwrap();
        let a = p.ecall_nohost(id, 0, b"").unwrap();
        let b = p.ecall_nohost(id, 0, b"").unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn identical_programs_same_measurement_across_platforms() {
        let mut rng = SecureRng::seed_from_u64(5);
        let group = EpidGroup::new(1, &mut rng).unwrap();
        let mut p1 = Platform::new(TeeBackend::Sgx, "alpha", &group, 1).unwrap();
        let mut p2 = Platform::new(TeeBackend::Sgx, "beta", &group, 2).unwrap();
        let author = SigningKey::generate(&SchnorrGroup::small(), &mut rng).unwrap();
        let id1 = p1.create_signed(echo(1), &author, 1).unwrap();
        let id2 = p2.create_signed(echo(1), &author, 1).unwrap();
        assert_eq!(
            p1.measurement_of(id1).unwrap(),
            p2.measurement_of(id2).unwrap()
        );
    }
}

#[cfg(test)]
mod paging_tests {
    use super::*;
    use crate::enclave::{EnclaveCtx, EnclaveProgram};
    use crate::error::SgxError;
    use teenet_crypto::schnorr::SchnorrGroup;

    /// Allocates the requested number of bytes via the heap allocator.
    struct Hog;
    impl EnclaveProgram for Hog {
        fn code_image(&self) -> Vec<u8> {
            b"hog-v1".to_vec()
        }
        fn ecall(
            &mut self,
            ctx: &mut EnclaveCtx<'_>,
            _fn_id: u64,
            input: &[u8],
        ) -> Result<Vec<u8>> {
            let bytes = u32::from_le_bytes(input.try_into().expect("4")) as usize;
            ctx.malloc(bytes)?;
            Ok(Vec::new())
        }
    }

    fn tiny_platform(epc_pages: usize) -> (Platform, EnclaveId) {
        let mut rng = SecureRng::seed_from_u64(77);
        let group = EpidGroup::new(1, &mut rng).unwrap();
        let mut p = Platform::new(TeeBackend::Sgx, "paging", &group, 7)
            .unwrap()
            .with_epc(epc_pages);
        let author = SigningKey::generate(&SchnorrGroup::small(), &mut rng).unwrap();
        let id = p.create_signed(Box::new(Hog), &author, 1).unwrap();
        (p, id)
    }

    #[test]
    fn oversubscription_triggers_ewb_instead_of_failing() {
        // 24 pages total; the enclave base takes 17, leaving 7 free. A
        // 40 KiB allocation (10 pages) must succeed by evicting.
        let (mut p, id) = tiny_platform(24);
        let before = p.enclave_ref(id).unwrap().counts;
        p.ecall_nohost(id, 0, &(40_960u32).to_le_bytes()).unwrap();
        let after = p.enclave_ref(id).unwrap().counts;
        // At least 3 pages were evicted: EWB cost + AEX pairs charged.
        let evicted = after.count(Op::EwbPage) - before.count(Op::EwbPage);
        assert!(evicted >= 3, "{evicted}");
        assert_eq!(
            after.count(Op::AexResume) - before.count(Op::AexResume),
            evicted
        );
        assert!(
            after.count(Op::HostCrossing) > before.count(Op::HostCrossing),
            "page-extension trap"
        );
    }

    #[test]
    fn eviction_cannot_exceed_total_capacity_in_one_request() {
        // A single allocation larger than the whole EPC still fails.
        let (mut p, id) = tiny_platform(24);
        let err = p
            .ecall_nohost(id, 0, &(24 * 4096u32 + 1).to_le_bytes())
            .unwrap_err();
        assert!(matches!(err, SgxError::EpcExhausted { .. }));
    }

    #[test]
    fn repeated_small_allocations_page_forever() {
        // The enclave can keep allocating past EPC capacity; each page
        // past the limit costs an eviction (thrash accounting).
        let (mut p, id) = tiny_platform(24);
        for _ in 0..20 {
            p.ecall_nohost(id, 0, &(4_096u32).to_le_bytes()).unwrap();
        }
        assert!(p.epc_free_pages() == 0 || p.epc_free_pages() < 24);
    }
}
