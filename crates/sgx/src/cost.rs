//! Instruction and cycle accounting — the reproduction's measurement model.
//!
//! The paper characterises overhead as two counters per enclave role:
//! **SGX(U) instructions** (user-mode SGX instructions: EENTER, EEXIT,
//! EREPORT, EGETKEY, …) and **normal instructions**, then converts to cycles
//! with (§5 footnote 6):
//!
//! ```text
//! cycles = 10_000 × #SGX_instructions + IPC × #normal_instructions
//! ```
//!
//! where "IPC" is 1.8 (dimensionally cycles-per-instruction; we keep the
//! paper's arithmetic so our cycle numbers are directly comparable, and
//! store the constant as the exact rational
//! [`CostModel::cpi_num`]/[`CostModel::cpi_den`] = 9/5).
//!
//! OpenSGX counted instructions of real x86 binaries; we execute Rust, so we
//! charge each primitive operation a fixed normal-instruction cost instead.
//! The constants below are calibrated once against the paper's
//! micro-measurements (Tables 1 and 2) and then held fixed for the macro
//! experiments (Tables 3–4, Figure 3), which therefore are *predictions* of
//! the model rather than fits. Provenance of each constant:
//!
//! | constant | calibrated from |
//! |---|---|
//! | `modexp_1024` = 112 M | Table 1: challenger w/ DH − w/o DH = 224 M over two modexps (keygen + shared secret) |
//! | `dh_param_gen` = 4 060 M | Table 1: target w/ DH − w/o DH − 2 modexps (the target generates the DH parameters, which dominates: "the Diffie-Hellman key exchange takes up 90% of the cycles") |
//! | `quote_sign`/`quote_verify` = 112 M | Table 1: quoting 125 M and challenger 124 M w/o DH are dominated by one public-key operation each |
//! | `aes_key_schedule` = 75 600 | Table 2: crypto − non-crypto for 1 packet (84 K) minus one MTU encryption |
//! | `aes_block` = 81 | Table 2: crypto delta per packet across the 100-packet batch (≈7.6 K per 1500 B MTU = 94 blocks) |
//! | `packet_copy` = 1 250, `send_base` = 11 750 | Table 2: w/o crypto column (13 K for 1, 136 K for 100) |
//! | SGX instr per I/O: 2/packet + 4/batch | Table 2: 6 for 1 packet, 204 for 100 |

/// Counters of executed instructions, split the way the paper reports them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// User-mode SGX instructions (EENTER/EEXIT/ERESUME/EREPORT/EGETKEY/…).
    pub sgx_instr: u64,
    /// Ordinary instructions executed (modelled).
    pub normal_instr: u64,
}

impl Counters {
    /// A zeroed counter pair.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` SGX instructions.
    pub fn sgx(&mut self, n: u64) {
        self.sgx_instr += n;
    }

    /// Adds `n` normal instructions.
    pub fn normal(&mut self, n: u64) {
        self.normal_instr += n;
    }

    /// Accumulates another counter pair into this one.
    pub fn merge(&mut self, other: Counters) {
        self.sgx_instr += other.sgx_instr;
        self.normal_instr += other.normal_instr;
    }

    /// Difference since an earlier snapshot (`self - earlier`).
    ///
    /// Saturating: a snapshot taken across a counter reset degrades to
    /// zero instead of aborting a report in release mode (and trips a
    /// `debug_assert!` in debug builds, where the stale snapshot is a
    /// caller bug worth catching).
    pub fn since(&self, earlier: Counters) -> Counters {
        debug_assert!(
            self.sgx_instr >= earlier.sgx_instr && self.normal_instr >= earlier.normal_instr,
            "Counters::since snapshot is ahead of the counter (taken across a reset?): \
             now={self:?} earlier={earlier:?}"
        );
        Counters {
            sgx_instr: self.sgx_instr.saturating_sub(earlier.sgx_instr),
            normal_instr: self.normal_instr.saturating_sub(earlier.normal_instr),
        }
    }

    /// Converts to CPU cycles under `model` (paper §5 fn. 6).
    ///
    /// Exact integer arithmetic: the CPI is an exact rational
    /// ([`CostModel::cpi_num`]/[`CostModel::cpi_den`], 9/5 for the paper's
    /// 1.8), evaluated with 128-bit widening — no f64 rounding above 2^53
    /// instructions. The quotient is rounded down once per call, so
    /// converting phase by phase is **not** additive: each phase whose
    /// normal-instruction count is not a multiple of `cpi_den` drops a
    /// fraction of a cycle, and over `k` phases
    /// `total − (k − 1) ≤ Σ phase cycles ≤ total`, where `total` converts
    /// the merged counters. The sum is exact only when every phase's
    /// `9·n ≡ 0 mod 5`; replayed workloads do fall short (most
    /// `tor_open_faulty` seeds by one cycle), so a report that needs an
    /// exact total converts the merged counters, never the sum.
    pub fn cycles(&self, model: &CostModel) -> u64 {
        let normal =
            self.normal_instr as u128 * model.cpi_num as u128 / model.cpi_den.max(1) as u128;
        (self.sgx_instr as u128 * model.sgx_instr_cycles as u128 + normal).min(u64::MAX as u128)
            as u64
    }
}

/// The calibrated cost model. All costs in normal instructions unless noted.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Cycles charged per SGX instruction (paper assumes 10 000).
    pub sgx_instr_cycles: u64,
    /// Cycles per normal instruction, numerator (paper's "IPC" of 1.8 is
    /// the exact rational 9/5 — stored as integers so cycle conversion
    /// never loses precision to f64 rounding).
    pub cpi_num: u64,
    /// Cycles per normal instruction, denominator.
    pub cpi_den: u64,

    // --- public-key cryptography ---
    /// One 1024-bit modular exponentiation.
    pub modexp_1024: u64,
    /// Diffie–Hellman parameter (prime) generation, 1024-bit.
    pub dh_param_gen: u64,
    /// Signing a QUOTE in the quoting enclave (EPID stand-in).
    pub quote_sign: u64,
    /// Verifying a QUOTE signature in the challenger.
    pub quote_verify: u64,

    // --- symmetric cryptography ---
    /// AES-128 key schedule.
    pub aes_key_schedule: u64,
    /// One AES-128 block operation (16 bytes).
    pub aes_block: u64,
    /// One SHA-256 compression (64 bytes).
    pub sha256_block: u64,
    /// One HMAC-SHA256 over a short message (fixed approximation).
    pub hmac_short: u64,

    // --- enclave I/O (Table 2 model) ---
    /// Fixed normal-instruction cost per send batch (syscall path, buffers).
    pub send_base: u64,
    /// Per-packet copy in/out of the enclave.
    pub packet_copy: u64,
    /// SGX instructions per send batch (ocall setup + completion).
    pub io_batch_sgx: u64,
    /// SGX instructions per packet within a batch (exit + resume).
    pub io_packet_sgx: u64,

    // --- switchless transitions (HotCalls-style shared call ring) ---
    /// Normal instructions for the enclave to post one request into the
    /// untrusted shared ring (write args, publish, fence).
    pub switchless_post: u64,
    /// Normal instructions for the host worker to poll, unmarshal and
    /// dispatch one ring request (charged to the enclave's role, as the
    /// paper charges all work on the enclave's behalf).
    pub switchless_poll: u64,
    /// Normal instructions to wake a sleeping worker (futex path),
    /// charged once per asleep-fallback.
    pub switchless_wake: u64,
    /// Normal instructions per spin unit an awake worker burns finding
    /// the ring empty (one poll-head + pause iteration). Charged per
    /// unit of [`crate::TransitionStats::idle_spins`] — the honest cost
    /// of keeping a worker pool hot, which lets an over-provisioned
    /// switchless configuration lose to classic transitions.
    pub switchless_idle_spin: u64,

    // --- enclave memory management ---
    /// Normal instructions per dynamic allocation inside the enclave
    /// (EPC page-fault handling, EACCEPT-style bookkeeping).
    pub alloc_base: u64,
    /// Additional normal instructions per 4 KiB EPC page touched.
    pub alloc_page: u64,
    /// Normal instructions per page evicted to main memory (EWB: encrypt
    /// + MAC a 4 KiB page, plus versioning bookkeeping).
    pub ewb_page: u64,

    // --- misc attestation bookkeeping (Table 1 residuals) ---
    /// Target-enclave attestation base (report generation, intra-attestation
    /// with the quoting enclave, message marshalling).
    pub attest_target_base: u64,
    /// Quoting-enclave base besides the quote signature.
    pub attest_quote_base: u64,
    /// Challenger base besides signature verification.
    pub attest_challenger_base: u64,

    // --- backend profile (enclave-TEE vs VM-TEE crossing shape) ---
    /// TEE-transition instructions charged per direct guest call (an
    /// ecall's EENTER/EEXIT pair on SGX; zero on a VM TEE, where a guest
    /// call is an ordinary function call and only I/O-shaped crossings
    /// VM-exit).
    pub ecall_pair_sgx: u64,
    /// Normal instructions per newly accepted private page (SEV-SNP
    /// PVALIDATE / TDX EACCEPT bookkeeping); zero on SGX, where EPC
    /// paging costs are modelled by `alloc_page`/`ewb_page` instead.
    pub page_accept: u64,
    /// TEE-transition instructions the challenger charges per protocol
    /// leg (entering the challenger enclave plus the message ocall on
    /// SGX; request/response VM exits on a VM TEE).
    pub challenger_entry_sgx: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self::paper()
    }
}

impl CostModel {
    /// The model calibrated to the paper's Tables 1–2 (see module docs).
    pub fn paper() -> Self {
        CostModel {
            sgx_instr_cycles: 10_000,
            cpi_num: 9,
            cpi_den: 5,
            modexp_1024: 112_000_000,
            dh_param_gen: 3_960_000_000,
            quote_sign: 112_000_000,
            quote_verify: 112_000_000,
            aes_key_schedule: 75_600,
            aes_block: 81,
            sha256_block: 300,
            hmac_short: 1_500,
            send_base: 11_750,
            packet_copy: 1_250,
            io_batch_sgx: 4,
            io_packet_sgx: 2,
            switchless_post: 300,
            switchless_poll: 600,
            switchless_wake: 4_000,
            switchless_idle_spin: 60,
            alloc_base: 1_800,
            alloc_page: 3_200,
            ewb_page: 25_000,
            attest_target_base: 154_000_000,
            attest_quote_base: 13_000_000,
            attest_challenger_base: 12_000_000,
            ecall_pair_sgx: 2,
            page_accept: 0,
            challenger_entry_sgx: 4,
        }
    }

    /// A VM-TEE (TDX/SEV-SNP-style) cost profile.
    ///
    /// The application-crypto constants are shared with [`CostModel::paper`]
    /// — the workload does the same work — but the *crossing shape*
    /// differs:
    ///
    /// * a TEE-transition instruction is a VM exit/resume leg (~2 500
    ///   cycles), not a 10 000-cycle EENTER/EEXIT microcode flow;
    /// * direct guest calls pay **no** transition pair
    ///   (`ecall_pair_sgx = 0`): only I/O- and ocall-shaped crossings
    ///   VM-exit, so switchless elision buys proportionally less;
    /// * dynamic memory pays per-page acceptance (PVALIDATE/EACCEPT,
    ///   `page_accept`) instead of EPC eviction ever firing (the guest's
    ///   private memory is sized like ordinary RAM);
    /// * attestation is PSP-style: a cheaper report signature
    ///   (`quote_sign`) plus a second verification for the host-fetched
    ///   endorsement chain (`quote_verify` is charged once per link by
    ///   the evidence verifier), with no in-enclave quoting-enclave
    ///   round trips (`attest_target_base`, `attest_quote_base`).
    pub fn vmtee() -> Self {
        CostModel {
            sgx_instr_cycles: 2_500,
            quote_sign: 45_000_000,
            quote_verify: 50_000_000,
            attest_target_base: 60_000_000,
            attest_quote_base: 5_000_000,
            ecall_pair_sgx: 0,
            page_accept: 2_600,
            challenger_entry_sgx: 2,
            ..Self::paper()
        }
    }

    /// The CPI as a float, for display only — all accounting uses the
    /// exact rational.
    // teenet-analyze: allow-block(float-accounting) -- display-only conversion; cycle totals use the exact rational in cycles()
    pub fn cpi(&self) -> f64 {
        self.cpi_num as f64 / self.cpi_den.max(1) as f64
    }

    /// Cost of a modular exponentiation at `bits` modulus size
    /// (cubic scaling from the calibrated 1024-bit cost), computed in
    /// exact integer arithmetic: `modexp_1024 · bits³ / 1024³`, rounded
    /// to nearest. The widest case (2⁶³-scale base cost at a few thousand
    /// bits) stays far inside u128.
    pub fn modexp(&self, bits: usize) -> u64 {
        const DEN: u128 = 1024 * 1024 * 1024;
        let b = bits as u128;
        let num = self.modexp_1024 as u128 * b * b * b;
        ((num + DEN / 2) / DEN) as u64
    }

    /// Cost of AES-encrypting `len` bytes (excluding key schedule).
    pub fn aes_bytes(&self, len: usize) -> u64 {
        (len.div_ceil(16) as u64) * self.aes_block
    }

    /// Cost of SHA-256 hashing `len` bytes.
    pub fn sha256_bytes(&self, len: usize) -> u64 {
        // One compression per 64-byte block plus one for padding.
        (len as u64 / 64 + 1) * self.sha256_block
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_diff() {
        let mut c = Counters::new();
        c.sgx(3);
        c.normal(1000);
        let snap = c;
        c.sgx(2);
        c.normal(500);
        let d = c.since(snap);
        assert_eq!(d.sgx_instr, 2);
        assert_eq!(d.normal_instr, 500);
        let mut m = Counters::new();
        m.merge(c);
        assert_eq!(m, c);
    }

    #[test]
    fn cycle_formula_matches_paper_challenger() {
        // Paper §5: "The challenger enclave consumes 626M cycles" with 8
        // SGX(U) and 348M normal instructions (w/ DH).
        let model = CostModel::paper();
        let c = Counters {
            sgx_instr: 8,
            normal_instr: 348_000_000,
        };
        let cycles = c.cycles(&model);
        // 8 * 10_000 + 1.8 * 348M = 626.48M
        assert_eq!(cycles, 80_000 + 626_400_000);
    }

    #[test]
    fn cycle_formula_matches_paper_remote_platform() {
        // Paper: "the quoting and target enclave [...] consumes 8033M cycles"
        // = (4338M + 125M) * 1.8 + (20 + 17) * 10K ≈ 8033.77M.
        let model = CostModel::paper();
        let c = Counters {
            sgx_instr: 37,
            normal_instr: 4_463_000_000,
        };
        let cycles = c.cycles(&model);
        assert!((8_000_000_000..8_100_000_000).contains(&cycles), "{cycles}");
    }

    #[test]
    fn cycles_exact_above_f64_precision() {
        // 2^53 + 3 normal instructions: f64 cannot represent the count
        // (it rounds to 2^53 + 4), so the old `normal as f64 * 1.8` path
        // was off. Exact rational arithmetic gives the true value:
        // (2^53 + 3) * 9 / 5 = 16_212_958_658_533_791.
        let model = CostModel::paper();
        let c = Counters {
            sgx_instr: 0,
            normal_instr: (1u64 << 53) + 3,
        };
        assert_eq!(c.cycles(&model), 16_212_958_658_533_791);
    }

    #[test]
    fn phase_cycle_totals_are_additive() {
        // When every phase count is a multiple of 5 (as here), per-phase
        // conversion then summation equals converting the merged
        // counters, including counts far above 2^53 where f64 rounding
        // used to make sum-of-phase cycles ≠ cycles-of-sum.
        let model = CostModel::paper();
        let phases = [
            Counters {
                sgx_instr: 12,
                normal_instr: 9_007_199_254_741_000, // > 2^53, ≡ 0 mod 5
            },
            Counters {
                sgx_instr: 7,
                normal_instr: model.aes_key_schedule * 1_000_000_000,
            },
            Counters {
                sgx_instr: 0,
                normal_instr: model.send_base * 123_456_789,
            },
        ];
        let mut merged = Counters::new();
        let mut summed = 0u64;
        for p in &phases {
            merged.merge(*p);
            summed += p.cycles(&model);
        }
        assert_eq!(summed, merged.cycles(&model));
    }

    #[test]
    fn phase_cycle_totals_fall_short_by_less_than_one_cycle_per_phase() {
        // Each phase rounds its own 9·n/5 down: remainders 1, 2, 3 and 4
        // fifths here, ten fifths dropped in all, which the merged
        // conversion keeps as two whole cycles.
        let model = CostModel::paper();
        let phases = [4u64, 3, 2, 1].map(|normal_instr| Counters {
            sgx_instr: 1,
            normal_instr,
        });
        let mut merged = Counters::new();
        let mut summed = 0u64;
        for p in &phases {
            merged.merge(*p);
            summed += p.cycles(&model);
        }
        let total = merged.cycles(&model);
        assert_eq!((summed, total), (40_016, 40_018));
        assert!(total - (phases.len() as u64 - 1) <= summed && summed <= total);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn since_across_reset_trips_debug_assert() {
        let stale = Counters {
            sgx_instr: 5,
            normal_instr: 5,
        };
        let reset = Counters::new();
        assert!(std::panic::catch_unwind(|| reset.since(stale)).is_err());
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn since_across_reset_saturates_in_release() {
        // A stale snapshot (taken before a counter reset) must degrade to
        // zero instead of aborting a release-mode load report.
        let stale = Counters {
            sgx_instr: 5,
            normal_instr: 5,
        };
        let reset = Counters::new();
        assert_eq!(reset.since(stale), Counters::new());
    }

    #[test]
    fn vmtee_profile_differs_only_in_crossing_shape() {
        let paper = CostModel::paper();
        let vm = CostModel::vmtee();
        // Crossings are cheaper and direct guest calls are free.
        assert!(vm.sgx_instr_cycles < paper.sgx_instr_cycles);
        assert_eq!(vm.ecall_pair_sgx, 0);
        assert!(vm.page_accept > 0);
        assert_eq!(paper.page_accept, 0);
        // Application crypto is identical — the workload does the same work.
        assert_eq!(vm.aes_block, paper.aes_block);
        assert_eq!(vm.modexp_1024, paper.modexp_1024);
        assert_eq!(vm.send_base, paper.send_base);
        assert_eq!((vm.cpi_num, vm.cpi_den), (paper.cpi_num, paper.cpi_den));
        // The paper profile carries the calibrated SGX crossing shape.
        assert_eq!(paper.ecall_pair_sgx, 2);
        assert_eq!(paper.challenger_entry_sgx, 4);
    }

    #[test]
    fn modexp_scales_cubically() {
        let m = CostModel::paper();
        assert_eq!(m.modexp(1024), m.modexp_1024);
        assert_eq!(m.modexp(2048), m.modexp_1024 * 8);
        assert!(m.modexp(768) < m.modexp_1024 / 2);
    }

    #[test]
    fn aes_cost_rounds_up_blocks() {
        let m = CostModel::paper();
        assert_eq!(m.aes_bytes(16), m.aes_block);
        assert_eq!(m.aes_bytes(17), 2 * m.aes_block);
        assert_eq!(m.aes_bytes(1500), 94 * m.aes_block);
    }

    #[test]
    fn table2_calibration_single_packet() {
        // Reproduce Table 2's "1 packet w/o crypto ≈ 13K" and "w/ crypto ≈ 97K".
        let m = CostModel::paper();
        let without = m.send_base + m.packet_copy;
        assert!((12_000..14_000).contains(&without), "{without}");
        let with = without + m.aes_key_schedule + m.aes_bytes(1500);
        assert!((95_000..99_000).contains(&with), "{with}");
    }

    #[test]
    fn table2_calibration_batch() {
        // "100 packets w/o crypto ≈ 136K, w/ crypto ≈ 972K; 204 SGX instr".
        let m = CostModel::paper();
        let without = m.send_base + 100 * m.packet_copy;
        assert!((130_000..140_000).contains(&without), "{without}");
        let with = without + m.aes_key_schedule + 100 * m.aes_bytes(1500);
        assert!((950_000..990_000).contains(&with), "{with}");
        let sgx = m.io_batch_sgx + 100 * m.io_packet_sgx;
        assert_eq!(sgx, 204);
    }
}
