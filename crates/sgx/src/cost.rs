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
//! OpenSGX counted instructions of real x86 binaries; we execute Rust, so
//! each component **counts** the primitive operations it performs — one
//! [`Op`] per priced primitive, tallied in an [`OpCounts`] by
//! [`OpCounts::charge`]. Counts, not cycles, cross component boundaries:
//! they are **priced** into [`Counters`] once, by [`OpCounts::price`],
//! where a result leaves the model — a calibration's ops and setup (in
//! the application harness), a paper table row, or one enclave's
//! `counters_of`. A [`CostModel`] is the two cycle factors plus one price
//! per op: [`CostModel::paper`] is calibrated once against the paper's
//! micro-measurements (Tables 1 and 2) and then held fixed for the macro
//! experiments (Tables 3–4, Figure 3), which therefore are *predictions*
//! of the model rather than fits; [`CostModel::vmtee`] is the same row
//! with the VM-TEE crossing shape. Each op's rustdoc gives its price and
//! where it comes from.

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

/// Which of the paper's two counters an [`Op`]'s price lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// SGX(U) instructions (TEE transitions on a VM TEE).
    Sgx,
    /// Normal instructions.
    Normal,
}

/// Declares [`Op`] from the price table: per op its provenance, its
/// [`Kind`], its paper-row price and, where the VM-TEE crossing shape
/// differs, its VM-TEE-row price.
macro_rules! price_table {
    ($($(#[$doc:meta])* $op:ident: $kind:ident $paper:expr $(, vmtee $vmtee:expr)?;)*) => {
        /// One priced primitive: a row of the price table, with where its
        /// price comes from.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Op {
            $(
                $(#[$doc])*
                #[doc = ""]
                #[doc = concat!(
                    "Price (", stringify!($kind), "): ", stringify!($paper),
                    $("; VM-TEE row: ", stringify!($vmtee),)? "."
                )]
                $op,
            )*
        }

        impl Op {
            /// Every op, in declaration order.
            pub const ALL: [Op; Op::COUNT] = [$(Op::$op),*];

            /// The op's kind and its paper-row and VM-TEE-row prices.
            const fn row(self) -> (Kind, u64, u64) {
                match self {
                    $(Op::$op => (Kind::$kind, $paper, price_table!(@vmtee $paper $(, $vmtee)?)),)*
                }
            }
        }
    };
    (@vmtee $paper:expr) => { $paper };
    (@vmtee $paper:expr, $vmtee:expr) => { $vmtee };
}

price_table! {
    // --- TEE transitions ---
    /// EENTER + EEXIT of one ecall (or ecall batch, or quoting-enclave
    /// entry); free on a VM TEE, where a guest call is an ordinary call.
    /// Table 1: the target's 20 SGX(U).
    EcallPair: Sgx 2, vmtee 0;
    /// One EEXIT + EENTER pair out to the host: an ocall, a page-extension
    /// trap, an I/O batch's setup or completion, a packet send, the PSP
    /// mailbox. Elidable through the switchless ring. Table 2: 6 SGX(U)
    /// for one packet, 204 for 100.
    HostCrossing: Sgx 2;
    /// AEX + ERESUME around one EPC page eviction. Never elided.
    AexResume: Sgx 2;
    /// EREPORT.
    Ereport: Sgx 1;
    /// EGETKEY.
    Egetkey: Sgx 1;
    /// One challenger protocol leg: entering the challenger enclave plus
    /// the message ocall (request/response VM exits on a VM TEE). Table 1:
    /// the challenger's 8 SGX(U) over two legs.
    ChallengerEntry: Sgx 4, vmtee 2;

    // --- public-key cryptography ---
    /// A 768-bit modular exponentiation, by the cubic rule from
    /// [`Op::Modexp1024`], rounded once.
    Modexp768: Normal cubic_modexp(768);
    /// A 1024-bit modular exponentiation. Table 1: challenger w/ DH − w/o
    /// DH = 224 M over two modexps (keygen + shared secret).
    Modexp1024: Normal cubic_modexp(1024);
    /// A 1536-bit modular exponentiation (cubic rule).
    Modexp1536: Normal cubic_modexp(1536);
    /// A 2048-bit modular exponentiation (cubic rule).
    Modexp2048: Normal cubic_modexp(2048);
    /// 1024-bit Diffie–Hellman parameter generation. Table 1: target w/ DH
    /// − w/o DH − 2 modexps ("the Diffie-Hellman key exchange takes up 90%
    /// of the cycles").
    DhParamGen: Normal 3_960_000_000;
    /// Signing a quote (EPID stand-in) or a PSP report. Table 1: quoting
    /// 125 M is dominated by one public-key operation.
    QuoteSign: Normal 112_000_000, vmtee 45_000_000;
    /// Verifying one evidence signature: an EPID quote, or one link of a
    /// VM-TEE endorsement chain. Table 1: challenger 124 M w/o DH is
    /// dominated by one public-key operation.
    QuoteVerify: Normal 112_000_000, vmtee 50_000_000;

    // --- attestation bookkeeping (Table 1 residuals) ---
    /// Target attestation base: report generation, intra-attestation with
    /// the quoting enclave, marshalling. Table 1: target w/o DH.
    AttestTargetBase: Normal 154_000_000, vmtee 60_000_000;
    /// Quoting-enclave base besides the signature. Table 1: quoting 125 M
    /// − 112 M.
    AttestQuoteBase: Normal 13_000_000, vmtee 5_000_000;
    /// Challenger base besides verification. Table 1: challenger 124 M −
    /// 112 M.
    AttestChallengerBase: Normal 12_000_000;

    // --- symmetric cryptography ---
    /// AES-128 key schedule. Table 2: crypto − non-crypto for one packet
    /// (84 K) minus one MTU encryption.
    AesKeySchedule: Normal 75_600;
    /// One AES-128 block (16 bytes). Table 2: the crypto delta per packet
    /// across the 100-packet batch (≈7.6 K per 1 500 B MTU = 94 blocks).
    AesBlock: Normal 81;
    /// One SHA-256 compression (64 bytes).
    Sha256Block: Normal 300;
    /// One HMAC-SHA256 over a short message.
    HmacShort: Normal 1_500;
    /// One byte of in-enclave randomness (RDRAND-style).
    RandomByte: Normal 10;

    // --- enclave I/O and marshalling (Table 2) ---
    /// One send batch's syscall path and buffers. Table 2: the w/o crypto
    /// column (13 K for 1 packet, 136 K for 100).
    SendBase: Normal 11_750;
    /// Copying one packet out of the enclave. Table 2, as [`Op::SendBase`].
    PacketCopy: Normal 1_250;
    /// The fixed marshalling of one ecall input or one ocall.
    MarshalBase: Normal 50;
    /// Marshalling one 8-byte word across the boundary.
    MarshalWord: Normal 1;

    // --- switchless transitions (HotCalls-style ring) ---
    /// The enclave posting one request into the shared ring (write args,
    /// publish, fence).
    SwitchlessPost: Normal 300;
    /// A host worker polling, unmarshalling and dispatching one request,
    /// charged to the enclave as the paper charges all work on its behalf.
    SwitchlessPoll: Normal 600;
    /// Waking a sleeping worker (futex path), once per asleep fallback.
    SwitchlessWake: Normal 4_000;
    /// One spin unit an awake worker burns on an empty ring, per
    /// [`crate::TransitionStats::idle_spins`]: what lets an
    /// over-provisioned pool lose to classic transitions.
    IdleSpin: Normal 60;

    // --- enclave memory ---
    /// One dynamic allocation inside the enclave (page-fault handling,
    /// EACCEPT-style bookkeeping).
    AllocBase: Normal 1_800;
    /// One newly backed 4 KiB EPC page.
    AllocPage: Normal 3_200;
    /// Accepting one new private page (PVALIDATE / EACCEPT): a VM-TEE cost,
    /// where guest memory never pages out to [`Op::EwbPage`].
    PageAccept: Normal 0, vmtee 2_600;
    /// Evicting one page (EWB: encrypt + MAC 4 KiB, versioning).
    EwbPage: Normal 25_000;

    // --- the routing workload (Table 4, Figure 3) ---
    /// One BGP work unit (announcement processed or candidate route
    /// evaluated), native and enclave alike. A 30-AS random topology does
    /// ≈40 K units; set so the native inter-domain controller lands near
    /// Table 4's 74 M.
    RouteEval: Normal 17_300;
    /// A work unit's extra cost inside the enclave (allocation and
    /// marshalling), fitted to Table 4's 82 % / Figure 3's 90 % overhead:
    /// "in-enclave I/O and dynamic memory allocation that cause context
    /// switches" (§5).
    EvalOverhead: Normal 11_400;
    /// An AS-local controller's fixed per-run cost (policy preparation,
    /// session bookkeeping).
    AslocalBase: Normal 1_400_000;
    /// An AS-local controller installing one route natively. Table 4: ≈13 M
    /// natively, dominated by FIB installation.
    FibInstall: Normal 400_000;
    /// Installing one route inside the enclave, extra (socket reads,
    /// allocation-heavy parsing), fitted to Table 4's 69 % AS-local
    /// overhead.
    AslocalPerRoute: Normal 370_000;
}

/// Paper-row price of a `bits`-wide modexp: 112 M (Table 1's 1024-bit
/// cost) · bits³ / 1024³, rounded to nearest once.
const fn cubic_modexp(bits: u128) -> u64 {
    const DEN: u128 = 1024 * 1024 * 1024;
    ((112_000_000 * bits * bits * bits + DEN / 2) / DEN) as u64
}

impl Op {
    /// Number of ops (the length of a price row).
    pub const COUNT: usize = Op::AslocalPerRoute as usize + 1;

    /// Which counter this op's price lands in.
    pub const fn kind(self) -> Kind {
        self.row().0
    }

    /// The modexp op of a built-in MODP width (768, 1024, 1536 or 2048
    /// bits); `None` for any other width.
    pub const fn modexp(bits: usize) -> Option<Op> {
        match bits {
            768 => Some(Op::Modexp768),
            1024 => Some(Op::Modexp1024),
            1536 => Some(Op::Modexp1536),
            2048 => Some(Op::Modexp2048),
            _ => None,
        }
    }
}

// The routing workload's enclave amplification stays below 1× native, so
// Table 4's ratio lands near the paper's ~82 % (I/O and allocation never
// dominate the computation itself).
const _: () = assert!(Op::EvalOverhead.row().1 < Op::RouteEval.row().1);
const _: () = assert!(Op::AslocalPerRoute.row().1 < Op::FibInstall.row().1);

/// A calibrated cost model: the two cycle factors of §5 fn. 6 and one
/// price per [`Op`].
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
    prices: [u64; Op::COUNT],
}

impl Default for CostModel {
    fn default() -> Self {
        Self::paper()
    }
}

impl CostModel {
    /// The model calibrated to the paper's Tables 1–2 (see [`Op`]).
    pub fn paper() -> Self {
        CostModel {
            sgx_instr_cycles: 10_000,
            cpi_num: 9,
            cpi_den: 5,
            prices: Op::ALL.map(|op| op.row().1),
        }
    }

    /// A VM-TEE (TDX/SEV-SNP-style) cost profile: the paper row with the
    /// crossing shape changed.
    ///
    /// The application work is priced as on [`CostModel::paper`] — the
    /// workload does the same work — but:
    ///
    /// * a TEE-transition instruction is a VM exit/resume leg (~2 500
    ///   cycles), not a 10 000-cycle EENTER/EEXIT microcode flow;
    /// * direct guest calls pay **no** transition pair ([`Op::EcallPair`]
    ///   is 0): only I/O- and ocall-shaped crossings VM-exit, so switchless
    ///   elision buys proportionally less;
    /// * dynamic memory pays per-page acceptance ([`Op::PageAccept`])
    ///   instead of EPC eviction ever firing;
    /// * attestation is PSP-style: a cheaper report signature
    ///   ([`Op::QuoteSign`]) plus a second verification for the
    ///   host-fetched endorsement chain ([`Op::QuoteVerify`] is charged
    ///   once per link), with no in-enclave quoting-enclave round trips
    ///   ([`Op::AttestTargetBase`], [`Op::AttestQuoteBase`]).
    pub fn vmtee() -> Self {
        CostModel {
            sgx_instr_cycles: 2_500,
            prices: Op::ALL.map(|op| op.row().2),
            ..Self::paper()
        }
    }
}

/// How many times a component performed each [`Op`]: the meter every
/// enclave, attestation component, challenger and model-side driver
/// keeps. Priced into [`Counters`] by [`OpCounts::price`] where a result
/// leaves the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpCounts([u64; Op::COUNT]);

impl Default for OpCounts {
    fn default() -> Self {
        OpCounts([0; Op::COUNT])
    }
}

impl OpCounts {
    /// A zeroed meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `n` more occurrences of `op`.
    pub fn charge(&mut self, op: Op, n: u64) {
        self.0[op as usize] += n;
    }

    /// How many times `op` was charged.
    pub fn count(&self, op: Op) -> u64 {
        self.0[op as usize]
    }

    /// Accumulates another meter into this one.
    pub fn merge(&mut self, other: &OpCounts) {
        for (mine, theirs) in self.0.iter_mut().zip(other.0) {
            *mine += theirs;
        }
    }

    /// Difference since an earlier snapshot (`self - earlier`), per op.
    ///
    /// Saturating, like [`Counters::since`]: a snapshot ahead of the
    /// meter degrades to zero in release builds and trips a
    /// `debug_assert!` in debug builds.
    pub fn since(&self, earlier: &OpCounts) -> OpCounts {
        debug_assert!(
            self.0.iter().zip(earlier.0).all(|(now, then)| *now >= then),
            "OpCounts::since snapshot is ahead of the meter (taken across a reset?): \
             now={self:?} earlier={earlier:?}"
        );
        OpCounts(std::array::from_fn(|i| {
            self.0[i].saturating_sub(earlier.0[i])
        }))
    }

    /// The counts priced under `model`: each op's count times its price,
    /// summed into the counter of its [`Kind`].
    pub fn price(&self, model: &CostModel) -> Counters {
        let mut total = Counters::new();
        for ((op, count), price) in Op::ALL.into_iter().zip(self.0).zip(model.prices) {
            let instr = count * price;
            match op.kind() {
                Kind::Sgx => total.sgx_instr += instr,
                Kind::Normal => total.normal_instr += instr,
            }
        }
        total
    }

    /// AES over `len` bytes (key schedule excluded): one block per 16
    /// bytes, rounded up.
    pub fn aes(&mut self, len: usize) {
        self.charge(Op::AesBlock, len.div_ceil(16) as u64);
    }

    /// A fresh AES key schedule plus AES over `len` bytes (sealing and
    /// unsealing, a middlebox opening a record).
    pub fn keyed_aes(&mut self, len: usize) {
        self.charge(Op::AesKeySchedule, 1);
        self.aes(len);
    }

    /// Sealing or opening one `len`-byte record under an already
    /// scheduled key: AES over the record and its HMAC.
    pub fn aes_hmac(&mut self, len: usize) {
        self.aes(len);
        self.charge(Op::HmacShort, 1);
    }

    /// Sealing or opening one `len`-byte secure-channel record: a fresh
    /// key schedule, then [`OpCounts::aes_hmac`].
    pub fn channel_record(&mut self, len: usize) {
        self.charge(Op::AesKeySchedule, 1);
        self.aes_hmac(len);
    }

    /// An HMAC-SHA256 over a `len`-byte payload: SHA-256 over the payload
    /// (one compression per 64-byte block plus one for padding) and the
    /// short-message HMAC around it.
    pub fn hmac(&mut self, len: usize) {
        self.charge(Op::Sha256Block, len as u64 / 64 + 1);
        self.charge(Op::HmacShort, 1);
    }

    /// Marshalling `len` bytes across the boundary with the per-call fixed
    /// cost (an ecall's input, an ocall's payload and reply).
    pub fn marshal(&mut self, len: usize) {
        self.charge(Op::MarshalWord, len as u64 / 8);
        self.charge(Op::MarshalBase, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(ops: &[(Op, u64)]) -> OpCounts {
        let mut c = OpCounts::new();
        for &(op, n) in ops {
            c.charge(op, n);
        }
        c
    }

    fn pair(sgx_instr: u64, normal_instr: u64) -> Counters {
        Counters {
            sgx_instr,
            normal_instr,
        }
    }

    #[test]
    fn counters_accumulate_and_diff() {
        let mut c = pair(3, 1000);
        let snap = c;
        c.merge(pair(2, 500));
        assert_eq!(c.since(snap), pair(2, 500));
        let mut m = Counters::new();
        m.merge(c);
        assert_eq!(m, c);
    }

    #[test]
    fn op_counts_diff_per_op() {
        let earlier = counts(&[(Op::HostCrossing, 3), (Op::AesBlock, 10)]);
        let mut now = earlier;
        now.merge(&counts(&[(Op::AesBlock, 4), (Op::Ereport, 1)]));
        assert_eq!(
            now.since(&earlier),
            counts(&[(Op::AesBlock, 4), (Op::Ereport, 1)])
        );
        assert_eq!(now.since(&now), OpCounts::new());
    }

    #[cfg(debug_assertions)]
    #[test]
    fn op_counts_since_ahead_trips_debug_assert() {
        let ahead = counts(&[(Op::EcallPair, 1)]);
        assert!(std::panic::catch_unwind(|| OpCounts::new().since(&ahead)).is_err());
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn op_counts_since_ahead_saturates_in_release() {
        // Only the op that ran ahead saturates; the others still diff.
        let now = counts(&[(Op::AesBlock, 5)]);
        let ahead = counts(&[(Op::EcallPair, 1), (Op::AesBlock, 2)]);
        assert_eq!(now.since(&ahead), counts(&[(Op::AesBlock, 3)]));
    }

    #[test]
    fn pricing_is_the_dot_product_of_counts_and_prices() {
        let paper = CostModel::paper();
        let c = counts(&[(Op::HostCrossing, 3), (Op::Ereport, 1), (Op::AesBlock, 10)]);
        assert_eq!(c.price(&paper), pair(7, 810));
        // Linear: pricing a merged meter is the sum of the priced parts.
        let more = counts(&[(Op::EcallPair, 2), (Op::AesBlock, 1)]);
        let mut merged = c;
        merged.merge(&more);
        let mut summed = c.price(&paper);
        summed.merge(more.price(&paper));
        assert_eq!(merged.price(&paper), summed);
    }

    #[test]
    fn cycle_formula_matches_paper_challenger() {
        // Paper §5: "The challenger enclave consumes 626M cycles" with 8
        // SGX(U) and 348M normal instructions (w/ DH):
        // 8 * 10_000 + 1.8 * 348M = 626.48M.
        let cycles = pair(8, 348_000_000).cycles(&CostModel::paper());
        assert_eq!(cycles, 80_000 + 626_400_000);
    }

    #[test]
    fn cycle_formula_matches_paper_remote_platform() {
        // Paper: "the quoting and target enclave [...] consumes 8033M cycles"
        // = (4338M + 125M) * 1.8 + (20 + 17) * 10K ≈ 8033.77M.
        let cycles = pair(37, 4_463_000_000).cycles(&CostModel::paper());
        assert!((8_000_000_000..8_100_000_000).contains(&cycles), "{cycles}");
    }

    #[test]
    fn cycles_exact_above_f64_precision() {
        // 2^53 + 3 normal instructions: f64 cannot represent the count
        // (it rounds to 2^53 + 4). Exact rational arithmetic gives
        // (2^53 + 3) * 9 / 5 = 16_212_958_658_533_791.
        let c = pair(0, (1u64 << 53) + 3);
        assert_eq!(c.cycles(&CostModel::paper()), 16_212_958_658_533_791);
    }

    /// (Σ per-phase cycles, cycles of the merged counters).
    fn phase_and_total_cycles(phases: &[Counters]) -> (u64, u64) {
        let model = CostModel::paper();
        let mut merged = Counters::new();
        let mut summed = 0;
        for p in phases {
            merged.merge(*p);
            summed += p.cycles(&model);
        }
        (summed, merged.cycles(&model))
    }

    #[test]
    fn phase_cycle_totals_are_additive() {
        // When every phase count is a multiple of 5 (as here), per-phase
        // conversion then summation equals converting the merged
        // counters, including counts far above 2^53.
        let model = CostModel::paper();
        let (summed, total) = phase_and_total_cycles(&[
            pair(12, 9_007_199_254_741_000), // > 2^53, ≡ 0 mod 5
            counts(&[(Op::HostCrossing, 3), (Op::AesKeySchedule, 1_000_000_000)]).price(&model),
            counts(&[(Op::SendBase, 123_456_789)]).price(&model),
        ]);
        assert_eq!(summed, total);
    }

    #[test]
    fn phase_cycle_totals_fall_short_by_less_than_one_cycle_per_phase() {
        // Each phase rounds its own 9·n/5 down: remainders 1, 2, 3 and 4
        // fifths here, ten fifths dropped in all, which the merged
        // conversion keeps as two whole cycles.
        let phases = [4u64, 3, 2, 1].map(|normal| pair(1, normal));
        let (summed, total) = phase_and_total_cycles(&phases);
        assert_eq!((summed, total), (40_016, 40_018));
        assert!(total - (phases.len() as u64 - 1) <= summed && summed <= total);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn since_across_reset_trips_debug_assert() {
        let stale = pair(5, 5);
        assert!(std::panic::catch_unwind(|| Counters::new().since(stale)).is_err());
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn since_across_reset_saturates_in_release() {
        // A stale snapshot (taken before a counter reset) must degrade to
        // zero instead of aborting a release-mode load report.
        assert_eq!(Counters::new().since(pair(5, 5)), Counters::new());
    }

    #[test]
    fn vmtee_profile_differs_only_in_crossing_shape() {
        let (paper, vm) = (CostModel::paper(), CostModel::vmtee());
        assert!(vm.sgx_instr_cycles < paper.sgx_instr_cycles);
        assert_eq!((vm.cpi_num, vm.cpi_den), (paper.cpi_num, paper.cpi_den));
        let shape = [
            Op::EcallPair,
            Op::ChallengerEntry,
            Op::QuoteSign,
            Op::QuoteVerify,
            Op::AttestTargetBase,
            Op::AttestQuoteBase,
            Op::PageAccept,
        ];
        for op in Op::ALL {
            let one = counts(&[(op, 1)]);
            let differs = one.price(&vm) != one.price(&paper);
            assert_eq!(differs, shape.contains(&op), "{op:?}");
        }
        // Direct guest calls are free; page acceptance is VM-TEE only.
        assert_eq!(counts(&[(Op::EcallPair, 1)]).price(&vm), Counters::new());
        assert_eq!(
            counts(&[(Op::PageAccept, 1)]).price(&paper),
            Counters::new()
        );
    }

    #[test]
    fn modexp_scales_cubically() {
        let price = |op| counts(&[(op, 1)]).price(&CostModel::paper()).normal_instr;
        assert_eq!(price(Op::Modexp1024), 112_000_000);
        assert_eq!(price(Op::Modexp2048), 8 * price(Op::Modexp1024));
        assert_eq!(price(Op::Modexp768), 47_250_000);
        assert_eq!(price(Op::Modexp1536), 378_000_000);
        assert_eq!(Op::modexp(768), Some(Op::Modexp768));
        assert_eq!(Op::modexp(512), None);
    }

    #[test]
    fn aes_cost_rounds_up_blocks() {
        for (len, blocks) in [(16, 1), (17, 2), (1500, 94)] {
            let mut c = OpCounts::new();
            c.aes(len);
            assert_eq!(c.count(Op::AesBlock), blocks);
        }
    }

    /// One Table 2 send of `packets` MTU packets under the paper row: two
    /// batch crossings plus one per packet, the batch base, a copy per
    /// packet and, with `encrypt`, a key schedule plus AES per packet.
    fn table2_send(packets: u64, encrypt: bool) -> Counters {
        let mut c = counts(&[
            (Op::HostCrossing, 2 + packets),
            (Op::SendBase, 1),
            (Op::PacketCopy, packets),
        ]);
        if encrypt {
            c.charge(Op::AesKeySchedule, 1);
            c.charge(Op::AesBlock, 94 * packets);
        }
        c.price(&CostModel::paper())
    }

    #[test]
    fn table2_calibration_single_packet() {
        // "1 packet w/o crypto ≈ 13K, w/ crypto ≈ 97K; 6 SGX instr".
        assert_eq!(table2_send(1, false).sgx_instr, 6);
        assert!((12_000..14_000).contains(&table2_send(1, false).normal_instr));
        assert!((95_000..99_000).contains(&table2_send(1, true).normal_instr));
    }

    #[test]
    fn table2_calibration_batch() {
        // "100 packets w/o crypto ≈ 136K, w/ crypto ≈ 972K; 204 SGX instr".
        assert_eq!(table2_send(100, false).sgx_instr, 204);
        assert!((130_000..140_000).contains(&table2_send(100, false).normal_instr));
        assert!((950_000..990_000).contains(&table2_send(100, true).normal_instr));
    }
}
