#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Shared harness code for the table/figure reproduction binaries and the
//! benchmark's paper-reproduction workload (`benchmark/`).
//!
//! Each binary regenerates one artifact of the paper's evaluation (§5):
//!
//! | binary   | artifact |
//! |----------|----------|
//! | `table1` | instructions during remote attestation |
//! | `table2` | instructions per enclave packet send |
//! | `table3` | remote attestations per application design |
//! | `table4` | SDN inter-domain routing costs w/ and w/o SGX |
//! | `fig3`   | controller CPU cycles vs number of ASes |

use teenet::attest::AttestConfig;
use teenet::identity::IdentityPolicy;
use teenet::responder::{attest_enclave, AttestResponder};
use teenet_crypto::schnorr::{SchnorrGroup, SigningKey};
use teenet_crypto::SecureRng;
use teenet_sgx::cost::{CostModel, Counters};
use teenet_sgx::{
    deploy_platform, EnclaveCtx, EnclaveId, EnclaveProgram, EpidGroup, SgxError, TeeBackend,
    TeePlatform,
};

/// A minimal attestation-target enclave (responder ecalls only) used by
/// the Table 1 harness and the benchmark's paper-reproduction pass.
pub struct AttestTarget {
    responder: AttestResponder,
}

impl AttestTarget {
    /// Creates the target with the given attestation configuration.
    pub fn new(config: AttestConfig) -> Self {
        AttestTarget {
            responder: AttestResponder::new(config),
        }
    }
}

impl EnclaveProgram for AttestTarget {
    fn code_image(&self) -> Vec<u8> {
        b"bench-attest-target-v1".to_vec()
    }
    fn ecall(
        &mut self,
        ctx: &mut EnclaveCtx<'_>,
        fn_id: u64,
        input: &[u8],
    ) -> core::result::Result<Vec<u8>, SgxError> {
        match fn_id {
            0 => self.responder.handle_begin(ctx, input),
            1 => self.responder.handle_finish(ctx, input),
            _ => Err(SgxError::EcallRejected("unknown fn")),
        }
    }
}

/// A packet-sending enclave for the Table 2 harness: ecall input is
/// `count(u32) ‖ encrypt(u8)`, sends that many MTU-sized packets in one
/// batch.
pub struct PacketSender;

impl EnclaveProgram for PacketSender {
    fn code_image(&self) -> Vec<u8> {
        b"bench-packet-sender-v1".to_vec()
    }
    fn ecall(
        &mut self,
        ctx: &mut EnclaveCtx<'_>,
        _fn_id: u64,
        input: &[u8],
    ) -> core::result::Result<Vec<u8>, SgxError> {
        if input.len() != 5 {
            return Err(SgxError::EcallRejected("want count+flag"));
        }
        let count = u32::from_le_bytes(input[..4].try_into().expect("4")) as usize;
        let encrypt = input[4] == 1;
        let packet = [0u8; teenet_netsim::MTU];
        let packets: Vec<&[u8]> = (0..count).map(|_| packet.as_slice()).collect();
        ctx.send_packets(&packets, encrypt);
        Ok(Vec::new())
    }
}

/// Everything needed to run one attestation measurement.
pub struct AttestBench {
    /// The target platform (hosting target + quoting enclaves).
    pub platform: Box<dyn TeePlatform>,
    /// The target enclave.
    pub enclave: EnclaveId,
    /// The attestation group.
    pub epid: EpidGroup,
    /// Challenger-side RNG.
    pub rng: SecureRng,
    /// The cost model.
    pub model: CostModel,
}

impl AttestBench {
    /// Builds the fixture.
    pub fn new(config: &AttestConfig, seed: u64) -> Self {
        let mut rng = SecureRng::seed_from_u64(seed);
        let epid = EpidGroup::new(1, &mut rng).expect("group");
        let mut platform =
            deploy_platform(TeeBackend::Sgx, "bench-target", &epid, seed).expect("platform");
        let author = SigningKey::generate(&SchnorrGroup::small(), &mut rng).expect("key");
        let enclave = platform
            .create_signed(Box::new(AttestTarget::new(config.clone())), &author, 1)
            .expect("enclave");
        AttestBench {
            platform,
            enclave,
            epid,
            rng,
            model: CostModel::paper(),
        }
    }

    /// Runs one full remote attestation; returns
    /// (target counters delta, quoting counters delta, challenger counters).
    pub fn run_once(&mut self, config: &AttestConfig) -> (Counters, Counters, Counters) {
        let target_before = self.platform.counters_of(self.enclave).expect("counters");
        let quoting_before = self.platform.attestor_counters();
        let (outcome, _) = attest_enclave(
            IdentityPolicy::AcceptAny,
            config.clone(),
            &self.model,
            &mut self.rng,
            self.platform.as_mut(),
            self.enclave,
            0,
            1,
            &self.epid.public_key(),
            None,
        )
        .expect("attestation");
        let target = self
            .platform
            .counters_of(self.enclave)
            .expect("counters")
            .since(target_before);
        let quoting = self.platform.attestor_counters().since(quoting_before);
        (target, quoting, outcome.counters)
    }
}

/// The batch sizes of Table 2's amortisation sweep (`--bin table2`).
pub const BATCH_SWEEP: [u32; 7] = [1, 2, 5, 10, 20, 50, 100];

/// Measures one batched packet send of `count` MTU packets; returns the
/// counters attributable to the send itself (the triggering ecall's own
/// entry cost is subtracted, since the paper measures the send operation).
pub fn measure_packet_send(count: u32, encrypt: bool, seed: u64) -> Counters {
    let mut rng = SecureRng::seed_from_u64(seed);
    let epid = EpidGroup::new(1, &mut rng).expect("group");
    let mut platform = deploy_platform(TeeBackend::Sgx, "bench-io", &epid, seed).expect("platform");
    let author = SigningKey::generate(&SchnorrGroup::small(), &mut rng).expect("key");
    let enclave = platform
        .create_signed(Box::new(PacketSender), &author, 1)
        .expect("enclave");

    // Baseline: an ecall that sends zero packets still pays the enclave
    // entry/exit, argument marshalling, and the batch fixed costs;
    // subtract everything except those batch fixed costs (which belong to
    // the measured send).
    let mut input = 0u32.to_le_bytes().to_vec();
    input.push(encrypt as u8);
    let before = platform.counters_of(enclave).expect("counters");
    platform.ecall_nohost(enclave, 0, &input).expect("ecall");
    let zero_call = platform
        .counters_of(enclave)
        .expect("counters")
        .since(before);
    let ecall_overhead = Counters {
        sgx_instr: zero_call.sgx_instr - platform.model().io_batch_sgx,
        normal_instr: zero_call.normal_instr
            - platform.model().send_base
            - if encrypt {
                platform.model().aes_key_schedule
            } else {
                0
            },
    };

    let mut input = count.to_le_bytes().to_vec();
    input.push(encrypt as u8);
    let before = platform.counters_of(enclave).expect("counters");
    platform.ecall_nohost(enclave, 0, &input).expect("ecall");
    let total = platform
        .counters_of(enclave)
        .expect("counters")
        .since(before);
    total.since(ecall_overhead)
}

#[cfg(test)]
mod tests {
    use super::*;
    use teenet_crypto::dh::DhGroup;

    #[test]
    fn attest_bench_runs() {
        let config = AttestConfig::fast();
        let mut bench = AttestBench::new(&config, 1);
        let (target, quoting, challenger) = bench.run_once(&config);
        assert!(target.sgx_instr > 0);
        assert!(quoting.normal_instr > 0);
        assert!(challenger.normal_instr > 0);
    }

    #[test]
    fn packet_send_counters_match_table2_model() {
        let one = measure_packet_send(1, false, 2);
        assert_eq!(one.sgx_instr, 6, "paper: 6 SGX(U) for one packet");
        assert!((12_000..14_000).contains(&one.normal_instr), "{one:?}");
        let hundred = measure_packet_send(100, true, 2);
        assert_eq!(hundred.sgx_instr, 204, "paper: 204 SGX(U) for 100");
        assert!(
            (950_000..990_000).contains(&hundred.normal_instr),
            "{hundred:?}"
        );

        // The sweep `--bin table2` prints: two SGX(U) per packet plus four
        // for the batch, and a per-packet normal cost that batching
        // strictly amortises.
        for encrypt in [false, true] {
            let mut last_per_packet = u64::MAX;
            for n in BATCH_SWEEP {
                let c = measure_packet_send(n, encrypt, 2);
                assert_eq!(c.sgx_instr, 2 * u64::from(n) + 4, "n={n} crypto={encrypt}");
                let per_packet = c.normal_instr / u64::from(n);
                assert!(
                    per_packet < last_per_packet,
                    "n={n} crypto={encrypt}: {c:?}"
                );
                last_per_packet = per_packet;
            }
        }
    }

    #[test]
    fn dh_dominates_attestation() {
        let no_dh = AttestConfig::no_dh(DhGroup::modp1024());
        let with_dh = AttestConfig::default();
        let mut b1 = AttestBench::new(&no_dh, 3);
        let (t1, _, _) = b1.run_once(&no_dh);
        let mut b2 = AttestBench::new(&with_dh, 3);
        let (t2, _, _) = b2.run_once(&with_dh);
        assert!(t2.normal_instr > 20 * t1.normal_instr);
    }
}
