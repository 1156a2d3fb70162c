//! Quickstart: remote attestation between two parties and a secure
//! channel bootstrapped through it — the paper's Figure 1 in ~80 lines.
//!
//! Run: `cargo run --release -p teenet-bench --example quickstart`

use teenet::attest::AttestConfig;
use teenet::identity::IdentityPolicy;
use teenet::responder::{attest_enclave, AttestResponder, SessionNonce};
use teenet_crypto::schnorr::{SchnorrGroup, SigningKey};
use teenet_crypto::SecureRng;
use teenet_sgx::cost::CostModel;
use teenet_sgx::{deploy_platform, EnclaveCtx, EnclaveProgram, EpidGroup, SgxError, TeeBackend};

/// A tiny service enclave: answers attestation, then serves encrypted
/// "what time is it"-style queries over the bootstrapped channel.
struct GreeterEnclave {
    responder: AttestResponder,
    greetings: u64,
}

impl EnclaveProgram for GreeterEnclave {
    fn code_image(&self) -> Vec<u8> {
        // Everything behaviour-defining goes into the measured image.
        b"greeter-enclave-v1".to_vec()
    }

    fn ecall(
        &mut self,
        ctx: &mut EnclaveCtx<'_>,
        fn_id: u64,
        input: &[u8],
    ) -> Result<Vec<u8>, SgxError> {
        match fn_id {
            0 => self.responder.handle_begin(ctx, input),
            1 => self.responder.handle_finish(ctx, input),
            // Encrypted application traffic: nonce ‖ sealed message.
            2 => {
                let (nonce, sealed) = input.split_at(32);
                let nonce: SessionNonce = nonce.try_into().expect("32 bytes");
                let channel = self.responder.channel_mut(&nonce)?;
                let plain = channel
                    .open(sealed)
                    .map_err(|_| SgxError::EcallRejected("bad channel message"))?;
                self.greetings += 1;
                let reply = format!(
                    "hello, {}! (greeting #{}, computed inside the enclave)",
                    String::from_utf8_lossy(&plain),
                    self.greetings
                );
                Ok(channel.seal(reply.as_bytes()))
            }
            _ => Err(SgxError::EcallRejected("unknown function")),
        }
    }
}

fn main() {
    // --- Provisioning: an attestation group and a platform (one machine).
    let mut rng = SecureRng::seed_from_u64(42);
    let epid = EpidGroup::new(1, &mut rng).expect("attestation group");
    let mut platform =
        deploy_platform(TeeBackend::Sgx, "service-host", &epid, 7).expect("platform deploy");
    let author = SigningKey::generate(&SchnorrGroup::small(), &mut rng).expect("author key");

    // --- Load the enclave. Its MRENCLAVE derives from the code image.
    let config = AttestConfig::default(); // 1024-bit DH, as in the paper
    let enclave = platform
        .create_signed(
            Box::new(GreeterEnclave {
                responder: AttestResponder::new(config.clone()),
                greetings: 0,
            }),
            &author,
            1,
        )
        .expect("enclave load");
    let expected = platform.measurement_of(enclave).expect("measurement");
    println!("enclave loaded, MRENCLAVE = {}…", expected.short_hex());

    // --- Remote attestation (Figure 1) + secure channel bootstrap.
    let model = CostModel::paper();
    let (outcome, nonce) = attest_enclave(
        IdentityPolicy::Mrenclave(expected),
        config,
        &mut rng,
        platform.as_mut(),
        enclave,
        0,
        1,
        &epid.public_key(),
        None,
    )
    .expect("attestation");
    let challenger = outcome.counts.price(&model);
    println!(
        "attestation verified: identity ok, challenger spent {} SGX / {} normal instructions",
        challenger.sgx_instr, challenger.normal_instr
    );

    // --- Talk over the channel: the host only ever sees ciphertext.
    let mut channel = outcome.channel.expect("channel");
    for name in ["alice", "bob"] {
        let mut input = nonce.to_vec();
        input.extend_from_slice(&channel.seal(name.as_bytes()));
        let sealed_reply = platform
            .ecall_nohost(enclave, 2, &input)
            .expect("service call");
        let reply = channel.open(&sealed_reply).expect("open");
        println!("service replied: {}", String::from_utf8_lossy(&reply));
    }

    let counters = platform.counters_of(enclave).expect("counters");
    println!(
        "enclave totals: {} SGX instructions, {} normal instructions, {} cycles (paper model)",
        counters.sgx_instr,
        counters.normal_instr,
        counters.cycles(&model)
    );
}
