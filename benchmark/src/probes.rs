//! Per-layer probes: timed micro-loops over one public function of one
//! layer, run in the traced run of every workload. They are the same on
//! every workload — a probe measures a layer, not a workload — and give
//! the unit costs the outside-in attribution multiplies the run's counts
//! by (packets × ns per packet, and so on).

use std::hint::black_box;
use std::time::Duration;

use teenet_crypto::aes::Aes128;
use teenet_crypto::dh::DhGroup;
use teenet_crypto::hmac::hmac_sha256;
use teenet_crypto::schnorr::{SchnorrGroup, SigningKey};
use teenet_crypto::sha256::sha256;
use teenet_crypto::{BigUint, SecureRng};
use teenet_load::arrival::{Arrival, ArrivalProcess};
use teenet_load::scenario::{Calibration, OpProfile};
use teenet_load::{Histogram, LoadConfig, LoadMode, LoadRunner, RunMetrics, RunReport};
use teenet_netsim::{FaultConfig, LinkConfig, Network, NodeId};
use teenet_sgx::cost::Counters;
use teenet_sgx::keys::KeyRequest;
use teenet_sgx::{
    deploy_platform, EnclaveCtx, EnclaveId, EnclaveProgram, EpidGroup, Report, SgxError,
    SwitchlessConfig, TargetInfo, TeeBackend, TeePlatform, TransitionMode, TransitionStats,
};

use crate::measure::Metrics;
use crate::trace::Tracer;
use crate::wall_clock::WallClock;

/// Nanoseconds per call of `f` in the fastest batch of calls made in
/// `min`, after one discarded call. Calls are timed in batches that
/// double until one batch takes a millisecond, so reading the clock
/// costs nothing measurable. The fastest batch, like the fastest
/// repetition of a workload, is the reading the rest of the machine
/// disturbed least: the mean over the same 0.2 s of 1024-bit `modexp`
/// read 960 to 1 880 µs from run to run on the shared box.
pub fn ns_per_call(min: Duration, mut f: impl FnMut()) -> f64 {
    f();
    let (mut total, mut batch, mut best) = (Duration::ZERO, 1u64, f64::INFINITY);
    while total < min {
        let start = WallClock::now();
        for _ in 0..batch {
            f();
        }
        let took = start.elapsed();
        total += took;
        best = best.min(took.as_nanos() as f64 / batch as f64);
        if took < Duration::from_millis(1) {
            batch *= 2;
        }
    }
    best
}

/// The fault mix of `tor_open_faulty`, shared with the faulty-link probe
/// so the probe prices the packets that workload actually sends.
pub fn faulty_links() -> FaultConfig {
    FaultConfig {
        drop_chance: 0.05,
        corrupt_chance: 0.01,
        duplicate_chance: 0.01,
        ..FaultConfig::default()
    }
}

/// Runs every probe, each under its own span, and records its metric.
pub fn run_all(tracer: &mut Tracer, min: Duration, seed: u64, out: &mut Metrics) {
    tracer.span("probes", |t| {
        crypto(t, min, seed, out);
        sgx(t, min, seed, out);
        netsim(t, min, seed, out);
        load(t, min, seed, out);
    });
}

fn probe(
    tracer: &mut Tracer,
    out: &mut Metrics,
    name: &'static str,
    scale: impl FnOnce(f64) -> f64,
    min: Duration,
    f: impl FnMut(),
) {
    let (ns, _) = tracer.span(&format!("probe:{name}"), |_| ns_per_call(min, f));
    out.push(name, scale(ns));
}

const NS_TO_US: fn(f64) -> f64 = |ns| ns / 1e3;
const NS: fn(f64) -> f64 = |ns| ns;

/// MiB/s from ns per call over `bytes` bytes.
fn mib_per_s(bytes: usize) -> impl FnOnce(f64) -> f64 {
    move |ns| bytes as f64 / (1 << 20) as f64 / (ns / 1e9)
}

fn crypto(t: &mut Tracer, min: Duration, seed: u64, out: &mut Metrics) {
    const BUF: usize = 64 * 1024;
    let mut rng = SecureRng::seed_from_u64(seed).fork(b"probe-crypto");
    let mut buf = vec![0u8; BUF];
    rng.fill_bytes(&mut buf);

    probe(
        t,
        out,
        "crypto.sha256_mib_per_s",
        mib_per_s(BUF),
        min,
        || {
            black_box(sha256(black_box(&buf)));
        },
    );
    let cipher = Aes128::new(&[7u8; 16]).expect("16-byte key");
    let nonce = [1u8; 16];
    let mut data = buf.clone();
    probe(
        t,
        out,
        "crypto.aes128_ctr_mib_per_s",
        mib_per_s(BUF),
        min,
        || {
            cipher.ctr_apply(black_box(&nonce), black_box(&mut data));
        },
    );
    probe(
        t,
        out,
        "crypto.rng_fill_mib_per_s",
        mib_per_s(BUF),
        min,
        || {
            rng.fill_bytes(black_box(&mut data));
        },
    );
    probe(t, out, "crypto.hmac_sha256_us", NS_TO_US, min, || {
        black_box(hmac_sha256(black_box(&buf[..32]), black_box(&buf[32..96])));
    });

    let group = DhGroup::modp1024();
    let exponent = BigUint::from_bytes_be(&buf[..128]);
    probe(t, out, "crypto.modexp1024_us", NS_TO_US, min, || {
        black_box(
            group
                .g
                .modexp(black_box(&exponent), &group.p)
                .expect("odd modulus"),
        );
    });

    let schnorr = SchnorrGroup::standard();
    let key = SigningKey::generate(&schnorr, &mut rng).expect("keygen");
    let msg = &buf[..256];
    let signature = key.sign(msg, &mut rng).expect("sign");
    probe(t, out, "crypto.schnorr_sign_us", NS_TO_US, min, || {
        black_box(key.sign(black_box(msg), &mut rng).expect("sign"));
    });
    let public = key.verifying_key();
    probe(t, out, "crypto.schnorr_verify_us", NS_TO_US, min, || {
        public.verify(black_box(msg), &signature).expect("verifies");
    });
}

/// The enclave the sgx probes call into: one function per crossing kind.
struct ProbeEnclave {
    /// Where `FN_REPORT` addresses its report (the platform's
    /// attestation component).
    target: TargetInfo,
}

const FN_OCALL: u64 = 1;
const FN_SEAL: u64 = 2;
const FN_REPORT: u64 = 3;

impl EnclaveProgram for ProbeEnclave {
    fn code_image(&self) -> Vec<u8> {
        b"benchmark-probe-enclave-v1".to_vec()
    }

    fn ecall(
        &mut self,
        ctx: &mut EnclaveCtx<'_>,
        fn_id: u64,
        _input: &[u8],
    ) -> Result<Vec<u8>, SgxError> {
        match fn_id {
            // One host crossing made from inside: the crossing classic
            // mode pays for and the switchless ring elides.
            FN_OCALL => {
                ctx.ocall("probe", &[0u8; 64]);
                Ok(Vec::new())
            }
            FN_SEAL => {
                let blob = ctx.seal(KeyRequest::SealEnclave, b"probe", &[7u8; 256]);
                ctx.unseal(KeyRequest::SealEnclave, &blob)
            }
            FN_REPORT => Ok(ctx.ereport(self.target, &[9u8; 64]).to_bytes()),
            _ => Err(SgxError::EcallRejected("unknown probe function")),
        }
    }
}

struct ProbePlatform {
    platform: Box<dyn TeePlatform>,
    author: SigningKey,
    enclave: EnclaveId,
}

impl ProbePlatform {
    fn deploy(backend: TeeBackend, seed: u64) -> Self {
        let mut rng = SecureRng::seed_from_u64(seed).fork(b"probe-sgx");
        let epid = EpidGroup::new(1, &mut rng).expect("group");
        let mut platform = deploy_platform(backend, "probe", &epid, seed).expect("platform");
        let author = SigningKey::generate(&SchnorrGroup::small(), &mut rng).expect("author key");
        let enclave = Self::create(platform.as_mut(), &author);
        ProbePlatform {
            platform,
            author,
            enclave,
        }
    }

    fn create(platform: &mut dyn TeePlatform, author: &SigningKey) -> EnclaveId {
        let target = platform.attestation_target_info();
        platform
            .create_signed(Box::new(ProbeEnclave { target }), author, 1)
            .expect("probe enclave loads")
    }

    fn ecall(&mut self, fn_id: u64) -> Vec<u8> {
        self.platform
            .ecall_nohost(self.enclave, fn_id, &[])
            .expect("probe ecall")
    }

    fn set_mode(&mut self, mode: TransitionMode) {
        self.platform
            .set_transition_mode(self.enclave, mode)
            .expect("enclave exists");
    }

    /// Modelled cycles one `FN_OCALL` ecall charges in the current mode.
    fn ocall_ecall_cycles(&mut self) -> u64 {
        let before = self.platform.counters_of(self.enclave).expect("counters");
        self.ecall(FN_OCALL);
        let after = self.platform.counters_of(self.enclave).expect("counters");
        after.since(before).cycles(self.platform.model())
    }

    fn report(&mut self) -> Report {
        Report::from_bytes(&self.ecall(FN_REPORT)).expect("own encoding")
    }
}

fn sgx(t: &mut Tracer, min: Duration, seed: u64, out: &mut Metrics) {
    let mut p = ProbePlatform::deploy(TeeBackend::Sgx, seed);

    {
        let ProbePlatform {
            platform, author, ..
        } = &mut p;
        probe(t, out, "sgx.create_enclave_us", NS_TO_US, min, || {
            let id = ProbePlatform::create(platform.as_mut(), author);
            platform.destroy_enclave(id).expect("just created");
        });
    }

    p.set_mode(TransitionMode::Classic);
    probe(t, out, "sgx.ecall_classic_ns", NS, min, || {
        black_box(p.ecall(FN_OCALL));
    });
    out.push("sgx.ecall_classic_cycles", p.ocall_ecall_cycles() as f64);

    let batch: Vec<(u64, Vec<u8>)> = (0..16).map(|_| (FN_OCALL, Vec::new())).collect();
    probe(
        t,
        out,
        "sgx.ecall_batch16_ns_per_call",
        |ns| ns / 16.0,
        min,
        || {
            black_box(
                p.platform
                    .ecall_batch_nohost(p.enclave, &batch)
                    .expect("probe batch"),
            );
        },
    );
    probe(t, out, "sgx.seal_unseal_us", NS_TO_US, min, || {
        black_box(p.ecall(FN_SEAL));
    });

    p.set_mode(TransitionMode::Switchless);
    probe(t, out, "sgx.ecall_switchless_ns", NS, min, || {
        black_box(p.ecall(FN_OCALL));
    });
    out.push("sgx.ecall_switchless_cycles", p.ocall_ecall_cycles() as f64);

    let report = p.report();
    probe(t, out, "sgx.evidence_sgx_us", NS_TO_US, min, || {
        black_box(p.platform.evidence(&report).expect("quote"));
    });
    let mut vm = ProbePlatform::deploy(TeeBackend::VmTee, seed);
    let report = vm.report();
    probe(t, out, "sgx.evidence_vmtee_us", NS_TO_US, min, || {
        black_box(vm.platform.evidence(&report).expect("vm evidence"));
    });
}

/// Two nodes, one duplex link shaped like the runner's links, tracing
/// off as in replay.
fn two_node_link(seed: u64, faults: FaultConfig) -> (Network, NodeId, NodeId) {
    let cfg = LoadConfig::new(1, seed, LoadMode::Closed { concurrency: 1 });
    let mut net = Network::new(seed);
    net.set_tracing(false);
    let (a, b) = (net.add_node(), net.add_node());
    net.add_duplex_link(
        a,
        b,
        LinkConfig {
            latency: cfg.latency,
            bandwidth_bps: cfg.bandwidth_bps,
            faults,
        },
    );
    (net, a, b)
}

/// One packet through the link: send, advance to its delivery, receive
/// whatever arrived (nothing if dropped, twice if duplicated).
fn packet_round(net: &mut Network, a: NodeId, b: NodeId, payload: &[u8]) {
    net.send(a, b, payload.to_vec());
    net.run_to_idle();
    while let Some(packet) = net.recv(b) {
        black_box(packet);
    }
}

fn netsim(t: &mut Tracer, min: Duration, seed: u64, out: &mut Metrics) {
    let small = [0x5au8; 64];
    let large = [0x5au8; 1400];

    let (mut net, a, b) = two_node_link(seed, FaultConfig::default());
    probe(t, out, "netsim.ns_per_packet_clean", NS, min, || {
        packet_round(&mut net, a, b, &small);
    });
    probe(t, out, "netsim.ns_per_packet_1400b", NS, min, || {
        packet_round(&mut net, a, b, &large);
    });
    let (mut net, a, b) = two_node_link(seed, faulty_links());
    probe(t, out, "netsim.ns_per_packet_faulty", NS, min, || {
        packet_round(&mut net, a, b, &small);
    });

    // The network a shard engine rewinds per session: one server, one
    // client, faulty links so the injectors are re-derived too.
    let (mut net, _, _) = two_node_link(seed, faulty_links());
    let mut next = seed;
    probe(t, out, "netsim.reset_ns", NS, min, || {
        next = next.wrapping_add(1);
        net.reset(black_box(next));
    });
}

/// A fixed four-op script with made-up costs: enough for the runner to
/// produce a fully populated report without calibrating a service.
fn synthetic_calibration() -> Calibration {
    let op = |name, server_normal: u64| OpProfile {
        name,
        client: Counters {
            sgx_instr: 0,
            normal_instr: 20_000,
        },
        server: Counters {
            sgx_instr: 4,
            normal_instr: server_normal,
        },
        request_bytes: 256,
        response_bytes: 512,
        transitions: TransitionStats {
            taken: 2,
            ..TransitionStats::default()
        },
    };
    Calibration {
        setup: Counters {
            sgx_instr: 40,
            normal_instr: 1_000_000,
        },
        ops: vec![
            op("hello", 400_000),
            op("record", 90_000),
            op("record", 90_000),
            op("close", 30_000),
        ],
        mode: TransitionMode::Classic,
        backend: TeeBackend::Sgx,
        switchless: SwitchlessConfig::default(),
    }
}

/// A small faulty open-loop run over the synthetic script: a report with
/// every block populated (retries, corrupt discards, a spread-out
/// latency histogram).
fn synthetic_report(seed: u64) -> RunReport {
    let mut cfg = LoadConfig::new(2_000, seed, LoadMode::Open { rate_per_sec: None });
    cfg.faults = faulty_links();
    LoadRunner::new(cfg).run("synthetic", &synthetic_calibration())
}

fn load(t: &mut Tracer, min: Duration, seed: u64, out: &mut Metrics) {
    let mut arrivals = ArrivalProcess::new(
        Arrival::OpenLoop { rate_per_sec: 10.0 },
        u64::MAX,
        SecureRng::seed_from_u64(seed).fork(b"arrivals"),
    );
    probe(t, out, "load.arrival_ns_per_draw", NS, min, || {
        black_box(arrivals.next_arrival());
    });

    // Latencies spread over three decades, like a faulty run's.
    let mut hist = Histogram::new();
    let mut x = seed | 1;
    probe(t, out, "load.hist_record_ns", NS, min, || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        hist.record(black_box(1_000_000 + (x >> 34)));
    });
    let other = hist.clone();
    probe(t, out, "load.hist_merge_us", NS_TO_US, min, || {
        hist.merge(black_box(&other));
    });

    let report = synthetic_report(seed);
    let mut metrics = RunMetrics::new();
    metrics.latency = report.latency.clone();
    let shard = metrics.clone();
    probe(t, out, "load.metrics_merge_us", NS_TO_US, min, || {
        metrics.merge(black_box(&shard));
    });
    probe(t, out, "load.report_json_us", NS_TO_US, min, || {
        black_box(report.json());
    });
    probe(t, out, "load.report_text_us", NS_TO_US, min, || {
        black_box(report.text());
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Class, METRICS};

    #[test]
    fn ns_per_call_grows_with_the_work_per_call() {
        let spin = |n: u64| {
            move || {
                let mut acc = 0u64;
                for i in 0..n {
                    acc = acc.wrapping_add(black_box(i));
                }
                black_box(acc);
            }
        };
        let min = Duration::from_millis(5);
        let small = ns_per_call(min, spin(100));
        let large = ns_per_call(min, spin(10_000));
        assert!(small > 0.0 && large > small * 10.0, "{small} vs {large}");
    }

    #[test]
    fn every_probe_returns_a_finite_positive_number() {
        let mut tracer = Tracer::new("test", true);
        let mut out = Metrics::default();
        run_all(&mut tracer, Duration::from_millis(2), 7, &mut out);
        for (name, samples) in out.iter() {
            assert_eq!(samples.len(), 1, "{name}");
            assert!(
                samples[0].is_finite() && samples[0] > 0.0,
                "{name}: {}",
                samples[0]
            );
            assert_eq!(
                METRICS.iter().find(|m| m.name == name).map(|m| m.class),
                Some(Class::Layer)
            );
        }
        // One span per timed probe, all under the `probes` span.
        let probes = tracer
            .spans()
            .iter()
            .filter(|s| s.name.starts_with("probe:"))
            .count();
        assert_eq!(
            probes + 2,
            out.iter().count(),
            "the two modelled-cycle readings have no loop"
        );
        assert!(tracer
            .spans()
            .iter()
            .all(|s| s.name == "probes" || s.parent == Some(0)));
    }

    #[test]
    fn switchless_elides_the_probe_ecalls_inner_crossing() {
        let mut p = ProbePlatform::deploy(TeeBackend::Sgx, 3);
        p.set_mode(TransitionMode::Classic);
        let classic = p.ocall_ecall_cycles();
        p.set_mode(TransitionMode::Switchless);
        let switchless = p.ocall_ecall_cycles();
        assert!(switchless < classic, "{switchless} !< {classic}");
        // Exact for a seed: a second reading is the same number.
        assert_eq!(switchless, p.ocall_ecall_cycles());
    }

    #[test]
    fn faulty_probe_link_actually_injects_faults() {
        let (mut net, a, b) = two_node_link(5, faulty_links());
        for _ in 0..2_000 {
            packet_round(&mut net, a, b, &[1u8; 64]);
        }
        let stats = net.fault_totals();
        assert!(
            stats.dropped > 0 && stats.corrupted > 0 && stats.duplicated > 0,
            "{stats:?}"
        );
    }

    #[test]
    fn synthetic_report_populates_every_block() {
        let r = synthetic_report(1);
        assert_eq!(r.completed + r.failed, r.sessions);
        assert!(r.retries > 0 && r.net.dropped > 0);
        assert!(r.latency.count() > 0);
    }
}
