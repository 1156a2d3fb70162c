//! Allocation-count regression gate for the streaming engine's hot path.
//!
//! The pre-streaming engine allocated a fresh `Vec<u8>` per framed
//! message (plus a second copy when `netsim` re-boxed the payload). The
//! streaming engine frames into a pooled per-slot scratch buffer and
//! ships one `Bytes` copy, so its allocation count per message is
//! strictly lower. This test pins that with a counting global allocator:
//! the whole binary runs under an allocator that counts every `alloc`
//! call, and the streaming run must allocate measurably less than the
//! retained reference run on identical work.
//!
//! The same test differences two sharded runs to pin the pooled shard
//! engine's per-session cost: what one more session allocates is its
//! packets and (almost) nothing else — in particular no histogram-sized
//! block, which is what rebuilding the metrics per session used to cost.
//!
//! One `#[test]` only: a `#[global_allocator]` is process-wide state, and
//! Rust runs tests in one process — a single test keeps the counting
//! windows race-free without cross-test ordering assumptions.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use teenet_load::scenario::{Calibration, OpProfile};
use teenet_load::{LoadConfig, LoadMode, LoadRunner};
use teenet_sgx::cost::Counters;
use teenet_sgx::{TeeBackend, TransitionStats};

struct CountingAllocator;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocs_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

fn c(sgx: u64, normal: u64) -> Counters {
    Counters {
        sgx_instr: sgx,
        normal_instr: normal,
    }
}

/// A synthetic two-op script (no real-enclave calibration, so the counted
/// window contains nothing but the replay itself).
fn toy_calibration() -> Calibration {
    Calibration {
        setup: c(10, 1_000_000),
        ops: vec![
            OpProfile {
                name: "hello",
                client: c(0, 50_000),
                server: c(4, 500_000),
                request_bytes: 128,
                response_bytes: 64,
                transitions: TransitionStats::default(),
            },
            OpProfile {
                name: "work",
                client: c(0, 10_000),
                server: c(8, 2_000_000),
                request_bytes: 256,
                response_bytes: 1024,
                transitions: TransitionStats::default(),
            },
        ],
        mode: Default::default(),
        backend: TeeBackend::Sgx,
        switchless: Default::default(),
    }
}

#[test]
fn streaming_engine_allocates_less_than_reference_per_message() {
    let sessions = 400u64;
    let ops = 2u64;
    // Clean links, closed loop: exactly one request + one response per op
    // crosses the wire, so the message count is deterministic.
    let messages = sessions * ops * 2;
    let cal = toy_calibration();
    let cfg = LoadConfig::new(sessions, 7, LoadMode::Closed { concurrency: 16 });
    let runner = LoadRunner::new(cfg);

    // Warm both paths once so lazily initialised process state (stdio,
    // cost-model tables) doesn't land in either counted window.
    let warm_stream = runner.run("toy", &cal);
    let warm_ref = runner.run_reference("toy", &cal).unwrap();
    assert_eq!(warm_stream.json(), warm_ref.json());

    let (stream_report, stream_allocs) = allocs_during(|| runner.run("toy", &cal));
    let (ref_report, ref_allocs) = allocs_during(|| runner.run_reference("toy", &cal).unwrap());
    assert_eq!(stream_report.json(), ref_report.json());
    assert_eq!(stream_report.completed, sessions);

    // The reference path allocates a fresh framing Vec per message on top
    // of the shared per-message Bytes copy; the streaming path reuses the
    // slot scratch but pays a small bounded bookkeeping overhead (slab
    // growth, index growth, heap amortisation). Require the gap
    // to stay within that slack of one-allocation-per-message.
    assert!(
        ref_allocs > stream_allocs + (messages * 3) / 4,
        "streaming must save ~1 alloc/message: \
         reference {ref_allocs}, streaming {stream_allocs}, messages {messages}"
    );

    // Absolute hot-path bound: one Bytes copy per message plus bounded
    // bookkeeping (slab/index/heap amortisation) — not the reference
    // engine's ~2+/message.
    assert!(
        stream_allocs <= messages * 2,
        "streaming hot path regressed: {stream_allocs} allocs for {messages} messages"
    );

    // Sharded arm. Thread start-up, the per-shard engine and its one set
    // of metrics are the same in a 200- and a 400-session run, so their
    // difference is what 200 more sessions cost: one `Bytes` copy per
    // packet plus a small constant — and fewer bytes than the latency
    // histogram (kilobytes of buckets) a per-session `RunMetrics` would
    // bring.
    let sharded = |sessions: u64| {
        let cfg = LoadConfig::new(sessions, 7, LoadMode::Closed { concurrency: 16 });
        let runner = LoadRunner::new(cfg);
        let before = BYTES.load(Ordering::Relaxed);
        let (report, allocs) = allocs_during(|| runner.run_sharded("toy", &cal, 2));
        assert_eq!(report.completed, sessions);
        (allocs, BYTES.load(Ordering::Relaxed) - before)
    };
    sharded(200); // warm, as above
    let (allocs_200, bytes_200) = sharded(200);
    let (allocs_400, bytes_400) = sharded(400);
    let packets = ops * 2;
    let per_session_allocs = (allocs_400 - allocs_200) as f64 / 200.0;
    let per_session_bytes = (bytes_400 - bytes_200) / 200;
    assert!(
        per_session_allocs <= (packets + 1) as f64,
        "a sharded session allocates beyond its {packets} packets: \
         {per_session_allocs} allocs/session ({allocs_200} → {allocs_400})"
    );
    let wire_bytes: u64 = cal
        .ops
        .iter()
        .map(|op| (op.request_bytes + op.response_bytes) as u64)
        .sum();
    assert!(
        per_session_bytes <= 2 * wire_bytes,
        "a sharded session allocates a histogram-sized block: \
         {per_session_bytes} bytes/session for {wire_bytes} wire bytes"
    );
}
