//! Allocation regression gate for the replay hot path.
//!
//! A replayed frame is a 24-byte header followed by zeros nobody reads.
//! The engine hands `netsim` the header and the *length* of the zeros; the
//! header travels inside the `Packet` (a `Bytes` this short is stored
//! inline) and deliveries are handed to the engine without passing through
//! an inbox, so a message allocates nothing at all. What a replay does
//! allocate is bookkeeping that stops growing once the run reaches its
//! high-water marks: network, slab, index, event queues, the report. This
//! test pins that with a counting global allocator: 1 600 messages fit in
//! the constant that used to be allowed *on top of* one allocation per
//! message.
//!
//! The same test differences two sharded runs to pin the pooled shard
//! engine's per-session cost: one more session allocates (almost) nothing
//! — no packet buffers, and no histogram-sized block, which is what
//! rebuilding the metrics per session used to cost — and exactly the same
//! number of bytes for a script of 128/64-byte frames and one of
//! 4 096/2 048-byte frames.
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
/// window contains nothing but the replay itself) whose second op moves
/// `request_bytes`/`response_bytes` on the wire.
fn toy_calibration(request_bytes: u32, response_bytes: u32) -> Calibration {
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
                request_bytes,
                response_bytes,
                transitions: TransitionStats::default(),
            },
        ],
        mode: Default::default(),
        backend: TeeBackend::Sgx,
        switchless: Default::default(),
    }
}

#[test]
fn a_message_allocates_nothing_whatever_its_frame_size() {
    let sessions = 400u64;
    let ops = 2u64;
    // Clean links, closed loop: exactly one request + one response per op
    // crosses the wire, so the message count is deterministic.
    let messages = sessions * ops * 2;
    let cal = toy_calibration(256, 1024);
    let cfg = LoadConfig::new(sessions, 7, LoadMode::Closed { concurrency: 16 });
    let runner = LoadRunner::new(cfg);

    // Warm once so lazily initialised process state (stdio, cost-model
    // tables) doesn't land in the counted window.
    let warm = runner.run("toy", &cal);

    let (report, allocs) = allocs_during(|| runner.run("toy", &cal));
    assert_eq!(report.json(), warm.json());
    assert_eq!(report.completed, sessions);

    // Bookkeeping only, none of it per message: network, slab, index and
    // event queues growing to their high-water marks, the report.
    let bookkeeping = 100;
    assert!(
        allocs <= bookkeeping,
        "the engine allocates per message: {allocs} allocs for {messages} messages"
    );

    // Sharded arm. Thread start-up, the per-shard engine and its one set
    // of metrics are the same in a 200- and a 400-session run, so their
    // difference is what 200 more sessions cost: at most one allocation
    // each — the same bytes whether the frames are hundreds or thousands
    // of bytes on the wire, and far fewer than the latency histogram
    // (kilobytes of buckets) a per-session `RunMetrics` would bring.
    let sharded = |cal: &Calibration, sessions: u64| {
        let cfg = LoadConfig::new(sessions, 7, LoadMode::Closed { concurrency: 16 });
        let runner = LoadRunner::new(cfg);
        let before = BYTES.load(Ordering::Relaxed);
        let (report, allocs) = allocs_during(|| runner.run_sharded("toy", cal, 2));
        assert_eq!(report.completed, sessions);
        (allocs, BYTES.load(Ordering::Relaxed) - before)
    };
    let per_extra_session = |cal: &Calibration| {
        sharded(cal, 200); // warm, as above
        let (allocs_200, bytes_200) = sharded(cal, 200);
        let (allocs_400, bytes_400) = sharded(cal, 400);
        let per_session_allocs = (allocs_400 - allocs_200) as f64 / 200.0;
        assert!(
            per_session_allocs <= 1.0,
            "a sharded session allocates {per_session_allocs} times ({allocs_200} → {allocs_400})"
        );
        bytes_400 - bytes_200
    };
    let small = per_extra_session(&toy_calibration(128, 64));
    let large = per_extra_session(&toy_calibration(4096, 2048));
    assert_eq!(
        small, large,
        "bytes allocated per extra session depend on the frame size"
    );
    // Not a packet buffer, let alone a histogram, per session.
    assert!(
        small / 200 <= 64,
        "a sharded session allocates {} bytes",
        small / 200
    );
}
