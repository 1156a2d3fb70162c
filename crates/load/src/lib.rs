#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # teenet-load
//!
//! Scenario-driven load generation and metrics for stress-testing the
//! paper's three applications at scale — the substrate every perf PR
//! measures itself against.
//!
//! The repo's experiment binaries (`table1..table4`, `fig3`) are
//! single-shot: they run one protocol instance and print the paper's
//! numbers. This crate drives *sustained, concurrent* traffic on
//! `teenet-netsim` virtual time and reports latency/throughput
//! distributions plus SGX instruction/cycle rollups:
//!
//! * [`hist`] — log-bucketed latency histograms (p50/p90/p99/p999).
//! * [`metrics`] — monotonic counters, gauges, per-phase SGX cost rollups.
//! * [`arrival`] — seeded open-loop (Poisson) and closed-loop arrival
//!   processes.
//! * [`scenario`] — the workload abstraction: calibrated operation
//!   profiles replayed at scale (calibrate-then-replay, the standard
//!   trace-driven-load technique; exact here because the cost model is
//!   deterministic per operation).
//! * [`scenarios`] — the four paper workloads (attestation storms,
//!   TLS-middlebox record traffic, Tor circuit+stream traffic, BGP
//!   announcement churn), each a `teenet-app` [`EnclaveService`] wrapped
//!   in the generic [`scenarios::ServiceScenario`] and registered in
//!   [`scenarios::REGISTRY`].
//! * [`runner`] — the virtual-time engine: a multi-worker service queue
//!   behind `teenet-netsim` links (with faults, bandwidth and FIFO
//!   queueing), timeouts, and deterministic event ordering. Sessions are
//!   generated lazily into a ring indexed by session id and retired as
//!   they finish, so memory is O(span of live ids) — a million-session run
//!   fits in a bounded footprint.
//! * [`shard`] — the sharded replay model: per-session independent
//!   replay partitioned across OS threads, with reports byte-identical
//!   for every thread count.
//! * [`report`] — run reports as an aligned text table and byte-stable
//!   JSON (same scenario + seed ⇒ identical bytes).

pub mod arrival;
pub mod hist;
pub mod metrics;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod scenarios;
pub mod shard;

pub use arrival::{Arrival, ArrivalProcess};
pub use hist::Histogram;
pub use metrics::{Counter, Gauge, PhaseRollup, RunMetrics};
pub use report::RunReport;
pub use runner::{EngineStats, LoadConfig, LoadMode, LoadRunner};
pub use scenario::{Calibration, OpProfile, Scenario};
pub use scenarios::{ScenarioEntry, ServiceScenario, NAMES, REGISTRY};
pub use shard::ShardPlan;

pub use teenet_app::EnclaveService;
