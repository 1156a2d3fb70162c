//! The workload abstraction: calibrate-then-replay operation profiles.
//! The profile types themselves live in `teenet-app` (the harness
//! returns them) and are re-exported here.
//!
//! Driving tens of thousands of *real* protocol sessions (each with
//! 1024-bit DH exchanges) is wall-clock infeasible, and — because the
//! repo's SGX cost model is deterministic per operation — unnecessary. A
//! scenario instead runs a handful of real sessions against the actual
//! enclave code, captures each operation's instruction counters and wire
//! sizes as an [`OpProfile`], and the runner replays those profiles at
//! scale on virtual time. The replay is exact, not approximate: a second
//! real session costs precisely what the first did, modulo the keys.

pub use teenet_app::profile::{cycles_to_nanos, Calibration, OpProfile};

/// A workload that can calibrate itself into per-session [`OpProfile`]s.
///
/// Implementations hold their configuration and seed; `calibrate` runs the
/// real protocol (real enclaves, real crypto) a bounded number of times
/// and must be deterministic in the seed.
///
/// `Send` is a supertrait so a boxed scenario (and the deployed service
/// inside it) can move to a load shard's worker thread.
pub trait Scenario: Send {
    /// Stable scenario name (used in reports and JSON).
    fn name(&self) -> &'static str;

    /// One-line description for `loadgen --list`.
    fn describe(&self) -> &'static str;

    /// Runs the real protocol and extracts the per-session script.
    fn calibrate(&mut self) -> Calibration;
}
