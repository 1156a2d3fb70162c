//! The [`EnclaveService`] trait: the contract between an enclave
//! application and the [`crate::AppHarness`].
//!
//! Every paper workload used to re-implement the same lifecycle by hand:
//! deploy enclaves, attest and provision, switch the transition mode,
//! snapshot counters around each protocol step, and assemble a
//! [`crate::Calibration`]. The trait splits that lifecycle into the parts
//! only the application knows (what to deploy, how to provision, how to
//! run one step) and leaves the cross-cutting parts — ordering, metering,
//! the switchless marginal-cost measurement, pricing, calibration
//! assembly — to the harness. A service reports op counts, never cycles:
//! the harness prices them once, under its backend's cost model.

use core::fmt;

use teenet_sgx::cost::OpCounts;
use teenet_sgx::{SwitchlessConfig, TeeBackend, TransitionMode, TransitionStats};

use crate::ledger::AttestLedger;

/// Harness-side failures surfaced through a service's own error type
/// (every [`EnclaveService::Error`] must be `From<AppError>`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppError {
    /// A calibration precondition failed (bad workload shape, e.g. a
    /// session of zero records).
    Calibration(&'static str),
    /// The harness and the service disagreed about the protocol (empty
    /// session script, accessor use before deployment).
    Harness(&'static str),
}

impl AppError {
    /// The underlying message.
    pub fn message(self) -> &'static str {
        match self {
            AppError::Calibration(m) | AppError::Harness(m) => m,
        }
    }
}

impl fmt::Display for AppError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AppError::Calibration(m) => write!(f, "calibration rejected: {m}"),
            AppError::Harness(m) => write!(f, "harness protocol violation: {m}"),
        }
    }
}

impl std::error::Error for AppError {}

// `teenet-interdomain`'s deployment layer reports errors directly as
// `SgxError`; give it a lossless-enough lowering so its service impl can
// use the shared harness without a new error enum.
impl From<AppError> for teenet_sgx::SgxError {
    fn from(e: AppError) -> Self {
        teenet_sgx::SgxError::EcallRejected(e.message())
    }
}

/// Cross-cutting state the harness wires into every calibration: the
/// seed, the transition mode under test, the backend, and a fresh
/// attestation ledger for provisioning accounting.
#[derive(Debug)]
pub struct ServiceEnv {
    /// Seed for all service-side randomness (services derive their own
    /// rngs from it so calibrations are deterministic).
    pub seed: u64,
    /// The transition mode this calibration runs under.
    pub mode: TransitionMode,
    /// The TEE backend services deploy their platforms against.
    pub backend: TeeBackend,
    /// The switchless worker-pool configuration services apply to their
    /// steady-state enclaves (pool size, spin budget, scaling policy).
    /// Irrelevant under [`TransitionMode::Classic`].
    pub switchless: SwitchlessConfig,
    /// Attestation accounting for the provisioning phase.
    pub ledger: AttestLedger,
}

impl ServiceEnv {
    /// A fresh environment for one calibration run on `backend`, with the
    /// `switchless` worker-pool configuration.
    pub fn new(
        seed: u64,
        mode: TransitionMode,
        backend: TeeBackend,
        switchless: SwitchlessConfig,
    ) -> Self {
        ServiceEnv {
            seed,
            mode,
            backend,
            switchless,
            ledger: AttestLedger::new(),
        }
    }
}

/// How the harness turns one scripted step into calibrated ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepKind {
    /// Execute once ([`StepRequest::Once`]), meter the delta, and emit
    /// the measured op `n` times (one real measurement replayed —
    /// exact, because the cost model is deterministic per operation).
    Repeat(u32),
    /// The batched-ecall marginal-cost measurement: execute a batch of
    /// one then a batch of two ([`StepRequest::Batch`]); the first
    /// calibrated op is the batch-of-one cost (it carries the batch's
    /// lone transition pair), and the marginal cost (batch-of-two minus
    /// batch-of-one) is emitted `n - 1` times.
    AmortisedBatch(u32),
}

/// One entry of a service's session script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepSpec {
    /// Step name (stable; surfaces in load reports).
    pub name: &'static str,
    /// How the harness measures and replays this step.
    pub kind: StepKind,
    /// Service-defined argument (e.g. the hop index of a Tor extend).
    pub arg: u64,
}

impl StepSpec {
    /// A step measured once and replayed `n` times.
    pub fn repeat(name: &'static str, n: u32) -> Self {
        StepSpec {
            name,
            kind: StepKind::Repeat(n),
            arg: 0,
        }
    }

    /// A step measured via the batched marginal-cost trick.
    pub fn amortised(name: &'static str, n: u32) -> Self {
        StepSpec {
            name,
            kind: StepKind::AmortisedBatch(n),
            arg: 0,
        }
    }
}

/// The typed request the harness hands to [`EnclaveService::run_step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepRequest {
    /// Run the step once ([`StepKind::Repeat`]).
    Once,
    /// Run `n` identical operations as one batched ecall
    /// ([`StepKind::AmortisedBatch`]).
    Batch(u32),
}

/// What one step reported: its wire sizes and whatever it spent outside
/// the service's meters. The harness adds the three spends to the metered
/// delta around the step; for [`StepRequest::Batch`] they cover the whole
/// batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepExecution {
    /// Request size on the wire, per operation.
    pub request_bytes: usize,
    /// Response size on the wire, per operation.
    pub response_bytes: usize,
    /// Client-side op counts *not* captured by
    /// [`EnclaveService::client_counts`] (modelled or challenger-measured).
    pub client: OpCounts,
    /// Server-side op counts *not* captured by
    /// [`EnclaveService::server_counts`] (work modelled outside the
    /// metered platforms, e.g. Tor's relay cell loop).
    pub server: OpCounts,
    /// Boundary crossings *not* captured by
    /// [`EnclaveService::transition_stats`].
    pub transitions: TransitionStats,
}

/// An enclave application the [`crate::AppHarness`] can deploy,
/// provision, calibrate and tear down.
///
/// The harness drives the lifecycle strictly in this order:
///
/// 1. [`deploy`](EnclaveService::deploy) — load platforms and enclaves.
/// 2. [`provision`](EnclaveService::provision) — attestation-gated key
///    release / admission / topology bootstrap (records into
///    [`ServiceEnv::ledger`]).
/// 3. [`set_transition_mode`](EnclaveService::set_transition_mode) — put
///    steady-state paths into the calibration's mode (setup always runs
///    classic, as the paper excludes it from steady state).
/// 4. [`setup_counts`](EnclaveService::setup_counts) — one-time cost.
/// 5. [`session_script`](EnclaveService::session_script) +
///    [`run_step`](EnclaveService::run_step) — per-step calibration, with
///    the harness reading [`server_counts`](EnclaveService::server_counts),
///    [`client_counts`](EnclaveService::client_counts) and
///    [`transition_stats`](EnclaveService::transition_stats) around each
///    execution.
/// 6. [`teardown`](EnclaveService::teardown).
///
/// Implementations must be deterministic in [`ServiceEnv::seed`] and must
/// surface failures as errors — calibration paths never panic.
///
/// `Send` is a supertrait: a deployed service (platforms, enclaves, keys)
/// must be movable to another OS thread so each load-generation shard can
/// own its own deployment. Services hold only owned emulator state, so
/// the bound is free — and it keeps future impls from silently capturing
/// thread-bound handles.
pub trait EnclaveService: Send {
    /// The service's error type; harness failures lower into it.
    type Error: From<AppError> + fmt::Debug;

    /// Stable service name (doubles as the load-scenario name).
    fn name(&self) -> &'static str;

    /// One-line description for listings.
    fn describe(&self) -> &'static str;

    /// Loads platforms and enclaves. Must reset any previous deployment.
    fn deploy(&mut self, env: &mut ServiceEnv) -> Result<(), Self::Error>;

    /// Attestation-gated provisioning (key release, admission, topology
    /// attestation). Default: nothing to provision.
    fn provision(&mut self, env: &mut ServiceEnv) -> Result<(), Self::Error> {
        let _ = env;
        Ok(())
    }

    /// Switches steady-state paths to `mode` under `switchless` (worker
    /// pool size, per-post spin budget, scaling policy). Implementations
    /// must configure the ring *before* switching the mode, so the worker
    /// pool initialises from the new configuration.
    fn set_transition_mode(
        &mut self,
        mode: TransitionMode,
        switchless: SwitchlessConfig,
    ) -> Result<(), Self::Error>;

    /// One-time setup op counts (enclave load, provisioning, admission),
    /// read by the harness after provisioning. Default: everything the
    /// server and client meters have accumulated so far.
    fn setup_counts(&self) -> Result<OpCounts, Self::Error> {
        let mut total = self.server_counts()?;
        total.merge(&self.client_counts()?);
        Ok(total)
    }

    /// Cumulative server-side op counts (all server platforms), read by
    /// the harness around each step.
    fn server_counts(&self) -> Result<OpCounts, Self::Error>;

    /// Cumulative client-side *platform* op counts; services whose client
    /// is unmetered (reported in [`StepExecution::client`]) keep the zero
    /// default.
    fn client_counts(&self) -> Result<OpCounts, Self::Error> {
        Ok(OpCounts::new())
    }

    /// Cumulative boundary-crossing statistics of the metered enclaves;
    /// services whose crossings are unmetered (reported in
    /// [`StepExecution::transitions`]) keep the zero default.
    fn transition_stats(&self) -> Result<TransitionStats, Self::Error> {
        Ok(TransitionStats::new())
    }

    /// The per-session step script for this calibration.
    fn session_script(&self, env: &ServiceEnv) -> Result<Vec<StepSpec>, Self::Error>;

    /// Executes one scripted step against the deployed enclaves.
    fn run_step(
        &mut self,
        spec: &StepSpec,
        request: StepRequest,
        env: &mut ServiceEnv,
    ) -> Result<StepExecution, Self::Error>;

    /// Releases deployment resources. Default: dropping the service is
    /// enough.
    fn teardown(&mut self, env: &mut ServiceEnv) -> Result<(), Self::Error> {
        let _ = env;
        Ok(())
    }
}
