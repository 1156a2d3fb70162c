#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # teenet-app
//!
//! The unified enclave-application service layer.
//!
//! The paper's thesis is that *one* SGX abstraction serves three very
//! different network applications (inter-domain routing, Tor, TLS
//! middleboxes). This crate is that abstraction's harness side: the
//! machinery every workload needs — deployment, attestation-gated
//! provisioning, transition-mode plumbing, uniform instruction and
//! transition metering, and calibration into replayable work profiles —
//! written once, so an application crate only implements the
//! [`EnclaveService`] trait.
//!
//! * [`service::EnclaveService`] — the trait contract: name, deploy,
//!   provision, typed step execution ([`service::StepRequest`] →
//!   [`service::StepOutcome`]), metering accessors, teardown.
//! * [`harness::AppHarness`] — owns the cross-cutting flow: deploy →
//!   provision → transition-mode switch → setup metering → per-step
//!   calibration (including the batched-ecall marginal-cost measurement
//!   used under [`teenet_sgx::TransitionMode::Switchless`]).
//! * [`profile`] — [`WorkProfile`]/[`WorkStep`], the calibrated output
//!   every load scenario replays (moved here from `teenet::driver` so
//!   application crates no longer depend on the attestation core just
//!   for profile structs).
//! * [`ledger`] — attestation accounting (moved here from `teenet` for
//!   the same layering reason; the harness wires a fresh ledger into
//!   every calibration).
//!
//! Adding a fifth workload is one [`EnclaveService`] impl plus a registry
//! entry in `teenet-load` — no new deploy/provision/calibrate code.

pub mod harness;
pub mod ledger;
pub mod profile;
pub mod service;

pub use harness::AppHarness;
pub use ledger::{AttestKind, AttestLedger};
pub use profile::{WorkProfile, WorkStep};
pub use service::{
    AppError, EnclaveService, ServiceEnv, StepExecution, StepKind, StepOutcome, StepRequest,
    StepSpec,
};
