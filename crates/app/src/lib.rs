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
//! transition metering, and calibration into a replayable op script —
//! written once, so an application crate only implements the
//! [`EnclaveService`] trait.
//!
//! * [`service::EnclaveService`] — the trait contract: name, deploy,
//!   provision, typed step execution ([`service::StepRequest`] →
//!   [`service::StepExecution`], which carries the wire sizes and
//!   whatever the step spent outside the meters), op-count metering
//!   accessors, teardown.
//! * [`harness::AppHarness`] — owns the cross-cutting flow: deploy →
//!   provision → transition-mode switch → setup metering → per-step
//!   calibration (including the batched-ecall marginal-cost measurement
//!   used under [`teenet_sgx::TransitionMode::Switchless`]), and the one
//!   place a calibration's op counts are priced.
//! * [`profile`] — [`Calibration`]/[`OpProfile`], what
//!   [`AppHarness::calibrate`] returns and every load scenario replays
//!   (here, below both the attestation core and the load driver, so an
//!   application crate depends on neither for its calibration).
//! * [`ledger`] — attestation accounting (here for the same layering
//!   reason; the harness wires a fresh ledger into every calibration).
//!
//! Adding a sixth workload is one [`EnclaveService`] impl plus a registry
//! entry in `teenet-load` — no new deploy/provision/calibrate code.

pub mod harness;
pub mod ledger;
pub mod profile;
pub mod service;

pub use harness::AppHarness;
pub use ledger::{AttestKind, AttestLedger};
pub use profile::{Calibration, OpProfile};
pub use service::{
    AppError, EnclaveService, ServiceEnv, StepExecution, StepKind, StepRequest, StepSpec,
};
