#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Enclave-abort hygiene (mirrors the teenet-analyze `enclave-abort`
// rule): non-test code in this crate must surface failures as
// `Result`, never abort. The rare infallible-by-construction sites
// carry a teenet-analyze waiver plus a site-level `#[allow]`.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable
    )
)]

//! # teenet-sgx
//!
//! A functional Intel SGX emulator with instruction/cycle cost accounting —
//! the stand-in for OpenSGX in this reproduction of *"A First Step Towards
//! Leveraging Commodity Trusted Execution Environments for Network
//! Applications"* (HotNets '15).
//!
//! The emulator models the SGX surface the paper relies on:
//!
//! * [`platform::Platform`] — a machine with a device key, an
//!   [`epc::Epc`] (Enclave Page Cache) and an attestation component: a
//!   [`quote::QuotingEnclave`] on SGX, a [`vmtee::SecurityProcessor`] on a
//!   VM TEE.
//! * [`enclave::EnclaveProgram`] — application logic loaded into an
//!   enclave; its [`measurement::Measurement`] (MRENCLAVE) is a SHA-256
//!   digest built through ECREATE/EADD/EEXTEND exactly as §2.1 describes.
//! * [`report`] / [`quote`] — EREPORT/EGETKEY-based local attestation and
//!   QUOTE generation by the quoting enclave, with an EPID-style group key
//!   ([`quote::EpidGroup`]).
//! * [`seal`] — sealed storage under MRENCLAVE/MRSIGNER policies.
//! * [`ocall`] — the untrusted host interface, with Iago-attack sanity
//!   checking as §6 prescribes.
//! * [`cost`] — the calibrated instruction/cycle model that regenerates the
//!   paper's tables (see that module's docs for calibration provenance).
//! * [`tee`] / [`vmtee`] — the multi-backend abstraction: the
//!   [`tee::TeePlatform`] trait every workload deploys against, whose one
//!   implementor is [`platform::Platform`]; a [`tee::TeeBackend`] picks its
//!   prices, EPC capacity and attestation component, and [`vmtee`] holds
//!   the TDX/SEV-SNP-style security processor and evidence.
//!
//! ## Threat model
//!
//! As in the paper (§2.1): all host software is untrusted and can only
//! deny service; enclave state is invisible and tamper-proof. In the
//! emulator this holds *by construction* — host-side code holds no
//! references into enclave state and interacts only via
//! [`tee::TeePlatform::ecall`] / [`ocall::HostCalls`].

pub mod cost;
pub mod enclave;
pub mod epc;
pub mod error;
pub mod keys;
pub mod measurement;
pub mod ocall;
pub mod platform;
pub mod quote;
pub mod report;
pub mod seal;
pub mod switchless;
pub mod tee;
pub mod vmtee;
pub mod wire;

pub use cost::{CostModel, Counters};
pub use enclave::{EnclaveCtx, EnclaveId, EnclaveProgram};
pub use error::{Result, SgxError};
pub use measurement::{measure_image, Measurement, Sigstruct};
pub use ocall::{HostCalls, NullHost};
pub use platform::Platform;
pub use quote::{EpidGroup, Quote, QuotingEnclave};
pub use report::{Report, ReportBody, TargetInfo};
pub use switchless::{SwitchlessConfig, TransitionMode, TransitionStats, WorkerScaling};
pub use tee::{deploy_platform, Evidence, TeeBackend, TeePlatform};
pub use vmtee::VmEvidence;
