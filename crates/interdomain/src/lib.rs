#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # teenet-interdomain
//!
//! SGX-enabled software-defined inter-domain routing — the first case
//! study (§3.1) of the HotNets '15 TEE-networking paper and its entire
//! evaluation workload (Tables 3–4, Figures 2–3).
//!
//! * [`topology`] — AS graphs with customer/provider/peer relationships
//!   and the random three-tier generator the evaluation uses.
//! * [`policy`] — private per-AS policies: local preference (with
//!   promise-style overrides) and Gao–Rexford export rules.
//! * [`compute`] — the centralized BGP path computation the inter-domain
//!   controller runs inside its enclave, with work-unit accounting.
//! * [`refbgp`] — an independent *distributed* BGP simulator used as a
//!   differential oracle (the paper validated against GNS3).
//! * [`predicate`] / [`verify`] — the two-party policy-verification
//!   module (SPIDeR-style promises checked inside the enclave).
//! * [`controller`] — the inter-domain and AS-local controller enclave
//!   programs; [`deployment`] — the full multi-platform deployment driver
//!   plus the native baseline.

pub mod compute;
pub mod controller;
pub mod cost;
pub mod deployment;
pub mod driver;
pub mod policy;
pub mod predicate;
pub mod refbgp;
pub mod route;
pub mod topology;
pub mod verify;
pub mod wire;

pub use compute::{compute_routes, default_policies, RoutingOutcome};
pub use controller::{AsLocalController, InterdomainController};
pub use deployment::{run_native, NativeReport, SdnDeployment, SdnReport};
pub use driver::BgpService;
pub use policy::LocalPolicy;
pub use predicate::Predicate;
pub use route::Route;
pub use topology::{AsId, EdgeKind, Relationship, Topology};
pub use verify::{VerificationModule, VerifyError, VerifyStatus};
