#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # teenet
//!
//! The core library of the reproduction of *"A First Step Towards
//! Leveraging Commodity Trusted Execution Environments for Network
//! Applications"* (HotNets '15): remote attestation with secure-channel
//! bootstrap, identity policies and software certificates, and the
//! attestation accounting behind the paper's Table 3.
//!
//! ## The attestation flow (paper Figure 1)
//!
//! A [`attest::Challenger`] issues an [`attest::AttestRequest`] carrying a
//! nonce and (optionally) a Diffie–Hellman share. Inside the target
//! enclave, [`attest::TargetAttestor::begin`] generates the target share,
//! binds both shares and the nonce into the EREPORT data, and emits a
//! REPORT; the host ferries it to the platform's quoting enclave, which
//! signs a QUOTE under the EPID-style group key.
//! [`attest::TargetAttestor::finish`] assembles the
//! [`attest::AttestResponse`] and derives the target's
//! [`channel::SecureChannel`]; [`attest::Challenger::verify`] checks the
//! quote signature, the [`identity::IdentityPolicy`], and the session
//! binding, then derives the matching channel end.
//!
//! The substrates live in sibling crates: `teenet-sgx` (the SGX emulator
//! with the calibrated cost model), `teenet-netsim` (deterministic network
//! simulation), `teenet-tls` (the record protocol for the middlebox case
//! study). The case studies — SDN inter-domain routing, Tor, middleboxes —
//! are `teenet-interdomain`, `teenet-tor` and `teenet-mbox`.

pub mod attest;
pub mod channel;
pub mod driver;
pub mod error;
pub mod fmt;
pub mod identity;
pub mod mutual;
pub mod responder;

pub use teenet_app::ledger;

pub use attest::{
    AttestConfig, AttestOutcome, AttestRequest, AttestResponse, Challenger, TargetAttestor,
};
pub use channel::SecureChannel;
pub use driver::{AttestService, WorkProfile, WorkStep};
pub use error::{Result, TeenetError};
pub use identity::{IdentityPolicy, SoftwareCertificate};
pub use ledger::{AttestKind, AttestLedger};
pub use mutual::{mutual_attest, MutualOutcome, Party};
pub use responder::{attest_enclave, AttestResponder, SessionNonce};
