#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # teenet-keystore
//!
//! The fifth paper workload: an attested coordinator/worker keystore.
//! A coordinator enclave holds a master secret and dispatches signed
//! jobs to a fleet of worker enclaves sharing one platform — the
//! many-enclaves-per-platform topology fleet deployments actually run.
//! Key release is gated on remote attestation (measurement policy +
//! freshness nonce), and sealed key blobs carry a monotonic epoch
//! counter so stale re-provision (sealed-state rollback) is rejected
//! inside the worker.
//!
//! The protocol per worker:
//!
//! 1. **Attest** — the coordinator runs the paper's Figure-1 challenge
//!    in-enclave against the worker's measurement; failure is a domain
//!    error, never silent.
//! 2. **Provision** — the coordinator bumps the worker's epoch and
//!    seals a [`record::ProvisionRecord`] into the attested channel;
//!    the worker checks freshness, re-seals the slot under its own
//!    MRENCLAVE key, and activates it only if the counter advanced.
//! 3. **Release** — signed [`record::Job`]s execute under the active
//!    epoch key; jobs against revoked epochs are rejected.
//! 4. **Revoke** — a forced rotation to a fresh epoch, followed by a
//!    rollback probe replaying the superseded blob (which must fail).
//!
//! [`KeystoreService`] drives all of this through the
//! [`teenet_app::AppHarness`] lifecycle so the workload calibrates,
//! replays, shards and reports like the other four.

pub mod coordinator;
pub mod error;
pub mod record;
pub mod service;
pub mod worker;

pub use coordinator::CoordinatorEnclave;
pub use error::{KeystoreError, Result};
pub use record::{Job, ProvisionRecord, SealedSlot};
pub use service::KeystoreService;
pub use worker::WorkerEnclave;
