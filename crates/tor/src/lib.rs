#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # teenet-tor
//!
//! An onion-routing network simulator for the paper's second case study
//! (§3.2): how SGX strengthens Tor across incremental deployment phases.
//!
//! * [`cell`] / [`crypto`] — 512-byte cells, layered AES-CTR onion
//!   encryption, relay digests.
//! * [`relay`] — onion routers (honest and malicious variants) with full
//!   circuit switching and exit streams.
//! * [`circuit`] — the client: telescoping circuit construction over DH,
//!   leaky-pipe backward recognition, streams.
//! * [`network`] — the pump wiring relays/clients/servers over
//!   `teenet-netsim`.
//! * [`directory`] — directory authorities, votes and majority consensus.
//! * [`dht`] — a Chord ring for directory-less membership in the fully
//!   SGX-enabled design.
//! * [`deployment`] — the paper's three deployment phases plus vanilla
//!   Tor, with SGX admission and circuit-time attestation.
//! * [`attacks`] — the attacks of §3.2 (bad apple, directory compromise)
//!   evaluated under each phase.

pub mod attacks;
pub mod cell;
pub mod circuit;
pub mod crypto;
pub mod deployment;
pub mod dht;
pub mod directory;
pub mod driver;
pub mod error;
pub mod network;
pub mod relay;

pub use cell::{Cell, CellCmd, RelayCmd, RelayPayload};
pub use circuit::{ClientEvent, TorClient};
pub use deployment::{Phase, TorDeployment, TorSpec};
pub use directory::{AuthorityBehavior, Consensus, DirectoryAuthority, RouterDescriptor};
pub use driver::TorService;
pub use error::{Result, TorError};
pub use network::{EchoServer, TorNetwork};
pub use relay::{OnionRouter, RelayBehavior};
