#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # teenet-tls
//!
//! A minimal TLS-like protocol — handshake plus record layer — used by the
//! middlebox case study of the HotNets '15 TEE-networking reproduction and
//! as the generic secure transport inside the workspace.
//!
//! * [`handshake`](mod@handshake) — ephemeral-DH handshake with transcript-bound Finished
//!   MACs (endpoint identity comes from SGX attestation, not certificates).
//! * [`record`] — encrypt-then-MAC record protection with per-direction
//!   keys and sequence numbers.
//! * [`session`] — established sessions with **exportable keys**, the hook
//!   the paper's §3.3 middlebox design needs: an endpoint releases
//!   [`session::SessionKeys`] to an attested middlebox over the secure
//!   channel bootstrapped during remote attestation.
//! * [`suite`] — AES-128-CTR (the paper's cipher) and ChaCha20 suites.

pub mod error;
pub mod handshake;
pub mod record;
pub mod session;
pub mod suite;

pub use error::{Result, TlsError};
pub use handshake::{handshake, TlsClient, TlsConfig, TlsServer};
pub use record::{DirectionKeys, RecordProtection};
pub use session::{Role, SessionKeys, TlsSession};
pub use suite::CipherSuite;
