#![warn(missing_docs)]
#![deny(unsafe_code)]

//! # teenet-crypto
//!
//! From-scratch cryptographic substrate for the `teenet` workspace, the Rust
//! reproduction of *"A First Step Towards Leveraging Commodity Trusted
//! Execution Environments for Network Applications"* (HotNets '15).
//!
//! The paper's OpenSGX prototype used polarssl with 1024-bit Diffie–Hellman,
//! AES-128 in ECB mode, and SHA-256. This crate provides the same primitives
//! (plus a few the rest of the workspace needs), implemented from first
//! principles with no external dependencies:
//!
//! * [`bignum::BigUint`] — arbitrary-precision unsigned integers with modular
//!   exponentiation (the workhorse of DH and Schnorr).
//! * [`dh`] — finite-field Diffie–Hellman over the 1024-bit Oakley Group 2
//!   prime (the parameter size the paper's evaluation uses).
//! * [`sha256`], [`hmac`], [`hkdf`] — hashing, authentication and key
//!   derivation.
//! * [`aes`] — AES-128 block cipher with ECB and CTR modes.
//! * [`chacha20`] — stream cipher, also backing the deterministic CSPRNG.
//! * [`schnorr`] — Schnorr signatures over a Schnorr group; stands in for the
//!   EPID group signature used by the SGX quoting enclave (the paper itself
//!   abstracts EPID as "the private key of the CPU", fn. 2).
//! * [`rng::SecureRng`] — a seedable ChaCha20-based CSPRNG so that every
//!   experiment in the workspace is deterministic and reproducible.
//! * [`hostile`] — damaged copies of valid encodings, for decoder tests.
//!
//! ## Security disclaimer
//!
//! These implementations favour clarity and determinism for a research
//! simulator. They are **not** hardened against side channels beyond basic
//! constant-time tag comparison and must not be used to protect real data.

pub mod aes;
pub mod bignum;
pub mod chacha20;
pub mod ct;
pub mod dh;
pub mod error;
pub mod hkdf;
pub mod hmac;
pub mod hostile;
pub mod rng;
pub mod schnorr;
pub mod sha256;

pub use bignum::BigUint;
pub use error::CryptoError;
pub use rng::SecureRng;

/// Convenience alias used throughout the crate.
pub type Result<T> = core::result::Result<T, CryptoError>;
