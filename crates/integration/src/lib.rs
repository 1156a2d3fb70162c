//! Workspace-spanning integration tests.
//!
//! This crate exists to compile the integration suites in the repository's
//! top-level `tests/` directory (declared via `[[test]]` path entries in
//! `Cargo.toml`), exercising the public APIs of every `teenet-*` crate
//! together.

#![forbid(unsafe_code)]
