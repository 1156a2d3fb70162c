//! Repo-specific configuration: which files are enclave-resident, which
//! files carry cycle accounting, what counts as a secret, and what the
//! egress sinks are.
//!
//! The configuration is code, not a config file, for the same reason the
//! load reports hand-roll their JSON: the linter's output is part of the
//! CI contract, and a silently edited config file is exactly the kind of
//! unaudited change the waiver grammar exists to prevent. Changing the
//! trusted-file set means changing this module, in a reviewed diff.

/// Everything the rule engine needs to know about the tree it scans.
#[derive(Debug, Clone)]
pub struct AnalyzeConfig {
    /// Path prefixes (relative to the workspace root, `/`-separated) that
    /// are never scanned.
    pub excluded_prefixes: Vec<String>,
    /// Files (or directory prefixes) whose code runs inside an enclave —
    /// rules L1a/L1b apply here.
    pub enclave_resident: Vec<String>,
    /// Files that implement instruction/cycle accounting — rule L3
    /// (no floating point) applies here.
    pub accounting: Vec<String>,
    /// Files allowed to touch wall-clock/OS-entropy APIs — rule L4
    /// exempts these (the virtual clock itself).
    pub clock_exempt: Vec<String>,
    /// Identifiers that carry secret key material (rule L2 sources).
    pub secret_idents: Vec<String>,
    /// Function names whose arguments cross the enclave boundary
    /// (rule L2 sinks).
    pub egress_sinks: Vec<String>,
    /// Function names that are the *sanctioned* way for secrets to leave
    /// (the sealing API); sink calls inside their argument lists are
    /// still checked, but a secret flowing into these is fine.
    pub sanctioned_egress: Vec<String>,
    /// Wall-clock / ambient-entropy identifiers (rule L4).
    pub clock_idents: Vec<String>,
    /// Function names whose return value is an attestation verdict —
    /// discarding it is rule L5 (`attestation-unchecked`).
    pub attest_verify_idents: Vec<String>,
    /// Function names that recover sealed state — their results seed the
    /// rollback taint of rule L6 (`seal-rollback`).
    pub unseal_idents: Vec<String>,
    /// Field names that carry a sealed blob's monotonic counter; a
    /// projection of a tainted value through one of these into an
    /// ordered comparison is the rollback gate (rule L6).
    pub counter_fields: Vec<String>,
    /// Field names that carry unsealed key material; projecting a
    /// tainted value through one of these is a *use* (rule L6).
    pub key_fields: Vec<String>,
    /// Function names that consume a nonce/IV argument (seal/encrypt
    /// call sites for rule L7, `seal-nonce-reuse`).
    pub nonce_sinks: Vec<String>,
}

impl AnalyzeConfig {
    /// The workspace's configuration. File lists name the trusted
    /// protocol surface: `teenet-sgx` in full, each application's
    /// in-enclave modules, and the TLS record layer the middlebox runs
    /// inside its enclave. `teenet-crypto` is deliberately out of scope
    /// for L1: it is the primitive layer, its inputs are length-validated
    /// at the protocol layer above, and its internals (bignum limb loops)
    /// are covered by their own property tests. It is *not* constant-time
    /// — table indices, skipped windows and final subtractions depend on
    /// secrets (DESIGN.md "Exponentiation"); ROADMAP item 5 is the plan.
    pub fn repo() -> Self {
        AnalyzeConfig {
            excluded_prefixes: vec![
                s("target"),
                s(".git"),
                s("vendor"),
                // The linter's own known-bad test corpus.
                s("crates/analyze/tests/fixtures"),
            ],
            enclave_resident: vec![
                // The SGX emulator: trusted by definition.
                s("crates/sgx/src"),
                // The service layer: harness + calibration paths shared by
                // every workload; panics here would cross every app.
                s("crates/app/src"),
                // Attestation core: enclave-side protocol + channel.
                s("crates/core/src/attest.rs"),
                s("crates/core/src/responder.rs"),
                s("crates/core/src/mutual.rs"),
                s("crates/core/src/channel.rs"),
                s("crates/core/src/driver.rs"),
                s("crates/core/src/identity.rs"),
                // TLS runs inside the middlebox enclave.
                s("crates/tls/src"),
                // Middlebox enclave program + provisioning + DPI engine.
                s("crates/mbox/src/middlebox.rs"),
                s("crates/mbox/src/provision.rs"),
                s("crates/mbox/src/dpi.rs"),
                // Tor: the service enclave and the in-enclave cell path.
                s("crates/tor/src/deployment.rs"),
                s("crates/tor/src/relay.rs"),
                s("crates/tor/src/cell.rs"),
                s("crates/tor/src/circuit.rs"),
                s("crates/tor/src/crypto.rs"),
                // Interdomain: controller enclave + in-enclave verification.
                s("crates/interdomain/src/controller.rs"),
                s("crates/interdomain/src/verify.rs"),
                s("crates/interdomain/src/compute.rs"),
                s("crates/interdomain/src/predicate.rs"),
                s("crates/interdomain/src/wire.rs"),
                // Keystore: coordinator + fleet-worker enclave programs
                // and their wire records.
                s("crates/keystore/src/coordinator.rs"),
                s("crates/keystore/src/worker.rs"),
                s("crates/keystore/src/record.rs"),
            ],
            accounting: vec![
                s("crates/sgx/src/cost.rs"),
                s("crates/sgx/src/switchless.rs"),
                // The platform, the backend abstraction and the VM-TEE
                // profile charge counters directly (ecall pairs, page
                // acceptance, PSP attestation) — accounting code, same as
                // cost.rs.
                s("crates/sgx/src/platform.rs"),
                s("crates/sgx/src/tee.rs"),
                s("crates/sgx/src/vmtee.rs"),
                s("crates/load/src/metrics.rs"),
            ],
            clock_exempt: vec![
                // The virtual clock is the one sanctioned time source; if
                // a wall-clock adapter is ever added, it goes here.
                s("crates/netsim/src/time.rs"),
            ],
            secret_idents: vec![
                s("device_key"),
                s("seal_key"),
                s("report_key"),
                s("attestation_key"),
                s("launch_key"),
                s("provisioning_key"),
                s("shared_secret"),
                s("dh_secret"),
                s("enc_key"),
                s("mac_key"),
            ],
            egress_sinks: vec![s("ocall"), s("send_packets")],
            sanctioned_egress: vec![s("seal"), s("egetkey"), s("derive_key")],
            clock_idents: vec![
                s("SystemTime"),
                s("Instant"),
                s("thread_rng"),
                s("from_entropy"),
                s("OsRng"),
                s("getrandom"),
            ],
            attest_verify_idents: vec![
                // `Challenger::verify` / `Quote::verify` /
                // `SoftwareCertificate::verify` / `Signature::verify` —
                // every `verify` in this tree returns a verdict.
                s("verify"),
                // The host-side one-shot attestation driver.
                s("attest_enclave"),
                // The symmetric enclave-to-enclave handshake.
                s("mutual_attest"),
            ],
            unseal_idents: vec![s("unseal")],
            counter_fields: vec![s("counter"), s("epoch")],
            key_fields: vec![s("key"), s("material"), s("key_material"), s("secret")],
            nonce_sinks: vec![
                // The sealing primitive itself (`EnclaveCtx::seal`
                // derives its nonce internally; only call sites that
                // pass an explicit nonce argument are keyed).
                s("seal"),
                // The raw CTR-mode primitives.
                s("ctr_apply"),
                s("apply"),
            ],
        }
    }

    /// True when `rel_path` (workspace-relative, `/`-separated) is
    /// excluded from scanning entirely.
    pub fn is_excluded(&self, rel_path: &str) -> bool {
        has_prefix(&self.excluded_prefixes, rel_path)
    }

    /// True when rules L1a/L1b apply to `rel_path`.
    pub fn is_enclave_resident(&self, rel_path: &str) -> bool {
        has_prefix(&self.enclave_resident, rel_path)
    }

    /// True when rule L3 applies to `rel_path`.
    pub fn is_accounting(&self, rel_path: &str) -> bool {
        has_prefix(&self.accounting, rel_path)
    }

    /// True when rule L4 is suspended for `rel_path`.
    pub fn is_clock_exempt(&self, rel_path: &str) -> bool {
        has_prefix(&self.clock_exempt, rel_path)
    }
}

fn s(x: &str) -> String {
    x.to_owned()
}

/// Prefix match on `/`-separated path components (so `crates/sgx/src`
/// matches `crates/sgx/src/seal.rs` but not `crates/sgx/srcfoo.rs`).
fn has_prefix(prefixes: &[String], rel_path: &str) -> bool {
    prefixes.iter().any(|p| {
        rel_path == p
            || (rel_path.len() > p.len()
                && rel_path.starts_with(p.as_str())
                && rel_path.as_bytes()[p.len()] == b'/')
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_matching_is_component_wise() {
        let c = AnalyzeConfig::repo();
        assert!(c.is_enclave_resident("crates/sgx/src/seal.rs"));
        assert!(c.is_enclave_resident("crates/sgx/src/tee.rs"));
        assert!(c.is_enclave_resident("crates/sgx/src/vmtee.rs"));
        assert!(c.is_enclave_resident("crates/sgx/src"));
        assert!(c.is_enclave_resident("crates/app/src/harness.rs"));
        assert!(!c.is_enclave_resident("crates/app/Cargo.toml"));
        assert!(!c.is_enclave_resident("crates/sgx/srcfoo.rs"));
        assert!(!c.is_enclave_resident("crates/netsim/src/sim.rs"));
        // The keystore's enclave programs are in; its host-side service
        // driver is not.
        assert!(c.is_enclave_resident("crates/keystore/src/worker.rs"));
        assert!(c.is_enclave_resident("crates/keystore/src/coordinator.rs"));
        assert!(!c.is_enclave_resident("crates/keystore/src/service.rs"));
        assert!(c.is_excluded("vendor/bytes/src/lib.rs"));
        assert!(c.is_excluded("crates/analyze/tests/fixtures/abort_bad.rs"));
        assert!(!c.is_excluded("crates/analyze/src/lib.rs"));
    }

    #[test]
    fn accounting_and_clock_sets() {
        let c = AnalyzeConfig::repo();
        assert!(c.is_accounting("crates/sgx/src/cost.rs"));
        assert!(c.is_accounting("crates/sgx/src/platform.rs"));
        assert!(c.is_accounting("crates/sgx/src/tee.rs"));
        assert!(c.is_accounting("crates/sgx/src/vmtee.rs"));
        assert!(!c.is_accounting("crates/sgx/src/seal.rs"));
        assert!(c.is_clock_exempt("crates/netsim/src/time.rs"));
        assert!(!c.is_clock_exempt("crates/bench/src/bin/loadgen.rs"));
        assert!(!c.is_clock_exempt("crates/netsim/src/sim.rs"));
        assert!(!c.is_clock_exempt("crates/load/src/shard.rs"));
    }
}
