//! The §3.2 attacks, evaluated under every deployment phase.
//!
//! Each scenario builds a deployment, mounts the attack, and reports
//! whether it succeeded — producing the phase-by-phase defense matrix the
//! paper argues for: vanilla Tor falls to both attacks, the SGX directory
//! stops directory subversion, SGX ORs stop the bad apple, and the fully
//! SGX-enabled design stops everything.

use crate::deployment::{Phase, TorDeployment, TorSpec, PHANTOM_RELAY};
use crate::error::Result;

/// Outcome of one attack scenario.
#[derive(Debug, Clone)]
pub struct AttackOutcome {
    /// Attack name.
    pub attack: &'static str,
    /// Phase it ran under.
    pub phase: Phase,
    /// Did the attacker get what they wanted?
    pub succeeded: bool,
    /// Human-readable evidence.
    pub detail: String,
}

/// The "one bad apple" attack: a malicious exit records the plaintext of
/// streams it carries. Succeeds iff the attacker's relay observed the
/// client's secret.
pub fn bad_apple(phase: Phase, seed: u64) -> Result<AttackOutcome> {
    let mut spec = TorSpec::fast(phase, seed);
    spec.bad_apples = vec![0]; // relay 0 is an exit
    let mut dep = TorDeployment::build(spec)?;
    let admission = dep.run_admission()?;

    let secret = b"secret: patient record #42".to_vec();
    // The attacker hopes the client picks their exit; model the unlucky
    // draw directly when the relay was admitted.
    let attack_path = dep.select_path(&admission, Some(0));
    match attack_path {
        Ok(path) => {
            dep.exchange(path, &secret)?;
            let observed = dep.network.relays[0]
                .observed_plaintext
                .iter()
                .any(|p| p == &secret);
            Ok(AttackOutcome {
                attack: "bad-apple exit sniffing",
                phase,
                succeeded: observed,
                detail: format!(
                    "malicious exit admitted; observed {} plaintext record(s)",
                    dep.network.relays[0].observed_plaintext.len()
                ),
            })
        }
        Err(_) => Ok(AttackOutcome {
            attack: "bad-apple exit sniffing",
            phase,
            succeeded: false,
            detail: "malicious exit excluded during admission/attestation".to_owned(),
        }),
    }
}

/// Directory subversion: a majority of authorities is compromised and
/// tries to drop an honest relay and admit a phantom attacker relay
/// ("If directory authorities are subverted, attackers can admit malicious
/// ORs or disable the Tor network").
pub fn directory_subversion(phase: Phase, seed: u64) -> Result<AttackOutcome> {
    let mut spec = TorSpec::fast(phase, seed);
    spec.compromised_authorities = vec![0, 1]; // 2 of 3: a majority
    let mut dep = TorDeployment::build(spec)?;
    let admission = dep.run_admission()?;

    let honest_dropped = !admission.admitted.iter().any(|d| d.relay_id == 1);
    let phantom_admitted = admission
        .admitted
        .iter()
        .any(|d| d.relay_id == PHANTOM_RELAY);
    let succeeded = honest_dropped || phantom_admitted;
    Ok(AttackOutcome {
        attack: "directory subversion (tie-breaking / bad admission)",
        phase,
        succeeded,
        detail: format!(
            "honest relay dropped: {honest_dropped}, phantom admitted: {phantom_admitted}"
        ),
    })
}

/// Runs the full attack × phase matrix (the qualitative "result" of §3.2).
pub fn defense_matrix(seed: u64) -> Result<Vec<AttackOutcome>> {
    let mut out = Vec::new();
    for phase in [
        Phase::Vanilla,
        Phase::SgxDirectory,
        Phase::IncrementalOrs,
        Phase::FullSgx,
    ] {
        out.push(bad_apple(phase, seed)?);
        if phase != Phase::FullSgx {
            out.push(directory_subversion(phase, seed + 1)?);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bad_apple_succeeds_on_vanilla() {
        let o = bad_apple(Phase::Vanilla, 11).unwrap();
        assert!(o.succeeded, "{}", o.detail);
    }

    #[test]
    fn bad_apple_survives_sgx_directory() {
        // Securing only the directory does NOT stop a malicious exit.
        let o = bad_apple(Phase::SgxDirectory, 12).unwrap();
        assert!(o.succeeded, "{}", o.detail);
    }

    #[test]
    fn bad_apple_stopped_by_incremental_ors() {
        let o = bad_apple(Phase::IncrementalOrs, 13).unwrap();
        assert!(!o.succeeded, "{}", o.detail);
    }

    #[test]
    fn bad_apple_stopped_by_full_sgx() {
        let o = bad_apple(Phase::FullSgx, 14).unwrap();
        assert!(!o.succeeded, "{}", o.detail);
    }

    #[test]
    fn directory_subversion_succeeds_on_vanilla() {
        let o = directory_subversion(Phase::Vanilla, 15).unwrap();
        assert!(o.succeeded, "{}", o.detail);
    }

    #[test]
    fn directory_subversion_stopped_by_sgx_directory() {
        let o = directory_subversion(Phase::SgxDirectory, 16).unwrap();
        assert!(!o.succeeded, "{}", o.detail);
    }

    #[test]
    fn full_matrix_shape() {
        // The qualitative claim of §3.2 in one table: protection grows
        // monotonically with deployment.
        let matrix = defense_matrix(20).unwrap();
        let succeeded: Vec<bool> = matrix.iter().map(|o| o.succeeded).collect();
        // [bad-apple, dir] per phase; FullSgx has bad-apple only.
        assert_eq!(
            succeeded,
            vec![true, true, true, false, false, false, false]
        );
    }
}
