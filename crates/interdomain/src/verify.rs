//! The in-enclave verification module (§3.1, "Policy verification").
//!
//! Two ASes with a business agreement both submit the *same* predicate;
//! only when both sides have submitted does the module evaluate it against
//! the routing outcome, and only the Boolean verdict leaves the enclave.
//! The module "ensures that only the predicates agreed upon by the two
//! ASes are verified" and that a predicate "examines only the minimal
//! condition required to verify the agreement": every AS whose routing
//! state the predicate inspects must be one of the two parties.

use std::collections::{HashMap, HashSet};

use crate::compute::RoutingOutcome;
use crate::predicate::Predicate;
use crate::topology::AsId;

/// Why a verification submission was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyError {
    /// The predicate inspects an AS that is not one of the two parties —
    /// it would leak third-party information.
    ScopeViolation,
    /// The submitting AS is not one of the named parties.
    NotAParty,
    /// No routing outcome has been computed yet.
    NoOutcome,
}

/// Outcome of a submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyStatus {
    /// Recorded; waiting for the counterparty to submit the same predicate.
    AwaitingCounterparty,
    /// Both parties submitted: here is the verdict.
    Verified(bool),
}

/// Pending and completed verification agreements.
#[derive(Debug, Default)]
pub struct VerificationModule {
    /// (canonical predicate bytes, unordered party pair) → who submitted.
    pending: HashMap<(Vec<u8>, AsId, AsId), HashSet<AsId>>,
    /// Completed verdicts (idempotent re-query).
    completed: HashMap<(Vec<u8>, AsId, AsId), bool>,
}

fn pair_key(a: AsId, b: AsId) -> (AsId, AsId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl VerificationModule {
    /// An empty module.
    pub fn new() -> Self {
        Self::default()
    }

    /// One party submits a predicate for the agreement between `submitter`
    /// and `counterparty`.
    pub fn submit(
        &mut self,
        submitter: AsId,
        party_a: AsId,
        party_b: AsId,
        predicate: &Predicate,
        outcome: Option<&RoutingOutcome>,
    ) -> Result<VerifyStatus, VerifyError> {
        if submitter != party_a && submitter != party_b {
            return Err(VerifyError::NotAParty);
        }
        // Minimality: the predicate may only inspect the two parties.
        for subject in predicate.subjects() {
            if subject != party_a && subject != party_b {
                return Err(VerifyError::ScopeViolation);
            }
        }
        let (a, b) = pair_key(party_a, party_b);
        let key = (predicate.to_bytes(), a, b);
        if let Some(&verdict) = self.completed.get(&key) {
            return Ok(VerifyStatus::Verified(verdict));
        }
        let submitted = self.pending.entry(key.clone()).or_default();
        submitted.insert(submitter);
        if submitted.contains(&a) && submitted.contains(&b) {
            let outcome = outcome.ok_or(VerifyError::NoOutcome)?;
            let verdict = predicate.eval(outcome);
            self.pending.remove(&key);
            self.completed.insert(key, verdict);
            Ok(VerifyStatus::Verified(verdict))
        } else {
            Ok(VerifyStatus::AwaitingCounterparty)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::{compute_routes, default_policies};
    use crate::topology::{EdgeKind, Topology};

    impl VerificationModule {
        /// Number of agreements awaiting a counterparty.
        fn pending_count(&self) -> usize {
            self.pending.len()
        }
    }

    fn outcome() -> RoutingOutcome {
        let t = Topology::from_edges(
            4,
            vec![
                (AsId(0), AsId(1), EdgeKind::Peering),
                (AsId(0), AsId(2), EdgeKind::TransitTo),
                (AsId(1), AsId(2), EdgeKind::TransitTo),
                (AsId(2), AsId(3), EdgeKind::TransitTo),
            ],
        );
        compute_routes(&t, &default_policies(&t))
    }

    fn promise() -> Predicate {
        Predicate::PrefersNeighbor {
            of: AsId(0),
            neighbor: AsId(2),
            dst: AsId(3),
        }
    }

    #[test]
    fn two_party_agreement_flow() {
        let out = outcome();
        let mut vm = VerificationModule::new();
        // AS2 (promisee) submits first: pending.
        let s = vm
            .submit(AsId(2), AsId(0), AsId(2), &promise(), Some(&out))
            .unwrap();
        assert_eq!(s, VerifyStatus::AwaitingCounterparty);
        assert_eq!(vm.pending_count(), 1);
        // AS0 (promise maker) agrees: verified.
        let s = vm
            .submit(AsId(0), AsId(0), AsId(2), &promise(), Some(&out))
            .unwrap();
        assert_eq!(s, VerifyStatus::Verified(true));
        assert_eq!(vm.pending_count(), 0);
        // Idempotent re-query by either party.
        let s = vm
            .submit(AsId(2), AsId(0), AsId(2), &promise(), Some(&out))
            .unwrap();
        assert_eq!(s, VerifyStatus::Verified(true));
    }

    #[test]
    fn third_party_scope_rejected() {
        // AS1 and AS2 trying to inspect AS0's selections would leak AS0's
        // private policy.
        let out = outcome();
        let mut vm = VerificationModule::new();
        let nosy = Predicate::NextHopIs {
            src: AsId(0),
            dst: AsId(3),
            next_hop: AsId(2),
        };
        let err = vm
            .submit(AsId(1), AsId(1), AsId(2), &nosy, Some(&out))
            .unwrap_err();
        assert_eq!(err, VerifyError::ScopeViolation);
    }

    #[test]
    fn non_party_cannot_submit() {
        let out = outcome();
        let mut vm = VerificationModule::new();
        let err = vm
            .submit(AsId(3), AsId(0), AsId(2), &promise(), Some(&out))
            .unwrap_err();
        assert_eq!(err, VerifyError::NotAParty);
    }

    #[test]
    fn differing_predicates_do_not_match() {
        let out = outcome();
        let mut vm = VerificationModule::new();
        vm.submit(AsId(0), AsId(0), AsId(2), &promise(), Some(&out))
            .unwrap();
        let other = Predicate::RouteExists {
            src: AsId(0),
            dst: AsId(2),
        };
        let s = vm
            .submit(AsId(2), AsId(0), AsId(2), &other, Some(&out))
            .unwrap();
        assert_eq!(
            s,
            VerifyStatus::AwaitingCounterparty,
            "a different predicate opens a new agreement"
        );
        assert_eq!(vm.pending_count(), 2);
    }

    #[test]
    fn broken_promise_detected() {
        // Build an outcome where AS0 does NOT pick AS2 for dst 3 (pref
        // override sabotages the promise).
        let t = Topology::from_edges(
            4,
            vec![
                (AsId(0), AsId(1), EdgeKind::Peering),
                (AsId(0), AsId(2), EdgeKind::TransitTo),
                (AsId(1), AsId(2), EdgeKind::TransitTo),
                (AsId(2), AsId(3), EdgeKind::TransitTo),
                // AS1 also sells transit to AS3 so AS0 has an alternative.
                (AsId(1), AsId(3), EdgeKind::TransitTo),
            ],
        );
        let mut p = default_policies(&t);
        // AS0 secretly downgrades customer 2 below peer 1.
        p.get_mut(&AsId(0))
            .unwrap()
            .pref_override
            .insert(AsId(2), 50);
        let out = compute_routes(&t, &p);
        let mut vm = VerificationModule::new();
        vm.submit(AsId(2), AsId(0), AsId(2), &promise(), Some(&out))
            .unwrap();
        let s = vm
            .submit(AsId(0), AsId(0), AsId(2), &promise(), Some(&out))
            .unwrap();
        assert_eq!(s, VerifyStatus::Verified(false), "promise broken");
    }

    #[test]
    fn no_outcome_yet() {
        let mut vm = VerificationModule::new();
        vm.submit(AsId(0), AsId(0), AsId(2), &promise(), None)
            .unwrap();
        let err = vm
            .submit(AsId(2), AsId(0), AsId(2), &promise(), None)
            .unwrap_err();
        assert_eq!(err, VerifyError::NoOutcome);
    }
}
