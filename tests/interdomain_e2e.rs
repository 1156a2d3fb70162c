//! Integration: the SDN inter-domain routing case study end to end —
//! deployment over SGX platforms, correctness of the in-enclave
//! computation against both the native run and the distributed oracle,
//! privacy of the verification module, and Table 4's overhead shape.

use teenet::attest::AttestConfig;
use teenet_crypto::SecureRng;
use teenet_interdomain::controller::verify_status;
use teenet_interdomain::refbgp::run_distributed_bgp;
use teenet_interdomain::{
    compute_routes, default_policies, run_native, AsId, Predicate, SdnDeployment, Topology,
};

fn topology(n: u32, seed: u64) -> Topology {
    Topology::random(n, &mut SecureRng::seed_from_u64(seed))
}

#[test]
fn full_figure2_flow_distributes_correct_routes() {
    let t = topology(12, 5);
    let policies = default_policies(&t);
    let reference = compute_routes(&t, &policies);

    let mut deployment = SdnDeployment::new(&t, &policies, AttestConfig::fast(), 9).unwrap();
    let report = deployment.run().unwrap();

    // Every AS got exactly the routes the reference computation selects.
    for (i, &count) in report.routes_installed.iter().enumerate() {
        let expected = reference.routes_of(AsId(i as u32)).len() as u32;
        assert_eq!(count, expected, "AS{i} route count");
    }
    assert_eq!(report.attestations, 12);
}

#[test]
fn three_way_agreement_native_enclave_distributed() {
    // The same topology through all three execution paths must agree.
    let t = topology(15, 6);
    let policies = default_policies(&t);
    let native = run_native(&t, &policies);
    let distributed = run_distributed_bgp(&t, &policies, 77);
    assert_eq!(native.outcome.best, distributed.best);

    let mut deployment = SdnDeployment::new(&t, &policies, AttestConfig::fast(), 10).unwrap();
    let report = deployment.run().unwrap();
    for (i, &count) in report.routes_installed.iter().enumerate() {
        assert_eq!(
            count as usize,
            native.outcome.routes_of(AsId(i as u32)).len()
        );
    }
}

#[test]
fn broken_promise_detected_through_the_enclave() {
    // A constructed topology where AS0 has a genuine alternative: AS0
    // peers with AS1; both sell transit to AS2; AS1 and AS2 both sell
    // transit to AS3. AS0 promises to prefer customer AS2's routes, but
    // secretly downgrades them below the peer default.
    use teenet_interdomain::EdgeKind;
    let t = Topology::from_edges(
        4,
        vec![
            (AsId(0), AsId(1), EdgeKind::Peering),
            (AsId(0), AsId(2), EdgeKind::TransitTo),
            (AsId(1), AsId(2), EdgeKind::TransitTo),
            (AsId(2), AsId(3), EdgeKind::TransitTo),
            (AsId(1), AsId(3), EdgeKind::TransitTo),
        ],
    );
    let promise = Predicate::PrefersNeighbor {
        of: AsId(0),
        neighbor: AsId(2),
        dst: AsId(3),
    };

    // Honest policies: promise kept.
    let honest = default_policies(&t);
    let mut deployment = SdnDeployment::new(&t, &honest, AttestConfig::fast(), 11).unwrap();
    deployment.run().unwrap();
    let s1 = deployment
        .verify_predicate(2, AsId(0), AsId(2), &promise)
        .unwrap();
    assert_eq!(s1, verify_status::PENDING);
    let s2 = deployment
        .verify_predicate(0, AsId(0), AsId(2), &promise)
        .unwrap();
    assert_eq!(s2, verify_status::TRUE, "honest AS0 keeps the promise");

    // Sabotaged policies: AS0 downgrades AS2 below the peer default.
    let mut cheating = default_policies(&t);
    cheating
        .get_mut(&AsId(0))
        .unwrap()
        .pref_override
        .insert(AsId(2), 50);
    let mut deployment = SdnDeployment::new(&t, &cheating, AttestConfig::fast(), 12).unwrap();
    deployment.run().unwrap();
    let s1 = deployment
        .verify_predicate(2, AsId(0), AsId(2), &promise)
        .unwrap();
    assert_eq!(s1, verify_status::PENDING);
    let s2 = deployment
        .verify_predicate(0, AsId(0), AsId(2), &promise)
        .unwrap();
    assert_eq!(s2, verify_status::FALSE, "the secret downgrade is exposed");
}

#[test]
fn verification_never_leaks_third_party_predicates() {
    let t = topology(8, 8);
    let policies = default_policies(&t);
    let mut deployment = SdnDeployment::new(&t, &policies, AttestConfig::fast(), 12).unwrap();
    deployment.run().unwrap();

    // AS1 and AS2 agree on a predicate that inspects AS5's routing.
    let nosy = Predicate::NextHopIs {
        src: AsId(5),
        dst: AsId(0),
        next_hop: AsId(1),
    };
    assert!(deployment
        .verify_predicate(1, AsId(1), AsId(2), &nosy)
        .is_err());
}

#[test]
fn table4_shape_holds_across_sizes() {
    // SGX overhead must stay within a sane band (the paper reports 82%)
    // and grow in absolute terms with topology size.
    let mut last_sgx = 0u64;
    for n in [10u32, 20, 30] {
        let t = topology(n, 2015);
        let policies = default_policies(&t);
        let native = run_native(&t, &policies);
        let mut deployment = SdnDeployment::new(&t, &policies, AttestConfig::fast(), 13).unwrap();
        let report = deployment.run().unwrap();
        let overhead =
            report.interdomain.normal_instr as f64 / native.interdomain.normal_instr as f64;
        assert!((1.5..2.6).contains(&overhead), "n={n}: overhead {overhead}");
        assert!(report.interdomain.normal_instr > last_sgx);
        last_sgx = report.interdomain.normal_instr;
    }
}

#[test]
fn deployment_is_deterministic() {
    let t = topology(10, 9);
    let policies = default_policies(&t);
    let run = |seed| {
        let mut d = SdnDeployment::new(&t, &policies, AttestConfig::fast(), seed).unwrap();
        let report = d.run().unwrap();
        (report, d.transition_stats().unwrap())
    };
    assert_eq!(run(42), run(42));
}
