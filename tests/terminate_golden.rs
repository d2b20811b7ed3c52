//! Golden tests for the chase-termination hierarchy certificates:
//!
//! * each shipped non-weakly-acyclic fixture produces an exact, stable
//!   termination section (golden JSON) naming the weakest certifying
//!   criterion, which round-trips through `from_json` and independently
//!   re-verifies;
//! * `examples/divergent.pde` is rejected by every criterion and its
//!   all-fail trail is byte-stable too;
//! * tampering any witness field — criterion, trail verdicts, bounds,
//!   variable order, chase log counts — is caught by the independent
//!   checker, not trusted from the certificate.

use pde_analysis::{analyze_termination, TerminationCertificate, Verifiable};
use peer_data_exchange::core::Bundle;

fn bundle(name: &str) -> Bundle {
    let path = format!("{}/examples/{name}.pde", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap();
    Bundle::parse(&src).unwrap()
}

fn termination_of(b: &Bundle) -> TerminationCertificate {
    analyze_termination(&b.setting, b.input.active_domain().len())
}

#[test]
fn spiral_produces_the_golden_joint_acyclicity_certificate() {
    let b = bundle("spiral");
    let tc = termination_of(&b);
    let golden = concat!(
        "{\"v\":1,\"adom_size\":2,\"criterion\":\"joint-acyclicity\",",
        "\"trail\":[",
        "{\"criterion\":\"weak-acyclicity\",\"holds\":false},",
        "{\"criterion\":\"joint-acyclicity\",\"holds\":true}",
        "],",
        "\"value_bound\":18,\"fact_bound\":1620,\"step_bound\":1638,",
        "\"witness\":{\"kind\":\"variable-order\",\"max_depth\":0,",
        "\"order\":[{\"tgd\":2,\"var\":\"z\"}]}}"
    );
    assert_eq!(tc.to_json().to_string(), golden);
    tc.verify(&b.setting, &b.input).unwrap();
    let parsed = TerminationCertificate::from_json(&tc.to_json().to_string()).unwrap();
    assert_eq!(parsed, tc);
    parsed.verify(&b.setting, &b.input).unwrap();
}

#[test]
fn critical_only_produces_the_golden_critical_instance_certificate() {
    let b = bundle("critical_only");
    let tc = termination_of(&b);
    let golden = concat!(
        "{\"v\":1,\"adom_size\":1,\"criterion\":\"critical-instance\",",
        "\"trail\":[",
        "{\"criterion\":\"weak-acyclicity\",\"holds\":false},",
        "{\"criterion\":\"joint-acyclicity\",\"holds\":false},",
        "{\"criterion\":\"super-weak-acyclicity\",\"holds\":false},",
        "{\"criterion\":\"critical-instance\",\"holds\":true}",
        "],",
        "\"value_bound\":10,\"fact_bound\":5,\"step_bound\":15,",
        "\"witness\":{\"kind\":\"critical-chase\",\"steps\":6,\"facts\":5,",
        "\"max_fact_width\":2,\"limit\":256}}"
    );
    assert_eq!(tc.to_json().to_string(), golden);
    tc.verify(&b.setting, &b.input).unwrap();
    let parsed = TerminationCertificate::from_json(&tc.to_json().to_string()).unwrap();
    assert_eq!(parsed, tc);
    parsed.verify(&b.setting, &b.input).unwrap();
}

#[test]
fn divergent_fails_every_criterion_with_a_stable_trail() {
    let b = bundle("divergent");
    let tc = termination_of(&b);
    let golden = concat!(
        "{\"v\":1,\"adom_size\":4,\"criterion\":null,",
        "\"trail\":[",
        "{\"criterion\":\"weak-acyclicity\",\"holds\":false},",
        "{\"criterion\":\"joint-acyclicity\",\"holds\":false},",
        "{\"criterion\":\"super-weak-acyclicity\",\"holds\":false},",
        "{\"criterion\":\"critical-instance\",\"holds\":false}",
        "],",
        "\"value_bound\":0,\"fact_bound\":0,\"step_bound\":0,",
        "\"witness\":{\"kind\":\"none\"}}"
    );
    assert_eq!(tc.to_json().to_string(), golden);
    assert!(!tc.certified());
    // The all-fail verdict must re-verify too: an uncertified section is a
    // faithful record, not an error.
    tc.verify(&b.setting, &b.input).unwrap();
    let parsed = TerminationCertificate::from_json(&tc.to_json().to_string()).unwrap();
    assert_eq!(parsed, tc);
}

#[test]
fn verify_termination_rejects_tampered_spiral_certificates() {
    let b = bundle("spiral");
    let json = termination_of(&b).to_json().to_string();
    // Each tampering flips one recorded field of the certificate; every
    // one must be caught by independent replay.
    let tamperings = [
        // Claim a stronger criterion than the hierarchy derives.
        (
            "\"criterion\":\"joint-acyclicity\"",
            "\"criterion\":\"weak-acyclicity\"",
        ),
        // Flip a trail verdict.
        (
            "{\"criterion\":\"weak-acyclicity\",\"holds\":false}",
            "{\"criterion\":\"weak-acyclicity\",\"holds\":true}",
        ),
        // Shrink the derived bounds.
        ("\"value_bound\":18", "\"value_bound\":17"),
        ("\"fact_bound\":1620", "\"fact_bound\":1619"),
        ("\"step_bound\":1638", "\"step_bound\":1637"),
        // Point the variable-order witness at the wrong tgd.
        ("{\"tgd\":2,\"var\":\"z\"}", "{\"tgd\":1,\"var\":\"z\"}"),
        // Claim a deeper order than the dependency graph supports.
        ("\"max_depth\":0", "\"max_depth\":3"),
        // Claim the analysis saw a different active domain.
        ("\"adom_size\":2", "\"adom_size\":3"),
    ];
    for (from, to) in tamperings {
        let bad = json.replacen(from, to, 1);
        assert_ne!(bad, json, "tampering '{from}' must apply");
        let parsed = TerminationCertificate::from_json(&bad).unwrap();
        assert!(
            parsed.verify(&b.setting, &b.input).is_err(),
            "tampering '{from}' -> '{to}' must be rejected"
        );
    }
}

#[test]
fn verify_termination_rejects_tampered_critical_chase_witnesses() {
    let b = bundle("critical_only");
    let json = termination_of(&b).to_json().to_string();
    let tamperings = [
        // Claim the saturated chase was shorter or smaller than replayed.
        ("\"steps\":6", "\"steps\":5"),
        ("\"facts\":5", "\"facts\":4"),
        ("\"max_fact_width\":2", "\"max_fact_width\":1"),
        // Claim a different step-limit regime.
        ("\"limit\":256", "\"limit\":128"),
        // Claim an earlier criterion certified instead.
        (
            "{\"criterion\":\"super-weak-acyclicity\",\"holds\":false}",
            "{\"criterion\":\"super-weak-acyclicity\",\"holds\":true}",
        ),
        // Inflate the bound the governor would trust.
        ("\"fact_bound\":5", "\"fact_bound\":6"),
    ];
    for (from, to) in tamperings {
        let bad = json.replacen(from, to, 1);
        assert_ne!(bad, json, "tampering '{from}' must apply");
        let parsed = TerminationCertificate::from_json(&bad).unwrap();
        assert!(
            parsed.verify(&b.setting, &b.input).is_err(),
            "tampering '{from}' -> '{to}' must be rejected"
        );
    }
}

#[test]
fn certificates_do_not_verify_across_settings() {
    // A spiral certificate claims joint acyclicity; replaying it against
    // the divergent setting must fail at the first trail entry it gets
    // wrong, never silently transfer.
    let spiral = bundle("spiral");
    let divergent = bundle("divergent");
    let tc = termination_of(&spiral);
    assert!(tc.verify(&divergent.setting, &divergent.input).is_err());
}
