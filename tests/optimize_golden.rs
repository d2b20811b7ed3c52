//! Golden tests for the semantics-preserving dependency rewriter:
//!
//! * the shipped example bundles and the paper workloads are already
//!   irredundant — the optimizer must return them unchanged (in
//!   particular, the *repaired* Theorem 3 clique reduction must survive
//!   with its added consistency tgd intact, not be "simplified" back to
//!   the paper's too-weak literal form);
//! * a deliberately padded setting produces an exact, stable certificate
//!   (golden JSON), which round-trips through `from_json` and is rejected
//!   by its checker as soon as any recorded fact is tampered with.

use pde_analysis::{forward_schedule, optimize_setting, CertificateError, RewriteCertificate};
use peer_data_exchange::core::Bundle;
use peer_data_exchange::prelude::*;
use peer_data_exchange::workloads::{boundary, clique, genomics, graphs};

fn assert_unchanged(name: &str, setting: &PdeSetting, input: &Instance) {
    let opt = optimize_setting(setting, input);
    assert!(
        opt.certificate.actions.is_empty(),
        "{name}: expected no rewrite actions, got {:?}",
        opt.certificate.actions
    );
    assert_eq!(
        opt.certificate.before, opt.certificate.after,
        "{name}: counts must not change"
    );
    assert_eq!(
        opt.optimized.sigma_st(),
        setting.sigma_st(),
        "{name}: Σst must survive verbatim"
    );
    assert_eq!(
        opt.optimized.sigma_ts(),
        setting.sigma_ts(),
        "{name}: Σts must survive verbatim"
    );
    assert_eq!(
        opt.optimized.sigma_t(),
        setting.sigma_t(),
        "{name}: Σt must survive verbatim"
    );
    opt.certificate
        .verify(setting, input)
        .unwrap_or_else(|e| panic!("{name}: certificate re-verification failed: {e:?}"));
    let n = pde_analysis::forward_dependencies(setting).len();
    assert!(
        forward_schedule(&opt.optimized).is_partition_of(n),
        "{name}: schedule must partition the forward dependencies"
    );
}

#[test]
fn example_bundles_rewrite_to_themselves() {
    for name in ["triangle", "divergent"] {
        let path = format!("{}/examples/{name}.pde", env!("CARGO_MANIFEST_DIR"));
        let src = std::fs::read_to_string(&path).unwrap();
        let bundle = Bundle::parse(&src).unwrap();
        assert_unchanged(name, &bundle.setting, &bundle.input);
    }
}

#[test]
fn repaired_clique_reduction_survives_unweakened() {
    // The corrected Theorem 3 setting carries a third Σts consistency tgd
    // the paper omits; it is neither a duplicate nor subsumed by the other
    // two, and the optimizer must keep it — weakening it would silently
    // reintroduce the paper's incomplete reduction.
    let p = clique::clique_setting();
    let g = graphs::Graph::complete(4);
    let input = clique::clique_instance(&p, &g, 3);
    assert_unchanged("clique", &p, &input);
    assert_eq!(
        p.sigma_ts().len(),
        3,
        "the repaired reduction has 3 Σts tgds"
    );
}

#[test]
fn boundary_and_genomics_workloads_survive_unweakened() {
    let p = boundary::egd_boundary_setting();
    let input = boundary::egd_boundary_instance(&p, &graphs::Graph::cycle(5), 3);
    assert_unchanged("egd-boundary", &p, &input);

    let p = genomics::genomics_setting();
    let params = genomics::GenomicsParams {
        proteins: 8,
        preloaded: 2,
        ..Default::default()
    };
    let input = genomics::genomics_instance(&p, &params);
    assert_unchanged("genomics", &p, &input);
}

/// A setting padded with every kind of redundancy the rewriter removes:
/// an alpha-renamed duplicate, a subsumed tgd, a trivial egd, and a
/// target tgd reading a relation no chase can populate.
fn padded() -> (PdeSetting, Instance) {
    let setting = PdeSetting::parse(
        "source E/2; target G/2; target H/2; target K/2;",
        "E(x, y) -> H(x, y);
         E(u, v) -> H(u, v);
         E(x, y), E(y, z) -> H(x, y)",
        "H(x, y) -> E(x, y)",
        "H(x, y) -> x = x;
         G(x, y) -> K(x, y)",
    )
    .unwrap();
    let input = parse_instance(setting.schema(), "E(a, b). E(b, c).").unwrap();
    (setting, input)
}

#[test]
fn padded_setting_produces_the_golden_certificate() {
    let (setting, input) = padded();
    let opt = optimize_setting(&setting, &input);
    // Σst keeps only the first copy: #1 is an alpha-renamed duplicate of
    // #0, #2 is subsumed by #0. Σt loses the trivial egd and the dead
    // G-reader; G is empty in the input and no surviving tgd concludes it.
    let golden = concat!(
        "{\"v\":1,\"kind\":\"pde-rewrite-certificate\",",
        "\"input_nonempty\":[\"E\"],\"dead_relations\":[\"G\",\"K\"],",
        "\"before\":{\"sigma_st\":3,\"sigma_ts\":1,\"sigma_t\":2},",
        "\"after\":{\"sigma_st\":1,\"sigma_ts\":1,\"sigma_t\":0},",
        "\"actions\":[",
        "{\"action\":\"remove-duplicate\",\"group\":\"sigma_st\",\"index\":1,\"kept\":0},",
        "{\"action\":\"remove-subsumed\",\"group\":\"sigma_st\",\"index\":2,\"by\":0},",
        "{\"action\":\"remove-trivial-egd\",\"group\":\"sigma_t\",\"index\":0},",
        "{\"action\":\"remove-dead\",\"group\":\"sigma_t\",\"index\":1,\"relation\":\"G\"}",
        "]}"
    );
    assert_eq!(opt.certificate.to_json().to_string(), golden);
    opt.certificate.verify(&setting, &input).unwrap();

    // Round-trip through the serialized form.
    let parsed = RewriteCertificate::from_json(&opt.certificate.to_json().to_string()).unwrap();
    assert_eq!(parsed, opt.certificate);
    parsed.verify(&setting, &input).unwrap();
}

#[test]
fn verify_rewrite_rejects_tampered_certificates() {
    let (setting, input) = padded();
    let cert = optimize_setting(&setting, &input).certificate;
    let json = cert.to_json().to_string();
    // Each tampering flips one recorded fact; all must be caught by the
    // independent checker, not trusted from the certificate.
    let tamperings = [
        // Claim a different original shape.
        ("\"before\":{\"sigma_st\":3", "\"before\":{\"sigma_st\":4"),
        // Claim the subsumed tgd was justified by a different survivor.
        ("\"by\":0", "\"by\":1"),
        // Drop a dead relation the actions still rely on.
        (
            "\"dead_relations\":[\"G\",\"K\"]",
            "\"dead_relations\":[\"K\"]",
        ),
        // Pretend the populatability seed was different.
        (
            "\"input_nonempty\":[\"E\"]",
            "\"input_nonempty\":[\"E\",\"G\"]",
        ),
        // Remove one action but keep the counts.
        (
            "{\"action\":\"remove-trivial-egd\",\"group\":\"sigma_t\",\"index\":0},",
            "",
        ),
    ];
    for (from, to) in tamperings {
        let bad = json.replacen(from, to, 1);
        assert_ne!(bad, json, "tampering '{from}' must apply");
        let parsed = RewriteCertificate::from_json(&bad).unwrap();
        assert!(
            parsed.verify(&setting, &input).is_err(),
            "tampering '{from}' -> '{to}' must be rejected"
        );
    }
    // A certificate for one input must not verify against another whose
    // nonempty relations differ.
    let other = parse_instance(setting.schema(), "E(a, b). G(a, b).").unwrap();
    assert!(matches!(
        cert.verify(&setting, &other),
        Err(CertificateError::Rewrite(_))
    ));
}
