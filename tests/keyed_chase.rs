//! Exact counts of the data-exchange chase on keys-shaped bundles.
//!
//! On the §3 baseline route (Σts = ∅) the forward chase runs Σst ∪ Σt
//! with fresh nulls. These bundles mirror the `keys` workload: a protein
//! tgd and an annotation tgd fill `u_entry` with existentials that the
//! key egds of `u_entry` determine. Each test pins the whole run: the
//! outcome, the engine counters and the size of the result.
//!
//! A "yes" also carries the target part of the result the chase gave
//! before keyed witnesses (the plain chase minted a null for every
//! existential and let the key egds merge them). The keyed result must
//! be isomorphic to it: on these bundles keyed witnesses only apply the
//! key egds' merges early. `later_trigger_sees_the_merged_null` shows a
//! bundle where the two results are homomorphically equivalent but not
//! isomorphic.
//!
//! A tgd mints its existentials in variable order, and variables order
//! by interning id. So every test first parses every bundle here once, in
//! one fixed order ([`intern_in_fixed_order`]); the null ids then do not
//! depend on which test thread interned a name first.

use peer_data_exchange::chase::{
    chase_governed_scheduled, chase_governed_with, null_gen_for, ChaseEngine, ChaseResult,
    WitnessMode,
};
use peer_data_exchange::core::Bundle;
use peer_data_exchange::prelude::*;
use peer_data_exchange::relational::{instance_hom_exists, instances_isomorphic, render_instance};
use std::sync::Once;

/// `(rounds, triggers_found, triggers_fired, triggers_satisfied,
/// egd_merges, keyed_witnesses, result facts, distinct nulls in the
/// result)`.
type Counts = (usize, usize, usize, usize, usize, usize, usize, usize);

/// The chase `pde solve` runs on the data-exchange route: Σst then Σt,
/// fresh nulls above the input's, the semi-naive engine, unscheduled.
fn chase_bundle(src: &str) -> ChaseResult {
    intern_in_fixed_order();
    let b = Bundle::parse(src).unwrap();
    let deps = forward_deps(&b);
    let gen = null_gen_for(&b.input);
    chase_governed_scheduled(
        b.input,
        &deps,
        WitnessMode::FreshNulls(&gen),
        ChaseLimits::default(),
        ChaseEngine::Seminaive,
        &Governor::unlimited(),
        None,
    )
}

/// Σst then Σt, as the data-exchange route orders them.
fn forward_deps(b: &Bundle) -> Vec<Dependency> {
    assert!(b.setting.is_data_exchange());
    b.setting
        .sigma_st()
        .iter()
        .cloned()
        .map(Dependency::Tgd)
        .chain(b.setting.sigma_t().iter().cloned())
        .collect()
}

/// Parse every bundle of this file once, before any test parses its own.
fn intern_in_fixed_order() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        for src in [
            keys_bundle(PROTEIN_TGD, ANNOTATION_TGD, ROGUE),
            keys_bundle(ANNOTATION_TGD, PROTEIN_TGD, ""),
            TWO_COLUMN_KEY.to_owned(),
            KEY_TERM_EXISTENTIAL.to_owned(),
        ] {
            Bundle::parse(&src).unwrap();
        }
    });
}

fn counts(res: &ChaseResult) -> Counts {
    let s = &res.stats;
    (
        s.rounds,
        s.triggers_found,
        s.triggers_fired,
        s.triggers_satisfied,
        s.egd_merges,
        s.keyed_witnesses,
        res.instance.fact_count(),
        res.instance.nulls().len(),
    )
}

/// Run `src` and check its outcome, its counts and (for a "yes") that
/// the target part of its result is isomorphic to `plain`, the rendered
/// result of the plain chase.
fn check(src: &str, want: Counts, plain: Option<&str>) {
    let res = chase_bundle(src);
    assert_eq!(counts(&res), want, "counts");
    match plain {
        Some(text) => {
            assert!(res.is_success(), "{:?}", res.outcome);
            let target = res.instance.restrict(Peer::Target);
            let plain = parse_instance(target.schema(), text).unwrap();
            assert!(
                instances_isomorphic(&target, &plain),
                "keyed result:\n{}plain result:\n{text}",
                render_instance(&target)
            );
        }
        None => assert!(res.is_failure(), "{:?}", res.outcome),
    }
}

const KEYS_SCHEMA: &str = "%schema
source sp_protein/3; source sp_annotation/2; target u_entry/3; target u_go/2
";

const PROTEIN_TGD: &str = "sp_protein(a, n, o) -> exists i . u_entry(a, i, o)";
const ANNOTATION_TGD: &str = "sp_annotation(a, g) -> exists i, o . u_entry(a, i, o), u_go(i, g)";

const KEY_EGDS: &str = "%t
u_entry(a, i, o), u_entry(a, i2, o2) -> i = i2;
u_entry(a, i, o), u_entry(a, i2, o2) -> o = o2
";

/// Three proteins; P1 has two annotations, P2 one, and P4 two with no
/// protein record (its `i` and `o` have no key row to come from).
const KEYS_FACTS: &str = "%instance
sp_protein(P1, n1, org1). sp_protein(P2, n2, org2). sp_protein(P3, n3, org1).
sp_annotation(P1, GO1). sp_annotation(P1, GO2). sp_annotation(P2, GO1).
sp_annotation(P4, GO3). sp_annotation(P4, GO1).
";

/// A repeated accession with a second organism.
const ROGUE: &str = "sp_protein(P2, rogue, org3).\n";

/// A two-column key `(a, v)`: rows that share `a` but not `v` are other
/// keys.
const TWO_COLUMN_KEY: &str = "%schema
source sp_protein/3; source sp_annotation/3; target u_entry/4; target u_go/2
%st
sp_protein(a, v, o) -> exists i . u_entry(a, v, i, o);
sp_annotation(a, v, g) -> exists i, o . u_entry(a, v, i, o), u_go(i, g)
%t
u_entry(a, v, i, o), u_entry(a, v, i2, o2) -> i = i2;
u_entry(a, v, i, o), u_entry(a, v, i2, o2) -> o = o2
%instance
sp_protein(P1, v1, org1). sp_protein(P1, v2, org2). sp_protein(P2, v1, org1).
sp_annotation(P1, v1, GO1). sp_annotation(P1, v2, GO2). sp_annotation(P1, v3, GO3).
sp_annotation(P2, v2, GO1). sp_annotation(P1, v3, GO4).
";

/// The existential `w` sits at `u_alias`'s determined position, but the
/// key of that atom is the existential `i`, not a constant.
const KEY_TERM_EXISTENTIAL: &str = "%schema
source sp_protein/3; target u_entry/3; target u_alias/2
%st
sp_protein(a, n, o) -> exists i, w . u_entry(a, i, o), u_alias(i, w)
%t
u_entry(a, i, o), u_entry(a, i2, o2) -> i = i2;
u_alias(i, w), u_alias(i, w2) -> w = w2
%instance
sp_protein(P1, n1, org1). sp_protein(P1, n2, org2). sp_protein(P2, n3, org1).
";

fn keys_bundle(first: &str, second: &str, extra: &str) -> String {
    format!("{KEYS_SCHEMA}%st\n{first};\n{second}\n{KEY_EGDS}{KEYS_FACTS}{extra}")
}

/// The `keys` workload's order: the protein tgd fires first.
#[test]
fn protein_then_annotation() {
    check(
        &keys_bundle(PROTEIN_TGD, ANNOTATION_TGD, ""),
        (2, 16, 8, 0, 0, 8, 17, 5),
        Some(
            "u_entry(P3, ?2, org1).
u_entry(P4, ?12, ?11).
u_entry(P1, ?6, org1).
u_entry(P2, ?8, org2).
u_go(?6, GO2).
u_go(?8, GO1).
u_go(?12, GO1).
u_go(?6, GO1).
u_go(?12, GO3).
",
        ),
    );
}

/// The annotation tgd fires first, so the protein tgd meets its rows.
#[test]
fn annotation_then_protein() {
    check(
        &keys_bundle(ANNOTATION_TGD, PROTEIN_TGD, ""),
        (3, 28, 8, 0, 2, 6, 17, 5),
        Some(
            "u_entry(P4, ?9, ?8).
u_entry(P1, ?10, org1).
u_entry(P2, ?11, org2).
u_entry(P3, ?12, org1).
u_go(?9, GO1).
u_go(?10, GO1).
u_go(?10, GO2).
u_go(?11, GO1).
u_go(?9, GO3).
",
        ),
    );
}

/// A repeated accession with a second organism: the `o` key egd meets two
/// constants and the chase fails.
#[test]
fn rogue_organism_fails() {
    check(
        &keys_bundle(PROTEIN_TGD, ANNOTATION_TGD, ROGUE),
        (2, 19, 9, 0, 0, 9, 19, 5),
        None,
    );
}

#[test]
fn two_column_key() {
    check(
        TWO_COLUMN_KEY,
        (2, 18, 8, 0, 0, 6, 18, 7),
        Some(
            "u_entry(P2, v1, ?2, org1).
u_entry(P2, v2, ?10, ?9).
u_entry(P1, v3, ?12, ?11).
u_entry(P1, v1, ?4, org1).
u_entry(P1, v2, ?6, org2).
u_go(?4, GO1).
u_go(?6, GO2).
u_go(?10, GO1).
u_go(?12, GO4).
u_go(?12, GO3).
",
        ),
    );
}

#[test]
fn existential_in_a_key_column() {
    check(
        KEY_TERM_EXISTENTIAL,
        (3, 13, 3, 0, 1, 1, 8, 4),
        Some(
            "u_entry(P1, ?2, org2).
u_entry(P2, ?4, org1).
u_entry(P1, ?2, org1).
u_alias(?2, ?3).
u_alias(?4, ?5).
",
        ),
    );
}

/// A reused null can satisfy a trigger that the plain chase fires before
/// its egd pass. Here the plain chase gives `R(a, n2)` its own `T` fact
/// and only then merges `n2` into `n1`, keeping two `T` facts; keyed
/// witnesses never create `R(a, n2)`. The results are homomorphically
/// equivalent, not isomorphic.
#[test]
fn later_trigger_sees_the_merged_null() {
    let src = "%schema
source A/1; source B/1; target R/2; target S/1; target T/2
%st
A(x) -> exists y . R(x, y);
B(x) -> exists y . R(x, y), S(y)
%t
R(x, y) -> exists z . T(y, z);
R(x, y), R(x, y2) -> y = y2
%instance
A(a). B(a).
";
    let keyed = chase_bundle(src);
    assert_eq!(counts(&keyed), (3, 4, 3, 0, 0, 1, 5, 2));
    let b = Bundle::parse(src).unwrap();
    let deps = forward_deps(&b);
    let gen = null_gen_for(&b.input);
    // The naive engine mints a null for every existential.
    let plain = chase_governed_with(
        b.input,
        &deps,
        WitnessMode::FreshNulls(&gen),
        ChaseLimits::default(),
        ChaseEngine::Naive,
        &Governor::unlimited(),
    );
    assert!(keyed.is_success() && plain.is_success());
    assert_eq!(plain.stats.egd_merges, 1);
    assert_eq!(
        (keyed.instance.fact_count(), plain.instance.fact_count()),
        (5, 6)
    );
    assert!(!instances_isomorphic(&keyed.instance, &plain.instance));
    assert!(instance_hom_exists(&keyed.instance, &plain.instance));
    assert!(instance_hom_exists(&plain.instance, &keyed.instance));
}
