//! Pinned verdicts of both NP-side searches on a seeded random corpus.
//!
//! `tests/search_counts.rs` pins the witness-chase search's whole tree on
//! the §4 boundary settings. This file pins only the *answers*, over
//! random settings the searches were not written for: the existence
//! verdict of `generic::solve`, of `assignment::solve` (when Σt = ∅) and
//! the certain answers of one target query per setting. A change that
//! prunes the search trees must leave every character below as it is.
//!
//! `random_tgd` draws its variables from a pool of six, so Σts premises
//! with repeated variables and with two atoms both occur, next to the
//! one-atom all-distinct premises that constrain a target position.

use peer_data_exchange::constraints::{parse_egd, DisjunctiveTgd};
use peer_data_exchange::core::{
    assignment, certain_answers, column_domains, generic, shrink_solution, tractable,
    GenericLimits, PdeSetting,
};
use peer_data_exchange::prelude::*;
use peer_data_exchange::workloads::random::{
    random_instance, random_setting, random_weakly_acyclic_setting, RandomSettingParams,
};

/// The instance values are `c0`, `c1` and `c2`.
const DOMAIN: u32 = 3;

/// One case as three characters: the generic verdict (`y`/`n`), the
/// assignment verdict (`y`/`n`, or `.` when Σt ≠ ∅) and the certain
/// answers of `q(x0) :- T(x0, ...)` over the first target relation `T`,
/// as a digit whose bit `i` says `ci` is certain (`-` when no solution
/// exists, so every tuple is vacuously certain).
fn case(setting: &PdeSetting, input: &Instance) -> String {
    let limits = GenericLimits::default();
    let yn = |b: bool| if b { 'y' } else { 'n' };
    let g = generic::solve(setting, input, limits)
        .unwrap()
        .decided()
        .expect("the corpus is small enough to decide");
    let a = if setting.has_no_target_constraints() {
        yn(assignment::solve(setting, input).unwrap().exists)
    } else {
        '.'
    };
    let schema = setting.schema();
    let rel = schema
        .rels_of(Peer::Target)
        .next()
        .expect("a target relation");
    let vars: Vec<String> = (0..schema.arity(rel)).map(|i| format!("x{i}")).collect();
    let q: UnionQuery = parse_query(
        schema,
        &format!("q(x0) :- {}({})", schema.name(rel), vars.join(", ")),
    )
    .unwrap()
    .into();
    let out = certain_answers(setting, input, &q, limits).unwrap();
    let c = if out.solution_exists {
        let mut bits = 0u32;
        for t in &out.answers {
            let name = t[0].to_string();
            let i: u32 = name[1..].parse().expect("answers are instance constants");
            bits |= 1 << i;
        }
        char::from_digit(bits, 8).unwrap()
    } else {
        '-'
    };
    format!("{}{a}{c}", yn(g))
}

/// The corpus: for each seed that yields a valid setting, three random
/// ground instances (source facts, a few target facts).
fn corpus(setting_of: impl Fn(u64) -> Option<PdeSetting>, seeds: std::ops::Range<u64>) -> String {
    let mut out = String::new();
    for seed in seeds {
        let Some(setting) = setting_of(seed) else {
            out.push_str("x ");
            continue;
        };
        for (facts, salt) in [(3, 0x5eed), (5, 0xfac7), (7, 0xd07e)] {
            let input = random_instance(&setting, facts, 1, DOMAIN, seed ^ salt);
            out.push_str(&case(&setting, &input));
        }
        out.push(' ');
    }
    out.trim_end().to_string()
}

/// Σt = ∅, default shapes: every verdict of all three.
#[test]
fn verdicts_without_target_constraints() {
    let params = RandomSettingParams::default();
    let got = corpus(|seed| random_setting(&params, seed).ok(), 0..64);
    assert_eq!(
        got,
        concat!(
            "yy0nn-yy0 nn-yy0nn- nn-nn-nn- yy4nn-yy2 yy0yy0yy2 yy4yy4yy1 nn-yy7nn- nn-nn-nn- ",
            "yy2nn-nn- yy1yy6yy4 nn-nn-yy0 yy7yy2yy7 nn-nn-nn- nn-nn-nn- yy5nn-yy4 nn-nn-nn- ",
            "nn-yy0nn- nn-yy1nn- yy1nn-yy2 nn-nn-nn- yy0nn-yy2 yy0nn-nn- yy5yy7yy3 nn-nn-nn- ",
            "yy2yy2yy1 nn-nn-yy0 nn-nn-nn- yy7yy6yy5 nn-yy4yy0 nn-nn-nn- yy0yy0yy0 yy4yy0yy1 ",
            "yy6nn-nn- yy1yy6yy7 yy5nn-nn- nn-yy0yy4 nn-nn-nn- nn-nn-yy3 nn-yy1yy0 nn-nn-nn- ",
            "nn-nn-nn- yy4nn-yy0 nn-nn-nn- nn-nn-nn- nn-yy4nn- yy4yy0yy0 nn-nn-nn- nn-nn-nn- ",
            "nn-nn-nn- yy5nn-yy2 nn-nn-yy2 nn-nn-nn- nn-nn-yy2 nn-yy5yy5 nn-nn-nn- nn-nn-yy3 ",
            "yy2yy4nn- nn-nn-nn- nn-nn-yy7 nn-yy2nn- nn-nn-nn- nn-nn-nn- yy3nn-yy7 nn-yy4nn-",
        )
    );
}

/// Σt = ∅ with arity up to 3 and two existentials per tgd: wider
/// conclusions, so more positions hold existentials and nulls.
#[test]
fn verdicts_with_wide_conclusions() {
    let params = RandomSettingParams {
        max_arity: 3,
        max_existentials: 2,
        ..RandomSettingParams::default()
    };
    let got = corpus(|seed| random_setting(&params, seed).ok(), 0..32);
    assert_eq!(
        got,
        concat!(
            "yy1nn-nn- yy1yy0yy0 nn-nn-nn- yy4yy0yy2 nn-nn-nn- nn-yy3yy5 nn-yy2nn- yy3yy7yy7 ",
            "nn-nn-nn- nn-nn-nn- yy6nn-yy7 nn-yy2nn- yy4yy5yy7 yy4yy3yy7 nn-nn-nn- yy0yy1yy0 ",
            "nn-nn-nn- nn-nn-nn- yy2yy2yy4 nn-nn-nn- yy0yy0yy0 yy4yy2yy1 nn-nn-nn- nn-nn-nn- ",
            "nn-nn-nn- nn-yy1nn- yy4yy1nn- yy0yy0nn- nn-yy1yy4 nn-nn-nn- yy2yy1yy0 nn-yy0yy0",
        )
    );
}

/// Σt = one key egd on the first binary target relation (its first
/// column determines its second): egd merges, including
/// merges of a witness null into a constant.
#[test]
fn verdicts_with_a_key_egd() {
    let params = RandomSettingParams::default();
    let got = corpus(
        |seed| {
            let s = random_setting(&params, seed).ok()?;
            let schema = s.schema();
            let rel = schema
                .rels_of(Peer::Target)
                .find(|&r| schema.arity(r) == 2)?;
            let name = schema.name(rel);
            let key = parse_egd(schema, &format!("{name}(x, y), {name}(x, z) -> y = z")).unwrap();
            PdeSetting::new(
                schema.clone(),
                s.sigma_st().to_vec(),
                s.sigma_ts().to_vec(),
                vec![Dependency::Egd(key)],
            )
            .ok()
        },
        0..48,
    );
    assert_eq!(
        got,
        concat!(
            "y.0n.-y.0 n.-y.0n.- n.-n.-n.- y.4n.-y.2 y.0y.2y.7 y.4y.4y.1 x n.-n.-n.- ",
            "y.2n.-n.- x n.-n.-y.0 y.7n.-y.7 n.-n.-n.- n.-n.-n.- x n.-n.-n.- ",
            "x n.-y.1n.- x n.-n.-n.- y.0n.-y.2 y.0n.-n.- y.5n.-y.3 n.-n.-n.- ",
            "y.2y.2y.1 n.-n.-y.0 x n.-y.6n.- n.-y.4y.0 n.-n.-n.- y.0y.0y.0 y.4y.0y.1 ",
            "y.6n.-n.- y.1n.-n.- y.5n.-n.- n.-y.0y.4 n.-n.-n.- n.-n.-y.3 n.-y.1y.0 n.-n.-n.- ",
            "x y.4n.-y.0 x n.-n.-n.- n.-y.4n.- y.4y.0y.0 n.-n.-n.- x",
        )
    );
}

/// Weakly acyclic target tgds: only the witness-chase search applies.
#[test]
fn verdicts_with_target_tgds() {
    let params = RandomSettingParams {
        max_existentials: 2,
        ..RandomSettingParams::default()
    };
    let got = corpus(
        |seed| random_weakly_acyclic_setting(&params, 2, seed).ok(),
        0..48,
    );
    assert_eq!(
        got,
        concat!(
            "y.0n.-y.0 n.-n.-y.4 n.-n.-n.- n.-y.4n.- yy0nn-nn- n.-n.-n.- y.3n.-y.7 n.-n.-n.- ",
            "n.-n.-n.- y.1y.4y.0 n.-n.-y.2 n.-y.0y.1 n.-n.-n.- n.-n.-n.- y.4n.-y.0 yy1nn-yy6 ",
            "y.7y.7y.7 n.-n.-n.- y.0y.0y.2 n.-y.4y.0 y.0n.-y.2 n.-n.-n.- y.5y.7y.3 y.7y.7y.3 ",
            "n.-y.2y.1 nn-nn-nn- y.4n.-y.6 n.-y.2n.- n.-y.7y.7 y.3y.7y.6 n.-y.0y.0 y.4y.0y.3 ",
            "n.-n.-n.- yy1yy6yy7 n.-n.-n.- y.0y.5y.4 n.-n.-n.- n.-n.-y.3 n.-y.1y.0 y.1y.7y.7 ",
            "n.-y.2y.4 n.-n.-y.6 n.-n.-y.0 y.0y.4y.1 n.-y.4n.- n.-y.0y.0 nn-nn-yy1 n.-n.-n.-",
        )
    );
}

/// Check every target fact of `solution` against the column domains of
/// `setting` over `input`: a value at a constrained position must lie in
/// its domain. Returns how many constrained values it checked.
fn domain_values_checked(setting: &PdeSetting, input: &Instance, solution: &Instance) -> usize {
    let schema = setting.schema();
    let ts: Vec<DisjunctiveTgd> = setting
        .sigma_ts()
        .iter()
        .map(DisjunctiveTgd::from_tgd)
        .collect();
    let positions = schema
        .rels_of(Peer::Target)
        .flat_map(|r| (0..usize::from(schema.arity(r))).map(move |i| (r, i)));
    let domains = column_domains(&ts, input, positions);
    let mut checked = 0;
    for (rel, t) in solution.facts_of(Peer::Target) {
        for (i, v) in t.values().iter().enumerate() {
            if let Some(d) = domains.of((rel, i)) {
                assert!(
                    d.contains(v),
                    "{v} at {}.{i} outside {d:?}",
                    schema.name(rel)
                );
                checked += 1;
            }
        }
    }
    checked
}

/// Every solution holds only domain values at constrained positions. The
/// solutions come from solvers that never read the domains: Fig. 3's
/// witness on `C_tract` settings, and Lemma 2's `shrink_solution` of it
/// and of the witness-chase search's answer on settings with target tgds.
#[test]
fn solutions_hold_only_domain_values_at_constrained_positions() {
    let mut checked = 0;
    let params = RandomSettingParams::default();
    for seed in 0..1000 {
        let Ok(setting) = random_setting(&params, seed) else {
            continue;
        };
        if !setting.classification().ctract.in_ctract() {
            continue;
        }
        let input = random_instance(&setting, 5, 1, DOMAIN, seed ^ 0xd0d0);
        let Some(fig3) = tractable::exists_solution(&setting, &input)
            .unwrap()
            .witness
        else {
            continue;
        };
        let small = shrink_solution(&setting, &input, &fig3).unwrap();
        checked += domain_values_checked(&setting, &input, &fig3);
        checked += domain_values_checked(&setting, &input, &small);
    }
    let params = RandomSettingParams {
        max_existentials: 2,
        ..RandomSettingParams::default()
    };
    for seed in 0..400 {
        let Ok(setting) = random_weakly_acyclic_setting(&params, 2, seed) else {
            continue;
        };
        let input = random_instance(&setting, 5, 1, DOMAIN, seed ^ 0xd0d0);
        let out = generic::solve(&setting, &input, GenericLimits::default()).unwrap();
        if let Some(w) = out.witness() {
            let small = shrink_solution(&setting, &input, w).unwrap();
            checked += domain_values_checked(&setting, &input, &small);
        }
    }
    assert!(checked > 400, "only {checked} constrained values checked");
}
