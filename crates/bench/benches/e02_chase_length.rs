//! E2 — Lemma 1: the (solution-aware) chase terminates within a
//! polynomial number of steps on weakly acyclic sets.
//!
//! Sweeps instance size for a weakly acyclic two-stage target tgd chain
//! and records (a) chase steps — the paper's bound is polynomial in |K| —
//! and (b) wall time. Also exercises the solution-aware variant against a
//! pre-built solution, confirming it takes no more steps than the
//! standard chase (its witnesses never create new triggers).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pde_chase::{chase, chase_tgds, solution_aware_chase, ChaseLimits};
use pde_constraints::{parse_dependencies, Dependency};
use pde_relational::{parse_instance, parse_schema, Instance, NullGen};
use std::sync::Arc;

fn schema() -> Arc<pde_relational::Schema> {
    Arc::new(parse_schema("target A/2; target B/2; target C/2;").unwrap())
}

fn deps(schema: &pde_relational::Schema) -> Vec<Dependency> {
    parse_dependencies(
        schema,
        "A(x, y) -> exists z . B(y, z); B(x, y) -> exists z . C(y, z)",
    )
    .unwrap()
}

fn instance(schema: &Arc<pde_relational::Schema>, n: usize) -> Instance {
    let mut src = String::new();
    for i in 0..n {
        src.push_str(&format!("A(a{i}, b{i}). "));
    }
    parse_instance(schema, &src).unwrap()
}

fn bench(c: &mut Criterion) {
    let s = schema();
    let d = deps(&s);

    let mut rows = Vec::new();
    let mut g = c.benchmark_group("e02_chase_length");
    for n in [16usize, 32, 64, 128, 256] {
        let inst = instance(&s, n);
        g.bench_with_input(BenchmarkId::new("standard_chase", n), &inst, |b, inst| {
            b.iter(|| {
                let gen = NullGen::new();
                chase(inst.clone(), &d, &gen).steps
            });
        });
        let gen = NullGen::new();
        let res = chase(inst.clone(), &d, &gen);
        assert!(res.is_success());
        // Solution-aware chase against the standard result (which contains
        // the input and satisfies the tgds).
        let sol = res.instance.clone();
        let aware = solution_aware_chase(inst.clone(), &d, &sol, ChaseLimits::default());
        assert!(aware.is_success());
        rows.push((n, res.steps, aware.steps));
    }
    g.finish();
    pde_bench::print_series3(
        "E2: chase steps vs |K| (Lemma 1: polynomial; here 2·n)",
        ("|A|", "standard steps", "solution-aware steps"),
        &rows,
    );

    // Divergence contrast: the same sweep on a weakly *cyclic* tgd hits
    // the step limit proportionally (not run under Criterion; shape only).
    let cyc = parse_dependencies(&s, "A(x, y) -> exists z . A(y, z)").unwrap();
    let inst = instance(&s, 4);
    let gen = NullGen::new();
    let res = pde_chase::chase_governed_with(
        inst,
        &cyc,
        pde_chase::WitnessMode::FreshNulls(&gen),
        ChaseLimits::tight(1000),
        pde_chase::default_chase_engine(),
        &pde_runtime::Governor::unlimited(),
    );
    assert_eq!(res.outcome, pde_chase::ChaseOutcome::ResourceExceeded);
    eprintln!(
        "E2 (contrast): non-weakly-acyclic set hit the {}-step guard as expected",
        1000
    );

    // Keep chase_tgds linked into the harness for API parity.
    let _ = chase_tgds;
}

// Criterion's macros expand to undocumented items.
#[allow(missing_docs)]
mod generated {
    use super::*;
    criterion_group!(benches, bench);
}
use generated::benches;
criterion_main!(benches);
