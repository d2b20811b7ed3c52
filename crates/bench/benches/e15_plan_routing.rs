//! E15 — plan-once solver routing vs. per-call classification.
//!
//! `decide` re-derives the setting's classification (weak acyclicity,
//! `C_tract` membership, solver choice) on every call. `pde plan` moves
//! that work to a one-time static certificate: `plan_setting` + repeated
//! `decide_governed_scheduled` amortizes the analysis across calls. This bench
//! measures the planning cost, the verification cost, and the per-call
//! delta on a small instance where routing overhead is visible.

use criterion::{criterion_group, criterion_main, Criterion};
use pde_analysis::{plan_setting, Verifiable};
use pde_core::{decide, decide_governed_scheduled};
use pde_runtime::Governor;
use pde_workloads::paper::{example1_instances, example1_setting};
use pde_workloads::{clique, graphs};

fn bench(c: &mut Criterion) {
    let setting = example1_setting();
    let [_, _, triangle] = example1_instances(&setting);
    let cert = plan_setting(&setting, triangle.active_domain().len());
    let plan = cert.to_solve_plan();

    let mut g = c.benchmark_group("e15_plan_routing");
    g.bench_function("decide_reclassifies_per_call", |b| {
        b.iter(|| decide(&setting, &triangle).unwrap().exists);
    });
    g.bench_function("decide_with_precomputed_plan", |b| {
        b.iter(|| {
            decide_governed_scheduled(&setting, &triangle, &plan, None, &Governor::unlimited())
                .unwrap()
                .exists
        });
    });
    g.bench_function("plan_setting_example1", |b| {
        b.iter(|| plan_setting(&setting, triangle.active_domain().len()));
    });
    g.bench_function("verify_certificate_example1", |b| {
        b.iter(|| cert.verify(&setting, &triangle).unwrap());
    });

    // The clique setting has the largest Σts and a 4-ary target relation,
    // so its static analysis is the most expensive in the workload suite.
    let hard = clique::clique_setting();
    let input = clique::clique_instance(&hard, &graphs::Graph::complete(4), 3);
    let hard_cert = plan_setting(&hard, input.active_domain().len());
    let hard_plan = hard_cert.to_solve_plan();
    g.bench_function("decide_reclassifies_per_call_clique", |b| {
        b.iter(|| decide(&hard, &input).unwrap().exists);
    });
    g.bench_function("decide_with_precomputed_plan_clique", |b| {
        b.iter(|| {
            decide_governed_scheduled(&hard, &input, &hard_plan, None, &Governor::unlimited())
                .unwrap()
                .exists
        });
    });
    g.bench_function("plan_setting_clique", |b| {
        b.iter(|| plan_setting(&hard, input.active_domain().len()));
    });
    g.finish();

    let rows: Vec<(&str, String)> = vec![
        ("example1 regime", cert.regime.to_string()),
        ("example1 solver", cert.recommended_solver.to_string()),
        (
            "example1 budgets",
            format!(
                "steps={} facts={} nodes={}",
                cert.budgets.chase_steps, cert.budgets.chase_facts, cert.budgets.search_nodes
            ),
        ),
        ("clique regime", hard_cert.regime.to_string()),
        ("clique solver", hard_cert.recommended_solver.to_string()),
    ];
    pde_bench::print_series("E15: static plan contents", ("quantity", "value"), &rows);
}

// Criterion's macros expand to undocumented items.
#[allow(missing_docs)]
mod generated {
    use super::*;
    criterion_group!(benches, bench);
}
use generated::benches;
criterion_main!(benches);
