//! E17 — dependency rewriting + stratified scheduling on redundant input.
//!
//! Two chase-heavy workloads (the §4 egd boundary on complete graphs and
//! the §1 genomics sync) are re-declared with redundancy padding —
//! alpha-renamed duplicates, subsumed tgds, a trivial egd, and a
//! dependency reading a relation no chase can populate — and chased (a)
//! as written and (b) after `pde_analysis::optimize_setting` under the
//! stratified `forward_schedule`. The question is whether the rewrite
//! pays for itself on padded settings; the cost of the scheduled chase on
//! clean settings is measured by perfbench's `sync` and `keys` workloads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pde_analysis::{forward_schedule, optimize_setting};
use pde_chase::{
    chase_governed_scheduled, ChaseEngine, ChaseLimits, ChaseResult, DepSchedule, WitnessMode,
};
use pde_constraints::Dependency;
use pde_core::PdeSetting;
use pde_relational::{Instance, NullGen};
use pde_runtime::Governor;
use pde_workloads::boundary::egd_boundary_instance;
use pde_workloads::genomics::{genomics_instance, GenomicsParams};
use pde_workloads::Graph;

/// Σst ∪ Σt of a setting as one chaseable dependency list.
fn forward_deps(setting: &PdeSetting) -> Vec<Dependency> {
    setting
        .sigma_st()
        .iter()
        .cloned()
        .map(Dependency::Tgd)
        .chain(setting.sigma_t().iter().cloned())
        .collect()
}

/// The egd-boundary setting padded with every redundancy class the
/// optimizer removes. Semantically identical to
/// `pde_workloads::boundary::egd_boundary_setting` (the extra `Junk`
/// relation stays empty and unread in any solution).
fn padded_egd_boundary_setting() -> PdeSetting {
    PdeSetting::parse(
        "source D/2; source E/2; target P/4; target Junk/2;",
        "D(x, y) -> exists z, w . P(x, z, y, w);
         D(u, v) -> exists a, b . P(u, a, v, b);
         D(x, y), D(y, x) -> exists z, w . P(x, z, y, w)",
        "P(x, z, y, w) -> E(z, w)",
        "P(x, z, y, w), P(x, z2, y2, w2) -> z = z2;
         P(x, z, y, w), P(y, z2, y2, w2) -> w = z2;
         P(x, z, y, w) -> x = x;
         Junk(x, y), P(a, b, c, d) -> b = d",
    )
    .expect("padded egd boundary setting is well-formed")
}

/// The genomics sync setting padded the same way (`u_orphan` is the dead
/// relation: declared, never populated, read by one Σt tgd).
fn padded_genomics_setting() -> PdeSetting {
    PdeSetting::parse(
        "source sp_protein/3; source sp_annotation/2; \
         target u_protein/2; target u_annotation/2; target u_orphan/2;",
        "sp_protein(a, n, o) -> u_protein(a, o);
         sp_protein(p, q, r) -> u_protein(p, r);
         sp_protein(a, n, o), sp_annotation(a, g) -> u_annotation(a, g);
         sp_protein(a, n, o), sp_annotation(a, g), sp_annotation(a, g2) -> u_annotation(a, g)",
        "u_protein(a, o) -> exists n . sp_protein(a, n, o);
         u_annotation(a, g) -> sp_annotation(a, g)",
        "u_orphan(x, y) -> u_protein(x, y)",
    )
    .expect("padded genomics setting is well-formed")
}

/// One semi-naive chase under an optional stratified schedule.
fn run_scheduled(
    input: &Instance,
    deps: &[Dependency],
    schedule: Option<&DepSchedule>,
) -> ChaseResult {
    let gen = NullGen::new();
    chase_governed_scheduled(
        input.clone(),
        deps,
        WitnessMode::FreshNulls(&gen),
        ChaseLimits::default(),
        ChaseEngine::Seminaive,
        &Governor::unlimited(),
        schedule,
    )
}

/// Chase the padded setting as written and its optimized, scheduled
/// rewrite; push one summary row.
fn arms(
    c: &mut Criterion,
    label: &str,
    size: u32,
    padded: &PdeSetting,
    input: &Instance,
    rows: &mut Vec<(String, String, String)>,
) {
    let padded_deps = forward_deps(padded);
    let opt = optimize_setting(padded, input);
    let opt_deps = forward_deps(&opt.optimized);
    let opt_schedule = forward_schedule(&opt.optimized);

    let mut grp = c.benchmark_group(format!("e17_optimizer/{label}"));
    grp.sample_size(10);
    grp.bench_with_input(BenchmarkId::new("padded", size), input, |b, i| {
        b.iter(|| assert!(run_scheduled(i, &padded_deps, None).is_success()));
    });
    grp.bench_with_input(BenchmarkId::new("optimized", size), input, |b, i| {
        b.iter(|| assert!(run_scheduled(i, &opt_deps, Some(&opt_schedule)).is_success()));
    });
    grp.finish();

    let padded_ms = pde_bench::time_ms(|| {
        let _ = run_scheduled(input, &padded_deps, None);
    });
    let optimized_ms = pde_bench::time_ms(|| {
        let _ = run_scheduled(input, &opt_deps, Some(&opt_schedule));
    });
    let pass_ms = pde_bench::time_ms(|| {
        let _ = optimize_setting(padded, input);
    });
    rows.push((
        format!("{label} {size}"),
        format!(
            "{padded_ms:.2} / {optimized_ms:.2} ({:.1}x), pass {pass_ms:.2}",
            padded_ms / optimized_ms
        ),
        format!(
            "removed {} of {} deps, {} strata",
            opt.certificate.actions.len(),
            opt.certificate.before.total(),
            opt_schedule.strata_count()
        ),
    ));
}

fn bench(c: &mut Criterion) {
    let mut rows = Vec::new();
    let padded = padded_egd_boundary_setting();
    for k in [10u32, 14, 18] {
        let input = egd_boundary_instance(&padded, &Graph::complete(3), k);
        arms(c, "clique", k, &padded, &input, &mut rows);
    }
    let padded = padded_genomics_setting();
    for proteins in [400u32, 800] {
        let params = GenomicsParams {
            proteins,
            annotations_per_protein: 3,
            organisms: 10,
            go_terms: 200,
            preloaded: proteins / 10,
            rogue: 0,
            seed: 99,
        };
        let input = genomics_instance(&padded, &params);
        arms(c, "genomics", proteins, &padded, &input, &mut rows);
    }
    pde_bench::print_series3(
        "E17: padded vs optimized + scheduled chase",
        ("workload", "padded / optimized ms", "rewrite"),
        &rows,
    );
}

// Criterion's macros expand to undocumented items.
#[allow(missing_docs)]
mod generated {
    use super::*;
    criterion_group!(benches, bench);
}
use generated::benches;
criterion_main!(benches);
