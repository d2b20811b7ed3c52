//! The governor's derived memory budgets plan against
//! `pde_relational::BYTES_PER_FACT_BUDGET`, which claims to be a
//! cross-workload upper bound on the columnar storage's measured bytes
//! per fact. This guard chases three workloads — the CLIQUE reduction on
//! K₁₂ with k=6, the §4 egd boundary at k=18 and an 800-protein genomics
//! sync — and fails if any chased instance's measured figure exceeds the
//! budget — i.e. if a
//! storage change silently regresses memory density past what the plan
//! certificates promise.
//!
//! Unlike the timing guard next door this one is deterministic, but it
//! chases real workloads, so it is `#[ignore]`d for the regular suite and
//! run explicitly (release mode) by the CI `bench-guard` job:
//! `cargo test -p pde-bench --release bytes_per_fact -- --ignored`.

use pde_chase::{chase_governed_with, ChaseEngine, ChaseLimits, WitnessMode};
use pde_constraints::Dependency;
use pde_core::PdeSetting;
use pde_relational::{Instance, NullGen, BYTES_PER_FACT_BUDGET};
use pde_runtime::Governor;
use pde_workloads::boundary::{egd_boundary_instance, egd_boundary_setting};
use pde_workloads::clique::{clique_instance, clique_setting};
use pde_workloads::genomics::{genomics_instance, genomics_setting, GenomicsParams};
use pde_workloads::Graph;

fn forward_deps(setting: &PdeSetting) -> Vec<Dependency> {
    setting
        .sigma_st()
        .iter()
        .cloned()
        .map(Dependency::Tgd)
        .chain(setting.sigma_t().iter().cloned())
        .collect()
}

fn chased(setting: &PdeSetting, input: Instance) -> Instance {
    let gen = NullGen::new();
    let res = chase_governed_with(
        input,
        &forward_deps(setting),
        WitnessMode::FreshNulls(&gen),
        ChaseLimits::default(),
        ChaseEngine::Seminaive,
        &Governor::unlimited(),
    );
    assert!(res.is_success());
    res.instance
}

#[test]
#[ignore = "workload guard; run explicitly in release mode (CI bench-guard job)"]
fn bytes_per_fact_stays_within_the_planning_budget() {
    let boundary = egd_boundary_setting();
    let clique = clique_setting();
    let genomics = genomics_setting();
    let workloads: Vec<(&str, Instance)> = vec![
        (
            "clique",
            chased(&clique, clique_instance(&clique, &Graph::complete(12), 6)),
        ),
        (
            "boundary",
            chased(
                &boundary,
                egd_boundary_instance(&boundary, &Graph::complete(3), 18),
            ),
        ),
        (
            "genomics",
            chased(
                &genomics,
                genomics_instance(
                    &genomics,
                    &GenomicsParams {
                        proteins: 800,
                        annotations_per_protein: 3,
                        organisms: 10,
                        go_terms: 200,
                        preloaded: 80,
                        rogue: 0,
                        seed: 99,
                    },
                ),
            ),
        ),
    ];
    for (label, inst) in workloads {
        let stats = inst.storage_stats();
        println!(
            "{label}: {} facts, {} heap bytes, {} bytes/fact (budget {})",
            stats.facts,
            stats.heap_bytes,
            stats.bytes_per_fact(),
            BYTES_PER_FACT_BUDGET
        );
        assert!(stats.facts > 0, "{label}: empty chase result");
        assert!(
            stats.bytes_per_fact() <= BYTES_PER_FACT_BUDGET,
            "{label}: measured {} bytes/fact exceeds the planning budget {}",
            stats.bytes_per_fact(),
            BYTES_PER_FACT_BUDGET
        );
    }
}
