//! E11 — Theorems 5–6 / Prop. 1 ablation: why `ExistsSolution` checks
//! homomorphisms **block by block**.
//!
//! The adversarial family: `b` independent 2-null blocks that each map
//! into the target graph in many ways, followed by one unsatisfiable
//! block (a 2-cycle pattern over an acyclic target). Blockwise checking
//! rejects in time linear in `b`; the whole-instance search backtracks
//! across block boundaries and blows up exponentially.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pde_core::blocks::blockwise_hom_exists;
use pde_relational::{instance_hom_exists, parse_instance, parse_schema, Instance};
use std::sync::Arc;

/// Pattern: `b` satisfiable blocks E(?2i, ?2i+1), then E(?x, ?y), E(?y, ?x).
fn pattern(schema: &Arc<pde_relational::Schema>, b: usize) -> Instance {
    let mut src = String::new();
    for i in 0..b {
        src.push_str(&format!("E(?{}, ?{}). ", 2 * i, 2 * i + 1));
    }
    let x = 2 * b;
    let y = 2 * b + 1;
    src.push_str(&format!("E(?{x}, ?{y}). E(?{y}, ?{x})."));
    parse_instance(schema, &src).unwrap()
}

/// Target: an acyclic tournament-ish graph (no 2-cycles) on `n` nodes.
fn target(schema: &Arc<pde_relational::Schema>, n: usize) -> Instance {
    let mut src = String::new();
    for i in 0..n {
        for j in (i + 1)..n {
            src.push_str(&format!("E(v{i}, v{j}). "));
        }
    }
    parse_instance(schema, &src).unwrap()
}

fn bench(c: &mut Criterion) {
    let schema = Arc::new(parse_schema("source E/2;").unwrap());
    let tgt = target(&schema, 6);
    let mut rows = Vec::new();
    let mut g = c.benchmark_group("e11_blocks_ablation");
    g.sample_size(10);
    for b in [1usize, 2, 3, 4, 5] {
        let pat = pattern(&schema, b);
        // Sanity: no homomorphism exists (last block needs a 2-cycle).
        assert!(!instance_hom_exists(&pat, &tgt));
        g.bench_with_input(BenchmarkId::new("blockwise", b), &pat, |bch, pat| {
            bch.iter(|| {
                assert!(!blockwise_hom_exists(pat, &tgt));
            });
        });
        // The whole-instance search is exponential in b on this family
        // (that is the experiment's point) — keep its sizes small.
        g.bench_with_input(BenchmarkId::new("whole_instance", b), &pat, |bch, pat| {
            bch.iter(|| {
                assert!(!instance_hom_exists(pat, &tgt));
            });
        });
        let block_ms = pde_bench::time_ms(|| {
            let _ = blockwise_hom_exists(&pat, &tgt);
        });
        let whole_ms = pde_bench::time_ms(|| {
            let _ = instance_hom_exists(&pat, &tgt);
        });
        rows.push((
            format!("{b} blocks + 1 bad"),
            format!("{block_ms:.3} ms"),
            format!("{whole_ms:.3} ms"),
        ));
    }
    g.finish();
    pde_bench::print_series3(
        "E11: block decomposition ablation (Prop. 1 / Thm. 6)",
        ("pattern", "blockwise", "whole instance"),
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
