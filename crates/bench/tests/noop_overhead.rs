//! The tracing fast path must be cheap enough to leave compiled in: with
//! no sink installed, `pde_trace::span` is one relaxed atomic load and an
//! inert guard. This guard measures that claim on the §4 egd-boundary
//! chase over the k=18 inequality relation (the most span-dense code path:
//! one span per round, per trigger sweep, per egd batch, plus the delta
//! hom searches inside) and fails if a
//! *no-op sink* — which exercises record construction and delivery, i.e.
//! strictly more than the disabled path — costs more than the 2%
//! acceptance bar.
//!
//! Timing guards are noise-sensitive, so the test is `#[ignore]`d for the
//! regular suite and run explicitly (release mode) by the CI `bench-guard`
//! job: `cargo test -p pde-bench --release noop_sink_overhead -- --ignored`.

use pde_chase::{chase_governed_with, ChaseEngine, ChaseLimits, WitnessMode};
use pde_constraints::Dependency;
use pde_relational::NullGen;
use pde_runtime::Governor;
use pde_workloads::boundary::{egd_boundary_instance, egd_boundary_setting};
use pde_workloads::Graph;
use std::sync::Arc;
use std::time::Instant;

fn time_once(f: &impl Fn()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

#[test]
#[ignore = "timing guard; run explicitly in release mode (CI bench-guard job)"]
fn noop_sink_overhead_on_e16_is_under_two_percent() {
    let setting = egd_boundary_setting();
    let deps: Vec<Dependency> = setting
        .sigma_st()
        .iter()
        .cloned()
        .map(Dependency::Tgd)
        .chain(setting.sigma_t().iter().cloned())
        .collect();
    let input = egd_boundary_instance(&setting, &Graph::complete(3), 18);
    let run = || {
        let gen = NullGen::new();
        let res = chase_governed_with(
            input.clone(),
            &deps,
            WitnessMode::FreshNulls(&gen),
            ChaseLimits::default(),
            ChaseEngine::Seminaive,
            &Governor::unlimited(),
        );
        assert!(res.is_success());
    };

    // Warm caches/allocator before either arm is timed.
    run();
    run();

    // The two arms are interleaved (disabled, noop, disabled, noop, …)
    // and each keeps its best observation, so clock drift, thermal
    // throttling, and scheduler noise hit both arms alike instead of
    // biasing whichever arm ran second. Shared-runner jitter can still
    // push one measurement past the bar, so the guard takes the best of
    // a few whole attempts: the regression it exists to catch (a sink
    // check that actually costs something) fails every attempt.
    const REPS: usize = 20;
    const ATTEMPTS: usize = 3;
    let mut best_overhead = f64::INFINITY;
    for attempt in 1..=ATTEMPTS {
        let mut disabled = f64::INFINITY;
        let mut noop = f64::INFINITY;
        for _ in 0..REPS {
            pde_trace::clear_sink();
            disabled = disabled.min(time_once(&run));
            pde_trace::set_sink(Arc::new(pde_trace::NoopSink));
            noop = noop.min(time_once(&run));
        }
        pde_trace::clear_sink();
        let overhead_pct = (noop / disabled - 1.0) * 100.0;
        eprintln!(
            "attempt {attempt}: E16 clique k=18 seminaive, disabled {:.3}ms, \
             noop sink {:.3}ms, overhead {overhead_pct:+.2}%",
            disabled * 1e3,
            noop * 1e3,
        );
        best_overhead = best_overhead.min(overhead_pct);
        if best_overhead < 2.0 {
            break;
        }
    }
    assert!(
        best_overhead < 2.0,
        "no-op sink overhead {best_overhead:.2}% exceeds the 2% acceptance bar \
         on every attempt"
    );
}
