//! Integration tests for the resilient execution layer (`pde-runtime`):
//!
//! * a governed run that trips a deadline / memory budget / cancellation
//!   mid-chase reports a structured `Undecided { reason }` — never a wrong
//!   answer — and leaves the caller's input `Instance` unmodified;
//! * under deterministic fault injection (`--features fault-injection`),
//!   every `FaultPlan` point yields either the oracle's answer (after the
//!   naive-engine retry) or a structured stop — zero wrong answers, zero
//!   escaped panics, across random weakly acyclic settings and all four
//!   solver routes.

use pde_core::SolvePlan;
use peer_data_exchange::prelude::*;
use std::time::Duration;

/// A chase-heavy tractable-shaped setting: transitive closure over the
/// target copy of a cycle, so the governed chase has real rounds to be
/// interrupted in.
fn transitive_setting() -> PdeSetting {
    PdeSetting::parse(
        "source E/2; target H/2;",
        "E(x, y) -> H(x, y)",
        "",
        "H(x, y), H(y, z) -> H(x, z)",
    )
    .unwrap()
}

/// A cycle v0 -> v1 -> ... -> v{n-1} -> v0 over `E`.
fn cycle_input(setting: &PdeSetting, n: usize) -> Instance {
    let mut src = String::new();
    for i in 0..n {
        src.push_str(&format!("E(v{}, v{}). ", i, (i + 1) % n));
    }
    parse_instance(setting.schema(), &src).unwrap()
}

/// Equality check for ground-ish instances: identical fact sets.
fn same_instance(a: &Instance, b: &Instance) -> bool {
    a.fact_count() == b.fact_count() && a.contained_in(b) && b.contained_in(a)
}

/// Run `decide_governed_scheduled` under `config` and assert the
/// structured-undecided contract: no answer, the expected stop reason,
/// and an untouched input.
fn assert_undecided(
    config: GovernorConfig,
    expect: impl Fn(&StopReason) -> bool,
) -> peer_data_exchange::core::SolveReport {
    let setting = transitive_setting();
    let input = cycle_input(&setting, 6);
    let snapshot = input.clone();
    let governor = Governor::new(config);
    let plan = SolvePlan::for_setting(&setting);
    let report = decide_governed_scheduled(&setting, &input, &plan, None, &governor).unwrap();
    assert_eq!(report.exists, None, "budget stop must not answer");
    assert!(report.witness.is_none());
    let reason = report.undecided.as_ref().expect("structured stop reason");
    assert!(expect(reason), "unexpected stop reason: {reason}");
    assert!(
        same_instance(&input, &snapshot),
        "governed run modified the caller's input"
    );
    assert!(report.governor.stops >= 1);
    assert!(report.governor.checks >= 1);
    report
}

#[test]
fn deadline_mid_chase_is_undecided_and_input_untouched() {
    let report = assert_undecided(
        GovernorConfig {
            deadline: Some(Duration::ZERO),
            ..GovernorConfig::default()
        },
        |r| matches!(r, StopReason::DeadlineExceeded { .. }),
    );
    // An expired deadline reports no remaining time.
    assert_eq!(report.governor.deadline_remaining, Some(Duration::ZERO));
}

#[test]
fn memory_budget_is_undecided_and_input_untouched() {
    let report = assert_undecided(
        GovernorConfig {
            memory_budget_bytes: Some(1),
            ..GovernorConfig::default()
        },
        |r| matches!(r, StopReason::MemoryExhausted { .. }),
    );
    assert!(
        report.governor.peak_bytes > 1,
        "observed footprint recorded"
    );
}

#[test]
fn cancellation_is_undecided_and_input_untouched() {
    let token = CancelToken::new();
    token.cancel();
    let report = assert_undecided(
        GovernorConfig {
            cancel: Some(token),
            ..GovernorConfig::default()
        },
        |r| matches!(r, StopReason::Cancelled),
    );
    assert!(report.governor.cancellations_observed >= 1);
}

#[test]
fn ungoverned_decide_is_unaffected() {
    // The same setting decides fine with no budgets: the governed plumbing
    // is pay-for-what-you-use.
    let setting = transitive_setting();
    let input = cycle_input(&setting, 6);
    let report = decide(&setting, &input).unwrap();
    assert_eq!(report.exists, Some(true));
}

/// The deterministic fault-injection matrix (ISSUE 4 acceptance): every
/// `FaultPlan` point, driven across random weakly acyclic settings (and so
/// across all solver routes), produces either the ungoverned oracle's
/// answer or a structured stop. Zero wrong answers, zero escaped panics.
#[cfg(feature = "fault-injection")]
mod faults {
    use super::*;
    use peer_data_exchange::core::SolveError;
    use peer_data_exchange::runtime::FaultPlan;
    use peer_data_exchange::workloads::random::{
        random_instance, random_weakly_acyclic_setting, RandomSettingParams,
    };

    /// One armed plan per fault point, plus the deadline such a plan needs
    /// to surface (clock skew only matters under a deadline).
    fn fault_matrix() -> Vec<(FaultPlan, Option<Duration>)> {
        vec![
            (
                FaultPlan {
                    fail_alloc_at_step: Some(1),
                    ..FaultPlan::default()
                },
                None,
            ),
            (
                FaultPlan {
                    cancel_at_round: Some(1),
                    ..FaultPlan::default()
                },
                None,
            ),
            (
                FaultPlan {
                    panic_in_trigger_at_step: Some(1),
                    ..FaultPlan::default()
                },
                None,
            ),
            (
                FaultPlan {
                    clock_skip_at_round: Some((1, Duration::from_secs(7200))),
                    ..FaultPlan::default()
                },
                Some(Duration::from_secs(3600)),
            ),
        ]
    }

    #[test]
    fn every_fault_point_is_contained_across_random_settings() {
        let params = RandomSettingParams::default();
        for seed in 0..64u64 {
            for n_t in 0..3u32 {
                let Ok(setting) = random_weakly_acyclic_setting(&params, n_t, seed) else {
                    continue; // rare degenerate draw
                };
                let input = random_instance(&setting, 4, 0, 3, seed ^ 0xfa17);
                let snapshot = input.clone();
                let plan = SolvePlan::for_setting(&setting);
                let Ok(oracle) = decide(&setting, &input) else {
                    continue; // oracle precondition failures are out of scope
                };
                for (fault, deadline) in fault_matrix() {
                    let governor = peer_data_exchange::runtime::Governor::with_faults(
                        GovernorConfig {
                            deadline,
                            ..GovernorConfig::default()
                        },
                        fault.clone(),
                    );
                    match decide_governed_scheduled(&setting, &input, &plan, None, &governor) {
                        Ok(report) => match report.exists {
                            // A decided governed run must agree with the
                            // oracle whenever the oracle decided too.
                            Some(answer) => {
                                if let Some(expected) = oracle.exists {
                                    assert_eq!(
                                        answer, expected,
                                        "wrong answer under {fault:?} (seed {seed}, n_t {n_t}, \
                                         solver {:?})",
                                        plan.kind
                                    );
                                }
                            }
                            // Otherwise the stop must be structured.
                            None => {
                                assert!(
                                    report.undecided.is_some(),
                                    "unstructured non-answer under {fault:?} (seed {seed})"
                                );
                            }
                        },
                        // A contained panic is an acceptable structured
                        // failure; anything else is not.
                        Err(SolveError::Engine(_)) => {}
                        Err(other) => {
                            panic!("unexpected error under {fault:?} (seed {seed}): {other}")
                        }
                    }
                    assert!(
                        super::same_instance(&input, &snapshot),
                        "fault run modified the caller's input ({fault:?}, seed {seed})"
                    );
                }
            }
        }
    }

    #[test]
    fn alloc_and_panic_faults_degrade_to_the_naive_engine() {
        // On the chase-heavy transitive setting the step-indexed faults
        // always fire in the semi-naive engine; the retry on the naive
        // oracle engine must still produce the true answer.
        let setting = super::transitive_setting();
        let input = super::cycle_input(&setting, 5);
        let plan = SolvePlan::for_setting(&setting);
        let oracle = decide(&setting, &input).unwrap();
        assert_eq!(oracle.exists, Some(true));
        for fault in [
            FaultPlan {
                fail_alloc_at_step: Some(1),
                ..FaultPlan::default()
            },
            FaultPlan {
                panic_in_trigger_at_step: Some(1),
                ..FaultPlan::default()
            },
        ] {
            let governor = peer_data_exchange::runtime::Governor::with_faults(
                GovernorConfig::default(),
                fault.clone(),
            );
            let report =
                decide_governed_scheduled(&setting, &input, &plan, None, &governor).unwrap();
            assert_eq!(report.exists, oracle.exists, "under {fault:?}");
            assert!(report.engine_fallback, "retry expected under {fault:?}");
        }
    }
}
