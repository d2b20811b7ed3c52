//! The chase engines: standard chase and the solution-aware chase of the
//! paper (Definitions 6–7), each available in two implementations.
//!
//! Both share the restricted-chase semantics: repeatedly find an *active
//! trigger* — a premise homomorphism with no conclusion extension (tgd), or
//! one separating the equated variables (egd) — and apply the corresponding
//! step. Where a tgd step's existential witnesses come from is orthogonal:
//!
//! * **standard** ([`WitnessMode::FreshNulls`]): mint a fresh labeled null
//!   per existential variable — the \[FKMP\] chase; results are universal.
//! * **solution-aware** ([`WitnessMode::FromSolution`]): pick witnesses
//!   from a supplied instance `K'` that contains the chased instance and
//!   satisfies the tgds (paper Def. 6). The chase then stays inside `K'`,
//!   which is how Lemma 2 extracts a polynomial-size sub-solution.
//!
//! Two engines implement the loop (see `docs/CHASE.md` for the full
//! design):
//!
//! * [`ChaseEngine::Seminaive`] (what [`default_chase_engine`] returns,
//!   so what [`chase`] and every production caller run): rows
//!   carry insertion epochs; each round only enumerates premise
//!   homomorphisms touching the previous round's delta
//!   ([`pde_relational::for_each_hom_seminaive`]), feeding a per-dependency
//!   trigger worklist. The seed round fires everything once. Egd
//!   violations of a round are batched in a
//!   [`pde_relational::ValueUnionFind`] and applied as one targeted
//!   rewrite per round. Egds that are functional dependencies
//!   ([`Egd::key_shape`]) find their violations by key-column probes
//!   ([`pde_relational::for_each_key_pair_seminaive`]) in the generic
//!   search's exact match order.
//! * [`ChaseEngine::Naive`]: re-enumerates every trigger over the entire
//!   instance each round and rewrites the instance once per egd merge.
//!   Kept as the differential-testing oracle and as the one-shot retry
//!   target after a panic in the solver; callers pass it explicitly to
//!   [`chase_governed_with`].
//!
//! Both produce the same `StepRecord` provenance shape, respect the same
//! [`ChaseLimits`] semantics, and agree up to null renaming (enforced by
//! the `naive_and_seminaive_chase_agree` property test).

use crate::result::{ChaseLimits, ChaseOutcome, ChaseResult, ChaseStats, StepRecord};
use crate::satisfy;
use pde_constraints::{Dependency, Egd, Tgd};
use pde_relational::{
    exists_hom, find_hom, for_each_hom, for_each_hom_seminaive, for_each_key_pair_seminaive,
    Assignment, Instance, KeyShape, NullGen, Tuple, Value, ValueUnionFind,
};
use pde_runtime::{Governor, StopReason};
use std::ops::ControlFlow;
use std::time::Instant;

/// Where tgd steps obtain witnesses for existential variables.
#[derive(Clone, Copy)]
pub enum WitnessMode<'a> {
    /// Mint fresh labeled nulls from the generator.
    FreshNulls(&'a NullGen),
    /// Draw witnesses from a given instance that contains the chased
    /// instance and satisfies the tgds (solution-aware chase, Def. 6).
    FromSolution(&'a Instance),
}

/// Which implementation [`chase_governed_with`] dispatches to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaseEngine {
    /// Re-enumerate every trigger over the full instance each round;
    /// rewrite the whole instance per egd merge.
    Naive,
    /// Delta-driven trigger discovery over insertion epochs with
    /// union-find egd batching (the default).
    Seminaive,
}

/// A stratified execution order over a dependency list, as produced by
/// the optimizer's interference analysis (`pde-analysis`'s
/// `forward_schedule`). Indices refer to positions in the `deps` slice
/// handed to the chase; each stratum is run to its own semi-naive
/// fixpoint before the next stratum starts. Soundness rests on the
/// producer guaranteeing that no dependency in a later stratum writes a
/// relation position read by an earlier stratum — then the per-stratum
/// fixpoints compose to the global fixpoint, and the later strata never
/// reopen earlier ones (these strata are the planned parallel shards of
/// the parallel-chase roadmap item).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DepSchedule {
    /// Strata of dependency indices, executed in order.
    pub strata: Vec<Vec<usize>>,
}

impl DepSchedule {
    /// The trivial schedule: one stratum containing every index in order.
    /// Chasing under it is identical to chasing unscheduled.
    pub fn single(n: usize) -> DepSchedule {
        DepSchedule {
            strata: vec![(0..n).collect()],
        }
    }

    /// Number of strata.
    pub fn strata_count(&self) -> usize {
        self.strata.len()
    }

    /// Does this schedule cover each of `0..n` exactly once?
    pub fn is_partition_of(&self, n: usize) -> bool {
        let mut hit = vec![false; n];
        let mut count = 0usize;
        for &i in self.strata.iter().flatten() {
            if i >= n || hit[i] {
                return false;
            }
            hit[i] = true;
            count += 1;
        }
        count == n
    }
}

/// The engine every production path runs: the semi-naive one. The naive
/// engine is only ever requested explicitly.
pub const fn default_chase_engine() -> ChaseEngine {
    ChaseEngine::Seminaive
}

/// Chase under an explicit engine and runtime [`Governor`].
///
/// The governor is consulted at every round (deadline / memory budget /
/// cancellation) and at every tgd application (fault-injection points);
/// a tripped budget ends the run with [`ChaseOutcome::Stopped`] carrying
/// the [`StopReason`]. The input `instance` is consumed — a stopped
/// result's `instance` field is a best-effort snapshot, and callers that
/// must not observe partial work simply keep their own copy (the solvers
/// pass clones).
pub fn chase_governed_with(
    instance: Instance,
    deps: &[Dependency],
    mode: WitnessMode<'_>,
    limits: ChaseLimits,
    engine: ChaseEngine,
    governor: &Governor,
) -> ChaseResult {
    chase_governed_scheduled(instance, deps, mode, limits, engine, governor, None)
    // Governor-derived numbers (peak bytes, cancellations, deadline
    // remaining) are no longer copied into `ChaseStats`: they live in the
    // report layer (`Governor::report` / the run-report metrics registry),
    // which cannot double-count when several chases share one governor.
}

/// [`chase_governed_with`] with an optional stratified execution
/// [`DepSchedule`]. Only the semi-naive engine consumes the schedule; the
/// naive engine is the differential-testing oracle and deliberately runs
/// unscheduled (its full re-enumeration reaches the same fixpoint either
/// way). `None` behaves exactly like the unscheduled entry points.
pub fn chase_governed_scheduled(
    instance: Instance,
    deps: &[Dependency],
    mode: WitnessMode<'_>,
    limits: ChaseLimits,
    engine: ChaseEngine,
    governor: &Governor,
    schedule: Option<&DepSchedule>,
) -> ChaseResult {
    match engine {
        ChaseEngine::Naive => chase_naive_governed(instance, deps, mode, limits, governor),
        ChaseEngine::Seminaive => {
            chase_incremental_governed(instance, deps, mode, limits, governor, schedule, 0)
        }
    }
}

/// The semi-naive chase, resuming from an epoch watermark instead of the
/// seed round (the [`ChaseEngine::Seminaive`] worker, which
/// [`chase_governed_scheduled`] runs with watermark `0`).
///
/// `initial_since` is the epoch the first delta window opens at: trigger
/// discovery only enumerates premise homomorphisms touching at least one
/// fact inserted at or after it. `0` is the ordinary full chase.
///
/// # Precondition
/// A non-zero watermark asserts that the sub-instance of facts older than
/// `initial_since` already satisfies **every** dependency in `deps` (it is
/// the fixpoint of a previous chase). Under that precondition the skipped
/// all-old triggers are exactly the already-satisfied ones, so the
/// incremental run reaches the same fixpoint as a fresh chase of the whole
/// instance — this is what `pde serve` relies on to re-chase inserts off
/// epoch deltas instead of from scratch. Violating the precondition
/// (e.g. after a retraction, which can *un*-satisfy old triggers'
/// conclusions) silently under-chases: retracts must fall back to a full
/// re-chase.
///
/// With [`WitnessMode::FreshNulls`], pass a generator seeded above the
/// instance's existing nulls ([`null_gen_for`]) or witnesses may collide
/// with recovered ones.
pub fn chase_incremental_governed(
    mut instance: Instance,
    deps: &[Dependency],
    mode: WitnessMode<'_>,
    limits: ChaseLimits,
    governor: &Governor,
    schedule: Option<&DepSchedule>,
    initial_since: u64,
) -> ChaseResult {
    // An incremental window is only sound on top of a full-deps fixpoint;
    // a schedule still partitions the same deps (checked below), so each
    // stratum may open at the watermark too.
    if let Some(s) = schedule {
        assert!(
            s.is_partition_of(deps.len()),
            "schedule must partition the dependency indices 0..{}",
            deps.len()
        );
    }
    let single;
    let strata: &[Vec<usize>] = match schedule {
        Some(s) => &s.strata,
        None => {
            single = DepSchedule::single(deps.len());
            &single.strata
        }
    };
    // Egds that are functional dependencies take the key-column pass.
    let key_shapes: Vec<Option<KeyShape>> = deps
        .iter()
        .map(|d| d.as_egd().and_then(Egd::key_shape))
        .collect();
    let mut steps = 0usize;
    let mut tgd_steps = 0usize;
    let mut egd_steps = 0usize;
    let mut log: Vec<StepRecord> = Vec::new();
    let mut stats = ChaseStats::default();
    // Premise matches seen so far per dependency: what the naive engine
    // would re-enumerate every subsequent round.
    let mut seen: Vec<usize> = vec![0; deps.len()];

    for stratum in strata {
        // Each stratum re-seeds its delta window at the watermark: its
        // first round enumerates everything at or after it (for a full
        // chase, the whole instance — exactly like the seed round of an
        // unscheduled chase), picking up everything earlier strata
        // produced.
        let mut since: u64 = initial_since;
        'outer: loop {
            if steps >= limits.max_steps || instance.fact_count() >= limits.max_facts {
                return ChaseResult {
                    outcome: ChaseOutcome::ResourceExceeded,
                    instance,
                    steps,
                    tgd_steps,
                    egd_steps,
                    log,
                    stats,
                };
            }
            if let Err(reason) = governor.on_round(stats.rounds + 1, instance.heap_bytes()) {
                return ChaseResult {
                    outcome: ChaseOutcome::Stopped { reason },
                    instance,
                    steps,
                    tgd_steps,
                    egd_steps,
                    log,
                    stats,
                };
            }
            let cur = instance.bump_epoch();
            stats.rounds += 1;
            let round_start = Instant::now();
            let _round_span = pde_trace::span("chase.round")
                .field("engine", "seminaive")
                .field("round", stats.rounds)
                .field("facts", instance.fact_count());
            let mut progressed = false;
            for &i in stratum {
                let dep = &deps[i];
                stats.skipped_by_delta += seen[i];
                match dep {
                    Dependency::Tgd(tgd) => {
                        let mut dep_span = pde_trace::span("chase.trigger")
                            .field("engine", "seminaive")
                            .field("dep", i)
                            .field("round", stats.rounds);
                        let fired_before = stats.triggers_fired;
                        let mut work: Vec<Assignment> = Vec::new();
                        let mut found_now = 0usize;
                        if tgd.premise.atoms.is_empty() {
                            // The empty homomorphism touches no fact, so the
                            // delta search would never surface it; check it on
                            // the seed round, where everything fires once.
                            if since == 0 {
                                found_now += 1;
                                if exists_hom(&tgd.conclusion.atoms, &instance, &Assignment::new())
                                {
                                    stats.triggers_satisfied += 1;
                                } else {
                                    work.push(Assignment::new());
                                }
                            }
                        } else {
                            let _ = for_each_hom_seminaive(
                                &tgd.premise.atoms,
                                &instance,
                                &Assignment::new(),
                                since,
                                cur,
                                |h| {
                                    found_now += 1;
                                    if exists_hom(&tgd.conclusion.atoms, &instance, h) {
                                        stats.triggers_satisfied += 1;
                                    } else {
                                        work.push(h.clone());
                                    }
                                    ControlFlow::Continue(())
                                },
                            );
                        }
                        stats.triggers_found += found_now;
                        seen[i] += found_now;
                        dep_span.record_field("found", found_now);
                        for h in work {
                            if steps >= limits.max_steps
                                || instance.fact_count() >= limits.max_facts
                            {
                                continue 'outer; // limit check at loop head
                            }
                            // Re-check: an earlier application may have
                            // satisfied this trigger.
                            if exists_hom(&tgd.conclusion.atoms, &instance, &h) {
                                stats.triggers_satisfied += 1;
                                continue;
                            }
                            governor.on_trigger(steps);
                            if let Err(reason) = governor.on_alloc(steps) {
                                return ChaseResult {
                                    outcome: ChaseOutcome::Stopped { reason },
                                    instance,
                                    steps,
                                    tgd_steps,
                                    egd_steps,
                                    log,
                                    stats,
                                };
                            }
                            let new_facts = apply_tgd_step(&mut instance, tgd, &h, mode);
                            log.push(StepRecord::Tgd {
                                dep_index: i,
                                new_facts,
                            });
                            steps += 1;
                            tgd_steps += 1;
                            stats.triggers_fired += 1;
                            progressed = true;
                        }
                        dep_span.record_field("fired", stats.triggers_fired - fired_before);
                    }
                    Dependency::Egd(egd) => {
                        let key_shape = key_shapes[i].as_ref();
                        let mut egd_span = pde_trace::span("egd.merge")
                            .field("engine", "seminaive")
                            .field("dep", i)
                            .field("round", stats.rounds)
                            .field("path", if key_shape.is_some() { "key" } else { "hom" });
                        let merges_before = stats.egd_merges;
                        let mut uf = ValueUnionFind::new();
                        let mut conflict = false;
                        let mut found_now = 0usize;
                        let mut on_pair = |l: Value, r: Value| {
                            found_now += 1;
                            // Already one class: the union would be a no-op.
                            if l == r {
                                return ControlFlow::Continue(());
                            }
                            match uf.union(l, r) {
                                Ok(Some((from, to))) => {
                                    log.push(StepRecord::Egd {
                                        dep_index: i,
                                        from,
                                        to,
                                    });
                                    steps += 1;
                                    egd_steps += 1;
                                    stats.egd_merges += 1;
                                    progressed = true;
                                    if steps >= limits.max_steps {
                                        return ControlFlow::Break(());
                                    }
                                    ControlFlow::Continue(())
                                }
                                Ok(None) => ControlFlow::Continue(()),
                                Err(_) => {
                                    conflict = true;
                                    ControlFlow::Break(())
                                }
                            }
                        };
                        let _ = match key_shape {
                            Some(shape) => for_each_key_pair_seminaive(
                                instance.relation(shape.rel),
                                shape,
                                since,
                                cur,
                                on_pair,
                            ),
                            None => for_each_hom_seminaive(
                                &egd.premise.atoms,
                                &instance,
                                &Assignment::new(),
                                since,
                                cur,
                                |h| {
                                    on_pair(
                                        h.get(egd.lhs).expect("egd lhs bound by premise"),
                                        h.get(egd.rhs).expect("egd rhs bound by premise"),
                                    )
                                },
                            ),
                        };
                        stats.triggers_found += found_now;
                        seen[i] += found_now;
                        egd_span.record_field("found", found_now);
                        egd_span.record_field("merges", stats.egd_merges - merges_before);
                        if conflict {
                            return ChaseResult {
                                outcome: ChaseOutcome::Failure { dep_index: i },
                                instance,
                                steps: steps + 1,
                                tgd_steps,
                                egd_steps: egd_steps + 1,
                                log,
                                stats,
                            };
                        }
                        // One targeted rewrite applies every merge of this
                        // round; rewritten facts land in the next delta.
                        instance.apply_merges(&uf);
                        if steps >= limits.max_steps {
                            continue 'outer;
                        }
                    }
                }
            }
            stats
                .round_ns
                .record(u64::try_from(round_start.elapsed().as_nanos()).unwrap_or(u64::MAX));
            if !progressed {
                // Stratum fixpoint reached; move on to the next stratum.
                break;
            }
            since = cur;
        }
    }
    ChaseResult {
        outcome: ChaseOutcome::Success,
        instance,
        steps,
        tgd_steps,
        egd_steps,
        log,
        stats,
    }
}

/// The naive chase: every round re-enumerates every premise homomorphism
/// over the entire instance, and each egd merge rewrites the instance
/// immediately (the [`ChaseEngine::Naive`] worker).
fn chase_naive_governed(
    mut instance: Instance,
    deps: &[Dependency],
    mode: WitnessMode<'_>,
    limits: ChaseLimits,
    governor: &Governor,
) -> ChaseResult {
    let mut steps = 0usize;
    let mut tgd_steps = 0usize;
    let mut egd_steps = 0usize;
    let mut log: Vec<StepRecord> = Vec::new();
    let mut stats = ChaseStats::default();
    let mut stopped: Option<StopReason> = None;

    'outer: loop {
        // A mid-round governor stop takes precedence over the counter
        // limits: both are honest "undecided" endings, but the stop
        // carries the reason the caller asked for.
        if stopped.is_none() {
            if let Err(reason) = governor.on_round(stats.rounds + 1, instance.heap_bytes()) {
                stopped = Some(reason);
            }
        }
        if let Some(reason) = stopped.take() {
            return ChaseResult {
                outcome: ChaseOutcome::Stopped { reason },
                instance,
                steps,
                tgd_steps,
                egd_steps,
                log,
                stats,
            };
        }
        if steps >= limits.max_steps || instance.fact_count() >= limits.max_facts {
            return ChaseResult {
                outcome: ChaseOutcome::ResourceExceeded,
                instance,
                steps,
                tgd_steps,
                egd_steps,
                log,
                stats,
            };
        }
        stats.rounds += 1;
        let round_start = Instant::now();
        let _round_span = pde_trace::span("chase.round")
            .field("engine", "naive")
            .field("round", stats.rounds)
            .field("facts", instance.fact_count());
        let mut progressed = false;
        for (i, dep) in deps.iter().enumerate() {
            match dep {
                Dependency::Tgd(tgd) => {
                    let applied = apply_tgd_round(
                        &mut instance,
                        i,
                        tgd,
                        mode,
                        limits,
                        governor,
                        &mut stopped,
                        &mut steps,
                        &mut log,
                        &mut stats,
                    );
                    if applied > 0 {
                        tgd_steps += applied;
                        progressed = true;
                    }
                    if stopped.is_some() {
                        continue 'outer; // surfaced by the loop-head check
                    }
                    if steps >= limits.max_steps || instance.fact_count() >= limits.max_facts {
                        continue 'outer; // limit check at loop head
                    }
                }
                Dependency::Egd(egd) => {
                    let mut egd_span = pde_trace::span("egd.merge")
                        .field("engine", "naive")
                        .field("dep", i)
                        .field("round", stats.rounds);
                    let merges_before = stats.egd_merges;
                    loop {
                        match apply_one_egd(&mut instance, egd) {
                            EgdStep::None => break,
                            EgdStep::Merged { from, to } => {
                                steps += 1;
                                egd_steps += 1;
                                stats.egd_merges += 1;
                                stats.triggers_found += 1;
                                progressed = true;
                                log.push(StepRecord::Egd {
                                    dep_index: i,
                                    from,
                                    to,
                                });
                                if steps >= limits.max_steps {
                                    continue 'outer;
                                }
                            }
                            EgdStep::Failure => {
                                return ChaseResult {
                                    outcome: ChaseOutcome::Failure { dep_index: i },
                                    instance,
                                    steps: steps + 1,
                                    tgd_steps,
                                    egd_steps: egd_steps + 1,
                                    log,
                                    stats,
                                };
                            }
                        }
                    }
                    egd_span.record_field("merges", stats.egd_merges - merges_before);
                }
            }
        }
        stats
            .round_ns
            .record(u64::try_from(round_start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        if !progressed {
            return ChaseResult {
                outcome: ChaseOutcome::Success,
                instance,
                steps,
                tgd_steps,
                egd_steps,
                log,
                stats,
            };
        }
    }
}

/// Apply every *currently active* trigger of `tgd` once (re-validating each
/// before application, since earlier applications may have satisfied it).
/// Returns the number of steps applied; a governor stop is reported
/// through `stopped` and ends the batch early. (Naive engine only.)
#[allow(clippy::too_many_arguments)]
fn apply_tgd_round(
    instance: &mut Instance,
    dep_index: usize,
    tgd: &Tgd,
    mode: WitnessMode<'_>,
    limits: ChaseLimits,
    governor: &Governor,
    stopped: &mut Option<StopReason>,
    steps: &mut usize,
    log: &mut Vec<StepRecord>,
    stats: &mut ChaseStats,
) -> usize {
    let mut dep_span = pde_trace::span("chase.trigger")
        .field("engine", "naive")
        .field("dep", dep_index)
        .field("round", stats.rounds);
    // Collect the active triggers against the current instance. Triggers
    // stay valid under insertions (homomorphisms are monotone), so batch
    // collection is sound in a round without egd steps.
    let mut triggers: Vec<Assignment> = Vec::new();
    let found_before = stats.triggers_found;
    let _ = for_each_hom(&tgd.premise.atoms, instance, &Assignment::new(), |h| {
        stats.triggers_found += 1;
        if exists_hom(&tgd.conclusion.atoms, instance, h) {
            stats.triggers_satisfied += 1;
        } else {
            triggers.push(h.clone());
        }
        ControlFlow::Continue(())
    });
    dep_span.record_field("found", stats.triggers_found - found_before);
    let mut applied = 0usize;
    for h in triggers {
        if *steps >= limits.max_steps || instance.fact_count() >= limits.max_facts {
            break;
        }
        // Re-check: a previous application may have satisfied this trigger.
        if exists_hom(&tgd.conclusion.atoms, instance, &h) {
            stats.triggers_satisfied += 1;
            continue;
        }
        governor.on_trigger(*steps);
        if let Err(reason) = governor.on_alloc(*steps) {
            *stopped = Some(reason);
            break;
        }
        let new_facts = apply_tgd_step(instance, tgd, &h, mode);
        log.push(StepRecord::Tgd {
            dep_index,
            new_facts,
        });
        *steps += 1;
        applied += 1;
        stats.triggers_fired += 1;
    }
    dep_span.record_field("fired", applied);
    applied
}

/// Apply one tgd step for trigger `h`; returns the number of new facts.
fn apply_tgd_step(
    instance: &mut Instance,
    tgd: &Tgd,
    h: &Assignment,
    mode: WitnessMode<'_>,
) -> usize {
    let mut ext = h.clone();
    match mode {
        WitnessMode::FreshNulls(gen) => {
            for v in &tgd.existentials {
                ext.bind(*v, Value::Null(gen.fresh()));
            }
        }
        WitnessMode::FromSolution(solution) => {
            // The premise image lies inside `solution` (it contains the
            // chased instance), and `solution` satisfies the tgd, so an
            // extension into `solution` exists; use its witnesses.
            let w = find_hom(&tgd.conclusion.atoms, solution, h).expect(
                "solution-aware chase: supplied instance does not satisfy the tgd \
                 (violates Def. 6's precondition)",
            );
            for v in &tgd.existentials {
                ext.bind(*v, w.get(*v).expect("extension binds existentials"));
            }
        }
    }
    let mut new_facts = 0usize;
    for atom in &tgd.conclusion.atoms {
        let vals = atom
            .ground(&|v| ext.get(v))
            .expect("conclusion fully bound after extension");
        if instance.insert(atom.rel, Tuple::new(vals)) {
            new_facts += 1;
        }
    }
    new_facts
}

enum EgdStep {
    None,
    Merged { from: Value, to: Value },
    Failure,
}

/// Find and apply one egd violation; substitutions invalidate other
/// outstanding homomorphisms, so egds are applied one at a time.
/// (Naive engine only.)
fn apply_one_egd(instance: &mut Instance, egd: &Egd) -> EgdStep {
    let Some(h) = satisfy::find_egd_violation(instance, egd) else {
        return EgdStep::None;
    };
    let l = h
        .get(egd.lhs)
        .expect("egd lhs bound: violation hom covers the premise");
    let r = h
        .get(egd.rhs)
        .expect("egd rhs bound: violation hom covers the premise");
    match (l, r) {
        (Value::Const(_), Value::Const(_)) => EgdStep::Failure,
        (Value::Null(_), _) => {
            instance.substitute(l, r);
            EgdStep::Merged { from: l, to: r }
        }
        (_, Value::Null(_)) => {
            instance.substitute(r, l);
            EgdStep::Merged { from: r, to: l }
        }
    }
}

/// Standard chase with fresh nulls and default limits (default engine).
pub fn chase(instance: Instance, deps: &[Dependency], gen: &NullGen) -> ChaseResult {
    chase_governed_with(
        instance,
        deps,
        WitnessMode::FreshNulls(gen),
        ChaseLimits::default(),
        default_chase_engine(),
        &Governor::unlimited(),
    )
}

/// Chase with tgds only (no failure possible; outcome is success or
/// resource-exceeded).
pub fn chase_tgds(instance: Instance, tgds: &[Tgd], gen: &NullGen) -> ChaseResult {
    chase_tgds_governed(
        instance,
        tgds,
        gen,
        default_chase_engine(),
        &Governor::unlimited(),
    )
}

/// [`chase_tgds`] under an explicit engine and runtime governor (default
/// limits). Solvers route their internal chases through this so a single
/// governor bounds a whole solve.
pub fn chase_tgds_governed(
    instance: Instance,
    tgds: &[Tgd],
    gen: &NullGen,
    engine: ChaseEngine,
    governor: &Governor,
) -> ChaseResult {
    let deps: Vec<Dependency> = tgds.iter().cloned().map(Dependency::Tgd).collect();
    chase_governed_with(
        instance,
        &deps,
        WitnessMode::FreshNulls(gen),
        ChaseLimits::default(),
        engine,
        governor,
    )
}

/// Solution-aware chase (paper Def. 7): chase `instance` with `deps`
/// drawing tgd witnesses from `solution`. The caller must ensure `solution`
/// contains `instance` and satisfies the tgds in `deps`.
pub fn solution_aware_chase(
    instance: Instance,
    deps: &[Dependency],
    solution: &Instance,
    limits: ChaseLimits,
) -> ChaseResult {
    chase_governed_with(
        instance,
        deps,
        WitnessMode::FromSolution(solution),
        limits,
        default_chase_engine(),
        &Governor::unlimited(),
    )
}

/// Seed a null generator safely above every null already in `instance`.
pub fn null_gen_for(instance: &Instance) -> NullGen {
    NullGen::starting_at(instance.max_null_id().map_or(0, |m| m + 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::satisfy::{satisfies_all, satisfies_all_tgds};
    use pde_constraints::{parse_dependencies, parse_tgds};
    use pde_relational::{instances_isomorphic, parse_instance, parse_schema, Schema};
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Arc::new(parse_schema("source E/2; target H/2; target K/2;").unwrap())
    }

    #[test]
    fn full_tgd_chase_reaches_fixpoint() {
        let s = schema();
        let tgds = parse_tgds(&s, "E(x, z), E(z, y) -> H(x, y)").unwrap();
        let inst = parse_instance(&s, "E(a, b). E(b, c). E(c, d).").unwrap();
        let gen = NullGen::new();
        let res = chase_tgds(inst, &tgds, &gen);
        assert!(res.is_success());
        let out = res.instance;
        let h = s.rel_id("H").unwrap();
        assert_eq!(out.relation(h).len(), 2); // (a,c), (b,d)
        assert!(satisfies_all_tgds(&out, &tgds));
        assert!(out.is_ground());
    }

    #[test]
    fn existential_tgd_creates_nulls() {
        let s = schema();
        let tgds = parse_tgds(&s, "E(x, y) -> exists z . H(x, z), K(z, y)").unwrap();
        let inst = parse_instance(&s, "E(a, b).").unwrap();
        let gen = NullGen::new();
        let res = chase_tgds(inst, &tgds, &gen);
        assert!(res.is_success());
        let out = res.instance;
        assert_eq!(out.fact_count(), 3);
        assert_eq!(out.nulls().len(), 1);
        assert!(satisfies_all_tgds(&out, &tgds));
    }

    #[test]
    fn restricted_chase_skips_satisfied_triggers() {
        let s = schema();
        let tgds = parse_tgds(&s, "E(x, y) -> exists z . H(x, z)").unwrap();
        // H(a, q) already witnesses E(a, b): no step needed.
        let inst = parse_instance(&s, "E(a, b). H(a, q).").unwrap();
        let gen = NullGen::new();
        let res = chase_tgds(inst, &tgds, &gen);
        assert!(res.is_success());
        assert_eq!(res.steps, 0);
        assert_eq!(res.instance.nulls().len(), 0);
    }

    #[test]
    fn egd_merges_null_with_constant() {
        let s = schema();
        let deps = parse_dependencies(
            &s,
            "E(x, y) -> exists z . H(x, z); H(x, y), H(x, z) -> y = z",
        )
        .unwrap();
        let inst = parse_instance(&s, "E(a, b). H(a, c).").unwrap();
        let gen = NullGen::new();
        let res = chase(inst, &deps, &gen);
        assert!(res.is_success());
        let out = res.instance;
        let h = s.rel_id("H").unwrap();
        // Either zero steps (restricted chase sees H(a,c) as witness) or
        // the created null merges into c — both leave exactly H(a, c).
        assert_eq!(out.relation(h).len(), 1);
        assert!(out.is_ground());
        assert!(satisfies_all(&out, &deps));
    }

    #[test]
    fn egd_on_two_constants_fails() {
        let s = schema();
        let deps = parse_dependencies(&s, "H(x, y), H(x, z) -> y = z").unwrap();
        let inst = parse_instance(&s, "H(a, b). H(a, c).").unwrap();
        let gen = NullGen::new();
        let res = chase(inst, &deps, &gen);
        assert!(res.is_failure());
        assert_eq!(res.outcome, ChaseOutcome::Failure { dep_index: 0 });
    }

    #[test]
    fn egd_merges_two_nulls() {
        let s = schema();
        let deps = parse_dependencies(
            &s,
            "E(x, y) -> exists z . H(x, z); E(x, y) -> exists w . K(x, w); \
             H(x, y), K(x, z) -> y = z",
        )
        .unwrap();
        let inst = parse_instance(&s, "E(a, b).").unwrap();
        let gen = NullGen::new();
        let res = chase(inst, &deps, &gen);
        assert!(res.is_success());
        let out = res.instance;
        assert_eq!(out.nulls().len(), 1, "the two nulls merged");
        assert!(satisfies_all(&out, &deps));
    }

    #[test]
    fn divergent_chase_hits_limit() {
        let s = Arc::new(parse_schema("target A/2;").unwrap());
        let mut a = Instance::new(s.clone());
        a.insert_consts("A", ["x", "y"]);
        let tgds = parse_tgds(&s, "A(x, y) -> exists z . A(y, z)").unwrap();
        let deps: Vec<Dependency> = tgds.into_iter().map(Dependency::Tgd).collect();
        let gen = NullGen::new();
        let res = chase_governed_with(
            a,
            &deps,
            WitnessMode::FreshNulls(&gen),
            ChaseLimits::tight(50),
            ChaseEngine::Seminaive,
            &Governor::unlimited(),
        );
        assert_eq!(res.outcome, ChaseOutcome::ResourceExceeded);
        assert!(res.steps >= 50);
    }

    #[test]
    fn solution_aware_chase_stays_inside_solution() {
        let s = schema();
        let tgds = parse_tgds(&s, "E(x, y) -> exists z . H(x, z)").unwrap();
        let deps: Vec<Dependency> = tgds.iter().cloned().map(Dependency::Tgd).collect();
        let inst = parse_instance(&s, "E(a, b).").unwrap();
        // A "solution" containing inst and satisfying the tgd.
        let solution = parse_instance(&s, "E(a, b). H(a, w1). H(a, w2).").unwrap();
        let res = solution_aware_chase(inst, &deps, &solution, ChaseLimits::default());
        assert!(res.is_success());
        let out = res.instance;
        assert!(out.contained_in(&solution), "chase stayed inside K'");
        assert!(out.is_ground(), "witnesses come from K', not fresh nulls");
        assert!(satisfies_all_tgds(&out, &tgds));
        // Exactly one witness used, not both (minimality of the chase).
        let h = s.rel_id("H").unwrap();
        assert_eq!(out.relation(h).len(), 1);
    }

    #[test]
    #[should_panic(expected = "does not satisfy the tgd")]
    fn solution_aware_chase_validates_precondition() {
        let s = schema();
        let tgds = parse_tgds(&s, "E(x, y) -> exists z . H(x, z)").unwrap();
        let deps: Vec<Dependency> = tgds.iter().cloned().map(Dependency::Tgd).collect();
        let inst = parse_instance(&s, "E(a, b).").unwrap();
        let bogus = parse_instance(&s, "E(a, b).").unwrap(); // no H witness
        let _ = solution_aware_chase(inst, &deps, &bogus, ChaseLimits::default());
    }

    #[test]
    fn provenance_log_records_every_step() {
        let s = schema();
        let deps = parse_dependencies(
            &s,
            "E(x, y) -> exists z . H(x, z); H(x, y), H(x, z) -> y = z",
        )
        .unwrap();
        let inst = parse_instance(&s, "E(a, b). E(a, c). H(a, q).").unwrap();
        let gen = NullGen::new();
        let res = chase(inst, &deps, &gen);
        assert!(res.is_success());
        assert_eq!(res.log.len(), res.steps);
        let tgd_recs = res
            .log
            .iter()
            .filter(|r| matches!(r, crate::result::StepRecord::Tgd { .. }))
            .count();
        let egd_recs = res.log.len() - tgd_recs;
        assert_eq!(tgd_recs, res.tgd_steps);
        assert_eq!(egd_recs, res.egd_steps);
        // Dependency indexes point into the chased list.
        for r in &res.log {
            match r {
                crate::result::StepRecord::Tgd {
                    dep_index,
                    new_facts,
                } => {
                    assert_eq!(*dep_index, 0);
                    assert!(*new_facts <= 1);
                }
                crate::result::StepRecord::Egd {
                    dep_index,
                    from,
                    to,
                } => {
                    assert_eq!(*dep_index, 1);
                    assert!(from.is_null() || to.is_null());
                }
            }
        }
    }

    #[test]
    fn chase_without_steps_has_empty_log() {
        let s = schema();
        let tgds = parse_tgds(&s, "E(x, y) -> exists z . H(x, z)").unwrap();
        let inst = parse_instance(&s, "E(a, b). H(a, w).").unwrap();
        let gen = NullGen::new();
        let res = chase_tgds(inst, &tgds, &gen);
        assert!(res.log.is_empty());
    }

    #[test]
    fn null_gen_for_avoids_collisions() {
        let s = schema();
        let inst = parse_instance(&s, "H(?5, a).").unwrap();
        let gen = null_gen_for(&inst);
        assert_eq!(gen.fresh().0, 6);
    }

    #[test]
    fn chase_is_idempotent_on_satisfied_instances() {
        let s = schema();
        let tgds = parse_tgds(&s, "E(x, z), E(z, y) -> H(x, y)").unwrap();
        let inst = parse_instance(&s, "E(a, b). E(b, c).").unwrap();
        let gen = NullGen::new();
        let once = chase_tgds(inst, &tgds, &gen).into_success().unwrap();
        let twice = chase_tgds(once.clone(), &tgds, &gen)
            .into_success()
            .unwrap();
        assert!(once.same_facts(&twice));
    }

    #[test]
    fn engines_agree_on_fixtures() {
        let s = schema();
        let cases = [
            (
                "E(x, z), E(z, y) -> H(x, y)",
                "E(a, b). E(b, c). E(c, d). E(d, a).",
            ),
            (
                "E(x, y) -> exists z . H(x, z), K(z, y); H(x, y), H(x, z) -> y = z",
                "E(a, b). E(a, c). E(b, b).",
            ),
            (
                "E(x, y) -> exists z . H(x, z); E(x, y) -> exists w . K(x, w); \
                 H(x, y), K(x, z) -> y = z",
                "E(a, b). E(c, d).",
            ),
        ];
        for (deps_src, inst_src) in cases {
            let deps = parse_dependencies(&s, deps_src).unwrap();
            let inst = parse_instance(&s, inst_src).unwrap();
            let naive = chase_governed_with(
                inst.clone(),
                &deps,
                WitnessMode::FreshNulls(&NullGen::new()),
                ChaseLimits::default(),
                ChaseEngine::Naive,
                &Governor::unlimited(),
            );
            let semi = chase_governed_with(
                inst,
                &deps,
                WitnessMode::FreshNulls(&NullGen::new()),
                ChaseLimits::default(),
                ChaseEngine::Seminaive,
                &Governor::unlimited(),
            );
            assert!(naive.is_success() && semi.is_success(), "{deps_src}");
            assert!(
                instances_isomorphic(&naive.instance, &semi.instance),
                "{deps_src}: {:?} vs {:?}",
                naive.instance,
                semi.instance
            );
        }
    }

    #[test]
    fn engines_agree_on_failing_egds() {
        let s = schema();
        let deps = parse_dependencies(&s, "E(x, y) -> H(x, y); H(x, y), H(x, z) -> y = z").unwrap();
        let inst = parse_instance(&s, "E(a, b). E(a, c).").unwrap();
        let naive = chase_governed_with(
            inst.clone(),
            &deps,
            WitnessMode::FreshNulls(&NullGen::new()),
            ChaseLimits::default(),
            ChaseEngine::Naive,
            &Governor::unlimited(),
        );
        let semi = chase_governed_with(
            inst,
            &deps,
            WitnessMode::FreshNulls(&NullGen::new()),
            ChaseLimits::default(),
            ChaseEngine::Seminaive,
            &Governor::unlimited(),
        );
        assert!(naive.is_failure());
        assert!(semi.is_failure());
        assert_eq!(semi.outcome, ChaseOutcome::Failure { dep_index: 1 });
    }

    #[test]
    fn incremental_chase_matches_a_fresh_rechase() {
        let s = schema();
        let deps = parse_dependencies(
            &s,
            "E(x, z), E(z, y) -> H(x, y); H(x, y) -> K(y, x); H(x, y), H(x, z) -> y = z",
        )
        .unwrap();
        // Chase a base to fixpoint, then insert new facts at a fresh epoch
        // and re-chase only off the delta.
        let base = parse_instance(&s, "E(a, b). E(b, c).").unwrap();
        let fixed = chase_governed_with(
            base,
            &deps,
            WitnessMode::FreshNulls(&NullGen::new()),
            ChaseLimits::default(),
            ChaseEngine::Seminaive,
            &Governor::unlimited(),
        );
        assert!(fixed.is_success());
        let mut grown = fixed.instance;
        let watermark = grown.bump_epoch();
        grown.insert_consts("E", ["c", "d"]);
        let gen = null_gen_for(&grown);
        let incremental = chase_incremental_governed(
            grown.clone(),
            &deps,
            WitnessMode::FreshNulls(&gen),
            ChaseLimits::default(),
            &Governor::unlimited(),
            None,
            watermark,
        );
        assert!(incremental.is_success());
        // Oracle: a fresh full chase of the grown base.
        let fresh_base = parse_instance(&s, "E(a, b). E(b, c). E(c, d).").unwrap();
        let fresh = chase_governed_with(
            fresh_base,
            &deps,
            WitnessMode::FreshNulls(&NullGen::new()),
            ChaseLimits::default(),
            ChaseEngine::Seminaive,
            &Governor::unlimited(),
        );
        assert!(fresh.is_success());
        assert!(
            instances_isomorphic(&incremental.instance, &fresh.instance),
            "{:?} vs {:?}",
            incremental.instance,
            fresh.instance
        );
        assert!(satisfies_all(&incremental.instance, &deps));
        // And the incremental run did less work than the fresh one: the
        // watermark skipped the already-fired base triggers.
        assert!(incremental.tgd_steps < fresh.tgd_steps);
    }

    #[test]
    fn seminaive_stats_count_rounds_and_delta_skips() {
        let s = schema();
        let tgds = parse_tgds(&s, "E(x, z), E(z, y) -> H(x, y)").unwrap();
        let deps: Vec<Dependency> = tgds.into_iter().map(Dependency::Tgd).collect();
        let inst = parse_instance(&s, "E(a, b). E(b, c). E(c, d).").unwrap();
        let res = chase_governed_with(
            inst,
            &deps,
            WitnessMode::FreshNulls(&NullGen::new()),
            ChaseLimits::default(),
            ChaseEngine::Seminaive,
            &Governor::unlimited(),
        );
        assert!(res.is_success());
        // Round 1 fires both path triggers; round 2's delta is H-only, so
        // the E-only premise is never re-enumerated.
        assert_eq!(res.stats.rounds, 2);
        assert_eq!(res.stats.triggers_found, 2);
        assert_eq!(res.stats.triggers_fired, 2);
        assert_eq!(res.stats.triggers_fired, res.tgd_steps);
        assert_eq!(res.stats.skipped_by_delta, 2);
        assert_eq!(res.stats.egd_merges, 0);
    }

    #[test]
    fn governed_chase_stops_on_deadline_and_keeps_input_unpoisoned() {
        use pde_runtime::{Governor, GovernorConfig};
        use std::time::Duration;
        let s = Arc::new(parse_schema("target A/2;").unwrap());
        let mut a = Instance::new(s.clone());
        a.insert_consts("A", ["x", "y"]);
        let tgds = parse_tgds(&s, "A(x, y) -> exists z . A(y, z)").unwrap();
        let deps: Vec<Dependency> = tgds.into_iter().map(Dependency::Tgd).collect();
        let gen = NullGen::new();
        let governor = Governor::new(GovernorConfig {
            deadline: Some(Duration::ZERO),
            ..GovernorConfig::default()
        });
        for engine in [ChaseEngine::Seminaive, ChaseEngine::Naive] {
            let res = chase_governed_with(
                a.clone(),
                &deps,
                WitnessMode::FreshNulls(&gen),
                ChaseLimits::default(),
                engine,
                &governor,
            );
            let ChaseOutcome::Stopped { reason } = &res.outcome else {
                panic!("expected a governed stop, got {:?}", res.outcome);
            };
            assert!(
                matches!(reason, pde_runtime::StopReason::DeadlineExceeded { .. }),
                "{reason:?}"
            );
            // The zero deadline trips before any step is applied.
            assert_eq!(res.steps, 0);
            // Governor-derived numbers live in the report layer now.
            assert!(governor.report().deadline_remaining.is_some());
        }
        // The caller's instance is untouched (engines consume clones).
        assert_eq!(a.fact_count(), 1);
    }

    #[test]
    fn governed_chase_stops_on_memory_budget() {
        use pde_runtime::{Governor, GovernorConfig, StopReason};
        let s = Arc::new(parse_schema("target A/2;").unwrap());
        let mut a = Instance::new(s.clone());
        a.insert_consts("A", ["x", "y"]);
        let tgds = parse_tgds(&s, "A(x, y) -> exists z . A(y, z)").unwrap();
        let deps: Vec<Dependency> = tgds.into_iter().map(Dependency::Tgd).collect();
        let gen = NullGen::new();
        let governor = Governor::new(GovernorConfig {
            memory_budget_bytes: Some(1),
            ..GovernorConfig::default()
        });
        let res = chase_governed_with(
            a,
            &deps,
            WitnessMode::FreshNulls(&gen),
            ChaseLimits::default(),
            ChaseEngine::Seminaive,
            &governor,
        );
        let ChaseOutcome::Stopped { reason } = res.outcome else {
            panic!("expected a governed stop, got {:?}", res.outcome);
        };
        assert!(matches!(reason, StopReason::MemoryExhausted { .. }));
        assert!(governor.report().peak_bytes > 1);
    }

    #[test]
    fn governed_chase_observes_cancellation() {
        use pde_runtime::{CancelToken, Governor, GovernorConfig, StopReason};
        let s = schema();
        let tgds = parse_tgds(&s, "E(x, z), E(z, y) -> H(x, y)").unwrap();
        let deps: Vec<Dependency> = tgds.into_iter().map(Dependency::Tgd).collect();
        let inst = parse_instance(&s, "E(a, b). E(b, c).").unwrap();
        let token = CancelToken::new();
        token.cancel();
        let governor = Governor::new(GovernorConfig {
            cancel: Some(token),
            ..GovernorConfig::default()
        });
        let res = chase_governed_with(
            inst,
            &deps,
            WitnessMode::FreshNulls(&NullGen::new()),
            ChaseLimits::default(),
            ChaseEngine::Seminaive,
            &governor,
        );
        assert_eq!(
            res.outcome,
            ChaseOutcome::Stopped {
                reason: StopReason::Cancelled
            }
        );
        assert!(governor.report().cancellations_observed >= 1);
    }

    #[test]
    fn unlimited_governor_changes_nothing() {
        let s = schema();
        let tgds = parse_tgds(&s, "E(x, z), E(z, y) -> H(x, y)").unwrap();
        let deps: Vec<Dependency> = tgds.into_iter().map(Dependency::Tgd).collect();
        let inst = parse_instance(&s, "E(a, b). E(b, c). E(c, d).").unwrap();
        let plain = chase_governed_with(
            inst.clone(),
            &deps,
            WitnessMode::FreshNulls(&NullGen::new()),
            ChaseLimits::default(),
            ChaseEngine::Seminaive,
            &Governor::unlimited(),
        );
        let governed = chase_governed_with(
            inst,
            &deps,
            WitnessMode::FreshNulls(&NullGen::new()),
            ChaseLimits::default(),
            ChaseEngine::Seminaive,
            &pde_runtime::Governor::unlimited(),
        );
        assert!(plain.is_success() && governed.is_success());
        assert!(plain.instance.same_facts(&governed.instance));
        assert_eq!(plain.steps, governed.steps);
    }
}
