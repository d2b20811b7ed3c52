//! Batch jobs: the `pde solve` pipeline (and `pde certain` for certain
//! jobs) run in-process on one generated bundle, untraced or replayed
//! through each layer's public functions.

use crate::gen::{Job, Route, CLIQUE_CERTAIN_QUERY};
use crate::layers::{Counts, Layers};
use crate::stats::{middle_mean, ms, timed};
use crate::{affinity, calib, peak_rss_mb, Args, Run};
use pde_analysis::{analyze_setting, forward_schedule, optimize_setting, plan_setting};
use pde_chase::{
    chase_governed_scheduled, chase_tgds_governed, default_chase_engine, null_gen_for,
    ChaseOutcome, WitnessMode,
};
use pde_constraints::Dependency;
use pde_core::{
    assignment_solve, blocks, certain_answers, check_solution, decide_governed_scheduled, generic,
    Bundle, PdeSetting,
};
use pde_relational::{parse_query, Instance, Peer, UnionQuery};
use pde_runtime::{Governor, GovernorConfig};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Block count above which `collect_block_homs` fans out over threads —
/// the threshold the Fig. 3 solver passes.
const PARALLEL_BLOCK_THRESHOLD: usize = 64;

/// The set-up generates and loads the whole job pool in at least
/// `SETUP_ROUNDS` rounds and until `SETUP_BUDGET` is spent. A round loads
/// it once on each CPU; `setup_s` is the median load at reference speed.
const SETUP_ROUNDS: usize = 3;
const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// The answer one job gave.
pub struct Answer {
    /// `Some(yes/no)` when decided.
    pub decided: Option<bool>,
    /// The naive-engine retry fired.
    pub engine_fallback: bool,
    /// For a "yes" on the data-exchange route: the bundle and the canonical
    /// solution, for checking outside the timed section.
    pub witness: Option<(Bundle, Instance)>,
}

impl Answer {
    /// Does the answer match the generator's ground truth?
    pub fn matches(&self, expect: bool) -> bool {
        self.decided == Some(expect)
    }
}

fn parse(job: &Job) -> Result<Bundle, String> {
    Bundle::parse_with_warnings(&job.text)
        .map(|(b, _)| b)
        .map_err(|e| format!("bundle: {e}"))
}

fn query(bundle: &Bundle, text: &str) -> Result<UnionQuery, String> {
    parse_query(bundle.setting.schema(), text)
        .map(Into::into)
        .map_err(|e| format!("query: {e}"))
}

/// The untraced pipeline, as `pde solve <bundle>` (or `pde certain <bundle>
/// <query>`) runs it with default flags: parse, lint, optimize, plan, then
/// decide under the default governor with the optimized setting's schedule.
pub fn run_job(job: &Job) -> Result<Answer, String> {
    let bundle = parse(job)?;
    black_box(analyze_setting(&bundle.setting));
    let opt = optimize_setting(&bundle.setting, &bundle.input);
    let setting = &opt.optimized;
    let plan = plan_setting(setting, bundle.input.active_domain().len()).to_solve_plan();
    if job.route == Route::Certain {
        let q = query(&bundle, CLIQUE_CERTAIN_QUERY)?;
        let out =
            certain_answers(setting, &bundle.input, &q, plan.limits).map_err(|e| e.to_string())?;
        return Ok(Answer {
            decided: Some(out.certain_bool()),
            engine_fallback: false,
            witness: None,
        });
    }
    let governor = Governor::new(GovernorConfig::default());
    let schedule = forward_schedule(setting);
    let report =
        decide_governed_scheduled(setting, &bundle.input, &plan, Some(&schedule), &governor)
            .map_err(|e| e.to_string())?;
    let witness = match (job.route, report.exists, report.witness) {
        (Route::DataExchange, Some(true), Some(w)) => Some((bundle, w)),
        _ => None,
    };
    Ok(Answer {
        decided: report.exists,
        engine_fallback: report.engine_fallback,
        witness,
    })
}

/// Check a data-exchange witness with the independent solution checker.
pub fn check_witness(answer: &Answer) -> Result<(), String> {
    match &answer.witness {
        Some((bundle, w)) => check_solution(&bundle.setting, &bundle.input, w)
            .map_err(|v| format!("witness is not a solution: {v:?}")),
        None => Ok(()),
    }
}

/// Fig. 3 steps 2–3 on the Σst fixpoint `chased_st` of `input`, as
/// `exists_solution_from_chased` runs them: the Σts chase of `J_can`, the
/// blocks of `I_can`, and the per-block homs into the source. `None` when
/// the Σts chase stops.
pub fn steps_2_3(
    setting: &PdeSetting,
    input: &Instance,
    chased_st: &Instance,
    layers: &mut Layers,
    counts: &mut Counts,
    governor: &Governor,
) -> Option<bool> {
    let ts = timed(&mut layers.chase_ts, || {
        let gen = null_gen_for(chased_st);
        let jcan = chased_st.restrict(Peer::Target);
        chase_tgds_governed(
            jcan,
            setting.sigma_ts(),
            &gen,
            default_chase_engine(),
            governor,
        )
    });
    counts.chase(&ts.stats);
    if !ts.is_success() {
        return None;
    }
    let ican = ts.instance.restrict(Peer::Source);
    let source = input.restrict(Peer::Source);
    let bs = timed(&mut layers.blocks, || blocks(&ican));
    counts.blocks(&bs);
    let homs = timed(&mut layers.block_hom, || {
        pde_core::blocks::collect_block_homs(&ican, &source, PARALLEL_BLOCK_THRESHOLD)
    });
    Some(homs.is_some())
}

/// Replay one job through the public functions the pipeline calls, timing
/// each into `layers` and adding its counters to `counts`. Returns the
/// replay's own answer, which must agree with the ground truth too.
pub fn replay_job(
    job: &Job,
    layers: &mut Layers,
    counts: &mut Counts,
) -> Result<Option<bool>, String> {
    let bundle = timed(&mut layers.parse, || parse(job))?;
    black_box(timed(&mut layers.lint, || analyze_setting(&bundle.setting)));
    let opt = timed(&mut layers.optimize, || {
        optimize_setting(&bundle.setting, &bundle.input)
    });
    let setting = &opt.optimized;
    let input = &bundle.input;
    let (plan, schedule) = timed(&mut layers.plan, || {
        let plan = plan_setting(setting, input.active_domain().len()).to_solve_plan();
        (plan, forward_schedule(setting))
    });
    let governor = Governor::new(GovernorConfig::default());
    let engine = default_chase_engine();
    match job.route {
        Route::Tractable => {
            let st = timed(&mut layers.chase_st, || {
                let gen = null_gen_for(input);
                chase_tgds_governed(input.clone(), setting.sigma_st(), &gen, engine, &governor)
            });
            counts.chase(&st.stats);
            if !st.is_success() {
                return Ok(None);
            }
            Ok(steps_2_3(
                setting,
                input,
                &st.instance,
                layers,
                counts,
                &governor,
            ))
        }
        Route::DataExchange => {
            let deps: Vec<Dependency> = setting
                .sigma_st()
                .iter()
                .cloned()
                .map(Dependency::Tgd)
                .chain(setting.sigma_t().iter().cloned())
                .collect();
            let res = timed(&mut layers.chase_forward, || {
                let gen = null_gen_for(input);
                chase_governed_scheduled(
                    input.clone(),
                    &deps,
                    WitnessMode::FreshNulls(&gen),
                    plan.chase_limits,
                    engine,
                    &governor,
                    Some(&schedule),
                )
            });
            counts.chase(&res.stats);
            counts.peak_instance_bytes = counts.peak_instance_bytes.max(res.instance.heap_bytes());
            Ok(match res.outcome {
                ChaseOutcome::Success => Some(true),
                ChaseOutcome::Failure { .. } => Some(false),
                _ => None,
            })
        }
        Route::Assignment => {
            let out = timed(&mut layers.search, || assignment_solve(setting, input))
                .map_err(|e| e.to_string())?;
            counts.search_branches += out.stats.nodes;
            counts.search_prunes += out.stats.prunes;
            counts.candidates_checked += out.stats.candidates_checked;
            Ok(Some(out.exists))
        }
        Route::Generic => {
            let out = timed(&mut layers.search, || {
                generic::solve(setting, input, plan.limits)
            })
            .map_err(|e| e.to_string())?;
            let s = out.stats();
            counts.search_branches += s.nodes;
            counts.search_prunes += s.memo_hits + s.ts_prunes + s.egd_failures;
            counts.candidates_checked += s.candidates_checked;
            Ok(out.decided())
        }
        Route::Certain => {
            let q = timed(&mut layers.parse, || query(&bundle, CLIQUE_CERTAIN_QUERY))?;
            let out = timed(&mut layers.certain, || {
                certain_answers(setting, input, &q, plan.limits)
            })
            .map_err(|e| e.to_string())?;
            counts.solutions_examined += out.solutions_examined;
            Ok(Some(out.certain_bool()))
        }
    }
}

/// Check one answer against the ground truth: an error, an undecided or
/// wrong answer, or (when `check_witness`) a witness that is not a
/// solution counts as a failure.
pub fn judge(run: &mut Run, label: &str, job: &Job, answer: Result<Answer, String>, check: bool) {
    match answer {
        Ok(a) if a.matches(job.expect) => {
            run.counts.engine_fallbacks += usize::from(a.engine_fallback);
            if check {
                if let Err(e) = check_witness(&a) {
                    run.fail(format!("{label}: {e}"));
                }
            }
        }
        Ok(a) => run.fail(format!(
            "{label} ({:?}): answered {:?}, expected {:?}",
            job.route, a.decided, job.expect
        )),
        Err(e) => run.fail(format!("{label}: {e}")),
    }
}

/// A batch workload: generate and load `pool` jobs (the set-up), warm up,
/// then run them round-robin until the window closes, each at least once
/// on every CPU. Pass `r` over the pool starts on the `r`-th CPU in turn,
/// and every job follows a run of the reference loop on its CPU. A traced
/// run follows every job with its replay.
pub fn workload(args: &Args, make: fn(u64, u64) -> Job, pool: u64, reach: calib::Reach) -> Run {
    let mut run = Run::default();
    let mut jobs = Vec::new();
    let mut setup_refs = Vec::new();
    let start = Instant::now();
    for round in 0..100 {
        if round >= SETUP_ROUNDS && start.elapsed() >= SETUP_BUDGET {
            break;
        }
        for turn in 0..affinity::cpus() {
            affinity::nudge(0, turn);
            setup_refs.push(calib::reference_ms(reach));
            let t = Instant::now();
            jobs = (0..pool).map(|i| make(args.seed, i)).collect();
            // Loading is parsing; a bundle that does not parse fails its job.
            for (i, job) in jobs.iter().enumerate() {
                if let Err(e) = parse(job) {
                    if round == 0 && turn == 0 {
                        run.fail(format!("job {i}: {e}"));
                    }
                }
            }
            run.setup_raw_s.push(t.elapsed().as_secs_f64());
        }
    }
    for (i, took) in run.setup_raw_s.values.iter().enumerate() {
        run.setup_s
            .push(calib::normalize(*took, calib::around(&setup_refs, i)));
    }
    run.reference_ms.values.extend(setup_refs);
    let most = |f: fn(&Job) -> usize| jobs.iter().map(f).max().unwrap_or(0);
    run.sizes.push(("jobs_in_pool", jobs.len()));
    run.sizes.push(("max_facts_per_job", most(|j| j.facts)));
    run.sizes.push(("max_bundle_bytes", most(|j| j.text.len())));
    // Warm-up: let allocator arenas and caches settle.
    let _ = run_job(&jobs[0]);

    let n = jobs.len();
    // (job, latency ms) in run order; reference run `j` precedes entry `j`.
    let mut timed_jobs = Vec::new();
    let mut refs = Vec::new();
    let mut first_counts: Vec<Option<Counts>> = vec![None; n];
    let start = Instant::now();
    let mut i = 0usize;
    while i < n * affinity::cpus() || start.elapsed() < args.seconds {
        let (k, job) = (i % n, &jobs[i % n]);
        affinity::nudge(0, i / n);
        refs.push(calib::reference_ms(reach));
        run.attempted += 1;
        let t = Instant::now();
        let answer = run_job(job);
        let took = t.elapsed();
        run.latency_ms.push(ms(took));
        timed_jobs.push((k, ms(took)));
        let kind = format!("{:?}_{}", job.route, if job.expect { "yes" } else { "no" });
        run.by_kind
            .entry(kind.to_lowercase())
            .or_default()
            .push(ms(took));
        // Witnesses are checked once per distinct input, outside the
        // timed section.
        judge(&mut run, &format!("job {k}"), job, answer, i < n);
        if args.trace {
            run.untraced += took;
            run.units += 1;
            let mut counts = Counts::default();
            let replayed = replay_job(job, &mut run.layers, &mut counts).map(|decided| Answer {
                decided,
                engine_fallback: false,
                witness: None,
            });
            judge(
                &mut run,
                &format!("replay of job {k}"),
                job,
                replayed,
                false,
            );
            match &first_counts[k] {
                None => {
                    run.counts.absorb(&counts);
                    first_counts[k] = Some(counts);
                }
                Some(first) if *first != counts => {
                    run.drift
                        .push(format!("job {k}: {first:?} then {counts:?}"));
                }
                Some(_) => {}
            }
        }
        i += 1;
    }
    let mut norm: Vec<Vec<f64>> = vec![Vec::new(); n];
    for (j, (k, took)) in timed_jobs.into_iter().enumerate() {
        norm[k].push(calib::normalize(took, calib::around(&refs, j)));
    }
    for v in &norm {
        run.norm_ms.push(middle_mean(v));
    }
    run.ranked_ms = run.norm_ms.clone();
    run.reference_ms.values.extend(refs);
    run.peak_rss_mb = peak_rss_mb("self");
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{search_job, SEARCH_CYCLE};

    #[test]
    fn every_search_kind_decides_correctly_untraced_and_replayed() {
        for i in 0..SEARCH_CYCLE.len() as u64 {
            let job = search_job(7, i);
            let mut run = Run::default();
            judge(&mut run, "job", &job, run_job(&job), true);
            let mut layers = Layers::default();
            let mut counts = Counts::default();
            let replayed = replay_job(&job, &mut layers, &mut counts).map(|decided| Answer {
                decided,
                engine_fallback: false,
                witness: None,
            });
            judge(&mut run, "replay", &job, replayed, false);
            assert_eq!(
                run.failed, 0,
                "job {i} ({:?}): {:?}",
                job.route, run.failures
            );
        }
    }

    #[test]
    fn flipped_undecided_and_failed_answers_count_as_failed() {
        let job = search_job(7, 0);
        let mut run = Run::default();
        let mut answer = run_job(&job).unwrap();
        answer.decided = answer.decided.map(|b| !b);
        judge(&mut run, "flipped", &job, Ok(answer), false);
        assert_eq!(run.failed, 1);
        let undecided = Answer {
            decided: None,
            engine_fallback: false,
            witness: None,
        };
        judge(&mut run, "undecided", &job, Ok(undecided), false);
        judge(&mut run, "error", &job, Err("boom".to_owned()), false);
        assert_eq!(run.failed, 3);
        judge(&mut run, "right", &job, run_job(&job), false);
        assert_eq!(run.failed, 3, "a right answer is not a failure");
    }
}
