//! The polynomial-time `ExistsSolution` algorithm (paper Fig. 3, Thm. 4–5).
//!
//! For a PDE setting with no target constraints:
//!
//! 1. chase `(I, J)` with Σst, yielding the canonical target instance
//!    `J_can` (fresh nulls witness Σst's existentials);
//! 2. chase `(J_can, ∅)` with Σts, yielding the canonical *source demand*
//!    `I_can` — everything Σts forces the source to contain if the target
//!    were `J_can`;
//! 3. decide whether a constant-preserving homomorphism `I_can → I`
//!    exists, block by block (Prop. 1).
//!
//! Theorem 5 proves the reduction correct whenever condition 1 of
//! `C_tract` holds; Theorem 6 proves the per-block checks run in
//! polynomial time whenever condition 2 holds (each block of `I_can` has a
//! constant number of nulls). When a homomorphism exists the algorithm also
//! *materializes* a solution `J_img = h_J(J_can)` — the (⇐) construction of
//! Theorem 5 — so callers receive a witness, not just a bit.

use crate::blocks::{blocks, check_blocks};
use crate::setting::PdeSetting;
use pde_chase::{chase_tgds_governed, null_gen_for, ChaseEngine, ChaseOutcome, ChaseResult};
use pde_relational::{Instance, Peer, Value};
use pde_runtime::{Governor, StopReason};
use std::fmt;

/// Block count above which the per-block homomorphism checks run on
/// multiple threads (they are independent by Prop. 1).
const PARALLEL_BLOCK_THRESHOLD: usize = 64;

/// Why the tractable solver refused to run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TractableError {
    /// The setting has target constraints (the Fig. 3 algorithm requires
    /// Σt = ∅).
    HasTargetConstraints,
    /// The setting is outside `C_tract` (and `check_class` was requested).
    NotInCtract,
    /// The input instance contains labeled nulls.
    InputNotGround,
    /// The Σst or Σts chase exceeded its resource limits (cannot happen for
    /// valid settings: both chases are single-pass, but the engine's guard
    /// is surfaced rather than swallowed).
    ChaseDidNotTerminate,
    /// The runtime governor stopped one of the chases (deadline, memory
    /// budget, cancellation, or an injected fault). The question is
    /// *undecided*, not answered.
    Stopped(StopReason),
}

impl fmt::Display for TractableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TractableError::HasTargetConstraints => {
                write!(
                    f,
                    "ExistsSolution requires a setting with no target constraints"
                )
            }
            TractableError::NotInCtract => {
                write!(
                    f,
                    "setting is outside C_tract; use the complete search solver"
                )
            }
            TractableError::InputNotGround => write!(f, "input instance contains nulls"),
            TractableError::ChaseDidNotTerminate => write!(f, "chase resource limit exceeded"),
            TractableError::Stopped(reason) => write!(f, "chase stopped: {reason}"),
        }
    }
}

impl std::error::Error for TractableError {}

/// Statistics from a run of `ExistsSolution`.
#[derive(Clone, Debug, Default)]
pub struct TractableStats {
    /// Facts in `J_can` (target part after the Σst chase).
    pub jcan_facts: usize,
    /// Facts in `I_can` (source part after the Σts chase).
    pub ican_facts: usize,
    /// Number of blocks of `I_can`.
    pub block_count: usize,
    /// Maximum nulls in any block of `I_can` (constant for `C_tract`
    /// settings — Theorem 6).
    pub max_block_nulls: usize,
    /// Chase steps taken by the two chases.
    pub chase_steps: usize,
    /// Aggregate engine counters from the two chases.
    pub chase_stats: pde_chase::ChaseStats,
}

/// Outcome of `ExistsSolution`.
#[derive(Clone, Debug)]
pub struct TractableOutcome {
    /// Does a solution exist?
    pub exists: bool,
    /// When `exists`: a materialized solution as a combined instance
    /// `(I, J_img)`; `J_img` may contain nulls of `J_can` that the
    /// homomorphism left in place.
    pub witness: Option<Instance>,
    /// When `!exists`: the first unsatisfiable source demand — the
    /// lowest-index block of `I_can` with no homomorphism into `I`. Its
    /// facts are what Σts forces the source to contain (nulls mark "any
    /// value" slots), so it explains *why* the exchange is impossible.
    pub unsatisfiable_demand: Option<Vec<(pde_relational::RelId, pde_relational::Tuple)>>,
    /// Run statistics.
    pub stats: TractableStats,
}

/// Run `ExistsSolution` after checking the setting is in `C_tract`
/// (Theorem 4's hypothesis).
pub fn exists_solution(
    setting: &PdeSetting,
    input: &Instance,
) -> Result<TractableOutcome, TractableError> {
    exists_solution_governed(
        setting,
        input,
        pde_chase::default_chase_engine(),
        &Governor::unlimited(),
    )
}

/// [`exists_solution`] under an explicit chase engine and runtime
/// governor. A governor stop surfaces as [`TractableError::Stopped`] —
/// never as a yes/no answer.
pub fn exists_solution_governed(
    setting: &PdeSetting,
    input: &Instance,
    engine: ChaseEngine,
    governor: &Governor,
) -> Result<TractableOutcome, TractableError> {
    if !setting.has_no_target_constraints() {
        return Err(TractableError::HasTargetConstraints);
    }
    if !setting.classification().ctract.in_ctract() {
        return Err(TractableError::NotInCtract);
    }
    exists_solution_governed_unchecked(setting, input, engine, governor)
}

/// Map a non-success chase to the right refusal (governor stops stay
/// distinguishable from plain limit trips).
fn chase_refusal(res: &ChaseResult) -> TractableError {
    match &res.outcome {
        ChaseOutcome::Stopped { reason } => TractableError::Stopped(reason.clone()),
        _ => TractableError::ChaseDidNotTerminate,
    }
}

/// Run the Fig. 3 algorithm without the `C_tract` membership check.
///
/// Correctness still requires condition 1 of `C_tract` (Theorem 5);
/// polynomial running time requires condition 2 (Theorem 6). Σt must be
/// empty regardless.
fn exists_solution_governed_unchecked(
    setting: &PdeSetting,
    input: &Instance,
    engine: ChaseEngine,
    governor: &Governor,
) -> Result<TractableOutcome, TractableError> {
    if !setting.has_no_target_constraints() {
        return Err(TractableError::HasTargetConstraints);
    }
    if !input.is_ground() {
        return Err(TractableError::InputNotGround);
    }
    let mut stats = TractableStats::default();
    let gen = null_gen_for(input);

    // Step 1: (I, J_can) := chase of (I, J) with Σst.
    let st_res = chase_tgds_governed(input.clone(), setting.sigma_st(), &gen, engine, governor);
    if !st_res.is_success() {
        return Err(chase_refusal(&st_res));
    }
    stats.chase_steps += st_res.steps;
    stats.chase_stats.absorb(st_res.stats);
    solve_from_chased(setting, input, &st_res.instance, stats, engine, governor)
}

/// Steps 2–3 of `ExistsSolution` on a *precomputed* step-1 chase.
///
/// `chased_st` must be the Σst-chase fixpoint of `input` (the combined
/// `(I, J_can)` instance) — e.g. one maintained incrementally across
/// inserts via `chase_incremental_governed`, which is how `pde serve`
/// answers `solve` requests without re-chasing from scratch. The
/// `C_tract` hypothesis of Theorems 5–6 still applies, and a stale or
/// under-chased `chased_st` yields wrong answers — callers own that
/// invariant.
pub fn exists_solution_from_chased(
    setting: &PdeSetting,
    input: &Instance,
    chased_st: &Instance,
    engine: ChaseEngine,
    governor: &Governor,
) -> Result<TractableOutcome, TractableError> {
    if !setting.has_no_target_constraints() {
        return Err(TractableError::HasTargetConstraints);
    }
    if !input.is_ground() {
        return Err(TractableError::InputNotGround);
    }
    let stats = TractableStats::default();
    solve_from_chased(setting, input, chased_st, stats, engine, governor)
}

/// Shared tail of the Fig. 3 algorithm: steps 2–3 plus the witness
/// construction, given the step-1 chase `chased_st`.
fn solve_from_chased(
    setting: &PdeSetting,
    input: &Instance,
    chased_st: &Instance,
    mut stats: TractableStats,
    engine: ChaseEngine,
    governor: &Governor,
) -> Result<TractableOutcome, TractableError> {
    stats.jcan_facts = chased_st.fact_count_of(Peer::Target);
    // Seed above the chase's nulls, not just the input's: step 2 must not
    // collide with witnesses step 1 already invented.
    let gen = null_gen_for(chased_st);

    // Step 2: (J_can, I_can) := chase of (J_can, ∅) with Σts.
    let jcan_only = chased_st.restrict(Peer::Target);
    let ts_res = chase_tgds_governed(jcan_only, setting.sigma_ts(), &gen, engine, governor);
    if !ts_res.is_success() {
        return Err(chase_refusal(&ts_res));
    }
    stats.chase_steps += ts_res.steps;
    stats.chase_stats.absorb(ts_res.stats);
    let chased_ts = ts_res.instance;
    let ican = chased_ts.restrict(Peer::Source);
    stats.ican_facts = ican.fact_count();

    // Step 3: blockwise homomorphism I_can → I, collecting the null map
    // (Prop. 1). The lowest failing block is the unsatisfiable demand.
    let source_i = input.restrict(Peer::Source);
    let mut ican_blocks = blocks(&ican);
    stats.block_count = ican_blocks.len();
    stats.max_block_nulls = ican_blocks.iter().map(|b| b.nulls.len()).max().unwrap_or(0);
    let (witness, unsatisfiable_demand) =
        match check_blocks(&ican_blocks, &source_i, PARALLEL_BLOCK_THRESHOLD) {
            Err(failed) => (None, Some(ican_blocks.swap_remove(failed).facts)),
            Ok(h) => {
                // Witness: J_img = h_J(J_can) where h_J applies h to the
                // nulls shared with I_can and is the identity elsewhere
                // (Theorem 5 (⇐)).
                let j_img = chased_st.restrict(Peer::Target).map_values(|v| match v {
                    Value::Null(n) => h.get(&n).copied().unwrap_or(v),
                    Value::Const(_) => v,
                });
                let witness = source_i.union(&j_img);
                debug_assert!(
                    crate::solution::is_solution(setting, input, &witness),
                    "Theorem 5 (⇐): J_img must be a solution"
                );
                (Some(witness), None)
            }
        };
    Ok(TractableOutcome {
        exists: witness.is_some(),
        witness,
        unsatisfiable_demand,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solution::is_solution;
    use pde_relational::parse_instance;

    fn example1() -> PdeSetting {
        PdeSetting::parse(
            "source E/2; target H/2;",
            "E(x, z), E(z, y) -> H(x, y)",
            "H(x, y) -> E(x, y)",
            "",
        )
        .unwrap()
    }

    #[test]
    fn example1_no_solution() {
        let p = example1();
        let input = parse_instance(p.schema(), "E(a, b). E(b, c).").unwrap();
        let out = exists_solution(&p, &input).unwrap();
        assert!(!out.exists);
        assert!(out.witness.is_none());
        assert_eq!(out.stats.jcan_facts, 1); // H(a, c)
        assert_eq!(out.stats.ican_facts, 1); // E(a, c)
    }

    #[test]
    fn example1_self_loop_has_solution() {
        let p = example1();
        let input = parse_instance(p.schema(), "E(a, a).").unwrap();
        let out = exists_solution(&p, &input).unwrap();
        assert!(out.exists);
        let w = out.witness.unwrap();
        assert!(is_solution(&p, &input, &w));
        let h = p.schema().rel_id("H").unwrap();
        assert_eq!(w.relation(h).len(), 1);
    }

    #[test]
    fn example1_triangle_has_solution() {
        let p = example1();
        let input = parse_instance(p.schema(), "E(a, b). E(b, c). E(a, c).").unwrap();
        let out = exists_solution(&p, &input).unwrap();
        assert!(out.exists);
        assert!(is_solution(&p, &input, &out.witness.unwrap()));
    }

    #[test]
    fn lav_with_existentials() {
        // Σts: H(x, y) -> exists z . E(x, z), E(z, y): H-edges must be
        // realizable as paths of length 2 in E.
        let p = PdeSetting::parse(
            "source E/2; target H/2;",
            "E(x, y) -> H(x, y)",
            "H(x, y) -> exists z . E(x, z), E(z, y)",
            "",
        )
        .unwrap();
        // A 1-cycle: every edge lies on a path of length 2.
        let good = parse_instance(p.schema(), "E(a, a).").unwrap();
        let out = exists_solution(&p, &good).unwrap();
        assert!(out.exists);
        assert!(is_solution(&p, &good, &out.witness.unwrap()));
        // A single edge a->b has no 2-path from a to b.
        let bad = parse_instance(p.schema(), "E(a, b).").unwrap();
        assert!(!exists_solution(&p, &bad).unwrap().exists);
        // A 3-cycle: a->b realizable via ... a->b needs x with a->x->b:
        // with edges a->b, b->c, c->a: path a->b->c gives H(a,c)? We need
        // each E edge (x,y) to have a 2-path from x to y; for a->b the
        // 2-path must be a->?->b where ? has an edge into b: c->... a->b
        // has no intermediate. So: no solution.
        let cyc = parse_instance(p.schema(), "E(a, b). E(b, c). E(c, a).").unwrap();
        assert!(!exists_solution(&p, &cyc).unwrap().exists);
    }

    #[test]
    fn nonempty_j_is_respected() {
        // J already has a fact that forces source demands.
        let p = example1();
        let input = parse_instance(p.schema(), "E(a, a). H(b, b).").unwrap();
        // H(b, b) requires E(b, b) in the source: absent → no solution.
        let out = exists_solution(&p, &input).unwrap();
        assert!(!out.exists);
        let input2 = parse_instance(p.schema(), "E(a, a). E(b, b). H(b, b).").unwrap();
        let out2 = exists_solution(&p, &input2).unwrap();
        assert!(out2.exists);
        let w = out2.witness.unwrap();
        assert!(is_solution(&p, &input2, &w));
    }

    #[test]
    fn rejects_settings_with_target_constraints() {
        let p = PdeSetting::parse(
            "source E/2; target H/2;",
            "E(x, y) -> H(x, y)",
            "",
            "H(x, y), H(x, z) -> y = z",
        )
        .unwrap();
        let input = parse_instance(p.schema(), "E(a, b).").unwrap();
        assert_eq!(
            exists_solution(&p, &input).unwrap_err(),
            TractableError::HasTargetConstraints
        );
    }

    #[test]
    fn rejects_non_ctract_settings() {
        let p = PdeSetting::parse(
            "source D/2; source S/2; source E/2; target P/4;",
            "D(x, y) -> exists z, w . P(x, z, y, w)",
            "P(x, z, y, w) -> E(z, w); P(x, z, y, w), P(x, z2, y2, w2) -> S(z, z2)",
            "",
        )
        .unwrap();
        let input = parse_instance(p.schema(), "D(a, b).").unwrap();
        assert_eq!(
            exists_solution(&p, &input).unwrap_err(),
            TractableError::NotInCtract
        );
        // The unchecked worker runs (condition 1 holds for this setting, so
        // the answer is still correct — just not guaranteed polynomial).
        assert!(exists_solution_governed_unchecked(
            &p,
            &input,
            pde_chase::default_chase_engine(),
            &Governor::unlimited()
        )
        .is_ok());
    }

    #[test]
    fn rejects_null_inputs() {
        let p = example1();
        let input = parse_instance(p.schema(), "E(?0, a).").unwrap();
        assert_eq!(
            exists_solution(&p, &input).unwrap_err(),
            TractableError::InputNotGround
        );
    }

    #[test]
    fn full_st_tgds_case() {
        // Corollary 1 instance: full Σst, Σts with existentials.
        let p = PdeSetting::parse(
            "source E/2; source F/1; target H/2;",
            "E(x, y) -> H(x, y)",
            "H(x, y) -> exists u . F(u)",
            "",
        )
        .unwrap();
        let with_f = parse_instance(p.schema(), "E(a, b). F(c).").unwrap();
        assert!(exists_solution(&p, &with_f).unwrap().exists);
        let without_f = parse_instance(p.schema(), "E(a, b).").unwrap();
        assert!(!exists_solution(&p, &without_f).unwrap().exists);
    }

    #[test]
    fn unsatisfiable_demand_explains_failures() {
        let p = example1();
        let input = parse_instance(p.schema(), "E(a, b). E(b, c).").unwrap();
        let out = exists_solution(&p, &input).unwrap();
        assert!(!out.exists);
        let demand = out.unsatisfiable_demand.expect("failure is explained");
        // The unsatisfiable demand is exactly E(a, c).
        assert_eq!(demand.len(), 1);
        let (rel, t) = &demand[0];
        assert_eq!(p.schema().name(*rel).as_str(), "E");
        assert_eq!(*t, pde_relational::Tuple::consts(["a", "c"]));
        // Successful runs have no demand.
        let ok = parse_instance(p.schema(), "E(a, a).").unwrap();
        assert!(exists_solution(&p, &ok)
            .unwrap()
            .unsatisfiable_demand
            .is_none());
    }

    #[test]
    fn stats_are_populated() {
        let p = example1();
        let input = parse_instance(p.schema(), "E(a, b). E(b, c). E(a, c).").unwrap();
        let out = exists_solution(&p, &input).unwrap();
        assert!(out.stats.jcan_facts >= 1);
        assert!(out.stats.ican_facts >= 1);
        assert!(out.stats.block_count >= 1);
        assert_eq!(out.stats.max_block_nulls, 0); // no existentials anywhere
    }

    #[test]
    fn governed_deadline_is_undecided_not_answered() {
        use pde_runtime::GovernorConfig;
        use std::time::Duration;
        let p = example1();
        let input = parse_instance(p.schema(), "E(a, b). E(b, c).").unwrap();
        let governor = Governor::new(GovernorConfig {
            deadline: Some(Duration::ZERO),
            ..GovernorConfig::default()
        });
        let err =
            exists_solution_governed(&p, &input, pde_chase::default_chase_engine(), &governor)
                .unwrap_err();
        assert!(matches!(
            err,
            TractableError::Stopped(StopReason::DeadlineExceeded { .. })
        ));
    }

    #[test]
    fn empty_input_trivially_solvable() {
        let p = example1();
        let input = pde_relational::Instance::new(p.schema().clone());
        let out = exists_solution(&p, &input).unwrap();
        assert!(out.exists);
        assert_eq!(out.witness.unwrap().fact_count(), 0);
    }
}
