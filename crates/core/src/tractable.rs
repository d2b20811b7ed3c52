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

use crate::blocks::{blocks, check_block, check_blocks, Block, NullForest};
use crate::setting::PdeSetting;
use crate::solver::SolveError;
use pde_chase::{
    chase_incremental_governed, chase_tgds_governed, null_gen_for, ChaseEngine, ChaseLimits,
    WitnessMode,
};
use pde_constraints::Dependency;
use pde_relational::{Instance, NullGen, NullId, Peer, RelId, Tuple, Value};
use pde_runtime::Governor;
use std::collections::{HashMap, HashSet};

/// Block count above which the per-block homomorphism checks run on
/// multiple threads (they are independent by Prop. 1).
const PARALLEL_BLOCK_THRESHOLD: usize = 64;

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
) -> Result<TractableOutcome, SolveError> {
    exists_solution_governed(
        setting,
        input,
        pde_chase::default_chase_engine(),
        &Governor::unlimited(),
    )
}

/// [`exists_solution`] under an explicit chase engine and runtime
/// governor. A governor stop surfaces as [`SolveError::Stopped`] —
/// never as a yes/no answer.
pub fn exists_solution_governed(
    setting: &PdeSetting,
    input: &Instance,
    engine: ChaseEngine,
    governor: &Governor,
) -> Result<TractableOutcome, SolveError> {
    if !setting.has_no_target_constraints() {
        return Err(SolveError::HasTargetConstraints);
    }
    if !setting.classification().ctract.in_ctract() {
        return Err(SolveError::NotInCtract);
    }
    exists_solution_governed_unchecked(setting, input, engine, governor)
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
) -> Result<TractableOutcome, SolveError> {
    if !setting.has_no_target_constraints() {
        return Err(SolveError::HasTargetConstraints);
    }
    if !input.is_ground() {
        return Err(SolveError::InputNotGround);
    }
    let mut stats = TractableStats::default();
    let gen = null_gen_for(input);

    // Step 1: (I, J_can) := chase of (I, J) with Σst.
    let st_res = chase_tgds_governed(input.clone(), setting.sigma_st(), &gen, engine, governor);
    if !st_res.is_success() {
        return Err(SolveError::chase_refusal(st_res.outcome));
    }
    stats.chase_steps += st_res.steps;
    stats.chase_stats.absorb(st_res.stats);
    solve_from_chased(setting, input, &st_res.instance, stats, engine, governor)
}

/// Shared tail of the Fig. 3 algorithm: steps 2–3 plus the witness
/// construction, given the step-1 chase `chased_st` (the Σst fixpoint of
/// `input`, the combined `(I, J_can)` instance).
fn solve_from_chased(
    setting: &PdeSetting,
    input: &Instance,
    chased_st: &Instance,
    mut stats: TractableStats,
    engine: ChaseEngine,
    governor: &Governor,
) -> Result<TractableOutcome, SolveError> {
    stats.jcan_facts = chased_st.fact_count_of(Peer::Target);
    // Seed above the chase's nulls, not just the input's: step 2 must not
    // collide with witnesses step 1 already invented.
    let gen = null_gen_for(chased_st);

    // Step 2: (J_can, I_can) := chase of (J_can, ∅) with Σts.
    let jcan_only = chased_st.restrict(Peer::Target);
    let ts_res = chase_tgds_governed(jcan_only, setting.sigma_ts(), &gen, engine, governor);
    if !ts_res.is_success() {
        return Err(SolveError::chase_refusal(ts_res.outcome));
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
                let witness = source_i.union(&target_image(chased_st, &h));
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

/// `h_J(J_can)`: the target facts of `chased_st` with `h` applied to the
/// nulls it binds, the identity elsewhere.
fn target_image(chased_st: &Instance, h: &HashMap<NullId, Value>) -> Instance {
    chased_st.restrict(Peer::Target).map_values(|v| match v {
        Value::Null(n) => h.get(&n).copied().unwrap_or(v),
        Value::Const(_) => v,
    })
}

/// Steps 2–3 of `ExistsSolution` kept across inserts: the state behind
/// `pde serve`'s `solve`.
///
/// Under source inserts `J_can`, `I_can` and `I` only grow. A block of
/// `I_can` that maps into `I` and gains no facts still maps: a
/// homomorphism into `I` is one into any larger instance, and by Prop. 1
/// the other blocks never constrain it. So [`DemandState::extend`] chases
/// Σts only off the new `J_can` rows and re-checks only three kinds of
/// block: new ones (each new fact starts one), older ones a new one merged
/// into through a shared null, and ones (or ground facts) not known to map
/// before.
///
/// Σts has no egds, so the Σts instance only grows and its row ids stay
/// valid: a block holds its facts as `(relation, row)` references into it.
/// A retract shrinks `I` and breaks the argument; drop the state then and
/// start over from [`DemandState::new`].
pub struct DemandState {
    /// Σts as chase dependencies.
    deps: Vec<Dependency>,
    /// The Σts fixpoint: a copy of `J_can` plus `I_can`.
    ts: Instance,
    /// First epoch of the Σst fixpoint not yet copied into `ts`.
    jcan_since: u64,
    /// Has `ts` been chased yet?
    chased: bool,
    /// Union-find over the nulls of `I_can`.
    forest: NullForest,
    /// The facts of each block, at its root slot (empty off the roots).
    members: Vec<Vec<(RelId, u32)>>,
    /// Root slots of the blocks not known to map into `I`, in check order.
    unmapped: Vec<u32>,
    /// Ground facts of `I_can` not known to be in `I`.
    missing: Vec<(RelId, u32)>,
    /// The null map of every block that mapped when last checked. A
    /// re-check overwrites the entries of the block's nulls, so once
    /// [`DemandState::exists`] holds this is a homomorphism `I_can → I`.
    hom: HashMap<NullId, Value>,
}

impl DemandState {
    /// The state before any `J_can` row: nothing chased, nothing demanded.
    pub fn new(setting: &PdeSetting) -> Result<DemandState, SolveError> {
        if !setting.has_no_target_constraints() {
            return Err(SolveError::HasTargetConstraints);
        }
        Ok(DemandState {
            deps: setting
                .sigma_ts()
                .iter()
                .cloned()
                .map(Dependency::Tgd)
                .collect(),
            ts: Instance::new(setting.schema().clone()),
            jcan_since: 0,
            chased: false,
            forest: NullForest::default(),
            members: Vec::new(),
            unmapped: Vec::new(),
            missing: Vec::new(),
            hom: HashMap::new(),
        })
    }

    /// Does a solution exist, as of the last extension? That is, does
    /// `I_can` map into `I`?
    pub fn exists(&self) -> bool {
        self.missing.is_empty() && self.unmapped.is_empty()
    }

    /// The target part of Theorem 5 (⇐)'s witness, `J_img = h_J(J_can)`,
    /// where `chased_st` is the Σst fixpoint of the last extension. `None`
    /// unless [`DemandState::exists`]: only then is the block map a
    /// homomorphism `I_can → I`.
    pub fn witness_target(&self, chased_st: &Instance) -> Option<Instance> {
        self.exists().then(|| target_image(chased_st, &self.hom))
    }

    /// Bring the state up to `chased_st`, the Σst fixpoint of `input`.
    ///
    /// Both must only have grown since the last extension. `gen` must have
    /// minted the nulls of `chased_st` and every Σts null so far, so a
    /// fresh null never reuses a live id (which would join unrelated
    /// blocks). A governor stop or a chase refusal consumes the state:
    /// nothing half-extended survives.
    pub fn extend(
        mut self,
        input: &Instance,
        chased_st: &Instance,
        gen: &NullGen,
        governor: &Governor,
    ) -> Result<DemandState, SolveError> {
        if !input.is_ground() {
            return Err(SolveError::InputNotGround);
        }
        // Step 2: splice the new J_can rows in at a fresh watermark and
        // chase off that delta (the whole instance the first time).
        let schema = chased_st.schema().clone();
        let mut ts = std::mem::replace(&mut self.ts, Instance::new(schema.clone()));
        let watermark = ts.splice_since(chased_st, schema.rels_of(Peer::Target), self.jcan_since);
        let since = if self.chased { watermark } else { 0 };
        let res = chase_incremental_governed(
            ts,
            &self.deps,
            WitnessMode::FreshNulls(gen),
            ChaseLimits::default(),
            governor,
            None,
            since,
        );
        if !res.is_success() {
            return Err(SolveError::chase_refusal(res.outcome));
        }
        self.ts = res.instance;
        self.jcan_since = chased_st.current_epoch() + 1;
        self.chased = true;
        // Step 3: file the new I_can rows, then re-check.
        let new_rows: Vec<(RelId, u32)> = (schema.rels_of(Peer::Source))
            .flat_map(|rel| {
                let rows = self.ts.relation(rel).row_ids_in_window(since, u64::MAX);
                rows.map(move |row| (rel, row))
            })
            .collect();
        for (rel, row) in new_rows {
            self.file(rel, row);
        }
        self.recheck(input);
        Ok(self)
    }

    /// File row `row` of `rel`, a new `I_can` fact. A ground fact joins
    /// `missing`. Otherwise its nulls join one block, merging the blocks
    /// they connect, and that block joins `unmapped` for a re-check.
    fn file(&mut self, rel: RelId, row: u32) {
        let r = self.ts.relation(rel);
        let nulls = (0..r.arity()).filter_map(|attr| r.value_id_at(row, attr).value().as_null());
        let mut merges = Vec::new();
        let Some(first) = self
            .forest
            .join(nulls, |from, into| merges.push((from, into)))
        else {
            self.missing.push((rel, row));
            return;
        };
        let members = &mut self.members;
        members.resize_with(self.forest.len(), Vec::new);
        for (from, into) in merges {
            // Move the smaller list, so merges cost O(n log n) in all.
            let mut moved = std::mem::take(&mut members[from as usize]);
            if moved.len() > members[into as usize].len() {
                std::mem::swap(&mut moved, &mut members[into as usize]);
            }
            members[into as usize].extend(moved);
        }
        let root = self.forest.find(first);
        members[root as usize].push((rel, row));
        self.unmapped.push(root);
    }

    /// Drop the ground facts `input` now holds, then check the blocks not
    /// known to map, earlier failures first, up to the first that still
    /// fails. That block and the unchecked rest stay unmapped, so a "no"
    /// costs one check; a missing ground fact answers "no" with none.
    fn recheck(&mut self, input: &Instance) {
        let ts = &self.ts;
        let mut ids = Vec::new();
        self.missing.retain(|&(rel, row)| {
            let r = ts.relation(rel);
            ids.clear();
            ids.extend((0..r.arity()).map(|attr| r.value_id_at(row, attr)));
            !input.relation(rel).contains_ids(&ids)
        });
        let mut roots = std::mem::take(&mut self.unmapped);
        for s in &mut roots {
            *s = self.forest.find(*s);
        }
        let mut seen = HashSet::new();
        roots.retain(|root| seen.insert(*root));
        if self.missing.is_empty() {
            let hom = &mut self.hom;
            let mapped = (roots.iter())
                .take_while(|&&root| {
                    let block = block_at(ts, &self.members[root as usize]);
                    check_block(input, root as usize, &block, hom)
                })
                .count();
            roots.drain(..mapped);
        }
        self.unmapped = roots;
    }
}

/// The block made of rows `facts` of `ts`, its nulls in ascending order.
fn block_at(ts: &Instance, facts: &[(RelId, u32)]) -> Block {
    let facts: Vec<(RelId, Tuple)> = (facts.iter())
        .map(|&(rel, row)| (rel, ts.relation(rel).row(row).expect("Σts rows stay live")))
        .collect();
    let mut nulls: Vec<NullId> = facts.iter().flat_map(|(_, t)| t.nulls()).collect();
    nulls.sort_unstable();
    nulls.dedup();
    Block { facts, nulls }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solution::is_solution;
    use pde_chase::chase_tgds;
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
            SolveError::HasTargetConstraints
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
            SolveError::NotInCtract
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
            SolveError::InputNotGround
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
        use pde_runtime::{GovernorConfig, StopReason};
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
            SolveError::Stopped(StopReason::DeadlineExceeded { .. })
        ));
    }

    /// Grow `input` fact by fact, keeping its Σst fixpoint incrementally
    /// as `pde serve` does, and require [`DemandState`] to answer like a
    /// fresh `exists_solution` after every insert.
    fn follow_inserts(p: &PdeSetting, base: &str, inserts: &[&str]) {
        let st_deps: Vec<Dependency> = p.sigma_st().iter().cloned().map(Dependency::Tgd).collect();
        let gen = NullGen::new();
        let governor = Governor::unlimited();
        let mut input = parse_instance(p.schema(), base).unwrap();
        let mut st = input.clone();
        let mut demand = DemandState::new(p).unwrap();
        let mut since = 0;
        for step in std::iter::once("").chain(inserts.iter().copied()) {
            let facts = parse_instance(p.schema(), step).unwrap();
            for (rel, t) in facts.facts() {
                input.insert(rel, t.clone());
                st.insert(rel, t);
            }
            let res = chase_incremental_governed(
                st,
                &st_deps,
                WitnessMode::FreshNulls(&gen),
                ChaseLimits::default(),
                &governor,
                None,
                since,
            );
            st = res.into_success().unwrap();
            demand = demand.extend(&input, &st, &gen, &governor).unwrap();
            let fresh = exists_solution(p, &input).unwrap().exists;
            assert_eq!(demand.exists(), fresh, "after inserting {step:?}");
            since = st.bump_epoch();
        }
    }

    #[test]
    fn demand_state_follows_inserts_like_a_fresh_solve() {
        follow_inserts(
            &example1(),
            "E(a, a).",
            &[
                "E(a, b).",
                "E(b, c).",
                "E(a, c).",
                "E(c, d).",
                "E(b, d). E(a, d).",
            ],
        );
        // Σts existentials: each H edge demands a 2-path in E.
        let lav = PdeSetting::parse(
            "source E/2; target H/2;",
            "E(x, y) -> H(x, y)",
            "H(x, y) -> exists z . E(x, z), E(z, y)",
            "",
        )
        .unwrap();
        follow_inserts(
            &lav,
            "E(a, a).",
            &["E(a, b).", "E(b, b).", "E(b, c).", "E(c, c)."],
        );
        // A later R fact joins the block of the S null; the Q fact then
        // makes that failed block map again.
        let joining = PdeSetting::parse(
            "source S/1; source R/2; source P/2; source Q/2; target T/2; target U/2;",
            "S(a) -> exists y . T(a, y); R(a, b) -> U(a, b)",
            "T(a, y) -> P(a, y); T(a, y), U(a, b) -> Q(y, b)",
            "",
        )
        .unwrap();
        follow_inserts(
            &joining,
            "S(s1). P(s1, c). R(s1, d). Q(c, d). Q(e, d).",
            &["R(s1, z).", "Q(c, z).", "S(s2).", "P(s2, e).", "R(s2, d)."],
        );
    }

    #[test]
    fn demand_state_stop_is_undecided() {
        use pde_runtime::{GovernorConfig, StopReason};
        use std::time::Duration;
        let p = example1();
        let input = parse_instance(p.schema(), "E(a, b). E(b, c).").unwrap();
        let gen = NullGen::new();
        let st = chase_tgds(input.clone(), p.sigma_st(), &gen)
            .into_success()
            .unwrap();
        let governor = Governor::new(GovernorConfig {
            deadline: Some(Duration::ZERO),
            ..GovernorConfig::default()
        });
        let err = DemandState::new(&p)
            .unwrap()
            .extend(&input, &st, &gen, &governor)
            .err()
            .unwrap();
        assert!(matches!(
            err,
            SolveError::Stopped(StopReason::DeadlineExceeded { .. })
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
