//! Complete solver for PDE settings with no target constraints.
//!
//! **Idea.** Chase `(I, J)` with Σst to get the canonical target `J_can`
//! (Lemma 3: `J_can` maps homomorphically into *every* solution). Because
//! Σts conclusions range over the *fixed* source instance, satisfaction of
//! Σts is antitone in the target: if `J'` is a solution and
//! `h : J_can → J'` is the Lemma 3 homomorphism, then `h(J_can)` is itself
//! a solution (it contains `J`, homomorphic images preserve Σst, and it is
//! a subinstance of `J'` so it fires no Σts premise `J'` doesn't). Hence a
//! solution exists **iff** some constant-preserving image of `J_can`
//! satisfies Σts — a search over assignments of the nulls of `J_can`.
//!
//! **Search space.** A null that occurs at a position the Σts column
//! domains constrain ([`crate::domain`]) maps only to a constant of the
//! intersection of its positions' domains. Every other null maps to a
//! constant of `adom(I)` or stays a null (`Keep`). A value outside
//! `adom(I)` would never do better than `Keep`: a Σts conclusion can only
//! be witnessed inside `I`, and merging nulls only fires *more* premises.
//! At a constrained position even `Keep` cannot hold: `h(J_can)` is a
//! solution, so the Lemma 3 image `h(n)` of a null `n` there is a constant
//! of a projection `π_j(S^I) ⊆ adom(I)`, hence of the domain — a null
//! there could never satisfy the Σts tgd, because `I` is ground. The
//! branch that follows `h` is therefore kept, and the space stays finite:
//! at most `(|adom(I)| + 1)^{#nulls}`, matching the NP upper bound of
//! Theorem 1 (for Σt = ∅). Nulls are assigned in order of first
//! occurrence in `J_can`; constants are tried in name order.
//!
//! **Pruning.** A Σts violation whose premise match uses only *determined*
//! facts (facts whose nulls are all assigned) is permanent — later
//! assignments add facts and merge nothing that could remove the match, and
//! the conclusions range over the fixed `I`. The search therefore checks,
//! after each assignment, only premise matches anchored at newly determined
//! facts, and backtracks on any violation.
//!
//! The solver accepts *disjunctive* Σts dependencies (the §4 extension):
//! everything above goes through verbatim with "some disjunct extendable
//! into `I`" as the satisfaction test.

use crate::domain::{by_name, column_domains, Position};
use crate::setting::PdeSetting;
use crate::solver::SolveError;
use pde_chase::{chase_tgds_governed, null_gen_for, ChaseEngine};
use pde_constraints::{DisjunctiveTgd, Orientation, Tgd};
use pde_relational::{
    exists_hom, for_each_hom, Assignment, FxBuildHasher, Instance, NullId, Peer, RelId, Schema,
    Term, Tuple, Value,
};
use pde_runtime::{Governor, StopReason};
use std::collections::HashMap;
use std::ops::ControlFlow;
use std::sync::Arc;

/// Search statistics.
#[derive(Clone, Debug, Default)]
pub struct SearchStats {
    /// Search-tree nodes visited (assignments attempted).
    pub nodes: usize,
    /// Branches pruned by the determined-violation check.
    pub prunes: usize,
    /// Complete candidate solutions reached and handed to the sink.
    pub candidates_checked: usize,
    /// Nulls in `J_can` (the search depth).
    pub null_count: usize,
    /// Facts in `J_can`.
    pub jcan_facts: usize,
    /// Engine counters of the Σst chase that built `J_can` (absorbed so
    /// `solve --stats` reports real chase work for this solver too).
    pub chase_stats: pde_chase::ChaseStats,
}

impl SearchStats {
    /// Export the search counters into a [`pde_trace::MetricsRegistry`]
    /// under the `search.` prefix, plus the absorbed Σst chase counters
    /// under `chase.`.
    pub fn export_metrics(&self, reg: &mut pde_trace::MetricsRegistry) {
        let u = |x: usize| u64::try_from(x).unwrap_or(u64::MAX);
        reg.add("search.nodes", u(self.nodes));
        reg.add("search.prunes", u(self.prunes));
        reg.add("search.candidates_checked", u(self.candidates_checked));
        reg.set_max("search.null_count", u(self.null_count));
        reg.set_max("search.jcan_facts", u(self.jcan_facts));
        self.chase_stats.export_metrics(reg);
    }
}

/// Outcome of a solve call.
#[derive(Clone, Debug)]
pub struct AssignmentOutcome {
    /// Does a solution exist?
    pub exists: bool,
    /// When `exists`: a materialized solution (combined instance).
    pub witness: Option<Instance>,
    /// Search statistics.
    pub stats: SearchStats,
}

/// A PDE problem whose Σts may contain disjunctive tgds (the §4 boundary
/// extension). Plain settings lift via [`DisjunctiveProblem::from_setting`].
#[derive(Clone)]
pub struct DisjunctiveProblem {
    schema: Arc<Schema>,
    sigma_st: Vec<Tgd>,
    sigma_ts: Vec<DisjunctiveTgd>,
}

impl DisjunctiveProblem {
    /// Build and validate.
    pub fn new(
        schema: Arc<Schema>,
        sigma_st: Vec<Tgd>,
        sigma_ts: Vec<DisjunctiveTgd>,
    ) -> Result<DisjunctiveProblem, SolveError> {
        for t in &sigma_st {
            t.validate(&schema, Orientation::SourceToTarget)
                .map_err(|e| SolveError::InvalidDependency(e.to_string()))?;
        }
        for d in &sigma_ts {
            d.validate(&schema, Orientation::TargetToSource)
                .map_err(|e| SolveError::InvalidDependency(e.to_string()))?;
        }
        Ok(DisjunctiveProblem {
            schema,
            sigma_st,
            sigma_ts,
        })
    }

    /// Lift a plain setting (each Σts tgd becomes a single disjunct).
    ///
    /// Fails if the setting has target constraints.
    pub fn from_setting(setting: &PdeSetting) -> Result<DisjunctiveProblem, SolveError> {
        if !setting.has_no_target_constraints() {
            return Err(SolveError::HasTargetConstraints);
        }
        Ok(DisjunctiveProblem {
            schema: setting.schema().clone(),
            sigma_st: setting.sigma_st().to_vec(),
            sigma_ts: setting
                .sigma_ts()
                .iter()
                .map(DisjunctiveTgd::from_tgd)
                .collect(),
        })
    }

    /// The combined schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The source-to-target tgds.
    pub fn sigma_st(&self) -> &[Tgd] {
        &self.sigma_st
    }

    /// The (disjunctive) target-to-source dependencies.
    pub fn sigma_ts(&self) -> &[DisjunctiveTgd] {
        &self.sigma_ts
    }
}

/// Decide existence of a solution for `input` in `setting` (Σt must be
/// empty), returning a materialized witness when one exists.
pub fn solve(setting: &PdeSetting, input: &Instance) -> Result<AssignmentOutcome, SolveError> {
    let problem = DisjunctiveProblem::from_setting(setting)?;
    solve_disjunctive(&problem, input)
}

/// [`solve`] under an explicit chase engine (for the Σst chase) and
/// runtime governor, checked at every search node. A governor stop
/// surfaces as [`SolveError::Stopped`] — never as a yes/no answer.
pub fn solve_governed(
    setting: &PdeSetting,
    input: &Instance,
    engine: ChaseEngine,
    governor: &Governor,
) -> Result<AssignmentOutcome, SolveError> {
    let problem = DisjunctiveProblem::from_setting(setting)?;
    solve_disjunctive_governed(&problem, input, engine, governor)
}

/// [`solve`] for a disjunctive problem.
pub fn solve_disjunctive(
    problem: &DisjunctiveProblem,
    input: &Instance,
) -> Result<AssignmentOutcome, SolveError> {
    solve_disjunctive_governed(
        problem,
        input,
        pde_chase::default_chase_engine(),
        &Governor::unlimited(),
    )
}

/// [`solve_disjunctive`] under an explicit chase engine and runtime
/// governor.
fn solve_disjunctive_governed(
    problem: &DisjunctiveProblem,
    input: &Instance,
    engine: ChaseEngine,
    governor: &Governor,
) -> Result<AssignmentOutcome, SolveError> {
    let mut found = None;
    let stats = search(problem, input, engine, governor, |sol| {
        found = Some(sol.clone());
        ControlFlow::Break(())
    })?;
    Ok(AssignmentOutcome {
        exists: found.is_some(),
        witness: found,
        stats,
    })
}

/// Enumerate candidate solutions — the constant-preserving images of
/// `J_can` that are solutions. Every solution of the problem contains one
/// of the enumerated candidates, so for monotone queries the certain
/// answers are the intersection of the answers over this family.
pub fn for_each_solution(
    problem: &DisjunctiveProblem,
    input: &Instance,
    f: impl FnMut(&Instance) -> ControlFlow<()>,
) -> Result<SearchStats, SolveError> {
    search(
        problem,
        input,
        pde_chase::default_chase_engine(),
        &Governor::unlimited(),
        f,
    )
}

struct SearchCtx<'a, F> {
    problem: &'a DisjunctiveProblem,
    /// The nulls of `J_can` in assignment order.
    steps: &'a [NullStep],
    /// The target facts of `J_can`, with their null inventories.
    facts: Vec<FactState>,
    /// Current assignment (`Keep` = maps to its own null value).
    assigned: HashMap<NullId, Value, FxBuildHasher>,
    /// The determined instance: `I` plus the images of determined facts.
    determined: Instance,
    /// Reference counts of determined target facts (merges).
    refcount: HashMap<(RelId, Tuple), usize, FxBuildHasher>,
    stats: SearchStats,
    sink: F,
    /// Resource governor, checked at every search node.
    governor: &'a Governor,
    /// Set when the governor stopped the search (distinguishes a governor
    /// stop from the sink breaking early).
    stopped: Option<StopReason>,
    /// The combined source instance (for conclusion checks the source part
    /// of `determined` is exactly `I`, so `determined` serves both roles).
    _input: &'a Instance,
}

enum NodeResult {
    Stop,
    Continue,
}

fn search(
    problem: &DisjunctiveProblem,
    input: &Instance,
    engine: ChaseEngine,
    governor: &Governor,
    f: impl FnMut(&Instance) -> ControlFlow<()>,
) -> Result<SearchStats, SolveError> {
    if !input.is_ground() {
        return Err(SolveError::InputNotGround);
    }
    let gen = null_gen_for(input);
    let st_res = chase_tgds_governed(input.clone(), &problem.sigma_st, &gen, engine, governor);
    if !st_res.is_success() {
        return Err(SolveError::chase_refusal(st_res.outcome));
    }
    let mut stats = search_chased(problem, input, &st_res.instance, governor, f)?;
    stats.chase_stats.absorb(st_res.stats);
    Ok(stats)
}

/// The search over the nulls of `jcan_combined`, the Σst fixpoint of the
/// ground `input`, so it runs no chase of its own. A governor stop
/// surfaces as [`SolveError::Stopped`].
pub(crate) fn search_chased(
    problem: &DisjunctiveProblem,
    input: &Instance,
    jcan_combined: &Instance,
    governor: &Governor,
    f: impl FnMut(&Instance) -> ControlFlow<()>,
) -> Result<SearchStats, SolveError> {
    // Collect target facts, their nulls (first occurrence order, by id
    // within a fact), and the positions each null occurs at.
    let mut facts: Vec<FactState> = Vec::new();
    let mut steps: Vec<NullStep> = Vec::new();
    let mut positions: Vec<Vec<Position>> = Vec::new();
    let mut step_of: HashMap<NullId, usize, FxBuildHasher> = HashMap::default();
    for (rel, t) in jcan_combined.facts_of(Peer::Target) {
        let idx = facts.len();
        let mut nulls: Vec<(NullId, usize)> = t
            .values()
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.as_null().map(|n| (n, i)))
            .collect();
        nulls.sort_unstable();
        let mut unassigned = 0;
        for (n, i) in nulls {
            let s = *step_of.entry(n).or_insert_with(|| {
                steps.push(NullStep {
                    null: n,
                    options: Vec::new(),
                    occurrences: Vec::new(),
                });
                positions.push(Vec::new());
                steps.len() - 1
            });
            positions[s].push((rel, i));
            if steps[s].occurrences.last() != Some(&idx) {
                steps[s].occurrences.push(idx);
                unassigned += 1;
            }
        }
        facts.push(FactState {
            rel,
            tuple: t,
            unassigned,
        });
    }

    // Each null's options: its domain at a constrained position, else
    // `Keep` (smallest solutions first) and then every source constant.
    let candidates = by_name(
        input
            .active_domain_of(Peer::Source)
            .into_iter()
            .filter(Value::is_const),
    );
    let domains = column_domains(
        &problem.sigma_ts,
        input,
        positions.iter().flatten().copied(),
    );
    for (step, pos) in steps.iter_mut().zip(positions) {
        step.options = domains.meet(pos).unwrap_or_else(|| {
            std::iter::once(Value::Null(step.null))
                .chain(candidates.iter().copied())
                .collect()
        });
    }

    let mut ctx = SearchCtx {
        problem,
        steps: &steps,
        facts,
        assigned: HashMap::default(),
        determined: input.restrict(Peer::Source),
        refcount: HashMap::default(),
        stats: SearchStats::default(),
        sink: f,
        governor,
        stopped: None,
        _input: input,
    };
    ctx.stats.null_count = ctx.steps.len();
    ctx.stats.jcan_facts = ctx.facts.len();

    // Seed the determined instance with the ground target facts of J_can
    // and check them; a violation here is unfixable (no nulls involved).
    let ground_facts: Vec<usize> = ctx
        .facts
        .iter()
        .enumerate()
        .filter(|(_, fs)| fs.unassigned == 0)
        .map(|(i, _)| i)
        .collect();
    let mut ok = true;
    for i in ground_facts {
        if !ctx.insert_determined(i) {
            ok = false;
            break;
        }
    }
    if ok {
        ctx.descend(0);
    }
    if let Some(reason) = ctx.stopped {
        return Err(SolveError::Stopped(reason));
    }
    Ok(ctx.stats)
}

struct FactState {
    rel: RelId,
    tuple: Tuple,
    unassigned: usize,
}

/// One null of `J_can`: the values it is tried with and the facts it
/// occurs in, both fixed for the whole search.
struct NullStep {
    null: NullId,
    /// The values tried, in order; `Value::Null(null)` is `Keep`.
    options: Vec<Value>,
    /// Indices into `SearchCtx::facts`, each once.
    occurrences: Vec<usize>,
}

impl<F: FnMut(&Instance) -> ControlFlow<()>> SearchCtx<'_, F> {
    /// Image of fact `i` under the current assignment.
    fn image_of(&self, i: usize) -> (RelId, Tuple) {
        let fs = &self.facts[i];
        let t = fs.tuple.map(|v| match v {
            Value::Null(n) => self.assigned.get(&n).copied().unwrap_or(v),
            Value::Const(_) => v,
        });
        (fs.rel, t)
    }

    /// Insert the image of fact `i` into the determined instance and check
    /// for new Σts violations anchored at it. Returns `false` on violation
    /// (the fact stays inserted; the caller unwinds via
    /// [`SearchCtx::remove_determined`]).
    fn insert_determined(&mut self, i: usize) -> bool {
        let (rel, img) = self.image_of(i);
        let key = (rel, img.clone());
        let rc = self.refcount.entry(key).or_insert(0);
        *rc += 1;
        if *rc > 1 {
            return true; // already present: no new matches possible
        }
        self.determined.insert(rel, img.clone());
        self.check_anchor(rel, &img)
    }

    /// Undo [`SearchCtx::insert_determined`].
    fn remove_determined(&mut self, i: usize) {
        let (rel, img) = self.image_of(i);
        let key = (rel, img.clone());
        let rc = self
            .refcount
            .get_mut(&key)
            .expect("remove_determined only follows a matching insert_determined");
        *rc -= 1;
        if *rc == 0 {
            self.refcount.remove(&key);
            self.determined.remove(rel, &img);
        }
    }

    /// Check every Σts premise match that uses the new fact; `false` when
    /// a match has no extendable disjunct.
    fn check_anchor(&self, rel: RelId, img: &Tuple) -> bool {
        for d in &self.problem.sigma_ts {
            for (ai, atom) in d.premise.atoms.iter().enumerate() {
                if atom.rel != rel {
                    continue;
                }
                let Some(partial) = unify_atom_with_tuple(atom, img) else {
                    continue;
                };
                let rest: Vec<pde_relational::Atom> = d
                    .premise
                    .atoms
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != ai)
                    .map(|(_, a)| a.clone())
                    .collect();
                let mut violated = false;
                let _ = for_each_hom(&rest, &self.determined, &partial, |h| {
                    let ok = d
                        .disjuncts
                        .iter()
                        .any(|dj| exists_hom(&dj.conjunction.atoms, &self.determined, h));
                    if ok {
                        ControlFlow::Continue(())
                    } else {
                        violated = true;
                        ControlFlow::Break(())
                    }
                });
                if violated {
                    return false;
                }
            }
        }
        true
    }

    /// DFS over nulls from `depth`.
    fn descend(&mut self, depth: usize) -> NodeResult {
        self.stats.nodes += 1;
        let _span = pde_trace::span("solver.branch")
            .field("solver", "assignment")
            .field("depth", depth)
            .field("node", self.stats.nodes);
        let bytes = if self.governor.tracks_memory() {
            self.determined.heap_bytes()
        } else {
            0
        };
        if let Err(reason) = self.governor.on_round(self.stats.nodes, bytes) {
            self.stopped = Some(reason);
            return NodeResult::Stop;
        }
        if depth == self.steps.len() {
            // All facts determined and checked: the determined target part
            // plus `I` is a solution. Hand it to the sink.
            self.stats.candidates_checked += 1;
            let sol = self.determined.clone();
            debug_assert!(
                {
                    let st_ok = self
                        .problem
                        .sigma_st
                        .iter()
                        .all(|t| pde_chase::satisfies_tgd(&sol, t));
                    let ts_ok = self
                        .problem
                        .sigma_ts
                        .iter()
                        .all(|d| pde_chase::satisfies_disjunctive(&sol, d));
                    st_ok && ts_ok
                },
                "leaf must be a solution"
            );
            return match (self.sink)(&sol) {
                ControlFlow::Break(()) => NodeResult::Stop,
                ControlFlow::Continue(()) => NodeResult::Continue,
            };
        }
        let step = &self.steps[depth];
        let n = step.null;
        for &val in &step.options {
            self.assigned.insert(n, val);
            let mut newly: Vec<usize> = Vec::new();
            for &fi in &step.occurrences {
                self.facts[fi].unassigned -= 1;
                if self.facts[fi].unassigned == 0 {
                    newly.push(fi);
                }
            }
            let mut ok = true;
            let mut inserted = 0usize;
            for &fi in &newly {
                inserted += 1;
                if !self.insert_determined(fi) {
                    ok = false;
                    break;
                }
            }
            let result = if ok {
                self.descend(depth + 1)
            } else {
                self.stats.prunes += 1;
                NodeResult::Continue
            };
            // Unwind.
            for &fi in newly.iter().take(inserted) {
                self.remove_determined(fi);
            }
            for &fi in &step.occurrences {
                self.facts[fi].unassigned += 1;
            }
            self.assigned.remove(&n);
            if matches!(result, NodeResult::Stop) {
                return NodeResult::Stop;
            }
        }
        NodeResult::Continue
    }
}

/// Unify an atom's terms with a concrete tuple, producing the induced
/// partial assignment; `None` when constants clash or a repeated variable
/// would need two values.
fn unify_atom_with_tuple(atom: &pde_relational::Atom, t: &Tuple) -> Option<Assignment> {
    let mut a = Assignment::new();
    for (i, term) in atom.terms.iter().enumerate() {
        let tv = t.get(i);
        match term {
            Term::Const(c) => {
                if Value::Const(*c) != tv {
                    return None;
                }
            }
            Term::Var(v) => match a.get(*v) {
                Some(prev) if prev != tv => return None,
                _ => a.bind(*v, tv),
            },
        }
    }
    Some(a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solution::is_solution;
    use pde_constraints::parse_disjunctive_tgd;
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
    fn example1_cases() {
        let p = example1();
        let no = parse_instance(p.schema(), "E(a, b). E(b, c).").unwrap();
        assert!(!solve(&p, &no).unwrap().exists);
        let yes = parse_instance(p.schema(), "E(a, a).").unwrap();
        let out = solve(&p, &yes).unwrap();
        assert!(out.exists);
        assert!(is_solution(&p, &yes, &out.witness.unwrap()));
        let tri = parse_instance(p.schema(), "E(a, b). E(b, c). E(a, c).").unwrap();
        let out = solve(&p, &tri).unwrap();
        assert!(out.exists);
        assert!(is_solution(&p, &tri, &out.witness.unwrap()));
    }

    #[test]
    fn agrees_with_tractable_solver_on_ctract_settings() {
        let p = example1();
        for src in [
            "E(a, b). E(b, c).",
            "E(a, a).",
            "E(a, b). E(b, c). E(a, c).",
            "E(a, b). E(b, a).",
            "E(a, b). E(b, c). E(c, a).",
            "",
        ] {
            let input = parse_instance(p.schema(), src).unwrap();
            let fast = crate::tractable::exists_solution(&p, &input)
                .unwrap()
                .exists;
            let slow = solve(&p, &input).unwrap().exists;
            assert_eq!(fast, slow, "disagreement on {src:?}");
        }
    }

    #[test]
    fn existential_st_requires_assignment() {
        // The paper's §4 marked-variable example:
        // Σst: S(x1, x2) -> exists y . T(x1, y)
        // Σts: T(x1, x2) -> exists w . S(w, x2)
        // T's null must map to some value v with S(w, v) in I.
        let p = PdeSetting::parse(
            "source S/2; target T/2;",
            "S(x1, x2) -> exists y . T(x1, y)",
            "T(x1, x2) -> exists w . S(w, x2)",
            "",
        )
        .unwrap();
        // S(a, b): T(a, ?n); need S(w, f(n)): assigning n := b works
        // (S(a, b) witnesses w = a, x2 = b); keeping the null fails.
        let input = parse_instance(p.schema(), "S(a, b).").unwrap();
        let out = solve(&p, &input).unwrap();
        assert!(out.exists);
        let w = out.witness.unwrap();
        assert!(is_solution(&p, &input, &w));
        assert!(w.is_ground(), "the null must be assigned to a constant");
    }

    #[test]
    fn keep_null_when_ts_ignores_it() {
        // Σts only constrains T's first column, so the null can stay.
        let p = PdeSetting::parse(
            "source S/1; source W/1; target T/2;",
            "S(x) -> exists y . T(x, y)",
            "T(x, y) -> W(x)",
            "",
        )
        .unwrap();
        let input = parse_instance(p.schema(), "S(a). W(a).").unwrap();
        let out = solve(&p, &input).unwrap();
        assert!(out.exists);
        let w = out.witness.unwrap();
        assert!(is_solution(&p, &input, &w));
        assert!(!w.is_ground(), "Keep branch found first (smallest witness)");
    }

    #[test]
    fn clique_reduction_tiny() {
        // Theorem 3 setting; I(G, k) for the triangle graph and k = 3:
        // solution exists iff G has a 3-clique. (The paper's printed Σts
        // omits the w-coordinate consistency tgd; without it any graph with
        // one edge admits a solution. We add it — see DESIGN.md.)
        let p = PdeSetting::parse(
            "source D/2; source S/2; source E/2; target P/4;",
            "D(x, y) -> exists z, w . P(x, z, y, w)",
            "P(x, z, y, w) -> E(z, w);
             P(x, z, y, w), P(x, z2, y2, w2) -> S(z, z2);
             P(x, z, y, w), P(y, z2, y2, w2) -> S(w, z2)",
            "",
        )
        .unwrap();
        // Triangle on {u, v, t}: D = inequality on {a1, a2, a3},
        // S = identity on V, E = symmetric edges.
        let tri = parse_instance(
            p.schema(),
            "D(a1, a2). D(a2, a1). D(a1, a3). D(a3, a1). D(a2, a3). D(a3, a2).
             S(u, u). S(v, v). S(t, t).
             E(u, v). E(v, u). E(u, t). E(t, u). E(v, t). E(t, v).",
        )
        .unwrap();
        let out = solve(&p, &tri).unwrap();
        assert!(out.exists, "triangle contains a 3-clique");
        // Path u - v - t has no 3-clique.
        let path = parse_instance(
            p.schema(),
            "D(a1, a2). D(a2, a1). D(a1, a3). D(a3, a1). D(a2, a3). D(a3, a2).
             S(u, u). S(v, v). S(t, t).
             E(u, v). E(v, u). E(v, t). E(t, v).",
        )
        .unwrap();
        assert!(!solve(&p, &path).unwrap().exists, "path has no 3-clique");
    }

    #[test]
    fn enumeration_yields_multiple_solutions() {
        let p = example1();
        let tri = parse_instance(p.schema(), "E(a, b). E(b, c). E(a, c).").unwrap();
        let problem = DisjunctiveProblem::from_setting(&p).unwrap();
        let mut count = 0usize;
        for_each_solution(&problem, &tri, |sol| {
            assert!(is_solution(&p, &tri, sol));
            count += 1;
            ControlFlow::Continue(())
        })
        .unwrap();
        // J_can = {H(a,c)} has no nulls: exactly one candidate solution.
        assert_eq!(count, 1);
    }

    #[test]
    fn disjunctive_ts_dependencies() {
        // C(x, u) -> R(u) | B(u): every "color" value used must be r or b.
        let schema = Arc::new(
            pde_relational::parse_schema("source V/1; source R/1; source B/1; target C/2;")
                .unwrap(),
        );
        let st =
            pde_constraints::parser::parse_tgds(&schema, "V(x) -> exists u . C(x, u)").unwrap();
        let ts = vec![parse_disjunctive_tgd(&schema, "C(x, u) -> R(u) | B(u)").unwrap()];
        let problem = DisjunctiveProblem::new(schema.clone(), st, ts).unwrap();
        let input = parse_instance(&schema, "V(n1). V(n2). R(r). B(b).").unwrap();
        let out = solve_disjunctive(&problem, &input).unwrap();
        assert!(out.exists);
        let w = out.witness.unwrap();
        assert!(w.is_ground(), "colors must be assigned");
        // Without any color constants there is no solution.
        let bad = parse_instance(&schema, "V(n1).").unwrap();
        assert!(!solve_disjunctive(&problem, &bad).unwrap().exists);
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
            solve(&p, &input).unwrap_err(),
            SolveError::HasTargetConstraints
        );
    }

    #[test]
    fn governed_cancellation_is_undecided_not_answered() {
        use pde_runtime::{CancelToken, GovernorConfig};
        let p = example1();
        let input = parse_instance(p.schema(), "E(a, a).").unwrap();
        let token = CancelToken::new();
        token.cancel();
        let governor = Governor::new(GovernorConfig {
            cancel: Some(token),
            ..GovernorConfig::default()
        });
        let err =
            solve_governed(&p, &input, pde_chase::default_chase_engine(), &governor).unwrap_err();
        assert!(matches!(err, SolveError::Stopped(StopReason::Cancelled)));
    }

    #[test]
    fn a_constrained_null_takes_only_its_domain_and_no_keep() {
        // The null of T's second column is constrained by both Σts tgds:
        // A's column meets B's in `b` alone.
        let p = PdeSetting::parse(
            "source S/1; source A/1; source B/1; target T/2;",
            "S(x) -> exists y . T(x, y)",
            "T(x, y) -> A(y); T(u, v) -> B(v)",
            "",
        )
        .unwrap();
        let input = parse_instance(p.schema(), "S(s). A(a). A(b). B(b). B(c).").unwrap();
        let out = solve(&p, &input).unwrap();
        assert!(out.exists);
        assert!(out.witness.unwrap().is_ground());
        // The root and its one child; no other option was tried.
        assert_eq!((out.stats.nodes, out.stats.prunes), (2, 0));
        // No common value: the null has no option at all.
        let input = parse_instance(p.schema(), "S(s). A(a). B(c).").unwrap();
        let out = solve(&p, &input).unwrap();
        assert!(!out.exists);
        assert_eq!((out.stats.nodes, out.stats.prunes), (1, 0));
    }

    #[test]
    fn stats_reflect_search() {
        let p = PdeSetting::parse(
            "source S/2; target T/2;",
            "S(x1, x2) -> exists y . T(x1, y)",
            "T(x1, x2) -> exists w . S(w, x2)",
            "",
        )
        .unwrap();
        let input = parse_instance(p.schema(), "S(a, b). S(b, c).").unwrap();
        let out = solve(&p, &input).unwrap();
        assert!(out.exists);
        assert_eq!(out.stats.null_count, 2);
        assert!(out.stats.nodes >= 2);
    }
}
