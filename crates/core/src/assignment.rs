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
//! Theorem 1 (for Σt = ∅). Each null's option list starts as that set,
//! `Keep` first and constants in name order.
//!
//! **One working instance.** The search runs on one copy of the combined
//! `(I, J_can)` under [`Instance::savepoint`]/[`Instance::rollback`]. An
//! assignment `n := c` is the substitution of `c` for `n`; `Keep` changes
//! no row and only marks `n` *final*. A value is final when it is a
//! constant or a kept null: no later step changes it. A leaf (every null
//! final) is the image of `J_can` under its assignment, and the working
//! instance itself is handed to the sink.
//!
//! **Why the pruning is complete (Lemma 3).** Every assignment is a
//! homomorphism, so a Σts premise match, once it exists, is carried into
//! every extension of the branch, and the values of its *exported*
//! variables (those some disjunct uses) stay what they are once they are
//! final. Three rules cut the tree; none removes a leaf that is a
//! solution, so the set of leaves — the family [`for_each_solution`]
//! enumerates — is the set of assignments whose image is a solution, and
//! only its order depends on the rules.
//!
//! * (a) *Permanent violations.* A match whose exported variables are all
//!   bound to final values and that no disjunct extends into `I` is a
//!   violation in every extension: the branch is cut. The check after a
//!   step looks only at the matches anchored at the rows that hold the
//!   stepped null's value: a substitution re-stamps the rows it rewrites,
//!   so they form the delta of a semi-naive search, and a `Keep` anchors
//!   at the rows holding the null by binding it into the premise. Any
//!   other match kept its values and its finality. The root checks every
//!   match once.
//! * (b) *Forward checking.* When all exported values of an anchored match
//!   are final but those equal to one unassigned null `m`, one query of
//!   the disjuncts into `I`, with `m`'s variables left free, gives the
//!   values `d` for which some disjunct holds once `m := d`. The match
//!   persists under `m := d`, so every other value is one that (a) would
//!   reject once `m` is assigned; forward checking drops it from `m`'s
//!   live options. Since `I` is ground, `Keep` survives only a match in
//!   which some disjunct holds without `m`'s variables. A list emptied by
//!   drops cuts the branch, as every value of `m` would.
//! * (c) *Fewest live options first.* The next null is the unassigned one
//!   with the fewest live options, ties broken by first occurrence in
//!   `J_can`; this changes only the order. Live options are undone through
//!   a trail, so no option list is allocated per node.
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
    exists_hom, for_each_hom, for_each_hom_seminaive, Assignment, FxBuildHasher, Instance, NullId,
    Peer, Schema, Value, Var,
};
use pde_runtime::{Governor, StopReason};
use std::collections::HashMap;
use std::ops::ControlFlow;
use std::sync::Arc;

/// Search statistics.
#[derive(Clone, Debug, Default)]
pub struct SearchStats {
    /// Search-tree nodes visited: the root and every assignment that
    /// passed its checks.
    pub nodes: usize,
    /// Assignments tried and rejected: the step completed a permanent Σts
    /// violation, or forward checking emptied the live options of another
    /// null (a *wipeout*). A wipeout rejects the step like a violation and
    /// counts here once; it is not a node.
    pub prunes: usize,
    /// Values forward checking dropped from the live options of unassigned
    /// nulls, counted when dropped (a drop undone on backtracking is not
    /// taken back). A dropped value is never tried, so it is neither a
    /// node nor a prune.
    pub forward_drops: usize,
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
        reg.add("search.forward_drops", u(self.forward_drops));
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

/// A Σts dependency's premise variables, as the checks use them.
struct PremiseVars {
    /// Premise variables some disjunct uses, each once.
    exported: Vec<Var>,
    /// For each disjunct, the exported variables it uses.
    used_by: Vec<Vec<Var>>,
}

impl PremiseVars {
    fn of(d: &DisjunctiveTgd) -> PremiseVars {
        let premise = d.premise.variables();
        let used_by: Vec<Vec<Var>> = d
            .disjuncts
            .iter()
            .map(|dj| {
                dj.conjunction
                    .variables()
                    .into_iter()
                    .filter(|v| premise.contains(v))
                    .collect()
            })
            .collect();
        let mut exported: Vec<Var> = used_by.iter().flatten().copied().collect();
        exported.sort_unstable();
        exported.dedup();
        PremiseVars { exported, used_by }
    }
}

/// One null of `J_can` and its live options.
struct NullVar {
    null: NullId,
    /// The values it may take, in the order they are tried;
    /// `Value::Null(null)` is `Keep`. Fixed for the whole search.
    options: Vec<Value>,
    /// Which options are live, parallel to `options`.
    alive: Vec<bool>,
    /// Number of live options.
    live: usize,
    /// Assigned on the current branch (to a constant or `Keep`).
    assigned: bool,
}

struct SearchCtx<'a, F> {
    problem: &'a DisjunctiveProblem,
    /// Parallel to `problem.sigma_ts`.
    premises: Vec<PremiseVars>,
    /// The nulls of `J_can` in first-occurrence order.
    nulls: Vec<NullVar>,
    /// Index of each null in `nulls`.
    slot: HashMap<NullId, usize, FxBuildHasher>,
    /// Forward-check drops on the current branch, as `(null, option)`
    /// indices, undone newest first on backtracking.
    drops: Vec<(usize, usize)>,
    /// Scratch buffer of a forward check's surviving values.
    allowed: Vec<Value>,
    stats: SearchStats,
    sink: F,
    /// Resource governor, checked at every search node.
    governor: &'a Governor,
    /// Set when the governor stopped the search (distinguishes a governor
    /// stop from the sink breaking early).
    stopped: Option<StopReason>,
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
    // Collect the nulls of the target facts (first occurrence order, by id
    // within a fact) and the positions each one occurs at.
    let mut nulls: Vec<NullVar> = Vec::new();
    let mut positions: Vec<Vec<Position>> = Vec::new();
    let mut slot: HashMap<NullId, usize, FxBuildHasher> = HashMap::default();
    let mut jcan_facts = 0;
    for (rel, t) in jcan_combined.facts_of(Peer::Target) {
        jcan_facts += 1;
        let mut here: Vec<(NullId, usize)> = t
            .values()
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.as_null().map(|n| (n, i)))
            .collect();
        here.sort_unstable();
        for (n, i) in here {
            let s = *slot.entry(n).or_insert_with(|| {
                nulls.push(NullVar {
                    null: n,
                    options: Vec::new(),
                    alive: Vec::new(),
                    live: 0,
                    assigned: false,
                });
                positions.push(Vec::new());
                nulls.len() - 1
            });
            positions[s].push((rel, i));
        }
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
    for (nv, pos) in nulls.iter_mut().zip(positions) {
        nv.options = domains.meet(pos).unwrap_or_else(|| {
            std::iter::once(Value::Null(nv.null))
                .chain(candidates.iter().copied())
                .collect()
        });
        nv.alive = vec![true; nv.options.len()];
        nv.live = nv.options.len();
    }

    let mut ctx = SearchCtx {
        problem,
        premises: problem.sigma_ts.iter().map(PremiseVars::of).collect(),
        nulls,
        slot,
        drops: Vec::new(),
        allowed: Vec::new(),
        stats: SearchStats {
            jcan_facts,
            ..SearchStats::default()
        },
        sink: f,
        governor,
        stopped: None,
    };
    ctx.stats.null_count = ctx.nulls.len();

    // The root checks and forward-checks every premise match once; a
    // violation here involves no choice, so there is nothing to search.
    let mut k = jcan_combined.clone();
    if ctx.check_all(&k) {
        ctx.descend(&mut k, 0);
    }
    if let Some(reason) = ctx.stopped {
        return Err(SolveError::Stopped(reason));
    }
    Ok(ctx.stats)
}

impl<F: FnMut(&Instance) -> ControlFlow<()>> SearchCtx<'_, F> {
    /// DFS from a node with `depth` nulls assigned.
    fn descend(&mut self, k: &mut Instance, depth: usize) -> NodeResult {
        self.stats.nodes += 1;
        let _span = pde_trace::span("solver.branch")
            .field("solver", "assignment")
            .field("depth", depth)
            .field("node", self.stats.nodes);
        let bytes = if self.governor.tracks_memory() {
            k.heap_bytes()
        } else {
            0
        };
        if let Err(reason) = self.governor.on_round(self.stats.nodes, bytes) {
            self.stopped = Some(reason);
            return NodeResult::Stop;
        }
        let Some(s) = self.pick() else {
            // Every null is final and no violation remains: the working
            // instance is a solution. Hand it to the sink.
            self.stats.candidates_checked += 1;
            debug_assert!(
                self.problem
                    .sigma_st
                    .iter()
                    .all(|t| pde_chase::satisfies_tgd(k, t))
                    && self
                        .problem
                        .sigma_ts
                        .iter()
                        .all(|d| pde_chase::satisfies_disjunctive(k, d)),
                "leaf must be a solution"
            );
            return match (self.sink)(k) {
                ControlFlow::Break(()) => NodeResult::Stop,
                ControlFlow::Continue(()) => NodeResult::Continue,
            };
        };
        let n = self.nulls[s].null;
        self.nulls[s].assigned = true;
        let mut result = NodeResult::Continue;
        for i in 0..self.nulls[s].options.len() {
            if !self.nulls[s].alive[i] {
                continue;
            }
            let val = self.nulls[s].options[i];
            let mark = self.drops.len();
            let sp = k.savepoint();
            let since = k.bump_epoch();
            let ok = if val == Value::Null(n) {
                self.check_kept(k, n)
            } else {
                k.substitute(Value::Null(n), val);
                self.check_since(k, since)
            };
            if ok {
                result = self.descend(k, depth + 1);
            } else {
                self.stats.prunes += 1;
            }
            k.rollback(sp);
            self.undo_drops(mark);
            if matches!(result, NodeResult::Stop) {
                break;
            }
        }
        self.nulls[s].assigned = false;
        result
    }

    /// The unassigned null with the fewest live options, ties broken by
    /// first occurrence; `None` at a leaf.
    fn pick(&self) -> Option<usize> {
        self.nulls
            .iter()
            .enumerate()
            .filter(|(_, nv)| !nv.assigned)
            .min_by_key(|(s, nv)| (nv.live, *s))
            .map(|(s, _)| s)
    }

    /// Revive the options dropped since the trail was `mark` long.
    fn undo_drops(&mut self, mark: usize) {
        for (s, i) in self.drops.drain(mark..) {
            let nv = &mut self.nulls[s];
            nv.alive[i] = true;
            nv.live += 1;
        }
    }

    /// Check every premise match of `k` (the root).
    fn check_all(&mut self, k: &Instance) -> bool {
        let problem = self.problem;
        let none = Assignment::new();
        problem.sigma_ts.iter().enumerate().all(|(d, dep)| {
            for_each_hom(&dep.premise.atoms, k, &none, |h| self.examine(k, d, h)).is_continue()
        })
    }

    /// Check the premise matches that use a row stamped at or after
    /// `since`: the rows a substitution just rewrote.
    fn check_since(&mut self, k: &Instance, since: u64) -> bool {
        let problem = self.problem;
        let none = Assignment::new();
        problem.sigma_ts.iter().enumerate().all(|(d, dep)| {
            for_each_hom_seminaive(&dep.premise.atoms, k, &none, since, u64::MAX, |h| {
                self.examine(k, d, h)
            })
            .is_continue()
        })
    }

    /// Check the premise matches that bind an exported variable to the
    /// just-kept null `n`: the only matches whose finality changed.
    fn check_kept(&mut self, k: &Instance, n: NullId) -> bool {
        let problem = self.problem;
        (0..problem.sigma_ts.len()).all(|d| {
            (0..self.premises[d].exported.len()).all(|j| {
                let at = Assignment::from_pairs([(self.premises[d].exported[j], Value::Null(n))]);
                for_each_hom(&problem.sigma_ts[d].premise.atoms, k, &at, |h| {
                    self.examine(k, d, h)
                })
                .is_continue()
            })
        })
    }

    /// Apply rules (a) and (b) of the module docs to the match `h` of
    /// dependency `d`: break on a violation or a wipeout.
    fn examine(&mut self, k: &Instance, d: usize, h: &Assignment) -> ControlFlow<()> {
        let mut open: Option<usize> = None;
        for &x in &self.premises[d].exported {
            let Some(Value::Null(m)) = h.get(x) else {
                continue;
            };
            let s = self.slot[&m];
            if self.nulls[s].assigned || open == Some(s) {
                continue;
            }
            if open.is_some() {
                return ControlFlow::Continue(()); // two unassigned nulls
            }
            open = Some(s);
        }
        let holds = match open {
            None => self.problem.sigma_ts[d]
                .disjuncts
                .iter()
                .any(|dj| exists_hom(&dj.conjunction.atoms, k, h)),
            Some(s) => self.forward_check(k, d, h, s),
        };
        if holds {
            ControlFlow::Continue(())
        } else {
            ControlFlow::Break(())
        }
    }

    /// Rule (b): intersect the live options of the unassigned null in slot
    /// `s` with the values for which some disjunct extends `h` once the
    /// null takes them. `false` when that empties the list.
    fn forward_check(&mut self, k: &Instance, d: usize, h: &Assignment, s: usize) -> bool {
        let dep = &self.problem.sigma_ts[d];
        let here = Value::Null(self.nulls[s].null);
        let mut partial = h.clone();
        for &x in &self.premises[d].exported {
            if h.get(x) == Some(here) {
                partial.unbind(x);
            }
        }
        let mut allowed = std::mem::take(&mut self.allowed);
        allowed.clear();
        let mut unconstrained = false;
        for (dj, used) in dep.disjuncts.iter().zip(&self.premises[d].used_by) {
            let reads = |x: &&Var| h.get(**x) == Some(here);
            let Some(&first) = used.iter().find(reads) else {
                // This disjunct does not read the null: it decides alone.
                unconstrained |= exists_hom(&dj.conjunction.atoms, k, &partial);
                continue;
            };
            let _ = for_each_hom(&dj.conjunction.atoms, k, &partial, |g| {
                let v = g.get(first).expect("a used variable is bound");
                if used.iter().filter(reads).all(|&x| g.get(x) == Some(v)) {
                    allowed.push(v);
                }
                ControlFlow::Continue(())
            });
        }
        let survives = unconstrained || {
            allowed.sort_unstable();
            allowed.dedup();
            let nv = &mut self.nulls[s];
            let was = nv.live;
            for (i, v) in nv.options.iter().enumerate() {
                if nv.alive[i] && allowed.binary_search(v).is_err() {
                    nv.alive[i] = false;
                    nv.live -= 1;
                    self.drops.push((s, i));
                }
            }
            self.stats.forward_drops += was - nv.live;
            // A list that was empty from the start is not a wipeout: the
            // null is picked first and its node has no child.
            nv.live > 0 || was == 0
        };
        self.allowed = allowed;
        survives
    }
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
