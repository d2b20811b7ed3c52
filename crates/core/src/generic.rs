//! Complete search solver for settings with target constraints
//! (Σt = egds ∪ weakly acyclic tgds) — the general NP procedure behind
//! Theorem 1.
//!
//! The solver runs a *nondeterministic-witness chase*: whenever a tgd of
//! Σst ∪ Σt fires, each existential variable branches over every value of
//! the current active domain **plus one fresh null**. This search space is
//! complete by the solution-aware chase argument (Lemma 2): for any
//! solution `J'`, the branch that picks exactly `J'`'s witnesses — with
//! values outside the active domain represented by fresh nulls — reaches a
//! leaf that is itself a solution and maps homomorphically into `J'`.
//! Target egds are applied deterministically (they are forced); a
//! constant/constant conflict kills the branch.
//!
//! At a leaf (no Σst ∪ Σt violations) the branch succeeds iff Σts holds.
//! Mid-branch, a Σts violation whose premise image consists solely of
//! constants is permanent — constants survive every future merge and the
//! conclusions range over the fixed source — so such branches are pruned
//! immediately.
//!
//! Worst-case exponential, as it must be: the §4 boundary settings encode
//! CLIQUE with a single target egd or a single full target tgd.

use crate::setting::PdeSetting;
use crate::solver::SolveError;
use pde_chase::{find_egd_violation, find_tgd_violation, null_gen_for};
use pde_constraints::{Egd, Tgd};
use pde_relational::{
    exists_hom, for_each_hom, is_identifier, Assignment, Instance, NullGen, NullId, Tuple, Value,
    Var,
};
use pde_runtime::{Governor, StopReason};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::ops::ControlFlow;

/// Resource limits for the search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GenericLimits {
    /// Maximum number of search nodes to expand.
    pub max_nodes: usize,
    /// Maximum number of *active-domain* values tried per existential
    /// variable when branching (the one fresh null is always tried on
    /// top). When this truncates the branch set, an unsuccessful search
    /// reports `Unknown` rather than `NoSolution` — completeness needs
    /// every branch.
    pub max_branches: usize,
}

impl Default for GenericLimits {
    fn default() -> Self {
        GenericLimits {
            max_nodes: 1_000_000,
            max_branches: usize::MAX,
        }
    }
}

/// Search statistics.
#[derive(Clone, Debug, Default)]
pub struct GenericStats {
    /// Search nodes expanded.
    pub nodes: usize,
    /// Branches cut by the memoized visited-state set.
    pub memo_hits: usize,
    /// Branches cut by the permanent-Σts-violation prune.
    pub ts_prunes: usize,
    /// Branches killed by egd constant conflicts.
    pub egd_failures: usize,
    /// Leaves reached (Σst ∪ Σt hold) and tested against Σts.
    pub candidates_checked: usize,
}

impl GenericStats {
    /// Export the search counters into a [`pde_trace::MetricsRegistry`]
    /// under the `search.` prefix.
    pub fn export_metrics(&self, reg: &mut pde_trace::MetricsRegistry) {
        let u = |x: usize| u64::try_from(x).unwrap_or(u64::MAX);
        reg.add("search.nodes", u(self.nodes));
        reg.add("search.memo_hits", u(self.memo_hits));
        reg.add("search.ts_prunes", u(self.ts_prunes));
        reg.add("search.egd_failures", u(self.egd_failures));
        reg.add("search.candidates_checked", u(self.candidates_checked));
    }
}

/// Outcome of the generic search.
#[derive(Clone, Debug)]
pub enum GenericOutcome {
    /// A solution exists; the witness is a combined instance.
    Solved {
        /// A materialized solution.
        witness: Instance,
        /// Search statistics.
        stats: GenericStats,
    },
    /// The search space was exhausted: no solution exists.
    NoSolution {
        /// Search statistics.
        stats: GenericStats,
    },
    /// The node limit was hit before the space was exhausted.
    Unknown {
        /// Search statistics.
        stats: GenericStats,
    },
    /// The runtime governor stopped the search (deadline, memory budget,
    /// cancellation, or an injected fault). Like `Unknown`, this is a
    /// refusal to keep spending, never a claim about the instance.
    Stopped {
        /// Why the governor stopped the run.
        reason: StopReason,
        /// Search statistics.
        stats: GenericStats,
    },
}

impl GenericOutcome {
    /// `Some(true/false)` when decided, `None` when unknown or stopped.
    pub fn decided(&self) -> Option<bool> {
        match self {
            GenericOutcome::Solved { .. } => Some(true),
            GenericOutcome::NoSolution { .. } => Some(false),
            GenericOutcome::Unknown { .. } | GenericOutcome::Stopped { .. } => None,
        }
    }

    /// The witness, if solved.
    pub fn witness(&self) -> Option<&Instance> {
        match self {
            GenericOutcome::Solved { witness, .. } => Some(witness),
            _ => None,
        }
    }

    /// The statistics of the run.
    pub fn stats(&self) -> &GenericStats {
        match self {
            GenericOutcome::Solved { stats, .. }
            | GenericOutcome::NoSolution { stats }
            | GenericOutcome::Unknown { stats }
            | GenericOutcome::Stopped { stats, .. } => stats,
        }
    }
}

/// Decide existence of a solution by complete search.
pub fn solve(
    setting: &PdeSetting,
    input: &Instance,
    limits: GenericLimits,
) -> Result<GenericOutcome, SolveError> {
    solve_governed(setting, input, limits, &Governor::unlimited())
}

/// [`solve`] under a runtime governor, checked at every search node. A
/// governor stop surfaces as [`GenericOutcome::Stopped`] — never as a
/// yes/no answer.
pub fn solve_governed(
    setting: &PdeSetting,
    input: &Instance,
    limits: GenericLimits,
    governor: &Governor,
) -> Result<GenericOutcome, SolveError> {
    let mut found = None;
    let (stats, exhausted, stopped) = run(setting, input, limits, governor, |sol| {
        found = Some(sol.clone());
        ControlFlow::Break(())
    })?;
    Ok(match (found, stopped) {
        (Some(witness), _) => GenericOutcome::Solved { witness, stats },
        (None, Some(reason)) => GenericOutcome::Stopped { reason, stats },
        (None, None) if exhausted => GenericOutcome::NoSolution { stats },
        (None, None) => GenericOutcome::Unknown { stats },
    })
}

/// Enumerate the leaf solutions of the search. Every solution of the
/// setting contains a homomorphic image of some enumerated leaf, so for
/// monotone queries certain answers are the intersection of ground answers
/// over this family. Returns the stats and whether the space was exhausted.
pub fn for_each_solution(
    setting: &PdeSetting,
    input: &Instance,
    limits: GenericLimits,
    f: impl FnMut(&Instance) -> ControlFlow<()>,
) -> Result<(GenericStats, bool), SolveError> {
    let (stats, exhausted, _stopped) = run(setting, input, limits, &Governor::unlimited(), f)?;
    Ok((stats, exhausted))
}

fn run(
    setting: &PdeSetting,
    input: &Instance,
    limits: GenericLimits,
    governor: &Governor,
    f: impl FnMut(&Instance) -> ControlFlow<()>,
) -> Result<(GenericStats, bool, Option<StopReason>), SolveError> {
    if !input.is_ground() {
        return Err(SolveError::InputNotGround);
    }
    let gen = null_gen_for(input);
    // The tgds whose violations force chase steps: Σst ∪ (tgds of Σt).
    // Full tgds first: they are forced (single branch), and applying them
    // eagerly exposes Σts violations before the search commits to further
    // existential witness choices.
    let mut forward: Vec<Tgd> = setting
        .sigma_st()
        .iter()
        .cloned()
        .chain(setting.target_tgds().cloned())
        .collect();
    forward.sort_by_key(|t| usize::from(!t.is_full()));
    let egds: Vec<Egd> = setting.target_egds().cloned().collect();
    // Conclusion-relevant variables of each ts tgd: premise variables that
    // reappear in the conclusion. A violating match is permanent when the
    // values bound to them can never change — always, if there are no egds
    // (nothing ever merges); otherwise when they are all constants.
    let ts_relevant: Vec<Vec<Var>> = setting
        .sigma_ts()
        .iter()
        .map(|t| t.frontier().into_iter().collect())
        .collect();
    let mut ctx = Ctx {
        setting,
        forward,
        egds,
        ts_relevant,
        gen,
        limits,
        // Pre-size the memo table from the node budget: a decided search
        // inserts at most one key per expanded node. Capped so tiny
        // searches under a huge budget don't over-allocate.
        visited: HashSet::with_capacity(limits.max_nodes.min(1 << 12)),
        stats: GenericStats::default(),
        sink: f,
        governor,
        stopped: None,
    };
    let exhausted = matches!(ctx.search(input.clone()), SearchFlow::Exhausted);
    Ok((ctx.stats, exhausted, ctx.stopped))
}

enum SearchFlow {
    /// Subtree fully explored.
    Exhausted,
    /// The sink asked to stop.
    Stopped,
    /// Node limit hit somewhere below.
    Truncated,
}

struct Ctx<'a, F> {
    setting: &'a PdeSetting,
    forward: Vec<Tgd>,
    egds: Vec<Egd>,
    /// Conclusion-relevant premise variables, indexed like `sigma_ts()`.
    ts_relevant: Vec<Vec<Var>>,
    gen: NullGen,
    limits: GenericLimits,
    visited: HashSet<String>,
    stats: GenericStats,
    sink: F,
    /// Resource governor, checked at every search node.
    governor: &'a Governor,
    /// Set when the governor stopped the search (distinguishes a governor
    /// stop from the sink breaking early).
    stopped: Option<StopReason>,
}

impl<F: FnMut(&Instance) -> ControlFlow<()>> Ctx<'_, F> {
    fn search(&mut self, mut k: Instance) -> SearchFlow {
        // Governor checkpoint before the node-limit check, so a governed
        // stop is reported as such rather than as a plain truncation.
        // Bytes are only estimated when a memory budget is set: this is
        // the solver's hottest loop.
        let bytes = if self.governor.tracks_memory() {
            k.heap_bytes()
        } else {
            0
        };
        if let Err(reason) = self.governor.on_round(self.stats.nodes + 1, bytes) {
            self.stopped = Some(reason);
            return SearchFlow::Stopped;
        }
        if self.stats.nodes >= self.limits.max_nodes {
            return SearchFlow::Truncated;
        }
        self.stats.nodes += 1;
        let _span = pde_trace::span("solver.branch")
            .field("solver", "generic")
            .field("node", self.stats.nodes)
            .field("facts", k.fact_count());

        // 1. Apply egds to a fixpoint (forced steps).
        loop {
            let mut stepped = false;
            for e in &self.egds {
                if let Some(h) = find_egd_violation(&k, e) {
                    let l = h
                        .get(e.lhs)
                        .expect("egd lhs bound: violation hom covers the premise");
                    let r = h
                        .get(e.rhs)
                        .expect("egd rhs bound: violation hom covers the premise");
                    match (l, r) {
                        (Value::Const(_), Value::Const(_)) => {
                            self.stats.egd_failures += 1;
                            return SearchFlow::Exhausted;
                        }
                        (Value::Null(_), _) => k.substitute(l, r),
                        (_, Value::Null(_)) => k.substitute(r, l),
                    }
                    stepped = true;
                    break;
                }
            }
            if !stepped {
                break;
            }
        }

        // 2. Permanent Σts violation prune (checked before the memo key:
        // pruned nodes never pay for canonicalization).
        if self.has_permanent_ts_violation(&k) {
            self.stats.ts_prunes += 1;
            return SearchFlow::Exhausted;
        }

        // 3. Memoized visited check (isomorphism-invariant key).
        let key = canonical_key(&k);
        if !self.visited.insert(key) {
            self.stats.memo_hits += 1;
            return SearchFlow::Exhausted;
        }

        // 4. Find a forward-tgd violation to branch on.
        let trigger = self
            .forward
            .iter()
            .enumerate()
            .find_map(|(i, t)| find_tgd_violation(&k, t).map(|h| (i, h)));
        let Some((ti, h)) = trigger else {
            // Leaf: Σst and Σt hold; success iff Σts holds.
            self.stats.candidates_checked += 1;
            let ts_ok = self
                .setting
                .sigma_ts()
                .iter()
                .all(|t| pde_chase::satisfies_tgd(&k, t));
            if ts_ok {
                return match (self.sink)(&k) {
                    ControlFlow::Break(()) => SearchFlow::Stopped,
                    ControlFlow::Continue(()) => SearchFlow::Exhausted,
                };
            }
            return SearchFlow::Exhausted;
        };
        let tgd = self.forward[ti].clone();

        // 5. Branch over witness choices: each existential independently
        // takes any active-domain value or a fresh null.
        let exvars: Vec<Var> = tgd.existentials.iter().copied().collect();
        let adom: Vec<Value> = k.active_domain().into_iter().collect();
        // The branch-width budget caps how many active-domain values each
        // existential tries; skipping any makes the subtree incomplete, so
        // the whole search degrades to Truncated (never a false
        // NoSolution).
        let tried = adom.len().min(self.limits.max_branches);
        let fresh: Vec<Value> = exvars
            .iter()
            .map(|_| Value::Null(self.gen.fresh()))
            .collect();
        let mut truncated = !exvars.is_empty() && tried < adom.len();
        let mut choice = vec![0usize; exvars.len()];
        loop {
            // Materialize this choice.
            let mut ext = h.clone();
            for (i, v) in exvars.iter().enumerate() {
                let val = if choice[i] < tried {
                    adom[choice[i]]
                } else {
                    fresh[i]
                };
                ext.bind(*v, val);
            }
            // Fault-injection points: firing a branch is the search's
            // analogue of a chase trigger/allocation.
            self.governor.on_trigger(self.stats.nodes);
            if let Err(reason) = self.governor.on_alloc(self.stats.nodes) {
                self.stopped = Some(reason);
                return SearchFlow::Stopped;
            }
            let mut k2 = k.clone();
            for atom in &tgd.conclusion.atoms {
                let vals = atom
                    .ground(&|v| ext.get(v))
                    .expect("conclusion fully bound: ext extends the premise hom with witnesses for every existential");
                k2.insert(atom.rel, Tuple::new(vals));
            }
            match self.search(k2) {
                SearchFlow::Stopped => return SearchFlow::Stopped,
                SearchFlow::Truncated => truncated = true,
                SearchFlow::Exhausted => {}
            }
            // Advance the mixed-radix counter (adom values + 1 fresh each).
            let mut pos = 0;
            loop {
                if pos == exvars.len() {
                    return if truncated {
                        SearchFlow::Truncated
                    } else {
                        SearchFlow::Exhausted
                    };
                }
                choice[pos] += 1;
                if choice[pos] <= tried {
                    break;
                }
                choice[pos] = 0;
                pos += 1;
            }
            if exvars.is_empty() {
                // Full tgd: a single (empty) choice.
                return if truncated {
                    SearchFlow::Truncated
                } else {
                    SearchFlow::Exhausted
                };
            }
        }
    }

    /// Is there a Σts violation that no future step can repair?
    ///
    /// Target facts only grow (more matches, never fewer) and the source
    /// is fixed, so a violating match dies only if an egd later merges a
    /// null bound to a conclusion-relevant variable. Without egds every
    /// violation is permanent; with egds a violation is permanent when its
    /// conclusion-relevant values are all constants.
    fn has_permanent_ts_violation(&self, k: &Instance) -> bool {
        let no_egds = self.egds.is_empty();
        for (i, t) in self.setting.sigma_ts().iter().enumerate() {
            let relevant = &self.ts_relevant[i];
            let mut permanent = false;
            let _ = for_each_hom(&t.premise.atoms, k, &Assignment::new(), |h| {
                let frozen = no_egds
                    || relevant
                        .iter()
                        .all(|v| h.get(*v).is_some_and(|val| val.is_const()));
                if frozen && !exists_hom(&t.conclusion.atoms, k, h) {
                    permanent = true;
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            });
            if permanent {
                return true;
            }
        }
        false
    }
}

/// One fact of a [`canonical_key`], with the byte range and id of every
/// null written into it.
type KeyLine = (String, Vec<(usize, usize, NullId)>);

/// An isomorphism-invariant key: render each fact with its null ids,
/// sort the lines, then renumber nulls by first appearance. A constant is
/// written bare when it is an identifier and as an escaped string literal
/// otherwise, so no constant reads as a null, a separator or another split
/// of the values. Instances differing only in null naming share a key;
/// different instances never collide.
pub(crate) fn canonical_key(k: &Instance) -> String {
    let mut lines: Vec<KeyLine> = k
        .facts()
        .map(|(rel, t)| {
            let mut line = format!("{}(", rel.0);
            let mut nulls = Vec::new();
            for (i, v) in t.values().iter().enumerate() {
                if i > 0 {
                    line.push_str(", ");
                }
                match v {
                    Value::Const(c) => {
                        let s = c.as_str();
                        if is_identifier(&s) {
                            line.push_str(&s);
                        } else {
                            let _ = write!(line, "{s:?}");
                        }
                    }
                    Value::Null(n) => {
                        let start = line.len();
                        let _ = write!(line, "{n:?}");
                        nulls.push((start, line.len(), *n));
                    }
                }
            }
            line.push(')');
            (line, nulls)
        })
        .collect();
    lines.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    let mut ranks: HashMap<NullId, usize> = HashMap::new();
    let mut out = String::with_capacity(lines.iter().map(|(l, _)| l.len() + 1).sum());
    for (i, (line, nulls)) in lines.iter().enumerate() {
        if i > 0 {
            out.push(';');
        }
        let mut at = 0;
        for &(start, end, n) in nulls {
            out.push_str(&line[at..start]);
            let next = ranks.len();
            let _ = write!(out, "¤{}¤", ranks.entry(n).or_insert(next));
            at = end;
        }
        out.push_str(&line[at..]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solution::is_solution;
    use pde_relational::parse_instance;

    #[test]
    fn agrees_with_assignment_solver_when_sigma_t_empty() {
        let p = PdeSetting::parse(
            "source E/2; target H/2;",
            "E(x, z), E(z, y) -> H(x, y)",
            "H(x, y) -> E(x, y)",
            "",
        )
        .unwrap();
        for src in [
            "E(a, b). E(b, c).",
            "E(a, a).",
            "E(a, b). E(b, c). E(a, c).",
            "E(a, b). E(b, a).",
        ] {
            let input = parse_instance(p.schema(), src).unwrap();
            let fast = crate::assignment::solve(&p, &input).unwrap().exists;
            let out = solve(&p, &input, GenericLimits::default()).unwrap();
            assert_eq!(out.decided(), Some(fast), "{src}");
        }
    }

    #[test]
    fn egd_boundary_setting_tiny_clique() {
        // §4 first boundary setting: single target egd, Σst/Σts in (1, 2.1)
        // — the existence problem encodes CLIQUE. (With the w-consistency
        // Σts tgd added as in the Theorem 3 reduction; see DESIGN.md.)
        let p = PdeSetting::parse(
            "source D/2; source E/2; target P/4;",
            "D(x, y) -> exists z, w . P(x, z, y, w)",
            "P(x, z, y, w) -> E(z, w)",
            "P(x, z, y, w), P(x, z2, y2, w2) -> z = z2;
             P(x, z, y, w), P(y, z2, y2, w2) -> w = z2",
        )
        .unwrap();
        // Triangle: solution exists (3-clique).
        let tri = parse_instance(
            p.schema(),
            "D(a1, a2). D(a2, a1). D(a1, a3). D(a3, a1). D(a2, a3). D(a3, a2).
             E(u, v). E(v, u). E(u, t). E(t, u). E(v, t). E(t, v).",
        )
        .unwrap();
        let out = solve(&p, &tri, GenericLimits::default()).unwrap();
        assert_eq!(out.decided(), Some(true));
        let w = out.witness().unwrap();
        assert!(is_solution(&p, &tri, w));
        // Path: no 3-clique, no solution.
        let path = parse_instance(
            p.schema(),
            "D(a1, a2). D(a2, a1). D(a1, a3). D(a3, a1). D(a2, a3). D(a3, a2).
             E(u, v). E(v, u). E(v, t). E(t, v).",
        )
        .unwrap();
        let out = solve(&p, &path, GenericLimits::default()).unwrap();
        assert_eq!(out.decided(), Some(false));
    }

    #[test]
    fn weakly_acyclic_target_tgds() {
        // Σt tgd copies H into K; Σts then demands E-support for K.
        let p = PdeSetting::parse(
            "source E/2; source F/2; target H/2; target K/2;",
            "E(x, y) -> H(x, y)",
            "K(x, y) -> F(x, y)",
            "H(x, y) -> K(x, y)",
        )
        .unwrap();
        let good = parse_instance(p.schema(), "E(a, b). F(a, b).").unwrap();
        let out = solve(&p, &good, GenericLimits::default()).unwrap();
        assert_eq!(out.decided(), Some(true));
        assert!(is_solution(&p, &good, out.witness().unwrap()));
        let bad = parse_instance(p.schema(), "E(a, b).").unwrap();
        let out = solve(&p, &bad, GenericLimits::default()).unwrap();
        assert_eq!(out.decided(), Some(false));
    }

    #[test]
    fn egd_conflict_in_j_means_no_solution() {
        let p = PdeSetting::parse(
            "source E/2; target H/2;",
            "E(x, y) -> H(x, y)",
            "",
            "H(x, y), H(x, z) -> y = z",
        )
        .unwrap();
        let input = parse_instance(p.schema(), "H(a, b). H(a, c).").unwrap();
        let out = solve(&p, &input, GenericLimits::default()).unwrap();
        assert_eq!(out.decided(), Some(false));
        assert!(out.stats().egd_failures >= 1);
    }

    #[test]
    fn egd_forces_merge_consistent_with_ts() {
        // Σst creates H(a, n); Σt egd merges n with b via J's H(a, b);
        // Σts then requires E-support for (a, b) — present.
        let p = PdeSetting::parse(
            "source E/2; source W/2; target H/2;",
            "E(x, y) -> exists z . H(x, z)",
            "H(x, y) -> W(x, y)",
            "H(x, y), H(x, z) -> y = z",
        )
        .unwrap();
        let good = parse_instance(p.schema(), "E(a, q). H(a, b). W(a, b).").unwrap();
        let out = solve(&p, &good, GenericLimits::default()).unwrap();
        assert_eq!(out.decided(), Some(true));
        assert!(is_solution(&p, &good, out.witness().unwrap()));
        // Without W(a, b) the merged H(a, b) violates Σts.
        let bad = parse_instance(p.schema(), "E(a, q). H(a, b).").unwrap();
        let out = solve(&p, &bad, GenericLimits::default()).unwrap();
        assert_eq!(out.decided(), Some(false));
    }

    #[test]
    fn node_limit_yields_unknown() {
        let p = PdeSetting::parse(
            "source D/2; source E/2; target P/4;",
            "D(x, y) -> exists z, w . P(x, z, y, w)",
            "P(x, z, y, w) -> E(z, w)",
            "P(x, z, y, w), P(x, z2, y2, w2) -> z = z2",
        )
        .unwrap();
        let input = parse_instance(p.schema(), "D(a1, a2). D(a2, a1). E(u, v). E(v, u).").unwrap();
        let out = solve(
            &p,
            &input,
            GenericLimits {
                max_nodes: 1,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(out.decided().is_none() || out.decided() == Some(true));
    }

    #[test]
    fn branch_cap_degrades_to_unknown_not_no_solution() {
        // The only solution instantiates the existential with the adom
        // value `b` (a fresh null cannot match the ground Σts demand);
        // with every active-domain choice cut, the search must degrade to
        // Unknown rather than claim NoSolution.
        let p = PdeSetting::parse(
            "source E/2; source W/2; target H/2;",
            "E(x, y) -> exists z . H(x, z)",
            "H(x, y) -> W(x, y)",
            "H(x, y), H(x, z) -> y = z",
        )
        .unwrap();
        let input = parse_instance(p.schema(), "E(a, q). W(a, b).").unwrap();
        let full = solve(&p, &input, GenericLimits::default()).unwrap();
        assert_eq!(full.decided(), Some(true));
        let capped = solve(
            &p,
            &input,
            GenericLimits {
                max_branches: 0,
                ..Default::default()
            },
        )
        .unwrap();
        // Fresh-null branches alone cannot satisfy Σts here, and the
        // skipped branches forbid a NoSolution verdict.
        assert_eq!(capped.decided(), None);
    }

    #[test]
    fn governed_deadline_yields_stopped_not_no_solution() {
        use pde_runtime::GovernorConfig;
        use std::time::Duration;
        let p = PdeSetting::parse(
            "source E/2; target H/2;",
            "E(x, y) -> H(x, y)",
            "H(x, y) -> E(x, y)",
            "H(x, y), H(x, z) -> y = z",
        )
        .unwrap();
        let input = parse_instance(p.schema(), "E(a, b).").unwrap();
        let governor = Governor::new(GovernorConfig {
            deadline: Some(Duration::ZERO),
            ..GovernorConfig::default()
        });
        let out = solve_governed(&p, &input, GenericLimits::default(), &governor).unwrap();
        assert!(matches!(
            out,
            GenericOutcome::Stopped {
                reason: StopReason::DeadlineExceeded { .. },
                ..
            }
        ));
        assert_eq!(out.decided(), None);
    }

    #[test]
    fn canonical_key_is_null_rename_invariant() {
        let p = PdeSetting::parse("source E/2; target H/2;", "", "", "").unwrap();
        let a = parse_instance(p.schema(), "H(?3, a). H(?3, ?7).").unwrap();
        let b = parse_instance(p.schema(), "H(?12, a). H(?12, ?1).").unwrap();
        assert_eq!(canonical_key(&a), canonical_key(&b));
        let c = parse_instance(p.schema(), "H(?3, a). H(?4, ?7).").unwrap();
        assert_ne!(canonical_key(&a), canonical_key(&c));
        // Identifier constants are written bare, as they always were.
        assert_eq!(canonical_key(&a), "1(¤0¤, a);1(¤0¤, ¤1¤)");
    }

    #[test]
    fn canonical_key_keeps_quoted_constants_apart() {
        let p = PdeSetting::parse("source E/2; source U/3; target H/2;", "", "", "").unwrap();
        let key = |src: &str| canonical_key(&parse_instance(p.schema(), src).unwrap());
        // A constant holding the value separator is not two values.
        assert_ne!(key("U(p, 'a, b', c)."), key("U(p, a, 'b, c')."));
        // A constant spelled like a null is neither that null nor renamed
        // with it.
        assert_ne!(key("H('⊥5', a)."), key("H(?5, a)."));
        assert_ne!(key("H('⊥5', ?5)."), key("H('⊥6', ?6)."));
    }

    #[test]
    fn data_exchange_case_matches_chase() {
        // Σts = ∅: the generic solver must agree with the plain chase.
        let p = PdeSetting::parse(
            "source E/2; target H/2;",
            "E(x, y) -> exists z . H(x, z)",
            "",
            "H(x, y), H(x, z) -> y = z",
        )
        .unwrap();
        let input = parse_instance(p.schema(), "E(a, b). H(a, c).").unwrap();
        let out = solve(&p, &input, GenericLimits::default()).unwrap();
        assert_eq!(out.decided(), Some(true));
    }
}
