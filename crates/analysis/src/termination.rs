//! A chase-termination hierarchy beyond weak acyclicity.
//!
//! The planner (and `pde terminate`) checks four criteria **cheapest
//! first**, stopping at the first one that certifies termination of the
//! forward chase (Σst ∪ Σt tgds):
//!
//! 1. **weak acyclicity** (paper Def. 5): the position dependency graph
//!    has no cycle through a special edge — the rank witness lives in the
//!    enclosing [`crate::ChaseCertificate`];
//! 2. **joint acyclicity**: the dependency graph over *existential
//!    variables* is acyclic. For each existential `y`, `Move(y)` collects
//!    the positions its nulls can reach (via frontier variables whose
//!    every premise position is already reachable); `y → z` when a
//!    frontier variable of `z`'s tgd has all premise positions in
//!    `Move(y)`. Strictly more settings than weak acyclicity;
//! 3. **super-weak acyclicity**: the same graph, but reachability is
//!    tracked per *place* (premise-atom occurrence) with a unification
//!    filter — a premise variable repeated inside one atom only picks up
//!    a fresh null if a single conclusion atom emits that null at every
//!    repeated attribute. Edges are a subset of the joint-acyclicity
//!    edges, so this certifies strictly more settings again;
//! 4. **critical-instance check** (MFA style): chase the critical
//!    instance (every relation holding one all-`*` tuple) with the
//!    *oblivious* Skolem chase under a hard step/fact limit. Saturation
//!    proves the chase terminates on every instance; the log's fact count
//!    and maximum fact width give a (possibly loose) derived bound.
//!
//! Each certifying criterion produces a machine-checkable witness — the
//! acyclic-graph topological order, or the saturated critical-chase log —
//! plus derived value/fact/step bounds in the Lemma 1 layered-recurrence
//! style. [`Verifiable::verify`] independently replays the criterion
//! trail, validates the witness against the recomputed graph or chase
//! log, and re-derives every bound. See `docs/TERMINATION.md`.

use crate::certificate::{
    bound_params, evaluate_bound, forward_tgds, CertificateError, Verifiable,
};
use pde_constraints::{DependencyGraph, Tgd};
use pde_core::PdeSetting;
use pde_relational::{Instance, Position, RelId, Schema, Term, Var};
use pde_trace::json::{Json, ObjExt};
use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::fmt;

/// Version stamp of the termination section; bump on any layout change.
pub const TERMINATION_VERSION: u32 = 1;

/// Step limit for the oblivious critical-instance chase. The critical
/// instance holds one fact per relation, so certifiable settings saturate
/// within a handful of steps; the limit exists to cut off genuinely (or
/// undecidably) divergent inputs quickly — the planner pays this cost on
/// every setting that fails all three acyclicity criteria.
pub const CRITICAL_CHASE_STEP_LIMIT: usize = 256;

/// Fact limit companion of [`CRITICAL_CHASE_STEP_LIMIT`] (an oblivious
/// step inserts at most one conclusion's worth of facts, so this only
/// trips on a runaway engine, mirroring `ChaseLimits::tight`).
const CRITICAL_CHASE_FACT_LIMIT: usize = 16 * CRITICAL_CHASE_STEP_LIMIT + 1024;

/// One criterion of the termination hierarchy, in checking order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TerminationCriterion {
    /// Paper Def. 5 (position dependency graph).
    WeakAcyclicity,
    /// Existential-variable dependency graph acyclicity.
    JointAcyclicity,
    /// Place-based sideways-information-passing acyclicity.
    SuperWeakAcyclicity,
    /// Oblivious chase of the critical instance saturates.
    CriticalInstance,
}

/// All criteria in the (cheapest-first) checking order.
pub const CRITERIA: [TerminationCriterion; 4] = [
    TerminationCriterion::WeakAcyclicity,
    TerminationCriterion::JointAcyclicity,
    TerminationCriterion::SuperWeakAcyclicity,
    TerminationCriterion::CriticalInstance,
];

impl TerminationCriterion {
    /// Stable string form used in the JSON serialization.
    pub fn as_str(self) -> &'static str {
        match self {
            TerminationCriterion::WeakAcyclicity => "weak-acyclicity",
            TerminationCriterion::JointAcyclicity => "joint-acyclicity",
            TerminationCriterion::SuperWeakAcyclicity => "super-weak-acyclicity",
            TerminationCriterion::CriticalInstance => "critical-instance",
        }
    }

    fn from_str(s: &str) -> Option<TerminationCriterion> {
        Some(match s {
            "weak-acyclicity" => TerminationCriterion::WeakAcyclicity,
            "joint-acyclicity" => TerminationCriterion::JointAcyclicity,
            "super-weak-acyclicity" => TerminationCriterion::SuperWeakAcyclicity,
            "critical-instance" => TerminationCriterion::CriticalInstance,
            _ => return None,
        })
    }
}

impl fmt::Display for TerminationCriterion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One entry of the criterion trail: a criterion that was checked and its
/// verdict. The trail covers a prefix of [`CRITERIA`], stopping at the
/// first criterion that holds (or covering all four when none does).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CriterionCheck {
    /// The checked criterion.
    pub criterion: TerminationCriterion,
    /// Did it certify termination?
    pub holds: bool,
}

/// An existential variable referenced by forward-tgd index and name
/// (stable across processes, unlike interner ids).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct ExVarRef {
    /// Index into the forward tgd list (Σst followed by the Σt tgds).
    pub tgd_index: usize,
    /// The variable name.
    pub var: String,
}

/// The machine-checkable witness backing a certified criterion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TerminationWitness {
    /// Weak acyclicity: the rank witness lives in the enclosing chase
    /// certificate; nothing extra is recorded here.
    Ranks,
    /// Joint / super-weak acyclicity: a topological order of the
    /// existential-variable dependency graph, plus its longest-path depth
    /// (the layer count the bound recurrence is evaluated at).
    VarOrder {
        /// Every existential variable of the forward tgds, in an order
        /// where all dependency edges point forward.
        order: Vec<ExVarRef>,
        /// Longest path length in the (acyclic) graph.
        max_depth: usize,
    },
    /// Critical-instance check: the saturated oblivious chase log.
    CriticalChase {
        /// Oblivious firings until saturation.
        steps: usize,
        /// Facts in the saturated critical instance.
        facts: usize,
        /// Maximum over facts of the sum of `*`-leaf counts of its
        /// arguments' Skolem terms (the exponent of the derived bound).
        max_fact_width: usize,
        /// The step limit the chase ran under (must equal
        /// [`CRITICAL_CHASE_STEP_LIMIT`]).
        limit: usize,
    },
    /// Every criterion failed; nothing is certified.
    None,
}

/// The termination section of a certificate: criterion trail, witness,
/// and derived bounds. Carried inside [`crate::ChaseCertificate`] and
/// also usable standalone (`pde terminate --emit`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TerminationCertificate {
    /// Schema version of the serialized section.
    pub version: u32,
    /// Active-domain size the concrete bounds were evaluated at.
    pub adom_size: usize,
    /// The weakest (first) certifying criterion, or `None` when the whole
    /// hierarchy fails.
    pub criterion: Option<TerminationCriterion>,
    /// Every criterion checked, in order, with its verdict.
    pub trail: Vec<CriterionCheck>,
    /// The witness backing `criterion`.
    pub witness: TerminationWitness,
    /// Upper bound on distinct values in any chase result (0 when not
    /// certified).
    pub value_bound: usize,
    /// Upper bound on facts in any chase result (0 when not certified).
    pub fact_bound: usize,
    /// Upper bound on the length of any chase sequence (0 when not
    /// certified).
    pub step_bound: usize,
}

impl TerminationCertificate {
    /// Does any criterion certify termination?
    pub fn certified(&self) -> bool {
        self.criterion.is_some()
    }
}

// ---------------------------------------------------------------------------
// Analysis (the planner side).
// ---------------------------------------------------------------------------

/// Run the hierarchy cheapest-first over the forward tgds of `setting`,
/// with concrete bounds evaluated at an active domain of `adom_size`.
pub fn analyze_termination(setting: &PdeSetting, adom_size: usize) -> TerminationCertificate {
    let schema = setting.schema();
    let forward = forward_tgds(setting);
    analyze_tgds(schema, &forward, adom_size)
}

/// [`analyze_termination`] over an explicit forward tgd list (the lint
/// pass reuses this without rebuilding a setting).
pub(crate) fn analyze_tgds(
    schema: &Schema,
    forward: &[Tgd],
    adom_size: usize,
) -> TerminationCertificate {
    let params = bound_params(schema, forward);
    let mut trail = Vec::new();
    fn close(
        adom_size: usize,
        trail: Vec<CriterionCheck>,
        criterion: Option<TerminationCriterion>,
        witness: TerminationWitness,
        bounds: (usize, usize, usize),
    ) -> TerminationCertificate {
        TerminationCertificate {
            version: TERMINATION_VERSION,
            adom_size,
            criterion,
            trail,
            witness,
            value_bound: bounds.0,
            fact_bound: bounds.1,
            step_bound: bounds.2,
        }
    }

    // 1. Weak acyclicity (Def. 5).
    let graph = DependencyGraph::new(schema, forward);
    if let Some(max_rank) = graph.max_rank() {
        trail.push(CriterionCheck {
            criterion: TerminationCriterion::WeakAcyclicity,
            holds: true,
        });
        let bounds = evaluate_bound(schema, params, max_rank, adom_size);
        return close(
            adom_size,
            trail,
            Some(TerminationCriterion::WeakAcyclicity),
            TerminationWitness::Ranks,
            bounds,
        );
    }
    trail.push(CriterionCheck {
        criterion: TerminationCriterion::WeakAcyclicity,
        holds: false,
    });

    // 2. / 3. The existential-variable graphs.
    for (criterion, mode) in [
        (TerminationCriterion::JointAcyclicity, GraphMode::Positions),
        (TerminationCriterion::SuperWeakAcyclicity, GraphMode::Places),
    ] {
        let g = ExVarGraph::build(forward, mode);
        if let Some((order, max_depth)) = g.topological_order() {
            trail.push(CriterionCheck {
                criterion,
                holds: true,
            });
            let bounds = evaluate_bound(schema, params, max_depth, adom_size);
            return close(
                adom_size,
                trail,
                Some(criterion),
                TerminationWitness::VarOrder { order, max_depth },
                bounds,
            );
        }
        trail.push(CriterionCheck {
            criterion,
            holds: false,
        });
    }

    // 4. Critical-instance check.
    match critical_chase(schema, forward, CRITICAL_CHASE_STEP_LIMIT) {
        Some(log) => {
            trail.push(CriterionCheck {
                criterion: TerminationCriterion::CriticalInstance,
                holds: true,
            });
            let bounds = critical_bounds(schema, &log, adom_size);
            close(
                adom_size,
                trail,
                Some(TerminationCriterion::CriticalInstance),
                TerminationWitness::CriticalChase {
                    steps: log.steps,
                    facts: log.facts,
                    max_fact_width: log.max_fact_width,
                    limit: CRITICAL_CHASE_STEP_LIMIT,
                },
                bounds,
            )
        }
        None => {
            trail.push(CriterionCheck {
                criterion: TerminationCriterion::CriticalInstance,
                holds: false,
            });
            close(adom_size, trail, None, TerminationWitness::None, (0, 0, 0))
        }
    }
}

/// Bounds derived from a saturated critical-instance chase: every fact of
/// the (Skolem) chase of an instance with `adom_size` constants maps, by
/// collapsing constants to `*`, onto a critical-chase fact, whose fiber
/// has at most `adom^width` instantiations of its `*` leaves. These are
/// deliberately loose (see PDE051): finite, not tight.
fn critical_bounds(schema: &Schema, log: &CritLog, adom_size: usize) -> (usize, usize, usize) {
    let n = adom_size.max(1);
    let (_, _, _, max_arity) = bound_params(schema, &[]);
    let fact_bound = log
        .facts
        .saturating_mul(n.saturating_pow(u32::try_from(log.max_fact_width).unwrap_or(u32::MAX)));
    let value_bound = fact_bound.saturating_mul(max_arity.max(1)).max(n);
    let step_bound = fact_bound.saturating_add(value_bound);
    (value_bound, fact_bound, step_bound)
}

// ---------------------------------------------------------------------------
// Existential-variable dependency graphs (joint / super-weak acyclicity).
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum GraphMode {
    /// Joint acyclicity: null reachability tracked per schema position.
    Positions,
    /// Super-weak acyclicity: tracked per premise place, with the
    /// repeated-variable unification filter on the fresh-null emission.
    Places,
}

/// The existential-variable dependency graph of a forward tgd list.
pub(crate) struct ExVarGraph {
    /// Nodes, sorted by (tgd index, variable name).
    nodes: Vec<ExVarRef>,
    /// Edges as node-index pairs, deduplicated and sorted.
    edges: Vec<(usize, usize)>,
}

impl ExVarGraph {
    pub(crate) fn build(forward: &[Tgd], mode: GraphMode) -> ExVarGraph {
        let mut nodes = Vec::new();
        let mut node_vars: Vec<(usize, Var)> = Vec::new();
        for (i, t) in forward.iter().enumerate() {
            let mut vars: Vec<Var> = t.existentials.iter().copied().collect();
            vars.sort_by_key(ToString::to_string);
            for v in vars {
                nodes.push(ExVarRef {
                    tgd_index: i,
                    var: v.to_string(),
                });
                node_vars.push((i, v));
            }
        }
        let mut edges = BTreeSet::new();
        for (from, (ti, y)) in node_vars.iter().enumerate() {
            // Which tgds can consume a null born from (ti, y)?
            let consumers: BTreeSet<usize> = match mode {
                GraphMode::Positions => consumers_by_positions(forward, *ti, *y),
                GraphMode::Places => consumers_by_places(forward, *ti, *y),
            };
            for (to, (tj, _)) in node_vars.iter().enumerate() {
                if consumers.contains(tj) {
                    edges.insert((from, to));
                }
            }
        }
        ExVarGraph {
            nodes,
            edges: edges.into_iter().collect(),
        }
    }

    /// A topological order plus the longest-path depth, or `None` when the
    /// graph has a cycle. Deterministic: Kahn's algorithm always picks the
    /// smallest ready node index.
    pub(crate) fn topological_order(&self) -> Option<(Vec<ExVarRef>, usize)> {
        let n = self.nodes.len();
        let mut indeg = vec![0usize; n];
        for &(_, to) in &self.edges {
            indeg[to] += 1;
        }
        let mut depth = vec![0usize; n];
        let mut order = Vec::with_capacity(n);
        let mut ready: BTreeSet<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        while let Some(&i) = ready.iter().next() {
            ready.remove(&i);
            order.push(i);
            for &(from, to) in &self.edges {
                if from == i {
                    depth[to] = depth[to].max(depth[i] + 1);
                    indeg[to] -= 1;
                    if indeg[to] == 0 {
                        ready.insert(to);
                    }
                }
            }
        }
        if order.len() != n {
            return None;
        }
        let max_depth = depth.iter().copied().max().unwrap_or(0);
        Some((
            order.into_iter().map(|i| self.nodes[i].clone()).collect(),
            max_depth,
        ))
    }

    /// Does the claimed order list exactly this graph's nodes with every
    /// edge pointing forward?
    pub(crate) fn validates_order(&self, order: &[ExVarRef]) -> Result<(), String> {
        if order.len() != self.nodes.len() {
            return Err(format!(
                "order lists {} variable(s), the graph has {}",
                order.len(),
                self.nodes.len()
            ));
        }
        let mut position: BTreeMap<&ExVarRef, usize> = BTreeMap::new();
        for (i, v) in order.iter().enumerate() {
            if position.insert(v, i).is_some() {
                return Err(format!("duplicate order entry {}:{}", v.tgd_index, v.var));
            }
        }
        for v in &self.nodes {
            if !position.contains_key(v) {
                return Err(format!(
                    "graph node {}:{} missing from order",
                    v.tgd_index, v.var
                ));
            }
        }
        for &(from, to) in &self.edges {
            let (f, t) = (&self.nodes[from], &self.nodes[to]);
            if position[f] >= position[t] {
                return Err(format!(
                    "edge {}:{} -> {}:{} points backwards in the claimed order",
                    f.tgd_index, f.var, t.tgd_index, t.var
                ));
            }
        }
        Ok(())
    }

    /// Longest-path depth (graph must be acyclic).
    pub(crate) fn max_depth(&self) -> Option<usize> {
        self.topological_order().map(|(_, d)| d)
    }
}

/// Premise positions of `v` in `t`.
pub(crate) fn premise_positions(t: &Tgd, v: Var) -> BTreeSet<Position> {
    let mut out = BTreeSet::new();
    for atom in &t.premise.atoms {
        for (i, term) in atom.terms.iter().enumerate() {
            if *term == Term::Var(v) {
                out.insert(Position::at(atom.rel, i));
            }
        }
    }
    out
}

/// Conclusion positions of `v` in `t`.
pub(crate) fn conclusion_positions(t: &Tgd, v: Var) -> BTreeSet<Position> {
    let mut out = BTreeSet::new();
    for atom in &t.conclusion.atoms {
        for (i, term) in atom.terms.iter().enumerate() {
            if *term == Term::Var(v) {
                out.insert(Position::at(atom.rel, i));
            }
        }
    }
    out
}

/// Joint acyclicity: compute `Move(y)` over positions, then return the
/// indices of tgds with a frontier variable whose every premise position
/// lies in `Move(y)` — the tgds whose null creation can consume `y`'s
/// nulls.
fn consumers_by_positions(forward: &[Tgd], ti: usize, y: Var) -> BTreeSet<usize> {
    let mut mv = conclusion_positions(&forward[ti], y);
    loop {
        let mut changed = false;
        for t in forward {
            for x in t.frontier() {
                let body = premise_positions(t, x);
                if !body.is_empty() && body.iter().all(|p| mv.contains(p)) {
                    for q in conclusion_positions(t, x) {
                        changed |= mv.insert(q);
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    forward
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.existentials.is_empty())
        .filter(|(_, t)| {
            t.frontier().iter().any(|x| {
                let body = premise_positions(t, *x);
                !body.is_empty() && body.iter().all(|p| mv.contains(p))
            })
        })
        .map(|(j, _)| j)
        .collect()
}

/// Super-weak acyclicity: track the set of *variables* that can bind a
/// null born from `(ti, y)`. A premise variable `w` of tgd `j` is tainted
/// when every premise atom containing `w` can be matched by an emitted
/// fact carrying the null at all of `w`'s attributes **simultaneously** —
/// for the fresh-null emission that requires a single conclusion atom
/// with `y` at all those attributes (two distinct fresh nulls are never
/// equal), while propagated emissions conservatively pool every tainted
/// variable of the atom. Returns the tgds with a tainted frontier
/// variable.
fn consumers_by_places(forward: &[Tgd], ti: usize, y: Var) -> BTreeSet<usize> {
    let mut tainted: BTreeSet<(usize, Var)> = BTreeSet::new();
    loop {
        // Emission profiles: (relation, attributes that can hold the null
        // within one fact).
        let mut emissions: Vec<(RelId, BTreeSet<usize>)> = Vec::new();
        for (j, t) in forward.iter().enumerate() {
            for atom in &t.conclusion.atoms {
                let mut attrs = BTreeSet::new();
                for (i, term) in atom.terms.iter().enumerate() {
                    let Term::Var(w) = term else { continue };
                    if j == ti && *w == y {
                        attrs.insert(i);
                    }
                    if !t.existentials.contains(w) && tainted.contains(&(j, *w)) {
                        attrs.insert(i);
                    }
                }
                if !attrs.is_empty() {
                    emissions.push((atom.rel, attrs));
                }
            }
        }
        let can_hold = |rel: RelId, attrs: &BTreeSet<usize>| {
            emissions
                .iter()
                .any(|(r, s)| *r == rel && attrs.is_subset(s))
        };
        let mut changed = false;
        for (j, t) in forward.iter().enumerate() {
            for w in t.premise.variables() {
                if tainted.contains(&(j, w)) {
                    continue;
                }
                let reachable = t.premise.atoms.iter().all(|atom| {
                    let attrs: BTreeSet<usize> = atom
                        .terms
                        .iter()
                        .enumerate()
                        .filter(|(_, term)| **term == Term::Var(w))
                        .map(|(i, _)| i)
                        .collect();
                    attrs.is_empty() || can_hold(atom.rel, &attrs)
                });
                if reachable {
                    tainted.insert((j, w));
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    forward
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.existentials.is_empty())
        .filter(|(j, t)| t.frontier().iter().any(|x| tainted.contains(&(*j, *x))))
        .map(|(j, _)| j)
        .collect()
}

// ---------------------------------------------------------------------------
// The oblivious critical-instance chase.
// ---------------------------------------------------------------------------

/// The log of a *saturated* critical-instance chase.
pub(crate) struct CritLog {
    /// Oblivious firings until saturation.
    pub(crate) steps: usize,
    /// Facts in the saturated instance.
    pub(crate) facts: usize,
    /// Maximum fact width (sum of `*`-leaf counts of the arguments).
    pub(crate) max_fact_width: usize,
}

/// Oblivious (Skolem) chase of the critical instance: every relation
/// seeded with one all-`*` tuple, every `(tgd, frontier binding)` fired
/// exactly once regardless of satisfaction. `Some(log)` on saturation
/// within `max_steps`; `None` on divergence past the limit, a blown fact
/// cap, or tgds with constants (the all-`*` seed does not cover those).
pub(crate) fn critical_chase(
    schema: &Schema,
    forward: &[Tgd],
    max_steps: usize,
) -> Option<CritLog> {
    if forward.iter().any(Tgd::has_constants) {
        return None;
    }
    // Value table: id -> width (number of `*` leaves of its Skolem term).
    // Value 0 is `*` itself.
    let mut widths: Vec<usize> = vec![1];
    let mut rows: Vec<Vec<Vec<usize>>> = vec![Vec::new(); schema.len()];
    let mut seen: BTreeSet<(usize, Vec<usize>)> = BTreeSet::new();
    let mut facts = 0usize;
    let mut max_fact_width = 0usize;
    for r in schema.rel_ids() {
        let tuple = vec![0usize; usize::from(schema.arity(r))];
        if seen.insert((r.index(), tuple.clone())) {
            max_fact_width = max_fact_width.max(tuple.len());
            rows[r.index()].push(tuple);
            facts += 1;
        }
    }
    // Sorted variable orders per tgd, fixed up front.
    let frontiers: Vec<Vec<Var>> = forward.iter().map(|t| sorted_vars(&t.frontier())).collect();
    let existentials: Vec<Vec<Var>> = forward
        .iter()
        .map(|t| sorted_vars(&t.existentials))
        .collect();
    let mut fired: BTreeSet<(usize, Vec<usize>)> = BTreeSet::new();
    let mut steps = 0usize;
    loop {
        // Collect the unfired frontier bindings against the current facts.
        let mut pending: BTreeSet<(usize, Vec<usize>)> = BTreeSet::new();
        for (ti, t) in forward.iter().enumerate() {
            let mut binding: BTreeMap<Var, usize> = BTreeMap::new();
            enumerate_matches(&t.premise.atoms, 0, &rows, &mut binding, &mut |b| {
                let key: Vec<usize> = frontiers[ti].iter().map(|v| b[v]).collect();
                if !fired.contains(&(ti, key.clone())) {
                    pending.insert((ti, key));
                }
            });
        }
        if pending.is_empty() {
            return Some(CritLog {
                steps,
                facts,
                max_fact_width,
            });
        }
        for (ti, key) in pending {
            steps += 1;
            if steps > max_steps {
                return None;
            }
            let t = &forward[ti];
            let mut assign: BTreeMap<Var, usize> = frontiers[ti]
                .iter()
                .copied()
                .zip(key.iter().copied())
                .collect();
            let born_width: usize = key.iter().map(|&v| widths[v]).sum();
            for &e in &existentials[ti] {
                widths.push(born_width);
                assign.insert(e, widths.len() - 1);
            }
            fired.insert((ti, key));
            for atom in &t.conclusion.atoms {
                let tuple: Vec<usize> = atom
                    .terms
                    .iter()
                    .map(|term| match term {
                        Term::Var(v) => assign[v],
                        Term::Const(_) => unreachable!("guarded by has_constants"),
                    })
                    .collect();
                if seen.insert((atom.rel.index(), tuple.clone())) {
                    let width = tuple
                        .iter()
                        .map(|&v| widths[v])
                        .fold(0usize, usize::saturating_add);
                    max_fact_width = max_fact_width.max(width);
                    rows[atom.rel.index()].push(tuple);
                    facts += 1;
                    if facts > CRITICAL_CHASE_FACT_LIMIT {
                        return None;
                    }
                }
            }
        }
    }
}

fn sorted_vars(vars: &BTreeSet<Var>) -> Vec<Var> {
    let mut out: Vec<Var> = vars.iter().copied().collect();
    out.sort_by_key(ToString::to_string);
    out
}

/// Backtracking premise matcher over the critical-instance fact table.
fn enumerate_matches(
    atoms: &[pde_relational::Atom],
    at: usize,
    rows: &[Vec<Vec<usize>>],
    binding: &mut BTreeMap<Var, usize>,
    found: &mut impl FnMut(&BTreeMap<Var, usize>),
) {
    let Some(atom) = atoms.get(at) else {
        found(binding);
        return;
    };
    'facts: for tuple in &rows[atom.rel.index()] {
        let mut bound_here: Vec<Var> = Vec::new();
        for (term, &val) in atom.terms.iter().zip(tuple.iter()) {
            let Term::Var(v) = term else { continue };
            match binding.get(v) {
                Some(&b) if b == val => {}
                Some(_) => {
                    for v in bound_here.drain(..) {
                        binding.remove(&v);
                    }
                    continue 'facts;
                }
                None => {
                    binding.insert(*v, val);
                    bound_here.push(*v);
                }
            }
        }
        enumerate_matches(atoms, at + 1, rows, binding, found);
        for v in bound_here {
            binding.remove(&v);
        }
    }
}

// ---------------------------------------------------------------------------
// The independent checker.
// ---------------------------------------------------------------------------

/// Re-validate a termination section against the forward tgds without
/// trusting the planner: replay the criterion trail, validate the witness
/// against the recomputed graph or chase log, and re-derive every bound.
pub(crate) fn verify_tgds(
    schema: &Schema,
    forward: &[Tgd],
    tc: &TerminationCertificate,
) -> Result<(), CertificateError> {
    let fail = |m: String| Err(CertificateError::Termination(m));
    if tc.version != TERMINATION_VERSION {
        return Err(CertificateError::Version {
            kind: TerminationCertificate::KIND,
            found: tc.version,
            expected: TERMINATION_VERSION,
        });
    }

    // Replay the trail, criterion by criterion, in hierarchy order.
    let mut derived_trail = Vec::new();
    let mut derived_criterion = None;
    for criterion in CRITERIA {
        let holds = match criterion {
            TerminationCriterion::WeakAcyclicity => {
                DependencyGraph::new(schema, forward).is_weakly_acyclic()
            }
            TerminationCriterion::JointAcyclicity => {
                ExVarGraph::build(forward, GraphMode::Positions)
                    .topological_order()
                    .is_some()
            }
            TerminationCriterion::SuperWeakAcyclicity => {
                ExVarGraph::build(forward, GraphMode::Places)
                    .topological_order()
                    .is_some()
            }
            TerminationCriterion::CriticalInstance => {
                critical_chase(schema, forward, CRITICAL_CHASE_STEP_LIMIT).is_some()
            }
        };
        derived_trail.push(CriterionCheck { criterion, holds });
        if holds {
            derived_criterion = Some(criterion);
            break;
        }
    }
    if tc.trail != derived_trail {
        return fail(format!(
            "criterion trail {:?} does not replay (derived {:?})",
            tc.trail, derived_trail
        ));
    }
    if tc.criterion != derived_criterion {
        return fail(format!(
            "claimed criterion {:?}, derived {:?}",
            tc.criterion.map(TerminationCriterion::as_str),
            derived_criterion.map(TerminationCriterion::as_str)
        ));
    }

    // Witness shape and content per criterion.
    let params = bound_params(schema, forward);
    let derived_bounds = match derived_criterion {
        Some(TerminationCriterion::WeakAcyclicity) => {
            if tc.witness != TerminationWitness::Ranks {
                return fail("weak-acyclicity certificate must carry the rank witness".into());
            }
            let max_rank = DependencyGraph::new(schema, forward)
                .max_rank()
                .unwrap_or(0);
            evaluate_bound(schema, params, max_rank, tc.adom_size)
        }
        Some(
            c @ (TerminationCriterion::JointAcyclicity | TerminationCriterion::SuperWeakAcyclicity),
        ) => {
            let TerminationWitness::VarOrder { order, max_depth } = &tc.witness else {
                return fail(format!("criterion {c} needs a variable-order witness"));
            };
            let mode = if c == TerminationCriterion::JointAcyclicity {
                GraphMode::Positions
            } else {
                GraphMode::Places
            };
            let graph = ExVarGraph::build(forward, mode);
            graph
                .validates_order(order)
                .map_err(CertificateError::Termination)?;
            let depth = graph.max_depth().unwrap_or(0);
            if *max_depth != depth {
                return fail(format!(
                    "claimed graph depth {max_depth}, recomputed {depth}"
                ));
            }
            evaluate_bound(schema, params, depth, tc.adom_size)
        }
        Some(TerminationCriterion::CriticalInstance) => {
            let TerminationWitness::CriticalChase {
                steps,
                facts,
                max_fact_width,
                limit,
            } = &tc.witness
            else {
                return fail("critical-instance certificate needs a chase-log witness".into());
            };
            if *limit != CRITICAL_CHASE_STEP_LIMIT {
                return fail(format!(
                    "witness ran under step limit {limit}, the spec limit is {CRITICAL_CHASE_STEP_LIMIT}"
                ));
            }
            let log = critical_chase(schema, forward, CRITICAL_CHASE_STEP_LIMIT)
                .expect("trail replay certified the critical instance");
            if (*steps, *facts, *max_fact_width) != (log.steps, log.facts, log.max_fact_width) {
                return fail(format!(
                    "claimed chase log (steps {steps}, facts {facts}, width {max_fact_width}), \
                     replay gives ({}, {}, {})",
                    log.steps, log.facts, log.max_fact_width
                ));
            }
            critical_bounds(schema, &log, tc.adom_size)
        }
        None => {
            if tc.witness != TerminationWitness::None {
                return fail("uncertified section must not carry a witness".into());
            }
            (0, 0, 0)
        }
    };
    if (tc.value_bound, tc.fact_bound, tc.step_bound) != derived_bounds {
        return fail(format!(
            "claimed (value, fact, step) bounds ({}, {}, {}), derived ({}, {}, {})",
            tc.value_bound,
            tc.fact_bound,
            tc.step_bound,
            derived_bounds.0,
            derived_bounds.1,
            derived_bounds.2
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Serialization and rendering.
// ---------------------------------------------------------------------------

impl Verifiable for TerminationCertificate {
    const KIND: &'static str = "termination";

    /// The section as the versioned JSON of `docs/TERMINATION.md`.
    fn to_json(&self) -> Json {
        let trail = self.trail.iter().map(|c| {
            Json::from_iter([
                ("criterion", c.criterion.as_str().into()),
                ("holds", c.holds.into()),
            ])
        });
        let witness = match &self.witness {
            TerminationWitness::Ranks => Json::from_iter([("kind", "ranks".into())]),
            TerminationWitness::VarOrder { order, max_depth } => {
                let order = order.iter().map(|v| {
                    Json::from_iter([("tgd", v.tgd_index.into()), ("var", v.var.as_str().into())])
                });
                Json::from_iter([
                    ("kind", "variable-order".into()),
                    ("max_depth", (*max_depth).into()),
                    ("order", order.collect()),
                ])
            }
            TerminationWitness::CriticalChase {
                steps,
                facts,
                max_fact_width,
                limit,
            } => Json::from_iter([
                ("kind", "critical-chase".into()),
                ("steps", (*steps).into()),
                ("facts", (*facts).into()),
                ("max_fact_width", (*max_fact_width).into()),
                ("limit", (*limit).into()),
            ]),
            TerminationWitness::None => Json::from_iter([("kind", "none".into())]),
        };
        Json::from_iter([
            ("v", self.version.into()),
            ("adom_size", self.adom_size.into()),
            (
                "criterion",
                self.criterion.map(TerminationCriterion::as_str).into(),
            ),
            ("trail", trail.collect()),
            ("value_bound", self.value_bound.into()),
            ("fact_bound", self.fact_bound.into()),
            ("step_bound", self.step_bound.into()),
            ("witness", witness),
        ])
    }

    fn from_json_value(v: &Json) -> Result<TerminationCertificate, String> {
        let top = v.as_obj("termination")?;
        let version = u32::try_from(top.get_num("v")?)
            .map_err(|_| "termination version out of range".to_string())?;
        let adom_size = top.get_num("adom_size")?;
        let criterion = match top.field_of("criterion")? {
            Json::Null => None,
            Json::Str(s) => Some(
                TerminationCriterion::from_str(s)
                    .ok_or_else(|| format!("unknown termination criterion '{s}'"))?,
            ),
            _ => return Err("criterion must be a string or null".into()),
        };
        let mut trail = Vec::new();
        for item in v.get_arr("trail")? {
            let o = item.as_obj("trail[]")?;
            let c = o.get_str("criterion")?;
            trail.push(CriterionCheck {
                criterion: TerminationCriterion::from_str(&c)
                    .ok_or_else(|| format!("unknown trail criterion '{c}'"))?,
                holds: o.get_bool("holds")?,
            });
        }
        let wv = top.field_of("witness")?;
        let wo = wv.as_obj("witness")?;
        let witness = match wo.get_str("kind")?.as_str() {
            "ranks" => TerminationWitness::Ranks,
            "variable-order" => {
                let mut order = Vec::new();
                for item in wv.get_arr("order")? {
                    let o = item.as_obj("order[]")?;
                    order.push(ExVarRef {
                        tgd_index: o.get_num("tgd")?,
                        var: o.get_str("var")?,
                    });
                }
                TerminationWitness::VarOrder {
                    order,
                    max_depth: wo.get_num("max_depth")?,
                }
            }
            "critical-chase" => TerminationWitness::CriticalChase {
                steps: wo.get_num("steps")?,
                facts: wo.get_num("facts")?,
                max_fact_width: wo.get_num("max_fact_width")?,
                limit: wo.get_num("limit")?,
            },
            "none" => TerminationWitness::None,
            other => return Err(format!("unknown witness kind '{other}'")),
        };
        Ok(TerminationCertificate {
            version,
            adom_size,
            criterion,
            trail,
            witness,
            value_bound: top.get_num("value_bound")?,
            fact_bound: top.get_num("fact_bound")?,
            step_bound: top.get_num("step_bound")?,
        })
    }

    /// Only the setting matters: the section records the active-domain
    /// size its bounds were evaluated at.
    fn verify(&self, setting: &PdeSetting, _input: &Instance) -> Result<(), CertificateError> {
        verify_tgds(setting.schema(), &forward_tgds(setting), self)
    }

    fn summary(&self) -> String {
        match self.criterion {
            Some(c) => format!("certified by {c}"),
            None => "uncertified (every criterion fails)".into(),
        }
    }
}

/// Human-readable rendering (the `pde terminate` text format; also
/// embedded in `pde plan`'s output).
pub fn render_termination_text(tc: &TerminationCertificate) -> String {
    let mut out = String::new();
    match tc.criterion {
        Some(c) => out.push_str(&format!("termination: certified by {c}\n")),
        None => out.push_str("termination: UNDETERMINED (every criterion failed)\n"),
    }
    let trail: Vec<String> = tc
        .trail
        .iter()
        .map(|c| format!("{} {}", c.criterion, if c.holds { "yes" } else { "no" }))
        .collect();
    out.push_str(&format!("  trail: {}\n", trail.join("; ")));
    match &tc.witness {
        TerminationWitness::Ranks => {
            out.push_str("  witness: position ranks (see the chase certificate)\n");
        }
        TerminationWitness::VarOrder { order, max_depth } => {
            let vars: Vec<String> = order
                .iter()
                .map(|v| format!("{}@tgd{}", v.var, v.tgd_index))
                .collect();
            out.push_str(&format!(
                "  witness: existential-variable order {} (depth {max_depth})\n",
                vars.join(" < ")
            ));
        }
        TerminationWitness::CriticalChase {
            steps,
            facts,
            max_fact_width,
            limit,
        } => {
            out.push_str(&format!(
                "  witness: critical instance saturated in {steps} step(s), {facts} fact(s), \
                 max width {max_fact_width} (limit {limit})\n"
            ));
        }
        TerminationWitness::None => {}
    }
    if tc.certified() {
        out.push_str(&format!(
            "  bound at |adom| = {}: values {}, facts {}, steps {}\n",
            tc.adom_size, tc.value_bound, tc.fact_bound, tc.step_bound
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setting(schema: &str, st: &str, ts: &str, t: &str) -> PdeSetting {
        PdeSetting::parse(schema, st, ts, t).unwrap()
    }

    /// Check `tc` against `s`; the input instance plays no part.
    fn verify(s: &PdeSetting, tc: &TerminationCertificate) -> Result<(), CertificateError> {
        tc.verify(s, &Instance::new(s.schema().clone()))
    }

    /// Weakly acyclic: the hierarchy stops at criterion 1.
    fn wa_setting() -> PdeSetting {
        setting(
            "source E/2; target H/2;",
            "E(x, z), E(z, y) -> H(x, y)",
            "H(x, y) -> E(x, y)",
            "",
        )
    }

    /// Not weakly acyclic (A.0 -special-> C.1 -> A.0), but jointly
    /// acyclic: the C-null can never reach B, and the creating tgd needs
    /// its frontier in both A and B.
    fn ja_setting() -> PdeSetting {
        setting(
            "source SA/1; source SB/1; target A/1; target B/1; target C/2;",
            "SA(x) -> A(x); SB(x) -> B(x)",
            "B(x) -> SB(x)",
            "A(x), B(x) -> exists z . C(x, z); C(x, y) -> A(y)",
        )
    }

    /// Fails joint acyclicity (position-wise the null reaches both R.0
    /// and R.1), but super-weakly acyclic: no single conclusion atom puts
    /// the fresh null at both attributes of the repeated-variable premise
    /// R(w, w).
    fn swa_setting() -> PdeSetting {
        setting(
            "source S/1; target A/1; target R/2;",
            "S(x) -> A(x)",
            "A(x) -> S(x)",
            "A(x) -> exists z . R(x, z), R(z, x); R(w, w) -> A(w)",
        )
    }

    /// Fails every acyclicity criterion — the swap rule makes the taint
    /// analysis pool the null onto both attributes of one R-fact, so the
    /// diagonal consumer looks reachable — but the critical instance
    /// saturates: the chase only ever produces *mixed* facts R(*, n) and
    /// R(n, *), never a null on the diagonal, so no null reaches A.
    fn mfa_setting() -> PdeSetting {
        setting(
            "source S/1; target A/1; target R/2;",
            "S(x) -> A(x)",
            "A(x) -> S(x)",
            "A(x) -> exists y . R(x, y); R(x, y) -> R(y, x); R(w, w) -> A(w)",
        )
    }

    /// Genuinely divergent: every criterion fails.
    fn divergent_setting() -> PdeSetting {
        setting(
            "source E/2; target H/2;",
            "E(x, y) -> H(x, y)",
            "H(x, y) -> E(x, y)",
            "H(x, y) -> exists z . H(y, z)",
        )
    }

    #[test]
    fn hierarchy_is_checked_cheapest_first() {
        let cases = [
            (wa_setting(), Some(TerminationCriterion::WeakAcyclicity), 1),
            (ja_setting(), Some(TerminationCriterion::JointAcyclicity), 2),
            (
                swa_setting(),
                Some(TerminationCriterion::SuperWeakAcyclicity),
                3,
            ),
            (
                mfa_setting(),
                Some(TerminationCriterion::CriticalInstance),
                4,
            ),
        ];
        for (s, expected, trail_len) in cases {
            let tc = analyze_termination(&s, 3);
            assert_eq!(tc.criterion, expected);
            assert_eq!(tc.trail.len(), trail_len);
            assert_eq!(tc.certified(), expected.is_some());
            assert!(tc.fact_bound > 0, "certified sections carry a bound");
            verify(&s, &tc).expect("analysis output must verify");
        }
    }

    /// The divergent setting exercises the full critical-chase step limit
    /// twice per analysis (analyze + verify), which is far too slow under
    /// Miri; the cheap limit-respecting test below keeps the chase loop
    /// covered there.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn divergent_setting_fails_every_criterion() {
        let s = divergent_setting();
        let tc = analyze_termination(&s, 3);
        assert_eq!(tc.criterion, None);
        assert_eq!(tc.trail.len(), 4);
        assert!(tc.trail.iter().all(|c| !c.holds));
        assert_eq!((tc.value_bound, tc.fact_bound, tc.step_bound), (0, 0, 0));
        verify(&s, &tc).expect("the uncertified section still verifies");
        let back = TerminationCertificate::from_json(&tc.to_json().to_string()).unwrap();
        assert_eq!(back, tc);
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        for s in [wa_setting(), ja_setting(), swa_setting(), mfa_setting()] {
            let tc = analyze_termination(&s, 4);
            let back = TerminationCertificate::from_json(&tc.to_json().to_string()).unwrap();
            assert_eq!(back, tc);
            verify(&s, &back).unwrap();
        }
    }

    #[test]
    fn tampered_trail_is_rejected() {
        let s = ja_setting();
        let mut tc = analyze_termination(&s, 3);
        tc.trail[0].holds = true;
        assert!(matches!(
            verify(&s, &tc),
            Err(CertificateError::Termination(_))
        ));
    }

    #[test]
    fn tampered_order_is_rejected() {
        let s = ja_setting();
        let mut tc = analyze_termination(&s, 3);
        let TerminationWitness::VarOrder { order, .. } = &mut tc.witness else {
            panic!("joint acyclicity carries a variable order");
        };
        order.clear();
        assert!(matches!(
            verify(&s, &tc),
            Err(CertificateError::Termination(_))
        ));
    }

    #[test]
    fn tampered_chase_log_is_rejected() {
        let s = mfa_setting();
        let mut tc = analyze_termination(&s, 3);
        let TerminationWitness::CriticalChase { facts, .. } = &mut tc.witness else {
            panic!("critical-instance check carries a chase log");
        };
        *facts += 1;
        assert!(matches!(
            verify(&s, &tc),
            Err(CertificateError::Termination(_))
        ));
    }

    #[test]
    fn tampered_bound_is_rejected() {
        let s = swa_setting();
        let mut tc = analyze_termination(&s, 3);
        tc.fact_bound += 1;
        assert!(matches!(
            verify(&s, &tc),
            Err(CertificateError::Termination(_))
        ));
    }

    #[test]
    fn forged_certification_of_a_divergent_setting_is_rejected() {
        let s = divergent_setting();
        let forged = analyze_termination(&ja_setting(), 3);
        assert!(verify(&s, &forged).is_err());
    }

    #[test]
    fn critical_chase_respects_its_step_limit() {
        let s = divergent_setting();
        let forward = forward_tgds(&s);
        assert!(critical_chase(s.schema(), &forward, 16).is_none());
    }

    #[test]
    fn critical_chase_saturates_on_the_mfa_setting() {
        let s = mfa_setting();
        let forward = forward_tgds(&s);
        let log = critical_chase(s.schema(), &forward, 64).expect("saturates");
        assert!(log.steps <= 8, "tiny instance, tiny log: {}", log.steps);
        assert!(log.facts >= s.schema().len());
    }

    #[test]
    fn swa_edges_are_a_subset_of_ja_edges() {
        for s in [
            ja_setting(),
            swa_setting(),
            mfa_setting(),
            divergent_setting(),
        ] {
            let forward = forward_tgds(&s);
            let ja = ExVarGraph::build(&forward, GraphMode::Positions);
            let swa = ExVarGraph::build(&forward, GraphMode::Places);
            assert_eq!(ja.nodes, swa.nodes);
            let ja_edges: BTreeSet<_> = ja.edges.iter().collect();
            for e in &swa.edges {
                assert!(ja_edges.contains(e), "SWA edge {e:?} missing from JA");
            }
        }
    }

    #[test]
    fn rendering_names_the_criterion() {
        let tc = analyze_termination(&ja_setting(), 3);
        let text = render_termination_text(&tc);
        assert!(text.contains("certified by joint-acyclicity"));
        assert!(text.contains("weak-acyclicity no"));
        let tc = analyze_termination(&divergent_setting(), 3);
        assert!(render_termination_text(&tc).contains("UNDETERMINED"));
    }
}
