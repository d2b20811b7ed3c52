//! Complete search solver for settings with target constraints
//! (Σt = egds ∪ weakly acyclic tgds) — the general NP procedure behind
//! Theorem 1.
//!
//! The solver runs a *nondeterministic-witness chase*: whenever a tgd of
//! Σst ∪ Σt fires, each existential variable branches over a finite set of
//! values. An existential that occurs at a position the Σts column domains
//! constrain ([`crate::domain`]) takes only the constants of the
//! intersection of its positions' domains. Every other existential takes
//! every value of the current active domain **plus one fresh null**.
//! Constants are tried in name order, then nulls, and existentials in the
//! order they first occur in the conclusion, so the tree does not depend
//! on the order in which the process interned its constants.
//!
//! This search space is complete by the solution-aware chase argument
//! (Lemma 2): for any solution `J'`, the branch that picks exactly `J'`'s
//! witnesses — with values outside the active domain represented by fresh
//! nulls — reaches a leaf that is itself a solution and maps
//! homomorphically into `J'`. The domains keep that branch. At a
//! constrained position `J'`'s witness is a constant of a projection
//! `π_j(S^I) ⊆ adom(I) ⊆ adom(K)`, so it lies in the domain and the branch
//! picks it as itself. A null there could never satisfy the Σts tgd,
//! because `I` is ground, so the branch never needs one.
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
//! CLIQUE with a single target egd or a single full target tgd. The pick
//! rules fix the tree; the implementation decides only what a node costs.
//!
//! # One instance and a trail
//!
//! The search keeps a single working instance. A child is entered by
//! opening an [`Instance::savepoint`], bumping the epoch and inserting the
//! chosen conclusion facts; it is left by [`Instance::rollback`], which
//! truncates the rows appended since and revives the rows removed since
//! in place. Live rows come back in the same order with the same index
//! postings, so every homomorphism search enumerates exactly as it would
//! on a fresh copy of the parent, and the tree — every pick, every null
//! name, every memo key — is the one a copying search would build.
//!
//! # Work from the delta
//!
//! A node's *delta* is every row stamped at or after its epoch: the facts
//! it inserted plus every row an egd merge rewrote (rewrites re-stamp
//! rows). Three arguments let each node look at its delta instead of the
//! whole instance:
//!
//! * **Egds.** The parent is egd-closed, so every violation in the child
//!   matches at least one delta row, and the semi-naive search finds them
//!   all. A constant/constant violation fails the node outright: merges
//!   only rename nulls, so it survives until picked, and the node fails
//!   whatever the merge order. Otherwise the node applies the merge a full
//!   scan would pick first — the first egd with a violation, and within it
//!   the violation with the smallest [`scan_order_key`] — because the
//!   surviving null names feed the memo key.
//! * **Σts prune.** The parent had no permanent Σts violation. A premise
//!   match over unchanged parent rows has the values it had there, and
//!   Σts conclusions range over the fixed source, so only matches touching
//!   the delta can be new permanent violations.
//! * **Forward triggers.** A Σst premise reads only source relations,
//!   which the search never writes, so its matches form one fixed list. A
//!   satisfied conclusion stays satisfied under inserts and merges (merges
//!   map the instance homomorphically and fix the premise's constants), so
//!   along a branch the first violated match only moves forward: each node
//!   resumes the scan where its parent stopped. Σt tgds read the target
//!   and keep the full scan.

use crate::domain::{by_name, column_domains, ColumnDomains, Position};
use crate::setting::PdeSetting;
use crate::solver::SolveError;
use pde_chase::{find_egd_violation, find_tgd_violation, null_gen_for};
use pde_constraints::{DisjunctiveTgd, Egd, EgdPair, Tgd};
use pde_relational::{
    all_homs, exists_hom, first_expanded_atom, for_each_hom_seminaive, for_each_pair_seminaive,
    is_identifier, scan_order_key, Assignment, Atom, Instance, NullGen, NullId, Peer, Term, Tuple,
    Value, Var,
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
    /// Maximum number of values tried per existential variable when
    /// branching: the first ones of its column domain at a constrained
    /// position, else of the active domain (with the one fresh null tried
    /// on top). When this truncates the branch set, an unsuccessful search
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
/// over this family. Returns the stats and whether the space was
/// exhausted; a governor stop surfaces as [`SolveError::Stopped`].
pub fn for_each_solution(
    setting: &PdeSetting,
    input: &Instance,
    limits: GenericLimits,
    governor: &Governor,
    f: impl FnMut(&Instance) -> ControlFlow<()>,
) -> Result<(GenericStats, bool), SolveError> {
    match run(setting, input, limits, governor, f)? {
        (_, _, Some(reason)) => Err(SolveError::Stopped(reason)),
        (stats, exhausted, None) => Ok((stats, exhausted)),
    }
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
    let schema = setting.schema();
    let tgds: Vec<&Tgd> = setting
        .sigma_st()
        .iter()
        .chain(setting.target_tgds())
        .collect();
    let sigma_ts: Vec<DisjunctiveTgd> = setting
        .sigma_ts()
        .iter()
        .map(DisjunctiveTgd::from_tgd)
        .collect();
    let domains = column_domains(
        &sigma_ts,
        input,
        tgds.iter().flat_map(|t| {
            t.existentials
                .iter()
                .flat_map(|&z| positions_of(&t.conclusion.atoms, z))
        }),
    );
    let mut forward: Vec<Forward<'_>> = tgds
        .iter()
        .map(|&tgd| {
            let reads_source = tgd
                .premise
                .atoms
                .iter()
                .all(|a| schema.peer(a.rel) == Peer::Source);
            Forward {
                tgd,
                source_matches: reads_source
                    .then(|| all_homs(&tgd.premise.atoms, input, &Assignment::new())),
                witnesses: witness_domains(tgd, &domains),
            }
        })
        .collect();
    forward.sort_by_key(|f| usize::from(!f.tgd.is_full()));
    // The rank table of the active-domain branches: every constant a node
    // can hold comes from the input or from a forward conclusion.
    let constants = by_name(
        input
            .active_domain()
            .into_iter()
            .chain(tgds.iter().flat_map(|t| {
                t.conclusion.atoms.iter().flat_map(|a| {
                    a.terms.iter().filter_map(|term| match term {
                        Term::Const(c) => Some(Value::Const(*c)),
                        Term::Var(_) => None,
                    })
                })
            })),
    );
    let egds: Vec<EgdCheck<'_>> = setting.target_egds().map(EgdCheck::new).collect();
    // Conclusion-relevant variables of each ts tgd: premise variables that
    // reappear in the conclusion. A violating match is permanent when the
    // values bound to them can never change — always, if there are no egds
    // (nothing ever merges); otherwise when they are all constants.
    let ts_relevant: Vec<Vec<Var>> = setting
        .sigma_ts()
        .iter()
        .map(|t| t.frontier().into_iter().collect())
        .collect();
    let cursors = vec![0; forward.len()];
    let mut ctx = Ctx {
        setting,
        forward: &forward,
        constants,
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
    // The root's delta is the whole input: nothing is known to be closed.
    let mut k = input.clone();
    let exhausted = matches!(ctx.search(&mut k, 0, &cursors), SearchFlow::Exhausted);
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

/// A tgd whose violations force chase steps (Σst and the tgds of Σt).
struct Forward<'a> {
    tgd: &'a Tgd,
    /// For a premise over source relations only (every Σst tgd): all its
    /// premise matches, in `for_each_hom` order. The search never writes
    /// the source, so the list is the same at every node.
    source_matches: Option<Vec<Assignment>>,
    /// The existentials in the order they first occur in the conclusion,
    /// each with its column domain (`None`: unconstrained).
    witnesses: Vec<(Var, Option<Vec<Value>>)>,
}

/// The positions of `atoms` that hold the variable `z`.
fn positions_of(atoms: &[Atom], z: Var) -> impl Iterator<Item = Position> + '_ {
    atoms.iter().flat_map(move |a| {
        a.terms
            .iter()
            .enumerate()
            .filter(move |(_, t)| **t == Term::Var(z))
            .map(move |(i, _)| (a.rel, i))
    })
}

/// `tgd`'s existentials in first-occurrence order, with the meet of the
/// domains of the positions each one occupies.
fn witness_domains(tgd: &Tgd, domains: &ColumnDomains) -> Vec<(Var, Option<Vec<Value>>)> {
    let mut order: Vec<Var> = Vec::new();
    for z in tgd.conclusion.atoms.iter().flat_map(Atom::var_occurrences) {
        if tgd.existentials.contains(&z) && !order.contains(&z) {
            order.push(z);
        }
    }
    order
        .into_iter()
        .map(|z| (z, domains.meet(positions_of(&tgd.conclusion.atoms, z))))
        .collect()
}

/// A constant/constant egd violation: the node fails.
struct Conflict;

/// A target egd, with its premise as a row-pair join when it has that
/// shape.
struct EgdCheck<'a> {
    egd: &'a Egd,
    /// [`Egd::pair_shape`].
    pairs: Option<EgdPair>,
}

impl<'a> EgdCheck<'a> {
    fn new(egd: &'a Egd) -> EgdCheck<'a> {
        EgdCheck {
            egd,
            pairs: egd.pair_shape(),
        }
    }

    /// Scan the violations that touch the delta (rows stamped at or after
    /// `since`). A constant/constant one is a [`Conflict`]. Otherwise, when
    /// `want_first`, the `(lhs, rhs)` values of the violation a full
    /// `for_each_hom` scan would meet first.
    fn violations(
        &self,
        k: &Instance,
        since: u64,
        want_first: bool,
    ) -> Result<Option<(Value, Value)>, Conflict> {
        let e = self.egd;
        let mut conflict = false;
        let mut first: Option<((u32, u32), Value, Value)> = None;
        let mut consider = |key: Option<(u32, u32)>, l: Value, r: Value| {
            if l.is_const() && r.is_const() {
                conflict = true;
                return ControlFlow::Break(());
            }
            if let Some(key) = key.filter(|_| want_first) {
                if first.is_none_or(|(best, ..)| key < best) {
                    first = Some((key, l, r));
                }
            }
            ControlFlow::Continue(())
        };
        let mut unordered = false;
        if let Some(pair) = &self.pairs {
            let swap = want_first && first_expanded_atom(&e.premise.atoms, k) == Some(1);
            let _ = for_each_pair_seminaive(k, &pair.shape, since, u64::MAX, |r0, r1| {
                let (l, r) = pair.equated(k, r0, r1);
                if l == r {
                    return ControlFlow::Continue(());
                }
                let key = if swap { (r1, r0) } else { (r0, r1) };
                consider(Some(key), l.value(), r.value())
            });
        } else {
            let none = Assignment::new();
            let _ = for_each_hom_seminaive(&e.premise.atoms, k, &none, since, u64::MAX, |h| {
                let l = h.get(e.lhs).expect("egd lhs bound by premise");
                let r = h.get(e.rhs).expect("egd rhs bound by premise");
                if l == r {
                    return ControlFlow::Continue(());
                }
                let key = scan_order_key(&e.premise.atoms, k, h);
                unordered |= key.is_none();
                consider(key, l, r)
            });
        }
        if conflict {
            return Err(Conflict);
        }
        if want_first && unordered {
            // Too many premise atoms to order matches by their rows: a
            // full scan names the first violation.
            return Ok(find_egd_violation(k, e).map(|h| {
                let get = |v| h.get(v).expect("egd variables bound by premise");
                (get(e.lhs), get(e.rhs))
            }));
        }
        Ok(first.map(|(_, l, r)| (l, r)))
    }
}

/// Apply `egds` to a fixpoint, looking only at violations that touch the
/// delta (rows stamped at or after `since`, the rows every merge rewrites
/// included); `false` on a constant/constant conflict. Each round applies
/// the merge a full scan would: the first egd with a violation, and its
/// violation first in `for_each_hom` order.
fn close_egds(egds: &[EgdCheck<'_>], k: &mut Instance, since: u64) -> bool {
    loop {
        let mut merge: Option<(Value, Value)> = None;
        for e in egds {
            match e.violations(k, since, merge.is_none()) {
                Err(Conflict) => return false,
                Ok(first) => merge = merge.or(first),
            }
        }
        match merge {
            None => return true,
            Some((l, r)) if l.is_null() => k.substitute(l, r),
            Some((l, r)) => k.substitute(r, l),
        }
    }
}

struct Ctx<'a, F> {
    setting: &'a PdeSetting,
    forward: &'a [Forward<'a>],
    /// Every constant a node can hold, in name order.
    constants: Vec<Value>,
    egds: Vec<EgdCheck<'a>>,
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

impl<'a, F: FnMut(&Instance) -> ControlFlow<()>> Ctx<'a, F> {
    /// Expand the node `k`, whose delta is every row stamped at or after
    /// `since`. `cursors[i]` is where the scan for a violated match of the
    /// source-premise tgd `forward[i]` resumes. `k` is changed in place;
    /// each child is rolled back before the next one is entered.
    fn search(&mut self, k: &mut Instance, since: u64, cursors: &[usize]) -> SearchFlow {
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
        if !close_egds(&self.egds, k, since) {
            self.stats.egd_failures += 1;
            return SearchFlow::Exhausted;
        }

        // 2. Permanent Σts violation prune (checked before the memo key:
        // pruned nodes never pay for canonicalization).
        if self.has_permanent_ts_violation(k, since) {
            self.stats.ts_prunes += 1;
            return SearchFlow::Exhausted;
        }

        // 3. Memoized visited check (isomorphism-invariant key).
        let key = canonical_key(k);
        if !self.visited.insert(key) {
            self.stats.memo_hits += 1;
            return SearchFlow::Exhausted;
        }

        // 4. Find a forward-tgd violation to branch on.
        let mut cursors = cursors.to_vec();
        let Some((f, h)) = self.find_trigger(k, &mut cursors) else {
            // Leaf: Σst and Σt hold; success iff Σts holds.
            self.stats.candidates_checked += 1;
            let ts_ok = self
                .setting
                .sigma_ts()
                .iter()
                .all(|t| pde_chase::satisfies_tgd(k, t));
            if ts_ok {
                return match (self.sink)(k) {
                    ControlFlow::Break(()) => SearchFlow::Stopped,
                    ControlFlow::Continue(()) => SearchFlow::Exhausted,
                };
            }
            return SearchFlow::Exhausted;
        };

        // 5. Branch over witness choices: each existential independently
        // takes a value of its column domain, or else any active-domain
        // value or a fresh null.
        let adom = if f.witnesses.iter().any(|(_, d)| d.is_none()) {
            self.branch_adom(k)
        } else {
            Vec::new()
        };
        // The branch-width budget caps how many values each existential
        // tries; skipping any makes the subtree incomplete, so the whole
        // search degrades to Truncated (never a false NoSolution).
        let mut truncated = false;
        let options: Vec<Vec<Value>> = f
            .witnesses
            .iter()
            .map(|(_, dom)| {
                let (list, fresh) = match dom {
                    Some(d) => (d.as_slice(), None),
                    None => (adom.as_slice(), Some(Value::Null(self.gen.fresh()))),
                };
                let tried = list.len().min(self.limits.max_branches);
                truncated |= tried < list.len();
                list[..tried].iter().copied().chain(fresh).collect()
            })
            .collect();
        let done = |truncated: bool| {
            if truncated {
                SearchFlow::Truncated
            } else {
                SearchFlow::Exhausted
            }
        };
        if options.iter().any(Vec::is_empty) {
            // An empty domain: no witness can satisfy Σts.
            return done(truncated);
        }
        let mut choice = vec![0usize; options.len()];
        loop {
            // Materialize this choice.
            let mut ext = h.clone();
            for ((z, _), (opts, &c)) in f.witnesses.iter().zip(options.iter().zip(&choice)) {
                ext.bind(*z, opts[c]);
            }
            // Fault-injection points: firing a branch is the search's
            // analogue of a chase trigger/allocation.
            self.governor.on_trigger(self.stats.nodes);
            if let Err(reason) = self.governor.on_alloc(self.stats.nodes) {
                self.stopped = Some(reason);
                return SearchFlow::Stopped;
            }
            let sp = k.savepoint();
            let child_since = k.bump_epoch();
            for atom in &f.tgd.conclusion.atoms {
                let vals = atom
                    .ground(&|v| ext.get(v))
                    .expect("conclusion fully bound: ext extends the premise hom with witnesses for every existential");
                k.insert(atom.rel, Tuple::new(vals));
            }
            let flow = self.search(k, child_since, &cursors);
            k.rollback(sp);
            match flow {
                SearchFlow::Stopped => return SearchFlow::Stopped,
                SearchFlow::Truncated => truncated = true,
                SearchFlow::Exhausted => {}
            }
            // Advance the mixed-radix counter; a full tgd has one (empty)
            // choice.
            let mut pos = 0;
            loop {
                if pos == choice.len() {
                    return done(truncated);
                }
                choice[pos] += 1;
                if choice[pos] < options[pos].len() {
                    break;
                }
                choice[pos] = 0;
                pos += 1;
            }
        }
    }

    /// The active domain of `k` as the branches try it: constants in name
    /// order, then nulls.
    fn branch_adom(&self, k: &Instance) -> Vec<Value> {
        let adom = k.active_domain();
        let out: Vec<Value> = self
            .constants
            .iter()
            .copied()
            .filter(|c| adom.contains(c))
            .chain(adom.iter().copied().filter(Value::is_null))
            .collect();
        debug_assert_eq!(out.len(), adom.len(), "every constant is ranked");
        out
    }

    /// The first violated forward trigger: the first tgd with a violation,
    /// and its first violating premise match in `for_each_hom` order. A
    /// source-premise tgd scans its match list from `cursors[i]` and leaves
    /// there where it stopped, for the children to resume from.
    fn find_trigger(
        &self,
        k: &Instance,
        cursors: &mut [usize],
    ) -> Option<(&'a Forward<'a>, Assignment)> {
        self.forward.iter().enumerate().find_map(|(i, f)| {
            let h = match &f.source_matches {
                Some(matches) => {
                    let from = cursors[i];
                    let at = matches[from..]
                        .iter()
                        .position(|h| !exists_hom(&f.tgd.conclusion.atoms, k, h))
                        .map_or(matches.len(), |p| from + p);
                    cursors[i] = at;
                    matches.get(at).cloned()
                }
                None => find_tgd_violation(k, f.tgd),
            };
            h.map(|h| (f, h))
        })
    }

    /// Is there a Σts violation that no future step can repair, among the
    /// premise matches touching the delta (rows stamped at or after
    /// `since`)?
    ///
    /// Target facts only grow (more matches, never fewer) and the source
    /// is fixed, so a violating match dies only if an egd later merges a
    /// null bound to a conclusion-relevant variable. Without egds every
    /// violation is permanent; with egds a violation is permanent when its
    /// conclusion-relevant values are all constants.
    fn has_permanent_ts_violation(&self, k: &Instance, since: u64) -> bool {
        let no_egds = self.egds.is_empty();
        self.setting.sigma_ts().iter().enumerate().any(|(i, t)| {
            let relevant = &self.ts_relevant[i];
            let none = Assignment::new();
            for_each_hom_seminaive(&t.premise.atoms, k, &none, since, u64::MAX, |h| {
                let frozen = no_egds
                    || relevant
                        .iter()
                        .all(|v| h.get(*v).is_some_and(|val| val.is_const()));
                if frozen && !exists_hom(&t.conclusion.atoms, k, h) {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            })
            .is_break()
        })
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
        // The only solution instantiates the existential with `b`, the one
        // value of its column domain (`H`'s second column reaches `W`'s);
        // with every domain value cut, the search must degrade to Unknown
        // rather than claim NoSolution.
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
        // The skipped branches forbid a NoSolution verdict.
        assert_eq!(capped.decided(), None);
    }

    /// `z` occurs at `R`'s second column, whose domain is `A`'s column,
    /// and at `T`'s first, whose domain is `B`'s.
    fn two_domain_setting() -> PdeSetting {
        PdeSetting::parse(
            "source S/1; source A/1; source B/1; target R/2; target T/2;",
            "S(x) -> exists z . R(x, z), T(z, x)",
            "R(x, y) -> A(y); T(u, v) -> B(u)",
            "R(x, y), R(x, y2) -> y = y2",
        )
        .unwrap()
    }

    #[test]
    fn an_existential_branches_over_the_meet_of_its_positions_domains() {
        let p = two_domain_setting();
        let input = parse_instance(p.schema(), "S(s). A(a). A(b). B(b). B(c).").unwrap();
        let out = solve(&p, &input, GenericLimits::default()).unwrap();
        let w = out.witness().expect("z = b is in both columns");
        assert!(is_solution(&p, &input, w));
        // The root and its one child: `a` (only in A) and `c` (only in B)
        // are never tried, and neither is a null.
        assert_eq!(out.stats().nodes, 2);
        assert_eq!(out.stats().ts_prunes, 0);
    }

    #[test]
    fn an_empty_domain_gives_a_childless_node_and_a_no() {
        let p = two_domain_setting();
        let input = parse_instance(p.schema(), "S(s). A(a). B(c).").unwrap();
        let out = solve(&p, &input, GenericLimits::default()).unwrap();
        assert_eq!(out.decided(), Some(false));
        assert_eq!(out.stats().nodes, 1);
    }

    #[test]
    fn an_unconstrained_existential_still_tries_a_fresh_null() {
        // `R(x, x) -> A(x)` has a repeated variable: `R`'s columns stay
        // unconstrained, and the fresh null is the witness.
        let p = PdeSetting::parse(
            "source S/1; source A/1; target R/2;",
            "S(x) -> exists z . R(x, z)",
            "R(x, x) -> A(x)",
            "R(x, y), R(x, y2) -> y = y2",
        )
        .unwrap();
        let input = parse_instance(p.schema(), "S(s).").unwrap();
        let out = solve(&p, &input, GenericLimits::default()).unwrap();
        let w = out.witness().expect("a null witness");
        assert!(!w.is_ground());
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

    /// The egd fixpoint as the search ran it before it worked from deltas:
    /// rescan every egd after each merge, merge the first violation a full
    /// scan meets.
    fn close_by_full_scans(p: &PdeSetting, k: &mut Instance) -> bool {
        loop {
            let Some((e, h)) = p
                .target_egds()
                .find_map(|e| find_egd_violation(k, e).map(|h| (e, h)))
            else {
                return true;
            };
            let (l, r) = (h.get(e.lhs).unwrap(), h.get(e.rhs).unwrap());
            match (l, r) {
                (Value::Const(_), Value::Const(_)) => return false,
                (Value::Null(_), _) => k.substitute(l, r),
                (_, Value::Null(_)) => k.substitute(r, l),
            }
        }
    }

    #[test]
    fn delta_egd_closure_matches_full_scans_exactly() {
        // A key egd, a join egd, an egd with a constant (ordered by row
        // keys through the general path) and a three-atom egd (named by a
        // full scan). Rows over a few constants and nulls are added in
        // batches to an egd-closed instance, as a search node adds its
        // conclusion; both closures must agree on the verdict, the rows,
        // their order and the surviving null names.
        let p = PdeSetting::parse(
            "source S/1; target P/3;",
            "",
            "",
            "P(x, y, z), P(x, y2, z2) -> y = y2;
             P(x, y, z), P(z, y2, z2) -> y = z2;
             P(x, 'c0', z), P(x, y2, z2) -> z = z2;
             P(x, y, z), P(y, y2, z2), P(x, y3, z3) -> z = z3",
        )
        .unwrap();
        let rel = p.schema().rel_id("P").unwrap();
        let egds: Vec<EgdCheck<'_>> = p.target_egds().map(EgdCheck::new).collect();
        assert!(egds[0].pairs.is_some() && egds[1].pairs.is_some());
        assert!(egds[2].pairs.is_none() && egds[3].pairs.is_none());
        let mut seed: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = move |n: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % n
        };
        let mut fresh = 0u32;
        let value = |x: u64, fresh: &mut u32| {
            if x < 3 {
                Value::constant(format!("c{x}"))
            } else {
                *fresh += 1;
                Value::Null(NullId(*fresh % 9))
            }
        };
        let (mut agreed, mut merged) = (0, 0);
        for _ in 0..300 {
            let mut k = Instance::new(p.schema().clone());
            // An egd-closed parent.
            for _ in 0..next(4) {
                let t: Vec<Value> = (0..3).map(|_| value(next(6), &mut fresh)).collect();
                k.insert(rel, Tuple::new(t));
            }
            if !close_by_full_scans(&p, &mut k) {
                continue;
            }
            let since = k.bump_epoch();
            for _ in 0..1 + next(3) {
                let t: Vec<Value> = (0..3).map(|_| value(next(6), &mut fresh)).collect();
                k.insert(rel, Tuple::new(t));
            }
            let mut want = k.clone();
            let before = k.fact_count();
            let ok = close_by_full_scans(&p, &mut want);
            assert_eq!(close_egds(&egds, &mut k, since), ok, "{k}");
            if ok {
                assert_eq!(k.to_string(), want.to_string());
                agreed += 1;
                merged += usize::from(k.fact_count() < before || !k.same_facts(&want));
            }
        }
        assert!(agreed > 50 && merged > 10, "{agreed} {merged}");
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
