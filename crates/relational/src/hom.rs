//! Homomorphism search.
//!
//! Two flavours are needed by the paper's algorithms:
//!
//! 1. **Formula → instance**: find assignments of the variables of a
//!    conjunction of atoms to values of an instance such that every ground
//!    conjunct is a fact. This drives chase trigger enumeration, conjunctive
//!    query evaluation, and dependency satisfaction checks.
//! 2. **Instance → instance**: find a constant-preserving map on the nulls
//!    of one instance sending every fact into another instance. This is the
//!    test at the heart of `ExistsSolution` (paper Fig. 3): a homomorphism
//!    from (each block of) `I_can` to `I`.
//!
//! The search is backtracking with two optimizations: *dynamic atom
//! ordering* (always expand the atom with the fewest estimated candidate
//! tuples next, preferring atoms already connected to the bound prefix) and
//! *index-driven candidate enumeration* (scan only the rows sharing a bound
//! value via the per-attribute hash indexes, instead of the whole relation).
//!
//! A third, *semi-naive* entry point ([`for_each_hom_seminaive`]) restricts
//! each atom to an insertion-epoch window so that only homomorphisms
//! touching a delta of recently inserted facts are enumerated — the
//! trigger-discovery mode of the semi-naive chase. Its specialization
//! [`for_each_key_pair_seminaive`] handles the premise of a functional
//! dependency (a [`KeyShape`]) by probing the key columns directly, in
//! the same match order.

use crate::atom::{Atom, Term, Var};
use crate::instance::Instance;
use crate::relation::Relation;
use crate::schema::RelId;
use crate::store::FxBuildHasher;
use crate::value::{NullId, Value, ValueId};
use std::collections::HashMap;
use std::ops::ControlFlow;

/// A (partial) assignment of variables to values.
///
/// Backed by a fast integer-keyed hash map: binding and probing variables
/// is the innermost operation of the search, executed once per candidate
/// row per atom.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Assignment {
    map: HashMap<Var, Value, FxBuildHasher>,
}

impl Assignment {
    /// The empty assignment.
    pub fn new() -> Assignment {
        Assignment::default()
    }

    /// Build from pairs.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (Var, Value)>) -> Assignment {
        Assignment {
            map: pairs.into_iter().collect(),
        }
    }

    /// The value of `v`, if bound.
    pub fn get(&self, v: Var) -> Option<Value> {
        self.map.get(&v).copied()
    }

    /// Bind `v` to `val` (overwrites).
    pub fn bind(&mut self, v: Var, val: Value) {
        self.map.insert(v, val);
    }

    /// Remove the binding of `v`.
    pub fn unbind(&mut self, v: Var) {
        self.map.remove(&v);
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Is nothing bound?
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterate over bindings.
    pub fn iter(&self) -> impl Iterator<Item = (Var, Value)> + '_ {
        self.map.iter().map(|(v, val)| (*v, *val))
    }

    /// Evaluate a term under this assignment.
    pub fn eval(&self, t: &Term) -> Option<Value> {
        match t {
            Term::Const(c) => Some(Value::Const(*c)),
            Term::Var(v) => self.get(*v),
        }
    }
}

impl FromIterator<(Var, Value)> for Assignment {
    fn from_iter<T: IntoIterator<Item = (Var, Value)>>(iter: T) -> Self {
        Assignment::from_pairs(iter)
    }
}

/// A half-open insertion-epoch window `[lo, hi)` constraining which rows an
/// atom may match during a semi-naive search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct EpochWindow {
    lo: u64,
    hi: u64,
}

impl EpochWindow {
    /// No constraint at all.
    const ALL: EpochWindow = EpochWindow {
        lo: 0,
        hi: u64::MAX,
    };

    /// Everything inserted strictly before `hi`.
    fn before(hi: u64) -> EpochWindow {
        EpochWindow { lo: 0, hi }
    }

    fn contains(self, epoch: u64) -> bool {
        self.lo <= epoch && epoch < self.hi
    }

    fn is_all(self) -> bool {
        self == EpochWindow::ALL
    }
}

struct Search<'a, F> {
    atoms: &'a [Atom],
    inst: &'a Instance,
    /// Per-atom epoch windows (parallel to `atoms`); `None` means
    /// unconstrained.
    windows: Option<&'a [EpochWindow]>,
    sink: F,
}

impl<F: FnMut(&Assignment) -> ControlFlow<()>> Search<'_, F> {
    fn run(&mut self, assign: &mut Assignment) -> ControlFlow<()> {
        let mut remaining: Vec<usize> = (0..self.atoms.len()).collect();
        self.step(assign, &mut remaining)
    }

    fn window(&self, atom_idx: usize) -> EpochWindow {
        self.windows.map_or(EpochWindow::ALL, |w| w[atom_idx])
    }

    /// Estimated number of candidate rows for atom `ai` under `assign`:
    /// the count at the most selective bound position, or the (window)
    /// relation size when nothing is bound.
    fn estimate(&self, ai: usize, assign: &Assignment) -> usize {
        let atom = &self.atoms[ai];
        let rel = self.inst.relation(atom.rel);
        let w = self.window(ai);
        let mut best = if w.is_all() {
            rel.len()
        } else {
            rel.window_size(w.lo, w.hi)
        };
        for (i, t) in atom.terms.iter().enumerate() {
            if let Some(v) = assign.eval(t) {
                let attr = u16::try_from(i).expect("attribute index exceeds u16 arity bound");
                best = best.min(rel.count_with_id(attr, ValueId::pack(v)));
            }
        }
        best
    }

    fn step(&mut self, assign: &mut Assignment, remaining: &mut Vec<usize>) -> ControlFlow<()> {
        let Some(slot) = self.pick(assign, remaining) else {
            return (self.sink)(assign);
        };
        let atom_idx = remaining.swap_remove(slot);
        // Clone the (small) atom so its borrow does not overlap the
        // recursive `&mut self` call below. The relation reference is
        // copied out of `self.inst` at the instance lifetime, so the
        // candidate iterators below never borrow `self` — candidates are
        // probed in place as packed ids, with no tuple materialization.
        let atom = self.atoms[atom_idx].clone();
        let rel: &Relation = self.inst.relation(atom.rel);
        let w = self.window(atom_idx);

        // Candidate rows: via the best bound-position index, or a scan of
        // the (windowed) live row ids.
        let mut anchor: Option<(u16, ValueId, usize)> = None;
        for (i, t) in atom.terms.iter().enumerate() {
            if let Some(v) = assign.eval(t) {
                let attr = u16::try_from(i).expect("attribute index exceeds u16 arity bound");
                let id = ValueId::pack(v);
                let c = rel.count_with_id(attr, id);
                if anchor.as_ref().is_none_or(|(_, _, best)| c < *best) {
                    anchor = Some((attr, id, c));
                }
            }
        }
        match anchor {
            Some((attr, id, _)) => {
                let rows = rel
                    .rows_with_id(attr, id)
                    .filter(|r| w.contains(rel.epoch_of(*r)));
                self.expand(rel, &atom, atom_idx, rows, assign, remaining)
            }
            None if w.is_all() => {
                let rows = rel.live_row_ids();
                self.expand(rel, &atom, atom_idx, rows, assign, remaining)
            }
            None => {
                let rows = rel.row_ids_in_window(w.lo, w.hi);
                self.expand(rel, &atom, atom_idx, rows, assign, remaining)
            }
        }
    }

    /// Try every candidate row of `atom`: match its packed column values
    /// against the terms (constants and bound variables compare as ids in
    /// O(1); free variables bind), then recurse into the remaining atoms.
    fn expand(
        &mut self,
        rel: &Relation,
        atom: &Atom,
        atom_idx: usize,
        rows: impl Iterator<Item = u32>,
        assign: &mut Assignment,
        remaining: &mut Vec<usize>,
    ) -> ControlFlow<()> {
        for r in rows {
            let mut bound_here: Vec<Var> = Vec::new();
            let mut ok = true;
            for (i, term) in atom.terms.iter().enumerate() {
                let attr = u16::try_from(i).expect("attribute index exceeds u16 arity bound");
                let tv = rel.value_id_at(r, attr);
                match term {
                    Term::Const(c) => {
                        if ValueId::pack(Value::Const(*c)) != tv {
                            ok = false;
                            break;
                        }
                    }
                    Term::Var(v) => match assign.get(*v) {
                        Some(bound) => {
                            if ValueId::pack(bound) != tv {
                                ok = false;
                                break;
                            }
                        }
                        None => {
                            assign.bind(*v, tv.value());
                            bound_here.push(*v);
                        }
                    },
                }
            }
            if ok {
                if let ControlFlow::Break(()) = self.step(assign, remaining) {
                    for v in bound_here {
                        assign.unbind(v);
                    }
                    remaining.push(atom_idx);
                    return ControlFlow::Break(());
                }
            }
            for v in bound_here {
                assign.unbind(v);
            }
        }
        remaining.push(atom_idx);
        ControlFlow::Continue(())
    }

    /// Index *into `remaining`* of the atom to expand next: the most
    /// selective atom among those *connected* to the current assignment
    /// (sharing a bound variable or carrying a constant). Disconnected
    /// atoms are deferred — however small their relation, expanding one
    /// forks the search into a cartesian product with the bound prefix,
    /// which the per-atom estimate alone cannot see.
    fn pick(&self, assign: &Assignment, remaining: &[usize]) -> Option<usize> {
        if remaining.is_empty() {
            return None;
        }
        let mut best = 0usize;
        let mut best_key = (true, usize::MAX);
        for (slot, &ai) in remaining.iter().enumerate() {
            let est = self.estimate(ai, assign);
            let connected = self.atoms[ai]
                .terms
                .iter()
                .any(|t| assign.eval(t).is_some());
            let key = (!connected, est);
            if key < best_key {
                best_key = key;
                best = slot;
            }
        }
        Some(best)
    }
}

/// Enumerate every homomorphism extending `partial` from `atoms` into
/// `inst`, invoking `f` on each. `f` may break to stop early.
pub fn for_each_hom(
    atoms: &[Atom],
    inst: &Instance,
    partial: &Assignment,
    f: impl FnMut(&Assignment) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let mut search = Search {
        atoms,
        inst,
        windows: None,
        sink: f,
    };
    let mut assign = partial.clone();
    search.run(&mut assign)
}

/// Enumerate every homomorphism extending `partial` from `atoms` into
/// `inst` that matches *at least one* atom against a fact whose insertion
/// epoch lies in `[delta_lo, delta_hi)` — the semi-naive delta mode. Facts
/// stamped `>= delta_hi` are invisible (the search sees the instance as of
/// `delta_hi`), so enumeration during a chase round is unaffected by that
/// round's own insertions.
///
/// Each qualifying homomorphism is produced exactly once via the standard
/// pivot decomposition: for each pivot position `p`, atom `p` matches
/// inside the delta, atoms before `p` match strictly before it, and atoms
/// after `p` match anywhere below `delta_hi` — so a homomorphism is found
/// for exactly one pivot, the first atom it matches against the delta.
///
/// An empty conjunction yields nothing: its empty homomorphism touches no
/// delta fact (callers wanting the seed-round semantics of the empty hom
/// use [`for_each_hom`] directly).
pub fn for_each_hom_seminaive(
    atoms: &[Atom],
    inst: &Instance,
    partial: &Assignment,
    delta_lo: u64,
    delta_hi: u64,
    mut f: impl FnMut(&Assignment) -> ControlFlow<()>,
) -> ControlFlow<()> {
    // Trigger-discovery instrumentation point: one span per (dependency,
    // round) call, covering the whole pivot sweep.
    let _span = pde_trace::span("hom.search")
        .field("kind", "seminaive")
        .field("atoms", atoms.len())
        .field("delta_lo", delta_lo)
        .field("delta_hi", delta_hi);
    let mut windows = vec![EpochWindow::before(delta_hi); atoms.len()];
    for pivot in 0..atoms.len() {
        if inst
            .relation(atoms[pivot].rel)
            .window_size(delta_lo, delta_hi)
            == 0
        {
            continue; // this pivot's relation has no delta rows at all
        }
        for (j, w) in windows.iter_mut().enumerate() {
            *w = match j.cmp(&pivot) {
                std::cmp::Ordering::Less => EpochWindow::before(delta_lo),
                std::cmp::Ordering::Equal => EpochWindow {
                    lo: delta_lo,
                    hi: delta_hi,
                },
                std::cmp::Ordering::Greater => EpochWindow::before(delta_hi),
            };
        }
        let mut search = Search {
            atoms,
            inst,
            windows: Some(&windows),
            sink: &mut f,
        };
        let mut assign = partial.clone();
        search.run(&mut assign)?;
    }
    ControlFlow::Continue(())
}

/// The premise shape of an egd that is a functional dependency
/// `rel: key → equated`: two atoms over `rel`, all terms distinct
/// variables within each atom, sharing exactly the variables at the `key`
/// positions, and equating the two copies of position `equated`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeyShape {
    /// The relation both premise atoms range over.
    pub rel: RelId,
    /// The key positions, ascending and non-empty.
    pub key: Vec<u16>,
    /// The non-key position whose two copies the egd equates.
    pub equated: u16,
    /// Does the first premise atom carry the egd's `lhs` (otherwise the
    /// second one does)?
    pub lhs_in_first: bool,
}

/// Enumerate the `(h(lhs), h(rhs))` value pairs of the premise
/// homomorphisms `h` of a key-shaped egd over `rel` that touch the delta
/// `[delta_lo, delta_hi)` — exactly the pairs, and in exactly the order,
/// that [`for_each_hom_seminaive`] yields over the egd's premise, but read
/// straight off the key columns' indexes with no [`Assignment`] and no
/// per-pair allocation. `f` may break to stop early.
pub fn for_each_key_pair_seminaive(
    rel: &Relation,
    shape: &KeyShape,
    delta_lo: u64,
    delta_hi: u64,
    mut f: impl FnMut(Value, Value) -> ControlFlow<()>,
) -> ControlFlow<()> {
    if rel.window_size(delta_lo, delta_hi) == 0 {
        return ControlFlow::Continue(());
    }
    let delta = EpochWindow {
        lo: delta_lo,
        hi: delta_hi,
    };
    let estimate = |w: EpochWindow| {
        if w.is_all() {
            rel.len()
        } else {
            rel.window_size(w.lo, w.hi)
        }
    };
    // The two pivots of `for_each_hom_seminaive`, in the same order.
    for windows in [
        [delta, EpochWindow::before(delta_hi)],
        [EpochWindow::before(delta_lo), delta],
    ] {
        // `Search::pick` with nothing bound: the atom with the smaller
        // estimated window goes first, a tie to the first atom.
        let outer = usize::from(estimate(windows[1]) < estimate(windows[0]));
        let (w, inner) = (windows[outer], windows[1 - outer]);
        if w.is_all() {
            key_pairs_from(rel, shape, rel.live_row_ids(), outer, inner, &mut f)?;
        } else {
            let rows = rel.row_ids_in_window(w.lo, w.hi);
            key_pairs_from(rel, shape, rows, outer, inner, &mut f)?;
        }
    }
    ControlFlow::Continue(())
}

/// One pivot of [`for_each_key_pair_seminaive`]: premise atom `outer`
/// walks `rows`, and the other atom is matched as `Search::step` would —
/// through the index of the key position with the fewest live rows (a tie
/// to the earliest position), restricted to `inner_window`. Index
/// postings stay in row order, so every key position would yield the same
/// rows in the same order; the choice only bounds the work.
fn key_pairs_from(
    rel: &Relation,
    shape: &KeyShape,
    rows: impl Iterator<Item = u32>,
    outer: usize,
    inner_window: EpochWindow,
    f: &mut impl FnMut(Value, Value) -> ControlFlow<()>,
) -> ControlFlow<()> {
    for r in rows {
        let (_, attr) = shape
            .key
            .iter()
            .map(|&k| (rel.count_with_id(k, rel.value_id_at(r, k)), k))
            .min()
            .expect("a key shape has a non-empty key");
        let here = rel.value_id_at(r, shape.equated).value();
        for s in rel.rows_with_id(attr, rel.value_id_at(r, attr)) {
            if !inner_window.contains(rel.epoch_of(s))
                || shape
                    .key
                    .iter()
                    .any(|&k| rel.value_id_at(s, k) != rel.value_id_at(r, k))
            {
                continue;
            }
            let there = rel.value_id_at(s, shape.equated).value();
            // `here` belongs to premise atom `outer`, `there` to the other.
            let (l, rhs) = if shape.lhs_in_first == (outer == 0) {
                (here, there)
            } else {
                (there, here)
            };
            f(l, rhs)?;
        }
    }
    ControlFlow::Continue(())
}

/// Is there a homomorphism extending `partial`?
pub fn exists_hom(atoms: &[Atom], inst: &Instance, partial: &Assignment) -> bool {
    for_each_hom(atoms, inst, partial, |_| ControlFlow::Break(())).is_break()
}

/// The first homomorphism extending `partial`, if any.
pub fn find_hom(atoms: &[Atom], inst: &Instance, partial: &Assignment) -> Option<Assignment> {
    let mut found = None;
    let _ = for_each_hom(atoms, inst, partial, |a| {
        found = Some(a.clone());
        ControlFlow::Break(())
    });
    found
}

/// All homomorphisms extending `partial` (use only when the count is known
/// to be manageable; prefer [`for_each_hom`] otherwise).
pub fn all_homs(atoms: &[Atom], inst: &Instance, partial: &Assignment) -> Vec<Assignment> {
    let mut out = Vec::new();
    let _ = for_each_hom(atoms, inst, partial, |a| {
        out.push(a.clone());
        ControlFlow::Continue(())
    });
    out
}

/// Internal variable namespace for nulls when casting an instance to a
/// conjunction. The prefix cannot collide with parsed variable names because
/// the parser rejects identifiers starting with `__pde`.
fn null_var(n: NullId) -> Var {
    Var::new(format!("__pde_null_{}", n.0))
}

/// Cast the facts of `from` into a conjunction: constants stay constants,
/// each null becomes a (shared) variable. A homomorphism of this conjunction
/// into `to` is exactly a constant-preserving map `from → to`.
pub fn instance_as_atoms(from: &Instance) -> Vec<Atom> {
    from.facts()
        .map(|(rel, t)| Atom {
            rel,
            terms: t
                .values()
                .iter()
                .map(|v| match v {
                    Value::Const(c) => Term::Const(*c),
                    Value::Null(n) => Term::Var(null_var(*n)),
                })
                .collect(),
        })
        .collect()
}

/// Find a constant-preserving homomorphism from `from` to `to`, returned as
/// a map on the nulls of `from`. Constants of `from` must appear verbatim in
/// `to` wherever required; nulls may map to any value.
pub fn instance_hom(from: &Instance, to: &Instance) -> Option<HashMap<NullId, Value>> {
    // Block-level hom searches (Prop. 1) route through here; the span
    // gives `--profile` the cost of whole-instance mapping separately
    // from delta trigger discovery.
    let _span = pde_trace::span("hom.search")
        .field("kind", "instance")
        .field("facts", from.fact_count());
    let atoms = instance_as_atoms(from);
    let mut found = None;
    let _ = for_each_hom(&atoms, to, &Assignment::new(), |a| {
        found = Some(a.clone());
        ControlFlow::Break(())
    });
    let assign = found?;
    Some(
        from.nulls()
            .into_iter()
            .map(|n| {
                let v = assign
                    .get(null_var(n))
                    .expect("every null occurs in some atom");
                (n, v)
            })
            .collect(),
    )
}

/// Does a constant-preserving homomorphism `from → to` exist?
pub fn instance_hom_exists(from: &Instance, to: &Instance) -> bool {
    let atoms = instance_as_atoms(from);
    exists_hom(&atoms, to, &Assignment::new())
}

/// Are the two instances isomorphic: equal up to a renaming (bijection) of
/// their labeled nulls? Ground instances are isomorphic iff they hold the
/// same facts.
pub fn instances_isomorphic(a: &Instance, b: &Instance) -> bool {
    if a.fact_count() != b.fact_count() {
        return false;
    }
    let a_nulls = a.nulls();
    let b_nulls = b.nulls();
    if a_nulls.len() != b_nulls.len() {
        return false;
    }
    if a_nulls.is_empty() {
        return a.same_facts(b);
    }
    // Search for a null-bijective homomorphism a → b whose image is all of
    // b. Since fact counts match and the map is injective on nulls (and
    // the identity on constants), image = b suffices for isomorphism.
    let atoms = instance_as_atoms(a);
    let mut found = false;
    let _ = for_each_hom(&atoms, b, &Assignment::new(), |h| {
        // Injective on nulls, mapping nulls to nulls?
        let mut images = std::collections::HashSet::new();
        let injective_on_nulls = a_nulls.iter().all(|n| match h.get(null_var(*n)) {
            Some(Value::Null(m)) => images.insert(m),
            _ => false,
        });
        if !injective_on_nulls {
            return ControlFlow::Continue(());
        }
        let img = a.map_values(|v| match v {
            Value::Null(n) => h.get(null_var(n)).expect("null bound"),
            c => c,
        });
        if img.same_facts(b) {
            found = true;
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Peer, Schema};
    use crate::tuple::Tuple;
    use std::sync::Arc;

    fn path_instance(edges: &[(&str, &str)]) -> (Arc<Schema>, Instance) {
        let mut s = Schema::new();
        s.add_relation("E", 2, Peer::Source);
        let s = Arc::new(s);
        let mut i = Instance::new(s.clone());
        for (a, b) in edges {
            i.insert_consts("E", [*a, *b]);
        }
        (s, i)
    }

    #[test]
    fn finds_path_of_length_two() {
        let (s, i) = path_instance(&[("a", "b"), ("b", "c")]);
        let atoms = vec![
            Atom::vars(&s, "E", &["x", "y"]),
            Atom::vars(&s, "E", &["y", "z"]),
        ];
        let h = find_hom(&atoms, &i, &Assignment::new()).unwrap();
        assert_eq!(h.get(Var::new("x")), Some(Value::constant("a")));
        assert_eq!(h.get(Var::new("y")), Some(Value::constant("b")));
        assert_eq!(h.get(Var::new("z")), Some(Value::constant("c")));
    }

    #[test]
    fn no_hom_when_pattern_absent() {
        let (s, i) = path_instance(&[("a", "b"), ("c", "d")]);
        let atoms = vec![
            Atom::vars(&s, "E", &["x", "y"]),
            Atom::vars(&s, "E", &["y", "z"]),
        ];
        assert!(!exists_hom(&atoms, &i, &Assignment::new()));
    }

    #[test]
    fn repeated_variable_forces_equal_values() {
        let (s, i) = path_instance(&[("a", "b"), ("c", "c")]);
        let atoms = vec![Atom::vars(&s, "E", &["x", "x"])];
        let homs = all_homs(&atoms, &i, &Assignment::new());
        assert_eq!(homs.len(), 1);
        assert_eq!(homs[0].get(Var::new("x")), Some(Value::constant("c")));
    }

    #[test]
    fn partial_assignment_restricts_search() {
        let (s, i) = path_instance(&[("a", "b"), ("a", "c")]);
        let atoms = vec![Atom::vars(&s, "E", &["x", "y"])];
        let partial = Assignment::from_pairs([(Var::new("y"), Value::constant("c"))]);
        let homs = all_homs(&atoms, &i, &partial);
        assert_eq!(homs.len(), 1);
        assert_eq!(homs[0].get(Var::new("x")), Some(Value::constant("a")));
    }

    #[test]
    fn constants_in_atoms_must_match() {
        let (s, i) = path_instance(&[("a", "b")]);
        let e = s.rel_id("E").unwrap();
        let atom_ok = Atom::new(
            &s,
            e,
            vec![
                Term::Const(crate::symbol::Symbol::intern("a")),
                Term::Var(Var::new("y")),
            ],
        );
        let atom_bad = Atom::new(
            &s,
            e,
            vec![
                Term::Const(crate::symbol::Symbol::intern("zz")),
                Term::Var(Var::new("y")),
            ],
        );
        assert!(exists_hom(
            std::slice::from_ref(&atom_ok),
            &i,
            &Assignment::new()
        ));
        assert!(!exists_hom(
            std::slice::from_ref(&atom_bad),
            &i,
            &Assignment::new()
        ));
    }

    #[test]
    fn all_homs_counts_matches() {
        let (s, i) = path_instance(&[("a", "b"), ("b", "c"), ("c", "d")]);
        let atoms = vec![
            Atom::vars(&s, "E", &["x", "y"]),
            Atom::vars(&s, "E", &["y", "z"]),
        ];
        // paths of length 2: a-b-c, b-c-d
        assert_eq!(all_homs(&atoms, &i, &Assignment::new()).len(), 2);
    }

    #[test]
    fn two_cycle_pattern_finds_both_orientations() {
        let (s, i) = path_instance(&[("a", "b"), ("b", "c"), ("c", "a"), ("b", "a")]);
        let atoms = vec![
            Atom::vars(&s, "E", &["x", "y"]),
            Atom::vars(&s, "E", &["y", "x"]),
        ];
        // (a,b)-(b,a) and (b,a)-(a,b)
        assert_eq!(all_homs(&atoms, &i, &Assignment::new()).len(), 2);
    }

    #[test]
    fn instance_hom_maps_nulls() {
        let (s, ground) = path_instance(&[("a", "b"), ("b", "a")]);
        let mut pat = Instance::new(s.clone());
        let e = s.rel_id("E").unwrap();
        let n0 = Value::Null(NullId(0));
        let n1 = Value::Null(NullId(1));
        pat.insert(e, Tuple::new(vec![n0, n1]));
        pat.insert(e, Tuple::new(vec![n1, n0]));
        let h = instance_hom(&pat, &ground).unwrap();
        assert_eq!(h.len(), 2);
        // The map must send the 2-cycle onto the 2-cycle.
        let img0 = h[&NullId(0)];
        let img1 = h[&NullId(1)];
        assert!(ground.contains(e, &Tuple::new(vec![img0, img1])));
        assert!(ground.contains(e, &Tuple::new(vec![img1, img0])));
    }

    #[test]
    fn instance_hom_preserves_constants() {
        let (s, ground) = path_instance(&[("a", "b")]);
        let mut pat = Instance::new(s.clone());
        let e = s.rel_id("E").unwrap();
        pat.insert(e, Tuple::consts(["b", "a"]));
        assert!(!instance_hom_exists(&pat, &ground));
        let mut pat2 = Instance::new(s.clone());
        pat2.insert(e, Tuple::consts(["a", "b"]));
        assert!(instance_hom_exists(&pat2, &ground));
    }

    #[test]
    fn isomorphism_detects_null_renamings() {
        let (s, _) = path_instance(&[]);
        let a = crate::parser::parse_instance(&s, "E(?0, a). E(?0, ?1).").unwrap();
        let b = crate::parser::parse_instance(&s, "E(?7, a). E(?7, ?3).").unwrap();
        let c = crate::parser::parse_instance(&s, "E(?7, a). E(?3, ?3).").unwrap();
        assert!(instances_isomorphic(&a, &b));
        assert!(!instances_isomorphic(&a, &c));
        assert!(instances_isomorphic(&a, &a));
    }

    #[test]
    fn isomorphism_on_ground_instances_is_equality() {
        let (_, x) = path_instance(&[("a", "b")]);
        let (_, y) = path_instance(&[("a", "b")]);
        let (_, z) = path_instance(&[("b", "a")]);
        assert!(instances_isomorphic(&x, &y));
        assert!(!instances_isomorphic(&x, &z));
    }

    #[test]
    fn isomorphism_rejects_non_bijective_foldings() {
        let (s, _) = path_instance(&[]);
        // a has two distinct nulls; b collapses them: hom exists a→b, but
        // no bijection.
        let a = crate::parser::parse_instance(&s, "E(?0, x). E(?1, x).").unwrap();
        let b = crate::parser::parse_instance(&s, "E(?5, x).").unwrap();
        assert!(instance_hom_exists(&a, &b));
        assert!(!instances_isomorphic(&a, &b));
    }

    #[test]
    fn empty_conjunction_has_the_empty_hom() {
        let (_, i) = path_instance(&[]);
        let homs = all_homs(&[], &i, &Assignment::new());
        assert_eq!(homs.len(), 1);
        assert!(homs[0].is_empty());
    }

    fn count_seminaive(atoms: &[Atom], i: &Instance, lo: u64, hi: u64) -> usize {
        let mut n = 0usize;
        let _ = for_each_hom_seminaive(atoms, i, &Assignment::new(), lo, hi, |_| {
            n += 1;
            ControlFlow::Continue(())
        });
        n
    }

    #[test]
    fn seminaive_mode_partitions_homs_by_pivot_epoch() {
        let (s, mut i) = path_instance(&[("a", "b"), ("b", "c")]);
        let e1 = i.bump_epoch();
        i.insert_consts("E", ["c", "d"]);
        i.insert_consts("E", ["d", "d"]); // self-loop: both atoms hit one delta fact
        let e2 = i.bump_epoch();
        let atoms = vec![
            Atom::vars(&s, "E", &["x", "y"]),
            Atom::vars(&s, "E", &["y", "z"]),
        ];
        // All homs: a-b-c, b-c-d, c-d-d, d-d-d.
        assert_eq!(all_homs(&atoms, &i, &Assignment::new()).len(), 4);
        // Old-only window reproduces the epoch-0 homs.
        assert_eq!(count_seminaive(&atoms, &i, 0, e1), 1);
        // Delta window: exactly the homs touching an epoch-1 fact, each
        // once — including d-d-d, where both atoms match the same delta row.
        assert_eq!(count_seminaive(&atoms, &i, e1, e2), 3);
        // The two windows partition the full enumeration.
        assert_eq!(count_seminaive(&atoms, &i, 0, e2), 4);
        // Facts at or above the high bound are invisible.
        assert_eq!(count_seminaive(&atoms, &i, e2, u64::MAX), 0);
    }

    /// A random relation `R` of arity 2–4 over small pools of constants
    /// and nulls, filled across 3–5 epochs with some rows removed along
    /// the way (tombstones and dead index postings), plus a random key
    /// shape over it and the egd premise atoms `(premise, lhs, rhs)` it
    /// describes.
    fn random_keyed_relation(seed: u64) -> (Instance, KeyShape, Vec<Atom>, Var, Var) {
        use rand::{Rng, SeedableRng, StdRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let arity = rng.gen_range(2u16..=4);
        let mut s = Schema::new();
        let rel = s.add_relation("R", arity, Peer::Target);
        let s = Arc::new(s);
        let pool = rng.gen_range(2u32..=4);
        let mut i = Instance::new(s.clone());
        let mut inserted: Vec<Tuple> = Vec::new();
        for _ in 0..rng.gen_range(3u32..=5) {
            for _ in 0..rng.gen_range(0u32..=12) {
                let t = Tuple::new(
                    (0..arity)
                        .map(|_| {
                            let v = rng.gen_range(0..pool);
                            if rng.gen_bool(0.3) {
                                Value::Null(NullId(v))
                            } else {
                                Value::constant(format!("c{v}").as_str())
                            }
                        })
                        .collect::<Vec<_>>(),
                );
                i.insert(rel, t.clone());
                inserted.push(t);
            }
            for _ in 0..rng.gen_range(0u32..=3) {
                if !inserted.is_empty() {
                    let t = inserted.swap_remove(rng.gen_range(0..inserted.len()));
                    i.remove(rel, &t);
                }
            }
            i.bump_epoch();
        }
        let mut key: Vec<u16> = Vec::new();
        for _ in 0..rng.gen_range(1..=2.min(arity - 1)) {
            let free: Vec<u16> = (0..arity).filter(|p| !key.contains(p)).collect();
            key.push(free[rng.gen_range(0..free.len())]);
        }
        key.sort_unstable();
        let non_key: Vec<u16> = (0..arity).filter(|p| !key.contains(p)).collect();
        let equated = non_key[rng.gen_range(0..non_key.len())];
        let atom = |copy: &str| {
            let names: Vec<String> = (0..arity)
                .map(|p| {
                    if key.contains(&p) {
                        format!("k{p}")
                    } else {
                        format!("{copy}{p}")
                    }
                })
                .collect();
            let names: Vec<&str> = names.iter().map(String::as_str).collect();
            Atom::vars(&s, "R", &names)
        };
        let mut premise = vec![atom("a"), atom("b")];
        if rng.gen_bool(0.5) {
            premise.swap(0, 1);
        }
        let lhs_in_first = rng.gen_bool(0.5);
        let var_at = |a: &Atom| match a.terms[equated as usize] {
            Term::Var(v) => v,
            Term::Const(_) => unreachable!("premise atoms hold only variables"),
        };
        let (first, second) = (var_at(&premise[0]), var_at(&premise[1]));
        let (lhs, rhs) = if lhs_in_first {
            (first, second)
        } else {
            (second, first)
        };
        let shape = KeyShape {
            rel,
            key,
            equated,
            lhs_in_first,
        };
        (i, shape, premise, lhs, rhs)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1024))]

        #[test]
        fn key_pair_pass_replays_the_seminaive_hom_order(
            seed in 0u64..1 << 40,
            window in (0u64..=6, 0u64..=7, 0u8..4),
            limit in 0usize..24,
        ) {
            let (i, shape, premise, lhs, rhs) = random_keyed_relation(seed);
            let (lo, width, open) = window;
            // Random windows, `lo = 0` and an unbounded top included.
            let hi = if open == 0 { u64::MAX } else { lo + width };
            // Both enumerations with the same early break after `limit`
            // pairs (a limit past the end never breaks).
            let mut want = Vec::new();
            let want_flow = for_each_hom_seminaive(&premise, &i, &Assignment::new(), lo, hi, |h| {
                want.push((h.get(lhs).unwrap(), h.get(rhs).unwrap()));
                if want.len() == limit {
                    return ControlFlow::Break(());
                }
                ControlFlow::Continue(())
            });
            let mut got = Vec::new();
            let got_flow =
                for_each_key_pair_seminaive(i.relation(shape.rel), &shape, lo, hi, |l, r| {
                    got.push((l, r));
                    if got.len() == limit {
                        return ControlFlow::Break(());
                    }
                    ControlFlow::Continue(())
                });
            proptest::prop_assert_eq!(&got, &want, "{:?} window [{}, {})", shape, lo, hi);
            proptest::prop_assert_eq!(got_flow, want_flow);
        }
    }

    #[test]
    fn seminaive_mode_ignores_the_empty_conjunction() {
        let (_, i) = path_instance(&[("a", "b")]);
        assert_eq!(count_seminaive(&[], &i, 0, u64::MAX), 0);
    }

    #[test]
    fn seminaive_mode_finds_the_paths_through_a_delta_edge() {
        let (s, mut i) = path_instance(&[("a", "b"), ("b", "c"), ("b", "a")]);
        let e1 = i.bump_epoch();
        i.insert_consts("E", ["c", "a"]);
        let e2 = i.bump_epoch();
        let atoms = vec![
            Atom::vars(&s, "E", &["x", "y"]),
            Atom::vars(&s, "E", &["y", "z"]),
        ];
        // b-c-a and c-a-b touch the delta edge c-a
        assert_eq!(count_seminaive(&atoms, &i, e1, e2), 2);
    }

    #[test]
    fn ordering_prefers_connected_atoms_over_small_disconnected_ones() {
        // A tiny disconnected relation next to a selective connected one:
        // the search must still find the right answers (this guards the
        // lexicographic pick).
        let mut s = Schema::new();
        s.add_relation("E", 2, Peer::Source);
        s.add_relation("T", 1, Peer::Source);
        let s = Arc::new(s);
        let mut i = Instance::new(s.clone());
        for k in 0..20 {
            i.insert_consts("E", [format!("v{k}"), format!("v{}", k + 1)]);
        }
        i.insert_consts("T", ["t0"]);
        i.insert_consts("T", ["t1"]);
        let atoms = vec![
            Atom::vars(&s, "E", &["x", "y"]),
            Atom::vars(&s, "E", &["y", "z"]),
            Atom::vars(&s, "T", &["u"]),
        ];
        // 19 length-2 paths × 2 T-values
        assert_eq!(all_homs(&atoms, &i, &Assignment::new()).len(), 19 * 2);
    }
}
