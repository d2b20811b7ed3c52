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
//! [`for_each_pair_seminaive`] handles a two-atom conjunction of distinct
//! variables (a [`PairShape`], such as the premise of a functional
//! dependency or of the §4 consistency egd) as a join of row pairs probed
//! through the join columns' indexes, in the same match order.
//!
//! Candidate rows are always tried in ascending row-id order, whether they
//! come from an index posting or from a scan, so where [`for_each_hom`]
//! puts a homomorphism in its enumeration follows from the rows it
//! matches. [`scan_order_key`] turns that into a sort key: the delta modes
//! can then find the homomorphism a full scan would have found first.

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

    /// The estimated number of rows of `rel` in this window: the live
    /// count when the window is everything, else the (tombstone-counting)
    /// window size.
    fn size(self, rel: &Relation) -> usize {
        if self.is_all() {
            rel.len()
        } else {
            rel.window_size(self.lo, self.hi)
        }
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
        let mut best = self.window(ai).size(rel);
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
///
/// No trace span is opened here: the semi-naive chase opens `hom.search`
/// around each call, and the witness-chase search, which calls this once
/// per node, opens none.
pub fn for_each_hom_seminaive(
    atoms: &[Atom],
    inst: &Instance,
    partial: &Assignment,
    delta_lo: u64,
    delta_hi: u64,
    mut f: impl FnMut(&Assignment) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let mut windows = vec![EpochWindow::ALL; atoms.len()];
    for pivot in 0..atoms.len() {
        if inst
            .relation(atoms[pivot].rel)
            .window_size(delta_lo, delta_hi)
            == 0
        {
            continue; // this pivot's relation has no delta rows at all
        }
        for (j, w) in windows.iter_mut().enumerate() {
            *w = pivot_window(j, pivot, delta_lo, delta_hi);
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

/// The window of atom `j` when atom `pivot` is the pivot of the delta
/// `[delta_lo, delta_hi)`: strictly before the delta for earlier atoms,
/// the delta itself for the pivot, anything below `delta_hi` after it.
fn pivot_window(j: usize, pivot: usize, delta_lo: u64, delta_hi: u64) -> EpochWindow {
    match j.cmp(&pivot) {
        std::cmp::Ordering::Less => EpochWindow::before(delta_lo),
        std::cmp::Ordering::Equal => EpochWindow {
            lo: delta_lo,
            hi: delta_hi,
        },
        std::cmp::Ordering::Greater => EpochWindow::before(delta_hi),
    }
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

/// A two-atom conjunction whose atoms hold only variables, none repeated
/// inside an atom (a two-atom egd premise: a key, a join across
/// positions, or a join of two relations): a match is a pair of rows that
/// agree at every shared position, so [`for_each_pair_seminaive`] can
/// enumerate matches as row pairs, with no [`Assignment`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PairShape {
    /// The relations of the two atoms.
    pub rels: [RelId; 2],
    /// `(position in atom 0, position in atom 1)` of every shared variable,
    /// in atom 0's position order.
    pub joins: Vec<(u16, u16)>,
}

impl PairShape {
    /// The shape of `atoms`, if it is one.
    pub fn of(atoms: &[Atom]) -> Option<PairShape> {
        let [a, b] = atoms else {
            return None;
        };
        let vars = |atom: &Atom| -> Option<Vec<Var>> {
            let mut vs = Vec::with_capacity(atom.terms.len());
            for t in &atom.terms {
                match t {
                    Term::Var(v) if !vs.contains(v) => vs.push(*v),
                    _ => return None,
                }
            }
            Some(vs)
        };
        let (va, vb) = (vars(a)?, vars(b)?);
        let mut joins = Vec::new();
        for (i, v) in va.iter().enumerate() {
            if let Some(j) = vb.iter().position(|w| w == v) {
                joins.push((u16::try_from(i).ok()?, u16::try_from(j).ok()?));
            }
        }
        Some(PairShape {
            rels: [a.rel, b.rel],
            joins,
        })
    }
}

/// Enumerate the matches `(row of atom 0, row of atom 1)` of a
/// [`PairShape`] that touch the delta `[delta_lo, delta_hi)` — exactly the
/// matches, and in exactly the order, that [`for_each_hom_seminaive`]
/// yields over the shape's atoms, read straight off the join columns'
/// indexes with no [`Assignment`]. `f` may break to stop early.
pub fn for_each_pair_seminaive(
    inst: &Instance,
    shape: &PairShape,
    delta_lo: u64,
    delta_hi: u64,
    mut f: impl FnMut(u32, u32) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let rels = shape.rels.map(|r| inst.relation(r));
    for pivot in 0..2 {
        if rels[pivot].window_size(delta_lo, delta_hi) == 0 {
            continue; // this pivot's relation has no delta rows at all
        }
        let windows = [0, 1].map(|j| pivot_window(j, pivot, delta_lo, delta_hi));
        // `Search::pick` with nothing bound: the atom with the smaller
        // estimated window goes first, a tie to atom 0.
        let outer = usize::from(windows[1].size(rels[1]) < windows[0].size(rels[0]));
        let (here, there, window) = (rels[outer], rels[1 - outer], windows[1 - outer]);
        let mut emit = |r: u32, s: u32| {
            let (r0, r1) = if outer == 0 { (r, s) } else { (s, r) };
            f(r0, r1)
        };
        // `(position in atom outer, position in the other atom)`.
        let sides = |&(p, q): &(u16, u16)| if outer == 0 { (p, q) } else { (q, p) };
        for r in here.row_ids_in_window(windows[outer].lo, windows[outer].hi) {
            // The other atom's candidates, as `Search::step` tries them:
            // through join `k`, one with the fewest live rows (postings
            // stay in row order, so which one only bounds the work), else
            // its whole window.
            let probe = |(k, j)| {
                let (p, q) = sides(j);
                (k, q, here.value_id_at(r, p))
            };
            let best = match shape.joins.as_slice() {
                [] => None,
                // One join: nothing to choose, so no posting is counted.
                [j] => Some(probe((0, j))),
                joins => joins
                    .iter()
                    .enumerate()
                    .map(probe)
                    .min_by_key(|&(k, q, id)| (there.count_with_id(q, id), k)),
            };
            let Some((k, q, id)) = best else {
                for s in there.row_ids_in_window(window.lo, window.hi) {
                    emit(r, s)?;
                }
                continue;
            };
            for s in there.rows_with_id(q, id) {
                // The posting already agrees at join `k`.
                if window.contains(there.epoch_of(s))
                    && shape.joins.iter().enumerate().all(|(i, j)| {
                        let (p, q) = sides(j);
                        i == k || here.value_id_at(r, p) == there.value_id_at(s, q)
                    })
                {
                    emit(r, s)?;
                }
            }
        }
    }
    ControlFlow::Continue(())
}

/// The atom [`for_each_hom`] over `atoms` expands first from the empty
/// assignment (`None` for no atoms).
pub fn first_expanded_atom(atoms: &[Atom], inst: &Instance) -> Option<usize> {
    let search = Search {
        atoms,
        inst,
        windows: None,
        sink: |_: &Assignment| ControlFlow::Continue(()),
    };
    let remaining: Vec<usize> = (0..atoms.len()).collect();
    search.pick(&Assignment::new(), &remaining)
}

/// Where [`for_each_hom`] over `atoms` (from the empty assignment) yields
/// the homomorphism `h`, as a key that orders homomorphisms the way that
/// enumeration does: the ids of the rows `h` matches, first-expanded atom
/// first. With nothing bound, the first atom the search expands is the
/// same for every homomorphism; each atom then walks its candidate rows in
/// ascending row-id order, so comparing keys compares enumeration
/// positions.
///
/// `None` for more than two atoms — there the search breaks ties between
/// equally selective atoms by a work list whose order depends on the
/// branches already explored — and when `h` does not map `atoms` into
/// `inst`.
pub fn scan_order_key(atoms: &[Atom], inst: &Instance, h: &Assignment) -> Option<(u32, u32)> {
    if atoms.len() > 2 {
        return None;
    }
    let Some(first) = first_expanded_atom(atoms, inst) else {
        return Some((0, 0));
    };
    let row = |ai: usize| -> Option<u32> {
        let atom = &atoms[ai];
        let ids: Vec<ValueId> = atom
            .terms
            .iter()
            .map(|t| h.eval(t).map(ValueId::pack))
            .collect::<Option<_>>()?;
        inst.relation(atom.rel).find_ids(&ids)
    };
    let second = match atoms.len() {
        2 => row(1 - first)?,
        _ => 0,
    };
    Some((row(first)?, second))
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

    /// One or two random relations of arity 2–4 over small pools of
    /// constants and nulls, filled across 3–5 epochs with some rows
    /// removed along the way (tombstones and dead index postings), plus a
    /// random two-atom premise of distinct variables over them with 0–2
    /// joins at any positions.
    fn random_pair_premise(seed: u64) -> (Instance, Vec<Atom>) {
        use rand::{Rng, SeedableRng, StdRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let names = if rng.gen_bool(0.5) {
            &["R"][..]
        } else {
            &["R", "S"][..]
        };
        let mut s = Schema::new();
        let rels: Vec<(RelId, u16)> = names
            .iter()
            .map(|n| {
                let arity = rng.gen_range(2u16..=4);
                (s.add_relation(*n, arity, Peer::Target), arity)
            })
            .collect();
        let s = Arc::new(s);
        let pool = rng.gen_range(2u32..=4);
        let mut i = Instance::new(s.clone());
        let mut inserted: Vec<(RelId, Tuple)> = Vec::new();
        for _ in 0..rng.gen_range(3u32..=5) {
            for _ in 0..rng.gen_range(0u32..=12) {
                let (rel, arity) = rels[rng.gen_range(0..rels.len())];
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
                inserted.push((rel, t));
            }
            for _ in 0..rng.gen_range(0u32..=3) {
                if !inserted.is_empty() {
                    let (rel, t) = inserted.swap_remove(rng.gen_range(0..inserted.len()));
                    i.remove(rel, &t);
                }
            }
            i.bump_epoch();
        }
        // Atom 0 over one relation, atom 1 over the other (or the same).
        let first = rng.gen_range(0..rels.len());
        let on = [first, rels.len() - 1 - first].map(|k| (names[k], rels[k].1));
        let mut vars: [Vec<String>; 2] = [0, 1].map(|a| {
            (0..on[a].1)
                .map(|p| format!("{}{p}", ["x", "y"][a]))
                .collect()
        });
        let mut free: [Vec<usize>; 2] = [0, 1].map(|a| (0..usize::from(on[a].1)).collect());
        for _ in 0..rng.gen_range(0..=2usize) {
            let p = free[0].swap_remove(rng.gen_range(0..free[0].len()));
            let q = free[1].swap_remove(rng.gen_range(0..free[1].len()));
            vars[1][q] = vars[0][p].clone();
        }
        let atoms = [0, 1]
            .map(|a| {
                let v: Vec<&str> = vars[a].iter().map(String::as_str).collect();
                Atom::vars(&s, on[a].0, &v)
            })
            .to_vec();
        (i, atoms)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1024))]

        #[test]
        fn pair_pass_replays_the_seminaive_hom_order(
            seed in 0u64..1 << 40,
            window in (0u64..=6, 0u64..=7, 0u8..4),
            limit in 0usize..24,
        ) {
            let (i, premise) = random_pair_premise(seed);
            let shape = PairShape::of(&premise).expect("a premise of distinct variables");
            let (lo, width, open) = window;
            // Random windows, `lo = 0` and an unbounded top included.
            let hi = if open == 0 { u64::MAX } else { lo + width };
            // Both enumerations as row pairs, with the same early break
            // after `limit` pairs (a limit past the end never breaks).
            let row = |a: usize, h: &Assignment| {
                let ids: Vec<ValueId> = premise[a]
                    .terms
                    .iter()
                    .map(|t| ValueId::pack(h.eval(t).unwrap()))
                    .collect();
                i.relation(premise[a].rel).find_ids(&ids).unwrap()
            };
            let mut want = Vec::new();
            let want_flow = for_each_hom_seminaive(&premise, &i, &Assignment::new(), lo, hi, |h| {
                want.push((row(0, h), row(1, h)));
                if want.len() == limit {
                    return ControlFlow::Break(());
                }
                ControlFlow::Continue(())
            });
            let mut got = Vec::new();
            let got_flow = for_each_pair_seminaive(&i, &shape, lo, hi, |r0, r1| {
                got.push((r0, r1));
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
