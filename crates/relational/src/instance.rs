//! Instances over a schema, including the pair instance `(I, J)`.
//!
//! An [`Instance`] stores one [`Relation`] per relation symbol of its
//! [`Schema`]. Because a peer data exchange schema tags every relation with
//! its [`Peer`], the pair `(I, J)` of the paper is a *single* instance here;
//! helpers expose per-peer views (restriction, containment, active domain).

use crate::relation::Relation;
use crate::schema::{Peer, RelId, Schema};
use crate::symbol::Symbol;
use crate::tuple::Tuple;
use crate::unionfind::ValueUnionFind;
use crate::value::{NullId, Value, ValueId};
use std::collections::BTreeSet;
use std::fmt;
use std::ops::ControlFlow;
use std::sync::Arc;

/// A database instance over a fixed schema.
///
/// The instance owns a monotone *epoch counter*: every inserted fact is
/// stamped with the current epoch, and [`Instance::bump_epoch`] opens a new
/// one. The semi-naive chase bumps the epoch once per round and asks each
/// relation for its rows in the window between two epochs — the delta.
///
/// [`Instance::savepoint`] and [`Instance::rollback`] undo every change
/// made in between (inserts, removals, substitutions, merges and epoch
/// bumps) without copying the instance. A clone starts with no open
/// savepoints.
pub struct Instance {
    schema: Arc<Schema>,
    relations: Vec<Relation>,
    epoch: u64,
    /// Number of open savepoints.
    open: usize,
}

/// An open savepoint of an [`Instance`], consumed by
/// [`Instance::rollback`].
#[derive(Debug)]
#[must_use = "a savepoint holds compaction off until it is rolled back"]
pub struct Savepoint {
    depth: usize,
    epoch: u64,
}

impl Clone for Instance {
    fn clone(&self) -> Self {
        Instance {
            schema: self.schema.clone(),
            relations: self.relations.clone(),
            epoch: self.epoch,
            open: 0,
        }
    }
}

impl Instance {
    /// An empty instance over `schema`.
    pub fn new(schema: Arc<Schema>) -> Instance {
        let relations = schema
            .rel_ids()
            .map(|id| Relation::new(schema.arity(id)))
            .collect();
        Instance {
            schema,
            relations,
            epoch: 0,
            open: 0,
        }
    }

    /// Open a savepoint. Until it is rolled back, relations hold off
    /// compaction and log what they need to undo their changes; a relation
    /// is marked on its first change, so untouched relations cost nothing.
    /// Savepoints nest, and must be rolled back newest first.
    pub fn savepoint(&mut self) -> Savepoint {
        self.open += 1;
        Savepoint {
            depth: self.open,
            epoch: self.epoch,
        }
    }

    /// Undo every change made since `sp` was opened, closing it and any
    /// savepoint opened after it. Slots appended since are truncated and
    /// rows removed since are revived in place, so live rows come back in
    /// the same order with the same index postings, and `len`,
    /// [`Instance::heap_bytes`] and the epoch counter return to their
    /// values at the savepoint.
    ///
    /// # Panics
    /// Panics if `sp` was already closed by rolling back an older one.
    // By value on purpose: a savepoint is rolled back at most once.
    #[allow(clippy::needless_pass_by_value)]
    pub fn rollback(&mut self, sp: Savepoint) {
        assert!(sp.depth <= self.open, "savepoint already rolled back");
        for r in &mut self.relations {
            r.rollback(sp.depth);
        }
        self.open = sp.depth - 1;
        self.epoch = sp.epoch;
    }

    /// Relation `rel`, marked for the newest open savepoint before it is
    /// changed.
    fn relation_mut(&mut self, rel: RelId) -> &mut Relation {
        let r = &mut self.relations[rel.index()];
        if self.open > 0 {
            r.savepoint(self.open);
        }
        r
    }

    /// The instance's schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The epoch newly inserted facts are currently stamped with.
    pub fn current_epoch(&self) -> u64 {
        self.epoch
    }

    /// Open a new insertion epoch and return it: facts inserted from now on
    /// are distinguishable (as a delta) from everything inserted before.
    pub fn bump_epoch(&mut self) -> u64 {
        self.epoch += 1;
        self.epoch
    }

    /// Raise the insertion-epoch counter to `epoch` (never lowers it —
    /// per-row stamps must stay monotone). Used by the durable store's
    /// journal replay, which re-stamps recovered facts with the epoch they
    /// were originally committed under.
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = self.epoch.max(epoch);
    }

    /// Insert a fact `R(t)` stamped with the current epoch; returns `true`
    /// if new.
    pub fn insert(&mut self, rel: RelId, t: Tuple) -> bool {
        let epoch = self.epoch;
        self.relation_mut(rel).insert_at(t, epoch)
    }

    /// Insert a fact given the relation name and constant strings
    /// (fixture convenience).
    ///
    /// # Panics
    /// Panics if the relation is unknown.
    pub fn insert_consts<S: AsRef<str>>(
        &mut self,
        rel: &str,
        values: impl IntoIterator<Item = S>,
    ) -> bool {
        let id = self
            .schema
            .rel_id(rel)
            .unwrap_or_else(|| panic!("unknown relation {rel}"));
        self.insert(id, Tuple::consts(values))
    }

    /// Insert a fact given as packed value ids, stamped with the current
    /// epoch; returns `true` if new. The zero-copy twin of
    /// [`Instance::insert`] used for bulk copies between instances.
    ///
    /// # Panics
    /// Panics if `ids.len()` differs from the relation's arity.
    pub fn insert_ids(&mut self, rel: RelId, ids: &[ValueId]) -> bool {
        let epoch = self.epoch;
        self.relation_mut(rel).insert_ids_at(ids, epoch)
    }

    /// [`Instance::insert_ids`] stamped with an explicit insertion epoch
    /// (clamped monotone per relation). The durable store's snapshot loader
    /// uses this to restore each row's original epoch so delta windows
    /// survive a restart.
    pub fn insert_ids_at(&mut self, rel: RelId, ids: &[ValueId], epoch: u64) -> bool {
        self.relation_mut(rel).insert_ids_at(ids, epoch)
    }

    /// Open a new epoch and copy into it, as packed ids, every live row of
    /// `src` in the relations `rels` stamped at or after `since`; returns
    /// the new epoch — the watermark a delta chase of the spliced rows
    /// starts from.
    pub fn splice_since(
        &mut self,
        src: &Instance,
        rels: impl IntoIterator<Item = RelId>,
        since: u64,
    ) -> u64 {
        let watermark = self.bump_epoch();
        for rel in rels {
            let _ = src
                .relation(rel)
                .for_each_row_in_window(since, u64::MAX, &mut |_, ids| {
                    self.insert_ids(rel, ids);
                    ControlFlow::Continue(())
                });
        }
        watermark
    }

    /// Membership test for a fact.
    pub fn contains(&self, rel: RelId, t: &Tuple) -> bool {
        self.relations[rel.index()].contains(t)
    }

    /// Remove a fact `R(t)`; returns `true` if it was present.
    pub fn remove(&mut self, rel: RelId, t: &Tuple) -> bool {
        self.relation_mut(rel).remove(t)
    }

    /// The stored relation for `rel`.
    pub fn relation(&self, rel: RelId) -> &Relation {
        &self.relations[rel.index()]
    }

    /// Total number of facts.
    pub fn fact_count(&self) -> usize {
        self.relations.iter().map(Relation::len).sum()
    }

    /// Heap footprint of all stored relations in bytes.
    ///
    /// O(#relations × arity): sums each relation's counter-maintained
    /// [`Relation::heap_bytes`]. The runtime governor charges this figure
    /// against a configured memory budget at every chase round, so it must
    /// stay cheap enough to call in a hot loop. With the columnar layout
    /// the figure is exact up to allocator rounding, not an estimate.
    pub fn heap_bytes(&self) -> usize {
        self.relations.iter().map(Relation::heap_bytes).sum()
    }

    /// Recompute [`Instance::heap_bytes`] from full structure scans
    /// instead of the incremental counters (drift diagnostics backing the
    /// heap-accounting property tests).
    pub fn recount_heap_bytes(&self) -> usize {
        self.relations
            .iter()
            .map(Relation::recount_heap_bytes)
            .sum()
    }

    /// Aggregate storage counters across all relations, for run reports
    /// and benches.
    pub fn storage_stats(&self) -> StorageStats {
        let facts = self.fact_count();
        let heap_bytes = self.heap_bytes();
        StorageStats {
            facts,
            slots: self.relations.iter().map(Relation::slot_count).sum(),
            index_entries: self.relations.iter().map(Relation::index_entry_count).sum(),
            heap_bytes,
        }
    }

    /// Number of facts belonging to `peer`.
    pub fn fact_count_of(&self, peer: Peer) -> usize {
        self.schema
            .rels_of(peer)
            .map(|id| self.relations[id.index()].len())
            .sum()
    }

    /// Iterate over all facts as `(rel, tuple)` pairs. Tuples are
    /// materialized from the columnar storage on the fly; hot paths should
    /// work on row ids via [`Instance::relation`] or scan packed rows with
    /// [`Instance::for_each_fact`] instead.
    pub fn facts(&self) -> impl Iterator<Item = (RelId, Tuple)> + '_ {
        self.schema
            .rel_ids()
            .flat_map(move |id| self.relations[id.index()].iter().map(move |t| (id, t)))
    }

    /// Visit every fact as `(rel, packed row)` without materializing
    /// tuples — the arena-backed twin of [`Instance::facts`] that snapshot
    /// serialization and bulk instance copies run on. Relations are visited
    /// in schema order, rows in insertion order; returning
    /// [`ControlFlow::Break`] stops the scan.
    pub fn for_each_fact(
        &self,
        mut f: impl FnMut(RelId, &[ValueId]) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        for id in self.schema.rel_ids() {
            self.relations[id.index()].for_each_row(|_, ids| f(id, ids))?;
        }
        ControlFlow::Continue(())
    }

    /// Iterate over the facts of one peer.
    pub fn facts_of(&self, peer: Peer) -> impl Iterator<Item = (RelId, Tuple)> + '_ {
        self.facts()
            .filter(move |(id, _)| self.schema.peer(*id) == peer)
    }

    /// Copy of this instance keeping only `peer`'s facts (other relations
    /// are emptied, the schema is unchanged). Rows are copied as packed
    /// ids — no tuple materialization.
    pub fn restrict(&self, peer: Peer) -> Instance {
        let mut out = Instance::new(self.schema.clone());
        for id in self.schema.rel_ids() {
            if self.schema.peer(id) != peer {
                continue;
            }
            let target = &mut out.relations[id.index()];
            let _ = self.relations[id.index()].for_each_row(|_, ids| {
                target.insert_ids_at(ids, 0);
                ControlFlow::Continue(())
            });
        }
        out
    }

    /// Union of this instance with `other` (same schema required). Rows of
    /// `other` are copied as packed ids, stamped with `self`'s current
    /// epoch.
    pub fn union(&self, other: &Instance) -> Instance {
        assert!(
            Arc::ptr_eq(&self.schema, &other.schema) || self.schema.len() == other.schema.len(),
            "schema mismatch in union"
        );
        let mut out = self.clone();
        let epoch = out.epoch;
        for id in self.schema.rel_ids() {
            let target = &mut out.relations[id.index()];
            let _ = other.relations[id.index()].for_each_row(|_, ids| {
                target.insert_ids_at(ids, epoch);
                ControlFlow::Continue(())
            });
        }
        out
    }

    /// Is every fact of `self` a fact of `other`? Compares packed rows —
    /// no tuple materialization.
    pub fn contained_in(&self, other: &Instance) -> bool {
        self.schema.rel_ids().all(|id| {
            let target = &other.relations[id.index()];
            self.relations[id.index()]
                .for_each_row(|_, ids| {
                    if target.contains_ids(ids) {
                        ControlFlow::Continue(())
                    } else {
                        ControlFlow::Break(())
                    }
                })
                .is_continue()
        })
    }

    /// Is every fact of `self` belonging to `peer` also in `other`?
    pub fn peer_contained_in(&self, other: &Instance, peer: Peer) -> bool {
        self.schema.rel_ids().all(|id| {
            self.schema.peer(id) != peer || {
                let target = &other.relations[id.index()];
                self.relations[id.index()]
                    .for_each_row(|_, ids| {
                        if target.contains_ids(ids) {
                            ControlFlow::Continue(())
                        } else {
                            ControlFlow::Break(())
                        }
                    })
                    .is_continue()
            }
        })
    }

    /// Set equality of the stored facts (insertion order ignored).
    pub fn same_facts(&self, other: &Instance) -> bool {
        self.fact_count() == other.fact_count() && self.contained_in(other)
    }

    /// The active domain: every value occurring in some fact.
    pub fn active_domain(&self) -> BTreeSet<Value> {
        distinct_values(self.relations.iter())
    }

    /// The active domain restricted to one peer's relations.
    pub fn active_domain_of(&self, peer: Peer) -> BTreeSet<Value> {
        distinct_values(
            self.schema
                .rels_of(peer)
                .map(|id| &self.relations[id.index()]),
        )
    }

    /// The distinct labeled nulls occurring anywhere.
    pub fn nulls(&self) -> BTreeSet<NullId> {
        let mut nulls: Vec<NullId> = self
            .relations
            .iter()
            .flat_map(Relation::value_ids)
            .filter_map(|id| id.value().as_null())
            .collect();
        nulls.sort_unstable();
        nulls.dedup();
        nulls.into_iter().collect()
    }

    /// Does the instance contain no nulls (a *ground* instance)?
    /// O(#relations): each relation tracks its live null occurrences.
    pub fn is_ground(&self) -> bool {
        !self.relations.iter().any(Relation::has_nulls)
    }

    /// Largest null id present, for seeding a
    /// [`crate::value::NullGen`] that must avoid collisions.
    pub fn max_null_id(&self) -> Option<u32> {
        self.nulls().iter().map(|n| n.0).max()
    }

    /// Replace every occurrence of `from` by `to`, in all relations.
    /// Rewritten facts are stamped with the current epoch (they count as
    /// new for delta purposes: merged facts can enable new triggers).
    pub fn substitute(&mut self, from: Value, to: Value) {
        let (epoch, open) = (self.epoch, self.open);
        for r in &mut self.relations {
            if r.mentions(from) {
                if open > 0 {
                    r.savepoint(open);
                }
                r.substitute_at(from, to, epoch);
            }
        }
    }

    /// Apply every merge recorded in a union-find at once: each fact
    /// containing a non-canonical value is rewritten to canonical
    /// representatives, with index repair targeted at the merged values'
    /// buckets. Rewritten facts are stamped with the current epoch. Returns
    /// the number of rewritten facts.
    pub fn apply_merges(&mut self, uf: &ValueUnionFind) -> usize {
        if uf.is_empty() {
            return 0;
        }
        let touched = uf.dirty_values();
        let (epoch, open) = (self.epoch, self.open);
        self.relations
            .iter_mut()
            .map(|r| {
                if open > 0 {
                    r.savepoint(open);
                }
                r.rewrite_values(&touched, |v| uf.resolve(v), epoch)
            })
            .sum()
    }

    /// Do any facts carry an insertion epoch `>= since`? A cheap emptiness
    /// test for the delta view.
    pub fn has_facts_since(&self, since: u64) -> bool {
        self.relations
            .iter()
            .any(|r| r.row_ids_in_window(since, u64::MAX).next().is_some())
    }

    /// Apply a value mapping to every fact, producing a new instance
    /// (the homomorphic image `h(K)` used throughout §5 of the paper).
    /// Maps packed rows through one reused buffer — no tuple
    /// materialization.
    pub fn map_values(&self, mut f: impl FnMut(Value) -> Value) -> Instance {
        let mut out = Instance::new(self.schema.clone());
        let mut buf: Vec<ValueId> = Vec::new();
        for id in self.schema.rel_ids() {
            let target = &mut out.relations[id.index()];
            let _ = self.relations[id.index()].for_each_row(|_, ids| {
                buf.clear();
                buf.extend(ids.iter().map(|i| ValueId::pack(f(i.value()))));
                target.insert_ids_at(&buf, 0);
                ControlFlow::Continue(())
            });
        }
        out
    }
}

/// The distinct values of `relations`' live rows, built without a set
/// insert per occurrence. Constants are marked in a bitmap over symbol
/// indices, which are dense and bounded by the interner's size; nulls are
/// sorted and deduplicated. Both come out in [`Value`] order, so the set
/// is built from values that are already sorted and distinct.
fn distinct_values<'r>(relations: impl Iterator<Item = &'r Relation>) -> BTreeSet<Value> {
    let mut consts: Vec<u64> = Vec::new();
    let mut nulls: Vec<NullId> = Vec::new();
    for id in relations.flat_map(Relation::value_ids) {
        match id.value() {
            Value::Const(c) => {
                let (word, bit) = (c.index() / 64, c.index() % 64);
                if word >= consts.len() {
                    consts.resize(word + 1, 0);
                }
                consts[word] |= 1 << bit;
            }
            Value::Null(n) => nulls.push(n),
        }
    }
    nulls.sort_unstable();
    nulls.dedup();
    let consts = consts.into_iter().enumerate().flat_map(|(word, bits)| {
        (0..64)
            .filter(move |bit| (bits >> bit) & 1 == 1)
            .map(move |bit| Value::Const(Symbol::from_index(word * 64 + bit)))
    });
    consts.chain(nulls.into_iter().map(Value::Null)).collect()
}

/// Aggregate storage counters of an [`Instance`], as reported by
/// [`Instance::storage_stats`] into run reports and benches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StorageStats {
    /// Live facts across all relations.
    pub facts: usize,
    /// Storage slots including tombstones.
    pub slots: usize,
    /// Index entries across all attributes, dead ones included.
    pub index_entries: usize,
    /// Heap bytes ([`Instance::heap_bytes`]).
    pub heap_bytes: usize,
}

impl StorageStats {
    /// Heap bytes per live fact, rounded to nearest (0 when empty).
    pub fn bytes_per_fact(&self) -> usize {
        (self.heap_bytes + self.facts / 2)
            .checked_div(self.facts)
            .unwrap_or(0)
    }
}

impl PartialEq for Instance {
    fn eq(&self, other: &Self) -> bool {
        self.relations == other.relations
    }
}

impl Eq for Instance {}

impl fmt::Debug for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Instance {{")?;
        for rel in self.schema.rel_ids() {
            let r = self.relation(rel);
            if r.is_empty() {
                continue;
            }
            let mut tuples: Vec<String> = r.iter().map(|t| format!("{t}")).collect();
            tuples.sort();
            writeln!(f, "  {}: {}", self.schema.name(rel), tuples.join(" "))?;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for rel in self.schema.rel_ids() {
            for t in self.relation(rel).iter() {
                if !first {
                    write!(f, " ")?;
                }
                first = false;
                write!(f, "{}{}.", self.schema.name(rel), t)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Arc<Schema> {
        let mut s = Schema::new();
        s.source("E", 2);
        s.target("H", 2);
        Arc::new(s)
    }

    #[test]
    fn insert_and_query() {
        let mut i = Instance::new(schema());
        assert!(i.insert_consts("E", ["a", "b"]));
        assert!(!i.insert_consts("E", ["a", "b"]));
        assert_eq!(i.fact_count(), 1);
        assert_eq!(i.fact_count_of(Peer::Source), 1);
        assert_eq!(i.fact_count_of(Peer::Target), 0);
    }

    #[test]
    fn restrict_keeps_one_peer() {
        let mut i = Instance::new(schema());
        i.insert_consts("E", ["a", "b"]);
        i.insert_consts("H", ["a", "b"]);
        let src = i.restrict(Peer::Source);
        assert_eq!(src.fact_count(), 1);
        assert_eq!(src.fact_count_of(Peer::Target), 0);
    }

    #[test]
    fn union_and_containment() {
        let mut i = Instance::new(schema());
        i.insert_consts("E", ["a", "b"]);
        let mut j = Instance::new(schema());
        j.insert_consts("H", ["a", "b"]);
        let u = i.union(&j);
        assert_eq!(u.fact_count(), 2);
        assert!(i.contained_in(&u));
        assert!(j.contained_in(&u));
        assert!(!u.contained_in(&i));
        assert!(j.peer_contained_in(&u, Peer::Target));
    }

    #[test]
    fn active_domain_collects_values() {
        let mut i = Instance::new(schema());
        i.insert_consts("E", ["a", "b"]);
        i.insert_consts("H", ["b", "c"]);
        let adom = i.active_domain();
        assert_eq!(adom.len(), 3);
        assert!(adom.contains(&Value::constant("c")));
        let src = i.active_domain_of(Peer::Source);
        assert_eq!(src.len(), 2);
        assert!(!src.contains(&Value::constant("c")));
    }

    #[test]
    fn nulls_and_groundness() {
        let s = schema();
        let mut i = Instance::new(s.clone());
        let h = s.rel_id("H").unwrap();
        i.insert(
            h,
            Tuple::new(vec![Value::Null(NullId(3)), Value::constant("a")]),
        );
        assert!(!i.is_ground());
        assert_eq!(i.nulls().len(), 1);
        assert_eq!(i.max_null_id(), Some(3));
        i.substitute(Value::Null(NullId(3)), Value::constant("z"));
        assert!(i.is_ground());
        assert!(i.contains(h, &Tuple::consts(["z", "a"])));
    }

    #[test]
    fn map_values_builds_homomorphic_image() {
        let s = schema();
        let mut i = Instance::new(s.clone());
        let h = s.rel_id("H").unwrap();
        i.insert(
            h,
            Tuple::new(vec![Value::Null(NullId(0)), Value::Null(NullId(1))]),
        );
        let img = i.map_values(|v| if v.is_null() { Value::constant("c") } else { v });
        assert!(img.contains(h, &Tuple::consts(["c", "c"])));
        assert_eq!(img.fact_count(), 1);
    }

    #[test]
    fn epochs_track_insertion_rounds() {
        let mut i = Instance::new(schema());
        i.insert_consts("E", ["a", "b"]);
        let e1 = i.bump_epoch();
        i.insert_consts("E", ["b", "c"]);
        assert_eq!(i.current_epoch(), e1);
        let e = i.schema().rel_id("E").unwrap();
        assert_eq!(i.relation(e).rows_in_window(e1, u64::MAX).count(), 1);
        assert!(i.has_facts_since(e1));
        assert!(!i.has_facts_since(e1 + 1));
    }

    #[test]
    fn apply_merges_rewrites_through_the_union_find() {
        use crate::unionfind::ValueUnionFind;
        let s = schema();
        let mut i = Instance::new(s.clone());
        let h = s.rel_id("H").unwrap();
        let n0 = Value::Null(NullId(0));
        let n1 = Value::Null(NullId(1));
        i.insert(h, Tuple::new(vec![n0, n1]));
        i.insert(h, Tuple::new(vec![Value::constant("a"), n1]));
        let mut uf = ValueUnionFind::new();
        uf.union(n0, Value::constant("a")).unwrap();
        uf.union(n1, n0).unwrap();
        let rewritten = i.apply_merges(&uf);
        assert_eq!(rewritten, 2);
        // Both facts collapse to H(a, a).
        assert_eq!(i.fact_count(), 1);
        assert!(i.contains(h, &Tuple::consts(["a", "a"])));
        assert!(i.is_ground());
    }

    /// Everything a rollback must restore, as one comparable string: live
    /// rows with their ids, epochs and order; every index probe (row ids
    /// and live counts) for `probes` at every position; the counters
    /// behind `len`, groundness and `heap_bytes`; the epoch counter.
    fn state(i: &Instance, probes: &[Value]) -> String {
        let mut out = format!(
            "epoch {} facts {} ground {} heap {}\n",
            i.current_epoch(),
            i.fact_count(),
            i.is_ground(),
            i.heap_bytes()
        );
        // The recount re-derives every incremental counter (null
        // occurrences included) and debug-asserts it against its twin.
        assert_eq!(i.heap_bytes(), i.recount_heap_bytes());
        for rel in i.schema().rel_ids() {
            let r = i.relation(rel);
            out += &format!("{} len {} slots {}:", rel.0, r.len(), r.slot_count());
            for row in r.live_row_ids() {
                out += &format!(" {row}@{}={:?}", r.epoch_of(row), r.row(row));
            }
            for attr in 0..r.arity() {
                for v in probes {
                    let rows: Vec<u32> = r.rows_with(attr, *v).collect();
                    out += &format!(" [{attr} {v:?} {rows:?} {}]", r.count_with(attr, *v));
                }
            }
            out += "\n";
        }
        out
    }

    fn null(n: u32) -> Value {
        Value::Null(NullId(n))
    }

    fn pair(a: Value, b: Value) -> Tuple {
        Tuple::new(vec![a, b])
    }

    #[test]
    fn rollback_undoes_inserts_removes_and_substitutions() {
        let s = schema();
        let h = s.rel_id("H").unwrap();
        let e = s.rel_id("E").unwrap();
        let (a, b, c) = (
            Value::constant("a"),
            Value::constant("b"),
            Value::constant("c"),
        );
        let probes = [a, b, c, null(1), null(2), null(3), null(9)];
        let mut i = Instance::new(s.clone());
        i.insert(h, pair(a, null(1)));
        i.insert(h, pair(null(1), b));
        i.insert(h, pair(null(2), null(1)));
        i.insert(e, pair(a, b));
        let before = state(&i, &probes);

        let sp = i.savepoint();
        i.bump_epoch();
        // An insert that spills a single-row posting, a fresh key, a
        // removal and a substitution that rewrites three rows (two of them
        // pre-savepoint) and merges one into an existing row.
        i.insert(h, pair(a, null(3)));
        i.insert(h, pair(null(9), c));
        assert!(i.remove(h, &pair(null(1), b)));
        i.substitute(null(1), a);
        i.substitute(null(9), null(2));
        assert_ne!(state(&i, &probes), before);
        i.rollback(sp);
        assert_eq!(state(&i, &probes), before);
        assert!(i.contains(h, &pair(null(1), b)));
        assert!(!i.contains(h, &pair(a, null(3))));
        // The restored instance keeps working as before.
        assert!(i.insert(h, pair(a, null(3))));
        assert!(i.remove(h, &pair(a, null(3))));
    }

    #[test]
    fn nested_savepoints_roll_back_newest_first() {
        let s = schema();
        let h = s.rel_id("H").unwrap();
        let probes: Vec<Value> = (0..8).map(null).chain([Value::constant("k")]).collect();
        let mut i = Instance::new(s.clone());
        i.insert(h, pair(null(0), null(1)));
        let outer_state = state(&i, &probes);
        let outer = i.savepoint();
        i.bump_epoch();
        i.insert(h, pair(null(1), null(2)));
        i.substitute(null(0), Value::constant("k"));
        let inner_state = state(&i, &probes);
        let inner = i.savepoint();
        i.bump_epoch();
        i.insert(h, pair(null(2), null(3)));
        assert!(i.remove(h, &pair(null(1), null(2))));
        i.substitute(null(1), null(4));
        i.rollback(inner);
        assert_eq!(state(&i, &probes), inner_state);
        // A fresh inner savepoint after a rollback, then rolling back the
        // outer one closes it too.
        let _inner = i.savepoint();
        i.insert(h, pair(null(5), null(6)));
        i.rollback(outer);
        assert_eq!(state(&i, &probes), outer_state);
    }

    #[test]
    fn apply_merges_rolls_back() {
        let s = schema();
        let h = s.rel_id("H").unwrap();
        let probes = [null(0), null(1), Value::constant("a")];
        let mut i = Instance::new(s.clone());
        i.insert(h, pair(null(0), null(1)));
        i.insert(h, pair(Value::constant("a"), null(1)));
        let before = state(&i, &probes);
        let sp = i.savepoint();
        let mut uf = ValueUnionFind::new();
        uf.union(null(0), Value::constant("a")).unwrap();
        uf.union(null(1), null(0)).unwrap();
        assert_eq!(i.apply_merges(&uf), 2);
        i.rollback(sp);
        assert_eq!(state(&i, &probes), before);
    }

    #[test]
    fn rollback_past_the_compaction_threshold_is_exact() {
        let s = schema();
        let h = s.rel_id("H").unwrap();
        let key = |n: u32| pair(Value::constant("hot"), Value::constant(format!("v{n}")));
        let mut i = Instance::new(s.clone());
        for n in 0..40 {
            i.insert(h, key(n));
        }
        // 15 of 40 slots dead: below the rebuild threshold.
        for n in 0..15 {
            assert!(i.remove(h, &key(n)));
        }
        assert_eq!(i.relation(h).slot_count(), 40);
        let probes: Vec<Value> = std::iter::once(Value::constant("hot"))
            .chain((0..80).map(|n| Value::constant(format!("v{n}"))))
            .collect();
        let before = state(&i, &probes);
        let sp = i.savepoint();
        // 35 of 40 dead and 40 more appended: a rebuild would run here
        // without the savepoint, and every table grows.
        for n in 15..35 {
            assert!(i.remove(h, &key(n)));
        }
        for n in 40..80 {
            i.insert(h, key(n));
        }
        assert!(i.relation(h).slot_count() >= 80);
        i.rollback(sp);
        assert_eq!(state(&i, &probes), before);
        // With no savepoint open, removals compact again.
        for n in 15..35 {
            assert!(i.remove(h, &key(n)));
        }
        assert!(i.relation(h).slot_count() < 40);
    }

    #[test]
    fn rollback_matches_a_copy_under_random_churn() {
        // A seeded walk of inserts, removals and substitutions over a tiny
        // domain under nested savepoints, checked against the state
        // recorded at each savepoint.
        let s = schema();
        let h = s.rel_id("H").unwrap();
        let mut seed: u64 = 0x2545_f491_4f6c_dd1d;
        let mut next = move |n: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % n
        };
        let value = |x: u64| {
            let x = u32::try_from(x).unwrap();
            if x < 4 {
                Value::constant(format!("c{x}"))
            } else {
                null(x)
            }
        };
        let probes: Vec<Value> = (0..10).map(value).collect();
        let mut i = Instance::new(s.clone());
        let mut open: Vec<(Savepoint, String)> = Vec::new();
        for _ in 0..if cfg!(miri) { 60 } else { 600 } {
            match next(8) {
                0 if open.len() < 4 => {
                    let snap = state(&i, &probes);
                    open.push((i.savepoint(), snap));
                    i.bump_epoch();
                }
                1 => {
                    if let Some((sp, snap)) = open.pop() {
                        i.rollback(sp);
                        assert_eq!(state(&i, &probes), snap);
                    }
                }
                2 | 3 => {
                    let t = pair(value(next(10)), value(next(10)));
                    i.remove(h, &t);
                }
                4 => i.substitute(value(4 + next(6)), value(next(10))),
                _ => {
                    i.insert(h, pair(value(next(10)), value(next(10))));
                }
            }
        }
        while let Some((sp, snap)) = open.pop() {
            i.rollback(sp);
            assert_eq!(state(&i, &probes), snap);
        }
    }

    #[test]
    fn a_clone_has_no_open_savepoints() {
        let s = schema();
        let h = s.rel_id("H").unwrap();
        let mut i = Instance::new(s.clone());
        let sp = i.savepoint();
        i.insert(h, pair(null(0), null(1)));
        let copy = i.clone();
        assert_eq!(copy.open, 0);
        i.rollback(sp);
        assert_eq!(i.fact_count(), 0);
        assert_eq!(copy.fact_count(), 1);
    }

    #[test]
    fn same_facts_is_order_insensitive() {
        let mut a = Instance::new(schema());
        a.insert_consts("E", ["a", "b"]);
        a.insert_consts("E", ["b", "c"]);
        let mut b = Instance::new(schema());
        b.insert_consts("E", ["b", "c"]);
        b.insert_consts("E", ["a", "b"]);
        assert!(a.same_facts(&b));
        assert_eq!(a, b);
        b.insert_consts("E", ["c", "d"]);
        assert!(!a.same_facts(&b));
    }
}
