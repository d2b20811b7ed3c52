//! A single stored relation: columnar rows of packed value ids with flat
//! per-attribute indexes.
//!
//! The chase and the homomorphism search spend almost all of their time
//! asking "which rows of `R` have value `v` at position `i`?". Storage is
//! therefore laid out for that probe: rows live as per-attribute
//! `Vec<ValueId>` *columns* (structure-of-arrays — four bytes per value at
//! rest), and every attribute keeps an open-addressed
//! [`ValueId`]` → row-id list` index (`ColumnIndex` in the private `store`
//! module) probed by integer hashing instead of a `HashMap<Value, _>`.
//! Membership and deduplication go through a row-content hash set storing
//! only row ids (`RowSet`). See `docs/STORAGE.md` for the full layout.
//!
//! Rows additionally carry an *insertion epoch* (a monotone `u64` stamped
//! by the caller, see [`crate::instance::Instance::bump_epoch`]). Because
//! row ids are handed out in insertion order and never reused, the epoch
//! sequence is non-decreasing and the rows inserted at or after a given
//! epoch form a suffix of the row vector — the *delta view* the semi-naive
//! chase enumerates by binary search ([`Relation::rows_in_window`]).
//!
//! Deletion is lazy: [`Relation::remove`] tombstones the slot (liveness
//! bitmap) and leaves index postings in place, but per-bucket dead counters
//! trigger a bucket compaction once dead entries reach half the bucket, and
//! the whole relation is rebuilt (invalidating outstanding row ids) once
//! dead slots outnumber live ones. Amortized, insert/remove cycles are
//! O(arity) and never grow memory without bound.
//!
//! Savepoints (driven by [`crate::instance::Instance::savepoint`]) build on
//! the same two mechanisms. While one is open, both compactions are held
//! off and every tombstoned pre-savepoint row is logged; a rollback
//! truncates the slots appended since and revives the logged rows in
//! place. Live rows therefore come back with their old row ids, in their
//! old order, with the indexes and counters they had.

use crate::store::{hash_ids, ColumnIndex, RowSet, Trail};
use crate::tuple::Tuple;
use crate::value::{Value, ValueId};
use std::ops::ControlFlow;

/// Slot count below which full-relation compaction is not worth running.
const COMPACT_MIN_SLOTS: usize = 32;

/// Budgeting constant: heap bytes per stored fact of the columnar layout,
/// measured as a cross-workload upper bound (~40–90 bytes/fact measured at
/// arities 2–4 including index and membership tables; the
/// constant rounds up for load-factor headroom). Plan certificates derive
/// governor memory budgets as `fact_bound × BYTES_PER_FACT_BUDGET`, so this
/// is exported for `pde-analysis` to re-export — the row-oriented layout it
/// replaces needed 256.
pub const BYTES_PER_FACT_BUDGET: usize = 128;

/// A set of same-arity rows stored column-wise, with per-attribute value
/// indexes and insertion-epoch stamps.
#[derive(Clone, Debug, Default)]
pub struct Relation {
    arity: u16,
    /// `columns[i][r]` = packed value at attribute `i` of row `r`. Slots
    /// are never reused — a full compaction rebuilds the vectors instead,
    /// so a live row id always refers to the row it was handed out for.
    columns: Vec<Vec<ValueId>>,
    /// Liveness bitmap, parallel to the columns; `false` marks a tombstone.
    live: Vec<bool>,
    /// Insertion epoch of each row, parallel to the columns and
    /// non-decreasing.
    epochs: Vec<u64>,
    /// Membership/dedup set over live rows (content-hashed row ids).
    set: RowSet,
    /// One open-addressed index per attribute.
    index: Vec<ColumnIndex>,
    /// Number of tombstoned slots.
    dead: usize,
    /// Number of live rows.
    live_count: usize,
    /// Total row ids stored across all index postings, dead ones included.
    /// Maintained incrementally so [`Relation::heap_bytes`] is O(arity):
    /// inserts add `arity`, posting compactions subtract what they drop,
    /// and a full rebuild resets it to `live * arity`.
    index_entries: usize,
    /// Occurrences of labeled nulls in live rows (O(1) groundness checks).
    null_entries: usize,
    /// Largest epoch stamped so far; later inserts are clamped up to it so
    /// `epochs` stays sorted.
    last_epoch: u64,
    /// Open savepoints, and the pre-savepoint rows tombstoned since the
    /// oldest one.
    trail: Trail<RelMark, u32>,
}

/// The state a [`Relation`] savepoint restores: slot count, counters and
/// allocation sizes, plus where its part of the kill log starts.
#[derive(Clone, Copy, Debug)]
struct RelMark {
    /// Instance-level savepoint depth this mark belongs to.
    depth: usize,
    slots: usize,
    log_len: usize,
    dead: usize,
    live_count: usize,
    index_entries: usize,
    null_entries: usize,
    last_epoch: u64,
    column_capacity: usize,
    epochs_capacity: usize,
    live_capacity: usize,
    set_capacity: usize,
}

/// Content hash of row `r` of `columns` (free function so callers can hash
/// one relation's row while mutating another part of the struct).
fn row_hash(columns: &[Vec<ValueId>], r: u32) -> u64 {
    hash_ids(columns.iter().map(|c| c[r as usize]))
}

impl Relation {
    /// An empty relation of the given arity.
    pub fn new(arity: u16) -> Relation {
        Relation {
            arity,
            columns: (0..arity).map(|_| Vec::new()).collect(),
            live: Vec::new(),
            epochs: Vec::new(),
            set: RowSet::default(),
            index: (0..arity).map(|_| ColumnIndex::default()).collect(),
            dead: 0,
            live_count: 0,
            index_entries: 0,
            null_entries: 0,
            last_epoch: 0,
            trail: Trail::default(),
        }
    }

    /// The arity of this relation.
    pub fn arity(&self) -> u16 {
        self.arity
    }

    /// Number of (live) tuples.
    pub fn len(&self) -> usize {
        self.live_count
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.live_count == 0
    }

    /// Does any live row contain a labeled null? O(1).
    pub fn has_nulls(&self) -> bool {
        self.null_entries > 0
    }

    /// Insert a tuple stamped with the relation's current epoch; returns
    /// `true` if it was not already present.
    ///
    /// # Panics
    /// Panics if the tuple's arity differs from the relation's.
    pub fn insert(&mut self, t: Tuple) -> bool {
        self.insert_at(t, self.last_epoch)
    }

    /// Insert a tuple stamped with insertion epoch `epoch` (clamped up to
    /// the largest epoch already stamped, so epochs stay monotone); returns
    /// `true` if it was not already present. Re-inserting an existing tuple
    /// keeps its original epoch: a re-derived fact is not a delta fact.
    ///
    /// # Panics
    /// Panics if the tuple's arity differs from the relation's.
    // By-value on purpose: this is the crate's fact-insertion API and
    // callers almost always pass a freshly built tuple (the columnar store
    // decomposes it instead of keeping it, which is what trips the lint).
    #[allow(clippy::needless_pass_by_value)]
    pub fn insert_at(&mut self, t: Tuple, epoch: u64) -> bool {
        assert_eq!(
            t.arity(),
            self.arity as usize,
            "arity mismatch inserting {t:?}"
        );
        let hash = hash_ids(t.values().iter().map(|v| ValueId::pack(*v)));
        if self.find_tuple_row(hash, &t).is_some() {
            return false;
        }
        let row = self.new_row_id();
        for (i, v) in t.values().iter().enumerate() {
            let id = ValueId::pack(*v);
            self.columns[i].push(id);
            self.index[i].insert(id, row);
            if id.is_null() {
                self.null_entries += 1;
            }
        }
        self.finish_insert(row, hash, epoch);
        true
    }

    /// Insert a row given as packed ids — the zero-copy twin of
    /// [`Relation::insert_at`], used by the re-insertion path of
    /// [`Relation::rewrite_values`] and by bulk copies between instances
    /// (snapshot load, union, restriction) that would otherwise
    /// materialize a [`Tuple`] per row.
    ///
    /// # Panics
    /// Panics if `ids.len()` differs from the relation's arity.
    pub fn insert_ids_at(&mut self, ids: &[ValueId], epoch: u64) -> bool {
        assert_eq!(
            ids.len(),
            self.arity as usize,
            "arity mismatch inserting packed row"
        );
        let hash = hash_ids(ids.iter().copied());
        let found = self
            .set
            .find(hash, |r| {
                self.columns
                    .iter()
                    .zip(ids)
                    .all(|(c, id)| c[r as usize] == *id)
            })
            .is_some();
        if found {
            return false;
        }
        let row = self.new_row_id();
        for (i, id) in ids.iter().enumerate() {
            self.columns[i].push(*id);
            self.index[i].insert(*id, row);
            if id.is_null() {
                self.null_entries += 1;
            }
        }
        self.finish_insert(row, hash, epoch);
        true
    }

    /// The next row id, checked against the id space (two top values are
    /// reserved as open-addressing sentinels).
    fn new_row_id(&self) -> u32 {
        let row = u32::try_from(self.epochs.len()).expect("relation overflow");
        assert!(row < u32::MAX - 1, "relation overflow");
        row
    }

    /// Common tail of the insertion paths: stamp the epoch, mark live,
    /// record membership, and bump the counters.
    fn finish_insert(&mut self, row: u32, hash: u64, epoch: u64) {
        let epoch = epoch.max(self.last_epoch);
        self.last_epoch = epoch;
        self.index_entries += self.arity as usize;
        let columns = &self.columns;
        self.set.insert(hash, row, |r| row_hash(columns, r));
        self.live.push(true);
        self.epochs.push(epoch);
        self.live_count += 1;
    }

    /// The live row storing exactly `t`, via the membership set.
    fn find_tuple_row(&self, hash: u64, t: &Tuple) -> Option<u32> {
        self.set.find(hash, |r| {
            self.columns
                .iter()
                .zip(t.values())
                .all(|(c, v)| c[r as usize] == ValueId::pack(*v))
        })
    }

    /// Membership test.
    pub fn contains(&self, t: &Tuple) -> bool {
        if t.arity() != self.arity as usize {
            return false;
        }
        let hash = hash_ids(t.values().iter().map(|v| ValueId::pack(*v)));
        self.find_tuple_row(hash, t).is_some()
    }

    /// Membership test on an already-packed row ([`Relation::contains`]
    /// without the tuple materialization). Rows of the wrong arity are
    /// simply absent.
    pub fn contains_ids(&self, ids: &[ValueId]) -> bool {
        self.find_ids(ids).is_some()
    }

    /// The id of the live row storing exactly `ids`.
    pub(crate) fn find_ids(&self, ids: &[ValueId]) -> Option<u32> {
        if ids.len() != self.arity as usize {
            return None;
        }
        let hash = hash_ids(ids.iter().copied());
        self.set.find(hash, |r| {
            self.columns
                .iter()
                .zip(ids)
                .all(|(c, id)| c[r as usize] == *id)
        })
    }

    /// Does any live row hold `v`? One index probe per attribute.
    pub(crate) fn mentions(&self, v: Value) -> bool {
        let id = ValueId::pack(v);
        (0..self.arity).any(|attr| self.count_with_id(attr, id) > 0)
    }

    /// Remove a tuple; returns `true` if it was present. Removal is lazy —
    /// the slot is tombstoned in O(arity) — with two compaction triggers
    /// that keep long insert/remove cycles (the search solvers backtrack
    /// millions of times) from accumulating garbage: an index posting is
    /// rebuilt once half its ids are dead, and the whole relation is
    /// rebuilt once dead slots outnumber live ones.
    pub fn remove(&mut self, t: &Tuple) -> bool {
        if t.arity() != self.arity as usize {
            return false;
        }
        let hash = hash_ids(t.values().iter().map(|v| ValueId::pack(*v)));
        let Some(row) = self.find_tuple_row(hash, t) else {
            return false;
        };
        self.set.remove(hash, row);
        self.kill_row(row);
        self.maybe_compact_storage();
        true
    }

    /// Tombstone a live row: flip the liveness bit and notify each
    /// attribute's index, which reclaims or compacts its posting as needed.
    /// The membership-set entry must already be gone. Row ids stay valid
    /// (no slots move).
    fn kill_row(&mut self, row: u32) {
        debug_assert!(self.live[row as usize], "killing a dead row");
        if self
            .trail
            .marks
            .last()
            .is_some_and(|m| (row as usize) < m.slots)
        {
            self.trail.log.push(row);
        }
        self.live[row as usize] = false;
        self.live_count -= 1;
        self.dead += 1;
        let live = &self.live;
        for (i, ix) in self.index.iter_mut().enumerate() {
            let id = self.columns[i][row as usize];
            self.index_entries -= ix.mark_dead(id, row, |r| live[r as usize]);
            if id.is_null() {
                self.null_entries -= 1;
            }
        }
    }

    /// Open a savepoint for instance savepoint `depth`, unless one that
    /// deep is already open (an instance marks a relation lazily, on its
    /// first change under each savepoint).
    pub(crate) fn savepoint(&mut self, depth: usize) {
        if self.trail.marks.last().is_some_and(|m| m.depth >= depth) {
            return;
        }
        let column_capacity = self.columns.first().map_or(0, Vec::capacity);
        debug_assert!(
            self.columns.iter().all(|c| c.capacity() == column_capacity),
            "columns grow in lockstep"
        );
        self.trail.marks.push(RelMark {
            depth,
            slots: self.epochs.len(),
            log_len: self.trail.log.len(),
            dead: self.dead,
            live_count: self.live_count,
            index_entries: self.index_entries,
            null_entries: self.null_entries,
            last_epoch: self.last_epoch,
            column_capacity,
            epochs_capacity: self.epochs.capacity(),
            live_capacity: self.live.capacity(),
            set_capacity: self.set.capacity(),
        });
        for ix in &mut self.index {
            ix.savepoint();
        }
    }

    /// Roll back every open savepoint of instance depth `depth` or deeper.
    pub(crate) fn rollback(&mut self, depth: usize) {
        while self.trail.marks.last().is_some_and(|m| m.depth >= depth) {
            self.rollback_newest();
        }
    }

    /// Roll back to the newest savepoint and close it. Slots appended since
    /// are truncated and the rows tombstoned since are revived in place,
    /// so live rows keep their ids and order; counters, index postings and
    /// allocation sizes return to their values at the savepoint.
    fn rollback_newest(&mut self) {
        let m = self
            .trail
            .marks
            .pop()
            .expect("rollback without a savepoint");
        for r in (m.slots..self.epochs.len()).rev() {
            if self.live[r] {
                let r = u32::try_from(r).expect("relation overflow");
                self.set.remove(row_hash(&self.columns, r), r);
            }
        }
        for ix in &mut self.index {
            ix.rollback();
        }
        for c in &mut self.columns {
            c.truncate(m.slots);
            c.shrink_to(m.column_capacity);
        }
        self.epochs.truncate(m.slots);
        self.epochs.shrink_to(m.epochs_capacity);
        self.live.truncate(m.slots);
        self.live.shrink_to(m.live_capacity);
        let columns = &self.columns;
        for r in self.trail.log.drain(m.log_len..) {
            self.live[r as usize] = true;
            self.set
                .insert(row_hash(columns, r), r, |s| row_hash(columns, s));
        }
        if self.set.capacity() != m.set_capacity {
            self.set.rehash(m.set_capacity, |s| row_hash(columns, s));
        }
        self.dead = m.dead;
        self.live_count = m.live_count;
        self.index_entries = m.index_entries;
        self.null_entries = m.null_entries;
        self.last_epoch = m.last_epoch;
    }

    /// Rebuild columns, epochs, and indexes keeping live rows in insertion
    /// order, once tombstones outnumber live rows. Invalidates outstanding
    /// row ids — callers must not hold ids across `&mut self` calls. Held
    /// off while a savepoint is open.
    fn maybe_compact_storage(&mut self) {
        if self.trail.is_open()
            || self.epochs.len() < COMPACT_MIN_SLOTS
            || 2 * self.dead <= self.epochs.len()
        {
            return;
        }
        let old_columns: Vec<Vec<ValueId>> = self
            .columns
            .iter_mut()
            .map(std::mem::take)
            .collect::<Vec<_>>();
        let old_epochs = std::mem::take(&mut self.epochs);
        let old_live = std::mem::take(&mut self.live);
        // Fresh tables rather than cleared ones: the rebuild is the one
        // point where a shrunken relation gives its table memory back.
        self.set = RowSet::default();
        for ix in &mut self.index {
            *ix = ColumnIndex::default();
        }
        self.null_entries = 0;
        for c in &mut self.columns {
            c.reserve(self.live_count);
        }
        self.epochs.reserve(self.live_count);
        for slot in 0..old_epochs.len() {
            if !old_live[slot] {
                continue;
            }
            let row = u32::try_from(self.epochs.len()).expect("relation overflow");
            for (i, c) in old_columns.iter().enumerate() {
                let id = c[slot];
                self.columns[i].push(id);
                self.index[i].insert(id, row);
                if id.is_null() {
                    self.null_entries += 1;
                }
            }
            let hash = row_hash(&self.columns, row);
            let columns = &self.columns;
            self.set.insert(hash, row, |r| row_hash(columns, r));
            self.live.push(true);
            self.epochs.push(old_epochs[slot]);
        }
        self.index_entries = self.live_count * self.arity as usize;
        self.dead = 0;
        // Compaction is the natural checkpoint for the incremental
        // counters: a drifting counter would silently skew every governed
        // memory budget, so recount everything in debug builds.
        debug_assert_eq!(self.heap_bytes(), self.recount_heap_bytes());
    }

    /// Materialize row `r` as a [`Tuple`] (no liveness check — internal).
    fn tuple_at(&self, r: u32) -> Tuple {
        Tuple::new(
            self.columns
                .iter()
                .map(|c| c[r as usize].value())
                .collect::<Vec<_>>(),
        )
    }

    /// Iterate over live tuples in insertion order (materialized from the
    /// columns on the fly; hot paths iterate row ids and probe
    /// [`Relation::value_id_at`] instead).
    pub fn iter(&self) -> impl Iterator<Item = Tuple> + '_ {
        self.live_row_ids().map(|r| self.tuple_at(r))
    }

    /// Visit every live row in insertion order as `(row id, packed ids)`,
    /// gathering each row into one reused scratch buffer — the arena-backed
    /// twin of [`Relation::iter`], allocating zero tuples. Returning
    /// [`ControlFlow::Break`] from the callback stops the scan early.
    pub fn for_each_row(
        &self,
        mut f: impl FnMut(u32, &[ValueId]) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        self.for_each_row_in_window(0, u64::MAX, &mut f)
    }

    /// [`Relation::for_each_row`] restricted to live rows whose insertion
    /// epoch lies in `[lo, hi)` — the zero-copy delta view.
    pub fn for_each_row_in_window(
        &self,
        lo: u64,
        hi: u64,
        f: &mut impl FnMut(u32, &[ValueId]) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let start = self.first_row_at(lo);
        let end = self.first_row_at(hi);
        let mut buf: Vec<ValueId> = Vec::with_capacity(self.arity as usize);
        for r in start..end {
            if !self.live[r] {
                continue;
            }
            buf.clear();
            buf.extend(self.columns.iter().map(|c| c[r]));
            f(u32::try_from(r).expect("relation overflow"), &buf)?;
        }
        ControlFlow::Continue(())
    }

    /// Row ids of live rows, in insertion order.
    pub fn live_row_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.live
            .iter()
            .enumerate()
            .filter(|(_, l)| **l)
            .map(|(r, _)| u32::try_from(r).expect("relation overflow"))
    }

    /// The packed value at attribute `attr` of row `r` — the zero-copy
    /// probe the homomorphism search matches candidates with.
    ///
    /// # Panics
    /// Panics if `r` or `attr` is out of bounds (dead rows keep their
    /// values and may be read).
    pub fn value_id_at(&self, r: u32, attr: u16) -> ValueId {
        self.columns[attr as usize][r as usize]
    }

    /// Row ids of live rows having `v` at attribute `attr`. The returned
    /// ids are valid arguments to [`Relation::row`] until the next `&mut`
    /// call (a compaction may renumber rows).
    pub fn rows_with(&self, attr: u16, v: Value) -> impl Iterator<Item = u32> + '_ {
        self.rows_with_id(attr, ValueId::pack(v))
    }

    /// [`Relation::rows_with`] keyed by an already-packed id.
    pub fn rows_with_id(&self, attr: u16, id: ValueId) -> impl Iterator<Item = u32> + '_ {
        self.index[attr as usize]
            .rows(id)
            .filter(move |r| self.live[*r as usize])
    }

    /// Number of live rows having `v` at attribute `attr`. Exact and O(1):
    /// the per-posting dead counters make up for the lazily deleted ids.
    pub fn count_with(&self, attr: u16, v: Value) -> usize {
        self.count_with_id(attr, ValueId::pack(v))
    }

    /// [`Relation::count_with`] keyed by an already-packed id.
    pub fn count_with_id(&self, attr: u16, id: ValueId) -> usize {
        self.index[attr as usize].count_live(id, |r| self.live[r as usize])
    }

    /// The tuple at row id `r`, if live (materialized from the columns).
    pub fn row(&self, r: u32) -> Option<Tuple> {
        (self.live.get(r as usize) == Some(&true)).then(|| self.tuple_at(r))
    }

    /// The insertion epoch of row id `r` (dead rows keep their stamp).
    pub fn epoch_of(&self, r: u32) -> u64 {
        self.epochs[r as usize]
    }

    /// First row id whose epoch is `>= epoch` (epochs are non-decreasing,
    /// so all rows from here on belong to the suffix stamped at or after
    /// `epoch`).
    fn first_row_at(&self, epoch: u64) -> usize {
        self.epochs.partition_point(|e| *e < epoch)
    }

    /// Upper bound on the number of live rows with epoch in `[lo, hi)`
    /// (counts tombstones; O(log n)).
    pub fn window_size(&self, lo: u64, hi: u64) -> usize {
        self.first_row_at(hi).saturating_sub(self.first_row_at(lo))
    }

    /// Row ids of live rows whose insertion epoch lies in `[lo, hi)`, in
    /// insertion order — the delta view.
    pub fn row_ids_in_window(&self, lo: u64, hi: u64) -> impl Iterator<Item = u32> + '_ {
        let start = self.first_row_at(lo);
        let end = self.first_row_at(hi);
        self.live[start..end]
            .iter()
            .enumerate()
            .filter(|(_, l)| **l)
            .map(move |(off, _)| u32::try_from(start + off).expect("relation overflow"))
    }

    /// Live rows whose insertion epoch lies in `[lo, hi)`, as
    /// `(row id, tuple)` pairs in insertion order. Materializes each tuple;
    /// hot paths use [`Relation::row_ids_in_window`].
    pub fn rows_in_window(&self, lo: u64, hi: u64) -> impl Iterator<Item = (u32, Tuple)> + '_ {
        self.row_ids_in_window(lo, hi)
            .map(|r| (r, self.tuple_at(r)))
    }

    /// Total slot count including tombstones (storage introspection, used
    /// by the compaction regression tests).
    pub fn slot_count(&self) -> usize {
        self.epochs.len()
    }

    /// Total number of index entries including dead ones (storage
    /// introspection, used by the compaction regression tests). O(1):
    /// reads the incrementally maintained counter.
    pub fn index_entry_count(&self) -> usize {
        debug_assert_eq!(
            self.index_entries,
            self.index
                .iter()
                .map(ColumnIndex::recount_entries)
                .sum::<usize>(),
            "index_entries counter out of sync"
        );
        self.index_entries
    }

    /// Heap footprint of this relation in bytes, O(arity).
    ///
    /// This is the figure the runtime governor charges against a memory
    /// budget, computed from the actual allocation sizes: column, epoch,
    /// and liveness capacities (tombstones included — their storage is
    /// still allocated), the membership table, and the per-attribute index
    /// tables (whose posting storage is charged from the incremental
    /// `index_entries` counter with growth-slack headroom). Exact up to
    /// allocator rounding — a step change from the row-oriented layout's
    /// per-tuple `Arc` estimates.
    pub fn heap_bytes(&self) -> usize {
        let slot_bytes: usize = self
            .columns
            .iter()
            .map(|c| c.capacity() * std::mem::size_of::<ValueId>())
            .sum::<usize>()
            + self.epochs.capacity() * std::mem::size_of::<u64>()
            + self.live.capacity();
        slot_bytes
            + self.set.heap_bytes()
            + self
                .index
                .iter()
                .map(ColumnIndex::heap_bytes)
                .sum::<usize>()
    }

    /// Recompute [`Relation::heap_bytes`] from a full structure scan
    /// instead of the incremental counters (drift diagnostics: the
    /// heap-accounting property tests assert this equals `heap_bytes`).
    /// Also recounts the liveness, null, and index-entry counters and
    /// compares them to their incremental twins in debug builds.
    pub fn recount_heap_bytes(&self) -> usize {
        debug_assert_eq!(
            self.live_count,
            self.live.iter().filter(|l| **l).count(),
            "live_count counter out of sync"
        );
        debug_assert_eq!(
            self.set.len(),
            self.live_count,
            "membership set out of sync with liveness"
        );
        debug_assert_eq!(
            self.index_entries,
            self.index
                .iter()
                .map(ColumnIndex::entry_count)
                .sum::<usize>(),
            "per-index entry counters out of sync"
        );
        debug_assert_eq!(
            self.dead,
            self.live.iter().filter(|l| !**l).count(),
            "dead counter out of sync"
        );
        debug_assert_eq!(
            self.null_entries,
            self.columns
                .iter()
                .flat_map(|c| c.iter().enumerate())
                .filter(|(r, id)| self.live[*r] && id.is_null())
                .count(),
            "null_entries counter out of sync"
        );
        debug_assert_eq!(
            self.index_entries,
            self.index
                .iter()
                .map(ColumnIndex::recount_entries)
                .sum::<usize>(),
            "index_entries counter out of sync"
        );
        let slot_bytes: usize = self
            .columns
            .iter()
            .map(|c| c.capacity() * std::mem::size_of::<ValueId>())
            .sum::<usize>()
            + self.epochs.capacity() * std::mem::size_of::<u64>()
            + self.live.capacity();
        slot_bytes
            + self.set.heap_bytes()
            + self
                .index
                .iter()
                .map(ColumnIndex::recount_heap_bytes)
                .sum::<usize>()
    }

    /// Replace every occurrence of value `from` by `to` in all rows.
    /// Rewritten rows that collide with existing ones are merged, and are
    /// stamped with the relation's current epoch.
    pub fn substitute(&mut self, from: Value, to: Value) {
        self.substitute_at(from, to, self.last_epoch);
    }

    /// [`Relation::substitute`] stamping rewritten rows at `epoch`.
    pub fn substitute_at(&mut self, from: Value, to: Value, epoch: u64) {
        if from == to {
            return;
        }
        self.rewrite_values(
            std::slice::from_ref(&from),
            |v| if v == from { to } else { v },
            epoch,
        );
    }

    /// Rewrite every row containing one of the `touched` values through
    /// `resolve`, re-inserting the images stamped at `epoch` (targeted
    /// index repair: only the rows reachable from the touched values'
    /// index postings are visited). Returns the number of rewritten rows.
    /// This is the bulk form of [`Relation::substitute`] used to apply a
    /// whole union-find of egd merges in one pass.
    pub fn rewrite_values(
        &mut self,
        touched: &[Value],
        resolve: impl Fn(Value) -> Value,
        epoch: u64,
    ) -> usize {
        let mut affected: Vec<u32> = Vec::new();
        for attr in 0..self.arity {
            for v in touched {
                affected.extend(self.rows_with(attr, *v));
            }
        }
        affected.sort_unstable();
        affected.dedup();
        let mut rewritten: Vec<Vec<ValueId>> = Vec::new();
        for r in affected {
            let old_ids: Vec<ValueId> = self
                .columns
                .iter()
                .map(|c| c[r as usize])
                .collect::<Vec<_>>();
            let new_ids: Vec<ValueId> = old_ids
                .iter()
                .map(|id| ValueId::pack(resolve(id.value())))
                .collect();
            if new_ids == old_ids {
                continue; // stale index entry: the row no longer needs rewriting
            }
            let old_hash = hash_ids(old_ids.iter().copied());
            self.set.remove(old_hash, r);
            self.kill_row(r);
            rewritten.push(new_ids);
        }
        let count = rewritten.len();
        for ids in rewritten {
            self.insert_ids_at(&ids, epoch);
        }
        self.maybe_compact_storage();
        count
    }

    /// The packed ids of all values occurring in live rows (column-major
    /// order, with repetitions).
    pub fn value_ids(&self) -> impl Iterator<Item = ValueId> + '_ {
        self.columns.iter().flat_map(move |c| {
            c.iter()
                .zip(&self.live)
                .filter(|(_, live)| **live)
                .map(|(id, _)| *id)
        })
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.arity == other.arity
            && self.live_count == other.live_count
            && self.live_row_ids().all(|r| {
                let hash = row_hash(&self.columns, r);
                other
                    .set
                    .find(hash, |s| {
                        self.columns
                            .iter()
                            .zip(&other.columns)
                            .all(|(a, b)| a[r as usize] == b[s as usize])
                    })
                    .is_some()
            })
    }
}

impl Eq for Relation {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::NullId;

    #[test]
    fn insert_deduplicates() {
        let mut r = Relation::new(2);
        assert!(r.insert(Tuple::consts(["a", "b"])));
        assert!(!r.insert(Tuple::consts(["a", "b"])));
        assert_eq!(r.len(), 1);
        assert!(r.contains(&Tuple::consts(["a", "b"])));
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_mismatch_panics() {
        let mut r = Relation::new(2);
        r.insert(Tuple::consts(["a"]));
    }

    #[test]
    fn index_finds_rows() {
        let mut r = Relation::new(2);
        r.insert(Tuple::consts(["a", "b"]));
        r.insert(Tuple::consts(["a", "c"]));
        r.insert(Tuple::consts(["d", "b"]));
        let rows: Vec<_> = r
            .rows_with(0, Value::constant("a"))
            .filter_map(|i| r.row(i))
            .collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(r.count_with(1, Value::constant("b")), 2);
        assert_eq!(r.count_with(1, Value::constant("zzz")), 0);
    }

    #[test]
    fn value_ids_are_readable_per_cell() {
        let mut r = Relation::new(2);
        r.insert(Tuple::consts(["a", "b"]));
        assert_eq!(r.value_id_at(0, 0).value(), Value::constant("a"));
        assert_eq!(r.value_id_at(0, 1).value(), Value::constant("b"));
    }

    #[test]
    fn substitute_rewrites_and_merges() {
        let n = Value::Null(NullId(0));
        let mut r = Relation::new(2);
        r.insert(Tuple::new(vec![n, Value::constant("b")]));
        r.insert(Tuple::consts(["a", "b"]));
        assert_eq!(r.len(), 2);
        // Substituting the null by "a" makes the two tuples collide.
        r.substitute(n, Value::constant("a"));
        assert_eq!(r.len(), 1);
        assert!(r.contains(&Tuple::consts(["a", "b"])));
    }

    #[test]
    fn remove_deletes_and_keeps_index_consistent() {
        let mut r = Relation::new(2);
        r.insert(Tuple::consts(["a", "b"]));
        r.insert(Tuple::consts(["a", "c"]));
        assert!(r.remove(&Tuple::consts(["a", "b"])));
        assert!(!r.remove(&Tuple::consts(["a", "b"])));
        assert_eq!(r.len(), 1);
        assert!(!r.contains(&Tuple::consts(["a", "b"])));
        // Index lookups skip the tombstone.
        assert_eq!(r.rows_with(0, Value::constant("a")).count(), 1);
        // Re-insertion works after removal.
        assert!(r.insert(Tuple::consts(["a", "b"])));
        assert_eq!(r.rows_with(0, Value::constant("a")).count(), 2);
    }

    #[test]
    fn substitute_noop_when_absent() {
        let mut r = Relation::new(1);
        r.insert(Tuple::consts(["x"]));
        r.substitute(Value::constant("q"), Value::constant("z"));
        assert_eq!(r.len(), 1);
        assert!(r.contains(&Tuple::consts(["x"])));
    }

    #[test]
    fn substitute_handles_repeated_occurrences() {
        let n = Value::Null(NullId(5));
        let mut r = Relation::new(3);
        r.insert(Tuple::new(vec![n, n, Value::constant("c")]));
        r.substitute(n, Value::constant("z"));
        assert!(r.contains(&Tuple::consts(["z", "z", "c"])));
        assert_eq!(r.len(), 1);
        // Index remains usable after substitution.
        assert_eq!(r.rows_with(0, Value::constant("z")).count(), 1);
        assert_eq!(r.rows_with(0, n).count(), 0);
    }

    #[test]
    fn equality_ignores_insertion_order() {
        let mut a = Relation::new(1);
        a.insert(Tuple::consts(["x"]));
        a.insert(Tuple::consts(["y"]));
        let mut b = Relation::new(1);
        b.insert(Tuple::consts(["y"]));
        b.insert(Tuple::consts(["x"]));
        assert_eq!(a, b);
    }

    #[test]
    fn epochs_partition_the_rows() {
        let mut r = Relation::new(1);
        r.insert_at(Tuple::consts(["a"]), 0);
        r.insert_at(Tuple::consts(["b"]), 1);
        r.insert_at(Tuple::consts(["c"]), 1);
        r.insert_at(Tuple::consts(["d"]), 3);
        let delta: Vec<_> = r.rows_in_window(1, 3).map(|(_, t)| t).collect();
        assert_eq!(delta, vec![Tuple::consts(["b"]), Tuple::consts(["c"])]);
        assert_eq!(r.window_size(0, 1), 1);
        assert_eq!(r.window_size(3, u64::MAX), 1);
        assert_eq!(r.rows_in_window(0, u64::MAX).count(), 4);
        // Re-inserting an existing tuple does not move it into the delta.
        assert!(!r.insert_at(Tuple::consts(["a"]), 5));
        assert_eq!(r.window_size(4, u64::MAX), 0);
    }

    #[test]
    fn epochs_are_clamped_monotone() {
        let mut r = Relation::new(1);
        r.insert_at(Tuple::consts(["a"]), 7);
        // A lower stamp is clamped up so the epoch sequence stays sorted.
        r.insert_at(Tuple::consts(["b"]), 2);
        assert_eq!(r.epoch_of(1), 7);
        assert_eq!(r.rows_in_window(7, 8).count(), 2);
    }

    #[test]
    fn insert_remove_cycles_do_not_grow_memory() {
        let mut r = Relation::new(2);
        // A few long-lived tuples sharing the churned value at attribute 0.
        for i in 0..4 {
            r.insert(Tuple::consts(["hot", &format!("keep{i}")]));
        }
        for i in 0..10_000 {
            let t = Tuple::consts(["hot", &format!("tmp{}", i % 3)]);
            r.insert(t.clone());
            r.remove(&t);
        }
        assert_eq!(r.len(), 4);
        // Tombstoned slots are compacted away, not accumulated.
        assert!(
            r.slot_count() <= 2 * COMPACT_MIN_SLOTS,
            "{}",
            r.slot_count()
        );
        // Index postings shed their dead ids too (the "hot" posting was
        // hit by every cycle).
        assert!(
            r.index_entry_count() <= 4 * COMPACT_MIN_SLOTS,
            "{}",
            r.index_entry_count()
        );
        assert_eq!(r.count_with(0, Value::constant("hot")), 4);
        assert_eq!(r.rows_with(0, Value::constant("hot")).count(), 4);
    }

    #[test]
    fn heap_estimate_tracks_growth_and_compaction() {
        let mut r = Relation::new(2);
        assert_eq!(r.heap_bytes(), 0);
        for i in 0..100 {
            r.insert(Tuple::consts([&format!("a{i}"), "b"]));
        }
        let full = r.heap_bytes();
        // Lower bound: 100 rows of 2 packed values can't fit in fewer
        // bytes than their raw column payload.
        assert!(full >= 100 * 2 * std::mem::size_of::<ValueId>(), "{full}");
        // Deletion eventually gives the memory back (full compaction).
        for i in 0..100 {
            r.remove(&Tuple::consts([&format!("a{i}"), "b"]));
        }
        assert!(r.heap_bytes() < full / 2, "{}", r.heap_bytes());
        // The incremental counters survived the churn.
        assert_eq!(r.heap_bytes(), r.recount_heap_bytes());
        let _ = r.index_entry_count();
    }

    #[test]
    fn index_counter_stays_in_sync_under_rewrites() {
        let n = Value::Null(NullId(9));
        let mut r = Relation::new(2);
        for i in 0..50 {
            r.insert(Tuple::new(vec![n, Value::constant(format!("v{i}"))]));
        }
        r.substitute(n, Value::constant("a"));
        let _ = r.index_entry_count(); // debug-asserts counter consistency
        assert_eq!(r.len(), 50);
        assert_eq!(r.heap_bytes(), r.recount_heap_bytes());
    }

    #[test]
    fn compaction_preserves_insertion_order_and_epochs() {
        let mut r = Relation::new(1);
        for i in 0u64..40 {
            r.insert_at(Tuple::consts([&format!("v{i}")]), i);
        }
        for i in 0..30 {
            r.remove(&Tuple::consts([&format!("v{i}")]));
        }
        let left: Vec<_> = r.iter().collect();
        assert_eq!(left.len(), 10);
        assert_eq!(left[0], Tuple::consts(["v30"]));
        assert_eq!(left[9], Tuple::consts(["v39"]));
        // Epoch windows still line up after the rebuild.
        assert_eq!(r.rows_in_window(35, u64::MAX).count(), 5);
    }

    #[test]
    fn groundness_counter_tracks_null_occurrences() {
        let n = Value::Null(NullId(1));
        let mut r = Relation::new(2);
        assert!(!r.has_nulls());
        r.insert(Tuple::new(vec![n, Value::constant("b")]));
        assert!(r.has_nulls());
        r.substitute(n, Value::constant("a"));
        assert!(!r.has_nulls());
        r.insert(Tuple::new(vec![n, n]));
        assert!(r.has_nulls());
        r.remove(&Tuple::new(vec![n, n]));
        assert!(!r.has_nulls());
    }

    #[test]
    fn arity_zero_relations_work() {
        let mut r = Relation::new(0);
        assert!(r.insert(Tuple::new(Vec::new())));
        assert!(!r.insert(Tuple::new(Vec::new())));
        assert_eq!(r.len(), 1);
        assert!(r.contains(&Tuple::new(Vec::new())));
        assert!(r.remove(&Tuple::new(Vec::new())));
        assert!(r.is_empty());
    }
}
