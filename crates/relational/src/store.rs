//! Flat open-addressed storage primitives behind the columnar
//! [`crate::relation::Relation`].
//!
//! Three pieces live here, all keyed by raw packed words rather than by
//! hashing two-word `Value` enums through SipHash:
//!
//! * [`IdMap`] — a linear-probing `u32 → u32` map with the all-ones key
//!   reserved as the empty sentinel (packed [`ValueId`]s never produce it).
//! * [`ColumnIndex`] — one per attribute: `ValueId → row-id list`, with
//!   single-row postings *inlined* into the map payload (most columns are
//!   nearly unique, so the common case costs 8 bytes per distinct value and
//!   one probe per lookup) and multi-row postings spilled to shared bucket
//!   storage with per-bucket dead counters and half-dead compaction.
//! * [`RowSet`] — the membership/dedup set over live rows, storing row ids
//!   open-addressed under a content hash of the row's packed ids; equality
//!   is delegated to the caller, which compares columns directly.
//!
//! There is also [`FxBuildHasher`], a multiply-rotate hasher for the
//! crate-internal hash maps that sit on hot paths (variable assignments,
//! union-find parents), where SipHash's per-lookup cost is measurable.
//!
//! Garbage is bounded by the relation-level full rebuild that triggers once
//! tombstones outnumber live rows (see `relation.rs`). While a savepoint is
//! open, [`ColumnIndex`] logs the inverse of each change it makes instead
//! of compacting, so a rollback restores its postings exactly; the only
//! key deletion, [`IdMap::remove`], exists for that undo.

use crate::value::ValueId;

/// Empty-slot sentinel for [`IdMap`] keys and [`RowSet`] slots. Reserved:
/// packed value ids and row ids never reach it.
const EMPTY: u32 = u32::MAX;

/// Deleted-slot sentinel for [`RowSet`] (row ids are bounded below it by
/// the relation overflow check).
const TOMB: u32 = u32::MAX - 1;

/// Mix a 32-bit key so the masked low bits of the product vary with every
/// input bit (plain multiplicative hashing mixes poorly downward).
fn hash32(k: u32) -> usize {
    let h = k.wrapping_mul(0x9E37_79B9);
    (h ^ (h >> 16)) as usize
}

/// Low bits of a 64-bit content hash as a table offset. Tables stay far
/// below 2^32 slots, so the truncation only discards bits the mask would.
#[allow(clippy::cast_possible_truncation)]
fn slot_of(hash: u64) -> usize {
    hash as usize
}

/// FNV-1a over a stream of packed ids — the row content hash used by
/// [`RowSet`]. Word-at-a-time keeps it cheap for the short rows of a
/// relational instance.
pub(crate) fn hash_ids(ids: impl Iterator<Item = ValueId>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for id in ids {
        h = (h ^ u64::from(id.raw())).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Linear-probing `u32 → u32` map with power-of-two capacity and no
/// deletion. The all-ones key is the empty sentinel. Each key sits next to
/// its value, so a probe that finds its key has the value in the same
/// cache line.
#[derive(Clone, Debug, Default)]
pub(crate) struct IdMap {
    slots: Vec<(u32, u32)>,
    len: usize,
}

impl IdMap {
    /// Slot holding `key`, or the empty slot where it would be inserted.
    /// Requires a non-empty table.
    fn probe(&self, key: u32) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = hash32(key) & mask;
        loop {
            let k = self.slots[i].0;
            if k == key || k == EMPTY {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// The value stored under `key`.
    pub fn get(&self, key: u32) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let (k, v) = self.slots[self.probe(key)];
        (k == key).then_some(v)
    }

    /// Insert or overwrite; returns the previous value if the key existed.
    pub fn set(&mut self, key: u32, val: u32) -> Option<u32> {
        debug_assert_ne!(key, EMPTY, "reserved sentinel used as a key");
        if self.slots.len() < 2 * (self.len + 1) {
            self.grow();
        }
        let i = self.probe(key);
        let old = std::mem::replace(&mut self.slots[i], (key, val));
        if old.0 == key {
            return Some(old.1);
        }
        self.len += 1;
        None
    }

    /// Overwrite the value of a key known to be present, without the
    /// growth check of [`IdMap::set`].
    fn replace(&mut self, key: u32, val: u32) {
        let i = self.probe(key);
        debug_assert_eq!(self.slots[i].0, key, "replacing an absent key");
        self.slots[i].1 = val;
    }

    /// Delete `key` (known present) by backward-shift deletion: later
    /// members of its probe cluster move up into the hole when their home
    /// slot allows it, so no tombstone is left behind. Deleting the most
    /// recently inserted key restores the table's previous layout.
    fn remove(&mut self, key: u32) {
        let mask = self.slots.len() - 1;
        let mut hole = self.probe(key);
        debug_assert_eq!(self.slots[hole].0, key, "removing an absent key");
        self.len -= 1;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let k = self.slots[j].0;
            if k == EMPTY {
                break;
            }
            // The entry at `j` may fill the hole unless its home slot lies
            // cyclically in `(hole, j]`.
            let home = hash32(k) & mask;
            let stays = if hole <= j {
                hole < home && home <= j
            } else {
                hole < home || home <= j
            };
            if !stays {
                self.slots[hole] = self.slots[j];
                hole = j;
            }
        }
        self.slots[hole] = (EMPTY, 0);
    }

    /// Double the table (or allocate the first 8 slots) and rehash.
    fn grow(&mut self) {
        self.rehash((self.slots.len() * 2).max(8));
    }

    /// Rehash every entry into a fresh table of `cap` slots (a power of
    /// two with room to spare for the entries).
    fn rehash(&mut self, cap: usize) {
        let old = std::mem::replace(&mut self.slots, vec![(EMPTY, 0); cap]);
        for (k, v) in old {
            if k == EMPTY {
                continue;
            }
            let i = self.probe(k);
            self.slots[i] = (k, v);
        }
    }

    /// Allocated slot count.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Iterate over `(key, value)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.slots.iter().copied().filter(|(k, _)| *k != EMPTY)
    }
}

/// Payload tag for [`ColumnIndex`] map values: bit 31 set means the low 31
/// bits are a single inlined row id; clear means they index into `spill`.
const INLINE: u32 = 1 << 31;
/// An inlined posting whose only row has died and been reclaimed.
const INLINE_TOMB: u32 = u32::MAX;
/// Largest row id that can be inlined (bigger ones always spill).
const INLINE_MAX_ROW: u32 = INLINE - 2;

/// A spilled multi-row posting list with its dead counter.
#[derive(Clone, Debug, Default)]
struct Bucket {
    rows: Vec<u32>,
    dead: u32,
}

/// Iterator over the row ids of one posting list.
pub(crate) enum Rows<'a> {
    /// No posting for the key.
    None,
    /// A single inlined row.
    One(u32),
    /// A spilled bucket.
    Many(std::slice::Iter<'a, u32>),
}

impl Iterator for Rows<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        match self {
            Rows::None => None,
            Rows::One(r) => {
                let r = *r;
                *self = Rows::None;
                Some(r)
            }
            Rows::Many(it) => it.next().copied(),
        }
    }
}

/// Per-attribute index: `ValueId → row ids carrying it at this position`.
///
/// Single-row postings are inlined into the [`IdMap`] payload; multi-row
/// postings live in `spill`, whose slots are recycled through a free list
/// when half-dead compaction empties a bucket. Keys are never removed —
/// a key whose rows all died is left as a tombstoned posting and reclaimed
/// only by the relation-level full rebuild.
#[derive(Clone, Debug, Default)]
pub(crate) struct ColumnIndex {
    map: IdMap,
    spill: Vec<Bucket>,
    free: Vec<u32>,
    /// Row ids stored across all postings, dead ones included (mirrors the
    /// relation's incremental `index_entries` accounting).
    entries: usize,
    /// Open savepoints and the inverse of every change made since the
    /// oldest one.
    trail: Trail<IndexMark, IndexUndo>,
}

/// The undo state of open savepoints: one mark per savepoint, and a log of
/// inverse operations recorded since the oldest mark. A clone starts with
/// no open savepoints, so cloning never copies undo history.
#[derive(Debug)]
pub(crate) struct Trail<M, U> {
    pub marks: Vec<M>,
    pub log: Vec<U>,
}

impl<M, U> Default for Trail<M, U> {
    fn default() -> Self {
        Trail {
            marks: Vec::new(),
            log: Vec::new(),
        }
    }
}

impl<M, U> Clone for Trail<M, U> {
    fn clone(&self) -> Self {
        Trail::default()
    }
}

impl<M, U> Trail<M, U> {
    /// Is a savepoint open (changes must be logged, compaction held off)?
    pub fn is_open(&self) -> bool {
        !self.marks.is_empty()
    }

    /// Log `undo` if a savepoint is open.
    fn record(&mut self, undo: U) {
        if self.is_open() {
            self.log.push(undo);
        }
    }
}

/// What a [`ColumnIndex`] savepoint must restore besides its undo log.
#[derive(Clone, Copy, Debug)]
struct IndexMark {
    log_len: usize,
    entries: usize,
    map_capacity: usize,
    spill_capacity: usize,
}

/// The inverse of one change to a [`ColumnIndex`].
#[derive(Clone, Copy, Debug)]
enum IndexUndo {
    /// The key was inserted: delete it.
    NewKey(u32),
    /// The key's payload was overwritten: put the old one back.
    Payload(u32, u32),
    /// A spill bucket was allocated, from the free list or by a push.
    NewBucket { slot: u32, reused: bool },
    /// A row id was pushed onto a spill bucket: pop it.
    Push(u32),
    /// A spill bucket's dead counter was bumped: lower it.
    Dead(u32),
}

impl ColumnIndex {
    /// Record that `row` carries `id` at this attribute. O(1) amortized.
    pub fn insert(&mut self, id: ValueId, row: u32) {
        self.entries += 1;
        let key = id.raw();
        let Some(cur) = self.map.get(key) else {
            if row <= INLINE_MAX_ROW {
                self.map.set(key, INLINE | row);
            } else {
                let slot = self.new_bucket(vec![row]);
                self.map.set(key, slot);
            }
            self.trail.record(IndexUndo::NewKey(key));
            return;
        };
        if cur == INLINE_TOMB {
            self.map.set(key, INLINE | row);
            self.trail.record(IndexUndo::Payload(key, cur));
        } else if cur & INLINE != 0 {
            let slot = self.new_bucket(vec![cur & !INLINE, row]);
            self.map.set(key, slot);
            self.trail.record(IndexUndo::Payload(key, cur));
        } else {
            self.spill[cur as usize].rows.push(row);
            self.trail.record(IndexUndo::Push(cur));
        }
    }

    /// Allocate a spill bucket (reusing a freed slot when available).
    fn new_bucket(&mut self, rows: Vec<u32>) -> u32 {
        let (slot, reused) = if let Some(slot) = self.free.pop() {
            self.spill[slot as usize] = Bucket { rows, dead: 0 };
            (slot, true)
        } else {
            let slot = u32::try_from(self.spill.len()).expect("index spill overflow");
            assert!(slot & INLINE == 0, "index spill overflow");
            self.spill.push(Bucket { rows, dead: 0 });
            (slot, false)
        };
        self.trail.record(IndexUndo::NewBucket { slot, reused });
        slot
    }

    /// The posting list for `id`, dead rows included.
    pub fn rows(&self, id: ValueId) -> Rows<'_> {
        match self.map.get(id.raw()) {
            None | Some(INLINE_TOMB) => Rows::None,
            Some(v) if v & INLINE != 0 => Rows::One(v & !INLINE),
            Some(v) => Rows::Many(self.spill[v as usize].rows.iter()),
        }
    }

    /// Exact number of live rows carrying `id`, given a liveness oracle
    /// (only consulted for inlined postings; spilled buckets keep exact
    /// dead counters). O(1).
    pub fn count_live(&self, id: ValueId, is_live: impl Fn(u32) -> bool) -> usize {
        match self.map.get(id.raw()) {
            None | Some(INLINE_TOMB) => 0,
            Some(v) if v & INLINE != 0 => usize::from(is_live(v & !INLINE)),
            Some(v) => {
                let b = &self.spill[v as usize];
                b.rows.len() - b.dead as usize
            }
        }
    }

    /// Record that `row` (carrying `id` here) was tombstoned. An inlined
    /// posting is reclaimed immediately; a spilled bucket bumps its dead
    /// counter and compacts once half its rows are dead (emptied buckets
    /// return to the free list) — unless a savepoint is open, since a
    /// rollback may revive the row. Returns how many stored entries were
    /// dropped, for the relation's `index_entries` accounting.
    pub fn mark_dead(&mut self, id: ValueId, row: u32, is_live: impl Fn(u32) -> bool) -> usize {
        let key = id.raw();
        let Some(cur) = self.map.get(key) else {
            return 0;
        };
        if cur & INLINE != 0 {
            if cur != INLINE_TOMB && (cur & !INLINE) == row {
                self.map.set(key, INLINE_TOMB);
                self.trail.record(IndexUndo::Payload(key, cur));
                self.entries -= 1;
                return 1;
            }
            return 0;
        }
        let b = &mut self.spill[cur as usize];
        b.dead += 1;
        if self.trail.is_open() {
            self.trail.log.push(IndexUndo::Dead(cur));
            return 0;
        }
        if 2 * (b.dead as usize) < b.rows.len() {
            return 0;
        }
        let before = b.rows.len();
        b.rows.retain(|r| is_live(*r));
        b.dead = 0;
        let dropped = before - b.rows.len();
        self.entries -= dropped;
        if b.rows.is_empty() {
            b.rows = Vec::new();
            self.map.set(key, INLINE_TOMB);
            self.free.push(cur);
        }
        dropped
    }

    /// Open a savepoint: later changes are logged, and bucket compaction
    /// is held off until it is rolled back.
    pub fn savepoint(&mut self) {
        self.trail.marks.push(IndexMark {
            log_len: self.trail.log.len(),
            entries: self.entries,
            map_capacity: self.map.capacity(),
            spill_capacity: self.spill.capacity(),
        });
    }

    /// Roll back to the newest open savepoint and close it: undo the
    /// logged changes newest first, then give back any table or spill
    /// capacity grown since. Postings come back with the same row ids in
    /// the same order, and [`ColumnIndex::heap_bytes`] returns to its value
    /// at the savepoint.
    pub fn rollback(&mut self) {
        let mark = self
            .trail
            .marks
            .pop()
            .expect("rollback without a savepoint");
        while self.trail.log.len() > mark.log_len {
            match self.trail.log.pop().expect("log longer than the mark") {
                IndexUndo::NewKey(key) => self.map.remove(key),
                IndexUndo::Payload(key, old) => self.map.replace(key, old),
                IndexUndo::NewBucket { slot, reused } => {
                    if reused {
                        self.spill[slot as usize] = Bucket::default();
                        self.free.push(slot);
                    } else {
                        self.spill.pop();
                    }
                }
                IndexUndo::Push(slot) => {
                    self.spill[slot as usize].rows.pop();
                }
                IndexUndo::Dead(slot) => self.spill[slot as usize].dead -= 1,
            }
        }
        self.entries = mark.entries;
        if self.map.capacity() != mark.map_capacity {
            self.map.rehash(mark.map_capacity);
        }
        self.spill.shrink_to(mark.spill_capacity);
    }

    /// Total stored entries including dead ones (incremental counter).
    pub fn entry_count(&self) -> usize {
        self.entries
    }

    /// Recount stored entries from the structure itself (diagnostics; the
    /// relation's consistency assertions compare this to `entry_count`).
    pub fn recount_entries(&self) -> usize {
        self.map
            .iter()
            .map(|(_, v)| {
                if v == INLINE_TOMB {
                    0
                } else if v & INLINE != 0 {
                    1
                } else {
                    self.spill[v as usize].rows.len()
                }
            })
            .sum()
    }

    /// Heap bytes: map slots, spill bucket headers, and stored row ids with
    /// a factor-two slack covering the posting vectors' growth headroom.
    /// O(1) — this feeds the per-round governor charge.
    pub fn heap_bytes(&self) -> usize {
        self.map.capacity() * 8
            + self.spill.capacity() * std::mem::size_of::<Bucket>()
            + self.entries * 8
    }

    /// [`ColumnIndex::heap_bytes`] computed from a from-scratch entry
    /// recount instead of the incremental counter (drift diagnostics).
    pub fn recount_heap_bytes(&self) -> usize {
        self.map.capacity() * 8
            + self.spill.capacity() * std::mem::size_of::<Bucket>()
            + self.recount_entries() * 8
    }
}

/// Open-addressed membership set over live rows, keyed by a content hash of
/// each row's packed ids. Stores only row ids — equality and (re)hashing of
/// stored rows are delegated to caller closures reading the columns, so the
/// per-fact cost is four bytes plus load-factor slack.
#[derive(Clone, Debug, Default)]
pub(crate) struct RowSet {
    slots: Vec<u32>,
    len: usize,
    tombs: usize,
}

impl RowSet {
    /// The stored row equal (per `eq`) to the probe key hashing to `hash`.
    pub fn find(&self, hash: u64, eq: impl Fn(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = slot_of(hash) & mask;
        loop {
            match self.slots[i] {
                EMPTY => return None,
                TOMB => {}
                r => {
                    if eq(r) {
                        return Some(r);
                    }
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Insert `row` (known absent) under `hash`; `hash_of` recomputes the
    /// hash of a stored row when the table grows.
    pub fn insert(&mut self, hash: u64, row: u32, hash_of: impl Fn(u32) -> u64) {
        debug_assert!(row < TOMB, "row id collides with a reserved sentinel");
        if 8 * (self.len + self.tombs + 1) > 7 * self.slots.len() {
            self.grow(&hash_of);
        }
        let mask = self.slots.len() - 1;
        let mut i = slot_of(hash) & mask;
        while self.slots[i] != EMPTY && self.slots[i] != TOMB {
            i = (i + 1) & mask;
        }
        if self.slots[i] == TOMB {
            self.tombs -= 1;
        }
        self.slots[i] = row;
        self.len += 1;
    }

    /// Remove `row` stored under `hash`; returns whether it was present.
    pub fn remove(&mut self, hash: u64, row: u32) -> bool {
        if self.slots.is_empty() {
            return false;
        }
        let mask = self.slots.len() - 1;
        let mut i = slot_of(hash) & mask;
        loop {
            match self.slots[i] {
                EMPTY => return false,
                r if r == row => {
                    self.slots[i] = TOMB;
                    self.len -= 1;
                    self.tombs += 1;
                    return true;
                }
                _ => {}
            }
            i = (i + 1) & mask;
        }
    }

    /// Rehash into a table sized for the live entries (doubling when the
    /// load is real, merely clearing tombstones when it is churn).
    fn grow(&mut self, hash_of: impl Fn(u32) -> u64) {
        let cap = if 4 * (self.len + 1) >= 3 * self.slots.len() {
            (self.slots.len() * 2).max(8)
        } else {
            self.slots.len()
        };
        self.rehash(cap, hash_of);
    }

    /// Rehash the stored rows into a fresh table of `cap` slots (a power of
    /// two with room for them), dropping every tombstone.
    pub fn rehash(&mut self, cap: usize, hash_of: impl Fn(u32) -> u64) {
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; cap]);
        self.tombs = 0;
        if cap == 0 {
            debug_assert_eq!(self.len, 0, "rows left for an empty table");
            return;
        }
        let mask = cap - 1;
        for r in old {
            if r == EMPTY || r == TOMB {
                continue;
            }
            let mut i = slot_of(hash_of(r)) & mask;
            while self.slots[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = r;
        }
    }

    /// Number of stored rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Allocated slot count.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Heap bytes of the slot table. O(1).
    pub fn heap_bytes(&self) -> usize {
        self.slots.capacity() * 4
    }
}

/// A fast, non-cryptographic hasher (FxHash-style multiply-rotate) for
/// hash maps on hot paths: variable assignments in the homomorphism
/// search, union-find parent pointers, and the solvers' determined-fact
/// refcounts. Not DoS-resistant — use only on keys derived from interned
/// ids. Re-exported at the crate root for downstream hot paths.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher(u64);

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl std::hash::Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = std::hash::BuildHasherDefault<FxHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{NullId, Value};

    fn vid(i: u32) -> ValueId {
        ValueId::pack(Value::Null(NullId(i)))
    }

    #[test]
    fn idmap_set_get_grow() {
        let mut m = IdMap::default();
        assert_eq!(m.get(7), None);
        for k in 0..1000u32 {
            assert_eq!(m.set(k, k * 2), None);
        }
        for k in 0..1000u32 {
            assert_eq!(m.get(k), Some(k * 2));
        }
        assert_eq!(m.set(5, 99), Some(10));
        assert_eq!(m.get(5), Some(99));
        assert_eq!(m.len, 1000);
        assert!(m.capacity().is_power_of_two());
        assert_eq!(m.iter().count(), 1000);
    }

    #[test]
    fn idmap_remove_keeps_probe_chains_and_undoes_inserts_exactly() {
        let mut m = IdMap::default();
        for k in 0..40u32 {
            m.set(k * 7, k);
        }
        let before = m.slots.clone();
        // Removing the newest keys, newest first, restores the layout.
        for k in 40..48u32 {
            m.set(k * 7, k);
        }
        for k in (40..48u32).rev() {
            m.remove(k * 7);
        }
        assert_eq!(m.slots, before);
        // Arbitrary removals keep every other key reachable.
        for k in (0..40u32).step_by(3) {
            m.remove(k * 7);
        }
        for k in 0..40u32 {
            let want = (k % 3 != 0).then_some(k);
            assert_eq!(m.get(k * 7), want, "{k}");
        }
        assert_eq!(m.len, m.iter().count());
    }

    #[test]
    fn column_index_inlines_singletons_and_spills_duplicates() {
        let mut ix = ColumnIndex::default();
        ix.insert(vid(1), 10);
        assert_eq!(ix.rows(vid(1)).collect::<Vec<_>>(), vec![10]);
        assert_eq!(ix.count_live(vid(1), |_| true), 1);
        // Second row with the same value spills, preserving order.
        ix.insert(vid(1), 11);
        ix.insert(vid(1), 12);
        assert_eq!(ix.rows(vid(1)).collect::<Vec<_>>(), vec![10, 11, 12]);
        assert_eq!(ix.entry_count(), 3);
        assert_eq!(ix.recount_entries(), 3);
        assert_eq!(ix.rows(vid(9)).count(), 0);
    }

    #[test]
    fn column_index_reclaims_dead_postings() {
        let mut ix = ColumnIndex::default();
        ix.insert(vid(1), 0);
        assert_eq!(ix.mark_dead(vid(1), 0, |_| false), 1);
        assert_eq!(ix.rows(vid(1)).count(), 0);
        assert_eq!(ix.count_live(vid(1), |_| true), 0);
        // The tombstoned posting accepts a fresh row again.
        ix.insert(vid(1), 5);
        assert_eq!(ix.rows(vid(1)).collect::<Vec<_>>(), vec![5]);
        assert_eq!(ix.entry_count(), 1);
        assert_eq!(ix.recount_entries(), 1);
    }

    #[test]
    fn column_index_compacts_half_dead_buckets() {
        let mut ix = ColumnIndex::default();
        for r in 0..8 {
            ix.insert(vid(1), r);
        }
        // Kill rows 0..4; liveness says only 4.. are alive.
        let mut dropped = 0;
        for r in 0..4 {
            dropped += ix.mark_dead(vid(1), r, |x| x >= 4);
        }
        assert!(dropped >= 4, "{dropped}");
        assert_eq!(ix.rows(vid(1)).filter(|r| *r >= 4).count(), 4);
        assert_eq!(ix.entry_count(), ix.recount_entries());
    }

    #[test]
    fn rowset_insert_find_remove() {
        // Key rows by a toy content function: hash of the row id's value.
        let h = |r: u32| hash_ids(std::iter::once(vid(r)));
        let mut s = RowSet::default();
        for r in 0..500 {
            assert!(s.find(h(r), |x| x == r).is_none());
            s.insert(h(r), r, h);
        }
        assert_eq!(s.len(), 500);
        for r in 0..500 {
            assert_eq!(s.find(h(r), |x| x == r), Some(r));
        }
        for r in 0..250 {
            assert!(s.remove(h(r), r));
            assert!(!s.remove(h(r), r));
        }
        assert_eq!(s.len(), 250);
        // Churn through tombstones: the table rehashes rather than filling.
        for r in 1000..4000 {
            s.insert(h(r), r, h);
            assert!(s.remove(h(r), r));
        }
        assert_eq!(s.len(), 250);
        assert_eq!(s.find(h(250), |x| x == 250), Some(250));
    }

    #[test]
    fn hash_ids_depends_on_order_and_content() {
        let a = hash_ids([vid(1), vid(2)].into_iter());
        let b = hash_ids([vid(2), vid(1)].into_iter());
        let c = hash_ids([vid(1), vid(2)].into_iter());
        assert_eq!(a, c);
        assert_ne!(a, b);
    }
}
