//! Union-find over [`Value`]s for batched egd merging.
//!
//! An egd round of the semi-naive chase discovers many `l = r` violations
//! before touching the instance. Instead of rewriting the whole instance
//! once per violation (the naive engine's behavior), the violations are
//! accumulated in a [`ValueUnionFind`]; each equivalence class elects a
//! *canonical representative*: a constant when the class contains one,
//! and otherwise the representative of the right-hand class of the union
//! that formed it (see [`ValueUnionFind::union`]), so the surviving null
//! depends on the order the violations arrive in. The instance is then
//! rewritten once per round through
//! [`crate::instance::Instance::apply_merges`], which repairs only the
//! index buckets of the merged values.
//!
//! A class can hold at most one constant: uniting two distinct constants is
//! the chase's *failure* condition and surfaces as [`ConstMergeConflict`].

use crate::store::FxBuildHasher;
use crate::value::{Value, ValueId};
use std::collections::HashMap;

/// A union-find (disjoint-set) structure over values, with constants
/// always winning representative elections.
///
/// Stored over packed [`ValueId`]s in a fast integer-keyed map: resolving
/// runs once per candidate value in every egd round, so the per-lookup
/// constant matters.
#[derive(Clone, Debug, Default)]
pub struct ValueUnionFind {
    /// Parent pointers for non-root values only: absence means root.
    parent: HashMap<ValueId, ValueId, FxBuildHasher>,
}

/// Two distinct constants were equated — the chase failure condition
/// (paper Def. 6, egd case).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConstMergeConflict {
    /// One of the clashing constants.
    pub left: Value,
    /// The other clashing constant.
    pub right: Value,
}

impl ValueUnionFind {
    /// An empty union-find (every value is its own class).
    pub fn new() -> ValueUnionFind {
        ValueUnionFind::default()
    }

    /// The canonical representative of `v`'s class (`v` itself when it was
    /// never merged).
    pub fn resolve(&self, v: Value) -> Value {
        let mut cur = ValueId::pack(v);
        while let Some(p) = self.parent.get(&cur) {
            cur = *p;
        }
        cur.value()
    }

    /// Merge the classes of `l` and `r`.
    ///
    /// Returns `Ok(Some((from, to)))` when two distinct classes were united
    /// — `from` is the losing representative (always a null) and `to` the
    /// surviving one, matching the orientation the chase engine logs in its
    /// `StepRecord::Egd` provenance records;
    /// `Ok(None)` when the values were already in one class; and
    /// `Err(ConstMergeConflict)` when both classes are rooted at distinct
    /// constants.
    pub fn union(
        &mut self,
        l: Value,
        r: Value,
    ) -> Result<Option<(Value, Value)>, ConstMergeConflict> {
        let rl = self.resolve(l);
        let rr = self.resolve(r);
        if rl == rr {
            return Ok(None);
        }
        // Constants win the election; between two nulls the right-hand
        // side survives (the naive engine's `substitute(l, r)` orientation).
        let (from, to) = match (rl, rr) {
            (Value::Const(_), Value::Const(_)) => {
                return Err(ConstMergeConflict {
                    left: rl,
                    right: rr,
                })
            }
            (Value::Null(_), _) => (rl, rr),
            (_, Value::Null(_)) => (rr, rl),
        };
        self.parent.insert(ValueId::pack(from), ValueId::pack(to));
        Ok(Some((from, to)))
    }

    /// Number of effective merges recorded (non-root values).
    pub fn merge_count(&self) -> usize {
        self.parent.len()
    }

    /// Has nothing been merged?
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Every value whose class representative is not itself — exactly the
    /// values whose occurrences must be rewritten in the instance.
    pub fn dirty_values(&self) -> Vec<Value> {
        self.parent.keys().map(|id| id.value()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::NullId;

    fn n(i: u32) -> Value {
        Value::Null(NullId(i))
    }

    #[test]
    fn union_prefers_constants() {
        let mut uf = ValueUnionFind::new();
        let c = Value::constant("c");
        assert_eq!(uf.union(n(0), c), Ok(Some((n(0), c))));
        assert_eq!(uf.union(c, n(1)), Ok(Some((n(1), c))));
        assert_eq!(uf.resolve(n(0)), c);
        assert_eq!(uf.resolve(n(1)), c);
        assert_eq!(uf.merge_count(), 2);
    }

    #[test]
    fn union_is_transitive_and_idempotent() {
        let mut uf = ValueUnionFind::new();
        assert_eq!(uf.union(n(0), n(1)), Ok(Some((n(0), n(1)))));
        assert_eq!(uf.union(n(1), n(2)), Ok(Some((n(1), n(2)))));
        // 0 and 2 are already connected through 1.
        assert_eq!(uf.union(n(0), n(2)), Ok(None));
        assert_eq!(uf.resolve(n(0)), n(2));
        let mut dirty = uf.dirty_values();
        dirty.sort();
        assert_eq!(dirty, vec![n(0), n(1)]);
    }

    #[test]
    fn constant_clash_is_a_conflict() {
        let mut uf = ValueUnionFind::new();
        let a = Value::constant("a");
        let b = Value::constant("b");
        uf.union(n(0), a).unwrap();
        uf.union(n(1), b).unwrap();
        // n(0) ~ a, n(1) ~ b: equating the nulls equates a and b.
        assert_eq!(
            uf.union(n(0), n(1)),
            Err(ConstMergeConflict { left: a, right: b })
        );
        // Same-constant unions are fine.
        assert_eq!(uf.union(n(2), a), Ok(Some((n(2), a))));
        assert_eq!(uf.union(n(2), a), Ok(None));
    }

    #[test]
    fn losing_representative_is_always_a_null() {
        let mut uf = ValueUnionFind::new();
        let c = Value::constant("c");
        for (l, r) in [(c, n(5)), (n(6), n(7)), (n(7), c)] {
            if let Ok(Some((from, _))) = uf.union(l, r) {
                assert!(from.is_null());
            }
        }
        assert!(uf.resolve(n(5)) == c && uf.resolve(n(6)) == c && uf.resolve(n(7)) == c);
    }
}
