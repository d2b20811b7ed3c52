//! Block decomposition of instances with nulls (paper Def. 10, Prop. 1).
//!
//! The *graph of the nulls* of an instance `K` joins two nulls when they
//! co-occur in a tuple. A **block** is either (a) the set of tuples carrying
//! nulls from one connected component, or (b) the set of all null-free
//! tuples. Proposition 1: a homomorphism `K → I` exists iff each block maps
//! into `I` independently — nulls in different blocks never constrain each
//! other. Theorem 6 shows that for `C_tract` settings every block of
//! `I_can` has a constant number of nulls, which is what makes the
//! per-block homomorphism checks of `ExistsSolution` polynomial.

use pde_relational::{FxBuildHasher, Instance, NullId, RelId, Relation, Tuple, Value, ValueId};
use std::collections::HashMap;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A block of tuples, with its null inventory.
#[derive(Clone, Debug, Default)]
pub struct Block {
    /// The facts of the block.
    pub facts: Vec<(RelId, Tuple)>,
    /// The distinct nulls occurring in the block (empty for the ground
    /// block).
    pub nulls: Vec<NullId>,
}

impl Block {
    /// Number of facts.
    pub fn len(&self) -> usize {
        self.facts.len()
    }

    /// Is the block empty?
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }

    /// Is this the null-free (ground) block?
    pub fn is_ground(&self) -> bool {
        self.nulls.is_empty()
    }
}

/// Union-find over the nulls of an instance: each null gets a dense slot
/// in order of first occurrence, and the facts seen so far join the slots
/// of the nulls they share. [`blocks`] builds one per decomposition; the
/// incremental steps 2–3 of `ExistsSolution` keep one across inserts.
#[derive(Clone, Debug, Default)]
pub(crate) struct NullForest {
    slot_of: HashMap<NullId, u32, FxBuildHasher>,
    /// Parent of each slot; a root is its own parent.
    parent: Vec<u32>,
}

impl NullForest {
    /// Number of slots (distinct nulls seen).
    pub(crate) fn len(&self) -> usize {
        self.parent.len()
    }

    /// Root of slot `x`, halving the path.
    pub(crate) fn find(&mut self, mut x: u32) -> u32 {
        let parent = &mut self.parent;
        while parent[x as usize] != x {
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }

    /// Join the nulls of one fact: new nulls get fresh slots, and every
    /// null's tree joins the first null's. `merged(from, into)` sees each
    /// root that stops being one. Returns the slot of the fact's first
    /// null, or `None` for a ground fact.
    pub(crate) fn join(
        &mut self,
        nulls: impl IntoIterator<Item = NullId>,
        mut merged: impl FnMut(u32, u32),
    ) -> Option<u32> {
        let mut first = None;
        for n in nulls {
            let fresh = u32::try_from(self.parent.len()).expect("null count fits u32");
            let s = *self.slot_of.entry(n).or_insert(fresh);
            if s == fresh {
                self.parent.push(s); // a new slot is its own root
            }
            let f = *first.get_or_insert(s);
            let (root, into) = (self.find(s), self.find(f));
            if root != into {
                self.parent[root as usize] = into;
                merged(root, into);
            }
        }
        first
    }

    /// Every `(null, slot)` pair, in no particular order.
    fn slots(&self) -> impl Iterator<Item = (NullId, u32)> + '_ {
        self.slot_of.iter().map(|(n, s)| (*n, *s))
    }
}

/// Decompose `inst` into its blocks. The ground block (if non-empty) comes
/// first, followed by one block per connected component of the null graph,
/// in ascending order of their smallest null id; facts keep their order.
pub fn blocks(inst: &Instance) -> Vec<Block> {
    let mut span = pde_trace::span("blocks.decompose").field("facts", inst.fact_count());
    let mut forest = NullForest::default();
    // The ground block, and the other facts with their first null's slot.
    let mut ground = Block::default();
    let mut pending = Vec::new();
    let _ = inst.for_each_fact(|rel, ids| {
        let first = forest.join(ids.iter().filter_map(|id| id.value().as_null()), |_, _| {});
        let t = Tuple::new(ids.iter().map(|id| id.value()).collect::<Vec<_>>());
        match first {
            Some(f) => pending.push((rel, t, f)),
            None => ground.facts.push((rel, t)),
        }
        ControlFlow::Continue(())
    });
    // Visiting nulls in ascending order creates the blocks in order of
    // their smallest null, each listing its nulls in ascending order.
    let mut by_null: Vec<(NullId, u32)> = forest.slots().collect();
    by_null.sort_unstable();
    let mut out: Vec<Block> = (!ground.is_empty()).then_some(ground).into_iter().collect();
    let mut block_of = vec![usize::MAX; forest.len()];
    for (n, s) in by_null {
        let root = forest.find(s) as usize;
        if block_of[root] == usize::MAX {
            block_of[root] = out.len();
            out.push(Block::default());
        }
        out[block_of[root]].nulls.push(n);
    }
    for (rel, t, f) in pending {
        let b = block_of[forest.find(f) as usize];
        out[b].facts.push((rel, t));
    }
    span.record_field("blocks", out.len());
    out
}

/// Proposition 1, used by `ExistsSolution`: there is a homomorphism from
/// `from` to `to` iff each block of `from` maps into `to` independently.
pub fn blockwise_hom_exists(from: &Instance, to: &Instance) -> bool {
    check_blocks(&blocks(from), to, usize::MAX).is_ok()
}

/// [`check_blocks`] over a fresh decomposition of `from`, or `None` if
/// some block has no homomorphism into `to`.
pub fn collect_block_homs(
    from: &Instance,
    to: &Instance,
    parallel_threshold: usize,
) -> Option<HashMap<NullId, Value>> {
    check_blocks(&blocks(from), to, parallel_threshold).ok()
}

/// Map every block of `bs` into `to`, collecting the null map, or return
/// the index of the lowest block with no homomorphism. Blocks are mutually
/// independent (Prop. 1), so from `parallel_threshold` blocks on the checks
/// fan out over `std::thread::scope`; a failure lets every worker skip the
/// blocks above it, never the ones below.
pub fn check_blocks(
    bs: &[Block],
    to: &Instance,
    parallel_threshold: usize,
) -> Result<HashMap<NullId, Value>, usize> {
    // Relaxed: the index publishes no other data; maps return through join.
    let first_failed = AtomicUsize::new(usize::MAX);
    // Worker `first` of `stride` checks blocks `first`, `first + stride`, ….
    let run = |first: usize, stride: usize| {
        let mut out = HashMap::new();
        for (i, b) in bs.iter().enumerate().skip(first).step_by(stride) {
            // Past a lower failure `fetch_min` keeps that lower index.
            if first_failed.load(Ordering::Relaxed) < i || !check_block(to, i, b, &mut out) {
                first_failed.fetch_min(i, Ordering::Relaxed);
                break;
            }
        }
        out
    };
    let maps = if bs.len() < parallel_threshold {
        vec![run(0, 1)]
    } else {
        let threads = std::thread::available_parallelism().map_or(4, usize::from);
        let run = &run;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|w| scope.spawn(move || run(w, threads)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("block-check workers are panic-free"))
                .collect()
        })
    };
    match first_failed.into_inner() {
        usize::MAX => Ok(maps.into_iter().flatten().collect()),
        i => Err(i),
    }
}

/// Check block `b` (index `i`) against `to`, adding its null map to `out`.
pub(crate) fn check_block(
    to: &Instance,
    i: usize,
    b: &Block,
    out: &mut HashMap<NullId, Value>,
) -> bool {
    let _span = pde_trace::span("block.hom_search")
        .field("block", i)
        .field("nulls", b.nulls.len())
        .field("facts", b.len());
    if b.is_ground() {
        // A homomorphism fixes constants: the check is containment.
        return b.facts.iter().all(|(rel, t)| to.contains(*rel, t));
    }
    let mut m = Matcher {
        to,
        block: b,
        binding: vec![None; b.nulls.len()],
    };
    if !m.step(&mut (0..b.len()).collect()) {
        return false;
    }
    let bound = m.binding.iter().map(|id| id.expect("bound").value());
    out.extend(b.nulls.iter().copied().zip(bound));
    true
}

/// Backtracking matcher of a null-carrying block's facts into `to`. It
/// makes `instance_hom`'s choices in the same order, so both find the same
/// first homomorphism. A fact whose terms are all bound is a membership
/// test in a loop, not a recursive call: recursion depth is at most the
/// block's null count.
struct Matcher<'a> {
    to: &'a Instance,
    block: &'a Block,
    /// Binding of each null of `block.nulls`, by position.
    binding: Vec<Option<ValueId>>,
}

impl<'a> Matcher<'a> {
    /// Fact `ai`'s relation in `to` and its values.
    fn fact(&self, ai: usize) -> (&'a Relation, &'a [Value]) {
        let (rel, t) = &self.block.facts[ai];
        (self.to.relation(*rel), t.values())
    }

    /// `(attribute, id)` of every bound term of fact `ai`.
    fn bound(&self, ai: usize) -> impl Iterator<Item = (u16, ValueId)> + '_ {
        (0u16..).zip(self.fact(ai).1).filter_map(move |(attr, &v)| {
            let id = match v {
                Value::Null(n) => self.binding[self.block.nulls.binary_search(&n).ok()?]?,
                c => ValueId::pack(c),
            };
            Some((attr, id))
        })
    }

    /// Membership test of fact `ai`, whose terms are all bound.
    fn holds(&self, ai: usize) -> bool {
        let ids: Vec<ValueId> = self.bound(ai).map(|(_, id)| id).collect();
        self.fact(ai).0.contains_ids(&ids)
    }

    /// Match the facts of `remaining`; on failure `remaining` comes back
    /// in the order `instance_hom` leaves it.
    fn step(&mut self, remaining: &mut Vec<usize>) -> bool {
        let mut checked = Vec::new();
        let mut settled = false;
        let found = loop {
            // With every null bound the rest are membership tests whose
            // answer does not depend on their order; only a failure is
            // replayed in search order, to leave `remaining` as it would.
            if !settled && self.binding.iter().all(Option::is_some) {
                if remaining.iter().all(|&ai| self.holds(ai)) {
                    break true;
                }
                settled = true;
            }
            // `instance_hom`'s pick: connected (some term bound) first,
            // then the fewest candidate rows, then the earliest position;
            // `remaining` keeps its `swap_remove`/`push` discipline.
            let key = |ai: usize| {
                let rel = self.fact(ai).0;
                let counts = self.bound(ai).map(|(a, id)| rel.count_with_id(a, id));
                counts.fold((true, rel.len()), |(_, est), c| (false, est.min(c)))
            };
            let pick = (0..remaining.len()).min_by_key(|&p| key(remaining[p]));
            let ai = remaining.swap_remove(pick.expect("an unmatched fact remains"));
            if self.bound(ai).count() < self.fact(ai).1.len() {
                break self.expand(ai, remaining);
            }
            checked.push(ai);
            if !self.holds(ai) {
                break false;
            }
        };
        if !found {
            remaining.extend(checked.into_iter().rev());
        }
        found
    }

    /// Try every candidate row for fact `ai` (from the index of its most
    /// selective bound position), binding its free nulls and recursing.
    fn expand(&mut self, ai: usize, remaining: &mut Vec<usize>) -> bool {
        let (rel, values) = self.fact(ai);
        let anchor = (self.bound(ai))
            .map(|(attr, id)| (rel.count_with_id(attr, id), attr, id))
            .min_by_key(|&(count, _, _)| count);
        let anchored = anchor.map(|(_, attr, id)| rel.rows_with_id(attr, id));
        let unanchored = anchor.is_none().then(|| rel.live_row_ids());
        let rows = anchored
            .into_iter()
            .flatten()
            .chain(unanchored.into_iter().flatten());
        let before = self.binding.clone();
        for r in rows {
            let ok = (0u16..).zip(values).all(|(attr, &v)| {
                let id = rel.value_id_at(r, attr);
                match v {
                    // A free null binds here; later occurrences compare.
                    Value::Null(n) => (self.block.nulls)
                        .binary_search(&n)
                        .is_ok_and(|s| *self.binding[s].get_or_insert(id) == id),
                    c => ValueId::pack(c) == id,
                }
            });
            if ok && self.step(remaining) {
                return true;
            }
            self.binding.clone_from(&before);
        }
        remaining.push(ai);
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pde_relational::{instance_hom, instance_hom_exists, parse_instance, parse_schema, Schema};
    use proptest::prelude::*;
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Arc::new(parse_schema("source E/2;").unwrap())
    }

    fn block_instance(schema: &Arc<Schema>, b: &Block) -> Instance {
        let mut out = Instance::new(schema.clone());
        for (rel, t) in &b.facts {
            out.insert(*rel, t.clone());
        }
        out
    }

    #[test]
    fn ground_instance_is_one_block() {
        let s = schema();
        let i = parse_instance(&s, "E(a, b). E(b, c).").unwrap();
        let bs = blocks(&i);
        assert_eq!(bs.len(), 1);
        assert!(bs[0].is_ground());
        assert_eq!(bs[0].len(), 2);
    }

    #[test]
    fn connected_nulls_share_a_block() {
        let s = schema();
        // ?0-?1 linked via a tuple; ?2 separate; (a, b) ground.
        let i = parse_instance(&s, "E(?0, ?1). E(?1, a). E(?2, b). E(a, b).").unwrap();
        let bs = blocks(&i);
        assert_eq!(bs.len(), 3);
        assert!(bs[0].is_ground());
        assert_eq!(bs[1].nulls, vec![NullId(0), NullId(1)]);
        assert_eq!(bs[1].len(), 2);
        assert_eq!(bs[2].nulls, vec![NullId(2)]);
    }

    #[test]
    fn transitive_connection_through_tuples() {
        let s = schema();
        // ?0-?1 in one tuple, ?1-?2 in another: all three connected.
        let i = parse_instance(&s, "E(?0, ?1). E(?1, ?2).").unwrap();
        let bs = blocks(&i);
        assert_eq!(bs.len(), 1);
        assert_eq!(bs[0].nulls.len(), 3);
    }

    #[test]
    fn blocks_order_by_smallest_null_and_keep_fact_order() {
        let s = schema();
        // ?5 is met first, but ?1's block sorts first; ?7 joins ?1 late.
        let i = parse_instance(&s, "E(?5, a). E(?1, b). E(?7, c). E(?7, ?1). E(?5, d).").unwrap();
        let bs = blocks(&i);
        assert_eq!(bs.len(), 2);
        assert_eq!(bs[0].nulls, vec![NullId(1), NullId(7)]);
        let facts: Vec<String> = bs[0].facts.iter().map(|(_, t)| t.to_string()).collect();
        assert_eq!(facts, ["(_N1, b)", "(_N7, c)", "(_N7, _N1)"]);
        assert_eq!(bs[1].nulls, vec![NullId(5)]);
        assert_eq!(bs[1].len(), 2);
    }

    #[test]
    fn blocks_partition_the_facts() {
        let s = schema();
        let i = parse_instance(&s, "E(?0, a). E(?1, b). E(c, d). E(?0, ?1).").unwrap();
        let bs = blocks(&i);
        let total: usize = bs.iter().map(Block::len).sum();
        assert_eq!(total, i.fact_count());
        let mut union = Instance::new(s.clone());
        for b in &bs {
            union = union.union(&block_instance(&s, b));
        }
        assert!(union.same_facts(&i));
    }

    #[test]
    fn proposition1_agrees_with_direct_hom() {
        let s = schema();
        let ground = parse_instance(&s, "E(a, b). E(b, a). E(c, c).").unwrap();
        for pat_src in [
            "E(?0, ?1). E(?1, ?0).",          // maps onto the 2-cycle
            "E(?0, ?0).",                     // needs the self-loop
            "E(?0, ?1). E(?1, ?2).",          // path of length 2
            "E(?0, a).",                      // anchored at constant a
            "E(a, c).",                       // absent ground fact
            "E(?0, ?1). E(?2, ?2). E(a, b).", // mixed blocks
        ] {
            let pat = parse_instance(&s, pat_src).unwrap();
            assert_eq!(
                blockwise_hom_exists(&pat, &ground),
                instance_hom_exists(&pat, &ground),
                "{pat_src}"
            );
        }
    }

    #[test]
    fn collect_block_homs_sequential_and_parallel_agree() {
        let s = schema();
        let ground = parse_instance(&s, "E(a, b). E(b, a). E(c, c).").unwrap();
        // Many independent 1-null blocks plus a ground block.
        let mut src = String::from("E(a, b). ");
        for i in 0..100 {
            src.push_str(&format!("E(?{i}, a). "));
        }
        let pat = parse_instance(&s, &src).unwrap();
        let seq = collect_block_homs(&pat, &ground, usize::MAX).unwrap();
        let par = collect_block_homs(&pat, &ground, 1).unwrap();
        assert_eq!(seq, par);
        let img = pat.map_values(|v| match v {
            Value::Null(n) => seq[&n],
            c => c,
        });
        assert!(img.contained_in(&ground));
    }

    #[test]
    fn lowest_failing_block_is_reported_sequentially_and_in_parallel() {
        let s = schema();
        let ground = parse_instance(&s, "E(a, b). E(b, a).").unwrap();
        // Blocks 1.. are ?i's; those with a c-edge have no image.
        let mut src = String::from("E(a, b). ");
        for i in 0..200 {
            let target = if [37, 90, 151].contains(&i) { "c" } else { "a" };
            src.push_str(&format!("E(?{i}, {target}). "));
        }
        let pat = parse_instance(&s, &src).unwrap();
        let bs = blocks(&pat);
        assert_eq!(check_blocks(&bs, &ground, usize::MAX), Err(38));
        for _ in 0..8 {
            assert_eq!(check_blocks(&bs, &ground, 1), Err(38));
        }
        // A failing ground block is block 0 on both paths.
        let bad_ground = parse_instance(&s, &src.replacen("E(a, b)", "E(a, c)", 1)).unwrap();
        let bs = blocks(&bad_ground);
        assert_eq!(check_blocks(&bs, &ground, usize::MAX), Err(0));
        assert_eq!(check_blocks(&bs, &ground, 1), Err(0));
    }

    #[test]
    fn large_blocks_fit_a_small_stack() {
        let s = schema();
        let e = s.rel_id("E").unwrap();
        let hub = Value::constant("hub");
        let mut to = Instance::new(s.clone());
        let mut ground = Instance::new(s.clone());
        let mut one_null = Instance::new(s.clone());
        for i in 0..20_000 {
            let c = Value::constant(format!("c{i}"));
            to.insert(e, Tuple::new(vec![c, hub]));
            ground.insert(e, Tuple::new(vec![c, hub]));
            one_null.insert(e, Tuple::new(vec![c, Value::Null(NullId(0))]));
        }
        // Recursion depth is bounded by the nulls of a block, not its facts.
        std::thread::Builder::new()
            .stack_size(256 << 10)
            .spawn(move || {
                let h = collect_block_homs(&ground, &to, usize::MAX).unwrap();
                assert!(h.is_empty());
                let h = collect_block_homs(&one_null, &to, usize::MAX).unwrap();
                assert_eq!(h[&NullId(0)], hub);
            })
            .unwrap()
            .join()
            .unwrap();
    }

    /// A fact over `R/2` or `S/3`: terms below 3 are the constants a, b,
    /// c; the rest are nulls, folded onto `?0..?nulls`.
    fn fact_text(rel: u32, terms: [u32; 3], nulls: u32) -> String {
        let term = |t: u32| match t {
            0..=2 => ["a", "b", "c"][t as usize].to_string(),
            t => format!("?{}", (t - 3) % nulls),
        };
        let (name, arity) = [("R", 2), ("S", 3)][rel as usize];
        let args: Vec<String> = terms[..arity].iter().map(|&t| term(t)).collect();
        format!("{name}({}). ", args.join(", "))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// Dense targets over few constants give many ties and dead ends,
        /// which is where a divergent search order would show.
        #[test]
        fn block_check_finds_the_same_hom_as_instance_hom(
            pattern in prop::collection::vec((0u32..2, 0u32..8, 0u32..8, 0u32..8), 3..12),
            nulls in 1u32..5,
            target in prop::collection::vec((0u32..2, 0u32..3, 0u32..3, 0u32..3), 5..40),
        ) {
            let s = Arc::new(parse_schema("source R/2; source S/3;").unwrap());
            let from_src: String = pattern
                .iter()
                .map(|&(r, x, y, z)| fact_text(r, [x, y, z], nulls))
                .collect();
            let to_src: String = target
                .iter()
                .map(|&(r, x, y, z)| fact_text(r, [x, y, z], 1))
                .collect();
            let from = parse_instance(&s, &from_src).unwrap();
            let to = parse_instance(&s, &to_src).unwrap();
            for b in blocks(&from) {
                let expected = instance_hom(&block_instance(&s, &b), &to);
                let got = check_blocks(std::slice::from_ref(&b), &to, usize::MAX).ok();
                prop_assert_eq!(got, expected, "block {:?} into {}", b.facts, to_src);
            }
        }
    }
}
