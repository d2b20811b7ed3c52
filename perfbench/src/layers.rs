//! Per-layer accounting for the traced run: wall time spent inside each
//! layer's public functions, as timed by the benchmark around its calls,
//! plus the work counters those functions return.

use crate::stats::{ms, ratio, Metrics, Samples};
use pde_chase::ChaseStats;
use std::time::Duration;

/// Time spent in each layer's public functions.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// `Bundle::parse_with_warnings`, `parse_instance`, `parse_query`.
    pub parse: Duration,
    /// `analyze_setting`.
    pub lint: Duration,
    /// `optimize_setting`.
    pub optimize: Duration,
    /// `plan_setting` (with the active-domain count it takes) and
    /// `forward_schedule`.
    pub plan: Duration,
    /// Fig. 3 step 1: the Σst chase.
    pub chase_st: Duration,
    /// Fig. 3 step 2: the Σts chase of `J_can`.
    pub chase_ts: Duration,
    /// The data-exchange chase of Σst ∪ Σt.
    pub chase_forward: Duration,
    /// Serve's Σst fixpoint upkeep: incremental or full re-chase.
    pub chase_refresh: Duration,
    /// `blocks` over `I_can`.
    pub blocks: Duration,
    /// `blocks::collect_block_homs` of `I_can` into `I`.
    pub block_hom: Duration,
    /// `assignment_solve` and `generic::solve`.
    pub search: Duration,
    /// `certain_answers`.
    pub certain: Duration,
    /// `InstanceStore::commit`.
    pub commit: Duration,
    /// `InstanceStore::checkpoint`.
    pub checkpoint: Duration,
}

impl Layers {
    /// Sum of every layer's time.
    pub fn total(&self) -> Duration {
        self.parse
            + self.lint
            + self.optimize
            + self.plan
            + self.chase_st
            + self.chase_ts
            + self.chase_forward
            + self.chase_refresh
            + self.blocks
            + self.block_hom
            + self.search
            + self.certain
            + self.commit
            + self.checkpoint
    }
}

/// Work counters. Every field except `peak_instance_bytes` and
/// `engine_fallbacks` is deterministic: runs of one commit on one seed must
/// repeat it exactly (see [`EXACT_COUNTS`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Chase rounds.
    pub rounds: usize,
    /// Premise matches examined as triggers.
    pub triggers_found: usize,
    /// Triggers applied.
    pub triggers_fired: usize,
    /// Matches the semi-naive delta windows never revisited.
    pub skipped_by_delta: usize,
    /// Egd merges applied.
    pub egd_merges: usize,
    /// Serve's incremental Σst re-chases.
    pub incremental_rechases: usize,
    /// Serve's full Σst re-chases.
    pub full_rechases: usize,
    /// Blocks of `I_can`.
    pub block_count: usize,
    /// Facts in the all-ground block of `I_can`.
    pub ground_block_facts: usize,
    /// Most nulls in one block (max over calls).
    pub max_block_nulls: usize,
    /// Search-tree branches.
    pub search_branches: usize,
    /// Branches cut before expansion.
    pub search_prunes: usize,
    /// Complete candidates checked at leaves.
    pub candidates_checked: usize,
    /// Solutions the certain-answer enumeration examined.
    pub solutions_examined: usize,
    /// Durable store commits.
    pub commits: usize,
    /// Journal bytes at the end of the replay.
    pub journal_bytes: u64,
    /// Largest chased instance, in heap bytes (a gauge).
    pub peak_instance_bytes: usize,
    /// Naive-engine retries reported by `SolveReport::engine_fallback`.
    pub engine_fallbacks: usize,
}

/// The per-layer counters that must repeat exactly across runs of one
/// commit on one seed and workload.
pub const EXACT_COUNTS: [&str; 16] = [
    "chase.rounds",
    "chase.triggers_found",
    "chase.triggers_fired",
    "chase.skipped_by_delta",
    "chase.egd_merges",
    "chase.incremental_rechases",
    "chase.full_rechases",
    "core.block_count",
    "core.ground_block_facts",
    "core.max_block_nulls",
    "core.search_branches",
    "core.search_prunes",
    "core.candidates_checked",
    "core.solutions_examined",
    "store.commits",
    "store.journal_bytes",
];

impl Counts {
    /// Fold in one chase run's engine counters.
    pub fn chase(&mut self, s: &ChaseStats) {
        self.rounds += s.rounds;
        self.triggers_found += s.triggers_found;
        self.triggers_fired += s.triggers_fired;
        self.skipped_by_delta += s.skipped_by_delta;
        self.egd_merges += s.egd_merges;
    }

    /// Fold in another set of counters (sums; gauges take the max).
    pub fn absorb(&mut self, o: &Counts) {
        self.rounds += o.rounds;
        self.triggers_found += o.triggers_found;
        self.triggers_fired += o.triggers_fired;
        self.skipped_by_delta += o.skipped_by_delta;
        self.egd_merges += o.egd_merges;
        self.incremental_rechases += o.incremental_rechases;
        self.full_rechases += o.full_rechases;
        self.block_count += o.block_count;
        self.ground_block_facts += o.ground_block_facts;
        self.max_block_nulls = self.max_block_nulls.max(o.max_block_nulls);
        self.search_branches += o.search_branches;
        self.search_prunes += o.search_prunes;
        self.candidates_checked += o.candidates_checked;
        self.solutions_examined += o.solutions_examined;
        self.commits += o.commits;
        self.journal_bytes = self.journal_bytes.max(o.journal_bytes);
        self.peak_instance_bytes = self.peak_instance_bytes.max(o.peak_instance_bytes);
        self.engine_fallbacks += o.engine_fallbacks;
    }

    /// Record the blocks of one `I_can`.
    pub fn blocks(&mut self, blocks: &[pde_core::Block]) {
        self.block_count += blocks.len();
        self.ground_block_facts += blocks
            .iter()
            .filter(|b| b.is_ground())
            .map(pde_core::Block::len)
            .sum::<usize>();
        let widest = blocks.iter().map(|b| b.nulls.len()).max().unwrap_or(0);
        self.max_block_nulls = self.max_block_nulls.max(widest);
    }
}

/// What only the serve workload measures.
#[derive(Clone, Debug, Default)]
pub struct ServeLayer {
    /// Client-observed latency of each request kind, in ms.
    pub solve_ms: Samples,
    /// Insert latency, ms.
    pub insert_ms: Samples,
    /// Certain latency, ms.
    pub certain_ms: Samples,
    /// `InstanceStore::commit` latency, µs.
    pub commit_us: Samples,
    /// `InstanceStore::checkpoint` latency, ms.
    pub checkpoint_ms: Samples,
    /// The real restart's `InstanceStore::open`, ms.
    pub recover_ms: Samples,
    /// Journal plus snapshot bytes per base fact after a session.
    pub disk_bytes_per_fact: Samples,
    /// Request latency minus the replayed layer time, µs.
    pub framing_us: Samples,
}

/// Every per-layer metric, in `BENCHMARK.json` order. Layer times are per
/// job (batch) or per request (serve): `units` is that count.
pub fn per_layer_metrics(
    l: &Layers,
    units: usize,
    c: &Counts,
    s: &ServeLayer,
    coverage: f64,
) -> Metrics {
    let per = |d: Duration| ratio(ms(d), units as f64);
    let p = |x: &Samples, q: f64| crate::stats::quantile(&x.values, q).unwrap_or(0.0);
    let n = |x: usize| x as f64;
    let mut m = Metrics::default();
    m.put("relational.parse_ms", per(l.parse), "ms");
    m.put("analysis.lint_ms", per(l.lint), "ms");
    m.put("analysis.optimize_ms", per(l.optimize), "ms");
    m.put("analysis.plan_ms", per(l.plan), "ms");
    m.put("chase.st_ms", per(l.chase_st), "ms");
    m.put("chase.ts_ms", per(l.chase_ts), "ms");
    m.put("chase.rounds", n(c.rounds), "count");
    m.put("chase.triggers_found", n(c.triggers_found), "count");
    m.put("chase.triggers_fired", n(c.triggers_fired), "count");
    m.put("chase.skipped_by_delta", n(c.skipped_by_delta), "count");
    m.put(
        "chase.fired_per_found",
        ratio(n(c.triggers_fired), n(c.triggers_found)),
        "ratio",
    );
    m.put("chase.forward_ms", per(l.chase_forward), "ms");
    m.put("chase.egd_merges", n(c.egd_merges), "count");
    m.put(
        "chase.peak_instance_mb",
        n(c.peak_instance_bytes) / (1024.0 * 1024.0),
        "MB",
    );
    m.put("chase.refresh_ms", per(l.chase_refresh), "ms");
    m.put(
        "chase.incremental_rechases",
        n(c.incremental_rechases),
        "count",
    );
    m.put("chase.full_rechases", n(c.full_rechases), "count");
    m.put("core.blocks_ms", per(l.blocks), "ms");
    m.put("core.block_hom_ms", per(l.block_hom), "ms");
    m.put("core.block_count", n(c.block_count), "count");
    m.put("core.ground_block_facts", n(c.ground_block_facts), "count");
    m.put("core.max_block_nulls", n(c.max_block_nulls), "count");
    m.put("core.search_ms", per(l.search), "ms");
    m.put("core.search_branches", n(c.search_branches), "count");
    m.put("core.search_prunes", n(c.search_prunes), "count");
    m.put("core.candidates_checked", n(c.candidates_checked), "count");
    m.put(
        "core.prunes_per_branch",
        ratio(n(c.search_prunes), n(c.search_branches)),
        "ratio",
    );
    m.put("core.certain_ms", per(l.certain), "ms");
    m.put("core.solutions_examined", n(c.solutions_examined), "count");
    m.put("core.engine_fallbacks", n(c.engine_fallbacks), "count");
    m.put("store.commit_p50_us", p(&s.commit_us, 0.5), "us");
    m.put("store.commit_p90_us", p(&s.commit_us, 0.9), "us");
    m.put("store.commits", n(c.commits), "count");
    m.put("store.journal_bytes", c.journal_bytes as f64, "bytes");
    m.put("store.checkpoint_ms", p(&s.checkpoint_ms, 0.5), "ms");
    m.put("store.recover_ms", p(&s.recover_ms, 0.5), "ms");
    m.put(
        "store.disk_bytes_per_fact",
        p(&s.disk_bytes_per_fact, 0.5),
        "bytes",
    );
    m.put("serve.solve_p50_ms", p(&s.solve_ms, 0.5), "ms");
    m.put("serve.solve_p90_ms", p(&s.solve_ms, 0.9), "ms");
    m.put("serve.insert_p50_ms", p(&s.insert_ms, 0.5), "ms");
    m.put("serve.insert_p90_ms", p(&s.insert_ms, 0.9), "ms");
    m.put("serve.certain_p50_ms", p(&s.certain_ms, 0.5), "ms");
    m.put("serve.certain_p90_ms", p(&s.certain_ms, 0.9), "ms");
    m.put("serve.framing_us", p(&s.framing_us, 0.5), "us");
    m.put("trace.coverage", coverage, "ratio");
    m
}
