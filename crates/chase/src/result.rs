//! Chase outcomes, limits, and step statistics.

use pde_relational::Instance;
use pde_runtime::StopReason;
use std::fmt;

/// Resource limits guarding against non-terminating chases.
///
/// Weakly acyclic sets terminate within a polynomial bound, but the engine
/// also accepts arbitrary tgd sets (e.g. in tests demonstrating
/// divergence), so hard caps are always enforced.
#[derive(Clone, Copy, Debug)]
pub struct ChaseLimits {
    /// Maximum number of applied chase steps.
    pub max_steps: usize,
    /// Maximum total number of facts in the chased instance.
    pub max_facts: usize,
}

impl Default for ChaseLimits {
    fn default() -> Self {
        ChaseLimits {
            max_steps: 1_000_000,
            max_facts: 10_000_000,
        }
    }
}

impl ChaseLimits {
    /// Small limits for tests that expect divergence.
    ///
    /// The fact cap is derived from the step cap rather than left
    /// unlimited: a tgd step inserts at most its conclusion's atom count
    /// in facts, so `16` facts per step (plus slack for the seed
    /// instance) dominates any realistic dependency — a divergent chase
    /// trips the step limit first, and a buggy engine that loops without
    /// counting steps still cannot balloon memory.
    pub fn tight(max_steps: usize) -> ChaseLimits {
        ChaseLimits {
            max_steps,
            max_facts: max_steps.saturating_mul(16).saturating_add(1024),
        }
    }

    /// Limits derived from the constructive Lemma 1 bound
    /// ([`pde_constraints::chase_bound`]): a chase within these limits is
    /// guaranteed to run to completion on weakly acyclic sets, and the
    /// limits still guard against bugs.
    pub fn from_bound(bound: pde_constraints::ChaseBound) -> ChaseLimits {
        ChaseLimits {
            max_steps: bound.step_bound,
            max_facts: bound.fact_bound,
        }
    }
}

/// Why a chase ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChaseOutcome {
    /// No dependency is applicable: the result satisfies them all.
    Success,
    /// An egd equated two distinct constants — the chase *fails*
    /// (paper Def. 6, egd case); no instance containing the input can
    /// satisfy the dependencies.
    Failure {
        /// Index (into the chased dependency list) of the failing egd.
        dep_index: usize,
    },
    /// A resource limit was hit before a fixpoint was reached.
    ResourceExceeded,
    /// The runtime governor stopped the run (deadline, memory budget,
    /// cancellation, or an injected fault) before a fixpoint was reached.
    /// Like `ResourceExceeded` this is a refusal to keep spending, not a
    /// claim about the instance.
    Stopped {
        /// Why the governor stopped the run.
        reason: StopReason,
    },
}

/// What one chase step did (lightweight provenance for debugging and for
/// the block-lemma tests).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StepRecord {
    /// A tgd fired: index into the chased dependency list, and the number
    /// of new facts its conclusion contributed.
    Tgd {
        /// Dependency index.
        dep_index: usize,
        /// Facts newly inserted by this step.
        new_facts: usize,
    },
    /// An egd merged two values.
    Egd {
        /// Dependency index.
        dep_index: usize,
        /// The value that was replaced.
        from: pde_relational::Value,
        /// The value it was replaced with.
        to: pde_relational::Value,
    },
}

/// Aggregate engine counters for one chase run — what `pde solve --stats`
/// prints. All counters are filled by both engines except
/// `skipped_by_delta`, which is inherently semi-naive (the naive engine
/// reports 0 there: it skips nothing), and `keyed_witnesses`, which only
/// the semi-naive engine takes (the naive oracle mints every witness).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaseStats {
    /// Number of rounds (sweeps over the dependency list) until fixpoint,
    /// failure, or a limit.
    pub rounds: usize,
    /// Premise matches examined as potential triggers.
    pub triggers_found: usize,
    /// Triggers actually applied (equals the tgd step count).
    pub triggers_fired: usize,
    /// Triggers whose conclusion already had an extension when (re)checked.
    pub triggers_satisfied: usize,
    /// Premise matches the naive engine would have re-enumerated in later
    /// rounds but the delta windows never revisited (cumulative
    /// previously-seen matches, summed over rounds after their discovery).
    pub skipped_by_delta: usize,
    /// Egd merges applied (equals the egd step count).
    pub egd_merges: usize,
    /// Existential values a fresh-null tgd step took from the row that
    /// already holds their key, instead of minting a null the key egd
    /// would merge (keyed witnesses).
    pub keyed_witnesses: usize,
    /// Largest estimated instance footprint observed at any governor
    /// checkpoint, in bytes (0 for ungoverned runs that never checked).
    ///
    /// **Deprecation note:** governor-derived; engines no longer populate
    /// it. Read [`pde_runtime::GovernorReport::peak_bytes`] (or the run
    /// report's `governor.peak_bytes` metric) instead. The field stays so
    /// the public shape is unchanged; it will be removed in a future
    /// revision.
    pub peak_bytes: usize,
    /// Governor checkpoints that observed the cancel token set.
    ///
    /// **Deprecation note:** governor-derived; engines no longer populate
    /// it — read [`pde_runtime::GovernorReport::cancellations_observed`].
    pub cancellations_observed: usize,
    /// Wall-clock budget left when the run finished, in nanoseconds
    /// (`None` when no deadline was configured; saturates at `u64::MAX`).
    ///
    /// **Deprecation note:** governor-derived; engines no longer populate
    /// it — read [`pde_runtime::GovernorReport::deadline_remaining`].
    pub deadline_remaining_nanos: Option<u64>,
    /// Latency distribution of completed rounds, in nanoseconds. Rounds
    /// cut short by a governor stop or a resource limit are not recorded
    /// (their partial timing would skew the buckets), so `round_ns.count`
    /// can trail `rounds` by one on stopped runs.
    pub round_ns: pde_trace::Histogram,
}

impl ChaseStats {
    /// Fold another run's counters into this one, for callers that run
    /// several chases and report one aggregate. Work counters sum; the
    /// governor-derived fields combine so that chases sharing one
    /// governor (whose reports are cumulative) are not double-counted:
    /// peak bytes and cancellations take the max, deadline remaining
    /// takes the min.
    pub fn absorb(&mut self, other: ChaseStats) {
        self.rounds += other.rounds;
        self.triggers_found += other.triggers_found;
        self.triggers_fired += other.triggers_fired;
        self.triggers_satisfied += other.triggers_satisfied;
        self.skipped_by_delta += other.skipped_by_delta;
        self.egd_merges += other.egd_merges;
        self.keyed_witnesses += other.keyed_witnesses;
        self.peak_bytes = self.peak_bytes.max(other.peak_bytes);
        self.cancellations_observed = self
            .cancellations_observed
            .max(other.cancellations_observed);
        self.deadline_remaining_nanos = match (
            self.deadline_remaining_nanos,
            other.deadline_remaining_nanos,
        ) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.round_ns.merge(&other.round_ns);
    }

    /// Export the engine work counters into a
    /// [`pde_trace::MetricsRegistry`] under the `chase.` prefix.
    ///
    /// Only engine-owned counters are exported; the deprecated
    /// governor-derived fields are deliberately omitted — the report layer
    /// sources those from [`pde_runtime::GovernorReport::export_metrics`]
    /// so they are counted exactly once.
    pub fn export_metrics(&self, reg: &mut pde_trace::MetricsRegistry) {
        let u = |x: usize| u64::try_from(x).unwrap_or(u64::MAX);
        reg.add("chase.rounds", u(self.rounds));
        reg.add("chase.triggers_found", u(self.triggers_found));
        reg.add("chase.triggers_fired", u(self.triggers_fired));
        reg.add("chase.triggers_satisfied", u(self.triggers_satisfied));
        reg.add("chase.skipped_by_delta", u(self.skipped_by_delta));
        reg.add("chase.egd_merges", u(self.egd_merges));
        reg.add("chase.keyed_witnesses", u(self.keyed_witnesses));
        reg.merge_histogram("chase.round_ns", &self.round_ns);
    }
}

/// The result of a chase run.
#[derive(Clone, Debug)]
pub struct ChaseResult {
    /// How the run ended.
    pub outcome: ChaseOutcome,
    /// The instance at the end of the run (meaningful for `Success`;
    /// best-effort snapshot otherwise).
    pub instance: Instance,
    /// Number of applied chase steps (tgd applications + egd merges).
    pub steps: usize,
    /// Number of tgd steps among `steps`.
    pub tgd_steps: usize,
    /// Number of egd steps among `steps`.
    pub egd_steps: usize,
    /// Per-step provenance, in application order.
    pub log: Vec<StepRecord>,
    /// Engine counters (rounds, trigger bookkeeping, merges).
    pub stats: ChaseStats,
}

impl ChaseResult {
    /// The successfully chased instance, or `None` on failure/limits.
    pub fn into_success(self) -> Option<Instance> {
        match self.outcome {
            ChaseOutcome::Success => Some(self.instance),
            _ => None,
        }
    }

    /// Did the chase succeed?
    pub fn is_success(&self) -> bool {
        self.outcome == ChaseOutcome::Success
    }

    /// Did the chase fail on an egd?
    pub fn is_failure(&self) -> bool {
        matches!(self.outcome, ChaseOutcome::Failure { .. })
    }
}

impl fmt::Display for ChaseOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaseOutcome::Success => write!(f, "success"),
            ChaseOutcome::Failure { dep_index } => {
                write!(f, "failure (egd #{dep_index} merged two constants)")
            }
            ChaseOutcome::ResourceExceeded => write!(f, "resource limit exceeded"),
            ChaseOutcome::Stopped { reason } => write!(f, "stopped: {reason}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pde_relational::{parse_schema, Instance};
    use std::sync::Arc;

    #[test]
    fn outcome_predicates() {
        let s = Arc::new(parse_schema("target A/1;").unwrap());
        let inst = Instance::new(s);
        let ok = ChaseResult {
            outcome: ChaseOutcome::Success,
            instance: inst.clone(),
            steps: 0,
            tgd_steps: 0,
            egd_steps: 0,
            log: Vec::new(),
            stats: ChaseStats::default(),
        };
        assert!(ok.is_success());
        assert!(ok.into_success().is_some());
        let bad = ChaseResult {
            outcome: ChaseOutcome::Failure { dep_index: 2 },
            instance: inst,
            steps: 1,
            tgd_steps: 0,
            egd_steps: 1,
            log: Vec::new(),
            stats: ChaseStats::default(),
        };
        assert!(bad.is_failure());
        assert!(!bad.is_success());
        assert!(format!("{}", bad.outcome).contains("#2"));
    }

    #[test]
    fn default_limits_are_generous() {
        let l = ChaseLimits::default();
        assert!(l.max_steps >= 1_000_000);
        let t = ChaseLimits::tight(10);
        assert_eq!(t.max_steps, 10);
    }

    #[test]
    fn tight_limits_cap_facts_too() {
        // Regression: `tight` used to leave `max_facts: usize::MAX`, so a
        // divergence test against an engine that forgot to count steps
        // could OOM before any limit tripped.
        let t = ChaseLimits::tight(50);
        assert!(t.max_facts < usize::MAX);
        assert!(t.max_facts >= 50, "cap must not fire before the step cap");
        // Saturates instead of overflowing for huge step caps.
        assert_eq!(ChaseLimits::tight(usize::MAX).max_facts, usize::MAX);
    }

    #[test]
    fn absorb_combines_governor_fields_without_double_counting() {
        let mut a = ChaseStats {
            rounds: 2,
            peak_bytes: 100,
            cancellations_observed: 1,
            deadline_remaining_nanos: Some(500),
            ..ChaseStats::default()
        };
        // A second chase on the same governor: cumulative counters.
        let b = ChaseStats {
            rounds: 3,
            peak_bytes: 80,
            cancellations_observed: 1,
            deadline_remaining_nanos: Some(200),
            ..ChaseStats::default()
        };
        a.absorb(b);
        assert_eq!(a.rounds, 5);
        assert_eq!(a.peak_bytes, 100);
        assert_eq!(a.cancellations_observed, 1);
        assert_eq!(a.deadline_remaining_nanos, Some(200));
    }

    #[test]
    fn stopped_outcome_displays_its_reason() {
        let o = ChaseOutcome::Stopped {
            reason: StopReason::Cancelled,
        };
        assert!(o.to_string().contains("cancelled"));
    }
}
