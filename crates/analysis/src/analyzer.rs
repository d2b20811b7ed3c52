//! The lint passes.
//!
//! [`AnalysisInput`] carries a setting's constraints with optional source
//! spans; [`AnalysisInput::analyze`] runs every pass and returns
//! diagnostics in a deterministic order (by group, then index, then code).
//!
//! The passes are layered: well-formedness (`PDE01x`) runs first, and if
//! it finds any error the semantic passes — which assume validated
//! dependencies — are skipped for that run.

use crate::diag::{Code, Diagnostic, Group, Severity};
use pde_chase::{chase_tgds, null_gen_for};
use pde_constraints::{
    classify, is_weakly_acyclic, parse_dependencies_spanned, CtractViolation, Dependency,
    DependencyError, DependencyGraph, DisjunctiveTgd, Egd, Orientation, Tgd,
};
use pde_core::bundle::BundleSources;
use pde_core::setting::PdeSetting;
use pde_relational::{
    exists_hom, parse_schema, Assignment, Atom, Instance, NullId, ParseError, Peer, Position,
    RelId, Schema, Span, Tuple, Value, Var,
};
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

/// A tgd within a group: `(index, tgd, source span)`.
type IndexedTgd<'a> = (usize, &'a Tgd, Option<Span>);

/// A duplicate pair: `(original index, duplicate index, duplicate's span)`.
type DupPair = (usize, usize, Option<Span>);

/// Which part of a bundle a parse error came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LintSection {
    /// The `%schema` section.
    Schema,
    /// The `%st` section.
    St,
    /// The `%ts` section.
    Ts,
    /// The `%t` section.
    T,
}

impl fmt::Display for LintSection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintSection::Schema => write!(f, "schema"),
            LintSection::St => write!(f, "st"),
            LintSection::Ts => write!(f, "ts"),
            LintSection::T => write!(f, "t"),
        }
    }
}

/// A parse error pinned to the bundle section it occurred in.
#[derive(Clone, Debug)]
pub struct SourceParseError {
    /// The offending section.
    pub section: LintSection,
    /// The underlying parse error (span relative to the section text).
    pub error: ParseError,
}

impl fmt::Display for SourceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{} section: {}", self.section, self.error)
    }
}

impl std::error::Error for SourceParseError {}

/// A setting's constraints, each with an optional span into its bundle
/// section, ready to be analyzed.
#[derive(Clone)]
pub struct AnalysisInput {
    schema: Arc<Schema>,
    sigma_st: Vec<(Tgd, Option<Span>)>,
    sigma_ts: Vec<(Tgd, Option<Span>)>,
    sigma_t: Vec<(Dependency, Option<Span>)>,
}

impl AnalysisInput {
    /// Analyze an already-built (hence already-validated) setting. No
    /// spans are available on this path.
    pub fn from_setting(setting: &PdeSetting) -> AnalysisInput {
        AnalysisInput {
            schema: setting.schema().clone(),
            sigma_st: setting
                .sigma_st()
                .iter()
                .map(|t| (t.clone(), None))
                .collect(),
            sigma_ts: setting
                .sigma_ts()
                .iter()
                .map(|t| (t.clone(), None))
                .collect(),
            sigma_t: setting
                .sigma_t()
                .iter()
                .map(|d| (d.clone(), None))
                .collect(),
        }
    }

    /// Build from raw constraint lists (spans absent). Unlike
    /// [`PdeSetting::new`] this never rejects: well-formedness problems
    /// surface as `PDE01x` diagnostics instead.
    pub fn from_parts(
        schema: Arc<Schema>,
        sigma_st: Vec<Tgd>,
        sigma_ts: Vec<Tgd>,
        sigma_t: Vec<Dependency>,
    ) -> AnalysisInput {
        AnalysisInput {
            schema,
            sigma_st: sigma_st.into_iter().map(|t| (t, None)).collect(),
            sigma_ts: sigma_ts.into_iter().map(|t| (t, None)).collect(),
            sigma_t: sigma_t.into_iter().map(|d| (d, None)).collect(),
        }
    }

    /// Build from split bundle sections, recording each dependency's span
    /// within its section. Only *syntax* must be valid (plus each Σst/Σts
    /// entry being a tgd at all); semantic problems become diagnostics.
    pub fn from_sources(sources: &BundleSources) -> Result<AnalysisInput, SourceParseError> {
        let at =
            |section: LintSection| move |error: ParseError| SourceParseError { section, error };
        let schema = Arc::new(parse_schema(&sources.schema.text).map_err(at(LintSection::Schema))?);
        let tgds_of = |text: &str, section: LintSection| {
            let deps = parse_dependencies_spanned(&schema, text).map_err(at(section))?;
            deps.into_iter()
                .map(|(d, span)| match d {
                    Dependency::Tgd(t) => Ok((t, Some(span))),
                    Dependency::Egd(_) => Err(SourceParseError {
                        section,
                        error: ParseError::at("expected a tgd, found an egd", span),
                    }),
                })
                .collect::<Result<Vec<_>, _>>()
        };
        let sigma_st = tgds_of(&sources.st.text, LintSection::St)?;
        let sigma_ts = tgds_of(&sources.ts.text, LintSection::Ts)?;
        let sigma_t = parse_dependencies_spanned(&schema, &sources.t.text)
            .map_err(at(LintSection::T))?
            .into_iter()
            .map(|(d, span)| (d, Some(span)))
            .collect();
        Ok(AnalysisInput {
            schema,
            sigma_st,
            sigma_ts,
            sigma_t,
        })
    }

    /// The schema the constraints range over.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Run every pass. Diagnostics come back sorted by (group, index,
    /// code); global diagnostics (no constraint reference) come first.
    pub fn analyze(&self) -> Vec<Diagnostic> {
        let mut diags = self.validity_pass();
        if diags.iter().any(|d| d.severity == Severity::Error) {
            sort(&mut diags);
            return diags;
        }
        self.weak_acyclicity_pass(&mut diags);
        self.ctract_pass(&mut diags);
        self.boundary_pass(&mut diags);
        self.wildcard_pass(&mut diags);
        self.trivial_egd_pass(&mut diags);
        self.duplicate_pass(&mut diags);
        self.subsumption_pass(&mut diags);
        self.reachability_pass(&mut diags);
        self.optimizer_pass(&mut diags);
        sort(&mut diags);
        diags
    }

    fn each_tgd_group(&self) -> [(Group, Orientation, Vec<IndexedTgd<'_>>); 3] {
        let st = self
            .sigma_st
            .iter()
            .enumerate()
            .map(|(i, (t, s))| (i, t, *s))
            .collect();
        let ts = self
            .sigma_ts
            .iter()
            .enumerate()
            .map(|(i, (t, s))| (i, t, *s))
            .collect();
        let t = self
            .sigma_t
            .iter()
            .enumerate()
            .filter_map(|(i, (d, s))| d.as_tgd().map(|t| (i, t, *s)))
            .collect();
        [
            (Group::St, Orientation::SourceToTarget, st),
            (Group::Ts, Orientation::TargetToSource, ts),
            (Group::T, Orientation::TargetTarget, t),
        ]
    }

    /// PDE010–PDE017: per-dependency well-formedness.
    fn validity_pass(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for (group, orientation, tgds) in self.each_tgd_group() {
            for (i, tgd, span) in tgds {
                if let Err(e) = tgd.validate(&self.schema, orientation) {
                    out.push(
                        Diagnostic::new(code_of(&e), e.to_string())
                            .on(group, i)
                            .with_span(span),
                    );
                }
                self.arity_check(
                    tgd.premise.atoms.iter().chain(&tgd.conclusion.atoms),
                    group,
                    i,
                    span,
                    &mut out,
                );
            }
        }
        for (i, (d, span)) in self.sigma_t.iter().enumerate() {
            if let Some(egd) = d.as_egd() {
                if let Err(e) = egd.validate(&self.schema) {
                    out.push(
                        Diagnostic::new(code_of(&e), e.to_string())
                            .on(Group::T, i)
                            .with_span(*span),
                    );
                }
                self.arity_check(egd.premise.atoms.iter(), Group::T, i, *span, &mut out);
            }
        }
        out
    }

    fn arity_check<'a>(
        &self,
        atoms: impl Iterator<Item = &'a pde_relational::Atom>,
        group: Group,
        index: usize,
        span: Option<Span>,
        out: &mut Vec<Diagnostic>,
    ) {
        for atom in atoms {
            let expected = self.schema.arity(atom.rel) as usize;
            if atom.terms.len() != expected {
                out.push(
                    Diagnostic::new(
                        Code::ArityMismatch,
                        format!(
                            "atom over {} has {} terms but the relation has arity {expected}",
                            self.schema.name(atom.rel),
                            atom.terms.len()
                        ),
                    )
                    .on(group, index)
                    .with_span(span),
                );
            }
        }
    }

    /// PDE001 / PDE050 / PDE051 / PDE052: chase termination of Σt's tgds.
    ///
    /// Weak acyclicity (Def. 5) is checked first. When it fails, the
    /// stronger criteria of [`crate::termination`] get a chance to certify
    /// termination before anything is downgraded to an error: joint or
    /// super-weak acyclicity yields a `PDE050` note, the critical-instance
    /// check alone yields a `PDE051` warning (its bound may be loose), and
    /// only when the whole hierarchy fails do `PDE001` + `PDE052` fire.
    fn weak_acyclicity_pass(&self, out: &mut Vec<Diagnostic>) {
        let t_tgds: Vec<IndexedTgd<'_>> = self
            .sigma_t
            .iter()
            .enumerate()
            .filter_map(|(i, (d, s))| d.as_tgd().map(|t| (i, t, *s)))
            .collect();
        if t_tgds.is_empty() {
            return;
        }
        let graph = DependencyGraph::new(&self.schema, t_tgds.iter().map(|(_, t, _)| *t));
        let Some(cycle) = graph.find_special_cycle() else {
            return;
        };
        let mut path = self.position(cycle[0].from);
        for e in &cycle {
            path.push_str(if e.special { " =(special)=> " } else { " -> " });
            path.push_str(&self.position(e.to));
        }
        let culprit = cycle_culprit(&t_tgds, &cycle);
        let locate = |d: Diagnostic| match culprit {
            Some((i, span)) => d.on(Group::T, i).with_span(span),
            None => d,
        };
        // The criterion verdicts are instance-independent; lints have no
        // instance, so bounds are evaluated at a nominal active domain.
        let owned: Vec<Tgd> = t_tgds.iter().map(|(_, t, _)| (*t).clone()).collect();
        let tc = crate::termination::analyze_tgds(&self.schema, &owned, 1);
        let trail = tc
            .trail
            .iter()
            .map(|c| {
                format!(
                    "{}: {}",
                    c.criterion,
                    if c.holds { "certified" } else { "failed" }
                )
            })
            .collect::<Vec<_>>()
            .join("; ");
        use crate::termination::TerminationCriterion as TC;
        match tc.criterion {
            Some(TC::WeakAcyclicity) => {} // unreachable: a special cycle exists
            Some(c @ (TC::JointAcyclicity | TC::SuperWeakAcyclicity)) => out.push(locate(
                Diagnostic::new(
                    Code::TerminatesBeyondWeakAcyclicity,
                    format!(
                        "target tgds are not weakly acyclic (witness cycle: {path}), but \
                         {c} certifies chase termination with a finite derived bound"
                    ),
                )
                .note(format!("criterion trail: {trail}"))
                .note(
                    "the planner routes this setting through the certified-terminating \
                     regime with budgets from the certifying criterion",
                ),
            )),
            Some(TC::CriticalInstance) => out.push(locate(
                Diagnostic::new(
                    Code::CriticalInstanceOnly,
                    format!(
                        "target tgds are not weakly acyclic (witness cycle: {path}) and \
                         termination is certified only by the critical-instance check; \
                         the derived bound may be loose"
                    ),
                )
                .note(format!("criterion trail: {trail}"))
                .note(
                    "the critical-instance bound grows with the saturated chase of the \
                     all-constants instance, not with a Lemma 1 recurrence",
                ),
            )),
            None => {
                out.push(locate(
                    Diagnostic::new(
                        Code::WeakAcyclicityViolation,
                        format!(
                            "target tgds are not weakly acyclic, so the chase may not \
                             terminate and no polynomial solution-existence bound applies \
                             (Def. 5, Lemma 1); witness cycle: {path}"
                        ),
                    )
                    .suggest(
                        "break the cycle: remove an existential that feeds a position \
                         reachable from itself, or make the offending tgd full",
                    ),
                ));
                out.push(locate(
                    Diagnostic::new(
                        Code::AllTerminationCriteriaFail,
                        "every criterion of the termination hierarchy fails; the chase \
                         may diverge and the governor gets no finite budget"
                            .to_string(),
                    )
                    .note(format!("criterion trail: {trail}")),
                ));
            }
        }
    }

    fn position(&self, p: Position) -> String {
        format!("{}.{}", self.schema.name(p.rel), p.attr)
    }

    /// PDE002: outside `C_tract` (only meaningful when Σt is empty — with
    /// target constraints the Thm. 4 guarantee is out of scope anyway and
    /// the `PDE003`/`PDE004` boundary lints take over).
    fn ctract_pass(&self, out: &mut Vec<Diagnostic>) {
        if !self.sigma_t.is_empty() {
            return;
        }
        let st: Vec<Tgd> = self.sigma_st.iter().map(|(t, _)| t.clone()).collect();
        let ts: Vec<Tgd> = self.sigma_ts.iter().map(|(t, _)| t.clone()).collect();
        let report = classify(&self.schema, &st, &ts);
        if report.in_ctract() {
            return;
        }
        let mut emit = |v: &CtractViolation| {
            let i = tgd_index(v);
            out.push(
                Diagnostic::new(Code::OutsideCtract, v.to_string())
                    .on(Group::Ts, i)
                    .with_span(self.sigma_ts.get(i).and_then(|(_, s)| *s))
                    .note(
                        "the setting falls outside C_tract (Def. 9); solution existence \
                         is NP-complete in general (Thm. 2)",
                    ),
            );
        };
        for v in &report.condition1 {
            emit(v);
        }
        if !report.holds2_1() && !report.holds2_2() {
            for v in report.condition2_1.iter().chain(&report.condition2_2) {
                emit(v);
            }
        }
    }

    /// PDE003 / PDE004: the §4 intractability boundaries. Both need a
    /// nonempty Σts — pure data exchange (Σts = ∅) stays tractable with
    /// egds and full tgds in Σt.
    fn boundary_pass(&self, out: &mut Vec<Diagnostic>) {
        if self.sigma_ts.is_empty() {
            return;
        }
        for (i, (d, span)) in self.sigma_t.iter().enumerate() {
            match d {
                Dependency::Egd(_) => out.push(
                    Diagnostic::new(
                        Code::TargetEgdBoundary,
                        "target egd combined with a nonempty Σts: solution existence \
                         is NP-complete for such settings (§4)",
                    )
                    .on(Group::T, i)
                    .with_span(*span)
                    .note("with Σts = ∅ (pure data exchange) target egds stay tractable"),
                ),
                Dependency::Tgd(t) if t.is_full() => out.push(
                    Diagnostic::new(
                        Code::FullTargetTgdBoundary,
                        "full target tgd combined with a nonempty Σts: solution \
                         existence is NP-complete for such settings (§4)",
                    )
                    .on(Group::T, i)
                    .with_span(*span)
                    .note("with Σts = ∅ (pure data exchange) full target tgds stay tractable"),
                ),
                Dependency::Tgd(_) => {}
            }
        }
    }

    /// PDE018: a universal variable that occurs exactly once in the
    /// premise and never in the conclusion constrains nothing. Variables
    /// prefixed with `_` are exempt (the idiom for "intentionally
    /// projected away").
    fn wildcard_pass(&self, out: &mut Vec<Diagnostic>) {
        for (group, _, tgds) in self.each_tgd_group() {
            for (i, tgd, span) in tgds {
                let concl = tgd.conclusion.variables();
                for v in tgd.universals() {
                    if tgd.premise.occurrences_of(v) == 1
                        && !concl.contains(&v)
                        && !v.to_string().starts_with('_')
                    {
                        out.push(
                            Diagnostic::new(
                                Code::WildcardUniversal,
                                format!(
                                    "universal variable {v} occurs once and constrains nothing"
                                ),
                            )
                            .on(group, i)
                            .with_span(span)
                            .suggest(format!("rename to _{v} to mark it intentional")),
                        );
                    }
                }
            }
        }
    }

    /// PDE019: egds of the form `… -> x = x`.
    fn trivial_egd_pass(&self, out: &mut Vec<Diagnostic>) {
        for (i, (d, span)) in self.sigma_t.iter().enumerate() {
            if let Some(egd) = d.as_egd() {
                if egd.is_trivial() {
                    out.push(
                        Diagnostic::new(
                            Code::TrivialEgd,
                            format!("egd equates {} with itself and can never fire", egd.lhs),
                        )
                        .on(Group::T, i)
                        .with_span(*span)
                        .suggest("delete the egd"),
                    );
                }
            }
        }
    }

    /// PDE020: exact duplicates within a group.
    fn duplicate_pass(&self, out: &mut Vec<Diagnostic>) {
        fn dups<T: PartialEq>(items: &[(T, Option<Span>)]) -> Vec<(usize, usize, Option<Span>)> {
            let mut found = Vec::new();
            for j in 1..items.len() {
                if let Some(i) = (0..j).find(|&i| items[i].0 == items[j].0) {
                    found.push((i, j, items[j].1));
                }
            }
            found
        }
        let groups: [(Group, Vec<DupPair>); 3] = [
            (Group::St, dups(&self.sigma_st)),
            (Group::Ts, dups(&self.sigma_ts)),
            (Group::T, dups(&self.sigma_t)),
        ];
        for (group, pairs) in groups {
            for (i, j, span) in pairs {
                out.push(
                    Diagnostic::new(
                        Code::DuplicateDependency,
                        format!("exact duplicate of {group} #{i}"),
                    )
                    .on(group, j)
                    .with_span(span)
                    .suggest("remove the duplicate"),
                );
            }
        }
    }

    /// PDE021: a tgd whose effect is already guaranteed by another tgd of
    /// the same group. Decided by freezing the candidate's premise to
    /// labeled nulls, chasing with the other tgd, and looking for a
    /// homomorphism of the candidate's conclusion that fixes the frontier.
    /// Of two tgds that imply each other only the later one is reported,
    /// so every reported tgd can be removed at once.
    fn subsumption_pass(&self, out: &mut Vec<Diagnostic>) {
        for (group, _, tgds) in self.each_tgd_group() {
            for &(i, ti, span) in &tgds {
                if let Some(&(j, _, _)) = tgds.iter().find(|&&(j, tj, _)| {
                    j != i
                        && tj != ti
                        && implied_one_way(|a, b| subsumed_by(&self.schema, a, b), (i, ti), (j, tj))
                }) {
                    out.push(
                        Diagnostic::new(
                            Code::SubsumedTgd,
                            format!(
                                "tgd is implied by {group} #{j}: chasing this premise with \
                                 #{j} already satisfies this conclusion"
                            ),
                        )
                        .on(group, i)
                        .with_span(span)
                        .suggest("remove this tgd; it does not change the semantics"),
                    );
                }
            }
        }
    }

    /// PDE030 / PDE031: relation-level reachability. A target relation
    /// read by some premise but populated by no tgd can only ever hold
    /// input facts; a relation in no dependency at all is dead weight.
    fn reachability_pass(&self, out: &mut Vec<Diagnostic>) {
        let mut populatable: HashSet<RelId> = HashSet::new();
        for (t, _) in &self.sigma_st {
            populatable.extend(t.conclusion.atoms.iter().map(|a| a.rel));
        }
        for (d, _) in &self.sigma_t {
            if let Some(t) = d.as_tgd() {
                populatable.extend(t.conclusion.atoms.iter().map(|a| a.rel));
            }
        }
        let mut reported: HashSet<RelId> = HashSet::new();
        let mut check_read = |rel: RelId,
                              group: Group,
                              index: usize,
                              span: Option<Span>,
                              out: &mut Vec<Diagnostic>| {
            if !populatable.contains(&rel) && reported.insert(rel) {
                out.push(
                    Diagnostic::new(
                        Code::UnpopulatedTargetRelation,
                        format!(
                            "target relation {} is read here but no Σst or Σt tgd can \
                             populate it; only input facts can ever appear in it",
                            self.schema.name(rel)
                        ),
                    )
                    .on(group, index)
                    .with_span(span),
                );
            }
        };
        for (i, (t, span)) in self.sigma_ts.iter().enumerate() {
            for atom in &t.premise.atoms {
                check_read(atom.rel, Group::Ts, i, *span, out);
            }
        }
        for (i, (d, span)) in self.sigma_t.iter().enumerate() {
            let premise = match d {
                Dependency::Tgd(t) => &t.premise,
                Dependency::Egd(e) => &e.premise,
            };
            for atom in &premise.atoms {
                check_read(atom.rel, Group::T, i, *span, out);
            }
        }

        let mut mentioned: HashSet<RelId> = HashSet::new();
        for (group, _, tgds) in self.each_tgd_group() {
            let _ = group;
            for (_, t, _) in tgds {
                mentioned.extend(t.premise.atoms.iter().map(|a| a.rel));
                mentioned.extend(t.conclusion.atoms.iter().map(|a| a.rel));
            }
        }
        for (d, _) in &self.sigma_t {
            if let Some(e) = d.as_egd() {
                mentioned.extend(e.premise.atoms.iter().map(|a| a.rel));
            }
        }
        for rel in self.schema.rel_ids() {
            if !mentioned.contains(&rel) {
                out.push(Diagnostic::new(
                    Code::UnusedRelation,
                    format!(
                        "{} relation {} is not mentioned by any dependency",
                        self.schema.peer(rel),
                        self.schema.name(rel)
                    ),
                ));
            }
        }
    }

    /// PDE040 / PDE041 / PDE042: optimizer findings — redundancy the
    /// syntactic `PDE02x`/`PDE03x` passes miss but the rewrite passes of
    /// [`crate::rewrite`] would eliminate.
    fn optimizer_pass(&self, out: &mut Vec<Diagnostic>) {
        self.egd_subsumption_pass(out);
        self.alpha_duplicate_pass(out);
        self.dead_relation_pass(out);
    }

    /// PDE040: egd subsumption. `PDE021` only covers tgds; an egd whose
    /// every firing is already forced by another egd is just as redundant.
    /// Mutually implied egds follow `PDE021`'s rule: only the later one is
    /// reported.
    fn egd_subsumption_pass(&self, out: &mut Vec<Diagnostic>) {
        let egds: Vec<(usize, &Egd, Option<Span>)> = self
            .sigma_t
            .iter()
            .enumerate()
            .filter_map(|(i, (d, s))| d.as_egd().map(|e| (i, e, *s)))
            .collect();
        let implies = |a: &Egd, b: &Egd| crate::rewrite::egd_subsumed_by(&self.schema, a, b);
        for &(i, ei, span) in &egds {
            if ei.is_trivial() {
                continue; // PDE019's territory
            }
            let key_i = crate::rewrite::canonical_key(&self.sigma_t[i].0);
            if let Some(&(j, _, _)) = egds.iter().find(|&&(j, ej, _)| {
                j != i
                    && key_i != crate::rewrite::canonical_key(&self.sigma_t[j].0)
                    && implied_one_way(implies, (i, ei), (j, ej))
            }) {
                out.push(
                    Diagnostic::new(
                        Code::SubsumedEgd,
                        format!(
                            "egd is implied by Σt #{j}: whenever this premise matches, \
                             #{j} already forces the same equality"
                        ),
                    )
                    .on(Group::T, i)
                    .with_span(span)
                    .suggest("remove this egd; it does not change the semantics"),
                );
            }
        }
    }

    /// PDE041: duplicates up to variable renaming. `PDE020` compares
    /// dependencies syntactically; alpha-renamed copies slip through it
    /// while still doubling trigger work in the chase.
    fn alpha_duplicate_pass(&self, out: &mut Vec<Diagnostic>) {
        let check =
            |group: Group, items: Vec<(Dependency, Option<Span>)>, out: &mut Vec<Diagnostic>| {
                let keys: Vec<_> = items
                    .iter()
                    .map(|(d, _)| crate::rewrite::canonical_key(d))
                    .collect();
                for j in 1..items.len() {
                    if (0..j).any(|i| items[i].0 == items[j].0) {
                        continue; // exact duplicate: PDE020 already reports it
                    }
                    if let Some(i) = (0..j).find(|&i| keys[i] == keys[j]) {
                        out.push(
                            Diagnostic::new(
                                Code::AlphaDuplicateDependency,
                                format!("duplicate of {group} #{i} up to variable renaming"),
                            )
                            .on(group, j)
                            .with_span(items[j].1)
                            .suggest("remove the duplicate"),
                        );
                    }
                }
            };
        let tgds = |v: &[(Tgd, Option<Span>)]| {
            v.iter()
                .map(|(t, s)| (Dependency::Tgd(t.clone()), *s))
                .collect()
        };
        check(Group::St, tgds(&self.sigma_st), out);
        check(Group::Ts, tgds(&self.sigma_ts), out);
        check(Group::T, self.sigma_t.clone(), out);
    }

    /// PDE042: premise-aware dead relations. `PDE030`'s populatable set
    /// asks only whether some tgd *concludes* a relation; here a
    /// conclusion counts only when that tgd's whole premise is itself
    /// populatable (seeded with every source relation — the input is
    /// unknown statically). A relation populatable for `PDE030` but not
    /// here can never receive a chased fact, so `PDE030` stays silent and
    /// this lint takes over.
    fn dead_relation_pass(&self, out: &mut Vec<Diagnostic>) {
        let mut naive: HashSet<RelId> = HashSet::new();
        for (t, _) in &self.sigma_st {
            naive.extend(t.conclusion.atoms.iter().map(|a| a.rel));
        }
        for (d, _) in &self.sigma_t {
            if let Some(t) = d.as_tgd() {
                naive.extend(t.conclusion.atoms.iter().map(|a| a.rel));
            }
        }
        let mut pop: HashSet<RelId> = self
            .schema
            .rel_ids()
            .filter(|&r| self.schema.peer(r) == Peer::Source)
            .collect();
        let all_tgds: Vec<&Tgd> = self
            .sigma_st
            .iter()
            .chain(&self.sigma_ts)
            .map(|(t, _)| t)
            .chain(self.sigma_t.iter().filter_map(|(d, _)| d.as_tgd()))
            .collect();
        loop {
            let mut changed = false;
            for t in &all_tgds {
                if t.premise.atoms.iter().all(|a| pop.contains(&a.rel)) {
                    for a in &t.conclusion.atoms {
                        changed |= pop.insert(a.rel);
                    }
                }
            }
            if !changed {
                break;
            }
        }
        let mut reported: HashSet<RelId> = HashSet::new();
        let mut check_read = |rel: RelId,
                              group: Group,
                              index: usize,
                              span: Option<Span>,
                              out: &mut Vec<Diagnostic>| {
            if naive.contains(&rel) && !pop.contains(&rel) && reported.insert(rel) {
                out.push(
                    Diagnostic::new(
                        Code::DeadRelation,
                        format!(
                            "relation {} is read here but every tgd concluding it has an \
                             unpopulatable premise; no chase derivation can ever add a \
                             fact to it",
                            self.schema.name(rel)
                        ),
                    )
                    .on(group, index)
                    .with_span(span)
                    .note("only input facts can ever appear in it (premise-aware PDE030)"),
                );
            }
        };
        for (i, (t, span)) in self.sigma_ts.iter().enumerate() {
            for atom in &t.premise.atoms {
                check_read(atom.rel, Group::Ts, i, *span, out);
            }
        }
        for (i, (d, span)) in self.sigma_t.iter().enumerate() {
            let premise = match d {
                Dependency::Tgd(t) => &t.premise,
                Dependency::Egd(e) => &e.premise,
            };
            for atom in &premise.atoms {
                check_read(atom.rel, Group::T, i, *span, out);
            }
        }
    }
}

/// Analyze an already-built setting (the auto-lint entry point).
pub fn analyze_setting(setting: &PdeSetting) -> Vec<Diagnostic> {
    AnalysisInput::from_setting(setting).analyze()
}

/// PDE005 for the disjunctive extension: plain tgd lints do not apply, but
/// a ts-tgd with two or more alternatives is itself an intractability
/// boundary (§4 encodes 3-colorability with full disjuncts).
pub fn analyze_disjunctive(_schema: &Schema, sigma_ts: &[DisjunctiveTgd]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, d) in sigma_ts.iter().enumerate() {
        if d.disjuncts.len() >= 2 {
            out.push(
                Diagnostic::new(
                    Code::DisjunctiveTsBoundary,
                    format!(
                        "disjunctive ts-tgd with {} alternatives: solution existence for \
                         disjunctive Σts is NP-complete even when every disjunct is full (§4)",
                        d.disjuncts.len()
                    ),
                )
                .on(Group::Ts, i),
            );
        }
    }
    out
}

fn sort(diags: &mut [Diagnostic]) {
    diags.sort_by_key(|d| {
        let (g, i) = d.constraint.map_or((0u8, 0usize), |c| {
            (
                match c.group {
                    Group::St => 1,
                    Group::Ts => 2,
                    Group::T => 3,
                },
                c.index,
            )
        });
        (g, i, d.code)
    });
}

fn code_of(e: &DependencyError) -> Code {
    match e {
        DependencyError::UnboundConclusionVar(_) => Code::UnboundConclusionVar,
        DependencyError::ExistentialInPremise(_) => Code::ExistentialInPremise,
        DependencyError::UnusedExistential(_) => Code::UnusedExistential,
        DependencyError::WrongPeer { .. } => Code::WrongPeer,
        DependencyError::EmptyPremise => Code::EmptyPremise,
        DependencyError::EmptyConclusion => Code::EmptyConclusion,
        DependencyError::EgdVarNotInPremise(_) => Code::EgdVarNotInPremise,
    }
}

fn tgd_index(v: &CtractViolation) -> usize {
    match v {
        CtractViolation::RepeatedMarkedVariable { tgd_index, .. }
        | CtractViolation::MultiLiteralLhs { tgd_index, .. }
        | CtractViolation::BadMarkedPair { tgd_index, .. } => *tgd_index,
    }
}

/// The first Σt tgd (by group index) that contributes an edge of the
/// special-cycle witness, with its span: the dependency PDE001/PDE05x
/// diagnostics point at. A tgd contributes a non-special edge `p -> q`
/// when some frontier variable occurs at premise position `p` and
/// conclusion position `q`, and a special edge when a frontier variable
/// occurs at `p` while an existential occurs at `q`.
fn cycle_culprit(
    t_tgds: &[IndexedTgd<'_>],
    cycle: &[pde_constraints::Edge],
) -> Option<(usize, Option<Span>)> {
    use crate::termination::{conclusion_positions, premise_positions};
    for &(i, t, span) in t_tgds {
        for e in cycle {
            let from_frontier = t
                .frontier()
                .iter()
                .any(|&v| premise_positions(t, v).contains(&e.from));
            if !from_frontier {
                continue;
            }
            let hits = if e.special {
                t.existentials
                    .iter()
                    .any(|&y| conclusion_positions(t, y).contains(&e.to))
            } else {
                t.frontier().iter().any(|&v| {
                    premise_positions(t, v).contains(&e.from)
                        && conclusion_positions(t, v).contains(&e.to)
                })
            };
            if hits {
                return Some((i, span));
            }
        }
    }
    None
}

/// Should dependency `i` be reported as implied by dependency `j`? Only
/// when it is, and `j` comes first or is not itself implied by `i`: of two
/// equivalent dependencies the later one is reported, never both, so every
/// reported dependency can be removed at once.
fn implied_one_way<D>(
    implies: impl Fn(&D, &D) -> bool,
    (i, di): (usize, &D),
    (j, dj): (usize, &D),
) -> bool {
    implies(di, dj) && (j < i || !implies(dj, di))
}

/// Freeze variable `v` into a labeled null of its own. No dependency can
/// spell a null, so a frozen variable never collides with a constant the
/// user wrote.
pub(crate) fn freeze(v: Var) -> Value {
    Value::Null(NullId(
        u32::try_from(v.0.index()).expect("symbol ids fit in u32"),
    ))
}

/// The canonical instance of a premise: its atoms with every variable
/// [frozen](freeze).
pub(crate) fn freeze_premise(schema: &Arc<Schema>, atoms: &[Atom]) -> Instance {
    let mut frozen = Instance::new(schema.clone());
    for atom in atoms {
        let values = atom.ground(&|v| Some(freeze(v))).expect("freeze is total");
        frozen.insert(atom.rel, Tuple::new(values));
    }
    frozen
}

/// Does chasing `sub`'s frozen premise with `by` already satisfy `sub`'s
/// conclusion (with the frontier held fixed)? If so, `sub` is redundant.
/// Shared with the optimizer ([`crate::rewrite`]), whose verifier re-runs
/// the same check independently of the pass that recorded it.
pub(crate) fn subsumed_by(schema: &Arc<Schema>, sub: &Tgd, by: &Tgd) -> bool {
    if !is_weakly_acyclic(schema, [by]) {
        return false;
    }
    let frozen = freeze_premise(schema, &sub.premise.atoms);
    let gen = null_gen_for(&frozen);
    let Some(chased) = chase_tgds(frozen, std::slice::from_ref(by), &gen).into_success() else {
        return false;
    };
    let partial: Assignment = sub.frontier().into_iter().map(|v| (v, freeze(v))).collect();
    exists_hom(&sub.conclusion.atoms, &chased, &partial)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pde_constraints::parse_tgds;

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code.as_str()).collect()
    }

    fn input(schema: &str, st: &str, ts: &str, t: &str) -> AnalysisInput {
        let sources = pde_core::bundle::split_sections(&format!(
            "%schema\n{schema}\n%st\n{st}\n%ts\n{ts}\n%t\n{t}\n"
        ))
        .unwrap();
        AnalysisInput::from_sources(&sources).unwrap()
    }

    #[test]
    fn clean_setting_has_no_diagnostics() {
        let diags = input(
            "source E/2; target H/2",
            "E(x, z), E(z, y) -> H(x, y)",
            "H(x, y) -> E(x, y)",
            "",
        )
        .analyze();
        assert!(diags.is_empty(), "{:?}", codes(&diags));
    }

    #[test]
    fn non_weakly_acyclic_target_reports_pde001_with_witness() {
        let diags = input(
            "source E/2; target H/2",
            "E(x, y) -> H(x, y)",
            "",
            "H(x, y) -> exists z . H(y, z)",
        )
        .analyze();
        let d = diags
            .iter()
            .find(|d| d.code == Code::WeakAcyclicityViolation)
            .expect("PDE001");
        assert_eq!(d.severity, Severity::Error);
        // Satellite of the termination work: the message names the full
        // position cycle and the diagnostic points at a Σt dependency on
        // the witness cycle.
        assert!(d.message.contains("witness cycle"), "{}", d.message);
        assert!(d.message.contains("H.1"), "{}", d.message);
        let c = d.constraint.expect("pinned to a cycle dependency");
        assert_eq!(c.group, Group::T);
        assert_eq!(c.index, 0);
        assert!(d.span.is_some(), "span points into the %t section");
        // Every criterion of the hierarchy fails here, so PDE052 rides
        // along with the criterion trail.
        let d = diags
            .iter()
            .find(|d| d.code == Code::AllTerminationCriteriaFail)
            .expect("PDE052");
        assert_eq!(d.severity, Severity::Error);
        assert!(
            d.notes[0].contains("critical-instance: failed"),
            "{:?}",
            d.notes
        );
    }

    #[test]
    fn jointly_acyclic_target_reports_pde050_note_not_pde001() {
        // Not weakly acyclic (C.1 =(special)=> ... cycle through A), but
        // jointly acyclic: the existential z's nulls never re-enter the
        // premise position that creates them.
        let diags = input(
            "source SA/1; source SB/1; target A/1; target B/1; target C/2",
            "SA(x) -> A(x); SB(x) -> B(x)",
            "",
            "A(x), B(x) -> exists z . C(x, z); C(x, y) -> A(y)",
        )
        .analyze();
        let d = diags
            .iter()
            .find(|d| d.code == Code::TerminatesBeyondWeakAcyclicity)
            .expect("PDE050");
        assert_eq!(d.severity, Severity::Note);
        assert!(d.message.contains("joint-acyclicity"), "{}", d.message);
        assert!(d.message.contains("witness cycle"), "{}", d.message);
        assert_eq!(d.constraint.map(|c| c.group), Some(Group::T));
        assert!(d.span.is_some());
        assert!(!codes(&diags).contains(&"PDE001"), "{:?}", codes(&diags));
        assert!(!codes(&diags).contains(&"PDE052"), "{:?}", codes(&diags));
    }

    #[test]
    fn critical_instance_only_reports_pde051_warning() {
        let diags = input(
            "source S/1; target A/1; target R/2",
            "S(x) -> A(x)",
            "",
            "A(x) -> exists y . R(x, y); R(x, y) -> R(y, x); R(w, w) -> A(w)",
        )
        .analyze();
        let d = diags
            .iter()
            .find(|d| d.code == Code::CriticalInstanceOnly)
            .expect("PDE051");
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.message.contains("critical-instance"), "{}", d.message);
        assert!(
            d.notes[0].contains("super-weak-acyclicity: failed"),
            "{:?}",
            d.notes
        );
        assert!(!codes(&diags).contains(&"PDE001"), "{:?}", codes(&diags));
        assert!(!codes(&diags).contains(&"PDE050"), "{:?}", codes(&diags));
    }

    #[test]
    fn outside_ctract_reports_pde002_per_violation() {
        // Repeated marked variable in a ts-tgd LHS: condition 1 fails.
        let diags = input(
            "source E/2; target H/2",
            "E(x, y) -> exists z . H(x, z)",
            "H(x, x) -> E(x, x)",
            "",
        )
        .analyze();
        assert!(
            diags.iter().any(|d| d.code == Code::OutsideCtract),
            "{:?}",
            codes(&diags)
        );
        let d = diags
            .iter()
            .find(|d| d.code == Code::OutsideCtract)
            .unwrap();
        assert_eq!(d.constraint.unwrap().group, Group::Ts);
        assert!(d.span.is_some());
    }

    #[test]
    fn pde002_silent_when_target_constraints_present() {
        let diags = input(
            "source E/2; target H/2",
            "E(x, y) -> exists z . H(x, z)",
            "H(x, x) -> E(x, x)",
            "H(x, y), H(x, z) -> y = z",
        )
        .analyze();
        assert!(!diags.iter().any(|d| d.code == Code::OutsideCtract));
        // Instead the egd boundary fires.
        assert!(diags.iter().any(|d| d.code == Code::TargetEgdBoundary));
    }

    #[test]
    fn boundary_lints_need_nonempty_ts() {
        // Pure data exchange: egds and full tgds in Σt are fine.
        let diags = input(
            "source E/2; target H/2; target K/2",
            "E(x, y) -> H(x, y)",
            "",
            "H(x, y) -> K(x, y); H(x, y), H(x, z) -> y = z",
        )
        .analyze();
        assert!(!diags.iter().any(|d| d.code == Code::TargetEgdBoundary));
        assert!(!diags.iter().any(|d| d.code == Code::FullTargetTgdBoundary));
    }

    #[test]
    fn full_target_tgd_with_ts_reports_pde004() {
        let diags = input(
            "source E/2; target H/2; target K/2",
            "E(x, y) -> H(x, y)",
            "K(x, y) -> E(x, y)",
            "H(x, y) -> K(x, y)",
        )
        .analyze();
        assert!(
            diags.iter().any(|d| d.code == Code::FullTargetTgdBoundary),
            "{:?}",
            codes(&diags)
        );
    }

    #[test]
    fn invalid_dependency_reports_pde01x_and_skips_semantic_passes() {
        let s = Arc::new(pde_relational::parse_schema("source E/2; target H/2").unwrap());
        // Conclusion variable z is unbound: built programmatically because
        // the parser would accept it too (existentials must be declared).
        let bad = parse_tgds(&s, "E(x, y) -> H(x, z)").unwrap();
        let diags = AnalysisInput::from_parts(s, bad, vec![], vec![]).analyze();
        assert_eq!(codes(&diags), ["PDE010"]);
        assert_eq!(diags[0].severity, Severity::Error);
    }

    #[test]
    fn arity_mismatch_reports_pde017() {
        use pde_relational::{Atom, Conjunction, Term};
        let s = Arc::new(pde_relational::parse_schema("source E/2; target H/2").unwrap());
        let e = s.rel_id("E").unwrap();
        let h = s.rel_id("H").unwrap();
        // Hand-built atom with the wrong number of terms (the parser
        // rejects this, so only programmatic inputs can carry it).
        let bad = Tgd::full(
            Conjunction::new(vec![Atom {
                rel: e,
                terms: vec![Term::Var(Var::new("x"))],
            }]),
            Conjunction::new(vec![Atom {
                rel: h,
                terms: vec![Term::Var(Var::new("x")), Term::Var(Var::new("x"))],
            }]),
        );
        let diags = AnalysisInput::from_parts(s, vec![bad], vec![], vec![]).analyze();
        assert!(codes(&diags).contains(&"PDE017"), "{:?}", codes(&diags));
    }

    #[test]
    fn wildcard_universal_is_a_note_and_underscore_exempts() {
        let diags = input("source E/2; target H/1", "E(x, y) -> H(x)", "", "").analyze();
        let d = diags
            .iter()
            .find(|d| d.code == Code::WildcardUniversal)
            .expect("PDE018");
        assert_eq!(d.severity, Severity::Note);
        assert!(d.message.contains('y'));
        let diags = input("source E/2; target H/1", "E(x, _y) -> H(x)", "", "").analyze();
        assert!(!diags.iter().any(|d| d.code == Code::WildcardUniversal));
    }

    #[test]
    fn join_variables_are_not_wildcards() {
        let diags = input(
            "source E/2; target H/2",
            "E(x, z), E(z, y) -> H(x, y)",
            "",
            "",
        )
        .analyze();
        assert!(diags.is_empty(), "{:?}", codes(&diags));
    }

    #[test]
    fn trivial_egd_reports_pde019() {
        let diags = input(
            "source E/2; target H/2",
            "E(x, y) -> H(x, y)",
            "",
            "H(x, y) -> x = x",
        )
        .analyze();
        assert!(codes(&diags).contains(&"PDE019"), "{:?}", codes(&diags));
    }

    #[test]
    fn duplicates_report_pde020_not_pde021() {
        let diags = input(
            "source E/2; target H/2",
            "E(x, y) -> H(x, y); E(x, y) -> H(x, y)",
            "",
            "",
        )
        .analyze();
        assert!(codes(&diags).contains(&"PDE020"), "{:?}", codes(&diags));
        assert!(!codes(&diags).contains(&"PDE021"));
        let d = diags
            .iter()
            .find(|d| d.code == Code::DuplicateDependency)
            .unwrap();
        assert_eq!(d.constraint.unwrap().index, 1);
    }

    #[test]
    fn subsumed_tgd_reports_pde021() {
        // The second tgd asks for a weaker conclusion than the first
        // already guarantees from the same premise.
        let diags = input(
            "source E/2; target H/2; target K/2",
            "E(x, y) -> H(x, y), K(x, y); E(x, y) -> H(x, y)",
            "",
            "",
        )
        .analyze();
        let d = diags
            .iter()
            .find(|d| d.code == Code::SubsumedTgd)
            .expect("PDE021");
        assert_eq!(d.constraint.unwrap().index, 1);
        assert!(d.message.contains("#0"));
    }

    #[test]
    fn independent_tgds_are_not_subsumed() {
        let diags = input(
            "source E/2; target H/2; target K/2",
            "E(x, y) -> H(x, y); E(x, y) -> K(y, x)",
            "",
            "",
        )
        .analyze();
        assert!(!codes(&diags).contains(&"PDE021"), "{:?}", codes(&diags));
    }

    #[test]
    fn subsumption_respects_existentials() {
        // H(x, z) for an existential z is implied by H(x, y) from E(x, y):
        // map z to the frozen y.
        let diags = input(
            "source E/2; target H/2",
            "E(x, y) -> H(x, y); E(x, y) -> exists z . H(x, z)",
            "",
            "",
        )
        .analyze();
        let d = diags
            .iter()
            .find(|d| d.code == Code::SubsumedTgd)
            .expect("PDE021");
        assert_eq!(d.constraint.unwrap().index, 1);
    }

    #[test]
    fn unpopulated_target_relation_reports_pde030() {
        let diags = input(
            "source E/2; target H/2; target K/2",
            "E(x, y) -> H(x, y)",
            "K(x, y) -> E(x, y)",
            "",
        )
        .analyze();
        let d = diags
            .iter()
            .find(|d| d.code == Code::UnpopulatedTargetRelation)
            .expect("PDE030");
        assert!(d.message.contains('K'));
    }

    #[test]
    fn unused_relation_reports_pde031() {
        let diags = input(
            "source E/2; source F/3; target H/2",
            "E(x, y) -> H(x, y)",
            "",
            "",
        )
        .analyze();
        let d = diags
            .iter()
            .find(|d| d.code == Code::UnusedRelation)
            .expect("PDE031");
        assert_eq!(d.severity, Severity::Note);
        assert!(d.message.contains('F'));
    }

    #[test]
    fn subsumed_egd_reports_pde040() {
        // The two-atom egd only fires on symmetric H pairs; the one-atom
        // egd already forces the same equality on every H tuple.
        let diags = input(
            "source E/2; target H/2",
            "E(x, y) -> H(x, y)",
            "",
            "H(x, y) -> x = y; H(x, y), H(y, x) -> x = y",
        )
        .analyze();
        let d = diags
            .iter()
            .find(|d| d.code == Code::SubsumedEgd)
            .expect("PDE040");
        assert_eq!(d.constraint.unwrap().index, 1);
        assert!(d.message.contains("#0"));
    }

    #[test]
    fn independent_egds_are_not_pde040() {
        let diags = input(
            "source E/2; target H/2",
            "E(x, y) -> H(x, y)",
            "",
            "H(x, y), H(x, z) -> y = z; H(x, y), H(z, y) -> x = z",
        )
        .analyze();
        assert!(!codes(&diags).contains(&"PDE040"), "{:?}", codes(&diags));
    }

    #[test]
    fn alpha_renamed_duplicate_reports_pde041_not_pde020() {
        let diags = input(
            "source E/2; target H/2",
            "E(x, y) -> H(x, y); E(u, v) -> H(u, v)",
            "",
            "",
        )
        .analyze();
        let d = diags
            .iter()
            .find(|d| d.code == Code::AlphaDuplicateDependency)
            .expect("PDE041");
        assert_eq!(d.constraint.unwrap().index, 1);
        assert!(!codes(&diags).contains(&"PDE020"), "{:?}", codes(&diags));
    }

    #[test]
    fn exact_duplicate_stays_pde020_not_pde041() {
        let diags = input(
            "source E/2; target H/2",
            "E(x, y) -> H(x, y); E(x, y) -> H(x, y)",
            "",
            "",
        )
        .analyze();
        assert!(codes(&diags).contains(&"PDE020"), "{:?}", codes(&diags));
        assert!(!codes(&diags).contains(&"PDE041"), "{:?}", codes(&diags));
    }

    #[test]
    fn dead_relation_reports_pde042_where_pde030_is_silent() {
        // G is never concluded: PDE030. K *is* concluded, but only by the
        // tgd reading dead G, so no derivation ever populates it: PDE042.
        let diags = input(
            "source E/2; target G/2; target H/2; target K/2",
            "E(x, y) -> H(x, y)",
            "",
            "G(x, y) -> K(x, y); K(x, y) -> x = y",
        )
        .analyze();
        let d = diags
            .iter()
            .find(|d| d.code == Code::DeadRelation)
            .expect("PDE042");
        assert!(d.message.contains('K'), "{}", d.message);
        assert!(codes(&diags).contains(&"PDE030"), "{:?}", codes(&diags));
    }

    #[test]
    fn populatable_chain_is_not_pde042() {
        let diags = input(
            "source E/2; target H/2; target K/2",
            "E(x, y) -> H(x, y)",
            "",
            "H(x, y) -> K(x, y); K(x, y) -> x = y",
        )
        .analyze();
        assert!(!codes(&diags).contains(&"PDE042"), "{:?}", codes(&diags));
        assert!(!codes(&diags).contains(&"PDE030"), "{:?}", codes(&diags));
    }

    #[test]
    fn disjunctive_boundary_reports_pde005() {
        let s = pde_relational::parse_schema("source E/2; target H/2; target C/2").unwrap();
        let d = pde_constraints::parser::parse_disjunctive_tgd(&s, "H(x, y) -> E(x, y) | C(x, y)")
            .unwrap();
        let diags = analyze_disjunctive(&s, &[d]);
        assert_eq!(codes(&diags), ["PDE005"]);
        // A single-disjunct tgd is just a tgd: no PDE005.
        let plain =
            pde_constraints::parser::parse_disjunctive_tgd(&s, "H(x, y) -> E(x, y)").unwrap();
        assert!(analyze_disjunctive(&s, &[plain]).is_empty());
    }

    #[test]
    fn diagnostics_are_sorted_and_deterministic() {
        let diags = input(
            "source E/2; target H/2; target K/2",
            "E(x, y) -> H(x, y); E(x, y) -> H(x, y)",
            "K(x, y) -> E(x, y)",
            "H(x, y) -> x = x",
        )
        .analyze();
        let keys: Vec<_> = diags
            .iter()
            .map(|d| (d.constraint.map(|c| (c.group, c.index)), d.code))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_by_key(|(c, code)| {
            (
                c.map_or((0, 0), |(g, i)| {
                    (
                        match g {
                            Group::St => 1,
                            Group::Ts => 2,
                            Group::T => 3,
                        },
                        i,
                    )
                }),
                *code,
            )
        });
        assert_eq!(keys, sorted);
    }
}
