//! Semantics-preserving dependency rewriting (`pde optimize`).
//!
//! Four pruning passes shrink a setting without changing `SOL(P)` or the
//! certain answers of any union of conjunctive queries:
//!
//! 1. **trivial egds** — `… -> x = x` is a tautology;
//! 2. **duplicates** — alpha-equivalent dependencies in one group fire the
//!    same triggers twice; the first occurrence is kept (detected by a
//!    canonicalized dependency key, de Bruijn-renamed by first occurrence);
//! 3. **subsumed dependencies** — a tgd whose frozen premise, chased with
//!    an earlier surviving tgd, already satisfies its conclusion is a
//!    logical consequence of that tgd (the `analyzer::subsumed_by`
//!    check behind lint `PDE021`); an egd implied by an earlier egd via a
//!    premise homomorphism mapping the equated pair onto it likewise;
//! 4. **dead dependencies** — a dependency whose premise mentions a
//!    relation that is empty in the actual input and unpopulatable by any
//!    surviving tgd can never fire; removing it is sound because any
//!    solution of the optimized setting, restricted to the populatable
//!    relations, is a solution of the original setting (and certain
//!    answers transfer by monotonicity of unions of conjunctive queries).
//!
//! Every deletion carries a machine-checkable witness inside a
//! [`RewriteCertificate`]; its [`Verifiable::verify`] replays the
//! derivation independently of the optimizer invocation that produced the
//! certificate and rejects on any divergence, like the plan certificate's
//! checker.
//!
//! Passes 1–3 depend only on the setting; pass 4 additionally depends on
//! which relations are nonempty in the input instance, which is why the
//! certificate records that set and the verifier recomputes it.

use crate::analyzer::{freeze, freeze_premise, subsumed_by};
use crate::certificate::{CertificateError, Verifiable};
use pde_constraints::{Dependency, Egd, Tgd};
use pde_core::setting::PdeSetting;
use pde_relational::{for_each_hom, Assignment, Instance, RelId, Schema, Symbol, Term, Var};
use pde_trace::json::{Json, ObjExt as _};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::ops::ControlFlow;
use std::sync::Arc;

/// Version tag of the rewrite-certificate format.
pub const REWRITE_VERSION: u32 = 1;

/// Which dependency group of the setting an action refers to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RewriteGroup {
    /// Σst (source-to-target tgds).
    SigmaSt,
    /// Σts (target-to-source tgds).
    SigmaTs,
    /// Σt (target tgds and egds).
    SigmaT,
}

impl RewriteGroup {
    /// Stable group name used in certificates and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            RewriteGroup::SigmaSt => "sigma_st",
            RewriteGroup::SigmaTs => "sigma_ts",
            RewriteGroup::SigmaT => "sigma_t",
        }
    }

    fn from_str(s: &str) -> Option<RewriteGroup> {
        match s {
            "sigma_st" => Some(RewriteGroup::SigmaSt),
            "sigma_ts" => Some(RewriteGroup::SigmaTs),
            "sigma_t" => Some(RewriteGroup::SigmaT),
            _ => None,
        }
    }
}

impl fmt::Display for RewriteGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One pruning step, with the witness that justifies it. Indices are
/// positions in the *original* group, so actions remain meaningful after
/// earlier deletions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RewriteAction {
    /// The egd at `index` equates a variable with itself.
    RemoveTrivialEgd {
        /// Group containing the egd.
        group: RewriteGroup,
        /// Original index within the group.
        index: usize,
    },
    /// The dependency at `index` is alpha-equivalent to the earlier
    /// dependency at `kept`.
    RemoveDuplicate {
        /// Group containing both dependencies.
        group: RewriteGroup,
        /// Original index of the removed copy.
        index: usize,
        /// Original index of the surviving first occurrence.
        kept: usize,
    },
    /// The dependency at `index` is logically implied by the surviving
    /// dependency at `by` (same group, same kind).
    RemoveSubsumed {
        /// Group containing both dependencies.
        group: RewriteGroup,
        /// Original index of the implied dependency.
        index: usize,
        /// Original index of the subsuming dependency.
        by: usize,
    },
    /// The dependency at `index` reads `relation`, which is empty in the
    /// input and unpopulatable by the surviving tgds, so it can never fire.
    RemoveDead {
        /// Group containing the dependency.
        group: RewriteGroup,
        /// Original index within the group.
        index: usize,
        /// Name of the unpopulatable premise relation (the witness).
        relation: String,
    },
}

impl RewriteAction {
    /// The group this action prunes from.
    pub fn group(&self) -> RewriteGroup {
        match self {
            RewriteAction::RemoveTrivialEgd { group, .. }
            | RewriteAction::RemoveDuplicate { group, .. }
            | RewriteAction::RemoveSubsumed { group, .. }
            | RewriteAction::RemoveDead { group, .. } => *group,
        }
    }

    /// The original index of the removed dependency.
    pub fn index(&self) -> usize {
        match self {
            RewriteAction::RemoveTrivialEgd { index, .. }
            | RewriteAction::RemoveDuplicate { index, .. }
            | RewriteAction::RemoveSubsumed { index, .. }
            | RewriteAction::RemoveDead { index, .. } => *index,
        }
    }

    /// Stable action name used in certificates and reports.
    pub fn kind(&self) -> &'static str {
        match self {
            RewriteAction::RemoveTrivialEgd { .. } => "remove-trivial-egd",
            RewriteAction::RemoveDuplicate { .. } => "remove-duplicate",
            RewriteAction::RemoveSubsumed { .. } => "remove-subsumed",
            RewriteAction::RemoveDead { .. } => "remove-dead",
        }
    }
}

/// Dependency counts per group, recorded before and after optimization.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GroupCounts {
    /// Σst tgds.
    pub sigma_st: usize,
    /// Σts tgds.
    pub sigma_ts: usize,
    /// Σt dependencies.
    pub sigma_t: usize,
}

impl GroupCounts {
    /// Total dependencies across the three groups.
    pub fn total(&self) -> usize {
        self.sigma_st + self.sigma_ts + self.sigma_t
    }

    fn of(setting: &PdeSetting) -> GroupCounts {
        GroupCounts {
            sigma_st: setting.sigma_st().len(),
            sigma_ts: setting.sigma_ts().len(),
            sigma_t: setting.sigma_t().len(),
        }
    }
}

/// A machine-checkable record of one optimization run over one
/// `(setting, input)` pair. [`Verifiable::verify`] replays the derivation
/// and rejects the certificate on any divergence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RewriteCertificate {
    /// Format version ([`REWRITE_VERSION`]).
    pub version: u32,
    /// Sorted names of the relations nonempty in the input instance — the
    /// seed of the populatability fixpoint, recorded because pass 4 is
    /// input-dependent.
    pub input_nonempty: Vec<String>,
    /// Sorted names of the relations that are empty in the input and
    /// unpopulatable by the surviving tgds.
    pub dead_relations: Vec<String>,
    /// Dependency counts before optimization.
    pub before: GroupCounts,
    /// Dependency counts after optimization.
    pub after: GroupCounts,
    /// The pruning steps, in derivation order.
    pub actions: Vec<RewriteAction>,
}

/// Output of [`optimize_setting`]: the pruned setting plus its
/// certificate.
#[derive(Clone, Debug)]
pub struct OptimizeResult {
    /// The setting with all pruned dependencies removed.
    pub optimized: PdeSetting,
    /// The certificate justifying every removal.
    pub certificate: RewriteCertificate,
}

/// Run all four pruning passes over `setting` with respect to `input`,
/// producing the optimized setting and its certificate.
///
/// The rewrite is sound for the actual `input` only: pass 4 removes
/// dependencies that cannot fire given which relations `input` populates,
/// so a certificate must be re-verified (or optimization re-run) when the
/// input changes.
pub fn optimize_setting(setting: &PdeSetting, input: &Instance) -> OptimizeResult {
    let d = derive(setting, input);
    let optimized = PdeSetting::new(setting.schema().clone(), d.sigma_st, d.sigma_ts, d.sigma_t)
        .expect("removing dependencies from a valid setting keeps it valid");
    OptimizeResult {
        optimized,
        certificate: RewriteCertificate {
            version: REWRITE_VERSION,
            input_nonempty: d.input_nonempty,
            dead_relations: d.dead_relations,
            before: GroupCounts::of(setting),
            after: d.after,
            actions: d.actions,
        },
    }
}

/// Independently revalidate `cert` against `original` and `input`:
/// replay the whole derivation (canonical keys, subsumption chases, the
/// populatability fixpoint) and reject on any divergence — wrong version,
/// a different nonempty-relation seed, a missing or fabricated action, or
/// inconsistent counts.
fn check(
    original: &PdeSetting,
    input: &Instance,
    cert: &RewriteCertificate,
) -> Result<(), CertificateError> {
    if cert.version != REWRITE_VERSION {
        return Err(CertificateError::Version {
            kind: RewriteCertificate::KIND,
            found: cert.version,
            expected: REWRITE_VERSION,
        });
    }
    let before = GroupCounts::of(original);
    if cert.before != before {
        return Err(CertificateError::Rewrite(format!(
            "certificate records {} original dependencies, setting has {}",
            cert.before.total(),
            before.total()
        )));
    }
    // Structural sanity before the expensive replay: indices in range.
    for a in &cert.actions {
        let len = match a.group() {
            RewriteGroup::SigmaSt => before.sigma_st,
            RewriteGroup::SigmaTs => before.sigma_ts,
            RewriteGroup::SigmaT => before.sigma_t,
        };
        if a.index() >= len {
            return Err(CertificateError::Rewrite(format!(
                "action {} index {} out of range for {} (len {})",
                a.kind(),
                a.index(),
                a.group(),
                len
            )));
        }
    }
    let d = derive(original, input);
    if d.input_nonempty != cert.input_nonempty {
        return Err(CertificateError::Rewrite(format!(
            "input-nonempty relations are [{}], certificate records [{}]",
            d.input_nonempty.join(", "),
            cert.input_nonempty.join(", ")
        )));
    }
    if d.dead_relations != cert.dead_relations {
        return Err(CertificateError::Rewrite(format!(
            "dead relations are [{}], certificate records [{}]",
            d.dead_relations.join(", "),
            cert.dead_relations.join(", ")
        )));
    }
    let n = d.actions.len().max(cert.actions.len());
    for i in 0..n {
        match (d.actions.get(i), cert.actions.get(i)) {
            (Some(ours), Some(theirs)) if ours == theirs => {}
            (Some(ours), Some(theirs)) => {
                return Err(CertificateError::Rewrite(format!(
                    "action {i} diverges: derivation finds {ours:?}, certificate records {theirs:?}"
                )));
            }
            (Some(ours), None) => {
                return Err(CertificateError::Rewrite(format!(
                    "certificate omits action {i}: {ours:?}"
                )));
            }
            (None, Some(theirs)) => {
                return Err(CertificateError::Rewrite(format!(
                    "certificate fabricates action {i}: {theirs:?}"
                )));
            }
            (None, None) => unreachable!("loop bound is the max of both lengths"),
        }
    }
    if d.after != cert.after {
        return Err(CertificateError::Rewrite(format!(
            "surviving counts are {}/{}/{}, certificate records {}/{}/{}",
            d.after.sigma_st,
            d.after.sigma_ts,
            d.after.sigma_t,
            cert.after.sigma_st,
            cert.after.sigma_ts,
            cert.after.sigma_t
        )));
    }
    Ok(())
}

/// The full derivation: everything both [`optimize_setting`] and
/// its checker need, computed in one deterministic order.
struct Derivation {
    actions: Vec<RewriteAction>,
    input_nonempty: Vec<String>,
    dead_relations: Vec<String>,
    sigma_st: Vec<Tgd>,
    sigma_ts: Vec<Tgd>,
    sigma_t: Vec<Dependency>,
    after: GroupCounts,
}

fn derive(setting: &PdeSetting, input: &Instance) -> Derivation {
    let schema = setting.schema();
    let mut actions = Vec::new();
    // Passes 1–3, per group.
    let mut st = prune_group(
        schema,
        RewriteGroup::SigmaSt,
        setting.sigma_st().iter().cloned().map(Dependency::Tgd),
        &mut actions,
    );
    let mut ts = prune_group(
        schema,
        RewriteGroup::SigmaTs,
        setting.sigma_ts().iter().cloned().map(Dependency::Tgd),
        &mut actions,
    );
    let mut t = prune_group(
        schema,
        RewriteGroup::SigmaT,
        setting.sigma_t().iter().cloned(),
        &mut actions,
    );

    // Pass 4: populatability fixpoint over the survivors, seeded by the
    // relations the input actually populates.
    let seed: BTreeSet<RelId> = schema
        .rel_ids()
        .filter(|&r| !input.relation(r).is_empty())
        .collect();
    let mut populatable = seed.clone();
    loop {
        let mut changed = false;
        let tgds = st
            .iter()
            .chain(ts.iter())
            .chain(t.iter())
            .filter_map(|(_, d)| d.as_tgd());
        for tgd in tgds {
            if tgd
                .premise
                .atoms
                .iter()
                .all(|a| populatable.contains(&a.rel))
            {
                for a in &tgd.conclusion.atoms {
                    changed |= populatable.insert(a.rel);
                }
            }
        }
        if !changed {
            break;
        }
    }
    for (group, survivors) in [
        (RewriteGroup::SigmaSt, &mut st),
        (RewriteGroup::SigmaTs, &mut ts),
        (RewriteGroup::SigmaT, &mut t),
    ] {
        survivors.retain(|(index, dep)| {
            let premise = match dep {
                Dependency::Tgd(t) => &t.premise,
                Dependency::Egd(e) => &e.premise,
            };
            let unpopulatable = premise.atoms.iter().find(|a| !populatable.contains(&a.rel));
            match unpopulatable {
                Some(a) => {
                    actions.push(RewriteAction::RemoveDead {
                        group,
                        index: *index,
                        relation: schema.name(a.rel).as_str(),
                    });
                    false
                }
                None => true,
            }
        });
    }

    let name_of = |r: RelId| schema.name(r).as_str();
    let input_nonempty: Vec<String> = seed.iter().map(|&r| name_of(r)).collect();
    let mut input_nonempty_sorted = input_nonempty;
    input_nonempty_sorted.sort();
    let mut dead_relations: Vec<String> = schema
        .rel_ids()
        .filter(|r| !populatable.contains(r))
        .map(name_of)
        .collect();
    dead_relations.sort();

    let unwrap_tgd = |(_, d): (usize, Dependency)| match d {
        Dependency::Tgd(t) => t,
        Dependency::Egd(_) => unreachable!("Σst/Σts groups contain only tgds"),
    };
    let sigma_st: Vec<Tgd> = st.into_iter().map(unwrap_tgd).collect();
    let sigma_ts: Vec<Tgd> = ts.into_iter().map(unwrap_tgd).collect();
    let sigma_t: Vec<Dependency> = t.into_iter().map(|(_, d)| d).collect();
    let after = GroupCounts {
        sigma_st: sigma_st.len(),
        sigma_ts: sigma_ts.len(),
        sigma_t: sigma_t.len(),
    };
    Derivation {
        actions,
        input_nonempty: input_nonempty_sorted,
        dead_relations,
        sigma_st,
        sigma_ts,
        sigma_t,
        after,
    }
}

/// Passes 1–3 over one group: trivial egds, canonical duplicates, then
/// subsumption against earlier survivors. Returns the survivors paired
/// with their original indices.
fn prune_group(
    schema: &Arc<Schema>,
    group: RewriteGroup,
    deps: impl Iterator<Item = Dependency>,
    actions: &mut Vec<RewriteAction>,
) -> Vec<(usize, Dependency)> {
    let mut survivors: Vec<(usize, Dependency)> = Vec::new();
    let mut first_by_key: HashMap<CanonicalKey, usize> = HashMap::new();
    for (index, dep) in deps.enumerate() {
        // Pass 1: trivial egds.
        if let Dependency::Egd(e) = &dep {
            if e.is_trivial() {
                actions.push(RewriteAction::RemoveTrivialEgd { group, index });
                continue;
            }
        }
        // Pass 2: alpha-equivalent duplicates (first occurrence wins).
        let key = canonical_key(&dep);
        if let Some(&kept) = first_by_key.get(&key) {
            actions.push(RewriteAction::RemoveDuplicate { group, index, kept });
            continue;
        }
        // Pass 3: implication by an earlier survivor of the same kind.
        // Checking only earlier survivors keeps the pass order-stable: a
        // dependency never outlives something it was removed in favor of.
        let implied_by = survivors.iter().find_map(|(j, earlier)| {
            let implied = match (&dep, earlier) {
                (Dependency::Tgd(sub), Dependency::Tgd(by)) => subsumed_by(schema, sub, by),
                (Dependency::Egd(sub), Dependency::Egd(by)) => egd_subsumed_by(schema, sub, by),
                _ => false,
            };
            implied.then_some(*j)
        });
        if let Some(by) = implied_by {
            actions.push(RewriteAction::RemoveSubsumed { group, index, by });
            continue;
        }
        first_by_key.insert(key, index);
        survivors.push((index, dep));
    }
    survivors
}

/// Is `sub` implied by `by`? Conservative one-step check: freeze `sub`'s
/// premise into constants and look for a homomorphism of `by`'s premise
/// into it that maps `by`'s equated pair onto `sub`'s frozen pair (in
/// either orientation). If one exists, any instance satisfying `by` and
/// containing an image of `sub`'s premise already equates `sub`'s pair.
pub(crate) fn egd_subsumed_by(schema: &Arc<Schema>, sub: &Egd, by: &Egd) -> bool {
    let frozen = freeze_premise(schema, &sub.premise.atoms);
    let (lhs, rhs) = (freeze(sub.lhs), freeze(sub.rhs));
    if lhs == rhs {
        // Trivial egds are removed by pass 1; nothing can subsume them.
        return false;
    }
    for_each_hom(&by.premise.atoms, &frozen, &Assignment::new(), |a| {
        // The equated variables occur in `by`'s premise (validated), so a
        // full homomorphism binds them.
        let l = a.get(by.lhs).expect("egd lhs occurs in its premise");
        let r = a.get(by.rhs).expect("egd rhs occurs in its premise");
        if (l == lhs && r == rhs) || (l == rhs && r == lhs) {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    })
    .is_break()
}

/// One token of a [`CanonicalKey`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) enum KeyToken {
    /// Starts a tgd key.
    Tgd,
    /// Starts an egd key.
    Egd,
    /// Separates the premise from the conclusion (tgd) or the equated
    /// pair (egd).
    Then,
    /// An atom's relation; its arity many term tokens follow.
    Rel(RelId),
    /// A variable, numbered by first occurrence.
    Var(usize),
    /// A constant.
    Const(Symbol),
}

/// Alpha-renaming-invariant dependency key, built from structured tokens
/// so that no two distinct dependencies can share one, whatever their
/// constants spell.
pub(crate) type CanonicalKey = Vec<KeyToken>;

/// Alpha-renaming-invariant key: atoms in textual order with variables
/// renamed by first occurrence (premise first, then conclusion / equated
/// pair). Two dependencies share a key iff they are equal up to renaming
/// of variables. Conclusion-only variables are exactly the existentials
/// (validation forbids unbound conclusion variables), so the key needs no
/// separate quantifier encoding. The egd pair is order-normalized so
/// `x = y` and `y = x` collide.
pub(crate) fn canonical_key(dep: &Dependency) -> CanonicalKey {
    let mut numbering: HashMap<Var, usize> = HashMap::new();
    let mut number = |v: Var| {
        let next = numbering.len();
        *numbering.entry(v).or_insert(next)
    };
    let mut key = Vec::new();
    let mut atoms = |atoms: &[pde_relational::Atom], key: &mut CanonicalKey| {
        for atom in atoms {
            key.push(KeyToken::Rel(atom.rel));
            key.extend(atom.terms.iter().map(|term| match term {
                Term::Var(v) => KeyToken::Var(number(*v)),
                Term::Const(c) => KeyToken::Const(*c),
            }));
        }
    };
    match dep {
        Dependency::Tgd(t) => {
            key.push(KeyToken::Tgd);
            atoms(&t.premise.atoms, &mut key);
            key.push(KeyToken::Then);
            atoms(&t.conclusion.atoms, &mut key);
        }
        Dependency::Egd(e) => {
            key.push(KeyToken::Egd);
            atoms(&e.premise.atoms, &mut key);
            key.push(KeyToken::Then);
            let mut pair = [number(e.lhs), number(e.rhs)];
            pair.sort_unstable();
            key.extend(pair.map(KeyToken::Var));
        }
    }
    key
}

impl Verifiable for RewriteCertificate {
    const KIND: &'static str = "rewrite";

    fn to_json(&self) -> Json {
        let names = |xs: &[String]| xs.iter().map(Json::from).collect();
        let counts = |c: &GroupCounts| {
            Json::from_iter([
                ("sigma_st", c.sigma_st.into()),
                ("sigma_ts", c.sigma_ts.into()),
                ("sigma_t", c.sigma_t.into()),
            ])
        };
        let actions = self.actions.iter().map(|a| {
            let detail = match a {
                RewriteAction::RemoveTrivialEgd { .. } => None,
                RewriteAction::RemoveDuplicate { kept, .. } => Some(("kept", (*kept).into())),
                RewriteAction::RemoveSubsumed { by, .. } => Some(("by", (*by).into())),
                RewriteAction::RemoveDead { relation, .. } => Some(("relation", relation.into())),
            };
            let head = [
                ("action", a.kind().into()),
                ("group", a.group().as_str().into()),
                ("index", a.index().into()),
            ];
            Json::from_iter(head.into_iter().chain(detail))
        });
        Json::from_iter([
            ("v", self.version.into()),
            ("kind", "pde-rewrite-certificate".into()),
            ("input_nonempty", names(&self.input_nonempty)),
            ("dead_relations", names(&self.dead_relations)),
            ("before", counts(&self.before)),
            ("after", counts(&self.after)),
            ("actions", actions.collect()),
        ])
    }

    fn from_json_value(root: &Json) -> Result<RewriteCertificate, String> {
        let obj = root.as_obj("certificate")?;
        let kind = obj.get_str("kind")?;
        if kind != "pde-rewrite-certificate" {
            return Err(format!("unexpected kind '{kind}'"));
        }
        let version = obj.get_num("v")?;
        let version = u32::try_from(version).map_err(|_| "version out of range".to_string())?;
        let strings = |key: &str| obj.field_of(key)?.as_strings(key);
        let counts = |key: &str| -> Result<GroupCounts, String> {
            let c = obj.field_of(key)?.as_obj(key)?;
            Ok(GroupCounts {
                sigma_st: c.get_num("sigma_st")?,
                sigma_ts: c.get_num("sigma_ts")?,
                sigma_t: c.get_num("sigma_t")?,
            })
        };
        let mut actions = Vec::new();
        for v in root.get_arr("actions")? {
            let a = v.as_obj("action")?;
            let group = RewriteGroup::from_str(&a.get_str("group")?).ok_or("unknown group")?;
            let index = a.get_num("index")?;
            let action = match a.get_str("action")?.as_str() {
                "remove-trivial-egd" => RewriteAction::RemoveTrivialEgd { group, index },
                "remove-duplicate" => RewriteAction::RemoveDuplicate {
                    group,
                    index,
                    kept: a.get_num("kept")?,
                },
                "remove-subsumed" => RewriteAction::RemoveSubsumed {
                    group,
                    index,
                    by: a.get_num("by")?,
                },
                "remove-dead" => RewriteAction::RemoveDead {
                    group,
                    index,
                    relation: a.get_str("relation")?,
                },
                other => return Err(format!("unknown action '{other}'")),
            };
            actions.push(action);
        }
        Ok(RewriteCertificate {
            version,
            input_nonempty: strings("input_nonempty")?,
            dead_relations: strings("dead_relations")?,
            before: counts("before")?,
            after: counts("after")?,
            actions,
        })
    }

    fn verify(&self, setting: &PdeSetting, input: &Instance) -> Result<(), CertificateError> {
        check(setting, input, self)
    }

    fn summary(&self) -> String {
        format!(
            "{} action(s), {} -> {} dependencies",
            self.actions.len(),
            self.before.total(),
            self.after.total()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pde_relational::parse_instance;

    fn setting(st: &str, ts: &str, t: &str) -> PdeSetting {
        PdeSetting::parse("source E/2; source F/2; target H/2; target G/2;", st, ts, t).unwrap()
    }

    fn optimize(p: &PdeSetting, facts: &str) -> OptimizeResult {
        let input = parse_instance(p.schema(), facts).unwrap();
        optimize_setting(p, &input)
    }

    #[test]
    fn clean_setting_is_untouched() {
        let p = setting("E(x, y) -> H(x, y)", "H(x, y) -> E(x, y)", "");
        let out = optimize(&p, "E(a, b). F(a, b).");
        assert!(out.certificate.actions.is_empty());
        assert_eq!(out.certificate.before, out.certificate.after);
        assert_eq!(out.optimized.sigma_st(), p.sigma_st());
        let input = parse_instance(p.schema(), "E(a, b). F(a, b).").unwrap();
        out.certificate.verify(&p, &input).unwrap();
    }

    #[test]
    fn alpha_renamed_duplicate_is_removed() {
        let p = setting("E(x, y) -> H(x, y); E(u, w) -> H(u, w)", "", "");
        let out = optimize(&p, "E(a, b). F(a, b).");
        assert_eq!(
            out.certificate.actions,
            vec![RewriteAction::RemoveDuplicate {
                group: RewriteGroup::SigmaSt,
                index: 1,
                kept: 0
            }]
        );
        assert_eq!(out.optimized.sigma_st().len(), 1);
    }

    /// The key of the only dependency of `st` (a Σst tgd) or `t` (Σt).
    fn key_of(st: &str, t: &str) -> CanonicalKey {
        let p = setting(st, "", t);
        let dep = match p.sigma_st().first() {
            Some(tgd) => Dependency::Tgd(tgd.clone()),
            None => p.sigma_t()[0].clone(),
        };
        canonical_key(&dep)
    }

    #[test]
    fn alpha_renamed_dependencies_share_a_key() {
        assert_eq!(
            key_of("E(x, y), F(y, z) -> exists w . H(x, w), G(w, 'c')", ""),
            key_of("E(u, v), F(v, t) -> exists s . H(u, s), G(s, 'c')", "")
        );
        assert_eq!(
            key_of("", "H(x, y), H(x, z) -> y = z"),
            key_of("", "H(a, b), H(a, c) -> c = b")
        );
        assert_ne!(
            key_of("", "H(x, y), H(x, z) -> y = z"),
            key_of("", "H(x, y), H(x, z) -> x = z")
        );
    }

    #[test]
    fn constants_spelling_key_syntax_keep_dependencies_apart() {
        // Alike as text once `,` and `!` split constants and `?` numbers
        // variables.
        assert_ne!(
            key_of("E(x, y) -> H('a,!b', y)", ""),
            key_of("E(x, y) -> H('a', 'b,?1')", "")
        );
        assert_ne!(
            key_of("E(x, y) -> H(x, '!a')", ""),
            key_of("E(x, y) -> H(x, 'a')", "")
        );
        let constants = [
            "'a'",
            "'a,b'",
            "'a!b'",
            "'!a'",
            "'?0'",
            "'$opt$y'",
            "'$lint$x'",
            "\"a'b\"",
            "'a\"b'",
        ];
        for (i, a) in constants.iter().enumerate() {
            for b in &constants[i + 1..] {
                assert_ne!(
                    key_of(&format!("E(x, y) -> H(x, {a})"), ""),
                    key_of(&format!("E(x, y) -> H(x, {b})"), ""),
                    "{a} vs {b}"
                );
                assert_ne!(
                    key_of("", &format!("H(x, {a}), G(x, y) -> x = y")),
                    key_of("", &format!("H(x, {b}), G(x, y) -> x = y")),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn specialized_tgd_is_subsumed_by_general_one() {
        let p = setting("E(x, y) -> H(x, y); E(x, x) -> H(x, x)", "", "");
        let out = optimize(&p, "E(a, a). F(a, b).");
        assert_eq!(
            out.certificate.actions,
            vec![RewriteAction::RemoveSubsumed {
                group: RewriteGroup::SigmaSt,
                index: 1,
                by: 0
            }]
        );
    }

    #[test]
    fn trivial_and_implied_egds_are_removed() {
        let p = setting(
            "E(x, y) -> H(x, y)",
            "",
            "H(x, y) -> x = x; H(x, y), H(x, z) -> y = z; H(x, y), H(x, z), G(x, x) -> y = z",
        );
        let out = optimize(&p, "E(a, b). G(a, a).");
        assert_eq!(
            out.certificate.actions,
            vec![
                RewriteAction::RemoveTrivialEgd {
                    group: RewriteGroup::SigmaT,
                    index: 0
                },
                RewriteAction::RemoveSubsumed {
                    group: RewriteGroup::SigmaT,
                    index: 2,
                    by: 1
                }
            ]
        );
        assert_eq!(out.optimized.sigma_t().len(), 1);
    }

    #[test]
    fn egd_with_swapped_sides_is_a_duplicate() {
        let p = setting(
            "E(x, y) -> H(x, y)",
            "",
            "H(x, y), H(x, z) -> y = z; H(x, y), H(x, z) -> z = y",
        );
        let out = optimize(&p, "E(a, b).");
        assert_eq!(
            out.certificate.actions,
            vec![RewriteAction::RemoveDuplicate {
                group: RewriteGroup::SigmaT,
                index: 1,
                kept: 0
            }]
        );
    }

    #[test]
    fn dead_dependency_depends_on_the_input() {
        let p = setting("E(x, y) -> H(x, y); F(x, y) -> G(x, y)", "", "");
        // F empty: the second tgd can never fire.
        let out = optimize(&p, "E(a, b).");
        assert_eq!(
            out.certificate.actions,
            vec![RewriteAction::RemoveDead {
                group: RewriteGroup::SigmaSt,
                index: 1,
                relation: "F".to_string()
            }]
        );
        assert_eq!(out.certificate.dead_relations, vec!["F", "G"]);
        // F populated: everything is live.
        let out = optimize(&p, "E(a, b). F(c, d).");
        assert!(out.certificate.actions.is_empty());
    }

    #[test]
    fn populatability_chains_through_target_tgds() {
        let p = setting(
            "E(x, y) -> H(x, y)",
            "",
            "H(x, y) -> G(y, x); G(x, y), H(x, x) -> x = y",
        );
        let out = optimize(&p, "E(a, b).");
        // G is populatable via H, so the egd over G stays. F (empty, never
        // concluded) is dead but unread, so no dependency is removed.
        assert!(out.certificate.actions.is_empty());
        assert_eq!(out.certificate.dead_relations, vec!["F"]);
    }

    #[test]
    fn certificate_json_roundtrip_is_lossless() {
        let p = setting(
            "E(x, y) -> H(x, y); E(u, w) -> H(u, w); F(x, y) -> G(x, y)",
            "",
            "H(x, y) -> x = x",
        );
        let out = optimize(&p, "E(a, b).");
        assert!(out.certificate.actions.len() >= 3);
        let back = RewriteCertificate::from_json(&out.certificate.to_json().to_string()).unwrap();
        assert_eq!(back, out.certificate);
    }

    #[test]
    fn verifier_accepts_own_output_and_rejects_tampering() {
        let p = setting("E(x, y) -> H(x, y); E(u, w) -> H(u, w)", "", "");
        let input = parse_instance(p.schema(), "E(a, b). F(a, b).").unwrap();
        let out = optimize_setting(&p, &input);
        out.certificate.verify(&p, &input).unwrap();

        let mut wrong_version = out.certificate.clone();
        wrong_version.version = REWRITE_VERSION + 1;
        assert!(matches!(
            wrong_version.verify(&p, &input),
            Err(CertificateError::Version { .. })
        ));

        let mut dropped = out.certificate.clone();
        dropped.actions.clear();
        assert!(matches!(
            dropped.verify(&p, &input),
            Err(CertificateError::Rewrite(_))
        ));

        let mut fabricated = out.certificate.clone();
        fabricated.actions.push(RewriteAction::RemoveSubsumed {
            group: RewriteGroup::SigmaSt,
            index: 0,
            by: 1,
        });
        assert!(matches!(
            fabricated.verify(&p, &input),
            Err(CertificateError::Rewrite(_))
        ));

        let mut out_of_range = out.certificate.clone();
        out_of_range.actions[0] = RewriteAction::RemoveDuplicate {
            group: RewriteGroup::SigmaSt,
            index: 99,
            kept: 0,
        };
        assert!(matches!(
            out_of_range.verify(&p, &input),
            Err(CertificateError::Rewrite(_))
        ));

        let mut wrong_input = out.certificate.clone();
        wrong_input.input_nonempty = vec!["G".to_string()];
        assert!(matches!(
            wrong_input.verify(&p, &input),
            Err(CertificateError::Rewrite(_))
        ));
    }

    #[test]
    fn optimized_setting_stays_valid_and_smaller() {
        let p = setting(
            "E(x, y) -> H(x, y); E(u, w) -> H(u, w); E(x, x) -> H(x, x)",
            "H(x, y) -> E(x, y)",
            "H(x, y), H(x, z) -> y = z; H(a, b), H(a, c) -> b = c",
        );
        let out = optimize(&p, "E(a, b).");
        assert_eq!(out.certificate.before.total(), 6);
        assert_eq!(out.certificate.after.total(), 3);
        assert_eq!(out.optimized.sigma_st().len(), 1);
        assert_eq!(out.optimized.sigma_ts().len(), 1);
        assert_eq!(out.optimized.sigma_t().len(), 1);
    }
}
