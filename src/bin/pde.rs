//! `pde` — command-line front end for the peer data exchange library.
//!
//! ```text
//! pde classify <bundle.pde>             static analysis of the setting
//! pde lint     <bundle.pde>             diagnostics with stable PDE0xx codes
//! pde plan     <bundle.pde>             static complexity certificate
//! pde terminate <bundle.pde>            chase-termination hierarchy analysis
//! pde optimize <bundle.pde>             semantics-preserving dependency rewriting
//! pde solve    <bundle.pde>             decide SOL(P), print a witness
//! pde certain  <bundle.pde> <query>     certain answers of a target UCQ
//! pde chase    <bundle.pde>             show the canonical chase artifacts
//! pde check    <bundle.pde> <candidate> verify a candidate solution file
//! pde enumerate <bundle.pde> [limit]    list distinct minimal-family solutions
//! pde shrink   <bundle.pde> <candidate> Lemma 2: extract a small sub-solution
//! pde format   <bundle.pde>             parse and re-render the bundle
//! pde serve    <bundle.pde> <store-dir> durable JSONL request loop (docs/SERVE.md)
//! ```
//!
//! Bundles are the `.pde` text format of `pde_core::bundle`; `<candidate>`
//! is a plain instance file over the bundle's schema. Exit code 0 on
//! "yes"/success outcomes, 1 on "no" outcomes (for `lint`: denied
//! diagnostics present; for `--check`: certificate rejected), 2 on usage
//! or input errors, 3 when `solve` could not decide within its budgets
//! (search caps, `--timeout`, `--memory-limit`, cancellation).
//!
//! `solve`, `certain`, and `enumerate` run the linter first and print any
//! warnings to stderr (never changing the exit code); `--no-lint` skips
//! that. `lint` and `plan` accept `--format text|json`; `lint` also takes
//! `--deny warnings`.
//!
//! `plan` emits a versioned JSON certificate (ranks, chase bounds,
//! `C_tract` witnesses, solver routing, budgets). `solve` routes through
//! the certificate-derived plan (`decide_governed_scheduled`); `solve` and
//! `certain` take `--plan <cert.json>` to reuse a saved certificate, which
//! must verify, instead of planning afresh. `solve`, `certain`,
//! and `enumerate` take `--max-steps <n>` (search node / chase step cap)
//! and `--max-branches <n>` (active-domain values tried per existential);
//! exceeding a cap reports "undecided", never a wrong answer.
//!
//! Every command chases with the semi-naive delta-driven engine (see
//! `docs/CHASE.md`); the naive oracle engine only answers when `solve`
//! retries after a panic or an injected fault. `solve --stats` prints the
//! engine that answered and its counters: rounds, triggers fired vs
//! skipped-by-delta, egd merges, keyed witnesses — and, for the complete
//! searches, the branch/candidate/prune counters — plus the
//! resource-governor counters and whether the run fell back to the naive
//! oracle engine.
//!
//! Observability (`docs/OBSERVABILITY.md`): `--trace <file.jsonl>` (any
//! command) streams every phase span — chase rounds, trigger discovery,
//! egd merging, block decomposition, per-block homomorphism search,
//! search branches, governor checks — as one JSON object per line;
//! `--profile` aggregates the same spans in-process and prints a
//! per-phase total/self-time table to stderr. `solve --format json`
//! replaces the human-readable output with a single versioned JSON run
//! report: outcome, certificate routing identifiers, and every chase /
//! search / governor counter.
//!
//! `terminate` (docs/TERMINATION.md) runs the chase-termination hierarchy
//! — weak acyclicity, joint acyclicity, super-weak acyclicity, then the
//! critical-instance check — cheapest-first and prints the certifying
//! criterion, its criterion trail, witness, and derived bounds. Exit 0
//! when some criterion certifies termination, 1 when every criterion
//! fails.
//!
//! `optimize` (docs/OPTIMIZER.md) runs the semantics-preserving rewrite
//! passes — trivial-egd removal, duplicate elimination up to renaming,
//! subsumption, input-aware dead-dependency elimination — and prints the
//! actions, backed by a rewrite certificate, and the stratified chase
//! schedule.
//!
//! `plan`, `terminate` and `optimize` share one certificate flow
//! (docs/PLAN.md). `--emit <cert.json>` saves the fresh certificate next
//! to the usual report. `--check <cert.json>` instead re-verifies a saved
//! certificate against the bundle with its kind's independent checker and
//! prints `<kind> certificate OK: …` (exit 0) or `<kind> certificate
//! REJECTED: …` (exit 1) on stdout. An unreadable or malformed
//! certificate, `--check` without a path, and `--emit` with `--check` are
//! input errors (exit 2).
//!
//! `solve`, `certain`, and `enumerate` optimize automatically (like
//! auto-lint); `--no-optimize` opts out, and `--plan` disables
//! optimization because a saved plan certificate describes the original
//! setting. The optimized solve threads the stratified schedule into the
//! semi-naive chase and reports it under `--stats` and in the JSON run
//! report's `optimize` section.
//!
//! `solve` and `serve` accept the resource-governance flags of
//! `docs/ROBUSTNESS.md`: `--timeout <dur>` (e.g. `500ms`, `2s`; bare
//! numbers are milliseconds) sets a wall-clock deadline, `--memory-limit
//! <size>` (e.g. `64m`, `2g`; bare numbers are bytes) a byte budget on
//! the estimated instance footprint, and `--governed` (solve only) seeds
//! the memory budget from the plan certificate's chase bound. Exhausting
//! any budget prints `undecided (<reason>)` and exits 3 — never a wrong
//! answer; under `serve` the budgets apply per request.
//!
//! `serve` (docs/SERVE.md) runs a long-lived JSONL request loop
//! (solve/certain/insert/retract/snapshot/shutdown) over a crash-safe
//! durable store directory: every mutation is journaled with checksummed
//! frames before it is acknowledged, startup recovery replays the journal
//! onto the last atomic snapshot and truncates any torn or corrupt tail,
//! and each request runs isolated under its own governor — a panicking
//! or over-budget request answers `undecided` without killing the loop.
//! `serve --stats` attaches the `store.*`/`serve.*` metrics to every
//! response.

use pde_analysis::certificate::solver_kind_str;
use pde_analysis::{
    analyze_setting, analyze_termination, any_denied, forward_schedule, optimize_setting,
    plan_setting, render_certificate_text, render_json, render_termination_text, render_text,
    AnalysisInput, Certificate, CertificateError, LintSection, OptimizeResult, RenderContext,
    RewriteAction, RewriteCertificate, Severity, SourceParseError, TerminationCriterion,
    Verifiable,
};
use pde_chase::{chase_tgds, ChaseEngine, DepSchedule};
use pde_core::bundle::{split_sections, Bundle, BundleSources};
use pde_core::{
    certain_answers, check_solution, decide_governed_scheduled, GenericLimits, PdeSetting,
    SolvePlan,
};
use pde_relational::{parse_instance, parse_query, render_fact, Instance, Peer, UnionQuery};
use pde_runtime::{Governor, GovernorConfig};
use pde_trace::json::Json;
use peer_data_exchange::serve::{serve, ServeOptions};
use std::process::ExitCode;
use std::time::Duration;

/// Write a line to stdout, mapping an I/O failure (e.g. a pipe closed by
/// a downstream `head`) to a structured usage-level error instead of the
/// panic `println!` would raise. Expands with a `?`, so it only composes
/// inside functions returning `Result<_, String>`.
macro_rules! outln {
    ($($t:tt)*) => {{
        use std::io::Write as _;
        writeln!(std::io::stdout(), $($t)*).map_err(|e| format!("stdout: {e}"))?
    }};
}

/// [`outln!`] without the trailing newline.
macro_rules! outp {
    ($($t:tt)*) => {{
        use std::io::Write as _;
        write!(std::io::stdout(), $($t)*).map_err(|e| format!("stdout: {e}"))?
    }};
}

/// Three-valued command outcome: `Yes`/`No` answer the decision problem,
/// `Undecided` means a budget ran out first. Mapped to exit codes 0/1/3.
enum Verdict {
    /// Affirmative outcome (solution exists, check passed, lint clean).
    Yes,
    /// Negative outcome (no solution, check failed, denied diagnostics).
    No,
    /// The solver stopped on a resource budget before deciding.
    Undecided,
}

/// `Yes`/`No` from a boolean outcome.
fn verdict(yes: bool) -> Verdict {
    if yes {
        Verdict::Yes
    } else {
        Verdict::No
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(Verdict::Yes) => ExitCode::SUCCESS,
        Ok(Verdict::No) => ExitCode::from(1),
        Ok(Verdict::Undecided) => ExitCode::from(3),
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage:
  pde classify  <bundle.pde>
  pde lint      <bundle.pde> [--format text|json] [--deny warnings]
  pde plan      <bundle.pde> [--format text|json] [--emit <cert.json> | --check <cert.json>]
  pde terminate <bundle.pde> [--format text|json] [--emit <cert.json> | --check <cert.json>]
  pde optimize  <bundle.pde> [--format text|json] [--emit <cert.json> | --check <cert.json>]
  pde solve     <bundle.pde> [--no-lint] [--no-optimize] [--plan <cert.json>] [--max-steps n]
                [--max-branches n] [--timeout dur] [--memory-limit size] [--governed] [--stats]
                [--format text|json]
  pde certain   <bundle.pde> <query> [--no-lint] [--no-optimize] [--plan <cert.json>]
                [--max-steps n] [--max-branches n]
  pde chase     <bundle.pde>
  pde check     <bundle.pde> <candidate-instance>
  pde enumerate <bundle.pde> [limit] [--no-lint] [--no-optimize] [--max-steps n] [--max-branches n]
  pde shrink    <bundle.pde> <candidate-instance>
  pde format    <bundle.pde>
  pde serve     <bundle.pde> <store-dir> [--timeout dur] [--memory-limit size] [--stats]
                [--access-log <file.jsonl>] [--trace-sample n]
global flags:
  --optimize/--no-optimize  rewrite the setting before solving (default: on;
                            --plan disables; solve/certain/enumerate only)
  --trace <file.jsonl>      stream structured spans as JSON lines (docs/OBSERVABILITY.md)
  --profile                 print a per-phase wall-clock/self-time table to stderr
solve-only flags:
  --timeout <dur>           wall-clock budget (ns/us/ms/s suffix; bare = ms)
  --memory-limit <size>     instance byte budget (k/m/g suffix; bare = bytes)
  --governed                derive the memory budget from the plan certificate
serve-only flags:
  --access-log <file>       append one JSONL access record per request (docs/OBSERVABILITY.md)
  --trace-sample <n>        capture the span stream of every nth request into the access log
exit codes: 0 yes, 1 no, 2 usage/input error, 3 undecided (budget exhausted)";

fn load_bundle(path: &str) -> Result<Bundle, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let (bundle, warnings) =
        Bundle::parse_with_warnings(&src).map_err(|e| format!("{path}: {e}"))?;
    for w in &warnings {
        eprintln!("{path}: warning: {w}");
    }
    Ok(bundle)
}

/// Command-line switches (accepted after the positional arguments).
#[derive(Default)]
struct Flags {
    no_lint: bool,
    deny_warnings: bool,
    json: bool,
    max_steps: Option<usize>,
    max_branches: Option<usize>,
    plan_path: Option<String>,
    check_path: Option<String>,
    /// `--optimize` (`Some(true)`) / `--no-optimize` (`Some(false)`);
    /// `None` means the per-command default (on for solve-style commands).
    optimize: Option<bool>,
    emit_path: Option<String>,
    stats: bool,
    timeout: Option<Duration>,
    memory_limit: Option<usize>,
    governed: bool,
    trace_path: Option<String>,
    profile: bool,
    access_log: Option<String>,
    trace_sample: Option<u64>,
}

impl Flags {
    /// Does any resource-governance flag ask for a governed run?
    fn wants_governance(&self) -> bool {
        self.timeout.is_some() || self.memory_limit.is_some() || self.governed
    }
}

/// Split `args` into positional arguments and recognized flags.
fn split_flags(args: &[String]) -> Result<(Vec<String>, Flags), String> {
    let mut pos = Vec::new();
    let mut flags = Flags::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--no-lint" => flags.no_lint = true,
            "--deny" => match it.next().map(String::as_str) {
                Some("warnings") => flags.deny_warnings = true,
                other => {
                    return Err(format!(
                        "--deny expects 'warnings', got {}",
                        other.map_or("nothing".into(), |o| format!("'{o}'"))
                    ))
                }
            },
            "--format" => match it.next().map(String::as_str) {
                Some("text") => flags.json = false,
                Some("json") => flags.json = true,
                other => {
                    return Err(format!(
                        "--format expects 'text' or 'json', got {}",
                        other.map_or("nothing".into(), |o| format!("'{o}'"))
                    ))
                }
            },
            "--max-steps" => flags.max_steps = Some(flag_number(&mut it, "--max-steps")?),
            "--max-branches" => flags.max_branches = Some(flag_number(&mut it, "--max-branches")?),
            "--timeout" => {
                flags.timeout = Some(parse_duration(&flag_value(&mut it, "--timeout")?)?);
            }
            "--memory-limit" => {
                flags.memory_limit = Some(parse_bytes(&flag_value(&mut it, "--memory-limit")?)?);
            }
            "--governed" => flags.governed = true,
            "--trace" => flags.trace_path = Some(flag_value(&mut it, "--trace")?),
            "--profile" => flags.profile = true,
            "--access-log" => flags.access_log = Some(flag_value(&mut it, "--access-log")?),
            "--trace-sample" => {
                let n = flag_number(&mut it, "--trace-sample")?;
                flags.trace_sample = Some(u64::try_from(n).unwrap_or(u64::MAX));
            }
            "--plan" => flags.plan_path = Some(flag_value(&mut it, "--plan")?),
            "--check" => flags.check_path = Some(flag_value(&mut it, "--check")?),
            "--optimize" => flags.optimize = Some(true),
            "--no-optimize" => flags.optimize = Some(false),
            "--emit" => flags.emit_path = Some(flag_value(&mut it, "--emit")?),
            "--stats" => flags.stats = true,
            f if f.starts_with("--") => return Err(format!("unknown flag '{f}'")),
            _ => pos.push(a.clone()),
        }
    }
    Ok((pos, flags))
}

/// The mandatory value of a two-token flag. A following flag is not a
/// value: `--emit --format json` is a usage error, not a file named
/// `--format`.
fn flag_value<'a>(it: &mut impl Iterator<Item = &'a String>, flag: &str) -> Result<String, String> {
    match it.next() {
        Some(v) if v.starts_with("--") => {
            Err(format!("{flag} expects a value, got the flag '{v}'"))
        }
        Some(v) => Ok(v.clone()),
        None => Err(format!("{flag} expects a value")),
    }
}

/// The most positional arguments `cmd` takes after its name; `None` for
/// an unknown command, which dispatch reports.
fn max_operands(cmd: &str) -> Option<usize> {
    Some(match cmd {
        "lint" | "classify" | "plan" | "terminate" | "optimize" | "solve" | "chase" | "format" => 1,
        "certain" | "check" | "enumerate" | "shrink" | "serve" => 2,
        _ => return None,
    })
}

/// The mandatory numeric value of a two-token flag.
fn flag_number<'a>(it: &mut impl Iterator<Item = &'a String>, flag: &str) -> Result<usize, String> {
    let v = flag_value(it, flag)?;
    v.parse()
        .map_err(|_| format!("{flag} expects a number, got '{v}'"))
}

/// Split `"120ms"` into `(120, "ms")`; the suffix may be empty.
fn split_unit(v: &str) -> Option<(u64, &str)> {
    let digits = v.len() - v.trim_start_matches(|c: char| c.is_ascii_digit()).len();
    if digits == 0 {
        return None;
    }
    let n: u64 = v[..digits].parse().ok()?;
    Some((n, &v[digits..]))
}

/// `--timeout` value: a number with an optional `ns`/`us`/`ms`/`s`
/// suffix. Bare numbers are milliseconds.
fn parse_duration(v: &str) -> Result<Duration, String> {
    let bad = || format!("--timeout expects e.g. '500ms' or '2s', got '{v}'");
    let (n, unit) = split_unit(v).ok_or_else(bad)?;
    match unit {
        "ns" => Ok(Duration::from_nanos(n)),
        "us" => Ok(Duration::from_micros(n)),
        "" | "ms" => Ok(Duration::from_millis(n)),
        "s" => Ok(Duration::from_secs(n)),
        _ => Err(bad()),
    }
}

/// `--memory-limit` value: a number with an optional `k`/`m`/`g` (or
/// `kb`/`mb`/`gb`) binary-multiple suffix. Bare numbers are bytes.
fn parse_bytes(v: &str) -> Result<usize, String> {
    let lower = v.to_ascii_lowercase();
    let bad = || format!("--memory-limit expects e.g. '64m' or '1000000', got '{v}'");
    let (n, unit) = split_unit(&lower).ok_or_else(bad)?;
    let shift = match unit {
        "" => 0u32,
        "k" | "kb" => 10,
        "m" | "mb" => 20,
        "g" | "gb" => 30,
        _ => return Err(bad()),
    };
    usize::try_from(n)
        .ok()
        .and_then(|n| n.checked_mul(1usize << shift))
        .ok_or_else(|| format!("--memory-limit '{v}' overflows"))
}

/// Format a section-level parse error with its file position.
fn render_source_error(path: &str, sources: &BundleSources, e: &SourceParseError) -> String {
    let section = match e.section {
        LintSection::Schema => &sources.schema,
        LintSection::St => &sources.st,
        LintSection::Ts => &sources.ts,
        LintSection::T => &sources.t,
    };
    let (line, col) = section.file_line_col(e.error.offset());
    format!("{path}:{line}:{col}: {e}")
}

/// The solve plan for a setting (the *effective* one — optimized when
/// optimization ran): a verified saved certificate when `--plan` was
/// given, otherwise a fresh planner run; `--max-steps` and
/// `--max-branches` override the plan's budgets last. The certificate
/// rides along so `--governed` can derive a memory budget from it.
fn resolve_plan(
    setting: &PdeSetting,
    input: &Instance,
    flags: &Flags,
) -> Result<(SolvePlan, Certificate), String> {
    let cert = match &flags.plan_path {
        Some(path) => {
            load_certificate(path, setting, input)?.map_err(|e| format!("{path}: {e}"))?
        }
        None => plan_setting(setting, input.active_domain().len()),
    };
    let mut plan = cert.to_solve_plan();
    if let Some(n) = flags.max_steps {
        plan.limits.max_nodes = n;
        plan.chase_limits.max_steps = n;
    }
    if let Some(n) = flags.max_branches {
        plan.limits.max_branches = n;
    }
    Ok((plan, cert))
}

/// Read and parse the saved certificate at `path`, then run its checker
/// against `setting` and `input`. An unreadable or malformed file is the
/// outer `Err`; a rejection is the inner one.
fn load_certificate<C: Verifiable>(
    path: &str,
    setting: &PdeSetting,
    input: &Instance,
) -> Result<Result<C, CertificateError>, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let cert = C::from_json(&src).map_err(|e| format!("{path}: {e}"))?;
    Ok(cert.verify(setting, input).map(|()| cert))
}

/// The one certificate flow of `plan`, `terminate` and `optimize`.
/// `--check <path>` re-verifies a saved certificate against the bundle:
/// `<kind> certificate OK: …` and exit 0, or `<kind> certificate
/// REJECTED: …` and exit 1, both on stdout. Otherwise `derive` builds a
/// fresh certificate (plus anything else the report needs), `--emit
/// <path>` saves it, and `report` prints the command's report and picks
/// its verdict.
fn certificate_command<C: Verifiable, D>(
    bundle: &Bundle,
    flags: &Flags,
    derive: impl FnOnce() -> (C, D),
    report: impl FnOnce(&C, D) -> Result<Verdict, String>,
) -> Result<Verdict, String> {
    if let Some(path) = &flags.check_path {
        return match load_certificate::<C>(path, &bundle.setting, &bundle.input)? {
            Ok(cert) => {
                outln!("{} certificate OK: {}", C::KIND, cert.summary());
                Ok(Verdict::Yes)
            }
            Err(e) => {
                outln!("{} certificate REJECTED: {e}", C::KIND);
                Ok(Verdict::No)
            }
        };
    }
    let (cert, extra) = derive();
    if let Some(path) = &flags.emit_path {
        std::fs::write(path, cert.to_json().to_string()).map_err(|e| format!("{path}: {e}"))?;
    }
    report(&cert, extra)
}

/// Run the optimizer ahead of a solve-style command when asked (or by
/// default, like auto-lint). A saved `--plan` certificate disables it —
/// the certificate describes the original, unoptimized setting — and
/// `--no-optimize` opts out. When the default (not the explicit
/// `--optimize`) removed anything, a one-line note goes to stderr.
fn resolve_optimize(bundle: &Bundle, flags: &Flags) -> Result<Option<OptimizeResult>, String> {
    if flags.plan_path.is_some() {
        if flags.optimize == Some(true) {
            return Err(
                "--optimize cannot be combined with --plan: a saved plan certificate \
                 describes the original, unoptimized setting"
                    .into(),
            );
        }
        return Ok(None);
    }
    if flags.optimize == Some(false) {
        return Ok(None);
    }
    let out = optimize_setting(&bundle.setting, &bundle.input);
    let removed = out.certificate.actions.len();
    if flags.optimize.is_none() && removed > 0 {
        eprintln!(
            "optimizer: removed {removed} of {} dependencies (pass --no-optimize to disable)",
            out.certificate.before.total()
        );
    }
    Ok(Some(out))
}

/// One human-readable line per rewrite action.
fn describe_action(a: &RewriteAction) -> String {
    match a {
        RewriteAction::RemoveTrivialEgd { group, index } => {
            format!("remove {group} #{index}: trivial egd")
        }
        RewriteAction::RemoveDuplicate { group, index, kept } => {
            format!("remove {group} #{index}: duplicate of #{kept} up to renaming")
        }
        RewriteAction::RemoveSubsumed { group, index, by } => {
            format!("remove {group} #{index}: subsumed by #{by}")
        }
        RewriteAction::RemoveDead {
            group,
            index,
            relation,
        } => format!("remove {group} #{index}: reads unpopulatable relation {relation}"),
    }
}

/// The stratified schedule as JSON: `{"strata":[[0,1],[2]]}`.
fn schedule_json(s: &DepSchedule) -> Json {
    let strata = s
        .strata
        .iter()
        .map(|st| Json::from_iter(st.iter().map(|&i| Json::from(i))));
    Json::from_iter([("strata", strata.collect())])
}

/// The governor for a `solve` run: `--governed` seeds the memory budget
/// from the certificate's chase bound, then the explicit `--timeout` and
/// `--memory-limit` flags override. With no governance flags this is the
/// unlimited governor (no checks beyond counter bumps).
fn resolve_governor(cert: &Certificate, flags: &Flags) -> Governor {
    let mut config = if flags.governed {
        cert.derived_governor_config()
    } else {
        GovernorConfig::default()
    };
    if let Some(d) = flags.timeout {
        config.deadline = Some(d);
    }
    if let Some(b) = flags.memory_limit {
        config.memory_budget_bytes = Some(b);
    }
    Governor::new(config)
}

/// Render the machine-readable run report for `solve --format json`: one
/// JSON object per run carrying the report schema version, the routing
/// identifiers of the plan certificate, the outcome, and every counter the
/// solve accumulated (chase, search, governor) via the metrics registry.
/// The schema is documented in `docs/OBSERVABILITY.md`. When the
/// optimizer ran, `optimize` carries its rewrite counts and the stratified
/// schedule; otherwise it is `null`. The certificate object's
/// `termination` member summarizes the chase-termination section: whether
/// some criterion certifies termination and which one.
fn render_solve_json(
    report: &pde_core::SolveReport,
    cert: &Certificate,
    optimize: Option<(&RewriteCertificate, &DepSchedule)>,
    hist: Option<&pde_trace::HistogramSink>,
) -> Json {
    let mut reg = pde_trace::MetricsRegistry::new();
    report.export_metrics(&mut reg);
    // Fold in the span-derived per-phase self-time distributions (the
    // sink only holds histograms, so no counter double-counting).
    if let Some(h) = hist {
        reg.merge_from(&h.snapshot());
    }
    let result = match report.exists {
        Some(true) => "yes",
        Some(false) => "no",
        None => "undecided",
    };
    let engine = match report.engine() {
        ChaseEngine::Naive => "naive",
        ChaseEngine::Seminaive => "seminaive",
    };
    let optimize = optimize.map(|(c, s)| {
        Json::from_iter([
            ("before", c.before.total().into()),
            ("after", c.after.total().into()),
            ("actions", c.actions.len().into()),
            ("schedule", schedule_json(s)),
        ])
    });
    let term = &cert.chase.termination;
    let termination = Json::from_iter([
        ("certified", term.certified().into()),
        (
            "criterion",
            term.criterion.map(TerminationCriterion::as_str).into(),
        ),
    ]);
    Json::from_iter([
        ("v", pde_trace::REPORT_VERSION.into()),
        ("solver", solver_kind_str(report.kind).into()),
        ("engine", engine.into()),
        ("result", result.into()),
        (
            "undecided_reason",
            report.undecided.as_ref().map(ToString::to_string).into(),
        ),
        ("engine_fallback", report.engine_fallback.into()),
        ("optimize", optimize.into()),
        (
            "certificate",
            Json::from_iter([
                ("version", cert.version.into()),
                ("regime", cert.regime.as_str().into()),
                ("solver", solver_kind_str(cert.recommended_solver).into()),
                ("termination", termination),
            ]),
        ),
        ("metrics", reg.to_json()),
    ])
}

/// Lint the setting before a solve-style command, printing any warning or
/// error diagnostics to stderr. Never alters the command's outcome.
fn auto_lint(bundle: &Bundle, flags: &Flags) {
    if flags.no_lint {
        return;
    }
    let diags: Vec<_> = analyze_setting(&bundle.setting)
        .into_iter()
        .filter(|d| d.severity >= Severity::Warning)
        .collect();
    if !diags.is_empty() {
        eprint!("{}", render_text(&diags, None));
        eprintln!("(lint findings do not affect this command; pass --no-lint to silence)");
    }
}

fn run(args: &[String]) -> Result<Verdict, String> {
    let (args, flags) = split_flags(args)?;
    if let Some(cmd) = args.first() {
        if let Some(extra) = max_operands(cmd).and_then(|n| args.get(n + 1)) {
            return Err(format!("unexpected argument '{extra}' for '{cmd}'"));
        }
    }
    // Tracing sinks are process-global: install before dispatch, tear down
    // after so the stream is flushed (and the profile table printed) even
    // when a command returns early.
    if flags.profile && flags.trace_path.is_some() {
        return Err("--trace and --profile are mutually exclusive (one sink per run)".into());
    }
    let jsonl = match &flags.trace_path {
        Some(path) => {
            let sink = std::sync::Arc::new(
                pde_trace::JsonlSink::create(path).map_err(|e| format!("--trace {path}: {e}"))?,
            );
            pde_trace::set_sink(sink.clone());
            Some(sink)
        }
        None => None,
    };
    let profile = if flags.profile {
        let sink = std::sync::Arc::new(pde_trace::ProfileSink::new());
        pde_trace::set_sink(sink.clone());
        Some(sink)
    } else {
        None
    };
    // Under --stats (batch commands only — serve keeps its own session
    // registry) a histogram sink buckets per-phase self-times so the JSON
    // run report's `histograms` member carries real distributions. It
    // composes with --trace/--profile through a fan-out.
    let hist = if flags.stats && args.first().map(String::as_str) != Some("serve") {
        let sink = std::sync::Arc::new(pde_trace::HistogramSink::new());
        let mut sinks: Vec<std::sync::Arc<dyn pde_trace::Sink>> = Vec::new();
        if let Some(prev) = pde_trace::current_sink() {
            sinks.push(prev);
        }
        sinks.push(sink.clone());
        pde_trace::set_sink(std::sync::Arc::new(pde_trace::FanoutSink::new(sinks)));
        Some(sink)
    } else {
        None
    };
    let out = dispatch(&args, &flags, hist.as_deref());
    if let Some(sink) = jsonl {
        sink.flush();
    }
    if let Some(sink) = profile {
        // Stderr so `--profile` composes with machine-readable stdout.
        eprint!("{}", sink.render_table());
    }
    out
}

fn dispatch(
    args: &[String],
    flags: &Flags,
    hist: Option<&pde_trace::HistogramSink>,
) -> Result<Verdict, String> {
    let cmd = args.first().ok_or("missing command")?;
    if flags.wants_governance() && !matches!(cmd.as_str(), "solve" | "serve") {
        return Err(format!(
            "--timeout/--memory-limit/--governed only apply to 'solve' and 'serve', not '{cmd}'"
        ));
    }
    if flags.governed && cmd == "serve" {
        return Err("--governed only applies to 'solve' (serve has no plan certificate)".into());
    }
    if (flags.access_log.is_some() || flags.trace_sample.is_some()) && cmd != "serve" {
        return Err(format!(
            "--access-log/--trace-sample only apply to 'serve', not '{cmd}'"
        ));
    }
    if flags.optimize.is_some() && !matches!(cmd.as_str(), "solve" | "certain" | "enumerate") {
        return Err(format!(
            "--optimize/--no-optimize only apply to 'solve', 'certain', and 'enumerate', not '{cmd}'"
        ));
    }
    if (flags.emit_path.is_some() || flags.check_path.is_some())
        && !matches!(cmd.as_str(), "plan" | "terminate" | "optimize")
    {
        return Err(format!(
            "--emit/--check only apply to 'plan', 'terminate', and 'optimize', not '{cmd}'"
        ));
    }
    if flags.emit_path.is_some() && flags.check_path.is_some() {
        return Err("--emit and --check are mutually exclusive".into());
    }
    if flags.plan_path.is_some() && !matches!(cmd.as_str(), "solve" | "certain") {
        return Err(format!(
            "--plan only applies to 'solve' and 'certain', not '{cmd}'"
        ));
    }
    match cmd.as_str() {
        "lint" => {
            let path = args.get(1).ok_or("missing bundle path")?;
            let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let sources = split_sections(&src).map_err(|e| format!("{path}: {e}"))?;
            let input = AnalysisInput::from_sources(&sources)
                .map_err(|e| render_source_error(path, &sources, &e))?;
            parse_instance(input.schema(), &sources.instance.text)
                .map_err(|e| format!("{path}: %instance section: {e}"))?;
            let diags = input.analyze();
            let ctx = RenderContext {
                path,
                sources: &sources,
            };
            if flags.json {
                outln!("{}", render_json(&diags, Some(&ctx)));
            } else {
                outp!("{}", render_text(&diags, Some(&ctx)));
            }
            let deny = if flags.deny_warnings {
                Severity::Warning
            } else {
                Severity::Error
            };
            Ok(verdict(!any_denied(&diags, deny)))
        }
        "classify" => {
            let bundle = load_bundle(args.get(1).ok_or("missing bundle path")?)?;
            let class = bundle.setting.classification();
            outln!("{}", bundle.summary());
            outln!("data exchange (Σts = ∅):        {}", class.is_data_exchange);
            outln!(
                "target constraints present:     {}",
                class.has_target_constraints
            );
            outln!(
                "target tgds weakly acyclic:     {}",
                class.target_tgds_weakly_acyclic
            );
            outln!("C_tract condition 1:            {}", class.ctract.holds1());
            outln!(
                "C_tract condition 2.1:          {}",
                class.ctract.holds2_1()
            );
            outln!(
                "C_tract condition 2.2:          {}",
                class.ctract.holds2_2()
            );
            outln!(
                "Σts all LAV (Cor. 2):           {}",
                class.ctract.ts_all_lav
            );
            outln!(
                "Σst all full (Cor. 1):          {}",
                class.ctract.st_all_full
            );
            outln!(
                "in C_tract:                     {}",
                class.ctract.in_ctract()
            );
            outln!("polynomial algorithm applies:   {}", class.tractable());
            for v in class.ctract.violations() {
                outln!("  violation: {v}");
            }
            Ok(Verdict::Yes)
        }
        "plan" => {
            let bundle = load_bundle(args.get(1).ok_or("missing bundle path")?)?;
            let adom = bundle.input.active_domain().len();
            certificate_command(
                &bundle,
                flags,
                || (plan_setting(&bundle.setting, adom), ()),
                |cert, ()| {
                    if flags.json {
                        outln!("{}", cert.to_json());
                    } else {
                        outln!("{}", bundle.summary());
                        outp!("{}", render_certificate_text(cert));
                    }
                    Ok(Verdict::Yes)
                },
            )
        }
        "terminate" => {
            let bundle = load_bundle(args.get(1).ok_or("missing bundle path")?)?;
            let adom = bundle.input.active_domain().len();
            certificate_command(
                &bundle,
                flags,
                || (analyze_termination(&bundle.setting, adom), ()),
                |tc, ()| {
                    if flags.json {
                        let report = Json::from_iter([
                            ("v", pde_analysis::TERMINATION_VERSION.into()),
                            ("kind", "pde-terminate-report".into()),
                            ("termination", tc.to_json()),
                        ]);
                        outln!("{report}");
                    } else {
                        outln!("{}", bundle.summary());
                        outp!("{}", render_termination_text(tc));
                    }
                    Ok(verdict(tc.certified()))
                },
            )
        }
        "optimize" => {
            let bundle = load_bundle(args.get(1).ok_or("missing bundle path")?)?;
            let derive = || {
                let out = optimize_setting(&bundle.setting, &bundle.input);
                (out.certificate, out.optimized)
            };
            certificate_command(&bundle, flags, derive, |c, optimized| {
                let schedule = forward_schedule(&optimized);
                if flags.json {
                    let report = Json::from_iter([
                        ("v", pde_analysis::REWRITE_VERSION.into()),
                        ("kind", "pde-optimize-report".into()),
                        ("certificate", c.to_json()),
                        ("schedule", schedule_json(&schedule)),
                    ]);
                    outln!("{report}");
                    return Ok(Verdict::Yes);
                }
                outln!("{}", bundle.summary());
                outln!(
                    "dependencies: {} -> {} ({} removed)",
                    c.before.total(),
                    c.after.total(),
                    c.actions.len()
                );
                for a in &c.actions {
                    outln!("  {}", describe_action(a));
                }
                if !c.dead_relations.is_empty() {
                    outln!("unpopulatable relations: {}", c.dead_relations.join(", "));
                }
                // Forward dependency indices: the optimized setting's Σst tgds
                // first, then its Σt dependencies (Σts does not chase).
                let nst = optimized.sigma_st().len();
                let label = |i: usize| {
                    if i < nst {
                        format!("st#{i}")
                    } else {
                        format!("t#{}", i - nst)
                    }
                };
                outln!("chase strata: {}", schedule.strata.len());
                for (k, stratum) in schedule.strata.iter().enumerate() {
                    let names: Vec<String> = stratum.iter().map(|&i| label(i)).collect();
                    outln!("  stratum {k}: {}", names.join(" "));
                }
                Ok(Verdict::Yes)
            })
        }
        "solve" => {
            let bundle = load_bundle(args.get(1).ok_or("missing bundle path")?)?;
            auto_lint(&bundle, flags);
            let opt = resolve_optimize(&bundle, flags)?;
            let setting = opt.as_ref().map_or(&bundle.setting, |o| &o.optimized);
            let (plan, cert) = resolve_plan(setting, &bundle.input, flags)?;
            let governor = resolve_governor(&cert, flags);
            let schedule = opt.as_ref().map(|_| forward_schedule(setting));
            let report = decide_governed_scheduled(
                setting,
                &bundle.input,
                &plan,
                schedule.as_ref(),
                &governor,
            )
            .map_err(|e| e.to_string())?;
            if flags.json {
                let opt_info = match (&opt, &schedule) {
                    (Some(o), Some(s)) => Some((&o.certificate, s)),
                    _ => None,
                };
                outln!("{}", render_solve_json(&report, &cert, opt_info, hist));
                return Ok(match report.exists {
                    Some(true) => Verdict::Yes,
                    Some(false) => Verdict::No,
                    None => Verdict::Undecided,
                });
            }
            outln!("{}", bundle.summary());
            outln!("solver:   {}", report.kind);
            outln!("elapsed:  {:?}", report.elapsed);
            if flags.stats {
                outln!("engine:   {:?}", report.engine());
                match &opt {
                    Some(o) => {
                        outln!(
                            "dependencies:            {} -> {} ({} removed)",
                            o.certificate.before.total(),
                            o.certificate.after.total(),
                            o.certificate.actions.len()
                        );
                    }
                    None => outln!("dependencies:            not optimized"),
                }
                if let Some(s) = &schedule {
                    outln!("chase strata:            {}", s.strata.len());
                }
                if let Some(s) = report.chase_stats {
                    outln!("chase rounds:            {}", s.rounds);
                    outln!("triggers fired:          {}", s.triggers_fired);
                    outln!("triggers satisfied:      {}", s.triggers_satisfied);
                    outln!("skipped by delta:        {}", s.skipped_by_delta);
                    outln!("egd merges:              {}", s.egd_merges);
                    outln!("keyed witnesses:         {}", s.keyed_witnesses);
                }
                if let Some(s) = report.search {
                    outln!("search branches:         {}", s.branches);
                    outln!("candidates checked:      {}", s.candidates_checked);
                    outln!("branches pruned:         {}", s.prunes);
                    if let Some(drops) = s.forward_drops {
                        outln!("forward drops:           {drops}");
                    }
                }
                let g = &report.governor;
                outln!("engine fallback:         {}", report.engine_fallback);
                outln!("governor checks:         {}", g.checks);
                outln!("governor stops:          {}", g.stops);
                outln!("peak instance bytes:     {}", g.peak_bytes);
                outln!("cancellations observed:  {}", g.cancellations_observed);
                match g.deadline_remaining {
                    Some(d) => outln!("deadline remaining:      {d:?}"),
                    None => outln!("deadline remaining:      n/a (no deadline)"),
                }
                if g.faults_fired > 0 {
                    outln!("injected faults fired:   {}", g.faults_fired);
                }
            }
            match report.exists {
                Some(true) => {
                    outln!("result:   solution exists");
                    if let Some(w) = report.witness {
                        outln!("witness target facts:");
                        for (rel, t) in w.facts_of(Peer::Target) {
                            outln!(
                                "  {}",
                                render_fact(bundle.setting.schema(), rel, t.values())
                            );
                        }
                    }
                    Ok(Verdict::Yes)
                }
                Some(false) => {
                    outln!("result:   no solution");
                    // The tractable path explains its failure.
                    if let Some(demand) = report.unsatisfiable_demand {
                        outln!("unsatisfiable source demand:");
                        for (rel, t) in demand {
                            outln!(
                                "  {}  (nulls match any value)",
                                render_fact(bundle.setting.schema(), rel, t.values())
                            );
                        }
                    }
                    Ok(Verdict::No)
                }
                None => {
                    match report.undecided {
                        Some(reason) => outln!("result:   undecided ({reason})"),
                        None => outln!("result:   undecided (search budget exhausted)"),
                    }
                    Ok(Verdict::Undecided)
                }
            }
        }
        "certain" => {
            let bundle = load_bundle(args.get(1).ok_or("missing bundle path")?)?;
            auto_lint(&bundle, flags);
            let opt = resolve_optimize(&bundle, flags)?;
            let setting = opt.as_ref().map_or(&bundle.setting, |o| &o.optimized);
            let qsrc = args.get(2).ok_or("missing query")?;
            let q: UnionQuery = parse_query(bundle.setting.schema(), qsrc)
                .map_err(|e| e.to_string())?
                .into();
            let limits = resolve_plan(setting, &bundle.input, flags)?.0.limits;
            let out =
                certain_answers(setting, &bundle.input, &q, limits).map_err(|e| e.to_string())?;
            if !out.solution_exists {
                outln!("no solutions: every tuple is vacuously certain");
                return Ok(Verdict::Yes);
            }
            outln!(
                "solutions examined: {}; certain answers: {}",
                out.solutions_examined,
                out.answers.len()
            );
            if q.is_boolean() {
                outln!("certain = {}", out.certain_bool());
                return Ok(verdict(out.certain_bool()));
            }
            for t in &out.answers {
                let row: Vec<String> = t.iter().map(std::string::ToString::to_string).collect();
                outln!("  ({})", row.join(", "));
            }
            Ok(Verdict::Yes)
        }
        "chase" => {
            let bundle = load_bundle(args.get(1).ok_or("missing bundle path")?)?;
            let schema = bundle.setting.schema();
            let gen = pde_chase::null_gen_for(&bundle.input);
            let st = chase_tgds(bundle.input.clone(), bundle.setting.sigma_st(), &gen);
            if !st.is_success() {
                return Err("Σst chase did not terminate".into());
            }
            outln!("J_can (after Σst chase, {} steps):", st.steps);
            for (rel, t) in st.instance.facts_of(Peer::Target) {
                outln!("  {}", render_fact(schema, rel, t.values()));
            }
            let jcan = st.instance.restrict(Peer::Target);
            let ts = chase_tgds(jcan, bundle.setting.sigma_ts(), &gen);
            if !ts.is_success() {
                return Err("Σts chase did not terminate".into());
            }
            outln!("I_can (after Σts chase, {} steps):", ts.steps);
            for (rel, t) in ts.instance.facts_of(Peer::Source) {
                outln!("  {}", render_fact(schema, rel, t.values()));
            }
            let ican = ts.instance.restrict(Peer::Source);
            let blocks = pde_core::blocks::blocks(&ican);
            outln!(
                "I_can blocks: {} (max nulls per block: {})",
                blocks.len(),
                blocks.iter().map(|b| b.nulls.len()).max().unwrap_or(0)
            );
            Ok(Verdict::Yes)
        }
        "check" => {
            let bundle = load_bundle(args.get(1).ok_or("missing bundle path")?)?;
            let cand_path = args.get(2).ok_or("missing candidate path")?;
            let cand_src =
                std::fs::read_to_string(cand_path).map_err(|e| format!("{cand_path}: {e}"))?;
            let cand = parse_instance(bundle.setting.schema(), &cand_src)
                .map_err(|e| format!("{cand_path}: {e}"))?;
            // Candidates are target-only files; graft the source part on.
            let combined = bundle.input.restrict(Peer::Source).union(&cand);
            match check_solution(&bundle.setting, &bundle.input, &combined) {
                Ok(()) => {
                    outln!("candidate IS a solution");
                    Ok(Verdict::Yes)
                }
                Err(v) => {
                    outln!("candidate is NOT a solution: {v}");
                    Ok(Verdict::No)
                }
            }
        }
        "enumerate" => {
            let bundle = load_bundle(args.get(1).ok_or("missing bundle path")?)?;
            auto_lint(&bundle, flags);
            let opt = resolve_optimize(&bundle, flags)?;
            let setting = opt.as_ref().map_or(&bundle.setting, |o| &o.optimized);
            let limit: usize = match args.get(2) {
                Some(s) => s.parse().map_err(|_| format!("bad limit '{s}'"))?,
                None => 20,
            };
            let mut limits = GenericLimits::default();
            if let Some(n) = flags.max_steps {
                limits.max_nodes = n;
            }
            if let Some(n) = flags.max_branches {
                limits.max_branches = n;
            }
            let fam = pde_core::enumerate_solutions(
                setting,
                &bundle.input,
                pde_core::EnumerateOptions {
                    max_solutions: limit,
                    core: true,
                    limits,
                },
            )
            .map_err(|e| e.to_string())?;
            outln!(
                "{} distinct solution(s){}:",
                fam.solutions.len(),
                if fam.exhaustive { "" } else { " (truncated)" }
            );
            for (i, sol) in fam.solutions.iter().enumerate() {
                outln!("--- solution {i} ---");
                for (rel, t) in sol.facts_of(Peer::Target) {
                    outln!(
                        "  {}",
                        render_fact(bundle.setting.schema(), rel, t.values())
                    );
                }
            }
            Ok(verdict(!fam.solutions.is_empty()))
        }
        "shrink" => {
            let bundle = load_bundle(args.get(1).ok_or("missing bundle path")?)?;
            let cand_path = args.get(2).ok_or("missing candidate path")?;
            let cand_src =
                std::fs::read_to_string(cand_path).map_err(|e| format!("{cand_path}: {e}"))?;
            let cand = parse_instance(bundle.setting.schema(), &cand_src)
                .map_err(|e| format!("{cand_path}: {e}"))?;
            let combined = bundle.input.restrict(Peer::Source).union(&cand);
            let small = pde_core::shrink_solution(&bundle.setting, &bundle.input, &combined)
                .map_err(|e| e.to_string())?;
            outln!(
                "shrunk {} target facts to {}:",
                combined.fact_count_of(Peer::Target),
                small.fact_count_of(Peer::Target)
            );
            for (rel, t) in small.facts_of(Peer::Target) {
                outln!(
                    "  {}",
                    render_fact(bundle.setting.schema(), rel, t.values())
                );
            }
            Ok(Verdict::Yes)
        }
        "format" => {
            let bundle = load_bundle(args.get(1).ok_or("missing bundle path")?)?;
            outp!("{}", bundle.render());
            Ok(Verdict::Yes)
        }
        "serve" => {
            let bundle = load_bundle(args.get(1).ok_or("missing bundle path")?)?;
            let store_dir = args
                .get(2)
                .ok_or("missing store directory (pde serve <bundle.pde> <store-dir>)")?
                .clone();
            let options = ServeOptions {
                store_dir,
                timeout: flags.timeout,
                memory_limit: flags.memory_limit,
                stats: flags.stats,
                access_log: flags.access_log.clone(),
                trace_sample: flags.trace_sample.unwrap_or(0),
            };
            serve(
                &bundle,
                &options,
                std::io::stdin().lock(),
                std::io::stdout().lock(),
            )?;
            Ok(Verdict::Yes)
        }
        other => Err(format!("unknown command '{other}'")),
    }
}
