//! Integration tests for the `pde` command-line binary, driving it as a
//! real subprocess on temp files.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_pde")
}

fn write_temp(name: &str, content: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pde-cli-tests-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, content).unwrap();
    path
}

fn run(args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .output()
        .expect("binary runs")
}

const EX1_TRIANGLE: &str = "
%schema
source E/2; target H/2
%st
E(x, z), E(z, y) -> H(x, y)
%ts
H(x, y) -> E(x, y)
%instance
E(a, b). E(b, c). E(a, c).
";

const EX1_NOSOL: &str = "
%schema
source E/2; target H/2
%st
E(x, z), E(z, y) -> H(x, y)
%ts
H(x, y) -> E(x, y)
%instance
E(a, b). E(b, c).
";

#[test]
fn classify_reports_ctract() {
    let p = write_temp("tri.pde", EX1_TRIANGLE);
    let out = run(&["classify", p.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("in C_tract:                     true"));
    assert!(stdout.contains("polynomial algorithm applies:   true"));
}

#[test]
fn solve_yes_and_no_exit_codes() {
    let yes = write_temp("tri2.pde", EX1_TRIANGLE);
    let out = run(&["solve", yes.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("solution exists"));
    assert!(stdout.contains("H(a, c)"));

    let no = write_temp("nosol.pde", EX1_NOSOL);
    let out = run(&["solve", no.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("no solution"));
    assert!(stdout.contains("unsatisfiable source demand:\n  E(a, c)  (nulls match any value)\n"));
}

#[test]
fn certain_boolean_query() {
    let p = write_temp("tri3.pde", EX1_TRIANGLE);
    let out = run(&["certain", p.to_str().unwrap(), "H(x, y), H(y, z)"]);
    // certain = false on the triangle (the minimal solution has only H(a,c)).
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("certain = false"));
}

#[test]
fn certain_with_head_lists_answers() {
    let p = write_temp("tri4.pde", EX1_TRIANGLE);
    let out = run(&["certain", p.to_str().unwrap(), "q(x, y) :- H(x, y)"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("(a, c)"));
}

#[test]
fn chase_prints_canonical_artifacts() {
    let p = write_temp("nosol2.pde", EX1_NOSOL);
    let out = run(&["chase", p.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("J_can"));
    assert!(stdout.contains("H(a, c)"));
    assert!(stdout.contains("I_can"));
    assert!(stdout.contains("E(a, c)"));
}

#[test]
fn check_validates_candidates() {
    let p = write_temp("tri5.pde", EX1_TRIANGLE);
    let good = write_temp("good.inst", "H(a, c).");
    let out = run(&["check", p.to_str().unwrap(), good.to_str().unwrap()]);
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("IS a solution"));

    let bad = write_temp("bad.inst", "H(a, b).");
    let out = run(&["check", p.to_str().unwrap(), bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("NOT a solution"));
}

#[test]
fn format_roundtrips() {
    let p = write_temp("tri6.pde", EX1_TRIANGLE);
    let out = run(&["format", p.to_str().unwrap()]);
    assert!(out.status.success());
    let rendered = String::from_utf8(out.stdout).unwrap();
    let p2 = write_temp("tri6b.pde", &rendered);
    let out2 = run(&["solve", p2.to_str().unwrap()]);
    assert!(out2.status.success());
}

/// Two source facts whose constants hold the value separator. Rendered
/// raw, `U(p, 'a, b', c)` and `U(p, a, 'b, c')` read alike, which once made
/// the search memo skip the state that leads to the only solution.
const QUOTED_CONSTANTS: &str = "
%schema
source S/1; source U/3; source Ok/2; target T/3; target V/2
%st
S(p) -> exists y, z . T(p, y, z)
%ts
T(p, y, z) -> U(p, y, z)
V(y, w) -> Ok(y, w)
%t
T(p, y, z) -> exists w . V(y, w)
%instance
S(p). U(p, 'a, b', c). U(p, a, 'b, c'). Ok(a, q).
";

#[test]
fn quoted_constants_stay_distinct_in_solve_enumerate_and_format() {
    let p = write_temp("quoted.pde", QUOTED_CONSTANTS);
    let path = p.to_str().unwrap();
    let out = run(&["solve", "--no-lint", path]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("solution exists"));

    let witness = write_temp("quoted.inst", "T(p, a, 'b, c'). V(a, q).");
    let out = run(&["check", path, witness.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));

    let out = run(&["enumerate", "--no-lint", path, "5"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("1 distinct solution(s)"));

    // The formatted bundle keeps both facts apart, and formats to itself.
    let out = run(&["format", path]);
    assert!(out.status.success());
    let rendered = String::from_utf8(out.stdout).unwrap();
    assert!(rendered.contains("U(p, 'a, b', c)."), "{rendered}");
    let p2 = write_temp("quoted-formatted.pde", &rendered);
    let again = run(&["format", p2.to_str().unwrap()]);
    assert_eq!(String::from_utf8(again.stdout).unwrap(), rendered);
    let out = run(&["solve", "--no-lint", p2.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn enumerate_lists_solutions() {
    let p = write_temp("tri7.pde", EX1_TRIANGLE);
    let out = run(&["enumerate", p.to_str().unwrap(), "5"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("distinct solution"));
    assert!(stdout.contains("H(a, c)"));
}

#[test]
fn shrink_extracts_small_solution() {
    let p = write_temp("tri8.pde", EX1_TRIANGLE);
    let bloated = write_temp("bloat.inst", "H(a, c). H(a, b). H(b, c).");
    let out = run(&["shrink", p.to_str().unwrap(), bloated.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("shrunk 3 target facts to 1"));
    assert!(stdout.contains("H(a, c)"));
}

/// A bundle with a lint *warning*: the second Σst tgd duplicates the first.
const LINT_WARN: &str = "
%schema
source E/2; target H/2
%st
E(x, y) -> H(x, y)
E(x, y) -> H(x, y)
%ts
H(x, y) -> E(x, y)
%instance
E(a, b).
";

/// A bundle with a lint *error*: Σt is not weakly acyclic.
const LINT_ERROR: &str = "
%schema
source E/2; target H/2
%st
E(x, y) -> H(x, y)
%t
H(x, y) -> exists z . H(y, z)
";

#[test]
fn lint_clean_bundle_exits_0() {
    let p = write_temp("lint_clean.pde", EX1_TRIANGLE);
    let out = run(&["lint", p.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("0 error(s), 0 warning(s)"),
        "stdout: {stdout}"
    );
}

#[test]
fn lint_warnings_exit_0_unless_denied() {
    let p = write_temp("lint_warn.pde", LINT_WARN);
    let out = run(&["lint", p.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("warning[PDE020]"), "stdout: {stdout}");

    let out = run(&["lint", "--deny", "warnings", p.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn lint_errors_exit_1() {
    let p = write_temp("lint_err.pde", LINT_ERROR);
    let out = run(&["lint", p.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("error[PDE001]"), "stdout: {stdout}");
    assert!(stdout.contains("witness cycle"), "stdout: {stdout}");
}

#[test]
fn lint_parse_errors_exit_2() {
    let p = write_temp("lint_bad.pde", "%schema\nsource E/2\n%st\nE(x y) ->\n");
    let out = run(&["lint", p.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("usage:"), "stderr: {stderr}");
    // Parse errors carry a file position (line 4 of the bundle).
    assert!(stderr.contains(":4:"), "stderr: {stderr}");
}

#[test]
fn lint_json_output() {
    let p = write_temp("lint_json.pde", LINT_ERROR);
    let out = run(&["lint", "--format", "json", p.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with("{\"diagnostics\":["), "stdout: {stdout}");
    assert!(stdout.contains("\"code\":\"PDE001\""), "stdout: {stdout}");
    assert!(stdout.contains("\"counts\":"), "stdout: {stdout}");
    assert!(pde_trace::json::parse(&stdout).is_ok(), "stdout: {stdout}");
}

/// A bundle whose lint warning survives parse-time dedupe: the second Σst
/// tgd is *subsumed* by the first (PDE021), not an exact copy of it.
const LINT_WARN_SUBSUMED: &str = "
%schema
source E/2; target H/2; target K/2
%st
E(x, y) -> H(x, y), K(x, y)
E(x, y) -> H(x, y)
%ts
H(x, y) -> E(x, y)
%instance
E(a, b).
";

#[test]
fn solve_auto_lints_to_stderr_unless_no_lint() {
    let p = write_temp("warn_solve.pde", LINT_WARN_SUBSUMED);
    let out = run(&["solve", p.to_str().unwrap()]);
    // Lint findings go to stderr and never change the outcome.
    assert_eq!(out.status.code(), Some(0));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("warning[PDE021]"), "stderr: {stderr}");
    assert!(stderr.contains("--no-lint"), "stderr: {stderr}");

    let out = run(&["solve", "--no-lint", p.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(!stderr.contains("PDE"), "stderr: {stderr}");
}

#[test]
fn parse_time_dedupe_warns_and_removes_exact_duplicates() {
    // The exact-duplicate bundle is normalized at parse time: solve sees a
    // single copy, and the removal is reported on stderr (worded without
    // lint-code vocabulary so it survives --no-lint).
    let p = write_temp("dedupe_solve.pde", LINT_WARN);
    let out = run(&["solve", "--no-lint", p.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("keeping one copy"), "stderr: {stderr}");
    assert!(!stderr.contains("PDE"), "stderr: {stderr}");

    // The lint command works from the raw sources, so PDE020 still fires
    // there (covered by lint_warnings_exit_0_unless_denied).
}

#[test]
fn plan_emits_a_versioned_certificate() {
    let p = write_temp("plan_tri.pde", EX1_TRIANGLE);
    let out = run(&["plan", p.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("regime: tractable"), "stdout: {stdout}");
    assert!(stdout.contains("weakly acyclic"), "stdout: {stdout}");
    assert!(stdout.contains("budgets:"), "stdout: {stdout}");

    let out = run(&["plan", p.to_str().unwrap(), "--format", "json"]);
    assert_eq!(out.status.code(), Some(0));
    let json = String::from_utf8(out.stdout).unwrap();
    assert!(json.starts_with("{\"version\":1,"), "json: {json}");
    assert!(json.contains("\"regime\":\"tractable\""), "json: {json}");
    assert!(json.contains("\"step_bound\":"), "json: {json}");
    assert!(pde_trace::json::parse(&json).is_ok(), "json: {json}");
}

#[test]
fn plan_check_accepts_own_output_and_rejects_tampering() {
    let p = write_temp("plan_chk.pde", EX1_TRIANGLE);
    let out = run(&["plan", p.to_str().unwrap(), "--format", "json"]);
    assert_eq!(out.status.code(), Some(0));
    let json = String::from_utf8(out.stdout).unwrap();

    let cert = write_temp("plan_chk.cert.json", &json);
    let out = run(&[
        "plan",
        p.to_str().unwrap(),
        "--check",
        cert.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("certificate OK"));

    // Inflate one rank: the independent checker must refuse it.
    let tampered = json.replacen("\"rank\":0", "\"rank\":1", 1);
    assert_ne!(tampered, json, "fixture has a rank-0 entry to tamper with");
    let bad = write_temp("plan_chk.bad.json", &tampered);
    let out = run(&[
        "plan",
        p.to_str().unwrap(),
        "--check",
        bad.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("certificate REJECTED"), "stdout: {stdout}");

    // A certificate for a *different* setting must also be refused.
    let other = write_temp("plan_chk_other.pde", EX1_NOSOL_T);
    let out = run(&[
        "plan",
        other.to_str().unwrap(),
        "--check",
        cert.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));

    // A repeated key is malformed, not "first one wins": appending a
    // second regime to a valid certificate must not print "certificate OK".
    let doubled = format!(
        "{},\"regime\":\"intractable\"}}",
        json.trim_end().strip_suffix('}').unwrap()
    );
    let doubled = write_temp("plan_chk.doubled.json", &doubled);
    let out = run(&[
        "plan",
        p.to_str().unwrap(),
        "--check",
        doubled.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("duplicate key 'regime'"), "{stderr}");

    // Garbage is a usage-level error, not a rejection.
    let garbage = write_temp("plan_chk.garbage.json", "{\"version\":");
    let out = run(&[
        "plan",
        p.to_str().unwrap(),
        "--check",
        garbage.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2));
}

/// A bundle with redundancy of every rewrite kind: an alpha-renamed
/// duplicate Σst tgd, a trivial egd, and a Σt tgd reading a relation no
/// derivation can populate.
const REDUNDANT: &str = "
%schema
source E/2; target G/2; target H/2; target K/2
%st
E(x, y) -> H(x, y)
E(u, v) -> H(u, v)
%ts
H(x, y) -> E(x, y)
%t
H(x, y) -> x = x
G(x, y) -> K(x, y)
%instance
E(a, b).
";

#[test]
fn optimize_reports_actions_and_strata() {
    let p = write_temp("opt.pde", REDUNDANT);
    let out = run(&["optimize", p.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("dependencies: 5 -> 2 (3 removed)"),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("duplicate of #0"), "stdout: {stdout}");
    assert!(stdout.contains("trivial egd"), "stdout: {stdout}");
    assert!(
        stdout.contains("unpopulatable relation G"),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("chase strata:"), "stdout: {stdout}");

    // The JSON report carries the full certificate and the schedule.
    let out = run(&["optimize", p.to_str().unwrap(), "--format", "json"]);
    assert_eq!(out.status.code(), Some(0));
    let json = String::from_utf8(out.stdout).unwrap();
    assert!(
        json.contains("\"kind\":\"pde-optimize-report\""),
        "json: {json}"
    );
    assert!(json.contains("pde-rewrite-certificate"), "json: {json}");
    assert!(json.contains("\"strata\":"), "json: {json}");
    assert!(pde_trace::json::parse(&json).is_ok(), "json: {json}");
}

#[test]
fn optimize_check_accepts_own_certificate_and_rejects_tampering() {
    let p = write_temp("optchk.pde", REDUNDANT);
    let cert = write_temp("optchk.cert.json", "");
    let out = run(&[
        "optimize",
        p.to_str().unwrap(),
        "--emit",
        cert.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0));

    // `--check` with no path self-checks a fresh derivation.
    let out = run(&["optimize", p.to_str().unwrap(), "--check"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("independently re-verified"));

    // `--check <cert>` re-verifies the saved certificate.
    let out = run(&[
        "optimize",
        p.to_str().unwrap(),
        "--check",
        cert.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("rewrite certificate OK"));

    // Tampering with the surviving counts must be caught (exit 2: the
    // certificate no longer describes this bundle).
    let json = std::fs::read_to_string(&cert).unwrap();
    let tampered = json.replacen("\"sigma_st\":1", "\"sigma_st\":2", 1);
    assert_ne!(
        tampered, json,
        "fixture has a sigma_st count to tamper with"
    );
    let bad = write_temp("optchk.bad.json", &tampered);
    let out = run(&[
        "optimize",
        p.to_str().unwrap(),
        "--check",
        bad.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8(out.stderr).unwrap().contains("REJECTED"));

    // A certificate for a different bundle is likewise refused.
    let other = write_temp("optchk_other.pde", EX1_TRIANGLE);
    let out = run(&[
        "optimize",
        other.to_str().unwrap(),
        "--check",
        cert.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2));

    // A shape error carries the rewrite prefix once, not the plan
    // certificate's prefix nested inside it.
    let shapeless = write_temp("optchk.shapeless.json", "{\"v\":1}");
    let out = run(&[
        "optimize",
        p.to_str().unwrap(),
        "--check",
        shapeless.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains(": malformed rewrite certificate: missing field 'kind'\n"),
        "{stderr}"
    );
    assert!(!stderr.contains("malformed certificate"), "{stderr}");

    // `plan --check` still requires an explicit certificate path.
    let out = run(&["plan", p.to_str().unwrap(), "--check"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn hostile_certificates_are_input_errors_not_aborts() {
    // 100k nested arrays are an input error (exit 2), never a stack
    // overflow abort (exit 134).
    let p = write_temp("hostile.pde", EX1_TRIANGLE);
    let deep = write_temp("hostile.cert.json", &"[".repeat(100_000));
    let (p, deep) = (p.to_str().unwrap(), deep.to_str().unwrap());
    for args in [
        ["plan", p, "--check", deep],
        ["optimize", p, "--check", deep],
        ["terminate", p, "--check", deep],
        ["solve", p, "--plan", deep],
    ] {
        let out = run(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.contains("nesting deeper than 128"),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn terminate_reports_certified_and_uncertified_verdicts() {
    // The shipped spiral bundle is not weakly acyclic but jointly
    // acyclic: `terminate` exits 0 and names the certifying criterion.
    let spiral = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/spiral.pde");
    let out = run(&["terminate", spiral]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("joint-acyclicity"), "{stdout}");
    assert!(stdout.contains("weak-acyclicity"), "{stdout}");

    // JSON output carries the versioned termination section.
    let out = run(&["terminate", spiral, "--format", "json"]);
    assert_eq!(out.status.code(), Some(0));
    let json = String::from_utf8(out.stdout).unwrap();
    assert!(json.contains("\"kind\":\"pde-terminate-report\""), "{json}");
    assert!(
        json.contains("\"criterion\":\"joint-acyclicity\""),
        "{json}"
    );
    assert!(pde_trace::json::parse(&json).is_ok(), "{json}");

    // The divergent bundle fails every criterion: exit 1, criterion null.
    let divergent = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/divergent.pde");
    let out = run(&["terminate", divergent, "--format", "json"]);
    assert_eq!(out.status.code(), Some(1));
    let json = String::from_utf8(out.stdout).unwrap();
    assert!(json.contains("\"criterion\":null"), "{json}");
}

#[test]
fn terminate_check_accepts_own_certificate_and_rejects_tampering() {
    let spiral = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/spiral.pde");
    let cert = write_temp("termchk.cert.json", "");
    let out = run(&["terminate", spiral, "--emit", cert.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));

    // `--check` with no path self-checks a fresh derivation.
    let out = run(&["terminate", spiral, "--check"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("independently re-verified"));

    // `--check <cert>` re-verifies the saved certificate and always exits
    // 0 on success, so a CI smoke loop can include uncertified bundles.
    let out = run(&["terminate", spiral, "--check", cert.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("termination certificate OK"));

    // Tampering with the claimed criterion must be caught (exit 2).
    let json = std::fs::read_to_string(&cert).unwrap();
    let tampered = json.replacen(
        "\"criterion\":\"joint-acyclicity\"",
        "\"criterion\":\"weak-acyclicity\"",
        1,
    );
    assert_ne!(tampered, json, "fixture has a criterion to tamper with");
    let bad = write_temp("termchk.bad.json", &tampered);
    let out = run(&["terminate", spiral, "--check", bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8(out.stderr).unwrap().contains("REJECTED"));

    // A certificate for a different bundle is likewise refused.
    let divergent = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/divergent.pde");
    let out = run(&["terminate", divergent, "--check", cert.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));

    // An uncertified bundle's own certificate still checks clean.
    let dcert = write_temp("termchk.div.cert.json", "");
    let out = run(&["terminate", divergent, "--emit", dcert.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "plain run reports uncertified");
    let out = run(&["terminate", divergent, "--check", dcert.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("uncertified"));
}

#[test]
fn solve_optimizes_by_default_with_opt_out() {
    let p = write_temp("opt_solve.pde", REDUNDANT);
    let out = run(&["solve", "--no-lint", p.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("optimizer: removed 3 of 5"),
        "stderr: {stderr}"
    );

    let out = run(&["solve", "--no-lint", "--no-optimize", p.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(!stderr.contains("optimizer:"), "stderr: {stderr}");

    // --stats surfaces the rewrite counts and the stratified schedule.
    let out = run(&["solve", "--no-lint", "--stats", p.to_str().unwrap()]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("dependencies:            5 -> 2 (3 removed)"),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("chase strata:"), "stdout: {stdout}");

    // The JSON run report carries an optimize section — null when off.
    let out = run(&[
        "solve",
        "--no-lint",
        "--format",
        "json",
        p.to_str().unwrap(),
    ]);
    let json = String::from_utf8(out.stdout).unwrap();
    assert!(
        json.contains("\"optimize\":{\"before\":5,\"after\":2,\"actions\":3"),
        "json: {json}"
    );
    let out = run(&[
        "solve",
        "--no-lint",
        "--no-optimize",
        "--format",
        "json",
        p.to_str().unwrap(),
    ]);
    let json = String::from_utf8(out.stdout).unwrap();
    assert!(json.contains("\"optimize\":null"), "json: {json}");
}

#[test]
fn saved_plan_disables_optimization() {
    let p = write_temp("opt_plan.pde", REDUNDANT);
    let out = run(&["plan", p.to_str().unwrap(), "--format", "json"]);
    assert_eq!(out.status.code(), Some(0));
    let cert = write_temp(
        "opt_plan.cert.json",
        &String::from_utf8(out.stdout).unwrap(),
    );

    // The saved certificate describes the unoptimized setting, so solve
    // verifies it against that and skips the optimizer entirely.
    let out = run(&[
        "solve",
        "--no-lint",
        "--plan",
        cert.to_str().unwrap(),
        p.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(!stderr.contains("optimizer:"), "stderr: {stderr}");

    // Asking for both at once is a usage error.
    let out = run(&[
        "solve",
        "--no-lint",
        "--optimize",
        "--plan",
        cert.to_str().unwrap(),
        p.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2));
}

/// A bundle routed to the generic witness-chase search: full target tgd
/// plus nonempty Σts (the §4 boundary, PDE004).
const EX_GENERIC: &str = "
%schema
source E/2; target H/2
%st
E(x, y) -> H(x, y)
%ts
H(x, y) -> E(x, y)
%t
H(x, y), H(y, x) -> H(x, x)
%instance
E(a, b). E(b, a). E(b, c).
";

/// `EX1_NOSOL` with a full target tgd, used as a structurally different
/// setting for cross-checking certificates.
const EX1_NOSOL_T: &str = "
%schema
source E/2; target H/2
%st
E(x, z), E(z, y) -> H(x, y)
%ts
H(x, y) -> E(x, y)
%t
H(x, y), H(y, x) -> H(x, x)
%instance
E(a, b). E(b, c).
";

/// Like `EX_GENERIC` but with an existential Σst tgd, so the generic
/// search actually branches over the active domain.
const EX_BRANCHY: &str = "
%schema
source S/2; target T/2
%st
S(x1, x2) -> exists y . T(x1, y)
%ts
T(x1, x2) -> S(x2, x1)
%t
T(x, y), T(y, x) -> T(x, x)
%instance
S(a, b).
";

#[test]
fn solve_with_exhausted_budget_reports_undecided() {
    let p = write_temp("budget.pde", EX_GENERIC);
    // Unlimited: the search decides (no solution here — the full tgd
    // derives H(a,a) whose Σts demand E(a,a) is absent).
    let out = run(&["solve", "--no-lint", p.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("no solution"));

    // One search node is not enough: undecided (distinct exit code 3),
    // never a wrong answer.
    let out = run(&[
        "solve",
        "--no-lint",
        "--max-steps",
        "1",
        p.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(3));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("undecided (search budget exhausted)"),
        "stdout: {stdout}"
    );
    assert!(!stdout.contains("no solution"), "stdout: {stdout}");

    // --max-branches caps how many active-domain values an existential
    // may try; skipped branches likewise forbid a definite "no".
    let b = write_temp("branchy.pde", EX_BRANCHY);
    let out = run(&["solve", "--no-lint", b.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("no solution"));
    let out = run(&[
        "solve",
        "--no-lint",
        "--max-branches",
        "0",
        b.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(3));
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("undecided (search budget exhausted)"));

    // certain: an exhausted budget is an explicit "undecided" error (2),
    // never a silently incomplete answer set.
    let out = run(&[
        "certain",
        "--no-lint",
        "--max-steps",
        "1",
        p.to_str().unwrap(),
        "H(x, x)",
    ]);
    assert_eq!(out.status.code(), Some(2));

    // A malformed cap value is a usage error.
    let out = run(&["solve", "--max-steps", "lots", p.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn solve_accepts_a_precomputed_plan() {
    let p = write_temp("planned.pde", EX1_TRIANGLE);
    let out = run(&["plan", p.to_str().unwrap(), "--format", "json"]);
    let cert = write_temp("planned.cert.json", &String::from_utf8(out.stdout).unwrap());
    let out = run(&[
        "solve",
        "--no-lint",
        "--plan",
        cert.to_str().unwrap(),
        p.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("solution exists"));

    // A plan for a different setting is verified against *this* bundle
    // and refused before any solving happens.
    let other = write_temp("planned_other.pde", EX1_NOSOL_T);
    let out = run(&["plan", other.to_str().unwrap(), "--format", "json"]);
    let wrong = write_temp(
        "planned.wrong.json",
        &String::from_utf8(out.stdout).unwrap(),
    );
    let out = run(&[
        "solve",
        "--no-lint",
        "--plan",
        wrong.to_str().unwrap(),
        p.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn solve_stats_prints_chase_counters() {
    let p = write_temp("stats.pde", EX1_TRIANGLE);
    let out = run(&["solve", "--no-lint", "--stats", p.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("engine:   Seminaive"), "stdout: {stdout}");
    assert!(stdout.contains("chase rounds:"), "stdout: {stdout}");
    assert!(stdout.contains("triggers fired:"), "stdout: {stdout}");
    assert!(stdout.contains("skipped by delta:"), "stdout: {stdout}");
    assert!(stdout.contains("egd merges:"), "stdout: {stdout}");

    // There is no engine switch: `--chase` is an unknown flag.
    for engine in ["naive", "magic"] {
        let out = run(&["solve", "--chase", engine, p.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(2));
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.contains("unknown flag '--chase'"),
            "stderr: {stderr}"
        );
    }
}

#[test]
fn solve_timeout_on_divergent_bundle_is_undecided_not_a_hang() {
    // The shipped divergent bundle has a non-weakly-acyclic Σt: the chase
    // never terminates, so an ungoverned run would grind until the plan's
    // fallback node caps. A 1ms deadline must cut it short with the
    // distinct undecided exit code.
    let p = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/divergent.pde");
    let out = run(&["solve", "--no-lint", "--timeout", "1ms", p]);
    assert_eq!(
        out.status.code(),
        Some(3),
        "stderr: {stderr}",
        stderr = String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("undecided (deadline exceeded"),
        "stdout: {stdout}"
    );
}

#[test]
fn solve_memory_limit_is_undecided_with_reason() {
    let p = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/divergent.pde");
    // A 1-byte budget trips on the first governed checkpoint.
    let out = run(&["solve", "--no-lint", "--memory-limit", "1", p]);
    assert_eq!(out.status.code(), Some(3));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("undecided (memory budget exhausted"),
        "stdout: {stdout}"
    );
}

#[test]
fn solve_governed_budget_admits_normal_runs() {
    // --governed derives a memory budget from the plan certificate; a
    // well-behaved bundle must still decide under it, and --stats must
    // surface the governor counters.
    let p = write_temp("governed.pde", EX1_TRIANGLE);
    let out = run(&[
        "solve",
        "--no-lint",
        "--governed",
        "--stats",
        p.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("solution exists"), "stdout: {stdout}");
    assert!(
        stdout.contains("engine fallback:         false"),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("governor checks:"), "stdout: {stdout}");
    assert!(stdout.contains("peak instance bytes:"), "stdout: {stdout}");
    assert!(
        stdout.contains("governor stops:          0"),
        "stdout: {stdout}"
    );
}

#[test]
fn governance_flags_are_solve_only_and_validated() {
    let p = write_temp("govflags.pde", EX1_TRIANGLE);
    // Governance flags on another command are a usage error.
    let out = run(&["chase", "--timeout", "1s", p.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("only apply to 'solve'"));
    // Malformed duration / size values are usage errors too.
    let out = run(&["solve", "--timeout", "soon", p.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let out = run(&["solve", "--memory-limit", "lots", p.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn usage_errors_exit_2() {
    let out = run(&[]);
    assert_eq!(out.status.code(), Some(2));
    let out = run(&["bogus"]);
    assert_eq!(out.status.code(), Some(2));
    let out = run(&["solve", "/nonexistent/x.pde"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8(out.stderr).unwrap().contains("usage:"));
}

/// Run `args`, require `code`, and return stdout.
#[track_caller]
fn stdout_of(args: &[&str], code: i32) -> String {
    let out = run(args);
    assert_eq!(out.status.code(), Some(code), "{args:?}");
    String::from_utf8(out.stdout).unwrap()
}

/// Outside C_tract on purpose: the Σst existential marks T.1, Σts
/// repeats the marked variable `y` (a condition-1 counterexample), and
/// the Σt tgd feeds T.1 back into itself (a special cycle).
const MARKED_COUNTEREXAMPLE: &str = "
%schema
source S/2; target T/2
%st
S(x, u) -> exists y . T(x, y)
%ts
T(x, y), T(z, y) -> S(x, z)
%t
T(x, y) -> exists z . T(y, z)
%instance
S(a, b).
";

#[test]
fn plan_json_golden() {
    let p = write_temp("plan_golden_tri.pde", EX1_TRIANGLE);
    assert_eq!(
        stdout_of(&["plan", p.to_str().unwrap(), "--format", "json"], 0),
        concat!(
            "{\"version\":1,\"regime\":\"tractable\",\"sol_complexity\":\"PTIME\",",
            "\"certain_complexity\":\"in coNP\",\"recommended_solver\":\"tractable\",",
            "\"chase\":{\"weakly_acyclic\":true,\"max_rank\":0,\"degree\":6,\"adom_size\":3,",
            "\"value_bound\":30,\"fact_bound\":1800,\"step_bound\":1830,",
            "\"ranks\":[{\"rel\":\"E\",\"attr\":0,\"rank\":0},{\"rel\":\"E\",\"attr\":1,\"rank\":0},",
            "{\"rel\":\"H\",\"attr\":0,\"rank\":0},{\"rel\":\"H\",\"attr\":1,\"rank\":0}],",
            "\"special_cycle\":[],",
            "\"termination\":{\"v\":1,\"adom_size\":3,\"criterion\":\"weak-acyclicity\",",
            "\"trail\":[{\"criterion\":\"weak-acyclicity\",\"holds\":true}],",
            "\"value_bound\":30,\"fact_bound\":1800,\"step_bound\":1830,",
            "\"witness\":{\"kind\":\"ranks\"}}},",
            "\"tract\":{\"condition1\":true,\"condition2_1\":true,\"condition2_2\":true,",
            "\"st_all_full\":true,\"ts_all_lav\":true,\"in_ctract\":true,",
            "\"marked_positions\":[],\"marked_variables\":[[]]},",
            "\"budgets\":{\"chase_steps\":1830,\"chase_facts\":1800,\"search_nodes\":1000000,",
            "\"search_branches\":30}}\n"
        )
    );

    let p = write_temp("plan_golden_cx.pde", MARKED_COUNTEREXAMPLE);
    assert_eq!(
        stdout_of(&["plan", p.to_str().unwrap(), "--format", "json"], 0),
        concat!(
            "{\"version\":1,\"regime\":\"non-terminating\",\"sol_complexity\":\"no finite bound\",",
            "\"certain_complexity\":\"no finite bound\",\"recommended_solver\":\"generic-search\",",
            "\"chase\":{\"weakly_acyclic\":false,\"max_rank\":0,\"degree\":0,\"adom_size\":2,",
            "\"value_bound\":0,\"fact_bound\":0,\"step_bound\":0,\"ranks\":[],",
            "\"special_cycle\":[{\"from_rel\":\"T\",\"from_attr\":1,\"to_rel\":\"T\",",
            "\"to_attr\":1,\"special\":true}],",
            "\"termination\":{\"v\":1,\"adom_size\":2,\"criterion\":null,",
            "\"trail\":[{\"criterion\":\"weak-acyclicity\",\"holds\":false},",
            "{\"criterion\":\"joint-acyclicity\",\"holds\":false},",
            "{\"criterion\":\"super-weak-acyclicity\",\"holds\":false},",
            "{\"criterion\":\"critical-instance\",\"holds\":false}],",
            "\"value_bound\":0,\"fact_bound\":0,\"step_bound\":0,\"witness\":{\"kind\":\"none\"}}},",
            "\"tract\":{\"condition1\":false,\"condition2_1\":false,\"condition2_2\":true,",
            "\"st_all_full\":false,\"ts_all_lav\":false,\"in_ctract\":false,",
            "\"marked_positions\":[{\"rel\":\"T\",\"attr\":1}],\"marked_variables\":[[\"y\"]],",
            "\"counterexample\":{\"kind\":\"repeated-marked-variable\",\"tgd_index\":0,",
            "\"vars\":[\"y\"]}},",
            "\"budgets\":{\"chase_steps\":1000000,\"chase_facts\":10000000,",
            "\"search_nodes\":1000000,\"search_branches\":18446744073709551615}}\n"
        )
    );
}

/// A lint fixture whose JSON carries every optional diagnostic member:
/// constraint group/index, span, line/col, notes and a suggestion.
const LINT_EVERY_MEMBER: &str = "%schema
source E/2; target H/2
%st
E(x, y) -> H(x, y)
E(x, y) -> H(x, y)
%t
H(x, y) -> exists z . H(y, z)
";

#[test]
fn lint_json_golden() {
    let p = write_temp("lint_golden.pde", LINT_EVERY_MEMBER);
    assert_eq!(
        stdout_of(&["lint", "--format", "json", p.to_str().unwrap()], 1),
        concat!(
            "{\"diagnostics\":[",
            "{\"code\":\"PDE020\",\"severity\":\"warning\",\"message\":\"exact duplicate of Σst #0\",",
            "\"group\":\"st\",\"index\":1,\"span\":{\"start\":19,\"end\":37},\"line\":5,\"col\":1,",
            "\"suggestion\":\"remove the duplicate\"},",
            "{\"code\":\"PDE001\",\"severity\":\"error\",\"message\":\"target tgds are not weakly ",
            "acyclic, so the chase may not terminate and no polynomial solution-existence bound ",
            "applies (Def. 5, Lemma 1); witness cycle: H.1 =(special)=> H.1\",",
            "\"group\":\"t\",\"index\":0,\"span\":{\"start\":0,\"end\":29},\"line\":7,\"col\":1,",
            "\"suggestion\":\"break the cycle: remove an existential that feeds a position ",
            "reachable from itself, or make the offending tgd full\"},",
            "{\"code\":\"PDE018\",\"severity\":\"note\",\"message\":\"universal variable x occurs ",
            "once and constrains nothing\",",
            "\"group\":\"t\",\"index\":0,\"span\":{\"start\":0,\"end\":29},\"line\":7,\"col\":1,",
            "\"suggestion\":\"rename to _x to mark it intentional\"},",
            "{\"code\":\"PDE052\",\"severity\":\"error\",\"message\":\"every criterion of the ",
            "termination hierarchy fails; the chase may diverge and the governor gets no finite ",
            "budget\",",
            "\"group\":\"t\",\"index\":0,\"span\":{\"start\":0,\"end\":29},\"line\":7,\"col\":1,",
            "\"notes\":[\"criterion trail: weak-acyclicity: failed; joint-acyclicity: failed; ",
            "super-weak-acyclicity: failed; critical-instance: failed\"]}],",
            "\"counts\":{\"error\":2,\"warning\":1,\"note\":1}}\n"
        )
    );
}

#[test]
fn terminate_and_optimize_json_reports_golden() {
    let spiral = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/spiral.pde");
    assert_eq!(
        stdout_of(&["terminate", spiral, "--format", "json"], 0),
        concat!(
            "{\"v\":1,\"kind\":\"pde-terminate-report\",\"termination\":{\"v\":1,",
            "\"adom_size\":2,\"criterion\":\"joint-acyclicity\",",
            "\"trail\":[{\"criterion\":\"weak-acyclicity\",\"holds\":false},",
            "{\"criterion\":\"joint-acyclicity\",\"holds\":true}],",
            "\"value_bound\":18,\"fact_bound\":1620,\"step_bound\":1638,",
            "\"witness\":{\"kind\":\"variable-order\",\"max_depth\":0,",
            "\"order\":[{\"tgd\":2,\"var\":\"z\"}]}}}\n"
        )
    );
    let divergent = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/divergent.pde");
    assert_eq!(
        stdout_of(&["terminate", divergent, "--format", "json"], 1),
        concat!(
            "{\"v\":1,\"kind\":\"pde-terminate-report\",\"termination\":{\"v\":1,",
            "\"adom_size\":4,\"criterion\":null,",
            "\"trail\":[{\"criterion\":\"weak-acyclicity\",\"holds\":false},",
            "{\"criterion\":\"joint-acyclicity\",\"holds\":false},",
            "{\"criterion\":\"super-weak-acyclicity\",\"holds\":false},",
            "{\"criterion\":\"critical-instance\",\"holds\":false}],",
            "\"value_bound\":0,\"fact_bound\":0,\"step_bound\":0,\"witness\":{\"kind\":\"none\"}}}\n"
        )
    );
    let p = write_temp("optimize_golden.pde", REDUNDANT);
    assert_eq!(
        stdout_of(&["optimize", p.to_str().unwrap(), "--format", "json"], 0),
        concat!(
            "{\"v\":1,\"kind\":\"pde-optimize-report\",\"certificate\":{\"v\":1,",
            "\"kind\":\"pde-rewrite-certificate\",\"input_nonempty\":[\"E\"],",
            "\"dead_relations\":[\"G\",\"K\"],",
            "\"before\":{\"sigma_st\":2,\"sigma_ts\":1,\"sigma_t\":2},",
            "\"after\":{\"sigma_st\":1,\"sigma_ts\":1,\"sigma_t\":0},",
            "\"actions\":[{\"action\":\"remove-duplicate\",\"group\":\"sigma_st\",\"index\":1,",
            "\"kept\":0},{\"action\":\"remove-trivial-egd\",\"group\":\"sigma_t\",\"index\":0},",
            "{\"action\":\"remove-dead\",\"group\":\"sigma_t\",\"index\":1,\"relation\":\"G\"}]},",
            "\"schedule\":{\"strata\":[[0]]}}\n"
        )
    );
}

/// Σt = ∅: the two Σst tgds differ only in how their constants split the
/// text `a,!b,!c`, so a key that writes constants as raw text merges them.
const CONSTANTS_SPELLING_THE_KEY: &str = "
%schema
source S/1; source Ok/2; target T/3
%st
S(x) -> T(x, 'a,!b', 'c');
S(x) -> T(x, 'a', 'b,!c')
%ts
T(x, y, z) -> Ok(y, z)
%instance
S(s). Ok('a,!b', c).
";

/// The second tgd's constant `'$lint$x'` reads as a frozen `x` to a
/// redundancy check that freezes variables into constants.
const TGD_CONSTANT_SPELLING_A_FROZEN_VARIABLE: &str = "
%schema
source A/1; source Ok/2; target B/2
%st
A(x) -> B(x, x);
A(x) -> B(x, '$lint$x')
%ts
B(x, y) -> Ok(x, y)
%instance
A(a). Ok(a, a).
";

/// The data-exchange route: the second egd's constant `'$opt$y'` reads as
/// a frozen `y` to a redundancy check that freezes variables into
/// constants.
const EGD_CONSTANT_SPELLING_A_FROZEN_VARIABLE: &str = "
%schema
source S/2; source R/2; target T/2; target U/2
%st
S(x, y) -> T(x, y);
R(x, y) -> U(x, y)
%t
T(x, y), U(x, y) -> x = y;
T(x, y), U(x, '$opt$y') -> x = y
%instance
S(a, b). R(a, '$opt$y').
";

/// `solve` and `solve --no-optimize` must exit alike with `code`.
#[track_caller]
fn solve_agrees_with_no_optimize(path: &str, code: i32) {
    stdout_of(&["solve", "--no-lint", path], code);
    stdout_of(&["solve", "--no-lint", "--no-optimize", path], code);
}

#[test]
fn constants_spelling_optimizer_syntax_are_never_redundant() {
    for (name, bundle) in [
        ("spelling_key.pde", CONSTANTS_SPELLING_THE_KEY),
        ("spelling_tgd.pde", TGD_CONSTANT_SPELLING_A_FROZEN_VARIABLE),
        ("spelling_egd.pde", EGD_CONSTANT_SPELLING_A_FROZEN_VARIABLE),
    ] {
        let p = write_temp(name, bundle);
        let path = p.to_str().unwrap();
        solve_agrees_with_no_optimize(path, 1);
        let optimized = stdout_of(&["optimize", path], 0);
        assert!(optimized.contains("(0 removed)"), "{name}: {optimized}");
        let lint = stdout_of(&["lint", path], 0);
        for code in ["PDE021", "PDE040", "PDE041"] {
            assert!(!lint.contains(code), "{name}: {lint}");
        }
    }
}

#[test]
fn lint_reports_one_of_two_equivalent_tgds() {
    let p = write_temp(
        "equivalent_tgds.pde",
        "
%schema
source A/1; target B/1
%st
A(x) -> B(x);
A(x), A(x) -> B(x)
%instance
A(a).
",
    );
    let path = p.to_str().unwrap();
    solve_agrees_with_no_optimize(path, 0);
    let lint = stdout_of(&["lint", path], 0);
    assert_eq!(lint.matches("PDE021").count(), 1, "{lint}");
    assert!(
        lint.contains("warning[PDE021]: tgd is implied by Σst #0") && lint.contains("--> Σst #1"),
        "{lint}"
    );
    let optimized = stdout_of(&["optimize", path], 0);
    assert!(
        optimized.contains("remove sigma_st #1: subsumed by #0"),
        "{optimized}"
    );
}
