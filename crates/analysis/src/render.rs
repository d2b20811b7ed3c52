//! Text and JSON rendering of diagnostics.
//!
//! Both renderers are pure functions of the diagnostic list plus an
//! optional [`RenderContext`] that maps section-relative spans back to
//! file positions (via each section's line map, since comments and blank
//! lines are dropped when a bundle is split).

use crate::diag::{Diagnostic, Group, Severity};
use pde_core::bundle::{BundleSources, Section};
use pde_trace::json::Json;

/// Where the linted text came from, for position reporting.
pub struct RenderContext<'a> {
    /// Path (or label) of the bundle file.
    pub path: &'a str,
    /// The split sections, carrying line maps.
    pub sources: &'a BundleSources,
}

impl RenderContext<'_> {
    fn section(&self, group: Group) -> &Section {
        match group {
            Group::St => &self.sources.st,
            Group::Ts => &self.sources.ts,
            Group::T => &self.sources.t,
        }
    }

    /// Resolve a diagnostic's span to `(file_line, col, snippet)`.
    fn locate(&self, d: &Diagnostic) -> Option<(usize, usize, String)> {
        let c = d.constraint?;
        let span = d.span?;
        let section = self.section(c.group);
        let (line, col) = section.file_line_col(span.start);
        let snippet = span.slice(&section.text).trim().to_owned();
        Some((line, col, snippet))
    }
}

/// Render diagnostics in the compiler-style text format.
pub fn render_text(diags: &[Diagnostic], ctx: Option<&RenderContext<'_>>) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&format!("{}[{}]: {}\n", d.severity, d.code, d.message));
        if let Some(c) = d.constraint {
            out.push_str(&format!("  --> {} #{}", c.group, c.index));
            if let Some((line, col, _)) = ctx.and_then(|ctx| ctx.locate(d)) {
                out.push_str(&format!(" ({}:{line}:{col})", ctx.expect("checked").path));
            }
            out.push('\n');
            if let Some((_, _, snippet)) = ctx.and_then(|ctx| ctx.locate(d)) {
                if !snippet.is_empty() {
                    out.push_str(&format!("   | {snippet}\n"));
                }
            }
        }
        for note in &d.notes {
            out.push_str(&format!("   = note: {note}\n"));
        }
        if let Some(s) = &d.suggestion {
            out.push_str(&format!("   = help: {s}\n"));
        }
    }
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings = diags
        .iter()
        .filter(|d| d.severity == Severity::Warning)
        .count();
    let notes = diags
        .iter()
        .filter(|d| d.severity == Severity::Note)
        .count();
    out.push_str(&format!(
        "{errors} error(s), {warnings} warning(s), {notes} note(s)\n"
    ));
    out
}

/// Diagnostics as a JSON object (`{"diagnostics": [...], "counts":
/// {...}}`).
pub fn render_json(diags: &[Diagnostic], ctx: Option<&RenderContext<'_>>) -> Json {
    let diagnostics = diags.iter().map(|d| {
        let mut fields = vec![
            ("code", d.code.as_str().into()),
            ("severity", d.severity.to_string().into()),
            ("message", d.message.as_str().into()),
        ];
        if let Some(c) = d.constraint {
            fields.push(("group", c.group.section_name().into()));
            fields.push(("index", c.index.into()));
        }
        if let Some(span) = d.span {
            fields.push((
                "span",
                Json::from_iter([("start", span.start.into()), ("end", span.end.into())]),
            ));
        }
        if let Some((line, col, _)) = ctx.and_then(|ctx| ctx.locate(d)) {
            fields.push(("line", line.into()));
            fields.push(("col", col.into()));
        }
        if !d.notes.is_empty() {
            fields.push(("notes", d.notes.iter().map(Json::from).collect()));
        }
        if let Some(s) = &d.suggestion {
            fields.push(("suggestion", s.as_str().into()));
        }
        Json::from_iter(fields)
    });
    let count = |s: Severity| diags.iter().filter(|d| d.severity == s).count().into();
    Json::from_iter([
        ("diagnostics", diagnostics.collect()),
        (
            "counts",
            Json::from_iter([
                ("error", count(Severity::Error)),
                ("warning", count(Severity::Warning)),
                ("note", count(Severity::Note)),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::AnalysisInput;
    use crate::diag::{Code, Diagnostic};
    use pde_core::bundle::split_sections;

    #[test]
    fn text_rendering_includes_position_and_snippet() {
        let src = "%schema\nsource E/2; target H/2\n%st\nE(x, y) -> H(x, y)\n%ts\n%t\n# comment\nH(x, y) -> exists z . H(y, z)\n";
        let sources = split_sections(src).unwrap();
        let diags = AnalysisInput::from_sources(&sources).unwrap().analyze();
        let ctx = RenderContext {
            path: "ex.pde",
            sources: &sources,
        };
        let text = render_text(&diags, Some(&ctx));
        assert!(text.contains("error[PDE001]"), "{text}");
        assert!(text.contains("witness cycle"), "{text}");
        // PDE018 on the Σt tgd points at file line 8 (the comment on line
        // 7 is skipped by the section splitter).
        assert!(text.contains("ex.pde:8:1"), "{text}");
        assert!(text.contains("| H(x, y) -> exists z . H(y, z)"), "{text}");
        // PDE001 plus its PDE052 criterion-trail companion.
        assert!(text.contains("error[PDE052]"), "{text}");
        assert!(text.contains("2 error(s)"), "{text}");
    }

    #[test]
    fn json_rendering_is_wellformed_enough() {
        let src =
            "%schema\nsource E/2; target H/2\n%st\nE(x, y) -> H(x, y)\n%ts\n%t\nH(x, y) -> x = x\n";
        let sources = split_sections(src).unwrap();
        let diags = AnalysisInput::from_sources(&sources).unwrap().analyze();
        let ctx = RenderContext {
            path: "ex.pde",
            sources: &sources,
        };
        let json = render_json(&diags, Some(&ctx)).to_string();
        assert!(json.starts_with("{\"diagnostics\":["), "{json}");
        assert!(json.contains("\"code\":\"PDE019\""), "{json}");
        assert!(json.contains("\"group\":\"t\""), "{json}");
        assert!(json.contains("\"line\":7"), "{json}");
        assert!(pde_trace::json::parse(&json).is_ok(), "{json}");
    }

    #[test]
    fn rendering_without_context_omits_positions() {
        let d = vec![Diagnostic::new(Code::TrivialEgd, "t").on(crate::diag::Group::T, 0)];
        let text = render_text(&d, None);
        assert!(text.contains("--> Σt #0\n"), "{text}");
        let json = render_json(&d, None).to_string();
        assert!(!json.contains("\"line\""), "{json}");
    }
}
