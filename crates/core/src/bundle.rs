//! The `.pde` bundle format: a whole problem — setting plus input
//! instance — in one self-describing text file.
//!
//! ```text
//! # comments and blank lines are allowed anywhere
//! %schema
//! source E/2; target H/2
//! %st
//! E(x, z), E(z, y) -> H(x, y)
//! %ts
//! H(x, y) -> E(x, y)
//! %t
//! # (empty: no target constraints)
//! %instance
//! E(a, b). E(b, c).
//! ```
//!
//! Sections may appear in any order; `%schema` is mandatory, the others
//! default to empty. The CLI (`pde`) consumes bundles; programmatic users
//! get [`Bundle::parse`] / [`Bundle::render`].

use crate::setting::{PdeSetting, SettingError};
use pde_relational::{parse_instance, render_instance, Instance, ParseError, Peer};
use std::fmt;

/// A parsed bundle: the setting and the input pair `(I, J)`.
#[derive(Clone)]
pub struct Bundle {
    /// The PDE setting.
    pub setting: PdeSetting,
    /// The combined input instance.
    pub input: Instance,
}

/// Bundle parse errors, with the offending section.
#[derive(Debug)]
pub enum BundleError {
    /// The `%schema` section is missing.
    MissingSchema,
    /// A line outside any section.
    ContentOutsideSection {
        /// 1-based line number.
        line: usize,
    },
    /// An unknown `%section` marker.
    UnknownSection {
        /// The marker as written.
        name: String,
        /// 1-based line number.
        line: usize,
    },
    /// A section appeared twice.
    DuplicateSection {
        /// The duplicated marker.
        name: String,
        /// 1-based line number.
        line: usize,
    },
    /// The setting failed to build.
    Setting(SettingError),
    /// The instance failed to parse.
    Instance(ParseError),
}

impl fmt::Display for BundleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BundleError::MissingSchema => write!(f, "bundle has no %schema section"),
            BundleError::ContentOutsideSection { line } => {
                write!(f, "line {line}: content before the first %section marker")
            }
            BundleError::UnknownSection { name, line } => {
                write!(f, "line {line}: unknown section %{name}")
            }
            BundleError::DuplicateSection { name, line } => {
                write!(f, "line {line}: duplicate section %{name}")
            }
            BundleError::Setting(e) => write!(f, "{e}"),
            BundleError::Instance(e) => write!(f, "instance: {e}"),
        }
    }
}

impl std::error::Error for BundleError {}

impl From<SettingError> for BundleError {
    fn from(e: SettingError) -> Self {
        BundleError::Setting(e)
    }
}

/// One section's text plus provenance: `line_map[i]` is the 1-based file
/// line that section line `i` came from. The map is needed because blank
/// and comment lines are dropped, so a section offset alone cannot be
/// translated back to a file position.
#[derive(Clone, Debug, Default)]
pub struct Section {
    /// The section's text with comments and blank lines removed.
    pub text: String,
    /// 1-based file line of each line of `text`.
    pub line_map: Vec<usize>,
}

impl Section {
    /// Translate a byte offset into `text` to a `(file_line, col)` pair,
    /// both 1-based. Offsets past the end map to the last line.
    pub fn file_line_col(&self, offset: usize) -> (usize, usize) {
        let mut line = 0usize;
        let mut col = 1usize;
        for (i, b) in self.text.bytes().enumerate() {
            if i >= offset {
                break;
            }
            if b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        let file_line = self
            .line_map
            .get(line.min(self.line_map.len().saturating_sub(1)))
            .copied()
            .unwrap_or(line + 1);
        (file_line, col)
    }
}

/// The raw text of a bundle's five sections, before any parsing of their
/// contents. This is the substrate the lint driver works from: it parses
/// each section leniently and reports diagnostics with file positions via
/// each [`Section`]'s line map.
#[derive(Clone, Debug, Default)]
pub struct BundleSources {
    /// `%schema` section.
    pub schema: Section,
    /// `%st` section.
    pub st: Section,
    /// `%ts` section.
    pub ts: Section,
    /// `%t` section.
    pub t: Section,
    /// `%instance` section.
    pub instance: Section,
}

/// Split a bundle into its sections without parsing their contents.
/// Enforces the structural rules (known markers, no duplicates, no content
/// before the first marker, `%schema` present).
pub fn split_sections(src: &str) -> Result<BundleSources, BundleError> {
    let mut sections: [(&str, Option<Section>); 5] = [
        ("schema", None),
        ("st", None),
        ("ts", None),
        ("t", None),
        ("instance", None),
    ];
    let mut current: Option<usize> = None;
    for (i, raw) in src.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(name) = line.strip_prefix('%') {
            let name = name.trim();
            let idx = sections
                .iter()
                .position(|(n, _)| *n == name)
                .ok_or_else(|| BundleError::UnknownSection {
                    name: name.to_owned(),
                    line: i + 1,
                })?;
            if sections[idx].1.is_some() {
                return Err(BundleError::DuplicateSection {
                    name: name.to_owned(),
                    line: i + 1,
                });
            }
            sections[idx].1 = Some(Section::default());
            current = Some(idx);
            continue;
        }
        let Some(cur) = current else {
            return Err(BundleError::ContentOutsideSection { line: i + 1 });
        };
        let sec = sections[cur]
            .1
            .as_mut()
            .expect("current only ever set after Some(Section) is stored");
        sec.text.push_str(raw);
        sec.text.push('\n');
        sec.line_map.push(i + 1);
    }
    if sections[0].1.is_none() {
        return Err(BundleError::MissingSchema);
    }
    let mut it = sections.into_iter().map(|(_, s)| s.unwrap_or_default());
    Ok(BundleSources {
        schema: it.next().expect("five sections"),
        st: it.next().expect("five sections"),
        ts: it.next().expect("five sections"),
        t: it.next().expect("five sections"),
        instance: it.next().expect("five sections"),
    })
}

impl Bundle {
    /// Parse a bundle from text. Exact duplicate dependencies are removed
    /// (see [`Bundle::parse_with_warnings`], which this delegates to); use
    /// that entry point to surface the removal warnings.
    pub fn parse(src: &str) -> Result<Bundle, BundleError> {
        Bundle::parse_with_warnings(src).map(|(bundle, _)| bundle)
    }

    /// Parse a bundle from text, deduplicating syntactically identical
    /// dependencies within each group at parse time (a repeated dependency
    /// silently doubles trigger work in the chase) and returning one
    /// warning string per removed copy.
    pub fn parse_with_warnings(src: &str) -> Result<(Bundle, Vec<String>), BundleError> {
        let sources = split_sections(src)?;
        let (setting, warnings) = PdeSetting::parse_with_warnings(
            &sources.schema.text,
            &sources.st.text,
            &sources.ts.text,
            &sources.t.text,
        )?;
        let input = parse_instance(setting.schema(), &sources.instance.text)
            .map_err(BundleError::Instance)?;
        Ok((Bundle { setting, input }, warnings))
    }

    /// Render this bundle back to the text format (parse∘render = id up to
    /// formatting).
    pub fn render(&self) -> String {
        let schema = self.setting.schema();
        let mut out = String::new();
        out.push_str("%schema\n");
        for rel in schema.rel_ids() {
            out.push_str(&format!(
                "{} {}/{};\n",
                schema.peer(rel),
                schema.name(rel),
                schema.arity(rel)
            ));
        }
        out.push_str("%st\n");
        for t in self.setting.sigma_st() {
            out.push_str(&format!("{};\n", t.display(schema)));
        }
        out.push_str("%ts\n");
        for t in self.setting.sigma_ts() {
            out.push_str(&format!("{};\n", t.display(schema)));
        }
        out.push_str("%t\n");
        for d in self.setting.sigma_t() {
            out.push_str(&format!("{};\n", d.display(schema)));
        }
        out.push_str("%instance\n");
        out.push_str(&render_instance(&self.input));
        out
    }

    /// Short one-line summary (for CLI headers).
    pub fn summary(&self) -> String {
        format!(
            "|Σst|={} |Σts|={} |Σt|={} |I|={} |J|={}",
            self.setting.sigma_st().len(),
            self.setting.sigma_ts().len(),
            self.setting.sigma_t().len(),
            self.input.fact_count_of(Peer::Source),
            self.input.fact_count_of(Peer::Target),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXAMPLE: &str = "
# Example 1 of the paper
%schema
source E/2; target H/2
%st
E(x, z), E(z, y) -> H(x, y)
%ts
H(x, y) -> E(x, y)
%t
%instance
E(a, b). E(b, c).
";

    #[test]
    fn parse_happy_path() {
        let b = Bundle::parse(EXAMPLE).unwrap();
        assert_eq!(b.setting.sigma_st().len(), 1);
        assert_eq!(b.setting.sigma_ts().len(), 1);
        assert!(b.setting.has_no_target_constraints());
        assert_eq!(b.input.fact_count(), 2);
        assert!(b.summary().contains("|I|=2"));
    }

    #[test]
    fn sections_in_any_order_and_optional() {
        let src = "%instance\n%schema\nsource A/1; target B/1\n%st\nA(x) -> B(x)";
        let b = Bundle::parse(src).unwrap();
        assert_eq!(b.setting.sigma_st().len(), 1);
        assert_eq!(b.input.fact_count(), 0);
    }

    #[test]
    fn errors_are_specific() {
        assert!(matches!(
            Bundle::parse("source E/2"),
            Err(BundleError::ContentOutsideSection { line: 1 })
        ));
        assert!(matches!(
            Bundle::parse("%bogus\n"),
            Err(BundleError::UnknownSection { .. })
        ));
        assert!(matches!(
            Bundle::parse("%st\n%st\n"),
            Err(BundleError::DuplicateSection { .. })
        ));
        assert!(matches!(
            Bundle::parse("%st\n"),
            Err(BundleError::MissingSchema)
        ));
        assert!(matches!(
            Bundle::parse("%schema\nsource E/2\n%st\nE(x, y) -> E(x, y)"),
            Err(BundleError::Setting(_))
        ));
        assert!(matches!(
            Bundle::parse("%schema\nsource E/2\n%instance\nE(a)."),
            Err(BundleError::Instance(_))
        ));
    }

    #[test]
    fn render_roundtrips() {
        let quoted = "%schema\nsource E/2; source U/3; target H/2\n%instance\n\
             E('New York', 'x y'). U(p, 'a, b', c). U(p, a, 'b, c'). \
             H(?1, \"it's\"). H('?2', '_N1'). H('', ?1)";
        for src in [EXAMPLE, quoted] {
            let b = Bundle::parse(src).unwrap();
            let rendered = b.render();
            let again = Bundle::parse(&rendered).unwrap();
            assert_eq!(again.setting.sigma_st(), b.setting.sigma_st());
            assert_eq!(again.setting.sigma_ts(), b.setting.sigma_ts());
            assert!(again.input.same_facts(&b.input), "{rendered}");
            assert_eq!(again.render(), rendered);
        }
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let src = "# top\n\n%schema\n# inner\nsource A/1; target B/1\n\n%instance\nA(q).";
        let b = Bundle::parse(src).unwrap();
        assert_eq!(b.input.fact_count(), 1);
    }

    #[test]
    fn split_sections_tracks_file_lines() {
        let src = "# header\n%schema\nsource A/1; target B/1\n%st\n# comment\n\nA(x) -> B(x)\nA(x) -> B(x)\n";
        let s = split_sections(src).unwrap();
        assert_eq!(s.schema.text, "source A/1; target B/1\n");
        assert_eq!(s.schema.line_map, vec![3]);
        // Comment (line 5) and blank (line 6) are skipped, so the two st
        // lines come from file lines 7 and 8.
        assert_eq!(s.st.line_map, vec![7, 8]);
        // Offset into the second st line maps to file line 8.
        let second_line_start = s.st.text.find('\n').unwrap() + 1;
        assert_eq!(s.st.file_line_col(second_line_start + 5), (8, 6));
        assert_eq!(s.st.file_line_col(0), (7, 1));
        // Missing sections come back empty.
        assert!(s.t.text.is_empty());
        assert!(s.instance.line_map.is_empty());
    }
}
