//! Text syntax for dependencies.
//!
//! ```text
//! tgd  :  E(x, z), E(z, y) -> H(x, y)
//! tgd  :  H(x, y) -> exists z . E(x, z), E(z, y)
//! egd  :  P(x, z, y, w), P(x, z2, y2, w2) -> z = z2
//! dtgd :  C(x, u) -> R(u) | B(u) | exists v . G(u), G(v)
//! ```
//!
//! Multiple dependencies are separated by `;`. Bare identifiers are
//! variables; quoted strings are constants (see `pde_relational::parser`).

use crate::disjunctive::{Disjunct, DisjunctiveTgd};
use crate::egd::Egd;
use crate::tgd::Tgd;
use crate::Dependency;
use pde_relational::parser::{parse_atom_list, parse_term, Lexer, ParseError, Span, Token};
use pde_relational::{Atom, Conjunction, Schema, Term, Var};
use std::collections::BTreeSet;

/// Parse the `exists v1, v2 .` prefix if present; returns the declared
/// existential variables (empty when absent).
fn parse_exists_prefix(lex: &mut Lexer<'_>) -> Result<BTreeSet<Var>, ParseError> {
    let mut vars = BTreeSet::new();
    if let Some(Token::Ident(id)) = lex.peek()? {
        if id == "exists" {
            lex.next()?;
            loop {
                let (name, span) = lex.expect_ident()?;
                if name.starts_with("__pde") {
                    return Err(ParseError::at(
                        "identifiers starting with __pde are reserved",
                        span,
                    ));
                }
                vars.insert(Var::new(name));
                match lex.peek()? {
                    Some(Token::Comma) => {
                        lex.next()?;
                    }
                    _ => break,
                }
            }
            lex.expect(Token::Period)?;
        }
    }
    Ok(vars)
}

/// Parse the right-hand side of a dependency whose premise and arrow have
/// been consumed. Distinguishes egds (`x = y`) from tgd conclusions.
fn parse_rhs(
    schema: &Schema,
    lex: &mut Lexer<'_>,
    premise: Conjunction,
) -> Result<Dependency, ParseError> {
    // `exists` unambiguously starts a tgd conclusion.
    let existentials = parse_exists_prefix(lex)?;
    if !existentials.is_empty() {
        let conclusion = Conjunction::new(parse_atom_list(schema, lex)?);
        return Ok(Dependency::Tgd(Tgd::new(premise, existentials, conclusion)));
    }
    // Otherwise: an identifier followed by `=` means an egd; followed by
    // `(` it is the first conclusion atom.
    let (name, name_span) = lex.expect_ident()?;
    match lex.peek()? {
        Some(Token::Eq) => {
            lex.next()?;
            let rhs_span = lex.peek_span()?;
            let rhs = match parse_term(lex)? {
                Term::Var(v) => v,
                Term::Const(_) => {
                    return Err(ParseError::at(
                        "egds equate variables, not constants",
                        rhs_span,
                    ))
                }
            };
            Ok(Dependency::Egd(Egd::new(premise, Var::new(name), rhs)))
        }
        Some(Token::LParen) => {
            let first = parse_rest_of_atom(schema, lex, name, name_span)?;
            let mut atoms = vec![first];
            while let Some(Token::Comma | Token::Amp) = lex.peek()? {
                lex.next()?;
                atoms.push(pde_relational::parser::parse_atom(schema, lex)?);
            }
            Ok(Dependency::Tgd(Tgd::new(
                premise,
                [],
                Conjunction::new(atoms),
            )))
        }
        other => Err(ParseError::at(
            format!(
                "expected '=' or '(' after {name}, found {}",
                other.map_or("end of input".to_owned(), |t| t.to_string())
            ),
            name_span,
        )),
    }
}

/// Parse an atom whose relation name has already been consumed.
fn parse_rest_of_atom(
    schema: &Schema,
    lex: &mut Lexer<'_>,
    name: &str,
    name_span: Span,
) -> Result<Atom, ParseError> {
    let rel = schema
        .rel_id(name)
        .ok_or_else(|| ParseError::at(format!("unknown relation {name}"), name_span))?;
    lex.expect(Token::LParen)?;
    let mut terms = Vec::new();
    if !matches!(lex.peek()?, Some(Token::RParen)) {
        loop {
            terms.push(parse_term(lex)?);
            match lex.peek()? {
                Some(Token::Comma) => {
                    lex.next()?;
                }
                _ => break,
            }
        }
    }
    lex.expect(Token::RParen)?;
    if terms.len() != schema.arity(rel) as usize {
        return Err(ParseError::at(
            format!(
                "relation {name} has arity {}, got {} terms",
                schema.arity(rel),
                terms.len()
            ),
            Span::new(name_span.start, lex.last_end()),
        ));
    }
    Ok(Atom { rel, terms })
}

/// Parse one dependency (tgd or egd) from a lexer; stops at `;` or EOF.
pub fn parse_dependency_from(
    schema: &Schema,
    lex: &mut Lexer<'_>,
) -> Result<Dependency, ParseError> {
    Ok(parse_dependency_spanned_from(schema, lex)?.0)
}

/// Like [`parse_dependency_from`], also returning the span of the
/// dependency's text (first premise token through last conclusion token,
/// excluding any trailing `;`).
pub fn parse_dependency_spanned_from(
    schema: &Schema,
    lex: &mut Lexer<'_>,
) -> Result<(Dependency, Span), ParseError> {
    let start = lex.peek_span()?.start;
    let premise = Conjunction::new(parse_atom_list(schema, lex)?);
    lex.expect(Token::Arrow)?;
    let d = parse_rhs(schema, lex, premise)?;
    Ok((d, Span::new(start, lex.last_end())))
}

/// Parse a single dependency from a string (must consume all input).
pub fn parse_dependency(schema: &Schema, src: &str) -> Result<Dependency, ParseError> {
    let mut lex = Lexer::new(src);
    let d = parse_dependency_from(schema, &mut lex)?;
    if matches!(lex.peek()?, Some(Token::Semi)) {
        lex.next()?;
    }
    if !lex.at_end()? {
        return Err(ParseError::at(
            "trailing input after dependency",
            lex.peek_span()?,
        ));
    }
    Ok(d)
}

/// Parse a `;`-separated list of dependencies.
pub fn parse_dependencies(schema: &Schema, src: &str) -> Result<Vec<Dependency>, ParseError> {
    Ok(parse_dependencies_spanned(schema, src)?
        .into_iter()
        .map(|(d, _)| d)
        .collect())
}

/// Parse a `;`-separated list of dependencies, returning each with the
/// span of its text within `src`. This is the entry point for analyses
/// that want to point diagnostics at the offending constraint.
pub fn parse_dependencies_spanned(
    schema: &Schema,
    src: &str,
) -> Result<Vec<(Dependency, Span)>, ParseError> {
    let mut lex = Lexer::new(src);
    let mut out = Vec::new();
    while !lex.at_end()? {
        out.push(parse_dependency_spanned_from(schema, &mut lex)?);
        if matches!(lex.peek()?, Some(Token::Semi)) {
            lex.next()?;
        }
    }
    Ok(out)
}

/// Parse a `;`-separated list of dependencies, requiring every one to be a
/// tgd.
pub fn parse_tgds(schema: &Schema, src: &str) -> Result<Vec<Tgd>, ParseError> {
    parse_dependencies_spanned(schema, src)?
        .into_iter()
        .map(|(d, span)| match d {
            Dependency::Tgd(t) => Ok(t),
            Dependency::Egd(_) => Err(ParseError::at("expected a tgd, found an egd", span)),
        })
        .collect()
}

/// Parse a single tgd.
pub fn parse_tgd(schema: &Schema, src: &str) -> Result<Tgd, ParseError> {
    match parse_dependency(schema, src)? {
        Dependency::Tgd(t) => Ok(t),
        Dependency::Egd(_) => Err(ParseError::new("expected a tgd, found an egd", 0)),
    }
}

/// Parse a single egd.
pub fn parse_egd(schema: &Schema, src: &str) -> Result<Egd, ParseError> {
    match parse_dependency(schema, src)? {
        Dependency::Egd(e) => Ok(e),
        Dependency::Tgd(_) => Err(ParseError::new("expected an egd, found a tgd", 0)),
    }
}

/// Parse one disjunctive tgd: `premise -> D1 | D2 | …` where each disjunct
/// is `[exists vars .] atoms`.
pub fn parse_disjunctive_tgd(schema: &Schema, src: &str) -> Result<DisjunctiveTgd, ParseError> {
    let mut lex = Lexer::new(src);
    let premise = Conjunction::new(parse_atom_list(schema, &mut lex)?);
    lex.expect(Token::Arrow)?;
    let mut disjuncts = Vec::new();
    loop {
        let existentials = parse_exists_prefix(&mut lex)?;
        let conjunction = Conjunction::new(parse_atom_list(schema, &mut lex)?);
        disjuncts.push(Disjunct {
            existentials,
            conjunction,
        });
        match lex.peek()? {
            Some(Token::Pipe) => {
                lex.next()?;
            }
            _ => break,
        }
    }
    if !lex.at_end()? {
        return Err(ParseError::at(
            "trailing input after disjunctive tgd",
            lex.peek_span()?,
        ));
    }
    Ok(DisjunctiveTgd::new(premise, disjuncts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tgd::Orientation;
    use pde_relational::parse_schema;

    fn schema() -> Schema {
        parse_schema(
            "source E/2; source D/2; source S/2; target H/2; target P/4; \
             source R/1; source B/1; source G/1; target C/2;",
        )
        .unwrap()
    }

    #[test]
    fn parse_full_tgd() {
        let s = schema();
        let t = parse_tgd(&s, "E(x, z), E(z, y) -> H(x, y)").unwrap();
        assert!(t.is_full());
        assert_eq!(t.premise.len(), 2);
        assert!(t.validate(&s, Orientation::SourceToTarget).is_ok());
    }

    #[test]
    fn parse_existential_tgd() {
        let s = schema();
        let t = parse_tgd(&s, "H(x, y) -> exists z . E(x, z), E(z, y)").unwrap();
        assert_eq!(t.existentials.len(), 1);
        assert!(t.validate(&s, Orientation::TargetToSource).is_ok());
        let t2 = parse_tgd(&s, "D(x, y) -> exists z, w . P(x, z, y, w)").unwrap();
        assert_eq!(t2.existentials.len(), 2);
    }

    #[test]
    fn parse_egd_form() {
        let s = schema();
        let e = parse_egd(&s, "P(x, z, y, w), P(x, z2, y2, w2) -> z = z2").unwrap();
        assert!(e.validate(&s).is_ok());
        assert_eq!(e.lhs, Var::new("z"));
        assert_eq!(e.rhs, Var::new("z2"));
    }

    #[test]
    fn kind_mismatch_reported() {
        let s = schema();
        assert!(parse_tgd(&s, "H(x, y), H(x, z) -> y = z").is_err());
        assert!(parse_egd(&s, "E(x, y) -> H(x, y)").is_err());
    }

    #[test]
    fn parse_many_dependencies() {
        let s = schema();
        let ds = parse_dependencies(
            &s,
            "D(x, y) -> exists z, w . P(x, z, y, w);
             P(x, z, y, w) -> E(z, w);
             P(x, z, y, w), P(x, z2, y2, w2) -> S(z, z2)",
        )
        .unwrap();
        assert_eq!(ds.len(), 3);
        assert!(matches!(ds[0], Dependency::Tgd(_)));
        assert!(matches!(ds[2], Dependency::Tgd(_)));
    }

    #[test]
    fn parse_disjunctive() {
        let s = schema();
        let d = parse_disjunctive_tgd(
            &s,
            "C(x, u), C(y, v) -> R(u), B(v) | B(u), G(v) | G(u), R(v)",
        )
        .unwrap();
        assert_eq!(d.disjuncts.len(), 3);
        assert_eq!(d.disjuncts[0].conjunction.len(), 2);
        assert!(d.validate(&s, Orientation::TargetToSource).is_ok());
    }

    #[test]
    fn disjunct_with_exists() {
        let s = schema();
        let d = parse_disjunctive_tgd(&s, "H(x, y) -> exists z . E(x, z) | E(x, y)").unwrap();
        assert_eq!(d.disjuncts.len(), 2);
        assert_eq!(d.disjuncts[0].existentials.len(), 1);
        assert!(d.disjuncts[1].existentials.is_empty());
    }

    #[test]
    fn errors_have_positions() {
        let s = schema();
        let err = parse_tgd(&s, "E(x, y) -> Q(x, y)").unwrap_err();
        assert!(err.message.contains("unknown relation"));
        let err2 = parse_dependency(&s, "E(x, y) -> x = 'c'").unwrap_err();
        assert!(err2.message.contains("constants"));
    }

    #[test]
    fn trailing_semicolon_ok() {
        let s = schema();
        let ds = parse_dependencies(&s, "E(x, y) -> H(x, y);").unwrap();
        assert_eq!(ds.len(), 1);
        let d = parse_dependency(&s, "E(x, y) -> H(x, y);").unwrap();
        assert!(matches!(d, Dependency::Tgd(_)));
    }
}
