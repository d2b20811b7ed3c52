//! Text syntax for schemas, instances, atoms, and conjunctive queries.
//!
//! The grammar is deliberately small and close to the paper's notation:
//!
//! ```text
//! schema   :  ("source" | "target") NAME "/" ARITY ";" ...
//! instance :  E(a, b). E(b, c). H(?0, c).        -- bare terms are constants,
//!                                                -- ?k is labeled null k
//! atoms    :  E(x, y), E(y, z)                   -- bare terms are variables,
//!                                                -- 'a' is the constant a
//! query    :  q(x, z) :- H(x, y), H(y, z)        -- or ":- body" (Boolean)
//! ```
//!
//! The dependency (tgd/egd) parser in the `pde-constraints` crate builds on
//! the [`Lexer`] and atom parser exported here.

use crate::atom::{Atom, Term, Var};
use crate::instance::Instance;
use crate::query::ConjunctiveQuery;
use crate::schema::{Peer, Schema};
use crate::symbol::Symbol;
use crate::tuple::Tuple;
use crate::value::{NullId, Value};
use std::fmt;
use std::fmt::Write as _;
use std::sync::Arc;

/// A half-open byte range `[start, end)` into a source string.
///
/// Spans flow from the lexer through every parse error and (via the
/// dependency parsers in `pde-constraints`) onto parsed constraints, so
/// diagnostics can point at the exact offending text.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Span {
    /// Byte offset of the first byte covered.
    pub start: usize,
    /// Byte offset one past the last byte covered.
    pub end: usize,
}

impl Span {
    /// The span `[start, end)`.
    pub fn new(start: usize, end: usize) -> Span {
        Span { start, end }
    }

    /// An empty span at `at` (used for end-of-input errors).
    pub fn point(at: usize) -> Span {
        Span { start: at, end: at }
    }

    /// The smallest span covering both `self` and `other`.
    pub fn merge(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// 1-based line and column of the span's start within `src`.
    pub fn line_col(&self, src: &str) -> (usize, usize) {
        let upto = &src[..self.start.min(src.len())];
        let line = upto.bytes().filter(|b| *b == b'\n').count() + 1;
        let col = upto
            .rfind('\n')
            .map_or(self.start + 1, |nl| self.start - nl);
        (line, col)
    }

    /// The text the span covers (clamped to `src`).
    pub fn slice<'a>(&self, src: &'a str) -> &'a str {
        &src[self.start.min(src.len())..self.end.min(src.len())]
    }
}

/// A parse error with the span of the offending text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Where in the input the error was detected.
    pub span: Span,
}

impl ParseError {
    /// An error at a single byte offset (empty span).
    pub fn new(message: impl Into<String>, offset: usize) -> ParseError {
        ParseError {
            message: message.into(),
            span: Span::point(offset),
        }
    }

    /// An error covering `span`.
    pub fn at(message: impl Into<String>, span: Span) -> ParseError {
        ParseError {
            message: message.into(),
            span,
        }
    }

    /// Byte offset where the error was detected.
    pub fn offset(&self) -> usize {
        self.span.start
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at byte {}: {}",
            self.span.start, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Lexical tokens of the little language.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Token {
    /// Identifier (relation, variable, or bare constant, by context).
    Ident(String),
    /// Quoted constant: `'abc'` or `"abc"`.
    Quoted(String),
    /// Labeled null literal `?3`.
    NullLit(u32),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Period,
    /// `;`
    Semi,
    /// `/`
    Slash,
    /// `->`
    Arrow,
    /// `=`
    Eq,
    /// `:-`
    ColonDash,
    /// `&` (alternative conjunction separator)
    Amp,
    /// `|` (disjunction separator, for disjunctive tgds)
    Pipe,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Quoted(s) => write!(f, "'{s}'"),
            Token::NullLit(n) => write!(f, "?{n}"),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::Comma => write!(f, ","),
            Token::Period => write!(f, "."),
            Token::Semi => write!(f, ";"),
            Token::Slash => write!(f, "/"),
            Token::Arrow => write!(f, "->"),
            Token::Eq => write!(f, "="),
            Token::ColonDash => write!(f, ":-"),
            Token::Amp => write!(f, "&"),
            Token::Pipe => write!(f, "|"),
            Token::LBracket => write!(f, "["),
            Token::RBracket => write!(f, "]"),
        }
    }
}

/// A peekable lexer over the little language.
pub struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    last_end: usize,
    peeked: Option<Option<(Token, Span)>>,
}

impl<'a> Lexer<'a> {
    /// Lex `src`.
    pub fn new(src: &'a str) -> Lexer<'a> {
        Lexer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            last_end: 0,
            peeked: None,
        }
    }

    /// Current byte offset (for error messages).
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// End offset of the most recently *consumed* token (unaffected by
    /// peeking). Used to close the span of a just-parsed production.
    pub fn last_end(&self) -> usize {
        self.last_end
    }

    fn skip_ws(&mut self) {
        loop {
            while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
                self.pos += 1;
            }
            // Line comments: `# …` and `-- …`.
            if self.pos < self.bytes.len() && self.bytes[self.pos] == b'#'
                || self.pos + 1 < self.bytes.len() && &self.bytes[self.pos..self.pos + 2] == b"--"
            {
                while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\n' {
                    self.pos += 1;
                }
                continue;
            }
            break;
        }
    }

    fn lex_next(&mut self) -> Result<Option<(Token, Span)>, ParseError> {
        self.skip_ws();
        if self.pos >= self.bytes.len() {
            return Ok(None);
        }
        let start = self.pos;
        let b = self.bytes[self.pos];
        let tok = match b {
            b'(' => {
                self.pos += 1;
                Token::LParen
            }
            b')' => {
                self.pos += 1;
                Token::RParen
            }
            b',' => {
                self.pos += 1;
                Token::Comma
            }
            b'.' => {
                self.pos += 1;
                Token::Period
            }
            b';' => {
                self.pos += 1;
                Token::Semi
            }
            b'/' => {
                self.pos += 1;
                Token::Slash
            }
            b'=' => {
                self.pos += 1;
                Token::Eq
            }
            b'&' => {
                self.pos += 1;
                Token::Amp
            }
            b'|' => {
                self.pos += 1;
                Token::Pipe
            }
            b'[' => {
                self.pos += 1;
                Token::LBracket
            }
            b']' => {
                self.pos += 1;
                Token::RBracket
            }
            b'-' => {
                if self.bytes.get(self.pos + 1) == Some(&b'>') {
                    self.pos += 2;
                    Token::Arrow
                } else {
                    return Err(ParseError::new("expected '->'", start));
                }
            }
            b':' => {
                if self.bytes.get(self.pos + 1) == Some(&b'-') {
                    self.pos += 2;
                    Token::ColonDash
                } else {
                    return Err(ParseError::new("expected ':-'", start));
                }
            }
            b'\'' | b'"' => {
                let quote = b;
                self.pos += 1;
                let s = self.pos;
                while self.pos < self.bytes.len() && self.bytes[self.pos] != quote {
                    self.pos += 1;
                }
                if self.pos >= self.bytes.len() {
                    return Err(ParseError::new("unterminated quote", start));
                }
                let text = self.src[s..self.pos].to_owned();
                self.pos += 1;
                Token::Quoted(text)
            }
            b'?' => {
                self.pos += 1;
                let s = self.pos;
                while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_digit() {
                    self.pos += 1;
                }
                if s == self.pos {
                    return Err(ParseError::new("expected digits after '?'", start));
                }
                let n: u32 = self.src[s..self.pos]
                    .parse()
                    .map_err(|_| ParseError::new("null id too large", start))?;
                Token::NullLit(n)
            }
            b if is_ident_byte(b) => {
                let s = self.pos;
                while self.pos < self.bytes.len() && is_ident_byte(self.bytes[self.pos]) {
                    self.pos += 1;
                }
                Token::Ident(self.src[s..self.pos].to_owned())
            }
            other => {
                return Err(ParseError::new(
                    format!("unexpected character {:?}", other as char),
                    start,
                ))
            }
        };
        Ok(Some((tok, Span::new(start, self.pos))))
    }

    /// Peek the next token without consuming it.
    pub fn peek(&mut self) -> Result<Option<&Token>, ParseError> {
        if self.peeked.is_none() {
            self.peeked = Some(self.lex_next()?);
        }
        Ok(self.peeked.as_ref().unwrap().as_ref().map(|(t, _)| t))
    }

    /// Span of the next (peeked) token; an empty span at the current
    /// position when at end of input.
    pub fn peek_span(&mut self) -> Result<Span, ParseError> {
        if self.peeked.is_none() {
            self.peeked = Some(self.lex_next()?);
        }
        Ok(self
            .peeked
            .as_ref()
            .unwrap()
            .as_ref()
            .map_or(Span::point(self.pos), |(_, s)| *s))
    }

    /// Consume and return the next token.
    #[allow(clippy::should_implement_trait)] // fallible lexer step, not Iterator
    pub fn next(&mut self) -> Result<Option<(Token, Span)>, ParseError> {
        let item = match self.peeked.take() {
            Some(p) => p,
            None => self.lex_next()?,
        };
        if let Some((_, span)) = &item {
            self.last_end = span.end;
        }
        Ok(item)
    }

    /// Consume the next token, requiring it to equal `want`.
    pub fn expect(&mut self, want: &Token) -> Result<(), ParseError> {
        match self.next()? {
            Some((t, _)) if t == *want => Ok(()),
            Some((t, span)) => Err(ParseError::at(format!("expected {want}, found {t}"), span)),
            None => Err(ParseError::new(
                format!("expected {want}, found end of input"),
                self.pos,
            )),
        }
    }

    /// Consume an identifier.
    pub fn expect_ident(&mut self) -> Result<(String, Span), ParseError> {
        match self.next()? {
            Some((Token::Ident(s), span)) => Ok((s, span)),
            Some((t, span)) => Err(ParseError::at(format!("expected name, found {t}"), span)),
            None => Err(ParseError::new(
                "expected name, found end of input",
                self.pos,
            )),
        }
    }

    /// Is the input exhausted (ignoring whitespace)?
    pub fn at_end(&mut self) -> Result<bool, ParseError> {
        Ok(self.peek()?.is_none())
    }
}

/// Parse a schema declaration list, e.g. `source E/2; target H/2;`.
/// Semicolons between declarations are optional; a trailing one is allowed.
pub fn parse_schema(src: &str) -> Result<Schema, ParseError> {
    let mut lex = Lexer::new(src);
    let mut schema = Schema::new();
    loop {
        if lex.at_end()? {
            break;
        }
        let (kw, span) = lex.expect_ident()?;
        let peer = match kw.as_str() {
            "source" => Peer::Source,
            "target" => Peer::Target,
            other => {
                return Err(ParseError::at(
                    format!("expected 'source' or 'target', found '{other}'"),
                    span,
                ))
            }
        };
        let (name, nspan) = lex.expect_ident()?;
        if schema.rel_id(name.as_str()).is_some() {
            return Err(ParseError::at(format!("duplicate relation {name}"), nspan));
        }
        lex.expect(&Token::Slash)?;
        let (ar, aspan) = lex.expect_ident()?;
        let arity: u16 = ar
            .parse()
            .map_err(|_| ParseError::at(format!("bad arity '{ar}'"), aspan))?;
        schema.add_relation(name.as_str(), arity, peer);
        if matches!(lex.peek()?, Some(Token::Semi)) {
            lex.next()?;
        }
    }
    Ok(schema)
}

/// Parse one term in *formula* context: bare identifiers are variables,
/// quoted strings are constants. Identifiers starting with `__pde` are
/// reserved for internal use and rejected.
pub fn parse_term(lex: &mut Lexer<'_>) -> Result<Term, ParseError> {
    match lex.next()? {
        Some((Token::Ident(s), span)) => {
            if s.starts_with("__pde") {
                return Err(ParseError::at(
                    "identifiers starting with __pde are reserved",
                    span,
                ));
            }
            Ok(Term::Var(Var::new(s.as_str())))
        }
        Some((Token::Quoted(s), _)) => Ok(Term::Const(Symbol::intern(&s))),
        Some((t, span)) => Err(ParseError::at(format!("expected term, found {t}"), span)),
        None => Err(ParseError::new(
            "expected term, found end of input",
            lex.offset(),
        )),
    }
}

/// Parse one atom `R(t1, …, tk)` in formula context.
pub fn parse_atom(schema: &Schema, lex: &mut Lexer<'_>) -> Result<Atom, ParseError> {
    let (name, span) = lex.expect_ident()?;
    let rel = schema
        .rel_id(name.as_str())
        .ok_or_else(|| ParseError::at(format!("unknown relation {name}"), span))?;
    lex.expect(&Token::LParen)?;
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
    lex.expect(&Token::RParen)?;
    if terms.len() != schema.arity(rel) as usize {
        return Err(ParseError::at(
            format!(
                "relation {name} has arity {}, got {} terms",
                schema.arity(rel),
                terms.len()
            ),
            Span::new(span.start, lex.last_end()),
        ));
    }
    Ok(Atom { rel, terms })
}

/// Parse a conjunction of atoms separated by `,` or `&`.
pub fn parse_atom_list(schema: &Schema, lex: &mut Lexer<'_>) -> Result<Vec<Atom>, ParseError> {
    let mut atoms = vec![parse_atom(schema, lex)?];
    while let Some(Token::Comma | Token::Amp) = lex.peek()? {
        lex.next()?;
        atoms.push(parse_atom(schema, lex)?);
    }
    Ok(atoms)
}

/// Parse a complete atom list from a string (must consume all input).
pub fn parse_atoms(schema: &Schema, src: &str) -> Result<Vec<Atom>, ParseError> {
    let mut lex = Lexer::new(src);
    let atoms = parse_atom_list(schema, &mut lex)?;
    if !lex.at_end()? {
        return Err(ParseError::new("trailing input after atoms", lex.offset()));
    }
    Ok(atoms)
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Does `s` lex as a single identifier token (a non-empty run of ASCII
/// letters, digits and `_`)? Such a constant may be written bare; any other
/// needs quotes.
pub fn is_identifier(s: &str) -> bool {
    !s.is_empty() && s.bytes().all(is_ident_byte)
}

/// Write `inst` in the syntax [`parse_instance`] reads, one `R(v, …).` fact
/// per line: a constant bare when it is an identifier and quoted otherwise
/// (in `"` when it holds a `'`), a null `?n`. Parsing the text gives back the
/// same facts, except for a constant holding both quote characters: the
/// syntax has no escapes, so such a constant has no spelling.
pub fn render_instance(inst: &Instance) -> String {
    let schema = inst.schema();
    let mut out = String::new();
    for (rel, t) in inst.facts() {
        let _ = write!(out, "{}(", schema.name(rel));
        for (i, v) in t.values().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            match v {
                Value::Const(c) => {
                    let s = c.as_str();
                    let quote = if is_identifier(&s) {
                        ""
                    } else if s.contains('\'') {
                        "\""
                    } else {
                        "'"
                    };
                    out.push_str(quote);
                    out.push_str(&s);
                    out.push_str(quote);
                }
                Value::Null(n) => {
                    let _ = write!(out, "?{}", n.0);
                }
            }
        }
        out.push_str(").\n");
    }
    out
}

/// Parse an instance: facts `R(a, b).` where bare identifiers and quoted
/// strings are constants and `?k` is the labeled null `k`. The final period
/// of the last fact is optional.
pub fn parse_instance(schema: &Arc<Schema>, src: &str) -> Result<Instance, ParseError> {
    let mut lex = Lexer::new(src);
    let mut inst = Instance::new(schema.clone());
    while !lex.at_end()? {
        let (name, span) = lex.expect_ident()?;
        let rel = schema
            .rel_id(name.as_str())
            .ok_or_else(|| ParseError::at(format!("unknown relation {name}"), span))?;
        lex.expect(&Token::LParen)?;
        let mut vals: Vec<Value> = Vec::new();
        if !matches!(lex.peek()?, Some(Token::RParen)) {
            loop {
                match lex.next()? {
                    Some((Token::Ident(s), _)) | Some((Token::Quoted(s), _)) => {
                        vals.push(Value::constant(s.as_str()));
                    }
                    Some((Token::NullLit(n), _)) => vals.push(Value::Null(NullId(n))),
                    Some((t, s)) => {
                        return Err(ParseError::at(format!("expected value, found {t}"), s))
                    }
                    None => {
                        return Err(ParseError::new(
                            "expected value, found end of input",
                            lex.offset(),
                        ))
                    }
                }
                match lex.peek()? {
                    Some(Token::Comma) => {
                        lex.next()?;
                    }
                    _ => break,
                }
            }
        }
        lex.expect(&Token::RParen)?;
        if vals.len() != schema.arity(rel) as usize {
            return Err(ParseError::at(
                format!(
                    "relation {name} has arity {}, got {} values",
                    schema.arity(rel),
                    vals.len()
                ),
                Span::new(span.start, lex.last_end()),
            ));
        }
        inst.insert(rel, Tuple::new(vals));
        if matches!(lex.peek()?, Some(Token::Period)) {
            lex.next()?;
        }
    }
    Ok(inst)
}

/// Parse a conjunctive query: `q(x, z) :- H(x, y), H(y, z)`, `:- H(x, y)`
/// (Boolean), or a bare atom list (also Boolean).
pub fn parse_query(schema: &Schema, src: &str) -> Result<ConjunctiveQuery, ParseError> {
    let mut lex = Lexer::new(src);
    let mut head: Vec<Var> = Vec::new();
    let mut has_head = false;
    match lex.peek()? {
        Some(Token::ColonDash) => {
            lex.next()?;
            has_head = true; // Boolean with explicit ":-"
        }
        Some(Token::Ident(name)) if schema.rel_id(name.as_str()).is_none() => {
            // Head predicate (any name not clashing with a relation).
            lex.next()?;
            lex.expect(&Token::LParen)?;
            if !matches!(lex.peek()?, Some(Token::RParen)) {
                loop {
                    match parse_term(&mut lex)? {
                        Term::Var(v) => head.push(v),
                        Term::Const(_) => {
                            return Err(ParseError::new(
                                "constants are not allowed in query heads",
                                lex.offset(),
                            ))
                        }
                    }
                    match lex.peek()? {
                        Some(Token::Comma) => {
                            lex.next()?;
                        }
                        _ => break,
                    }
                }
            }
            lex.expect(&Token::RParen)?;
            lex.expect(&Token::ColonDash)?;
            has_head = true;
        }
        _ => {}
    }
    let _ = has_head;
    let body = parse_atom_list(schema, &mut lex)?;
    if !lex.at_end()? {
        return Err(ParseError::new("trailing input after query", lex.offset()));
    }
    Ok(ConjunctiveQuery::new(head, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Arc<Schema> {
        Arc::new(parse_schema("source E/2; target H/2; target P/4;").unwrap())
    }

    #[test]
    fn schema_roundtrip() {
        let s = schema();
        assert_eq!(s.len(), 3);
        assert_eq!(s.peer(s.rel_id("E").unwrap()), Peer::Source);
        assert_eq!(s.arity(s.rel_id("P").unwrap()), 4);
    }

    #[test]
    fn schema_errors() {
        assert!(parse_schema("middle E/2").is_err());
        assert!(parse_schema("source E/x").is_err());
        assert!(parse_schema("source E/2; source E/3").is_err());
    }

    #[test]
    fn instance_parsing_with_nulls() {
        let s = schema();
        let i = parse_instance(&s, "E(a, b). E(b, c). H(?0, c)").unwrap();
        assert_eq!(i.fact_count(), 3);
        assert!(!i.is_ground());
        assert_eq!(i.nulls().len(), 1);
    }

    #[test]
    fn instance_arity_error() {
        let s = schema();
        assert!(parse_instance(&s, "E(a).").is_err());
        assert!(parse_instance(&s, "Q(a, b).").is_err());
    }

    #[test]
    fn atoms_are_variables_by_default() {
        let s = schema();
        let atoms = parse_atoms(&s, "E(x, y), E(y, z)").unwrap();
        assert_eq!(atoms.len(), 2);
        assert!(atoms[0].terms[0].is_var());
        let atoms2 = parse_atoms(&s, "E(x, 'a')").unwrap();
        assert!(!atoms2[0].terms[1].is_var());
    }

    #[test]
    fn ampersand_conjunction() {
        let s = schema();
        let atoms = parse_atoms(&s, "E(x, y) & H(y, z)").unwrap();
        assert_eq!(atoms.len(), 2);
    }

    #[test]
    fn reserved_prefix_rejected() {
        let s = schema();
        assert!(parse_atoms(&s, "E(__pde_null_0, y)").is_err());
    }

    #[test]
    fn query_with_head() {
        let s = schema();
        let q = parse_query(&s, "q(x, z) :- H(x, y), H(y, z)").unwrap();
        assert_eq!(q.head.len(), 2);
        assert_eq!(q.body.len(), 2);
    }

    #[test]
    fn boolean_query_forms() {
        let s = schema();
        let q1 = parse_query(&s, ":- H(x, y)").unwrap();
        assert!(q1.is_boolean());
        let q2 = parse_query(&s, "H(x, y)").unwrap();
        assert!(q2.is_boolean());
        let q3 = parse_query(&s, "q() :- P(x, x, x, x)").unwrap();
        assert!(q3.is_boolean());
    }

    #[test]
    fn comments_are_skipped() {
        let s = schema();
        let i = parse_instance(&s, "# a comment\nE(a, b). -- another\nE(b, c).").unwrap();
        assert_eq!(i.fact_count(), 2);
    }

    #[test]
    fn error_positions_are_reported() {
        let s = schema();
        let err = parse_atoms(&s, "E(x, y) @ E(y, z)").unwrap_err();
        assert!(err.offset() > 0);
        assert!(format!("{err}").contains("byte"));
    }

    #[test]
    fn error_spans_cover_offending_text() {
        let s = schema();
        let src = "E(x, y), Q(y, z)";
        let err = parse_atoms(&s, src).unwrap_err();
        assert_eq!(err.span.slice(src), "Q");
        let arity_src = "E(x, y, z)";
        let err = parse_atoms(&s, arity_src).unwrap_err();
        assert_eq!(err.span.slice(arity_src), "E(x, y, z)");
    }

    #[test]
    fn span_line_col() {
        let src = "ab\ncd\nef";
        assert_eq!(Span::new(0, 1).line_col(src), (1, 1));
        assert_eq!(Span::new(4, 5).line_col(src), (2, 2));
        assert_eq!(Span::new(6, 8).line_col(src), (3, 1));
        assert_eq!(Span::new(3, 5).merge(Span::new(6, 8)), Span::new(3, 8));
    }
}
