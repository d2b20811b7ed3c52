//! The workspace's one JSON codec: the [`Json`] value, its writer and its
//! reader.
//!
//! Every producer — span records, metrics, run reports, lint output, the
//! plan, rewrite and termination certificates, and `pde serve`'s lines —
//! builds a [`Json`] value and prints it with `Display`, which writes
//! compact JSON. Every consumer — the certificate loaders and `pde
//! serve`'s request decoder — parses through [`parse`]. The reader sits on
//! a trust boundary, so it is built to survive hostile input: nesting is
//! bounded by [`MAX_DEPTH`] instead of by the stack, strings are copied
//! run by run, and repeated object keys are caught with a set of the keys
//! seen, so parsing stays linear in the input.
//!
//! Numbers are restricted to the unsigned integers the formats use; `-`,
//! fractions and exponents are rejected.

use std::collections::HashSet;
use std::fmt::{self, Write as _};

/// Deepest array/object nesting [`parse`] accepts. The deepest real
/// certificate nests about 6 levels.
pub const MAX_DEPTH: usize = 128;

/// Write `s` as a JSON string literal: short escapes for `"`, `\`, `\n`,
/// `\r`, `\t`, `\u00xx` for other controls, everything else as is. All
/// escaped characters are ASCII, so the runs between them are slices.
fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    let mut run = 0;
    for (at, byte) in s.bytes().enumerate() {
        let short = match byte {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0..=0x1f => None,
            _ => continue,
        };
        f.write_str(&s[run..at])?;
        match short {
            Some(escape) => f.write_str(escape)?,
            None => write!(f, "\\u{byte:04x}")?,
        }
        run = at + 1;
    }
    f.write_str(&s[run..])?;
    f.write_char('"')
}

/// A JSON value: what [`parse`] returns and what every producer builds
/// and prints with `Display` (compact, no whitespace).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer.
    Num(u128),
    /// A string, with escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object's fields, in document order. [`parse`] rejects a
    /// repeated key; producers write each key once.
    Obj(Vec<(String, Json)>),
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => write!(f, "{n}"),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    item.fmt(f)?;
                }
                f.write_char(']')
            }
            Json::Obj(fields) => {
                f.write_char('{')?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write_escaped(f, key)?;
                    f.write_char(':')?;
                    value.fmt(f)?;
                }
                f.write_char('}')
            }
        }
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

macro_rules! from_unsigned {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                // Lossless: u128 holds every unsigned width in use.
                Json::Num(n as u128)
            }
        }
    )*};
}

from_unsigned!(u32, u64, usize);

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl From<&String> for Json {
    fn from(s: &String) -> Json {
        Json::Str(s.clone())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// Collects an array.
impl FromIterator<Json> for Json {
    fn from_iter<I: IntoIterator<Item = Json>>(items: I) -> Json {
        Json::Arr(items.into_iter().collect())
    }
}

/// Collects an object, fields in iteration order.
impl<K: Into<String>> FromIterator<(K, Json)> for Json {
    fn from_iter<I: IntoIterator<Item = (K, Json)>>(fields: I) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
}

impl Json {
    /// The fields of an object; `what` names the value in the error.
    pub fn as_obj<'a>(&'a self, what: &str) -> Result<&'a [(String, Json)], String> {
        match self {
            Json::Obj(fields) => Ok(fields),
            _ => Err(format!("{what} must be an object")),
        }
    }

    /// The array under `key` of an object.
    pub fn get_arr<'a>(&'a self, key: &str) -> Result<&'a [Json], String> {
        let field = match self {
            Json::Obj(fields) => fields.try_get(key),
            _ => None,
        };
        match field {
            Some(Json::Arr(items)) => Ok(items),
            _ => Err(format!("missing array field '{key}'")),
        }
    }

    /// The items of an array of strings; `what` names the value in the
    /// error.
    pub fn as_strings(&self, what: &str) -> Result<Vec<String>, String> {
        let err = || format!("{what} must be an array of strings");
        let Json::Arr(items) = self else {
            return Err(err());
        };
        items
            .iter()
            .map(|v| match v {
                Json::Str(s) => Ok(s.clone()),
                _ => Err(err()),
            })
            .collect()
    }
}

/// Typed field accessors on an object's field list.
pub trait ObjExt {
    /// The field named `key`, if any.
    fn try_get(&self, key: &str) -> Option<&Json>;
    /// The field named `key`.
    fn field_of(&self, key: &str) -> Result<&Json, String>;
    /// A string field.
    fn get_str(&self, key: &str) -> Result<String, String>;
    /// A boolean field.
    fn get_bool(&self, key: &str) -> Result<bool, String>;
    /// An unsigned-integer field, saturated to `usize`.
    fn get_num(&self, key: &str) -> Result<usize, String>;
}

impl ObjExt for [(String, Json)] {
    fn try_get(&self, key: &str) -> Option<&Json> {
        self.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn field_of(&self, key: &str) -> Result<&Json, String> {
        self.try_get(key)
            .ok_or_else(|| format!("missing field '{key}'"))
    }

    fn get_str(&self, key: &str) -> Result<String, String> {
        match self.field_of(key)? {
            Json::Str(s) => Ok(s.clone()),
            _ => Err(format!("field '{key}' must be a string")),
        }
    }

    fn get_bool(&self, key: &str) -> Result<bool, String> {
        match self.field_of(key)? {
            Json::Bool(b) => Ok(*b),
            _ => Err(format!("field '{key}' must be a boolean")),
        }
    }

    fn get_num(&self, key: &str) -> Result<usize, String> {
        match self.field_of(key)? {
            Json::Num(n) => Ok(usize::try_from(*n).unwrap_or(usize::MAX)),
            _ => Err(format!("field '{key}' must be an unsigned integer")),
        }
    }
}

/// Parse one JSON document. Whitespace is JSON's four bytes (space, tab,
/// newline, carriage return); anything after the value is an error.
pub fn parse(src: &str) -> Result<Json, String> {
    document(src, |r| r.value(0))
}

/// Parse one JSON document that must be an object (a `pde serve` request
/// line), returning its fields. Anything else fails at its first byte
/// with "expected '{'".
pub fn parse_object(src: &str) -> Result<Vec<(String, Json)>, String> {
    document(src, |r| {
        r.expect(b'{')?;
        r.object(1)
    })
}

fn document<T>(src: &str, top: impl FnOnce(&mut Reader) -> Result<T, String>) -> Result<T, String> {
    let mut r = Reader { src, at: 0 };
    let v = top(&mut r)?;
    r.skip_ws();
    if r.at != src.len() {
        return Err(format!("trailing content at byte {}", r.at));
    }
    Ok(v)
}

struct Reader<'a> {
    src: &'a str,
    at: usize,
}

impl Reader<'_> {
    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.at).copied()
    }

    fn rest(&self) -> &[u8] {
        &self.src.as_bytes()[self.at..]
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        self.skip_ws();
        if self.peek() == Some(c) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.at))
        }
    }

    /// One value inside `depth` enclosing arrays and objects.
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        self.skip_ws();
        if matches!(self.peek(), Some(b'{' | b'[')) && depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.at
            ));
        }
        match self.peek() {
            Some(b'{') => {
                self.at += 1;
                self.object(depth + 1).map(Json::Obj)
            }
            Some(b'[') => {
                self.at += 1;
                self.array(depth + 1).map(Json::Arr)
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') if self.rest().starts_with(b"true") => {
                self.at += 4;
                Ok(Json::Bool(true))
            }
            Some(b'f') if self.rest().starts_with(b"false") => {
                self.at += 5;
                Ok(Json::Bool(false))
            }
            Some(b'n') if self.rest().starts_with(b"null") => {
                self.at += 4;
                Ok(Json::Null)
            }
            Some(c) if c.is_ascii_digit() => {
                let start = self.at;
                while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                    self.at += 1;
                }
                self.src[start..self.at]
                    .parse::<u128>()
                    .map(Json::Num)
                    .map_err(|_| format!("number out of range at byte {start}"))
            }
            _ => Err(format!("unexpected input at byte {}", self.at)),
        }
    }

    /// An object's fields, after its `{`; `depth` counts the object. A
    /// repeated key is an error, found with a set of the keys seen.
    fn object(&mut self, depth: usize) -> Result<Vec<(String, Json)>, String> {
        let mut fields = Vec::new();
        let mut seen = HashSet::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(fields);
        }
        loop {
            self.skip_ws();
            let at = self.at;
            let key = self.string()?;
            if !seen.insert(key.clone()) {
                return Err(format!("duplicate key '{key}' at byte {at}"));
            }
            self.expect(b':')?;
            fields.push((key, self.value(depth)?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(fields);
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.at)),
            }
        }
    }

    /// An array's items, after its `[`; `depth` counts the array.
    fn array(&mut self, depth: usize) -> Result<Vec<Json>, String> {
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(items);
        }
        loop {
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(items);
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.at)),
            }
        }
    }

    /// A string literal. Each maximal run of bytes other than `"` and `\`
    /// is copied as one slice: both delimiters are ASCII, so every run
    /// boundary is a char boundary of the `&str` input.
    fn string(&mut self) -> Result<String, String> {
        if self.peek() != Some(b'"') {
            return Err(format!("expected string at byte {}", self.at));
        }
        self.at += 1;
        let mut out = String::new();
        loop {
            let run = self
                .rest()
                .iter()
                .position(|&c| c == b'"' || c == b'\\')
                .ok_or("unterminated string")?;
            out.push_str(&self.src[self.at..self.at + run]);
            self.at += run;
            if self.peek() == Some(b'"') {
                self.at += 1;
                return Ok(out);
            }
            let esc = self.src.as_bytes().get(self.at + 1).copied();
            self.at += 2;
            out.push(match esc {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => self.unicode_escape()?,
                _ => return Err(format!("bad escape at byte {}", self.at - 1)),
            });
        }
    }

    /// The scalar of a `\uXXXX` escape whose hex digits start at `at`,
    /// joining a high-surrogate escape with the low-surrogate escape that
    /// must follow it.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let hi = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&hi) {
            if !self.rest().starts_with(b"\\u") {
                return Err("bad \\u code point".into());
            }
            self.at += 2;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err("bad \\u code point".into());
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        char::from_u32(code).ok_or_else(|| "bad \\u code point".into())
    }

    /// Four hex digits at `at`; leaves `at` after them.
    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self.rest().get(..4).ok_or("truncated \\u escape")?;
        if !hex.iter().all(u8::is_ascii_hexdigit) {
            return Err("bad \\u escape".into());
        }
        let code = hex
            .iter()
            .fold(0, |n, &d| n * 16 + char::from(d).to_digit(16).unwrap_or(0));
        self.at += 4;
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(src: &str) -> Result<Json, String> {
        parse(src)
    }

    fn text(s: &str) -> String {
        Json::Str(s.into()).to_string()
    }

    #[test]
    fn escaping_covers_controls_and_quotes() {
        assert_eq!(text("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(text("Σt"), "\"Σt\"");
        assert_eq!(text("\u{1}"), "\"\\u0001\"");
        assert_eq!(text("\r\t\u{1f}/\u{7f}"), "\"\\r\\t\\u001f/\u{7f}\"");
        assert_eq!(text(""), "\"\"");
    }

    #[test]
    fn repeated_keys_are_rejected_with_their_offset() {
        assert_eq!(
            s(r#"{"op":"solve","op":"shutdown"}"#).unwrap_err(),
            "duplicate key 'op' at byte 14"
        );
        // Keys compare after unescaping, at any depth.
        assert_eq!(
            s(r#"[{"a":{"x":1," x":2,"\u0078":3}}]"#).unwrap_err(),
            "duplicate key 'x' at byte 20"
        );
        assert!(parse_object(r#"{"op":1,"OP":2,"o p":3}"#).is_ok());
    }

    #[test]
    fn parses_every_value_kind() {
        let v = s(r#" {"a":[1,true,false,null,"x"],"b":{}} "#).unwrap();
        assert_eq!(
            v,
            Json::Obj(vec![
                (
                    "a".into(),
                    Json::Arr(vec![
                        Json::Num(1),
                        Json::Bool(true),
                        Json::Bool(false),
                        Json::Null,
                        Json::Str("x".into()),
                    ])
                ),
                ("b".into(), Json::Obj(vec![])),
            ])
        );
        let obj = v.as_obj("root").unwrap();
        assert_eq!(v.get_arr("a").unwrap().len(), 5);
        assert_eq!(
            obj.get_num("b").unwrap_err(),
            "field 'b' must be an unsigned integer"
        );
        assert_eq!(obj.field_of("c").unwrap_err(), "missing field 'c'");
        for key in ["a", "b"] {
            let err = obj.field_of(key).unwrap().as_strings(key).unwrap_err();
            assert_eq!(err, format!("{key} must be an array of strings"));
        }
        assert_eq!(
            s(r#"["x",""]"#).unwrap().as_strings("x").unwrap(),
            ["x", ""]
        );
        assert!(s("[]").unwrap().as_strings("x").unwrap().is_empty());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\"}",
            "{\"a\":1,}",
            "-1",
            "1.5",
            "[1] x",
            "\"ab",
            "tru",
            "{1:2}",
            "\"\\q\"",
        ] {
            assert!(s(bad).is_err(), "{bad:?} parsed");
        }
        // Only JSON's four whitespace bytes separate tokens.
        assert!(s("[1,\u{c}2]").is_err());
        assert!(s(" [1,\t2]\r\n").is_ok());
    }

    #[test]
    fn parse_object_requires_an_object() {
        assert_eq!(
            parse_object(r#" {"op":"solve"}"#).unwrap(),
            vec![("op".into(), Json::Str("solve".into()))]
        );
        assert_eq!(parse_object("nope").unwrap_err(), "expected '{' at byte 0");
        assert_eq!(parse_object(" [1]").unwrap_err(), "expected '{' at byte 1");
        assert!(parse_object("{} {}").is_err());
        let deep = format!("{{\"a\":{}", "[".repeat(MAX_DEPTH));
        assert!(parse_object(&deep).unwrap_err().contains("nesting"));
    }

    #[test]
    fn nesting_is_bounded_not_recursive() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(s(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = s(&deep).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        // Far past the bound the reader still answers instead of
        // overflowing the stack.
        let hostile = "{\"a\":".repeat(1_000_000);
        assert!(s(&hostile).unwrap_err().contains("nesting"));
    }

    #[test]
    fn strings_decode_escapes_and_keep_raw_utf8() {
        assert_eq!(
            s(r#""a\"b\\c\/d\ne\rf\tg\u00e9 Σ😀""#).unwrap(),
            Json::Str("a\"b\\c/d\ne\rf\tgé Σ😀".into())
        );
        let long = "é".repeat(1 << 20);
        assert_eq!(s(&text(&long)).unwrap(), Json::Str(long));
    }

    #[test]
    fn surrogate_pairs_join_and_lone_surrogates_fail() {
        assert_eq!(s(r#""\ud83d\ude00""#).unwrap(), Json::Str("😀".into()));
        assert_eq!(s(r#""\uD83D\uDE00x""#).unwrap(), Json::Str("😀x".into()));
        for bad in [
            r#""\ud83d""#,       // lone high
            r#""\ud83dx""#,      // high, then no escape
            r#""\ude00""#,       // lone low
            r#""\ude00\ud83d""#, // reversed
            r#""\ud83d\u0041""#, // high, then a non-surrogate
            r#""\ud83d\ud83d""#, // high, then high
            r#""\ud83d\ude0""#,  // truncated low
            r#""\ud83d\"#,       // truncated after the high
            r#""\u+123""#,       // not hex
        ] {
            assert!(s(bad).is_err(), "{bad} parsed");
        }
    }
}
