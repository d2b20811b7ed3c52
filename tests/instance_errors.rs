//! Golden table of instance-text load errors.
//!
//! Each malformed instance text is parsed twice: alone by
//! `parse_instance`, and as the `%instance` section of a bundle by
//! `Bundle::parse`. The table pins the error message and span of the
//! first, the display of the second, and the 1-based file line and column
//! the bundle's line map gives the error offset. The loader may change how
//! it lexes and stores facts; none of these may move.

use pde_core::{split_sections, Bundle};
use pde_relational::{parse_instance, parse_schema};
use std::sync::Arc;

const SCHEMA: &str = "source E/2; target H/2;";

/// One malformed text and everything its error must print.
struct Case {
    text: &'static str,
    message: &'static str,
    span: (usize, usize),
    bundle: &'static str,
    line_col: (usize, usize),
}

fn bundle_of(text: &str) -> String {
    format!("%schema\n{SCHEMA}\n%st\n%instance\n{text}\n")
}

const CASES: &[Case] = &[
    // unknown relation
    Case {
        text: "E(a, b). Q(a, b).",
        message: "unknown relation Q",
        span: (9, 10),
        bundle: "instance: parse error at byte 9: unknown relation Q",
        line_col: (5, 10),
    },
    // wrong arity, too few and too many values
    Case {
        text: "E(a, b).\nE(a).",
        message: "relation E has arity 2, got 1 values",
        span: (9, 13),
        bundle: "instance: parse error at byte 9: relation E has arity 2, got 1 values",
        line_col: (6, 1),
    },
    Case {
        text: "H(a, b, c)",
        message: "relation H has arity 2, got 3 values",
        span: (0, 10),
        bundle: "instance: parse error at byte 0: relation H has arity 2, got 3 values",
        line_col: (5, 1),
    },
    // unterminated quote, both quote characters
    Case {
        text: "E(a, 'b).",
        message: "unterminated quote",
        span: (5, 5),
        bundle: "instance: parse error at byte 5: unterminated quote",
        line_col: (5, 6),
    },
    Case {
        text: "E(a, b).\nE(\"it's, c).",
        message: "unterminated quote",
        span: (11, 11),
        bundle: "instance: parse error at byte 11: unterminated quote",
        line_col: (6, 3),
    },
    // `?` without digits
    Case {
        text: "E(a, ?).",
        message: "expected digits after '?'",
        span: (5, 5),
        bundle: "instance: parse error at byte 5: expected digits after '?'",
        line_col: (5, 6),
    },
    // `?` too large for a null id
    Case {
        text: "E(a, ?99999999999).",
        message: "null id too large",
        span: (5, 5),
        bundle: "instance: parse error at byte 5: null id too large",
        line_col: (5, 6),
    },
    // a lone `-`
    Case {
        text: "E(a, -b).",
        message: "expected '->'",
        span: (5, 5),
        bundle: "instance: parse error at byte 5: expected '->'",
        line_col: (5, 6),
    },
    // stray characters, between facts and inside one
    Case {
        text: "E(a, b) @ E(b, c).",
        message: "unexpected character '@'",
        span: (8, 8),
        bundle: "instance: parse error at byte 8: unexpected character '@'",
        line_col: (5, 9),
    },
    Case {
        text: "E(a, b%).",
        message: "unexpected character '%'",
        span: (6, 6),
        bundle: "instance: parse error at byte 6: unexpected character '%'",
        line_col: (5, 7),
    },
    // a token where a value belongs
    Case {
        text: "E(a, ;).",
        message: "expected value, found ;",
        span: (5, 6),
        bundle: "instance: parse error at byte 5: expected value, found ;",
        line_col: (5, 6),
    },
    // a missing `)` and a missing `(`
    Case {
        text: "E(a, b. E(b, c).",
        message: "expected ), found .",
        span: (6, 7),
        bundle: "instance: parse error at byte 6: expected ), found .",
        line_col: (5, 7),
    },
    Case {
        text: "E a, b).",
        message: "expected (, found a",
        span: (2, 3),
        bundle: "instance: parse error at byte 2: expected (, found a",
        line_col: (5, 3),
    },
    // a fact that does not start with a name
    Case {
        text: "E(a, b). ?1(a, b).",
        message: "expected name, found ?1",
        span: (9, 11),
        bundle: "instance: parse error at byte 9: expected name, found ?1",
        line_col: (5, 10),
    },
    Case {
        text: "'E'(a, b).",
        message: "expected name, found 'E'",
        span: (0, 3),
        bundle: "instance: parse error at byte 0: expected name, found 'E'",
        line_col: (5, 1),
    },
    // end of input mid-fact (the section text ends in a newline, so an
    // offset at its end maps to column 1 of its last line)
    Case {
        text: "E(a, b). E",
        message: "expected (, found end of input",
        span: (10, 10),
        bundle: "instance: parse error at byte 11: expected (, found end of input",
        line_col: (5, 1),
    },
    Case {
        text: "E(a, b). E(a,",
        message: "expected value, found end of input",
        span: (13, 13),
        bundle: "instance: parse error at byte 14: expected value, found end of input",
        line_col: (5, 1),
    },
    Case {
        text: "E(a, b). E(a, b",
        message: "expected ), found end of input",
        span: (15, 15),
        bundle: "instance: parse error at byte 16: expected ), found end of input",
        line_col: (5, 1),
    },
    // `#` and `--` comments before the error: the bundle drops `#` lines
    // from the section text, the lexer skips both kinds
    Case {
        text: "# header\nE(a, b). -- trailing\n-- own line\nE(a, b, c).",
        message: "relation E has arity 2, got 3 values",
        span: (42, 52),
        bundle: "instance: parse error at byte 33: relation E has arity 2, got 3 values",
        line_col: (8, 1),
    },
    Case {
        text: "-- lead\n# hash\n  E(a, b). # after\n  Q(a).",
        message: "unknown relation Q",
        span: (36, 37),
        bundle: "instance: parse error at byte 29: unknown relation Q",
        line_col: (8, 3),
    },
];

#[test]
fn malformed_instance_texts_keep_their_errors() {
    let schema = Arc::new(parse_schema(SCHEMA).unwrap());
    for case in CASES {
        let err = parse_instance(&schema, case.text).expect_err(case.text);
        assert_eq!(err.message, case.message, "message of {:?}", case.text);
        assert_eq!(
            (err.span.start, err.span.end),
            case.span,
            "span of {:?}",
            case.text
        );
        let src = bundle_of(case.text);
        let bundle_err = Bundle::parse(&src).err().expect(case.text).to_string();
        assert_eq!(bundle_err, case.bundle, "bundle display of {:?}", case.text);
        let section = split_sections(&src).unwrap().instance;
        let section_err = parse_instance(&schema, &section.text).expect_err(case.text);
        assert_eq!(
            section.file_line_col(section_err.offset()),
            case.line_col,
            "file position of {:?}",
            case.text
        );
    }
}
