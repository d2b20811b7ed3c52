//! Span records and their JSON form.

use crate::json_escape;
use std::fmt::Write as _;

/// A structured field value attached to a span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FieldValue {
    /// An unsigned counter-like value (indices, sizes, rounds).
    U64(u64),
    /// A short string (solver kinds, engine names, outcomes).
    Str(String),
}

/// One completed span, as delivered to a [`crate::Sink`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Dot-separated phase name (`chase.round`, `block.hom_search`, …).
    pub name: &'static str,
    /// Process-wide monotone sequence number (a stable ordering key for
    /// golden tests once durations are scrubbed).
    pub seq: u64,
    /// Wall-clock duration of the span in nanoseconds.
    pub dur_ns: u64,
    /// Duration minus time spent in same-thread child spans.
    pub self_ns: u64,
    /// Structured fields, in attachment order.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl SpanRecord {
    /// Render as a single JSON object (one JSONL line, no trailing
    /// newline). Fields appear under a `"fields"` object in attachment
    /// order, so they can never collide with the fixed keys.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.fields.len() * 16);
        let _ = write!(
            out,
            "{{\"v\":{},\"span\":{},\"seq\":{},\"dur_ns\":{},\"self_ns\":{},\"fields\":{{",
            crate::REPORT_VERSION,
            json_escape(self.name),
            self.seq,
            self.dur_ns,
            self.self_ns
        );
        for (i, (key, value)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:", json_escape(key));
            match value {
                FieldValue::U64(n) => {
                    let _ = write!(out, "{n}");
                }
                FieldValue::Str(s) => out.push_str(&json_escape(s)),
            }
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_record_json_shape() {
        let r = SpanRecord {
            name: "chase.round",
            seq: 4,
            dur_ns: 1200,
            self_ns: 1000,
            fields: vec![
                ("round", FieldValue::U64(2)),
                ("engine", FieldValue::Str("seminaive".into())),
            ],
        };
        assert_eq!(
            r.to_json(),
            "{\"v\":1,\"span\":\"chase.round\",\"seq\":4,\"dur_ns\":1200,\"self_ns\":1000,\
             \"fields\":{\"round\":2,\"engine\":\"seminaive\"}}"
        );
    }
}
