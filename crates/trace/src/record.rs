//! Span records and their JSON form.

use crate::json::Json;

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
    /// The span as one JSON object (printed, one JSONL line). Fields
    /// appear under a `"fields"` object in attachment order, so they can
    /// never collide with the fixed keys.
    pub fn to_json(&self) -> Json {
        let fields = self.fields.iter().map(|(key, value)| {
            let value = match value {
                FieldValue::U64(n) => Json::from(*n),
                FieldValue::Str(s) => Json::from(s),
            };
            (*key, value)
        });
        Json::from_iter([
            ("v", crate::REPORT_VERSION.into()),
            ("span", self.name.into()),
            ("seq", self.seq.into()),
            ("dur_ns", self.dur_ns.into()),
            ("self_ns", self.self_ns.into()),
            ("fields", fields.collect()),
        ])
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
            r.to_json().to_string(),
            "{\"v\":1,\"span\":\"chase.round\",\"seq\":4,\"dur_ns\":1200,\"self_ns\":1000,\
             \"fields\":{\"round\":2,\"engine\":\"seminaive\"}}"
        );
    }
}
