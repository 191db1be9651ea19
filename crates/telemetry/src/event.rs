//! The structured event model and its JSONL line codec.

use crate::Value;
use rlmul_obs::json::{parse_object, JsonBuilder, JsonObject};
use std::error::Error;
use std::fmt;

/// One structured telemetry record: a kind tag plus ordered fields.
///
/// Field order is preserved through serialization, so seeded runs
/// produce byte-identical logs (timestamps and timings excepted).
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    kind: String,
    fields: JsonObject,
}

impl Event {
    /// A new event of the given kind (serialized as the `"ev"` key).
    pub fn new(kind: &str) -> Self {
        Event { kind: kind.to_owned(), fields: JsonObject::default() }
    }

    /// Builder-style field append.
    #[must_use]
    pub fn with<V: Into<Value>>(mut self, key: &str, value: V) -> Self {
        self.fields.push(key, value);
        self
    }

    /// Appends a field in place.
    pub fn push<V: Into<Value>>(&mut self, key: &str, value: V) {
        self.fields.push(key, value);
    }

    /// The event kind.
    pub fn kind(&self) -> &str {
        &self.kind
    }

    /// The ordered fields.
    pub fn fields(&self) -> &[(String, Value)] {
        self.fields.fields()
    }

    /// The value stored under `key`, if any.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.fields.get(key)
    }

    /// Numeric coercion of the value under `key`: any integer or
    /// float field reads as `f64`.
    pub fn get_f64(&self, key: &str) -> Option<f64> {
        self.fields.get_f64(key)
    }

    /// Unsigned coercion of the value under `key`.
    pub fn get_u64(&self, key: &str) -> Option<u64> {
        self.fields.get_u64(key)
    }

    /// String field under `key`.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.fields.get_str(key)
    }

    /// Serializes this event as one JSONL line (no trailing newline):
    /// `"ev"` first, then every field in insertion order.
    pub fn to_json(&self) -> String {
        self.fields.render_into(JsonBuilder::new().str("ev", &self.kind)).build()
    }

    /// Parses a JSONL line into an event. The `"ev"` key may appear
    /// anywhere; a `null` value reads back as a NaN float.
    ///
    /// # Errors
    ///
    /// Returns [`TelemetryError::Parse`] for anything that is not a
    /// flat JSON object with a string `"ev"` key.
    pub fn parse_json(line: &str) -> Result<Event, TelemetryError> {
        let error = |what: String| TelemetryError::Parse { what };
        let mut kind = None;
        let mut fields = JsonObject::default();
        for (key, value) in parse_object(line.as_bytes()).map_err(error)?.into_fields() {
            match (key.as_str(), value) {
                ("ev", Value::Str(s)) => kind = Some(s),
                ("ev", other) => {
                    return Err(error(format!("\"ev\" must be a string, found {other:?}")))
                }
                (_, Value::Raw(_)) => return Err(error("nested containers are not events".into())),
                (_, Value::Null) => fields.push(&key, f64::NAN),
                (_, value) => fields.push(&key, value),
            }
        }
        let kind = kind.ok_or_else(|| error("missing \"ev\" key".into()))?;
        Ok(Event { kind, fields })
    }
}

/// Telemetry decoding failures.
#[derive(Debug)]
#[non_exhaustive]
pub enum TelemetryError {
    /// A line is not a well-formed flat JSON event object.
    Parse {
        /// Human-readable description.
        what: String,
    },
}

impl fmt::Display for TelemetryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TelemetryError::Parse { what } => write!(f, "telemetry parse: {what}"),
        }
    }
}

impl Error for TelemetryError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_round_trips() {
        let e = Event::new("episode")
            .with("step", 17u64)
            .with("reward", -0.125f64)
            .with("method", "dqn")
            .with("hit", true)
            .with("delta", -3i64);
        let line = e.to_json();
        assert!(!line.contains('\n'));
        let back = Event::parse_json(&line).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn escapes_round_trip() {
        let e = Event::new("note").with("text", "a \"quoted\"\\path\nwith\tcontrol\u{1}");
        let back = Event::parse_json(&e.to_json()).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn integers_and_floats_keep_their_type() {
        let line = r#"{"ev":"x","a":3,"b":3.5,"c":-2,"d":1e-3}"#;
        let e = Event::parse_json(line).unwrap();
        assert_eq!(e.get("a"), Some(&Value::U64(3)));
        assert_eq!(e.get("b"), Some(&Value::F64(3.5)));
        assert_eq!(e.get("c"), Some(&Value::I64(-2)));
        assert_eq!(e.get("d"), Some(&Value::F64(1e-3)));
    }

    #[test]
    fn whole_valued_floats_stay_floats() {
        let e = Event::new("x").with("v", 1.0f64).with("w", -2.0f64);
        let line = e.to_json();
        let back = Event::parse_json(&line).unwrap();
        assert_eq!(back, e, "{line}");
    }

    #[test]
    fn non_finite_floats_degrade_to_null() {
        let e = Event::new("x").with("inf", f64::INFINITY);
        let line = e.to_json();
        assert!(line.contains("null"), "{line}");
        let back = Event::parse_json(&line).unwrap();
        assert!(back.get_f64("inf").unwrap().is_nan());
    }

    #[test]
    fn malformed_lines_are_errors() {
        for bad in [
            "",
            "{",
            "{}",                        // no "ev"
            r#"{"ev":1}"#,               // non-string kind
            r#"{"ev":"x","a":[1,2]}"#,   // nested
            r#"{"ev":"x","a":{"b":1}}"#, // nested
            r#"{"ev":"x"} trailing"#,
            r#"{"ev":"x","a":}"#,
            r#"{"ev":"x","a":1,"a":2}"#, // duplicate key
        ] {
            assert!(Event::parse_json(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn whitespace_is_tolerated() {
        let e = Event::parse_json(" { \"ev\" : \"x\" , \"n\" : 4 } ").unwrap();
        assert_eq!(e.kind(), "x");
        assert_eq!(e.get_u64("n"), Some(4));
    }
}
