//! The benchmark's JSON output: a value tree for result objects and a
//! string escaper for the streamed trace file.

use std::fmt::Write;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Bool(bool),
    Int(u64),
    /// Non-finite numbers have no JSON form and are written as `null`.
    Num(f64),
    Str(String),
    /// Keys keep insertion order, so output is stable across runs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn write(&self, out: &mut String) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => escape_into(s, out),
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = String::new();
        self.write(&mut s);
        f.write_str(&s)
    }
}

/// Appends `s` as a quoted JSON string.
pub fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_nested_values_in_insertion_order() {
        let v = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Int(1000)),
            (
                "metrics",
                Json::obj([(
                    "latency_p50_ms",
                    Json::obj([("value", Json::Num(1.25)), ("unit", Json::Str("ms".into()))]),
                )]),
            ),
            ("whole", Json::Num(2.0)),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"correct":true,"attempted":1000,"metrics":{"latency_p50_ms":{"value":1.25,"unit":"ms"}},"whole":2}"#
        );
    }

    #[test]
    fn escapes_strings_and_nulls_non_finite_numbers() {
        assert_eq!(
            Json::Str("a\"b\\c\nd\u{1}".into()).to_string(),
            r#""a\"b\\c\nd\u0001""#
        );
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
        // Small values keep every digit and never use exponent notation.
        assert_eq!(Json::Num(1.5e-7).to_string(), "0.00000015");
    }
}
