//! The workspace's one JSON emitter.
//!
//! The `serve-bench` summary line, the registry / SLO / time-series
//! scrapes and the figure tables all go through [`JsonWriter`]: strings
//! (keys included) are escaped per RFC 8259, non-finite numbers become
//! `null` (JSON cannot represent them), and the writer places the commas,
//! so objects and arrays nest to any depth without the caller tracking
//! "first element".  The workspace carries no serialization dependency; a
//! caller spells its shape as a sequence of `key` / value / `begin_*` /
//! `end_*` calls.

use std::fmt::Write;

/// An append-only JSON text builder (see the module docs).
#[derive(Debug, Default)]
pub struct JsonWriter {
    buf: String,
}

impl JsonWriter {
    /// Starts an empty document.
    pub fn new() -> Self {
        JsonWriter::default()
    }

    /// A value needs a leading comma unless it starts the document, is the
    /// first item of its container, or follows its key.  Every other
    /// position ends in a closing quote, bracket, digit or literal.
    fn sep(&mut self) {
        if !matches!(self.buf.as_bytes().last(), None | Some(b'{' | b'[' | b':')) {
            self.buf.push(',');
        }
    }

    fn quoted(&mut self, s: &str) {
        self.buf.push('"');
        for c in s.chars() {
            match c {
                '"' => self.buf.push_str("\\\""),
                '\\' => self.buf.push_str("\\\\"),
                '\n' => self.buf.push_str("\\n"),
                '\r' => self.buf.push_str("\\r"),
                '\t' => self.buf.push_str("\\t"),
                c if (c as u32) < 0x20 => self.buf.push_str(&format!("\\u{:04x}", c as u32)),
                c => self.buf.push(c),
            }
        }
        self.buf.push('"');
    }

    fn literal(&mut self, v: impl std::fmt::Display) -> &mut Self {
        self.sep();
        // Writing to a `String` cannot fail.
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Writes an object key; the next call writes its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.sep();
        self.quoted(key);
        self.buf.push(':');
        self
    }

    /// Opens an object (`{`).
    pub fn begin_object(&mut self) -> &mut Self {
        self.literal('{')
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) -> &mut Self {
        self.buf.push('}');
        self
    }

    /// Opens an array (`[`).
    pub fn begin_array(&mut self) -> &mut Self {
        self.literal('[')
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) -> &mut Self {
        self.buf.push(']');
        self
    }

    /// Writes an escaped, quoted string value.
    pub fn str(&mut self, v: &str) -> &mut Self {
        self.sep();
        self.quoted(v);
        self
    }

    /// Writes an integer value of any primitive width or sign.
    pub fn int(&mut self, v: impl Into<i128>) -> &mut Self {
        self.literal(v.into())
    }

    /// Writes a number in its shortest round-tripping form, or `null` when
    /// it is NaN or infinite.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        if v.is_finite() {
            self.literal(v)
        } else {
            self.literal("null")
        }
    }

    /// Returns the JSON text written so far.
    pub fn finish(self) -> String {
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nests_and_places_commas() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("k").str("v");
        w.key("n").int(7u64).key("g").int(-3i64);
        w.key("empty").begin_object().end_object();
        w.key("rows").begin_array();
        for row in [[1.5, 2.0], [0.25, f64::NAN]] {
            w.begin_array().f64(row[0]).f64(row[1]).end_array();
        }
        w.end_array();
        w.key("o").begin_object().key("x").f64(f64::INFINITY);
        w.end_object().end_object();
        assert_eq!(
            w.finish(),
            "{\"k\":\"v\",\"n\":7,\"g\":-3,\"empty\":{},\
             \"rows\":[[1.5,2],[0.25,null]],\"o\":{\"x\":null}}"
        );
    }

    #[test]
    fn strings_and_keys_are_escaped() {
        let mut w = JsonWriter::new();
        w.begin_object().key("a\"b");
        w.str("c\\d\ne\u{1}:").end_object();
        assert_eq!(w.finish(), "{\"a\\\"b\":\"c\\\\d\\ne\\u0001:\"}");
        let mut w = JsonWriter::new();
        w.begin_array().str("контроль").str("[");
        w.str("x").end_array();
        assert_eq!(w.finish(), "[\"контроль\",\"[\",\"x\"]");
    }
}
