//! Canonical JSON for every report document in the workspace:
//! hand-rolled, dependency-free, and byte-deterministic.
//!
//! [`JsonWriter`] builds one document into a single `String`; the scalar
//! rules it applies ([`fmt_f64`], [`json_string`]) are also what the
//! Perfetto exporters use per event. A report type exposes a
//! `write_json(&self, &mut JsonWriter)` that writes its value, so nested
//! reports land in their parent's buffer and the separators, escaping and
//! float format live in this module only.
//!
//! ```
//! use recross_obs::JsonWriter;
//!
//! let doc = JsonWriter::object(|w| {
//!     w.field("arch", "Re\"Cross").field("load", 1.0);
//!     w.field("p99", f64::NAN).key("dram").null();
//!     w.key("depth").arr(|w| {
//!         w.value(3u64).value(true).obj(|_| {}).arr(|_| {});
//!     });
//! });
//! assert_eq!(
//!     doc,
//!     r#"{"arch":"Re\"Cross","load":1.0,"p99":null,"dram":null,"depth":[3,true,{},[]]}"#
//! );
//! ```

use std::fmt::Write;

/// A Rust value that [`JsonWriter`] writes as one JSON scalar: unsigned
/// integers as decimals, floats through [`fmt_f64`], strings through
/// [`json_string`]'s escapes.
pub trait JsonScalar {
    /// Appends the value's JSON text to `out`.
    fn write_to(&self, out: &mut String);
}

macro_rules! integer_scalars {
    ($($t:ty),*) => {$(
        impl JsonScalar for $t {
            fn write_to(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
integer_scalars!(u32, u64, usize);

impl JsonScalar for f64 {
    fn write_to(&self, out: &mut String) {
        out.push_str(&fmt_f64(*self));
    }
}

impl JsonScalar for bool {
    fn write_to(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl JsonScalar for str {
    fn write_to(&self, out: &mut String) {
        push_string(out, self);
    }
}

impl JsonScalar for String {
    fn write_to(&self, out: &mut String) {
        push_string(out, self);
    }
}

impl<T: JsonScalar + ?Sized> JsonScalar for &T {
    fn write_to(&self, out: &mut String) {
        (**self).write_to(out);
    }
}

/// Appends one JSON value at a time to a `String`: objects and arrays
/// nest through closures, and a key or value is preceded by a comma
/// exactly when it is not the first in its container.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// Whether the next key or value follows a sibling.
    comma: bool,
}

impl JsonWriter {
    /// Runs `f` on a fresh writer and returns the document it wrote.
    pub fn build(f: impl FnOnce(&mut Self)) -> String {
        let mut w = Self::default();
        f(&mut w);
        w.out
    }

    /// A document that is one object whose members `f` writes.
    pub fn object(f: impl FnOnce(&mut Self)) -> String {
        Self::build(|w| {
            w.obj(f);
        })
    }

    /// Starts a value (or a key) in the current container.
    fn sep(&mut self) -> &mut String {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
        &mut self.out
    }

    /// Writes an object key; the next call writes its value.
    pub fn key(&mut self, k: &str) -> &mut Self {
        push_string(self.sep(), k);
        self.out.push(':');
        self.comma = false;
        self
    }

    /// Writes a scalar value.
    pub fn value(&mut self, v: impl JsonScalar) -> &mut Self {
        v.write_to(self.sep());
        self
    }

    /// Writes an object member with a scalar value.
    pub fn field(&mut self, k: &str, v: impl JsonScalar) -> &mut Self {
        self.key(k).value(v)
    }

    /// Writes `null`.
    pub fn null(&mut self) -> &mut Self {
        self.sep().push_str("null");
        self
    }

    /// Writes an object whose members `f` writes.
    pub fn obj(&mut self, f: impl FnOnce(&mut Self)) -> &mut Self {
        self.nest('{', '}', f)
    }

    /// Writes an array whose elements `f` writes.
    pub fn arr(&mut self, f: impl FnOnce(&mut Self)) -> &mut Self {
        self.nest('[', ']', f)
    }

    fn nest(&mut self, open: char, close: char, f: impl FnOnce(&mut Self)) -> &mut Self {
        self.sep().push(open);
        self.comma = false;
        f(self);
        self.out.push(close);
        self.comma = true;
        self
    }
}

/// Formats an `f64` for JSON: shortest round-trip decimal, always with a
/// fractional part (`1` → `"1.0"`), non-finite values as `null` (JSON has
/// no NaN/Inf).
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `{}` omits ".0" for integral floats (and never uses scientific
        // notation); keep the result visibly a float.
        if s.contains('.') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

/// JSON string literal with the escapes our names can need.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_string(&mut out, s);
    out
}

fn push_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
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
    fn floats_keep_a_fractional_part() {
        assert_eq!(fmt_f64(1.0), "1.0");
        assert_eq!(fmt_f64(0.25), "0.25");
        assert_eq!(fmt_f64(-3.0), "-3.0");
        // `{}` Display expands rather than using scientific notation; the
        // result must still round-trip exactly.
        assert_eq!(fmt_f64(1e30).parse::<f64>().unwrap(), 1e30);
    }

    #[test]
    fn non_finite_becomes_null() {
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
    }

    #[test]
    fn strings_escape_quotes_and_control_chars() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}
