//! A minimal ordered JSON writer.
//!
//! The benchmark (`benchmark/`) prints its result lines and writes its
//! trace files with it, instead of per-call-site format strings.
//! Fields appear in insertion order, strings are escaped, and
//! non-finite floats serialize as `null` (JSON has no NaN).

/// Builder for one JSON object; consumes itself for method chaining.
///
/// ```
/// let line = obs::JsonObject::new()
///     .str("experiment", "latency")
///     .u64("threads", 4)
///     .f64("p99_us", 12.5)
///     .finish();
/// assert_eq!(line, r#"{"experiment":"latency","threads":4,"p99_us":12.5}"#);
/// ```
#[derive(Debug, Clone)]
pub struct JsonObject {
    buf: String,
}

impl Default for JsonObject {
    fn default() -> Self {
        Self::new()
    }
}

/// Escapes `s` as the contents of a JSON string literal.
fn escape_into(buf: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => buf.push_str(&format!("\\u{:04x}", c as u32)),
            c => buf.push(c),
        }
    }
}

/// Formats a float the way JSON expects: integral values without an
/// exponent, non-finite values as `null`.
fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        "null".to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{:.1}", v)
    } else {
        format!("{v}")
    }
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> Self {
        Self {
            buf: String::from("{"),
        }
    }

    fn key(&mut self, key: &str) {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        self.buf.push('"');
        escape_into(&mut self.buf, key);
        self.buf.push_str("\":");
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        self.buf.push('"');
        escape_into(&mut self.buf, value);
        self.buf.push('"');
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(mut self, key: &str, value: u64) -> Self {
        self.key(key);
        self.buf.push_str(&value.to_string());
        self
    }

    /// Adds a float field (`null` when non-finite).
    pub fn f64(mut self, key: &str, value: f64) -> Self {
        self.key(key);
        self.buf.push_str(&fmt_f64(value));
        self
    }

    /// Adds a pre-rendered JSON value (nested object or array) verbatim.
    pub fn raw(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        self.buf.push_str(value);
        self
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Renders pre-rendered JSON values as a JSON array.
pub fn array<I>(items: I) -> String
where
    I: IntoIterator,
    I::Item: AsRef<str>,
{
    let mut buf = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            buf.push(',');
        }
        buf.push_str(item.as_ref());
    }
    buf.push(']');
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_keep_insertion_order_and_types() {
        let s = JsonObject::new()
            .str("name", "SplitFS-strict")
            .u64("ops", 4096)
            .f64("kops", 12.25)
            .f64("whole", 3.0)
            .raw("tail", "[1,2,3]")
            .finish();
        assert_eq!(
            s,
            r#"{"name":"SplitFS-strict","ops":4096,"kops":12.25,"whole":3.0,"tail":[1,2,3]}"#
        );
    }

    #[test]
    fn strings_are_escaped() {
        let s = JsonObject::new().str("k", "a\"b\\c\nd").finish();
        assert_eq!(s, r#"{"k":"a\"b\\c\nd"}"#);
    }

    #[test]
    fn non_finite_floats_are_null() {
        let s = JsonObject::new().f64("x", f64::NAN).finish();
        assert_eq!(s, r#"{"x":null}"#);
    }

    #[test]
    fn array_joins_raw_items() {
        assert_eq!(array(["1", "2"]), "[1,2]");
        assert_eq!(array(Vec::<String>::new()), "[]");
    }
}
