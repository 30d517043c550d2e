//! A minimal JSON writer (the probe has no dependencies beyond the
//! workspace crates).

use std::fmt::Write as _;

/// A JSON object under construction; fields keep insertion order.
#[derive(Default)]
pub struct Obj(String);

impl Obj {
    pub fn new() -> Self {
        Obj::default()
    }

    /// Adds a field whose value is already JSON text.
    pub fn raw(mut self, key: &str, value: impl AsRef<str>) -> Self {
        if !self.0.is_empty() {
            self.0.push(',');
        }
        let _ = write!(self.0, "{}:{}", string(key), value.as_ref());
        self
    }

    pub fn str(self, key: &str, value: &str) -> Self {
        self.raw(key, string(value))
    }

    pub fn num(self, key: &str, value: f64) -> Self {
        self.raw(key, number(value))
    }

    pub fn int(self, key: &str, value: u64) -> Self {
        self.raw(key, value.to_string())
    }

    pub fn ints(self, key: &str, values: impl IntoIterator<Item = u64>) -> Self {
        self.raw(key, array(values.into_iter().map(|v| v.to_string())))
    }

    /// An `f64` as its exact bit pattern (hex), for bit-identity checks.
    pub fn bits(self, key: &str, value: f64) -> Self {
        self.str(key, &format!("{:016x}", value.to_bits()))
    }

    pub fn end(self) -> String {
        format!("{{{}}}", self.0)
    }
}

/// A JSON array of already-encoded values.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    let mut out = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&item);
    }
    out.push(']');
    out
}

/// Shortest round-trip decimal; non-finite values become `null`.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_valid_json_text() {
        let o = Obj::new()
            .str("name", "a\"b\\c\td")
            .num("x", 0.1)
            .num("nan", f64::NAN)
            .int("n", 7)
            .ints("ids", [3, 1])
            .bits("one", 1.0)
            .end();
        assert_eq!(
            o,
            r#"{"name":"a\"b\\c\u0009d","x":0.1,"nan":null,"n":7,"ids":[3,1],"one":"3ff0000000000000"}"#
        );
    }
}
