//! JSON string escaping for the workspace's hand-rolled JSON writers
//! (trace lines, calibration profiles, result files).

use std::fmt::Write as _;

/// Append `s` to `out` escaped as the body of a JSON string literal (no
/// surrounding quotes): quote, backslash, and control characters are
/// escaped (`\n`, `\r`, `\t` in their short form, the rest as
/// `\u00XX`); all other Unicode passes through verbatim. (`{:?}` is not
/// JSON — it renders non-ASCII as `\u{e9}`-style escapes, which JSON
/// parsers reject.)
pub fn escape(s: &str, out: &mut String) {
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
}

/// `s` as a complete JSON string literal, quotes included.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape(s, &mut out);
    out.push('"');
    out
}
