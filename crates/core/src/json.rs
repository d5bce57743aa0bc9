//! The one JSON writer behind every document the simulator emits: the
//! run report, the sweep grid, the windowed series and the sweep's
//! per-cell series, and the Chrome trace.
//!
//! [`Json`] owns the syntax — braces, brackets, comma placement, key
//! quoting and string escaping — and the number forms: integers through
//! [`push_u64`], which skips `fmt`, Rust's shortest round-trip `{}` for
//! `f64`, six fixed decimals through [`Fixed6`], and `null` for any
//! non-finite float (JSON has no NaN or Infinity). It appends to one
//! reusable byte buffer and allocates nothing per value. The two
//! streamed documents keep their top-level array open in the writer
//! across calls and move each finished record out with
//! [`Json::flush_to`]. A fixed-shape record (the Chrome trace's) takes
//! its place in the document through [`Json::element`] and writes its
//! own pre-quoted text, so the frame, the integers and the escaping
//! stay here.
//!
//! Std-only, like the rest of the workspace.

use std::io::{self, Write as _};

/// A JSON document under construction.
#[derive(Default)]
pub(crate) struct Json {
    /// The document so far; only ever valid UTF-8, because every value
    /// arrives as `&str` text or ASCII digits.
    out: Vec<u8>,
    /// One entry per open object or array: whether it already holds a
    /// member, so the next one needs a comma first.
    open: Vec<bool>,
    /// A key was just written: the value that follows takes no comma.
    after_key: bool,
}

impl Json {
    /// Separate the value about to be written from its predecessor in
    /// the enclosing container.
    fn sep(&mut self) {
        if std::mem::take(&mut self.after_key) {
            return;
        }
        if let Some(filled) = self.open.last_mut() {
            if *filled {
                self.out.push(b',');
            }
            *filled = true;
        }
    }

    fn begin(&mut self, bracket: u8) -> &mut Self {
        self.sep();
        self.out.push(bracket);
        self.open.push(false);
        self
    }

    fn end(&mut self, bracket: u8) -> &mut Self {
        self.open.pop();
        self.out.push(bracket);
        self
    }

    pub(crate) fn begin_object(&mut self) -> &mut Self {
        self.begin(b'{')
    }

    pub(crate) fn end_object(&mut self) -> &mut Self {
        self.end(b'}')
    }

    pub(crate) fn begin_array(&mut self) -> &mut Self {
        self.begin(b'[')
    }

    pub(crate) fn end_array(&mut self) -> &mut Self {
        self.end(b']')
    }

    /// Name the next member of the enclosing object; the next value,
    /// object or array written is its value.
    pub(crate) fn key(&mut self, key: &str) -> &mut Self {
        self.sep();
        key.write(&mut self.out);
        self.out.push(b':');
        self.after_key = true;
        self
    }

    /// One `"key":value` member of the enclosing object.
    pub(crate) fn field(&mut self, key: &str, value: impl Scalar) -> &mut Self {
        self.key(key);
        self.sep();
        value.write(&mut self.out);
        self
    }

    /// Embed a document that is already rendered, as one value.
    pub(crate) fn raw(&mut self, doc: &str) -> &mut Self {
        self.element().extend_from_slice(doc.as_bytes());
        self
    }

    /// Take the next place in the enclosing container and hand back the
    /// buffer: the caller appends one complete JSON value, and every
    /// string in it must already be escaped (a fixed-shape record built
    /// from [`escape_into`]-clean text and [`push_u64`] integers).
    pub(crate) fn element(&mut self) -> &mut Vec<u8> {
        self.sep();
        &mut self.out
    }

    /// Move everything written so far to `w`, leaving every open object
    /// and array open: how a streamed document leaves memory one record
    /// at a time. The buffer is emptied even if the write fails.
    pub(crate) fn flush_to(&mut self, w: &mut impl io::Write) -> io::Result<()> {
        let written = w.write_all(&self.out);
        self.out.clear();
        written
    }

    /// The finished document.
    pub(crate) fn finish(self) -> String {
        debug_assert!(self.open.is_empty(), "unclosed JSON container");
        String::from_utf8(self.out).expect("every value is UTF-8 text or digits")
    }
}

/// A value [`Json::field`] can write.
pub(crate) trait Scalar {
    fn write(self, out: &mut Vec<u8>);
}

impl Scalar for bool {
    fn write(self, out: &mut Vec<u8>) {
        out.extend_from_slice(if self { b"true" } else { b"false" });
    }
}

macro_rules! integer_scalar {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            fn write(self, out: &mut Vec<u8>) {
                push_u64(out, self as u64);
            }
        }
    )*};
}

integer_scalar!(u32, u64, usize);

/// Append `v` in decimal, the digits `{}` prints, without going through
/// `fmt`: the integer form of every document, and the Chrome trace's
/// per-record cost.
pub(crate) fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[start..]);
}

/// Shortest round-trip decimal; `null` when not finite.
impl Scalar for f64 {
    fn write(self, out: &mut Vec<u8>) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else {
            out.extend_from_slice(b"null");
        }
    }
}

/// An `f64` with exactly six decimals (the series documents' number
/// form); `null` when not finite.
pub(crate) struct Fixed6(pub f64);

impl Scalar for Fixed6 {
    fn write(self, out: &mut Vec<u8>) {
        if self.0.is_finite() {
            let _ = write!(out, "{:.6}", self.0);
        } else {
            out.extend_from_slice(b"null");
        }
    }
}

/// A quoted, escaped string.
impl Scalar for &str {
    fn write(self, out: &mut Vec<u8>) {
        out.push(b'"');
        escape_into(out, self);
        out.push(b'"');
    }
}

/// Append `s` with `"`, `\` and the control characters escaped. Runs of
/// plain characters are copied whole; every byte that needs escaping is
/// ASCII, so splitting at it never cuts a UTF-8 sequence.
pub(crate) fn escape_into(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let mut plain = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.extend_from_slice(&bytes[plain..i]);
        match b {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        plain = i + 1;
    }
    out.extend_from_slice(&bytes[plain..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn string(s: &str) -> String {
        let mut out = Vec::new();
        s.write(&mut out);
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn escapes_json_special_characters() {
        assert_eq!(string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(string("\r\t"), "\"\\r\\t\"");
        assert_eq!(string("\u{1}"), "\"\\u0001\"");
        assert_eq!(string("\u{1f}x"), "\"\\u001fx\"");
        // Non-ASCII passes through untouched.
        assert_eq!(string("0\u{2192}1 é"), "\"0\u{2192}1 é\"");
        // Keys are escaped too.
        let mut j = Json::default();
        j.begin_object().field("k\"", "\tq").end_object();
        assert_eq!(j.finish(), "{\"k\\\"\":\"\\tq\"}");
    }

    #[test]
    fn integers_print_the_digits_display_prints() {
        let mut edges = vec![0, 1, 9, u64::MAX, u64::MAX - 1, u64::from(u32::MAX)];
        for p in 1..20 {
            let ten = 10u64.pow(p);
            edges.extend([ten - 1, ten, ten + 1]);
        }
        // Every value below 100 000, then a spread of large ones.
        let spread = (0..100_000).chain((0..64).map(|k| 0x9E37_79B9_7F4A_7C15u64.rotate_left(k)));
        for v in edges.into_iter().chain(spread) {
            let mut out = Vec::new();
            push_u64(&mut out, v);
            assert_eq!(String::from_utf8(out).unwrap(), v.to_string());
        }
        let mut j = Json::default();
        j.begin_object()
            .field("a", u32::MAX)
            .field("b", usize::MAX)
            .field("c", 0u64)
            .end_object();
        assert_eq!(
            j.finish(),
            format!("{{\"a\":{},\"b\":{},\"c\":0}}", u32::MAX, usize::MAX)
        );
    }

    #[test]
    fn non_finite_floats_become_null_in_both_forms() {
        let mut j = Json::default();
        j.begin_object();
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            j.field("g", v).field("f", Fixed6(v));
        }
        j.field("g", 0.1).field("f", Fixed6(0.1)).field("x", 2.0);
        j.end_object();
        assert_eq!(
            j.finish(),
            "{\"g\":null,\"f\":null,\"g\":null,\"f\":null,\"g\":null,\"f\":null,\
             \"g\":0.1,\"f\":0.100000,\"x\":2}"
        );
    }

    #[test]
    fn nests_objects_and_arrays_with_commas_only_between_members() {
        let mut j = Json::default();
        j.begin_object().field("a", 1u32).key("empty_obj");
        j.begin_object().end_object();
        j.key("empty_arr").begin_array().end_array();
        j.key("list").begin_array();
        for i in 0..3u64 {
            j.begin_object().field("i", i).key("inner").begin_array();
            j.begin_array().end_array();
            j.end_array().end_object();
        }
        j.end_array().field("ok", true).end_object();
        assert_eq!(
            j.finish(),
            "{\"a\":1,\"empty_obj\":{},\"empty_arr\":[],\"list\":[\
             {\"i\":0,\"inner\":[[]]},{\"i\":1,\"inner\":[[]]},{\"i\":2,\"inner\":[[]]}],\
             \"ok\":true}"
        );
    }

    #[test]
    fn embeds_a_rendered_document_as_one_value() {
        let mut inner = Json::default();
        inner.begin_object().field("x", 1usize).end_object();
        let inner = inner.finish();
        let mut j = Json::default();
        j.begin_object().key("cells").begin_array();
        j.raw(&inner).raw(&inner);
        j.end_array().key("data").raw(&inner).end_object();
        assert_eq!(
            j.finish(),
            "{\"cells\":[{\"x\":1},{\"x\":1}],\"data\":{\"x\":1}}"
        );
    }

    #[test]
    fn streamed_array_separates_records_across_flushes() {
        let mut out = Vec::new();
        let mut j = Json::default();
        j.begin_object().key("events").begin_array();
        j.flush_to(&mut out).unwrap();
        assert_eq!(out, b"{\"events\":[");
        for i in 0..3u64 {
            j.begin_object().field("i", i).end_object();
            j.flush_to(&mut out).unwrap();
        }
        j.end_array().end_object();
        j.flush_to(&mut out).unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "{\"events\":[{\"i\":0},{\"i\":1},{\"i\":2}]}"
        );
        // A stream that closes with no records is still balanced.
        let mut empty = Json::default();
        empty.begin_object().key("events").begin_array();
        empty.flush_to(&mut Vec::new()).unwrap();
        empty.end_array().end_object();
        assert_eq!(empty.finish(), "]}");
    }
}
