//! Offline stand-in for `serde_json`: JSON text rendering and parsing for
//! the vendored `serde` crate's [`Value`] tree.

pub use serde::Value;

/// Serialization / parse error.
#[derive(Debug)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}
impl std::error::Error for Error {}

/// Parses JSON text into a [`Value`] tree: a [`spanned::from_str`] parse
/// with the spans stripped, so both entry points share one grammar. The
/// error names the byte offset where parsing failed.
pub fn from_str(text: &str) -> Result<Value, Error> {
    spanned::from_str(text)
        .map(spanned::Spanned::into_value)
        .map_err(|e| Error(format!("{} at byte {}", e.message, e.at)))
}

/// Lowers any serializable value into a [`Value`] tree.
pub fn to_value<T: serde::Serialize>(value: &T) -> Value {
    value.to_value()
}

/// Renders `value` as compact JSON. Errors on non-finite floats (JSON has
/// no representation for them; emitting `null` instead used to silently
/// corrupt round-tripped store and metrics lines).
pub fn to_string<T: serde::Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, None, 0)?;
    Ok(out)
}

/// Renders `value` as pretty-printed JSON (two-space indent). Same
/// non-finite float policy as [`to_string`].
pub fn to_string_pretty<T: serde::Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, Some(2), 0)?;
    Ok(out)
}

fn write_value(
    v: &Value,
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
) -> Result<(), Error> {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Float(f) => {
            if f.is_finite() {
                out.push_str(&format_float(*f));
            } else {
                return Err(Error(format!(
                    "non-finite float `{f}` has no JSON representation"
                )));
            }
        }
        Value::String(s) => write_string(s, out),
        Value::Array(items) => write_seq(out, indent, depth, items.is_empty(), '[', ']', |out| {
            for (i, item) in items.iter().enumerate() {
                sep(out, indent, depth + 1, i > 0);
                write_value(item, out, indent, depth + 1)?;
            }
            Ok(())
        })?,
        Value::Object(entries) => {
            write_seq(out, indent, depth, entries.is_empty(), '{', '}', |out| {
                for (i, (k, item)) in entries.iter().enumerate() {
                    sep(out, indent, depth + 1, i > 0);
                    write_string(k, out);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    write_value(item, out, indent, depth + 1)?;
                }
                Ok(())
            })?
        }
    }
    Ok(())
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    empty: bool,
    open: char,
    close: char,
    body: impl FnOnce(&mut String) -> Result<(), Error>,
) -> Result<(), Error> {
    out.push(open);
    if !empty {
        body(out)?;
        if let Some(w) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(w * depth));
        }
    }
    out.push(close);
    Ok(())
}

fn sep(out: &mut String, indent: Option<usize>, depth: usize, comma: bool) {
    if comma {
        out.push(',');
    }
    if let Some(w) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(w * depth));
    }
}

fn format_float(f: f64) -> String {
    let s = format!("{f}");
    // `{}` prints integral floats without a decimal point; that is still
    // valid JSON, but keep the float-ness explicit for readability.
    if s.contains('.') || s.contains('e') || s.contains('E') {
        s
    } else {
        format!("{s}.0")
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The crate's JSON parser: strict RFC 8259 recursive descent in which
/// every value — and every object key — records the byte range it occupies
/// in the source text. [`from_str`] is this parse with the
/// spans stripped. Higher layers (device-spec validation) use the spans to
/// report `line:col` diagnostics against user-authored files instead of a
/// bare "invalid spec".
pub mod spanned {
    use super::Value;

    /// Maximum container nesting depth accepted by the parser; keeps
    /// malicious or accidental deeply-nested input from overflowing the
    /// stack.
    const MAX_DEPTH: usize = 128;

    /// A parse error carrying the byte offset where it was detected; feed
    /// the offset to [`line_col`] to render a `line:col` position.
    #[derive(Debug)]
    pub struct SpanError {
        /// Human-readable description of what went wrong.
        pub message: String,
        /// Byte offset into the source text.
        pub at: usize,
    }

    impl std::fmt::Display for SpanError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "{}", self.message)
        }
    }
    impl std::error::Error for SpanError {}

    fn err(message: impl Into<String>, at: usize) -> SpanError {
        SpanError {
            message: message.into(),
            at,
        }
    }

    /// A parsed JSON value annotated with its byte span `[start, end)` in
    /// the source text.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Spanned {
        /// The value itself (children of containers are themselves spanned).
        pub value: SpannedValue,
        /// Byte offset of the value's first character.
        pub start: usize,
        /// Byte offset one past the value's last character.
        pub end: usize,
    }

    /// The span-annotated analogue of [`Value`].
    #[derive(Debug, Clone, PartialEq)]
    pub enum SpannedValue {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// A negative integer.
        Int(i64),
        /// A non-negative integer.
        UInt(u64),
        /// A finite float.
        Float(f64),
        /// A string.
        String(String),
        /// An array of spanned values.
        Array(Vec<Spanned>),
        /// Key/value entries in source order; keys carry their own spans.
        Object(Vec<(SpannedKey, Spanned)>),
    }

    /// An object key with the byte span of its (quoted) source text.
    #[derive(Debug, Clone, PartialEq)]
    pub struct SpannedKey {
        /// The decoded key string.
        pub name: String,
        /// Byte offset of the opening quote.
        pub start: usize,
        /// Byte offset one past the closing quote.
        pub end: usize,
    }

    impl Spanned {
        /// Strips the spans, yielding the plain [`Value`] tree; strings move
        /// into the result rather than being copied.
        pub fn into_value(self) -> Value {
            match self.value {
                SpannedValue::Null => Value::Null,
                SpannedValue::Bool(b) => Value::Bool(b),
                SpannedValue::Int(i) => Value::Int(i),
                SpannedValue::UInt(u) => Value::UInt(u),
                SpannedValue::Float(f) => Value::Float(f),
                SpannedValue::String(s) => Value::String(s),
                SpannedValue::Array(items) => {
                    Value::Array(items.into_iter().map(Spanned::into_value).collect())
                }
                SpannedValue::Object(entries) => Value::Object(
                    entries
                        .into_iter()
                        .map(|(k, v)| (k.name, v.into_value()))
                        .collect(),
                ),
            }
        }

        /// [`into_value`](Self::into_value) on a copy — used when a
        /// validated subtree is handed on to span-unaware machinery.
        pub fn to_value(&self) -> Value {
            self.clone().into_value()
        }

        /// The JSON type name of this value, for "expected X, found Y"
        /// diagnostics.
        pub fn type_name(&self) -> &'static str {
            match &self.value {
                SpannedValue::Null => "null",
                SpannedValue::Bool(_) => "boolean",
                SpannedValue::Int(_) | SpannedValue::UInt(_) => "integer",
                SpannedValue::Float(_) => "number",
                SpannedValue::String(_) => "string",
                SpannedValue::Array(_) => "array",
                SpannedValue::Object(_) => "object",
            }
        }
    }

    /// Parses JSON text into a span-annotated tree (rejects trailing
    /// garbage and nesting deeper than `MAX_DEPTH` levels).
    pub fn from_str(text: &str) -> Result<Spanned, SpanError> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_spanned(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(err("trailing characters", pos));
        }
        Ok(value)
    }

    /// Converts a byte offset into a 1-based `(line, column)` position.
    /// Columns count bytes within the line, which matches how editors
    /// address ASCII spec files. Offsets past the end clamp to the last
    /// position.
    pub fn line_col(text: &str, byte: usize) -> (usize, usize) {
        let byte = byte.min(text.len());
        let upto = &text.as_bytes()[..byte];
        let line = 1 + upto.iter().filter(|&&b| b == b'\n').count();
        let col = 1 + byte - upto.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
        (line, col)
    }

    fn skip_ws(bytes: &[u8], pos: &mut usize) {
        while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), SpanError> {
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&c) {
            *pos += 1;
            Ok(())
        } else {
            Err(err(format!("expected `{}`", c as char), *pos))
        }
    }

    fn parse_spanned(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Spanned, SpanError> {
        if depth > MAX_DEPTH {
            return Err(err(format!("nesting deeper than {MAX_DEPTH} levels"), *pos));
        }
        skip_ws(bytes, pos);
        let start = *pos;
        let spanned = |value: SpannedValue, end: usize| Spanned { value, start, end };
        match bytes.get(*pos) {
            None => Err(err("unexpected end of input", start)),
            Some(b'{') => {
                *pos += 1;
                let mut entries = Vec::new();
                skip_ws(bytes, pos);
                if bytes.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(spanned(SpannedValue::Object(entries), *pos));
                }
                loop {
                    skip_ws(bytes, pos);
                    let key_start = *pos;
                    if bytes.get(*pos) != Some(&b'"') {
                        return Err(err("object key must be a string", key_start));
                    }
                    let name = parse_string(bytes, pos)?;
                    let key = SpannedKey {
                        name,
                        start: key_start,
                        end: *pos,
                    };
                    expect(bytes, pos, b':')?;
                    entries.push((key, parse_spanned(bytes, pos, depth + 1)?));
                    skip_ws(bytes, pos);
                    match bytes.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(spanned(SpannedValue::Object(entries), *pos));
                        }
                        _ => return Err(err("expected `,` or `}`", *pos)),
                    }
                }
            }
            Some(b'[') => {
                *pos += 1;
                let mut items = Vec::new();
                skip_ws(bytes, pos);
                if bytes.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(spanned(SpannedValue::Array(items), *pos));
                }
                loop {
                    items.push(parse_spanned(bytes, pos, depth + 1)?);
                    skip_ws(bytes, pos);
                    match bytes.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(spanned(SpannedValue::Array(items), *pos));
                        }
                        _ => return Err(err("expected `,` or `]`", *pos)),
                    }
                }
            }
            Some(b'"') => {
                let s = parse_string(bytes, pos)?;
                Ok(spanned(SpannedValue::String(s), *pos))
            }
            Some(c @ (b't' | b'f' | b'n')) => {
                let (lit, value) = match c {
                    b't' => ("true", SpannedValue::Bool(true)),
                    b'f' => ("false", SpannedValue::Bool(false)),
                    _ => ("null", SpannedValue::Null),
                };
                if bytes[*pos..].starts_with(lit.as_bytes()) {
                    *pos += lit.len();
                    Ok(spanned(value, *pos))
                } else {
                    Err(err("invalid literal", start))
                }
            }
            Some(_) => {
                let value = parse_number(bytes, pos)?;
                Ok(spanned(value, *pos))
            }
        }
    }

    /// Parses the string whose opening quote is at `*pos`, in time linear in
    /// its length: each run of bytes up to the next `"`, `\` or control
    /// character is validated and copied once. The delimiters are ASCII, so
    /// every run ends on a char boundary. Unescaped control characters
    /// (U+0000–U+001F) are rejected, as RFC 8259 requires.
    fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, SpanError> {
        let open = *pos;
        *pos += 1; // opening quote
        let mut out = String::new();
        loop {
            let run_start = *pos;
            *pos += bytes[run_start..]
                .iter()
                .position(|&b| matches!(b, b'"' | b'\\' | 0x00..=0x1F))
                .unwrap_or(bytes.len() - run_start);
            let run = std::str::from_utf8(&bytes[run_start..*pos])
                .map_err(|e| err("invalid UTF-8 in string", run_start + e.valid_up_to()))?;
            out.push_str(run);
            match bytes.get(*pos) {
                None => return Err(err("unterminated string", open)),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {}
                Some(_) => return Err(err("unescaped control character in string", *pos)),
            }
            *pos += 1; // backslash
            match bytes.get(*pos) {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'b') => out.push('\u{8}'),
                Some(b'f') => out.push('\u{c}'),
                Some(b'u') => {
                    let escape = *pos - 1;
                    let code = parse_hex4(bytes, *pos + 1, escape)?;
                    *pos += 4;
                    let scalar = if (0xD800..0xDC00).contains(&code) {
                        // UTF-16 high surrogate: a `\uXXXX` low surrogate
                        // must follow; combine them into one scalar.
                        if bytes.get(*pos + 1..*pos + 3) != Some(br"\u") {
                            return Err(err("unpaired \\u surrogate", escape));
                        }
                        let low = parse_hex4(bytes, *pos + 3, escape)?;
                        if !(0xDC00..0xE000).contains(&low) {
                            return Err(err("invalid low \\u surrogate", escape));
                        }
                        *pos += 6;
                        0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                    } else {
                        code
                    };
                    out.push(
                        char::from_u32(scalar)
                            .ok_or_else(|| err("invalid \\u codepoint", escape))?,
                    );
                }
                _ => return Err(err("invalid escape", *pos)),
            }
            *pos += 1;
        }
    }

    /// Reads the four hex digits of a `\uXXXX` escape starting at `at`;
    /// errors point at the escape's backslash, `escape`. The digits are
    /// checked first: `u32::from_str_radix` alone would also take a leading
    /// `+`.
    fn parse_hex4(bytes: &[u8], at: usize, escape: usize) -> Result<u32, SpanError> {
        let hex = bytes
            .get(at..at + 4)
            .ok_or_else(|| err("truncated \\u escape", escape))?;
        if !hex.iter().all(u8::is_ascii_hexdigit) {
            return Err(err("invalid \\u escape", escape));
        }
        u32::from_str_radix(
            std::str::from_utf8(hex).map_err(|_| err("invalid \\u escape", escape))?,
            16,
        )
        .map_err(|_| err("invalid \\u escape", escape))
    }

    /// Parses a number following the RFC 8259 grammar exactly:
    /// `-? (0 | [1-9][0-9]*) ('.' [0-9]+)? ([eE] [+-]? [0-9]+)?`.
    ///
    /// Spec-invalid spellings that Rust's own `from_str` impls would happily
    /// accept — a leading `+`, leading zeros, a bare trailing `.`/`e` — are
    /// rejected here instead of leaking into round-tripped files. Numbers
    /// whose `f64` value overflows to infinity (e.g. `1e999`) are rejected
    /// too: the emitter has no representation for non-finite floats, so
    /// accepting them would corrupt a parse → emit round trip.
    fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<SpannedValue, SpanError> {
        let start = *pos;
        let mut i = *pos;
        if bytes.get(i) == Some(&b'-') {
            i += 1;
        }
        // Integer part: `0` alone or a nonzero digit run (no leading zeros).
        match bytes.get(i) {
            Some(b'0') => i += 1,
            Some(b'1'..=b'9') => {
                while matches!(bytes.get(i), Some(b'0'..=b'9')) {
                    i += 1;
                }
            }
            _ => return Err(err("invalid number", start)),
        }
        let mut is_float = false;
        if bytes.get(i) == Some(&b'.') {
            is_float = true;
            i += 1;
            if !matches!(bytes.get(i), Some(b'0'..=b'9')) {
                return Err(err("invalid number: expected digit after `.`", start));
            }
            while matches!(bytes.get(i), Some(b'0'..=b'9')) {
                i += 1;
            }
        }
        if matches!(bytes.get(i), Some(b'e' | b'E')) {
            is_float = true;
            i += 1;
            if matches!(bytes.get(i), Some(b'+' | b'-')) {
                i += 1;
            }
            if !matches!(bytes.get(i), Some(b'0'..=b'9')) {
                return Err(err("invalid number: expected exponent digit", start));
            }
            while matches!(bytes.get(i), Some(b'0'..=b'9')) {
                i += 1;
            }
        }
        let text = std::str::from_utf8(&bytes[start..i]).expect("ascii number");
        *pos = i;
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(SpannedValue::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(SpannedValue::Int(i));
            }
            // Integers beyond 64 bits fall through to f64 below.
        }
        let f: f64 = text
            .parse()
            .map_err(|_| err(format!("invalid number `{text}`"), start))?;
        if !f.is_finite() {
            return Err(err(
                format!("number `{text}` overflows f64 to a non-finite value"),
                start,
            ));
        }
        Ok(SpannedValue::Float(f))
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn spans_cover_values_and_keys() {
            let text = r#"{"a": [1, 2.5], "bb": "x"}"#;
            let root = from_str(text).expect("parses");
            assert_eq!((root.start, root.end), (0, text.len()));
            let SpannedValue::Object(entries) = &root.value else {
                panic!("object expected");
            };
            let (ka, va) = &entries[0];
            assert_eq!(&text[ka.start..ka.end], "\"a\"");
            assert_eq!(&text[va.start..va.end], "[1, 2.5]");
            let SpannedValue::Array(items) = &va.value else {
                panic!("array expected");
            };
            assert_eq!(&text[items[0].start..items[0].end], "1");
            assert_eq!(&text[items[1].start..items[1].end], "2.5");
            let (kb, vb) = &entries[1];
            assert_eq!(&text[kb.start..kb.end], "\"bb\"");
            assert_eq!(vb.value, SpannedValue::String("x".into()));
        }

        #[test]
        fn error_offsets_point_at_the_problem() {
            let text = "{\"a\": 1,\n \"b\": 01}";
            // `01` parses as `0` followed by a stray `1`; the error points
            // at the stray digit.
            let e = from_str(text).expect_err("leading zero rejected");
            assert_eq!(line_col(text, e.at), (2, 8));
        }

        #[test]
        fn line_col_is_one_based_and_clamped() {
            let text = "ab\ncd";
            assert_eq!(line_col(text, 0), (1, 1));
            assert_eq!(line_col(text, 2), (1, 3));
            assert_eq!(line_col(text, 3), (2, 1));
            assert_eq!(line_col(text, 99), (2, 3));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars_and_containers() {
        assert_eq!(to_string(&vec![1u32, 2, 3]).unwrap(), "[1,2,3]");
        assert_eq!(to_string(&Some(1.5f64)).unwrap(), "1.5");
        assert_eq!(to_string(&Option::<u32>::None).unwrap(), "null");
        assert_eq!(to_string(&("a", 2u8)).unwrap(), "[\"a\",2]");
        assert_eq!(to_string(&2.0f64).unwrap(), "2.0");
    }

    #[test]
    fn pretty_printing_indents() {
        let pretty = to_string_pretty(&vec![1u8]).unwrap();
        assert_eq!(pretty, "[\n  1\n]");
    }

    #[test]
    fn escapes_strings() {
        assert_eq!(to_string(&"a\"b\\c\nd").unwrap(), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(from_str("42").unwrap(), Value::UInt(42));
        assert_eq!(from_str("-7").unwrap(), Value::Int(-7));
        assert_eq!(from_str("1.5e-3").unwrap(), Value::Float(1.5e-3));
        assert_eq!(from_str("true").unwrap(), Value::Bool(true));
        assert_eq!(from_str("null").unwrap(), Value::Null);
        assert_eq!(from_str("\"hi\\n\"").unwrap(), Value::String("hi\n".into()));
    }

    #[test]
    fn parses_nested_containers() {
        let v = from_str(r#"{"a": [1, 2.5, {"b": "c"}], "d": {}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2]
                .get("b")
                .unwrap()
                .as_str(),
            Some("c")
        );
        assert_eq!(v.get("d").unwrap(), &Value::Object(vec![]));
        let text = r#"{"a": [1, -2, 2.5, true, null], "b": {"c": "d"}}"#;
        let expected = Value::Object(vec![
            (
                "a".into(),
                Value::Array(vec![
                    Value::UInt(1),
                    Value::Int(-2),
                    Value::Float(2.5),
                    Value::Bool(true),
                    Value::Null,
                ]),
            ),
            (
                "b".into(),
                Value::Object(vec![("c".into(), Value::String("d".into()))]),
            ),
        ]);
        assert_eq!(from_str(text).unwrap(), expected);
        assert_eq!(spanned::from_str(text).unwrap().to_value(), expected);
    }

    #[test]
    fn round_trips_through_render_and_parse() {
        let original = from_str(r#"{"edges": [[0, 1, 0.01]], "seed": 7, "x": -1.25}"#).unwrap();
        let text = to_string(&original).unwrap();
        assert_eq!(from_str(&text).unwrap(), original);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "12 34",
            "\"open",
            "{1: 2}",
            "01",
            "+1",
            "1.",
            "1e999",
            // RFC 8259: control characters inside strings must be escaped.
            "\"a\tb\"",
            "\"a\nb\"",
            "\"a\u{1}b\"",
            // `\u` takes exactly four hex digits; no sign.
            r#""\u+041""#,
            r#""\u+04A""#,
        ] {
            assert!(from_str(bad).is_err(), "`{bad}` should not parse");
            assert!(spanned::from_str(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn errors_name_the_byte_offset_once() {
        let err = from_str("[1, 1.]").unwrap_err().to_string();
        assert_eq!(err, "invalid number: expected digit after `.` at byte 4");
        let err = from_str("[\"ok\", \"a\tb\"]").unwrap_err().to_string();
        assert_eq!(err, "unescaped control character in string at byte 9");
    }

    #[test]
    fn rejects_spec_invalid_numbers() {
        // Rust's u64/f64 `from_str` would accept several of these ("+1",
        // "1.", ".5"); the JSON grammar does not, and neither do we.
        for bad in [
            "+1", "+0", "01", "007", "-01", "1.", ".5", "-.5", "1e", "1e+", "1e-", "-", "--1",
            "1.e3", "0x10", "1_000",
        ] {
            assert!(from_str(bad).is_err(), "`{bad}` should not parse");
        }
        // Inside containers too — the greedy old scanner used to slurp these.
        assert!(from_str("[+1]").is_err());
        assert!(from_str(r#"{"a": 01}"#).is_err());
    }

    #[test]
    fn rejects_numbers_that_overflow_to_non_finite() {
        for bad in ["1e999", "-1e999", "1e308999"] {
            let err = from_str(bad).unwrap_err();
            assert!(err.to_string().contains("non-finite"), "{err}");
        }
        // The largest finite doubles still parse.
        assert_eq!(from_str("1e308").unwrap(), Value::Float(1e308));
        assert_eq!(
            from_str("-1.7976931348623157e308").unwrap().as_f64(),
            Some(f64::MIN)
        );
    }

    #[test]
    fn accepts_every_spec_valid_number_shape() {
        assert_eq!(from_str("0").unwrap(), Value::UInt(0));
        assert_eq!(from_str("-0").unwrap(), Value::Int(0));
        assert_eq!(from_str("1e+5").unwrap(), Value::Float(1e5));
        assert_eq!(from_str("1E-5").unwrap(), Value::Float(1e-5));
        assert_eq!(from_str("0.25").unwrap(), Value::Float(0.25));
        assert_eq!(from_str("-0.5e-2").unwrap(), Value::Float(-0.005));
        // 64-bit overflow on a plain integer widens to f64 instead of failing.
        assert_eq!(
            from_str("123456789012345678901234567890").unwrap(),
            Value::Float(1.2345678901234568e29)
        );
        assert_eq!(
            from_str(&u64::MAX.to_string()).unwrap(),
            Value::UInt(u64::MAX)
        );
        assert_eq!(
            from_str(&i64::MIN.to_string()).unwrap(),
            Value::Int(i64::MIN)
        );
    }

    #[test]
    fn non_finite_floats_are_an_emission_error_not_null() {
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let err = to_string(&bad).unwrap_err();
            assert!(err.to_string().contains("non-finite"), "{err}");
            assert!(to_string_pretty(&vec![bad]).is_err());
        }
        // Finite floats are unaffected (integral ones keep the `.0` suffix).
        assert_eq!(to_string(&f64::MAX).unwrap(), format!("{}.0", f64::MAX));
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
    }

    #[test]
    fn parses_utf16_surrogate_pairs() {
        // The standard JSON encoding of non-BMP characters (e.g. emoji),
        // both as a raw UTF-8 scalar and as a \uXXXX surrogate pair.
        assert_eq!(from_str(r#""😀""#).unwrap(), Value::String("😀".into()));
        assert_eq!(
            from_str(r#""\uD83D\uDE00""#).unwrap(),
            Value::String("😀".into())
        );
        assert!(from_str(r#""\uD83D""#).is_err(), "unpaired high surrogate");
        assert!(from_str(r#""\uD83DA""#).is_err(), "bad low surrogate");
        assert!(from_str(r#""\uDE00""#).is_err(), "lone low surrogate");
    }

    #[test]
    fn escapes_and_multi_byte_runs_join_at_their_boundaries() {
        // Escapes, surrogate pairs and multi-byte UTF-8 butt against each
        // other, so every run boundary of the string scanner is exercised.
        let text = r#""é\n😀\uD83D\uDE00é\"\u00e9x😀\\""#;
        assert_eq!(
            from_str(text).unwrap(),
            Value::String("é\n😀😀é\"éx😀\\".into())
        );
        assert_eq!(from_str(r#""\té""#).unwrap(), Value::String("\té".into()));
        assert_eq!(from_str(r#""é""#).unwrap(), Value::String("é".into()));
        assert_eq!(from_str(r#""""#).unwrap(), Value::String(String::new()));
        let round = "a\u{1}b\u{1f}😀\t\"";
        assert_eq!(
            from_str(&to_string(&round).unwrap()).unwrap(),
            Value::String(round.into())
        );
    }

    #[test]
    fn rejects_pathological_nesting_gracefully() {
        let deep = "[".repeat(100_000);
        let err = from_str(&deep).unwrap_err();
        assert!(err.to_string().contains("nesting"), "{err}");
        // A reasonable depth still parses.
        let ok = format!("{}1{}", "[".repeat(64), "]".repeat(64));
        assert!(from_str(&ok).is_ok());
    }

    #[test]
    fn numeric_accessors_widen() {
        assert_eq!(from_str("3").unwrap().as_f64(), Some(3.0));
        assert_eq!(from_str("3").unwrap().as_u64(), Some(3));
        assert_eq!(from_str("-3").unwrap().as_u64(), None);
        assert_eq!(from_str("2.5").unwrap().as_f64(), Some(2.5));
    }
}
