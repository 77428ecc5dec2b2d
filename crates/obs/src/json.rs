//! The workspace's one JSON codec: a value type, one string escaper, one
//! float rule, a streaming writer and a strict RFC 8259 parser.
//!
//! **Writing.** A [`Writer`] appends straight into the caller's `String`,
//! keys in the order the caller writes them. It has two layouts, chosen
//! by the format and never by a flag: [`Writer::compact`] for
//! one-record-per-line formats (JSONL traces, snapshots) and
//! [`Writer::indented`] for whole documents (two-space indent,
//! `"key": value`, one member or element per line). Finite floats are
//! written as Rust's `{}` Display writes them — the shortest text that
//! parses back to the same bits, never in exponent notation — and
//! non-finite floats as `null`. Strings escape `"`, `\`, `\n`, `\r` and
//! `\t` by name and every other control character as `\u00XX`.
//!
//! Common values skip `core::fmt` but write the same bytes. Unsigned
//! integers take a digit loop and `bool`s a literal. A float that is an
//! integer below 2^53 in magnitude takes the same digit loop, with a `-`
//! when its sign bit is set (`-0.0` is `-0`). Below 2^53 adjacent floats
//! are at most 1 apart, so no other decimal as short as the integer
//! reads back as that float, and Display's shortest round trip is the
//! integer's own digits. From 2^53 on, Display may write fewer
//! significant digits than the integer has (2^60 is
//! `1152921504606847000`), so larger floats, like fractional ones, go
//! through Display. A string with no `"`, `\` or control byte is copied
//! whole; any other goes through the escaper.
//!
//! **Reading.** [`parse`] reads a whole document into a [`Value`];
//! [`parse_record`] reads one object of a record-per-line format into a
//! [`Record`]. The parser is strict: it rejects leading zeros, `+1`,
//! `1.`, `.5`, trailing commas, raw control characters inside strings,
//! lone surrogates, numbers that overflow to infinity and nesting deeper
//! than [`MAX_DEPTH`]. Numbers keep their source text until a typed
//! reader parses them, so a `u64` such as 2^53 + 1 reads back exactly;
//! keys, numbers and escape-free strings borrow from the input. Every
//! error carries a 1-based line and a 1-based byte column; errors from
//! the typed readers name their field and point at its object.

use std::borrow::Cow;
use std::fmt::{Display, Write as _};

/// Containers nest at most this deep; deeper input is rejected rather
/// than risking the stack.
pub const MAX_DEPTH: usize = 128;

/// A parse or schema failure, located in the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// 1-based line.
    pub line: usize,
    /// 1-based byte column within the line.
    pub column: usize,
    /// What went wrong.
    pub message: String,
}

impl Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (line, column) = (self.line, self.column);
        write!(f, "line {line}, column {column}: {}", self.message)
    }
}

impl std::error::Error for JsonError {}

// --- writing ------------------------------------------------------------

/// Appends `s` as a JSON string literal: copied whole when no byte needs
/// an escape, through the one escaper otherwise.
fn write_string(out: &mut String, s: &str) {
    out.push('"');
    if s.bytes().any(|b| matches!(b, b'"' | b'\\' | 0..=0x1f)) {
        write_escaped(out, s);
    } else {
        out.push_str(s);
    }
    out.push('"');
}

/// The one escaper: appends the body of `s` with every `"`, `\` and
/// control byte escaped.
fn write_escaped(out: &mut String, s: &str) {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // Every byte matched above is ASCII, so the slices fall on
        // character boundaries.
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// The one float rule: shortest round-trip Display when finite, `null`
/// otherwise; an integer below 2^53 in magnitude takes the digit loop,
/// which writes the same bytes.
fn write_f64(out: &mut String, v: f64) {
    if let Some(magnitude) = small_integer_magnitude(v) {
        if v.is_sign_negative() {
            out.push('-');
        }
        write_uint(out, magnitude);
    } else if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// `|v|` when `v` is an integer (±0 included) below 2^53 in magnitude.
fn small_integer_magnitude(v: f64) -> Option<u64> {
    let bits = v.to_bits();
    let exponent = (bits >> 52) & 0x7ff;
    let fraction = bits & ((1 << 52) - 1);
    match exponent {
        // ±0, or a subnormal, which is no integer.
        0 => (fraction == 0).then_some(0),
        // |v| = (2^52 + fraction) · 2^(exponent − 1075), in [1, 2^53).
        1023..=1075 => {
            let significand = fraction | 1 << 52;
            let shift = 1075 - exponent;
            (significand & ((1 << shift) - 1) == 0).then_some(significand >> shift)
        }
        _ => None,
    }
}

/// Appends the decimal digits of an unsigned integer, as Display writes
/// them. Every unsigned type the writer takes fits a `u64`.
fn write_uint(out: &mut String, v: impl TryInto<u64>) {
    let mut digits = [0; 20];
    let mut start = digits.len();
    let mut rest = v.try_into().unwrap_or(u64::MAX);
    loop {
        start -= 1;
        digits[start] = b'0' + u8::try_from(rest % 10).unwrap_or(0);
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    for &digit in &digits[start..] {
        out.push(char::from(digit));
    }
}

fn write_bool(out: &mut String, v: bool) {
    out.push_str(if v { "true" } else { "false" });
}

/// A streaming JSON writer over a caller-owned `String`.
///
/// The constructors open the root object and [`finish`](Writer::finish)
/// closes it. Inside an object the keyed methods (`f64`, `str`,
/// `begin_array`, …) write one member each; inside an array the `push_*`
/// methods write one element each. The `opt_*` methods omit an absent
/// member — optional fields are never written as `null`.
#[derive(Debug)]
pub struct Writer<'o> {
    out: &'o mut String,
    indented: bool,
    depth: usize,
    /// Whether the next member or element is the first of its container.
    first: bool,
}

/// Declares, per scalar type, the member writer, its optional twin, the
/// array-element writer and the array-member writer.
macro_rules! scalar_writers {
    ($($name:ident, $opt:ident, $push:ident, $array:ident: $ty:ty => $write:ident;)*) => {$(
        #[doc = concat!("Writes a `", stringify!($ty), "` member.")]
        pub fn $name(&mut self, key: &str, v: $ty) -> &mut Self {
            self.key(key);
            $write(self.out, v);
            self
        }

        #[doc = concat!("Writes a `", stringify!($ty), "` member when present.")]
        pub fn $opt(&mut self, key: &str, v: Option<$ty>) -> &mut Self {
            if let Some(v) = v {
                self.$name(key, v);
            }
            self
        }

        #[doc = concat!("Appends a `", stringify!($ty), "` array element.")]
        pub fn $push(&mut self, v: $ty) -> &mut Self {
            self.separate();
            $write(self.out, v);
            self
        }

        #[doc = concat!("Writes an array-of-`", stringify!($ty), "` member.")]
        pub fn $array(&mut self, key: &str, vs: &[$ty]) -> &mut Self {
            self.begin_array(key);
            for &v in vs {
                self.$push(v);
            }
            self.end_array()
        }
    )*};
}

impl<'o> Writer<'o> {
    /// Opens an object in the compact layout: no whitespace at all.
    pub fn compact(out: &'o mut String) -> Self {
        out.push('{');
        Writer {
            out,
            indented: false,
            depth: 1,
            first: true,
        }
    }

    /// Opens an object in the indented layout.
    pub fn indented(out: &'o mut String) -> Self {
        Writer {
            indented: true,
            ..Writer::compact(out)
        }
    }

    /// Closes the root object. No newline follows it.
    pub fn finish(mut self) {
        self.close('}');
    }

    /// Starts a member or element: a comma after the first, and in the
    /// indented layout a fresh line.
    fn separate(&mut self) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.newline();
    }

    fn newline(&mut self) {
        if self.indented {
            self.out.push('\n');
            for _ in 0..self.depth {
                self.out.push_str("  ");
            }
        }
    }

    fn key(&mut self, key: &str) {
        self.separate();
        write_string(self.out, key);
        self.out.push_str(if self.indented { ": " } else { ":" });
    }

    fn open(&mut self, bracket: char) -> &mut Self {
        self.out.push(bracket);
        self.depth += 1;
        self.first = true;
        self
    }

    fn close(&mut self, bracket: char) -> &mut Self {
        self.depth = self.depth.saturating_sub(1);
        if !self.first {
            self.newline();
        }
        self.out.push(bracket);
        self.first = false;
        self
    }

    scalar_writers! {
        f64, opt_f64, push_f64, f64_array: f64 => write_f64;
        u64, opt_u64, push_u64, u64_array: u64 => write_uint;
        u32, opt_u32, push_u32, u32_array: u32 => write_uint;
        usize, opt_usize, push_usize, usize_array: usize => write_uint;
        bool, opt_bool, push_bool, bool_array: bool => write_bool;
        str, opt_str, push_str, str_array: &str => write_string;
    }

    /// Opens an object member; close it with [`end_object`](Self::end_object).
    pub fn begin_object(&mut self, key: &str) -> &mut Self {
        self.key(key);
        self.open('{')
    }

    /// Opens an array member; close it with [`end_array`](Self::end_array).
    pub fn begin_array(&mut self, key: &str) -> &mut Self {
        self.key(key);
        self.open('[')
    }

    /// Opens an object element; close it with [`end_object`](Self::end_object).
    pub fn push_object(&mut self) -> &mut Self {
        self.separate();
        self.open('{')
    }

    /// Opens an array element; close it with [`end_array`](Self::end_array).
    pub fn push_array(&mut self) -> &mut Self {
        self.separate();
        self.open('[')
    }

    /// Closes the innermost open object.
    pub fn end_object(&mut self) -> &mut Self {
        self.close('}')
    }

    /// Closes the innermost open array.
    pub fn end_array(&mut self) -> &mut Self {
        self.close(']')
    }
}

// --- values ---------------------------------------------------------------

/// A parsed JSON value. Numbers keep their source text; strings and keys
/// borrow from the input unless they contain escapes.
#[derive(Debug, Clone, PartialEq)]
pub enum Value<'a> {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, as its grammar-checked source text.
    Number(&'a str),
    /// A string, unescaped.
    String(Cow<'a, str>),
    /// An array.
    Array(Vec<Value<'a>>),
    /// An object.
    Object(Record<'a>),
}

impl<'a> Value<'a> {
    /// The value as a float: a number, or NaN for `null`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(text) => text.parse().ok(),
            Value::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// The value as an unsigned integer that fits `T`; a sign, fraction
    /// or exponent makes it no integer.
    pub fn as_uint<T: TryFrom<u64>>(&self) -> Option<T> {
        match self {
            Value::Number(text) => text.parse::<u64>().ok()?.try_into().ok(),
            _ => None,
        }
    }

    /// The value as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array.
    pub fn as_array(&self) -> Option<&[Value<'a>]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as an object.
    pub fn as_object(&self) -> Option<&Record<'a>> {
        match self {
            Value::Object(record) => Some(record),
            _ => None,
        }
    }
}

/// One parsed object: its members in input order and where it starts.
/// The typed readers look a key up (first occurrence wins); a float field
/// holding `null` reads as NaN.
#[derive(Debug, Clone, PartialEq)]
pub struct Record<'a> {
    fields: Vec<(Cow<'a, str>, Value<'a>)>,
    line: usize,
    column: usize,
}

/// Declares, per field type, the required reader and its optional twin
/// (absent is `None`); both name the field in every error.
macro_rules! field_readers {
    ($($name:ident, $opt:ident: $ty:ty = $what:literal via $convert:path;)*) => {$(
        #[doc = concat!("A required field holding ", $what, ".")]
        pub fn $name(&self, key: &str) -> Result<$ty, JsonError> {
            let v = self.$opt(key)?;
            v.ok_or_else(|| self.error(format!("missing field `{key}`")))
        }

        #[doc = concat!("An optional field holding ", $what, ".")]
        pub fn $opt(&self, key: &str) -> Result<Option<$ty>, JsonError> {
            self.read(key, $what, $convert)
        }
    )*};
}

impl<'a> Record<'a> {
    /// The value under `key`, if present.
    pub fn get(&self, key: &str) -> Option<&Value<'a>> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// A schema error located at this object.
    pub fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            line: self.line,
            column: self.column,
            message: message.into(),
        }
    }

    fn read<'s, T>(
        &'s self,
        key: &str,
        what: &str,
        convert: impl Fn(&'s Value<'a>) -> Option<T>,
    ) -> Result<Option<T>, JsonError> {
        let Some(value) = self.get(key) else {
            return Ok(None);
        };
        match convert(value) {
            Some(v) => Ok(Some(v)),
            None => Err(self.error(format!("field `{key}`: expected {what}"))),
        }
    }

    field_readers! {
        f64, opt_f64: f64 = "a number" via Value::as_f64;
        u64, opt_u64: u64 = "an unsigned integer" via Value::as_uint::<u64>;
        u32, opt_u32: u32 = "a u32" via Value::as_uint::<u32>;
        usize, opt_usize: usize = "a usize" via Value::as_uint::<usize>;
        bool, opt_bool: bool = "a boolean" via Value::as_bool;
        str, opt_str: &str = "a string" via Value::as_str;
        array, opt_array: &[Value<'a>] = "an array" via Value::as_array;
        object, opt_object: &Record<'a> = "an object" via Value::as_object;
    }

    fn typed_array<T>(
        &self,
        key: &str,
        what: &str,
        convert: impl Fn(&Value<'a>) -> Option<T>,
    ) -> Result<Vec<T>, JsonError> {
        let items = self.array(key)?.iter().enumerate();
        items
            .map(|(i, item)| {
                let bad = || self.error(format!("field `{key}`[{i}]: expected {what}"));
                convert(item).ok_or_else(bad)
            })
            .collect()
    }

    /// A required array of floats.
    pub fn f64_array(&self, key: &str) -> Result<Vec<f64>, JsonError> {
        self.typed_array(key, "a number", Value::as_f64)
    }

    /// A required array of `u32`s.
    pub fn u32_array(&self, key: &str) -> Result<Vec<u32>, JsonError> {
        self.typed_array(key, "a u32", Value::as_uint::<u32>)
    }
}

// --- parsing --------------------------------------------------------------

/// Parses one whole JSON document; only whitespace may follow the value.
///
/// # Errors
///
/// A [`JsonError`] at the first byte that breaks the grammar.
pub fn parse(text: &str) -> Result<Value<'_>, JsonError> {
    Parser::new(text, 1).document()
}

/// Parses line `line` of a record-per-line format, which must hold
/// exactly one JSON object; errors are reported at `line`.
///
/// # Errors
///
/// A [`JsonError`] when the line is not exactly one well-formed object.
pub fn parse_record(text: &str, line: usize) -> Result<Record<'_>, JsonError> {
    match Parser::new(text, line).document()? {
        Value::Object(record) => Ok(record),
        _ => Err(JsonError {
            line,
            column: 1,
            message: "expected a JSON object".into(),
        }),
    }
}

/// The non-blank lines of a record-per-line text, each parsed by
/// [`parse_record`] on demand — no tree of the whole text is ever held.
pub fn records(text: &str) -> impl Iterator<Item = Result<Record<'_>, JsonError>> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(idx, line)| parse_record(line, idx + 1))
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    line: usize,
    line_start: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str, line: usize) -> Self {
        Parser {
            text,
            pos: 0,
            line,
            line_start: 0,
            depth: 0,
        }
    }

    fn column(&self) -> usize {
        self.pos - self.line_start + 1
    }

    fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            line: self.line,
            column: self.column(),
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Consumes `b` if it is next.
    fn eat(&mut self, b: u8) -> bool {
        let found = self.peek() == Some(b);
        self.pos += usize::from(found);
        found
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.peek() {
            match b {
                b' ' | b'\t' | b'\r' => {}
                b'\n' => {
                    self.line += 1;
                    self.line_start = self.pos + 1;
                }
                _ => break,
            }
            self.pos += 1;
        }
    }

    /// One value; only whitespace may follow it.
    fn document(mut self) -> Result<Value<'a>, JsonError> {
        let value = self.value()?;
        self.skip_ws();
        match self.peek() {
            None => Ok(value),
            Some(_) => Err(self.error("trailing characters after the value")),
        }
    }

    fn value(&mut self) -> Result<Value<'a>, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object().map(Value::Object),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Value::String),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("expected a value")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: Value<'a>) -> Result<Value<'a>, JsonError> {
        for b in word.bytes() {
            if !self.eat(b) {
                return Err(self.error(format!("expected `{word}`")));
            }
        }
        Ok(value)
    }

    /// Steps into a container at its opening bracket. Returns whether it
    /// is empty (and then already closed).
    fn enter(&mut self, close: u8) -> Result<bool, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.pos += 1;
        self.skip_ws();
        let empty = self.eat(close);
        self.depth += usize::from(!empty);
        Ok(empty)
    }

    /// After a member or element: `,` continues the container, `close`
    /// ends it. Returns whether it ended.
    fn next_or_close(&mut self, close: u8) -> Result<bool, JsonError> {
        self.skip_ws();
        if self.eat(b',') {
            return Ok(false);
        }
        if self.eat(close) {
            self.depth -= 1;
            return Ok(true);
        }
        Err(self.error(format!("expected `,` or `{}`", char::from(close))))
    }

    fn object(&mut self) -> Result<Record<'a>, JsonError> {
        let (line, column) = (self.line, self.column());
        let mut fields = Vec::new();
        let mut done = self.enter(b'}')?;
        while !done {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.error("expected a string key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return Err(self.error("expected `:`"));
            }
            fields.push((key, self.value()?));
            done = self.next_or_close(b'}')?;
        }
        Ok(Record {
            fields,
            line,
            column,
        })
    }

    fn array(&mut self) -> Result<Value<'a>, JsonError> {
        let mut items = Vec::new();
        let mut done = self.enter(b']')?;
        while !done {
            items.push(self.value()?);
            done = self.next_or_close(b']')?;
        }
        Ok(Value::Array(items))
    }

    /// A string literal at its opening quote. Every byte the scan stops
    /// at is ASCII, so the slices fall on character boundaries.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.pos += 1;
        let mut owned: Option<String> = None;
        let mut run = self.pos;
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => break,
                Some(b'\\') => {
                    let s = owned.get_or_insert_with(String::new);
                    s.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    s.push(self.escape()?);
                    run = self.pos;
                }
                Some(0..=0x1f) => return Err(self.error("raw control character in string")),
                Some(_) => self.pos += 1,
            }
        }
        let tail = &self.text[run..self.pos];
        self.pos += 1;
        Ok(match owned {
            None => Cow::Borrowed(tail),
            Some(s) => Cow::Owned(s + tail),
        })
    }

    /// Decodes one escape after its backslash.
    fn escape(&mut self) -> Result<char, JsonError> {
        let Some(b) = self.peek() else {
            return Err(self.error("unterminated string"));
        };
        self.pos += 1;
        let c = match b {
            b'"' | b'\\' | b'/' => char::from(b),
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let high = self.hex4()?;
                let code = match high {
                    0xD800..=0xDBFF if self.eat(b'\\') && self.eat(b'u') => {
                        let low = self.hex4()?;
                        if !(0xDC00..=0xDFFF).contains(&low) {
                            return Err(self.error("lone surrogate"));
                        }
                        0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
                    }
                    0xD800..=0xDFFF => return Err(self.error("lone surrogate")),
                    _ => high,
                };
                char::from_u32(code).ok_or_else(|| self.error("invalid \\u escape"))?
            }
            _ => {
                self.pos -= 1;
                return Err(self.error("invalid escape"));
            }
        };
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0;
        for _ in 0..4 {
            let digit = self.peek().and_then(|b| char::from(b).to_digit(16));
            let digit = digit.ok_or_else(|| self.error("expected four hex digits"))?;
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    /// One or more digits; returns how many.
    fn digits(&mut self) -> Result<usize, JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.error("expected a digit"));
        }
        Ok(self.pos - start)
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`, finite.
    fn number(&mut self) -> Result<Value<'a>, JsonError> {
        let start = self.pos;
        self.eat(b'-');
        let int_digits = if self.eat(b'0') {
            if matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("leading zeros are not allowed"));
            }
            1
        } else {
            self.digits()?
        };
        if self.eat(b'.') {
            self.digits()?;
        }
        let exponent = self.eat(b'e') || self.eat(b'E');
        if exponent {
            let _ = self.eat(b'+') || self.eat(b'-');
            self.digits()?;
        }
        let text = &self.text[start..self.pos];
        // Without an exponent, only a 309-digit integer part reaches
        // f64::MAX; the writer never emits exponents, so snapshots never
        // pay for this parse.
        if (exponent || int_digits > 308) && !text.parse::<f64>().is_ok_and(f64::is_finite) {
            self.pos = start;
            return Err(self.error("number overflows to infinity"));
        }
        Ok(Value::Number(text))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compact(build: impl FnOnce(&mut Writer<'_>)) -> String {
        let mut out = String::new();
        let mut w = Writer::compact(&mut out);
        build(&mut w);
        w.finish();
        out
    }

    #[test]
    fn compact_layout_has_no_whitespace() {
        let text = compact(|w| {
            w.str("kind", "x")
                .u64("n", 18_446_744_073_709_551_615)
                .opt_u32("absent", None)
                .f64("nan", f64::NAN)
                .f64_array("xs", &[0.5, -0.0])
                .u32_array("empty", &[]);
        });
        assert_eq!(
            text,
            "{\"kind\":\"x\",\"n\":18446744073709551615,\"nan\":null,\"xs\":[0.5,-0],\"empty\":[]}"
        );
    }

    #[test]
    fn indented_layout_puts_one_member_per_line() {
        let mut out = String::new();
        let mut w = Writer::indented(&mut out);
        w.bool("ok", true).begin_array("items");
        w.push_object().str("a", "b").end_object();
        w.push_array().push_u64(1).push_f64(2.5).end_array();
        w.end_array().begin_object("empty").end_object();
        w.finish();
        assert_eq!(
            out,
            "{\n  \"ok\": true,\n  \"items\": [\n    {\n      \"a\": \"b\"\n    },\n    [\n      1,\n      2.5\n    ]\n  ],\n  \"empty\": {}\n}"
        );
        let doc = parse(&out).expect("indented output parses");
        let root = doc.as_object().expect("object root");
        assert_eq!(root.array("items").map(<[_]>::len), Ok(2));
        assert_eq!(root.object("empty").map(|r| r.error("x").line), Ok(12));
    }

    #[test]
    fn typed_readers_name_the_field() {
        let record = parse_record("{\"a\":1.5,\"b\":null,\"c\":[1,2]}", 4).expect("parses");
        assert_eq!(record.f64("a"), Ok(1.5));
        assert!(record.f64("b").expect("null is NaN").is_nan());
        assert_eq!(record.opt_u64("missing"), Ok(None));
        assert_eq!(record.u32_array("c"), Ok(vec![1, 2]));
        let err = record.u64("a").expect_err("1.5 is not an integer");
        assert_eq!((err.line, err.column), (4, 1));
        assert!(err.message.contains("`a`"), "{err}");
        let err = record.str("missing").expect_err("absent");
        assert!(err.message.contains("missing field `missing`"), "{err}");
    }

    #[test]
    fn errors_locate_line_and_column() {
        let err = parse("{\n  \"a\": 01\n}").expect_err("leading zero");
        assert_eq!((err.line, err.column), (2, 9));
        let err = parse_record("{\"a\":1}x", 7).expect_err("trailing");
        assert_eq!((err.line, err.column), (7, 8));
    }
}
