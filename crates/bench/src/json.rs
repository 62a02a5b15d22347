//! Dependency-free JSON codec for the experiment reports.
//!
//! `fnp-bench <experiment> --json <path>` writes the rows, the parameters
//! and the wall-clock timing as a pretty-printed JSON document. The codec
//! is deliberately tiny (the build is offline, so no serde): a [`Json`]
//! value tree, a deterministic pretty-printer with one key per line, and
//! the [`ToJson`] trait each experiment module implements for its row type.
//!
//! Determinism matters here: the golden test and the CI smoke job diff
//! reports (ignoring the `wall_clock_ms` line), so everything except the
//! timing must be byte-identical across invocations. Rust's default float
//! formatting (shortest round-trip representation) provides exactly that.
//!
//! Reading is **one lexer, two consumers**. [`Reader`] is a pull lexer over
//! a `&str`: it hands out scalars and container brackets one at a time,
//! strings as slices of the input unless they contain an escape, integers
//! accumulated in place, and it is the only code here that scans JSON. The
//! *tree* consumer, [`Json::parse`], builds a [`Json`] from it — what the
//! reports and the repo benchmark's report comparison read. *Typed*
//! consumers read straight into their own types without a tree:
//! `fnp-node`'s wire codec picks the few integers of an event line out of
//! the same lexer and writes its output lines through [`write_escaped`],
//! the escaper the printers here use.

use std::borrow::Cow;
use std::fmt::{self, Write as _};
use std::io::Write as _;
use std::path::Path;
use std::time::Duration;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer (serialised without decimal point).
    Int(i64),
    /// An unsigned integer (serialised without decimal point).
    UInt(u64),
    /// A finite float; non-finite values serialise as `null`.
    Num(f64),
    /// A string (escaped on output).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved as inserted.
    Obj(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(value: bool) -> Self {
        Json::Bool(value)
    }
}
impl From<i64> for Json {
    fn from(value: i64) -> Self {
        Json::Int(value)
    }
}
impl From<u64> for Json {
    fn from(value: u64) -> Self {
        Json::UInt(value)
    }
}
impl From<usize> for Json {
    fn from(value: usize) -> Self {
        Json::UInt(value as u64)
    }
}
impl From<u32> for Json {
    fn from(value: u32) -> Self {
        Json::UInt(u64::from(value))
    }
}
impl From<f64> for Json {
    fn from(value: f64) -> Self {
        Json::Num(value)
    }
}
impl From<&str> for Json {
    fn from(value: &str) -> Self {
        Json::Str(value.to_string())
    }
}
impl From<String> for Json {
    fn from(value: String) -> Self {
        Json::Str(value)
    }
}
impl From<Vec<Json>> for Json {
    fn from(value: Vec<Json>) -> Self {
        Json::Arr(value)
    }
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>, V: Into<Json>>(pairs: impl IntoIterator<Item = (K, V)>) -> Self {
        Json::Obj(
            pairs
                .into_iter()
                .map(|(key, value)| (key.into(), value.into()))
                .collect(),
        )
    }

    /// Builds an array from values convertible into [`Json`].
    pub fn arr<V: Into<Json>>(items: impl IntoIterator<Item = V>) -> Self {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// Builds an array by converting each row with [`ToJson`].
    pub fn rows<'a, T: ToJson + 'a>(rows: impl IntoIterator<Item = &'a T>) -> Self {
        Json::Arr(rows.into_iter().map(ToJson::to_json).collect())
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        const STEP: usize = 2;
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(value) => out.push_str(if *value { "true" } else { "false" }),
            Json::Int(value) => push_display(out, value),
            Json::UInt(value) => push_display(out, value),
            // Shortest round-trip representation; deterministic.
            Json::Num(value) if value.is_finite() => push_display(out, value),
            Json::Num(_) => out.push_str("null"),
            Json::Str(value) => write_escaped(out, value),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (index, item) in items.iter().enumerate() {
                    if index > 0 {
                        out.push(',');
                    }
                    push_line_break(out, indent + STEP);
                    item.write_pretty(out, indent + STEP);
                }
                push_line_break(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (index, (key, value)) in pairs.iter().enumerate() {
                    if index > 0 {
                        out.push(',');
                    }
                    push_line_break(out, indent + STEP);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write_pretty(out, indent + STEP);
                }
                push_line_break(out, indent);
                out.push('}');
            }
        }
    }

    /// Serialises the value as pretty-printed JSON (two-space indent, one
    /// key per line, trailing newline).
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    /// Parses a JSON document.
    ///
    /// Numbers with neither fraction nor exponent parse as
    /// [`Json::Int`]/[`Json::UInt`] (matching what the printer emits);
    /// everything else numeric becomes [`Json::Num`]. A round-trip through
    /// [`Json::to_pretty_string`] and back is lossless for every value this
    /// module can print.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] describing the offending byte offset for
    /// malformed input (including trailing garbage after the document).
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut reader = Reader::new(text);
        let value = Json::read(&mut reader)?;
        reader.finish()?;
        Ok(value)
    }

    /// Builds the tree of the value `reader` stands before.
    fn read(reader: &mut Reader<'_>) -> Result<Json, ParseError> {
        Ok(match reader.value()? {
            Value::Null => Json::Null,
            Value::Bool(value) => Json::Bool(value),
            Value::UInt(value) => Json::UInt(value),
            Value::Int(value) => Json::Int(value),
            Value::Num(value) => Json::Num(value),
            Value::Str(value) => Json::Str(value.into_owned()),
            Value::Arr => {
                let mut items = Vec::new();
                while reader.more(b']')? {
                    items.push(Json::read(reader)?);
                }
                Json::Arr(items)
            }
            Value::Obj => {
                let mut pairs = Vec::new();
                while reader.more(b'}')? {
                    let key = reader.key()?.into_owned();
                    pairs.push((key, Json::read(reader)?));
                }
                Json::Obj(pairs)
            }
        })
    }

    /// Borrowing lookup of an object key (`None` for non-objects and
    /// missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs
                .iter()
                .find(|(name, _)| name == key)
                .map(|(_, value)| value),
            _ => None,
        }
    }

    /// The string content, if this is a string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(value) => Some(value),
            _ => None,
        }
    }

    /// The numeric content as a `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(value) => Some(*value),
            Json::Int(value) => u64::try_from(*value).ok(),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Arr(items) => {
                out.push('[');
                for (index, item) in items.iter().enumerate() {
                    if index > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (index, (key, value)) in pairs.iter().enumerate() {
                    if index > 0 {
                        out.push(',');
                    }
                    write_escaped(out, key);
                    out.push(':');
                    value.write_compact(out);
                }
                out.push('}');
            }
            // Scalars print identically in both modes.
            scalar => scalar.write_pretty(out, 0),
        }
    }

    /// Serialises the value on a single line with no whitespace — the
    /// framing needed by line-delimited JSON transports such as `fnp-node`.
    pub fn to_compact_string(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }
}

/// Error produced by [`Reader`], and so by [`Json::parse`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset at which parsing failed.
    pub offset: usize,
    /// Human-readable description of the problem.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Containers may nest this deep; a deeper document is a [`ParseError`]
/// rather than a stack overflow in whoever recurses over it.
const MAX_DEPTH: u32 = 128;

/// What [`Reader::value`] found: a scalar read in full, or a container
/// whose opening bracket was consumed and whose contents the caller now
/// walks with [`Reader::more`].
#[derive(Clone, Debug, PartialEq)]
pub enum Value<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer in `0..=u64::MAX`.
    UInt(u64),
    /// A negative integer down to `i64::MIN` (and `-0`).
    Int(i64),
    /// Any other number: a fraction, an exponent, or an integer outside
    /// both ranges above.
    Num(f64),
    /// A string: a slice of the input unless it contained an escape.
    Str(Cow<'a, str>),
    /// `[` was consumed; the items follow.
    Arr,
    /// `{` was consumed; the pairs follow.
    Obj,
}

impl Value<'_> {
    /// The numeric content as a `u64`, if this is a non-negative integer
    /// (the rule of [`Json::as_u64`]).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(value) => Some(*value),
            Value::Int(value) => u64::try_from(*value).ok(),
            _ => None,
        }
    }
}

/// A pull lexer over one JSON document: the only scanner in this module.
///
/// The caller drives the grammar and the reader checks it. [`Reader::value`]
/// reads one scalar or opens one container; inside a container,
/// [`Reader::more`] answers "is there another item?" (consuming the comma
/// or the closing bracket) and, in an object, [`Reader::key`] reads the
/// `"key":` before each value. [`Reader::skip_value`] walks over a value
/// nobody wants, holding it to the same grammar, and [`Reader::finish`]
/// rejects anything after the document.
///
/// ```
/// use fnp_bench::json::{Reader, Value};
///
/// let mut reader = Reader::new(r#"{"at": 3, "junk": [1, {"x": null}]}"#);
/// assert_eq!(reader.value()?, Value::Obj);
/// let mut at = None;
/// while reader.more(b'}')? {
///     match &*reader.key()? {
///         "at" => at = reader.value()?.as_u64(),
///         _ => reader.skip_value()?,
///     }
/// }
/// reader.finish()?;
/// assert_eq!(at, Some(3));
/// # Ok::<(), fnp_bench::json::ParseError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Open containers.
    depth: u32,
    /// A bracket was opened and [`Reader::more`] has not looked past it
    /// yet: the closing bracket may follow directly, a comma may not.
    fresh: bool,
}

impl<'a> Reader<'a> {
    /// Starts reading `text`.
    #[must_use]
    pub fn new(text: &'a str) -> Self {
        Self {
            text,
            pos: 0,
            depth: 0,
            fresh: false,
        }
    }

    #[cold]
    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Consumes `byte` if it is next.
    fn eat(&mut self, byte: u8) -> bool {
        let found = self.peek() == Some(byte);
        self.pos += usize::from(found);
        found
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    #[inline(never)]
    fn literal(&mut self, text: &str, value: Value<'a>) -> Result<Value<'a>, ParseError> {
        if self.text.as_bytes()[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected {text:?}")))
        }
    }

    /// Reads the next value: a scalar in full, or the opening bracket of a
    /// container ([`Value::Arr`] / [`Value::Obj`]), whose contents are then
    /// the caller's to walk with [`Reader::more`].
    ///
    /// Numbers with neither fraction nor exponent read as
    /// [`Value::UInt`] / [`Value::Int`] where they fit, everything else
    /// numeric as [`Value::Num`].
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] at the first byte that cannot start or
    /// continue a JSON value, or when containers nest deeper than 128.
    pub fn value(&mut self) -> Result<Value<'a>, ParseError> {
        self.skip_whitespace();
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.open(Value::Arr),
            Some(b'{') => self.open(Value::Obj),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn open(&mut self, container: Value<'a>) -> Result<Value<'a>, ParseError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.pos += 1;
        self.depth += 1;
        self.fresh = true;
        Ok(container)
    }

    /// Inside the container that ends with `close` (`b']'` or `b'}'`):
    /// whether another item follows. Consumes the separating comma, or the
    /// closing bracket when it answers `false`.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] when neither a comma nor `close` follows an
    /// item (so a trailing comma is an error at whatever follows it).
    #[inline]
    pub fn more(&mut self, close: u8) -> Result<bool, ParseError> {
        self.skip_whitespace();
        let another = if std::mem::take(&mut self.fresh) {
            !self.eat(close)
        } else if self.eat(b',') {
            true
        } else if self.eat(close) {
            false
        } else if close == b']' {
            return Err(self.error("expected ',' or ']' in array"));
        } else {
            return Err(self.error("expected ',' or '}' in object"));
        };
        self.depth = self.depth.saturating_sub(u32::from(!another));
        Ok(another)
    }

    /// Reads an object key and the colon after it.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] when the next token is not a string
    /// followed by `:`.
    #[inline]
    pub fn key(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.skip_whitespace();
        let key = self.string()?;
        self.skip_whitespace();
        if self.eat(b':') {
            Ok(key)
        } else {
            Err(self.error("expected ':'"))
        }
    }

    /// Walks over what `opened` left unread: nothing for a scalar, the
    /// items through the closing bracket for a container just returned by
    /// [`Reader::value`]. Every byte is held to the grammar.
    ///
    /// # Errors
    ///
    /// Returns the [`ParseError`] that reading the same bytes with
    /// [`Reader::value`] would.
    #[inline]
    pub fn skip_rest(&mut self, opened: &Value<'_>) -> Result<(), ParseError> {
        match opened {
            Value::Arr => self.skip_items(b']'),
            Value::Obj => self.skip_items(b'}'),
            _ => Ok(()),
        }
    }

    fn skip_items(&mut self, close: u8) -> Result<(), ParseError> {
        while self.more(close)? {
            if close == b'}' {
                self.key()?;
            }
            self.skip_value()?;
        }
        Ok(())
    }

    /// Reads the next value and discards it, contents included.
    ///
    /// # Errors
    ///
    /// Returns the [`ParseError`] that reading the same bytes with
    /// [`Reader::value`] would.
    #[inline]
    pub fn skip_value(&mut self) -> Result<(), ParseError> {
        let value = self.value()?;
        self.skip_rest(&value)
    }

    /// Ends the document: only whitespace may remain.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] at the first trailing character.
    #[inline]
    pub fn finish(mut self) -> Result<(), ParseError> {
        self.skip_whitespace();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(self.error("trailing characters after JSON document"))
        }
    }

    /// Advances past the next `"` or `\` of a string's content and returns
    /// which it was. Both are ASCII, so a run between two stops is whole
    /// characters of the input (already UTF-8, being a `&str`).
    fn scan_run(&mut self) -> Result<u8, ParseError> {
        let bytes = self.text.as_bytes();
        while let Some(&byte) = bytes.get(self.pos) {
            self.pos += 1;
            if byte == b'"' || byte == b'\\' {
                return Ok(byte);
            }
        }
        Err(self.error("unterminated string"))
    }

    /// Reads a string: a slice of the input unless it contains an escape.
    fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        if !self.eat(b'"') {
            return Err(self.error("expected '\"'"));
        }
        let start = self.pos;
        if self.scan_run()? == b'"' {
            Ok(Cow::Borrowed(&self.text[start..self.pos - 1]))
        } else {
            self.decode_string(start)
        }
    }

    /// The rest of a string that began at `start` and whose first `\` was
    /// just consumed: only from here on is a string copied.
    #[cold]
    fn decode_string(&mut self, start: usize) -> Result<Cow<'a, str>, ParseError> {
        let mut decoded = String::from(&self.text[start..self.pos - 1]);
        loop {
            decoded.push(self.escape()?);
            let run = self.pos;
            let stop = self.scan_run()?;
            decoded.push_str(&self.text[run..self.pos - 1]);
            if stop == b'"' {
                return Ok(Cow::Owned(decoded));
            }
        }
    }

    /// Decodes one escape sequence, the `\` already consumed.
    fn escape(&mut self) -> Result<char, ParseError> {
        let Some(escape) = self.peek() else {
            return Err(self.error("unterminated escape"));
        };
        self.pos += 1;
        Ok(match escape {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'u' => {
                let unit = self.hex_unit()?;
                let code_point = match unit {
                    // High surrogate: must pair with a low one to form a
                    // supplementary code point.
                    0xd800..=0xdbff => {
                        if !self.text.as_bytes()[self.pos..].starts_with(b"\\u") {
                            return Err(self.error("unpaired high surrogate"));
                        }
                        self.pos += 2;
                        let low = self.hex_unit()?;
                        if !(0xdc00..=0xdfff).contains(&low) {
                            return Err(self.error("invalid low surrogate"));
                        }
                        0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00)
                    }
                    0xdc00..=0xdfff => return Err(self.error("unpaired low surrogate")),
                    scalar => scalar,
                };
                char::from_u32(code_point).ok_or_else(|| self.error("invalid \\u escape"))?
            }
            other => {
                return Err(self.error(format!("unsupported escape '\\{}'", other as char)));
            }
        })
    }

    /// Parses the four hex digits of a `\u` escape (the `\u` itself already
    /// consumed), returning the UTF-16 code unit.
    fn hex_unit(&mut self) -> Result<u32, ParseError> {
        // `str::get` also refuses a range that would split a character.
        let unit = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|hex| hex.bytes().all(|digit| digit.is_ascii_hexdigit()))
            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
            .ok_or_else(|| self.error("invalid \\u escape"))?;
        self.pos += 4;
        Ok(unit)
    }

    /// Consumes a non-empty digit run, erroring on an empty one (JSON
    /// requires at least one digit in every numeric component). Returns
    /// the run's length and its value modulo 2⁶⁴.
    fn digits(&mut self, part: &str) -> Result<(usize, u64), ParseError> {
        let start = self.pos;
        let mut value = 0u64;
        while let Some(digit @ b'0'..=b'9') = self.peek() {
            value = value.wrapping_mul(10).wrapping_add(u64::from(digit - b'0'));
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.error(format!("expected digits in number {part}")));
        }
        Ok((self.pos - start, value))
    }

    // Out of line, as is `literal`: inlined, their registers would be saved
    // and restored around every `value` call, strings and brackets included.
    #[inline(never)]
    fn number(&mut self) -> Result<Value<'a>, ParseError> {
        let start = self.pos;
        let negative = self.eat(b'-');
        let leading_zero = self.peek() == Some(b'0');
        let (integer_digits, magnitude) = self.digits("integer part")?;
        if leading_zero && integer_digits > 1 {
            return Err(self.error("leading zeros are not valid JSON"));
        }
        let mut integral = true;
        if self.eat(b'.') {
            integral = false;
            self.digits("fraction")?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            self.digits("exponent")?;
        }
        // Nineteen digits cannot overflow a u64: the common case is done.
        if integral && !negative && integer_digits <= 19 {
            return Ok(Value::UInt(magnitude));
        }
        let text = &self.text[start..self.pos];
        if integral {
            if let Ok(value) = text.parse::<u64>() {
                return Ok(Value::UInt(value));
            }
            if let Ok(value) = text.parse::<i64>() {
                return Ok(Value::Int(value));
            }
        }
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.error(format!("invalid number {text:?}")))
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_pretty_string())
    }
}

/// Appends `value` as `Display` prints it, with no `String` in between.
fn push_display(out: &mut String, value: impl fmt::Display) {
    write!(out, "{value}").expect("writing to a String cannot fail");
}

/// Starts a new line indented by `indent` spaces.
fn push_line_break(out: &mut String, indent: usize) {
    out.push('\n');
    out.extend(std::iter::repeat_n(' ', indent));
}

/// Appends `value` as a quoted JSON string, the way every printer of this
/// module escapes one: `"`, `\` and control characters, nothing else.
/// Public for line writers that format without building a [`Json`].
pub fn write_escaped(out: &mut String, value: &str) {
    out.push('"');
    // Everything that needs escaping is ASCII, so the stretches between
    // are whole characters and go over as slices.
    let mut clean_from = 0;
    for (index, byte) in value.bytes().enumerate() {
        let escape = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x00..=0x1f => "",
            _ => continue,
        };
        out.push_str(&value[clean_from..index]);
        if escape.is_empty() {
            push_display(out, format_args!("\\u{byte:04x}"));
        } else {
            out.push_str(escape);
        }
        clean_from = index + 1;
    }
    out.push_str(&value[clean_from..]);
    out.push('"');
}

/// Conversion of one experiment row into a [`Json`] object.
pub trait ToJson {
    /// The JSON representation of this row.
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

/// Writes one experiment report to `path`.
///
/// The document layout keeps `wall_clock_ms` on its own line so that
/// determinism checks can compare everything else byte for byte:
///
/// ```json
/// {
///   "experiment": "fig1_landscape",
///   "threads": 4,
///   "params": { ... },
///   "wall_clock_ms": 123.456,
///   "rows": [ ... ]
/// }
/// ```
///
/// # Errors
///
/// Propagates I/O errors from creating or writing the file.
pub fn write_report(
    path: &Path,
    experiment: &str,
    threads: usize,
    params: Json,
    rows: Json,
    wall_clock: Duration,
) -> std::io::Result<()> {
    let report = Json::Obj(vec![
        ("experiment".to_string(), Json::from(experiment)),
        ("threads".to_string(), Json::from(threads)),
        ("params".to_string(), params),
        (
            "wall_clock_ms".to_string(),
            Json::Num(wall_clock.as_secs_f64() * 1e3),
        ),
        ("rows".to_string(), rows),
    ]);
    let mut file = std::fs::File::create(path)?;
    file.write_all(report.to_pretty_string().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_serialize_as_json() {
        assert_eq!(Json::Null.to_pretty_string(), "null\n");
        assert_eq!(Json::from(true).to_pretty_string(), "true\n");
        assert_eq!(Json::from(3u64).to_pretty_string(), "3\n");
        assert_eq!(Json::from(-5i64).to_pretty_string(), "-5\n");
        assert_eq!(Json::from(1.5).to_pretty_string(), "1.5\n");
        // Whole floats print without a fractional part but stay valid JSON.
        assert_eq!(Json::from(2.0).to_pretty_string(), "2\n");
        assert_eq!(Json::Num(f64::NAN).to_pretty_string(), "null\n");
        assert_eq!(Json::Num(f64::INFINITY).to_pretty_string(), "null\n");
    }

    #[test]
    fn strings_are_escaped() {
        let tricky = "a\"b\\c\nd\te\u{1}";
        assert_eq!(
            Json::from(tricky).to_pretty_string(),
            "\"a\\\"b\\\\c\\nd\\te\\u0001\"\n"
        );
    }

    #[test]
    fn objects_and_arrays_pretty_print_one_key_per_line() {
        let value = Json::obj([
            ("name", Json::from("x")),
            ("items", Json::Arr(vec![Json::from(1u64), Json::from(2u64)])),
            ("empty", Json::Arr(vec![])),
            ("nested", Json::obj([("k", Json::from(0.25))])),
        ]);
        let expected = "{\n  \"name\": \"x\",\n  \"items\": [\n    1,\n    2\n  ],\n  \"empty\": [],\n  \"nested\": {\n    \"k\": 0.25\n  }\n}\n";
        assert_eq!(value.to_pretty_string(), expected);
    }

    #[test]
    fn serialization_is_deterministic() {
        let rows = crate::group_overlap_with(&crate::TrialRunner::sequential(), &[3, 5], &[1, 2]);
        let a = Json::rows(&rows).to_pretty_string();
        let b = Json::rows(&rows).to_pretty_string();
        assert_eq!(a, b);
        assert!(a.contains("\"group_size\": 3"));
    }

    #[test]
    fn parse_roundtrips_everything_the_printer_emits() {
        let value = Json::obj([
            ("null", Json::Null),
            ("flag", Json::from(true)),
            ("off", Json::from(false)),
            ("uint", Json::from(18_446_744_073_709_551_615u64)),
            ("int", Json::from(-42i64)),
            ("float", Json::from(0.125)),
            ("tricky", Json::from("a\"b\\c\nd\te\u{1}ü")),
            (
                "rows",
                Json::Arr(vec![
                    Json::obj([("k", Json::from(3u64))]),
                    Json::Arr(vec![]),
                ]),
            ),
            ("empty", Json::obj::<&str, Json>([])),
        ]);
        let text = value.to_pretty_string();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed, value);
        // And printing the parse yields the identical document again.
        assert_eq!(parsed.to_pretty_string(), text);
    }

    #[test]
    fn parse_handles_compact_and_exponent_forms() {
        let parsed = Json::parse(r#"{"a":[1,2.5,-3,1e3],"b":{"c":null}}"#).unwrap();
        assert_eq!(
            parsed.get("a"),
            Some(&Json::Arr(vec![
                Json::UInt(1),
                Json::Num(2.5),
                Json::Int(-3),
                Json::Num(1000.0),
            ]))
        );
        assert_eq!(parsed.get("b").and_then(|b| b.get("c")), Some(&Json::Null));
        assert_eq!(parsed.get("missing"), None);
        assert_eq!(Json::from("x").as_str(), Some("x"));
        assert_eq!(Json::Null.as_str(), None);
    }

    /// Documents no reader may accept.
    const MALFORMED: [&str; 20] = [
        "",
        "{",
        "[1,]",
        "{\"a\" 1}",
        "nul",
        "\"unterminated",
        "1 2",
        "{\"a\":1}extra",
        "\"bad \\q escape\"",
        // Non-JSON numeric forms must be rejected, not normalised.
        "1.",
        ".5",
        "5e",
        "01",
        "-01",
        "-",
        "2.e3",
        // Lone or mismatched surrogates.
        "\"\\ud83d\"",
        "\"\\ud83d x\"",
        "\"\\udc00\"",
        "\"\\ud83d\\ud83d\"",
    ];

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in MALFORMED {
            let err = Json::parse(bad).unwrap_err();
            assert!(!err.to_string().is_empty(), "{bad:?} should fail");
        }
    }

    /// Reads `text` the way a typed consumer discards a document.
    fn skip(text: &str) -> Result<(), ParseError> {
        let mut reader = Reader::new(text);
        reader.skip_value()?;
        reader.finish()
    }

    #[test]
    fn skipping_rejects_exactly_what_parsing_rejects() {
        let more = [
            r#"{"a":1,}"#,
            r#"{"a":[1,{"b":tru}]}"#,
            r#"["\u+123"]"#,
            r#"["\u12"]"#,
            r#"{"a":"\"#,
            "{1:2}",
            "[1 2]",
            r#"{"a":1 "b":2}"#,
        ];
        for bad in MALFORMED.iter().chain(&more) {
            // Same offset, same message: it is the same scanner.
            assert_eq!(
                skip(bad).unwrap_err(),
                Json::parse(bad).unwrap_err(),
                "{bad:?}"
            );
        }
        for good in [
            "null",
            " [ ] ",
            "{}",
            r#"{"a":[1,2.5e3,{"b":null,"c":[[],{}]}],"d":"\u00fc\n"}"#,
            "-0.5e+2",
        ] {
            assert_eq!(skip(good), Ok(()), "{good:?}");
            assert!(Json::parse(good).is_ok(), "{good:?}");
        }
    }

    #[test]
    fn nesting_is_bounded_by_an_error_not_by_the_stack() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(128)).is_ok());
        assert_eq!(skip(&nested(128)), Ok(()));
        let err = Json::parse(&nested(129)).unwrap_err();
        assert_eq!(
            (err.offset, err.message.as_str()),
            (128, "nesting deeper than 128")
        );
        assert_eq!(skip(&nested(129)), Err(err));
        // Depth is what is open at once, not how many were ever opened.
        assert!(Json::parse(&format!("[{}[]]", "[[]],".repeat(200))).is_ok());
        assert!(skip(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn strings_borrow_the_input_until_the_first_escape() {
        let read = |text| Reader::new(text).value();
        assert!(matches!(
            read("\"plain ü\u{1f600}\""),
            Ok(Value::Str(Cow::Borrowed("plain ü\u{1f600}")))
        ));
        assert!(matches!(read("\"\""), Ok(Value::Str(Cow::Borrowed("")))));
        // Multi-byte characters on both sides of each escape.
        match read(r#""ü😀\n\u00fc😀ü\\""#) {
            Ok(Value::Str(Cow::Owned(decoded))) => assert_eq!(decoded, "ü😀\nü😀ü\\"),
            other => panic!("an escaped string is decoded into its own buffer: {other:?}"),
        }
        // Keys are strings too.
        let mut reader = Reader::new(r#"{"key":1,"k\u0065y":2}"#);
        assert_eq!(reader.value(), Ok(Value::Obj));
        assert!(reader.more(b'}').unwrap());
        assert!(matches!(reader.key(), Ok(Cow::Borrowed("key"))));
        assert_eq!(reader.value(), Ok(Value::UInt(1)));
        assert!(reader.more(b'}').unwrap());
        assert!(matches!(reader.key(), Ok(Cow::Owned(key)) if key == "key"));
        assert_eq!(reader.value(), Ok(Value::UInt(2)));
        assert!(!reader.more(b'}').unwrap());
        assert_eq!(reader.finish(), Ok(()));
    }

    #[test]
    fn integers_keep_their_type_at_the_edges() {
        for (text, value) in [
            ("18446744073709551615", Json::UInt(u64::MAX)),
            (
                "18446744073709551616",
                Json::Num(18_446_744_073_709_551_616.0),
            ),
            ("9999999999999999999", Json::UInt(9_999_999_999_999_999_999)),
            (
                "10000000000000000000",
                Json::UInt(10_000_000_000_000_000_000),
            ),
            ("99999999999999999999", Json::Num(1e20)),
            ("-0", Json::Int(0)),
            ("-1", Json::Int(-1)),
            ("-9223372036854775808", Json::Int(i64::MIN)),
            (
                "-9223372036854775809",
                Json::Num(-9_223_372_036_854_775_809.0),
            ),
            ("0", Json::UInt(0)),
            ("1e0", Json::Num(1.0)),
        ] {
            assert_eq!(Json::parse(text).unwrap(), value, "{text}");
        }
        assert_eq!(Json::parse("-0").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn compact_form_is_single_line_and_roundtrips() {
        let value = Json::obj([
            ("type", Json::from("send")),
            ("to", Json::from(3u64)),
            ("items", Json::Arr(vec![Json::from(1u64), Json::Null])),
            ("empty", Json::obj::<&str, Json>([])),
        ]);
        let compact = value.to_compact_string();
        assert_eq!(
            compact,
            r#"{"type":"send","to":3,"items":[1,null],"empty":{}}"#
        );
        assert!(!compact.contains('\n'));
        assert_eq!(Json::parse(&compact).unwrap(), value);
    }

    #[test]
    fn scalar_accessors() {
        assert_eq!(Json::from(7u64).as_u64(), Some(7));
        assert_eq!(Json::Int(7).as_u64(), Some(7));
        assert_eq!(Json::Int(-1).as_u64(), None);
        assert_eq!(Json::from("7").as_u64(), None);
        let arr = Json::Arr(vec![Json::Null]);
        assert_eq!(arr.as_array(), Some(&[Json::Null][..]));
        assert_eq!(Json::Null.as_array(), None);
    }

    #[test]
    fn parse_decodes_surrogate_pairs() {
        assert_eq!(
            Json::parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::from("\u{1f600}")
        );
        assert_eq!(Json::parse("\"\\u00fc\"").unwrap(), Json::from("ü"));
        // Strict number forms still parse.
        assert_eq!(Json::parse("0").unwrap(), Json::UInt(0));
        assert_eq!(Json::parse("-0.5e+2").unwrap(), Json::Num(-50.0));
    }

    #[test]
    fn write_report_produces_the_documented_layout() {
        let dir = std::env::temp_dir().join("fnp_bench_json_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        write_report(
            &path,
            "unit_test",
            2,
            Json::obj([("n", Json::from(10u64))]),
            Json::Arr(vec![]),
            Duration::from_millis(5),
        )
        .unwrap();
        let contents = std::fs::read_to_string(&path).unwrap();
        assert!(contents.starts_with("{\n  \"experiment\": \"unit_test\""));
        assert!(contents.contains("\n  \"wall_clock_ms\": 5"));
        assert!(contents.contains("\n  \"rows\": []"));
        assert!(contents.ends_with("}\n"));
        std::fs::remove_file(&path).unwrap();
    }
}
