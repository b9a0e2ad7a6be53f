//! Minimal TOML subset codec for model/experiment spec files.
//!
//! The dependency policy for this reproduction admits no external TOML
//! crate, so the spec layer ([`crate::spec`]) carries its own hand-rolled
//! reader/writer for the subset the spec files actually use:
//!
//! * `[table]` headers (one level, no nesting, no dotted keys);
//! * `key = value` pairs with string (`"..."`), integer, float, boolean,
//!   and flat integer-array (`[1, 2, 3]`) values;
//! * `#` comments and blank lines.
//!
//! Duplicate tables and duplicate keys within a table are rejected — a
//! spec file that says two different things must fail loudly, not pick
//! one. Unknown keys are *not* rejected here; each consumer validates its
//! own table so error messages can name the offending section.
//!
//! # Example
//!
//! ```
//! use boosthd::toml::TomlDoc;
//!
//! let doc = TomlDoc::parse(
//!     "[model]\nkind = \"boost_hd\"\ndim_total = 4000\nlr = 0.035\n",
//! )?;
//! let model = doc.table("model").expect("section exists");
//! assert_eq!(model.get_str("kind")?, "boost_hd");
//! assert_eq!(model.get_usize("dim_total")?, 4000);
//! # Ok::<(), boosthd::BoostHdError>(())
//! ```

use crate::error::{BoostHdError, Result};
use std::fmt::Write as _;

fn toml_err(reason: impl Into<String>) -> BoostHdError {
    BoostHdError::InvalidConfig {
        reason: reason.into(),
    }
}

/// Most characters of an untrusted value an error message quotes.
const ECHO_LIMIT: usize = 48;

/// An untrusted value quoted for an error message: verbatim when short,
/// otherwise its first [`ECHO_LIMIT`] characters and its byte length, so
/// a huge value cannot become a huge error line.
fn echo(s: &str) -> String {
    match s.char_indices().nth(ECHO_LIMIT) {
        None => format!("`{s}`"),
        Some((end, _)) => format!("`{}…` ({} bytes)", &s[..end], s.len()),
    }
}

/// One parsed TOML value.
#[derive(Debug, Clone, PartialEq)]
pub enum TomlValue {
    /// A `"quoted"` string.
    Str(String),
    /// A decimal integer.
    Int(i64),
    /// A decimal integer above `i64::MAX` (seeds are full-range `u64`s).
    U64(u64),
    /// A float (any numeric literal containing `.`, `e`, `inf`, or `nan`).
    Float(f64),
    /// `true` / `false`.
    Bool(bool),
    /// A flat `[1, 2, 3]` integer array.
    IntArray(Vec<i64>),
    /// A flat `[0.0, 1e-5, 0.5]` float array (any element with a `.` or
    /// exponent promotes the whole array; severity grids go through this).
    FloatArray(Vec<f64>),
}

impl TomlValue {
    fn type_name(&self) -> &'static str {
        match self {
            TomlValue::Str(_) => "string",
            TomlValue::Int(_) | TomlValue::U64(_) => "integer",
            TomlValue::Float(_) => "float",
            TomlValue::Bool(_) => "boolean",
            TomlValue::IntArray(_) => "integer array",
            TomlValue::FloatArray(_) => "float array",
        }
    }
}

/// One `[name]` table: ordered `key = value` pairs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TomlTable {
    name: String,
    entries: Vec<(String, TomlValue)>,
}

impl TomlTable {
    /// The table's `[name]` (empty for the implicit root table).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The keys present, in file order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(k, _)| k.as_str())
    }

    /// Raw value lookup.
    pub fn get(&self, key: &str) -> Option<&TomlValue> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn require(&self, key: &str) -> Result<&TomlValue> {
        self.get(key).ok_or_else(|| {
            toml_err(format!(
                "missing key `{key}` in [{}]",
                if self.name.is_empty() {
                    "<root>"
                } else {
                    &self.name
                }
            ))
        })
    }

    fn wrong_type(&self, key: &str, want: &str, got: &TomlValue) -> BoostHdError {
        toml_err(format!(
            "key `{key}` in [{}] must be a {want}, got a {}",
            self.name,
            got.type_name()
        ))
    }

    /// String value of `key`.
    ///
    /// # Errors
    ///
    /// Fails if the key is missing or not a string.
    pub fn get_str(&self, key: &str) -> Result<&str> {
        match self.require(key)? {
            TomlValue::Str(s) => Ok(s),
            other => Err(self.wrong_type(key, "string", other)),
        }
    }

    /// Integer value of `key`.
    ///
    /// # Errors
    ///
    /// Fails if the key is missing, not an integer, or above `i64::MAX`.
    pub fn get_int(&self, key: &str) -> Result<i64> {
        match self.require(key)? {
            TomlValue::Int(v) => Ok(*v),
            TomlValue::U64(v) => Err(toml_err(format!(
                "key `{key}` in [{}] holds {v}, which overflows a signed integer",
                self.name
            ))),
            other => Err(self.wrong_type(key, "integer", other)),
        }
    }

    /// Non-negative integer value of `key` as a `usize`.
    ///
    /// # Errors
    ///
    /// Fails if the key is missing, not an integer, or negative.
    pub fn get_usize(&self, key: &str) -> Result<usize> {
        let v = self.get_int(key)?;
        usize::try_from(v).map_err(|_| {
            toml_err(format!(
                "key `{key}` in [{}] must be >= 0, got {v}",
                self.name
            ))
        })
    }

    /// `u64` value of `key` (full range; seeds go through this).
    ///
    /// # Errors
    ///
    /// Fails if the key is missing, not an integer, or negative.
    pub fn get_u64(&self, key: &str) -> Result<u64> {
        match self.require(key)? {
            TomlValue::U64(v) => Ok(*v),
            TomlValue::Int(v) => u64::try_from(*v).map_err(|_| {
                toml_err(format!(
                    "key `{key}` in [{}] must be >= 0, got {v}",
                    self.name
                ))
            }),
            other => Err(self.wrong_type(key, "integer", other)),
        }
    }

    /// Float value of `key` (integers are accepted and widened).
    ///
    /// # Errors
    ///
    /// Fails if the key is missing or not numeric.
    pub fn get_float(&self, key: &str) -> Result<f64> {
        match self.require(key)? {
            TomlValue::Float(v) => Ok(*v),
            TomlValue::Int(v) => Ok(*v as f64),
            TomlValue::U64(v) => Ok(*v as f64),
            other => Err(self.wrong_type(key, "float", other)),
        }
    }

    /// Boolean value of `key`.
    ///
    /// # Errors
    ///
    /// Fails if the key is missing or not a boolean.
    pub fn get_bool(&self, key: &str) -> Result<bool> {
        match self.require(key)? {
            TomlValue::Bool(v) => Ok(*v),
            other => Err(self.wrong_type(key, "boolean", other)),
        }
    }

    /// Float-array value of `key` (integer arrays are accepted and
    /// widened).
    ///
    /// # Errors
    ///
    /// Fails if the key is missing or not a numeric array.
    pub fn get_float_array(&self, key: &str) -> Result<Vec<f64>> {
        match self.require(key)? {
            TomlValue::FloatArray(vs) => Ok(vs.clone()),
            TomlValue::IntArray(vs) => Ok(vs.iter().map(|&v| v as f64).collect()),
            other => Err(self.wrong_type(key, "float array", other)),
        }
    }

    /// Integer-array value of `key` as `usize`s.
    ///
    /// # Errors
    ///
    /// Fails if the key is missing, not an array, or holds negatives.
    pub fn get_usize_array(&self, key: &str) -> Result<Vec<usize>> {
        match self.require(key)? {
            TomlValue::IntArray(vs) => vs
                .iter()
                .map(|&v| {
                    usize::try_from(v).map_err(|_| {
                        toml_err(format!(
                            "array `{key}` in [{}] must hold values >= 0, got {v}",
                            self.name
                        ))
                    })
                })
                .collect(),
            other => Err(self.wrong_type(key, "integer array", other)),
        }
    }
}

/// A parsed spec document: the implicit root table plus every `[table]`
/// section, in file order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TomlDoc {
    tables: Vec<TomlTable>,
}

impl TomlDoc {
    /// Parses the supported TOML subset (see the [module docs](self)).
    ///
    /// # Errors
    ///
    /// Returns [`BoostHdError::InvalidConfig`] with the offending line
    /// number for malformed headers, keys, values, or duplicates.
    pub fn parse(text: &str) -> Result<TomlDoc> {
        let mut tables = vec![TomlTable::default()];
        for (i, raw) in text.lines().enumerate() {
            let lineno = i + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('[') {
                let name = rest
                    .strip_suffix(']')
                    .ok_or_else(|| toml_err(format!("line {lineno}: unterminated table header")))?
                    .trim();
                if name.is_empty()
                    || !name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
                {
                    return Err(toml_err(format!(
                        "line {lineno}: invalid table name `{name}`"
                    )));
                }
                if tables.iter().any(|t| t.name == name) {
                    return Err(toml_err(format!("line {lineno}: duplicate table [{name}]")));
                }
                tables.push(TomlTable {
                    name: name.to_string(),
                    entries: Vec::new(),
                });
                continue;
            }
            let (key, value) = line.split_once('=').ok_or_else(|| {
                toml_err(format!(
                    "line {lineno}: expected `key = value` or `[table]`"
                ))
            })?;
            let key = key.trim();
            if key.is_empty()
                || !key
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
            {
                return Err(toml_err(format!("line {lineno}: invalid key `{key}`")));
            }
            let value =
                parse_value(value.trim()).map_err(|e| toml_err(format!("line {lineno}: {e}")))?;
            let table = tables.last_mut().expect("root table always present");
            if table.get(key).is_some() {
                return Err(toml_err(format!(
                    "line {lineno}: duplicate key `{key}` in [{}]",
                    table.name
                )));
            }
            table.entries.push((key.to_string(), value));
        }
        Ok(TomlDoc { tables })
    }

    /// The `[name]` table, if present (`""` addresses the root table; the
    /// root is only returned when it holds at least one key).
    pub fn table(&self, name: &str) -> Option<&TomlTable> {
        self.tables
            .iter()
            .find(|t| t.name == name && (!t.name.is_empty() || !t.entries.is_empty()))
    }

    /// Every non-empty table, in file order.
    pub fn tables(&self) -> impl Iterator<Item = &TomlTable> {
        self.tables
            .iter()
            .filter(|t| !t.name.is_empty() || !t.entries.is_empty())
    }
}

/// Strips a trailing `#` comment, respecting `"..."` strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// One parsed numeric array element, before the array commits to a type.
enum ArrayItem {
    Int(i64),
    Float(f64),
}

fn parse_value(s: &str) -> std::result::Result<TomlValue, String> {
    if s.is_empty() {
        return Err("missing value".into());
    }
    if let Some(rest) = s.strip_prefix('"') {
        let inner = rest
            .strip_suffix('"')
            .ok_or_else(|| format!("unterminated string {}", echo(s)))?;
        if inner.contains('"') {
            return Err(format!(
                "embedded quote in string {} (escapes unsupported)",
                echo(s)
            ));
        }
        return Ok(TomlValue::Str(inner.to_string()));
    }
    if s == "true" {
        return Ok(TomlValue::Bool(true));
    }
    if s == "false" {
        return Ok(TomlValue::Bool(false));
    }
    if let Some(rest) = s.strip_prefix('[') {
        let inner = rest
            .strip_suffix(']')
            .ok_or_else(|| format!("unterminated array {}", echo(s)))?
            .trim();
        if inner.is_empty() {
            return Ok(TomlValue::IntArray(Vec::new()));
        }
        let items = inner
            .split(',')
            .map(|item| {
                let item = item.trim();
                let not_a_number = |got: &str| {
                    format!("array element {} must be a number, got a {got}", echo(item))
                };
                // Arrays are flat: a nested one is rejected without
                // recursing, so bracket depth cannot exhaust the stack.
                if item.starts_with('[') {
                    return Err(not_a_number("nested array"));
                }
                parse_value(item).and_then(|v| match v {
                    TomlValue::Int(i) => Ok(ArrayItem::Int(i)),
                    TomlValue::U64(u) => Ok(ArrayItem::Float(u as f64)),
                    TomlValue::Float(f) => Ok(ArrayItem::Float(f)),
                    other => Err(not_a_number(other.type_name())),
                })
            })
            .collect::<std::result::Result<Vec<ArrayItem>, String>>()?;
        if items.iter().all(|i| matches!(i, ArrayItem::Int(_))) {
            return Ok(TomlValue::IntArray(
                items
                    .into_iter()
                    .map(|i| match i {
                        ArrayItem::Int(v) => v,
                        ArrayItem::Float(_) => unreachable!(),
                    })
                    .collect(),
            ));
        }
        return Ok(TomlValue::FloatArray(
            items
                .into_iter()
                .map(|i| match i {
                    ArrayItem::Int(v) => v as f64,
                    ArrayItem::Float(v) => v,
                })
                .collect(),
        ));
    }
    // Underscore separators are accepted in numbers, as in real TOML.
    let cleaned: String = s.chars().filter(|&c| c != '_').collect();
    if !cleaned.contains(['.', 'e', 'E']) {
        if let Ok(v) = cleaned.parse::<i64>() {
            return Ok(TomlValue::Int(v));
        }
        // Full-range u64 (seeds): values just past i64::MAX stay integers.
        if let Ok(v) = cleaned.parse::<u64>() {
            return Ok(TomlValue::U64(v));
        }
    }
    // Rust's f64 parser accepts `nan`/`inf`/`infinity`; a spec file must
    // not smuggle a non-finite hyperparameter in, so require a numeric
    // leading character and a finite result.
    if cleaned
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_digit() || c == '+' || c == '-' || c == '.')
    {
        if let Ok(v) = cleaned.parse::<f64>() {
            if v.is_finite() {
                return Ok(TomlValue::Float(v));
            }
            return Err(format!("non-finite value {}", echo(s)));
        }
    }
    Err(format!("unparseable value {}", echo(s)))
}

/// Formats a float so it re-parses as a float (whole values keep a
/// trailing `.0`).
fn format_float(value: f64) -> String {
    if value.is_finite() && value.fract() == 0.0 && value.abs() < 1e15 {
        format!("{value:.1}")
    } else {
        format!("{value}")
    }
}

/// Ordered writer emitting the same subset [`TomlDoc::parse`] reads.
#[derive(Debug, Default)]
pub struct TomlWriter {
    out: String,
}

impl TomlWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a `[name]` table.
    pub fn table(&mut self, name: &str) {
        if !self.out.is_empty() {
            self.out.push('\n');
        }
        let _ = writeln!(self.out, "[{name}]");
    }

    /// Writes a string entry.
    pub fn str(&mut self, key: &str, value: &str) {
        let _ = writeln!(self.out, "{key} = \"{value}\"");
    }

    /// Writes an integer entry.
    pub fn int(&mut self, key: &str, value: i64) {
        let _ = writeln!(self.out, "{key} = {value}");
    }

    /// Writes a full-range `u64` entry (plain decimal; values above
    /// `i64::MAX` re-parse as integers, not negatives).
    pub fn u64(&mut self, key: &str, value: u64) {
        let _ = writeln!(self.out, "{key} = {value}");
    }

    /// Writes a float entry (always with a decimal point or exponent so it
    /// re-parses as a float).
    pub fn float(&mut self, key: &str, value: f64) {
        let _ = writeln!(self.out, "{key} = {}", format_float(value));
    }

    /// Writes a float-array entry (each element formatted as
    /// [`TomlWriter::float`] does, so the array re-parses as floats).
    pub fn float_array(&mut self, key: &str, values: &[f64]) {
        let items: Vec<String> = values.iter().map(|&v| format_float(v)).collect();
        let _ = writeln!(self.out, "{key} = [{}]", items.join(", "));
    }

    /// Writes a boolean entry.
    pub fn bool(&mut self, key: &str, value: bool) {
        let _ = writeln!(self.out, "{key} = {value}");
    }

    /// Writes an integer-array entry.
    pub fn int_array(&mut self, key: &str, values: &[usize]) {
        let items: Vec<String> = values.iter().map(|v| v.to_string()).collect();
        let _ = writeln!(self.out, "{key} = [{}]", items.join(", "));
    }

    /// Finishes, returning the document text.
    pub fn into_string(self) -> String {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deeply_nested_array_is_rejected_without_recursing() {
        let depth = 100_000;
        let value = format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
        let err = TomlDoc::parse(&format!("[model]\nhidden = {value}\n")).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("must be a number, got a nested array"),
            "{msg}"
        );
        // The 200,000-byte element is elided, not echoed.
        assert!(msg.len() < 200, "{} byte error: {msg:.300}", msg.len());
        assert!(msg.contains("(199999 bytes)"), "{msg}");
    }

    #[test]
    fn parses_tables_keys_and_types() {
        let doc = TomlDoc::parse(
            "# spec\ntop = 1\n[model]\nkind = \"boost_hd\" # inline comment\n\
             dim_total = 4_000\nlr = 0.035\nbootstrap = true\nhidden = [256, 128]\n",
        )
        .unwrap();
        assert_eq!(doc.table("").unwrap().get_int("top").unwrap(), 1);
        let m = doc.table("model").unwrap();
        assert_eq!(m.get_str("kind").unwrap(), "boost_hd");
        assert_eq!(m.get_usize("dim_total").unwrap(), 4000);
        assert!((m.get_float("lr").unwrap() - 0.035).abs() < 1e-12);
        assert!(m.get_bool("bootstrap").unwrap());
        assert_eq!(m.get_usize_array("hidden").unwrap(), vec![256, 128]);
    }

    #[test]
    fn integers_widen_to_floats_on_demand() {
        let doc = TomlDoc::parse("[t]\nx = 3\n").unwrap();
        assert_eq!(doc.table("t").unwrap().get_float("x").unwrap(), 3.0);
    }

    #[test]
    fn rejects_duplicates_and_garbage() {
        assert!(TomlDoc::parse("[a]\n[a]\n").is_err(), "duplicate table");
        assert!(TomlDoc::parse("k = 1\nk = 2\n").is_err(), "duplicate key");
        assert!(TomlDoc::parse("[unclosed\n").is_err());
        assert!(TomlDoc::parse("k = \n").is_err(), "missing value");
        assert!(TomlDoc::parse("k = \"open\n").is_err(), "open string");
        assert!(TomlDoc::parse("just words\n").is_err());
        assert!(TomlDoc::parse("k = [1, two]\n").is_err(), "bad array");
    }

    #[test]
    fn non_finite_floats_are_rejected() {
        // f64::from_str happily parses these; a spec file must not.
        for garbage in ["nan", "inf", "infinity", "-inf", "NaN", "1e999"] {
            assert!(
                TomlDoc::parse(&format!("lr = {garbage}\n")).is_err(),
                "{garbage} should be rejected"
            );
        }
        // Regular signed/exponent floats still parse.
        let doc = TomlDoc::parse("a = -0.5\nb = 1e-3\nc = +2.0\n").unwrap();
        let t = doc.table("").unwrap();
        assert_eq!(t.get_float("a").unwrap(), -0.5);
        assert_eq!(t.get_float("b").unwrap(), 1e-3);
        assert_eq!(t.get_float("c").unwrap(), 2.0);
    }

    #[test]
    fn type_errors_name_the_key_and_table() {
        let doc = TomlDoc::parse("[model]\nkind = 7\n").unwrap();
        let err = doc.table("model").unwrap().get_str("kind").unwrap_err();
        assert!(err.to_string().contains("kind"), "{err}");
        assert!(err.to_string().contains("model"), "{err}");
        let err = doc.table("model").unwrap().get_str("absent").unwrap_err();
        assert!(err.to_string().contains("absent"), "{err}");
    }

    #[test]
    fn negative_rejected_for_unsigned_getters() {
        let doc = TomlDoc::parse("[t]\nx = -3\n").unwrap();
        assert!(doc.table("t").unwrap().get_usize("x").is_err());
        assert!(doc.table("t").unwrap().get_u64("x").is_err());
        assert_eq!(doc.table("t").unwrap().get_int("x").unwrap(), -3);
    }

    #[test]
    fn comments_inside_strings_survive() {
        let doc = TomlDoc::parse("[t]\nname = \"a # b\"\n").unwrap();
        assert_eq!(doc.table("t").unwrap().get_str("name").unwrap(), "a # b");
    }

    #[test]
    fn float_arrays_parse_and_widen() {
        let doc = TomlDoc::parse("[s]\nsev = [0.0, 1e-5, 0.5]\nmixed = [0, 0.25, 3]\n").unwrap();
        let t = doc.table("s").unwrap();
        assert_eq!(t.get_float_array("sev").unwrap(), vec![0.0, 1e-5, 0.5]);
        assert_eq!(t.get_float_array("mixed").unwrap(), vec![0.0, 0.25, 3.0]);
        // All-integer arrays stay integer arrays but widen on demand.
        let doc = TomlDoc::parse("[s]\nints = [1, 2]\n").unwrap();
        let t = doc.table("s").unwrap();
        assert_eq!(t.get_float_array("ints").unwrap(), vec![1.0, 2.0]);
        assert_eq!(t.get_usize_array("ints").unwrap(), vec![1, 2]);
        // ... while float arrays are rejected where integers are required.
        let doc = TomlDoc::parse("[s]\nsev = [0.5]\n").unwrap();
        let err = doc.table("s").unwrap().get_usize_array("sev").unwrap_err();
        assert!(err.to_string().contains("float array"), "{err}");
        // Garbage elements still fail loudly.
        assert!(TomlDoc::parse("sev = [0.5, true]\n").is_err());
        assert!(TomlDoc::parse("sev = [0.5, nan]\n").is_err());
    }

    #[test]
    fn float_array_writer_round_trips() {
        let mut w = TomlWriter::new();
        w.table("scenario");
        w.float_array("severities", &[0.0, 1e-6, 2.0]);
        let text = w.into_string();
        let doc = TomlDoc::parse(&text).unwrap();
        assert_eq!(
            doc.table("scenario")
                .unwrap()
                .get_float_array("severities")
                .unwrap(),
            vec![0.0, 1e-6, 2.0]
        );
    }

    #[test]
    fn writer_output_reparses() {
        let mut w = TomlWriter::new();
        w.table("model");
        w.str("kind", "online_hd");
        w.int("dim", 4000);
        w.float("lr", 0.035);
        w.float("whole", 2.0);
        w.bool("bootstrap", true);
        w.int_array("hidden", &[64, 32]);
        let text = w.into_string();
        let doc = TomlDoc::parse(&text).unwrap();
        let t = doc.table("model").unwrap();
        assert_eq!(t.get_str("kind").unwrap(), "online_hd");
        assert_eq!(t.get_int("dim").unwrap(), 4000);
        assert!((t.get_float("lr").unwrap() - 0.035).abs() < 1e-12);
        assert_eq!(t.get_float("whole").unwrap(), 2.0);
        assert!(matches!(t.get("whole"), Some(TomlValue::Float(_))));
        assert_eq!(t.get_usize_array("hidden").unwrap(), vec![64, 32]);
    }
}
