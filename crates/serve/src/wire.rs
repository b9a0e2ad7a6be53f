//! The network wire protocol: newline-framed JSON over TCP.
//!
//! # Framing
//!
//! Every message — in both directions — is one JSON object serialized on a
//! single line and terminated by `\n` (JSON-lines). A frame may be at most
//! [`ServerTuning::max_frame_bytes`](crate::server::ServerTuning) bytes
//! including the terminator (default [`DEFAULT_MAX_FRAME_BYTES`]); an
//! overlong frame is answered with an error and the connection is closed,
//! because line framing cannot be resynchronized once a frame is abandoned
//! mid-read. Text must be UTF-8.
//!
//! The format is deliberately `nc`-friendly:
//!
//! ```text
//! $ nc 127.0.0.1 7878
//! {"id": 1, "features": [0.12, -0.53, 1.4, 0.0]}
//! {"id":1,"class":2,"confidence":0.91,"margin":0.83,"abstained":false}
//! {"cmd": "ping"}
//! {"ok":"pong"}
//! ```
//!
//! # Requests
//!
//! | shape | meaning |
//! |---|---|
//! | `{"features": [f32...], "id": u64?, "deadline_ms": u64?, "model": str?}` | predict one feature vector; `id` is echoed back (default 0); `deadline_ms` bounds the queue age before the server answers `deadline_exceeded` instead of scoring; `model` routes the request to a named model in the server's fleet registry (see [`boosthd::fleet`]) instead of the default model |
//! | `{"cmd": "ping"}` | liveness probe |
//! | `{"cmd": "stats"}` | server counters snapshot |
//! | `{"cmd": "health"}` | runtime self-check: canary window score + live-model checksum (corruption triggers an atomic reload) |
//! | `{"cmd": "shutdown"}` | request graceful drain: the server stops accepting, answers everything in flight, then exits |
//!
//! # Responses
//!
//! Predictions answer as
//! `{"id":N,"class":K,"confidence":C,"margin":M,"abstained":B,"tier":"f32"}`
//! — the fields of [`boosthd::Prediction`], so a reliability-gated client
//! can escalate on `abstained` exactly as the in-process confidence API
//! allows, plus the quantization `tier` that served the request (the
//! degrade ladder; see [`crate::server`]). Fleet-routed predictions
//! additionally echo `"model"` and carry the `"version"` that served
//! them, so clients can observe hot-swap transitions. Control commands
//! answer
//! `{"ok": ...}`. Every failure answers
//! `{"error":"<description>","code":"<taxonomy>"}` (plus the request `id`
//! when one was parsed, and `retry_after_ms` on sheds) — `code` is one of
//! the stable [`ErrorCode`] tags, so clients branch on machine-readable
//! categories instead of message prefixes; protocol errors never kill the
//! server.
//!
//! The module also houses the self-contained JSON reader/writer the
//! protocol runs on (the build is offline; no serde_json) and a small
//! blocking [`Client`] used by the integration tests and the serving
//! benchmark.

use std::fmt;
use std::io::{BufRead, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Converts a duration to whole milliseconds for the wire.
///
/// `Duration::as_millis` returns a `u128`; the once-pervasive
/// `as_millis() as u64` silently truncates (wrapping a pathological
/// ~584-million-year wait to an arbitrary small number a client would
/// happily honor as a backoff hint). This is the single checked
/// conversion every wire-bound duration goes through: it saturates at
/// `u64::MAX` instead.
pub fn duration_to_wire_ms(d: Duration) -> u64 {
    u64::try_from(d.as_millis()).unwrap_or(u64::MAX)
}

/// Reads a JSON number as an exact non-negative integer fitting `u64`.
///
/// Returns `None` for non-numbers, negatives, fractions, and values at
/// or above 2^64 — a plain `as u64` cast would saturate those to
/// arbitrary in-range values instead of rejecting them.
fn json_u64(v: &Json) -> Option<u64> {
    let n = v.as_num()?;
    if n < 0.0 || n.fract() != 0.0 || n >= u64::MAX as f64 {
        return None;
    }
    Some(n as u64)
}

/// Default per-frame byte cap (64 KiB) — comfortably above any realistic
/// wearable feature vector (a 256-float row serializes to ~3 KiB) while
/// bounding per-connection buffer growth under abuse.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 64 * 1024;

/// Wire-level failures while reading or interpreting one frame.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// The frame exceeded the configured byte cap before a `\n` arrived.
    /// Framing is lost, so the connection must close after reporting it.
    FrameTooLarge {
        /// The configured cap that was exceeded.
        limit: usize,
    },
    /// The frame was not valid UTF-8 or not valid JSON.
    Malformed(String),
    /// The JSON was valid but not a recognized request shape.
    BadRequest(String),
    /// A read timed out mid-frame: the peer sent part of a frame and then
    /// stalled past the configured socket read timeout (slow-loris).
    /// Framing is lost, so the connection must close.
    Stalled,
    /// An underlying socket error.
    Io(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::FrameTooLarge { limit } => {
                write!(f, "frame exceeds the {limit}-byte cap; closing connection")
            }
            WireError::Malformed(m) => write!(f, "malformed frame: {m}"),
            WireError::BadRequest(m) => write!(f, "bad request: {m}"),
            WireError::Stalled => {
                write!(
                    f,
                    "read stalled mid-frame past the timeout; closing connection"
                )
            }
            WireError::Io(m) => write!(f, "socket error: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Stable machine-readable error categories carried as `"code"` in every
/// error reply (the structured error taxonomy). Tags never change once
/// shipped — clients and the chaos campaign key their branching and their
/// taxonomy counters on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ErrorCode {
    /// Unparseable frame: invalid JSON/UTF-8, unrecognized request shape,
    /// a mid-frame disconnect, or a mid-frame stall (slow-loris timeout).
    BadFrame,
    /// The frame exceeded `max_frame_bytes` before its newline arrived.
    Oversized,
    /// The feature vector length does not match the model's input width.
    WrongWidth,
    /// Admission control shed the request (queue at `queue_depth`, or the
    /// degrade ladder is already at its last tier); the reply carries
    /// `retry_after_ms`.
    Shed,
    /// The request's queue age exceeded its `deadline_ms` before a flush
    /// reached it; it was answered without scoring.
    DeadlineExceeded,
    /// A server-side failure that is not the client's fault (e.g. the
    /// batcher died, or the drain deadline force-aborted the request).
    Internal,
    /// The request named a `model` that is not in the server's fleet
    /// registry (or the server serves no fleet at all).
    UnknownModel,
}

impl ErrorCode {
    /// Every code, in stable (alphabetical-tag) reporting order — the
    /// iteration order of taxonomy counters in `stats` and the chaos
    /// report.
    pub const ALL: [ErrorCode; 7] = [
        ErrorCode::BadFrame,
        ErrorCode::DeadlineExceeded,
        ErrorCode::Internal,
        ErrorCode::Oversized,
        ErrorCode::Shed,
        ErrorCode::UnknownModel,
        ErrorCode::WrongWidth,
    ];

    /// The stable wire tag.
    pub fn tag(self) -> &'static str {
        match self {
            ErrorCode::BadFrame => "bad_frame",
            ErrorCode::Oversized => "oversized",
            ErrorCode::WrongWidth => "wrong_width",
            ErrorCode::Shed => "shed",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::Internal => "internal",
            ErrorCode::UnknownModel => "unknown_model",
        }
    }

    /// Parses a tag produced by [`ErrorCode::tag`].
    pub fn from_tag(tag: &str) -> Option<ErrorCode> {
        ErrorCode::ALL.into_iter().find(|c| c.tag() == tag)
    }
}

// ---------------------------------------------------------------------------
// Minimal JSON value model + parser (offline build: no serde_json).
// ---------------------------------------------------------------------------

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, preserving key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON value from `text`, rejecting trailing
    /// non-whitespace.
    pub fn parse(text: &str) -> Result<Json, WireError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(WireError::Malformed(format!(
                "trailing bytes after JSON value at offset {pos}"
            )));
        }
        Ok(value)
    }

    /// Object field lookup (first match); `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite `f64`, if it is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\r' | b'\n') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), WireError> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(WireError::Malformed(format!(
            "expected `{}` at offset {}",
            b as char, *pos
        )))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, WireError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(WireError::Malformed("unexpected end of input".into())),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: Json,
) -> Result<Json, WireError> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(WireError::Malformed(format!(
            "invalid literal at offset {}",
            *pos
        )))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, WireError> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| WireError::Malformed("non-UTF-8 number".into()))?;
    let n: f64 = text
        .parse()
        .map_err(|_| WireError::Malformed(format!("invalid number `{text}` at offset {start}")))?;
    if !n.is_finite() {
        return Err(WireError::Malformed(format!("non-finite number `{text}`")));
    }
    Ok(Json::Num(n))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, WireError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(WireError::Malformed("unterminated string".into())),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = bytes
                    .get(*pos)
                    .ok_or_else(|| WireError::Malformed("unterminated escape".into()))?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{0008}'),
                    b'f' => out.push('\u{000C}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .ok_or_else(|| WireError::Malformed("truncated \\u escape".into()))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| WireError::Malformed("non-UTF-8 \\u escape".into()))?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| {
                            WireError::Malformed(format!("invalid \\u escape `{hex}`"))
                        })?;
                        *pos += 4;
                        // Surrogate pairs are rejected rather than decoded:
                        // feature vectors and commands never need them.
                        out.push(char::from_u32(code).ok_or_else(|| {
                            WireError::Malformed(format!("\\u{hex} is not a scalar value"))
                        })?);
                    }
                    other => {
                        return Err(WireError::Malformed(format!(
                            "invalid escape `\\{}`",
                            *other as char
                        )))
                    }
                }
            }
            Some(_) => {
                // Consume one UTF-8 character (input was validated as UTF-8
                // by the frame reader).
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| WireError::Malformed("non-UTF-8 string".into()))?;
                let ch = rest.chars().next().expect("non-empty rest");
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, WireError> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => {
                return Err(WireError::Malformed(format!(
                    "expected `,` or `]` at offset {}",
                    *pos
                )))
            }
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, WireError> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => {
                return Err(WireError::Malformed(format!(
                    "expected `,` or `}}` at offset {}",
                    *pos
                )))
            }
        }
    }
}

/// Escapes `s` for embedding inside a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// One parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Predict one feature vector; `id` is echoed in the response.
    Predict {
        /// Client-chosen correlation id (0 when omitted).
        id: u64,
        /// The raw feature row.
        features: Vec<f32>,
        /// Maximum queue age in milliseconds before the server answers
        /// `deadline_exceeded` instead of scoring (`None`: the server
        /// default, which may itself be unbounded).
        deadline_ms: Option<u64>,
        /// Fleet routing: the named model that must serve this request
        /// (`None`: the server's default model). Unknown names answer an
        /// `unknown_model` error rather than silently falling back.
        model: Option<String>,
    },
    /// Liveness probe.
    Ping,
    /// Server counters snapshot.
    Stats,
    /// Runtime self-check: canary scoring + live-model checksum.
    Health,
    /// Graceful-drain request.
    Shutdown,
}

impl Request {
    /// Parses one frame into a request.
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] for invalid JSON, [`WireError::BadRequest`]
    /// for JSON that is not a recognized request shape (unknown `cmd`,
    /// missing/ill-typed `features`, non-finite feature values, a
    /// fractional or negative `id`, ...).
    pub fn parse(frame: &str) -> Result<Request, WireError> {
        let value = Json::parse(frame)?;
        if !matches!(value, Json::Obj(_)) {
            return Err(WireError::BadRequest("frame must be a JSON object".into()));
        }
        if let Some(cmd) = value.get("cmd") {
            let cmd = cmd
                .as_str()
                .ok_or_else(|| WireError::BadRequest("`cmd` must be a string".into()))?;
            return match cmd {
                "ping" => Ok(Request::Ping),
                "stats" => Ok(Request::Stats),
                "health" => Ok(Request::Health),
                "shutdown" => Ok(Request::Shutdown),
                other => Err(WireError::BadRequest(format!(
                    "unknown cmd `{other}` (expected ping, stats, health, or shutdown)"
                ))),
            };
        }
        let features = value.get("features").ok_or_else(|| {
            WireError::BadRequest("missing `features` array (or a `cmd` field)".into())
        })?;
        let Json::Arr(items) = features else {
            return Err(WireError::BadRequest("`features` must be an array".into()));
        };
        let mut row = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            let n = item
                .as_num()
                .ok_or_else(|| WireError::BadRequest(format!("features[{i}] is not a number")))?;
            let f = n as f32;
            if !f.is_finite() {
                return Err(WireError::BadRequest(format!(
                    "features[{i}] ({n}) does not fit a finite f32"
                )));
            }
            row.push(f);
        }
        let uint_field = |key: &str| -> Result<Option<u64>, WireError> {
            match value.get(key) {
                None => Ok(None),
                Some(v) => {
                    let n = v.as_num().ok_or_else(|| {
                        WireError::BadRequest(format!("`{key}` must be a number"))
                    })?;
                    if n < 0.0 || n.fract() != 0.0 || n > u64::MAX as f64 {
                        return Err(WireError::BadRequest(format!(
                            "`{key}` must be a non-negative integer, got {n}"
                        )));
                    }
                    Ok(Some(n as u64))
                }
            }
        };
        let id = uint_field("id")?.unwrap_or(0);
        let deadline_ms = uint_field("deadline_ms")?;
        let model = match value.get("model") {
            None | Some(Json::Null) => None,
            Some(v) => Some(
                v.as_str()
                    .ok_or_else(|| WireError::BadRequest("`model` must be a string".into()))?
                    .to_string(),
            ),
        };
        Ok(Request::Predict {
            id,
            features: row,
            deadline_ms,
            model,
        })
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// Serializes a prediction response frame (without the trailing newline).
/// `tier` names the quantization rung that served the request (`"f32"`,
/// `"int8"`, `"binary"`; see the degrade ladder in [`crate::server`]).
pub fn predict_response(id: u64, p: &boosthd::Prediction, tier: &str) -> String {
    predict_response_fleet(id, p, tier, None)
}

/// [`predict_response`] for fleet-routed requests: echoes the model name
/// and the version that served the prediction, so clients can observe a
/// hot-swap land (`version` changes) and assert no mixed-version batch.
pub fn predict_response_fleet(
    id: u64,
    p: &boosthd::Prediction,
    tier: &str,
    fleet: Option<(&str, u64)>,
) -> String {
    let fleet_fields = match fleet {
        Some((model, version)) => {
            format!(
                ",\"model\":\"{}\",\"version\":{version}",
                escape_json(model)
            )
        }
        None => String::new(),
    };
    format!(
        "{{\"id\":{id},\"class\":{},\"confidence\":{},\"margin\":{},\"abstained\":{},\"tier\":\"{}\"{}}}",
        p.class,
        p.confidence,
        p.margin,
        p.abstained,
        escape_json(tier),
        fleet_fields
    )
}

/// Serializes an error response frame carrying the taxonomy `code`; `id`
/// is included when the failing request carried one.
pub fn error_response(id: Option<u64>, code: ErrorCode, message: &str) -> String {
    match id {
        Some(id) => format!(
            "{{\"id\":{id},\"error\":\"{}\",\"code\":\"{}\"}}",
            escape_json(message),
            code.tag()
        ),
        None => format!(
            "{{\"error\":\"{}\",\"code\":\"{}\"}}",
            escape_json(message),
            code.tag()
        ),
    }
}

/// Serializes a shed/backoff error response: the taxonomy `code` plus a
/// structured `retry_after_ms` hint telling the client when to come back
/// (predict requests are idempotent, so a re-send after it is safe).
pub fn error_response_retry(
    id: Option<u64>,
    code: ErrorCode,
    message: &str,
    retry_after_ms: u64,
) -> String {
    match id {
        Some(id) => format!(
            "{{\"id\":{id},\"error\":\"{}\",\"code\":\"{}\",\"retry_after_ms\":{retry_after_ms}}}",
            escape_json(message),
            code.tag()
        ),
        None => format!(
            "{{\"error\":\"{}\",\"code\":\"{}\",\"retry_after_ms\":{retry_after_ms}}}",
            escape_json(message),
            code.tag()
        ),
    }
}

/// Serializes a control-command acknowledgement (`{"ok": "<what>"}`).
pub fn ok_response(what: &str) -> String {
    format!("{{\"ok\":\"{}\"}}", escape_json(what))
}

// ---------------------------------------------------------------------------
// Frame reader
// ---------------------------------------------------------------------------

/// Reads one newline-terminated frame, enforcing `max_bytes`.
///
/// Returns `Ok(None)` at a clean EOF before any frame bytes.
///
/// # Errors
///
/// [`WireError::FrameTooLarge`] once more than `max_bytes` arrive without a
/// newline (the caller must close the connection — framing is lost);
/// [`WireError::Malformed`] for non-UTF-8 bytes; [`WireError::Stalled`]
/// when a socket read timeout fires *mid-frame* (slow-loris — an idle
/// connection that times out **between** frames simply keeps waiting);
/// [`WireError::Io`] for socket errors.
pub fn read_frame(
    reader: &mut impl BufRead,
    max_bytes: usize,
) -> Result<Option<String>, WireError> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let available = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // A read timeout (when the caller set one on the socket):
                // lethal only mid-frame — a half-sent frame that stalls is
                // a slow-loris hold on this handler; an idle connection is
                // legitimate and keeps waiting.
                if buf.is_empty() {
                    continue;
                }
                return Err(WireError::Stalled);
            }
            Err(e) => return Err(WireError::Io(e.to_string())),
        };
        if available.is_empty() {
            // EOF: a clean close between frames yields None; a half-sent
            // frame is malformed.
            return if buf.is_empty() {
                Ok(None)
            } else {
                Err(WireError::Malformed(
                    "connection closed mid-frame (no terminating newline)".into(),
                ))
            };
        }
        let newline = available.iter().position(|&b| b == b'\n');
        let take = newline.map_or(available.len(), |i| i + 1);
        if buf.len() + take > max_bytes {
            return Err(WireError::FrameTooLarge { limit: max_bytes });
        }
        buf.extend_from_slice(&available[..take]);
        reader.consume(take);
        if newline.is_some() {
            let mut text = String::from_utf8(buf)
                .map_err(|_| WireError::Malformed("frame is not valid UTF-8".into()))?;
            while text.ends_with('\n') || text.ends_with('\r') {
                text.pop();
            }
            return Ok(Some(text));
        }
    }
}

// ---------------------------------------------------------------------------
// Blocking client
// ---------------------------------------------------------------------------

/// A parsed server reply, as seen by [`Client`].
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// A prediction (`id`, class, confidence, margin, abstained).
    Predict {
        /// Echoed correlation id.
        id: u64,
        /// Predicted class index.
        class: usize,
        /// Winning-class confidence in `[0, 1]`.
        confidence: f32,
        /// Top-two probability margin.
        margin: f32,
        /// Whether the configured threshold gated this prediction.
        abstained: bool,
        /// The quantization tier that served the request (`None` when the
        /// server predates tier annotation).
        tier: Option<String>,
        /// The fleet model that served the request (`None` for the
        /// default model).
        model: Option<String>,
        /// The fleet model version that served the request.
        version: Option<u64>,
    },
    /// A control-command acknowledgement payload.
    Ok(String),
    /// A server-side error description (plus the echoed id when present).
    Error {
        /// Echoed correlation id, when the failing request carried one.
        id: Option<u64>,
        /// Human-readable description.
        message: String,
        /// The machine-readable taxonomy tag ([`ErrorCode::tag`]), when
        /// the server sent one.
        code: Option<String>,
        /// Structured backoff hint on sheds.
        retry_after_ms: Option<u64>,
    },
    /// A stats snapshot (raw JSON object, for display/diagnostics).
    Raw(Json),
}

impl Reply {
    /// Parses one response frame.
    pub fn parse(frame: &str) -> Result<Reply, WireError> {
        let v = Json::parse(frame)?;
        if let Some(err) = v.get("error") {
            let message = err
                .as_str()
                .ok_or_else(|| WireError::Malformed("`error` must be a string".into()))?
                .to_string();
            let id = v.get("id").and_then(json_u64);
            let code = v.get("code").and_then(Json::as_str).map(|s| s.to_string());
            let retry_after_ms = v.get("retry_after_ms").and_then(json_u64);
            return Ok(Reply::Error {
                id,
                message,
                code,
                retry_after_ms,
            });
        }
        if let Some(class) = v.get("class") {
            let num = |key: &str| -> Result<f64, WireError> {
                v.get(key)
                    .and_then(Json::as_num)
                    .ok_or_else(|| WireError::Malformed(format!("missing numeric `{key}`")))
            };
            return Ok(Reply::Predict {
                id: v
                    .get("id")
                    .and_then(json_u64)
                    .ok_or_else(|| WireError::Malformed("missing integer `id`".into()))?,
                class: class
                    .as_num()
                    .ok_or_else(|| WireError::Malformed("`class` must be a number".into()))?
                    as usize,
                confidence: num("confidence")? as f32,
                margin: num("margin")? as f32,
                abstained: v
                    .get("abstained")
                    .and_then(Json::as_bool)
                    .ok_or_else(|| WireError::Malformed("missing `abstained`".into()))?,
                tier: v.get("tier").and_then(Json::as_str).map(|s| s.to_string()),
                model: v.get("model").and_then(Json::as_str).map(|s| s.to_string()),
                version: v.get("version").and_then(json_u64),
            });
        }
        if let Some(ok) = v.get("ok") {
            // A bare `{"ok": "..."}` is a command acknowledgement; anything
            // carrying extra fields (e.g. a stats snapshot) stays raw.
            let single_key = matches!(&v, Json::Obj(fields) if fields.len() == 1);
            if let (Some(s), true) = (ok.as_str(), single_key) {
                return Ok(Reply::Ok(s.to_string()));
            }
            return Ok(Reply::Raw(v));
        }
        Err(WireError::Malformed(
            "response is neither a prediction, an ok, nor an error".into(),
        ))
    }
}

/// A minimal blocking protocol client over one TCP connection — the
/// building block of the integration tests and the serving benchmark.
#[derive(Debug)]
pub struct Client {
    reader: std::io::BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a serving endpoint.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Self::from_stream(stream))
    }

    /// Wraps an already-connected stream.
    ///
    /// # Panics
    ///
    /// Panics if the stream cannot be cloned for buffered reading.
    pub fn from_stream(stream: TcpStream) -> Client {
        let reader = std::io::BufReader::new(stream.try_clone().expect("clone TCP stream"));
        Client {
            reader,
            writer: stream,
        }
    }

    /// Sends one raw frame (the newline is appended here).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn send_raw(&mut self, frame: &str) -> Result<(), WireError> {
        self.writer
            .write_all(frame.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(|e| WireError::Io(e.to_string()))
    }

    /// Reads one reply frame (`None` when the server closed the
    /// connection).
    ///
    /// # Errors
    ///
    /// As [`read_frame`] / [`Reply::parse`].
    pub fn recv(&mut self) -> Result<Option<Reply>, WireError> {
        match read_frame(&mut self.reader, DEFAULT_MAX_FRAME_BYTES)? {
            None => Ok(None),
            Some(frame) => Reply::parse(&frame).map(Some),
        }
    }

    /// Round-trips one prediction request.
    ///
    /// # Errors
    ///
    /// Socket/parse failures, or an unexpected early close.
    pub fn predict(&mut self, id: u64, features: &[f32]) -> Result<Reply, WireError> {
        self.send_predict(id, features)?;
        self.recv()?
            .ok_or_else(|| WireError::Io("server closed before answering".into()))
    }

    /// Round-trips one prediction request routed to the named fleet
    /// model.
    ///
    /// # Errors
    ///
    /// Socket/parse failures, or an unexpected early close.
    pub fn predict_model(
        &mut self,
        id: u64,
        model: &str,
        features: &[f32],
    ) -> Result<Reply, WireError> {
        self.send_predict_model(id, model, features)?;
        self.recv()?
            .ok_or_else(|| WireError::Io("server closed before answering".into()))
    }

    /// Sends a fleet-routed prediction request WITHOUT waiting for the
    /// reply.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn send_predict_model(
        &mut self,
        id: u64,
        model: &str,
        features: &[f32],
    ) -> Result<(), WireError> {
        self.send_raw(&predict_frame_model(id, features, None, Some(model)))
    }

    /// Round-trips one prediction request carrying a per-request
    /// `deadline_ms` queue-age bound.
    ///
    /// # Errors
    ///
    /// Socket/parse failures, or an unexpected early close.
    pub fn predict_with_deadline(
        &mut self,
        id: u64,
        features: &[f32],
        deadline_ms: u64,
    ) -> Result<Reply, WireError> {
        self.send_raw(&predict_frame(id, features, Some(deadline_ms)))?;
        self.recv()?
            .ok_or_else(|| WireError::Io("server closed before answering".into()))
    }

    /// Sends a prediction request WITHOUT waiting for the reply (open-loop
    /// senders pair this with a dedicated reader thread).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn send_predict(&mut self, id: u64, features: &[f32]) -> Result<(), WireError> {
        self.send_raw(&predict_frame(id, features, None))
    }

    /// [`Client::send_predict`] carrying a per-request `deadline_ms`
    /// queue-age bound (the chaos driver's deadline-storm primitive).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn send_predict_with_deadline(
        &mut self,
        id: u64,
        features: &[f32],
        deadline_ms: u64,
    ) -> Result<(), WireError> {
        self.send_raw(&predict_frame(id, features, Some(deadline_ms)))
    }

    /// Round-trips a `health` self-check command.
    ///
    /// # Errors
    ///
    /// Socket/parse failures, or an unexpected early close.
    pub fn health(&mut self) -> Result<Reply, WireError> {
        self.send_raw("{\"cmd\":\"health\"}")?;
        self.recv()?
            .ok_or_else(|| WireError::Io("server closed before answering".into()))
    }

    /// Round-trips a `ping`.
    ///
    /// # Errors
    ///
    /// Socket/parse failures, or an unexpected early close.
    pub fn ping(&mut self) -> Result<Reply, WireError> {
        self.send_raw("{\"cmd\":\"ping\"}")?;
        self.recv()?
            .ok_or_else(|| WireError::Io("server closed before answering".into()))
    }

    /// Requests a graceful server drain (`shutdown` command).
    ///
    /// # Errors
    ///
    /// Socket/parse failures, or an unexpected early close.
    pub fn shutdown_server(&mut self) -> Result<Reply, WireError> {
        self.send_raw("{\"cmd\":\"shutdown\"}")?;
        self.recv()?
            .ok_or_else(|| WireError::Io("server closed before answering".into()))
    }

    /// Splits the client into an independently usable reader half (for a
    /// response-collector thread) while keeping the writer here.
    ///
    /// # Panics
    ///
    /// Panics if the underlying stream cannot be cloned.
    pub fn split_reader(&self) -> std::io::BufReader<TcpStream> {
        std::io::BufReader::new(self.writer.try_clone().expect("clone TCP stream"))
    }
}

/// Builds one predict request frame (no trailing newline).
fn predict_frame(id: u64, features: &[f32], deadline_ms: Option<u64>) -> String {
    predict_frame_model(id, features, deadline_ms, None)
}

/// [`predict_frame`] with optional fleet-model routing.
fn predict_frame_model(
    id: u64,
    features: &[f32],
    deadline_ms: Option<u64>,
    model: Option<&str>,
) -> String {
    let mut frame = String::with_capacity(48 + features.len() * 10);
    frame.push_str("{\"id\":");
    frame.push_str(&id.to_string());
    if let Some(d) = deadline_ms {
        frame.push_str(",\"deadline_ms\":");
        frame.push_str(&d.to_string());
    }
    if let Some(m) = model {
        frame.push_str(",\"model\":\"");
        frame.push_str(&escape_json(m));
        frame.push('"');
    }
    frame.push_str(",\"features\":[");
    for (i, f) in features.iter().enumerate() {
        if i > 0 {
            frame.push(',');
        }
        frame.push_str(&format!("{f}"));
    }
    frame.push_str("]}");
    frame
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_predict_requests_with_and_without_id() {
        let r = Request::parse("{\"features\": [1.5, -2.0, 3], \"id\": 9}").unwrap();
        assert_eq!(
            r,
            Request::Predict {
                id: 9,
                features: vec![1.5, -2.0, 3.0],
                deadline_ms: None,
                model: None
            }
        );
        let r = Request::parse("{\"features\": []}").unwrap();
        assert_eq!(
            r,
            Request::Predict {
                id: 0,
                features: vec![],
                deadline_ms: None,
                model: None
            }
        );
        let r = Request::parse("{\"features\": [1], \"deadline_ms\": 40}").unwrap();
        assert_eq!(
            r,
            Request::Predict {
                id: 0,
                features: vec![1.0],
                deadline_ms: Some(40),
                model: None
            }
        );
        assert!(matches!(
            Request::parse("{\"features\": [1], \"deadline_ms\": -1}"),
            Err(WireError::BadRequest(_))
        ));
    }

    #[test]
    fn parses_fleet_model_routing() {
        let r = Request::parse("{\"features\": [1], \"model\": \"hr-v2\"}").unwrap();
        assert_eq!(
            r,
            Request::Predict {
                id: 0,
                features: vec![1.0],
                deadline_ms: None,
                model: Some("hr-v2".into())
            }
        );
        assert!(matches!(
            Request::parse("{\"features\": [1], \"model\": 7}"),
            Err(WireError::BadRequest(_))
        ));
    }

    #[test]
    fn parses_commands() {
        assert_eq!(
            Request::parse("{\"cmd\": \"ping\"}").unwrap(),
            Request::Ping
        );
        assert_eq!(
            Request::parse("{\"cmd\":\"stats\"}").unwrap(),
            Request::Stats
        );
        assert_eq!(
            Request::parse("{\"cmd\":\"health\"}").unwrap(),
            Request::Health
        );
        assert_eq!(
            Request::parse("{\"cmd\":\"shutdown\"}").unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn duration_conversion_saturates_instead_of_truncating() {
        assert_eq!(duration_to_wire_ms(Duration::from_millis(1500)), 1500);
        assert_eq!(duration_to_wire_ms(Duration::MAX), u64::MAX);
        // A reply id too large for u64 is rejected, not wrapped to an
        // arbitrary in-range value.
        assert!(Reply::parse(
            "{\"class\":1,\"id\":1e40,\"confidence\":0.5,\"margin\":0.1,\"abstained\":false}"
        )
        .is_err());
    }

    #[test]
    fn error_code_tags_round_trip() {
        for code in ErrorCode::ALL {
            assert_eq!(ErrorCode::from_tag(code.tag()), Some(code));
        }
        assert_eq!(ErrorCode::from_tag("no_such_code"), None);
    }

    #[test]
    fn rejects_malformed_and_unrecognized_frames() {
        assert!(matches!(
            Request::parse("not json at all"),
            Err(WireError::Malformed(_))
        ));
        assert!(matches!(
            Request::parse("{\"features\": [1, \"two\"]}"),
            Err(WireError::BadRequest(_))
        ));
        assert!(matches!(
            Request::parse("{\"cmd\": \"reboot\"}"),
            Err(WireError::BadRequest(_))
        ));
        assert!(matches!(
            Request::parse("[1,2,3]"),
            Err(WireError::BadRequest(_))
        ));
        assert!(matches!(
            Request::parse("{\"features\": [1], \"id\": -3}"),
            Err(WireError::BadRequest(_))
        ));
        assert!(matches!(
            Request::parse("{}"),
            Err(WireError::BadRequest(_))
        ));
    }

    #[test]
    fn json_parser_handles_nesting_strings_and_escapes() {
        let v = Json::parse(
            "{\"a\": [1, 2.5, -3e2], \"s\": \"q\\\"\\n\\u0041\", \"b\": true, \"n\": null}",
        )
        .unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("q\"\nA"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        let Json::Arr(items) = v.get("a").unwrap() else {
            panic!("expected array")
        };
        assert_eq!(items[2].as_num(), Some(-300.0));
        assert!(Json::parse("{\"a\": 1} trailing").is_err());
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("{\"n\": 1e999}").is_err(), "non-finite number");
    }

    #[test]
    fn response_round_trips_through_reply_parser() {
        let p = boosthd::Prediction {
            class: 2,
            confidence: 0.875,
            margin: 0.5,
            probabilities: vec![0.0, 0.125, 0.875],
            abstained: false,
        };
        let frame = predict_response(7, &p, "int8");
        let reply = Reply::parse(&frame).unwrap();
        assert_eq!(
            reply,
            Reply::Predict {
                id: 7,
                class: 2,
                confidence: 0.875,
                margin: 0.5,
                abstained: false,
                tier: Some("int8".into()),
                model: None,
                version: None
            }
        );
        let fleet_frame = predict_response_fleet(8, &p, "f32", Some(("hr-v2", 3)));
        assert_eq!(
            Reply::parse(&fleet_frame).unwrap(),
            Reply::Predict {
                id: 8,
                class: 2,
                confidence: 0.875,
                margin: 0.5,
                abstained: false,
                tier: Some("f32".into()),
                model: Some("hr-v2".into()),
                version: Some(3)
            }
        );
        let err = error_response(Some(3), ErrorCode::BadFrame, "bad \"thing\"\n");
        match Reply::parse(&err).unwrap() {
            Reply::Error {
                id,
                message,
                code,
                retry_after_ms,
            } => {
                assert_eq!(id, Some(3));
                assert_eq!(message, "bad \"thing\"\n");
                assert_eq!(code.as_deref(), Some("bad_frame"));
                assert_eq!(retry_after_ms, None);
            }
            other => panic!("expected error reply, got {other:?}"),
        }
        let shed = error_response_retry(None, ErrorCode::Shed, "overloaded", 120);
        match Reply::parse(&shed).unwrap() {
            Reply::Error {
                code,
                retry_after_ms,
                ..
            } => {
                assert_eq!(code.as_deref(), Some("shed"));
                assert_eq!(retry_after_ms, Some(120));
            }
            other => panic!("expected shed reply, got {other:?}"),
        }
        assert_eq!(
            Reply::parse(&ok_response("pong")).unwrap(),
            Reply::Ok("pong".into())
        );
    }

    #[test]
    fn frame_reader_enforces_cap_and_eof_semantics() {
        let data = b"{\"cmd\":\"ping\"}\n".to_vec();
        let mut r = std::io::BufReader::new(std::io::Cursor::new(data));
        assert_eq!(
            read_frame(&mut r, 64).unwrap(),
            Some("{\"cmd\":\"ping\"}".to_string())
        );
        assert_eq!(read_frame(&mut r, 64).unwrap(), None, "clean EOF");

        let long = vec![b'x'; 100];
        let mut r = std::io::BufReader::new(std::io::Cursor::new(long));
        assert!(matches!(
            read_frame(&mut r, 64),
            Err(WireError::FrameTooLarge { limit: 64 })
        ));

        let half = b"{\"features\": [1".to_vec();
        let mut r = std::io::BufReader::new(std::io::Cursor::new(half));
        assert!(matches!(
            read_frame(&mut r, 64),
            Err(WireError::Malformed(_))
        ));
    }
}
