//! A minimal JSON value model, writer, and recursive-descent parser.
//!
//! The workspace is intentionally dependency-free, so the trace sink
//! carries its own small JSON implementation: enough to emit the trace
//! file and to re-parse and schema-check it (`trace_check`, CI, tests).
//! `gw-core` parses its parameter files with it too. Object errors name
//! the member whose value (or the separator after it) is malformed.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value. Object keys keep insertion order (the writer side);
/// lookups are linear, which is fine at trace-summary sizes.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// All numbers as f64; counter magnitudes stay far below 2^53.
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Convenience constructor for an object from key/value pairs.
    pub fn obj(members: Vec<(&str, Value)>) -> Value {
        Value::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Num(n) => write_num(f, *n),
            Value::Str(s) => write_str(f, s),
            Value::Arr(a) => {
                f.write_str("[")?;
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Value::Obj(m) => {
                f.write_str("{")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_str(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_num(f: &mut fmt::Formatter<'_>, n: f64) -> fmt::Result {
    if !n.is_finite() {
        // JSON has no NaN/Inf; clamp to null so the file stays parseable.
        return f.write_str("null");
    }
    if n.fract() == 0.0 && n.abs() < 9.0e15 {
        write!(f, "{}", n as i64)
    } else {
        // `{:?}` prints the shortest representation that round-trips.
        write!(f, "{n:?}")
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// Parse a JSON document. Strict enough for schema checking: rejects
/// trailing garbage, trailing commas, and unescaped control characters.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(v)
}

const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".into());
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected character '{}' at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, text: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        s.parse::<f64>().map(Value::Num).map_err(|_| format!("invalid number '{s}'"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            // Surrogates in trace files are never needed;
                            // map unpaired ones to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => {
                    return Err(format!("unescaped control character at byte {}", self.pos));
                }
                Some(_) => {
                    // Copy one UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid UTF-8")?;
                    let c = rest.chars().next().expect("nonempty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(out));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(out));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value(depth + 1).map_err(|e| format!("{e} in the value of \"{k}\""))?;
            out.push((k, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(out));
                }
                _ => {
                    let (k, _) = out.last().expect("member just pushed");
                    return Err(format!(
                        "expected ',' or '}}' after the value of \"{k}\" at byte {}",
                        self.pos
                    ));
                }
            }
        }
    }
}

/// Aggregate facts extracted by [`validate_trace`].
#[derive(Clone, Debug)]
pub struct TraceStats {
    /// Number of trace events.
    pub events: usize,
    /// Fraction of measured `step` wall time covered by the work phases.
    pub step_coverage: f64,
    /// Total run wall time (ms).
    pub wall_ms: f64,
    /// Per-phase totals (name → total_ms), sorted by name.
    pub phase_ms: BTreeMap<String, f64>,
    /// Counters (name → value), sorted by name.
    pub counters: BTreeMap<String, f64>,
}

impl TraceStats {
    /// Fraction of halo latency hidden behind interior compute, derived
    /// from the `halo_overlap_us` / `halo_wait_us` counters. 0.0 when
    /// the overlapped exchange path never ran.
    pub fn overlap_ratio(&self) -> f64 {
        let hidden = self.counters.get("halo_overlap_us").copied().unwrap_or(0.0);
        let wait = self.counters.get("halo_wait_us").copied().unwrap_or(0.0);
        if hidden + wait <= 0.0 {
            return 0.0;
        }
        hidden / (hidden + wait)
    }
}

/// Schema identifier written by (and required of) every trace file.
pub const TRACE_SCHEMA: &str = "gw-obs-trace-v1";

fn num_field(obj: &Value, key: &str, at: &str) -> Result<f64, String> {
    obj.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("{at}: missing or non-numeric \"{key}\""))
}

fn str_field<'v>(obj: &'v Value, key: &str, at: &str) -> Result<&'v str, String> {
    obj.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{at}: missing or non-string \"{key}\""))
}

/// Validate a trace document against the `gw-obs-trace-v1` schema and
/// extract its headline stats. Errors name the offending field.
pub fn validate_trace(text: &str) -> Result<TraceStats, String> {
    let root = parse(text)?;
    let events = root
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or("root: missing \"traceEvents\" array")?;
    for (i, e) in events.iter().enumerate() {
        let at = format!("traceEvents[{i}]");
        let ph = str_field(e, "ph", &at)?;
        if ph != "X" {
            return Err(format!("{at}: unsupported event type \"{ph}\" (expected complete \"X\")"));
        }
        str_field(e, "name", &at)?;
        str_field(e, "cat", &at)?;
        for k in ["ts", "dur", "pid", "tid"] {
            let v = num_field(e, k, &at)?;
            if !v.is_finite() || v < 0.0 {
                return Err(format!("{at}: \"{k}\" must be finite and >= 0, got {v}"));
            }
        }
    }
    let summary = root.get("summary").ok_or("root: missing \"summary\" object")?;
    let schema = str_field(summary, "schema", "summary")?;
    if schema != TRACE_SCHEMA {
        return Err(format!("summary: schema \"{schema}\" != \"{TRACE_SCHEMA}\""));
    }
    let wall_ms = num_field(summary, "wall_ms", "summary")?;
    let step_coverage = num_field(summary, "step_coverage", "summary")?;
    if !(0.0..=1.0 + 1e-9).contains(&step_coverage) {
        return Err(format!("summary: step_coverage {step_coverage} outside [0, 1]"));
    }
    let mut phase_ms = BTreeMap::new();
    for (name, agg) in
        summary.get("phases").and_then(Value::as_obj).ok_or("summary: missing \"phases\" object")?
    {
        let at = format!("summary.phases.{name}");
        num_field(agg, "count", &at)?;
        phase_ms.insert(name.clone(), num_field(agg, "total_ms", &at)?);
    }
    let mut counters = BTreeMap::new();
    for (name, v) in summary
        .get("counters")
        .and_then(Value::as_obj)
        .ok_or("summary: missing \"counters\" object")?
    {
        let n = v.as_f64().ok_or_else(|| format!("summary.counters.{name}: non-numeric"))?;
        counters.insert(name.clone(), n);
    }
    Ok(TraceStats { events: events.len(), step_coverage, wall_ms, phase_ms, counters })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_writer_output() {
        let v = Value::obj(vec![
            ("a", Value::Num(1.5)),
            ("b", Value::Str("x\"y\\z\n".into())),
            ("c", Value::Arr(vec![Value::Bool(true), Value::Null, Value::Num(-3.0)])),
            ("d", Value::obj(vec![("nested", Value::Num(9007199254740991.0))])),
        ]);
        let text = v.to_string();
        let back = parse(&text).expect("round trip");
        assert_eq!(back, v);
    }

    #[test]
    fn object_errors_name_the_member() {
        for bad in [r#"{"a": 1, "steps": 4 5}"#, r#"{"steps": tru}"#, r#"{"steps": -}"#] {
            let e = parse(bad).unwrap_err();
            assert!(e.contains("\"steps\""), "{bad}: '{e}' does not name the member");
        }
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "{\"a\":1} x", "\"\u{1}\"", "nul"] {
            assert!(parse(bad).is_err(), "must reject {bad:?}");
        }
    }

    #[test]
    fn validate_rejects_wrong_schema_and_bad_events() {
        let ok = r#"{"traceEvents":[{"name":"step","cat":"step","ph":"X","ts":0,"dur":5,"pid":1,"tid":0}],
            "summary":{"schema":"gw-obs-trace-v1","wall_ms":1.0,"step_coverage":0.95,
            "phases":{"step":{"count":1,"total_ms":0.005}},"counters":{"steps":1}}}"#;
        let stats = validate_trace(ok).expect("valid");
        assert_eq!(stats.events, 1);
        assert!((stats.step_coverage - 0.95).abs() < 1e-12);

        let wrong_schema = ok.replace("gw-obs-trace-v1", "v0");
        assert!(validate_trace(&wrong_schema).unwrap_err().contains("schema"));
        let bad_ph = ok.replace("\"ph\":\"X\"", "\"ph\":\"B\"");
        assert!(validate_trace(&bad_ph).unwrap_err().contains("unsupported event type"));
        let no_summary = r#"{"traceEvents":[]}"#;
        assert!(validate_trace(no_summary).unwrap_err().contains("summary"));
    }
}
