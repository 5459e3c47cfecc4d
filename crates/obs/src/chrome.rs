//! Chrome trace-event JSON: render [`crate::trace::Event`]s into the format
//! `chrome://tracing` and Perfetto load, and parse/validate such files
//! (for the CI trace checker and `trace_report`).
//!
//! Rendered shape: `{"traceEvents":[...],"displayTimeUnit":"ms"}`.
//! Complete spans are phase `"X"` with `ts`/`dur` in microseconds;
//! instants are phase `"i"` with thread scope. The job trace id rides
//! in `args.trace` of every event.

use crate::json_escape;
use crate::trace::Event;

/// Render events as a Chrome trace-event JSON document.
pub fn render(events: &[Event]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 64);
    out.push_str("{\"traceEvents\":[");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let ts_us = ev.ts_ns as f64 / 1000.0;
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":{:.3}",
            json_escape(&ev.name),
            json_escape(if ev.cat.is_empty() { "j2k" } else { ev.cat }),
            ev.tid,
            ts_us,
        ));
        match ev.dur_ns {
            Some(d) => out.push_str(&format!(",\"ph\":\"X\",\"dur\":{:.3}", d as f64 / 1000.0)),
            None => out.push_str(",\"ph\":\"i\",\"s\":\"t\""),
        }
        out.push_str(&format!(",\"args\":{{\"trace\":{}", ev.trace_id));
        for (k, v) in &ev.args {
            out.push_str(&format!(",\"{}\":{}", json_escape(k), v));
        }
        out.push_str("}}");
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// One event as read back from a trace file.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedEvent {
    /// Event name.
    pub name: String,
    /// Phase (`"X"` complete, `"i"` instant, ...).
    pub ph: String,
    /// Start timestamp, microseconds.
    pub ts_us: f64,
    /// Duration, microseconds (0 for instants).
    pub dur_us: f64,
    /// Thread id.
    pub tid: u64,
    /// Numeric args (non-numeric args are skipped).
    pub args: Vec<(String, f64)>,
}

impl ParsedEvent {
    /// The `args.trace` job correlation id, if present.
    pub fn trace_id(&self) -> Option<u64> {
        self.args
            .iter()
            .find(|(k, _)| k == "trace")
            .map(|(_, v)| *v as u64)
    }
}

/// Parse a Chrome trace-event JSON document (object-with-`traceEvents`
/// or bare array form). Errors are human-readable strings.
pub fn parse(json: &str) -> Result<Vec<ParsedEvent>, String> {
    let value = JsonParser::new(json).parse_document()?;
    let events = match &value {
        Value::Array(a) => a,
        Value::Object(o) => match o.iter().find(|(k, _)| k == "traceEvents") {
            Some((_, Value::Array(a))) => a,
            Some(_) => return Err("traceEvents is not an array".into()),
            None => return Err("missing traceEvents key".into()),
        },
        _ => return Err("document is neither an object nor an array".into()),
    };
    let mut out = Vec::with_capacity(events.len());
    for (i, ev) in events.iter().enumerate() {
        let Value::Object(o) = ev else {
            return Err(format!("event {i} is not an object"));
        };
        let get = |k: &str| o.iter().find(|(key, _)| key == k).map(|(_, v)| v);
        let name = match get("name") {
            Some(Value::String(s)) => s.clone(),
            _ => return Err(format!("event {i}: missing string name")),
        };
        let ph = match get("ph") {
            Some(Value::String(s)) => s.clone(),
            _ => return Err(format!("event {i}: missing string ph")),
        };
        let ts_us = match get("ts") {
            Some(Value::Number(n)) => *n,
            _ => return Err(format!("event {i}: missing numeric ts")),
        };
        let dur_us = match get("dur") {
            Some(Value::Number(n)) => *n,
            None => 0.0,
            _ => return Err(format!("event {i}: dur is not numeric")),
        };
        let tid = match get("tid") {
            Some(Value::Number(n)) => *n as u64,
            _ => return Err(format!("event {i}: missing numeric tid")),
        };
        let mut args = Vec::new();
        if let Some(Value::Object(a)) = get("args") {
            for (k, v) in a {
                if let Value::Number(n) = v {
                    args.push((k.clone(), *n));
                }
            }
        }
        out.push(ParsedEvent {
            name,
            ph,
            ts_us,
            dur_us,
            tid,
            args,
        });
    }
    Ok(out)
}

/// Parse `json` and require at least one event per name in `required`.
/// Returns the parsed events on success.
pub fn check(json: &str, required: &[&str]) -> Result<Vec<ParsedEvent>, String> {
    let events = parse(json)?;
    if events.is_empty() {
        return Err("trace contains no events".into());
    }
    for want in required {
        if !events.iter().any(|e| e.name == *want) {
            return Err(format!("trace has no span named {want:?}"));
        }
    }
    Ok(events)
}

// ---------------------------------------------------------------------
// Minimal recursive-descent JSON parser (reader side only). Vendored
// here because the build is offline: no serde.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Value {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn new(s: &'a str) -> JsonParser<'a> {
        JsonParser {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn parse_document(&mut self) -> Result<Value, String> {
        let v = self.parse_value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing data at byte {}", self.pos));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn parse_value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b't') => self.parse_lit("true", Value::Bool(true)),
            Some(b'f') => self.parse_lit("false", Value::Bool(false)),
            Some(b'n') => self.parse_lit("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            Some(c) => Err(format!("unexpected {:?} at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn parse_lit(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn parse_number(&mut self) -> Result<Value, String> {
        self.skip_ws();
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "non-utf8 number".to_string())?;
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err("unterminated string".into());
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err("unterminated escape".into());
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            self.pos += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            // Surrogate pairs are not produced by our
                            // renderer; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape \\{}", esc as char)),
                    }
                }
                _ => {
                    // Collect the full UTF-8 sequence starting at b.
                    let len = match b {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let start = self.pos - 1;
                    let end = (start + len).min(self.bytes.len());
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| "invalid utf8 in string")?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(out));
        }
        loop {
            out.push(self.parse_value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(out));
                }
                _ => return Err(format!("expected , or ] at byte {}", self.pos)),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut out = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(out));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.expect(b':')?;
            let value = self.parse_value()?;
            out.push((key, value));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(out));
                }
                _ => return Err(format!("expected , or }} at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    fn ev(name: &'static str, ts: u64, dur: Option<u64>, tid: u64) -> Event {
        Event {
            trace_id: 42,
            name: Cow::Borrowed(name),
            cat: "",
            ts_ns: ts,
            dur_ns: dur,
            tid,
            args: vec![("chunk", 3)],
        }
    }

    #[test]
    fn render_parse_roundtrip() {
        let events = vec![
            ev("mct", 1_000, Some(2_500), 1),
            ev("queue-pop", 4_000, None, 2),
        ];
        let json = render(&events);
        let parsed = parse(&json).expect("parses");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].name, "mct");
        assert_eq!(parsed[0].ph, "X");
        assert!((parsed[0].ts_us - 1.0).abs() < 1e-9);
        assert!((parsed[0].dur_us - 2.5).abs() < 1e-9);
        assert_eq!(parsed[0].tid, 1);
        assert_eq!(parsed[0].trace_id(), Some(42));
        assert_eq!(parsed[1].ph, "i");
        assert_eq!(parsed[1].dur_us, 0.0);
    }

    #[test]
    fn render_escapes_names() {
        let mut e = ev("bad\"name\\with\nstuff", 0, Some(1), 1);
        e.name = Cow::Owned("bad\"name\\with\nstuff".to_string());
        let json = render(&[e]);
        let parsed = parse(&json).expect("escaped names survive");
        assert_eq!(parsed[0].name, "bad\"name\\with\nstuff");
    }

    #[test]
    fn check_requires_names() {
        let json = render(&[ev("mct", 0, Some(1), 1), ev("tier1", 2, Some(1), 1)]);
        assert!(check(&json, &["mct", "tier1"]).is_ok());
        let err = check(&json, &["dwt"]).unwrap_err();
        assert!(err.contains("dwt"), "{err}");
        assert!(
            check("{\"traceEvents\":[]}", &[]).is_err(),
            "empty trace fails"
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{\"traceEvents\":12}").is_err());
        assert!(parse("[{\"name\":1}]").is_err());
        assert!(parse("[{}] trailing").is_err());
        assert!(parse("[{\"name\":\"a\",\"ph\":\"X\",\"ts\":\"oops\",\"tid\":1}]").is_err());
    }

    #[test]
    fn parses_bare_array_and_unicode() {
        let parsed = parse(
            "[{\"name\":\"caf\\u00e9 \\u2603\",\"ph\":\"i\",\"ts\":0.5,\"tid\":7,\
             \"args\":{\"trace\":9,\"note\":\"text arg skipped\"}}]",
        )
        .expect("bare array form");
        assert_eq!(parsed[0].name, "caf\u{e9} \u{2603}");
        assert_eq!(parsed[0].trace_id(), Some(9));
        assert_eq!(parsed[0].args.len(), 1, "string args skipped");
    }
}
