//! A minimal NDJSON client: one request line out, one response line in,
//! with every operation counted by type.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use serde_json::Value;

pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    out: Vec<u8>,
    buf: Vec<u8>,
    pub ops: OpLog,
}

/// Attempted and failed operations per op type.
#[derive(Default, Clone)]
pub struct OpLog {
    pub counts: BTreeMap<&'static str, (u64, u64)>,
    pub errors: Vec<String>,
}

impl OpLog {
    pub fn record(&mut self, op: &'static str, ok: bool, response: &str) {
        let entry = self.counts.entry(op).or_insert((0, 0));
        entry.0 += 1;
        if !ok {
            entry.1 += 1;
            if self.errors.len() < 8 {
                self.errors.push(format!("{op}: {response}"));
            }
        }
    }

    pub fn merge(&mut self, other: &OpLog) {
        for (op, (a, f)) in &other.counts {
            let entry = self.counts.entry(op).or_insert((0, 0));
            entry.0 += a;
            entry.1 += f;
        }
        self.errors.extend(other.errors.iter().cloned());
    }

    pub fn attempted(&self) -> u64 {
        self.counts.values().map(|c| c.0).sum()
    }

    pub fn failed(&self) -> u64 {
        self.counts.values().map(|c| c.1).sum()
    }
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::with_capacity(1 << 16, stream),
            writer,
            out: Vec::new(),
            buf: Vec::new(),
            ops: OpLog::default(),
        })
    }

    /// Sends one request line and returns the response line. An answer
    /// with `"ok":false` is counted failed but still returned.
    pub fn call(&mut self, op: &'static str, line: &str) -> Result<&str, String> {
        // One write per request: a separate newline would reach the
        // server as a second segment.
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.writer
            .write_all(&self.out)
            .map_err(|e| format!("{op}: send: {e}"))?;
        self.buf.clear();
        self.reader
            .read_until(b'\n', &mut self.buf)
            .map_err(|e| format!("{op}: receive: {e}"))?;
        if !self.buf.ends_with(b"\n") {
            return Err(format!("{op}: server closed the connection"));
        }
        let response = std::str::from_utf8(&self.buf)
            .map_err(|e| format!("{op}: answer is not UTF-8: {e}"))?
            .trim_end();
        self.ops
            .record(op, response.starts_with(r#"{"ok":true"#), response);
        Ok(response)
    }

    /// [`Conn::call`], parsed, failing on an `"ok":false` answer.
    pub fn call_value(&mut self, op: &'static str, line: &str) -> Result<Value, String> {
        let response = self.call(op, line)?;
        let value: Value =
            serde_json::from_str(response).map_err(|e| format!("{op}: bad response: {e}"))?;
        if value.get("ok").and_then(|v| match v {
            Value::Bool(b) => Some(*b),
            _ => None,
        }) != Some(true)
        {
            return Err(format!("{op} refused: {response}"));
        }
        Ok(value)
    }
}

/// The unsigned integer after `"<field>":` in a response line.
pub fn field_u64(response: &str, field: &str) -> Option<u64> {
    let key = format!("\"{field}\":");
    let start = response.find(&key)? + key.len();
    let digits: String = response[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Parses the `"estimates":[…]` array of an `estimate` answer into `out`.
pub fn estimates(response: &str, out: &mut Vec<f64>) -> Result<(), String> {
    out.clear();
    let start = response
        .find(r#""estimates":["#)
        .ok_or("answer has no estimates")?
        + r#""estimates":["#.len();
    let end = start
        + response[start..]
            .find(']')
            .ok_or("unterminated estimates")?;
    for item in response[start..end].split(',').filter(|s| !s.is_empty()) {
        out.push(
            item.parse()
                .map_err(|_| format!("estimate {item:?} is not a number"))?,
        );
    }
    Ok(())
}
