//! Wire protocol of `snailqc serve`: line-delimited JSON-RPC.
//!
//! One request per line, one response per line, both UTF-8 JSON objects —
//! trivially scriptable from any language (`nc`, a Python `socket`, …) and
//! hand-rolled on the workspace's vendored `serde_json`, so the daemon adds
//! no dependencies.
//!
//! ## Frames
//!
//! Request: `{"id": <any JSON value>, "method": "<name>", "params": {…}}`.
//! The `id` is echoed verbatim in the response, so pipelined clients can
//! match responses arriving out of order (the server answers each request
//! as soon as its worker finishes, not in submission order).
//!
//! Success: `{"id": …, "result": {…}}`.
//! Failure: `{"id": …, "error": {"code": "<machine-readable>", "message": "<human>"}}`.
//!
//! Error codes: `bad_request` (unparseable frame or invalid params), `busy`
//! (job queue full — backpressure, retry later), `shutting_down` (drain in
//! progress), `transpile_failed` (the submitted circuit was rejected),
//! `frame_too_large` (a line longer than [`MAX_FRAME_BYTES`](super::MAX_FRAME_BYTES);
//! the server closes the connection after this reply, whose `id` is null).

use serde::Value;

/// Builds a JSON object value from `(key, value)` pairs.
pub fn object(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// A parsed request frame.
#[derive(Debug)]
pub struct Request {
    /// Client-chosen request id, echoed verbatim in the response.
    pub id: Value,
    /// Method name: `transpile`, `stats`, `ping` or `shutdown`.
    pub method: String,
    /// Method parameters; `{}` when omitted.
    pub params: Value,
}

/// Parses one request line. The error string is ready for a `bad_request`
/// response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let value = serde_json::from_str(line).map_err(|e| format!("invalid JSON: {e}"))?;
    let method = value
        .get("method")
        .and_then(Value::as_str)
        .ok_or("missing string field `method`")?
        .to_string();
    let id = value.get("id").cloned().unwrap_or(Value::Null);
    let params = match value.get("params") {
        None => Value::Object(vec![]),
        Some(p @ Value::Object(_)) => p.clone(),
        Some(_) => return Err("`params` must be an object".into()),
    };
    Ok(Request { id, method, params })
}

/// Renders a success response line (no trailing newline).
pub fn ok_response(id: &Value, result: Value) -> String {
    render(object(vec![("id", id.clone()), ("result", result)]))
}

/// Renders an error response line (no trailing newline).
pub fn error_response(id: &Value, code: &str, message: &str) -> String {
    render(object(vec![
        ("id", id.clone()),
        (
            "error",
            object(vec![
                ("code", Value::String(code.to_string())),
                ("message", Value::String(message.to_string())),
            ]),
        ),
    ]))
}

/// Renders a response value, degrading to a serialization-error frame
/// instead of panicking if the value is unrenderable (e.g. a non-finite
/// float smuggled into a report).
fn render(value: Value) -> String {
    serde_json::to_string(&value).unwrap_or_else(|e| {
        format!(
            r#"{{"id":null,"error":{{"code":"internal","message":"response serialization: {e}"}}}}"#
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_parse_and_reject_bad_frames() {
        let req = parse_request(r#"{"id": 3, "method": "ping", "params": {"a": 1}}"#).unwrap();
        assert_eq!(req.method, "ping");
        assert_eq!(req.id, Value::UInt(3));
        assert_eq!(req.params.get("a").and_then(Value::as_u64), Some(1));
        // Missing params defaults to {}; id defaults to null.
        let bare = parse_request(r#"{"method": "stats"}"#).unwrap();
        assert_eq!(bare.id, Value::Null);
        assert_eq!(bare.params, Value::Object(vec![]));
        for bad in [
            "",
            "not json",
            "{}",
            r#"{"method": 3}"#,
            r#"{"method": "x", "params": 1}"#,
        ] {
            assert!(parse_request(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn responses_round_trip() {
        let ok = ok_response(&Value::UInt(7), object(vec![("ok", Value::Bool(true))]));
        let parsed = serde_json::from_str(&ok).unwrap();
        assert_eq!(parsed.get("id").and_then(Value::as_u64), Some(7));
        assert_eq!(
            parsed.get("result").and_then(|r| r.get("ok")),
            Some(&Value::Bool(true))
        );
        let err = error_response(&Value::Null, "busy", "queue full");
        let parsed = serde_json::from_str(&err).unwrap();
        let error = parsed.get("error").unwrap();
        assert_eq!(error.get("code").and_then(Value::as_str), Some("busy"));
    }
}
