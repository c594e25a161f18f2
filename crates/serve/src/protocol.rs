//! The `lim-serve-v1` wire protocol: newline-delimited JSON requests and
//! responses, plus content-addressed cache keys.
//!
//! One request per line:
//!
//! ```json
//! {"id":1,"method":"brick.estimate","params":{"words":16,"bits":10,"stack":4}}
//! ```
//!
//! One response per line, `id` echoed back:
//!
//! ```json
//! {"id":1,"ok":true,"cached":false,"result":{...}}
//! {"id":2,"ok":false,"error":{"code":429,"message":"server overloaded"}}
//! ```
//!
//! The `result` member is always last, rendered verbatim from the
//! handler, so two responses carrying the same result are byte-identical
//! after the `"result":` marker regardless of which thread or cache tier
//! produced them.
//!
//! Response lines are built once, at their exact size plus one spare
//! byte: the event loop appends the newline in place and hands the
//! buffer to the socket without copying it again. A reply of a
//! megabyte-sized cached result therefore costs one copy of that
//! result.

use lim_obs::json::{self, Value};
use std::fmt;

/// Protocol identifier, echoed by `server.ping` and `server.stats`.
pub const PROTOCOL: &str = "lim-serve-v1";

/// Malformed request line (bad JSON, missing/ill-typed members).
pub const ERR_BAD_REQUEST: u32 = 400;
/// Method name is not served.
pub const ERR_UNKNOWN_METHOD: u32 = 404;
/// The in-flight gate is full; the request was shed, try again later.
pub const ERR_OVERLOADED: u32 = 429;
/// Handler failure (compiler, estimator or flow error).
pub const ERR_INTERNAL: u32 = 500;
/// A cluster shard could not be reached (router only).
pub const ERR_BAD_GATEWAY: u32 = 502;

/// A protocol-level error: an HTTP-flavored code plus a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeError {
    /// One of the `ERR_*` codes.
    pub code: u32,
    /// Human-readable detail.
    pub message: String,
}

impl ServeError {
    /// A 400 malformed-request error.
    pub fn bad_request(message: impl Into<String>) -> Self {
        ServeError {
            code: ERR_BAD_REQUEST,
            message: message.into(),
        }
    }

    /// A 404 unknown-method error.
    pub fn unknown_method(method: &str) -> Self {
        ServeError {
            code: ERR_UNKNOWN_METHOD,
            message: format!("unknown method {method:?}"),
        }
    }

    /// A 429 load-shed error.
    pub fn overloaded() -> Self {
        ServeError {
            code: ERR_OVERLOADED,
            message: "server overloaded: in-flight limit reached, retry later".into(),
        }
    }

    /// A 500 handler-failure error.
    pub fn internal(message: impl fmt::Display) -> Self {
        ServeError {
            code: ERR_INTERNAL,
            message: message.to_string(),
        }
    }

    /// A 502 unreachable-shard error (router only).
    pub fn bad_gateway(message: impl fmt::Display) -> Self {
        ServeError {
            code: ERR_BAD_GATEWAY,
            message: message.to_string(),
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.code, self.message)
    }
}

/// A parsed request line.
#[derive(Debug, Clone)]
pub struct Request {
    /// Client-chosen correlation id (null, number or string), echoed in
    /// the response.
    pub id: Value,
    /// Dotted method name, e.g. `brick.estimate`.
    pub method: String,
    /// Method parameters; defaults to the empty object.
    pub params: Value,
    /// Client-minted trace id (hex), echoed in the response and used as
    /// the request's trace id; the server mints one when absent.
    pub trace: Option<String>,
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// Returns a 400 [`ServeError`] on malformed JSON, a non-object
    /// request, a missing/non-string `method`, or an `id` that is not
    /// null, a number or a string.
    pub fn parse(line: &str) -> Result<Request, ServeError> {
        let v = Value::parse(line).map_err(|e| ServeError::bad_request(e.to_string()))?;
        if !matches!(v, Value::Object(_)) {
            return Err(ServeError::bad_request("request must be a JSON object"));
        }
        let method = match v.get("method") {
            Some(Value::String(m)) => m.clone(),
            Some(_) => return Err(ServeError::bad_request("\"method\" must be a string")),
            None => return Err(ServeError::bad_request("missing \"method\"")),
        };
        let id = match v.get("id") {
            None => Value::Null,
            Some(id @ (Value::Null | Value::Number(_) | Value::String(_))) => id.clone(),
            Some(_) => {
                return Err(ServeError::bad_request(
                    "\"id\" must be null, a number or a string",
                ))
            }
        };
        let params = match v.get("params") {
            None => Value::Object(Vec::new()),
            Some(p @ Value::Object(_)) => p.clone(),
            Some(_) => return Err(ServeError::bad_request("\"params\" must be an object")),
        };
        let trace = match v.get("trace") {
            None => None,
            Some(Value::String(t)) if lim_obs::TraceId::parse(t).is_some() => Some(t.clone()),
            Some(_) => {
                return Err(ServeError::bad_request(
                    "\"trace\" must be a hex trace id (1-16 hex digits)",
                ))
            }
        };
        Ok(Request {
            id,
            method,
            params,
            trace,
        })
    }
}

/// 64-bit FNV-1a over a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Content address of a request: FNV-1a over the method name, a NUL
/// separator, and the *canonical* rendering of the params (members
/// sorted recursively), so `{"words":16,"bits":10}` and
/// `{"bits":10,"words":16}` share one cache slot.
pub fn cache_key(method: &str, params: &Value) -> u64 {
    let mut bytes = Vec::with_capacity(64);
    bytes.extend_from_slice(method.as_bytes());
    bytes.push(0);
    bytes.extend_from_slice(json::render_canonical(params).as_bytes());
    fnv1a(&bytes)
}

/// Concatenates `pieces` into one line allocated at its exact length
/// plus one byte, the room the event loop needs for the newline.
fn frame(pieces: &[&str]) -> String {
    let len: usize = pieces.iter().map(|p| p.len()).sum();
    let mut line = String::with_capacity(len + 1);
    for piece in pieces {
        line.push_str(piece);
    }
    line
}

/// Builds a success response line (no trailing newline, one spare byte
/// of capacity for it). `result` must already be rendered JSON; it is
/// embedded verbatim as the final member.
pub fn ok_line(id: &Value, cached: bool, result: &str) -> String {
    ok_line_traced(id, cached, None, result)
}

/// [`ok_line`] with a `"trace"` member echoed before `result`. The
/// member appears only when the request carried a trace id, so
/// responses to untraced requests are byte-identical to pre-trace
/// protocol output.
pub fn ok_line_traced(id: &Value, cached: bool, trace: Option<&str>, result: &str) -> String {
    let trace_member = match trace {
        Some(t) => format!(",\"trace\":{}", json::string(t)),
        None => String::new(),
    };
    frame(&[
        "{\"id\":",
        &json::render(id),
        ",\"ok\":true,\"cached\":",
        if cached { "true" } else { "false" },
        &trace_member,
        ",\"result\":",
        result,
        "}",
    ])
}

/// Builds an error response line (no trailing newline, one spare byte
/// of capacity for it).
pub fn error_line(id: &Value, err: &ServeError) -> String {
    frame(&[
        "{\"id\":",
        &json::render(id),
        ",\"ok\":false,\"error\":{\"code\":",
        &err.code.to_string(),
        ",\"message\":",
        &json::string(&err.message),
        "}}",
    ])
}

/// Extracts the verbatim `result` member bytes from a success response
/// line, exploiting the fixed `,"result":` marker and trailing `}`.
/// Returns `None` for error responses or anything not shaped like
/// [`ok_line`] output.
pub fn result_slice(response: &str) -> Option<&str> {
    const MARKER: &str = ",\"result\":";
    let idx = response.find(MARKER)?;
    let rest = response[idx + MARKER.len()..].trim_end();
    rest.strip_suffix('}')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_minimal_and_full_requests() {
        let rq = Request::parse("{\"method\":\"server.ping\"}").unwrap();
        assert_eq!(rq.method, "server.ping");
        assert_eq!(rq.id, Value::Null);
        assert_eq!(rq.params, Value::Object(Vec::new()));

        let rq =
            Request::parse("{\"id\":7,\"method\":\"brick.estimate\",\"params\":{\"words\":16}}")
                .unwrap();
        assert_eq!(rq.id, Value::Number(7.0));
        assert_eq!(rq.params.get("words").and_then(Value::as_f64), Some(16.0));
    }

    #[test]
    fn parse_rejects_malformed_requests() {
        for (line, needle) in [
            ("not json", "400"),
            ("[1,2]", "object"),
            ("{\"params\":{}}", "method"),
            ("{\"method\":3}", "string"),
            ("{\"method\":\"x\",\"id\":[1]}", "id"),
            ("{\"method\":\"x\",\"params\":[1]}", "params"),
        ] {
            let err = Request::parse(line).unwrap_err();
            assert_eq!(err.code, ERR_BAD_REQUEST, "{line}");
            assert!(
                format!("{} {}", err.code, err.message).contains(needle),
                "{line}: {}",
                err.message
            );
        }
    }

    #[test]
    fn trace_member_parses_and_echoes() {
        let rq = Request::parse("{\"method\":\"server.ping\"}").unwrap();
        assert_eq!(rq.trace, None);
        let rq =
            Request::parse("{\"method\":\"server.ping\",\"trace\":\"00ffab12\"}").unwrap();
        assert_eq!(rq.trace.as_deref(), Some("00ffab12"));
        // Non-hex and ill-typed trace ids are rejected.
        for line in [
            "{\"method\":\"x\",\"trace\":\"zz\"}",
            "{\"method\":\"x\",\"trace\":7}",
            "{\"method\":\"x\",\"trace\":\"\"}",
        ] {
            assert_eq!(Request::parse(line).unwrap_err().code, ERR_BAD_REQUEST);
        }
        // The trace member sits before `result`, so result_slice still
        // works, and an untraced line is byte-identical to ok_line.
        let traced = ok_line_traced(&Value::Number(1.0), false, Some("ab"), "{\"x\":1}");
        assert!(traced.contains("\"trace\":\"ab\""));
        assert_eq!(result_slice(&traced), Some("{\"x\":1}"));
        assert_eq!(
            ok_line_traced(&Value::Null, true, None, "{}"),
            ok_line(&Value::Null, true, "{}")
        );
    }

    #[test]
    fn frames_match_the_formatted_layout_with_one_spare_byte() {
        // A `format!` reference of the wire layout: the exact-size
        // builders must reproduce it byte for byte.
        let ids = [
            Value::Null,
            Value::Number(7.0),
            Value::String("a\"b\u{e9}".into()),
        ];
        let result = "{\"x\":[1,2],\"s\":\"\u{6c49}\"}";
        for id in &ids {
            let rid = json::render(id);
            for cached in [false, true] {
                for trace in [None, Some("00ff")] {
                    let member =
                        trace.map_or(String::new(), |t| format!(",\"trace\":{}", json::string(t)));
                    let want = format!(
                        "{{\"id\":{rid},\"ok\":true,\"cached\":{cached}{member},\"result\":{result}}}"
                    );
                    let line = ok_line_traced(id, cached, trace, result);
                    assert_eq!(line, want);
                    assert!(line.capacity() > line.len(), "no room for the newline");
                }
            }
            let err = ServeError::bad_request("bad \"x\"");
            let line = error_line(id, &err);
            assert_eq!(
                line,
                format!(
                    "{{\"id\":{rid},\"ok\":false,\"error\":{{\"code\":400,\"message\":{}}}}}",
                    json::string(&err.message)
                )
            );
            assert!(line.capacity() > line.len());
        }
    }

    #[test]
    fn cache_key_ignores_member_order_but_not_values() {
        let a = Value::parse("{\"words\":16,\"bits\":10}").unwrap();
        let b = Value::parse("{\"bits\":10,\"words\":16}").unwrap();
        let c = Value::parse("{\"bits\":10,\"words\":17}").unwrap();
        assert_eq!(cache_key("m", &a), cache_key("m", &b));
        assert_ne!(cache_key("m", &a), cache_key("m", &c));
        assert_ne!(cache_key("m", &a), cache_key("n", &a));
    }

    #[test]
    fn response_lines_round_trip_and_result_is_sliceable() {
        let ok = ok_line(&Value::Number(3.0), true, "{\"pong\":true}");
        let v = Value::parse(&ok).unwrap();
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(v.get("cached"), Some(&Value::Bool(true)));
        assert_eq!(result_slice(&ok), Some("{\"pong\":true}"));

        let err = error_line(&Value::Null, &ServeError::overloaded());
        let v = Value::parse(&err).unwrap();
        assert_eq!(v.get("ok"), Some(&Value::Bool(false)));
        assert_eq!(
            v.get("error").and_then(|e| e.get("code")).and_then(Value::as_f64),
            Some(f64::from(ERR_OVERLOADED))
        );
        assert_eq!(result_slice(&err), None);
    }
}
