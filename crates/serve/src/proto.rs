//! The wire protocol: JSON Lines over TCP.
//!
//! Each request is one line — an [`OpRequest`] object (optionally with
//! `"threads"`), or a control verb `{"control": "ping" | "stats" |
//! "shutdown"}`. Each response is one line:
//!
//! ```text
//! {"status":"ok","report":{...}}          operation succeeded
//! {"status":"usage","error":"..."}        OpError taxonomy keyword
//! {"status":"shed","error":"..."}         bounded queue was full
//! ```
//!
//! Error statuses reuse [`OpError::status`], so a client maps daemon
//! failures onto the same exit codes as local ones via
//! [`OpError::from_wire`].

use reorderlab_ops::{OpError, OpReport};
use reorderlab_trace::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// Status keyword for a shed (overload) response. Maps onto
/// [`OpError::Io`] client-side: a runtime failure, not a caller mistake.
pub(crate) const STATUS_SHED: &str = "shed";

/// A control verb, parsed from `{"control": ...}` lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Control {
    /// Liveness probe.
    Ping,
    /// Server counters snapshot.
    Stats,
    /// Orderly shutdown.
    Shutdown,
}

/// Recognizes a control line; `None` means the line is an operation
/// request.
///
/// # Errors
///
/// `Some(Err)` for an unknown control verb.
pub(crate) fn parse_control(v: &Json) -> Option<Result<Control, OpError>> {
    let verb = v.get("control")?.as_str();
    Some(match verb {
        Some("ping") => Ok(Control::Ping),
        Some("stats") => Ok(Control::Stats),
        Some("shutdown") => Ok(Control::Shutdown),
        _ => Err(OpError::Usage("unknown control verb; try ping|stats|shutdown".into())),
    })
}

/// Serializes a success response.
pub fn ok_response(report: &OpReport) -> String {
    Json::Obj(vec![("status".into(), Json::Str("ok".into())), ("report".into(), report.to_json())])
        .to_line()
}

/// Serializes an error response with the taxonomy's status keyword.
pub(crate) fn error_response(e: &OpError) -> String {
    Json::Obj(vec![
        ("status".into(), Json::Str(e.status().into())),
        ("error".into(), Json::Str(e.to_string())),
    ])
    .to_line()
}

/// Serializes the overload response.
pub(crate) fn shed_response() -> String {
    Json::Obj(vec![
        ("status".into(), Json::Str(STATUS_SHED.into())),
        ("error".into(), Json::Str("server overloaded; request shed, retry later".into())),
    ])
    .to_line()
}

/// A decoded response.
#[derive(Debug)]
pub enum Response {
    /// The operation succeeded.
    Ok(Box<OpReport>),
    /// A control acknowledgment or counters object (status `"ok"`, no
    /// report).
    Ack(Json),
    /// The daemon reported a failure; decoded back into the taxonomy.
    Err(OpError),
}

impl Response {
    /// Decodes one response line.
    ///
    /// # Errors
    ///
    /// [`OpError::Parse`] when the line is not a valid response document.
    pub fn parse(line: &str) -> Result<Response, OpError> {
        let v = Json::parse(line).map_err(|e| OpError::Parse(format!("invalid response: {e}")))?;
        let status = v
            .get("status")
            .and_then(Json::as_str)
            .ok_or_else(|| OpError::Parse("response missing \"status\"".into()))?;
        if status == "ok" {
            return match v.get("report") {
                Some(r) => Ok(Response::Ok(Box::new(OpReport::from_json(r)?))),
                None => Ok(Response::Ack(v.clone())),
            };
        }
        let message = v.get("error").and_then(Json::as_str).unwrap_or("unknown daemon error");
        Ok(Response::Err(OpError::from_wire(status, message)))
    }
}

/// One blocking request/response exchange on an open connection.
///
/// # Errors
///
/// [`OpError::Io`] when the connection drops mid-exchange.
pub fn exchange(
    writer: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    line: &str,
) -> Result<String, OpError> {
    // One write: a line split from its newline waits out the peer's
    // delayed ACK (about 40 ms a request) unless `TCP_NODELAY` is set.
    writer
        .write_all(format!("{line}\n").as_bytes())
        .map_err(|e| OpError::Io(format!("send failed: {e}")))?;
    let mut resp = String::new();
    let n = reader.read_line(&mut resp).map_err(|e| OpError::Io(format!("receive failed: {e}")))?;
    if n == 0 {
        return Err(OpError::Io("daemon closed the connection".into()));
    }
    Ok(resp.trim_end().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_lines_parse() {
        let parse = |t: &str| parse_control(&Json::parse(t).unwrap());
        assert_eq!(parse("{\"control\":\"ping\"}"), Some(Ok(Control::Ping)));
        assert_eq!(parse("{\"control\":\"stats\"}"), Some(Ok(Control::Stats)));
        assert_eq!(parse("{\"control\":\"shutdown\"}"), Some(Ok(Control::Shutdown)));
        assert!(matches!(parse("{\"control\":\"frob\"}"), Some(Err(_))));
        assert!(parse("{\"op\":\"stats\"}").is_none());
    }

    #[test]
    fn error_responses_round_trip_exit_codes() {
        for e in [
            OpError::Usage("bad".into()),
            OpError::Io("gone".into()),
            OpError::Parse("mangled".into()),
            OpError::Malformed("broken".into()),
        ] {
            let line = error_response(&e);
            let Response::Err(back) = Response::parse(&line).unwrap() else {
                panic!("expected error response: {line}");
            };
            assert_eq!(back.exit_code(), e.exit_code(), "{line}");
            assert_eq!(back.to_string(), e.to_string());
        }
    }

    #[test]
    fn shed_is_a_runtime_failure_client_side() {
        let Response::Err(e) = Response::parse(&shed_response()).unwrap() else {
            panic!("expected error");
        };
        assert_eq!(e.exit_code(), 1);
        assert!(e.to_string().contains("overloaded"));
    }
}
