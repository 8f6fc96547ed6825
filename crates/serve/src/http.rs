//! Minimal std-only HTTP/1.1 framing.
//!
//! The workspace is deliberately offline — no hyper, no tokio — so the
//! daemon speaks just enough HTTP/1.1 over blocking [`TcpStream`]s for
//! its four endpoints: request-line + headers + `Content-Length` body
//! in, status + headers + body (or a streamed NDJSON body with
//! `Connection: close`) out. Every connection is one request; the
//! server closes after responding, which is also what lets the NDJSON
//! event stream signal its end without chunked encoding.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Largest request body accepted, in bytes. A sweep-job spec is a few
/// hundred bytes; 1 MiB leaves three orders of magnitude of headroom
/// while bounding what a hostile client can make the server buffer.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Longest request line or header line accepted, in bytes, line
/// terminator included. Reads stop here, so a client that never sends a
/// newline cannot make the server buffer more than this.
pub const MAX_LINE_BYTES: usize = 8 << 10;

/// Most header lines accepted in one request.
pub const MAX_HEADERS: usize = 100;

/// One parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method (`GET`, `POST`, …), as sent.
    pub method: String,
    /// Request path (`/jobs/j1/events`), query string excluded.
    pub path: String,
    /// Decoded request body (empty when no `Content-Length`).
    pub body: String,
}

/// A problem reading or framing a request.
#[derive(Debug)]
pub enum HttpError {
    /// The underlying socket failed.
    Io(std::io::Error),
    /// The request was malformed; the payload is a human-readable
    /// reason suitable for a 400 response.
    Bad(String),
    /// The declared `Content-Length` exceeds [`MAX_BODY_BYTES`].
    TooLarge,
    /// A request or header line exceeds [`MAX_LINE_BYTES`], or the
    /// request carries more than [`MAX_HEADERS`] headers.
    HeadTooLarge,
}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "socket error: {e}"),
            HttpError::Bad(why) => write!(f, "malformed request: {why}"),
            HttpError::TooLarge => write!(f, "request body exceeds {MAX_BODY_BYTES} bytes"),
            HttpError::HeadTooLarge => write!(
                f,
                "request line or header exceeds {MAX_LINE_BYTES} bytes, \
                 or more than {MAX_HEADERS} headers"
            ),
        }
    }
}

/// Reads one line of the request head, at most [`MAX_LINE_BYTES`] of it.
fn read_head_line(reader: &mut impl BufRead) -> Result<String, HttpError> {
    let mut buf = Vec::new();
    reader
        .take(MAX_LINE_BYTES as u64)
        .read_until(b'\n', &mut buf)?;
    if buf.len() >= MAX_LINE_BYTES && !buf.ends_with(b"\n") {
        return Err(HttpError::HeadTooLarge);
    }
    String::from_utf8(buf).map_err(|_| HttpError::Bad("request head is not UTF-8".to_string()))
}

/// Reads one HTTP/1.1 request off `stream`: request line, headers (only
/// `Content-Length` is interpreted), then exactly that many body bytes.
///
/// # Errors
///
/// [`HttpError::Bad`] on a malformed or non-UTF-8 request line, header,
/// or body; [`HttpError::HeadTooLarge`] when a line exceeds
/// [`MAX_LINE_BYTES`] or the headers exceed [`MAX_HEADERS`];
/// [`HttpError::TooLarge`] when the declared body exceeds
/// [`MAX_BODY_BYTES`]; [`HttpError::Io`] when the socket fails.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, HttpError> {
    let mut reader = BufReader::new(stream);
    let line = read_head_line(&mut reader)?;
    let mut parts = line.split_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::Bad(format!("bad request line {line:?}")));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Bad(format!("unsupported version {version:?}")));
    }
    let method = method.to_string();
    // Strip any query string — the endpoints take parameters in the
    // path or the body.
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut content_length = 0usize;
    let mut headers = 0usize;
    loop {
        let header = read_head_line(&mut reader)?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Err(HttpError::HeadTooLarge);
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(HttpError::Bad(format!("bad header {header:?}")));
        };
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| HttpError::Bad(format!("bad content-length {value:?}")))?;
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge);
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let body =
        String::from_utf8(body).map_err(|_| HttpError::Bad("body is not UTF-8".to_string()))?;
    Ok(Request { method, path, body })
}

/// The reason phrase for the status codes the daemon emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Writes a complete response with a `Content-Length` body and closes
/// the exchange (`Connection: close`).
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        reason(status),
        body.len(),
    )?;
    stream.flush()
}

/// Writes the header block of a streamed NDJSON response. The body has
/// no `Content-Length`; `Connection: close` makes end-of-stream the
/// socket close, so each subsequent line can be written and flushed the
/// moment its cell lands.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_stream_header(stream: &mut TcpStream) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// Feeds `raw` to [`read_request`] through a real socket pair.
    fn parse(raw: &str) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_string();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            // The server may stop reading (and close) before an
            // oversized request is fully written.
            let _ = s.write_all(raw.as_bytes());
        });
        let (mut conn, _) = listener.accept().unwrap();
        let req = read_request(&mut conn);
        writer.join().unwrap();
        req
    }

    #[test]
    fn parses_get_and_post() {
        let req = parse("GET /stats?verbose=1 HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/stats", "query string stripped");
        assert_eq!(req.body, "");

        let req = parse(
            "POST /jobs HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: 7\r\n\r\n{\"a\":1}",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.body, "{\"a\":1}");
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(matches!(parse("garbage\r\n\r\n"), Err(HttpError::Bad(_))));
        assert!(matches!(
            parse("GET / SPDY/3\r\n\r\n"),
            Err(HttpError::Bad(_))
        ));
        assert!(matches!(
            parse("POST /jobs HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            Err(HttpError::Bad(_))
        ));
        assert!(matches!(
            parse(&format!(
                "POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                MAX_BODY_BYTES + 1
            )),
            Err(HttpError::TooLarge)
        ));
    }

    #[test]
    fn rejects_an_unbounded_request_line() {
        let line = "A".repeat(1 << 20);
        assert!(matches!(parse(&line), Err(HttpError::HeadTooLarge)));
    }

    #[test]
    fn rejects_too_many_headers() {
        let mut raw = String::from("GET /stats HTTP/1.1\r\n");
        for i in 0..1_000 {
            raw.push_str(&format!("X-Filler-{i}: x\r\n"));
        }
        raw.push_str("\r\n");
        assert!(matches!(parse(&raw), Err(HttpError::HeadTooLarge)));
        // The cap itself is accepted.
        let mut raw = String::from("GET /stats HTTP/1.1\r\n");
        for i in 0..MAX_HEADERS {
            raw.push_str(&format!("X-Filler-{i}: x\r\n"));
        }
        raw.push_str("\r\n");
        assert_eq!(parse(&raw).unwrap().path, "/stats");
    }
}
