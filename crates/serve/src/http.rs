//! A minimal, defensive HTTP/1.1 wire layer.
//!
//! Hand-rolled on `std` because the workspace is hermetic (zero
//! registry dependencies): no hyper, no epoll crate. The server's
//! rotation loop reads whatever a non-blocking socket has to offer
//! into a per-connection buffer, so a buffer usually holds a *prefix*
//! of a request. [`parse_request`] is the one parser, over such a
//! slice: it returns a whole request and the bytes it spans, says how
//! far an unfinished one has got ([`Progress`]), or names the defect.
//! [`read_request`] feeds it from any [`BufRead`], so the property
//! suite and the benchmark replay drive the same code with in-memory
//! cursors. Every input dimension is hard-limited (request line,
//! header count, header size, body size) and each line is judged as
//! soon as it is complete, so a hostile peer can cost at most a
//! bounded read before a 4xx.
//!
//! Supported surface: `GET`/`POST`/`HEAD`, `Content-Length` bodies,
//! keep-alive and pipelining. Chunked transfer encoding is refused
//! with `501` rather than half-implemented.

use std::io::{self, BufRead, Write};

/// Input hard limits. Exceeding any of them is a client error, never a
/// panic or an unbounded allocation.
#[derive(Debug, Clone)]
pub struct Limits {
    /// Longest accepted request line, in bytes.
    pub max_request_line: usize,
    /// Longest accepted single header line, in bytes.
    pub max_header_line: usize,
    /// Most headers accepted per request.
    pub max_headers: usize,
    /// Largest accepted body, in bytes.
    pub max_body: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_request_line: 8 * 1024,
            max_header_line: 8 * 1024,
            max_headers: 64,
            max_body: 1024 * 1024,
        }
    }
}

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, `HEAD`).
    pub method: String,
    /// Path component of the target, before any `?`.
    pub path: String,
    /// Decoded query parameters in order of appearance.
    pub query: Vec<(String, String)>,
    /// Headers with lowercased names, in wire order.
    pub headers: Vec<(String, String)>,
    /// The body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
}

impl Request {
    /// First value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// First value of a query parameter.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Everything that can go wrong while reading a request. Each variant
/// maps to one response status; none of them panic.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request (syntax, bad framing, truncated mid-request).
    BadRequest(&'static str),
    /// Request line exceeded [`Limits::max_request_line`] → 414.
    UriTooLong,
    /// A header exceeded [`Limits::max_header_line`] or there were more
    /// than [`Limits::max_headers`] → 431.
    HeadersTooLarge,
    /// Body exceeded [`Limits::max_body`] → 413.
    BodyTooLarge,
    /// A started request stalled past its progress deadline
    /// (slow-loris) → 408.
    Timeout,
    /// Chunked or otherwise unsupported framing → 501.
    Unsupported(&'static str),
    /// Transport-level failure; the connection is unusable.
    Io(io::Error),
}

impl HttpError {
    /// The response status for this error (0 for [`HttpError::Io`],
    /// where no response can or should be sent).
    pub fn status(&self) -> u16 {
        match self {
            HttpError::Io(_) => 0,
            HttpError::BadRequest(_) => 400,
            HttpError::UriTooLong => 414,
            HttpError::HeadersTooLarge => 431,
            HttpError::BodyTooLarge => 413,
            HttpError::Timeout => 408,
            HttpError::Unsupported(_) => 501,
        }
    }

    /// Short operator-facing description.
    pub fn reason(&self) -> &'static str {
        match self {
            HttpError::BadRequest(why) => why,
            HttpError::UriTooLong => "request line too long",
            HttpError::HeadersTooLarge => "headers too large",
            HttpError::BodyTooLarge => "body too large",
            HttpError::Timeout => "request read timed out",
            HttpError::Unsupported(why) => why,
            HttpError::Io(_) => "io error",
        }
    }
}

/// Minimal percent-decoding for query values (`%xx` and `+`). Invalid
/// escapes pass through literally — queries here carry years and small
/// identifiers, not arbitrary documents.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' if i + 2 < bytes.len() => {
                let hex = std::str::from_utf8(&bytes[i + 1..i + 3]).ok();
                match hex.and_then(|h| u8::from_str_radix(h, 16).ok()) {
                    Some(b) => {
                        out.push(b);
                        i += 2;
                    }
                    None => out.push(b'%'),
                }
            }
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Splits a request target into path and decoded query pairs.
fn split_target(target: &str) -> (String, Vec<(String, String)>) {
    match target.split_once('?') {
        None => (target.to_string(), Vec::new()),
        Some((path, query)) => {
            let pairs = query
                .split('&')
                .filter(|p| !p.is_empty())
                .map(|p| match p.split_once('=') {
                    Some((k, v)) => (percent_decode(k), percent_decode(v)),
                    None => (percent_decode(p), String::new()),
                })
                .collect();
            (path.to_string(), pairs)
        }
    }
}

/// Most blank lines tolerated before a request line: RFC 9112 §2.2
/// allows a little CRLF noise between pipelined requests, but endless
/// blank lines are a stall, not a request.
const MAX_BLANK_LINES: usize = 3;

/// How far an unfinished request has got: what the connection's
/// progress deadlines key on, and what an end of input here means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Progress {
    /// Nothing, or only blank lines: the peer is between requests.
    Idle,
    /// A request line has started and the head is not complete yet.
    Head {
        /// The buffer ends inside a line.
        mid_line: bool,
    },
    /// The head is complete and some of the declared body is missing.
    Body,
}

impl Progress {
    /// The error to answer if input ends here: `None` is a clean close
    /// between requests, a started request is a truncation.
    pub fn at_eof(self) -> Option<HttpError> {
        let why = match self {
            Progress::Idle => return None,
            Progress::Head { mid_line: true } => "truncated line",
            Progress::Head { mid_line: false } => "truncated headers",
            Progress::Body => "truncated body",
        };
        Some(HttpError::BadRequest(why))
    }
}

/// What [`parse_request`] found at the front of a buffer.
#[derive(Debug)]
pub enum Parse {
    /// A whole request: the first `len` bytes (leading blank lines,
    /// head and body) are its own, anything after is the next one's.
    Complete {
        /// The parsed request.
        request: Request,
        /// Bytes the request spans.
        len: usize,
    },
    /// No whole request yet; more bytes may complete it.
    Incomplete(Progress),
}

/// Parses the request at the front of `buf`, which may hold only part
/// of it, or more than one request.
///
/// The verdict on a prefix never changes as bytes are appended: a
/// prefix is `Incomplete` until the first byte that completes the
/// request or shows a defect, and from there on every longer buffer
/// gets the same answer. Defects are reported in wire order, each as
/// soon as the line holding it is complete (an over-long line as soon
/// as it passes its limit); framing defects (`Transfer-Encoding`,
/// `Content-Length`) as soon as the head is.
///
/// # Errors
///
/// See [`HttpError`]; every limit violation and framing defect maps to
/// a 4xx/5xx status rather than a panic. The buffer's framing is lost
/// after an error, so the caller answers it and closes.
pub fn parse_request(buf: &[u8], limits: &Limits) -> Result<Parse, HttpError> {
    let mut pos = 0;
    let mut blank_lines = 0;
    let request_line = loop {
        match next_line(
            buf,
            &mut pos,
            limits.max_request_line,
            HttpError::UriTooLong,
        )? {
            None if pos == buf.len() => return Ok(Parse::Incomplete(Progress::Idle)),
            None => return Ok(Parse::Incomplete(Progress::Head { mid_line: true })),
            Some([]) if blank_lines == MAX_BLANK_LINES => {
                return Err(HttpError::BadRequest("blank-line flood"))
            }
            Some([]) => blank_lines += 1,
            Some(line) => break utf8(line)?,
        }
    };
    let (method, target, http11) = split_request_line(request_line)?;

    let mut headers: Vec<(&str, &str)> = Vec::new();
    loop {
        let Some(line) = next_line(
            buf,
            &mut pos,
            limits.max_header_line,
            HttpError::HeadersTooLarge,
        )?
        else {
            let mid_line = pos < buf.len();
            return Ok(Parse::Incomplete(Progress::Head { mid_line }));
        };
        let line = utf8(line)?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= limits.max_headers {
            return Err(HttpError::HeadersTooLarge);
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadRequest("header without colon"));
        };
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::BadRequest("malformed header name"));
        }
        headers.push((name, value.trim()));
    }

    let body_len = body_length(&headers, limits)?;
    let Some(body) = buf[pos..].get(..body_len) else {
        return Ok(Parse::Incomplete(Progress::Body));
    };
    let connection = headers
        .iter()
        .find(|(name, _)| name.eq_ignore_ascii_case("connection"))
        .map(|(_, value)| value.to_ascii_lowercase());
    let keep_alive = match connection {
        Some(c) if c.contains("close") => false,
        Some(c) if c.contains("keep-alive") => true,
        _ => http11,
    };
    let (path, query) = split_target(target);
    let request = Request {
        method: method.to_string(),
        path,
        query,
        headers: headers
            .iter()
            .map(|(name, value)| (name.to_ascii_lowercase(), value.to_string()))
            .collect(),
        body: body.to_vec(),
        keep_alive,
    };
    Ok(Parse::Complete {
        request,
        len: pos + body_len,
    })
}

/// The line starting at `*pos`, without its `\n` or `\r\n`, moving
/// `*pos` past it; `Ok(None)` while the line is unfinished. A line of
/// more than `max` bytes (a trailing `\r` counts) is `too_long` as soon
/// as `max + 1` of its bytes are buffered, so the search never looks
/// further than that.
fn next_line<'a>(
    buf: &'a [u8],
    pos: &mut usize,
    max: usize,
    too_long: HttpError,
) -> Result<Option<&'a [u8]>, HttpError> {
    let rest = &buf[*pos..];
    let window = &rest[..rest.len().min(max.saturating_add(1))];
    match window.iter().position(|&b| b == b'\n') {
        Some(end) => {
            *pos += end + 1;
            let line = &rest[..end];
            Ok(Some(line.strip_suffix(b"\r").unwrap_or(line)))
        }
        None if rest.len() > max => Err(too_long),
        None => Ok(None),
    }
}

fn utf8(line: &[u8]) -> Result<&str, HttpError> {
    std::str::from_utf8(line).map_err(|_| HttpError::BadRequest("non-utf8 line"))
}

/// Splits `METHOD SP target SP version` into the method, the
/// origin-form target and whether the version is HTTP/1.1.
fn split_request_line(line: &str) -> Result<(&str, &str, bool), HttpError> {
    let mut parts = line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(HttpError::BadRequest("malformed request line")),
    };
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HttpError::BadRequest("malformed method token"));
    }
    if !target.starts_with('/') {
        return Err(HttpError::BadRequest("target must be origin-form"));
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err(HttpError::BadRequest("unsupported http version")),
    };
    Ok((method, target, http11))
}

/// The body length a complete head declares. Transfer codings are
/// refused. Every `Content-Length` must be `1*DIGIT` and all of them
/// must agree (RFC 9112 §6.3): a peer that sends two lengths frames
/// the stream one way for us and another way for any intermediary
/// that picked the other.
fn body_length(headers: &[(&str, &str)], limits: &Limits) -> Result<usize, HttpError> {
    if headers
        .iter()
        .any(|(name, _)| name.eq_ignore_ascii_case("transfer-encoding"))
    {
        return Err(HttpError::Unsupported("transfer-encoding not supported"));
    }
    let mut declared = None;
    for (_, value) in headers
        .iter()
        .filter(|(name, _)| name.eq_ignore_ascii_case("content-length"))
    {
        // `usize::from_str` also takes a leading `+`.
        let len = match value.parse::<usize>() {
            Ok(len) if value.bytes().all(|b| b.is_ascii_digit()) => len,
            _ => return Err(HttpError::BadRequest("malformed content-length")),
        };
        if declared.is_some_and(|first| first != len) {
            return Err(HttpError::BadRequest("conflicting content-length"));
        }
        declared = Some(len);
    }
    let len = declared.unwrap_or(0);
    if len > limits.max_body {
        return Err(HttpError::BodyTooLarge);
    }
    Ok(len)
}

/// Reads and parses one request from `reader`, consuming exactly the
/// bytes it spans, so pipelined requests read back to back.
///
/// `Ok(None)` means input ended between requests (normal keep-alive
/// teardown). Any other [`HttpError`] than [`HttpError::Io`] should be
/// answered with [`Response::from_error`] before closing.
///
/// # Errors
///
/// What [`parse_request`] reports, the truncation [`Progress::at_eof`]
/// names when input ends mid-request, or [`HttpError::Io`] when the
/// reader fails.
pub fn read_request(
    reader: &mut impl BufRead,
    limits: &Limits,
) -> Result<Option<Request>, HttpError> {
    // This request's bytes from earlier fills. While it is empty the
    // reader's own buffer is parsed in place.
    let mut taken: Vec<u8> = Vec::new();
    let mut progress = Progress::Idle;
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(HttpError::Io(e)),
        };
        if chunk.is_empty() {
            return progress.at_eof().map_or(Ok(None), Err);
        }
        let earlier = taken.len();
        let parsed = if earlier == 0 {
            parse_request(chunk, limits)?
        } else {
            taken.extend_from_slice(chunk);
            parse_request(&taken, limits)?
        };
        match parsed {
            Parse::Complete { request, len } => {
                // `taken` alone was incomplete, so the request ends in
                // this chunk.
                reader.consume(len - earlier);
                return Ok(Some(request));
            }
            Parse::Incomplete(now) => {
                progress = now;
                let n = chunk.len();
                if earlier == 0 {
                    taken.extend_from_slice(chunk);
                }
                reader.consume(n);
            }
        }
    }
}

/// One response ready to serialize.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Vec<u8>,
    /// Whether the server should close the connection after writing.
    pub close: bool,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            close: false,
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: &str) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.as_bytes().to_vec(),
            close: false,
        }
    }

    /// The error response for a failed request read (connection always
    /// closes afterwards: framing state is unrecoverable).
    pub fn from_error(err: &HttpError) -> Self {
        let mut r = Response::json(
            err.status(),
            format!("{{\"error\":{}}}", crate::json::string(err.reason())),
        );
        r.close = true;
        r
    }

    /// The standard reason phrase for this status.
    pub fn reason_phrase(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Content Too Large",
            414 => "URI Too Long",
            422 => "Unprocessable Content",
            429 => "Too Many Requests",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            501 => "Not Implemented",
            503 => "Service Unavailable",
            _ => "Response",
        }
    }

    /// Serializes the response into one buffer (status line, headers,
    /// body) — the unit the rotation loop queues for non-blocking
    /// writes, so header and body always share a packet.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.body.len() + 128);
        write!(
            out,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
            self.status,
            self.reason_phrase(),
            self.content_type,
            self.body.len(),
            if self.close { "close" } else { "keep-alive" },
        )
        .expect("write! to a Vec cannot fail");
        out.extend_from_slice(&self.body);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(raw: &str) -> Result<Option<Request>, HttpError> {
        read_request(&mut Cursor::new(raw.as_bytes()), &Limits::default())
    }

    #[test]
    fn parses_a_get_with_query_and_headers() {
        let req =
            parse("GET /attribute?year=2018&k=v HTTP/1.1\r\nHost: x\r\nX-Client-Id: abc\r\n\r\n")
                .unwrap()
                .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/attribute");
        assert_eq!(req.query_param("year"), Some("2018"));
        assert_eq!(req.query_param("k"), Some("v"));
        assert_eq!(req.header("x-client-id"), Some("abc"));
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_a_post_body_by_content_length() {
        let req = parse("POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhelloEXTRA")
            .unwrap()
            .unwrap();
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn clean_eof_is_none_not_an_error() {
        assert!(parse("").unwrap().is_none());
    }

    #[test]
    fn malformed_request_lines_are_400() {
        for raw in [
            "GET\r\n\r\n",
            "GET /x\r\n\r\n",
            "GET /x HTTP/1.1 EXTRA\r\n\r\n",
            "get /x HTTP/1.1\r\n\r\n",
            "GET x HTTP/1.1\r\n\r\n",
            "GET /x HTTP/2.0\r\n\r\n",
            "GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n",
            "GET /x HTTP/1.1\r\nbad name: v\r\n\r\n",
            "POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
        ] {
            let err = parse(raw).expect_err(raw);
            assert_eq!(err.status(), 400, "{raw:?} → {err:?}");
        }
    }

    #[test]
    fn oversized_inputs_map_to_their_statuses() {
        let long_target = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(9000));
        assert_eq!(parse(&long_target).unwrap_err().status(), 414);

        let big_header = format!("GET / HTTP/1.1\r\nX-Big: {}\r\n\r\n", "b".repeat(9000));
        assert_eq!(parse(&big_header).unwrap_err().status(), 431);

        let many_headers = format!(
            "GET / HTTP/1.1\r\n{}\r\n",
            (0..70)
                .map(|i| format!("X-H{i}: v\r\n"))
                .collect::<String>()
        );
        assert_eq!(parse(&many_headers).unwrap_err().status(), 431);

        let huge_body = "POST / HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n";
        assert_eq!(parse(huge_body).unwrap_err().status(), 413);
    }

    #[test]
    fn truncated_body_is_a_bad_request() {
        let err = parse("POST /x HTTP/1.1\r\nContent-Length: 100\r\n\r\nshort").unwrap_err();
        assert_eq!(err.status(), 400);
    }

    #[test]
    fn chunked_encoding_is_refused_not_half_implemented() {
        let err = parse("POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").unwrap_err();
        assert_eq!(err.status(), 501);
    }

    #[test]
    fn connection_header_controls_keep_alive() {
        let close = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!close.keep_alive);
        let http10 = parse("GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(!http10.keep_alive, "HTTP/1.0 defaults to close");
        let http10_ka = parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(http10_ka.keep_alive);
    }

    #[test]
    fn pipelined_requests_parse_back_to_back() {
        let raw = "GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi\r\n";
        // A cursor hands the parser everything at once; small buffers
        // split requests across fills, which must consume exactly one
        // request's bytes each time all the same.
        for capacity in [raw.len(), 1, 3, 7] {
            let mut reader = io::BufReader::with_capacity(capacity, raw.as_bytes());
            let a = read_request(&mut reader, &Limits::default())
                .unwrap()
                .unwrap();
            let b = read_request(&mut reader, &Limits::default())
                .unwrap()
                .unwrap();
            assert_eq!(a.path, "/a", "capacity {capacity}");
            assert_eq!(
                (&*b.method, &*b.path),
                ("POST", "/b"),
                "capacity {capacity}"
            );
            assert_eq!(b.body, b"hi", "capacity {capacity}");
            assert!(read_request(&mut reader, &Limits::default())
                .unwrap()
                .is_none());
        }
    }

    #[test]
    fn percent_decoding_covers_the_query_surface() {
        let req = parse("GET /x?a=1%202&b=c+d&flag&bad=%zz HTTP/1.1\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.query_param("a"), Some("1 2"));
        assert_eq!(req.query_param("b"), Some("c d"));
        assert_eq!(req.query_param("flag"), Some(""));
        assert_eq!(req.query_param("bad"), Some("%zz"));
    }

    fn scan(buf: &[u8]) -> Result<Parse, HttpError> {
        parse_request(buf, &Limits::default())
    }

    fn progress(buf: &[u8]) -> Progress {
        match scan(buf) {
            Ok(Parse::Incomplete(progress)) => progress,
            other => panic!(
                "{:?}: expected Incomplete, got {other:?}",
                String::from_utf8_lossy(buf)
            ),
        }
    }

    fn complete_len(buf: &[u8]) -> usize {
        match scan(buf) {
            Ok(Parse::Complete { len, .. }) => len,
            other => panic!(
                "{:?}: expected Complete, got {other:?}",
                String::from_utf8_lossy(buf)
            ),
        }
    }

    #[test]
    fn scan_classifies_prefixes_of_a_posted_request() {
        let full = b"POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        let head_end = full
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .map(|p| p + 4)
            .unwrap();
        let total = full.len(); // head + the 5 declared body bytes
        assert_eq!(progress(b""), Progress::Idle);
        for cut in 1..head_end {
            // Everything before the blank line ends is a partial head.
            let mid_line = full[cut - 1] != b'\n';
            assert_eq!(
                progress(&full[..cut]),
                Progress::Head { mid_line },
                "cut={cut}"
            );
        }
        for cut in head_end..total {
            assert_eq!(progress(&full[..cut]), Progress::Body, "cut={cut}");
        }
        assert_eq!(complete_len(full), total, "whole request buffered");
        // Extra pipelined bytes never change the first request's span.
        let mut two = full.to_vec();
        two.extend_from_slice(b"GET /y HTTP/1.1\r\n\r\n");
        assert_eq!(complete_len(&two), total);
    }

    #[test]
    fn blank_lines_before_a_request_are_idle() {
        for blanks in ["\r\n", "\r\n\n", "\r\n\r\n\r\n"] {
            assert_eq!(progress(blanks.as_bytes()), Progress::Idle, "{blanks:?}");
            assert!(
                parse(blanks).unwrap().is_none(),
                "EOF after {blanks:?} is a clean close"
            );
            let raw = format!("{blanks}GET /a HTTP/1.1\r\n\r\n");
            assert_eq!(complete_len(raw.as_bytes()), raw.len(), "{raw:?}");
        }
        // A started line after them is a started request.
        assert_eq!(progress(b"\r\n\r"), Progress::Head { mid_line: true });
        let err = scan(b"\r\n\r\n\r\n\r\n").unwrap_err();
        assert_eq!(err.reason(), "blank-line flood");
    }

    #[test]
    fn a_complete_invalid_request_line_is_rejected_before_the_head_ends() {
        // A line is judged as soon as it is complete: no waiting for
        // the blank line (or the header deadline) to name the defect,
        // and no later over-long header can outrank it.
        let fat = format!("get / HTTP/1.1\r\nX-Big: {}", "b".repeat(9000));
        for raw in ["GARBAGE\r\nHost: x\r\n", "GARBAGE\r\n", fat.as_str()] {
            let err = scan(raw.as_bytes()).expect_err(raw);
            assert_eq!(err.status(), 400, "{raw:.40?} → {err:?}");
        }
        let err = scan(b"GET /x HTTP/1.1\r\nno-colon\r\n").unwrap_err();
        assert_eq!(err.reason(), "header without colon");
    }

    #[test]
    fn scan_rejects_oversized_lines_before_they_finish() {
        let long_target = format!("GET /{}", "a".repeat(9000));
        assert_eq!(
            scan(long_target.as_bytes()).unwrap_err().status(),
            414,
            "partial oversize request line is decidable early"
        );
        let big_header = format!("GET / HTTP/1.1\r\nX-Big: {}", "b".repeat(9000));
        assert_eq!(scan(big_header.as_bytes()).unwrap_err().status(), 431);
        let many = format!(
            "GET / HTTP/1.1\r\n{}",
            (0..70)
                .map(|i| format!("X-H{i}: v\r\n"))
                .collect::<String>()
        );
        assert_eq!(scan(many.as_bytes()).unwrap_err().status(), 431);
        // Exactly at the limit is still fine, and so is a complete line
        // whose `\r` is the limit's last byte.
        let at_limit = format!("GET /{}", "a".repeat(8 * 1024 - 5));
        assert_eq!(
            progress(at_limit.as_bytes()),
            Progress::Head { mid_line: true }
        );
        let line = format!("GET /{} HTTP/1.1\r\n", "a".repeat(8 * 1024 - 15));
        assert_eq!(line.len(), 8 * 1024 + 1);
        assert_eq!(
            progress(line.as_bytes()),
            Progress::Head { mid_line: false }
        );
        let over = format!("GET /{} HTTP/1.1\r\n", "a".repeat(8 * 1024 - 14));
        assert_eq!(scan(over.as_bytes()).unwrap_err().status(), 414);
    }

    #[test]
    fn conflicting_content_lengths_are_a_bad_request() {
        let raw = "POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 9\r\n\r\nhi";
        let err = parse(raw).unwrap_err();
        assert_eq!(
            (err.status(), err.reason()),
            (400, "conflicting content-length")
        );
        // Identical duplicates agree on one framing and are accepted.
        let req = parse("POST /x HTTP/1.1\r\nContent-Length: 2\r\ncontent-length: 2\r\n\r\nhi")
            .unwrap()
            .unwrap();
        assert_eq!(req.body, b"hi");
        // Not `1*DIGIT`, even where `usize::from_str` would accept it.
        for value in ["+2", "-0", " ", "2 2", "0x2", "2,2"] {
            let raw = format!("POST /x HTTP/1.1\r\nContent-Length: {value}\r\n\r\nhi");
            let err = parse(&raw).expect_err(&raw);
            assert_eq!(err.reason(), "malformed content-length", "{value:?}");
        }
    }

    #[test]
    fn responses_serialize_with_exact_framing() {
        let bytes = Response::json(200, "{\"ok\":true}".to_string()).to_bytes();
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
    }

    #[test]
    fn error_responses_always_close() {
        let r = Response::from_error(&HttpError::Timeout);
        assert_eq!(r.status, 408);
        assert!(r.close);
        assert!(String::from_utf8(r.body).unwrap().contains("timed out"));
    }
}
