//! Robustness properties for the HTTP surface, in two tiers:
//!
//! 1. **Pure parser totality** — `read_request` over in-memory byte
//!    soup, mutated valid requests, and adversarially-shaped inputs:
//!    every outcome is `Ok` or a typed `HttpError`, never a panic; and
//!    `parse_request` over every prefix of a buffer reaches the whole
//!    buffer's verdict without ever contradicting it.
//! 2. **Live server survival** — the same input classes thrown at a
//!    real listener over TCP: malformed traffic maps to 4xx or a clean
//!    close (slow-loris times out within the configured bound), and
//!    the server keeps serving well-formed requests afterwards.
//!
//! A model-free registry config keeps these fast: malformed requests
//! never reach a handler, so no forest is ever trained.

use std::io::{BufReader, Cursor, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use synthattr_serve::http::{parse_request, read_request, HttpError, Limits, Parse};
use synthattr_serve::server::{RunningServer, ServeConfig, Server};
use synthattr_util::prop::{gen, Runner};
use synthattr_util::{prop_assert, Pcg64};

// ---------------------------------------------------------------- tier 1

/// The valid request the truncation property cuts.
const POSTED: &[u8] =
    b"POST /attribute?year=2018 HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\nint main(){";

/// The valid request the mutation property flips bytes of.
const MUTABLE: &[u8] = b"POST /attribute?year=2018&mode=x HTTP/1.1\r\nHost: srv\r\nX-Client-Id: abc\r\nContent-Length: 4\r\n\r\nwxyz";

/// Parsing arbitrary bytes is total: some `Ok`, some typed error, no
/// panic (the prop runner converts panics into failures).
#[test]
fn parser_is_total_over_byte_soup() {
    Runner::new("http-byte-soup").cases(512).run(
        |rng| gen::any_string(rng, 512).into_bytes(),
        |bytes| {
            let mut cursor = Cursor::new(bytes.as_slice());
            let _ = read_request(&mut cursor, &Limits::default());
            Ok(())
        },
    );
}

/// Structured soup: line-oriented garbage that *looks* like HTTP —
/// methods, targets, versions, header-ish lines — in random order.
#[test]
fn parser_is_total_over_http_shaped_fragments() {
    let fragments = [
        "GET / HTTP/1.1\r\n",
        "POST /attribute?year=2018 HTTP/1.1\r\n",
        "get / http/1.1\r\n",
        "GET  /  HTTP/1.1\r\n",
        "GET / HTTP/2.0\r\n",
        "/ GET HTTP/1.1\r\n",
        "Content-Length: 5\r\n",
        "Content-Length: -1\r\n",
        "Content-Length: 99999999999999999999\r\n",
        "Transfer-Encoding: chunked\r\n",
        ": empty name\r\n",
        "No-Colon-Header\r\n",
        "Connection: keep-alive\r\n",
        "Connection: close\r\n",
        "\r\n",
        "\n",
        "body bytes",
        "\0\0\0\0",
    ];
    Runner::new("http-fragment-soup").cases(512).run(
        |rng| {
            gen::vec_of(rng, 12, |rng| gen::select(rng, &fragments))
                .concat()
                .into_bytes()
        },
        |bytes| {
            let mut cursor = Cursor::new(bytes.as_slice());
            // Drain the whole stream the way a keep-alive loop would.
            for _ in 0..16 {
                match read_request(&mut cursor, &Limits::default()) {
                    Ok(Some(_)) => continue,
                    Ok(None) | Err(_) => break,
                }
            }
            Ok(())
        },
    );
}

/// Truncating a valid request at any byte boundary yields a clean
/// outcome: a parsed request (cut fell after it), a clean EOF, or a
/// typed error — never a panic or a bogus parse.
#[test]
fn truncation_at_every_boundary_is_handled() {
    Runner::new("http-truncation").cases(256).run(
        |rng| rng.next_below(POSTED.len() + 1),
        |&cut| {
            let mut cursor = Cursor::new(&POSTED[..cut]);
            match read_request(&mut cursor, &Limits::default()) {
                Ok(Some(req)) => {
                    prop_assert!(
                        cut == POSTED.len() && req.body == b"int main(){",
                        "a parse can only succeed on the full request (cut={cut})"
                    );
                }
                Ok(None) => prop_assert!(cut == 0, "clean EOF only on empty input"),
                Err(e) => prop_assert!(e.status() == 0 || e.status() >= 400),
            }
            Ok(())
        },
    );
}

/// Flipping one byte of a valid request never panics the parser, and
/// every reported error carries a 4xx/5xx status or a close condition.
#[test]
fn single_byte_mutations_never_panic() {
    Runner::new("http-mutation").cases(512).run(
        |rng| {
            let mut bytes = MUTABLE.to_vec();
            let at = rng.next_below(bytes.len());
            bytes[at] = rng.next_below(256) as u8;
            bytes
        },
        |bytes| {
            let mut cursor = Cursor::new(bytes.as_slice());
            if let Err(e) = read_request(&mut cursor, &Limits::default()) {
                prop_assert!(
                    e.status() == 0 || (400..=599).contains(&e.status()),
                    "error must map to a close or an HTTP status, got {}",
                    e.status()
                );
            }
            Ok(())
        },
    );
}

/// A verdict as the prefix property compares it: `None` while
/// incomplete, else the span and request, or the status and reason.
fn verdict(parsed: Result<Parse, HttpError>) -> Option<String> {
    match parsed {
        Ok(Parse::Incomplete(_)) => None,
        Ok(Parse::Complete { request, len }) => Some(format!("{len} {request:?}")),
        Err(e) => Some(format!("{} {}", e.status(), e.reason())),
    }
}

/// Every prefix of `buf` parses `Incomplete` until the first one that
/// decides, and every deciding prefix gets the whole buffer's verdict:
/// what the rotation loop concludes from the bytes a peer has sent so
/// far never depends on how the sends were split. A request is decided
/// exactly at its last byte. `read_request` through a 3-byte buffer
/// (a request split across fills) agrees, and consumes exactly the
/// request's span.
fn check_every_prefix(buf: &[u8]) -> Result<(), String> {
    let limits = Limits::default();
    let whole = verdict(parse_request(buf, &limits));
    let mut decided_at = None;
    for cut in 0..=buf.len() {
        match verdict(parse_request(&buf[..cut], &limits)) {
            None => prop_assert!(
                decided_at.is_none(),
                "cut {cut}: incomplete again after deciding at {decided_at:?}"
            ),
            Some(v) => {
                prop_assert!(
                    Some(&v) == whole.as_ref(),
                    "cut {cut}: {v} vs whole {whole:?}"
                );
                decided_at.get_or_insert(cut);
            }
        }
    }
    let mut reader = BufReader::with_capacity(3, buf);
    let streamed = read_request(&mut reader, &limits);
    match parse_request(buf, &limits) {
        Ok(Parse::Complete { request, len }) => {
            prop_assert!(
                decided_at == Some(len),
                "decided at {decided_at:?}, spans {len}"
            );
            let got = streamed
                .map_err(|e| e.reason())
                .map(|r| r.map(|r| format!("{r:?}")));
            prop_assert!(got == Ok(Some(format!("{request:?}"))), "streamed {got:?}");
            let rest = reader.buffer().len() + reader.get_ref().len();
            prop_assert!(
                rest == buf.len() - len,
                "consumed {} of {len}",
                buf.len() - rest
            );
        }
        Ok(Parse::Incomplete(progress)) => {
            let want = progress.at_eof().map(|e| (e.status(), e.reason()));
            let got = streamed.err().map(|e| (e.status(), e.reason()));
            prop_assert!(got == want, "at EOF: streamed {got:?}, want {want:?}");
        }
        Err(e) => {
            let got = streamed.err().map(|e| (e.status(), e.reason()));
            prop_assert!(
                got == Some((e.status(), e.reason())),
                "streamed {got:?} vs {e:?}"
            );
        }
    }
    Ok(())
}

/// The prefix property over the valid request, single-byte mutations
/// of it and truncations of it, plus fixed inputs for the blank-line,
/// framing and refusal paths.
#[test]
fn every_prefix_reaches_the_whole_buffers_verdict() {
    for raw in [
        "GET /a HTTP/1.1\r\n\r\n",
        "\r\n\r\nGET /a HTTP/1.1\r\nHost: x\r\n\r\n",
        "POST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi",
        "GET /a HTTP/1.0\nConnection: keep-alive\n\n",
        "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        "POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
        "POST / HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n",
        "GET /x HTTP/1.1\r\nno-colon\r\n\r\n",
        "\r\n\r\n\r\n\r\n",
        "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n",
    ] {
        if let Err(e) = check_every_prefix(raw.as_bytes()) {
            panic!("{raw:?}: {e}");
        }
    }
    Runner::new("http-prefixes").cases(256).run(
        |rng| match rng.next_below(3) {
            0 => POSTED.to_vec(),
            1 => {
                let mut bytes = MUTABLE.to_vec();
                let at = rng.next_below(bytes.len());
                bytes[at] = rng.next_below(256) as u8;
                bytes
            }
            _ => POSTED[..rng.next_below(POSTED.len() + 1)].to_vec(),
        },
        |bytes| check_every_prefix(bytes),
    );
}

/// Oversized inputs along every limited dimension map to their
/// specific statuses.
#[test]
fn oversize_maps_to_the_right_status() {
    let limits = Limits {
        max_request_line: 64,
        max_header_line: 64,
        max_headers: 4,
        max_body: 128,
    };
    Runner::new("http-oversize").cases(128).run(
        |rng| (rng.next_below(4), 1 + rng.next_below(64)),
        |&(kind, extra)| {
            let raw = match kind {
                0 => format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(64 + extra)),
                1 => format!(
                    "GET / HTTP/1.1\r\nX-Big: {}\r\n\r\n",
                    "b".repeat(64 + extra)
                ),
                2 => {
                    let headers: String =
                        (0..5 + extra % 8).map(|i| format!("H{i}: v\r\n")).collect();
                    format!("GET / HTTP/1.1\r\n{headers}\r\n")
                }
                _ => format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", 128 + extra),
            };
            let mut cursor = Cursor::new(raw.as_bytes());
            let err =
                read_request(&mut cursor, &limits).expect_err("oversized input must be rejected");
            let want = [414, 431, 431, 413][kind];
            prop_assert!(
                err.status() == want,
                "kind {kind}: want {want}, got {}",
                err.status()
            );
            Ok(())
        },
    );
}

// ---------------------------------------------------------------- tier 2

/// A registry-configured but never-trained server: malformed traffic
/// is rejected before any handler runs, so these spin up in
/// milliseconds. Short progress deadlines keep the slow-loris test
/// fast.
fn hardened_server() -> RunningServer {
    let mut config = ServeConfig::smoke();
    config.years = vec![2018];
    config.workers = Some(2);
    config.conn = synthattr_serve::ConnPolicy {
        header_deadline_ms: 150,
        body_deadline_ms: 150,
        write_stall_ms: 500,
        idle_budget_ms: 2_000,
        ..synthattr_serve::ConnPolicy::default()
    };
    config.limits = Limits {
        max_request_line: 1024,
        max_header_line: 1024,
        max_headers: 16,
        max_body: 4096,
    };
    Server::bind("127.0.0.1:0", config)
        .expect("bind")
        .spawn()
        .expect("spawn")
}

/// Sends raw bytes, optionally half-closes, and drains whatever the
/// server answers until it closes or `deadline` passes.
fn exchange_raw(server: &RunningServer, payload: &[u8], shutdown_write: bool) -> Vec<u8> {
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let _ = stream.write_all(payload);
    let _ = stream.flush();
    if shutdown_write {
        let _ = stream.shutdown(std::net::Shutdown::Write);
    }
    let mut out = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => return out,
            Ok(n) => out.extend_from_slice(&buf[..n]),
        }
    }
}

fn assert_alive(server: &RunningServer) {
    let resp = synthattr_serve::client::request(server.addr(), "GET", "/healthz", &[], b"")
        .expect("healthz after abuse");
    assert_eq!(resp.status, 200, "server must keep serving after abuse");
}

/// Byte soup over real TCP: the server answers with a 4xx or closes,
/// never hangs, and stays alive for the next client.
#[test]
fn live_server_survives_byte_soup() {
    let server = hardened_server();
    let mut rng = Pcg64::new(0xB1_7E50 + 7);
    for _ in 0..48 {
        let payload = gen::any_string(&mut rng, 768).into_bytes();
        let reply = exchange_raw(&server, &payload, true);
        if !reply.is_empty() {
            let head = String::from_utf8_lossy(&reply);
            assert!(
                head.starts_with("HTTP/1.1 4") || head.starts_with("HTTP/1.1 5"),
                "soup must map to an error status, got: {head:.60}"
            );
        }
    }
    assert_alive(&server);
    server.shutdown();
}

/// Oversized request lines and headers get their 414/431 over the
/// wire and the connection closes.
#[test]
fn live_server_rejects_oversized_requests() {
    let server = hardened_server();
    let long_target = format!("GET /{} HTTP/1.1\r\n\r\n", "u".repeat(4096));
    let reply = exchange_raw(&server, long_target.as_bytes(), false);
    assert!(
        String::from_utf8_lossy(&reply).starts_with("HTTP/1.1 414"),
        "got: {}",
        String::from_utf8_lossy(&reply)
    );

    let fat_header = format!(
        "GET /healthz HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
        "h".repeat(4096)
    );
    let reply = exchange_raw(&server, fat_header.as_bytes(), false);
    assert!(
        String::from_utf8_lossy(&reply).starts_with("HTTP/1.1 431"),
        "got: {}",
        String::from_utf8_lossy(&reply)
    );
    assert_alive(&server);
    server.shutdown();
}

/// A truncated body (Content-Length promises more than arrives) is a
/// 400, not a hang.
#[test]
fn live_server_rejects_truncated_bodies() {
    let server = hardened_server();
    let reply = exchange_raw(
        &server,
        b"POST /attribute?year=2018 HTTP/1.1\r\nContent-Length: 500\r\n\r\nshort",
        true,
    );
    assert!(
        String::from_utf8_lossy(&reply).starts_with("HTTP/1.1 400"),
        "got: {}",
        String::from_utf8_lossy(&reply)
    );
    assert_alive(&server);
    server.shutdown();
}

/// Slow-loris: a client that sends half a request line and stalls is
/// cut off by the header progress deadline — bounded wall-clock, and
/// because workers rotate instead of camping, no thread is lost.
#[test]
fn live_server_times_out_slow_loris_clients() {
    let server = hardened_server();
    let started = Instant::now();
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    stream.write_all(b"GET /heal").expect("drip");
    // Stall. The server's 150 ms header deadline must fire long before
    // our own 10 s guard.
    let mut buf = [0u8; 1024];
    let mut reply = Vec::new();
    loop {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => reply.extend_from_slice(&buf[..n]),
        }
    }
    let waited = started.elapsed();
    assert!(
        waited < Duration::from_secs(5),
        "loris connection must be cut near the 150 ms timeout, waited {waited:?}"
    );
    if !reply.is_empty() {
        assert!(
            String::from_utf8_lossy(&reply).starts_with("HTTP/1.1 408"),
            "got: {}",
            String::from_utf8_lossy(&reply)
        );
    }
    assert_alive(&server);
    server.shutdown();
}

/// Pipelined requests on one connection each get exactly one response,
/// in order.
#[test]
fn live_server_answers_pipelined_requests_in_order() {
    let server = hardened_server();
    let reply = exchange_raw(
        &server,
        b"GET /healthz HTTP/1.1\r\n\r\nGET /nope HTTP/1.1\r\n\r\nGET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        false,
    );
    let text = String::from_utf8_lossy(&reply);
    let statuses: Vec<&str> = text
        .split("HTTP/1.1 ")
        .skip(1)
        .map(|chunk| &chunk[..3])
        .collect();
    assert_eq!(
        statuses,
        vec!["200", "404", "200"],
        "three pipelined requests, three ordered responses: {text:.200}"
    );
    server.shutdown();
}

/// A blank line after a request is noise between requests, not the
/// start of the next one: a keep-alive client that ends its request
/// with an extra CRLF and then pauses past the header deadline is still
/// idle, and its next request gets a 200, not a 408.
#[test]
fn trailing_blank_line_leaves_a_keep_alive_client_idle() {
    let server = hardened_server();
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let request = b"GET /healthz HTTP/1.1\r\n\r\n\r\n";
    let read_reply = |stream: &mut TcpStream| {
        let mut reply = Vec::new();
        let mut buf = [0u8; 4096];
        // `/healthz` bodies end in `}`; one response per read loop.
        while !reply.ends_with(b"}") {
            match stream.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => reply.extend_from_slice(&buf[..n]),
            }
        }
        String::from_utf8_lossy(&reply).into_owned()
    };
    stream.write_all(request).expect("first request");
    let first = read_reply(&mut stream);
    assert!(first.starts_with("HTTP/1.1 200"), "got: {first:.80}");
    // Well past the 150 ms header deadline.
    std::thread::sleep(Duration::from_millis(400));
    stream.write_all(request).expect("second request");
    let second = read_reply(&mut stream);
    assert!(second.starts_with("HTTP/1.1 200"), "got: {second:.80}");
    assert_eq!(
        server
            .state()
            .conns()
            .closed(synthattr_serve::CloseCause::HeaderStall),
        0,
        "the trailing CRLF must not start a header deadline"
    );
    server.shutdown();
}
