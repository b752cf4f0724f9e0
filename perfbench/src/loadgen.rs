//! The open-loop load generator.
//!
//! One writer thread (the caller) sends requests on a fixed schedule —
//! request `k` is due at `start + k / rate` — over at most `conns`
//! keep-alive connections, pipelining without waiting for answers. One
//! reader thread per connection parses responses in order and times
//! each from when its request was *due*, so a stall also charges the
//! requests queued behind it. The writer records how late it sent each
//! request.
//!
//! The server recycles a connection after `ConnPolicy::max_requests`
//! requests, answering the last with `Connection: close`. The writer
//! sends at most that many on a connection and then opens a new one,
//! and it also reconnects when a reader sees an early close; both count
//! as reconnects, not failures. Requests whose connection closed
//! before answering count as failures.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::ScopedJoinHandle;
use std::time::{Duration, Instant};

use crate::cpu;

/// One request: the full HTTP bytes and the body it must be answered
/// with.
pub struct Request<'a> {
    pub bytes: &'a [u8],
    pub expected: &'a [u8],
}

/// A phase of traffic at one fixed rate.
pub struct Plan<'a> {
    pub addr: SocketAddr,
    pub rate: f64,
    pub count: usize,
    pub conns: usize,
    pub max_per_conn: u32,
    /// How long a reader waits for the next response byte.
    pub timeout: Duration,
    /// Request `k` of the phase.
    pub request: &'a (dyn Fn(usize) -> Request<'a> + Sync),
}

/// What one phase observed.
#[derive(Debug, Default, Clone)]
pub struct PhaseStats {
    pub sent: u64,
    pub ok: u64,
    /// Non-200, transport errors, timeouts and wrong bodies.
    pub failed: u64,
    /// `(request index, latency ms from its due time)` of each
    /// successful request.
    pub latencies_ms: Vec<(usize, f64)>,
    /// How late each request was written, ms past its due time.
    pub lag_ms: Vec<f64>,
    pub reconnects: u64,
    /// Seconds from the first request's due time to the last answer.
    pub wall_s: f64,
    /// CPU seconds of the writer and every reader.
    pub cpu_s: f64,
    pub errors: Vec<String>,
}

impl PhaseStats {
    /// Successful latencies in ms, in request order.
    pub fn latencies(&self) -> Vec<f64> {
        let mut by_k = self.latencies_ms.clone();
        by_k.sort_by_key(|(k, _)| *k);
        by_k.into_iter().map(|(_, ms)| ms).collect()
    }

    fn note(&mut self, why: String) {
        if self.errors.len() < 4 {
            self.errors.push(why);
        }
    }
}

/// A response as the reader parsed it.
struct Parsed {
    status: u16,
    close: bool,
    body: Vec<u8>,
}

/// Reads one `Content-Length`-framed response.
fn read_response(r: &mut impl BufRead) -> std::io::Result<Parsed> {
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(bad("connection closed before a response"));
    }
    let status = line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let (mut length, mut close) = (0usize, false);
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Err(bad("connection closed inside a response head"));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        let (name, value) = header.split_once(':').ok_or_else(|| bad("bad header"))?;
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = value.parse().map_err(|_| bad("bad content-length"))?;
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    let mut body = vec![0; length];
    r.read_exact(&mut body)?;
    Ok(Parsed {
        status,
        close,
        body,
    })
}

/// The reader side of one connection.
fn read_loop<'a>(
    stream: TcpStream,
    pending: mpsc::Receiver<(Instant, usize)>,
    closed: &AtomicBool,
    request: &(dyn Fn(usize) -> Request<'a> + Sync),
) -> PhaseStats {
    let mut out = PhaseStats::default();
    let mut r = BufReader::new(stream);
    let mut dead: Option<String> = None;
    for (due, k) in pending {
        if let Some(why) = &dead {
            out.failed += 1;
            out.note(format!("request {k}: {why}"));
            continue;
        }
        match read_response(&mut r) {
            Ok(resp) => {
                let latency = due.elapsed().as_secs_f64() * 1e3;
                if resp.status != 200 {
                    out.failed += 1;
                    out.note(format!("request {k}: status {}", resp.status));
                } else if resp.body != (request)(k).expected {
                    out.failed += 1;
                    out.note(format!("request {k}: wrong verdict"));
                } else {
                    out.ok += 1;
                    out.latencies_ms.push((k, latency));
                }
                if resp.close {
                    dead = Some("connection closed by the server".to_string());
                    closed.store(true, Ordering::SeqCst);
                }
            }
            Err(e) => {
                out.failed += 1;
                out.note(format!("request {k}: {e}"));
                dead = Some(e.to_string());
                closed.store(true, Ordering::SeqCst);
            }
        }
    }
    out.cpu_s = cpu::thread_s();
    out
}

/// One open connection as the writer holds it.
struct Conn<'s> {
    stream: TcpStream,
    pending: mpsc::Sender<(Instant, usize)>,
    closed: Arc<AtomicBool>,
    sent: u32,
    reader: ScopedJoinHandle<'s, PhaseStats>,
}

fn connect<'s, 'e: 's>(
    scope: &'s std::thread::Scope<'s, 'e>,
    plan: &'e Plan<'e>,
) -> std::io::Result<Conn<'s>> {
    let stream = TcpStream::connect(plan.addr)?;
    stream.set_nodelay(true)?;
    let read_half = stream.try_clone()?;
    read_half.set_read_timeout(Some(plan.timeout))?;
    let (tx, rx) = mpsc::channel();
    let closed = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&closed);
    let request = plan.request;
    let reader = scope.spawn(move || read_loop(read_half, rx, &flag, request));
    Ok(Conn {
        stream,
        pending: tx,
        closed,
        sent: 0,
        reader,
    })
}

/// Runs one phase and waits for every response (or its failure).
pub fn run<'a>(plan: &'a Plan<'a>) -> PhaseStats {
    let cpu0 = cpu::thread_s();
    let mut total = PhaseStats::default();
    let start = Instant::now() + Duration::from_millis(2);
    let readers = std::thread::scope(|scope| {
        let mut done = Vec::new();
        let mut conns: Vec<Option<Conn>> = (0..plan.conns.max(1)).map(|_| None).collect();
        for k in 0..plan.count {
            let due = start + Duration::from_secs_f64(k as f64 / plan.rate); // rate may be infinite: all due at start
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            total.lag_ms.push(due.elapsed().as_secs_f64() * 1e3);
            total.sent += 1;
            let slot = &mut conns[k % plan.conns.max(1)];
            let recycle = slot
                .as_ref()
                .is_some_and(|c| c.sent >= plan.max_per_conn || c.closed.load(Ordering::SeqCst));
            if recycle {
                let old = slot.take().expect("slot is open");
                done.push(old.reader);
                total.reconnects += 1;
            }
            if slot.is_none() {
                match connect(scope, plan) {
                    Ok(c) => *slot = Some(c),
                    Err(e) => {
                        total.failed += 1;
                        total.note(format!("request {k}: connect: {e}"));
                        continue;
                    }
                }
            }
            let conn = slot.as_mut().expect("slot was just opened");
            conn.sent += 1;
            // The reader learns of the request before its bytes leave,
            // so it never misses a response.
            let _ = conn.pending.send((due, k));
            if conn.stream.write_all((plan.request)(k).bytes).is_err() {
                // The reader fails this request when the response never
                // comes; the next request on the slot reconnects.
                conn.closed.store(true, Ordering::SeqCst);
            }
        }
        for c in conns.into_iter().flatten() {
            done.push(c.reader);
        }
        done.into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect::<Vec<_>>()
    });
    total.wall_s = start.elapsed().as_secs_f64();
    for r in readers {
        total.ok += r.ok;
        total.failed += r.failed;
        total.latencies_ms.extend(r.latencies_ms);
        total.cpu_s += r.cpu_s;
        for e in r.errors {
            total.note(e);
        }
    }
    total.cpu_s += cpu::thread_s() - cpu0;
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parses_framed_responses_and_close() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}HTTP/1.1 429 Too Many\r\ncontent-length: 0\r\n\r\n";
        let mut r = Cursor::new(&raw[..]);
        let a = read_response(&mut r).unwrap();
        assert_eq!(
            (a.status, a.close, a.body.as_slice()),
            (200, true, &b"{}"[..])
        );
        let b = read_response(&mut r).unwrap();
        assert_eq!((b.status, b.close, b.body.len()), (429, false, 0));
        assert!(read_response(&mut r).is_err());
    }

    #[test]
    fn truncated_bodies_are_errors() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nshort";
        assert!(read_response(&mut Cursor::new(&raw[..])).is_err());
    }
}
