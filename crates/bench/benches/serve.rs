//! Serving-path benchmark: a real `synthattr-serve` server on a
//! loopback socket under seeded open-loop load.
//!
//! Scenarios:
//!
//! * `attribute/serial` — one keep-alive client, per-request latency;
//! * `attribute/concurrent8` — eight keep-alive clients hammering the
//!   same server; the summary's p50/p95 are per-request latencies
//!   across all clients, and a separate `throughput` line reports
//!   sustained req/s;
//! * `healthz/serial` — the no-model control: pure parse + route +
//!   serialize overhead;
//! * `sweep/cN` (N ∈ 1, 8, 64, 256) — the saturating sweep: N
//!   keep-alive clients against a fixed 4-worker pool, which is where
//!   connection rotation earns its keep (workers park idle
//!   connections instead of camping, so 256 clients don't need 256
//!   threads server-side);
//! * `sweep+loris16/cN` — the same sweep with 16 slow-loris
//!   connections (from `synthattr_faults::TrafficProfile`) held open
//!   in the background, reconnecting whenever the header deadline
//!   cuts them — the survivability overhead, measured.
//!
//! Request sources are drawn per-client from a seeded [`Pcg64`], so
//! two runs issue the identical request streams. The registry is
//! preloaded and each client issues one discarded warmup request
//! before its measured stream — first-request latencies measure the
//! server, not connection or queue hand-off. Honors
//! `SYNTHATTR_BENCH_SAMPLES` (requests per scenario, default 256).
//! Feeds `BENCH_serve.json` via `scripts/bench.sh`.

use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use synthattr_bench::harness::Summary;
use synthattr_core::config::ExperimentConfig;
use synthattr_faults::{HostileKind, TrafficProfile};
use synthattr_serve::client::Client;
use synthattr_serve::server::{RunningServer, ServeConfig, Server};
use synthattr_util::Pcg64;

const YEAR: u32 = 2018;
const CLIENTS: usize = 8;
const SWEEP: [usize; 4] = [1, 8, 64, 256];
const LORIS: usize = 16;

fn samples_per_scenario() -> usize {
    std::env::var("SYNTHATTR_BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(256)
}

fn sources() -> Vec<String> {
    (0..16)
        .map(|i| {
            format!(
                "int work{i}(int x) {{ int y = x + {i}; return y * {m}; }}\n\
                 int main() {{ int acc = {i}; for (int k = 0; k < {n}; k = k + 1) {{ acc = acc + work{i}(k); }} return acc; }}\n",
                m = i + 1,
                n = 4 + i,
            )
        })
        .collect()
}

fn spawn_server() -> RunningServer {
    let mut config = ServeConfig::smoke();
    config.experiment = ExperimentConfig::smoke();
    config.years = vec![YEAR];
    config.rate = None;
    config.preload = true;
    // Connection rotation decouples the pool from the connection
    // count: workers park connections that yield no bytes, so a fixed
    // 4-worker pool serves every cell of the sweep — including 256
    // concurrent clients plus 16 hostile loris — without a
    // thread-per-connection anywhere.
    config.workers = Some(4);
    Server::bind("127.0.0.1:0", config)
        .expect("bind")
        .spawn()
        .expect("spawn")
}

/// One client's seeded request loop; returns per-request nanoseconds.
///
/// Issues one untimed warmup request after connecting — it absorbs
/// connection setup and the worker hand-off — and, when `ready` is
/// given, waits on it so every concurrent client starts its measured
/// stream together.
fn client_loop(
    server: &RunningServer,
    client_id: usize,
    requests: usize,
    sources: &[String],
    ready: Option<&std::sync::Barrier>,
) -> Vec<u128> {
    let mut rng = Pcg64::seed_from(0xB_E4C4, &["serve-load", &client_id.to_string()]);
    let mut client = Client::connect(server.addr()).expect("connect");
    let target = format!("/attribute?year={YEAR}");
    let warm = client
        .request("POST", &target, &[], sources[0].as_bytes())
        .expect("warmup");
    assert_eq!(warm.status, 200, "warmup failed: {}", warm.text());
    if let Some(barrier) = ready {
        barrier.wait();
    }
    let mut lat = Vec::with_capacity(requests);
    for _ in 0..requests {
        let src = &sources[rng.next_below(sources.len())];
        let started = Instant::now();
        let resp = client
            .request("POST", &target, &[], src.as_bytes())
            .expect("attribute");
        lat.push(started.elapsed().as_nanos());
        assert_eq!(resp.status, 200, "bench request failed: {}", resp.text());
    }
    lat
}

fn emit(summary: &Summary) {
    eprintln!("{}", summary.human_line());
    println!("{}", summary.json_line());
}

/// One sweep cell: `clients` concurrent keep-alive clients, shared
/// wall clock, emitted as a latency summary plus a throughput row.
fn sweep_cell(server: &RunningServer, tag: &str, clients: usize, n: usize, sources: &[String]) {
    let per_client = (n / clients).max(4);
    let ready = std::sync::Barrier::new(clients + 1);
    let (mut all, wall_ns): (Vec<u128>, u128) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (server, sources, ready) = (&*server, &*sources, &ready);
                scope
                    .spawn(move || client_loop(server, 1_000 + c, per_client, sources, Some(ready)))
            })
            .collect();
        ready.wait();
        let wall = Instant::now();
        let all: Vec<u128> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        (all, wall.elapsed().as_nanos())
    });
    all.sort_unstable();
    let bench = format!("{tag}/c{clients}");
    emit(&Summary::from_sorted("serve", &bench, &all, None));
    let requests = all.len();
    let req_per_s = requests as f64 / (wall_ns as f64 / 1e9).max(1e-12);
    eprintln!(
        "serve/{bench}: {req_per_s:.0} req/s sustained ({requests} requests, {clients} clients)"
    );
    println!(
        "{{\"group\":\"serve\",\"bench\":\"{bench}/throughput\",\"requests\":{requests},\
         \"clients\":{clients},\"wall_ns\":{wall_ns},\"req_per_s\":{req_per_s:.1}}}"
    );
}

/// Holds ~`LORIS` slow-loris connections open against the server for
/// the duration of the loaded sweep, reconnecting whenever the header
/// deadline cuts one. Scripts come from the fault layer's seeded
/// [`TrafficProfile`], so the hostile byte streams are reproducible.
fn with_loris_fleet(server: &RunningServer, body: impl FnOnce()) {
    let stop = AtomicBool::new(false);
    let addr = server.addr();
    let request = format!(
        "POST /attribute?year={YEAR} HTTP/1.1\r\nHost: synthattr\r\nContent-Length: 4\r\n\r\nvoid"
    )
    .into_bytes();
    std::thread::scope(|scope| {
        for i in 0..LORIS {
            let (stop, request) = (&stop, &request);
            let profile = TrafficProfile {
                loris_pause_ms: 150,
                ..TrafficProfile::new(0x10A15)
            };
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let Ok(mut stream) = TcpStream::connect(addr) else {
                        return;
                    };
                    let script = profile.script(HostileKind::SlowLoris, i, request);
                    let _ = script.play(&mut stream, |ms| {
                        let mut left = ms;
                        while left > 0 && !stop.load(Ordering::Relaxed) {
                            let step = left.min(50);
                            std::thread::sleep(std::time::Duration::from_millis(step));
                            left -= step;
                        }
                    });
                }
            });
        }
        body();
        stop.store(true, Ordering::Relaxed);
    });
}

fn main() {
    let n = samples_per_scenario();
    let sources = sources();
    let server = spawn_server();

    // Warm the cache exactly once per source.
    for src in &sources {
        client_loop(&server, usize::MAX, 1, std::slice::from_ref(src), None);
    }

    // Serial: one client.
    let mut serial = client_loop(&server, 0, n, &sources, None);
    serial.sort_unstable();
    emit(&Summary::from_sorted(
        "serve",
        "attribute/serial",
        &serial,
        None,
    ));

    // Concurrent: 8 clients, shared wall clock for sustained req/s.
    // The barrier has one extra party — the main thread — so the wall
    // clock starts when every client is connected and warmed, not
    // before; warmup requests don't count toward throughput.
    let done = AtomicU64::new(0);
    let ready = std::sync::Barrier::new(CLIENTS + 1);
    let per_client = n.div_ceil(CLIENTS);
    let (mut all, wall_ns): (Vec<u128>, u128) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let server = &server;
                let sources = &sources;
                let done = &done;
                let ready = &ready;
                scope.spawn(move || {
                    let lat = client_loop(server, c + 1, per_client, sources, Some(ready));
                    done.fetch_add(lat.len() as u64, Ordering::Relaxed);
                    lat
                })
            })
            .collect();
        ready.wait();
        let wall = Instant::now();
        let all = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        (all, wall.elapsed().as_nanos())
    });
    all.sort_unstable();
    let concurrent = Summary::from_sorted("serve", "attribute/concurrent8", &all, None);
    emit(&concurrent);

    let requests = done.load(Ordering::Relaxed);
    let req_per_s = requests as f64 / (wall_ns as f64 / 1e9).max(1e-12);
    eprintln!("serve/attribute/throughput: {req_per_s:.0} req/s sustained ({requests} requests, {CLIENTS} clients)");
    println!(
        "{{\"group\":\"serve\",\"bench\":\"attribute/throughput\",\"requests\":{requests},\
         \"clients\":{CLIENTS},\"wall_ns\":{wall_ns},\"req_per_s\":{req_per_s:.1}}}"
    );

    // Control: routing + serialization floor, no model in the path.
    let mut client = Client::connect(server.addr()).expect("connect");
    let mut health = Vec::with_capacity(n);
    for _ in 0..n {
        let started = Instant::now();
        let resp = client
            .request("GET", "/healthz", &[], b"")
            .expect("healthz");
        health.push(started.elapsed().as_nanos());
        assert_eq!(resp.status, 200);
    }
    health.sort_unstable();
    emit(&Summary::from_sorted(
        "serve",
        "healthz/serial",
        &health,
        None,
    ));

    // The saturating sweep, clean and then under hostile background
    // load — the with/without delta is the survivability overhead.
    for clients in SWEEP {
        sweep_cell(&server, "sweep", clients, n, &sources);
    }
    with_loris_fleet(&server, || {
        for clients in SWEEP {
            sweep_cell(
                &server,
                &format!("sweep+loris{LORIS}"),
                clients,
                n,
                &sources,
            );
        }
    });

    server.shutdown();
}
