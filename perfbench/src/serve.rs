//! The serving workloads: open-loop `POST /attribute` traffic against a
//! live `synthattr-serve` server holding paper-scale models for
//! 2017-2019.
//!
//! * `serve-cold` cycles through a corpus generated with a seed the
//!   models never saw, far larger than the 256-entry artifact cache, so
//!   every request is featurized.
//! * `serve-warm` draws from a 64-source hot set, so after first touch
//!   every request hits the cache and skips featurization.
//!
//! Every 200 body must equal `attribution_body(year,
//! predict_proba(extract(src)))` computed offline from `year_oracle`.

use std::io::Cursor;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use synthattr_core::config::{ExperimentConfig, Scale};
use synthattr_core::pipeline::year_oracle;
use synthattr_core::AuthorshipModel;
use synthattr_gen::challenges::ChallengeId;
use synthattr_gen::corpus::{generate_year, YearSpec};
use synthattr_lang::parser::parse;
use synthattr_serve::http::{read_request, Limits};
use synthattr_serve::{attribution_body, RunningServer, ServeConfig, Server, ServerState};
use synthattr_util::{pool, Pcg64};

use crate::loadgen::{self, PhaseStats, Plan};
use crate::offline::{replay_oracle_stage, Run};
use crate::stats::{median, ratio, summarize, windowed_p50};
use crate::trace::Tracer;
use crate::{cpu, Size};

pub const YEARS: [u32; 3] = [2017, 2018, 2019];
/// Size of the `serve-warm` hot set (well under the 256-entry cache).
pub const HOT_SET: usize = 64;
/// Generator lateness, ms at its tail, past which a phase's latency is
/// unmeasurable and the run is invalid.
pub const LAG_LIMIT_MS: f64 = 25.0;
/// Servers a measured run sets up, one after another. Each takes one
/// saturation burst; set-up time, throughput and CPU per request are
/// medians over them.
const SERVERS: usize = 3;
/// Contiguous windows the low-rate latencies are split into; the
/// median latency is the median over windows.
const WINDOWS: usize = 5;
/// How long a reader waits for a response byte before failing it.
const READ_TIMEOUT: Duration = Duration::from_secs(5);
/// The fixed low rate, req/s: the server is mostly idle.
pub const LOW_RATE: f64 = 200.0;
/// The fixed high rate, req/s: about two thirds of the seed commit's
/// knee, where the tail is still measurable run to run.
pub const HIGH_RATE: f64 = 500.0;

/// The two traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Cold,
    Warm,
}

/// The server configuration: `ServeConfig::smoke()` defaults with
/// paper-scale models, preloading, and no rate limiting (one tenant).
pub fn serve_config(size: Size) -> ServeConfig {
    let mut config = ServeConfig::smoke();
    config.experiment = ExperimentConfig::paper();
    if size == Size::Tiny {
        config.experiment.scale = Scale {
            authors: 6,
            challenges: 8,
            transforms: 1,
            n_trees: 4,
        };
    }
    config.preload = true;
    config.rate = None;
    config
}

/// The request corpus: distinct `(year, source)` pairs with the bytes
/// of their requests and the verdicts they must get.
pub struct Inputs {
    pub sources: Vec<(u32, String)>,
    pub requests: Vec<Vec<u8>>,
    pub expected: Vec<Vec<u8>>,
    /// Indices into `sources`, in the order requests are sent.
    pub stream: Vec<usize>,
    /// The benchmark's own oracles, one per [`YEARS`] entry.
    pub oracles: Vec<AuthorshipModel>,
}

fn http_request(year: u32, source: &str) -> Vec<u8> {
    let mut bytes = format!(
        "POST /attribute?year={year} HTTP/1.1\r\nHost: synthattr\r\nContent-Length: {}\r\n\r\n",
        source.len()
    )
    .into_bytes();
    bytes.extend_from_slice(source.as_bytes());
    bytes
}

/// Builds the request corpus from a seed the models never saw, and the
/// expected verdicts from the benchmark's own `year_oracle` models.
pub fn inputs(seed: u64, mix: Mix, config: &ExperimentConfig) -> Result<Inputs, String> {
    let corpus_seed = Pcg64::seed_from(seed, &["serve-requests"]).next_u64();
    if corpus_seed == config.seed {
        return Err("request corpus seed collides with the model seed".to_string());
    }
    let mut sources: Vec<(u32, String)> = Vec::new();
    for (y, &year) in YEARS.iter().enumerate() {
        let offset = 3 * y;
        let spec = YearSpec {
            year,
            authors: config.scale.authors,
            challenges: ChallengeId::all()[offset..offset + config.scale.challenges].to_vec(),
        };
        for s in generate_year(&spec, corpus_seed).samples {
            if !sources
                .iter()
                .any(|(yy, src)| *yy == year && *src == s.source)
            {
                sources.push((year, s.source));
            }
        }
    }
    let oracles = YEARS
        .iter()
        .map(|&y| year_oracle(y, config).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let expected = pool::parallel_map(sources.clone(), |(year, src)| {
        let model = &oracles[YEARS.iter().position(|&y| y == year).expect("served year")];
        let features = model.extractor().extract(&src).map_err(|e| e.to_string())?;
        Ok::<_, String>(
            attribution_body(year, &model.forest().predict_proba(&features)).into_bytes(),
        )
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;
    let requests = sources.iter().map(|(y, s)| http_request(*y, s)).collect();
    let mut rng = Pcg64::seed_from(seed, &["serve-stream"]);
    let mut order: Vec<usize> = (0..sources.len()).collect();
    rng.shuffle(&mut order);
    let stream = match mix {
        Mix::Cold => order,
        Mix::Warm => {
            let hot = &order[..HOT_SET.min(order.len())];
            (0..1 << 16)
                .map(|_| hot[rng.next_below(hot.len())])
                .collect()
        }
    };
    Ok(Inputs {
        sources,
        requests,
        expected,
        stream,
        oracles,
    })
}

impl Inputs {
    /// Source index of stream position `k` (the stream repeats).
    pub fn at(&self, k: usize) -> usize {
        self.stream[k % self.stream.len()]
    }
}

/// Binds, trains and warms one server, returning it with its set-up
/// time in seconds.
pub fn set_up(config: &ServeConfig) -> Result<(RunningServer, f64), String> {
    let t = Instant::now();
    let server = Server::bind("127.0.0.1:0", config.clone())
        .and_then(Server::spawn)
        .map_err(|e| format!("server failed to start: {e}"))?;
    for year in YEARS {
        let body = format!("int main() {{ int warm = {year}; return warm; }}");
        let resp = synthattr_serve::client::request(
            server.addr(),
            "POST",
            &format!("/attribute?year={year}"),
            &[],
            body.as_bytes(),
        )
        .map_err(|e| format!("warm-up request failed: {e}"))?;
        if resp.status != 200 {
            return Err(format!("warm-up request got {}", resp.status));
        }
    }
    Ok((server, t.elapsed().as_secs_f64()))
}

/// Sends `count` requests from stream position `first` at `rate`.
fn phase(
    addr: SocketAddr,
    inputs: &Inputs,
    config: &ServeConfig,
    first: usize,
    rate: f64,
    count: usize,
) -> PhaseStats {
    let request = |k: usize| {
        let i = inputs.at(first + k);
        loadgen::Request {
            bytes: &inputs.requests[i],
            expected: &inputs.expected[i],
        }
    };
    loadgen::run(&Plan {
        addr,
        rate,
        count,
        conns: pool::resolve_workers(None).min(2),
        max_per_conn: config.conn.max_requests,
        timeout: READ_TIMEOUT,
        request: &request,
    })
}

/// A `/healthz` body read through the server's own handler.
fn healthz(state: &ServerState) -> String {
    let req = read_request(
        &mut Cursor::new(&b"GET /healthz HTTP/1.1\r\n\r\n"[..]),
        &Limits::default(),
    )
    .ok()
    .flatten()
    .expect("static healthz request parses");
    String::from_utf8_lossy(&state.handle_request(&req).body).into_owned()
}

/// The object following `"key":` in a JSON body, up to its matching
/// close brace (`None` when absent).
fn object<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let start = body.find(&format!("\"{key}\":{{"))? + key.len() + 3;
    let mut depth = 1;
    for (i, c) in body[start + 1..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&body[start..start + 1 + i + 1]);
                }
            }
            _ => {}
        }
    }
    None
}

/// The number following `"key":` in a JSON fragment.
fn number(body: &str, key: &str) -> Option<f64> {
    let start = body.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &body[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Counters read from `/healthz`. The batch fields are optional, so the
/// batcher can go without breaking the benchmark.
#[derive(Debug, Default, Clone, Copy)]
pub struct Health {
    pub hits: f64,
    pub misses: f64,
    pub evictions: f64,
    pub batches: Option<f64>,
    pub batched_rows: Option<f64>,
    pub closes: f64,
}

pub fn health(body: &str) -> Health {
    let cache = object(body, "cache").unwrap_or("");
    let batch = object(body, "batch");
    let closes = object(body, "connection_closes").unwrap_or("{}");
    Health {
        hits: number(cache, "hits").unwrap_or(0.0),
        misses: number(cache, "misses").unwrap_or(0.0),
        evictions: number(cache, "evictions").unwrap_or(0.0),
        batches: batch.and_then(|b| number(b, "batches")),
        batched_rows: batch.and_then(|b| number(b, "rows")),
        closes: closes
            .trim_matches(['{', '}'])
            .split(',')
            .filter_map(|kv| kv.rsplit(':').next()?.trim().parse::<f64>().ok())
            .sum(),
    }
}

fn fail_phase(run: &mut Run, what: &str, p: &PhaseStats) {
    for e in &p.errors {
        run.errors.push(format!("{what}: {e}"));
    }
}

/// What measured and traced runs share: the server configuration and
/// the request corpus with its expected verdicts.
struct Bench {
    inputs: Inputs,
    config: ServeConfig,
}

fn prepare(seed: u64, mix: Mix, size: Size, run: &mut Run) -> Option<Bench> {
    let config = serve_config(size);
    match inputs(seed, mix, &config.experiment) {
        Ok(inputs) => Some(Bench { inputs, config }),
        Err(e) => {
            run.attempted = 1;
            run.fail(format!("inputs: {e}"));
            None
        }
    }
}

/// [`set_up`], counting a failure against the run.
fn start(b: &Bench, run: &mut Run) -> Option<(RunningServer, f64)> {
    set_up(&b.config)
        .map_err(|e| {
            run.attempted = run.attempted.max(1);
            run.fail(e);
        })
        .ok()
}

/// Phase lengths for a run of `seconds`, as seconds at the phase's
/// own rate: the low-rate phase takes half the run, and each of the
/// [`SERVERS`] saturation bursts holds `0.15 × seconds` of high-rate
/// requests (a tenth of the run each at this commit's throughput). The
/// traced run's high-rate phase takes 30%.
fn durations(seconds: f64) -> (f64, f64, f64) {
    (0.5 * seconds, 0.15 * seconds, 0.3 * seconds)
}

fn requests_for(rate: f64, secs: f64) -> usize {
    ((rate * secs).round() as usize).max(16)
}

/// A phase at one fixed rate, with the server threads' CPU and the
/// `/healthz` counters around it.
struct Fixed {
    stats: PhaseStats,
    server_cpu_s: f64,
    before: Health,
    after: Health,
}

impl Fixed {
    fn latency(&self) -> Option<crate::stats::Summary> {
        let lat = self.stats.latencies();
        (!lat.is_empty()).then(|| summarize(&lat))
    }
}

/// Sends `count` requests at `rate` from stream position `first` (an
/// infinite rate sends them all at once, and lateness does not apply).
/// Every failure counts against the run, and so does a generator that
/// ran so late that latency is unmeasurable.
fn fixed_phase(
    b: &Bench,
    server: &RunningServer,
    rate: f64,
    count: usize,
    first: usize,
    run: &mut Run,
) -> Fixed {
    let state = server.state();
    let main_tid: Vec<u64> = cpu::current_tid().into_iter().collect();
    let before = health(&healthz(&state));
    let threads0 = cpu::threads_ns();
    let stats = phase(server.addr(), &b.inputs, &b.config, first, rate, count);
    let server_cpu_s = cpu::threads_delta_s(&threads0, &cpu::threads_ns(), &main_tid);
    let after = health(&healthz(&state));
    run.attempted += stats.sent;
    run.failed += stats.failed;
    fail_phase(run, &format!("{rate} req/s phase"), &stats);
    if rate.is_finite() && !stats.lag_ms.is_empty() {
        let lag = summarize(&stats.lag_ms).tail;
        if lag > LAG_LIMIT_MS {
            run.fail(format!(
                "load generator ran {lag:.2} ms late at its tail at {rate} req/s: \
                 latency is unmeasurable"
            ));
        }
    }
    Fixed {
        stats,
        server_cpu_s,
        before,
        after,
    }
}

pub fn measured(seed: u64, mix: Mix, seconds: f64, size: Size) -> Run {
    let mut run = Run::default();
    let Some(b) = prepare(seed, mix, size, &mut run) else {
        return run;
    };
    let (low_s, burst_s, _) = durations(seconds);
    let burst = requests_for(HIGH_RATE, burst_s);
    let (mut setup_s, mut rates, mut cpu_per_req) = (Vec::new(), Vec::new(), Vec::new());
    let (mut low, mut next, mut peak) = (None, 0, 0.0f64);
    // A server's speed stays the same for its life but differs from one
    // server to the next by up to a fifth (probably how its training
    // laid out memory and where its threads landed), so each server
    // takes one burst and the figures are medians over servers.
    for i in 0..SERVERS {
        let Some((server, secs)) = start(&b, &mut run) else {
            return run;
        };
        setup_s.push(secs);
        crate::alloc::reset_peak();
        if i + 1 == SERVERS {
            let l = fixed_phase(
                &b,
                &server,
                LOW_RATE,
                requests_for(LOW_RATE, low_s),
                next,
                &mut run,
            );
            next += l.stats.sent as usize;
            low = Some(l);
        }
        // Saturation: the burst is all due at once and drained as fast
        // as the server can; throughput is answers per second of the
        // drain.
        let s = fixed_phase(&b, &server, f64::INFINITY, burst, next, &mut run);
        next += burst;
        rates.push(s.stats.ok as f64 / s.stats.wall_s);
        cpu_per_req.push(s.server_cpu_s * 1e3 / s.stats.ok.max(1) as f64);
        peak = peak.max(crate::alloc::peak_mib());
        let _ = server.shutdown();
    }
    let low = low.expect("the last server ran the low rate");
    let Some(low_lat) = low.latency() else {
        run.fail("no request succeeded at the low rate".to_string());
        return run;
    };
    eprintln!(
        "[perfbench] low rate {:.0} req/s: n {}, p50 {:.2} ms, p{} {:.2} ms, generator lag p{} {:.3} ms; \
         saturation: {rates:.1?} req/s, server {cpu_per_req:.3?} ms/req; set-ups {:.3?} s",
        LOW_RATE,
        low_lat.n,
        low_lat.p50,
        low_lat.tail_pct,
        low_lat.tail,
        summarize(&low.stats.lag_ms).tail_pct,
        summarize(&low.stats.lag_ms).tail,
        setup_s
    );
    let m = &mut run.metrics;
    m.set("setup_s", median(&setup_s), "s");
    m.set("samples_per_s", median(&rates), "1/s");
    m.set(
        "latency_p50_ms",
        windowed_p50(&low.stats.latencies(), WINDOWS),
        "ms",
    );
    m.set("cpu_ms_per_sample", median(&cpu_per_req), "ms");
    m.set("peak_heap_mib", peak, "MiB");
    run
}

/// Pushes stream positions `first..first + n` through `read_request`,
/// `handle_request` and `to_bytes`, each inside a span of `t`. Returns,
/// per request, whether it missed the artifact cache, and the pass's
/// wall time in seconds.
fn replay(
    state: &ServerState,
    inputs: &Inputs,
    first: usize,
    n: usize,
    t: &mut Tracer,
    run: &mut Run,
) -> (Vec<bool>, f64) {
    let limits = Limits::default();
    let mut missed = Vec::with_capacity(n);
    let mut wall = 0.0;
    for k in first..first + n {
        let i = inputs.at(k);
        let misses0 = health(&healthz(state)).misses;
        let started = Instant::now();
        t.set_request(k as u64);
        let resp = t.span("serve.request", |t| {
            let req = t.span("serve.http", |_| {
                read_request(&mut Cursor::new(&inputs.requests[i][..]), &limits)
                    .ok()
                    .flatten()
            })?;
            let resp = t.span("serve.handle", |_| state.handle_request(&req));
            std::hint::black_box(t.span("serve.serialize", |_| resp.to_bytes()));
            Some(resp)
        });
        wall += started.elapsed().as_secs_f64();
        run.attempted += 1;
        match resp {
            Some(r) if r.status == 200 && r.body == inputs.expected[i] => {}
            Some(r) => run.fail(format!(
                "replayed request {k}: status {} or wrong verdict",
                r.status
            )),
            None => run.fail(format!("replayed request {k} did not parse")),
        }
        missed.push(health(&healthz(state)).misses > misses0);
    }
    (missed, wall)
}

/// `f()` and how long it took, in µs.
fn timed_us<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = std::hint::black_box(f());
    (out, start.elapsed().as_secs_f64() * 1e6)
}

fn mean(xs: &[f64]) -> f64 {
    ratio(xs.iter().sum(), xs.len() as f64)
}

pub fn traced(seed: u64, mix: Mix, seconds: f64, size: Size) -> Run {
    let mut run = Run::default();
    let Some(b) = prepare(seed, mix, size, &mut run) else {
        return run;
    };
    let Some((server, _)) = start(&b, &mut run) else {
        return run;
    };
    // Set-up replay: the registry trains each year through the oracle
    // stage of the offline pipeline.
    let mut setup = Tracer::default();
    let mut serial = b.config.experiment.clone();
    serial.workers = Some(1);
    for (y, &year) in YEARS.iter().enumerate() {
        match replay_oracle_stage(year, &serial, &mut setup) {
            Ok(stage) => {
                let probe = &b.inputs.sources[..b.inputs.sources.len().min(8)];
                for (_, src) in probe {
                    let f = b.inputs.oracles[y]
                        .extractor()
                        .extract(src)
                        .unwrap_or_default();
                    if stage.oracle.forest().predict_proba(&f)
                        != b.inputs.oracles[y].forest().predict_proba(&f)
                    {
                        run.fail(format!("{year}: replayed oracle differs from year_oracle"));
                    }
                }
            }
            Err(e) => run.fail(format!("{year}: set-up replay failed: {e}")),
        }
    }

    let (_, _, high_s) = durations(seconds);
    let high = fixed_phase(
        &b,
        &server,
        HIGH_RATE,
        requests_for(HIGH_RATE, high_s),
        0,
        &mut run,
    );

    // Transport-free replay: an untraced pass, then a traced pass on
    // the next stretch of the stream (fresh sources for serve-cold).
    let n = if size == Size::Tiny { 12 } else { 1000 };
    let state = server.state();
    let first = high.stats.sent as usize;
    let (_, untraced_wall) = replay(
        &state,
        &b.inputs,
        first,
        n,
        &mut Tracer::disabled(),
        &mut run,
    );
    let mut t = Tracer::default();
    let (missed, traced_wall) = replay(&state, &b.inputs, first + n, n, &mut t, &mut run);
    let handle_us = t.durations_us("serve.handle");
    let _ = server.shutdown();

    // The same inputs through each inner call, timed outside the spans.
    let (mut parse_us, mut extract_us, mut predict_us) = (0.0, 0.0, 0.0);
    let (mut parses, mut bytes) = (0.0, 0.0);
    let mut wait_us = Vec::new();
    for (j, k) in (first + n..first + 2 * n).enumerate() {
        let (year, src) = &b.inputs.sources[b.inputs.at(k)];
        let model = &b.inputs.oracles[YEARS.iter().position(|y| y == year).expect("served year")];
        let (unit, p) = timed_us(|| parse(src));
        let Ok(unit) = unit else {
            run.fail(format!("request source {k} does not parse"));
            continue;
        };
        let (features, e) = timed_us(|| model.extractor().extract_parsed(src, &unit));
        let (proba, pr) = timed_us(|| model.forest().predict_proba(&features));
        let (_, body) = timed_us(|| attribution_body(*year, &proba));
        let featurize = if missed[j] {
            parses += 1.0;
            bytes += src.len() as f64;
            parse_us += p;
            extract_us += e;
            p + e
        } else {
            0.0
        };
        predict_us += pr;
        wait_us.push((handle_us.get(j).copied().unwrap_or(0.0) - featurize - pr - body).max(0.0));
    }

    let m = &mut run.metrics;
    let busy = |name: &str| setup.self_s(name);
    m.set(
        "gen.generate_year.calls",
        setup.calls("gen.generate_year"),
        "count",
    );
    m.set("gen.generate_year.busy_s", busy("gen.generate_year"), "s");
    m.set("lang.parse.calls", parses, "count");
    m.set("lang.parse.busy_s", parse_us / 1e6, "s");
    m.set("lang.parse.mb_per_s", ratio(bytes, parse_us), "MB/s");
    m.set(
        "analysis.analyze.calls",
        setup.calls("analysis.analyze"),
        "count",
    );
    m.set("analysis.analyze.busy_s", busy("analysis.analyze"), "s");
    m.set("features.extract.calls", parses, "count");
    m.set("features.extract.busy_s", extract_us / 1e6, "s");
    m.set("ml.fit.calls", setup.calls("ml.fit"), "count");
    m.set("ml.fit.rows", setup.count("ml.fit.rows"), "count");
    m.set("ml.fit.busy_s", busy("ml.fit"), "s");
    m.set("ml.predict.rows", n as f64, "count");
    m.set("ml.predict.busy_s", predict_us / 1e6, "s");
    let (b, a) = (high.before, high.after);
    let (hits, misses) = (a.hits - b.hits, a.misses - b.misses);
    let hit_ratio = ratio(hits, hits + misses);
    m.set("core.artifact.hit_ratio", hit_ratio, "ratio");
    m.set(
        "serve.http.busy_us_per_req",
        mean(&t.durations_us("serve.http")),
        "us",
    );
    m.set("serve.handle.busy_us_per_req", mean(&handle_us), "us");
    m.set(
        "serve.serialize.busy_us_per_req",
        mean(&t.durations_us("serve.serialize")),
        "us",
    );
    let rows_per_batch = match (a.batches.zip(b.batches), a.batched_rows.zip(b.batched_rows)) {
        (Some((ab, bb)), Some((ar, br))) => ratio(ar - br, ab - bb),
        _ => 0.0,
    };
    m.set("serve.batch.rows_per_batch", rows_per_batch, "count");
    m.set("serve.batch.wait_us_per_req", mean(&wait_us), "us");
    m.set("serve.cache.hit_ratio", hit_ratio, "ratio");
    m.set("serve.cache.evictions", a.evictions - b.evictions, "count");
    m.set("serve.conn.closes", a.closes - b.closes, "count");
    m.set(
        "serve.conn.reconnects",
        high.stats.reconnects as f64,
        "count",
    );
    m.set("serve.server_cpu_s", high.server_cpu_s, "s");
    if let Some(s) = high.latency() {
        m.set("serve.high_rate.latency_p50_ms", s.p50, "ms");
        m.set("serve.high_rate.latency_tail_ms", s.tail, "ms");
    }
    let lag = if high.stats.lag_ms.is_empty() {
        0.0
    } else {
        summarize(&high.stats.lag_ms).tail
    };
    m.set("bench.loadgen.lag_p99_ms", lag, "ms");
    m.set("bench.loadgen_cpu_s", high.stats.cpu_s, "s");
    m.set("bench.unattributed_share", t.unattributed_share(), "ratio");
    m.set(
        "bench.tracing_overhead_share",
        traced_wall / untraced_wall - 1.0,
        "ratio",
    );
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthz_fields_parse_and_batch_is_optional() {
        let body = "{\"status\":\"ok\",\"cache\":{\"hits\":5,\"misses\":7,\"evictions\":2,\"entries\":3,\"capacity\":256,\"hit_rate\":0.41},\"batch\":{\"batches\":4,\"rows\":10,\"max_batch\":3},\"connection_closes\":{\"client-close\":1,\"max-requests\":2},\"requests\":{\"total\":9}}";
        let h = health(body);
        assert_eq!((h.hits, h.misses, h.evictions), (5.0, 7.0, 2.0));
        assert_eq!((h.batches, h.batched_rows), (Some(4.0), Some(10.0)));
        assert_eq!(h.closes, 3.0);
        let without = health("{\"cache\":{\"hits\":1,\"misses\":0,\"evictions\":0}}");
        assert_eq!((without.batches, without.batched_rows), (None, None));
        assert_eq!(without.hits, 1.0);
    }
}
