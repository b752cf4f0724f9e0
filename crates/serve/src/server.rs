//! The attribution server: listener, rotation loop, routing, handlers.
//!
//! Threading is an accept/worker split built on
//! [`synthattr_util::pool`], hardened for hostile connections: the
//! acceptor runs a **non-blocking** accept loop and parks each
//! accepted connection on a blocking [`WorkQueue`]; `workers` threads
//! (resolved by the same `SYNTHATTR_WORKERS` machinery as the offline
//! pipeline) **rotate** over the parked set. A worker pops a
//! connection, reads whatever it has to offer without blocking,
//! serves every complete pipelined request, and *parks the
//! connection back* the moment it stops yielding bytes — so a
//! slow-loris army holds open sockets, never worker threads. Budgets
//! ([`crate::conn::ConnPolicy`]: lifetime idle budget, header/body
//! progress deadlines, max requests per connection) are enforced by
//! the clock-explicit [`crate::conn::ConnGauge`] core; shutdown is a
//! graceful drain ([`crate::drain`]): stop accepting, answer every
//! in-flight request with `Connection: close` on the final response,
//! force-close stragglers only at a hard deadline, and report
//! [`DrainStats`] from [`RunningServer::shutdown`].
//!
//! All request handling stays pure of the transport
//! ([`ServerState::handle_request`] maps a parsed request to a
//! response), which is what lets the unit suite drive every route
//! without a socket.
//!
//! Endpoints:
//!
//! * `POST /attribute?year=Y` — body: raw C++ source (`text/plain`);
//!   response: the oracle's ranked author verdict with probabilities.
//! * `POST /transform?year=Y&mode=nct|ct&steps=N&seed=S` — body: seed
//!   source; response: the simulated ChatGPT transformation chain.
//! * `GET /healthz` — circuit-breaker state, cache hit/eviction rates,
//!   registry load state, traffic, connection gauges, per-cause close
//!   counters, and the drain state.
//!
//! Determinism: attribution is a pure function of (year, body) — the
//! registry trains through the offline pipeline's code path, feature
//! extraction is cached but pure, and each request's prediction is a
//! pure per-row forest walk on the worker that serves it — so
//! responses are byte-identical across worker counts, client counts,
//! rotation schedules, and restarts.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use synthattr_core::config::ExperimentConfig;
use synthattr_core::ArtifactCache;
use synthattr_faults::{BreakerConfig, CircuitBreaker};
use synthattr_gen::corpus::Origin;
use synthattr_gpt::chain::{try_run_ct, try_run_nct};
use synthattr_gpt::transform::Transformer;
use synthattr_gpt::GptError;
use synthattr_util::{pool, pool::WorkQueue, Pcg64};

use crate::conn::{CloseCause, ConnCounters, ConnGauge, ConnPolicy, Verdict};
use crate::drain::{DrainState, DrainStats};
use crate::http::{parse_request, HttpError, Limits, Parse, Progress, Request, Response};
use crate::json;
use crate::limit::{RateConfig, RateLimiter};
use crate::registry::ModelRegistry;

/// Upper bound on `steps` per `/transform` call, so one request cannot
/// monopolize a worker.
const MAX_TRANSFORM_STEPS: usize = 64;

/// Server tuning.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Experiment configuration models are trained from (seed, scale,
    /// forest, features) — the same struct the offline pipeline takes.
    pub experiment: ExperimentConfig,
    /// Years the registry serves.
    pub years: Vec<u32>,
    /// Worker thread count override (`None` = `SYNTHATTR_WORKERS` /
    /// available parallelism).
    pub workers: Option<usize>,
    /// Capacity of the shared artifact LRU.
    pub cache_capacity: usize,
    /// Per-client rate limits (`None` disables limiting).
    pub rate: Option<RateConfig>,
    /// Circuit-breaker tuning for the transform engine.
    pub breaker: BreakerConfig,
    /// Per-connection budgets and rotation tuning — the slow-loris,
    /// staller, and zombie bounds.
    pub conn: ConnPolicy,
    /// Hard deadline for the graceful drain, ms: connections still
    /// open this long after `shutdown()` are force-closed.
    pub drain_deadline_ms: u64,
    /// HTTP input limits.
    pub limits: Limits,
    /// Train every registry year at bind time instead of lazily.
    pub preload: bool,
}

impl ServeConfig {
    /// Smoke-scale serving config: small corpus and forest, all three
    /// years, defaults everywhere else.
    pub fn smoke() -> Self {
        ServeConfig {
            experiment: ExperimentConfig::smoke(),
            years: vec![2017, 2018, 2019],
            workers: None,
            cache_capacity: 256,
            rate: Some(RateConfig::default()),
            breaker: BreakerConfig::default(),
            conn: ConnPolicy::default(),
            drain_deadline_ms: 5_000,
            limits: Limits::default(),
            preload: false,
        }
    }

    /// The read timeout the server advertises to its own blocking
    /// client ([`crate::client::Client::connect`] uses it by
    /// default when connecting via
    /// [`crate::client::Client::connect_with_timeout`]).
    pub fn client_timeout(&self) -> Duration {
        self.conn.client_timeout()
    }
}

/// Per-route traffic counters (relaxed atomics; observability only).
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Requests routed, any endpoint.
    pub requests: AtomicU64,
    /// `/attribute` requests served 200.
    pub attribute_ok: AtomicU64,
    /// `/transform` requests served 200.
    pub transform_ok: AtomicU64,
    /// `/healthz` reads.
    pub healthz: AtomicU64,
    /// Requests refused with 429.
    pub rate_limited: AtomicU64,
    /// 4xx responses (including parse rejections).
    pub client_errors: AtomicU64,
    /// 5xx responses.
    pub server_errors: AtomicU64,
    /// Handler panics caught and converted to 500s.
    pub panics: AtomicU64,
}

/// Everything the workers share. Handlers live here, transport-free.
#[derive(Debug)]
pub struct ServerState {
    config: ServeConfig,
    registry: ModelRegistry,
    cache: Mutex<ArtifactCache>,
    limiter: Option<Mutex<RateLimiter>>,
    breaker: Mutex<CircuitBreaker>,
    stats: ServeStats,
    conns: ConnCounters,
    drain: DrainState,
    started: Instant,
}

impl ServerState {
    /// Builds the shared state (trains nothing unless `preload`).
    ///
    /// # Errors
    ///
    /// [`synthattr_core::PipelineError::UnsupportedYear`] via the
    /// registry if `config.years` leaves the paper's 2017–2019 range.
    pub fn new(config: ServeConfig) -> Result<Self, synthattr_core::PipelineError> {
        let registry = ModelRegistry::new(config.experiment.clone(), &config.years)?;
        let state = ServerState {
            cache: Mutex::new(ArtifactCache::bounded(config.cache_capacity)),
            limiter: config.rate.clone().map(|r| Mutex::new(RateLimiter::new(r))),
            breaker: Mutex::new(CircuitBreaker::new(config.breaker.clone())),
            stats: ServeStats::default(),
            conns: ConnCounters::default(),
            drain: DrainState::new(config.drain_deadline_ms),
            started: Instant::now(),
            registry,
            config,
        };
        if state.config.preload {
            for year in state.registry.years() {
                state.registry.get(year);
            }
        }
        Ok(state)
    }

    /// The server configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Traffic counters.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// The transform-engine circuit breaker (exposed so operators and
    /// the regression suite can inspect or trip it directly).
    pub fn breaker(&self) -> MutexGuard<'_, CircuitBreaker> {
        self.breaker.lock().expect("breaker poisoned")
    }

    /// Connection gauges and per-cause close counters.
    pub fn conns(&self) -> &ConnCounters {
        &self.conns
    }

    /// The graceful-drain state (flag, deadline, drain counters).
    pub fn drain(&self) -> &DrainState {
        &self.drain
    }

    /// Starts the graceful drain: `/healthz` flips to `draining`, the
    /// acceptor stops, and workers finish in-flight requests.
    /// Idempotent; normally reached through
    /// [`RunningServer::shutdown`].
    pub fn begin_drain(&self) {
        self.drain.begin(self.now_ms());
    }

    /// Milliseconds since the server started — the limiter's clock.
    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Routes one parsed request. Pure of the transport: no socket in
    /// sight, which is how the unit suite drives every path.
    pub fn handle_request(&self, req: &Request) -> Response {
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        let response = match (req.method.as_str(), req.path.as_str()) {
            ("POST", "/attribute") => self.rate_limited(req, |s, r| s.attribute(r)),
            ("POST", "/transform") => self.rate_limited(req, |s, r| s.transform(r)),
            ("GET", "/healthz") => self.healthz(),
            (_, "/attribute" | "/transform" | "/healthz") => Response::json(
                405,
                format!("{{\"error\":{}}}", json::string("method not allowed")),
            ),
            _ => Response::json(404, format!("{{\"error\":{}}}", json::string("not found"))),
        };
        match response.status {
            429 => {
                self.stats.rate_limited.fetch_add(1, Ordering::Relaxed);
            }
            s if (400..500).contains(&s) => {
                self.stats.client_errors.fetch_add(1, Ordering::Relaxed);
            }
            s if s >= 500 => {
                self.stats.server_errors.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
        response
    }

    /// Applies the per-client token bucket before running `handler`.
    fn rate_limited(
        &self,
        req: &Request,
        handler: fn(&ServerState, &Request) -> Response,
    ) -> Response {
        if let Some(limiter) = &self.limiter {
            let client = req.header("x-client-id").unwrap_or("anon");
            let now = self.now_ms();
            if !limiter.lock().expect("limiter poisoned").check(client, now) {
                return Response::json(
                    429,
                    format!("{{\"error\":{}}}", json::string("rate limit exceeded")),
                );
            }
        }
        handler(self, req)
    }

    /// Parses the `year` query parameter and resolves its model.
    fn year_model(&self, req: &Request) -> Result<Arc<crate::registry::YearModel>, Response> {
        let year_text = req.query_param("year").ok_or_else(|| {
            Response::json(
                400,
                format!("{{\"error\":{}}}", json::string("missing year parameter")),
            )
        })?;
        let year: u32 = year_text.parse().map_err(|_| {
            Response::json(
                400,
                format!("{{\"error\":{}}}", json::string("year must be an integer")),
            )
        })?;
        self.registry.get(year).ok_or_else(|| {
            Response::json(
                404,
                format!(
                    "{{\"error\":{},\"years\":{}}}",
                    json::string("year not served"),
                    json::array(self.registry.years().iter().map(|y| y.to_string()))
                ),
            )
        })
    }

    /// `POST /attribute?year=Y` — the body is raw C++ source.
    fn attribute(&self, req: &Request) -> Response {
        let model = match self.year_model(req) {
            Ok(m) => m,
            Err(resp) => return resp,
        };
        let source = match std::str::from_utf8(&req.body) {
            Ok(s) if !s.trim().is_empty() => s,
            Ok(_) => {
                return Response::json(400, format!("{{\"error\":{}}}", json::string("empty body")))
            }
            Err(_) => {
                return Response::json(
                    400,
                    format!(
                        "{{\"error\":{}}}",
                        json::string("body must be utf-8 source")
                    ),
                )
            }
        };

        // Shared LRU: identical sources across requests featurize once.
        // Only extractor-config-independent products plus features are
        // safe to share here; all registry years use one FeatureConfig,
        // and labels are computed from each year's forest below — never
        // from the artifact's per-model label slot.
        let artifact = self.cache.lock().expect("cache poisoned").intern(source);
        // Prediction runs inline: a lone row is a few tree walks, and
        // the forest only fans rows out to the pool in batches far
        // larger than concurrent requests ever form.
        let proba = match artifact.features(model.model.extractor()) {
            Ok(features) => model.model.forest().predict_proba(features),
            Err(e) => {
                return Response::json(
                    422,
                    format!(
                        "{{\"error\":{},\"detail\":{}}}",
                        json::string("source rejected by the frontend"),
                        json::string(&e.to_string())
                    ),
                )
            }
        };
        self.stats.attribute_ok.fetch_add(1, Ordering::Relaxed);
        Response::json(200, attribution_body(model.year, &proba))
    }

    /// `POST /transform?year=Y&mode=nct|ct&steps=N&seed=S`.
    fn transform(&self, req: &Request) -> Response {
        let model = match self.year_model(req) {
            Ok(m) => m,
            Err(resp) => return resp,
        };
        let mode = req.query_param("mode").unwrap_or("nct");
        let chaining = match mode {
            "nct" => false,
            "ct" => true,
            _ => {
                return Response::json(
                    400,
                    format!("{{\"error\":{}}}", json::string("mode must be nct or ct")),
                )
            }
        };
        let steps: usize = match req.query_param("steps").unwrap_or("3").parse() {
            Ok(n) if (1..=MAX_TRANSFORM_STEPS).contains(&n) => n,
            _ => {
                return Response::json(
                    400,
                    format!("{{\"error\":{}}}", json::string("steps must be in 1..=64")),
                )
            }
        };
        let seed: u64 = match req.query_param("seed").unwrap_or("0").parse() {
            Ok(s) => s,
            Err(_) => {
                return Response::json(
                    400,
                    format!("{{\"error\":{}}}", json::string("seed must be an integer")),
                )
            }
        };
        let source = match std::str::from_utf8(&req.body) {
            Ok(s) if !s.trim().is_empty() => s,
            _ => {
                return Response::json(
                    400,
                    format!(
                        "{{\"error\":{}}}",
                        json::string("body must be utf-8 source")
                    ),
                )
            }
        };

        // The breaker guards the transform engine. Open = shed load
        // with 503 (reads — /attribute, /healthz — are unaffected).
        if self.breaker().admit().is_err() {
            return Response::json(
                503,
                format!(
                    "{{\"error\":{},\"breaker\":{}}}",
                    json::string("transform engine shedding load"),
                    json::string(self.breaker().state_name())
                ),
            );
        }

        let transformer = Transformer::new(&model.pool);
        let mut rng = Pcg64::seed_from(seed, &["serve-transform", &model.year.to_string(), mode]);
        let run = if chaining {
            try_run_ct(&transformer, source, steps, Origin::Human, &mut rng)
        } else {
            try_run_nct(&transformer, source, steps, Origin::Human, &mut rng)
        };
        match run {
            Ok(samples) => {
                self.breaker().record_success();
                self.stats.transform_ok.fetch_add(1, Ordering::Relaxed);
                let steps_json = json::array(samples.iter().map(|s| {
                    format!(
                        "{{\"step\":{},\"pool\":{},\"source\":{}}}",
                        s.step,
                        s.pool_index,
                        json::string(&s.source)
                    )
                }));
                Response::json(
                    200,
                    format!(
                        "{{\"year\":{},\"mode\":{},\"seed\":{},\"steps\":{}}}",
                        model.year,
                        json::string(mode),
                        seed,
                        steps_json
                    ),
                )
            }
            // A parse rejection is the client's fault, not engine
            // health: it must not feed the breaker.
            Err(GptError::Parse(e)) => Response::json(
                422,
                format!(
                    "{{\"error\":{},\"detail\":{}}}",
                    json::string("seed rejected by the frontend"),
                    json::string(&e.to_string())
                ),
            ),
            Err(e) => {
                self.breaker().record_failure();
                Response::json(
                    500,
                    format!(
                        "{{\"error\":{},\"detail\":{}}}",
                        json::string("transform engine failure"),
                        json::string(&e.to_string())
                    ),
                )
            }
        }
    }

    /// `GET /healthz`. Always 200 — a degraded engine is reported, not
    /// hidden behind an error; reads keep flowing while the breaker
    /// sheds transform load.
    fn healthz(&self) -> Response {
        self.stats.healthz.fetch_add(1, Ordering::Relaxed);
        let breaker = self.breaker();
        let status = if self.drain.is_draining() {
            "draining"
        } else if breaker.is_open() {
            "degraded"
        } else {
            "ok"
        };
        let breaker_json = format!(
            "{{\"state\":{},\"trips\":{}}}",
            json::string(breaker.state_name()),
            breaker.trips()
        );
        drop(breaker);

        let cache = self.cache.lock().expect("cache poisoned");
        let hits = cache.hits();
        let misses = cache.misses();
        let hit_rate = if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        };
        let cache_json = format!(
            "{{\"hits\":{},\"misses\":{},\"evictions\":{},\"entries\":{},\"capacity\":{},\"hit_rate\":{}}}",
            hits,
            misses,
            cache.evictions(),
            cache.len(),
            cache.capacity().unwrap_or(0),
            json::f64(hit_rate)
        );
        drop(cache);

        let (rate_clients, rate_rejected) = match &self.limiter {
            None => (0, 0),
            Some(l) => {
                let l = l.lock().expect("limiter poisoned");
                (l.clients(), l.rejected())
            }
        };
        let closes = CloseCause::ALL
            .iter()
            .map(|&cause| format!("{}:{}", json::string(cause.tag()), self.conns.closed(cause)))
            .collect::<Vec<_>>()
            .join(",");
        let connections_json = format!(
            "\"connections_open\":{},\"connections_parked\":{},\"connections_opened\":{},\
             \"connection_closes\":{{{}}}",
            self.conns.open_now(),
            self.conns.parked_now(),
            self.conns.opened.load(Ordering::Relaxed),
            closes
        );
        let s = &self.stats;
        let body = format!(
            "{{\"status\":{},\"drain_state\":{},\"uptime_ms\":{},\"years\":{},\"loaded\":{},\
             \"breaker\":{},\"cache\":{},\
             \"rate\":{{\"clients\":{},\"rejected\":{}}},\
             {},\
             \"requests\":{{\"total\":{},\"attribute_ok\":{},\"transform_ok\":{},\"healthz\":{},\
             \"rate_limited\":{},\"client_errors\":{},\"server_errors\":{},\"panics\":{}}}}}",
            json::string(status),
            json::string(self.drain.state_name()),
            self.now_ms(),
            json::array(self.registry.years().iter().map(|y| y.to_string())),
            json::array(self.registry.loaded().iter().map(|y| y.to_string())),
            breaker_json,
            cache_json,
            rate_clients,
            rate_rejected,
            connections_json,
            s.requests.load(Ordering::Relaxed),
            s.attribute_ok.load(Ordering::Relaxed),
            s.transform_ok.load(Ordering::Relaxed),
            s.healthz.load(Ordering::Relaxed),
            s.rate_limited.load(Ordering::Relaxed),
            s.client_errors.load(Ordering::Relaxed),
            s.server_errors.load(Ordering::Relaxed),
            s.panics.load(Ordering::Relaxed),
        );
        Response::json(200, body)
    }
}

/// Serializes one attribution verdict. Public so the e2e suite can
/// build its expected bytes from an *offline* oracle's probabilities
/// and compare them byte-for-byte against served responses.
pub fn attribution_body(year: u32, proba: &[f32]) -> String {
    // Descending probability; ties break to the lowest label, matching
    // the forest's own argmax, so `label` always equals `ranking[0]`.
    let mut order: Vec<usize> = (0..proba.len()).collect();
    // `total_cmp` orders the forest's non-negative finite probabilities
    // exactly as `partial_cmp` would, and still gives a total order if a
    // NaN ever slips in (it ranks first, deterministically).
    order.sort_by(|&a, &b| proba[b].total_cmp(&proba[a]).then(a.cmp(&b)));
    let label = order.first().copied().unwrap_or(0);
    let ranking = json::array(
        order
            .iter()
            .take(5)
            .map(|&i| format!("{{\"author\":{},\"p\":{}}}", i, json::f32(proba[i]))),
    );
    format!(
        "{{\"year\":{},\"label\":{},\"ranking\":{},\"probabilities\":{}}}",
        year,
        label,
        ranking,
        json::array(proba.iter().map(|&p| json::f32(p)))
    )
}

/// A bound, not-yet-running server.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
    workers: usize,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and builds the
    /// shared state.
    ///
    /// # Errors
    ///
    /// Socket errors from [`TcpListener::bind`]; registry
    /// configuration errors surface as `InvalidInput`.
    pub fn bind(addr: &str, config: ServeConfig) -> std::io::Result<Server> {
        let workers = pool::resolve_workers(config.workers);
        let state = ServerState::new(config)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string()))?;
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            state: Arc::new(state),
            workers,
        })
    }

    /// The bound address.
    ///
    /// # Errors
    ///
    /// Propagates [`TcpListener::local_addr`].
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared state (stats, breaker, config).
    pub fn state(&self) -> Arc<ServerState> {
        Arc::clone(&self.state)
    }

    /// Runs the non-blocking accept loop on the calling thread,
    /// serving on `workers` rotation threads, until
    /// [`RunningServer::shutdown`] begins the drain (or a listener
    /// error). Normally reached through [`Server::spawn`].
    pub fn run(self) -> std::io::Result<()> {
        let queue: WorkQueue<Conn> = WorkQueue::new();
        let state = &self.state;
        self.listener.set_nonblocking(true)?;
        std::thread::scope(|scope| {
            for _ in 0..self.workers {
                scope.spawn(|| worker_loop(state, &queue, self.workers as u64));
            }
            // Non-blocking accept: new connections are configured and
            // parked; the 1 ms poll doubles as the drain-flag check,
            // so shutdown needs no wake-up connection.
            loop {
                if state.drain.is_draining() {
                    break;
                }
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        // Small exchanges stall ~40 ms per round trip
                        // under Nagle + delayed ACK; responses go out
                        // in one buffer anyway.
                        let _ = stream.set_nodelay(true);
                        state.conns.on_accept();
                        let conn = Conn::new(stream, state.now_ms());
                        state.conns.on_park();
                        if queue.offer(conn).is_err() {
                            // Unreachable before the drain closes the
                            // queue; dispose deliberately regardless.
                            state.conns.on_resume();
                            state.conns.on_close(CloseCause::Forced);
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => std::thread::sleep(Duration::from_millis(1)),
                }
            }
            // Closing the queue flips every worker into drain mode:
            // remaining parked connections pop with the drain flag up,
            // and further parks bounce back for inline drain service.
            queue.close();
        });
        Ok(())
    }

    /// Starts the server on a background thread and returns a handle
    /// for shutdown.
    ///
    /// # Errors
    ///
    /// Propagates [`Server::local_addr`].
    pub fn spawn(self) -> std::io::Result<RunningServer> {
        let addr = self.local_addr()?;
        let state = self.state();
        let thread = std::thread::spawn(move || self.run());
        Ok(RunningServer {
            addr,
            state,
            thread,
        })
    }
}

/// A live server: address, shared state, and the accept-loop thread.
#[derive(Debug)]
pub struct RunningServer {
    addr: SocketAddr,
    state: Arc<ServerState>,
    thread: JoinHandle<std::io::Result<()>>,
}

impl RunningServer {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (stats, breaker, config).
    pub fn state(&self) -> Arc<ServerState> {
        Arc::clone(&self.state)
    }

    /// Begins the graceful drain, joins the server thread, and
    /// reports what the drain did: stop accepting, answer every
    /// in-flight request (`Connection: close` on each connection's
    /// final response), force-close stragglers only at
    /// [`ServeConfig::drain_deadline_ms`].
    pub fn shutdown(self) -> DrainStats {
        let begun = Instant::now();
        self.state.begin_drain();
        let _ = self.thread.join();
        self.state.drain.stats(begun.elapsed().as_millis() as u64)
    }
}

/// One live connection as the rotation loop carries it: the
/// non-blocking socket, buffered request bytes, not-yet-flushed
/// response bytes, and the budget gauge.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    /// Request bytes read but not yet consumed by the parser.
    buf: Vec<u8>,
    /// Serialized response bytes not yet accepted by the socket.
    pending: Vec<u8>,
    /// Prefix of `pending` already written.
    sent: usize,
    gauge: ConnGauge,
    /// Close this connection (with this cause) once `pending` drains.
    close_after_write: Option<CloseCause>,
    /// The peer half-closed its write side (EOF on read).
    eof: bool,
}

impl Conn {
    fn new(stream: TcpStream, now_ms: u64) -> Self {
        Conn {
            stream,
            buf: Vec::new(),
            pending: Vec::new(),
            sent: 0,
            gauge: ConnGauge::new(now_ms),
            close_after_write: None,
            eof: false,
        }
    }

    /// Queues a response for writing.
    fn enqueue(&mut self, response: &Response) {
        self.pending.extend_from_slice(&response.to_bytes());
    }
}

/// What one non-blocking flush attempt achieved.
enum Flush {
    /// Everything pending is on the wire.
    Done,
    /// Some bytes moved, then the socket filled.
    Progress,
    /// The socket accepted nothing.
    Blocked,
}

/// Writes as much of `pending` as the socket accepts right now.
fn flush(conn: &mut Conn) -> io::Result<Flush> {
    let mut progressed = false;
    loop {
        if conn.sent >= conn.pending.len() {
            conn.pending.clear();
            conn.sent = 0;
            return Ok(Flush::Done);
        }
        match conn.stream.write(&conn.pending[conn.sent..]) {
            Ok(0) => return Err(io::Error::from(io::ErrorKind::WriteZero)),
            Ok(n) => {
                conn.sent += n;
                progressed = true;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                return Ok(if progressed {
                    Flush::Progress
                } else {
                    Flush::Blocked
                });
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// The rotation loop's decision for a driven connection, plus whether
/// the slice did any real work (for the workers' idle back-off).
struct DriveOutcome {
    verdict: Verdict,
    productive: bool,
}

impl DriveOutcome {
    fn close(cause: CloseCause, productive: bool) -> Self {
        DriveOutcome {
            verdict: Verdict::Close(cause),
            productive,
        }
    }

    fn park(productive: bool) -> Self {
        DriveOutcome {
            verdict: Verdict::Park,
            productive,
        }
    }
}

/// Counts a request answered with an error and builds that response
/// (which closes the connection).
fn error_response(state: &ServerState, err: &HttpError) -> Response {
    state.stats.requests.fetch_add(1, Ordering::Relaxed);
    state.stats.client_errors.fetch_add(1, Ordering::Relaxed);
    Response::from_error(err)
}

/// What the bytes buffered on a connection came to.
enum Answer {
    /// A request was routed; `keep_alive` is what the client asked for.
    Served {
        response: Response,
        keep_alive: bool,
    },
    /// A framing or limit defect, counted and answered; the connection
    /// must close after this response.
    Rejected(Response),
    /// No whole request is buffered. After EOF this is always
    /// [`Progress::Idle`]: the peer closed between requests.
    Pending(Progress),
}

/// Parses the next request buffered on `conn` in place and answers it,
/// dropping the bytes it spanned. After EOF a started request will
/// never finish, so it is answered as the truncation it is.
fn answer_next(state: &ServerState, conn: &mut Conn) -> Answer {
    let err = match parse_request(&conn.buf, &state.config.limits) {
        Ok(Parse::Complete { request, len }) => {
            conn.buf.drain(..len);
            return Answer::Served {
                response: state.handle_request(&request),
                keep_alive: request.keep_alive,
            };
        }
        Ok(Parse::Incomplete(progress)) => match progress.at_eof() {
            Some(err) if conn.eof => err,
            _ => return Answer::Pending(progress),
        },
        Err(err) => err,
    };
    conn.buf.clear();
    Answer::Rejected(error_response(state, &err))
}

/// Drives one connection for one slice: flush what we owe, serve every
/// complete buffered request, read until the socket runs dry, then
/// park or close per the budget gauge. Never blocks.
fn drive(state: &ServerState, conn: &mut Conn) -> DriveOutcome {
    if state.drain.is_draining() {
        let cause = drain_serve(state, conn);
        return DriveOutcome::close(cause, true);
    }
    let policy = &state.config.conn;
    let mut productive = false;

    // A previously blocked response write gets first claim on the
    // slice; reading more requests while the peer won't take answers
    // just grows the buffer.
    if !conn.pending.is_empty() {
        let now = state.now_ms();
        match flush(conn) {
            Err(_) => return DriveOutcome::close(CloseCause::HostileReset, false),
            Ok(Flush::Blocked) => {
                conn.gauge.write_blocked(now);
                return DriveOutcome {
                    verdict: conn.gauge.stalled(policy, now),
                    productive: false,
                };
            }
            Ok(Flush::Progress) => {
                conn.gauge.write_blocked(now);
                conn.gauge.write_progress(now);
                return DriveOutcome::park(true);
            }
            Ok(Flush::Done) => {
                conn.gauge.write_drained(now);
                productive = true;
                if let Some(cause) = conn.close_after_write {
                    return DriveOutcome::close(cause, true);
                }
            }
        }
    }

    let mut served_in_slice: u32 = 0;
    loop {
        // Serve every complete request already buffered (pipelining),
        // up to the fairness cap.
        while conn.close_after_write.is_none() && served_in_slice < policy.max_requests_per_slice {
            match answer_next(state, conn) {
                Answer::Served {
                    mut response,
                    keep_alive,
                } => {
                    let exhausted = conn.gauge.request_served(policy, state.now_ms());
                    if !keep_alive {
                        response.close = true;
                        conn.close_after_write
                            .get_or_insert(CloseCause::ClientClose);
                    }
                    if exhausted {
                        response.close = true;
                        conn.close_after_write
                            .get_or_insert(CloseCause::MaxRequests);
                    }
                    conn.enqueue(&response);
                    served_in_slice += 1;
                }
                Answer::Rejected(response) => {
                    conn.enqueue(&response);
                    conn.close_after_write = Some(CloseCause::BadRequest);
                }
                Answer::Pending(progress) => {
                    conn.gauge.observe_scan(progress, state.now_ms());
                    break;
                }
            }
            productive = true;
        }

        // Push out what we owe, without blocking.
        if !conn.pending.is_empty() {
            let now = state.now_ms();
            match flush(conn) {
                Err(_) => return DriveOutcome::close(CloseCause::HostileReset, productive),
                Ok(Flush::Done) => conn.gauge.write_drained(now),
                Ok(Flush::Progress) | Ok(Flush::Blocked) => {
                    conn.gauge.write_blocked(now);
                    return DriveOutcome {
                        verdict: conn.gauge.stalled(policy, now),
                        productive,
                    };
                }
            }
        }
        if let Some(cause) = conn.close_after_write {
            return DriveOutcome::close(cause, productive);
        }
        if served_in_slice >= policy.max_requests_per_slice {
            // Fairness: a hot pipelining peer yields the worker.
            return DriveOutcome::park(productive);
        }
        if conn.eof {
            // `answer_next` has answered any started request, so the
            // peer closed between requests.
            return DriveOutcome::close(CloseCause::PeerClosed, productive);
        }

        // Pull whatever the socket has.
        let mut chunk = [0u8; 8192];
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.eof = true;
                productive = true;
            }
            Ok(n) => {
                conn.buf.extend_from_slice(&chunk[..n]);
                productive = true;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                let now = state.now_ms();
                let verdict = conn.gauge.stalled(policy, now);
                if let Verdict::Close(cause) = verdict {
                    // A mid-request stall earns its 408 (best effort —
                    // the peer is hostile by definition here).
                    if matches!(cause, CloseCause::HeaderStall | CloseCause::BodyStall) {
                        conn.enqueue(&error_response(state, &HttpError::Timeout));
                        let _ = flush(conn);
                    }
                }
                return DriveOutcome {
                    verdict,
                    productive,
                };
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return DriveOutcome::close(CloseCause::HostileReset, productive),
        }
    }
}

/// Serves a connection during the drain: complete every in-flight
/// request (polling briefly for bytes already on the wire), mark the
/// final response `Connection: close`, flush with the hard deadline
/// as the bound, and report how the connection ended.
fn drain_serve(state: &ServerState, conn: &mut Conn) -> CloseCause {
    let mut responses: Vec<Response> = Vec::new();
    let mut hostile = false;
    let mut forced = false;
    loop {
        if state.drain.force_deadline_passed(state.now_ms()) {
            forced = true;
            break;
        }
        match answer_next(state, conn) {
            Answer::Served {
                response,
                keep_alive,
            } => {
                responses.push(response);
                if !keep_alive {
                    break;
                }
            }
            Answer::Rejected(response) => {
                responses.push(response);
                break;
            }
            Answer::Pending(Progress::Idle) => break,
            Answer::Pending(_) => {
                // An in-flight request: poll briefly for bytes already
                // on the wire. New requests are not waited for — only
                // started ones are finished.
                let mut chunk = [0u8; 8192];
                match conn.stream.read(&mut chunk) {
                    Ok(0) => conn.eof = true,
                    Ok(n) => conn.buf.extend_from_slice(&chunk[..n]),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        hostile = true;
                        break;
                    }
                }
            }
        }
    }

    // The connection's final response announces the close.
    if let Some(last) = responses.last_mut() {
        last.close = true;
    }
    let answered = responses.len() as u64;
    for response in &responses {
        conn.enqueue(response);
    }
    // Flush everything owed — pre-drain leftovers included — bounded
    // by the hard deadline.
    while !conn.pending.is_empty() && !hostile {
        if state.drain.force_deadline_passed(state.now_ms()) {
            forced = true;
            break;
        }
        match flush(conn) {
            Ok(Flush::Done) => break,
            Ok(Flush::Progress) => {}
            Ok(Flush::Blocked) => std::thread::sleep(Duration::from_millis(1)),
            Err(_) => {
                hostile = true;
                break;
            }
        }
    }
    state.drain.note_final_responses(answered);
    state.drain.note_drained();
    if forced {
        state.drain.note_forced();
        CloseCause::Forced
    } else if hostile {
        CloseCause::HostileReset
    } else {
        CloseCause::Drain
    }
}

/// Waits up to `timeout` for the peer to send a byte or close, without
/// consuming anything: the socket goes blocking with a read timeout for
/// one `peek`, then back to non-blocking. `Ok(true)` means the next
/// read will not block (bytes, EOF, or a socket error for `drive` to
/// name); `Ok(false)` means the wait timed out. An error means
/// non-blocking mode could not be restored, and the connection must be
/// closed rather than risk a read that pins its worker.
fn await_readable(stream: &TcpStream, timeout: Duration) -> io::Result<bool> {
    let ready = match stream
        .set_nonblocking(false)
        .and_then(|()| stream.set_read_timeout(Some(timeout)))
    {
        Ok(()) => match stream.peek(&mut [0u8; 1]) {
            Ok(_) => true,
            Err(e) => !matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
            ),
        },
        // Could not arm the wait: report "not ready" and let the
        // restore below decide whether the socket is still usable.
        Err(_) => false,
    };
    stream.set_nonblocking(true)?;
    Ok(ready)
}

/// One rotation worker: pop a parked connection, drive it for a
/// slice, park it back or retire it. When a full sweep of the open set
/// yields nothing, the worker backs off exponentially (capped at
/// [`ConnPolicy::rotation_backoff_ms`]). If every open connection can
/// have a worker of its own (no more open connections than `workers`),
/// the worker spends the back-off waiting for the connection it just
/// drove to become readable, and drives it again the moment it does.
/// Otherwise it parks the connection and sleeps: a socket read timeout
/// ends on the kernel's scheduler tick, not on the millisecond asked
/// for, and the connections left parked meanwhile would go unseen that
/// long. A connection with a blocked response write would read as
/// ready at once, so for it the back-off is always a sleep.
fn worker_loop(state: &ServerState, queue: &WorkQueue<Conn>, workers: u64) {
    let backoff_cap = state.config.conn.rotation_backoff_ms.max(1);
    let mut idle_streak: u64 = 0;
    let mut backoff_ms: u64 = 1;
    while let Some(mut conn) = queue.pop() {
        state.conns.on_resume();
        loop {
            // A handler panic must cost one connection, not the worker.
            let outcome = match catch_unwind(AssertUnwindSafe(|| drive(state, &mut conn))) {
                Ok(outcome) => outcome,
                Err(_) => {
                    state.stats.panics.fetch_add(1, Ordering::Relaxed);
                    DriveOutcome::close(CloseCause::HostileReset, true)
                }
            };
            // A whole sweep with no progress earns a back-off instead
            // of spinning the park/pop cycle.
            let mut backoff = None;
            if outcome.productive {
                idle_streak = 0;
                backoff_ms = 1;
            } else {
                idle_streak += 1;
                if idle_streak >= state.conns.open_now().max(1) {
                    backoff = Some(Duration::from_millis(backoff_ms));
                    backoff_ms = (backoff_ms * 2).min(backoff_cap);
                    idle_streak = 0;
                }
            }
            if let (Verdict::Park, Some(wait)) = (outcome.verdict, backoff) {
                if conn.pending.is_empty() && state.conns.open_now() <= workers {
                    match await_readable(&conn.stream, wait) {
                        Ok(true) => continue,
                        Ok(false) => backoff = None,
                        Err(_) => {
                            state.conns.on_close(CloseCause::HostileReset);
                            break;
                        }
                    }
                }
            }
            match outcome.verdict {
                Verdict::Close(cause) => state.conns.on_close(cause),
                Verdict::Park => {
                    state.conns.on_park();
                    if let Err(mut conn) = queue.offer(conn) {
                        // The drain closed the queue between our drain
                        // check and the park: finish the connection
                        // here instead of slamming it shut.
                        state.conns.on_resume();
                        let cause = drain_serve(state, &mut conn);
                        state.conns.on_close(cause);
                    }
                }
            }
            if let Some(wait) = backoff {
                std::thread::sleep(wait);
            }
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single_year_config() -> ServeConfig {
        let mut config = ServeConfig::smoke();
        config.years = vec![2018];
        config.rate = None;
        config
    }

    fn state(config: ServeConfig) -> ServerState {
        ServerState::new(config).unwrap()
    }

    fn req(method: &str, path: &str, query: &[(&str, &str)], body: &str) -> Request {
        Request {
            method: method.to_string(),
            path: path.to_string(),
            query: query
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
            keep_alive: true,
        }
    }

    const SOURCE: &str = "int main() { int total = 3; return total; }";

    #[test]
    fn router_maps_unknown_paths_and_methods() {
        let s = state(single_year_config());
        assert_eq!(s.handle_request(&req("GET", "/nope", &[], "")).status, 404);
        assert_eq!(
            s.handle_request(&req("GET", "/attribute", &[], "")).status,
            405,
            "known path, wrong method"
        );
        assert_eq!(
            s.handle_request(&req("POST", "/healthz", &[], "")).status,
            405
        );
        assert_eq!(s.stats().client_errors.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn attribute_validates_year_and_body() {
        let s = state(single_year_config());
        let missing = s.handle_request(&req("POST", "/attribute", &[], SOURCE));
        assert_eq!(missing.status, 400, "missing year");
        let bad = s.handle_request(&req("POST", "/attribute", &[("year", "soon")], SOURCE));
        assert_eq!(bad.status, 400, "non-integer year");
        let unserved = s.handle_request(&req("POST", "/attribute", &[("year", "2019")], SOURCE));
        assert_eq!(unserved.status, 404, "in-range year not in the registry");
        let empty = s.handle_request(&req("POST", "/attribute", &[("year", "2018")], ""));
        assert_eq!(empty.status, 400, "empty body");
        let broken = s.handle_request(&req(
            "POST",
            "/attribute",
            &[("year", "2018")],
            "int main( {",
        ));
        assert_eq!(broken.status, 422, "unparseable source");
    }

    #[test]
    fn attribute_matches_the_offline_oracle_byte_for_byte() {
        let s = state(single_year_config());
        let served = s.handle_request(&req("POST", "/attribute", &[("year", "2018")], SOURCE));
        assert_eq!(served.status, 200);

        let oracle = synthattr_core::year_oracle(2018, &s.config().experiment).unwrap();
        let mut cache = ArtifactCache::new();
        let artifact = cache.intern(SOURCE);
        let features = artifact.features(oracle.extractor()).unwrap();
        let proba = oracle.forest().predict_proba(features);
        let expected = attribution_body(2018, &proba);
        assert_eq!(
            String::from_utf8(served.body).unwrap(),
            expected,
            "served verdict == offline pipeline verdict, byte for byte"
        );
    }

    #[test]
    fn rate_limiter_rejects_the_burst_overflow_with_429() {
        let mut config = single_year_config();
        config.rate = Some(RateConfig {
            burst: 2,
            per_second: 0,
        });
        let s = state(config);
        let attr = || req("POST", "/attribute", &[("year", "2018")], SOURCE);
        assert_eq!(s.handle_request(&attr()).status, 200);
        assert_eq!(s.handle_request(&attr()).status, 200);
        assert_eq!(s.handle_request(&attr()).status, 429, "burst exhausted");
        assert_eq!(s.stats().rate_limited.load(Ordering::Relaxed), 1);
        // A different client identity has its own bucket.
        let mut other = attr();
        other
            .headers
            .push(("x-client-id".to_string(), "fresh".to_string()));
        assert_eq!(s.handle_request(&other).status, 200);
        // /healthz is never rate-limited.
        assert_eq!(
            s.handle_request(&req("GET", "/healthz", &[], "")).status,
            200
        );
    }

    #[test]
    fn healthz_reports_degraded_when_the_breaker_opens_but_reads_still_flow() {
        let s = state(single_year_config());
        let healthy = s.handle_request(&req("GET", "/healthz", &[], ""));
        assert_eq!(healthy.status, 200);
        let text = String::from_utf8(healthy.body).unwrap();
        assert!(text.contains("\"status\":\"ok\""), "healthy body: {text}");

        // Trip the breaker the way real transform failures would.
        for _ in 0..s.config().breaker.failure_threshold {
            s.breaker().record_failure();
        }
        assert!(s.breaker().is_open());

        // Regression: a degraded engine must REPORT degraded, not fail
        // the health read or the attribution path.
        let degraded = s.handle_request(&req("GET", "/healthz", &[], ""));
        assert_eq!(degraded.status, 200, "healthz never errors on degradation");
        let text = String::from_utf8(degraded.body).unwrap();
        assert!(
            text.contains("\"status\":\"degraded\"") && text.contains("\"state\":\"open\""),
            "degraded body: {text}"
        );
        let attributed = s.handle_request(&req("POST", "/attribute", &[("year", "2018")], SOURCE));
        assert_eq!(attributed.status, 200, "reads flow while transforms shed");

        // Transforms shed with 503 while open.
        let shed = s.handle_request(&req("POST", "/transform", &[("year", "2018")], SOURCE));
        assert_eq!(shed.status, 503);
    }

    #[test]
    fn transform_is_deterministic_and_parse_rejects_skip_the_breaker() {
        let s = state(single_year_config());
        let t = || {
            req(
                "POST",
                "/transform",
                &[
                    ("year", "2018"),
                    ("mode", "ct"),
                    ("steps", "2"),
                    ("seed", "7"),
                ],
                SOURCE,
            )
        };
        let first = s.handle_request(&t());
        let second = s.handle_request(&t());
        assert_eq!(first.status, 200);
        assert_eq!(first.body, second.body, "same seed, same chain bytes");

        let trips_before = s.breaker().trips();
        let rejected = s.handle_request(&req(
            "POST",
            "/transform",
            &[("year", "2018")],
            "not c++ at all ~~~",
        ));
        assert_eq!(rejected.status, 422);
        assert_eq!(
            s.breaker().trips(),
            trips_before,
            "client parse errors never count against engine health"
        );

        let bad_mode = s.handle_request(&req(
            "POST",
            "/transform",
            &[("year", "2018"), ("mode", "detox")],
            SOURCE,
        ));
        assert_eq!(bad_mode.status, 400);
        let bad_steps = s.handle_request(&req(
            "POST",
            "/transform",
            &[("year", "2018"), ("steps", "0")],
            SOURCE,
        ));
        assert_eq!(bad_steps.status, 400);
    }

    #[test]
    fn healthz_reports_drain_state_and_connection_counters() {
        let s = state(single_year_config());
        let before = s.handle_request(&req("GET", "/healthz", &[], ""));
        let text = String::from_utf8(before.body).unwrap();
        assert!(text.contains("\"status\":\"ok\""), "body: {text}");
        assert!(text.contains("\"drain_state\":\"active\""), "body: {text}");
        assert!(text.contains("\"connections_open\":0"), "body: {text}");
        assert!(text.contains("\"connections_parked\":0"), "body: {text}");
        assert!(
            text.contains("\"connection_closes\":{\"peer_closed\":0,"),
            "per-cause close counters present: {text}"
        );

        // Connection life-cycle events surface as gauges + counters.
        s.conns().on_accept();
        s.conns().on_accept();
        s.conns().on_park();
        s.conns().on_close(CloseCause::IdleBudget);
        let mid = s.handle_request(&req("GET", "/healthz", &[], ""));
        let text = String::from_utf8(mid.body).unwrap();
        assert!(text.contains("\"connections_open\":1"), "body: {text}");
        assert!(text.contains("\"connections_parked\":1"), "body: {text}");
        assert!(text.contains("\"idle_budget\":1"), "body: {text}");

        // The drain flips both status and drain_state, and healthz
        // keeps answering (load balancers need the draining signal).
        s.begin_drain();
        let draining = s.handle_request(&req("GET", "/healthz", &[], ""));
        assert_eq!(draining.status, 200);
        let text = String::from_utf8(draining.body).unwrap();
        assert!(text.contains("\"status\":\"draining\""), "body: {text}");
        assert!(
            text.contains("\"drain_state\":\"draining\""),
            "body: {text}"
        );
    }

    #[test]
    fn readiness_wait_wakes_on_bytes_or_eof_and_restores_non_blocking_mode() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut conn, _) = listener.accept().unwrap();
        conn.set_nonblocking(true).unwrap();

        // An idle peer: the wait times out, and the socket is
        // non-blocking again, so a read fails at once rather than
        // after the wait's read timeout.
        let wait = Duration::from_millis(100);
        assert!(
            !await_readable(&conn, wait).unwrap(),
            "idle peer is not ready"
        );
        let started = Instant::now();
        let err = conn.read(&mut [0u8; 8]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        assert!(
            started.elapsed() < wait / 2,
            "read blocked: {:?}",
            started.elapsed()
        );

        // Bytes wake the wait long before its timeout, and stay unread.
        let long = Duration::from_secs(10);
        peer.write_all(b"x").unwrap();
        let started = Instant::now();
        assert!(await_readable(&conn, long).unwrap());
        assert!(started.elapsed() < long / 2);
        let mut byte = [0u8; 8];
        assert_eq!(conn.read(&mut byte).unwrap(), 1);
        assert_eq!(byte[0], b'x');

        // So does EOF.
        drop(peer);
        assert!(await_readable(&conn, long).unwrap());
        assert_eq!(conn.read(&mut byte).unwrap(), 0);
    }

    #[test]
    fn attribution_body_ranks_descending_with_ties_to_the_lowest_label() {
        let body = attribution_body(2017, &[0.25, 0.5, 0.25, 0.0]);
        assert!(
            body.starts_with("{\"year\":2017,\"label\":1,"),
            "argmax wins: {body}"
        );
        let ranked = attribution_body(2019, &[0.4, 0.4, 0.2]);
        assert!(
            ranked.contains("\"label\":0") && ranked.contains("[{\"author\":0,"),
            "ties break to the lowest label, matching the forest: {ranked}"
        );
        assert!(
            ranked.contains("\"probabilities\":[0.4,0.4,0.2]"),
            "full vector serialized: {ranked}"
        );
    }

    #[test]
    fn attribution_body_ranks_nan_deterministically_with_label_first() {
        let proba = [0.3, f32::NAN, 0.5, 0.2];
        let body = attribution_body(2018, &proba);
        assert_eq!(body, attribution_body(2018, &proba), "deterministic");
        // NaN ranks first under `total_cmp`, then descending; the label
        // is `ranking[0]`.
        assert!(
            body.starts_with(
                "{\"year\":2018,\"label\":1,\"ranking\":[{\"author\":1,\"p\":null},{\"author\":2,"
            ),
            "{body}"
        );
    }
}
