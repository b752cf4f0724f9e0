//! # synthattr-serve — attribution as a service
//!
//! A hermetic (zero registry dependencies) HTTP/1.1 server that wraps
//! the offline attribution pipeline in a network API:
//!
//! | Endpoint | What it does |
//! |---|---|
//! | `POST /attribute?year=Y` | C++ source in, ranked author/ChatGPT verdict with probabilities out |
//! | `POST /transform?year=Y&mode=nct\|ct&steps=N&seed=S` | the simulated ChatGPT transformation chain |
//! | `GET /healthz` | breaker state, cache/traffic counters, connection gauges, per-cause close counters, drain state |
//!
//! Architecture, bottom-up:
//!
//! * [`http`] — one defensive HTTP/1.1 parser, over the bytes a
//!   connection has buffered so far (`read_request` feeds it from any
//!   `BufRead`), plus the response writer. Hard limits on every
//!   dimension an attacker controls (request-line length, header
//!   count/size, body size) and a verdict per line as soon as it is
//!   complete make byte-soup inputs degrade to 4xx/close — never a
//!   panic or a hang; the progress it reports drives the slow-loris
//!   deadlines in [`conn`].
//! * [`json`] — write-only JSON with shortest-round-trip float
//!   formatting, the property that makes response bodies byte-stable.
//! * [`registry`] — per-year models trained **once** through the exact
//!   offline pipeline code path ([`synthattr_core::pipeline::year_oracle`])
//!   and shared `Arc`-style across workers; `/attribute` predicts
//!   inline on the worker that serves the request.
//! * [`limit`] — per-client token buckets built by running the fault
//!   layer's [`synthattr_faults::RetryBudget`] in reverse.
//! * [`conn`] — the connection-survivability policy core: per-
//!   connection budgets (lifetime idle budget, header/body progress
//!   deadlines, max requests) decided by a clock-explicit
//!   [`conn::ConnGauge`], unit-testable without sockets.
//! * [`drain`] — graceful-shutdown bookkeeping: the draining flag,
//!   the force-close hard deadline, and the [`drain::DrainStats`]
//!   report `shutdown()` returns.
//! * [`server`] — non-blocking accept plus a worker **rotation loop**
//!   over [`synthattr_util::pool::WorkQueue`]: workers park
//!   connections that yield no bytes instead of camping on them, so
//!   hostile connections hold sockets, never threads; while there are
//!   no more open connections than workers, an idle worker waits
//!   (bounded) for the peer's next bytes instead of on a timer; a
//!   [`synthattr_faults::CircuitBreaker`] guards the transform engine
//!   and surfaces on `/healthz` as `ok`/`degraded`/`draining`.
//! * [`client`] — the minimal blocking client the e2e and bench
//!   harnesses drive the server with (read timeout configurable,
//!   defaulting to the server's advertised deadline-derived value).
//!
//! The load-bearing invariant, proven end-to-end in
//! `tests/serve_e2e.rs`: a served `/attribute` response is
//! **byte-identical** to what the offline pipeline's oracle produces
//! for the same source, at any worker count and client concurrency —
//! caching and connection rotation change scheduling, never results. The survivability claims get their own live-TCP
//! proof in `tests/serve_chaos.rs` (hostile traffic from
//! `synthattr_faults::TrafficProfile`) and `tests/serve_drain.rs`
//! (shutdown racing pipelined bursts drops zero responses).

pub mod client;
pub mod conn;
pub mod drain;
pub mod http;
pub mod json;
pub mod limit;
pub mod registry;
pub mod server;

pub use client::{Client, ClientResponse};
pub use conn::{CloseCause, ConnGauge, ConnPolicy, Phase, Verdict};
pub use drain::{DrainState, DrainStats};
pub use http::{Limits, Request, Response};
pub use limit::{RateConfig, RateLimiter, TokenBucket};
pub use registry::{ModelRegistry, YearModel};
pub use server::{attribution_body, RunningServer, ServeConfig, Server, ServerState};
