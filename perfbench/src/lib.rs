//! The synthattr benchmark: four workloads on the production entry
//! points, end-to-end metrics from untraced runs, and per-layer
//! metrics from a separate traced run. See `perfbench/README.md`.

pub mod alloc;
pub mod cpu;
pub mod loadgen;
pub mod offline;
pub mod serve;
pub mod stats;
pub mod trace;

use stats::{Metrics, Outcome};

/// Input scale: `Full` is the benchmark; `Tiny` runs the same code on
/// small inputs (smoke tests and set-up warm-ups).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

impl Size {
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Tiny => "tiny",
        }
    }
}

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperYear,
    ChainChaos,
    ServeCold,
    ServeWarm,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperYear,
        Workload::ChainChaos,
        Workload::ServeCold,
        Workload::ServeWarm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperYear => "paper-year",
            Workload::ChainChaos => "chain-chaos",
            Workload::ServeCold => "serve-cold",
            Workload::ServeWarm => "serve-warm",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// End-to-end metrics (untraced runs), with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("samples_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("cpu_ms_per_sample", "ms"),
    ("peak_heap_mib", "MiB"),
];

/// Per-layer metrics (traced runs), with units. A layer a workload does
/// not exercise reports zero.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("gen.generate_year.calls", "count"),
    ("gen.generate_year.busy_s", "s"),
    ("lang.parse.calls", "count"),
    ("lang.parse.busy_s", "s"),
    ("lang.parse.mb_per_s", "MB/s"),
    ("analysis.analyze.calls", "count"),
    ("analysis.analyze.busy_s", "s"),
    ("analysis.fingerprint.busy_s", "s"),
    ("features.extract.calls", "count"),
    ("features.extract.busy_s", "s"),
    ("features.node_hit_ratio", "ratio"),
    ("gpt.transform.steps", "count"),
    ("gpt.transform.busy_s", "s"),
    ("faults.calls", "count"),
    ("faults.attempts", "count"),
    ("faults.useful_ratio", "ratio"),
    ("faults.degraded", "count"),
    ("faults.busy_s", "s"),
    ("ml.fit.calls", "count"),
    ("ml.fit.rows", "count"),
    ("ml.fit.busy_s", "s"),
    ("ml.predict.rows", "count"),
    ("ml.predict.busy_s", "s"),
    ("core.try_build.busy_s", "s"),
    ("core.attribution.busy_s", "s"),
    ("core.artifact.hit_ratio", "ratio"),
    ("core.frontend_busy_s", "s"),
    ("serve.http.busy_us_per_req", "us"),
    ("serve.handle.busy_us_per_req", "us"),
    ("serve.serialize.busy_us_per_req", "us"),
    ("serve.batch.rows_per_batch", "count"),
    ("serve.batch.wait_us_per_req", "us"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.evictions", "count"),
    ("serve.conn.closes", "count"),
    ("serve.conn.reconnects", "count"),
    ("serve.server_cpu_s", "s"),
    ("serve.high_rate.latency_p50_ms", "ms"),
    ("serve.high_rate.latency_tail_ms", "ms"),
    ("bench.loadgen.lag_p99_ms", "ms"),
    ("bench.loadgen_cpu_s", "s"),
    ("bench.tracing_overhead_share", "ratio"),
    ("bench.unattributed_share", "ratio"),
];

/// One invocation of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
}

/// Runs one workload and returns its result line plus every error seen.
/// `paper-year` runs the paper's own corpus at every seed.
pub fn run(o: &Options) -> (Outcome, Vec<String>) {
    use serve::Mix;
    let run = match (o.workload, o.trace) {
        (Workload::PaperYear, false) => offline::paper_year(o.seconds, o.size),
        (Workload::PaperYear, true) => offline::paper_year_traced(o.size),
        (Workload::ChainChaos, false) => offline::chain_chaos(o.seed, o.seconds, o.size),
        (Workload::ChainChaos, true) => offline::chain_chaos_traced(o.seed, o.size),
        (Workload::ServeCold, false) => serve::measured(o.seed, Mix::Cold, o.seconds, o.size),
        (Workload::ServeCold, true) => serve::traced(o.seed, Mix::Cold, o.seconds, o.size),
        (Workload::ServeWarm, false) => serve::measured(o.seed, Mix::Warm, o.seconds, o.size),
        (Workload::ServeWarm, true) => serve::traced(o.seed, Mix::Warm, o.seconds, o.size),
    };
    let wanted: &[(&str, &str)] = if o.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Metrics::default();
    let mut errors = run.errors;
    for (name, unit) in wanted {
        match run.metrics.get(name) {
            Some(v) => metrics.set(name, v, unit),
            None if o.trace && errors.is_empty() => metrics.set(name, 0.0, unit),
            None => {}
        }
    }
    if !o.trace && metrics.names().len() < END_TO_END.len() && errors.is_empty() {
        errors.push("a run without errors reported no end-to-end metrics".to_string());
    }
    let outcome = Outcome {
        correct: run.failed == 0 && errors.is_empty() && run.attempted > 0,
        attempted: run.attempted.max(1),
        failed: run.failed,
        metrics,
    };
    (outcome, errors)
}
