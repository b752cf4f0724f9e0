//! Spans and counters recorded by the benchmark's own code around its
//! calls into each layer's public functions.
//!
//! A traced replay runs on one thread, so spans nest strictly: a
//! span's self time is its duration minus its direct children's, and
//! the self times of all spans add up to the root spans' total. The
//! part of a root span no child covers is the replay's unattributed
//! time. Spans stay in memory until the run's metrics are read.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// The request (serve) or job (offline) the span belongs to.
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A single-threaded span recorder with named counters.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    counters: BTreeMap<&'static str, f64>,
    request: u64,
    enabled: bool,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            counters: BTreeMap::new(),
            request: 0,
            enabled: true,
        }
    }
}

impl Tracer {
    /// A tracer that records nothing: the same code runs untraced.
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::default()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Tags later spans with request (or job) `id`.
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    /// Adds `n` to counter `name`.
    pub fn add(&mut self, name: &'static str, n: f64) {
        *self.counters.entry(name).or_insert(0.0) += n;
    }

    /// Counter `name`, zero when never added to.
    pub fn count(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of spans called `name`.
    pub fn calls(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).count() as f64
    }

    /// Durations of the spans called `name`, in µs, in recording order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Total duration of spans called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .sum::<f64>()
            / 1e9
    }

    /// Self time of every span, indexed like [`Tracer::spans`].
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    /// Total self time of spans called `name`, in seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        self.self_ns()
            .iter()
            .zip(&self.spans)
            .filter(|(_, s)| s.name == name)
            .map(|(ns, _)| *ns as f64)
            .sum::<f64>()
            / 1e9
    }

    /// Total duration of the root spans, in seconds.
    pub fn root_s(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.duration_ns() as f64)
            .sum::<f64>()
            / 1e9
    }

    /// Share of root-span time that no child span covers.
    pub fn unattributed_share(&self) -> f64 {
        let own = self.self_ns();
        let (mut loose, mut total) = (0.0, 0.0);
        for (s, ns) in self.spans.iter().zip(&own) {
            if s.parent.is_none() {
                loose += *ns as f64;
                total += s.duration_ns() as f64;
            }
        }
        crate::stats::ratio(loose, total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < ms as u128 {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_times_partition_the_roots() {
        let mut t = Tracer::default();
        t.span("root", |t| {
            spin(2);
            t.span("a", |t| {
                spin(3);
                t.span("b", |_| spin(2));
            });
        });
        assert_eq!(t.calls("a"), 1.0);
        let parts = t.self_s("root") + t.self_s("a") + t.self_s("b");
        assert!((parts - t.root_s()).abs() < 1e-9);
        assert!(t.total_s("a") >= t.total_s("b") + t.self_s("a") - 1e-9);
        let share = t.unattributed_share();
        assert!(share > 0.0 && share < 1.0, "{share}");
        assert_eq!(t.spans()[2].parent, Some(1));
    }

    #[test]
    fn counters_and_requests() {
        let mut t = Tracer::default();
        t.set_request(7);
        t.span("x", |t| t.add("rows", 3.0));
        t.add("rows", 2.0);
        assert_eq!(t.count("rows"), 5.0);
        assert_eq!(t.count("missing"), 0.0);
        assert_eq!(t.spans()[0].request, 7);
    }

    #[test]
    fn a_disabled_tracer_runs_the_code_and_records_nothing() {
        let mut t = Tracer::disabled();
        assert_eq!(t.span("x", |t| t.span("y", |_| 4)), 4);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn an_empty_trace_has_no_unattributed_share() {
        assert_eq!(Tracer::default().unattributed_share(), 0.0);
    }
}
