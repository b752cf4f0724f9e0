//! Order statistics, ratios and the result line.

use std::collections::BTreeMap;

/// Percentiles the tail rule may report, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// 1-based nearest rank of the `p`-th percentile among `n` samples
/// (the epsilon keeps `99.9% of 10000` at 9990 despite rounding).
fn rank(n: usize, p: f64) -> usize {
    let r = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
    r.clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice (`p` in `0..=100`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// How many samples lie beyond the nearest-rank `p`-th percentile.
fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The tail rule: the highest percentile on a fixed ladder
/// (99.9, 99, 95, 90, 75) that has at least ten samples beyond it.
/// `None` when even the 75th has fewer than ten; callers then report
/// the maximum.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| n > 0 && beyond(n, p) >= 10)
}

/// Median and tail of a sample, with the percentile the tail stands
/// for (`100.0` means the maximum).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail: f64,
    pub tail_pct: f64,
}

/// Summarizes `values` (any order). Panics on an empty sample.
pub fn summarize(values: &[f64]) -> Summary {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (tail, tail_pct) = match tail_percentile(sorted.len()) {
        Some(p) => (percentile(&sorted, p), p),
        None => (*sorted.last().expect("non-empty sample"), 100.0),
    };
    Summary {
        n: sorted.len(),
        p50: percentile(&sorted, 50.0),
        tail,
        tail_pct,
    }
}

/// Splits a sample (in arrival order) into `windows` contiguous chunks
/// and returns the median of the chunks' medians, so one disturbed
/// stretch does not move it.
pub fn windowed_p50(values: &[f64], windows: usize) -> f64 {
    let size = values.len().div_ceil(windows.max(1)).max(1);
    let parts: Vec<f64> = values.chunks(size).map(median).collect();
    median(&parts)
}

/// Median of a sample (any order). Panics on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// `num / den`, or zero when the base is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Named metrics with units, emitted in name order.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        // `+ 0.0` turns the `-0.0` an empty float sum yields into `0.0`.
        self.0.insert(name.to_string(), (value + 0.0, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|(v, _)| *v)
    }

    pub fn names(&self) -> Vec<&str> {
        self.0.keys().map(String::as_str).collect()
    }

    fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, (value, unit))| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    number(*value)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// A JSON number with every digit Rust's shortest round-trip form has.
fn number(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{x:.1}")
    } else {
        format!("{x}")
    }
}

/// The benchmark's last line of output.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    pub fn to_json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics.to_json()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 500.0);
        assert_eq!(percentile(&xs, 99.0), 990.0);
        assert_eq!(percentile(&xs, 100.0), 1000.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        // Exactly ten samples lie beyond the reported p99.
        assert_eq!(
            xs.iter().filter(|&&x| x > percentile(&xs, 99.0)).count(),
            10
        );
    }

    #[test]
    fn summary_falls_back_to_the_maximum() {
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.n, s.p50, s.tail, s.tail_pct), (3, 2.0, 3.0, 100.0));
        let many: Vec<f64> = (0..2000).rev().map(f64::from).collect();
        let s = summarize(&many);
        assert_eq!(s.tail_pct, 99.0);
        assert_eq!(s.tail, 1979.0);
    }

    #[test]
    fn windows_shrug_off_one_disturbed_stretch() {
        let mut xs = vec![3.0; 1000];
        for x in &mut xs[100..200] {
            *x = 50.0;
        }
        assert_eq!(median(&xs[..200]), 26.5);
        assert_eq!(windowed_p50(&xs, 5), 3.0);
        assert_eq!(windowed_p50(&[1.0, 2.0, 3.0], 5), 2.0);
    }

    #[test]
    fn medians_and_ratios() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(3.0, 0.0), 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.8127, "s");
        m.set("count", 12.0, "count");
        let line = Outcome {
            correct: true,
            attempted: 7,
            failed: 0,
            metrics: m,
        }
        .to_json();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": \
             {\"count\": {\"value\": 12.0, \"unit\": \"count\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn non_finite_metrics_are_refused() {
        Metrics::default().set("x", f64::NAN, "s");
    }
}
