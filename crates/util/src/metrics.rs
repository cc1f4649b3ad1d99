//! A std-only metrics layer: atomic counters, gauges, fixed-boundary
//! log-scale latency histograms, and a Prometheus-text-format renderer.
//!
//! The workspace is offline and dependency-free, so this module hand-rolls
//! the small subset of a metrics library the query server needs:
//!
//! * [`Counter`] — a monotonically increasing `AtomicU64`;
//! * [`Gauge`] — a settable value (stored as `f64` bits, so both integral
//!   gauges like queue depth and ratio gauges like cache hit rates fit);
//! * [`Histogram`] — a fixed-boundary log-scale histogram of microsecond
//!   latencies with a lock-free record path: every bucket is an
//!   `AtomicU64`, boundaries grow by ~25% per bucket
//!   (`next = prev + max(1, prev/4)`), and p50/p90/p99/max are derived
//!   from the bucket counts after the fact;
//! * [`MetricsRegistry`] — named, labelled families of the above, rendered
//!   by [`MetricsRegistry::render`] in the Prometheus text exposition
//!   format (`# HELP` / `# TYPE` / `name{labels} value` lines, histogram
//!   `_bucket{le=...}` / `_sum` / `_count` series) so an external scraper
//!   needs no JSON parsing.
//!
//! Registration is idempotent: asking for the same family name and label
//! set twice returns the same underlying atomic handle, so call sites can
//! re-resolve metrics cheaply instead of threading handles everywhere.

use crate::json::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

// ---------------------------------------------------------------------------
// Histogram boundaries
// ---------------------------------------------------------------------------

/// Upper bucket boundaries (inclusive), in microseconds.
///
/// Boundaries grow multiplicatively: `next = prev + max(1, prev / 4)`,
/// i.e. exactly +1 below 4µs and ~+25% beyond, starting at 1µs and ending
/// just past one hour (3.6e9 µs). Because consecutive boundaries are within
/// a factor of 1.25 of each other, any quantile estimated from the bucket
/// counts overestimates the true value by at most 25% (plus 1µs of
/// quantization at the very bottom) — see `quantile_relative_error_bound`
/// in the tests.
pub fn bucket_bounds() -> &'static [u64] {
    static BOUNDS: OnceLock<Vec<u64>> = OnceLock::new();
    BOUNDS.get_or_init(|| {
        let mut bounds = Vec::with_capacity(112);
        let mut b: u64 = 1;
        const HOUR_US: u64 = 3_600_000_000;
        loop {
            bounds.push(b);
            if b > HOUR_US {
                break;
            }
            b += (b / 4).max(1);
        }
        bounds
    })
}

/// Estimates the `q`-quantile (0.0–1.0) from per-bucket counts.
///
/// `counts` must have `bounds.len() + 1` entries — one per boundary plus the
/// overflow bucket. Returns the upper boundary of the bucket containing the
/// quantile rank, `None` when the histogram is empty. The overflow bucket
/// reports the last boundary (callers wanting an exact tail should consult
/// the histogram's tracked `max`).
pub fn quantile_from_counts(bounds: &[u64], counts: &[u64], q: f64) -> Option<u64> {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return None;
    }
    // Rank of the quantile, 1-based: the smallest rank r with
    // cumulative(r) >= ceil(q * total), clamped into [1, total].
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut cum = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        cum += c;
        if cum >= rank {
            return Some(if i < bounds.len() { bounds[i] } else { bounds[bounds.len() - 1] });
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Metric kinds
// ---------------------------------------------------------------------------

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increments by one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Overwrites the value — for mirroring a monotonic counter that is
    /// maintained elsewhere (e.g. a transport's atomic request count) into
    /// the registry at render time. Not for general use; counters must
    /// never decrease.
    pub fn store(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }
}

/// A settable gauge. Values are `f64` so both integral gauges (queue depth)
/// and ratio gauges (hit rates) fit; stored as bits in an `AtomicU64`.
#[derive(Debug)]
pub struct Gauge(AtomicU64);

impl Default for Gauge {
    fn default() -> Gauge {
        Gauge(AtomicU64::new(0f64.to_bits()))
    }
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A fixed-boundary log-scale histogram of microsecond values.
///
/// The record path is lock-free: one `fetch_add` on the bucket, plus
/// relaxed updates of `sum`, `count`, and `max`.
#[derive(Debug)]
pub struct Histogram {
    /// One slot per boundary in [`bucket_bounds`], plus a final overflow
    /// bucket for values above the last boundary.
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: (0..bucket_bounds().len() + 1).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one observation of `value_us` microseconds.
    pub fn record(&self, value_us: u64) {
        let bounds = bucket_bounds();
        // First boundary >= value; values beyond the last boundary saturate
        // into the overflow bucket.
        let idx = bounds.partition_point(|&b| b < value_us);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value_us, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.max.fetch_max(value_us, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded observations, in microseconds.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded observation, in microseconds (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the bucket counts and aggregates.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            sum: self.sum(),
            count: self.count(),
            max: self.max(),
        }
    }

    /// Estimates the `q`-quantile (0.0–1.0) of the recorded values.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let snap = self.snapshot();
        snap.quantile(q)
    }
}

/// A point-in-time copy of a [`Histogram`]: per-bucket counts (overflow
/// last) plus the sum/count/max aggregates. Snapshots subtract, so a caller
/// can measure just the observations between two scrapes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts; `bucket_bounds().len() + 1` entries, overflow last.
    pub counts: Vec<u64>,
    /// Sum of observations in microseconds.
    pub sum: u64,
    /// Number of observations.
    pub count: u64,
    /// Largest observation in microseconds.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Estimates the `q`-quantile (0.0–1.0); `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        quantile_from_counts(bucket_bounds(), &self.counts, q)
    }

    /// The observations recorded after `earlier` was taken (`self` must be
    /// the later snapshot of the same histogram). `max` is carried from
    /// `self` — maxima don't subtract.
    pub fn delta_since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: self
                .counts
                .iter()
                .zip(earlier.counts.iter().chain(std::iter::repeat(&0)))
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
            sum: self.sum.saturating_sub(earlier.sum),
            count: self.count.saturating_sub(earlier.count),
            max: self.max,
        }
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// One metric handle inside a family.
#[derive(Clone, Debug)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// What kind of metric a family holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// A named family: all metrics sharing one name (and kind), distinguished by
/// label sets.
#[derive(Debug)]
struct Family {
    name: String,
    help: String,
    kind: Kind,
    /// (sorted label pairs, handle) — label order is normalized at
    /// registration so `[("op","run")]` always names the same series.
    metrics: Vec<(Vec<(String, String)>, Metric)>,
}

/// A registry of metric families, rendered in Prometheus text format.
///
/// Registration methods are idempotent: the same `(name, labels)` pair
/// always returns the same underlying handle. Registering one name with two
/// different kinds panics — that is a programming error, not runtime input.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    families: Mutex<Vec<Family>>,
}

impl MetricsRegistry {
    /// A new, empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The process-wide registry, for callers without a natural owner.
    /// (The query server threads its own instance so tests stay isolated.)
    pub fn global() -> &'static MetricsRegistry {
        static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
        GLOBAL.get_or_init(MetricsRegistry::new)
    }

    fn resolve(&self, name: &str, labels: &[(&str, &str)], help: &str, kind: Kind) -> Metric {
        let mut sorted: Vec<(String, String)> =
            labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        sorted.sort();
        let mut families = self.families.lock().unwrap();
        if let Some(fam) = families.iter_mut().find(|f| f.name == name) {
            assert_eq!(
                fam.kind, kind,
                "metric family `{name}` registered as both {:?} and {kind:?}",
                fam.kind
            );
            if let Some((_, m)) = fam.metrics.iter().find(|(l, _)| *l == sorted) {
                return m.clone();
            }
            let metric = new_metric(kind);
            fam.metrics.push((sorted, metric.clone()));
            return metric;
        }
        let metric = new_metric(kind);
        families.push(Family {
            name: name.to_string(),
            help: help.to_string(),
            kind,
            metrics: vec![(sorted, metric.clone())],
        });
        metric
    }

    /// The counter `name` with no labels, registering it on first use.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_with(name, &[], help)
    }

    /// The counter `name` with the given labels, registering on first use.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Arc<Counter> {
        match self.resolve(name, labels, help, Kind::Counter) {
            Metric::Counter(c) => c,
            _ => unreachable!(),
        }
    }

    /// The gauge `name` with no labels, registering it on first use.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.gauge_with(name, &[], help)
    }

    /// The gauge `name` with the given labels, registering on first use.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Arc<Gauge> {
        match self.resolve(name, labels, help, Kind::Gauge) {
            Metric::Gauge(g) => g,
            _ => unreachable!(),
        }
    }

    /// The histogram `name` with no labels, registering it on first use.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.histogram_with(name, &[], help)
    }

    /// The histogram `name` with the given labels, registering on first use.
    pub fn histogram_with(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
    ) -> Arc<Histogram> {
        match self.resolve(name, labels, help, Kind::Histogram) {
            Metric::Histogram(h) => h,
            _ => unreachable!(),
        }
    }

    /// Renders every family in the Prometheus text exposition format.
    ///
    /// Families render in registration order, series in label order within a
    /// family; histogram series are cumulative `_bucket{le="..."}` lines
    /// (zero-count buckets elided, `+Inf` always present) followed by
    /// `_sum` and `_count`.
    pub fn render(&self) -> String {
        let families = self.families.lock().unwrap();
        let mut out = String::new();
        for fam in families.iter() {
            if !fam.help.is_empty() {
                out.push_str(&format!("# HELP {} {}\n", fam.name, fam.help));
            }
            out.push_str(&format!("# TYPE {} {}\n", fam.name, fam.kind.as_str()));
            for (labels, metric) in &fam.metrics {
                match metric {
                    Metric::Counter(c) => {
                        out.push_str(&format!(
                            "{}{} {}\n",
                            fam.name,
                            label_str(labels, None),
                            c.get()
                        ));
                    }
                    Metric::Gauge(g) => {
                        out.push_str(&format!(
                            "{}{} {}\n",
                            fam.name,
                            label_str(labels, None),
                            render_number(g.get())
                        ));
                    }
                    Metric::Histogram(h) => {
                        let snap = h.snapshot();
                        let bounds = bucket_bounds();
                        let mut cum = 0u64;
                        for (i, &c) in snap.counts.iter().take(bounds.len()).enumerate() {
                            cum += c;
                            if c == 0 {
                                continue;
                            }
                            let le = bounds[i].to_string();
                            out.push_str(&format!(
                                "{}_bucket{} {}\n",
                                fam.name,
                                label_str(labels, Some(&le)),
                                cum
                            ));
                        }
                        out.push_str(&format!(
                            "{}_bucket{} {}\n",
                            fam.name,
                            label_str(labels, Some("+Inf")),
                            snap.count
                        ));
                        out.push_str(&format!(
                            "{}_sum{} {}\n",
                            fam.name,
                            label_str(labels, None),
                            snap.sum
                        ));
                        out.push_str(&format!(
                            "{}_count{} {}\n",
                            fam.name,
                            label_str(labels, None),
                            snap.count
                        ));
                    }
                }
            }
        }
        out
    }

    /// Renders every family as a JSON value: an array of
    /// `{"name","kind","labels",...}` objects. Histograms carry raw
    /// (non-cumulative) per-bucket `[le, count]` pairs plus
    /// `sum`/`count`/`max` and estimated `p50`/`p90`/`p99`, so a JSON
    /// consumer (the bench harness) needs no exposition-text parsing.
    pub fn to_value(&self) -> Value {
        let families = self.families.lock().unwrap();
        let mut out = Vec::new();
        for fam in families.iter() {
            for (labels, metric) in &fam.metrics {
                let label_obj = Value::Obj(
                    labels.iter().map(|(k, v)| (k.clone(), Value::str(v.clone()))).collect(),
                );
                let mut obj = vec![
                    ("name".to_string(), Value::str(fam.name.clone())),
                    ("kind".to_string(), Value::str(fam.kind.as_str())),
                    ("labels".to_string(), label_obj),
                ];
                match metric {
                    Metric::Counter(c) => obj.push(("value".to_string(), Value::int(c.get()))),
                    Metric::Gauge(g) => obj.push(("value".to_string(), Value::Num(g.get()))),
                    Metric::Histogram(h) => {
                        let snap = h.snapshot();
                        let bounds = bucket_bounds();
                        let buckets: Vec<Value> = snap
                            .counts
                            .iter()
                            .enumerate()
                            .filter(|(_, c)| **c > 0)
                            .map(|(i, &c)| {
                                let le = if i < bounds.len() {
                                    Value::int(bounds[i])
                                } else {
                                    Value::str("+Inf")
                                };
                                Value::Arr(vec![le, Value::int(c)])
                            })
                            .collect();
                        obj.push(("buckets".to_string(), Value::Arr(buckets)));
                        obj.push(("sum".to_string(), Value::int(snap.sum)));
                        obj.push(("count".to_string(), Value::int(snap.count)));
                        obj.push(("max".to_string(), Value::int(snap.max)));
                        for (label, q) in [("p50", 0.50), ("p90", 0.90), ("p99", 0.99)] {
                            obj.push((
                                label.to_string(),
                                snap.quantile(q).map(Value::int).unwrap_or(Value::Null),
                            ));
                        }
                    }
                }
                out.push(Value::Obj(obj));
            }
        }
        Value::Arr(out)
    }
}

fn new_metric(kind: Kind) -> Metric {
    match kind {
        Kind::Counter => Metric::Counter(Arc::new(Counter::default())),
        Kind::Gauge => Metric::Gauge(Arc::new(Gauge::default())),
        Kind::Histogram => Metric::Histogram(Arc::new(Histogram::default())),
    }
}

/// Renders `{k="v",...}` (empty string for no labels), with `le` appended
/// last when given — matching Prometheus conventions.
fn label_str(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> =
        labels.iter().map(|(k, v)| format!("{k}=\"{}\"", crate::json::escape(v))).collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

/// Renders a gauge value: integral values without a decimal point.
fn render_number(x: f64) -> String {
    if x.is_finite() && x.fract() == 0.0 && x.abs() < 9.0e15 {
        format!("{}", x as i64)
    } else {
        crate::json::number(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_are_strictly_increasing_and_log_scale() {
        let bounds = bucket_bounds();
        assert!(bounds.len() > 50 && bounds.len() < 200, "got {} buckets", bounds.len());
        assert_eq!(bounds[0], 1);
        assert!(*bounds.last().unwrap() > 3_600_000_000);
        for w in bounds.windows(2) {
            assert!(w[1] > w[0]);
            // Ratio never exceeds 1.25 (+1 quantization at the bottom).
            assert!(w[1] <= w[0] + (w[0] / 4).max(1));
        }
    }

    #[test]
    fn boundary_values_land_in_their_own_bucket() {
        // A value exactly on a boundary lands in that boundary's bucket
        // (boundaries are inclusive upper edges).
        let bounds = bucket_bounds();
        for &b in bounds.iter().take(20) {
            let h = Histogram::default();
            h.record(b);
            let snap = h.snapshot();
            let idx = bounds.iter().position(|&x| x == b).unwrap();
            assert_eq!(snap.counts[idx], 1, "boundary {b} in wrong bucket");
            assert_eq!(snap.count, 1);
            assert_eq!(snap.sum, b);
            assert_eq!(snap.max, b);
        }
        // One above a boundary lands in the next bucket.
        let h = Histogram::default();
        h.record(bounds[5] + 1);
        assert_eq!(h.snapshot().counts[6], 1);
    }

    #[test]
    fn zero_lands_in_first_bucket() {
        let h = Histogram::default();
        h.record(0);
        assert_eq!(h.snapshot().counts[0], 1);
        assert_eq!(h.quantile(0.5), Some(1));
    }

    #[test]
    fn overflow_bucket_saturates() {
        let h = Histogram::default();
        let bounds = bucket_bounds();
        h.record(u64::MAX);
        h.record(*bounds.last().unwrap() + 1);
        let snap = h.snapshot();
        assert_eq!(snap.counts[bounds.len()], 2, "both land in overflow");
        assert_eq!(snap.max, u64::MAX);
        // Quantiles report the last finite boundary for overflow.
        assert_eq!(h.quantile(0.99), Some(*bounds.last().unwrap()));
    }

    #[test]
    fn quantile_relative_error_bound() {
        // For any single recorded value <= the last boundary, the estimated
        // quantile overestimates by at most 25% + 1µs.
        let mut v: u64 = 1;
        while v <= 3_600_000_000 {
            let h = Histogram::default();
            h.record(v);
            let est = h.quantile(0.5).unwrap();
            assert!(est >= v, "estimate {est} below true value {v}");
            assert!(est <= v + v / 4 + 1, "estimate {est} over 25%+1 above true value {v}");
            // Sweep multiplicatively (with +1 at the bottom) to hit every
            // bucket without 3.6e9 iterations.
            v += (v / 7).max(1);
        }
    }

    #[test]
    fn quantile_rank_selection() {
        let h = Histogram::default();
        // 100 observations of 10µs, one of 1_000_000µs.
        for _ in 0..100 {
            h.record(10);
        }
        h.record(1_000_000);
        assert_eq!(h.quantile(0.5), Some(10));
        assert_eq!(h.quantile(0.90), Some(10));
        let p99 = h.quantile(0.999).unwrap();
        assert!((1_000_000..=1_250_001).contains(&p99), "p99.9 = {p99}");
        assert_eq!(h.count(), 101);
        assert_eq!(h.max(), 1_000_000);
    }

    #[test]
    fn snapshot_delta() {
        let h = Histogram::default();
        h.record(5);
        h.record(7);
        let a = h.snapshot();
        h.record(9);
        let b = h.snapshot();
        let d = b.delta_since(&a);
        assert_eq!(d.count, 1);
        assert_eq!(d.sum, 9);
        // 9µs lands in the le="10" bucket (bounds ... 7, 8, 10, 12 ...).
        assert_eq!(d.quantile(0.5), Some(10));
    }

    #[test]
    fn registry_is_idempotent_and_label_order_insensitive() {
        let reg = MetricsRegistry::new();
        let a = reg.counter_with("reqs", &[("op", "run"), ("kind", "x")], "help");
        let b = reg.counter_with("reqs", &[("kind", "x"), ("op", "run")], "help");
        a.inc();
        assert_eq!(b.get(), 1, "same labels must resolve to the same counter");
        let c = reg.counter_with("reqs", &[("op", "check")], "help");
        assert_eq!(c.get(), 0);
    }

    #[test]
    #[should_panic(expected = "registered as both")]
    fn kind_conflict_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("m", "");
        reg.gauge("m", "");
    }

    #[test]
    fn exposition_format_golden() {
        let reg = MetricsRegistry::new();
        reg.counter("ecrpq_requests_total", "Total requests.").add(3);
        reg.counter_with("ecrpq_errors_total", &[("op", "run")], "Errors by op.").inc();
        reg.gauge("ecrpq_queue_depth", "Queued jobs.").set(2.0);
        reg.gauge_with("ecrpq_hit_rate", &[("cache", "registry")], "Hit rate.").set(0.75);
        let h = reg.histogram_with("ecrpq_request_us", &[("op", "run")], "Request latency.");
        h.record(1);
        h.record(3);
        h.record(3);
        let expected = "\
# HELP ecrpq_requests_total Total requests.
# TYPE ecrpq_requests_total counter
ecrpq_requests_total 3
# HELP ecrpq_errors_total Errors by op.
# TYPE ecrpq_errors_total counter
ecrpq_errors_total{op=\"run\"} 1
# HELP ecrpq_queue_depth Queued jobs.
# TYPE ecrpq_queue_depth gauge
ecrpq_queue_depth 2
# HELP ecrpq_hit_rate Hit rate.
# TYPE ecrpq_hit_rate gauge
ecrpq_hit_rate{cache=\"registry\"} 0.75
# HELP ecrpq_request_us Request latency.
# TYPE ecrpq_request_us histogram
ecrpq_request_us_bucket{op=\"run\",le=\"1\"} 1
ecrpq_request_us_bucket{op=\"run\",le=\"3\"} 3
ecrpq_request_us_bucket{op=\"run\",le=\"+Inf\"} 3
ecrpq_request_us_sum{op=\"run\"} 7
ecrpq_request_us_count{op=\"run\"} 3
";
        assert_eq!(reg.render(), expected);
    }

    #[test]
    fn json_rendering_has_quantiles() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat_us", "latency");
        for i in 1..=100 {
            h.record(i);
        }
        let v = reg.to_value();
        let fam = &v.as_arr().unwrap()[0];
        assert_eq!(fam.get("name").and_then(Value::as_str), Some("lat_us"));
        assert_eq!(fam.get("count").and_then(Value::as_u64), Some(100));
        let p50 = fam.get("p50").and_then(Value::as_u64).unwrap();
        assert!((50..=63).contains(&p50), "p50 = {p50}");
    }
}
