//! Order statistics for the benchmark: nearest-rank percentiles,
//! median-of-slices aggregation, span self-times, and quantiles of a
//! histogram delta.

use ecrpq_util::json::Value;
use std::collections::BTreeMap;

/// One timed observation: when it completed (µs from window start), which
/// class of operation it was, and how long it took.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub t_us: u64,
    pub class: &'static str,
    pub us: f64,
    /// `true` for one request/reply; `false` for a composite interval (a
    /// whole cold start) that spans several requests.
    pub is_op: bool,
}

/// Nearest-rank percentile of an unsorted list (`q` in 0..=1); 0 if empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Samples a slice must hold for quantile `q` to be read from it: enough
/// that ten lie beyond the quantile (20 for a median, 1000 for p99).
fn samples_needed(q: f64) -> usize {
    (10.0 / (1.0 - q).max(0.01)).ceil() as usize
}

/// The slice counts tried, widest last: a window is cut into as many equal
/// slices as leave every slice enough samples.
const SLICE_COUNTS: [u64; 4] = [10, 5, 2, 1];

/// Median over equal time slices of the per-slice `q`-quantile, so that one
/// scheduler stall moves one slice and not the reported value. Returns the
/// value and the number of samples behind it.
pub fn sliced_quantile(samples: &[(u64, f64)], window_us: u64, q: f64) -> (f64, usize) {
    let need = samples_needed(q);
    for k in SLICE_COUNTS {
        let mut slices: Vec<Vec<f64>> = vec![Vec::new(); k as usize];
        for &(t, us) in samples {
            let i = (t.min(window_us.saturating_sub(1)) * k / window_us.max(1)) as usize;
            slices[i].push(us);
        }
        if k == 1 || slices.iter().all(|s| s.len() >= need) {
            let per_slice: Vec<f64> = slices.iter().map(|s| percentile(s, q)).collect();
            return (median(&per_slice), samples.len());
        }
    }
    unreachable!("SLICE_COUNTS ends with 1")
}

/// Median over equal time slices of completions per second. Slices are
/// widened until each holds at least 200 completions, so that a slice
/// boundary falling inside one slow operation cannot move the rate.
pub fn sliced_rate(times_us: &[u64], window_us: u64) -> f64 {
    for k in SLICE_COUNTS {
        let mut counts = vec![0u64; k as usize];
        for &t in times_us {
            counts[(t.min(window_us.saturating_sub(1)) * k / window_us.max(1)) as usize] += 1;
        }
        if k == 1 || counts.iter().all(|&c| c >= 200) {
            let slice_s = window_us as f64 / k as f64 / 1e6;
            let rates: Vec<f64> = counts.iter().map(|&c| c as f64 / slice_s).collect();
            return median(&rates);
        }
    }
    unreachable!("SLICE_COUNTS ends with 1")
}

/// Folds one span tree (the `trace` op's `{"name","dur_us","children"}`
/// objects) into `(name, self µs)` pairs: a span's duration minus the part
/// its children cover. Spans named `reach:<var>` fold into `reach`.
pub fn self_times(span: &Value, out: &mut Vec<(String, f64)>) {
    let dur = span.get("dur_us").and_then(Value::as_f64).unwrap_or(0.0);
    let children = span.get("children").and_then(Value::as_arr).unwrap_or(&[]);
    let covered: f64 =
        children.iter().map(|c| c.get("dur_us").and_then(Value::as_f64).unwrap_or(0.0)).sum();
    let name = span.get("name").and_then(Value::as_str).unwrap_or("?");
    let name = name.split(':').next().unwrap_or(name);
    out.push((name.to_string(), (dur - covered).max(0.0)));
    for c in children {
        self_times(c, out);
    }
}

/// `q`-quantile (bucket upper bound, µs) of the samples a histogram gained
/// between two `metrics` replies, each given as `[[le, count], …]` bucket
/// lists (several lists on a side are summed: one per server). Returns the
/// quantile and the number of samples gained.
pub fn histogram_delta_quantile(before: &[Value], after: &[Value], q: f64) -> (f64, u64) {
    // Signed count per bucket bound, keyed by the bound's bits (bounds are
    // non-negative, so their bit patterns sort like their values).
    let mut gained: BTreeMap<u64, i64> = BTreeMap::new();
    for (side, sign) in [(after, 1), (before, -1)] {
        for pair in side.iter().filter_map(Value::as_arr) {
            let le = pair.first().and_then(Value::as_f64).unwrap_or(f64::INFINITY);
            let count = pair.get(1).and_then(Value::as_u64).unwrap_or(0) as i64;
            *gained.entry(le.to_bits()).or_default() += sign * count;
        }
    }
    let total: i64 = gained.values().sum();
    let mut seen = 0;
    for (le, count) in &gained {
        seen += count;
        if total > 0 && seen as f64 >= q * total as f64 {
            return (f64::from_bits(*le), total as u64);
        }
    }
    (0.0, total.max(0) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecrpq_util::json::parse;

    #[test]
    fn percentile_is_nearest_rank_on_known_lists() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0, 1.0, 3.0], 0.5), 3.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[4.0, 2.0]), 2.0);
    }

    #[test]
    fn median_of_slices_ignores_one_stalled_slice() {
        // Ten slices of ten samples at 100 µs; slice 3 stalls at 9000 µs.
        let mut s = Vec::new();
        for slice in 0..10u64 {
            for i in 0..10u64 {
                s.push((slice * 1000 + i * 100, if slice == 3 { 9000.0 } else { 100.0 }));
            }
        }
        assert_eq!(sliced_quantile(&s, 10_000, 0.5), (100.0, 100));
        // The plain median agrees here, but the plain mean would not.
        // Too few samples for ten slices of p99: falls back to one slice.
        let (p99, n) = sliced_quantile(&s, 10_000, 0.99);
        assert_eq!((p99, n), (9000.0, 100));
    }

    #[test]
    fn slices_widen_until_each_has_enough_samples() {
        // 12 samples, all in the first half: every cut leaves a slice short
        // of 20 samples, so the whole window is one slice.
        let s: Vec<(u64, f64)> = (0..12).map(|i| (i * 10, i as f64)).collect();
        assert_eq!(sliced_quantile(&s, 1000, 0.5), (5.0, 12));
        // 60 samples spread evenly support two slices of 30 but not five of
        // 12: the halves' medians are 9 and 1, whose nearest-rank median is
        // 1, where one slice over all 60 would have read 5.
        let s: Vec<(u64, f64)> = (0..60)
            .map(|i| {
                (
                    i * 16,
                    if i < 30 {
                        9.0
                    } else if i < 50 {
                        1.0
                    } else {
                        5.0
                    },
                )
            })
            .collect();
        assert_eq!(sliced_quantile(&s, 960, 0.5), (1.0, 60));
    }

    #[test]
    fn rate_is_per_second_and_survives_a_stall() {
        // 1000 completions per 0.1 s slice, except one slice that stalls.
        let mut t = Vec::new();
        for slice in 0..10u64 {
            let n = if slice == 6 { 300 } else { 1000 };
            t.extend((0..n).map(|i| slice * 100_000 + i * 100_000 / n));
        }
        assert_eq!(sliced_rate(&t, 1_000_000), 10_000.0);
        // Sparse completions fall back to the whole window.
        assert_eq!(sliced_rate(&[10, 20, 900_000], 1_000_000), 3.0);
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let tree = parse(
            r#"{"name":"request","dur_us":100,"children":[
                {"name":"resolve","dur_us":10},
                {"name":"run","dur_us":70,"children":[
                    {"name":"plan","dur_us":5},
                    {"name":"reach:p1","dur_us":20},
                    {"name":"reach:p2","dur_us":15},
                    {"name":"search","dur_us":25}]},
                {"name":"render","dur_us":15}]}"#,
        )
        .unwrap();
        let mut out = Vec::new();
        self_times(&tree, &mut out);
        let get = |n: &str| -> f64 { out.iter().filter(|(k, _)| k == n).map(|(_, v)| v).sum() };
        assert_eq!(get("request"), 5.0);
        assert_eq!(get("run"), 5.0);
        assert_eq!(get("reach"), 35.0);
        assert_eq!(get("render"), 15.0);
        let total: f64 = out.iter().map(|(_, v)| v).sum();
        assert_eq!(total, 100.0, "self times partition the root span");
    }

    #[test]
    fn histogram_delta_reads_only_the_gained_samples() {
        let before = parse("[[10,5],[20,5]]").unwrap();
        let after = parse("[[10,5],[20,15],[40,90]]").unwrap();
        let (b, a) = (before.as_arr().unwrap(), after.as_arr().unwrap());
        assert_eq!(histogram_delta_quantile(b, a, 0.05), (20.0, 100));
        assert_eq!(histogram_delta_quantile(b, a, 0.5), (40.0, 100));
        assert_eq!(histogram_delta_quantile(a, a, 0.5), (0.0, 0));
        // Two servers' lists on one side are summed bucket by bucket.
        let two = parse("[[40,1],[10,1],[10,8]]").unwrap();
        assert_eq!(histogram_delta_quantile(&[], two.as_arr().unwrap(), 0.5), (10.0, 10));
        assert_eq!(histogram_delta_quantile(&[], two.as_arr().unwrap(), 0.99), (40.0, 10));
    }
}
