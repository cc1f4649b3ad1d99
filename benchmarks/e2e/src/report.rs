//! Results: the `BENCHMARK.json` contract, the result line and file, and
//! `agree`, which compares two result files against the declared bounds.

use crate::workloads::Metric;
use ecrpq_util::json::{self, Value};

const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

/// One declared metric of `BENCHMARK.json`.
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline by which the metric may worsen (end-to-end only).
    pub bound: Option<f64>,
}

pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

impl Spec {
    pub fn load() -> Spec {
        let v = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
        let text = |m: &Value, k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
        let list = |key: &str| -> Vec<Declared> {
            let items = v.get(key).and_then(Value::as_arr).unwrap_or(&[]);
            items
                .iter()
                .map(|m| Declared {
                    name: text(m, "name"),
                    unit: text(m, "unit"),
                    higher_is_better: text(m, "better") == "higher",
                    bound: m.get("bound").and_then(Value::as_f64),
                })
                .collect()
        };
        let workloads = v.get("workloads").and_then(Value::as_arr).unwrap_or(&[]);
        Spec {
            run_seconds: v.get("run_seconds").and_then(Value::as_f64).unwrap_or(10.0),
            workloads: workloads.iter().map(|w| text(w, "name")).collect(),
            end_to_end: list("end_to_end"),
            per_layer: list("per_layer"),
        }
    }

    fn unit(&self, name: &str) -> &str {
        let all = self.end_to_end.iter().chain(&self.per_layer);
        all.into_iter().find(|d| d.name == name).map_or("", |d| d.unit.as_str())
    }
}

/// One pass of one workload, as reported.
pub struct RunResult {
    pub workload: &'static str,
    pub trace: u8,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Plain median round trip (µs) and sample count of every class of
    /// operation the window saw: context for the metrics, not metrics.
    pub classes: Vec<(&'static str, f64, usize)>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    fn metrics_value(&self, spec: &Spec, with_n: bool) -> Value {
        Value::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    let mut pairs = vec![
                        ("value".to_string(), Value::Num(m.value)),
                        ("unit".to_string(), Value::str(spec.unit(m.name))),
                    ];
                    if with_n {
                        pairs.push(("n".to_string(), Value::int(m.n as u64)));
                    }
                    (m.name.to_string(), Value::Obj(pairs))
                })
                .collect(),
        )
    }

    /// The one-line result the driver reads: exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn contract_line(&self, spec: &Spec) -> String {
        Value::obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::int(self.attempted.max(1))),
            ("failed", Value::int(self.failed)),
            ("metrics", self.metrics_value(spec, false)),
        ])
        .to_string()
    }

    fn to_value(&self, spec: &Spec) -> Value {
        Value::obj([
            ("workload", Value::str(self.workload)),
            ("trace", Value::int(u64::from(self.trace))),
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::int(self.attempted)),
            ("failed", Value::int(self.failed)),
            ("fail_ratio", Value::Num(self.failed as f64 / self.attempted.max(1) as f64)),
            ("errors", Value::Arr(self.errors.iter().map(|e| Value::str(e.as_str())).collect())),
            ("metrics", self.metrics_value(spec, true)),
            (
                "classes",
                Value::Obj(
                    self.classes
                        .iter()
                        .map(|&(class, p50, n)| {
                            let cell = [("p50_us", Value::Num(p50)), ("n", Value::int(n as u64))];
                            (class.to_string(), Value::obj(cell))
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Every metric by name, with its unit and the samples behind it.
    pub fn print_table(&self, spec: &Spec) {
        let kind = if self.trace == 0 { "end-to-end" } else { "per-layer" };
        println!(
            "== {} ({kind}): {} operations, {} failed",
            self.workload, self.attempted, self.failed
        );
        for m in &self.metrics {
            println!(
                "{:<14} {:<32} {:>16.3} {:<8} n={}",
                self.workload,
                m.name,
                m.value,
                spec.unit(m.name),
                m.n
            );
        }
        for (class, p50, n) in &self.classes {
            println!("{:<14} class {class:<26} {p50:>16.3} us       n={n}", self.workload);
        }
        for e in &self.errors {
            println!("{:<14} FAILED: {e}", self.workload);
        }
    }
}

/// The result file: every pass of a full run, with the machine it ran on.
pub fn result_document(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    meta: Value,
    runs: &[RunResult],
) -> String {
    Value::obj([
        ("meta", meta),
        ("seed", Value::int(seed)),
        ("seconds", Value::Num(seconds)),
        ("runs", Value::Arr(runs.iter().map(|r| r.to_value(spec)).collect())),
    ])
    .to_string()
}

/// Compares the end-to-end metrics of two result documents workload by
/// workload. Two runs agree on a metric when neither is worse than the
/// other by more than the metric's bound. Returns the report and whether
/// every pairing agreed.
pub fn agree(spec: &Spec, a: &str, b: &str) -> Result<(String, bool), String> {
    let (a, b) = (json::parse(a)?, json::parse(b)?);
    let runs = |doc: &Value| -> Vec<Value> {
        let all = doc.get("runs").and_then(Value::as_arr).unwrap_or(&[]);
        all.iter().filter(|r| r.get("trace").and_then(Value::as_u64) == Some(0)).cloned().collect()
    };
    let value = |run: &Value, metric: &str| {
        run.get("metrics")
            .and_then(|m| m.get(metric))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64)
    };
    let mut out = format!(
        "{:<12} {:<12} {:>14} {:>14} {:>8} {:>6}  verdict\n",
        "workload", "metric", "A", "B", "diff", "bound"
    );
    let (mut all_agree, mut compared) = (true, 0);
    for ra in runs(&a) {
        let name = ra.get("workload").and_then(Value::as_str).unwrap_or("?").to_string();
        let rb =
            runs(&b).into_iter().find(|r| r.get("workload").and_then(Value::as_str) == Some(&name));
        let Some(rb) = rb else {
            return Err(format!("workload `{name}` is missing from the second file"));
        };
        for d in &spec.end_to_end {
            let (Some(va), Some(vb)) = (value(&ra, &d.name), value(&rb, &d.name)) else {
                return Err(format!("`{}` of `{name}` is missing from a file", d.name));
            };
            let bound = d.bound.unwrap_or(0.0);
            let diff = (vb - va) / va.abs().max(f64::MIN_POSITIVE);
            // Worse-by ratios in both directions: B against A, and A against B.
            let worse = |from: f64, to: f64| {
                let rel = (to - from) / from.abs().max(f64::MIN_POSITIVE);
                if d.higher_is_better {
                    -rel
                } else {
                    rel
                }
            };
            let ok = worse(va, vb) <= bound && worse(vb, va) <= bound;
            let failed = |r: &Value| r.get("failed").and_then(Value::as_u64).unwrap_or(1) > 0;
            let ok = ok && !failed(&ra) && !failed(&rb);
            all_agree &= ok;
            compared += 1;
            out.push_str(&format!(
                "{name:<12} {:<12} {va:>14.3} {vb:>14.3} {:>+7.1}% {:>5.0}%  {}\n",
                d.name,
                diff * 100.0,
                bound * 100.0,
                if ok { "agree" } else { "DISAGREE" }
            ));
        }
    }
    if compared == 0 {
        return Err("the files hold no end-to-end runs to compare".into());
    }
    Ok((out, all_agree))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Workload;
    use crate::traced::LAYER_METRICS;
    use crate::workloads::metric;

    const END_TO_END: [&str; 6] =
        ["setup_s", "ops_per_s", "lat1_us", "lat2_us", "lat3_us", "peak_rss_mb"];

    #[test]
    fn benchmark_json_and_the_code_name_the_same_things() {
        let spec = Spec::load();
        let names = |d: &[Declared]| d.iter().map(|m| m.name.clone()).collect::<Vec<_>>();
        assert_eq!(names(&spec.end_to_end), END_TO_END);
        assert_eq!(names(&spec.per_layer), LAYER_METRICS);
        assert_eq!(spec.workloads, Workload::ALL.map(|w| w.name()));
        let legal = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        for d in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(legal(&d.name), "illegal metric name `{}`", d.name);
            assert!(!d.unit.is_empty() && d.unit.len() <= 16, "bad unit for `{}`", d.name);
        }
        for d in &spec.end_to_end {
            let bound = d.bound.expect("every end-to-end metric has a bound");
            assert!((0.0..=0.25).contains(&bound), "bound of `{}` out of range", d.name);
        }
        assert!(spec.workloads.iter().all(|w| legal(w)));
        assert!((1.0..=60.0).contains(&spec.run_seconds) && spec.run_seconds.fract() == 0.0);
    }

    fn result(values: [f64; 6], failed: u64) -> RunResult {
        RunResult {
            workload: "serve_point",
            trace: 0,
            attempted: 1000,
            failed,
            errors: Vec::new(),
            metrics: END_TO_END.iter().zip(values).map(|(n, v)| metric(n, v, 10)).collect(),
            classes: vec![("nodes", 18.0, 500)],
        }
    }

    #[test]
    fn result_json_round_trips_through_the_repo_parser() {
        let spec = Spec::load();
        let r = result([0.8127, 41234.5, 18.25, 85.125, 140.5, 6.02], 0);
        let line = json::parse(&r.contract_line(&spec)).unwrap();
        let Value::Obj(keys) = &line else { panic!("result line is not an object") };
        let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
        let lat = line.get("metrics").unwrap().get("lat2_us").unwrap();
        assert_eq!(lat.get("value").and_then(Value::as_f64), Some(85.125));
        assert_eq!(lat.get("unit").and_then(Value::as_str), Some("us"));

        let doc = result_document(&spec, 42, 20.0, Value::Null, &[r]);
        let back = json::parse(&doc).unwrap();
        let run = &back.get("runs").unwrap().as_arr().unwrap()[0];
        assert_eq!(
            run.get("metrics").unwrap().get("setup_s").unwrap().get("n"),
            Some(&Value::int(10))
        );
        assert_eq!(run.get("fail_ratio").and_then(Value::as_f64), Some(0.0));
    }

    #[test]
    fn agree_applies_each_bound_in_the_metric_direction() {
        let spec = Spec::load();
        let doc = |r: RunResult| result_document(&spec, 42, 20.0, Value::Null, &[r]);
        let base = [1.0, 40000.0, 20.0, 80.0, 150.0, 6.0];
        let a = doc(result(base, 0));
        let (report, ok) = agree(&spec, &a, &a).unwrap();
        assert!(ok && report.contains("agree") && !report.contains("DISAGREE"));
        // Throughput down by a third is out of any bound; latency likewise.
        for (i, factor) in [(1, 0.66), (2, 1.5)] {
            let mut worse = base;
            worse[i] *= factor;
            let (report, ok) = agree(&spec, &a, &doc(result(worse, 0))).unwrap();
            assert!(!ok && report.contains("DISAGREE"), "{report}");
            let (_, ok) = agree(&spec, &doc(result(worse, 0)), &a).unwrap();
            assert!(!ok, "agreement is symmetric");
        }
        let (_, ok) = agree(&spec, &a, &doc(result(base, 1))).unwrap();
        assert!(!ok, "a run with failed operations agrees with nothing");
        assert!(agree(&spec, &a, r#"{"runs":[]}"#).is_err());
    }
}
