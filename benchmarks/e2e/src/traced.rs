//! The traced pass: attributes time to each layer, from three sources.
//!
//! * `wire` — the server's own counters (`stats`, `metrics`) around an
//!   untraced window, and fields of the replies read in it;
//! * `span` — the server's `trace` op, replayed over every warm statement
//!   and folded into per-span self times;
//! * `call` — public functions of each crate, timed in-process on the same
//!   generated inputs, recorded as `ecrpq_util::trace` spans.
//!
//! Counts and call times are totals over **one pass of the workload's
//! statement set** (each statement once), so that they do not depend on how
//! many requests a window happened to fit. Nothing here feeds an
//! end-to-end metric.

use crate::gen::{Inputs, Workload};
use crate::server::Conn;
use crate::stats::{histogram_delta_quantile, median, self_times};
use crate::verify;
use crate::workloads::{metric, start_prepared, Ctx, Metric, Pass};
use ecrpq::eval::{BoundStatement, PreparedQuery};
use ecrpq::{parse_query, persist, EvalConfig, Trace};
use ecrpq_graph::{snapshot, GraphDb};
use ecrpq_util::json::{self, Value};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every per-layer metric, in `BENCHMARK.json` order.
pub const LAYER_METRICS: [&str; 52] = [
    "util_json.parse_request_us",
    "util_json.render_reply_us",
    "server.transport_us",
    "server.request_us_p50",
    "server.request_us_p99",
    "server.request_bytes",
    "server.reply_bytes",
    "server.rejected",
    "server.errors",
    "catalog.hits",
    "catalog.misses",
    "registry.resolve_us",
    "registry.hits",
    "registry.misses",
    "registry.evictions",
    "registry.hit_ratio",
    "protocol.render_us",
    "protocol.request_self_us",
    "core_parse.parse_query_us",
    "core_prepared.prepare_us",
    "core_prepared.warm_full_us",
    "core_prepared.bind_us",
    "core_prepared.run_us",
    "core_plan.plan_us",
    "core_plan.reach_us",
    "core_plan.reach_pairs",
    "core_plan.est_ratio",
    "core_eval.run_self_us",
    "automata_sim.compile_us",
    "automata_sim.cache_hits",
    "automata_sim.cache_misses",
    "core_search.search_us",
    "core_search.states",
    "core_search.candidates",
    "core_search.verified",
    "core_search.verified_ratio",
    "core_answers.rows",
    "live.overlay_write_us",
    "live.merge_write_us",
    "live.merges",
    "live.pending_max",
    "live.maintained",
    "live.dirty_run_us",
    "live.clean_run_us",
    "graph.load_edge_list_us",
    "graph.stats_us",
    "graph_snapshot.save_us",
    "graph_snapshot.open_us",
    "graph_snapshot.bytes_per_edge",
    "core_persist.sidecar_us",
    "bench.trace_overhead_pct",
    "bench.client_self_us",
];

/// What the traced pass found, beyond the metrics: the per-class span
/// table and the bench-side spans, written to `trace_<workload>.json`.
pub struct Traced {
    pub metrics: Vec<Metric>,
    pub detail: Value,
    /// Human-readable "where a warm run spends its time" rows.
    pub table: Vec<String>,
}

struct Sink {
    values: BTreeMap<&'static str, (f64, usize)>,
}

impl Sink {
    fn set(&mut self, name: &'static str, value: f64, n: usize) {
        assert!(LAYER_METRICS.contains(&name), "`{name}` is not a declared per-layer metric");
        self.values.insert(name, (value, n));
    }

    fn add(&mut self, name: &'static str, value: f64, n: usize) {
        let (v, count) = self.values.get(name).copied().unwrap_or((0.0, 0));
        self.set(name, v + value, count + n);
    }
}

fn num(v: &Value, path: &[&str]) -> f64 {
    path.iter().try_fold(v, |v, k| v.get(k)).and_then(Value::as_f64).unwrap_or(0.0)
}

/// The bucket list of `ecrpq_request_us{op="run"}` in a `metrics` reply.
fn run_histogram(metrics: &Value) -> &[Value] {
    let families = metrics.get("metrics").and_then(Value::as_arr).unwrap_or(&[]);
    families
        .iter()
        .find(|m| {
            m.get("name").and_then(Value::as_str) == Some("ecrpq_request_us")
                && m.get("labels").and_then(|l| l.get("op")).and_then(Value::as_str) == Some("run")
        })
        .and_then(|m| m.get("buckets"))
        .and_then(Value::as_arr)
        .unwrap_or(&[])
}

/// Source `wire`: counter deltas and reply fields of the untraced window.
fn wire_layer(w: Workload, pass: &Pass, sink: &mut Sink) {
    let rec = &pass.rec;
    let total = |side: &[(Value, Value)], path: &[&str]| -> f64 {
        side.iter().map(|(stats, _)| num(stats, path)).sum()
    };
    let delta = |path: &[&str]| total(&pass.wire.after, path) - total(&pass.wire.before, path);
    let windows = pass.wire.after.len().max(1);
    sink.set("server.rejected", delta(&["admission", "rejected"]), windows);
    sink.set("server.errors", delta(&["errors"]), windows);
    sink.set("catalog.hits", delta(&["catalog", "hits"]), windows);
    sink.set("catalog.misses", delta(&["catalog", "misses"]), windows);
    let (hits, misses) = (delta(&["registry", "hits"]), delta(&["registry", "misses"]));
    sink.set("registry.hits", hits, windows);
    sink.set("registry.misses", misses, windows);
    sink.set("registry.evictions", delta(&["registry", "evictions"]), windows);
    sink.set("registry.hit_ratio", hits / (hits + misses).max(1.0), (hits + misses) as usize);

    // Server-side `run` latency over the same window. The histogram's
    // buckets grow by 25 %, so these overestimate by up to that much, and
    // `server.transport_us` can come out negative.
    let merged = |side: &[(Value, Value)]| -> Vec<Value> {
        side.iter().flat_map(|(_, m)| run_histogram(m).to_vec()).collect()
    };
    let (before, after) = (merged(&pass.wire.before), merged(&pass.wire.after));
    let (p50, n) = histogram_delta_quantile(&before, &after, 0.5);
    let (p99, _) = histogram_delta_quantile(&before, &after, 0.99);
    sink.set("server.request_us_p50", p50, n as usize);
    sink.set("server.request_us_p99", p99, n as usize);
    let run_classes: &[&str] = match w {
        Workload::ServePoint => &["nodes", "bool"],
        Workload::ServeEval => &["reach", "search", "wide"],
        Workload::ServeRw => &["read", "read_dirty", "read_clean"],
        Workload::ColdStart => &["run_cold", "run_open"],
    };
    let client: Vec<f64> = rec.class_samples(run_classes).iter().map(|s| s.1).collect();
    sink.set("server.transport_us", median(&client) - p50, client.len());

    let ops = rec.attempted.max(1) as f64;
    sink.set("server.request_bytes", rec.bytes_out as f64 / ops, rec.attempted as usize);
    sink.set("server.reply_bytes", rec.bytes_in as f64 / ops, rec.attempted as usize);
    sink.set("automata_sim.cache_hits", rec.sim_cache_hits as f64, rec.attempted as usize);
    sink.set("automata_sim.cache_misses", rec.sim_cache_misses as f64, rec.attempted as usize);
    sink.set(
        "bench.client_self_us",
        rec.client_self.as_secs_f64() * 1e6 / ops,
        rec.attempted as usize,
    );

    // Exact engine counts, one pass over the statement set.
    let digests: Vec<_> =
        pass.inputs.stmts.iter().filter_map(|s| pass.expected.get(&s.name)).collect();
    let sum = |f: fn(&verify::Digest) -> u64| digests.iter().map(|d| f(d)).sum::<u64>() as f64;
    let (candidates, verified) = (sum(|d| d.candidates), sum(|d| d.verified));
    sink.set("core_search.states", sum(|d| d.search_states), digests.len());
    sink.set("core_search.candidates", candidates, digests.len());
    sink.set("core_search.verified", verified, digests.len());
    sink.set("core_search.verified_ratio", verified / candidates.max(1.0), digests.len());
    let rows = pass.inputs.stmts.iter().zip(&digests).filter(|(s, _)| s.mode == "nodes");
    sink.set("core_answers.rows", rows.map(|(_, d)| d.answer).sum::<u64>() as f64, digests.len());

    let p50 = |classes: &[&str]| {
        let v: Vec<f64> = rec.class_samples(classes).iter().map(|s| s.1).collect();
        (median(&v), v.len())
    };
    for (name, class) in [
        ("live.overlay_write_us", "write_overlay"),
        ("live.merge_write_us", "write_merge"),
        ("live.dirty_run_us", "read_dirty"),
        ("live.clean_run_us", "read_clean"),
    ] {
        let (v, n) = p50(&[class]);
        sink.set(name, v, n);
    }
    sink.set("live.merges", pass.live.merges as f64, 1);
    sink.set("live.pending_max", pass.live.pending_max as f64, 1);
    sink.set("live.maintained", pass.live.maintained as f64, 1);
}

/// Span names in display order; each names the metric its self time feeds.
const SPANS: [(&str, &str); 8] = [
    ("request", "protocol.request_self_us"),
    ("resolve", "registry.resolve_us"),
    ("run", "core_eval.run_self_us"),
    ("plan", "core_plan.plan_us"),
    ("reach", "core_plan.reach_us"),
    ("compile", "automata_sim.compile_us"),
    ("search", "core_search.search_us"),
    ("render", "protocol.render_us"),
];

/// Source `span`: replays every statement through `trace` and `run`
/// alternately until each has `ROUNDS` warm traces or `budget` runs out, and
/// folds the span trees into mean self time per span name and class. The
/// first round is kept apart: on a fresh server it is the one that binds
/// and compiles, so it feeds the compile time and not the warm means.
fn span_layer(
    ctx: &Ctx,
    inputs: &Inputs,
    conn: &mut Conn,
    budget: Duration,
    sink: &mut Sink,
) -> Result<(Value, Vec<String>), String> {
    const ROUNDS: usize = 200;
    let began = Instant::now();
    let n = inputs.stmts.len();
    // Per statement: total self time per span name over all its traces (a
    // trace may hold several spans of one name, e.g. two `reach`).
    let mut self_us: Vec<BTreeMap<String, f64>> = vec![BTreeMap::new(); n];
    let mut recorded: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut rtt: Vec<[Vec<f64>; 2]> = vec![[Vec::new(), Vec::new()]; n];
    let (mut pairs, mut est_pairs) = (0.0, 0.0);
    let mut first_compile_us = 0.0;
    let lines: Vec<[String; 2]> = inputs
        .stmts
        .iter()
        .map(|s| [s.request_line("trace", ctx.nproc), s.request_line("run", ctx.nproc)])
        .collect();
    let (mut rounds, mut first) = (0, true);
    while rounds < ROUNDS && (rounds < 20 || began.elapsed() < budget) {
        for i in 0..n {
            for (k, op) in ["trace", "run"].into_iter().enumerate() {
                let (reply, took) = conn.request(&lines[i][k])?;
                if !first {
                    rtt[i][k].push(took.as_nanos() as f64 / 1e3);
                }
                if op == "run" {
                    continue;
                }
                let v = verify::parse_ok(reply)?;
                let trace = v.get("trace").ok_or("trace reply lacks `trace`")?;
                let mut flat = Vec::new();
                for root in trace.get("spans").and_then(Value::as_arr).unwrap_or(&[]) {
                    self_times(root, &mut flat);
                    if first {
                        collect_reach(root, &mut pairs, &mut est_pairs);
                    }
                }
                if first {
                    first_compile_us += flat
                        .iter()
                        .filter(|(name, _)| name == "compile")
                        .map(|(_, us)| us)
                        .sum::<f64>();
                    continue;
                }
                recorded[i].push(num(trace, &["server_latency_us"]));
                for (name, us) in flat {
                    *self_us[i].entry(name).or_default() += us;
                }
            }
        }
        rounds += usize::from(!first);
        first = false;
    }

    // Mean self time per trace of each statement, then summed over one pass.
    let mean = |v: &Vec<f64>| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let span_mean = |i: usize, span: &str| self_us[i].get(span).map_or(0.0, |t| t / rounds as f64);
    for (span, metric_name) in SPANS {
        sink.set(metric_name, (0..n).map(|i| span_mean(i, span)).sum(), rounds * n);
    }
    sink.set("automata_sim.compile_us", first_compile_us, n);
    sink.set("core_plan.reach_pairs", pairs, n);
    sink.set("core_plan.est_ratio", est_pairs / pairs.max(1.0), n);
    let total = |k: usize| rtt.iter().map(|r| median(&r[k])).sum::<f64>();
    sink.set("bench.trace_overhead_pct", (total(0) - total(1)) / total(1) * 100.0, rounds * n);

    // Per class: self-time shares, and how much of the recorded request
    // span the phases account for.
    let mut classes: Vec<&'static str> = Vec::new();
    for s in &inputs.stmts {
        if !classes.contains(&s.class) {
            classes.push(s.class);
        }
    }
    let mut table = Vec::new();
    let mut detail = Vec::new();
    for class in classes {
        let members: Vec<usize> = (0..n).filter(|&i| inputs.stmts[i].class == class).collect();
        let avg = |f: &dyn Fn(usize) -> f64| {
            members.iter().map(|&i| f(i)).sum::<f64>() / members.len() as f64
        };
        let request = avg(&|i| mean(&recorded[i]));
        let mut cells = Vec::new();
        let mut accounted = 0.0;
        let mut row = format!("{class:<8} request {request:>10.1} us |");
        for (span, _) in SPANS {
            let us = avg(&|i| span_mean(i, span));
            accounted += us;
            row.push_str(&format!(" {span} {us:.1} ({:.0}%)", us / request.max(1e-9) * 100.0));
            cells.push((span.to_string(), Value::Num(us)));
        }
        let client_run = avg(&|i| median(&rtt[i][1]));
        row.push_str(&format!(
            " | sum {:.0}% | client run p50 {client_run:.1} us",
            accounted / request.max(1e-9) * 100.0
        ));
        table.push(row);
        if (accounted - request).abs() > 0.1 * request {
            return Err(format!(
                "`{class}`: span self times sum to {accounted:.1} us of a {request:.1} us request"
            ));
        }
        detail.push(Value::obj([
            ("class", Value::str(class)),
            ("request_us", Value::Num(request)),
            ("client_run_p50_us", Value::Num(client_run)),
            ("client_trace_p50_us", Value::Num(avg(&|i| median(&rtt[i][0])))),
            ("traces", Value::int((rounds * members.len()) as u64)),
            ("self_us", Value::Obj(cells)),
        ]));
    }
    Ok((Value::Arr(detail), table))
}

/// Sums the actual and estimated pair counts of every `reach:*` span.
fn collect_reach(span: &Value, pairs: &mut f64, est: &mut f64) {
    if span.get("name").and_then(Value::as_str).is_some_and(|n| n.starts_with("reach:")) {
        *pairs += num(span, &["attrs", "pairs"]);
        *est += num(span, &["attrs", "est_pairs"]);
    }
    for c in span.get("children").and_then(Value::as_arr).unwrap_or(&[]) {
        collect_reach(c, pairs, est);
    }
}

/// Times `f` `reps` times as child spans named `name`; adds the median
/// duration (µs) to the metric and returns the last result.
fn call<T>(
    trace: &mut Trace,
    sink: &mut Sink,
    metric_name: &'static str,
    reps: usize,
    mut f: impl FnMut() -> T,
) -> T {
    let mut took = Vec::new();
    let mut out = None;
    for _ in 0..reps.max(1) {
        let idx = trace.begin(metric_name);
        out = Some(std::hint::black_box(f()));
        trace.end(idx);
        took.push(trace.spans[idx].dur_ns as f64 / 1e3);
    }
    sink.add(metric_name, median(&took), took.len());
    out.expect("reps is at least one")
}

/// Source `call`: the documented parse → prepare → bind → run pipeline and
/// the storage entry points, in-process and single-threaded, on the same
/// inputs the server was given. One span tree per graph.
fn call_layer(
    ctx: &Ctx,
    inputs: &Inputs,
    replies: &[String],
    sink: &mut Sink,
) -> Result<Trace, String> {
    const CHEAP: usize = 9;
    let cfg = EvalConfig::default();
    let mut trace = Trace::new();
    let mut stored_bytes = 0;
    for (gi, g) in inputs.graphs.iter().enumerate() {
        let root = trace.begin("pipeline");
        trace.attr(root, "request_id", gi as u64);
        let db = call(&mut trace, sink, "graph.load_edge_list_us", 1, || {
            GraphDb::from_edge_list(&g.edges)
        })?;
        call(&mut trace, sink, "graph.stats_us", 1, || db.stats());
        let db = Arc::new(db);
        let mut bound = Vec::new();
        for (si, s) in inputs.stmts.iter().enumerate().filter(|(_, s)| s.graph == g.name) {
            let line = s.request_line("run", ctx.nproc);
            call(&mut trace, sink, "util_json.parse_request_us", CHEAP, || json::parse(&line))
                .map_err(|e| e.to_string())?;
            let q = call(&mut trace, sink, "core_parse.parse_query_us", 1, || {
                parse_query(&s.query, db.alphabet())
            })
            .map_err(|e| e.to_string())?;
            let pq = call(&mut trace, sink, "core_prepared.prepare_us", 1, || {
                PreparedQuery::prepare(&q)
            })
            .map_err(|e| e.to_string())?;
            call(&mut trace, sink, "core_prepared.warm_full_us", 1, || pq.warm_full());
            let pq = Arc::new(pq);
            let stmt = call(&mut trace, sink, "core_prepared.bind_us", 1, || {
                BoundStatement::bind(Arc::clone(&pq), Arc::clone(&db))
            })
            .map_err(|e| e.to_string())?;
            // One un-timed run first: `run_us` is the warm cost.
            let reps = if s.class == "wide" || s.class == "search" { 3 } else { CHEAP };
            if s.mode == "boolean" {
                stmt.run_boolean(&cfg).map_err(|e| e.to_string())?;
                call(&mut trace, sink, "core_prepared.run_us", reps, || {
                    stmt.run_boolean(&cfg).map(|r| r.0)
                })
                .map_err(|e| e.to_string())?;
            } else {
                stmt.run_nodes(&cfg).map_err(|e| e.to_string())?;
                call(&mut trace, sink, "core_prepared.run_us", reps, || {
                    stmt.run_nodes(&cfg).map(|r| r.0.len())
                })
                .map_err(|e| e.to_string())?;
            }
            if let Some(reply) = replies.get(si) {
                let value = json::parse(reply)?;
                call(&mut trace, sink, "util_json.render_reply_us", 3, || value.to_string().len());
            }
            bound.push((s, stmt));
        }

        let snap = ctx.tmp.join(format!("call-{}.snap", g.name));
        call(&mut trace, sink, "graph_snapshot.save_us", 1, || snapshot::save(&db, &snap))
            .map_err(|e| e.to_string())?;
        let (reopened, id) =
            call(&mut trace, sink, "graph_snapshot.open_us", 1, || snapshot::open(&snap))
                .map_err(|e| e.to_string())?;
        let reopened = Arc::new(reopened);
        let entries: Vec<persist::SidecarStatement<'_>> = bound
            .iter()
            .map(|(s, stmt)| persist::SidecarStatement { name: &s.name, text: &s.query, stmt })
            .collect();
        let art = call(&mut trace, sink, "core_persist.sidecar_us", 1, || {
            persist::write_sidecar(id, &entries)
        });
        let warm = call(&mut trace, sink, "core_persist.sidecar_us", 1, || {
            persist::read_sidecar(&art, id, &reopened)
        })
        .map_err(|e| e.to_string())?;
        if warm.len() != bound.len() {
            return Err("the sidecar lost a statement".into());
        }
        stored_bytes += std::fs::metadata(&snap).map_or(0, |m| m.len()) + art.len() as u64;
        trace.end(root);
    }
    let edges: usize = inputs.graphs.iter().map(|g| g.num_edges).sum();
    sink.set(
        "graph_snapshot.bytes_per_edge",
        stored_bytes as f64 / edges as f64,
        inputs.graphs.len(),
    );
    Ok(trace)
}

/// The traced pass of one workload. `pass` is an untraced window run with
/// wire snapshots; the replays use its warm server (or, for `cold_start`, a
/// fresh one, so that the first trace of each statement compiles).
pub fn layers(ctx: &Ctx, w: Workload, pass: &mut Pass, budget: Duration) -> Result<Traced, String> {
    let mut sink = Sink { values: BTreeMap::new() };
    wire_layer(w, pass, &mut sink);

    let mut fresh = None;
    let conn = match &mut pass.warm {
        Some(warm) => &mut warm.conns[0],
        None => &mut fresh.insert(start_prepared(ctx, &pass.inputs)?).1,
    };
    let mut detail = vec![("workload", Value::str(w.name()))];
    let mut table = Vec::new();
    // `trace` on a graph with pending writes forces a merge, which would
    // change what `serve_rw` measures: that workload has no span source.
    if w != Workload::ServeRw {
        let (spans, rows) = span_layer(ctx, &pass.inputs, conn, budget, &mut sink)?;
        detail.push(("where_a_warm_run_spends_its_time", spans));
        table = rows;
    }
    let mut replies = Vec::new();
    for s in &pass.inputs.stmts {
        replies.push(conn.request(&s.request_line("run", ctx.nproc))?.0.to_string());
    }
    let bench_spans = call_layer(ctx, &pass.inputs, &replies, &mut sink)?;
    detail.push(("bench_spans", bench_spans.to_value()));

    let metrics = LAYER_METRICS
        .iter()
        .map(|&name| {
            let (value, n) = sink.values.get(name).copied().unwrap_or((0.0, 0));
            metric(name, value, n)
        })
        .collect();
    Ok(Traced { metrics, detail: Value::obj(detail), table })
}
