//! The line-delimited JSON protocol and its transport-independent service
//! core.
//!
//! A request is one JSON object per line with an `op` field; the reply is
//! one JSON object per line with an `ok` field (plus `error` when `ok` is
//! `false`). Serialization reuses the shared `ecrpq_util::json` writer.
//!
//! | op | request fields | reply fields |
//! |----|----------------|--------------|
//! | `load` | `graph`, plus one of `edges` (inline edge-list text), `path` (edge-list file), `json` (inline `{"edges": …}`), `json_path`, `generator` (e.g. `cycle:8:a`) | `graph`, `nodes`, `edges` |
//! | `add_edges` | `graph`, plus `edges` (array of `[from, label, to]` string triples) and/or `text` (edge-list lines); optional `merge_threshold` (honored when the overlay is created) | applies the batch to the graph's live overlay: `added`, `removed`, `missing`, `nodes`, `edges`, `pending`, `version`, `merged` (true when the batch crossed the merge threshold and a fresh epoch was published), `merges`, `maintained` (statements kept incrementally up to date) |
//! | `remove_edges` | like `add_edges` | removes *every* live instance of each triple (reply fields as `add_edges`; a triple matching nothing counts as `missing`) |
//! | `prepare` | `name`, `query`, plus `alphabet` (label array) or `graph` (use its alphabet) | `name`, `node_vars`, `path_vars` |
//! | `run` | `name`, `graph`, optional `mode` (`nodes`\|`boolean`\|`paths`), `limit`, `planner` (`cost`\|`static`) | `registry` (`hit`\|`miss`), `answers`/`answer`, `count`, `stats` |
//! | `check` | `name`, `graph`, `nodes` (names), `paths` (alternating `[node, label, node, …]`) | `member` |
//! | `explain` | `name`, `graph`, optional `planner` | `planner`, `join_order`, `atoms` (per-atom direction/pin/estimated vs actual cardinalities), `stats`, `answers`, `text` (rendered plan) |
//! | `trace` | like `run` (`name` *or* inline `query` text), `graph`, optional `mode`, `limit`, `planner` | `run`'s fields plus `trace`: a wall-clock span tree (`resolve` → `run` with per-phase engine children → `render`; with `query`, also `parse`/`compile`/`bind`) and `server_latency_us`, the root-span duration also recorded into the request histogram |
//! | `stats` | optional `graph` | `version`, `uptime_s`, catalog/registry/server counters; with `graph`, its `graph_stats` (per-label edge/endpoint counts, degree maxima, sampled reach fraction) |
//! | `metrics` | optional `format` (`text`\|`json`) | `text`: the metrics registry in Prometheus exposition format; `json`: structured families with estimated histogram quantiles |
//! | `slowlog` | optional `limit` | `threshold_ms`, `entries` (ring buffer of requests slower than `--slow-query-ms`, newest first) |
//! | `save` | `graph`, `path` | writes the binary snapshot to `path` and the compiled-statement sidecar to `path.art`; `graph`, `path`, `bytes`, `statements` (persisted) |
//! | `open` | `name`, `path` | opens a snapshot under a *fresh* catalog name, warm-installing every sidecar statement; `graph`, `nodes`, `edges`, `statements` (warmed) |
//! | `batch` | `requests` (array of sub-requests, each a `run`/`check`/`explain`/`stats` object; `op` defaults to `run`), plus batch-level defaults `name`, `graph`, `mode`, `planner`, `limit` merged into every sub-request that omits them | `count`, `results` (one reply object per sub-request, in order; a failing sub yields `ok: false` *inside* `results`, never a batch-level error) |
//! | `close` | — | `closing: true`, then the connection ends |
//! | `shutdown` | — | `shutting_down: true`, then the whole server stops |
//!
//! **Pipelining.** Every request may carry an optional `"id"` tag (string
//! or integer). The reply echoes the tag, and a tagged request may be
//! answered *out of order* relative to other tagged requests on the same
//! connection — the transport dispatches tagged requests concurrently.
//! Untagged requests keep the original strict one-in/one-out ordering.
//! `close` and `shutdown` must be untagged (they are connection-ordered by
//! nature); tagging them is a protocol error.
//!
//! **Batching.** The `batch` op resolves each distinct graph handle and
//! bound statement once for the whole batch, so N runs of one statement
//! pay one catalog lookup and one registry lookup instead of N.
//!
//! **Live graphs.** `add_edges`/`remove_edges` write into a per-graph
//! [`LiveGraph`] overlay (delta over the immutable cataloged epoch). While
//! the overlay has pending writes, nodes-mode `run`s are served from
//! incrementally maintained answer sets (bit-identical to a cold re-run on
//! the merged graph — `tests/live_graph.rs` enforces it); every other read
//! (`check`, `explain`, `trace`, `save`, boolean/paths `run`s,
//! per-graph `stats`) first merges the delta into a fresh sealed epoch and
//! swaps it into the catalog. Readers that already resolved a graph handle
//! keep their pinned epoch; re-`load`ing a graph discards its overlay.
//!
//! Request fields an op does not read are ignored. A field an op does read
//! but cannot decode (an unknown `mode` or `planner`, a `limit` or
//! `merge_threshold` that is not a non-negative integer) gets a structured
//! `ok: false` reply naming the field, like every other protocol error —
//! never a dropped connection.

use crate::catalog::{GraphCatalog, GraphSource};
use crate::registry::StatementRegistry;
use crate::ServerError;
use ecrpq::eval::{
    BoundStatement, EvalStats, MaintainedStatement, Mode, PlannerMode, PreparedQuery,
};
use ecrpq::{persist, EvalConfig, Trace};
use ecrpq_automata::Alphabet;
use ecrpq_graph::delta::{LiveGraph, DEFAULT_MERGE_THRESHOLD};
use ecrpq_graph::{snapshot, GraphDb, NodeId, Path};
use ecrpq_util::json::{self, Value};
use ecrpq_util::metrics::MetricsRegistry;
use ecrpq_util::trace as qtrace;
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What the transport should do after writing a reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Control {
    /// Keep reading requests from this connection.
    Continue,
    /// Close this connection.
    Close,
    /// Stop the whole server (after closing this connection).
    Shutdown,
}

/// Transport-level counters, including the backpressure/admission gauges
/// surfaced under `admission` in the `stats` reply.
#[derive(Debug, Default)]
pub struct ServiceStats {
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Connections rejected at admission (over the worker-pool capacity).
    pub rejected: AtomicU64,
    /// Connections currently holding an admission slot (gauge: incremented
    /// at accept, decremented when the connection's serve loop returns).
    pub active: AtomicU64,
    /// Requests dispatched.
    pub requests: AtomicU64,
    /// Requests answered with `ok: false`.
    pub errors: AtomicU64,
    /// Requests currently executing (gauge: incremented at dispatch entry,
    /// decremented when the reply is built).
    pub in_flight: AtomicU64,
    /// Tagged requests handed to the pipeline pool for concurrent
    /// execution.
    pub pipelined: AtomicU64,
    /// Sub-requests executed through the `batch` op.
    pub batched: AtomicU64,
    /// Connections failed because their dispatched-but-unwritten tagged
    /// replies exceeded the transport's send-queue cap (a stalled or
    /// too-slow reader).
    pub reply_overflows: AtomicU64,
    /// Pipeline-pool jobs submitted but not yet started (gauge). Behind an
    /// `Arc` so the transport can hand the same counter to its
    /// [`ThreadPool`](crate::pool::ThreadPool) as the queue gauge.
    pub queue_depth: Arc<AtomicU64>,
}

/// Upper bound on sub-requests in one `batch` op — a framing sanity limit,
/// not a throughput knob (a million-entry batch is almost certainly a bug
/// or an attack, and it would pin a worker for its whole duration).
pub const MAX_BATCH: usize = 1024;

/// Request fields that act as batch-level defaults, merged into every
/// sub-request that omits them.
const BATCH_DEFAULT_FIELDS: &[&str] = &["name", "graph", "mode", "planner", "limit"];

/// Ring-buffer capacity of the slow-query log: enough recent offenders to
/// diagnose a latency incident, small enough that the log itself is never a
/// memory concern.
pub const SLOWLOG_CAPACITY: usize = 128;

/// Name of the per-op request-latency histogram family.
pub const REQUEST_HISTOGRAM: &str = "ecrpq_request_us";

/// One entry of the slow-query log ring buffer.
#[derive(Clone, Debug)]
pub struct SlowEntry {
    /// The request's `op`.
    pub op: String,
    /// The request's `name` field, when present (statement name).
    pub name: Option<String>,
    /// The request's `graph` field, when present.
    pub graph: Option<String>,
    /// Wall-clock service time, microseconds.
    pub micros: u64,
    /// Milliseconds since the Unix epoch when the request finished.
    pub at_epoch_ms: u64,
    /// True when the request was answered with `ok: false`.
    pub error: bool,
}

/// Per-request memo of resolved graph handles and bound statements. A
/// `batch` shares one across all its sub-requests — the amortization that
/// makes batching cheaper than N single requests; single requests get a
/// fresh (empty, allocation-free) one.
#[derive(Default)]
struct BatchCache {
    graphs: HashMap<String, Arc<GraphDb>>,
    bound: HashMap<(String, String), Arc<BoundStatement>>,
}

impl BatchCache {
    /// Drops every memoized handle for `gname` — called when a live-overlay
    /// flush publishes a fresh epoch mid-request, so later resolutions see
    /// the merged graph instead of a stale pin.
    fn invalidate_graph(&mut self, gname: &str) {
        self.graphs.remove(gname);
        self.bound.retain(|(_, g), _| g != gname);
    }
}

/// The live (mutable) state of one cataloged graph: the delta overlay and
/// the statements whose nodes-mode answer sets are maintained against it.
#[derive(Debug)]
struct LiveState {
    /// Delta overlay over the cataloged epoch; merging swaps a fresh sealed
    /// epoch into the catalog.
    live: LiveGraph,
    /// Incrementally maintained statements, by registry name. Only
    /// maintainable statements (exact relaxation, dense unary plans) are
    /// kept; everything else forces a merge and a cold run.
    maintained: HashMap<String, MaintainedStatement>,
}

/// The transport-independent query service: a graph catalog, a statement
/// registry, and the request dispatcher. The TCP server, tests, and any
/// future transport all drive this one type.
#[derive(Debug)]
pub struct Service {
    /// Named graphs.
    pub catalog: GraphCatalog,
    /// Prepared statements and their bound-plan cache.
    pub registry: StatementRegistry,
    /// Request/connection counters.
    pub stats: ServiceStats,
    /// Scrapeable telemetry: per-op latency histograms, cache hit-rate
    /// gauges, mirrored counters. Rendered by the `metrics` op and the
    /// `--metrics-addr` exposition endpoint.
    pub metrics: Arc<MetricsRegistry>,
    /// When this service was constructed (the `uptime_s` stat).
    started: Instant,
    /// Slow-query threshold in microseconds; 0 disables the slow log.
    slow_query_us: AtomicU64,
    /// Ring buffer of the most recent slow requests (newest at the back).
    slowlog: Mutex<VecDeque<SlowEntry>>,
    /// Live overlays of mutated graphs, by catalog name.
    live: Mutex<HashMap<String, LiveState>>,
    /// Merge threshold for overlays created by the first mutation of a
    /// graph (a request-level `merge_threshold` overrides it at creation).
    merge_threshold: usize,
}

impl Default for Service {
    fn default() -> Service {
        Service {
            catalog: GraphCatalog::default(),
            registry: StatementRegistry::default(),
            stats: ServiceStats::default(),
            metrics: Arc::new(MetricsRegistry::new()),
            started: Instant::now(),
            slow_query_us: AtomicU64::new(0),
            slowlog: Mutex::new(VecDeque::new()),
            live: Mutex::new(HashMap::new()),
            merge_threshold: DEFAULT_MERGE_THRESHOLD,
        }
    }
}

impl Service {
    /// A service with the given bound-plan cache capacity.
    pub fn new(bound_capacity: usize) -> Service {
        Service { registry: StatementRegistry::new(bound_capacity), ..Service::default() }
    }

    /// This service logging every request slower than `ms` milliseconds to
    /// the slow-query ring buffer (`slowlog` op). 0 disables the log.
    pub fn with_slow_query_ms(self, ms: u64) -> Service {
        self.slow_query_us.store(ms.saturating_mul(1000), Ordering::Relaxed);
        self
    }

    /// This service with a different default live-overlay merge threshold
    /// (applied operations before a delta is sealed into a fresh epoch; at
    /// least 1).
    pub fn with_merge_threshold(mut self, ops: usize) -> Service {
        self.merge_threshold = ops.max(1);
        self
    }

    /// Seconds since this service was constructed.
    pub fn uptime_s(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// Dispatches one request line, returning the reply line (no trailing
    /// newline) and what the transport should do next.
    pub fn dispatch(&self, line: &str) -> (String, Control) {
        match json::parse(line.trim()) {
            Ok(req) => self.dispatch_req(&req),
            Err(e) => (self.reject_line(&format!("bad request JSON: {e}")), Control::Continue),
        }
    }

    /// The `ok:false` reply to a request line that never reached an op (not
    /// UTF-8, not JSON), counted as a request and an error.
    pub fn reject_line(&self, message: &str) -> String {
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        self.stats.errors.fetch_add(1, Ordering::Relaxed);
        error_obj(message, None).to_string()
    }

    /// Dispatches an already-parsed request (the pipelined transport parses
    /// each line once, to read the `id` tag, before handing it here). Any
    /// valid `id` is echoed into the reply — including error replies.
    pub fn dispatch_req(&self, req: &Value) -> (String, Control) {
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        self.stats.in_flight.fetch_add(1, Ordering::Relaxed);
        let (reply, control) = match request_id(req) {
            Err(e) => {
                self.stats.errors.fetch_add(1, Ordering::Relaxed);
                (error_obj(&e.0, None), Control::Continue)
            }
            Ok(id) => match self.dispatch_value(req) {
                Ok((reply, control)) => (with_id(reply, id), control),
                Err(e) => {
                    self.stats.errors.fetch_add(1, Ordering::Relaxed);
                    (error_obj(&e.0, id), Control::Continue)
                }
            },
        };
        self.stats.in_flight.fetch_sub(1, Ordering::Relaxed);
        // The reply text starts at a page, not at zero, and so does the
        // answer-row text `rows_reply` renders. A large reply is rendered
        // at the top of the heap, right above the row text it embeds, which
        // is freed as soon as the reply is written; grown from nothing, a
        // buffer's first doublings are chunks small enough for malloc's
        // per-thread cache, and a remainder `realloc` parks there sits just
        // under the heap top and keeps the freed memory below it from going
        // back to the system (measured when replies were built as `Value`
        // trees: one 1 MB reply in 50–100; resident memory then stays at
        // its peak and the next large reply lands on top of it).
        let mut text = String::with_capacity(4096);
        write!(text, "{reply}").expect("writing to a String cannot fail");
        (text, control)
    }

    fn dispatch_value(&self, req: &Value) -> Result<(Value, Control), ServerError> {
        let op = req
            .get("op")
            .and_then(Value::as_str)
            .ok_or_else(|| ServerError("request needs a string `op` field".into()))?;
        let mut cache = BatchCache::default();
        let start = Instant::now();
        let result = match op {
            "load" => self.op_load(req).map(|r| (r, Control::Continue)),
            "add_edges" => self.op_mutate(req, true).map(|r| (r, Control::Continue)),
            "remove_edges" => self.op_mutate(req, false).map(|r| (r, Control::Continue)),
            "prepare" => self.op_prepare(req).map(|r| (r, Control::Continue)),
            "run" => self.op_run(req, &mut cache).map(|r| (r, Control::Continue)),
            "check" => self.op_check(req, &mut cache).map(|r| (r, Control::Continue)),
            "explain" => self.op_explain(req, &mut cache).map(|r| (r, Control::Continue)),
            "trace" => self.op_trace(req, &mut cache).map(|r| (r, Control::Continue)),
            "stats" => self.op_stats(req).map(|r| (r, Control::Continue)),
            "metrics" => self.op_metrics(req).map(|r| (r, Control::Continue)),
            "slowlog" => self.op_slowlog(req).map(|r| (r, Control::Continue)),
            "batch" => self.op_batch(req).map(|r| (r, Control::Continue)),
            "save" => self.op_save(req).map(|r| (r, Control::Continue)),
            "open" => self.op_open(req).map(|r| (r, Control::Continue)),
            "close" => ensure_untagged(req, "close")
                .map(|()| (ok_obj([("closing", Value::Bool(true))]), Control::Close)),
            "shutdown" => ensure_untagged(req, "shutdown")
                .map(|()| (ok_obj([("shutting_down", Value::Bool(true))]), Control::Shutdown)),
            other => Err(ServerError(format!("unknown op `{other}`"))),
        };
        let micros = start.elapsed().as_micros() as u64;
        // The `trace` op records its *root-span* duration itself, so the
        // span tree and the histogram sample are the same measurement; every
        // other op records the full dispatch duration here.
        if op != "trace" {
            self.record_request(op, micros);
        }
        if result.is_err() {
            self.metrics
                .counter_with("ecrpq_op_errors_total", &[("op", op)], "Errors by op.")
                .inc();
        }
        self.note_slow(op, req, micros, result.is_err());
        result
    }

    /// Records one request into the per-op latency histogram.
    fn record_request(&self, op: &str, micros: u64) {
        self.metrics
            .histogram_with(
                REQUEST_HISTOGRAM,
                &[("op", op)],
                "Server-side request latency by op, microseconds.",
            )
            .record(micros);
    }

    /// Appends a slow-log entry when the slow-query threshold is enabled
    /// and exceeded.
    fn note_slow(&self, op: &str, req: &Value, micros: u64, error: bool) {
        let threshold = self.slow_query_us.load(Ordering::Relaxed);
        if threshold == 0 || micros < threshold {
            return;
        }
        let at_epoch_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let entry = SlowEntry {
            op: op.to_string(),
            name: req.get("name").and_then(Value::as_str).map(str::to_string),
            graph: req.get("graph").and_then(Value::as_str).map(str::to_string),
            micros,
            at_epoch_ms,
            error,
        };
        let mut log = self.slowlog.lock().unwrap();
        if log.len() == SLOWLOG_CAPACITY {
            log.pop_front();
        }
        log.push_back(entry);
    }

    /// Runs a `batch` request: N read-only sub-requests sharing one
    /// resolution of every graph handle and bound statement they touch.
    /// Batch-level `name`/`graph`/`mode`/`planner`/`limit` fields
    /// are defaults for sub-requests that omit them. Each sub-request gets
    /// its own entry in `results` (errors included), so one bad entry never
    /// loses the others' replies.
    fn op_batch(&self, req: &Value) -> Result<Value, ServerError> {
        let subs = req
            .get("requests")
            .and_then(Value::as_arr)
            .ok_or_else(|| ServerError("batch needs a `requests` array".into()))?;
        if subs.is_empty() {
            return Err(ServerError("batch `requests` must not be empty".into()));
        }
        if subs.len() > MAX_BATCH {
            return Err(ServerError(format!(
                "batch too large: {} requests (cap {MAX_BATCH})",
                subs.len()
            )));
        }
        let defaults: Vec<(&str, &Value)> =
            BATCH_DEFAULT_FIELDS.iter().filter_map(|&k| req.get(k).map(|v| (k, v))).collect();
        let mut cache = BatchCache::default();
        self.stats.batched.fetch_add(subs.len() as u64, Ordering::Relaxed);
        let results: Vec<Value> = subs
            .iter()
            .map(|sub| match self.run_batch_sub(sub, &defaults, &mut cache) {
                Ok(v) => v,
                Err(e) => {
                    self.stats.errors.fetch_add(1, Ordering::Relaxed);
                    error_obj(&e.0, None)
                }
            })
            .collect();
        Ok(ok_obj([("count", Value::int(results.len() as u64)), ("results", Value::Arr(results))]))
    }

    /// One sub-request of a batch: merge the batch-level defaults, restrict
    /// to the read-only ops, and execute against the shared cache.
    fn run_batch_sub(
        &self,
        sub: &Value,
        defaults: &[(&str, &Value)],
        cache: &mut BatchCache,
    ) -> Result<Value, ServerError> {
        let Value::Obj(pairs) = sub else {
            return Err(ServerError("each batch entry must be a request object".into()));
        };
        let mut merged = pairs.clone();
        for &(k, v) in defaults {
            if sub.get(k).is_none() {
                merged.push((k.to_string(), v.clone()));
            }
        }
        let merged = Value::Obj(merged);
        match merged.get("op").and_then(Value::as_str).unwrap_or("run") {
            "run" => self.op_run(&merged, cache),
            "check" => self.op_check(&merged, cache),
            "explain" => self.op_explain(&merged, cache),
            "trace" => self.op_trace(&merged, cache),
            "stats" => self.op_stats(&merged),
            other => Err(ServerError(format!(
                "batch entries may only be run/check/explain/trace/stats, got `{other}`"
            ))),
        }
    }

    fn op_load(&self, req: &Value) -> Result<Value, ServerError> {
        let name = str_field(req, "graph")?;
        let source = if let Some(text) = req.get("edges").and_then(Value::as_str) {
            GraphSource::EdgeListText(text.to_string())
        } else if let Some(path) = req.get("path").and_then(Value::as_str) {
            GraphSource::EdgeListFile(path.to_string())
        } else if let Some(v) = req.get("json") {
            GraphSource::Json(v.clone())
        } else if let Some(path) = req.get("json_path").and_then(Value::as_str) {
            GraphSource::JsonFile(path.to_string())
        } else if let Some(spec) = req.get("generator").and_then(Value::as_str) {
            GraphSource::Generator(spec.to_string())
        } else {
            return Err(ServerError(
                "load needs one of `edges`, `path`, `json`, `json_path`, `generator`".into(),
            ));
        };
        let graph = self.catalog.load(name, &source)?;
        // A (re)load replaces the graph wholesale: any live overlay of the
        // old epoch describes a graph that no longer exists.
        self.live.lock().unwrap().remove(name);
        // Warm the per-graph statistics cache at load time, off the query
        // path: every later bind/plan (and the `stats` op) reads it for free.
        let _ = graph.stats();
        Ok(ok_obj([
            ("graph", Value::str(name)),
            ("nodes", Value::int(graph.num_nodes() as u64)),
            ("edges", Value::int(graph.num_edges() as u64)),
        ]))
    }

    /// Applies one `add_edges` (`adds = true`) or `remove_edges` batch to
    /// the graph's live overlay, creating the overlay on first mutation.
    /// Every maintained statement is updated incrementally before the reply
    /// is built (maintenance-on-write); if the batch crossed the merge
    /// threshold, the fresh sealed epoch is published to the catalog and the
    /// maintained statements are rebound onto it.
    fn op_mutate(&self, req: &Value, adds: bool) -> Result<Value, ServerError> {
        let gname = str_field(req, "graph")?;
        let triples = edge_triples(req)?;
        let threshold = uint_field(req, "merge_threshold")?;
        let mut live_map = self.live.lock().unwrap();
        let state = match live_map.entry(gname.to_string()) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => {
                let base = self
                    .catalog
                    .get(gname)
                    .ok_or_else(|| ServerError(format!("unknown graph `{gname}`")))?;
                let threshold = threshold.map_or(self.merge_threshold, |t| t as usize);
                e.insert(LiveState {
                    live: LiveGraph::new(base, threshold),
                    maintained: HashMap::new(),
                })
            }
        };

        let empty: [(String, String, String); 0] = [];
        let out = if adds {
            state.live.apply(&triples, &empty)
        } else {
            state.live.apply(&empty, &triples)
        };

        // Maintenance-on-write: every maintained statement absorbs the
        // batch now, so the next nodes-mode run is a pure answer read. A
        // statement whose update fails (budget) drops back to cold runs.
        let config = EvalConfig::default();
        let LiveState { live, maintained } = state;
        maintained.retain(|_, m| m.apply(live.view(), &out.batch, &config).is_ok());

        if let Some(epoch) = &out.merged {
            self.publish_merge(gname, state, epoch);
        }

        let m = &self.metrics;
        m.counter("ecrpq_mutation_batches_total", "add_edges/remove_edges batches applied.").inc();
        let kind = if adds { "added" } else { "removed" };
        m.counter_with(
            "ecrpq_mutation_edges_total",
            &[("kind", kind)],
            "Edge instances added/removed through the mutation ops.",
        )
        .add((out.counts.added + out.counts.removed) as u64);

        Ok(ok_obj([
            ("graph", Value::str(gname)),
            ("added", Value::int(out.counts.added as u64)),
            ("removed", Value::int(out.counts.removed as u64)),
            ("missing", Value::int(out.counts.missing as u64)),
            ("nodes", Value::int(out.nodes as u64)),
            ("edges", Value::int(out.edges as u64)),
            ("pending", Value::int(out.pending as u64)),
            ("version", Value::int(out.version)),
            ("merged", Value::Bool(out.merged.is_some())),
            ("merges", Value::int(out.merges)),
            ("maintained", Value::int(state.maintained.len() as u64)),
        ]))
    }

    /// Publishes a freshly merged epoch: swaps it into the catalog and
    /// rebinds every maintained statement onto it (the maintained rows
    /// already describe the merged graph, so only the statement handle
    /// changes). A statement that no longer rebinds to the same prepared
    /// query — re-`prepare`d or evicted meanwhile — is dropped.
    fn publish_merge(&self, gname: &str, state: &mut LiveState, epoch: &Arc<GraphDb>) {
        self.catalog.insert(gname, Arc::clone(epoch));
        self.metrics
            .counter("ecrpq_merges_total", "Live-overlay deltas merged into fresh epochs.")
            .inc();
        state.maintained.retain(|sname, m| match self.registry.bound(sname, gname, epoch) {
            Ok((stmt, _)) if Arc::ptr_eq(stmt.prepared(), m.statement().prepared()) => {
                m.rebase(stmt);
                true
            }
            _ => false,
        });
    }

    /// Merges `gname`'s pending overlay delta (if any) and publishes the
    /// fresh epoch, making the cataloged graph current. Returns true when a
    /// merge actually happened — the caller's per-request cache must then
    /// drop its pinned handles. No-op for graphs without a live overlay.
    fn flush_live(&self, gname: &str) -> bool {
        let mut live_map = self.live.lock().unwrap();
        let Some(state) = live_map.get_mut(gname).filter(|s| s.live.pending() > 0) else {
            return false;
        };
        let epoch = state.live.force_merge();
        self.publish_merge(gname, state, &epoch);
        true
    }

    fn op_prepare(&self, req: &Value) -> Result<Value, ServerError> {
        let name = str_field(req, "name")?;
        let text = str_field(req, "query")?;
        let alphabet = if let Some(labels) = req.get("alphabet").and_then(Value::as_arr) {
            let labels: Vec<&str> = labels
                .iter()
                .map(|l| {
                    l.as_str()
                        .ok_or_else(|| ServerError("`alphabet` entries must be strings".into()))
                })
                .collect::<Result<_, _>>()?;
            Alphabet::from_labels(labels)
        } else if let Some(gname) = req.get("graph").and_then(Value::as_str) {
            self.graph(gname)?.alphabet().clone()
        } else {
            return Err(ServerError("prepare needs an `alphabet` array or a `graph` name".into()));
        };
        let stmt = self.registry.prepare(name, text, &alphabet)?;
        Ok(ok_obj([
            ("name", Value::str(name)),
            ("node_vars", Value::int(stmt.prepared.query().node_vars().len() as u64)),
            ("path_vars", Value::int(stmt.prepared.query().path_vars().len() as u64)),
        ]))
    }

    /// Resolves a graph handle through the per-request cache (one catalog
    /// lookup per distinct graph per request, however many sub-requests).
    fn graph_cached(
        &self,
        cache: &mut BatchCache,
        name: &str,
    ) -> Result<Arc<GraphDb>, ServerError> {
        if let Some(g) = cache.graphs.get(name) {
            return Ok(Arc::clone(g));
        }
        let g = self.graph(name)?;
        cache.graphs.insert(name.to_string(), Arc::clone(&g));
        Ok(g)
    }

    /// Resolves a bound statement through the per-request cache, with the
    /// reply's `registry` verdict. The first resolution reports the
    /// registry's own `hit`/`miss`; later sub-requests reuse the memoized
    /// `Arc` and report a hit (they paid no lookup at all).
    fn bound_cached(
        &self,
        cache: &mut BatchCache,
        name: &str,
        gname: &str,
        graph: &Arc<GraphDb>,
    ) -> Result<(Arc<BoundStatement>, &'static str), ServerError> {
        let key = (name.to_string(), gname.to_string());
        if let Some(plan) = cache.bound.get(&key) {
            return Ok((Arc::clone(plan), "hit"));
        }
        let (plan, hit) = self.registry.bound(name, gname, graph)?;
        cache.bound.insert(key, Arc::clone(&plan));
        Ok((plan, if hit { "hit" } else { "miss" }))
    }

    fn op_run(&self, req: &Value, cache: &mut BatchCache) -> Result<Value, ServerError> {
        self.run_request(req, cache, None).map(ok_obj)
    }

    /// The one decode → resolve → execute → render path behind `run` and
    /// `trace`; returns the reply fields. With a `trace` it records the
    /// `resolve` / `run` (with the engine's child spans) / `render` phases
    /// into it and accepts inline `query` text in place of a statement
    /// `name`, traced through `parse` → `compile` → `bind` without touching
    /// the registry.
    ///
    /// The request is decoded and its statement name checked before
    /// anything is touched, so a rejected request leaves the server as it
    /// found it. With pending overlay writes on the graph, an untraced
    /// nodes-mode request is answered from the incrementally maintained
    /// answer set (built on first use); any other request — and any
    /// statement the maintainer cannot handle — first merges the overlay
    /// into a fresh epoch and runs cold on that.
    fn run_request(
        &self,
        req: &Value,
        cache: &mut BatchCache,
        mut trace: Option<&mut Trace>,
    ) -> Result<Vec<(&'static str, Value)>, ServerError> {
        let resolve = qtrace::begin_span(&mut trace, "resolve");
        // Inline `query` text in place of a statement `name` is a tracing
        // feature: a plain `run` never reads the field.
        let inline = req.get("query").and_then(Value::as_str).filter(|_| trace.is_some());
        let name = match inline {
            None => Some(str_field(req, "name")?),
            Some(_) => None,
        };
        let gname = str_field(req, "graph")?;
        let planner = planner_field(req)?;
        let mut config = EvalConfig::default();
        if let Some(limit) = uint_field(req, "limit")? {
            config.answer_limit = limit as usize;
        }
        let mode = match req.get("mode").and_then(Value::as_str).unwrap_or("nodes") {
            "nodes" => Mode::Nodes,
            "boolean" => Mode::Boolean,
            "paths" => Mode::Paths,
            other => return Err(ServerError(format!("unknown run mode `{other}`"))),
        };

        {
            let mut live_map = self.live.lock().unwrap();
            if let Some(state) = live_map.get_mut(gname).filter(|s| s.live.pending() > 0) {
                if let Some(name) = name {
                    self.registry.require(name)?;
                }
                if let (Some(name), None, Mode::Nodes) = (name, &trace, mode) {
                    let base = Arc::clone(state.live.base());
                    let (stmt, verdict) = self.bound_cached(cache, name, gname, &base)?;
                    let mut current = state
                        .maintained
                        .get(name)
                        .is_some_and(|m| Arc::ptr_eq(m.statement(), &stmt));
                    let view = state.live.view();
                    if !current {
                        // First dirty read of this binding: build its
                        // maintained state, unless it is not maintainable
                        // (inexact relaxation) and must run cold.
                        if let Some(m) = MaintainedStatement::try_new(stmt, view, &config)
                            .map_err(ServerError::msg)?
                        {
                            state.maintained.insert(name.to_string(), m);
                            current = true;
                        }
                    }
                    if current {
                        let m = &state.maintained[name];
                        return Ok(rows_reply(verdict, m.answers(), &m.stats(), |out, row| {
                            write_nodes(out, row, |n| view.node_name(n))
                        }));
                    }
                }
                // Everything else runs on a sealed epoch: merge the pending
                // writes and drop the request's pins on the old one.
                let epoch = state.live.force_merge();
                self.publish_merge(gname, state, &epoch);
                cache.invalidate_graph(gname);
            }
        }

        let graph = self.graph_cached(cache, gname)?;
        let (stmt, verdict) = match (name, inline, trace.as_deref_mut()) {
            (Some(name), ..) => self.bound_cached(cache, name, gname, &graph)?,
            (None, Some(text), Some(trace)) => {
                let q = trace
                    .scoped("parse", |_| ecrpq::parse_query(text, graph.alphabet()))
                    .map_err(ServerError::msg)?;
                let pq = trace
                    .scoped("compile", |_| PreparedQuery::prepare(&q))
                    .map_err(ServerError::msg)?;
                let stmt = trace
                    .scoped("bind", |_| BoundStatement::bind(Arc::new(pq), Arc::clone(&graph)))
                    .map_err(ServerError::msg)?;
                (Arc::new(stmt), "inline")
            }
            _ => unreachable!("a request decoded without a name carries inline text and a trace"),
        };
        let plan = stmt.plan_with(planner);
        qtrace::end_span(&mut trace, resolve);

        let run = qtrace::begin_span(&mut trace, "run");
        let (answers, stats) =
            plan.run_mode(mode, &config, trace.as_deref_mut()).map_err(ServerError::msg)?;
        qtrace::end_span(&mut trace, run);

        let render = qtrace::begin_span(&mut trace, "render");
        let graph: &GraphDb = &graph;
        let fields = match mode {
            Mode::Boolean => vec![
                ("registry", Value::str(verdict)),
                ("answer", Value::Bool(!answers.is_empty())),
                ("stats", stats_value(&stats)),
            ],
            Mode::Nodes => rows_reply(verdict, &answers, &stats, |out, a| {
                write_nodes(out, &a.nodes, |n| graph.node_name(n))
            }),
            Mode::Paths => rows_reply(verdict, &answers, &stats, |out, a| {
                out.push_str("{\"nodes\":");
                write_nodes(out, &a.nodes, |n| graph.node_name(n));
                out.push_str(",\"paths\":[");
                for (i, path) in a.paths.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_path(out, path, graph);
                }
                out.push_str("]}");
            }),
        };
        qtrace::end_span(&mut trace, render);
        Ok(fields)
    }

    /// Resolves a request's `name` statement on the *current* state of its
    /// `graph`, for the ops that read a sealed epoch (`check`, `explain`):
    /// pending overlay writes are merged first — once the statement name is
    /// known to exist, so a request about to be rejected merges nothing.
    fn bound_on_merged(
        &self,
        req: &Value,
        cache: &mut BatchCache,
    ) -> Result<(Arc<GraphDb>, Arc<BoundStatement>, &'static str), ServerError> {
        let name = str_field(req, "name")?;
        let gname = str_field(req, "graph")?;
        self.registry.require(name)?;
        if self.flush_live(gname) {
            cache.invalidate_graph(gname);
        }
        let graph = self.graph_cached(cache, gname)?;
        let (stmt, verdict) = self.bound_cached(cache, name, gname, &graph)?;
        Ok((graph, stmt, verdict))
    }

    fn op_check(&self, req: &Value, cache: &mut BatchCache) -> Result<Value, ServerError> {
        let (graph, plan, verdict) = self.bound_on_merged(req, cache)?;
        let nodes: Vec<NodeId> = req
            .get("nodes")
            .and_then(Value::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|v| {
                let name = v
                    .as_str()
                    .ok_or_else(|| ServerError("`nodes` entries must be strings".into()))?;
                resolve_node(&graph, name)
            })
            .collect::<Result<_, _>>()?;
        let paths: Vec<Path> = req
            .get("paths")
            .and_then(Value::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|v| parse_path(&graph, v))
            .collect::<Result<_, _>>()?;
        let member =
            plan.check(&nodes, &paths, &EvalConfig::default()).map_err(ServerError::msg)?;
        Ok(ok_obj([("registry", Value::str(verdict)), ("member", Value::Bool(member))]))
    }

    /// Reports the planner's view of a run: join order, per-atom BFS
    /// direction and pinned source, estimated *and* actual cardinalities,
    /// plus a human-readable rendering under `text`.
    fn op_explain(&self, req: &Value, cache: &mut BatchCache) -> Result<Value, ServerError> {
        let planner = planner_field(req)?;
        // Plans are explained against the merged graph, not the overlay.
        let (_, stmt, verdict) = self.bound_on_merged(req, cache)?;
        let plan = stmt.plan_with(planner);
        let report = plan.explain(&EvalConfig::default()).map_err(ServerError::msg)?;
        let atoms: Vec<Value> = report
            .atoms
            .iter()
            .map(|a| {
                Value::obj([
                    ("path_var", Value::str(&a.path_var)),
                    ("from", Value::str(&a.from_var)),
                    ("to", Value::str(&a.to_var)),
                    ("direction", Value::str(a.direction.to_string())),
                    (
                        "pinned",
                        match &a.pinned {
                            Some(p) => Value::str(p),
                            None => Value::Null,
                        },
                    ),
                    ("automaton_states", Value::int(a.automaton_states as u64)),
                    // Infinite estimates (the static planner's "don't know")
                    // serialize as null.
                    ("est_pairs", Value::Num(a.est_pairs)),
                    ("est_fwd_frontier", Value::Num(a.est_fwd_frontier)),
                    ("est_rev_frontier", Value::Num(a.est_rev_frontier)),
                    ("actual_pairs", Value::int(a.actual_pairs)),
                ])
            })
            .collect();
        Ok(ok_obj([
            ("registry", Value::str(verdict)),
            ("planner", Value::str(report.planner_name())),
            (
                "join_order",
                Value::Arr(report.join_order.iter().map(|v| Value::str(v.as_str())).collect()),
            ),
            ("atoms", Value::Arr(atoms)),
            ("stats", stats_value(&report.stats)),
            ("answers", Value::int(report.answers)),
            ("text", Value::str(report.to_string())),
        ]))
    }

    /// EXPLAIN ANALYZE for the serve path: runs like `run` (through the
    /// same [`run_request`](Self::run_request)) while collecting a
    /// wall-clock span tree — `resolve` (field parsing + catalog/registry
    /// lookups), `run` (with the engine's `plan` / per-atom `reach:<var>` /
    /// `compile` / `search` child spans and their measured-vs-estimated
    /// cardinality attributes), and `render` (answer serialization). The
    /// root span's duration is recorded into the per-op request histogram
    /// and echoed as `server_latency_us`, so the span tree and the
    /// histogram sample are the same measurement.
    fn op_trace(&self, req: &Value, cache: &mut BatchCache) -> Result<Value, ServerError> {
        let mut trace = Trace::new();
        let root = trace.begin("request");
        let mut fields = self.run_request(req, cache, Some(&mut trace))?;
        trace.end(root);

        let total_ns = trace.spans[root].dur_ns;
        self.record_request("trace", total_ns / 1000);
        fields.push((
            "trace",
            Value::obj([
                ("spans", trace.to_value()),
                ("server_latency_us", Value::Num(total_ns as f64 / 1000.0)),
            ]),
        ));
        Ok(ok_obj(fields))
    }

    /// Dumps the metrics registry: Prometheus exposition text by default,
    /// or structured JSON (with per-histogram estimated quantiles) under
    /// `format: "json"`. Point-in-time gauges are refreshed first.
    fn op_metrics(&self, req: &Value) -> Result<Value, ServerError> {
        match req.get("format").and_then(Value::as_str).unwrap_or("text") {
            "text" => Ok(ok_obj([("text", Value::str(self.render_metrics()))])),
            "json" => {
                self.refresh_gauges();
                Ok(ok_obj([("metrics", self.metrics.to_value())]))
            }
            other => Err(ServerError(format!("`format` must be `text` or `json`, got `{other}`"))),
        }
    }

    /// The slow-query log, newest first (optionally capped by `limit`).
    fn op_slowlog(&self, req: &Value) -> Result<Value, ServerError> {
        let limit = uint_field(req, "limit")?
            .unwrap_or(SLOWLOG_CAPACITY as u64)
            .min(SLOWLOG_CAPACITY as u64) as usize;
        let log = self.slowlog.lock().unwrap();
        let entries: Vec<Value> = log
            .iter()
            .rev()
            .take(limit)
            .map(|e| {
                Value::obj([
                    ("op", Value::str(e.op.as_str())),
                    ("name", e.name.as_deref().map(Value::str).unwrap_or(Value::Null)),
                    ("graph", e.graph.as_deref().map(Value::str).unwrap_or(Value::Null)),
                    ("micros", Value::int(e.micros)),
                    ("at_epoch_ms", Value::int(e.at_epoch_ms)),
                    ("error", Value::Bool(e.error)),
                ])
            })
            .collect();
        Ok(ok_obj([
            ("threshold_ms", Value::int(self.slow_query_us.load(Ordering::Relaxed) / 1000)),
            ("count", Value::int(entries.len() as u64)),
            ("entries", Value::Arr(entries)),
        ]))
    }

    /// Refreshes gauges and renders the full registry in Prometheus text
    /// exposition format — the body served by `ecrpq-serve --metrics-addr`
    /// and the `metrics` op's `text` format.
    pub fn render_metrics(&self) -> String {
        self.refresh_gauges();
        self.metrics.render()
    }

    /// Computes the point-in-time gauges (uptime, queue depth, cache hit
    /// rates per cache and per shard) and mirrors the transport counters
    /// into the registry. Called at scrape/render time, off the query path.
    fn refresh_gauges(&self) {
        let m = &self.metrics;
        m.gauge("ecrpq_uptime_seconds", "Seconds since service start.")
            .set(self.started.elapsed().as_secs_f64());
        m.gauge("ecrpq_queue_depth", "Pipeline-pool jobs queued but not yet started.")
            .set(self.stats.queue_depth.load(Ordering::Relaxed) as f64);
        m.gauge("ecrpq_in_flight", "Requests currently executing.")
            .set(self.stats.in_flight.load(Ordering::Relaxed) as f64);
        m.gauge("ecrpq_active_connections", "Connections holding an admission slot.")
            .set(self.stats.active.load(Ordering::Relaxed) as f64);
        for (name, help, v) in [
            (
                "ecrpq_connections_total",
                "Connections accepted.",
                self.stats.connections.load(Ordering::Relaxed),
            ),
            (
                "ecrpq_rejected_total",
                "Connections rejected at admission.",
                self.stats.rejected.load(Ordering::Relaxed),
            ),
            (
                "ecrpq_requests_total",
                "Requests dispatched.",
                self.stats.requests.load(Ordering::Relaxed),
            ),
            (
                "ecrpq_errors_total",
                "Requests answered with ok:false.",
                self.stats.errors.load(Ordering::Relaxed),
            ),
            (
                "ecrpq_pipelined_total",
                "Tagged requests run on the pipeline pool.",
                self.stats.pipelined.load(Ordering::Relaxed),
            ),
            (
                "ecrpq_batched_total",
                "Sub-requests executed through the batch op.",
                self.stats.batched.load(Ordering::Relaxed),
            ),
            (
                "ecrpq_reply_overflow_total",
                "Connections failed on reply send-queue overflow.",
                self.stats.reply_overflows.load(Ordering::Relaxed),
            ),
        ] {
            m.counter(name, help).store(v);
        }
        let rate = |hits: u64, misses: u64| {
            if hits + misses == 0 {
                0.0
            } else {
                hits as f64 / (hits + misses) as f64
            }
        };
        let reg = self.registry.stats();
        m.gauge_with("ecrpq_cache_hit_rate", &[("cache", "registry")], "Cache lookup hit rate.")
            .set(rate(reg.hits, reg.misses));
        m.counter_with("ecrpq_cache_evictions_total", &[("cache", "registry")], "Cache evictions.")
            .store(reg.evictions);
        let (cat_hits, cat_misses) = self.catalog.lookup_counters();
        m.gauge_with("ecrpq_cache_hit_rate", &[("cache", "catalog")], "Cache lookup hit rate.")
            .set(rate(cat_hits, cat_misses));
        for (cache_name, shards) in [
            ("registry", self.registry.shard_counters()),
            ("catalog", self.catalog.shard_counters()),
        ] {
            for (i, c) in shards.iter().enumerate() {
                let shard = i.to_string();
                m.gauge_with(
                    "ecrpq_shard_hit_rate",
                    &[("cache", cache_name), ("shard", &shard)],
                    "Per-shard cache lookup hit rate.",
                )
                .set(rate(c.hits, c.misses));
            }
        }
    }

    fn op_stats(&self, req: &Value) -> Result<Value, ServerError> {
        let reg = self.registry.stats();
        let shard_obj = |c: &crate::registry::ShardCounters| {
            Value::obj([
                ("hits", Value::int(c.hits)),
                ("misses", Value::int(c.misses)),
                ("evictions", Value::int(c.evictions)),
            ])
        };
        let reg_shards: Vec<Value> = self.registry.shard_counters().iter().map(shard_obj).collect();
        let cat_shards: Vec<Value> = self.catalog.shard_counters().iter().map(shard_obj).collect();
        let (cat_hits, cat_misses) = self.catalog.lookup_counters();
        let mut pairs = vec![
            ("version", Value::str(env!("CARGO_PKG_VERSION"))),
            ("uptime_s", Value::int(self.uptime_s())),
            ("graphs", Value::int(self.catalog.len() as u64)),
            ("statements", Value::int(self.registry.len() as u64)),
            ("bound_cached", Value::int(self.registry.bound_len() as u64)),
            (
                "registry",
                Value::obj([
                    ("hits", Value::int(reg.hits)),
                    ("misses", Value::int(reg.misses)),
                    ("evictions", Value::int(reg.evictions)),
                    ("prepared", Value::int(reg.prepared)),
                    ("shards", Value::Arr(reg_shards)),
                ]),
            ),
            (
                "catalog",
                Value::obj([
                    ("hits", Value::int(cat_hits)),
                    ("misses", Value::int(cat_misses)),
                    ("shards", Value::Arr(cat_shards)),
                ]),
            ),
            (
                "admission",
                Value::obj([
                    ("accepted", Value::int(self.stats.connections.load(Ordering::Relaxed))),
                    ("rejected", Value::int(self.stats.rejected.load(Ordering::Relaxed))),
                    ("active", Value::int(self.stats.active.load(Ordering::Relaxed))),
                    ("in_flight", Value::int(self.stats.in_flight.load(Ordering::Relaxed))),
                    ("queue_depth", Value::int(self.stats.queue_depth.load(Ordering::Relaxed))),
                    ("pipelined", Value::int(self.stats.pipelined.load(Ordering::Relaxed))),
                    ("batched", Value::int(self.stats.batched.load(Ordering::Relaxed))),
                    (
                        "reply_overflows",
                        Value::int(self.stats.reply_overflows.load(Ordering::Relaxed)),
                    ),
                ]),
            ),
            ("connections", Value::int(self.stats.connections.load(Ordering::Relaxed))),
            ("requests", Value::int(self.stats.requests.load(Ordering::Relaxed))),
            ("errors", Value::int(self.stats.errors.load(Ordering::Relaxed))),
        ];
        // With a `graph` field, that graph's statistics describe its merged
        // state — pending overlay writes are flushed before reporting.
        let gname_opt = req.get("graph").and_then(Value::as_str);
        if let Some(gname) = gname_opt {
            self.flush_live(gname);
        }
        {
            let live_map = self.live.lock().unwrap();
            let mut entries: Vec<(&String, &LiveState)> = live_map.iter().collect();
            entries.sort_by(|a, b| a.0.cmp(b.0));
            let lives: Vec<Value> = entries
                .iter()
                .map(|(name, st)| {
                    Value::obj([
                        ("graph", Value::str(name.as_str())),
                        ("pending", Value::int(st.live.pending() as u64)),
                        ("version", Value::int(st.live.version())),
                        ("merges", Value::int(st.live.merges())),
                        ("merge_threshold", Value::int(st.live.merge_threshold() as u64)),
                        ("maintained", Value::int(st.maintained.len() as u64)),
                    ])
                })
                .collect();
            pairs.push(("live", Value::Arr(lives)));
        }
        // Include the planner's statistics of the requested graph (cached
        // on the graph since load time).
        if let Some(gname) = gname_opt {
            let graph = self.graph(gname)?;
            let gs = graph.stats();
            let labels: Vec<Value> = graph
                .alphabet()
                .iter()
                .zip(gs.labels.iter())
                .map(|((_, label), ls)| {
                    Value::obj([
                        ("label", Value::str(label)),
                        ("edges", Value::int(ls.edges)),
                        ("sources", Value::int(ls.sources)),
                        ("targets", Value::int(ls.targets)),
                    ])
                })
                .collect();
            pairs.push(("graph", Value::str(gname)));
            pairs.push((
                "graph_stats",
                Value::obj([
                    ("nodes", Value::int(gs.nodes)),
                    ("edges", Value::int(gs.edges)),
                    ("labels", Value::Arr(labels)),
                    ("max_out_degree", Value::int(gs.max_out_degree)),
                    ("max_in_degree", Value::int(gs.max_in_degree)),
                    ("avg_degree", Value::Num(gs.avg_degree())),
                    ("reach_fraction", Value::Num(gs.reach_fraction)),
                ]),
            ));
        }
        Ok(ok_obj(pairs))
    }

    /// Persists a cataloged graph as a binary snapshot at `path`, plus a
    /// `path.art` sidecar holding the compiled sim tables and bind artifacts
    /// of every registered statement that binds against this graph.
    /// Statements that cannot bind (say, a constant node the graph lacks)
    /// are skipped rather than failing the save.
    fn op_save(&self, req: &Value) -> Result<Value, ServerError> {
        let gname = str_field(req, "graph")?;
        let path = str_field(req, "path")?;
        // Snapshots persist the merged graph, never a half-applied overlay.
        self.flush_live(gname);
        let graph = self.graph(gname)?;
        let bytes = snapshot::write_snapshot(&graph).map_err(ServerError::msg)?;
        std::fs::write(path, &bytes)
            .map_err(|e| ServerError(format!("cannot write `{path}`: {e}")))?;
        let id = snapshot::snapshot_id(&bytes);

        // Every statement that binds to this graph rides along in the
        // sidecar. Binding here also seeds this server's own cache.
        let mut bound: Vec<(String, String, Arc<ecrpq::BoundStatement>)> = Vec::new();
        for (sname, stext) in self.registry.summaries() {
            if let Ok((plan, _)) = self.registry.bound(&sname, gname, &graph) {
                bound.push((sname, stext, plan));
            }
        }
        let entries: Vec<persist::SidecarStatement<'_>> = bound
            .iter()
            .map(|(name, text, plan)| persist::SidecarStatement { name, text, stmt: plan })
            .collect();
        let art = persist::write_sidecar(id, &entries);
        let art_path = persist::sidecar_path(std::path::Path::new(path));
        // The rewrite drops any sidecar entry whose statement was since
        // re-prepared (same name, new text) or unregistered; `sidecar_gc`
        // reports how many such orphans the previous file carried. An
        // absent or unreadable previous sidecar counts zero.
        let live: std::collections::HashSet<(&str, &str)> =
            bound.iter().map(|(n, t, _)| (n.as_str(), t.as_str())).collect();
        let sidecar_gc = std::fs::read(&art_path)
            .ok()
            .and_then(|old| persist::sidecar_entries(&old).ok())
            .map(|old| {
                old.iter().filter(|(n, t)| !live.contains(&(n.as_str(), t.as_str()))).count() as u64
            })
            .unwrap_or(0);
        if sidecar_gc > 0 {
            self.metrics
                .counter("ecrpq_sidecar_gc_total", "Orphaned sidecar entries dropped by save.")
                .add(sidecar_gc);
        }
        std::fs::write(&art_path, &art)
            .map_err(|e| ServerError(format!("cannot write `{}`: {e}", art_path.display())))?;
        Ok(ok_obj([
            ("graph", Value::str(gname)),
            ("path", Value::str(path)),
            ("bytes", Value::int(bytes.len() as u64)),
            ("statements", Value::int(entries.len() as u64)),
            ("sidecar_gc", Value::int(sidecar_gc)),
        ]))
    }

    /// Opens a snapshot file under a fresh catalog name. If the `path.art`
    /// sidecar is present its statements are warm-installed into the
    /// registry — bound, with every sim table seeded — before the graph
    /// becomes visible, so the first `run` is a registry hit with zero
    /// sim-table compilations.
    fn op_open(&self, req: &Value) -> Result<Value, ServerError> {
        let name = str_field(req, "name")?;
        let path = str_field(req, "path")?;
        if self.catalog.get(name).is_some() {
            return Err(ServerError(format!(
                "graph `{name}` is already cataloged; `open` needs a fresh name (use `load` to replace)"
            )));
        }
        let bytes =
            std::fs::read(path).map_err(|e| ServerError(format!("cannot read `{path}`: {e}")))?;
        let graph = Arc::new(snapshot::read_snapshot(&bytes).map_err(ServerError::msg)?);
        let id = snapshot::snapshot_id(&bytes);

        let art_path = persist::sidecar_path(std::path::Path::new(path));
        let mut warmed = 0u64;
        if art_path.exists() {
            let art = std::fs::read(&art_path)
                .map_err(|e| ServerError(format!("cannot read `{}`: {e}", art_path.display())))?;
            let statements = persist::read_sidecar(&art, id, &graph)
                .map_err(|e| ServerError(format!("sidecar `{}`: {e}", art_path.display())))?;
            warmed = statements.len() as u64;
            for w in statements {
                self.registry.install_warm(&w.name, &w.text, name, w.statement);
            }
        }
        // Publish the graph only after the sidecar validated cleanly: a
        // corrupt sidecar must not leave a half-opened snapshot behind.
        self.catalog.insert(name, Arc::clone(&graph));
        Ok(ok_obj([
            ("graph", Value::str(name)),
            ("nodes", Value::int(graph.num_nodes() as u64)),
            ("edges", Value::int(graph.num_edges() as u64)),
            ("statements", Value::int(warmed)),
        ]))
    }

    fn graph(&self, name: &str) -> Result<Arc<GraphDb>, ServerError> {
        self.catalog.get(name).ok_or_else(|| ServerError(format!("unknown graph `{name}`")))
    }
}

/// An `{"ok": true, …}` reply object.
fn ok_obj(pairs: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
    let mut all = vec![("ok".to_string(), Value::Bool(true))];
    all.extend(pairs.into_iter().map(|(k, v)| (k.to_string(), v)));
    Value::Obj(all)
}

/// An `{"ok": false, "error": …}` reply object, tagged when the request
/// carried a valid id.
fn error_obj(message: &str, id: Option<&Value>) -> Value {
    with_id(Value::obj([("ok", Value::Bool(false)), ("error", Value::str(message))]), id)
}

/// Echoes a request's `id` tag into its reply object.
fn with_id(reply: Value, id: Option<&Value>) -> Value {
    match (reply, id) {
        (Value::Obj(mut pairs), Some(id)) => {
            pairs.insert(0, ("id".to_string(), id.clone()));
            Value::Obj(pairs)
        }
        (reply, _) => reply,
    }
}

/// Rejects an `id` tag on a connection-lifecycle op: `close` and
/// `shutdown` end the request stream, so they are ordered by nature — a
/// tagged (concurrently dispatched) one could race past requests it was
/// meant to follow.
fn ensure_untagged(req: &Value, op: &str) -> Result<(), ServerError> {
    if request_id(req)?.is_some() {
        return Err(ServerError(format!(
            "`{op}` must not carry an `id` tag: lifecycle ops are connection-ordered"
        )));
    }
    Ok(())
}

/// Extracts and validates a request's optional `id` tag: a string or a
/// non-negative integer. Anything else (float, bool, object, array, null)
/// is a protocol error — a tag the client cannot reliably match replies by
/// must be rejected loudly, not echoed approximately.
pub fn request_id(req: &Value) -> Result<Option<&Value>, ServerError> {
    match req.get("id") {
        None => Ok(None),
        Some(id @ Value::Str(_)) => Ok(Some(id)),
        Some(id @ Value::Num(_)) if id.as_u64().is_some() => Ok(Some(id)),
        Some(other) => {
            Err(ServerError(format!("`id` must be a string or non-negative integer, got {other}")))
        }
    }
}

fn str_field<'a>(req: &'a Value, key: &str) -> Result<&'a str, ServerError> {
    req.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| ServerError(format!("request needs a string `{key}` field")))
}

/// An optional non-negative integer field: `None` when absent, an error
/// naming the field when present with any other value.
fn uint_field(req: &Value, key: &str) -> Result<Option<u64>, ServerError> {
    req.get(key)
        .map(|v| {
            v.as_u64().ok_or_else(|| ServerError(format!("`{key}` must be a non-negative integer")))
        })
        .transpose()
}

/// The optional `planner` field of a `run`, `trace` or `explain` request:
/// `cost` (the default) or `static`.
fn planner_field(req: &Value) -> Result<PlannerMode, ServerError> {
    match req.get("planner").map(Value::as_str) {
        None | Some(Some("cost")) | Some(Some("cost-based")) => Ok(PlannerMode::CostBased),
        Some(Some("static")) => Ok(PlannerMode::Static),
        Some(_) => Err(ServerError("`planner` must be `cost` or `static`".into())),
    }
}

/// The `(from, label, to)` triples of a mutation request: an `edges` array
/// of 3-element string arrays, and/or `text` edge-list lines (`from label
/// to` per line, blank lines skipped). At least one triple is required.
fn edge_triples(req: &Value) -> Result<Vec<(String, String, String)>, ServerError> {
    let mut out = Vec::new();
    if let Some(arr) = req.get("edges").and_then(Value::as_arr) {
        for e in arr {
            let items = e.as_arr().filter(|items| items.len() == 3).ok_or_else(|| {
                ServerError("`edges` entries must be [from, label, to] arrays".into())
            })?;
            let mut strs = items.iter().map(|v| {
                v.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| ServerError("`edges` triple components must be strings".into()))
            });
            out.push((strs.next().unwrap()?, strs.next().unwrap()?, strs.next().unwrap()?));
        }
    }
    if let Some(text) = req.get("text").and_then(Value::as_str) {
        for line in text.lines() {
            let mut parts = line.split_whitespace();
            match (parts.next(), parts.next(), parts.next(), parts.next()) {
                (None, ..) => {}
                (Some(f), Some(l), Some(t), None) => {
                    out.push((f.to_string(), l.to_string(), t.to_string()));
                }
                _ => {
                    return Err(ServerError(format!(
                        "each `text` edge line must be `from label to`, got `{}`",
                        line.trim()
                    )));
                }
            }
        }
    }
    if out.is_empty() {
        return Err(ServerError(
            "mutation needs a non-empty `edges` array and/or `text` edge lines".into(),
        ));
    }
    Ok(out)
}

/// [`EvalStats`] as a reply object, including the sim-table cache counters
/// that prove (or disprove) compiled-artifact reuse.
fn stats_value(stats: &EvalStats) -> Value {
    Value::obj([
        ("candidates", Value::int(stats.candidates)),
        ("verified", Value::int(stats.verified)),
        ("search_states", Value::int(stats.search_states)),
        ("sim_cache_hits", Value::int(stats.sim_cache_hits)),
        ("sim_cache_misses", Value::int(stats.sim_cache_misses)),
    ])
}

/// The reply fields of a row-valued (`nodes`/`paths`) run, with the one
/// writer of answer rows: `write_row` appends each row's JSON text straight
/// from the borrowed answers — no `Value` per row or per node — and the
/// `answers` array joins the reply as [`Value::Raw`]. The text starts at a
/// page for the allocator reason [`Service::dispatch_req`] gives.
fn rows_reply<R>(
    verdict: &str,
    rows: &[R],
    stats: &EvalStats,
    mut write_row: impl FnMut(&mut String, &R),
) -> Vec<(&'static str, Value)> {
    let mut text = String::with_capacity(4096);
    text.push('[');
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            text.push(',');
        }
        write_row(&mut text, row);
    }
    text.push(']');
    vec![
        ("registry", Value::str(verdict)),
        ("count", Value::int(rows.len() as u64)),
        ("answers", Value::Raw(text)),
        ("stats", stats_value(stats)),
    ]
}

/// Appends a node tuple as a JSON array of node tokens, naming nodes
/// through a sealed graph's or an overlay's `node_name`.
fn write_nodes<'g>(out: &mut String, nodes: &[NodeId], name: impl Fn(NodeId) -> Option<&'g str>) {
    out.push('[');
    for (i, &n) in nodes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_node(out, n, name(n));
    }
    out.push(']');
}

/// Appends one node token as a JSON string: a named node's name, escaped
/// from the borrowed `&str`, or `n<i>` for an anonymous node — the tokens
/// [`resolve_node`] accepts.
fn write_node(out: &mut String, node: NodeId, name: Option<&str>) {
    out.push('"');
    match name {
        Some(name) => json::escape_into(out, name),
        None => write!(out, "n{}", node.0).expect("writing to a String cannot fail"),
    }
    out.push('"');
}

/// Appends a path as the alternating `[node, label, node, …]` array the
/// protocol uses in both directions.
fn write_path(out: &mut String, path: &Path, graph: &GraphDb) {
    out.push('[');
    for (i, &n) in path.nodes().iter().enumerate() {
        if i > 0 {
            out.push_str(",\"");
            json::escape_into(out, graph.alphabet().label(path.label()[i - 1]));
            out.push_str("\",");
        }
        write_node(out, n, graph.node_name(n));
    }
    out.push(']');
}

/// Resolves a protocol node token: a node name, or `n<i>` for an anonymous
/// node — exactly the tokens [`GraphDb::node_display`] emits. A bare index
/// or an `n<i>` pointing at a *named* node is rejected rather than silently
/// resolved, so a stale or mistyped token cannot validate against the wrong
/// node.
fn resolve_node(graph: &GraphDb, token: &str) -> Result<NodeId, ServerError> {
    if let Some(id) = graph.node_by_name(token) {
        return Ok(id);
    }
    if let Some(digits) = token.strip_prefix('n') {
        if let Ok(i) = digits.parse::<u32>() {
            if (i as usize) < graph.num_nodes() && graph.node_name(NodeId(i)).is_none() {
                return Ok(NodeId(i));
            }
        }
    }
    Err(ServerError(format!("unknown node `{token}`")))
}

/// Parses the alternating `[node, label, node, …]` path format.
fn parse_path(graph: &GraphDb, v: &Value) -> Result<Path, ServerError> {
    let items = v.as_arr().ok_or_else(|| ServerError("each path must be an array".into()))?;
    if items.len() % 2 == 0 {
        return Err(ServerError(
            "a path array alternates node, label, node, … (odd length)".into(),
        ));
    }
    let mut nodes = Vec::with_capacity(items.len() / 2 + 1);
    let mut labels = Vec::with_capacity(items.len() / 2);
    for (i, item) in items.iter().enumerate() {
        let s =
            item.as_str().ok_or_else(|| ServerError("path components must be strings".into()))?;
        if i % 2 == 0 {
            nodes.push(resolve_node(graph, s)?);
        } else {
            let sym = graph
                .alphabet()
                .symbol(s)
                .ok_or_else(|| ServerError(format!("unknown edge label `{s}`")))?;
            labels.push(sym);
        }
    }
    Ok(Path::new(nodes, labels))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reply(service: &Service, line: &str) -> Value {
        let (text, control) = service.dispatch(line);
        assert_eq!(control, Control::Continue, "unexpected control for {line}");
        json::parse(&text).unwrap()
    }

    fn loaded_service() -> Service {
        let s = Service::new(8);
        let r = reply(&s, r#"{"op":"load","graph":"g","generator":"cycle:6:a"}"#);
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(r.get("nodes").unwrap().as_u64(), Some(6));
        s
    }

    #[test]
    fn load_prepare_run_roundtrip_with_cache_counters() {
        let s = loaded_service();
        let r = reply(
            &s,
            r#"{"op":"prepare","name":"q","query":"Ans(x, y) <- (x, p, y), L(p) = a a","graph":"g"}"#,
        );
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true));

        let r1 = reply(&s, r#"{"op":"run","name":"q","graph":"g"}"#);
        assert_eq!(r1.get("registry").unwrap().as_str(), Some("miss"));
        assert_eq!(r1.get("count").unwrap().as_u64(), Some(6));

        // Second run: registry hit and zero sim-table compilations.
        let r2 = reply(&s, r#"{"op":"run","name":"q","graph":"g"}"#);
        assert_eq!(r2.get("registry").unwrap().as_str(), Some("hit"));
        let misses = r2.get("stats").unwrap().get("sim_cache_misses").unwrap().as_u64();
        assert_eq!(misses, Some(0));
        assert_eq!(r1.get("answers").unwrap(), r2.get("answers").unwrap());

        let st = reply(&s, r#"{"op":"stats"}"#);
        assert_eq!(st.get("graphs").unwrap().as_u64(), Some(1));
        assert_eq!(st.get("registry").unwrap().get("hits").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn boolean_and_paths_modes() {
        let s = loaded_service();
        reply(
            &s,
            r#"{"op":"prepare","name":"b","query":"Ans() <- (x, p, y), L(p) = a a a","graph":"g"}"#,
        );
        let r = reply(&s, r#"{"op":"run","name":"b","graph":"g","mode":"boolean"}"#);
        assert_eq!(r.get("answer").unwrap().as_bool(), Some(true));

        reply(
            &s,
            r#"{"op":"prepare","name":"p","query":"Ans(x, p) <- (x, p, y), L(p) = a a","graph":"g"}"#,
        );
        let r = reply(&s, r#"{"op":"run","name":"p","graph":"g","mode":"paths","limit":3}"#);
        assert_eq!(r.get("count").unwrap().as_u64(), Some(3));
        let first = &r.get("answers").unwrap().as_arr().unwrap()[0];
        let path = &first.get("paths").unwrap().as_arr().unwrap()[0];
        assert_eq!(path.as_arr().unwrap().len(), 5, "2-edge path prints 5 components");
    }

    #[test]
    fn check_membership_over_the_wire() {
        let s = Service::new(8);
        reply(&s, r#"{"op":"load","graph":"g","edges":"a x b\nb x c\n"}"#);
        reply(
            &s,
            r#"{"op":"prepare","name":"q","query":"Ans(u, p) <- (u, p, v), L(p) = x x","graph":"g"}"#,
        );
        let r = reply(
            &s,
            r#"{"op":"check","name":"q","graph":"g","nodes":["a"],"paths":[["a","x","b","x","c"]]}"#,
        );
        assert_eq!(r.get("member").unwrap().as_bool(), Some(true));
        let r = reply(
            &s,
            r#"{"op":"check","name":"q","graph":"g","nodes":["b"],"paths":[["a","x","b","x","c"]]}"#,
        );
        assert_eq!(r.get("member").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn errors_and_control_flow() {
        let s = Service::new(8);
        let (text, _) = s.dispatch("not json");
        assert!(text.contains("\"ok\":false"));
        let r = reply(&s, r#"{"op":"run","name":"q","graph":"none"}"#);
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(false));
        assert!(r.get("error").unwrap().as_str().unwrap().contains("unknown graph"));
        let (_, c) = s.dispatch(r#"{"op":"close"}"#);
        assert_eq!(c, Control::Close);
        let (_, c) = s.dispatch(r#"{"op":"shutdown"}"#);
        assert_eq!(c, Control::Shutdown);
        assert!(s.stats.errors.load(Ordering::Relaxed) >= 2);
    }

    /// Asserts one request produces a structured `ok:false` reply whose
    /// `error` contains `needle` — and, crucially, that the connection stays
    /// open (`Control::Continue`, never a drop).
    fn assert_error_reply(service: &Service, line: &str, needle: &str) {
        let (text, control) = service.dispatch(line);
        assert_eq!(control, Control::Continue, "error replies must not close: {line}");
        let r = json::parse(&text).unwrap_or_else(|e| panic!("reply must be JSON ({e}): {text}"));
        assert_eq!(r.get("ok").and_then(Value::as_bool), Some(false), "{line} -> {text}");
        let msg = r
            .get("error")
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("error reply must carry a string `error` field: {text}"));
        assert!(msg.contains(needle), "error for {line} should mention {needle:?}, got {msg:?}");
    }

    /// Golden error paths: every malformed or unsatisfiable request gets a
    /// structured `ok:false` reply on a connection that keeps serving.
    #[test]
    fn error_paths_reply_structurally_and_keep_the_connection() {
        let s = loaded_service();
        reply(&s, r#"{"op":"prepare","name":"q","query":"Ans(x, y) <- (x, p, y)","graph":"g"}"#);

        // Malformed JSON (truncated object, bare garbage, wrong root type).
        assert_error_reply(&s, r#"{"op":"run","name":"q""#, "bad request JSON");
        assert_error_reply(&s, "##garbage##", "bad request JSON");
        assert_error_reply(&s, r#"[1, 2, 3]"#, "op");
        // Unknown / missing op.
        assert_error_reply(&s, r#"{"op":"frobnicate"}"#, "unknown op");
        assert_error_reply(&s, r#"{"graph":"g"}"#, "op");
        // Run against a graph that was never loaded.
        assert_error_reply(&s, r#"{"op":"run","name":"q","graph":"missing"}"#, "unknown graph");
        // Run an unregistered statement.
        assert_error_reply(&s, r#"{"op":"run","name":"nope","graph":"g"}"#, "unknown statement");
        // A `limit` that is not a non-negative integer is rejected, never
        // replaced by the default (run, trace, a batch-level default, and
        // the slow-query log alike).
        for line in [
            r#"{"op":"run","name":"q","graph":"g","limit":"5"}"#,
            r#"{"op":"run","name":"q","graph":"g","limit":-1}"#,
            r#"{"op":"run","name":"q","graph":"g","limit":1.5}"#,
            r#"{"op":"trace","name":"q","graph":"g","limit":"5"}"#,
            r#"{"op":"slowlog","limit":"x"}"#,
        ] {
            assert_error_reply(&s, line, "`limit` must be a non-negative integer");
        }
        let r = reply(&s, r#"{"op":"batch","name":"q","graph":"g","limit":-1,"requests":[{}]}"#);
        let sub = &r.get("results").unwrap().as_arr().unwrap()[0];
        assert_eq!(sub.get("ok").unwrap().as_bool(), Some(false));
        assert!(sub.get("error").unwrap().as_str().unwrap().contains("`limit`"));

        // The connection state is intact: the same service still answers.
        let r = reply(&s, r#"{"op":"run","name":"q","graph":"g"}"#);
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true));
        assert!(s.stats.errors.load(Ordering::Relaxed) >= 12);
    }

    /// The `explain` op reports the chosen plan (direction, join order,
    /// estimated vs actual cardinalities) for both planner modes, and the
    /// `stats` op surfaces the graph statistics the planner consumes.
    #[test]
    fn explain_reports_plan_and_stats_exposes_graph_statistics() {
        let s = loaded_service();
        reply(
            &s,
            r#"{"op":"prepare","name":"q","query":"Ans(x, y) <- (x, p, y), L(p) = a a","graph":"g"}"#,
        );

        let r = reply(&s, r#"{"op":"explain","name":"q","graph":"g"}"#);
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(r.get("planner").unwrap().as_str(), Some("cost-based"));
        assert_eq!(r.get("join_order").unwrap().as_arr().unwrap().len(), 2);
        let atoms = r.get("atoms").unwrap().as_arr().unwrap();
        assert_eq!(atoms.len(), 1);
        let atom = &atoms[0];
        assert!(matches!(atom.get("direction").unwrap().as_str(), Some("forward" | "reverse")));
        assert!(atom.get("est_pairs").unwrap().as_f64().is_some(), "estimate must be numeric");
        // On cycle:6:a each node reaches exactly one node by `a a`: 6 pairs.
        assert_eq!(atom.get("actual_pairs").unwrap().as_u64(), Some(6));
        assert_eq!(r.get("answers").unwrap().as_u64(), Some(6));
        let text = r.get("text").unwrap().as_str().unwrap();
        assert!(text.contains("plan (cost-based)"), "rendered plan: {text}");
        assert!(text.contains("join order:"), "rendered plan: {text}");

        // The static planner reports infinite (null) estimates but the same
        // measured cardinalities.
        let r = reply(&s, r#"{"op":"explain","name":"q","graph":"g","planner":"static"}"#);
        assert_eq!(r.get("planner").unwrap().as_str(), Some("static"));
        let atom = &r.get("atoms").unwrap().as_arr().unwrap()[0];
        assert!(atom.get("est_pairs").unwrap().as_f64().is_none(), "static estimate is null");
        assert_eq!(atom.get("actual_pairs").unwrap().as_u64(), Some(6));

        // `stats` with a graph name includes the cached graph statistics.
        let st = reply(&s, r#"{"op":"stats","graph":"g"}"#);
        let gs = st.get("graph_stats").unwrap();
        assert_eq!(gs.get("nodes").unwrap().as_u64(), Some(6));
        assert_eq!(gs.get("edges").unwrap().as_u64(), Some(6));
        let labels = gs.get("labels").unwrap().as_arr().unwrap();
        assert_eq!(labels[0].get("label").unwrap().as_str(), Some("a"));
        assert_eq!(labels[0].get("sources").unwrap().as_u64(), Some(6));
        assert_eq!(gs.get("reach_fraction").unwrap().as_f64(), Some(1.0));
    }

    /// Golden `explain` error paths: every malformed or unsatisfiable
    /// request gets a structured `ok:false` reply on a connection that keeps
    /// serving.
    #[test]
    fn explain_error_paths_reply_structurally_and_keep_the_connection() {
        let s = loaded_service();
        reply(
            &s,
            r#"{"op":"prepare","name":"q","query":"Ans(x, y) <- (x, p, y), L(p) = a a","graph":"g"}"#,
        );

        // Unloaded graph, unknown statement, malformed planner, and
        // a request missing its required fields.
        assert_error_reply(&s, r#"{"op":"explain","name":"q","graph":"missing"}"#, "unknown graph");
        assert_error_reply(
            &s,
            r#"{"op":"explain","name":"nope","graph":"g"}"#,
            "unknown statement",
        );
        assert_error_reply(
            &s,
            r#"{"op":"explain","name":"q","graph":"g","planner":"oracle"}"#,
            "planner",
        );
        assert_error_reply(&s, r#"{"op":"explain","name":"q","graph":"g","planner":7}"#, "planner");
        assert_error_reply(&s, r#"{"op":"explain","name":"q"}"#, "graph");
        assert_error_reply(&s, r#"{"op":"explain","graph":"g"}"#, "name");

        // The connection state is intact: the same service still explains.
        let r = reply(&s, r#"{"op":"explain","name":"q","graph":"g"}"#);
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true));
    }

    /// A scratch directory for persistence tests, unique per test name and
    /// process, recreated empty on entry.
    fn scratch_dir(test: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ecrpq-proto-{}-{test}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// `save` then `open` on a fresh service: the reopened graph answers
    /// identically, and the sidecar makes the *first* run a registry hit
    /// with zero sim-table compilations.
    #[test]
    fn save_open_roundtrip_warms_the_registry() {
        let dir = scratch_dir("roundtrip");
        let snap = dir.join("g.snap");
        let snap = snap.to_str().unwrap();

        let s = loaded_service();
        reply(
            &s,
            r#"{"op":"prepare","name":"q","query":"Ans(x, y) <- (x, p1, z), (z, p2, y), L(p1) = a*, L(p2) = a*, R(p1, p2) = el","graph":"g"}"#,
        );
        let original = reply(&s, r#"{"op":"run","name":"q","graph":"g"}"#);
        let r = reply(&s, &format!(r#"{{"op":"save","graph":"g","path":"{snap}"}}"#));
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(r.get("statements").unwrap().as_u64(), Some(1));
        assert!(std::path::Path::new(&format!("{snap}.art")).exists(), "sidecar must be written");

        // A brand-new service: nothing loaded, nothing prepared.
        let fresh = Service::new(8);
        let r = reply(&fresh, &format!(r#"{{"op":"open","name":"g2","path":"{snap}"}}"#));
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "open failed: {r:?}");
        assert_eq!(r.get("nodes").unwrap().as_u64(), Some(6));
        assert_eq!(r.get("statements").unwrap().as_u64(), Some(1));

        let warm = reply(&fresh, r#"{"op":"run","name":"q","graph":"g2"}"#);
        assert_eq!(
            warm.get("registry").unwrap().as_str(),
            Some("hit"),
            "first run after open must hit the warm-installed plan"
        );
        assert_eq!(
            warm.get("stats").unwrap().get("sim_cache_misses").unwrap().as_u64(),
            Some(0),
            "warm reopen must not recompile any sim table"
        );
        assert_eq!(warm.get("answers").unwrap(), original.get("answers").unwrap());
        assert_eq!(fresh.registry.stats().prepared, 0, "open never compiles");

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Re-preparing a statement orphans its old sidecar entry; the next
    /// `save` garbage-collects it, reports `sidecar_gc`, and a warm `open`
    /// installs only the live statement.
    #[test]
    fn save_garbage_collects_orphaned_sidecar_entries() {
        let dir = scratch_dir("sidecar-gc");
        let snap = dir.join("g.snap");
        let snap = snap.to_str().unwrap();

        let s = loaded_service();
        reply(
            &s,
            r#"{"op":"prepare","name":"q","query":"Ans(x, y) <- (x, p, y), L(p) = a a","graph":"g"}"#,
        );
        // First save: no previous sidecar, nothing to collect.
        let r = reply(&s, &format!(r#"{{"op":"save","graph":"g","path":"{snap}"}}"#));
        assert_eq!(r.get("sidecar_gc").unwrap().as_u64(), Some(0));

        // Same registry contents: the rewrite drops nothing.
        let r = reply(&s, &format!(r#"{{"op":"save","graph":"g","path":"{snap}"}}"#));
        assert_eq!(r.get("sidecar_gc").unwrap().as_u64(), Some(0));

        // Re-prepare `q` with new text: the on-disk entry for the old text
        // is now an orphan, and the next save reports collecting it.
        reply(
            &s,
            r#"{"op":"prepare","name":"q","query":"Ans(x, y) <- (x, p, y), L(p) = a a a","graph":"g"}"#,
        );
        let r = reply(&s, &format!(r#"{{"op":"save","graph":"g","path":"{snap}"}}"#));
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(r.get("statements").unwrap().as_u64(), Some(1));
        assert_eq!(r.get("sidecar_gc").unwrap().as_u64(), Some(1), "stale entry not collected");

        // A fresh service warms exactly the live statement, under the new
        // text: a cycle of six `a`-edges has six `a a a` answers.
        let fresh = Service::new(8);
        let r = reply(&fresh, &format!(r#"{{"op":"open","name":"g2","path":"{snap}"}}"#));
        assert_eq!(r.get("statements").unwrap().as_u64(), Some(1));
        let warm = reply(&fresh, r#"{"op":"run","name":"q","graph":"g2"}"#);
        assert_eq!(warm.get("registry").unwrap().as_str(), Some("hit"));
        assert_eq!(warm.get("count").unwrap().as_u64(), Some(6));

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Golden `save`/`open` error paths: missing file, version mismatch,
    /// checksum failure, and a duplicate catalog name all produce structured
    /// `ok:false` replies on a connection that keeps serving.
    #[test]
    fn save_open_error_paths_reply_structurally_and_keep_the_connection() {
        let dir = scratch_dir("errors");
        let snap = dir.join("g.snap");
        let snap_str = snap.to_str().unwrap();

        let s = loaded_service();
        reply(
            &s,
            r#"{"op":"prepare","name":"q","query":"Ans(x, y) <- (x, p, y), L(p) = a a","graph":"g"}"#,
        );

        // Save needs a cataloged graph and writable path.
        assert_error_reply(
            &s,
            &format!(r#"{{"op":"save","graph":"missing","path":"{snap_str}"}}"#),
            "unknown graph",
        );
        let bad_dir = dir.join("no-such-dir/g.snap");
        assert_error_reply(
            &s,
            &format!(r#"{{"op":"save","graph":"g","path":"{}"}}"#, bad_dir.to_str().unwrap()),
            "cannot write",
        );

        let r = reply(&s, &format!(r#"{{"op":"save","graph":"g","path":"{snap_str}"}}"#));
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true));

        // Open: missing file.
        let gone = dir.join("gone.snap");
        assert_error_reply(
            &s,
            &format!(r#"{{"op":"open","name":"h","path":"{}"}}"#, gone.to_str().unwrap()),
            "cannot read",
        );
        // Open: duplicate catalog name.
        assert_error_reply(
            &s,
            &format!(r#"{{"op":"open","name":"g","path":"{snap_str}"}}"#),
            "already cataloged",
        );
        // Open: future format version.
        let mut bytes = std::fs::read(&snap).unwrap();
        let versioned = dir.join("future.snap");
        bytes[8] = 99;
        std::fs::write(&versioned, &bytes).unwrap();
        assert_error_reply(
            &s,
            &format!(r#"{{"op":"open","name":"h","path":"{}"}}"#, versioned.to_str().unwrap()),
            "format version mismatch",
        );
        // Open: flipped payload bit. The byte just before the trailing
        // 8-byte checksum is always inside the last section's payload.
        let mut bytes = std::fs::read(&snap).unwrap();
        let corrupt = dir.join("corrupt.snap");
        let mid = bytes.len() - 9;
        bytes[mid] ^= 0x40;
        std::fs::write(&corrupt, &bytes).unwrap();
        assert_error_reply(
            &s,
            &format!(r#"{{"op":"open","name":"h","path":"{}"}}"#, corrupt.to_str().unwrap()),
            "checksum mismatch",
        );
        // A corrupt *sidecar* must fail the open without publishing the graph.
        let good2 = dir.join("good2.snap");
        std::fs::copy(&snap, &good2).unwrap();
        let mut art = std::fs::read(format!("{snap_str}.art")).unwrap();
        let mid = art.len() - 9;
        art[mid] ^= 0x01;
        std::fs::write(format!("{}.art", good2.to_str().unwrap()), &art).unwrap();
        assert_error_reply(
            &s,
            &format!(r#"{{"op":"open","name":"h","path":"{}"}}"#, good2.to_str().unwrap()),
            "checksum mismatch",
        );
        assert!(s.catalog.get("h").is_none(), "failed opens must not catalog the graph");

        // The connection is intact: the same service still saves and runs.
        let r = reply(&s, r#"{"op":"run","name":"q","graph":"g"}"#);
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true));

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every request may carry an `id` tag (string or integer), echoed in
    /// the reply — including error replies — so pipelined clients can match
    /// out-of-order completions. Malformed tags are rejected loudly.
    #[test]
    fn id_tags_echo_in_replies_and_reject_malformed() {
        let s = loaded_service();
        reply(
            &s,
            r#"{"op":"prepare","name":"q","query":"Ans(x, y) <- (x, p, y), L(p) = a a","graph":"g"}"#,
        );

        let r = reply(&s, r#"{"op":"run","name":"q","graph":"g","id":"req-7"}"#);
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(r.get("id").unwrap().as_str(), Some("req-7"));

        let r = reply(&s, r#"{"op":"run","name":"q","graph":"g","id":42}"#);
        assert_eq!(r.get("id").unwrap().as_u64(), Some(42));

        // Error replies echo the id too — that's what makes them matchable.
        let r = reply(&s, r#"{"op":"run","name":"nope","graph":"g","id":"e1"}"#);
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(r.get("id").unwrap().as_str(), Some("e1"));

        // Malformed tags: float, bool, null, array.
        for bad in [r#"1.5"#, "true", "null", "[1]"] {
            let r = reply(&s, &format!(r#"{{"op":"stats","id":{bad}}}"#));
            assert_eq!(r.get("ok").unwrap().as_bool(), Some(false), "id {bad} must be rejected");
            assert!(r.get("error").unwrap().as_str().unwrap().contains("id"));
            assert!(r.get("id").is_none(), "an invalid id must not be echoed");
        }
    }

    /// The `batch` op runs N sub-requests under batch-level defaults,
    /// returning per-entry results (errors inline, never batch-fatal) in
    /// request order.
    #[test]
    fn batch_runs_sub_requests_with_defaults_and_inline_errors() {
        let s = loaded_service();
        reply(
            &s,
            r#"{"op":"prepare","name":"q","query":"Ans(x, y) <- (x, p, y), L(p) = a a","graph":"g"}"#,
        );
        let single = reply(&s, r#"{"op":"run","name":"q","graph":"g"}"#);

        // Defaults fill in name/graph; entries override per-field; a bad
        // entry errors inline without failing its neighbors.
        let r = reply(
            &s,
            r#"{"op":"batch","name":"q","graph":"g","requests":[
                {},
                {"mode":"boolean"},
                {"op":"stats"},
                {"name":"missing"},
                {"op":"prepare"}
            ]}"#,
        );
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "batch reply: {r:?}");
        assert_eq!(r.get("count").unwrap().as_u64(), Some(5));
        let results = r.get("results").unwrap().as_arr().unwrap();
        assert_eq!(results[0].get("answers").unwrap(), single.get("answers").unwrap());
        assert_eq!(results[1].get("answer").unwrap().as_bool(), Some(true));
        assert!(results[2].get("registry").is_some(), "stats sub-op runs: {:?}", results[2]);
        assert_eq!(results[3].get("ok").unwrap().as_bool(), Some(false));
        assert!(results[3].get("error").unwrap().as_str().unwrap().contains("unknown statement"));
        assert_eq!(results[4].get("ok").unwrap().as_bool(), Some(false));
        assert!(results[4].get("error").unwrap().as_str().unwrap().contains("run/check/explain"));

        // Amortization is observable: the whole batch did ONE registry
        // lookup for (q, g) — the two successful runs shared it.
        let st = reply(&s, r#"{"op":"stats"}"#);
        assert_eq!(st.get("admission").unwrap().get("batched").unwrap().as_u64(), Some(5));
        let hits = st.get("registry").unwrap().get("hits").unwrap().as_u64().unwrap();
        assert_eq!(hits, 1, "batch must amortize registry lookups (1 hit from the single run)");
    }

    /// Golden batch error paths: missing/empty/oversized `requests`, and
    /// non-object entries.
    #[test]
    fn batch_error_paths_reply_structurally() {
        let s = loaded_service();
        assert_error_reply(&s, r#"{"op":"batch"}"#, "requests");
        assert_error_reply(&s, r#"{"op":"batch","requests":[]}"#, "must not be empty");
        assert_error_reply(&s, r#"{"op":"batch","requests":"run"}"#, "requests");
        let oversized =
            format!(r#"{{"op":"batch","requests":[{}]}}"#, vec!["{}"; MAX_BATCH + 1].join(","));
        assert_error_reply(&s, &oversized, "batch too large");
        // A non-object entry errors inline, not batch-fatally.
        let r = reply(&s, r#"{"op":"batch","requests":[[1,2]]}"#);
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true));
        let results = r.get("results").unwrap().as_arr().unwrap();
        assert!(results[0].get("error").unwrap().as_str().unwrap().contains("request object"));
    }

    /// The `stats` reply surfaces admission gauges and per-shard cache
    /// counters that aggregate to the registry totals.
    #[test]
    fn stats_surfaces_admission_and_shard_counters() {
        let s = loaded_service();
        reply(
            &s,
            r#"{"op":"prepare","name":"q","query":"Ans(x, y) <- (x, p, y), L(p) = a a","graph":"g"}"#,
        );
        reply(&s, r#"{"op":"run","name":"q","graph":"g"}"#);
        reply(&s, r#"{"op":"run","name":"q","graph":"g"}"#);
        let st = reply(&s, r#"{"op":"stats"}"#);

        let adm = st.get("admission").unwrap();
        for key in [
            "accepted",
            "rejected",
            "active",
            "in_flight",
            "queue_depth",
            "pipelined",
            "batched",
            "reply_overflows",
        ] {
            assert!(adm.get(key).and_then(Value::as_u64).is_some(), "admission.{key} missing");
        }
        // The gauge counts the stats request itself — the one in flight now.
        assert_eq!(adm.get("in_flight").unwrap().as_u64(), Some(1));

        let reg = st.get("registry").unwrap();
        let shards = reg.get("shards").unwrap().as_arr().unwrap();
        assert_eq!(shards.len(), crate::registry::SHARD_COUNT);
        let hit_sum: u64 = shards.iter().map(|s| s.get("hits").unwrap().as_u64().unwrap()).sum();
        assert_eq!(Some(hit_sum), reg.get("hits").unwrap().as_u64());

        let cat = st.get("catalog").unwrap();
        assert!(cat.get("hits").unwrap().as_u64().unwrap() >= 2, "runs looked the graph up");
        assert_eq!(
            cat.get("shards").unwrap().as_arr().unwrap().len(),
            crate::registry::SHARD_COUNT
        );
    }

    /// `threads` is no longer a request field: `run`, `trace`, `explain`
    /// and a batch-level default carrying it — far above any cap the server
    /// once had — are answered exactly as without it, and `stats` reports
    /// no thread cap.
    #[test]
    fn retired_threads_field_is_ignored_on_the_wire() {
        let s = loaded_service();
        reply(
            &s,
            r#"{"op":"prepare","name":"q","query":"Ans(x, y) <- (x, p, y), L(p) = a a","graph":"g"}"#,
        );
        // The answers of a reply, or of every sub-reply of a batch.
        let answers = |line: &str| -> Vec<String> {
            let r = reply(&s, line);
            let subs =
                r.get("results").and_then(Value::as_arr).map_or(vec![&r], |rs| rs.iter().collect());
            subs.iter()
                .map(|sub| {
                    assert_eq!(sub.get("ok").and_then(Value::as_bool), Some(true), "{line}");
                    sub.get("answers").unwrap().to_string()
                })
                .collect()
        };
        for without in [
            r#"{"op":"run","name":"q","graph":"g"}"#,
            r#"{"op":"trace","name":"q","graph":"g"}"#,
            r#"{"op":"explain","name":"q","graph":"g"}"#,
            r#"{"op":"batch","name":"q","graph":"g","requests":[{},{"op":"explain"}]}"#,
        ] {
            let with = without.replacen(r#""graph":"g""#, r#""graph":"g","threads":64"#, 1);
            assert_eq!(answers(&with), answers(without), "{with}");
        }
        let Value::Obj(stats) = reply(&s, r#"{"op":"stats"}"#) else { panic!("stats object") };
        assert!(stats.iter().all(|(k, _)| !k.contains("thread")), "stats reports a thread knob");
    }

    #[test]
    fn stats_reports_version_and_uptime() {
        let s = Service::new(8);
        let st = reply(&s, r#"{"op":"stats"}"#);
        assert_eq!(
            st.get("version").and_then(Value::as_str),
            Some(env!("CARGO_PKG_VERSION")),
            "stats must carry the build version"
        );
        assert!(st.get("uptime_s").and_then(Value::as_u64).is_some());
    }

    /// The names of a trace reply's spans, flattened depth-first — the
    /// pinned golden for the span-tree shape (durations vary, names don't).
    fn span_names(spans: &[Value]) -> Vec<String> {
        let mut out = Vec::new();
        for s in spans {
            out.push(s.get("name").and_then(Value::as_str).unwrap().to_string());
            if let Some(kids) = s.get("children").and_then(Value::as_arr) {
                out.extend(span_names(kids));
            }
        }
        out
    }

    #[test]
    fn trace_op_span_tree_golden_and_latency_reconciliation() {
        let s = loaded_service();
        reply(
            &s,
            r#"{"op":"prepare","name":"q","query":"Ans(x, y) <- (x, p, y), L(p) = a a","graph":"g"}"#,
        );
        let run = reply(&s, r#"{"op":"run","name":"q","graph":"g"}"#); // warm the bound plan
        let r = reply(&s, r#"{"op":"trace","name":"q","graph":"g"}"#);
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(r.get("registry").unwrap().as_str(), Some("hit"));
        assert_eq!(
            r.get("answers").unwrap(),
            run.get("answers").unwrap(),
            "tracing must not change answers"
        );

        let trace = r.get("trace").unwrap();
        let spans = trace.get("spans").unwrap().as_arr().unwrap();
        // Pinned golden: the span tree of a warm nodes-mode run of a plain
        // CRPQ (exact relaxation: no sim-table compile phase).
        assert_eq!(
            span_names(spans),
            ["request", "resolve", "run", "plan", "reach:p", "search", "render"],
            "span-tree shape changed"
        );

        // Spans are monotonic: depth-first flattening happens to be
        // start-time order for this tree, and children nest in parents.
        fn check_nesting(span: &Value) {
            let start = span.get("start_us").unwrap().as_f64().unwrap();
            let dur = span.get("dur_us").unwrap().as_f64().unwrap();
            assert!(dur > 0.0, "unclosed span");
            let mut cursor = start;
            for kid in span.get("children").and_then(Value::as_arr).unwrap_or(&[]) {
                let ks = kid.get("start_us").unwrap().as_f64().unwrap();
                let kd = kid.get("dur_us").unwrap().as_f64().unwrap();
                assert!(ks >= cursor, "child starts before its predecessor ends");
                assert!(ks + kd <= start + dur + 0.002, "child escapes its parent");
                cursor = ks;
                check_nesting(kid);
            }
        }
        check_nesting(&spans[0]);

        // Acceptance criterion: the root's child phase durations sum to
        // within 10% of the histogram-recorded server-side latency.
        let total = trace.get("server_latency_us").unwrap().as_f64().unwrap();
        let phase_sum: f64 = spans[0]
            .get("children")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|c| c.get("dur_us").unwrap().as_f64().unwrap())
            .sum();
        assert!(
            (phase_sum - total).abs() <= total * 0.10,
            "phase sum {phase_sum}µs vs recorded latency {total}µs is off by more than 10%"
        );
        // And the histogram really recorded that one trace request.
        let h = s.metrics.histogram_with(REQUEST_HISTOGRAM, &[("op", "trace")], "");
        assert_eq!(h.count(), 1);
        assert!(h.sum() <= total.ceil() as u64);
    }

    #[test]
    fn trace_op_with_inline_query_traces_cold_pipeline() {
        let s = loaded_service();
        let r = reply(
            &s,
            r#"{"op":"trace","graph":"g","query":"Ans(x, y) <- (x, p, y), L(p) = a a","mode":"boolean"}"#,
        );
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(r.get("registry").unwrap().as_str(), Some("inline"));
        assert_eq!(r.get("answer").unwrap().as_bool(), Some(true));
        let spans = r.get("trace").unwrap().get("spans").unwrap().as_arr().unwrap();
        let names = span_names(spans);
        for expected in ["parse", "compile", "bind", "run", "search"] {
            assert!(names.iter().any(|n| n == expected), "missing span `{expected}` in {names:?}");
        }
        // Nothing was installed in the registry.
        assert_eq!(s.registry.len(), 0);
    }

    #[test]
    fn metrics_op_counts_requests_per_op() {
        let s = loaded_service();
        reply(
            &s,
            r#"{"op":"prepare","name":"q","query":"Ans(x, y) <- (x, p, y), L(p) = a a","graph":"g"}"#,
        );
        for _ in 0..3 {
            reply(&s, r#"{"op":"run","name":"q","graph":"g"}"#);
        }
        let r = reply(&s, r#"{"op":"metrics"}"#);
        let text = r.get("text").unwrap().as_str().unwrap();
        assert!(text.contains("# TYPE ecrpq_request_us histogram"), "missing histogram:\n{text}");
        assert!(text.contains("ecrpq_request_us_count{op=\"run\"} 3"), "run count wrong:\n{text}");
        assert!(text.contains("ecrpq_request_us_bucket{op=\"run\",le=\"+Inf\"} 3"));
        assert!(text.contains("# TYPE ecrpq_cache_hit_rate gauge"));
        assert!(text.contains("ecrpq_uptime_seconds"));
        // The shard hit-rate gauges cover both caches.
        assert!(text.contains("ecrpq_shard_hit_rate{cache=\"registry\",shard=\"0\"}"));
        assert!(text.contains("ecrpq_shard_hit_rate{cache=\"catalog\",shard=\"0\"}"));
        // Mirrored transport counters: requests so far = load + prepare +
        // 3 runs + this metrics request.
        assert!(text.contains("ecrpq_requests_total 6"), "requests_total wrong:\n{text}");

        let j = reply(&s, r#"{"op":"metrics","format":"json"}"#);
        let fams = j.get("metrics").unwrap().as_arr().unwrap();
        let run_hist = fams
            .iter()
            .find(|f| {
                f.get("name").and_then(Value::as_str) == Some(REQUEST_HISTOGRAM)
                    && f.get("labels").and_then(|l| l.get("op")).and_then(Value::as_str)
                        == Some("run")
            })
            .expect("run histogram family in JSON metrics");
        assert_eq!(run_hist.get("count").and_then(Value::as_u64), Some(3));
        assert!(run_hist.get("p50").and_then(Value::as_u64).is_some());

        let bad = reply(&s, r#"{"op":"metrics","format":"xml"}"#);
        assert_eq!(bad.get("ok").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn slowlog_records_requests_over_threshold() {
        let s = loaded_service();
        // Empty until a threshold is set (0 disables the log).
        reply(&s, r#"{"op":"stats"}"#);
        let r = reply(&s, r#"{"op":"slowlog"}"#);
        assert_eq!(r.get("count").unwrap().as_u64(), Some(0));
        assert_eq!(r.get("threshold_ms").unwrap().as_u64(), Some(0));

        // A 1µs threshold marks everything slow.
        s.slow_query_us.store(1, Ordering::Relaxed);
        reply(
            &s,
            r#"{"op":"prepare","name":"q","query":"Ans(x, y) <- (x, p, y), L(p) = a a","graph":"g"}"#,
        );
        reply(&s, r#"{"op":"run","name":"q","graph":"g"}"#);
        let r = reply(&s, r#"{"op":"slowlog","limit":2}"#);
        let entries = r.get("entries").unwrap().as_arr().unwrap();
        assert_eq!(entries.len(), 2);
        // Newest first: the run precedes this slowlog request's own entry
        // window (slowlog sees entries recorded *before* it runs).
        assert_eq!(entries[0].get("op").unwrap().as_str(), Some("run"));
        assert_eq!(entries[0].get("name").unwrap().as_str(), Some("q"));
        assert_eq!(entries[0].get("graph").unwrap().as_str(), Some("g"));
        assert!(entries[0].get("micros").unwrap().as_u64().unwrap() >= 1);
        assert_eq!(entries[0].get("error").unwrap().as_bool(), Some(false));
        assert_eq!(entries[1].get("op").unwrap().as_str(), Some("prepare"));

        // Errors are flagged.
        let bad = reply(&s, r#"{"op":"run","name":"nope","graph":"g"}"#);
        assert_eq!(bad.get("ok").unwrap().as_bool(), Some(false));
        let r = reply(&s, r#"{"op":"slowlog","limit":1}"#);
        let entries = r.get("entries").unwrap().as_arr().unwrap();
        assert_eq!(entries[0].get("op").unwrap().as_str(), Some("run"));
        assert_eq!(entries[0].get("error").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn trace_works_as_a_batch_entry() {
        let s = loaded_service();
        reply(
            &s,
            r#"{"op":"prepare","name":"q","query":"Ans(x, y) <- (x, p, y), L(p) = a a","graph":"g"}"#,
        );
        let r = reply(
            &s,
            r#"{"op":"batch","name":"q","graph":"g","requests":[{"op":"run"},{"op":"trace"}]}"#,
        );
        let results = r.get("results").unwrap().as_arr().unwrap();
        assert_eq!(results.len(), 2);
        let traced = &results[1];
        assert_eq!(traced.get("ok").unwrap().as_bool(), Some(true));
        assert!(traced.get("trace").is_some());
        assert_eq!(traced.get("answers").unwrap(), results[0].get("answers").unwrap());
    }

    /// Sorted `answers` rows of a reply, as vectors of node tokens.
    fn answer_rows(r: &Value) -> Vec<Vec<String>> {
        let mut rows: Vec<Vec<String>> = r
            .get("answers")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|row| {
                row.as_arr().unwrap().iter().map(|v| v.as_str().unwrap().to_string()).collect()
            })
            .collect();
        rows.sort();
        rows
    }

    #[test]
    fn add_remove_edges_update_maintained_runs_incrementally() {
        let s = loaded_service();
        reply(
            &s,
            r#"{"op":"prepare","name":"q","query":"Ans(x, y) <- (x, p, y), L(p) = a a","graph":"g"}"#,
        );
        let before = reply(&s, r#"{"op":"run","name":"q","graph":"g"}"#);
        assert_eq!(before.get("count").unwrap().as_u64(), Some(6));

        // A chord n0 -a-> n3 adds the two-step answers (n0, n4) and
        // (n5, n3).
        let m = reply(&s, r#"{"op":"add_edges","graph":"g","edges":[["n0","a","n3"]]}"#);
        assert_eq!(m.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(m.get("added").unwrap().as_u64(), Some(1));
        assert_eq!(m.get("pending").unwrap().as_u64(), Some(1));
        assert_eq!(m.get("merged").unwrap().as_bool(), Some(false));

        // The delta-maintained run: registry hit, no sim compilation, and
        // the answer set reflects the overlay.
        let after = reply(&s, r#"{"op":"run","name":"q","graph":"g"}"#);
        assert_eq!(after.get("registry").unwrap().as_str(), Some("hit"));
        assert_eq!(after.get("count").unwrap().as_u64(), Some(8));
        let misses = after.get("stats").unwrap().get("sim_cache_misses").unwrap().as_u64();
        assert_eq!(misses, Some(0));
        let rows = answer_rows(&after);
        assert!(rows.contains(&vec!["n0".to_string(), "n4".to_string()]));
        assert!(rows.contains(&vec!["n5".to_string(), "n3".to_string()]));

        // Removing the chord returns exactly the original answers.
        let m = reply(&s, r#"{"op":"remove_edges","graph":"g","edges":[["n0","a","n3"]]}"#);
        assert_eq!(m.get("removed").unwrap().as_u64(), Some(1));
        assert_eq!(m.get("maintained").unwrap().as_u64(), Some(1));
        let restored = reply(&s, r#"{"op":"run","name":"q","graph":"g"}"#);
        assert_eq!(answer_rows(&restored), answer_rows(&before));

        // A remove that matches nothing is `missing`, not an error.
        let m = reply(&s, r#"{"op":"remove_edges","graph":"g","edges":[["n0","a","n3"]]}"#);
        assert_eq!(m.get("removed").unwrap().as_u64(), Some(0));
        assert_eq!(m.get("missing").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn delta_new_labels_and_nodes_never_satisfy_old_constraints() {
        let s = loaded_service();
        reply(
            &s,
            r#"{"op":"prepare","name":"q","query":"Ans(x, y) <- (x, p, y), L(p) = a a","graph":"g"}"#,
        );
        reply(&s, r#"{"op":"run","name":"q","graph":"g"}"#);
        // A new node and a new label via `text` edge lines: the `b` edge
        // can never match `a a`, so the answer set is unchanged.
        let m = reply(&s, r#"{"op":"add_edges","graph":"g","text":"hub b n0\nn1 b hub\n"}"#);
        assert_eq!(m.get("added").unwrap().as_u64(), Some(2));
        assert_eq!(m.get("nodes").unwrap().as_u64(), Some(7));
        let r = reply(&s, r#"{"op":"run","name":"q","graph":"g"}"#);
        assert_eq!(r.get("count").unwrap().as_u64(), Some(6));
    }

    #[test]
    fn merge_threshold_crossing_publishes_a_fresh_hot_epoch() {
        let s = loaded_service();
        reply(
            &s,
            r#"{"op":"prepare","name":"q","query":"Ans(x, y) <- (x, p, y), L(p) = a a","graph":"g"}"#,
        );
        reply(&s, r#"{"op":"run","name":"q","graph":"g"}"#);
        let m = reply(
            &s,
            r#"{"op":"add_edges","graph":"g","edges":[["n0","a","n3"]],"merge_threshold":2}"#,
        );
        assert_eq!(m.get("merged").unwrap().as_bool(), Some(false));
        // Build the maintained state while the overlay is dirty.
        let dirty = reply(&s, r#"{"op":"run","name":"q","graph":"g"}"#);
        assert_eq!(dirty.get("count").unwrap().as_u64(), Some(8));
        // The second op crosses the threshold: a sealed epoch is published
        // and the maintained statement is rebound onto it.
        let m = reply(&s, r#"{"op":"add_edges","graph":"g","edges":[["n1","a","n4"]]}"#);
        assert_eq!(m.get("merged").unwrap().as_bool(), Some(true));
        assert_eq!(m.get("merges").unwrap().as_u64(), Some(1));
        assert_eq!(m.get("pending").unwrap().as_u64(), Some(0));
        assert_eq!(m.get("maintained").unwrap().as_u64(), Some(1));
        // The next run takes the cold path on the merged epoch — and is a
        // registry hit with zero compilations, because the rebind installed
        // the new epoch's plan.
        let r = reply(&s, r#"{"op":"run","name":"q","graph":"g"}"#);
        assert_eq!(r.get("registry").unwrap().as_str(), Some("hit"));
        assert_eq!(r.get("count").unwrap().as_u64(), Some(9));
        let misses = r.get("stats").unwrap().get("sim_cache_misses").unwrap().as_u64();
        assert_eq!(misses, Some(0));
        // `stats` reports the overlay drained and one merge.
        let st = reply(&s, r#"{"op":"stats"}"#);
        let live = st.get("live").unwrap().as_arr().unwrap();
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].get("graph").unwrap().as_str(), Some("g"));
        assert_eq!(live[0].get("pending").unwrap().as_u64(), Some(0));
        assert_eq!(live[0].get("merges").unwrap().as_u64(), Some(1));
        assert_eq!(live[0].get("merge_threshold").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn non_nodes_reads_flush_the_overlay_first() {
        let s = loaded_service();
        reply(
            &s,
            r#"{"op":"prepare","name":"q","query":"Ans(x, y) <- (x, p, y), L(p) = a a","graph":"g"}"#,
        );
        reply(&s, r#"{"op":"add_edges","graph":"g","edges":[["n0","a","n3"]]}"#);
        // A boolean-mode run cannot be served from maintained rows: the
        // overlay is merged and the run sees the new edge.
        let r = reply(&s, r#"{"op":"run","name":"q","graph":"g","mode":"boolean"}"#);
        assert_eq!(r.get("answer").unwrap().as_bool(), Some(true));
        let st = reply(&s, r#"{"op":"stats"}"#);
        let live = st.get("live").unwrap().as_arr().unwrap();
        assert_eq!(live[0].get("pending").unwrap().as_u64(), Some(0));
        assert_eq!(live[0].get("merges").unwrap().as_u64(), Some(1));
        // `check` sees the merged graph: (n0, n4) is an answer only via the
        // added chord n0 -a-> n3.
        let c = reply(&s, r#"{"op":"check","name":"q","graph":"g","nodes":["n0","n4"]}"#);
        assert_eq!(c.get("member").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn reload_discards_the_overlay_and_mutation_error_paths() {
        let s = loaded_service();
        reply(&s, r#"{"op":"add_edges","graph":"g","edges":[["n0","a","n3"]]}"#);
        reply(&s, r#"{"op":"load","graph":"g","generator":"cycle:6:a"}"#);
        let st = reply(&s, r#"{"op":"stats"}"#);
        assert_eq!(st.get("live").unwrap().as_arr().unwrap().len(), 0);

        for (line, needle) in [
            (r#"{"op":"add_edges","graph":"nope","edges":[["a","x","b"]]}"#, "unknown graph"),
            (r#"{"op":"add_edges","graph":"g"}"#, "non-empty"),
            (r#"{"op":"add_edges","graph":"g","edges":[["a","x"]]}"#, "[from, label, to]"),
            (r#"{"op":"add_edges","graph":"g","edges":[[1,2,3]]}"#, "must be strings"),
            (r#"{"op":"add_edges","graph":"g","text":"a x"}"#, "from label to"),
            (
                r#"{"op":"add_edges","graph":"g","edges":[["n0","a","n3"]],"merge_threshold":"x"}"#,
                "`merge_threshold` must be a non-negative integer",
            ),
            (
                r#"{"op":"remove_edges","graph":"g","edges":[["n0","a","n1"]],"merge_threshold":-1}"#,
                "`merge_threshold` must be a non-negative integer",
            ),
        ] {
            assert_error_reply(&s, line, needle);
        }

        // A rejected request must not mutate the server: with a write
        // pending, requests that fail on their mode or statement name leave
        // the overlay unmerged, so the next write's counters are exactly
        // what they would have been without them.
        reply(&s, r#"{"op":"prepare","name":"q","query":"Ans(x, y) <- (x, p, y)","graph":"g"}"#);
        let first = reply(&s, r#"{"op":"add_edges","graph":"g","edges":[["n0","a","n3"]]}"#);
        for (line, needle) in [
            (r#"{"op":"run","name":"q","graph":"g","mode":"bogus"}"#, "unknown run mode"),
            (r#"{"op":"trace","name":"q","graph":"g","mode":"bogus"}"#, "unknown run mode"),
            (r#"{"op":"run","name":"nope","graph":"g","mode":"boolean"}"#, "unknown statement"),
            (r#"{"op":"trace","name":"nope","graph":"g"}"#, "unknown statement"),
        ] {
            assert_error_reply(&s, line, needle);
        }
        let second = reply(&s, r#"{"op":"add_edges","graph":"g","edges":[["n1","a","n4"]]}"#);
        let field = |r: &Value, k: &str| r.get(k).and_then(Value::as_u64).unwrap();
        // The rejected first writes left no overlay behind: this is the
        // overlay's first write.
        assert_eq!(field(&first, "version"), 1);
        assert_eq!(field(&first, "pending"), 1);
        assert_eq!(field(&second, "pending"), 2, "a rejected request merged the overlay");
        assert_eq!(field(&second, "version"), field(&first, "version") + 1);
        assert_eq!(field(&second, "merges"), field(&first, "merges"));
        assert_eq!(field(&second, "merges"), 0);
    }

    /// A client that escapes non-BMP characters as UTF-16 surrogate pairs
    /// (Python's `json.dumps` does by default) names the node it means, and
    /// a lone surrogate is a parse error at its byte offset.
    #[test]
    fn surrogate_pair_escapes_name_the_node_they_spell() {
        let s = Service::new(8);
        let r = reply(&s, r#"{"op":"load","graph":"u","edges":"x\ud83d\ude00 a b\n"}"#);
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true));
        reply(
            &s,
            r#"{"op":"prepare","name":"q","query":"Ans(x, y) <- (x, p, y), L(p) = a","graph":"u"}"#,
        );
        let (text, _) = s.dispatch(r#"{"op":"run","name":"q","graph":"u"}"#);
        assert!(text.contains(r#""answers":[["x😀","b"]]"#), "{text}");
        assert_error_reply(
            &s,
            r#"{"op":"load","graph":"v","edges":"x\ud83d a b\n"}"#,
            "unpaired surrogate \\ud83d at byte 35",
        );
    }

    /// A service holding graph `g` whose node names need every escape the
    /// JSON writer knows (`"`, `\`, `\t`, a control character), non-ASCII
    /// names (`é`, a non-BMP `😀`), and anonymous nodes (`n0`, `n4`).
    fn escape_heavy_service() -> Service {
        let mut g = GraphDb::empty();
        let n0 = g.add_node();
        let quote = g.add_named_node("q\"uote");
        let back = g.add_named_node("back\\slash");
        let cafe = g.add_named_node("café");
        let n4 = g.add_node();
        let emoji = g.add_named_node("x😀");
        let ctrl = g.add_named_node("tab\there\u{1}");
        for (f, l, t) in [
            (n0, "a", quote),
            (quote, "a", back),
            (back, "b", cafe),
            (cafe, "a", n4),
            (n4, "b", emoji),
            (emoji, "a", ctrl),
            (ctrl, "a", n0),
            (quote, "b", emoji),
        ] {
            g.add_edge_labeled(f, l, t);
        }
        let s = Service::new(8);
        s.catalog.insert("g", Arc::new(g));
        for (name, query) in [
            ("e", "Ans(x, y) <- (x, p, y), L(p) = a"),
            ("ab", "Ans(x, p) <- (x, p, y), L(p) = a b"),
            ("none", "Ans(x, y) <- (x, p, y), L(p) = b b"),
        ] {
            let line =
                format!(r#"{{"op":"prepare","name":"{name}","query":"{query}","graph":"g"}}"#);
            assert_eq!(reply(&s, &line).get("ok").unwrap().as_bool(), Some(true));
        }
        s
    }

    /// Reply bytes are pinned: every row-valued reply shape (nodes, paths,
    /// `limit`, zero rows, boolean, id-tagged, `batch`, `trace`, and a
    /// maintained read of a dirty overlay) over names that need escaping
    /// renders exactly these lines.
    #[test]
    fn row_replies_are_byte_identical_to_the_goldens() {
        let s = escape_heavy_service();
        let goldens: [(&str, &str); 8] = [
            (
                r#"{"op":"run","name":"e","graph":"g"}"#,
                r##"{"ok":true,"registry":"miss","count":5,"answers":[["n0","q\"uote"],["q\"uote","back\\slash"],["café","n4"],["x😀","tab\there\u0001"],["tab\there\u0001","n0"]],"stats":{"candidates":5,"verified":5,"search_states":0,"sim_cache_hits":0,"sim_cache_misses":1}}"##,
            ),
            (
                r#"{"op":"run","name":"ab","graph":"g","mode":"paths"}"#,
                r##"{"ok":true,"registry":"miss","count":3,"answers":[{"nodes":["n0"],"paths":[["n0","a","q\"uote","b","x😀"]]},{"nodes":["q\"uote"],"paths":[["q\"uote","a","back\\slash","b","café"]]},{"nodes":["café"],"paths":[["café","a","n4","b","x😀"]]}],"stats":{"candidates":3,"verified":3,"search_states":9,"sim_cache_hits":0,"sim_cache_misses":2}}"##,
            ),
            (
                r#"{"op":"run","name":"ab","graph":"g","mode":"paths","limit":1}"#,
                r##"{"ok":true,"registry":"hit","count":1,"answers":[{"nodes":["n0"],"paths":[["n0","a","q\"uote","b","x😀"]]}],"stats":{"candidates":1,"verified":1,"search_states":3,"sim_cache_hits":2,"sim_cache_misses":0}}"##,
            ),
            (
                r#"{"op":"run","name":"e","graph":"g","mode":"boolean"}"#,
                r##"{"ok":true,"registry":"hit","answer":true,"stats":{"candidates":1,"verified":1,"search_states":0,"sim_cache_hits":1,"sim_cache_misses":0}}"##,
            ),
            (
                r#"{"op":"run","name":"none","graph":"g"}"#,
                r##"{"ok":true,"registry":"miss","count":0,"answers":[],"stats":{"candidates":0,"verified":0,"search_states":0,"sim_cache_hits":0,"sim_cache_misses":1}}"##,
            ),
            (
                r#"{"id":"t\"1","op":"run","name":"e","graph":"g"}"#,
                r##"{"id":"t\"1","ok":true,"registry":"hit","count":5,"answers":[["n0","q\"uote"],["q\"uote","back\\slash"],["café","n4"],["x😀","tab\there\u0001"],["tab\there\u0001","n0"]],"stats":{"candidates":5,"verified":5,"search_states":0,"sim_cache_hits":1,"sim_cache_misses":0}}"##,
            ),
            (
                r#"{"op":"batch","graph":"g","requests":[{"name":"e"},{"name":"ab","mode":"paths"}]}"#,
                r##"{"ok":true,"count":2,"results":[{"ok":true,"registry":"hit","count":5,"answers":[["n0","q\"uote"],["q\"uote","back\\slash"],["café","n4"],["x😀","tab\there\u0001"],["tab\there\u0001","n0"]],"stats":{"candidates":5,"verified":5,"search_states":0,"sim_cache_hits":1,"sim_cache_misses":0}},{"ok":true,"registry":"hit","count":3,"answers":[{"nodes":["n0"],"paths":[["n0","a","q\"uote","b","x😀"]]},{"nodes":["q\"uote"],"paths":[["q\"uote","a","back\\slash","b","café"]]},{"nodes":["café"],"paths":[["café","a","n4","b","x😀"]]}],"stats":{"candidates":3,"verified":3,"search_states":9,"sim_cache_hits":2,"sim_cache_misses":0}}]}"##,
            ),
            (
                r#"{"op":"add_edges","graph":"g","edges":[["n4","a","new \"😀\\"],["new \"😀\\","a","n0"]]}"#,
                r##"{"ok":true,"graph":"g","added":2,"removed":0,"missing":0,"nodes":8,"edges":10,"pending":2,"version":1,"merged":false,"merges":0,"maintained":0}"##,
            ),
        ];
        for (line, golden) in goldens {
            let (text, _) = s.dispatch(line);
            assert_eq!(text, golden, "reply to {line}");
        }
        // A maintained read of the dirty overlay.
        let (text, _) = s.dispatch(r#"{"op":"run","name":"e","graph":"g"}"#);
        assert_eq!(
            text,
            r##"{"ok":true,"registry":"hit","count":7,"answers":[["n0","q\"uote"],["q\"uote","back\\slash"],["café","n4"],["n4","new \"😀\\"],["x😀","tab\there\u0001"],["tab\there\u0001","n0"],["new \"😀\\","n0"]],"stats":{"candidates":7,"verified":7,"search_states":0,"sim_cache_hits":1,"sim_cache_misses":0}}"##
        );
        // `trace` carries timings after its `answers`; the prefix is pinned.
        let (text, _) = s.dispatch(r#"{"op":"trace","name":"e","graph":"g"}"#);
        let cut = text.find(r#","trace":"#).expect("a trace reply carries `trace`");
        assert_eq!(
            &text[..cut],
            r##"{"ok":true,"registry":"hit","count":7,"answers":[["n0","q\"uote"],["q\"uote","back\\slash"],["café","n4"],["n4","new \"😀\\"],["x😀","tab\there\u0001"],["tab\there\u0001","n0"],["new \"😀\\","n0"]],"stats":{"candidates":7,"verified":7,"search_states":0,"sim_cache_hits":0,"sim_cache_misses":1}"##
        );
    }
}
