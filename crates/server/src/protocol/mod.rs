//! The line-delimited JSON protocol and its transport-independent service
//! core.
//!
//! A request is one JSON object per line with an `op` field; the reply is
//! one JSON object per line with an `ok` field (plus `error` when `ok` is
//! `false`). Serialization reuses the shared `ecrpq_util::json` writer. Each
//! request is decoded once, up front, into a typed request (`request`
//! module: the op table and every op's fields); the op handlers take its
//! decoded arguments and never read the JSON themselves.
//!
//! **Pipelining.** Every request may carry an optional `"id"` tag (string
//! or integer). The reply echoes the tag, and a tagged request may be
//! answered *out of order* relative to other tagged requests on the same
//! connection — the transport dispatches tagged requests concurrently.
//! Untagged requests keep the original strict one-in/one-out ordering.
//! `close` and `shutdown` must be untagged (they are connection-ordered by
//! nature); tagging them is a protocol error.
//!
//! **Batching.** The `batch` op resolves each distinct graph's catalog
//! entry and bound statement once for the whole batch, so N runs of one statement
//! pay one catalog lookup and one registry lookup instead of N.
//!
//! **Live graphs.** `add_edges`/`remove_edges` write into a [`LiveGraph`]
//! overlay (delta over the sealed epoch) kept in the graph's catalog entry,
//! behind that graph's own lock. Nodes-mode `run`s are served from
//! incrementally maintained answer sets (bit-identical to a cold re-run on
//! the merged graph — `tests/live_graph.rs` enforces it); `check`,
//! `explain`, `trace`, `save` and boolean/paths `run`s first merge the delta
//! into a fresh sealed epoch, which the merge publishes into the graph's
//! entry. Per-graph `stats` never merges: its `graph_stats` describe the
//! sealed epoch, and its `live` entry reports the pending writes. Readers
//! clone the epoch handle and release the entry before they evaluate, so a
//! cold run on one graph never waits for another graph; re-`load`ing a
//! graph swaps in a fresh entry and so discards its overlay.

use crate::catalog::{Entry, GraphCatalog, GraphEntry, GraphSource, LiveState};
use crate::registry::StatementRegistry;
use crate::ServerError;
use ecrpq::eval::{BoundStatement, EvalStats, MaintainedStatement, Mode, PreparedQuery};
use ecrpq::{persist, EvalConfig, Trace};
use ecrpq_automata::Alphabet;
use ecrpq_graph::delta::{LiveGraph, DEFAULT_MERGE_THRESHOLD};
use ecrpq_graph::{snapshot, GraphDb, NodeId, Path};
use ecrpq_util::json::{self, Value};
use ecrpq_util::metrics::{Counter, MetricsRegistry};
use ecrpq_util::trace as qtrace;
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

mod admin;
mod live;
mod mutate;
mod query;
mod request;

pub use request::parse_request;
use request::{Op, ReadOp, Request};

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

/// The transport-independent query service: a graph catalog (the one map
/// keyed by graph name), a statement registry, and the request dispatcher.
/// The TCP server, tests, and any future transport all drive this one type.
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
    /// Merge threshold for overlays created by the first mutation of a
    /// graph (a request-level `merge_threshold` overrides it at creation).
    merge_threshold: usize,
    /// `ecrpq_maintained_reads_total`, resolved on the first maintained
    /// read.
    maintained_reads: OnceLock<Arc<Counter>>,
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
            merge_threshold: DEFAULT_MERGE_THRESHOLD,
            maintained_reads: OnceLock::new(),
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
        match parse_request(line) {
            Ok((req, id)) => self.dispatch_req(&req, id.as_ref()),
            Err(e) => (self.reject_line(&e.0), Control::Continue),
        }
    }

    /// The `ok:false` reply to a request line that never reached an op (not
    /// UTF-8, not JSON, a malformed `id` tag), counted as a request and an
    /// error.
    pub fn reject_line(&self, message: &str) -> String {
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        self.stats.errors.fetch_add(1, Ordering::Relaxed);
        error_obj(message, None).to_string()
    }

    /// Dispatches a request already split by [`parse_request`] into its
    /// object and its validated `id` tag (the pipelined transport reads the
    /// tag to pick a dispatch path). The tag is echoed into the reply —
    /// including error replies.
    pub fn dispatch_req(&self, req: &Value, id: Option<&Value>) -> (String, Control) {
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        self.stats.in_flight.fetch_add(1, Ordering::Relaxed);
        let (reply, control) = match self.dispatch_value(req, id.is_some()) {
            Ok((reply, control)) => (with_id(reply, id), control),
            Err(e) => {
                self.stats.errors.fetch_add(1, Ordering::Relaxed);
                (error_obj(&e.0, id), Control::Continue)
            }
        };
        self.stats.in_flight.fetch_sub(1, Ordering::Relaxed);
        // The reply text starts at a page, not at zero, and so does the
        // answer-row text of `RowsText`. A large reply is rendered
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

    /// Decodes and executes one request, recording its latency, error and
    /// slow-log entry under its op.
    fn dispatch_value(&self, req: &Value, tagged: bool) -> Result<(Value, Control), ServerError> {
        let req = Request::decode(req)?;
        let start = Instant::now();
        let result = self.execute(req, tagged);
        let micros = start.elapsed().as_micros() as u64;
        // The `trace` op records its *root-span* duration itself, so the
        // span tree and the histogram sample are the same measurement; every
        // other op records the full dispatch duration here.
        if req.op != Op::Read(ReadOp::Trace) {
            self.record_request(req.op.name(), micros);
        }
        if result.is_err() {
            self.metrics
                .counter_with("ecrpq_op_errors_total", &[("op", req.op.name())], "Errors by op.")
                .inc();
        }
        self.note_slow(req, micros, result.is_err());
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
    fn note_slow(&self, req: Request<'_>, micros: u64, error: bool) {
        let threshold = self.slow_query_us.load(Ordering::Relaxed);
        if threshold == 0 || micros < threshold {
            return;
        }
        let at_epoch_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let entry = SlowEntry {
            op: req.op.name().to_string(),
            name: req.opt_str("name").ok().flatten().map(str::to_string),
            graph: req.opt_str("graph").ok().flatten().map(str::to_string),
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

    fn entry(&self, name: &str) -> Result<Entry, ServerError> {
        self.catalog.entry(name).ok_or_else(|| ServerError(format!("unknown graph `{name}`")))
    }

    /// The sealed epoch cataloged as `name`.
    fn graph(&self, name: &str) -> Result<Arc<GraphDb>, ServerError> {
        Ok(Arc::clone(&self.entry(name)?.lock().unwrap().epoch))
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

#[cfg(test)]
mod tests {
    use super::request::OPS;
    use super::*;
    use std::collections::HashSet;

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
        // Only the canonical `n<i>` names an anonymous node.
        for nodes in [r#"["n+0","n1"]"#, r#"["n0","n01"]"#] {
            let line = format!(r#"{{"op":"check","name":"q","graph":"g","nodes":{nodes}}}"#);
            assert_error_reply(&s, &line, "unknown node");
        }
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

    /// A field an op reads, present with the wrong type, is rejected with an
    /// error naming it — never read as its default, never skipped for
    /// another field — and the rejected request changes nothing.
    #[test]
    fn mistyped_fields_are_rejected_by_name() {
        let s = loaded_service();
        reply(&s, r#"{"op":"prepare","name":"q","query":"Ans(x, y) <- (x, p, y)","graph":"g"}"#);
        for (line, field) in [
            (r#"{"op":"run","name":"q","graph":"g","mode":1}"#, "mode"),
            (r#"{"op":"metrics","format":5}"#, "format"),
            (r#"{"op":"batch","name":"q","graph":"g","requests":[{"op":7}]}"#, "op"),
            (r#"{"op":"check","name":"q","graph":"g","nodes":"n0"}"#, "nodes"),
            (
                r#"{"op":"prepare","name":"p","query":"Ans(x) <- (x, p, y)","alphabet":"a","graph":"g"}"#,
                "alphabet",
            ),
            (r#"{"op":"stats","graph":5}"#, "graph"),
            (r#"{"op":"trace","name":"q","graph":"g","query":5}"#, "query"),
            (r#"{"op":"load","graph":"h","edges":5,"generator":"cycle:3:a"}"#, "edges"),
        ] {
            let r = reply(&s, line);
            // A batch itself succeeds; its entry carries the error.
            let r = r.get("results").and_then(Value::as_arr).map_or(&r, |results| &results[0]);
            assert_eq!(r.get("ok").and_then(Value::as_bool), Some(false), "{line} -> {r}");
            let msg = r.get("error").and_then(Value::as_str).unwrap();
            assert!(msg.contains(&format!("`{field}`")), "{line}: {msg:?} does not name `{field}`");
        }
        assert!(s.catalog.entry("h").is_none(), "a rejected load cataloged its graph");
        assert_eq!(s.registry.len(), 1, "a rejected prepare registered its statement");
    }

    /// Every op in the table reads back under the name it was looked up by.
    #[test]
    fn op_table_names_round_trip() {
        for (name, op) in OPS {
            assert_eq!(Op::named(name), Some(op));
            assert_eq!(op.name(), name);
        }
    }

    /// The `explain` op reports the chosen plan (direction, join order,
    /// estimated vs actual cardinalities), and the `stats` op surfaces the
    /// graph statistics the planner consumes.
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

        // Unloaded graph, unknown statement, and a request missing its
        // required fields.
        assert_error_reply(&s, r#"{"op":"explain","name":"q","graph":"missing"}"#, "unknown graph");
        assert_error_reply(
            &s,
            r#"{"op":"explain","name":"nope","graph":"g"}"#,
            "unknown statement",
        );
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
        assert!(s.catalog.entry("h").is_none(), "failed opens must not catalog the graph");

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

    /// The `stats` reply surfaces admission gauges and the registry and
    /// catalog cache counters, with no per-shard breakdown.
    #[test]
    fn stats_surfaces_admission_and_cache_counters() {
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
        let n = |v: &Value, k: &str| v.get(k).and_then(Value::as_u64);
        assert_eq!(n(reg, "prepared"), Some(1));
        assert_eq!(n(reg, "misses"), Some(1), "the first run binds");
        assert_eq!(n(reg, "hits"), Some(1), "the second run hits");
        assert_eq!(n(reg, "evictions"), Some(0));
        assert_eq!(n(&st, "bound_cached"), Some(1));
        assert!(reg.get("shards").is_none(), "no per-shard counters");

        let cat = st.get("catalog").unwrap();
        assert!(n(cat, "hits").unwrap() >= 2, "runs looked the graph up");
        assert!(n(cat, "misses").is_some());
        assert!(cat.get("shards").is_none(), "no per-shard counters");
    }

    /// `threads` and `planner` are no longer request fields: `run`,
    /// `trace`, `explain` and a batch-level default carrying either — a
    /// thread count far above any cap the server once had, or the retired
    /// static planner — are answered exactly as without it, and `stats`
    /// reports no thread cap.
    #[test]
    fn retired_threads_and_planner_fields_are_ignored_on_the_wire() {
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
            for retired in [r#""threads":64"#, r#""planner":"static""#] {
                let with =
                    without.replacen(r#""graph":"g""#, &format!(r#""graph":"g",{retired}"#), 1);
                assert_eq!(answers(&with), answers(without), "{with}");
            }
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
        // The hit-rate gauge covers both caches.
        assert!(text.contains("ecrpq_cache_hit_rate{cache=\"registry\"}"));
        assert!(text.contains("ecrpq_cache_hit_rate{cache=\"catalog\"}"));
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
        // The next run is served from the maintained answers, which the
        // merge rebased onto the fresh epoch — a registry hit with zero
        // compilations, because the rebind installed the new epoch's plan.
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

    /// `q` (two `a` hops) prepared on `g`, one dirty read that builds its
    /// maintained answers, then a write that crosses the merge threshold:
    /// the graph is clean again and the maintained answers describe the
    /// merged epoch.
    fn merged_with_view() -> Service {
        let s = loaded_service();
        reply(
            &s,
            r#"{"op":"prepare","name":"q","query":"Ans(x, y) <- (x, p, y), L(p) = a a","graph":"g"}"#,
        );
        reply(
            &s,
            r#"{"op":"add_edges","graph":"g","edges":[["n0","a","n3"]],"merge_threshold":2}"#,
        );
        reply(&s, r#"{"op":"run","name":"q","graph":"g"}"#);
        let m = reply(&s, r#"{"op":"add_edges","graph":"g","edges":[["n1","a","n4"]]}"#);
        assert_eq!(m.get("merged").unwrap().as_bool(), Some(true));
        assert_eq!(m.get("pending").unwrap().as_u64(), Some(0));
        s
    }

    /// The sorted answer rows of a nodes-mode reply.
    fn sorted_answers(r: &Value) -> Vec<String> {
        let rows = r.get("answers").unwrap().as_arr().unwrap();
        let mut rows: Vec<String> = rows.iter().map(|row| format!("{row:?}")).collect();
        rows.sort();
        rows
    }

    /// Runs `text` cold on `g`: prepared under a fresh name, it has no
    /// maintained answers, and on a clean graph none are built.
    fn cold_run(s: &Service, text: &str) -> Value {
        reply(s, &format!(r#"{{"op":"prepare","name":"cold","query":"{text}","graph":"g"}}"#));
        reply(s, r#"{"op":"run","name":"cold","graph":"g"}"#)
    }

    /// `(version, merges, maintained)` of the one live graph.
    fn live_counters(s: &Service) -> (u64, u64, u64) {
        let st = reply(s, r#"{"op":"stats"}"#);
        let live = &st.get("live").unwrap().as_arr().unwrap()[0];
        let get = |k: &str| live.get(k).unwrap().as_u64().unwrap();
        (get("version"), get("merges"), get("maintained"))
    }

    /// The counter `name` as the `metrics` op exposes it (0 until its
    /// first use registers it).
    fn counter(s: &Service, name: &str) -> u64 {
        let m = reply(s, r#"{"op":"metrics"}"#);
        let text = m.get("text").unwrap().as_str().unwrap();
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
            .map_or(0, |v| v.parse().unwrap())
    }

    fn maintained_reads(s: &Service) -> u64 {
        counter(s, "ecrpq_maintained_reads_total")
    }

    #[test]
    fn a_write_recomputes_only_the_rows_it_can_change() {
        let s = loaded_service();
        reply(
            &s,
            r#"{"op":"prepare","name":"q","query":"Ans(x, y) <- (x, p, y), L(p) = a a","graph":"g"}"#,
        );
        reply(&s, r#"{"op":"add_edges","graph":"g","edges":[["n0","a","n3"]]}"#);
        let r0 = reply(&s, r#"{"op":"run","name":"q","graph":"g"}"#);
        let rows = |s: &Service| counter(s, "ecrpq_maintained_rows_recomputed_total");
        let heads = |s: &Service| counter(s, "ecrpq_maintained_answers_changed_total");
        let (before, heads_before) = (rows(&s), heads(&s));
        // On the 6-cycle every node reaches n0, but only n0 (`a` itself) and
        // n5 (`a a`) read a prefix of `a a` ending in the removed `a` edge.
        reply(&s, r#"{"op":"remove_edges","graph":"g","edges":[["n0","a","n3"]]}"#);
        assert_eq!(rows(&s), before + 2);
        let r = reply(&s, r#"{"op":"run","name":"q","graph":"g"}"#);
        // The heads the remove changed: those only one of the two reads has
        // (n0 → n4 and n5 → n3, both through the chord).
        let (old, new) = (sorted_answers(&r0), sorted_answers(&r));
        let moved = old.iter().filter(|h| !new.contains(h)).count()
            + new.iter().filter(|h| !old.contains(h)).count();
        assert_eq!(moved, 2);
        assert_eq!(heads(&s), heads_before + moved as u64);
        let misses = r.get("stats").unwrap().get("sim_cache_misses").unwrap().as_u64();
        assert_eq!(misses, Some(0), "the backward walk's tables are not the reply's");
        let cold = cold_run(&s, "Ans(x, y) <- (x, p, y), L(p) = a a");
        assert_eq!(sorted_answers(&r), sorted_answers(&cold));
        // A label the constraint never reads changes no row.
        reply(&s, r#"{"op":"add_edges","graph":"g","edges":[["n1","b","n4"]]}"#);
        assert_eq!(rows(&s), before + 2);
        assert_eq!(heads(&s), heads_before + moved as u64);
    }

    /// `ecrpq_merge_rows_rewritten_total` rises, on every merge, by the
    /// rows the merge wrote one at a time: each distinct source's out-row
    /// and target's in-row, and both rows of each new node. Every other
    /// row is copied in a run of untouched rows and not counted.
    #[test]
    fn merges_count_the_rows_they_rewrite() {
        let s = loaded_service();
        reply(
            &s,
            r#"{"op":"prepare","name":"q","query":"Ans(x, y) <- (x, p, y), L(p) = a a","graph":"g"}"#,
        );
        let rows = |s: &Service| counter(s, "ecrpq_merge_rows_rewritten_total");
        let merges = |s: &Service| counter(s, "ecrpq_merges_total");
        // (op, edges, nodes the write introduces), each merging at once.
        let writes: [(&str, &[[&str; 3]], usize); 4] = [
            ("add_edges", &[["n0", "a", "n3"], ["n1", "a", "n3"]], 0),
            ("add_edges", &[["n2", "b", "hub"]], 1),
            ("remove_edges", &[["n0", "a", "n3"], ["n1", "a", "n3"]], 0),
            ("remove_edges", &[["n5", "a", "n0"]], 0),
        ];
        for (op, edges, new_nodes) in writes {
            let (before, merges_before) = (rows(&s), merges(&s));
            let sources: HashSet<&str> = edges.iter().map(|e| e[0]).collect();
            let targets: HashSet<&str> = edges.iter().map(|e| e[2]).collect();
            let text: String = edges.iter().map(|[f, l, t]| format!("{f} {l} {t}\\n")).collect();
            let m = reply(
                &s,
                &format!(r#"{{"op":"{op}","graph":"g","text":"{text}","merge_threshold":1}}"#),
            );
            assert_eq!(m.get("merged").unwrap().as_bool(), Some(true), "{op} {edges:?}");
            assert_eq!(merges(&s), merges_before + 1);
            // Each new node here is also a target: only its out-row is extra.
            let want = sources.len() + targets.len() + new_nodes;
            assert_eq!(rows(&s), before + want as u64, "{op} {edges:?}");
        }

        // A read that merges the overlay first counts its rows too.
        reply(&s, r#"{"op":"load","graph":"g2","generator":"cycle:6:a"}"#);
        reply(&s, r#"{"op":"add_edges","graph":"g2","edges":[["n4","a","n0"]]}"#);
        let (before, merges_before) = (rows(&s), merges(&s));
        reply(&s, r#"{"op":"run","name":"q","graph":"g2","mode":"boolean"}"#);
        assert_eq!(merges(&s), merges_before + 1);
        assert_eq!(rows(&s), before + 2, "out-row n4 and in-row n0");
    }

    #[test]
    fn a_read_after_a_merge_is_served_from_the_rebased_view() {
        let s = merged_with_view();
        let before = live_counters(&s);
        let reads = maintained_reads(&s);
        let r = reply(&s, r#"{"op":"run","name":"q","graph":"g"}"#);
        assert_eq!(r.get("count").unwrap().as_u64(), Some(9));
        assert_eq!(maintained_reads(&s), reads + 1, "the read is served from the view");
        assert_eq!(live_counters(&s), before, "a read neither merges nor bumps the version");
        let cold = cold_run(&s, "Ans(x, y) <- (x, p, y), L(p) = a a");
        assert_eq!(maintained_reads(&s), reads + 1, "a cold run is not a maintained read");
        assert_eq!(sorted_answers(&r), sorted_answers(&cold));
        assert_eq!(live_counters(&s), before);
    }

    #[test]
    fn a_re_prepare_on_a_clean_graph_is_not_answered_from_the_stale_view() {
        let s = merged_with_view();
        reply(
            &s,
            r#"{"op":"prepare","name":"q","query":"Ans(x, y) <- (x, p, y), L(p) = a","graph":"g"}"#,
        );
        let reads = maintained_reads(&s);
        let r = reply(&s, r#"{"op":"run","name":"q","graph":"g"}"#);
        assert_eq!(maintained_reads(&s), reads, "the stale view must not answer");
        let cold = cold_run(&s, "Ans(x, y) <- (x, p, y), L(p) = a");
        // One hop over the 6-cycle plus two chords, not the stale 9 two-hop
        // answers.
        assert_eq!(r.get("count").unwrap().as_u64(), Some(8));
        assert_eq!(sorted_answers(&r), sorted_answers(&cold));
    }

    #[test]
    fn a_load_that_replaces_the_graph_drops_its_views() {
        let s = merged_with_view();
        reply(&s, r#"{"op":"load","graph":"g","generator":"cycle:4:a"}"#);
        let st = reply(&s, r#"{"op":"stats"}"#);
        assert_eq!(st.get("live").unwrap().as_arr().unwrap().len(), 0);
        let r = reply(&s, r#"{"op":"run","name":"q","graph":"g"}"#);
        assert_eq!(r.get("count").unwrap().as_u64(), Some(4));
        let cold = cold_run(&s, "Ans(x, y) <- (x, p, y), L(p) = a a");
        assert_eq!(sorted_answers(&r), sorted_answers(&cold));
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
            (r#"{"op":"check","name":"q","graph":"g","nodes":[1,2]}"#, "`nodes`"),
            (r#"{"op":"check","name":"q","graph":"g","paths":[["n0","a"]]}"#, "odd length"),
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

    /// Per-graph `stats` describes the sealed epoch the planner reads and
    /// never merges: the pending write stays pending, and the overlay's
    /// version and merge count stay where the write left them.
    #[test]
    fn per_graph_stats_never_merges() {
        let s = loaded_service();
        let m = reply(&s, r#"{"op":"add_edges","graph":"g","edges":[["n0","a","n3"]]}"#);
        let st = reply(&s, r#"{"op":"stats","graph":"g"}"#);
        let live = &st.get("live").unwrap().as_arr().unwrap()[0];
        let field = |r: &Value, k: &str| r.get(k).and_then(Value::as_u64).unwrap();
        assert_eq!(field(live, "pending"), 1);
        assert_eq!(field(live, "version"), field(&m, "version"));
        assert_eq!(field(live, "merges"), field(&m, "merges"));
        assert_eq!(field(st.get("graph_stats").unwrap(), "edges"), 6, "the sealed epoch's edges");
    }

    /// A `load` replaces the graph for good: a merging writer racing it on
    /// the replaced graph cannot publish that graph's merged epoch over the
    /// loaded one.
    #[test]
    fn a_load_is_never_undone_by_a_merge() {
        let mut undone = Vec::new();
        for round in 0..400u32 {
            let s = Service::new(8);
            reply(&s, r#"{"op":"load","graph":"g","generator":"cycle:6:a"}"#);
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    for i in 0..40 {
                        let op = if i % 2 == 0 { "add_edges" } else { "remove_edges" };
                        let line = format!(
                            r#"{{"op":"{op}","graph":"g","edges":[["n0","a","n3"]],"merge_threshold":1}}"#
                        );
                        assert_eq!(reply(&s, &line).get("ok").unwrap().as_bool(), Some(true));
                    }
                });
                for _ in 0..(round * 37) % 4000 {
                    std::hint::spin_loop();
                }
                let r = reply(&s, r#"{"op":"load","graph":"g","generator":"cycle:9:a"}"#);
                assert_eq!(r.get("nodes").unwrap().as_u64(), Some(9));
            });
            let st = reply(&s, r#"{"op":"stats","graph":"g"}"#);
            if st.get("graph_stats").unwrap().get("nodes").unwrap().as_u64() != Some(9) {
                undone.push(round);
            }
        }
        assert!(undone.is_empty(), "{} of 400 loads undone: rounds {undone:?}", undone.len());
    }

    /// `open` checks the name and publishes the graph in one step: of two
    /// concurrent opens of one name exactly one succeeds, and an open of a
    /// taken name installs no statement.
    #[test]
    fn concurrent_opens_of_one_name_admit_exactly_one() {
        let dir = scratch_dir("concurrent-open");
        let snap = dir.join("g.snap");
        let snap = snap.to_str().unwrap();
        let s = loaded_service();
        reply(
            &s,
            r#"{"op":"prepare","name":"q","query":"Ans(x, y) <- (x, p, y), L(p) = a a","graph":"g"}"#,
        );
        reply(&s, &format!(r#"{{"op":"save","graph":"g","path":"{snap}"}}"#));
        let open = format!(r#"{{"op":"open","name":"h","path":"{snap}"}}"#);

        for round in 0..200 {
            let s = Service::new(8);
            let barrier = std::sync::Barrier::new(2);
            let opened: Vec<bool> = std::thread::scope(|scope| {
                let open_one = || {
                    barrier.wait();
                    reply(&s, &open).get("ok").unwrap().as_bool().unwrap()
                };
                let other = scope.spawn(open_one);
                vec![open_one(), other.join().unwrap()]
            });
            assert_eq!(opened.iter().filter(|&&ok| ok).count(), 1, "round {round}: {opened:?}");
        }

        let taken = loaded_service();
        let r = reply(&taken, &format!(r#"{{"op":"open","name":"g","path":"{snap}"}}"#));
        assert!(r.get("error").unwrap().as_str().unwrap().contains("already cataloged"));
        assert_eq!(taken.registry.len(), 0, "a refused open installed statements");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A run on one graph does not wait for another graph's lock.
    #[test]
    fn graphs_do_not_block_each_other() {
        let s = Arc::new(Service::new(8));
        for g in ["a", "b"] {
            reply(&s, &format!(r#"{{"op":"load","graph":"{g}","generator":"cycle:6:a"}}"#));
        }
        reply(
            &s,
            r#"{"op":"prepare","name":"q","query":"Ans(x, y) <- (x, p, y), L(p) = a","graph":"b"}"#,
        );
        let entry = s.catalog.entry("a").unwrap();
        let held = entry.lock().unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || tx.send(reply(&s, r#"{"op":"run","name":"q","graph":"b"}"#)))
        };
        let r = rx.recv_timeout(std::time::Duration::from_secs(1));
        drop(held);
        reader.join().unwrap().ok();
        let r = r.expect("a run on `b` waited for `a`'s entry lock");
        assert_eq!(r.get("count").unwrap().as_u64(), Some(6));
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
        let mut g = ecrpq_graph::GraphBuilder::default();
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
        s.catalog.insert("g", Arc::new(g.build()));
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
    /// `limit` 1 and 0, zero rows, boolean, id-tagged, `batch`, `trace`, and a
    /// maintained read of a dirty overlay) over names that need escaping
    /// renders exactly these lines.
    #[test]
    fn row_replies_are_byte_identical_to_the_goldens() {
        let s = escape_heavy_service();
        let goldens: [(&str, &str); 9] = [
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
                r#"{"op":"run","name":"ab","graph":"g","mode":"paths","limit":0}"#,
                r##"{"ok":true,"registry":"hit","count":0,"answers":[],"stats":{"candidates":0,"verified":0,"search_states":0,"sim_cache_hits":2,"sim_cache_misses":0}}"##,
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
