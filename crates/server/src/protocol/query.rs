//! The read ops: statement resolution through the per-request cache, `run`,
//! `trace`, `check`, `explain`, `batch`, `prepare`, and answer rendering.

use super::request::{Paths, ReadOp, Request, Run, Strs, Target};
use super::*;

/// Per-request memo of resolved catalog entries and bound statements. A
/// `batch` shares one across all its sub-requests — the amortization that
/// makes batching cheaper than N single requests; single requests get a
/// fresh (empty, allocation-free) one.
#[derive(Default)]
pub(crate) struct BatchCache {
    graphs: HashMap<String, Entry>,
    bound: HashMap<(String, String), Arc<BoundStatement>>,
}

impl Service {
    /// Runs a `batch` request: N read-only sub-requests sharing one
    /// resolution of every graph handle and bound statement they touch.
    /// Each sub-request gets its own entry in `results` (errors included),
    /// so one bad entry never loses the others' replies.
    pub(crate) fn op_batch<'a>(
        &self,
        entries: impl ExactSizeIterator<Item = Result<(ReadOp, Request<'a>), ServerError>>,
    ) -> Value {
        let mut cache = BatchCache::default();
        self.stats.batched.fetch_add(entries.len() as u64, Ordering::Relaxed);
        let results: Vec<Value> = entries
            .map(|entry| match entry.and_then(|(op, req)| self.read(op, req, &mut cache)) {
                Ok(v) => v,
                Err(e) => {
                    self.stats.errors.fetch_add(1, Ordering::Relaxed);
                    error_obj(&e.0, None)
                }
            })
            .collect();
        ok_obj([("count", Value::int(results.len() as u64)), ("results", Value::Arr(results))])
    }

    pub(crate) fn op_prepare(
        &self,
        name: &str,
        text: &str,
        alphabet: &Alphabet,
    ) -> Result<Value, ServerError> {
        let stmt = self.registry.prepare(name, text, alphabet)?;
        Ok(ok_obj([
            ("name", Value::str(name)),
            ("node_vars", Value::int(stmt.prepared.query().node_vars().len() as u64)),
            ("path_vars", Value::int(stmt.prepared.query().path_vars().len() as u64)),
        ]))
    }

    /// Resolves a catalog entry through the per-request cache (one catalog
    /// lookup per distinct graph per request, however many sub-requests).
    fn entry_cached(&self, cache: &mut BatchCache, name: &str) -> Result<Entry, ServerError> {
        if let Some(entry) = cache.graphs.get(name) {
            return Ok(Arc::clone(entry));
        }
        let entry = self.entry(name)?;
        cache.graphs.insert(name.to_string(), Arc::clone(&entry));
        Ok(entry)
    }

    /// Resolves a bound statement through the per-request cache, with the
    /// reply's `registry` verdict. The first resolution against `graph`
    /// reports the registry's own `hit`/`miss`; later sub-requests on the
    /// same epoch reuse the memoized `Arc` and report a hit (they paid no
    /// lookup at all). A merge mid-request changes the epoch, and the memo
    /// of the old one is looked up afresh.
    pub(crate) fn bound_cached(
        &self,
        cache: &mut BatchCache,
        name: &str,
        gname: &str,
        graph: &Arc<GraphDb>,
    ) -> Result<(Arc<BoundStatement>, &'static str), ServerError> {
        let key = (name.to_string(), gname.to_string());
        if let Some(plan) = cache.bound.get(&key).filter(|p| Arc::ptr_eq(p.graph(), graph)) {
            return Ok((Arc::clone(plan), "hit"));
        }
        let (plan, hit) = self.registry.bound(name, gname, graph)?;
        cache.bound.insert(key, Arc::clone(&plan));
        Ok((plan, if hit { "hit" } else { "miss" }))
    }

    /// The one resolve → execute → render path behind `run` and `trace`;
    /// returns the reply fields. With a `trace` it records the `resolve` /
    /// `run` (with the engine's child spans; answer rows are written inside
    /// its `search`) / `render` (field assembly) phases into it; an inline
    /// query is traced through `parse` → `compile` → `bind` without
    /// touching the registry.
    ///
    /// The graph's entry is locked once: on a live graph the request is
    /// first offered to [`maintained_read`](Self::maintained_read), which
    /// may answer it from a maintained answer set; anything it does not
    /// answer runs cold on the [`merged_epoch`](Self::merged_epoch), after
    /// the entry is released.
    pub(crate) fn run_request(
        &self,
        run: &Run<'_>,
        cache: &mut BatchCache,
        mut trace: Option<&mut Trace>,
    ) -> Result<Vec<(&'static str, Value)>, ServerError> {
        let resolve = qtrace::begin_span(&mut trace, "resolve");
        let mut config = EvalConfig::default();
        if let Some(limit) = run.limit {
            config.answer_limit = limit as usize;
        }
        let gname = run.graph;
        let entry = self.entry_cached(cache, gname)?;
        let graph = {
            let mut entry = entry.lock().unwrap();
            let traced = trace.is_some();
            if let Some(fields) = self.maintained_read(run, &mut entry, traced, &config, cache)? {
                return Ok(fields);
            }
            self.merged_epoch(gname, &mut entry)
        };
        let (stmt, verdict) = match run.target {
            Target::Named(name) => self.bound_cached(cache, name, gname, &graph)?,
            Target::Inline(text) => {
                let span = qtrace::begin_span(&mut trace, "parse");
                let q = ecrpq::parse_query(text, graph.alphabet()).map_err(ServerError::msg)?;
                qtrace::end_span(&mut trace, span);
                let span = qtrace::begin_span(&mut trace, "compile");
                let pq = PreparedQuery::prepare(&q).map_err(ServerError::msg)?;
                qtrace::end_span(&mut trace, span);
                let span = qtrace::begin_span(&mut trace, "bind");
                let stmt = BoundStatement::bind(Arc::new(pq), Arc::clone(&graph))
                    .map_err(ServerError::msg)?;
                qtrace::end_span(&mut trace, span);
                (Arc::new(stmt), "inline")
            }
        };
        let plan = stmt.plan();
        qtrace::end_span(&mut trace, resolve);

        // Each verified row is written into the reply text as the join
        // yields it; no answer set is built.
        let span = qtrace::begin_span(&mut trace, "run");
        let graph: &GraphDb = &graph;
        let mut rows = RowsText::default();
        let stats = plan
            .run_rows(run.mode, &config, trace.as_deref_mut(), |nodes, paths| match run.mode {
                Mode::Boolean => rows.count += 1,
                Mode::Nodes => rows.push(|out| write_nodes(out, nodes, |n| graph.node_name(n))),
                Mode::Paths => rows.push(|out| write_paths_row(out, nodes, paths, graph)),
            })
            .map_err(ServerError::msg)?;
        qtrace::end_span(&mut trace, span);

        let render = qtrace::begin_span(&mut trace, "render");
        let fields = match run.mode {
            Mode::Boolean => vec![
                ("registry", Value::str(verdict)),
                ("answer", Value::Bool(rows.count > 0)),
                ("stats", stats_value(&stats)),
            ],
            Mode::Nodes | Mode::Paths => rows.into_fields(verdict, &stats),
        };
        qtrace::end_span(&mut trace, render);
        Ok(fields)
    }

    /// Resolves statement `name` on the *current* state of graph `gname`,
    /// for the ops that read a sealed epoch (`check`, `explain`): pending
    /// overlay writes are merged first — once the statement name is known
    /// to exist, so a request about to be rejected merges nothing.
    fn bound_on_merged(
        &self,
        name: &str,
        gname: &str,
        cache: &mut BatchCache,
    ) -> Result<(Arc<GraphDb>, Arc<BoundStatement>, &'static str), ServerError> {
        self.registry.require(name)?;
        let entry = self.entry_cached(cache, gname)?;
        let graph = self.merged_epoch(gname, &mut entry.lock().unwrap());
        let (stmt, verdict) = self.bound_cached(cache, name, gname, &graph)?;
        Ok((graph, stmt, verdict))
    }

    pub(crate) fn op_check(
        &self,
        name: &str,
        gname: &str,
        nodes: Strs<'_>,
        paths: Paths<'_>,
        cache: &mut BatchCache,
    ) -> Result<Value, ServerError> {
        let (graph, plan, verdict) = self.bound_on_merged(name, gname, cache)?;
        let nodes: Vec<NodeId> =
            nodes.iter().map(|n| resolve_node(&graph, n)).collect::<Result<_, _>>()?;
        let paths: Vec<Path> =
            paths.iter().map(|p| resolve_path(&graph, p)).collect::<Result<_, _>>()?;
        let member =
            plan.check(&nodes, &paths, &EvalConfig::default()).map_err(ServerError::msg)?;
        Ok(ok_obj([("registry", Value::str(verdict)), ("member", Value::Bool(member))]))
    }

    /// Reports the planner's view of a run: join order, per-atom BFS
    /// direction and pinned source, estimated *and* actual cardinalities,
    /// plus a human-readable rendering under `text`.
    pub(crate) fn op_explain(
        &self,
        name: &str,
        gname: &str,
        cache: &mut BatchCache,
    ) -> Result<Value, ServerError> {
        // Plans are explained against the merged graph, not the overlay.
        let (_, stmt, verdict) = self.bound_on_merged(name, gname, cache)?;
        let report = stmt.plan().explain(&EvalConfig::default()).map_err(ServerError::msg)?;
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
                    ("est_pairs", Value::Num(a.est_pairs)),
                    ("est_fwd_frontier", Value::Num(a.est_fwd_frontier)),
                    ("est_rev_frontier", Value::Num(a.est_rev_frontier)),
                    ("actual_pairs", Value::int(a.actual_pairs)),
                ])
            })
            .collect();
        Ok(ok_obj([
            ("registry", Value::str(verdict)),
            ("planner", Value::str("cost-based")),
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
    /// wall-clock span tree — `resolve` (catalog/registry lookups), `run`
    /// (with the engine's `plan` / per-atom `reach:<var>` / `compile` /
    /// `search` child spans and their measured-vs-estimated cardinality
    /// attributes; answer rows are written inside `search`), and `render`
    /// (reply field assembly). The root span's duration is recorded into
    /// the per-op request histogram and echoed as `server_latency_us`, so
    /// the span tree and the histogram sample are the same measurement.
    pub(crate) fn op_trace(
        &self,
        run: &Run<'_>,
        cache: &mut BatchCache,
    ) -> Result<Value, ServerError> {
        let mut trace = Trace::new();
        let root = trace.begin("request");
        let mut fields = self.run_request(run, cache, Some(&mut trace))?;
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
}

/// [`EvalStats`] as a reply object, including the sim-table cache counters
/// that prove (or disprove) compiled-artifact reuse.
pub(crate) fn stats_value(stats: &EvalStats) -> Value {
    Value::obj([
        ("candidates", Value::int(stats.candidates)),
        ("verified", Value::int(stats.verified)),
        ("search_states", Value::int(stats.search_states)),
        ("sim_cache_hits", Value::int(stats.sim_cache_hits)),
        ("sim_cache_misses", Value::int(stats.sim_cache_misses)),
    ])
}

/// The `answers` array of a row-valued (`nodes`/`paths`) reply as JSON
/// text, with its row count: the one writer of answer rows. Each row is
/// appended straight from borrowed values — no `Value` per row or per node
/// — and the array joins the reply as [`Value::Raw`].
#[derive(Default)]
struct RowsText {
    text: String,
    count: u64,
}

impl RowsText {
    /// Appends one row, written by `write_row`.
    fn push(&mut self, write_row: impl FnOnce(&mut String)) {
        if self.count == 0 {
            // The text starts at a page, for the allocator reason
            // [`Service::dispatch_req`] gives.
            self.text.reserve(4096);
            self.text.push('[');
        } else {
            self.text.push(',');
        }
        write_row(&mut self.text);
        self.count += 1;
    }

    /// The reply fields: `registry`, `count`, `answers`, `stats`.
    fn into_fields(mut self, verdict: &str, stats: &EvalStats) -> Vec<(&'static str, Value)> {
        self.text.push_str(if self.count == 0 { "[]" } else { "]" });
        vec![
            ("registry", Value::str(verdict)),
            ("count", Value::int(self.count)),
            ("answers", Value::Raw(self.text)),
            ("stats", stats_value(stats)),
        ]
    }
}

/// The reply fields of a row-valued run over an answer set already held
/// (a maintained read), each row appended by `write_row`.
pub(crate) fn rows_reply<R>(
    verdict: &str,
    rows: &[R],
    stats: &EvalStats,
    mut write_row: impl FnMut(&mut String, &R),
) -> Vec<(&'static str, Value)> {
    let mut text = RowsText::default();
    for row in rows {
        text.push(|out| write_row(out, row));
    }
    text.into_fields(verdict, stats)
}

/// Appends a node tuple as a JSON array of node tokens, naming nodes
/// through a sealed graph's or an overlay's `node_name`.
pub(crate) fn write_nodes<'g>(
    out: &mut String,
    nodes: &[NodeId],
    name: impl Fn(NodeId) -> Option<&'g str>,
) {
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

/// Appends a paths-mode row: `{"nodes":[…],"paths":[[node, label, node,
/// …], …]}`.
fn write_paths_row(out: &mut String, nodes: &[NodeId], paths: &[Path], graph: &GraphDb) {
    out.push_str("{\"nodes\":");
    write_nodes(out, nodes, |n| graph.node_name(n));
    out.push_str(",\"paths\":[");
    for (i, path) in paths.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_path(out, path, graph);
    }
    out.push_str("]}");
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
/// node — exactly the tokens [`GraphDb::node_display`] emits
/// ([`NodeId::parse_anon`]). A bare index, a non-canonical `n+1` / `n01`, or
/// an `n<i>` pointing at a *named* node is rejected rather than silently
/// resolved, so a stale or mistyped token cannot validate against the wrong
/// node.
fn resolve_node(graph: &GraphDb, token: &str) -> Result<NodeId, ServerError> {
    if let Some(id) = graph.node_by_name(token) {
        return Ok(id);
    }
    match NodeId::parse_anon(token) {
        Some(id) if id.index() < graph.num_nodes() && graph.node_name(id).is_none() => Ok(id),
        _ => Err(ServerError(format!("unknown node `{token}`"))),
    }
}

/// Resolves a decoded `[node, label, node, …]` path against the graph.
fn resolve_path(graph: &GraphDb, items: Strs<'_>) -> Result<Path, ServerError> {
    let (mut nodes, mut labels) = (Vec::new(), Vec::new());
    for (i, s) in items.iter().enumerate() {
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
