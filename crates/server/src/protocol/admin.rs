//! The introspection and persistence ops: `stats`, `metrics`, `slowlog`,
//! `save`, `open`.

use super::*;

impl Service {
    /// Dumps the metrics registry: Prometheus exposition text by default,
    /// or structured JSON (with per-histogram estimated quantiles) under
    /// `format: "json"`. Point-in-time gauges are refreshed first.
    pub(crate) fn op_metrics(&self, json: bool) -> Value {
        if !json {
            return ok_obj([("text", Value::str(self.render_metrics()))]);
        }
        self.refresh_gauges();
        ok_obj([("metrics", self.metrics.to_value())])
    }

    /// The slow-query log, newest first (optionally capped by `limit`).
    pub(crate) fn op_slowlog(&self, limit: usize) -> Value {
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
        ok_obj([
            ("threshold_ms", Value::int(self.slow_query_us.load(Ordering::Relaxed) / 1000)),
            ("count", Value::int(entries.len() as u64)),
            ("entries", Value::Arr(entries)),
        ])
    }

    /// Refreshes gauges and renders the full registry in Prometheus text
    /// exposition format — the body served by `ecrpq-serve --metrics-addr`
    /// and the `metrics` op's `text` format.
    pub fn render_metrics(&self) -> String {
        self.refresh_gauges();
        self.metrics.render()
    }

    /// Computes the point-in-time gauges (uptime, queue depth, cache hit
    /// rates) and mirrors the transport counters
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
    }

    pub(crate) fn op_stats(&self, gname: Option<&str>) -> Result<Value, ServerError> {
        let reg = self.registry.stats();
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
                ]),
            ),
            (
                "catalog",
                Value::obj([("hits", Value::int(cat_hits)), ("misses", Value::int(cat_misses))]),
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
        if let Some(gname) = gname {
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
        if let Some(gname) = gname {
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
    /// `path.art` sidecar holding the name and text of every registered
    /// statement that binds against this graph; nothing is compiled.
    /// Statements that cannot bind (say, a constant node the graph lacks)
    /// are skipped rather than failing the save.
    pub(crate) fn op_save(&self, gname: &str, path: &str) -> Result<Value, ServerError> {
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
    /// sidecar is present its statements are re-prepared from their texts,
    /// bound, and compiled ([`persist::read_sidecar`]), then installed into
    /// the registry before the graph becomes visible, so the first `run` is
    /// a registry hit with zero sim-table compilations.
    pub(crate) fn op_open(&self, name: &str, path: &str) -> Result<Value, ServerError> {
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
}
