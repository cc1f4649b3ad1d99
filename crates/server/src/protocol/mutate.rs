//! The write ops: `load` replaces a cataloged graph, `add_edges` /
//! `remove_edges` write into its live overlay.

use super::*;

impl Service {
    pub(crate) fn op_load(&self, name: &str, source: &GraphSource) -> Result<Value, ServerError> {
        // A (re)load swaps in a fresh catalog entry: any live overlay of the
        // old epoch goes with the entry it belonged to.
        let graph = self.catalog.load(name, source)?;
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
    /// threshold, the fresh sealed epoch is published into the graph's
    /// entry and the maintained statements are rebound onto it.
    pub(crate) fn op_mutate(
        &self,
        gname: &str,
        triples: &[(String, String, String)],
        adds: bool,
        threshold: Option<u64>,
    ) -> Result<Value, ServerError> {
        let entry = self.entry(gname)?;
        let mut entry = entry.lock().unwrap();
        let GraphEntry { epoch, live } = &mut *entry;
        let state = live.get_or_insert_with(|| {
            let threshold = threshold.map_or(self.merge_threshold, |t| t as usize);
            LiveState {
                live: LiveGraph::new(Arc::clone(epoch), threshold),
                maintained: HashMap::new(),
            }
        });

        let empty: [(String, String, String); 0] = [];
        let out = if adds {
            state.live.apply(triples, &empty)
        } else {
            state.live.apply(&empty, triples)
        };

        // Maintenance-on-write: every maintained statement absorbs the
        // batch now, so the next nodes-mode run is a pure answer read. A
        // statement whose update fails (budget) drops back to cold runs.
        let config = EvalConfig::default();
        let LiveState { live, maintained } = state;
        let (mut recomputed, mut changed) = (0, 0);
        maintained.retain(|_, m| match m.apply(live.view(), &out.batch, &config) {
            Ok((rows, answers)) => {
                recomputed += rows;
                changed += answers;
                true
            }
            Err(_) => false,
        });

        if let Some(epoch) = &out.merged {
            self.publish_merge(gname, &mut entry, Arc::clone(epoch));
        }
        let maintained = entry.live.as_ref().map_or(0, |s| s.maintained.len());
        drop(entry);

        let m = &self.metrics;
        m.counter("ecrpq_mutation_batches_total", "add_edges/remove_edges batches applied.").inc();
        let kind = if adds { "added" } else { "removed" };
        m.counter_with(
            "ecrpq_mutation_edges_total",
            &[("kind", kind)],
            "Edge instances added/removed through the mutation ops.",
        )
        .add((out.counts.added + out.counts.removed) as u64);
        m.counter(
            "ecrpq_maintained_rows_recomputed_total",
            "(path variable, source) reachability rows recomputed by maintenance-on-write.",
        )
        .add(recomputed as u64);
        m.counter(
            "ecrpq_maintained_answers_changed_total",
            "Head tuples that maintenance-on-write added to or removed from maintained answer sets.",
        )
        .add(changed as u64);

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
            ("maintained", Value::int(maintained as u64)),
        ]))
    }
}
