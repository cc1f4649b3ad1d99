//! Live graphs: the per-graph delta overlay, publishing merged epochs, and
//! the maintained read that answers nodes-mode runs of a dirty graph.

use super::query::{rows_reply, write_nodes, BatchCache};
use super::request::{Run, Target};
use super::*;

/// The live (mutable) state of one cataloged graph: the delta overlay and
/// the statements whose nodes-mode answer sets are maintained against it.
#[derive(Debug)]
pub(crate) struct LiveState {
    /// Delta overlay over the cataloged epoch; merging swaps a fresh sealed
    /// epoch into the catalog.
    pub(crate) live: LiveGraph,
    /// Incrementally maintained statements, by registry name. Only
    /// maintainable statements (exact relaxation) are kept; everything else
    /// forces a merge and a cold run.
    pub(crate) maintained: HashMap<String, MaintainedStatement>,
}

impl Service {
    /// Publishes a freshly merged epoch: swaps it into the catalog and
    /// rebinds every maintained statement onto it (the maintained rows
    /// already describe the merged graph, so only the statement handle
    /// changes). A statement that no longer rebinds to the same prepared
    /// query — re-`prepare`d or evicted meanwhile — is dropped.
    pub(crate) fn publish_merge(&self, gname: &str, state: &mut LiveState, epoch: &Arc<GraphDb>) {
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
    pub(crate) fn flush_live(&self, gname: &str) -> bool {
        let mut live_map = self.live.lock().unwrap();
        let Some(state) = live_map.get_mut(gname).filter(|s| s.live.pending() > 0) else {
            return false;
        };
        let epoch = state.live.force_merge();
        self.publish_merge(gname, state, &epoch);
        true
    }

    /// The read side of a live graph, for `run` and `trace`. With pending
    /// overlay writes on the graph, an untraced nodes-mode run of a named
    /// statement is answered from its incrementally maintained answer set
    /// (built on first use) — the reply fields come back. Any other request,
    /// and any statement the maintainer cannot handle, merges the overlay
    /// into a fresh epoch and drops the request's pins on the old one, to
    /// run cold on the merged graph (`None`). The statement name is checked
    /// first, so a request about to be rejected merges nothing.
    pub(crate) fn maintained_read(
        &self,
        run: &Run<'_>,
        traced: bool,
        config: &EvalConfig,
        cache: &mut BatchCache,
    ) -> Result<Option<Vec<(&'static str, Value)>>, ServerError> {
        let gname = run.graph;
        let mut live_map = self.live.lock().expect("live-state lock poisoned");
        let Some(state) = live_map.get_mut(gname).filter(|s| s.live.pending() > 0) else {
            return Ok(None);
        };
        if let Target::Named(name) = run.target {
            self.registry.require(name)?;
            if !traced && run.mode == Mode::Nodes {
                let base = Arc::clone(state.live.base());
                let (stmt, verdict) = self.bound_cached(cache, name, gname, &base)?;
                let mut current =
                    state.maintained.get(name).is_some_and(|m| Arc::ptr_eq(m.statement(), &stmt));
                let view = state.live.view();
                if !current {
                    // First dirty read of this binding: build its maintained
                    // state, unless it is not maintainable (inexact
                    // relaxation) and must run cold.
                    if let Some(m) = MaintainedStatement::try_new(stmt, view, config)
                        .map_err(ServerError::msg)?
                    {
                        state.maintained.insert(name.to_string(), m);
                        current = true;
                    }
                }
                if current {
                    let m = &state.maintained[name];
                    return Ok(Some(rows_reply(verdict, m.answers(), &m.stats(), |out, row| {
                        write_nodes(out, row, |n| view.node_name(n))
                    })));
                }
            }
        }
        // Everything else runs on a sealed epoch: merge the pending writes
        // and drop the request's pins on the old one.
        let epoch = state.live.force_merge();
        self.publish_merge(gname, state, &epoch);
        cache.invalidate_graph(gname);
        Ok(None)
    }
}
