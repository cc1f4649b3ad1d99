//! Live graphs: publishing merged epochs into a graph's catalog entry, and
//! the maintained read that answers nodes-mode runs of a live graph. Every
//! function here acts on an entry its caller has locked.

use super::query::{rows_reply, write_nodes, BatchCache};
use super::request::{Run, Target};
use super::*;

impl Service {
    /// Publishes a freshly merged epoch: sets it in the locked `entry` and
    /// rebinds every maintained statement onto it (the maintained rows
    /// already describe the merged graph, so only the statement handle
    /// changes). A statement that no longer rebinds to the same prepared
    /// query — re-`prepare`d or evicted meanwhile — is dropped. The entry's
    /// live graph is the one that made `epoch`, so it reports the rows that
    /// merge wrote one at a time.
    pub(crate) fn publish_merge(&self, gname: &str, entry: &mut GraphEntry, epoch: Arc<GraphDb>) {
        let m = &self.metrics;
        m.counter("ecrpq_merges_total", "Live-overlay deltas merged into fresh epochs.").inc();
        m.counter(
            "ecrpq_merge_rows_rewritten_total",
            "CSR rows (out and in) that merges rewrote instead of copying them unchanged.",
        )
        .add(entry.live.as_ref().map_or(0, |s| s.live.last_merge_rows()) as u64);
        if let Some(state) = &mut entry.live {
            state.maintained.retain(|sname, m| match self.registry.bound(sname, gname, &epoch) {
                Ok((stmt, _)) if Arc::ptr_eq(stmt.prepared(), m.statement().prepared()) => {
                    m.rebase(stmt);
                    true
                }
                _ => false,
            });
        }
        entry.epoch = epoch;
    }

    /// The locked entry's current sealed epoch, after merging its pending
    /// overlay writes (if any) and publishing the merged epoch.
    pub(crate) fn merged_epoch(&self, gname: &str, entry: &mut GraphEntry) -> Arc<GraphDb> {
        let merged =
            entry.live.as_mut().filter(|s| s.live.pending() > 0).map(|s| s.live.force_merge());
        if let Some(epoch) = merged {
            self.publish_merge(gname, entry, epoch);
        }
        Arc::clone(&entry.epoch)
    }

    /// The read side of a live graph, for `run` and `trace`. An untraced
    /// nodes-mode run of a named statement is answered from its
    /// incrementally maintained answer set whenever that set is current —
    /// bound to the same prepared query on the graph's current epoch — and
    /// the reply fields come back, counted by `ecrpq_maintained_reads_total`.
    /// That holds on a clean graph too: a merge rebases the maintained sets
    /// onto the merged epoch, so they still describe it. With pending
    /// overlay writes, a statement without a current set has one built. Any
    /// other request, and any statement the maintainer cannot handle, is
    /// left to a cold run (`None`) on the [`merged_epoch`](Self::merged_epoch).
    /// The statement name is checked first, so a request about to be
    /// rejected merges nothing.
    pub(crate) fn maintained_read(
        &self,
        run: &Run<'_>,
        entry: &mut GraphEntry,
        traced: bool,
        config: &EvalConfig,
        cache: &mut BatchCache,
    ) -> Result<Option<Vec<(&'static str, Value)>>, ServerError> {
        let (Some(state), Target::Named(name)) = (&mut entry.live, run.target) else {
            return Ok(None);
        };
        self.registry.require(name)?;
        if traced || run.mode != Mode::Nodes {
            return Ok(None);
        }
        let (stmt, verdict) = self.bound_cached(cache, name, run.graph, state.live.base())?;
        let mut current =
            state.maintained.get(name).is_some_and(|m| Arc::ptr_eq(m.statement(), &stmt));
        let view = state.live.view();
        if !current && state.live.pending() > 0 {
            // First dirty read of this binding: build its maintained state,
            // unless it is not maintainable (inexact relaxation) and must
            // run cold.
            if let Some(m) =
                MaintainedStatement::try_new(stmt, view, config).map_err(ServerError::msg)?
            {
                state.maintained.insert(name.to_string(), m);
                current = true;
            }
        }
        if !current {
            return Ok(None);
        }
        self.maintained_reads
            .get_or_init(|| {
                self.metrics.counter(
                    "ecrpq_maintained_reads_total",
                    "Nodes-mode runs answered from a maintained answer set.",
                )
            })
            .inc();
        let m = &state.maintained[name];
        Ok(Some(rows_reply(verdict, m.answers(), &m.stats(), |out, row| {
            write_nodes(out, row, |n| view.node_name(n))
        })))
    }
}
