//! Incremental (delta) maintenance of prepared statements over live graphs.
//!
//! A [`MaintainedStatement`] keeps a registered statement's node-mode answer
//! set up to date against a [`GraphView`] overlay (immutable base epoch plus
//! pending edge delta) without re-running the query from scratch. The update
//! is semi-naive: an applied batch only invalidates the reachability rows of
//! sources that can reach a changed edge in the union graph `old ∪ new`, so
//! only those rows are recomputed before the (cheap, exact-relaxation)
//! candidate join re-enumerates the answers.
//!
//! There is no second evaluator here. The rows come from the cold
//! pipeline's own product-BFS kernel (`plan::reach`) walking the overlay's
//! adjacency instead of the base graph's, and the answers from the cold
//! pipeline's own candidate join (`plan::enumerate_candidates`) over those
//! rows; this module only decides *which* sources to recompute.
//!
//! Maintenance is restricted to the statements where the relaxation is
//! *exact* (plain CRPQs: no wide relations, no relational repetition, no
//! counters) running in nodes mode — precisely the shape where the answer
//! set is fully determined by the per-path-variable reachability relations,
//! whatever the size of their unary constraints. Everything else falls back
//! to a cold run on the merged graph.
//!
//! The correctness contract is differential: a maintained answer set must be
//! bit-identical (answers, `verified`, `candidates`) to a cold re-run of the
//! statement on the merged graph. `tests/live_graph.rs` enforces it.

use crate::error::QueryError;
use crate::eval::plan::reach::{reach_rows, Overlay};
use crate::eval::plan::{self, ReachRel};
use crate::eval::prepared::BoundStatement;
use crate::eval::{EvalConfig, EvalStats};
use ecrpq_graph::delta::{DeltaBatch, GraphView};
use ecrpq_graph::NodeId;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// A prepared statement whose node-mode answer set is maintained
/// incrementally against a live-graph overlay.
#[derive(Debug)]
pub struct MaintainedStatement {
    stmt: Arc<BoundStatement>,
    /// Overlay node count the reachability rows cover.
    num_nodes: usize,
    /// Per path variable: sorted successor rows over the overlay
    /// (`reach[p][u]` = nodes v with a constraint-satisfying path u → v).
    reach: Vec<Vec<Vec<NodeId>>>,
    /// Sorted distinct head-node tuples — the maintained answer set.
    answers: Vec<Vec<NodeId>>,
    /// Stats of the last refresh, shaped like a cold nodes-mode run:
    /// `candidates`/`verified` from the re-enumeration, `search_states` 0,
    /// sim-cache counters from the rows recomputed by the last batch.
    stats: EvalStats,
}

impl MaintainedStatement {
    /// Builds the maintained state of `stmt` over the current overlay, or
    /// `None` if the statement is not maintainable (inexact relaxation).
    pub fn try_new(
        stmt: Arc<BoundStatement>,
        view: GraphView<'_>,
        config: &EvalConfig,
    ) -> Result<Option<MaintainedStatement>, QueryError> {
        let pq = stmt.prepared();
        if !pq.relaxation_is_exact {
            return Ok(None);
        }
        let n = view.num_nodes();
        let reach = vec![vec![Vec::new(); n]; pq.path_vars.len()];
        let mut this = MaintainedStatement {
            stmt,
            num_nodes: n,
            reach,
            answers: Vec::new(),
            stats: EvalStats::default(),
        };
        this.refresh(view, &(0..n as u32).collect::<Vec<_>>(), config)?;
        Ok(Some(this))
    }

    /// The statement being maintained (bound to the base epoch it was built
    /// or rebased on).
    pub fn statement(&self) -> &Arc<BoundStatement> {
        &self.stmt
    }

    /// Swaps in a rebinding of the same prepared query after an epoch merge.
    /// The maintained rows and answers already describe the merged graph, so
    /// only the statement handle changes.
    pub fn rebase(&mut self, stmt: Arc<BoundStatement>) {
        debug_assert!(Arc::ptr_eq(stmt.prepared(), self.stmt.prepared()));
        self.stmt = stmt;
    }

    /// The maintained answer set: sorted distinct head-node tuples.
    pub fn answers(&self) -> &[Vec<NodeId>] {
        &self.answers
    }

    /// Stats of the last refresh.
    pub fn stats(&self) -> EvalStats {
        self.stats
    }

    /// Applies one mutation batch: recomputes the reachability rows of the
    /// affected sources over the new overlay and re-enumerates the answers.
    pub fn apply(
        &mut self,
        view: GraphView<'_>,
        batch: &DeltaBatch,
        config: &EvalConfig,
    ) -> Result<(), QueryError> {
        // Grow rows for batch-introduced nodes.
        let n = batch.num_nodes.max(self.num_nodes);
        for rows in &mut self.reach {
            rows.resize(n, Vec::new());
        }

        // Affected sources: every node that can reach a changed edge's
        // source endpoint in the union graph `old ∪ new` (base ∪ added ∪
        // this batch's removes — tombstones ignored), plus the new nodes.
        // A source whose reachable cone contains no changed edge keeps its
        // rows verbatim; that is the semi-naive skip.
        let mut removed_in: HashMap<u32, Vec<NodeId>> = HashMap::new();
        for e in &batch.removes {
            removed_in.entry(e.to.0).or_default().push(e.from);
        }
        let mut affected = vec![false; n];
        let mut stack: Vec<NodeId> = Vec::new();
        let mark = |v: NodeId, stack: &mut Vec<NodeId>, affected: &mut Vec<bool>| {
            if !affected[v.index()] {
                affected[v.index()] = true;
                stack.push(v);
            }
        };
        for e in batch.adds.iter().chain(batch.removes.iter()) {
            mark(e.from, &mut stack, &mut affected);
        }
        for v in self.num_nodes..n {
            mark(NodeId(v as u32), &mut stack, &mut affected);
        }
        while let Some(v) = stack.pop() {
            view.for_each_in_unfiltered(v, |_, s| mark(s, &mut stack, &mut affected));
            if let Some(preds) = removed_in.get(&v.0) {
                for &s in preds {
                    mark(s, &mut stack, &mut affected);
                }
            }
        }
        self.num_nodes = n;
        let sources: Vec<u32> = (0..n as u32).filter(|&v| affected[v as usize]).collect();
        self.refresh(view, &sources, config)
    }

    /// Recomputes the rows of `sources` with the cold pipeline's kernel over
    /// the overlay's adjacency, then re-enumerates the answer set with the
    /// cold pipeline's join — same candidate counting, same head dedup
    /// (skipped, as on a cold run, when
    /// [`heads_are_distinct`](crate::eval::PreparedQuery::heads_are_distinct)
    /// holds), `verified` = distinct heads. Answers come out sorted (the
    /// canonical order the serve path renders).
    fn refresh(
        &mut self,
        view: GraphView<'_>,
        sources: &[u32],
        config: &EvalConfig,
    ) -> Result<(), QueryError> {
        let pq = self.stmt.prepared();
        let art = &self.stmt.art;
        let mut stats = EvalStats::default();
        let overlay = Overlay::new(view, pq, art);
        for (p, table) in self.reach.iter_mut().enumerate() {
            let rows = reach_rows(pq, p, &overlay, sources, &mut stats);
            for (row, &src) in rows.into_iter().zip(sources) {
                table[src as usize] = row;
            }
        }

        // The join probes both directions: lend the maintained rows to
        // `ReachRel`s (backward rows by transposition) for its duration and
        // take them back afterwards, so they are never held twice.
        let rels: Vec<ReachRel> =
            std::mem::take(&mut self.reach).into_iter().map(ReachRel::from_fwd).collect();
        let mut seen_heads: Option<HashSet<Vec<NodeId>>> =
            (!pq.heads_are_distinct(&art.constants)).then(HashSet::new);
        let mut answers: Vec<Vec<NodeId>> = Vec::new();
        let visit = |sigma: &[NodeId]| {
            let head: Vec<NodeId> = pq.head_node_idx.iter().map(|&i| sigma[i]).collect();
            if seen_heads.as_mut().is_none_or(|seen| seen.insert(head.clone())) {
                answers.push(head);
            }
            true
        };
        let joined = plan::enumerate_candidates(
            pq,
            self.num_nodes,
            &art.constants,
            &rels,
            None,
            config,
            &mut stats,
            visit,
        );
        self.reach = rels.into_iter().map(|r| r.fwd).collect();
        joined?;

        answers.sort();
        stats.verified = answers.len() as u64;
        self.stats = stats;
        self.answers = answers;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::prepared::PreparedQuery;
    use crate::parse::parse_query;
    use ecrpq_graph::delta::LiveGraph;
    use ecrpq_graph::GraphDb;

    fn triple(f: &str, l: &str, t: &str) -> (String, String, String) {
        (f.to_string(), l.to_string(), t.to_string())
    }

    fn statement(query: &str, graph: &Arc<GraphDb>) -> Arc<BoundStatement> {
        let q = parse_query(query, graph.alphabet()).unwrap();
        let pq = Arc::new(PreparedQuery::prepare(&q).unwrap());
        Arc::new(BoundStatement::bind(pq, Arc::clone(graph)).unwrap())
    }

    /// Sorted node-mode head tuples of a cold run on `graph`.
    fn cold_answers(stmt: &BoundStatement, config: &EvalConfig) -> (Vec<Vec<NodeId>>, EvalStats) {
        let (mut answers, stats) = stmt.run_nodes(config).unwrap();
        answers.sort();
        (answers, stats)
    }

    #[test]
    fn maintained_answers_track_adds_and_removes_differentially() {
        let base = Arc::new(GraphDb::from_edge_list("a x b\nb x c\nc x d\n").unwrap());
        let mut live = LiveGraph::new(Arc::clone(&base), 1_000_000);
        let config = EvalConfig::default();
        let stmt = statement("Ans(u, v) <- (u, p, v), L(p) = x x", live.base());
        let mut m = MaintainedStatement::try_new(Arc::clone(&stmt), live.view(), &config)
            .unwrap()
            .expect("plain CRPQ is maintainable");

        // Initial state matches a cold run on the base.
        let (cold, cold_stats) = cold_answers(&stmt, &config);
        assert_eq!(m.answers(), &cold[..]);
        assert_eq!(m.stats().verified, cold_stats.verified);
        assert_eq!(m.stats().candidates, cold_stats.candidates);

        // A batch with adds (including a new node) and a remove.
        let out =
            live.apply(&[triple("d", "x", "e"), triple("e", "x", "a")], &[triple("b", "x", "c")]);
        m.apply(live.view(), &out.batch, &config).unwrap();

        // Differential gate: bit-identical to a cold run on the merged
        // graph (same sorted answers, same verified/candidates).
        let merged = live.force_merge();
        let cold_stmt = statement("Ans(u, v) <- (u, p, v), L(p) = x x", &merged);
        let (cold, cold_stats) = cold_answers(&cold_stmt, &config);
        assert_eq!(m.answers(), &cold[..]);
        assert_eq!(m.stats().verified, cold_stats.verified);
        assert_eq!(m.stats().candidates, cold_stats.candidates);
        assert!(!m.answers().is_empty());
        // The second refresh compiled nothing: tables were already cached.
        assert_eq!(m.stats().sim_cache_misses, 0);
    }

    #[test]
    fn semi_naive_update_skips_unaffected_sources() {
        // Two disconnected components; mutating one must not recompute the
        // other's rows (observable through identical row references being
        // kept — here we just assert correctness plus the affected set via
        // stats: only the mutated component's sources get fresh BFS).
        let base = Arc::new(GraphDb::from_edge_list("a x b\nb x a\n\nq x r\nr x s\n").unwrap());
        let mut live = LiveGraph::new(Arc::clone(&base), 1_000_000);
        let config = EvalConfig::default();
        let stmt = statement("Ans(u, v) <- (u, p, v), L(p) = x*", live.base());
        let mut m =
            MaintainedStatement::try_new(Arc::clone(&stmt), live.view(), &config).unwrap().unwrap();
        let before_rows = m.reach[0].clone();

        let out = live.apply(&[triple("s", "x", "q")], &[]);
        m.apply(live.view(), &out.batch, &config).unwrap();

        // The a/b component is untouched by the update.
        let a = base.node_by_name("a").unwrap();
        let b = base.node_by_name("b").unwrap();
        assert_eq!(m.reach[0][a.index()], before_rows[a.index()]);
        assert_eq!(m.reach[0][b.index()], before_rows[b.index()]);

        let merged = live.force_merge();
        let cold_stmt = statement("Ans(u, v) <- (u, p, v), L(p) = x*", &merged);
        let (cold, _) = cold_answers(&cold_stmt, &config);
        assert_eq!(m.answers(), &cold[..]);
    }

    #[test]
    fn maintained_head_dedup_is_skipped_exactly_when_heads_are_distinct() {
        use crate::eval::prepared::tests::{dedup_graph, DEDUP_CASES};
        let config = EvalConfig::default();
        for (text, distinct) in DEDUP_CASES {
            let mut live = LiveGraph::new(Arc::new(dedup_graph()), 1_000_000);
            let stmt = statement(text, live.base());
            assert_eq!(stmt.prepared().heads_are_distinct(&stmt.art.constants), distinct);
            let mut m = MaintainedStatement::try_new(Arc::clone(&stmt), live.view(), &config)
                .unwrap()
                .expect("plain CRPQ is maintainable");
            let out = live.apply(
                &[triple("v3", "a", "w"), triple("w", "b", "v0"), triple("v0", "a", "v5")],
                &[triple("v0", "a", "v1")],
            );
            m.apply(live.view(), &out.batch, &config).unwrap();

            // The reference engine on the merged graph always deduplicates.
            let merged = live.force_merge();
            let q = parse_query(text, merged.alphabet()).unwrap();
            let (mut refr, rs) =
                crate::eval::reference::eval_nodes_with_stats(&q, &merged, &config).unwrap();
            refr.sort();
            assert!(!refr.is_empty(), "{text}");
            assert_eq!(m.answers(), &refr[..], "{text}");
            assert_eq!((m.stats().candidates, m.stats().verified), (rs.candidates, rs.verified));
            assert_eq!(rs.candidates > rs.verified, !distinct, "{text}: {rs:?}");
        }
    }

    #[test]
    fn inexact_relaxation_is_not_maintainable() {
        let base = Arc::new(GraphDb::from_edge_list("a x b\nb x c\n").unwrap());
        let live = LiveGraph::new(Arc::clone(&base), 1_000_000);
        let config = EvalConfig::default();
        // A relational-repetition query (wide relation): relaxation inexact.
        let stmt = statement(
            "Ans(u, v) <- (u, p1, z), (z, p2, v), L(p1) = x*, L(p2) = x*, R(p1, p2) = el",
            live.base(),
        );
        assert!(MaintainedStatement::try_new(stmt, live.view(), &config).unwrap().is_none());
    }

    /// Kernel parity across the two adjacencies, row by row (answer-level
    /// differentials can mask a wrong row the join never probes): for
    /// seeded random graphs, CRPQ atoms, and mutation scripts — including
    /// new nodes, a label only the query alphabet knows (`c`), and a label
    /// nobody has seen (`z`) — the overlay-backed kernel's rows equal the
    /// kernel's rows over the force-merged (sealed CSR) graph, forward and
    /// reverse, pinned and unpinned, with and without a constraint.
    #[test]
    fn overlay_kernel_rows_match_csr_kernel_rows_on_the_merged_graph() {
        use crate::eval::plan::cost::{AtomPlan, Direction};
        use ecrpq_automata::Alphabet;
        use ecrpq_graph::prng::SplitMix64;

        const LANGS: [Option<&str>; 6] =
            [None, Some("a*"), Some("a b* c"), Some("(a | c)+"), Some("b c* | a"), Some(".* c")];
        let alphabet = Alphabet::from_labels(["a", "b", "c"]);
        let all_rows = |adj: &Overlay<'_>, pq: &PreparedQuery, sources: &[u32]| {
            reach_rows(pq, 0, adj, sources, &mut EvalStats::default())
        };
        for seed in 0..48u64 {
            let mut rng = SplitMix64::seed_from_u64(seed);
            let nodes = 3 + rng.gen_index(5);
            // A random edge over `v0..v{nodes}` plus `extra` never-seen nodes.
            let edge = |rng: &mut SplitMix64, labels: &[&str], extra: usize| {
                let mut node = || match rng.gen_index(nodes + extra) {
                    i if i < nodes => format!("v{i}"),
                    i => format!("w{i}"),
                };
                let (from, to) = (node(), node());
                triple(&from, labels[rng.gen_index(labels.len())], &to)
            };
            let base_edges: Vec<_> =
                (0..2 * nodes).map(|_| edge(&mut rng, &["a", "b"], 0)).collect();
            let text: String =
                base_edges.iter().map(|(f, l, t)| format!("{f} {l} {t}\n")).collect();
            let base = Arc::new(GraphDb::from_edge_list(&text).unwrap());
            let mut live = LiveGraph::new(Arc::clone(&base), 1_000_000);
            for _ in 0..1 + rng.gen_index(3) {
                let adds: Vec<_> = (0..1 + rng.gen_index(4))
                    .map(|_| edge(&mut rng, &["a", "b", "c", "z"], 2))
                    .collect();
                let removes: Vec<_> = (0..rng.gen_index(3))
                    .map(|_| base_edges[rng.gen_index(base_edges.len())].clone())
                    .collect();
                live.apply(&adds, &removes);
            }
            let pin = NodeId(rng.gen_index(nodes) as u32);

            // Phase 1: the overlay-backed kernel, before the merge.
            let view = live.view();
            let n = view.num_nodes();
            let sources: Vec<u32> = (0..n as u32).collect();
            let mut cases = Vec::new();
            for lang in LANGS {
                let text = match lang {
                    None => "Ans(x, y) <- (x, p, y)".to_string(),
                    Some(l) => format!("Ans(x, y) <- (x, p, y), L(p) = {l}"),
                };
                let pq = Arc::new(
                    PreparedQuery::prepare(&parse_query(&text, &alphabet).unwrap()).unwrap(),
                );
                let stmt = BoundStatement::bind(Arc::clone(&pq), Arc::clone(&base)).unwrap();
                let overlay = Overlay::new(view, &pq, &stmt.art);
                let rows = all_rows(&overlay, &pq, &sources);
                assert_eq!(all_rows(&overlay, &pq, &[pin.0]), [rows[pin.index()].clone()]);
                cases.push((text, pq, rows));
            }

            // Phase 2: the CSR-backed kernel on the merged graph.
            let merged = live.force_merge();
            assert_eq!(merged.num_nodes(), n);
            for (text, pq, rows) in cases {
                let ctx = format!("seed {seed}, `{text}`");
                let bound = pq.bind(&merged).unwrap();
                let rel = ReachRel::from_fwd(rows);
                for dir in [Direction::Forward, Direction::Reverse] {
                    let mut stats = EvalStats::default();
                    let atom = AtomPlan { dir, ..AtomPlan::forward_full() };
                    let full = plan::reachability_planned(&bound, 0, &atom, &mut stats);
                    assert_eq!(full.fwd, rel.fwd, "{ctx}, {dir} unpinned fwd");
                    assert_eq!(full.bwd, rel.bwd, "{ctx}, {dir} unpinned bwd");
                    let atom = AtomPlan { pin: Some(pin), ..atom };
                    let pinned = plan::reachability_planned(&bound, 0, &atom, &mut stats);
                    let (got, want) = match dir {
                        Direction::Forward => (&pinned.fwd, &rel.fwd),
                        Direction::Reverse => (&pinned.bwd, &rel.bwd),
                    };
                    assert_eq!(got[pin.index()], want[pin.index()], "{ctx}, {dir} pinned");
                }
            }
        }
    }
}
