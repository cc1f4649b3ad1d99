//! Incremental (delta) maintenance of prepared statements over live graphs.
//!
//! A [`MaintainedStatement`] keeps a registered statement's node-mode answer
//! set up to date against a [`GraphView`] overlay (immutable base epoch plus
//! pending edge delta) without re-running the query from scratch. Both
//! levels of the update are semi-naive: a write recomputes only the rows it
//! can change, and the answers change by their delta, not by a re-join.
//!
//! *Rows.* A changed edge `(s, l, t)` can only change the row of a path
//! variable's source `u` if `u` reaches `s` over unchanged edges along a
//! word `w` such that `w·l` is a prefix of the variable's language. Each
//! variable recomputes only the rows of its own such sources (plus the nodes
//! a batch introduced), and each recomputed row, diffed against the old one,
//! gives the pairs `(u, v)` the write removed from or added to the
//! variable's relation.
//!
//! *Answers* follow by delete and re-derive (DRed; Gupta, Mumick and
//! Subrahmanian, SIGMOD 1993). A head can be lost only if an assignment of
//! it uses a removed pair, and gained only if one uses an added pair:
//!
//! 1. over the old rows, the heads of the assignments through each removed
//!    pair *may be lost*;
//! 2. the recomputed rows replace the old ones;
//! 3. over the new rows, the heads of the assignments through each added
//!    pair are *gained*, and all of them are answers;
//! 4. a may-be-lost head that was not gained is *re-derived*: it stays only
//!    if it still has an assignment.
//!
//! Every step is one candidate join, projected onto the head, with the
//! statement's constants plus a pair's endpoints (once per join edge of the
//! pair's variable) or a head's values forced. Counting, the paper's other
//! algorithm, would need every head's number of derivations, which a
//! projected join does not enumerate: it stops at the first completion of
//! the existential variables. The answers stay sorted and distinct, and each
//! change is one insert or remove in place, so a write never re-sorts them.
//!
//! There is no second evaluator here. The rows come from the cold
//! pipeline's own product-BFS kernel (`plan::reach`) walking the overlay's
//! adjacency instead of the base graph's; the affected sources from the
//! same kernel walking the overlay's in-edges backwards from the changed
//! edges; the first answer set from the cold pipeline's own candidate driver
//! (`BoundPlan::drive`, the one full join a maintained statement makes), in
//! the join order the cold planner (`plan::cost::plan_query`) chose once
//! when the statement was built; and every delta join from the candidate
//! join it drives (`plan::enumerate_candidates`). This module only decides
//! which sources to recompute and which pairs and heads to join.
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
use crate::eval::plan::cost::plan_query;
use crate::eval::plan::reach::{affected_sources, diff_rows, reach_rows, Overlay};
use crate::eval::plan::{enumerate_candidates, join_edges, Mode, ReachRel};
use crate::eval::prepared::{BoundStatement, Drive};
use crate::eval::{EvalConfig, EvalStats};
use ecrpq_graph::delta::{DeltaBatch, GraphView};
use ecrpq_graph::{NodeId, Path};
use std::sync::Arc;

/// Per path variable, the `(u, v)` pairs a write removed from or added to
/// its relation.
type Pairs = Vec<Vec<(NodeId, NodeId)>>;

/// A prepared statement whose node-mode answer set is maintained
/// incrementally against a live-graph overlay.
#[derive(Debug)]
pub struct MaintainedStatement {
    stmt: Arc<BoundStatement>,
    /// The join order, planned once on the base graph the statement was
    /// built over. Join order never changes the candidates, so it is kept
    /// across [`apply`](Self::apply) and [`rebase`](Self::rebase): no
    /// planner work on the write path. Each delta join moves its forced
    /// variables to the front of it.
    order: Vec<usize>,
    /// Overlay node count the reachability rows cover.
    num_nodes: usize,
    /// Per path variable: its reachability relation over the overlay
    /// (`reach[p].fwd[u]` = nodes v with a constraint-satisfying path
    /// u → v), predecessor rows kept in step with every replaced row so a
    /// write never transposes the whole relation.
    reach: Vec<ReachRel>,
    /// Sorted distinct head-node tuples — the maintained answer set.
    answers: Vec<Vec<NodeId>>,
    /// Stats shaped like a cold nodes-mode run: `candidates` and `verified`
    /// both the number of answers (a projected join has one candidate per
    /// head), `search_states` 0, and sim-cache counters from the rows
    /// computed by the build or by the last batch.
    stats: EvalStats,
}

impl MaintainedStatement {
    /// Builds the maintained state of `stmt` over the current overlay, or
    /// `None` if the statement is not maintainable (inexact relaxation):
    /// every row, then the answers by the cold pipeline's candidate driver
    /// (`BoundPlan::drive`) — the same candidate counting and `verified`
    /// count as a cold nodes-mode run. Answers come out sorted (the
    /// canonical order the serve path renders).
    pub fn try_new(
        stmt: Arc<BoundStatement>,
        view: GraphView<'_>,
        config: &EvalConfig,
    ) -> Result<Option<MaintainedStatement>, QueryError> {
        let (pq, art) = (stmt.prepared(), &stmt.art);
        if !pq.relaxation_is_exact {
            return Ok(None);
        }
        let n = view.num_nodes();
        let mut stats = EvalStats::default();
        let overlay = Overlay::<false>::new(view, pq, art);
        let all: Vec<u32> = (0..n as u32).collect();
        let reach: Vec<ReachRel> = (0..pq.path_vars.len())
            .map(|p| ReachRel::from_fwd(reach_rows(pq, p, &overlay, &all, &mut stats)))
            .collect();

        // A maintained statement searches nothing, so its join projects;
        // `drive` never reads the plan's base graph.
        let order = plan_query(&stmt.plan(), &art.constants, true).order;
        let mut answers: Vec<Vec<NodeId>> = Vec::new();
        let d = Drive {
            mode: Mode::Nodes,
            forced: &art.constants,
            order: &order,
            reach: &reach,
            pinned: None,
        };
        let mut sink = |head: &[NodeId], _: &[Path]| answers.push(head.to_vec());
        stmt.plan().drive(d, config, &mut stats, &mut None, &mut sink)?;
        answers.sort();
        Ok(Some(MaintainedStatement { stmt, order, num_nodes: n, reach, answers, stats }))
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

    /// The maintained answer set: sorted distinct head-node tuples, as a
    /// cold nodes-mode run's answers sorted. Each write changes it in place
    /// by its delta.
    pub fn answers(&self) -> &[Vec<NodeId>] {
        &self.answers
    }

    /// Stats of the build or of the last batch.
    pub fn stats(&self) -> EvalStats {
        self.stats
    }

    /// Applies one mutation batch: recomputes the reachability rows of the
    /// affected sources over the new overlay, then changes the answer set by
    /// the delete-and-re-derive steps of the module doc. Returns the number
    /// of `(path variable, source)` rows recomputed and the number of head
    /// tuples the batch added plus removed. On an error (a delta join over
    /// `config.max_candidates`) the answer set is stale, and the caller
    /// drops the statement.
    pub fn apply(
        &mut self,
        view: GraphView<'_>,
        batch: &DeltaBatch,
        config: &EvalConfig,
    ) -> Result<(usize, usize), QueryError> {
        let sources = self.affected(view, batch);
        // Grow rows for batch-introduced nodes.
        let n = batch.num_nodes.max(self.num_nodes);
        for rel in &mut self.reach {
            rel.grow(n);
        }
        self.num_nodes = n;

        // Recompute the rows with the cold pipeline's kernel over the
        // overlay's adjacency (fetching each variable's table once), and
        // diff each against the row it replaces.
        let pq = self.stmt.prepared();
        let mut stats = EvalStats::default();
        let overlay = Overlay::<false>::new(view, pq, &self.stmt.art);
        let rows: Vec<Vec<Vec<NodeId>>> = sources
            .iter()
            .enumerate()
            .map(|(p, s)| reach_rows(pq, p, &overlay, s, &mut stats))
            .collect();
        let (mut removed, mut added): (Pairs, Pairs) =
            (vec![Vec::new(); rows.len()], vec![Vec::new(); rows.len()]);
        for (p, (rows, sources)) in rows.iter().zip(&sources).enumerate() {
            for (row, &u) in rows.iter().zip(sources) {
                diff_rows(&self.reach[p].fwd[u as usize], row, |v, joined| {
                    let pairs = if joined { &mut added[p] } else { &mut removed[p] };
                    pairs.push((NodeId(u), v));
                });
            }
        }

        // Steps 1–3: the heads that may be lost over the old rows, the new
        // rows, and the heads gained over them.
        let lost = self.heads_through(&removed, config)?;
        for ((rel, rows), sources) in self.reach.iter_mut().zip(rows).zip(&sources) {
            for (row, &u) in rows.into_iter().zip(sources) {
                rel.set_row(NodeId(u), row);
            }
        }
        let mut gained = self.heads_through(&added, config)?;

        // Step 4: re-derive the may-be-lost heads that were not gained, then
        // change the answers in place.
        let heads = &pq.head_node_idx;
        let rederive = self.forced_first(heads);
        let mut dropped: Vec<Vec<NodeId>> = Vec::new();
        for head in lost.into_iter().filter(|h| gained.binary_search(h).is_err()) {
            let forced: Vec<(usize, NodeId)> =
                heads.iter().copied().zip(head.iter().copied()).collect();
            let mut kept = false;
            self.join(&forced, &rederive, config, |_| {
                kept = true;
                false
            })?;
            if !kept {
                dropped.push(head);
            }
        }
        gained.retain(|h| self.answers.binary_search(h).is_err());
        let changed = dropped.len() + gained.len();
        remove_sorted(&mut self.answers, &dropped);
        insert_sorted(&mut self.answers, gained);
        let count = self.answers.len() as u64;
        self.stats = EvalStats { candidates: count, verified: count, ..stats };
        Ok((sources.iter().map(Vec::len).sum(), changed))
    }

    /// Per path variable, the sorted sources whose rows `batch` can change
    /// (the backward product walk of [`affected_sources`] from the changed
    /// edges), plus the nodes the batch introduced. Every other row is kept
    /// verbatim; that is the semi-naive skip. The walk fetches the reversed
    /// tables into scratch stats, so a reply's counters stay those of the
    /// recomputed rows.
    fn affected(&self, view: GraphView<'_>, batch: &DeltaBatch) -> Vec<Vec<u32>> {
        let (old_n, n) = (self.num_nodes, batch.num_nodes.max(self.num_nodes));
        let pq = self.stmt.prepared();
        let rev = Overlay::<true>::new(view, pq, &self.stmt.art);
        (0..pq.path_vars.len())
            .map(|p| {
                let hits = affected_sources(pq, p, &rev, batch, &mut EvalStats::default());
                let old = hits.into_iter().map(|v| v.0).take_while(|&v| (v as usize) < old_n);
                old.chain(old_n as u32..n as u32).collect()
            })
            .collect()
    }

    /// The sorted distinct heads of the assignments over the current rows
    /// that map a join edge of some path variable `p` onto one of
    /// `pairs[p]`: one delta join per pair and edge.
    fn heads_through(
        &self,
        pairs: &[Vec<(NodeId, NodeId)>],
        config: &EvalConfig,
    ) -> Result<Vec<Vec<NodeId>>, QueryError> {
        let mut heads: Vec<Vec<NodeId>> = Vec::new();
        for e in join_edges(self.stmt.prepared()) {
            if pairs[e.path].is_empty() {
                continue;
            }
            let order = self.forced_first(&[e.from, e.to]);
            for &(u, v) in &pairs[e.path] {
                self.join(&[(e.from, u), (e.to, v)], &order, config, |head| {
                    heads.push(head.to_vec());
                    true
                })?;
            }
        }
        heads.sort_unstable();
        heads.dedup();
        Ok(heads)
    }

    /// One delta join: the candidate join over the maintained rows,
    /// projected, with `extra` forced on top of the statement's constants,
    /// in `order`, handing each candidate's head to `visit` until it
    /// returns `false`. Charges its own `config.max_candidates`.
    fn join(
        &self,
        extra: &[(usize, NodeId)],
        order: &[usize],
        config: &EvalConfig,
        mut visit: impl FnMut(&[NodeId]) -> bool,
    ) -> Result<(), QueryError> {
        let pq = self.stmt.prepared();
        let forced: Vec<(usize, NodeId)> =
            self.stmt.art.constants.iter().chain(extra).copied().collect();
        let mut head: Vec<NodeId> = Vec::with_capacity(pq.head_node_idx.len());
        let mut stats = EvalStats::default();
        enumerate_candidates(pq, &forced, &self.reach, order, true, config, &mut stats, |sigma| {
            head.clear();
            head.extend(pq.head_node_idx.iter().map(|&i| sigma[i]));
            visit(&head)
        })
    }

    /// The join order of a delta join that forces `vars`: the constants and
    /// `vars`, then the rest of the stored order, each next variable the
    /// first one there that shares a join edge with a placed one (the first
    /// unplaced one when none does). Every order gives the same candidates;
    /// this one narrows each variable by an assigned row wherever the query
    /// allows, so a join costs in proportion to the rows it touches.
    fn forced_first(&self, vars: &[usize]) -> Vec<usize> {
        let edges = join_edges(self.stmt.prepared());
        let mut order: Vec<usize> = Vec::with_capacity(self.order.len());
        for v in self.stmt.art.constants.iter().map(|&(c, _)| c).chain(vars.iter().copied()) {
            if !order.contains(&v) {
                order.push(v);
            }
        }
        while order.len() < self.order.len() {
            let placed = |v: usize| order.contains(&v);
            let touches = |v: usize| {
                edges.iter().any(|e| (e.from == v && placed(e.to)) || (e.to == v && placed(e.from)))
            };
            let mut rest = self.order.iter().copied().filter(|&v| !placed(v));
            let next = rest.clone().find(|&v| touches(v)).or_else(|| rest.next());
            order.push(next.expect("some variable is unplaced"));
        }
        order
    }
}

/// Removes the sorted `gone`, every one of them in it, from the sorted
/// `set` in one pass.
fn remove_sorted(set: &mut Vec<Vec<NodeId>>, gone: &[Vec<NodeId>]) {
    if !gone.is_empty() {
        let mut gone = gone.iter().peekable();
        set.retain(|h| gone.next_if(|g| *g == h).is_none());
    }
}

/// Merges the sorted `new`, none of them in it, into the sorted `set` from
/// the back, moving each element of `set` at most once.
fn insert_sorted(set: &mut Vec<Vec<NodeId>>, mut new: Vec<Vec<NodeId>>) {
    let (mut i, mut k) = (set.len(), set.len() + new.len());
    set.resize_with(k, Vec::new);
    while let Some(head) = new.pop() {
        while i > 0 && set[i - 1] > head {
            (i, k) = (i - 1, k - 1);
            set.swap(i, k);
        }
        k -= 1;
        set[k] = head;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::plan;
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

    /// `query` prepared over the labels `a b c` (the graph need not know
    /// them all) and bound to `graph`.
    fn abc_statement(query: &str, graph: &Arc<GraphDb>) -> Arc<BoundStatement> {
        let alphabet = ecrpq_automata::Alphabet::from_labels(["a", "b", "c"]);
        let pq = Arc::new(PreparedQuery::prepare(&parse_query(query, &alphabet).unwrap()).unwrap());
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
        // The write compiled nothing: tables were already cached.
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
        assert_eq!(m.reach[0].fwd[a.index()], before_rows.fwd[a.index()]);
        assert_eq!(m.reach[0].fwd[b.index()], before_rows.fwd[b.index()]);

        let merged = live.force_merge();
        let cold_stmt = statement("Ans(u, v) <- (u, p, v), L(p) = x*", &merged);
        let (cold, _) = cold_answers(&cold_stmt, &config);
        assert_eq!(m.answers(), &cold[..]);
    }

    /// Replacing rows one at a time keeps the predecessor rows and the
    /// non-empty-row lists equal to a transposition of the final rows.
    #[test]
    fn replaced_rows_keep_the_relation_transposed() {
        use ecrpq_graph::prng::SplitMix64;

        let mut rng = SplitMix64::seed_from_u64(7);
        let n = 12;
        let row = |rng: &mut SplitMix64| -> Vec<NodeId> {
            let mut r: Vec<NodeId> =
                (0..rng.gen_index(4)).map(|_| NodeId(rng.gen_index(n) as u32)).collect();
            r.sort();
            r.dedup();
            r
        };
        let mut rel = ReachRel::from_fwd((0..n).map(|_| row(&mut rng)).collect());
        for _ in 0..200 {
            let u = NodeId(rng.gen_index(n) as u32);
            rel.set_row(u, row(&mut rng));
            assert_eq!(rel, ReachRel::from_fwd(rel.fwd.clone()));
        }
        rel.grow(n + 2);
        assert_eq!(rel, ReachRel::from_fwd(rel.fwd.clone()));
    }

    /// Per path variable, the pairs `new` lacks and the pairs it adds
    /// against `old` (whose rows may cover fewer nodes).
    fn pair_delta(old: &[ReachRel], new: &[ReachRel]) -> (Pairs, Pairs) {
        let (mut removed, mut added) = (vec![Vec::new(); new.len()], vec![Vec::new(); new.len()]);
        for (p, (old, new)) in old.iter().zip(new).enumerate() {
            for (u, row) in new.fwd.iter().enumerate() {
                let before = old.fwd.get(u).map_or(&[][..], |r| &r[..]);
                diff_rows(before, row, |v, joined| {
                    let pairs = if joined { &mut added[p] } else { &mut removed[p] };
                    pairs.push((NodeId(u as u32), v));
                });
            }
        }
        (removed, added)
    }

    /// The affected set is a superset of the rows that really change: over
    /// seeded random graphs and mutation scripts — cancelled adds,
    /// tombstoned base edges, new nodes, a label nobody has seen (`d`),
    /// merges mid-script — every row that differs from a full recompute
    /// after a batch was in that batch's affected set, and the maintained
    /// rows, answers (in order) and counts equal a full rebuild's. The
    /// queries cover an unconstrained variable, a two-atom and a three-atom
    /// chain, a constant on an atom's source and one on its target, a
    /// self-loop atom and a head that repeats a variable (a repeated path
    /// variable is not maintainable). Over the run, the delta takes both
    /// outcomes of a re-derivation: a head that may be lost but was not
    /// gained is kept at least once and dropped at least once.
    #[test]
    fn every_changed_row_is_in_the_affected_set() {
        use ecrpq_graph::prng::SplitMix64;

        const QUERIES: [&str; 10] = [
            "Ans(x, y) <- (x, p, y)",
            "Ans(x, y) <- (x, p, y), L(p) = a b* a",
            "Ans(x, y) <- (x, p, y), L(p) = (a | c)+",
            "Ans(x, y) <- (x, p, y), L(p) = .* c",
            "Ans(x, z) <- (x, p, y), (y, r, z), L(p) = a+, L(r) = b c*",
            "Ans(y) <- (x, p, y), L(p) = a a*, x = :v0",
            "Ans(x) <- (x, p, y), L(p) = (a | c) b*, y = :v1",
            "Ans(x) <- (x, p, x), L(p) = (a | b) (a | b | c)*",
            "Ans(x0, x3) <- (x0, p, x1), (x1, r, x2), (x2, s, x3), L(p) = a, L(r) = b*, \
             L(s) = a | c",
            "Ans(x, y, x) <- (x, p, y), L(p) = b* (a | c)",
        ];
        let config = EvalConfig::default();
        let (mut changed, mut skipped) = (0usize, 0usize);
        let (mut kept, mut dropped) = (0usize, 0usize);
        for seed in 0..40u64 {
            let mut rng = SplitMix64::seed_from_u64(seed);
            let nodes = 4 + rng.gen_index(6);
            let edge = |rng: &mut SplitMix64, labels: &[&str], extra: usize| {
                let mut node = || match rng.gen_index(nodes + extra) {
                    i if i < nodes => format!("v{i}"),
                    i => format!("w{i}"),
                };
                let (from, to) = (node(), node());
                triple(&from, labels[rng.gen_index(labels.len())], &to)
            };
            let mut base_edges = vec![triple("v0", "a", "v1")];
            base_edges.extend((0..2 * nodes).map(|_| edge(&mut rng, &["a", "b"], 0)));
            let text: String =
                base_edges.iter().map(|(f, l, t)| format!("{f} {l} {t}\n")).collect();
            let base = Arc::new(GraphDb::from_edge_list(&text).unwrap());
            let threshold = if seed % 3 == 0 { 4 } else { 1_000_000 };
            let mut live = LiveGraph::new(Arc::clone(&base), threshold);
            let mut ms: Vec<MaintainedStatement> = QUERIES
                .iter()
                .map(|q| {
                    let stmt = abc_statement(q, &base);
                    MaintainedStatement::try_new(stmt, live.view(), &config).unwrap().unwrap()
                })
                .collect();
            let mut added: Vec<(String, String, String)> = Vec::new();
            for step in 0..6 {
                let adds: Vec<_> = (0..rng.gen_index(4))
                    .map(|_| edge(&mut rng, &["a", "b", "c", "d"], 2))
                    .collect();
                let removes: Vec<_> = (0..rng.gen_index(3))
                    .map(|_| match rng.gen_index(3) {
                        0 if !added.is_empty() => added[rng.gen_index(added.len())].clone(),
                        1 => edge(&mut rng, &["a", "b", "c"], 0),
                        _ => base_edges[rng.gen_index(base_edges.len())].clone(),
                    })
                    .collect();
                added.extend(adds.iter().cloned());
                let out = live.apply(&adds, &removes);
                for (q, m) in QUERIES.iter().zip(&mut ms) {
                    let ctx = format!("seed {seed} step {step} `{q}`");
                    let (old, old_answers) = (m.reach.clone(), m.answers().to_vec());
                    let affected = m.affected(live.view(), &out.batch);
                    let pq = Arc::clone(m.statement().prepared());
                    let bind = |g: &Arc<GraphDb>| {
                        Arc::new(BoundStatement::bind(Arc::clone(&pq), Arc::clone(g)).unwrap())
                    };
                    let full =
                        MaintainedStatement::try_new(bind(live.base()), live.view(), &config)
                            .unwrap()
                            .unwrap();
                    // The heads that may be lost (over the old rows) and
                    // were not gained (over the new ones) are re-derived.
                    let (removed, gained) = pair_delta(&old, &full.reach);
                    let lost = m.heads_through(&removed, &config).unwrap();
                    let gained = full.heads_through(&gained, &config).unwrap();

                    let (recomputed, answers_changed) =
                        m.apply(live.view(), &out.batch, &config).unwrap();
                    assert_eq!(recomputed, affected.iter().map(Vec::len).sum::<usize>(), "{ctx}");
                    if let Some(epoch) = &out.merged {
                        m.rebase(bind(epoch));
                    }
                    for (p, rel) in full.reach.iter().enumerate() {
                        for (u, row) in rel.fwd.iter().enumerate() {
                            let before = old[p].fwd.get(u).map_or(&[][..], |r| &r[..]);
                            let hit = affected[p].binary_search(&(u as u32)).is_ok();
                            assert!(hit || before == &row[..], "{ctx}: row {p}/{u} changed");
                            changed += usize::from(before != &row[..]);
                            skipped += usize::from(!hit);
                        }
                    }
                    assert_eq!(m.reach, full.reach, "{ctx}");
                    assert_eq!(m.answers(), full.answers(), "{ctx}");
                    let counts =
                        |m: &MaintainedStatement| (m.stats().candidates, m.stats().verified);
                    assert_eq!(counts(m), counts(&full), "{ctx}");
                    assert_eq!(m.stats().sim_cache_misses, 0, "{ctx}");
                    let moved = old_answers.iter().filter(|h| !full.answers.contains(h)).count()
                        + full.answers.iter().filter(|h| !old_answers.contains(h)).count();
                    assert_eq!(answers_changed, moved, "{ctx}");
                    for head in lost.iter().filter(|h| gained.binary_search(h).is_err()) {
                        match m.answers().binary_search(head) {
                            Ok(_) => kept += 1,
                            Err(_) => dropped += 1,
                        }
                    }
                }
            }
        }
        assert!(changed > 0 && skipped > 0, "vacuous: {changed} changed, {skipped} skipped");
        assert!(kept > 0 && dropped > 0, "vacuous: {kept} re-derived, {dropped} dropped");
    }

    /// On a strongly connected `a`-ring every node reaches every changed
    /// edge, so the label-blind closure recomputes all `n` rows; a
    /// `c`-constrained variable recomputes only the changed edge's source,
    /// whose in-edges are all `a`.
    #[test]
    fn a_constrained_variable_skips_sources_that_cannot_read_the_changed_label() {
        let n = 30;
        let ring: String = (0..n).map(|i| format!("v{i} a v{}\n", (i + 1) % n)).collect();
        let base = Arc::new(GraphDb::from_edge_list(&ring).unwrap());
        let config = EvalConfig::default();
        for (query, rows) in
            [("Ans(x, y) <- (x, p, y), L(p) = c c*", 1), ("Ans(x, y) <- (x, p, y)", n)]
        {
            let mut live = LiveGraph::new(Arc::clone(&base), 1_000_000);
            let mut m =
                MaintainedStatement::try_new(abc_statement(query, &base), live.view(), &config)
                    .unwrap()
                    .unwrap();
            for (adds, removes) in
                [(vec![triple("v3", "c", "v7")], vec![]), (vec![], vec![triple("v3", "c", "v7")])]
            {
                let out = live.apply(&adds, &removes);
                assert_eq!(m.apply(live.view(), &out.batch, &config).unwrap().0, rows, "{query}");
                let pq = Arc::clone(m.statement().prepared());
                let merged = Arc::new(BoundStatement::bind(pq, live.force_merge()).unwrap());
                let (cold, _) = cold_answers(&merged, &config);
                assert_eq!(m.answers(), &cold[..], "{query}");
                m.rebase(merged);
            }
        }
    }

    /// A maintained statement searches nothing, so its joins project and
    /// keep no head-dedup set: every maintainable head-dedup case counts
    /// one candidate per answer, as a cold reference run does.
    #[test]
    fn maintained_head_dedup_is_skipped_exactly_when_heads_are_distinct() {
        use crate::eval::prepared::tests::{dedup_graph, DEDUP_CASES};
        let config = EvalConfig::default();
        for (text, kept) in DEDUP_CASES {
            let mut live = LiveGraph::new(Arc::new(dedup_graph()), 1_000_000);
            let stmt = statement(text, live.base());
            let built = MaintainedStatement::try_new(Arc::clone(&stmt), live.view(), &config);
            // Only a searched run keeps a set, and no searched query is
            // maintainable.
            let Some(mut m) = built.unwrap() else {
                assert!(kept && !stmt.prepared().relaxation_is_exact, "{text}");
                continue;
            };
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
            assert_eq!(rs.candidates, rs.verified, "{text}: {rs:?}");
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
        // A repeated path variable (relational repetition): one path is both
        // atoms, which two independent rows do not say.
        let stmt = statement("Ans(u, v) <- (u, p, z), (z, p, v), L(p) = x*", live.base());
        assert!(MaintainedStatement::try_new(stmt, live.view(), &config).unwrap().is_none());
    }

    /// Two named constants on one variable must both hold, in the first
    /// build and in every delta join: no node is both `n0` and `n2`, so the
    /// maintained answer set stays empty while a cold run of the same
    /// statement with one of the constants has answers.
    #[test]
    fn two_constants_on_one_variable_stay_empty_under_writes() {
        let base = Arc::new(GraphDb::from_edge_list("n0 a n1\nn2 a n3\n").unwrap());
        let mut live = LiveGraph::new(Arc::clone(&base), 1_000_000);
        let config = EvalConfig::default();
        let text = "Ans(y) <- (x, p, y), L(p) = a, x = :n0, x = :n2";
        let mut m =
            MaintainedStatement::try_new(statement(text, live.base()), live.view(), &config)
                .unwrap()
                .unwrap();
        assert_eq!(m.answers(), &[] as &[Vec<NodeId>]);
        let out = live
            .apply(&[triple("n0", "a", "n4"), triple("n2", "a", "n5")], &[triple("n2", "a", "n3")]);
        assert_eq!(m.apply(live.view(), &out.batch, &config).unwrap().1, 0);
        assert_eq!(m.answers(), &[] as &[Vec<NodeId>]);
        assert_eq!((m.stats().candidates, m.stats().verified), (0, 0));
        let merged = live.force_merge();
        assert_eq!(cold_answers(&statement(text, &merged), &config).0, m.answers());
        let one = "Ans(y) <- (x, p, y), L(p) = a, x = :n2";
        assert_eq!(cold_answers(&statement(one, &merged), &config).0.len(), 1);
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
                let overlay = Overlay::<false>::new(view, &pq, &stmt.art);
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
                    let atom = AtomPlan {
                        dir,
                        pin: None,
                        est_pairs: 1.0,
                        est_fwd_frontier: 1.0,
                        est_rev_frontier: 1.0,
                    };
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
