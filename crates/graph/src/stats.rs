//! Bind-time graph statistics for cost-based query planning.
//!
//! A [`GraphStats`] summarizes one [`GraphDb`] in a single O(V + E) pass plus
//! a small seeded reachability sample: per-label edge counts and distinct
//! endpoint counts, log₂-bucketed degree histograms, and the average fraction
//! of the graph reachable from a random node. The planner in `ecrpq-core`
//! turns these into per-atom cardinality estimates (join order, BFS
//! direction, constant pushdown); the server exposes them through its `load`
//! and `stats` ops.
//!
//! Statistics are computed lazily, once per graph, via
//! [`GraphDb::stats`](crate::GraphDb::stats) — the result is cached in an
//! `OnceLock<Arc<GraphStats>>` on the graph. A graph never changes, so the
//! cache never goes stale: a write reaches the planner as a new epoch (see
//! [`LiveGraph`](crate::LiveGraph)) with a cache of its own.

use crate::graph::{GraphDb, NodeId};
use crate::prng::SplitMix64;

/// Seed of the reachability sample (fixed: statistics are deterministic).
const SAMPLE_SEED: u64 = 0x57A7_57A7_57A7_57A7;

/// Number of BFS sources drawn for the reachability sample.
const SAMPLE_SOURCES: usize = 16;

/// Per-label occurrence counts: how many edges carry the label, and how many
/// distinct nodes have an outgoing (resp. incoming) edge with it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LabelStats {
    /// Edges carrying this label.
    pub edges: u64,
    /// Distinct source nodes of edges with this label.
    pub sources: u64,
    /// Distinct target nodes of edges with this label.
    pub targets: u64,
}

/// One-pass summary of a [`GraphDb`], the planner's input.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GraphStats {
    /// Number of nodes.
    pub nodes: u64,
    /// Number of edges.
    pub edges: u64,
    /// Per-label statistics, indexed by `Symbol::index()` of the graph's
    /// alphabet.
    pub labels: Vec<LabelStats>,
    /// Out-degree histogram: bucket 0 counts degree-0 nodes, bucket `k ≥ 1`
    /// counts nodes with degree in `[2^(k-1), 2^k)`.
    pub out_degree_hist: Vec<u64>,
    /// In-degree histogram, bucketed like `out_degree_hist`.
    pub in_degree_hist: Vec<u64>,
    /// Maximum out-degree.
    pub max_out_degree: u64,
    /// Maximum in-degree.
    pub max_in_degree: u64,
    /// Average fraction of the graph (in `[0, 1]`) reachable from a node,
    /// estimated by label-blind BFS from a small seeded sample of sources.
    pub reach_fraction: f64,
}

impl GraphStats {
    /// Computes statistics for a graph in one pass over nodes and edges plus
    /// [`SAMPLE_SOURCES`] label-blind BFS traversals. Deterministic: the
    /// sample PRNG is fixed-seeded.
    pub fn compute(g: &GraphDb) -> GraphStats {
        let n = g.num_nodes();
        let num_labels = g.alphabet().len();
        let mut labels = vec![LabelStats::default(); num_labels];
        // Distinct endpoints per label: dedup the (small) per-node label
        // lists instead of keeping per-label node sets.
        let mut scratch: Vec<u32> = Vec::new();
        for v in g.nodes() {
            scratch.clear();
            scratch.extend(g.out_edges(v).iter().map(|&(l, _)| l.0));
            for &l in &scratch {
                labels[l as usize].edges += 1;
            }
            scratch.sort_unstable();
            scratch.dedup();
            for &l in &scratch {
                labels[l as usize].sources += 1;
            }
            scratch.clear();
            scratch.extend(g.in_edges(v).iter().map(|&(l, _)| l.0));
            scratch.sort_unstable();
            scratch.dedup();
            for &l in &scratch {
                labels[l as usize].targets += 1;
            }
        }
        let mut out_hist = Vec::new();
        let mut in_hist = Vec::new();
        let (mut max_out, mut max_in) = (0u64, 0u64);
        for v in g.nodes() {
            let (o, i) = (g.out_degree(v) as u64, g.in_degree(v) as u64);
            bump_bucket(&mut out_hist, o);
            bump_bucket(&mut in_hist, i);
            max_out = max_out.max(o);
            max_in = max_in.max(i);
        }
        GraphStats {
            nodes: n as u64,
            edges: g.num_edges() as u64,
            labels,
            out_degree_hist: out_hist,
            in_degree_hist: in_hist,
            max_out_degree: max_out,
            max_in_degree: max_in,
            reach_fraction: reach_sample(g),
        }
    }

    /// Average out-degree (`0` for the empty graph).
    pub fn avg_degree(&self) -> f64 {
        if self.nodes == 0 {
            0.0
        } else {
            self.edges as f64 / self.nodes as f64
        }
    }

    /// Statistics for one label, or zeros if the index is out of range (a
    /// query label the graph never uses).
    pub fn label(&self, index: usize) -> LabelStats {
        self.labels.get(index).copied().unwrap_or_default()
    }
}

/// Increments the log₂ bucket of `value`, growing the histogram as needed.
fn bump_bucket(hist: &mut Vec<u64>, value: u64) {
    let bucket = if value == 0 { 0 } else { 64 - value.leading_zeros() as usize };
    if hist.len() <= bucket {
        hist.resize(bucket + 1, 0);
    }
    hist[bucket] += 1;
}

/// Estimates the average reachable fraction by label-blind BFS from up to
/// [`SAMPLE_SOURCES`] seeded sources.
fn reach_sample(g: &GraphDb) -> f64 {
    let n = g.num_nodes();
    if n == 0 {
        return 0.0;
    }
    let mut rng = SplitMix64::seed_from_u64(SAMPLE_SEED);
    let sources = SAMPLE_SOURCES.min(n);
    let mut seen = vec![false; n];
    let mut stack: Vec<NodeId> = Vec::new();
    let mut visited: Vec<NodeId> = Vec::new();
    let mut total = 0u64;
    for _ in 0..sources {
        let start = NodeId(rng.gen_index(n) as u32);
        seen[start.index()] = true;
        stack.push(start);
        visited.push(start);
        while let Some(v) = stack.pop() {
            for &(_, to) in g.out_edges(v) {
                if !seen[to.index()] {
                    seen[to.index()] = true;
                    stack.push(to);
                    visited.push(to);
                }
            }
        }
        total += visited.len() as u64;
        for v in visited.drain(..) {
            seen[v.index()] = false;
        }
    }
    total as f64 / (sources as f64 * n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn cycle_stats_are_exact() {
        let g = generators::cycle_graph(8, "a");
        let s = g.stats();
        assert_eq!(s.nodes, 8);
        assert_eq!(s.edges, 8);
        assert_eq!(s.labels.len(), 1);
        assert_eq!(s.labels[0], LabelStats { edges: 8, sources: 8, targets: 8 });
        // Every node has out- and in-degree exactly 1 → all in bucket 1.
        assert_eq!(s.out_degree_hist, vec![0, 8]);
        assert_eq!(s.in_degree_hist, vec![0, 8]);
        assert_eq!(s.max_out_degree, 1);
        assert_eq!(s.max_in_degree, 1);
        // A cycle reaches every node from every node.
        assert!((s.reach_fraction - 1.0).abs() < 1e-9);
    }

    #[test]
    fn stats_are_cached_and_invalidated_by_mutation() {
        use std::sync::Arc;
        let g = Arc::new(GraphDb::from_edge_list("a x b\n").unwrap());
        let first = g.stats();
        assert!(Arc::ptr_eq(&first, &g.stats()), "stats must be cached");
        assert_eq!(first.edges, 1);
        // A mutation is a merged epoch with fresh statistics; the old epoch
        // keeps its own.
        let mut live = crate::LiveGraph::new(Arc::clone(&g), 1);
        let merged = live.apply(&[("b".into(), "x".into(), "a".into())], &[]).merged.unwrap();
        let second = merged.stats();
        assert_eq!(second.edges, 2, "a merged epoch must not reuse the old stats");
        assert_eq!(second.labels[0].sources, 2);
        assert!(Arc::ptr_eq(&first, &g.stats()));
    }

    #[test]
    fn distinct_endpoints_dedup_parallel_edges() {
        let mut g = crate::GraphBuilder::default();
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge_labeled(a, "x", b);
        g.add_edge_labeled(a, "x", b);
        g.add_edge_labeled(a, "y", b);
        let g = g.build();
        let s = g.stats();
        assert_eq!(s.label(g.alphabet().sym("x").index()).edges, 2);
        assert_eq!(s.label(g.alphabet().sym("x").index()).sources, 1);
        assert_eq!(s.label(g.alphabet().sym("x").index()).targets, 1);
        // Out-of-range labels read as zero (query labels the graph lacks).
        assert_eq!(s.label(99), LabelStats::default());
    }

    #[test]
    fn string_graph_reach_fraction_is_partial() {
        let word: Vec<&str> = vec!["a"; 19];
        let (g, _, _) = generators::string_graph(&word);
        let s = g.stats();
        // A line graph reaches only the suffix from each node: strictly
        // between one node's worth and everything.
        assert!(s.reach_fraction > 1.0 / 20.0);
        assert!(s.reach_fraction < 1.0);
    }
}
