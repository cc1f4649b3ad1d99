//! The evaluation driver: the one planner, the one reachability kernel and
//! the one candidate join.
//!
//! Query *compilation* lives in [`super::prepared`]: a graph-independent
//! [`PreparedQuery`](super::prepared::PreparedQuery) built once per query,
//! and a cheap per-graph [`BoundPlan`](super::prepared::BoundPlan). This
//! module holds the pieces every evaluation is assembled from: the join
//! order, BFS directions and pins of [`cost::plan_query`], per-path-variable
//! reachability relations from the product-BFS kernel of [`reach`] (generic
//! over the adjacency it walks and the constraint it steps), and candidate
//! node assignments from the backtracking join [`enumerate_candidates`] over
//! those relations. `BoundPlan::plan_reach` runs the first two for cold
//! runs, membership checks, answer automata and `Q_len` alike. The one
//! candidate driver (`BoundPlan::drive`) runs the join for runs, checks and
//! maintained statements ([`super::delta`], which plan once and run the
//! same kernel over an overlay's adjacency), verifying each candidate by
//! [`Engine::run`] — the convolution search of [`super::search`], skipped
//! in a run of a plain CRPQ, for which the relaxation is exact. An answer
//! automaton explores candidates with the search's expander instead.

pub(crate) mod cost;
pub(crate) mod reach;

pub(crate) use reach::{reachability_planned, ReachRel};

use crate::error::QueryError;
use crate::eval::prepared::PreparedQuery;
use crate::eval::search::{SearchOutcome, SearchProblem};
use crate::eval::{reference, search, EvalConfig};
use ecrpq_automata::sim::SetTable;
use ecrpq_graph::NodeId;
use std::collections::HashMap;

/// Evaluation statistics reported alongside answers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Candidate node assignments examined.
    pub candidates: u64,
    /// Candidates that passed verification.
    pub verified: u64,
    /// Total states visited by convolution searches.
    pub search_states: u64,
    /// Compiled-automaton artifacts (relation tables, unary-constraint
    /// tables) fetched from a cache instead of being compiled for this run.
    /// Re-running a prepared query reports only hits.
    pub sim_cache_hits: u64,
    /// Compiled-automaton artifacts built fresh for this run.
    pub sim_cache_misses: u64,
}

/// What a run should produce ([`BoundPlan::run_rows`]).
///
/// [`BoundPlan::run_rows`]: super::prepared::BoundPlan::run_rows
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Head-node tuples only.
    Nodes,
    /// Stop at the first answer.
    Boolean,
    /// Full answers with witness paths.
    Paths,
}

// ---------------------------------------------------------------------------
// Candidate enumeration
// ---------------------------------------------------------------------------

/// Constraint edge used during candidate enumeration: path variable `path`
/// requires `(σ(from), σ(to)) ∈ reach[path]`.
pub(crate) struct JoinEdge {
    pub(crate) path: usize,
    pub(crate) from: usize,
    pub(crate) to: usize,
}

/// All join edges of a prepared query: one per path atom, plus one per
/// repeated endpoint pair of a shared path variable.
pub(crate) fn join_edges(pq: &PreparedQuery) -> Vec<JoinEdge> {
    let mut edges: Vec<JoinEdge> = Vec::new();
    for p in 0..pq.path_vars.len() {
        edges.push(JoinEdge { path: p, from: pq.path_from[p], to: pq.path_to[p] });
    }
    for &(p, f, t) in &pq.extra_endpoints {
        edges.push(JoinEdge { path: p, from: f, to: t });
    }
    edges
}

/// Enumerates candidate node assignments consistent with the reachability
/// relations, invoking `visit` on each; `visit` returns `false` to stop.
/// This is the one candidate join: the candidate driver `BoundPlan::drive`
/// (cold runs, membership checks, and the maintained statements of
/// [`super::delta`], whose relations cover an overlay's `num_nodes`,
/// delta-introduced nodes included) and the answer-automaton and
/// length-abstraction paths all enumerate through it.
///
/// `constants` are the node variables with forced values (the plan's
/// resolved constants, or the values forced by a membership check or an
/// answer automaton's head). `order` is the variable enumeration order from
/// [`cost::plan_query`]. Returns an error if the candidate budget is
/// exceeded.
#[allow(clippy::too_many_arguments)]
pub(crate) fn enumerate_candidates<F: FnMut(&[NodeId]) -> bool>(
    pq: &PreparedQuery,
    num_nodes: usize,
    constants: &[(usize, NodeId)],
    reach: &[ReachRel],
    order: &[usize],
    config: &EvalConfig,
    stats: &mut EvalStats,
    visit: F,
) -> Result<(), QueryError> {
    let edges = join_edges(pq);
    let mut join = Join {
        order,
        edges: &edges,
        reach,
        constants: constants.iter().copied().collect(),
        num_nodes,
        assignment: vec![None; pq.node_vars.len()],
        stats,
        max_candidates: config.max_candidates,
        visit,
        stop: false,
    };
    join.recurse(0)
}

/// The state of one backtracking join over the variable order.
struct Join<'a, F> {
    order: &'a [usize],
    edges: &'a [JoinEdge],
    reach: &'a [ReachRel],
    constants: HashMap<usize, NodeId>,
    num_nodes: usize,
    assignment: Vec<Option<NodeId>>,
    stats: &'a mut EvalStats,
    max_candidates: usize,
    visit: F,
    stop: bool,
}

impl<F: FnMut(&[NodeId]) -> bool> Join<'_, F> {
    fn recurse(&mut self, depth: usize) -> Result<(), QueryError> {
        if self.stop {
            return Ok(());
        }
        if depth == self.order.len() {
            self.stats.candidates += 1;
            if self.stats.candidates > self.max_candidates as u64 {
                return Err(QueryError::BudgetExceeded {
                    what: format!("more than {} candidate assignments", self.max_candidates),
                });
            }
            let sigma: Vec<NodeId> = self.assignment.iter().map(|a| a.unwrap()).collect();
            self.stop = !(self.visit)(&sigma);
            return Ok(());
        }
        let var = self.order[depth];
        let (edges, reach) = (self.edges, self.reach);
        // Candidate values: a constant's forced value, intersected with the
        // rows of every edge whose other endpoint is already assigned.
        let constant = self.constants.get(&var).copied();
        let mut candidates: Option<Vec<NodeId>> = constant.map(|n| vec![n]);
        let mut narrow = |row: &Vec<NodeId>| {
            candidates = Some(match candidates.take() {
                None => row.clone(),
                Some(c) => intersect_sorted(&c, row),
            });
        };
        for e in edges {
            if let (true, Some(t)) = (e.from == var, self.assignment[e.to]) {
                narrow(&reach[e.path].bwd[t.index()]);
            }
            if let (true, Some(f)) = (e.to == var, self.assignment[e.from]) {
                narrow(&reach[e.path].fwd[f.index()]);
            }
        }
        // With nothing to narrow by, the nodes whose row along each of
        // var's edges is non-empty, from the relation's list of them: any
        // other node has no completion, so skipping it changes no count and
        // keeps the order.
        let candidates = candidates.unwrap_or_else(|| {
            let has_rows = |v: &NodeId| {
                edges.iter().all(|e| {
                    (e.from != var || !reach[e.path].fwd[v.index()].is_empty())
                        && (e.to != var || !reach[e.path].bwd[v.index()].is_empty())
                })
            };
            let listed = edges.iter().find_map(|e| match (e.from == var, e.to == var) {
                (true, _) => Some(&reach[e.path].sources),
                (_, true) => Some(&reach[e.path].targets),
                _ => None,
            });
            match listed {
                Some(list) => list.iter().copied().filter(has_rows).collect(),
                None => (0..self.num_nodes as u32).map(NodeId).collect(),
            }
        });
        for v in candidates {
            if constant.is_some_and(|c| c != v) {
                continue;
            }
            self.assignment[var] = Some(v);
            // check fully-instantiated edges involving var
            let ok = edges.iter().all(|e| match (self.assignment[e.from], self.assignment[e.to]) {
                (Some(f), Some(t)) if e.from == var || e.to == var => reach[e.path].contains(f, t),
                _ => true,
            });
            if ok {
                self.recurse(depth + 1)?;
            }
            self.assignment[var] = None;
            if self.stop {
                break;
            }
        }
        Ok(())
    }
}

fn intersect_sorted(a: &[NodeId], b: &[NodeId]) -> Vec<NodeId> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Which candidate-verification engine to use: the dense product engine
/// (every run) or the reference implementation (classic cloned-state BFS,
/// the differential oracle of the test suites only).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Engine {
    Dense,
    Reference,
}

impl Engine {
    /// Verifies one candidate; the candidate driver `BoundPlan::drive` is
    /// the only caller. `tables` are the run's relation set tables
    /// ([`search::run`]); the reference engine does not read them.
    pub(crate) fn run(
        self,
        problem: &SearchProblem<'_>,
        tables: &mut [SetTable],
    ) -> Result<SearchOutcome, QueryError> {
        match self {
            Engine::Dense => search::run(problem, tables),
            Engine::Reference => reference::run(problem),
        }
    }
}
