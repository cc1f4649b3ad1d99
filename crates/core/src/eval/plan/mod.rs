//! The evaluation driver: the one reachability kernel, the one candidate
//! join, and the shared relation-advancing step of the dense engines.
//!
//! Query *compilation* lives in [`super::prepared`]: a graph-independent
//! [`PreparedQuery`](super::prepared::PreparedQuery) built once per query,
//! and a cheap per-graph [`BoundPlan`](super::prepared::BoundPlan). This
//! module holds the pieces every evaluation is assembled from:
//! per-path-variable reachability relations come from the product-BFS
//! kernel of [`reach`] (generic over the adjacency it walks and the
//! constraint it steps), candidate node assignments from the backtracking
//! join [`enumerate_candidates`] over those relations, and each candidate is
//! verified by the convolution search of [`super::search`] (skipped for
//! plain CRPQs, for which the relaxation is exact). Cold runs
//! ([`BoundPlan::run_rows`](super::prepared::BoundPlan::run_rows)) and
//! incrementally maintained statements ([`super::delta`]) are the same
//! kernel and the same join over different adjacencies.

pub(crate) mod cost;
pub(crate) mod reach;

pub(crate) use reach::{reachability, reachability_planned, ReachRel};

use crate::error::QueryError;
use crate::eval::prepared::{PreparedQuery, RelSim};
use crate::eval::search::{SearchOutcome, SearchProblem};
use crate::eval::{reference, search, EvalConfig};
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

/// Advances every relation automaton of an encoded search state on the
/// global step described by `letters` (per-variable merged-alphabet letters,
/// `None` = `⊥`), reading the current bitset rows from `cur` and writing the
/// successor rows into `next` at the offsets given by `rel_off`/`rel_blocks`.
/// Returns `false` if some relation has no matching transition. Shared by
/// the convolution search and the answer-automaton construction so the two
/// dense engines cannot drift apart.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn advance_relations(
    pq: &PreparedQuery,
    sims: &[&RelSim],
    rel_off: &[usize],
    rel_blocks: &[usize],
    letters: &[Option<ecrpq_automata::alphabet::Symbol>],
    cur: &[u64],
    rel_scratch: &mut [ecrpq_automata::sim::StateSet],
    next: &mut [u64],
) -> bool {
    for (j, r) in pq.relations.iter().enumerate() {
        let rs = sims[j];
        let (off, nb) = (rel_off[j], rel_blocks[j]);
        if r.tapes.iter().all(|&t| letters[t].is_none()) {
            // This relation's convolution has already ended; it does not
            // read ⊥-only letters.
            next[off..off + nb].copy_from_slice(&cur[off..off + nb]);
            continue;
        }
        let Some(sid) = rs.letter_id(&r.tapes, letters, pq.alphabet_len, pq.code_base) else {
            return false; // letter not in the relation's alphabet
        };
        if !rs.sim.step_blocks_into(&cur[off..off + nb], sid, &mut rel_scratch[j]) {
            return false;
        }
        next[off..off + nb].copy_from_slice(rel_scratch[j].as_blocks());
    }
    true
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
/// This is the one candidate join: cold runs, membership checks, the
/// answer-automaton and length-abstraction paths, and the maintained
/// statements of [`super::delta`] (whose relations cover an overlay's
/// `num_nodes`, delta-introduced nodes included) all enumerate through it.
///
/// `constants` are the node variables with forced values (the plan's
/// resolved constants, or the values forced by a membership check).
/// `order` is the variable enumeration order from the planner; `None` falls
/// back to the static order (for the callers that do not plan). Returns an
/// error if the candidate budget is exceeded.
#[allow(clippy::too_many_arguments)]
pub(crate) fn enumerate_candidates<F: FnMut(&[NodeId]) -> bool>(
    pq: &PreparedQuery,
    num_nodes: usize,
    constants: &[(usize, NodeId)],
    reach: &[ReachRel],
    order: Option<&[usize]>,
    config: &EvalConfig,
    stats: &mut EvalStats,
    visit: F,
) -> Result<(), QueryError> {
    let edges = join_edges(pq);
    let static_fallback;
    let order: &[usize] = match order {
        Some(o) => o,
        None => {
            static_fallback = cost::static_order(pq, constants, &edges);
            &static_fallback
        }
    };
    let mut join = Join {
        order,
        edges: &edges,
        reach,
        constants: constants.iter().copied().collect(),
        all_nodes: (0..num_nodes as u32).map(NodeId).collect(),
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
    all_nodes: Vec<NodeId>,
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
        for v in candidates.unwrap_or_else(|| self.all_nodes.clone()) {
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
    pub(crate) fn run(self, problem: &SearchProblem<'_>) -> Result<SearchOutcome, QueryError> {
        match self {
            Engine::Dense => search::run(problem),
            Engine::Reference => reference::run(problem),
        }
    }
}
