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
//! the first build of a maintained statement ([`super::delta`], which plans
//! once, runs the same kernel over an overlay's adjacency, and then changes
//! its answers by delta joins through the same join), verifying each
//! candidate by [`Engine::run`] — the convolution search of
//! [`super::search`], skipped in a nodes or Boolean run of a plain CRPQ, for
//! which the relaxation is exact. Such a run *projects* the join: it
//! enumerates the needed variables only and asks of the existential rest
//! whether it has some completion (Yannakakis' semi-join on an acyclic
//! query), since nothing downstream reads it. A searched run needs full
//! assignments, because the search moves every path variable. An answer
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
use std::collections::{HashMap, HashSet};

/// Evaluation statistics reported alongside answers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Candidate assignments examined: assignments of the needed variables
    /// (head variables and constants) that have a completion when the run
    /// searches no candidate, full node assignments otherwise.
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

/// The slot value of a variable the join has not assigned.
const UNSET: NodeId = NodeId(u32::MAX);

/// Enumerates candidate node assignments consistent with the reachability
/// relations, invoking `visit` on each; `visit` returns `false` to stop.
/// This is the one candidate join: the candidate driver `BoundPlan::drive`
/// (cold runs, membership checks, and the first build of a maintained
/// statement), the delta joins that keep a maintained statement's answers
/// current ([`super::delta`], whose relations cover an overlay's nodes,
/// delta-introduced nodes included) and the answer-automaton and
/// length-abstraction paths all enumerate through it.
///
/// `constants` are the node variables with forced values (the plan's
/// resolved constants, or the values forced by a membership check, an
/// answer automaton's head or a delta join's changed pair); a variable
/// forced to two different nodes takes no value. `order` is the variable
/// enumeration order, from [`cost::plan_query`] or derived from one. With
/// `project`, a candidate is a distinct assignment of the needed variables
/// ([`PreparedQuery::is_needed`]): past the last of them in `order`, the
/// join only decides whether the existential rest has some completion, and
/// leaves it unassigned in what `visit` sees. Without, a candidate is a
/// full assignment.
///
/// Returns an error once the candidates, plus the assignments and memo
/// entries of the existence check, pass `config.max_candidates`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn enumerate_candidates<F: FnMut(&[NodeId]) -> bool>(
    pq: &PreparedQuery,
    constants: &[(usize, NodeId)],
    reach: &[ReachRel],
    order: &[usize],
    project: bool,
    config: &EvalConfig,
    stats: &mut EvalStats,
    visit: F,
) -> Result<(), QueryError> {
    let edges = join_edges(pq);
    let needed = |v: &usize| pq.is_needed(*v, constants);
    let cut = match project {
        true => order.iter().rposition(needed).map_or(0, |i| i + 1),
        false => order.len(),
    };
    // An existential variable enumerated before the last needed one can
    // repeat a needed assignment.
    let enumerated = &order[..cut];
    let seen = (project && !enumerated.iter().all(needed))
        .then(|| (enumerated.iter().copied().filter(needed).collect(), HashSet::new()));
    let mut join = Join {
        order,
        cut,
        edges: &edges,
        reach,
        constants,
        assignment: vec![UNSET; pq.node_vars.len()],
        stats,
        spent: 0,
        max_candidates: config.max_candidates as u64,
        seen,
        memo: HashMap::new(),
        visit,
        stop: false,
    };
    join.recurse(0)
}

/// The state of one backtracking join over the variable order.
struct Join<'a, F> {
    order: &'a [usize],
    /// The join enumerates `order[..cut]`; the rest only has to exist.
    cut: usize,
    edges: &'a [JoinEdge],
    reach: &'a [ReachRel],
    constants: &'a [(usize, NodeId)],
    assignment: Vec<NodeId>,
    stats: &'a mut EvalStats,
    /// Candidates plus the existence check's assignments and memo entries.
    spent: u64,
    max_candidates: u64,
    /// The needed variables, and their assignments counted so far, when
    /// `order[..cut]` holds an existential variable.
    seen: Option<(Vec<usize>, HashSet<Vec<NodeId>>)>,
    /// Whether a connected part of unassigned variables has a completion,
    /// by the part and the values of the assigned variables it touches.
    memo: HashMap<(Vec<usize>, Vec<NodeId>), bool>,
    visit: F,
    stop: bool,
}

impl<F: FnMut(&[NodeId]) -> bool> Join<'_, F> {
    fn recurse(&mut self, depth: usize) -> Result<(), QueryError> {
        if depth == self.cut {
            return self.candidate();
        }
        let var = self.order[depth];
        for v in self.values(var) {
            if self.assign(var, v) {
                self.recurse(depth + 1)?;
                self.assignment[var] = UNSET;
                if self.stop {
                    break;
                }
            }
        }
        Ok(())
    }

    /// Counts and visits the assignment of `order[..cut]`, unless it
    /// repeats a needed assignment or has no completion.
    fn candidate(&mut self) -> Result<(), QueryError> {
        let a = &self.assignment;
        let key = self.seen.as_ref().map(|(vars, _)| vars.iter().map(|&v| a[v]).collect());
        if let (Some((_, seen)), Some(key)) = (&self.seen, &key) {
            if seen.contains(key) {
                return Ok(());
            }
        }
        let order = self.order;
        if !self.completes(&order[self.cut..])? {
            return Ok(());
        }
        if let (Some((_, seen)), Some(key)) = (&mut self.seen, key) {
            seen.insert(key);
        }
        self.stats.candidates += 1;
        self.charge()?;
        self.stop = !(self.visit)(&self.assignment);
        Ok(())
    }

    /// Whether the unassigned `vars` have some assignment consistent with
    /// every join edge. Each connected part of them is decided on its own,
    /// stopping at its first completion, and memoised by the values of the
    /// assigned variables it touches: on an acyclic query, the semi-join of
    /// Yannakakis' algorithm.
    fn completes(&mut self, vars: &[usize]) -> Result<bool, QueryError> {
        let mut left = vars.to_vec();
        while !left.is_empty() {
            // Every variable of a part after the first is adjacent to an
            // earlier one, so its values are narrowed by an assigned row.
            let mut part = vec![left.remove(0)];
            let touches = |part: &[usize], w: usize| part.iter().any(|&u| self.adjacent(u, w));
            while let Some(i) = left.iter().position(|&w| touches(&part, w)) {
                part.push(left.remove(i));
            }
            let a = &self.assignment;
            let bound = (0..a.len()).filter(|&v| a[v] != UNSET && touches(&part, v));
            let values: Vec<NodeId> = bound.map(|v| a[v]).collect();
            let key = (part, values);
            let known = self.memo.get(&key).copied();
            if !known.map_or_else(|| self.part_completes(key), Ok)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Decides and memoises the `key.0` part of `completes`:
    /// its first variable takes each of its values until the rest completes.
    fn part_completes(&mut self, key: (Vec<usize>, Vec<NodeId>)) -> Result<bool, QueryError> {
        let (var, rest) = (key.0[0], &key.0[1..]);
        let mut found = false;
        for v in self.values(var) {
            self.charge()?;
            if self.assign(var, v) {
                found = self.completes(rest)?;
                self.assignment[var] = UNSET;
                if found {
                    break;
                }
            }
        }
        self.charge()?;
        self.memo.insert(key, found);
        Ok(found)
    }

    fn adjacent(&self, u: usize, w: usize) -> bool {
        self.edges.iter().any(|e| (e.from, e.to) == (u, w) || (e.from, e.to) == (w, u))
    }

    /// The values `var` can take under the current assignment: its forced
    /// value (none when two forced values of it disagree), intersected with
    /// the rows of every edge whose other endpoint is assigned. With nothing
    /// to narrow by, the nodes whose row along each of var's edges is
    /// non-empty, from the relation's list of them: any other node has no
    /// completion, so skipping it changes no count and keeps the order.
    fn values(&self, var: usize) -> Vec<NodeId> {
        let (edges, reach, a) = (self.edges, self.reach, &self.assignment);
        let mut forced = self.constants.iter().filter(|&&(c, _)| c == var).map(|&(_, n)| n);
        let mut values: Option<Vec<NodeId>> =
            forced.next().map(|n| if forced.all(|m| m == n) { vec![n] } else { Vec::new() });
        let mut narrow = |row: &Vec<NodeId>| {
            values = Some(match values.take() {
                None => row.clone(),
                Some(c) => intersect_sorted(&c, row),
            });
        };
        for e in edges {
            if e.from == var && a[e.to] != UNSET {
                narrow(&reach[e.path].bwd[a[e.to].index()]);
            }
            if e.to == var && a[e.from] != UNSET {
                narrow(&reach[e.path].fwd[a[e.from].index()]);
            }
        }
        values.unwrap_or_else(|| {
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
            let listed = listed.expect("every node variable is an atom's endpoint");
            listed.iter().copied().filter(has_rows).collect()
        })
    }

    /// Assigns `v` to `var` if every edge between `var` and an assigned
    /// variable holds.
    fn assign(&mut self, var: usize, v: NodeId) -> bool {
        self.assignment[var] = v;
        let a = &self.assignment;
        let ok = self.edges.iter().filter(|e| e.from == var || e.to == var).all(|e| {
            let (f, t) = (a[e.from], a[e.to]);
            f == UNSET || t == UNSET || self.reach[e.path].contains(f, t)
        });
        if !ok {
            self.assignment[var] = UNSET;
        }
        ok
    }

    /// Counts one unit of work against the candidate budget.
    fn charge(&mut self) -> Result<(), QueryError> {
        self.spent += 1;
        if self.spent > self.max_candidates {
            return Err(QueryError::BudgetExceeded {
                what: format!("more than {} candidate assignments", self.max_candidates),
            });
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
