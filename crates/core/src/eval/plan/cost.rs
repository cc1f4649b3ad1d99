//! The cost-based query planner: per-atom cardinality estimates from graph
//! statistics × automaton language shape, driving join order, BFS direction,
//! and constant pushdown.
//!
//! [`plan_query`] is the one producer of a join order. Every evaluation
//! plans first (a few array scans, far below the cost of one reachability
//! BFS) — runs, membership checks, answer automata and `Q_len` through
//! `BoundPlan::plan_reach`, a maintained statement once when it is built —
//! and gets a [`QueryPlan`]: one [`AtomPlan`] per path variable — BFS
//! direction ([`Direction`]), an optional pinned single source (selectivity
//! pushdown of a forced value), and an estimated pair cardinality — plus the
//! node variable join order consumed by `enumerate_candidates`. For a join
//! that projects (a run that searches no candidate), the order prefers a
//! needed variable — a head variable or a constant — among equally
//! connected ones, so the existential variables tend to come last, where
//! the join only asks whether they exist; connectivity still comes first.
//!
//! **Plan choice never changes answers.** Reverse BFS over the reverse CSR
//! with the reversed constraint automaton computes the same binary relation;
//! a pinned source restricts the relation to rows the join provably probes
//! (the pinned variable is a constant everywhere); the join order only
//! reorders the backtracking enumeration (and, in a projecting join, moves
//! the point past which it only decides existence).
//! `tests/planner_differential.rs` holds answers and `verified` counts equal
//! to the reference engine's.
//!
//! The cost model is deliberately coarse — selectivity *ranking* is what
//! drives the wins, not absolute accuracy:
//!
//! * an atom's **forward frontier** is the number of nodes with an out-edge
//!   labeled by some symbol the constraint can read first (per-label
//!   distinct-source counts from [`GraphStats`]);
//! * its **reverse frontier** counts target nodes of symbols the constraint
//!   can read last;
//! * estimated pairs ≈ `reach_fraction × fwd_frontier × rev_frontier`
//!   (+ the diagonal when the language accepts ε), where `reach_fraction`
//!   is the sampled average reachable fraction of the graph.

use crate::eval::prepared::{BoundPlan, PreparedQuery};
use crate::eval::EvalStats;
use ecrpq_automata::alphabet::Symbol;
use ecrpq_automata::nfa::Nfa;
use ecrpq_graph::stats::{GraphStats, LabelStats};
use ecrpq_graph::NodeId;
use std::collections::HashMap;
use std::fmt;

/// BFS direction of one reachability atom.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Product BFS from sources over the forward CSR (the classical order).
    Forward,
    /// Product BFS from targets over the reverse CSR with the reversed
    /// constraint automaton — chosen when the estimated target frontier is
    /// strictly smaller.
    Reverse,
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Direction::Forward => "forward",
            Direction::Reverse => "reverse",
        })
    }
}

/// The planned execution of one path variable's reachability atom.
#[derive(Clone, Debug)]
pub(crate) struct AtomPlan {
    /// BFS direction.
    pub dir: Direction,
    /// BFS from this single node only (a bound constant pushed into the
    /// product), instead of from every node. `None` = all sources.
    pub pin: Option<NodeId>,
    /// Estimated result pairs (drives the join order).
    pub est_pairs: f64,
    /// Estimated forward (source-side) frontier size.
    pub est_fwd_frontier: f64,
    /// Estimated reverse (target-side) frontier size.
    pub est_rev_frontier: f64,
}

/// The full plan of one evaluation: per-atom strategies plus the node
/// variable join order.
#[derive(Clone, Debug)]
pub(crate) struct QueryPlan {
    /// One strategy per path variable.
    pub atoms: Vec<AtomPlan>,
    /// Node-variable enumeration order (constants first).
    pub order: Vec<usize>,
}

/// Plans one evaluation of `bound`: the one producer of a join order.
/// `constants` are the node variables with forced values — the plan's
/// resolved constants for a run, or the values forced by a membership check
/// or an answer automaton's head. `project` says whether the join will
/// enumerate only the needed variables (a run that searches no candidate).
pub(crate) fn plan_query(
    bound: &BoundPlan<'_>,
    constants: &[(usize, NodeId)],
    project: bool,
) -> QueryPlan {
    let pq = bound.prepared();
    let edges = super::join_edges(pq);
    let gstats = bound.graph().stats();
    let merged = merged_label_stats(bound, &gstats);
    let const_map: HashMap<usize, NodeId> = constants.iter().copied().collect();
    let atoms: Vec<AtomPlan> =
        (0..pq.path_vars.len()).map(|p| plan_atom(pq, p, &gstats, &merged, &const_map)).collect();
    let order = cost_order(pq, constants, &edges, &atoms, project);
    QueryPlan { atoms, order }
}

/// The cost-based variable order: constants first, then greedily the
/// variable with the most edges into the placed set, tie-broken — in a
/// projecting join — by preferring a needed variable, then by the smallest
/// estimated cardinality among its incident atoms (place selective
/// variables early so they prune more), then by variable index.
/// Connectivity stays first: placing every needed variable first would
/// enumerate the cross product of unconnected ones.
fn cost_order(
    pq: &PreparedQuery,
    constants: &[(usize, NodeId)],
    edges: &[super::JoinEdge],
    atoms: &[AtomPlan],
    project: bool,
) -> Vec<usize> {
    let num_vars = pq.node_vars.len();
    let mut order: Vec<usize> = Vec::new();
    let mut placed = vec![false; num_vars];
    for &(v, _) in constants {
        if !placed[v] {
            placed[v] = true;
            order.push(v);
        }
    }
    while order.len() < num_vars {
        let mut best: Option<(usize, (usize, bool), f64)> = None;
        for v in (0..num_vars).filter(|&v| !placed[v]) {
            let connectivity = edges
                .iter()
                .filter(|e| (e.from == v && placed[e.to]) || (e.to == v && placed[e.from]))
                .count();
            let rank = (connectivity, project && pq.is_needed(v, constants));
            let weight = edges
                .iter()
                .filter(|e| e.from == v || e.to == v)
                .map(|e| atoms[e.path].est_pairs)
                .fold(f64::INFINITY, f64::min);
            let better = match best {
                None => true,
                Some((_, br, bw)) => rank > br || (rank == br && weight < bw),
            };
            if better {
                best = Some((v, rank, weight));
            }
        }
        let (v, _, _) = best.expect("some variable is unplaced");
        placed[v] = true;
        order.push(v);
    }
    order
}

/// Plans one atom: direction, pin, and cardinality estimate.
fn plan_atom(
    pq: &PreparedQuery,
    p: usize,
    gstats: &GraphStats,
    merged: &[LabelStats],
    const_map: &HashMap<usize, NodeId>,
) -> AtomPlan {
    let n = (gstats.nodes as f64).max(1.0);
    let (fwd_frontier, rev_frontier, mut est_pairs) = match &pq.unary[p] {
        None => (n, n, (gstats.reach_fraction * n * n + n).max(1.0)),
        Some(u) => match language_shape(&u.nfa) {
            None => (n, n, (gstats.reach_fraction * n * n).max(1.0)),
            Some(shape) => {
                let f = frontier(&shape.first, merged, true).min(n);
                let r = frontier(&shape.last, merged, false).min(n);
                let diagonal = if shape.accepts_empty { n } else { 0.0 };
                let pairs = (gstats.reach_fraction * f * r + diagonal).max(1.0);
                (f, r, pairs)
            }
        },
    };
    // Pushdown eligibility: the single (from, to) probe pair must be the
    // only one — a path variable shared by repeated atoms is probed with
    // other endpoint pairs, for which a pinned relation would be incomplete.
    let pinnable = !pq.extra_endpoints.iter().any(|&(ep, _, _)| ep == p);
    let from_const = const_map.get(&pq.path_from[p]).copied();
    let to_const = const_map.get(&pq.path_to[p]).copied();
    let (dir, pin) = if pinnable && from_const.is_some() {
        (Direction::Forward, from_const)
    } else if pinnable && to_const.is_some() {
        (Direction::Reverse, to_const)
    } else if rev_frontier < fwd_frontier {
        (Direction::Reverse, None)
    } else {
        (Direction::Forward, None)
    };
    if pin.is_some() {
        // A single source materializes one row of the relation.
        est_pairs = (est_pairs / n).max(1.0);
    }
    AtomPlan { dir, pin, est_pairs, est_fwd_frontier: fwd_frontier, est_rev_frontier: rev_frontier }
}

/// Symbols a constraint language can read first and last, plus whether it
/// accepts the empty word. `None` when the automaton is too large to scan.
struct LangShape {
    first: Vec<Symbol>,
    last: Vec<Symbol>,
    accepts_empty: bool,
}

/// Automata larger than this are treated as opaque by the cost model (the
/// scan is linear, but the non-dense constraint intersections can reach tens
/// of thousands of states — not worth analyzing per plan).
const SHAPE_MAX_STATES: usize = 4096;

fn language_shape(nfa: &Nfa<Symbol>) -> Option<LangShape> {
    let s = nfa.num_states();
    if s > SHAPE_MAX_STATES {
        return None;
    }
    if s == 0 {
        return Some(LangShape { first: Vec::new(), last: Vec::new(), accepts_empty: false });
    }
    let init = nfa.epsilon_closure(nfa.initial());
    let accepts_empty = init.iter().any(|&q| nfa.is_accepting(q));
    let mut first: Vec<Symbol> = Vec::new();
    for &q in &init {
        for (sym, _) in nfa.transitions_from(q) {
            first.push(*sym);
        }
    }
    first.sort_unstable();
    first.dedup();
    // States that reach an accepting state by ε-transitions alone: a symbol
    // entering one of them can be the last of an accepted word.
    let mut eps_rev: Vec<Vec<u32>> = vec![Vec::new(); s];
    for q in 0..s as u32 {
        for &r in nfa.epsilon_from(q) {
            eps_rev[r as usize].push(q);
        }
    }
    let mut acc_eps = vec![false; s];
    let mut stack: Vec<u32> = (0..s as u32).filter(|&q| nfa.is_accepting(q)).collect();
    for &q in &stack {
        acc_eps[q as usize] = true;
    }
    while let Some(q) = stack.pop() {
        for &p in &eps_rev[q as usize] {
            if !acc_eps[p as usize] {
                acc_eps[p as usize] = true;
                stack.push(p);
            }
        }
    }
    let mut last: Vec<Symbol> = Vec::new();
    for (_, sym, to) in nfa.all_transitions() {
        if acc_eps[to as usize] {
            last.push(*sym);
        }
    }
    last.sort_unstable();
    last.dedup();
    Some(LangShape { first, last, accepts_empty })
}

/// Sums the per-label distinct-endpoint counts of `syms` (source side for
/// the forward frontier, target side for the reverse frontier).
fn frontier(syms: &[Symbol], merged: &[LabelStats], source_side: bool) -> f64 {
    syms.iter()
        .map(|s| {
            let ls = merged.get(s.index()).copied().unwrap_or_default();
            if source_side {
                ls.sources as f64
            } else {
                ls.targets as f64
            }
        })
        .sum()
}

/// Per-label statistics re-indexed by the bound plan's merged alphabet
/// (query symbols the graph never uses read as zeros).
fn merged_label_stats(bound: &BoundPlan<'_>, gstats: &GraphStats) -> Vec<LabelStats> {
    let mut out = vec![LabelStats::default(); bound.merged_len()];
    for (g, ls) in gstats.labels.iter().enumerate() {
        out[bound.translate(Symbol(g as u32)).index()] = *ls;
    }
    out
}

// ---------------------------------------------------------------------------
// EXPLAIN
// ---------------------------------------------------------------------------

/// One atom of an [`ExplainReport`]: the chosen strategy next to its
/// estimated and actual cardinalities.
#[derive(Clone, Debug)]
pub struct ExplainAtom {
    /// Path variable name.
    pub path_var: String,
    /// Endpoint variable names.
    pub from_var: String,
    /// Endpoint variable names.
    pub to_var: String,
    /// Chosen BFS direction.
    pub direction: Direction,
    /// Display name of the pinned single source, if the planner pushed a
    /// bound constant into the product.
    pub pinned: Option<String>,
    /// States of the unary constraint automaton (0 = unconstrained).
    pub automaton_states: usize,
    /// Estimated result pairs (the planner's cost model).
    pub est_pairs: f64,
    /// Estimated source-side frontier (drives the direction choice).
    pub est_fwd_frontier: f64,
    /// Estimated target-side frontier (drives the direction choice).
    pub est_rev_frontier: f64,
    /// Pairs actually materialized by the reachability pass.
    pub actual_pairs: u64,
}

/// A structured plan dump: what the planner chose and how its estimates
/// compare to the actual run. Produced by
/// [`BoundPlan::explain`](crate::eval::BoundPlan::explain); the server's
/// `explain` op serializes it, and its [`fmt::Display`] rendering is pinned
/// by goldens in `tests/planner_differential.rs`.
#[derive(Clone, Debug)]
pub struct ExplainReport {
    /// Node-variable join order (names, constants first).
    pub join_order: Vec<String>,
    /// Per-atom strategies and cardinalities.
    pub atoms: Vec<ExplainAtom>,
    /// Statistics of the measured run (includes actual candidate and
    /// verification counts).
    pub stats: EvalStats,
    /// Number of answers of the measured run (node mode).
    pub answers: u64,
}

impl fmt::Display for ExplainReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "plan (cost-based)")?;
        writeln!(f, "  join order: {}", self.join_order.join(", "))?;
        for a in &self.atoms {
            writeln!(
                f,
                "  atom {}: ({}) -[{}]-> ({}) dir={} pin={} states={} est_pairs={:.1} actual_pairs={}",
                a.path_var,
                a.from_var,
                a.path_var,
                a.to_var,
                a.direction,
                a.pinned.as_deref().unwrap_or("-"),
                a.automaton_states,
                a.est_pairs,
                a.actual_pairs,
            )?;
        }
        writeln!(
            f,
            "  totals: candidates={} verified={} search_states={} answers={}",
            self.stats.candidates, self.stats.verified, self.stats.search_states, self.answers
        )
    }
}
