//! Query evaluation.
//!
//! The evaluator follows the algorithmic blueprint of Sections 5 and 6 of the
//! paper:
//!
//! 1. **Per-atom product automata.** For every path variable, the regular
//!    constraints that mention it (arity-1 language atoms and the per-tape
//!    projections of wider relation atoms) are intersected into one NFA; the
//!    product of that NFA with the graph gives, for every relational atom, the
//!    binary reachability relation over nodes. This is exactly the classical
//!    CRPQ evaluation step (and a sound relaxation of the ECRPQ). The one
//!    cost-based planner (`plan::cost::plan_query`) first picks each atom's
//!    BFS direction, pins a BFS to a forced value where it can, and orders
//!    the join; `BoundPlan::plan_reach` is this plan → reachability stage
//!    for runs, membership checks, answer automata and `Q_len` alike.
//! 2. **Candidate assignments.** The relational part is evaluated as a
//!    conjunctive query over those binary relations by a backtracking join
//!    (`plan::enumerate_candidates`), yielding candidate assignments of the
//!    node variables. It is the one candidate join. A run that searches no
//!    candidate projects it onto the *needed* variables (head variables and
//!    constants): past the last of them in the join order it only decides
//!    whether the existential rest has some completion, part by connected
//!    part, memoised by the values of the assigned variables each part
//!    touches. On an acyclic CRPQ that is Yannakakis' semi-join, so
//!    Theorem 6.5's polynomial combined complexity holds in the one join.
//! 3. **Convolution search.** For each candidate, the on-the-fly product of
//!    the padded graph power `G^m` with the relation automata is searched for
//!    an accepting run (Theorem 6.3's PSPACE procedure, Theorem 6.1's
//!    NLOGSPACE data-complexity procedure), by one candidate driver
//!    (`BoundPlan::drive`) for runs, checks and maintained statements. A
//!    run of a plain CRPQ (no repetition) skips it; a check never does.
//!
//! Path outputs are produced either as explicit witness paths
//! ([`eval_with_paths`]) or as an automaton representing the full (possibly
//! infinite) answer set ([`crate::eval::answers`], Proposition 5.2): the
//! same product, explored with the search's own expander, with its
//! transitions kept.

#[cfg(test)]
mod acyclic;
pub mod answers;
pub mod counts;
pub mod delta;
pub(crate) mod dense;
pub mod length;
pub mod negation;
pub(crate) mod plan;
pub mod prepared;
pub mod reference;
pub(crate) mod search;

use crate::error::QueryError;
use crate::query::Ecrpq;
use ecrpq_automata::semilinear::SolverConfig;
use ecrpq_graph::{GraphDb, NodeId, Path};

pub use delta::MaintainedStatement;
pub use plan::cost::{Direction, ExplainAtom, ExplainReport};
pub use plan::{EvalStats, Mode};
pub use prepared::{BoundPlan, BoundStatement, PreparedQuery};

/// Compiles a query into its graph-independent prepared form (the
/// compile phase of the parse → compile → bind/execute pipeline). Alias for
/// [`PreparedQuery::prepare`].
pub fn prepare(query: &Ecrpq) -> Result<PreparedQuery, QueryError> {
    PreparedQuery::prepare(query)
}

/// Tunable budgets for query evaluation. The defaults are generous enough for
/// all the workloads in this repository; the limits exist because ECRPQ
/// evaluation is PSPACE-complete in the size of the query (Theorem 6.3) and
/// the engine prefers an explicit error over an unbounded search.
#[derive(Clone, Debug)]
pub struct EvalConfig {
    /// Maximum number of distinct states visited by one convolution search.
    pub max_search_states: usize,
    /// Maximum number of candidate node assignments examined. In a
    /// projected join it also bounds the existence check: every assignment
    /// the check tries and every verdict it memoises counts against it.
    pub max_candidates: usize,
    /// Maximum number of answers materialized by [`eval_with_paths`]: the
    /// row cap of a paths-mode run (0 means no rows). Node and Boolean runs
    /// ignore it.
    pub answer_limit: usize,
    /// Maximum number of global convolution steps when counters (linear
    /// constraints) are present; `None` derives a bound from the graph and
    /// query sizes (the small-model bound of Lemma 8.6, clamped).
    pub max_convolution_steps: Option<usize>,
    /// Configuration of the linear-constraint solver used by the length
    /// abstraction (Theorem 6.7) and the Section 8.2 extensions.
    pub solver: SolverConfig,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            max_search_states: 4_000_000,
            max_candidates: 20_000_000,
            answer_limit: 1_000,
            max_convolution_steps: None,
            solver: SolverConfig::default(),
        }
    }
}

/// One answer to a query with paths in the head: values of the head node
/// variables and one witness path per head path variable. (When a query has
/// infinitely many path answers, [`eval_with_paths`] returns shortest
/// witnesses; use [`answers::answer_automaton`] for the full set.)
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Answer {
    /// Values of the head node variables, in head order.
    pub nodes: Vec<NodeId>,
    /// Witness paths for the head path variables, in head order.
    pub paths: Vec<Path>,
}

/// Evaluates a query, returning the set of head-node tuples (the projection
/// of `Q(G)` onto its node attributes). For Boolean queries the result is
/// either empty (false) or contains one empty tuple (true).
pub fn eval_nodes(
    query: &Ecrpq,
    graph: &GraphDb,
    config: &EvalConfig,
) -> Result<Vec<Vec<NodeId>>, QueryError> {
    let (answers, _) = PreparedQuery::prepare(query)?.bind(graph)?.run_nodes(config)?;
    Ok(answers)
}

/// Evaluates a query and also reports evaluation statistics (candidates
/// examined, search states visited). Used by the benchmark harness.
pub fn eval_nodes_with_stats(
    query: &Ecrpq,
    graph: &GraphDb,
    config: &EvalConfig,
) -> Result<(Vec<Vec<NodeId>>, EvalStats), QueryError> {
    PreparedQuery::prepare(query)?.bind(graph)?.run_nodes(config)
}

/// Evaluates a Boolean query.
pub fn eval_boolean(
    query: &Ecrpq,
    graph: &GraphDb,
    config: &EvalConfig,
) -> Result<bool, QueryError> {
    let (holds, _) = PreparedQuery::prepare(query)?.bind(graph)?.run_boolean(config)?;
    Ok(holds)
}

/// Evaluates a query and materializes up to `config.answer_limit` answers
/// with explicit witness paths for the head path variables.
pub fn eval_with_paths(
    query: &Ecrpq,
    graph: &GraphDb,
    config: &EvalConfig,
) -> Result<Vec<Answer>, QueryError> {
    let (answers, _) = PreparedQuery::prepare(query)?.bind(graph)?.run_with_paths(config)?;
    Ok(answers)
}

/// The `ECRPQ-EVAL` decision problem (Section 6): does the tuple
/// `(nodes, paths)` — values for the head node variables and head path
/// variables — belong to `Q(G)`?
pub fn check(
    query: &Ecrpq,
    graph: &GraphDb,
    nodes: &[NodeId],
    paths: &[Path],
    config: &EvalConfig,
) -> Result<bool, QueryError> {
    PreparedQuery::prepare(query)?.bind(graph)?.check(nodes, paths, config)
}
