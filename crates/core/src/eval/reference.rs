//! The retained reference implementation of the convolution search.
//!
//! This is the classical formulation the dense product engine of
//! `eval::search` replaced: search states are plain structs holding
//! cloned `Vec`s (positions, relation state-sets, counters), deduplicated
//! through a `HashSet<State>`, with parent pointers in a
//! `HashMap<State, (State, MoveVec)>`, and relation automata stepped by
//! [`Nfa::step`](ecrpq_automata::nfa::Nfa::step) on their uncompiled form.
//! It is the differential oracle only: no production run reaches it, only
//! `Engine::Reference`, which the entry points below select. It is kept
//! unoptimized on purpose as the ground truth for the differential suites
//! (`tests/differential.rs`, `tests/planner_differential.rs`): both engines
//! must agree on acceptance, answer sets, and verified counts on every
//! input.

use crate::error::QueryError;
use crate::eval::plan::{Engine, Mode};
use crate::eval::prepared::PreparedQuery;
use crate::eval::search::{finishable, MoveVec, SearchOutcome, SearchProblem};
use crate::eval::{Answer, EvalConfig, EvalStats};
use crate::query::Ecrpq;
use ecrpq_automata::alphabet::{Symbol, TupleSym};
use ecrpq_automata::nfa::StateId;
use ecrpq_graph::{GraphDb, NodeId, Path};
use std::collections::{HashMap, HashSet, VecDeque};

/// Evaluates a query with the reference verification engine, returning
/// head-node tuples and statistics. Semantically identical to
/// [`crate::eval::eval_nodes_with_stats`], only slower; exists so the
/// differential property suite can compare the two engines.
pub fn eval_nodes_with_stats(
    query: &Ecrpq,
    graph: &GraphDb,
    config: &EvalConfig,
) -> Result<(Vec<Vec<NodeId>>, EvalStats), QueryError> {
    let bound = PreparedQuery::prepare(query)?;
    let (answers, stats) =
        bound.bind(graph)?.collect_engine(Mode::Nodes, config, Engine::Reference, None)?;
    Ok((answers.into_iter().map(|a| a.nodes).collect(), stats))
}

/// Evaluates a query with witness paths using the reference engine
/// (differential-testing counterpart of [`crate::eval::eval_with_paths`]).
pub fn eval_with_paths(
    query: &Ecrpq,
    graph: &GraphDb,
    config: &EvalConfig,
) -> Result<Vec<Answer>, QueryError> {
    let bound = PreparedQuery::prepare(query)?;
    let (answers, _) =
        bound.bind(graph)?.collect_engine(Mode::Paths, config, Engine::Reference, None)?;
    Ok(answers)
}

/// The ECRPQ-EVAL membership check with the reference engine
/// (differential-testing counterpart of [`crate::eval::check`]).
pub fn check(
    query: &Ecrpq,
    graph: &GraphDb,
    nodes: &[NodeId],
    paths: &[Path],
    config: &EvalConfig,
) -> Result<bool, QueryError> {
    PreparedQuery::prepare(query)?.bind(graph)?.check_engine(
        nodes,
        paths,
        config,
        Engine::Reference,
    )
}

/// Position of one path variable within a reference search state.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Pos {
    /// Still tracing its path: current node and (for pinned paths) the number
    /// of pinned steps already taken.
    Active { node: NodeId, step: u32 },
    /// The path has ended (the variable now reads `⊥`).
    Done,
}

/// A reference search state (fully materialized, cloned on every insert).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct State {
    pos: Vec<Pos>,
    rel: Vec<Vec<StateId>>,
    counters: Vec<i64>,
}

/// Runs the reference search.
pub(crate) fn run(problem: &SearchProblem<'_>) -> Result<SearchOutcome, QueryError> {
    let pq = problem.plan.pq;
    let num_paths = pq.path_vars.len();

    // Consistency prechecks for pinned paths and repeated relational atoms.
    for p in 0..num_paths {
        if let Some(path) = problem.pinned[p] {
            if path.start() != problem.sigma[pq.path_from[p]]
                || path.end() != problem.sigma[pq.path_to[p]]
            {
                return Ok(SearchOutcome { accepted: false, states_visited: 0, witness: None });
            }
        }
    }
    for &(p, f, t) in &pq.extra_endpoints {
        if problem.sigma[f] != problem.sigma[pq.path_from[p]]
            || problem.sigma[t] != problem.sigma[pq.path_to[p]]
        {
            return Ok(SearchOutcome { accepted: false, states_visited: 0, witness: None });
        }
    }

    let initial = State {
        pos: (0..num_paths)
            .map(|p| Pos::Active { node: problem.sigma[pq.path_from[p]], step: 0 })
            .collect(),
        rel: pq.relations.iter().map(|r| r.nfa.epsilon_closure(r.nfa.initial())).collect(),
        counters: vec![0i64; problem.plan.counters().len()],
    };

    let mut visited: HashSet<State> = HashSet::new();
    let mut parents: HashMap<State, (State, MoveVec)> = HashMap::new();
    let mut queue: VecDeque<(State, usize)> = VecDeque::new();

    if accepts(problem, &initial) {
        let witness = if problem.want_witness {
            Some(reconstruct(problem, &parents, &initial))
        } else {
            None
        };
        return Ok(SearchOutcome { accepted: true, states_visited: 1, witness });
    }
    visited.insert(initial.clone());
    queue.push_back((initial, 0));

    while let Some((state, depth)) = queue.pop_front() {
        if let Some(bound) = problem.step_bound {
            if depth >= bound {
                continue;
            }
        }
        // Generate all global moves from this state.
        let mut found: Option<State> = None;
        expand(problem, &state, &mut |next: State, mv: MoveVec| {
            if visited.contains(&next) {
                return true;
            }
            visited.insert(next.clone());
            if problem.want_witness {
                parents.insert(next.clone(), (state.clone(), mv));
            }
            if accepts(problem, &next) {
                found = Some(next);
                return false;
            }
            queue.push_back((next, depth + 1));
            true
        });
        if let Some(accepting) = found {
            let witness = if problem.want_witness {
                Some(reconstruct(problem, &parents, &accepting))
            } else {
                None
            };
            return Ok(SearchOutcome {
                accepted: true,
                states_visited: visited.len() as u64,
                witness,
            });
        }
        if visited.len() > problem.max_states {
            return Err(QueryError::BudgetExceeded {
                what: format!("convolution search visited more than {} states", problem.max_states),
            });
        }
    }
    Ok(SearchOutcome { accepted: false, states_visited: visited.len() as u64, witness: None })
}

/// True if the state is accepting: every path variable is finished or can
/// finish at its current node, every relation automaton is in an accepting
/// state, and every counter row is satisfied.
fn accepts(problem: &SearchProblem<'_>, state: &State) -> bool {
    let pq = problem.plan.pq;
    for (p, pos) in state.pos.iter().enumerate() {
        match pos {
            Pos::Done => {}
            Pos::Active { node, step } => {
                if !finishable(problem, p, *node, *step) {
                    return false;
                }
            }
        }
    }
    for (j, rel) in pq.relations.iter().enumerate() {
        if !state.rel[j].iter().any(|&q| rel.nfa.is_accepting(q)) {
            return false;
        }
    }
    for (i, row) in problem.plan.counters().iter().enumerate() {
        if !row.satisfied(state.counters[i]) {
            return false;
        }
    }
    true
}

/// One option for one path variable within a global step.
#[derive(Clone, Copy)]
enum Option1 {
    Real { label: Symbol, to: NodeId, step: u32 },
    Finish,
    Pad,
}

/// Expands all global successors of `state`, calling `visit(next, move)`;
/// `visit` returns `false` to stop the expansion early.
fn expand<F: FnMut(State, MoveVec) -> bool>(
    problem: &SearchProblem<'_>,
    state: &State,
    visit: &mut F,
) {
    let num_paths = problem.plan.pq.path_vars.len();

    // Per-variable options.
    let mut options: Vec<Vec<Option1>> = Vec::with_capacity(num_paths);
    for p in 0..num_paths {
        let mut opts = Vec::new();
        match state.pos[p] {
            Pos::Done => opts.push(Option1::Pad),
            Pos::Active { node, step } => {
                match problem.pinned[p] {
                    Some(path) => {
                        if (step as usize) < path.len() {
                            opts.push(Option1::Real {
                                label: path.label()[step as usize],
                                to: path.nodes()[step as usize + 1],
                                step: step + 1,
                            });
                        }
                    }
                    None => {
                        for &(label, to) in problem.plan.graph.out_edges(node) {
                            opts.push(Option1::Real { label, to, step: 0 });
                        }
                    }
                }
                if finishable(problem, p, node, step) {
                    opts.push(Option1::Finish);
                }
            }
        }
        if opts.is_empty() {
            return; // dead end: this variable can neither move nor finish
        }
        options.push(opts);
    }

    // Cartesian product of the options, requiring at least one real move.
    let mut choice = vec![0usize; num_paths];
    'outer: loop {
        let picks: Vec<Option1> = (0..num_paths).map(|p| options[p][choice[p]]).collect();
        let any_real = picks.iter().any(|o| matches!(o, Option1::Real { .. }));
        if any_real {
            if let Some((next, mv)) = apply(problem, state, &picks) {
                if !visit(next, mv) {
                    return;
                }
            }
        }
        // odometer
        let mut i = 0;
        loop {
            if i == num_paths {
                break 'outer;
            }
            choice[i] += 1;
            if choice[i] < options[i].len() {
                break;
            }
            choice[i] = 0;
            i += 1;
        }
    }
}

/// Applies one global move, returning the successor state (or `None` if some
/// relation automaton has no matching transition).
fn apply(
    problem: &SearchProblem<'_>,
    state: &State,
    picks: &[Option1],
) -> Option<(State, MoveVec)> {
    let plan = problem.plan;
    let pq = plan.pq;
    let mut pos = Vec::with_capacity(picks.len());
    let mut mv: MoveVec = Vec::with_capacity(picks.len());
    // The letter each variable contributes, already translated into the
    // merged alphabet (None = ⊥).
    let mut letters: Vec<Option<Symbol>> = Vec::with_capacity(picks.len());
    for pick in picks.iter() {
        match pick {
            Option1::Real { label, to, step } => {
                pos.push(Pos::Active { node: *to, step: *step });
                mv.push(Some((*label, *to)));
                letters.push(Some(plan.translate(*label)));
            }
            Option1::Finish | Option1::Pad => {
                pos.push(Pos::Done);
                mv.push(None);
                letters.push(None);
            }
        }
    }

    // Advance every relation automaton on the projection of the step.
    let mut rel = Vec::with_capacity(pq.relations.len());
    for (j, r) in pq.relations.iter().enumerate() {
        let tuple: Vec<Option<Symbol>> = r.tapes.iter().map(|&t| letters[t]).collect();
        if tuple.iter().all(|c| c.is_none()) {
            // This relation's convolution has already ended; it does not read ⊥-only letters.
            rel.push(state.rel[j].clone());
            continue;
        }
        let next = r.nfa.step(&state.rel[j], &TupleSym::new(tuple));
        if next.is_empty() {
            return None;
        }
        rel.push(next);
    }

    // Update counters.
    let mut counters = state.counters.clone();
    for (i, row) in plan.counters().iter().enumerate() {
        for (p, pick) in picks.iter().enumerate() {
            if let Option1::Real { label, .. } = pick {
                counters[i] += row.step_delta(p, plan.translate(*label));
            }
        }
    }

    Some((State { pos, rel, counters }, mv))
}

/// Reconstructs one witness path per path variable from the parent pointers.
fn reconstruct(
    problem: &SearchProblem<'_>,
    parents: &HashMap<State, (State, MoveVec)>,
    accepting: &State,
) -> Vec<Path> {
    let pq = problem.plan.pq;
    // Collect the sequence of moves from the initial state to `accepting`.
    let mut moves: Vec<MoveVec> = Vec::new();
    let mut current = accepting.clone();
    while let Some((prev, mv)) = parents.get(&current) {
        moves.push(mv.clone());
        current = prev.clone();
    }
    moves.reverse();
    (0..pq.path_vars.len())
        .map(|p| {
            let mut path = Path::empty(problem.sigma[pq.path_from[p]]);
            for step in &moves {
                if let Some((label, to)) = step[p] {
                    path.push(label, to);
                }
            }
            path
        })
        .collect()
}
