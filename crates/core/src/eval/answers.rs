//! Representing (possibly infinite) sets of output paths.
//!
//! Proposition 5.2 of the paper: for a fixed ECRPQ `Q` with head
//! `Ans(z̄, χ̄)`, a graph `G`, and a tuple of nodes `v̄`, one can construct in
//! polynomial time an automaton that accepts exactly the representations of
//! all tuples of paths `ρ̄` with `(v̄, ρ̄) ∈ Q(G)`. We build that automaton
//! over the encoding alphabet `V^k ∪ (Σ⊥)^k`: an accepted word alternates
//! node tuples and convolution letters,
//! `v̄0 ā1 v̄1 ā2 … āp v̄p`, and uniquely determines (and is determined by) the
//! tuple of paths.
//!
//! The automaton is the convolution search's product with its transitions
//! kept. Candidates come from the evaluator's own plan, reachability and
//! join, with the head values forced like a membership check forces them;
//! each candidate's product is explored with the search's own state
//! encoding, expander, initial state and acceptance test, so the
//! construction visits exactly the states the search would. It stays
//! polynomial in the size of the graph for a fixed query (Theorem 6.1), and
//! exponential only in the query.

use crate::error::QueryError;
use crate::eval::dense::{Arena, Layout};
use crate::eval::plan::{self, EvalStats};
use crate::eval::prepared::{BoundPlan, PreparedQuery, RelSim};
use crate::eval::search::{self, Expander, SearchProblem};
use crate::eval::EvalConfig;
use crate::query::Ecrpq;
use ecrpq_automata::alphabet::{Symbol, TupleSym};
use ecrpq_automata::nfa::{Nfa, StateId};
use ecrpq_automata::sim::SetTable;
use ecrpq_graph::{GraphDb, NodeId, Path};

/// A letter of the path-tuple encoding alphabet `V^k ∪ (Σ⊥)^k`.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EncLetter {
    /// A tuple of current nodes, one per output path variable.
    Nodes(Vec<NodeId>),
    /// A convolution letter over the output path variables.
    Letter(TupleSym),
}

/// The answer automaton of Proposition 5.2 for a query, a graph, and a tuple
/// of head-node values.
#[derive(Clone, Debug)]
pub struct AnswerAutomaton {
    /// The automaton over the encoding alphabet.
    pub nfa: Nfa<EncLetter>,
    /// Number of output path variables `k`.
    pub arity: usize,
}

impl AnswerAutomaton {
    /// Tests whether a tuple of paths is represented by the automaton (i.e.
    /// whether `(v̄, ρ̄) ∈ Q(G)` for the `v̄` the automaton was built for).
    pub fn contains(&self, paths: &[Path]) -> bool {
        assert_eq!(paths.len(), self.arity);
        self.nfa.accepts(&encode_paths(paths))
    }

    /// True if the query has no path answers for the given nodes.
    pub fn is_empty(&self) -> bool {
        self.nfa.is_empty()
    }

    /// Number of automaton states (reported by the benchmark harness).
    pub fn num_states(&self) -> usize {
        self.nfa.num_states()
    }
}

/// Encodes a tuple of paths as a word over the encoding alphabet:
/// `v̄0 ā1 v̄1 … āp v̄p`, where finished paths repeat their final node and
/// contribute `⊥` letters.
pub fn encode_paths(paths: &[Path]) -> Vec<EncLetter> {
    let max_len = paths.iter().map(|p| p.len()).max().unwrap_or(0);
    let node_at = |p: &Path, i: usize| -> NodeId {
        if i >= p.nodes().len() {
            p.end()
        } else {
            p.nodes()[i]
        }
    };
    let mut word = Vec::with_capacity(2 * max_len + 1);
    word.push(EncLetter::Nodes(paths.iter().map(|p| node_at(p, 0)).collect()));
    for i in 0..max_len {
        let letter: Vec<Option<Symbol>> = paths.iter().map(|p| p.label().get(i).copied()).collect();
        word.push(EncLetter::Letter(TupleSym::new(letter)));
        word.push(EncLetter::Nodes(paths.iter().map(|p| node_at(p, i + 1)).collect()));
    }
    word
}

/// Builds the answer automaton `A^{(G,v̄)}_Q` for the head path variables of
/// `query`, with the head node variables bound to `nodes`.
///
/// The automaton accepts exactly the encodings of tuples `ρ̄` such that
/// `(nodes, ρ̄) ∈ Q(G)`.
pub fn answer_automaton(
    query: &Ecrpq,
    graph: &GraphDb,
    nodes: &[NodeId],
    config: &EvalConfig,
) -> Result<AnswerAutomaton, QueryError> {
    let prepared = PreparedQuery::prepare(query)?;
    prepared.bind(graph)?.answer_automaton(nodes, config)
}

impl BoundPlan<'_> {
    /// Builds the answer automaton of Proposition 5.2 for this plan's head
    /// path variables with the head node variables bound to `nodes`
    /// (prepared-pipeline counterpart of [`answer_automaton`]). A head value
    /// that conflicts with a node constant of the query leaves the automaton
    /// empty, as it leaves [`check`](Self::check) false.
    pub fn answer_automaton(
        &self,
        nodes: &[NodeId],
        config: &EvalConfig,
    ) -> Result<AnswerAutomaton, QueryError> {
        let pq = self.pq;
        if nodes.len() != pq.head_node_idx.len() {
            return Err(QueryError::Unsupported(format!(
                "expected {} head node values, got {}",
                pq.head_node_idx.len(),
                nodes.len()
            )));
        }
        if !self.counters().is_empty() {
            return Err(QueryError::Unsupported(
                "answer automata are not defined for queries with linear constraints".to_string(),
            ));
        }

        // The union of one product automaton per candidate assignment σ
        // that extends the head values.
        let mut nfa: Nfa<EncLetter> = Nfa::new();
        if let Some(forced) = self.forced(nodes, &[]) {
            let mut stats = EvalStats::default();
            let (qplan, reach) = self.plan_reach(&forced, false, &mut stats, &mut None);
            let mut err: Option<QueryError> = None;
            let mut tables = vec![SetTable::default(); pq.relations.len()];
            let order = &qplan.order;
            plan::enumerate_candidates(
                pq,
                &forced,
                &reach,
                order,
                false,
                config,
                &mut stats,
                |s| {
                    err = add_candidate_automaton(&mut nfa, self, s, config, &mut tables).err();
                    err.is_none()
                },
            )?;
            if let Some(e) = err {
                return Err(e);
            }
        }
        Ok(AnswerAutomaton { nfa: nfa.trim(), arity: pq.head_path_idx.len() })
    }
}

/// Adds the product automaton of candidate `sigma` to `nfa`. Its states are
/// the search states of `sigma`'s convolution search, each split into a
/// "before nodes" / "after nodes" pair linked by the head paths' `Nodes`
/// letter; a search step becomes a `Letter` transition from the after-state
/// of its source to the before-state of its target. States are interned
/// into the search's arena, whose ids are handed out in discovery order, so
/// expanding ids `0, 1, 2, …` in turn is the breadth-first traversal.
/// `tables` are the relation set tables of the whole construction, as the
/// search keeps them for a run.
fn add_candidate_automaton(
    nfa: &mut Nfa<EncLetter>,
    plan: &BoundPlan<'_>,
    sigma: &[NodeId],
    config: &EvalConfig,
    tables: &mut [SetTable],
) -> Result<(), QueryError> {
    let pq = plan.pq;
    let unpinned = vec![None; pq.path_vars.len()];
    let problem = SearchProblem {
        plan,
        sigma,
        pinned: &unpinned,
        want_witness: true,
        step_bound: None,
        max_states: config.max_search_states,
    };
    if search::precheck(&problem).is_some() {
        return Ok(()); // repeated atoms disagree on an endpoint
    }
    let sims: Vec<&RelSim> = pq.relations.iter().map(|r| r.sim(pq.code_base)).collect();
    let layout = Layout::new(pq.path_vars.len(), sims.len(), 0);
    let head = &pq.head_path_idx;
    let mut arena = Arena::new(layout.words);
    // Arena id `i` owns the automaton states `base + 2i` (before nodes) and
    // `base + 2i + 1` (after nodes), both added when `i` is first interned.
    let base = nfa.num_states() as StateId;
    let intern = |key: &[u64], nfa: &mut Nfa<EncLetter>, arena: &mut Arena| -> StateId {
        let (id, fresh) = arena.intern(key);
        if fresh {
            let (b, a) = (nfa.add_state(), nfa.add_state());
            debug_assert_eq!(b, base + 2 * id);
            // An unpinned path can only have finished at `σ(path_to[p])`.
            let at = |p: usize| search::word_node(key[p]).unwrap_or(sigma[pq.path_to[p]]);
            nfa.add_transition(b, EncLetter::Nodes(head.iter().map(|&p| at(p)).collect()), a);
            nfa.set_accepting(a, search::accepts_key(&problem, &layout, key));
        }
        base + 2 * id
    };

    let b0 = intern(&search::initial_key(&problem, &layout, &sims, tables), nfa, &mut arena);
    nfa.add_initial(b0);
    let mut expander = Expander::new(&problem, &layout, &sims, tables);
    let mut cur = vec![0u64; layout.words];
    let mut id = 0u32;
    while (id as usize) < arena.len() {
        if id as usize >= config.max_search_states {
            return Err(QueryError::BudgetExceeded {
                what: "answer-automaton construction exceeded the state budget".to_string(),
            });
        }
        cur.copy_from_slice(arena.get(id));
        expander.expand(&cur, |next, mv| {
            let mv = mv.expect("witness mode emits moves");
            let letter = head.iter().map(|&p| mv[p].map(|(l, _)| plan.translate(l))).collect();
            let to = intern(next, nfa, &mut arena);
            nfa.add_transition(base + 2 * id + 1, EncLetter::Letter(TupleSym::new(letter)), to);
            true
        });
        id += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval;
    use ecrpq_automata::builtin;
    use ecrpq_graph::generators;

    #[test]
    fn answer_automaton_represents_exactly_the_answer_paths() {
        // Graph: a cycle of length 3 labeled a; query: Ans(x, π) ← (x, π, y), a+(π)
        // with x bound to node 0 — answers are all paths of positive length from 0.
        let g = generators::cycle_graph(3, "a");
        let al = g.alphabet().clone();
        let q = crate::query::Ecrpq::builder(&al)
            .head_nodes(&["x"])
            .head_paths(&["p"])
            .atom("x", "p", "y")
            .language("p", "a+")
            .build()
            .unwrap();
        let n0 = ecrpq_graph::NodeId(0);
        let aut = answer_automaton(&q, &g, &[n0], &EvalConfig::default()).unwrap();
        assert!(!aut.is_empty());
        // Path of length 3 (full cycle) is an answer; the empty path is not (a+).
        let a = g.alphabet().sym("a");
        let full_cycle = Path::new(
            vec![
                ecrpq_graph::NodeId(0),
                ecrpq_graph::NodeId(1),
                ecrpq_graph::NodeId(2),
                ecrpq_graph::NodeId(0),
            ],
            vec![a, a, a],
        );
        assert!(aut.contains(&[full_cycle]));
        let empty = Path::empty(n0);
        assert!(!aut.contains(&[empty]));
        // A path that does not start at the bound node is rejected.
        let wrong_start = Path::new(vec![ecrpq_graph::NodeId(1), ecrpq_graph::NodeId(2)], vec![a]);
        assert!(!aut.contains(&[wrong_start]));
    }

    #[test]
    fn answer_automaton_agrees_with_eval_with_paths() {
        let g = generators::cycle_graph(4, "a");
        let al = g.alphabet().clone();
        let q = crate::query::Ecrpq::builder(&al)
            .head_nodes(&["x", "y"])
            .head_paths(&["p1", "p2"])
            .atom("x", "p1", "z")
            .atom("z", "p2", "y")
            .relation(builtin::equal_length(&al), &["p1", "p2"])
            .build()
            .unwrap();
        let cfg = EvalConfig { answer_limit: 20, ..EvalConfig::default() };
        let answers = eval::eval_with_paths(&q, &g, &cfg).unwrap();
        assert!(!answers.is_empty());
        for ans in answers.iter().take(5) {
            let aut = answer_automaton(&q, &g, &ans.nodes, &cfg).unwrap();
            assert!(
                aut.contains(&ans.paths),
                "witness paths must be accepted by the answer automaton"
            );
        }
    }

    #[test]
    fn encoding_round_trip_shape() {
        let g = generators::cycle_graph(3, "a");
        let a = g.alphabet().sym("a");
        let p1 = Path::new(vec![ecrpq_graph::NodeId(0), ecrpq_graph::NodeId(1)], vec![a]);
        let p2 = Path::new(
            vec![ecrpq_graph::NodeId(1), ecrpq_graph::NodeId(2), ecrpq_graph::NodeId(0)],
            vec![a, a],
        );
        let enc = encode_paths(&[p1, p2]);
        // v̄0 ā1 v̄1 ā2 v̄2 — five letters for max length 2
        assert_eq!(enc.len(), 5);
        assert!(matches!(enc[0], EncLetter::Nodes(_)));
        assert!(matches!(enc[1], EncLetter::Letter(_)));
        if let EncLetter::Letter(t) = &enc[3] {
            // first path finished: ⊥ on tape 0
            assert_eq!(t.get(0), None);
            assert_eq!(t.get(1), Some(a));
        } else {
            panic!("expected a convolution letter");
        }
    }

    /// A head value that conflicts with a node constant on the same
    /// variable leaves no candidate: the automaton is empty, as the
    /// membership check is false; the agreeing value keeps its answers.
    #[test]
    fn head_value_conflicting_with_a_constant_yields_an_empty_automaton() {
        let g = generators::rei_gadget_graph(&["a"]);
        let q =
            crate::parse_query("Ans(x, p) <- (x, p, y), L(p) = a+, x = :v0", g.alphabet()).unwrap();
        let (v0, v1) = (g.node_by_name("v0").unwrap(), g.node_by_name("v1").unwrap());
        let a = g.alphabet().sym("a");
        let cfg = EvalConfig::default();
        let paths = [Path::new(vec![v1, v0], vec![a])];
        let aut = answer_automaton(&q, &g, &[v1], &cfg).unwrap();
        assert!(aut.is_empty());
        assert!(!aut.contains(&paths));
        assert!(!eval::check(&q, &g, &[v1], &paths, &cfg).unwrap());
        assert!(!eval::reference::check(&q, &g, &[v1], &paths, &cfg).unwrap());
        let paths = [Path::new(vec![v0, v1], vec![a])];
        let aut = answer_automaton(&q, &g, &[v0], &cfg).unwrap();
        assert!(aut.contains(&paths));
        assert!(eval::check(&q, &g, &[v0], &paths, &cfg).unwrap());
    }

    /// Pins the shape of the constructed automata (state and transition
    /// counts summed over every node pair of a fixed graph) and the smallest
    /// state budget the construction completes in, so a change to the
    /// construction loop that adds, drops or reorders product states shows
    /// up here.
    #[test]
    fn answer_automaton_shape_and_budget_are_pinned() {
        let g = generators::random_graph(8, 2.0, &["a", "b"], 23);
        let text = "Ans(x, y, p1, p2) <- (x, p1, z), (z, p2, y), L(p1) = a (a|b)*, R(p1, p2) = el";
        let q = crate::parse_query(text, g.alphabet()).unwrap();
        let pq = PreparedQuery::prepare(&q).unwrap();
        let plan = pq.bind(&g).unwrap();
        let cfg = EvalConfig::default();
        let (mut states, mut transitions, mut largest) = (0, 0, (0, [NodeId(0); 2]));
        for x in g.nodes() {
            for y in g.nodes() {
                let aut = plan.answer_automaton(&[x, y], &cfg).unwrap();
                states += aut.num_states();
                transitions += aut.nfa.num_transitions();
                largest = largest.max((aut.num_states(), [x, y]));
            }
        }
        let nodes = largest.1;
        let fits = |budget| {
            let cfg = EvalConfig { max_search_states: budget, ..EvalConfig::default() };
            plan.answer_automaton(&nodes, &cfg).is_ok()
        };
        let min_budget = (1..10_000).find(|&b| fits(b)).unwrap();
        assert_eq!((states, transitions), (228, 447), "automaton shape changed");
        assert_eq!(min_budget, 17, "the construction explores a different state count");
    }
}
