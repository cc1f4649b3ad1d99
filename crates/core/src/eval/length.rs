//! The length abstraction `Q_len` and queries with linear constraints on
//! path lengths (Theorem 6.7 and the length-constraint part of Theorem 8.5).
//!
//! In this evaluation mode every relation atom `R(ω̄)` is replaced by its
//! length abstraction `R_len`: the relation that only constrains the lengths
//! of the paths on its tapes. The paper shows this drops combined complexity
//! from PSPACE to NP, matching relational conjunctive queries. The engine
//! implements the Claim 6.7.2 strategy:
//!
//! 1. candidates for the node variables come from the same reachability join
//!    as the full evaluator (the unary constraints are kept exactly);
//! 2. for each candidate, the set of admissible lengths of each path variable
//!    is computed as a semilinear set (a union of arithmetic progressions)
//!    from the product of the graph with the variable's unary constraints
//!    ([`ecrpq_automata::unary::length_set`]);
//! 3. the length abstractions of the relation atoms plus any explicit linear
//!    length constraints form an existential linear-arithmetic instance that
//!    is solved by [`ecrpq_automata::semilinear::solve`].
//!
//! Relations must declare a length abstraction (built-in relations such as
//! `eq`, `el`, `prefix`, `len_lt`, `len_le` do; see
//! [`crate::query::infer_length_abstraction`]); otherwise this mode reports
//! an [`QueryError::Unsupported`] error rather than silently approximating.

use crate::error::QueryError;
use crate::eval::plan;
use crate::eval::prepared::{BoundPlan, PreparedQuery};
use crate::eval::EvalConfig;
use crate::query::{CountTarget, Ecrpq};
use ecrpq_automata::semilinear::{self, Feasibility, LinearConstraint};
use ecrpq_automata::unary::{self, Progression};
use ecrpq_graph::{GraphDb, NodeId};
use std::collections::HashSet;

/// Evaluates `Q_len`: the query with every relation atom replaced by its
/// length abstraction. Returns the set of head-node tuples.
pub fn eval_qlen(
    query: &Ecrpq,
    graph: &GraphDb,
    config: &EvalConfig,
) -> Result<Vec<Vec<NodeId>>, QueryError> {
    let prepared = PreparedQuery::prepare(query)?;
    let bound = prepared.bind(graph)?;
    let pq = bound.prepared();

    // Gather the length constraints induced by the relation atoms.
    let num_paths = pq.path_vars.len();
    let mut constraints: Vec<LinearConstraint> = Vec::new();
    for (j, rel_atom) in query.relations.iter().enumerate() {
        if rel_atom.relation.arity() < 2 {
            continue; // unary languages are kept exactly via the reachability join
        }
        let abs = rel_atom.length_abstraction.as_ref().ok_or_else(|| {
            QueryError::Unsupported(format!(
                "relation `{}` has no length abstraction; attach one with \
                 `with_length_abstraction` to evaluate Q_len",
                rel_atom.relation.name().unwrap_or("<unnamed>")
            ))
        })?;
        let tapes = &pq.relations[j].tapes;
        for c in abs {
            // Re-index the per-tape coefficients over all path variables.
            let mut coeffs = vec![0i64; num_paths];
            for (tape, &coef) in c.coefficients.iter().enumerate() {
                coeffs[tapes[tape]] += coef;
            }
            constraints.push(LinearConstraint {
                coefficients: coeffs,
                op: c.op,
                constant: c.constant,
            });
        }
    }
    // Explicit linear constraints: only length targets are allowed here.
    for c in &query.linear_constraints {
        let mut coeffs = vec![0i64; num_paths];
        for (coef, target) in &c.terms {
            match target {
                CountTarget::Length(p) => {
                    let pi = pq
                        .path_vars
                        .iter()
                        .position(|v| v == p.name())
                        .expect("validated path variable");
                    coeffs[pi] += coef;
                }
                CountTarget::LabelCount(_, _) => {
                    return Err(QueryError::Unsupported(
                        "Q_len evaluation only supports length constraints; use the full \
                         evaluator for label-count constraints"
                            .to_string(),
                    ));
                }
            }
        }
        constraints.push(LinearConstraint { coefficients: coeffs, op: c.op, constant: c.constant });
    }

    // Reachability join for the node variables (unary constraints are exact).
    let mut stats = plan::EvalStats::default();
    let (order, reach) = bound.plan_reach(bound.constants(), &mut stats, &mut None);

    let mut answers: HashSet<Vec<NodeId>> = HashSet::new();
    let mut error: Option<QueryError> = None;

    plan::enumerate_candidates(
        pq,
        graph.num_nodes(),
        bound.constants(),
        &reach,
        &order,
        config,
        &mut stats,
        |sigma| {
            let head: Vec<NodeId> = pq.head_node_idx.iter().map(|&i| sigma[i]).collect();
            if answers.contains(&head) {
                return true;
            }
            // Repeated-atom endpoint consistency.
            for &(p, f, t) in &pq.extra_endpoints {
                if sigma[f] != sigma[pq.path_from[p]] || sigma[t] != sigma[pq.path_to[p]] {
                    return true;
                }
            }
            match candidate_feasible(&bound, sigma, &constraints, config) {
                Ok(true) => {
                    answers.insert(head);
                    true
                }
                Ok(false) => true,
                Err(e) => {
                    error = Some(e);
                    false
                }
            }
        },
    )?;
    if let Some(e) = error {
        return Err(e);
    }
    Ok(answers.into_iter().collect())
}

/// Computes the admissible length sets of all path variables for one
/// candidate assignment and solves the induced linear-arithmetic instance.
fn candidate_feasible(
    bound: &BoundPlan<'_>,
    sigma: &[NodeId],
    constraints: &[LinearConstraint],
    config: &EvalConfig,
) -> Result<bool, QueryError> {
    let pq = bound.prepared();
    let mut domains: Vec<Vec<Progression>> = Vec::with_capacity(pq.path_vars.len());
    for p in 0..pq.path_vars.len() {
        let from = sigma[pq.path_from[p]];
        let to = sigma[pq.path_to[p]];
        let lengths = path_length_set(bound, from, to, p)?;
        if lengths.is_empty() {
            return Ok(false);
        }
        domains.push(lengths.to_progressions());
    }
    if constraints.is_empty() {
        return Ok(true);
    }
    match semilinear::solve(&domains, constraints, &config.solver) {
        Feasibility::Satisfiable(_) => Ok(true),
        Feasibility::Unsatisfiable => Ok(false),
        Feasibility::Unknown => Err(QueryError::BudgetExceeded {
            what: "length-constraint solver exhausted its budget".to_string(),
        }),
    }
}

/// The semilinear set of lengths of paths from `from` to `to` whose label
/// satisfies the unary constraints of path variable `p`.
pub(crate) fn path_length_set(
    bound: &BoundPlan<'_>,
    from: NodeId,
    to: NodeId,
    p: usize,
) -> Result<unary::LengthSet, QueryError> {
    // Product of the graph (as an NFA from `from` to `to`) with the unary
    // constraint automaton, with graph labels translated into the merged
    // alphabet.
    let graph_nfa = bound.graph().as_nfa(&[from], &[to]).map_symbols(|&l| Some(bound.translate(l)));
    let product = match &bound.prepared().unary[p] {
        Some(u) => graph_nfa.intersect(&u.nfa),
        None => graph_nfa,
    };
    let cap = unary::length_set_default_cap(product.num_states());
    unary::length_set(&product, cap).map_err(|e| QueryError::BudgetExceeded { what: e.to_string() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval;
    use crate::query::Ecrpq;
    use ecrpq_automata::builtin;
    use ecrpq_automata::semilinear::CmpOp;
    use ecrpq_automata::Alphabet;
    use ecrpq_graph::generators;

    /// The a^n b^n query of Section 4 under the length abstraction behaves
    /// identically to the full query, because `el` is already a pure length
    /// relation.
    #[test]
    fn qlen_matches_full_eval_for_el() {
        let (g, first, last) = generators::string_graph(&["a", "a", "b", "b"]);
        let al = g.alphabet().clone();
        let q = Ecrpq::builder(&al)
            .head_nodes(&["x", "y"])
            .atom("x", "p1", "z")
            .atom("z", "p2", "y")
            .language("p1", "a+")
            .language("p2", "b+")
            .relation(builtin::equal_length(&al), &["p1", "p2"])
            .build()
            .unwrap();
        let cfg = EvalConfig::default();
        let mut full = eval::eval_nodes(&q, &g, &cfg).unwrap();
        let mut qlen = eval_qlen(&q, &g, &cfg).unwrap();
        full.sort();
        qlen.sort();
        assert_eq!(full, qlen);
        assert!(full.contains(&vec![first, last]));
    }

    /// Under the length abstraction, the equality relation degenerates to
    /// equal length: the abstraction accepts pairs the full query rejects.
    #[test]
    fn qlen_is_an_over_approximation_of_equality() {
        // Graph: two parallel length-2 paths with different labels.
        let mut g = ecrpq_graph::GraphBuilder::default();
        let s = g.add_named_node("s");
        let m1 = g.add_named_node("m1");
        let t = g.add_named_node("t");
        let m2 = g.add_named_node("m2");
        let u = g.add_named_node("u");
        g.add_edge_labeled(s, "a", m1);
        g.add_edge_labeled(m1, "a", t);
        g.add_edge_labeled(t, "b", m2);
        g.add_edge_labeled(m2, "b", u);
        let g = g.build();
        let al = g.alphabet().clone();
        // squares query: (x, π1, z), (z, π2, y), π1 = π2
        let q = Ecrpq::builder(&al)
            .head_nodes(&["x", "y"])
            .atom("x", "p1", "z")
            .atom("z", "p2", "y")
            .relation(builtin::equality(&al), &["p1", "p2"])
            .build()
            .unwrap();
        let cfg = EvalConfig::default();
        let full = eval::eval_nodes(&q, &g, &cfg).unwrap();
        let qlen = eval_qlen(&q, &g, &cfg).unwrap();
        // full equality never matches aa against bb …
        assert!(!full.contains(&vec![s, u]));
        // … but the length abstraction does.
        assert!(qlen.contains(&vec![s, u]));
        // and every full answer is also a Q_len answer (it is an abstraction)
        for ans in &full {
            assert!(qlen.contains(ans));
        }
    }

    /// Explicit linear constraints on lengths (Section 8.2): pairs of nodes
    /// connected by a path of length at least 3 in a cycle.
    #[test]
    fn explicit_length_constraints() {
        let g = generators::cycle_graph(4, "a");
        let al = g.alphabet().clone();
        let q = Ecrpq::builder(&al)
            .head_nodes(&["x", "y"])
            .atom("x", "p", "y")
            .linear_constraint(
                vec![(1, CountTarget::Length(crate::query::PathVar::new("p")))],
                CmpOp::Ge,
                3,
            )
            .build()
            .unwrap();
        let answers = eval_qlen(&q, &g, &EvalConfig::default()).unwrap();
        // in a cycle every ordered pair (including x=y via the full loop) has
        // arbitrarily long connecting paths
        assert_eq!(answers.len(), 16);
    }

    #[test]
    fn missing_abstraction_is_reported() {
        let al = Alphabet::from_labels(["a", "b"]);
        let g = generators::cycle_graph(3, "a");
        let q = Ecrpq::builder(&al)
            .atom("x", "p1", "y")
            .atom("y", "p2", "z")
            .relation(builtin::edit_distance_leq(&al, 1).unwrap(), &["p1", "p2"])
            .build()
            .unwrap();
        assert!(matches!(
            eval_qlen(&q, &g, &EvalConfig::default()),
            Err(QueryError::Unsupported(_))
        ));
    }
}
