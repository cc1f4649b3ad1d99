//! Yannakakis-style evaluation of acyclic CRPQs (Theorem 6.5, first part).
//!
//! For CRPQs whose relational part is acyclic, combined complexity drops to
//! polynomial time: each atom `(x, π, y)` together with the languages
//! constraining `π` is first evaluated into a binary relation over nodes (a
//! product-automaton reachability computation), and the resulting acyclic
//! conjunctive query over binary relations is evaluated by a semi-join
//! reduction along a join forest followed by answer enumeration that never
//! backtracks into dead branches.

use crate::error::QueryError;
use crate::eval::plan::reach::reach_rows;
use crate::eval::plan::{self, ReachRel};
use crate::eval::prepared::PreparedQuery;
use crate::eval::EvalConfig;
use crate::query::Ecrpq;
use ecrpq_graph::{GraphDb, NodeId};
use std::collections::{HashMap, HashSet};

/// Evaluates an acyclic CRPQ (node outputs only). Returns an error if the
/// query is not an acyclic CRPQ without repeated path variables, or has
/// linear constraints.
pub fn eval_acyclic_crpq(
    query: &Ecrpq,
    graph: &GraphDb,
    config: &EvalConfig,
) -> Result<Vec<Vec<NodeId>>, QueryError> {
    if !query.is_crpq() {
        return Err(QueryError::Unsupported(
            "eval_acyclic_crpq requires a CRPQ (no relations of arity ≥ 2)".to_string(),
        ));
    }
    if !query.is_acyclic() {
        return Err(QueryError::Unsupported(
            "eval_acyclic_crpq requires an acyclic relational part".to_string(),
        ));
    }
    if query.has_relational_repetition() || !query.linear_constraints.is_empty() {
        return Err(QueryError::Unsupported(
            "eval_acyclic_crpq does not support repeated path variables or linear constraints"
                .to_string(),
        ));
    }
    let prepared = PreparedQuery::prepare(query)?;
    let bound = prepared.bind(graph)?;
    let pq = bound.prepared();
    let mut stats = plan::EvalStats::default();
    let sources: Vec<u32> = (0..graph.num_nodes() as u32).collect();
    let reach: Vec<ReachRel> = (0..pq.path_vars.len())
        .map(|p| {
            ReachRel::from_fwd(reach_rows(pq, p, &bound.edges::<false>(), &sources, &mut stats))
        })
        .collect();

    let num_vars = pq.node_vars.len();
    let edges: Vec<AtomEdge> = (0..pq.path_vars.len())
        .map(|p| AtomEdge { path: p, from: pq.path_from[p], to: pq.path_to[p] })
        .collect();

    // Initial domains: all nodes, restricted by constants.
    let constants: HashMap<usize, NodeId> = bound.constants().iter().copied().collect();
    let all_nodes: Vec<NodeId> = graph.nodes().collect();
    let mut domains: Vec<HashSet<NodeId>> = (0..num_vars)
        .map(|v| match constants.get(&v) {
            Some(&n) => std::iter::once(n).collect(),
            None => all_nodes.iter().copied().collect(),
        })
        .collect();

    // Semi-join reduction to a fixpoint (for a forest, two passes suffice;
    // iterating to fixpoint keeps the code simple and is still polynomial).
    loop {
        let mut changed = false;
        for e in &edges {
            // restrict domain of `from` to values with a successor in domain of `to`
            let new_from: HashSet<NodeId> = domains[e.from]
                .iter()
                .copied()
                .filter(|&u| reach[e.path].fwd[u.index()].iter().any(|v| domains[e.to].contains(v)))
                .collect();
            if new_from.len() != domains[e.from].len() {
                domains[e.from] = new_from;
                changed = true;
            }
            let new_to: HashSet<NodeId> = domains[e.to]
                .iter()
                .copied()
                .filter(|&v| {
                    reach[e.path].bwd[v.index()].iter().any(|u| domains[e.from].contains(u))
                })
                .collect();
            if new_to.len() != domains[e.to].len() {
                domains[e.to] = new_to;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        if domains.iter().any(|d| d.is_empty()) {
            return Ok(Vec::new());
        }
    }

    // Enumerate answers over the reduced domains. After full reduction every
    // partial assignment along the join forest extends to a solution, so the
    // enumeration below does no fruitless backtracking (Yannakakis).
    let mut answers: HashSet<Vec<NodeId>> = HashSet::new();
    let mut assignment: Vec<Option<NodeId>> = vec![None; num_vars];
    // order: connected-first, as in the generic planner
    let mut order: Vec<usize> = Vec::new();
    let mut placed = vec![false; num_vars];
    while order.len() < num_vars {
        let next = (0..num_vars)
            .filter(|&v| !placed[v])
            .max_by_key(|&v| {
                edges
                    .iter()
                    .filter(|e| (e.from == v && placed[e.to]) || (e.to == v && placed[e.from]))
                    .count()
            })
            .unwrap();
        placed[next] = true;
        order.push(next);
    }

    let mut budget = config.max_candidates as u64;
    enumerate(
        0,
        &order,
        &edges,
        &reach,
        &domains,
        &mut assignment,
        &pq.head_node_idx,
        &mut answers,
        &mut budget,
    )?;
    Ok(answers.into_iter().collect())
}

#[allow(clippy::too_many_arguments)]
fn enumerate(
    depth: usize,
    order: &[usize],
    edges: &[AtomEdge],
    reach: &[ReachRel],
    domains: &[HashSet<NodeId>],
    assignment: &mut Vec<Option<NodeId>>,
    head_node_idx: &[usize],
    answers: &mut HashSet<Vec<NodeId>>,
    budget: &mut u64,
) -> Result<(), QueryError> {
    if depth == order.len() {
        if *budget == 0 {
            return Err(QueryError::BudgetExceeded {
                what: "acyclic enumeration exceeded the candidate budget".to_string(),
            });
        }
        *budget -= 1;
        let head: Vec<NodeId> = head_node_idx.iter().map(|&i| assignment[i].unwrap()).collect();
        answers.insert(head);
        return Ok(());
    }
    let var = order[depth];
    let candidates: Vec<NodeId> = domains[var].iter().copied().collect();
    for v in candidates {
        assignment[var] = Some(v);
        let ok = edges.iter().all(|e| match (assignment[e.from], assignment[e.to]) {
            (Some(f), Some(t)) if e.from == var || e.to == var => reach[e.path].contains(f, t),
            _ => true,
        });
        if ok {
            enumerate(
                depth + 1,
                order,
                edges,
                reach,
                domains,
                assignment,
                head_node_idx,
                answers,
                budget,
            )?;
        }
        assignment[var] = None;
    }
    Ok(())
}

/// One relational atom viewed as a binary-relation edge over node variables.
struct AtomEdge {
    path: usize,
    from: usize,
    to: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval;
    use crate::query::Ecrpq;
    use ecrpq_graph::generators;

    #[test]
    fn acyclic_agrees_with_generic_evaluation() {
        let g = generators::random_graph(30, 2.5, &["a", "b"], 42);
        let al = g.alphabet().clone();
        let q = Ecrpq::builder(&al)
            .head_nodes(&["x", "z"])
            .atom("x", "p1", "y")
            .atom("y", "p2", "z")
            .language("p1", "a (a|b)*")
            .language("p2", "b+")
            .build()
            .unwrap();
        let cfg = EvalConfig::default();
        let mut generic = eval::eval_nodes(&q, &g, &cfg).unwrap();
        let mut acyclic = eval_acyclic_crpq(&q, &g, &cfg).unwrap();
        generic.sort();
        acyclic.sort();
        assert_eq!(generic, acyclic);
    }

    #[test]
    fn rejects_non_acyclic_or_non_crpq() {
        let al = ecrpq_automata::Alphabet::from_labels(["a"]);
        let g = generators::cycle_graph(3, "a");
        let cyclic = Ecrpq::builder(&al)
            .atom("x", "p1", "y")
            .atom("y", "p2", "z")
            .atom("z", "p3", "x")
            .build()
            .unwrap();
        assert!(eval_acyclic_crpq(&cyclic, &g, &EvalConfig::default()).is_err());
        let ecrpq = Ecrpq::builder(&al)
            .atom("x", "p1", "y")
            .atom("y", "p2", "z")
            .relation(ecrpq_automata::builtin::equality(&al), &["p1", "p2"])
            .build()
            .unwrap();
        assert!(eval_acyclic_crpq(&ecrpq, &g, &EvalConfig::default()).is_err());
    }
}
