//! Query containment (Section 7).
//!
//! Containment `Q ⊑ Q'` asks whether `Q(G) ⊆ Q'(G)` for *every* graph
//! database `G`. The paper shows the problem is undecidable for ECRPQs
//! (Theorem 7.1) and EXPSPACE-complete when the right-hand query is a CRPQ
//! (Theorem 7.2). Both results rest on the canonical-database
//! characterization (Claim 7.2.1): `Q ⊄ Q'` iff some graph that is
//! *canonical* for `Q` — a disjoint union of simple paths, one per relational
//! atom, whose labels jointly satisfy `Q`'s relation atoms — fails `Q'` on
//! the tuple `Q` trivially selects on it.
//!
//! The checker below searches canonical databases whose paths have length at
//! most a caller-supplied bound. It is therefore:
//!
//! * **sound for non-containment** — any counterexample it returns is a real
//!   counterexample, and is reported together with the witness graph; and
//! * **complete up to the bound** — if no counterexample exists with paths of
//!   length ≤ bound, the result is [`ContainmentResult::ContainedUpTo`]. When
//!   every language and relation in `Q` is finite and the bound covers their
//!   longest members, this is full containment.
//!
//! A bounded procedure is the honest choice here: by Theorem 7.1 no complete
//! procedure exists, and by Freydenberger & Schweikardt the same holds even
//! for CRPQ ⊑ ECRPQ.

use crate::error::QueryError;
use crate::eval::{self, EvalConfig};
use crate::query::Ecrpq;
use ecrpq_automata::alphabet::Symbol;
use ecrpq_graph::{GraphBuilder, GraphDb, NodeId, Path};
use std::collections::HashMap;

/// The result of a bounded containment check.
#[derive(Clone, Debug)]
pub enum ContainmentResult {
    /// A counterexample was found: a canonical graph of `Q` on which some
    /// answer of `Q` is not an answer of `Q'`.
    NotContained {
        /// The witness graph (boxed: it is much larger than the other variant).
        witness: Box<GraphDb>,
        /// The head-node tuple of `Q` that `Q'` misses.
        nodes: Vec<NodeId>,
        /// The head-path tuple of `Q` that `Q'` misses.
        paths: Vec<Path>,
    },
    /// No counterexample exists among canonical databases whose per-atom
    /// paths have length at most the bound.
    ContainedUpTo {
        /// The path-length bound that was exhausted.
        bound: usize,
        /// Number of canonical databases examined.
        canonical_databases: usize,
    },
}

impl ContainmentResult {
    /// True if a counterexample was found.
    pub fn is_counterexample(&self) -> bool {
        matches!(self, ContainmentResult::NotContained { .. })
    }
}

/// Checks `Q ⊑ Q'` over canonical databases of `Q` with per-atom path labels
/// of length at most `bound`. Both queries must share the head signature
/// (same number of head node and head path variables).
pub fn check_containment(
    q: &Ecrpq,
    q_prime: &Ecrpq,
    bound: usize,
    config: &EvalConfig,
) -> Result<ContainmentResult, QueryError> {
    q.validate()?;
    q_prime.validate()?;
    if q.head_nodes.len() != q_prime.head_nodes.len()
        || q.head_paths.len() != q_prime.head_paths.len()
    {
        return Err(QueryError::Unsupported(
            "containment requires both queries to have the same head signature".to_string(),
        ));
    }
    if !q.linear_constraints.is_empty() || !q_prime.linear_constraints.is_empty() {
        return Err(QueryError::Unsupported(
            "containment checking does not support linear constraints".to_string(),
        ));
    }

    let mut examined = 0usize;
    // Enumerate label tuples for Q's path variables that satisfy all of Q's
    // relation atoms, up to the bound, and materialize each as a canonical
    // graph.
    let label_choices = enumerate_satisfying_labelings(q, bound, config)?;
    for labeling in label_choices {
        examined += 1;
        let (graph, node_map, path_map) = canonical_graph(q, &labeling);
        // The tuple Q selects on its canonical database.
        let nodes: Vec<NodeId> = q.head_nodes.iter().map(|v| node_map[v.name()]).collect();
        let paths: Vec<Path> = q.head_paths.iter().map(|p| path_map[p.name()].clone()).collect();
        // Sanity: Q must indeed select this tuple (it does by construction,
        // but the check also guards against bound-induced truncation).
        if !eval::check(q, &graph, &nodes, &paths, config)? {
            continue;
        }
        if !eval::check(q_prime, &graph, &nodes, &paths, config)? {
            return Ok(ContainmentResult::NotContained { witness: Box::new(graph), nodes, paths });
        }
    }
    Ok(ContainmentResult::ContainedUpTo { bound, canonical_databases: examined })
}

/// Enumerates assignments of label words (length ≤ bound) to Q's path
/// variables such that every relation atom of Q is satisfied.
fn enumerate_satisfying_labelings(
    q: &Ecrpq,
    bound: usize,
    config: &EvalConfig,
) -> Result<Vec<HashMap<String, Vec<Symbol>>>, QueryError> {
    let path_vars: Vec<String> = q.path_vars().into_iter().map(|p| p.0).collect();
    // Candidate words per path variable: all words over the query alphabet up
    // to the bound that satisfy the variable's unary constraints.
    let mut per_var: Vec<Vec<Vec<Symbol>>> = Vec::new();
    for pv in &path_vars {
        // Intersect unary constraints (arity-1 relations on this variable).
        let mut lang: Option<ecrpq_automata::Nfa<Symbol>> = None;
        for r in &q.relations {
            if r.relation.arity() == 1 && r.paths[0].name() == pv {
                let proj = r.relation.project(0);
                lang = Some(match lang {
                    None => proj.as_ref().clone(),
                    Some(l) => l.intersect(&proj).trim(),
                });
            }
        }
        let words = match lang {
            Some(l) => l.enumerate_words(bound, config.answer_limit.max(256)),
            None => all_words(&q.alphabet, bound),
        };
        if words.is_empty() {
            return Ok(Vec::new());
        }
        per_var.push(words);
    }
    // Cartesian product, filtered by the relation atoms of arity ≥ 2.
    let mut out = Vec::new();
    let mut choice = vec![0usize; path_vars.len()];
    if path_vars.is_empty() {
        return Ok(out);
    }
    'outer: loop {
        let labeling: HashMap<String, Vec<Symbol>> = path_vars
            .iter()
            .enumerate()
            .map(|(i, v)| (v.clone(), per_var[i][choice[i]].clone()))
            .collect();
        let ok = q.relations.iter().all(|r| {
            if r.relation.arity() < 2 {
                return true;
            }
            let words: Vec<&[Symbol]> =
                r.paths.iter().map(|p| labeling[p.name()].as_slice()).collect();
            r.relation.contains(&words)
        });
        if ok {
            out.push(labeling);
            if out.len() > config.max_candidates {
                return Err(QueryError::BudgetExceeded {
                    what: "containment canonical-database enumeration".to_string(),
                });
            }
        }
        let mut i = 0;
        loop {
            if i == path_vars.len() {
                break 'outer;
            }
            choice[i] += 1;
            if choice[i] < per_var[i].len() {
                break;
            }
            choice[i] = 0;
            i += 1;
        }
    }
    Ok(out)
}

/// All words over the alphabet with length at most `bound`.
fn all_words(alphabet: &ecrpq_automata::Alphabet, bound: usize) -> Vec<Vec<Symbol>> {
    let mut out = vec![Vec::new()];
    let mut frontier = vec![Vec::new()];
    for _ in 0..bound {
        let mut next = Vec::new();
        for w in &frontier {
            for s in alphabet.symbols() {
                let mut w2: Vec<Symbol> = w.clone();
                w2.push(s);
                out.push(w2.clone());
                next.push(w2);
            }
        }
        frontier = next;
    }
    out
}

/// Builds the canonical graph of `q` for a labeling of its path variables:
/// one simple path per relational atom, node-disjoint except for shared
/// endpoint variables.
fn canonical_graph(
    q: &Ecrpq,
    labeling: &HashMap<String, Vec<Symbol>>,
) -> (GraphDb, HashMap<String, NodeId>, HashMap<String, Path>) {
    let mut graph = GraphBuilder::new(q.alphabet.clone());
    let mut node_map: HashMap<String, NodeId> = HashMap::new();
    let mut path_map: HashMap<String, Path> = HashMap::new();
    for (i, atom) in q.atoms.iter().enumerate() {
        let word = &labeling[atom.path.name()];
        let from = *node_map
            .entry(atom.from.name().to_string())
            .or_insert_with(|| graph.add_named_node(atom.from.name()));
        let to = *node_map
            .entry(atom.to.name().to_string())
            .or_insert_with(|| graph.add_named_node(atom.to.name()));
        // Build the simple path; for an empty word the endpoints must coincide,
        // which we model by reusing `from` as `to`'s value only when they are
        // the same variable — otherwise the canonical database for this
        // labeling simply identifies the two variables through an empty path,
        // which requires from == to; we skip such degenerate labelings unless
        // the variables already share a node.
        if word.is_empty() {
            if from != to {
                // identify the nodes by adding an ε-like self identification:
                // an empty path forces σ(x) = σ(y); emulate by mapping the
                // `to` variable onto `from`'s node.
                node_map.insert(atom.to.name().to_string(), from);
            }
            let anchor = node_map[atom.from.name()];
            path_map.insert(atom.path.name().to_string(), Path::empty(anchor));
            continue;
        }
        let mut nodes = vec![from];
        for j in 0..word.len() - 1 {
            nodes.push(graph.add_named_node(&format!("atom{i}_mid{j}")));
        }
        nodes.push(node_map[atom.to.name()]);
        let _ = to;
        for (j, &sym) in word.iter().enumerate() {
            graph.add_edge(nodes[j], sym, nodes[j + 1]);
        }
        path_map.insert(atom.path.name().to_string(), Path::new(nodes, word.clone()));
    }
    (graph.build(), node_map, path_map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Ecrpq;
    use ecrpq_automata::{builtin, Alphabet};

    fn cfg() -> EvalConfig {
        EvalConfig::default()
    }

    #[test]
    fn contained_language_refinement() {
        // Q: path labeled a·b between x and y; Q': path labeled (a|b)* — contained.
        let al = Alphabet::from_labels(["a", "b"]);
        let q = Ecrpq::builder(&al)
            .head_nodes(&["x", "y"])
            .atom("x", "p", "y")
            .language("p", "a b")
            .build()
            .unwrap();
        let qp = Ecrpq::builder(&al)
            .head_nodes(&["x", "y"])
            .atom("x", "p", "y")
            .language("p", "(a|b)*")
            .build()
            .unwrap();
        let r = check_containment(&q, &qp, 4, &cfg()).unwrap();
        assert!(!r.is_counterexample());
        // and the converse direction fails with a witness
        let r2 = check_containment(&qp, &q, 3, &cfg()).unwrap();
        match r2 {
            ContainmentResult::NotContained { witness, nodes, paths } => {
                assert!(!eval::check(&q, &witness, &nodes, &paths, &cfg()).unwrap());
            }
            other => panic!("expected a counterexample, got {other:?}"),
        }
    }

    #[test]
    fn ecrpq_contained_in_crpq_relaxation() {
        // Q: (x,π1,z),(z,π2,y) with π1 = π2 and both in a+;
        // Q': same shape without the equality — Q ⊑ Q'.
        let al = Alphabet::from_labels(["a", "b"]);
        let q = Ecrpq::builder(&al)
            .head_nodes(&["x", "y"])
            .atom("x", "p1", "z")
            .atom("z", "p2", "y")
            .language("p1", "a+")
            .language("p2", "a+")
            .relation(builtin::equality(&al), &["p1", "p2"])
            .build()
            .unwrap();
        let qp = Ecrpq::builder(&al)
            .head_nodes(&["x", "y"])
            .atom("x", "p1", "z")
            .atom("z", "p2", "y")
            .language("p1", "a+")
            .language("p2", "a+")
            .build()
            .unwrap();
        let r = check_containment(&q, &qp, 3, &cfg()).unwrap();
        assert!(!r.is_counterexample());
        // The converse fails: Q' allows different lengths.
        let r2 = check_containment(&qp, &q, 3, &cfg()).unwrap();
        assert!(r2.is_counterexample());
    }

    #[test]
    fn mismatched_heads_are_rejected() {
        let al = Alphabet::from_labels(["a"]);
        let q = Ecrpq::builder(&al).head_nodes(&["x"]).atom("x", "p", "y").build().unwrap();
        let qp = Ecrpq::builder(&al).head_nodes(&["x", "y"]).atom("x", "p", "y").build().unwrap();
        assert!(check_containment(&q, &qp, 2, &cfg()).is_err());
    }
}
