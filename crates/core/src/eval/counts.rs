//! Linear constraints on numbers of occurrences of labels (Section 8.2,
//! Theorem 8.5).
//!
//! Queries built with [`crate::query::EcrpqBuilder::linear_constraint`] carry
//! rows `Σ coef·target op constant` where each target is either the length of
//! a path variable or the number of occurrences of a label on it. The main
//! evaluator handles such queries directly: the convolution search of
//! [`super::search`] tracks the value of every constraint row along the run
//! and only accepts runs whose final values satisfy all rows, with the number
//! of global steps bounded by the small-model bound of Lemma 8.6 (clamped and
//! configurable through [`EvalConfig::max_convolution_steps`]).
//!
//! This module adds convenience constructors for common constraint shapes —
//! notably the paper's running example "at least `p`% of the journey is with
//! airline `a`" — and the module-level tests exercising the machinery.

use crate::query::{CountTarget, PathVar, QLinearConstraint};
use ecrpq_automata::semilinear::CmpOp;

/// Builds the constraint "at least `percent`% of the steps of `path` carry
/// `label`": `100·#label(path) − percent·|path| ≥ 0`.
pub fn fraction_at_least(path: &str, label: &str, percent: i64) -> QLinearConstraint {
    QLinearConstraint {
        terms: vec![
            (100, CountTarget::LabelCount(PathVar::new(path), label.to_string())),
            (-percent, CountTarget::Length(PathVar::new(path))),
        ],
        op: CmpOp::Ge,
        constant: 0,
    }
}

/// Builds the constraint `#label(path) op constant`.
pub fn label_count(path: &str, label: &str, op: CmpOp, constant: i64) -> QLinearConstraint {
    QLinearConstraint {
        terms: vec![(1, CountTarget::LabelCount(PathVar::new(path), label.to_string()))],
        op,
        constant,
    }
}

/// Builds the constraint `|path| op constant`.
pub fn length(path: &str, op: CmpOp, constant: i64) -> QLinearConstraint {
    QLinearConstraint { terms: vec![(1, CountTarget::Length(PathVar::new(path)))], op, constant }
}

/// Builds the constraint `|path1| op |path2|` (as `|path1| − |path2| op 0`).
pub fn length_compare(path1: &str, path2: &str, op: CmpOp) -> QLinearConstraint {
    QLinearConstraint {
        terms: vec![
            (1, CountTarget::Length(PathVar::new(path1))),
            (-1, CountTarget::Length(PathVar::new(path2))),
        ],
        op,
        constant: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{self, EvalConfig};
    use crate::query::Ecrpq;
    use ecrpq_graph::generators;
    use ecrpq_graph::GraphBuilder;

    /// The paper's airline example (Section 8.2): an itinerary where at least
    /// 80% of the journey duration is with Singapore Airlines (label `SQ`).
    #[test]
    fn airline_fraction_constraint() {
        // Hand-built network: London → Sydney has two routes; one is 5 SQ
        // segments, the other is 2 SQ segments + 3 BA segments.
        let mut g = GraphBuilder::default();
        let london = g.add_named_node("London");
        let sydney = g.add_named_node("Sydney");
        let mut prev = london;
        for i in 0..4 {
            let n = g.add_named_node(&format!("sq{i}"));
            g.add_edge_labeled(prev, "SQ", n);
            prev = n;
        }
        g.add_edge_labeled(prev, "SQ", sydney);
        let mut prev = london;
        for i in 0..1 {
            let n = g.add_named_node(&format!("mix{i}"));
            g.add_edge_labeled(prev, "SQ", n);
            prev = n;
        }
        let mid = g.add_named_node("mix_mid");
        g.add_edge_labeled(prev, "SQ", mid);
        let mut prev = mid;
        for i in 0..2 {
            let n = g.add_named_node(&format!("ba{i}"));
            g.add_edge_labeled(prev, "BA", n);
            prev = n;
        }
        g.add_edge_labeled(prev, "BA", sydney);

        let g = g.build();
        let al = g.alphabet().clone();
        let build = |percent: i64| {
            let mut b = Ecrpq::builder(&al)
                .atom("x", "p", "y")
                .bind_node("x", "London")
                .bind_node("y", "Sydney");
            let c = fraction_at_least("p", "SQ", percent);
            b = b.linear_constraint(c.terms, c.op, c.constant);
            b.build().unwrap()
        };
        let cfg = EvalConfig::default();
        // 80%: the all-SQ route qualifies.
        assert!(eval::eval_boolean(&build(80), &g, &cfg).unwrap());
        // 100%: still satisfiable (the all-SQ route).
        assert!(eval::eval_boolean(&build(100), &g, &cfg).unwrap());
        // Remove the all-SQ route by demanding at least one BA segment too —
        // then 80% SQ becomes unsatisfiable (best mixed route is 2/5 = 40%).
        let mut b = Ecrpq::builder(&al)
            .atom("x", "p", "y")
            .bind_node("x", "London")
            .bind_node("y", "Sydney");
        let c = fraction_at_least("p", "SQ", 80);
        b = b.linear_constraint(c.terms, c.op, c.constant);
        let c2 = label_count("p", "BA", CmpOp::Ge, 1);
        b = b.linear_constraint(c2.terms, c2.op, c2.constant);
        let q = b.build().unwrap();
        assert!(!eval::eval_boolean(&q, &g, &cfg).unwrap());
    }

    /// Length comparison constraints across two paths: find nodes with two
    /// outgoing paths of equal length to fixed targets — the "same-length
    /// path to a given advisor" query from the introduction, expressed with
    /// counters instead of the `el` relation.
    #[test]
    fn cross_path_length_equality_via_counters() {
        let (g, first, last) = generators::string_graph(&["a", "a", "b", "b"]);
        let al = g.alphabet().clone();
        let q = Ecrpq::builder(&al)
            .head_nodes(&["x", "y"])
            .atom("x", "p1", "z")
            .atom("z", "p2", "y")
            .language("p1", "a+")
            .language("p2", "b+")
            .linear_constraint(length_compare("p1", "p2", CmpOp::Eq).terms, CmpOp::Eq, 0)
            .build()
            .unwrap();
        let answers = eval::eval_nodes(&q, &g, &EvalConfig::default()).unwrap();
        assert!(answers.contains(&vec![first, last]));
        // on the string aabb the answers are the full span (a^2 b^2) and the
        // inner span (a^1 b^1)
        assert_eq!(answers.len(), 2);
    }

    #[test]
    fn label_count_bounds() {
        let g = generators::cycle_graph(5, "a");
        let al = g.alphabet().clone();
        let q = Ecrpq::builder(&al)
            .atom("x", "p", "y")
            .bind_node("x", "n0")
            .linear_constraint(label_count("p", "a", CmpOp::Ge, 7).terms, CmpOp::Ge, 7)
            .build();
        // the cycle's nodes are anonymous, so binding by name fails — rebuild
        // with an explicit named graph instead.
        assert!(q.is_ok());
        let mut g2 = GraphBuilder::default();
        let n0 = g2.add_named_node("n0");
        let n1 = g2.add_named_node("n1");
        g2.add_edge_labeled(n0, "a", n1);
        g2.add_edge_labeled(n1, "a", n0);
        let g2 = g2.build();
        let al2 = g2.alphabet().clone();
        let q2 = Ecrpq::builder(&al2)
            .atom("x", "p", "y")
            .bind_node("x", "n0")
            .linear_constraint(label_count("p", "a", CmpOp::Ge, 7).terms, CmpOp::Ge, 7)
            .build()
            .unwrap();
        // paths of length ≥ 7 exist by looping
        assert!(eval::eval_boolean(&q2, &g2, &EvalConfig::default()).unwrap());
        let q3 = Ecrpq::builder(&al2)
            .atom("x", "p", "y")
            .bind_node("x", "n0")
            .language("p", "a a a")
            .linear_constraint(label_count("p", "a", CmpOp::Ge, 7).terms, CmpOp::Ge, 7)
            .build()
            .unwrap();
        // language forces exactly 3 edges, so the count constraint fails
        assert!(!eval::eval_boolean(&q3, &g2, &EvalConfig::default()).unwrap());
    }

    #[test]
    fn constraint_constructors_shape() {
        let c = fraction_at_least("p", "SQ", 80);
        assert_eq!(c.terms.len(), 2);
        assert_eq!(c.constant, 0);
        let l = length("p", CmpOp::Le, 9);
        assert_eq!(l.terms.len(), 1);
        let cmp = length_compare("p", "q", CmpOp::Ge);
        assert_eq!(cmp.terms[1].0, -1);
    }
}
