//! Cross-crate integration tests for the core evaluation pipeline: the worked
//! examples of Sections 1 and 3 of the paper, CRPQ/ECRPQ agreement on their
//! common fragment, path outputs, membership checking, and answer automata.

use ecrpq::eval::{self, answers, EvalConfig};
use ecrpq::prelude::*;
use ecrpq_graph::generators;

fn cfg() -> EvalConfig {
    EvalConfig::default()
}

/// The introduction's motivating query: scientists with same-length advisor
/// chains to a common academic ancestor.
#[test]
fn same_generation_over_academic_genealogy() {
    let g = generators::academic_genealogy(20, 3);
    let al = g.alphabet().clone();
    let q = Ecrpq::builder(&al)
        .head_nodes(&["x", "y"])
        .atom("x", "p1", "z")
        .atom("y", "p2", "z")
        .language("p1", "advisor+")
        .language("p2", "advisor+")
        .relation(builtin::equal_length(&al), &["p1", "p2"])
        .build()
        .unwrap();
    let answers = eval::eval_nodes(&q, &g, &cfg()).unwrap();
    // Sanity: the relation is symmetric and reflexive on people with advisors.
    for a in &answers {
        assert!(answers.contains(&vec![a[1], a[0]]), "symmetry violated for {a:?}");
    }
    // Everyone with at least one advisor is same-generation with themselves.
    for v in g.nodes() {
        if !g.out_edges(v).is_empty() {
            assert!(answers.contains(&vec![v, v]));
        }
    }
}

/// The squares query from Section 1 on an explicit graph where the only
/// squared path label is `ab·ab`.
#[test]
fn squares_query_on_handmade_graph() {
    let (g, first, last) = generators::string_graph(&["a", "b", "a", "b"]);
    let al = g.alphabet().clone();
    let q = Ecrpq::builder(&al)
        .head_nodes(&["x", "y"])
        .atom("x", "p1", "z")
        .atom("z", "p2", "y")
        .relation(builtin::equality(&al), &["p1", "p2"])
        .build()
        .unwrap();
    let answers = eval::eval_nodes(&q, &g, &cfg()).unwrap();
    // (first, last) via ab|ab, plus every trivial (v, v) pair via empty paths.
    assert!(answers.contains(&vec![first, last]));
    for v in g.nodes() {
        assert!(answers.contains(&vec![v, v]));
    }
    // No other non-trivial pair: aba cannot be split into equal halves, etc.
    let nontrivial: Vec<_> = answers.iter().filter(|a| a[0] != a[1]).collect();
    assert_eq!(nontrivial.len(), 1);
}

/// CRPQs evaluated through the generic ECRPQ machinery, whose nodes-mode
/// join leaves the existential `z` unenumerated, agree with the reference
/// oracle and with a naive path-enumeration reference.
#[test]
fn crpq_three_way_agreement() {
    let g = generators::random_graph(18, 2.0, &["a", "b", "c"], 99);
    let al = g.alphabet().clone();
    let q = Ecrpq::builder(&al)
        .head_nodes(&["x", "y"])
        .atom("x", "p1", "z")
        .atom("z", "p2", "y")
        .language("p1", "a (a|b)*")
        .language("p2", "c")
        .build()
        .unwrap();
    let mut generic = eval::eval_nodes(&q, &g, &cfg()).unwrap();
    generic.sort();
    assert_eq!(generic, ecrpq_integration::oracle_heads(&q, &g));

    // Naive reference: enumerate all paths up to length 6 and join by hand.
    let a_lang = Regex::parse("a (a|b)*").unwrap().compile(&al).unwrap();
    let c_lang = Regex::parse("c").unwrap().compile(&al).unwrap();
    let mut reference: Vec<Vec<NodeId>> = Vec::new();
    for x in g.nodes() {
        for p1 in ecrpq_graph::path::enumerate_paths(&g, x, 6, 100_000) {
            if !a_lang.accepts(p1.label()) {
                continue;
            }
            for p2 in ecrpq_graph::path::enumerate_paths(&g, p1.end(), 1, 100_000) {
                if c_lang.accepts(p2.label()) && !reference.contains(&vec![x, p2.end()]) {
                    reference.push(vec![x, p2.end()]);
                }
            }
        }
    }
    reference.sort();
    // The naive reference bounds path length by 6, so it can only miss
    // answers, never invent them.
    for r in &reference {
        assert!(generic.contains(r), "reference answer {r:?} missing from evaluator output");
    }
}

/// Path outputs: witnesses returned by eval_with_paths are valid paths, match
/// the query's constraints, and are accepted by the membership check.
#[test]
fn witness_paths_are_consistent() {
    let g = generators::cycle_graph(5, "a");
    let al = g.alphabet().clone();
    let q = Ecrpq::builder(&al)
        .head_nodes(&["x", "y"])
        .head_paths(&["p1", "p2"])
        .atom("x", "p1", "z")
        .atom("z", "p2", "y")
        .language("p1", "a+")
        .language("p2", "a+")
        .relation(builtin::equal_length(&al), &["p1", "p2"])
        .build()
        .unwrap();
    let config = EvalConfig { answer_limit: 25, ..cfg() };
    let results = eval::eval_with_paths(&q, &g, &config).unwrap();
    assert!(!results.is_empty());
    for ans in &results {
        assert_eq!(ans.paths.len(), 2);
        assert!(ans.paths[0].is_valid_in(&g));
        assert!(ans.paths[1].is_valid_in(&g));
        assert_eq!(ans.paths[0].len(), ans.paths[1].len());
        assert!(!ans.paths[0].is_empty());
        assert_eq!(ans.paths[0].start(), ans.nodes[0]);
        assert_eq!(ans.paths[1].end(), ans.nodes[1]);
        // the membership check agrees
        assert!(eval::check(&q, &g, &ans.nodes, &ans.paths, &config).unwrap());
    }
}

/// The membership check rejects tuples that violate the relations.
#[test]
fn membership_check_rejects_bad_tuples() {
    let (g, first, last) = generators::string_graph(&["a", "a", "b"]);
    let al = g.alphabet().clone();
    let q = Ecrpq::builder(&al)
        .head_nodes(&["x", "y"])
        .head_paths(&["p1", "p2"])
        .atom("x", "p1", "z")
        .atom("z", "p2", "y")
        .relation(builtin::equal_length(&al), &["p1", "p2"])
        .build()
        .unwrap();
    let a = al.sym("a");
    let b = al.sym("b");
    let n = |i: u32| NodeId(i);
    // |p1| = 2, |p2| = 1: violates el.
    let p1 = Path::new(vec![n(0), n(1), n(2)], vec![a, a]);
    let p2 = Path::new(vec![n(2), n(3)], vec![b]);
    assert!(!eval::check(&q, &g, &[first, last], &[p1.clone(), p2], &cfg()).unwrap());
    // A non-path (wrong edge) is rejected.
    let bogus = Path::new(vec![n(0), n(3)], vec![a]);
    assert!(!eval::check(&q, &g, &[first, last], &[p1, bogus], &cfg()).unwrap());
    // A correct split of odd length does not exist, but (1,1) around the
    // middle works for the substring "a b" from node 1.
    let p1 = Path::new(vec![n(1), n(2)], vec![a]);
    let p2 = Path::new(vec![n(2), n(3)], vec![b]);
    assert!(eval::check(&q, &g, &[n(1), n(3)], &[p1, p2], &cfg()).unwrap());
}

/// Theorem 5.1 / Proposition 5.2: the answer automaton for a node tuple
/// accepts exactly the witness tuples the evaluator returns (spot-checked),
/// and rejects perturbed tuples.
#[test]
fn answer_automaton_cross_check() {
    let g = generators::cycle_graph(4, "a");
    let al = g.alphabet().clone();
    let q = Ecrpq::builder(&al)
        .head_nodes(&["x"])
        .head_paths(&["p1", "p2"])
        .atom("x", "p1", "z")
        .atom("x", "p2", "w")
        .language("p1", "a+")
        .language("p2", "a+")
        .relation(builtin::equal_length(&al), &["p1", "p2"])
        .build()
        .unwrap();
    let config = EvalConfig { answer_limit: 10, ..cfg() };
    let results = eval::eval_with_paths(&q, &g, &config).unwrap();
    assert!(!results.is_empty());
    let nodes = results[0].nodes.clone();
    let automaton = answers::answer_automaton(&q, &g, &nodes, &config).unwrap();
    for ans in results.iter().filter(|a| a.nodes == nodes) {
        assert!(automaton.contains(&ans.paths));
    }
    // Perturb a witness: drop the last step of the second path so lengths differ.
    let mut bad = results[0].paths.clone();
    let shorter = Path::new(
        bad[1].nodes()[..bad[1].nodes().len() - 1].to_vec(),
        bad[1].label()[..bad[1].label().len() - 1].to_vec(),
    );
    bad[1] = shorter;
    if bad[1].len() != bad[0].len() {
        assert!(!automaton.contains(&bad));
    }
}

/// Boolean queries and constants: the ρ-query style "are these two specific
/// nodes related" form.
#[test]
fn boolean_queries_with_constants() {
    let mut g = GraphBuilder::default();
    let a = g.add_named_node("a");
    let b = g.add_named_node("b");
    let c = g.add_named_node("c");
    g.add_edge_labeled(a, "r", b);
    g.add_edge_labeled(b, "r", c);
    let g = g.build();
    let al = g.alphabet().clone();
    let reachable = |from: &str, to: &str| {
        Ecrpq::builder(&al)
            .atom("x", "p", "y")
            .language("p", "r+")
            .bind_node("x", from)
            .bind_node("y", to)
            .build()
            .unwrap()
    };
    assert!(eval::eval_boolean(&reachable("a", "c"), &g, &cfg()).unwrap());
    assert!(!eval::eval_boolean(&reachable("c", "a"), &g, &cfg()).unwrap());
    // Unknown constants surface as errors, not silent falsity.
    assert!(matches!(
        eval::eval_boolean(&reachable("a", "nonexistent"), &g, &cfg()),
        Err(QueryError::UnknownGraphNode(_))
    ));
}

/// Repetition of path variables (Proposition 6.8): a repeated path variable
/// forces a single path to satisfy all languages simultaneously.
#[test]
fn repeated_path_variables() {
    let g = generators::cycle_graph(6, "a");
    let al = g.alphabet().clone();
    // One path from node 0 whose length is divisible by 2 and by 3.
    let even = "(a a)+";
    let triple = "(a a a)+";
    let q = Ecrpq::builder(&al)
        .head_nodes(&["y1", "y2"])
        .atom("x", "p", "y1")
        .atom("x", "p", "y2")
        .language("p", even)
        .language("p", triple)
        .build()
        .unwrap();
    assert!(q.has_relational_repetition());
    assert!(q.has_regular_repetition());
    let answers = eval::eval_nodes(&q, &g, &cfg()).unwrap();
    // Both endpoints coincide (same path), and the shortest witness has
    // length 6, i.e. it wraps around the cycle back to the start.
    for a in &answers {
        assert_eq!(a[0], a[1]);
    }
    assert!(!answers.is_empty());
}

/// Budget exhaustion is reported as an error rather than a wrong answer.
#[test]
fn budget_exceeded_is_an_error() {
    let g = generators::random_graph(30, 2.5, &["a", "b"], 5);
    let al = g.alphabet().clone();
    let q = Ecrpq::builder(&al)
        .head_nodes(&["x", "y"])
        .atom("x", "p1", "z")
        .atom("z", "p2", "y")
        .relation(builtin::equal_length(&al), &["p1", "p2"])
        .build()
        .unwrap();
    let tiny = EvalConfig { max_search_states: 3, max_candidates: 1_000_000, ..cfg() };
    match eval::eval_nodes(&q, &g, &tiny) {
        Err(QueryError::BudgetExceeded { .. }) => {}
        Ok(answers) => {
            // On very small graphs the search may legitimately finish within
            // 3 states; accept that, but then answers must be non-trivial.
            assert!(!answers.is_empty());
        }
        Err(e) => panic!("unexpected error {e}"),
    }
}
