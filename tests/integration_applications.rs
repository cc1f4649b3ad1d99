//! Integration tests for the application scenarios of Section 4 and
//! Section 8.2 of the paper: semantic-web associations, approximate matching
//! and alignment, and route finding with linear constraints.

use ecrpq::eval::counts::{fraction_at_least, label_count};
use ecrpq::eval::{self, EvalConfig};
use ecrpq::prelude::*;
use ecrpq_automata::builtin::{edit_distance_leq, levenshtein, rho_isomorphism};
use ecrpq_automata::semilinear::CmpOp;
use ecrpq_graph::generators::{self, sequence_pair_graph};

fn cfg() -> EvalConfig {
    EvalConfig::default()
}

/// ρ-isoAssociation (Section 4): two nodes are associated iff they originate
/// ρ-isomorphic property sequences.
#[test]
fn rho_iso_association_end_to_end() {
    let mut g = GraphBuilder::default();
    // worksAt ≺ affiliatedWith; alice-worksAt->acme, bob-affiliatedWith->initech
    for (s, p, o) in [
        ("alice", "worksAt", "acme"),
        ("bob", "affiliatedWith", "initech"),
        ("carol", "knows", "alice"),
    ] {
        let sn = g.add_named_node(s);
        let on = g.add_named_node(o);
        g.add_edge_labeled(sn, p, on);
    }
    let g = g.build();
    let al = g.alphabet().clone();
    let sub = vec![(al.sym("worksAt"), al.sym("affiliatedWith"))];
    let rho = rho_isomorphism(&al, &sub, false);
    let q = Ecrpq::builder(&al)
        .head_nodes(&["x", "y"])
        .atom("x", "p1", "z1")
        .atom("y", "p2", "z2")
        .language("p1", ". .*")
        .language("p2", ". .*")
        .relation(rho, &["p1", "p2"])
        .build()
        .unwrap();
    let answers = eval::eval_nodes(&q, &g, &cfg()).unwrap();
    let alice = g.node_by_name("alice").unwrap();
    let bob = g.node_by_name("bob").unwrap();
    let carol = g.node_by_name("carol").unwrap();
    assert!(answers.contains(&vec![alice, bob]));
    assert!(answers.contains(&vec![bob, alice]));
    // carol's only sequence starts with `knows`, which is not a subproperty
    // of anything, so carol is associated with nobody (not even herself,
    // since reflexive closure was not requested).
    assert!(!answers.iter().any(|a| a[0] == carol || a[1] == carol));
}

/// Bounded edit distance agrees with dynamic-programming Levenshtein when
/// queried through the full ECRPQ pipeline over sequence graphs.
#[test]
fn edit_distance_queries_match_levenshtein() {
    let pairs: Vec<(Vec<&str>, Vec<&str>)> = vec![
        (vec!["A", "C", "G"], vec!["A", "C", "G"]),
        (vec!["A", "C", "G"], vec!["A", "G"]),
        (vec!["A", "C", "G", "T"], vec!["T", "G", "C", "A"]),
        (vec!["A"], vec!["C", "C"]),
    ];
    for (seq1, seq2) in pairs {
        let w = sequence_pair_graph(&seq1, &seq2, false);
        let al = w.graph.alphabet().clone();
        let s1: Vec<Symbol> = seq1.iter().map(|l| al.sym(l)).collect();
        let s2: Vec<Symbol> = seq2.iter().map(|l| al.sym(l)).collect();
        let true_distance = levenshtein(&s1, &s2);
        // k is capped at 2: in a debug build, constructing the k=3 relation
        // over the 4-letter DNA alphabet (28,330 states, 2.36 M transitions)
        // takes about 7 s on a 2-vCPU machine and adds no new assertion — the
        // boundary `distance == k` is already hit at k=2 by the ("A", "CC")
        // pair, and the reversed pair stays negative for every k.
        for k in 0..=2usize {
            let q = Ecrpq::builder(&al)
                .atom("x1", "p1", "y1")
                .atom("x2", "p2", "y2")
                .relation(edit_distance_leq(&al, k).unwrap(), &["p1", "p2"])
                .bind_node("x1", "s0")
                .bind_node("y1", &format!("s{}", seq1.len()))
                .bind_node("x2", "t0")
                .bind_node("y2", &format!("t{}", seq2.len()))
                .build()
                .unwrap();
            let within = eval::eval_boolean(&q, &w.graph, &cfg()).unwrap();
            assert_eq!(
                within,
                true_distance <= k,
                "seq1={seq1:?} seq2={seq2:?} k={k} true={true_distance}"
            );
        }
    }
}

/// The alignment query of Section 4 returns the actual mismatch when two
/// sequences differ by one substitution.
#[test]
fn alignment_extracts_the_mismatch() {
    let seq1 = ["A", "C", "G"];
    let seq2 = ["A", "T", "G"];
    let w = sequence_pair_graph(&seq1, &seq2, true);
    let g = &w.graph;
    let al = g.alphabet().clone();
    let eq = builtin::equality(&al);
    let mut expr = String::new();
    for a in ["A", "C", "G", "T", "eps"] {
        for b in ["A", "C", "G", "T", "eps"] {
            if a != b {
                if !expr.is_empty() {
                    expr.push('|');
                }
                expr.push_str(&format!("<{a},{b}>"));
            }
        }
    }
    let mismatch = RegularRelation::from_regex(&expr, &al, 2).unwrap();
    let q = Ecrpq::builder(&al)
        .head_paths(&["a1", "b1"])
        .atom("x0", "m0", "x1")
        .atom("x1", "a1", "x2")
        .atom("x2", "m1", "x3")
        .atom("y0", "n0", "y1")
        .atom("y1", "b1", "y2")
        .atom("y2", "n1", "y3")
        .relation(eq.clone(), &["m0", "n0"])
        .relation(eq, &["m1", "n1"])
        .relation(mismatch, &["a1", "b1"])
        .bind_node("x0", "s0")
        .bind_node("x3", "s3")
        .bind_node("y0", "t0")
        .bind_node("y3", "t3")
        .build()
        .unwrap();
    let results = eval::eval_with_paths(&q, g, &EvalConfig { answer_limit: 5, ..cfg() }).unwrap();
    assert!(!results.is_empty());
    // At least one witness must pinpoint the C-vs-T substitution at position 2.
    let c = al.sym("C");
    let t = al.sym("T");
    assert!(results
        .iter()
        .any(|ans| { ans.paths[0].label() == [c] && ans.paths[1].label() == [t] }));
}

/// Route finding with occurrence constraints (Section 8.2): fractions of the
/// journey per airline, and hard label-count limits.
#[test]
fn route_finding_with_occurrence_constraints() {
    // Two routes from src to dst: 4 SQ segments, or 1 SQ + 3 BA segments.
    let mut g = GraphBuilder::default();
    let src = g.add_named_node("src");
    let dst = g.add_named_node("dst");
    let mut prev = src;
    for i in 0..3 {
        let n = g.add_named_node(&format!("sq{i}"));
        g.add_edge_labeled(prev, "SQ", n);
        prev = n;
    }
    g.add_edge_labeled(prev, "SQ", dst);
    let m = g.add_named_node("m0");
    g.add_edge_labeled(src, "SQ", m);
    let mut prev = m;
    for i in 0..2 {
        let n = g.add_named_node(&format!("ba{i}"));
        g.add_edge_labeled(prev, "BA", n);
        prev = n;
    }
    g.add_edge_labeled(prev, "BA", dst);
    let g = g.build();
    let al = g.alphabet().clone();

    let with_constraints = |constraints: Vec<ecrpq::query::QLinearConstraint>| {
        let mut b =
            Ecrpq::builder(&al).atom("x", "p", "y").bind_node("x", "src").bind_node("y", "dst");
        for c in constraints {
            b = b.linear_constraint(c.terms, c.op, c.constant);
        }
        b.build().unwrap()
    };
    let config = EvalConfig { max_convolution_steps: Some(16), ..cfg() };
    // 75% SQ is achievable (all-SQ route), 100% too; with "at least 1 BA" the
    // best is 25% SQ, so 75% becomes impossible.
    assert!(eval::eval_boolean(
        &with_constraints(vec![fraction_at_least("p", "SQ", 75)]),
        &g,
        &config
    )
    .unwrap());
    assert!(eval::eval_boolean(
        &with_constraints(vec![fraction_at_least("p", "SQ", 100)]),
        &g,
        &config
    )
    .unwrap());
    assert!(!eval::eval_boolean(
        &with_constraints(vec![
            fraction_at_least("p", "SQ", 75),
            label_count("p", "BA", CmpOp::Ge, 1),
        ]),
        &g,
        &config
    )
    .unwrap());
    // Avoiding SQ entirely is impossible (both routes start with SQ).
    assert!(!eval::eval_boolean(
        &with_constraints(vec![label_count("p", "SQ", CmpOp::Le, 0)]),
        &g,
        &config
    )
    .unwrap());
}

/// The flight-network generator plus fraction constraints at scale (smoke
/// test for the benchmark workload).
#[test]
fn flight_network_workload_smoke() {
    let g = generators::flight_network(6, &["SQ", "BA"], 20, 2, 1);
    let al = g.alphabet().clone();
    let c = fraction_at_least("p", "SQ", 50);
    let q = Ecrpq::builder(&al)
        .atom("x", "p", "y")
        .bind_node("x", "city0")
        .bind_node("y", "city1")
        .linear_constraint(c.terms, c.op, c.constant)
        .build()
        .unwrap();
    let config = EvalConfig { max_convolution_steps: Some(20), ..cfg() };
    // Either answer is fine; the point is that evaluation terminates cleanly.
    let _ = eval::eval_boolean(&q, &g, &config).unwrap();
}
