//! Property-based tests for the core invariants of the workspace: automata
//! algebra, regular-relation builders against reference implementations,
//! convolution round-trips, length sets, and the evaluator against a naive
//! bounded-path-enumeration reference on small graphs.
//!
//! Cases are generated by the seeded helper in `ecrpq_integration::prop`
//! (a std-only replacement for `proptest`): each property runs over 32
//! deterministic random cases, and failures report the case seed.

use ecrpq::eval::{self, EvalConfig};
use ecrpq::prelude::*;
use ecrpq_automata::alphabet::{convolution, deconvolution};
use ecrpq_automata::builtin;
use ecrpq_automata::dfa::{complement_nfa, Dfa};
use ecrpq_automata::unary::{length_set, length_set_default_cap};
use ecrpq_graph::path::enumerate_paths;
use ecrpq_integration::prop::{self, Gen};

const LABELS: [&str; 2] = ["a", "b"];
const CASES: usize = 32;

fn alphabet() -> Alphabet {
    Alphabet::from_labels(LABELS)
}

/// A short random word over {a, b} as a symbol vector.
fn word(g: &mut Gen, max_len: usize) -> Vec<Symbol> {
    let len = g.len(max_len);
    (0..len).map(|_| Symbol(g.index(2) as u32)).collect()
}

/// A small random graph: 1..14 random edges over 6 nodes and 2 labels.
fn graph(g: &mut Gen) -> GraphDb {
    let mut db = GraphBuilder::new(alphabet());
    let nodes = db.add_nodes(6);
    let num_edges = g.range(1, 13);
    for _ in 0..num_edges {
        let from = nodes[g.index(6)];
        let label = Symbol(g.index(2) as u32);
        let to = nodes[g.index(6)];
        db.add_edge(from, label, to);
    }
    db.build()
}

/// NFA product recognizes exactly the intersection of the languages.
#[test]
fn intersection_is_language_intersection() {
    let al = alphabet();
    let l1 = Regex::parse("a (a|b)*").unwrap().compile(&al).unwrap();
    let l2 = Regex::parse("(a|b)* b").unwrap().compile(&al).unwrap();
    let both = l1.intersect(&l2);
    prop::check(CASES, 0xA11CE, |g| {
        let w = word(g, 8);
        assert_eq!(both.accepts(&w), l1.accepts(&w) && l2.accepts(&w), "word {w:?}");
    });
}

/// Determinization and complementation behave classically.
#[test]
fn complement_is_involution_on_membership() {
    let al = alphabet();
    let lang = Regex::parse("a* b a*").unwrap().compile(&al).unwrap();
    let syms: Vec<Symbol> = al.symbols().collect();
    let dfa = Dfa::from_nfa(&lang, &syms);
    let comp = complement_nfa(&lang, &syms);
    prop::check(CASES, 0xB0B, |g| {
        let w = word(g, 8);
        assert_eq!(dfa.accepts(&w), lang.accepts(&w), "word {w:?}");
        assert_eq!(comp.accepts(&w), !lang.accepts(&w), "word {w:?}");
    });
}

/// Convolution/deconvolution round-trips on arbitrary word pairs.
#[test]
fn convolution_round_trip() {
    prop::check(CASES, 0xC0DE, |g| {
        let w1 = word(g, 6);
        let w2 = word(g, 6);
        let conv = convolution(&[&w1, &w2]);
        let back = deconvolution(&conv, 2).unwrap();
        assert_eq!(back[0], w1);
        assert_eq!(back[1], w2);
    });
}

/// The built-in equality, equal-length, and prefix relations agree with
/// their definitional checks.
#[test]
fn builtin_relations_match_definitions() {
    let al = alphabet();
    let equality = builtin::equality(&al);
    let equal_length = builtin::equal_length(&al);
    let prefix = builtin::prefix(&al);
    let length_less = builtin::length_less(&al);
    prop::check(CASES, 0xD06, |g| {
        let w1 = word(g, 6);
        let w2 = word(g, 6);
        assert_eq!(equality.contains(&[&w1, &w2]), w1 == w2);
        assert_eq!(equal_length.contains(&[&w1, &w2]), w1.len() == w2.len());
        assert_eq!(prefix.contains(&[&w1, &w2]), w2.starts_with(&w1));
        assert_eq!(length_less.contains(&[&w1, &w2]), w1.len() < w2.len());
    });
}

/// The edit-distance relation agrees with dynamic-programming Levenshtein.
#[test]
fn edit_distance_relation_is_correct() {
    let al = alphabet();
    let rels: Vec<_> = (0..3).map(|k| builtin::edit_distance_leq(&al, k).unwrap()).collect();
    prop::check(CASES, 0xED17, |g| {
        let w1 = word(g, 5);
        let w2 = word(g, 5);
        let k = g.index(3);
        let expected = builtin::levenshtein(&w1, &w2) <= k;
        assert_eq!(rels[k].contains(&[&w1, &w2]), expected, "w1 {w1:?} w2 {w2:?} k {k}");
    });
}

/// Length sets computed by the reachable-set iteration agree with a
/// brute-force check on the first 40 lengths.
#[test]
fn length_sets_match_brute_force() {
    prop::check(CASES, 0x1E57, |gen| {
        let g = graph(gen);
        let from = NodeId(0);
        let to = NodeId(1);
        let nfa = g.as_nfa(&[from], &[to]);
        let ls = length_set(&nfa, length_set_default_cap(nfa.num_states())).unwrap();
        // brute force: reachable sets by BFS levels
        let mut current = vec![from];
        for len in 0u64..40 {
            let reachable_now = current.contains(&to);
            assert_eq!(ls.contains(len), reachable_now, "length {len}");
            let mut next: Vec<NodeId> =
                current.iter().flat_map(|&v| g.out_edges(v).iter().map(|&(_, t)| t)).collect();
            next.sort_unstable();
            next.dedup();
            current = next;
        }
    });
}

/// The CRPQ evaluator agrees with a naive path-enumeration reference on
/// small graphs (soundness and completeness up to the enumeration bound).
#[test]
fn crpq_matches_naive_reference() {
    prop::check(CASES, 0xCAFE, |gen| {
        let g = graph(gen);
        let al = g.alphabet().clone();
        let q = Ecrpq::builder(&al)
            .head_nodes(&["x", "y"])
            .atom("x", "p", "y")
            .language("p", "a b* a")
            .build()
            .unwrap();
        let answers = eval::eval_nodes(&q, &g, &EvalConfig::default()).unwrap();
        let lang = Regex::parse("a b* a").unwrap().compile(&al).unwrap();
        // Naive: enumerate paths of length ≤ 7 from every node.
        let mut reference: Vec<Vec<NodeId>> = Vec::new();
        for x in g.nodes() {
            for p in enumerate_paths(&g, x, 7, 50_000) {
                if lang.accepts(p.label()) && !reference.contains(&vec![x, p.end()]) {
                    reference.push(vec![x, p.end()]);
                }
            }
        }
        // Every naive answer is found by the evaluator.
        for r in &reference {
            assert!(answers.contains(r), "missing {r:?}");
        }
        // Every evaluator answer of short witness length is confirmed naively.
        // (The evaluator may also return answers whose shortest witness is
        // longer than the naive bound; those are checked by `eval::check`.)
        for a in &answers {
            if !reference.contains(a) {
                // confirm via the membership machinery using a fresh witness
                let q_paths = Ecrpq::builder(&al)
                    .head_nodes(&["x", "y"])
                    .head_paths(&["p"])
                    .atom("x", "p", "y")
                    .language("p", "a b* a")
                    .build()
                    .unwrap();
                let results = eval::eval_with_paths(&q_paths, &g, &EvalConfig::default()).unwrap();
                let confirmed = results.iter().any(|ans| ans.nodes == *a);
                assert!(confirmed, "unconfirmed evaluator answer {a:?}");
            }
        }
    });
}

/// The ECRPQ evaluator is sound: every answer of the equal-length query
/// has a witnessing pair of equal-length paths (validated via `check`).
#[test]
fn ecrpq_equal_length_answers_are_witnessed() {
    prop::check(CASES, 0xEC49, |gen| {
        let g = graph(gen);
        let al = g.alphabet().clone();
        let q = Ecrpq::builder(&al)
            .head_nodes(&["x", "y"])
            .head_paths(&["p1", "p2"])
            .atom("x", "p1", "z")
            .atom("z", "p2", "y")
            .language("p1", "a+")
            .language("p2", "b+")
            .relation(builtin::equal_length(&al), &["p1", "p2"])
            .build()
            .unwrap();
        let cfg = EvalConfig { answer_limit: 20, ..EvalConfig::default() };
        for ans in eval::eval_with_paths(&q, &g, &cfg).unwrap() {
            assert_eq!(ans.paths[0].len(), ans.paths[1].len());
            assert!(!ans.paths[0].is_empty());
            assert!(ans.paths[0].is_valid_in(&g));
            assert!(ans.paths[1].is_valid_in(&g));
            assert!(eval::check(&q, &g, &ans.nodes, &ans.paths, &cfg).unwrap());
        }
    });
}

/// Acyclic evaluation agrees with the generic evaluator on random chain
/// queries over random small graphs.
#[test]
fn acyclic_equals_generic() {
    prop::check(CASES, 0xAC1C, |gen| {
        let g = graph(gen);
        let al = g.alphabet().clone();
        let q = Ecrpq::builder(&al)
            .head_nodes(&["x", "z"])
            .atom("x", "p1", "y")
            .atom("y", "p2", "z")
            .language("p1", "a+")
            .language("p2", "b+")
            .build()
            .unwrap();
        let cfg = EvalConfig::default();
        let mut a = eval::eval_nodes(&q, &g, &cfg).unwrap();
        let mut b = eval::acyclic::eval_acyclic_crpq(&q, &g, &cfg).unwrap();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    });
}
