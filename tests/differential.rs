//! Differential property suite: the dense product engine against the
//! retained reference implementation.
//!
//! Every test generates seeded random multi-label graphs and queries and
//! asserts that `ecrpq::eval` (the dense engine: interned flat-`u64` states,
//! relation state sets interned per run and stepped through memoised
//! successor lists) and
//! `ecrpq::eval::reference` (the classical cloned-state BFS) agree exactly:
//! identical answer sets, identical `EvalStats::verified` counts, identical
//! membership verdicts for pinned paths, and answer-automaton emptiness
//! verdicts consistent with the reference answer set.

use ecrpq::eval::{self, answers, reference, Direction, EvalConfig};
use ecrpq::prelude::*;
use ecrpq_automata::semilinear::CmpOp;
use ecrpq_automata::{builtin, TupleSym};
use ecrpq_graph::path::enumerate_paths;
use ecrpq_integration::corpus::random_constant_free_query_text;
use ecrpq_integration::prop::{self, Gen};

const LABELS: [&str; 3] = ["a", "b", "c"];
const CASES: usize = 24;

fn alphabet() -> Alphabet {
    Alphabet::from_labels(LABELS)
}

/// A small random graph over 5 nodes `v0..v4` and 3 labels.
fn graph(g: &mut Gen) -> GraphDb {
    let mut db = GraphBuilder::new(alphabet());
    let nodes: Vec<NodeId> = (0..5).map(|i| db.add_named_node(&format!("v{i}"))).collect();
    let num_edges = g.range(2, 11);
    for _ in 0..num_edges {
        let from = nodes[g.index(5)];
        let label = Symbol(g.index(3) as u32);
        let to = nodes[g.index(5)];
        db.add_edge(from, label, to);
    }
    db.build()
}

/// A random regular-language constraint string.
fn language(g: &mut Gen) -> &'static str {
    const LANGS: [&str; 6] = ["a*", "(a|b)*", "a (a|b)*", "(a|b|c)* c", "a* b*", ". .*"];
    LANGS[g.index(LANGS.len())]
}

fn config() -> EvalConfig {
    EvalConfig { max_search_states: 200_000, ..EvalConfig::default() }
}

/// Sorts node-tuple answer sets for order-insensitive comparison.
fn sorted(mut answers: Vec<Vec<NodeId>>) -> Vec<Vec<NodeId>> {
    answers.sort();
    answers
}

/// Asserts both engines agree on the answer set and the verified count.
fn assert_engines_agree(q: &ecrpq::query::Ecrpq, db: &GraphDb, what: &str) {
    let cfg = config();
    let (dense, dense_stats) = eval::eval_nodes_with_stats(q, db, &cfg).unwrap();
    let (refr, ref_stats) = reference::eval_nodes_with_stats(q, db, &cfg).unwrap();
    assert_eq!(sorted(dense.clone()), sorted(refr), "{what}: answer sets differ");
    assert_eq!(dense_stats.verified, ref_stats.verified, "{what}: verified counts differ");
    assert_eq!(dense_stats.candidates, ref_stats.candidates, "{what}: candidate counts differ");
}

/// Plain two-atom ECRPQs with an equal-length or equality relation.
#[test]
fn engines_agree_on_relational_queries() {
    let al = alphabet();
    prop::check(CASES, 0xD1FF_0001, |g| {
        let db = graph(g);
        let rel = if g.index(2) == 0 { builtin::equal_length(&al) } else { builtin::equality(&al) };
        let q = Ecrpq::builder(&al)
            .head_nodes(&["x", "y"])
            .atom("x", "p1", "z")
            .atom("z", "p2", "y")
            .language("p1", language(g))
            .language("p2", language(g))
            .relation(rel, &["p1", "p2"])
            .build()
            .unwrap();
        assert_engines_agree(&q, &db, "relational");
    });
    // Textual corpus queries on two structured graph families: a string
    // (line) graph and the REI gadget graph of the paper's PSPACE reduction.
    let word = ["a", "b", "a", "b", "a", "b", "a"];
    let families = [generators::string_graph(&word).0, generators::rei_gadget_graph(&["a", "b"])];
    let mut gen = Gen::new(0x9A7A_11E1);
    for _ in 0..7 {
        let text = random_constant_free_query_text(&mut gen);
        let q = parse_query(&text, &al).unwrap_or_else(|e| panic!("{text:?} must parse: {e}"));
        for db in &families {
            assert_engines_agree(&q, db, &text);
        }
    }
}

/// CRPQs with a repeated path variable (the same π bound by two atoms).
#[test]
fn engines_agree_on_repeated_atoms() {
    let al = alphabet();
    prop::check(CASES, 0xD1FF_0002, |g| {
        let db = graph(g);
        let q = Ecrpq::builder(&al)
            .head_nodes(&["x"])
            .atom("x", "p", "y")
            .atom("x", "p", "z")
            .language("p", language(g))
            .build()
            .unwrap();
        assert_engines_agree(&q, &db, "repeated atom");
    });
}

/// Queries with linear constraints (counters in the search state).
#[test]
fn engines_agree_on_linear_constraints() {
    let al = alphabet();
    prop::check(CASES, 0xD1FF_0003, |g| {
        let db = graph(g);
        let ops = [CmpOp::Ge, CmpOp::Eq, CmpOp::Le];
        let c1 = eval::counts::length("p", ops[g.index(3)], g.range(0, 4) as i64);
        let c2 = eval::counts::label_count("p", "a", ops[g.index(3)], g.range(0, 2) as i64);
        let q = Ecrpq::builder(&al)
            .head_nodes(&["x", "y"])
            .atom("x", "p", "y")
            .language("p", language(g))
            .linear_constraint(c1.terms.clone(), c1.op, c1.constant)
            .linear_constraint(c2.terms.clone(), c2.op, c2.constant)
            .build()
            .unwrap();
        assert_engines_agree(&q, &db, "linear constraints");
    });
}

/// Membership checks with pinned paths: both engines must return the same
/// verdict for random (node, path) tuples, both valid and invalid — for the
/// query built through the builder and for the same query parsed from text.
#[test]
fn engines_agree_on_pinned_path_membership() {
    let al = alphabet();
    let cfg = config();
    prop::check(CASES, 0xD1FF_0004, |g| {
        let db = graph(g);
        let lang = language(g);
        let q = Ecrpq::builder(&al)
            .head_nodes(&["x"])
            .head_paths(&["p1", "p2"])
            .atom("x", "p1", "z")
            .atom("z", "p2", "y")
            .language("p1", lang)
            .relation(builtin::equal_length(&al), &["p1", "p2"])
            .build()
            .unwrap();
        let text =
            format!("Ans(x, p1, p2) <- (x, p1, z), (z, p2, y), L(p1) = {lang}, R(p1, p2) = el");
        let parsed = parse_query(&text, &al).unwrap();
        let start = NodeId(g.index(5) as u32);
        let paths1 = enumerate_paths(&db, start, 3, 8);
        let p1 = paths1[g.index(paths1.len())].clone();
        let paths2 = enumerate_paths(&db, p1.end(), 3, 8);
        let p2 = paths2[g.index(paths2.len())].clone();
        let nodes = [start];
        let tuple = [p1, p2];
        for q in [&q, &parsed] {
            let dense = eval::check(q, &db, &nodes, &tuple, &cfg).unwrap();
            let refr = reference::check(q, &db, &nodes, &tuple, &cfg).unwrap();
            assert_eq!(dense, refr, "membership verdicts differ for {tuple:?}");
        }
    });
}

/// Witness paths produced by the dense engine are genuine members of the
/// answer set according to the reference engine.
#[test]
fn dense_witnesses_verify_under_reference_membership() {
    let al = alphabet();
    let cfg = EvalConfig { answer_limit: 8, ..config() };
    prop::check(CASES, 0xD1FF_0005, |g| {
        let db = graph(g);
        let q = Ecrpq::builder(&al)
            .head_nodes(&["x", "y"])
            .head_paths(&["p"])
            .atom("x", "p", "y")
            .language("p", language(g))
            .build()
            .unwrap();
        let answers = eval::eval_with_paths(&q, &db, &cfg).unwrap();
        for ans in answers.iter().take(4) {
            assert!(
                reference::check(&q, &db, &ans.nodes, &ans.paths, &cfg).unwrap(),
                "dense witness rejected by the reference engine: {ans:?}"
            );
        }
    });
}

/// Answer-automaton emptiness must coincide with membership of the bound
/// nodes in the reference engine's answer set: the automaton for `v̄` is
/// non-empty iff some path tuple completes `v̄` to an answer.
#[test]
fn answer_automaton_emptiness_matches_reference_answers() {
    let al = alphabet();
    let cfg = config();
    prop::check(CASES, 0xD1FF_0006, |g| {
        let db = graph(g);
        let q = Ecrpq::builder(&al)
            .head_nodes(&["x", "y"])
            .head_paths(&["p"])
            .atom("x", "p", "y")
            .language("p", language(g))
            .build()
            .unwrap();
        let (ref_answers, _) = reference::eval_nodes_with_stats(&q, &db, &cfg).unwrap();
        let x = NodeId(g.index(5) as u32);
        let y = NodeId(g.index(5) as u32);
        let aut = answers::answer_automaton(&q, &db, &[x, y], &cfg).unwrap();
        let in_ref = ref_answers.contains(&vec![x, y]);
        assert_eq!(
            !aut.is_empty(),
            in_ref,
            "automaton emptiness for ({x:?},{y:?}) disagrees with the reference answer set"
        );
    });
}

/// The two-sided variant with a relation: emptiness verdicts across all node
/// pairs on a fixed small graph — with the join variable free, and bound to
/// a constant, which the planner pushes into the answer automaton's
/// reachability stage as a pinned BFS.
#[test]
fn answer_automaton_emptiness_with_relations() {
    let al = alphabet();
    let cfg = config();
    prop::check(8, 0xD1FF_0007, |g| {
        let db = graph(g);
        let z = g.index(5);
        for text in [
            "Ans(x, y, p1, p2) <- (x, p1, z), (z, p2, y), R(p1, p2) = el".to_string(),
            format!("Ans(x, y, p1, p2) <- (x, p1, z), (z, p2, y), R(p1, p2) = el, z = :v{z}"),
        ] {
            let q = parse_query(&text, &al).unwrap();
            let (ref_answers, _) = reference::eval_nodes_with_stats(&q, &db, &cfg).unwrap();
            for x in 0..5u32 {
                for y in 0..5u32 {
                    let nodes = [NodeId(x), NodeId(y)];
                    let aut = answers::answer_automaton(&q, &db, &nodes, &cfg).unwrap();
                    assert_eq!(
                        !aut.is_empty(),
                        ref_answers.contains(&nodes.to_vec()),
                        "{text}: emptiness disagrees at ({x},{y})"
                    );
                }
            }
        }
    });
}

/// Prepared-then-bound execution must match both the one-shot path and the
/// reference engine on identical answer sets, and re-binding the same
/// prepared query to fresh graphs must skip automaton compilation entirely
/// (nonzero cache hits, zero misses on reuse).
#[test]
fn prepared_then_bound_matches_one_shot_and_reference() {
    let al = alphabet();
    let cfg = config();
    prop::check(CASES, 0xD1FF_0008, |g| {
        let rel = if g.index(2) == 0 { builtin::equal_length(&al) } else { builtin::equality(&al) };
        let q = Ecrpq::builder(&al)
            .head_nodes(&["x", "y"])
            .atom("x", "p1", "z")
            .atom("z", "p2", "y")
            .language("p1", language(g))
            .language("p2", language(g))
            .relation(rel, &["p1", "p2"])
            .build()
            .unwrap();
        let prepared = eval::prepare(&q).unwrap();
        for graph_idx in 0..3 {
            let db = graph(g);
            let bound = prepared.bind(&db).unwrap();
            let (mut prep_ans, prep_stats) = bound.run_nodes(&cfg).unwrap();
            let mut oneshot = eval::eval_nodes(&q, &db, &cfg).unwrap();
            let (mut refr, _) = reference::eval_nodes_with_stats(&q, &db, &cfg).unwrap();
            prep_ans.sort();
            oneshot.sort();
            refr.sort();
            assert_eq!(prep_ans, oneshot, "prepared answers differ from one-shot");
            assert_eq!(prep_ans, refr, "prepared answers differ from reference");
            if graph_idx == 0 {
                // A freshly prepared ECRPQ (wide relation forces the search)
                // must actually compile its automata on the first run.
                assert!(
                    prep_stats.sim_cache_misses > 0,
                    "first run of a fresh prepared query must compile automata"
                );
                // The planner adapts BFS directions to each graph's
                // statistics, so a later graph may need the reverse tables
                // graph 0 did not: compile every table once, here.
                prepared.warm_full();
            } else {
                assert_eq!(
                    prep_stats.sim_cache_misses, 0,
                    "reuse on a fresh graph must not recompile automata"
                );
                assert!(prep_stats.sim_cache_hits > 0, "reuse must report cache hits");
            }
        }
    });
}

/// The prepared membership check and answer automaton agree with their
/// one-shot counterparts.
#[test]
fn prepared_check_and_answer_automaton_match_one_shot() {
    let al = alphabet();
    let cfg = config();
    prop::check(8, 0xD1FF_0009, |g| {
        let db = graph(g);
        let q = Ecrpq::builder(&al)
            .head_nodes(&["x", "y"])
            .head_paths(&["p"])
            .atom("x", "p", "y")
            .language("p", language(g))
            .build()
            .unwrap();
        let prepared = eval::prepare(&q).unwrap();
        let bound = prepared.bind(&db).unwrap();
        for x in 0..5u32 {
            for y in 0..5u32 {
                let nodes = [NodeId(x), NodeId(y)];
                let one_shot = answers::answer_automaton(&q, &db, &nodes, &cfg).unwrap();
                let via_plan = bound.answer_automaton(&nodes, &cfg).unwrap();
                assert_eq!(one_shot.is_empty(), via_plan.is_empty(), "emptiness at ({x},{y})");
            }
        }
        let paths = enumerate_paths(&db, NodeId(g.index(5) as u32), 3, 6);
        let p = paths[g.index(paths.len())].clone();
        let nodes = [p.start(), p.end()];
        let tuple = [p];
        assert_eq!(
            bound.check(&nodes, &tuple, &cfg).unwrap(),
            eval::check(&q, &db, &nodes, &tuple, &cfg).unwrap(),
            "prepared membership verdict differs from one-shot"
        );
    });
}

/// Automata past 2,048 states — once routed to a sparse fallback — run on
/// the one engine: candidate verification, the membership check, forward
/// and pinned reverse reachability, and the answer-automaton construction
/// all step the compiled successor lists and produce exactly the reference
/// answers.
#[test]
fn large_automata_run_on_the_one_engine() {
    // a^2100 as a 2101-state chain NFA.
    const LEN: usize = 2100;
    const CYCLE: usize = 30; // LEN % CYCLE == 0, so a^LEN loops back to start
    let mut g = GraphBuilder::new(Alphabet::from_labels(["a"]));
    let nodes: Vec<NodeId> = (0..CYCLE).map(|i| g.add_named_node(&format!("v{i}"))).collect();
    let a = g.alphabet().sym("a");
    for i in 0..CYCLE {
        g.add_edge(nodes[i], a, nodes[(i + 1) % CYCLE]);
    }
    let g = g.build();
    let mut chain = ecrpq_automata::Nfa::new();
    let states = chain.add_states(LEN + 1);
    chain.add_initial(states[0]);
    chain.set_accepting(states[LEN], true);
    for i in 0..LEN {
        chain.add_transition(states[i], a, states[i + 1]);
    }
    let al = g.alphabet().clone();
    let rel = ecrpq_automata::RegularRelation::from_language(&chain);
    assert!(rel.num_states() > 2048, "test must exceed the old 2,048-state bound");

    // Head paths force the convolution search even for this arity-1 query.
    let q = Ecrpq::builder(&al)
        .head_nodes(&["x", "y"])
        .head_paths(&["p"])
        .atom("x", "p", "y")
        .relation(rel.clone(), &["p"])
        .build()
        .unwrap();
    let cfg = EvalConfig { max_search_states: 500_000, ..EvalConfig::default() };

    let (dense, dense_stats) = eval::eval_nodes_with_stats(&q, &g, &cfg).unwrap();
    let (refr, ref_stats) = reference::eval_nodes_with_stats(&q, &g, &cfg).unwrap();
    assert_eq!(sorted(dense.clone()), sorted(refr));
    assert_eq!(dense_stats.verified, ref_stats.verified);
    // a^2100 from node i always ends back at node i on a 30-cycle.
    let expected: Vec<Vec<NodeId>> =
        (0..CYCLE as u32).map(|i| vec![NodeId(i), NodeId(i)]).collect();
    assert_eq!(sorted(dense), expected);

    // Answer automaton: non-empty exactly at (v, v), accepting the a^LEN
    // path and rejecting the short cycle.
    let aut = answers::answer_automaton(&q, &g, &[nodes[0], nodes[0]], &cfg).unwrap();
    assert!(!aut.is_empty());
    let mut long_path = ecrpq_graph::Path::empty(nodes[0]);
    let mut short_path = ecrpq_graph::Path::empty(nodes[0]);
    for i in 0..LEN {
        long_path.push(a, nodes[(i + 1) % CYCLE]);
        if i < CYCLE {
            short_path.push(a, nodes[(i + 1) % CYCLE]);
        }
    }
    assert!(aut.contains(&[long_path.clone()]));
    assert!(!aut.contains(&[short_path.clone()]));
    let aut_off = answers::answer_automaton(&q, &g, &[nodes[0], nodes[1]], &cfg).unwrap();
    assert!(aut_off.is_empty());

    // The membership check agrees with the reference engine's.
    let prepared = eval::prepare(&q).unwrap();
    let bound = prepared.bind(&g).unwrap();
    let ends = [nodes[0], nodes[0]];
    for path in [long_path, short_path] {
        let tuple = [path];
        assert_eq!(
            bound.check(&ends, &tuple, &cfg).unwrap(),
            reference::check(&q, &g, &ends, &tuple, &cfg).unwrap(),
            "membership of a path of length {}",
            tuple[0].len()
        );
    }

    // With `y` bound, the cost-based planner pins a reverse BFS over the
    // reversed chain at `y`; its answers are column `y` of the unpinned
    // query's rows.
    for (i, &y) in nodes.iter().enumerate().step_by(7) {
        let q = Ecrpq::builder(&al)
            .head_nodes(&["x"])
            .atom("x", "p", "y")
            .relation(rel.clone(), &["p"])
            .bind_node("y", &format!("v{i}"))
            .build()
            .unwrap();
        let prepared = eval::prepare(&q).unwrap();
        let report = prepared.bind(&g).unwrap().explain(&cfg).unwrap();
        assert_eq!(report.atoms[0].direction, Direction::Reverse, "v{i}");
        assert_eq!(report.atoms[0].pinned.as_deref(), Some(format!("v{i}").as_str()));
        let (column, _) = prepared.bind(&g).unwrap().run_nodes(&cfg).unwrap();
        let want: Vec<Vec<NodeId>> =
            expected.iter().filter(|row| row[1] == y).map(|row| vec![row[0]]).collect();
        assert_eq!(sorted(column), want, "v{i}");
    }
}

/// A relation whose tuple-letter codes overflow `u64`: five tapes over a
/// 7,200-label query alphabet make `(7,200 + 2)^5` codes, so the engine
/// looks each letter up as a `TupleSym`. The relation makes its five paths
/// read one word, letter by letter; `zz` is a graph label the query
/// alphabet lacks, which no relation reads.
#[test]
fn engines_agree_on_relations_with_wide_tuple_letters() {
    const LABELS: usize = 7_200;
    assert!((LABELS as u64 + 2).checked_pow(5).is_none(), "codes must overflow u64");
    let al = Alphabet::from_labels((0..LABELS).map(|i| format!("l{i}")));
    let mut same_word = ecrpq_automata::Nfa::new();
    let q0 = same_word.add_state();
    same_word.add_initial(q0);
    same_word.set_accepting(q0, true);
    for l in ["l0", "l1", "l2"] {
        let s = Some(al.sym(l));
        same_word.add_transition(q0, TupleSym::new(vec![s; 5]), q0);
    }
    let rel = RegularRelation::from_nfa(5, same_word);
    let q = Ecrpq::builder(&al)
        .head_nodes(&["x", "y", "z"])
        .atom("x", "p1", "y")
        .atom("x", "p2", "y")
        .atom("x", "p3", "z")
        .atom("x", "p4", "z")
        .atom("x", "p5", "z")
        .relation(rel, &["p1", "p2", "p3", "p4", "p5"])
        .build()
        .unwrap();
    prop::check(6, 0xD1FF_000B, |g| {
        let mut db = GraphBuilder::new(Alphabet::from_labels(["l0", "l1", "l2", "zz"]));
        let nodes = db.add_nodes(5);
        for _ in 0..g.range(4, 10) {
            let (from, to) = (nodes[g.index(5)], nodes[g.index(5)]);
            db.add_edge(from, Symbol(g.index(4) as u32), to);
        }
        let db = db.build();
        let cfg = config();
        let (dense, dense_stats) = eval::eval_nodes_with_stats(&q, &db, &cfg).unwrap();
        let (refr, ref_stats) = reference::eval_nodes_with_stats(&q, &db, &cfg).unwrap();
        assert!(!dense.is_empty(), "the empty word relates every x to itself");
        assert_eq!(sorted(dense), sorted(refr), "answer sets differ");
        assert_eq!(dense_stats.verified, ref_stats.verified, "verified counts differ");
        assert_eq!(dense_stats.search_states, ref_stats.search_states, "search states differ");
    });
}
