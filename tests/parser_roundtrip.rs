//! Parser property suite: seeded random queries round-trip through
//! `Display`, and the parser never panics on mutated input (fuzz smoke).
//!
//! The round-trip property is `parse → Display → parse` being the identity:
//! for a random textual query `t`, `d = parse(t).to_string()` is a fixpoint
//! (`parse(d).to_string() == d`) and the reparsed query is structurally
//! identical (same head, atoms, relation names, constraints, constants).

use ecrpq::prelude::*;
use ecrpq_integration::prop;

const CASES: usize = 120;

// The query generator itself lives in `ecrpq_integration::corpus` so the
// concurrency differential suite (`tests/concurrency.rs`) runs the exact
// same seeded corpus through the multi-threaded engine.
use ecrpq_integration::corpus::{alphabet, random_query_text};

/// Structural equality of two parsed queries (the pieces `Display` prints).
fn assert_structurally_equal(a: &Ecrpq, b: &Ecrpq, context: &str) {
    assert_eq!(a.head_nodes, b.head_nodes, "{context}: head nodes");
    assert_eq!(a.head_paths, b.head_paths, "{context}: head paths");
    assert_eq!(a.atoms, b.atoms, "{context}: atoms");
    assert_eq!(a.relations.len(), b.relations.len(), "{context}: relation count");
    for (ra, rb) in a.relations.iter().zip(&b.relations) {
        assert_eq!(ra.relation.name(), rb.relation.name(), "{context}: relation name");
        assert_eq!(ra.relation.arity(), rb.relation.arity(), "{context}: relation arity");
        assert_eq!(ra.paths, rb.paths, "{context}: relation paths");
    }
    assert_eq!(
        a.linear_constraints.len(),
        b.linear_constraints.len(),
        "{context}: constraint count"
    );
    for (ca, cb) in a.linear_constraints.iter().zip(&b.linear_constraints) {
        assert_eq!(ca.terms, cb.terms, "{context}: constraint terms");
        assert_eq!(ca.op, cb.op, "{context}: constraint op");
        assert_eq!(ca.constant, cb.constant, "{context}: constraint constant");
    }
    assert_eq!(a.node_constants, b.node_constants, "{context}: node constants");
}

#[test]
fn parse_display_parse_is_identity_on_random_queries() {
    let al = alphabet();
    prop::check(CASES, 0x9A25_0001, |g| {
        let text = random_query_text(g);
        let q1 = parse_query(&text, &al)
            .unwrap_or_else(|e| panic!("generated query must parse: {text:?}: {e}"));
        let d1 = q1.to_string();
        let q2 = parse_query(&d1, &al)
            .unwrap_or_else(|e| panic!("Display output must reparse: {d1:?}: {e}"));
        assert_eq!(d1, q2.to_string(), "Display must be a fixpoint for {text:?}");
        assert_structurally_equal(&q1, &q2, &format!("round-trip of {text:?}"));
    });
}

#[test]
fn parsed_and_reparsed_queries_evaluate_identically() {
    let al = alphabet();
    let cfg = EvalConfig { max_search_states: 100_000, ..EvalConfig::default() };
    prop::check(16, 0x9A25_0002, |g| {
        // Constant-free fragment so evaluation needs no named graph nodes.
        let mut text = random_query_text(g);
        while text.contains(" = :") {
            text = random_query_text(g);
        }
        let q1 = parse_query(&text, &al).unwrap();
        let q2 = parse_query(&q1.to_string(), &al).unwrap();
        let mut db = GraphBuilder::new(al.clone());
        let nodes = db.add_nodes(4);
        for _ in 0..g.range(2, 8) {
            let from = nodes[g.index(4)];
            let label = Symbol(g.index(3) as u32);
            let to = nodes[g.index(4)];
            db.add_edge(from, label, to);
        }
        let db = db.build();
        let mut a1 = eval::eval_nodes(&q1, &db, &cfg).unwrap();
        let mut a2 = eval::eval_nodes(&q2, &db, &cfg).unwrap();
        a1.sort();
        a2.sort();
        assert_eq!(a1, a2, "reparsed query must evaluate identically for {text:?}");
    });
}

/// Fuzz smoke: the parser must return `Ok`/`Err`, never panic, on randomly
/// mutated query text (deletions, substitutions, token splices). Bounded
/// iterations, seeded — `scripts/check.sh` runs this as its parser fuzz
/// gate.
#[test]
fn fuzz_smoke_mutated_inputs_never_panic() {
    let al = alphabet();
    const SPLICES: [&str; 14] =
        [",", "(", ")", "<-", "=", ":", "*", "|", "<", ">", "L(", "R(p", "len(", "Ans"];
    prop::check(1000, 0x9A25_0003, |g| {
        let mut text = random_query_text(g);
        for _ in 0..g.range(0, 4) {
            match g.index(3) {
                0 if !text.is_empty() => {
                    // delete a random character
                    let at = g.index(text.len());
                    if text.is_char_boundary(at) {
                        text.remove(at);
                    }
                }
                1 => {
                    let at = g.index(text.len() + 1);
                    if text.is_char_boundary(at) {
                        text.insert_str(at, SPLICES[g.index(SPLICES.len())]);
                    }
                }
                _ => {
                    let at = g.index(text.len() + 1);
                    if text.is_char_boundary(at) {
                        text.insert(at, ['#', '§', '0', 'x', ' '][g.index(5)]);
                    }
                }
            }
        }
        // Must not panic; the verdict itself is irrelevant.
        let _ = parse_query(&text, &al);
    });
}

/// Truncation fuzz: every prefix of a valid query must parse or fail
/// cleanly — a cut-off input is the most common real-world parse error
/// (an interrupted pipe, a half-typed REPL line), and each one must carry a
/// span inside (or one past) the input it was given.
#[test]
fn every_prefix_of_a_valid_query_errors_with_an_in_bounds_span() {
    let al = alphabet();
    prop::check(40, 0x9A25_0004, |g| {
        let text = random_query_text(g);
        for cut in 0..text.len() {
            if !text.is_char_boundary(cut) {
                continue;
            }
            if let Err(e) = parse_query(&text[..cut], &al) {
                assert!(
                    e.span.start <= cut && e.span.end <= cut + 1,
                    "span {}..{} escapes the {cut}-byte input {:?}",
                    e.span.start,
                    e.span.end,
                    &text[..cut]
                );
            }
        }
    });
}

/// Golden byte-span error messages for truncated inputs: the exact spans
/// and wording users see for a cut-off regex, a dangling `len(`, a dangling
/// relation atom, and friends. Pinned so error-reporting regressions show
/// up as a diff here, not as a support question.
#[test]
fn truncated_inputs_report_pinned_byte_span_errors() {
    let al = alphabet();
    let cases: [(&str, &str); 7] = [
        (
            // Cut-off regex: the error points one past the unclosed group.
            "Ans(x) <- (x, p, y), L(p) = (a|",
            "parse error at 30..31: in regular expression: expected `)`",
        ),
        (
            // Dangling `len(` constraint.
            "Ans(x) <- (x, p, y), len(",
            "parse error at 25..26: expected a path variable, found end of input",
        ),
        (
            // Constraint cut after an operator.
            "Ans(x) <- (x, p, y), len(p) - ",
            "parse error at 30..31: expected `len` or `count`, found end of input",
        ),
        (
            // Language atom with no regex at all: a zero-width span at EOF.
            "Ans(x) <- (x, p, y), L(p) = ",
            "parse error at 28..28: expected a regular expression",
        ),
        (
            // Relation atom cut inside its tape list.
            "Ans(x) <- (x, p, y), R(p",
            "parse error at 24..25: expected `)`, found end of input",
        ),
        (
            // Binding cut after the `:`.
            "Ans(x, y) <- (x, p, y), L(p) = a*, x = :",
            "parse error at 40..41: expected a node name, found end of input",
        ),
        (
            // Relational atom cut mid-tuple.
            "Ans(x) <- (x, p,",
            "parse error at 16..17: expected a node variable, found end of input",
        ),
    ];
    for (input, expected) in cases {
        let err = parse_query(input, &al)
            .expect_err(&format!("truncated input must not parse: {input:?}"));
        assert_eq!(err.to_string(), expected, "error text changed for {input:?}");
    }
}
