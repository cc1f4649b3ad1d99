//! Query and graph builders for the rows of the paper's Figure 1, shared by
//! `tests/fig1_shapes.rs` (which pins each row's complexity shape as exact,
//! seeded counts) and the `serve` family of the bench harness (which serves
//! the data-complexity ECRPQ over TCP).

use ecrpq::query::Ecrpq;
use ecrpq_automata::builtin;
use ecrpq_automata::nfa::Nfa;
use ecrpq_automata::relation::RegularRelation;
use ecrpq_automata::{Alphabet, Symbol};
use ecrpq_graph::generators;
use ecrpq_graph::GraphDb;

/// The pairwise-coprime counting moduli of the intersection families.
const PRIMES: [usize; 8] = [2, 3, 5, 7, 11, 13, 17, 19];

/// An NFA over `{a, b}` accepting the language `(a^modulus)+`: non-empty
/// blocks of `a`s whose length is a multiple of `modulus`. The intersection
/// of several of these (for pairwise coprime moduli) only contains words of
/// length at least the product of the moduli, which is what makes the
/// regular-expression-intersection queries force the PSPACE behaviour of
/// Theorem 6.3: the evaluator has to track the product of the counting
/// automata to find the (exponentially long) common word.
pub fn count_a_mod_language(alphabet: &Alphabet, modulus: usize) -> Nfa<Symbol> {
    let a = alphabet.sym("a");
    let mut nfa = Nfa::new();
    let states = nfa.add_states(modulus + 1);
    nfa.add_initial(states[0]);
    nfa.set_accepting(states[modulus], true);
    for i in 0..modulus {
        nfa.add_transition(states[i], a, states[i + 1]);
    }
    nfa.add_transition(states[modulus], a, states[1]);
    nfa
}

/// A random graph with an embedded `a^4 b^4` chain whose endpoints are the
/// named nodes `chain_start` / `chain_mid` / `chain_end`.
pub fn data_complexity_graph(n: usize, seed: u64) -> GraphDb {
    let mut g = generators::random_graph_builder(n, 2.0, &["a", "b"], seed);
    let start = g.add_named_node("chain_start");
    let mid = g.add_named_node("chain_mid");
    let end = g.add_named_node("chain_end");
    let a = g.alphabet().sym("a");
    let b = g.alphabet().sym("b");
    let mut prev = start;
    for _ in 0..3 {
        let x = g.add_node();
        g.add_edge(prev, a, x);
        prev = x;
    }
    g.add_edge(prev, a, mid);
    let mut prev = mid;
    for _ in 0..3 {
        let x = g.add_node();
        g.add_edge(prev, b, x);
        prev = x;
    }
    g.add_edge(prev, b, end);
    g.build()
}

/// The (CRPQ, ECRPQ) Boolean query pair of the data-complexity row, pinned
/// to the chain's endpoints. The `serve` bench family ships the ECRPQ over
/// the wire in textual form (`Display` emits the parser's syntax).
pub fn data_queries(g: &GraphDb) -> (Ecrpq, Ecrpq) {
    let al = g.alphabet().clone();
    let crpq = Ecrpq::builder(&al)
        .atom("x", "p1", "z")
        .atom("z", "p2", "y")
        .language("p1", "a a a a")
        .language("p2", "b b b b")
        .bind_node("x", "chain_start")
        .bind_node("y", "chain_end")
        .build()
        .expect("the data-complexity queries are well-formed");
    let ecrpq = Ecrpq::builder(&al)
        .atom("x", "p1", "z")
        .atom("z", "p2", "y")
        .language("p1", "a a a a")
        .language("p2", "b b b b")
        .relation(builtin::equal_length(&al), &["p1", "p2"])
        .bind_node("x", "chain_start")
        .bind_node("y", "chain_end")
        .build()
        .expect("the data-complexity queries are well-formed");
    (crpq, ecrpq)
}

/// The regular-expression-intersection family on the paper's gadget graph
/// `G_Σ`: `m` language atoms with pairwise-coprime counting moduli.
/// `with_equality` adds the relations `π1 = πi`, turning the CRPQ into the
/// ECRPQ of Theorem 6.3's reduction.
pub fn rei_query(m: usize, with_equality: bool) -> (Ecrpq, GraphDb) {
    assert!(m <= PRIMES.len(), "rei_query supports at most {} atoms", PRIMES.len());
    let g = generators::rei_gadget_graph(&["a", "b"]);
    let al = g.alphabet().clone();
    let mut builder = Ecrpq::builder(&al);
    for (i, &prime) in PRIMES.iter().enumerate().take(m) {
        let path = format!("pi{i}");
        builder = builder.atom("x", &path, "y").bind_node("x", "v0");
        let lang = count_a_mod_language(&al, prime);
        builder = builder.relation(
            RegularRelation::from_language(&lang).named(&format!("a_mod_{prime}")),
            &[&path],
        );
    }
    if with_equality {
        for i in 1..m {
            builder = builder.relation(builtin::equality(&al), &["pi0", &format!("pi{i}")]);
        }
    }
    (builder.build().expect("the intersection queries are well-formed"), g)
}

/// Acyclic chain queries of `len` atoms `(x_{i-1}, p_i, x_i)`, each path in
/// `(a b)+`, with head `(x0, x_len)`; `with_relations` adds equal-length
/// relations between consecutive paths (the acyclic ECRPQ of Theorem 6.5).
pub fn chain_query(len: usize, with_relations: bool, alphabet: &Alphabet) -> Ecrpq {
    let mut builder = Ecrpq::builder(alphabet).head_nodes(&["x0", &format!("x{len}")]);
    for i in 0..len {
        let path = format!("p{i}");
        builder = builder.atom(&format!("x{i}"), &path, &format!("x{}", i + 1));
        builder = builder.language(&path, "(a b)+");
    }
    if with_relations {
        for i in 1..len {
            builder = builder.relation(
                builtin::equal_length(alphabet),
                &[&format!("p{}", i - 1), &format!("p{i}")],
            );
        }
    }
    builder.build().expect("chain queries are well-formed")
}

/// The acyclic CRPQ chain `(x0, p0, x1), …, (x_{len-1}, p_{len-1}, x_len)`
/// whose languages cycle through `a`, `b`, `c`, `a|b`, `b|c`, with head
/// variables `head`: every other variable is existential.
pub fn label_chain_query(len: usize, head: &[&str], alphabet: &Alphabet) -> Ecrpq {
    const LANGS: [&str; 5] = ["a", "b", "c", "a|b", "b|c"];
    let mut builder = Ecrpq::builder(alphabet).head_nodes(head);
    for i in 0..len {
        let path = format!("p{i}");
        builder = builder.atom(&format!("x{i}"), &path, &format!("x{}", i + 1));
        builder = builder.language(&path, LANGS[i % LANGS.len()]);
    }
    builder.build().expect("chain queries are well-formed")
}

/// The repeated-path-variable CRPQ of Proposition 6.8:
/// `Ans() ← ⋀ (x, π, y_i), R_i(π)` — a single path variable must satisfy
/// all the counting languages simultaneously.
pub fn repetition_query(m: usize) -> (Ecrpq, GraphDb) {
    assert!(m <= PRIMES.len(), "repetition_query supports at most {} atoms", PRIMES.len());
    let g = generators::rei_gadget_graph(&["a", "b"]);
    let al = g.alphabet().clone();
    let mut builder = Ecrpq::builder(&al).bind_node("x", "v0");
    for (i, &prime) in PRIMES.iter().enumerate().take(m) {
        builder = builder.atom("x", "pi", &format!("y{i}"));
        let lang = count_a_mod_language(&al, prime);
        builder = builder.relation(
            RegularRelation::from_language(&lang).named(&format!("a_mod_{prime}")),
            &["pi"],
        );
    }
    (builder.build().expect("the intersection queries are well-formed"), g)
}
