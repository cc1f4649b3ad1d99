//! Shim crate hosting the workspace-level integration tests found in the
//! repository's top-level `tests/` directory and the `examples/` programs
//! (see the `[[test]]` / `[[example]]` entries in this crate's `Cargo.toml`).
//!
//! Besides the target entries, the crate provides [`prop`], a minimal
//! dependency-free property-testing helper used by `tests/properties.rs` in
//! place of `proptest` (the build environment is offline): seeded case
//! generation with shrink-free failure reporting; [`corpus`], the seeded
//! random textual-query generator shared by the parser round-trip suite and
//! the concurrency differential test; [`fig1`], the query and graph
//! builders of the paper's Figure 1 rows (pinned by `tests/fig1_shapes.rs`);
//! and [`oracle_heads`], the reference answers a projecting join is checked
//! against.

#![warn(missing_docs)]

use ecrpq::eval::{reference, EvalConfig};
use ecrpq::query::Ecrpq;
use ecrpq_graph::{GraphDb, NodeId};

pub mod fig1;

/// The distinct head-node tuples of `query` on `graph`, sorted, from the
/// reference engine in paths mode with no row cap to speak of. That run
/// enumerates full assignments and searches each one, so it checks a
/// nodes-mode run, whose join only asks whether existential variables have
/// a value, independently of that projection.
pub fn oracle_heads(query: &Ecrpq, graph: &GraphDb) -> Vec<Vec<NodeId>> {
    let cfg = EvalConfig { answer_limit: usize::MAX, ..EvalConfig::default() };
    let rows = reference::eval_with_paths(query, graph, &cfg).unwrap();
    let mut heads: Vec<Vec<NodeId>> = rows.into_iter().map(|a| a.nodes).collect();
    heads.sort();
    heads.dedup();
    heads
}

pub mod corpus {
    //! The seeded textual-query corpus: random well-formed ECRPQ texts over
    //! the alphabet `{a, b, c}`, used by `tests/parser_roundtrip.rs` (parse →
    //! Display → parse identity, fuzz smoke) and `tests/concurrency.rs`
    //! (multi-threaded evaluation against a single-threaded reference).

    use crate::prop::Gen;
    use ecrpq_automata::Alphabet;

    /// The alphabet every corpus query is written over.
    pub fn alphabet() -> Alphabet {
        Alphabet::from_labels(["a", "b", "c"])
    }

    const LANGS: [&str; 6] = ["a*", "(a|b)*", "a (a|b)*", "(a|b|c)* c", "a+ b*", ". .*"];
    const REL_NAMES: [&str; 7] = ["eq", "el", "prefix", "len_lt", "len_le", "hamming_le_1", "true"];
    const REL_REGEXES: [&str; 3] = ["(<a,a>|<b,b>)*", "<a,b>+", "<.,.>* <_,c>*"];

    /// Generates a random textual query: 1–3 atoms in a chain, a random mix
    /// of language atoms, relation atoms (named and regex), linear
    /// constraints, and node-constant bindings, with a random head.
    pub fn random_query_text(g: &mut Gen) -> String {
        let num_atoms = g.range(1, 3);
        let mut clauses: Vec<String> = Vec::new();
        let mut path_vars: Vec<String> = Vec::new();
        for i in 0..num_atoms {
            let p = format!("p{i}");
            clauses.push(format!("(x{i}, {p}, x{})", i + 1));
            path_vars.push(p);
        }
        // language atoms
        for p in &path_vars {
            if g.index(2) == 0 {
                clauses.push(format!("L({p}) = {}", LANGS[g.index(LANGS.len())]));
            }
        }
        // a relation atom over two paths (repeat the path var when only one)
        if g.index(2) == 0 {
            let p1 = &path_vars[g.index(path_vars.len())];
            let p2 = &path_vars[g.index(path_vars.len())];
            if g.index(2) == 0 {
                clauses.push(format!("R({p1}, {p2}) = {}", REL_NAMES[g.index(REL_NAMES.len())]));
            } else {
                clauses
                    .push(format!("R({p1}, {p2}) = {}", REL_REGEXES[g.index(REL_REGEXES.len())]));
            }
        }
        // linear constraints
        if g.index(2) == 0 {
            let p = &path_vars[g.index(path_vars.len())];
            let ops = [">=", "<=", "="];
            match g.index(3) {
                0 => clauses.push(format!("len({p}) {} {}", ops[g.index(3)], g.range(0, 5))),
                1 => clauses.push(format!(
                    "{}*count(a, {p}) {} {}",
                    g.range(2, 4),
                    ops[g.index(3)],
                    g.range(0, 5)
                )),
                _ => {
                    let q = &path_vars[g.index(path_vars.len())];
                    clauses.push(format!("len({p}) - len({q}) >= {}", g.range(0, 3)));
                }
            }
        }
        // a binding
        if g.index(3) == 0 {
            clauses.push(format!("x0 = :node{}", g.index(4)));
        }
        // head: random subset of node vars and path vars
        let mut head: Vec<String> = Vec::new();
        for i in 0..=num_atoms {
            if g.index(3) == 0 {
                head.push(format!("x{i}"));
            }
        }
        for p in &path_vars {
            if g.index(4) == 0 {
                head.push(p.clone());
            }
        }
        format!("Ans({}) <- {}", head.join(", "), clauses.join(", "))
    }

    /// Generates a random *constant-free* query text (no `:node` bindings),
    /// so evaluation needs no particular named graph nodes.
    pub fn random_constant_free_query_text(g: &mut Gen) -> String {
        loop {
            let text = random_query_text(g);
            if !text.contains(" = :") {
                return text;
            }
        }
    }
}

pub mod prop {
    //! Seeded random-case generation for property tests.
    //!
    //! [`check`] runs a property closure over `cases` deterministic inputs
    //! derived from a base seed. On failure it reports the failing case index
    //! and its per-case seed — there is no shrinking, but re-running a single
    //! case is cheap: `Gen::new(reported_seed)` reproduces it exactly.

    use ecrpq_graph::prng::SplitMix64;

    /// A deterministic source of random test data for one property case.
    pub struct Gen {
        rng: SplitMix64,
    }

    impl Gen {
        /// Creates a generator from a case seed.
        pub fn new(seed: u64) -> Self {
            Gen { rng: SplitMix64::seed_from_u64(seed) }
        }

        /// A uniform index in `0..bound` (`bound` must be nonzero).
        pub fn index(&mut self, bound: usize) -> usize {
            self.rng.gen_index(bound)
        }

        /// A uniform length in `0..=max`.
        pub fn len(&mut self, max: usize) -> usize {
            self.rng.gen_index(max + 1)
        }

        /// A uniform value in `lo..=hi`.
        pub fn range(&mut self, lo: usize, hi: usize) -> usize {
            assert!(lo <= hi);
            lo + self.rng.gen_index(hi - lo + 1)
        }

        /// Raw pseudorandom bits.
        pub fn u64(&mut self) -> u64 {
            self.rng.next_u64()
        }
    }

    /// Runs `property` over `cases` deterministic cases derived from
    /// `base_seed`. Panics (re-raising the property's panic) after printing
    /// the failing case index and its seed.
    pub fn check<F>(cases: usize, base_seed: u64, mut property: F)
    where
        F: FnMut(&mut Gen),
    {
        for case in 0..cases {
            // decorrelate case seeds through the same avalanche as the PRNG
            let case_seed =
                SplitMix64::seed_from_u64(base_seed.wrapping_add(case as u64)).next_u64();
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut gen = Gen::new(case_seed);
                property(&mut gen);
            }));
            if let Err(panic) = result {
                eprintln!(
                    "property failed at case {case}/{cases} (case seed {case_seed:#x}); \
                     reproduce with prop::Gen::new({case_seed:#x})"
                );
                std::panic::resume_unwind(panic);
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn check_is_deterministic() {
            let mut first: Vec<u64> = Vec::new();
            check(5, 42, |g| first.push(g.u64()));
            let mut second: Vec<u64> = Vec::new();
            check(5, 42, |g| second.push(g.u64()));
            assert_eq!(first, second);
        }

        #[test]
        fn gen_ranges_are_in_bounds() {
            check(20, 7, |g| {
                assert!(g.index(3) < 3);
                assert!(g.len(4) <= 4);
                let r = g.range(2, 5);
                assert!((2..=5).contains(&r));
            });
        }

        #[test]
        #[should_panic(expected = "property violated")]
        fn failures_propagate() {
            check(10, 1, |g| {
                let x = g.index(100);
                assert!(x < 101, "always true");
                if x > 10 {
                    panic!("property violated");
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::fig1::*;
    use ecrpq::eval::{self, EvalConfig};
    use ecrpq_automata::Alphabet;

    #[test]
    fn count_a_mod_language_counts() {
        let al = Alphabet::from_labels(["a", "b"]);
        let nfa = count_a_mod_language(&al, 3);
        let (a, b) = (al.sym("a"), al.sym("b"));
        assert!(!nfa.accepts(&[]));
        assert!(nfa.accepts(&[a, a, a]));
        assert!(nfa.accepts(&[a, a, a, a, a, a]));
        assert!(!nfa.accepts(&[a, a]));
        assert!(!nfa.accepts(&[a, b, a]));
    }

    #[test]
    fn rei_queries_are_satisfiable() {
        let cfg = EvalConfig::default();
        let (q, g) = rei_query(2, true);
        assert!(eval::eval_boolean(&q, &g, &cfg).unwrap());
        let (q, g) = rei_query(2, false);
        assert!(eval::eval_boolean(&q, &g, &cfg).unwrap());
        let (q, g) = repetition_query(2);
        assert!(eval::eval_boolean(&q, &g, &cfg).unwrap());
    }
}
