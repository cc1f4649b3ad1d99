//! Expressiveness tools (Proposition 3.2 and the pattern-matching application
//! of Section 4).
//!
//! * [`StringsOracle`] implements the construction in the proof of
//!   Proposition 3.2: for a CRPQ `Q` with head `Ans(x, y)`, the set
//!   `strings(Q) = { s | (v0, v|s|) ∈ Q(G_s) }` of strings on whose string
//!   graph `Q` connects the endpoints is regular, and an NFA for it can be
//!   built from `Q`. Combined with the pumping lemma this is how the paper
//!   separates ECRPQs from CRPQs (the ECRPQ answering `a^m b^m` has a
//!   non-regular strings set).
//! * [`pattern_to_ecrpq`] compiles a *pattern* — a word over `Σ ∪ V` with
//!   repeated variables, e.g. `aXbX` — into an ECRPQ that finds node pairs
//!   connected by a path whose label belongs to the pattern language, exactly
//!   as described in Section 4.

use crate::error::QueryError;
use crate::query::Ecrpq;
use ecrpq_automata::alphabet::{Alphabet, Symbol};
use ecrpq_automata::builtin;
use ecrpq_automata::nfa::Nfa;
use ecrpq_graph::generators::string_graph;
use ecrpq_graph::GraphDb;

/// One element of a pattern: a terminal letter of Σ or a variable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PatternItem {
    /// A terminal edge label.
    Terminal(String),
    /// A pattern variable; equal variables must be substituted by equal words.
    Variable(String),
}

/// Parses a compact pattern string: lowercase letters (and digits) are
/// terminals, uppercase letters are variables. Example: `"aXbX"`.
pub fn parse_pattern(pattern: &str) -> Vec<PatternItem> {
    pattern
        .chars()
        .map(|c| {
            if c.is_ascii_uppercase() {
                PatternItem::Variable(c.to_string())
            } else {
                PatternItem::Terminal(c.to_string())
            }
        })
        .collect()
}

/// Compiles a pattern into an ECRPQ `Q_α(x, y)` finding node pairs connected
/// by a path whose label is in the pattern language `L_Σ(α)` (Section 4).
pub fn pattern_to_ecrpq(pattern: &[PatternItem], alphabet: &Alphabet) -> Result<Ecrpq, QueryError> {
    if pattern.is_empty() {
        return Err(QueryError::Unsupported("empty patterns are not supported".to_string()));
    }
    let mut builder = Ecrpq::builder(alphabet).head_nodes(&["x0", &format!("x{}", pattern.len())]);
    // Relational chain (x0, π1, x1), …, (x_{n-1}, π_n, x_n).
    for i in 0..pattern.len() {
        let from = format!("x{i}");
        let to = format!("x{}", i + 1);
        let path = format!("pi{}", i + 1);
        builder = builder.atom(&from, &path, &to);
    }
    // Per-item constraints.
    let mut first_occurrence: std::collections::HashMap<&str, usize> =
        std::collections::HashMap::new();
    for (i, item) in pattern.iter().enumerate() {
        let path = format!("pi{}", i + 1);
        match item {
            PatternItem::Terminal(t) => {
                builder = builder.language(&path, t);
            }
            PatternItem::Variable(v) => {
                match first_occurrence.get(v.as_str()) {
                    None => {
                        first_occurrence.insert(v, i);
                        // unconstrained: any word in Σ*
                        builder = builder.language(&path, ".*");
                    }
                    Some(&j) => {
                        let other = format!("pi{}", j + 1);
                        builder = builder.relation(builtin::equality(alphabet), &[&other, &path]);
                    }
                }
            }
        }
    }
    builder.build()
}

/// The construction from the proof of Proposition 3.2: an NFA accepting
/// `strings(Q)` for a CRPQ `Q` whose head is `Ans(x, y)` with `x` the source
/// and `y` the target of the string graph.
///
/// The implementation takes a semantic route that is equivalent for CRPQs and
/// reuses the evaluator: the returned value is a closure-backed *oracle*
/// together with a helper that checks membership of concrete strings by
/// evaluating `Q` over the string graph `G_s`. For the regularity statement
/// itself, [`strings_nfa_for_single_atom`] builds the NFA explicitly for the
/// common single-atom case `Ans(x, y) ← (x, π, y), L(π)` (where
/// `strings(Q) = L`), which the tests cross-check against the oracle.
pub struct StringsOracle<'a> {
    query: &'a Ecrpq,
    config: crate::eval::EvalConfig,
}

impl<'a> StringsOracle<'a> {
    /// Creates the oracle. The query must have exactly two head node
    /// variables and no head path variables.
    pub fn new(query: &'a Ecrpq) -> Result<Self, QueryError> {
        if query.head_nodes.len() != 2 || !query.head_paths.is_empty() {
            return Err(QueryError::Unsupported(
                "strings(Q) is defined for queries with head Ans(x, y)".to_string(),
            ));
        }
        Ok(StringsOracle { query, config: crate::eval::EvalConfig::default() })
    }

    /// Does the string (given as a sequence of labels) belong to `strings(Q)`?
    pub fn contains(&self, word: &[&str]) -> Result<bool, QueryError> {
        if word.is_empty() {
            return Err(QueryError::Unsupported(
                "strings(Q) is defined for non-empty strings (Σ+)".to_string(),
            ));
        }
        let (graph, first, last) = string_graph(word);
        let answers = crate::eval::eval_nodes(self.query, &graph, &self.config)?;
        Ok(answers.contains(&vec![first, last]))
    }

    /// Evaluates the query over an arbitrary graph (convenience passthrough).
    pub fn eval(&self, graph: &GraphDb) -> Result<Vec<Vec<ecrpq_graph::NodeId>>, QueryError> {
        crate::eval::eval_nodes(self.query, graph, &self.config)
    }
}

/// Explicit `strings(Q)` NFA for single-atom CRPQs
/// `Ans(x, y) ← (x, π, y), L1(π), …, Lt(π)`: the intersection of the `Li`.
pub fn strings_nfa_for_single_atom(query: &Ecrpq) -> Result<Nfa<Symbol>, QueryError> {
    if query.atoms.len() != 1 || !query.is_crpq() {
        return Err(QueryError::Unsupported(
            "strings_nfa_for_single_atom requires a single-atom CRPQ".to_string(),
        ));
    }
    let mut lang: Option<Nfa<Symbol>> = None;
    for r in &query.relations {
        let proj = r.relation.project(0);
        lang = Some(match lang {
            None => proj.as_ref().clone(),
            Some(l) => l.intersect(&proj).trim(),
        });
    }
    Ok(lang.unwrap_or_else(|| {
        // unconstrained: Σ*
        let mut nfa = Nfa::new();
        let q = nfa.add_state();
        nfa.add_initial(q);
        nfa.set_accepting(q, true);
        for s in query.alphabet.symbols() {
            nfa.add_transition(q, s, q);
        }
        nfa
    }))
}

/// The separating ECRPQ of Proposition 3.2: `Ans(x, y)` holds iff `x` and `y`
/// are connected by a path labeled `a^m b^m` for some `m > 0`. Its
/// `strings(Q)` set is not regular, which is how the paper proves that no
/// CRPQ is equivalent to it.
pub fn anbn_query(alphabet: &Alphabet) -> Result<Ecrpq, QueryError> {
    Ecrpq::builder(alphabet)
        .head_nodes(&["x", "y"])
        .atom("x", "p1", "z")
        .atom("z", "p2", "y")
        .language("p1", "a+")
        .language("p2", "b+")
        .relation(builtin::equal_length(alphabet), &["p1", "p2"])
        .build()
}

/// The `a^n b^n c^n` ECRPQ from Section 4 (a language that is not even
/// context-free, let alone expressible by patterns).
pub fn anbncn_query(alphabet: &Alphabet) -> Result<Ecrpq, QueryError> {
    Ecrpq::builder(alphabet)
        .head_nodes(&["x", "y"])
        .atom("x", "p1", "z1")
        .atom("z1", "p2", "z2")
        .atom("z2", "p3", "y")
        .language("p1", "a*")
        .language("p2", "b*")
        .language("p3", "c*")
        .relation(builtin::equal_length(alphabet), &["p1", "p2"])
        .relation(builtin::equal_length(alphabet), &["p2", "p3"])
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecrpq_automata::Alphabet;

    #[test]
    fn anbn_oracle_accepts_exactly_anbn() {
        let al = Alphabet::from_labels(["a", "b"]);
        let q = anbn_query(&al).unwrap();
        let oracle = StringsOracle::new(&q).unwrap();
        assert!(oracle.contains(&["a", "b"]).unwrap());
        assert!(oracle.contains(&["a", "a", "b", "b"]).unwrap());
        assert!(!oracle.contains(&["a", "a", "b"]).unwrap());
        assert!(!oracle.contains(&["b", "a"]).unwrap());
        assert!(!oracle.contains(&["a"]).unwrap());
    }

    #[test]
    fn anbncn_oracle() {
        let al = Alphabet::from_labels(["a", "b", "c"]);
        let q = anbncn_query(&al).unwrap();
        let oracle = StringsOracle::new(&q).unwrap();
        assert!(oracle.contains(&["a", "b", "c"]).unwrap());
        assert!(oracle.contains(&["a", "a", "b", "b", "c", "c"]).unwrap());
        assert!(!oracle.contains(&["a", "b", "b", "c"]).unwrap());
        assert!(!oracle.contains(&["a", "b", "c", "c"]).unwrap());
    }

    #[test]
    fn pattern_compilation_squares() {
        // Pattern XX: squared strings w·w.
        let al = Alphabet::from_labels(["a", "b"]);
        let pattern = parse_pattern("XX");
        let q = pattern_to_ecrpq(&pattern, &al).unwrap();
        let oracle = StringsOracle::new(&q).unwrap();
        assert!(oracle.contains(&["a", "b", "a", "b"]).unwrap());
        assert!(oracle.contains(&["a", "a"]).unwrap());
        assert!(!oracle.contains(&["a", "b", "b", "a"]).unwrap());
        assert!(!oracle.contains(&["a", "b", "a"]).unwrap());
    }

    #[test]
    fn pattern_compilation_axbx() {
        // Pattern aXbX from the introduction: strings a·w·b·w.
        let al = Alphabet::from_labels(["a", "b"]);
        let pattern = parse_pattern("aXbX");
        let q = pattern_to_ecrpq(&pattern, &al).unwrap();
        let oracle = StringsOracle::new(&q).unwrap();
        assert!(oracle.contains(&["a", "a", "b", "a"]).unwrap());
        assert!(oracle.contains(&["a", "a", "b", "b", "a", "b"]).unwrap()); // X = ab
        assert!(!oracle.contains(&["a", "a", "b", "b"]).unwrap());
        assert!(!oracle.contains(&["b", "a", "b", "a"]).unwrap());
    }

    #[test]
    fn single_atom_strings_nfa_matches_oracle() {
        let al = Alphabet::from_labels(["a", "b"]);
        let q = Ecrpq::builder(&al)
            .head_nodes(&["x", "y"])
            .atom("x", "p", "y")
            .language("p", "a (a|b)* b")
            .build()
            .unwrap();
        let nfa = strings_nfa_for_single_atom(&q).unwrap();
        let oracle = StringsOracle::new(&q).unwrap();
        let words: Vec<Vec<&str>> = vec![
            vec!["a", "b"],
            vec!["a", "a", "b"],
            vec!["a", "b", "a"],
            vec!["b", "a"],
            vec!["a"],
        ];
        for w in words {
            let syms: Vec<Symbol> = w.iter().map(|l| al.sym(l)).collect();
            assert_eq!(nfa.accepts(&syms), oracle.contains(&w).unwrap(), "disagreement on {w:?}");
        }
    }

    #[test]
    fn parse_pattern_shapes() {
        let p = parse_pattern("aXbY");
        assert_eq!(p.len(), 4);
        assert_eq!(p[0], PatternItem::Terminal("a".to_string()));
        assert_eq!(p[1], PatternItem::Variable("X".to_string()));
        assert!(pattern_to_ecrpq(&[], &Alphabet::from_labels(["a"])).is_err());
    }
}
