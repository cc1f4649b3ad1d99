//! Built-in regular relations used throughout the paper's examples: equality,
//! equal length, length comparison, prefix, ρ-isomorphism with respect to a
//! subproperty relation, synchronous morphisms, bounded Hamming distance, and
//! bounded edit distance (the latter built from a transducer in
//! [`crate::transducer`]).
//!
//! These constructors produce automata that only accept valid convolutions,
//! so they can be plugged into the evaluator without further normalization.

use crate::alphabet::{Alphabet, Symbol, TupleSym};
use crate::nfa::Nfa;
use crate::relation::{RegularRelation, TooLarge, RELATION_BUDGET};
use crate::transducer::edit_distance_transducer;
use std::collections::HashMap;

/// Helper: a letter `(x, y)` of `(Σ⊥)^2`.
fn pair(x: Option<Symbol>, y: Option<Symbol>) -> TupleSym {
    TupleSym::new(vec![x, y])
}

/// The binary equality relation `π1 = π2`.
pub fn equality(alphabet: &Alphabet) -> RegularRelation {
    let mut nfa = Nfa::new();
    let q = nfa.add_state();
    nfa.add_initial(q);
    nfa.set_accepting(q, true);
    for s in alphabet.symbols() {
        nfa.add_transition(q, pair(Some(s), Some(s)), q);
    }
    RegularRelation::from_nfa(2, nfa).named("eq")
}

/// The equal-length relation `el(π1, π2)`: `|π1| = |π2|`.
pub fn equal_length(alphabet: &Alphabet) -> RegularRelation {
    let mut nfa = Nfa::new();
    let q = nfa.add_state();
    nfa.add_initial(q);
    nfa.set_accepting(q, true);
    for s1 in alphabet.symbols() {
        for s2 in alphabet.symbols() {
            nfa.add_transition(q, pair(Some(s1), Some(s2)), q);
        }
    }
    RegularRelation::from_nfa(2, nfa).named("el")
}

/// The strict length comparison `|π1| < |π2|`.
pub fn length_less(alphabet: &Alphabet) -> RegularRelation {
    let mut nfa = Nfa::new();
    let both = nfa.add_state(); // both tapes still running
    let only2 = nfa.add_state(); // tape 1 finished, tape 2 still running
    nfa.add_initial(both);
    nfa.set_accepting(only2, true);
    for s2 in alphabet.symbols() {
        for s1 in alphabet.symbols() {
            nfa.add_transition(both, pair(Some(s1), Some(s2)), both);
        }
        nfa.add_transition(both, pair(None, Some(s2)), only2);
        nfa.add_transition(only2, pair(None, Some(s2)), only2);
    }
    RegularRelation::from_nfa(2, nfa).named("len_lt")
}

/// The non-strict length comparison `|π1| ≤ |π2|`.
pub fn length_leq(alphabet: &Alphabet) -> RegularRelation {
    equal_length(alphabet).union(&length_less(alphabet)).named("len_le")
}

/// The prefix relation `π1 ⪯ π2`.
pub fn prefix(alphabet: &Alphabet) -> RegularRelation {
    let mut nfa = Nfa::new();
    let matching = nfa.add_state();
    let trailing = nfa.add_state();
    nfa.add_initial(matching);
    nfa.set_accepting(matching, true);
    nfa.set_accepting(trailing, true);
    for s in alphabet.symbols() {
        nfa.add_transition(matching, pair(Some(s), Some(s)), matching);
    }
    for s in alphabet.symbols() {
        nfa.add_transition(matching, pair(None, Some(s)), trailing);
        nfa.add_transition(trailing, pair(None, Some(s)), trailing);
    }
    RegularRelation::from_nfa(2, nfa).named("prefix")
}

/// ρ-isomorphism (Anyanwu & Sheth, Section 4 of the paper): two property
/// sequences of equal length whose i-th properties are related by the
/// subproperty relation in either direction. `subproperty` lists the pairs
/// `(a, b)` with `a ≺ b`; if `reflexive` is true, identical labels also match
/// (every property is considered a subproperty of itself).
pub fn rho_isomorphism(
    alphabet: &Alphabet,
    subproperty: &[(Symbol, Symbol)],
    reflexive: bool,
) -> RegularRelation {
    let mut allowed: Vec<(Symbol, Symbol)> = Vec::new();
    for &(a, b) in subproperty {
        allowed.push((a, b));
        allowed.push((b, a));
    }
    if reflexive {
        for s in alphabet.symbols() {
            allowed.push((s, s));
        }
    }
    allowed.sort();
    allowed.dedup();
    let mut nfa = Nfa::new();
    let q = nfa.add_state();
    nfa.add_initial(q);
    nfa.set_accepting(q, true);
    for (a, b) in allowed {
        nfa.add_transition(q, pair(Some(a), Some(b)), q);
    }
    RegularRelation::from_nfa(2, nfa).named("rho_iso")
}

/// The synchronous transformation relation: `π2 = h(π1)` letter by letter,
/// for a map `h : Σ → Σ` given by `mapping` (labels missing from the map are
/// mapped to themselves).
pub fn morphism(alphabet: &Alphabet, mapping: &HashMap<Symbol, Symbol>) -> RegularRelation {
    let mut nfa = Nfa::new();
    let q = nfa.add_state();
    nfa.add_initial(q);
    nfa.set_accepting(q, true);
    for s in alphabet.symbols() {
        let target = mapping.get(&s).copied().unwrap_or(s);
        nfa.add_transition(q, pair(Some(s), Some(target)), q);
    }
    RegularRelation::from_nfa(2, nfa).named("morphism")
}

/// Bounded Hamming distance: equal-length words differing in at most `k`
/// positions. [`TooLarge`] if its `k + 1` states, `(k + 1)·|Σ|` matches and
/// `k·|Σ|·(|Σ| − 1)` substitutions pass the budget.
pub fn hamming_leq(alphabet: &Alphabet, k: usize) -> Result<RegularRelation, TooLarge> {
    let n = alphabet.len();
    within_budget(k, n, n.saturating_mul(n.saturating_sub(1)))?;
    let mut nfa = Nfa::new();
    let states = nfa.add_states(k + 1);
    nfa.add_initial(states[0]);
    for &q in &states {
        nfa.set_accepting(q, true);
    }
    for (d, &q) in states.iter().enumerate() {
        for s1 in alphabet.symbols() {
            for s2 in alphabet.symbols() {
                if s1 == s2 {
                    nfa.add_transition(q, pair(Some(s1), Some(s2)), q);
                } else if d < k {
                    nfa.add_transition(q, pair(Some(s1), Some(s2)), states[d + 1]);
                }
            }
        }
    }
    Ok(RegularRelation::from_nfa(2, nfa).named(&format!("hamming_le_{k}")))
}

/// Bounded edit distance `D≤k`: pairs of words at Levenshtein distance at
/// most `k` (insertions, deletions, substitutions). Built by synchronizing a
/// bounded-delay transducer (Frougny–Sakarovitch; Section 4 of the paper).
/// [`TooLarge`] if the transducer (`k + 1` states, `(k + 1)·|Σ|` matches and
/// `k·|Σ|·(|Σ| + 1)` edits) or the synchronized automaton passes the budget.
pub fn edit_distance_leq(alphabet: &Alphabet, k: usize) -> Result<RegularRelation, TooLarge> {
    let n = alphabet.len();
    within_budget(k, n, n.saturating_mul(n + 1))?;
    let nfa = edit_distance_transducer(alphabet, k).synchronize(k)?;
    Ok(RegularRelation::from_nfa(2, nfa).named(&format!("edit_le_{k}")))
}

/// Checks, before anything is allocated, the size (states plus
/// transitions) of an automaton with `k + 1` states that each have
/// `per_state` transitions, the first `k` of them `per_step` more. The
/// arithmetic saturates, so a huge `k` cannot wrap around the check.
fn within_budget(k: usize, per_state: usize, per_step: usize) -> Result<(), TooLarge> {
    let size = k
        .saturating_add(1)
        .saturating_mul(per_state + 1)
        .saturating_add(k.saturating_mul(per_step));
    if size > RELATION_BUDGET {
        return Err(TooLarge);
    }
    Ok(())
}

/// The universal binary relation (any pair of words). Useful for padding
/// queries and in tests.
pub fn universal(alphabet: &Alphabet) -> RegularRelation {
    let u = crate::relation::valid_convolutions(alphabet, 2);
    RegularRelation::from_nfa(2, u).named("true")
}

/// Reference implementation of Levenshtein distance (dynamic programming),
/// used by tests and property checks against [`edit_distance_leq`].
pub fn levenshtein(a: &[Symbol], b: &[Symbol]) -> usize {
    let (n, m) = (a.len(), b.len());
    let mut prev: Vec<usize> = (0..=m).collect();
    let mut cur = vec![0usize; m + 1];
    for i in 1..=n {
        cur[0] = i;
        for j in 1..=m {
            let cost = if a[i - 1] == b[j - 1] { 0 } else { 1 };
            cur[j] = (prev[j] + 1).min(cur[j - 1] + 1).min(prev[j - 1] + cost);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[m]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ab() -> Alphabet {
        Alphabet::from_labels(["a", "b"])
    }

    #[test]
    fn equality_relation() {
        let al = ab();
        let eq = equality(&al);
        let (a, b) = (al.sym("a"), al.sym("b"));
        assert!(eq.contains(&[&[a, b, b], &[a, b, b]]));
        assert!(!eq.contains(&[&[a, b], &[a, b, b]]));
        assert!(!eq.contains(&[&[a], &[b]]));
        assert!(eq.contains(&[&[], &[]]));
    }

    #[test]
    fn equal_length_relation() {
        let al = ab();
        let el = equal_length(&al);
        let (a, b) = (al.sym("a"), al.sym("b"));
        assert!(el.contains(&[&[a, a], &[b, b]]));
        assert!(!el.contains(&[&[a, a], &[b]]));
    }

    #[test]
    fn length_comparisons() {
        let al = ab();
        let lt = length_less(&al);
        let le = length_leq(&al);
        let (a, b) = (al.sym("a"), al.sym("b"));
        assert!(lt.contains(&[&[a], &[b, b]]));
        assert!(!lt.contains(&[&[a, a], &[b, b]]));
        assert!(!lt.contains(&[&[a, a], &[b]]));
        assert!(le.contains(&[&[a, a], &[b, b]]));
        assert!(le.contains(&[&[a], &[b, b]]));
        assert!(!le.contains(&[&[a, a, a], &[b, b]]));
        // empty word edge cases
        assert!(lt.contains(&[&[], &[b]]));
        assert!(!lt.contains(&[&[], &[]]));
        assert!(le.contains(&[&[], &[]]));
    }

    #[test]
    fn prefix_relation() {
        let al = ab();
        let p = prefix(&al);
        let (a, b) = (al.sym("a"), al.sym("b"));
        assert!(p.contains(&[&[a, b], &[a, b, a]]));
        assert!(p.contains(&[&[], &[a]]));
        assert!(p.contains(&[&[a, b], &[a, b]]));
        assert!(!p.contains(&[&[b], &[a, b]]));
        assert!(!p.contains(&[&[a, b, a], &[a, b]]));
    }

    #[test]
    fn rho_isomorphism_relation() {
        let mut al = Alphabet::new();
        let worked_with = al.intern("workedWith");
        let collaborated = al.intern("collaborated");
        let likes = al.intern("likes");
        let rel = rho_isomorphism(&al, &[(worked_with, collaborated)], true);
        assert!(rel.contains(&[&[worked_with, likes], &[collaborated, likes]]));
        assert!(rel.contains(&[&[collaborated], &[worked_with]]));
        assert!(!rel.contains(&[&[likes], &[worked_with]]));
        assert!(!rel.contains(&[&[worked_with], &[collaborated, likes]]));
    }

    #[test]
    fn morphism_relation() {
        let al = ab();
        let (a, b) = (al.sym("a"), al.sym("b"));
        let mut map = HashMap::new();
        map.insert(a, b);
        map.insert(b, a);
        let h = morphism(&al, &map);
        assert!(h.contains(&[&[a, b, a], &[b, a, b]]));
        assert!(!h.contains(&[&[a, b], &[a, b]]));
    }

    #[test]
    fn hamming_relation() {
        let al = ab();
        let (a, b) = (al.sym("a"), al.sym("b"));
        let h1 = hamming_leq(&al, 1).unwrap();
        assert!(h1.contains(&[&[a, b, a], &[a, b, a]]));
        assert!(h1.contains(&[&[a, b, a], &[a, a, a]]));
        assert!(!h1.contains(&[&[a, b, a], &[b, a, a]]));
        assert!(!h1.contains(&[&[a, b], &[a, b, a]])); // unequal length
    }

    #[test]
    fn edit_distance_relation_matches_levenshtein() {
        let al = ab();
        let (a, b) = (al.sym("a"), al.sym("b"));
        let words: Vec<Vec<Symbol>> = vec![
            vec![],
            vec![a],
            vec![b],
            vec![a, b],
            vec![b, a],
            vec![a, a, b],
            vec![a, b, a],
            vec![b, b, a, a],
        ];
        for k in 0..=2 {
            let rel = edit_distance_leq(&al, k).unwrap();
            for x in &words {
                for y in &words {
                    let expected = levenshtein(x, y) <= k;
                    assert_eq!(rel.contains(&[x, y]), expected, "k={k}, x={x:?}, y={y:?}");
                }
            }
        }
    }

    #[test]
    fn universal_relation_accepts_everything() {
        let al = ab();
        let u = universal(&al);
        let (a, b) = (al.sym("a"), al.sym("b"));
        assert!(u.contains(&[&[a, a, a], &[b]]));
        assert!(u.contains(&[&[], &[]]));
        assert!(u.contains(&[&[], &[b, b]]));
    }
}
