//! Regular relations on words: n-ary relations recognized by synchronous
//! (letter-to-letter) automata over the product alphabet `(Σ⊥)^n`.
//!
//! Following Section 2 of the paper, an n-ary relation `S ⊆ (Σ*)^n` is
//! *regular* if the set of convolutions `{[s̄] | s̄ ∈ S}` is a regular
//! language over `(Σ⊥)^n`. A [`RegularRelation`] wraps such an automaton
//! together with its arity and provides the operations the query evaluator
//! needs: membership of word tuples, per-tape projection (used for the CRPQ
//! relaxation that prunes candidate node assignments), intersection, union,
//! complement relative to the valid-convolution universe, and padding
//! normalization.

use crate::alphabet::{convolution, product_alphabet, Alphabet, Symbol, TupleSym};
use crate::dfa::{self, complement_nfa};
use crate::nfa::{Nfa, StateId};
use crate::regex::{Regex, RegexError};
use crate::sim::CompactNfa;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// The most states plus transitions a built-in relation's construction may
/// produce: the transducer it is synchronized from, or the synchronized
/// automaton before it is trimmed to co-reachable states. Bounded edit and
/// Hamming distance grow with `k` (edit distance as |Σ|^O(k)), and a query
/// names any `k`, so construction stops with [`TooLarge`] at this size
/// instead of running for minutes or allocating until the process dies.
/// `edit_le_3` over four labels fits: its synchronization finds 67,794
/// states and 6,106,968 transitions, and keeps 28,330 and 2,359,504.
pub const RELATION_BUDGET: usize = 1 << 23;

/// A relation whose automaton would pass [`RELATION_BUDGET`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TooLarge;

impl fmt::Display for TooLarge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "its automaton passes the budget of {RELATION_BUDGET} states and transitions")
    }
}

impl std::error::Error for TooLarge {}

/// An n-ary regular relation over Σ, represented by a synchronous automaton
/// over `(Σ⊥)^n`.
///
/// The automaton is reference-counted so that compiling the same query (or
/// the same relation into several queries) shares one copy instead of
/// deep-cloning a transition list whose every label owns a heap-allocated
/// tuple. Per-tape projections are memoized for the same reason: the query
/// compiler projects each relation once per evaluation. `Arc`/`OnceLock`
/// keep the type `Send`/`Sync`, so relations and queries can be built on
/// one thread and evaluated on another.
#[derive(Clone, Debug)]
pub struct RegularRelation {
    arity: usize,
    nfa: Arc<Nfa<TupleSym>>,
    /// Optional human-readable name (used when pretty-printing queries).
    name: Option<String>,
    /// Memoized per-tape projections (index = tape), shared across clones.
    projections: Arc<Vec<OnceLock<Arc<Nfa<Symbol>>>>>,
    /// Memoized compiled form of the relation automaton, shared across
    /// clones: preparing the same relation into several queries (or the same
    /// prepared query against several graphs) compiles it exactly once.
    sim: Arc<OnceLock<Arc<CompactNfa<TupleSym>>>>,
    /// Memoized compiled forms of the per-tape projections (the
    /// unary constraints the reachability pass runs), shared across clones.
    projection_sims: Arc<Vec<OnceLock<Arc<CompactNfa<Symbol>>>>>,
    /// Memoized largest component-symbol index over all transition letters
    /// (`None` if the automaton reads nothing). The query compiler sizes its
    /// tuple-code radix with this; memoizing keeps repeated one-shot
    /// compilations of large automata from rescanning every transition.
    max_symbol: Arc<OnceLock<Option<u32>>>,
}

impl RegularRelation {
    fn new(arity: usize, nfa: Nfa<TupleSym>, name: Option<String>) -> Self {
        RegularRelation {
            arity,
            nfa: Arc::new(nfa),
            name,
            projections: Arc::new((0..arity).map(|_| OnceLock::new()).collect()),
            sim: Arc::new(OnceLock::new()),
            projection_sims: Arc::new((0..arity).map(|_| OnceLock::new()).collect()),
            max_symbol: Arc::new(OnceLock::new()),
        }
    }

    /// Wraps an existing automaton over `(Σ⊥)^arity`.
    pub fn from_nfa(arity: usize, nfa: Nfa<TupleSym>) -> Self {
        RegularRelation::new(arity, nfa, None)
    }

    /// Compiles a regular expression over tuple atoms (see
    /// [`Regex::compile_relation`]) into a relation.
    pub fn from_regex(expr: &str, alphabet: &Alphabet, arity: usize) -> Result<Self, RegexError> {
        let regex = Regex::parse(expr)?;
        let nfa = regex.compile_relation(alphabet, arity)?;
        Ok(RegularRelation::new(arity, nfa, Some(expr.to_string())))
    }

    /// Lifts a regular language over Σ into an arity-1 regular relation (a
    /// CRPQ language atom).
    pub fn from_language(nfa: &Nfa<Symbol>) -> Self {
        let lifted = nfa.map_symbols(|&s| Some(TupleSym::new(vec![Some(s)])));
        RegularRelation::new(1, lifted, None)
    }

    /// Attaches a human-readable name.
    pub fn named(mut self, name: &str) -> Self {
        self.name = Some(name.to_string());
        self
    }

    /// The relation's name, if any.
    pub fn name(&self) -> Option<&str> {
        self.name.as_deref()
    }

    /// Arity (number of tapes).
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The underlying synchronous automaton.
    pub fn nfa(&self) -> &Nfa<TupleSym> {
        &self.nfa
    }

    /// The underlying synchronous automaton as a shared handle (O(1), no
    /// transition cloning). This is what the query compiler stores.
    pub fn nfa_shared(&self) -> Arc<Nfa<TupleSym>> {
        Arc::clone(&self.nfa)
    }

    /// Number of automaton states (used in complexity reporting).
    pub fn num_states(&self) -> usize {
        self.nfa.num_states()
    }

    /// Tests membership of a tuple of words in the relation.
    pub fn contains(&self, words: &[&[Symbol]]) -> bool {
        assert_eq!(words.len(), self.arity, "tuple arity mismatch");
        let conv = convolution(words);
        self.nfa.accepts(&conv)
    }

    /// Projects the relation onto tape `i`: the regular language
    /// `{ s_i | (s_1,…,s_n) ∈ S }`. Padding symbols become ε-transitions.
    /// The result is memoized, so repeated query compilations share it.
    pub fn project(&self, tape: usize) -> Arc<Nfa<Symbol>> {
        assert!(tape < self.arity);
        let cached =
            self.projections[tape].get_or_init(|| Arc::new(self.nfa.map_symbols(|t| t.get(tape))));
        Arc::clone(cached)
    }

    /// The relation automaton compiled for simulation, memoized
    /// behind the shared handle: every clone of this relation (every query it
    /// is prepared into, every graph a prepared query is bound to) reuses one
    /// compilation.
    pub fn compiled_sim(&self) -> Arc<CompactNfa<TupleSym>> {
        // Minimize before compiling: fewer states mean fewer distinct state
        // sets for the product search to intern.
        Arc::clone(
            self.sim
                .get_or_init(|| Arc::new(CompactNfa::compile(&dfa::reduce_for_tables(&self.nfa)))),
        )
    }

    /// True if [`compiled_sim`](Self::compiled_sim) has already been built
    /// (used by the evaluator's cache-hit counters).
    pub fn compiled_sim_is_cached(&self) -> bool {
        self.sim.get().is_some()
    }

    /// The tape-`i` projection compiled for simulation,
    /// memoized like [`compiled_sim`](Self::compiled_sim). This is what the
    /// reachability pass of the evaluator runs, so caching it here shares the
    /// compiled unary constraint across every evaluation of the relation.
    pub fn projection_sim(&self, tape: usize) -> Arc<CompactNfa<Symbol>> {
        assert!(tape < self.arity);
        let cached = self.projection_sims[tape].get_or_init(|| {
            Arc::new(CompactNfa::compile(&dfa::reduce_for_tables(&self.project(tape))))
        });
        Arc::clone(cached)
    }

    /// True if [`projection_sim`](Self::projection_sim) for `tape` has
    /// already been built.
    pub fn projection_sim_is_cached(&self, tape: usize) -> bool {
        assert!(tape < self.arity);
        self.projection_sims[tape].get().is_some()
    }

    /// The largest component-symbol index read by any transition letter
    /// (`None` when the automaton reads no symbols at all). Memoized behind
    /// the shared handle; the scan itself allocates nothing.
    pub fn max_symbol_index(&self) -> Option<u32> {
        *self.max_symbol.get_or_init(|| {
            let mut max: Option<u32> = None;
            for q in 0..self.nfa.num_states() as StateId {
                for (t, _) in self.nfa.transitions_from(q) {
                    for i in 0..t.arity() {
                        if let Some(s) = t.get(i) {
                            max = Some(max.map_or(s.0, |m| m.max(s.0)));
                        }
                    }
                }
            }
            max
        })
    }

    /// Projects the relation onto a subset of its tapes (in the given order),
    /// yielding a relation of smaller arity. Letters whose restriction is
    /// all-`⊥` become ε-transitions.
    pub fn project_tapes(&self, tapes: &[usize]) -> RegularRelation {
        for &t in tapes {
            assert!(t < self.arity);
        }
        let nfa = self.nfa.map_symbols(|sym| {
            let restricted = sym.restrict(tapes);
            if restricted.is_all_pad() {
                None
            } else {
                Some(restricted)
            }
        });
        RegularRelation::new(tapes.len(), nfa, None)
    }

    /// Intersection with another relation of the same arity.
    pub fn intersect(&self, other: &RegularRelation) -> RegularRelation {
        assert_eq!(self.arity, other.arity, "arity mismatch in intersection");
        RegularRelation::new(self.arity, self.nfa.intersect(&other.nfa), None)
    }

    /// Union with another relation of the same arity.
    pub fn union(&self, other: &RegularRelation) -> RegularRelation {
        assert_eq!(self.arity, other.arity, "arity mismatch in union");
        RegularRelation::new(self.arity, self.nfa.union(&other.nfa), None)
    }

    /// Complement relative to the set of *valid convolutions* over the given
    /// alphabet (i.e. `(Σ*)^n \ S`). Exponential in general (determinizes).
    pub fn complement(&self, alphabet: &Alphabet) -> RegularRelation {
        let letters = product_alphabet(alphabet, self.arity);
        let comp = complement_nfa(&self.nfa, &letters);
        let universe = valid_convolutions(alphabet, self.arity);
        RegularRelation::new(self.arity, comp.intersect(&universe), None)
    }

    /// Normalizes the relation so that its automaton only accepts valid
    /// convolutions (no real symbol after `⊥` on any tape, no all-`⊥`
    /// letter). Built-in relations are already normalized; this is applied to
    /// user-supplied relation regexes by the query validator.
    pub fn normalize_padding(&self, alphabet: &Alphabet) -> RegularRelation {
        let universe = valid_convolutions(alphabet, self.arity);
        RegularRelation::new(self.arity, self.nfa.intersect(&universe).trim(), self.name.clone())
    }

    /// True if the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.nfa.is_empty()
    }

    /// Enumerates up to `limit` member tuples whose convolution length is at
    /// most `max_len` (used by the containment checker's canonical-database
    /// search and by tests).
    pub fn enumerate_members(&self, max_len: usize, limit: usize) -> Vec<Vec<Vec<Symbol>>> {
        let words = self.nfa.enumerate_words(max_len, limit * 4);
        let mut out = Vec::new();
        for w in words {
            if let Some(tuple) = crate::alphabet::deconvolution(&w, self.arity) {
                out.push(tuple);
                if out.len() >= limit {
                    break;
                }
            }
        }
        out
    }
}

/// The universe of valid convolutions over `(Σ⊥)^n`: strings in which no
/// real symbol follows `⊥` on the same tape and the all-`⊥` letter never
/// occurs. States track the set of tapes that have already ended.
pub fn valid_convolutions(alphabet: &Alphabet, arity: usize) -> Nfa<TupleSym> {
    assert!(arity <= 16, "valid_convolutions supports arity up to 16");
    let letters = product_alphabet(alphabet, arity);
    let mut nfa: Nfa<TupleSym> = Nfa::new();
    let num_masks = 1usize << arity;
    let states: Vec<StateId> = nfa.add_states(num_masks);
    for (mask, &q) in states.iter().enumerate() {
        nfa.set_accepting(q, true);
        for letter in &letters {
            // A tape that has ended (bit set) must read ⊥.
            let mut ok = true;
            let mut new_mask = mask;
            for i in 0..arity {
                match letter.get(i) {
                    Some(_) => {
                        if mask & (1 << i) != 0 {
                            ok = false;
                            break;
                        }
                    }
                    None => new_mask |= 1 << i,
                }
            }
            if ok {
                nfa.add_transition(q, letter.clone(), states[new_mask]);
            }
        }
    }
    nfa.add_initial(states[0]);
    nfa
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ab() -> Alphabet {
        Alphabet::from_labels(["a", "b"])
    }

    #[test]
    fn relation_from_regex_membership() {
        let al = ab();
        // equality over {a,b}
        let eq = RegularRelation::from_regex("(<a,a>|<b,b>)*", &al, 2).unwrap();
        let (a, b) = (al.sym("a"), al.sym("b"));
        assert!(eq.contains(&[&[a, b, a], &[a, b, a]]));
        assert!(!eq.contains(&[&[a, b], &[a, b, a]]));
        assert!(!eq.contains(&[&[a, b, a], &[a, b, b]]));
        assert!(eq.contains(&[&[], &[]]));
    }

    #[test]
    fn projection_gives_component_language() {
        let al = ab();
        // relation: first tape in a+, second tape in b+, equal length
        let rel = RegularRelation::from_regex("<a,b>+", &al, 2).unwrap();
        let p0 = rel.project(0);
        let p1 = rel.project(1);
        let (a, b) = (al.sym("a"), al.sym("b"));
        assert!(p0.accepts(&[a, a]));
        assert!(!p0.accepts(&[a, b]));
        assert!(p1.accepts(&[b, b, b]));
        assert!(!p1.accepts(&[]));
    }

    #[test]
    fn project_tapes_reorders_and_drops() {
        let al = ab();
        // ternary relation: all three tapes read `a` in lockstep
        let rel = RegularRelation::from_regex("<a,a,a>*", &al, 3).unwrap();
        let pair = rel.project_tapes(&[2, 0]);
        let a = al.sym("a");
        assert_eq!(pair.arity(), 2);
        assert!(pair.contains(&[&[a, a], &[a, a]]));
        assert!(!pair.contains(&[&[a], &[a, a]]));
    }

    #[test]
    fn intersect_union_complement() {
        let al = ab();
        let eq = RegularRelation::from_regex("(<a,a>|<b,b>)*", &al, 2).unwrap();
        let el = RegularRelation::from_regex("<.,.>*", &al, 2).unwrap();
        let (a, b) = (al.sym("a"), al.sym("b"));
        // eq ⊆ el, so intersection behaves like eq
        let inter = eq.intersect(&el);
        assert!(inter.contains(&[&[a, b], &[a, b]]));
        assert!(!inter.contains(&[&[a, b], &[b, a]]));
        let uni = eq.union(&el);
        assert!(uni.contains(&[&[a, b], &[b, a]]));
        // complement of el: pairs of different length
        let comp = el.complement(&al);
        assert!(comp.contains(&[&[a], &[a, b]]));
        assert!(!comp.contains(&[&[a, b], &[b, a]]));
    }

    #[test]
    fn valid_convolution_universe() {
        let al = ab();
        let u = valid_convolutions(&al, 2);
        let (a, b) = (al.sym("a"), al.sym("b"));
        let good = convolution(&[&[a][..], &[a, b][..]]);
        assert!(u.accepts(&good));
        // invalid: real symbol after ⊥ on tape 0
        let bad = vec![TupleSym::new(vec![None, Some(b)]), TupleSym::new(vec![Some(a), Some(b)])];
        assert!(!u.accepts(&bad));
    }

    #[test]
    fn normalize_padding_removes_invalid_words() {
        let al = ab();
        // A sloppy relation regex that would accept an invalid padding:
        // <⊥,b> followed by <a,b>.
        let sloppy = RegularRelation::from_regex("<_,b> <a,b>", &al, 2).unwrap();
        let bad_word = vec![
            TupleSym::new(vec![None, Some(al.sym("b"))]),
            TupleSym::new(vec![Some(al.sym("a")), Some(al.sym("b"))]),
        ];
        assert!(sloppy.nfa().accepts(&bad_word));
        let normalized = sloppy.normalize_padding(&al);
        assert!(!normalized.nfa().accepts(&bad_word));
        assert!(normalized.is_empty());
    }

    #[test]
    fn compiled_sim_is_memoized_across_clones() {
        let al = ab();
        let eq = RegularRelation::from_regex("(<a,a>|<b,b>)*", &al, 2).unwrap();
        assert!(!eq.compiled_sim_is_cached());
        assert!(!eq.projection_sim_is_cached(0));
        let clone = eq.clone();
        let sim = eq.compiled_sim();
        // The clone sees the same compilation (shared cache, same allocation).
        assert!(clone.compiled_sim_is_cached());
        assert!(Arc::ptr_eq(&sim, &clone.compiled_sim()));
        let p0 = clone.projection_sim(0);
        assert!(eq.projection_sim_is_cached(0));
        assert!(!eq.projection_sim_is_cached(1));
        assert!(Arc::ptr_eq(&p0, &eq.projection_sim(0)));
        // The compiled tables simulate the same language.
        let (a, b) = (al.sym("a"), al.sym("b"));
        let conv = convolution(&[&[a, b][..], &[a, b][..]]);
        assert!(sim.accepts(&conv));
        assert!(p0.accepts(&[a, b]));
    }

    #[test]
    fn enumerate_members_produces_tuples() {
        let al = ab();
        let eq = RegularRelation::from_regex("(<a,a>|<b,b>)*", &al, 2).unwrap();
        let members = eq.enumerate_members(2, 10);
        assert!(members.iter().any(|t| t[0].is_empty() && t[1].is_empty()));
        for t in &members {
            assert_eq!(t[0], t[1]);
        }
    }
}
