//! Compiled NFA simulation: ε-closed successor lists and interned state
//! sets.
//!
//! [`Nfa::step`](crate::nfa::Nfa::step) rescans every outgoing transition of
//! every current state, re-sorts the successor list, and recomputes the
//! ε-closure on each call. That is fine for one-shot acceptance checks, but
//! the convolution search of the ECRPQ evaluator performs millions of steps
//! over the *same* automaton. [`CompactNfa`] moves all of that work to
//! compile time: symbols are interned to dense ids, and for every
//! `(state, symbol)` pair it stores the sorted ε-closed successor list, all
//! lists in one CSR pair. Compiling costs time and memory linear in those
//! lists, so any automaton compiles, whatever its size.
//!
//! State *sets* are determinized only as far as a run goes: a [`SetTable`]
//! interns each set the run reaches once, as a `u32` id, and memoises
//! `(set, symbol) → set`, so a step taken before is a single lookup. This is
//! the subset construction done lazily, over the sets a run touches rather
//! than all of them. A search key embeds one word per automaton, whatever
//! the automaton's size.

use crate::nfa::{Nfa, StateId};
use crate::KeyMap;
use std::hash::Hash;
use std::sync::Arc;

/// An [`Nfa`] compiled for fast repeated simulation.
///
/// Compilation interns the distinct transition symbols to dense ids and
/// stores, for every `(state, symbol id)` pair, the sorted list of states
/// reachable by reading the symbol and then following ε-transitions. The
/// lists share one CSR pair (offsets + states), so the compiled form is
/// linear in the ε-closed transitions at any automaton size. The original
/// symbol type is retained only for the symbol-interning table; the
/// simulation itself never touches it.
#[derive(Clone, Debug)]
pub struct CompactNfa<S> {
    /// Sorted and duplicate-free; a symbol's id is its index here.
    symbols: Vec<S>,
    /// `succ[offsets[i]..offsets[i + 1]]` with `i = q * num_symbols + s` is
    /// the ε-closed successor list of state `q` on symbol id `s`.
    offsets: Vec<u32>,
    /// Every successor list, sorted and duplicate-free, back to back.
    succ: Vec<StateId>,
    /// ε-closed initial set, sorted.
    initial: Vec<StateId>,
    /// Per state: whether it accepts.
    accepting: Vec<bool>,
}

/// The ε-closure of every state as sorted lists in one CSR pair: the
/// closure of `q` is `states[offsets[q]..offsets[q + 1]]`.
fn epsilon_closures<S: Clone + Eq + Hash + Ord>(nfa: &Nfa<S>) -> (Vec<usize>, Vec<StateId>) {
    let n = nfa.num_states();
    let mut offsets = Vec::with_capacity(n + 1);
    let mut states: Vec<StateId> = Vec::new();
    let mut stamp = vec![StateId::MAX; n];
    let mut stack: Vec<StateId> = Vec::new();
    offsets.push(0);
    for q in 0..n as StateId {
        let start = states.len();
        stamp[q as usize] = q;
        states.push(q);
        stack.push(q);
        while let Some(p) = stack.pop() {
            for &r in nfa.epsilon_from(p) {
                if stamp[r as usize] != q {
                    stamp[r as usize] = q;
                    states.push(r);
                    stack.push(r);
                }
            }
        }
        states[start..].sort_unstable();
        offsets.push(states.len());
    }
    (offsets, states)
}

impl<S: Clone + Eq + Hash + Ord> CompactNfa<S> {
    /// Compiles an NFA into successor-list form. Duplicate transitions and
    /// overlapping ε-closures collapse into one list entry, so the result is
    /// insensitive to the duplicate-arc blowup of product constructions.
    pub fn compile(nfa: &Nfa<S>) -> CompactNfa<S> {
        let n = nfa.num_states();
        let symbols = nfa.symbols_used();
        let sym_id = |s: &S| symbols.binary_search(s).expect("every transition symbol") as u32;
        let (cl_off, cl) = epsilon_closures(nfa);

        // succ(q, s) = ⋃ { closure(to) : (s, to) ∈ δ(q) }, one symbol id
        // after another so the offsets come out in table order.
        let num_symbols = symbols.len();
        let mut offsets: Vec<u32> = Vec::with_capacity(n * num_symbols + 1);
        let mut succ: Vec<StateId> = Vec::new();
        let mut arcs: Vec<(u32, StateId)> = Vec::new();
        offsets.push(0);
        for q in 0..n as StateId {
            arcs.clear();
            arcs.extend(nfa.transitions_from(q).iter().map(|(s, to)| (sym_id(s), *to)));
            arcs.sort_unstable();
            arcs.dedup();
            let mut arcs = arcs.iter().peekable();
            for sid in 0..num_symbols as u32 {
                let start = succ.len();
                while let Some(&(_, to)) = arcs.next_if(|&&(s, _)| s == sid) {
                    succ.extend_from_slice(&cl[cl_off[to as usize]..cl_off[to as usize + 1]]);
                }
                succ[start..].sort_unstable();
                let mut kept = start;
                for i in start..succ.len() {
                    if kept == start || succ[kept - 1] != succ[i] {
                        succ[kept] = succ[i];
                        kept += 1;
                    }
                }
                succ.truncate(kept);
                offsets.push(u32::try_from(kept).expect("successor lists exceed u32 offsets"));
            }
        }

        let mut initial: Vec<StateId> = nfa
            .initial()
            .iter()
            .flat_map(|&q| &cl[cl_off[q as usize]..cl_off[q as usize + 1]])
            .copied()
            .collect();
        initial.sort_unstable();
        initial.dedup();
        let accepting = (0..n as StateId).map(|q| nfa.is_accepting(q)).collect();

        CompactNfa { symbols, offsets, succ, initial, accepting }
    }

    /// Number of states of the compiled automaton.
    pub fn num_states(&self) -> usize {
        self.accepting.len()
    }

    /// The interned symbols, indexed by dense symbol id.
    pub fn symbols(&self) -> &[S] {
        &self.symbols
    }

    /// Number of distinct interned symbols.
    pub fn num_symbols(&self) -> usize {
        self.symbols.len()
    }

    /// The dense id of a symbol, if it labels any transition.
    #[inline]
    pub fn sym_id(&self, s: &S) -> Option<u32> {
        self.symbols.binary_search(s).ok().map(|i| i as u32)
    }

    /// The ε-closed initial states, sorted.
    pub fn initial(&self) -> &[StateId] {
        &self.initial
    }

    /// True if state `q` is accepting.
    #[inline]
    pub fn is_accepting(&self, q: StateId) -> bool {
        self.accepting[q as usize]
    }

    /// The sorted ε-closed successor list of `(q, sym id)`.
    #[inline]
    pub fn row(&self, q: StateId, sid: u32) -> &[StateId] {
        let i = q as usize * self.symbols.len() + sid as usize;
        &self.succ[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Convenience acceptance check over a word of symbols, stepping a
    /// fresh [`SetTable`]. Symbols the automaton has never seen kill the run
    /// immediately.
    pub fn accepts(&self, word: &[S]) -> bool {
        let mut table = SetTable::default();
        let mut set = table.initial(self);
        for s in word {
            match self.sym_id(s).and_then(|sid| table.step(self, set, sid)) {
                Some(next) => set = next,
                None => return false,
            }
        }
        SetTable::accepting(set)
    }
}

/// [`SetTable`] memo entry of a step not taken yet.
const UNKNOWN: u32 = u32::MAX;
/// [`SetTable`] memo entry of a step that reaches the empty set.
const DEAD: u32 = u32::MAX - 1;

/// The state sets that one run of a [`CompactNfa`] reaches, each interned
/// once: the subset construction, built lazily.
///
/// A set is named by its *word*, `id << 1 | accepting`. Ids are dense and
/// handed out in interning order, so two words are equal exactly when their
/// sets are, and the low bit answers the acceptance test without a lookup.
/// Each set owns one memo row, indexed by symbol id, that records where a
/// step on that symbol leads; a step taken before is a single load. One
/// table serves one automaton; the caller must pass that automaton to every
/// call. [`clear`](Self::clear) forgets every set, so the words handed out
/// before it mean nothing after it.
#[derive(Clone, Debug, Default)]
pub struct SetTable {
    /// Per id: the set's states, sorted.
    sets: Vec<Arc<[StateId]>>,
    /// Set → word.
    index: KeyMap<Arc<[StateId]>, u32>,
    /// `memo[id * num_symbols + s]`: the word of set `id` stepped on symbol
    /// id `s`, [`DEAD`] or [`UNKNOWN`].
    memo: Vec<u32>,
    /// The successor set being built.
    scratch: Vec<StateId>,
}

impl SetTable {
    /// True if the set named by `word` holds an accepting state.
    #[inline]
    pub fn accepting(word: u32) -> bool {
        word & 1 == 1
    }

    /// The word of `nfa`'s ε-closed initial set.
    pub fn initial<S: Clone + Eq + Hash + Ord>(&mut self, nfa: &CompactNfa<S>) -> u32 {
        self.scratch.clear();
        self.scratch.extend_from_slice(nfa.initial());
        self.intern(nfa)
    }

    /// The word of the set reached from `word`'s set by reading symbol id
    /// `sid` and then taking ε-transitions, or `None` if that set is empty.
    /// Only a step not taken before reads the successor lists.
    #[inline]
    pub fn step<S: Clone + Eq + Hash + Ord>(
        &mut self,
        nfa: &CompactNfa<S>,
        word: u32,
        sid: u32,
    ) -> Option<u32> {
        let id = (word >> 1) as usize;
        let slot = id * nfa.num_symbols() + sid as usize;
        if self.memo[slot] == UNKNOWN {
            self.scratch.clear();
            for &q in self.sets[id].iter() {
                self.scratch.extend_from_slice(nfa.row(q, sid));
            }
            self.memo[slot] = if self.scratch.is_empty() { DEAD } else { self.intern(nfa) };
        }
        Some(self.memo[slot]).filter(|&next| next != DEAD)
    }

    /// The word of the set in `scratch`, interned with an empty memo row if
    /// it is new.
    fn intern<S: Clone + Eq + Hash + Ord>(&mut self, nfa: &CompactNfa<S>) -> u32 {
        self.scratch.sort_unstable();
        self.scratch.dedup();
        if let Some(&word) = self.index.get(self.scratch.as_slice()) {
            return word;
        }
        let id = self.sets.len() as u32;
        assert!(id < DEAD >> 1, "a run reached more than 2^31 - 1 state sets");
        let word = id << 1 | self.scratch.iter().any(|&q| nfa.is_accepting(q)) as u32;
        let set: Arc<[StateId]> = self.scratch.as_slice().into();
        self.sets.push(Arc::clone(&set));
        self.index.insert(set, word);
        self.memo.resize(self.memo.len() + nfa.num_symbols(), UNKNOWN);
        word
    }

    /// The member states of the set named by `word`, sorted.
    #[cfg(test)]
    fn members(&self, word: u32) -> &[StateId] {
        &self.sets[(word >> 1) as usize]
    }

    /// Entries held: interned sets plus memo slots.
    pub fn entries(&self) -> usize {
        self.sets.len() + self.memo.len()
    }

    /// Forgets every set and every memoised step.
    pub fn clear(&mut self) {
        self.sets.clear();
        self.index.clear();
        self.memo.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    fn word_nfa(word: &[u32]) -> Nfa<u32> {
        let mut n = Nfa::new();
        let states = n.add_states(word.len() + 1);
        n.add_initial(states[0]);
        n.set_accepting(states[word.len()], true);
        for (i, &c) in word.iter().enumerate() {
            n.add_transition(states[i], c, states[i + 1]);
        }
        n
    }

    /// Steps `word` through `table` next to `Nfa::step` and checks every
    /// set on the way: the table's members equal the NFA's ε-closed set, the
    /// accepting bit matches the members, and equal sets get equal words
    /// (`seen` maps every set met so far to its word). Returns whether the
    /// table accepts the word.
    fn walk<S: Clone + Eq + Hash + Ord + std::fmt::Debug>(
        a: &Nfa<S>,
        c: &CompactNfa<S>,
        table: &mut SetTable,
        seen: &mut HashMap<Vec<StateId>, u32>,
        word: &[S],
    ) -> bool {
        let mut check = |table: &SetTable, set: u32, want: &[StateId]| {
            assert_eq!(table.members(set), want, "word {word:?}");
            let accepting = want.iter().any(|&q| a.is_accepting(q));
            assert_eq!(SetTable::accepting(set), accepting, "word {word:?}");
            assert_eq!(*seen.entry(want.to_vec()).or_insert(set), set, "word {word:?}");
        };
        let mut states = a.epsilon_closure(a.initial());
        let mut set = table.initial(c);
        check(table, set, &states);
        for sym in word {
            states = a.step(&states, sym);
            match c.sym_id(sym).and_then(|sid| table.step(c, set, sid)) {
                None => {
                    assert!(states.is_empty(), "word {word:?}");
                    return false;
                }
                Some(next) => set = next,
            }
            check(table, set, &states);
        }
        SetTable::accepting(set)
    }

    #[test]
    fn compiled_simulation_matches_nfa() {
        // (0 1)* via union/concat/star — includes ε-transitions.
        let a = word_nfa(&[0]);
        let b = word_nfa(&[1]);
        let ab_star = a.concat(&b).star();
        let c = CompactNfa::compile(&ab_star);
        let (mut table, mut seen) = (SetTable::default(), HashMap::new());
        for w in [
            vec![],
            vec![0],
            vec![1],
            vec![0, 1],
            vec![0, 1, 0],
            vec![0, 1, 0, 1],
            vec![1, 0, 1, 0],
        ] {
            let accepted = walk(&ab_star, &c, &mut table, &mut seen, &w);
            assert_eq!(accepted, ab_star.accepts(&w), "word {w:?}");
            assert_eq!(c.accepts(&w), ab_star.accepts(&w), "word {w:?}");
        }
        // The words reach three distinct sets — the initial one, the one
        // after each `0` and the one after each `0 1` — however often they
        // pass through them.
        assert_eq!(seen.len(), 3);
        // unknown symbol never accepted
        assert!(!c.accepts(&[7]));
    }

    /// SplitMix64, for the seeded random automata below.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    /// A random ε-NFA over symbols `0..3` with `n` states: each arc is
    /// drawn twice with probability 1/4 (duplicate arcs), and a ring of ε
    /// edges through a random tenth of the states closes ε-cycles.
    fn random_nfa(rng: &mut Rng, n: usize) -> Nfa<u32> {
        let mut a = Nfa::new();
        a.add_states(n);
        for _ in 0..1 + rng.below(3) {
            a.add_initial(rng.below(n) as StateId);
        }
        for q in 0..n as StateId {
            a.set_accepting(q, rng.below(4) == 0);
            for _ in 0..rng.below(4) {
                let (s, to) = (rng.below(3) as u32, rng.below(n) as StateId);
                a.add_transition(q, s, to);
                if rng.below(4) == 0 {
                    a.add_transition(q, s, to);
                }
            }
            if rng.below(6) == 0 {
                a.add_epsilon(q, rng.below(n) as StateId);
            }
        }
        let ring: Vec<StateId> = (0..n.div_ceil(10)).map(|_| rng.below(n) as StateId).collect();
        for (i, &q) in ring.iter().enumerate() {
            a.add_epsilon(q, ring[(i + 1) % ring.len()]);
        }
        a
    }

    /// `row` agrees with `Nfa::step` on single states, and a [`SetTable`]
    /// walked along random words agrees with `Nfa::step` and
    /// `Nfa::accepts` word by word: on `(0 1)*` and on random ε-NFAs of up to
    /// 192 states and past 2,048. One table serves all words of an
    /// automaton, so later words step through memoised entries.
    #[test]
    fn compiled_step_matches_nfa_step() {
        let mut rng = Rng(0x5EED);
        let mut inputs = vec![word_nfa(&[0, 1]).star()];
        for n in [1, 37, 64, 100, 150, 192, 2_100] {
            inputs.push(random_nfa(&mut rng, n));
        }
        for a in inputs {
            let n = a.num_states();
            let c = CompactNfa::compile(&a);
            assert_eq!(c.initial(), a.epsilon_closure(a.initial()), "{n} states");
            for q in 0..n as StateId {
                assert_eq!(c.is_accepting(q), a.is_accepting(q));
            }
            for sym in a.symbols_used() {
                let sid = c.sym_id(&sym).unwrap();
                let probes = if n > 200 { 64 } else { n };
                for q in (0..probes).map(|_| rng.below(n) as StateId) {
                    assert_eq!(c.row(q, sid), a.step(&[q], &sym), "{n} states, row({q}, {sym})");
                }
            }
            let (mut table, mut seen) = (SetTable::default(), HashMap::new());
            for _ in 0..64 {
                let word: Vec<u32> = (0..rng.below(12)).map(|_| rng.below(3) as u32).collect();
                let accepted = walk(&a, &c, &mut table, &mut seen, &word);
                assert_eq!(accepted, a.accepts(&word), "{n} states, word {word:?}");
            }
            // Distinct sets got distinct words.
            let words: HashSet<u32> = seen.values().copied().collect();
            assert_eq!(words.len(), seen.len(), "{n} states");
            table.clear();
            assert_eq!(table.entries(), 0);
            let init = table.initial(&c);
            assert_eq!((init >> 1, table.members(init)), (0, c.initial()), "{n} states");
        }
    }

    #[test]
    fn compile_handles_wide_automata() {
        // Far more states than one 64-bit word could name.
        let word: Vec<u32> = (0..100).map(|i| i % 3).collect();
        let n = word_nfa(&word);
        let c = CompactNfa::compile(&n);
        assert_eq!(c.num_states(), 101);
        assert!(c.accepts(&word));
        let mut wrong = word.clone();
        wrong[50] = (wrong[50] + 1) % 3;
        assert!(!c.accepts(&wrong));
    }

    #[test]
    fn duplicate_transitions_are_harmless() {
        let mut n = word_nfa(&[0]);
        for _ in 0..10 {
            n.add_transition(0, 0, 1);
        }
        let c = CompactNfa::compile(&n);
        assert!(c.accepts(&[0]));
        let mut table = SetTable::default();
        let init = table.initial(&c);
        let next = table.step(&c, init, c.sym_id(&0).unwrap()).unwrap();
        assert_eq!(table.members(next), &[1]);
    }

    #[test]
    fn table_step_reports_emptiness() {
        let n = word_nfa(&[0, 1]);
        let c = CompactNfa::compile(&n);
        let mut table = SetTable::default();
        let init = table.initial(&c);
        let zero = c.sym_id(&0).unwrap();
        let after = table.step(&c, init, zero).unwrap();
        // reading 0 again from state 1 dead-ends, memoised or not
        assert_eq!(table.step(&c, after, zero), None);
        assert_eq!(table.step(&c, after, zero), None);
        // two sets, each with a memo row of two symbols
        assert_eq!(table.entries(), 2 + 2 * 2);
    }
}
