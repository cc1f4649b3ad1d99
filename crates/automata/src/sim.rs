//! Compiled NFA simulation: ε-closed successor lists and bitset state sets.
//!
//! [`Nfa::step`](crate::nfa::Nfa::step) rescans every outgoing transition of
//! every current state, re-sorts the successor list, and recomputes the
//! ε-closure on each call. That is fine for one-shot acceptance checks, but
//! the convolution search of the ECRPQ evaluator performs millions of steps
//! over the *same* automaton. [`CompactNfa`] moves all of that work to
//! compile time: symbols are interned to dense ids, and for every
//! `(state, symbol)` pair it stores the sorted ε-closed successor list, all
//! lists in one CSR pair. Compiling costs time and memory linear in those
//! lists, so any automaton compiles, whatever its size. State *sets* stay
//! fixed-width bitsets ([`StateSet`]), which search keys embed verbatim: one
//! simulation step sets the bits of one list per current state, and the
//! accepting test is a bitwise AND against the accepting-set row.

use crate::nfa::{Nfa, StateId};
use std::hash::Hash;

/// A set of NFA states as a fixed-width block bitset.
///
/// All sets produced by one [`CompactNfa`] share the same block count, so
/// union / intersection / equality are straight word-wise loops and a set can
/// be embedded verbatim (as its `u64` blocks) into a larger encoded search
/// key.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct StateSet {
    blocks: Vec<u64>,
}

impl StateSet {
    /// The empty set over `blocks` 64-state blocks.
    pub fn empty(blocks: usize) -> StateSet {
        StateSet { blocks: vec![0; blocks] }
    }

    /// The raw blocks.
    #[inline]
    pub fn as_blocks(&self) -> &[u64] {
        &self.blocks
    }

    /// Inserts state `q`.
    #[inline]
    pub fn insert(&mut self, q: StateId) {
        self.blocks[q as usize / 64] |= 1u64 << (q % 64);
    }

    /// True if the set contains `q`.
    #[inline]
    pub fn contains(&self, q: StateId) -> bool {
        (self.blocks[q as usize / 64] >> (q % 64)) & 1 == 1
    }

    /// Removes every state.
    #[inline]
    pub fn clear(&mut self) {
        self.blocks.fill(0);
    }

    /// True if no state is set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(|&b| b == 0)
    }

    /// Number of states in the set.
    pub fn len(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// In-place union with a raw block row of the same width.
    #[inline]
    pub fn union_with(&mut self, row: &[u64]) {
        debug_assert_eq!(self.blocks.len(), row.len());
        for (b, r) in self.blocks.iter_mut().zip(row) {
            *b |= r;
        }
    }

    /// True if the set shares at least one state with the raw block row
    /// (used for the accepting-intersection test).
    #[inline]
    pub fn intersects(&self, row: &[u64]) -> bool {
        debug_assert_eq!(self.blocks.len(), row.len());
        self.blocks.iter().zip(row).any(|(b, r)| b & r != 0)
    }

    /// Copies the contents of a raw block row into this set.
    #[inline]
    pub fn copy_from(&mut self, row: &[u64]) {
        debug_assert_eq!(self.blocks.len(), row.len());
        self.blocks.copy_from_slice(row);
    }

    /// Iterates over the member states in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = StateId> + '_ {
        self.blocks.iter().enumerate().flat_map(|(bi, &block)| {
            let mut b = block;
            std::iter::from_fn(move || {
                if b == 0 {
                    None
                } else {
                    let bit = b.trailing_zeros();
                    b &= b - 1;
                    Some(bi as StateId * 64 + bit)
                }
            })
        })
    }

    /// The member states as a sorted vector (compatible with the state lists
    /// used by [`Nfa`]).
    pub fn to_vec(&self) -> Vec<StateId> {
        self.iter().collect()
    }
}

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
    num_states: usize,
    blocks: usize,
    /// Sorted and duplicate-free; a symbol's id is its index here.
    symbols: Vec<S>,
    /// `succ[offsets[i]..offsets[i + 1]]` with `i = q * num_symbols + s` is
    /// the ε-closed successor list of state `q` on symbol id `s`.
    offsets: Vec<u32>,
    /// Every successor list, sorted and duplicate-free, back to back.
    succ: Vec<StateId>,
    /// ε-closed initial set.
    initial: StateSet,
    /// Accepting states as one bitset row.
    accepting: Vec<u64>,
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
        let blocks = n.div_ceil(64).max(1);
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

        let mut initial = StateSet::empty(blocks);
        for &q in nfa.initial() {
            for &r in &cl[cl_off[q as usize]..cl_off[q as usize + 1]] {
                initial.insert(r);
            }
        }

        let mut accepting = vec![0u64; blocks];
        for q in 0..n as StateId {
            if nfa.is_accepting(q) {
                accepting[q as usize / 64] |= 1 << (q % 64);
            }
        }

        CompactNfa { num_states: n, blocks, symbols, offsets, succ, initial, accepting }
    }

    /// Number of states of the compiled automaton.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Number of 64-state bitset blocks per state set.
    pub fn blocks(&self) -> usize {
        self.blocks
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

    /// The ε-closed initial state set.
    pub fn initial_set(&self) -> StateSet {
        self.initial.clone()
    }

    /// The accepting states as a raw bitset row.
    #[inline]
    pub fn accepting_row(&self) -> &[u64] {
        &self.accepting
    }

    /// True if state `q` is accepting.
    #[inline]
    pub fn is_accepting(&self, q: StateId) -> bool {
        (self.accepting[q as usize / 64] >> (q % 64)) & 1 == 1
    }

    /// True if the set contains an accepting state.
    #[inline]
    pub fn any_accepting(&self, set: &StateSet) -> bool {
        set.intersects(&self.accepting)
    }

    /// True if the raw block row contains an accepting state.
    #[inline]
    pub fn any_accepting_blocks(&self, row: &[u64]) -> bool {
        debug_assert_eq!(row.len(), self.blocks);
        row.iter().zip(&self.accepting).any(|(b, a)| b & a != 0)
    }

    /// The sorted ε-closed successor list of `(q, sym id)`.
    #[inline]
    pub fn row(&self, q: StateId, sid: u32) -> &[StateId] {
        let i = q as usize * self.symbols.len() + sid as usize;
        &self.succ[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// One simulation step, writing into `out` (which is cleared first):
    /// all states reachable from `current` by reading symbol id `sid` and
    /// then taking ε-transitions.
    #[inline]
    pub fn step_into(&self, current: &StateSet, sid: u32, out: &mut StateSet) {
        self.step_blocks_into(current.as_blocks(), sid, out);
    }

    /// Steps a raw block row (a state set embedded in a larger key buffer),
    /// writing into `out`. Returns `true` if the successor set is non-empty.
    #[inline]
    pub fn step_blocks_into(&self, current: &[u64], sid: u32, out: &mut StateSet) -> bool {
        out.clear();
        let mut any = false;
        for (bi, &block) in current.iter().enumerate() {
            let mut b = block;
            while b != 0 {
                let q = bi as u32 * 64 + b.trailing_zeros();
                b &= b - 1;
                let row = self.row(q, sid);
                any |= !row.is_empty();
                for &r in row {
                    out.insert(r);
                }
            }
        }
        any
    }

    /// Convenience acceptance check over a word of symbols (slow path; the
    /// engines use [`CompactNfa::step_into`] directly). Symbols the automaton
    /// has never seen kill the run immediately.
    pub fn accepts(&self, word: &[S]) -> bool {
        let mut current = self.initial_set();
        let mut next = StateSet::empty(self.blocks);
        for s in word {
            match self.sym_id(s) {
                None => return false,
                Some(sid) => {
                    self.step_into(&current, sid, &mut next);
                    if next.is_empty() {
                        return false;
                    }
                    std::mem::swap(&mut current, &mut next);
                }
            }
        }
        self.any_accepting(&current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn stateset_basic_ops() {
        let mut s = StateSet::empty(2);
        assert!(s.is_empty());
        s.insert(3);
        s.insert(64);
        s.insert(127);
        assert_eq!(s.len(), 3);
        assert!(s.contains(3) && s.contains(64) && s.contains(127));
        assert!(!s.contains(4));
        assert_eq!(s.to_vec(), vec![3, 64, 127]);
        let mut t = StateSet::empty(2);
        t.insert(64);
        assert!(s.intersects(t.as_blocks()));
        t.clear();
        t.insert(5);
        assert!(!s.intersects(t.as_blocks()));
        s.union_with(t.as_blocks());
        assert!(s.contains(5));
    }

    #[test]
    fn compiled_simulation_matches_nfa() {
        // (0 1)* via union/concat/star — includes ε-transitions.
        let a = word_nfa(&[0]);
        let b = word_nfa(&[1]);
        let ab_star = a.concat(&b).star();
        let c = CompactNfa::compile(&ab_star);
        for w in [
            vec![],
            vec![0],
            vec![1],
            vec![0, 1],
            vec![0, 1, 0],
            vec![0, 1, 0, 1],
            vec![1, 0, 1, 0],
        ] {
            assert_eq!(c.accepts(&w), ab_star.accepts(&w), "word {w:?}");
        }
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

    /// `row`, `step_into` and `step_blocks_into` agree with `Nfa::step`
    /// and `epsilon_closure` from the initial set and random state subsets:
    /// on `(0 1)*` and on random ε-NFAs of 1, 2 and 3 bitset blocks and past
    /// 2,048 states.
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
            assert_eq!(c.blocks(), n.div_ceil(64), "{n} states");
            assert_eq!(c.initial_set().to_vec(), a.epsilon_closure(a.initial()), "{n} states");
            for q in 0..n as StateId {
                assert_eq!(c.is_accepting(q), a.is_accepting(q));
            }
            for sym in a.symbols_used() {
                let sid = c.sym_id(&sym).unwrap();
                let probes = if n > 200 { 64 } else { n };
                for q in (0..probes).map(|_| rng.below(n) as StateId) {
                    assert_eq!(c.row(q, sid), a.step(&[q], &sym), "{n} states, row({q}, {sym})");
                }
                for i in 0..32 {
                    let subset: Vec<StateId> = match i {
                        0 => a.epsilon_closure(a.initial()),
                        _ => (0..n as StateId).filter(|_| rng.below(5) == 0).collect(),
                    };
                    let mut current = StateSet::empty(c.blocks());
                    subset.iter().for_each(|&q| current.insert(q));
                    let want = a.step(&subset, &sym);
                    let mut out = StateSet::empty(c.blocks());
                    c.step_into(&current, sid, &mut out);
                    assert_eq!(out.to_vec(), want, "{n} states, step {subset:?} on {sym}");
                    let mut raw = StateSet::empty(c.blocks());
                    let nonempty = c.step_blocks_into(current.as_blocks(), sid, &mut raw);
                    assert_eq!((nonempty, raw), (!want.is_empty(), out));
                }
            }
        }
    }

    #[test]
    fn compile_handles_wide_automata() {
        // more than 64 states forces multiple bitset blocks
        let word: Vec<u32> = (0..100).map(|i| i % 3).collect();
        let n = word_nfa(&word);
        let c = CompactNfa::compile(&n);
        assert!(c.blocks() >= 2);
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
        let mut out = StateSet::empty(c.blocks());
        c.step_into(&c.initial_set(), c.sym_id(&0).unwrap(), &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn step_blocks_into_reports_emptiness() {
        let n = word_nfa(&[0, 1]);
        let c = CompactNfa::compile(&n);
        let init = c.initial_set();
        let mut out = StateSet::empty(c.blocks());
        assert!(c.step_blocks_into(init.as_blocks(), c.sym_id(&0).unwrap(), &mut out));
        // reading 0 again from state 1 dead-ends
        let cur = out.clone();
        assert!(!c.step_blocks_into(cur.as_blocks(), c.sym_id(&0).unwrap(), &mut out));
    }
}
