//! Dense NFA simulation: compiled transition tables and bitset state sets.
//!
//! [`Nfa::step`](crate::nfa::Nfa::step) rescans every outgoing transition of
//! every current state, re-sorts the successor list, and recomputes the
//! ε-closure on each call. That is fine for one-shot acceptance checks, but
//! the convolution search of the ECRPQ evaluator performs millions of steps
//! over the *same* automaton. [`CompactNfa`] moves all of that work to
//! compile time: symbols are interned to dense ids, ε-closures are
//! precomputed per state, and for every `(state, symbol)` pair the table
//! stores the ε-closed successor *set* as a bitset row. One simulation step
//! is then a table lookup plus a bitwise OR per current state, and the
//! accepting test is a bitwise AND against the accepting-set row.

use crate::nfa::{Nfa, StateId};
use std::collections::HashMap;
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
/// precomputes, for every `(state, symbol id)` pair, the bitset of states
/// reachable by reading the symbol and then following ε-transitions. The
/// original symbol type is retained only for the symbol-interning table; the
/// simulation itself never touches it.
#[derive(Clone, Debug)]
pub struct CompactNfa<S> {
    num_states: usize,
    blocks: usize,
    symbols: Vec<S>,
    sym_index: HashMap<S, u32>,
    /// Row-major table: `table[(q * num_symbols + s) * blocks ..][..blocks]`
    /// is the ε-closed successor set of state `q` on symbol id `s`.
    table: Vec<u64>,
    /// Per-state ε-closure bitsets, `blocks` words each.
    closures: Vec<u64>,
    /// ε-closed initial set.
    initial: StateSet,
    /// Accepting states as one bitset row.
    accepting: Vec<u64>,
}

impl<S: Clone + Eq + Hash + Ord> CompactNfa<S> {
    /// Compiles an NFA into table form. Duplicate transitions collapse into
    /// the same bitset bits, so the result is insensitive to the
    /// duplicate-arc blowup of product constructions.
    pub fn compile(nfa: &Nfa<S>) -> CompactNfa<S> {
        let n = nfa.num_states();
        let blocks = n.div_ceil(64).max(1);
        let symbols = nfa.symbols_used();
        let sym_index: HashMap<S, u32> =
            symbols.iter().enumerate().map(|(i, s)| (s.clone(), i as u32)).collect();

        // Per-state ε-closures, by depth-first search over ε-edges.
        let mut closures = vec![0u64; n.max(1) * blocks];
        let mut stack: Vec<StateId> = Vec::new();
        for q in 0..n {
            let row = &mut closures[q * blocks..(q + 1) * blocks];
            row[q / 64] |= 1 << (q % 64);
            stack.push(q as StateId);
            while let Some(p) = stack.pop() {
                for &r in nfa.epsilon_from(p) {
                    let (bi, bit) = (r as usize / 64, 1u64 << (r % 64));
                    if row[bi] & bit == 0 {
                        row[bi] |= bit;
                        stack.push(r);
                    }
                }
            }
        }

        // Transition table: row(q, s) = ⋃ { closure(to) : (s, to) ∈ δ(q) }.
        let num_symbols = symbols.len();
        let mut table = vec![0u64; n.max(1) * num_symbols.max(1) * blocks];
        for q in 0..n {
            for (s, to) in nfa.transitions_from(q as StateId) {
                let sid = sym_index[s] as usize;
                let base = (q * num_symbols + sid) * blocks;
                let closure = &closures[*to as usize * blocks..(*to as usize + 1) * blocks];
                for (b, c) in table[base..base + blocks].iter_mut().zip(closure) {
                    *b |= c;
                }
            }
        }

        let mut initial = StateSet::empty(blocks);
        for &q in nfa.initial() {
            let closure = &closures[q as usize * blocks..(q as usize + 1) * blocks];
            initial.union_with(closure);
        }

        let mut accepting = vec![0u64; blocks];
        for q in 0..n as StateId {
            if nfa.is_accepting(q) {
                accepting[q as usize / 64] |= 1 << (q % 64);
            }
        }

        CompactNfa {
            num_states: n,
            blocks,
            symbols,
            sym_index,
            table,
            closures,
            initial,
            accepting,
        }
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
        self.sym_index.get(s).copied()
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

    /// The precomputed ε-closed successor row of `(q, sym id)`.
    #[inline]
    pub fn row(&self, q: StateId, sid: u32) -> &[u64] {
        let base = (q as usize * self.symbols.len() + sid as usize) * self.blocks;
        &self.table[base..base + self.blocks]
    }

    /// One simulation step, writing into `out` (which is cleared first):
    /// all states reachable from `current` by reading symbol id `sid` and
    /// then taking ε-transitions.
    #[inline]
    pub fn step_into(&self, current: &StateSet, sid: u32, out: &mut StateSet) {
        out.clear();
        for q in current.iter() {
            out.union_with(self.row(q, sid));
        }
    }

    /// Steps a raw block row (a state set embedded in a larger key buffer),
    /// writing into `out`. Returns `true` if the successor set is non-empty.
    #[inline]
    pub fn step_blocks_into(&self, current: &[u64], sid: u32, out: &mut StateSet) -> bool {
        out.clear();
        for (bi, &block) in current.iter().enumerate() {
            let mut b = block;
            while b != 0 {
                let q = bi as u32 * 64 + b.trailing_zeros();
                b &= b - 1;
                out.union_with(self.row(q, sid));
            }
        }
        !out.is_empty()
    }

    /// The ε-closure of a single state as a raw bitset row.
    #[inline]
    pub fn closure_row(&self, q: StateId) -> &[u64] {
        &self.closures[q as usize * self.blocks..(q as usize + 1) * self.blocks]
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

    #[test]
    fn compiled_step_matches_nfa_step() {
        let a = word_nfa(&[0, 1]);
        let s = a.star();
        let c = CompactNfa::compile(&s);
        let init = s.epsilon_closure(s.initial());
        assert_eq!(c.initial_set().to_vec(), init);
        let after = s.step(&init, &0);
        let sid = c.sym_id(&0).unwrap();
        let mut out = StateSet::empty(c.blocks());
        c.step_into(&c.initial_set(), sid, &mut out);
        assert_eq!(out.to_vec(), after);
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
