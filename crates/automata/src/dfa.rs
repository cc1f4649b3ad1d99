//! Deterministic finite automata: subset construction, complementation, and
//! language comparisons.
//!
//! Complementation requires a concrete alphabet (the DFA must be complete),
//! so all operations that need it take the alphabet as an explicit slice of
//! symbols. For regular relations the alphabet is the product alphabet
//! `(Σ⊥)^n` (minus the all-`⊥` letter), produced by
//! [`product_alphabet`](crate::alphabet::product_alphabet).

use crate::nfa::{Nfa, StateId};
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::Hash;

/// A complete deterministic finite automaton over symbol type `S`.
#[derive(Clone, Debug)]
pub struct Dfa<S: Eq + Hash> {
    /// `transitions[q]` maps each alphabet symbol to the successor state.
    transitions: Vec<HashMap<S, StateId>>,
    initial: StateId,
    accepting: Vec<bool>,
    /// The alphabet the DFA is complete over.
    alphabet: Vec<S>,
}

impl<S: Clone + Eq + Hash + Ord> Dfa<S> {
    /// Determinizes an NFA via the subset construction, completing it over
    /// the given alphabet (a sink state is added as needed).
    pub fn from_nfa(nfa: &Nfa<S>, alphabet: &[S]) -> Self {
        Dfa::subset_construction(nfa, alphabet, usize::MAX)
            .expect("unbounded subset construction cannot overflow")
    }

    /// Determinizes like [`Dfa::from_nfa`] but gives up (returns `None`) as
    /// soon as more than `max_states` subset states are created — the guard
    /// that keeps best-effort minimization from paying for an exponential
    /// blowup.
    pub fn from_nfa_bounded(nfa: &Nfa<S>, alphabet: &[S], max_states: usize) -> Option<Self> {
        Dfa::subset_construction(nfa, alphabet, max_states)
    }

    fn subset_construction(nfa: &Nfa<S>, alphabet: &[S], max_states: usize) -> Option<Self> {
        let mut alphabet: Vec<S> = alphabet.to_vec();
        alphabet.sort();
        alphabet.dedup();

        let mut subsets: HashMap<Vec<StateId>, StateId> = HashMap::new();
        let mut transitions: Vec<HashMap<S, StateId>> = Vec::new();
        let mut accepting: Vec<bool> = Vec::new();
        let mut queue: VecDeque<Vec<StateId>> = VecDeque::new();

        let start = nfa.epsilon_closure(nfa.initial());
        subsets.insert(start.clone(), 0);
        transitions.push(HashMap::new());
        accepting.push(start.iter().any(|&q| nfa.is_accepting(q)));
        queue.push_back(start);

        while let Some(subset) = queue.pop_front() {
            let from = subsets[&subset];
            for sym in &alphabet {
                let next = nfa.step(&subset, sym);
                let to = match subsets.get(&next) {
                    Some(&id) => id,
                    None => {
                        if transitions.len() >= max_states {
                            return None;
                        }
                        let id = transitions.len() as StateId;
                        subsets.insert(next.clone(), id);
                        transitions.push(HashMap::new());
                        accepting.push(next.iter().any(|&q| nfa.is_accepting(q)));
                        queue.push_back(next);
                        id
                    }
                };
                transitions[from as usize].insert(sym.clone(), to);
            }
        }
        Some(Dfa { transitions, initial: 0, accepting, alphabet })
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.transitions.len()
    }

    /// The alphabet the DFA is complete over.
    pub fn alphabet(&self) -> &[S] {
        &self.alphabet
    }

    /// The initial state.
    pub fn initial_state(&self) -> StateId {
        self.initial
    }

    /// True if `q` is accepting.
    pub fn is_accepting(&self, q: StateId) -> bool {
        self.accepting[q as usize]
    }

    /// One deterministic step; `None` if the symbol is not in the alphabet.
    pub fn step(&self, state: StateId, sym: &S) -> Option<StateId> {
        self.transitions[state as usize].get(sym).copied()
    }

    /// Runs the DFA on a word. Symbols not in the alphabet cause rejection.
    pub fn accepts(&self, word: &[S]) -> bool {
        let mut q = self.initial;
        for sym in word {
            match self.transitions[q as usize].get(sym) {
                Some(&to) => q = to,
                None => return false,
            }
        }
        self.accepting[q as usize]
    }

    /// Complements the DFA (language over the same alphabet).
    pub fn complement(&self) -> Dfa<S> {
        let mut out = self.clone();
        for a in &mut out.accepting {
            *a = !*a;
        }
        out
    }

    /// Converts back to an NFA (e.g. to intersect with other NFAs).
    pub fn to_nfa(&self) -> Nfa<S> {
        let mut nfa = Nfa::new();
        nfa.add_states(self.num_states());
        for (q, map) in self.transitions.iter().enumerate() {
            for (s, &to) in map {
                nfa.add_transition(q as StateId, s.clone(), to);
            }
        }
        for (q, &acc) in self.accepting.iter().enumerate() {
            nfa.set_accepting(q as StateId, acc);
        }
        nfa.add_initial(self.initial);
        nfa
    }

    /// True if the DFA accepts no word.
    pub fn is_empty(&self) -> bool {
        // BFS from the initial state looking for an accepting state.
        let mut seen = HashSet::new();
        let mut queue = VecDeque::new();
        seen.insert(self.initial);
        queue.push_back(self.initial);
        while let Some(q) = queue.pop_front() {
            if self.accepting[q as usize] {
                return false;
            }
            for &to in self.transitions[q as usize].values() {
                if seen.insert(to) {
                    queue.push_back(to);
                }
            }
        }
        true
    }

    /// Hopcroft's partition-refinement minimization: worklist of
    /// `(block, symbol)` splitters, preimage splitting, and the
    /// smaller-half rule — O(|Σ| · n log n) instead of Moore's O(|Σ| · n²)
    /// signature refinement.
    pub fn minimize(&self) -> Dfa<S> {
        let n = self.num_states();
        if n == 0 {
            return self.clone();
        }
        let nsym = self.alphabet.len();
        // Inverse transition lists per symbol: inv[s][q] = predecessors of q
        // on symbol s (deterministic order: built by ascending source state).
        let mut inv: Vec<Vec<Vec<StateId>>> = vec![vec![Vec::new(); n]; nsym];
        for q in 0..n {
            for (si, s) in self.alphabet.iter().enumerate() {
                inv[si][self.transitions[q][s] as usize].push(q as StateId);
            }
        }

        // Refinable partition: `elems` holds the states grouped by block,
        // `loc[q]` is q's position in `elems`, blocks are contiguous ranges.
        let mut elems: Vec<StateId> = Vec::with_capacity(n);
        let mut start: Vec<usize> = Vec::new();
        let mut len: Vec<usize> = Vec::new();
        let mut block_of: Vec<usize> = vec![0; n];
        for accept in [false, true] {
            let s = elems.len();
            for (q, b) in block_of.iter_mut().enumerate() {
                if self.accepting[q] == accept {
                    *b = start.len();
                    elems.push(q as StateId);
                }
            }
            if elems.len() > s {
                start.push(s);
                len.push(elems.len() - s);
            }
        }
        let mut loc: Vec<usize> = vec![0; n];
        for (i, &q) in elems.iter().enumerate() {
            loc[q as usize] = i;
        }
        // Count of marked (preimage-hit) states at the front of each block.
        let mut marked: Vec<usize> = vec![0; start.len()];

        // Worklist of pending splitters; `in_work[b * nsym + s]` mirrors it.
        let mut work: VecDeque<(usize, usize)> = VecDeque::new();
        let mut in_work: Vec<bool> = vec![false; start.len() * nsym];
        for b in 0..start.len() {
            for s in 0..nsym {
                work.push_back((b, s));
                in_work[b * nsym + s] = true;
            }
        }

        let mut splitter: Vec<StateId> = Vec::new();
        let mut touched: Vec<usize> = Vec::new();
        while let Some((a, sym)) = work.pop_front() {
            in_work[a * nsym + sym] = false;
            // Snapshot the splitter block: splitting below may refine it.
            splitter.clear();
            splitter.extend_from_slice(&elems[start[a]..start[a] + len[a]]);
            // Mark the preimage, moving marked states to their block's front.
            for &q in &splitter {
                for &p in &inv[sym][q as usize] {
                    let b = block_of[p as usize];
                    let mark_end = start[b] + marked[b];
                    if loc[p as usize] >= mark_end {
                        let other = elems[mark_end];
                        elems.swap(loc[p as usize], mark_end);
                        loc[other as usize] = loc[p as usize];
                        loc[p as usize] = mark_end;
                        if marked[b] == 0 {
                            touched.push(b);
                        }
                        marked[b] += 1;
                    }
                }
            }
            // Split every partially marked block; keep the unmarked suffix
            // under the old id so pending `(b, ·)` splitters stay valid, and
            // register the new half per the Hopcroft rule.
            for b in touched.drain(..) {
                if marked[b] == len[b] {
                    marked[b] = 0;
                    continue;
                }
                let nb = start.len();
                start.push(start[b]);
                len.push(marked[b]);
                start[b] += marked[b];
                len[b] -= marked[b];
                marked[b] = 0;
                marked.push(0);
                for i in start[nb]..start[nb] + len[nb] {
                    block_of[elems[i] as usize] = nb;
                }
                in_work.resize((nb + 1) * nsym, false);
                for s in 0..nsym {
                    // If (b, s) is pending it now means the unmarked half, so
                    // the marked half must join it; otherwise the smaller
                    // half alone suffices as a future splitter.
                    let add = if in_work[b * nsym + s] || len[nb] <= len[b] { nb } else { b };
                    if !in_work[add * nsym + s] {
                        in_work[add * nsym + s] = true;
                        work.push_back((add, s));
                    }
                }
            }
        }

        // Quotient automaton with canonical state numbering: blocks are
        // renumbered in order of their smallest original state.
        let num_blocks = start.len();
        let mut order: Vec<usize> = vec![usize::MAX; num_blocks];
        let mut next = 0;
        for &b in &block_of {
            if order[b] == usize::MAX {
                order[b] = next;
                next += 1;
            }
        }
        let mut transitions: Vec<HashMap<S, StateId>> = vec![HashMap::new(); num_blocks];
        let mut accepting = vec![false; num_blocks];
        let mut done = vec![false; num_blocks];
        for q in 0..n {
            let b = block_of[q];
            let c = order[b];
            accepting[c] = accepting[c] || self.accepting[q];
            if !done[b] {
                done[b] = true;
                for s in &self.alphabet {
                    let t = self.transitions[q][s] as usize;
                    transitions[c].insert(s.clone(), order[block_of[t]] as StateId);
                }
            }
        }
        Dfa {
            transitions,
            initial: order[block_of[self.initial as usize]] as StateId,
            accepting,
            alphabet: self.alphabet.clone(),
        }
    }

    /// Checks language equivalence of two DFAs over the same alphabet by a
    /// product reachability search for a distinguishing state pair.
    pub fn equivalent(&self, other: &Dfa<S>) -> bool {
        if self.alphabet != other.alphabet {
            return false;
        }
        let mut seen: HashSet<(StateId, StateId)> = HashSet::new();
        let mut queue: VecDeque<(StateId, StateId)> = VecDeque::new();
        seen.insert((self.initial, other.initial));
        queue.push_back((self.initial, other.initial));
        while let Some((a, b)) = queue.pop_front() {
            if self.accepting[a as usize] != other.accepting[b as usize] {
                return false;
            }
            for s in &self.alphabet {
                let na = self.transitions[a as usize][s];
                let nb = other.transitions[b as usize][s];
                if seen.insert((na, nb)) {
                    queue.push_back((na, nb));
                }
            }
        }
        true
    }
}

/// Complements the language of an NFA with respect to `alphabet^*`, returning
/// an NFA (internally via determinization). Beware: exponential in general.
pub fn complement_nfa<S: Clone + Eq + Hash + Ord>(nfa: &Nfa<S>, alphabet: &[S]) -> Nfa<S> {
    Dfa::from_nfa(nfa, alphabet).complement().to_nfa()
}

/// Checks whether the language of `a` is contained in the language of `b`
/// (both over `alphabet`), by testing emptiness of `a ∩ complement(b)`.
pub fn language_subset<S: Clone + Eq + Hash + Ord>(a: &Nfa<S>, b: &Nfa<S>, alphabet: &[S]) -> bool {
    let comp_b = complement_nfa(b, alphabet);
    a.intersect(&comp_b).is_empty()
}

/// Checks language equivalence of two NFAs over `alphabet`.
pub fn language_equivalent<S: Clone + Eq + Hash + Ord>(
    a: &Nfa<S>,
    b: &Nfa<S>,
    alphabet: &[S],
) -> bool {
    Dfa::from_nfa(a, alphabet).minimize().equivalent(&Dfa::from_nfa(b, alphabet).minimize())
}

/// Largest trimmed NFA [`reduce_for_tables`] will attempt to determinize.
const REDUCE_MAX_NFA_STATES: usize = 512;

/// Best-effort, bounded minimization of an NFA about to be compiled into
/// simulation form ([`CompactNfa`](crate::sim::CompactNfa)): trim
/// dead and unreachable states, then — if the automaton is small enough —
/// determinize with a state cap, minimize with Hopcroft's algorithm, and
/// adopt the result only when it is strictly smaller than the trimmed input.
///
/// The language is always preserved exactly; only the state count changes.
/// Fewer states mean fewer distinct state sets for a run's
/// [`SetTable`](crate::sim::SetTable) to intern and narrower `(node, state)`
/// rows in the reachability kernel. When determinization would
/// blow past the cap, the trimmed original is returned unchanged, so this is
/// safe to call unconditionally on the hot compile path.
pub fn reduce_for_tables<S: Clone + Eq + Hash + Ord>(nfa: &Nfa<S>) -> Nfa<S> {
    let trimmed = nfa.trim();
    let n = trimmed.num_states();
    if n == 0 || n > REDUCE_MAX_NFA_STATES {
        return trimmed;
    }
    let alphabet = trimmed.symbols_used();
    if alphabet.is_empty() {
        // Language ⊆ {ε}: trim already got it down to at most one state.
        return trimmed;
    }
    let cap = 4 * n + 64;
    let Some(dfa) = Dfa::from_nfa_bounded(&trimmed, &alphabet, cap) else {
        return trimmed;
    };
    // Trimming the minimal DFA drops its (non-coaccessible) reject sink.
    let reduced = dfa.minimize().to_nfa().trim();
    if reduced.num_states() < n {
        reduced
    } else {
        trimmed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ab_star() -> Nfa<u32> {
        let mut n = Nfa::new();
        let q0 = n.add_state();
        let q1 = n.add_state();
        n.add_initial(q0);
        n.set_accepting(q0, true);
        n.add_transition(q0, 0, q1);
        n.add_transition(q1, 1, q0);
        n
    }

    #[test]
    fn determinize_preserves_language() {
        let n = ab_star();
        let d = Dfa::from_nfa(&n, &[0, 1]);
        for w in [vec![], vec![0, 1], vec![0, 1, 0, 1], vec![0], vec![1, 0], vec![0, 0]] {
            assert_eq!(n.accepts(&w), d.accepts(&w), "word {w:?}");
        }
    }

    #[test]
    fn complement_flips_membership() {
        let n = ab_star();
        let c = Dfa::from_nfa(&n, &[0, 1]).complement();
        for w in [vec![], vec![0, 1], vec![0], vec![1], vec![0, 0, 1]] {
            assert_eq!(n.accepts(&w), !c.accepts(&w), "word {w:?}");
        }
    }

    #[test]
    fn minimize_keeps_language_and_shrinks() {
        // Build a redundant NFA for (0|1)* 1 (ends with 1).
        let mut n: Nfa<u32> = Nfa::new();
        let q0 = n.add_state();
        let q1 = n.add_state();
        n.add_initial(q0);
        n.set_accepting(q1, true);
        for c in 0..2 {
            n.add_transition(q0, c, q0);
        }
        n.add_transition(q0, 1, q1);
        let d = Dfa::from_nfa(&n, &[0, 1]);
        let m = d.minimize();
        assert!(m.num_states() <= d.num_states());
        for w in [vec![1], vec![0, 1], vec![1, 0], vec![0, 0], vec![]] {
            assert_eq!(d.accepts(&w), m.accepts(&w));
        }
    }

    #[test]
    fn subset_and_equivalence() {
        let ab = ab_star();
        // (ab)* ⊆ (a|b)*
        let mut all: Nfa<u32> = Nfa::new();
        let q = all.add_state();
        all.add_initial(q);
        all.set_accepting(q, true);
        all.add_transition(q, 0, q);
        all.add_transition(q, 1, q);
        assert!(language_subset(&ab, &all, &[0, 1]));
        assert!(!language_subset(&all, &ab, &[0, 1]));
        assert!(language_equivalent(&ab, &ab, &[0, 1]));
        assert!(!language_equivalent(&ab, &all, &[0, 1]));
    }

    #[test]
    fn hopcroft_reaches_the_minimal_dfa() {
        // L = words over {0,1} with a 1 in the third position from the end:
        // the NFA has 4 states, the minimal DFA famously needs 8.
        let mut n: Nfa<u32> = Nfa::new();
        let states: Vec<_> = (0..4).map(|_| n.add_state()).collect();
        n.add_initial(states[0]);
        n.set_accepting(states[3], true);
        for c in 0..2 {
            n.add_transition(states[0], c, states[0]);
            n.add_transition(states[1], c, states[2]);
            n.add_transition(states[2], c, states[3]);
        }
        n.add_transition(states[0], 1, states[1]);
        let d = Dfa::from_nfa(&n, &[0, 1]);
        let m = d.minimize();
        assert_eq!(m.num_states(), 8, "minimal DFA for 'third symbol from end is 1'");
        for w in [vec![1, 0, 0], vec![1, 1, 1], vec![0, 1, 0], vec![1, 0, 0, 0], vec![0, 0, 1]] {
            assert_eq!(n.accepts(&w), m.accepts(&w), "word {w:?}");
        }
        // Minimizing twice is a fixpoint.
        assert_eq!(m.minimize().num_states(), 8);
    }

    #[test]
    fn bounded_determinization_gives_up_cleanly() {
        let n = ab_star();
        assert!(Dfa::from_nfa_bounded(&n, &[0, 1], 1).is_none());
        let d = Dfa::from_nfa_bounded(&n, &[0, 1], 64).unwrap();
        assert!(d.accepts(&[0, 1, 0, 1]));
    }

    #[test]
    fn reduce_for_tables_preserves_language_and_shrinks_redundancy() {
        // A deliberately redundant NFA for (0|1)*1: duplicated accepting
        // branch plus a dead state that trim alone already removes.
        let mut n: Nfa<u32> = Nfa::new();
        let q0 = n.add_state();
        let q1 = n.add_state();
        let q2 = n.add_state();
        let dead = n.add_state();
        n.add_initial(q0);
        n.set_accepting(q1, true);
        n.set_accepting(q2, true);
        for c in 0..2 {
            n.add_transition(q0, c, q0);
            n.add_transition(q0, c, dead);
        }
        n.add_transition(q0, 1, q1);
        n.add_transition(q0, 1, q2);
        let r = reduce_for_tables(&n);
        assert!(r.num_states() < n.num_states(), "redundant NFA must shrink");
        for w in [vec![], vec![1], vec![0, 1], vec![1, 0], vec![0, 1, 1]] {
            assert_eq!(n.accepts(&w), r.accepts(&w), "word {w:?}");
        }
        // Already-minimal input comes back unchanged in size.
        let tight = reduce_for_tables(&r);
        assert_eq!(tight.num_states(), r.num_states());
    }

    #[test]
    fn dfa_emptiness() {
        let mut n: Nfa<u32> = Nfa::new();
        let q = n.add_state();
        n.add_initial(q);
        // no accepting states
        let d = Dfa::from_nfa(&n, &[0]);
        assert!(d.is_empty());
        assert!(!Dfa::from_nfa(&ab_star(), &[0, 1]).is_empty());
    }
}
