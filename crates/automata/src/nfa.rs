//! Nondeterministic finite automata, generic over the symbol type.
//!
//! The same NFA machinery is used for regular languages over Σ (symbol type
//! [`Symbol`](crate::alphabet::Symbol)) and for regular relations over
//! `(Σ⊥)^n` (symbol type [`TupleSym`](crate::alphabet::TupleSym)). Graph
//! databases are also viewed as NFAs without initial and final states
//! (Section 2 of the paper); that view lives in the `ecrpq-graph` crate and
//! produces values of this type.

use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::Hash;

/// Identifier of an NFA state (dense index).
pub type StateId = u32;

/// A nondeterministic finite automaton with ε-transitions.
#[derive(Clone, Debug)]
pub struct Nfa<S> {
    transitions: Vec<Vec<(S, StateId)>>,
    epsilon: Vec<Vec<StateId>>,
    initial: Vec<StateId>,
    accepting: Vec<bool>,
}

impl<S: Clone + Eq + Hash + Ord> Default for Nfa<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Clone + Eq + Hash + Ord> Nfa<S> {
    /// Creates an NFA with no states.
    pub fn new() -> Self {
        Nfa {
            transitions: Vec::new(),
            epsilon: Vec::new(),
            initial: Vec::new(),
            accepting: Vec::new(),
        }
    }

    /// Adds a fresh state and returns its id.
    pub fn add_state(&mut self) -> StateId {
        let id = self.transitions.len() as StateId;
        self.transitions.push(Vec::new());
        self.epsilon.push(Vec::new());
        self.accepting.push(false);
        id
    }

    /// Adds `n` fresh states and returns their ids.
    pub fn add_states(&mut self, n: usize) -> Vec<StateId> {
        (0..n).map(|_| self.add_state()).collect()
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.transitions.len()
    }

    /// Number of (labeled) transitions.
    pub fn num_transitions(&self) -> usize {
        self.transitions.iter().map(|t| t.len()).sum()
    }

    /// Marks a state as initial.
    pub fn add_initial(&mut self, q: StateId) {
        if !self.initial.contains(&q) {
            self.initial.push(q);
        }
    }

    /// Replaces the set of initial states.
    pub fn set_initial(&mut self, states: Vec<StateId>) {
        self.initial = states;
        self.initial.sort_unstable();
        self.initial.dedup();
    }

    /// Marks a state as accepting or not.
    pub fn set_accepting(&mut self, q: StateId, accepting: bool) {
        self.accepting[q as usize] = accepting;
    }

    /// Adds a labeled transition.
    pub fn add_transition(&mut self, from: StateId, sym: S, to: StateId) {
        self.transitions[from as usize].push((sym, to));
    }

    /// Adds an ε-transition.
    pub fn add_epsilon(&mut self, from: StateId, to: StateId) {
        if from != to {
            self.epsilon[from as usize].push(to);
        }
    }

    /// Normalizes the transition lists in place: sorts each state's labeled
    /// transitions and ε-transitions and removes duplicates. Product
    /// constructions such as [`Nfa::intersect`] can insert the same
    /// `(symbol, target)` arc many times (once per ε-closure pair that
    /// produced it); deduplicating keeps [`Nfa::num_transitions`] honest and
    /// every downstream transition scan proportional to the number of
    /// *distinct* arcs. The language is unchanged.
    pub fn compact(&mut self) {
        for ts in &mut self.transitions {
            ts.sort_unstable();
            ts.dedup();
        }
        for eps in &mut self.epsilon {
            eps.sort_unstable();
            eps.dedup();
        }
    }

    /// The initial states.
    pub fn initial(&self) -> &[StateId] {
        &self.initial
    }

    /// True if `q` is accepting.
    pub fn is_accepting(&self, q: StateId) -> bool {
        self.accepting[q as usize]
    }

    /// All accepting states.
    pub fn accepting_states(&self) -> Vec<StateId> {
        (0..self.num_states() as StateId).filter(|&q| self.is_accepting(q)).collect()
    }

    /// Outgoing labeled transitions of a state.
    pub fn transitions_from(&self, q: StateId) -> &[(S, StateId)] {
        &self.transitions[q as usize]
    }

    /// Outgoing ε-transitions of a state.
    pub fn epsilon_from(&self, q: StateId) -> &[StateId] {
        &self.epsilon[q as usize]
    }

    /// Iterates over all labeled transitions `(from, symbol, to)`.
    pub fn all_transitions(&self) -> impl Iterator<Item = (StateId, &S, StateId)> + '_ {
        self.transitions
            .iter()
            .enumerate()
            .flat_map(|(q, ts)| ts.iter().map(move |(s, to)| (q as StateId, s, *to)))
    }

    /// The set of distinct symbols appearing on transitions.
    pub fn symbols_used(&self) -> Vec<S> {
        let mut set: Vec<S> =
            self.transitions.iter().flat_map(|ts| ts.iter().map(|(s, _)| s.clone())).collect();
        set.sort();
        set.dedup();
        set
    }

    /// ε-closure of a set of states.
    pub fn epsilon_closure(&self, states: &[StateId]) -> Vec<StateId> {
        let mut seen: HashSet<StateId> = states.iter().copied().collect();
        let mut stack: Vec<StateId> = states.to_vec();
        while let Some(q) = stack.pop() {
            for &r in self.epsilon_from(q) {
                if seen.insert(r) {
                    stack.push(r);
                }
            }
        }
        let mut out: Vec<StateId> = seen.into_iter().collect();
        out.sort_unstable();
        out
    }

    /// ε-closures of every state, computed in one pass with a shared stamp
    /// array (no per-call hashing). Used by the product construction.
    fn all_epsilon_closures(&self) -> Vec<Vec<StateId>> {
        let n = self.num_states();
        let mut stamp: Vec<u32> = vec![u32::MAX; n];
        let mut stack: Vec<StateId> = Vec::new();
        let mut out = Vec::with_capacity(n);
        for q in 0..n as StateId {
            let mut closure = vec![q];
            stamp[q as usize] = q;
            stack.push(q);
            while let Some(p) = stack.pop() {
                for &r in self.epsilon_from(p) {
                    if stamp[r as usize] != q {
                        stamp[r as usize] = q;
                        closure.push(r);
                        stack.push(r);
                    }
                }
            }
            closure.sort_unstable();
            out.push(closure);
        }
        out
    }

    /// Per-state transition lists sorted by symbol, for merge-joins in the
    /// product construction.
    fn sorted_transitions(&self) -> Vec<Vec<(S, StateId)>> {
        self.transitions
            .iter()
            .map(|ts| {
                let mut v = ts.clone();
                v.sort_unstable();
                v
            })
            .collect()
    }

    /// One simulation step: all states reachable from `states` by reading
    /// `sym` and then taking ε-transitions.
    pub fn step(&self, states: &[StateId], sym: &S) -> Vec<StateId> {
        let mut next: Vec<StateId> = Vec::new();
        for &q in states {
            for (s, to) in self.transitions_from(q) {
                if s == sym {
                    next.push(*to);
                }
            }
        }
        next.sort_unstable();
        next.dedup();
        self.epsilon_closure(&next)
    }

    /// True if the automaton accepts the given word.
    pub fn accepts(&self, word: &[S]) -> bool {
        let mut current = self.epsilon_closure(&self.initial);
        for sym in word {
            if current.is_empty() {
                return false;
            }
            current = self.step(&current, sym);
        }
        current.iter().any(|&q| self.is_accepting(q))
    }

    /// True if the language of the automaton is empty.
    pub fn is_empty(&self) -> bool {
        self.shortest_word().is_none()
    }

    /// Returns a shortest accepted word, if any (BFS over states, with a
    /// dense backtracking table).
    pub fn shortest_word(&self) -> Option<Vec<S>> {
        let n = self.num_states();
        let mut back: Vec<Option<Back<S>>> = (0..n).map(|_| None).collect();
        let mut queue: VecDeque<StateId> = VecDeque::new();
        let start = self.epsilon_closure(&self.initial);
        for &q in &start {
            if self.is_accepting(q) {
                return Some(Vec::new());
            }
        }
        for &q in &start {
            back[q as usize] = Some(Back { prev: q, sym: None });
            queue.push_back(q);
        }
        while let Some(q) = queue.pop_front() {
            // ε first so words stay shortest: ε does not add a symbol, so a
            // plain BFS over the graph with ε edges of weight 0 would need a
            // 0/1 BFS; we instead expand ε-closures eagerly when stepping.
            for (s, to) in self.transitions_from(q).iter() {
                for r in self.epsilon_closure(&[*to]) {
                    if back[r as usize].is_none() {
                        back[r as usize] = Some(Back { prev: q, sym: Some(s.clone()) });
                        if self.is_accepting(r) {
                            return Some(Self::reconstruct(&back, r));
                        }
                        queue.push_back(r);
                    }
                }
            }
            for &to in self.epsilon_from(q) {
                if back[to as usize].is_none() {
                    back[to as usize] = Some(Back { prev: q, sym: None });
                    if self.is_accepting(to) {
                        return Some(Self::reconstruct(&back, to));
                    }
                    queue.push_back(to);
                }
            }
        }
        None
    }

    fn reconstruct(back: &[Option<Back<S>>], mut q: StateId) -> Vec<S> {
        let mut word = Vec::new();
        loop {
            let b = back[q as usize].as_ref().expect("backtracking chain is complete");
            if let Some(s) = &b.sym {
                word.push(s.clone());
            }
            if b.prev == q {
                break;
            }
            q = b.prev;
        }
        word.reverse();
        word
    }

    /// Enumerates accepted words of length at most `max_len`, up to `limit`
    /// words, in order of increasing length. Useful for canonical databases
    /// and tests; exponential in general, so keep the bounds small.
    pub fn enumerate_words(&self, max_len: usize, limit: usize) -> Vec<Vec<S>> {
        let mut out = Vec::new();
        if limit == 0 {
            return out;
        }
        let symbols = self.symbols_used();
        // BFS over (word, state-set) pairs by length.
        let start = self.epsilon_closure(&self.initial);
        let mut frontier: Vec<(Vec<S>, Vec<StateId>)> = vec![(Vec::new(), start)];
        for len in 0..=max_len {
            for (word, states) in &frontier {
                debug_assert_eq!(word.len(), len);
                if states.iter().any(|&q| self.is_accepting(q)) {
                    out.push(word.clone());
                    if out.len() >= limit {
                        return out;
                    }
                }
            }
            if len == max_len {
                break;
            }
            let mut next = Vec::new();
            for (word, states) in &frontier {
                for sym in &symbols {
                    let ns = self.step(states, sym);
                    if !ns.is_empty() {
                        let mut w = word.clone();
                        w.push(sym.clone());
                        next.push((w, ns));
                    }
                }
            }
            frontier = next;
        }
        out
    }

    /// Dense forward-reachability flags (labeled and ε-transitions).
    fn reachable_flags(&self) -> Vec<bool> {
        let n = self.num_states();
        let mut seen = vec![false; n];
        let mut stack: Vec<StateId> = self.initial.clone();
        for &q in &self.initial {
            seen[q as usize] = true;
        }
        while let Some(q) = stack.pop() {
            for (_, to) in self.transitions_from(q) {
                if !seen[*to as usize] {
                    seen[*to as usize] = true;
                    stack.push(*to);
                }
            }
            for &to in self.epsilon_from(q) {
                if !seen[to as usize] {
                    seen[to as usize] = true;
                    stack.push(to);
                }
            }
        }
        seen
    }

    /// Dense backward-reachability flags (states that reach acceptance).
    fn coreachable_flags(&self) -> Vec<bool> {
        // Build reverse adjacency once.
        let n = self.num_states();
        let mut rev: Vec<Vec<StateId>> = vec![Vec::new(); n];
        for (q, _, to) in self.all_transitions() {
            rev[to as usize].push(q);
        }
        for (q, eps) in self.epsilon.iter().enumerate() {
            for &to in eps {
                rev[to as usize].push(q as StateId);
            }
        }
        let mut seen = vec![false; n];
        let mut stack: Vec<StateId> = Vec::new();
        for q in 0..n as StateId {
            if self.is_accepting(q) {
                seen[q as usize] = true;
                stack.push(q);
            }
        }
        while let Some(q) = stack.pop() {
            for &p in &rev[q as usize] {
                if !seen[p as usize] {
                    seen[p as usize] = true;
                    stack.push(p);
                }
            }
        }
        seen
    }

    /// Removes states that are unreachable or cannot reach an accepting
    /// state, renumbering the rest. The language is unchanged.
    pub fn trim(&self) -> Nfa<S> {
        let n = self.num_states();
        let reach = self.reachable_flags();
        let coreach = self.coreachable_flags();
        let mut map: Vec<StateId> = vec![StateId::MAX; n];
        let mut out = Nfa::new();
        for q in 0..n {
            if reach[q] && coreach[q] {
                let nq = out.add_state();
                map[q] = nq;
                out.set_accepting(nq, self.is_accepting(q as StateId));
            }
        }
        for q in 0..n {
            let nq = map[q];
            if nq == StateId::MAX {
                continue;
            }
            for (s, to) in self.transitions_from(q as StateId) {
                if map[*to as usize] != StateId::MAX {
                    out.add_transition(nq, s.clone(), map[*to as usize]);
                }
            }
            for &to in self.epsilon_from(q as StateId) {
                if map[to as usize] != StateId::MAX {
                    out.add_epsilon(nq, map[to as usize]);
                }
            }
        }
        for &q in &self.initial {
            if map[q as usize] != StateId::MAX {
                out.add_initial(map[q as usize]);
            }
        }
        out
    }

    /// Applies a function to every transition symbol, keeping the state
    /// structure. Symbols mapped to `None` become ε-transitions. This is how
    /// relation automata are projected onto a subset of their tapes.
    pub fn map_symbols<T, F>(&self, mut f: F) -> Nfa<T>
    where
        T: Clone + Eq + Hash + Ord,
        F: FnMut(&S) -> Option<T>,
    {
        let mut out: Nfa<T> = Nfa::new();
        out.add_states(self.num_states());
        for q in 0..self.num_states() as StateId {
            out.set_accepting(q, self.is_accepting(q));
            for (s, to) in self.transitions_from(q) {
                match f(s) {
                    Some(t) => out.add_transition(q, t, *to),
                    None => out.add_epsilon(q, *to),
                }
            }
            for &to in self.epsilon_from(q) {
                out.add_epsilon(q, to);
            }
        }
        out.set_initial(self.initial.clone());
        out
    }

    /// Language union: disjoint union of the automata.
    pub fn union(&self, other: &Nfa<S>) -> Nfa<S> {
        let mut out = self.clone();
        let offset = out.num_states() as StateId;
        for _ in 0..other.num_states() {
            out.add_state();
        }
        for q in 0..other.num_states() as StateId {
            out.set_accepting(q + offset, other.is_accepting(q));
            for (s, to) in other.transitions_from(q) {
                out.add_transition(q + offset, s.clone(), *to + offset);
            }
            for &to in other.epsilon_from(q) {
                out.add_epsilon(q + offset, to + offset);
            }
        }
        for &q in other.initial() {
            out.add_initial(q + offset);
        }
        out
    }

    /// Language concatenation.
    pub fn concat(&self, other: &Nfa<S>) -> Nfa<S> {
        let mut out = self.clone();
        let offset = out.num_states() as StateId;
        for _ in 0..other.num_states() {
            out.add_state();
        }
        for q in 0..other.num_states() as StateId {
            out.set_accepting(q + offset, other.is_accepting(q));
            for (s, to) in other.transitions_from(q) {
                out.add_transition(q + offset, s.clone(), *to + offset);
            }
            for &to in other.epsilon_from(q) {
                out.add_epsilon(q + offset, to + offset);
            }
        }
        let accepting_left: Vec<StateId> = (0..offset).filter(|&q| out.is_accepting(q)).collect();
        for q in accepting_left {
            out.set_accepting(q, false);
            for &i in other.initial() {
                out.add_epsilon(q, i + offset);
            }
        }
        out
    }

    /// Kleene star of the language.
    pub fn star(&self) -> Nfa<S> {
        let mut out = self.clone();
        let new_start = out.add_state();
        out.set_accepting(new_start, true);
        for &q in &self.initial.clone() {
            out.add_epsilon(new_start, q);
        }
        for q in 0..self.num_states() as StateId {
            if self.is_accepting(q) {
                out.add_epsilon(q, new_start);
            }
        }
        out.set_initial(vec![new_start]);
        out
    }

    /// Kleene plus of the language (one or more repetitions).
    pub fn plus(&self) -> Nfa<S> {
        self.concat(&self.star())
    }

    /// Language reversal.
    pub fn reverse(&self) -> Nfa<S> {
        let mut out: Nfa<S> = Nfa::new();
        out.add_states(self.num_states());
        for (q, s, to) in self.all_transitions() {
            out.add_transition(to, s.clone(), q);
        }
        for (q, eps) in self.epsilon.iter().enumerate() {
            for &to in eps {
                out.add_epsilon(to, q as StateId);
            }
        }
        out.set_initial(self.accepting_states());
        for &q in &self.initial {
            out.set_accepting(q, true);
        }
        out
    }

    /// Product (language intersection) of two NFAs over the same symbol type.
    /// Built lazily over reachable state pairs: ε-closures are precomputed
    /// once per operand, transitions are matched by a merge-join over
    /// symbol-sorted lists, and state pairs are interned through a dense
    /// index table whenever the product space fits (hashing only as the
    /// fallback for very large operands).
    pub fn intersect(&self, other: &Nfa<S>) -> Nfa<S> {
        let mut out: Nfa<S> = Nfa::new();
        let na = self.num_states();
        let nb = other.num_states();
        if na == 0 || nb == 0 {
            return out;
        }
        let ca = self.all_epsilon_closures();
        let cb = other.all_epsilon_closures();
        let ta = self.sorted_transitions();
        let tb = other.sorted_transitions();

        // Pair interner: dense table below ~4M pairs, hash map above.
        let use_dense = na.saturating_mul(nb) <= (1 << 22);
        let mut dense: Vec<StateId> =
            if use_dense { vec![StateId::MAX; na * nb] } else { Vec::new() };
        let mut sparse: HashMap<(StateId, StateId), StateId> = HashMap::new();
        let mut queue: VecDeque<(StateId, StateId)> = VecDeque::new();

        #[allow(clippy::too_many_arguments)]
        fn pair_id<S: Clone + Eq + Hash + Ord>(
            a: StateId,
            b: StateId,
            nb: usize,
            dense: &mut [StateId],
            sparse: &mut HashMap<(StateId, StateId), StateId>,
            out: &mut Nfa<S>,
            queue: &mut VecDeque<(StateId, StateId)>,
            accepting: bool,
        ) -> StateId {
            let existing = if dense.is_empty() {
                sparse.get(&(a, b)).copied()
            } else {
                let slot = dense[a as usize * nb + b as usize];
                (slot != StateId::MAX).then_some(slot)
            };
            if let Some(id) = existing {
                return id;
            }
            let id = out.add_state();
            out.set_accepting(id, accepting);
            if dense.is_empty() {
                sparse.insert((a, b), id);
            } else {
                dense[a as usize * nb + b as usize] = id;
            }
            queue.push_back((a, b));
            id
        }

        let left_init = self.epsilon_closure(&self.initial);
        let right_init = other.epsilon_closure(&other.initial);
        for &a in &left_init {
            for &b in &right_init {
                let acc = self.is_accepting(a) && other.is_accepting(b);
                let q = pair_id(a, b, nb, &mut dense, &mut sparse, &mut out, &mut queue, acc);
                out.add_initial(q);
            }
        }
        while let Some((a, b)) = queue.pop_front() {
            let from =
                if use_dense { dense[a as usize * nb + b as usize] } else { sparse[&(a, b)] };
            // Merge-join the symbol-sorted transition lists.
            let (la, lb) = (&ta[a as usize], &tb[b as usize]);
            let (mut i, mut j) = (0, 0);
            while i < la.len() && j < lb.len() {
                match la[i].0.cmp(&lb[j].0) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        let sym = &la[i].0;
                        let i2 = la[i..].iter().take_while(|(s, _)| s == sym).count() + i;
                        let j2 = lb[j..].iter().take_while(|(s, _)| s == sym).count() + j;
                        for (_, x) in &la[i..i2] {
                            for (_, y) in &lb[j..j2] {
                                // Move through ε-closures on both sides.
                                for &cx in &ca[*x as usize] {
                                    for &cy in &cb[*y as usize] {
                                        let acc = self.is_accepting(cx) && other.is_accepting(cy);
                                        let to = pair_id(
                                            cx,
                                            cy,
                                            nb,
                                            &mut dense,
                                            &mut sparse,
                                            &mut out,
                                            &mut queue,
                                            acc,
                                        );
                                        out.add_transition(from, sym.clone(), to);
                                    }
                                }
                            }
                        }
                        i = i2;
                        j = j2;
                    }
                }
            }
        }
        // The ε-closure double loop above inserts one arc per closure pair,
        // so the same (symbol, target) arc can appear many times.
        out.compact();
        // The lazy construction only ever creates forward-reachable product
        // states, but many of them cannot reach an accepting pair (one side
        // dies); co-trim so downstream consumers (and the table-building
        // minimizer) see a fully trimmed product. When every product state
        // is already alive (intersections of total automata, e.g. counting
        // languages) skip the renumbering rebuild — prepare-time hot path.
        if out.coreachable_flags().iter().all(|&c| c) {
            return out;
        }
        out.trim()
    }
}

/// Backtracking record used by `shortest_word`.
struct Back<S> {
    prev: StateId,
    sym: Option<S>,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds an NFA accepting exactly the given word.
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

    /// NFA for (ab)* over symbols 0=a, 1=b.
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
    fn accepts_basic() {
        let n = ab_star();
        assert!(n.accepts(&[]));
        assert!(n.accepts(&[0, 1]));
        assert!(n.accepts(&[0, 1, 0, 1]));
        assert!(!n.accepts(&[0]));
        assert!(!n.accepts(&[1, 0]));
    }

    #[test]
    fn union_concat_star() {
        let a = word_nfa(&[0]);
        let b = word_nfa(&[1]);
        let u = a.union(&b);
        assert!(u.accepts(&[0]) && u.accepts(&[1]) && !u.accepts(&[0, 1]));
        let c = a.concat(&b);
        assert!(c.accepts(&[0, 1]) && !c.accepts(&[0]) && !c.accepts(&[1]));
        let s = c.star();
        assert!(s.accepts(&[]) && s.accepts(&[0, 1, 0, 1]) && !s.accepts(&[0, 1, 0]));
        let p = c.plus();
        assert!(!p.accepts(&[]) && p.accepts(&[0, 1]) && p.accepts(&[0, 1, 0, 1]));
    }

    #[test]
    fn intersect_languages() {
        // (ab)* ∩ strings of length 4 = {abab}
        let mut len4 = Nfa::new();
        let states = len4.add_states(5);
        len4.add_initial(states[0]);
        len4.set_accepting(states[4], true);
        for i in 0..4 {
            for c in 0..2u32 {
                len4.add_transition(states[i], c, states[i + 1]);
            }
        }
        let inter = ab_star().intersect(&len4);
        assert!(inter.accepts(&[0, 1, 0, 1]));
        assert!(!inter.accepts(&[0, 1]));
        assert!(!inter.accepts(&[1, 0, 1, 0]));
        assert_eq!(inter.shortest_word().unwrap().len(), 4);
    }

    #[test]
    fn shortest_word_and_emptiness() {
        let n = ab_star();
        assert_eq!(n.shortest_word().unwrap(), Vec::<u32>::new());
        let w = word_nfa(&[0, 1, 0]);
        assert_eq!(w.shortest_word().unwrap(), vec![0, 1, 0]);
        // empty language
        let mut e: Nfa<u32> = Nfa::new();
        let q = e.add_state();
        e.add_initial(q);
        assert!(e.is_empty());
        assert!(e.shortest_word().is_none());
    }

    #[test]
    fn enumerate_words_in_length_order() {
        let n = ab_star();
        let words = n.enumerate_words(6, 10);
        assert_eq!(words[0], Vec::<u32>::new());
        assert_eq!(words[1], vec![0, 1]);
        assert_eq!(words[2], vec![0, 1, 0, 1]);
        assert_eq!(words.len(), 4);
    }

    #[test]
    fn reverse_language() {
        let n = word_nfa(&[0, 0, 1]);
        let r = n.reverse();
        assert!(r.accepts(&[1, 0, 0]));
        assert!(!r.accepts(&[0, 0, 1]));
    }

    #[test]
    fn trim_removes_dead_states() {
        let mut n = word_nfa(&[0, 1]);
        // add an unreachable state and a dead-end state
        let dead = n.add_state();
        n.add_transition(0, 5, dead);
        let _unreach = n.add_state();
        let before = n.num_states();
        let t = n.trim();
        assert!(t.num_states() < before);
        assert!(t.accepts(&[0, 1]));
        assert!(!t.accepts(&[5]));
    }

    #[test]
    fn map_symbols_projection() {
        // Map symbol 0 -> 7, drop symbol 1 to ε.
        let n = word_nfa(&[0, 1, 0]);
        let m = n.map_symbols(|&s| if s == 0 { Some(7u32) } else { None });
        assert!(m.accepts(&[7, 7]));
        assert!(!m.accepts(&[7]));
    }

    #[test]
    fn compact_dedups_transitions() {
        let mut n: Nfa<u32> = Nfa::new();
        let q0 = n.add_state();
        let q1 = n.add_state();
        n.add_initial(q0);
        n.set_accepting(q1, true);
        for _ in 0..5 {
            n.add_transition(q0, 0, q1);
            n.add_epsilon(q0, q1);
        }
        assert_eq!(n.num_transitions(), 5);
        n.compact();
        assert_eq!(n.num_transitions(), 1);
        assert_eq!(n.epsilon_from(q0).len(), 1);
        assert!(n.accepts(&[0]) && n.accepts(&[]));
    }

    #[test]
    fn intersect_output_has_no_duplicate_arcs() {
        // aa over a 2-symbol alphabet, intersected with itself after star —
        // the ε-closure pairs in the product would otherwise duplicate arcs.
        let a = word_nfa(&[0]).star();
        let product = a.intersect(&a);
        let mut seen = std::collections::HashSet::new();
        for (q, s, to) in product.all_transitions() {
            assert!(seen.insert((q, *s, to)), "duplicate arc ({q}, {s:?}, {to})");
        }
    }

    #[test]
    fn epsilon_closure_and_star_interaction() {
        let a = word_nfa(&[0]);
        let s = a.star();
        assert!(s.accepts(&[0, 0, 0]));
        assert!(!s.accepts(&[1]));
        let closure = s.epsilon_closure(s.initial());
        assert!(closure.len() >= 2);
    }
}
