//! Asynchronous two-tape transducers and their synchronization into
//! letter-to-letter automata.
//!
//! The paper (Section 4) uses the fact that rational relations of bounded
//! delay are regular (Frougny & Sakarovitch) to obtain the bounded
//! edit-distance relation `D≤k` as a regular relation. We implement exactly
//! that route: an asynchronous transducer whose moves consume a symbol on
//! either tape independently, plus a synchronization construction that turns
//! any such transducer with delay at most `k` into a synchronous automaton
//! over `(Σ⊥)^2` by buffering at most `k` lagging symbols per tape.
//!
//! A configuration of the construction is a transducer state, each tape's
//! buffer (symbols read but not yet consumed) and each tape's end flag.
//! Buffers are interned in an append-only table: an id names a buffer, its
//! entry holds the head symbol and the id left after popping the head, and a
//! map `(id, symbol) → id` gives push-back. A configuration therefore packs
//! into one `u128` key, a pop is one load and a push one lookup. States are
//! discovered breadth first. Reading a letter pushes it onto the buffers;
//! the successors are the configurations reached from there by moves that
//! consume buffered symbols (a depth-first closure that looks up only the
//! moves the buffer heads allow), kept when neither buffer exceeds the
//! bound. The integer arcs are trimmed to co-reachable states before the
//! automaton is emitted, so the numbering depends on nothing but the
//! transducer.

use crate::alphabet::{Alphabet, Symbol, TupleSym};
use crate::nfa::{Nfa, StateId};
use crate::relation::{TooLarge, RELATION_BUDGET};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// One transducer move: the symbol consumed on each tape (`None` = no
/// consumption on that tape) and the successor state.
type Move = (Option<Symbol>, Option<Symbol>, StateId);

/// An asynchronous two-tape automaton (transducer without output — it simply
/// accepts pairs of words). A move may consume a symbol on either tape, both,
/// or neither.
#[derive(Clone, Debug)]
pub struct Transducer2 {
    transitions: Vec<Vec<Move>>,
    initial: Vec<StateId>,
    accepting: Vec<bool>,
}

impl Default for Transducer2 {
    fn default() -> Self {
        Self::new()
    }
}

impl Transducer2 {
    /// Creates an empty transducer.
    pub fn new() -> Self {
        Transducer2 { transitions: Vec::new(), initial: Vec::new(), accepting: Vec::new() }
    }

    /// Adds a fresh state.
    pub fn add_state(&mut self) -> StateId {
        let id = self.transitions.len() as StateId;
        self.transitions.push(Vec::new());
        self.accepting.push(false);
        id
    }

    /// Marks a state as initial.
    pub fn add_initial(&mut self, q: StateId) {
        if !self.initial.contains(&q) {
            self.initial.push(q);
        }
    }

    /// Marks a state as accepting.
    pub fn set_accepting(&mut self, q: StateId, accepting: bool) {
        self.accepting[q as usize] = accepting;
    }

    /// Adds a move consuming `on0` from the first tape and `on1` from the
    /// second tape (`None` consumes nothing on that tape).
    pub fn add_move(
        &mut self,
        from: StateId,
        on0: Option<Symbol>,
        on1: Option<Symbol>,
        to: StateId,
    ) {
        self.transitions[from as usize].push((on0, on1, to));
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.transitions.len()
    }

    /// Direct acceptance test for a pair of words (used to validate the
    /// synchronization in tests). Explores (state, i, j) configurations.
    pub fn accepts(&self, w0: &[Symbol], w1: &[Symbol]) -> bool {
        let (n0, n1) = (w0.len() + 1, w1.len() + 1);
        let index = |q: StateId, i: usize, j: usize| (q as usize * n0 + i) * n1 + j;
        let mut seen = vec![false; self.num_states() * n0 * n1];
        let mut stack: Vec<(StateId, usize, usize)> = Vec::new();
        for &q in &self.initial {
            stack.push((q, 0, 0));
            seen[index(q, 0, 0)] = true;
        }
        while let Some((q, i, j)) = stack.pop() {
            if i == w0.len() && j == w1.len() && self.accepting[q as usize] {
                return true;
            }
            for (on0, on1, to) in &self.transitions[q as usize] {
                let ni = match on0 {
                    Some(s) => {
                        if i < w0.len() && w0[i] == *s {
                            i + 1
                        } else {
                            continue;
                        }
                    }
                    None => i,
                };
                let nj = match on1 {
                    Some(s) => {
                        if j < w1.len() && w1[j] == *s {
                            j + 1
                        } else {
                            continue;
                        }
                    }
                    None => j,
                };
                if !std::mem::replace(&mut seen[index(*to, ni, nj)], true) {
                    stack.push((*to, ni, nj));
                }
            }
        }
        false
    }

    /// Synchronizes the transducer into a letter-to-letter automaton over
    /// `(Σ⊥)^2`, assuming the transducer has delay at most `delay_bound`
    /// (the difference between the two tape positions never needs to exceed
    /// it on accepting runs). The result accepts exactly the convolutions of
    /// accepted pairs whose runs respect that delay bound. Its states are
    /// numbered in discovery order, so equal transducers give equal
    /// automata. Stops with [`TooLarge`] as soon as the states and
    /// transitions found pass [`RELATION_BUDGET`].
    pub fn synchronize(&self, delay_bound: usize) -> Result<Nfa<TupleSym>, TooLarge> {
        // All symbols that the transducer can ever consume; the synchronized
        // automaton's alphabet is derived from the convolution letters seen.
        // The construction works on their indices in this list.
        let mut symbols: Vec<Symbol> =
            self.transitions.iter().flatten().flat_map(|&(a, b, _)| [a, b]).flatten().collect();
        symbols.sort();
        symbols.dedup();

        // Convolution letters: (x, y) with x, y ∈ Σ ∪ {⊥}, not both ⊥, in
        // `TupleSym` order (⊥ first), so that each state's transitions come
        // out sorted by letter.
        let padded: Vec<Option<u32>> =
            [None].into_iter().chain((0..symbols.len() as u32).map(Some)).collect();
        let letters: Vec<[Option<u32>; 2]> = padded
            .iter()
            .flat_map(|&x| padded.iter().map(move |&y| [x, y]))
            .filter(|&[x, y]| x.is_some() || y.is_some())
            .collect();

        let mut sync = Synchronizer {
            moves: MoveIndex::new(self, &symbols),
            delay_bound,
            buffers: Buffers::new(),
            ids: KeyMap::default(),
            configs: Vec::new(),
            suffixes: [Vec::new(), Vec::new()],
            visited: Vec::new(),
            round: 0,
            stack: Vec::new(),
            found: Vec::new(),
        };
        // Initial configurations: closure of the transducer's initial states
        // with empty buffers.
        let mut initial: Vec<StateId> = Vec::new();
        for &q in &self.initial {
            sync.closure(ConfigKey::new(q, [EMPTY; 2], [false; 2]));
            initial.extend_from_slice(&sync.found);
        }
        // Arcs `(from, letter index, to)`, grouped by `from` in state order.
        let mut arcs: Vec<(StateId, u32, StateId)> = Vec::new();
        let mut from = 0;
        while from < sync.configs.len() {
            let cfg = sync.configs[from];
            for (li, &letter) in letters.iter().enumerate() {
                if let Some(base) = sync.read(cfg, letter) {
                    sync.closure(base);
                    arcs.extend(sync.found.iter().map(|&to| (from as StateId, li as u32, to)));
                }
            }
            if sync.configs.len() + arcs.len() > RELATION_BUDGET {
                return Err(TooLarge);
            }
            from += 1;
        }

        let accepting: Vec<bool> = sync
            .configs
            .iter()
            .map(|c| c.bufs() == [EMPTY; 2] && self.accepting[c.state() as usize])
            .collect();
        let live = coreachable(&arcs, &accepting);
        let mut nfa: Nfa<TupleSym> = Nfa::new();
        let mut renumber = vec![StateId::MAX; live.len()];
        for q in (0..live.len()).filter(|&q| live[q]) {
            renumber[q] = nfa.add_state();
            nfa.set_accepting(renumber[q], accepting[q]);
        }
        let tuples: Vec<TupleSym> = letters
            .iter()
            .map(|l| TupleSym::new(l.iter().map(|x| x.map(|i| symbols[i as usize])).collect()))
            .collect();
        // An arc into a co-reachable state starts at one.
        for &(from, letter, to) in arcs.iter().filter(|&&(_, _, to)| live[to as usize]) {
            nfa.add_transition(
                renumber[from as usize],
                tuples[letter as usize].clone(),
                renumber[to as usize],
            );
        }
        for q in initial.into_iter().filter(|&q| live[q as usize]) {
            nfa.add_initial(renumber[q as usize]);
        }
        Ok(nfa)
    }
}

/// The states from which an accepting state is reachable along `arcs`,
/// found backwards over the arcs grouped by target.
fn coreachable(arcs: &[(StateId, u32, StateId)], accepting: &[bool]) -> Vec<bool> {
    let (start, preds) =
        group_by_key(accepting.len(), arcs.iter().map(|&(from, _, to)| (to as usize, from)));
    let mut live = accepting.to_vec();
    let mut stack: Vec<usize> = (0..live.len()).filter(|&q| live[q]).collect();
    while let Some(q) = stack.pop() {
        for &p in &preds[start[q]..start[q + 1]] {
            if !std::mem::replace(&mut live[p as usize], true) {
                stack.push(p as usize);
            }
        }
    }
    live
}

/// Groups `(key, value)` pairs whose keys are below `keys` in CSR form: the
/// values of key `g`, in input order, are `values[start[g]..start[g + 1]]`.
fn group_by_key(
    keys: usize,
    pairs: impl Iterator<Item = (usize, StateId)> + Clone,
) -> (Vec<usize>, Vec<StateId>) {
    let mut start = vec![0; keys + 1];
    for (key, _) in pairs.clone() {
        start[key + 1] += 1;
    }
    for g in 0..keys {
        start[g + 1] += start[g];
    }
    let mut fill = start.clone();
    let mut values = vec![0; start[keys]];
    for (key, value) in pairs {
        values[fill[key]] = value;
        fill[key] += 1;
    }
    (start, values)
}

/// A transducer's moves grouped by state and by what they consume, so that
/// a configuration looks up only the moves its buffer heads allow.
struct MoveIndex {
    /// Symbol indices per tape, the last of which consumes nothing.
    width: usize,
    /// Group `(q · width + a) · width + b` holds the targets of the moves
    /// from `q` that consume `a` on tape 0 and `b` on tape 1.
    start: Vec<usize>,
    targets: Vec<StateId>,
}

impl MoveIndex {
    fn new(t: &Transducer2, symbols: &[Symbol]) -> Self {
        let width = symbols.len() + 1;
        let index = move |on: Option<Symbol>| {
            on.map_or(width - 1, |s| symbols.binary_search(&s).expect("every consumed symbol"))
        };
        let moves = t.transitions.iter().enumerate().flat_map(|(q, moves)| {
            moves.iter().map(move |&(a, b, to)| ((q * width + index(a)) * width + index(b), to))
        });
        let (start, targets) = group_by_key(t.num_states() * width * width, moves);
        MoveIndex { width, start, targets }
    }

    fn num_states(&self) -> usize {
        (self.start.len() - 1) / (self.width * self.width)
    }

    /// The index that consumes nothing.
    fn nothing(&self) -> u32 {
        (self.width - 1) as u32
    }

    /// The targets of the moves from `q` that consume `on` (symbol indices).
    fn targets(&self, q: StateId, on: [u32; 2]) -> &[StateId] {
        let g = (q as usize * self.width + on[0] as usize) * self.width + on[1] as usize;
        &self.targets[self.start[g]..self.start[g + 1]]
    }
}

/// Hashes the construction's integer keys: a multiply-rotate step per
/// 8-byte word, then murmur3's 64-bit finalizer. The keys are made by the
/// construction, not read from outside the program, so SipHash's resistance
/// to crafted collisions buys nothing here.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.0 = (self.0.rotate_left(26) ^ u64::from_ne_bytes(word))
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn finish(&self) -> u64 {
        let z = (self.0 ^ (self.0 >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        let z = (z ^ (z >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        z ^ (z >> 33)
    }
}

type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<KeyHasher>>;

/// Id of the empty buffer.
const EMPTY: u32 = 0;

/// Interned tape buffers. An id names a sequence of symbol indices; ids are
/// handed out in creation order and never reused.
struct Buffers {
    /// Per id: the head symbol and the id left after popping it. Entry
    /// `EMPTY` is a placeholder that is never read.
    entries: Vec<(u32, u32)>,
    /// `(id, symbol)` → the id of that buffer with `symbol` appended.
    pushed: KeyMap<(u32, u32), u32>,
}

impl Buffers {
    fn new() -> Self {
        Buffers { entries: vec![(0, EMPTY)], pushed: KeyMap::default() }
    }

    /// The head of buffer `id` and the id left after popping it, or `None`
    /// for the empty buffer.
    fn pop(&self, id: u32) -> Option<(u32, u32)> {
        (id != EMPTY).then(|| self.entries[id as usize])
    }

    /// The id of buffer `id` with `s` appended. A new buffer `c·w·s` has
    /// head `c` and tail `push(w, s)`, so interning it interns its suffixes.
    fn push(&mut self, id: u32, s: u32) -> u32 {
        if let Some(&pushed) = self.pushed.get(&(id, s)) {
            return pushed;
        }
        let entry = match self.pop(id) {
            None => (s, EMPTY),
            Some((head, tail)) => (head, self.push(tail, s)),
        };
        let pushed = self.entries.len() as u32;
        self.entries.push(entry);
        self.pushed.insert((id, s), pushed);
        pushed
    }
}

/// A configuration packed into one integer: the transducer state in bits
/// 96–127, the buffer ids of tapes 0 and 1 in bits 64–95 and 32–63, and the
/// tapes' end flags in bits 0 and 1.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct ConfigKey(u128);

impl ConfigKey {
    fn new(state: StateId, bufs: [u32; 2], fin: [bool; 2]) -> Self {
        ConfigKey(
            (state as u128) << 96
                | (bufs[0] as u128) << 64
                | (bufs[1] as u128) << 32
                | (fin[1] as u128) << 1
                | fin[0] as u128,
        )
    }

    fn state(self) -> StateId {
        (self.0 >> 96) as StateId
    }

    fn bufs(self) -> [u32; 2] {
        [(self.0 >> 64) as u32, (self.0 >> 32) as u32]
    }

    fn fin(self) -> [bool; 2] {
        [self.0 & 1 != 0, self.0 & 2 != 0]
    }
}

/// The working state of [`Transducer2::synchronize`].
struct Synchronizer {
    moves: MoveIndex,
    delay_bound: usize,
    buffers: Buffers,
    /// The state of each configuration of the result.
    ids: KeyMap<ConfigKey, StateId>,
    /// The result's states, in discovery order.
    configs: Vec<ConfigKey>,
    /// The closure base's buffers and their suffixes: `suffixes[t][i]` is
    /// tape `t`'s buffer after `i` pops.
    suffixes: [Vec<u32>; 2],
    /// Per `(state, pops on tape 0, pops on tape 1)` from the closure base,
    /// the last closure that visited it.
    visited: Vec<u64>,
    round: u64,
    stack: Vec<(StateId, usize, usize)>,
    /// The states the last closure reached, in depth-first order.
    found: Vec<StateId>,
}

impl Synchronizer {
    /// The configuration after reading the convolution letter `letter` in
    /// `cfg`: each symbol is pushed onto its tape's buffer and each `⊥` sets
    /// its tape's end flag. `None` if a symbol follows a tape's end.
    fn read(&mut self, cfg: ConfigKey, letter: [Option<u32>; 2]) -> Option<ConfigKey> {
        let (mut bufs, mut fin) = (cfg.bufs(), cfg.fin());
        for tape in 0..2 {
            match letter[tape] {
                Some(_) if fin[tape] => return None,
                Some(s) => bufs[tape] = self.buffers.push(bufs[tape], s),
                None => fin[tape] = true,
            }
        }
        Some(ConfigKey::new(cfg.state(), bufs, fin))
    }

    /// Collects into `found` the state of every configuration reachable from
    /// `base` (itself included) by moves that consume buffered symbols only
    /// and whose buffers fit the delay bound, interning the new ones.
    fn closure(&mut self, base: ConfigKey) {
        self.round += 1;
        self.found.clear();
        for (suffixes, mut id) in self.suffixes.iter_mut().zip(base.bufs()) {
            suffixes.clear();
            suffixes.push(id);
            while let Some((_, tail)) = self.buffers.pop(id) {
                id = tail;
                suffixes.push(id);
            }
        }
        let [s0, s1] = &self.suffixes;
        let (n0, n1) = (s0.len(), s1.len());
        let slots = self.moves.num_states() * n0 * n1;
        if self.visited.len() < slots {
            self.visited.resize(slots, 0);
        }
        // A move consumes nothing from a tape, or pops its buffer's head.
        let nothing = self.moves.nothing();
        let steps = |suffixes: &[u32], at: usize| {
            [Some((nothing, at)), self.buffers.pop(suffixes[at]).map(|(head, _)| (head, at + 1))]
        };
        self.stack.push((base.state(), 0, 0));
        while let Some((q, i, j)) = self.stack.pop() {
            let slot = &mut self.visited[(q as usize * n0 + i) * n1 + j];
            if std::mem::replace(slot, self.round) == self.round {
                continue;
            }
            // After `i` pops, `n0 - 1 - i` symbols are left on tape 0.
            if n0 - 1 - i <= self.delay_bound && n1 - 1 - j <= self.delay_bound {
                let cfg = ConfigKey::new(q, [s0[i], s1[j]], base.fin());
                let next = self.configs.len() as StateId;
                let id = *self.ids.entry(cfg).or_insert(next);
                if id == next {
                    self.configs.push(cfg);
                }
                self.found.push(id);
            }
            for (a, i) in steps(s0, i).into_iter().flatten() {
                for (b, j) in steps(s1, j).into_iter().flatten() {
                    for &to in self.moves.targets(q, [a, b]) {
                        self.stack.push((to, i, j));
                    }
                }
            }
        }
    }
}

/// The classic edit-distance transducer: accepts `(x, y)` iff `y` can be
/// obtained from `x` with at most `k` insertions, deletions, or
/// substitutions. States count the edits used; matches are free.
pub fn edit_distance_transducer(alphabet: &Alphabet, k: usize) -> Transducer2 {
    let mut t = Transducer2::new();
    let states: Vec<StateId> = (0..=k).map(|_| t.add_state()).collect();
    t.add_initial(states[0]);
    for &q in &states {
        t.set_accepting(q, true);
    }
    for (d, &q) in states.iter().enumerate() {
        for a in alphabet.symbols() {
            // match
            t.add_move(q, Some(a), Some(a), q);
            if d < k {
                // deletion of `a` from x
                t.add_move(q, Some(a), None, states[d + 1]);
                // insertion of `a` into y
                t.add_move(q, None, Some(a), states[d + 1]);
                // substitution
                for b in alphabet.symbols() {
                    if a != b {
                        t.add_move(q, Some(a), Some(b), states[d + 1]);
                    }
                }
            }
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::{convolution, product_alphabet};
    use crate::builtin::{edit_distance_leq, levenshtein};
    use crate::dfa;
    use std::collections::{HashSet, VecDeque};

    /// The construction before configurations were interned, kept as an
    /// oracle: each configuration owns its buffers, each closure collects
    /// into a fresh `HashSet`, and the result is trimmed afterwards.
    fn synchronize_reference(t: &Transducer2, delay_bound: usize) -> Nfa<TupleSym> {
        let mut symbols: Vec<Symbol> = Vec::new();
        for ts in &t.transitions {
            for (a, b, _) in ts {
                if let Some(s) = a {
                    symbols.push(*s);
                }
                if let Some(s) = b {
                    symbols.push(*s);
                }
            }
        }
        symbols.sort();
        symbols.dedup();

        let mut nfa: Nfa<TupleSym> = Nfa::new();
        let mut ids: HashMap<Config, StateId> = HashMap::new();
        let mut queue: VecDeque<Config> = VecDeque::new();

        let intern = |cfg: Config,
                      nfa: &mut Nfa<TupleSym>,
                      queue: &mut VecDeque<Config>,
                      ids: &mut HashMap<Config, StateId>|
         -> StateId {
            if let Some(&id) = ids.get(&cfg) {
                return id;
            }
            let id = nfa.add_state();
            let accepting =
                cfg.buf0.is_empty() && cfg.buf1.is_empty() && t.accepting[cfg.state as usize];
            nfa.set_accepting(id, accepting);
            ids.insert(cfg.clone(), id);
            queue.push_back(cfg);
            id
        };

        for &q in &t.initial {
            let base =
                Config { state: q, buf0: Vec::new(), buf1: Vec::new(), fin0: false, fin1: false };
            for cfg in consume_closure(t, base, delay_bound) {
                let id = intern(cfg, &mut nfa, &mut queue, &mut ids);
                nfa.add_initial(id);
            }
        }

        let padded: Vec<Option<Symbol>> =
            symbols.iter().copied().map(Some).chain(std::iter::once(None)).collect();
        let mut letters: Vec<(Option<Symbol>, Option<Symbol>)> = Vec::new();
        for &x in &padded {
            for &y in &padded {
                if x.is_some() || y.is_some() {
                    letters.push((x, y));
                }
            }
        }

        while let Some(cfg) = queue.pop_front() {
            let from = ids[&cfg];
            for &(x, y) in &letters {
                if (cfg.fin0 && x.is_some()) || (cfg.fin1 && y.is_some()) {
                    continue;
                }
                let mut base = cfg.clone();
                match x {
                    Some(s) => base.buf0.push(s),
                    None => base.fin0 = true,
                }
                match y {
                    Some(s) => base.buf1.push(s),
                    None => base.fin1 = true,
                }
                for succ in consume_closure(t, base, delay_bound) {
                    let to = intern(succ, &mut nfa, &mut queue, &mut ids);
                    nfa.add_transition(from, TupleSym::new(vec![x, y]), to);
                }
            }
        }
        nfa.trim()
    }

    /// All configurations reachable from `base` by consuming buffered
    /// symbols (including `base` itself), restricted to buffers of length at
    /// most `delay_bound`.
    fn consume_closure(t: &Transducer2, base: Config, delay_bound: usize) -> Vec<Config> {
        let mut seen: HashSet<Config> = HashSet::new();
        let mut stack = vec![base];
        while let Some(cfg) = stack.pop() {
            if !seen.insert(cfg.clone()) {
                continue;
            }
            for (on0, on1, to) in &t.transitions[cfg.state as usize] {
                let mut next = cfg.clone();
                next.state = *to;
                if let Some(s) = on0 {
                    if next.buf0.first() == Some(s) {
                        next.buf0.remove(0);
                    } else {
                        continue;
                    }
                }
                if let Some(s) = on1 {
                    if next.buf1.first() == Some(s) {
                        next.buf1.remove(0);
                    } else {
                        continue;
                    }
                }
                stack.push(next);
            }
        }
        seen.into_iter()
            .filter(|c| c.buf0.len() <= delay_bound && c.buf1.len() <= delay_bound)
            .collect()
    }

    /// A configuration of the reference construction: transducer state,
    /// buffered (seen but unconsumed) symbols per tape, and per-tape end
    /// flags.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct Config {
        state: StateId,
        buf0: Vec<Symbol>,
        buf1: Vec<Symbol>,
        fin0: bool,
        fin1: bool,
    }

    /// SplitMix64, for the seeded random word pairs below.
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

    fn labels(n: usize) -> Alphabet {
        Alphabet::from_labels(["a", "b", "c", "d"].into_iter().take(n))
    }

    /// The shift relation of `custom_transducer_shift_relation`: `y` is `x`
    /// without its first symbol (delay 1).
    fn shift_transducer(al: &Alphabet) -> Transducer2 {
        let mut t = Transducer2::new();
        let q0 = t.add_state();
        let q1 = t.add_state();
        t.add_initial(q0);
        t.set_accepting(q1, true);
        for s in al.symbols() {
            t.add_move(q0, Some(s), None, q1); // drop the first symbol of x
            t.add_move(q1, Some(s), Some(s), q1); // then copy
        }
        t
    }

    /// Every word over `al` of length at most `max_len`.
    fn words_up_to(al: &Alphabet, max_len: usize) -> Vec<Vec<Symbol>> {
        let mut words: Vec<Vec<Symbol>> = vec![vec![]];
        let mut last = words.clone();
        for _ in 0..max_len {
            last = last
                .iter()
                .flat_map(|w| al.symbols().map(move |s| [&w[..], &[s]].concat()))
                .collect();
            words.extend(last.iter().cloned());
        }
        words
    }

    #[test]
    fn transducer_accepts_matches_levenshtein() {
        let al = Alphabet::from_labels(["a", "b"]);
        let (a, b) = (al.sym("a"), al.sym("b"));
        let t = edit_distance_transducer(&al, 1);
        assert!(t.accepts(&[a, b], &[a, b]));
        assert!(t.accepts(&[a, b], &[a]));
        assert!(t.accepts(&[a, b], &[a, a]));
        assert!(!t.accepts(&[a, b], &[b, a]));
        assert!(!t.accepts(&[a, a, a], &[b, b, b]));
    }

    #[test]
    fn synchronization_agrees_with_direct_acceptance() {
        let al = Alphabet::from_labels(["a", "b"]);
        let (a, b) = (al.sym("a"), al.sym("b"));
        let words: Vec<Vec<Symbol>> =
            vec![vec![], vec![a], vec![b], vec![a, b], vec![b, a], vec![a, b, b], vec![b, a, a, b]];
        for k in 0..=2usize {
            let t = edit_distance_transducer(&al, k);
            let sync = t.synchronize(k).unwrap();
            for x in &words {
                for y in &words {
                    let conv = convolution(&[x, y]);
                    let direct = levenshtein(x, y) <= k;
                    assert_eq!(sync.accepts(&conv), direct, "k={k} x={x:?} y={y:?}");
                    assert_eq!(t.accepts(x, y), direct, "transducer k={k} x={x:?} y={y:?}");
                }
            }
        }
    }

    #[test]
    fn zero_distance_is_equality() {
        let al = Alphabet::from_labels(["a", "b"]);
        let (a, b) = (al.sym("a"), al.sym("b"));
        let t = edit_distance_transducer(&al, 0);
        let sync = t.synchronize(0).unwrap();
        assert!(sync.accepts(&convolution(&[&[a, b][..], &[a, b][..]])));
        assert!(!sync.accepts(&convolution(&[&[a, b][..], &[a][..]])));
        assert!(sync.accepts(&convolution(&[&[][..], &[][..]])));
    }

    #[test]
    fn custom_transducer_shift_relation() {
        // Relation: y = x with the first symbol removed (delay 1).
        let al = Alphabet::from_labels(["a", "b"]);
        let (a, b) = (al.sym("a"), al.sym("b"));
        let mut t = Transducer2::new();
        let q0 = t.add_state();
        let q1 = t.add_state();
        t.add_initial(q0);
        t.set_accepting(q1, true);
        for s in al.symbols() {
            t.add_move(q0, Some(s), None, q1); // drop the first symbol of x
            t.add_move(q1, Some(s), Some(s), q1); // then copy
        }
        let sync = t.synchronize(1).unwrap();
        assert!(sync.accepts(&convolution(&[&[a, b, a][..], &[b, a][..]])));
        assert!(!sync.accepts(&convolution(&[&[a, b, a][..], &[a, b][..]])));
        assert!(!sync.accepts(&convolution(&[&[][..], &[][..]])));
    }

    #[test]
    fn synchronize_matches_the_reference_construction() {
        let mut cases: Vec<(String, Alphabet, Transducer2, usize)> = Vec::new();
        for n in 1..=4 {
            for k in 0..=2 {
                let al = labels(n);
                let t = edit_distance_transducer(&al, k);
                cases.push((format!("edit |Σ|={n} k={k}"), al, t, k));
            }
        }
        let al = labels(2);
        cases.push(("shift".to_string(), al.clone(), shift_transducer(&al), 1));
        for (name, al, t, k) in &cases {
            let new = t.synchronize(*k).unwrap();
            let reference = synchronize_reference(t, *k);
            assert_eq!(new.num_states(), reference.num_states(), "{name}: states");
            assert_eq!(new.num_transitions(), reference.num_transitions(), "{name}: transitions");
            if reference.num_states() <= 200 {
                let letters = product_alphabet(al, 2);
                assert!(dfa::language_equivalent(&new, &reference, &letters), "{name}: language");
            }
        }
        let acgt = Alphabet::from_labels(["a", "c", "g", "t"]);
        let nfa = edit_distance_leq(&acgt, 2).unwrap().nfa().clone();
        assert_eq!((nfa.num_states(), nfa.num_transitions()), (1_127, 47_600));
    }

    #[test]
    fn random_pairs_agree_with_levenshtein() {
        let al = labels(4);
        let sync = edit_distance_transducer(&al, 2).synchronize(2).unwrap();
        let symbols: Vec<Symbol> = al.symbols().collect();
        let mut rng = Rng(42);
        let mut within = 0;
        for _ in 0..20_000 {
            let word = |rng: &mut Rng| -> Vec<Symbol> {
                (0..rng.below(7)).map(|_| symbols[rng.below(4)]).collect()
            };
            let x = word(&mut rng);
            // Half the pairs are unrelated words, half are a few random
            // edits apart, so both answers are common.
            let mut y = if rng.below(2) == 0 { word(&mut rng) } else { x.clone() };
            for _ in 0..rng.below(5) {
                let at = rng.below(y.len() + 1);
                match rng.below(3) {
                    0 => y.insert(at, symbols[rng.below(4)]),
                    1 if at < y.len() => y[at] = symbols[rng.below(4)],
                    _ if at < y.len() => {
                        y.remove(at);
                    }
                    _ => {}
                }
            }
            let expected = levenshtein(&x, &y) <= 2;
            within += expected as usize;
            assert_eq!(sync.accepts(&convolution(&[&x, &y])), expected, "x={x:?} y={y:?}");
        }
        assert!((5_000..15_000).contains(&within), "{within} of 20,000 pairs within distance 2");
    }

    #[test]
    fn two_builds_are_identical() {
        let al = Alphabet::from_labels(["a", "c", "g", "t"]);
        let (first, second) =
            (edit_distance_leq(&al, 2).unwrap(), edit_distance_leq(&al, 2).unwrap());
        let (first, second) = (first.nfa(), second.nfa());
        assert_eq!(first.initial(), second.initial());
        assert_eq!(first.num_states(), second.num_states());
        for q in 0..first.num_states() as StateId {
            assert_eq!(first.transitions_from(q), second.transitions_from(q), "state {q}");
            assert_eq!(first.is_accepting(q), second.is_accepting(q), "state {q}");
        }
    }

    #[test]
    fn epsilon_cycles_agree_with_direct_acceptance() {
        // Two states joined by moves that consume nothing, in both
        // directions; every other move consumes both tapes.
        let al = labels(2);
        let (a, b) = (al.sym("a"), al.sym("b"));
        let mut t = Transducer2::new();
        let q0 = t.add_state();
        let q1 = t.add_state();
        let q2 = t.add_state();
        t.add_initial(q0);
        t.set_accepting(q1, true);
        t.add_move(q0, None, None, q1);
        t.add_move(q1, None, None, q0);
        t.add_move(q0, Some(a), Some(b), q0);
        t.add_move(q1, Some(b), Some(a), q2);
        t.add_move(q2, Some(a), Some(a), q1);
        let words = words_up_to(&al, 4);
        for k in 0..=1 {
            let sync = t.synchronize(k).unwrap();
            for x in &words {
                for y in &words {
                    let conv = convolution(&[x, y]);
                    assert_eq!(sync.accepts(&conv), t.accepts(x, y), "k={k} x={x:?} y={y:?}");
                }
            }
        }
    }
}
