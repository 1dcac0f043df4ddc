//! Memoized derivative matching: a lazily-built DFA over derivative
//! states.
//!
//! [`derivative::matches`](crate::derivative::matches) re-derives the
//! regex character by character on every call, which is fine as a
//! baseline but too slow to run once per lexeme inside the incremental
//! lex certifier. [`LazyDerivMatcher`] keeps the same semantics —
//! membership is still decided purely by Brzozowski derivatives — but
//! interns each derivative it encounters as a state and memoizes the
//! `state × symbol` transitions in a dense table, so repeated matching
//! against the same rule converges to one table lookup per character.
//! The smart constructors in [`derivative`](crate::derivative) keep the
//! derivative state space small in practice.

use std::collections::HashMap;
use std::sync::Mutex;

use lambek_core::alphabet::Symbol;

use crate::ast::Regex;
use crate::derivative::derivative;

/// A transition not yet computed.
const UNKNOWN: u32 = u32::MAX;

/// A memoizing derivative matcher for one regex.
///
/// Interior mutability (a mutex around the state table) makes the
/// matcher `Send + Sync`, so it can sit inside shared compiled
/// artifacts; the lock is held only for the duration of one `run`
/// call.
#[derive(Debug)]
pub struct LazyDerivMatcher {
    alphabet_len: usize,
    inner: Mutex<LazyStates>,
}

#[derive(Debug)]
struct LazyStates {
    /// Canonical derivative → state index.
    index: HashMap<Regex, u32>,
    /// Per state: does the derivative accept ε?
    nullable: Vec<bool>,
    /// Per state: the derivative itself (needed to extend the table).
    regexes: Vec<Regex>,
    /// Row-major `state × alphabet_len` transitions, [`UNKNOWN`] where
    /// not yet computed.
    delta: Vec<u32>,
}

impl LazyStates {
    fn intern(&mut self, re: Regex, alphabet_len: usize) -> u32 {
        if let Some(&id) = self.index.get(&re) {
            return id;
        }
        let id = self.regexes.len() as u32;
        self.index.insert(re.clone(), id);
        self.nullable.push(re.nullable());
        self.regexes.push(re);
        self.delta
            .extend(std::iter::repeat_n(UNKNOWN, alphabet_len));
        id
    }

    /// One transition out of `state` on `sym`, memoized. Sets
    /// `*derived` when the transition was not in the table yet and had
    /// to be computed by taking a derivative.
    fn step(&mut self, state: u32, sym: Symbol, alphabet_len: usize, derived: &mut bool) -> u32 {
        let idx = sym.index();
        if idx >= alphabet_len {
            // A symbol outside the alphabet the table was sized for:
            // still answered honestly via a fresh derivative, just not
            // memoized (it cannot recur for well-formed inputs).
            *derived = true;
            let d = derivative(&self.regexes[state as usize], sym);
            return self.intern(d, alphabet_len);
        }
        let slot = state as usize * alphabet_len + idx;
        let cached = self.delta[slot];
        if cached != UNKNOWN {
            return cached;
        }
        *derived = true;
        let d = derivative(&self.regexes[state as usize], sym);
        let next = self.intern(d, alphabet_len);
        self.delta[slot] = next;
        next
    }
}

/// The outcome of one [`LazyDerivMatcher::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchRun {
    /// Whether the regex matches the word.
    pub matched: bool,
    /// Whether the run computed at least one transition that was not
    /// memoized yet (`false`: it ran on the table alone).
    pub derived: bool,
}

impl LazyDerivMatcher {
    /// Wraps `re` for repeated membership queries over an alphabet of
    /// `alphabet_len` symbols.
    pub fn new(re: Regex, alphabet_len: usize) -> LazyDerivMatcher {
        let mut states = LazyStates {
            index: HashMap::new(),
            nullable: Vec::new(),
            regexes: Vec::new(),
            delta: Vec::new(),
        };
        states.intern(re, alphabet_len);
        LazyDerivMatcher {
            alphabet_len,
            inner: Mutex::new(states),
        }
    }

    /// Whether the regex matches `word`, by memoized derivative
    /// stepping under one lock acquisition, plus whether any transition
    /// had to be derived. Taking an iterator lets callers match text
    /// without first materializing a `GString`.
    pub fn run(&self, word: impl IntoIterator<Item = Symbol>) -> MatchRun {
        let mut inner = self.inner.lock().expect("matcher lock");
        let mut derived = false;
        let mut state = 0u32;
        for sym in word {
            state = inner.step(state, sym, self.alphabet_len, &mut derived);
        }
        MatchRun {
            matched: inner.nullable[state as usize],
            derived,
        }
    }

    /// How many distinct derivative states have been discovered so far.
    pub fn num_states(&self) -> usize {
        self.inner.lock().expect("matcher lock").regexes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse_regex;
    use crate::derivative::matches as slow_matches;
    use lambek_core::alphabet::Alphabet;
    use lambek_core::theory::unambiguous::all_strings;

    #[test]
    fn agrees_with_the_reference_matcher_exhaustively() {
        let s = Alphabet::abc();
        for src in [
            "a", "a*", "(a|b)*c", "a(b|c)*", "ab|ba", "(ab)*", "a*b*c*", "∅", "ε",
        ] {
            let re = parse_regex(&s, src).unwrap();
            let fast = LazyDerivMatcher::new(re.clone(), s.len());
            for w in all_strings(&s, 5) {
                assert_eq!(
                    fast.run(w.iter()).matched,
                    slow_matches(&re, &w),
                    "{src} on {w}"
                );
            }
        }
    }

    #[test]
    fn memoization_converges_to_finitely_many_states() {
        let s = Alphabet::abc();
        let re = parse_regex(&s, "(a|b)*c").unwrap();
        let fast = LazyDerivMatcher::new(re, s.len());
        for w in all_strings(&s, 6) {
            fast.run(w.iter());
        }
        let settled = fast.num_states();
        for w in all_strings(&s, 6) {
            fast.run(w.iter());
        }
        // A second sweep discovers nothing new: every transition hits
        // the memo table.
        assert_eq!(fast.num_states(), settled);
        assert!(settled <= 8, "derivative DFA stays small: {settled}");
    }

    #[test]
    fn runs_report_whether_they_derived() {
        let s = Alphabet::abc();
        let re = parse_regex(&s, "a(b|c)*").unwrap();
        let fast = LazyDerivMatcher::new(re, s.len());
        let abc = s.parse_str("abc").unwrap();
        let first = fast.run(abc.iter());
        assert!(first.matched && first.derived);
        let again = fast.run(abc.iter());
        assert!(again.matched && !again.derived);
        // A prefix walks transitions already in the table.
        let a = fast.run(s.parse_str("a").unwrap().iter());
        assert!(a.matched && !a.derived);
        let ca = fast.run(s.parse_str("ca").unwrap().iter());
        assert!(!ca.matched && ca.derived);
    }

    #[test]
    fn matcher_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LazyDerivMatcher>();
    }
}
