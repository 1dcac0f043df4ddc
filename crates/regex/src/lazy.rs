//! Memoized derivative matching: a lazily-built DFA over derivative
//! states, read through lock-free snapshots.
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
//!
//! The table is shared by every thread that certifies against the same
//! compiled artifact, so reads must not serialize. A reader takes a
//! [`DerivSnapshot`] — an immutable `Arc` copy of the transitions and
//! nullability bits — once, and [`LazyDerivMatcher::run`] steps it with
//! no lock at all. Only a *miss* (a transition the snapshot does not
//! hold) takes the matcher's mutex: under it the transition is derived
//! exactly as before, a fresh snapshot is published, and the reader's
//! copy is refreshed to it. A snapshot therefore never holds a
//! transition that was not derived, and once the table has settled
//! nothing locks.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, RwLock};

use lambek_core::alphabet::Symbol;

use crate::ast::Regex;
use crate::derivative::derivative;

/// A transition not yet computed.
const UNKNOWN: u32 = u32::MAX;

/// The memo table proper: what a reader needs to step a word.
#[derive(Debug, Clone)]
struct Table {
    alphabet_len: usize,
    /// Per state: does the derivative accept ε?
    nullable: Vec<bool>,
    /// Row-major `state × alphabet_len` transitions, [`UNKNOWN`] where
    /// not yet computed.
    delta: Vec<u32>,
}

impl Table {
    /// Where `state × sym` sits in `delta`; `None` for a symbol outside
    /// the alphabet the table was sized for.
    #[inline]
    fn slot(&self, state: u32, sym: Symbol) -> Option<usize> {
        let idx = sym.index();
        (idx < self.alphabet_len).then_some(state as usize * self.alphabet_len + idx)
    }

    /// The memoized transition out of `state` on `sym`, if any.
    #[inline]
    fn get(&self, state: u32, sym: Symbol) -> Option<u32> {
        let next = self.delta[self.slot(state, sym)?];
        (next != UNKNOWN).then_some(next)
    }
}

/// An immutable copy of one [`LazyDerivMatcher`]'s memo table, stepped
/// without locking. Take one with [`LazyDerivMatcher::snapshot`] and
/// hand it back to the *same* matcher's [`LazyDerivMatcher::run`],
/// which refreshes it in place when the table had to grow.
#[derive(Debug, Clone)]
pub struct DerivSnapshot(Arc<Table>);

/// A memoizing derivative matcher for one regex.
///
/// `Send + Sync`, so it can sit inside shared compiled artifacts:
/// readers step [`DerivSnapshot`]s, and a mutex guards only the slow
/// path that derives a missing transition.
#[derive(Debug)]
pub struct LazyDerivMatcher {
    /// The slow path's state: held only while deriving a miss.
    slow: Mutex<Derivatives>,
    /// The latest table, published under `slow` after every derivation.
    published: RwLock<Arc<Table>>,
}

#[derive(Debug)]
struct Derivatives {
    /// Canonical derivative → state index.
    index: HashMap<Regex, u32>,
    /// Per state: the derivative itself (needed to extend the table).
    regexes: Vec<Regex>,
}

impl Derivatives {
    fn intern(&mut self, re: Regex, table: &mut Table) -> u32 {
        if let Some(&id) = self.index.get(&re) {
            return id;
        }
        let id = self.regexes.len() as u32;
        self.index.insert(re.clone(), id);
        table.nullable.push(re.nullable());
        self.regexes.push(re);
        table
            .delta
            .extend(std::iter::repeat_n(UNKNOWN, table.alphabet_len));
        id
    }
}

/// The outcome of one [`LazyDerivMatcher::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchRun {
    /// Whether the regex matches the word.
    pub matched: bool,
    /// Whether the run computed at least one transition that was not
    /// memoized yet (`false`: it ran on the table alone, possibly after
    /// refreshing a stale snapshot).
    pub derived: bool,
}

impl LazyDerivMatcher {
    /// Wraps `re` for repeated membership queries over an alphabet of
    /// `alphabet_len` symbols.
    pub fn new(re: Regex, alphabet_len: usize) -> LazyDerivMatcher {
        let mut derivatives = Derivatives {
            index: HashMap::new(),
            regexes: Vec::new(),
        };
        let mut table = Table {
            alphabet_len,
            nullable: Vec::new(),
            delta: Vec::new(),
        };
        derivatives.intern(re, &mut table);
        LazyDerivMatcher {
            slow: Mutex::new(derivatives),
            published: RwLock::new(Arc::new(table)),
        }
    }

    /// The latest published table, for lock-free stepping.
    pub fn snapshot(&self) -> DerivSnapshot {
        DerivSnapshot(self.published.read().expect("matcher table").clone())
    }

    /// Whether the regex matches `word`, stepped on `snap` (a snapshot
    /// of this matcher), plus whether any transition had to be derived.
    /// A transition `snap` lacks is looked up in — or derived into —
    /// the shared table under the lock, and `snap` is refreshed to the
    /// newly published copy. Taking an iterator lets callers match text
    /// without first materializing a `GString`.
    pub fn run(
        &self,
        snap: &mut DerivSnapshot,
        word: impl IntoIterator<Item = Symbol>,
    ) -> MatchRun {
        let mut derived = false;
        let mut state = 0u32;
        for sym in word {
            state = match snap.0.get(state, sym) {
                Some(next) => next,
                None => self.miss(snap, state, sym, &mut derived),
            };
        }
        MatchRun {
            matched: snap.0.nullable[state as usize],
            derived,
        }
    }

    /// The slow path: the transition out of `state` on `sym`, from the
    /// latest table if another reader already derived it, else by
    /// taking a derivative (setting `*derived`) and publishing the
    /// grown table. Either way `snap` is refreshed.
    #[cold]
    fn miss(&self, snap: &mut DerivSnapshot, state: u32, sym: Symbol, derived: &mut bool) -> u32 {
        let mut derivatives = self.slow.lock().expect("matcher lock");
        // Only the slow-path holder publishes, so this is the latest.
        let latest = self.published.read().expect("matcher table").clone();
        if let Some(next) = latest.get(state, sym) {
            snap.0 = latest;
            return next;
        }
        *derived = true;
        let mut table = Table::clone(&latest);
        let d = derivative(&derivatives.regexes[state as usize], sym);
        let next = derivatives.intern(d, &mut table);
        // A symbol outside the alphabet the table was sized for is
        // still answered honestly via a fresh derivative, just not
        // memoized (it cannot recur for well-formed inputs).
        if let Some(slot) = table.slot(state, sym) {
            table.delta[slot] = next;
        }
        let table = Arc::new(table);
        *self.published.write().expect("matcher table") = table.clone();
        snap.0 = table;
        next
    }

    /// How many distinct derivative states have been discovered so far.
    pub fn num_states(&self) -> usize {
        self.published.read().expect("matcher table").nullable.len()
    }

    /// Holds the slow path's lock, so tests can show that stepping a
    /// settled table never takes it.
    #[cfg(test)]
    fn hold_slow_path(&self) -> std::sync::MutexGuard<'_, Derivatives> {
        self.slow.lock().expect("matcher lock")
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
            let mut snap = fast.snapshot();
            for w in all_strings(&s, 5) {
                assert_eq!(
                    fast.run(&mut snap, w.iter()).matched,
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
        let mut snap = fast.snapshot();
        for w in all_strings(&s, 6) {
            fast.run(&mut snap, w.iter());
        }
        let settled = fast.num_states();
        for w in all_strings(&s, 6) {
            fast.run(&mut snap, w.iter());
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
        let mut snap = fast.snapshot();
        let abc = s.parse_str("abc").unwrap();
        let first = fast.run(&mut snap, abc.iter());
        assert!(first.matched && first.derived);
        let again = fast.run(&mut snap, abc.iter());
        assert!(again.matched && !again.derived);
        // A prefix walks transitions already in the table.
        let a = fast.run(&mut snap, s.parse_str("a").unwrap().iter());
        assert!(a.matched && !a.derived);
        let ca = fast.run(&mut snap, s.parse_str("ca").unwrap().iter());
        assert!(!ca.matched && ca.derived);
    }

    #[test]
    fn a_stale_snapshot_refreshes_without_deriving_again() {
        let s = Alphabet::abc();
        let re = parse_regex(&s, "a(b|c)*").unwrap();
        let fast = LazyDerivMatcher::new(re, s.len());
        let mut stale = fast.snapshot();
        let mut fresh = fast.snapshot();
        let abc = s.parse_str("abc").unwrap();
        assert!(fast.run(&mut fresh, abc.iter()).derived);
        let states = fast.num_states();
        // The stale copy lacks every transition `fresh` derived; it
        // picks them up from the published table instead.
        let run = fast.run(&mut stale, abc.iter());
        assert!(run.matched && !run.derived);
        assert_eq!(fast.num_states(), states);
        // Refreshed in place to the published table.
        assert!(Arc::ptr_eq(&stale.0, &fast.snapshot().0));
    }

    #[test]
    fn a_settled_table_is_stepped_without_the_slow_path_lock() {
        let s = Alphabet::abc();
        let re = parse_regex(&s, "(a|b)*c").unwrap();
        let fast = LazyDerivMatcher::new(re.clone(), s.len());
        let mut warm = fast.snapshot();
        for w in all_strings(&s, 5) {
            fast.run(&mut warm, w.iter());
        }
        let held = fast.hold_slow_path();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // A snapshot taken while the lock is held, and every
                // word stepped on it.
                let mut snap = fast.snapshot();
                let all = all_strings(&s, 5)
                    .iter()
                    .all(|w| fast.run(&mut snap, w.iter()).matched == slow_matches(&re, w));
                tx.send(all).unwrap();
            });
            let got = rx.recv_timeout(std::time::Duration::from_secs(30));
            // Release before asserting, so a failure cannot hang the
            // scope's join.
            drop(held);
            assert_eq!(got, Ok(true), "certification waited on the slow-path lock");
        });
    }

    #[test]
    fn matcher_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LazyDerivMatcher>();
        assert_send_sync::<DerivSnapshot>();
    }
}
