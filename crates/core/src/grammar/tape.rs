//! Parse trees as tapes: one flat postorder record of a derivation.
//!
//! The paper defines a parse only as an element of the parse set `A(w)`
//! (Definition 5.1); how the element is stored is not part of the
//! guarantee. A [`ParseTape`] stores the same element as a boxed
//! [`ParseTree`], but as a postorder sequence of constructor records in
//! one `Vec<u32>`: every record follows the records of its children. A
//! shift-reduce parser therefore writes a tape by appending only — a
//! shift appends a leaf, a reduction appends its constructors right after
//! its already-contiguous children — and never boxes, pops or moves a
//! subtree.
//!
//! The tape counts constructors and yield symbols as it is written, so
//! [`ParseTape::size`] and [`ParseTape::yield_len`] are O(1). Everything
//! that walks a tape ([`ParseTape::flatten`], [`ParseTape::to_tree`],
//! [`ParseTape::from_tree`]) is a loop with an explicit stack, and
//! dropping a tape frees one vector, so no input depth can overflow the
//! call stack.
//!
//! A tape may hold a *forest*: several trees side by side, which is what
//! an LR stack is. [`ParseTape::roots`] counts them, and
//! [`ParseTape::trees_from`] decodes them one by one.

use crate::alphabet::{GString, Symbol};
use crate::grammar::parse_tree::ParseTree;

/// One constructor record of a [`ParseTape`], mirroring the
/// [`ParseTree`] constructors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Record {
    /// A leaf `'c'`.
    Char(Symbol),
    /// The unit parse `()`.
    Unit,
    /// A pair of the two trees before it.
    Pair,
    /// The injection `σ index` of the tree before it.
    Inj(usize),
    /// `roll` of the tree before it.
    Roll,
    /// A tuple of the `n` trees before it.
    Tuple(usize),
    /// A `⊤` parse of `n` symbols, which follow the record as its
    /// payload.
    Top(usize),
}

const TAG_BITS: u32 = 3;
const TAG_MASK: u32 = (1 << TAG_BITS) - 1;
/// The largest payload (injection index, tuple arity, `⊤` length) a
/// record can carry.
const MAX_PAYLOAD: usize = (u32::MAX >> TAG_BITS) as usize;

const CHAR: u32 = 0;
const UNIT: u32 = 1;
const PAIR: u32 = 2;
const INJ: u32 = 3;
const ROLL: u32 = 4;
const TUPLE: u32 = 5;
const TOP: u32 = 6;

#[inline]
fn word(tag: u32, payload: usize) -> u32 {
    assert!(
        payload <= MAX_PAYLOAD,
        "tape payload {payload} out of range"
    );
    ((payload as u32) << TAG_BITS) | tag
}

#[inline]
fn decode(w: u32) -> Record {
    let payload = (w >> TAG_BITS) as usize;
    match w & TAG_MASK {
        CHAR => Record::Char(Symbol::from_index(payload)),
        UNIT => Record::Unit,
        PAIR => Record::Pair,
        INJ => Record::Inj(payload),
        ROLL => Record::Roll,
        TUPLE => Record::Tuple(payload),
        TOP => Record::Top(payload),
        t => panic!("unknown tape tag {t}"),
    }
}

/// The records of `words` in order, each with its word offset (a `Top`
/// record's symbols are its payload, not records).
fn records(words: &[u32]) -> impl Iterator<Item = (usize, Record)> + '_ {
    let mut at = 0;
    std::iter::from_fn(move || {
        let rec = decode(*words.get(at)?);
        let here = at;
        at += 1 + if let Record::Top(n) = rec { n } else { 0 };
        Some((here, rec))
    })
}

/// A parse tree (or a forest of them) as a flat postorder tape of
/// constructor records. See the [module docs](self).
///
/// # Examples
///
/// ```
/// use lambek_core::alphabet::Alphabet;
/// use lambek_core::grammar::parse_tree::ParseTree;
/// use lambek_core::grammar::tape::ParseTape;
///
/// let sigma = Alphabet::abc();
/// let (a, b) = (sigma.symbol("a").unwrap(), sigma.symbol("b").unwrap());
/// // σ0 ('a', 'b'), written bottom-up: children first.
/// let mut tape = ParseTape::new();
/// tape.push_char(a);
/// tape.push_char(b);
/// tape.push_pair();
/// tape.push_inj(0);
/// let tree = ParseTree::inj(0, ParseTree::pair(ParseTree::Char(a), ParseTree::Char(b)));
/// assert_eq!(tape.to_tree(), tree);
/// assert_eq!((tape.size(), tape.yield_len()), (4, 2));
/// assert_eq!(tape.flatten(), sigma.parse_str("ab").unwrap());
/// assert_eq!(ParseTape::from_tree(&tree), tape);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct ParseTape {
    words: Vec<u32>,
    /// Constructor records written.
    nodes: usize,
    /// Symbols in the forest's yield.
    yield_len: usize,
    /// Trees in the forest.
    roots: usize,
}

impl ParseTape {
    /// An empty tape (a forest of no trees).
    pub fn new() -> ParseTape {
        ParseTape::default()
    }

    /// An empty tape with room for `words` records.
    pub fn with_capacity(words: usize) -> ParseTape {
        ParseTape {
            words: Vec::with_capacity(words),
            ..ParseTape::default()
        }
    }

    /// The tape of `tree`.
    pub fn from_tree(tree: &ParseTree) -> ParseTape {
        let mut tape = ParseTape::new();
        tape.push_tree(tree);
        tape
    }

    /// Number of constructors, as [`ParseTree::size`] counts them.
    pub fn size(&self) -> usize {
        self.nodes
    }

    /// Length of the yield, `flatten().len()`, without walking.
    pub fn yield_len(&self) -> usize {
        self.yield_len
    }

    /// Number of trees on the tape.
    pub fn roots(&self) -> usize {
        self.roots
    }

    /// Words written so far: the offset the next record lands at.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Takes `k` trees off the forest, panicking if it holds fewer: the
    /// check that keeps every tape a well-formed postorder forest.
    #[inline]
    fn consume(&mut self, k: usize) {
        assert!(
            self.roots >= k,
            "tape record needs {k} trees, the forest holds {}",
            self.roots
        );
        self.roots -= k;
    }

    /// Appends the leaf `'sym'` as a new tree.
    #[inline]
    pub fn push_char(&mut self, sym: Symbol) {
        self.words.push(word(CHAR, sym.index()));
        self.nodes += 1;
        self.yield_len += 1;
        self.roots += 1;
    }

    /// Appends the unit parse `()` as a new tree.
    #[inline]
    pub fn push_unit(&mut self) {
        self.words.push(UNIT);
        self.nodes += 1;
        self.roots += 1;
    }

    /// Pairs the last two trees.
    ///
    /// # Panics
    ///
    /// If the tape holds fewer than two trees.
    #[inline]
    pub fn push_pair(&mut self) {
        self.consume(2);
        self.words.push(PAIR);
        self.nodes += 1;
        self.roots += 1;
    }

    /// Injects the last tree as summand `index`.
    ///
    /// # Panics
    ///
    /// If the tape is empty or `index` exceeds 2²⁹ − 1.
    #[inline]
    pub fn push_inj(&mut self, index: usize) {
        self.consume(1);
        self.words.push(word(INJ, index));
        self.nodes += 1;
        self.roots += 1;
    }

    /// Rolls the last tree.
    ///
    /// # Panics
    ///
    /// If the tape is empty.
    #[inline]
    pub fn push_roll(&mut self) {
        self.consume(1);
        self.words.push(ROLL);
        self.nodes += 1;
        self.roots += 1;
    }

    /// Appends `tree` as a new tree, iteratively.
    pub fn push_tree(&mut self, tree: &ParseTree) {
        enum Visit<'a> {
            Enter(&'a ParseTree),
            Exit(&'a ParseTree),
        }
        let mut stack = vec![Visit::Enter(tree)];
        // The yield length of each finished subtree not yet consumed by
        // its parent: a tuple keeps only its first component's.
        let mut yields: Vec<usize> = Vec::new();
        while let Some(visit) = stack.pop() {
            match visit {
                Visit::Enter(t) => match t {
                    ParseTree::Char(s) => {
                        self.push_char(*s);
                        yields.push(1);
                    }
                    ParseTree::Unit => {
                        self.push_unit();
                        yields.push(0);
                    }
                    ParseTree::Top(w) => {
                        self.words.push(word(TOP, w.len()));
                        self.words.extend(w.iter().map(|s| s.index() as u32));
                        self.nodes += 1;
                        self.yield_len += w.len();
                        self.roots += 1;
                        yields.push(w.len());
                    }
                    ParseTree::Pair(l, r) => {
                        stack.push(Visit::Exit(t));
                        stack.push(Visit::Enter(r));
                        stack.push(Visit::Enter(l));
                    }
                    ParseTree::Inj { tree: inner, .. } | ParseTree::Roll(inner) => {
                        stack.push(Visit::Exit(t));
                        stack.push(Visit::Enter(inner));
                    }
                    ParseTree::Tuple(parts) => {
                        stack.push(Visit::Exit(t));
                        stack.extend(parts.iter().rev().map(Visit::Enter));
                    }
                },
                Visit::Exit(t) => match t {
                    ParseTree::Pair(..) => {
                        self.push_pair();
                        let r = yields.pop().expect("pair has two children");
                        *yields.last_mut().expect("pair has two children") += r;
                    }
                    ParseTree::Inj { index, .. } => self.push_inj(*index),
                    ParseTree::Roll(_) => self.push_roll(),
                    ParseTree::Tuple(parts) => {
                        let n = parts.len();
                        self.consume(n);
                        self.words.push(word(TUPLE, n));
                        self.nodes += 1;
                        self.roots += 1;
                        let first = yields.len() - n;
                        let kept = yields.get(first).copied().unwrap_or(0);
                        let total: usize = yields[first..].iter().sum();
                        self.yield_len -= total - kept;
                        yields.truncate(first);
                        yields.push(kept);
                    }
                    _ => unreachable!("only inner nodes are exited"),
                },
            }
        }
    }

    /// The record at word offset `at` (an offset [`ParseTape::len`]
    /// returned before the record was written).
    pub fn record(&self, at: usize) -> Record {
        decode(self.words[at])
    }

    /// Overwrites the record at `at` with one of the same kind: a
    /// `Char` with another symbol, an `Inj` with another index. Exists
    /// for fault-injection tests.
    ///
    /// # Panics
    ///
    /// If the kinds differ, which would change the tape's shape.
    #[doc(hidden)]
    pub fn rewrite(&mut self, at: usize, rec: Record) {
        self.words[at] = match (self.record(at), rec) {
            (Record::Char(_), Record::Char(s)) => word(CHAR, s.index()),
            (Record::Inj(_), Record::Inj(i)) => word(INJ, i),
            (old, new) => panic!("rewriting {old:?} as {new:?} changes the tape's shape"),
        };
    }

    /// The yield: the concatenated yields of the trees on the tape (a
    /// tuple contributing its first component's, as
    /// [`ParseTree::flatten`]).
    pub fn flatten(&self) -> GString {
        let mut out: Vec<Symbol> = Vec::with_capacity(self.yield_len);
        // Where each finished subtree's yield starts in `out`.
        let mut starts: Vec<usize> = Vec::new();
        for (at, rec) in records(&self.words) {
            match rec {
                Record::Char(s) => {
                    starts.push(out.len());
                    out.push(s);
                }
                Record::Unit => starts.push(out.len()),
                Record::Top(n) => {
                    starts.push(out.len());
                    out.extend(self.payload(at, n));
                }
                Record::Pair => {
                    starts.pop();
                }
                Record::Inj(_) | Record::Roll => {}
                Record::Tuple(0) => starts.push(out.len()),
                Record::Tuple(n) => {
                    let first = starts.len() - n;
                    if n > 1 {
                        out.truncate(starts[first + 1]);
                    }
                    starts.truncate(first + 1);
                }
            }
        }
        GString::from_symbols(out)
    }

    /// The symbols of the `Top(n)` record at `at`.
    fn payload(&self, at: usize, n: usize) -> impl Iterator<Item = Symbol> + '_ {
        self.words[at + 1..at + 1 + n]
            .iter()
            .map(|&w| Symbol::from_index(w as usize))
    }

    /// The trees whose records start at word `at` (where a tree starts;
    /// 0 for the whole tape), as boxed [`ParseTree`]s, in order. Built
    /// iteratively.
    ///
    /// # Panics
    ///
    /// If `at` is not where a tree starts.
    pub fn trees_from(&self, at: usize) -> Vec<ParseTree> {
        let words = &self.words[at..];
        let mut trees: Vec<ParseTree> = Vec::new();
        let pop = |trees: &mut Vec<ParseTree>| {
            trees.pop().expect("tape offset is not where a tree starts")
        };
        for (here, rec) in records(words) {
            let tree = match rec {
                Record::Char(s) => ParseTree::Char(s),
                Record::Unit => ParseTree::Unit,
                Record::Pair => {
                    let r = pop(&mut trees);
                    ParseTree::pair(pop(&mut trees), r)
                }
                Record::Inj(index) => ParseTree::inj(index, pop(&mut trees)),
                Record::Roll => ParseTree::roll(pop(&mut trees)),
                Record::Tuple(n) => {
                    let from = trees
                        .len()
                        .checked_sub(n)
                        .expect("tape offset is not where a tree starts");
                    ParseTree::Tuple(trees.split_off(from))
                }
                Record::Top(n) => ParseTree::Top(self.payload(at + here, n).collect()),
            };
            trees.push(tree);
        }
        trees
    }

    /// The tape's one tree as a boxed [`ParseTree`], the paper-level
    /// view that [`validate`](crate::grammar::parse_tree::validate)
    /// checks. Built iteratively.
    ///
    /// # Panics
    ///
    /// If the tape does not hold exactly one tree.
    pub fn to_tree(&self) -> ParseTree {
        assert_eq!(self.roots, 1, "a tape holding {} trees", self.roots);
        self.trees_from(0).pop().expect("one tree")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(i: usize) -> Symbol {
        Symbol::from_index(i)
    }

    /// The session codec's sample: every constructor, `Tuple` and `Top`
    /// included.
    fn sample_tree() -> ParseTree {
        ParseTree::roll(ParseTree::inj(
            2,
            ParseTree::pair(
                ParseTree::Char(sym(1)),
                ParseTree::Tuple(vec![
                    ParseTree::Unit,
                    ParseTree::Top([sym(0), sym(3)].into_iter().collect()),
                    ParseTree::roll(ParseTree::Char(sym(7))),
                ]),
            ),
        ))
    }

    #[test]
    fn trees_round_trip_with_the_same_measures() {
        let samples = [
            sample_tree(),
            ParseTree::Tuple(vec![
                ParseTree::pair(ParseTree::Char(sym(4)), ParseTree::Char(sym(5))),
                ParseTree::Top([sym(4), sym(5)].into_iter().collect()),
            ]),
            ParseTree::pair(
                ParseTree::Top([sym(9)].into_iter().collect()),
                ParseTree::inj(3, ParseTree::Unit),
            ),
        ];
        for tree in samples {
            let tape = ParseTape::from_tree(&tree);
            assert_eq!(tape.to_tree(), tree);
            assert_eq!(tape.size(), tree.size());
            assert_eq!(tape.flatten(), tree.flatten());
            assert_eq!(tape.yield_len(), tree.flatten().len());
            assert_eq!(tape.roots(), 1);
        }
    }

    #[test]
    fn forests_decode_from_tree_starts() {
        let mut tape = ParseTape::new();
        tape.push_char(sym(1));
        let second = tape.len();
        tape.push_tree(&sample_tree());
        assert_eq!(tape.roots(), 2);
        assert_eq!(
            tape.trees_from(0),
            vec![ParseTree::Char(sym(1)), sample_tree()]
        );
        assert_eq!(tape.trees_from(second), vec![sample_tree()]);
        let mut w = vec![sym(1)];
        w.extend(sample_tree().flatten().iter());
        assert_eq!(tape.flatten(), GString::from_symbols(w));
        assert_eq!(tape.yield_len(), tape.flatten().len());
    }

    #[test]
    fn rewrites_keep_the_shape() {
        let mut tape = ParseTape::new();
        tape.push_char(sym(1));
        let inj = tape.len();
        tape.push_inj(0);
        tape.rewrite(0, Record::Char(sym(2)));
        tape.rewrite(inj, Record::Inj(5));
        assert_eq!(tape.to_tree(), ParseTree::inj(5, ParseTree::Char(sym(2))));
        assert_eq!((tape.size(), tape.yield_len()), (2, 1));
    }

    #[test]
    #[should_panic(expected = "needs 2 trees")]
    fn a_pair_needs_two_trees() {
        let mut tape = ParseTape::new();
        tape.push_unit();
        tape.push_pair();
    }

    #[test]
    fn a_million_record_tape_lives_on_a_small_stack() {
        std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(|| {
                // A right-deep chain: every leaf is written before any
                // pair, so the tape's one tree is a million records deep.
                let n = 500_000;
                let mut tape = ParseTape::with_capacity(2 * n);
                for i in 0..n {
                    tape.push_char(sym(i % 7));
                }
                for _ in 1..n {
                    tape.push_pair();
                }
                tape.push_roll();
                assert_eq!(tape.size(), 2 * n);
                assert_eq!(tape.roots(), 1);
                let w = tape.flatten();
                assert_eq!(w.len(), n);
                assert_eq!(tape.yield_len(), n);
                assert_eq!(w[n - 1], sym((n - 1) % 7));
                drop(tape);
            })
            .expect("spawn")
            .join()
            .expect("a deep tape is built, flattened and dropped");
    }
}
