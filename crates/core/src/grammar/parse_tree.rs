//! Abstract parse trees and their validation.
//!
//! Definition 5.1 of the paper interprets a grammar `A` as a function from
//! strings to *sets of parses*. A [`ParseTree`] is an element of such a set:
//! a structured witness that a particular string belongs to the grammar.
//!
//! Two operations make "witness" precise:
//!
//! * [`ParseTree::flatten`] — the *yield*: the unique string a tree parses
//!   (every constructor determines how its children's strings concatenate);
//! * [`validate`] — checks that a tree is shape-correct for a grammar *and*
//!   yields the expected string, i.e. `t ∈ A(w)`.
//!
//! The central intrinsic-verification property of the paper — linear terms
//! are parse *transformers* that can never change the underlying string —
//! becomes the executable statement `flatten(f(t)) == flatten(t)`, which
//! [`crate::transform`] enforces and the test suite checks exhaustively.

use std::fmt;

use crate::alphabet::{GString, Symbol};
use crate::grammar::expr::{Grammar, GrammarExpr, MuSystem};
use std::sync::Arc;

/// A parse tree: one element of the parse set `A(w)` (Definition 5.1).
///
/// The constructors mirror the positive connectives of
/// [`GrammarExpr`] one-for-one.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ParseTree {
    /// Parse of a literal `'c'`.
    Char(Symbol),
    /// The unique parse `()` of `I` at the empty string.
    Unit,
    /// Parse of `A ⊗ B`: parses of the two halves of the split.
    Pair(Box<ParseTree>, Box<ParseTree>),
    /// Parse of `⊕_i A_i`: a parse of summand `index`, tagged `σ index`.
    Inj {
        /// Which summand was taken.
        index: usize,
        /// Parse of that summand.
        tree: Box<ParseTree>,
    },
    /// Parse of a non-empty `&_i A_i`: one parse per component, all with
    /// the same yield.
    Tuple(Vec<ParseTree>),
    /// The unique parse of `⊤` at string `w`; `⊤` controls the whole
    /// string, so the tree must record it to have a well-defined yield.
    Top(GString),
    /// Parse of an inductive type `μF x`: `roll` applied to a parse of the
    /// one-step unfolding (Fig. 10).
    Roll(Box<ParseTree>),
}

impl ParseTree {
    /// Convenience constructor for [`ParseTree::Pair`].
    pub fn pair(l: ParseTree, r: ParseTree) -> ParseTree {
        ParseTree::Pair(Box::new(l), Box::new(r))
    }

    /// Convenience constructor for [`ParseTree::Inj`].
    pub fn inj(index: usize, tree: ParseTree) -> ParseTree {
        ParseTree::Inj {
            index,
            tree: Box::new(tree),
        }
    }

    /// Convenience constructor for [`ParseTree::Roll`].
    pub fn roll(tree: ParseTree) -> ParseTree {
        ParseTree::Roll(Box::new(tree))
    }

    /// The yield of the tree: the string it is a parse of.
    ///
    /// For a [`ParseTree::Tuple`] the yield of the first component is
    /// returned; [`validate`] guarantees all components agree.
    ///
    /// # Panics
    ///
    /// Panics on an empty `Tuple`, which is never produced by this crate
    /// (the empty conjunction is [`ParseTree::Top`]).
    pub fn flatten(&self) -> GString {
        let mut out = GString::new();
        self.flatten_into(&mut out);
        out
    }

    /// Pushes the yield onto `out` with an explicit stack, so a tree as
    /// deep as its input cannot overflow the call stack.
    fn flatten_into(&self, out: &mut GString) {
        let mut stack = vec![self];
        while let Some(t) = stack.pop() {
            match t {
                ParseTree::Char(s) => out.push(*s),
                ParseTree::Unit => {}
                ParseTree::Pair(l, r) => {
                    stack.push(r);
                    stack.push(l);
                }
                ParseTree::Inj { tree, .. } | ParseTree::Roll(tree) => stack.push(tree),
                ParseTree::Tuple(ts) => stack.push(
                    ts.first()
                        .expect("empty Tuple has no well-defined yield; use Top"),
                ),
                ParseTree::Top(w) => out.extend(w.iter()),
            }
        }
    }

    /// Number of constructors in the tree (a size measure used by tests
    /// and benchmarks), counted with an explicit stack.
    pub fn size(&self) -> usize {
        let mut stack = vec![self];
        let mut n = 0;
        while let Some(t) = stack.pop() {
            n += 1;
            match t {
                ParseTree::Char(_) | ParseTree::Unit | ParseTree::Top(_) => {}
                ParseTree::Pair(l, r) => {
                    stack.push(r);
                    stack.push(l);
                }
                ParseTree::Inj { tree, .. } | ParseTree::Roll(tree) => stack.push(tree),
                ParseTree::Tuple(ts) => stack.extend(ts),
            }
        }
        n
    }
}

impl fmt::Display for ParseTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseTree::Char(s) => write!(f, "'{}'", s.index()),
            ParseTree::Unit => write!(f, "()"),
            ParseTree::Pair(l, r) => write!(f, "({l}, {r})"),
            ParseTree::Inj { index, tree } => write!(f, "σ{index} {tree}"),
            ParseTree::Tuple(ts) => {
                write!(f, "⟨")?;
                for (i, t) in ts.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{t}")?;
                }
                write!(f, "⟩")
            }
            ParseTree::Top(w) => write!(f, "⊤{w}"),
            ParseTree::Roll(t) => write!(f, "roll {t}"),
        }
    }
}

/// Why a parse tree failed to validate against a grammar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateError {
    /// The tree's constructor does not match the grammar connective.
    ShapeMismatch {
        /// Display form of the grammar expected at this position.
        expected: String,
        /// Display form of the offending subtree.
        found: String,
    },
    /// An `Inj` index or `Tuple` arity is out of range for the grammar.
    IndexOutOfRange {
        /// The offending index or arity.
        index: usize,
        /// The number of summands/components available.
        arity: usize,
    },
    /// The tree's yield differs from the string it claims to parse.
    YieldMismatch {
        /// The expected string.
        expected: GString,
        /// The tree's actual yield.
        found: GString,
    },
    /// A recursion variable was encountered with no enclosing system
    /// (ill-scoped grammar).
    UnboundVar(usize),
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::ShapeMismatch { expected, found } => {
                write!(f, "tree {found} does not match grammar {expected}")
            }
            ValidateError::IndexOutOfRange { index, arity } => {
                write!(f, "index {index} out of range for arity {arity}")
            }
            ValidateError::YieldMismatch { expected, found } => {
                write!(f, "yield {found} differs from expected string {expected}")
            }
            ValidateError::UnboundVar(i) => write!(f, "unbound recursion variable X{i}"),
        }
    }
}

impl std::error::Error for ValidateError {}

/// Checks that `tree ∈ grammar(w)`: the tree is shape-correct for the
/// grammar and its yield is exactly `w`.
///
/// # Errors
///
/// Returns a [`ValidateError`] describing the first violation found.
///
/// # Examples
///
/// ```
/// use lambek_core::alphabet::Alphabet;
/// use lambek_core::grammar::expr::{alt, chr, tensor};
/// use lambek_core::grammar::parse_tree::{validate, ParseTree};
///
/// let sigma = Alphabet::abc();
/// let (a, b) = (sigma.symbol("a").unwrap(), sigma.symbol("b").unwrap());
/// // Fig. 1: "ab" is parsed by ('a' ⊗ 'b') ⊕ 'c' with the tree inl (a, b).
/// let g = alt(tensor(chr(a), chr(b)), chr(sigma.symbol("c").unwrap()));
/// let t = ParseTree::inj(0, ParseTree::pair(ParseTree::Char(a), ParseTree::Char(b)));
/// let w = sigma.parse_str("ab").unwrap();
/// assert!(validate(&t, &g, &w).is_ok());
/// ```
pub fn validate(tree: &ParseTree, grammar: &Grammar, w: &GString) -> Result<(), ValidateError> {
    let yielded = tree.flatten();
    if &yielded != w {
        return Err(ValidateError::YieldMismatch {
            expected: w.clone(),
            found: yielded,
        });
    }
    check_shape(tree, grammar, None)
}

/// Checks only the shape of a tree against a grammar, ignoring the yield.
///
/// Useful when the string is implied (e.g. for transformer codomain checks
/// where the yield is separately known to be preserved).
///
/// # Errors
///
/// Returns a [`ValidateError`] on the first structural mismatch.
pub fn check_shape(
    tree: &ParseTree,
    grammar: &Grammar,
    system: Option<&Arc<MuSystem>>,
) -> Result<(), ValidateError> {
    let mismatch = || ValidateError::ShapeMismatch {
        expected: format!("{grammar}"),
        found: format!("{tree}"),
    };
    match (&**grammar, tree) {
        (GrammarExpr::Char(c), ParseTree::Char(s)) if c == s => Ok(()),
        (GrammarExpr::Eps, ParseTree::Unit) => Ok(()),
        (GrammarExpr::Top, ParseTree::Top(_)) => Ok(()),
        (GrammarExpr::Bot, _) => Err(mismatch()),
        (GrammarExpr::Tensor(l, r), ParseTree::Pair(tl, tr)) => {
            check_shape(tl, l, system)?;
            check_shape(tr, r, system)
        }
        (GrammarExpr::Plus(gs), ParseTree::Inj { index, tree }) => {
            let g = gs.get(*index).ok_or(ValidateError::IndexOutOfRange {
                index: *index,
                arity: gs.len(),
            })?;
            check_shape(tree, g, system)
        }
        (GrammarExpr::With(gs), ParseTree::Tuple(ts)) => {
            if gs.len() != ts.len() {
                return Err(ValidateError::IndexOutOfRange {
                    index: ts.len(),
                    arity: gs.len(),
                });
            }
            let base = ts.first().map(ParseTree::flatten).unwrap_or_default();
            for (g, t) in gs.iter().zip(ts) {
                // All components of a & parse share one underlying string.
                let y = t.flatten();
                if y != base {
                    return Err(ValidateError::YieldMismatch {
                        expected: base,
                        found: y,
                    });
                }
                check_shape(t, g, system)?;
            }
            Ok(())
        }
        // The empty conjunction is ⊤, represented by With(vec![]) only if
        // built by hand; accept a Top tree for it.
        (GrammarExpr::With(gs), ParseTree::Top(_)) if gs.is_empty() => Ok(()),
        (GrammarExpr::Plus(_), _) if matches!(&**grammar, GrammarExpr::Plus(gs) if gs.is_empty()) => {
            Err(mismatch())
        }
        (GrammarExpr::Mu { system: sys, entry }, ParseTree::Roll(inner)) => {
            check_shape(inner, sys.def(*entry), Some(sys))
        }
        (GrammarExpr::Var(i), ParseTree::Roll(inner)) => match system {
            Some(sys) => {
                if *i >= sys.len() {
                    return Err(ValidateError::UnboundVar(*i));
                }
                check_shape(inner, sys.def(*i), Some(sys))
            }
            None => Err(ValidateError::UnboundVar(*i)),
        },
        _ => Err(mismatch()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::grammar::expr::{alt, and, chr, eps, star, tensor, top};

    fn setup() -> (Alphabet, Symbol, Symbol, Symbol) {
        let sigma = Alphabet::abc();
        let a = sigma.symbol("a").unwrap();
        let b = sigma.symbol("b").unwrap();
        let c = sigma.symbol("c").unwrap();
        (sigma, a, b, c)
    }

    #[test]
    fn fig1_ab_parse_validates() {
        let (sigma, a, b, c) = setup();
        let g = alt(tensor(chr(a), chr(b)), chr(c));
        let t = ParseTree::inj(0, ParseTree::pair(ParseTree::Char(a), ParseTree::Char(b)));
        let w = sigma.parse_str("ab").unwrap();
        assert_eq!(validate(&t, &g, &w), Ok(()));
    }

    #[test]
    fn wrong_string_fails_with_yield_mismatch() {
        let (sigma, a, b, c) = setup();
        let g = alt(tensor(chr(a), chr(b)), chr(c));
        let t = ParseTree::inj(0, ParseTree::pair(ParseTree::Char(a), ParseTree::Char(b)));
        let w = sigma.parse_str("ba").unwrap();
        assert!(matches!(
            validate(&t, &g, &w),
            Err(ValidateError::YieldMismatch { .. })
        ));
    }

    #[test]
    fn fig3_star_parse_validates() {
        let (sigma, a, b, c) = setup();
        // ('a'* ⊗ 'b') ⊕ 'c' parses "ab" via inl (cons a nil, b).
        let g = alt(tensor(star(chr(a)), chr(b)), chr(c));
        // star trees: roll (σ1 (a, roll (σ0 ())))  — cons a nil.
        let nil = ParseTree::roll(ParseTree::inj(0, ParseTree::Unit));
        let cons_a_nil =
            ParseTree::roll(ParseTree::inj(1, ParseTree::pair(ParseTree::Char(a), nil)));
        let t = ParseTree::inj(0, ParseTree::pair(cons_a_nil, ParseTree::Char(b)));
        let w = sigma.parse_str("ab").unwrap();
        assert_eq!(validate(&t, &g, &w), Ok(()));
    }

    #[test]
    fn shape_mismatch_detected() {
        let (sigma, a, b, _) = setup();
        let g = tensor(chr(a), chr(b));
        let t = ParseTree::Char(a);
        // Yield differs too, so validate reports yield first; check shape
        // directly to exercise the structural error.
        let err = check_shape(&t, &g, None).unwrap_err();
        assert!(matches!(err, ValidateError::ShapeMismatch { .. }));
        let _ = sigma;
    }

    #[test]
    fn with_components_must_share_yield() {
        let (sigma, a, b, _) = setup();
        let g = and(top(), top());
        let t = ParseTree::Tuple(vec![
            ParseTree::Top(sigma.parse_str("a").unwrap()),
            ParseTree::Top(sigma.parse_str("b").unwrap()),
        ]);
        assert!(matches!(
            check_shape(&t, &g, None),
            Err(ValidateError::YieldMismatch { .. })
        ));
        let _ = (a, b);
    }

    #[test]
    fn top_parse_records_string() {
        let (sigma, ..) = setup();
        let w = sigma.parse_str("abc").unwrap();
        let t = ParseTree::Top(w.clone());
        assert_eq!(t.flatten(), w);
        assert_eq!(validate(&t, &top(), &w), Ok(()));
    }

    #[test]
    fn bot_has_no_parses() {
        let t = ParseTree::Unit;
        assert!(check_shape(&t, &crate::grammar::expr::bot(), None).is_err());
    }

    #[test]
    fn inj_index_out_of_range() {
        let (_, a, ..) = setup();
        let g = alt(chr(a), eps());
        let t = ParseTree::inj(5, ParseTree::Unit);
        assert!(matches!(
            check_shape(&t, &g, None),
            Err(ValidateError::IndexOutOfRange { index: 5, arity: 2 })
        ));
    }

    #[test]
    fn deep_towers_size_and_flatten_on_a_small_stack() {
        std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(|| {
                let (_, a, ..) = setup();
                let mut tree = ParseTree::Char(a);
                for _ in 0..200_000 {
                    tree = ParseTree::roll(tree);
                }
                assert_eq!(tree.size(), 200_001);
                assert_eq!(tree.flatten().len(), 1);
                // Take the tower apart iteratively: the derived `Drop`
                // recurses once per level.
                let mut levels = 0;
                while let ParseTree::Roll(inner) = tree {
                    tree = *inner;
                    levels += 1;
                }
                assert_eq!((levels, tree), (200_000, ParseTree::Char(a)));
            })
            .expect("spawn")
            .join()
            .expect("a 200k-deep tower sizes and flattens iteratively");
    }

    #[test]
    fn size_counts_constructors() {
        let t = ParseTree::pair(ParseTree::Unit, ParseTree::inj(0, ParseTree::Unit));
        assert_eq!(t.size(), 4);
    }
}
