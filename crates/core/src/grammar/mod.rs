//! Formal grammars: the denotational layer of Dependent Lambek Calculus.
//!
//! A grammar is a function from strings to sets of parse trees
//! (Definition 5.1). This module provides:
//!
//! * [`expr`] — deep linear-type expressions (the positive connectives);
//! * [`parse_tree`] — abstract parses, yields and validation;
//! * [`tape`] — the same parses as flat postorder records, the form the
//!   LR machine writes;
//! * [`compile`] — flattening to a node graph with nullability analysis;
//! * [`recognize`] — deciding membership `w ∈ L(A)`;
//! * [`enumerate`] — materializing/counting the parse set `A(w)`;
//! * [`string_type`] — the `Char` and `String` grammars and the canonical
//!   string parse (§3.4, Axiom 3.4);
//! * [`distributivity`] — executable forms of Axioms 3.1 and 3.3 and the
//!   start-character decomposition used by the lookahead parser.

pub mod compile;
pub mod distributivity;
pub mod enumerate;
pub mod expr;
pub mod parse_tree;
pub mod recognize;
pub mod string_type;
pub mod tape;
