//! The certified wrapper: every token stream that leaves the lexing
//! subsystem is re-validated against the raw input and the spec.
//!
//! The maximal-munch driver is fast *extrinsically* verified code;
//! [`CertifiedLexer`] restores the paper's intrinsic-verification
//! contract at the subsystem boundary, the same move `lambek-lr` makes
//! for its parse trees. Two independent checks run on every emitted
//! stream:
//!
//! 1. **Tiling** — the lexeme spans concatenate *exactly* to the input:
//!    contiguous, in order, first at byte 0, last ending at
//!    `input.len()`, and each token's text is literally the bytes its
//!    span points at. This is the lexer-level analogue of the parse
//!    trees' "the yield is the input".
//! 2. **Membership** — each lexeme is re-matched against its rule's
//!    regex by the independent Brzozowski-derivative checker
//!    ([`regex_grammars::derivative::matches`]), which shares no code
//!    with the Thompson/determinize/minimize pipeline the driver runs
//!    on. A bug anywhere in that pipeline (or in the driver's
//!    backtracking) surfaces as a [`LexCertifyError`], never as a bad
//!    token reaching the parser.
//!
//! Both checks are *incremental*: [`LexCertifier`] carries the tiling
//! cursor as a running invariant and discharges the membership
//! obligation per token at its munch boundary, so [`CertifiedLexer::lex`]
//! and the streaming pipelines certify in O(lexeme) amortized work per
//! token instead of re-walking the whole stream at the end. The
//! re-match steps one [`LazyDerivMatcher`] per rule — the same
//! derivatives, memoized as a table of derivative states shared across
//! lexemes and threads — straight over the lexeme's characters, so no
//! lexeme text is copied or retained. Each certifier takes an immutable
//! [`DerivSnapshot`] of every rule's table when it is created and steps
//! those without locking; only a transition its snapshot lacks takes
//! the rule's lock, derives (or finds) it, and refreshes the snapshot.
//! Concurrent requests on one lexer therefore share the memo without
//! serializing on it. [`CertifiedLexer::lex_full`] keeps the original
//! whole-stream re-validation as the slow differential reference.

use std::fmt;
use std::sync::Arc;

use regex_grammars::derivative::matches;
use regex_grammars::lazy::{DerivSnapshot, LazyDerivMatcher};

use crate::compile::LexAutomaton;
use crate::driver::{LexError, RawLexeme, Token, TokenStream};
use crate::probes::CertTally;
use crate::spec::LexSpec;

/// The outcome of a certified lex.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LexedOutcome {
    /// The input lexes; the stream has passed both certification
    /// checks.
    Tokens(TokenStream),
    /// The input does not lex; the error points at the offending byte.
    Reject(LexError),
}

impl LexedOutcome {
    /// The certified token stream, if the input lexed.
    pub fn tokens(&self) -> Option<&TokenStream> {
        match self {
            LexedOutcome::Tokens(t) => Some(t),
            LexedOutcome::Reject(_) => None,
        }
    }

    /// `true` when the input lexed.
    pub fn is_accept(&self) -> bool {
        matches!(self, LexedOutcome::Tokens(_))
    }
}

/// A violation of the lexer's certification contract: the driver
/// produced a token stream the independent checks refuse. This never
/// happens for a correctly compiled automaton; it is surfaced (rather
/// than trusted or panicked on) so callers can treat it as an internal
/// error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexCertifyError {
    /// What the re-validation found.
    pub message: String,
}

impl fmt::Display for LexCertifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lexer emitted an invalid token stream: {}", self.message)
    }
}

impl std::error::Error for LexCertifyError {}

/// A maximal-munch lexer whose every output is re-validated: spans must
/// tile the input and every lexeme must independently re-match its
/// rule's regex.
///
/// Cheap to clone (`Arc`-shared automaton) and `Send + Sync`.
///
/// # Examples
///
/// ```
/// use lambek_core::alphabet::Alphabet;
/// use lambek_lex::{CertifiedLexer, LexSpecBuilder};
///
/// let sigma = Alphabet::from_chars("ab ");
/// let spec = LexSpecBuilder::new(sigma)
///     .token("A", "aa*")?
///     .token("B", "b")?
///     .skip("WS", "  *")?
///     .build()?;
/// let lexer = CertifiedLexer::compile(spec);
/// let out = lexer.lex("aa b").unwrap();
/// let stream = out.tokens().expect("lexes");
/// assert_eq!(stream.yield_string().len(), 2); // A B — the skip is gone
/// # Ok::<(), lambek_lex::SpecError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CertifiedLexer {
    auto: LexAutomaton,
    /// One memoized derivative matcher per rule, shared by every
    /// certifier this lexer hands out — the lazily discovered
    /// derivative states persist across inputs and threads.
    matchers: Arc<Vec<LazyDerivMatcher>>,
}

impl CertifiedLexer {
    /// Compiles `spec` (Thompson → tagged determinize → minimize) and
    /// wraps it with the certification layer.
    pub fn compile(spec: LexSpec) -> CertifiedLexer {
        CertifiedLexer::from_automaton(LexAutomaton::compile(spec))
    }

    /// Wraps an already-compiled automaton.
    pub fn from_automaton(auto: LexAutomaton) -> CertifiedLexer {
        let sigma_len = auto.spec().alphabet().len();
        let matchers = auto
            .spec()
            .rules()
            .iter()
            .map(|r| LazyDerivMatcher::new(r.regex.clone(), sigma_len))
            .collect();
        CertifiedLexer {
            auto,
            matchers: Arc::new(matchers),
        }
    }

    /// The spec being served.
    pub fn spec(&self) -> &LexSpec {
        self.auto.spec()
    }

    /// The compiled automaton (introspection, streams, benchmarks).
    pub fn automaton(&self) -> &LexAutomaton {
        &self.auto
    }

    /// Lexes `input` and certifies the result, incrementally: each
    /// lexeme is checked at its munch boundary (span tiling as a
    /// running cursor, derivative re-match per token) rather than in a
    /// whole-stream pass at the end.
    ///
    /// # Errors
    ///
    /// [`LexCertifyError`] if the driver's output fails re-validation —
    /// impossible for a correctly compiled automaton, surfaced instead
    /// of trusted. A merely *unlexable* input is not an error; it comes
    /// back as [`LexedOutcome::Reject`].
    pub fn lex(&self, input: &str) -> Result<LexedOutcome, LexCertifyError> {
        let mut cert = self.certifier();
        let mut tokens = Vec::new();
        for item in self.auto.lexemes(input) {
            match item {
                Err(e) => return Ok(LexedOutcome::Reject(e)),
                Ok(t) => {
                    cert.check(input, &t)?;
                    tokens.push(t);
                }
            }
        }
        cert.finish(input)?;
        Ok(LexedOutcome::Tokens(TokenStream::from_tokens(tokens)))
    }

    /// [`CertifiedLexer::lex`] with the original whole-stream
    /// re-validation instead of the incremental certifier: the driver
    /// materializes the full token list, then [`CertifiedLexer::certify`]
    /// re-walks it from scratch. Kept as the slow reference the
    /// differential suites compare the incremental path against.
    ///
    /// # Errors
    ///
    /// As [`CertifiedLexer::lex`].
    pub fn lex_full(&self, input: &str) -> Result<LexedOutcome, LexCertifyError> {
        match self.auto.lex_raw(input) {
            Err(e) => Ok(LexedOutcome::Reject(e)),
            Ok(tokens) => {
                self.certify(input, &tokens)?;
                Ok(LexedOutcome::Tokens(TokenStream::from_tokens(tokens)))
            }
        }
    }

    /// Opens a fresh incremental certifier for one input: feed it every
    /// emitted token in order via [`LexCertifier::check`], then close
    /// the tiling with [`LexCertifier::finish`]. The certifier snapshots
    /// every rule's derivative table here, once.
    pub fn certifier(&self) -> LexCertifier {
        LexCertifier {
            auto: self.auto.clone(),
            tables: self
                .matchers
                .iter()
                .map(LazyDerivMatcher::snapshot)
                .collect(),
            matchers: self.matchers.clone(),
            cursor: 0,
            index: 0,
            tally: CertTally::default(),
        }
    }

    /// The certification pass on its own: checks that `tokens` tile
    /// `input` exactly and that every lexeme independently re-matches
    /// its rule's regex. Exposed so streaming consumers (which collect
    /// tokens incrementally) can run the same checks at `finish`.
    ///
    /// # Errors
    ///
    /// [`LexCertifyError`] describing the first violated obligation.
    pub fn certify(&self, input: &str, tokens: &[Token]) -> Result<(), LexCertifyError> {
        let spec = self.spec();
        let err = |message: String| Err(LexCertifyError { message });
        // (1) Spans tile the input exactly.
        let mut pos = 0usize;
        for (i, t) in tokens.iter().enumerate() {
            if t.span.start != pos {
                return err(format!(
                    "token {i} starts at byte {} but the previous lexeme ended at {pos}",
                    t.span.start
                ));
            }
            match input.get(t.span.start..t.span.end) {
                Some(slice) if slice == t.text => {}
                _ => {
                    return err(format!(
                        "token {i} claims {:?} at {} but the input disagrees",
                        t.text, t.span
                    ))
                }
            }
            pos = t.span.end;
        }
        if pos != input.len() {
            return err(format!(
                "lexemes cover only {pos} of {} input bytes",
                input.len()
            ));
        }
        // (2) Independent regex membership per lexeme, plus internal
        // consistency of the rule/symbol bookkeeping. Lexemes repeat
        // heavily (operators, short numerals), so verdicts are memoized
        // per (rule, text) within the pass — each *distinct* lexeme is
        // still re-derived from scratch.
        let mut verdicts: std::collections::HashMap<(usize, &str), bool> =
            std::collections::HashMap::new();
        for (i, t) in tokens.iter().enumerate() {
            let Some(rule) = spec.rules().get(t.rule) else {
                return err(format!("token {i} references unknown rule {}", t.rule));
            };
            if t.sym != spec.token_symbol(t.rule) {
                return err(format!(
                    "token {i} carries the wrong token-alphabet symbol for rule {:?}",
                    rule.name
                ));
            }
            let ok = match verdicts.get(&(t.rule, t.text.as_str())) {
                Some(&ok) => ok,
                None => {
                    let ok = spec
                        .alphabet()
                        .parse_str(&t.text)
                        .is_some_and(|w| matches(&rule.regex, &w));
                    verdicts.insert((t.rule, t.text.as_str()), ok);
                    ok
                }
            };
            if !ok {
                return err(format!(
                    "token {i} lexeme {:?} is not in rule {:?} (derivative re-match failed)",
                    t.text, rule.name
                ));
            }
        }
        Ok(())
    }
}

/// The incremental form of [`CertifiedLexer::certify`]: the same two
/// obligations — span tiling and independent regex membership —
/// discharged token by token as the driver emits them, instead of in a
/// whole-stream pass at the end.
///
/// The tiling check is a running byte cursor: each token must start
/// exactly where the previous lexeme ended and its text must be
/// literally the input bytes its span points at; [`LexCertifier::finish`]
/// closes the invariant by demanding the cursor reached the end of the
/// input. Membership re-matches each lexeme against its rule's regex on
/// the lexer's shared memoized derivative matcher, stepping the
/// certifier's own snapshot of each rule's table: once a table has
/// settled, a lexeme certifies in one lock-free table lookup per
/// character, and nothing about the lexeme is kept afterwards.
#[derive(Debug, Clone)]
pub struct LexCertifier {
    auto: LexAutomaton,
    matchers: Arc<Vec<LazyDerivMatcher>>,
    /// Per rule: the snapshot of `matchers[rule]`'s table this
    /// certifier steps, refreshed only when a lexeme needs a transition
    /// it lacks.
    tables: Vec<DerivSnapshot>,
    /// Where the next token must start: the running tiling invariant.
    cursor: usize,
    /// How many tokens have been checked (for error messages).
    index: usize,
    /// Re-match counts for the process-wide probes, flushed on drop.
    tally: CertTally,
}

impl LexCertifier {
    /// Certifies the next emitted token against `input`, advancing the
    /// tiling cursor. `input` must be the same string (or a growing
    /// extension of it) on every call.
    ///
    /// # Errors
    ///
    /// [`LexCertifyError`] describing the first violated obligation;
    /// the messages match [`CertifiedLexer::certify`]'s.
    pub fn check(&mut self, input: &str, t: &Token) -> Result<(), LexCertifyError> {
        let i = self.index;
        let err = |message: String| Err(LexCertifyError { message });
        if t.span.start != self.cursor {
            return err(format!(
                "token {i} starts at byte {} but the previous lexeme ended at {}",
                t.span.start, self.cursor
            ));
        }
        match input.get(t.span.start..t.span.end) {
            Some(slice) if slice == t.text => {}
            _ => {
                return err(format!(
                    "token {i} claims {:?} at {} but the input disagrees",
                    t.text, t.span
                ))
            }
        }
        self.check_membership(i, t.rule, t.sym, &t.text)?;
        self.cursor = t.span.end;
        self.index += 1;
        Ok(())
    }

    /// Certifies the next emitted lexeme by *span*, reading the lexeme
    /// text straight out of `input`: the allocation-free form of
    /// [`LexCertifier::check`] the fused pipelines use, where no
    /// [`Token`] (and no owned text) ever exists. The obligations are
    /// identical — the span must start at the tiling cursor and denote
    /// a real slice of `input`, and that slice must independently
    /// re-match the rule's regex — only the "claimed text equals the
    /// slice" clause is vacuous, since the text *is* the slice.
    ///
    /// # Errors
    ///
    /// As [`LexCertifier::check`], with matching messages.
    pub fn check_raw(&mut self, input: &str, l: &RawLexeme) -> Result<(), LexCertifyError> {
        let i = self.index;
        if l.span.start != self.cursor {
            return Err(LexCertifyError {
                message: format!(
                    "token {i} starts at byte {} but the previous lexeme ended at {}",
                    l.span.start, self.cursor
                ),
            });
        }
        let Some(slice) = input.get(l.span.start..l.span.end) else {
            return Err(LexCertifyError {
                message: format!(
                    "token {i} claims span {} but the input has no such slice",
                    l.span
                ),
            });
        };
        self.check_membership(i, l.rule, l.sym, slice)?;
        self.cursor = l.span.end;
        self.index += 1;
        Ok(())
    }

    /// The membership half shared by [`LexCertifier::check`] and
    /// [`LexCertifier::check_raw`]: rule/symbol bookkeeping plus the
    /// independent derivative re-match, stepped straight over `text`'s
    /// characters with no allocation.
    fn check_membership(
        &mut self,
        i: usize,
        rule_idx: usize,
        sym: Option<lambek_core::alphabet::Symbol>,
        text: &str,
    ) -> Result<(), LexCertifyError> {
        let spec = self.auto.spec();
        let err = |message: String| Err(LexCertifyError { message });
        let Some(rule) = spec.rules().get(rule_idx) else {
            return err(format!("token {i} references unknown rule {rule_idx}"));
        };
        if sym != spec.token_symbol(rule_idx) {
            return err(format!(
                "token {i} carries the wrong token-alphabet symbol for rule {:?}",
                rule.name
            ));
        }
        // A character outside the alphabet ends the walk and fails the
        // match.
        let sigma = spec.alphabet();
        let mut foreign = false;
        let run = self.matchers[rule_idx].run(
            &mut self.tables[rule_idx],
            text.chars().map_while(|c| {
                let s = sigma.symbol_of_char(c);
                foreign |= s.is_none();
                s
            }),
        );
        self.tally.rematch(run.derived);
        if foreign || !run.matched {
            return err(format!(
                "token {i} lexeme {text:?} is not in rule {:?} (derivative re-match failed)",
                rule.name
            ));
        }
        Ok(())
    }

    /// Closes the tiling invariant: the checked lexemes must cover the
    /// whole of `input`.
    ///
    /// # Errors
    ///
    /// [`LexCertifyError`] if bytes remain past the last lexeme.
    pub fn finish(&self, input: &str) -> Result<(), LexCertifyError> {
        if self.cursor != input.len() {
            return Err(LexCertifyError {
                message: format!(
                    "lexemes cover only {} of {} input bytes",
                    self.cursor,
                    input.len()
                ),
            });
        }
        Ok(())
    }

    /// How many tokens have been certified so far.
    pub fn checked(&self) -> usize {
        self.index
    }

    /// The tiling cursor: the byte offset the next token must start at.
    pub fn cursor(&self) -> usize {
        self.cursor
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Span;
    use crate::spec::{class, plus, LexSpecBuilder};
    use lambek_core::alphabet::Alphabet;
    use regex_grammars::ast::Regex;

    fn lexer() -> CertifiedLexer {
        let sigma = Alphabet::from_chars("ab ");
        CertifiedLexer::compile(
            LexSpecBuilder::new(sigma)
                .token("A", "aa*")
                .unwrap()
                .token("B", "b")
                .unwrap()
                .skip("WS", "  *")
                .unwrap()
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn accepted_streams_are_certified() {
        let lexer = lexer();
        let out = lexer.lex("aab aa b").unwrap();
        let ts = out.tokens().unwrap();
        // "aa" "b" " " "aa" " " "b" — the tiling includes the skips…
        assert_eq!(ts.tokens().len(), 6);
        // …and the yield drops them: A B A B.
        assert_eq!(ts.yield_string().len(), 4);
        assert!(out.is_accept());
    }

    #[test]
    fn rejections_are_outcomes_not_certify_errors() {
        let lexer = lexer();
        let out = lexer.lex("aXa").unwrap();
        assert!(!out.is_accept());
        assert!(out.tokens().is_none());
        match out {
            LexedOutcome::Reject(e) => assert_eq!(e.at, 1),
            LexedOutcome::Tokens(_) => panic!("X does not lex"),
        }
    }

    #[test]
    fn certify_catches_every_kind_of_corruption() {
        let lexer = lexer();
        let good = lexer.auto.lex_raw("ab").unwrap();
        assert!(lexer.certify("ab", &good).is_ok());

        // A gap.
        let mut bad = good.clone();
        bad.remove(0);
        assert!(lexer
            .certify("ab", &bad)
            .unwrap_err()
            .message
            .contains("ended"));

        // Wrong text for the span.
        let mut bad = good.clone();
        bad[0].text = "b".to_owned();
        assert!(lexer.certify("ab", &bad).is_err());

        // Truncated coverage.
        let mut bad = good.clone();
        bad.pop();
        assert!(lexer
            .certify("ab", &bad)
            .unwrap_err()
            .message
            .contains("cover"));

        // Lexeme not in its rule's language (derivative re-match).
        let mut bad = good.clone();
        bad[0].rule = 1; // claim "a" came from rule B
        bad[0].sym = lexer.spec().token_symbol(1);
        assert!(lexer
            .certify("ab", &bad)
            .unwrap_err()
            .message
            .contains("derivative"));

        // Unknown rule index.
        let mut bad = good.clone();
        bad[0].rule = 99;
        assert!(lexer.certify("ab", &bad).is_err());

        // Wrong token symbol.
        let mut bad = good;
        bad[0].sym = None;
        assert!(lexer.certify("ab", &bad).is_err());
    }

    #[test]
    fn incremental_membership_refuses_characters_outside_the_alphabet() {
        let lexer = lexer();
        // "a" matches rule A, so a walk that stopped at `X` without
        // failing would wrongly accept "aX".
        let input = "aX";
        let raw = RawLexeme {
            rule: 0,
            span: Span { start: 0, end: 2 },
            sym: lexer.spec().token_symbol(0),
        };
        let err = lexer.certifier().check_raw(input, &raw).unwrap_err();
        assert!(err.message.contains("derivative"), "{err}");
        let err = lexer
            .certifier()
            .check(input, &raw.to_token(input))
            .unwrap_err();
        assert!(err.message.contains("derivative"), "{err}");
    }

    /// Letters, digits, `+` and space: numerals, identifiers, plus and
    /// skipped whitespace — a vocabulary where nearly every lexeme of a
    /// generated text is distinct.
    fn idents_and_numerals() -> CertifiedLexer {
        let sigma = Alphabet::from_chars("abcdefghijklmnopqrstuvwxyz0123456789+ ");
        let letter = class(&sigma, "abcdefghijklmnopqrstuvwxyz");
        let digit = class(&sigma, "0123456789");
        let ident = Regex::concat(
            letter.clone(),
            Regex::star(Regex::alt(letter, digit.clone())),
        );
        CertifiedLexer::compile(
            LexSpecBuilder::new(sigma.clone())
                .token_re("NUM", plus(digit))
                .unwrap()
                .token_re("ID", ident)
                .unwrap()
                .token("+", "+")
                .unwrap()
                .skip("WS", "  *")
                .unwrap()
                .build()
                .unwrap(),
        )
    }

    /// Sums the derivative states every rule's matcher has discovered.
    fn derivative_states(lexer: &CertifiedLexer) -> usize {
        lexer
            .matchers
            .iter()
            .map(LazyDerivMatcher::num_states)
            .sum()
    }

    /// `n`'s letters in bijective base 26, so distinct `n` give
    /// distinct identifiers.
    fn ident(mut n: u64) -> String {
        let mut out = Vec::new();
        loop {
            out.push(b'a' + (n % 26) as u8);
            n /= 26;
            if n == 0 {
                break;
            }
            n -= 1;
        }
        out.reverse();
        String::from_utf8(out).unwrap()
    }

    /// The re-match counts a certifier has not flushed yet.
    fn tally(cert: &LexCertifier) -> (u64, u64) {
        (cert.tally.hits, cert.tally.misses)
    }

    #[test]
    fn rematches_count_hits_once_transitions_are_memoized() {
        let lexer = lexer();
        let input = "aab aa b";
        let lexemes: Vec<_> = lexer.auto.raw_lexemes(input).map(Result::unwrap).collect();
        let mut first = lexer.certifier();
        for l in &lexemes {
            first.check_raw(input, l).unwrap();
        }
        // A fresh matcher derives on its first lexemes…
        assert!(tally(&first).1 > 0);
        // …and a clone starts from zero, so nothing is flushed twice.
        assert_eq!(tally(&first.clone()), (0, 0));
        let mut second = lexer.certifier();
        for l in &lexemes {
            second.check_raw(input, l).unwrap();
        }
        // The same lexemes again run on memoized transitions only.
        assert_eq!(tally(&second), (lexemes.len() as u64, 0));
    }

    #[test]
    fn a_flood_of_distinct_lexemes_discovers_no_new_states_the_second_time() {
        let lexer = idents_and_numerals();
        // About 1 MiB of numerals and identifiers that never repeat,
        // cut into 64 KiB documents.
        let mut docs = Vec::new();
        let mut doc = String::new();
        let mut total = 0;
        let mut n = 0u64;
        while total < 1 << 20 {
            let lexeme = if n.is_multiple_of(2) {
                (n * 7919).to_string()
            } else {
                ident(n)
            };
            doc.push_str(&lexeme);
            doc.push_str(if n.is_multiple_of(3) { "+" } else { " " });
            n += 1;
            if doc.len() >= 64 << 10 {
                total += doc.len();
                docs.push(std::mem::take(&mut doc));
            }
        }
        let expected: Vec<_> = docs.iter().map(|d| lexer.lex_full(d).unwrap()).collect();
        let mut settled = 0;
        for round in 0..2 {
            for (d, want) in docs.iter().zip(&expected) {
                let mut cert = lexer.certifier();
                let mut tokens = Vec::new();
                for t in lexer.auto.lexemes(d) {
                    let t = t.unwrap();
                    cert.check(d, &t).unwrap();
                    tokens.push(t);
                }
                cert.finish(d).unwrap();
                let got = LexedOutcome::Tokens(TokenStream::from_tokens(tokens));
                assert_eq!(&got, want);
                if round == 1 {
                    assert_eq!(tally(&cert).1, 0, "round two derives nothing");
                }
            }
            if round == 0 {
                settled = derivative_states(&lexer);
            }
        }
        // The memo is the derivative table alone: bounded by the
        // rules, not by how many distinct lexemes went through.
        assert_eq!(derivative_states(&lexer), settled);
        assert!(settled <= 16, "derivative tables stay small: {settled}");
    }

    #[test]
    fn concurrent_certifiers_on_a_fresh_lexer_agree_with_the_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        const THREADS: u64 = 4;
        let lexer = idents_and_numerals();
        let alphabet = b"abcdefghijklmnopqrstuvwxyz0123456789+  ";
        let corpora: Vec<Vec<String>> = (0..THREADS)
            .map(|t| {
                let mut rng = StdRng::seed_from_u64(0x5eed + t);
                (0..64)
                    .map(|_| {
                        let len = rng.gen_range(0..2048usize);
                        let mut doc: String = (0..len)
                            .map(|_| alphabet[rng.gen_range(0..alphabet.len())] as char)
                            .collect();
                        // Some documents carry a byte no rule lexes.
                        if rng.gen_bool(0.1) {
                            doc.insert(rng.gen_range(0..=doc.len()), '!');
                        }
                        doc
                    })
                    .collect()
            })
            .collect();
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|scope| {
            for corpus in &corpora {
                let (lexer, start) = (&lexer, &start);
                scope.spawn(move || {
                    start.wait();
                    for doc in corpus {
                        assert_eq!(lexer.lex(doc).unwrap(), lexer.lex_full(doc).unwrap());
                    }
                });
            }
        });
    }

    #[test]
    fn a_certifier_opened_before_the_table_grew_catches_up_without_deriving() {
        let lexer = idents_and_numerals();
        let doc = "abc12 + 345 + x9y + 0";
        let lexemes: Vec<_> = lexer.auto.raw_lexemes(doc).map(Result::unwrap).collect();
        // Opened on the cold lexer: its snapshots hold no transitions.
        let mut stale = lexer.certifier();
        let mut grower = lexer.certifier();
        for l in &lexemes {
            grower.check_raw(doc, l).unwrap();
        }
        assert!(tally(&grower).1 > 0, "the first certifier derives");
        let grown = derivative_states(&lexer);
        let mut tokens = Vec::new();
        for l in &lexemes {
            stale.check_raw(doc, l).unwrap();
            tokens.push(l.to_token(doc));
        }
        stale.finish(doc).unwrap();
        assert_eq!(
            LexedOutcome::Tokens(TokenStream::from_tokens(tokens)),
            lexer.lex_full(doc).unwrap()
        );
        // Refreshing found every transition already derived.
        assert_eq!(tally(&stale), (lexemes.len() as u64, 0));
        assert_eq!(derivative_states(&lexer), grown);
    }

    #[test]
    fn empty_input_certifies_trivially() {
        let lexer = lexer();
        let out = lexer.lex("").unwrap();
        let ts = out.tokens().unwrap();
        assert!(ts.tokens().is_empty());
        assert!(ts.yield_string().is_empty());
        assert_eq!(ts.span_of_yield(0, 0), Span::empty(0));
    }
}
