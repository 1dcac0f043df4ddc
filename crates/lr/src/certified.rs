//! The certified wrapper: every tree that leaves the LR subsystem is
//! checked against the grammar before it escapes.
//!
//! The LR driver is fast *extrinsically* verified code: nothing about
//! the dense tables guarantees by construction that the trees it builds
//! are parses of the input. [`CertifiedLrParser`] restores the paper's
//! intrinsic-verification contract at the subsystem boundary —
//! **incrementally**: every shift and every reduction is certified as it
//! happens, by comparing interned grammar ids ([`CertTables`] built once
//! at compile time) in O(1) per step. The per-step checks maintain the
//! invariant that each stack tree `check_shape`s against its claimed
//! grammar and yields exactly the input slice it covers, so an accepted
//! tree satisfies the whole-tree
//! [`validate`](lambek_core::grammar::parse_tree::validate) contract
//! without ever being re-walked. A driver bug therefore cannot leak an
//! invalid tree; it surfaces as a [`CertifyError`] *at the offending
//! step*.
//!
//! There is one push driver, [`LrSink`], and it carries the claims
//! policy: certify every step, or run blind. Every entrance is that
//! sink over some input — [`CertifiedLrParser::parse`] pushes a whole
//! string into a certifying sink, [`CertifiedLrParser::parse_unchecked`]
//! into a blind one, and [`LrStream`] is a sink plus the input it
//! retained (for snapshots and acceptance probes). The pre-incremental
//! path — run blind, then `validate` the whole tree at the end — is
//! the blind sink finished against its input, behind
//! [`CertifiedLrParser::parse_full`] and
//! [`CertifiedLrParser::stream_full`]; the differential property suite
//! asserts the two policies accept and reject identically.

use std::fmt;
use std::sync::Arc;

use lambek_cfg::grammar::Cfg;
use lambek_core::alphabet::{GString, Symbol};
use lambek_core::grammar::expr::Grammar;
use lambek_core::grammar::parse_tree::{validate, ParseTree, ValidateError};
use lambek_core::grammar::tape::ParseTape;

use crate::driver::{
    recognize_states, would_accept_after_states, would_accept_states, CertTables, ClaimRef,
    Machine, SabotageLr, Step,
};
use crate::table::{LrConflictReport, LrTable};

/// The outcome of a certified LR parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LrOutcome {
    /// The input is in the grammar; the tree, written as a flat
    /// [`ParseTape`], has been certified against the μ-regular grammar
    /// and the input string.
    Accept(ParseTape),
    /// The input is not in the grammar; the report says where the driver
    /// stopped and what it expected.
    Reject(crate::driver::LrReject),
}

impl LrOutcome {
    /// The accepted tree, if any.
    pub fn accepted(&self) -> Option<&ParseTape> {
        match self {
            LrOutcome::Accept(t) => Some(t),
            LrOutcome::Reject(_) => None,
        }
    }

    /// `true` on acceptance.
    pub fn is_accept(&self) -> bool {
        matches!(self, LrOutcome::Accept(_))
    }
}

/// A violation of the certification contract: the driver produced a tree
/// step the checker refused. This never happens for a correctly built
/// table; it is surfaced (rather than panicking) so callers can treat it
/// as an internal error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertifyError {
    /// The checker's verdict on the offending tree (step).
    pub cause: ValidateError,
}

impl fmt::Display for CertifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LR driver emitted an invalid tree: {}", self.cause)
    }
}

impl std::error::Error for CertifyError {}

/// The shared immutable heart of a compiled LR parser: the grammar (in
/// both representations), its dense tables, and the interned-id tables
/// the incremental certifier compares against. One allocation, shared by
/// the parser and every stream opened from it.
#[derive(Debug)]
struct LrCore {
    cfg: Cfg,
    grammar: Grammar,
    table: LrTable,
    cert: CertTables,
}

/// A linear-time LR(1)/LALR parser whose every output tree is certified
/// against the grammar — incrementally, one interned-id comparison per
/// shift and per reduction.
///
/// Construction rejects grammars with unresolvable conflicts
/// ([`LrConflictReport`] points at the offending item sets); parsing is
/// a table-driven shift-reduce run with the certification checks fused
/// into each step. Cloning is cheap (`Arc`-shared core), and the parser
/// is `Send + Sync`, so one compiled instance can serve many threads.
///
/// # Examples
///
/// ```
/// use lambek_cfg::dyck::{dyck_cfg, Parens};
/// use lambek_lr::CertifiedLrParser;
///
/// let p = Parens::new();
/// let parser = CertifiedLrParser::compile(&dyck_cfg(&p)).unwrap();
/// let w = p.alphabet.parse_str("(())()").unwrap();
/// let tape = parser.parse(&w).unwrap().accepted().cloned().unwrap();
/// assert_eq!(tape.flatten(), w); // intrinsic: the yield IS the input
/// assert!(!parser.recognizes(&p.alphabet.parse_str("())").unwrap()));
/// ```
#[derive(Debug, Clone)]
pub struct CertifiedLrParser {
    core: Arc<LrCore>,
}

impl CertifiedLrParser {
    /// Builds the LALR(1) tables for `cfg` and wraps them with the
    /// certification layer (including the interned-id tables the
    /// incremental checks compare against).
    ///
    /// # Errors
    ///
    /// Returns the structured conflict report when the grammar is not
    /// LALR(1) — callers typically fall back to Earley.
    pub fn compile(cfg: &Cfg) -> Result<CertifiedLrParser, LrConflictReport> {
        let table = LrTable::build(cfg)?;
        let cert = CertTables::build(&table, cfg);
        Ok(CertifiedLrParser {
            core: Arc::new(LrCore {
                grammar: cfg.to_lambek(),
                cfg: cfg.clone(),
                table,
                cert,
            }),
        })
    }

    /// The grammar the tables were built from.
    pub fn cfg(&self) -> &Cfg {
        &self.core.cfg
    }

    /// The μ-regular encoding trees are certified against.
    pub fn grammar(&self) -> &Grammar {
        &self.core.grammar
    }

    /// The dense ACTION/GOTO tables (introspection and benchmarks).
    pub fn table(&self) -> &LrTable {
        &self.core.table
    }

    /// Whether `w` is in the grammar — a pure table run, no trees, no
    /// allocation beyond the state stack.
    pub fn recognizes(&self, w: &GString) -> bool {
        recognize_states(&self.core.table, w)
    }

    /// Parses `w`: a linear shift-reduce run with every step certified
    /// as it happens. The accepted tree needs no whole-tree validation —
    /// the per-step checks compose to exactly that contract.
    ///
    /// # Errors
    ///
    /// [`CertifyError`] if the driver produced a step the incremental
    /// checker rejects — impossible for a correctly constructed table,
    /// surfaced instead of trusted.
    pub fn parse(&self, w: &GString) -> Result<LrOutcome, CertifyError> {
        self.run(true, w).finish()
    }

    /// The `full_validate` path: runs the driver blind and re-validates
    /// the whole tree at the end, exactly as the subsystem worked before
    /// incremental certification. Kept so the differential harness can
    /// assert incremental ≡ full on every input.
    ///
    /// # Errors
    ///
    /// [`CertifyError`] under the same (driver-bug) conditions as
    /// [`CertifiedLrParser::parse`].
    pub fn parse_full(&self, w: &GString) -> Result<LrOutcome, CertifyError> {
        self.run(false, w).finish_against(w)
    }

    /// The uncertified baseline: the same shift-reduce run and tree
    /// construction with *no* certification at all — no per-step claims,
    /// no whole-tree validation. Exists only so the benches can separate
    /// the cost of materializing the derivation tree (inherent to any
    /// tree-producing parse) from the cost of certifying it.
    #[doc(hidden)]
    pub fn parse_unchecked(&self, w: &GString) -> LrOutcome {
        self.run(false, w)
            .finish()
            .expect("the uncertified driver never faults")
    }

    /// Pushes `w` into a fresh sink under the given claims policy,
    /// stopping at the first refused symbol.
    fn run(&self, certify: bool, w: &GString) -> LrSink {
        let mut sink = self.sink_with(certify, w.len());
        for sym in w.iter() {
            if !sink.push(sym) {
                break;
            }
        }
        sink
    }

    /// Opens a push-mode stream over this parser, with incremental
    /// certification: each push is checked as it happens and
    /// [`LrStream::finish`] performs no whole-tree validation.
    pub fn stream(&self) -> LrStream {
        LrStream {
            sink: self.sink(),
            input: GString::new(),
        }
    }

    /// Opens a stream on the `full_validate` path: pushes run the driver
    /// blind and [`LrStream::finish`] re-validates the whole tree, as
    /// before incremental certification. Kept for the differential
    /// harness.
    pub fn stream_full(&self) -> LrStream {
        LrStream {
            sink: self.sink_with(false, 0),
            input: GString::new(),
        }
    }

    /// Opens a push sink over this parser: the incremental-certification
    /// machine and nothing else. Unlike [`LrStream`], a sink does not
    /// retain the pushed input (no per-push `GString` growth) and
    /// supports no snapshot/resume or acceptance probes — it exists so a
    /// lexer can feed shifts straight into the LR stack with zero
    /// bookkeeping beyond the parse itself. Rejections carry the *index*
    /// of the offending pushed symbol; the caller (which knows each
    /// symbol's provenance) maps that back to source spans.
    pub fn sink(&self) -> LrSink {
        self.sink_with_capacity(0)
    }

    /// [`CertifiedLrParser::sink`] with both machine stacks pre-sized
    /// for roughly `n` pushes (a hint, not a bound).
    pub fn sink_with_capacity(&self, n: usize) -> LrSink {
        self.sink_with(true, n)
    }

    /// A sink under a claims policy: `certify` checks every step as it
    /// happens; without it the machine runs blind.
    fn sink_with(&self, certify: bool, n: usize) -> LrSink {
        LrSink {
            core: self.core.clone(),
            machine: Machine::with_capacity(n),
            certify,
            pushed: 0,
            dead: None,
            fault: None,
        }
    }
}

/// The LR push driver (see [`CertifiedLrParser::sink`]): every push is
/// a shift (plus its pending reductions) into the machine, certified
/// when the sink's claims policy says so. Every parse entrance runs on
/// it: the one-shot parses push a whole string, [`LrStream`] wraps it
/// with the retained input, and the engine's fused lexer pushes
/// lexemes. Once a rejection or fault is recorded, later pushes only
/// advance the index.
#[derive(Debug, Clone)]
pub struct LrSink {
    core: Arc<LrCore>,
    machine: Machine,
    /// The claims policy: `true` certifies every step as it happens,
    /// `false` runs the machine blind (the `full_validate` paths check
    /// the finished tree instead).
    certify: bool,
    /// How many symbols have been pushed (the index space rejections
    /// are reported in).
    pushed: usize,
    /// Set at the first rejected symbol; later pushes are ignored.
    dead: Option<crate::driver::LrReject>,
    /// Set at the first certification fault; later pushes are ignored.
    fault: Option<CertifyError>,
}

impl LrSink {
    /// Consumes one symbol. Returns `false` once the pushed sequence has
    /// stopped being a viable prefix (the sink stays usable; it just
    /// remembers the first rejection for [`LrSink::finish`]).
    #[inline]
    pub fn push(&mut self, sym: Symbol) -> bool {
        let shifted = self.is_viable()
            && match self.feed(Some(sym)) {
                Step::Shifted => true,
                step => {
                    self.settle(step);
                    false
                }
            };
        self.pushed += 1;
        shifted
    }

    /// Feeds the machine one symbol (`None` = end of input) under the
    /// sink's claims policy.
    #[inline]
    fn feed(&mut self, sym: Option<Symbol>) -> Step {
        // One call per policy, so each is compiled with its claims
        // tables known.
        if self.certify {
            self.machine
                .feed(&self.core.table, Some(&self.core.cert), sym)
        } else {
            self.machine.feed(&self.core.table, None, sym)
        }
    }

    /// Records a step that ended the parse — a rejection or a fault —
    /// and returns the tape of an accept.
    fn settle(&mut self, step: Step) -> Option<ParseTape> {
        match step {
            Step::Shifted => None,
            Step::Accepted(tape) => Some(tape),
            Step::Rejected { state } => {
                self.dead = Some(crate::driver::LrReject {
                    at: self.pushed,
                    state,
                    expected: self.core.table.expected_in(&self.core.cfg, state),
                });
                None
            }
            Step::Faulted(cause) => {
                self.fault = Some(CertifyError { cause });
                None
            }
        }
    }

    /// Number of symbols pushed so far (rejected ones included).
    pub fn pushed(&self) -> usize {
        self.pushed
    }

    /// `true` while the pushed sequence is still a viable prefix (and no
    /// certification fault has been recorded).
    pub fn is_viable(&self) -> bool {
        self.dead.is_none() && self.fault.is_none()
    }

    /// Ends the input: runs the remaining reductions (certified under
    /// the sink's policy). Rejections report `at` as a pushed-symbol
    /// index (`pushed()` for "the input ended while more was
    /// expected").
    ///
    /// # Errors
    ///
    /// [`CertifyError`] under the same (driver-bug) conditions as
    /// [`CertifiedLrParser::parse`].
    pub fn finish(mut self) -> Result<LrOutcome, CertifyError> {
        let tape = if self.is_viable() {
            let step = self.feed(None);
            self.settle(step)
        } else {
            None
        };
        if let Some(fault) = self.fault {
            return Err(fault);
        }
        match (tape, self.dead) {
            (Some(tape), _) => Ok(LrOutcome::Accept(tape)),
            (None, Some(reject)) => Ok(LrOutcome::Reject(reject)),
            (None, None) => unreachable!("the EOF column only ever accepts or errors"),
        }
    }

    /// [`LrSink::finish`], then — when the sink ran blind — the
    /// whole-tree `validate` of an accepted tape against the pushed
    /// input `w`: the pre-incremental contract.
    fn finish_against(self, w: &GString) -> Result<LrOutcome, CertifyError> {
        let (core, certified) = (self.core.clone(), self.certify);
        let out = self.finish()?;
        if let (false, LrOutcome::Accept(tape)) = (certified, &out) {
            validate(&tape.to_tree(), &core.grammar, w).map_err(|cause| CertifyError { cause })?;
        }
        Ok(out)
    }
}

/// A push-mode incremental LR parse: an [`LrSink`] plus the input it
/// consumed, one shift (plus any pending reductions) per
/// [`LrStream::push`], O(1) amortized over the input via the dense
/// tables.
///
/// The partial parse trees of the viable prefix live on the stream's
/// stack, each already certified against its claimed grammar, so
/// [`LrStream::finish`] completes in time proportional to the
/// *remaining* reductions, not the whole input. Acceptance probes
/// ([`LrStream::would_accept`]) simulate the end-of-input reductions
/// over a scratch copy of the state stack without disturbing the parse.
/// The retained input is what snapshots carry and what the
/// `full_validate` path re-validates against.
#[derive(Debug, Clone)]
pub struct LrStream {
    sink: LrSink,
    input: GString,
}

impl LrStream {
    /// Consumes one symbol. Returns `false` once the accumulated input
    /// has stopped being a viable prefix (the stream stays usable; it
    /// just remembers the rejection for [`LrStream::finish`]).
    pub fn push(&mut self, sym: Symbol) -> bool {
        self.input.push(sym);
        self.sink.push(sym)
    }

    /// Consumes a whole string.
    pub fn push_all(&mut self, w: &GString) {
        for sym in w.iter() {
            self.push(sym);
        }
    }

    /// Number of symbols consumed so far.
    pub fn len(&self) -> usize {
        self.input.len()
    }

    /// `true` if nothing has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.input.is_empty()
    }

    /// The input consumed so far.
    pub fn input(&self) -> &GString {
        &self.input
    }

    /// Number of partial parse trees currently on the stack (a measure
    /// of how much structure is still open).
    pub fn pending(&self) -> usize {
        self.sink.machine.depth()
    }

    /// `true` while the consumed input is still a viable prefix of some
    /// sentence (and no certification fault has been recorded).
    pub fn is_viable(&self) -> bool {
        self.sink.is_viable()
    }

    /// The first certification fault, if the incremental checker caught
    /// one mid-stream. `None` for honest drivers.
    pub fn fault(&self) -> Option<&CertifyError> {
        self.sink.fault.as_ref()
    }

    /// Whether the input so far would be accepted if the stream ended
    /// here — an end-of-input simulation over a scratch state stack,
    /// without building trees or disturbing the parse.
    pub fn would_accept(&self) -> bool {
        self.is_viable() && would_accept_states(&self.sink.core.table, self.sink.machine.states())
    }

    /// Like [`LrStream::would_accept`], but as if the terminals in
    /// `extra` were pushed first. The probe simulates over a scratch
    /// overlay of the state stack — O(stack depth + pending reductions)
    /// per call, never a clone of the stream or its input.
    pub fn would_accept_after<I>(&self, extra: I) -> bool
    where
        I: IntoIterator<Item = Symbol>,
    {
        self.would_accept_after_counted(extra).0
    }

    /// [`LrStream::would_accept_after`] plus the number of table actions
    /// the probe simulated — exposed so regression tests can pin the
    /// probe's cost to O(stack depth), not O(input).
    #[doc(hidden)]
    pub fn would_accept_after_counted<I>(&self, extra: I) -> (bool, usize)
    where
        I: IntoIterator<Item = Symbol>,
    {
        if !self.is_viable() {
            return (false, 0);
        }
        let extra: Vec<Symbol> = extra.into_iter().collect();
        would_accept_after_states(&self.sink.core.table, self.sink.machine.states(), &extra)
    }

    /// Installs a fault injection on the underlying machine (test-only;
    /// see [`SabotageLr`]). The adversarial suites use this to prove the
    /// incremental checker catches a corrupted step *at that step*.
    #[doc(hidden)]
    pub fn sabotage(&mut self, s: SabotageLr) {
        self.sink.machine.set_sabotage(s);
    }

    /// `(shifts, reduces)` the machine has performed so far — the step
    /// counters [`SabotageLr`] indices refer to (test-only).
    #[doc(hidden)]
    pub fn step_counts(&self) -> (usize, usize) {
        self.sink.machine.step_counts()
    }

    /// Ends the stream: runs the remaining reductions. On the
    /// incremental path the resulting tree is already certified — the
    /// per-step checks compose to the whole-tree contract; on the
    /// `full_validate` path the tree is re-validated here.
    ///
    /// # Errors
    ///
    /// [`CertifyError`] under the same (driver-bug) conditions as
    /// [`CertifiedLrParser::parse`].
    pub fn finish(self) -> Result<LrOutcome, CertifyError> {
        self.sink.finish_against(&self.input)
    }
}

/// The extracted, process-independent state of an [`LrStream`] — the
/// state-extraction half of session park/resume (the serving engine's
/// snapshot format serializes exactly this).
///
/// The live stream keeps its partial derivations on one [`ParseTape`];
/// extraction decodes it slot by slot into boxed [`ParseTree`]s, and
/// resume writes them back the same way, so a snapshot's bytes do not
/// depend on how the machine stores its stack.
///
/// Interned [`lambek_core::intern::GrammarId`]s are process-local, so
/// the claim stack is exported as [`ClaimRef`]s (terminal/nonterminal
/// *numbers*) and mapped back through the resuming parser's id tables.
/// Everything here is data; all trust is re-established by
/// [`CertifiedLrParser::resume_stream`], which re-validates the parts
/// against the table and the grammar before any of them touch a live
/// machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LrStreamState {
    /// The LR state stack, bottom marker (state 0) first.
    pub states: Vec<u32>,
    /// The partial-derivation stack, one tree per non-bottom state,
    /// decoded from the machine's tape.
    pub trees: Vec<ParseTree>,
    /// The certification claims, parallel to `trees`.
    pub claims: Vec<ClaimRef>,
    /// Shifts performed so far (equals the consumed-symbol count).
    pub shifts: usize,
    /// Reductions performed so far.
    pub reduces: usize,
    /// Every symbol pushed so far, rejected suffix included.
    pub input: GString,
    /// `Some((at, state))` if the stream is dead: the input position of
    /// the first rejected symbol and the state that had no action for
    /// it. The human-readable expected set is recomputed on resume.
    pub dead: Option<(usize, usize)>,
}

/// A session blob failed re-validation against the parser it was
/// resumed into (see [`CertifiedLrParser::resume_stream`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LrResumeError {
    /// What was inconsistent.
    pub reason: String,
}

impl fmt::Display for LrResumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LR stream state failed re-validation: {}", self.reason)
    }
}

impl std::error::Error for LrResumeError {}

impl LrStream {
    /// Extracts the stream's state for serialization. Returns `None`
    /// for faulted streams (a certification fault is a driver bug; the
    /// faulted configuration is not a parse state worth parking) and
    /// for `full_validate` streams (they carry no claim stack to
    /// re-establish on resume).
    pub fn export_state(&self) -> Option<LrStreamState> {
        let sink = &self.sink;
        if sink.fault.is_some() || !sink.certify {
            return None;
        }
        let claims: Option<Vec<ClaimRef>> = sink
            .machine
            .claims()
            .iter()
            .map(|&id| sink.core.cert.claim_ref(id))
            .collect();
        let (shifts, reduces) = sink.machine.step_counts();
        Some(LrStreamState {
            states: sink.machine.states().to_vec(),
            trees: sink.machine.trees(),
            claims: claims?,
            shifts,
            reduces,
            input: self.input.clone(),
            dead: sink.dead.as_ref().map(|r| (r.at, r.state)),
        })
    }
}

impl CertifiedLrParser {
    /// Re-injects extracted stream state — the other half of session
    /// park/resume. The blob is *untrusted*: before anything touches a
    /// live machine, every part is re-validated against this parser:
    ///
    /// * the state stack must start at the bottom marker and every
    ///   transition must be one this parser's table actually performs
    ///   for the claimed symbol (shift target for a terminal claim,
    ///   goto target for a nonterminal claim) — so the restored
    ///   configuration is reachable, and future behaviour is exactly
    ///   that of an uninterrupted run;
    /// * every partial tree is re-checked against its claimed grammar
    ///   (`check_shape` against the μ-system for nonterminals, a leaf
    ///   comparison for terminals), and the tree yields must tile the
    ///   consumed input prefix exactly — re-establishing the
    ///   incremental certifier's stack invariant, so everything the
    ///   resumed stream ever emits is as certified as if the session
    ///   had never been interrupted.
    ///
    /// # Errors
    ///
    /// [`LrResumeError`] describing the first inconsistency; the error
    /// path constructs no stream (a bogus blob can be *rejected*, never
    /// mis-certified).
    pub fn resume_stream(&self, st: LrStreamState) -> Result<LrStream, LrResumeError> {
        let err = |reason: String| LrResumeError { reason };
        let table = &self.core.table;
        let n_states = table.num_states();
        if st.states.first() != Some(&0) {
            return Err(err("state stack must start at the bottom marker".into()));
        }
        if let Some(&s) = st.states.iter().find(|&&s| s as usize >= n_states) {
            return Err(err(format!("state {s} out of range (< {n_states})")));
        }
        if st.trees.len() != st.claims.len() || st.states.len() != st.trees.len() + 1 {
            return Err(err(format!(
                "stack arity mismatch: {} states, {} trees, {} claims",
                st.states.len(),
                st.trees.len(),
                st.claims.len()
            )));
        }
        // Transition consistency: each stack slot must be the table's
        // own answer for its claim.
        for (i, &claim) in st.claims.iter().enumerate() {
            let from = st.states[i] as usize;
            let to = st.states[i + 1] as usize;
            let ok = match claim {
                ClaimRef::Term(t) => {
                    t < table.eof_column()
                        && matches!(table.action(from, t), crate::table::Action::Shift(s) if s == to)
                }
                ClaimRef::Var(n) => n < table.num_nonterminals() && table.goto(from, n) == Some(to),
            };
            if !ok {
                return Err(err(format!(
                    "stack slot {i}: no {claim:?} transition {from} -> {to} in this table"
                )));
            }
        }
        // Claim-by-claim re-certification: shapes against the μ-system,
        // yields tiling the consumed prefix.
        let system = self.core.cfg.to_lambek_system();
        let mut cursor = 0usize;
        let mut claim_ids = Vec::with_capacity(st.claims.len());
        for (i, (tree, &claim)) in st.trees.iter().zip(&st.claims).enumerate() {
            let id = self
                .core
                .cert
                .claim_id(claim)
                .ok_or_else(|| err(format!("stack slot {i}: claim {claim:?} out of range")))?;
            let flat = tree.flatten();
            let window = st.input.as_slice().get(cursor..cursor + flat.len());
            if window != Some(flat.as_slice()) {
                return Err(err(format!(
                    "stack slot {i}: tree yield does not tile the input at symbol {cursor}"
                )));
            }
            match claim {
                ClaimRef::Term(t) => {
                    if !matches!(tree, ParseTree::Char(c) if c.index() == t) {
                        return Err(err(format!(
                            "stack slot {i}: terminal claim {t} over a non-leaf tree"
                        )));
                    }
                }
                ClaimRef::Var(n) => {
                    if n >= system.len() {
                        return Err(err(format!("stack slot {i}: nonterminal {n} out of range")));
                    }
                    let ParseTree::Roll(inner) = tree else {
                        return Err(err(format!(
                            "stack slot {i}: nonterminal claim over a non-Roll tree"
                        )));
                    };
                    lambek_core::grammar::parse_tree::check_shape(
                        inner,
                        system.def(n),
                        Some(&system),
                    )
                    .map_err(|e| err(format!("stack slot {i}: claim re-validation failed: {e}")))?;
                }
            }
            cursor += flat.len();
            claim_ids.push(id);
        }
        // The consumed prefix must be exactly the tiled symbols; the
        // suffix beyond it exists only for dead streams.
        let consumed = cursor;
        let dead = match st.dead {
            None => {
                if consumed != st.input.len() {
                    return Err(err(format!(
                        "live stream consumed {consumed} of {} symbols",
                        st.input.len()
                    )));
                }
                None
            }
            Some((at, state)) => {
                if at != consumed || at > st.input.len() {
                    return Err(err(format!(
                        "dead stream rejected at {at} but tiled {consumed} symbols"
                    )));
                }
                if state >= n_states {
                    return Err(err(format!("rejecting state {state} out of range")));
                }
                Some(crate::driver::LrReject {
                    at,
                    state,
                    expected: table.expected_in(&self.core.cfg, state),
                })
            }
        };
        if st.shifts != consumed {
            return Err(err(format!(
                "shift counter {} disagrees with {consumed} consumed symbols",
                st.shifts
            )));
        }
        Ok(LrStream {
            sink: LrSink {
                core: self.core.clone(),
                machine: Machine::from_parts(
                    st.states, &st.trees, claim_ids, st.shifts, st.reduces,
                ),
                certify: true,
                pushed: st.input.len(),
                dead,
                fault: None,
            },
            input: st.input,
        })
    }
}
