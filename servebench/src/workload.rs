//! The four workloads: how calls are drawn from the seed, how each is
//! issued through lambekd's public API, and how its answer is checked
//! against the generator's oracle.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use lambek_core::theory::parser::ParseOutcome;
use lambek_engine::{
    Engine, FrontendErrorKind, FrontendReport, PipelineSpec, StrParseReport, StrReportOutcome,
};

use crate::gen::{self, Doc, Expect, GrammarExpect, GrammarText, Pipe, Rng};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Interactive,
    Bulk,
    Grammars,
    Deep,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Interactive,
        Workload::Bulk,
        Workload::Grammars,
        Workload::Deep,
    ];

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Interactive => "interactive",
            Workload::Bulk => "bulk",
            Workload::Grammars => "grammars",
            Workload::Deep => "deep",
        }
    }

    fn tag(self) -> u64 {
        self as u64 + 1
    }

    /// Calls a timed run makes at least, whatever its window: enough
    /// for ten samples beyond the p99, and a fixed amount of work after
    /// which peak RSS is read, so that RSS does not grow with speed.
    pub fn min_calls(self) -> usize {
        match self {
            Workload::Interactive => 4000,
            Workload::Grammars => 2000,
            Workload::Bulk | Workload::Deep => 1000,
        }
    }

    /// Calls the traced run replays: sized to take a few seconds here,
    /// fixed so that its counts repeat exactly for a seed.
    pub fn traced_calls(self) -> usize {
        match self {
            Workload::Interactive => 1000,
            Workload::Bulk => 120,
            Workload::Grammars => 600,
            Workload::Deep => 7,
        }
    }
}

/// One call of the closed loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Call {
    /// `Engine::parse_many_str` of several documents on one pipeline.
    Batch { pipe: Pipe, docs: Vec<Doc> },
    /// An `Engine::stream` session: pushed in chunks, parked once with
    /// `snapshot`, revived with `Engine::resume`, then finished.
    Stream { doc: Doc },
    /// An `Engine::compile_text` submission. A fresh pipeline's probe
    /// document goes through `parse_many_str`, or with `stream_probe`
    /// through a stream session like [`Call::Stream`].
    Grammar {
        text: GrammarText,
        stream_probe: bool,
    },
}

/// Stream sessions push their text in chunks of this many bytes.
pub const STREAM_CHUNK: usize = 256;

impl Call {
    /// Input bytes the call submits.
    pub fn bytes(&self) -> usize {
        match self {
            Call::Batch { docs, .. } => docs.iter().map(|d| d.text.len()).sum(),
            Call::Stream { doc } => doc.text.len(),
            Call::Grammar { text: g, .. } => {
                g.text.len()
                    + match &g.expect {
                        GrammarExpect::Ok { probe: Some(d), .. } => d.text.len(),
                        _ => 0,
                    }
            }
        }
    }
}

/// Draws the calls of one workload from its seed. Call `i` depends on
/// the seed and `i` only, except that grammar resubmits pick among the
/// texts submitted earlier in the same process.
#[derive(Debug)]
pub struct CallGen {
    workload: Workload,
    seed: u64,
    batch: usize,
    resident: Vec<GrammarText>,
}

/// Share of invalid documents and of stream sessions.
const INVALID_SHARE: f64 = 0.05;

impl CallGen {
    pub fn new(workload: Workload, seed: u64, batch: usize) -> CallGen {
        CallGen {
            workload,
            seed,
            batch,
            resident: gen::preset_texts(),
        }
    }

    pub fn call(&mut self, i: usize) -> Call {
        let mut rng = Rng::derive(self.seed, self.workload.tag(), i as u64);
        let rng = &mut rng;
        match self.workload {
            Workload::Interactive => {
                let pipe = gen::zipf_pipe(rng);
                if rng.below(8) == 0 {
                    let size = rng.log_uniform(64, 4096);
                    let invalid = rng.chance(INVALID_SHARE);
                    return Call::Stream {
                        doc: gen::doc(pipe, rng, size, invalid),
                    };
                }
                let docs = (0..rng.range(1, 16))
                    .map(|_| {
                        let size = rng.log_uniform(64, 4096);
                        let invalid = rng.chance(INVALID_SHARE);
                        gen::doc(pipe, rng, size, invalid)
                    })
                    .collect();
                Call::Batch { pipe, docs }
            }
            Workload::Bulk => {
                // Round robin, so every stretch of calls has the same
                // pipeline mix whatever the seed.
                let pipe = Pipe::ALL[i % Pipe::ALL.len()];
                let docs = (0..self.batch)
                    .map(|_| {
                        let size = rng.log_uniform(4 << 10, 128 << 10);
                        let invalid = rng.chance(INVALID_SHARE);
                        gen::doc(pipe, rng, size, invalid)
                    })
                    .collect();
                Call::Batch { pipe, docs }
            }
            Workload::Grammars => {
                // A fixed schedule per 50 calls: four fresh texts (8%),
                // one invalid text (2%), resubmits otherwise. The seed
                // draws every text; the schedule keeps the mix of
                // kinds, presets and precedence depths the same for
                // every seed.
                let slot = i % 50;
                if slot == 49 {
                    return Call::Grammar {
                        text: gen::invalid_grammar(rng, i / 50),
                        stream_probe: false,
                    };
                }
                if slot % 12 != 6 {
                    let g = &self.resident[rng.below(self.resident.len())];
                    let GrammarExpect::Ok { start, .. } = &g.expect else {
                        unreachable!("only compiled texts are resident")
                    };
                    return Call::Grammar {
                        text: GrammarText {
                            text: g.text.clone(),
                            expect: GrammarExpect::Ok {
                                start: start.clone(),
                                probe: None,
                            },
                        },
                        stream_probe: false,
                    };
                }
                let f = (i / 50) * 4 + slot / 12;
                let fresh = match f % 3 {
                    0 => gen::renamed_preset(rng, gen::PRESETS[(f / 3) % gen::PRESETS.len()]),
                    1 => gen::extended_json(rng),
                    _ => gen::expression_grammar(rng, 2 + (f / 3) % (gen::MAX_LEVELS - 1)),
                };
                self.resident.push(fresh.clone());
                Call::Grammar {
                    text: fresh,
                    stream_probe: f % 2 == 1,
                }
            }
            Workload::Deep => Call::Batch {
                pipe: deep_pipe(i),
                docs: vec![deep_doc(rng, i)],
            },
        }
    }
}

/// The adversarial shapes, in rotation: deep arithmetic chains, deep
/// JSON nesting, then 256 KiB–1 MiB documents of each preset.
const DEEP_SHAPES: usize = 7;

pub fn deep_pipe(i: usize) -> Pipe {
    match i % DEEP_SHAPES {
        0 => Pipe::Arith,
        1 => Pipe::JsonLite,
        2 => Pipe::Json,
        3 => Pipe::Csv,
        4 => Pipe::Ini,
        5 => Pipe::Http,
        _ => Pipe::Clf,
    }
}

fn deep_doc(rng: &mut Rng, i: usize) -> Doc {
    match i % DEEP_SHAPES {
        0 => gen::deep_arith(rng.log_uniform(16 << 10, 256 << 10)),
        1 => gen::deep_json(rng.log_uniform(16 << 10, 256 << 10)),
        _ => {
            let size = rng.log_uniform(256 << 10, 1 << 20);
            gen::doc(deep_pipe(i), rng, size, false)
        }
    }
}

/// An engine with the pipelines compiled and the pool up.
#[derive(Debug)]
pub struct Served {
    pub engine: Engine,
    specs: Vec<Option<PipelineSpec>>,
}

impl Served {
    /// `Engine::new()`, the five presets through `compile_text`, the two
    /// Rust-built specs through `get_or_compile`, and one pooled batch
    /// so that the worker pool exists before the first timed call.
    pub fn new() -> Result<Served, String> {
        Served::with(&Pipe::ALL)
    }

    /// As [`Served::new`], compiling only `pipes`.
    pub fn with(pipes: &[Pipe]) -> Result<Served, String> {
        let engine = Engine::new();
        let mut specs = vec![None; Pipe::ALL.len()];
        for &pipe in pipes {
            let spec = match pipe.preset() {
                Some(text) => {
                    engine
                        .compile_text(text)
                        .map_err(|e| format!("preset {}: {e}", pipe.name()))?
                        .spec
                }
                None if pipe == Pipe::Arith => PipelineSpec::arith_lexed(),
                None => PipelineSpec::json_lexed(),
            };
            engine
                .get_or_compile(&spec)
                .map_err(|e| format!("pipeline {}: {e}", pipe.name()))?;
            specs[pipe.index()] = Some(spec);
        }
        let warm = specs
            .iter()
            .flatten()
            .next()
            .ok_or("no pipeline requested")?;
        engine
            .parse_many_str(warm, &["", ""], 0)
            .map_err(|e| format!("pool warm-up: {e}"))?;
        Ok(Served { engine, specs })
    }

    pub fn spec(&self, pipe: Pipe) -> &PipelineSpec {
        self.specs[pipe.index()]
            .as_ref()
            .expect("the pipeline was compiled at set-up")
    }
}

/// How one call ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Ok = 0,
    /// An answer that disagrees with the oracle (including `Failed`
    /// reports and engine errors).
    Wrong = 1,
    /// The call panicked.
    Panic = 2,
    /// The process running the call died.
    Abort = 3,
}

impl Status {
    pub fn from_code(c: u8) -> Option<Status> {
        [Status::Ok, Status::Wrong, Status::Panic, Status::Abort]
            .into_iter()
            .find(|s| *s as u8 == c)
    }
}

/// The result of one untraced call.
#[derive(Debug, Clone)]
pub struct Exec {
    pub status: Status,
    pub elapsed: Duration,
    /// Constructors of the accepted trees.
    pub tree_nodes: u64,
    /// Why the call failed, for the log.
    pub detail: Option<String>,
}

/// Issues `call` and checks its answer. Only the lambekd calls are
/// timed; generation and checking are not.
pub fn execute(served: &Served, call: &Call) -> Exec {
    let mut elapsed = Duration::ZERO;
    let mut tree_nodes = 0u64;
    let result = catch_unwind(AssertUnwindSafe(|| match call {
        Call::Batch { pipe, docs } => {
            let refs: Vec<&str> = docs.iter().map(|d| d.text.as_str()).collect();
            let t0 = Instant::now();
            let reports = served.engine.parse_many_str(served.spec(*pipe), &refs, 0);
            elapsed = t0.elapsed();
            let reports = reports.map_err(|e| format!("engine error: {e}"))?;
            tree_nodes = accepted_nodes(&reports);
            check_reports(docs, &reports)
        }
        Call::Stream { doc } => {
            let spec = served.spec(doc.pipe);
            let t0 = Instant::now();
            let outcome = stream_session(&served.engine, spec, &doc.text);
            elapsed = t0.elapsed();
            check_session(doc, outcome?, &mut tree_nodes)
        }
        Call::Grammar {
            text: g,
            stream_probe,
        } => {
            let t0 = Instant::now();
            let compiled = served.engine.compile_text(&g.text);
            let probed = match (&compiled, &g.expect) {
                (Ok(h), GrammarExpect::Ok { probe: Some(d), .. }) if *stream_probe => {
                    Some(stream_session(&served.engine, &h.spec, &d.text).map(Probed::Session))
                }
                (Ok(h), GrammarExpect::Ok { probe: Some(d), .. }) => Some(
                    served
                        .engine
                        .parse_many_str(&h.spec, &[d.text.as_str()], 1)
                        .map(Probed::Reports)
                        .map_err(|e| format!("engine error: {e}")),
                ),
                _ => None,
            };
            elapsed = t0.elapsed();
            let start = compiled.as_ref().map(|h| h.start.as_str());
            check_grammar(&g.expect, start.map_err(|e| e.clone()))?;
            match (probed, &g.expect) {
                (Some(probed), GrammarExpect::Ok { probe: Some(d), .. }) => {
                    match probed.map_err(|why| format!("probe: {why}"))? {
                        Probed::Reports(reports) => {
                            tree_nodes = accepted_nodes(&reports);
                            check_reports(std::slice::from_ref(d), &reports)
                        }
                        Probed::Session(outcome) => check_session(d, outcome, &mut tree_nodes),
                    }
                }
                _ => Ok(()),
            }
        }
    }));
    let (status, detail) = match result {
        Ok(Ok(())) => (Status::Ok, None),
        Ok(Err(why)) => (Status::Wrong, Some(why)),
        Err(panic) => (Status::Panic, Some(panic_message(&*panic))),
    };
    Exec {
        status,
        elapsed,
        tree_nodes,
        detail,
    }
}

/// A fresh pipeline's answer to its probe document.
enum Probed {
    Reports(Vec<StrParseReport>),
    Session(ParseOutcome),
}

/// Checks a stream session's outcome, counting the accepted tree.
fn check_session(doc: &Doc, outcome: ParseOutcome, tree_nodes: &mut u64) -> Result<(), String> {
    match outcome {
        ParseOutcome::Accept(tree) => {
            *tree_nodes = tree.size() as u64;
            check_stream(doc, Some(tree.flatten().len()))
        }
        ParseOutcome::Reject(_) => check_stream(doc, None),
    }
}

pub fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = panic.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic".to_owned()
    }
}

fn accepted_nodes(reports: &[StrParseReport]) -> u64 {
    reports
        .iter()
        .map(|r| match r.outcome {
            StrReportOutcome::Accepted { tree_size, .. } => tree_size as u64,
            _ => 0,
        })
        .sum()
}

/// One stream session: chunks up to the middle, park, resume, the rest,
/// finish.
fn stream_session(
    engine: &Engine,
    spec: &PipelineSpec,
    text: &str,
) -> Result<ParseOutcome, String> {
    let chunks: Vec<&str> = chunks(text).collect();
    let park_after = chunks.len() / 2;
    let mut parser = engine.stream(spec).map_err(|e| format!("stream: {e}"))?;
    for chunk in &chunks[..park_after] {
        parser.push_chars(chunk);
    }
    let blob = parser.snapshot().map_err(|e| format!("snapshot: {e}"))?;
    drop(parser);
    let mut parser = engine
        .resume(spec, &blob)
        .map_err(|e| format!("resume: {e}"))?;
    for chunk in &chunks[park_after..] {
        parser.push_chars(chunk);
    }
    parser.finish().map_err(|e| format!("finish: {e}"))
}

/// `text` in [`STREAM_CHUNK`]-byte pieces (generated text is ASCII).
pub fn chunks(text: &str) -> impl Iterator<Item = &str> {
    debug_assert!(text.is_ascii());
    (0..text.len())
        .step_by(STREAM_CHUNK)
        .map(move |s| &text[s..(s + STREAM_CHUNK).min(text.len())])
}

/// Checks batch reports against the documents' expectations.
pub fn check_reports(docs: &[Doc], reports: &[StrParseReport]) -> Result<(), String> {
    if docs.len() != reports.len() {
        return Err(format!(
            "{} reports for {} documents",
            reports.len(),
            docs.len()
        ));
    }
    for (k, (doc, report)) in docs.iter().zip(reports).enumerate() {
        check_outcome(&doc.expect, &report.outcome)
            .map_err(|why| format!("{} document {k}: {why}", doc.pipe.name()))?;
    }
    Ok(())
}

/// Checks one report outcome against its expectation.
pub fn check_outcome(expect: &Expect, got: &StrReportOutcome) -> Result<(), String> {
    let ok = match (expect, got) {
        (Expect::Accept { tokens }, StrReportOutcome::Accepted { tokens: t, .. }) => tokens == t,
        (Expect::RejectLex { at }, StrReportOutcome::RejectedLex { at: a, .. }) => at == a,
        (Expect::RejectParse { at }, StrReportOutcome::RejectedParse { span, .. }) => {
            *at == span.start
        }
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        Err(format!("expected {expect:?}, got {got:?}"))
    }
}

/// Checks a stream session's end: the yield-token count of the
/// accepted tree, or `None` for a rejection.
pub fn check_stream(doc: &Doc, accepted: Option<usize>) -> Result<(), String> {
    match (&doc.expect, accepted) {
        (Expect::Accept { tokens }, Some(t)) if *tokens == t => Ok(()),
        (Expect::RejectLex { .. } | Expect::RejectParse { .. }, None) => Ok(()),
        (e, got) => Err(format!(
            "{} stream: expected {e:?}, got {got:?} tokens",
            doc.pipe.name()
        )),
    }
}

/// Checks a `compile_text` answer (the start symbol on success).
pub fn check_grammar(
    expect: &GrammarExpect,
    got: Result<&str, FrontendReport>,
) -> Result<(), String> {
    let ok = match (expect, &got) {
        (GrammarExpect::Ok { start, .. }, Ok(s)) => start == s,
        (GrammarExpect::Syntax, Err(FrontendReport::Errors(es))) => es
            .first()
            .is_some_and(|e| matches!(e.kind, FrontendErrorKind::Syntax { .. })),
        (GrammarExpect::Undefined { name }, Err(FrontendReport::Errors(es))) => es.iter().any(
            |e| matches!(&e.kind, FrontendErrorKind::UndefinedSymbol { name: n } if n == name),
        ),
        (GrammarExpect::Conflict, Err(FrontendReport::Conflicts(_))) => true,
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        Err(format!("grammar: expected {expect:?}, got {got:?}"))
    }
}
