//! The per-layer trace, timed from outside lambekd.
//!
//! The traced run replays a workload's calls in staged form: each call
//! is one root span (its request id is the call index), and every
//! public function a layer exposes is timed as a child span. Spans are
//! kept in memory and written out as JSON lines when the run ends; a
//! layer's self time is its spans' durations minus the parts their
//! child spans cover. Spans named `bench.*` are the harness's own
//! bookkeeping and count towards no layer.

use std::collections::{BTreeMap, HashSet};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::time::Instant;

use lambek_core::theory::parser::ParseOutcome;
use lambek_engine::{
    CompiledPipeline, Engine, FrontendError, FrontendErrorKind, FrontendReport, PipelineSpec,
    StrOutcome, StrReportOutcome,
};
use lambek_lex::{LexError, RawLexeme, Span};
use lambek_lr::LrOutcome;

use crate::gen::{Doc, GrammarExpect, GrammarText};
use crate::workload::{self, Call, Served};

const NO_PARENT: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    pub req: u32,
}

/// An in-memory span recorder with a stack of open spans.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<SpanRec>,
    open: Vec<u32>,
    req: u32,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            req: 0,
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start = self.now();
        self.spans.push(SpanRec {
            name,
            start,
            end: start,
            parent,
            req: self.req,
        });
        self.open.push(id as u32);
        id
    }

    pub fn exit(&mut self) {
        let id = self.open.pop().expect("exit matches an enter") as usize;
        self.spans[id].end = self.now();
    }

    /// Closes every open span (after a call panicked mid-span).
    pub fn close_all(&mut self) {
        while !self.open.is_empty() {
            self.exit();
        }
    }

    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, mut out: impl std::io::Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_owned()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{id},\"req\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.req, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus its children's.
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end - s.start).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.end - s.start);
        }
    }
    own
}

/// Named sums the child processes report and the harness merges.
pub type Acc = BTreeMap<String, f64>;

pub fn add(acc: &mut Acc, key: &str, v: f64) {
    *acc.entry(key.to_owned()).or_default() += v;
}

/// Replays calls in staged form under a tracer.
pub struct Replay<'a> {
    served: &'a Served,
    pub tr: Tracer,
    lexemes: u64,
    distinct: HashSet<u64>,
    blob_bytes: u64,
}

impl<'a> Replay<'a> {
    pub fn new(served: &'a Served) -> Replay<'a> {
        Replay {
            served,
            tr: Tracer::default(),
            lexemes: 0,
            distinct: HashSet::new(),
            blob_bytes: 0,
        }
    }

    /// Replays call `req`; `Err` when the answer disagrees with the
    /// oracle.
    pub fn call(&mut self, req: u32, call: &Call) -> Result<(), String> {
        self.tr.req = req;
        self.tr.enter("call");
        let result = match call {
            Call::Batch { pipe, docs } => self.batch(self.served.spec(*pipe), docs),
            Call::Stream { doc } => self.stream(self.served.spec(doc.pipe), doc),
            Call::Grammar { text, stream_probe } => self.grammar(text, *stream_probe),
        };
        self.tr.exit();
        result
    }

    fn batch(&mut self, spec: &PipelineSpec, docs: &[Doc]) -> Result<(), String> {
        let engine = &self.served.engine;
        let pipeline = self
            .tr
            .span("engine.cache", || engine.get_or_compile(spec))
            .map_err(|e| format!("engine error: {e}"))?;
        for doc in docs {
            let got = self.doc(&pipeline, &doc.text)?;
            workload::check_outcome(&doc.expect, &got)?;
        }
        Ok(())
    }

    /// One document through the layers, as the serving path runs them
    /// fused: scan, certify, LR drive (which builds the tree), then the
    /// report's tree walk and the tree's drop.
    fn doc(&mut self, pipeline: &CompiledPipeline, text: &str) -> Result<StrReportOutcome, String> {
        let backend = pipeline
            .lexed_backend()
            .ok_or("every served pipeline is lexed")?;
        let lr = backend
            .cfg_backend()
            .lr()
            .ok_or("every served pipeline is LR")?;
        let auto = backend.lexer().automaton();
        let scanned: Result<Vec<RawLexeme>, LexError> = self
            .tr
            .span("lex.scan", || auto.raw_lexemes(text).collect());
        let lexemes = match scanned {
            Ok(ls) => ls,
            Err(e) => {
                return Ok(StrReportOutcome::RejectedLex {
                    at: e.at,
                    message: e.to_string(),
                })
            }
        };
        self.tr
            .span("lex.certify", || {
                let mut cert = backend.lexer().certifier();
                for l in &lexemes {
                    cert.check_raw(text, l)?;
                }
                cert.finish(text)
            })
            .map_err(|e| format!("certified-lexer contract violation: {e}"))?;
        let (outcome, reject) = self.tr.span("lr.drive", || {
            let mut sink = lr.sink_with_capacity(lexemes.len());
            let mut reject = None;
            for l in &lexemes {
                if let Some(sym) = l.sym {
                    if !sink.push(sym) && reject.is_none() {
                        reject = Some(l.span);
                    }
                }
            }
            (sink.finish(), reject)
        });
        self.tr.span("bench.account", || {
            let pipe_key = pipeline as *const CompiledPipeline as usize;
            for l in &lexemes {
                self.distinct
                    .insert(lexeme_key(pipe_key, &text[l.span.start..l.span.end]));
            }
            self.lexemes += lexemes.len() as u64;
        });
        match outcome.map_err(|e| format!("LR contract violation: {e:?}"))? {
            LrOutcome::Accept(tree) => {
                let (tree_size, tokens) = self
                    .tr
                    .span("core.tree_walk", || (tree.size(), tree.flatten().len()));
                self.tr.span("core.tree_drop", || drop(tree));
                Ok(StrReportOutcome::Accepted { tree_size, tokens })
            }
            LrOutcome::Reject(r) => Ok(StrReportOutcome::RejectedParse {
                span: reject.unwrap_or_else(|| Span::empty(text.len())),
                message: r.to_string(),
            }),
        }
    }

    fn stream(&mut self, spec: &PipelineSpec, doc: &Doc) -> Result<(), String> {
        let engine = &self.served.engine;
        let chunks: Vec<&str> = workload::chunks(&doc.text).collect();
        let park_after = chunks.len() / 2;
        let mut parser = self
            .tr
            .span("engine.stream.open", || engine.stream(spec))
            .map_err(|e| format!("stream: {e}"))?;
        for chunk in &chunks[..park_after] {
            self.tr
                .span("engine.stream.push", || parser.push_chars(chunk));
        }
        let blob = self
            .tr
            .span("engine.session.snapshot", || {
                let blob = parser.snapshot();
                drop(parser);
                blob
            })
            .map_err(|e| format!("snapshot: {e}"))?;
        self.blob_bytes += blob.len() as u64;
        let mut parser = self
            .tr
            .span("engine.session.resume", || engine.resume(spec, &blob))
            .map_err(|e| format!("resume: {e}"))?;
        for chunk in &chunks[park_after..] {
            self.tr
                .span("engine.stream.push", || parser.push_chars(chunk));
        }
        let outcome = self
            .tr
            .span("engine.stream.finish", || parser.finish())
            .map_err(|e| format!("finish: {e}"))?;
        let accepted = match outcome {
            ParseOutcome::Accept(tree) => {
                let (_, tokens) = self
                    .tr
                    .span("core.tree_walk", || (tree.size(), tree.flatten().len()));
                self.tr.span("core.tree_drop", || drop(tree));
                Some(tokens)
            }
            ParseOutcome::Reject(_) => None,
        };
        workload::check_stream(doc, accepted)
    }

    /// `Engine::compile_text` in stages: meta spec, meta lookup,
    /// self-hosted parse, elaboration, user spec, lookup or compile.
    fn grammar(&mut self, g: &GrammarText, stream_probe: bool) -> Result<(), String> {
        let engine = &self.served.engine;
        let text = g.text.as_str();
        let meta_spec = self.tr.span("frontend.meta_spec", || {
            let spec = Engine::frontend_meta_spec();
            let _ = spec.key();
            spec
        });
        let meta = self
            .tr
            .span("engine.cache", || engine.get_or_compile(&meta_spec))
            .map_err(|e| format!("meta pipeline: {e}"))?;
        let backend = meta.lexed_backend().ok_or("the meta pipeline is lexed")?;
        let parsed = self
            .tr
            .span("frontend.parse", || match backend.parse_str_tokens(text) {
                Ok(StrOutcome::Accept { tree, tokens }) => {
                    let tokens = tokens
                        .ok_or_else(|| FrontendReport::Internal("no token stream".to_owned()))?;
                    lambek_frontend::bootstrap::ast_from_tree(text, &tree, &tokens)
                        .map(|ast| (ast, tokens))
                        .map_err(|e| FrontendReport::Errors(vec![e]))
                }
                Ok(StrOutcome::RejectLex(e)) => Err(syntax(text, e.to_string(), e.at)),
                Ok(StrOutcome::RejectParse { span, message, .. }) => {
                    Err(syntax(text, message, span.start))
                }
                Err(e) => Err(FrontendReport::Internal(e.to_string())),
            });
        let (ast, tokens) = match parsed {
            Ok(p) => p,
            Err(report) => return workload::check_grammar(&g.expect, Err(report)),
        };
        self.tr.span("bench.account", || {
            for t in tokens.tokens() {
                self.distinct.insert(lexeme_key(0, &t.text));
            }
            self.lexemes += tokens.tokens().len() as u64;
        });
        let elab = match self.tr.span("frontend.elaborate", || {
            lambek_frontend::elaborate(text, &ast)
        }) {
            Ok(e) => e,
            Err(errors) => {
                return workload::check_grammar(&g.expect, Err(FrontendReport::Errors(errors)))
            }
        };
        let spec = self.tr.span("engine.spec", || {
            PipelineSpec::lexed_cfg(
                format!("text:{}", elab.start_name),
                elab.spec.clone(),
                elab.cfg.clone(),
            )
        });
        let misses = self.tr.span("bench.account", || engine.stats().misses);
        let id = self.tr.enter("engine.cache");
        let pipeline = engine.get_or_compile(&spec);
        self.tr.exit();
        if self.tr.span("bench.account", || engine.stats().misses) > misses {
            self.tr.spans[id].name = "engine.compile";
        }
        let pipeline = pipeline.map_err(|e| format!("user pipeline: {e}"))?;
        let lexed = pipeline.lexed_backend().ok_or("a text pipeline is lexed")?;
        if let Some(report) = lexed.cfg_backend().conflicts() {
            let annotated = self.tr.span("frontend.conflicts", || {
                lambek_frontend::annotate_conflicts(report.clone(), &elab, text)
            });
            return workload::check_grammar(&g.expect, Err(FrontendReport::Conflicts(annotated)));
        }
        workload::check_grammar(&g.expect, Ok(&elab.start_name))?;
        match &g.expect {
            GrammarExpect::Ok { probe: Some(d), .. } if stream_probe => self.stream(&spec, d),
            GrammarExpect::Ok { probe: Some(d), .. } => {
                let got = self.doc(&pipeline, &d.text)?;
                workload::check_outcome(&d.expect, &got)
            }
            _ => Ok(()),
        }
    }

    /// Sums of the staged pass: self time and count per span name, the
    /// root (client) spans, and the work counts.
    pub fn totals(&self, acc: &mut Acc) {
        let own = self_times(&self.tr.spans);
        for (s, t) in self.tr.spans.iter().zip(&own) {
            add(acc, &format!("self_ns.{}", s.name), *t as f64);
            add(acc, &format!("count.{}", s.name), 1.0);
            if s.parent == NO_PARENT {
                add(acc, "root_ns", (s.end - s.start) as f64);
            }
        }
        add(acc, "spans", self.tr.spans.len() as f64);
        add(acc, "lexemes", self.lexemes as f64);
        add(acc, "distinct_lexemes", self.distinct.len() as f64);
        add(acc, "blob_bytes", self.blob_bytes as f64);
    }
}

fn syntax(text: &str, message: String, at: usize) -> FrontendReport {
    FrontendReport::Errors(vec![FrontendError::new(
        FrontendErrorKind::Syntax { message },
        Span { start: at, end: at },
        text,
    )])
}

fn lexeme_key(pipe: usize, text: &str) -> u64 {
    let mut h = DefaultHasher::new();
    pipe.hash(&mut h);
    text.hash(&mut h);
    h.finish()
}

/// The pool's parallel efficiency on the batch calls: each batch runs
/// once sequentially in the caller (`workers = 1`) and once on the
/// pool, as spans `engine.pool.sequential` and `engine.pool.batch`.
pub fn pool_probe(served: &Served, tr: &mut Tracer, calls: &[Call], acc: &mut Acc) {
    let workers = served.engine.engine_stats().pool.workers.max(1);
    for (req, call) in calls.iter().enumerate() {
        let Call::Batch { pipe, docs } = call else {
            continue;
        };
        let spec = served.spec(*pipe);
        let refs: Vec<&str> = docs.iter().map(|d| d.text.as_str()).collect();
        tr.req = req as u32;
        tr.enter("bench.pool_probe");
        let t0 = Instant::now();
        let seq = tr.span("engine.pool.sequential", || {
            served.engine.parse_many_str(spec, &refs, 1)
        });
        let seq_ns = t0.elapsed().as_nanos() as f64;
        let t1 = Instant::now();
        let par = tr.span("engine.pool.batch", || {
            served.engine.parse_many_str(spec, &refs, 0)
        });
        let wall_ns = t1.elapsed().as_nanos() as f64;
        tr.exit();
        drop((seq, par));
        let shards = workers.min(refs.len()) as f64;
        add(acc, "pool.calls", 1.0);
        add(acc, "pool.seq_ns", seq_ns);
        add(acc, "pool.wall_ns", wall_ns);
        add(acc, "pool.shard_wall_ns", shards * wall_ns);
        add(acc, "pool.overhead_ns", wall_ns - seq_ns / shards);
    }
}

/// What recording one span costs, measured on a scratch tracer.
pub fn span_cost_ns() -> f64 {
    const N: usize = 100_000;
    let mut tr = Tracer::default();
    tr.spans.reserve(N);
    let t0 = Instant::now();
    for _ in 0..N {
        tr.enter("bench.calibrate");
        tr.exit();
    }
    t0.elapsed().as_nanos() as f64 / N as f64
}

/// Writes the spans under `dir` as `<name>.jsonl`.
pub fn write_spans(tr: &Tracer, dir: &std::path::Path, name: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let file = std::fs::File::create(dir.join(format!("{name}.jsonl")))?;
    tr.write_jsonl(std::io::BufWriter::new(file))
}
