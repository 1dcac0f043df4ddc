//! Committed session blobs: stream sessions parked by an earlier build
//! must keep resuming in this one.
//!
//! Each fixture under `tests/fixtures/sessions/` is a `SESSION_VERSION`
//! 1 blob of a stream fed the first `cut` units of `input` (characters
//! for lexed pipelines, symbols otherwise). This suite asserts that
//! every blob
//!
//! 1. resumes against its spec,
//! 2. re-snapshots to the identical bytes (the resumed stream holds
//!    exactly the state that was parked), and
//! 3. fed the rest of its input, finishes equal to the one-shot parse
//!    of the whole input (`parse_str` for lexed pipelines, `parse`
//!    otherwise).
//!
//! The blobs were written before the LR stream was rebuilt on the push
//! sink, so the suite pins that the rework kept the stream state that
//! `export_state` / `resume_stream` carry. Regenerate them only when
//! the session format itself changes (bump `SESSION_VERSION`), with
//! `cargo test --test session_fixtures -- --ignored`.

use std::path::PathBuf;

use lambekd::core::alphabet::{Alphabet, GString};
use lambekd::core::theory::parser::ParseOutcome;
use lambekd::engine::{Engine, PipelineSpec, SessionState, StrOutcome, SESSION_VERSION};

/// One parked stream: which pipeline, the whole input, and where the
/// stream was parked.
struct Fixture {
    file: &'static str,
    spec: fn() -> PipelineSpec,
    input: &'static str,
    cut: usize,
    /// Partial derivations the parked LR stack must hold.
    open_slots: usize,
}

fn regex_abc() -> PipelineSpec {
    PipelineSpec::regex(Alphabet::abc(), "(a|b)*c")
}

const FIXTURES: &[Fixture] = &[
    // Parked inside the nested array: several LR slots are open.
    Fixture {
        file: "json_lexed_open.bin",
        spec: PipelineSpec::json_lexed,
        input: "{\"k\": [1, 2, {\"deep\": null}], \"ok\": true}",
        cut: 21,
        open_slots: 7,
    },
    Fixture {
        file: "dyck_cfg_lr.bin",
        spec: PipelineSpec::dyck_cfg,
        input: "(()())((()))",
        cut: 8,
        open_slots: 2,
    },
    // 'x' does not lex: the lexer is dead when the stream parks.
    Fixture {
        file: "arith_lexed_dead.bin",
        spec: PipelineSpec::arith_lexed,
        input: "1+x+2",
        cut: 3,
        open_slots: 0,
    },
    Fixture {
        file: "regex_dfa.bin",
        spec: regex_abc,
        input: "ababbc",
        cut: 4,
        open_slots: 0,
    },
];

fn fixture_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/sessions")
        .join(file)
}

/// Whether the fixture's pipeline reads raw text through a lexer.
fn is_lexed(engine: &Engine, spec: &PipelineSpec) -> bool {
    engine
        .get_or_compile(spec)
        .expect("fixture specs compile")
        .lexed_backend()
        .is_some()
}

/// The symbol reading of a non-lexed fixture's input.
fn symbols(engine: &Engine, spec: &PipelineSpec, input: &str) -> GString {
    let pipeline = engine.get_or_compile(spec).expect("fixture specs compile");
    pipeline
        .alphabet()
        .parse_str(input)
        .expect("fixture inputs are over the alphabet")
}

#[test]
fn committed_blobs_resume_resnapshot_and_finish_like_one_shot_parses() {
    let engine = Engine::new();
    for fx in FIXTURES {
        let spec = (fx.spec)();
        let bytes = std::fs::read(fixture_path(fx.file))
            .unwrap_or_else(|e| panic!("{}: cannot read the fixture: {e}", fx.file));
        assert_eq!(
            u16::from_le_bytes([bytes[4], bytes[5]]),
            SESSION_VERSION,
            "{}: fixture version",
            fx.file
        );
        let blob = SessionState::from_bytes(bytes);
        let mut resumed = engine
            .resume(&spec, &blob)
            .unwrap_or_else(|e| panic!("{}: the blob no longer resumes: {e}", fx.file));
        let again = resumed.snapshot().expect("resumed streams park");
        assert_eq!(
            again.as_bytes(),
            blob.as_bytes(),
            "{}: re-snapshot differs from the committed blob",
            fx.file
        );
        assert!(
            resumed.progress().stack_depth >= fx.open_slots,
            "{}: the parked stack holds {} slots",
            fx.file,
            resumed.progress().stack_depth
        );
        let pipeline = engine.get_or_compile(&spec).expect("cached");
        if is_lexed(&engine, &spec) {
            let rest: String = fx.input.chars().skip(fx.cut).collect();
            resumed.push_chars(&rest);
            let streamed = resumed.finish().expect("no contract fault");
            match (
                pipeline.parse_str(fx.input).expect("no contract fault"),
                streamed,
            ) {
                (StrOutcome::Accept { tree, .. }, ParseOutcome::Accept(t)) => {
                    assert_eq!(t, tree.to_tree(), "{}: trees differ", fx.file)
                }
                (one_shot, streamed) => assert!(
                    !one_shot.is_accept() && !streamed.is_accept(),
                    "{}: one-shot {one_shot:?} but streamed {streamed:?}",
                    fx.file
                ),
            }
        } else {
            let w = symbols(&engine, &spec, fx.input);
            for sym in w.iter().skip(fx.cut) {
                resumed.push(sym);
            }
            let streamed = resumed.finish().expect("no contract fault");
            assert_eq!(
                streamed,
                pipeline.parse(&w).expect("no contract fault"),
                "{}: stream and one-shot parse differ",
                fx.file
            );
        }
    }
}

/// Writes the fixtures from the current build. Run only when the
/// session format changes; the point of the committed blobs is that
/// they were written by an older build.
#[test]
#[ignore]
fn write_session_fixtures() {
    let engine = Engine::new();
    std::fs::create_dir_all(fixture_path("")).expect("fixture directory");
    for fx in FIXTURES {
        let spec = (fx.spec)();
        let mut stream = engine.stream(&spec).expect("fixture specs stream");
        if is_lexed(&engine, &spec) {
            let head: String = fx.input.chars().take(fx.cut).collect();
            stream.push_chars(&head);
        } else {
            for sym in symbols(&engine, &spec, fx.input).iter().take(fx.cut) {
                stream.push(sym);
            }
        }
        let blob = stream.snapshot().expect("fixture streams park");
        std::fs::write(fixture_path(fx.file), blob.as_bytes()).expect("fixture written");
    }
}
