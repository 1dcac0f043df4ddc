//! Regression guard for `StreamParser::would_accept` in lexed-LR mode.
//!
//! The probe used to clone the pending `LexStream` *and* the LR stack
//! for every call, making N probes over a document O(N · input). It now
//! resolves the pending lexeme on a copy of the small munch state and
//! runs the LR lookahead on a virtual-stack overlay, so each probe does
//! work proportional to the parse-stack depth, not the input consumed
//! so far. These tests pin that down with the step counter the overlay
//! exposes.
//!
//! The arithmetic grammar is right-recursive (`Exp ::= Atom + Exp`), so
//! a flat sum genuinely deepens the stack — to grow the *input* without
//! growing the *stack* we pad with whitespace, which the lexer consumes
//! as skip lexemes that never reach the parser. A probe over a 64 KiB
//! document must then cost exactly what it costs over a 1 KiB one.
//!
//! The last test pins the push stream's scan work: each pushed byte is
//! scanned about once and counted by `lambekd_lex_scan_bytes_total`.

use lambek_engine::{Engine, PipelineSpec};

/// `1␣…␣+␣…␣1` with `pad` spaces around the operator: two terms (fixed
/// LR stack) but arbitrarily many input bytes.
fn padded_arith(pad: usize) -> String {
    let spaces = " ".repeat(pad);
    format!("1{spaces}+{spaces}1")
}

#[test]
fn probe_cost_is_independent_of_input_length() {
    let engine = Engine::new();
    let spec = PipelineSpec::arith_lexed();
    let probe_steps = |input: &str| {
        let mut stream = engine.stream(&spec).unwrap();
        assert!(stream.push_chars(input));
        let (ok, steps) = stream.would_accept_counted();
        assert!(ok, "padded arithmetic is accepted");
        steps
    };
    let small = probe_steps(&padded_arith(512)); // ~1 KiB
    let large = probe_steps(&padded_arith(32 * 1024)); // ~64 KiB
    assert_eq!(
        small, large,
        "probe cost must not scale with consumed input"
    );
    assert!(
        small <= 64,
        "a two-term sum keeps the probe tiny: {small} steps"
    );
}

#[test]
fn repeated_probes_do_stack_depth_work_not_input_work() {
    let engine = Engine::new();
    let spec = PipelineSpec::arith_lexed();
    // Probe after every one of the last 256 characters — the usual
    // editor pattern ("is the buffer accept-able as I type?").
    let window_max = |pad: usize| {
        let input = padded_arith(pad);
        let window = input.len().saturating_sub(256);
        let mut stream = engine.stream(&spec).unwrap();
        let mut max_steps = 0usize;
        for (i, c) in input.char_indices() {
            stream.push_char(c);
            if i >= window {
                let (_, steps) = stream.would_accept_counted();
                max_steps = max_steps.max(steps);
            }
        }
        max_steps
    };
    let small = window_max(512); // ~1 KiB
    let large = window_max(16 * 1024); // ~32 KiB
    assert_eq!(
        small, large,
        "per-probe work must depend on the stack, not the document"
    );
    assert!(small <= 64, "each probe is O(stack depth): {small} steps");
}

#[test]
fn streamed_bytes_reach_the_scan_probe_once() {
    let engine = Engine::new();
    let spec = PipelineSpec::arith_lexed();
    let input = padded_arith(32 * 1024);
    let len = input.len() as u64;
    let before = lambek_lex::probes::snapshot().scan_bytes;
    let mut stream = engine.stream(&spec).unwrap();
    for c in input.chars() {
        stream.push_char(c);
    }
    assert!(stream.finish().unwrap().is_accept());
    let read = lambek_lex::probes::snapshot().scan_bytes - before;
    assert!(
        read >= len,
        "every streamed byte is scanned: {read} < {len}"
    );
    // The sibling tests stream concurrently into the same process-wide
    // counter, hence the slack; a munch that re-scanned its pending
    // token from the start on every push would read over a GiB here.
    assert!(read <= 16 * len, "{read} bytes scanned for {len} pushed");
}
