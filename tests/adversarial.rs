//! Deep inputs must not knock the process over.
//!
//! A derivation is as deep as its input: `1+1+…+1` on the
//! right-recursive arithmetic grammar and `[[…]]` on JSON nest one
//! level per term. The served path writes each derivation as a flat
//! tape, so parsing, reporting and dropping it use no call-stack depth
//! proportional to the input. Every check here runs on a client thread
//! with a 256 KiB stack, and the batch itself runs on the engine's
//! worker pool.

use lambekd::engine::{Engine, PipelineSpec, StrOutcome, StrReportOutcome};

/// Runs `f` on a thread with a 256 KiB stack, propagating its panics.
fn on_small_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(f)
        .expect("spawn the client thread")
        .join()
        .expect("the client thread finished");
}

/// `1+1+…+1` with `n` terms: 2n − 1 tokens.
fn arith_sum(n: usize) -> String {
    let mut s = "1+".repeat(n);
    s.pop();
    s
}

/// `[`ⁿ `]`ⁿ: 2n tokens.
fn json_nest(n: usize) -> String {
    format!("{}{}", "[".repeat(n), "]".repeat(n))
}

/// Parses `inputs` on the pool and checks each one is accepted with
/// exactly `tokens[i]` yield tokens, then parses the last (largest) one
/// again on the calling thread and drops its tape there.
fn deep_inputs_parse(spec: PipelineSpec, inputs: Vec<String>, tokens: Vec<usize>) {
    on_small_stack(move || {
        let engine = Engine::new();
        let refs: Vec<&str> = inputs.iter().map(String::as_str).collect();
        let reports = engine
            .parse_many_str(&spec, &refs, 0)
            .expect("the pipeline compiles");
        assert_eq!(reports.len(), inputs.len());
        for (report, &want) in reports.iter().zip(&tokens) {
            match &report.outcome {
                StrReportOutcome::Accepted { tokens, tree_size } => {
                    assert_eq!(*tokens, want, "input {}", report.index);
                    assert!(*tree_size > want, "input {}", report.index);
                }
                other => panic!("input {} was not accepted: {other:?}", report.index),
            }
        }

        let pipeline = engine.get_or_compile(&spec).expect("compiles");
        let backend = pipeline.lexed_backend().expect("lexed pipeline");
        let (last, want) = (inputs.last().unwrap(), *tokens.last().unwrap());
        match backend.parse_str(last).expect("no contract fault") {
            StrOutcome::Accept { tree, .. } => {
                assert_eq!(tree.yield_len(), want);
                assert_eq!(tree.flatten().len(), want);
                drop(tree);
            }
            other => panic!("the largest input was not accepted: {other:?}"),
        }
    });
}

#[test]
fn deep_arith_sums_parse_on_the_pool() {
    deep_inputs_parse(
        PipelineSpec::arith_lexed(),
        vec![arith_sum(10_000), arith_sum(100_000)],
        vec![19_999, 199_999],
    );
}

#[test]
fn deep_json_nests_parse_on_the_pool() {
    deep_inputs_parse(
        PipelineSpec::json_lexed(),
        vec![json_nest(10_000), json_nest(100_000)],
        vec![20_000, 200_000],
    );
}
