//! The benchmark's own tests: seeded inputs repeat byte for byte, and
//! the oracle's verdicts agree with hand-derived ones and with lambekd.

use crate::gen::{self, Doc, Expect, Pipe, Rng};
use crate::workload::{self, Call, CallGen, Served, Workload};

#[test]
fn same_seed_same_calls() {
    for w in Workload::ALL {
        let n = if w == Workload::Deep { 2 } else { 60 };
        let a: Vec<Call> = {
            let mut g = CallGen::new(w, 42, 2);
            (0..n).map(|i| g.call(i)).collect()
        };
        let b: Vec<Call> = {
            let mut g = CallGen::new(w, 42, 2);
            (0..n).map(|i| g.call(i)).collect()
        };
        assert_eq!(a, b, "{}", w.name());
        let mut g = CallGen::new(w, 43, 2);
        let c: Vec<Call> = (0..n).map(|i| g.call(i)).collect();
        assert_ne!(a, c, "{}: another seed, other inputs", w.name());
    }
}

/// Hand-written documents and the verdicts worked out by hand.
fn fixture() -> Vec<(Pipe, &'static str, Expect)> {
    use Expect::*;
    vec![
        // NUM + ( NUM + NUM )
        (Pipe::Arith, "1 + (23 + 4)", Accept { tokens: 7 }),
        // Dropped `)`: the LR drive refuses the end of input.
        (Pipe::Arith, "1 + (23 + 4", RejectParse { at: 11 }),
        (Pipe::Arith, "1 +\u{1} 2", RejectLex { at: 3 }),
        // [ NUM , STR , true ]
        (Pipe::JsonLite, "[1, \"ab c\", true]", Accept { tokens: 7 }),
        // { STR : [ NUM , null ] }
        (Pipe::Json, "{\"k\": [1.5e3, null]}", Accept { tokens: 9 }),
        (Pipe::Json, "{\"k\": [1.5e3, null]", RejectParse { at: 19 }),
        // TEXT , TEXT NL QUOTED , NL (the empty fields lex to nothing)
        (Pipe::Csv, "a,b\n\"x, y\",\n", Accept { tokens: 7 }),
        // [ NAME ] NL NAME = NAME NAME NL (the comment is skipped)
        (Pipe::Ini, "[s]\nk = v 1 ; note\n", Accept { tokens: 9 }),
        (Pipe::Ini, "[s]\nk = v", RejectParse { at: 9 }),
        // METHOD TARGET VERSION NL
        (Pipe::Http, "GET /a?b=1 HTTP/1.1\n", Accept { tokens: 4 }),
        // ATOM ATOM ATOM BRACKETED QUOTED ATOM ATOM NL
        (
            Pipe::Clf,
            "1.2.3.4 - - [10/Oct/2000:13:55:36 -0700] \"GET /x HTTP/1.0\" 200 2326\n",
            Accept { tokens: 8 },
        ),
        (Pipe::Clf, "1.2.3.4 - \u{1}- x\n", RejectLex { at: 10 }),
    ]
}

fn answer(served: &Served, doc: &Doc) -> Result<(), String> {
    let reports = served
        .engine
        .parse_many_str(served.spec(doc.pipe), &[doc.text.as_str()], 1)
        .map_err(|e| e.to_string())?;
    workload::check_outcome(&doc.expect, &reports[0].outcome)
}

#[test]
fn oracle_matches_the_fixture_and_lambekd() {
    let served = Served::new().expect("set-up");
    for (pipe, text, expect) in fixture() {
        let doc = Doc {
            pipe,
            text: text.to_owned(),
            expect,
        };
        answer(&served, &doc).unwrap_or_else(|why| panic!("{text:?}: {why}"));
        // The checker refuses a wrong expectation.
        let wrong = Doc {
            expect: match doc.expect {
                Expect::Accept { tokens } => Expect::Accept { tokens: tokens + 1 },
                Expect::RejectLex { at } | Expect::RejectParse { at } => {
                    Expect::RejectLex { at: at + 1 }
                }
            },
            ..doc
        };
        assert!(answer(&served, &wrong).is_err(), "{text:?}");
    }
    // Generated documents, valid and mutated, against lambekd.
    for &pipe in &Pipe::ALL {
        for k in 0..40 {
            let mut rng = Rng::derive(9, pipe.index() as u64, k);
            let size = rng.log_uniform(16, 3000);
            let doc = gen::doc(pipe, &mut rng, size, k % 2 == 1);
            answer(&served, &doc).unwrap_or_else(|why| panic!("{pipe:?} {doc:?}: {why}"));
        }
    }
}

#[test]
fn generated_documents_match_hand_counts() {
    // The smallest documents of two generators, with their token counts
    // worked out by hand from the text.
    let arith = gen::doc(Pipe::Arith, &mut Rng::derive(1, 0, 0), 1, false);
    let http = gen::doc(Pipe::Http, &mut Rng::derive(1, 0, 0), 1, false);
    assert_eq!(arith.text, ARITH_TEXT);
    assert_eq!(
        arith.expect,
        Expect::Accept {
            tokens: ARITH_TOKENS
        }
    );
    assert_eq!(http.text, HTTP_TEXT);
    assert_eq!(http.expect, Expect::Accept { tokens: 4 });
}

/// One group: `(` + `(60 +112)` (5) + `+` + a seven-numeral group (15)
/// + `+` + another (15) + `+` + `2` + `)`.
const ARITH_TEXT: &str = "((60 +112) +(313292779+1 +87443+16 +90112+4458920 +1202566)+ \
                          (576281 +601+227251 +8050278+ 197746+849709025 + 376358553) + 2)";
const ARITH_TOKENS: usize = 41;
/// METHOD TARGET VERSION NL, with a tab as the second separator.
const HTTP_TEXT: &str = "PUT /sto?gi=26\tHTTP/1.0\n";

#[test]
fn printed_metrics_are_the_declared_ones() {
    let declared = include_str!("../../BENCHMARK.json");
    let layer = crate::layer_metrics(&crate::trace::Acc::new());
    let names: Vec<&str> = crate::END_TO_END
        .iter()
        .copied()
        .chain(layer.iter().map(|(name, ..)| *name))
        .collect();
    for name in &names {
        assert!(
            declared.contains(&format!("\"name\": \"{name}\"")),
            "{name} is not declared"
        );
    }
    assert_eq!(declared.matches("\"name\": ").count(), names.len() + 2);
}
