//! Seeded input generators and the correctness oracle.
//!
//! Every document is built lexeme by lexeme, so the generator knows the
//! yield-token count of each valid document without asking lambekd.
//! Invalid documents come from two known mutations: a byte outside
//! every alphabet inserted at a lexeme boundary (a lexical rejection at
//! that offset), or the final closing delimiter dropped (a parse
//! rejection at end of input). Grammar texts carry the report kind the
//! frontend must return.

use std::fmt::Write as _;

/// SplitMix64: small, fast, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for item `index` of stream `tag` under
    /// `seed`, so call `i` can be generated without generating `0..i`.
    pub fn derive(seed: u64, tag: u64, index: u64) -> Rng {
        let mut r = Rng(seed ^ tag.wrapping_mul(0xA24B_AED4_963E_E407));
        let a = r.next_u64();
        Rng(a ^ index.wrapping_mul(0x9FB2_1C65_1E98_DF25))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    pub fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())]
    }

    /// Log-uniform in `lo..=hi`.
    pub fn log_uniform(&mut self, lo: usize, hi: usize) -> usize {
        let (l, h) = ((lo as f64).ln(), (hi as f64).ln());
        ((l + (h - l) * self.unit()).exp().round() as usize).clamp(lo, hi)
    }
}

/// The seven serving pipelines: the five `.g` presets compiled from
/// text, and the two Rust-built lexed specs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Pipe {
    Json,
    Arith,
    Csv,
    JsonLite,
    Http,
    Ini,
    Clf,
}

impl Pipe {
    /// In popularity order: the interactive workload draws rank `k`
    /// with weight `1 / (k + 1)^1.1`.
    pub const ALL: [Pipe; 7] = [
        Pipe::Json,
        Pipe::Arith,
        Pipe::Csv,
        Pipe::JsonLite,
        Pipe::Http,
        Pipe::Ini,
        Pipe::Clf,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Pipe::Json => "json",
            Pipe::Arith => "arith-lexed",
            Pipe::Csv => "csv",
            Pipe::JsonLite => "json-lexed",
            Pipe::Http => "http",
            Pipe::Ini => "ini",
            Pipe::Clf => "clf",
        }
    }

    pub fn index(self) -> usize {
        Pipe::ALL
            .iter()
            .position(|&p| p == self)
            .expect("every pipe is listed")
    }

    /// The preset grammar text, for the pipelines compiled from text.
    pub fn preset(self) -> Option<&'static str> {
        use lambek_frontend::presets;
        match self {
            Pipe::Json => Some(presets::JSON),
            Pipe::Csv => Some(presets::CSV),
            Pipe::Ini => Some(presets::INI),
            Pipe::Http => Some(presets::HTTP),
            Pipe::Clf => Some(presets::CLF),
            Pipe::Arith | Pipe::JsonLite => None,
        }
    }

    /// The nonterminals of a preset, for renamed variants.
    fn rules(self) -> &'static [&'static str] {
        match self {
            Pipe::Json => &["Value", "Object", "Members", "Pair", "Array", "Elements"],
            Pipe::Csv => &["File", "Record", "Field"],
            Pipe::Ini => &["File", "Line", "Section", "Pair", "Value", "Word"],
            Pipe::Http => &["File", "Request", "Target"],
            Pipe::Clf => &["File", "Line"],
            Pipe::Arith | Pipe::JsonLite => &[],
        }
    }

    /// The start symbol of a preset.
    pub fn start(self) -> &'static str {
        match self {
            Pipe::Json => "Value",
            _ => "File",
        }
    }

    /// Pipelines whose documents end in a closing delimiter that can be
    /// dropped for a parse rejection (CSV accepts any truncation).
    fn has_close(self) -> bool {
        self != Pipe::Csv
    }
}

/// Draws a pipeline under the interactive workload's skewed weights.
pub fn zipf_pipe(rng: &mut Rng) -> Pipe {
    let weights: Vec<f64> = (0..Pipe::ALL.len())
        .map(|k| 1.0 / ((k + 1) as f64).powf(1.1))
        .collect();
    let mut x = rng.unit() * weights.iter().sum::<f64>();
    for (k, w) in weights.iter().enumerate() {
        if x < *w {
            return Pipe::ALL[k];
        }
        x -= w;
    }
    Pipe::ALL[Pipe::ALL.len() - 1]
}

/// What a correct lambekd must answer for one document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// Accepted with this many yield tokens.
    Accept { tokens: usize },
    /// `RejectedLex` at this byte offset.
    RejectLex { at: usize },
    /// `RejectedParse` whose span starts at this byte offset.
    RejectParse { at: usize },
}

/// One generated document and its expected verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Doc {
    pub pipe: Pipe,
    pub text: String,
    pub expect: Expect,
}

/// The byte inserted by the lexical mutation: outside the character
/// alphabet of every pipeline.
pub const BAD_BYTE: char = '\u{1}';

/// Builds a document one lexeme at a time, counting yield tokens and
/// remembering where each lexeme starts.
#[derive(Debug, Default)]
struct Builder {
    text: String,
    tokens: usize,
    starts: Vec<usize>,
}

impl Builder {
    fn tok(&mut self, s: &str) {
        self.starts.push(self.text.len());
        self.text.push_str(s);
        self.tokens += 1;
    }

    fn tok_fmt(&mut self, args: std::fmt::Arguments<'_>) {
        self.starts.push(self.text.len());
        self.text
            .write_fmt(args)
            .expect("writing to a String cannot fail");
        self.tokens += 1;
    }

    fn skip(&mut self, s: &str) {
        if !s.is_empty() {
            self.starts.push(self.text.len());
            self.text.push_str(s);
        }
    }

    fn len(&self) -> usize {
        self.text.len()
    }

    /// Seals the document; with `invalid`, applies one known mutation.
    fn finish(self, pipe: Pipe, rng: &mut Rng, invalid: bool) -> Doc {
        let Builder {
            mut text,
            tokens,
            starts,
        } = self;
        if !invalid {
            return Doc {
                pipe,
                text,
                expect: Expect::Accept { tokens },
            };
        }
        if pipe.has_close() && rng.chance(0.5) {
            // The last lexeme is the closing delimiter.
            let at = *starts.last().expect("documents are never empty");
            text.truncate(at);
            return Doc {
                pipe,
                text,
                expect: Expect::RejectParse { at },
            };
        }
        let at = starts[rng.below(starts.len())];
        text.insert(at, BAD_BYTE);
        Doc {
            pipe,
            text,
            expect: Expect::RejectLex { at },
        }
    }
}

const SYLLABLES: [&str; 24] = [
    "ka", "lo", "mi", "ra", "te", "su", "vo", "ne", "pi", "da", "xe", "qu", "zo", "fa", "gi", "hu",
    "ly", "bre", "sto", "mon", "ar", "el", "in", "or",
];

const MONTHS: [&str; 12] = [
    "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
];

/// A lowercase identifier from a small syllable vocabulary (so many
/// repeat), sometimes with a numeric suffix (so many do not).
fn ident(rng: &mut Rng) -> String {
    let mut s = String::new();
    for _ in 0..rng.range(1, 3) {
        s.push_str(rng.pick(&SYLLABLES));
    }
    if rng.chance(0.3) {
        let _ = write!(s, "{}", rng.below(1000));
    }
    s
}

/// A non-negative integer of varying magnitude.
fn number(rng: &mut Rng) -> u64 {
    let digits = rng.range(1, 9) as u32;
    rng.next_u64() % 10u64.pow(digits)
}

struct Stamp {
    y: usize,
    mo: usize,
    d: usize,
    h: usize,
    mi: usize,
    s: usize,
}

fn stamp(rng: &mut Rng) -> Stamp {
    Stamp {
        y: rng.range(2015, 2026),
        mo: rng.range(1, 12),
        d: rng.range(1, 28),
        h: rng.below(24),
        mi: rng.below(60),
        s: rng.below(60),
    }
}

fn ws<'a>(rng: &mut Rng, options: &[&'a str]) -> &'a str {
    options[rng.below(options.len())]
}

/// A document of about `target` bytes for `pipe` (at least one record).
pub fn doc(pipe: Pipe, rng: &mut Rng, target: usize, invalid: bool) -> Doc {
    let mut b = Builder::default();
    match pipe {
        Pipe::Json => json_doc(&mut b, rng, target),
        Pipe::JsonLite => json_lite_doc(&mut b, rng, target),
        Pipe::Csv => csv_doc(&mut b, rng, target),
        Pipe::Ini => ini_doc(&mut b, rng, target),
        Pipe::Http => http_doc(&mut b, rng, target),
        Pipe::Clf => clf_doc(&mut b, rng, target),
        Pipe::Arith => arith_doc(&mut b, rng, target),
    }
    b.finish(pipe, rng, invalid)
}

// ---- JSON (the json.g preset) ----------------------------------------

fn json_string(b: &mut Builder, rng: &mut Rng) {
    let mut s = String::from("\"");
    for k in 0..rng.range(1, 4) {
        if k > 0 {
            s.push(' ');
        }
        s.push_str(&ident(rng));
    }
    match rng.below(8) {
        0 => s.push_str("\\n"),
        1 => s.push_str("\\\"q\\\""),
        2 => {
            let _ = write!(s, "\\u{:04x}", rng.range(0x20, 0xffff));
        }
        3 => s.push_str("\\\\"),
        _ => {}
    }
    s.push('"');
    b.tok(&s);
}

fn json_number(b: &mut Builder, rng: &mut Rng) {
    let sign = if rng.chance(0.2) { "-" } else { "" };
    let n = number(rng);
    match rng.below(4) {
        0 => b.tok_fmt(format_args!("{sign}{n}.{:02}", rng.below(100))),
        1 => b.tok_fmt(format_args!(
            "{sign}{}.{}e{}{}",
            rng.range(1, 9),
            rng.below(1000),
            if rng.chance(0.5) { "-" } else { "+" },
            rng.range(1, 30)
        )),
        _ => b.tok_fmt(format_args!("{sign}{n}")),
    }
}

fn json_value(b: &mut Builder, rng: &mut Rng, depth: usize) {
    match rng.below(if depth < 2 { 9 } else { 7 }) {
        0 | 1 => json_number(b, rng),
        2 | 3 => json_string(b, rng),
        4 => {
            let t = stamp(rng);
            b.tok_fmt(format_args!(
                "\"{:04}-{:02}-{:02}T{:02}:{:02}:{:02}Z\"",
                t.y, t.mo, t.d, t.h, t.mi, t.s
            ));
        }
        5 => b.tok(rng.pick(&["true", "false"])),
        6 => b.tok("null"),
        7 => {
            b.tok("[");
            for k in 0..rng.range(0, 4) {
                if k > 0 {
                    b.tok(",");
                    b.skip(ws(rng, &["", " "]));
                }
                json_value(b, rng, depth + 1);
            }
            b.tok("]");
        }
        _ => json_object(b, rng, depth + 1),
    }
}

fn json_object(b: &mut Builder, rng: &mut Rng, depth: usize) {
    b.tok("{");
    for k in 0..rng.range(if depth == 0 { 1 } else { 0 }, 5) {
        if k > 0 {
            b.tok(",");
            b.skip(ws(rng, &["", " ", "\n  "]));
        }
        b.tok_fmt(format_args!("\"{}\"", ident(rng)));
        b.tok(":");
        b.skip(ws(rng, &["", " "]));
        json_value(b, rng, depth);
    }
    b.tok("}");
}

fn json_doc(b: &mut Builder, rng: &mut Rng, target: usize) {
    b.tok("[");
    loop {
        json_object(b, rng, 0);
        if b.len() >= target {
            break;
        }
        b.tok(",");
        b.skip(ws(rng, &["", " ", "\n"]));
    }
    b.tok("]");
}

// ---- JSON subset (the Rust-built json-lexed spec) ---------------------

fn json_lite_value(b: &mut Builder, rng: &mut Rng, depth: usize) {
    match rng.below(if depth < 2 { 8 } else { 6 }) {
        0 | 1 => b.tok_fmt(format_args!("{}", number(rng))),
        2 | 3 => {
            let mut s = String::from("\"");
            for k in 0..rng.range(1, 3) {
                if k > 0 {
                    s.push(' ');
                }
                s.push_str(&ident(rng));
            }
            s.push('"');
            b.tok(&s);
        }
        4 => b.tok(rng.pick(&["true", "false"])),
        5 => b.tok("null"),
        6 => {
            b.tok("[");
            for k in 0..rng.range(0, 4) {
                if k > 0 {
                    b.tok(",");
                    b.skip(ws(rng, &["", " "]));
                }
                json_lite_value(b, rng, depth + 1);
            }
            b.tok("]");
        }
        _ => json_lite_object(b, rng, depth + 1),
    }
}

fn json_lite_object(b: &mut Builder, rng: &mut Rng, depth: usize) {
    b.tok("{");
    for k in 0..rng.range(if depth == 0 { 1 } else { 0 }, 5) {
        if k > 0 {
            b.tok(",");
            b.skip(ws(rng, &["", " "]));
        }
        b.tok_fmt(format_args!("\"{}\"", ident(rng)));
        b.tok(":");
        b.skip(ws(rng, &["", " "]));
        json_lite_value(b, rng, depth);
    }
    b.tok("}");
}

fn json_lite_doc(b: &mut Builder, rng: &mut Rng, target: usize) {
    b.tok("[");
    loop {
        json_lite_object(b, rng, 0);
        if b.len() >= target {
            break;
        }
        b.tok(",");
        b.skip(ws(rng, &["", " "]));
    }
    b.tok("]");
}

// ---- CSV ---------------------------------------------------------------

fn csv_doc(b: &mut Builder, rng: &mut Rng, target: usize) {
    let columns = rng.range(3, 8);
    let nl = if rng.chance(0.2) { "\r\n" } else { "\n" };
    for c in 0..columns {
        if c > 0 {
            b.tok(",");
        }
        b.tok_fmt(format_args!("{}_{c}", ident(rng)));
    }
    b.tok(nl);
    while b.len() < target {
        for c in 0..columns {
            if c > 0 {
                b.tok(",");
            }
            match rng.below(7) {
                0 => b.tok_fmt(format_args!("{}", number(rng))),
                1 => b.tok_fmt(format_args!(
                    "{}.{:02}",
                    number(rng) % 100_000,
                    rng.below(100)
                )),
                2 => {
                    let t = stamp(rng);
                    b.tok_fmt(format_args!(
                        "{:04}-{:02}-{:02} {:02}:{:02}:{:02}",
                        t.y, t.mo, t.d, t.h, t.mi, t.s
                    ));
                }
                3 => b.tok_fmt(format_args!("{} {}", ident(rng), ident(rng))),
                4 => b.tok_fmt(format_args!(
                    "\"{}, {} \"\"{}\"\"\"",
                    ident(rng),
                    ident(rng),
                    ident(rng)
                )),
                5 => {} // an empty field lexes to nothing
                _ => b.tok(&ident(rng)),
            }
        }
        b.tok(nl);
    }
}

// ---- INI ---------------------------------------------------------------

fn ini_value(b: &mut Builder, rng: &mut Rng) {
    match rng.below(6) {
        0 => b.tok_fmt(format_args!("{}", number(rng))),
        1 => b.tok_fmt(format_args!(
            "{}.{}.{}",
            rng.below(10),
            rng.below(40),
            rng.below(100)
        )),
        2 => {
            let t = stamp(rng);
            b.tok_fmt(format_args!(
                "{:04}-{:02}-{:02}T{:02}.{:02}.{:02}",
                t.y, t.mo, t.d, t.h, t.mi, t.s
            ));
        }
        3 => b.tok_fmt(format_args!(
            "\"{} {}: {}\"",
            ident(rng),
            ident(rng),
            number(rng)
        )),
        _ => b.tok(&ident(rng)),
    }
}

fn ini_pair(b: &mut Builder, rng: &mut Rng) {
    b.tok_fmt(format_args!("{}_{}", ident(rng), rng.below(100)));
    b.skip(ws(rng, &["", " "]));
    b.tok("=");
    for _ in 0..rng.range(1, 3) {
        b.skip(" ");
        ini_value(b, rng);
    }
    if rng.chance(0.1) {
        b.skip(" ");
        b.skip(&format!("; {} {}", ident(rng), number(rng)));
    }
    b.tok("\n");
}

fn ini_doc(b: &mut Builder, rng: &mut Rng, target: usize) {
    while b.len() < target {
        match rng.below(10) {
            0 => {
                b.tok("[");
                b.tok_fmt(format_args!("{}.{}", ident(rng), ident(rng)));
                b.tok("]");
                b.tok("\n");
            }
            1 => {
                b.skip(&format!("# {} {} {}", ident(rng), ident(rng), number(rng)));
                b.tok("\n");
            }
            2 => b.tok("\n"),
            _ => ini_pair(b, rng),
        }
    }
    // The last line is a pair, so dropping its newline is a parse
    // rejection (a trailing comment line would still be accepted).
    ini_pair(b, rng);
}

// ---- HTTP request lines ------------------------------------------------

const METHODS: [&str; 6] = ["GET", "POST", "PUT", "DELETE", "HEAD", "PATCH"];

fn http_target(rng: &mut Rng) -> String {
    let mut s = String::new();
    if rng.chance(0.1) {
        let _ = write!(s, "http://{}.example.org", ident(rng));
    }
    for _ in 0..rng.range(1, 4) {
        s.push('/');
        if rng.chance(0.3) {
            let _ = write!(s, "{}", number(rng));
        } else {
            s.push_str(&ident(rng));
        }
    }
    if rng.chance(0.4) {
        for k in 0..rng.range(1, 3) {
            s.push(if k == 0 { '?' } else { '&' });
            let _ = write!(s, "{}={}", ident(rng), number(rng));
        }
    }
    s
}

fn http_doc(b: &mut Builder, rng: &mut Rng, target: usize) {
    loop {
        b.tok(rng.pick(&METHODS));
        b.skip(" ");
        let t = http_target(rng);
        b.tok(&t);
        b.skip(ws(rng, &[" ", " ", "\t"]));
        b.tok(rng.pick(&["HTTP/1.1", "HTTP/1.0", "HTTP/2.0"]));
        b.tok(if rng.chance(0.2) { "\r\n" } else { "\n" });
        if b.len() >= target {
            break;
        }
    }
}

// ---- Common Log Format -------------------------------------------------

fn clf_doc(b: &mut Builder, rng: &mut Rng, target: usize) {
    loop {
        if rng.chance(0.7) {
            b.tok_fmt(format_args!(
                "{}.{}.{}.{}",
                rng.below(256),
                rng.below(256),
                rng.below(256),
                rng.below(256)
            ));
        } else {
            b.tok_fmt(format_args!("{}.example.net", ident(rng)));
        }
        b.skip(" ");
        b.tok("-");
        b.skip(" ");
        if rng.chance(0.5) {
            b.tok("-");
        } else {
            b.tok(&ident(rng));
        }
        b.skip(" ");
        let t = stamp(rng);
        b.tok_fmt(format_args!(
            "[{:02}/{}/{:04}:{:02}:{:02}:{:02} {}{:04}]",
            t.d,
            MONTHS[t.mo - 1],
            t.y,
            t.h,
            t.mi,
            t.s,
            if rng.chance(0.5) { "+" } else { "-" },
            rng.below(13) * 100
        ));
        b.skip(" ");
        b.tok_fmt(format_args!(
            "\"{} {} HTTP/1.{}\"",
            rng.pick(&METHODS),
            http_target(rng),
            rng.below(2)
        ));
        b.skip(" ");
        b.tok(rng.pick(&["200", "200", "200", "304", "404", "500", "301"]));
        b.skip(" ");
        if rng.chance(0.1) {
            b.tok("-");
        } else {
            b.tok_fmt(format_args!("{}", number(rng) % 1_000_000));
        }
        b.tok("\n");
        if b.len() >= target {
            break;
        }
    }
}

// ---- Arithmetic (the Rust-built arith-lexed spec) ----------------------

/// A parenthesized group `level` deep; level 0 is a numeral.
fn arith_group(b: &mut Builder, rng: &mut Rng, level: usize) {
    if level == 0 {
        b.tok_fmt(format_args!("{}", number(rng)));
        return;
    }
    b.tok("(");
    for k in 0..rng.range(2, 8) {
        if k > 0 {
            b.skip(ws(rng, &["", " "]));
            b.tok("+");
            b.skip(ws(rng, &["", " "]));
        }
        let sub = if rng.chance(0.6) { 0 } else { level - 1 };
        arith_group(b, rng, sub);
    }
    b.tok(")");
}

fn arith_doc(b: &mut Builder, rng: &mut Rng, target: usize) {
    // Operands are nested groups, so the right-recursive `Exp` chain
    // stays short at every size: the deep shapes are the `deep`
    // workload's business.
    let level = if target > 16_384 { 4 } else { 2 };
    loop {
        arith_group(b, rng, level);
        if b.len() >= target {
            break;
        }
        b.skip(ws(rng, &["", " "]));
        b.tok("+");
        b.skip(ws(rng, &["", " "]));
    }
}

// ---- Adversarial shapes ------------------------------------------------

/// `1+1+…+1` with `terms` numerals: the longest possible `Exp` chain.
pub fn deep_arith(terms: usize) -> Doc {
    let mut text = String::with_capacity(2 * terms);
    text.push('1');
    for _ in 1..terms {
        text.push_str("+1");
    }
    Doc {
        pipe: Pipe::Arith,
        text,
        expect: Expect::Accept {
            tokens: 2 * terms - 1,
        },
    }
}

/// `[`×n `]`×n on the JSON subset.
pub fn deep_json(depth: usize) -> Doc {
    let mut text = "[".repeat(depth);
    text.push_str(&"]".repeat(depth));
    Doc {
        pipe: Pipe::JsonLite,
        text,
        expect: Expect::Accept { tokens: 2 * depth },
    }
}

// ---- Grammar texts -----------------------------------------------------

/// What `Engine::compile_text` must return for a grammar text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GrammarExpect {
    /// Compiles, with this start symbol; `probe` is a small document
    /// the fresh pipeline must then answer correctly.
    Ok { start: String, probe: Option<Doc> },
    /// `FrontendReport::Errors` led by a syntax error.
    Syntax,
    /// `FrontendReport::Errors` with `UndefinedSymbol { name }`.
    Undefined { name: String },
    /// `FrontendReport::Conflicts`.
    Conflict,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrammarText {
    pub text: String,
    pub expect: GrammarExpect,
}

/// The five presets as grammar submissions.
pub fn preset_texts() -> Vec<GrammarText> {
    Pipe::ALL
        .iter()
        .filter_map(|&p| {
            p.preset().map(|text| GrammarText {
                text: text.to_owned(),
                expect: GrammarExpect::Ok {
                    start: p.start().to_owned(),
                    probe: None,
                },
            })
        })
        .collect()
}

/// Renames every `\bname\b` occurrence (names are ASCII identifiers).
fn rename_word(text: &str, name: &str, to: &str) -> String {
    let bytes = text.as_bytes();
    let is_id = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    let mut out = String::with_capacity(text.len() + 64);
    let mut i = 0;
    while i < text.len() {
        if text[i..].starts_with(name)
            && (i == 0 || !is_id(bytes[i - 1]))
            && bytes.get(i + name.len()).is_none_or(|&c| !is_id(c))
        {
            out.push_str(to);
            i += name.len();
        } else {
            let c = text[i..].chars().next().expect("in bounds");
            out.push(c);
            i += c.len_utf8();
        }
    }
    out
}

/// The pipelines compiled from preset texts.
pub const PRESETS: [Pipe; 5] = [Pipe::Json, Pipe::Csv, Pipe::Ini, Pipe::Http, Pipe::Clf];

/// Preset `pipe` with every nonterminal renamed; accepts the preset's
/// language.
pub fn renamed_preset(rng: &mut Rng, pipe: Pipe) -> GrammarText {
    let suffix = format!("_{}{}", ident(rng), rng.below(10_000));
    let mut text = pipe.preset().expect("a preset").to_owned();
    for rule in pipe.rules() {
        text = rename_word(&text, rule, &format!("{rule}{suffix}"));
    }
    let target = rng.range(48, 400);
    GrammarText {
        text,
        expect: GrammarExpect::Ok {
            start: format!("{}{suffix}", pipe.start()),
            probe: Some(doc(pipe, rng, target, false)),
        },
    }
}

/// json.g with extra `Value` alternatives: fresh keyword literals.
pub fn extended_json(rng: &mut Rng) -> GrammarText {
    let keywords: Vec<String> = (0..rng.range(1, 3))
        .map(|k| format!("@{}{k}", ident(rng)))
        .collect();
    let alts: String = keywords.iter().map(|k| format!(" | '{k}'")).collect();
    let text = lambek_frontend::presets::JSON.replace(
        "Value    ::= STR | NUM | 'true' | 'false' | 'null' | Object | Array ;",
        &format!("Value    ::= STR | NUM | 'true' | 'false' | 'null' | Object | Array{alts} ;"),
    );
    debug_assert_ne!(text, lambek_frontend::presets::JSON);
    let mut b = Builder::default();
    b.tok("[");
    for (k, kw) in keywords.iter().enumerate() {
        if k > 0 {
            b.tok(",");
        }
        b.tok(kw);
        b.tok(",");
        b.skip(" ");
        json_value(&mut b, rng, 1);
    }
    b.tok("]");
    GrammarText {
        text,
        expect: GrammarExpect::Ok {
            start: "Value".to_owned(),
            probe: Some(b.finish(Pipe::Json, rng, false)),
        },
    }
}

const OPERATORS: [&str; 18] = [
    "+", "-", "*", "/", "%", "^", "&", "|", "<<", ">>", "<", ">", "==", "!=", "&&", "||", "**",
    "~>",
];

/// An expression grammar with `levels` precedence levels.
struct ExprGrammar {
    prefix: String,
    ops: Vec<&'static str>,
    right: Vec<bool>,
}

impl ExprGrammar {
    fn new(rng: &mut Rng, levels: usize) -> ExprGrammar {
        let mut pool: Vec<&'static str> = OPERATORS.to_vec();
        let mut ops = Vec::with_capacity(levels);
        for _ in 0..levels {
            ops.push(pool.swap_remove(rng.below(pool.len())));
        }
        ExprGrammar {
            prefix: format!("E{}{}", ident(rng), rng.below(10_000)),
            right: (0..levels).map(|_| rng.chance(0.3)).collect(),
            ops,
        }
    }

    fn text(&self, extra_atom: Option<&str>) -> String {
        let p = &self.prefix;
        let mut t = String::from(
            "# synthesized expression grammar\ntoken NUM = [0-9]+ ;\n\
             token ID = [a-z] [a-z0-9_]* ;\nskip WS = [ \\t\\n]+ ;\n",
        );
        let _ = writeln!(t, "start {p}_0 ;");
        for (k, op) in self.ops.iter().enumerate() {
            let (a, b) = if self.right[k] {
                (format!("{p}_{}", k + 1), format!("{p}_{k}"))
            } else {
                (format!("{p}_{k}"), format!("{p}_{}", k + 1))
            };
            let _ = writeln!(t, "{p}_{k} ::= {a} '{op}' {b} | {p}_{} ;", k + 1);
        }
        let extra = extra_atom.map(|x| format!(" | {x}")).unwrap_or_default();
        let _ = writeln!(
            t,
            "{p}_{} ::= NUM | ID | '(' {p}_0 ')'{extra} ;",
            self.ops.len()
        );
        t
    }

    /// A small expression over this grammar's operators.
    fn expr(&self, b: &mut Builder, rng: &mut Rng, depth: usize) {
        let operands = rng.range(1, 4);
        for k in 0..operands {
            if k > 0 {
                b.skip(" ");
                b.tok(rng.pick(&self.ops));
                b.skip(" ");
            }
            match rng.below(if depth < 2 { 3 } else { 2 }) {
                0 => b.tok_fmt(format_args!("{}", number(rng))),
                1 => b.tok(&ident(rng)),
                _ => {
                    b.tok("(");
                    self.expr(b, rng, depth + 1);
                    b.tok(")");
                }
            }
        }
    }
}

/// The precedence levels of synthesized expression grammars.
pub const MAX_LEVELS: usize = 9;

/// A fresh expression grammar with `levels` precedence levels
/// (`2..=MAX_LEVELS`) and a probe expression it accepts.
pub fn expression_grammar(rng: &mut Rng, levels: usize) -> GrammarText {
    let g = ExprGrammar::new(rng, levels);
    let mut b = Builder::default();
    g.expr(&mut b, rng, 0);
    let probe = b.finish(Pipe::Arith, rng, false);
    GrammarText {
        text: g.text(None),
        expect: GrammarExpect::Ok {
            start: format!("{}_0", g.prefix),
            probe: Some(probe),
        },
    }
}

/// An invalid grammar text of kind `kind % 3`: a syntax error, an
/// undefined nonterminal, or an LALR conflict.
pub fn invalid_grammar(rng: &mut Rng, kind: usize) -> GrammarText {
    let levels = rng.range(2, MAX_LEVELS);
    let g = ExprGrammar::new(rng, levels);
    match kind % 3 {
        0 => {
            // Drop the `;` that ends the first production.
            let text = g.text(None);
            let at = text.find("::=").expect("a production");
            let semi = at + text[at..].find(';').expect("a terminator");
            let mut text = text;
            text.replace_range(semi..=semi, "");
            GrammarText {
                text,
                expect: GrammarExpect::Syntax,
            }
        }
        1 => {
            let name = format!("Missing{}{}", ident(rng), rng.below(1000));
            GrammarText {
                text: g.text(Some(&name)),
                expect: GrammarExpect::Undefined { name },
            }
        }
        _ => {
            let p = &g.prefix;
            let op = g.ops[0];
            GrammarText {
                text: format!(
                    "token NUM = [0-9]+ ;\nskip WS = [ ]+ ;\nstart {p} ;\n\
                     {p} ::= {p} '{op}' {p} | NUM ;\n"
                ),
                expect: GrammarExpect::Conflict,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes() {
        for &pipe in &Pipe::ALL {
            let a = doc(pipe, &mut Rng::derive(7, 1, 3), 2000, false);
            let b = doc(pipe, &mut Rng::derive(7, 1, 3), 2000, false);
            assert_eq!(a, b);
            let c = doc(pipe, &mut Rng::derive(8, 1, 3), 2000, false);
            assert_ne!(a.text, c.text, "{pipe:?}");
        }
        let g1 = expression_grammar(&mut Rng::derive(5, 2, 9), 4);
        let g2 = expression_grammar(&mut Rng::derive(5, 2, 9), 4);
        assert_eq!(g1, g2);
    }

    #[test]
    fn rename_respects_word_boundaries() {
        assert_eq!(
            rename_word("Pair ::= Pairs Pair;", "Pair", "P2"),
            "P2 ::= Pairs P2;"
        );
    }

    #[test]
    fn mutations_are_known() {
        let mut rng = Rng::derive(3, 0, 0);
        for _ in 0..50 {
            let d = doc(Pipe::Ini, &mut rng, 300, true);
            match d.expect {
                Expect::RejectLex { at } => assert_eq!(d.text[at..].chars().next(), Some(BAD_BYTE)),
                Expect::RejectParse { at } => assert_eq!(at, d.text.len()),
                Expect::Accept { .. } => panic!("an invalid document must expect a rejection"),
            }
        }
    }
}
