//! Speculative parallel chunked lexing: split the input at guessed
//! boundaries, scan every chunk independently with the byte-sliced
//! maximal-munch scanner, and join at the seams.
//!
//! Maximal munch is sequential on its face — where one lexeme ends is
//! where the next begins, so the token boundaries of chunk *k+1* depend
//! on all of chunk *k*. The classic way out is *speculation with
//! resynchronization*: each worker scans from a guessed (merely
//! char-boundary-snapped) start position, and in practice the munch
//! chain resynchronizes with the true token boundaries within a lexeme
//! or two. The join then only has to *replay* the sequential chain with
//! a memo:
//!
//! * the true chain is `s₀ = 0`, `sₖ₊₁ = end(munch(sₖ))` — one
//!   munch step per lexeme, each depending only on its start
//!   position and the full input;
//! * every lexeme a chunk recorded was produced by exactly that
//!   munch step at its recorded start over the *full* input (chunks
//!   bound where scans *begin*, never where they read), so whenever the
//!   replay's position equals a recorded lexeme start, determinism
//!   makes the chunk's entire remaining chain the true chain — splice
//!   it in O(1) per lexeme and jump to its end;
//! * only when the replay's position matches no recorded start (the
//!   seam-straddling lexemes of a chunk that guessed wrong) does the
//!   join re-munch with the scanner itself, which re-establishes the
//!   invariant at the next lexeme.
//!
//! A chunk's recorded *error* is trusted under the same rule: it is
//! returned only when the replayed trajectory actually reaches the
//! position where the chunk's scan died — a speculative error at a
//! misguessed position is simply never reached, and the re-munch path
//! reproduces any real one. The result is *observational equivalence*
//! with [`LexAutomaton::raw_lexemes`] — same lexemes, same spans, same
//! error — proven by the `prop_lex_parallel` differential suite.
//!
//! This module is engine-agnostic: [`LexAutomaton::lex_chunk`] is the
//! embarrassingly parallel piece (ship it to any worker pool — the
//! engine runs it on its persistent pool via `Engine::lex_str_parallel`)
//! and [`LexAutomaton::join_chunks`] is the cheap sequential join.

use crate::compile::LexAutomaton;
use crate::driver::{munch, LexError, RawLexeme, ScanFrom};

/// The result of speculatively scanning one chunk: the lexeme chain
/// from the chunk's (guessed) start position, and the error the scan
/// died on, if any. Produced by [`LexAutomaton::lex_chunk`], consumed
/// by [`LexAutomaton::join_chunks`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexChunk {
    /// The chunk's start offset (a char boundary).
    pub start: usize,
    /// The chunk's end offset: where scans stop *beginning* (lexemes
    /// may well end past it — the seam overlap the join resolves).
    pub end: usize,
    /// The maximal-munch chain scanned from `start`: contiguous
    /// lexemes, the first starting at `start`, each next at the
    /// previous one's end, the last being the first to start at or
    /// beyond `end`. Trustworthy exactly from the point the true token
    /// chain passes through one of their start offsets.
    pub lexemes: Vec<RawLexeme>,
    /// Set when the chunk's scan found a position from which no rule
    /// matches; the chain stops there. Speculative like the lexemes:
    /// the join honors it only if the true chain reaches `err.at`.
    pub err: Option<LexError>,
}

/// Splits `input` into at most `chunks` contiguous ranges of roughly
/// equal byte length, each start snapped *forward* to a char boundary
/// (never splitting a multi-byte scalar). Returns the start offsets;
/// chunk `k` covers `starts[k]..starts[k+1]` (the last runs to
/// `input.len()`). Always returns at least one start (`0`), and the
/// starts are strictly increasing — snapping that would collide two
/// starts drops the later one.
pub fn chunk_starts(input: &str, chunks: usize) -> Vec<usize> {
    let n = input.len();
    let chunks = chunks.max(1);
    let mut starts = vec![0usize];
    for k in 1..chunks {
        let mut b = n * k / chunks;
        while b < n && !input.is_char_boundary(b) {
            b += 1;
        }
        if b > *starts.last().expect("starts is never empty") && b < n {
            starts.push(b);
        }
    }
    starts
}

impl LexAutomaton {
    /// Speculatively scans one chunk: runs the byte-sliced maximal-munch
    /// scanner from `start` (which must be a char boundary of `input`),
    /// recording lexemes until one *starts* at or beyond `end` or the
    /// scan dies. Scans read the full input — a lexeme beginning before
    /// `end` is followed to wherever it really ends.
    ///
    /// Chunks are independent: this method touches no shared state and
    /// is the piece to fan out across worker threads.
    pub fn lex_chunk(&self, input: &str, start: usize, end: usize) -> LexChunk {
        let core = self.core();
        let mut lexemes = Vec::new();
        let mut err = None;
        let mut tally = crate::probes::ScanTally::default();
        let mut at = ScanFrom::new(core, start);
        while at.start < end {
            match munch(core, input, &mut at, true, &mut tally) {
                Some(Ok(lexeme)) => lexemes.push(lexeme),
                Some(Err(e)) => {
                    err = Some(e);
                    break;
                }
                None => break,
            }
        }
        LexChunk {
            start,
            end,
            lexemes,
            err,
        }
    }

    /// Joins speculatively scanned chunks into the sequential lexeme
    /// chain — the memoized replay described in the module docs. The
    /// chunks must be [`LexAutomaton::lex_chunk`] results over this
    /// same `input`, in order, tiling it (`chunks[0].start == 0`, each
    /// `end` the next `start`, the last `end == input.len()`).
    ///
    /// Work is O(spliced lexemes) plus one fresh munch step per
    /// seam-straddling lexeme — on well-guessed seams, a handful of
    /// re-munches total regardless of input size.
    ///
    /// # Errors
    ///
    /// The [`LexError`] the sequential scan would produce, with the
    /// same offset and offending char.
    pub fn join_chunks(
        &self,
        input: &str,
        chunks: &[LexChunk],
    ) -> Result<Vec<RawLexeme>, LexError> {
        let core = self.core();
        let mut out: Vec<RawLexeme> =
            Vec::with_capacity(chunks.iter().map(|c| c.lexemes.len()).sum());
        let mut tally = crate::probes::ScanTally::default();
        let mut p = 0usize;
        for c in chunks {
            debug_assert!(p >= c.start, "replay can never lag a chunk's start");
            while p < c.end {
                // Memo hit: the true chain passes through a recorded
                // start, so the chunk's remaining chain IS the true
                // chain — splice it whole.
                if let Ok(i) = c.lexemes.binary_search_by_key(&p, |l| l.span.start) {
                    out.extend_from_slice(&c.lexemes[i..]);
                    p = c.lexemes.last().expect("found at index i").span.end;
                    if let Some(e) = &c.err {
                        // The chunk died where the true chain now
                        // stands: the error is real.
                        if e.at == p {
                            return Err(e.clone());
                        }
                    }
                    continue;
                }
                // Seam miss: re-munch one lexeme from the true position.
                let lexeme = munch(core, input, &mut ScanFrom::new(core, p), true, &mut tally)
                    .expect("a seam miss lies inside the input")?;
                out.push(lexeme);
                p = lexeme.span.end;
            }
        }
        Ok(out)
    }

    /// Chunked lexing end to end on the calling thread: split via
    /// [`chunk_starts`], scan each chunk, join. Observationally equal
    /// to collecting [`LexAutomaton::raw_lexemes`] for every input and
    /// every chunk count — this is the harness the differential suites
    /// drive (and a fan-out caller replaces the loop's body with pool
    /// jobs, exactly like `Engine::lex_str_parallel`).
    ///
    /// # Errors
    ///
    /// As [`LexAutomaton::raw_lexemes`].
    pub fn lex_raw_chunked(&self, input: &str, chunks: usize) -> Result<Vec<RawLexeme>, LexError> {
        let starts = chunk_starts(input, chunks);
        let scanned: Vec<LexChunk> = starts
            .iter()
            .enumerate()
            .map(|(k, &s)| {
                let end = starts.get(k + 1).copied().unwrap_or(input.len());
                self.lex_chunk(input, s, end)
            })
            .collect();
        self.join_chunks(input, &scanned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::LexSpecBuilder;
    use lambek_core::alphabet::Alphabet;

    fn arith() -> LexAutomaton {
        LexAutomaton::compile(crate::demo::arith_spec())
    }

    #[test]
    fn chunk_starts_snap_to_char_boundaries() {
        let s = "aß∂aßa"; // 1+2+3+1+2+1 bytes
        for n in 1..8 {
            let starts = chunk_starts(s, n);
            assert_eq!(starts[0], 0);
            for w in starts.windows(2) {
                assert!(w[0] < w[1]);
            }
            for &b in &starts {
                assert!(s.is_char_boundary(b), "{b} in {starts:?}");
            }
        }
        assert_eq!(chunk_starts("", 4), vec![0]);
    }

    #[test]
    fn chunked_equals_sequential_on_arith() {
        let auto = arith();
        let input = "12 + (345 + 6) + 78";
        let sequential: Vec<RawLexeme> = auto
            .raw_lexemes(input)
            .collect::<Result<_, _>>()
            .expect("lexes");
        for chunks in 1..10 {
            assert_eq!(
                auto.lex_raw_chunked(input, chunks).expect("lexes"),
                sequential,
                "{chunks} chunks"
            );
        }
    }

    #[test]
    fn chunked_errors_match_sequential() {
        let auto = arith();
        let input = "12 + X + 34";
        let seq_err = auto
            .raw_lexemes(input)
            .collect::<Result<Vec<_>, _>>()
            .expect_err("X does not lex");
        for chunks in 1..8 {
            assert_eq!(
                auto.lex_raw_chunked(input, chunks)
                    .expect_err("X does not lex"),
                seq_err,
                "{chunks} chunks"
            );
        }
    }

    #[test]
    fn seams_inside_maximal_munch_lookahead_resync() {
        // One rule "aa" and one "b": chunk seams landing mid-"aa" force
        // the speculative chain to desync and the join to re-munch.
        let sigma = Alphabet::from_chars("ab");
        let auto = LexAutomaton::compile(
            LexSpecBuilder::new(sigma)
                .token("AA", "aa")
                .unwrap()
                .token("B", "b")
                .unwrap()
                .build()
                .unwrap(),
        );
        let input = "aabaaaab";
        let sequential: Vec<RawLexeme> = auto.raw_lexemes(input).collect::<Result<_, _>>().unwrap();
        for chunks in 1..input.len() + 2 {
            assert_eq!(
                auto.lex_raw_chunked(input, chunks).unwrap(),
                sequential,
                "{chunks} chunks"
            );
        }
        // "aab" + odd run of a's: error position must match too.
        let bad = "aabaaab";
        let seq_err = auto
            .raw_lexemes(bad)
            .collect::<Result<Vec<_>, _>>()
            .unwrap_err();
        for chunks in 1..bad.len() + 2 {
            assert_eq!(auto.lex_raw_chunked(bad, chunks).unwrap_err(), seq_err);
        }
    }
}
