//! Process-global hot-path probes for the lexing layer.
//!
//! These are *throughput* counters, not per-request metrics: plain
//! relaxed `AtomicU64` statics, incremented by the scan drivers and the
//! certifier, readable at any time via [`snapshot`]. They are
//! process-wide (all lexers and engines in the process share them) and
//! monotone — the interesting quantities are deltas between snapshots.
//!
//! Cost discipline: the per-byte scanner loop is never touched. Scan
//! drivers accumulate into a stack-local tally (the crate-private
//! `ScanTally`) and flush it to
//! the statics once per driver call (or iterator drop), so the probe
//! cost is a handful of `fetch_add`s per *lex run*, not per byte or per
//! token. The certifier does the same with its re-match counts: the
//! crate-private `CertTally` inside each `LexCertifier` flushes them
//! once, when the certifier is dropped.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::driver::{Scan, ScanStop};

pub(crate) static SCAN_BYTES: AtomicU64 = AtomicU64::new(0);
pub(crate) static FAST_LANE_TOKENS: AtomicU64 = AtomicU64::new(0);
pub(crate) static FALLBACK_TOKENS: AtomicU64 = AtomicU64::new(0);
pub(crate) static BACKTRACKS: AtomicU64 = AtomicU64::new(0);
pub(crate) static VERDICT_HITS: AtomicU64 = AtomicU64::new(0);
pub(crate) static VERDICT_MISSES: AtomicU64 = AtomicU64::new(0);

/// A point-in-time snapshot of the process-wide lexing probes (see the
/// module docs for what is and is not counted).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LexProbes {
    /// Bytes read by the byte-sliced scanner, lookahead included
    /// (re-scans of a pending token count each time — this measures
    /// scan *work*, not input size).
    pub scan_bytes: u64,
    /// Lexemes whose scan stayed entirely in the ASCII fast lane.
    pub fast_lane_tokens: u64,
    /// Lexemes whose scan dropped to the char-level fallback at least
    /// once (non-ASCII input).
    pub fallback_tokens: u64,
    /// Maximal-munch backtracks: scans (or push-mode munches) that
    /// consumed lookahead past the token boundary they settled on.
    pub backtracks: u64,
    /// Certifier re-matches that ran only on memoized derivative
    /// transitions. (The name predates the derivative-only certifier
    /// and is kept for the benchmark and exporters that read it.)
    pub verdict_cache_hits: u64,
    /// Certifier re-matches that derived at least one new derivative
    /// transition.
    pub verdict_cache_misses: u64,
}

/// Reads all lexing probes (relaxed; counters are individually exact,
/// mutually unsynchronized).
pub fn snapshot() -> LexProbes {
    LexProbes {
        scan_bytes: SCAN_BYTES.load(Ordering::Relaxed),
        fast_lane_tokens: FAST_LANE_TOKENS.load(Ordering::Relaxed),
        fallback_tokens: FALLBACK_TOKENS.load(Ordering::Relaxed),
        backtracks: BACKTRACKS.load(Ordering::Relaxed),
        verdict_cache_hits: VERDICT_HITS.load(Ordering::Relaxed),
        verdict_cache_misses: VERDICT_MISSES.load(Ordering::Relaxed),
    }
}

/// A stack-local accumulator the scan drivers batch probe updates in;
/// flushed to the global statics on drop, so every driver exit path
/// (including `?`) publishes exactly once.
#[derive(Debug, Default)]
pub(crate) struct ScanTally {
    bytes: u64,
    fast: u64,
    fallback: u64,
    backtracks: u64,
}

impl ScanTally {
    /// Accounts the bytes one `scan_token` read, starting at byte
    /// `start` of an `input_len`-byte input.
    #[inline]
    pub(crate) fn scan(&mut self, scan: &Scan, start: usize, input_len: usize) {
        self.bytes += (Self::stop_pos(scan, input_len) - start) as u64;
    }

    /// Accounts one token *settled* at the scan's last accept — called
    /// only by drivers that actually cut there (push-mode scans that
    /// stop at end-of-input leave the munch pending and must not call
    /// this).
    #[inline]
    pub(crate) fn settled(&mut self, scan: &Scan, input_len: usize) {
        if scan.fell_back {
            self.fallback += 1;
        } else {
            self.fast += 1;
        }
        if let Some((_, end)) = scan.last {
            if Self::stop_pos(scan, input_len) > end {
                self.backtracks += 1;
            }
        }
    }

    #[inline]
    fn stop_pos(scan: &Scan, input_len: usize) -> usize {
        match scan.stop {
            ScanStop::Dead(d) => d,
            ScanStop::EndOfInput => input_len,
        }
    }
}

impl Drop for ScanTally {
    fn drop(&mut self) {
        if self.bytes > 0 {
            SCAN_BYTES.fetch_add(self.bytes, Ordering::Relaxed);
        }
        if self.fast > 0 {
            FAST_LANE_TOKENS.fetch_add(self.fast, Ordering::Relaxed);
        }
        if self.fallback > 0 {
            FALLBACK_TOKENS.fetch_add(self.fallback, Ordering::Relaxed);
        }
        if self.backtracks > 0 {
            BACKTRACKS.fetch_add(self.backtracks, Ordering::Relaxed);
        }
    }
}

/// The certifier's re-match counts, flushed to the global statics
/// when dropped. A clone starts from zero, so a cloned certifier never
/// publishes its parent's counts a second time.
#[derive(Debug, Default)]
pub(crate) struct CertTally {
    pub(crate) hits: u64,
    pub(crate) misses: u64,
}

impl CertTally {
    /// Accounts one re-match; `derived` says whether it computed a new
    /// derivative transition.
    #[inline]
    pub(crate) fn rematch(&mut self, derived: bool) {
        if derived {
            self.misses += 1;
        } else {
            self.hits += 1;
        }
    }
}

impl Clone for CertTally {
    fn clone(&self) -> CertTally {
        CertTally::default()
    }
}

impl Drop for CertTally {
    fn drop(&mut self) {
        if self.hits > 0 {
            VERDICT_HITS.fetch_add(self.hits, Ordering::Relaxed);
        }
        if self.misses > 0 {
            VERDICT_MISSES.fetch_add(self.misses, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::ScanStop;

    #[test]
    fn tally_classifies_scans() {
        let before = snapshot();
        {
            let mut t = ScanTally::default();
            // Clean fast-lane token: accepted at 4, died at 4.
            let clean = Scan {
                last: Some((0, 4)),
                stop: ScanStop::Dead(4),
                fell_back: false,
            };
            t.scan(&clean, 0, 10);
            t.settled(&clean, 10);
            // Backtracking fallback token: accepted at 6, died at 9.
            let overrun = Scan {
                last: Some((1, 6)),
                stop: ScanStop::Dead(9),
                fell_back: true,
            };
            t.scan(&overrun, 4, 10);
            t.settled(&overrun, 10);
            // Pending tail: no accept yet, ran out of input — bytes
            // only, no token.
            t.scan(
                &Scan {
                    last: None,
                    stop: ScanStop::EndOfInput,
                    fell_back: false,
                },
                6,
                10,
            );
        }
        let after = snapshot();
        assert_eq!(after.scan_bytes - before.scan_bytes, 4 + 5 + 4);
        assert_eq!(after.fast_lane_tokens - before.fast_lane_tokens, 1);
        assert_eq!(after.fallback_tokens - before.fallback_tokens, 1);
        assert_eq!(after.backtracks - before.backtracks, 1);
    }
}
