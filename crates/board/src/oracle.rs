//! The probe oracle: metered access to hidden preferences.

use std::cell::Cell;
use std::sync::Arc;

use crate::{IntoTruthSource, LedgerSnapshot, ProbeLedger, TruthSource};

/// Memoization bitmap cap: above this many `players × objects` bits the
/// dense "seen" bitmap would itself become the memory wall the streaming
/// truth backends exist to avoid, so [`Oracle::new`] degrades to raw
/// per-call accounting (2²⁸ bits = 32 MB).
pub const MEMO_LIMIT_BITS: usize = 1 << 28;

/// The only sanctioned path from protocol code to the hidden truth.
///
/// "Every time a player probes an object, it learns its preference for that
/// object" (§2). Each call to [`Oracle::probe`] returns `v(player)[object]`
/// and charges the probe to `player` in the ledger. Protocol honesty about
/// budgets is then checkable after the fact: experiments assert
/// `ledger.max() ≤ c · B · polylog(n)`.
///
/// The oracle *owns* its [`TruthSource`] (shared via `Arc`), so it carries
/// no borrow of the instance: substrates plug in behind the trait —
/// [`crate::DenseTruth`] for materialized matrices,
/// [`crate::ProceduralTruth`] for `O(1)`-memory planted-cluster worlds.
///
/// # Memoization
///
/// By default the oracle is *memoized*: a player re-probing an object it
/// has already evaluated is not charged again — players remember their own
/// opinions, so only *first* evaluations cost anything. This matches what a
/// real deployment pays (a reviewer reads each paper at most once) and only
/// tightens the paper's upper bounds, which are proved without dedup.
/// The memo bitmap is dense (`players × objects` bits); beyond
/// 2²⁸ bits [`Oracle::new`] automatically falls back to uncached
/// accounting so giant streaming worlds stay `O(n)`-memory.
/// [`Oracle::new_uncached`] forces raw per-call accounting for analyses
/// that want the paper's literal counting.
///
/// # One run, one thread
///
/// The ledger and the memo are plain cells: a run executes on the thread
/// that entered it, so an oracle may move to another thread but cannot be
/// shared between threads. This does not compile:
///
/// ```compile_fail,E0277
/// use byzscore_bitset::BitMatrix;
/// use byzscore_board::Oracle;
///
/// let truth = BitMatrix::zeros(2, 2);
/// let oracle = Oracle::new(&truth);
/// std::thread::scope(|s| {
///     s.spawn(|| oracle.probe(0, 0));
///     oracle.probe(1, 1);
/// });
/// ```
pub struct Oracle {
    truth: Arc<dyn TruthSource>,
    ledger: ProbeLedger,
    /// One bit per (player, object): probed before? `None` = uncached mode.
    seen: Option<Vec<Cell<u64>>>,
    cols: usize,
}

impl Oracle {
    /// Memoized oracle over `truth` with a fresh ledger (the default; falls
    /// back to uncached accounting past the memo bitmap cap, see type docs).
    pub fn new(truth: impl IntoTruthSource) -> Self {
        let truth = truth.into_truth_source();
        let bits = truth.players() * truth.objects();
        let seen = (bits <= MEMO_LIMIT_BITS).then(|| vec![Cell::new(0); bits.div_ceil(64)]);
        Oracle {
            ledger: ProbeLedger::new(truth.players()),
            seen,
            cols: truth.objects(),
            truth,
        }
    }

    /// Oracle charging every probe call, including repeats (the paper's
    /// literal accounting).
    pub fn new_uncached(truth: impl IntoTruthSource) -> Self {
        let truth = truth.into_truth_source();
        Oracle {
            ledger: ProbeLedger::new(truth.players()),
            seen: None,
            cols: truth.objects(),
            truth,
        }
    }

    /// Number of players.
    pub fn players(&self) -> usize {
        self.truth.players()
    }

    /// Number of objects.
    pub fn objects(&self) -> usize {
        self.truth.objects()
    }

    /// The underlying truth source (for *metrics*, never for protocol code —
    /// reading it does not charge the ledger).
    pub fn truth(&self) -> &Arc<dyn TruthSource> {
        &self.truth
    }

    /// Player `player` probes `object`, learning its own true preference.
    /// Charged to the ledger (first evaluation only, in memoized mode).
    ///
    /// In memoized mode a repeat (most calls in a protocol run) is one
    /// load of the seen word and no store; the bit is set only on a first
    /// evaluation.
    #[inline]
    pub fn probe(&self, player: u32, object: u32) -> bool {
        let charge = match &self.seen {
            None => true,
            Some(seen) => {
                let bit = player as usize * self.cols + object as usize;
                let mask = 1u64 << (bit % 64);
                let word = &seen[bit / 64];
                let bits = word.get();
                let first = bits & mask == 0;
                if first {
                    word.set(bits | mask);
                }
                first
            }
        };
        if charge {
            self.ledger.record(player);
        }
        self.truth.value(player, object)
    }

    /// Probe accounting.
    pub fn ledger(&self) -> &ProbeLedger {
        &self.ledger
    }

    /// Convenience: snapshot of the ledger.
    pub fn snapshot(&self) -> LedgerSnapshot {
        self.ledger.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byzscore_bitset::{BitMatrix, BitVec};

    #[test]
    fn probe_returns_truth_and_counts() {
        let truth = BitMatrix::from_rows(&[
            BitVec::from_bools(&[true, false]),
            BitVec::from_bools(&[false, true]),
        ]);
        let o = Oracle::new(&truth);
        assert!(o.probe(0, 0));
        assert!(!o.probe(0, 1));
        assert!(!o.probe(1, 0));
        assert!(o.probe(1, 1));
        assert_eq!(o.ledger().count(0), 2);
        assert_eq!(o.ledger().count(1), 2);
        assert_eq!(o.players(), 2);
        assert_eq!(o.objects(), 2);
    }

    #[test]
    fn memoized_probes_charge_once() {
        let truth = BitMatrix::zeros(2, 3);
        let o = Oracle::new(&truth);
        for _ in 0..10 {
            assert!(!o.probe(0, 1));
        }
        assert_eq!(o.ledger().count(0), 1, "repeat evaluations are free");
        // Distinct objects still charge.
        o.probe(0, 0);
        o.probe(0, 2);
        assert_eq!(o.ledger().count(0), 3);
        // Other players are independent.
        o.probe(1, 1);
        assert_eq!(o.ledger().count(1), 1);
    }

    #[test]
    fn uncached_probes_keep_charging() {
        let truth = BitMatrix::zeros(1, 1);
        let o = Oracle::new_uncached(&truth);
        for _ in 0..10 {
            assert!(!o.probe(0, 0));
        }
        assert_eq!(o.ledger().count(0), 10);
    }

    #[test]
    fn procedural_backend_probes_without_matrix() {
        let spec = crate::ClusterSpec {
            players: 16,
            objects: 32,
            clusters: 2,
            diameter: 4,
            seed: 5,
        };
        let dense = Oracle::new(spec.materialize());
        let streaming = Oracle::new(crate::ProceduralTruth::new(spec));
        for p in 0..16u32 {
            for o in 0..32u32 {
                assert_eq!(dense.probe(p, o), streaming.probe(p, o), "({p},{o})");
            }
        }
        assert_eq!(dense.snapshot(), streaming.snapshot());
    }

    #[test]
    fn memoized_concurrent_charging_is_exact() {
        // Four players each sweep the same 256 objects three times,
        // interleaved probe by probe as one synchronous phase issues them.
        let truth = BitMatrix::zeros(4, 256);
        let o = Oracle::new(&truth);
        for _rep in 0..3 {
            for obj in 0..256u32 {
                for t in 0..4u32 {
                    o.probe(t, obj);
                }
            }
        }
        // Each player touched 256 distinct objects, three times each: a
        // repeat probe is not charged.
        for p in 0..4 {
            assert_eq!(o.ledger().count(p), 256);
        }
    }
}
