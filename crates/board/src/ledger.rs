//! Per-player probe accounting.

use std::cell::Cell;

/// Per-player probe counters for one run.
///
/// The paper's budget statements ("each player makes `O(B log^{O(1)} n)`
/// probes, whp" — Lemmas 10–11) are *per-player maxima*, so the ledger keeps
/// one counter per player; totals and maxima are computed on demand from
/// snapshots. A run executes on the thread that entered it, so the counters
/// are plain cells: the ledger (and the [`crate::Oracle`] that owns it) can
/// move between threads but not be shared by them.
pub struct ProbeLedger {
    counts: Vec<Cell<u64>>,
}

/// Point-in-time copy of all counters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LedgerSnapshot {
    counts: Vec<u64>,
}

impl ProbeLedger {
    /// Ledger for `players` players, all counters zero.
    pub fn new(players: usize) -> Self {
        ProbeLedger {
            counts: vec![Cell::new(0); players],
        }
    }

    /// Number of players tracked.
    pub fn players(&self) -> usize {
        self.counts.len()
    }

    /// Record one probe by `player`.
    #[inline]
    pub fn record(&self, player: u32) {
        let count = &self.counts[player as usize];
        count.set(count.get() + 1);
    }

    /// Current count for `player`.
    pub fn count(&self, player: u32) -> u64 {
        self.counts[player as usize].get()
    }

    /// Largest per-player count — the quantity the paper's probe bounds
    /// constrain.
    pub fn max(&self) -> u64 {
        self.counts.iter().map(Cell::get).max().unwrap_or(0)
    }

    /// Total probes across all players.
    pub fn total(&self) -> u64 {
        self.counts.iter().map(Cell::get).sum()
    }

    /// Copy all counters.
    pub fn snapshot(&self) -> LedgerSnapshot {
        LedgerSnapshot {
            counts: self.counts.iter().map(Cell::get).collect(),
        }
    }
}

impl LedgerSnapshot {
    /// Per-player counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Largest per-player count.
    pub fn max(&self) -> u64 {
        self.counts.iter().copied().max().unwrap_or(0)
    }

    /// Total probes.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Per-player difference `self − earlier` (counts are monotone, so this
    /// measures the probes spent between the two snapshots).
    pub fn since(&self, earlier: &LedgerSnapshot) -> LedgerSnapshot {
        assert_eq!(self.counts.len(), earlier.counts.len());
        LedgerSnapshot {
            counts: self
                .counts
                .iter()
                .zip(&earlier.counts)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }

    /// Max count over a masked subset of players (e.g. honest players only).
    pub fn max_where(&self, include: &[bool]) -> u64 {
        assert_eq!(self.counts.len(), include.len());
        self.counts
            .iter()
            .zip(include)
            .filter(|(_, &inc)| inc)
            .map(|(&c, _)| c)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_read() {
        let l = ProbeLedger::new(3);
        l.record(0);
        l.record(0);
        l.record(2);
        assert_eq!(l.count(0), 2);
        assert_eq!(l.count(1), 0);
        assert_eq!(l.count(2), 1);
        assert_eq!(l.max(), 2);
        assert_eq!(l.total(), 3);
        assert_eq!(l.players(), 3);
    }

    #[test]
    fn snapshot_since() {
        let l = ProbeLedger::new(2);
        l.record(0);
        let s1 = l.snapshot();
        l.record(0);
        l.record(1);
        let s2 = l.snapshot();
        let d = s2.since(&s1);
        assert_eq!(d.counts(), &[1, 1]);
        assert_eq!(d.total(), 2);
        assert_eq!(d.max(), 1);
    }

    #[test]
    fn max_where_masks() {
        let l = ProbeLedger::new(3);
        for _ in 0..5 {
            l.record(1);
        }
        l.record(0);
        let s = l.snapshot();
        assert_eq!(s.max_where(&[true, false, true]), 1);
        assert_eq!(s.max_where(&[true, true, true]), 5);
        assert_eq!(s.max_where(&[false, false, false]), 0);
    }

    #[test]
    fn concurrent_recording() {
        // Four players probing in the same rounds, interleaved as one
        // synchronous phase records them.
        let l = ProbeLedger::new(4);
        for _ in 0..1000 {
            for t in 0..4u32 {
                l.record(t);
            }
        }
        assert_eq!(l.total(), 4000);
        assert_eq!(l.max(), 1000);
    }
}
