//! Server-side counters: lock-free lifetime counts, gauges mirrored
//! from the op pipeline, and the admit→answer latency histogram behind
//! the `stats` frame and the `shutdown:` line.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::journal::JournaledEngine;
use crate::wire::StatsSnapshot;

/// Lock-free lifetime counters plus a log₂ latency histogram.
pub(super) struct StatsInner {
    pub(super) admitted: AtomicU64,
    pub(super) busy: AtomicU64,
    pub(super) malformed: AtomicU64,
    pub(super) completed: AtomicU64,
    pub(super) retryable: AtomicU64,
    /// Frames queued for a socket, and the `write` calls that carried
    /// them (one per flush of a connection's out-buffer).
    pub(super) frames_out: AtomicU64,
    pub(super) socket_writes: AtomicU64,
    // Mirrors of the op pipeline's own counters, refreshed by the
    // dispatcher after every op so a stats frame never touches the
    // engine. `tail_len` and `open_sessions` are gauges.
    journaled: AtomicU64,
    deduped: AtomicU64,
    worker_panics: AtomicU64,
    rebuilds: AtomicU64,
    checkpoints: AtomicU64,
    truncated_ops: AtomicU64,
    tail_len: AtomicU64,
    open_sessions: AtomicU64,
    pub(super) depth: AtomicU64,
    depth_peak: AtomicU64,
    latency_us: [AtomicU64; 64],
}

impl StatsInner {
    pub(super) fn new() -> StatsInner {
        StatsInner {
            admitted: AtomicU64::new(0),
            busy: AtomicU64::new(0),
            malformed: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            retryable: AtomicU64::new(0),
            journaled: AtomicU64::new(0),
            deduped: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            rebuilds: AtomicU64::new(0),
            frames_out: AtomicU64::new(0),
            socket_writes: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            truncated_ops: AtomicU64::new(0),
            tail_len: AtomicU64::new(0),
            open_sessions: AtomicU64::new(0),
            depth: AtomicU64::new(0),
            depth_peak: AtomicU64::new(0),
            latency_us: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Count an admission — the op and its queue slot — *before* the
    /// `try_send` that makes it: the dispatcher may drain the job,
    /// answer it, and have the client's next `stats` frame served before
    /// the admitting thread runs another instruction, so counting after
    /// the send would race the gauge below zero and let a snapshot show
    /// `completed` ahead of `admitted`.
    pub(super) fn admit_enter(&self) {
        self.admitted.fetch_add(1, Ordering::Relaxed);
        let depth = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.depth_peak.fetch_max(depth, Ordering::Relaxed);
    }

    /// Undo [`StatsInner::admit_enter`] when admission failed.
    pub(super) fn admit_leave(&self) {
        self.admitted.fetch_sub(1, Ordering::Relaxed);
        self.depth.fetch_sub(1, Ordering::Relaxed);
    }

    pub(super) fn record_latency(&self, micros: u64) {
        let bucket = if micros == 0 {
            0
        } else {
            (64 - micros.leading_zeros() as usize).min(63)
        };
        self.latency_us[bucket].fetch_add(1, Ordering::Relaxed);
    }

    fn percentile(&self, counts: &[u64; 64], total: u64, numer: u64, denom: u64) -> u64 {
        if total == 0 {
            return 0;
        }
        let rank = (total * numer).div_ceil(denom).max(1);
        let mut seen = 0;
        for (bucket, &n) in counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if bucket == 0 { 0 } else { 1u64 << (bucket - 1) };
            }
        }
        1u64 << 62
    }

    /// Copy the pipeline's counters (the dispatcher calls this after
    /// each op, before the answer goes out, so a client that has its
    /// answer already sees the op in the stats). Only a barrier — or the
    /// rebuild it can force — changes the open-session count, so the
    /// scan behind that gauge is skipped for shardable ops.
    pub(super) fn mirror(&self, pipeline: &JournaledEngine, barrier: bool) {
        let put = |cell: &AtomicU64, value: u64| cell.store(value, Ordering::Relaxed);
        put(&self.journaled, pipeline.journaled());
        put(&self.deduped, pipeline.deduped());
        put(&self.worker_panics, pipeline.worker_panics());
        put(&self.rebuilds, pipeline.rebuilds());
        put(&self.checkpoints, pipeline.checkpoints());
        put(&self.truncated_ops, pipeline.truncated_ops());
        put(&self.tail_len, pipeline.tail_ops());
        if barrier {
            put(
                &self.open_sessions,
                pipeline.engine().open_sessions() as u64,
            );
        }
    }

    pub(super) fn snapshot(&self) -> StatsSnapshot {
        let counts: [u64; 64] = std::array::from_fn(|i| self.latency_us[i].load(Ordering::Relaxed));
        let total: u64 = counts.iter().sum();
        StatsSnapshot {
            admitted: self.admitted.load(Ordering::Relaxed),
            busy_rejected: self.busy.load(Ordering::Relaxed),
            malformed: self.malformed.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            open_sessions: self.open_sessions.load(Ordering::Relaxed),
            queue_depth_peak: self.depth_peak.load(Ordering::Relaxed),
            p50_us: self.percentile(&counts, total, 1, 2),
            p99_us: self.percentile(&counts, total, 99, 100),
            queue_depth: self.depth.load(Ordering::Relaxed),
            retryable: self.retryable.load(Ordering::Relaxed),
            journaled: self.journaled.load(Ordering::Relaxed),
            deduped: self.deduped.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            rebuilds: self.rebuilds.load(Ordering::Relaxed),
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            truncated_ops: self.truncated_ops.load(Ordering::Relaxed),
            tail_len: self.tail_len.load(Ordering::Relaxed),
            frames_out: self.frames_out.load(Ordering::Relaxed),
            socket_writes: self.socket_writes.load(Ordering::Relaxed),
        }
    }
}
