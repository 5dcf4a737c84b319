//! Deterministic fault plans for chaos testing the service plane.
//!
//! A [`FaultPlan`] is a parsed schedule of injection points, each keyed
//! to a 0-based *op index* maintained by the component that hosts the
//! hook (the op pipeline's `submit` counter — one per dispatched op —
//! and the admission counter for connection-level faults). Every slot fires exactly once; with a
//! single client connection the op indices are the trace indices, so a
//! fault schedule is as reproducible as the trace itself.
//!
//! Every build compiles the hooks in `journal.rs` and `net/server.rs`;
//! under the default empty plan ([`FaultPlan::none`]) none of them fires.
//!
//! # Spec grammar
//!
//! Comma-separated `kind@index` slots:
//!
//! ```text
//! kill@7                abort the process before dispatching op 7
//! panic-worker@9        panic op 9, a probe or query, after its journal
//!                       append and before it executes
//! panic-barrier@4       panic inside op 4's barrier, after its journal
//!                       append (forces a rebuild from the journal)
//! drop-conn@5           sever op 5's client connection at dispatch
//! stall@3:600           sleep 600 ms in the connection thread before
//!                       admitting op 3 (a wedged-server simulation)
//! kill@checkpoint       abort right after the first compaction cycle
//!                       completes (kill@checkpoint:N for cycle N)
//! torn-checkpoint@1     write compaction cycle 1's checkpoint torn
//!                       (footer missing) and abort before the journal
//!                       is truncated — the tear the footer exists for
//! ```
//!
//! Checkpoint faults are keyed by the 0-based *compaction-cycle index*
//! rather than an op index.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// One kind of injected fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FaultKind {
    /// Abort the process (the in-process stand-in for `kill -9`).
    Kill,
    /// Panic a probe or query before it executes.
    PanicWorker,
    /// Panic a barrier op after its journal append.
    PanicBarrier,
    /// Sever the op's client connection (the op still executes).
    DropConn,
    /// Stall the connection thread for this long before admission.
    Stall(Duration),
    /// Abort right after a compaction cycle completes (checkpoint
    /// written, journal truncated) — keyed by cycle index.
    KillCheckpoint,
    /// Install a torn checkpoint (no footer) and abort before the
    /// journal is truncated — keyed by cycle index.
    TornCheckpoint,
}

#[derive(Debug)]
struct FaultSlot {
    at: u64,
    kind: FaultKind,
    fired: AtomicBool,
}

/// A fire-once schedule of injected faults, keyed by op index.
#[derive(Debug, Default)]
pub struct FaultPlan {
    slots: Vec<FaultSlot>,
}

impl FaultPlan {
    /// The empty plan: every hook is a no-op.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Parse the `kind@index[,kind@index...]` spec grammar; an empty
    /// string is the empty plan.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut slots = Vec::new();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (kind_tok, at_tok) = part
                .split_once('@')
                .ok_or_else(|| format!("fault slot {part:?} needs kind@index"))?;
            let parse_at = |tok: &str| {
                tok.parse::<u64>()
                    .map_err(|_| format!("bad op index in fault slot {part:?}"))
            };
            let (at, kind) = match kind_tok {
                "kill" if at_tok == "checkpoint" => (0, FaultKind::KillCheckpoint),
                "kill" if at_tok.starts_with("checkpoint:") => {
                    let cycle_tok = &at_tok["checkpoint:".len()..];
                    (parse_at(cycle_tok)?, FaultKind::KillCheckpoint)
                }
                "kill" => (parse_at(at_tok)?, FaultKind::Kill),
                "torn-checkpoint" => (parse_at(at_tok)?, FaultKind::TornCheckpoint),
                "panic-worker" => (parse_at(at_tok)?, FaultKind::PanicWorker),
                "panic-barrier" => (parse_at(at_tok)?, FaultKind::PanicBarrier),
                "drop-conn" => (parse_at(at_tok)?, FaultKind::DropConn),
                "stall" => {
                    let (at_tok, ms_tok) = at_tok
                        .split_once(':')
                        .ok_or_else(|| format!("stall slot {part:?} needs stall@index:ms"))?;
                    let ms = ms_tok
                        .parse::<u64>()
                        .map_err(|_| format!("bad stall duration in {part:?}"))?;
                    (
                        parse_at(at_tok)?,
                        FaultKind::Stall(Duration::from_millis(ms)),
                    )
                }
                other => return Err(format!("unknown fault kind {other:?}")),
            };
            slots.push(FaultSlot {
                at,
                kind,
                fired: AtomicBool::new(false),
            });
        }
        Ok(FaultPlan { slots })
    }

    /// Fire-once check: the first matching unfired slot at `at` claims
    /// itself and returns its kind.
    fn fire(&self, at: u64, want: impl Fn(FaultKind) -> bool) -> Option<FaultKind> {
        for slot in &self.slots {
            if slot.at == at
                && want(slot.kind)
                && slot
                    .fired
                    .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
            {
                return Some(slot.kind);
            }
        }
        None
    }

    /// Abort the process if a `kill` slot is scheduled at `at`.
    pub fn kill_at(&self, at: u64) {
        if self.fire(at, |k| k == FaultKind::Kill).is_some() {
            eprintln!("fault-inject: kill at op {at}");
            std::process::abort();
        }
    }

    /// True when a probe or query panic is scheduled at `at` (claims the
    /// slot).
    pub fn worker_panic_at(&self, at: u64) -> bool {
        self.fire(at, |k| k == FaultKind::PanicWorker).is_some()
    }

    /// True when a barrier panic is scheduled at `at` (claims the slot).
    pub fn barrier_panic_at(&self, at: u64) -> bool {
        self.fire(at, |k| k == FaultKind::PanicBarrier).is_some()
    }

    /// True when the op's connection should be severed at `at`.
    pub fn drop_conn_at(&self, at: u64) -> bool {
        self.fire(at, |k| k == FaultKind::DropConn).is_some()
    }

    /// The stall to apply before admitting op `at`, if scheduled.
    pub fn stall_at(&self, at: u64) -> Option<Duration> {
        match self.fire(at, |k| matches!(k, FaultKind::Stall(_))) {
            Some(FaultKind::Stall(d)) => Some(d),
            _ => None,
        }
    }

    /// Abort the process if a `kill@checkpoint` slot is scheduled at
    /// compaction cycle `cycle` — called *after* the cycle completes,
    /// so recovery must come up from the fresh checkpoint plus an
    /// empty tail.
    pub fn kill_checkpoint_at(&self, cycle: u64) {
        if self
            .fire(cycle, |k| k == FaultKind::KillCheckpoint)
            .is_some()
        {
            eprintln!("fault-inject: kill after compaction cycle {cycle}");
            std::process::abort();
        }
    }

    /// True when compaction cycle `cycle` should install a torn
    /// checkpoint instead of a real one (claims the slot); the caller
    /// aborts before truncating the journal.
    pub fn torn_checkpoint_at(&self, cycle: u64) -> bool {
        self.fire(cycle, |k| k == FaultKind::TornCheckpoint)
            .is_some()
    }

    /// The first slot only the socket transport fires (`drop-conn`,
    /// `stall`), in spec syntax: stdin `scored serve` rejects such a plan.
    pub fn socket_only_slot(&self) -> Option<String> {
        self.slots.iter().find_map(|slot| match slot.kind {
            FaultKind::DropConn => Some(format!("drop-conn@{}", slot.at)),
            FaultKind::Stall(d) => Some(format!("stall@{}:{}", slot.at, d.as_millis())),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_kind_and_fires_once() {
        let plan =
            FaultPlan::parse("panic-worker@3, drop-conn@5,stall@7:250,panic-barrier@9").unwrap();
        assert!(!plan.worker_panic_at(2));
        assert!(plan.worker_panic_at(3));
        assert!(!plan.worker_panic_at(3), "slots fire once");
        assert!(plan.drop_conn_at(5));
        assert_eq!(plan.stall_at(7), Some(Duration::from_millis(250)));
        assert_eq!(plan.stall_at(7), None);
        assert!(plan.barrier_panic_at(9));
        assert!(!plan.drop_conn_at(9), "kinds do not cross-fire");
        let empty = FaultPlan::parse("").unwrap();
        assert!((0..10).all(|at| empty.fire(at, |_| true).is_none()));
    }

    #[test]
    fn checkpoint_faults_parse_and_key_on_cycle_index() {
        let plan = FaultPlan::parse("torn-checkpoint@1,kill@checkpoint:2").unwrap();
        assert!(!plan.torn_checkpoint_at(0));
        assert!(plan.torn_checkpoint_at(1));
        assert!(!plan.torn_checkpoint_at(1), "slots fire once");
        // kill@checkpoint:2 must not abort the test process at other
        // cycles; cycle 2 itself is exercised end-to-end in CI chaos.
        plan.kill_checkpoint_at(0);
        plan.kill_checkpoint_at(1);
        // Bare kill@checkpoint defaults to cycle 0: claim its slot through
        // `fire`, which does not abort.
        let bare = FaultPlan::parse("kill@checkpoint").unwrap();
        assert!(!bare.torn_checkpoint_at(0), "kinds do not cross-fire");
        assert_eq!(
            bare.fire(0, |k| k == FaultKind::KillCheckpoint),
            Some(FaultKind::KillCheckpoint)
        );
    }

    #[test]
    fn socket_only_slots_are_named_in_spec_syntax() {
        let plan = FaultPlan::parse("panic-worker@1,stall@3:600,drop-conn@5").unwrap();
        assert_eq!(plan.socket_only_slot().as_deref(), Some("stall@3:600"));
        let plan = FaultPlan::parse("kill@2, drop-conn@5").unwrap();
        assert_eq!(plan.socket_only_slot().as_deref(), Some("drop-conn@5"));
        for pipeline_only in [
            "",
            "kill@7,panic-barrier@4,torn-checkpoint@1,kill@checkpoint",
        ] {
            let plan = FaultPlan::parse(pipeline_only).unwrap();
            assert_eq!(plan.socket_only_slot(), None, "{pipeline_only:?}");
        }
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "kill",             // missing index
            "kill@x",           // bad index
            "stall@3",          // missing duration
            "stall@3:fast",     // bad duration
            "explode@1",        // unknown kind
            "panic-worker@3:4", // stray duration
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
