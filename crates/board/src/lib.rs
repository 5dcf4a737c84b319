//! The execution substrate of the paper's model (§2): a probe oracle with
//! per-player metering, a bulletin board that meters communication, and the
//! phase helpers every "all players do X" step runs through.
//!
//! The paper's players proceed in synchronous rounds; in each round a player
//! may probe one object (learning its *own* preference for it) and may read
//! and write a public bulletin board. Dishonest players may write anything
//! into their own slots but **cannot modify data written by honest players**.
//!
//! This crate realizes that model in-process:
//!
//! * [`TruthSource`] — the pluggable hidden-preference substrate:
//!   [`DenseTruth`] owns a materialized matrix, [`ProceduralTruth`]
//!   regenerates planted-cluster bits on the fly from a [`ClusterSpec`] in
//!   `O(1)` memory per player (the `n ≥ 10⁵` backend). Dynamic worlds
//!   compose adapters over any base: [`DriftingTruth`] pins one epoch of a
//!   seeded preference-drift law (advance with [`DriftingTruth::at_epoch`]),
//!   and [`RemappedTruth`] views a pool source through a churn identity
//!   map — each snapshot stays immutable, so the purity contract (and every
//!   determinism test) survives time-varying scenarios.
//! * [`Oracle`] — the only path to the hidden truth; every probe is
//!   counted against the probing player in a [`ProbeLedger`].
//!   Probe complexity is the paper's sole cost measure, so the ledger is the
//!   measurement instrument for every experiment.
//! * [`Board`] — the bulletin board as a communication meter. Each step
//!   hands its outputs to the next in memory and posts only a count: one
//!   vector post per `(scope, author)`, one claim post per
//!   `(scope, object, author)`, kept as plain per-scope counts beside the
//!   [`BoardStats`] totals. Scopes opened with [`Board::scope`] are
//!   *retired* by path prefix when their step completes, so the live
//!   counts track the current step's working set and the stats keep the
//!   peak.
//! * [`par`] — [`par::par_map_coarse`], the workspace's one compute fork
//!   (whole runs and sweep points, under one thread budget) with
//!   index-ordered results: speed without giving up reproducibility.
//!
//! A run executes on the thread that entered it, so the oracle's ledger
//! and memo and the board are single-thread cells: they move between
//! threads with their run but cannot be shared by two.
//!
//! Synchrony is modeled at *phase* granularity rather than per-probe
//! lockstep: every protocol step of Figures 1–2 is a bulk "all players do X,
//! then all read the results" phase, which is exactly how the paper's
//! algorithms consume the round structure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bulletin;
mod drift;
mod ledger;
mod oracle;
pub mod par;
mod truth;

pub use bulletin::{scope_id, Board, BoardStats, ScopeHandle};
pub use drift::{DriftLocality, DriftSchedule, DriftingTruth};
pub use ledger::{LedgerSnapshot, ProbeLedger};
pub use oracle::{Oracle, MEMO_LIMIT_BITS};
pub use truth::{
    ClusterSpec, DenseTruth, IntoTruthSource, ProceduralTruth, RemappedTruth, TruthSource,
};
