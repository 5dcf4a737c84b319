//! **byzscore** — Byzantine-tolerant collaborative scoring.
//!
//! Rust reproduction of *"Collaborative Scoring with Dishonest
//! Participants"* (Gilbert, Guerraoui, Malakouti Rad, Zadimoghaddam —
//! SPAA 2010): `n` players collectively evaluate `n` objects so that every
//! player ends up with an accurate prediction of its own preference for
//! every object, probing only `O(B·polylog n)` objects each — and the
//! guarantee survives up to `n/(3B)` colluding Byzantine players.
//!
//! # The protocol (Figure 2)
//!
//! For each guessed diameter `D = 2^d`:
//!
//! 1. **Sample** (`sampling`): publish a shared random object sample `S`,
//!    each object kept with probability `Θ(log n)/D` — big enough that
//!    cluster structure survives on `S` (Lemma 6), small enough to be cheap.
//! 2. **Probe the sample** (`byzscore_blocks::small_radius`): on `S`,
//!    diameter-`D` clusters shrink to diameter `O(log n)`, so `SmallRadius`
//!    recovers every player's sample preferences `z(p)` (Lemma 7).
//! 3. **Cluster** (`cluster`): connect players with `|z(p) − z(q)|` below
//!    the edge threshold, then greedily peel clusters of size ≥ `n/B`
//!    (Lemmas 8–9).
//! 4. **Share the work** (`share`): within each cluster, every object is
//!    probed by `Θ(log n)` randomly chosen members and the majority wins —
//!    redundancy is what neutralizes the Byzantine members (Lemma 13).
//!
//! A final `RSelect` picks each player's best candidate across the diameter
//! guesses (Lemma 12 / Theorem 14).
//!
//! Dishonest players cannot be allowed to bias the shared randomness, so
//! the robust wrapper ([`robust_calculate_preferences`]) elects a leader
//! per repetition with Feige's lightest-bin protocol (§7.1,
//! `byzscore-election`), runs the whole pipeline once per beacon, and lets
//! `RSelect` discard the repetitions whose leader was dishonest.
//!
//! # Quick start
//!
//! ```
//! use byzscore::{Algorithm, ProtocolParams, Session};
//! use byzscore_model::{Balance, Workload};
//!
//! // 64 players, 256 objects, 4 planted taste clusters of diameter 4.
//! let instance = Workload::PlantedClusters {
//!     players: 64, objects: 256, clusters: 4, diameter: 4,
//!     balance: Balance::Even,
//! }
//! .generate(7);
//!
//! let session = Session::builder()
//!     .instance(&instance)
//!     .params(ProtocolParams::with_budget(8))
//!     .build();
//! let outcome = session.run(Algorithm::CalculatePreferences, 42);
//!
//! // Every honest player's prediction error is O(D).
//! assert!(outcome.errors.max <= 5 * 4);
//! ```
//!
//! A [`Session`] owns its substrate behind the `TruthSource` trait: dense
//! matrices for simulation sizes, or the `O(1)`-memory procedural backend
//! (`Session::builder().procedural(spec)`) for `n ≥ 10⁵` worlds. Sweeps of
//! independent `(algorithm, seed)` points run in parallel with
//! [`Session::run_sweep`]. Byzantine runs plug in a corruption model and
//! strategy from `byzscore-adversary`; see `examples/sybil_attack.rs`.
//!
//! Beyond the paper's static model, the [`dynamic`] module runs *sequences*
//! of executions over worlds that change between rounds — drifting truth
//! ([`DriftingTruth`]), population churn ([`ChurnSchedule`]), and
//! adversaries that re-target after observing each round
//! (`byzscore_adversary::AdaptiveCorruption`) — and [`graded`] extends the
//! plane to multi-bit scores, drifting or not.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod cluster;
pub mod dynamic;
mod fused;
pub mod graded;
mod params;
mod protocol;
mod robust;
mod runner;
pub mod sampling;
pub mod share;

pub use byzscore_board::{
    ClusterSpec, DenseTruth, DriftLocality, DriftSchedule, DriftingTruth, ProceduralTruth,
    RemappedTruth, TruthSource,
};
pub use cluster::WarmStart;
pub use cluster::{cluster_players_with, Clustering, GroupCache, NeighborIndex, NeighborStrategy};
pub use dynamic::{
    churn_counts, churn_step, compose_world, remap_planted, ChurnSchedule, DynamicOutcome,
    DynamicWorld, DynamicWorldBuilder, RoundReport,
};
pub use params::ProtocolParams;
pub use protocol::calculate_preferences;
pub use robust::robust_calculate_preferences;
pub use runner::{Algorithm, BuildError, Outcome, OutputSink, Session, SessionBuilder, SweepPoint};
