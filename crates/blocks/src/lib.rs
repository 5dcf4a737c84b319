//! The building-block protocols of **Figure 1**: `RSelect`, `Select`,
//! `ZeroRadius`, and `SmallRadius` (from Alon–Awerbuch–Azar–Patt-Shamir
//! \[2,3\] and Awerbuch et al. \[4\], as restated by the paper in §5).
//!
//! Everything here is expressed against the execution substrate of
//! `byzscore-board` (oracle + bulletin-board meter), the shared-randomness
//! [`Beacon`](byzscore_random::Beacon), and the adversary table of
//! `byzscore-adversary`: the same implementations serve both the honest
//! analysis (§6) and the Byzantine analysis (§7), exactly as in the paper
//! ("they need little modification to tolerate dishonest players").
//!
//! # The blocks
//!
//! * [`rselect`] — Theorem 3: pairwise-elimination tournament over candidate
//!   vectors; returns a candidate within `O(1)` of the best one using
//!   `O(k² log n)` probes.
//! * [`select_among`] — the paper's `Select`, whose pseudocode Figure 1
//!   omits ("a deterministic version of RSelect"). We reconstruct it as a
//!   *batched score-and-eliminate* tournament with `O(k log n)` probes
//!   (linear in the candidate count, which Theorem 5's probe bound
//!   requires); see DESIGN.md §4.2 for the reconstruction rationale. It
//!   splits into a player-independent plan (deduped candidates, one bit
//!   column per coordinate, the disputed coordinates) and a per-player
//!   pass that only probes and tallies, so `SmallRadius` builds one plan
//!   per candidate list and runs every player against it.
//! * [`zero_radius`] — Theorem 4: recursive halving of players and objects;
//!   exact recovery when `n/B'` clones exist, `O(B' log n)` probes.
//! * [`small_radius`] — Theorem 5: random object partition + `ZeroRadius`
//!   per part + `Select` stitching, for clusters of diameter ≤ `D`.
//!
//! # Simulation notes (see DESIGN.md §4.1)
//!
//! The pseudocode is per-player, but all players share the beacon-derived
//! partitions, so we execute each recursion *once* over (player-set,
//! object-set) nodes and account probes per player through the oracle —
//! semantically identical and far cheaper to simulate. The same holds
//! inside `Select`: only probes and their tallies are per player, and
//! protocol code learns the truth only through `Oracle::probe` (no plan
//! precomputes agreement). Dishonest players' posts are routed through
//! the adversary's [`Behaviors`](byzscore_adversary::Behaviors) table at
//! every point where the protocol reads another player's claim.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ctx;
mod small_radius;
mod tournament;
mod votes;
mod zero_radius;

pub use ctx::{BlockParams, CandidateMeter, Ctx};
pub use small_radius::small_radius;
pub use tournament::{rselect, select_among, select_vector, StreamingRSelect};
pub use votes::{popular_vectors, VoteTally};
pub use zero_radius::zero_radius;
