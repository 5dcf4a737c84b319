//! Deterministic randomness for protocol simulation.
//!
//! `CalculatePreferences` (paper §7.1) depends on *shared* random choices —
//! the sample set `S`, the `ZeroRadius` partitions, and the probe
//! assignments of step (1.e) must be identical at every honest player. The
//! paper realizes this with an elected leader who publishes random bits to
//! the bulletin board. This crate models those published bits as a
//! [`Beacon`]: a seed plus a *provenance* flag (honest leaders publish
//! uniform bits; dishonest leaders publish bits of their choosing), from
//! which any number of independent, purpose-tagged sub-streams are derived
//! via [`Beacon::sub_rng`].
//!
//! Tagged derivation gives two properties the simulation needs:
//!
//! 1. **Agreement** — every honest player derives exactly the same choices
//!    from the same beacon, with no cross-thread coordination.
//! 2. **Reproducibility** — a whole experiment is a pure function of its
//!    master seed, regardless of thread count or execution order.
//!
//! The crate also provides the sampling primitives the protocol text uses:
//! Bernoulli subsets (`S`), exact-`k` subsets (Floyd), random halvings
//! (`ZeroRadius` step 2), and `s`-way partitions (`SmallRadius` step 1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod beacon;
mod sampling;
mod splitmix;

pub use beacon::{tags, Beacon, Provenance};
pub use sampling::{bernoulli_subset, choose_k, choose_k_bits, halve, partition_into, shuffled};
pub use splitmix::{derive_seed, derive_step, SplitMix64};
