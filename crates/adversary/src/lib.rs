//! Corruption models and dishonest-player strategies.
//!
//! The paper's fault model (§2, §7): up to `n/(3B)` players "may ignore the
//! protocol, lying about \[their\] preferences and attempting to improperly
//! influence the output", possibly *colluding*. They cannot forge honest
//! players' bulletin-board entries (every tally takes one entry per author,
//! and the runtime supplies the author id), but everything they post
//! themselves is attacker-chosen.
//!
//! We implement the strongest admissible adversary: **omniscient** (reads
//! the whole hidden truth matrix and the set of corrupted players) and
//! **coordinated** (every strategy decides with the same omniscient view,
//! [`AdvCtx`], so colluders need no channel to agree). The paper's
//! guarantees must — and, per experiment E9, do — hold against it.
//!
//! * [`Corruption`] selects *which* players are dishonest (random fraction,
//!   exact count, targeted inside a planted cluster for hijack experiments,
//!   or an explicit precomputed mask).
//! * [`AdaptiveCorruption`] goes beyond the paper's static set: it observes
//!   completed repetitions ([`Observation`]: surviving group sizes, honest
//!   error scores) and re-targets its budget — e.g. onto the smallest
//!   surviving group — subject to an observation window; window 0 reduces
//!   exactly to the wrapped static model.
//! * [`Strategy`] decides *what* a dishonest player posts at each protocol
//!   phase; implementations range from control (behave honestly) through
//!   random lying to targeted cluster hijacking (the attack Lemma 13 is
//!   about).
//! * [`Behaviors`] bundles the mask and strategy behind the single call
//!   surface the protocol crates use.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adaptive;
mod behaviors;
mod corruption;
mod strategy;

pub use adaptive::{AdaptiveCorruption, AdaptivePolicy, Observation};
pub use behaviors::Behaviors;
pub use corruption::Corruption;
pub use strategy::{
    AdvCtx, AntiMajority, ClusterHijacker, Inverter, Phase, RandomLiar, Sleeper, Strategy, Truthful,
};
