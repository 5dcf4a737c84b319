//! Time-varying truth: the [`DriftingTruth`] backend.
//!
//! The paper proves its guarantees against a *fixed* hidden matrix, but
//! real scoring populations are not static: tastes shift between protocol
//! executions, and trust-score literature (Ignat et al.) observes that
//! participant behaviour co-evolves with the scoring itself. The
//! [`crate::TruthSource`] contract deliberately pins one *immutable* world
//! per source, so time is modeled **across** sources, not inside one:
//! a [`DriftingTruth`] is an immutable snapshot of the world *at one
//! epoch*, and advancing time ([`DriftingTruth::at_epoch`] /
//! [`DriftingTruth::advance`]) yields a fresh source sharing the same base
//! substrate. Protocol code, oracles, and memoization never observe a bit
//! change mid-run — exactly the purity every determinism test relies on.
//!
//! The drift itself is a seeded pure function: at each epoch `e ≥ 1`,
//! every `(player, object)` bit inside the schedule's locality flips
//! independently with probability `rate` (a fixed-point threshold, so the
//! decision is integer-exact and host-independent). The value at epoch `t`
//! is the base value XOR the parity of the flip decisions over epochs
//! `1..=t` — hence [`DriftingTruth::materialize_at`] has one canonical
//! dense twin that `tests/dynamic_world.rs` replays bit for bit.
//!
//! A holder of a *mutable* dense world ages it with
//! [`DriftSchedule::fold_epoch`] instead: one epoch's flips per call, so
//! each bit pays one hash step per epoch once, rather than a replay of
//! every past epoch on every read. Every run path takes this one: core's
//! `ResidentPool` (dynamic worlds and the service engine's sessions) and
//! graded drift's bit planes; a [`DriftingTruth`] is the reference they
//! are tested against.

use std::sync::Arc;

use byzscore_bitset::{BitMatrix, BitVec, Bits};
use byzscore_random::{derive_seed, derive_step};

use crate::truth::{IntoTruthSource, TruthSource};

/// Seed-derivation tag of the drift formula (distinct from the
/// `ClusterSpec` tags; drift and base truth may even share a master seed).
const TAG_DRIFT: u64 = 0xd21f;

/// Fixed-point denominator of the drift rate: flip decisions compare a
/// 32-bit hash slice against `threshold = rate · 2³²`, so equality of two
/// schedules is exact and no float crosses a host boundary.
const RATE_ONE: u64 = 1 << 32;

/// Which objects a drift schedule is allowed to touch.
///
/// Preference drift is rarely uniform: a news cycle moves opinions on one
/// topical slice while the back catalogue stays put. Locality confines the
/// per-epoch flips to a sub-mask of the object axis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DriftLocality {
    /// Every object may drift.
    Global,
    /// Only objects in `start..start + len` may drift (clamped to the
    /// object count; an empty window freezes the world).
    Window {
        /// First driftable object.
        start: usize,
        /// Window length.
        len: usize,
    },
    /// Exactly the set objects of the mask may drift (objects beyond the
    /// mask's length are frozen).
    Mask(BitVec),
}

impl DriftLocality {
    /// May `object` drift under this locality?
    #[inline]
    pub fn contains(&self, object: u32) -> bool {
        match self {
            DriftLocality::Global => true,
            DriftLocality::Window { start, len } => {
                let o = object as usize;
                o >= *start && o < start.saturating_add(*len)
            }
            DriftLocality::Mask(mask) => {
                let o = object as usize;
                o < mask.len() && mask.get(o)
            }
        }
    }

    /// The driftable sub-range of `0..objects` as an iterator bound
    /// `(start, end)` — the hot loop of [`DriftingTruth::row`] only visits
    /// objects that can actually flip.
    fn bounds(&self, objects: usize) -> (usize, usize) {
        match self {
            DriftLocality::Global => (0, objects),
            DriftLocality::Window { start, len } => (
                (*start).min(objects),
                start.saturating_add(*len).min(objects),
            ),
            DriftLocality::Mask(mask) => (0, mask.len().min(objects)),
        }
    }
}

/// A seeded per-epoch drift law: rate + locality + seed.
///
/// Pure data; every flip decision is a function of
/// `(seed, epoch, player, object)`, so two schedules with equal fields
/// denote the same trajectory on any host and thread count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DriftSchedule {
    /// Fixed-point flip probability: a bit flips at an epoch iff a 32-bit
    /// hash slice is `< threshold`. `threshold = 0` freezes the world,
    /// `threshold = 2³²` flips everything in the locality each epoch.
    threshold: u64,
    /// Which objects may drift.
    pub locality: DriftLocality,
    /// Master seed of the drift randomness (independent of the base
    /// truth's seed).
    pub seed: u64,
}

impl DriftSchedule {
    /// Schedule flipping each in-locality bit per epoch with probability
    /// `rate` (clamped to `[0, 1]`, quantized to 2⁻³²).
    pub fn new(rate: f64, locality: DriftLocality, seed: u64) -> Self {
        let threshold = (rate.clamp(0.0, 1.0) * RATE_ONE as f64).round() as u64;
        DriftSchedule {
            threshold: threshold.min(RATE_ONE),
            locality,
            seed,
        }
    }

    /// Uniform (global-locality) drift at `rate`.
    pub fn uniform(rate: f64, seed: u64) -> Self {
        DriftSchedule::new(rate, DriftLocality::Global, seed)
    }

    /// The quantized flip probability.
    pub fn rate(&self) -> f64 {
        self.threshold as f64 / RATE_ONE as f64
    }

    /// Does `(player, object)` flip at epoch `epoch`? Pure; `epoch = 0` is
    /// the base world and never flips. Public so tests can replay the
    /// schedule densely and compare against [`DriftingTruth::materialize_at`].
    #[inline]
    pub fn flips(&self, epoch: u64, player: u32, object: u32) -> bool {
        if epoch == 0 || self.threshold == 0 || !self.locality.contains(object) {
            return false;
        }
        let h = derive_seed(
            self.seed,
            &[TAG_DRIFT, epoch, u64::from(player), u64::from(object)],
        );
        (h & (RATE_ONE - 1)) < self.threshold
    }

    /// Parity of the flip decisions over epochs `1..=epoch` — whether the
    /// bit at `(player, object)` differs from the base world at `epoch`.
    #[inline]
    fn drifted(&self, epoch: u64, player: u32, object: u32) -> bool {
        if epoch == 0 || self.threshold == 0 || !self.locality.contains(object) {
            return false;
        }
        let mut flip = false;
        for e in 1..=epoch {
            flip ^= self.flips(e, player, object);
        }
        flip
    }

    /// Apply epoch `epoch`'s flips to `world` in place: every bit where
    /// [`DriftSchedule::flips`]`(epoch, p, o)` holds is toggled, rows
    /// being players and columns objects. Folding epochs `1..=t` over a
    /// materialized base yields [`DriftingTruth::materialize_at`]`(t)`.
    ///
    /// This is how a resident world ages: one hash step per driftable bit
    /// per epoch, where a [`DriftingTruth`] read replays every past epoch.
    /// The `[TAG_DRIFT, epoch, p]` seed prefix is derived once per row,
    /// so each object costs one [`derive_step`] rather than a full
    /// [`derive_seed`]. Epoch 0 and a zero rate change nothing.
    pub fn fold_epoch(&self, epoch: u64, world: &mut BitMatrix) {
        if epoch == 0 || self.threshold == 0 {
            return;
        }
        let (start, end) = self.locality.bounds(world.cols());
        for p in 0..world.rows() {
            let row_seed = derive_seed(self.seed, &[TAG_DRIFT, epoch, p as u64]);
            for o in start..end {
                let h = derive_step(row_seed, o as u64);
                if (h & (RATE_ONE - 1)) < self.threshold && self.locality.contains(o as u32) {
                    world.set(p, o, !world.get(p, o));
                }
            }
        }
    }
}

/// A truth source whose preferences drift over epochs.
///
/// Each instance is pinned at one epoch (immutable, per the
/// [`TruthSource`] purity contract); [`DriftingTruth::at_epoch`] /
/// [`DriftingTruth::advance`] produce the neighbouring snapshots, sharing
/// the base substrate behind an `Arc`. Works over **any** base backend —
/// dense matrices and procedural cluster specs alike — so `@scale`
/// drifting worlds cost no extra memory.
#[derive(Clone)]
pub struct DriftingTruth {
    base: Arc<dyn TruthSource>,
    schedule: DriftSchedule,
    epoch: u64,
}

impl DriftingTruth {
    /// A drifting world over `base`, pinned at epoch 0 (identical to the
    /// base world).
    pub fn new(base: impl IntoTruthSource, schedule: DriftSchedule) -> Self {
        DriftingTruth {
            base: base.into_truth_source(),
            schedule,
            epoch: 0,
        }
    }

    /// The epoch this snapshot is pinned at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The same world pinned at epoch `t` (cheap: shares the base).
    pub fn at_epoch(&self, t: u64) -> Self {
        DriftingTruth {
            base: self.base.clone(),
            schedule: self.schedule.clone(),
            epoch: t,
        }
    }

    /// The next epoch's snapshot.
    pub fn advance(&self) -> Self {
        self.at_epoch(self.epoch + 1)
    }

    /// The drift law.
    pub fn schedule(&self) -> &DriftSchedule {
        &self.schedule
    }

    /// The base (epoch-0) substrate.
    pub fn base(&self) -> &Arc<dyn TruthSource> {
        &self.base
    }

    /// Dense twin of this world at epoch `t`: the `players × objects`
    /// matrix with every drift applied — bit-identical to probing an
    /// `at_epoch(t)` source, and to replaying the schedule over a
    /// materialized base (`tests/dynamic_world.rs` pins both).
    pub fn materialize_at(&self, t: u64) -> BitMatrix {
        let snap = self.at_epoch(t);
        let rows: Vec<BitVec> = (0..self.base.players() as u32)
            .map(|p| snap.row(p))
            .collect();
        BitMatrix::from_rows(&rows)
    }
}

impl TruthSource for DriftingTruth {
    fn players(&self) -> usize {
        self.base.players()
    }

    fn objects(&self) -> usize {
        self.base.objects()
    }

    #[inline]
    fn value(&self, player: u32, object: u32) -> bool {
        self.base.value(player, object) ^ self.schedule.drifted(self.epoch, player, object)
    }

    fn row(&self, player: u32) -> BitVec {
        let mut row = self.base.row(player);
        if self.epoch == 0 {
            return row;
        }
        let (start, end) = self.schedule.locality.bounds(self.base.objects());
        for o in start..end {
            if self.schedule.drifted(self.epoch, player, o as u32) {
                row.flip(o);
            }
        }
        row
    }
}

impl IntoTruthSource for DriftingTruth {
    fn into_truth_source(self) -> Arc<dyn TruthSource> {
        Arc::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::truth::ClusterSpec;
    use byzscore_bitset::Bits;

    fn base_spec() -> ClusterSpec {
        ClusterSpec {
            players: 24,
            objects: 64,
            clusters: 3,
            diameter: 4,
            seed: 0xd1f7,
        }
    }

    fn world(rate: f64, locality: DriftLocality) -> DriftingTruth {
        DriftingTruth::new(
            crate::truth::ProceduralTruth::new(base_spec()),
            DriftSchedule::new(rate, locality, 0xabc),
        )
    }

    #[test]
    fn epoch_zero_is_the_base_world() {
        let w = world(0.3, DriftLocality::Global);
        let base = base_spec().materialize();
        for p in 0..24u32 {
            assert_eq!(w.row(p), base.row_to_bitvec(p as usize));
        }
        assert_eq!(w.epoch(), 0);
    }

    #[test]
    fn advance_increments_and_preserves_base() {
        let w = world(0.5, DriftLocality::Global);
        let w2 = w.advance().advance();
        assert_eq!(w2.epoch(), 2);
        assert_eq!(w.epoch(), 0, "advance is persistent, not in-place");
        assert_eq!(w2.at_epoch(0).row(3), w.row(3));
    }

    #[test]
    fn drift_changes_bits_and_is_deterministic() {
        let w = world(0.5, DriftLocality::Global);
        let a = w.at_epoch(3);
        let b = w.at_epoch(3);
        let mut differs = false;
        for p in 0..24u32 {
            assert_eq!(a.row(p), b.row(p));
            differs |= a.row(p) != w.row(p);
        }
        assert!(differs, "rate 0.5 over 3 epochs must move some bits");
    }

    #[test]
    fn zero_rate_freezes_the_world() {
        let w = world(0.0, DriftLocality::Global);
        let far = w.at_epoch(10);
        for p in 0..24u32 {
            assert_eq!(far.row(p), w.row(p));
        }
    }

    #[test]
    fn window_locality_confines_flips() {
        let w = world(1.0, DriftLocality::Window { start: 8, len: 16 });
        let snap = w.at_epoch(5);
        for p in 0..24u32 {
            for o in 0..64u32 {
                let moved = snap.value(p, o) != w.value(p, o);
                if !(8..24).contains(&(o as usize)) {
                    assert!(!moved, "object {o} outside the window drifted");
                }
            }
        }
    }

    #[test]
    fn mask_locality_confines_flips() {
        let mask = BitVec::from_fn(64, |o| o % 4 == 0);
        let w = world(1.0, DriftLocality::Mask(mask.clone()));
        let snap = w.at_epoch(1);
        for p in 0..24u32 {
            for o in 0..64u32 {
                if snap.value(p, o) != w.value(p, o) {
                    assert!(mask.get(o as usize), "masked-out object {o} drifted");
                }
            }
        }
    }

    #[test]
    fn materialize_at_matches_value_and_row() {
        let w = world(0.2, DriftLocality::Window { start: 4, len: 40 });
        let m = w.materialize_at(4);
        let snap = w.at_epoch(4);
        for p in 0..24u32 {
            assert_eq!(m.row_to_bitvec(p as usize), snap.row(p), "row {p}");
            for o in (0..64u32).step_by(5) {
                assert_eq!(m.get(p as usize, o as usize), snap.value(p, o));
            }
        }
    }

    #[test]
    fn rate_is_quantized_but_close() {
        let s = DriftSchedule::uniform(0.25, 1);
        assert!((s.rate() - 0.25).abs() < 1e-9);
        assert_eq!(DriftSchedule::uniform(2.0, 1).rate(), 1.0, "clamped");
        assert_eq!(DriftSchedule::uniform(-1.0, 1).rate(), 0.0, "clamped");
    }

    #[test]
    fn dense_base_works_too() {
        let dense = base_spec().materialize();
        let schedule = DriftSchedule::uniform(0.4, 9);
        let w = DriftingTruth::new(dense, schedule.clone());
        let p = DriftingTruth::new(crate::truth::ProceduralTruth::new(base_spec()), schedule);
        // Same base bits + same schedule seed ⇒ same drifted world,
        // regardless of backend.
        let (a, b) = (w.at_epoch(2), p.at_epoch(2));
        for player in 0..24u32 {
            assert_eq!(a.row(player), b.row(player));
        }
    }
}
