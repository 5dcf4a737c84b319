//! §8 extension: non-binary preferences.
//!
//! "Players are restricted to binary preferences; in reality, players may
//! rate items on a numerical scale. … We believe that many of the
//! techniques developed in this paper generalize to these more realistic
//! settings" (§8).
//!
//! This module realizes the generalization by **bit-plane decomposition**:
//! a score in `0..2^k` is `k` binary preference matrices (one per bit), and
//! the binary protocol runs once per plane under independently derived
//! seeds. Each plane inherits the paper's guarantee — plane error `O(D_j)`
//! where `D_j` is the plane's cluster diameter — so the recombined score
//! error is bounded in L1: `Σ_j 2^j · O(D_j)`. Players whose *grades*
//! cluster produce clustered bit planes (each plane's Hamming diameter is
//! at most the grade cluster's L1 diameter), so the structural assumption
//! transfers.

use byzscore_bitset::{BitMatrix, BitVec, Bits};
use byzscore_board::DriftSchedule;
use byzscore_model::Instance;
use byzscore_random::derive_seed;
use rand::Rng;

use crate::{Algorithm, Outcome, ProtocolParams, Session};

/// A matrix of integer scores in `0..2^bits` (players × objects).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GradeMatrix {
    players: usize,
    objects: usize,
    bits: u32,
    grades: Vec<u8>,
}

impl GradeMatrix {
    /// Zeroed grade matrix with scores in `0..2^bits` (`1 ≤ bits ≤ 8`).
    pub fn zeros(players: usize, objects: usize, bits: u32) -> Self {
        assert!((1..=8).contains(&bits), "bits in 1..=8");
        GradeMatrix {
            players,
            objects,
            bits,
            grades: vec![0; players * objects],
        }
    }

    /// Build from a per-entry function.
    pub fn from_fn(
        players: usize,
        objects: usize,
        bits: u32,
        mut f: impl FnMut(usize, usize) -> u8,
    ) -> Self {
        let mut g = GradeMatrix::zeros(players, objects, bits);
        for p in 0..players {
            for o in 0..objects {
                g.set(p, o, f(p, o));
            }
        }
        g
    }

    /// Uniformly random grades.
    pub fn random<R: Rng + ?Sized>(rng: &mut R, players: usize, objects: usize, bits: u32) -> Self {
        let max = (1u16 << bits) as u8;
        GradeMatrix::from_fn(players, objects, bits, |_, _| rng.gen_range(0..max))
    }

    /// Number of players.
    pub fn players(&self) -> usize {
        self.players
    }

    /// Number of objects.
    pub fn objects(&self) -> usize {
        self.objects
    }

    /// Score resolution in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Grade of (`player`, `object`).
    #[inline]
    pub fn get(&self, player: usize, object: usize) -> u8 {
        self.grades[player * self.objects + object]
    }

    /// Set the grade of (`player`, `object`); must fit in `bits`.
    #[inline]
    pub fn set(&mut self, player: usize, object: usize, grade: u8) {
        assert!(
            (grade as u16) < (1u16 << self.bits),
            "grade {grade} out of range for {} bits",
            self.bits
        );
        self.grades[player * self.objects + object] = grade;
    }

    /// Decompose into `bits` binary planes (least-significant first).
    pub fn planes(&self) -> Vec<BitMatrix> {
        (0..self.bits)
            .map(|j| {
                let mut m = BitMatrix::zeros(self.players, self.objects);
                for p in 0..self.players {
                    let mut row = BitVec::zeros(self.objects);
                    for o in 0..self.objects {
                        if (self.get(p, o) >> j) & 1 == 1 {
                            row.set(o, true);
                        }
                    }
                    m.set_row(p, &row);
                }
                m
            })
            .collect()
    }

    /// Recombine binary planes (least-significant first) into grades.
    pub fn from_planes(planes: &[BitMatrix]) -> Self {
        assert!(!planes.is_empty() && planes.len() <= 8, "1..=8 planes");
        let players = planes[0].rows();
        let objects = planes[0].cols();
        let mut g = GradeMatrix::zeros(players, objects, planes.len() as u32);
        for (j, plane) in planes.iter().enumerate() {
            assert_eq!(plane.rows(), players, "plane {j} row mismatch");
            assert_eq!(plane.cols(), objects, "plane {j} col mismatch");
            for p in 0..players {
                for o in plane.row(p).iter_ones() {
                    g.grades[p * objects + o] |= 1 << j;
                }
            }
        }
        g
    }

    /// L1 distance between `player`'s row here and in `other` — the graded
    /// analogue of the Hamming "rate of error" (§8 suggests such metrics).
    pub fn l1_row_distance(&self, other: &GradeMatrix, player: usize) -> u64 {
        assert_eq!(self.objects, other.objects);
        (0..self.objects)
            .map(|o| {
                (i64::from(self.get(player, o)) - i64::from(other.get(player, o))).unsigned_abs()
            })
            .sum()
    }
}

/// Result of a graded run: per-plane outcomes plus the recombined scores.
pub struct GradedOutcome {
    /// Predicted grades.
    pub predicted: GradeMatrix,
    /// The binary outcome of each bit plane (LSB first).
    pub planes: Vec<Outcome>,
    /// Worst per-player L1 error against the truth.
    pub max_l1: u64,
    /// Mean per-player L1 error.
    pub mean_l1: f64,
}

/// Run the collaborative scoring protocol on graded preferences: once per
/// bit plane with independently derived seeds, then recombine.
pub fn score_graded(
    truth: &GradeMatrix,
    params: &ProtocolParams,
    algorithm: Algorithm,
    seed: u64,
) -> GradedOutcome {
    let planes = truth.planes();
    let outcomes: Vec<Outcome> = planes
        .iter()
        .enumerate()
        .map(|(j, plane)| {
            let instance = Instance::new(plane.clone(), None, format!("plane{j}"), seed);
            Session::builder()
                .instance(&instance)
                .params(params.clone())
                .build()
                .run(
                    algorithm,
                    byzscore_random::derive_seed(seed, &[0x6e_ad, j as u64]),
                )
        })
        .collect();

    let out_planes: Vec<BitMatrix> = outcomes.iter().map(|o| o.output().clone()).collect();
    let predicted = GradeMatrix::from_planes(&out_planes);

    let mut max_l1 = 0u64;
    let mut sum = 0u64;
    for p in 0..truth.players() {
        let e = truth.l1_row_distance(&predicted, p);
        max_l1 = max_l1.max(e);
        sum += e;
    }
    GradedOutcome {
        predicted,
        planes: outcomes,
        max_l1,
        mean_l1: sum as f64 / truth.players() as f64,
    }
}

// Seed-derivation tags of the graded plane.
const TAG_PLANE_SEED: u64 = 0x6e_d1;
const TAG_EPOCH: u64 = 0x6e_e0;

/// A multi-bit world whose *grades* drift over epochs — the graded half
/// of the dynamic-world plane (DESIGN.md §4.11).
///
/// Each bit plane of the base [`GradeMatrix`] drifts under the shared
/// rate/locality law re-seeded with a plane derivation, so planes drift
/// independently. A grade's trajectory is therefore a bounded random walk
/// in `0..2^bits`: flipping plane `j` at some epoch moves the score by
/// `±2^j`. Planes age as resident bits ([`DriftSchedule::fold_epoch`],
/// one epoch at a time), so [`DriftingGrades::at_epoch`] and
/// [`DriftingGrades::trajectory`] reconstruct the exact matrices (pure,
/// bit-reproducible).
pub struct DriftingGrades {
    /// Each plane's base bits and its plane-seeded schedule.
    planes: Vec<(BitMatrix, DriftSchedule)>,
    bits: u32,
}

impl DriftingGrades {
    /// A drifting grade world over `base`: plane `j` drifts under
    /// `schedule` re-seeded with a plane-`j` derivation.
    pub fn new(base: &GradeMatrix, schedule: &DriftSchedule) -> Self {
        let planes = base
            .planes()
            .into_iter()
            .enumerate()
            .map(|(j, plane)| {
                let mut s = schedule.clone();
                s.seed = derive_seed(schedule.seed, &[TAG_PLANE_SEED, j as u64]);
                (plane, s)
            })
            .collect();
        DriftingGrades {
            planes,
            bits: base.bits(),
        }
    }

    /// Score resolution in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The exact grade matrix at epoch `t` (epoch 0 is the base).
    pub fn at_epoch(&self, t: u64) -> GradeMatrix {
        let mut trajectory = self.trajectory(t + 1);
        trajectory.pop().expect("a trajectory through epoch t")
    }

    /// The grade matrices of epochs `0..epochs`, from one pass that folds
    /// each epoch into every plane once.
    pub fn trajectory(&self, epochs: u64) -> Vec<GradeMatrix> {
        let mut planes: Vec<BitMatrix> = self.planes.iter().map(|(base, _)| base.clone()).collect();
        (0..epochs)
            .map(|t| {
                // Folding epoch 0 changes nothing: entry 0 is the base.
                for (plane, (_, schedule)) in planes.iter_mut().zip(&self.planes) {
                    schedule.fold_epoch(t, plane);
                }
                GradeMatrix::from_planes(&planes)
            })
            .collect()
    }
}

/// Run the graded protocol against a drifting world, once per epoch in
/// `0..epochs`, with independently derived seeds — the multi-bit drift
/// trajectory experiment e16 reports.
pub fn score_graded_drift(
    world: &DriftingGrades,
    params: &ProtocolParams,
    algorithm: Algorithm,
    epochs: u64,
    seed: u64,
) -> Vec<GradedOutcome> {
    world
        .trajectory(epochs)
        .iter()
        .enumerate()
        .map(|(t, truth)| {
            score_graded(
                truth,
                params,
                algorithm,
                derive_seed(seed, &[TAG_EPOCH, t as u64]),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn plane_roundtrip() {
        let mut rng = SmallRng::seed_from_u64(1);
        let g = GradeMatrix::random(&mut rng, 12, 30, 3);
        let back = GradeMatrix::from_planes(&g.planes());
        assert_eq!(g, back);
    }

    #[test]
    fn set_get_and_bounds() {
        let mut g = GradeMatrix::zeros(2, 3, 2);
        g.set(1, 2, 3);
        assert_eq!(g.get(1, 2), 3);
        assert_eq!(g.get(0, 0), 0);
        assert_eq!(g.bits(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn overflow_grade_panics() {
        let mut g = GradeMatrix::zeros(1, 1, 2);
        g.set(0, 0, 4);
    }

    #[test]
    fn l1_distance_basics() {
        let mut a = GradeMatrix::zeros(1, 3, 3);
        let mut b = GradeMatrix::zeros(1, 3, 3);
        a.set(0, 0, 7);
        b.set(0, 0, 2);
        b.set(0, 2, 1);
        assert_eq!(a.l1_row_distance(&b, 0), 5 + 1);
        assert_eq!(a.l1_row_distance(&a, 0), 0);
    }

    #[test]
    fn graded_clone_world_recovers_exactly() {
        // Four grade-clone classes: members share identical grade rows, so
        // every bit plane is a clone world and recovery is exact.
        let mut rng = SmallRng::seed_from_u64(5);
        let players = 64;
        let objects = 96;
        let classes = 4;
        let prototypes: Vec<GradeMatrix> = (0..classes)
            .map(|_| GradeMatrix::random(&mut rng, 1, objects, 2))
            .collect();
        let truth = GradeMatrix::from_fn(players, objects, 2, |p, o| {
            prototypes[p % classes].get(0, o)
        });
        let params = ProtocolParams::with_budget(4);
        let out = score_graded(&truth, &params, Algorithm::CalculatePreferences, 9);
        assert_eq!(out.planes.len(), 2);
        assert!(
            out.max_l1 <= 6,
            "graded clone world should be near-exact, max L1 {}",
            out.max_l1
        );
    }

    #[test]
    fn drifting_grades_epoch_zero_is_the_base() {
        let mut rng = SmallRng::seed_from_u64(11);
        let base = GradeMatrix::random(&mut rng, 10, 20, 3);
        let world = DriftingGrades::new(&base, &DriftSchedule::uniform(0.1, 5));
        assert_eq!(world.at_epoch(0), base);
        assert_eq!(world.bits(), 3);
    }

    #[test]
    fn drifting_grades_move_and_are_reproducible() {
        let mut rng = SmallRng::seed_from_u64(13);
        let base = GradeMatrix::random(&mut rng, 12, 24, 2);
        let world = DriftingGrades::new(&base, &DriftSchedule::uniform(0.2, 6));
        let a = world.at_epoch(3);
        let b = world.at_epoch(3);
        assert_eq!(a, b, "epoch reconstruction is pure");
        assert_ne!(a, base, "rate 0.2 over 3 epochs must move grades");
        // Planes drift under distinct derived seeds: the two planes of
        // some entry must disagree with lockstep flipping (statistically
        // certain at these sizes; checked via the L1 trajectory).
        let mut moved = 0u64;
        for p in 0..12 {
            moved += base.l1_row_distance(&a, p);
        }
        assert!(moved > 0);
    }

    #[test]
    fn trajectory_matches_at_epoch() {
        let mut rng = SmallRng::seed_from_u64(19);
        let base = GradeMatrix::random(&mut rng, 8, 16, 3);
        let world = DriftingGrades::new(&base, &DriftSchedule::uniform(0.1, 4));
        let traj = world.trajectory(4);
        assert_eq!(traj.len(), 4);
        for (t, g) in traj.iter().enumerate() {
            assert_eq!(g, &world.at_epoch(t as u64), "epoch {t}");
        }
        assert!(world.trajectory(0).is_empty());
        // Each plane is the drift adapter's read-by-read replay.
        for (j, (base_plane, schedule)) in world.planes.iter().enumerate() {
            let reference = byzscore_board::DriftingTruth::new(base_plane, schedule.clone());
            for (t, g) in traj.iter().enumerate() {
                assert_eq!(
                    g.planes()[j],
                    reference.materialize_at(t as u64),
                    "plane {j} epoch {t}"
                );
            }
        }
    }

    #[test]
    fn graded_drift_trajectory_runs_per_epoch() {
        let mut rng = SmallRng::seed_from_u64(17);
        let prototypes: Vec<GradeMatrix> = (0..3)
            .map(|_| GradeMatrix::random(&mut rng, 1, 40, 2))
            .collect();
        let base = GradeMatrix::from_fn(24, 40, 2, |p, o| prototypes[p % 3].get(0, o));
        let world = DriftingGrades::new(&base, &DriftSchedule::uniform(0.005, 8));
        let params = ProtocolParams::with_budget(4);
        let traj = score_graded_drift(&world, &params, Algorithm::GlobalMajority, 3, 21);
        assert_eq!(traj.len(), 3);
        for (t, out) in traj.iter().enumerate() {
            assert_eq!(out.planes.len(), 2, "epoch {t} plane count");
            // Each epoch's L1 bound still holds against its own truth.
            let truth_t = world.at_epoch(t as u64);
            let mut max_l1 = 0;
            for p in 0..24 {
                max_l1 = max_l1.max(truth_t.l1_row_distance(&out.predicted, p));
            }
            assert_eq!(
                max_l1, out.max_l1,
                "epoch {t} scored against its epoch's truth"
            );
        }
    }

    #[test]
    fn graded_error_bounded_by_weighted_plane_errors() {
        let mut rng = SmallRng::seed_from_u64(7);
        let truth = GradeMatrix::random(&mut rng, 32, 48, 3);
        let params = ProtocolParams::with_budget(4);
        let out = score_graded(&truth, &params, Algorithm::GlobalMajority, 3);
        // L1 error ≤ Σ_j 2^j · (plane-j Hamming error) per player; check the
        // aggregate version of the bound.
        let bound: u64 = out
            .planes
            .iter()
            .enumerate()
            .map(|(j, o)| (1u64 << j) * o.errors.max as u64)
            .sum();
        assert!(
            out.max_l1 <= bound,
            "L1 {} exceeds weighted plane bound {bound}",
            out.max_l1
        );
    }
}
