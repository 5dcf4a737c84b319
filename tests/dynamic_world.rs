//! Dynamic-world contracts: the drift law has exactly one dense replay,
//! adaptive corruption degrades exactly to its static base, churn
//! remapping is a permutation-free identity view, and the resident pool
//! every run ages is the drift/remap adapter composition, step by step.

use std::sync::Arc;

use byzscore::{
    compose_world, procedural_planted, Algorithm, ChurnSchedule, ClusterSpec, DriftLocality,
    DriftSchedule, DriftingTruth, DynamicWorld, ProceduralTruth, ProtocolParams, RemappedTruth,
    ResidentPool, TruthSource,
};
use byzscore_adversary::{AdaptiveCorruption, AdaptivePolicy, Corruption, Inverter, Observation};
use byzscore_bitset::{BitMatrix, BitVec};
use byzscore_model::{Balance, Planted, Workload};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn spec(players: usize, objects: usize, seed: u64) -> ClusterSpec {
    ClusterSpec {
        players,
        objects,
        clusters: 3,
        diameter: 4,
        seed,
    }
}

/// Each drift locality shape over `objects` columns: global, a window,
/// and a mask shorter than the object axis (its tail is frozen).
fn locality(kind: u8, objects: usize) -> DriftLocality {
    match kind {
        0 => DriftLocality::Global,
        1 => DriftLocality::Window {
            start: objects / 3,
            len: objects / 2 + 1,
        },
        _ => DriftLocality::Mask(BitVec::from_fn(objects - objects / 4, |o| o % 3 != 1)),
    }
}

/// Assert that `world` is the adapter composition over `pool` at its
/// epoch and map: every active row, and the planted structure viewed
/// through the map (slot assignments from identities, members as slots).
fn assert_composed(world: &ResidentPool, pool: &Arc<dyn TruthSource>, planted: &Planted) {
    let reference = compose_world(pool, world.drift.as_ref(), world.epoch, &world.map);
    let (truth, remapped) = world.active();
    assert_eq!(truth.players(), reference.players());
    for slot in 0..reference.players() as u32 {
        assert_eq!(
            truth.row(slot),
            reference.row(slot),
            "slot {slot} at epoch {}",
            world.epoch
        );
    }
    let assignment: Vec<u32> = world
        .map
        .iter()
        .map(|&id| planted.assignment[id as usize])
        .collect();
    let mut clusters = vec![Vec::new(); planted.clusters.len()];
    for (slot, &c) in assignment.iter().enumerate() {
        clusters[c as usize].push(slot as u32);
    }
    let expected = Planted {
        assignment,
        clusters,
        ..planted.clone()
    };
    assert_eq!(remapped, expected, "planted at epoch {}", world.epoch);
}

proptest! {
    /// `materialize_at(t)` is THE dense replay of the drift schedule:
    /// start from the materialized base and apply every per-epoch flip
    /// decision (`DriftSchedule::flips`) by hand — the twin must agree on
    /// every bit, for every locality shape.
    #[test]
    fn materialize_at_equals_dense_replay(
        seed in 0u64..40,
        players in 3usize..20,
        objects in 4usize..80,
        epochs in 0u64..6,
        rate_pm in 0u32..1000,
        window_kind in 0u8..3,
    ) {
        let objects_u = objects;
        let locality = match window_kind {
            0 => DriftLocality::Global,
            1 => DriftLocality::Window { start: objects_u / 4, len: objects_u / 2 },
            _ => DriftLocality::Mask(BitVec::from_fn(objects_u, |o| o % 3 != 1)),
        };
        let schedule = DriftSchedule::new(rate_pm as f64 / 1000.0, locality, seed ^ 0xd1f7);
        let base_spec = spec(players, objects, seed);
        let world = DriftingTruth::new(ProceduralTruth::new(base_spec.clone()), schedule.clone());

        // Independent dense replay, straight from the schedule's flip law.
        let mut rows: Vec<BitVec> = {
            let dense = base_spec.materialize();
            (0..players).map(|p| dense.row_to_bitvec(p)).collect()
        };
        for e in 1..=epochs {
            for (p, row) in rows.iter_mut().enumerate() {
                for o in 0..objects_u {
                    if schedule.flips(e, p as u32, o as u32) {
                        row.flip(o);
                    }
                }
            }
        }
        let replay = BitMatrix::from_rows(&rows);

        prop_assert_eq!(&world.materialize_at(epochs), &replay);
        // And probing the pinned snapshot agrees bit for bit.
        let snap = world.at_epoch(epochs);
        for p in 0..players as u32 {
            prop_assert_eq!(snap.row(p), replay.row_to_bitvec(p as usize));
        }
    }

    /// A zero observation window reduces `AdaptiveCorruption` exactly to
    /// the static `Corruption` it wraps — identical masks for every seed,
    /// every base model, whatever the history contains.
    #[test]
    fn zero_window_adaptive_is_the_static_base(
        seed in 0u64..60,
        n in 8usize..64,
        variant in 0u8..4,
        hist_len in 0usize..4,
    ) {
        let count = 1 + n / 8;
        let base = match variant {
            0 => Corruption::None,
            1 => Corruption::Count { count },
            2 => Corruption::FirstK { count },
            _ => Corruption::RandomFraction { fraction: 0.25 },
        };
        let inst = Workload::PlantedClusters {
            players: n,
            objects: 16,
            clusters: 2,
            diameter: 2,
            balance: Balance::Even,
        }
        .generate(seed);
        let planted = inst.planted();
        let history: Vec<Observation> = (0..hist_len)
            .map(|i| Observation::sizes(vec![i + 1, 2, 3]))
            .collect();
        let adaptive = AdaptiveCorruption::off(base.clone());
        prop_assert_eq!(
            adaptive.select_mask(n, planted, seed, &history),
            base.select_mask(n, planted, seed)
        );
        // A windowed adversary with EMPTY history is also the base.
        let windowed = AdaptiveCorruption::new(base.clone(), 2, AdaptivePolicy::SmallestGroup);
        prop_assert_eq!(
            windowed.select_mask(n, planted, seed, &[]),
            base.select_mask(n, planted, seed)
        );
    }

    /// The adaptive adversary never exceeds the wrapped model's budget,
    /// whatever it observes.
    #[test]
    fn adaptive_preserves_the_budget(
        seed in 0u64..40,
        n in 12usize..48,
        window in 1usize..4,
        smallest in 0usize..3,
    ) {
        let count = 1 + n / 6;
        let inst = Workload::PlantedClusters {
            players: n,
            objects: 16,
            clusters: 3,
            diameter: 2,
            balance: Balance::Even,
        }
        .generate(seed);
        let mut sizes = vec![9, 9, 9];
        sizes[smallest] = 1;
        let adaptive = AdaptiveCorruption::new(
            Corruption::Count { count },
            window,
            AdaptivePolicy::SmallestGroup,
        );
        let (mask, target) = adaptive.select_mask_with_target(
            n,
            inst.planted(),
            seed,
            &[Observation::sizes(sizes)],
        );
        prop_assert_eq!(mask.iter().filter(|&&d| d).count(), count);
        prop_assert_eq!(target, Some(smallest));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(240))]

    /// Folding epochs `1..=k` one at a time over the materialized base
    /// (`DriftSchedule::fold_epoch`, the resident-world path) is
    /// `materialize_at(k)`, for every locality shape, column counts on
    /// both sides of the word boundaries, and rates from frozen to
    /// flip-everything; folding epoch 0 changes nothing.
    #[test]
    fn folding_epochs_equals_materialize_at(
        seed in 0u64..1000,
        players in 3usize..12,
        cols_ix in 0usize..5,
        rate_ix in 0usize..4,
        kind in 0u8..3,
        k in 0u64..=6,
    ) {
        let objects = [1, 63, 64, 65, 130][cols_ix];
        let rate = [0.0, 1e-3, 0.3, 1.0][rate_ix];
        let schedule = DriftSchedule::new(rate, locality(kind, objects), seed ^ 0xf01d);
        let world = DriftingTruth::new(
            ProceduralTruth::new(spec(players, objects, seed)),
            schedule.clone(),
        );
        let mut folded = world.materialize_at(0);
        schedule.fold_epoch(0, &mut folded);
        prop_assert_eq!(&folded, &world.materialize_at(0), "epoch 0 folds nothing");
        for e in 1..=k {
            schedule.fold_epoch(e, &mut folded);
        }
        prop_assert_eq!(&folded, &world.materialize_at(k), "epoch {}", k);
    }

    /// The resident pool is the adapter composition, step by step: a
    /// `ResidentPool` and `compose_world` over the same procedural pool,
    /// stepped through the same seeded sequence of churns and epochs,
    /// agree on every active row and on the remapped planted structure
    /// after every step — for every locality shape and column counts on
    /// both sides of the word boundaries. The sequence ends with a churn
    /// that runs the pool out of fresh identities and one that finds none.
    #[test]
    fn resident_pool_is_the_adapter_composition(
        seed in 0u64..1000,
        cols_ix in 0usize..5,
        kind in 0u8..3,
        rows in 4usize..24,
        headroom in 0usize..8,
        steps in 1usize..7,
    ) {
        let objects = [1, 63, 64, 65, 130][cols_ix];
        let schedule = DriftSchedule::new(0.2, locality(kind, objects), seed ^ 0x7e5);
        let source = ProceduralTruth::new(spec(rows, objects, seed));
        let planted = procedural_planted(&source);
        let active = rows - headroom.min(rows - 1);
        let mut world = ResidentPool::new(&source, planted.clone(), Some(schedule), active);
        let pool: Arc<dyn TruthSource> = Arc::new(source);
        assert_composed(&world, &pool, &planted);

        let mut rng = SmallRng::seed_from_u64(seed ^ 0xc4);
        for _ in 0..steps {
            if rng.gen_bool(0.5) {
                let (retire, join) = (rng.gen_range(0..active + 2), rng.gen_range(0..4));
                world.churn(retire, join, &mut rng);
            } else {
                world.advance_epoch();
            }
            assert_composed(&world, &pool, &planted);
        }
        let fresh = rows - world.next_fresh as usize;
        let (_, joined) = world.churn(1, rows, &mut rng);
        prop_assert_eq!(joined.len(), fresh, "the pool's last identities join");
        prop_assert_eq!(world.next_fresh as usize, rows);
        assert_composed(&world, &pool, &planted);
        let (_, joined) = world.churn(1, 1, &mut rng);
        prop_assert!(joined.is_empty(), "an exhausted pool admits no one");
        world.advance_epoch();
        assert_composed(&world, &pool, &planted);
    }
}

#[test]
fn remapped_truth_is_an_identity_view() {
    let pool = ProceduralTruth::new(spec(20, 48, 7));
    let dense = pool.materialize();
    let map = vec![19u32, 0, 7, 7, 3];
    let view = RemappedTruth::new(Arc::new(pool), map.clone());
    assert_eq!(view.players(), 5);
    for (slot, &id) in map.iter().enumerate() {
        assert_eq!(view.row(slot as u32), dense.row_to_bitvec(id as usize));
    }
}

/// Churn bookkeeping: the active identity sets evolve exactly as the
/// retire/join log claims, identities are never duplicated, and retired
/// identities never rejoin.
#[test]
fn churn_log_reconstructs_the_population() {
    use std::collections::HashSet;

    let run = DynamicWorld::builder()
        .pool(spec(90, 48, 5))
        .active(60)
        .params(ProtocolParams::with_budget(4))
        .churn(ChurnSchedule {
            retire: 7,
            join: 5,
            seed: 0xfeed,
        })
        .build()
        .run(Algorithm::GlobalMajority, 4, 1);

    let mut active: HashSet<u32> = (0..60).collect();
    let mut gone: HashSet<u32> = HashSet::new();
    for report in &run.rounds {
        for r in &report.retired {
            assert!(active.remove(r), "retired {r} was not active");
            gone.insert(*r);
        }
        for j in &report.joined {
            assert!(!gone.contains(j), "retired identity {j} rejoined");
            assert!(active.insert(*j), "joined {j} twice");
        }
        assert_eq!(report.players, active.len(), "round {}", report.round);
    }
    let sizes: Vec<usize> = run.rounds.iter().map(|r| r.players).collect();
    assert_eq!(sizes, vec![60, 58, 56, 54], "net −2 per churn step");
}

/// Round 0 of any adaptive arm coincides with the static arm (nothing
/// has been observed yet); later rounds may diverge.
#[test]
fn adaptive_round_zero_matches_static() {
    let build = |corruption: AdaptiveCorruption| {
        DynamicWorld::builder()
            .pool(spec(60, 64, 0x15))
            .params(ProtocolParams::with_budget(4))
            .adversary(corruption, Inverter)
            .build()
    };
    let base = Corruption::Count { count: 5 };
    let static_run =
        build(AdaptiveCorruption::off(base.clone())).run(Algorithm::CalculatePreferences, 2, 7);
    let adaptive_run = build(AdaptiveCorruption::new(
        base,
        1,
        AdaptivePolicy::SmallestGroup,
    ))
    .run(Algorithm::CalculatePreferences, 2, 7);
    assert_eq!(
        static_run.rounds[0].outcome.output, adaptive_run.rounds[0].outcome.output,
        "round 0 has nothing to adapt to"
    );
    assert_eq!(adaptive_run.rounds[0].target_group, None);
    assert!(adaptive_run.rounds[1].target_group.is_some());
}

/// Graded drift epochs reconstruct purely.
#[test]
fn graded_drift_reconstruction_is_pure() {
    use byzscore::graded::{DriftingGrades, GradeMatrix};

    let base = GradeMatrix::from_fn(10, 24, 2, |p, o| ((p * 7 + o * 3) % 4) as u8);
    let world = DriftingGrades::new(&base, &DriftSchedule::uniform(0.05, 3));
    assert_eq!(world.at_epoch(0), base);
    assert_eq!(world.at_epoch(4), world.at_epoch(4));
    assert_ne!(world.at_epoch(4), base, "5% over 4 epochs must move grades");
}
