//! `NeighborIndex` equivalence: the one discovery pipeline — bit-identical
//! vectors grouped, the representatives indexed (an exact distance
//! table, or each table row computed on demand), one peel over the group
//! graph — must
//! produce the *identical* Lemma-8 edge set and the identical `Clustering`
//! as the all-pairs definition over players (`brute_adjacency`,
//! `neighbor_graph` + `peel_clusters`), whichever representative index is
//! forced, on structured and adversarially random inputs alike. This is
//! the pinned contract that lets e13 run `NaiveSampling` at n=10⁵ without
//! changing a single output bit.

use byzscore::cluster::{
    cluster_players, neighbor_graph, peel_clusters, GroupCache, NeighborIndex, NeighborStrategy,
};
use byzscore_bitset::{BitVec, Bits};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Brute-force Lemma-8 adjacency straight from the definition.
fn brute_adjacency(zvecs: &[BitVec], threshold: usize) -> Vec<Vec<u32>> {
    (0..zvecs.len())
        .map(|p| {
            (0..zvecs.len())
                .filter(|&q| q != p && zvecs[p].hamming(&zvecs[q]) <= threshold)
                .map(|q| q as u32)
                .collect()
        })
        .collect()
}

/// Random mixture: some tight camps, some uniform noise players. Camp
/// members repeat exact center copies often enough that grouped discovery
/// sees real multi-member groups.
fn mixed_zvecs(seed: u64, n: usize, len: usize, spread: usize) -> Vec<BitVec> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let camps = 1 + (seed as usize % 4);
    let centers: Vec<BitVec> = (0..camps).map(|_| BitVec::random(&mut rng, len)).collect();
    (0..n)
        .map(|i| {
            if i % 5 == 4 {
                BitVec::random(&mut rng, len) // noise player
            } else {
                let flips = rng.gen_range(0..=spread.min(len));
                let mut v = centers[i % camps].clone();
                v.flip_random_distinct(&mut rng, flips);
                v
            }
        })
        .collect()
}

/// The no-collapse regime (every row distinct, so `G = n` — where the
/// index used to leave the grouped path): stamp each player's index into
/// the low bits of its vector. Lengths too short to hold `n` distinct
/// stamps are left as they are.
fn make_distinct(zvecs: &mut [BitVec]) {
    let n = zvecs.len();
    let bits = (usize::BITS - (n - 1).leading_zeros()) as usize;
    if zvecs[0].len() < bits {
        return;
    }
    for (i, v) in zvecs.iter_mut().enumerate() {
        for b in 0..bits {
            v.set(b, (i >> b) & 1 == 1);
        }
    }
    let cache = GroupCache::build(zvecs, NeighborStrategy::Auto);
    assert_eq!(cache.group_count(), Some(n));
}

/// The strategies checked against `Exact` and the reference: `Scan`
/// (no table; each row computed when the peel reads it) and `Auto`
/// (which at these sizes tabulates like `Exact`).
const LAZY: [NeighborStrategy; 2] = [NeighborStrategy::Scan, NeighborStrategy::Auto];

proptest! {
    /// Edge sets are identical across strategies and match brute force,
    /// across random sizes, lengths, and thresholds — covering all
    /// representative indexes (exact / scan / complete), with
    /// duplicates (`distinct == 0`) and without.
    #[test]
    fn lazy_edge_sets_equal_exact(seed in 0u64..60, n in 2usize..36, len in 1usize..300, t_raw in 0usize..330, distinct in 0usize..2) {
        let spread = (len / 16).max(1);
        let mut zvecs = mixed_zvecs(seed, n, len, spread);
        if distinct == 1 {
            make_distinct(&mut zvecs);
        }
        let threshold = t_raw % (len + 2); // sometimes ≥ len ⇒ complete graph
        let exact = NeighborIndex::build(&zvecs, threshold, NeighborStrategy::Exact);
        let brute = brute_adjacency(&zvecs, threshold);
        prop_assert_eq!(&exact.adjacency(), &brute);
        for strategy in LAZY {
            let lazy = NeighborIndex::build(&zvecs, threshold, strategy);
            prop_assert_eq!(
                &lazy.adjacency(), &brute,
                "{} edge set diverges at n={} len={} τ={}",
                lazy.mode_name(), n, len, threshold
            );
            prop_assert_eq!(exact.degrees(), lazy.degrees());
        }
    }

    /// Clustering is identical across strategies and matches the original
    /// materialized `peel_clusters` reference, for every min_size regime.
    #[test]
    fn lazy_peels_equal_exact(seed in 100u64..150, n in 2usize..30, len in 8usize..220, t_raw in 0usize..240, min_size in 1usize..12, distinct in 0usize..2) {
        let spread = (len / 16).max(1);
        let mut zvecs = mixed_zvecs(seed, n, len, spread);
        if distinct == 1 {
            make_distinct(&mut zvecs);
        }
        let threshold = t_raw % (len + 2);
        let exact = NeighborIndex::build(&zvecs, threshold, NeighborStrategy::Exact);
        let reference = peel_clusters(&zvecs, &neighbor_graph(&zvecs, threshold), min_size);
        let from_exact = exact.peel(min_size);
        prop_assert_eq!(&from_exact.assignment, &reference.assignment);
        prop_assert_eq!(&from_exact.clusters, &reference.clusters);
        for strategy in LAZY {
            let lazy = NeighborIndex::build(&zvecs, threshold, strategy);
            let from_lazy = lazy.peel(min_size);
            prop_assert_eq!(
                &from_lazy.assignment, &reference.assignment,
                "{} assignment diverges at n={} len={} τ={} min={}",
                lazy.mode_name(), n, len, threshold, min_size
            );
            prop_assert_eq!(&from_lazy.clusters, &reference.clusters);
            prop_assert!(from_lazy.is_partition());
        }
    }

    /// `cluster_players` (Auto) stays pinned to the reference path.
    #[test]
    fn auto_strategy_matches_reference(seed in 200u64..230, n in 2usize..24, len in 4usize..160) {
        let zvecs = mixed_zvecs(seed, n, len, (len / 8).max(1));
        let threshold = len / 4;
        let min_size = (n / 3).max(1);
        let reference = peel_clusters(&zvecs, &neighbor_graph(&zvecs, threshold), min_size);
        let auto = cluster_players(&zvecs, threshold, min_size);
        prop_assert_eq!(auto.assignment, reference.assignment);
        prop_assert_eq!(auto.clusters, reference.clusters);
    }

    /// Cross-guess reuse: a `GroupCache` built once and re-indexed for a
    /// sweep of thresholds must yield, at every τ and for every strategy,
    /// the identical edge set and identical `Clustering` as an index built
    /// fresh from the same z-vectors — the pinned contract behind the
    /// naive baseline's guess-loop fusion. Both read the same kind of
    /// distance table, so each clustering is also held to the player-level
    /// reference, and the sweep runs past `len` into the complete guesses.
    #[test]
    fn group_cache_rebanding_equals_fresh_build(seed in 400u64..440, n in 2usize..34, len in 8usize..260) {
        let spread = (len / 16).max(1);
        let zvecs = mixed_zvecs(seed, n, len, spread);
        let min_size = (n / 4).max(1);
        for strategy in [NeighborStrategy::Auto, NeighborStrategy::Scan, NeighborStrategy::Exact] {
            let cache = GroupCache::build(&zvecs, strategy);
            // Doubling τ sweep, like the diameter-guess loop, up to the
            // first τ > len.
            let mut tau = 1usize;
            while tau < 2 * (len + 1) {
                let fresh = NeighborIndex::build(&zvecs, tau, strategy);
                let cached = cache.index(tau);
                prop_assert_eq!(
                    &cached.adjacency(), &fresh.adjacency(),
                    "{:?} cached edge set diverges at n={} len={} τ={}",
                    strategy, n, len, tau
                );
                let a = cache.cluster(tau, min_size);
                let b = fresh.peel(min_size);
                prop_assert_eq!(&a.assignment, &b.assignment);
                prop_assert_eq!(&a.clusters, &b.clusters);
                let reference = peel_clusters(&zvecs, &neighbor_graph(&zvecs, tau), min_size);
                prop_assert_eq!(
                    &a, &reference,
                    "{:?} cached clustering diverges from the reference at n={} len={} τ={}",
                    strategy, n, len, tau
                );
                tau *= 2;
            }
        }
    }

    /// Warm-start refresh: perturbing a few rows and `refresh`ing the
    /// cache must give bit-identical clusterings to a cold rebuild, while
    /// reporting the untouched rows as reused.
    #[test]
    fn group_cache_refresh_equals_cold_build(seed in 500u64..530, n in 4usize..30, len in 16usize..200, touched in 1usize..6) {
        let zvecs = mixed_zvecs(seed, n, len, (len / 16).max(1));
        for strategy in [NeighborStrategy::Auto, NeighborStrategy::Scan] {
            let mut cache = GroupCache::build(&zvecs, strategy);
            let mut drifted = zvecs.clone();
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xd21f7);
            for _ in 0..touched.min(n) {
                let p = rng.gen_range(0..n);
                drifted[p].flip(rng.gen_range(0..len));
            }
            let reused = cache.refresh(&drifted);
            // Flips may collide on the same row, so the untouched count
            // is a lower bound.
            prop_assert!(reused >= n.saturating_sub(touched.min(n)));
            let cold = GroupCache::build(&drifted, strategy);
            for tau in [1usize, len / 8 + 1, len / 2] {
                let a = cache.cluster(tau, 2);
                let b = cold.cluster(tau, 2);
                prop_assert_eq!(&a.assignment, &b.assignment, "{:?} τ={}", strategy, tau);
                prop_assert_eq!(&a.clusters, &b.clusters);
            }
        }
    }

    /// Heavy duplication (few distinct vectors, many copies): grouping's
    /// collapse regime, checked against brute force.
    #[test]
    fn grouped_heavy_duplication_equals_exact(seed in 300u64..330, distinct in 1usize..6, copies in 1usize..8, len in 16usize..120, t_raw in 0usize..130) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let base: Vec<BitVec> = (0..distinct).map(|_| BitVec::random(&mut rng, len)).collect();
        let n = distinct * copies;
        let zvecs: Vec<BitVec> = (0..n).map(|i| base[i % distinct].clone()).collect();
        let threshold = t_raw % (len + 2);
        let grouped = NeighborIndex::build(&zvecs, threshold, NeighborStrategy::Auto);
        let brute = brute_adjacency(&zvecs, threshold);
        prop_assert_eq!(&grouped.adjacency(), &brute);
        let min_size = (copies / 2).max(1);
        let reference = peel_clusters(&zvecs, &brute, min_size);
        prop_assert_eq!(grouped.peel(min_size), reference);
    }
}

/// Rows longer than `u16::MAX` bits: distance cells saturate there, in
/// the exact index's table and in the rows the scan computes alike, so
/// pairs placed just below, at and just above 65 535 apart, with `τ` on
/// both sides of each, pin the rule that keeps every edge decision exact
/// (a saturated cell is re-verified once `τ` reaches it). Fresh and
/// cached indexes, under `Exact`, `Auto` and `Scan`, must equal the
/// player-level reference.
#[test]
fn exact_index_is_exact_past_u16_distances() {
    let len = 70_000usize;
    let flipped = |count: usize| {
        let mut v = BitVec::zeros(len);
        for i in 0..count {
            v.flip(i);
        }
        v
    };
    // Distances from row 0: 65 534, 65 535, 65 536, 65 537 and 70 000;
    // rows 0 and 2 carry a duplicate each, so groups have multiplicity.
    let zvecs = vec![
        flipped(0),
        flipped(65_534),
        flipped(65_535),
        flipped(65_536),
        flipped(65_537),
        flipped(len),
        flipped(0),
        flipped(65_535),
    ];
    assert_eq!(zvecs[0].hamming(&zvecs[2]), usize::from(u16::MAX));
    let taus = [
        3usize, 4_464, 65_533, 65_534, 65_535, 65_536, 65_537, 69_999, 70_000,
    ];
    for strategy in [
        NeighborStrategy::Exact,
        NeighborStrategy::Auto,
        NeighborStrategy::Scan,
    ] {
        let cache = GroupCache::build(&zvecs, strategy);
        for tau in taus {
            let adjacency = neighbor_graph(&zvecs, tau);
            for idx in [
                NeighborIndex::build(&zvecs, tau, strategy),
                cache.index(tau),
            ] {
                let mode = match strategy {
                    _ if tau >= len => "complete",
                    NeighborStrategy::Scan => "scan",
                    _ => "exact",
                };
                assert_eq!(idx.mode_name(), mode, "{strategy:?} τ={tau}");
                assert_eq!(idx.adjacency(), adjacency, "{strategy:?} τ={tau}");
                // 9 > n: no seed qualifies, so every player is a leftover.
                for min_size in [1usize, 3, 5, 8, 9] {
                    assert_eq!(
                        idx.peel(min_size),
                        peel_clusters(&zvecs, &adjacency, min_size),
                        "{strategy:?} τ={tau} min={min_size}"
                    );
                }
            }
        }
    }
}

/// Deterministic large-ish forced-scan case with multiple peels and
/// leftovers, at the low `τ` that once took wide (20-bit) exact-match
/// bands: 640-bit world, τ = 30.
#[test]
fn banded_bucket_mode_multi_peel() {
    let zvecs = mixed_zvecs(7, 400, 640, 8);
    let threshold = 30;
    let scan = NeighborIndex::build(&zvecs, threshold, NeighborStrategy::Scan);
    assert_eq!(scan.mode_name(), "scan");
    let exact = NeighborIndex::build(&zvecs, threshold, NeighborStrategy::Exact);
    assert_eq!(scan.adjacency(), exact.adjacency());
    for min_size in [3usize, 40, 90] {
        let a = scan.peel(min_size);
        let b = peel_clusters(&zvecs, &exact.adjacency(), min_size);
        assert_eq!(a.assignment, b.assignment, "min_size={min_size}");
        assert_eq!(a.clusters, b.clusters, "min_size={min_size}");
    }
}

/// Deterministic mid-`τ` forced-scan cases with multiple peels: 640-bit
/// world at thresholds that once split into exact-match bands of 13 and
/// 8 bits (τ = 45, 79) and, one bit narrower and far beyond, went to the
/// popcount-prefiltered scan (τ = 80, 160).
#[test]
fn narrow_bands_and_scan_modes_multi_peel() {
    let zvecs = mixed_zvecs(9, 300, 640, 10);
    for threshold in [45usize, 79, 80, 160] {
        let idx = NeighborIndex::build(&zvecs, threshold, NeighborStrategy::Scan);
        assert_eq!(idx.mode_name(), "scan", "τ={threshold}");
        let exact = NeighborIndex::build(&zvecs, threshold, NeighborStrategy::Exact);
        assert_eq!(idx.adjacency(), exact.adjacency(), "τ={threshold}");
        for min_size in [3usize, 30, 80] {
            let a = idx.peel(min_size);
            let b = peel_clusters(&zvecs, &exact.adjacency(), min_size);
            assert_eq!(a.assignment, b.assignment, "τ={threshold} min={min_size}");
            assert_eq!(a.clusters, b.clusters, "τ={threshold} min={min_size}");
        }
    }
}

/// Deterministic case with duplicates spread across camps: ~330 groups,
/// so `Auto` tabulates the representative distances.
#[test]
fn grouped_bucket_mode_multi_peel() {
    let mut zvecs = mixed_zvecs(11, 380, 640, 6);
    // Triple every fifth vector so groups have real multiplicity.
    for i in (0..380).step_by(5) {
        let v = zvecs[i].clone();
        zvecs.push(v.clone());
        zvecs.push(v);
    }
    let grouped = NeighborIndex::build(&zvecs, 30, NeighborStrategy::Auto);
    assert_eq!(grouped.mode_name(), "exact");
    // `Auto` and `Exact` are the same construction at this size, so the
    // reference here is the player-level definition.
    let exact = neighbor_graph(&zvecs, 30);
    assert_eq!(grouped.adjacency(), exact);
    assert_eq!(
        grouped.degrees(),
        exact.iter().map(Vec::len).collect::<Vec<_>>()
    );
    for min_size in [3usize, 40, 90] {
        let a = grouped.peel(min_size);
        let b = peel_clusters(&zvecs, &exact, min_size);
        assert_eq!(a.assignment, b.assignment, "min_size={min_size}");
        assert_eq!(a.clusters, b.clusters, "min_size={min_size}");
    }
}

/// The production-scale case e13 hits: more than `AUTO_EXACT_MAX` groups
/// survive dedup, so `Auto` builds no table and scans the
/// representatives. 400 camps × (center + 12 single-bit variants),
/// centers duplicated ×2 ⇒ n = 6000, G = 5200 > 4096, at τ = 6 over
/// 512-bit vectors. Pinned against the forced exact index over the same
/// representatives, which the other tests pin against brute force.
#[test]
fn grouped_with_scanned_inner_index() {
    let len = 512usize;
    let mut rng = SmallRng::seed_from_u64(17);
    let mut zvecs: Vec<BitVec> = Vec::new();
    for _ in 0..400 {
        let center = BitVec::random(&mut rng, len);
        for _ in 0..3 {
            zvecs.push(center.clone());
        }
        for j in 0..12 {
            let mut v = center.clone();
            v.flip(j * 41); // single distinct flip ⇒ within-camp distance ≤ 2
            zvecs.push(v);
        }
    }
    assert_eq!(zvecs.len(), 6000);
    let tau = 6usize;
    let cache = GroupCache::build(&zvecs, NeighborStrategy::Auto);
    assert_eq!(cache.group_count(), Some(5200));
    let grouped = cache.index(tau);
    assert_eq!(grouped.mode_name(), "scan");
    let exact = NeighborIndex::build(&zvecs, tau, NeighborStrategy::Exact);
    assert_eq!(exact.mode_name(), "exact");
    assert_eq!(grouped.degrees(), exact.degrees());
    for p in [0usize, 1, 14, 2999, 5999] {
        assert_eq!(grouped.neighbors_of(p), exact.neighbors_of(p), "player {p}");
    }
    for min_size in [10usize, 15] {
        let a = grouped.peel(min_size);
        let b = exact.peel(min_size);
        assert_eq!(a.assignment, b.assignment, "min_size={min_size}");
        assert_eq!(a.clusters, b.clusters, "min_size={min_size}");
        assert!(a.is_partition());
    }
}

/// The serving-size case: 96 players over 5 distinct vectors under `Auto`.
/// Grouping happens at every `n`, so the cache holds 5 groups, a refresh
/// on unchanged rows reuses all 96 hashes, and the peel still equals the
/// player-level reference.
#[test]
fn small_sessions_are_grouped_and_refresh_reuses_rows() {
    let mut rng = SmallRng::seed_from_u64(23);
    let mut distinct: Vec<BitVec> = vec![BitVec::random(&mut rng, 128)];
    for flips in [2usize, 4, 64, 66] {
        let mut v = distinct[0].clone();
        v.flip_random_distinct(&mut rng, flips);
        distinct.push(v);
    }
    let zvecs: Vec<BitVec> = (0..96).map(|i| distinct[i % 5].clone()).collect();
    let mut cache = GroupCache::build(&zvecs, NeighborStrategy::Auto);
    assert_eq!(cache.group_count(), Some(5));
    assert_eq!(cache.refresh(&zvecs), 96);
    assert_eq!(cache.group_count(), Some(5));
    for (tau, min_size) in [(0usize, 10usize), (5, 30), (5, 60), (70, 96)] {
        let reference = peel_clusters(&zvecs, &neighbor_graph(&zvecs, tau), min_size);
        assert_eq!(
            cache.cluster(tau, min_size),
            reference,
            "τ={tau} min={min_size}"
        );
    }
}
