//! Criterion microbenchmarks for the hot kernels:
//! Hamming distance (full / bounded / masked), majority folds, vote
//! tallies, and neighbor discovery — the primitives every protocol phase
//! leans on. The `neighbor_index` group measures the graph level:
//! discovery + peel under each representative index (exact, banded,
//! multi-probe, and whatever `Auto` picks) on planted-cluster inputs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use byzscore::cluster::{neighbor_graph, GroupCache, NeighborIndex, NeighborStrategy};
use byzscore_bitset::{majority_fold, BitVec, Bits};
use byzscore_blocks::VoteTally;

fn bench_hamming(c: &mut Criterion) {
    let mut group = c.benchmark_group("hamming");
    for bits in [1024usize, 4096, 16384] {
        let mut rng = SmallRng::seed_from_u64(1);
        let a = BitVec::random(&mut rng, bits);
        let b = BitVec::random(&mut rng, bits);
        let mask = BitVec::random(&mut rng, bits);
        group.throughput(Throughput::Bytes((bits / 8) as u64));
        group.bench_with_input(BenchmarkId::new("full", bits), &bits, |bench, _| {
            bench.iter(|| std::hint::black_box(a.hamming(&b)));
        });
        group.bench_with_input(BenchmarkId::new("within-64", bits), &bits, |bench, _| {
            bench.iter(|| std::hint::black_box(a.hamming_within(&b, 64)));
        });
        group.bench_with_input(BenchmarkId::new("masked", bits), &bits, |bench, _| {
            bench.iter(|| std::hint::black_box(a.hamming_masked(&b, &mask)));
        });
    }
    group.finish();
}

fn bench_majority(c: &mut Criterion) {
    let mut group = c.benchmark_group("majority_fold");
    for voters in [8usize, 64, 256] {
        let mut rng = SmallRng::seed_from_u64(2);
        let vs: Vec<BitVec> = (0..voters)
            .map(|_| BitVec::random(&mut rng, 2048))
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(voters), &voters, |bench, _| {
            bench.iter(|| std::hint::black_box(majority_fold(&vs, false)));
        });
    }
    group.finish();
}

fn bench_vote_tally(c: &mut Criterion) {
    let mut group = c.benchmark_group("vote_tally");
    for classes in [2usize, 8, 32] {
        let mut rng = SmallRng::seed_from_u64(3);
        let reps: Vec<BitVec> = (0..classes)
            .map(|_| BitVec::random(&mut rng, 512))
            .collect();
        let votes: Vec<BitVec> = (0..512).map(|i| reps[i % classes].clone()).collect();
        group.bench_with_input(
            BenchmarkId::from_parameter(classes),
            &classes,
            |bench, _| {
                bench.iter(|| std::hint::black_box(VoteTally::tally(votes.iter()).entries.len()));
            },
        );
    }
    group.finish();
}

/// Planted-cluster sample vectors: `camps` tight camps of `per_camp`
/// players each, pairwise within-camp distance ≤ 2·`spread`.
fn camps(len: usize, camps: usize, per_camp: usize, spread: usize, seed: u64) -> Vec<BitVec> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let centers: Vec<BitVec> = (0..camps).map(|_| BitVec::random(&mut rng, len)).collect();
    let mut out = Vec::with_capacity(camps * per_camp);
    for center in &centers {
        for _ in 0..per_camp {
            let mut v = center.clone();
            v.flip_random_distinct(&mut rng, spread);
            out.push(v);
        }
    }
    out
}

fn bench_neighbor_graph(c: &mut Criterion) {
    let mut group = c.benchmark_group("neighbor_graph");
    group.sample_size(10);
    for players in [128usize, 512] {
        let zs = camps(1024, 1, players, 32, 4);
        group.bench_with_input(
            BenchmarkId::from_parameter(players),
            &players,
            |bench, _| {
                bench.iter(|| std::hint::black_box(neighbor_graph(&zs, 48).len()));
            },
        );
    }
    group.finish();
}

/// Graph-level: full neighbor discovery (group, then index the
/// representatives) and peel, one row per representative index. Labels name
/// the index the strategy lands on: forced `Exact`, forced `Banded` (which
/// is `banded` at τ = 10 and `multi-probe` at τ = 48 on 512-bit vectors),
/// and `auto`.
fn bench_neighbor_index(c: &mut Criterion) {
    use NeighborStrategy::{Auto, Banded, Exact};
    let mut group = c.benchmark_group("neighbor_index");
    group.sample_size(10);
    let all = [("exact", Exact), ("banded", Banded), ("auto", Auto)];
    let mid_tau = [
        ("exact-mid-tau", Exact),
        ("multi-probe", Banded),
        ("auto-mid-tau", Auto),
    ];
    // (label suffix, players, camps, spread, seed, τ, strategies).
    let inputs: [(&str, usize, usize, usize, u64, usize, &[_]); 6] = [
        // Many small clusters, nearly every vector distinct (G ≈ n) — where
        // pruning pays off most. `auto` at 512 and 8192 shows both sides of
        // `AUTO_EXACT_MAX`: representatives materialized vs banded.
        ("", 512, 8, 4, 5, 10, &all[2..]),
        ("", 1024, 16, 4, 5, 10, &all),
        ("", 4096, 64, 4, 5, 10, &all),
        ("", 8192, 128, 4, 5, 10, &all[2..]),
        // Heavy z-vector collapse (SmallRadius outputs inside planted
        // clusters), modeled as camps of exact duplicates — the group graph
        // has 64 nodes for 4096 players.
        ("-dup", 4096, 64, 0, 7, 10, &all),
        // Mid-τ regime (512/(48+1) = 10-bit exact bands would be too
        // narrow): `Banded` lands on single-bit-flip multi-probe bucketing.
        ("", 2048, 32, 4, 6, 48, &mid_tau),
    ];
    for (suffix, players, camps_n, spread, seed, tau, strategies) in inputs {
        let per = players / camps_n;
        let zs = camps(512, camps_n, per, spread, seed);
        for &(name, strategy) in strategies {
            let id = BenchmarkId::new(format!("{name}{suffix}"), players);
            group.bench_with_input(id, &players, |bench, _| {
                bench.iter(|| {
                    let idx = NeighborIndex::build(&zs, tau, strategy);
                    std::hint::black_box(idx.peel(per / 2).clusters.len())
                });
            });
        }
    }
    group.finish();
}

/// Cross-guess re-indexing: the naive baseline's guess loop runs discovery
/// once per diameter guess over the SAME z-vectors, only τ doubling. Cold
/// = a fresh `NeighborIndex::build` per guess (grouping redone every
/// time); warm = one `GroupCache` built up front, each guess re-indexing
/// the cached group representatives via `cache.cluster(τ, ·)`. Same τ
/// sweep, same peels — the gap is the per-guess hash-grouping work. The
/// input is grouping's collapse regime (duplicate camps, as SmallRadius
/// z-vectors inside planted clusters): there discovery per guess *is*
/// mostly the grouping pass, so warm runs the sweep in roughly one guess's
/// worth of grouping instead of |guesses| of them.
fn bench_rebanding(c: &mut Criterion) {
    let mut group = c.benchmark_group("rebanding");
    group.sample_size(10);
    let players = 16384usize;
    let zs = camps(512, 64, players / 64, 0, 9);
    let taus = [1usize, 2, 4, 8, 16, 32, 64, 128];
    let min_size = 32usize;
    group.bench_with_input(BenchmarkId::new("cold", players), &players, |bench, _| {
        bench.iter(|| {
            let mut total = 0usize;
            for &tau in &taus {
                let idx = NeighborIndex::build(&zs, tau, NeighborStrategy::Auto);
                total += idx.peel(min_size).clusters.len();
            }
            std::hint::black_box(total)
        });
    });
    group.bench_with_input(BenchmarkId::new("warm", players), &players, |bench, _| {
        bench.iter(|| {
            let cache = GroupCache::build(&zs, NeighborStrategy::Auto);
            let mut total = 0usize;
            for &tau in &taus {
                total += cache.cluster(tau, min_size).clusters.len();
            }
            std::hint::black_box(total)
        });
    });
    // Discovery phase only (pack + hash + group + band, no peel): the
    // peel above is clustering work both paths repeat per guess, so the
    // end-to-end pair understates the discovery drop. This pair isolates
    // it — cold rebuilds the cache per τ, warm builds once and re-bands.
    group.bench_with_input(
        BenchmarkId::new("discovery-cold", players),
        &players,
        |bench, _| {
            bench.iter(|| {
                for &tau in &taus {
                    let cache = GroupCache::build(&zs, NeighborStrategy::Auto);
                    std::hint::black_box(cache.index(tau));
                }
            });
        },
    );
    group.bench_with_input(
        BenchmarkId::new("discovery-warm", players),
        &players,
        |bench, _| {
            bench.iter(|| {
                let cache = GroupCache::build(&zs, NeighborStrategy::Auto);
                for &tau in &taus {
                    std::hint::black_box(cache.index(tau));
                }
            });
        },
    );
    group.finish();
}

criterion_group!(
    kernels,
    bench_hamming,
    bench_majority,
    bench_vote_tally,
    bench_neighbor_graph,
    bench_neighbor_index,
    bench_rebanding
);
criterion_main!(kernels);
