//! `bitset` and `board`: the kernels under everything else.

use std::hint::black_box;
use std::sync::Arc;

use byzscore_bitset::{kernel, BitMatrix, Bits};
use byzscore_board::par::{par_map_items, set_thread_limit};
use byzscore_board::{Board, ClusterSpec, DenseTruth, Oracle, ProceduralTruth, TruthSource};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use super::{ns_per_call, seconds, Ledger};
use crate::stats::median;
use crate::workloads::batch::{CLUSTERS, DIAMETER, OBJECTS};
use crate::workloads::Config;

/// Probes per oracle sample; `(player, object)` pairs repeat within it,
/// so memoized and first-time probes are both in the mix.
const PROBES: usize = 200_000;

fn probe_ns(truth: Arc<dyn TruthSource>) -> f64 {
    let (players, objects) = (truth.players() as u32, truth.objects() as u32);
    let oracle = Oracle::new(truth);
    ns_per_call(PROBES, |i| {
        let i = i as u32;
        black_box(oracle.probe(
            i.wrapping_mul(2_654_435_761) % players,
            i.wrapping_mul(40_503) % objects,
        ));
    })
}

pub fn probe(cfg: &Config, ledger: &mut Ledger) {
    let rows = if cfg.smoke { 64 } else { 512 };
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let matrix = BitMatrix::random(&mut rng, rows, OBJECTS);

    // bitset: one Hamming distance between two m-bit rows.
    ledger.put(
        "bitset.hamming_ns",
        ns_per_call(1_000_000, |i| {
            let (a, b) = (matrix.row(i % rows), matrix.row((i * 7 + 1) % rows));
            black_box(kernel::hamming_words(a.words(), b.words()));
        }),
    );
    ledger.put(
        "bitset.hamming_within_ns",
        ns_per_call(1_000_000, |i| {
            let (a, b) = (matrix.row(i % rows), matrix.row((i * 7 + 1) % rows));
            black_box(kernel::hamming_within_words(a.words(), b.words(), DIAMETER));
        }),
    );

    // board: metered truth access on both backends.
    ledger.put(
        "board.probe_ns.dense",
        probe_ns(Arc::new(DenseTruth::new(matrix))),
    );
    ledger.put(
        "board.probe_ns.procedural",
        probe_ns(Arc::new(ProceduralTruth::new(ClusterSpec {
            players: if cfg.smoke { 512 } else { 8192 },
            objects: OBJECTS,
            clusters: CLUSTERS,
            diameter: DIAMETER,
            seed: cfg.seed,
        }))),
    );

    // board: one claim post into a fresh `(scope, object, author)` slot.
    let posts = 100_000usize;
    let board = Board::new();
    let scope = board.scope(&[0x70_65_72_66]).id();
    let ((), wall) = seconds(|| {
        for i in 0..posts {
            board.post_claim(
                scope,
                (i / OBJECTS) as u32,
                (i % OBJECTS) as u32,
                i % 3 == 0,
            );
        }
    });
    ledger.put("board.post_claim_ns", wall * 1e9 / posts as f64);

    // board::par: what one parallel region costs with nothing to do. 64
    // items is past the 32-item sequential cutoff, so workers are spawned.
    let items: Vec<u32> = (0..64).collect();
    let region_ns = ns_per_call(500, |_| {
        black_box(par_map_items(&items, |&x| x));
    });
    ledger.put("board.par_region_us", region_ns / 1e3);

    // board::par: the same fixed spin work under a budget of one thread ÷
    // under the default budget.
    let spin = |&seed: &u32| {
        let mut x = u64::from(seed) | 1;
        for _ in 0..40_000 {
            x = black_box(x).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
        x
    };
    let spin_wall = || {
        let samples: Vec<f64> = (0..9)
            .map(|_| seconds(|| black_box(par_map_items(&items, spin))).1)
            .collect();
        median(&samples)
    };
    let default_budget = spin_wall();
    set_thread_limit(Some(1));
    let one_thread = spin_wall();
    set_thread_limit(None);
    ledger.put("board.par_speedup", one_thread / default_budget);
}
