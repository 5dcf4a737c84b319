//! Baseline algorithms the paper compares against (§1, §4, §6.2).
//!
//! * [`naive_sampling`] — the "natural approach" of §6.2 and our proxy for
//!   the prior state of the art \[2,3\]: every player *directly probes* a
//!   fixed public sample of `Θ(B log n)` objects (no collaborative
//!   compression), clusters on raw sample distances, and shares work
//!   **without redundancy** (single probe per object — prior art claimed no
//!   Byzantine tolerance). With a fixed-size sample the distance resolution
//!   is only `m/(B log n) · log n ≈ m/B`, which is exactly why this family
//!   is a `B`-approximation rather than a constant-factor one.
//! * [`solo`] — no collaboration: probe `B log n` random objects yourself,
//!   fill the rest with the global majority of everyone's posted probes.
//! * [`global_majority`] — one big cluster: majority-vote every object over
//!   the whole population (ignores all preference structure).
//! * [`oracle_clusters`] — skyline: work-sharing on the *planted* clusters
//!   (discovery is free and perfect). No real algorithm can beat it; it
//!   anchors the approximation ratios of E7/E11.

use byzscore_adversary::Phase;
use byzscore_bitset::{BitVec, ColumnCounter};
use byzscore_blocks::Ctx;
use byzscore_board::par::par_map_players;
use byzscore_model::Planted;
use byzscore_random::{choose_k, tags};

use crate::cluster::{Clustering, GroupCache};
use crate::fused::FusedSelect;
use crate::share::share_work;
use crate::ProtocolParams;

/// §6.2's "natural approach" / prior-art proxy (see module docs).
///
/// Unlike Figure 2, the naive sample `R` is drawn **once** — the z-vectors
/// are the same for every diameter guess, only the edge threshold `τ`
/// changes. So hash-grouping is done once in a [`GroupCache`] and each
/// guess merely re-bands the group representatives for its `τ`, instead of
/// redoing the full `n`-row discovery `guesses` times.
pub fn naive_sampling(ctx: &Ctx<'_>, params: &ProtocolParams) -> Vec<BitVec> {
    let n = ctx.n();
    let m = ctx.oracle.objects();
    let b = params.budget();
    let ln_n = (n.max(2) as f64).ln();

    // Fixed public sample R of Θ(B log n) objects.
    let r_size = ((params.naive_sample_mult * b as f64 * ln_n).ceil() as usize).clamp(1, m);
    let mut rng = ctx.beacon.sub_rng(&[tags::SAMPLE, 0x7a1e]);
    let sample = choose_k(&mut rng, m, r_size);

    // Every player probes all of R directly.
    let zvecs: Vec<BitVec> = par_map_players(n, |p| {
        let p32 = p as u32;
        if ctx.behaviors.is_dishonest(p32) {
            ctx.behaviors
                .vector_claim(Phase::ClusterFormation, p32, &sample)
        } else {
            BitVec::from_fn(sample.len(), |k| ctx.oracle.probe(p32, sample[k]))
        }
    });

    // Group the z-vectors ONCE — they are guess-invariant (see above).
    let cache = GroupCache::build(&zvecs, params.neighbor_strategy);

    // Doubling diameter guesses on raw sample distances; share work with
    // NO redundancy (prior art's non-robust sharing). Each guess's
    // candidate streams straight into the per-player RSelect tournaments,
    // so only surviving candidates stay resident.
    let min_cluster = params.peel_min_size(n);
    let all_objects: Vec<u32> = (0..m as u32).collect();
    let mut fused = FusedSelect::new(ctx, &[0x7a1e]);
    for (di, &diameter) in params.diameter_guesses(n, m).iter().enumerate() {
        // Expected sample distance of a D-pair is |R|·D/m; edge at 3×.
        let tau = ((3.0 * sample.len() as f64 * diameter as f64 / m as f64).ceil() as usize).max(1);
        let clustering = cache.cluster(tau, min_cluster);
        let w_d = share_work(ctx, &clustering, m, 1, &[0x7a1e, di as u64], false);
        fused.absorb(ctx, w_d, &all_objects);
        // This guess's vote record is dead once its candidate is absorbed.
        ctx.board.retire_prefix(&[0x7a1e, di as u64]);
    }

    fused.finish(ctx, &all_objects)
}

/// No collaboration beyond a public pool of probe results.
pub fn solo(ctx: &Ctx<'_>, params: &ProtocolParams) -> Vec<BitVec> {
    let n = ctx.n();
    let m = ctx.oracle.objects();
    let ln_n = (n.max(2) as f64).ln();
    let budget = ((params.budget() as f64 * ln_n).ceil() as usize).clamp(1, m);

    // Everyone probes their own random objects and posts the results.
    let scope = ctx.board.scope(&[0x5010]);
    let probes: Vec<Vec<(u32, bool)>> = par_map_players(n, |p| {
        let p32 = p as u32;
        let mut rng = ctx.player_rng(p32, &[0x5010]);
        let picks = choose_k(&mut rng, m, budget);
        picks
            .into_iter()
            .map(|o| {
                let v = if ctx.behaviors.is_dishonest(p32) {
                    ctx.behaviors.bit_claim(Phase::WorkSharing, p32, o)
                } else {
                    ctx.oracle.probe(p32, o)
                };
                scope.post_claim(p32, o, v);
                (o, v)
            })
            .collect()
    });

    // Global per-object majority over all posted claims.
    let mut counter = ColumnCounter::new(m);
    for player_probes in &probes {
        for &(o, v) in player_probes {
            counter.add_bit(o as usize, v, 1);
        }
    }
    let majority = counter.majority(false);

    par_map_players(n, |p| {
        let mut out = majority.clone();
        for &(o, v) in &probes[p] {
            out.set(o as usize, v);
        }
        out
    })
}

/// Majority vote over the whole population for every object.
pub fn global_majority(ctx: &Ctx<'_>, params: &ProtocolParams) -> Vec<BitVec> {
    let n = ctx.n();
    let m = ctx.oracle.objects();
    let clustering = Clustering {
        assignment: vec![0; n],
        clusters: vec![(0..n as u32).collect()],
    };
    share_work(ctx, &clustering, m, params.probe_reps(n), &[0x610b], false)
}

/// Skyline: perfect, free cluster discovery from the planted structure.
pub fn oracle_clusters(
    ctx: &Ctx<'_>,
    params: &ProtocolParams,
    planted: Option<&Planted>,
) -> Vec<BitVec> {
    let n = ctx.n();
    let m = ctx.oracle.objects();
    let clustering = match planted {
        Some(planted) => Clustering {
            assignment: planted.assignment.clone(),
            clusters: planted.clusters.clone(),
        },
        None => Clustering {
            assignment: vec![0; n],
            clusters: vec![(0..n as u32).collect()],
        },
    };
    share_work(
        ctx,
        &clustering,
        m,
        params.probe_reps(n),
        &[0x0e_ac1e],
        false,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use byzscore_adversary::Behaviors;
    use byzscore_bitset::Bits;
    use byzscore_board::{Board, Oracle};
    use byzscore_model::{Balance, Instance, Workload};
    use byzscore_random::Beacon;

    fn world(seed: u64) -> (Instance, ProtocolParams) {
        let inst = Workload::PlantedClusters {
            players: 64,
            objects: 64,
            clusters: 2,
            diameter: 4,
            balance: Balance::Even,
        }
        .generate(seed);
        (inst, ProtocolParams::with_budget(4))
    }

    #[test]
    fn oracle_clusters_is_tight() {
        let (inst, params) = world(3);
        let oracle = Oracle::new(inst.truth());
        let board = Board::new();
        let behaviors = Behaviors::all_honest(inst.truth());
        let ctx = Ctx::new(
            &oracle,
            &board,
            &behaviors,
            Beacon::honest(1),
            &params.blocks,
        );
        let out = oracle_clusters(&ctx, &params, inst.planted());
        let worst = (0..64)
            .map(|p| out[p].hamming(&inst.truth().row(p)))
            .max()
            .unwrap();
        assert!(worst <= 2 * 4, "skyline error {worst} > 2D");
    }

    #[test]
    fn solo_probes_its_budget_and_keeps_probed_bits() {
        let (inst, params) = world(5);
        let oracle = Oracle::new(inst.truth());
        let board = Board::new();
        let behaviors = Behaviors::all_honest(inst.truth());
        let ctx = Ctx::new(
            &oracle,
            &board,
            &behaviors,
            Beacon::honest(2),
            &params.blocks,
        );
        let out = solo(&ctx, &params);
        assert_eq!(out.len(), 64);
        // Solo probes min(m, B ln n) = 17 objects here, once each.
        let expected = ((4.0 * (64f64).ln()).ceil() as u64).min(64);
        assert_eq!(oracle.ledger().max(), expected);
        assert_eq!(oracle.ledger().total(), expected * 64);
    }

    #[test]
    fn global_majority_ignores_structure() {
        let inst = Workload::Anticorrelated {
            players: 32,
            objects: 40,
        }
        .generate(7);
        let params = ProtocolParams::with_budget(4);
        let oracle = Oracle::new(inst.truth());
        let board = Board::new();
        let behaviors = Behaviors::all_honest(inst.truth());
        let ctx = Ctx::new(
            &oracle,
            &board,
            &behaviors,
            Beacon::honest(3),
            &params.blocks,
        );
        let out = global_majority(&ctx, &params);
        // Anti-correlated camps: the global majority is ~half wrong for
        // every player (that is the point of this baseline).
        let err0 = out[0].hamming(&inst.truth().row(0));
        let err_last = out[31].hamming(&inst.truth().row(31));
        assert_eq!(err0 + err_last, 40, "camps split the majority exactly");
    }

    #[test]
    fn naive_sampling_runs_and_bounds_probes() {
        let (inst, params) = world(9);
        let oracle = Oracle::new(inst.truth());
        let board = Board::new();
        let behaviors = Behaviors::all_honest(inst.truth());
        let ctx = Ctx::new(
            &oracle,
            &board,
            &behaviors,
            Beacon::honest(4),
            &params.blocks,
        );
        let out = naive_sampling(&ctx, &params);
        assert_eq!(out.len(), 64);
        let worst = (0..64)
            .map(|p| out[p].hamming(&inst.truth().row(p)))
            .max()
            .unwrap();
        // B-approximation regime: allow B·D but expect sane behavior here.
        assert!(worst <= 4 * 4 * 4, "naive baseline error {worst} too large");
    }
}
