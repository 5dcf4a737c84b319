//! `blocks` and `core`: Figure 2 re-enacted outside `Session::run`, phase by
//! phase, so each phase can be timed from the harness; then the grouped
//! discovery of the `batch_scale` world and the warm-start recompute a
//! service barrier pays for.
//!
//! The re-enactment makes the calls `calculate_preferences` makes, in its
//! order, under its scope paths and private-stream tags, so it reproduces
//! the run's outputs bit for bit — which the ledger checks (`err_max`
//! equal) before it trusts the phase times.

use std::sync::Arc;

use byzscore::cluster::GroupCache;
use byzscore::sampling::choose_sample;
use byzscore::share::share_work;
use byzscore::{
    cluster_players_with, Algorithm, ClusterSpec, DriftSchedule, DriftingTruth, ProceduralTruth,
    ProtocolParams, Session, TruthSource, WarmStart,
};
use byzscore_adversary::{Behaviors, Corruption, Inverter, Phase};
use byzscore_bitset::{BitVec, Bits};
use byzscore_blocks::{small_radius, zero_radius, Ctx, StreamingRSelect};
use byzscore_board::par::{par_map_items, par_map_players, par_update_items, set_thread_limit};
use byzscore_board::{Board, Oracle};
use byzscore_random::{choose_k, partition_into, tags, Beacon};
use rand::rngs::SmallRng;

use super::{seconds, Ledger};
use crate::stats::{mean, median};
use crate::workloads::batch::{paper_session, scale_session, BUDGET, PAPER_PLAYERS, SCALE_PLAYERS};
use crate::workloads::serve;
use crate::workloads::Config;

/// `calculate_preferences`'s private scope tag (`CALC_TAG` in
/// `crates/core/src/protocol.rs`) and the scope path `Session::run` passes.
const CALC_TAG: u64 = 0xca1c;
const SCOPE_PATH: [u64; 1] = [0];

/// Seconds and probes per phase, summed over the diameter guesses.
#[derive(Default)]
struct Phases {
    sample_s: f64,
    small_radius_s: f64,
    small_radius_probes: u64,
    cluster_s: f64,
    share_s: f64,
    share_probes: u64,
    rselect_s: f64,
    rselect_probes: u64,
    rselect_peak_bytes: u64,
    err_max: u64,
}

impl Phases {
    fn total_s(&self) -> f64 {
        self.sample_s + self.small_radius_s + self.cluster_s + self.share_s + self.rselect_s
    }
}

/// An honest player's tournament and private stream (as `FusedSelect`
/// keeps them); `None` for a dishonest player.
type Tournament = Option<(StreamingRSelect, SmallRng)>;

/// Figure 2 for one run seed, one timed call per phase per guess.
fn reenact(session: &Session, run_seed: u64) -> Phases {
    let truth = session.truth().clone();
    let (n, m) = (truth.players(), truth.objects());
    let params = session.params();
    let mask = Corruption::Count {
        count: Corruption::paper_threshold(n, BUDGET),
    }
    .select_mask(n, session.planted(), run_seed);
    let behaviors = Behaviors::new(truth.as_ref(), mask, &Inverter);
    let oracle = Oracle::new(truth.clone());
    let board = Board::new();
    let ctx = Ctx::new(
        &oracle,
        &board,
        &behaviors,
        Beacon::honest(run_seed),
        &params.blocks,
    );
    let probes = || oracle.ledger().total();

    let players: Vec<u32> = (0..n as u32).collect();
    let all_objects: Vec<u32> = (0..m as u32).collect();
    let mut phases = Phases::default();
    let mut tournaments: Vec<Tournament> = players
        .iter()
        .map(|&p| {
            (!behaviors.is_dishonest(p)).then(|| {
                (
                    StreamingRSelect::new(&ctx),
                    ctx.player_rng(p, &[CALC_TAG, SCOPE_PATH[0]]),
                )
            })
        })
        .collect();

    for (di, &diameter) in params.diameter_guesses(n, m).iter().enumerate() {
        let path = [SCOPE_PATH[0], CALC_TAG, di as u64];

        let (sample, wall) =
            seconds(|| choose_sample(&ctx.beacon, n, m, diameter, params.c_sample));
        phases.sample_s += wall;

        let before = probes();
        let (z, wall) =
            seconds(|| small_radius(&ctx, &players, &sample, params.sample_diameter(n), &path));
        phases.small_radius_s += wall;
        phases.small_radius_probes += probes() - before;

        let (clustering, wall) = seconds(|| {
            cluster_players_with(
                &z,
                params.edge_threshold(n),
                params.peel_min_size(n),
                params.neighbor_strategy,
            )
        });
        phases.cluster_s += wall;

        let before = probes();
        let (w_d, wall) =
            seconds(|| share_work(&ctx, &clustering, m, params.probe_reps(n), &path, false));
        phases.share_s += wall;
        phases.share_probes += probes() - before;

        let before = probes();
        let ((), wall) = seconds(|| {
            let mut pairs: Vec<(Option<BitVec>, &mut Tournament)> = w_d
                .into_iter()
                .map(Some)
                .zip(tournaments.iter_mut())
                .collect();
            par_update_items(&mut pairs, |p, (candidate, tournament)| {
                if let Some((select, rng)) = tournament.as_mut() {
                    let candidate = candidate.take().expect("candidate consumed once");
                    select.push(&ctx, p as u32, candidate, &all_objects, rng);
                }
            });
        });
        phases.rselect_s += wall;
        phases.rselect_probes += probes() - before;
        board.retire_prefix(&path);
    }

    // Step 2 epilogue: close every tournament.
    let before = probes();
    let mut closing: Vec<(Tournament, Option<BitVec>)> =
        tournaments.into_iter().map(|t| (t, None)).collect();
    let ((), wall) = seconds(|| {
        par_update_items(&mut closing, |p, (tournament, out)| {
            *out = Some(match tournament.as_mut() {
                Some((select, rng)) => select.finish_round(&ctx, p as u32, &all_objects, rng).1,
                None => behaviors.vector_claim(Phase::Other, p as u32, &all_objects),
            });
        });
    });
    phases.rselect_s += wall;
    phases.rselect_probes += probes() - before;

    for (p, (tournament, out)) in closing.iter().enumerate() {
        if let Some((select, _)) = tournament {
            phases.rselect_peak_bytes += select.peak_bytes();
            let error = out
                .as_ref()
                .expect("every player produced an output")
                .hamming(&truth.row(p as u32));
            phases.err_max = phases.err_max.max(error as u64);
        }
    }
    phases
}

/// The `ZeroRadius` calls `SmallRadius` makes for every guess — same
/// partitions, same budget, same scope paths — replayed on their own.
fn zero_radius_alone(session: &Session, run_seed: u64) -> f64 {
    let truth = session.truth().clone();
    let (n, m) = (truth.players(), truth.objects());
    let params = session.params();
    let behaviors = Behaviors::all_honest(truth.as_ref());
    let oracle = Oracle::new(truth.clone());
    let board = Board::new();
    let ctx = Ctx::new(
        &oracle,
        &board,
        &behaviors,
        Beacon::honest(run_seed),
        &params.blocks,
    );
    let players: Vec<u32> = (0..n as u32).collect();
    let blocks = &params.blocks;
    let iters = ((blocks.c_sr_iters * ctx.log2_n() as f64).ceil() as usize).max(2);
    let budget = (blocks.sr_budget_mult * blocks.budget_b).max(1);
    let mut total = 0.0;
    for (di, &diameter) in params.diameter_guesses(n, m).iter().enumerate() {
        let sample = choose_sample(&ctx.beacon, n, m, diameter, params.c_sample);
        let parts = (((params.sample_diameter(n).max(1) as f64).powf(1.5) / blocks.sr_subset_scale)
            .ceil() as usize)
            .clamp(1, sample.len().max(1));
        for t in 0..iters {
            let path = [SCOPE_PATH[0], CALC_TAG, di as u64];
            let mut rng =
                ctx.beacon
                    .sub_rng(&[tags::SR_PARTITION, path[0], path[1], path[2], t as u64]);
            let groups = partition_into(&mut rng, &sample, parts);
            let indexed: Vec<(usize, &Vec<u32>)> = groups.iter().enumerate().collect();
            let ((), wall) = seconds(|| {
                par_map_items(&indexed, |&(gi, group)| {
                    if !group.is_empty() {
                        let zr_path = [
                            path[0],
                            path[1],
                            path[2],
                            0x5a11,
                            ((t as u64) << 32) | gi as u64,
                        ];
                        std::hint::black_box(zero_radius(&ctx, &players, group, budget, &zr_path));
                    }
                });
            });
            total += wall;
        }
        board.retire_prefix(&[SCOPE_PATH[0], CALC_TAG, di as u64]);
    }
    total
}

/// What `board::par` buys one whole `Session::run`: wall at a budget of
/// one thread ÷ wall at the default budget (above 1, the default budget is
/// the faster). Three runs each way, interleaved so both sides see the same
/// host; medians.
fn par_ratio(session: &Session, algorithm: Algorithm, seed: u64) -> f64 {
    let (mut default_budget, mut one_thread) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        default_budget.push(session.run(algorithm, seed).elapsed.as_secs_f64());
        set_thread_limit(Some(1));
        one_thread.push(session.run(algorithm, seed).elapsed.as_secs_f64());
        set_thread_limit(None);
    }
    median(&one_thread) / median(&default_budget)
}

/// Grouped neighbour discovery on the `batch_scale` world: `NaiveSampling`'s
/// z-vectors, one `GroupCache::build`, one `cluster` per guess, and a
/// `refresh` after 1 % of the rows change.
fn grouped_discovery(cfg: &Config, session: &Session, ledger: &mut Ledger) {
    let params = session.params();
    let truth = session.truth().clone();
    let (n, m) = (truth.players(), truth.objects());
    let oracle = Oracle::new(truth);
    let beacon = Beacon::honest(cfg.seed + 1);
    let ln_n = (n.max(2) as f64).ln();
    let size = ((params.naive_sample_mult * BUDGET as f64 * ln_n).ceil() as usize).clamp(1, m);
    let sample = choose_k(&mut beacon.sub_rng(&[tags::SAMPLE, 0x7a1e]), m, size);
    let mut zvecs: Vec<BitVec> = par_map_players(n, |p| {
        BitVec::from_fn(sample.len(), |k| oracle.probe(p as u32, sample[k]))
    });

    let (mut cache, wall) = seconds(|| GroupCache::build(&zvecs, params.neighbor_strategy));
    ledger.put("core.cluster_build_s", wall);
    ledger.count(
        "core.cluster_groups",
        cache.group_count().unwrap_or(n) as u64,
    );

    let min_cluster = params.peel_min_size(n);
    let mut index_s = 0.0;
    for &diameter in &params.diameter_guesses(n, m) {
        let tau = ((3.0 * sample.len() as f64 * diameter as f64 / m as f64).ceil() as usize).max(1);
        let (clustering, wall) = seconds(|| cache.cluster(tau, min_cluster));
        std::hint::black_box(clustering);
        index_s += wall;
    }
    ledger.put("core.cluster_index_s", index_s);

    for row in zvecs.iter_mut().step_by(100) {
        row.flip(0);
    }
    let (reused, wall) = seconds(|| cache.refresh(&zvecs));
    ledger.put("core.cluster_refresh_s", wall);
    ledger.check(reused > 0 || cfg.smoke, || {
        "GroupCache::refresh reused no row after a 1 % change".to_string()
    });
}

/// What a service barrier pays for: `Session::evolved` + `WarmStart` on
/// the service workloads' session shape, against a cold session over the
/// same drifted world.
fn warm_start(cfg: &Config, ledger: &mut Ledger) {
    let shape = serve::spec(cfg.seed, 0, serve::READ_MIX);
    let spec = ClusterSpec {
        players: shape.players,
        objects: shape.objects,
        clusters: shape.clusters,
        diameter: shape.diameter,
        seed: cfg.seed,
    };
    let build = |warm: Option<Arc<WarmStart>>| {
        let builder = Session::builder()
            .procedural(spec.clone())
            .params(ProtocolParams::with_budget(shape.budget))
            .adversary(
                Corruption::Count {
                    count: shape.corrupt,
                },
                Inverter,
            );
        match warm {
            Some(warm) => builder.warm_start(warm).build(),
            None => builder.build(),
        }
    };
    let warm = Arc::new(WarmStart::new());
    let resident = build(Some(warm.clone()));
    std::hint::black_box(resident.run(Algorithm::NaiveSampling, cfg.seed));

    let pool: Arc<dyn TruthSource> = Arc::new(ProceduralTruth::new(spec.clone()));
    let drift = DriftingTruth::new(
        pool,
        DriftSchedule::uniform(f64::from(shape.drift_ppm) / 1e6, cfg.seed),
    );
    let epochs: u64 = if cfg.smoke { 3 } else { 24 };
    let (mut cold_ms, mut evolved_ms, mut reused) = (Vec::new(), Vec::new(), 0);
    for epoch in 1..=epochs {
        let world: Arc<dyn TruthSource> = Arc::new(drift.at_epoch(epoch));
        let evolved = resident.evolved(world.clone(), resident.planted().cloned());
        let (warm_out, wall) = seconds(|| evolved.run(Algorithm::NaiveSampling, cfg.seed));
        evolved_ms.push(wall * 1e3);
        reused += warm.last_reused_rows() as u64;
        let cold = build(None).evolved(world, resident.planted().cloned());
        let (cold_out, wall) = seconds(|| cold.run(Algorithm::NaiveSampling, cfg.seed));
        cold_ms.push(wall * 1e3);
        ledger.check(warm_out.output == cold_out.output, || {
            format!("epoch {epoch}: warm-started scores differ from a cold session's")
        });
    }
    // The same cold run on a world 256 epochs old: `DriftingTruth` replays
    // every past epoch on each truth read, so a session's recompute gets
    // dearer as it ages.
    let aged: Arc<dyn TruthSource> = Arc::new(drift.at_epoch(256));
    let cold = build(None).evolved(aged, resident.planted().cloned());
    let (_, wall) = seconds(|| cold.run(Algorithm::NaiveSampling, cfg.seed));
    ledger.put("core.cold_aged_ms", wall * 1e3);
    ledger.put("core.cold_ms", mean(&cold_ms));
    ledger.put("core.evolved_ms", mean(&evolved_ms));
    ledger.put("core.warm_reused_rows", reused as f64 / epochs as f64);
}

pub fn probe(cfg: &Config, ledger: &mut Ledger) {
    let players = if cfg.smoke { 96 } else { PAPER_PLAYERS };
    let session = paper_session(players, cfg.seed);
    let run_seed = cfg.seed + 1;
    // The run the re-enactment is held against (after a warm-up).
    std::hint::black_box(session.run(Algorithm::CalculatePreferences, cfg.seed));
    let outcome = session.run(Algorithm::CalculatePreferences, run_seed);
    let phases = reenact(&session, run_seed);
    ledger.check(phases.err_max == outcome.errors.max as u64, || {
        format!(
            "Figure 2 re-enactment err_max {} differs from Session::run's {}",
            phases.err_max, outcome.errors.max
        )
    });
    let run_s = outcome.elapsed.as_secs_f64();

    ledger.count("board.probes_total", outcome.probes.total());
    ledger.count("board.probes_max", outcome.max_honest_probes);
    ledger.count("board.claim_posts", outcome.board.claim_posts);
    ledger.count("board.peak_claim_slots", outcome.board.peak_claim_slots);

    ledger.put("blocks.small_radius_s", phases.small_radius_s);
    ledger.count("blocks.small_radius_probes", phases.small_radius_probes);
    ledger.put(
        "blocks.zero_radius_s",
        zero_radius_alone(&session, run_seed),
    );
    ledger.put("blocks.rselect_s", phases.rselect_s);
    ledger.count("blocks.rselect_probes", phases.rselect_probes);
    ledger.count("blocks.rselect_peak_bytes", phases.rselect_peak_bytes);

    ledger.put("core.sample_s", phases.sample_s);
    ledger.put("core.cluster_exact_s", phases.cluster_s);
    ledger.put("core.share_s", phases.share_s);
    ledger.count("core.share_probes", phases.share_probes);
    ledger.put("core.run_s", run_s);
    ledger.put("core.run_self_s", run_s - phases.total_s());
    ledger.count("core.err_max", phases.err_max);
    ledger.put(
        "core.par_ratio.paper",
        par_ratio(&session, Algorithm::CalculatePreferences, run_seed),
    );

    let players = if cfg.smoke { 512 } else { SCALE_PLAYERS };
    let scale = scale_session(players, cfg.seed);
    grouped_discovery(cfg, &scale, ledger);
    ledger.put(
        "core.par_ratio.scale",
        par_ratio(&scale, Algorithm::NaiveSampling, run_seed),
    );
    warm_start(cfg, ledger);
}
