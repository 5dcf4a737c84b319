//! E5–E8, E12: whole-protocol claims (honest analysis, §6 + Claim 2).

use byzscore::cluster::cluster_players_with;
use byzscore::sampling::choose_sample;
use byzscore::{Algorithm, ProtocolParams, Session, SweepPoint};
use byzscore_bitset::{BitVec, Bits};
use byzscore_blocks::small_radius;
use byzscore_model::metrics::{approx_ratios, cluster_quality, opt_bounds};
use byzscore_model::{Balance, Workload};

use crate::stats::{loglog_slope, mean};
use crate::table::{f2, f3, Table};
use crate::{experiments::Harness, Scale};

/// **E5 / Lemmas 7–9** — neighbor-graph clustering quality: cluster count,
/// min size vs `n/B`, true diameter vs `O(D)`.
pub fn e05_clustering(scale: Scale) -> Vec<Table> {
    let n = 256usize;
    let m = 512usize;
    let b = 8usize;
    let ds = scale.pick(vec![4usize, 8, 16, 32], vec![4, 8, 16, 32, 64]);
    let trials = scale.pick(2, 5);

    let mut table = Table::new(
        format!(
            "E5 (Lemmas 7–9): clustering — n={n}, m={m}, B={b} (n/B = {})",
            n / b
        ),
        &[
            "D",
            "clusters",
            "min size",
            "max true diam",
            "diam/D",
            "runs ok",
        ],
    );

    for &d in &ds {
        let mut counts = Vec::new();
        let mut min_sizes = Vec::new();
        let mut max_diams = Vec::new();
        let mut ok_runs = 0;
        for t in 0..trials {
            let inst = Workload::PlantedClusters {
                players: n,
                objects: m,
                clusters: b,
                diameter: d,
                balance: Balance::Even,
            }
            .generate(900 + t as u64);
            let pp = ProtocolParams::with_budget(b);
            let h = Harness::honest(inst.truth(), pp.blocks.clone(), 31 + t as u64);
            let ctx = h.ctx();
            let players: Vec<u32> = (0..n as u32).collect();
            let sample = choose_sample(&ctx.beacon, n, m, d, pp.c_sample);
            let z = small_radius(&ctx, &players, &sample, pp.sample_diameter(n), &[t as u64]);
            let clustering = cluster_players_with(
                &z,
                pp.edge_threshold(n),
                pp.peel_min_size(n),
                pp.neighbor_strategy,
            );
            let q = cluster_quality(inst.truth(), &clustering.clusters);
            counts.push(q.count as f64);
            min_sizes.push(q.min_size as f64);
            max_diams.push(q.max_diameter as f64);
            if q.min_size >= pp.peel_min_size(n) && q.max_diameter <= 8 * d {
                ok_runs += 1;
            }
        }
        table.row(vec![
            d.to_string(),
            f2(mean(&counts)),
            f2(mean(&min_sizes)),
            f2(mean(&max_diams)),
            f2(mean(&max_diams) / d as f64),
            format!("{ok_runs}/{trials}"),
        ]);
    }
    vec![table]
}

/// **E6 / Lemmas 10–11** — full-protocol probe complexity: max honest
/// probes as `n` scales (the claim: `O(B·polylog n)`, so the log-log slope
/// against `n` must be ≪ 1 — compare `Solo`'s slope of ~0 with an
/// "everyone probes everything" slope of 1).
pub fn e06_probe_complexity(scale: Scale) -> Vec<Table> {
    let b = 8usize;
    let d = 8usize;
    let ns = scale.pick(vec![64usize, 128, 256], vec![64, 128, 256, 512, 1024]);

    let mut table = Table::new(
        format!("E6 (Lemmas 10–11): probe complexity vs n — B={b}, planted D={d}"),
        &["n", "max honest probes", "probes/(B·ln³n)", "total probes"],
    );

    let mut points = Vec::new();
    for &n in &ns {
        let inst = Workload::PlantedClusters {
            players: n,
            objects: n,
            clusters: b.min(n / 8).max(1),
            diameter: d,
            balance: Balance::Even,
        }
        .generate(1100 + n as u64);
        let sys = Session::builder().instance(&inst).budget(b).build();
        let out = sys.run(Algorithm::CalculatePreferences, 3);
        let ln3 = (n as f64).ln().powi(3);
        points.push((n as f64, out.max_honest_probes as f64));
        table.row(vec![
            n.to_string(),
            out.max_honest_probes.to_string(),
            f3(out.max_honest_probes as f64 / (b as f64 * ln3)),
            out.probes.total().to_string(),
        ]);
    }
    table.note(format!(
        "log-log slope of max-honest-probes vs n: {:.3}  (≈0 ⇒ polylog; 1 ⇒ linear)",
        loglog_slope(&points)
    ));

    // E6b: at default constants B·ln³n ≳ n for n ≤ 2¹⁰, so the memoized
    // per-player count saturates at m and the slope above reads ~1. With
    // lightened constants and larger n the sublinear shape emerges: the
    // probed fraction of m falls as n grows.
    let mut table_b = Table::new(
        "E6b: probe fraction vs n — B=2, lightened constants (crossover into the polylog regime)",
        &["n", "max honest probes", "fraction of m", "max err"],
    );
    let ns_b = scale.pick(vec![512usize, 1024, 2048], vec![1024, 2048, 4096]);
    let mut points_b = Vec::new();
    for &n in &ns_b {
        let inst = Workload::PlantedClusters {
            players: n,
            objects: n,
            clusters: 2,
            diameter: d,
            balance: Balance::Even,
        }
        .generate(1150 + n as u64);
        let mut pp = ProtocolParams::with_budget(2);
        pp.blocks.c_zr_base = 1.5;
        pp.blocks.c_sr_iters = 0.3;
        pp.blocks.sr_subset_scale = 96.0;
        pp.c_sample = 1.5;
        pp.c_probe_rep = 0.8;
        let out = Session::builder()
            .instance(&inst)
            .params(pp)
            .build()
            .run(Algorithm::CalculatePreferences, 3);
        points_b.push((n as f64, out.max_honest_probes as f64));
        table_b.row(vec![
            n.to_string(),
            out.max_honest_probes.to_string(),
            f3(out.max_honest_probes as f64 / n as f64),
            out.errors.max.to_string(),
        ]);
    }
    table_b.note(format!(
        "log-log slope of E6b probes vs n: {:.3}  (<1 and falling ⇒ sublinear)",
        loglog_slope(&points_b)
    ));
    vec![table, table_b]
}

/// **E7 / Lemma 12 + Theorem 14 (honest)** — output error scales linearly
/// with the planted diameter `D`, within a constant factor of OPT.
pub fn e07_error_vs_d(scale: Scale) -> Vec<Table> {
    let n = 192usize;
    let m = 768usize;
    let b = 6usize;
    let ds = scale.pick(vec![4usize, 8, 16, 32], vec![4, 8, 16, 32, 64]);
    let trials = scale.pick(2, 5);

    let mut table = Table::new(
        format!("E7 (Lemma 12/Thm 14): error vs D — n={n}, m={m}, B={b}"),
        &[
            "D",
            "max err",
            "mean err",
            "err/D",
            "OPT ub (max)",
            "approx vs OPT-ub",
            "skyline max err",
        ],
    );

    let mut points = Vec::new();
    for &d in &ds {
        let mut max_errs = Vec::new();
        let mut mean_errs = Vec::new();
        let mut ratios = Vec::new();
        let mut opt_ub_max = 0usize;
        let mut sky = Vec::new();
        for t in 0..trials {
            let inst = Workload::PlantedClusters {
                players: n,
                objects: m,
                clusters: b,
                diameter: d,
                balance: Balance::Even,
            }
            .generate(1300 + t as u64);
            let sys = Session::builder().instance(&inst).budget(b).build();
            // Protocol + skyline are independent sweep points of one world.
            let outs = sys.run_sweep(&[
                SweepPoint::new(Algorithm::CalculatePreferences, 7 + t as u64),
                SweepPoint::new(Algorithm::OracleClusters, 7 + t as u64),
            ]);
            let (out, sky_out) = (&outs[0], &outs[1]);
            max_errs.push(out.errors.max as f64);
            mean_errs.push(out.errors.mean);
            let bounds = opt_bounds(inst.truth(), n / b);
            let (_, vs_upper) = approx_ratios(&out.errors.per_player, &bounds);
            ratios.push(vs_upper);
            opt_ub_max = opt_ub_max.max(bounds.upper.iter().copied().max().unwrap_or(0));
            sky.push(sky_out.errors.max as f64);
        }
        points.push((d as f64, mean(&max_errs).max(0.5)));
        table.row(vec![
            d.to_string(),
            f2(mean(&max_errs)),
            f2(mean(&mean_errs)),
            f2(mean(&max_errs) / d as f64),
            opt_ub_max.to_string(),
            f2(mean(&ratios)),
            f2(mean(&sky)),
        ]);
    }
    table.note(format!(
        "log-log slope of max-err vs D: {:.3}  (Lemma 12 predicts ≈1: error = O(D))",
        loglog_slope(&points)
    ));
    vec![table]
}

/// **E8 / Claim 2** — the lower-bound distribution: on the special set `S`
/// (|S| = D), *no* algorithm can beat error D/4 for the planted cluster's
/// members; our protocol and every baseline sit at ≈ D/2 on `S` (random
/// guessing), confirming the floor.
pub fn e08_lower_bound(scale: Scale) -> Vec<Table> {
    let n = 256usize;
    let b = 8usize;
    let ds = scale.pick(vec![24usize, 48], vec![24, 48, 60]);
    let trials = scale.pick(2, 5);

    let mut table = Table::new(
        format!(
            "E8 (Claim 2): lower-bound distribution — n=m={n}, B={b}, cluster size {}",
            n / b
        ),
        &[
            "D",
            "D/4 floor",
            "algorithm",
            "err on S (min)",
            "err on S (mean)",
            "full err (mean)",
        ],
    );

    let algs = [
        Algorithm::CalculatePreferences,
        Algorithm::OracleClusters,
        Algorithm::Solo,
    ];
    for &d in &ds {
        // One session per trial world; all three algorithms are independent
        // sweep points of it.
        let mut insts = Vec::with_capacity(trials);
        let mut per_alg: Vec<Vec<byzscore::Outcome>> = vec![Vec::new(); algs.len()];
        for t in 0..trials {
            let inst = Workload::LowerBound {
                players: n,
                objects: n,
                budget_b: b,
                diameter: d,
            }
            .generate(1500 + t as u64);
            let sys = Session::builder().instance(&inst).budget(b).build();
            let points: Vec<SweepPoint> = algs
                .iter()
                .map(|&alg| SweepPoint::new(alg, 11 + t as u64))
                .collect();
            for (ai, out) in sys.run_sweep(&points).into_iter().enumerate() {
                per_alg[ai].push(out);
            }
            insts.push(inst);
        }
        for (ai, alg) in algs.iter().enumerate() {
            let mut s_min = usize::MAX;
            let mut s_errs = Vec::new();
            let mut full_errs = Vec::new();
            for (t, out) in per_alg[ai].iter().enumerate() {
                let inst = &insts[t];
                let planted = inst.planted().unwrap();
                let special = planted.special_objects.clone().unwrap();
                let mask = BitVec::from_indices(n, &special);
                for &p in &planted.clusters[0] {
                    let err_s = out
                        .output()
                        .row(p as usize)
                        .hamming_masked(&inst.truth().row(p as usize), &mask);
                    s_min = s_min.min(err_s);
                    s_errs.push(err_s as f64);
                    full_errs.push(
                        out.output()
                            .row(p as usize)
                            .hamming(&inst.truth().row(p as usize)) as f64,
                    );
                }
            }
            table.row(vec![
                d.to_string(),
                (d / 4).to_string(),
                alg.name(),
                s_min.to_string(),
                f2(mean(&s_errs)),
                f2(mean(&full_errs)),
            ]);
        }
    }
    vec![table]
}

/// **E12 / §8 budgets** — sensitivity to the budget `B`: probes fall and
/// error stays `O(D)` as clusters grow (`n/B` members each).
pub fn e12_budgets(scale: Scale) -> Vec<Table> {
    let n = 256usize;
    let m = 512usize;
    let d = 8usize;
    let bs = scale.pick(vec![2usize, 4, 8, 16], vec![2, 4, 8, 16, 32]);

    let mut table = Table::new(
        format!("E12 (§8): budget sweep — n={n}, m={m}, planted D={d}"),
        &["B", "n/B", "max err", "mean err", "max honest probes"],
    );

    for &b in &bs {
        let inst = Workload::PlantedClusters {
            players: n,
            objects: m,
            clusters: b,
            diameter: d,
            balance: Balance::Even,
        }
        .generate(1700 + b as u64);
        let sys = Session::builder().instance(&inst).budget(b).build();
        let out = sys.run(Algorithm::CalculatePreferences, 13);
        table.row(vec![
            b.to_string(),
            (n / b).to_string(),
            out.errors.max.to_string(),
            f2(out.errors.mean),
            out.max_honest_probes.to_string(),
        ]);
    }
    vec![table]
}
