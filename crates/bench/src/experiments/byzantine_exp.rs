//! E9–E11: the Byzantine claims (§7) and the headline comparison (§1).

use std::sync::Arc;

use byzscore::{Algorithm, Session, SweepPoint};
use byzscore_adversary::{
    AntiMajority, ClusterHijacker, Corruption, Inverter, RandomLiar, Strategy,
};
use byzscore_election::{
    elect, BinStrategy, ElectionParams, FollowCrowd, GreedyInfiltrate, HonestLike, StallForcer,
};
use byzscore_model::{Balance, Instance, Workload};

use crate::stats::mean;
use crate::table::{f2, f3, Table};
use crate::Scale;

fn planted(n: usize, m: usize, clusters: usize, d: usize, seed: u64) -> Instance {
    Workload::PlantedClusters {
        players: n,
        objects: m,
        clusters,
        diameter: d,
        balance: Balance::Even,
    }
    .generate(seed)
}

/// **E9 / Lemma 13 + Theorem 14 (Byzantine)** — honest error as the number
/// of dishonest players sweeps through the paper's `n/(3B)` threshold, for
/// each attack strategy. The asymptotic claim: error stays `O(D)` up to the
/// threshold.
pub fn e09_byzantine(scale: Scale) -> Vec<Table> {
    let n = 144usize;
    let m = 288usize;
    let b = 4usize;
    let d = 8usize;
    let threshold = Corruption::paper_threshold(n, b); // n/(3B) = 12
    let counts = scale.pick(
        vec![0usize, threshold / 2, threshold, 2 * threshold],
        vec![
            0,
            threshold / 2,
            threshold,
            3 * threshold / 2,
            2 * threshold,
            3 * threshold,
        ],
    );
    let trials = scale.pick(1, 3);

    let mut table = Table::new(
        format!(
            "E9 (Lemma 13/Thm 14): Byzantine sweep — n={n}, m={m}, B={b}, D={d}, threshold n/(3B)={threshold}"
        ),
        &["strategy", "dishonest", "vs n/(3B)", "max honest err", "mean honest err", "err/D"],
    );

    let strategies: Vec<(&str, Arc<dyn Strategy>)> = vec![
        ("inverter", Arc::new(Inverter)),
        ("anti-majority", Arc::new(AntiMajority)),
        ("random-liar", Arc::new(RandomLiar { flip_prob: 0.5 })),
    ];

    for (name, strategy) in &strategies {
        for &count in &counts {
            let mut max_errs = Vec::new();
            let mut mean_errs = Vec::new();
            for t in 0..trials {
                let inst = planted(n, m, b, d, 2100 + t as u64);
                let out = Session::builder()
                    .instance(&inst)
                    .budget(b)
                    .adversary_shared(Corruption::Count { count }, strategy.clone())
                    .build()
                    .run(Algorithm::CalculatePreferences, 17 + t as u64);
                max_errs.push(out.errors.max as f64);
                mean_errs.push(out.errors.mean);
            }
            table.row(vec![
                name.to_string(),
                count.to_string(),
                f2(count as f64 / threshold as f64),
                f2(mean(&max_errs)),
                f2(mean(&mean_errs)),
                f2(mean(&max_errs) / d as f64),
            ]);
        }
    }

    // The targeted hijack: all dishonest players planted inside one cluster,
    // mimicking a victim (the attack Lemma 13 rules out).
    let mut hijack = Table::new(
        format!(
            "E9b: cluster hijack — all dishonest inside the victim's cluster (n={n}, B={b}, D={d})"
        ),
        &[
            "dishonest in cluster",
            "max honest err",
            "victim cluster mean err",
            "err/D",
        ],
    );
    for &count in &counts {
        let mut max_errs = Vec::new();
        let mut victim_errs = Vec::new();
        for t in 0..trials {
            let inst = planted(n, m, b, d, 2200 + t as u64);
            let victim = inst.planted().unwrap().clusters[0][0];
            let out = Session::builder()
                .instance(&inst)
                .budget(b)
                .adversary(
                    Corruption::InCluster { cluster: 0, count },
                    ClusterHijacker { victim },
                )
                .build()
                .run(Algorithm::CalculatePreferences, 23 + t as u64);
            max_errs.push(out.errors.max as f64);
            // Mean error of honest members of the victim's cluster.
            let planted_info = inst.planted().unwrap();
            let honest_members: Vec<f64> = planted_info.clusters[0]
                .iter()
                .filter(|&&p| out.probes.counts()[p as usize] > 0) // honest proxy
                .map(|&p| {
                    use byzscore_bitset::Bits;
                    out.output()
                        .row(p as usize)
                        .hamming(&inst.truth().row(p as usize)) as f64
                })
                .collect();
            victim_errs.push(mean(&honest_members));
        }
        hijack.row(vec![
            count.to_string(),
            f2(mean(&max_errs)),
            f2(mean(&victim_errs)),
            f2(mean(&max_errs) / d as f64),
        ]);
    }
    vec![table, hijack]
}

/// **E10 / §7.1 (Feige \[10\])** — lightest-bin election: honest-win
/// probability vs the dishonest fraction, against the Ω(δ^1.65) reference;
/// plus the Θ(log n)-repetition amplification.
pub fn e10_election(scale: Scale) -> Vec<Table> {
    let n = 256usize;
    let trials = scale.pick(150, 600);
    let fractions = [0.05, 0.15, 0.25, 0.35, 0.45];

    let mut table = Table::new(
        format!("E10 (§7.1): lightest-bin election — n={n}, {trials} trials"),
        &[
            "byz fraction",
            "δ=1−f",
            "δ^1.65",
            "honest-like",
            "follow-crowd",
            "greedy",
            "stall-forcer",
        ],
    );

    let strategies: Vec<(&str, &dyn BinStrategy)> = vec![
        ("honest-like", &HonestLike),
        ("follow-crowd", &FollowCrowd),
        ("greedy", &GreedyInfiltrate),
        ("stall-forcer", &StallForcer),
    ];
    let params = ElectionParams::for_players(n);

    for &f in &fractions {
        let count = ((n as f64) * f).round() as usize;
        let delta = 1.0 - f;
        let mut cells = vec![f2(f), f2(delta), f3(delta.powf(1.65))];
        for (_, strat) in &strategies {
            // Dishonest get low indices: worst case for the index fallback.
            let dishonest: Vec<bool> = (0..n).map(|p| p < count).collect();
            let wins = (0..trials)
                .filter(|&t| elect(&dishonest, *strat, &params, 3000 + t as u64).leader_honest)
                .count();
            cells.push(f3(wins as f64 / trials as f64));
        }
        table.row(cells);
    }

    // Amplification: probability that r independent elections ALL return
    // dishonest leaders, at fraction 0.25 under the greedy adversary.
    let mut amp = Table::new(
        format!("E10b: repetition amplification — n={n}, byz fraction 0.25, greedy adversary"),
        &[
            "repetitions r",
            "P(no honest leader) measured",
            "(1−p̂)^r predicted",
        ],
    );
    let count = n / 4;
    let dishonest: Vec<bool> = (0..n).map(|p| p < count).collect();
    let single_wins = (0..trials)
        .filter(|&t| elect(&dishonest, &GreedyInfiltrate, &params, 4000 + t as u64).leader_honest)
        .count();
    let p_hat = single_wins as f64 / trials as f64;
    for r in [1usize, 2, 4, 8] {
        let groups = trials / r;
        let all_bad = (0..groups)
            .filter(|&g| {
                (0..r).all(|i| {
                    !elect(
                        &dishonest,
                        &GreedyInfiltrate,
                        &params,
                        5000 + (g * r + i) as u64,
                    )
                    .leader_honest
                })
            })
            .count();
        amp.row(vec![
            r.to_string(),
            f3(all_bad as f64 / groups.max(1) as f64),
            f3((1.0 - p_hat).powi(r as i32)),
        ]);
    }
    vec![table, amp]
}

/// **E11 / §1 headline** — ours vs prior art and naive baselines, honest
/// and under attack at the tolerance threshold: "improves in both
/// performance and accuracy over prior collaborative scoring protocols
/// that provided no robustness".
pub fn e11_comparison(scale: Scale) -> Vec<Table> {
    let n = 192usize;
    let m = 576usize;
    let b = 6usize;
    let d = 12usize;
    let trials = scale.pick(1, 3);
    let threshold = Corruption::paper_threshold(n, b); // ≈ 10

    let algorithms = [
        Algorithm::CalculatePreferences,
        Algorithm::Robust,
        Algorithm::NaiveSampling,
        Algorithm::Solo,
        Algorithm::GlobalMajority,
        Algorithm::OracleClusters,
        Algorithm::DirectSmallRadius(d),
    ];

    let mut honest = Table::new(
        format!("E11a: comparison, all honest — n={n}, m={m}, B={b}, D={d}"),
        &[
            "algorithm",
            "max err",
            "mean err",
            "max probes",
            "peak claim slots",
        ],
    );
    let mut byz = Table::new(
        format!(
            "E11b: comparison under inverters at n/(3B)={threshold} — n={n}, m={m}, B={b}, D={d}"
        ),
        &[
            "algorithm",
            "max honest err",
            "mean honest err",
            "max honest probes",
            "peak claim slots",
        ],
    );

    // All algorithms are independent sweep points of each trial's worlds;
    // aggregate per algorithm across trials afterwards.
    let mut h_outs: Vec<Vec<byzscore::Outcome>> = vec![Vec::new(); algorithms.len()];
    let mut b_outs: Vec<Vec<byzscore::Outcome>> = vec![Vec::new(); algorithms.len()];
    for t in 0..trials {
        let inst = planted(n, m, b, d, 2500 + t as u64);
        let honest_sys = Session::builder().instance(&inst).budget(b).build();
        let byz_sys = Session::builder()
            .instance(&inst)
            .budget(b)
            .adversary(Corruption::Count { count: threshold }, Inverter)
            .build();
        let h_points: Vec<SweepPoint> = algorithms
            .iter()
            .map(|&alg| SweepPoint::new(alg, 31 + t as u64))
            .collect();
        let b_points: Vec<SweepPoint> = algorithms
            .iter()
            .map(|&alg| SweepPoint::new(alg, 37 + t as u64))
            .collect();
        for (ai, out) in honest_sys.run_sweep(&h_points).into_iter().enumerate() {
            h_outs[ai].push(out);
        }
        for (ai, out) in byz_sys.run_sweep(&b_points).into_iter().enumerate() {
            b_outs[ai].push(out);
        }
    }

    let stat = |outs: &[byzscore::Outcome], f: &dyn Fn(&byzscore::Outcome) -> f64| -> f64 {
        mean(&outs.iter().map(f).collect::<Vec<f64>>())
    };
    for (ai, alg) in algorithms.iter().enumerate() {
        honest.row(vec![
            alg.name(),
            f2(stat(&h_outs[ai], &|o| o.errors.max as f64)),
            f2(stat(&h_outs[ai], &|o| o.errors.mean)),
            f2(stat(&h_outs[ai], &|o| o.max_honest_probes as f64)),
            f2(stat(&h_outs[ai], &|o| o.board.peak_claim_slots as f64)),
        ]);
        byz.row(vec![
            alg.name(),
            f2(stat(&b_outs[ai], &|o| o.errors.max as f64)),
            f2(stat(&b_outs[ai], &|o| o.errors.mean)),
            f2(stat(&b_outs[ai], &|o| o.max_honest_probes as f64)),
            f2(stat(&b_outs[ai], &|o| o.board.peak_claim_slots as f64)),
        ]);
    }
    vec![honest, byz]
}
