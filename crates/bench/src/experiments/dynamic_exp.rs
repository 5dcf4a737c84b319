//! E14–E16: the dynamic-world plane — churn, adaptive corruption, and
//! drifting truth (DESIGN.md §4.11).
//!
//! The paper's guarantees are proved against a static adversary on a
//! fixed planted clustering; these experiments measure what survives when
//! the world moves between repetitions. Every scenario is a pure function
//! of its seeds (rounds are sequential), so every cell is gated by
//! `check_bench.py` like any static experiment.

use byzscore::graded::{score_graded_drift, DriftingGrades, GradeMatrix};
use byzscore::{
    Algorithm, ChurnSchedule, ClusterSpec, DriftLocality, DriftSchedule, DynamicWorld, OutputSink,
    ProtocolParams,
};
use byzscore_adversary::{AdaptiveCorruption, AdaptivePolicy, Corruption, Inverter};

use crate::table::{f2, Table};
use crate::Scale;

/// **E14 / ROADMAP "scenario growth" (churn)** — population turnover
/// between repetitions: each round retires a seeded slice of the active
/// players and joins fresh pool identities under deterministic remapping
/// ([`byzscore::ResidentPool::churn`], cf. Solidago's churning-population
/// pipeline). Every round is a full static execution over the current
/// population, so the per-round guarantee holds *for clustered players* —
/// what churn actually moves is the cluster balance: joiners from a taste
/// community still below the `n/B` peel threshold are transiently
/// under-clustered, and the trajectory records exactly those rounds.
pub fn e14_churn_robust(scale: Scale) -> Vec<Table> {
    let n = 96usize;
    let m = 192usize;
    let b = 4usize;
    let d = 6usize;
    let turnover = 12usize;
    let rounds = scale.pick(4usize, 8);
    let churn = ChurnSchedule::replacement(turnover, 0xc0de);
    let pool = n + churn.joins_over(rounds);

    let mut table = Table::new(
        format!(
            "E14: churn robustness — n={n} active of a {pool}-identity pool, \
             turnover {turnover}/round, m={m}, B={b}, D={d}, inverters at 8"
        ),
        &[
            "algorithm",
            "round",
            "players",
            "joined",
            "max honest err",
            "mean honest err",
            "max honest probes",
        ],
    );

    for algorithm in [Algorithm::CalculatePreferences, Algorithm::GlobalMajority] {
        let world = DynamicWorld::builder()
            .pool(ClusterSpec {
                players: pool,
                objects: m,
                clusters: b,
                diameter: d,
                seed: 0xe14,
            })
            .active(n)
            .params(ProtocolParams::with_budget(b))
            .churn(churn)
            .adversary(
                AdaptiveCorruption::off(Corruption::Count { count: 8 }),
                Inverter,
            )
            .build();
        let run = world.run(algorithm, rounds, 0x14);
        for report in &run.rounds {
            table.row(vec![
                report.outcome.algorithm.clone(),
                report.round.to_string(),
                report.players.to_string(),
                report.joined.len().to_string(),
                report.outcome.errors.max.to_string(),
                f2(report.outcome.errors.mean),
                report.outcome.max_honest_probes.to_string(),
            ]);
        }
    }
    table.note(
        "Joiners take fresh pool identities (survivors keep relative order), \
         so each round is an ordinary static execution over the remapped \
         population. The pool's 4th taste community has no members in the \
         initial active window; as its identities churn in, they sit below \
         the n/B peel threshold for a round or two — the max-err spike in \
         the CalculatePreferences trajectory is exactly that cold-start \
         cohort, and it dissolves once the community reaches critical \
         mass. The substrate adapter is backend-agnostic — \
         tests/dynamic_world.rs pins dense ≡ procedural trajectories.",
    );
    vec![table]
}

/// **E15 / ROADMAP "scenario growth" (adaptive corruption)** — the
/// adversary re-selects its corrupted set between repetitions after
/// observing the previous round's surviving groups and honest error
/// scores (Ignat et al.: behaviour co-evolves with the score). Window 0
/// is the paper's static adversary (the control arm — selection is
/// bit-identical to the wrapped `Corruption`); wider windows concentrate
/// the same budget on the smallest surviving group or the highest-error
/// group.
pub fn e15_adaptive_corruption(scale: Scale) -> Vec<Table> {
    let n = 144usize;
    let m = 288usize;
    let b = 4usize;
    let d = 8usize;
    let budget = Corruption::paper_threshold(n, b); // n/(3B) = 12
    let rounds = scale.pick(3usize, 5);

    let configs: Vec<(&str, AdaptiveCorruption)> = {
        let base = Corruption::Count { count: budget };
        let mut v = vec![("static (window 0)", AdaptiveCorruption::off(base.clone()))];
        for window in scale.pick(vec![1usize, 3], vec![1, 3, 5]) {
            v.push((
                "smallest-group",
                AdaptiveCorruption::new(base.clone(), window, AdaptivePolicy::SmallestGroup),
            ));
        }
        v.push((
            "highest-error",
            AdaptiveCorruption::new(base, 1, AdaptivePolicy::HighestError),
        ));
        v
    };

    let mut table = Table::new(
        format!(
            "E15: adaptive corruption — n={n}, m={m}, B={b}, D={d}, \
             budget n/(3B)={budget} inverters, re-targeted between rounds"
        ),
        &[
            "adversary",
            "window",
            "round",
            "target group",
            "max honest err",
            "mean honest err",
            "err/D",
        ],
    );

    for (name, corruption) in configs {
        let window = corruption.window;
        let world = DynamicWorld::builder()
            .pool(ClusterSpec {
                players: n,
                objects: m,
                clusters: b,
                diameter: d,
                seed: 0xe15,
            })
            .params(ProtocolParams::with_budget(b))
            .adversary(corruption, Inverter)
            .build();
        let run = world.run(Algorithm::CalculatePreferences, rounds, 0x15);
        for report in &run.rounds {
            table.row(vec![
                name.to_string(),
                window.to_string(),
                report.round.to_string(),
                report
                    .target_group
                    .map_or("-".to_string(), |g| g.to_string()),
                report.outcome.errors.max.to_string(),
                f2(report.outcome.errors.mean),
                f2(report.outcome.errors.max as f64 / d as f64),
            ]);
        }
    }
    table.note(
        "All arms spend the identical budget (n/(3B) players); only the \
         targeting differs. Round 0 has nothing to observe, so every arm's \
         first row coincides with the static adversary — divergence from \
         round 1 on is pure adaptivity. The Lemma 13 redundancy argument \
         is per-cluster, so even a fully concentrated budget stays below \
         the cluster's vote threshold — max honest err should hold at O(D) \
         in every arm.",
    );
    vec![table]
}

/// **E16 / ROADMAP "TruthSource backend with drifting preferences"** —
/// time-varying truth over a procedural `@scale` pool, plus the
/// multi-bit graded drift trajectory. Round `r` executes at drift epoch
/// `r`: preferences flip per epoch at a seeded rate inside a locality
/// window, so the planted structure erodes while the protocol keeps
/// scoring against the *current* world. Each run materializes the pool
/// once into a [`byzscore::ResidentPool`] and folds one epoch per round
/// (pool rows × m bits: 12.8 MB at full scale's n = 10⁵);
/// `tests/dynamic_world.rs` pins it to the drift/remap adapter
/// composition step by step.
pub fn e16_drifting_truth(scale: Scale) -> Vec<Table> {
    let m = 1024usize;
    let b = 8usize;
    let d = 16usize;
    let rounds = 3usize;
    let ns = scale.pick(vec![1_000usize, 10_000], vec![1_000, 10_000, 100_000]);

    let mut table = Table::new(
        format!(
            "E16: drifting truth — ProceduralTruth pool, m={m}, B={b}, D={d}, \
             drift rate 5e-4 on the first {half} objects, {rounds} epochs",
            half = m / 2
        ),
        &[
            "n",
            "algorithm",
            "epoch",
            "max honest err",
            "mean honest err",
            "max honest probes",
        ],
    );

    for &n in &ns {
        let spec = ClusterSpec {
            players: n,
            objects: m,
            clusters: b,
            diameter: d,
            seed: 0xe16 + n as u64,
        };
        let drift = DriftSchedule::new(
            5e-4,
            DriftLocality::Window {
                start: 0,
                len: m / 2,
            },
            0xd1f7 + n as u64,
        );
        let mut algorithms = vec![Algorithm::GlobalMajority];
        if n <= 10_000 {
            algorithms.push(Algorithm::NaiveSampling);
        }
        for algorithm in algorithms {
            let world = DynamicWorld::builder()
                .pool(spec.clone())
                .params(ProtocolParams::with_budget(b))
                .drift(drift.clone())
                .output_sink(OutputSink::ErrorStream)
                .build();
            let run = world.run(algorithm, rounds, 0x16);
            for report in &run.rounds {
                table.row(vec![
                    n.to_string(),
                    report.outcome.algorithm.clone(),
                    report.epoch.to_string(),
                    report.outcome.errors.max.to_string(),
                    f2(report.outcome.errors.mean),
                    report.outcome.max_honest_probes.to_string(),
                ]);
            }
        }
    }
    table.note(format!(
        "Each epoch is an immutable snapshot (the protocol never sees a \
         mid-run flip) scored against its own epoch's truth; cumulative \
         drift inflates the effective intra-cluster diameter by ~2·rate·\
         epoch·window ≈ {:.1} bits/epoch, so the error trajectory tracks \
         the eroding planted structure. NaiveSampling rides the grouped \
         neighbor index at n=10⁴; n=10⁵ runs GlobalMajority on the \
         streaming sink.",
        2.0 * 5e-4 * (m / 2) as f64
    ));

    // Multi-bit plane: grades drift as independent per-plane walks.
    let players = 48usize;
    let objects = 96usize;
    let bits = 2u32;
    let epochs = scale.pick(3u64, 5);
    let mut graded = Table::new(
        format!(
            "E16b: graded drift — {players}×{objects} grades in 0..2^{bits}, \
             3 clone classes, rate 5e-3/plane, CalculatePreferences per epoch"
        ),
        &["epoch", "max L1 err", "mean L1 err", "plane max errs"],
    );
    // Clone-class grade world: members share grade rows, so every plane
    // starts as a clone world and drift erodes it from there.
    let prototypes: Vec<Vec<u8>> = (0..3)
        .map(|c| {
            (0..objects)
                .map(|o| {
                    (byzscore_random::derive_seed(0xe16b, &[c as u64, o as u64]) % (1 << bits))
                        as u8
                })
                .collect()
        })
        .collect();
    let base = GradeMatrix::from_fn(players, objects, bits, |p, o| prototypes[p % 3][o]);
    let world = DriftingGrades::new(&base, &DriftSchedule::uniform(5e-3, 0xe16b));
    let trajectory = score_graded_drift(
        &world,
        &ProtocolParams::with_budget(4),
        Algorithm::CalculatePreferences,
        epochs,
        0x16b,
    );
    for (t, out) in trajectory.iter().enumerate() {
        let plane_errs: Vec<String> = out
            .planes
            .iter()
            .map(|p| p.errors.max.to_string())
            .collect();
        graded.row(vec![
            t.to_string(),
            out.max_l1.to_string(),
            f2(out.mean_l1),
            plane_errs.join("/"),
        ]);
    }
    graded.note(
        "Grades decompose into bit planes that drift under independently \
         derived seeds; the recombined L1 error is bounded by Σ 2^j × \
         plane-j error at every epoch (byzscore::graded), so the graded \
         plane inherits the binary trajectory's guarantees.",
    );
    vec![table, graded]
}
