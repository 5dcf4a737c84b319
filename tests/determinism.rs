//! Reproducibility: every run is a pure function of (instance seed, master
//! seed), independent of thread scheduling — the property all experiment
//! tables rely on.

use byzscore::{Algorithm, Session, SweepPoint};
use byzscore_adversary::{Corruption, Inverter};
use byzscore_election::{elect, ElectionParams, GreedyInfiltrate};
use byzscore_model::{Balance, Workload};

fn world(seed: u64) -> byzscore_model::Instance {
    Workload::PlantedClusters {
        players: 96,
        objects: 192,
        clusters: 4,
        diameter: 6,
        balance: Balance::Even,
    }
    .generate(seed)
}

#[test]
fn calculate_preferences_is_deterministic() {
    let inst = world(1);
    let sys = Session::builder().instance(&inst).budget(4).build();
    let a = sys.run(Algorithm::CalculatePreferences, 42);
    let b = sys.run(Algorithm::CalculatePreferences, 42);
    assert_eq!(a.output, b.output);
    assert_eq!(a.probes.counts(), b.probes.counts());
    assert_eq!(a.board.claim_posts, b.board.claim_posts);
}

#[test]
fn robust_mode_is_deterministic() {
    let inst = world(2);
    let sys = Session::builder().instance(&inst).budget(4).build();
    let a = sys.run(Algorithm::Robust, 43);
    let b = sys.run(Algorithm::Robust, 43);
    assert_eq!(a.output, b.output);
    let leaders_a: Vec<u32> = a.repetitions.iter().map(|r| r.leader).collect();
    let leaders_b: Vec<u32> = b.repetitions.iter().map(|r| r.leader).collect();
    assert_eq!(leaders_a, leaders_b);
}

#[test]
fn byzantine_runs_are_deterministic() {
    let inst = world(3);
    let run = || {
        Session::builder()
            .instance(&inst)
            .budget(4)
            .adversary(Corruption::Count { count: 8 }, Inverter)
            .build()
            .run(Algorithm::CalculatePreferences, 44)
    };
    assert_eq!(run().output, run().output);
}

#[test]
fn different_seeds_differ() {
    // The memoized oracle saturates on small worlds (every player ends up
    // evaluating most objects once), so per-player counts can coincide
    // across seeds. Seed sensitivity is asserted where it lives: the shared
    // randomness. Distinct master seeds must yield distinct samples and
    // distinct probe assignments.
    use byzscore::sampling::choose_sample;
    use byzscore_random::Beacon;
    let s1 = choose_sample(&Beacon::honest(1), 96, 192, 16, 2.0);
    let s2 = choose_sample(&Beacon::honest(2), 96, 192, 16, 2.0);
    assert_ne!(s1, s2, "distinct seeds must give distinct samples");

    // And the protocol outputs remain a pure function of the seed.
    let inst = world(4);
    let sys = Session::builder().instance(&inst).budget(4).build();
    let a = sys.run(Algorithm::CalculatePreferences, 1);
    let a2 = sys.run(Algorithm::CalculatePreferences, 1);
    assert_eq!(a.output, a2.output);
}

#[test]
fn baselines_are_deterministic() {
    let inst = world(5);
    let sys = Session::builder().instance(&inst).budget(4).build();
    for alg in [
        Algorithm::NaiveSampling,
        Algorithm::Solo,
        Algorithm::GlobalMajority,
        Algorithm::OracleClusters,
    ] {
        let a = sys.run(alg, 45);
        let b = sys.run(alg, 45);
        assert_eq!(a.output, b.output, "{} not deterministic", alg.name());
    }
}

#[test]
fn elections_are_deterministic_and_seed_sensitive() {
    let dishonest: Vec<bool> = (0..128).map(|p| p % 4 == 0).collect();
    let params = ElectionParams::for_players(128);
    let a = elect(&dishonest, &GreedyInfiltrate, &params, 7);
    let b = elect(&dishonest, &GreedyInfiltrate, &params, 7);
    assert_eq!(a.leader, b.leader);
    let different =
        (0..32).any(|s| elect(&dishonest, &GreedyInfiltrate, &params, s).leader != a.leader);
    assert!(different, "leader should vary across seeds");
}

/// `set_thread_limit` is process-global; tests that sweep it must not
/// interleave or each would run under the other's limit. (Poisoning is
/// ignored: a panicked holder already failed its own assertions.)
static THREAD_LIMIT_GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn results_are_identical_across_worker_thread_counts() {
    // The engine's `--threads` override must never change results: a
    // `Robust` run (elections + repetitions + RSelect, the maximal
    // par_map_players consumer) has to be bit-identical under 1, 2, and 8
    // worker threads. This is the regression fence for the par.rs
    // invariant that outputs are collected by player index.
    use byzscore_board::par::{par_map_players, set_thread_limit};

    let _gate = THREAD_LIMIT_GATE
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let inst = world(8);
    let run = || {
        Session::builder()
            .instance(&inst)
            .budget(4)
            .adversary(Corruption::Count { count: 8 }, Inverter)
            .build()
            .run(Algorithm::Robust, 46)
    };

    let reference = run();
    let ref_leaders: Vec<u32> = reference.repetitions.iter().map(|r| r.leader).collect();
    let ref_direct = par_map_players(257, |p| p.wrapping_mul(0x9e37_79b9) ^ 0x5bd1);

    for threads in [1usize, 2, 8] {
        set_thread_limit(Some(threads));
        let out = run();
        assert_eq!(
            out.output, reference.output,
            "Robust output differs at {threads} worker thread(s)"
        );
        assert_eq!(
            out.probes.counts(),
            reference.probes.counts(),
            "probe ledger differs at {threads} worker thread(s)"
        );
        let leaders: Vec<u32> = out.repetitions.iter().map(|r| r.leader).collect();
        assert_eq!(
            leaders, ref_leaders,
            "election transcript differs at {threads} worker thread(s)"
        );
        assert_eq!(
            par_map_players(257, |p| p.wrapping_mul(0x9e37_79b9) ^ 0x5bd1),
            ref_direct,
            "par_map_players order differs at {threads} worker thread(s)"
        );
    }
    set_thread_limit(None);
}

#[test]
fn run_sweep_is_bit_identical_across_thread_counts() {
    // Parallel sweep points must not perturb per-point RNG streams: a
    // `run_sweep` over mixed algorithms has to match sequential `run` calls
    // and be bit-identical under 1, 2, and 8 worker threads (the same fence
    // `results_are_identical_across_worker_thread_counts` provides for
    // intra-run phase parallelism).
    use byzscore::ClusterSpec;
    use byzscore_board::par::set_thread_limit;

    let _gate = THREAD_LIMIT_GATE
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let inst = world(9);
    let session = Session::builder()
        .instance(&inst)
        .budget(4)
        .adversary(Corruption::Count { count: 8 }, Inverter)
        .build();
    let points = [
        SweepPoint::new(Algorithm::CalculatePreferences, 50),
        SweepPoint::new(Algorithm::CalculatePreferences, 51),
        SweepPoint::new(Algorithm::GlobalMajority, 52),
        SweepPoint::new(Algorithm::Solo, 53),
        SweepPoint::new(Algorithm::NaiveSampling, 54),
    ];
    // Reference: strictly sequential executions.
    let reference: Vec<_> = points
        .iter()
        .map(|pt| session.run(pt.algorithm, pt.seed))
        .collect();

    for threads in [1usize, 2, 8] {
        set_thread_limit(Some(threads));
        let swept = session.run_sweep(&points);
        for ((pt, re), out) in points.iter().zip(&reference).zip(&swept) {
            assert_eq!(
                out.output,
                re.output,
                "{} output differs at {threads} worker thread(s)",
                pt.algorithm.name()
            );
            assert_eq!(
                out.probes.counts(),
                re.probes.counts(),
                "{} probe ledger differs at {threads} worker thread(s)",
                pt.algorithm.name()
            );
            assert_eq!(
                out.board,
                re.board,
                "{} board stats differ at {threads} worker thread(s)",
                pt.algorithm.name()
            );
        }
    }
    set_thread_limit(None);

    // The procedural backend obeys the same invariant.
    let spec = ClusterSpec {
        players: 96,
        objects: 128,
        clusters: 4,
        diameter: 6,
        seed: 0x5eed,
    };
    let proc_session = Session::builder().procedural(spec).budget(4).build();
    let proc_points = [
        SweepPoint::new(Algorithm::GlobalMajority, 60),
        SweepPoint::new(Algorithm::Solo, 61),
    ];
    let proc_ref = proc_session.run_sweep(&proc_points);
    for threads in [1usize, 8] {
        set_thread_limit(Some(threads));
        let swept = proc_session.run_sweep(&proc_points);
        for (re, out) in proc_ref.iter().zip(&swept) {
            assert_eq!(out.output, re.output);
            assert_eq!(out.probes.counts(), re.probes.counts());
        }
    }
    set_thread_limit(None);
}

#[test]
fn fused_rselect_is_bit_identical_across_thread_counts() {
    // The streaming RSelect tournaments advance inside the guess loop and
    // record per-player peak candidate residency; both the outputs and the
    // summed `peak_candidate_bytes` must be bit-identical under 1, 2, and
    // 8 worker threads for every fused consumer (Figure 2's per-guess
    // tournament, the naive baseline's, and the robust wrapper's final
    // cross-repetition one).
    use byzscore_board::par::set_thread_limit;

    let _gate = THREAD_LIMIT_GATE
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let inst = world(14);
    let session = Session::builder()
        .instance(&inst)
        .budget(4)
        .adversary(Corruption::Count { count: 8 }, Inverter)
        .build();

    for alg in [
        Algorithm::CalculatePreferences,
        Algorithm::NaiveSampling,
        Algorithm::Robust,
    ] {
        let reference = session.run(alg, 55);
        assert!(
            reference.peak_candidate_bytes > 0,
            "{}: fused tournaments should meter candidate residency",
            alg.name()
        );
        for threads in [1usize, 2, 8] {
            set_thread_limit(Some(threads));
            let out = session.run(alg, 55);
            assert_eq!(
                out.output,
                reference.output,
                "{} output differs at {threads} worker thread(s)",
                alg.name()
            );
            assert_eq!(
                out.probes.counts(),
                reference.probes.counts(),
                "{} probe ledger differs at {threads} worker thread(s)",
                alg.name()
            );
            assert_eq!(
                out.peak_candidate_bytes,
                reference.peak_candidate_bytes,
                "{} peak candidate bytes differ at {threads} worker thread(s)",
                alg.name()
            );
        }
        set_thread_limit(None);
    }
}

#[test]
fn banded_clustering_is_bit_identical_across_thread_counts() {
    // Banded neighbor discovery parallelizes its degree pass and (in scan
    // mode) its per-peel degree updates; the resulting `Clustering` must be
    // bit-identical under 1, 2, and 8 worker threads, and identical to the
    // materialized exact path — worker count can only change speed.
    use byzscore::cluster::{NeighborIndex, NeighborStrategy};
    use byzscore_bitset::Bits;
    use byzscore_board::par::set_thread_limit;

    let _gate = THREAD_LIMIT_GATE
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    // Big enough (≥ 32 players) that par_map_players actually fans out.
    let inst = Workload::PlantedClusters {
        players: 640,
        objects: 512,
        clusters: 8,
        diameter: 6,
        balance: Balance::Even,
    }
    .generate(21);
    let zvecs: Vec<_> = (0..640).map(|p| inst.truth().row(p).to_bitvec()).collect();

    for threshold in [14usize, 40] {
        let exact = NeighborIndex::build(&zvecs, threshold, NeighborStrategy::Exact);
        let banded = NeighborIndex::build(&zvecs, threshold, NeighborStrategy::Banded);
        let reference = exact.peel(40);
        for threads in [1usize, 2, 8] {
            set_thread_limit(Some(threads));
            let got = banded.peel(40);
            assert_eq!(
                got.assignment, reference.assignment,
                "banded assignment differs at {threads} worker thread(s), τ={threshold}"
            );
            assert_eq!(
                got.clusters, reference.clusters,
                "banded clusters differ at {threads} worker thread(s), τ={threshold}"
            );
        }
        set_thread_limit(None);
    }
}

#[test]
fn error_stream_sink_matches_dense_sink() {
    // The streaming sink drops output rows after folding their errors; all
    // error statistics, probe counts, and board accounting must be
    // bit-identical to the dense default — only `Outcome::output` differs
    // (None vs the materialized matrix). Checked on both substrates.
    use byzscore::{ClusterSpec, OutputSink};

    let inst = world(12);
    let algorithms = [
        Algorithm::CalculatePreferences,
        Algorithm::NaiveSampling,
        Algorithm::Solo,
        Algorithm::GlobalMajority,
        Algorithm::Robust,
    ];
    let dense_sys = Session::builder()
        .instance(&inst)
        .budget(4)
        .adversary(Corruption::Count { count: 8 }, Inverter)
        .build();
    let stream_sys = Session::builder()
        .instance(&inst)
        .budget(4)
        .adversary(Corruption::Count { count: 8 }, Inverter)
        .output_sink(OutputSink::ErrorStream)
        .build();
    for alg in algorithms {
        let dense = dense_sys.run(alg, 71);
        let streamed = stream_sys.run(alg, 71);
        assert!(
            dense.output.is_some(),
            "{}: dense sink lost output",
            alg.name()
        );
        assert!(
            streamed.output.is_none(),
            "{}: stream sink materialized output",
            alg.name()
        );
        assert_eq!(
            streamed.errors,
            dense.errors,
            "{} errors differ",
            alg.name()
        );
        assert_eq!(
            streamed.probes.counts(),
            dense.probes.counts(),
            "{} probe ledger differs",
            alg.name()
        );
        assert_eq!(
            streamed.board,
            dense.board,
            "{} board stats differ",
            alg.name()
        );
        assert_eq!(streamed.max_honest_probes, dense.max_honest_probes);
        assert_eq!(streamed.dishonest_count, dense.dishonest_count);
    }

    // Procedural substrate (the @scale pairing that motivates the sink).
    let spec = ClusterSpec {
        players: 96,
        objects: 128,
        clusters: 4,
        diameter: 6,
        seed: 0x51_4e_4b,
    };
    let dense = Session::builder()
        .procedural(spec.clone())
        .budget(4)
        .build()
        .run(Algorithm::NaiveSampling, 72);
    let streamed = Session::builder()
        .procedural(spec)
        .budget(4)
        .output_sink(OutputSink::ErrorStream)
        .build()
        .run(Algorithm::NaiveSampling, 72);
    assert_eq!(streamed.errors, dense.errors);
    assert_eq!(streamed.probes.counts(), dense.probes.counts());
}

#[test]
fn dynamic_world_is_bit_identical_across_thread_counts() {
    // The dynamic-world trajectory — drifting truth, churn remapping, and
    // an adaptive adversary re-targeting between rounds — must be a pure
    // function of (pool, schedules, master seed): per-round outputs, probe
    // ledgers, churn decisions, and adaptive targets all bit-identical
    // under 1, 2, and 8 worker threads. Rounds are sequential, but each
    // round's phases fan out through par.rs — this is the fence for e14–e16.
    use byzscore::{ChurnSchedule, ClusterSpec, DriftLocality, DriftSchedule, DynamicWorld};
    use byzscore_adversary::{AdaptiveCorruption, AdaptivePolicy};
    use byzscore_board::par::set_thread_limit;

    let _gate = THREAD_LIMIT_GATE
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let build = || {
        DynamicWorld::builder()
            .pool(ClusterSpec {
                players: 90,
                objects: 128,
                clusters: 4,
                diameter: 6,
                seed: 0xd7,
            })
            .active(72)
            .params(byzscore::ProtocolParams::with_budget(4))
            .churn(ChurnSchedule::replacement(8, 0xc1))
            .drift(DriftSchedule::new(
                0.002,
                DriftLocality::Window { start: 0, len: 64 },
                0xd2,
            ))
            .adversary(
                AdaptiveCorruption::new(
                    Corruption::Count { count: 6 },
                    1,
                    AdaptivePolicy::SmallestGroup,
                ),
                Inverter,
            )
            .build()
    };

    let reference = build().run(Algorithm::CalculatePreferences, 3, 0xd3);
    for threads in [1usize, 2, 8] {
        set_thread_limit(Some(threads));
        let got = build().run(Algorithm::CalculatePreferences, 3, 0xd3);
        assert_eq!(got.rounds.len(), reference.rounds.len());
        for (g, r) in got.rounds.iter().zip(&reference.rounds) {
            assert_eq!(
                g.outcome.output, r.outcome.output,
                "round {} output differs at {threads} worker thread(s)",
                r.round
            );
            assert_eq!(
                g.outcome.probes.counts(),
                r.outcome.probes.counts(),
                "round {} probe ledger differs at {threads} worker thread(s)",
                r.round
            );
            assert_eq!(g.outcome.errors, r.outcome.errors);
            assert_eq!(g.retired, r.retired, "churn differs at {threads} threads");
            assert_eq!(g.joined, r.joined);
            assert_eq!(g.target_group, r.target_group);
        }
    }
    set_thread_limit(None);

    // The graded drift trajectory obeys the same invariant.
    use byzscore::graded::{score_graded_drift, DriftingGrades, GradeMatrix};
    let base = GradeMatrix::from_fn(32, 48, 2, |p, o| ((p / 8 + o) % 4) as u8);
    let world = DriftingGrades::new(&base, &DriftSchedule::uniform(0.01, 0xd4));
    let params = byzscore::ProtocolParams::with_budget(4);
    let reference = score_graded_drift(&world, &params, Algorithm::CalculatePreferences, 2, 0xd5);
    for threads in [1usize, 8] {
        set_thread_limit(Some(threads));
        let got = score_graded_drift(&world, &params, Algorithm::CalculatePreferences, 2, 0xd5);
        for (g, r) in got.iter().zip(&reference) {
            assert_eq!(
                g.predicted, r.predicted,
                "graded drift differs at {threads} worker thread(s)"
            );
            assert_eq!(g.max_l1, r.max_l1);
        }
    }
    set_thread_limit(None);
}

#[test]
fn committed_service_trace_replays_identically_across_thread_counts() {
    // The repo carries a recorded service workload (traces/service_quick
    // .trace); replaying it must reproduce the digest pinned in
    // traces/DIGESTS, per-op, at 1, 2, and 8 worker threads. Any engine
    // change that shifts responses has to regenerate the trace and the
    // manifest together — that is the point: the pair is the
    // compatibility fence for the byzscore-trace/v1 format and the
    // service's answer semantics. CI's bench-gate and service-e2e jobs
    // read the same manifest, so a trace rotation is a one-file edit.
    use byzscore_board::par::set_thread_limit;
    use byzscore_service::{combined_digest, parse_digests, ServiceEngine, Trace};

    let manifest_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../traces/DIGESTS");
    let manifest = std::fs::read_to_string(manifest_path).expect("digest manifest readable");
    let expected_digest = parse_digests(&manifest)
        .expect("digest manifest parses")
        .into_iter()
        .find(|(name, _)| name == "service_quick.trace")
        .map(|(_, digest)| digest)
        .expect("service_quick.trace pinned in traces/DIGESTS");

    let _gate = THREAD_LIMIT_GATE
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../traces/service_quick.trace");
    let text = std::fs::read_to_string(path).expect("committed trace readable");
    let trace = Trace::from_text(&text).expect("committed trace parses");

    let reference = ServiceEngine::new().execute(&trace.ops);
    assert_eq!(
        combined_digest(&reference),
        expected_digest,
        "committed trace no longer replays to its pinned digest; \
         regenerate traces/service_quick.trace and traces/DIGESTS together"
    );
    let ref_digests: Vec<u64> = reference.iter().map(|r| r.digest()).collect();

    for threads in [1usize, 2, 8] {
        set_thread_limit(Some(threads));
        let got: Vec<u64> = ServiceEngine::new()
            .execute(&trace.ops)
            .iter()
            .map(|r| r.digest())
            .collect();
        assert_eq!(
            got, ref_digests,
            "per-op digests differ at {threads} worker thread(s)"
        );
    }
    set_thread_limit(None);
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]
    /// Trace round trip: a generated workload survives serialize →
    /// deserialize exactly, and the deserialized copy replays to the
    /// same per-op response digests as the original at 1, 2, and 8
    /// worker threads.
    #[test]
    fn service_trace_round_trips_and_replays_bit_identically(
        seed in 0u64..1000,
        sessions in 1usize..3,
        ops in 0usize..25,
        skew in 0u32..3,
        churn_w in 0u32..4,
        epoch_w in 0u32..3,
    ) {
        use byzscore_board::par::set_thread_limit;
        use byzscore_service::{
            CompactionPolicy, JournaledEngine, OpMix, ServiceAlgorithm, Trace, TraceSpec,
        };
        use proptest::prelude::prop_assert_eq;

        let spec = TraceSpec {
            sessions,
            ops,
            players: 12,
            objects: 24,
            clusters: 2,
            diameter: 2,
            budget: 2,
            corrupt: 1,
            drift_ppm: 3_000,
            algorithm: ServiceAlgorithm::Naive,
            mix: OpMix { probe: 5, query: 3, churn: churn_w, epoch: epoch_w },
            skew,
            seed,
        };
        let trace = Trace::generate(&spec);
        let text = trace.to_text();
        let parsed = Trace::from_text(&text).expect("generated trace parses back");
        prop_assert_eq!(&parsed, &trace);

        let _gate = THREAD_LIMIT_GATE
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let reference: Vec<u64> = trace.replay().iter().map(|r| r.digest()).collect();
        for threads in [1usize, 2, 8] {
            set_thread_limit(Some(threads));
            let got: Vec<u64> = parsed.replay().iter().map(|r| r.digest()).collect();
            prop_assert_eq!(&got, &reference);
        }
        set_thread_limit(None);

        // The journal-less op pipeline (what an unjournaled server and
        // `scored serve` drive) is one more executor that must agree,
        // one op per `submit`.
        let (mut pipeline, _) = JournaledEngine::open(None, false, CompactionPolicy::default())
            .expect("a journal-less pipeline opens");
        let piped: Vec<u64> = trace
            .ops
            .iter()
            .enumerate()
            .map(|(seq, op)| {
                pipeline
                    .submit(seq as u64, op)
                    .expect("nothing to append, nothing to fail")
                    .digest()
            })
            .collect();
        prop_assert_eq!(&piped, &reference);
    }
}

#[test]
fn workload_generation_is_deterministic() {
    let a = world(6);
    let b = world(6);
    assert_eq!(a.truth(), b.truth());
    let planted_a = a.planted().unwrap();
    let planted_b = b.planted().unwrap();
    assert_eq!(planted_a.assignment, planted_b.assignment);
}
