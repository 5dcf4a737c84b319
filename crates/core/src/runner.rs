//! High-level experiment runner: a [`Session`] ties a truth source,
//! parameters, and an adversary together; [`Session::run`] measures one
//! protocol execution, [`Session::run_sweep`] measures many in parallel.

use std::sync::Arc;
use std::time::{Duration, Instant};

use byzscore_adversary::{Behaviors, Corruption, Strategy, Truthful};
use byzscore_bitset::{BitMatrix, Bits};
use byzscore_blocks::{CandidateMeter, Ctx};
use byzscore_board::par::par_map_coarse;
use byzscore_board::{
    Board, BoardStats, ClusterSpec, DenseTruth, IntoTruthSource, LedgerSnapshot, Oracle,
    ProceduralTruth, TruthSource,
};
use byzscore_election::{BinStrategy, GreedyInfiltrate};
use byzscore_model::metrics::ErrorReport;
use byzscore_model::{Instance, Planted};
use byzscore_random::Beacon;

use crate::robust::RepetitionLog;
use crate::{baseline, calculate_preferences, robust_calculate_preferences, ProtocolParams};

/// Which algorithm to execute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algorithm {
    /// Figure 2 with trusted shared randomness (§6 analysis).
    CalculatePreferences,
    /// Full §7 protocol: elections + repetitions + `RSelect`.
    Robust,
    /// Prior-art proxy: direct sampling, no collaborative compression, no
    /// vote redundancy (§6.2's "natural approach", cf. \[2,3\]).
    NaiveSampling,
    /// No collaboration beyond pooling probe results.
    Solo,
    /// Population-majority per object.
    GlobalMajority,
    /// Skyline: planted clusters given for free.
    OracleClusters,
    /// `SmallRadius` run directly on the full object set with the given
    /// diameter (the direct \[2,3\] machinery, no sampling loop).
    DirectSmallRadius(usize),
}

impl Algorithm {
    /// Stable name for reports.
    pub fn name(&self) -> String {
        match self {
            Algorithm::CalculatePreferences => "calculate-preferences".into(),
            Algorithm::Robust => "robust".into(),
            Algorithm::NaiveSampling => "naive-sampling".into(),
            Algorithm::Solo => "solo".into(),
            Algorithm::GlobalMajority => "global-majority".into(),
            Algorithm::OracleClusters => "oracle-clusters".into(),
            Algorithm::DirectSmallRadius(d) => format!("direct-small-radius(D={d})"),
        }
    }
}

/// Why [`SessionBuilder::try_build`] could not produce a [`Session`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// No world was supplied. One of the world-setting builder steps —
    /// [`SessionBuilder::instance`], [`SessionBuilder::truth`],
    /// [`SessionBuilder::procedural`], or
    /// [`SessionBuilder::procedural_dense`] — must run before building.
    MissingWorld,
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::MissingWorld => write!(
                f,
                "SessionBuilder: no world set — call instance(..), truth(..), \
                 procedural(..), or procedural_dense(..) before build()"
            ),
        }
    }
}

impl std::error::Error for BuildError {}

/// How [`Session::run`] disposes of the per-player output rows.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OutputSink {
    /// Materialize [`Outcome::output`] as the dense `n × m` matrix — the
    /// default; every baseline table and equivalence test runs on it.
    #[default]
    Dense,
    /// Stream each output row straight into the per-player error
    /// accumulation and drop it; `Outcome::output` stays `None`. At
    /// `n = 10⁵`, `m = 1024` the dense matrix is 12.8 MB per outcome, and
    /// `@scale` sweeps hold several outcomes at once — the output matrix,
    /// not the truth, is the memory ceiling there. Error statistics are
    /// bit-identical to the dense sink (same rows, same fold order).
    ErrorStream,
}

/// Everything measured from one protocol execution.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Algorithm name.
    pub algorithm: String,
    /// Per-player output matrix `w` — `Some` under [`OutputSink::Dense`]
    /// (the default), `None` when the run streamed rows into the error
    /// accumulation instead ([`OutputSink::ErrorStream`]).
    pub output: Option<BitMatrix>,
    /// Error report over **honest** players (the paper's guarantee).
    pub errors: ErrorReport,
    /// Final probe counts per player.
    pub probes: LedgerSnapshot,
    /// Maximum probes spent by any honest player — the budget the paper's
    /// Lemmas 10–11 bound.
    pub max_honest_probes: u64,
    /// Bulletin-board traffic and memory (including the peak live-slot
    /// counts from scope-lifecycle accounting).
    pub board: BoardStats,
    /// Whether probe counts used memoized accounting (repeats free) or the
    /// paper's literal per-call accounting. The oracle auto-degrades to
    /// literal accounting past its memo-bitmap cap, so scale sweeps must
    /// not compare probe counts across a mode boundary.
    pub memoized_probes: bool,
    /// Wall-clock duration of the protocol run.
    pub elapsed: Duration,
    /// Robust-mode election log (empty for other algorithms).
    pub repetitions: Vec<RepetitionLog>,
    /// Number of dishonest players in the run.
    pub dishonest_count: usize,
    /// Peak resident candidate bytes across all per-player streaming
    /// `RSelect` tournaments (sum of deterministic per-player peaks).
    /// Zero for algorithms with no tournament (solo, majorities,
    /// skylines, `DirectSmallRadius`). Before guess-loop fusion this
    /// residency scaled with `n × guesses × m`; fused it is near `n × m`.
    pub peak_candidate_bytes: u64,
}

impl Outcome {
    /// The dense output matrix. Panics under [`OutputSink::ErrorStream`];
    /// consumers that inspect raw output rows require the default sink.
    pub fn output(&self) -> &BitMatrix {
        self.output
            .as_ref()
            .expect("Outcome::output requires OutputSink::Dense")
    }
}

/// One point of a sweep: which algorithm to run under which master seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepPoint {
    /// Algorithm to execute.
    pub algorithm: Algorithm,
    /// Master seed of the execution.
    pub seed: u64,
}

impl SweepPoint {
    /// New sweep point.
    pub fn new(algorithm: Algorithm, seed: u64) -> Self {
        SweepPoint { algorithm, seed }
    }
}

impl From<(Algorithm, u64)> for SweepPoint {
    fn from((algorithm, seed): (Algorithm, u64)) -> Self {
        SweepPoint { algorithm, seed }
    }
}

/// An executable world: truth source + parameters + adversary.
///
/// Sessions are lifetime-free (the truth is shared behind `Arc`) and
/// `Sync`, so independent executions — distinct `(algorithm, seed)` sweep
/// points — can run concurrently via [`Session::run_sweep`]. Build one with
/// [`Session::builder`]:
///
/// ```
/// use byzscore::{Algorithm, ProtocolParams, Session, SweepPoint};
/// use byzscore_adversary::{Corruption, Inverter};
/// use byzscore_model::{Balance, Workload};
///
/// let instance = Workload::CloneClasses {
///     players: 48, objects: 160, classes: 2, balance: Balance::Even,
/// }
/// .generate(1);
///
/// let session = Session::builder()
///     .instance(&instance)
///     .params(ProtocolParams::with_budget(8))
///     .adversary(Corruption::Count { count: 2 }, Inverter)
///     .build();
///
/// let outcome = session.run(Algorithm::Robust, 7);
/// assert!(outcome.errors.max <= 4);
///
/// // Independent sweep points execute in parallel, bit-identically to
/// // sequential `run` calls.
/// let outcomes = session.run_sweep(&[
///     SweepPoint::new(Algorithm::Robust, 7),
///     SweepPoint::new(Algorithm::GlobalMajority, 7),
/// ]);
/// assert_eq!(outcomes[0].output, outcome.output);
/// ```
pub struct Session {
    truth: Arc<dyn TruthSource>,
    planted: Option<Planted>,
    params: ProtocolParams,
    corruption: Corruption,
    strategy: Arc<dyn Strategy>,
    election_adversary: Arc<dyn BinStrategy>,
    sink: OutputSink,
}

impl Session {
    /// Start building a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder {
            truth: None,
            planted: None,
            params: None,
            corruption: Corruption::None,
            strategy: None,
            election_adversary: None,
            sink: OutputSink::Dense,
        }
    }

    /// Number of players `n`.
    pub fn players(&self) -> usize {
        self.truth.players()
    }

    /// Number of objects.
    pub fn objects(&self) -> usize {
        self.truth.objects()
    }

    /// Access the parameters (for experiment sweeps).
    pub fn params(&self) -> &ProtocolParams {
        &self.params
    }

    /// The truth source backing this session.
    pub fn truth(&self) -> &Arc<dyn TruthSource> {
        &self.truth
    }

    /// Planted structure, when known.
    pub fn planted(&self) -> Option<&Planted> {
        self.planted.as_ref()
    }

    /// The same configuration over a new world: parameters, adversary and
    /// sink carry over, nothing else does. A run on the result is a cold
    /// run, identical to one on a [`Session::builder`] session built over
    /// `truth` with the same configuration. The resident service engine
    /// calls this on every churn/epoch barrier (DESIGN.md §4.13).
    pub fn evolved(&self, truth: Arc<dyn TruthSource>, planted: Option<Planted>) -> Session {
        Session {
            truth,
            planted,
            params: self.params.clone(),
            corruption: self.corruption.clone(),
            strategy: self.strategy.clone(),
            election_adversary: self.election_adversary.clone(),
            sink: self.sink,
        }
    }

    /// Execute `algorithm` with master seed `seed` and measure everything.
    pub fn run(&self, algorithm: Algorithm, seed: u64) -> Outcome {
        let n = self.truth.players();
        let m = self.truth.objects();
        let dishonest = self.corruption.select_mask(n, self.planted.as_ref(), seed);
        let behaviors = Behaviors::new(self.truth.as_ref(), dishonest, self.strategy.as_ref());
        let oracle = Oracle::new(self.truth.clone());
        let board = Board::new();
        let meter = CandidateMeter::new();
        let ctx = Ctx::new(
            &oracle,
            &board,
            &behaviors,
            Beacon::honest(seed),
            &self.params.blocks,
        )
        .with_meter(&meter);

        let start = Instant::now();
        let mut repetitions = Vec::new();
        let rows = match algorithm {
            Algorithm::CalculatePreferences => calculate_preferences(&ctx, &self.params, &[0]),
            Algorithm::Robust => {
                let (rows, logs) = robust_calculate_preferences(
                    &ctx,
                    &self.params,
                    self.election_adversary.as_ref(),
                );
                repetitions = logs;
                rows
            }
            Algorithm::NaiveSampling => baseline::naive_sampling(&ctx, &self.params),
            Algorithm::Solo => baseline::solo(&ctx, &self.params),
            Algorithm::GlobalMajority => baseline::global_majority(&ctx, &self.params),
            Algorithm::OracleClusters => {
                baseline::oracle_clusters(&ctx, &self.params, self.planted.as_ref())
            }
            Algorithm::DirectSmallRadius(d) => {
                let players: Vec<u32> = (0..n as u32).collect();
                let objects: Vec<u32> = (0..m as u32).collect();
                byzscore_blocks::small_radius(&ctx, &players, &objects, d, &[0xd1])
            }
        };
        let elapsed = start.elapsed();

        let honest_mask = behaviors.honest_mask();
        let (output, errors) = match self.sink {
            OutputSink::Dense => {
                let output = BitMatrix::from_rows(&rows);
                let errors = ErrorReport::from_errors(
                    (0..n)
                        .filter(|&p| honest_mask[p])
                        .map(|p| output.row(p).hamming(&self.truth.row(p as u32)))
                        .collect(),
                );
                (Some(output), errors)
            }
            OutputSink::ErrorStream => {
                // Same rows, same honest-player order as the dense arm —
                // only the matrix materialization is gone; each row's
                // storage is released as soon as its error is folded in.
                let truth = &self.truth;
                let errors = ErrorReport::from_errors(
                    rows.into_iter()
                        .enumerate()
                        .filter(|(p, _)| honest_mask[*p])
                        .map(|(p, row)| row.hamming(&truth.row(p as u32)))
                        .collect(),
                );
                (None, errors)
            }
        };
        let probes = oracle.snapshot();
        let max_honest_probes = probes.max_where(&honest_mask);

        Outcome {
            algorithm: algorithm.name(),
            output,
            errors,
            probes,
            max_honest_probes,
            board: board.stats(),
            memoized_probes: oracle.is_memoized(),
            elapsed,
            repetitions,
            dishonest_count: behaviors.dishonest_count(),
            peak_candidate_bytes: meter.peak_bytes(),
        }
    }

    /// Execute every sweep point, in parallel under the process-wide
    /// [`byzscore_board::par::set_thread_limit`] budget.
    ///
    /// Each point is an independent pure function of `(self, point)` — its
    /// own oracle, board, and seed-derived randomness — so results are
    /// returned in point order and are bit-identical to sequential
    /// [`Session::run`] calls under any thread count (`tests/determinism.rs`
    /// pins this).
    pub fn run_sweep(&self, points: &[SweepPoint]) -> Vec<Outcome> {
        par_map_coarse(points, |pt| self.run(pt.algorithm, pt.seed))
    }
}

/// Builder for [`Session`] — substrate first, then parameters and
/// adversaries, then [`SessionBuilder::build`].
pub struct SessionBuilder {
    truth: Option<Arc<dyn TruthSource>>,
    planted: Option<Planted>,
    params: Option<ProtocolParams>,
    corruption: Corruption,
    strategy: Option<Arc<dyn Strategy>>,
    election_adversary: Option<Arc<dyn BinStrategy>>,
    sink: OutputSink,
}

impl SessionBuilder {
    /// Use a generated [`Instance`] as the world: its truth matrix becomes
    /// an owned [`DenseTruth`] and its planted structure carries over.
    pub fn instance(mut self, instance: &Instance) -> Self {
        self.truth = Some(Arc::new(DenseTruth::new(instance.truth().clone())));
        self.planted = instance.planted().cloned();
        self
    }

    /// Use any truth source (a `&BitMatrix` is cloned into a
    /// [`DenseTruth`]; pass an `Arc<dyn TruthSource>` to share).
    pub fn truth(mut self, truth: impl IntoTruthSource) -> Self {
        self.truth = Some(truth.into_truth_source());
        self
    }

    /// Use the `O(1)`-memory [`ProceduralTruth`] backend over `spec`; the
    /// spec's cluster structure is recorded as planted metadata so skyline
    /// baselines and `InCluster` corruption keep working.
    pub fn procedural(mut self, spec: ClusterSpec) -> Self {
        let source = ProceduralTruth::new(spec);
        self.planted = Some(procedural_planted(&source));
        self.truth = Some(Arc::new(source));
        self
    }

    /// Dense twin of [`SessionBuilder::procedural`]: materialize `spec`
    /// into a [`DenseTruth`] with identical bits and planted metadata.
    /// Exists so backend-equivalence checks (and dense-only metrics) can
    /// run the same world on both substrates.
    pub fn procedural_dense(mut self, spec: ClusterSpec) -> Self {
        let source = ProceduralTruth::new(spec);
        self.planted = Some(procedural_planted(&source));
        self.truth = Some(Arc::new(DenseTruth::new(source.materialize())));
        self
    }

    /// Override the planted structure (e.g. for custom truth sources).
    pub fn planted(mut self, planted: Planted) -> Self {
        self.planted = Some(planted);
        self
    }

    /// Protocol parameters (default: [`ProtocolParams::with_budget`]`(8)`).
    pub fn params(mut self, params: ProtocolParams) -> Self {
        self.params = Some(params);
        self
    }

    /// Shorthand for `.params(ProtocolParams::with_budget(b))`.
    pub fn budget(self, b: usize) -> Self {
        self.params(ProtocolParams::with_budget(b))
    }

    /// Install a corruption model and dishonest strategy.
    pub fn adversary(self, corruption: Corruption, strategy: impl Strategy + 'static) -> Self {
        self.adversary_shared(corruption, Arc::new(strategy))
    }

    /// [`SessionBuilder::adversary`] with an already-shared strategy.
    pub fn adversary_shared(mut self, corruption: Corruption, strategy: Arc<dyn Strategy>) -> Self {
        self.corruption = corruption;
        self.strategy = Some(strategy);
        self
    }

    /// Override how dishonest players play the leader election.
    pub fn election_adversary(mut self, adversary: impl BinStrategy + 'static) -> Self {
        self.election_adversary = Some(Arc::new(adversary));
        self
    }

    /// [`SessionBuilder::election_adversary`] with an already-shared
    /// strategy.
    pub fn election_adversary_shared(mut self, adversary: Arc<dyn BinStrategy>) -> Self {
        self.election_adversary = Some(adversary);
        self
    }

    /// How runs dispose of output rows (default [`OutputSink::Dense`]).
    /// `@scale` sweeps pass [`OutputSink::ErrorStream`] to keep error
    /// statistics without holding `n × m` output matrices.
    pub fn output_sink(mut self, sink: OutputSink) -> Self {
        self.sink = sink;
        self
    }

    /// Perf-only: the argument is ignored and the builder is returned
    /// unchanged. Kept only because the `perf/` benchmark still calls it.
    #[doc(hidden)]
    pub fn warm_start(self, _warm: Arc<crate::cluster::WarmStart>) -> Self {
        self
    }

    /// Finish. Panics with the [`BuildError`] message if no truth source
    /// was supplied; fallible callers use [`SessionBuilder::try_build`].
    pub fn build(self) -> Session {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Finish, naming the missing builder step instead of panicking.
    pub fn try_build(self) -> Result<Session, BuildError> {
        let truth = self.truth.ok_or(BuildError::MissingWorld)?;
        Ok(Session {
            truth,
            planted: self.planted,
            params: self
                .params
                .unwrap_or_else(|| ProtocolParams::with_budget(8)),
            corruption: self.corruption,
            strategy: self
                .strategy
                .unwrap_or_else(|| Arc::new(Truthful) as Arc<dyn Strategy>),
            election_adversary: self
                .election_adversary
                .unwrap_or_else(|| Arc::new(GreedyInfiltrate) as Arc<dyn BinStrategy>),
            sink: self.sink,
        })
    }
}

/// Planted metadata of a procedural cluster spec (assignment, members,
/// centers), identical to what the dense twin would record.
fn procedural_planted(source: &ProceduralTruth) -> Planted {
    Planted {
        assignment: source.assignment(),
        clusters: source.clusters(),
        centers: source.centers().to_vec(),
        target_diameter: source.spec().diameter,
        special_objects: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byzscore_adversary::Inverter;
    use byzscore_model::{Balance, Workload};

    fn instance() -> Instance {
        Workload::PlantedClusters {
            players: 64,
            objects: 64,
            clusters: 2,
            diameter: 4,
            balance: Balance::Even,
        }
        .generate(5)
    }

    fn session() -> Session {
        Session::builder().instance(&instance()).budget(4).build()
    }

    #[test]
    fn runner_measures_everything() {
        let outcome = session().run(Algorithm::CalculatePreferences, 1);
        assert_eq!(outcome.algorithm, "calculate-preferences");
        assert_eq!(outcome.output().rows(), 64);
        assert!(outcome.errors.max <= 16, "error {}", outcome.errors.max);
        assert!(outcome.max_honest_probes > 0);
        assert!(outcome.board.claim_posts > 0);
        assert_eq!(outcome.dishonest_count, 0);
        assert!(outcome.repetitions.is_empty());
    }

    #[test]
    fn runner_is_deterministic_in_seed() {
        let sys = session();
        let a = sys.run(Algorithm::CalculatePreferences, 9);
        let b = sys.run(Algorithm::CalculatePreferences, 9);
        assert_eq!(a.output, b.output);
        assert_eq!(a.probes.counts(), b.probes.counts());
    }

    #[test]
    fn adversarial_runner_excludes_dishonest_from_errors() {
        let inst = instance();
        let outcome = Session::builder()
            .instance(&inst)
            .budget(4)
            .adversary(Corruption::Count { count: 5 }, Inverter)
            .build()
            .run(Algorithm::GlobalMajority, 3);
        assert_eq!(outcome.dishonest_count, 5);
        assert_eq!(outcome.errors.evaluated, 59);
    }

    #[test]
    fn all_algorithms_run() {
        let sys = session();
        for alg in [
            Algorithm::Solo,
            Algorithm::GlobalMajority,
            Algorithm::OracleClusters,
            Algorithm::NaiveSampling,
            Algorithm::DirectSmallRadius(8),
        ] {
            let out = sys.run(alg, 2);
            assert_eq!(out.output().rows(), 64, "{}", alg.name());
        }
    }

    #[test]
    fn board_posts_are_retired_down_to_a_peak() {
        let out = session().run(Algorithm::CalculatePreferences, 4);
        assert!(out.board.retired_scopes > 0, "no scope was retired");
        assert!(
            out.board.peak_claim_slots < out.board.claim_posts,
            "peak {} should sit below cumulative posts {}",
            out.board.peak_claim_slots,
            out.board.claim_posts
        );
    }

    #[test]
    fn run_sweep_matches_run() {
        let sys = session();
        let points = [
            SweepPoint::new(Algorithm::CalculatePreferences, 11),
            SweepPoint::new(Algorithm::GlobalMajority, 12),
            (Algorithm::Solo, 13).into(),
        ];
        let swept = sys.run_sweep(&points);
        assert_eq!(swept.len(), 3);
        for (pt, out) in points.iter().zip(&swept) {
            let direct = sys.run(pt.algorithm, pt.seed);
            assert_eq!(out.output, direct.output, "{}", pt.algorithm.name());
            assert_eq!(out.probes.counts(), direct.probes.counts());
            assert_eq!(out.board, direct.board);
        }
    }

    #[test]
    fn try_build_names_the_missing_world_step() {
        let err = Session::builder().budget(4).try_build().err().unwrap();
        assert_eq!(err, BuildError::MissingWorld);
        let msg = err.to_string();
        for step in ["instance", "truth", "procedural", "build()"] {
            assert!(msg.contains(step), "{msg:?} does not name {step}");
        }
        // A world set through any builder step builds fine.
        assert!(Session::builder().instance(&instance()).try_build().is_ok());
    }

    /// `evolved` onto the same world and onto a drifted, churned one: each
    /// run equals a cold builder session over that world with the same
    /// adversary and seed.
    #[test]
    fn evolved_session_keeps_params_and_matches_cold() {
        let inst = instance();
        let sys = Session::builder()
            .instance(&inst)
            .budget(4)
            .adversary(Corruption::Count { count: 3 }, Inverter)
            .build();
        let map: Vec<u32> = (4..64).chain([1, 0]).collect();
        let drift = byzscore_board::DriftSchedule::uniform(0.02, 9);
        let changed = crate::compose_world(sys.truth(), Some(&drift), 3, &map);
        let worlds = [
            (sys.truth().clone(), inst.planted().cloned()),
            (
                changed,
                inst.planted().map(|p| crate::remap_planted(p, &map)),
            ),
        ];
        for (truth, planted) in worlds {
            let evolved = sys.evolved(truth.clone(), planted.clone());
            assert_eq!(evolved.params().budget(), sys.params().budget());
            assert_eq!(evolved.players(), truth.players());
            let mut cold = Session::builder()
                .truth(truth)
                .budget(4)
                .adversary(Corruption::Count { count: 3 }, Inverter);
            if let Some(p) = planted {
                cold = cold.planted(p);
            }
            let a = cold.build().run(Algorithm::NaiveSampling, 6);
            let b = evolved.run(Algorithm::NaiveSampling, 6);
            assert_eq!(a.output, b.output, "{} players", b.output().rows());
            assert_eq!(a.probes.counts(), b.probes.counts());
            assert_eq!(a.dishonest_count, b.dishonest_count);
        }
    }

    #[test]
    fn procedural_session_runs_without_matrix() {
        let spec = ClusterSpec {
            players: 96,
            objects: 128,
            clusters: 4,
            diameter: 6,
            seed: 21,
        };
        let sys = Session::builder().procedural(spec).budget(4).build();
        assert_eq!(sys.players(), 96);
        assert_eq!(sys.planted().unwrap().clusters.len(), 4);
        let out = sys.run(Algorithm::OracleClusters, 5);
        assert!(out.errors.max <= 12, "skyline error {}", out.errors.max);
    }
}
