//! The resident engine: many concurrent sessions answering typed
//! requests.
//!
//! # Execution model
//!
//! [`ServiceEngine::execute_one`] answers one request, and
//! [`ServiceEngine::execute`] is that call over a batch, in order: a
//! probe or query is validated and answered on the spot, and a barrier
//! op (open/churn/epoch/close) runs where it stands. Probes and queries
//! are reads (a probe reads the active world, a query the cached score
//! rows) and only barriers write, so answers are a pure function of the
//! barrier history and never depend on how a trace is split into
//! `execute` calls.
//!
//! # Resident world
//!
//! Each session ages its identity pool (`2 × players` rows by `objects`)
//! as bits in a [`ResidentPool`], the type `DynamicWorld` rounds run on
//! too: `AdvanceEpoch` folds that epoch's flips in place, churn moves only
//! the map, and every barrier gathers the active rows into one dense
//! truth. Probes and the scorer read bits, never the procedural formula or
//! a replay of past epochs; a unit test below pins the gathered world to
//! the drift/remap adapter composition barrier by barrier. The cost is
//! `2 · players · objects` bits per session (4.6 KB at 96 × 192).
//!
//! # Recompute
//!
//! Every barrier (open, churn, epoch) rescores the session cold through
//! [`Session::evolved`]: the new world replaces the truth, the session's
//! parameters and adversary carry over, and nothing else does. Each
//! barrier draws a fresh score seed and so a fresh public sample, which
//! leaves nothing worth carrying from the previous run (DESIGN.md §4.12).

use std::collections::BTreeMap;
use std::ops::Deref;

use byzscore::{
    procedural_planted, DriftSchedule, PoolError, ProceduralTruth, ProtocolParams, ResidentPool,
    Session,
};
use byzscore_adversary::{Corruption, Inverter};
use byzscore_bitset::{BitMatrix, Bits};
use byzscore_board::ClusterSpec;
use byzscore_random::derive_seed;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::request::{mix, Request, Response, ServiceError, SessionSpec};

const TAG_CHURN: u64 = 0x5e_c1;
const TAG_DRIFT: u64 = 0x5e_c2;
const TAG_SCORE: u64 = 0x5e_c3;

/// Ignored: the engine has no shard layout. Kept only because the
/// `perf/` benchmark still reads it.
#[doc(hidden)]
pub const DEFAULT_SHARDS: usize = 1;

/// Everything resident for one open session. The pool's fields (`map`,
/// `epoch`, ...) read through [`Deref`] and change through `world`.
struct SessionState {
    spec: SessionSpec,
    /// The identity pool drifted to its epoch. Never serialized: restore
    /// rebuilds it by folding epochs `1..=epoch`.
    world: ResidentPool,
    /// Churn transitions applied so far (feeds churn + score seeds).
    churns: u64,
    /// The current evolved session; its truth is the active world probes
    /// read.
    session: Session,
    /// Cached scores of the current world.
    rows: BitMatrix,
}

impl Deref for SessionState {
    type Target = ResidentPool;

    fn deref(&self) -> &ResidentPool {
        &self.world
    }
}

impl SessionState {
    /// The unscored session an image describes (its pool restored, the
    /// spec's parameters and adversary on the active world), or why no
    /// churn history leaves that pool. `open` and restore both start here.
    fn new(img: SessionImage) -> Result<Self, PoolError> {
        let (spec, source) = (img.spec, pool_source(&img.spec));
        let (planted, drift) = (procedural_planted(&source), drift_of(&spec));
        let world =
            ResidentPool::restore(&source, planted, drift, img.map, img.next_fresh, img.epoch)?;
        let (truth, planted) = world.active();
        let session = Session::builder()
            .truth(truth)
            .planted(planted)
            .params(ProtocolParams::with_budget(spec.budget.max(1)))
            .adversary(
                Corruption::Count {
                    count: spec.corrupt,
                },
                Inverter,
            )
            .build();
        Ok(SessionState {
            spec,
            world,
            churns: img.churns,
            session,
            rows: BitMatrix::zeros(0, 0),
        })
    }

    /// Run the scoring algorithm on the current world, cache the score
    /// rows queries read, and return the run's `max_err`. The run is a
    /// pure function of the spec, the map, the epoch and the churn count.
    fn score(&mut self) -> u64 {
        let seed = derive_seed(self.spec.score_seed, &[TAG_SCORE, self.epoch, self.churns]);
        let outcome = self.session.run(self.spec.algorithm.core(), seed);
        self.rows = outcome.output.expect("service sessions use the dense sink");
        outcome.errors.max as u64
    }

    /// After a world transition: evolve the session onto the new active
    /// world and rescore it, returning the run's `max_err`.
    fn recompute(&mut self) -> u64 {
        let (truth, planted) = self.world.active();
        self.session = self.session.evolved(truth, Some(planted));
        self.score()
    }
}

/// The resident scoring service.
///
/// ```
/// use byzscore_service::{Request, Response, ServiceEngine, SessionSpec, ServiceAlgorithm};
///
/// let mut engine = ServiceEngine::new();
/// let spec = SessionSpec {
///     players: 48, objects: 96, clusters: 4, diameter: 4,
///     world_seed: 7, algorithm: ServiceAlgorithm::Naive,
///     budget: 4, corrupt: 0, drift_ppm: 0, score_seed: 11,
/// };
/// let answers = engine.execute(&[
///     Request::Open(spec),
///     Request::QueryPreferences { session: 0, players: vec![0, 1], objects: None },
///     Request::CloseSession { session: 0 },
/// ]);
/// assert!(matches!(answers[0], Response::Opened { session: 0, .. }));
/// assert!(matches!(answers[2], Response::Closed { .. }));
/// ```
#[derive(Default)]
pub struct ServiceEngine {
    /// Open sessions by id; a closed session's state is dropped.
    sessions: BTreeMap<u64, SessionState>,
    /// The id the next `open` assigns. Ids are never reused, so an id
    /// below it that is absent from `sessions` was closed.
    next_sid: u64,
}

impl ServiceEngine {
    /// An engine with no sessions.
    pub fn new() -> ServiceEngine {
        ServiceEngine::default()
    }

    /// [`ServiceEngine::new`]; the argument is ignored. Kept only because
    /// the `perf/` benchmark still calls it.
    pub fn with_shards(_shards: usize) -> ServiceEngine {
        ServiceEngine::new()
    }

    /// Currently open sessions.
    pub fn open_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Execute a request batch; answers come back in request order.
    ///
    /// The answer stream is a pure function of the engine's session
    /// history and the batch — identical however the batch is split
    /// across `execute` calls.
    pub fn execute(&mut self, requests: &[Request]) -> Vec<Response> {
        requests.iter().map(|r| self.execute_one(r)).collect()
    }

    /// Answer one request. Probes and queries are validated, then
    /// answered against the session's resident world and cached rows;
    /// open/churn/epoch/close mutate the session world.
    pub(crate) fn execute_one(&mut self, req: &Request) -> Response {
        match req {
            Request::SubmitProbes {
                session,
                player,
                objects,
            } => {
                let state = match self.session_mut(*session) {
                    Ok(s) => s,
                    Err(e) => return Response::Rejected(e),
                };
                validate(state, *session, &[*player], Some(objects))
                    .unwrap_or_else(|| probe_response(state, *session, *player, objects))
            }
            Request::QueryPreferences {
                session,
                players,
                objects,
            } => {
                let state = match self.session_mut(*session) {
                    Ok(s) => s,
                    Err(e) => return Response::Rejected(e),
                };
                if players.is_empty() {
                    return Response::Rejected(ServiceError::EmptyQuery(*session));
                }
                validate(state, *session, players, objects.as_deref())
                    .unwrap_or_else(|| preferences(state, *session, players, objects.as_deref()))
            }
            Request::Open(spec) => self.open(*spec),
            Request::ApplyChurn {
                session,
                retire,
                join,
            } => self.churn(*session, *retire, *join),
            Request::AdvanceEpoch { session } => self.epoch(*session),
            Request::CloseSession { session } => self.close(*session),
        }
    }

    /// The open session `sid`, or why there is none: an id below the
    /// next one to be assigned was opened and has since closed.
    fn session_mut(&mut self, sid: u64) -> Result<&mut SessionState, ServiceError> {
        match self.sessions.get_mut(&sid) {
            Some(state) => Ok(state),
            None if sid < self.next_sid => Err(ServiceError::SessionClosed(sid)),
            None => Err(ServiceError::UnknownSession(sid)),
        }
    }

    fn open(&mut self, spec: SessionSpec) -> Response {
        let players = spec.players.max(1);
        if let Err(message) = scorable("open", players, spec.corrupt) {
            return Response::Rejected(ServiceError::Malformed { message });
        }
        let sid = self.next_sid;
        let image = SessionImage {
            spec,
            map: (0..players as u32).collect(),
            next_fresh: players as u32,
            epoch: 0,
            churns: 0,
        };
        let mut state = SessionState::new(image).expect("a fresh pool holds its first players");
        let max_err = state.score();
        let response = Response::Opened {
            session: sid,
            players: state.map.len(),
            max_err,
        };
        self.sessions.insert(sid, state);
        self.next_sid += 1;
        response
    }

    fn churn(&mut self, sid: u64, retire: usize, join: usize) -> Response {
        let state = match self.session_mut(sid) {
            Ok(s) => s,
            Err(e) => return Response::Rejected(e),
        };
        let (retiring, joining) = state.churn_counts(retire, join);
        let population = state.map.len() - retiring + joining;
        if let Err(message) = scorable("churn", population, state.spec.corrupt) {
            return Response::Rejected(ServiceError::Malformed { message });
        }
        state.churns += 1;
        let mut rng = SmallRng::seed_from_u64(derive_seed(
            state.spec.world_seed,
            &[TAG_CHURN, state.churns],
        ));
        let (retired, joined) = state.world.churn(retire, join, &mut rng);
        let max_err = state.recompute();
        Response::Churned {
            session: sid,
            retired,
            joined,
            players: state.map.len(),
            max_err,
        }
    }

    fn epoch(&mut self, sid: u64) -> Response {
        let state = match self.session_mut(sid) {
            Ok(s) => s,
            Err(e) => return Response::Rejected(e),
        };
        state.world.advance_epoch();
        let max_err = state.recompute();
        Response::Epoch {
            session: sid,
            epoch: state.epoch,
            max_err,
        }
    }

    fn close(&mut self, sid: u64) -> Response {
        if let Err(e) = self.session_mut(sid) {
            return Response::Rejected(e);
        }
        self.sessions.remove(&sid);
        Response::Closed { session: sid }
    }
}

/// A session can be scored only while its population exceeds its corrupt
/// count: the adversary corrupts exactly `corrupt` players and the error
/// report needs at least one honest one. `op` would leave `population`;
/// the error message names all three.
pub(crate) fn scorable(op: &str, population: usize, corrupt: usize) -> Result<(), String> {
    if population > corrupt {
        return Ok(());
    }
    Err(format!(
        "{op} leaves population {population}, which must exceed corrupt {corrupt}"
    ))
}

/// The procedural identity pool (capacity `2 × players`) a spec denotes.
fn pool_source(spec: &SessionSpec) -> ProceduralTruth {
    let players = spec.players.max(1);
    ProceduralTruth::new(ClusterSpec {
        players: players * 2,
        objects: spec.objects.max(1),
        clusters: spec.clusters.clamp(1, players),
        diameter: spec.diameter,
        seed: spec.world_seed,
    })
}

/// The spec's drift law: uniform at `drift_ppm`, `None` at 0.
fn drift_of(spec: &SessionSpec) -> Option<DriftSchedule> {
    (spec.drift_ppm > 0).then(|| {
        DriftSchedule::uniform(
            spec.drift_ppm as f64 / 1e6,
            derive_seed(spec.world_seed, &[TAG_DRIFT]),
        )
    })
}

/// Answer one probe op: every probed bit is read from the session's
/// active world, and nothing is written, so a probe's answer depends only
/// on the barriers before it and a resent probe answers the same.
fn probe_response(state: &SessionState, session: u64, player: u32, objects: &[u32]) -> Response {
    let truth = state.session.truth();
    let mut ones = 0u32;
    let mut digest = 0x920beu64;
    for &o in objects.iter() {
        let bit = truth.value(player, o);
        ones += bit as u32;
        digest = mix(digest, mix(o as u64, bit as u64));
    }
    Response::Probed {
        session,
        player,
        ones,
        digest,
    }
}

/// Answer a preference query — pure reads of the cached score rows:
/// fold each player's `(ones, row digest)` in request order into
/// [`Response::Preferences`].
fn preferences(
    state: &SessionState,
    session: u64,
    players: &[u32],
    objects: Option<&[u32]>,
) -> Response {
    let mut total = 0u64;
    let mut digest = 0x9e4fu64;
    for &p in players {
        let row = state.rows.row(p as usize);
        let (ones, row_digest) = match objects {
            None => (row.count_ones() as u64, row.content_hash()),
            Some(objs) => {
                let mut ones = 0u64;
                let mut d = 0x9ae5u64;
                for &o in objs.iter() {
                    let bit = row.get(o as usize);
                    ones += bit as u64;
                    d = mix(d, mix(o as u64, bit as u64));
                }
                (ones, d)
            }
        };
        total += ones;
        digest = mix(digest, mix(ones, row_digest));
    }
    Response::Preferences {
        session,
        players: players.len() as u32,
        ones: total,
        digest,
    }
}

/// The durable slice of one resident session — everything a checkpoint
/// must carry to reconstruct [`SessionState`] without replaying its
/// history. The resident world (the pool drifted to `epoch`), the active
/// world probes read and the score rows queries read are pure functions
/// of these fields, so they are *recomputed* at restore rather than
/// serialized.
pub(crate) struct SessionImage {
    pub spec: SessionSpec,
    pub map: Vec<u32>,
    pub next_fresh: u32,
    pub epoch: u64,
    pub churns: u64,
}

impl ServiceEngine {
    /// Session ids ever assigned (open + closed; ids are never reused,
    /// so a restored engine must preserve this count).
    pub(crate) fn session_slots(&self) -> u64 {
        self.next_sid
    }

    /// Snapshot every open session as a [`SessionImage`], in id order.
    pub(crate) fn images(&self) -> Vec<(u64, SessionImage)> {
        self.sessions
            .iter()
            .map(|(&sid, state)| {
                let image = SessionImage {
                    spec: state.spec,
                    map: state.map.clone(),
                    next_fresh: state.next_fresh,
                    epoch: state.epoch,
                    churns: state.churns,
                };
                (sid, image)
            })
            .collect()
    }

    /// Rebuild an engine from checkpoint images: `slots` ids assigned,
    /// each image's session built as `open` builds one, then — once all
    /// pools restored — each scored with its epoch and churn seed: one fold
    /// per past epoch and pool bit plus ~1 ms per `naive` session at
    /// 96 × 192. `decode` has bounded the epochs and populations.
    pub(crate) fn from_images(
        slots: u64,
        images: Vec<(u64, SessionImage)>,
    ) -> Result<ServiceEngine, (u64, PoolError)> {
        let mut sessions = images
            .into_iter()
            .map(|(sid, image)| {
                SessionState::new(image)
                    .map(|s| (sid, s))
                    .map_err(|e| (sid, e))
            })
            .collect::<Result<BTreeMap<u64, SessionState>, _>>()?;
        for state in sessions.values_mut() {
            state.score();
        }
        Ok(ServiceEngine {
            sessions,
            next_sid: slots,
        })
    }
}

/// Range-check players and objects against the session; `Some(Rejected)`
/// on the first violation.
fn validate(
    state: &SessionState,
    session: u64,
    players: &[u32],
    objects: Option<&[u32]>,
) -> Option<Response> {
    let n = state.map.len();
    for &p in players {
        if p as usize >= n {
            return Some(Response::Rejected(ServiceError::PlayerOutOfRange {
                session,
                player: p,
                players: n,
            }));
        }
    }
    if let Some(objs) = objects {
        let m = state.spec.objects;
        for &o in objs {
            if o as usize >= m {
                return Some(Response::Rejected(ServiceError::ObjectOutOfRange {
                    session,
                    object: o,
                    objects: m,
                }));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ServiceAlgorithm;
    use byzscore::TruthSource;
    use std::sync::Arc;

    fn spec(seed: u64) -> SessionSpec {
        SessionSpec {
            players: 48,
            objects: 96,
            clusters: 4,
            diameter: 4,
            world_seed: seed,
            algorithm: ServiceAlgorithm::Naive,
            budget: 4,
            corrupt: 0,
            drift_ppm: 2_000,
            score_seed: seed ^ 0xa5a5,
        }
    }

    #[test]
    fn open_query_close_lifecycle() {
        let mut engine = ServiceEngine::new();
        let answers = engine.execute(&[
            Request::Open(spec(1)),
            Request::QueryPreferences {
                session: 0,
                players: vec![0, 7, 31],
                objects: None,
            },
            Request::SubmitProbes {
                session: 0,
                player: 3,
                objects: vec![0, 1, 2, 90],
            },
            Request::CloseSession { session: 0 },
        ]);
        assert!(matches!(
            answers[0],
            Response::Opened {
                session: 0,
                players: 48,
                ..
            }
        ));
        assert!(matches!(
            answers[1],
            Response::Preferences { players: 3, .. }
        ));
        assert!(matches!(
            answers[2],
            Response::Probed {
                session: 0,
                player: 3,
                ..
            }
        ));
        assert!(matches!(answers[3], Response::Closed { session: 0, .. }));
        assert_eq!(engine.open_sessions(), 0);
    }

    /// A probe is a read: an engine that ran the first half of a trace
    /// and one that ran it without its probes checkpoint to the same bytes
    /// and answer the second half the same.
    #[test]
    fn a_probe_changes_no_engine_state() {
        use crate::checkpoint::encode_checkpoint;
        use crate::journal::DedupeWindow;
        use crate::workload::{Trace, TraceSpec};

        let trace = Trace::generate(&TraceSpec::small(29));
        let (head, tail) = trace.ops.split_at(trace.ops.len() / 2);
        let without_probes: Vec<Request> = head
            .iter()
            .filter(|op| !matches!(op, Request::SubmitProbes { .. }))
            .cloned()
            .collect();
        assert!(without_probes.len() < head.len(), "the first half probes");
        let (mut live, mut unprobed) = (ServiceEngine::new(), ServiceEngine::new());
        live.execute(head);
        unprobed.execute(&without_probes);
        assert!(live.open_sessions() > 0, "sessions are open at the cut");
        let dedupe = DedupeWindow::new();
        assert_eq!(
            encode_checkpoint(&live, &dedupe, head.len() as u64),
            encode_checkpoint(&unprobed, &dedupe, head.len() as u64),
            "a probe changed checkpointed state"
        );
        assert_eq!(live.execute(tail), unprobed.execute(tail));
    }

    #[test]
    fn answers_do_not_depend_on_batch_splits() {
        let ops = vec![
            Request::Open(spec(4)),
            Request::SubmitProbes {
                session: 0,
                player: 1,
                objects: vec![0, 5, 9],
            },
            Request::QueryPreferences {
                session: 0,
                players: vec![2, 40, 11],
                objects: Some(vec![3, 4]),
            },
            Request::ApplyChurn {
                session: 0,
                retire: 3,
                join: 2,
            },
            Request::QueryPreferences {
                session: 0,
                players: vec![0, 46],
                objects: None,
            },
            Request::AdvanceEpoch { session: 0 },
            Request::QueryPreferences {
                session: 0,
                players: vec![5],
                objects: None,
            },
            Request::CloseSession { session: 0 },
        ];
        let whole = ServiceEngine::new().execute(&ops);
        // One op per call.
        let mut split_engine = ServiceEngine::new();
        let split: Vec<Response> = ops
            .iter()
            .flat_map(|op| split_engine.execute(std::slice::from_ref(op)))
            .collect();
        assert_eq!(whole, split, "batch splits must not change answers");
        // Fixed-size chunks that cut across barriers agree too.
        for chunk in [2, 3, 5] {
            let mut engine = ServiceEngine::new();
            let chunked: Vec<Response> =
                ops.chunks(chunk).flat_map(|c| engine.execute(c)).collect();
            assert_eq!(whole, chunked, "chunks of {chunk} changed answers");
        }
    }

    #[test]
    fn churn_and_epoch_recompute_and_report_population() {
        let mut engine = ServiceEngine::new();
        engine.execute(&[Request::Open(spec(5))]);
        let churned = engine
            .execute(&[Request::ApplyChurn {
                session: 0,
                retire: 4,
                join: 2,
            }])
            .remove(0);
        match churned {
            Response::Churned {
                ref retired,
                ref joined,
                players,
                ..
            } => {
                assert_eq!(retired.len(), 4);
                assert_eq!(joined, &[48, 49], "joiners are fresh pool rows");
                assert_eq!(players, 46);
            }
            other => panic!("expected Churned, got {other:?}"),
        }
        let epoch = engine
            .execute(&[Request::AdvanceEpoch { session: 0 }])
            .remove(0);
        assert!(matches!(epoch, Response::Epoch { epoch: 1, .. }));
    }

    /// The resident world is the adapter composition, bit for bit: after
    /// every barrier of a churn + epoch trace at 2000 ppm, each session's
    /// gathered truth equals `byzscore::compose_world` over its
    /// procedural pool, and a checkpoint restore re-folds the same world.
    #[test]
    fn resident_world_matches_the_adapter_composition() {
        use crate::checkpoint::{decode_checkpoint, encode_checkpoint};
        use crate::journal::DedupeWindow;
        use crate::workload::{OpMix, Trace, TraceSpec};

        let trace = Trace::generate(&TraceSpec {
            ops: 120,
            mix: OpMix {
                probe: 2,
                query: 1,
                churn: 2,
                epoch: 3,
            },
            ..TraceSpec::small(41)
        });
        let mut engine = ServiceEngine::new();
        let mut mutating = 0u64;
        let mut restored_at = None;
        for op in &trace.ops {
            assert!(!matches!(engine.execute_one(op), Response::Rejected(_)));
            mutating += u64::from(op.is_mutating());
            if op.is_shardable() {
                continue;
            }
            for state in engine.sessions.values() {
                let pool = Arc::new(pool_source(&state.spec)) as Arc<dyn TruthSource>;
                let reference =
                    byzscore::compose_world(&pool, state.drift.as_ref(), state.epoch, &state.map);
                let live = state.session.truth();
                assert_eq!(live.players(), reference.players());
                for p in 0..reference.players() as u32 {
                    assert_eq!(live.row(p), reference.row(p), "epoch {}", state.epoch);
                }
            }
            let aged = engine.sessions.values().any(|s| s.epoch >= 3);
            if aged && restored_at.is_none() {
                let text = encode_checkpoint(&engine, &DedupeWindow::new(), mutating);
                let restored = decode_checkpoint(&text, 1)
                    .expect("checkpoint decodes")
                    .engine;
                assert!(restored.sessions.keys().eq(engine.sessions.keys()));
                for (live, back) in engine.sessions.values().zip(restored.sessions.values()) {
                    assert_eq!(back.world, live.world, "restore re-folds the world");
                    assert_eq!(back.rows, live.rows, "restore re-scores the same rows");
                    let (a, b) = (live.session.truth(), back.session.truth());
                    assert_eq!(a.players(), b.players());
                    for p in 0..live.map.len() as u32 {
                        assert_eq!(a.row(p), b.row(p));
                    }
                }
                restored_at = engine.sessions.values().map(|s| s.epoch).max();
            }
        }
        assert!(restored_at >= Some(3), "the trace must age a session");
    }

    /// An `open` whose corrupt count covers every player, and a `churn`
    /// that leaves no more players than the corrupt count, are typed
    /// rejections that change nothing: no session id is consumed and the
    /// churn counter (which seeds the next churn) does not move.
    #[test]
    fn unscorable_populations_are_rejected_before_any_state_changes() {
        let all_corrupt = SessionSpec {
            players: 8,
            objects: 16,
            clusters: 1,
            diameter: 2,
            corrupt: 8,
            drift_ppm: 0,
            ..spec(1)
        };
        let two_corrupt = SessionSpec {
            corrupt: 2,
            ..all_corrupt
        };
        let churn = |retire| Request::ApplyChurn {
            session: 0,
            retire,
            join: 0,
        };
        let malformed = |resp: &Response| match resp {
            Response::Rejected(ServiceError::Malformed { message }) => message.clone(),
            other => panic!("expected a Malformed rejection, got {other:?}"),
        };
        let mut engine = ServiceEngine::new();
        // One honest player is enough: both boundaries are scored.
        let answers = engine.execute(&[
            Request::Open(all_corrupt),
            Request::Open(two_corrupt),
            churn(7),
            churn(5),
            Request::Open(SessionSpec {
                corrupt: 7,
                ..all_corrupt
            }),
        ]);
        let open = malformed(&answers[0]);
        assert!(
            open.contains("population 8") && open.contains("corrupt 8"),
            "{open}"
        );
        assert!(matches!(
            answers[1],
            Response::Opened {
                session: 0,
                players: 8,
                ..
            }
        ));
        let churned = malformed(&answers[2]);
        assert!(
            churned.contains("population 1") && churned.contains("corrupt 2"),
            "{churned}"
        );
        let clean = ServiceEngine::new().execute(&[Request::Open(two_corrupt), churn(5)]);
        assert_eq!(answers[1], clean[0]);
        assert_eq!(
            answers[3], clean[1],
            "the rejected churn moved the churn seed"
        );
        assert!(matches!(answers[3], Response::Churned { players: 3, .. }));
        assert!(matches!(answers[4], Response::Opened { session: 1, .. }));
        assert_eq!(engine.open_sessions(), 2);
    }

    #[test]
    fn errors_are_typed_and_non_fatal() {
        let mut engine = ServiceEngine::new();
        let answers = engine.execute(&[
            Request::Open(spec(7)),
            Request::SubmitProbes {
                session: 9,
                player: 0,
                objects: vec![0],
            },
            Request::SubmitProbes {
                session: 0,
                player: 99,
                objects: vec![0],
            },
            Request::QueryPreferences {
                session: 0,
                players: vec![0],
                objects: Some(vec![999]),
            },
            Request::QueryPreferences {
                session: 0,
                players: vec![],
                objects: None,
            },
            Request::CloseSession { session: 0 },
            Request::AdvanceEpoch { session: 0 },
        ]);
        assert!(matches!(
            answers[1],
            Response::Rejected(ServiceError::UnknownSession(9))
        ));
        assert!(matches!(
            answers[2],
            Response::Rejected(ServiceError::PlayerOutOfRange { player: 99, .. })
        ));
        assert!(matches!(
            answers[3],
            Response::Rejected(ServiceError::ObjectOutOfRange { object: 999, .. })
        ));
        assert!(matches!(
            answers[4],
            Response::Rejected(ServiceError::EmptyQuery(0))
        ));
        assert!(matches!(answers[5], Response::Closed { .. }));
        assert!(matches!(
            answers[6],
            Response::Rejected(ServiceError::SessionClosed(0))
        ));
    }
}
