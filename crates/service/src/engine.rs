//! The resident engine: many concurrent sessions on one shared board,
//! answering typed requests.
//!
//! # Execution model
//!
//! [`ServiceEngine::execute_one`] answers one request, and
//! [`ServiceEngine::execute`] is that call over a batch, in order: a
//! probe or query is validated and answered on the spot, and a barrier
//! op (open/churn/epoch/close) runs where it stands. Probes and queries commute with each other between barriers
//! (probe side effects are atomic ledger counts and same-value board
//! claims; queries read the cached score rows), so answers are a pure
//! function of the session history and never depend on how a trace is
//! split into `execute` calls.
//!
//! # Resident world
//!
//! Each session keeps its whole identity pool as bits: a `2 × players`
//! by `objects` [`BitMatrix`], drifted to the session's current epoch.
//! `AdvanceEpoch` folds that epoch's flips into it in place
//! ([`DriftSchedule::fold_epoch`], one hash step per pool bit), churn
//! leaves it untouched, and every barrier gathers the active slots' rows
//! through the churn map into one [`DenseTruth`]. Probes and the scorer
//! therefore read bits, never the procedural formula or a replay of past
//! epochs. The bits are the ones core's pool → drift → remap adapter
//! composition denotes (what `DynamicWorld` still runs), and a unit test
//! below pins the two barrier by barrier. The cost is
//! `2 · players · objects` bits per session (4.6 KB at 96 × 192).
//!
//! # Recompute
//!
//! Every barrier (open, churn, epoch) rescores the session cold through
//! [`Session::evolved`]: the new world replaces the truth, the session's
//! parameters and adversary carry over, and nothing else does. Each
//! barrier draws a fresh score seed and so a fresh public sample, which
//! leaves nothing worth carrying from the previous run (DESIGN.md §4.12).

use std::sync::Arc;

use byzscore::{
    churn_counts, churn_step, remap_planted, DriftSchedule, ProceduralTruth, ProtocolParams,
    Session, TruthSource,
};
use byzscore_adversary::{Corruption, Inverter};
use byzscore_bitset::{BitMatrix, Bits};
use byzscore_board::{Board, BoardStats, ClusterSpec, DenseTruth, Oracle};
use byzscore_model::Planted;
use byzscore_random::derive_seed;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::request::{mix, Request, Response, ServiceError, SessionSpec};

/// Root tag of every service board scope: session `s` posts under the
/// path `[TAG_SERVICE, s]`.
pub const TAG_SERVICE: u64 = 0x5e_c0;
const TAG_CHURN: u64 = 0x5e_c1;
const TAG_DRIFT: u64 = 0x5e_c2;
const TAG_SCORE: u64 = 0x5e_c3;

/// Ignored: the engine has no shard layout. Kept only because the
/// `perf/` benchmark still reads it.
#[doc(hidden)]
pub const DEFAULT_SHARDS: usize = 1;

/// Everything resident for one open session.
struct SessionState {
    spec: SessionSpec,
    /// The fixed identity pool (capacity `2 × players` rows) as bits,
    /// drifted to `epoch`. Derived state like the oracle: never
    /// serialized, rebuilt at restore by folding epochs `1..=epoch`.
    world: BitMatrix,
    /// The session's drift law (`None` at 0 ppm), built once at open.
    drift: Option<DriftSchedule>,
    pool_planted: Planted,
    /// Active slot → pool identity.
    map: Vec<u32>,
    next_fresh: u32,
    epoch: u64,
    /// Churn transitions applied so far (feeds churn + score seeds).
    churns: u64,
    /// The current evolved session (world of `epoch`/`map`).
    session: Session,
    /// Resident probe oracle over the current world.
    oracle: Oracle,
    /// Cached scores of the current world.
    rows: BitMatrix,
    /// Board scope id of this session's posts.
    scope: u64,
    last_max_err: u64,
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
    board: Board,
    /// Index = session id; `None` = closed. Ids are never reused.
    sessions: Vec<Option<SessionState>>,
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
        self.sessions.iter().flatten().count()
    }

    /// Traffic and memory counters of the shared bulletin board.
    pub fn board_stats(&self) -> BoardStats {
        self.board.stats()
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
    /// answered against the session's resident oracle and cached rows;
    /// open/churn/epoch/close mutate the session world.
    pub(crate) fn execute_one(&mut self, req: &Request) -> Response {
        match req {
            Request::SubmitProbes {
                session,
                player,
                objects,
            } => {
                let state = match session_ref(&self.sessions, *session) {
                    Ok(s) => s,
                    Err(e) => return Response::Rejected(e),
                };
                validate(state, *session, &[*player], Some(objects)).unwrap_or_else(|| {
                    probe_response(&self.board, state, *session, *player, objects)
                })
            }
            Request::QueryPreferences {
                session,
                players,
                objects,
            } => {
                let state = match session_ref(&self.sessions, *session) {
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

    fn open(&mut self, spec: SessionSpec) -> Response {
        let players = spec.players.max(1);
        if let Err(e) = scorable("open", players, spec.corrupt) {
            return Response::Rejected(e);
        }
        let sid = self.sessions.len() as u64;
        let drift = drift_of(&spec);
        let (world, pool_planted) = pool_of(&spec, drift.as_ref(), 0);
        let session = fresh_session(&spec);
        let scope = self.board.scope(&[TAG_SERVICE, sid]).id();
        let mut state = SessionState {
            spec,
            world,
            drift,
            pool_planted,
            map: (0..players as u32).collect(),
            next_fresh: players as u32,
            epoch: 0,
            churns: 0,
            session,
            // Placeholders; `recompute` installs the real world.
            oracle: Oracle::new_uncached(Arc::new(EmptyTruth) as Arc<dyn TruthSource>),
            rows: BitMatrix::zeros(0, 0),
            scope,
            last_max_err: 0,
        };
        recompute(&mut state);
        let response = Response::Opened {
            session: sid,
            players: state.map.len(),
            max_err: state.last_max_err,
        };
        self.sessions.push(Some(state));
        response
    }

    fn churn(&mut self, sid: u64, retire: usize, join: usize) -> Response {
        let state = match session_mut(&mut self.sessions, sid) {
            Ok(s) => s,
            Err(e) => return Response::Rejected(e),
        };
        let pool_rows = state.world.rows() as u32;
        let active = state.map.len();
        let (retiring, joining) = churn_counts(active, state.next_fresh, pool_rows, retire, join);
        if let Err(e) = scorable("churn", active - retiring + joining, state.spec.corrupt) {
            return Response::Rejected(e);
        }
        state.churns += 1;
        let mut rng = SmallRng::seed_from_u64(derive_seed(
            state.spec.world_seed,
            &[TAG_CHURN, state.churns],
        ));
        let (retired, joined) = churn_step(
            &mut state.map,
            &mut state.next_fresh,
            pool_rows,
            retire,
            join,
            &mut rng,
        );
        recompute(state);
        Response::Churned {
            session: sid,
            retired,
            joined,
            players: state.map.len(),
            max_err: state.last_max_err,
        }
    }

    fn epoch(&mut self, sid: u64) -> Response {
        let state = match session_mut(&mut self.sessions, sid) {
            Ok(s) => s,
            Err(e) => return Response::Rejected(e),
        };
        state.epoch += 1;
        if let Some(drift) = &state.drift {
            drift.fold_epoch(state.epoch, &mut state.world);
        }
        recompute(state);
        Response::Epoch {
            session: sid,
            epoch: state.epoch,
            max_err: state.last_max_err,
        }
    }

    fn close(&mut self, sid: u64) -> Response {
        if let Err(e) = session_mut(&mut self.sessions, sid) {
            return Response::Rejected(e);
        }
        let before = self.board.stats().live_slots();
        // Retire through the scope handle: re-resolving the path yields
        // the same scope id the session posted under.
        self.board.scope(&[TAG_SERVICE, sid]).retire();
        let freed = before - self.board.stats().live_slots();
        self.sessions[sid as usize] = None;
        Response::Closed {
            session: sid,
            freed_slots: freed,
        }
    }
}

/// A session can be scored only while its population exceeds its corrupt
/// count: the adversary corrupts exactly `corrupt` players and the error
/// report needs at least one honest one. `op` would leave `population`.
fn scorable(op: &str, population: usize, corrupt: usize) -> Result<(), ServiceError> {
    if population > corrupt {
        return Ok(());
    }
    Err(ServiceError::Malformed {
        message: format!(
            "{op} leaves population {population}, which must exceed corrupt {corrupt}"
        ),
    })
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

/// The pool as bits, drifted to `epoch` by folding epochs `1..=epoch`,
/// and its planted structure — a pure function of the spec and the
/// epoch, so `open` (epoch 0) and checkpoint restore derive identical
/// worlds.
fn pool_of(spec: &SessionSpec, drift: Option<&DriftSchedule>, epoch: u64) -> (BitMatrix, Planted) {
    let source = pool_source(spec);
    let mut world = BitMatrix::zeros(source.players(), source.objects());
    for p in 0..world.rows() {
        world.set_row(p, &source.row(p as u32));
    }
    if let Some(drift) = drift {
        for e in 1..=epoch {
            drift.fold_epoch(e, &mut world);
        }
    }
    let pool_planted = Planted {
        assignment: source.assignment(),
        clusters: source.clusters(),
        centers: source.centers().to_vec(),
        target_diameter: source.spec().diameter,
        special_objects: None,
    };
    (world, pool_planted)
}

/// A never-run session carrying the spec's parameters and adversary;
/// `recompute` evolves it onto the world before its first run.
fn fresh_session(spec: &SessionSpec) -> Session {
    Session::builder()
        .truth(Arc::new(EmptyTruth) as Arc<dyn TruthSource>)
        .params(ProtocolParams::with_budget(spec.budget.max(1)))
        .adversary(
            Corruption::Count {
                count: spec.corrupt,
            },
            Inverter,
        )
        .build()
}

/// A zero-player truth used only as the pre-`recompute` placeholder of
/// the session and the oracle.
struct EmptyTruth;

impl TruthSource for EmptyTruth {
    fn players(&self) -> usize {
        0
    }
    fn objects(&self) -> usize {
        0
    }
    fn value(&self, _player: u32, _object: u32) -> bool {
        false
    }
}

fn session_ref(sessions: &[Option<SessionState>], sid: u64) -> Result<&SessionState, ServiceError> {
    match sessions.get(sid as usize) {
        None => Err(ServiceError::UnknownSession(sid)),
        Some(None) => Err(ServiceError::SessionClosed(sid)),
        Some(Some(state)) => Ok(state),
    }
}

fn session_mut(
    sessions: &mut [Option<SessionState>],
    sid: u64,
) -> Result<&mut SessionState, ServiceError> {
    match sessions.get_mut(sid as usize) {
        None => Err(ServiceError::UnknownSession(sid)),
        Some(None) => Err(ServiceError::SessionClosed(sid)),
        Some(Some(state)) => Ok(state),
    }
}

/// Rebuild a session's scores after a transition (or at open): gather
/// the active world from the resident pool, evolve the session onto it,
/// run the scoring algorithm, and refresh the caches probes and queries
/// read (score rows, probe oracle).
fn recompute(state: &mut SessionState) {
    let (truth, planted) = compose_world(state);
    state.session = state.session.evolved(truth.clone(), Some(planted));
    let seed = derive_seed(
        state.spec.score_seed,
        &[TAG_SCORE, state.epoch, state.churns],
    );
    let outcome = state.session.run(state.spec.algorithm.core(), seed);
    state.last_max_err = outcome.errors.max as u64;
    state.rows = outcome.output.expect("service sessions use the dense sink");
    state.oracle = Oracle::new(truth);
}

/// The world the active slots see: row `map[slot]` of the resident pool
/// (already drifted to `epoch`) for each slot, gathered into one dense
/// truth, plus the remapped planted structure. Shared by `recompute` and
/// checkpoint restore.
fn compose_world(state: &SessionState) -> (Arc<dyn TruthSource>, Planted) {
    let mut active = BitMatrix::zeros(state.map.len(), state.world.cols());
    for (slot, &id) in state.map.iter().enumerate() {
        active.set_row(slot, &state.world.row(id as usize));
    }
    let planted = remap_planted(&state.pool_planted, &state.map);
    (Arc::new(DenseTruth::new(active)), planted)
}

/// Execute one probe op against a session: every probed bit is read
/// through the memoized oracle and posted as a claim in the session's
/// board scope. Side effects commute (atomic probe ledger, same-value
/// claims), so probes between two barriers produce the same final state
/// and per-op answers in any order.
fn probe_response(
    board: &Board,
    state: &SessionState,
    session: u64,
    player: u32,
    objects: &[u32],
) -> Response {
    let mut ones = 0u32;
    let mut digest = 0x920beu64;
    for &o in objects.iter() {
        let bit = state.oracle.probe(player, o);
        board.post_claim(state.scope, player, o, bit);
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
/// history. The resident world (the pool drifted to `epoch`) and the
/// probe oracle are pure functions of these fields, so they are
/// *recomputed* at restore rather than serialized — a folded world is
/// `2 · players · objects` bits, the fold is cheap next to the scorer,
/// and leaving it out keeps the checkpoint format unchanged. The score
/// rows are carried verbatim so restore never re-runs the scoring
/// algorithm.
pub(crate) struct SessionImage {
    pub spec: SessionSpec,
    pub map: Vec<u32>,
    pub next_fresh: u32,
    pub epoch: u64,
    pub churns: u64,
    pub last_max_err: u64,
    pub rows: BitMatrix,
    /// `(object, author, value)` claims in the session's board scope.
    pub claims: Vec<(u32, u32, bool)>,
}

impl ServiceEngine {
    /// Total session slots ever allocated (open + closed; ids are never
    /// reused, so a restored engine must preserve this count).
    pub(crate) fn session_slots(&self) -> usize {
        self.sessions.len()
    }

    /// Snapshot every open session as a [`SessionImage`], in id order.
    pub(crate) fn images(&self) -> Vec<(u64, SessionImage)> {
        self.sessions
            .iter()
            .enumerate()
            .filter_map(|(sid, slot)| {
                let state = slot.as_ref()?;
                Some((
                    sid as u64,
                    SessionImage {
                        spec: state.spec,
                        map: state.map.clone(),
                        next_fresh: state.next_fresh,
                        epoch: state.epoch,
                        churns: state.churns,
                        last_max_err: state.last_max_err,
                        rows: state.rows.clone(),
                        claims: self.board.scope_claims(state.scope),
                    },
                ))
            })
            .collect()
    }

    /// Rebuild an engine from checkpoint images: `slots` closed slots,
    /// then each image installed at its id. Derived state (resident
    /// world, oracle) is recomputed from the image's fields; the score
    /// rows come from the image, so nothing re-runs the scorer. Restore
    /// costs the checkpoint size plus one fold per past epoch and pool
    /// bit (`decode` bounds each epoch count by the covered ops).
    pub(crate) fn from_images(slots: usize, images: Vec<(u64, SessionImage)>) -> ServiceEngine {
        let mut engine = ServiceEngine::new();
        engine.sessions = (0..slots).map(|_| None).collect();
        for (sid, image) in images {
            let state = engine.restore_state(sid, image);
            let slot = engine
                .sessions
                .get_mut(sid as usize)
                .expect("image id within slot count");
            *slot = Some(state);
        }
        engine
    }

    /// Reconstruct one [`SessionState`] from its image: re-derive the
    /// pool, fold it to the image's epoch, and build a fresh (never-run)
    /// session exactly as `open` would, re-register the board scope and
    /// re-post its claims, then install the checkpointed rows and the
    /// probe oracle over their world. The session itself is left
    /// un-evolved — the next barrier's `recompute` evolves it onto its
    /// world and scores cold, exactly as the live engine does.
    fn restore_state(&self, sid: u64, image: SessionImage) -> SessionState {
        let SessionImage {
            spec,
            map,
            next_fresh,
            epoch,
            churns,
            last_max_err,
            rows,
            claims,
        } = image;
        let drift = drift_of(&spec);
        let (world, pool_planted) = pool_of(&spec, drift.as_ref(), epoch);
        let session = fresh_session(&spec);
        let scope = self.board.scope(&[TAG_SERVICE, sid]).id();
        for &(object, author, value) in &claims {
            self.board.post_claim(scope, author, object, value);
        }
        let mut state = SessionState {
            spec,
            world,
            drift,
            pool_planted,
            map,
            next_fresh,
            epoch,
            churns,
            session,
            oracle: Oracle::new_uncached(Arc::new(EmptyTruth) as Arc<dyn TruthSource>),
            rows,
            scope,
            last_max_err,
        };
        let (truth, _planted) = compose_world(&state);
        state.oracle = Oracle::new(truth);
        state
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

    #[test]
    fn closing_a_session_returns_board_live_slots_to_pre_open_level() {
        // Satellite: `ScopeHandle::retire` under the service lifecycle.
        let mut engine = ServiceEngine::new();
        engine.execute(&[Request::Open(spec(2))]);
        let pre_open = engine.board_stats().live_slots();
        let answers = engine.execute(&[
            Request::Open(spec(3)),
            Request::SubmitProbes {
                session: 1,
                player: 0,
                objects: vec![1, 2, 3, 4, 5],
            },
            Request::SubmitProbes {
                session: 1,
                player: 9,
                objects: vec![1, 8],
            },
        ]);
        assert!(answers.iter().all(|r| !matches!(r, Response::Rejected(_))));
        let while_open = engine.board_stats().live_slots();
        assert!(
            while_open > pre_open,
            "probe claims must occupy live slots ({while_open} vs {pre_open})"
        );
        let closed = engine
            .execute(&[Request::CloseSession { session: 1 }])
            .remove(0);
        assert_eq!(
            engine.board_stats().live_slots(),
            pre_open,
            "retiring the session scope must free exactly its slots"
        );
        match closed {
            Response::Closed { freed_slots, .. } => {
                assert_eq!(freed_slots, while_open - pre_open)
            }
            other => panic!("expected Closed, got {other:?}"),
        }
        // Session 0's scope is untouched by session 1's close.
        let again = engine
            .execute(&[Request::QueryPreferences {
                session: 0,
                players: vec![0],
                objects: None,
            }])
            .remove(0);
        assert!(matches!(again, Response::Preferences { .. }));
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
            for state in engine.sessions.iter().flatten() {
                let pool = Arc::new(pool_source(&state.spec)) as Arc<dyn TruthSource>;
                let reference =
                    byzscore::compose_world(&pool, state.drift.as_ref(), state.epoch, &state.map);
                let live = state.session.truth();
                assert!(Arc::ptr_eq(live, state.oracle.truth()));
                assert_eq!(live.players(), reference.players());
                for p in 0..reference.players() as u32 {
                    assert_eq!(live.row(p), reference.row(p), "epoch {}", state.epoch);
                }
            }
            let aged = engine.sessions.iter().flatten().any(|s| s.epoch >= 3);
            if aged && restored_at.is_none() {
                let text = encode_checkpoint(&engine, &DedupeWindow::new(), mutating);
                let restored = decode_checkpoint(&text, 1)
                    .expect("checkpoint decodes")
                    .engine;
                let pairs = engine.sessions.iter().zip(&restored.sessions);
                for (live, back) in pairs.filter_map(|(a, b)| a.as_ref().zip(b.as_ref())) {
                    assert_eq!(back.world, live.world, "restore re-folds the world");
                    let (a, b) = (live.oracle.truth(), back.oracle.truth());
                    for p in 0..live.map.len() as u32 {
                        assert_eq!(a.row(p), b.row(p));
                    }
                }
                restored_at = engine.sessions.iter().flatten().map(|s| s.epoch).max();
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
