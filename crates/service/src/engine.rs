//! The resident engine: many concurrent sessions, sharded by the group
//! graph, answering typed requests.
//!
//! # Execution model
//!
//! [`ServiceEngine::execute`] walks a request batch in order. Shardable
//! ops ([`Request::SubmitProbes`], [`Request::QueryPreferences`]) are
//! buffered; a barrier op (open/churn/epoch/close) first flushes the
//! buffer, then runs serially. A flush buckets the buffered ops by
//! *shard* and runs the buckets one after another on the calling thread;
//! answers land back at their request index. The shard layout is a
//! routing/merge layout only: the count is a fixed logical constant,
//! buckets have never run concurrently, and each answer is independent of
//! the layout (cross-shard queries merge partials in request order), so a
//! trace replays bit-identically at any shard count. Removing the layout
//! waits on a paired benchmark-only PR (ROADMAP direction 4(c): `perf/`
//! calls [`ServiceEngine::with_shards`] and [`DEFAULT_SHARDS`]).
//!
//! # Shard key
//!
//! A player's shard is its component in the group graph of the current
//! scores: players whose score rows are bit-identical share a group
//! (`byzscore::cluster::group_ids` over the cached rows), and
//! `shard = group mod shards`. Same-group players — the ones
//! whose requests touch the same cluster state — therefore always route
//! to the same bucket.
//!
//! # Incremental recompute
//!
//! Churn and epoch transitions recompute scores through
//! [`Session::evolved`]: the new world (pool → drift epoch → identity
//! remap) replaces the truth while the session keeps its parameters,
//! adversary, and — crucially — its [`WarmStart`] slot, so a `Naive`
//! session refreshes the previous group cache and reuses its pooled
//! select machines instead of rebuilding from scratch. Outputs stay
//! bit-identical to a cold session over the same world (pinned in core).

use std::sync::Arc;

use byzscore::cluster::group_ids;
use byzscore::{
    churn_step, remap_planted, DriftSchedule, ProceduralTruth, ProtocolParams, Session,
    TruthSource, WarmStart,
};
use byzscore_adversary::{Corruption, Inverter};
use byzscore_bitset::{BitMatrix, Bits};
use byzscore_board::{Board, BoardStats, ClusterSpec, Oracle};
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

/// Default logical shard count (fixed).
pub const DEFAULT_SHARDS: usize = 8;

/// Everything resident for one open session.
struct SessionState {
    spec: SessionSpec,
    /// Fixed identity pool (capacity `2 × players`).
    pool: Arc<dyn TruthSource>,
    pool_planted: Planted,
    /// Active slot → pool identity.
    map: Vec<u32>,
    next_fresh: u32,
    epoch: u64,
    /// Churn transitions applied so far (feeds churn + score seeds).
    churns: u64,
    /// Carries the group cache and pooled select machines across
    /// recomputes.
    warm: Arc<WarmStart>,
    /// The current evolved session (world of `epoch`/`map`).
    session: Session,
    /// Resident probe oracle over the current world.
    oracle: Oracle,
    /// Cached scores of the current world.
    rows: BitMatrix,
    /// Active slot → shard (group graph mod shard count).
    shard_of: Vec<u32>,
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
pub struct ServiceEngine {
    shards: usize,
    board: Board,
    /// Index = session id; `None` = closed. Ids are never reused.
    sessions: Vec<Option<SessionState>>,
}

impl Default for ServiceEngine {
    fn default() -> Self {
        ServiceEngine::new()
    }
}

/// One unit of work routed to a shard bucket.
enum ShardJob<'a> {
    Probe {
        idx: usize,
        session: u64,
        state: &'a SessionState,
        player: u32,
        objects: &'a [u32],
    },
    QueryPart {
        idx: usize,
        state: &'a SessionState,
        /// `(original position in the request's player list, player)`.
        members: Vec<(usize, u32)>,
        objects: Option<&'a [u32]>,
    },
}

impl ServiceEngine {
    /// Engine with the default shard count.
    pub fn new() -> ServiceEngine {
        ServiceEngine::with_shards(DEFAULT_SHARDS)
    }

    /// Engine with an explicit logical shard count (≥ 1). Answers do not
    /// depend on the choice, and neither does concurrency: it only sets
    /// how a flush buckets its ops (module docs).
    pub fn with_shards(shards: usize) -> ServiceEngine {
        ServiceEngine {
            shards: shards.max(1),
            board: Board::new(),
            sessions: Vec::new(),
        }
    }

    /// The fixed logical shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Currently open sessions.
    pub fn open_sessions(&self) -> usize {
        self.sessions.iter().flatten().count()
    }

    /// Traffic and memory counters of the shared bulletin board.
    pub fn board_stats(&self) -> BoardStats {
        self.board.stats()
    }

    /// Pooled select machines currently parked in session `s`'s warm
    /// slot (0 for closed/unknown sessions or non-`Naive` algorithms).
    pub fn pooled_selects(&self, session: u64) -> usize {
        self.sessions
            .get(session as usize)
            .and_then(|s| s.as_ref())
            .map_or(0, |s| s.warm.pooled_selects())
    }

    /// Execute a request batch; answers come back in request order.
    ///
    /// The answer stream is a pure function of the engine's session
    /// history and the batch — identical however the batch is split
    /// across `execute` calls.
    pub fn execute(&mut self, requests: &[Request]) -> Vec<Response> {
        let mut responses: Vec<Option<Response>> = (0..requests.len()).map(|_| None).collect();
        let mut pending: Vec<usize> = Vec::new();
        for (i, req) in requests.iter().enumerate() {
            if req.is_shardable() {
                pending.push(i);
            } else {
                flush(
                    &self.sessions,
                    &self.board,
                    self.shards,
                    requests,
                    &mut pending,
                    &mut responses,
                );
                responses[i] = Some(self.barrier(req));
            }
        }
        flush(
            &self.sessions,
            &self.board,
            self.shards,
            requests,
            &mut pending,
            &mut responses,
        );
        responses
            .into_iter()
            .map(|r| r.expect("every request answered"))
            .collect()
    }

    /// Serial (world-mutating) ops.
    fn barrier(&mut self, req: &Request) -> Response {
        match req {
            Request::Open(spec) => self.open(*spec),
            Request::ApplyChurn {
                session,
                retire,
                join,
            } => self.churn(*session, *retire, *join),
            Request::AdvanceEpoch { session } => self.epoch(*session),
            Request::CloseSession { session } => self.close(*session),
            _ => unreachable!("shardable ops never reach the barrier"),
        }
    }

    fn open(&mut self, spec: SessionSpec) -> Response {
        let sid = self.sessions.len() as u64;
        let players = spec.players.max(1);
        let (pool, pool_planted) = pool_of(&spec);
        let warm = Arc::new(WarmStart::new());
        let session = fresh_session(&spec, &pool, &warm);
        let scope = self.board.scope(&[TAG_SERVICE, sid]).id();
        let mut state = SessionState {
            spec,
            pool,
            pool_planted,
            map: (0..players as u32).collect(),
            next_fresh: players as u32,
            epoch: 0,
            churns: 0,
            warm,
            session,
            // Placeholders; `recompute` installs the real world.
            oracle: Oracle::new_uncached(Arc::new(EmptyTruth) as Arc<dyn TruthSource>),
            rows: BitMatrix::zeros(0, 0),
            shard_of: Vec::new(),
            scope,
            last_max_err: 0,
        };
        recompute(&mut state, self.shards);
        let response = Response::Opened {
            session: sid,
            players: state.map.len(),
            max_err: state.last_max_err,
        };
        self.sessions.push(Some(state));
        response
    }

    fn churn(&mut self, sid: u64, retire: usize, join: usize) -> Response {
        let shards = self.shards;
        let state = match session_mut(&mut self.sessions, sid) {
            Ok(s) => s,
            Err(e) => return Response::Rejected(e),
        };
        state.churns += 1;
        let mut rng = SmallRng::seed_from_u64(derive_seed(
            state.spec.world_seed,
            &[TAG_CHURN, state.churns],
        ));
        let pool_rows = state.pool.players() as u32;
        let (retired, joined) = churn_step(
            &mut state.map,
            &mut state.next_fresh,
            pool_rows,
            retire,
            join,
            &mut rng,
        );
        recompute(state, shards);
        Response::Churned {
            session: sid,
            retired,
            joined,
            players: state.map.len(),
            max_err: state.last_max_err,
        }
    }

    fn epoch(&mut self, sid: u64) -> Response {
        let shards = self.shards;
        let state = match session_mut(&mut self.sessions, sid) {
            Ok(s) => s,
            Err(e) => return Response::Rejected(e),
        };
        state.epoch += 1;
        recompute(state, shards);
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

/// The fixed identity pool (capacity `2 × players`) and its planted
/// structure, a pure function of the spec — `open` and checkpoint
/// restore derive identical pools from identical specs.
fn pool_of(spec: &SessionSpec) -> (Arc<dyn TruthSource>, Planted) {
    let players = spec.players.max(1);
    let pool_spec = ClusterSpec {
        players: players * 2,
        objects: spec.objects.max(1),
        clusters: spec.clusters.clamp(1, players),
        diameter: spec.diameter,
        seed: spec.world_seed,
    };
    let source = ProceduralTruth::new(pool_spec);
    let pool_planted = Planted {
        assignment: source.assignment(),
        clusters: source.clusters(),
        centers: source.centers().to_vec(),
        target_diameter: source.spec().diameter,
        special_objects: None,
    };
    (Arc::new(source) as Arc<dyn TruthSource>, pool_planted)
}

/// A never-run session over the pool, carrying the spec's parameters,
/// adversary, and the shared warm-start slot.
fn fresh_session(
    spec: &SessionSpec,
    pool: &Arc<dyn TruthSource>,
    warm: &Arc<WarmStart>,
) -> Session {
    Session::builder()
        .truth(pool.clone())
        .params(ProtocolParams::with_budget(spec.budget.max(1)))
        .adversary(
            Corruption::Count {
                count: spec.corrupt,
            },
            Inverter,
        )
        .warm_start(warm.clone())
        .build()
}

/// A zero-player truth used only as the pre-`recompute` placeholder.
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

/// Rebuild a session's world and scores after a transition (or at open):
/// compose pool → drift epoch → identity remap, evolve the session onto
/// it, run the scoring algorithm, and refresh the caches every shardable
/// op reads (score rows, shard map, probe oracle).
fn recompute(state: &mut SessionState, shards: usize) {
    let (truth, planted) = compose_world(state);
    state.session = state.session.evolved(truth.clone(), Some(planted));
    let seed = derive_seed(
        state.spec.score_seed,
        &[TAG_SCORE, state.epoch, state.churns],
    );
    let outcome = state.session.run(state.spec.algorithm.core(), seed);
    state.last_max_err = outcome.errors.max as u64;
    state.rows = outcome.output.expect("service sessions use the dense sink");
    state.shard_of = shard_map(&state.rows, shards);
    state.oracle = Oracle::new(truth);
}

/// Compose the session's current world — pool → drift epoch → identity
/// remap — and its remapped planted structure. A pure function of
/// `(spec, map, epoch)`, shared by `recompute` and checkpoint restore.
fn compose_world(state: &SessionState) -> (Arc<dyn TruthSource>, Planted) {
    let drift = (state.spec.drift_ppm > 0).then(|| {
        DriftSchedule::uniform(
            state.spec.drift_ppm as f64 / 1e6,
            derive_seed(state.spec.world_seed, &[TAG_DRIFT]),
        )
    });
    let truth = byzscore::compose_world(&state.pool, drift.as_ref(), state.epoch, &state.map);
    let planted = remap_planted(&state.pool_planted, &state.map);
    (truth, planted)
}

/// Shard key: the group graph of the scores — players with identical
/// rows share a group; groups spread round-robin over the shards.
fn shard_map(rows: &BitMatrix, shards: usize) -> Vec<u32> {
    group_ids(rows)
        .into_iter()
        .map(|g| g % shards as u32)
        .collect()
}

/// Run the buffered shardable ops: validate, bucket by shard, run the
/// buckets in order on the calling thread, scatter answers back by
/// request index, merging cross-shard query partials in request order.
fn flush(
    sessions: &[Option<SessionState>],
    board: &Board,
    shards: usize,
    requests: &[Request],
    pending: &mut Vec<usize>,
    responses: &mut [Option<Response>],
) {
    if pending.is_empty() {
        return;
    }
    let mut buckets: Vec<Vec<ShardJob<'_>>> = (0..shards).map(|_| Vec::new()).collect();
    // Per query-request index: how many players it asked for (to size the
    // merge buffer).
    let mut query_width: Vec<(usize, usize, u64)> = Vec::new();
    for &idx in pending.iter() {
        match &requests[idx] {
            Request::SubmitProbes {
                session,
                player,
                objects,
            } => {
                let state = match session_ref(sessions, *session) {
                    Ok(s) => s,
                    Err(e) => {
                        responses[idx] = Some(Response::Rejected(e));
                        continue;
                    }
                };
                if let Some(resp) = validate(state, *session, &[*player], Some(objects)) {
                    responses[idx] = Some(resp);
                    continue;
                }
                let shard = state.shard_of[*player as usize] as usize;
                buckets[shard].push(ShardJob::Probe {
                    idx,
                    session: *session,
                    state,
                    player: *player,
                    objects,
                });
            }
            Request::QueryPreferences {
                session,
                players,
                objects,
            } => {
                let state = match session_ref(sessions, *session) {
                    Ok(s) => s,
                    Err(e) => {
                        responses[idx] = Some(Response::Rejected(e));
                        continue;
                    }
                };
                if players.is_empty() {
                    responses[idx] = Some(Response::Rejected(ServiceError::EmptyQuery(*session)));
                    continue;
                }
                if let Some(resp) = validate(state, *session, players, objects.as_deref()) {
                    responses[idx] = Some(resp);
                    continue;
                }
                // Split the player list by owning shard; each partial
                // remembers the players' original positions.
                let mut parts: Vec<Vec<(usize, u32)>> = (0..shards).map(|_| Vec::new()).collect();
                for (pos, &p) in players.iter().enumerate() {
                    parts[state.shard_of[p as usize] as usize].push((pos, p));
                }
                for (shard, members) in parts.into_iter().enumerate() {
                    if !members.is_empty() {
                        buckets[shard].push(ShardJob::QueryPart {
                            idx,
                            state,
                            members,
                            objects: objects.as_deref(),
                        });
                    }
                }
                query_width.push((idx, players.len(), *session));
            }
            _ => unreachable!("only shardable ops are buffered"),
        }
    }
    pending.clear();

    // Per-request merge buffers for query partials, keyed by original
    // player position: (ones, digest) once the owning bucket has run.
    type MergeBuf = Vec<Option<(u64, u64)>>;
    let mut merges: std::collections::HashMap<usize, (MergeBuf, u64)> = query_width
        .into_iter()
        .map(|(idx, width, session)| (idx, (vec![None; width], session)))
        .collect();

    // Buckets run one after another on the calling thread, each job
    // scattering as it finishes: full answers land directly, query
    // partials accumulate. The bucket order is immaterial — probe side
    // effects (oracle ledger, board claims) are commutative atomics /
    // same-value posts, and every answer lands at its request index.
    for job in buckets.iter().flatten() {
        match job {
            ShardJob::Probe {
                idx,
                session,
                state,
                player,
                objects,
            } => {
                responses[*idx] = Some(probe_response(board, state, *session, *player, objects));
            }
            ShardJob::QueryPart {
                idx,
                state,
                members,
                objects,
            } => {
                let (buf, _) = merges.get_mut(idx).expect("query registered");
                for (pos, ones, digest) in query_part(state, members, *objects) {
                    buf[pos] = Some((ones, digest));
                }
            }
        }
    }
    let mut merged: Vec<(usize, Response)> = merges
        .into_iter()
        .map(|(idx, (buf, session))| (idx, merge_preferences(session, &buf)))
        .collect();
    merged.sort_unstable_by_key(|&(idx, _)| idx);
    for (idx, resp) in merged {
        responses[idx] = Some(resp);
    }
}

/// Execute one probe op against a session: every probed bit is read
/// through the memoized oracle and posted as a claim in the session's
/// board scope. Side effects commute (atomic probe ledger, same-value
/// claims), so the probes of one flush produce the same final state and
/// per-op answer in any order.
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

/// Execute one shard's slice of a preference query: per member
/// `(original position, ones, row digest)`, pure reads of the cached
/// score rows.
fn query_part(
    state: &SessionState,
    members: &[(usize, u32)],
    objects: Option<&[u32]>,
) -> Vec<(usize, u64, u64)> {
    let rows = &state.rows;
    members
        .iter()
        .map(|&(pos, p)| {
            let row = rows.row(p as usize);
            match objects {
                None => (pos, row.count_ones() as u64, row.content_hash()),
                Some(objs) => {
                    let mut ones = 0u64;
                    let mut digest = 0x9ae5u64;
                    for &o in objs.iter() {
                        let bit = row.get(o as usize);
                        ones += bit as u64;
                        digest = mix(digest, mix(o as u64, bit as u64));
                    }
                    (pos, ones, digest)
                }
            }
        })
        .collect()
}

/// Fold completed query partials — indexed by original player position —
/// into the final [`Response::Preferences`].
fn merge_preferences(session: u64, buf: &[Option<(u64, u64)>]) -> Response {
    let mut total = 0u64;
    let mut digest = 0x9e4fu64;
    for cell in buf {
        let (ones, d) = cell.expect("every queried player answered");
        total += ones;
        digest = mix(digest, mix(ones, d));
    }
    Response::Preferences {
        session,
        players: buf.len() as u32,
        ones: total,
        digest,
    }
}

/// The durable slice of one resident session — everything a checkpoint
/// must carry to reconstruct [`SessionState`] without replaying its
/// history. The pool, the evolved world, the probe oracle, and the
/// shard map are all pure functions of these fields, so they are
/// *recomputed* at restore rather than serialized; the score rows are
/// carried verbatim so restore never re-runs the scoring algorithm.
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
    /// then each image installed at its id. Derived state (pool, world,
    /// oracle, shard map) is recomputed from the image's fields; the
    /// score rows come from the image, so nothing re-runs the scorer —
    /// restore cost is bounded by the checkpoint size, not the history.
    pub(crate) fn from_images(
        shards: usize,
        slots: usize,
        images: Vec<(u64, SessionImage)>,
    ) -> ServiceEngine {
        let mut engine = ServiceEngine::with_shards(shards);
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
    /// pool and a fresh (never-run) session exactly as `open` would,
    /// re-register the board scope and re-post its claims, then install
    /// the checkpointed rows and recompute the caches they determine.
    /// The session itself is left un-evolved — the next barrier's
    /// `recompute` evolves it onto the same world a cold open would,
    /// and warm-vs-cold bit-identity is pinned in core.
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
        let (pool, pool_planted) = pool_of(&spec);
        let warm = Arc::new(WarmStart::new());
        let session = fresh_session(&spec, &pool, &warm);
        let scope = self.board.scope(&[TAG_SERVICE, sid]).id();
        for &(object, author, value) in &claims {
            self.board.post_claim(scope, author, object, value);
        }
        let mut state = SessionState {
            spec,
            pool,
            pool_planted,
            map,
            next_fresh,
            epoch,
            churns,
            warm,
            session,
            oracle: Oracle::new_uncached(Arc::new(EmptyTruth) as Arc<dyn TruthSource>),
            rows,
            shard_of: Vec::new(),
            scope,
            last_max_err,
        };
        let (truth, _planted) = compose_world(&state);
        state.shard_of = shard_map(&state.rows, self.shards);
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
    fn answers_do_not_depend_on_batch_splits_or_shard_count() {
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
        // Different logical shard counts agree too (merge order is the
        // request order, not the shard order).
        for shards in [1, 3, 16] {
            let other = ServiceEngine::with_shards(shards).execute(&ops);
            assert_eq!(whole, other, "shards={shards} changed answers");
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

    #[test]
    fn naive_sessions_reuse_pooled_select_machines_across_recomputes() {
        let mut engine = ServiceEngine::new();
        engine.execute(&[Request::Open(spec(6))]);
        let after_open = engine.pooled_selects(0);
        assert!(
            after_open > 0,
            "the opening recompute must park select machines"
        );
        engine.execute(&[Request::AdvanceEpoch { session: 0 }]);
        assert!(
            engine.pooled_selects(0) > 0,
            "recomputes keep recycling machines"
        );
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
