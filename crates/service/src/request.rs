//! The typed request/response surface of the scoring service.
//!
//! Every field on both sides of the API is an integer (or a list of
//! integers): responses are digested into `u64`s with integer-only
//! mixing, so a replayed trace produces bit-identical digests on any
//! host, thread count, or batch split. Quantities that are naturally
//! fractional are carried as integers — preference drift as
//! parts-per-million, workload skew as an extra-draw count.

use byzscore::Algorithm;

/// Everything needed to open a session: the world, the protocol, and the
/// adversary, all by value.
///
/// `players` is the *active* population; the underlying identity pool is
/// provisioned at `2 × players`, leaving `players` fresh identities of
/// join headroom for [`Request::ApplyChurn`] (joins beyond that are
/// silently truncated, mirroring the dynamic-world runner).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionSpec {
    /// Initial active population `n`.
    pub players: usize,
    /// Number of objects `m`.
    pub objects: usize,
    /// Planted taste clusters in the procedural world.
    pub clusters: usize,
    /// Planted cluster diameter.
    pub diameter: usize,
    /// Seed of the hidden truth (and of churn/drift randomness).
    pub world_seed: u64,
    /// Scoring algorithm run on every recompute.
    pub algorithm: ServiceAlgorithm,
    /// Per-player probe budget `B`.
    pub budget: usize,
    /// Players corrupted per recompute (seeded count corruption with the
    /// inverting strategy); `0` for an all-honest session.
    pub corrupt: usize,
    /// Per-epoch preference drift rate in parts-per-million (`0` freezes
    /// the world; `1_000_000` flips every bit each epoch).
    pub drift_ppm: u32,
    /// Master seed of the protocol executions.
    pub score_seed: u64,
}

/// Which scoring algorithm a session runs on every recompute.
///
/// `Naive` is the default because it is the cheapest scorer per barrier:
/// measured at n = 96, m = 192, B = 4 on 2 vCPUs, a `Calculate` barrier
/// costs about 10× a `Naive` one (9.8 vs 1.0 ms fresh, 10.6 vs 1.1 ms on
/// a session aged 20 epochs). Every barrier scores cold, whatever the
/// algorithm.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ServiceAlgorithm {
    /// Direct sampling (§6.2's natural approach, the prior-art proxy).
    #[default]
    Naive,
    /// Figure 2 (`CalculatePreferences`) with trusted shared randomness.
    Calculate,
    /// Skyline: planted clusters given for free.
    Oracle,
    /// Population-majority per object.
    Majority,
}

impl ServiceAlgorithm {
    /// The core [`Algorithm`] this maps onto.
    pub fn core(self) -> Algorithm {
        match self {
            ServiceAlgorithm::Naive => Algorithm::NaiveSampling,
            ServiceAlgorithm::Calculate => Algorithm::CalculatePreferences,
            ServiceAlgorithm::Oracle => Algorithm::OracleClusters,
            ServiceAlgorithm::Majority => Algorithm::GlobalMajority,
        }
    }

    /// Stable name used in trace files.
    pub fn name(self) -> &'static str {
        match self {
            ServiceAlgorithm::Naive => "naive",
            ServiceAlgorithm::Calculate => "calculate",
            ServiceAlgorithm::Oracle => "oracle",
            ServiceAlgorithm::Majority => "majority",
        }
    }

    /// Inverse of [`ServiceAlgorithm::name`].
    pub fn parse(s: &str) -> Option<ServiceAlgorithm> {
        match s {
            "naive" => Some(ServiceAlgorithm::Naive),
            "calculate" => Some(ServiceAlgorithm::Calculate),
            "oracle" => Some(ServiceAlgorithm::Oracle),
            "majority" => Some(ServiceAlgorithm::Majority),
            _ => None,
        }
    }
}

/// One request to the engine. Session ids are assigned in open order and
/// never reused, so a recorded trace replays against the same ids.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Open a session; answers [`Response::Opened`] with its id.
    Open(SessionSpec),
    /// One player probes a set of objects against the hidden truth: a
    /// read of the session's active world that changes nothing.
    SubmitProbes {
        /// Target session.
        session: u64,
        /// Probing player (active slot index).
        player: u32,
        /// Objects to probe.
        objects: Vec<u32>,
    },
    /// Read computed preference scores for a set of players, optionally
    /// restricted to a set of objects (`None` = full rows). Per-player
    /// answers fold in request order.
    QueryPreferences {
        /// Target session.
        session: u64,
        /// Players to read (active slot indices).
        players: Vec<u32>,
        /// Object restriction; `None` reads whole rows.
        objects: Option<Vec<u32>>,
    },
    /// Retire `retire` players (seeded shuffle, never below one) and join
    /// up to `join` fresh pool identities, then recompute scores.
    ApplyChurn {
        /// Target session.
        session: u64,
        /// Players to retire.
        retire: usize,
        /// Fresh identities to join.
        join: usize,
    },
    /// Advance the session's drift epoch by one and recompute scores.
    AdvanceEpoch {
        /// Target session.
        session: u64,
    },
    /// Close the session and drop its resident state.
    CloseSession {
        /// Target session.
        session: u64,
    },
}

impl Request {
    /// The session this request addresses (`None` for `Open`).
    pub fn session(&self) -> Option<u64> {
        match self {
            Request::Open(_) => None,
            Request::SubmitProbes { session, .. }
            | Request::QueryPreferences { session, .. }
            | Request::ApplyChurn { session, .. }
            | Request::AdvanceEpoch { session }
            | Request::CloseSession { session } => Some(*session),
        }
    }

    /// True for probes and queries, the reads: a probe reads the
    /// session's active world and a query its cached score rows, so they
    /// commute with each other between barriers. False for the barriers
    /// (`open`, `churn`, `epoch`, `close`), the only ops that change engine
    /// state, which must serialize.
    pub fn is_shardable(&self) -> bool {
        matches!(
            self,
            Request::SubmitProbes { .. } | Request::QueryPreferences { .. }
        )
    }

    /// True for ops a journal records before they execute: everything
    /// except preference queries. A probe writes nothing, yet it is still
    /// journaled, and the compaction thresholds count it; a journal of
    /// barriers only is ROADMAP direction 16.
    pub fn is_mutating(&self) -> bool {
        !matches!(self, Request::QueryPreferences { .. })
    }
}

/// One answer from the engine, in request order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// A session opened and its first scores were computed.
    Opened {
        /// Assigned session id (open order, never reused).
        session: u64,
        /// Active population.
        players: usize,
        /// Max honest prediction error of the initial scores.
        max_err: u64,
    },
    /// Probe results for one player.
    Probed {
        /// Session answered.
        session: u64,
        /// Probing player.
        player: u32,
        /// How many probed objects came back `true`.
        ones: u32,
        /// Integer digest of the `(object, bit)` sequence.
        digest: u64,
    },
    /// Merged preference scores across the queried players.
    Preferences {
        /// Session answered.
        session: u64,
        /// Players answered.
        players: u32,
        /// Total set bits across the queried rows (restricted to the
        /// queried objects when a restriction was given).
        ones: u64,
        /// Integer digest of the per-player `(ones, row-digest)` sequence
        /// in request order.
        digest: u64,
    },
    /// Churn applied and scores recomputed.
    Churned {
        /// Session answered.
        session: u64,
        /// Pool identities retired.
        retired: Vec<u32>,
        /// Pool identities joined (may be shorter than requested when the
        /// pool headroom is exhausted).
        joined: Vec<u32>,
        /// Active population after the churn.
        players: usize,
        /// Max honest error of the recomputed scores.
        max_err: u64,
    },
    /// Epoch advanced and scores recomputed.
    Epoch {
        /// Session answered.
        session: u64,
        /// New epoch.
        epoch: u64,
        /// Max honest error of the recomputed scores.
        max_err: u64,
    },
    /// Session closed; its resident state was dropped.
    Closed {
        /// Session answered.
        session: u64,
    },
    /// The request was rejected; the engine state is unchanged.
    Rejected(ServiceError),
    /// The server's admission queue was full; nothing was executed and
    /// the op may be resent after the given delay. Only the socket
    /// front-end emits this — an op the engine *accepted* is never
    /// answered with `Busy`, so replay digests (which fold only final
    /// answers) are unaffected by transient overload.
    Busy {
        /// Suggested client-side retry delay.
        retry_after_ms: u32,
    },
    /// The op was admitted but its execution was interrupted by an
    /// infrastructure fault (a panicked worker, an engine rebuild). The
    /// op may or may not have been applied; because probes and queries
    /// write nothing and every barrier is deduplicated by `(seq, op)` on
    /// the server, resending it verbatim is always safe and yields the
    /// real answer. Like `Busy`, this never enters a replay digest — clients
    /// retry until a final answer arrives.
    Retryable {
        /// What faulted, human-readable and deterministic.
        reason: String,
    },
}

/// Why the engine rejected a request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// No session was ever opened under this id.
    UnknownSession(u64),
    /// The session existed but was closed.
    SessionClosed(u64),
    /// A player index is outside the session's active population.
    PlayerOutOfRange {
        /// Session addressed.
        session: u64,
        /// Offending player index.
        player: u32,
        /// Active population at the time.
        players: usize,
    },
    /// An object index is outside the session's object set.
    ObjectOutOfRange {
        /// Session addressed.
        session: u64,
        /// Offending object index.
        object: u32,
        /// Object count.
        objects: usize,
    },
    /// A preference query named no players.
    EmptyQuery(u64),
    /// The request text could not be parsed at all (bad op line on the
    /// stdin loop, bad frame payload on the socket), or it parsed into a
    /// session the engine cannot score: an `open` or `churn` whose
    /// population would not exceed the session's corrupt count. Typed so
    /// that every input — however mangled — still gets a digestible
    /// answer instead of tearing down the session loop or the connection.
    Malformed {
        /// What was wrong with the request, human-readable.
        message: String,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownSession(s) => write!(f, "unknown session {s}"),
            ServiceError::SessionClosed(s) => write!(f, "session {s} is closed"),
            ServiceError::PlayerOutOfRange {
                session,
                player,
                players,
            } => write!(
                f,
                "player {player} out of range {players} in session {session}"
            ),
            ServiceError::ObjectOutOfRange {
                session,
                object,
                objects,
            } => write!(
                f,
                "object {object} out of range {objects} in session {session}"
            ),
            ServiceError::EmptyQuery(s) => write!(f, "empty preference query on session {s}"),
            ServiceError::Malformed { message } => write!(f, "malformed request: {message}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// One SplitMix64-style mixing step — the digest primitive everywhere in
/// this crate. Integer in, integer out; no floats ever enter a digest.
#[inline]
pub fn mix(h: u64, v: u64) -> u64 {
    let mut z = h ^ v.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Response {
    fn error_digest(e: &ServiceError) -> u64 {
        match e {
            ServiceError::UnknownSession(s) => mix(mix(0xe1, 1), *s),
            ServiceError::SessionClosed(s) => mix(mix(0xe1, 2), *s),
            ServiceError::PlayerOutOfRange {
                session,
                player,
                players,
            } => mix(
                mix(mix(mix(0xe1, 3), *session), *player as u64),
                *players as u64,
            ),
            ServiceError::ObjectOutOfRange {
                session,
                object,
                objects,
            } => mix(
                mix(mix(mix(0xe1, 4), *session), *object as u64),
                *objects as u64,
            ),
            ServiceError::EmptyQuery(s) => mix(mix(0xe1, 5), *s),
            ServiceError::Malformed { message } => {
                // Fold the message bytes so distinct parse failures digest
                // apart; messages are deterministic strings, so this stays
                // host-invariant.
                fold_text(mix(0xe1, 6), message)
            }
        }
    }

    /// Integer digest of the full response content. Two responses digest
    /// equal iff they carry the same variant and field values, so a
    /// replayed trace's per-op digest stream pins the whole API surface.
    pub fn digest(&self) -> u64 {
        match self {
            Response::Opened {
                session,
                players,
                max_err,
            } => mix(mix(mix(mix(0x5d, 1), *session), *players as u64), *max_err),
            Response::Probed {
                session,
                player,
                ones,
                digest,
            } => mix(
                mix(
                    mix(mix(mix(0x5d, 2), *session), *player as u64),
                    *ones as u64,
                ),
                *digest,
            ),
            Response::Preferences {
                session,
                players,
                ones,
                digest,
            } => mix(
                mix(mix(mix(mix(0x5d, 3), *session), *players as u64), *ones),
                *digest,
            ),
            Response::Churned {
                session,
                retired,
                joined,
                players,
                max_err,
            } => {
                let mut h = mix(mix(0x5d, 4), *session);
                h = mix(h, retired.len() as u64);
                for &r in retired {
                    h = mix(h, r as u64);
                }
                h = mix(h, joined.len() as u64);
                for &j in joined {
                    h = mix(h, j as u64);
                }
                mix(mix(h, *players as u64), *max_err)
            }
            Response::Epoch {
                session,
                epoch,
                max_err,
            } => mix(mix(mix(mix(0x5d, 5), *session), *epoch), *max_err),
            Response::Closed { session } => mix(mix(0x5d, 6), *session),
            Response::Rejected(e) => mix(mix(0x5d, 7), Self::error_digest(e)),
            Response::Busy { retry_after_ms } => mix(mix(0x5d, 8), *retry_after_ms as u64),
            Response::Retryable { reason } => fold_text(mix(0x5d, 9), reason),
        }
    }
}

/// Fold a deterministic string into a digest: length first, then the
/// bytes in 8-byte little-endian words.
fn fold_text(mut h: u64, text: &str) -> u64 {
    h = mix(h, text.len() as u64);
    for chunk in text.as_bytes().chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = mix(h, u64::from_le_bytes(word));
    }
    h
}

/// Fold a response stream into one digest (order-sensitive): the single
/// cell a benchmark gates to pin an entire replayed workload.
pub fn combined_digest(responses: &[Response]) -> u64 {
    let mut h = 0x6272_7a73_6372_7631; // "byzscrv1"
    for r in responses {
        h = mix(h, r.digest());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_separate_variants_and_fields() {
        let a = Response::Opened {
            session: 0,
            players: 64,
            max_err: 3,
        };
        let b = Response::Opened {
            session: 0,
            players: 64,
            max_err: 4,
        };
        let c = Response::Closed { session: 0 };
        assert_ne!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
        assert_eq!(a.digest(), a.clone().digest());
    }

    #[test]
    fn combined_digest_is_order_sensitive() {
        let a = Response::Epoch {
            session: 0,
            epoch: 1,
            max_err: 0,
        };
        let b = Response::Epoch {
            session: 1,
            epoch: 1,
            max_err: 0,
        };
        assert_ne!(
            combined_digest(&[a.clone(), b.clone()]),
            combined_digest(&[b, a])
        );
    }

    #[test]
    fn algorithm_names_round_trip() {
        for alg in [
            ServiceAlgorithm::Naive,
            ServiceAlgorithm::Calculate,
            ServiceAlgorithm::Oracle,
            ServiceAlgorithm::Majority,
        ] {
            assert_eq!(ServiceAlgorithm::parse(alg.name()), Some(alg));
        }
        assert_eq!(ServiceAlgorithm::parse("robust"), None);
    }
}
