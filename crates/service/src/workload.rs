//! Seeded request-trace generation and the versioned trace file format.
//!
//! A [`Trace`] is an ordered request list. [`Trace::generate`] derives
//! one deterministically from a [`TraceSpec`] (op mix, player skew,
//! seed); [`Trace::to_text`] / [`Trace::from_text`] round-trip it
//! through the `byzscore-trace/v1` line format, so a committed trace
//! file replays bit-identically anywhere (`tests/determinism.rs` pins
//! this across 1/2/8 worker threads).
//!
//! # Format (`byzscore-trace/v1`)
//!
//! Line 1 is the version header; every following non-empty line is one
//! op. Session ids are open-order indices. All fields are integers —
//! skew and drift are integer-encoded, so no float ever enters a trace.
//!
//! ```text
//! byzscore-trace/v1
//! open <players> <objects> <clusters> <diameter> <world_seed> <algorithm> <budget> <corrupt> <drift_ppm> <score_seed>
//! probe <sid> <player> <o1,o2,...>
//! query <sid> <p1,p2,...> <o1,o2,...|->
//! churn <sid> <retire> <join>
//! epoch <sid>
//! close <sid>
//! ```

use byzscore_board::MEMO_LIMIT_BITS;
use byzscore_random::{choose_k, derive_seed};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::engine::ServiceEngine;
use crate::request::{Request, Response, ServiceAlgorithm, SessionSpec};

const TAG_TRACE: u64 = 0x7c_01;
const TAG_WORLD: u64 = 0x7c_02;
const TAG_SCORE: u64 = 0x7c_03;

/// Version header of the trace format this build reads and writes.
pub const TRACE_VERSION: &str = "byzscore-trace/v1";

/// Relative op frequencies of a generated workload (weights, not
/// probabilities; they need not sum to anything in particular).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpMix {
    /// Weight of probe submissions.
    pub probe: u32,
    /// Weight of preference queries.
    pub query: u32,
    /// Weight of churn transitions (each triggers a full recompute).
    pub churn: u32,
    /// Weight of epoch advances (each triggers a full recompute).
    pub epoch: u32,
}

impl Default for OpMix {
    /// Read-heavy steady state: mostly probes and queries, rare world
    /// transitions.
    fn default() -> Self {
        OpMix {
            probe: 12,
            query: 6,
            churn: 1,
            epoch: 1,
        }
    }
}

impl OpMix {
    fn total(&self) -> u32 {
        self.probe + self.query + self.churn + self.epoch
    }
}

/// Everything a generated workload is a pure function of.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceSpec {
    /// Concurrent sessions to open up front.
    pub sessions: usize,
    /// Ops generated after the opens (closes are appended at the end).
    pub ops: usize,
    /// Players per session.
    pub players: usize,
    /// Objects per session.
    pub objects: usize,
    /// Planted clusters per session world.
    pub clusters: usize,
    /// Planted cluster diameter.
    pub diameter: usize,
    /// Per-player probe budget.
    pub budget: usize,
    /// Corrupted players per session.
    pub corrupt: usize,
    /// Drift rate in parts-per-million.
    pub drift_ppm: u32,
    /// Scoring algorithm of every session.
    pub algorithm: ServiceAlgorithm,
    /// Op frequencies.
    pub mix: OpMix,
    /// Player-pick skew: a target player is the minimum of `skew + 1`
    /// uniform draws, so higher skew concentrates load on low slots
    /// (integer-encoded Zipf-ish hotspotting).
    pub skew: u32,
    /// Master seed of the generator.
    pub seed: u64,
}

impl TraceSpec {
    /// A small smoke-scale spec (a few sessions, tens of ops).
    pub fn small(seed: u64) -> TraceSpec {
        TraceSpec {
            sessions: 2,
            ops: 40,
            players: 32,
            objects: 64,
            clusters: 4,
            diameter: 4,
            budget: 4,
            corrupt: 2,
            drift_ppm: 2_000,
            algorithm: ServiceAlgorithm::Naive,
            mix: OpMix::default(),
            skew: 1,
            seed,
        }
    }
}

/// An ordered request workload, ready to execute or serialize.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    /// The ops, in execution order.
    pub ops: Vec<Request>,
}

/// A parse failure: line number (1-based) and what went wrong.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceError {
    /// 1-based line number of the offending line (0 for the header).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceError {}

fn err(line: usize, message: impl Into<String>) -> TraceError {
    TraceError {
        line,
        message: message.into(),
    }
}

impl Trace {
    /// Deterministically generate a workload from `spec`: open all
    /// sessions, interleave `spec.ops` ops drawn from the mix (tracking
    /// each session's live population so every generated index is
    /// valid), close every session at the end.
    pub fn generate(spec: &TraceSpec) -> Trace {
        assert!(spec.sessions >= 1, "need at least one session");
        assert!(spec.mix.total() > 0, "op mix must have positive weight");
        let mut rng = SmallRng::seed_from_u64(derive_seed(spec.seed, &[TAG_TRACE]));
        let players = spec.players.max(2);
        let mut ops = Vec::with_capacity(spec.sessions * 2 + spec.ops);
        // Track each session's live population and remaining pool
        // headroom, mirroring the engine's churn arithmetic.
        let mut live: Vec<(usize, usize)> = Vec::new();
        for s in 0..spec.sessions {
            ops.push(Request::Open(SessionSpec {
                players,
                objects: spec.objects.max(2),
                clusters: spec.clusters.max(1),
                diameter: spec.diameter,
                world_seed: derive_seed(spec.seed, &[TAG_WORLD, s as u64]),
                algorithm: spec.algorithm,
                budget: spec.budget.max(1),
                corrupt: spec.corrupt,
                drift_ppm: spec.drift_ppm,
                score_seed: derive_seed(spec.seed, &[TAG_SCORE, s as u64]),
            }));
            live.push((players, players));
        }
        let m = spec.objects.max(2);
        for _ in 0..spec.ops {
            let sid = rng.gen_range(0..spec.sessions);
            let (n, headroom) = live[sid];
            let roll = rng.gen_range(0..spec.mix.total());
            if roll < spec.mix.probe {
                let player = self::skewed(&mut rng, n, spec.skew);
                let k = 1 + rng.gen_range(0..8usize.min(m));
                ops.push(Request::SubmitProbes {
                    session: sid as u64,
                    player,
                    objects: choose_k(&mut rng, m, k),
                });
            } else if roll < spec.mix.probe + spec.mix.query {
                let k = 1 + rng.gen_range(0..4usize.min(n));
                let players = choose_k(&mut rng, n, k);
                let objects = if rng.gen_range(0..2u32) == 0 {
                    None
                } else {
                    let ko = 1 + rng.gen_range(0..8usize.min(m));
                    Some(choose_k(&mut rng, m, ko))
                };
                ops.push(Request::QueryPreferences {
                    session: sid as u64,
                    players,
                    objects,
                });
            } else if roll < spec.mix.probe + spec.mix.query + spec.mix.churn {
                let retire = rng.gen_range(0..=2usize.min(n.saturating_sub(1)));
                let join = rng.gen_range(0..=2usize);
                let joined = join.min(headroom);
                live[sid] = (n - retire + joined, headroom - joined);
                ops.push(Request::ApplyChurn {
                    session: sid as u64,
                    retire,
                    join,
                });
            } else {
                ops.push(Request::AdvanceEpoch {
                    session: sid as u64,
                });
            }
        }
        for sid in 0..spec.sessions {
            ops.push(Request::CloseSession {
                session: sid as u64,
            });
        }
        Trace { ops }
    }

    /// Replay on a fresh engine; answers come back in op order.
    pub fn replay(&self) -> Vec<Response> {
        ServiceEngine::new().execute(&self.ops)
    }

    /// Serialize to the `byzscore-trace/v1` line format.
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(self.ops.len() * 24 + 24);
        out.push_str(TRACE_VERSION);
        out.push('\n');
        for op in &self.ops {
            out.push_str(&format_op(op));
            out.push('\n');
        }
        out
    }

    /// Parse the `byzscore-trace/v1` line format. Trailing zero padding
    /// (a journal's reserved tail) is skipped.
    pub fn from_text(text: &str) -> Result<Trace, TraceError> {
        let mut lines = strip_padding(text)?.lines().enumerate();
        match lines.next() {
            Some((_, header)) if header.trim() == TRACE_VERSION => {}
            Some((_, header)) => {
                return Err(err(
                    1,
                    format!("bad header {header:?}, expected {TRACE_VERSION:?}"),
                ))
            }
            None => return Err(err(0, "empty trace")),
        }
        let mut ops = Vec::new();
        for (i, raw) in lines {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            ops.push(parse_op(line).map_err(|m| err(i + 1, m))?);
        }
        Ok(Trace { ops })
    }
}

/// The text before a journal's zero padding: everything up to the first
/// NUL, provided every byte from there on is NUL too. A NUL followed by
/// anything else is an error — padding is only ever a suffix.
pub(crate) fn strip_padding(text: &str) -> Result<&str, TraceError> {
    let Some(end) = text.find('\0') else {
        return Ok(text);
    };
    if text.as_bytes()[end..].iter().all(|&b| b == 0) {
        return Ok(&text[..end]);
    }
    let line = text[..end].matches('\n').count() + 1;
    Err(err(line, "bytes after zero padding"))
}

/// Pick a player with integer skew: the minimum of `skew + 1` uniform
/// draws over `0..n`.
fn skewed(rng: &mut SmallRng, n: usize, skew: u32) -> u32 {
    (0..=skew)
        .map(|_| rng.gen_range(0..n) as u32)
        .min()
        .expect("at least one draw")
}

pub(crate) fn join_ids(ids: &[u32]) -> String {
    let mut s = String::with_capacity(ids.len() * 3);
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&id.to_string());
    }
    s
}

pub(crate) fn split_ids(field: &str) -> Result<Vec<u32>, String> {
    field
        .split(',')
        .map(|t| {
            t.parse::<u32>()
                .map_err(|_| format!("bad id list {field:?}"))
        })
        .collect()
}

pub(crate) fn num<T: std::str::FromStr>(tok: Option<&str>, what: &str) -> Result<T, String> {
    tok.ok_or_else(|| format!("missing {what}"))?
        .parse::<T>()
        .map_err(|_| format!("bad {what} {tok:?}"))
}

/// Serialize one op as its trace line (no trailing newline) — the exact
/// inverse of [`parse_op`], shared by [`Trace::to_text`] and the wire
/// protocol's request frames.
pub fn format_op(op: &Request) -> String {
    match op {
        Request::Open(s) => format!(
            "open {} {} {} {} {} {} {} {} {} {}",
            s.players,
            s.objects,
            s.clusters,
            s.diameter,
            s.world_seed,
            s.algorithm.name(),
            s.budget,
            s.corrupt,
            s.drift_ppm,
            s.score_seed
        ),
        Request::SubmitProbes {
            session,
            player,
            objects,
        } => format!("probe {session} {player} {}", join_ids(objects)),
        Request::QueryPreferences {
            session,
            players,
            objects,
        } => {
            let objs = match objects {
                None => "-".to_string(),
                Some(o) => join_ids(o),
            };
            format!("query {session} {} {objs}", join_ids(players))
        }
        Request::ApplyChurn {
            session,
            retire,
            join,
        } => format!("churn {session} {retire} {join}"),
        Request::AdvanceEpoch { session } => format!("epoch {session}"),
        Request::CloseSession { session } => format!("close {session}"),
    }
}

/// Parse one op line. Every front-end parses through here: trace files,
/// journals, checkpoint `session` lines, wire frames and the `scored`
/// binary's stdin serve mode. An `open` whose session pool would exceed
/// [`MEMO_LIMIT_BITS`] is rejected here, before anything is allocated.
pub fn parse_op(line: &str) -> Result<Request, String> {
    let mut toks = line.split_whitespace();
    let verb = toks.next().ok_or("empty op line")?;
    let op = match verb {
        "open" => {
            let spec = SessionSpec {
                players: num(toks.next(), "players")?,
                objects: num(toks.next(), "objects")?,
                clusters: num(toks.next(), "clusters")?,
                diameter: num(toks.next(), "diameter")?,
                world_seed: num(toks.next(), "world_seed")?,
                algorithm: {
                    let name = toks.next().ok_or("missing algorithm")?;
                    ServiceAlgorithm::parse(name)
                        .ok_or_else(|| format!("bad algorithm {name:?}"))?
                },
                budget: num(toks.next(), "budget")?,
                corrupt: num(toks.next(), "corrupt")?,
                drift_ppm: num(toks.next(), "drift_ppm")?,
                score_seed: num(toks.next(), "score_seed")?,
            };
            check_pool_bits(&spec)?;
            Request::Open(spec)
        }
        "probe" => Request::SubmitProbes {
            session: num(toks.next(), "session")?,
            player: num(toks.next(), "player")?,
            objects: split_ids(toks.next().ok_or("missing object list")?)?,
        },
        "query" => Request::QueryPreferences {
            session: num(toks.next(), "session")?,
            players: split_ids(toks.next().ok_or("missing player list")?)?,
            objects: match toks.next().ok_or("missing object list")? {
                "-" => None,
                field => Some(split_ids(field)?),
            },
        },
        "churn" => Request::ApplyChurn {
            session: num(toks.next(), "session")?,
            retire: num(toks.next(), "retire")?,
            join: num(toks.next(), "join")?,
        },
        "epoch" => Request::AdvanceEpoch {
            session: num(toks.next(), "session")?,
        },
        "close" => Request::CloseSession {
            session: num(toks.next(), "session")?,
        },
        other => return Err(format!("unknown op {other:?}")),
    };
    if let Some(extra) = toks.next() {
        return Err(format!("trailing token {extra:?}"));
    }
    Ok(op)
}

/// A session's resident pool is `2 · players · objects` bits, its probed
/// set is the same size, and its active world never has more rows than
/// the pool. Capping the pool at [`MEMO_LIMIT_BITS`] (32 MB) bounds all
/// three per admitted session and turns a hostile spec into a typed
/// rejection rather than an allocation failure.
fn check_pool_bits(spec: &SessionSpec) -> Result<(), String> {
    let bits = (spec.players.max(1))
        .checked_mul(2)
        .and_then(|rows| rows.checked_mul(spec.objects.max(1)));
    match bits {
        Some(bits) if bits <= MEMO_LIMIT_BITS => Ok(()),
        _ => Err(format!(
            "open {}x{}: 2·players·objects pool bits exceed {MEMO_LIMIT_BITS}",
            spec.players, spec.objects
        )),
    }
}

/// Parse the committed `traces/DIGESTS` manifest: one
/// `<trace file name> <16-hex-digit combined digest>` pair per line,
/// `#` comments and blank lines ignored. This file is the single source
/// of truth for the pinned replay digests — `tests/determinism.rs`, the
/// CI replay gates, and the e17 socket table all read it, so rotating a
/// trace is a one-file edit.
pub fn parse_digests(text: &str) -> Result<Vec<(String, u64)>, TraceError> {
    let mut out = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut toks = line.split_whitespace();
        let name = toks.next().expect("non-empty line has a first token");
        let digest = toks
            .next()
            .ok_or_else(|| err(i + 1, format!("missing digest after {name:?}")))?;
        if digest.len() != 16 || toks.next().is_some() {
            return Err(err(
                i + 1,
                format!("expected `<name> <16-hex digest>`, got {line:?}"),
            ));
        }
        let value = u64::from_str_radix(digest, 16)
            .map_err(|_| err(i + 1, format!("bad digest {digest:?}")))?;
        out.push((name.to_string(), value));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_trace_round_trips_through_text() {
        let trace = Trace::generate(&TraceSpec::small(42));
        let text = trace.to_text();
        let parsed = Trace::from_text(&text).expect("parse back");
        assert_eq!(parsed, trace);
        // Stability of the serialization itself.
        assert_eq!(parsed.to_text(), text);
    }

    #[test]
    fn generation_is_seed_deterministic() {
        let spec = TraceSpec::small(7);
        assert_eq!(Trace::generate(&spec), Trace::generate(&spec));
        assert_ne!(
            Trace::generate(&spec),
            Trace::generate(&TraceSpec::small(8))
        );
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(Trace::from_text("").is_err());
        assert!(Trace::from_text("byzscore-trace/v2\n").is_err());
        for bad in [
            "probe 0 1",                     // missing object list
            "probe 0 1 2,x",                 // bad id
            "query 0 1,2",                   // missing object field
            "open 8 8 2 2 1 robust 4 0 0 1", // unknown algorithm
            "close 0 extra",                 // trailing token
            "frobnicate 1",                  // unknown verb
            "epoch 0\n\0\0epoch 1",          // an op line past zero padding
            // A pool one column past 2^28 bits, then 2·players and
            // 2·players·objects overflowing.
            "open 16384 8193 2 2 1 naive 4 0 0 1",
            "open 18446744073709551615 2 2 2 1 naive 4 0 0 1",
            "open 2 9223372036854775807 2 2 1 naive 4 0 0 1",
        ] {
            let text = format!("{TRACE_VERSION}\n{bad}\n");
            assert!(Trace::from_text(&text).is_err(), "accepted {bad:?}");
        }
        // A pool of exactly 2^28 bits is admitted.
        assert!(parse_op("open 16384 8192 2 2 1 naive 4 0 0 1").is_ok());
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        // A journal's trailing zero padding is skipped too.
        for text in [
            format!("{TRACE_VERSION}\n\n# a comment\nepoch 0\n"),
            format!("{TRACE_VERSION}\n\n# a comment\nepoch 0\n\0\0\0\0"),
        ] {
            let trace = Trace::from_text(&text).expect("parse");
            assert_eq!(trace.ops, vec![Request::AdvanceEpoch { session: 0 }]);
        }
    }

    #[test]
    fn digest_manifest_parses_and_rejects_malformed_lines() {
        let good =
            "# comment\n\nservice_quick.trace 742004f52561bb35\nother.trace 00000000deadbeef\n";
        assert_eq!(
            parse_digests(good).unwrap(),
            vec![
                ("service_quick.trace".to_string(), 0x7420_04f5_2561_bb35),
                ("other.trace".to_string(), 0x0000_0000_dead_beef),
            ]
        );
        for bad in [
            "service_quick.trace",                    // missing digest
            "service_quick.trace 1234",               // short digest
            "service_quick.trace 742004f52561bb3g",   // non-hex
            "service_quick.trace 742004f52561bb35 x", // trailing token
        ] {
            assert!(parse_digests(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn format_op_round_trips_every_op_shape() {
        let trace = Trace::generate(&TraceSpec::small(11));
        for op in &trace.ops {
            let line = format_op(op);
            assert_eq!(parse_op(&line).as_ref(), Ok(op), "line {line:?}");
        }
    }

    #[test]
    fn generated_indices_stay_in_range_under_churn() {
        let mut spec = TraceSpec::small(3);
        spec.ops = 120;
        spec.mix = OpMix {
            probe: 4,
            query: 4,
            churn: 4,
            epoch: 1,
        };
        let trace = Trace::generate(&spec);
        // Replay must produce no rejections: every generated index valid.
        for (op, resp) in trace.ops.iter().zip(trace.replay()) {
            assert!(
                !matches!(resp, Response::Rejected(_)),
                "{op:?} was rejected: {resp:?}"
            );
        }
    }
}
