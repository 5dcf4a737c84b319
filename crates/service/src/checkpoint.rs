//! Versioned engine checkpoints: the compaction half of the durability
//! story (DESIGN.md §4.16).
//!
//! A checkpoint file (`byzscore-ckpt/v4`) captures what the engine
//! cannot recompute, at a known count of journaled ops: per open
//! session the spec, the slot→identity map and the
//! `next_fresh`/epoch/churn counters; plus every dedupe entry in FIFO
//! order. Everything else resident — the identity pool re-folded to its
//! epoch, the active world probes read, and the score rows queries read
//! — is a pure function of those fields and is *recomputed* at restore:
//! each open session is re-scored exactly as its last barrier scored it.
//! `decode` rejects fields the engine could not have written (more
//! session ids than covered ops, an unscorable population, more epochs
//! than covered ops, and — the restored pool's own precondition — map
//! entries that are repeated or not below `next_fresh`, `next_fresh`
//! outside the pool) as [`CheckpointError::Corrupt`] before anything
//! indexes or scores with them. The reader ignores unknown `meta` keys,
//! so files that still carry a `shards=` key restore too. It reads only `v4`: a
//! `v1` (per-claim `claim` lines), `v2` (hex score `rows` lines) or `v3`
//! (`probed` lines) file is corrupt, and recovery falls back as it does
//! for any checkpoint that does not load.
//!
//! # Torn-write detection
//!
//! The last line is a footer carrying the body's byte length and a
//! mix-fold digest. A checkpoint whose footer is missing, short, or
//! inconsistent is *torn* — the crash landed mid-write — and recovery
//! falls back to the previous checkpoint (`<journal>.ckpt.prev`, kept
//! by the rotation in [`save_checkpoint`]) or, absent that, to full-journal
//! replay. The footer is written before the file is renamed into
//! place, so a *renamed* checkpoint can only be torn by media-level
//! truncation, and the fallback chain still recovers (the journal is
//! only truncated after the new checkpoint is durable).

use std::collections::HashMap;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::engine::{scorable, ServiceEngine, SessionImage};
use crate::journal::{sync_parent_dir, DedupeWindow};
use crate::request::{mix, Request};
use crate::wire::{format_response, parse_response};
use crate::workload::{format_op, parse_op};

/// Version header of the checkpoint format.
pub const CKPT_VERSION: &str = "byzscore-ckpt/v4";

/// Where a recovered engine's state came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoverySource {
    /// The current checkpoint plus the journal tail.
    Checkpoint,
    /// The previous checkpoint (the current one was torn) plus the
    /// journal tail.
    PreviousCheckpoint,
    /// No usable checkpoint: the journal was replayed in full.
    FullJournal,
}

impl RecoverySource {
    /// Human-readable source for recovery log lines.
    pub fn describe(&self) -> &'static str {
        match self {
            RecoverySource::Checkpoint => "checkpoint + journal tail",
            RecoverySource::PreviousCheckpoint => "previous checkpoint + journal tail",
            RecoverySource::FullJournal => "the full journal",
        }
    }
}

/// Why a checkpoint file failed to load.
#[derive(Debug)]
pub enum CheckpointError {
    /// Footer missing or inconsistent: the write was torn mid-file.
    Torn(String),
    /// Footer verified but the body does not parse.
    Corrupt(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Torn(why) => write!(f, "torn checkpoint: {why}"),
            CheckpointError::Corrupt(why) => write!(f, "corrupt checkpoint: {why}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// A decoded checkpoint: the restored engine, its dedupe window, and
/// the mutating-op count the snapshot was taken at.
pub struct RestoredCheckpoint {
    /// Engine rebuilt from the session images.
    pub engine: ServiceEngine,
    /// Dedupe window restored entry-for-entry (FIFO order preserved).
    pub dedupe: DedupeWindow,
    /// Mutating ops applied when the checkpoint was written — journal
    /// entries past this count form the replay tail.
    pub ops: u64,
}

/// Path of the current checkpoint kept beside `journal`.
pub fn checkpoint_path(journal: &Path) -> PathBuf {
    sibling(journal, ".ckpt")
}

/// Path of the rotated previous checkpoint kept beside `journal`.
pub fn previous_checkpoint_path(journal: &Path) -> PathBuf {
    sibling(journal, ".ckpt.prev")
}

fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(suffix);
    PathBuf::from(os)
}

/// Mix-fold a byte body into the footer digest (same mixer as response
/// digests; seeded so an empty body is not zero).
fn body_digest(body: &[u8]) -> u64 {
    let mut h = mix(0xc4e_c9f7, body.len() as u64);
    for chunk in body.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = mix(h, u64::from_le_bytes(word));
    }
    h
}

/// Serialize `engine` + `dedupe` at `ops` applied mutating ops into a
/// complete `byzscore-ckpt/v4` file body (footer included).
pub fn encode_checkpoint(engine: &ServiceEngine, dedupe: &DedupeWindow, ops: u64) -> String {
    let mut out = String::new();
    out.push_str(CKPT_VERSION);
    out.push('\n');
    out.push_str(&format!(
        "meta ops={ops} slots={}\n",
        engine.session_slots()
    ));
    for (sid, image) in engine.images() {
        let open_line = format_op(&Request::Open(image.spec));
        let spec_tail = open_line
            .strip_prefix("open ")
            .expect("open ops format with the open verb");
        out.push_str(&format!("session {sid} {spec_tail}\n"));
        out.push_str(&format!(
            "state {sid} {} {} {}\n",
            image.next_fresh, image.epoch, image.churns
        ));
        let map: Vec<String> = image.map.iter().map(|id| id.to_string()).collect();
        out.push_str(&format!("map {sid} {}\n", map.join(",")));
    }
    for (partition, seq, key, resp) in dedupe.entries() {
        let part = partition.map_or_else(|| "-".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "dedupe {part} {seq} {key:016x} {}\n",
            format_response(&resp)
        ));
    }
    let digest = body_digest(out.as_bytes());
    out.push_str(&format!("footer len={} digest={digest:016x}\n", out.len()));
    out
}

/// One session's fields accumulated while parsing.
#[derive(Default)]
struct PartialImage {
    spec: Option<crate::request::SessionSpec>,
    state: Option<(u32, u64, u64)>,
    map: Option<Vec<u32>>,
}

/// Verify the footer and split off the body, or report the file torn.
fn verified_body(text: &str) -> Result<&str, CheckpointError> {
    let footer_at = text
        .rfind("\nfooter ")
        .ok_or_else(|| CheckpointError::Torn("no footer line".into()))?;
    let body = &text[..footer_at + 1];
    let footer = text[footer_at + 1..].trim_end();
    let rest = footer
        .strip_prefix("footer ")
        .ok_or_else(|| CheckpointError::Torn("malformed footer".into()))?;
    let mut len = None;
    let mut digest = None;
    for tok in rest.split_whitespace() {
        if let Some(v) = tok.strip_prefix("len=") {
            len = v.parse::<usize>().ok();
        } else if let Some(v) = tok.strip_prefix("digest=") {
            digest = u64::from_str_radix(v, 16).ok();
        }
    }
    let (len, digest) = match (len, digest) {
        (Some(l), Some(d)) => (l, d),
        _ => return Err(CheckpointError::Torn("unparsable footer".into())),
    };
    if len != body.len() {
        return Err(CheckpointError::Torn(format!(
            "footer len {len} != body {}",
            body.len()
        )));
    }
    if digest != body_digest(body.as_bytes()) {
        return Err(CheckpointError::Torn("footer digest mismatch".into()));
    }
    Ok(body)
}

/// Decode a checkpoint file into a restored engine. The second argument
/// is ignored; it remains only because the `perf/` benchmark passes it.
pub fn decode_checkpoint(
    text: &str,
    _shards: usize,
) -> Result<RestoredCheckpoint, CheckpointError> {
    decode(text)
}

/// The body of [`decode_checkpoint`].
fn decode(text: &str) -> Result<RestoredCheckpoint, CheckpointError> {
    let body = verified_body(text)?;
    let corrupt = |why: String| CheckpointError::Corrupt(why);
    let mut lines = body.lines();
    match lines.next() {
        Some(header) if header.trim() == CKPT_VERSION => {}
        other => {
            return Err(corrupt(format!(
                "bad header {other:?}, expected {CKPT_VERSION:?}"
            )))
        }
    }
    let mut ops = None;
    let mut slots = None;
    let mut partials: HashMap<u64, PartialImage> = HashMap::new();
    let mut order: Vec<u64> = Vec::new();
    let mut dedupe = DedupeWindow::new();
    for line in lines {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (verb, rest) = line.split_once(' ').unwrap_or((line, ""));
        match verb {
            "meta" => {
                for tok in rest.split_whitespace() {
                    if let Some(v) = tok.strip_prefix("ops=") {
                        ops = v.parse::<u64>().ok();
                    } else if let Some(v) = tok.strip_prefix("slots=") {
                        slots = v.parse::<u64>().ok();
                    }
                }
            }
            "session" => {
                let (sid, tail) = rest
                    .split_once(' ')
                    .ok_or_else(|| corrupt(format!("short session line {line:?}")))?;
                let sid: u64 = sid
                    .parse()
                    .map_err(|e| corrupt(format!("bad session id: {e}")))?;
                let spec = match parse_op(&format!("open {tail}")) {
                    Ok(Request::Open(spec)) => spec,
                    other => return Err(corrupt(format!("bad session spec: {other:?}"))),
                };
                if !order.contains(&sid) {
                    order.push(sid);
                }
                partials.entry(sid).or_default().spec = Some(spec);
            }
            "state" => {
                let toks: Vec<&str> = rest.split_whitespace().collect();
                if toks.len() != 4 {
                    return Err(corrupt(format!("state line wants 4 fields: {line:?}")));
                }
                let sid: u64 = toks[0]
                    .parse()
                    .map_err(|e| corrupt(format!("bad state id: {e}")))?;
                let parse3 = || -> Result<(u32, u64, u64), String> {
                    Ok((
                        toks[1].parse().map_err(|e| format!("next_fresh: {e}"))?,
                        toks[2].parse().map_err(|e| format!("epoch: {e}"))?,
                        toks[3].parse().map_err(|e| format!("churns: {e}"))?,
                    ))
                };
                partials.entry(sid).or_default().state = Some(parse3().map_err(corrupt)?);
            }
            "map" => {
                let (sid, ids) = rest
                    .split_once(' ')
                    .ok_or_else(|| corrupt(format!("short map line {line:?}")))?;
                let sid: u64 = sid
                    .parse()
                    .map_err(|e| corrupt(format!("bad map id: {e}")))?;
                let map: Result<Vec<u32>, _> = ids.trim().split(',').map(|t| t.parse()).collect();
                partials.entry(sid).or_default().map =
                    Some(map.map_err(|e| corrupt(format!("bad map entry: {e}")))?);
            }
            "dedupe" => {
                let toks: Vec<&str> = rest.splitn(4, ' ').collect();
                if toks.len() != 4 {
                    return Err(corrupt(format!("dedupe line wants 4 fields: {line:?}")));
                }
                let partition = match toks[0] {
                    "-" => None,
                    p => Some(
                        p.parse::<u64>()
                            .map_err(|e| corrupt(format!("bad dedupe partition: {e}")))?,
                    ),
                };
                let seq: u64 = toks[1]
                    .parse()
                    .map_err(|e| corrupt(format!("bad dedupe seq: {e}")))?;
                let key = u64::from_str_radix(toks[2], 16)
                    .map_err(|e| corrupt(format!("bad dedupe key: {e}")))?;
                let resp = parse_response(toks[3])
                    .map_err(|e| corrupt(format!("bad dedupe response: {e}")))?;
                dedupe.record(partition, seq, key, resp);
            }
            other => return Err(corrupt(format!("unknown checkpoint verb {other:?}"))),
        }
    }
    let ops = ops.ok_or_else(|| corrupt("missing meta ops".into()))?;
    let slots = slots.ok_or_else(|| corrupt("missing meta slots".into()))?;
    if slots > ops {
        // Every session id was assigned by one journaled `open`.
        return Err(corrupt(format!(
            "{slots} session slots exceed the {ops} covered ops"
        )));
    }
    let mut images = Vec::with_capacity(order.len());
    for sid in order {
        let partial = partials.remove(&sid).expect("ordered ids were inserted");
        let spec = partial
            .spec
            .ok_or_else(|| corrupt(format!("session {sid} missing spec")))?;
        let (next_fresh, epoch, churns) = partial
            .state
            .ok_or_else(|| corrupt(format!("session {sid} missing state")))?;
        let map = partial
            .map
            .ok_or_else(|| corrupt(format!("session {sid} missing map")))?;
        if sid >= slots {
            return Err(corrupt(format!("session {sid} outside {slots} slots")));
        }
        // Each epoch or churn is one journaled op (this also bounds the
        // restore fold); `ResidentPool::restore` checks map and next_fresh.
        scorable("restore", map.len(), spec.corrupt)
            .map_err(|e| corrupt(format!("session {sid}: {e}")))?;
        if epoch > ops || churns > ops {
            return Err(corrupt(format!(
                "session {sid} epoch {epoch} / churns {churns} exceed the {ops} covered ops"
            )));
        }
        let image = SessionImage {
            spec,
            map,
            next_fresh,
            epoch,
            churns,
        };
        images.push((sid, image));
    }
    let engine = ServiceEngine::from_images(slots, images)
        .map_err(|(sid, why)| corrupt(format!("session {sid} {why}")))?;
    Ok(RestoredCheckpoint {
        engine,
        dedupe,
        ops,
    })
}

/// Durably install `text` as the current checkpoint beside `journal`:
/// write `<journal>.ckpt.tmp`, fsync it, rotate any existing current
/// checkpoint to `.ckpt.prev`, and rename the tmp into place. Every
/// mutation is an atomic rename, so a crash anywhere leaves either the
/// old or the new checkpoint loadable; the directory is fsynced last so
/// the renames themselves are durable before this returns `Ok`.
fn install_text(journal: &Path, text: &str) -> io::Result<()> {
    let current = checkpoint_path(journal);
    let tmp = sibling(journal, ".ckpt.tmp");
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(text.as_bytes())?;
        file.sync_all()?;
    }
    if current.exists() {
        std::fs::rename(&current, previous_checkpoint_path(journal))?;
    }
    std::fs::rename(&tmp, &current)?;
    sync_parent_dir(&current)
}

/// Write the current engine + dedupe state as the checkpoint beside
/// `journal` (rotating the previous one to `.ckpt.prev`).
pub fn save_checkpoint(
    journal: &Path,
    engine: &ServiceEngine,
    dedupe: &DedupeWindow,
    ops: u64,
) -> io::Result<()> {
    install_text(journal, &encode_checkpoint(engine, dedupe, ops))
}

/// Fault-injection hook: install a deliberately truncated checkpoint
/// (the footer never lands), as a crash mid-`write_all` would leave
/// behind if the tmp file had already been renamed by a buggy ordering.
/// Recovery must detect the tear and fall back.
pub fn save_torn_checkpoint(
    journal: &Path,
    engine: &ServiceEngine,
    dedupe: &DedupeWindow,
    ops: u64,
) -> io::Result<()> {
    let full = encode_checkpoint(engine, dedupe, ops);
    let cut = full.len() * 2 / 3;
    install_text(journal, &full[..cut])
}

/// Load the best available checkpoint beside `journal`: the current
/// one, else (when that is missing or torn) the rotated previous one.
/// `None` when neither loads. Corrupt-but-complete files are treated
/// like torn ones for fallback purposes, with a note on stderr.
pub fn load_latest(journal: &Path) -> Option<(RestoredCheckpoint, RecoverySource)> {
    for (path, source) in [
        (checkpoint_path(journal), RecoverySource::Checkpoint),
        (
            previous_checkpoint_path(journal),
            RecoverySource::PreviousCheckpoint,
        ),
    ] {
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        match decode(&text) {
            Ok(restored) => return Some((restored, source)),
            Err(err) => {
                eprintln!("skipping {}: {err}", path.display());
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Response;
    use crate::workload::{Trace, TraceSpec};

    /// Drive a fresh engine over a generated trace, recording responses
    /// into the dedupe window like the journaled paths do.
    fn driven_engine(seed: u64, upto: usize) -> (ServiceEngine, DedupeWindow, u64, Vec<Request>) {
        let trace = Trace::generate(&TraceSpec::small(seed));
        let mut engine = ServiceEngine::new();
        let mut dedupe = DedupeWindow::new();
        let mut mutating = 0u64;
        for (seq, op) in trace.ops[..upto].iter().enumerate() {
            let resp = engine.execute(std::slice::from_ref(op)).remove(0);
            if !op.is_shardable() {
                dedupe.record(op.session(), seq as u64, crate::journal::op_key(op), resp);
            }
            if op.is_mutating() {
                mutating += 1;
            }
        }
        (engine, dedupe, mutating, trace.ops)
    }

    /// At every cut of the trace, a checkpoint re-encodes to itself after
    /// a decode, and the restored engine (every open session re-scored)
    /// answers the rest of the trace exactly as the live engine did —
    /// including cuts right after a churn and right after an epoch, whose
    /// restore re-scores with that transition's seed.
    #[test]
    fn checkpoint_round_trips_and_future_answers_match() {
        let all = Trace::generate(&TraceSpec::small(31)).ops;
        let live = ServiceEngine::new().execute(&all);
        let mut after_churn = false;
        let mut after_epoch = false;
        for cut in 0..=all.len() {
            let (engine, dedupe, ops, _) = driven_engine(31, cut);
            let text = encode_checkpoint(&engine, &dedupe, ops);
            let restored = decode(&text).expect("round trip decodes");
            assert_eq!(restored.ops, ops);
            assert_eq!(
                encode_checkpoint(&restored.engine, &restored.dedupe, restored.ops),
                text,
                "cut {cut}: encode(decode(x)) != x"
            );
            let mut recovered = restored.engine;
            assert_eq!(
                recovered.execute(&all[cut..]),
                live[cut..],
                "cut {cut}: the restored engine diverged on the tail"
            );
            match cut.checked_sub(1).map(|last| &live[last]) {
                Some(Response::Churned { .. }) => after_churn = true,
                Some(Response::Epoch { .. }) => after_epoch = true,
                _ => {}
            }
        }
        assert!(
            after_churn && after_epoch,
            "the trace must cut after both transitions"
        );
    }

    #[test]
    fn restored_engine_preserves_slot_count_and_closed_sessions() {
        let (engine, dedupe, ops, _) = driven_engine(32, 14);
        let slots = engine.session_slots();
        let open = engine.open_sessions();
        let text = encode_checkpoint(&engine, &dedupe, ops);
        let restored = decode(&text).expect("round trip decodes");
        assert_eq!(restored.engine.session_slots(), slots, "ids never reused");
        assert_eq!(restored.engine.open_sessions(), open);
    }

    #[test]
    fn torn_footer_is_detected_at_any_cut() {
        let (engine, dedupe, ops, _) = driven_engine(33, 7);
        let text = encode_checkpoint(&engine, &dedupe, ops);
        for frac in [1usize, 3, 7, 9] {
            let cut = text.len() * frac / 10;
            assert!(
                matches!(decode(&text[..cut]), Err(CheckpointError::Torn(_))),
                "a {frac}0% prefix must read as torn"
            );
        }
        // Flipping a body byte breaks the digest even with the footer intact.
        let mut bytes = text.clone().into_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] = bytes[mid].wrapping_add(1);
        let flipped = String::from_utf8_lossy(&bytes).into_owned();
        assert!(matches!(decode(&flipped), Err(CheckpointError::Torn(_))));
    }

    /// `text` with the first body line starting `prefix` rewritten by
    /// `edit` and the footer recomputed, so the file verifies and only
    /// the body's meaning changed.
    fn reforge(text: &str, prefix: &str, edit: impl Fn(&str) -> String) -> String {
        let body_end = text.rfind("footer ").expect("footer line");
        let line = text[..body_end]
            .lines()
            .find(|line| line.starts_with(prefix))
            .unwrap_or_else(|| panic!("no {prefix:?} line"));
        let body = text[..body_end].replacen(line, &edit(line), 1);
        format!(
            "{body}footer len={} digest={:016x}\n",
            body.len(),
            body_digest(body.as_bytes())
        )
    }

    /// `line` with its whitespace-separated field `at` replaced.
    fn with_field(line: &str, at: usize, value: &str) -> String {
        let mut fields: Vec<&str> = line.split(' ').collect();
        fields[at] = value;
        fields.join(" ")
    }

    /// Decode `text` and return the `Corrupt` reason; any other outcome
    /// fails the test.
    fn corrupt_reason(text: &str) -> String {
        match decode(text) {
            Err(CheckpointError::Corrupt(why)) => why,
            Err(other) => panic!("expected Corrupt, got {other}"),
            Ok(_) => panic!("expected Corrupt, the checkpoint decoded"),
        }
    }

    /// Every checkpoint written before the engine lost its shard layout
    /// carries `shards=8` in its `meta` line. Such a file (footer
    /// recomputed over the edited body) restores to the same images and
    /// answers the rest of the trace identically.
    #[test]
    fn checkpoints_with_a_shards_meta_key_still_restore() {
        let (engine, dedupe, ops, all) = driven_engine(35, 11);
        let text = encode_checkpoint(&engine, &dedupe, ops);
        let meta = format!("meta ops={ops} slots={}", engine.session_slots());
        let legacy_meta = format!("meta ops={ops} shards=8 slots={}", engine.session_slots());
        assert!(text.contains(&format!("{meta}\n")));
        let legacy = reforge(&text, &meta, |_| legacy_meta.clone());

        let restored = decode(&legacy).expect("a shards= meta key is ignored");
        assert_eq!(restored.ops, ops);
        assert_eq!(restored.dedupe.entries(), dedupe.entries());
        assert_eq!(
            encode_checkpoint(&restored.engine, &restored.dedupe, restored.ops),
            text,
            "the restored engine re-encodes to the same images"
        );
        let mut original = engine;
        let mut recovered = restored.engine;
        let tail = &all[11..];
        assert_eq!(original.execute(tail), recovered.execute(tail));
    }

    /// A map entry past the `2 × players` pool is corrupt, not a panic
    /// when restore gathers the active world; so is a map longer than the
    /// pool (its repeated ids would let a probe past the pool pass
    /// validation and read past the active world), and so is a `v3`-style
    /// `probed` line under a `v4` header.
    #[test]
    fn a_map_entry_past_the_pool_is_corrupt() {
        let (engine, dedupe, ops, _) = driven_engine(35, 11);
        let text = encode_checkpoint(&engine, &dedupe, ops);
        let hostile = reforge(&text, "map ", |line| {
            let (head, ids) = line.rsplit_once(' ').expect("map line has ids");
            let rest = ids.split_once(',').map_or("", |(_, rest)| rest);
            format!("{head} 4000000000,{rest}")
        });
        assert!(corrupt_reason(&hostile).contains("map entry 4000000000"));

        let spec = engine.images()[0].1.spec;
        let pool = 2 * spec.players.max(1);
        let zeros = vec!["0"; pool + 1].join(",");
        let hostile = reforge(&text, "map ", |line| {
            let (head, _) = line.rsplit_once(' ').expect("map line has ids");
            format!("{head} {zeros}")
        });
        assert!(corrupt_reason(&hostile).contains("map entry 0 repeats"));

        let sid = engine.images()[0].0;
        let hostile = reforge(&text, "map ", |line| format!("{line}\nprobed {sid} 1,2"));
        assert!(corrupt_reason(&hostile).contains("unknown checkpoint verb \"probed\""));
    }

    /// Every session id was assigned by one journaled `open`, so a
    /// `slots=` count past the covered ops is corrupt — not an
    /// allocation sized by the file.
    #[test]
    fn session_slots_past_the_covered_ops_are_corrupt() {
        let (engine, dedupe, ops, _) = driven_engine(35, 11);
        let text = encode_checkpoint(&engine, &dedupe, ops);
        let meta = format!("meta ops={ops} slots={}", engine.session_slots());
        for slots in [ops + 1, 1 << 62] {
            let hostile = reforge(&text, &meta, |_| format!("meta ops={ops} slots={slots}"));
            assert!(corrupt_reason(&hostile).contains("session slots exceed"));
        }
    }

    /// A session spec whose pool or flip table passes the oracle's memo
    /// cap, or whose size overflows, is corrupt: the `session` line is
    /// rejected as it parses, before restore sizes or hashes anything by
    /// it.
    #[test]
    fn an_oversized_session_spec_is_corrupt() {
        let (engine, dedupe, ops, _) = driven_engine(35, 11);
        let text = encode_checkpoint(&engine, &dedupe, ops);
        for objects in ["268435456", "9223372036854775807"] {
            let hostile = reforge(&text, "session ", |line| with_field(line, 3, objects));
            assert!(corrupt_reason(&hostile).contains("pool bits"), "{objects}");
        }
        for diameter in ["1000000000000", "18446744073709551615"] {
            let hostile = reforge(&text, "session ", |line| with_field(line, 5, diameter));
            assert!(
                corrupt_reason(&hostile).contains("flip table"),
                "{diameter}"
            );
        }
    }

    /// `next_fresh` past the pool is corrupt.
    #[test]
    fn next_fresh_past_the_pool_is_corrupt() {
        let (engine, dedupe, ops, _) = driven_engine(35, 11);
        let text = encode_checkpoint(&engine, &dedupe, ops);
        let hostile = reforge(&text, "state ", |line| with_field(line, 2, "4000000000"));
        assert!(corrupt_reason(&hostile).contains("next_fresh 4000000000"));
    }

    /// A session whose population does not exceed its corrupt count could
    /// never be scored (`open` and `churn` refuse to leave one), so a map
    /// cut to `corrupt` ids under a valid footer is corrupt, and decode
    /// says so before restore re-scores the session with zero honest
    /// players.
    #[test]
    fn an_unscorable_population_is_corrupt() {
        let (engine, dedupe, ops, _) = driven_engine(35, 11);
        let text = encode_checkpoint(&engine, &dedupe, ops);
        let (sid, image) = &engine.images()[0];
        let keep = image.spec.corrupt;
        assert!(keep > 0 && keep < image.map.len());
        let hostile = reforge(&text, &format!("map {sid} "), |line| {
            let (head, ids) = line.rsplit_once(' ').expect("map line has ids");
            let kept: Vec<&str> = ids.split(',').take(keep).collect();
            format!("{head} {}", kept.join(","))
        });
        let reason = corrupt_reason(&hostile);
        assert!(
            reason.contains(&format!("population {keep}"))
                && reason.contains(&format!("corrupt {keep}")),
            "{reason}"
        );
    }

    /// Each epoch or churn is one journaled mutating op, so neither count
    /// can exceed the covered `ops`; this also bounds restore's fold.
    #[test]
    fn epochs_or_churns_past_the_covered_ops_are_corrupt() {
        let (engine, dedupe, ops, _) = driven_engine(35, 11);
        let text = encode_checkpoint(&engine, &dedupe, ops);
        let too_many = (ops + 1).to_string();
        for field in [3, 4] {
            let hostile = reforge(&text, "state ", |line| with_field(line, field, &too_many));
            assert!(corrupt_reason(&hostile).contains("exceed the"));
        }
    }

    #[test]
    fn save_rotates_previous_and_load_latest_falls_back() {
        let dir = std::env::temp_dir();
        let journal = dir.join(format!("byzscore_ckpt_test_{}", std::process::id()));
        let _ = std::fs::remove_file(checkpoint_path(&journal));
        let _ = std::fs::remove_file(previous_checkpoint_path(&journal));

        let (engine, dedupe, ops, _) = driven_engine(34, 6);
        save_checkpoint(&journal, &engine, &dedupe, ops).expect("first save");
        let (first, source) = load_latest(&journal).expect("loads current");
        assert_eq!(source, RecoverySource::Checkpoint);
        assert_eq!(first.ops, ops);

        let (engine2, dedupe2, ops2, _) = driven_engine(34, 9);
        save_checkpoint(&journal, &engine2, &dedupe2, ops2).expect("second save rotates");
        let (latest, _) = load_latest(&journal).expect("loads newer");
        assert_eq!(latest.ops, ops2);

        // Tear the current file: fallback must surface the rotated one.
        let current = checkpoint_path(&journal);
        let text = std::fs::read_to_string(&current).expect("current readable");
        std::fs::write(&current, &text[..text.len() / 2]).expect("truncate current");
        let (fallback, source) = load_latest(&journal).expect("previous still loads");
        assert_eq!(source, RecoverySource::PreviousCheckpoint);
        assert_eq!(fallback.ops, ops, "rotated file is the older snapshot");

        // A complete v2 (hex score rows) or v3 (probed lines) file is
        // corrupt, and falls back the same way.
        for old in ["byzscore-ckpt/v2", "byzscore-ckpt/v3"] {
            let stale = reforge(&text, CKPT_VERSION, |_| old.to_string());
            assert!(corrupt_reason(&stale).contains("bad header"), "{old}");
            std::fs::write(&current, &stale).expect("rewrite current as an old version");
            let (fallback, source) = load_latest(&journal).expect("previous still loads");
            assert_eq!(source, RecoverySource::PreviousCheckpoint, "{old}");
            assert_eq!(fallback.ops, ops, "{old}");
        }

        let _ = std::fs::remove_file(checkpoint_path(&journal));
        let _ = std::fs::remove_file(previous_checkpoint_path(&journal));
    }
}
