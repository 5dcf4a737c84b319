//! Write-ahead op journal and the idempotent-resend dedupe window.
//!
//! # The journal is a trace file
//!
//! Ops are already `byzscore-trace/v1` text, so the journal reuses the
//! format verbatim: the header line, then one op line per mutating op,
//! each preceded by a `# wal seq=N` comment carrying the client's wire
//! sequence number. Comments are ignored by [`Trace::from_text`](crate::workload::Trace::from_text), so a
//! journal *is* a valid trace — `scored replay wal.journal` replays a
//! crashed server's history directly, and recovery is nothing more than
//! the engine's single-op `execute_one` over each parsed op (the call
//! every front-end makes, and the code every digest gate already pins).
//!
//! # On disk: text, then zero padding
//!
//! The file is that text followed by a run of NUL bytes reserved in
//! advance; readers stop at the first NUL (a NUL followed by anything
//! else is an error), and recovery heals to the last complete line and
//! re-pads. An append overwrites padding in place instead of extending
//! the file, so its `sync_data` flushes data only: a write that grows
//! the file would also make the filesystem commit the new size (on
//! ext4, a second device flush through its own journal). When an entry
//! would cross the reservation the file is zero-filled out to twice
//! the text end — one size commit per doubling, not per op. A fresh
//! journal reserves one 4 KiB page; a compacted tail reserves the
//! high-water of the tail it replaces, rounded up to a page.
//!
//! # Durability contract
//!
//! An entry is appended and fsynced **before** its op executes, and the
//! answer is only sent after execution. A crash therefore leaves three
//! possible states per op, all safe:
//!
//! * journaled + executed, answer maybe lost — recovery re-applies it;
//!   the client's resend is answered from the rebuilt [`DedupeWindow`]
//!   (barriers) or by idempotent re-execution (probes).
//! * journaled, never executed — recovery applies it for the first
//!   time; identical outcome by engine determinism.
//! * torn tail (the crash landed mid-append) — the partial last line is
//!   dropped and the file truncated to the last newline before the
//!   first NUL, which also discards any orphan bytes a torn write left
//!   past the padding. The op was never executed and never answered,
//!   so the resend simply runs it fresh.
//!
//! Queries are *not* journaled: they read score rows that change only
//! at barriers, so they are pure functions of the journaled history.
//!
//! # Why resends never double-apply
//!
//! Probes are naturally idempotent — a probe sets one bit per probed
//! `(slot, object)` pair in its session's probed set, and setting a bit
//! again changes nothing, so re-executing a probe changes nothing
//! (including the `freed_slots` a later close reports). Barriers are *not* idempotent
//! (a churn retires players each time), so the engine keeps a bounded
//! per-session [`DedupeWindow`]: a resent barrier whose `(seq, op)`
//! pair was already answered gets the recorded response back without
//! re-executing. Recovery restocks the window from the `# wal seq=N`
//! annotations, so the exactly-once guarantee spans crashes.
//!
//! # Failure policy
//!
//! [`JournaledEngine::submit`] runs each op under `catch_unwind`, so a
//! panic never reaches a front-end:
//!
//! * a panicking probe or query answers `Ok(Retryable)` and counts
//!   [`worker_panics`](JournaledEngine::worker_panics): the state it
//!   may have touched is still what the journal describes;
//! * a panicking barrier rebuilds the engine and dedupe window from the
//!   journal (which recorded the barrier before it ran), answers
//!   `Ok(Retryable)` and counts [`rebuilds`](JournaledEngine::rebuilds);
//!   the resend then answers from the dedupe window;
//! * a rebuild that fails latches [`halted`](JournaledEngine::halted):
//!   every later `submit` answers `Retryable` without appending or
//!   executing, and the front-end stops serving (restart with
//!   `--recover`).
//!
//! `Err` is reserved for a journal append that failed: nothing executed.
//! The transports — the socket dispatcher ([`Server`](crate::Server))
//! and the line transport behind stdin `scored serve`
//! ([`serve_lines`](crate::net::serve_lines)) — only frame ops in and
//! answers out; neither carries a failure policy of its own.

use std::collections::{HashMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
#[cfg(feature = "fault-inject")]
use std::sync::Arc;

use crate::checkpoint::{self, RecoverySource};
use crate::engine::ServiceEngine;
#[cfg(feature = "fault-inject")]
use crate::fault::FaultPlan;
use crate::request::{mix, Request, Response};
use crate::workload::{format_op, parse_op, strip_padding, TraceError, TRACE_VERSION};

/// Resent-op memory per dedupe partition (one partition per session,
/// plus one for session-less `open` ops). A client pipelines at most a
/// barrier-free window per session, so a small FIFO covers every resend
/// a live client can produce.
pub const DEDUPE_WINDOW: usize = 64;

/// Fold an op's canonical trace line into a 64-bit identity key. A
/// dedupe hit requires the stored key to match, so a *different* op
/// reusing an old sequence number executes instead of replaying a
/// stale answer.
pub fn op_key(op: &Request) -> u64 {
    let line = format_op(op);
    let mut h = mix(0x0b5e_55ed, line.len() as u64);
    for chunk in line.as_bytes().chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = mix(h, u64::from_le_bytes(word));
    }
    h
}

/// Bounded `(seq, op) → response` memory for barrier ops, partitioned
/// by session so one chatty session cannot evict another's entries.
/// Partitions survive `close` — a retried close must answer the
/// recorded `Closed`, not a `Rejected(SessionClosed)`.
#[derive(Debug, Default)]
pub struct DedupeWindow {
    map: HashMap<(Option<u64>, u64), (u64, Response)>,
    order: HashMap<Option<u64>, VecDeque<u64>>,
}

impl DedupeWindow {
    /// An empty window.
    pub fn new() -> DedupeWindow {
        DedupeWindow::default()
    }

    /// The recorded answer for a resend: same partition, same sequence
    /// number, same op text. A key mismatch is *not* a hit — the client
    /// reused the sequence number for a different op.
    pub fn lookup(&self, partition: Option<u64>, seq: u64, key: u64) -> Option<&Response> {
        match self.map.get(&(partition, seq)) {
            Some((stored, resp)) if *stored == key => Some(resp),
            _ => None,
        }
    }

    /// Record an answered barrier op, evicting the partition's oldest
    /// entry past [`DEDUPE_WINDOW`].
    pub fn record(&mut self, partition: Option<u64>, seq: u64, key: u64, resp: Response) {
        if self.map.insert((partition, seq), (key, resp)).is_none() {
            let order = self.order.entry(partition).or_default();
            order.push_back(seq);
            if order.len() > DEDUPE_WINDOW {
                if let Some(evicted) = order.pop_front() {
                    self.map.remove(&(partition, evicted));
                }
            }
        }
    }

    /// Recorded entries across all partitions.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is recorded.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Every recorded entry as `(partition, seq, key, response)`, in
    /// per-partition FIFO order with partitions sorted (session-less
    /// first). Re-`record`ing the list into an empty window reproduces
    /// this window exactly — order included, so future evictions agree.
    /// This is what a checkpoint serializes.
    pub fn entries(&self) -> Vec<(Option<u64>, u64, u64, Response)> {
        let mut partitions: Vec<Option<u64>> = self.order.keys().copied().collect();
        partitions.sort_unstable();
        let mut out = Vec::with_capacity(self.map.len());
        for partition in partitions {
            for &seq in &self.order[&partition] {
                if let Some((key, resp)) = self.map.get(&(partition, seq)) {
                    out.push((partition, seq, *key, resp.clone()));
                }
            }
        }
        out
    }
}

/// Zero padding is reserved in whole pages, at least one.
const PAGE: u64 = 4096;

/// The reservation for a journal whose text has reached `high_water`
/// bytes: that many rounded up to a whole page (one page at least).
fn reservation(high_water: u64) -> u64 {
    high_water.div_ceil(PAGE).max(1) * PAGE
}

/// Where a journal's text ends: at its first NUL, past which every
/// byte is padding (or, after a torn write, an orphan).
fn text_end(bytes: &[u8]) -> usize {
    bytes.iter().position(|&b| b == 0).unwrap_or(bytes.len())
}

/// The directory holding `path`. A bare file name's parent is the empty
/// path, which `File::open` refuses; it names the current directory.
fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    }
}

/// Fsync the directory holding `path`, making a create or rename of it
/// durable.
pub(crate) fn sync_parent_dir(path: &Path) -> io::Result<()> {
    File::open(parent_dir(path))?.sync_all()
}

/// The bytes one journaled op occupies: its `# wal seq=N` annotation
/// and its op line.
fn entry_text(seq: u64, op: &Request) -> String {
    format!("# wal seq={seq}\n{}\n", format_op(op))
}

/// Write handle on a write-ahead journal file: the text, then zero
/// padding up to `reserved`. Appends overwrite padding in place.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
    /// End of the text: where the next entry is written.
    offset: u64,
    /// File length: text plus the zero padding already written.
    reserved: u64,
}

impl Journal {
    /// Create (truncate) a fresh journal: header line plus one page of
    /// padding, fsynced, then its directory entry fsynced.
    pub fn create(path: &Path) -> io::Result<Journal> {
        let header = format!("{TRACE_VERSION}\n");
        let journal = Journal::write_new(path, &header, reservation(header.len() as u64))?;
        sync_parent_dir(path)?;
        Ok(journal)
    }

    /// `text` then zeros out to `reserved`, fsynced, in a new file.
    fn write_new(path: &Path, text: &str, reserved: u64) -> io::Result<Journal> {
        let mut journal = Journal {
            file: File::create(path)?,
            path: path.to_path_buf(),
            offset: text.len() as u64,
            reserved,
        };
        journal.file.write_all(text.as_bytes())?;
        journal.zero_fill(journal.offset, reserved)?;
        journal.file.sync_data()?;
        Ok(journal)
    }

    /// Open an existing journal for appending — call after
    /// [`recover`], which heals the file to its last complete line.
    /// The text ends at the first NUL (or the end of the file); every
    /// byte past it is zeroed afresh, out to at least a page-rounded
    /// reservation. The next append's `sync_data` makes the padding
    /// durable.
    pub fn open_append(path: &Path) -> io::Result<Journal> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let offset = text_end(&bytes) as u64;
        let reserved = reservation(offset).max(bytes.len() as u64);
        let mut journal = Journal {
            file,
            path: path.to_path_buf(),
            offset,
            reserved,
        };
        journal.zero_fill(offset, reserved)?;
        Ok(journal)
    }

    /// Overwrite `from..to` with zeros.
    fn zero_fill(&mut self, from: u64, to: u64) -> io::Result<()> {
        self.file.seek(SeekFrom::Start(from))?;
        io::copy(&mut io::repeat(0).take(to - from), &mut self.file)?;
        Ok(())
    }

    /// Append one mutating op (seq annotation + op line, one write) and
    /// fsync before returning — the caller only executes the op once
    /// this succeeds. Returns the bytes appended (for byte-threshold
    /// compaction accounting).
    ///
    /// The entry overwrites padding, so the file keeps its length and
    /// the `sync_data` flushes data only — no size change for the
    /// filesystem to commit. An entry that would cross the reservation
    /// first zero-fills out to twice the new text end: the file grows
    /// once per doubling, never once per op. A failed append zeroes
    /// what it may have written, so a resend lands on clean padding.
    pub fn append(&mut self, seq: u64, op: &Request) -> io::Result<usize> {
        let entry = entry_text(seq, op);
        let end = self.offset + entry.len() as u64;
        if end > self.reserved {
            self.zero_fill(self.reserved, 2 * end)?;
            self.reserved = 2 * end;
        }
        let written = self
            .file
            .seek(SeekFrom::Start(self.offset))
            .and_then(|_| self.file.write_all(entry.as_bytes()))
            .and_then(|()| self.file.sync_data());
        if let Err(err) = written {
            let _ = self.zero_fill(self.offset, end);
            return Err(err);
        }
        self.offset = end;
        Ok(entry.len())
    }

    /// Start a fresh post-checkpoint tail atomically: write a sibling
    /// tmp file holding the header plus a `# ckpt ops=K` base marker,
    /// zero-padded to the high-water of the tail it replaces (rounded
    /// up to a page), fsync it, rename it over the journal, and adopt
    /// the tmp file's handle. The marker is a comment, so the tail is
    /// still a valid `byzscore-trace/v1` file — and the rename is the
    /// *last* step of a compaction cycle, after the checkpoint at `K`
    /// is durable, so a crash anywhere leaves a journal whose base is
    /// covered by a loadable checkpoint. An error before the rename
    /// leaves this handle on the old, intact journal; a failed directory
    /// sync after it is reported with the new handle already adopted.
    pub fn truncate_to_base(&mut self, base: u64) -> io::Result<()> {
        let tmp = {
            let mut os = self.path.as_os_str().to_os_string();
            os.push(".tail.tmp");
            PathBuf::from(os)
        };
        let text = format!("{TRACE_VERSION}\n# ckpt ops={base}\n");
        let high_water = self.offset.max(text.len() as u64);
        let mut fresh = Journal::write_new(&tmp, &text, reservation(high_water))?;
        std::fs::rename(&tmp, &self.path)?;
        fresh.path = std::mem::take(&mut self.path);
        *self = fresh;
        sync_parent_dir(&self.path)
    }
}

/// One journaled op: the client sequence number from its `# wal seq=N`
/// annotation (`None` when replaying a plain trace file as a journal)
/// and the op itself.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalEntry {
    /// Wire sequence number the op was admitted under, if annotated.
    pub seq: Option<u64>,
    /// The journaled op.
    pub op: Request,
}

/// A parsed journal: the compaction base — mutating ops already
/// captured by the checkpoint this journal was last truncated against
/// (0 for a never-compacted journal) — plus the tail entries.
pub struct ParsedJournal {
    /// Ops covered by the checkpoint the tail starts after.
    pub base: u64,
    /// The journaled tail ops, in order.
    pub entries: Vec<JournalEntry>,
}

/// Parse journal text (assumed complete — see [`recover`] for the
/// torn-tail file path), including its `# ckpt ops=K` base marker.
/// Trailing zero padding is skipped; a NUL followed by anything else
/// is an error. A trailing `# wal seq=N` with no following op line is
/// ignored: the annotated op was never appended, so it was never
/// executed.
pub fn parse_journal_with_base(text: &str) -> Result<ParsedJournal, TraceError> {
    let trace_err = |line: usize, message: String| TraceError { line, message };
    let mut lines = strip_padding(text)?.lines().enumerate();
    match lines.next() {
        Some((_, header)) if header.trim() == TRACE_VERSION => {}
        Some((_, header)) => {
            return Err(trace_err(
                1,
                format!("bad journal header {header:?}, expected {TRACE_VERSION:?}"),
            ))
        }
        None => return Err(trace_err(0, "empty journal".to_string())),
    }
    let mut base = 0u64;
    let mut entries = Vec::new();
    let mut pending_seq: Option<u64> = None;
    for (i, raw) in lines {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            if let Some(tok) = comment.trim().strip_prefix("wal seq=") {
                pending_seq =
                    Some(tok.trim().parse::<u64>().map_err(|_| {
                        trace_err(i + 1, format!("bad wal seq annotation {line:?}"))
                    })?);
            } else if let Some(tok) = comment.trim().strip_prefix("ckpt ops=") {
                base = tok
                    .trim()
                    .parse::<u64>()
                    .map_err(|_| trace_err(i + 1, format!("bad ckpt base marker {line:?}")))?;
            }
            continue;
        }
        // A complete op line that fails to parse is corruption, not a
        // torn tail — refuse to serve from a journal we cannot replay.
        let op = parse_op(line).map_err(|m| trace_err(i + 1, m))?;
        entries.push(JournalEntry {
            seq: pending_seq.take(),
            op,
        });
    }
    Ok(ParsedJournal { base, entries })
}

/// Parse journal text into its entries, ignoring any compaction base
/// marker. Prefer [`parse_journal_with_base`] when recovering — a
/// compacted journal's entries are only the tail of the history.
pub fn parse_journal(text: &str) -> Result<Vec<JournalEntry>, TraceError> {
    parse_journal_with_base(text).map(|parsed| parsed.entries)
}

/// What [`recover`] rebuilds from a journal (and its checkpoints).
pub struct Recovered {
    /// The engine with the full journaled history applied — restored
    /// from a checkpoint where one covers the journal's base, with the
    /// tail replayed via the batch path.
    pub engine: ServiceEngine,
    /// Dedupe window restocked from the checkpoint (if any) plus the
    /// recovery-computed answer of every seq-annotated tail barrier op
    /// (determinism makes these equal to the answers the crashed server
    /// sent).
    pub dedupe: DedupeWindow,
    /// The recovery-computed answers of the replayed tail, in journal
    /// order.
    pub responses: Vec<Response>,
    /// Ops re-executed during recovery — the journal tail only, which
    /// compaction keeps bounded by the threshold.
    pub replayed: usize,
    /// Where the pre-tail state came from.
    pub source: RecoverySource,
    /// The journal's compaction base (0 for a never-compacted journal).
    pub journal_base: u64,
    /// Mutating ops across the full history (base + tail).
    pub history_ops: u64,
    /// Entry bytes in the journal tail — what the live appends since
    /// the base counted, header and base marker excluded.
    pub tail_bytes: u64,
}

/// Execute `entries` against `engine`, restocking `dedupe` from the
/// seq-annotated barrier answers — the shared tail-replay step of both
/// recovery paths.
fn replay_entries(
    engine: &mut ServiceEngine,
    dedupe: &mut DedupeWindow,
    entries: &[JournalEntry],
) -> Vec<Response> {
    entries
        .iter()
        .map(|entry| {
            let resp = engine.execute_one(&entry.op);
            if let Some(seq) = entry.seq {
                if !entry.op.is_shardable() {
                    dedupe.record(entry.op.session(), seq, op_key(&entry.op), resp.clone());
                }
            }
            resp
        })
        .collect()
}

/// Rebuild engine state from a journal file, healing it on disk first:
/// the file is cut just after the last newline before the first NUL,
/// which drops a torn last line, the zero padding, and any orphan
/// bytes a torn write left past the padding. [`Journal::open_append`]
/// then pads the healed text afresh.
///
/// # Recovery decision tree
///
/// 1. Heal the journal (drop any torn last line) and parse its base.
/// 2. Load the best checkpoint beside it: the current `.ckpt` if its
///    footer verifies, else the rotated `.ckpt.prev`. A checkpoint is
///    usable when it covers the journal base (`ckpt.ops ≥ base`) —
///    the cycle ordering (checkpoint durable *before* the journal is
///    truncated) guarantees this for every crash window, so a torn
///    current checkpoint always leaves a usable previous one.
/// 3. With a usable checkpoint: restore it, skip the `ckpt.ops − base`
///    tail entries it already contains, and replay the rest.
/// 4. With no checkpoint at all and base 0: full-journal replay.
/// 5. A compacted journal (base > 0) with no usable checkpoint means
///    ops exist nowhere on disk — refuse loudly rather than serve a
///    silently rewound history (only reachable by deleting/corrupting
///    both checkpoint files out from under a compacted journal).
///
/// The second argument is ignored; it remains only because the `perf/`
/// benchmark still passes it.
pub fn recover(path: &Path, _shards: usize) -> io::Result<Recovered> {
    recover_journal(path)
}

/// The body of [`recover`].
fn recover_journal(path: &Path) -> io::Result<Recovered> {
    let mut file = OpenOptions::new().read(true).write(true).open(path)?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    let keep = bytes[..text_end(&bytes)]
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |i| i + 1);
    if keep < bytes.len() {
        file.set_len(keep as u64)?;
        file.sync_data()?;
        bytes.truncate(keep);
    }
    drop(file);
    let text = String::from_utf8(bytes)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "journal is not UTF-8"))?;
    let ParsedJournal { base, entries } = parse_journal_with_base(&text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let tail_bytes = entries
        .iter()
        .map(|e| match e.seq {
            Some(seq) => entry_text(seq, &e.op).len() as u64,
            None => format_op(&e.op).len() as u64 + 1,
        })
        .sum();
    if let Some((ckpt, source)) = crate::checkpoint::load_latest(path) {
        if ckpt.ops >= base {
            let skip = ((ckpt.ops - base) as usize).min(entries.len());
            let tail = &entries[skip..];
            let mut engine = ckpt.engine;
            let mut dedupe = ckpt.dedupe;
            let responses = replay_entries(&mut engine, &mut dedupe, tail);
            return Ok(Recovered {
                engine,
                dedupe,
                responses,
                replayed: tail.len(),
                source,
                journal_base: base,
                history_ops: base + entries.len() as u64,
                tail_bytes,
            });
        }
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "checkpoint at {} ops cannot cover the journal base {base}: ops in between \
                 exist nowhere on disk",
                ckpt.ops
            ),
        ));
    }
    if base > 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("journal was compacted at {base} ops but no usable checkpoint loads"),
        ));
    }
    let mut engine = ServiceEngine::new();
    let mut dedupe = DedupeWindow::new();
    let responses = replay_entries(&mut engine, &mut dedupe, &entries);
    Ok(Recovered {
        engine,
        dedupe,
        responses,
        replayed: entries.len(),
        source: RecoverySource::FullJournal,
        journal_base: 0,
        history_ops: entries.len() as u64,
        tail_bytes,
    })
}

/// When a journaled front-end runs a checkpoint + truncate cycle.
/// Disabled by default; thresholds measure the journal *tail* (ops or
/// bytes appended since the last checkpoint), so recovery replay work
/// stays bounded by whichever threshold is set.
#[derive(Clone, Copy, Debug, Default)]
pub struct CompactionPolicy {
    /// Compact once this many mutating ops accumulate past the last
    /// checkpoint (`--compact-every`).
    pub every: Option<u64>,
    /// Compact once this many bytes accumulate past the last
    /// checkpoint (`--compact-bytes`).
    pub bytes: Option<u64>,
}

impl CompactionPolicy {
    /// True when the current tail crosses a threshold.
    pub fn due(&self, tail_ops: u64, tail_bytes: u64) -> bool {
        self.every.is_some_and(|n| tail_ops >= n) || self.bytes.is_some_and(|b| tail_bytes >= b)
    }
}

/// What [`JournaledEngine::open`] reports about a recovery.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryReport {
    /// Journal-tail ops re-executed.
    pub replayed: usize,
    /// Where the pre-tail state came from.
    pub source: RecoverySource,
    /// Mutating ops across the full history (checkpoint + tail).
    pub history_ops: u64,
}

/// The op state machine, implemented once: dedupe lookup → journal
/// append + `sync_data` → execute → dedupe record → compact if due,
/// supervised by the failure policy in [`JournaledEngine::submit`].
/// Every front-end drives this type — the socket dispatcher, the stdin
/// line transport, `scored compact`, and the e18/e19 experiments — so
/// the durability and failure arguments are made in one place. Without a journal
/// ([`JournaledEngine::open`] with `journal: None`) the same steps run
/// with nothing appended and nothing compacted.
pub struct JournaledEngine {
    engine: ServiceEngine,
    /// `None` runs journal-less: no appends, no compaction, and a
    /// rebuild starts from a fresh engine.
    journal: Option<Journal>,
    dedupe: DedupeWindow,
    policy: CompactionPolicy,
    /// Mutating ops journaled over the full history (checkpoint +
    /// tail) — what a checkpoint written now would cover.
    ops_applied: u64,
    /// Ops covered by the last checkpoint (= the journal's base).
    base: u64,
    /// Entry bytes appended since the last checkpoint (header, base
    /// marker and padding excluded).
    tail_bytes: u64,
    /// Ops this process appended to the journal.
    journaled: u64,
    /// Resent barriers this process answered from the dedupe window.
    deduped: u64,
    /// Probes and queries that panicked and answered `Retryable`.
    worker_panics: u64,
    /// Barrier panics that rebuilt the engine from the journal.
    rebuilds: u64,
    /// Latched by a failed rebuild: the engine no longer matches its
    /// journal, so nothing more appends or executes.
    halted: bool,
    /// Completed compaction cycles this process ran (keys the
    /// checkpoint faults).
    checkpoints: u64,
    /// Journal entries removed by those cycles.
    truncated_ops: u64,
    #[cfg(feature = "fault-inject")]
    fault: Arc<FaultPlan>,
    /// `submit` calls so far: the op index the fault plan is keyed by.
    #[cfg(feature = "fault-inject")]
    submitted: u64,
}

impl JournaledEngine {
    fn new(journal: Option<Journal>, policy: CompactionPolicy) -> JournaledEngine {
        JournaledEngine {
            engine: ServiceEngine::new(),
            journal,
            dedupe: DedupeWindow::new(),
            policy,
            ops_applied: 0,
            base: 0,
            tail_bytes: 0,
            journaled: 0,
            deduped: 0,
            worker_panics: 0,
            rebuilds: 0,
            halted: false,
            checkpoints: 0,
            truncated_ops: 0,
            #[cfg(feature = "fault-inject")]
            fault: Arc::new(FaultPlan::none()),
            #[cfg(feature = "fault-inject")]
            submitted: 0,
        }
    }

    /// Open a pipeline: a fresh journal at `journal`, a checkpoint-aware
    /// recovery of it when `recover` is set (the report says what was
    /// replayed — the journal tail only, when a checkpoint loads), or —
    /// with no path — a journal-less pipeline that takes the same
    /// `submit` path. A recovered journal keeps being appended to.
    pub fn open(
        journal: Option<&Path>,
        recover: bool,
        policy: CompactionPolicy,
    ) -> io::Result<(JournaledEngine, Option<RecoveryReport>)> {
        match (journal, recover) {
            (Some(path), true) => {
                let rec = recover_journal(path)?;
                let report = RecoveryReport {
                    replayed: rec.replayed,
                    source: rec.source,
                    history_ops: rec.history_ops,
                };
                let mut engine = JournaledEngine::new(Some(Journal::open_append(path)?), policy);
                engine.adopt(rec);
                Ok((engine, Some(report)))
            }
            (Some(path), false) => Ok((
                JournaledEngine::new(Some(Journal::create(path)?), policy),
                None,
            )),
            (None, true) => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "recover requires a journal path",
            )),
            (None, false) => Ok((JournaledEngine::new(None, policy), None)),
        }
    }

    /// Fresh engine over a fresh journal, compaction disabled. The
    /// second argument is ignored; it remains only because the `perf/`
    /// benchmark still passes it.
    #[doc(hidden)]
    pub fn create(path: &Path, _shards: usize) -> io::Result<JournaledEngine> {
        JournaledEngine::open(Some(path), false, CompactionPolicy::default()).map(|(je, _)| je)
    }

    /// Install a recovery's state and re-derive the compaction counters
    /// from what it saw — the authoritative history after any
    /// checkpoint + truncation. The tail's entry bytes prime the byte
    /// threshold, so neither a restart nor a rebuild moves byte-based
    /// compaction off the op an uninterrupted run would compact at.
    fn adopt(&mut self, rec: Recovered) {
        self.engine = rec.engine;
        self.dedupe = rec.dedupe;
        self.ops_applied = rec.history_ops;
        self.base = rec.journal_base;
        self.tail_bytes = rec.tail_bytes;
    }

    /// Replace the engine and dedupe window — never trusted again after
    /// a panic mid-barrier — with ones rebuilt from the journal, which
    /// recorded the interrupted op before it ran. Journal-less, a fresh
    /// engine is still sound: no replay promise was made, and a fresh
    /// engine beats a corrupt one. An error means the journal no longer
    /// describes a recoverable state; the pipeline must stop serving.
    fn rebuild(&mut self) -> io::Result<()> {
        match &mut self.journal {
            Some(journal) => {
                let rec = recover_journal(&journal.path)?;
                // Recovery healed the file under this handle (padding
                // cut); pad it afresh before the next append.
                *journal = Journal::open_append(&journal.path)?;
                self.adopt(rec);
            }
            None => {
                self.engine = ServiceEngine::new();
                self.dedupe = DedupeWindow::new();
            }
        }
        Ok(())
    }

    /// Run one op through the pipeline under the failure policy (see
    /// the module docs): a panic answers `Ok(Retryable)`, never an
    /// unwind. An `Err` is a failed journal append: nothing executed.
    pub fn submit(&mut self, seq: u64, op: &Request) -> io::Result<Response> {
        let reason = if self.halted {
            "the server is shutting down; resend later"
        } else {
            match catch_unwind(AssertUnwindSafe(|| self.run_op(seq, op))) {
                Ok(answer) => return answer,
                // A probe only sets bits a resend sets again and a query
                // writes nothing, so the state still matches the journal.
                Err(_) if op.is_shardable() => {
                    self.worker_panics += 1;
                    "the op panicked; resend the op"
                }
                // A panic mid-transition leaves the engine untrusted:
                // rebuild it from the journal, which recorded this very
                // op before it ran, so the resend hits the dedupe window.
                Err(_) => {
                    self.rebuilds += 1;
                    match self.rebuild() {
                        Ok(()) => "barrier interrupted; state rebuilt from the journal",
                        Err(err) => {
                            eprintln!(
                                "rebuild from the journal failed ({err}); shutting down — \
                                 restart with --recover"
                            );
                            self.halted = true;
                            "barrier interrupted and the rebuild failed; shutting down"
                        }
                    }
                }
            }
        };
        Ok(Response::Retryable {
            reason: reason.to_string(),
        })
    }

    /// The unsupervised body of [`JournaledEngine::submit`].
    ///
    /// Barriers are deduped before journaling: a resend of an already-
    /// executed barrier must answer the recorded response, not re-apply
    /// the world transition. Probes and queries skip the window — probes
    /// are idempotent (they only set probed-set bits) and queries are
    /// pure reads.
    /// A mutating op then hits the fsynced journal *before* it
    /// executes: crash after the append and recovery applies it; crash
    /// before and the client's resend runs it fresh — either way
    /// exactly once. The engine is quiescent between ops, so every
    /// post-op point is a safe checkpoint point.
    fn run_op(&mut self, seq: u64, op: &Request) -> io::Result<Response> {
        #[cfg(feature = "fault-inject")]
        let index = {
            let index = self.submitted;
            self.submitted += 1;
            self.fault.kill_at(index);
            index
        };
        let barrier_key = (!op.is_shardable()).then(|| op_key(op));
        if let Some(key) = barrier_key {
            if let Some(resp) = self.dedupe.lookup(op.session(), seq, key) {
                self.deduped += 1;
                return Ok(resp.clone());
            }
        }
        if op.is_mutating() {
            if let Some(journal) = &mut self.journal {
                self.tail_bytes += journal.append(seq, op)? as u64;
                self.ops_applied += 1;
                self.journaled += 1;
            }
        }
        #[cfg(feature = "fault-inject")]
        if op.is_shardable() {
            if self.fault.worker_panic_at(index) {
                panic!("fault-inject: panic before a shardable op executes");
            }
        } else if self.fault.barrier_panic_at(index) {
            panic!("fault-inject: barrier panic");
        }
        let resp = self.engine.execute_one(op);
        if let Some(key) = barrier_key {
            self.dedupe.record(op.session(), seq, key, resp.clone());
        }
        if self.journal.is_some() && self.policy.due(self.tail_ops(), self.tail_bytes) {
            // A failed cycle leaves the journal intact — log and keep
            // serving; durability is unaffected.
            if let Err(err) = self.compact() {
                eprintln!("compaction failed (serving continues): {err}");
            }
        }
        Ok(resp)
    }

    /// Run one checkpoint + truncate cycle now, regardless of policy:
    /// write + fsync the checkpoint at the current op count (rotating
    /// the previous one), then atomically truncate the journal to an
    /// empty tail based at the same count and adopt the new append
    /// handle. Ordering is the crash-safety argument — the checkpoint
    /// is durable before the tail it replaces is dropped, so every kill
    /// window leaves a recoverable (checkpoint, tail) pair.
    pub fn compact(&mut self) -> io::Result<()> {
        let Some(journal) = &mut self.journal else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "no journal to compact",
            ));
        };
        #[cfg(feature = "fault-inject")]
        if self.fault.torn_checkpoint_at(self.checkpoints) {
            checkpoint::save_torn_checkpoint(
                &journal.path,
                &self.engine,
                &self.dedupe,
                self.ops_applied,
            )?;
            eprintln!(
                "fault-inject: torn checkpoint at cycle {}; aborting before truncation",
                self.checkpoints
            );
            std::process::abort();
        }
        checkpoint::save_checkpoint(&journal.path, &self.engine, &self.dedupe, self.ops_applied)?;
        journal.truncate_to_base(self.ops_applied)?;
        self.truncated_ops += self.ops_applied - self.base;
        self.base = self.ops_applied;
        self.tail_bytes = 0;
        self.checkpoints += 1;
        #[cfg(feature = "fault-inject")]
        self.fault.kill_checkpoint_at(self.checkpoints - 1);
        Ok(())
    }

    /// The engine behind the journal.
    pub fn engine(&self) -> &ServiceEngine {
        &self.engine
    }

    /// Ops this process appended to the journal.
    pub fn journaled(&self) -> u64 {
        self.journaled
    }

    /// Resent barriers this process answered from the dedupe window.
    pub fn deduped(&self) -> u64 {
        self.deduped
    }

    /// Probes and queries that panicked and answered `Retryable`.
    pub fn worker_panics(&self) -> u64 {
        self.worker_panics
    }

    /// Barrier panics that rebuilt the engine from the journal.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// True once a rebuild failed: every later `submit` answers
    /// `Retryable` without appending or executing, and the front-end
    /// should stop serving.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Completed compaction cycles this process ran.
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints
    }

    /// Journal entries removed by this process's compaction cycles.
    pub fn truncated_ops(&self) -> u64 {
        self.truncated_ops
    }

    /// Mutating ops currently in the journal tail — what a crash right
    /// now would replay.
    pub fn tail_ops(&self) -> u64 {
        self.ops_applied - self.base
    }

    /// Mutating ops applied over the full history.
    pub fn history_ops(&self) -> u64 {
        self.ops_applied
    }

    /// Install the fault schedule `submit` and `compact` fire from.
    #[cfg(feature = "fault-inject")]
    pub(crate) fn set_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        self.fault = plan;
    }

    /// The op index the next `submit` call will carry.
    #[cfg(feature = "fault-inject")]
    pub(crate) fn submitted(&self) -> u64 {
        self.submitted
    }

    /// Fault-injection hook: journal an op *without* executing it, the
    /// on-disk state a crash between append and execute leaves behind.
    #[cfg(feature = "fault-inject")]
    pub fn journal_without_execute(&mut self, seq: u64, op: &Request) -> io::Result<()> {
        match &mut self.journal {
            Some(journal) => journal.append(seq, op).map(|_| ()),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::combined_digest;
    use crate::workload::{Trace, TraceSpec};

    /// A fresh journaled pipeline at `path`.
    fn create(path: &Path, policy: CompactionPolicy) -> io::Result<JournaledEngine> {
        JournaledEngine::open(Some(path), false, policy).map(|(je, _)| je)
    }

    /// Recover the pipeline at `path`: the engine and the ops replayed.
    fn reopen(path: &Path) -> io::Result<(JournaledEngine, usize)> {
        let (je, report) = JournaledEngine::open(Some(path), true, CompactionPolicy::default())?;
        Ok((je, report.map_or(0, |r| r.replayed)))
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("byzscore_journal_{tag}_{}", std::process::id()));
        p
    }

    #[test]
    fn dedupe_window_hits_misses_and_evicts() {
        let mut w = DedupeWindow::new();
        let resp = Response::Epoch {
            session: 0,
            epoch: 1,
            max_err: 0,
        };
        w.record(Some(0), 7, 11, resp.clone());
        assert_eq!(w.lookup(Some(0), 7, 11), Some(&resp));
        assert_eq!(w.lookup(Some(0), 7, 12), None, "key mismatch is a miss");
        assert_eq!(w.lookup(Some(0), 8, 11), None, "seq mismatch is a miss");
        assert_eq!(w.lookup(Some(1), 7, 11), None, "partition mismatch");
        // FIFO eviction per partition; other partitions untouched.
        for seq in 100..100 + DEDUPE_WINDOW as u64 {
            w.record(Some(0), seq, seq, resp.clone());
        }
        assert_eq!(w.lookup(Some(0), 7, 11), None, "oldest entry evicted");
        assert_eq!(w.len(), DEDUPE_WINDOW);
        w.record(None, 7, 11, resp.clone());
        assert_eq!(w.lookup(None, 7, 11), Some(&resp));
    }

    #[test]
    fn op_key_separates_ops_with_equal_length_lines() {
        let a = parse_op("epoch 1").unwrap();
        let b = parse_op("epoch 2").unwrap();
        assert_ne!(op_key(&a), op_key(&b));
        assert_eq!(op_key(&a), op_key(&a.clone()));
    }

    #[test]
    fn journal_parses_with_and_without_seq_annotations() {
        let text = format!(
            "{TRACE_VERSION}\n# wal seq=9\nepoch 0\n# plain comment\nchurn 0 1 1\n\n# wal seq=12\n"
        );
        let entries = parse_journal(&text).expect("parse");
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].seq, Some(9));
        assert_eq!(entries[1].seq, None, "plain comment is not an annotation");
        assert!(parse_journal("byzscore-trace/v2\n").is_err());
        assert!(
            parse_journal(&format!("{TRACE_VERSION}\n# wal seq=x\nepoch 0\n")).is_err(),
            "bad annotation is corruption"
        );
        assert!(
            parse_journal(&format!("{TRACE_VERSION}\nepoch zero\n")).is_err(),
            "a complete unparsable op line is corruption"
        );
        let padded = format!("{text}{}", "\0".repeat(64));
        assert_eq!(parse_journal(&padded), Ok(entries), "text + NUL* parses");
        assert!(
            parse_journal(&format!("{text}\0\0close 0\n\0\0")).is_err(),
            "an op line past the padding is corruption"
        );
    }

    /// Kill the "server" (drop the journaled engine) at every op index
    /// of a generated trace; recovery + the remaining ops must digest
    /// bit-identically to the uninterrupted run. This is the in-process
    /// statement of the tentpole's crash-recovery determinism claim.
    #[test]
    fn recovery_is_digest_identical_at_every_kill_point() {
        let trace = Trace::generate(&TraceSpec::small(23));
        let expected = combined_digest(&trace.replay());
        let path = temp_path("killpoints");
        // Exhaustive at the barrier indices + a probe stride; the e18
        // experiment covers the committed trace with a seeded schedule.
        let kill_points: Vec<usize> = (0..trace.ops.len())
            .filter(|&k| !trace.ops[k].is_shardable() || k % 5 == 0)
            .collect();
        for k in kill_points {
            let mut responses = Vec::new();
            {
                let mut je = create(&path, CompactionPolicy::default()).expect("create journal");
                for (i, op) in trace.ops[..k].iter().enumerate() {
                    responses.push(je.submit(i as u64, op).expect("submit"));
                }
                // Crash: je dropped without any shutdown handshake.
            }
            let (mut je, replayed) = reopen(&path).expect("recover from journal");
            assert_eq!(
                replayed,
                trace.ops[..k].iter().filter(|o| o.is_mutating()).count(),
                "journal holds exactly the mutating prefix at kill point {k}"
            );
            for (i, op) in trace.ops.iter().enumerate().skip(k) {
                responses.push(je.submit(i as u64, op).expect("submit after recovery"));
            }
            assert_eq!(
                combined_digest(&responses),
                expected,
                "kill at op {k} diverged"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Where the journal file's text ends, checking padding follows.
    fn padded_text_end(path: &Path) -> u64 {
        let bytes = std::fs::read(path).expect("read journal");
        let end = text_end(&bytes);
        assert!(end < bytes.len(), "journal carries padding");
        end as u64
    }

    /// Overwrite the file at `offset` — the image a write that landed
    /// there before a crash leaves behind.
    fn write_at(path: &Path, offset: u64, bytes: &[u8]) {
        let mut f = OpenOptions::new().write(true).open(path).unwrap();
        f.seek(SeekFrom::Start(offset)).unwrap();
        f.write_all(bytes).unwrap();
    }

    fn open_and_epoch(path: &Path) -> JournaledEngine {
        let mut je = create(path, CompactionPolicy::default()).expect("create");
        je.submit(0, &parse_op("open 8 16 2 2 5 naive 2 0 0 7").unwrap())
            .expect("open");
        je.submit(1, &parse_op("epoch 0").unwrap()).expect("epoch");
        je
    }

    /// A torn tail — partial bytes after the last newline, written at
    /// the text end where the crashed append landed — is dropped on
    /// recovery and the file keeps accepting appends.
    #[test]
    fn torn_tail_is_truncated_and_appends_continue() {
        let path = temp_path("torn");
        drop(open_and_epoch(&path));
        // Simulate a crash mid-append: partial annotation, no newline.
        write_at(&path, padded_text_end(&path), b"# wal seq=2\nchurn 0 1");
        let (mut je, replayed) = reopen(&path).expect("recover");
        assert_eq!(replayed, 2, "the torn entry was never executed");
        let resp = je.submit(2, &parse_op("close 0").unwrap()).expect("close");
        assert!(matches!(resp, Response::Closed { .. }));
        // The resumed file is still a valid journal end to end.
        let (_, replayed) = reopen(&path).expect("re-recover");
        assert_eq!(replayed, 3);
        let _ = std::fs::remove_file(&path);
    }

    /// A torn write can persist a later sector of an entry without the
    /// first: complete op lines sitting past the padding. They were
    /// never acknowledged, so recovery discards them, appends continue,
    /// and a second recovery returns exactly the submitted history.
    #[test]
    fn orphan_bytes_past_the_padding_are_discarded() {
        let path = temp_path("orphan");
        drop(open_and_epoch(&path));
        write_at(&path, padded_text_end(&path) + 7, b"probe 0 1 2,3\n");
        let (mut je, replayed) = reopen(&path).expect("recover");
        assert_eq!(replayed, 2, "the orphan line never counts");
        let close = parse_op("close 0").unwrap();
        je.submit(2, &close).expect("close");
        drop(je);
        let rec = recover_journal(&path).expect("re-recover");
        let text = std::fs::read_to_string(&path).expect("read journal");
        let history: Vec<Request> = parse_journal(&text)
            .expect("healed journal parses")
            .into_iter()
            .map(|e| e.op)
            .collect();
        assert_eq!(rec.replayed, 3);
        assert_eq!(
            history,
            vec![
                parse_op("open 8 16 2 2 5 naive 2 0 0 7").unwrap(),
                parse_op("epoch 0").unwrap(),
                close,
            ]
        );
        let _ = std::fs::remove_file(&path);
    }

    /// The mechanism, checked without timing: appends that fit the
    /// reservation never change the file's length (so `sync_data` has
    /// no size to commit), crossing it doubles the text end, and a
    /// compacted tail is padded to the high-water of the tail it
    /// replaced, rounded up to a page.
    #[test]
    fn appends_overwrite_padding_and_tails_are_sized_by_high_water() {
        let path = temp_path("fence");
        let mut journal = Journal::create(&path).expect("create");
        let len = || std::fs::metadata(&path).expect("stat").len();
        let header = TRACE_VERSION.len() as u64 + 1;
        assert_eq!((journal.offset, journal.reserved), (header, PAGE));
        assert_eq!(len(), PAGE);
        let op = parse_op("probe 0 1 2,3").unwrap();
        let mut seq = 0;
        while journal.offset + entry_text(seq, &op).len() as u64 <= PAGE {
            journal.append(seq, &op).expect("append");
            assert_eq!(len(), PAGE, "append {seq} grew the file");
            seq += 1;
        }
        journal.append(seq, &op).expect("crossing append");
        let high_water = journal.offset;
        assert!(high_water > PAGE);
        assert_eq!(
            journal.reserved,
            2 * high_water,
            "growth doubles the text end"
        );
        assert_eq!(len(), 2 * high_water);

        journal.truncate_to_base(seq + 1).expect("truncate");
        let text = format!("{TRACE_VERSION}\n# ckpt ops={}\n", seq + 1);
        assert_eq!(journal.offset, text.len() as u64);
        assert_eq!(
            journal.reserved,
            2 * PAGE,
            "high-water {high_water} rounds up"
        );
        assert_eq!(len(), 2 * PAGE);
        journal.append(0, &op).expect("append to the fresh tail");
        assert_eq!(len(), 2 * PAGE);
        let _ = std::fs::remove_file(&path);
    }

    /// Byte-threshold compaction counts entry bytes only, on every
    /// path: a server recovered at any op compacts at exactly the ops
    /// an uninterrupted run compacts at.
    #[test]
    fn byte_threshold_compaction_survives_recovery() {
        let trace = Trace::generate(&TraceSpec::small(47));
        let policy = CompactionPolicy {
            every: None,
            bytes: Some(200),
        };
        let path = temp_path("bytes");
        let scrub = || {
            for file in [
                path.clone(),
                checkpoint::checkpoint_path(&path),
                checkpoint::previous_checkpoint_path(&path),
            ] {
                let _ = std::fs::remove_file(file);
            }
        };
        // The tail length after every op, crashing and recovering just
        // before op `kill`.
        let tails = |kill: usize| -> Vec<u64> {
            scrub();
            let mut je = create(&path, policy).expect("create");
            let mut tails = Vec::with_capacity(trace.ops.len());
            for (seq, op) in trace.ops.iter().enumerate() {
                if seq == kill {
                    drop(je);
                    je = JournaledEngine::open(Some(&path), true, policy)
                        .expect("recover")
                        .0;
                }
                je.submit(seq as u64, op).expect("submit");
                tails.push(je.tail_ops());
            }
            tails
        };
        let expected = tails(usize::MAX);
        let cycles = expected.windows(2).filter(|w| w[1] < w[0]).count();
        assert!(cycles >= 2, "the trace crosses several cycles");
        for kill in (1..trace.ops.len()).step_by(5) {
            assert_eq!(
                tails(kill),
                expected,
                "compaction moved after a kill at op {kill}"
            );
        }
        scrub();
    }

    /// A resent barrier answers the recorded response without
    /// re-executing — including across a crash/recover boundary — and
    /// a different op under a reused seq executes normally.
    #[test]
    fn dedupe_survives_recovery_and_checks_op_identity() {
        let path = temp_path("dedupe");
        let ops = [
            parse_op("open 8 16 2 2 5 naive 2 0 1000 7").unwrap(),
            parse_op("churn 0 1 1").unwrap(),
        ];
        let mut je = create(&path, CompactionPolicy::default()).expect("create");
        let first = je.submit(0, &ops[0]).expect("open");
        let churned = je.submit(1, &ops[1]).expect("churn");
        // Resend before the crash: recorded answer, no second churn.
        assert_eq!(je.submit(1, &ops[1]).expect("resend"), churned);
        drop(je);
        let (mut je, _) = reopen(&path).expect("recover");
        assert_eq!(
            je.submit(1, &ops[1]).expect("resend after recovery"),
            churned,
            "dedupe window survives the crash"
        );
        assert_eq!(je.submit(0, &ops[0]).expect("resent open"), first);
        // Same seq, different op text: executes (a second churn).
        let other = je
            .submit(1, &parse_op("epoch 0").unwrap())
            .expect("reused seq, new op");
        assert!(matches!(other, Response::Epoch { .. }));
        let _ = std::fs::remove_file(&path);
    }

    /// A journal can hold ops the engine cannot score — an `open` whose
    /// corrupt count covers every player, a `churn` that leaves no more
    /// players than the corrupt count — because ops are journaled before
    /// they execute. Recovery replays them as typed rejections, and the
    /// recovered engine keeps serving.
    #[test]
    fn journal_holding_a_poisoned_open_recovers() {
        let path = temp_path("poison");
        let poisoned_open = "open 8 16 1 2 1 naive 4 8 0 1";
        std::fs::write(
            &path,
            format!(
                "{TRACE_VERSION}\n# wal seq=0\n{poisoned_open}\n\
                 # wal seq=1\nopen 8 16 1 2 1 naive 4 2 0 1\n# wal seq=2\nchurn 0 7 0\n"
            ),
        )
        .expect("write journal");
        let (mut je, replayed) = reopen(&path).expect("recover");
        assert_eq!(replayed, 3);
        assert_eq!(
            je.engine().open_sessions(),
            1,
            "the poisoned open took no id"
        );
        let resent = je
            .submit(0, &parse_op(poisoned_open).unwrap())
            .expect("resend");
        assert!(matches!(resent, Response::Rejected(_)), "{resent:?}");
        let epoch = je.submit(3, &parse_op("epoch 0").unwrap()).expect("epoch");
        assert!(
            matches!(epoch, Response::Epoch { epoch: 1, .. }),
            "{epoch:?}"
        );
        let (_, replayed) = reopen(&path).expect("re-recover");
        assert_eq!(replayed, 4);
        let _ = std::fs::remove_file(&path);
    }

    /// The op shapes the supervision tests address by index: a probe at
    /// 1 and 4, a query at 2, barriers at 0, 3, 5 and 6.
    #[cfg(feature = "fault-inject")]
    const SUPERVISED: [&str; 7] = [
        "open 24 48 3 3 11 naive 4 1 2000 13",
        "probe 0 3 1,2,9",
        "query 0 1,3 -",
        "churn 0 2 2",
        "probe 0 1 7",
        "epoch 0",
        "close 0",
    ];

    /// Drive [`SUPERVISED`] through a journaled pipeline carrying `plan`,
    /// resending op `faulted` once after its `Retryable`: every final
    /// answer must be the plain engine's.
    #[cfg(feature = "fault-inject")]
    fn supervised_run(tag: &str, plan: &str, faulted: usize) -> JournaledEngine {
        let ops: Vec<Request> = SUPERVISED.iter().map(|l| parse_op(l).unwrap()).collect();
        let expected = ServiceEngine::new().execute(&ops);
        let path = temp_path(tag);
        let mut je = create(&path, CompactionPolicy::default()).expect("create");
        je.set_fault_plan(Arc::new(FaultPlan::parse(plan).expect("plan parses")));
        for (seq, op) in ops.iter().enumerate() {
            let mut resp = je.submit(seq as u64, op).expect("a panic is not an Err");
            if seq == faulted {
                assert!(
                    matches!(resp, Response::Retryable { .. }),
                    "op {seq}: {resp:?}"
                );
                resp = je.submit(seq as u64, op).expect("resend");
            }
            assert_eq!(resp, expected[seq], "op {seq}");
        }
        let _ = std::fs::remove_file(&path);
        je
    }

    /// A probe that panics inside `submit` answers `Ok(Retryable)`, not
    /// an unwind, and its resend executes as if nothing happened.
    #[cfg(feature = "fault-inject")]
    #[test]
    fn a_panicking_probe_answers_retryable_and_its_resend_executes() {
        let je = supervised_run("panic_worker", "panic-worker@1", 1);
        assert_eq!((je.worker_panics(), je.rebuilds(), je.deduped()), (1, 0, 0));
        assert!(!je.halted());
    }

    /// A barrier that panics after its append rebuilds the engine from
    /// the journal; the resend answers from the dedupe window, so the
    /// churn applies exactly once.
    #[cfg(feature = "fault-inject")]
    #[test]
    fn a_panicking_barrier_rebuilds_and_its_resend_is_deduped() {
        let je = supervised_run("panic_barrier", "panic-barrier@3", 3);
        assert_eq!((je.worker_panics(), je.rebuilds(), je.deduped()), (0, 1, 1));
        assert!(!je.halted());
    }

    /// A rebuild that cannot recover — the journal was compacted and
    /// both checkpoint generations are gone — halts the pipeline: every
    /// later `submit` answers `Retryable` and leaves the journal as it
    /// was.
    #[cfg(feature = "fault-inject")]
    #[test]
    fn a_failed_rebuild_halts_without_appending_or_executing() {
        let path = temp_path("halt");
        let policy = CompactionPolicy {
            every: Some(1),
            bytes: None,
        };
        let mut je = create(&path, policy).expect("create");
        je.set_fault_plan(Arc::new(FaultPlan::parse("panic-barrier@3").unwrap()));
        for (seq, line) in SUPERVISED[..3].iter().enumerate() {
            je.submit(seq as u64, &parse_op(line).unwrap())
                .expect("submit");
        }
        std::fs::remove_file(checkpoint::checkpoint_path(&path)).expect("a checkpoint exists");
        let _ = std::fs::remove_file(checkpoint::previous_checkpoint_path(&path));
        let churn = parse_op(SUPERVISED[3]).unwrap();
        let resp = je.submit(3, &churn).expect("a panic is not an Err");
        assert!(matches!(resp, Response::Retryable { .. }), "{resp:?}");
        assert!(je.halted());
        let journal = std::fs::read(&path).expect("read journal");
        for (seq, line) in SUPERVISED.iter().enumerate().skip(3) {
            let resp = je
                .submit(seq as u64, &parse_op(line).unwrap())
                .expect("submit");
            assert!(matches!(resp, Response::Retryable { .. }), "{resp:?}");
        }
        assert_eq!(std::fs::read(&path).expect("read journal"), journal);
        assert_eq!(
            (je.rebuilds(), je.journaled()),
            (1, 3),
            "open, probe, churn"
        );
        let _ = std::fs::remove_file(&path);
    }

    /// A bare file name syncs the current directory instead of failing
    /// to open the empty path its `parent()` returns.
    #[test]
    fn bare_file_names_sync_the_current_directory() {
        assert_eq!(Path::new("wal2.journal").parent(), Some(Path::new("")));
        assert_eq!(parent_dir(Path::new("wal2.journal")), Path::new("."));
        assert_eq!(parent_dir(Path::new("dir/wal2.journal")), Path::new("dir"));
        assert_eq!(
            parent_dir(Path::new("/tmp/wal2.journal")),
            Path::new("/tmp")
        );
        sync_parent_dir(Path::new("wal2.journal")).expect("the current directory syncs");
        assert!(sync_parent_dir(Path::new("no-such-dir/wal2.journal")).is_err());
    }

    /// The journal is a valid `byzscore-trace/v1` file: `Trace::from_text`
    /// parses it directly.
    #[test]
    fn journal_is_a_replayable_trace_file() {
        let path = temp_path("astrace");
        let trace = Trace::generate(&TraceSpec::small(31));
        let mut je = create(&path, CompactionPolicy::default()).expect("create");
        for (i, op) in trace.ops.iter().enumerate() {
            je.submit(i as u64, op).expect("submit");
        }
        drop(je);
        let text = std::fs::read_to_string(&path).expect("read journal");
        let parsed = Trace::from_text(&text).expect("journal parses as a trace");
        let mutating: Vec<Request> = trace
            .ops
            .iter()
            .filter(|o| o.is_mutating())
            .cloned()
            .collect();
        assert_eq!(parsed.ops, mutating);
        let _ = std::fs::remove_file(&path);
    }
}
