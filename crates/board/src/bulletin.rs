//! Authenticated-slot bulletin board with scope lifecycle.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};

use byzscore_bitset::BitVec;
use parking_lot::Mutex;

const SHARD_COUNT: usize = 64;

/// Claims about one object in one scope: `(author, claimed bit)` pairs.
type ClaimSlot = Vec<(u32, bool)>;

/// A public bulletin board with authenticated single-writer slots.
///
/// The paper's model: "Players have access to a public bulletin board…
/// A dishonest player cannot modify the data written by honest players."
/// We realize this with *slots*: a vector slot is keyed by
/// `(scope, author)`, a claim slot by `(scope, object, author)`. The runtime
/// passes the author id on behalf of the executing player, so impersonation
/// is impossible by construction, and one-slot-per-author means a Byzantine
/// player can lie but cannot vote twice in any tally.
///
/// Writes from concurrently executing players land in sharded hash maps;
/// reads return snapshots sorted by author id so every consumer is
/// deterministic regardless of scheduling.
///
/// # Scope lifecycle
///
/// `scope` values identify a protocol step instance (e.g. one `ZeroRadius`
/// recursion node in one diameter iteration). Producers open scopes with
/// [`Board::scope`], which *registers* the scope's path; a finished step's
/// posts are then released with [`ScopeHandle::retire`] or — for whole
/// subtrees, e.g. one robust-mode repetition — [`Board::retire_prefix`].
/// Without retirement a long run accumulates every phase's posts forever;
/// with it, live slots track the *working set* of the current step, and
/// [`BoardStats`] reports the peak, which is the board's real memory
/// high-water mark. (Raw `scope_id` posting still works and is still
/// audit-readable; unregistered scopes simply cannot be retired by prefix.)
pub struct Board {
    vectors: Vec<Mutex<HashMap<(u64, u32), BitVec>>>,
    claims: Vec<Mutex<HashMap<(u64, u32), ClaimSlot>>>,
    vector_posts: AtomicU64,
    claim_posts: AtomicU64,
    live_vector_slots: AtomicU64,
    live_claim_slots: AtomicU64,
    peak_vector_slots: AtomicU64,
    peak_claim_slots: AtomicU64,
    retired_scopes: AtomicU64,
    /// Registered scopes: id → creation path (for prefix retirement).
    registry: Mutex<HashMap<u64, Vec<u64>>>,
}

/// Counters describing board traffic and memory (communication-cost
/// reporting, §8's open question about communication complexity, and the
/// ROADMAP memory-scaling item).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BoardStats {
    /// Total vector posts accepted (including slot overwrites).
    pub vector_posts: u64,
    /// Total claim posts accepted.
    pub claim_posts: u64,
    /// Vector slots currently occupied (posts minus retired/overwritten).
    pub live_vector_slots: u64,
    /// Claim slots currently occupied.
    pub live_claim_slots: u64,
    /// High-water mark of simultaneously occupied vector slots.
    pub peak_vector_slots: u64,
    /// High-water mark of simultaneously occupied claim slots.
    pub peak_claim_slots: u64,
    /// Number of scopes retired over the board's lifetime.
    pub retired_scopes: u64,
}

impl BoardStats {
    /// Total currently occupied slots of either kind — the board's live
    /// working set.
    pub fn live_slots(&self) -> u64 {
        self.live_vector_slots + self.live_claim_slots
    }
}

/// A registered posting scope on a [`Board`].
///
/// Cheap to copy (a board reference plus the scope id); post through it
/// during the step, read back for tallies/audits, and [`ScopeHandle::retire`]
/// when the step's posts are dead. Handles for the same path are
/// interchangeable — the scope id is the identity.
#[derive(Clone, Copy)]
pub struct ScopeHandle<'b> {
    board: &'b Board,
    id: u64,
}

impl<'b> ScopeHandle<'b> {
    /// The scope id (usable with the raw [`Board`] read methods).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Post (or overwrite) `author`'s vector in this scope's slot.
    pub fn post_vector(&self, author: u32, v: BitVec) {
        self.board.post_vector(self.id, author, v);
    }

    /// Post `author`'s bit claim about `object` in this scope.
    pub fn post_claim(&self, author: u32, object: u32, value: bool) {
        self.board.post_claim(self.id, author, object, value);
    }

    /// All vectors posted in this scope, sorted by author id.
    pub fn vectors(&self) -> Vec<(u32, BitVec)> {
        self.board.vectors(self.id)
    }

    /// All claims about `object` in this scope, sorted by author id.
    pub fn claims(&self, object: u32) -> Vec<(u32, bool)> {
        self.board.claims(self.id, object)
    }

    /// Release every post in this scope and unregister it.
    pub fn retire(self) {
        self.board.retire_scope(self.id);
    }
}

impl Board {
    /// Empty board.
    pub fn new() -> Self {
        Board {
            vectors: (0..SHARD_COUNT)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            claims: (0..SHARD_COUNT)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            vector_posts: AtomicU64::new(0),
            claim_posts: AtomicU64::new(0),
            live_vector_slots: AtomicU64::new(0),
            live_claim_slots: AtomicU64::new(0),
            peak_vector_slots: AtomicU64::new(0),
            peak_claim_slots: AtomicU64::new(0),
            retired_scopes: AtomicU64::new(0),
            registry: Mutex::new(HashMap::new()),
        }
    }

    #[inline]
    fn shard_index(scope: u64, salt: u32) -> usize {
        // Cheap mix; shard only needs to spread load.
        let h = scope ^ u64::from(salt).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (h as usize >> 3) % SHARD_COUNT
    }

    /// New-slot accounting: bump a live counter and fold it into its peak.
    ///
    /// Within a posting phase slots only grow and retirement happens in the
    /// single-threaded driver between phases, so the observed peak is the
    /// same under any thread schedule — determinism the experiment artifacts
    /// rely on.
    #[inline]
    fn bump_live(live: &AtomicU64, peak: &AtomicU64, added: u64) {
        let now = live.fetch_add(added, Ordering::Relaxed) + added;
        peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Open (and register) the scope named by `path`; see [`scope_id`] for
    /// the id derivation. Re-opening a path returns an equivalent handle.
    pub fn scope(&self, path: &[u64]) -> ScopeHandle<'_> {
        let id = scope_id(path);
        self.registry
            .lock()
            .entry(id)
            .or_insert_with(|| path.to_vec());
        ScopeHandle { board: self, id }
    }

    /// Post (or overwrite) `author`'s vector in `scope`'s slot.
    pub fn post_vector(&self, scope: u64, author: u32, v: BitVec) {
        self.vector_posts.fetch_add(1, Ordering::Relaxed);
        let fresh = self.vectors[Self::shard_index(scope, author)]
            .lock()
            .insert((scope, author), v)
            .is_none();
        if fresh {
            Self::bump_live(&self.live_vector_slots, &self.peak_vector_slots, 1);
        }
    }

    /// All vectors posted in `scope`, sorted by author id.
    pub fn vectors(&self, scope: u64) -> Vec<(u32, BitVec)> {
        let mut out: Vec<(u32, BitVec)> = Vec::new();
        for shard in &self.vectors {
            let guard = shard.lock();
            out.extend(
                guard
                    .iter()
                    .filter(|((s, _), _)| *s == scope)
                    .map(|(&(_, a), v)| (a, v.clone())),
            );
        }
        out.sort_unstable_by_key(|&(a, _)| a);
        out
    }

    /// `author`'s vector in `scope`, if posted.
    pub fn vector_of(&self, scope: u64, author: u32) -> Option<BitVec> {
        self.vectors[Self::shard_index(scope, author)]
            .lock()
            .get(&(scope, author))
            .cloned()
    }

    /// Post `author`'s bit claim about `object` in `scope`. One slot per
    /// `(scope, object, author)`: re-posting overwrites.
    pub fn post_claim(&self, scope: u64, author: u32, object: u32, value: bool) {
        self.claim_posts.fetch_add(1, Ordering::Relaxed);
        let fresh = {
            let mut guard = self.claims[Self::shard_index(scope, object)].lock();
            let entries = guard.entry((scope, object)).or_default();
            match entries.iter_mut().find(|(a, _)| *a == author) {
                Some(slot) => {
                    slot.1 = value;
                    false
                }
                None => {
                    entries.push((author, value));
                    true
                }
            }
        };
        if fresh {
            Self::bump_live(&self.live_claim_slots, &self.peak_claim_slots, 1);
        }
    }

    /// All claims about `object` in `scope`, sorted by author id.
    pub fn claims(&self, scope: u64, object: u32) -> Vec<(u32, bool)> {
        let guard = self.claims[Self::shard_index(scope, object)].lock();
        let mut out = guard.get(&(scope, object)).cloned().unwrap_or_default();
        out.sort_unstable_by_key(|&(a, _)| a);
        out
    }

    /// Release every post in `scope` and unregister it.
    ///
    /// Idempotent; counts toward [`BoardStats::retired_scopes`] only when
    /// something (a registration or at least one slot) was actually freed.
    pub fn retire_scope(&self, scope: u64) {
        let registered = self.registry.lock().remove(&scope).is_some();
        let mut freed_vectors = 0u64;
        for shard in &self.vectors {
            let mut guard = shard.lock();
            let before = guard.len();
            guard.retain(|&(s, _), _| s != scope);
            freed_vectors += (before - guard.len()) as u64;
        }
        let mut freed_claims = 0u64;
        for shard in &self.claims {
            let mut guard = shard.lock();
            guard.retain(|&(s, _), slot| {
                if s == scope {
                    freed_claims += slot.len() as u64;
                    false
                } else {
                    true
                }
            });
        }
        self.live_vector_slots
            .fetch_sub(freed_vectors, Ordering::Relaxed);
        self.live_claim_slots
            .fetch_sub(freed_claims, Ordering::Relaxed);
        if registered || freed_vectors + freed_claims > 0 {
            self.retired_scopes.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Retire every *registered* scope whose creation path starts with
    /// `prefix` — how drivers release a whole protocol step (one diameter
    /// guess, one robust repetition) in one call. Batched: one retain pass
    /// over each shard regardless of how many scopes match.
    pub fn retire_prefix(&self, prefix: &[u64]) {
        let ids: HashSet<u64> = {
            let mut registry = self.registry.lock();
            let matched: Vec<u64> = registry
                .iter()
                .filter(|(_, path)| path.len() >= prefix.len() && path[..prefix.len()] == *prefix)
                .map(|(&id, _)| id)
                .collect();
            for id in &matched {
                registry.remove(id);
            }
            matched.into_iter().collect()
        };
        if ids.is_empty() {
            return;
        }
        let mut freed_vectors = 0u64;
        for shard in &self.vectors {
            let mut guard = shard.lock();
            let before = guard.len();
            guard.retain(|&(s, _), _| !ids.contains(&s));
            freed_vectors += (before - guard.len()) as u64;
        }
        let mut freed_claims = 0u64;
        for shard in &self.claims {
            let mut guard = shard.lock();
            guard.retain(|&(s, _), slot| {
                if ids.contains(&s) {
                    freed_claims += slot.len() as u64;
                    false
                } else {
                    true
                }
            });
        }
        self.live_vector_slots
            .fetch_sub(freed_vectors, Ordering::Relaxed);
        self.live_claim_slots
            .fetch_sub(freed_claims, Ordering::Relaxed);
        self.retired_scopes
            .fetch_add(ids.len() as u64, Ordering::Relaxed);
    }

    /// Traffic and memory counters.
    pub fn stats(&self) -> BoardStats {
        BoardStats {
            vector_posts: self.vector_posts.load(Ordering::Relaxed),
            claim_posts: self.claim_posts.load(Ordering::Relaxed),
            live_vector_slots: self.live_vector_slots.load(Ordering::Relaxed),
            live_claim_slots: self.live_claim_slots.load(Ordering::Relaxed),
            peak_vector_slots: self.peak_vector_slots.load(Ordering::Relaxed),
            peak_claim_slots: self.peak_claim_slots.load(Ordering::Relaxed),
            retired_scopes: self.retired_scopes.load(Ordering::Relaxed),
        }
    }
}

impl Default for Board {
    fn default() -> Self {
        Self::new()
    }
}

/// Derive a scope id from a path of step identifiers (protocol step, loop
/// indices, recursion-node ids). Same mixing as seed derivation so distinct
/// paths do not collide in practice.
pub fn scope_id(path: &[u64]) -> u64 {
    let mut h: u64 = 0x243f_6a88_85a3_08d3;
    for &t in path {
        h ^= t.wrapping_add(0x9e37_79b9_7f4a_7c15).rotate_left(23);
        h = h.wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
        h ^= h >> 29;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use byzscore_bitset::Bits;

    #[test]
    fn vector_slots_overwrite_not_duplicate() {
        let b = Board::new();
        b.post_vector(1, 5, BitVec::zeros(4));
        b.post_vector(1, 5, BitVec::ones(4));
        let vs = b.vectors(1);
        assert_eq!(vs.len(), 1, "one slot per author");
        assert_eq!(vs[0].0, 5);
        assert_eq!(vs[0].1.count_ones(), 4, "last write wins");
        assert_eq!(b.stats().vector_posts, 2);
        assert_eq!(b.stats().live_vector_slots, 1, "overwrite is not a slot");
        assert_eq!(b.stats().peak_vector_slots, 1);
    }

    #[test]
    fn vectors_sorted_by_author() {
        let b = Board::new();
        for &a in &[9u32, 2, 7, 0] {
            b.post_vector(3, a, BitVec::zeros(2));
        }
        let authors: Vec<u32> = b.vectors(3).into_iter().map(|(a, _)| a).collect();
        assert_eq!(authors, vec![0, 2, 7, 9]);
    }

    #[test]
    fn scopes_are_isolated() {
        let b = Board::new();
        b.post_vector(1, 0, BitVec::zeros(2));
        b.post_vector(2, 1, BitVec::ones(2));
        assert_eq!(b.vectors(1).len(), 1);
        assert_eq!(b.vectors(2).len(), 1);
        assert!(b.vector_of(1, 1).is_none());
        assert!(b.vector_of(2, 1).is_some());
    }

    #[test]
    fn claim_slots_overwrite() {
        let b = Board::new();
        b.post_claim(1, 3, 10, true);
        b.post_claim(1, 3, 10, false);
        b.post_claim(1, 4, 10, true);
        let cs = b.claims(1, 10);
        assert_eq!(cs, vec![(3, false), (4, true)]);
        assert!(b.claims(1, 11).is_empty());
        assert!(b.claims(2, 10).is_empty());
        assert_eq!(b.stats().claim_posts, 3);
        assert_eq!(b.stats().live_claim_slots, 2);
    }

    #[test]
    fn scope_handle_posts_and_retires() {
        let b = Board::new();
        let scope = b.scope(&[1, 2]);
        scope.post_vector(0, BitVec::zeros(4));
        scope.post_claim(0, 9, true);
        assert_eq!(scope.id(), scope_id(&[1, 2]));
        assert_eq!(scope.vectors().len(), 1);
        assert_eq!(scope.claims(9).len(), 1);
        scope.retire();
        assert!(b.vectors(scope_id(&[1, 2])).is_empty());
        assert!(b.claims(scope_id(&[1, 2]), 9).is_empty());
        let s = b.stats();
        assert_eq!(s.live_vector_slots, 0);
        assert_eq!(s.live_claim_slots, 0);
        assert_eq!(s.peak_vector_slots, 1, "peak survives retirement");
        assert_eq!(s.peak_claim_slots, 1);
        assert_eq!(s.retired_scopes, 1);
        assert_eq!(s.live_slots(), 0, "live_slots sums both slot kinds");
    }

    #[test]
    fn retirement_tracks_peak_not_total() {
        let b = Board::new();
        for step in 0..10u64 {
            let scope = b.scope(&[7, step]);
            for a in 0..4u32 {
                scope.post_vector(a, BitVec::zeros(2));
                scope.post_claim(a, 0, true);
            }
            scope.retire();
        }
        let s = b.stats();
        assert_eq!(s.vector_posts, 40, "posts are cumulative");
        assert_eq!(s.peak_vector_slots, 4, "peak is the per-step working set");
        assert_eq!(s.peak_claim_slots, 4);
        assert_eq!(s.live_vector_slots, 0);
        assert_eq!(s.retired_scopes, 10);
    }

    #[test]
    fn retire_prefix_releases_subtree_only() {
        let b = Board::new();
        b.scope(&[5, 0, 1]).post_vector(0, BitVec::zeros(1));
        b.scope(&[5, 0, 2]).post_claim(1, 3, false);
        b.scope(&[5, 1]).post_vector(2, BitVec::zeros(1));
        b.retire_prefix(&[5, 0]);
        let s = b.stats();
        assert_eq!(s.live_vector_slots, 1, "sibling subtree untouched");
        assert_eq!(s.live_claim_slots, 0);
        assert_eq!(s.retired_scopes, 2);
        assert_eq!(b.vectors(scope_id(&[5, 1])).len(), 1);
        // Idempotent.
        b.retire_prefix(&[5, 0]);
        assert_eq!(b.stats().retired_scopes, 2);
    }

    #[test]
    fn retiring_unregistered_scope_frees_raw_posts() {
        let b = Board::new();
        b.post_vector(77, 0, BitVec::zeros(1));
        b.retire_scope(77);
        assert_eq!(b.stats().live_vector_slots, 0);
        assert_eq!(b.stats().retired_scopes, 1);
        // Nothing there: no-op, not another retirement.
        b.retire_scope(77);
        assert_eq!(b.stats().retired_scopes, 1);
    }

    #[test]
    fn concurrent_posts_all_land() {
        let b = Board::new();
        std::thread::scope(|s| {
            for t in 0..8u32 {
                let b = &b;
                s.spawn(move || {
                    for i in 0..50u32 {
                        b.post_vector(7, t * 50 + i, BitVec::zeros(1));
                        b.post_claim(8, t * 50 + i, i % 5, true);
                    }
                });
            }
        });
        assert_eq!(b.vectors(7).len(), 400);
        let total_claims: usize = (0..5).map(|o| b.claims(8, o).len()).sum();
        assert_eq!(total_claims, 400);
        let s = b.stats();
        assert_eq!(s.live_vector_slots, 400);
        assert_eq!(s.peak_vector_slots, 400);
        assert_eq!(s.live_claim_slots, 400);
    }

    #[test]
    fn scope_id_distinguishes_paths() {
        assert_eq!(scope_id(&[1, 2, 3]), scope_id(&[1, 2, 3]));
        assert_ne!(scope_id(&[1, 2, 3]), scope_id(&[3, 2, 1]));
        assert_ne!(scope_id(&[1]), scope_id(&[1, 0]));
        assert_ne!(scope_id(&[]), scope_id(&[0]));
    }
}
