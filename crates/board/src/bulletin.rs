//! The bulletin board as a communication meter: post counts per scope.

use std::cell::RefCell;
use std::collections::HashMap;

/// The paper's public bulletin board (§2), kept as a meter: each step of
/// Figures 1–2 hands its outputs to the next in memory and posts only a
/// count — one vector per `(scope, author)`, one bit claim per
/// `(scope, object, author)`. No step posts twice into one slot.
///
/// [`Board::scope`] registers a step instance's path; [`Board::retire_prefix`]
/// releases a finished subtree, so live slots track the current step's
/// working set and [`BoardStats`] keeps the peaks. Posts to an unregistered
/// id count but are never retired.
///
/// Like the probe ledger, the board meters one run on the thread that
/// entered it, so its counts sit in a plain `RefCell`.
#[derive(Default)]
pub struct Board {
    state: RefCell<State>,
}

#[derive(Default)]
struct State {
    scopes: HashMap<u64, Scope>,
    stats: BoardStats,
}

/// One scope: its registered path (if any) and its live post counts.
#[derive(Default)]
struct Scope {
    path: Option<Vec<u64>>,
    vectors: u64,
    claims: u64,
}

/// Board traffic and working-set counters (§8's open question about
/// communication complexity).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BoardStats {
    /// Vector posts over the board's lifetime.
    pub vector_posts: u64,
    /// Claim posts over the board's lifetime.
    pub claim_posts: u64,
    /// Vector posts in scopes not yet retired.
    pub live_vector_slots: u64,
    /// Claim posts in scopes not yet retired.
    pub live_claim_slots: u64,
    /// High-water mark of `live_vector_slots`.
    pub peak_vector_slots: u64,
    /// High-water mark of `live_claim_slots`.
    pub peak_claim_slots: u64,
    /// Registered scopes retired by [`Board::retire_prefix`].
    pub retired_scopes: u64,
}

/// A registered posting scope on a [`Board`]. Cheap to copy; handles for the
/// same path are interchangeable, since the scope id is the identity.
#[derive(Clone, Copy)]
pub struct ScopeHandle<'b> {
    board: &'b Board,
    id: u64,
}

impl ScopeHandle<'_> {
    /// The scope id, for [`Board::post_claim`].
    #[doc(hidden)]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Count `count` vector posts, one per author, in this scope.
    pub fn post_vectors(&self, count: usize) {
        self.board.post(self.id, count as u64, 0);
    }

    /// Count `count` claim posts, one per `(object, author)`, in this scope.
    pub fn post_claims(&self, count: usize) {
        self.board.post(self.id, 0, count as u64);
    }
}

impl Board {
    /// Empty board.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open (and register) the scope named by `path`; see [`scope_id`] for
    /// the id derivation. Re-opening a path returns an equivalent handle.
    pub fn scope(&self, path: &[u64]) -> ScopeHandle<'_> {
        let id = scope_id(path);
        let mut state = self.state.borrow_mut();
        let scope = state.scopes.entry(id).or_default();
        scope.path.get_or_insert_with(|| path.to_vec());
        ScopeHandle { board: self, id }
    }

    /// Count one claim post in `scope`.
    #[doc(hidden)]
    pub fn post_claim(&self, scope: u64, _author: u32, _object: u32, _value: bool) {
        self.post(scope, 0, 1);
    }

    fn post(&self, id: u64, vectors: u64, claims: u64) {
        let mut state = self.state.borrow_mut();
        let State { scopes, stats } = &mut *state;
        let scope = scopes.entry(id).or_default();
        scope.vectors += vectors;
        scope.claims += claims;
        stats.vector_posts += vectors;
        stats.claim_posts += claims;
        stats.live_vector_slots += vectors;
        stats.live_claim_slots += claims;
        stats.peak_vector_slots = stats.peak_vector_slots.max(stats.live_vector_slots);
        stats.peak_claim_slots = stats.peak_claim_slots.max(stats.live_claim_slots);
    }

    /// Retire (and unregister) every registered scope under `prefix`.
    pub fn retire_prefix(&self, prefix: &[u64]) {
        let mut state = self.state.borrow_mut();
        let State { scopes, stats } = &mut *state;
        scopes.retain(|_, scope| {
            let hit = scope.path.as_deref().is_some_and(|p| p.starts_with(prefix));
            if hit {
                stats.live_vector_slots -= scope.vectors;
                stats.live_claim_slots -= scope.claims;
                stats.retired_scopes += 1;
            }
            !hit
        });
    }

    /// Traffic and memory counters.
    pub fn stats(&self) -> BoardStats {
        self.state.borrow().stats
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

    #[test]
    fn scopes_are_isolated() {
        // Counts add up per scope: retiring one leaves the other's intact.
        let b = Board::new();
        let one = b.scope(&[1]);
        let two = b.scope(&[2]);
        one.post_vectors(3);
        one.post_claims(5);
        two.post_vectors(2);
        two.post_claims(7);
        one.post_claims(1);
        let s = b.stats();
        assert_eq!((s.vector_posts, s.claim_posts), (5, 13));
        assert_eq!((s.live_vector_slots, s.live_claim_slots), (5, 13));
        b.retire_prefix(&[1]);
        let s = b.stats();
        assert_eq!((s.live_vector_slots, s.live_claim_slots), (2, 7));
        assert_eq!(
            (s.vector_posts, s.claim_posts),
            (5, 13),
            "posts are cumulative"
        );
    }

    #[test]
    fn scope_handle_posts_and_retires() {
        let b = Board::new();
        let scope = b.scope(&[1, 2]);
        assert_eq!(scope.id(), scope_id(&[1, 2]));
        scope.post_vectors(1);
        scope.post_claims(1);
        b.retire_prefix(&[1, 2]);
        let s = b.stats();
        assert_eq!((s.live_vector_slots, s.live_claim_slots), (0, 0));
        assert_eq!(
            (s.peak_vector_slots, s.peak_claim_slots),
            (1, 1),
            "peak survives"
        );
        assert_eq!(s.retired_scopes, 1);
    }

    #[test]
    fn retirement_tracks_peak_not_total() {
        let b = Board::new();
        for step in 0..10u64 {
            let scope = b.scope(&[7, step]);
            scope.post_vectors(4);
            scope.post_claims(4);
            b.retire_prefix(&[7, step]);
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
        b.scope(&[5, 0, 1]).post_vectors(1);
        b.scope(&[5, 0, 2]).post_claims(1);
        b.scope(&[5, 0, 3]);
        b.scope(&[5, 1]).post_vectors(1);
        b.retire_prefix(&[5, 0]);
        let s = b.stats();
        assert_eq!(s.live_vector_slots, 1, "sibling subtree untouched");
        assert_eq!(s.live_claim_slots, 0);
        assert_eq!(s.retired_scopes, 3, "an empty registered scope retires too");
        // Idempotent.
        b.retire_prefix(&[5, 0]);
        assert_eq!(b.stats(), s);
    }

    #[test]
    fn raw_posts_to_unregistered_ids_survive_prefix_retire() {
        let b = Board::new();
        b.post_claim(77, 0, 0, true);
        // A retired handle that posts again lands in an unregistered scope.
        let late = b.scope(&[9]);
        b.retire_prefix(&[9]);
        late.post_claims(2);
        b.retire_prefix(&[]);
        let s = b.stats();
        assert_eq!(s.live_claim_slots, 3);
        assert_eq!(s.retired_scopes, 1);
        // Registering the id again makes its posts retirable.
        b.scope(&[9]);
        b.retire_prefix(&[9]);
        assert_eq!(b.stats().live_claim_slots, 1);
    }

    #[test]
    fn concurrent_posts_all_land() {
        // Eight authors posting in the same rounds, interleaved as one
        // synchronous phase issues them.
        let b = Board::new();
        let scopes: Vec<ScopeHandle<'_>> = (0..8u64).map(|t| b.scope(&[t])).collect();
        for i in 0..50u32 {
            for (t, scope) in scopes.iter().enumerate() {
                scope.post_vectors(1);
                b.post_claim(8, t as u32, i, true);
            }
        }
        let s = b.stats();
        assert_eq!(
            (s.vector_posts, s.live_vector_slots, s.peak_vector_slots),
            (400, 400, 400)
        );
        assert_eq!((s.claim_posts, s.live_claim_slots), (400, 400));
    }

    #[test]
    fn scope_id_distinguishes_paths() {
        assert_eq!(scope_id(&[1, 2, 3]), scope_id(&[1, 2, 3]));
        assert_ne!(scope_id(&[1, 2, 3]), scope_id(&[3, 2, 1]));
        assert_ne!(scope_id(&[1]), scope_id(&[1, 0]));
        assert_ne!(scope_id(&[]), scope_id(&[0]));
    }
}
