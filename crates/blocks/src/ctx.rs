//! Execution context and tunable protocol constants.

use std::cell::Cell;

use byzscore_adversary::Behaviors;
use byzscore_board::{Board, Oracle};
use byzscore_random::Beacon;

/// Every constant the paper hides inside Θ(·)/O(·), as an explicit knob.
///
/// Asymptotic statements leave constants free; concrete executions cannot.
/// Defaults are tuned for `n ∈ [64, 4096]` (see EXPERIMENTS.md for the
/// sensitivity ablations A1–A3); [`BlockParams::paper_faithful`] sets every
/// constant that the paper states literally (10 ln n sampling, 220 ln n
/// edge threshold, 2/3 majorities, 5B budgets, …) at the cost of much
/// larger probe counts.
#[derive(Clone, Debug)]
pub struct BlockParams {
    /// The budget parameter `B` the protocol is optimized against.
    pub budget_b: usize,

    // ---- RSelect (Figure 1, top; Theorem 3) ----
    /// Pair sample size multiplier: each pair probes
    /// `ceil(c_rselect · ln n)` differing objects.
    pub c_rselect: f64,
    /// Elimination threshold (paper: 2/3): eliminate `w'` when at least
    /// this fraction of probed differing objects agree with `w`.
    pub rselect_threshold: f64,

    // ---- Select (reconstruction; see lib docs) ----
    /// Batch size multiplier: each elimination round probes
    /// `ceil(c_select · ln n)` disputed objects.
    pub c_select: f64,
    /// Keep candidates scoring within `select_margin · batch` of the best
    /// each round (drop the clear losers only).
    pub select_margin: f64,

    // ---- ZeroRadius (Figure 1, middle; Theorem 4) ----
    /// Base-case threshold multiplier: recurse only while
    /// `min(|P|,|O|) ≥ c_zr_base · B' · ln n`.
    pub c_zr_base: f64,
    /// Vote threshold denominator (paper: 2): a vector is *popular* when
    /// posted by ≥ `|P''| / (zr_vote_denom · B')` players of the sibling
    /// half.
    pub zr_vote_denom: f64,

    // ---- SmallRadius (Figure 1, bottom; Theorem 5) ----
    /// Outer iterations = `max(2, ceil(c_sr_iters · log₂ n))` (paper:
    /// Θ(log n)).
    pub c_sr_iters: f64,
    /// Object partition granularity: `s = clamp(ceil(D^{3/2} /
    /// sr_subset_scale), 1, |O|)` (paper: `s = Θ(D^{3/2})`).
    pub sr_subset_scale: f64,
    /// `ZeroRadius` budget multiplier inside `SmallRadius` (paper: 5, as in
    /// "ZeroRadius(·, ·, 5B)").
    pub sr_budget_mult: usize,
    /// Popularity denominator for `U_i` (paper: 5, as in "output by at
    /// least n/(5B) players").
    pub sr_popular_denom: f64,
}

impl Default for BlockParams {
    /// Laptop-scale defaults: every Θ-constant shrunk to keep probe counts
    /// practical at n ≤ 4096 while preserving the asymptotic shape the
    /// experiments measure.
    fn default() -> Self {
        BlockParams {
            budget_b: 8,
            c_rselect: 3.0,
            rselect_threshold: 2.0 / 3.0,
            c_select: 3.0,
            select_margin: 1.0 / 3.0,
            c_zr_base: 3.0,
            zr_vote_denom: 2.0,
            c_sr_iters: 0.5,
            sr_subset_scale: 48.0,
            sr_budget_mult: 2,
            sr_popular_denom: 3.0,
        }
    }
}

impl BlockParams {
    /// The literal constants of the paper's text. Probe counts become large
    /// (they carry 10·ln n and 5B factors) but match the prose exactly.
    pub fn paper_faithful(budget_b: usize) -> Self {
        BlockParams {
            budget_b,
            c_rselect: 10.0,
            rselect_threshold: 2.0 / 3.0,
            c_select: 10.0,
            select_margin: 1.0 / 3.0,
            c_zr_base: 1.0,
            zr_vote_denom: 2.0,
            c_sr_iters: 1.0,
            sr_subset_scale: 1.0,
            sr_budget_mult: 5,
            sr_popular_denom: 5.0,
        }
    }

    /// Defaults with a given budget.
    pub fn with_budget(budget_b: usize) -> Self {
        BlockParams {
            budget_b,
            ..Default::default()
        }
    }
}

/// Accumulator for candidate-storage high-water marks.
///
/// The streaming `RSelect` tournaments track, per player, the peak number
/// of resident candidate bytes; summing those per-player peaks gives a
/// deterministic (order-independent) measure of how much candidate storage
/// a run needed at its worst. One meter serves one run, on the thread that
/// runs it, so the sum is a plain cell.
#[derive(Debug, Default)]
pub struct CandidateMeter {
    peak_bytes: Cell<u64>,
}

impl CandidateMeter {
    /// Fresh meter at zero.
    pub fn new() -> CandidateMeter {
        CandidateMeter::default()
    }

    /// Add one player's peak resident candidate bytes.
    pub fn add_peak(&self, bytes: u64) {
        self.peak_bytes.set(self.peak_bytes.get() + bytes);
    }

    /// Sum of per-player peaks recorded so far.
    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes.get()
    }
}

/// Shared execution context threaded through every protocol step.
///
/// Bundles the probe oracle (metered truth access), the bulletin board,
/// the adversary's behaviour table, the current shared-randomness beacon,
/// and the constants. Cloning is cheap (the beacon is two words; the rest
/// are references), which is how nested scopes re-key their randomness via
/// [`Ctx::with_beacon`].
#[derive(Clone)]
pub struct Ctx<'a> {
    /// Metered access to hidden preferences.
    pub oracle: &'a Oracle,
    /// The bulletin board, which counts each step's posts (it stores no
    /// values; outputs pass between steps in memory).
    pub board: &'a Board,
    /// Who is dishonest and what they post.
    pub behaviors: &'a Behaviors<'a>,
    /// Shared randomness for this scope.
    pub beacon: Beacon,
    /// Protocol constants.
    pub params: &'a BlockParams,
    /// Seed for players' *private* coin flips (their own probe sampling in
    /// `RSelect`/`Select`). Kept separate from the beacon: private coins
    /// are never published, so even an omniscient strategy cannot condition
    /// on them (the [`Strategy`](byzscore_adversary::Strategy) API simply
    /// never sees this value).
    pub private_seed: u64,
    /// Optional sink for candidate-residency accounting (the runner wires
    /// one in when it wants the `peak_candidate_bytes` metric; `None`
    /// costs nothing).
    pub meter: Option<&'a CandidateMeter>,
}

impl<'a> Ctx<'a> {
    /// Assemble a context.
    pub fn new(
        oracle: &'a Oracle,
        board: &'a Board,
        behaviors: &'a Behaviors<'a>,
        beacon: Beacon,
        params: &'a BlockParams,
    ) -> Self {
        let private_seed = beacon.seed() ^ 0x7e57_ab1e_5eed_c0de;
        Ctx {
            oracle,
            board,
            behaviors,
            beacon,
            params,
            private_seed,
            meter: None,
        }
    }

    /// Same context with candidate-residency accounting attached.
    pub fn with_meter(&self, meter: &'a CandidateMeter) -> Ctx<'a> {
        Ctx {
            meter: Some(meter),
            ..self.clone()
        }
    }

    /// Deterministic private stream for `player` in the scope named by
    /// `tags`.
    pub fn player_rng(&self, player: u32, scope_tags: &[u64]) -> rand::rngs::SmallRng {
        use rand::SeedableRng;
        let mut tags = Vec::with_capacity(scope_tags.len() + 2);
        tags.push(byzscore_random::tags::PLAYER);
        tags.push(u64::from(player));
        tags.extend_from_slice(scope_tags);
        rand::rngs::SmallRng::seed_from_u64(byzscore_random::derive_seed(self.private_seed, &tags))
    }

    /// Number of players `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.oracle.players()
    }

    /// `ln n`, floored at `ln 2` so degenerate sizes stay positive.
    #[inline]
    pub fn ln_n(&self) -> f64 {
        (self.n().max(2) as f64).ln()
    }

    /// `log₂ n`, at least 1.
    #[inline]
    pub fn log2_n(&self) -> usize {
        (usize::BITS - self.n().max(2).leading_zeros()) as usize
    }

    /// Same context under a re-keyed beacon (nested protocol scope).
    pub fn with_beacon(&self, beacon: Beacon) -> Ctx<'a> {
        Ctx {
            beacon,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byzscore_bitset::BitMatrix;

    #[test]
    fn params_presets() {
        let d = BlockParams::default();
        assert!(
            d.rselect_threshold > 0.5,
            "majority threshold must exceed 1/2"
        );
        let p = BlockParams::paper_faithful(4);
        assert_eq!(p.budget_b, 4);
        assert_eq!(p.sr_budget_mult, 5);
        assert_eq!(p.sr_popular_denom, 5.0);
        assert_eq!(BlockParams::with_budget(16).budget_b, 16);
    }

    #[test]
    fn ctx_scales() {
        let truth = BitMatrix::zeros(128, 64);
        let oracle = Oracle::new(&truth);
        let board = Board::new();
        let behaviors = Behaviors::all_honest(&truth);
        let params = BlockParams::default();
        let ctx = Ctx::new(&oracle, &board, &behaviors, Beacon::honest(1), &params);
        assert_eq!(ctx.n(), 128);
        assert_eq!(ctx.log2_n(), 8);
        assert!((ctx.ln_n() - (128f64).ln()).abs() < 1e-9);
        let child = ctx.with_beacon(ctx.beacon.child(&[1]));
        assert_ne!(child.beacon.seed(), ctx.beacon.seed());
    }
}
