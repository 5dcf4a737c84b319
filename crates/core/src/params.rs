//! Protocol-level parameters (on top of the block-level constants).

use byzscore_blocks::BlockParams;

use crate::cluster::NeighborStrategy;

/// All protocol-level constants of Figure 2 and §7, explicit.
///
/// `blocks` carries the Figure-1 constants; the fields here govern the
/// outer protocol. Two presets:
///
/// * [`ProtocolParams::with_budget`] — tuned for `n ∈ [64, 4096]`; keeps
///   the asymptotic shape (what the experiments measure) at practical probe
///   counts.
/// * [`ProtocolParams::paper_faithful`] — the literal constants of the
///   text: `10 ln n / D` sampling, `20 ln n` sample diameter, `220 ln n`
///   edge threshold.
#[derive(Clone, Debug)]
pub struct ProtocolParams {
    /// Figure-1 constants.
    pub blocks: BlockParams,
    /// Sampling constant: object kept in `S` with probability
    /// `c_sample · ln n / D` (paper: 10).
    pub c_sample: f64,
    /// Sample-diameter multiplier: `SmallRadius` runs on `S` with diameter
    /// `2 · c_sample · ln n` (paper: 20 ln n, i.e. 2 × its c_sample).
    pub sample_diam_mult: f64,
    /// Edge threshold multiplier: neighbor-graph edge iff
    /// `|z(p) − z(q)| ≤ edge_mult · c_sample · ln n`.
    /// Paper: `220 ln n = 22 × (10 ln n)`, so its edge_mult is 22 —
    /// `2 × (SmallRadius error bound 100 ln n) + (sample distance 20 ln n)`.
    pub edge_mult: f64,
    /// Work-sharing redundancy: each object probed by
    /// `max(3, ceil(c_probe_rep · ln n))` cluster members (paper: Θ(log n)).
    pub c_probe_rep: f64,
    /// Robust-mode repetitions = `max(2, ceil(c_elect_reps · log₂ n))`
    /// (paper: Θ(log n) elections).
    pub c_elect_reps: f64,
    /// Baseline (`NaiveSampling`): public sample size
    /// `naive_sample_mult · B · ln n`.
    pub naive_sample_mult: f64,
    /// Degree slack for cluster peeling: a seed needs
    /// `ceil(degree_frac · n/B) − 1` neighbors instead of the full
    /// `n/B − 1`. The paper states Lemma 8's degree bound for honest
    /// executions; with up to `n/(3B)` Byzantine players, the dishonest
    /// members of a planted cluster post garbage sample vectors and vanish
    /// from the neighbor graph, so an honest member's visible degree can
    /// drop to `n/B − n/(3B) − 1`. `2/3` is exactly that allowance; probe
    /// loads grow by at most 3/2 (same asymptotics, Lemma 10).
    pub degree_frac: f64,
    /// If true, a dishonest elected leader publishes degenerate bits that
    /// force an empty sample (an explicit sabotage model — the strongest
    /// "biased randomness" attack our beacon abstraction can express).
    /// If false, a dishonest leader's bits are modeled as arbitrary but
    /// fixed. Either way the §7.1 defense (repetition + RSelect) is what
    /// must absorb it.
    pub leader_sabotage: bool,
    /// Which index step 1.d builds over the distinct `z`-vectors to
    /// discover the Lemma-8 neighbor graph: the exact distance table, a
    /// scan that computes each table row on demand, or a per-size
    /// automatic choice. All
    /// strategies produce the identical edge set; this only trades
    /// discovery time and memory. `Auto` at every construction site — the
    /// other two exist so tests and benches can force an index kind.
    pub neighbor_strategy: NeighborStrategy,
}

impl ProtocolParams {
    /// Tuned defaults with the given budget `B`.
    pub fn with_budget(budget_b: usize) -> Self {
        ProtocolParams {
            blocks: BlockParams::with_budget(budget_b),
            c_sample: 2.0,
            sample_diam_mult: 2.0,
            edge_mult: 3.0,
            c_probe_rep: 1.0,
            c_elect_reps: 0.4,
            naive_sample_mult: 2.0,
            degree_frac: 2.0 / 3.0,
            leader_sabotage: true,
            neighbor_strategy: NeighborStrategy::Auto,
        }
    }

    /// The literal constants of the paper's text.
    pub fn paper_faithful(budget_b: usize) -> Self {
        ProtocolParams {
            blocks: BlockParams::paper_faithful(budget_b),
            c_sample: 10.0,
            sample_diam_mult: 2.0,
            edge_mult: 22.0,
            c_probe_rep: 1.0,
            c_elect_reps: 1.0,
            naive_sample_mult: 2.0,
            degree_frac: 2.0 / 3.0,
            leader_sabotage: true,
            neighbor_strategy: NeighborStrategy::Auto,
        }
    }

    /// Budget `B`.
    pub fn budget(&self) -> usize {
        self.blocks.budget_b
    }

    /// Minimum cluster size `⌈n/B⌉` for `n` players (Definition 1 /
    /// Lemma 9).
    pub fn min_cluster_size(&self, n: usize) -> usize {
        n.div_ceil(self.budget().max(1)).max(1)
    }

    /// The `SmallRadius` diameter used on the sample:
    /// `sample_diam_mult · c_sample · ln n` (paper: 20 ln n).
    pub fn sample_diameter(&self, n: usize) -> usize {
        (self.sample_diam_mult * self.c_sample * (n.max(2) as f64).ln()).ceil() as usize
    }

    /// Neighbor-graph edge threshold on sample distances (paper: 220 ln n).
    pub fn edge_threshold(&self, n: usize) -> usize {
        (self.edge_mult * self.c_sample * (n.max(2) as f64).ln()).ceil() as usize
    }

    /// Peeling degree threshold: seeds need this many members in their
    /// neighborhood (themselves included) — `n/B` shrunk by the Byzantine
    /// allowance (see [`ProtocolParams::degree_frac`]).
    pub fn peel_min_size(&self, n: usize) -> usize {
        ((self.min_cluster_size(n) as f64) * self.degree_frac).ceil() as usize
    }

    /// Per-object work-sharing redundancy (paper: Θ(log n), must be ≥ 3 for
    /// a meaningful majority).
    pub fn probe_reps(&self, n: usize) -> usize {
        ((self.c_probe_rep * (n.max(2) as f64).ln()).ceil() as usize).max(3)
    }

    /// Robust-mode repetition count (paper: Θ(log n)).
    pub fn election_reps(&self, n: usize) -> usize {
        let log2n = (usize::BITS - n.max(2).leading_zeros()) as usize;
        ((self.c_elect_reps * log2n as f64).ceil() as usize).max(2)
    }

    /// The doubling diameter guesses of Figure 2 step 1 for `objects`
    /// columns: `D = 2^d` from `max(2, ~ln n)` (below which the whole-object
    /// `SmallRadius` case applies — §6.1's easy case, covered by the first
    /// guess because the sample rate clamps to 1) up to the object count.
    pub fn diameter_guesses(&self, n: usize, objects: usize) -> Vec<usize> {
        let ln_n = (n.max(2) as f64).ln();
        let mut d = 1usize;
        while (d as f64) < ln_n {
            d *= 2;
        }
        let mut out = Vec::new();
        while d < 2 * objects.max(1) {
            out.push(d);
            d *= 2;
        }
        if out.is_empty() {
            out.push(1);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_relationship() {
        let tuned = ProtocolParams::with_budget(8);
        let paper = ProtocolParams::paper_faithful(8);
        assert!(paper.c_sample > tuned.c_sample);
        assert_eq!(paper.edge_mult, 22.0);
        assert_eq!(tuned.budget(), 8);
    }

    #[test]
    fn paper_constants_reproduce_text() {
        // n such that ln n is clean-ish: the text's 10 ln n / 20 ln n /
        // 220 ln n relationships must hold exactly.
        let p = ProtocolParams::paper_faithful(4);
        let n = 1024;
        let ln_n = (n as f64).ln();
        assert_eq!(p.sample_diameter(n), (20.0 * ln_n).ceil() as usize);
        assert_eq!(p.edge_threshold(n), (220.0 * ln_n).ceil() as usize);
    }

    #[test]
    fn min_cluster_size_is_n_over_b() {
        let p = ProtocolParams::with_budget(8);
        assert_eq!(p.min_cluster_size(64), 8);
        assert_eq!(p.min_cluster_size(65), 9);
        assert_eq!(p.min_cluster_size(1), 1);
    }

    #[test]
    fn diameter_guesses_cover_range() {
        let p = ProtocolParams::with_budget(8);
        let guesses = p.diameter_guesses(256, 256);
        assert!(!guesses.is_empty());
        // First guess ≈ ln n (the direct-SmallRadius regime folds in here).
        assert!(*guesses.first().unwrap() >= 4);
        assert!(*guesses.first().unwrap() <= 16);
        // Guesses double and reach the object count.
        for w in guesses.windows(2) {
            assert_eq!(w[1], 2 * w[0]);
        }
        assert!(*guesses.last().unwrap() >= 256);
    }

    #[test]
    fn probe_reps_floor() {
        let p = ProtocolParams::with_budget(8);
        assert!(p.probe_reps(4) >= 3);
        assert!(p.election_reps(4) >= 2);
    }
}
