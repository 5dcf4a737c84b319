//! Accuracy metrics: rate of error, optimality benchmarks, cluster quality.
//!
//! Definition 1 of the paper calls an algorithm *asymptotically optimal with
//! respect to budget `B`* when every player's output error is within a
//! constant factor of `min D(P)` over sets `P ∋ p` of size ≥ `n/B`. Computing
//! that minimum exactly is infeasible (it is a clique-like optimization), but
//! it is tightly sandwiched:
//!
//! * **lower bound** — any set of `k` players containing `p` has diameter at
//!   least the distance from `p` to its `(k−1)`-th nearest neighbor;
//! * **upper bound** — the diameter of `p` together with its `k−1` nearest
//!   neighbors is achieved by an explicit set.
//!
//! [`opt_bounds`] reports both, and experiment E7 reports approximation
//! ratios against each.

use byzscore_bitset::{BitMatrix, Bits};

/// Per-player error summary: Hamming distance between protocol output `w(p)`
/// and truth `v(p)` (paper §3, "rate of error").
#[derive(Clone, Debug, PartialEq)]
pub struct ErrorReport {
    /// `|w(p) − v(p)|` for every evaluated player.
    pub per_player: Vec<usize>,
    /// Worst error over evaluated players — the paper's rate of error.
    pub max: usize,
    /// Mean error.
    pub mean: f64,
    /// 95th-percentile error.
    pub p95: usize,
    /// Number of players evaluated (honest players only, when a mask is
    /// supplied — the paper's guarantees only cover honest players).
    pub evaluated: usize,
}

impl ErrorReport {
    /// Build a report from raw per-player errors.
    pub fn from_errors(mut errors: Vec<usize>) -> Self {
        assert!(!errors.is_empty(), "error report over zero players");
        let max = errors.iter().copied().max().unwrap_or(0);
        let mean = errors.iter().sum::<usize>() as f64 / errors.len() as f64;
        let evaluated = errors.len();
        let idx = ((errors.len() as f64) * 0.95).ceil() as usize - 1;
        errors.sort_unstable();
        let p95 = errors[idx.min(errors.len() - 1)];
        ErrorReport {
            per_player: errors,
            max,
            mean,
            p95,
            evaluated,
        }
    }
}

/// Compare a protocol's output matrix against the truth.
///
/// When `honest` is supplied, only players marked `true` are evaluated —
/// dishonest players' outputs are meaningless and excluded, exactly as in
/// the paper's guarantee ("the *honest* players are still guaranteed
/// near-optimal predictions").
pub fn error_report(output: &BitMatrix, truth: &BitMatrix, honest: Option<&[bool]>) -> ErrorReport {
    assert_eq!(output.rows(), truth.rows(), "row count mismatch");
    assert_eq!(output.cols(), truth.cols(), "column count mismatch");
    let errors: Vec<usize> = (0..truth.rows())
        .filter(|&p| honest.is_none_or(|h| h[p]))
        .map(|p| output.row(p).hamming(&truth.row(p)))
        .collect();
    ErrorReport::from_errors(errors)
}

/// Per-player sandwich bounds on `min_{P ∋ p, |P| ≥ set_size} D(P)`.
#[derive(Clone, Debug)]
pub struct OptBounds {
    /// Lower bound: distance from `p` to its `(set_size−1)`-th nearest
    /// neighbor.
    pub lower: Vec<usize>,
    /// Upper bound: diameter of `p` plus its `set_size−1` nearest neighbors.
    pub upper: Vec<usize>,
}

/// Compute [`OptBounds`] for every player against sets of size `set_size`
/// (the paper's `n/B`).
///
/// Work is `O(n²)` row distances plus one `O(k²)` diameter per player.
pub fn opt_bounds(truth: &BitMatrix, set_size: usize) -> OptBounds {
    let n = truth.rows();
    assert!(set_size >= 1 && set_size <= n, "set_size in [1, n]");
    let k = set_size - 1; // neighbors besides p

    let mut lower = vec![0usize; n];
    let mut upper = vec![0usize; n];
    if k == 0 {
        return OptBounds { lower, upper };
    }

    let mut dists: Vec<(usize, u32)> = Vec::with_capacity(n);
    for p in 0..n {
        dists.clear();
        let row_p = truth.row(p);
        for q in 0..n {
            if q != p {
                dists.push((truth.row(q).hamming(&row_p), q as u32));
            }
        }
        dists.select_nth_unstable(k - 1);
        lower[p] = dists[k - 1].0;
        let mut members: Vec<u32> = dists[..k].iter().map(|&(_, q)| q).collect();
        members.push(p as u32);
        upper[p] = truth.diameter_of(&members);
    }

    OptBounds { lower, upper }
}

/// Quality of a recovered clustering against the planted truth and the
/// paper's structural lemmas (8–9).
#[derive(Clone, Debug)]
pub struct ClusterQuality {
    /// Smallest recovered-cluster size (Lemma 9 requires ≥ n/B).
    pub min_size: usize,
    /// Largest true diameter among recovered clusters (Lemma 9 requires
    /// O(D)).
    pub max_diameter: usize,
    /// Mean true diameter.
    pub mean_diameter: f64,
    /// Number of clusters recovered.
    pub count: usize,
}

/// Measure recovered clusters (player index lists) against the truth matrix.
pub fn cluster_quality(truth: &BitMatrix, clusters: &[Vec<u32>]) -> ClusterQuality {
    assert!(!clusters.is_empty(), "no clusters to evaluate");
    let mut min_size = usize::MAX;
    let mut max_diameter = 0usize;
    let mut sum = 0usize;
    for members in clusters {
        min_size = min_size.min(members.len());
        let d = truth.diameter_of(members);
        max_diameter = max_diameter.max(d);
        sum += d;
    }
    ClusterQuality {
        min_size,
        max_diameter,
        mean_diameter: sum as f64 / clusters.len() as f64,
        count: clusters.len(),
    }
}

/// Approximation ratios of achieved per-player errors against OPT bounds.
///
/// Returns `(vs_lower, vs_upper)`: max over players of `err/max(bound,1)`.
/// `vs_upper ≤ c` certifies a `c`-approximation (the achievable benchmark);
/// `vs_lower` is the pessimistic ratio against the unachievable lower bound.
pub fn approx_ratios(errors: &[usize], bounds: &OptBounds) -> (f64, f64) {
    assert_eq!(errors.len(), bounds.lower.len(), "length mismatch");
    let mut vs_lower: f64 = 0.0;
    let mut vs_upper: f64 = 0.0;
    for (p, &e) in errors.iter().enumerate() {
        vs_lower = vs_lower.max(e as f64 / bounds.lower[p].max(1) as f64);
        vs_upper = vs_upper.max(e as f64 / bounds.upper[p].max(1) as f64);
    }
    (vs_lower, vs_upper)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Balance, Workload};
    use byzscore_bitset::BitVec;

    #[test]
    fn error_report_basics() {
        let truth = BitMatrix::from_rows(&[
            BitVec::from_bools(&[true, true, false, false]),
            BitVec::from_bools(&[true, false, true, false]),
        ]);
        let mut out = truth.clone();
        out.set(1, 0, false); // one error for player 1
        let r = error_report(&out, &truth, None);
        assert_eq!(r.per_player.len(), 2);
        assert_eq!(r.max, 1);
        assert_eq!(r.mean, 0.5);
        assert_eq!(r.evaluated, 2);
    }

    #[test]
    fn error_report_honest_mask() {
        let truth = BitMatrix::zeros(3, 4);
        let mut out = truth.clone();
        out.set(2, 0, true);
        out.set(2, 1, true);
        let r = error_report(&out, &truth, Some(&[true, true, false]));
        assert_eq!(r.max, 0, "dishonest player 2 must be excluded");
        assert_eq!(r.evaluated, 2);
        let r_all = error_report(&out, &truth, None);
        assert_eq!(r_all.max, 2);
    }

    #[test]
    #[should_panic(expected = "zero players")]
    fn empty_report_panics() {
        ErrorReport::from_errors(vec![]);
    }

    #[test]
    fn p95_computation() {
        let errors: Vec<usize> = (1..=100).collect();
        let r = ErrorReport::from_errors(errors);
        assert_eq!(r.p95, 95);
        assert_eq!(r.max, 100);
    }

    #[test]
    fn opt_bounds_on_clones() {
        // Two exact clone classes: OPT for set_size ≤ class size is 0.
        let inst = Workload::CloneClasses {
            players: 16,
            objects: 64,
            classes: 2,
            balance: Balance::Even,
        }
        .generate(5);
        let b = opt_bounds(inst.truth(), 8);
        assert!(b.lower.iter().all(|&x| x == 0));
        assert!(b.upper.iter().all(|&x| x == 0));
    }

    #[test]
    fn opt_bounds_sandwich() {
        let inst = Workload::PlantedClusters {
            players: 32,
            objects: 128,
            clusters: 4,
            diameter: 8,
            balance: Balance::Even,
        }
        .generate(9);
        let b = opt_bounds(inst.truth(), 8);
        for p in 0..32 {
            assert!(b.lower[p] <= b.upper[p], "player {p}");
            // The planted cluster is a witness: upper ≤ its true diameter.
            let planted_diam = inst.planted_diameter_of(p).unwrap();
            assert!(
                b.upper[p] <= planted_diam.max(b.lower[p]) || b.upper[p] <= 8,
                "upper bound should not exceed planted diameter"
            );
        }

        // By definition, for each player: lower = distance to the
        // (set_size−1)-th nearest row, upper = diameter of those nearest
        // rows ∪ {p} (ties broken by row index, as the pairs sort).
        let tiny = Workload::UniformRandom {
            players: 3,
            objects: 32,
        }
        .generate(4);
        for (truth, set_size) in [(inst.truth(), 8), (inst.truth(), 32), (tiny.truth(), 2)] {
            let b = opt_bounds(truth, set_size);
            for p in 0..truth.rows() {
                let mut near: Vec<(usize, usize)> = (0..truth.rows())
                    .filter(|&q| q != p)
                    .map(|q| (truth.row(q).hamming(&truth.row(p)), q))
                    .collect();
                near.sort_unstable();
                near.truncate(set_size - 1);
                assert_eq!(b.lower[p], near[set_size - 2].0, "lower, player {p}");
                let set: Vec<usize> = near.iter().map(|&(_, q)| q).chain([p]).collect();
                let diameter = set
                    .iter()
                    .flat_map(|&a| set.iter().map(move |&c| (a, c)))
                    .map(|(a, c)| truth.row(a).hamming(&truth.row(c)))
                    .max();
                assert_eq!(Some(b.upper[p]), diameter, "upper, player {p}");
            }
        }
    }

    #[test]
    fn opt_bounds_set_size_one() {
        let inst = Workload::UniformRandom {
            players: 6,
            objects: 32,
        }
        .generate(1);
        let b = opt_bounds(inst.truth(), 1);
        assert!(b.lower.iter().all(|&x| x == 0));
        assert!(b.upper.iter().all(|&x| x == 0));
    }

    #[test]
    fn cluster_quality_measures() {
        let inst = Workload::CloneClasses {
            players: 12,
            objects: 32,
            classes: 3,
            balance: Balance::Even,
        }
        .generate(2);
        let planted = inst.planted().unwrap().clusters.clone();
        let q = cluster_quality(inst.truth(), &planted);
        assert_eq!(q.count, 3);
        assert_eq!(q.min_size, 4);
        assert_eq!(q.max_diameter, 0);
        assert_eq!(q.mean_diameter, 0.0);
    }

    #[test]
    fn approx_ratio_computation() {
        let bounds = OptBounds {
            lower: vec![2, 0],
            upper: vec![4, 1],
        };
        let (lo, up) = approx_ratios(&[8, 3], &bounds);
        assert_eq!(lo, 4.0); // max(8/2, 3/1)
        assert_eq!(up, 3.0); // max(8/4, 3/1)
    }
}
