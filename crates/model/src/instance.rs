//! Problem instances: hidden truth plus optional planted structure.

use byzscore_bitset::{BitMatrix, BitVec};

/// Planted cluster structure of a generated instance.
///
/// Workload generators record what they planted so experiments can measure
/// cluster recovery (Lemmas 8–9) and compare achieved error against the
/// planted diameter (Lemma 12 / Theorem 14).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Planted {
    /// For each player, the index of the cluster it was planted in.
    pub assignment: Vec<u32>,
    /// For each cluster, its member players (sorted).
    pub clusters: Vec<Vec<u32>>,
    /// The center vector each cluster was grown from.
    pub centers: Vec<BitVec>,
    /// Upper bound on intra-cluster diameter guaranteed by construction.
    pub target_diameter: usize,
    /// For the Claim-2 lower-bound distribution: the special object set `S`
    /// on which even clustered players disagree.
    pub special_objects: Option<Vec<u32>>,
}

impl Planted {
    /// Members of the cluster containing `player`.
    pub fn cluster_of(&self, player: usize) -> &[u32] {
        &self.clusters[self.assignment[player] as usize]
    }

    /// Size of the smallest planted cluster.
    pub fn min_cluster_size(&self) -> usize {
        self.clusters.iter().map(Vec::len).min().unwrap_or(0)
    }
}

/// A collaborative-scoring problem instance.
///
/// Holds the ground-truth preference matrix `v` — readable only through the
/// probe oracle during protocol execution — along with the generator's
/// planted structure (if any) for evaluation.
#[derive(Clone, Debug)]
pub struct Instance {
    truth: BitMatrix,
    planted: Option<Planted>,
    label: String,
    seed: u64,
}

impl Instance {
    /// Wrap a truth matrix into an instance.
    pub fn new(
        truth: BitMatrix,
        planted: Option<Planted>,
        label: impl Into<String>,
        seed: u64,
    ) -> Self {
        if let Some(p) = &planted {
            assert_eq!(
                p.assignment.len(),
                truth.rows(),
                "assignment covers all players"
            );
        }
        Instance {
            truth,
            planted,
            label: label.into(),
            seed,
        }
    }

    /// Number of players `n`.
    #[inline]
    pub fn players(&self) -> usize {
        self.truth.rows()
    }

    /// Number of objects (the paper's second `n`; may exceed players).
    #[inline]
    pub fn objects(&self) -> usize {
        self.truth.cols()
    }

    /// The hidden truth matrix. Protocol code must not touch this directly;
    /// it is read through the probe oracle, which meters probes.
    #[inline]
    pub fn truth(&self) -> &BitMatrix {
        &self.truth
    }

    /// Planted structure, when generated by a structured workload.
    #[inline]
    pub fn planted(&self) -> Option<&Planted> {
        self.planted.as_ref()
    }

    /// Human-readable workload label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Seed the instance was generated from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Exact diameter of the planted cluster containing `player`
    /// (`O(k²)` row distances), or `None` for unstructured instances.
    pub fn planted_diameter_of(&self, player: usize) -> Option<usize> {
        let p = self.planted.as_ref()?;
        Some(self.truth.diameter_of(p.cluster_of(player)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byzscore_bitset::Bits;

    #[test]
    fn instance_accessors() {
        let m = BitMatrix::zeros(4, 10);
        let inst = Instance::new(m, None, "blank", 42);
        assert_eq!(inst.players(), 4);
        assert_eq!(inst.objects(), 10);
        assert_eq!(inst.label(), "blank");
        assert_eq!(inst.seed(), 42);
        assert!(inst.planted().is_none());
        assert!(inst.planted_diameter_of(0).is_none());
        assert_eq!(inst.truth().row(0).count_ones(), 0);
    }

    #[test]
    fn planted_cluster_of() {
        let m = BitMatrix::zeros(4, 8);
        let planted = Planted {
            assignment: vec![0, 0, 1, 1],
            clusters: vec![vec![0, 1], vec![2, 3]],
            centers: vec![BitVec::zeros(8), BitVec::ones(8)],
            target_diameter: 0,
            special_objects: None,
        };
        let inst = Instance::new(m, Some(planted), "t", 0);
        assert_eq!(inst.planted().unwrap().cluster_of(2), &[2, 3]);
        assert_eq!(inst.planted().unwrap().min_cluster_size(), 2);
        assert_eq!(inst.planted_diameter_of(0), Some(0));
    }

    #[test]
    #[should_panic(expected = "assignment covers all players")]
    fn mismatched_assignment_panics() {
        let m = BitMatrix::zeros(4, 8);
        let planted = Planted {
            assignment: vec![0, 0],
            clusters: vec![vec![0, 1]],
            centers: vec![BitVec::zeros(8)],
            target_diameter: 0,
            special_objects: None,
        };
        Instance::new(m, Some(planted), "bad", 0);
    }
}
