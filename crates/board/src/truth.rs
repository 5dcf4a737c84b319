//! Pluggable truth sources: the abstract probe substrate behind [`crate::Oracle`].
//!
//! The paper's model (§2) only requires that a player can *probe* its own
//! hidden preference for an object; nothing forces the hidden matrix `v` to
//! exist in memory. [`TruthSource`] captures exactly that contract, with two
//! backends:
//!
//! * [`DenseTruth`] — an owned [`BitMatrix`]: the classic simulation
//!   substrate, `players × objects` bits of storage. Right for `n ≲ 10⁴`
//!   and whenever experiments need whole-matrix metrics (OPT bounds,
//!   planted-diameter audits).
//! * [`ProceduralTruth`] — derives planted-cluster bits from a
//!   [`ClusterSpec`] (seed + cluster model) without a `players × objects`
//!   matrix. Storage is `O(k·m)` for the `k` cluster centers plus each
//!   player's flip positions (at most `n·⌊D/2⌋` of them), which opens
//!   `n ≥ 10⁵` workloads the dense backend cannot hold.
//!
//! The two backends are *bit-identical* for the same spec:
//! [`ClusterSpec::materialize`] evaluates the procedural formula into a
//! dense matrix, and `tests/truth_equivalence.rs` pins end-to-end outcome
//! equality across every registry algorithm.

use std::sync::Arc;

use byzscore_bitset::{BitMatrix, BitVec, Bits};
use byzscore_random::derive_seed;

/// Read-only access to the hidden preference bits.
///
/// Implementations must be pure: `value(p, o)` never changes for the life
/// of the source, so memoized oracles, parallel phases, and repeated
/// protocol runs all observe one consistent world. Probe *metering* is not
/// the source's job — that belongs to [`crate::Oracle`], the only sanctioned
/// path from protocol code to a truth source.
pub trait TruthSource: Send + Sync {
    /// Number of players `n` (rows).
    fn players(&self) -> usize;

    /// Number of objects (columns).
    fn objects(&self) -> usize;

    /// The hidden preference of `player` for `object`.
    fn value(&self, player: u32, object: u32) -> bool;

    /// `player`'s full preference row, materialized.
    ///
    /// Default: one [`TruthSource::value`] call per object. Backends with a
    /// cheaper bulk path (dense rows, cluster centers) override this; it is
    /// used by omniscient adversary strategies and by outcome metrics, never
    /// by metered protocol code.
    fn row(&self, player: u32) -> BitVec {
        BitVec::from_fn(self.objects(), |o| self.value(player, o as u32))
    }
}

impl TruthSource for BitMatrix {
    fn players(&self) -> usize {
        self.rows()
    }

    fn objects(&self) -> usize {
        self.cols()
    }

    #[inline]
    fn value(&self, player: u32, object: u32) -> bool {
        self.get(player as usize, object as usize)
    }

    fn row(&self, player: u32) -> BitVec {
        self.row_to_bitvec(player as usize)
    }
}

/// The dense backend: an owned truth matrix.
///
/// Owning (rather than borrowing) the matrix is what removes the `'a`
/// lifetime that previously infected `Oracle<'a>` and everything downstream.
#[derive(Clone, Debug)]
pub struct DenseTruth {
    matrix: BitMatrix,
}

impl DenseTruth {
    /// Wrap an owned truth matrix.
    pub fn new(matrix: BitMatrix) -> Self {
        DenseTruth { matrix }
    }

    /// The underlying matrix.
    pub fn matrix(&self) -> &BitMatrix {
        &self.matrix
    }
}

impl TruthSource for DenseTruth {
    fn players(&self) -> usize {
        self.matrix.rows()
    }

    fn objects(&self) -> usize {
        self.matrix.cols()
    }

    #[inline]
    fn value(&self, player: u32, object: u32) -> bool {
        self.matrix.get(player as usize, object as usize)
    }

    fn row(&self, player: u32) -> BitVec {
        self.matrix.row_to_bitvec(player as usize)
    }
}

/// Planted-cluster model evaluated procedurally: `clusters` centers of
/// `objects` random bits each, every player assigned to a cluster
/// (even sizes, contiguous blocks) and differing from its center on at most
/// `diameter / 2` pseudo-randomly drawn objects — so intra-cluster pairwise
/// Hamming distance is at most `diameter`, matching the structure of
/// Definition 1 / Lemma 12 exactly like `Workload::PlantedClusters`.
///
/// Every bit is a pure function of `(seed, player, object)`: a player's
/// row is its cluster's center with the player's flip draws applied.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClusterSpec {
    /// Number of players `n`.
    pub players: usize,
    /// Number of objects.
    pub objects: usize,
    /// Number of planted clusters (≥ 1).
    pub clusters: usize,
    /// Target intra-cluster diameter `D`: members flip at most `D/2` center
    /// bits.
    pub diameter: usize,
    /// Master seed of the truth formula.
    pub seed: u64,
}

// Seed-derivation tags of the procedural formula. Truth bits and protocol
// randomness flow from different master seeds, so these only need to be
// distinct from each other.
const TAG_CENTER: u64 = 0x7c3a;
const TAG_FLIP_COUNT: u64 = 0x7f1c;
const TAG_FLIP_POS: u64 = 0x7f19;

impl ClusterSpec {
    /// Cluster index of `player` (even block assignment, same shape as
    /// `Balance::Even`: the first `players % clusters` clusters get one
    /// extra member).
    pub fn cluster_of(&self, player: u32) -> u32 {
        let p = player as usize;
        let base = self.players / self.clusters;
        let extra = self.players % self.clusters;
        let boundary = extra * (base + 1);
        if p < boundary {
            (p / (base + 1)) as u32
        } else {
            (extra + (p - boundary) / base) as u32
        }
    }

    /// Number of flip draws of `player` (0 ..= diameter/2).
    fn flip_count(&self, player: u32) -> usize {
        let budget = self.diameter / 2;
        if budget == 0 {
            return 0;
        }
        (derive_seed(self.seed, &[TAG_FLIP_COUNT, u64::from(player)]) % (budget as u64 + 1))
            as usize
    }

    /// The `i`-th flip position of `player`.
    #[inline]
    fn flip_pos(&self, player: u32, i: usize) -> u32 {
        (derive_seed(self.seed, &[TAG_FLIP_POS, u64::from(player), i as u64]) % self.objects as u64)
            as u32
    }

    /// One center bit.
    #[inline]
    fn center_bit(&self, cluster: u32, object: u32) -> bool {
        derive_seed(
            self.seed,
            &[TAG_CENTER, u64::from(cluster), u64::from(object)],
        ) & 1
            == 1
    }

    /// Materialize the full truth matrix this spec denotes — the dense twin
    /// of a [`ProceduralTruth`] over the same spec, bit for bit.
    pub fn materialize(&self) -> BitMatrix {
        let source = ProceduralTruth::new(self.clone());
        let rows: Vec<BitVec> = (0..self.players as u32).map(|p| source.row(p)).collect();
        BitMatrix::from_rows(&rows)
    }
}

/// The procedural backend: truth bits derived from a [`ClusterSpec`].
///
/// The `clusters × objects` center bits are cached (they are shared by
/// every member, and caching them makes `value` one XOR instead of one hash
/// per center bit), and so is each player's set of flipped objects, derived
/// once at construction: `value` reads it instead of re-hashing the flip
/// draws on every probe. Memory is `O(k·m + Σ flip counts)`, the sum at
/// most `n·⌊D/2⌋`, against `n·m` bits for the dense twin.
pub struct ProceduralTruth {
    spec: ClusterSpec,
    centers: Vec<BitVec>,
    /// Player `p`'s flipped objects are `flips[starts[p]..starts[p + 1]]`.
    starts: Vec<usize>,
    /// Each player's flipped objects, ascending. A position drawn an even
    /// number of times cancels and is not listed.
    flips: Vec<u32>,
}

impl ProceduralTruth {
    /// Build the source: the `k` center rows (`O(k·m)`) and every player's
    /// flipped objects (`O(Σ flip counts)` hashes).
    pub fn new(spec: ClusterSpec) -> Self {
        assert!(spec.clusters >= 1, "need at least one cluster");
        assert!(
            spec.players >= spec.clusters,
            "need at least one player per cluster"
        );
        assert!(spec.objects >= 1, "need at least one object");
        let centers = (0..spec.clusters as u32)
            .map(|c| BitVec::from_fn(spec.objects, |o| spec.center_bit(c, o as u32)))
            .collect();
        let mut starts = Vec::with_capacity(spec.players + 1);
        let mut flips = Vec::new();
        let mut drawn = Vec::new();
        starts.push(0);
        for p in 0..spec.players as u32 {
            drawn.clear();
            drawn.extend((0..spec.flip_count(p)).map(|i| spec.flip_pos(p, i)));
            drawn.sort_unstable();
            let from = flips.len();
            for &o in &drawn {
                // Flips are a parity: a position drawn twice cancels.
                if flips.len() > from && flips.last() == Some(&o) {
                    flips.pop();
                } else {
                    flips.push(o);
                }
            }
            starts.push(flips.len());
        }
        ProceduralTruth {
            spec,
            centers,
            starts,
            flips,
        }
    }

    /// The generating spec.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Cluster centers (one per cluster).
    pub fn centers(&self) -> &[BitVec] {
        &self.centers
    }

    /// Per-player cluster assignment (computed, `O(n)` to list).
    pub fn assignment(&self) -> Vec<u32> {
        (0..self.spec.players as u32)
            .map(|p| self.spec.cluster_of(p))
            .collect()
    }

    /// Cluster member lists (sorted, `O(n)` to list).
    pub fn clusters(&self) -> Vec<Vec<u32>> {
        let mut out = vec![Vec::new(); self.spec.clusters];
        for p in 0..self.spec.players as u32 {
            out[self.spec.cluster_of(p) as usize].push(p);
        }
        out
    }

    /// Dense twin of this source (same bits; see [`ClusterSpec::materialize`]).
    pub fn materialize(&self) -> BitMatrix {
        self.spec.materialize()
    }

    /// The objects on which `player` differs from its center, ascending.
    #[inline]
    fn flipped(&self, player: u32) -> &[u32] {
        let p = player as usize;
        &self.flips[self.starts[p]..self.starts[p + 1]]
    }
}

impl TruthSource for ProceduralTruth {
    fn players(&self) -> usize {
        self.spec.players
    }

    fn objects(&self) -> usize {
        self.spec.objects
    }

    #[inline]
    fn value(&self, player: u32, object: u32) -> bool {
        let c = self.spec.cluster_of(player) as usize;
        self.centers[c].get(object as usize) ^ self.flipped(player).binary_search(&object).is_ok()
    }

    fn row(&self, player: u32) -> BitVec {
        let mut row = self.centers[self.spec.cluster_of(player) as usize].clone();
        for &o in self.flipped(player) {
            row.flip(o as usize);
        }
        row
    }
}

/// A view of an inner truth source through an identity map: slot `p` of
/// the view reads row `map[p]` of the inner source.
///
/// This is the substrate half of **churn**: a dynamic world draws its
/// population from a fixed pool source (dense or procedural — the adapter
/// is backend-agnostic), and between protocol executions the runner
/// retires some slots and maps fresh pool identities in. Each
/// `RemappedTruth` is immutable, preserving the [`TruthSource`] purity
/// contract; the *sequence* of maps carries the dynamics.
pub struct RemappedTruth {
    inner: Arc<dyn TruthSource>,
    map: Vec<u32>,
}

impl RemappedTruth {
    /// View `inner` through `map` (slot → inner row). Every entry must be
    /// a valid inner row.
    pub fn new(inner: Arc<dyn TruthSource>, map: Vec<u32>) -> Self {
        let rows = inner.players();
        assert!(
            map.iter().all(|&r| (r as usize) < rows),
            "identity map points past the {rows}-row pool"
        );
        RemappedTruth { inner, map }
    }

    /// The identity map (slot → inner row).
    pub fn map(&self) -> &[u32] {
        &self.map
    }

    /// The pool source being viewed.
    pub fn inner(&self) -> &Arc<dyn TruthSource> {
        &self.inner
    }
}

impl TruthSource for RemappedTruth {
    fn players(&self) -> usize {
        self.map.len()
    }

    fn objects(&self) -> usize {
        self.inner.objects()
    }

    #[inline]
    fn value(&self, player: u32, object: u32) -> bool {
        self.inner.value(self.map[player as usize], object)
    }

    fn row(&self, player: u32) -> BitVec {
        self.inner.row(self.map[player as usize])
    }
}

/// Conversion into a shared truth source, so constructors like
/// [`crate::Oracle::new`] accept a borrowed matrix (cloned), an owned
/// backend, or an already-shared `Arc` without ceremony.
pub trait IntoTruthSource {
    /// Convert into a shared, type-erased truth source.
    fn into_truth_source(self) -> Arc<dyn TruthSource>;
}

impl IntoTruthSource for Arc<dyn TruthSource> {
    fn into_truth_source(self) -> Arc<dyn TruthSource> {
        self
    }
}

impl IntoTruthSource for BitMatrix {
    fn into_truth_source(self) -> Arc<dyn TruthSource> {
        Arc::new(DenseTruth::new(self))
    }
}

impl IntoTruthSource for &BitMatrix {
    fn into_truth_source(self) -> Arc<dyn TruthSource> {
        Arc::new(DenseTruth::new(self.clone()))
    }
}

impl IntoTruthSource for DenseTruth {
    fn into_truth_source(self) -> Arc<dyn TruthSource> {
        Arc::new(self)
    }
}

impl IntoTruthSource for ProceduralTruth {
    fn into_truth_source(self) -> Arc<dyn TruthSource> {
        Arc::new(self)
    }
}

impl IntoTruthSource for RemappedTruth {
    fn into_truth_source(self) -> Arc<dyn TruthSource> {
        Arc::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byzscore_bitset::Bits;

    fn spec(players: usize, objects: usize) -> ClusterSpec {
        ClusterSpec {
            players,
            objects,
            clusters: 4,
            diameter: 8,
            seed: 0xabcd,
        }
    }

    #[test]
    fn bitmatrix_is_a_truth_source() {
        let m = BitMatrix::from_rows(&[
            BitVec::from_bools(&[true, false]),
            BitVec::from_bools(&[false, true]),
        ]);
        let t: &dyn TruthSource = &m;
        assert_eq!(t.players(), 2);
        assert_eq!(t.objects(), 2);
        assert!(t.value(0, 0));
        assert!(!t.value(0, 1));
        assert_eq!(t.row(1).count_ones(), 1);
    }

    #[test]
    fn dense_matches_matrix() {
        let m = BitMatrix::from_rows(&[BitVec::from_bools(&[true, true, false])]);
        let d = DenseTruth::new(m.clone());
        for o in 0..3 {
            assert_eq!(d.value(0, o), m.get(0, o as usize));
        }
        assert_eq!(d.matrix(), &m);
    }

    #[test]
    fn procedural_is_deterministic_and_seed_sensitive() {
        let a = ProceduralTruth::new(spec(32, 64));
        let b = ProceduralTruth::new(spec(32, 64));
        let mut c_spec = spec(32, 64);
        c_spec.seed ^= 1;
        let c = ProceduralTruth::new(c_spec);
        let mut differs = false;
        for p in 0..32u32 {
            for o in 0..64u32 {
                assert_eq!(a.value(p, o), b.value(p, o));
                differs |= a.value(p, o) != c.value(p, o);
            }
        }
        assert!(differs, "distinct seeds must give distinct truths");
    }

    #[test]
    fn procedural_matches_its_materialization() {
        let t = ProceduralTruth::new(spec(48, 96));
        let m = t.materialize();
        for p in 0..48u32 {
            assert_eq!(t.row(p), m.row_to_bitvec(p as usize), "row {p}");
            for o in (0..96u32).step_by(7) {
                assert_eq!(t.value(p, o), m.get(p as usize, o as usize));
            }
        }
    }

    /// The per-probe formula the flip table caches: `player`'s center bit,
    /// inverted once per flip draw that lands on `object`.
    fn reference_value(spec: &ClusterSpec, player: u32, object: u32) -> bool {
        let mut bit = spec.center_bit(spec.cluster_of(player), object);
        for i in 0..spec.flip_count(player) {
            if spec.flip_pos(player, i) == object {
                bit = !bit;
            }
        }
        bit
    }

    #[test]
    fn flip_table_matches_the_per_probe_formula() {
        // Four objects under D = 17 (eight draws) force repeated flip
        // positions, whose parity must cancel.
        for (objects, diameter) in [(40, 0), (40, 1), (40, 2), (130, 17), (4, 17)] {
            let s = ClusterSpec {
                players: 24,
                objects,
                clusters: 3,
                diameter,
                seed: 0x5eed + diameter as u64,
            };
            let t = ProceduralTruth::new(s.clone());
            let dense = s.materialize();
            assert_eq!(t.materialize(), dense);
            for p in 0..24u32 {
                let want = BitVec::from_fn(objects, |o| reference_value(&s, p, o as u32));
                assert_eq!(t.row(p), want, "D={diameter} row {p}");
                assert_eq!(
                    dense.row_to_bitvec(p as usize),
                    want,
                    "D={diameter} row {p}"
                );
                for o in 0..objects as u32 {
                    assert_eq!(
                        t.value(p, o),
                        reference_value(&s, p, o),
                        "D={diameter} ({p}, {o})"
                    );
                }
            }
        }
        let s = ClusterSpec {
            players: 24,
            objects: 4,
            clusters: 3,
            diameter: 17,
            seed: 0x5eed + 17,
        };
        let repeats = (0..24u32).any(|p| {
            let mut drawn: Vec<u32> = (0..s.flip_count(p)).map(|i| s.flip_pos(p, i)).collect();
            drawn.sort_unstable();
            drawn.windows(2).any(|w| w[0] == w[1])
        });
        assert!(repeats, "some flip position must repeat");
    }

    #[test]
    fn procedural_respects_diameter() {
        let t = ProceduralTruth::new(spec(64, 256));
        let m = t.materialize();
        for members in t.clusters() {
            let diam = m.diameter_of(&members);
            assert!(diam <= 8, "cluster diameter {diam} > spec diameter 8");
        }
    }

    #[test]
    fn even_assignment_matches_balance_even() {
        // 10 players, 4 clusters: sizes 3,3,2,2 — contiguous blocks.
        let s = ClusterSpec {
            players: 10,
            objects: 4,
            clusters: 4,
            diameter: 0,
            seed: 1,
        };
        let assignment: Vec<u32> = (0..10).map(|p| s.cluster_of(p)).collect();
        assert_eq!(assignment, vec![0, 0, 0, 1, 1, 1, 2, 2, 3, 3]);
        let t = ProceduralTruth::new(s);
        assert_eq!(
            t.clusters().iter().map(Vec::len).collect::<Vec<_>>(),
            vec![3, 3, 2, 2]
        );
    }

    #[test]
    fn zero_diameter_gives_exact_clones() {
        let s = ClusterSpec {
            players: 12,
            objects: 40,
            clusters: 3,
            diameter: 0,
            seed: 9,
        };
        let t = ProceduralTruth::new(s);
        for members in t.clusters() {
            for w in members.windows(2) {
                assert_eq!(t.row(w[0]), t.row(w[1]), "clones must be identical");
            }
        }
    }

    #[test]
    fn remapped_reads_through_the_map() {
        let pool = spec(16, 32);
        let t = ProceduralTruth::new(pool);
        let dense = t.materialize();
        let map = vec![3u32, 3, 15, 0];
        let view = RemappedTruth::new(Arc::new(t), map.clone());
        assert_eq!(view.players(), 4);
        assert_eq!(view.objects(), 32);
        for (slot, &row) in map.iter().enumerate() {
            assert_eq!(view.row(slot as u32), dense.row_to_bitvec(row as usize));
            assert_eq!(view.value(slot as u32, 7), dense.get(row as usize, 7));
        }
        assert_eq!(view.map(), &map[..]);
    }

    #[test]
    #[should_panic(expected = "past the")]
    fn remapped_rejects_out_of_pool_rows() {
        let t = ProceduralTruth::new(spec(8, 16));
        RemappedTruth::new(Arc::new(t), vec![8]);
    }

    #[test]
    fn into_truth_source_conversions() {
        let m = BitMatrix::zeros(2, 2);
        let a = (&m).into_truth_source();
        let b = m.clone().into_truth_source();
        assert_eq!(a.players(), b.players());
        let arc: Arc<dyn TruthSource> = Arc::new(DenseTruth::new(m));
        assert_eq!(arc.clone().into_truth_source().objects(), 2);
    }
}
