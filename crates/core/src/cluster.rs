//! Step 1.d: neighbor discovery over sample vectors and greedy cluster
//! peeling (§6.5, Lemmas 8–9).
//!
//! The Lemma-8 edge set — `(p, q)` is an edge iff `|z(p) − z(q)| ≤ τ` — is
//! produced by a [`NeighborIndex`] through **one pipeline at every `n`**:
//!
//! 1. **Group** bit-identical `z`-vectors (hash-bucket, confirm with
//!    [`bits_eq`](byzscore_bitset::Bits::bits_eq)). Distance-0 players are
//!    neighbors at any `τ ≥ 0` and `|z(p) − z(q)|` depends only on the
//!    groups of `p` and `q`, so the edge set is exactly "same group, or
//!    groups whose representatives are within `τ`": it factors through the
//!    `G ≤ n` groups. `SmallRadius`/sample outputs collapse heavily inside
//!    planted clusters, so `G` is usually far below `n` and the quadratic
//!    part shrinks by `(G/n)²`; when nothing collapses (`G = n`) the group
//!    graph *is* the player graph and the pipeline costs one extra hash
//!    pass.
//! 2. **Index the representatives.** One of four representative indexes
//!    answers "which groups are within `τ` of group `g`":
//!    * *complete* — `τ ≥ |S|`, every pair is an edge (the empty-sample
//!      sabotage case); nothing is stored;
//!    * *exact* — the literal all-pairs bounded-distance pass over the
//!      representatives, adjacency materialized;
//!    * *banded* — a **sound** bit-bucketing prefilter: the `|S|` sample
//!      coordinates are split into `τ + 1` disjoint bands, and by
//!      pigeonhole any pair within distance `τ` agrees **exactly** on at
//!      least one band. Only pairs sharing a band bucket are candidates.
//!      When `τ + 1` bands would be narrower than `MIN_BAND_BITS` it
//!      *multi-probes* instead: `⌊τ/2⌋ + 1` wider bands, of which some
//!      band differs in at most one bit, so probing the exact bucket plus
//!      every single-bit-flip bucket keeps the prune sound;
//!    * *scan* — even probe bands too narrow: every pair is checked on
//!      demand behind a per-band popcount prefilter (the L1 distance of
//!      two popcount profiles lower-bounds the Hamming distance).
//!
//!    Every candidate any prefilter lets through is verified with an exact
//!    [`hamming_within`](byzscore_bitset::Bits::hamming_within) — the
//!    prefilters only prune, never decide — so all four produce the
//!    identical edge set. [`NeighborStrategy::Auto`] materializes up to
//!    [`AUTO_EXACT_MAX`] representatives and picks among banded /
//!    multi-probe / scan by band width beyond; `Exact` and `Banded` force
//!    the choice (how tests and the kernel bench reach each kind).
//! 3. **Peel once**, over the group graph ([`NeighborIndex::peel`]):
//!    groups live and die wholesale and carry their multiplicity as
//!    weight, so the output is identical to the player-level reference
//!    ([`neighbor_graph`] + [`peel_clusters`], which share no code with
//!    the index and are what the tests compare against).
//!
//! # Why one pipeline
//!
//! Earlier revisions also kept a player-level index (banded buckets and a
//! blocked scan over all `n` rows, with their own peel), a `Grouped`
//! strategy beside `Auto`, a "weak collapse" fallback (`G > 7n/8` → band
//! the players directly) and an `n ≤ 4096` cut below which `Auto` never
//! grouped. A census of every index build (one line per build, printed
//! from a scratch copy) decided what stays:
//!
//! | where | builds | path taken |
//! |---|---|---|
//! | `run_all` quick scale (CI's bench gate), 21 837 builds | 8 455 | players materialized (`n ≤ 4096`) |
//! | | 7 928 | complete (`τ ≥ len`, the empty-sample case) |
//! | | 20 | grouped, representatives materialized (n = 10⁴, G 2 310–2 628) |
//! | | 1 / 1 / 3 | grouped, representatives banded / multi-probe / scan (e13 n = 10⁵, G = 18 427) |
//! | | 2 702 | the service shard map's grouping at `τ = 0` |
//! | | **0** | weak-collapse fallback |
//! | | **0** | a player-level banded / scan index |
//! | `perf` `batch_paper` (n = 512) | 63 / 17 | players materialized / complete |
//! | `perf` `batch_scale` (n = 8192) | 60 / 24 | grouped, G 1 963–2 052, representatives materialized / complete |
//! | `perf` serve / socket workloads (n ≈ 96) | 3 + 3 + 1 per recompute | materialized, complete, shard map |
//!
//! The player-level lazy index and the fallback ran only when a test
//! asked for them by name. Grouping first makes the materialized pass no larger
//! (`G ≤ n`), so the player-level paths are gone and the same input takes
//! the same code path at every size. The census's service "shard map"
//! rows are gone too: the service engine answers in one ordered pass
//! and groups nothing outside the scoring run.

use std::collections::HashMap;
use std::sync::Arc;

use byzscore_bitset::{BitMatrix, BitVec, Bits};
use byzscore_board::par::par_map_players;

/// A clustering of the players.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Clustering {
    /// For each player, the index of its cluster.
    pub assignment: Vec<u32>,
    /// Member lists (each sorted ascending).
    pub clusters: Vec<Vec<u32>>,
}

impl Clustering {
    /// Members of `player`'s cluster.
    pub fn cluster_of(&self, player: u32) -> &[u32] {
        &self.clusters[self.assignment[player as usize] as usize]
    }

    /// Size of the smallest cluster (Lemma 9 property 2: ≥ n/B).
    pub fn min_size(&self) -> usize {
        self.clusters.iter().map(Vec::len).min().unwrap_or(0)
    }

    /// Everyone in exactly one cluster (Lemma 9 property 1).
    pub fn is_partition(&self) -> bool {
        let n = self.assignment.len();
        let mut seen = vec![false; n];
        for members in &self.clusters {
            for &p in members {
                if seen[p as usize] {
                    return false;
                }
                seen[p as usize] = true;
            }
        }
        seen.into_iter().all(|s| s)
    }
}

/// Which representative index a [`NeighborIndex`] builds over the `G`
/// distinct `z`-vectors (grouping always runs first; see the module docs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum NeighborStrategy {
    /// Pick per input shape: materialize up to [`AUTO_EXACT_MAX`]
    /// representatives, band (or multi-probe, or scan, by band width)
    /// beyond.
    #[default]
    Auto,
    /// Force the all-pairs `O(G²)` bounded-distance pass with materialized
    /// group adjacency.
    Exact,
    /// Force the banded family (banded / multi-probe / scan by band
    /// width); group adjacency is never materialized.
    Banded,
}

/// Largest representative count for which [`NeighborStrategy::Auto`] still
/// picks the materialized exact pass.
pub const AUTO_EXACT_MAX: usize = 4096;

/// Minimum band width (bits) for the banded prefilter to be worth its
/// bucket overhead; below this the prune keeps nearly every pair and the
/// index degrades to an unmaterialized blocked scan.
const MIN_BAND_BITS: usize = 16;

/// Width (bits) of the popcount-profile bands backing the scan-mode
/// prefilter.
const PC_BAND_BITS: usize = 8;

/// Index over the pairwise-distinct representative rows; answers only
/// "which groups are within `τ` of group `g`".
enum RepIndex {
    /// `threshold ≥ |S|`: every pair is an edge; nothing is stored.
    Complete,
    /// Full group adjacency lists (sorted ascending).
    Materialized(Vec<Vec<u32>>),
    /// Banded prefilter: per-band hash buckets prune candidate pairs
    /// (exact-match bands, or wider multi-probe bands at mid-range `τ`).
    Banded(Bands),
    /// Bands too narrow even for multi-probe: verify every pair on demand
    /// with the blocked kernel behind a per-band popcount prefilter; never
    /// materialize.
    Scan(PopFilter),
}

struct Bands {
    /// Number of bands (`threshold + 1`, or `⌊threshold/2⌋ + 1` when
    /// multi-probing).
    k: usize,
    /// Vector length (needed to recompute band boundaries for probing).
    len: usize,
    /// Single-bit-flip probing active (mid-`τ` mode).
    probe: bool,
    /// `keys[g * k + j]` = FNV hash of row `g`'s bits in band `j`.
    keys: Vec<u64>,
    /// Raw band contents (`≤ 64` bits each); only filled when probing,
    /// where flipped-key computation needs them.
    contents: Vec<u64>,
    /// Per-band: band key → rows carrying it (ascending, by build order).
    buckets: Vec<HashMap<u64, Vec<u32>>>,
}

impl Bands {
    fn build(rows: &BitMatrix, k: usize, probe: bool) -> Bands {
        let n = rows.rows();
        let len = rows.cols();
        let mut keys = Vec::with_capacity(n * k);
        let mut contents = Vec::with_capacity(if probe { n * k } else { 0 });
        let mut buckets: Vec<HashMap<u64, Vec<u32>>> = (0..k).map(|_| HashMap::new()).collect();
        for p in 0..n {
            let words = rows.row(p);
            for (j, bucket) in buckets.iter_mut().enumerate() {
                let (start, end) = band_range(len, k, j);
                let key = if probe {
                    debug_assert!(end - start <= 64, "multi-probe bands must fit one word");
                    let content = extract_bits(words.words(), start, end - start);
                    contents.push(content);
                    fnv_u64(content)
                } else {
                    band_key(words.words(), start, end)
                };
                keys.push(key);
                bucket.entry(key).or_default().push(p as u32);
            }
        }
        Bands {
            k,
            len,
            probe,
            keys,
            contents,
            buckets,
        }
    }

    #[inline]
    fn key(&self, p: usize, j: usize) -> u64 {
        self.keys[p * self.k + j]
    }

    /// True iff `p` and `q` share a band key strictly before band `j` —
    /// the dedup rule: a candidate pair is processed only at its *first*
    /// shared band.
    #[inline]
    fn shares_band_before(&self, p: usize, q: usize, j: usize) -> bool {
        (0..j).any(|i| self.key(p, i) == self.key(q, i))
    }

    /// Visit every distinct candidate `q ≠ p` sharing at least one band
    /// bucket with `p`, exactly once.
    fn for_candidates(&self, p: usize, mut f: impl FnMut(usize)) {
        if !self.probe {
            for (j, bucket_map) in self.buckets.iter().enumerate() {
                let Some(bucket) = bucket_map.get(&self.key(p, j)) else {
                    continue;
                };
                for &q32 in bucket {
                    let q = q32 as usize;
                    if q != p && !self.shares_band_before(p, q, j) {
                        f(q);
                    }
                }
            }
            return;
        }
        // Multi-probe: with `k = ⌊τ/2⌋ + 1` bands a pair within `τ` has
        // some band differing in at most `⌊τ/k⌋ ≤ 1` bits, so its bucket is
        // reached either by the exact key or by flipping exactly one bit of
        // `p`'s band content. A candidate can surface through several
        // probes; collect + sort + dedup, order never matters to callers.
        let mut cands: Vec<u32> = Vec::new();
        for (j, bucket_map) in self.buckets.iter().enumerate() {
            if let Some(bucket) = bucket_map.get(&self.key(p, j)) {
                cands.extend_from_slice(bucket);
            }
            let (start, end) = band_range(self.len, self.k, j);
            let content = self.contents[p * self.k + j];
            for bit in 0..(end - start) {
                if let Some(bucket) = bucket_map.get(&fnv_u64(content ^ (1u64 << bit))) {
                    cands.extend_from_slice(bucket);
                }
            }
        }
        cands.sort_unstable();
        cands.dedup();
        for q32 in cands {
            let q = q32 as usize;
            if q != p {
                f(q);
            }
        }
    }
}

/// Per-band popcount profiles: the L1 distance between two rows' profiles
/// lower-bounds their Hamming distance (each band contributes at least
/// `|pc_j(p) − pc_j(q)|` differing bits), so scan-mode pair checks reject
/// far pairs from a handful of byte-sized counters.
struct PopFilter {
    k: usize,
    counts: Vec<u16>,
}

impl PopFilter {
    fn build(rows: &BitMatrix) -> PopFilter {
        let n = rows.rows();
        let len = rows.cols();
        let k = (len / PC_BAND_BITS).clamp(1, 64);
        let mut counts = Vec::with_capacity(n * k);
        for p in 0..n {
            let words = rows.row(p);
            for j in 0..k {
                let (start, end) = band_range(len, k, j);
                counts.push(popcount_range(words.words(), start, end) as u16);
            }
        }
        PopFilter { k, counts }
    }

    /// True iff the popcount lower bound does not already exceed
    /// `threshold` (a `false` is a proven non-edge; a `true` still needs
    /// exact verification).
    #[inline]
    fn admits(&self, p: usize, q: usize, threshold: usize) -> bool {
        let a = &self.counts[p * self.k..(p + 1) * self.k];
        let b = &self.counts[q * self.k..(q + 1) * self.k];
        let mut l1 = 0usize;
        for (x, y) in a.iter().zip(b) {
            l1 += x.abs_diff(*y) as usize;
        }
        l1 <= threshold
    }
}

/// The banded-family index for this shape: exact-match bands when `τ+1`
/// bands are wide enough, multi-probe bands at mid-`τ`, prefiltered scan
/// beyond.
fn banded_mode(rows: &BitMatrix, threshold: usize) -> RepIndex {
    let len = rows.cols();
    let k_exact = threshold + 1;
    let k_probe = threshold / 2 + 1;
    if len / k_exact >= MIN_BAND_BITS {
        RepIndex::Banded(Bands::build(rows, k_exact, false))
    } else if len / k_probe >= MIN_BAND_BITS {
        // `len < MIN·(τ+1) ≤ 2·MIN·k_probe` here, so probe bands are
        // < 2·MIN = 32 bits — they fit one word.
        RepIndex::Banded(Bands::build(rows, k_probe, true))
    } else {
        RepIndex::Scan(PopFilter::build(rows))
    }
}

/// The `τ`-independent half of discovery: which players carry
/// bit-identical vectors, and one copy of each distinct vector. Built
/// once per set of `z`-vectors and shared (by `Arc`) by every
/// per-threshold [`NeighborIndex`] a [`GroupCache`] hands out.
struct Groups {
    /// Player → group id (ids in order of first appearance).
    group_of: Vec<u32>,
    /// Group member lists, each ascending; `members[g][0]` is the
    /// representative (and the group's smallest player index).
    members: Vec<Vec<u32>>,
    /// Row `g` is the vector every member of group `g` carries.
    reps: BitMatrix,
}

impl Groups {
    /// Group `rows` by bit-identical content.
    fn build(rows: &BitMatrix) -> Groups {
        let (group_of, members) = group_rows(rows);
        let mut reps = BitMatrix::zeros(members.len(), rows.cols());
        for (g, m) in members.iter().enumerate() {
            reps.set_row(g, &rows.row(m[0] as usize));
        }
        Groups {
            group_of,
            members,
            reps,
        }
    }

    /// The vector player `p` carries.
    fn row_of(&self, p: usize) -> impl Bits + '_ {
        self.reps.row(self.group_of[p] as usize)
    }
}

/// Group rows by bit-identical content: hash-bucket candidates, confirm
/// with exact word comparison so hash collisions cannot merge groups.
/// Group ids are assigned in first-appearance order.
fn group_rows(rows: &BitMatrix) -> (Vec<u32>, Vec<Vec<u32>>) {
    let mut by_hash: HashMap<u64, Vec<u32>> = HashMap::new();
    let mut group_of = Vec::with_capacity(rows.rows());
    let mut members: Vec<Vec<u32>> = Vec::new();
    for (p, row) in rows.iter_rows().enumerate() {
        let ids = by_hash.entry(row.content_hash()).or_default();
        let gid = ids
            .iter()
            .copied()
            .find(|&g| rows.row(members[g as usize][0] as usize).bits_eq(&row))
            .unwrap_or_else(|| {
                let g = members.len() as u32;
                members.push(Vec::new());
                ids.push(g);
                g
            });
        group_of.push(gid);
        members[gid as usize].push(p as u32);
    }
    (group_of, members)
}

/// Band `j` of a `k`-band split covers bits `[j·len/k, (j+1)·len/k)`.
#[inline]
fn band_range(len: usize, k: usize, j: usize) -> (usize, usize) {
    (j * len / k, (j + 1) * len / k)
}

/// `count ≤ 64` bits of `words` starting at bit `start`, as a `u64`.
#[inline]
fn extract_bits(words: &[u64], start: usize, count: usize) -> u64 {
    debug_assert!((1..=64).contains(&count));
    let w = start / 64;
    let off = start % 64;
    let mut v = words[w] >> off;
    if off + count > 64 {
        v |= words[w + 1] << (64 - off);
    }
    if count < 64 {
        v &= (1u64 << count) - 1;
    }
    v
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// One-chunk FNV-1a — [`band_key`] specialized to a `≤ 64`-bit band, the
/// form multi-probe flips recompute per candidate key.
#[inline]
fn fnv_u64(v: u64) -> u64 {
    (FNV_OFFSET ^ v).wrapping_mul(FNV_PRIME)
}

/// FNV-1a hash of the band's bits, in 64-bit chunks. Equal band contents
/// always hash equal, so bucketing by hash key keeps the prune sound;
/// hash collisions only add candidates, which verification discards.
fn band_key(words: &[u64], start: usize, end: usize) -> u64 {
    let mut h: u64 = FNV_OFFSET;
    let mut pos = start;
    while pos < end {
        let take = (end - pos).min(64);
        h ^= extract_bits(words, pos, take);
        h = h.wrapping_mul(FNV_PRIME);
        pos += take;
    }
    h
}

/// Set bits in `words[start..end)` (bit positions).
fn popcount_range(words: &[u64], start: usize, end: usize) -> usize {
    let mut count = 0usize;
    let mut pos = start;
    while pos < end {
        let take = (end - pos).min(64);
        count += extract_bits(words, pos, take).count_ones() as usize;
        pos += take;
    }
    count
}

/// Neighbor discovery over sample vectors: the Lemma-8 edge set
/// `(p, q) ⇔ |z(p) − z(q)| ≤ threshold`, held as a grouping of the
/// players plus an index over the group representatives (see the module
/// docs) — player adjacency is never materialized.
pub struct NeighborIndex {
    threshold: usize,
    groups: Arc<Groups>,
    reps: RepIndex,
}

impl NeighborIndex {
    /// Build an index over `zvecs` (equal-length sample vectors) for the
    /// given edge `threshold`.
    pub fn build(zvecs: &[BitVec], threshold: usize, strategy: NeighborStrategy) -> NeighborIndex {
        GroupCache::build(zvecs, strategy).index(threshold)
    }

    /// Index the representatives of an existing grouping at `threshold`.
    fn over(groups: Arc<Groups>, threshold: usize, strategy: NeighborStrategy) -> NeighborIndex {
        let rows = &groups.reps;
        let reps = if threshold >= rows.cols() {
            RepIndex::Complete
        } else {
            match strategy {
                NeighborStrategy::Auto if rows.rows() > AUTO_EXACT_MAX => {
                    banded_mode(rows, threshold)
                }
                NeighborStrategy::Auto | NeighborStrategy::Exact => {
                    RepIndex::Materialized(materialize(rows, threshold))
                }
                NeighborStrategy::Banded => banded_mode(rows, threshold),
            }
        };
        NeighborIndex {
            threshold,
            groups,
            reps,
        }
    }

    /// Number of players indexed.
    pub fn n(&self) -> usize {
        self.groups.group_of.len()
    }

    /// The edge threshold `τ`.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Which representative index answers queries (`"complete"`,
    /// `"exact"`, `"banded"`, `"multiprobe"`, or `"scan"`) — for logs and
    /// bench labels.
    pub fn mode_name(&self) -> &'static str {
        match &self.reps {
            RepIndex::Complete => "complete",
            RepIndex::Materialized(_) => "exact",
            RepIndex::Banded(bands) if bands.probe => "multiprobe",
            RepIndex::Banded(_) => "banded",
            RepIndex::Scan(_) => "scan",
        }
    }

    /// Enumerate the groups adjacent to group `g` (representatives within
    /// `τ`, exact-verified), each exactly once, in unspecified order —
    /// the primitive every query shares.
    fn for_each_adjacent_group(&self, g: usize, mut f: impl FnMut(usize)) {
        let rows = &self.groups.reps;
        let within = |h: usize| {
            rows.row(g)
                .hamming_within(&rows.row(h), self.threshold)
                .is_some()
        };
        match &self.reps {
            RepIndex::Complete => (0..rows.rows()).filter(|&h| h != g).for_each(f),
            RepIndex::Materialized(adj) => adj[g].iter().for_each(|&h| f(h as usize)),
            RepIndex::Banded(bands) => bands.for_candidates(g, |h| {
                if within(h) {
                    f(h);
                }
            }),
            RepIndex::Scan(filter) => {
                for h in 0..rows.rows() {
                    if h != g && filter.admits(g, h, self.threshold) && within(h) {
                        f(h);
                    }
                }
            }
        }
    }

    /// All neighbors of `p`, ascending — identical across strategies:
    /// `p`'s group mates plus every member of each adjacent group.
    pub fn neighbors_of(&self, p: usize) -> Vec<u32> {
        let members = &self.groups.members;
        let g = self.groups.group_of[p] as usize;
        let mut out: Vec<u32> = members[g]
            .iter()
            .copied()
            .filter(|&q| q as usize != p)
            .collect();
        self.for_each_adjacent_group(g, |h| out.extend_from_slice(&members[h]));
        out.sort_unstable();
        out
    }

    /// Per-group degree: every member of a group has the same neighbor
    /// count (`|group| − 1` mates plus each adjacent group's multiplicity).
    fn group_degrees(&self) -> Vec<usize> {
        let members = &self.groups.members;
        par_map_players(members.len(), |g| {
            let mut deg = members[g].len() - 1;
            self.for_each_adjacent_group(g, |h| deg += members[h].len());
            deg
        })
    }

    /// Degree of every player (neighbor counts).
    pub fn degrees(&self) -> Vec<usize> {
        let gdeg = self.group_degrees();
        self.groups
            .group_of
            .iter()
            .map(|&g| gdeg[g as usize])
            .collect()
    }

    /// Materialize the full player adjacency (sorted rows). Intended for
    /// tests and small inputs; defeats the purpose of the index at scale.
    pub fn adjacency(&self) -> Vec<Vec<u32>> {
        par_map_players(self.n(), |p| self.neighbors_of(p))
    }

    /// Greedy peeling of §6.5 over the group graph — output is identical
    /// to [`peel_clusters`] on the exact player edge set (pinned by
    /// tests):
    ///
    /// 1. While some remaining player has ≥ `min_size − 1` remaining
    ///    neighbors, peel it and its neighbors off as a new cluster.
    /// 2. Attach every leftover player to a cluster containing one of its
    ///    original neighbors; degenerate leftovers join the cluster whose
    ///    first member's `z` is closest (total-function fallback — wrong
    ///    diameter guesses produce such inputs routinely and `RSelect`
    ///    discards their candidates later).
    ///
    /// Groups live and die wholesale (a seed's neighborhood is its whole
    /// group plus every adjacent group), degrees stay uniform within a
    /// group, and phase-2 attachment answers neighbor queries through
    /// per-group minima.
    pub fn peel(&self, min_size: usize) -> Clustering {
        let n = self.n();
        assert!(n > 0, "cannot cluster zero players");
        let groups = &*self.groups;
        let g_n = groups.members.len();
        let need = min_size.saturating_sub(1);

        let mut gdeg = self.group_degrees();
        let mut alive = vec![true; g_n];
        let mut alive_left = g_n;
        let mut assignment: Vec<Option<u32>> = vec![None; n];
        let mut clusters: Vec<Vec<u32>> = Vec::new();
        // Lowest cluster id among each group's already-assigned members —
        // phase 2's neighbor queries reduce to minima over these.
        let mut g_min_assigned: Vec<Option<u32>> = vec![None; g_n];

        // Phase 1: peel seeds with enough remaining neighbors, highest
        // current degree first — any qualifying seed satisfies Lemma 9;
        // max-degree makes the run deterministic and compact. The
        // player-level rule "max (degree, Reverse(index))" factors: all
        // members of a group share its degree, so the winning player is
        // the smallest member of the best (degree, Reverse(rep)) group, and
        // its neighborhood is exactly {seed's group} ∪ adjacent alive
        // groups — peels are group-closed.
        loop {
            let seed = (0..g_n)
                .filter(|&g| alive[g] && gdeg[g] >= need)
                .max_by_key(|&g| (gdeg[g], std::cmp::Reverse(groups.members[g][0])));
            let Some(seed) = seed else { break };
            let mut peeled: Vec<u32> = vec![seed as u32];
            self.for_each_adjacent_group(seed, |h| {
                if alive[h] {
                    peeled.push(h as u32);
                }
            });
            let id = clusters.len() as u32;
            let mut cluster_members: Vec<u32> = Vec::new();
            for &g in &peeled {
                alive[g as usize] = false;
                alive_left -= 1;
                g_min_assigned[g as usize] = Some(id);
                for &p in &groups.members[g as usize] {
                    assignment[p as usize] = Some(id);
                    cluster_members.push(p);
                }
            }
            cluster_members.sort_unstable();
            // Residual degrees: every alive group adjacent to a peeled
            // group loses that group's full multiplicity.
            if alive_left > 0 {
                for &g in &peeled {
                    let lost = groups.members[g as usize].len();
                    self.for_each_adjacent_group(g as usize, |h| {
                        if alive[h] {
                            gdeg[h] = gdeg[h].saturating_sub(lost);
                        }
                    });
                }
            }
            clusters.push(cluster_members);
        }

        // Phase 2: leftovers attach in player-index order to the lowest
        // cluster id among their original neighbors — the assigned members
        // of their own group plus those of adjacent groups — else to the
        // z-nearest cluster seed.
        #[allow(clippy::needless_range_loop)] // assignment[p] is also written
        for p in 0..n {
            if assignment[p].is_some() {
                continue;
            }
            let g = groups.group_of[p] as usize;
            let mut best = g_min_assigned[g];
            self.for_each_adjacent_group(g, |h| {
                if let Some(a) = g_min_assigned[h] {
                    best = Some(best.map_or(a, |b| b.min(a)));
                }
            });
            let id = best.unwrap_or_else(|| {
                if clusters.is_empty() {
                    clusters.push(Vec::new());
                }
                // Nearest cluster by z-distance to the cluster's first
                // member.
                (0..clusters.len() as u32)
                    .min_by_key(|&c| {
                        clusters[c as usize].first().map_or(usize::MAX, |&m| {
                            groups.row_of(p).hamming(&groups.row_of(m as usize))
                        })
                    })
                    .expect("at least one cluster exists")
            });
            assignment[p] = Some(id);
            g_min_assigned[g] = Some(g_min_assigned[g].map_or(id, |b| b.min(id)));
            let members = &mut clusters[id as usize];
            let pos = members.partition_point(|&m| m < p as u32);
            members.insert(pos, p as u32);
        }

        Clustering {
            assignment: assignment
                .into_iter()
                .map(|a| a.expect("assigned"))
                .collect(),
            clusters,
        }
    }
}

/// Exact all-pairs pass: adjacency rows in ascending order, with
/// early-exit popcounts on packed matrix rows.
fn materialize(rows: &BitMatrix, threshold: usize) -> Vec<Vec<u32>> {
    let n = rows.rows();
    par_map_players(n, |p| {
        let zp = rows.row(p);
        let mut adj = Vec::new();
        for q in 0..n {
            if q != p && zp.hamming_within(&rows.row(q), threshold).is_some() {
                adj.push(q as u32);
            }
        }
        adj
    })
}

/// The neighbor graph straight from the definition: `(p, q)` is an edge
/// iff `|z(p) − z(q)| ≤ threshold` (Lemma 8), all pairs of *players*
/// checked, adjacency materialized. With [`peel_clusters`] this is the
/// reference the tests hold [`NeighborIndex`] to; it goes through neither
/// grouping nor any prefilter.
pub fn neighbor_graph(zvecs: &[BitVec], threshold: usize) -> Vec<Vec<u32>> {
    materialize(&BitMatrix::from_rows(zvecs), threshold)
}

/// Greedy peeling of §6.5 over a pre-materialized adjacency (the original
/// reference implementation; [`NeighborIndex::peel`] reproduces it exactly
/// without materializing, which the equivalence tests pin):
///
/// 1. While some remaining player has ≥ `min_size − 1` remaining neighbors,
///    peel it and its neighbors off as a new cluster.
/// 2. Attach every leftover player to a cluster that contains one of its
///    original neighbors (the paper's argument: its degree only dropped
///    because neighbors were peeled).
/// 3. Total-function fallbacks for degenerate inputs the lemmas exclude
///    (no cluster formed at all, a leftover with no surviving neighbor):
///    join the cluster whose first member's `z` is closest. Wrong-diameter
///    guesses produce such inputs routinely; their candidates are discarded
///    later by `RSelect`.
pub fn peel_clusters(zvecs: &[BitVec], adjacency: &[Vec<u32>], min_size: usize) -> Clustering {
    let n = zvecs.len();
    assert!(n > 0, "cannot cluster zero players");
    let need = min_size.saturating_sub(1);

    let mut alive = vec![true; n];
    let mut degree: Vec<usize> = adjacency.iter().map(Vec::len).collect();
    let mut assignment: Vec<Option<u32>> = vec![None; n];
    let mut clusters: Vec<Vec<u32>> = Vec::new();

    // Phase 1: peel seeds with enough remaining neighbors. Highest current
    // degree first — any qualifying seed satisfies Lemma 9; max-degree makes
    // the run deterministic and compact.
    loop {
        let seed = (0..n)
            .filter(|&p| alive[p] && degree[p] >= need)
            .max_by_key(|&p| (degree[p], std::cmp::Reverse(p)));
        let Some(seed) = seed else { break };
        let mut members: Vec<u32> = vec![seed as u32];
        members.extend(
            adjacency[seed]
                .iter()
                .copied()
                .filter(|&q| alive[q as usize]),
        );
        members.sort_unstable();
        let id = clusters.len() as u32;
        for &m in &members {
            alive[m as usize] = false;
            assignment[m as usize] = Some(id);
        }
        // Update residual degrees of everyone adjacent to the peeled set.
        for &m in &members {
            for &q in &adjacency[m as usize] {
                if alive[q as usize] {
                    degree[q as usize] = degree[q as usize].saturating_sub(1);
                }
            }
        }
        clusters.push(members);
    }

    // Phase 2: leftovers attach to a cluster containing an original
    // neighbor (lowest cluster id), else to the z-nearest cluster seed.
    for p in 0..n {
        if assignment[p].is_some() {
            continue;
        }
        let via_neighbor = adjacency[p]
            .iter()
            .filter_map(|&q| assignment[q as usize])
            .min();
        let id = via_neighbor.unwrap_or_else(|| {
            if clusters.is_empty() {
                clusters.push(Vec::new());
            }
            // Nearest cluster by z-distance to the cluster's first member.
            (0..clusters.len() as u32)
                .min_by_key(|&c| {
                    clusters[c as usize]
                        .first()
                        .map_or(usize::MAX, |&m| zvecs[p].hamming(&zvecs[m as usize]))
                })
                .expect("at least one cluster exists")
        });
        assignment[p] = Some(id);
        let members = &mut clusters[id as usize];
        let pos = members.partition_point(|&m| m < p as u32);
        members.insert(pos, p as u32);
    }

    Clustering {
        assignment: assignment
            .into_iter()
            .map(|a| a.expect("assigned"))
            .collect(),
        clusters,
    }
}

/// Convenience: neighbor discovery + peel in one call, with an explicit
/// strategy (the protocol passes `ProtocolParams::neighbor_strategy`).
pub fn cluster_players_with(
    zvecs: &[BitVec],
    threshold: usize,
    min_size: usize,
    strategy: NeighborStrategy,
) -> Clustering {
    NeighborIndex::build(zvecs, threshold, strategy).peel(min_size)
}

/// Convenience: graph + peel in one call under the default
/// ([`NeighborStrategy::Auto`]) strategy.
pub fn cluster_players(zvecs: &[BitVec], threshold: usize, min_size: usize) -> Clustering {
    cluster_players_with(zvecs, threshold, min_size, NeighborStrategy::Auto)
}

/// Cross-guess reusable neighbor-discovery state.
///
/// The diameter-guess loop of `naive_sampling` asks for discovery once per
/// guess even though the z-vectors are *identical* across guesses — only
/// the edge threshold `τ` changes. The `τ`-independent half of the
/// pipeline — the grouping and the representative matrix — is computed
/// once here; [`GroupCache::index`] then builds a per-`τ`
/// [`NeighborIndex`] that only indexes the representatives, sharing the
/// grouping. [`NeighborIndex::build`] is exactly a one-shot cache, so a
/// cached index and a fresh one are the same construction (the
/// `tests/neighbor_index.rs` proptests still pin it).
///
/// A cache lives for one run: every run draws a fresh public sample, so
/// nothing carries across runs (DESIGN.md §4.12).
pub struct GroupCache {
    strategy: NeighborStrategy,
    groups: Arc<Groups>,
}

impl GroupCache {
    /// Group `zvecs` once, for reuse across thresholds.
    pub fn build(zvecs: &[BitVec], strategy: NeighborStrategy) -> GroupCache {
        GroupCache {
            strategy,
            groups: Arc::new(Groups::build(&BitMatrix::from_rows(zvecs))),
        }
    }

    /// Distinct z-vector groups (always `Some`: every strategy groups).
    pub fn group_count(&self) -> Option<usize> {
        Some(self.groups.members.len())
    }

    /// Build the per-threshold index over the cached grouping.
    pub fn index(&self, threshold: usize) -> NeighborIndex {
        NeighborIndex::over(self.groups.clone(), threshold, self.strategy)
    }

    /// Discovery + peel for one guess: `self.index(threshold).peel(..)`.
    pub fn cluster(&self, threshold: usize, min_size: usize) -> Clustering {
        self.index(threshold).peel(min_size)
    }

    /// Perf-only: counts the rows of `zvecs` bit-identical to the cached
    /// ones, then rebuilds the cache cold on `zvecs`. Kept only because
    /// the `perf/` benchmark still calls it.
    #[doc(hidden)]
    pub fn refresh(&mut self, zvecs: &[BitVec]) -> usize {
        let old = &*self.groups;
        let unchanged = zvecs
            .iter()
            .enumerate()
            .filter(|(p, row)| *p < old.group_of.len() && row.bits_eq(&old.row_of(*p)))
            .count();
        *self = GroupCache::build(zvecs, self.strategy);
        unchanged
    }
}

/// Perf-only and ignored: every run builds cold, so there is nothing to
/// carry between runs. Kept only because the `perf/` benchmark still
/// constructs one and reads its reuse count, which is always 0.
#[doc(hidden)]
#[derive(Default)]
pub struct WarmStart;

impl WarmStart {
    /// Perf-only: an ignored slot.
    pub fn new() -> Self {
        Self
    }

    /// Perf-only: always 0.
    pub fn last_reused_rows(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Two tight camps far apart.
    fn two_camps(len: usize, per_camp: usize, seed: u64) -> Vec<BitVec> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let a = BitVec::random(&mut rng, len);
        let b = a.complement();
        let mut out = Vec::new();
        for i in 0..2 * per_camp {
            let mut v = if i < per_camp { a.clone() } else { b.clone() };
            v.flip_random_distinct(&mut rng, 2);
            out.push(v);
        }
        out
    }

    #[test]
    fn neighbor_graph_thresholds() {
        let zs = two_camps(128, 8, 1);
        let adj = neighbor_graph(&zs, 4);
        // Within-camp distance ≤ 4; cross-camp ≈ 128.
        for (p, neighbors) in adj.iter().enumerate().take(8) {
            assert!(
                neighbors.iter().all(|&q| q < 8),
                "camp A player {p} linked out"
            );
            assert_eq!(neighbors.len(), 7, "camp A is a clique under the threshold");
        }
        for neighbors in adj.iter().take(16).skip(8) {
            assert!(neighbors.iter().all(|&q| q >= 8));
        }
    }

    #[test]
    fn peeling_recovers_camps() {
        let zs = two_camps(128, 8, 2);
        let c = cluster_players(&zs, 4, 8);
        assert!(c.is_partition());
        assert_eq!(c.clusters.len(), 2);
        assert_eq!(c.min_size(), 8);
        // Camp purity.
        let id0 = c.assignment[0];
        for p in 0..8 {
            assert_eq!(c.assignment[p], id0);
        }
        for p in 8..16 {
            assert_ne!(c.assignment[p], id0);
        }
    }

    #[test]
    fn leftovers_attach_via_neighbors() {
        // Chain: clique of 5 + one pendant attached to a clique member.
        let mut zs = Vec::new();
        let mut rng = SmallRng::seed_from_u64(3);
        let center = BitVec::random(&mut rng, 64);
        for _ in 0..5 {
            zs.push(center.clone());
        }
        let mut pendant = center.clone();
        pendant.flip_random_distinct(&mut rng, 3); // within threshold of clique
        zs.push(pendant);
        let c = cluster_players(&zs, 3, 5);
        assert!(c.is_partition());
        assert_eq!(c.clusters.len(), 1);
        assert_eq!(c.clusters[0].len(), 6);
    }

    #[test]
    fn no_qualifying_seed_degenerates_gracefully() {
        // All-far players, min_size larger than any neighborhood.
        let mut rng = SmallRng::seed_from_u64(4);
        let zs: Vec<BitVec> = (0..6).map(|_| BitVec::random(&mut rng, 256)).collect();
        let c = cluster_players(&zs, 2, 4);
        assert!(c.is_partition());
        assert!(!c.clusters.is_empty());
        let total: usize = c.clusters.iter().map(Vec::len).sum();
        assert_eq!(total, 6);
    }

    #[test]
    fn assignment_matches_membership() {
        let zs = two_camps(64, 6, 5);
        let c = cluster_players(&zs, 4, 6);
        for (p, &a) in c.assignment.iter().enumerate() {
            assert!(c.clusters[a as usize].contains(&(p as u32)));
        }
    }

    #[test]
    fn singleton_input() {
        let zs = vec![BitVec::zeros(8)];
        let c = cluster_players(&zs, 1, 1);
        assert!(c.is_partition());
        assert_eq!(c.clusters.len(), 1);
        assert_eq!(c.cluster_of(0), &[0]);
    }

    /// Every representative index (complete / exact / banded / multiprobe
    /// / scan), forced and under `Auto`, against the all-pairs player
    /// reference, on structured and random inputs.
    #[test]
    fn banded_modes_match_exact() {
        let mut rng = SmallRng::seed_from_u64(6);
        let cases: Vec<(Vec<BitVec>, usize)> = vec![
            (two_camps(256, 10, 7), 4),   // banded (wide bands)
            (two_camps(256, 10, 10), 24), // multiprobe (mid-τ)
            (two_camps(64, 6, 8), 12),    // scan (bands too narrow)
            (two_camps(32, 5, 9), 40),    // complete (τ ≥ len)
            ((0..14).map(|_| BitVec::random(&mut rng, 96)).collect(), 3),
        ];
        for (zs, threshold) in cases {
            let adjacency = neighbor_graph(&zs, threshold);
            let degrees: Vec<usize> = adjacency.iter().map(Vec::len).collect();
            for strategy in [
                NeighborStrategy::Exact,
                NeighborStrategy::Banded,
                NeighborStrategy::Auto,
            ] {
                let idx = NeighborIndex::build(&zs, threshold, strategy);
                assert_eq!(
                    idx.adjacency(),
                    adjacency,
                    "edge sets diverge at τ={threshold} (index {})",
                    idx.mode_name()
                );
                assert_eq!(idx.degrees(), degrees);
                for min_size in [1usize, 3, 8] {
                    let reference = peel_clusters(&zs, &adjacency, min_size);
                    assert_eq!(idx.peel(min_size), reference, "index {}", idx.mode_name());
                }
            }
        }
    }

    #[test]
    fn multiprobe_triggers_and_is_sound() {
        // len=256, τ=24: 25 exact-match bands would be 10 bits (< 16), but
        // ⌊τ/2⌋+1 = 13 multiprobe bands are 19 bits — the mid-τ regime
        // that used to fall to the blocked scan.
        let zs = two_camps(256, 12, 11);
        let idx = NeighborIndex::build(&zs, 24, NeighborStrategy::Banded);
        assert_eq!(idx.mode_name(), "multiprobe");
        assert_eq!(idx.adjacency(), neighbor_graph(&zs, 24));
    }

    #[test]
    fn scan_mode_carries_popcount_prefilter() {
        // len=64, τ=12: neither 13 exact bands (4 bits) nor 7 probe bands
        // (9 bits) reach MIN_BAND_BITS — the prefiltered scan regime.
        let zs = two_camps(64, 6, 12);
        let idx = NeighborIndex::build(&zs, 12, NeighborStrategy::Banded);
        assert_eq!(idx.mode_name(), "scan");
        let adjacency = neighbor_graph(&zs, 12);
        assert_eq!(idx.adjacency(), adjacency);
        assert_eq!(idx.peel(6), peel_clusters(&zs, &adjacency, 6));
    }

    #[test]
    fn grouped_collapses_duplicates() {
        // Heavy duplication: 40 players over 5 distinct vectors — the
        // representative index sees 5 rows whatever the strategy.
        let mut rng = SmallRng::seed_from_u64(13);
        let distinct: Vec<BitVec> = (0..5).map(|_| BitVec::random(&mut rng, 128)).collect();
        let zs: Vec<BitVec> = (0..40).map(|i| distinct[i % 5].clone()).collect();
        let adjacency = neighbor_graph(&zs, 8);
        for strategy in [NeighborStrategy::Auto, NeighborStrategy::Banded] {
            let idx = NeighborIndex::build(&zs, 8, strategy);
            assert_eq!(idx.groups.group_of[..7], [0, 1, 2, 3, 4, 0, 1]);
            assert_eq!(idx.groups.members.len(), 5);
            assert_eq!(idx.adjacency(), adjacency);
            for min_size in [1usize, 4, 8, 16] {
                assert_eq!(idx.peel(min_size), peel_clusters(&zs, &adjacency, min_size));
            }
        }
    }

    #[test]
    fn empty_sample_is_complete_graph() {
        // Sabotaged leaders publish empty samples: every z-vector is empty,
        // all pairs are within any threshold, one big cluster results.
        let zs = vec![BitVec::zeros(0); 9];
        for strategy in [
            NeighborStrategy::Exact,
            NeighborStrategy::Banded,
            NeighborStrategy::Auto,
        ] {
            let idx = NeighborIndex::build(&zs, 0, strategy);
            assert_eq!(idx.mode_name(), "complete");
            let c = idx.peel(3);
            assert!(c.is_partition());
            assert_eq!(c.clusters.len(), 1);
            assert_eq!(c.clusters[0].len(), 9);
        }
    }

    #[test]
    fn banded_prune_is_sound_near_threshold() {
        // Pairs at distance exactly τ and τ+1: the band pigeonhole must
        // keep the former and may only drop the latter.
        let len = 160;
        let tau = 6;
        let mut rng = SmallRng::seed_from_u64(11);
        let base = BitVec::random(&mut rng, len);
        let mut at_tau = base.clone();
        for i in 0..tau {
            at_tau.flip(i * 17);
        }
        let mut past_tau = base.clone();
        for i in 0..tau + 1 {
            past_tau.flip(i * 17);
        }
        let zs = vec![base, at_tau, past_tau];
        let idx = NeighborIndex::build(&zs, tau, NeighborStrategy::Banded);
        assert_eq!(idx.mode_name(), "banded");
        assert_eq!(idx.neighbors_of(0), vec![1]);
        assert_eq!(idx.neighbors_of(2), vec![1]); // dist(1,2)=1
    }
}
