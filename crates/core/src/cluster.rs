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
//! 2. **Index the representatives.** The peel reads, for each
//!    representative `g`, its `u16` distance row to every representative,
//!    from one of three representative indexes:
//!    * *complete* — `τ ≥ |S|`, every pair is an edge (the empty-sample
//!      sabotage case); nothing is stored or computed;
//!    * *exact* — a `G × G` table of exact representative distances
//!      (each unordered pair computed once), built with the grouping: a
//!      [`GroupCache`] pays the quadratic pass once per set of
//!      `z`-vectors, not once per guess, and each `τ` thresholds its rows;
//!    * *scan* — no table: row `g` is computed on demand with the same
//!      word kernel when the peel asks for it.
//!
//!    Both kinds of row saturate a distance of `u16::MAX` or more, and a
//!    saturated cell is re-verified with an exact
//!    [`hamming_within`](byzscore_bitset::Bits::hamming_within) once `τ`
//!    reaches it, so all three produce the identical edge set and the
//!    peel's degree and residual passes are one masked sum over a row for
//!    either. [`NeighborStrategy::Auto`] tabulates up to
//!    [`AUTO_EXACT_MAX`] representatives (a table of `2·G²` bytes, 32 MiB
//!    at the cap) and scans beyond; `Exact` and `Scan` force the choice
//!    (how tests reach each kind).
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
//! | | 5 | grouped, representatives scanned (e13 n = 10⁵, G = 18 427) |
//! | | 2 702 | the service shard map's grouping at `τ = 0` |
//! | | **0** | weak-collapse fallback |
//! | | **0** | a player-level index |
//! | `perf` `batch_paper` (n = 512) | 63 / 17 | players materialized / complete |
//! | `perf` `batch_scale` (n = 8192) | 60 / 24 | grouped, G 1 963–2 052, representatives materialized / complete (since: one distance table per run, thresholded per guess; a complete guess is one cluster with no scan) |
//! | `perf` serve / socket workloads (n ≈ 96) | 3 + 3 + 1 per recompute | materialized, complete, shard map |
//!
//! The player-level lazy index and the fallback ran only when a test
//! asked for them by name. Grouping first makes the materialized pass no larger
//! (`G ≤ n`), so the player-level paths are gone and the same input takes
//! the same code path at every size. The census's service "shard map"
//! rows are gone too: the service engine answers in one ordered pass
//! and groups nothing outside the scoring run. Two of the five e13 builds
//! then took exact-match bands, and the scan sat behind a popcount
//! prefilter; both cost more than the exact word kernel they guarded
//! (DESIGN.md §4.8) and are gone.

use std::collections::HashMap;
use std::sync::Arc;

use byzscore_bitset::{BitMatrix, BitVec, Bits};

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
    /// Pick per input shape: tabulate up to [`AUTO_EXACT_MAX`]
    /// representatives, scan beyond.
    #[default]
    Auto,
    /// Force the exact index: the `O(G²)` representative distance table,
    /// thresholded at each `τ`.
    Exact,
    /// Force the scan: no distance table is built, and each row is
    /// computed when the peel reads it.
    Scan,
}

/// Largest representative count for which [`NeighborStrategy::Auto`] still
/// picks the exact index, whose distance table is built once per grouping
/// (`2·G²` bytes: 32 MiB at this cap). A memory cap, not a time crossing:
/// at e13's n = 10⁵ (G = 18 427) the table would be 679 MB, so each guess
/// computes the rows it reads instead.
pub const AUTO_EXACT_MAX: usize = 4096;

/// Index over the pairwise-distinct representative rows; answers only
/// "which groups are within `τ` of group `g`".
enum RepIndex {
    /// `threshold ≥ |S|`: every pair is an edge; nothing is stored.
    Complete,
    /// The grouping's [`Distances`] table, thresholded at `τ` row by row.
    Exact,
    /// No table: each row is computed on demand, saturated like the table.
    Scan,
}

/// The `τ`-independent half of discovery: which players carry
/// bit-identical vectors, one copy of each distinct vector and, where the
/// exact index is picked, every representative distance. Built once per
/// set of `z`-vectors and shared (by `Arc`) by every per-threshold
/// [`NeighborIndex`] a [`GroupCache`] hands out.
struct Groups {
    /// Player → group id (ids in order of first appearance).
    group_of: Vec<u32>,
    /// Group member lists, each ascending; `members[g][0]` is the
    /// representative (and the group's smallest player index).
    members: Vec<Vec<u32>>,
    /// Row `g` is the vector every member of group `g` carries.
    reps: BitMatrix,
    /// `sizes[g] = members[g].len()`, the weights of the peel's masked
    /// degree sums.
    sizes: Vec<u32>,
    /// Representative distances when `strategy` picks the exact index
    /// (`Exact`, or `Auto` with `G ≤ AUTO_EXACT_MAX`); `None` where the
    /// scan answers instead or no `τ < |S|` will be asked.
    dist: Option<Distances>,
}

impl Groups {
    /// Group `rows` by bit-identical content, and tabulate the
    /// representative distances if `tabulate` and `strategy` picks the
    /// exact index at this `G`.
    fn build(rows: &BitMatrix, strategy: NeighborStrategy, tabulate: bool) -> Groups {
        let (group_of, members) = group_rows(rows);
        let mut reps = BitMatrix::zeros(members.len(), rows.cols());
        for (g, m) in members.iter().enumerate() {
            reps.set_row(g, &rows.row(m[0] as usize));
        }
        let exact = match strategy {
            NeighborStrategy::Auto => members.len() <= AUTO_EXACT_MAX,
            NeighborStrategy::Exact => true,
            NeighborStrategy::Scan => false,
        };
        let dist = (tabulate && exact).then(|| Distances::build(&reps));
        Groups {
            group_of,
            sizes: members.iter().map(|m| m.len() as u32).collect(),
            members,
            reps,
            dist,
        }
    }

    /// The vector player `p` carries.
    fn row_of(&self, p: usize) -> impl Bits + '_ {
        self.reps.row(self.group_of[p] as usize)
    }
}

/// Exact pairwise distances between the `G` representatives, one
/// `G × G` row-major table of `u16` (`2·G²` bytes). Each unordered pair
/// is computed once and mirrored; a distance of `u16::MAX` or more is
/// stored [saturated](saturate).
struct Distances {
    g: usize,
    cells: Vec<u16>,
}

impl Distances {
    fn build(reps: &BitMatrix) -> Distances {
        let g = reps.rows();
        let mut cells = vec![0u16; g * g];
        for p in 0..g {
            // Row `p` against the rows before it, mirrored.
            for (q, d) in reps.distances_from(p).take(p).enumerate() {
                let d = saturate(d);
                cells[p * g + q] = d;
                cells[q * g + p] = d;
            }
        }
        Distances { g, cells }
    }

    /// Distances from representative `p` to every representative.
    #[inline]
    fn row(&self, p: usize) -> &[u16] {
        &self.cells[p * self.g..(p + 1) * self.g]
    }
}

/// A distance as a row cell: exact below `u16::MAX`, saturated at it. A
/// saturated cell is re-verified with
/// [`hamming_within`](byzscore_bitset::Bits::hamming_within) whenever
/// `τ ≥ u16::MAX`, so every edge decision stays exact at any `|S|`.
#[inline]
fn saturate(d: usize) -> u16 {
    u16::try_from(d).unwrap_or(u16::MAX)
}

/// Visit every `h` with `row[h] ≤ limit`, ascending: 32 cells at a time
/// to a bitmask (a fixed-width compare the compiler vectorizes), then its
/// set bits.
fn for_each_within(row: &[u16], limit: u16, mut f: impl FnMut(usize)) {
    let mut chunks = row.chunks_exact(32);
    for (c, cells) in chunks.by_ref().enumerate() {
        let mut hits = cells
            .iter()
            .enumerate()
            .fold(0u32, |m, (i, &d)| m | (u32::from(d <= limit) << i));
        while hits != 0 {
            f(c * 32 + hits.trailing_zeros() as usize);
            hits &= hits - 1;
        }
    }
    let base = row.len() - chunks.remainder().len();
    for (i, &d) in chunks.remainder().iter().enumerate() {
        if d <= limit {
            f(base + i);
        }
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
    /// given edge `threshold`. A complete index (`threshold ≥ |S|`) skips
    /// the distance table it would never read.
    pub fn build(zvecs: &[BitVec], threshold: usize, strategy: NeighborStrategy) -> NeighborIndex {
        let rows = BitMatrix::from_rows(zvecs);
        let tabulate = threshold < rows.cols();
        NeighborIndex::over(
            Arc::new(Groups::build(&rows, strategy, tabulate)),
            threshold,
        )
    }

    /// Index the representatives of an existing grouping at `threshold`:
    /// threshold its distance table when it has one, scan otherwise.
    fn over(groups: Arc<Groups>, threshold: usize) -> NeighborIndex {
        let reps = if threshold >= groups.reps.cols() {
            RepIndex::Complete
        } else if groups.dist.is_some() {
            RepIndex::Exact
        } else {
            RepIndex::Scan
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
    /// `"exact"` or `"scan"`) — for logs and bench labels.
    pub fn mode_name(&self) -> &'static str {
        match self.reps {
            RepIndex::Complete => "complete",
            RepIndex::Exact => "exact",
            RepIndex::Scan => "scan",
        }
    }

    /// Distances from representative `g` to every representative, each
    /// [saturated](saturate): the table's row, or the same row computed
    /// into `buf`. A complete index reads as a row of zeros.
    fn row<'a>(&'a self, g: usize, buf: &'a mut Vec<u16>) -> &'a [u16] {
        match self.reps {
            RepIndex::Exact => self
                .groups
                .dist
                .as_ref()
                .expect("an exact index has a table")
                .row(g),
            RepIndex::Complete => {
                buf.clear();
                buf.resize(self.groups.sizes.len(), 0);
                buf
            }
            RepIndex::Scan => {
                buf.clear();
                buf.extend(self.groups.reps.distances_from(g).map(saturate));
                buf
            }
        }
    }

    /// `τ` as a row-cell limit when every cell decides its edge alone
    /// (`τ < u16::MAX`, so no saturated cell needs re-verifying): the
    /// peel's weighted passes then run as branch-free masked sums over
    /// whole rows, which the compiler vectorizes, instead of one callback
    /// per adjacent group.
    fn decisive_limit(&self) -> Option<u16> {
        u16::try_from(self.threshold).ok().filter(|&t| t < u16::MAX)
    }

    /// Enumerate the groups adjacent to group `g` (representatives within
    /// `τ`, exact-verified), each exactly once, ascending — the primitive
    /// every query shares.
    fn for_each_adjacent_group(&self, g: usize, mut f: impl FnMut(usize)) {
        let mut buf = Vec::new();
        let row = self.row(g, &mut buf);
        let reps = &self.groups.reps;
        // A cell below `u16::MAX` is the exact distance; a saturated one
        // decides only for `τ < u16::MAX`.
        let limit = self.threshold.min(u16::MAX as usize) as u16;
        for_each_within(row, limit, |h| {
            let within = || {
                reps.row(g)
                    .hamming_within(&reps.row(h), self.threshold)
                    .is_some()
            };
            if h != g && (row[h] < u16::MAX || within()) {
                f(h);
            }
        });
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
    /// Degrees are below `n`, which `u32` player ids bound.
    fn group_degrees(&self) -> Vec<u32> {
        let sizes = &self.groups.sizes;
        let mut buf = Vec::new();
        (0..sizes.len())
            .map(|g| {
                if let Some(limit) = self.decisive_limit() {
                    // The diagonal (distance 0) adds `|g|`: one more than
                    // the mates.
                    let within: u32 = self
                        .row(g, &mut buf)
                        .iter()
                        .zip(sizes)
                        .map(|(&d, &size)| if d <= limit { size } else { 0 })
                        .sum();
                    return within - 1;
                }
                let mut deg = sizes[g] - 1;
                self.for_each_adjacent_group(g, |h| deg += sizes[h]);
                deg
            })
            .collect()
    }

    /// Degree of every player (neighbor counts).
    pub fn degrees(&self) -> Vec<usize> {
        let gdeg = self.group_degrees();
        self.groups
            .group_of
            .iter()
            .map(|&g| gdeg[g as usize] as usize)
            .collect()
    }

    /// Materialize the full player adjacency (sorted rows). Intended for
    /// tests and small inputs; defeats the purpose of the index at scale.
    pub fn adjacency(&self) -> Vec<Vec<u32>> {
        (0..self.n()).map(|p| self.neighbors_of(p)).collect()
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
        if let RepIndex::Complete = self.reps {
            // Every player has degree `n − 1`: either the first seed takes
            // everyone, or no seed qualifies and phase 2's fallback opens
            // cluster 0, which every later leftover joins as a neighbor.
            return Clustering {
                assignment: vec![0; n],
                clusters: vec![(0..n as u32).collect()],
            };
        }
        let groups = &*self.groups;
        let g_n = groups.members.len();
        let need = min_size.saturating_sub(1);

        let mut gdeg = self.group_degrees();
        let mut buf = Vec::new();
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
                .filter(|&g| alive[g] && gdeg[g] as usize >= need)
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
                    let lost = groups.sizes[g as usize];
                    if let Some(limit) = self.decisive_limit() {
                        let row = self.row(g as usize, &mut buf);
                        for ((deg, &d), &live) in gdeg.iter_mut().zip(row).zip(&alive) {
                            *deg = deg.saturating_sub(if live & (d <= limit) { lost } else { 0 });
                        }
                        continue;
                    }
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

/// Exact all-pairs pass for the reference [`neighbor_graph`]: adjacency
/// rows in ascending order, with early-exit popcounts on packed matrix
/// rows.
fn materialize(rows: &BitMatrix, threshold: usize) -> Vec<Vec<u32>> {
    let n = rows.rows();
    (0..n)
        .map(|p| {
            let zp = rows.row(p);
            (0..n)
                .filter(|&q| q != p && zp.hamming_within(&rows.row(q), threshold).is_some())
                .map(|q| q as u32)
                .collect()
        })
        .collect()
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
/// pipeline — the grouping, the representative matrix and, where the
/// exact index is picked, the representative distance table — is computed
/// once here; [`GroupCache::index`] then builds a per-`τ`
/// [`NeighborIndex`] sharing it. With a table that index is a threshold
/// over it and costs nothing to build; without one (`Scan`, or `Auto`
/// past [`AUTO_EXACT_MAX`]) each `τ`'s peel computes the rows it reads. A
/// cached index and a fresh [`NeighborIndex::build`] read the same kind of
/// table, so `tests/neighbor_index.rs` also pins both against the
/// player-level reference.
///
/// A cache lives for one run: every run draws a fresh public sample, so
/// nothing carries across runs (DESIGN.md §4.12).
pub struct GroupCache {
    strategy: NeighborStrategy,
    groups: Arc<Groups>,
}

impl GroupCache {
    /// Group `zvecs` once, and tabulate the representative distances if
    /// `strategy` picks the exact index, for reuse across thresholds.
    pub fn build(zvecs: &[BitVec], strategy: NeighborStrategy) -> GroupCache {
        GroupCache {
            strategy,
            groups: Arc::new(Groups::build(&BitMatrix::from_rows(zvecs), strategy, true)),
        }
    }

    /// Distinct z-vector groups (always `Some`: every strategy groups).
    pub fn group_count(&self) -> Option<usize> {
        Some(self.groups.members.len())
    }

    /// Build the per-threshold index over the cached grouping.
    pub fn index(&self, threshold: usize) -> NeighborIndex {
        NeighborIndex::over(self.groups.clone(), threshold)
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

    /// Every representative index (complete / exact / scan), forced and
    /// under `Auto`, against the all-pairs player reference, on
    /// structured and random inputs.
    #[test]
    fn every_index_matches_the_player_reference() {
        let mut rng = SmallRng::seed_from_u64(6);
        let cases: Vec<(Vec<BitVec>, usize)> = vec![
            (two_camps(256, 10, 7), 4),
            (two_camps(256, 10, 10), 24),
            (two_camps(64, 6, 8), 12),
            (two_camps(32, 5, 9), 40), // complete (τ ≥ len)
            ((0..14).map(|_| BitVec::random(&mut rng, 96)).collect(), 3),
        ];
        for (zs, threshold) in cases {
            let adjacency = neighbor_graph(&zs, threshold);
            let degrees: Vec<usize> = adjacency.iter().map(Vec::len).collect();
            for strategy in [
                NeighborStrategy::Exact,
                NeighborStrategy::Scan,
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
    fn narrow_bands_down_to_the_floor_are_sound() {
        // len=256 at τ = 24 / 31: the thresholds that once split into
        // exact-match bands of 10 and 8 bits (the old band floor), now
        // read by the forced scan.
        let zs = two_camps(256, 12, 11);
        for threshold in [24, 31] {
            let idx = NeighborIndex::build(&zs, threshold, NeighborStrategy::Scan);
            assert_eq!(idx.mode_name(), "scan", "τ={threshold}");
            let adjacency = neighbor_graph(&zs, threshold);
            assert_eq!(idx.adjacency(), adjacency, "τ={threshold}");
            assert_eq!(idx.peel(6), peel_clusters(&zs, &adjacency, 6));
        }
    }

    #[test]
    fn scan_mode_carries_popcount_prefilter() {
        // len=64, τ=12: the regime the popcount-prefiltered scan once
        // served; the scan that replaced it must give the same edges and
        // peel.
        let zs = two_camps(64, 6, 12);
        let idx = NeighborIndex::build(&zs, 12, NeighborStrategy::Scan);
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
        for strategy in [NeighborStrategy::Auto, NeighborStrategy::Scan] {
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
            NeighborStrategy::Scan,
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
    fn scan_keeps_tau_and_drops_tau_plus_one() {
        // Pairs at distance exactly τ and τ+1: the former is an edge, the
        // latter is not.
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
        let idx = NeighborIndex::build(&zs, tau, NeighborStrategy::Scan);
        assert_eq!(idx.mode_name(), "scan");
        assert_eq!(idx.neighbors_of(0), vec![1]);
        assert_eq!(idx.neighbors_of(2), vec![1]); // dist(1,2)=1
    }
}
