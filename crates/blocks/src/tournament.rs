//! Candidate-selection tournaments: `RSelect` (Figure 1) and the
//! reconstructed `Select`.

use byzscore_bitset::{disagreement_indices, words_for, BitVec, Bits, WORD_BITS};
use byzscore_random::choose_k_bits;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;

use crate::Ctx;

/// `RSelect(w₁, …, w_k)_p` — Figure 1, top block (Theorem 3).
///
/// For every pair of surviving candidates, probe `Θ(log n)` random objects
/// on which they differ (sampled as ranks in the disagreement set, see
/// [`StreamingRSelect`]); a candidate that agrees with at least 2/3 of the
/// probed objects eliminates its opponent. Any survivor is returned (its
/// index into `candidates`).
///
/// `objects[i]` maps candidate coordinate `i` to a global object id, so the
/// same routine serves full-length candidates (`objects = 0..n`) and
/// sample-restricted candidates. Probes are charged to `player`.
///
/// Guarantee (Theorem 3): with high probability the output `w` satisfies
/// `|v(p) − w| ≤ O(|v(p) − w*|)` for the best candidate `w*`, using
/// `O(k² log n)` probes.
///
/// One implementation serves both shapes: this pushes every candidate into
/// a [`StreamingRSelect`] and finishes it.
pub fn rselect(
    ctx: &Ctx<'_>,
    player: u32,
    candidates: &[BitVec],
    objects: &[u32],
    rng: &mut SmallRng,
) -> usize {
    let mut sel = StreamingRSelect::new(ctx);
    for c in candidates {
        sel.push(ctx, player, c.clone(), objects, rng);
    }
    sel.finish(ctx, player, objects, rng).0
}

/// Incremental [`rselect`]: the same tournament, driven one candidate at a
/// time as the guess loop produces them, so only the *surviving* candidates
/// stay resident instead of the full `k × m` matrix.
///
/// # Replay contract
///
/// The tournament is defined by a batch loop over the full list (kept as
/// `rselect_reference` in this module's tests). It visits pairs `(i, j)`
/// in lexicographic order with two quirks that this machine reproduces
/// exactly (pinned by `streaming_replays_batch_draw_for_draw`):
///
/// * a **dead `j` breaks** the inner loop (it does not `continue`), so
///   later pairs `(i, j')` with `j' > j` are skipped for this `i`;
/// * a **duplicate `j`** (`diff` empty) dies without an RNG draw and the
///   inner loop continues.
///
/// The reference indexes `diff_indices` with `choose_k` ranks. The machine
/// draws the same ranks from `[0, d)`, `d` the pair's Hamming distance, as
/// a `d`-bit bitmap ([`choose_k_bits`]: Floyd's loop with the bitmap as its
/// membership set) and maps them to coordinates with one
/// [`Bits::diff_at_rank_bits`] walk over the XOR words (a select per rank,
/// never a bit-by-bit scan). With `d ≤ |V|`, a pair comparison costs
/// `O(|V|/64 + t)` for `t` samples, not `O(d)`, and allocates only the
/// bitmap and its sample.
///
/// The only way the batch traversal depends on the final candidate count
/// `k` is through the loop bounds. The machine therefore advances the
/// cursor until the next pair would need a candidate that has not arrived
/// yet, stalls there, and resumes on [`StreamingRSelect::push`];
/// [`StreamingRSelect::finish`] resolves the remaining bound checks. Every
/// pair decision and every rank draw happens in the batch order, so
/// the RNG stream, the probe sequence, and the winner are bit-identical to
/// the batch loop over the full candidate list.
///
/// Eliminated candidates are freed immediately — they are never probed or
/// compared again, and the winner is the first *alive* index — which is
/// what caps residency. [`StreamingRSelect::peak_bytes`] reports the
/// high-water mark of resident candidate storage.
pub struct StreamingRSelect {
    sample: usize,
    threshold: f64,
    cands: Vec<Option<BitVec>>,
    alive: Vec<bool>,
    i: usize,
    j: usize,
    resident_bytes: u64,
    peak_bytes: u64,
}

fn candidate_bytes(v: &BitVec) -> u64 {
    std::mem::size_of_val(v.words()) as u64
}

impl StreamingRSelect {
    /// Start an empty tournament under `ctx`'s RSelect constants.
    pub fn new(ctx: &Ctx<'_>) -> StreamingRSelect {
        StreamingRSelect {
            sample: (ctx.params.c_rselect * ctx.ln_n()).ceil() as usize,
            threshold: ctx.params.rselect_threshold,
            cands: Vec::new(),
            alive: Vec::new(),
            i: 0,
            j: 1,
            resident_bytes: 0,
            peak_bytes: 0,
        }
    }

    /// Candidates accepted so far.
    pub fn len(&self) -> usize {
        self.alive.len()
    }

    /// True before the first [`StreamingRSelect::push`].
    pub fn is_empty(&self) -> bool {
        self.alive.is_empty()
    }

    /// High-water mark of resident candidate bytes.
    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes
    }

    /// Feed the next candidate and advance the tournament as far as the
    /// arrived prefix allows. Probes are charged to `player` and pair
    /// samples are drawn from `rng`, exactly as the batch loop would.
    pub fn push(
        &mut self,
        ctx: &Ctx<'_>,
        player: u32,
        candidate: BitVec,
        objects: &[u32],
        rng: &mut SmallRng,
    ) {
        self.resident_bytes += candidate_bytes(&candidate);
        self.peak_bytes = self.peak_bytes.max(self.resident_bytes);
        self.cands.push(Some(candidate));
        self.alive.push(true);
        self.advance(ctx, player, objects, rng, false);
    }

    /// Declare the candidate list complete, run the tournament to the end,
    /// and return the winning candidate (the first surviving index)
    /// together with its index.
    pub fn finish(
        mut self,
        ctx: &Ctx<'_>,
        player: u32,
        objects: &[u32],
        rng: &mut SmallRng,
    ) -> (usize, BitVec) {
        self.finish_round(ctx, player, objects, rng)
    }

    /// [`StreamingRSelect::finish`] through a `&mut` borrow, for callers
    /// that hold their machines in place (`peak_bytes` stays readable
    /// afterwards). The machine is spent: pushing after `finish_round` is
    /// a contract violation, as it would be after `finish`.
    pub fn finish_round(
        &mut self,
        ctx: &Ctx<'_>,
        player: u32,
        objects: &[u32],
        rng: &mut SmallRng,
    ) -> (usize, BitVec) {
        assert!(
            !self.cands.is_empty(),
            "rselect needs at least one candidate"
        );
        self.advance(ctx, player, objects, rng, true);
        let winner = self
            .alive
            .iter()
            .position(|&a| a)
            .expect("at least one candidate survives");
        let vector = self.cands[winner].take().expect("winner is resident");
        (winner, vector)
    }

    fn kill(&mut self, x: usize) {
        self.alive[x] = false;
        if let Some(v) = self.cands[x].take() {
            self.resident_bytes -= candidate_bytes(&v);
        }
    }

    /// Run the cursor forward. With `finished == false`, stop when the next
    /// pair needs a candidate beyond the arrived prefix; with `finished ==
    /// true`, treat the arrived count as the batch loop's `k`.
    fn advance(
        &mut self,
        ctx: &Ctx<'_>,
        player: u32,
        objects: &[u32],
        rng: &mut SmallRng,
        finished: bool,
    ) {
        let arrived = self.cands.len();
        loop {
            if self.i >= arrived {
                return; // outer loop exhausted (so far)
            }
            if !self.alive[self.i] {
                // Batch: outer-loop `continue` / inner-loop break on dead i.
                self.i += 1;
                self.j = self.i + 1;
                continue;
            }
            if self.j >= arrived {
                if !finished {
                    return; // stall: pair (i, j) needs the next candidate
                }
                // j reached k: inner loop over, next i.
                self.i += 1;
                self.j = self.i + 1;
                continue;
            }
            if !self.alive[self.j] {
                // Batch breaks the inner loop at a dead j.
                self.i += 1;
                self.j = self.i + 1;
                continue;
            }
            let ci = self.cands[self.i].as_ref().expect("alive i resident");
            let cj = self.cands[self.j].as_ref().expect("alive j resident");
            let d = ci.hamming(cj);
            if d == 0 {
                let j = self.j;
                self.kill(j); // exact duplicate, no draw
                self.j += 1;
                continue;
            }
            // Sample ranks in the disagreement set, then map them to
            // coordinates in one walk: the same draws and probes as
            // indexing `diff_indices`, without building it.
            let t = self.sample.min(d).max(1);
            let picks = ci.diff_at_rank_bits(cj, &choose_k_bits(rng, d, t));
            let mut agree_i = 0usize;
            for &coord in &picks {
                let coord = coord as usize;
                let truth = ctx.oracle.probe(player, objects[coord]);
                if ci.get(coord) == truth {
                    agree_i += 1;
                }
            }
            let agree_j = t - agree_i; // complementary on the diff set
            if agree_i as f64 >= self.threshold * t as f64 {
                let j = self.j;
                self.kill(j);
            } else if agree_j as f64 >= self.threshold * t as f64 {
                let i = self.i;
                self.kill(i);
            }
            self.j += 1;
        }
    }
}

/// `Select(V, D)_p` — the deterministic tournament Figure 1 references but
/// does not spell out. Reconstruction (DESIGN.md §4.2): *batched
/// score-and-eliminate*, linear in `|V|`:
///
/// 1. While more than one candidate survives, compute the disagreement set
///    of the survivors and probe a batch of `ceil(c_select · ln n)` objects
///    from it (seeded deterministically from `rng`).
/// 2. Score every survivor by agreement with the probed truth; drop all
///    candidates scoring more than `select_margin · batch` below the best,
///    and at minimum the single worst (progress guarantee).
///
/// The margin keeps the within-`D` candidate alive (it loses at most its
/// distance in expectation) while far candidates lose quickly; total probes
/// are `O(|V| · log n)` — linear, as Theorem 5's probe accounting needs.
/// Returns the index of the selected candidate in `candidates`.
///
/// This is `SelectPlan::new` followed by one `SelectPlan::select`;
/// `SmallRadius`, which runs many players against one candidate list,
/// builds the plan once instead (DESIGN.md §4.2).
pub fn select_among(
    ctx: &Ctx<'_>,
    player: u32,
    candidates: &[BitVec],
    objects: &[u32],
    rng: &mut SmallRng,
) -> usize {
    SelectPlan::new(candidates).select(ctx, player, objects, rng)
}

/// The player-independent half of [`select_among`], built once per
/// candidate list and shared by every player that selects from it
/// (DESIGN.md §4.2).
///
/// It holds the distinct candidates (*representatives*) in first-seen
/// order, one bit column per coordinate — bit `r` of column `c` is
/// representative `r`'s bit `c`, and every column is `⌈k/64⌉` words for
/// `k` representatives — and the coordinates on which the representatives
/// do not all agree, ascending. [`SelectPlan::select`] only probes and
/// tallies: a round's disputed set is this list filtered by the alive
/// mask, and a probed coordinate scores every survivor with one masked
/// word operation per column word.
pub(crate) struct SelectPlan {
    /// `reps[r]` is representative `r`'s index in the candidate list.
    reps: Vec<usize>,
    /// Words per column.
    stride: usize,
    /// Column `c` occupies `columns[c * stride..(c + 1) * stride]`.
    columns: Vec<u64>,
    /// Coordinates where the representatives disagree, ascending.
    disputed: Vec<u32>,
}

impl SelectPlan {
    /// Dedupe `candidates` (equal-length vectors), transpose the
    /// representatives into bit columns, and compute their disputed
    /// coordinates. Panics on an empty list.
    pub(crate) fn new(candidates: &[BitVec]) -> SelectPlan {
        assert!(
            !candidates.is_empty(),
            "select needs at least one candidate"
        );
        // Votes produce many duplicates, and k² duplicate pairings would
        // waste probes.
        let mut reps: Vec<usize> = Vec::new();
        'outer: for (i, c) in candidates.iter().enumerate() {
            for &r in &reps {
                if candidates[r].bits_eq(c) {
                    continue 'outer;
                }
            }
            reps.push(i);
        }

        let stride = words_for(reps.len());
        let mut columns = vec![0u64; candidates[0].len() * stride];
        for (r, &i) in reps.iter().enumerate() {
            let (word, bit) = (r / WORD_BITS, 1u64 << (r % WORD_BITS));
            for c in candidates[i].iter_ones() {
                columns[c * stride + word] |= bit;
            }
        }
        let views: Vec<&BitVec> = reps.iter().map(|&i| &candidates[i]).collect();
        let disputed = disagreement_indices(&views);
        SelectPlan {
            reps,
            stride,
            columns,
            disputed,
        }
    }

    fn column(&self, coord: u32) -> &[u64] {
        &self.columns[coord as usize * self.stride..][..self.stride]
    }

    /// True when the alive representatives do not all agree on `coord`.
    fn splits(&self, coord: u32, alive: &BitVec) -> bool {
        let (mut ones, mut zeros) = (0u64, 0u64);
        for (&col, &live) in self.column(coord).iter().zip(alive.words()) {
            ones |= col & live;
            zeros |= !col & live;
        }
        ones != 0 && zeros != 0
    }

    /// Run `player`'s tournament over the plan's candidates and return the
    /// winner's index in the list the plan was built from. Probes are
    /// charged to `player` and batches are drawn from `rng`; `objects`
    /// maps coordinates to global object ids.
    pub(crate) fn select(
        &self,
        ctx: &Ctx<'_>,
        player: u32,
        objects: &[u32],
        rng: &mut SmallRng,
    ) -> usize {
        let batch = (ctx.params.c_select * ctx.ln_n()).ceil() as usize;
        let margin = ctx.params.select_margin;
        let k = self.reps.len();

        let mut alive = BitVec::ones(k);
        let mut alive_count = k;
        let mut cumulative: Vec<i64> = vec![0; k];
        let mut scores: Vec<usize> = vec![0; k];
        let mut picks: Vec<u32> = Vec::with_capacity(self.disputed.len());

        while alive_count > 1 {
            // The survivors are a subset of the representatives, so their
            // disputed set is a sub-list of the plan's, in the same order.
            picks.clear();
            if alive_count == k {
                picks.extend_from_slice(&self.disputed);
            } else {
                picks.extend(
                    self.disputed
                        .iter()
                        .copied()
                        .filter(|&c| self.splits(c, &alive)),
                );
            }
            if picks.is_empty() {
                break;
            }
            let t = batch.min(picks.len()).max(1);
            picks.shuffle(rng);
            picks.truncate(t);

            scores.fill(0);
            for &coord in &picks {
                let truth = ctx.oracle.probe(player, objects[coord as usize]);
                for (w, (&col, &live)) in self.column(coord).iter().zip(alive.words()).enumerate() {
                    let mut agree = if truth { col } else { !col } & live;
                    while agree != 0 {
                        scores[w * WORD_BITS + agree.trailing_zeros() as usize] += 1;
                        agree &= agree - 1;
                    }
                }
            }
            let mut best = 0;
            for r in alive.iter_ones() {
                cumulative[r] += scores[r] as i64;
                best = best.max(scores[r]);
            }

            let cut = best.saturating_sub((margin * t as f64).ceil() as usize);
            let losers: Vec<usize> = alive.iter_ones().filter(|&r| scores[r] < cut).collect();
            if losers.is_empty() {
                // No clear loser: drop the single worst (ties: latest
                // position) so the loop always progresses.
                let worst = alive
                    .iter_ones()
                    .min_by_key(|&r| (scores[r], std::cmp::Reverse(r)))
                    .expect("non-empty");
                alive.set(worst, false);
                alive_count -= 1;
            } else {
                for &r in &losers {
                    alive.set(r, false);
                }
                alive_count -= losers.len();
            }
        }

        // Highest cumulative score; ties go to the latest position.
        let winner = alive
            .iter_ones()
            .max_by_key(|&r| cumulative[r])
            .expect("one candidate remains");
        self.reps[winner]
    }
}

/// Convenience: run [`select_among`] and clone out the winning vector.
pub fn select_vector(
    ctx: &Ctx<'_>,
    player: u32,
    candidates: &[BitVec],
    objects: &[u32],
    rng: &mut SmallRng,
) -> BitVec {
    candidates[select_among(ctx, player, candidates, objects, rng)].clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BlockParams;
    use byzscore_adversary::Behaviors;
    use byzscore_bitset::BitMatrix;
    use byzscore_board::{Board, Oracle};
    use byzscore_random::{choose_k, Beacon};
    use rand::SeedableRng;

    /// Build a 1-player world whose truth row is `truth`, plus harness.
    fn world(truth: BitVec) -> (BitMatrix, BlockParams) {
        (BitMatrix::from_rows(&[truth]), BlockParams::default())
    }

    fn all_objects(n: usize) -> Vec<u32> {
        (0..n as u32).collect()
    }

    /// The batch `RSelect` loop over the full candidate list: the
    /// definition [`StreamingRSelect`] replays.
    fn rselect_reference(
        ctx: &Ctx<'_>,
        player: u32,
        candidates: &[BitVec],
        objects: &[u32],
        rng: &mut SmallRng,
    ) -> usize {
        assert!(
            !candidates.is_empty(),
            "rselect needs at least one candidate"
        );
        let sample = (ctx.params.c_rselect * ctx.ln_n()).ceil() as usize;
        let threshold = ctx.params.rselect_threshold;
        let k = candidates.len();
        let mut alive = vec![true; k];

        for i in 0..k {
            if !alive[i] {
                continue;
            }
            for j in (i + 1)..k {
                if !alive[j] || !alive[i] {
                    break;
                }
                let diff = candidates[i].diff_indices(&candidates[j]);
                if diff.is_empty() {
                    alive[j] = false; // exact duplicate
                    continue;
                }
                let t = sample.min(diff.len()).max(1);
                let picks = choose_k(rng, diff.len(), t);
                let mut agree_i = 0usize;
                for &x in &picks {
                    let coord = diff[x as usize] as usize;
                    let truth = ctx.oracle.probe(player, objects[coord]);
                    if candidates[i].get(coord) == truth {
                        agree_i += 1;
                    }
                }
                let agree_j = t - agree_i; // complementary on the diff set
                if agree_i as f64 >= threshold * t as f64 {
                    alive[j] = false;
                } else if agree_j as f64 >= threshold * t as f64 {
                    alive[i] = false;
                }
                // Otherwise both survive this pairing (the paper keeps both).
            }
        }

        alive
            .iter()
            .position(|&a| a)
            .expect("at least one candidate survives")
    }

    /// `Select` as one self-contained loop: per call it dedupes, recomputes
    /// every round's disputed set from the survivors' vectors and scores
    /// them bit by bit. The definition [`SelectPlan`] must replay.
    fn select_reference(
        ctx: &Ctx<'_>,
        player: u32,
        candidates: &[BitVec],
        objects: &[u32],
        rng: &mut SmallRng,
    ) -> usize {
        assert!(
            !candidates.is_empty(),
            "select needs at least one candidate"
        );
        let batch = (ctx.params.c_select * ctx.ln_n()).ceil() as usize;
        let margin = ctx.params.select_margin;

        let mut reps: Vec<usize> = Vec::new();
        'outer: for (i, c) in candidates.iter().enumerate() {
            for &r in &reps {
                if candidates[r].bits_eq(c) {
                    continue 'outer;
                }
            }
            reps.push(i);
        }

        let mut cumulative: Vec<i64> = vec![0; reps.len()];
        let mut alive: Vec<usize> = (0..reps.len()).collect();

        while alive.len() > 1 {
            let views: Vec<&BitVec> = alive.iter().map(|&a| &candidates[reps[a]]).collect();
            let disputed = disagreement_indices(&views);
            if disputed.is_empty() {
                break;
            }
            let t = batch.min(disputed.len()).max(1);
            let mut picks = disputed;
            picks.shuffle(rng);
            picks.truncate(t);

            let mut scores: Vec<usize> = vec![0; alive.len()];
            for &coord in &picks {
                let truth = ctx.oracle.probe(player, objects[coord as usize]);
                for (s, &a) in scores.iter_mut().zip(&alive) {
                    if candidates[reps[a]].get(coord as usize) == truth {
                        *s += 1;
                    }
                }
            }
            for (&a, &s) in alive.iter().zip(&scores) {
                cumulative[a] += s as i64;
            }

            let best = *scores.iter().max().expect("non-empty");
            let cut = best.saturating_sub((margin * t as f64).ceil() as usize);
            let before = alive.len();
            let survivors: Vec<usize> = alive
                .iter()
                .zip(&scores)
                .filter(|&(_, &s)| s >= cut)
                .map(|(&a, _)| a)
                .collect();
            alive = if survivors.len() < before {
                survivors
            } else {
                let worst_pos = scores
                    .iter()
                    .enumerate()
                    .min_by_key(|&(pos, &s)| (s, std::cmp::Reverse(pos)))
                    .map(|(pos, _)| pos)
                    .expect("non-empty");
                alive
                    .iter()
                    .enumerate()
                    .filter(|&(pos, _)| pos != worst_pos)
                    .map(|(_, &a)| a)
                    .collect()
            };
        }

        let winner = alive
            .into_iter()
            .max_by_key(|&a| cumulative[a])
            .expect("one candidate remains");
        reps[winner]
    }

    #[test]
    fn rselect_picks_exact_match() {
        let mut rng = SmallRng::seed_from_u64(5);
        let truth = BitVec::random(&mut rng, 256);
        let mut far = truth.clone();
        far.flip_random_distinct(&mut rng, 120);
        let mut near = truth.clone();
        near.flip_random_distinct(&mut rng, 2);
        let (m, params) = world(truth.clone());
        let oracle = Oracle::new(&m);
        let board = Board::new();
        let behaviors = Behaviors::all_honest(&m);
        let ctx = Ctx::new(&oracle, &board, &behaviors, Beacon::honest(1), &params);
        let cands = vec![far, truth.clone(), near];
        let mut prng = SmallRng::seed_from_u64(9);
        let won = rselect(&ctx, 0, &cands, &all_objects(256), &mut prng);
        let d = cands[won].hamming(&truth);
        assert!(d <= 2, "rselect picked a candidate at distance {d}");
    }

    #[test]
    fn rselect_single_candidate_costs_nothing() {
        let (m, params) = world(BitVec::zeros(16));
        let oracle = Oracle::new(&m);
        let board = Board::new();
        let behaviors = Behaviors::all_honest(&m);
        let ctx = Ctx::new(&oracle, &board, &behaviors, Beacon::honest(1), &params);
        let mut prng = SmallRng::seed_from_u64(1);
        assert_eq!(
            rselect(&ctx, 0, &[BitVec::ones(16)], &all_objects(16), &mut prng),
            0
        );
        assert_eq!(oracle.ledger().total(), 0);
    }

    #[test]
    fn rselect_dedups_duplicates_free() {
        let (m, params) = world(BitVec::zeros(64));
        let oracle = Oracle::new(&m);
        let board = Board::new();
        let behaviors = Behaviors::all_honest(&m);
        let ctx = Ctx::new(&oracle, &board, &behaviors, Beacon::honest(1), &params);
        let mut prng = SmallRng::seed_from_u64(2);
        let c = BitVec::zeros(64);
        let won = rselect(
            &ctx,
            0,
            &[c.clone(), c.clone(), c],
            &all_objects(64),
            &mut prng,
        );
        assert_eq!(won, 0);
        assert_eq!(
            oracle.ledger().total(),
            0,
            "duplicates eliminated without probes"
        );
    }

    #[test]
    fn rselect_probe_complexity_quadratic_logn() {
        let mut rng = SmallRng::seed_from_u64(7);
        let truth = BitVec::random(&mut rng, 512);
        let (m, params) = world(truth.clone());
        let oracle = Oracle::new(&m);
        let board = Board::new();
        let behaviors = Behaviors::all_honest(&m);
        let ctx = Ctx::new(&oracle, &board, &behaviors, Beacon::honest(1), &params);
        let k = 8;
        let cands: Vec<BitVec> = (0..k)
            .map(|i| {
                let mut v = truth.clone();
                v.flip_random_distinct(&mut rng, 10 * i);
                v
            })
            .collect();
        let mut prng = SmallRng::seed_from_u64(3);
        rselect(&ctx, 0, &cands, &all_objects(512), &mut prng);
        let bound = (k * k) as u64 * (ctx.params.c_rselect * ctx.ln_n()).ceil() as u64;
        assert!(
            oracle.ledger().total() <= bound,
            "probes {} exceed k²·sample {}",
            oracle.ledger().total(),
            bound
        );
    }

    /// Run every candidate list in `cases` through the batch reference and
    /// the streaming machine over a one-player world whose truth is
    /// `truth`, and check they agree draw for draw.
    fn assert_replays(truth: &BitVec, cases: Vec<Vec<BitVec>>) {
        use rand::RngCore;
        let (m, params) = world(truth.clone());
        let oracle_a = Oracle::new(&m);
        let oracle_b = Oracle::new(&m);
        let board = Board::new();
        let behaviors = Behaviors::all_honest(&m);
        let objects = all_objects(truth.len());

        for (case_no, cands) in cases.into_iter().enumerate() {
            let ctx_a = Ctx::new(&oracle_a, &board, &behaviors, Beacon::honest(1), &params);
            let ctx_b = Ctx::new(&oracle_b, &board, &behaviors, Beacon::honest(1), &params);
            let before_a = oracle_a.ledger().total();
            let before_b = oracle_b.ledger().total();

            let mut batch_rng = SmallRng::seed_from_u64(1000 + case_no as u64);
            let won = rselect_reference(&ctx_a, 0, &cands, &objects, &mut batch_rng);

            let mut stream_rng = SmallRng::seed_from_u64(1000 + case_no as u64);
            let mut sel = StreamingRSelect::new(&ctx_b);
            for c in &cands {
                sel.push(&ctx_b, 0, c.clone(), &objects, &mut stream_rng);
            }
            let (s_won, s_vec) = sel.finish(&ctx_b, 0, &objects, &mut stream_rng);

            assert_eq!(won, s_won, "case {case_no}: winner index diverged");
            assert!(
                s_vec.bits_eq(&cands[won]),
                "case {case_no}: winner vector diverged"
            );
            assert_eq!(
                oracle_a.ledger().total() - before_a,
                oracle_b.ledger().total() - before_b,
                "case {case_no}: probe counts diverged"
            );
            assert_eq!(
                batch_rng.next_u64(),
                stream_rng.next_u64(),
                "case {case_no}: RNG streams diverged (extra or missing draws)"
            );
        }
    }

    /// The streaming machine must replay the batch tournament draw for
    /// draw: same winner, same probe count, and the private RNG left in
    /// the same state (checked by drawing one more value from each).
    #[test]
    fn streaming_replays_batch_draw_for_draw() {
        let mut rng = SmallRng::seed_from_u64(17);
        let truth = BitVec::random(&mut rng, 300);
        // Candidate shapes that exercise every branch: duplicates (no
        // draw), a far candidate (eliminated), a near one, the truth, and
        // duplicates of earlier entries appearing late.
        let mut far = truth.clone();
        far.flip_random_distinct(&mut rng, 140);
        let mut near = truth.clone();
        near.flip_random_distinct(&mut rng, 3);
        let mut mid = truth.clone();
        mid.flip_random_distinct(&mut rng, 40);
        let cases: Vec<Vec<BitVec>> = vec![
            vec![truth.clone()],
            vec![far.clone(), truth.clone()],
            vec![far.clone(), far.clone(), near.clone()],
            vec![
                far.clone(),
                truth.clone(),
                near.clone(),
                far.clone(),
                mid.clone(),
                near.clone(),
            ],
            vec![mid.clone(), mid.clone(), mid.clone()],
            vec![near.clone(), far.clone(), mid.clone(), truth.clone()],
        ];

        assert_replays(&truth, cases);

        // Lengths around the word size: candidates that disagree with the
        // truth on the first and last bit of a word and in a partial last
        // word, so the rank walk crosses every word edge.
        for len in [1usize, 63, 64, 65, 1024] {
            let truth = BitVec::random(&mut rng, len);
            let flipped = |at: &[usize]| {
                let mut v = truth.clone();
                for &i in at.iter().filter(|&&i| i < len) {
                    v.set(i, !truth.get(i)); // a repeated index stays flipped
                }
                v
            };
            let edges = flipped(&[0, 63, 64, 127, 960, 1023, len - 1]);
            let first = flipped(&[0]);
            let last = flipped(&[len - 1]);
            let far = truth.complement();
            let cases: Vec<Vec<BitVec>> = vec![
                vec![edges.clone(), truth.clone()],
                vec![
                    far.clone(),
                    last.clone(),
                    truth.clone(),
                    first.clone(),
                    edges.clone(),
                ],
                vec![first.clone(), first.clone(), last.clone()],
                vec![
                    truth.clone(),
                    far.clone(),
                    edges.clone(),
                    last.clone(),
                    far.clone(),
                ],
                vec![far.clone(), edges, first, last, truth.clone()],
            ];
            assert_replays(&truth, cases);
        }
    }

    /// Residency peaks at the surviving prefix, not the full list: pushing
    /// many duplicates of one vector keeps exactly one resident.
    #[test]
    fn streaming_frees_eliminated_candidates() {
        let (m, params) = world(BitVec::zeros(128));
        let oracle = Oracle::new(&m);
        let board = Board::new();
        let behaviors = Behaviors::all_honest(&m);
        let ctx = Ctx::new(&oracle, &board, &behaviors, Beacon::honest(1), &params);
        let objects = all_objects(128);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut sel = StreamingRSelect::new(&ctx);
        let c = BitVec::zeros(128);
        let per = (c.words().len() * 8) as u64;
        for _ in 0..16 {
            sel.push(&ctx, 0, c.clone(), &objects, &mut rng);
        }
        // A duplicate dies the moment the pair (0, j) is visited, so at
        // most two copies are ever resident at once.
        assert_eq!(sel.peak_bytes(), 2 * per);
        let (won, _) = sel.finish(&ctx, 0, &objects, &mut rng);
        assert_eq!(won, 0);
        assert_eq!(oracle.ledger().total(), 0);
    }

    #[test]
    fn select_picks_close_candidate() {
        let mut rng = SmallRng::seed_from_u64(11);
        let truth = BitVec::random(&mut rng, 400);
        let (m, params) = world(truth.clone());
        let oracle = Oracle::new(&m);
        let board = Board::new();
        let behaviors = Behaviors::all_honest(&m);
        let ctx = Ctx::new(&oracle, &board, &behaviors, Beacon::honest(1), &params);
        let mut cands: Vec<BitVec> = (0..12)
            .map(|_| {
                let mut v = truth.clone();
                v.flip_random_distinct(&mut rng, 150);
                v
            })
            .collect();
        let mut near = truth.clone();
        near.flip_random_distinct(&mut rng, 4);
        cands.push(near);
        let mut prng = SmallRng::seed_from_u64(4);
        let won = select_among(&ctx, 0, &cands, &all_objects(400), &mut prng);
        let d = cands[won].hamming(&truth);
        assert!(d <= 30, "select picked distance {d}");
    }

    #[test]
    fn select_linear_probe_cost() {
        let mut rng = SmallRng::seed_from_u64(13);
        let truth = BitVec::random(&mut rng, 600);
        let (m, params) = world(truth.clone());
        let oracle = Oracle::new(&m);
        let board = Board::new();
        let behaviors = Behaviors::all_honest(&m);
        let ctx = Ctx::new(&oracle, &board, &behaviors, Beacon::honest(1), &params);
        let k = 20;
        let cands: Vec<BitVec> = (0..k)
            .map(|_| {
                let mut v = truth.clone();
                v.flip_random_distinct(&mut rng, 60);
                v
            })
            .collect();
        let mut prng = SmallRng::seed_from_u64(5);
        select_among(&ctx, 0, &cands, &all_objects(600), &mut prng);
        // Each round drops ≥ 1 candidate, so ≤ (k−1) batches.
        let bound = (k as u64) * (ctx.params.c_select * ctx.ln_n()).ceil() as u64;
        assert!(
            oracle.ledger().total() <= bound,
            "probes {} exceed linear bound {}",
            oracle.ledger().total(),
            bound
        );
    }

    #[test]
    fn select_vector_returns_winner() {
        let (m, params) = world(BitVec::ones(32));
        let oracle = Oracle::new(&m);
        let board = Board::new();
        let behaviors = Behaviors::all_honest(&m);
        let ctx = Ctx::new(&oracle, &board, &behaviors, Beacon::honest(1), &params);
        let mut prng = SmallRng::seed_from_u64(6);
        let won = select_vector(
            &ctx,
            0,
            &[BitVec::zeros(32), BitVec::ones(32)],
            &all_objects(32),
            &mut prng,
        );
        assert_eq!(won.count_ones(), 32);
    }

    #[test]
    fn select_on_restricted_objects_probes_globally() {
        // Candidates over a 3-object subset {5, 9, 20} of a 32-object world.
        let mut truth = BitVec::zeros(32);
        truth.set(9, true);
        let (m, params) = world(truth);
        let oracle = Oracle::new(&m);
        let board = Board::new();
        let behaviors = Behaviors::all_honest(&m);
        let ctx = Ctx::new(&oracle, &board, &behaviors, Beacon::honest(1), &params);
        let objects = vec![5u32, 9, 20];
        let good = BitVec::from_bools(&[false, true, false]);
        let bad = BitVec::from_bools(&[true, false, true]);
        let mut prng = SmallRng::seed_from_u64(8);
        let won = select_among(&ctx, 0, &[bad, good.clone()], &objects, &mut prng);
        assert_eq!(won, 1);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// One plan, reused by four players in sequence as `per_group`
        /// reuses it, replays [`select_reference`] draw for draw: same
        /// winner, same charged probes on a literal-accounting oracle, and
        /// the private RNG left in the same state. `k` crosses the one-word
        /// column boundary at 64; the pool sizes give all-distinct lists,
        /// lists with repeats, and lists of one repeated vector.
        #[test]
        fn plan_replays_reference_draw_for_draw(
            seed in 0u64..1_000_000,
            k in 1usize..=80,
            len_choice in 0usize..5,
            pool_choice in 0usize..3,
        ) {
            use rand::{Rng, RngCore};
            let len = [1usize, 63, 64, 65, 340][len_choice];
            let players = 4u32;
            let mut rng = SmallRng::seed_from_u64(seed);
            let rows: Vec<BitVec> = (0..players)
                .map(|_| BitVec::random(&mut rng, len + 7))
                .collect();
            let truth = BitMatrix::from_rows(&rows);
            // Coordinates map to scattered global ids.
            let mut objects = all_objects(len + 7);
            objects.shuffle(&mut rng);
            objects.truncate(len);

            let base = rows[0].project(&objects);
            let distinct = match pool_choice {
                0 => k,
                1 => rng.gen_range(1..=k.div_ceil(3)),
                _ => 1,
            };
            let pool: Vec<BitVec> = (0..distinct)
                .map(|_| {
                    if rng.gen_bool(0.5) {
                        let flips = rng.gen_range(0..=len.min(12));
                        let mut v = base.clone();
                        v.flip_random_distinct(&mut rng, flips);
                        v
                    } else {
                        BitVec::random(&mut rng, len)
                    }
                })
                .collect();
            let cands: Vec<BitVec> = (0..k)
                .map(|i| {
                    let pick = if i < distinct { i } else { rng.gen_range(0..distinct) };
                    pool[pick].clone()
                })
                .collect();

            let params = BlockParams::default();
            let board = Board::new();
            let behaviors = Behaviors::all_honest(&truth);
            let oracle_a = Oracle::new_uncached(&truth);
            let oracle_b = Oracle::new_uncached(&truth);
            let ctx_a = Ctx::new(&oracle_a, &board, &behaviors, Beacon::honest(1), &params);
            let ctx_b = Ctx::new(&oracle_b, &board, &behaviors, Beacon::honest(1), &params);

            let plan = SelectPlan::new(&cands);
            for player in 0..players {
                let mut rng_a = SmallRng::seed_from_u64(seed ^ (u64::from(player) << 40));
                let mut rng_b = SmallRng::seed_from_u64(seed ^ (u64::from(player) << 40));
                let want = select_reference(&ctx_a, player, &cands, &objects, &mut rng_a);
                let got = plan.select(&ctx_b, player, &objects, &mut rng_b);
                proptest::prop_assert_eq!(got, want);
                proptest::prop_assert_eq!(
                    oracle_b.ledger().count(player),
                    oracle_a.ledger().count(player)
                );
                proptest::prop_assert_eq!(rng_b.next_u64(), rng_a.next_u64());
            }
        }
    }
}
