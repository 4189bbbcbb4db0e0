//! Bounded top-k selection and the one top-k scan.
//!
//! Retrieval ranks every candidate item for a user but only ever returns the
//! `k` best.  Sorting all `n` scores costs `O(n log n)` and materializes the
//! whole score vector; the bounded min-heap here costs `O(n log k)` with
//! `O(k)` state, which is what makes blocked scoring over 100k+ item
//! catalogs cheap.  [`scan_top_k`] drives the heaps over the blocks of a
//! segmented catalog via [`crate::batch::batch_score_segment`] (or the
//! quantized [`crate::quant::batch_score_rows_quant`]).  It is the only
//! place the scan policy lives: the pruning bound, early termination,
//! quantized decode and rerank, exclusions and the tie-break.
//! `MatrixFactorizer::recommend`, the `cumf-serve` snapshot's single
//! request path and its batched index all call it.

use crate::batch::{batch_score_segment, score_dot, SegmentView};
use crate::quant::batch_score_rows_quant;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};
use std::time::Instant;

/// Default number of items scored per block.  512 vectors of `f ≤ 128`
/// floats keep the block within L2 while amortizing heap checks.
pub const DEFAULT_ITEM_BLOCK: usize = 512;

#[derive(Debug, Clone, Copy, PartialEq)]
struct Scored {
    score: f32,
    item: u32,
}

impl Eq for Scored {}

impl Ord for Scored {
    fn cmp(&self, other: &Self) -> Ordering {
        // Lower score = "greater" so BinaryHeap (a max-heap) keeps the
        // *worst* kept item at the top, ready for eviction.  Ties break
        // toward evicting the larger item id, so results prefer small ids —
        // deterministic regardless of scoring order.
        other
            .score
            .total_cmp(&self.score)
            .then_with(|| self.item.cmp(&other.item))
    }
}

impl PartialOrd for Scored {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A bounded min-heap keeping the `k` highest-scored items seen so far.
#[derive(Debug, Clone)]
pub struct TopK {
    k: usize,
    heap: BinaryHeap<Scored>,
}

impl TopK {
    /// Creates an accumulator for the best `k` items.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        Self {
            k,
            heap: BinaryHeap::with_capacity(k + 1),
        }
    }

    /// Offers one scored item; keeps it only if it beats the current k-th
    /// best.  NaN scores are rejected.
    #[inline]
    pub fn push(&mut self, item: u32, score: f32) {
        if score.is_nan() {
            return;
        }
        if self.heap.len() < self.k {
            self.heap.push(Scored { score, item });
            return;
        }
        let worst = self.heap.peek().expect("heap is non-empty when full");
        let candidate = Scored { score, item };
        // `worst` sorts "greater" when its score is lower (see `Ord`).
        if *worst > candidate {
            self.heap.pop();
            self.heap.push(candidate);
        }
    }

    /// Lowest score currently kept, if the heap is full (useful for
    /// short-circuiting whole blocks of low-scoring candidates).
    pub fn threshold(&self) -> Option<f32> {
        if self.heap.len() < self.k {
            None
        } else {
            self.heap.peek().map(|s| s.score)
        }
    }

    /// Number of items currently held (`≤ k`).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no item has been kept yet.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Consumes the heap, returning `(item, score)` sorted by score
    /// descending (ties by item id ascending).
    pub fn into_sorted_vec(self) -> Vec<(u32, f32)> {
        let mut v: Vec<Scored> = self.heap.into_vec();
        v.sort_unstable_by(|a, b| b.score.total_cmp(&a.score).then(a.item.cmp(&b.item)));
        v.into_iter().map(|s| (s.item, s.score)).collect()
    }
}

/// Relative slack applied to the Cauchy–Schwarz bound `‖x‖·max‖θ‖` before
/// comparing it against a heap [`TopK::threshold`].  The exact bound already
/// dominates every exact dot product in the block; the slack additionally
/// covers the `O(f·ε)` rounding of the four-lane f32 kernel (and of the
/// norms themselves), so a block is only ever skipped when **no** computed
/// score in it could enter the heap — pruning never changes results.
pub const NORM_BOUND_SLACK: f32 = 1.0 + 1e-3;

/// Per-block maxima of item L2 norms for `item_block`-sized blocks — the
/// precomputed side of threshold pruning ([`scan_top_k`]): block
/// `b` covers items `[b·item_block, (b+1)·item_block)` and no item in it can
/// score above `‖x_u‖ · block_max[b]`.
pub fn block_max_norms(item_norms: &[f32], item_block: usize) -> Vec<f32> {
    assert!(item_block > 0, "item block must be positive");
    item_norms
        .chunks(item_block)
        .map(|block| block.iter().fold(0.0f32, |m, &n| m.max(n)))
        .collect()
}

/// L2 norms of every row of a row-major factor table (`‖θ_v‖` per item).
pub fn item_norms(items: &[f32], f: usize) -> Vec<f32> {
    assert!(f > 0, "latent dimension must be positive");
    assert_eq!(items.len() % f, 0, "item buffer not a multiple of f");
    items
        .chunks_exact(f)
        .map(|v| crate::blas::norm_sq(v).sqrt())
        .collect()
}

/// Effectiveness counters of whole-block threshold pruning: how many item
/// blocks were actually scored versus skipped on the Cauchy–Schwarz bound.
///
/// A norm-descending item layout clusters high-norm items into the first
/// blocks, so the heap threshold rises early and the long low-norm tail is
/// skipped **systematically**; in catalog order the same pruning is
/// data-dependent.  These counters make that difference measurable (and
/// testable) without changing a single result — pruning is exact either
/// way.
///
/// Approximate retrieval ([`scan_top_k`] with an [`ApproxPolicy`]) adds a third
/// outcome: blocks skipped because an [`ApproxPolicy`] **terminated** the
/// scan early.  Those skips may change results (that is the point of
/// approximation), so they are counted in their own field — an exact-mode
/// dashboard reading `pruned_fraction()` stays truthful when a deployment
/// mixes in approximate traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PruneStats {
    /// Item blocks whose factors were streamed and scored.
    pub blocks_scored: u64,
    /// Item blocks skipped whole on the norm bound — an **exact** decision
    /// that can never change results.
    pub blocks_pruned: u64,
    /// Item blocks skipped because an [`ApproxPolicy`] ended the scan early
    /// (epsilon slack or block budget) — an **approximate** decision; always
    /// 0 on the exact retrieval paths.
    pub blocks_terminated: u64,
    /// Factor bytes streamed from memory by the scan: f32 bytes for plain
    /// segments, encoded bytes (plus scales) for quantized ones, and the
    /// exact f32 rows re-read by the rerank pass.  The numerator of the
    /// bytes-per-query metric the quantized path exists to shrink.
    pub bytes_scanned: u64,
    /// Candidates rescored against exact f32 rows by a quantized scan's
    /// rerank pass; always 0 on full-precision paths.
    pub rerank_candidates: u64,
    /// Wall nanoseconds the rerank pass took (0 when no rerank ran).
    /// Merging sums, so a batch-level value is the total rerank time across
    /// its tiles.
    pub rerank_ns: u64,
}

impl PruneStats {
    /// Folds another counter set into this one.
    pub fn merge(&mut self, other: &PruneStats) {
        self.blocks_scored += other.blocks_scored;
        self.blocks_pruned += other.blocks_pruned;
        self.blocks_terminated += other.blocks_terminated;
        self.bytes_scanned += other.bytes_scanned;
        self.rerank_candidates += other.rerank_candidates;
        self.rerank_ns += other.rerank_ns;
    }

    /// Every block the scan made a decision about (scored, pruned, or
    /// terminated).
    pub fn blocks_visited(&self) -> u64 {
        self.blocks_scored + self.blocks_pruned + self.blocks_terminated
    }

    /// Fraction of visited blocks skipped by **exact** threshold pruning
    /// (`0.0` when none were visited).  Early-terminated blocks count in
    /// the denominator but not the numerator — approximate skips do not
    /// inflate the exact-pruning rate.
    pub fn pruned_fraction(&self) -> f64 {
        let total = self.blocks_visited();
        if total == 0 {
            0.0
        } else {
            self.blocks_pruned as f64 / total as f64
        }
    }

    /// Fraction of visited blocks skipped by **approximate** early
    /// termination (`0.0` when none were visited).
    pub fn terminated_fraction(&self) -> f64 {
        let total = self.blocks_visited();
        if total == 0 {
            0.0
        } else {
            self.blocks_terminated as f64 / total as f64
        }
    }
}

/// Knobs of approximate top-k retrieval: trade a bounded score loss for an
/// early end to the block scan.
///
/// Exact retrieval must keep scanning until every remaining block's
/// Cauchy–Schwarz bound `‖x_u‖ · max‖θ_v‖` falls below the heap threshold
/// `t`.  Approximate retrieval discounts that bound by `1 − epsilon` before
/// comparing: the scan of a segment stops at the first block `b` where
///
/// ```text
/// ‖x_u‖ · suffix_max[b] · NORM_BOUND_SLACK · (1 − epsilon) < t
/// ```
///
/// (`suffix_max[b]` = the largest block-max norm from `b` to the end of the
/// segment, so the rule is safe for **any** stored order; in a
/// norm-descending layout it equals `block_max[b]` and fires
/// systematically).  Every item the stop can drop satisfies
/// `score < t / (1 − epsilon)` — the score loss is bounded relative to the
/// k-th best already found, which is why small epsilons cost little recall.
/// At `epsilon = 0` the stop rule coincides with exact per-block pruning
/// and results are **bit-identical** to the exact path.
///
/// `max_blocks` is an orthogonal hard budget on blocks *scored* per
/// retrieval.  Both mechanisms only engage once the heap holds `k` items —
/// a `k ≥ catalog` request (the heap never fills) or a zero-norm user
/// (threshold stuck at 0, bound 0 everywhere) always scans exhaustively and
/// returns full exact results, never a short list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxPolicy {
    /// Relative slack on the termination bound, in `[0, 1)`.  `0` keeps the
    /// scan exact; larger values stop earlier and lose more recall.
    pub epsilon: f32,
    /// Hard budget of blocks scored per retrieval once the heap is full
    /// (`0` = unlimited).
    pub max_blocks: usize,
    /// Advisory recall floor for measurement harnesses and smoke gates —
    /// does not influence the scan itself.
    pub target_recall: f64,
}

/// Default `epsilon` of [`ApproxPolicy::default`] — chosen so the recall
/// harness stays ≥ 0.95 on skewed-norm catalogs while the scan stops
/// measurably earlier than exact pruning.
pub const DEFAULT_APPROX_EPSILON: f32 = 0.1;

impl Default for ApproxPolicy {
    fn default() -> Self {
        Self {
            epsilon: DEFAULT_APPROX_EPSILON,
            max_blocks: 0,
            target_recall: 0.95,
        }
    }
}

impl ApproxPolicy {
    /// A policy equivalent to exact retrieval (`epsilon = 0`, no budget).
    pub fn exact() -> Self {
        Self {
            epsilon: 0.0,
            max_blocks: 0,
            target_recall: 1.0,
        }
    }

    /// A policy with the given epsilon and no block budget.
    ///
    /// # Panics
    /// Panics unless `0 ≤ epsilon < 1`.
    pub fn with_epsilon(epsilon: f32) -> Self {
        let p = Self {
            epsilon,
            ..Self::default()
        };
        p.validate();
        p
    }

    /// True when this policy cannot change results (`epsilon ≤ 0` and no
    /// block budget) — such a policy may share cache entries and micro-
    /// batches with exact requests.
    pub fn is_exact(&self) -> bool {
        self.epsilon <= 0.0 && self.max_blocks == 0
    }

    /// Asserts the policy is usable.
    ///
    /// # Panics
    /// Panics when `epsilon` is outside `[0, 1)` or not finite.
    pub fn validate(&self) {
        assert!(
            self.epsilon.is_finite() && (0.0..1.0).contains(&self.epsilon),
            "approx epsilon must lie in [0, 1), got {}",
            self.epsilon
        );
    }

    /// The multiplier applied to the Cauchy–Schwarz bound before the
    /// termination comparison (slack for f32 rounding included).
    pub fn termination_slack(&self) -> f32 {
        NORM_BOUND_SLACK * (1.0 - self.epsilon)
    }
}

/// Largest block-max norm from each block to the end of the segment:
/// `suffix_max[b] = max(block_max[b..])`.  The early-termination rule
/// compares against this (not `block_max[b]`) so stopping a segment scan is
/// safe for any stored order; for a norm-descending layout the two tables
/// coincide.
pub fn suffix_max_norms(block_max: &[f32]) -> Vec<f32> {
    let mut suffix = block_max.to_vec();
    for b in (0..suffix.len().saturating_sub(1)).rev() {
        suffix[b] = suffix[b].max(suffix[b + 1]);
    }
    suffix
}

/// How a candidate item is scored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScoreKind {
    /// Raw inner product `x_u · θ_v` (predicted rating).
    #[default]
    Dot,
    /// Inner product divided by `‖θ_v‖` — uses the segments' precomputed
    /// item norms to stop high-norm (popular) items from dominating every
    /// list.  The user-norm factor is constant per request and cannot
    /// change the ranking, so it is skipped.  Zero-norm (cold, never
    /// trained) items score 0.0 rather than being dropped, so a request
    /// never comes back shorter than `k` just because the catalog has cold
    /// entries.
    Cosine,
}

/// Users a caller should put in one [`scan_top_k`] tile.  Eight user
/// vectors of `f ≤ 128` floats fit comfortably in L1 next to the item
/// block, so each block streamed from memory is scored for all of them.
pub const SCAN_TILE: usize = 8;

/// Candidate over-fetch multiplier of a scan over quantized segments: the
/// heaps keep `k · RERANK_FACTOR` candidates so the exact rerank can repair
/// orderings the codec error perturbed near the `k`-th score.  Scans over
/// all-f32 segments keep exactly `k`.
pub const RERANK_FACTOR: usize = 2;

/// One user of a [`scan_top_k`] tile.
#[derive(Debug, Clone, Copy)]
pub struct TileQuery<'a> {
    /// The user's factor vector (`f` floats).
    pub user: &'a [f32],
    /// Items wanted; `0` scores nothing and returns an empty list.
    pub k: usize,
    /// Global item ids to leave out (typically the user's rated items).
    pub exclude: &'a [u32],
}

/// The top-`k` scan: ranks a tile of users (up to [`SCAN_TILE`] of them)
/// against a segmented item catalog and returns one `(item, score)` list
/// per user, sorted by score descending with ties broken toward the
/// smaller item id.  Every retrieval path in the workspace — the batched
/// serving index, single-request snapshot retrieval and the trainer's
/// `recommend` — runs through this function.
///
/// Each [`SegmentView`] is scored block by block (segments are
/// block-aligned on their own, so no kernel call straddles a boundary);
/// every block is streamed once for the whole tile and stored rows are
/// remapped to global ids on the way into per-user bounded [`TopK`] heaps.
/// The stored order never changes a score and the heap tie-break is a total
/// order on `(score, global id)`, so results are bit-identical for any
/// segmentation, stored permutation, blocking and tile composition.
///
/// * **Pruning** — under [`ScoreKind::Dot`], once every heap in the tile
///   is full, a block whose Cauchy–Schwarz bound
///   `‖x_u‖ · bound[b] ·` [`NORM_BOUND_SLACK`] is below every heap's
///   threshold is skipped without touching its factors.  `bound[b]` is the
///   block's max norm, widened by [`crate::EncodedSlab::err_bound`] on a
///   quantized segment.  Pruning never changes results.
/// * **Approximation** — with `Some(policy)` the scan of a segment may also
///   stop early under the [`ApproxPolicy`] rules (epsilon termination on
///   the suffix bound, Dot only; the block budget, both score kinds).  Both
///   engage only once every heap holds its candidates, so lists never come
///   back short; [`ApproxPolicy::exact`] is bit-identical to `None`.
/// * **Quantized segments** — a segment carrying an encoded slab is scored
///   from the decoded slab.  When any segment is encoded the heaps keep
///   `k ·` [`RERANK_FACTOR`] candidates, and a final pass rescores them
///   against the segments' exact f32 rows with the same four-lane kernel,
///   re-sorts, and truncates to `k`.
///
/// `stats` accumulates block decisions, bytes streamed (encoded bytes for
/// quantized blocks, plus the exact rows the rerank re-reads), rerank
/// candidates and rerank time.
///
/// # Panics
/// Panics if a user vector is not `f` long, a segment view is inconsistent
/// for rank `f`, or the policy is invalid.
pub fn scan_top_k(
    tile: &[TileQuery<'_>],
    f: usize,
    segments: &[SegmentView<'_>],
    score: ScoreKind,
    approx: Option<&ApproxPolicy>,
    stats: &mut PruneStats,
) -> Vec<Vec<(u32, f32)>> {
    assert!(f > 0, "latent dimension must be positive");
    if let Some(policy) = approx {
        policy.validate();
    }
    let quantized = segments.iter().any(|s| s.encoded.is_some());
    let over_fetch = if quantized { RERANK_FACTOR } else { 1 };
    // Gather the tile into one contiguous (tile × f) operand for the block
    // kernel.
    let mut users = Vec::with_capacity(tile.len() * f);
    for q in tile {
        assert_eq!(q.user.len(), f, "user vector length mismatch");
        users.extend_from_slice(q.user);
    }
    let user_norms: Vec<f32> = tile
        .iter()
        .map(|q| crate::blas::norm_sq(q.user).sqrt())
        .collect();
    let excluded: Vec<HashSet<u32>> = tile
        .iter()
        .map(|q| q.exclude.iter().copied().collect())
        .collect();
    let mut heaps: Vec<Option<TopK>> = tile
        .iter()
        .map(|q| (q.k > 0).then(|| TopK::new(q.k * over_fetch)))
        .collect();

    let max_block = segments
        .iter()
        .map(|s| s.item_block.min(s.n_items().max(1)))
        .max()
        .unwrap_or(1);
    let mut scores = vec![0.0f32; tile.len() * max_block];
    let mut dequant = Vec::new();
    let mut scored_blocks = 0usize;
    let term_slack = approx.map(ApproxPolicy::termination_slack);
    let block_budget = approx.map_or(0, |p| p.max_blocks);
    for seg in segments {
        seg.validate(f);
        let n = seg.n_items();
        let n_blocks = seg.block_max.len();
        // Pruning bound per block.  On a quantized segment `block_max`
        // describes the decoded rows while an exact row may be up to the
        // codec's error bound longer; folding that error in keeps every
        // skip admissible against exact scores.
        let bound = |b: usize| {
            let m = seg.block_max[b];
            match seg.encoded {
                Some(slab) => {
                    let start = b * seg.item_block;
                    m + slab.err_bound(start, (start + seg.item_block).min(n), m)
                }
                None => m,
            }
        };
        // Running maxima of the bound to the segment's end: the stop rule
        // compares against these, so terminating is safe in any stored
        // order.
        let bound_suffix = match (score, term_slack) {
            (ScoreKind::Dot, Some(_)) => {
                suffix_max_norms(&(0..n_blocks).map(bound).collect::<Vec<_>>())
            }
            _ => Vec::new(),
        };
        for (b, start) in (0..n).step_by(seg.item_block).enumerate() {
            let end = (start + seg.item_block).min(n);
            // Dot scoring admits a per-block Cauchy–Schwarz bound; skip the
            // whole block when no user's heap could accept anything in it.
            // (Cosine's bound is ‖x_u‖ for every block — nothing to prune.)
            if score == ScoreKind::Dot {
                // Approximate mode first asks the stronger question: can
                // anything in the *rest of the segment* beat any heap by
                // more than the epsilon slack?  A "no" ends the segment
                // scan — in a norm-descending segment that fires as soon as
                // the first prunable block appears.
                if let Some(slack) = term_slack {
                    let done = heaps.iter().enumerate().all(|(i, h)| match h {
                        Some(h) => h
                            .threshold()
                            .is_some_and(|t| user_norms[i] * bound_suffix[b] * slack < t),
                        None => true,
                    });
                    if done {
                        stats.blocks_terminated += (n_blocks - b) as u64;
                        break;
                    }
                }
                let bound = bound(b) * NORM_BOUND_SLACK;
                let prunable = heaps.iter().enumerate().all(|(i, h)| match h {
                    Some(h) => h.threshold().is_some_and(|t| user_norms[i] * bound < t),
                    None => true,
                });
                if prunable {
                    stats.blocks_pruned += 1;
                    continue;
                }
            }
            // The block budget (both score kinds) skips further blocks once
            // the tile has scored its allowance — but only after every heap
            // holds its candidates, so a k ≥ catalog request is never cut
            // short, and never while a zero-norm user is in the tile: every
            // item ties at score 0 for it, so only the full scan's id
            // tie-break is exact.
            if block_budget > 0
                && scored_blocks >= block_budget
                && heaps.iter().enumerate().all(|(i, h)| {
                    h.as_ref()
                        .is_none_or(|h| h.threshold().is_some() && user_norms[i] > 0.0)
                })
            {
                stats.blocks_terminated += 1;
                continue;
            }
            stats.blocks_scored += 1;
            scored_blocks += 1;
            let nb = end - start;
            let out = &mut scores[..tile.len() * nb];
            match seg.encoded {
                Some(slab) => {
                    stats.bytes_scanned += slab.scan_bytes(start, end);
                    batch_score_rows_quant(
                        &users,
                        tile.len(),
                        slab,
                        start,
                        end,
                        f,
                        &mut dequant,
                        out,
                    );
                }
                None => {
                    stats.bytes_scanned += (nb * f * std::mem::size_of::<f32>()) as u64;
                    batch_score_segment(&users, tile.len(), seg, start, end, f, out);
                }
            }
            for (i, heap) in heaps.iter_mut().enumerate() {
                let Some(heap) = heap else { continue };
                let row = &out[i * nb..(i + 1) * nb];
                for (j, &s) in row.iter().enumerate() {
                    let item = seg.global_id(start + j);
                    if excluded[i].contains(&item) {
                        continue;
                    }
                    let s = match score {
                        ScoreKind::Dot => s,
                        ScoreKind::Cosine => {
                            let n = seg.norms[start + j];
                            if n > 0.0 {
                                s / n
                            } else {
                                0.0
                            }
                        }
                    };
                    heap.push(item, s);
                }
            }
        }
    }

    let mut lists: Vec<Vec<(u32, f32)>> = heaps
        .into_iter()
        .map(|h| h.map(TopK::into_sorted_vec).unwrap_or_default())
        .collect();
    if quantized {
        rerank_exact(tile, f, segments, score, &mut lists, stats);
    }
    lists
}

/// Exact-f32 rerank of a quantized scan's candidates: rescores each list
/// against the segments' retained exact rows with [`score_dot`] (the scan's
/// own accumulation order), re-sorts under the heaps' (score desc, id asc)
/// total order, and truncates back to `k`.
fn rerank_exact(
    tile: &[TileQuery<'_>],
    f: usize,
    segments: &[SegmentView<'_>],
    score: ScoreKind,
    lists: &mut [Vec<(u32, f32)>],
    stats: &mut PruneStats,
) {
    let started = Instant::now();
    let mut candidates = 0u64;
    for (q, list) in tile.iter().zip(lists.iter_mut()) {
        candidates += list.len() as u64;
        for (v, s) in list.iter_mut() {
            let seg = segments
                .iter()
                .find(|seg| *v >= seg.first_id && ((*v - seg.first_id) as usize) < seg.n_items())
                .expect("a scanned item lies in a scanned segment");
            let row = seg.vector_of(*v, f);
            let dot = score_dot(q.user, row);
            *s = match score {
                ScoreKind::Dot => dot,
                ScoreKind::Cosine => {
                    let n = crate::blas::norm_sq(row).sqrt();
                    if n > 0.0 {
                        dot / n
                    } else {
                        0.0
                    }
                }
            };
        }
        list.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        list.truncate(q.k);
    }
    stats.rerank_candidates += candidates;
    stats.bytes_scanned += candidates * (f * std::mem::size_of::<f32>()) as u64;
    if candidates > 0 {
        stats.rerank_ns += started.elapsed().as_nanos() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{batch_score_block, FactorMatrix};

    #[test]
    fn keeps_the_k_best_sorted() {
        let mut t = TopK::new(3);
        for (i, s) in [1.0f32, 5.0, 3.0, 4.0, 2.0].iter().enumerate() {
            t.push(i as u32, *s);
        }
        assert_eq!(t.into_sorted_vec(), vec![(1, 5.0), (3, 4.0), (2, 3.0)]);
    }

    #[test]
    fn fewer_items_than_k_returns_all() {
        let mut t = TopK::new(10);
        t.push(7, 0.5);
        t.push(3, 1.5);
        assert_eq!(t.into_sorted_vec(), vec![(3, 1.5), (7, 0.5)]);
    }

    #[test]
    fn ties_prefer_small_item_ids() {
        let mut t = TopK::new(2);
        for item in [9u32, 1, 5, 3] {
            t.push(item, 1.0);
        }
        assert_eq!(t.into_sorted_vec(), vec![(1, 1.0), (3, 1.0)]);
    }

    #[test]
    fn threshold_tracks_the_kth_score() {
        let mut t = TopK::new(2);
        assert_eq!(t.threshold(), None);
        t.push(0, 1.0);
        assert_eq!(t.threshold(), None);
        t.push(1, 3.0);
        assert_eq!(t.threshold(), Some(1.0));
        t.push(2, 2.0);
        assert_eq!(t.threshold(), Some(2.0));
    }

    #[test]
    fn nan_scores_are_ignored() {
        let mut t = TopK::new(2);
        t.push(0, f32::NAN);
        t.push(1, 1.0);
        assert_eq!(t.into_sorted_vec(), vec![(1, 1.0)]);
    }

    /// `scan_top_k` over a tile of one Dot-scored user.
    fn scan_one(
        user: &[f32],
        k: usize,
        views: &[SegmentView<'_>],
        exclude: &[u32],
        approx: Option<&ApproxPolicy>,
        stats: &mut PruneStats,
    ) -> Vec<(u32, f32)> {
        let tile = [TileQuery { user, k, exclude }];
        scan_top_k(&tile, user.len(), views, ScoreKind::Dot, approx, stats).remove(0)
    }

    /// Brute-force reference: score the whole table with the same kernel,
    /// then fully sort — the heap must select exactly the same winners.
    fn full_sort_reference(
        user: &[f32],
        theta: &FactorMatrix,
        k: usize,
        exclude: &[u32],
    ) -> Vec<(u32, f32)> {
        let n = theta.len();
        let mut all_scores = vec![0.0f32; n];
        batch_score_block(user, 1, theta.data(), n, theta.rank(), &mut all_scores);
        let mut reference: Vec<(u32, f32)> = (0..n as u32)
            .filter(|v| !exclude.contains(v))
            .map(|v| (v, all_scores[v as usize]))
            .collect();
        reference.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        reference.truncate(k);
        reference
    }

    #[test]
    fn retrieve_matches_full_sort_reference() {
        let f = 8;
        let n = 1000;
        let theta = FactorMatrix::random(n, f, 1.0, 42);
        let user: Vec<f32> = FactorMatrix::random(1, f, 1.0, 7).data().to_vec();
        let exclude: Vec<u32> = (0..n as u32).filter(|v| v % 97 == 0).collect();
        let norms = item_norms(theta.data(), f);
        let mut tables = Vec::new();
        let views = views_at(&theta, &[0, n], 64, &norms, &mut tables);
        let got = scan_one(
            &user,
            10,
            &views,
            &exclude,
            None,
            &mut PruneStats::default(),
        );
        assert_eq!(got, full_sort_reference(&user, &theta, 10, &exclude));
    }

    #[test]
    fn block_size_does_not_change_results() {
        let f = 4;
        let n = 333;
        let theta = FactorMatrix::random(n, f, 1.0, 3);
        let user: Vec<f32> = FactorMatrix::random(1, f, 1.0, 9).data().to_vec();
        let norms = item_norms(theta.data(), f);
        let mut tables = Vec::new();
        let small = views_at(&theta, &[0, n], 8, &norms, &mut tables);
        let a = scan_one(&user, 7, &small, &[], None, &mut PruneStats::default());
        let mut tables = Vec::new();
        let large = views_at(&theta, &[0, n], 1000, &norms, &mut tables);
        let b = scan_one(&user, 7, &large, &[], None, &mut PruneStats::default());
        assert_eq!(a, b);
    }

    #[test]
    fn tile_lists_match_one_user_scans() {
        // Pruning is decided per tile, but it is exact, so each user's list
        // must not depend on who else shares the tile — for both score
        // kinds, with per-user k and exclusions.
        let f = 6;
        let n = 900;
        let theta = FactorMatrix::random(n, f, 1.0, 11);
        let users = FactorMatrix::random(SCAN_TILE, f, 1.0, 12);
        let norms = item_norms(theta.data(), f);
        let mut tables = Vec::new();
        let views = views_at(&theta, &[0, 300, n], 64, &norms, &mut tables);
        let excludes: Vec<Vec<u32>> = (0..SCAN_TILE as u32)
            .map(|u| (0..n as u32).filter(|v| (v + u) % 17 == 0).collect())
            .collect();
        let tile: Vec<TileQuery<'_>> = (0..SCAN_TILE)
            .map(|u| TileQuery {
                user: users.vector(u),
                k: u + 1,
                exclude: &excludes[u],
            })
            .collect();
        for score in [ScoreKind::Dot, ScoreKind::Cosine] {
            let together = scan_top_k(&tile, f, &views, score, None, &mut PruneStats::default());
            for (q, got) in tile.iter().zip(&together) {
                let alone = scan_top_k(
                    std::slice::from_ref(q),
                    f,
                    &views,
                    score,
                    None,
                    &mut PruneStats::default(),
                );
                assert_eq!(got, &alone[0], "{score:?} k {}", q.k);
                assert_eq!(got.len(), q.k);
            }
        }
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        TopK::new(0);
    }

    #[test]
    fn block_max_norms_cover_every_block() {
        let norms = vec![1.0f32, 3.0, 2.0, 0.5, 7.0, 0.0, 4.0];
        assert_eq!(block_max_norms(&norms, 3), vec![3.0, 7.0, 4.0]);
        assert_eq!(block_max_norms(&norms, 100), vec![7.0]);
        assert!(block_max_norms(&[], 4).is_empty());
    }

    #[test]
    fn item_norms_match_per_row_norms() {
        let theta = FactorMatrix::random(37, 5, 1.0, 21);
        let norms = item_norms(theta.data(), 5);
        assert_eq!(norms.len(), 37);
        for (v, &norm) in norms.iter().enumerate() {
            let expect = crate::blas::norm_sq(theta.vector(v)).sqrt();
            assert_eq!(norm, expect);
        }
        assert!(item_norms(&[], 5).is_empty());
    }

    #[test]
    fn pruned_retrieval_is_bit_identical_to_unpruned() {
        let f = 6;
        let n = 1111;
        for seed in 0..4u64 {
            let theta = FactorMatrix::random(n, f, 1.0, seed);
            let user: Vec<f32> = FactorMatrix::random(1, f, 1.0, 100 + seed).data().to_vec();
            let norms = item_norms(theta.data(), f);
            let exclude: Vec<u32> = (0..n as u32).filter(|v| v % 31 == 0).collect();
            let plain = full_sort_reference(&user, &theta, 10, &exclude);
            for item_block in [7usize, 64, 2000] {
                let mut tables = Vec::new();
                let views = views_at(&theta, &[0, n], item_block, &norms, &mut tables);
                let pruned = scan_one(
                    &user,
                    10,
                    &views,
                    &exclude,
                    None,
                    &mut PruneStats::default(),
                );
                assert_eq!(plain, pruned, "seed {seed} block {item_block}");
            }
        }
    }

    #[test]
    fn pruning_skips_low_norm_blocks_without_changing_winners() {
        // First block holds all the mass; the long tail of near-zero blocks
        // is prunable once the heap fills.  The result must still match the
        // unpruned reference exactly.
        let f = 4;
        let n = 512;
        let mut data = vec![1e-6f32; n * f];
        for v in 0..8 {
            for d in 0..f {
                data[v * f + d] = (v + 2) as f32;
            }
        }
        let theta = FactorMatrix::from_vec(n, f, data);
        let user = vec![1.0f32; f];
        let norms = item_norms(theta.data(), f);
        let mut tables = Vec::new();
        let views = views_at(&theta, &[0, n], 16, &norms, &mut tables);
        let mut stats = PruneStats::default();
        let pruned = scan_one(&user, 5, &views, &[], None, &mut stats);
        assert_eq!(full_sort_reference(&user, &theta, 5, &[]), pruned);
        assert_eq!(pruned[0].0, 9 - 2, "largest seeded item wins");
        assert_eq!(stats.blocks_scored, 1, "only the heavy block is scored");
        assert_eq!(stats.blocks_pruned, 31);
    }

    /// Builds catalog-order segment views over `theta` split at `cuts`
    /// (global item offsets), each blocked at `item_block`.
    fn views_at<'a>(
        theta: &'a FactorMatrix,
        cuts: &[usize],
        item_block: usize,
        norms: &'a [f32],
        tables: &'a mut Vec<Vec<f32>>,
    ) -> Vec<SegmentView<'a>> {
        let f = theta.rank();
        tables.clear();
        for w in cuts.windows(2) {
            tables.push(block_max_norms(&norms[w[0]..w[1]], item_block));
        }
        cuts.windows(2)
            .zip(tables.iter())
            .map(|(w, bm)| SegmentView {
                items: &theta.data()[w[0] * f..w[1] * f],
                norms: &norms[w[0]..w[1]],
                block_max: bm,
                item_block,
                first_id: w[0] as u32,
                ids: None,
                pos: None,
                encoded: None,
            })
            .collect()
    }

    #[test]
    fn segmented_retrieval_matches_contiguous_for_any_split() {
        let f = 6;
        let n = 777;
        let theta = FactorMatrix::random(n, f, 1.0, 51);
        let user: Vec<f32> = FactorMatrix::random(1, f, 1.0, 52).data().to_vec();
        let norms = item_norms(theta.data(), f);
        let exclude: Vec<u32> = (0..n as u32).filter(|v| v % 13 == 0).collect();
        let expect = full_sort_reference(&user, &theta, 9, &exclude);
        for cuts in [
            vec![0usize, n],
            vec![0, 100, n],
            vec![0, 64, 65, 300, n],
            vec![0, 1, 2, 3, n],
        ] {
            let mut tables = Vec::new();
            let views = views_at(&theta, &cuts, 64, &norms, &mut tables);
            let mut stats = PruneStats::default();
            let got = scan_one(&user, 9, &views, &exclude, None, &mut stats);
            assert_eq!(got, expect, "cuts {cuts:?}");
            assert!(
                stats.blocks_scored + stats.blocks_pruned > 0,
                "counters must see every block decision"
            );
        }
    }

    #[test]
    fn segmented_retrieval_remaps_permuted_rows_to_global_ids() {
        // Store the catalog in reverse order with an explicit id remap: the
        // returned ids and scores must match the catalog-order run exactly.
        let f = 4;
        let n = 120;
        let theta = FactorMatrix::random(n, f, 1.0, 61);
        let norms = item_norms(theta.data(), f);
        let mut rev_data = Vec::with_capacity(n * f);
        let mut rev_norms = Vec::with_capacity(n);
        let ids: Vec<u32> = (0..n as u32).rev().collect();
        for &g in &ids {
            rev_data.extend_from_slice(theta.vector(g as usize));
            rev_norms.push(norms[g as usize]);
        }
        let bm = block_max_norms(&rev_norms, 16);
        let view = SegmentView {
            items: &rev_data,
            norms: &rev_norms,
            block_max: &bm,
            item_block: 16,
            first_id: 0,
            ids: Some(&ids),
            pos: None,
            encoded: None,
        };
        let user: Vec<f32> = FactorMatrix::random(1, f, 1.0, 62).data().to_vec();
        let got = scan_one(&user, 7, &[view], &[], None, &mut PruneStats::default());
        assert_eq!(got, full_sort_reference(&user, &theta, 7, &[]));
    }

    #[test]
    fn prune_stats_merge_and_fraction() {
        let mut a = PruneStats {
            blocks_scored: 3,
            blocks_pruned: 1,
            blocks_terminated: 2,
            ..Default::default()
        };
        a.merge(&PruneStats {
            blocks_scored: 1,
            blocks_pruned: 3,
            blocks_terminated: 4,
            bytes_scanned: 100,
            rerank_candidates: 5,
            rerank_ns: 40,
        });
        assert_eq!(a.blocks_scored, 4);
        assert_eq!(a.blocks_pruned, 4);
        assert_eq!(a.blocks_terminated, 6);
        assert_eq!(a.bytes_scanned, 100);
        assert_eq!(a.rerank_candidates, 5);
        assert_eq!(a.blocks_visited(), 14);
        // Terminated blocks widen the denominator of both rates but feed
        // only their own numerator — the exact-pruning rate must not claim
        // credit for approximate skips.
        assert!((a.pruned_fraction() - 4.0 / 14.0).abs() < 1e-12);
        assert!((a.terminated_fraction() - 6.0 / 14.0).abs() < 1e-12);
        assert_eq!(PruneStats::default().pruned_fraction(), 0.0);
        assert_eq!(PruneStats::default().terminated_fraction(), 0.0);
    }

    #[test]
    fn suffix_max_runs_right_to_left() {
        assert_eq!(
            suffix_max_norms(&[1.0, 5.0, 2.0, 4.0, 3.0]),
            vec![5.0, 5.0, 4.0, 4.0, 3.0]
        );
        // Already descending: suffix max coincides with the table itself.
        let desc = [7.0f32, 6.0, 2.0, 1.0];
        assert_eq!(suffix_max_norms(&desc), desc.to_vec());
        assert!(suffix_max_norms(&[]).is_empty());
    }

    #[test]
    fn approx_policy_shapes() {
        assert!(ApproxPolicy::exact().is_exact());
        assert!(ApproxPolicy::with_epsilon(0.0).is_exact());
        assert!(!ApproxPolicy::with_epsilon(0.05).is_exact());
        assert!(!ApproxPolicy {
            epsilon: 0.0,
            max_blocks: 3,
            target_recall: 1.0,
        }
        .is_exact());
        assert_eq!(ApproxPolicy::exact().termination_slack(), NORM_BOUND_SLACK);
    }

    #[test]
    #[should_panic(expected = "approx epsilon must lie in [0, 1)")]
    fn approx_policy_rejects_epsilon_of_one() {
        ApproxPolicy::with_epsilon(1.0);
    }

    /// Sorts `theta` rows by norm descending and returns the permuted data,
    /// norms, and the global-id remap — a hand-rolled norm-descending
    /// segment like the serve-side `ItemStore` builds.
    fn norm_descending(theta: &FactorMatrix) -> (Vec<f32>, Vec<f32>, Vec<u32>) {
        let f = theta.rank();
        let norms = item_norms(theta.data(), f);
        let mut order: Vec<u32> = (0..norms.len() as u32).collect();
        order.sort_by(|&a, &b| {
            norms[b as usize]
                .total_cmp(&norms[a as usize])
                .then(a.cmp(&b))
        });
        let mut data = Vec::with_capacity(theta.data().len());
        let mut perm_norms = Vec::with_capacity(norms.len());
        for &g in &order {
            data.extend_from_slice(theta.vector(g as usize));
            perm_norms.push(norms[g as usize]);
        }
        (data, perm_norms, order)
    }

    #[test]
    fn approx_with_zero_epsilon_is_bit_identical_for_any_split() {
        let f = 6;
        let n = 777;
        let theta = FactorMatrix::random(n, f, 1.0, 51);
        let user: Vec<f32> = FactorMatrix::random(1, f, 1.0, 52).data().to_vec();
        let norms = item_norms(theta.data(), f);
        let exclude: Vec<u32> = (0..n as u32).filter(|v| v % 13 == 0).collect();
        for cuts in [vec![0usize, n], vec![0, 100, n], vec![0, 64, 65, 300, n]] {
            let mut tables = Vec::new();
            let views = views_at(&theta, &cuts, 64, &norms, &mut tables);
            let mut exact_stats = PruneStats::default();
            let expect = scan_one(&user, 9, &views, &exclude, None, &mut exact_stats);
            let mut stats = PruneStats::default();
            let exact_policy = ApproxPolicy::exact();
            let got = scan_one(&user, 9, &views, &exclude, Some(&exact_policy), &mut stats);
            assert_eq!(got, expect, "cuts {cuts:?}");
            // At epsilon = 0 termination only fires where exact pruning
            // would skip every remaining block — never on blocks that would
            // have been scored.
            assert_eq!(
                stats.blocks_scored, exact_stats.blocks_scored,
                "cuts {cuts:?}"
            );
        }
    }

    #[test]
    fn approx_scans_monotonically_fewer_blocks_as_epsilon_grows() {
        // Skewed norms, stored norm-descending (one segment) — exactly the
        // serving-side layout that makes epsilon termination systematic.
        let f = 8;
        let n = 4096;
        let base = FactorMatrix::random(n, f, 1.0, 77);
        let mut data = base.data().to_vec();
        for v in 0..n {
            let h = (v as u32).wrapping_mul(2654435761) % 64;
            let scale = if h == 0 { 4.0 } else { 0.01 + 0.001 * h as f32 };
            for d in 0..f {
                data[v * f + d] *= scale;
            }
        }
        let theta = FactorMatrix::from_vec(n, f, data);
        let (perm_data, perm_norms, order) = norm_descending(&theta);
        let bm = block_max_norms(&perm_norms, 64);
        let view = SegmentView {
            items: &perm_data,
            norms: &perm_norms,
            block_max: &bm,
            item_block: 64,
            first_id: 0,
            ids: Some(&order),
            pos: None,
            encoded: None,
        };
        let user: Vec<f32> = FactorMatrix::random(1, f, 1.0, 78).data().to_vec();
        let mut prev_scored = u64::MAX;
        for eps in [0.0f32, 0.05, 0.1, 0.3, 0.6] {
            let mut stats = PruneStats::default();
            let policy = ApproxPolicy::with_epsilon(eps);
            let got = scan_one(
                &user,
                10,
                std::slice::from_ref(&view),
                &[],
                Some(&policy),
                &mut stats,
            );
            assert_eq!(got.len(), 10, "eps {eps}");
            assert!(
                stats.blocks_scored <= prev_scored,
                "eps {eps}: scored {} after {} at the smaller epsilon",
                stats.blocks_scored,
                prev_scored
            );
            prev_scored = stats.blocks_scored;
        }
        // A coarse epsilon on a skewed catalog must actually terminate.
        assert!(prev_scored < bm.len() as u64);
    }

    #[test]
    fn approx_block_budget_caps_scored_blocks_only_once_full() {
        let f = 4;
        let n = 640; // 10 blocks of 64
        let theta = FactorMatrix::random(n, f, 1.0, 90);
        let user: Vec<f32> = FactorMatrix::random(1, f, 1.0, 91).data().to_vec();
        let norms = item_norms(theta.data(), f);
        let mut tables = Vec::new();
        let views = views_at(&theta, &[0, n], 64, &norms, &mut tables);
        let policy = ApproxPolicy {
            epsilon: 0.0,
            max_blocks: 2,
            target_recall: 1.0,
        };
        let mut stats = PruneStats::default();
        let got = scan_one(&user, 5, &views, &[], Some(&policy), &mut stats);
        assert_eq!(got.len(), 5, "budgeted scan still returns a full list");
        assert_eq!(stats.blocks_scored, 2);
        assert!(stats.blocks_terminated > 0);

        // k ≥ catalog: the heap never fills, so the budget never engages and
        // every item comes back — never a short list.
        let mut stats = PruneStats::default();
        let all = scan_one(&user, n + 5, &views, &[], Some(&policy), &mut stats);
        assert_eq!(all.len(), n);
        assert_eq!(stats.blocks_scored, 10);
        assert_eq!(stats.blocks_terminated, 0);
        let exact = scan_one(&user, n + 5, &views, &[], None, &mut PruneStats::default());
        assert_eq!(all, exact);
    }

    #[test]
    fn approx_zero_norm_user_degrades_to_full_exact_scan() {
        let f = 4;
        let n = 320;
        let theta = FactorMatrix::random(n, f, 1.0, 93);
        let norms = item_norms(theta.data(), f);
        let mut tables = Vec::new();
        let views = views_at(&theta, &[0, n], 64, &norms, &mut tables);
        let user = vec![0.0f32; f];
        let policy = ApproxPolicy::with_epsilon(0.5);
        let mut stats = PruneStats::default();
        let got = scan_one(&user, 7, &views, &[], Some(&policy), &mut stats);
        let exact = scan_one(&user, 7, &views, &[], None, &mut PruneStats::default());
        // Bound and threshold are both 0; `0 < 0` never holds, so nothing
        // is pruned or terminated and the results are the exact ones.
        assert_eq!(got, exact);
        assert_eq!(got.len(), 7);
        assert_eq!(stats.blocks_terminated, 0);
        assert_eq!(stats.blocks_scored, 5);
        // Every item ties at 0, so only the full scan's id tie-break is
        // exact: a block budget must not engage either.
        let budget = ApproxPolicy {
            epsilon: 0.5,
            max_blocks: 1,
            target_recall: 0.0,
        };
        let mut stats = PruneStats::default();
        assert_eq!(
            scan_one(&user, 7, &views, &[], Some(&budget), &mut stats),
            exact
        );
        assert_eq!(stats.blocks_terminated, 0);
    }

    #[test]
    #[should_panic(expected = "segment block maxima do not match its blocking")]
    fn pruned_retrieval_rejects_mismatched_blocking() {
        let theta = FactorMatrix::random(64, 4, 1.0, 1);
        let norms = item_norms(theta.data(), 4);
        let view = SegmentView {
            items: theta.data(),
            norms: &norms,
            block_max: &[1.0; 2],
            item_block: 16,
            first_id: 0,
            ids: None,
            pos: None,
            encoded: None,
        };
        let user = vec![1.0f32; 4];
        scan_one(&user, 3, &[view], &[], None, &mut PruneStats::default());
    }
}
