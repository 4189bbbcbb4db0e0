//! Batched top-k scoring against one snapshot.
//!
//! The training-time insight of the paper — batch many independent small
//! problems into one regular, blocked kernel — applied at serving time: a
//! micro-batch of user requests is cut into tiles of
//! [`cumf_linalg::topk::SCAN_TILE`] users, and each tile runs the one top-k
//! scan, [`cumf_linalg::scan_top_k`], so every item block is streamed from
//! memory once per *tile of users* instead of once per request.  Tiles
//! score independently and in parallel.
//!
//! The scan owns the whole retrieval policy: norm-bound block pruning
//! (which a norm-descending layout makes fire systematically), optional
//! early termination, quantized decode with exact rerank, exclusions and
//! the tie-break.  This module only resolves the blocking per
//! [`crate::itemstore::ItemStore`] segment, gathers the tiles and sums each
//! tile's [`PruneStats`] ([`TopKIndex::query_batch_stats`]).

use crate::snapshot::FactorSnapshot;
use crate::sync::Arc;
use cumf_linalg::topk::SCAN_TILE;
use cumf_linalg::{block_max_norms, scan_top_k, ApproxPolicy, PruneStats, SegmentView, TileQuery};
use rayon::prelude::*;

pub use cumf_linalg::ScoreKind;

/// One top-k retrieval request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// User to recommend for.
    pub user: u32,
    /// Number of items wanted.
    pub k: usize,
    /// Items to exclude (typically the user's already-rated items).
    pub exclude: Vec<u32>,
}

impl Query {
    /// A query with no exclusions.
    pub fn new(user: u32, k: usize) -> Self {
        Self {
            user,
            k,
            exclude: Vec::new(),
        }
    }
}

/// Batched blocked top-k scorer over one immutable snapshot.
///
/// All queries of a [`TopKIndex::query_batch`] call are answered from the
/// same snapshot generation — the index holds its own `Arc`, so a
/// concurrent hot-swap cannot tear a batch.
#[derive(Debug, Clone)]
pub struct TopKIndex {
    snapshot: Arc<FactorSnapshot>,
    score: ScoreKind,
    /// Early-termination policy; `None` keeps the scan exact.
    approx: Option<ApproxPolicy>,
    /// Per store segment, in segment order: items per block (the index's
    /// `item_block` clamped to the segment) and the block maxima of the
    /// segment's stored-order norms at that granularity.
    blocking: Vec<(usize, Vec<f32>)>,
}

impl TopKIndex {
    /// Creates an exact index over `snapshot` scoring `item_block` items
    /// per block.
    pub fn new(snapshot: Arc<FactorSnapshot>, item_block: usize, score: ScoreKind) -> Self {
        Self::with_approx(snapshot, item_block, score, None)
    }

    /// [`TopKIndex::new`] with an optional early-termination policy.
    ///
    /// With `Some(policy)` the scan may stop a segment once the discounted
    /// Cauchy–Schwarz bound says nothing left in it can improve any tile
    /// heap by more than the policy's epsilon slack, and may cap scored
    /// blocks at `policy.max_blocks` per tile.  Both rules only engage once
    /// every heap in the tile is full, so result lists never come back
    /// short.  A policy with `epsilon = 0` and no budget is bit-identical
    /// to the exact index.  Epsilon termination applies to
    /// [`ScoreKind::Dot`] only (a norm-divided score has no per-block
    /// bound); the block budget applies to both score kinds.
    pub fn with_approx(
        snapshot: Arc<FactorSnapshot>,
        item_block: usize,
        score: ScoreKind,
        approx: Option<ApproxPolicy>,
    ) -> Self {
        assert!(item_block > 0, "item block must be positive");
        if let Some(p) = &approx {
            p.validate();
        }
        // The default blocking (the common case — the service builds an
        // index per micro-batch) reuses each segment's precomputed maxima
        // instead of rescanning the norms every batch.
        let blocking = snapshot
            .items()
            .segments()
            .iter()
            .map(|seg| {
                let block = item_block.min(seg.len().max(1));
                let block_max = if block == seg.default_block() {
                    seg.block_max().to_vec()
                } else {
                    block_max_norms(seg.norms(), block)
                };
                (block, block_max)
            })
            .collect();
        Self {
            snapshot,
            score,
            approx,
            blocking,
        }
    }

    /// The snapshot this index serves from.
    pub fn snapshot(&self) -> &Arc<FactorSnapshot> {
        &self.snapshot
    }

    /// The early-termination policy, if this index scans approximately.
    pub fn approx(&self) -> Option<&ApproxPolicy> {
        self.approx.as_ref()
    }

    /// Scores a micro-batch of queries, returning one ranked
    /// `(item, score)` list per query, in query order.  Tiles of users are
    /// scored in parallel; within a tile every item block is scored for all
    /// tile users with one blocked kernel call.  Out-of-range users get an
    /// empty list.
    pub fn query_batch(&self, queries: &[Query]) -> Vec<Vec<(u32, f32)>> {
        self.query_batch_stats(queries).0
    }

    /// [`TopKIndex::query_batch`] plus the batch's aggregated block-pruning
    /// counters — the observable half of the norm-ordered layout's value
    /// (more blocks skipped, same results).
    pub fn query_batch_stats(&self, queries: &[Query]) -> (Vec<Vec<(u32, f32)>>, PruneStats) {
        let snap = &self.snapshot;
        let views: Vec<SegmentView<'_>> = snap
            .items()
            .segments()
            .iter()
            .zip(&self.blocking)
            .map(|(seg, (block, block_max))| seg.view_with(*block, block_max))
            .collect();
        // Only in-range users are scored; the rest keep an empty list.
        let (slots, valid): (Vec<usize>, Vec<TileQuery<'_>>) = queries
            .iter()
            .enumerate()
            .filter_map(|(i, q)| {
                let user = snap.user_vector(q.user)?;
                let (k, exclude) = (q.k, &q.exclude[..]);
                Some((i, TileQuery { user, k, exclude }))
            })
            .unzip();
        let tiles: Vec<_> = valid
            .par_chunks(SCAN_TILE)
            .map(|tile| {
                let mut stats = PruneStats::default();
                let approx = self.approx.as_ref();
                let lists = scan_top_k(tile, snap.rank(), &views, self.score, approx, &mut stats);
                (lists, stats)
            })
            .collect();
        let mut results = vec![Vec::new(); queries.len()];
        let mut stats = PruneStats::default();
        for ((lists, tile_stats), slots) in tiles.into_iter().zip(slots.chunks(SCAN_TILE)) {
            stats.merge(&tile_stats);
            for (list, &i) in lists.into_iter().zip(slots) {
                results[i] = list;
            }
        }
        (results, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cumf_linalg::topk::RERANK_FACTOR;
    use cumf_linalg::{FactorMatrix, Precision};
    use std::collections::HashSet;

    fn index(seed: u64, n_users: usize, n_items: usize, score: ScoreKind) -> TopKIndex {
        let snap = FactorSnapshot::from_factors(
            FactorMatrix::random(n_users, 8, 1.0, seed),
            FactorMatrix::random(n_items, 8, 1.0, seed + 1),
        );
        TopKIndex::new(Arc::new(snap), 64, score)
    }

    #[test]
    fn batch_matches_single_request_path() {
        let idx = index(7, 30, 500, ScoreKind::Dot);
        let queries: Vec<Query> = (0..30u32)
            .map(|u| Query {
                user: u,
                k: 5,
                exclude: vec![u % 11, u % 23],
            })
            .collect();
        let batched = idx.query_batch(&queries);
        assert_eq!(batched.len(), queries.len());
        for (q, got) in queries.iter().zip(batched.iter()) {
            let single = idx.snapshot().recommend_one(q.user, q.k, &q.exclude);
            assert_eq!(got, &single, "user {}", q.user);
        }
    }

    #[test]
    fn exclusions_and_invalid_users_are_handled() {
        let idx = index(9, 10, 100, ScoreKind::Dot);
        let queries = vec![
            Query {
                user: 0,
                k: 3,
                exclude: (0..97).collect(),
            },
            Query::new(9999, 3), // out of range
            Query {
                user: 1,
                k: 0,
                exclude: vec![],
            },
        ];
        // A quantized store takes the over-fetch + rerank path: invalid
        // users and k = 0 still skip it, and the rerank keeps full lists.
        let i8 = Arc::new(idx.snapshot().reencoded(Precision::I8));
        for idx in [idx.clone(), TopKIndex::new(i8, 64, ScoreKind::Dot)] {
            let (out, stats) = idx.query_batch_stats(&queries);
            assert_eq!(out[0].len(), 3);
            assert!(out[0].iter().all(|(v, _)| *v >= 97));
            assert!(out[1].is_empty());
            assert!(out[2].is_empty());
            assert!(stats.rerank_candidates <= 3, "only user 0 is reranked");
        }
    }

    #[test]
    fn cosine_divides_by_item_norm() {
        // Item 0 has a huge norm; under Dot it wins, under Cosine it ties
        // with the identically-directed item 1.
        let x = FactorMatrix::from_vec(1, 2, vec![1.0, 0.0]);
        let theta = FactorMatrix::from_vec(3, 2, vec![10.0, 0.0, 1.0, 0.0, 0.0, 5.0]);
        let snap = Arc::new(FactorSnapshot::from_factors(x, theta));
        let dot = TopKIndex::new(Arc::clone(&snap), 64, ScoreKind::Dot);
        let cos = TopKIndex::new(snap, 64, ScoreKind::Cosine);
        let q = vec![Query::new(0, 2)];
        assert_eq!(dot.query_batch(&q)[0], vec![(0, 10.0), (1, 1.0)]);
        // Cosine: items 0 and 1 both score 1.0; ties prefer small ids.
        assert_eq!(cos.query_batch(&q)[0], vec![(0, 1.0), (1, 1.0)]);
    }

    #[test]
    fn cosine_keeps_zero_norm_items_at_score_zero() {
        // A catalog with cold (zero-vector, hence zero-norm) items: both
        // score kinds must still return exactly k results when k ≤ catalog
        // size, and cosine scores the cold items 0.0.
        let x = FactorMatrix::from_vec(1, 2, vec![1.0, 0.0]);
        let mut theta = FactorMatrix::zeros(5, 2);
        theta.vector_mut(1).copy_from_slice(&[2.0, 0.0]);
        theta.vector_mut(3).copy_from_slice(&[0.5, 0.0]);
        // Items 0, 2, 4 stay zero vectors (never trained).
        let snap = Arc::new(FactorSnapshot::from_factors(x, theta));
        let q = vec![Query::new(0, 5)];
        let dot = TopKIndex::new(Arc::clone(&snap), 64, ScoreKind::Dot).query_batch(&q);
        let cos = TopKIndex::new(snap, 64, ScoreKind::Cosine).query_batch(&q);
        assert_eq!(
            dot[0].len(),
            cos[0].len(),
            "Dot and Cosine must return the same number of results"
        );
        assert_eq!(cos[0].len(), 5, "cold items must not shrink the result");
        assert_eq!(cos[0][0], (1, 1.0));
        assert_eq!(cos[0][1], (3, 1.0));
        // The cold items trail at exactly 0.0, smallest ids first.
        assert_eq!(&cos[0][2..], &[(0, 0.0), (2, 0.0), (4, 0.0)]);
    }

    #[test]
    fn block_size_is_result_invariant() {
        let snap = Arc::new(FactorSnapshot::from_factors(
            FactorMatrix::random(5, 4, 1.0, 3),
            FactorMatrix::random(777, 4, 1.0, 4),
        ));
        let q: Vec<Query> = (0..5u32).map(|u| Query::new(u, 9)).collect();
        let small = TopKIndex::new(Arc::clone(&snap), 3, ScoreKind::Dot).query_batch(&q);
        let large = TopKIndex::new(snap, 10_000, ScoreKind::Dot).query_batch(&q);
        assert_eq!(small, large);
    }

    /// A skewed-norm catalog (a few heavy items, a long light tail) — the
    /// shape that makes early termination effective under the
    /// norm-descending default layout.
    fn skewed_snapshot(n_users: usize, n_items: usize, seed: u64) -> Arc<FactorSnapshot> {
        let f = 8;
        let base = FactorMatrix::random(n_items, f, 1.0, seed);
        let mut data = base.data().to_vec();
        for v in 0..n_items {
            let h = (v as u32).wrapping_mul(2654435761) % 64;
            let scale = if h == 0 { 4.0 } else { 0.01 + 0.001 * h as f32 };
            for d in 0..f {
                data[v * f + d] *= scale;
            }
        }
        Arc::new(FactorSnapshot::from_factors(
            FactorMatrix::random(n_users, f, 1.0, seed + 1),
            FactorMatrix::from_vec(n_items, f, data),
        ))
    }

    #[test]
    fn approx_index_with_exact_policy_is_bit_identical() {
        let snap = skewed_snapshot(20, 2000, 30);
        let queries: Vec<Query> = (0..20u32)
            .map(|u| Query {
                user: u,
                k: 10,
                exclude: vec![u % 17],
            })
            .collect();
        let exact = TopKIndex::new(Arc::clone(&snap), 64, ScoreKind::Dot).query_batch(&queries);
        let approx = TopKIndex::with_approx(
            Arc::clone(&snap),
            64,
            ScoreKind::Dot,
            Some(ApproxPolicy::exact()),
        )
        .query_batch(&queries);
        assert_eq!(approx, exact);
    }

    #[test]
    fn approx_index_terminates_early_on_skewed_norm_descending_catalog() {
        let snap = skewed_snapshot(16, 8192, 33);
        let queries: Vec<Query> = (0..16u32).map(|u| Query::new(u, 10)).collect();
        let (exact_res, exact_stats) =
            TopKIndex::new(Arc::clone(&snap), 64, ScoreKind::Dot).query_batch_stats(&queries);
        let (approx_res, approx_stats) = TopKIndex::with_approx(
            Arc::clone(&snap),
            64,
            ScoreKind::Dot,
            Some(ApproxPolicy::default()),
        )
        .query_batch_stats(&queries);
        assert_eq!(exact_stats.blocks_terminated, 0, "exact never terminates");
        assert!(
            approx_stats.blocks_scored < exact_stats.blocks_scored,
            "default epsilon must scan fewer blocks: approx {} vs exact {}",
            approx_stats.blocks_scored,
            exact_stats.blocks_scored
        );
        assert!(approx_stats.blocks_terminated > 0);
        for (e, a) in exact_res.iter().zip(&approx_res) {
            assert_eq!(a.len(), e.len(), "approximate lists must not shrink");
        }
    }

    #[test]
    fn approx_block_budget_never_shortens_results() {
        let snap = skewed_snapshot(8, 500, 36);
        let budget = ApproxPolicy {
            epsilon: 0.0,
            max_blocks: 1,
            target_recall: 0.0,
        };
        // k ≥ catalog: the heap never fills, the budget never engages —
        // every item comes back, exactly.
        let q = vec![Query::new(0, 1000)];
        let exact = TopKIndex::new(Arc::clone(&snap), 64, ScoreKind::Dot).query_batch(&q);
        let capped = TopKIndex::with_approx(Arc::clone(&snap), 64, ScoreKind::Dot, Some(budget))
            .query_batch(&q);
        assert_eq!(capped, exact);
        assert_eq!(capped[0].len(), 500);
        // Small k: the budget truncates the scan but the list stays full
        // length.
        let q = vec![Query::new(0, 5)];
        let (capped, stats) =
            TopKIndex::with_approx(Arc::clone(&snap), 64, ScoreKind::Dot, Some(budget))
                .query_batch_stats(&q);
        assert_eq!(capped[0].len(), 5);
        assert!(stats.blocks_terminated > 0);
        // The budget also bounds Cosine scans (no epsilon bound there).
        let (cos, cos_stats) =
            TopKIndex::with_approx(Arc::clone(&snap), 64, ScoreKind::Cosine, Some(budget))
                .query_batch_stats(&q);
        assert_eq!(cos[0].len(), 5);
        assert!(cos_stats.blocks_terminated > 0);
    }

    #[test]
    fn approx_zero_norm_user_gets_full_exact_results() {
        // A user whose factor row is all zeros: every score is 0, the
        // threshold pins at 0, and no termination rule may fire — the
        // approximate path must return the same full list as the exact one.
        let f = 6;
        let mut x = FactorMatrix::random(4, f, 1.0, 44);
        x.vector_mut(2).fill(0.0);
        let snap = Arc::new(FactorSnapshot::from_factors(
            x,
            FactorMatrix::random(300, f, 1.0, 45),
        ));
        let q = vec![Query::new(2, 9)];
        let exact = TopKIndex::new(Arc::clone(&snap), 64, ScoreKind::Dot).query_batch(&q);
        let (approx, stats) = TopKIndex::with_approx(
            Arc::clone(&snap),
            64,
            ScoreKind::Dot,
            Some(ApproxPolicy::with_epsilon(0.5)),
        )
        .query_batch_stats(&q);
        assert_eq!(approx, exact);
        assert_eq!(approx[0].len(), 9, "zero-norm user still gets k items");
        assert_eq!(stats.blocks_terminated, 0, "0 < 0 must never terminate");
    }

    #[test]
    fn reencoding_at_f32_is_bit_identical_and_rerank_free() {
        let snap = skewed_snapshot(20, 3000, 71);
        let re = Arc::new(snap.reencoded(Precision::F32));
        let queries: Vec<Query> = (0..20u32)
            .map(|u| Query {
                user: u,
                k: 10,
                exclude: vec![u % 7],
            })
            .collect();
        let (base, base_stats) =
            TopKIndex::new(Arc::clone(&snap), 64, ScoreKind::Dot).query_batch_stats(&queries);
        let (same, stats) = TopKIndex::new(re, 64, ScoreKind::Dot).query_batch_stats(&queries);
        assert_eq!(same, base, "F32 re-encode must not change results");
        assert_eq!(stats.rerank_candidates, 0, "no rerank on an all-f32 store");
        assert_eq!(stats.rerank_ns, 0);
        assert_eq!(stats.bytes_scanned, base_stats.bytes_scanned);
        assert!(stats.bytes_scanned > 0, "exact scans are priced too");
    }

    #[test]
    fn f16_scan_with_rerank_reproduces_the_exact_lists() {
        let snap = skewed_snapshot(16, 4096, 72);
        let queries: Vec<Query> = (0..16u32)
            .map(|u| Query {
                user: u,
                k: 10,
                exclude: vec![u % 5],
            })
            .collect();
        let exact = TopKIndex::new(Arc::clone(&snap), 64, ScoreKind::Dot).query_batch(&queries);
        let f16 = Arc::new(snap.reencoded(Precision::F16));
        let (got, stats) =
            TopKIndex::new(Arc::clone(&f16), 64, ScoreKind::Dot).query_batch_stats(&queries);
        // The rerank rescores with the same 4-lane kernel the exact scan
        // uses, so a complete candidate set reproduces the exact lists
        // bit-for-bit — items and scores.
        assert_eq!(got, exact);
        assert!(stats.rerank_candidates > 0, "quantized scans must rerank");
        // Blocked-scan bytes (excluding the rerank's exact-row reads, which
        // scale with k, not catalog size) must roughly halve against an
        // exact scan producing the same candidate count — over-fetch weakens
        // the heap threshold, so the fair baseline is exact retrieval at
        // k · RERANK_FACTOR, not at k.
        let scan = stats.bytes_scanned - stats.rerank_candidates * (snap.rank() as u64) * 4;
        let wide: Vec<Query> = queries
            .iter()
            .map(|q| Query {
                user: q.user,
                k: RERANK_FACTOR * q.k,
                exclude: q.exclude.clone(),
            })
            .collect();
        let (_, exact_wide) =
            TopKIndex::new(Arc::clone(&snap), 64, ScoreKind::Dot).query_batch_stats(&wide);
        let block_bytes = 64 * snap.rank() as u64 * 4;
        assert!(
            scan * 2 <= exact_wide.bytes_scanned + 2 * block_bytes,
            "f16 scan must halve bytes at matched candidate count: {} vs {}",
            scan,
            exact_wide.bytes_scanned
        );
    }

    #[test]
    fn i8_scan_cuts_bytes_and_keeps_recall() {
        let snap = skewed_snapshot(16, 4096, 73);
        let queries: Vec<Query> = (0..16u32).map(|u| Query::new(u, 10)).collect();
        let exact = TopKIndex::new(Arc::clone(&snap), 64, ScoreKind::Dot).query_batch(&queries);
        // Byte baseline at the quantized path's candidate count (see the
        // f16 test for why k_eff, not k, is the fair comparison).
        let wide: Vec<Query> = (0..16u32).map(|u| Query::new(u, 20)).collect();
        let (_, exact_wide) =
            TopKIndex::new(Arc::clone(&snap), 64, ScoreKind::Dot).query_batch_stats(&wide);
        let i8 = Arc::new(snap.reencoded(Precision::I8));
        let (got, stats) = TopKIndex::new(i8, 64, ScoreKind::Dot).query_batch_stats(&queries);
        let scan = stats.bytes_scanned - stats.rerank_candidates * (snap.rank() as u64) * 4;
        assert!(
            scan * 2 < exact_wide.bytes_scanned,
            "i8 scan must at least halve bytes moved: {} vs {}",
            scan,
            exact_wide.bytes_scanned
        );
        let mut hits = 0usize;
        let mut total = 0usize;
        for (e, g) in exact.iter().zip(&got) {
            assert_eq!(g.len(), e.len(), "quantized lists must stay full-length");
            let truth: HashSet<u32> = e.iter().map(|&(v, _)| v).collect();
            hits += g.iter().filter(|&&(v, _)| truth.contains(&v)).count();
            total += e.len();
        }
        let recall = hits as f64 / total as f64;
        assert!(recall >= 0.99, "i8 post-rerank recall {recall} < 0.99");
    }

    #[test]
    fn quantized_cosine_reranks_with_exact_norms() {
        let snap = skewed_snapshot(8, 1000, 74);
        let queries: Vec<Query> = (0..8u32).map(|u| Query::new(u, 8)).collect();
        let exact = TopKIndex::new(Arc::clone(&snap), 64, ScoreKind::Cosine).query_batch(&queries);
        let f16 = Arc::new(snap.reencoded(Precision::F16));
        let got = TopKIndex::new(f16, 64, ScoreKind::Cosine).query_batch(&queries);
        assert_eq!(got.len(), exact.len());
        for (e, g) in exact.iter().zip(&got) {
            assert_eq!(g.len(), e.len());
            let truth: HashSet<u32> = e.iter().map(|&(v, _)| v).collect();
            let overlap = g.iter().filter(|&&(v, _)| truth.contains(&v)).count();
            assert!(
                overlap + 1 >= e.len(),
                "cosine recall collapsed: {overlap}/{}",
                e.len()
            );
        }
    }

    #[test]
    fn sharding_an_empty_or_tiny_catalog_is_safe() {
        let snap = Arc::new(FactorSnapshot::from_factors(
            FactorMatrix::random(3, 4, 1.0, 8),
            FactorMatrix::random(2, 4, 1.0, 9),
        ));
        let q = vec![Query::new(0, 5), Query::new(1, 1)];
        let wide = TopKIndex::new(Arc::clone(&snap), 512, ScoreKind::Dot).query_batch(&q);
        let narrow = TopKIndex::new(Arc::clone(&snap), 1, ScoreKind::Dot).query_batch(&q);
        assert_eq!(wide, narrow);
        assert_eq!(wide[0].len(), 2, "catalog smaller than k returns all");
        assert_eq!(wide[1].len(), 1);

        let empty = Arc::new(FactorSnapshot::from_factors(
            FactorMatrix::random(3, 4, 1.0, 8),
            FactorMatrix::zeros(0, 4),
        ));
        let none = TopKIndex::new(empty, 512, ScoreKind::Dot).query_batch(&q);
        assert!(
            none.iter().all(Vec::is_empty),
            "an empty catalog has nothing to rank"
        );
    }
}
