//! SparkALS-style ALS with partial `Θ` replication.
//!
//! Spark MLlib's ALS improves on PALS by sending each `X` partition only the
//! `θ_v` columns its rows actually reference (§2.2 of the cuMF paper).  The
//! cuMF paper criticizes exactly this step: building the per-partition
//! column sets is a graph-partitioning-like task, the transfers are large
//! when `Nz ≫ m`, and a partition's working set may still not fit on one
//! device.  This solver reproduces the algorithm and *measures* that
//! communication volume so the claims can be checked quantitatively.

use crate::als_util;
use cumf_core::als::kernels::solve_rows;
use cumf_core::engine::check_factor_shapes;
use cumf_core::{Engine, TrainMetrics};
use cumf_linalg::FactorMatrix;
use cumf_sparse::{horizontal_partition, Csr, Entry, SparseBlock};
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// Hyper-parameters of the SparkALS-style solver.
#[derive(Debug, Clone, PartialEq)]
pub struct SparkAlsConfig {
    /// Latent dimension `f`.
    pub f: usize,
    /// Weighted-λ regularization.
    pub lambda: f32,
    /// Number of partitions ("executors").
    pub partitions: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SparkAlsConfig {
    fn default() -> Self {
        Self {
            f: 32,
            lambda: 0.05,
            partitions: 4,
            seed: 42,
        }
    }
}

/// Communication statistics of one side update.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ShuffleStats {
    /// Total factor vectors shipped to partitions (with duplicates across
    /// partitions — the partial-replication overhead).
    pub vectors_shipped: u64,
    /// The same quantity in bytes.
    pub bytes_shipped: u64,
    /// Number of distinct vectors that would have sufficed with no
    /// replication (i.e. the size of the fixed factor matrix).
    pub distinct_vectors: u64,
}

impl ShuffleStats {
    /// Replication factor: how many times the average needed vector is
    /// shipped.
    pub fn replication_factor(&self) -> f64 {
        if self.distinct_vectors == 0 {
            0.0
        } else {
            self.vectors_shipped as f64 / self.distinct_vectors as f64
        }
    }
}

/// SparkALS-style solver with partial replication.
pub struct SparkAlsStyle {
    config: SparkAlsConfig,
    train_entries: Vec<Entry>,
    row_blocks: Vec<SparseBlock>,
    col_blocks: Vec<SparseBlock>,
    x: FactorMatrix,
    theta: FactorMatrix,
    last_shuffle: ShuffleStats,
}

impl SparkAlsStyle {
    /// Builds the solver.
    pub fn new(config: SparkAlsConfig, r: &Csr) -> Self {
        let parts_rows = config.partitions.min(r.n_rows().max(1) as usize);
        let parts_cols = config.partitions.min(r.n_cols().max(1) as usize);
        let row_blocks = horizontal_partition(r, parts_rows).expect("row partition");
        let col_blocks =
            horizontal_partition(&r.transpose(), parts_cols).expect("column partition");
        let x = als_util::init_factors(r.n_rows() as usize, config.f, config.seed);
        let theta = als_util::init_factors(r.n_cols() as usize, config.f, config.seed ^ 0x7e7a);
        Self {
            config,
            train_entries: r.iter().collect(),
            row_blocks,
            col_blocks,
            x,
            theta,
            last_shuffle: ShuffleStats::default(),
        }
    }

    /// Communication statistics of the most recent side update.
    pub fn last_shuffle(&self) -> ShuffleStats {
        self.last_shuffle
    }

    fn update_side(
        blocks: &[SparseBlock],
        fixed: &FactorMatrix,
        lambda: f32,
        out_len: usize,
        f: usize,
    ) -> (FactorMatrix, ShuffleStats) {
        let mut out = FactorMatrix::zeros(out_len, f);
        let mut stats = ShuffleStats {
            distinct_vectors: fixed.len() as u64,
            ..Default::default()
        };

        let results: Vec<(u32, FactorMatrix, u64)> = blocks
            .par_iter()
            .map(|block| {
                // Step 1 (the "graph partitioning" step the paper criticizes):
                // find the distinct columns this partition needs.
                let mut needed: Vec<u32> = block.csr.col_idx().to_vec();
                needed.sort_unstable();
                needed.dedup();

                // Step 2: "ship" exactly those vectors to the partition.
                let mut local_index: HashMap<u32, usize> = HashMap::with_capacity(needed.len());
                let mut local_fixed = FactorMatrix::zeros(needed.len(), f);
                for (i, &v) in needed.iter().enumerate() {
                    local_index.insert(v, i);
                    local_fixed
                        .vector_mut(i)
                        .copy_from_slice(fixed.vector(v as usize));
                }

                // Step 3: solve the partition's rows against the shipped
                // subset, resolving each global column through the local
                // index.
                let local = solve_rows(
                    &block.csr,
                    f,
                    lambda,
                    |v| local_fixed.vector(local_index[&v]),
                    None,
                );
                (block.row_start, local, needed.len() as u64)
            })
            .collect();

        for (row_start, local, shipped) in results {
            stats.vectors_shipped += shipped;
            for u in 0..local.len() {
                out.vector_mut(row_start as usize + u)
                    .copy_from_slice(local.vector(u));
            }
        }
        stats.bytes_shipped = stats.vectors_shipped * f as u64 * 4;
        (out, stats)
    }

    /// One full ALS iteration with partial replication in both halves.
    pub fn als_iteration(&mut self) {
        let f = self.config.f;
        let (x, sx) = Self::update_side(
            &self.row_blocks,
            &self.theta,
            self.config.lambda,
            self.x.len(),
            f,
        );
        self.x = x;
        let (theta, st) = Self::update_side(
            &self.col_blocks,
            &self.x,
            self.config.lambda,
            self.theta.len(),
            f,
        );
        self.theta = theta;
        self.last_shuffle = ShuffleStats {
            vectors_shipped: sx.vectors_shipped + st.vectors_shipped,
            bytes_shipped: sx.bytes_shipped + st.bytes_shipped,
            distinct_vectors: sx.distinct_vectors + st.distinct_vectors,
        };
    }
}

impl Engine for SparkAlsStyle {
    fn name(&self) -> &'static str {
        "SparkALS (partial replication)"
    }

    fn train_sweep(&mut self) -> f64 {
        self.als_iteration();
        0.0
    }

    fn x(&self) -> &FactorMatrix {
        &self.x
    }

    fn theta(&self) -> &FactorMatrix {
        &self.theta
    }

    fn set_factors(&mut self, x: FactorMatrix, theta: FactorMatrix) {
        check_factor_shapes(&x, &theta, self.x.len(), self.theta.len(), self.config.f);
        self.x = x;
        self.theta = theta;
    }

    fn attach_metrics(&mut self, _metrics: Arc<TrainMetrics>) {}

    fn train_rmse(&self) -> f64 {
        self.rmse(&self.train_entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pals::{Pals, PalsConfig};
    use cumf_data::synth::SyntheticConfig;

    fn ratings() -> Csr {
        SyntheticConfig {
            m: 150,
            n: 90,
            nnz: 5000,
            rank: 4,
            noise_std: 0.05,
            ..Default::default()
        }
        .generate()
        .to_csr()
    }

    #[test]
    fn spark_als_converges_and_matches_pals() {
        let r = ratings();
        let mut spark = SparkAlsStyle::new(
            SparkAlsConfig {
                f: 8,
                partitions: 4,
                ..Default::default()
            },
            &r,
        );
        let mut pals = Pals::new(
            PalsConfig {
                f: 8,
                workers: 4,
                ..Default::default()
            },
            &r,
        );
        for _ in 0..2 {
            spark.train_sweep();
            pals.train_sweep();
        }
        // Partial replication must not change the ALS result.
        assert!(spark.x().max_abs_diff(pals.x()) < 1e-3);
        assert!(spark.train_rmse() < 0.5);
    }

    #[test]
    fn shuffle_statistics_are_recorded() {
        let r = ratings();
        let mut spark = SparkAlsStyle::new(
            SparkAlsConfig {
                f: 8,
                partitions: 4,
                ..Default::default()
            },
            &r,
        );
        spark.train_sweep();
        let s = spark.last_shuffle();
        assert!(s.vectors_shipped > 0);
        assert_eq!(s.bytes_shipped, s.vectors_shipped * 8 * 4);
        assert!(s.replication_factor() >= 1.0);
    }

    #[test]
    fn more_partitions_means_more_replication() {
        // The cuMF paper's point: partial replication still duplicates
        // popular columns, and it gets worse with more partitions.
        let r = ratings();
        let mut p2 = SparkAlsStyle::new(
            SparkAlsConfig {
                partitions: 2,
                ..Default::default()
            },
            &r,
        );
        let mut p8 = SparkAlsStyle::new(
            SparkAlsConfig {
                partitions: 8,
                ..Default::default()
            },
            &r,
        );
        p2.train_sweep();
        p8.train_sweep();
        assert!(p8.last_shuffle().vectors_shipped > p2.last_shuffle().vectors_shipped);
    }

    #[test]
    fn single_partition_ships_each_vector_once() {
        let r = ratings();
        let mut p1 = SparkAlsStyle::new(
            SparkAlsConfig {
                partitions: 1,
                ..Default::default()
            },
            &r,
        );
        p1.train_sweep();
        // With one partition the replication factor collapses to ≤ 1
        // (every referenced vector shipped exactly once).
        assert!(p1.last_shuffle().replication_factor() <= 1.0 + 1e-9);
    }
}
