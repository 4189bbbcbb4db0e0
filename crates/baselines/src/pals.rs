//! PALS: model-parallel ALS with full `Θ` replication (Zhou et al., AAIM
//! 2008 — the original "Large-scale Parallel Collaborative Filtering for the
//! Netflix Prize" system).
//!
//! PALS partitions `X` and `R` by rows across workers and **replicates the
//! whole `Θᵀ`** on every worker.  §2.2 of the cuMF paper points out that
//! this only works while `Θᵀ` is small; the [`Pals::replication_bytes`]
//! accessor exposes exactly the quantity that blows up.

use crate::als_util;
use cumf_core::als::kernels::solve_side;
use cumf_core::engine::check_factor_shapes;
use cumf_core::{Engine, TrainMetrics};
use cumf_linalg::FactorMatrix;
use cumf_sparse::{horizontal_partition, Csr, Entry, SparseBlock};
use rayon::prelude::*;
use std::sync::Arc;

/// Hyper-parameters of the PALS solver.
#[derive(Debug, Clone, PartialEq)]
pub struct PalsConfig {
    /// Latent dimension `f`.
    pub f: usize,
    /// Weighted-λ regularization.
    pub lambda: f32,
    /// Number of (simulated) worker partitions.
    pub workers: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PalsConfig {
    fn default() -> Self {
        Self {
            f: 32,
            lambda: 0.05,
            workers: 4,
            seed: 42,
        }
    }
}

/// PALS solver: row-partitioned ALS with full `Θ` replication.
pub struct Pals {
    config: PalsConfig,
    train_entries: Vec<Entry>,
    row_blocks: Vec<SparseBlock>,
    col_blocks: Vec<SparseBlock>,
    x: FactorMatrix,
    theta: FactorMatrix,
}

impl Pals {
    /// Builds the solver, partitioning `R` by rows (for update-X) and by
    /// rows of `Rᵀ` (for update-Θ).
    pub fn new(config: PalsConfig, r: &Csr) -> Self {
        let workers_rows = config.workers.min(r.n_rows().max(1) as usize);
        let workers_cols = config.workers.min(r.n_cols().max(1) as usize);
        let row_blocks = horizontal_partition(r, workers_rows).expect("row partition");
        let col_blocks =
            horizontal_partition(&r.transpose(), workers_cols).expect("column partition");
        let x = als_util::init_factors(r.n_rows() as usize, config.f, config.seed);
        let theta = als_util::init_factors(r.n_cols() as usize, config.f, config.seed ^ 0x7e7a);
        Self {
            config,
            train_entries: r.iter().collect(),
            row_blocks,
            col_blocks,
            x,
            theta,
        }
    }

    /// Bytes of `Θᵀ` (or `X` for the other half) that PALS replicates to
    /// every worker in one iteration — the scalability limit the cuMF paper
    /// calls out.
    pub fn replication_bytes(&self) -> u64 {
        let workers = self.row_blocks.len() as u64;
        let theta_bytes = (self.theta.footprint_words() * 4) as u64;
        let x_bytes = (self.x.footprint_words() * 4) as u64;
        workers * (theta_bytes + x_bytes)
    }

    fn update_side(
        blocks: &[SparseBlock],
        fixed: &FactorMatrix,
        lambda: f32,
        out_len: usize,
        f: usize,
    ) -> FactorMatrix {
        let mut out = FactorMatrix::zeros(out_len, f);
        // Each "worker" (block) solves its own rows against the replicated
        // fixed factors; workers run in parallel.  Horizontal partitioning
        // keeps the full column range, so block column ids index `fixed`.
        let results: Vec<(u32, FactorMatrix)> = blocks
            .par_iter()
            .map(|block| (block.row_start, solve_side(&block.csr, fixed, lambda, None)))
            .collect();
        for (row_start, local) in results {
            for u in 0..local.len() {
                out.vector_mut(row_start as usize + u)
                    .copy_from_slice(local.vector(u));
            }
        }
        out
    }

    /// One full ALS iteration.
    pub fn als_iteration(&mut self) {
        let f = self.config.f;
        self.x = Self::update_side(
            &self.row_blocks,
            &self.theta,
            self.config.lambda,
            self.x.len(),
            f,
        );
        self.theta = Self::update_side(
            &self.col_blocks,
            &self.x,
            self.config.lambda,
            self.theta.len(),
            f,
        );
    }
}

impl Engine for Pals {
    fn name(&self) -> &'static str {
        "PALS (ALS, full replication)"
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
    fn pals_converges_fast_like_any_als() {
        let r = ratings();
        let mut solver = Pals::new(
            PalsConfig {
                f: 8,
                workers: 4,
                ..Default::default()
            },
            &r,
        );
        let before = solver.train_rmse();
        for _ in 0..3 {
            solver.train_sweep();
        }
        let after = solver.train_rmse();
        assert!(
            after < before * 0.4,
            "PALS should converge quickly: {before} -> {after}"
        );
    }

    #[test]
    fn worker_count_does_not_change_results_materially() {
        let r = ratings();
        let mut w1 = Pals::new(
            PalsConfig {
                f: 8,
                workers: 1,
                ..Default::default()
            },
            &r,
        );
        let mut w4 = Pals::new(
            PalsConfig {
                f: 8,
                workers: 4,
                ..Default::default()
            },
            &r,
        );
        w1.train_sweep();
        w4.train_sweep();
        assert!(w1.x().max_abs_diff(w4.x()) < 1e-3);
    }

    #[test]
    fn replication_bytes_scale_with_workers() {
        let r = ratings();
        let p2 = Pals::new(
            PalsConfig {
                workers: 2,
                ..Default::default()
            },
            &r,
        );
        let p4 = Pals::new(
            PalsConfig {
                workers: 4,
                ..Default::default()
            },
            &r,
        );
        assert!(p4.replication_bytes() > p2.replication_bytes());
    }

    #[test]
    fn pals_beats_sgd_baselines_per_iteration() {
        // ALS makes much more progress per iteration than one SGD epoch.
        let r = ratings();
        let mut pals = Pals::new(
            PalsConfig {
                f: 8,
                ..Default::default()
            },
            &r,
        );
        let mut sgd = crate::libmf::LibMfSgd::new(
            crate::libmf::LibMfConfig {
                f: 8,
                ..Default::default()
            },
            &r,
        );
        pals.train_sweep();
        sgd.train_sweep();
        assert!(pals.train_rmse() < sgd.train_rmse());
    }
}
