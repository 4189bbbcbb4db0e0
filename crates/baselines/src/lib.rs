//! CPU baseline matrix-factorization algorithms.
//!
//! The cuMF paper compares against a family of CPU systems.  This crate
//! implements the *algorithms* those systems run, as real shared-memory
//! multi-threaded Rust, so that their convergence behaviour (RMSE per
//! iteration/epoch) in Figures 6 and 10 is genuine rather than copied:
//!
//! * [`libmf`] — libMF-style blocked SGD (DSGD block scheduling across
//!   threads with conflict-free rotations).
//! * [`hogwild`] — HOGWILD!-style lock-free SGD (atomic relaxed updates).
//! * [`nomad`] — NOMAD-style asynchronous SGD where item columns circulate
//!   between workers as tokens.
//! * [`ccd`] — CCD++ cyclic coordinate descent with a maintained residual.
//! * [`pals`] — PALS: model-parallel ALS with full `Θ` replication.
//! * [`spark_als`] — SparkALS-style ALS with per-partition partial
//!   replication of `Θ` (and its communication-volume accounting).
//!
//! Cluster-scale *wall-clock* for these systems comes from `cumf-cluster`'s
//! cost models; this crate is about numerics on (scaled-down) data.

#![forbid(unsafe_code)]
pub mod als_util;
pub mod ccd;
pub mod hogwild;
pub mod libmf;
pub mod nomad;
pub mod pals;
pub mod spark_als;

pub use cumf_core::Engine;

pub use ccd::CcdPlusPlus;
pub use hogwild::HogwildSgd;
pub use libmf::LibMfSgd;
pub use nomad::NomadSgd;
pub use pals::Pals;
pub use spark_als::SparkAlsStyle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pals::PalsConfig;
    use crate::spark_als::SparkAlsConfig;
    use cumf_core::als::kernels::solve_side;
    use cumf_data::synth::SyntheticConfig;
    use cumf_linalg::FactorMatrix;

    #[test]
    fn als_baselines_run_the_core_row_solver() {
        // From the same factors, one PALS or SparkALS iteration is exactly
        // two core half-updates, however the rows are partitioned.
        let r = SyntheticConfig {
            m: 150,
            n: 90,
            nnz: 5000,
            rank: 4,
            noise_std: 0.05,
            ..Default::default()
        }
        .generate()
        .to_csr();
        let (f, lambda) = (8, 0.05);
        let x0 = FactorMatrix::random(r.n_rows() as usize, f, 0.5, 1);
        let theta0 = FactorMatrix::random(r.n_cols() as usize, f, 0.5, 2);
        let x1 = solve_side(&r, &theta0, lambda, None);
        let theta1 = solve_side(&r.transpose(), &x1, lambda, None);

        for parts in [1, 2, 4] {
            let mut pals = Pals::new(
                PalsConfig {
                    f,
                    lambda,
                    workers: parts,
                    ..Default::default()
                },
                &r,
            );
            pals.set_factors(x0.clone(), theta0.clone());
            pals.als_iteration();
            assert_eq!(pals.x().data(), x1.data(), "PALS X, {parts} partitions");
            assert_eq!(
                pals.theta().data(),
                theta1.data(),
                "PALS Θ, {parts} partitions"
            );

            let mut spark = SparkAlsStyle::new(
                SparkAlsConfig {
                    f,
                    lambda,
                    partitions: parts,
                    ..Default::default()
                },
                &r,
            );
            spark.set_factors(x0.clone(), theta0.clone());
            spark.als_iteration();
            assert_eq!(
                spark.x().data(),
                x1.data(),
                "SparkALS X, {parts} partitions"
            );
            assert_eq!(
                spark.theta().data(),
                theta1.data(),
                "SparkALS Θ, {parts} partitions"
            );
        }
    }
}
