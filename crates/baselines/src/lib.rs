//! CPU baseline matrix-factorization algorithms.
//!
//! The cuMF paper compares against a family of CPU systems.  This crate
//! implements the *algorithms* those systems run, as real shared-memory
//! multi-threaded Rust, so that their convergence behaviour (RMSE per
//! iteration/epoch) in Figures 6 and 10 is genuine rather than copied:
//!
//! * [`libmf`] — libMF-style blocked SGD (DSGD block scheduling across
//!   threads with conflict-free rotations).
//! * HOGWILD!-style lock-free SGD (atomic relaxed updates) is
//!   [`cumf_core::sgd::SgdEngine`]; it has no second copy here.
//! * [`nomad`] — NOMAD-style asynchronous SGD where item columns circulate
//!   between workers as tokens.
//! * [`ccd`] — CCD++ cyclic coordinate descent with a maintained residual.
//! * [`pals`] — PALS: model-parallel ALS with full `Θ` replication.
//! * [`spark_als`] — SparkALS-style ALS with per-partition partial
//!   replication of `Θ` (and its communication-volume accounting).
//!
//! The SGD baselines only schedule: every rating they visit goes through
//! [`cumf_core::sgd::step`], the one equation-(4) update.  The ALS
//! baselines likewise solve rows through `cumf-core`'s row solver.
//!
//! Cluster-scale *wall-clock* for these systems comes from `cumf-cluster`'s
//! cost models; this crate is about numerics on (scaled-down) data.

#![forbid(unsafe_code)]
pub mod als_util;
pub mod ccd;
pub mod libmf;
pub mod nomad;
pub mod pals;
pub mod spark_als;

pub use cumf_core::Engine;

pub use ccd::CcdPlusPlus;
pub use libmf::LibMfSgd;
pub use nomad::NomadSgd;
pub use pals::Pals;
pub use spark_als::SparkAlsStyle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::libmf::LibMfConfig;
    use crate::nomad::NomadConfig;
    use crate::pals::PalsConfig;
    use crate::spark_als::SparkAlsConfig;
    use cumf_core::als::kernels::solve_side;
    use cumf_core::sgd::{SgdConfig, SgdReference};
    use cumf_data::synth::SyntheticConfig;
    use cumf_linalg::FactorMatrix;

    /// FNV-1a over a stream of 32-bit words.
    fn fnv1a(words: impl IntoIterator<Item = u32>) -> u64 {
        words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
            w.to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
        })
    }

    /// Hash of the exact bit patterns of `X` and `Θ`.
    fn factor_bits(x: &FactorMatrix, theta: &FactorMatrix) -> (u64, u64) {
        let bits = |m: &FactorMatrix| fnv1a(m.data().iter().map(|v| v.to_bits()));
        (bits(x), bits(theta))
    }

    #[test]
    fn deterministic_sgd_schedules_are_pinned_bit_for_bit() {
        // The sequential reference, libMF's conflict-free blocks and a
        // single NOMAD worker visit ratings in a fixed order, so their
        // factors after two epochs are fixed bit patterns.  Routing the
        // update rule or the shuffle through a shared helper must not move
        // a single bit, and neither may the synthetic ratings themselves.
        let data = SyntheticConfig {
            m: 150,
            n: 90,
            nnz: 5000,
            rank: 4,
            noise_std: 0.05,
            ..Default::default()
        }
        .generate();
        let ratings_bits = fnv1a(
            data.ratings
                .entries()
                .iter()
                .flat_map(|e| [e.row, e.col, e.val.to_bits()]),
        );
        assert_eq!(ratings_bits, 0xd486_f233_b31c_a1f9, "synthetic ratings");
        let r = data.to_csr();

        let mut sgd = SgdReference::new(
            SgdConfig {
                f: 8,
                epochs: 2,
                ..Default::default()
            },
            r.clone(),
        );
        sgd.run();
        assert_eq!(
            factor_bits(sgd.x(), sgd.theta()),
            (0xcf1a_51b6_6c74_6f05, 0xfa36_0e82_843e_732f),
            "SgdReference"
        );

        for (threads, expect) in [
            (1, (0xc410_bb8e_3245_bc54, 0xd58c_1c49_cabb_4a91)),
            (3, (0x1ec6_5f2b_5436_7ea8, 0x95a8_6801_72be_081d)),
        ] {
            let mut libmf = LibMfSgd::new(
                LibMfConfig {
                    f: 8,
                    threads,
                    ..Default::default()
                },
                &r,
            );
            libmf.train_sweep();
            libmf.train_sweep();
            assert_eq!(
                factor_bits(libmf.x(), libmf.theta()),
                expect,
                "libMF, {threads} threads"
            );
        }

        let mut nomad = NomadSgd::new(
            NomadConfig {
                f: 8,
                workers: 1,
                ..Default::default()
            },
            &r,
        );
        nomad.train_sweep();
        nomad.train_sweep();
        assert_eq!(
            factor_bits(nomad.x(), nomad.theta()),
            (0x7506_da6f_a5d6_cd69, 0x1e75_d341_11d1_fb8c),
            "NOMAD, one worker"
        );
    }

    #[test]
    fn every_baseline_rejects_wrong_rank_factors() {
        let r = SyntheticConfig {
            m: 60,
            n: 40,
            nnz: 1000,
            ..Default::default()
        }
        .generate()
        .to_csr();
        let f = 4;
        let baselines: Vec<Box<dyn Engine>> = vec![
            Box::new(LibMfSgd::new(
                LibMfConfig {
                    f,
                    ..Default::default()
                },
                &r,
            )),
            Box::new(NomadSgd::new(
                NomadConfig {
                    f,
                    ..Default::default()
                },
                &r,
            )),
            Box::new(CcdPlusPlus::new(
                ccd::CcdConfig {
                    f,
                    ..Default::default()
                },
                &r,
            )),
            Box::new(Pals::new(
                PalsConfig {
                    f,
                    ..Default::default()
                },
                &r,
            )),
            Box::new(SparkAlsStyle::new(
                SparkAlsConfig {
                    f,
                    ..Default::default()
                },
                &r,
            )),
        ];
        let (m, n) = (r.n_rows() as usize, r.n_cols() as usize);
        for mut engine in baselines {
            for (x, theta, expect) in [
                (
                    FactorMatrix::zeros(m, f + 1),
                    FactorMatrix::zeros(n, f),
                    "X has the wrong rank",
                ),
                (
                    FactorMatrix::zeros(m, f),
                    FactorMatrix::zeros(n, f + 1),
                    "Θ has the wrong rank",
                ),
            ] {
                let name = engine.name();
                let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    engine.set_factors(x, theta)
                }))
                .expect_err("wrong-rank factors must be rejected");
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .unwrap_or_default();
                assert!(msg.contains(expect), "{name}: {msg:?} lacks {expect:?}");
            }
        }
    }

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
