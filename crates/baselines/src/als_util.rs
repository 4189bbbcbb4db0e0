//! Factor-initialization helpers shared by the baselines.
//!
//! The ALS-family baselines (PALS and the SparkALS-style solver) keep their
//! own partitioning and communication schemes — the part of the competing
//! systems under comparison — but solve each row with `cumf-core`'s one ALS
//! row solver ([`cumf_core::als::kernels::solve_rows`]), so their numerics
//! are exactly the core engines'.

use cumf_linalg::FactorMatrix;
use cumf_sparse::Csr;

/// Random factor initialization shared by the baselines (same scaling as the
/// core engines so convergence curves are comparable).
pub fn init_factors(n: usize, f: usize, seed: u64) -> FactorMatrix {
    FactorMatrix::random(n, f, 1.0 / (f as f32).sqrt(), seed)
}

/// Mean of the stored ratings (1.0 for an empty matrix).
pub fn mean_rating(r: &Csr) -> f32 {
    if r.nnz() == 0 {
        return 1.0;
    }
    let sum: f64 = r.values().iter().map(|&v| v as f64).sum();
    (sum / r.nnz() as f64) as f32
}

/// Random factor initialization whose initial predictions center on `mean`:
/// entries uniform in `[0, 2·√(mean/f))`, so `E[x·θ] = mean`.  The SGD-style
/// baselines (libMF, NOMAD, CCD++) start this way — as the real
/// libMF does — because gradient steps close the gap to the rating mean
/// slowly, unlike an ALS sweep which jumps there in one solve.
pub fn init_factors_to_mean(n: usize, f: usize, seed: u64, mean: f32) -> FactorMatrix {
    let scale = 2.0 * (mean.max(0.0) / f as f32).sqrt();
    FactorMatrix::random(n, f, scale.max(1e-3), seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_factors_is_seeded() {
        assert_eq!(init_factors(10, 4, 7), init_factors(10, 4, 7));
        assert_ne!(init_factors(10, 4, 7), init_factors(10, 4, 8));
    }
}
