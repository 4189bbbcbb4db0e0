//! The one ALS row solver every engine, fold-in path and ALS baseline runs.
//!
//! Every ALS engine in this crate — the reference CPU ALS, MO-ALS and
//! SU-ALS — plus incremental fold-in and the PALS/SparkALS baselines
//! computes exactly the same update (equation (2) of the paper):
//!
//! ```text
//!   (Σ_{r_uv≠0} θ_v θ_vᵀ  +  λ·n_{x_u}·I) · x_u  =  Σ_{r_uv≠0} r_uv·θ_v
//! ```
//!
//! What differs between engines is *where the bytes move on the simulated
//! GPU*, which is handled by the traffic models in [`crate::als::mo`] and
//! [`crate::als::su`].  The numerics are two private steps — assembly (the
//! `get_hermitian` kernel: one `syr_full` + `axpy` per rating) and finish (the
//! weighted-λ ridge plus a Cholesky solve, `batch_solve` in the paper) —
//! driven either by the fused row loop [`solve_rows`] or, for SU-ALS, split
//! around a cross-partition reduction ([`partial_hermitians`] →
//! [`accumulate_partials`] → [`finalize_and_solve`]).  A change to either
//! step reaches every caller at once.

use crate::instrument::TrainMetrics;
use cumf_linalg::blas::{add_diagonal, axpy, syr_full};
use cumf_linalg::cholesky::cholesky_solve;
use cumf_linalg::FactorMatrix;
use cumf_obs::ns_between;
use cumf_sparse::Csr;
use rayon::prelude::*;
use std::time::Instant;

/// Assembly step: accumulates one row's Hermitian `a` (`f × f`) and
/// right-hand side `b` over its ratings, resolving each column through
/// `fixed`.  Ratings are visited in CSR order.
fn assemble_row<'a>(
    a: &mut [f32],
    b: &mut [f32],
    cols: &[u32],
    vals: &[f32],
    fixed: impl Fn(u32) -> &'a [f32],
) {
    for (&v, &val) in cols.iter().zip(vals.iter()) {
        // The scalar pair auto-vectorizes well on x86-64; it measured
        // faster than a hand-unrolled four-lane fused kernel.
        let theta_v = fixed(v);
        syr_full(a, theta_v);
        axpy(val, theta_v, b);
    }
}

/// Finish step: adds the weighted-λ ridge `λ · degree` to an assembled
/// system and solves it in place, writing the solution to `x_u`.  A
/// (numerically) singular system yields a zero vector rather than
/// propagating NaNs or a raw right-hand side.
fn finish_row(a: &mut [f32], b: &mut [f32], degree: usize, lambda: f32, x_u: &mut [f32]) {
    let f = x_u.len();
    add_diagonal(a, f, lambda * degree as f32);
    if cholesky_solve(a, f, b).is_ok() {
        x_u.copy_from_slice(b);
    } else {
        x_u.fill(0.0);
    }
}

/// Solves one side of the ALS update with the fused per-row kernel: for each
/// row `u` of `r`, assembles the regularized Hermitian and right-hand side
/// and solves it immediately, in parallel over rows.
///
/// * `r` — ratings with the *solved* entities as rows.
/// * `f` — the latent rank.
/// * `lambda` — weighted-λ regularization; each row's ridge is
///   `λ · n_{x_u}`.
/// * `fixed` — looks up the other side's factor vector (length `f`) for a
///   column id of `r`.  Generic, so each caller's lookup inlines into the
///   assembly loop.
/// * `metrics` — when present, each non-empty row records its assembly and
///   solve phases and the whole call lands in the `solve_side` histogram;
///   with `None` no clock is read.  Results are identical either way.
///
/// Rows with no ratings get a zero vector (their system is singular under
/// weighted regularization, matching the behaviour of the original cuMF).
pub fn solve_rows<'a, F>(
    r: &Csr,
    f: usize,
    lambda: f32,
    fixed: F,
    metrics: Option<&TrainMetrics>,
) -> FactorMatrix
where
    F: Fn(u32) -> &'a [f32] + Sync,
{
    let call_start = metrics.map(|_| Instant::now());
    let mut out = FactorMatrix::zeros(r.n_rows() as usize, f);

    out.data_mut()
        .par_chunks_mut(f)
        .enumerate()
        .for_each(|(u, x_u)| {
            let (cols, vals) = r.row(u as u32);
            if cols.is_empty() {
                return;
            }
            let row_start = metrics.map(|_| Instant::now());
            let mut a = vec![0.0f32; f * f];
            let mut b = vec![0.0f32; f];
            assemble_row(&mut a, &mut b, cols, vals, &fixed);
            let assembled = metrics.map(|_| Instant::now());
            finish_row(&mut a, &mut b, cols.len(), lambda, x_u);
            if let (Some(m), Some(t0), Some(t1)) = (metrics, row_start, assembled) {
                m.record_row(ns_between(t0, t1), ns_between(t1, Instant::now()));
            }
        });
    if let (Some(m), Some(t0)) = (metrics, call_start) {
        m.solve_side.record(t0.elapsed());
    }
    out
}

/// [`solve_rows`] against a contiguous factor matrix: one half-iteration of
/// training.
///
/// * `r` — ratings with the *solved* entities as rows (pass `R` to update
///   `X`, `Rᵀ` to update `Θ`).
/// * `fixed` — the factor matrix of the other side, indexed by `r`'s columns.
/// * `lambda` — weighted-λ regularization.
/// * `metrics` — optional per-row phase and whole-call timing.
pub fn solve_side(
    r: &Csr,
    fixed: &FactorMatrix,
    lambda: f32,
    metrics: Option<&TrainMetrics>,
) -> FactorMatrix {
    solve_rows(
        r,
        fixed.rank(),
        lambda,
        |v| fixed.vector(v as usize),
        metrics,
    )
}

/// Per-row partial Hermitians and right-hand sides over a *block* of `R`
/// (the data-parallel half of SU-ALS, equation (5)/(6)/(7) of the paper).
///
/// `block` is a block of `R` with block-local column indices; `fixed_part`
/// holds the factor vectors of exactly those local columns.  No
/// regularization is added here — that happens after the cross-GPU reduction
/// in [`finalize_and_solve`], because `n_{x_u}` is a property of the whole
/// row, not of one block.
///
/// Returns `(hermitians, rhs)` with `hermitians.len() == rows · f²` and
/// `rhs.len() == rows · f`.
pub fn partial_hermitians(
    block: &Csr,
    fixed_part: &FactorMatrix,
    f: usize,
) -> (Vec<f32>, Vec<f32>) {
    assert_eq!(fixed_part.rank(), f, "fixed factor rank mismatch");
    let rows = block.n_rows() as usize;
    let mut hermitians = vec![0.0f32; rows * f * f];
    let mut rhs = vec![0.0f32; rows * f];

    hermitians
        .par_chunks_mut(f * f)
        .zip(rhs.par_chunks_mut(f))
        .enumerate()
        .for_each(|(u, (a, b))| {
            let (cols, vals) = block.row(u as u32);
            assemble_row(a, b, cols, vals, |v| fixed_part.vector(v as usize));
        });
    (hermitians, rhs)
}

/// Element-wise accumulation of partial Hermitians/right-hand sides coming
/// from different column partitions (the reduction of Algorithm 3,
/// lines 15–16).
pub fn accumulate_partials(acc_a: &mut [f32], acc_b: &mut [f32], part_a: &[f32], part_b: &[f32]) {
    assert_eq!(
        acc_a.len(),
        part_a.len(),
        "hermitian partial length mismatch"
    );
    assert_eq!(acc_b.len(), part_b.len(), "rhs partial length mismatch");
    acc_a
        .par_iter_mut()
        .zip(part_a.par_iter())
        .for_each(|(acc, p)| *acc += p);
    acc_b
        .par_iter_mut()
        .zip(part_b.par_iter())
        .for_each(|(acc, p)| *acc += p);
}

/// Adds the weighted-λ ridge to every reduced Hermitian and solves each row
/// with the same finish step as [`solve_rows`] (Algorithm 3 line 17).
///
/// `row_degrees[u]` must be the row's total number of ratings across *all*
/// column partitions.  Rows with no ratings, and rows whose system is
/// singular, get a zero vector.
pub fn finalize_and_solve(
    hermitians: &mut [f32],
    rhs: &mut [f32],
    row_degrees: &[usize],
    lambda: f32,
    f: usize,
) -> FactorMatrix {
    let rows = row_degrees.len();
    assert_eq!(
        hermitians.len(),
        rows * f * f,
        "hermitian buffer size mismatch"
    );
    assert_eq!(rhs.len(), rows * f, "rhs buffer size mismatch");

    let mut out = FactorMatrix::zeros(rows, f);
    out.data_mut()
        .par_chunks_mut(f)
        .zip(hermitians.par_chunks_mut(f * f))
        .zip(rhs.par_chunks_mut(f))
        .zip(row_degrees.par_iter())
        .for_each(|(((x_u, a), b), &degree)| {
            if degree > 0 {
                finish_row(a, b, degree, lambda, x_u);
            }
        });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cumf_data::synth::SyntheticConfig;
    use cumf_sparse::{vertical_partition, Coo};

    /// One full update of a side through the partial-Hermitian path with a
    /// single (trivial) partition, to check that the blocked path agrees
    /// with [`solve_side`].
    fn solve_side_via_partials(r: &Csr, fixed: &FactorMatrix, lambda: f32) -> FactorMatrix {
        let f = fixed.rank();
        let (mut a, mut b) = partial_hermitians(r, fixed, f);
        let degrees: Vec<usize> = (0..r.n_rows()).map(|u| r.nnz_row(u)).collect();
        finalize_and_solve(&mut a, &mut b, &degrees, lambda, f)
    }

    fn small_problem() -> (Csr, FactorMatrix) {
        let data = SyntheticConfig {
            m: 120,
            n: 60,
            nnz: 2400,
            rank: 4,
            ..Default::default()
        }
        .generate();
        let r = data.to_csr();
        let theta = FactorMatrix::random(60, 8, 0.5, 11);
        (r, theta)
    }

    #[test]
    fn solve_side_reduces_training_error() {
        let (r, theta) = small_problem();
        let x0 = FactorMatrix::random(r.n_rows() as usize, 8, 0.5, 3);
        let before = crate::loss::rmse_csr(&x0, &theta, &r);
        let x1 = solve_side(&r, &theta, 0.05, None);
        let after = crate::loss::rmse_csr(&x1, &theta, &r);
        assert!(
            after < before,
            "solving X should reduce RMSE: {before} -> {after}"
        );
    }

    #[test]
    fn solve_side_is_exact_for_rank1_noiseless_data() {
        // r_uv = u_factor * v_factor with no noise and lambda ~ 0: ALS
        // recovers X exactly given the true Θ.
        let theta = FactorMatrix::from_vec(3, 1, vec![1.0, 2.0, 4.0]);
        let mut coo = Coo::new(2, 3);
        for u in 0..2u32 {
            for v in 0..3u32 {
                coo.push(u, v, (u + 1) as f32 * theta.vector(v as usize)[0])
                    .unwrap();
            }
        }
        let r = coo.to_csr();
        let x = solve_side(&r, &theta, 1e-9, None);
        assert!((x.vector(0)[0] - 1.0).abs() < 1e-4);
        assert!((x.vector(1)[0] - 2.0).abs() < 1e-4);
    }

    #[test]
    fn empty_rows_get_zero_vectors() {
        let mut coo = Coo::new(3, 2);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(2, 1, 2.0).unwrap();
        let r = coo.to_csr();
        let theta = FactorMatrix::random(2, 4, 1.0, 5);
        let x = solve_side(&r, &theta, 0.1, None);
        assert!(x.vector(1).iter().all(|&v| v == 0.0));
        assert!(x.vector(0).iter().any(|&v| v != 0.0));
    }

    #[test]
    fn vectorized_assembly_matches_the_scalar_reference_exactly() {
        // Rebuild every row's system with the scalar syr_full + axpy pair
        // and solve it: solve_side must reproduce each factor vector
        // bit-for-bit (zero tolerance).  A faster kernel swapped into the
        // assembly step (a SYRK-style micro-kernel) must keep this by
        // performing the same multiply-adds and reordering no reduction.
        use cumf_linalg::blas::{axpy, syr_full};
        let (r, theta) = small_problem();
        let f = theta.rank();
        let lambda = 0.05f32;
        let got = solve_side(&r, &theta, lambda, None);
        for u in 0..r.n_rows() {
            let (cols, vals) = r.row(u);
            if cols.is_empty() {
                continue;
            }
            let mut a = vec![0.0f32; f * f];
            let mut b = vec![0.0f32; f];
            for (&v, &val) in cols.iter().zip(vals.iter()) {
                let theta_v = theta.vector(v as usize);
                syr_full(&mut a, theta_v);
                axpy(val, theta_v, &mut b);
            }
            add_diagonal(&mut a, f, lambda * cols.len() as f32);
            cholesky_solve(&mut a, f, &mut b).unwrap();
            assert_eq!(got.vector(u as usize), &b[..], "row {u} diverged");
        }
    }

    #[test]
    fn partial_path_matches_fused_path() {
        let (r, theta) = small_problem();
        let fused = solve_side(&r, &theta, 0.05, None);
        let partial = solve_side_via_partials(&r, &theta, 0.05);
        assert!(
            fused.max_abs_diff(&partial) < 1e-4,
            "fused and partial paths should agree"
        );

        // θ₀ = (1, 1), one rating 4.0, λ = 0: the Hermitian [[1, 1], [1, 1]]
        // is singular, so both paths must give the zero vector — not the
        // raw right-hand side (4, 4).
        let theta = FactorMatrix::from_vec(1, 2, vec![1.0, 1.0]);
        let mut coo = Coo::new(1, 1);
        coo.push(0, 0, 4.0).unwrap();
        let r = coo.to_csr();
        let fused = solve_side(&r, &theta, 0.0, None);
        let partial = solve_side_via_partials(&r, &theta, 0.0);
        assert_eq!(fused.vector(0), &[0.0, 0.0]);
        assert_eq!(partial.vector(0), &[0.0, 0.0]);
    }

    #[test]
    fn partials_over_column_partitions_sum_to_the_whole() {
        let (r, theta) = small_problem();
        let f = theta.rank();
        let (full_a, full_b) = partial_hermitians(&r, &theta, f);

        // Split columns into 3 partitions and accumulate the per-partition
        // partials: the result must equal the unpartitioned computation.
        let blocks = vertical_partition(&r, 3).unwrap();
        let rows = r.n_rows() as usize;
        let mut acc_a = vec![0.0f32; rows * f * f];
        let mut acc_b = vec![0.0f32; rows * f];
        for block in &blocks {
            // Factor vectors for this partition's columns.
            let cs = block.col_start as usize;
            let cols = block.n_cols() as usize;
            let mut part = FactorMatrix::zeros(cols, f);
            for c in 0..cols {
                part.vector_mut(c).copy_from_slice(theta.vector(cs + c));
            }
            let (pa, pb) = partial_hermitians(&block.csr, &part, f);
            accumulate_partials(&mut acc_a, &mut acc_b, &pa, &pb);
        }
        let max_a = full_a
            .iter()
            .zip(acc_a.iter())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f32, f32::max);
        let max_b = full_b
            .iter()
            .zip(acc_b.iter())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f32, f32::max);
        assert!(max_a < 1e-3, "hermitian mismatch {max_a}");
        assert!(max_b < 1e-3, "rhs mismatch {max_b}");
    }

    #[test]
    fn finalize_zeroes_empty_rows() {
        let f = 4;
        let mut a = vec![0.0f32; 2 * f * f];
        let mut b = vec![0.0f32; 2 * f];
        // Row 0 has data, row 1 is empty.
        for i in 0..f {
            a[i * f + i] = 2.0;
            b[i] = 1.0;
        }
        let out = finalize_and_solve(&mut a, &mut b, &[3, 0], 0.1, f);
        assert!(out.vector(0).iter().any(|&v| v != 0.0));
        assert!(out.vector(1).iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn accumulate_rejects_mismatched_buffers() {
        let mut a = vec![0.0f32; 4];
        let mut b = vec![0.0f32; 2];
        accumulate_partials(&mut a, &mut b, &[0.0; 8], &[0.0; 2]);
    }
}
