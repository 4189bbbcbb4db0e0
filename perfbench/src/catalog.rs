//! The serving catalog shared by the top-k workloads: a synthetic data set,
//! the factors of a short MO-ALS fit on it, and the snapshot served from
//! them; plus the activity-skewed user sampler and the independent
//! brute-force scorer the correctness gates compare against.

use crate::report::Report;
use cumf_core::als::MoAlsEngine;
use cumf_core::config::AlsConfig;
use cumf_core::Engine;
use cumf_data::synth::{SyntheticConfig, SyntheticDataset};
use cumf_linalg::FactorMatrix;
use cumf_serve::FactorSnapshot;
use cumf_sparse::Csr;
use rand::prelude::*;
use std::time::Instant;

pub const USERS: u32 = 20_000;
pub const ITEMS: u32 = 50_000;
pub const RATINGS: usize = 1_000_000;
pub const TRUE_RANK: usize = 8;
pub const F: usize = 32;
pub const LAMBDA: f32 = 0.05;
pub const FIT_SWEEPS: usize = 2;
pub const K: usize = 10;

pub struct Catalog {
    pub data: SyntheticDataset,
    /// Every generated rating: the training set of the served model, and
    /// the per-user exclusion lists.
    pub ratings: Csr,
    /// The fitted engine (its `Θ` and `λ` drive fold-in).
    pub engine: MoAlsEngine,
    pub generate_s: f64,
    pub fit_s: f64,
}

impl Catalog {
    pub fn build(seed: u64) -> Self {
        let t0 = Instant::now();
        let data = SyntheticConfig {
            m: USERS,
            n: ITEMS,
            nnz: RATINGS,
            rank: TRUE_RANK,
            seed,
            ..Default::default()
        }
        .generate();
        let ratings = data.to_csr();
        let generate_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let mut engine = MoAlsEngine::on_titan_x(
            AlsConfig {
                f: F,
                lambda: LAMBDA,
                iterations: FIT_SWEEPS,
                seed,
                ..Default::default()
            },
            ratings.clone(),
        );
        for _ in 0..FIT_SWEEPS {
            Engine::train_sweep(&mut engine);
        }
        let fit_s = t1.elapsed().as_secs_f64();
        Self {
            data,
            ratings,
            engine,
            generate_s,
            fit_s,
        }
    }

    /// A snapshot of the fitted factors, with its build time in seconds.
    pub fn snapshot(&self) -> (FactorSnapshot, f64) {
        let t0 = Instant::now();
        let snap =
            FactorSnapshot::from_factors(self.engine.x().clone(), self.engine.theta().clone());
        (snap, t0.elapsed().as_secs_f64())
    }

    /// The user's training items (sorted), excluded from their results.
    pub fn seen(&self, user: u32) -> &[u32] {
        if user < self.ratings.n_rows() {
            self.ratings.row(user).0
        } else {
            &[]
        }
    }

    /// Stamps the catalog parameters and working-set sizes.
    pub fn stamp(&self, report: &mut Report) {
        report.stamp_num("users", USERS as f64);
        report.stamp_num("items", ITEMS as f64);
        report.stamp_num("ratings", self.ratings.nnz() as f64);
        report.stamp_num("true_rank", TRUE_RANK as f64);
        report.stamp_num("f", F as f64);
        report.stamp_num("lambda", LAMBDA as f64);
        report.stamp_num("fit_sweeps", FIT_SWEEPS as f64);
        report.stamp_num("k", K as f64);
        report.stamp_num("catalog_item_bytes", ITEMS as f64 * F as f64 * 4.0);
        report.stamp_num("catalog_user_bytes", USERS as f64 * F as f64 * 4.0);
        let mut norms: Vec<f64> = (0..ITEMS as usize)
            .map(|v| {
                let t = self.engine.theta().vector(v);
                t.iter().map(|x| (*x as f64).powi(2)).sum::<f64>().sqrt()
            })
            .collect();
        norms.sort_by(f64::total_cmp);
        report.stamp_num("item_norm_p10", crate::report::quantile(&norms, 0.10));
        report.stamp_num("item_norm_p99", crate::report::quantile(&norms, 0.99));
        report.figure("data.generate_s", self.generate_s, "s");
        report.figure("core.als.fit_s", self.fit_s, "s");
    }
}

/// Draws users in proportion to their activity (training rating count) in
/// the data set, so popular users repeat.
pub struct ActivitySampler {
    cumulative: Vec<u64>,
}

impl ActivitySampler {
    pub fn new(ratings: &Csr) -> Self {
        let mut total = 0u64;
        let cumulative = (0..ratings.n_rows())
            .map(|u| {
                total += ratings.nnz_row(u) as u64;
                total
            })
            .collect();
        Self { cumulative }
    }

    pub fn sample(&self, rng: &mut StdRng) -> u32 {
        let total = *self.cumulative.last().expect("catalog has users");
        let r = rng.random_range(0..total);
        self.cumulative.partition_point(|&c| c <= r) as u32
    }
}

/// Exact top-`k` by a plain sequential dot product over every item, with
/// ties broken by ascending item id — independent of the blocked scan.
pub fn brute_top_k(
    user: &[f32],
    theta: &FactorMatrix,
    k: usize,
    exclude: &[u32],
) -> Vec<(u32, f32)> {
    let mut scored: Vec<(u32, f32)> = (0..theta.len())
        .filter(|&v| exclude.binary_search(&(v as u32)).is_err())
        .map(|v| {
            let s = user.iter().zip(theta.vector(v)).map(|(a, b)| a * b).sum();
            (v as u32, s)
        })
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    scored.truncate(k);
    scored
}

/// How one served list compares with the brute-force list.
#[derive(Debug, Default, Clone, Copy)]
pub struct Agreement {
    /// Served items also in the brute-force list.
    pub hits: usize,
    /// Served items outside it whose exact score ties the brute-force
    /// `k`-th score within float rounding.
    pub near_ties: usize,
    /// Served items outside it by more than rounding.
    pub misses: usize,
}

pub fn agreement(
    served: &[(u32, f32)],
    expect: &[(u32, f32)],
    user: &[f32],
    theta: &FactorMatrix,
) -> Agreement {
    let kth = expect.last().map_or(f32::NEG_INFINITY, |e| e.1);
    let mut a = Agreement::default();
    for &(v, _) in served {
        if expect.iter().any(|e| e.0 == v) {
            a.hits += 1;
        } else {
            let s: f32 = user
                .iter()
                .zip(theta.vector(v as usize))
                .map(|(x, y)| x * y)
                .sum();
            if (s - kth).abs() <= 1e-4 * kth.abs().max(1.0) {
                a.near_ties += 1;
            } else {
                a.misses += 1;
            }
        }
    }
    a
}

/// Checks one served response: exactly `k` distinct items, none of them in
/// the user's exclusion list.
pub fn response_ok(items: &[(u32, f32)], k: usize, exclude: &[u32]) -> bool {
    let mut ids: Vec<u32> = items.iter().map(|e| e.0).collect();
    ids.sort_unstable();
    ids.dedup();
    items.len() == k && ids.len() == k && ids.iter().all(|v| exclude.binary_search(v).is_err())
}
