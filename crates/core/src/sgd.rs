//! Stochastic gradient descent (equation (4) of the paper).
//!
//! cuMF deliberately chooses ALS over SGD because SGD's updates to the same
//! row conflict and are hard to spread over thousands of GPU cores (§2.1).
//! Every SGD engine in the workspace runs the one update [`step`] at the
//! learning rate [`epoch_alpha`]; what sets them apart is only the schedule
//! that decides which rating is visited when, and by which thread:
//!
//! * [`SgdReference`] — a shuffled sequential pass, the numerical ground
//!   truth tests compare ALS against;
//! * [`SgdEngine`] — HOGWILD!-style lock-free parallel epochs over shared
//!   atomic factors, plus streamed-rating absorption for the online loop;
//! * `cumf-baselines`' libMF (blocked grid of conflict-free blocks) and
//!   NOMAD (item columns circulating between workers as tokens).

use crate::engine::{Engine, IncrementalEngine};
use crate::instrument::TrainMetrics;
use crate::loss;
use cumf_data::shuffle;
use cumf_linalg::blas::dot;
use cumf_linalg::FactorMatrix;
use cumf_sparse::{Csr, Entry};
use rand::prelude::*;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Ratings one parallel task of an [`SgdEngine`] epoch visits with one
/// pair of scratch rows.
const EPOCH_CHUNK: usize = 1024;

/// One SGD update for the rating `r` of user row `xu` and item row `tv`
/// (equation (4)): with `err = r − xu·tv`, `xu += α(err·tv − λ·xu)` and
/// `tv += α(err·xu − λ·tv)`, both right-hand sides read before either row
/// changes.
#[inline]
pub fn step(xu: &mut [f32], tv: &mut [f32], r: f32, alpha: f32, lambda: f32) {
    let err = r - dot(xu, tv);
    let update = |own: f32, other: f32| own + alpha * (err * other - lambda * own);
    for (x, t) in xu.iter_mut().zip(tv.iter_mut()) {
        (*x, *t) = (update(*x, *t), update(*t, *x));
    }
}

/// The learning rate of epoch `epoch`: `learning_rate · decay^epoch`.
#[inline]
pub fn epoch_alpha(learning_rate: f32, decay: f32, epoch: usize) -> f32 {
    learning_rate * decay.powi(epoch as i32)
}

/// Hyper-parameters of the SGD reference.
#[derive(Debug, Clone, PartialEq)]
pub struct SgdConfig {
    /// Latent dimension `f`.
    pub f: usize,
    /// Learning rate `α`.
    pub learning_rate: f32,
    /// Regularization `λ` (plain L2, as in equation (4)).
    pub lambda: f32,
    /// Number of epochs (full passes over the ratings).
    pub epochs: usize,
    /// Multiplicative learning-rate decay applied after every epoch.
    pub decay: f32,
    /// RNG seed for initialization and shuffling.
    pub seed: u64,
}

impl Default for SgdConfig {
    fn default() -> Self {
        Self {
            f: 32,
            learning_rate: 0.01,
            lambda: 0.05,
            epochs: 20,
            decay: 0.95,
            seed: 42,
        }
    }
}

/// A plain sequential SGD matrix factorizer.
#[derive(Debug, Clone)]
pub struct SgdReference {
    config: SgdConfig,
    r: Csr,
    x: FactorMatrix,
    theta: FactorMatrix,
}

impl SgdReference {
    /// Creates the factorizer with random initial factors.
    pub fn new(config: SgdConfig, r: Csr) -> Self {
        let scale = 1.0 / (config.f as f32).sqrt();
        let x = FactorMatrix::random(r.n_rows() as usize, config.f, scale, config.seed);
        let theta =
            FactorMatrix::random(r.n_cols() as usize, config.f, scale, config.seed ^ 0xABCD);
        Self {
            config,
            r,
            x,
            theta,
        }
    }

    /// Current user factors.
    pub fn x(&self) -> &FactorMatrix {
        &self.x
    }

    /// Current item factors.
    pub fn theta(&self) -> &FactorMatrix {
        &self.theta
    }

    /// Runs one epoch (a shuffled pass over every rating) and returns the
    /// learning rate that was used.
    pub fn epoch(&mut self, epoch_index: usize) -> f32 {
        let alpha = epoch_alpha(self.config.learning_rate, self.config.decay, epoch_index);
        let mut order: Vec<Entry> = self.r.iter().collect();
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ (epoch_index as u64 + 1));
        shuffle(&mut order, &mut rng);
        for e in order {
            step(
                self.x.vector_mut(e.row as usize),
                self.theta.vector_mut(e.col as usize),
                e.val,
                alpha,
                self.config.lambda,
            );
        }
        alpha
    }

    /// Runs all configured epochs.
    pub fn run(&mut self) {
        for e in 0..self.config.epochs {
            self.epoch(e);
        }
    }

    /// Training RMSE of the current factors.
    pub fn train_rmse(&self) -> f64 {
        loss::rmse_csr(&self.x, &self.theta, &self.r)
    }
}

/// A factor matrix whose elements are individually atomic, so parallel SGD
/// epochs can race on them HOGWILD!-style without locks or unsafe code.
struct AtomicFactors {
    f: usize,
    data: Vec<AtomicU32>,
}

impl AtomicFactors {
    fn from_factor_matrix(m: &FactorMatrix) -> Self {
        Self {
            f: m.rank(),
            data: m
                .data()
                .iter()
                .map(|&v| AtomicU32::new(v.to_bits()))
                .collect(),
        }
    }

    fn n_rows(&self) -> usize {
        self.data.len() / self.f
    }

    fn to_factor_matrix(&self) -> FactorMatrix {
        FactorMatrix::from_vec(
            self.n_rows(),
            self.f,
            self.data
                .iter()
                .map(|a| f32::from_bits(a.load(Ordering::Relaxed))) // relaxed-ok: Hogwild! reads are racy by design; SGD tolerates stale components
                .collect(),
        )
    }

    /// Appends `rows`, copying their values from `tail`.
    fn append(&mut self, tail: &FactorMatrix) {
        assert_eq!(tail.rank(), self.f, "appended rows have the wrong rank");
        self.data
            .extend(tail.data().iter().map(|&v| AtomicU32::new(v.to_bits())));
    }

    fn row(&self, row: usize) -> &[AtomicU32] {
        &self.data[row * self.f..(row + 1) * self.f]
    }

    /// Copies one row out into `dst`.
    fn read_row_into(&self, row: usize, dst: &mut [f32]) {
        for (slot, a) in dst.iter_mut().zip(self.row(row)) {
            *slot = f32::from_bits(a.load(Ordering::Relaxed)); // relaxed-ok: Hogwild! reads are racy by design; SGD tolerates stale components
        }
    }

    /// Stores `src` into one row.
    fn write_row(&self, row: usize, src: &[f32]) {
        for (a, &v) in self.row(row).iter().zip(src) {
            a.store(v.to_bits(), Ordering::Relaxed); // relaxed-ok: Hogwild! lock-free write; lost updates are the algorithm's stated trade
        }
    }
}

/// The paper's SGD update rule promoted to a first-class incremental
/// [`Engine`]: HOGWILD!-style lock-free parallel epochs for batch training
/// plus [`SgdEngine::absorb`] for applying streamed rating mutations without
/// a full retrain.
///
/// The sequential [`SgdReference`] above stays as the numerical ground truth;
/// this engine is what the online loop drives.
pub struct SgdEngine {
    config: SgdConfig,
    r: Csr,
    entries: Vec<Entry>,
    x_atomic: AtomicFactors,
    theta_atomic: AtomicFactors,
    // Cached snapshots backing the `Engine` accessors.
    x_snapshot: FactorMatrix,
    theta_snapshot: FactorMatrix,
    epoch: usize,
    metrics: Option<Arc<TrainMetrics>>,
}

impl SgdEngine {
    /// Builds the engine with random initial factors.
    pub fn new(config: SgdConfig, r: Csr) -> Self {
        let scale = 1.0 / (config.f as f32).sqrt();
        let x = FactorMatrix::random(r.n_rows() as usize, config.f, scale, config.seed);
        let theta =
            FactorMatrix::random(r.n_cols() as usize, config.f, scale, config.seed ^ 0xABCD);
        let mut entries: Vec<Entry> = r.iter().collect();
        shuffle(&mut entries, &mut StdRng::seed_from_u64(config.seed));
        Self {
            x_atomic: AtomicFactors::from_factor_matrix(&x),
            theta_atomic: AtomicFactors::from_factor_matrix(&theta),
            x_snapshot: x,
            theta_snapshot: theta,
            entries,
            config,
            r,
            epoch: 0,
            metrics: None,
        }
    }

    /// The learning rate the next update will use.
    pub fn alpha(&self) -> f32 {
        epoch_alpha(self.config.learning_rate, self.config.decay, self.epoch)
    }

    /// Number of user rows currently held (grows as streamed ratings
    /// introduce users beyond the training matrix).
    pub fn n_users(&self) -> usize {
        self.x_atomic.n_rows()
    }

    /// Grows the user factors so ids `< n` exist, initializing new rows
    /// randomly at the training scale.
    fn ensure_users(&mut self, n: usize) {
        let have = self.x_atomic.n_rows();
        if n <= have {
            return;
        }
        let scale = 1.0 / (self.config.f as f32).sqrt();
        let tail = FactorMatrix::random(
            n - have,
            self.config.f,
            scale,
            self.config.seed ^ (have as u64).rotate_left(17),
        );
        self.x_atomic.append(&tail);
        let mut data = self.x_snapshot.data().to_vec();
        data.extend_from_slice(tail.data());
        self.x_snapshot = FactorMatrix::from_vec(n, self.config.f, data);
    }

    /// Applies [`step`] for one rating to the atomic factors: copies both
    /// rows into the caller's scratch, updates them there and stores them
    /// back.  A racing thread's write between the copy and the store is
    /// lost, which is the HOGWILD! trade.
    fn step_shared(&self, e: &Entry, alpha: f32, xu: &mut [f32], tv: &mut [f32]) {
        let (u, v) = (e.row as usize, e.col as usize);
        self.x_atomic.read_row_into(u, xu);
        self.theta_atomic.read_row_into(v, tv);
        step(xu, tv, e.val, alpha, self.config.lambda);
        self.x_atomic.write_row(u, xu);
        self.theta_atomic.write_row(v, tv);
    }

    /// Absorbs a batch of streamed rating mutations: applies one SGD step
    /// per rating (growing the user set on demand) and refreshes the
    /// snapshot rows that changed.  Returns the distinct user ids touched,
    /// sorted ascending — exactly the rows an online loop must republish.
    ///
    /// # Panics
    /// Panics if a rating references an item outside the trained catalog.
    pub fn absorb(&mut self, batch: &[Entry]) -> Vec<u32> {
        if batch.is_empty() {
            return Vec::new();
        }
        let n_items = self.r.n_cols() as usize;
        let max_user = batch.iter().map(|e| e.row).max().unwrap() as usize;
        self.ensure_users(max_user + 1);
        let alpha = self.alpha();
        let mut users: Vec<u32> = Vec::with_capacity(batch.len());
        let mut items: Vec<u32> = Vec::with_capacity(batch.len());
        let (mut xu, mut tv) = (vec![0.0; self.config.f], vec![0.0; self.config.f]);
        for e in batch {
            assert!(
                (e.col as usize) < n_items,
                "streamed rating item id out of range"
            );
            self.step_shared(e, alpha, &mut xu, &mut tv);
            users.push(e.row);
            items.push(e.col);
        }
        users.sort_unstable();
        users.dedup();
        items.sort_unstable();
        items.dedup();
        for &u in &users {
            self.x_atomic
                .read_row_into(u as usize, self.x_snapshot.vector_mut(u as usize));
        }
        for &v in &items {
            self.theta_atomic
                .read_row_into(v as usize, self.theta_snapshot.vector_mut(v as usize));
        }
        // Streamed ratings join the training set so later sweeps keep them.
        self.entries.extend_from_slice(batch);
        users
    }

    /// One lock-free parallel epoch over every retained rating.
    fn parallel_epoch(&mut self) {
        let alpha = self.alpha();
        let this = &*self;
        self.entries.par_chunks(EPOCH_CHUNK).for_each(|chunk| {
            let (mut xu, mut tv) = (vec![0.0; this.config.f], vec![0.0; this.config.f]);
            for e in chunk {
                this.step_shared(e, alpha, &mut xu, &mut tv);
            }
        });
        self.epoch += 1;
        self.x_snapshot = self.x_atomic.to_factor_matrix();
        self.theta_snapshot = self.theta_atomic.to_factor_matrix();
    }
}

impl Engine for SgdEngine {
    fn name(&self) -> &'static str {
        "sgd"
    }

    fn train_sweep(&mut self) -> f64 {
        self.parallel_epoch();
        0.0
    }

    fn x(&self) -> &FactorMatrix {
        &self.x_snapshot
    }

    fn theta(&self) -> &FactorMatrix {
        &self.theta_snapshot
    }

    fn set_factors(&mut self, x: FactorMatrix, theta: FactorMatrix) {
        assert!(
            x.len() >= self.r.n_rows() as usize,
            "X has the wrong number of rows"
        );
        assert_eq!(
            theta.len(),
            self.r.n_cols() as usize,
            "Θ has the wrong number of rows"
        );
        assert_eq!(x.rank(), self.config.f, "X has the wrong rank");
        assert_eq!(theta.rank(), self.config.f, "Θ has the wrong rank");
        self.x_atomic = AtomicFactors::from_factor_matrix(&x);
        self.theta_atomic = AtomicFactors::from_factor_matrix(&theta);
        self.x_snapshot = x;
        self.theta_snapshot = theta;
    }

    fn attach_metrics(&mut self, metrics: Arc<TrainMetrics>) {
        self.metrics = Some(metrics);
    }

    fn metrics(&self) -> Option<&TrainMetrics> {
        self.metrics.as_deref()
    }

    fn train_rmse(&self) -> f64 {
        loss::rmse_csr(&self.x_snapshot, &self.theta_snapshot, &self.r)
    }
}

impl IncrementalEngine for SgdEngine {
    fn fold_in_lambda(&self) -> f32 {
        self.config.lambda
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::als::BaseAls;
    use crate::config::AlsConfig;
    use cumf_data::synth::SyntheticConfig;

    fn ratings() -> Csr {
        SyntheticConfig {
            m: 150,
            n: 80,
            nnz: 5000,
            rank: 4,
            noise_std: 0.05,
            ..Default::default()
        }
        .generate()
        .to_csr()
    }

    #[test]
    fn step_is_equation_4_bit_for_bit() {
        let x0 = [0.3f32, -1.25, 0.7, 2.0, -0.05];
        let t0 = [1.1f32, 0.4, -0.9, 0.25, 3.5];
        let (r, alpha, lambda) = (4.0f32, 0.03f32, 0.07f32);
        // err = r − x·θ (with the f64-accumulated dot), then both rows
        // move from their values before the step.
        let err = r - x0
            .iter()
            .zip(&t0)
            .map(|(&a, &b)| a as f64 * b as f64)
            .sum::<f64>() as f32;
        let mut want_x = x0;
        let mut want_t = t0;
        for k in 0..x0.len() {
            want_x[k] = x0[k] + alpha * (err * t0[k] - lambda * x0[k]);
            want_t[k] = t0[k] + alpha * (err * x0[k] - lambda * t0[k]);
        }
        let (mut xu, mut tv) = (x0, t0);
        step(&mut xu, &mut tv, r, alpha, lambda);
        assert_eq!(xu.map(f32::to_bits), want_x.map(f32::to_bits));
        assert_eq!(tv.map(f32::to_bits), want_t.map(f32::to_bits));
        assert_eq!(epoch_alpha(0.5, 0.9, 3), 0.5 * 0.9f32.powi(3));
    }

    #[test]
    fn atomic_roundtrip_preserves_values() {
        let m = FactorMatrix::random(7, 3, 1.0, 5);
        let a = AtomicFactors::from_factor_matrix(&m);
        assert_eq!(a.to_factor_matrix(), m);
        let mut row = vec![0.0; 3];
        a.read_row_into(4, &mut row);
        assert_eq!(row, m.vector(4));
        a.write_row(4, &[1.0, 2.0, 3.0]);
        assert_eq!(a.to_factor_matrix().vector(4), &[1.0, 2.0, 3.0]);
        assert_eq!(a.to_factor_matrix().vector(3), m.vector(3));
    }

    #[test]
    fn sgd_reduces_training_error() {
        let mut sgd = SgdReference::new(
            SgdConfig {
                f: 8,
                epochs: 15,
                ..Default::default()
            },
            ratings(),
        );
        let before = sgd.train_rmse();
        sgd.run();
        let after = sgd.train_rmse();
        assert!(
            after < before * 0.7,
            "SGD should make progress: {before} -> {after}"
        );
    }

    #[test]
    fn learning_rate_decays() {
        let mut sgd = SgdReference::new(
            SgdConfig {
                f: 4,
                epochs: 2,
                ..Default::default()
            },
            ratings(),
        );
        let a0 = sgd.epoch(0);
        let a5 = sgd.epoch(5);
        assert!(a5 < a0);
    }

    #[test]
    fn als_needs_fewer_iterations_than_sgd() {
        // §2.1/§6: ALS converges in fewer iterations than SGD — one ALS
        // iteration should beat several SGD epochs on training RMSE.
        let r = ratings();
        let mut als = BaseAls::new(
            AlsConfig {
                f: 8,
                iterations: 1,
                ..Default::default()
            },
            r.clone(),
        );
        let mut sgd = SgdReference::new(
            SgdConfig {
                f: 8,
                epochs: 3,
                ..Default::default()
            },
            r,
        );
        als.iterate();
        for e in 0..3 {
            sgd.epoch(e);
        }
        assert!(
            als.train_rmse() < sgd.train_rmse(),
            "1 ALS iteration ({}) should beat 3 SGD epochs ({})",
            als.train_rmse(),
            sgd.train_rmse()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let r = ratings();
        let mut a = SgdReference::new(
            SgdConfig {
                f: 4,
                epochs: 2,
                ..Default::default()
            },
            r.clone(),
        );
        let mut b = SgdReference::new(
            SgdConfig {
                f: 4,
                epochs: 2,
                ..Default::default()
            },
            r,
        );
        a.run();
        b.run();
        assert_eq!(a.x().max_abs_diff(b.x()), 0.0);
    }

    fn engine() -> SgdEngine {
        SgdEngine::new(
            SgdConfig {
                f: 8,
                ..Default::default()
            },
            ratings(),
        )
    }

    #[test]
    fn absorb_updates_touched_rows_and_reports_them() {
        let mut e = engine();
        let before_x = e.x().clone();
        let before_theta = e.theta().clone();
        let batch = vec![
            Entry {
                row: 3,
                col: 5,
                val: 4.0,
            },
            Entry {
                row: 1,
                col: 5,
                val: 2.0,
            },
            Entry {
                row: 3,
                col: 9,
                val: 5.0,
            },
        ];
        let touched = e.absorb(&batch);
        assert_eq!(touched, vec![1, 3]);
        for u in [1usize, 3] {
            assert_ne!(e.x().vector(u), before_x.vector(u), "user {u} must move");
        }
        assert_eq!(e.x().vector(0), before_x.vector(0), "untouched user moved");
        assert_ne!(e.theta().vector(5), before_theta.vector(5));
        assert_eq!(e.theta().vector(0), before_theta.vector(0));
    }

    #[test]
    fn absorb_grows_the_user_set_on_demand() {
        let mut e = engine();
        let trained_users = e.n_users();
        let new_user = trained_users as u32 + 7;
        let touched = e.absorb(&[Entry {
            row: new_user,
            col: 0,
            val: 5.0,
        }]);
        assert_eq!(touched, vec![new_user]);
        assert_eq!(e.n_users(), new_user as usize + 1);
        assert_eq!(e.x().len(), new_user as usize + 1);
        assert!(e
            .x()
            .vector(new_user as usize)
            .iter()
            .all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "item id out of range")]
    fn absorb_rejects_items_outside_the_catalog() {
        let mut e = engine();
        let n = e.theta().len() as u32;
        e.absorb(&[Entry {
            row: 0,
            col: n,
            val: 1.0,
        }]);
    }

    #[test]
    fn absorbed_ratings_join_later_training_sweeps() {
        // A user absorbed from the stream keeps improving on subsequent
        // sweeps because the streamed ratings were retained.
        let mut e = engine();
        let n_users = e.n_users() as u32;
        let batch: Vec<Entry> = (0..6)
            .map(|k| Entry {
                row: n_users,
                col: k * 3,
                val: 4.0,
            })
            .collect();
        e.absorb(&batch);
        let err = |e: &SgdEngine| {
            let x = e.x().vector(n_users as usize);
            batch
                .iter()
                .map(|en| {
                    let d = en.val - dot(x, e.theta().vector(en.col as usize));
                    (d * d) as f64
                })
                .sum::<f64>()
        };
        let before = err(&e);
        for _ in 0..3 {
            e.train_sweep();
        }
        let after = err(&e);
        assert!(
            after < before,
            "streamed user must keep converging: {before} -> {after}"
        );
    }
}
