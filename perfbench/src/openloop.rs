//! The open-loop read generator of the live workloads.
//!
//! Request `i` is due at `start + i / rate`, whatever happened to earlier
//! requests; generator thread `j` of `threads` sends the requests with
//! `i % threads == j`, each as soon as it is due.  Latency is timed from
//! the due time, so a stall also charges the requests queued behind it,
//! and the generator's own lateness (send instant minus due time) is
//! reported beside it.  A request that fails, or whose response is not
//! `k` items outside the user's training items, is counted failed.
//!
//! Also here: the service configuration and the read-phase and serving
//! figures that `topk-live` and `online-mixed` share.

use crate::catalog::{self, ActivitySampler, Catalog, K};
use crate::report::{median, quantile, Report};
use crate::trace::Tracer;
use crate::Ctx;
use cumf_serve::{FactorSnapshot, MetricsReport, ServeConfig, Stage, TopKService};
use rand::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The read rate of the main op of both live workloads.
pub const READ_RATE: f64 = 200.0;

/// The service configuration of both live workloads: the defaults with two
/// scorer workers.
pub fn serve_config(trace_sample: u64) -> ServeConfig {
    ServeConfig {
        workers: 2,
        trace_sample,
        ..Default::default()
    }
}

/// A response kept for the after-run check against `TopKIndex`, with the
/// snapshots published just before the request and just after its reply.
pub struct Sampled {
    pub user: u32,
    pub response: Vec<(u32, f32)>,
    pub before: Arc<FactorSnapshot>,
    pub after: Arc<FactorSnapshot>,
}

/// What one fixed-rate phase measured.
#[derive(Default)]
pub struct ReadPhase {
    pub latency_ms: Vec<f64>,
    pub late_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub sampled: Vec<Sampled>,
}

impl ReadPhase {
    fn merge(&mut self, other: ReadPhase) {
        self.latency_ms.extend(other.latency_ms);
        self.late_ms.extend(other.late_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.sampled.extend(other.sampled);
    }
}

/// One open-loop phase against `service`.
pub struct OpenLoop<'a> {
    pub service: &'a TopKService,
    pub catalog: &'a Catalog,
    pub rate: f64,
    pub seconds: f64,
    pub threads: usize,
    pub seed: u64,
    /// Keep every `sample_every`-th response for the after-run check.
    pub sample_every: usize,
    /// Record a `recommend` span per request.
    pub tracer: Option<&'a Tracer>,
}

impl OpenLoop<'_> {
    pub fn run(&self) -> ReadPhase {
        let n = (self.rate * self.seconds).round().max(1.0) as usize;
        let sampler = ActivitySampler::new(&self.catalog.ratings);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let users: Vec<u32> = (0..n).map(|_| sampler.sample(&mut rng)).collect();
        let start = Instant::now() + Duration::from_millis(5);
        let mut phase = ReadPhase::default();
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..self.threads)
                .map(|j| {
                    let users = &users;
                    scope.spawn(move || self.generate(users, j, start))
                })
                .collect();
            for w in workers {
                phase.merge(w.join().expect("read generator thread panicked"));
            }
        });
        phase
    }

    fn generate(&self, users: &[u32], j: usize, start: Instant) -> ReadPhase {
        let client = self.service.client();
        let mut out = ReadPhase::default();
        let period = 1.0 / self.rate;
        for i in (j..users.len()).step_by(self.threads) {
            let due = start + Duration::from_secs_f64(i as f64 * period);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let user = users[i];
            let exclude = self.catalog.seen(user);
            let sample = self.sample_every > 0 && i % self.sample_every == 0;
            let before = sample.then(|| self.service.snapshot());
            let sent = Instant::now();
            let span = self
                .tracer
                .and_then(|t| t.start("recommend", None, Some(i as u64)));
            let result = client.recommend(user, K, exclude);
            if let Some(t) = self.tracer {
                t.finish(span);
            }
            let done = Instant::now();
            out.attempted += 1;
            out.late_ms
                .push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
            out.latency_ms
                .push(done.saturating_duration_since(due).as_secs_f64() * 1e3);
            match result {
                Ok(items) if catalog::response_ok(&items, K, exclude) => {
                    if let Some(before) = before {
                        out.sampled.push(Sampled {
                            user,
                            response: items,
                            before,
                            after: self.service.snapshot(),
                        });
                    }
                }
                _ => out.failed += 1,
            }
        }
        out
    }
}

/// Checks the kept responses against `TopKIndex` on the snapshot that
/// served them.  A response is checkable when the user's factors are the
/// same in the snapshots before and after it (item factors never change
/// under these workloads), so every generation that could have served it
/// gives the same answer.  Returns (checked, mismatched, skipped).
fn check_samples(sampled: &[Sampled], catalog: &Catalog) -> (u64, u64, u64) {
    use cumf_linalg::topk::DEFAULT_ITEM_BLOCK;
    use cumf_serve::{Query, ScoreKind, TopKIndex};
    let (mut checked, mut mismatched, mut skipped) = (0, 0, 0);
    for s in sampled {
        let same_user = s.before.user_vector(s.user) == s.after.user_vector(s.user)
            && s.before.n_items() == s.after.n_items();
        if !same_user {
            skipped += 1;
            continue;
        }
        let index = TopKIndex::new(Arc::clone(&s.after), DEFAULT_ITEM_BLOCK, ScoreKind::Dot);
        let expect = index.query_batch(&[Query {
            user: s.user,
            k: K,
            exclude: catalog.seen(s.user).to_vec(),
        }]);
        checked += 1;
        let equal = expect[0].len() == s.response.len()
            && expect[0]
                .iter()
                .zip(&s.response)
                .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits());
        if !equal {
            mismatched += 1;
        }
    }
    (checked, mismatched, skipped)
}

/// Reports a read phase's op counts and checks its kept responses.
pub fn account(report: &mut Report, catalog: &Catalog, name: &str, p: &ReadPhase) {
    report.phase(name, p.attempted, p.failed);
    let (checked, mismatched, skipped) = check_samples(&p.sampled, catalog);
    report.gate(mismatched == 0, || {
        format!("{name}: {mismatched} of {checked} kept responses differ from TopKIndex")
    });
    report.gate(checked > 0 || p.sampled.is_empty(), || {
        format!("{name}: none of {skipped} kept responses could be checked")
    });
    report.figure(
        &format!("{name}.checked_responses"),
        checked as f64,
        "count",
    );
    report.figure(
        &format!("{name}.unchecked_responses"),
        skipped as f64,
        "count",
    );
}

/// The per-layer serving figures of one service's lifetime.
fn serve_layers(m: &MetricsReport, layers: &mut BTreeMap<&'static str, f64>) {
    let us = |ns: u64| ns as f64 * 1e-3;
    let stage = |s: Stage, p: f64| us(m.stage(s).quantile(p));
    layers.insert(
        "serve.batcher.queue_wait_p50_us",
        stage(Stage::QueueWait, 0.5),
    );
    layers.insert(
        "serve.batcher.queue_wait_p99_us",
        stage(Stage::QueueWait, 0.99),
    );
    layers.insert("serve.batcher.coalesce_p50_us", stage(Stage::Coalesce, 0.5));
    layers.insert(
        "serve.batcher.coalesce_p99_us",
        stage(Stage::Coalesce, 0.99),
    );
    layers.insert("serve.score_p50_us", stage(Stage::Score, 0.5));
    layers.insert("serve.score_p99_us", stage(Stage::Score, 0.99));
    layers.insert("serve.batcher.merge_p99_us", stage(Stage::Merge, 0.99));
    layers.insert("serve.batcher.reply_p99_us", stage(Stage::Reply, 0.99));
    layers.insert("serve.batcher.mean_batch_size", m.mean_batch_size);
    layers.insert(
        "serve.batcher.queue_depth_hwm",
        m.queue_depth_high_water as f64,
    );
    layers.insert("serve.cache.hit_rate", m.cache_hit_rate);
    let stage_sum: u64 = Stage::ALL.iter().map(|&s| m.stage(s).sum_ns()).sum();
    let gap = stage_sum.abs_diff(m.request_e2e.sum_ns());
    layers.insert("serve.stage_sum_gap_us", us(gap));
    let visited = (m.blocks_scored + m.blocks_pruned + m.blocks_terminated) as f64;
    let scored = m.cache_misses.max(1) as f64;
    layers.insert(
        "serve.topk.blocks_scored_per_query",
        m.blocks_scored as f64 / scored,
    );
    layers.insert(
        "serve.topk.pruned_block_rate",
        m.blocks_pruned as f64 / visited.max(1.0),
    );
    layers.insert(
        "serve.topk.bytes_per_query",
        m.bytes_scanned as f64 / scored,
    );
}

/// The serving layers' figures over a service's lifetime, printed and
/// returned.  The five service stages share boundary timestamps, so their
/// sums must add up to the request end-to-end sum exactly.
pub fn serve_figures(report: &mut Report, m: &MetricsReport) -> BTreeMap<&'static str, f64> {
    let mut layers = BTreeMap::new();
    serve_layers(m, &mut layers);
    for (name, value) in &layers {
        report.figure(name, *value, crate::layer_unit(name));
    }
    let gap = layers["serve.stage_sum_gap_us"];
    report.gate(gap == 0.0, || {
        format!("service stage sums miss the request e2e sum by {gap} us")
    });
    layers
}

/// Per-layer figures of a traced read phase: the `recommend` spans and
/// the generator lateness.
pub fn read_layers(ctx: &Ctx, p: &ReadPhase, layers: &mut BTreeMap<&'static str, f64>) {
    let spans = ctx.tracer.spans();
    let rec = crate::trace::durations_ms(&spans, "recommend");
    layers.insert("serve.recommend_p50_ms", median(&rec));
    layers.insert("serve.recommend_p99_ms", quantile(&rec, 0.99));
    layers.insert("gen.late_p99_ms", quantile(&p.late_ms, 0.99));
}

/// Read-phase figures every run reports.
pub fn read_figures(report: &mut Report, name: &str, p: &ReadPhase, m: &MetricsReport) {
    report.figure(&format!("{name}.read_p50_ms"), median(&p.latency_ms), "ms");
    report.figure(
        &format!("{name}.read_p99_ms"),
        quantile(&p.latency_ms, 0.99),
        "ms",
    );
    report.figure(
        &format!("{name}.gen_late_p99_ms"),
        quantile(&p.late_ms, 0.99),
        "ms",
    );
    report.figure(
        &format!("{name}.cache_hit_rate"),
        m.cache_hit_rate,
        "fraction",
    );
    report.figure(
        &format!("{name}.mean_batch_size"),
        m.mean_batch_size,
        "count",
    );
}
