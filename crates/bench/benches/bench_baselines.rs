//! CPU baseline benchmarks: one epoch/iteration of every baseline solver on
//! the same workload — the wall-clock companion of the CPU curves in
//! Figures 6 and 10, and a direct libMF-vs-NOMAD-vs-ALS progress-per-second
//! comparison on the host.

use criterion::{criterion_group, criterion_main, Criterion};
use cumf_baselines::ccd::CcdConfig;
use cumf_baselines::libmf::LibMfConfig;
use cumf_baselines::nomad::NomadConfig;
use cumf_baselines::pals::PalsConfig;
use cumf_baselines::spark_als::SparkAlsConfig;
use cumf_baselines::{CcdPlusPlus, Engine, LibMfSgd, NomadSgd, Pals, SparkAlsStyle};
use cumf_core::sgd::{SgdConfig, SgdEngine};
use cumf_data::synth::SyntheticConfig;
use cumf_sparse::Csr;
use std::hint::black_box;

fn ratings() -> Csr {
    SyntheticConfig {
        m: 3_000,
        n: 800,
        nnz: 120_000,
        rank: 8,
        seed: 9,
        ..Default::default()
    }
    .generate()
    .to_csr()
}

fn bench_sgd_baselines(c: &mut Criterion) {
    let r = ratings();
    let mut group = c.benchmark_group("fig6_cpu_baselines_epoch");
    group.sample_size(10);
    group.bench_function("libmf_blocked_sgd", |b| {
        b.iter(|| {
            let mut s = LibMfSgd::new(
                LibMfConfig {
                    f: 32,
                    threads: 4,
                    ..Default::default()
                },
                &r,
            );
            s.train_sweep();
            black_box(s.x().data()[0]);
        });
    });
    // HOGWILD! is the core `SgdEngine`: lock-free epochs over atomic rows.
    group.bench_function("hogwild_sgd", |b| {
        b.iter(|| {
            let mut s = SgdEngine::new(
                SgdConfig {
                    f: 32,
                    ..Default::default()
                },
                r.clone(),
            );
            s.train_sweep();
            black_box(s.x().data()[0]);
        });
    });
    group.bench_function("nomad_async_sgd", |b| {
        b.iter(|| {
            let mut s = NomadSgd::new(
                NomadConfig {
                    f: 32,
                    workers: 4,
                    ..Default::default()
                },
                &r,
            );
            s.train_sweep();
            black_box(s.x().data()[0]);
        });
    });
    group.finish();
}

fn bench_als_baselines(c: &mut Criterion) {
    let r = ratings();
    let mut group = c.benchmark_group("fig10_als_baselines_iteration");
    group.sample_size(10);
    group.bench_function("pals_full_replication", |b| {
        b.iter(|| {
            let mut s = Pals::new(
                PalsConfig {
                    f: 32,
                    workers: 4,
                    ..Default::default()
                },
                &r,
            );
            s.train_sweep();
            black_box(s.x().data()[0]);
        });
    });
    group.bench_function("spark_als_partial_replication", |b| {
        b.iter(|| {
            let mut s = SparkAlsStyle::new(
                SparkAlsConfig {
                    f: 32,
                    partitions: 4,
                    ..Default::default()
                },
                &r,
            );
            s.train_sweep();
            black_box(s.last_shuffle().bytes_shipped);
        });
    });
    group.bench_function("ccd_plus_plus_sweep", |b| {
        b.iter(|| {
            let mut s = CcdPlusPlus::new(
                CcdConfig {
                    f: 32,
                    ..Default::default()
                },
                &r,
            );
            s.train_sweep();
            black_box(s.residual_rmse());
        });
    });
    group.finish();
}

criterion_group!(baselines, bench_sgd_baselines, bench_als_baselines);
criterion_main!(baselines);
