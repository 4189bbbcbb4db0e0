//! `als-train`: MO-ALS fits to a target test RMSE through the public
//! `Engine` trait (the engine `Backend::SingleGpu` builds).
//!
//! Main op: one fit, timed as the summed sweep wall time until test RMSE
//! reaches the target (time-to-RMSE).  Side op: one sweep.
//!
//! The traced run first makes one untraced fit (for the tracing overhead
//! and the simulated sweep price), then one traced fit on the reference
//! `BaseAls` engine, whose `update_x`/`update_theta` run the same
//! `solve_side` numerics from the same initial factors, so each half gets
//! its own span; its test-RMSE trajectory must equal the untraced one
//! bit for bit.

use crate::report::{median, Report};
use crate::{repeat_setup, Ctx, Outcome};
use cumf_core::als::mo::{batch_solve_traffic, get_hermitian_traffic};
use cumf_core::als::{BaseAls, MoAlsEngine};
use cumf_core::config::AlsConfig;
use cumf_core::{Engine, TrainMetrics};
use cumf_data::synth::SyntheticConfig;
use cumf_data::train_test_split;
use cumf_sparse::{Csr, Entry};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

const USERS: u32 = 4000;
const ITEMS: u32 = 2000;
const RATINGS: usize = 400_000;
const TRUE_RANK: usize = 16;
const NOISE: f32 = 0.1;
const TEST_FRAC: f64 = 0.1;
const F: usize = 64;
const LAMBDA: f32 = 0.05;
const MAX_SWEEPS: usize = 8;
const TARGET_RMSE: f64 = 0.375;

fn als_config(seed: u64) -> AlsConfig {
    AlsConfig {
        f: F,
        lambda: LAMBDA,
        iterations: MAX_SWEEPS,
        seed,
        ..Default::default()
    }
}

struct Setup {
    train: Csr,
    test: Vec<Entry>,
    engine: MoAlsEngine,
    generate_s: f64,
    engine_build_s: f64,
}

fn setup(seed: u64) -> Setup {
    let t0 = Instant::now();
    let data = SyntheticConfig {
        m: USERS,
        n: ITEMS,
        nnz: RATINGS,
        rank: TRUE_RANK,
        noise_std: NOISE,
        seed,
        ..Default::default()
    }
    .generate();
    let split = train_test_split(&data.ratings, TEST_FRAC, seed ^ 0x5151);
    let generate_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let engine = MoAlsEngine::on_titan_x(als_config(seed), split.train.clone());
    Setup {
        train: split.train,
        test: split.test,
        engine,
        generate_s,
        engine_build_s: t1.elapsed().as_secs_f64(),
    }
}

/// One sweep's record.
struct Sweep {
    wall_s: f64,
    sim_s: f64,
    test_rmse: f64,
    train_rmse: f64,
}

/// Sweeps `engine` until test RMSE reaches the target or the sweep cap.
fn fit(engine: &mut dyn Engine, test: &[Entry]) -> Vec<Sweep> {
    let mut sweeps = Vec::new();
    while sweeps.len() < MAX_SWEEPS {
        let t0 = Instant::now();
        let sim_s = engine.train_sweep();
        let wall_s = t0.elapsed().as_secs_f64();
        let test_rmse = engine.rmse(test);
        let train_rmse = engine.train_rmse();
        sweeps.push(Sweep {
            wall_s,
            sim_s,
            test_rmse,
            train_rmse,
        });
        if test_rmse <= TARGET_RMSE {
            break;
        }
    }
    sweeps
}

/// Checks one fit's gates; returns its time-to-RMSE when it reached the
/// target.
fn check_fit(report: &mut Report, label: &str, sweeps: &[Sweep]) -> Option<f64> {
    for w in sweeps.windows(2) {
        report.gate(w[1].train_rmse <= w[0].train_rmse, || {
            format!(
                "{label}: train RMSE rose between sweeps ({} -> {})",
                w[0].train_rmse, w[1].train_rmse
            )
        });
    }
    let reached = sweeps.last().is_some_and(|s| s.test_rmse <= TARGET_RMSE);
    report.gate(reached, || {
        format!(
            "{label}: test RMSE {} missed the target {TARGET_RMSE} within {MAX_SWEEPS} sweeps",
            sweeps.last().map_or(f64::NAN, |s| s.test_rmse)
        )
    });
    reached.then(|| sweeps.iter().map(|s| s.wall_s).sum())
}

pub fn run(ctx: &Ctx, report: &mut Report) -> Outcome {
    let (mut s, setup_s) = repeat_setup(ctx, || setup(ctx.seed));
    let train_bytes = (s.train.footprint_words() as f64) * 4.0 * 2.0
        + (USERS as f64 + ITEMS as f64) * F as f64 * 4.0;
    report.stamp_num("users", USERS as f64);
    report.stamp_num("items", ITEMS as f64);
    report.stamp_num("train_ratings", s.train.nnz() as f64);
    report.stamp_num("test_ratings", s.test.len() as f64);
    report.stamp_num("true_rank", TRUE_RANK as f64);
    report.stamp_num("noise", NOISE as f64);
    report.stamp_num("f", F as f64);
    report.stamp_num("lambda", LAMBDA as f64);
    report.stamp_num("max_sweeps", MAX_SWEEPS as f64);
    report.stamp_num("target_rmse", TARGET_RMSE);
    report.stamp_num("train_working_set_bytes", train_bytes);
    report.figure("data.generate_s", s.generate_s, "s");
    report.figure("core.als.engine_build_s", s.engine_build_s, "s");

    let initial = (s.engine.x().clone(), s.engine.theta().clone());
    let mut fits: Vec<Vec<Sweep>> = Vec::new();
    let mut times_to_rmse = Vec::new();
    let started = Instant::now();
    // Whole fits until the run time is spent (one when traced: the traced
    // fit follows).
    loop {
        s.engine.set_factors(initial.0.clone(), initial.1.clone());
        let sweeps = fit(&mut s.engine, &s.test);
        if let Some(t) = check_fit(report, &format!("fit {}", fits.len()), &sweeps) {
            times_to_rmse.push(t * 1e3);
        }
        fits.push(sweeps);
        if ctx.traced() || started.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
    }
    for f in &fits[1..] {
        let same = f.len() == fits[0].len()
            && f.iter()
                .zip(&fits[0])
                .all(|(a, b)| a.test_rmse == b.test_rmse);
        report.gate(same, || {
            "repeated fits from the same start diverged".to_string()
        });
    }
    report.phase(
        "fit",
        fits.len() as u64,
        (fits.len() - times_to_rmse.len()) as u64,
    );

    let sweep_ms: Vec<f64> = fits.iter().flatten().map(|w| w.wall_s * 1e3).collect();
    let last = fits.last().expect("at least one fit ran");
    report.figure("train_sweep_s", median(&sweep_ms) * 1e-3, "s");
    report.figure("train_time_to_rmse_s", median(&times_to_rmse) * 1e-3, "s");
    report.figure(
        "train_test_rmse",
        last.last().map_or(f64::NAN, |w| w.test_rmse),
        "rmse",
    );
    report.figure("train.sweeps_to_rmse", last.len() as f64, "count");
    report.figure("gpu_sim.sweep_pred_s", last[0].sim_s, "s");
    for (i, w) in last.iter().enumerate() {
        report.figure(&format!("sweep{}_test_rmse", i + 1), w.test_rmse, "rmse");
    }

    let mut layers = BTreeMap::new();
    if ctx.traced() {
        let traced_ms;
        (layers, traced_ms) = traced_fit(ctx, report, &s, &initial, last);
        let untraced_ms = median(&times_to_rmse);
        layers.insert("data.generate_s", s.generate_s);
        layers.insert("gpu_sim.sweep_pred_s", last[0].sim_s);
        layers.insert("trace.untraced_main_p50_ms", untraced_ms);
        layers.insert("trace.overhead_frac", traced_ms / untraced_ms - 1.0);
    }

    Outcome {
        setup_s,
        main_ms: times_to_rmse,
        side_ms: sweep_ms,
        layers,
    }
}

/// The traced fit on `BaseAls` with spans around every call and a
/// `TrainMetrics` attached; returns the per-layer values and the fit's
/// time-to-RMSE in milliseconds.
fn traced_fit(
    ctx: &Ctx,
    report: &mut Report,
    s: &Setup,
    initial: &(cumf_linalg::FactorMatrix, cumf_linalg::FactorMatrix),
    untraced: &[Sweep],
) -> (BTreeMap<&'static str, f64>, f64) {
    let tracer = &ctx.tracer;
    let mut engine = BaseAls::new(als_config(ctx.seed), s.train.clone());
    engine.set_factors(initial.0.clone(), initial.1.clone());
    let metrics = Arc::new(TrainMetrics::new());
    engine.attach_metrics(Arc::clone(&metrics));

    let mut trajectory = Vec::new();
    let mut sweep_wall = Vec::new();
    tracer.span("fit", None, |fit| {
        while trajectory.len() < MAX_SWEEPS {
            let t0 = Instant::now();
            tracer.span("train_sweep", fit, |sweep| {
                tracer.span("update_x", sweep, |_| engine.update_x());
                tracer.span("update_theta", sweep, |_| engine.update_theta());
            });
            sweep_wall.push(t0.elapsed().as_secs_f64());
            let test_rmse = tracer.span("rmse_test", fit, |_| Engine::rmse(&engine, &s.test));
            tracer.span("rmse_train", fit, |_| Engine::train_rmse(&engine));
            trajectory.push(test_rmse);
            if test_rmse <= TARGET_RMSE {
                break;
            }
        }
    });
    let same = trajectory.len() == untraced.len()
        && trajectory
            .iter()
            .zip(untraced)
            .all(|(a, b)| *a == b.test_rmse);
    report.gate(same, || {
        "traced BaseAls fit diverged from the untraced MO-ALS fit".to_string()
    });

    let spans = tracer.spans();
    let totals = crate::trace::totals_by_name(&spans);
    let total = |name: &str| totals.get(name).map_or(0.0, |t| t.0);
    let self_of = |name: &str| totals.get(name).map_or(0.0, |t| t.1);
    let train = metrics.report();
    let sweeps = trajectory.len() as f64;
    let (m, n, nnz) = (
        s.train.n_rows() as f64,
        s.train.n_cols() as f64,
        s.train.nnz() as f64,
    );
    let opts = als_config(ctx.seed).memory_opt;
    let f = F as f64;
    let assembly_flops = sweeps
        * (get_hermitian_traffic(m, nnz, n, f, &opts).flops
            + get_hermitian_traffic(n, nnz, m, f, &opts).flops);
    let solve_flops = sweeps * (batch_solve_traffic(m, f).flops + batch_solve_traffic(n, f).flops);
    let assembly_busy = train.assembly.sum_ns() as f64 * 1e-9;
    let solve_busy = train.solve.sum_ns() as f64 * 1e-9;
    let sweep_total = total("train_sweep");
    let halves = total("update_x") + total("update_theta");
    report.figure("trace.sweep_span_s", sweep_total, "s");
    report.figure("trace.sweep_halves_s", halves, "s");
    report.figure(
        "trace.sweep_unaccounted_frac",
        (sweep_total - halves) / sweep_total.max(f64::MIN_POSITIVE),
        "fraction",
    );
    report.figure(
        "trace.solve_side_recorded_s",
        train.solve_side.sum_ns() as f64 * 1e-9,
        "s",
    );

    let mut layers = BTreeMap::new();
    layers.insert("core.als.update_x_s", total("update_x"));
    layers.insert("core.als.update_theta_s", total("update_theta"));
    layers.insert("core.als.sweep_self_s", self_of("train_sweep"));
    layers.insert("core.als.rows_solved", train.rows_solved as f64);
    layers.insert("train.sweeps_to_rmse", sweeps);
    layers.insert("linalg.assembly_busy_s", assembly_busy);
    layers.insert("linalg.solve_busy_s", solve_busy);
    layers.insert(
        "linalg.assembly_gflops",
        assembly_flops / assembly_busy.max(f64::MIN_POSITIVE) * 1e-9,
    );
    layers.insert(
        "linalg.solve_gflops",
        solve_flops / solve_busy.max(f64::MIN_POSITIVE) * 1e-9,
    );
    layers.insert("core.loss.eval_s", total("rmse_test") + total("rmse_train"));
    (layers, sweep_wall.iter().sum::<f64>() * 1e3)
}
