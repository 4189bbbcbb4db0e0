//! perfbench — the end-to-end benchmark of cumf-rs.
//!
//! ```text
//! perfbench --workload <als-train|topk-batch|topk-live|online-mixed>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload generates its inputs from `--seed`, sets up (three times,
//! reporting the median set-up time), measures for about `--seconds`, checks
//! the program's outputs, and prints a summary line (stamp, named figures,
//! per-phase op counts) followed by the result line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! the run records spans around every call into a layer and reports the
//! per-layer metrics instead.  The exit code is non-zero when any
//! correctness gate failed.  See `perfbench/README.md` for the metric
//! definitions.

mod als_train;
mod catalog;
mod online_mixed;
mod openloop;
mod report;
mod topk_batch;
mod topk_live;
mod trace;

use report::Report;
use std::collections::BTreeMap;
use std::time::Instant;
use trace::Tracer;

/// The end-to-end metrics every workload reports with `--trace 0`.  Each
/// workload has a main and a side operation (see the workload modules);
/// their tails are printed as figures but not gated, being too noisy on a
/// small shared host.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("main_p50_ms", "ms"),
    ("side_p50_ms", "ms"),
];

/// The per-layer metrics every workload reports with `--trace 1`; a layer
/// the workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("core.als.update_x_s", "s"),
    ("core.als.update_theta_s", "s"),
    ("core.als.sweep_self_s", "s"),
    ("core.als.rows_solved", "count"),
    ("train.sweeps_to_rmse", "count"),
    ("linalg.assembly_busy_s", "s"),
    ("linalg.solve_busy_s", "s"),
    ("linalg.assembly_gflops", "GFLOP/s"),
    ("linalg.solve_gflops", "GFLOP/s"),
    ("core.loss.eval_s", "s"),
    ("gpu_sim.sweep_pred_s", "s"),
    ("serve.topk.call_p50_ms", "ms"),
    ("serve.topk.call_p99_ms", "ms"),
    ("serve.topk.blocks_scored_per_query", "count"),
    ("serve.topk.pruned_block_rate", "fraction"),
    ("serve.topk.bytes_per_query", "bytes"),
    ("linalg.scan_gbps", "GB/s"),
    ("serve.recommend_p50_ms", "ms"),
    ("serve.recommend_p99_ms", "ms"),
    ("serve.batcher.queue_wait_p50_us", "us"),
    ("serve.batcher.queue_wait_p99_us", "us"),
    ("serve.batcher.coalesce_p50_us", "us"),
    ("serve.batcher.coalesce_p99_us", "us"),
    ("serve.score_p50_us", "us"),
    ("serve.score_p99_us", "us"),
    ("serve.batcher.merge_p99_us", "us"),
    ("serve.batcher.reply_p99_us", "us"),
    ("serve.batcher.mean_batch_size", "count"),
    ("serve.batcher.queue_depth_hwm", "count"),
    ("serve.stage_sum_gap_us", "us"),
    ("serve.cache.hit_rate", "fraction"),
    ("serve.snapshot.publish_p50_us", "us"),
    ("serve.snapshot.publish_p99_us", "us"),
    ("serve.snapshot.user_bytes_per_publish", "bytes"),
    ("serve.online.step_p50_ms", "ms"),
    ("serve.online.step_p99_ms", "ms"),
    ("serve.online.step_self_s", "s"),
    ("serve.online.events_per_publish", "count"),
    ("core.foldin.busy_s", "s"),
    ("data.generate_s", "s"),
    ("core.als.fit_s", "s"),
    ("serve.snapshot.build_s", "s"),
    ("gen.late_p99_ms", "ms"),
    ("data.stream.late_p99_ms", "ms"),
    ("data.stream.dropped_events", "count"),
    ("trace.spans", "count"),
    ("trace.untraced_main_p50_ms", "ms"),
    ("trace.overhead_frac", "fraction"),
];

/// The unit of a per-layer metric.
pub fn layer_unit(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// Set-up repetitions of an untraced run: at least [`SETUP_REPS`], and
/// more (up to [`SETUP_MAX_REPS`]) while they add up to less than
/// [`SETUP_MIN_S`], so a cheap set-up's median still covers a second of
/// work.  `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
pub const SETUP_MAX_REPS: usize = 25;
pub const SETUP_MIN_S: f64 = 1.0;

/// What a workload hands back: the report (figures, phases, gates) plus
/// the raw samples behind the end-to-end metrics and, when traced, the
/// per-layer values.
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub main_ms: Vec<f64>,
    pub side_ms: Vec<f64>,
    pub layers: BTreeMap<&'static str, f64>,
}

/// The benchmark invocation.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
}

impl Ctx {
    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }
}

/// Runs `setup` as often as [`SETUP_REPS`] asks (once when traced),
/// dropping each result before the next so only one copy is ever resident,
/// and returns the last result with every repetition's wall time.
pub fn repeat_setup<T>(ctx: &Ctx, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    loop {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
        let enough = times.len() >= SETUP_REPS && times.iter().sum::<f64>() >= SETUP_MIN_S;
        if ctx.traced() || enough || times.len() >= SETUP_MAX_REPS {
            break;
        }
    }
    (last.expect("at least one set-up ran"), times)
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <als-train|topk-batch|topk-live|online-mixed> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2)
}

fn parse_args() -> Ctx {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    Ctx {
        workload,
        seed,
        seconds,
        tracer: Tracer::new(trace),
    }
}

/// Peak resident set size of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Size in bytes of a CPU cache level, from sysfs (0 when unknown).
fn cache_bytes(index: u32) -> f64 {
    let path = format!("/sys/devices/system/cpu/cpu0/cache/index{index}/size");
    let Ok(text) = std::fs::read_to_string(path) else {
        return 0.0;
    };
    let text = text.trim();
    let (num, mult) = match text.strip_suffix('K') {
        Some(n) => (n, 1024.0),
        None => match text.strip_suffix('M') {
            Some(n) => (n, 1024.0 * 1024.0),
            None => (text, 1.0),
        },
    };
    num.parse::<f64>().map_or(0.0, |n| n * mult)
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unavailable".to_string())
}

/// Cumulative (steal, total) CPU ticks of the host, from `/proc/stat`.
fn cpu_ticks() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

fn main() {
    let ctx = parse_args();
    let ticks_at_start = cpu_ticks();
    let mut report = Report::default();
    report.stamp_str("workload", &ctx.workload);
    report.stamp_num("seed", ctx.seed as f64);
    report.stamp_num("seconds", ctx.seconds);
    report.stamp_str("trace", if ctx.traced() { "1" } else { "0" });
    report.stamp_str("git_rev", &git_rev());
    report.stamp_num(
        "nproc",
        std::thread::available_parallelism().map_or(0, |n| n.get()) as f64,
    );
    report.stamp_num("l2_bytes", cache_bytes(2));
    report.stamp_num("l3_bytes", cache_bytes(3));

    let outcome = match ctx.workload.as_str() {
        "als-train" => als_train::run(&ctx, &mut report),
        "topk-batch" => topk_batch::run(&ctx, &mut report),
        "topk-live" => topk_live::run(&ctx, &mut report),
        "online-mixed" => online_mixed::run(&ctx, &mut report),
        other => {
            eprintln!("unknown workload {other:?}");
            usage()
        }
    };

    if ctx.traced() {
        let spans = ctx.tracer.spans();
        let path = std::path::PathBuf::from(".perfbench")
            .join(format!("trace-{}-seed{}.jsonl", ctx.workload, ctx.seed));
        match trace::write_jsonl(&path, &spans) {
            Ok(()) => report.stamp_str("trace_file", &path.display().to_string()),
            Err(e) => report.gate(false, || format!("writing {}: {e}", path.display())),
        }
        for (name, unit) in PER_LAYER {
            let value = match name {
                "trace.spans" => spans.len() as f64,
                _ => outcome.layers.get(name).copied().unwrap_or(0.0),
            };
            report.metric(name, value, unit);
        }
    } else {
        report.stamp_num("main_samples", outcome.main_ms.len() as f64);
        report.stamp_num("side_samples", outcome.side_ms.len() as f64);
        for (name, unit) in END_TO_END {
            let value = match name {
                "setup_s" => report::median(&outcome.setup_s),
                "peak_rss_mb" => peak_rss_mb(),
                "main_p50_ms" => report::median(&outcome.main_ms),
                "side_p50_ms" => report::median(&outcome.side_ms),
                _ => unreachable!("every end-to-end metric is handled"),
            };
            report.metric(name, value, unit);
        }
        for (name, samples) in [("main", &outcome.main_ms), ("side", &outcome.side_ms)] {
            report.figure(
                &format!("{name}_p90_ms"),
                report::quantile(samples, 0.90),
                "ms",
            );
            report.figure(
                &format!("{name}_p99_ms"),
                report::quantile(samples, 0.99),
                "ms",
            );
        }
        for (i, t) in outcome.setup_s.iter().enumerate() {
            report.figure(&format!("setup_rep{i}_s"), *t, "s");
        }
    }

    report.figure(
        "failed_frac",
        report.failed() as f64 / report.attempted().max(1) as f64,
        "fraction",
    );
    // Time the hypervisor gave this machine's CPUs to other guests during
    // the run: a noisy-neighbour marker for reading outliers.
    let ticks = cpu_ticks();
    let total = ticks.1.saturating_sub(ticks_at_start.1).max(1);
    report.stamp_num(
        "cpu_steal_frac",
        ticks.0.saturating_sub(ticks_at_start.0) as f64 / total as f64,
    );
    eprint!("{}", report.table());
    println!("{}", report.summary_json());
    println!("{}", report.result_json());
    if !report.correct() {
        std::process::exit(1);
    }
}
