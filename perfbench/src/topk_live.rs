//! `topk-live`: an open loop of reads through `TopKService` (the default
//! configuration with two workers and request tracing off), users drawn by
//! activity so repeat users hit the cache, each request asking for the
//! top 10 outside the user's training items.
//!
//! Main op: a read at 200 req/s, timed from its due time.  Side op: a read
//! at 100 req/s, the light-load rung of the rate ladder.  The ladder's
//! other rungs find `read_max_rps`: the highest rate whose p99 stays within
//! the latency limit with no growing backlog and no failed request.
//!
//! Each generator thread has one request in flight at a time, so the two
//! threads can offer at most `2 / latency` requests per second; a rung
//! beyond that shows up as generator lateness, which the latency (timed
//! from the due time) includes.

use crate::catalog::Catalog;
use crate::openloop::{
    account, read_figures, read_layers, serve_config, serve_figures, OpenLoop, ReadPhase, READ_RATE,
};
use crate::report::{median, quantile, Report};
use crate::{repeat_setup, Ctx, Outcome};
use cumf_serve::TopKService;
use std::time::Instant;

/// The light-load rung (the side op) and its length.
const SIDE_RATE: f64 = 100.0;
const SIDE_SECONDS: f64 = 5.0;
/// Rungs above the main rate, and how long each runs.
const LADDER: [f64; 3] = [300.0, 400.0, 600.0];
const LADDER_SECONDS: f64 = 2.5;
const LATENCY_LIMIT_MS: f64 = 20.0;
const GENERATORS: usize = 2;
const SAMPLE_EVERY: usize = 25;

/// Whether a ladder rung holds: p99 within the limit, no failures, and
/// the generator keeping up through the last quarter of the rung.
fn rung_holds(p: &ReadPhase) -> bool {
    let tail = &p.late_ms[p.late_ms.len() * 3 / 4..];
    p.failed == 0
        && quantile(&p.latency_ms, 0.99) <= LATENCY_LIMIT_MS
        && quantile(tail, 0.99) <= LATENCY_LIMIT_MS
}

pub fn run(ctx: &Ctx, report: &mut Report) -> Outcome {
    let ((catalog, service, parts), setup_s) = repeat_setup(ctx, || {
        let catalog = Catalog::build(ctx.seed);
        let (snap, build_s) = catalog.snapshot();
        let t0 = Instant::now();
        let service = TopKService::start(snap, serve_config(0));
        (catalog, service, [build_s, t0.elapsed().as_secs_f64()])
    });
    catalog.stamp(report);
    report.figure("serve.snapshot.build_s", parts[0], "s");
    report.figure("serve.start_s", parts[1], "s");
    report.stamp_num("read_rate", READ_RATE);
    report.stamp_num("generators", GENERATORS as f64);
    report.stamp_num("workers", 2.0);
    report.stamp_num("latency_limit_ms", LATENCY_LIMIT_MS);
    let phase = |service: &TopKService, rate: f64, seconds: f64, tracer| {
        OpenLoop {
            service,
            catalog: &catalog,
            rate,
            seconds,
            threads: GENERATORS,
            seed: ctx.seed ^ rate.to_bits(),
            sample_every: SAMPLE_EVERY,
            tracer,
        }
        .run()
    };

    if ctx.traced() {
        // Untraced half, then a fresh service with every request traced.
        let untraced = phase(&service, READ_RATE, ctx.seconds / 2.0, None);
        account(report, &catalog, "untraced", &untraced);
        drop(service);
        let (snap, _) = catalog.snapshot();
        let service = TopKService::start(snap, serve_config(1));
        let traced = phase(&service, READ_RATE, ctx.seconds / 2.0, Some(&ctx.tracer));
        account(report, &catalog, "traced", &traced);
        let mut layers = serve_figures(report, &service.metrics());
        read_layers(ctx, &traced, &mut layers);
        let base = median(&untraced.latency_ms);
        layers.insert("trace.untraced_main_p50_ms", base);
        layers.insert(
            "trace.overhead_frac",
            median(&traced.latency_ms) / base - 1.0,
        );
        layers.insert("data.generate_s", catalog.generate_s);
        layers.insert("core.als.fit_s", catalog.fit_s);
        layers.insert("serve.snapshot.build_s", parts[0]);
        return Outcome {
            setup_s,
            main_ms: traced.latency_ms,
            side_ms: Vec::new(),
            layers,
        };
    }

    let light = phase(&service, SIDE_RATE, SIDE_SECONDS, None);
    account(report, &catalog, &format!("rate{SIDE_RATE}"), &light);
    let before = service.metrics();
    let main = phase(&service, READ_RATE, ctx.seconds, None);
    account(report, &catalog, &format!("rate{READ_RATE}"), &main);
    read_figures(report, "main", &main, &service.metrics().since(&before));
    let mut max_rps = if rung_holds(&main) { READ_RATE } else { 0.0 };
    for rate in LADDER {
        let before = service.metrics();
        let rung = phase(&service, rate, LADDER_SECONDS, None);
        let name = format!("rate{rate}");
        account(report, &catalog, &name, &rung);
        read_figures(report, &name, &rung, &service.metrics().since(&before));
        // Rungs run in rising order and stop at the first that fails.
        if !rung_holds(&rung) {
            break;
        }
        if max_rps > 0.0 {
            max_rps = rate;
        }
    }
    report.figure("read_max_rps", max_rps, "1/s");
    let layers = serve_figures(report, &service.metrics());
    report.gate(service.poisoned().is_none(), || {
        "a serving worker died".to_string()
    });

    Outcome {
        setup_s,
        main_ms: main.latency_ms,
        side_ms: light.latency_ms,
        layers,
    }
}
