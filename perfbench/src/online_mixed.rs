//! `online-mixed`: reads beside an online write stream.  Two reader threads
//! send 200 req/s through `TopKService` (as in `topk-live`), while the main
//! thread drives `OnlineLoop::fold_in(..).step()` against the live service
//! over a `SyntheticMutationStream` (5% of events from new users) paced at
//! 1000 events/s by [`Paced`].
//!
//! Main op: a read, timed from its due time.  Side op: a rating event,
//! timed from its release by the paced stream to the end of the step that
//! published it.

use crate::catalog::Catalog;
use crate::openloop::{
    account, read_figures, read_layers, serve_config, serve_figures, OpenLoop, ReadPhase, READ_RATE,
};
use crate::report::{median, quantile, Report};
use crate::trace::Tracer;
use crate::{repeat_setup, Ctx, Outcome};
use cumf_core::{IncrementalEngine, TrainMetrics};
use cumf_data::stream::{
    MutationStreamConfig, RatingStream, StreamBatcher, SyntheticMutationStream,
};
use cumf_serve::{
    DeltaError, DeltaPublisher, DeltaStats, FactorSnapshot, OnlineLoop, OnlineLoopConfig,
    SnapshotDelta, TopKService,
};
use cumf_sparse::Entry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The write stream's rate.  At 5000 events/s the loop alone keeps one of
/// the two cores about two-thirds busy, and the run tips into a growing
/// backlog whenever the hypervisor takes CPU time; 1000 leaves headroom.
const EVENT_RATE: f64 = 1000.0;

/// When event `i` of a stream started at `start` is due.
fn due(start: Instant, i: usize) -> Instant {
    start + Duration::from_secs_f64(i as f64 / EVENT_RATE)
}

const NEW_USERS: u32 = 2000;
const NEW_USER_FRACTION: f64 = 0.05;
const STREAM_CAPACITY: usize = 1024;
const SAMPLE_EVERY: usize = 25;

/// Reader threads.  Each has one request in flight, so one thread could
/// offer at most `1 / latency` requests per second, about the read rate
/// itself; two keep the loop open.
const READ_THREADS: usize = 2;

/// Paces a rating stream: event `i` is released at `start + i / rate`,
/// where `start` arrives over a channel when the measured phase begins
/// (the stream ends at once if the sender goes away first).  Records the
/// instant each event was released.
struct Paced {
    inner: SyntheticMutationStream,
    start_rx: Receiver<Instant>,
    start: Option<Instant>,
    count: usize,
    released: Arc<Mutex<Vec<Instant>>>,
}

impl RatingStream for Paced {
    fn n_items(&self) -> u32 {
        self.inner.n_items()
    }

    fn next_rating(&mut self) -> Option<Entry> {
        let start = match self.start {
            Some(s) => s,
            None => *self.start.insert(self.start_rx.recv().ok()?),
        };
        let due = due(start, self.count);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let entry = self.inner.next_rating()?;
        self.count += 1;
        self.released
            .lock()
            .expect("release log poisoned")
            .push(Instant::now());
        Some(entry)
    }
}

/// Publishes through the service and records a `publish` span under the
/// current `online.step` span.
struct TracedPublisher<'a> {
    service: &'a TopKService,
    tracer: &'a Tracer,
    step: AtomicU64,
}

impl DeltaPublisher for TracedPublisher<'_> {
    fn current(&self) -> cumf_serve::sync::Arc<FactorSnapshot> {
        self.service.snapshot()
    }

    fn publish_delta(&self, delta: &SnapshotDelta) -> Result<(u64, DeltaStats), DeltaError> {
        // relaxed-ok: stored and loaded by the stepping thread only
        let parent = Some(self.step.load(Ordering::Relaxed));
        let span = self.tracer.start("publish", parent, None);
        let out = self.service.publish_delta(delta);
        self.tracer.finish(span);
        out
    }
}

/// What one mixed phase measured.
struct Mixed {
    reads: ReadPhase,
    fresh_ms: Vec<f64>,
    stream_late_ms: Vec<f64>,
    step_ms: Vec<f64>,
    events: u64,
    dropped: u64,
    publishes: u64,
    user_bytes: u64,
    fold_in: Arc<TrainMetrics>,
}

/// Builds the fold-in loop over a paced stream of `events` events.
fn build_loop<'a>(
    catalog: &Catalog,
    service: &TopKService,
    publisher: &'a dyn DeltaPublisher,
    events: usize,
    seed: u64,
    fold_in: Arc<TrainMetrics>,
) -> (OnlineLoop<'a>, Sender<Instant>, Arc<Mutex<Vec<Instant>>>) {
    let (start_tx, start_rx) = channel();
    let released = Arc::new(Mutex::new(Vec::with_capacity(events)));
    let stream = Paced {
        inner: SyntheticMutationStream::new(
            &catalog.data,
            MutationStreamConfig {
                events,
                new_users: NEW_USERS,
                new_user_fraction: NEW_USER_FRACTION,
                noise_std: 0.1,
                seed: seed ^ 0x0051_7EAD,
            },
        ),
        start_rx,
        start: None,
        count: 0,
        released: Arc::clone(&released),
    };
    let mut engine: Box<dyn IncrementalEngine> = Box::new(catalog.engine.clone());
    engine.attach_metrics(fold_in);
    let lp = OnlineLoop::fold_in(
        engine,
        &catalog.ratings,
        StreamBatcher::spawn(stream, STREAM_CAPACITY),
        publisher,
        service.metrics_handle(),
        OnlineLoopConfig::default(),
    );
    (lp, start_tx, released)
}

/// Runs reads and the write stream side by side for `seconds`; checks the
/// write side's gates under `name`.
fn mixed_phase(
    ctx: &Ctx,
    catalog: &Catalog,
    service: &TopKService,
    seconds: f64,
    traced: bool,
    report: &mut Report,
    name: &str,
) -> Mixed {
    let events = (EVENT_RATE * seconds).round() as usize;
    let fold_in = Arc::new(TrainMetrics::new());
    let traced_publisher = TracedPublisher {
        service,
        tracer: &ctx.tracer,
        step: AtomicU64::new(0),
    };
    let publisher: &dyn DeltaPublisher = if traced { &traced_publisher } else { service };
    let before = service.metrics();
    let (mut lp, start_tx, released) = build_loop(
        catalog,
        service,
        publisher,
        events,
        ctx.seed,
        Arc::clone(&fold_in),
    );
    let tracer = traced.then_some(&ctx.tracer);

    // Non-empty steps: (events, call instant, return instant).
    let mut steps: Vec<(usize, Instant, Instant)> = Vec::new();
    let (mut publishes, mut user_bytes, mut error) = (0u64, 0u64, None);
    let mut last_generation = service.snapshot().generation();
    let mut rising = true;
    let start = Instant::now();
    let reads = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            OpenLoop {
                service,
                catalog,
                rate: READ_RATE,
                seconds,
                threads: READ_THREADS,
                seed: ctx.seed ^ 0x0052_EAD5,
                sample_every: SAMPLE_EVERY,
                tracer,
            }
            .run()
        });
        start_tx
            .send(start)
            .expect("the stream waits for its start");
        loop {
            let span = tracer.and_then(|t| t.start("online.step", None, None));
            if let Some(open) = &span {
                // relaxed-ok: stored and loaded by this thread only
                traced_publisher.step.store(open.id, Ordering::Relaxed);
            }
            let t0 = Instant::now();
            let out = lp.step();
            let t1 = Instant::now();
            if let Some(t) = tracer {
                t.finish(span);
            }
            match out {
                Ok(Some(o)) if o.events > 0 => {
                    steps.push((o.events, t0, t1));
                    publishes += 1;
                    if let Some(stats) = o.stats {
                        user_bytes += stats.user_factor_bytes_copied as u64;
                    }
                    if let Some(g) = o.generation {
                        rising &= g > last_generation;
                        last_generation = g;
                    }
                }
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(e) => {
                    error = Some(e.to_string());
                    break;
                }
            }
        }
        reader.join().expect("reader thread panicked")
    });
    let applied = lp.report().events;
    drop(lp);
    let released = std::mem::take(&mut *released.lock().expect("release log poisoned"));

    // Steps drain the stream in order.  Freshness per event: its release
    // to the end of its step.  A step's busy time runs from the later of
    // the call and its first event's release, leaving out the wait for it.
    let mut fresh_ms = Vec::with_capacity(released.len());
    let mut step_ms = Vec::with_capacity(steps.len());
    let mut next = 0usize;
    for &(n, call, end) in &steps {
        let batch = &released[next.min(released.len())..(next + n).min(released.len())];
        for r in batch {
            fresh_ms.push(end.saturating_duration_since(*r).as_secs_f64() * 1e3);
        }
        let began = batch.first().map_or(call, |&r| r.max(call));
        step_ms.push(end.saturating_duration_since(began).as_secs_f64() * 1e3);
        next += n;
    }
    let stream_late_ms = released
        .iter()
        .enumerate()
        .map(|(i, r)| r.saturating_duration_since(due(start, i)).as_secs_f64() * 1e3)
        .collect();

    let recorded = service.metrics().since(&before).freshness.count();
    report.phase(
        &format!("{name}.events"),
        events as u64,
        events as u64 - applied.min(events as u64),
    );
    report.gate(error.is_none(), || {
        format!("{name}: online step failed: {error:?}")
    });
    report.gate(
        applied == released.len() as u64 && applied == events as u64,
        || {
            format!(
                "{name}: {} events released, {applied} applied, {events} in the stream",
                released.len()
            )
        },
    );
    report.gate(recorded == applied, || {
        format!("{name}: freshness recorded {recorded} events, the loop applied {applied}")
    });
    report.gate(rising, || {
        format!("{name}: published generations did not strictly increase")
    });
    account(report, catalog, &format!("{name}.reads"), &reads);

    Mixed {
        reads,
        fresh_ms,
        stream_late_ms,
        step_ms,
        events: applied,
        dropped: (released.len() as u64).saturating_sub(applied),
        publishes,
        user_bytes,
        fold_in,
    }
}

pub fn run(ctx: &Ctx, report: &mut Report) -> Outcome {
    // Set-up: catalog, snapshot, service, and the loop's construction (its
    // per-user rating history), timed on a loop over an empty stream; the
    // measured phase builds its own.
    let ((catalog, service, parts), setup_s) = repeat_setup(ctx, || {
        let catalog = Catalog::build(ctx.seed);
        let (snap, build_s) = catalog.snapshot();
        let t0 = Instant::now();
        let service = TopKService::start(snap, serve_config(u64::from(ctx.traced())));
        let t1 = Instant::now();
        let fold_in = Arc::new(TrainMetrics::new());
        let (lp, start_tx, _) = build_loop(&catalog, &service, &service, 0, ctx.seed, fold_in);
        // Without a start the stream ends, so the loop's producer can stop.
        drop(start_tx);
        drop(lp);
        let parts = [build_s, (t1 - t0).as_secs_f64(), t1.elapsed().as_secs_f64()];
        (catalog, service, parts)
    });
    catalog.stamp(report);
    report.figure("serve.snapshot.build_s", parts[0], "s");
    report.figure("serve.start_s", parts[1], "s");
    report.figure("serve.online.loop_build_s", parts[2], "s");
    report.stamp_num("read_rate", READ_RATE);
    report.stamp_num("event_rate", EVENT_RATE);
    report.stamp_num("new_user_fraction", NEW_USER_FRACTION);
    report.stamp_num("stream_capacity", STREAM_CAPACITY as f64);

    // Traced: an untraced phase on a plain service first, for the overhead
    // base; then the traced phase on the set-up service, which traces
    // every request.
    let untraced_base = ctx.traced().then(|| {
        let (snap, _) = catalog.snapshot();
        let plain = TopKService::start(snap, serve_config(0));
        let base = mixed_phase(
            ctx,
            &catalog,
            &plain,
            ctx.seconds / 2.0,
            false,
            report,
            "untraced",
        );
        median(&base.reads.latency_ms)
    });
    let seconds = if ctx.traced() {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let mixed = mixed_phase(
        ctx,
        &catalog,
        &service,
        seconds,
        ctx.traced(),
        report,
        "mixed",
    );

    let m = service.metrics();
    let per_publish = |v: u64| v as f64 / mixed.publishes.max(1) as f64;
    read_figures(report, "mixed", &mixed.reads, &m);
    report.figure("fresh_p50_ms", median(&mixed.fresh_ms), "ms");
    report.figure("fresh_p99_ms", quantile(&mixed.fresh_ms, 0.99), "ms");
    report.figure(
        "serve_freshness_p50_ms",
        m.freshness.quantile(0.5) as f64 * 1e-6,
        "ms",
    );
    report.figure(
        "online.events_per_publish",
        per_publish(mixed.events),
        "count",
    );
    report.figure("online.publishes", mixed.publishes as f64, "count");
    report.figure(
        "data.stream.late_p99_ms",
        quantile(&mixed.stream_late_ms, 0.99),
        "ms",
    );

    let mut layers = serve_figures(report, &m);
    if let Some(base) = untraced_base {
        read_layers(ctx, &mixed.reads, &mut layers);
        let spans = ctx.tracer.spans();
        let publishes = crate::trace::durations_ms(&spans, "publish");
        let step_self = crate::trace::totals_by_name(&spans)
            .get("online.step")
            .map_or(0.0, |t| t.1);
        let fold_busy = mixed.fold_in.report().fold_in.sum_ns() as f64 * 1e-9;
        layers.insert("serve.snapshot.publish_p50_us", median(&publishes) * 1e3);
        layers.insert(
            "serve.snapshot.publish_p99_us",
            quantile(&publishes, 0.99) * 1e3,
        );
        layers.insert(
            "serve.snapshot.user_bytes_per_publish",
            per_publish(mixed.user_bytes),
        );
        layers.insert("serve.online.step_p50_ms", median(&mixed.step_ms));
        layers.insert("serve.online.step_p99_ms", quantile(&mixed.step_ms, 0.99));
        layers.insert("serve.online.step_self_s", step_self);
        layers.insert("serve.online.events_per_publish", per_publish(mixed.events));
        layers.insert("core.foldin.busy_s", fold_busy);
        layers.insert(
            "data.stream.late_p99_ms",
            quantile(&mixed.stream_late_ms, 0.99),
        );
        layers.insert("data.stream.dropped_events", mixed.dropped as f64);
        layers.insert("data.generate_s", catalog.generate_s);
        layers.insert("core.als.fit_s", catalog.fit_s);
        layers.insert("serve.snapshot.build_s", parts[0]);
        layers.insert("trace.untraced_main_p50_ms", base);
        layers.insert(
            "trace.overhead_frac",
            median(&mixed.reads.latency_ms) / base - 1.0,
        );
    }

    Outcome {
        setup_s,
        main_ms: mixed.reads.latency_ms,
        side_ms: mixed.fresh_ms,
        layers,
    }
}
