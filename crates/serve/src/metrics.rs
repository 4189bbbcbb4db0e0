//! Lock-free serving metrics with per-stage latency histograms.
//!
//! Counters a production retrieval tier exports: request/response counts,
//! cache hit rate, a power-of-two micro-batch-size histogram (how well the
//! batcher coalesces), snapshot swaps — plus full [`cumf_obs::Histogram`]
//! latency distributions for every pipeline [`Stage`] a request passes
//! through and for the end-to-end request latency itself.
//!
//! Every metric is declared once, in the [`cumf_obs::metric_set!`] block
//! below: one line gives its field, export name, help text and kind, and
//! the sink, [`MetricsReport`], `report()`, `since()`, `exporter()` and the
//! percentile table follow from it.  Hot paths record on the declared cell
//! directly (`metrics.requests.inc()`), wait-free; [`ServeMetrics::report`]
//! takes a coherent-enough snapshot for dashboards/tests.
//!
//! ## Stage partition
//!
//! The batcher stamps each request's journey so that, per request,
//!
//! ```text
//! e2e = queue_wait + coalesce + score + merge + reply    (exactly)
//! ```
//!
//! because adjacent stages share their boundary timestamps.  The serving
//! observability test pins this: the sum of stage means equals the e2e
//! mean up to float rounding.
//!
//! ## Windowed reports
//!
//! Cumulative maxima never reset, so a dashboard polling
//! [`report`](ServeMetrics::report) could never see a spike clear.
//! [`ServeMetrics::window_report`] returns both the **cumulative** report
//! and the **window** since the previous `window_report` call, diffed
//! bucket-by-bucket via [`MetricsReport::since`].

use crate::sync::Mutex;
use cumf_linalg::PruneStats;
use std::time::Duration;

/// Labels of the micro-batch-size buckets (`1, 2–3, 4–7, …, ≥128`) in
/// their `serve_batch_size_<label>` export names.
const BATCH_SIZE_LABELS: [&str; BATCH_SIZE_BUCKETS] = [
    "1", "2to3", "4to7", "8to15", "16to31", "32to63", "64to127", "128up",
];

/// Number of micro-batch-size buckets.
pub const BATCH_SIZE_BUCKETS: usize = 8;

/// The pipeline stages every served request passes through, in order.
/// Adjacent stages share boundary timestamps, so per request the stage
/// durations sum exactly to the end-to-end latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Enqueue into the batcher channel → popped by a worker.
    QueueWait = 0,
    /// Popped → the micro-batch is sealed (coalescing window).
    Coalesce = 1,
    /// Batch sealed → all top-k scoring done (cache lookups included).
    Score = 2,
    /// Scoring done → per-request results distributed to reply slots.
    Merge = 3,
    /// Results distributed → this request's reply handed to the channel.
    Reply = 4,
}

/// Number of pipeline stages.
pub const STAGES: usize = 5;

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; STAGES] = [
        Stage::QueueWait,
        Stage::Coalesce,
        Stage::Score,
        Stage::Merge,
        Stage::Reply,
    ];

    /// Stable snake_case names, indexed by `Stage as usize` (used in
    /// exporter keys, table rows and trace stages).
    const NAMES: [&'static str; STAGES] = ["queue_wait", "coalesce", "score", "merge", "reply"];

    /// Stable snake_case name (used in exporter keys and trace stages).
    pub fn name(self) -> &'static str {
        Self::NAMES[self as usize]
    }
}

cumf_obs::metric_set! {
    /// Shared, lock-free serving counters and latency histograms.
    pub struct ServeMetrics {
        /// Baseline of the previous `window_report` call.
        window_baseline: Mutex<Option<MetricsReport>>,
    }
    /// Read-side copy of [`ServeMetrics`].
    pub struct MetricsReport;
    metrics {
        /// Requests accepted by the batcher.
        requests: counter("serve_requests", "requests accepted by the batcher"),
        /// Replies delivered.
        responses: counter("serve_responses", "replies delivered"),
        /// Results served from the cache.
        cache_hits: counter("serve_cache_hits", "results served from cache"),
        /// Results scored against a snapshot.
        cache_misses: counter("serve_cache_misses", "results scored"),
        /// Coalesced micro-batches scored.
        batches: counter("serve_batches", "micro-batches scored"),
        /// Total requests across all micro-batches.
        batch_items: counter("serve_batch_items", "requests across all micro-batches"),
        /// Micro-batches per size bucket (`1, 2–3, 4–7, …, ≥128`).
        batch_size_hist: counter[BATCH_SIZE_LABELS]("serve_batch_size_{}", "micro-batches of {} requests"),
        /// Most requests ever simultaneously queued in the batcher channel
        /// (the cell also holds the current depth).
        queue_depth_high_water: high_water("serve_queue_depth_high_water", "most requests ever simultaneously queued"),
        /// Snapshot generations published.
        snapshot_swaps: counter("serve_snapshot_swaps", "snapshot generations published"),
        /// Publications through the incremental delta path (a subset of
        /// `snapshot_swaps`).
        delta_publishes: counter("serve_delta_publishes", "publications through the delta path"),
        /// Item-segment compaction republishes (a subset of `snapshot_swaps`).
        item_compactions: counter("serve_item_compactions", "item-segment compaction republishes"),
        /// Scoring panics caught in workers (0 in a healthy service).
        worker_panics: counter("serve_worker_panics", "scoring panics caught"),
        /// Panicked workers restarted within the panic budget
        /// (`worker_panics - worker_restarts` workers died for good).
        worker_restarts: counter("serve_worker_restarts", "panicked workers restarted"),
        /// Item blocks streamed and scored by the blocked scorer.
        blocks_scored: counter("serve_blocks_scored", "item blocks streamed and scored"),
        /// Item blocks skipped whole on the Cauchy–Schwarz norm bound: an
        /// **exact** decision that never changes results.
        blocks_pruned: counter("serve_blocks_pruned", "item blocks skipped exactly"),
        /// Item blocks skipped by approximate early termination (epsilon
        /// slack or block budget), counted apart from `blocks_pruned` so the
        /// exact-pruning rate stays honest.
        blocks_terminated: counter("serve_blocks_terminated", "item blocks skipped approximately"),
        /// Requests scored (or served from cache) under an approximate policy.
        approx_requests: counter("serve_approx_requests", "requests served under an approximate policy"),
        /// Bytes streamed by the blocked scorer: encoded slab bytes (+ scale
        /// tables) for quantized segments, raw f32 bytes for exact ones, plus
        /// the exact rows the rerank re-reads.  The bytes/query numerator.
        bytes_scanned: counter("serve_bytes_scanned", "bytes streamed by the blocked scorer (encoded + rerank rows)"),
        /// Candidates rescored against retained exact f32 rows by the rerank.
        rerank_candidates: counter("serve_rerank_candidates", "candidates rescored against exact f32 rows"),
        /// Per-request latency of each pipeline stage, indexed by
        /// `Stage as usize` (see [`MetricsReport::stage`]).
        stages: histogram[Stage::NAMES]("serve_stage_{}", "per-request {} stage latency"),
        /// Per-request end-to-end latency (enqueue → reply sent).
        request_e2e: histogram("serve_request_e2e", "per-request end-to-end latency (enqueue to reply)"),
        /// Per-batch scoring wall time (exact sum/max live inside).
        batch_latency: histogram("serve_batch_latency", "per-micro-batch scoring wall time"),
        /// Publisher-side snapshot/delta publish latency (build + swap, not
        /// reader visibility lag).
        publish_latency: histogram("serve_delta_publish", "publisher-side snapshot/delta publish latency"),
        /// A rating's stream-ingest instant → the first snapshot publish
        /// reflecting it (recorded by [`crate::online::OnlineLoop`]); the
        /// online loop's end-to-end staleness bound.
        freshness: histogram("serve_freshness", "rating ingest to first reflecting snapshot publish"),
        /// Per-batch exact-f32 rerank pass over quantized-scan candidates,
        /// inside the [`Stage::Score`] span (recorded only for batches that
        /// actually reranked).
        rerank: histogram("serve_rerank", "per-batch exact-f32 rerank pass latency (inside Score)"),
    }
    derived(derive_rates) {
        /// `hits / (hits + misses)`.
        cache_hit_rate: f64 => gauge("serve_cache_hit_rate", "hits / (hits + misses)"),
        /// Mean requests per micro-batch.
        mean_batch_size: f64 => gauge("serve_mean_batch_size", "mean requests per micro-batch"),
        /// Mean scoring latency per micro-batch (exact — from the
        /// histogram's exact sum).
        mean_batch_latency: Duration,
        /// Worst scoring latency of any micro-batch (exact in a cumulative
        /// report; bucket-bounded in a window).
        max_batch_latency: Duration,
    }
}

/// `num / den`, or `0.0` when `den` is zero.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Computes the derived fields of a report, cumulative or windowed, from
/// its own counts.
fn derive_rates(r: &mut MetricsReport) {
    r.cache_hit_rate = ratio(r.cache_hits, r.cache_hits + r.cache_misses);
    r.mean_batch_size = ratio(r.batch_items, r.batches);
    let mean_ns = r.batch_latency.sum_ns().checked_div(r.batches).unwrap_or(0);
    r.mean_batch_latency = Duration::from_nanos(mean_ns);
    r.max_batch_latency = Duration::from_nanos(r.batch_latency.max_ns());
}

impl ServeMetrics {
    /// Records one coalesced micro-batch of `size` requests scored in
    /// `latency`.
    pub fn record_batch(&self, size: usize, latency: Duration) {
        self.batches.inc();
        self.batch_items.add(size as u64);
        let bucket = (usize::BITS - 1)
            .saturating_sub(size.max(1).leading_zeros())
            .min(BATCH_SIZE_BUCKETS as u32 - 1) as usize;
        self.batch_size_hist[bucket].inc();
        self.batch_latency.record(latency);
    }

    /// Records one request's time in `stage`, in nanoseconds.
    pub fn record_stage_ns(&self, stage: Stage, ns: u64) {
        self.stages[stage as usize].record_ns(ns);
    }

    /// Records a request entering the batcher queue.  Call **before** the
    /// channel send: the worker's matching [`record_queue_exit`] can then
    /// only observe a depth its own message contributed to, so the gauge
    /// never underflows.
    ///
    /// [`record_queue_exit`]: ServeMetrics::record_queue_exit
    pub fn record_queue_enter(&self) {
        self.queue_depth_high_water.enter();
    }

    /// Records a request leaving the batcher queue (popped by a worker, or
    /// un-counts a failed send).
    pub fn record_queue_exit(&self) {
        self.queue_depth_high_water.exit();
    }

    /// Requests currently queued (an instantaneous gauge).
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth_high_water.level()
    }

    /// Records one batch's block-scan outcome: how many item blocks the
    /// scorer streamed, skipped exactly on the norm bound, and skipped by
    /// approximate early termination, plus the bytes it streamed and the
    /// candidates it reranked.  Keeping the three block counts separate is
    /// what keeps [`MetricsReport::pruned_block_rate`] truthful when exact
    /// and approximate traffic mix.
    pub fn record_pruning(&self, stats: &PruneStats) {
        self.blocks_scored.add(stats.blocks_scored);
        self.blocks_pruned.add(stats.blocks_pruned);
        self.blocks_terminated.add(stats.blocks_terminated);
        self.bytes_scanned.add(stats.bytes_scanned);
        self.rerank_candidates.add(stats.rerank_candidates);
    }

    /// Takes a cumulative report **and** the window since the previous
    /// `window_report` call (the whole history on the first call).  This is
    /// what a periodic poller should use: cumulative maxima never reset, so
    /// only the window shows a latency spike clearing.
    pub fn window_report(&self) -> WindowedReport {
        let cumulative = self.report();
        let mut baseline = self
            .window_baseline
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        let window = match baseline.as_ref() {
            Some(prev) => cumulative.since(prev),
            None => cumulative.clone(),
        };
        *baseline = Some(cumulative.clone());
        WindowedReport { window, cumulative }
    }
}

/// A paired since-last-poll and since-startup report from
/// [`ServeMetrics::window_report`].
#[derive(Debug, Clone)]
pub struct WindowedReport {
    /// Activity since the previous `window_report` call.
    pub window: MetricsReport,
    /// Activity since startup.
    pub cumulative: MetricsReport,
}

impl MetricsReport {
    /// The latency distribution of one pipeline stage.
    pub fn stage(&self, stage: Stage) -> &cumf_obs::HistogramSnapshot {
        &self.stages[stage as usize]
    }

    /// Fraction of visited item blocks skipped by **exact** threshold
    /// pruning (`0.0` when nothing was scored).  Terminated blocks widen
    /// the denominator but never the numerator.
    pub fn pruned_block_rate(&self) -> f64 {
        ratio(self.blocks_pruned, self.blocks_visited())
    }

    /// Fraction of visited item blocks skipped by **approximate** early
    /// termination (`0.0` when nothing was scored).
    pub fn terminated_block_rate(&self) -> f64 {
        ratio(self.blocks_terminated, self.blocks_visited())
    }

    fn blocks_visited(&self) -> u64 {
        self.blocks_scored + self.blocks_pruned + self.blocks_terminated
    }
}

impl std::fmt::Display for MetricsReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "requests: {}  responses: {}  batches: {}  mean batch {:.2}",
            self.requests, self.responses, self.batches, self.mean_batch_size
        )?;
        writeln!(
            f,
            "cache: {:.1}% hit ({} hit / {} miss)  swaps: {} ({} delta, {} compaction)  \
             worker panics: {} ({} restarted)",
            100.0 * self.cache_hit_rate,
            self.cache_hits,
            self.cache_misses,
            self.snapshot_swaps,
            self.delta_publishes,
            self.item_compactions,
            self.worker_panics,
            self.worker_restarts
        )?;
        writeln!(
            f,
            "pruning: {} blocks scored, {} pruned ({:.1}% exact skip), \
             {} terminated ({:.1}% approx skip)  approx requests: {}",
            self.blocks_scored,
            self.blocks_pruned,
            100.0 * self.pruned_block_rate(),
            self.blocks_terminated,
            100.0 * self.terminated_block_rate(),
            self.approx_requests
        )?;
        writeln!(
            f,
            "scan: {} bytes streamed  rerank: {} candidates rescored",
            self.bytes_scanned, self.rerank_candidates
        )?;
        writeln!(
            f,
            "batch latency: mean {:?}  max {:?}",
            self.mean_batch_latency, self.max_batch_latency
        )?;
        writeln!(
            f,
            "batch sizes [1,2,4,8,16,32,64,128+]: {:?}",
            self.batch_size_hist
        )?;
        writeln!(f, "queue depth high-water: {}", self.queue_depth_high_water)?;
        self.write_table(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_sizes_land_in_power_of_two_buckets() {
        let m = ServeMetrics::new();
        for size in [1usize, 2, 3, 4, 7, 8, 127, 128, 4096] {
            m.record_batch(size, Duration::from_micros(10));
        }
        let r = m.report();
        assert_eq!(r.batches, 9);
        assert_eq!(r.batch_size_hist[0], 1); // 1
        assert_eq!(r.batch_size_hist[1], 2); // 2, 3
        assert_eq!(r.batch_size_hist[2], 2); // 4, 7
        assert_eq!(r.batch_size_hist[3], 1); // 8
        assert_eq!(r.batch_size_hist[6], 1); // 127 → bucket 64..127
        assert_eq!(r.batch_size_hist[7], 2); // 128 and 4096 clamp to last
    }

    #[test]
    fn rates_and_latencies_are_derived() {
        let m = ServeMetrics::new();
        for _ in 0..3 {
            m.requests.inc();
            m.responses.inc();
        }
        m.cache_hits.inc();
        m.cache_misses.inc();
        m.cache_misses.inc();
        m.record_batch(3, Duration::from_millis(2));
        m.record_batch(1, Duration::from_millis(4));
        m.snapshot_swaps.inc();
        let r = m.report();
        assert_eq!(r.requests, 3);
        assert!((r.cache_hit_rate - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.mean_batch_size, 2.0);
        assert_eq!(r.mean_batch_latency, Duration::from_millis(3));
        assert_eq!(r.max_batch_latency, Duration::from_millis(4));
        assert_eq!(r.snapshot_swaps, 1);
    }

    #[test]
    fn empty_metrics_report_is_zeroed() {
        let r = ServeMetrics::new().report();
        assert_eq!(r.requests, 0);
        assert_eq!(r.cache_hit_rate, 0.0);
        assert_eq!(r.mean_batch_latency, Duration::ZERO);
        assert_eq!(r.request_e2e.count(), 0);
        assert_eq!(r.queue_depth_high_water, 0);
    }

    #[test]
    fn stage_histograms_accumulate_and_export() {
        let m = ServeMetrics::new();
        for ns in [1_000u64, 2_000, 10_000] {
            m.record_stage_ns(Stage::QueueWait, ns);
            m.record_stage_ns(Stage::Score, ns * 2);
            m.request_e2e.record_ns(ns * 3);
        }
        let r = m.report();
        assert_eq!(r.stage(Stage::QueueWait).count(), 3);
        assert_eq!(r.stage(Stage::Score).sum_ns(), 26_000);
        assert_eq!(r.stage(Stage::Coalesce).count(), 0);
        assert_eq!(r.request_e2e.max_ns(), 30_000);
        let json = r.exporter().to_json();
        for key in [
            "\"serve_requests\":",
            "\"serve_stage_queue_wait_p50_ns\":",
            "\"serve_stage_queue_wait_p99_ns\":",
            "\"serve_stage_score_p99_ns\":",
            "\"serve_stage_coalesce_count\":0",
            "\"serve_request_e2e_p50_ns\":",
            "\"serve_request_e2e_max_ns\":30000",
            "\"serve_batch_latency_count\":",
            "\"serve_delta_publish_count\":",
            "\"serve_queue_depth_high_water\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let prom = r.exporter().to_prometheus();
        assert!(prom.contains("# TYPE serve_stage_score summary"));
        assert!(prom.contains("serve_request_e2e_count 3"));
    }

    #[test]
    fn windowed_report_resets_the_latency_view() {
        let m = ServeMetrics::new();
        m.record_batch(1, Duration::from_millis(50)); // the spike
        m.requests.inc();
        let first = m.window_report();
        assert_eq!(first.window.batches, 1);
        assert_eq!(first.window.requests, 1);
        assert_eq!(
            first.cumulative.max_batch_latency,
            Duration::from_millis(50)
        );

        // Quiet window with one fast batch: the window max clears the
        // spike (bucket-bounded around 1 ms), the cumulative max does not.
        m.record_batch(1, Duration::from_millis(1));
        let second = m.window_report();
        assert_eq!(second.window.batches, 1);
        assert_eq!(second.window.requests, 0);
        assert!(second.window.max_batch_latency <= Duration::from_micros(1100));
        assert_eq!(
            second.cumulative.max_batch_latency,
            Duration::from_millis(50)
        );
        assert_eq!(second.cumulative.batches, 2);

        // Idle window: everything zero.
        let third = m.window_report();
        assert_eq!(third.window.batches, 0);
        assert_eq!(third.window.batch_latency.count(), 0);
        assert_eq!(third.window.mean_batch_latency, Duration::ZERO);

        // One busy window covers every cell kind.  Traffic before it (one
        // hit, three misses, a queue two deep) must not leak into it: the
        // counter and the histogram count only the window, the queue
        // high-water mark stays cumulative, and the rates are recomputed
        // from the window's own counts.
        m.cache_hits.inc();
        for _ in 0..3 {
            m.cache_misses.inc();
        }
        m.record_queue_enter();
        m.record_queue_enter();
        m.record_queue_exit();
        m.record_queue_exit();
        m.window_report();
        m.requests.inc();
        m.requests.inc();
        m.freshness.record_ns(7_000);
        for _ in 0..3 {
            m.cache_hits.inc();
        }
        m.cache_misses.inc();
        m.record_queue_enter();
        m.record_queue_exit();
        m.record_batch(4, Duration::from_micros(200));
        m.record_batch(2, Duration::from_micros(200));
        let busy = m.window_report();
        let w = &busy.window;
        assert_eq!(w.requests, 2);
        assert_eq!(w.freshness.count(), 1);
        assert_eq!(w.freshness.sum_ns(), 7_000);
        assert_eq!(w.queue_depth_high_water, 2, "the peak predates the window");
        assert!(
            (w.cache_hit_rate - 0.75).abs() < 1e-12,
            "3 / 4 in the window"
        );
        assert!((busy.cumulative.cache_hit_rate - 0.5).abs() < 1e-12);
        assert_eq!(w.mean_batch_size, 3.0, "(4 + 2) / 2 in the window");
        assert_eq!(busy.cumulative.mean_batch_size, 2.0);
    }

    #[test]
    fn queue_depth_tracks_the_high_water_mark() {
        let m = ServeMetrics::new();
        m.record_queue_enter();
        m.record_queue_enter();
        m.record_queue_enter();
        m.record_queue_exit();
        m.record_queue_enter();
        assert_eq!(m.queue_depth(), 3);
        assert_eq!(m.report().queue_depth_high_water, 3);
        m.record_queue_exit();
        m.record_queue_exit();
        m.record_queue_exit();
        assert_eq!(m.queue_depth(), 0);
        // The mark survives the drain.
        assert_eq!(m.report().queue_depth_high_water, 3);
    }

    #[test]
    fn pruning_and_supervisor_counters_accumulate() {
        let m = ServeMetrics::new();
        m.record_pruning(&PruneStats {
            blocks_scored: 6,
            blocks_pruned: 2,
            blocks_terminated: 0,
            ..Default::default()
        });
        m.record_pruning(&PruneStats {
            blocks_scored: 0,
            blocks_pruned: 8,
            blocks_terminated: 0,
            ..Default::default()
        });
        m.worker_panics.inc();
        m.worker_restarts.inc();
        m.item_compactions.inc();
        let r = m.report();
        assert_eq!((r.blocks_scored, r.blocks_pruned), (6, 10));
        assert!((r.pruned_block_rate() - 10.0 / 16.0).abs() < 1e-12);
        assert_eq!((r.worker_panics, r.worker_restarts), (1, 1));
        assert_eq!(r.item_compactions, 1);
        assert_eq!(ServeMetrics::new().report().pruned_block_rate(), 0.0);
    }

    #[test]
    fn terminated_blocks_do_not_inflate_the_exact_pruning_rate() {
        // 4 scored + 4 pruned + 8 terminated: the exact skip rate must be
        // 4/16, not 12/16 — the display would otherwise credit approximate
        // truncation to the (result-preserving) norm bound.
        let m = ServeMetrics::new();
        m.record_pruning(&PruneStats {
            blocks_scored: 4,
            blocks_pruned: 4,
            blocks_terminated: 8,
            ..Default::default()
        });
        m.approx_requests.add(3);
        let r = m.report();
        assert_eq!(r.blocks_terminated, 8);
        assert_eq!(r.approx_requests, 3);
        assert!((r.pruned_block_rate() - 4.0 / 16.0).abs() < 1e-12);
        assert!((r.terminated_block_rate() - 8.0 / 16.0).abs() < 1e-12);
        assert_eq!(ServeMetrics::new().report().terminated_block_rate(), 0.0);
        let text = r.to_string();
        assert!(text.contains("8 terminated"));
        assert!(text.contains("approx requests: 3"));
    }

    #[test]
    fn rerank_and_bytes_scanned_flow_to_reports_and_exporter() {
        let m = ServeMetrics::new();
        m.record_pruning(&PruneStats {
            blocks_scored: 3,
            bytes_scanned: 4096,
            rerank_candidates: 20,
            ..Default::default()
        });
        m.rerank.record_ns(5_000);
        m.rerank.record_ns(9_000);
        let first = m.window_report();
        assert_eq!(first.cumulative.bytes_scanned, 4096);
        assert_eq!(first.cumulative.rerank_candidates, 20);
        assert_eq!(first.cumulative.rerank.count(), 2);
        assert_eq!(first.cumulative.rerank.sum_ns(), 14_000);

        // The window diff subtracts counters and diffs the histogram.
        m.record_pruning(&PruneStats {
            bytes_scanned: 100,
            ..Default::default()
        });
        m.rerank.record_ns(1_000);
        let second = m.window_report();
        assert_eq!(second.window.bytes_scanned, 100);
        assert_eq!(second.window.rerank_candidates, 0);
        assert_eq!(second.window.rerank.count(), 1);

        let json = second.cumulative.exporter().to_json();
        for key in [
            "\"serve_bytes_scanned\":4196",
            "\"serve_rerank_candidates\":20",
            "\"serve_rerank_count\":3",
            "\"serve_rerank_p50_ns\":",
            "\"serve_rerank_p99_ns\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let text = second.cumulative.to_string();
        assert!(text.contains("4196 bytes streamed"));
        assert!(text.contains("20 candidates rescored"));
        assert!(text.contains("rerank"));
    }

    #[test]
    fn display_is_humane() {
        let m = ServeMetrics::new();
        m.record_batch(2, Duration::from_micros(500));
        m.record_stage_ns(Stage::Score, 250_000);
        m.request_e2e.record_ns(400_000);
        let text = m.report().to_string();
        assert!(text.contains("batches: 1"));
        assert!(text.contains("cache"));
        // The percentile table lists every stage plus e2e.
        for row in ["queue_wait", "coalesce", "score", "merge", "reply", "e2e"] {
            assert!(text.contains(row), "missing {row} row in:\n{text}");
        }
        assert!(text.contains("queue depth high-water"));
    }

    /// Every metric the serving exporter publishes: `(name, Prometheus
    /// TYPE, help)`.  CI's python checks and dashboards read these names,
    /// so a rename, retype or new help text is a contract break and an
    /// added metric must be listed here.
    const SERVE_EXPORT_CONTRACT: &[(&str, &str, &str)] = &[
        (
            "serve_requests",
            "counter",
            "requests accepted by the batcher",
        ),
        ("serve_responses", "counter", "replies delivered"),
        ("serve_cache_hits", "counter", "results served from cache"),
        ("serve_cache_misses", "counter", "results scored"),
        ("serve_batches", "counter", "micro-batches scored"),
        ("serve_cache_hit_rate", "gauge", "hits / (hits + misses)"),
        (
            "serve_mean_batch_size",
            "gauge",
            "mean requests per micro-batch",
        ),
        (
            "serve_queue_depth_high_water",
            "counter",
            "most requests ever simultaneously queued",
        ),
        (
            "serve_snapshot_swaps",
            "counter",
            "snapshot generations published",
        ),
        (
            "serve_delta_publishes",
            "counter",
            "publications through the delta path",
        ),
        (
            "serve_item_compactions",
            "counter",
            "item-segment compaction republishes",
        ),
        ("serve_worker_panics", "counter", "scoring panics caught"),
        (
            "serve_worker_restarts",
            "counter",
            "panicked workers restarted",
        ),
        (
            "serve_blocks_scored",
            "counter",
            "item blocks streamed and scored",
        ),
        (
            "serve_blocks_pruned",
            "counter",
            "item blocks skipped exactly",
        ),
        (
            "serve_blocks_terminated",
            "counter",
            "item blocks skipped approximately",
        ),
        (
            "serve_approx_requests",
            "counter",
            "requests served under an approximate policy",
        ),
        (
            "serve_bytes_scanned",
            "counter",
            "bytes streamed by the blocked scorer (encoded + rerank rows)",
        ),
        (
            "serve_rerank_candidates",
            "counter",
            "candidates rescored against exact f32 rows",
        ),
        (
            "serve_stage_queue_wait",
            "summary",
            "per-request queue_wait stage latency",
        ),
        (
            "serve_stage_coalesce",
            "summary",
            "per-request coalesce stage latency",
        ),
        (
            "serve_stage_score",
            "summary",
            "per-request score stage latency",
        ),
        (
            "serve_stage_merge",
            "summary",
            "per-request merge stage latency",
        ),
        (
            "serve_stage_reply",
            "summary",
            "per-request reply stage latency",
        ),
        (
            "serve_request_e2e",
            "summary",
            "per-request end-to-end latency (enqueue to reply)",
        ),
        (
            "serve_batch_latency",
            "summary",
            "per-micro-batch scoring wall time",
        ),
        (
            "serve_delta_publish",
            "summary",
            "publisher-side snapshot/delta publish latency",
        ),
        (
            "serve_freshness",
            "summary",
            "rating ingest to first reflecting snapshot publish",
        ),
        (
            "serve_rerank",
            "summary",
            "per-batch exact-f32 rerank pass latency (inside Score)",
        ),
        // Added when the metric set became one declaration: the two batch
        // fields that were report-only before.
        (
            "serve_batch_items",
            "counter",
            "requests across all micro-batches",
        ),
        (
            "serve_batch_size_1",
            "counter",
            "micro-batches of 1 requests",
        ),
        (
            "serve_batch_size_2to3",
            "counter",
            "micro-batches of 2to3 requests",
        ),
        (
            "serve_batch_size_4to7",
            "counter",
            "micro-batches of 4to7 requests",
        ),
        (
            "serve_batch_size_8to15",
            "counter",
            "micro-batches of 8to15 requests",
        ),
        (
            "serve_batch_size_16to31",
            "counter",
            "micro-batches of 16to31 requests",
        ),
        (
            "serve_batch_size_32to63",
            "counter",
            "micro-batches of 32to63 requests",
        ),
        (
            "serve_batch_size_64to127",
            "counter",
            "micro-batches of 64to127 requests",
        ),
        (
            "serve_batch_size_128up",
            "counter",
            "micro-batches of 128up requests",
        ),
    ];

    /// Sorted JSON keys and sorted `# HELP`/`# TYPE` lines of an export.
    fn export_contract(e: &cumf_obs::Exporter) -> (Vec<String>, Vec<String>) {
        let json = e.to_json();
        let mut keys: Vec<String> = json[1..json.len() - 1]
            .split(',')
            .map(|kv| kv.split(':').next().unwrap().trim_matches('"').to_string())
            .collect();
        let mut lines: Vec<String> = e
            .to_prometheus()
            .lines()
            .filter(|l| l.starts_with("# "))
            .map(String::from)
            .collect();
        keys.sort();
        lines.sort();
        (keys, lines)
    }

    /// The same view spelled out from a `(name, TYPE, help)` table: a
    /// summary exports the seven fixed histogram keys, anything else one key.
    fn expected_contract(table: &[(&str, &str, &str)]) -> (Vec<String>, Vec<String>) {
        let (mut keys, mut lines) = (Vec::new(), Vec::new());
        for &(name, kind, help) in table {
            if kind == "summary" {
                for suffix in [
                    "count", "sum_ns", "mean_ns", "p50_ns", "p90_ns", "p99_ns", "max_ns",
                ] {
                    keys.push(format!("{name}_{suffix}"));
                }
            } else {
                keys.push(name.to_string());
            }
            lines.push(format!("# HELP {name} {help}"));
            lines.push(format!("# TYPE {name} {kind}"));
        }
        keys.sort();
        lines.sort();
        (keys, lines)
    }

    #[test]
    fn exporter_key_contract_is_pinned() {
        let m = ServeMetrics::new();
        m.requests.inc();
        m.responses.inc();
        m.cache_hits.inc();
        m.cache_misses.inc();
        m.record_batch(3, Duration::from_micros(40));
        m.record_queue_enter();
        m.record_queue_exit();
        m.snapshot_swaps.inc();
        m.delta_publishes.inc();
        m.item_compactions.inc();
        m.worker_panics.inc();
        m.worker_restarts.inc();
        m.record_pruning(&PruneStats {
            blocks_scored: 4,
            blocks_pruned: 2,
            blocks_terminated: 1,
            bytes_scanned: 512,
            rerank_candidates: 6,
            ..Default::default()
        });
        m.approx_requests.inc();
        for stage in Stage::ALL {
            m.record_stage_ns(stage, 1_000);
        }
        m.request_e2e.record_ns(5_000);
        m.publish_latency.record(Duration::from_micros(7));
        m.freshness.record_ns(9_000);
        m.rerank.record_ns(2_000);
        let r = m.report();
        assert_eq!(
            export_contract(&r.exporter()),
            expected_contract(SERVE_EXPORT_CONTRACT)
        );
    }
}
