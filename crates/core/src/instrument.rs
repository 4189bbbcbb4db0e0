//! Trainer-side observability: wait-free latency histograms for the ALS
//! hot path.
//!
//! The paper's performance story lives in two phases of the per-row update
//! (equation (2)): assembling the Hermitian `A = Σ θ_v θ_vᵀ` (the
//! `get_hermitian` kernel) and solving the regularized system (the
//! `batch_solve` kernel).  [`TrainMetrics`] times both **per row** inside
//! [`crate::als::kernels::solve_rows`] — the one row loop behind training
//! half-iterations and incremental fold-in — plus whole `solve_side` calls
//! and fold-in batches ([`crate::foldin::fold_in_users`]), giving the
//! host-side analogue of the kernel split the simulator prices.
//!
//! The metrics are declared once with [`cumf_obs::metric_set!`], which
//! derives the report, its window diff, the `train_*` export and the
//! percentile table.  Recording is wait-free ([`cumf_obs::Histogram`]
//! relaxed atomics), so the rayon row loop stays embarrassingly parallel;
//! callers that pass `None` for the metrics read no clock at all.

cumf_obs::metric_set! {
    /// Latency histograms of the training hot path; shared by every engine
    /// a [`crate::trainer::MatrixFactorizer`] builds.
    ///
    /// Every cell records through `&self`, wait-free, so one instance can
    /// be shared across the rayon workers of a `solve_side` call.
    pub struct TrainMetrics {}
    /// Immutable snapshot of [`TrainMetrics`].
    pub struct TrainMetricsReport;
    metrics {
        /// Non-empty rows solved across all instrumented calls.
        rows_solved: counter("train_rows_solved", "non-empty rows solved across instrumented calls"),
        /// Per-row Hermitian assembly (the `syr_full`/`axpy` loop over the
        /// row's ratings — `get_hermitian` in the paper).
        assembly: histogram("train_assembly", "per-row Hermitian assembly latency"),
        /// Per-row ridge + Cholesky solve (`batch_solve` in the paper).
        solve: histogram("train_solve", "per-row ridge + Cholesky solve latency"),
        /// Whole `solve_side` calls (one half-iteration each).
        solve_side: histogram("train_solve_side", "whole solve_side call latency"),
        /// Incremental fold-in batches (the serving-facing training path).
        fold_in: histogram("train_fold_in", "incremental fold-in batch latency"),
    }
}

impl TrainMetrics {
    /// Records one solved row: its Hermitian-assembly and solve phases.
    pub fn record_row(&self, assembly_ns: u64, solve_ns: u64) {
        self.assembly.record_ns(assembly_ns);
        self.solve.record_ns(solve_ns);
        self.rows_solved.inc();
    }

    /// Non-empty rows solved so far.
    pub fn rows_solved(&self) -> u64 {
        self.rows_solved.get()
    }
}

impl std::fmt::Display for TrainMetricsReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "rows solved: {}", self.rows_solved)?;
        self.write_table(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn report_reflects_recorded_rows_and_calls() {
        let m = TrainMetrics::new();
        for i in 1..=100u64 {
            m.record_row(i * 10, i * 5);
        }
        m.solve_side.record(Duration::from_micros(300));
        m.fold_in.record(Duration::from_micros(40));

        let r = m.report();
        assert_eq!(r.rows_solved, 100);
        assert_eq!(r.assembly.count(), 100);
        assert_eq!(r.solve.count(), 100);
        assert_eq!(r.solve_side.count(), 1);
        assert_eq!(r.fold_in.count(), 1);
        assert_eq!(r.assembly.max_ns(), 1000);
        assert_eq!(r.solve.max_ns(), 500);
        // Assembly was recorded at exactly twice the solve duration per
        // row, so the exact sums keep that ratio.
        assert_eq!(r.assembly.sum_ns(), 2 * r.solve.sum_ns());
    }

    #[test]
    fn exporter_emits_the_train_keys() {
        let m = TrainMetrics::new();
        m.record_row(1_000, 2_000);
        m.solve_side.record(Duration::from_micros(10));
        let json = m.report().exporter().to_json();
        for key in [
            "\"train_rows_solved\":1",
            "\"train_assembly_count\":1",
            "\"train_assembly_p50_ns\":",
            "\"train_solve_p99_ns\":",
            "\"train_solve_side_max_ns\":",
            "\"train_fold_in_count\":0",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn display_prints_the_percentile_table() {
        let m = TrainMetrics::new();
        m.record_row(500, 700);
        let text = m.report().to_string();
        assert!(text.contains("rows solved: 1"));
        for row in ["assembly", "solve", "solve_side", "fold_in"] {
            assert!(text.contains(row), "missing {row} row in:\n{text}");
        }
        assert!(text.contains("p99"));
    }

    #[test]
    fn concurrent_row_records_count_exactly() {
        let m = TrainMetrics::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..1_000u64 {
                        m.record_row(i, i);
                    }
                });
            }
        });
        assert_eq!(m.rows_solved(), 4_000);
        assert_eq!(m.report().assembly.count(), 4_000);
    }

    /// Every metric the trainer exporter publishes: `(name, Prometheus
    /// TYPE, help)`.  A rename, retype or new help text is a contract
    /// break; an added metric must be listed here.
    const TRAIN_EXPORT_CONTRACT: &[(&str, &str, &str)] = &[
        (
            "train_rows_solved",
            "counter",
            "non-empty rows solved across instrumented calls",
        ),
        (
            "train_assembly",
            "summary",
            "per-row Hermitian assembly latency",
        ),
        (
            "train_solve",
            "summary",
            "per-row ridge + Cholesky solve latency",
        ),
        (
            "train_solve_side",
            "summary",
            "whole solve_side call latency",
        ),
        (
            "train_fold_in",
            "summary",
            "incremental fold-in batch latency",
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
        let m = TrainMetrics::new();
        m.record_row(1_000, 2_000);
        m.solve_side.record(Duration::from_micros(10));
        m.fold_in.record(Duration::from_micros(20));
        assert_eq!(
            export_contract(&m.report().exporter()),
            expected_contract(TRAIN_EXPORT_CONTRACT)
        );
    }
}
