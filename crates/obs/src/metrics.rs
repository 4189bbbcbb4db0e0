//! One declaration per metric.
//!
//! A metric set is declared once with [`metric_set!`](crate::metric_set).
//! Each line gives a field name, its export name, its help text and its
//! kind.  From those lines the macro generates:
//!
//! * the recording sink, with one `pub(crate)` cell per metric, so a hot
//!   path in the declaring crate records on the declared cell directly
//!   (`metrics.requests.inc()`);
//! * the read-side report, with the same `pub` field names;
//! * `report()`, the window diff `since()`, `exporter()` and the rows of
//!   the percentile table ([`write_table`]).
//!
//! ## Kinds
//!
//! | kind | cell | report value | `since` | exported as |
//! |------|------|--------------|---------|-------------|
//! | `counter` | [`Counter`] | `u64` | subtracts | counter |
//! | `high_water` | [`HighWater`] | `u64` peak | stays cumulative | counter |
//! | `histogram` | [`Histogram`](crate::Histogram) | [`HistogramSnapshot`] | per-bucket diff | summary |
//!
//! Any kind can be indexed by a const array of labels, `kind[LABELS]`:
//! the cell becomes `[cell; LABELS.len()]`, and the export and help texts
//! are format strings whose `{}` takes each label.  The serving tier's
//! five per-stage histograms are `histogram[Stage::NAMES]`.
//!
//! Derived report fields (rates, means) are declared in an optional
//! `derived(fill) { ... }` block.  One function, `fill`, computes them from
//! the other fields; `report()` and `since()` both call it, so a window's
//! rates come from the window's own counts.  A derived `f64` field can be
//! exported as a gauge.
//!
//! ## Recording cost
//!
//! Every record is one atomic op on its cell ([`Counter::add`] is one
//! relaxed `fetch_add`; a histogram record is one
//! [`Histogram::record_ns`](crate::Histogram::record_ns)).  There is no lock, lookup by name or `dyn`
//! call on the record path.  The cells use the [`crate::sync`] facade, so
//! a generated sink runs under the model checker unchanged.
//!
//! ## Example
//!
//! ```
//! cumf_obs::metric_set! {
//!     /// Recording side.
//!     pub struct Sink {}
//!     /// Read side.
//!     pub struct Report;
//!     metrics {
//!         /// Requests seen.
//!         requests: counter("demo_requests", "requests seen"),
//!         /// Per-request latency.
//!         latency: histogram("demo_latency", "per-request latency"),
//!     }
//! }
//!
//! let sink = Sink::new();
//! sink.requests.inc();
//! sink.latency.record_ns(1_500);
//! let before = sink.report();
//! sink.requests.add(2);
//! let window = sink.report().since(&before);
//! assert_eq!(window.requests, 2);
//! assert_eq!(window.latency.count(), 0);
//! assert!(before.exporter().to_json().contains("\"demo_requests\":1"));
//! ```

use crate::exporter::EXPORT_QUANTILES;
use crate::histogram::HistogramSnapshot;
use crate::sync::atomic::{AtomicU64, Ordering};
use std::fmt;
use std::time::Duration;

/// A monotonically increasing count.
///
/// Recording is one relaxed atomic add.  A counter publishes no other data
/// through itself, and reports promise no ordering between counters.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed); // relaxed-ok: independent monotonic stat; no cross-counter ordering promised
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed) // relaxed-ok: racy-but-atomic sample; cross-counter skew is documented
    }
}

/// An up/down level that remembers its peak, such as a queue depth.
///
/// Pair every [`enter`](HighWater::enter) with one
/// [`exit`](HighWater::exit).  Each enter folds its own post-increment
/// level into the peak, so the peak can neither miss a level nor exceed
/// the true concurrent occupancy.
#[derive(Debug, Default)]
pub struct HighWater {
    level: AtomicU64,
    peak: AtomicU64,
}

impl HighWater {
    /// Raises the level by one.
    #[inline]
    pub fn enter(&self) {
        let level = self.level.fetch_add(1, Ordering::Relaxed) + 1; // relaxed-ok: atomic +1 keeps the gauge balanced; no payload is published through it
        self.peak.fetch_max(level, Ordering::Relaxed); // relaxed-ok: monotonic max of this thread's own post-increment level
    }

    /// Lowers the level by one.
    #[inline]
    pub fn exit(&self) {
        self.level.fetch_sub(1, Ordering::Relaxed); // relaxed-ok: the matching -1; atomicity alone keeps the gauge balanced
    }

    /// The current level (an instantaneous gauge).
    pub fn level(&self) -> u64 {
        self.level.load(Ordering::Relaxed) // relaxed-ok: instantaneous gauge read, report-only
    }

    /// The highest level ever reached.
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed) // relaxed-ok: racy-but-atomic sample of a monotonic max
    }
}

/// Formats nanoseconds as a humane `Duration` debug string.
fn fmt_ns(ns: u64) -> String {
    format!("{:?}", Duration::from_nanos(ns))
}

/// Writes the percentile table every report's `Display` shares: one row
/// per histogram with its exported quantiles, max and count.
pub fn write_table(f: &mut fmt::Formatter<'_>, rows: &[(&str, &HistogramSnapshot)]) -> fmt::Result {
    write!(f, "{:<16}", "latency")?;
    for (_, label) in EXPORT_QUANTILES {
        write!(f, " {label:>10}")?;
    }
    writeln!(f, " {:>10} {:>9}", "max", "count")?;
    for (name, h) in rows {
        write!(f, "{name:<16}")?;
        for (q, _) in EXPORT_QUANTILES {
            write!(f, " {:>10}", fmt_ns(h.quantile(q)))?;
        }
        writeln!(f, " {:>10} {:>9}", fmt_ns(h.max_ns()), h.count())?;
    }
    Ok(())
}

/// Declares a metric set: a recording sink and its report, with
/// `report()`, `since()`, `exporter()` and `write_table()` derived from
/// one line per metric.  See the [module docs](crate::metrics) for the
/// kinds and an example.
///
/// ```text
/// metric_set! {
///     /// sink docs
///     pub struct Sink { /* plain, non-metric fields (Default + Debug) */ }
///     /// report docs
///     pub struct Report;
///     metrics {
///         /// field docs
///         field: kind("export_name", "help text"),
///         field: kind[LABELS]("export_{}", "help for {}"),
///     }
///     derived(fill) {            // optional; `fn fill(&mut Report)`
///         /// field docs
///         rate: f64 => gauge("export_name", "help text"),
///         other: SomeType,       // report-only, not exported
///     }
/// }
/// ```
#[macro_export]
macro_rules! metric_set {
    (
        $(#[$sink_meta:meta])*
        $vis:vis struct $sink:ident {
            $( $(#[$plain_meta:meta])* $plain:ident : $plain_ty:ty ),* $(,)?
        }
        $(#[$report_meta:meta])*
        $rvis:vis struct $report:ident;
        metrics {
            $(
                $(#[$meta:meta])*
                $field:ident : $kind:ident $([$labels:expr])? ($export:literal, $help:literal)
            ),* $(,)?
        }
        $(
            derived($fill:path) {
                $(
                    $(#[$dmeta:meta])*
                    $dfield:ident : $dty:ty $(=> gauge($dexport:literal, $dhelp:literal))?
                ),* $(,)?
            }
        )?
    ) => {
        $(#[$sink_meta])*
        #[derive(Debug, Default)]
        $vis struct $sink {
            $( $(#[$plain_meta])* $plain: $plain_ty, )*
            $( $(#[$meta])* pub(crate) $field: $crate::metric_set!(@cell $kind $([$labels])?), )*
        }

        $(#[$report_meta])*
        #[derive(Debug, Clone, PartialEq)]
        $rvis struct $report {
            $( $(#[$meta])* pub $field: $crate::metric_set!(@value $kind $([$labels])?), )*
            $( $( $(#[$dmeta])* pub $dfield: $dty, )* )?
        }

        impl $sink {
            /// A fresh, all-zero metrics sink.
            pub fn new() -> Self {
                Self::default()
            }

            /// A point-in-time copy of every metric, cumulative since
            /// startup.  Each cell is sampled on its own; counters may skew
            /// against each other under concurrent recording.
            pub fn report(&self) -> $report {
                #[allow(unused_mut)]
                let mut r = $report {
                    $( $field: $crate::metric_set!(@read $kind $([$labels])?, self.$field), )*
                    $( $( $dfield: ::std::default::Default::default(), )* )?
                };
                $( $fill(&mut r); )?
                r
            }
        }

        impl $report {
            /// The activity between `baseline` and `self`, where `baseline`
            /// is an earlier report from the same sink.  Counters subtract;
            /// histograms diff bucket by bucket, so window quantiles and
            /// means are exact while window maxima are bucket-bounded; a
            /// high-water peak stays cumulative.  Derived fields are
            /// recomputed from the window's own counts.
            pub fn since(&self, baseline: &Self) -> Self {
                #[allow(unused_mut)]
                let mut r = Self {
                    $( $field: $crate::metric_set!(@since $kind $([$labels])?, self.$field, baseline.$field), )*
                    $( $( $dfield: ::std::default::Default::default(), )* )?
                };
                $( $fill(&mut r); )?
                r
            }

            /// Renders this report as a `cumf_obs::Exporter` metric set
            /// under the declared export names.
            pub fn exporter(&self) -> $crate::Exporter {
                let mut e = $crate::Exporter::new();
                $( $crate::metric_set!(@export $kind $([$labels])?, e, $export, $help, self.$field); )*
                $( $( $( e.gauge($dexport, $dhelp, self.$dfield); )? )* )?
                e
            }

            /// Writes the percentile table of every histogram, labelled by
            /// field name (or by label, for an indexed histogram).
            pub fn write_table(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                #[allow(unused_mut)]
                let mut rows: ::std::vec::Vec<(&str, &$crate::HistogramSnapshot)> =
                    ::std::vec::Vec::new();
                $( $crate::metric_set!(@rows $kind $([$labels])?, rows, stringify!($field), self.$field); )*
                $crate::metrics::write_table(f, &rows)
            }
        }
    };

    // Cell type of each kind.
    (@cell counter) => { $crate::metrics::Counter };
    (@cell high_water) => { $crate::metrics::HighWater };
    (@cell histogram) => { $crate::Histogram };
    (@cell $kind:ident [$labels:expr]) => { [$crate::metric_set!(@cell $kind); $labels.len()] };

    // Report value type of each kind.
    (@value counter) => { u64 };
    (@value high_water) => { u64 };
    (@value histogram) => { $crate::HistogramSnapshot };
    (@value $kind:ident [$labels:expr]) => { [$crate::metric_set!(@value $kind); $labels.len()] };

    // Sampling a cell into its report value.
    (@read counter, $cell:expr) => { $cell.get() };
    (@read high_water, $cell:expr) => { $cell.peak() };
    (@read histogram, $cell:expr) => { $cell.snapshot() };
    (@read $kind:ident [$labels:expr], $cell:expr) => {
        ::std::array::from_fn(|i| $crate::metric_set!(@read $kind, $cell[i]))
    };

    // Window diff of a report value.
    (@since counter, $now:expr, $then:expr) => { $now.saturating_sub($then) };
    (@since high_water, $now:expr, $then:expr) => { $now };
    (@since histogram, $now:expr, $then:expr) => { $now.since(&$then) };
    (@since $kind:ident [$labels:expr], $now:expr, $then:expr) => {
        ::std::array::from_fn(|i| $crate::metric_set!(@since $kind, $now[i], $then[i]))
    };

    // Export of a report value.  A high-water peak exports as a counter:
    // it never decreases.
    (@export counter, $e:ident, $name:expr, $help:expr, $v:expr) => { $e.counter($name, $help, $v); };
    (@export high_water, $e:ident, $name:expr, $help:expr, $v:expr) => { $e.counter($name, $help, $v); };
    (@export histogram, $e:ident, $name:expr, $help:expr, $v:expr) => { $e.histogram($name, $help, $v.clone()); };
    (@export $kind:ident [$labels:expr], $e:ident, $name:literal, $help:literal, $v:expr) => {
        for (i, label) in $labels.iter().enumerate() {
            $crate::metric_set!(@export $kind, $e, &format!($name, label), &format!($help, label), $v[i]);
        }
    };

    // Percentile-table rows: histograms only.
    (@rows histogram, $rows:ident, $label:expr, $v:expr) => { $rows.push(($label, &$v)); };
    (@rows histogram [$labels:expr], $rows:ident, $label:expr, $v:expr) => {
        $rows.extend($labels.iter().copied().zip($v.iter()));
    };
    (@rows $kind:ident $([$labels:expr])?, $rows:ident, $label:expr, $v:expr) => {};
}

#[cfg(test)]
mod tests {
    use crate::histogram::HistogramSnapshot;

    const SLOTS: [&str; 2] = ["left", "right"];

    crate::metric_set! {
        /// Test sink.
        pub struct Sink {}
        /// Test report.
        pub struct Report;
        metrics {
            /// A counter.
            hits: counter("t_hits", "hits"),
            /// A high-water gauge.
            depth: high_water("t_depth", "most queued"),
            /// A histogram.
            latency: histogram("t_latency", "latency"),
            /// Indexed counters.
            sides: counter[SLOTS]("t_side_{}", "{} side"),
            /// Indexed histograms.
            slots: histogram[SLOTS]("t_slot_{}", "{} slot latency"),
        }
        derived(fill) {
            /// Hits per recorded latency.
            hits_per_latency: f64 => gauge("t_hits_per_latency", "hits per latency sample"),
            /// Not exported.
            depth_twice: u64,
        }
    }

    fn fill(r: &mut Report) {
        r.hits_per_latency = r.hits as f64 / r.latency.count().max(1) as f64;
        r.depth_twice = 2 * r.depth;
    }

    impl std::fmt::Display for Report {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            self.write_table(f)
        }
    }

    #[test]
    fn every_kind_reports_windows_and_exports() {
        let s = Sink::new();
        s.hits.add(3);
        s.depth.enter();
        s.depth.enter();
        s.depth.exit();
        s.latency.record_ns(1_000);
        s.sides[1].inc();
        s.slots[0].record_ns(50);
        let first = s.report();
        assert_eq!((first.hits, first.depth, first.depth_twice), (3, 2, 4));
        assert_eq!(first.hits_per_latency, 3.0);
        assert_eq!(first.sides, [0, 1]);
        assert_eq!(first.slots[0].count(), 1);
        assert_eq!(s.depth.level(), 1);

        s.hits.inc();
        s.latency.record_ns(2_000);
        s.latency.record_ns(3_000);
        let window = s.report().since(&first);
        assert_eq!(window.hits, 1);
        assert_eq!(window.depth, 2, "a peak stays cumulative");
        assert_eq!(window.latency.count(), 2);
        assert_eq!(window.hits_per_latency, 0.5, "derived from the window");
        assert_eq!(window.sides, [0, 0]);
        assert_eq!(window.slots[0], HistogramSnapshot::empty());

        let json = first.exporter().to_json();
        for key in [
            "\"t_hits\":3",
            "\"t_depth\":2",
            "\"t_latency_count\":1",
            "\"t_side_left\":0",
            "\"t_side_right\":1",
            "\"t_slot_left_count\":1",
            "\"t_hits_per_latency\":3",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(!json.contains("depth_twice"));
        let prom = first.exporter().to_prometheus();
        assert!(prom.contains("# HELP t_slot_right right slot latency"));
        assert!(prom.contains("# TYPE t_depth counter"));
        assert!(prom.contains("# TYPE t_hits_per_latency gauge"));

        let table = first.to_string();
        let rows: Vec<&str> = table
            .lines()
            .map(|l| l.split_whitespace().next().unwrap())
            .collect();
        assert_eq!(rows, ["latency", "latency", "left", "right"]);
        assert!(table.lines().next().unwrap().contains("p99"));
    }
}
