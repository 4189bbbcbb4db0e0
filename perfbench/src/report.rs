//! Run accounting and output: sample statistics, named figures, per-phase
//! op counts, and the JSON lines the benchmark prints.

use std::fmt::Write as _;

/// Nearest-rank quantile of `samples` (`p` in `[0, 1]`); 0 for no samples.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Median of `samples` (nearest rank); 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Attempted / failed operation counts of one phase of a workload.
#[derive(Debug, Clone)]
struct Phase {
    name: String,
    attempted: u64,
    failed: u64,
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// The metrics of the final result line, in declaration order.
    metrics: Vec<(String, f64, String)>,
    /// Workload-specific named figures (printed on the summary line).
    figures: Vec<(String, f64, String)>,
    /// Free-form stamp fields (strings already JSON-encoded).
    stamp: Vec<(String, String)>,
    phases: Vec<Phase>,
    /// Human-readable descriptions of failed correctness gates.
    gate_failures: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    pub fn figure(&mut self, name: &str, value: f64, unit: &str) {
        self.figures
            .push((name.to_string(), value, unit.to_string()));
    }

    pub fn stamp_str(&mut self, key: &str, value: &str) {
        self.stamp.push((key.to_string(), json_string(value)));
    }

    pub fn stamp_num(&mut self, key: &str, value: f64) {
        self.stamp.push((key.to_string(), json_number(value)));
    }

    /// Records a phase's op counts.
    pub fn phase(&mut self, name: &str, attempted: u64, failed: u64) {
        self.phases.push(Phase {
            name: name.to_string(),
            attempted,
            failed,
        });
    }

    /// Records a correctness gate; a false `ok` is a failed operation.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.gate_failures.push(what());
        }
    }

    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.failed).sum::<u64>() + self.gate_failures.len() as u64
    }

    pub fn correct(&self) -> bool {
        self.failed() == 0
    }

    /// The summary line: stamp, named figures, phases and gate failures.
    pub fn summary_json(&self) -> String {
        let mut s = String::from("{\"stamp\": {");
        for (i, (k, v)) in self.stamp.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}{}: {v}", json_string(k));
        }
        s.push_str("}, \"figures\": ");
        s.push_str(&metrics_json(&self.figures));
        s.push_str(", \"phases\": [");
        for (i, p) in self.phases.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}{{\"name\": {}, \"attempted\": {}, \"succeeded\": {}, \"failed\": {}}}",
                json_string(&p.name),
                p.attempted,
                p.attempted - p.failed.min(p.attempted),
                p.failed
            );
        }
        s.push_str("], \"gate_failures\": [");
        for (i, g) in self.gate_failures.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}{}", json_string(g));
        }
        s.push_str("]}");
        s
    }

    /// The final result line.
    pub fn result_json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted().max(1),
            self.failed(),
            metrics_json(&self.metrics)
        )
    }

    /// Human-readable table of the result metrics and figures.
    pub fn table(&self) -> String {
        let mut s = String::new();
        for (name, value, unit) in self.metrics.iter().chain(&self.figures) {
            let _ = writeln!(s, "  {name:<44} {value:>16.6} {unit}");
        }
        for p in &self.phases {
            let _ = writeln!(
                s,
                "  phase {:<38} attempted {:>8}  failed {:>4}",
                p.name, p.attempted, p.failed
            );
        }
        for g in &self.gate_failures {
            let _ = writeln!(s, "  GATE FAILED: {g}");
        }
        s
    }
}

fn metrics_json(metrics: &[(String, f64, String)]) -> String {
    let mut s = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            json_string(name),
            json_number(*value),
            json_string(unit)
        );
    }
    s.push('}');
    s
}

/// A JSON number with all its digits; non-finite values become 0 and are
/// left to the gates to catch.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
    }

    #[test]
    fn result_line_shape() {
        let mut r = Report::default();
        r.metric("setup_s", 0.5, "s");
        r.phase("p", 4, 1);
        assert_eq!(
            r.result_json(),
            "{\"correct\": false, \"attempted\": 4, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
