//! Result plumbing shared by the workloads: a metric sink that prints one
//! JSON line, nearest-rank percentiles, medians and peak-RSS probes.

use std::fmt::Write as _;
use std::time::Duration;

/// Metrics and bookkeeping of one workload run, printed as one JSON line
/// that `run.py` turns into the benchmark's result.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    /// Operations the workload attempted (cells, simulations, requests).
    pub attempted: u64,
    /// Attempted operations that failed.
    pub failed: u64,
    /// Output checks that failed; any entry makes the run incorrect.
    pub errors: Vec<String>,
    /// Named strings passed through to `run.py` (digests, file paths).
    pub info: Vec<(String, String)>,
}

impl Report {
    /// Records metric `name` with `unit`.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Records a failed output check.
    pub fn error(&mut self, message: impl Into<String>) {
        self.errors.push(message.into());
    }

    /// Records a pass-through string.
    pub fn info(&mut self, key: &str, value: impl Into<String>) {
        self.info.push((key.to_owned(), value.into()));
    }

    /// Serializes the report as one line of JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"metrics\": {");
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // JSON has no NaN; `null` makes run.py fail the run.
            let value = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".to_owned()
            };
            let _ = write!(out, "{sep}{}: [{value}, {}]", quote(name), quote(unit));
        }
        let _ = write!(
            out,
            "}}, \"attempted\": {}, \"failed\": {}, \"errors\": [",
            self.attempted, self.failed
        );
        for (i, e) in self.errors.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}{}", quote(e));
        }
        out.push_str("], \"info\": {");
        for (i, (k, v)) in self.info.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}{}: {}", quote(k), quote(v));
        }
        out.push_str("}}");
        out
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Nearest-rank percentile `p` in `[0, 1]` of `values` (sorted in place);
/// 0 for an empty sample.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let idx = ((values.len() - 1) as f64 * p).round() as usize;
    values[idx]
}

/// Median of `values` (sorted in place).
pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 0.5)
}

/// Seconds as `f64`.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Peak resident set size (`VmHWM`) of process `pid` (`"self"` for this
/// one), in MB; `None` when `/proc` does not report it.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&mut v), 3.0);
        assert_eq!(percentile(&mut v, 1.0), 5.0);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn json_line_is_escaped() {
        let mut r = Report::default();
        r.metric("wall_s", 1.5, "s");
        r.error("bad \"digest\"");
        r.info("k", "v");
        assert_eq!(
            r.to_json(),
            "{\"metrics\": {\"wall_s\": [1.5, \"s\"]}, \"attempted\": 0, \"failed\": 0, \
             \"errors\": [\"bad \\\"digest\\\"\"], \"info\": {\"k\": \"v\"}}"
        );
    }
}
