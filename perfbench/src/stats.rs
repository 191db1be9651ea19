//! Order statistics, the benchmark's metric sheet and its JSON line.

use std::fmt::Write as _;

/// Median of `xs` (mean of the two middle values for even counts); 0
/// for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Set-ups a workload times per run for `setup_s`: `SETUP_GROUPS`
/// groups of `SETUP_PER_GROUP` back-to-back set-ups.
pub const SETUP_GROUPS: usize = 15;
/// See [`SETUP_GROUPS`].
pub const SETUP_PER_GROUP: usize = 10;

/// `setup_s` from the individual set-up times: the median over groups
/// of `SETUP_PER_GROUP` consecutive set-ups of their mean. A single
/// set-up takes well under a millisecond to a few milliseconds, so its
/// time is mostly scheduling noise; the group mean averages that out
/// and the median over groups drops a group that hit a stall.
pub fn setup_figure(times: &[f64]) -> f64 {
    median(&times.chunks(SETUP_PER_GROUP).map(mean).collect::<Vec<_>>())
}

/// Ceil-rank percentile `q` in `0..=100` of `xs` (the load harness's
/// definition).
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    rlmul_serve::percentile(&v, q / 100.0)
}

/// The tail of a latency sample: the highest of the listed
/// percentiles that still has at least ten samples above it, with the
/// number of samples beyond it. With fewer than 11 samples no
/// percentile qualifies and the maximum is reported (label 100).
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// Percentile label (e.g. 95.0).
    pub pct: f64,
    /// The value at that percentile.
    pub value: f64,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// The highest listed percentile of `n` samples that has at least ten
/// samples beyond it, with its ceil rank; `None` below 11 samples.
pub fn tail_rank(n: usize) -> Option<(f64, usize)> {
    [99.9, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0]
        .into_iter()
        .map(|pct| (pct, ((pct / 100.0) * n as f64).ceil() as usize))
        .find(|&(_, rank)| rank >= 1 && n >= rank + 10)
}

/// See [`Tail`].
pub fn tail(xs: &[f64]) -> Tail {
    match tail_rank(xs.len()) {
        Some((pct, rank)) => Tail { pct, value: percentile(xs, pct), beyond: xs.len() - rank },
        None => Tail { pct: 100.0, value: xs.iter().copied().fold(0.0, f64::max), beyond: 0 },
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over the bit patterns of a float sequence: a compact
/// fingerprint for "these two runs produced the same numbers".
pub fn fingerprint(xs: impl IntoIterator<Item = f64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in xs {
        for b in x.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The metrics one run measured, by name, in insertion order. Units
/// are not kept here: the result line takes them from the tables in
/// `main`.
#[derive(Debug, Default)]
pub struct Sheet {
    entries: Vec<(String, f64)>,
}

impl Sheet {
    /// Records (or overwrites) one metric.
    pub fn put(&mut self, name: &str, value: f64) {
        match self.entries.iter_mut().find(|e| e.0 == name) {
            Some(e) => e.1 = value,
            None => self.entries.push((name.to_owned(), value)),
        }
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.iter().find(|e| e.0 == name).map(|e| e.1)
    }
}

/// Renders the result line the harness contract asks for from
/// `(name, value, unit)` triples.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let v = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(out, "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.pct, 95.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.value, 190.0);
        let few: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(tail(&few).value, 5.0);
    }

    #[test]
    fn setup_figure_is_a_median_of_group_means() {
        let mut times = vec![1.0; SETUP_GROUPS * SETUP_PER_GROUP];
        // One stalled set-up raises its group's mean only.
        times[3] = 100.0;
        assert_eq!(setup_figure(&times), 1.0);
    }

    #[test]
    fn medians_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
    }

    #[test]
    fn result_line_is_one_json_object() {
        assert_eq!(
            result_line(true, 4, 0, &[("latency_ms", 1.5, "ms"), ("count", 3.0, "count")]),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \
             \"count\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
    }
}
