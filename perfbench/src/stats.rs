//! Sample summaries and the metric table a run prints.

use std::fmt::Write as _;

/// Linear-interpolated quantile `q` in `[0, 1]` of an ascending slice.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median and quartiles of a sample set.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

/// Summarises `samples` (any order).
pub fn summarize(samples: &[f64]) -> Summary {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    Summary {
        n: s.len(),
        q1: quantile_sorted(&s, 0.25),
        median: quantile_sorted(&s, 0.5),
        q3: quantile_sorted(&s, 0.75),
    }
}

/// Nearest-rank percentile `p` in `[0, 100]` (any order).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// One reported metric: its value plus the samples it summarises.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub summary: Summary,
}

/// The metrics of one run, in the order they were recorded.
#[derive(Debug, Default)]
pub struct Table {
    pub metrics: Vec<Metric>,
}

impl Table {
    /// Records a metric whose value is the median of `samples`.
    pub fn median(&mut self, name: &'static str, unit: &'static str, samples: &[f64]) {
        let summary = summarize(samples);
        self.push(name, unit, summary.median, summary);
    }

    /// Records `value`, a whole-run rate, with the sample count and
    /// quartiles of the per-pass `samples` it aggregates.
    pub fn rate(&mut self, name: &'static str, unit: &'static str, value: f64, samples: &[f64]) {
        self.push(name, unit, value, summarize(samples));
    }

    /// Records a single measured or derived value.
    pub fn value(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.value_of(name, unit, value, 1);
    }

    /// Records a value derived from `n` samples (a rate, a percentile).
    pub fn value_of(&mut self, name: &'static str, unit: &'static str, value: f64, n: usize) {
        let summary = Summary {
            n,
            q1: value,
            median: value,
            q3: value,
        };
        self.push(name, unit, value, summary);
    }

    fn push(&mut self, name: &'static str, unit: &'static str, value: f64, summary: Summary) {
        debug_assert!(
            self.metrics.iter().all(|m| m.name != name),
            "{name} recorded twice"
        );
        self.metrics.push(Metric {
            name,
            unit,
            value,
            summary,
        });
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Human-readable lines: value, unit, sample count and quartiles.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let s = m.summary;
            let _ = writeln!(
                out,
                "metric {:<26} {:>16.6} {:<9} n={:<6} q1={:.6} median={:.6} q3={:.6}",
                m.name, m.value, m.unit, s.n, s.q1, s.median, s.q3
            );
        }
        out
    }
}

/// A JSON number; non-finite values (which JSON cannot carry) become 0.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (5, 2.0, 3.0, 4.0));
    }

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
    }
}
