//! Metric collection, order statistics and the result line.

use std::fmt::Write as _;

/// One reported metric: name, value, unit and the number of samples it
/// was computed from.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// The metrics of one run, in report order.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Free-form lines printed above the table (result check, self-check).
    pub notes: Vec<String>,
}

impl Report {
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Print the human-readable table, then the JSON result as the last
    /// line of standard output.
    pub fn print(&self, workload: &str, correct: bool, attempted: u64, failed: u64) {
        for n in &self.notes {
            println!("{n}");
        }
        println!(
            "{:<34} {:>16} {:<6} {:>8}",
            "metric", "value", "unit", "samples"
        );
        for m in &self.metrics {
            println!(
                "{:<34} {:>16.4} {:<6} {:>8}",
                m.name, m.value, m.unit, m.samples
            );
        }
        println!(
            "workload {workload}: attempted {attempted}, failed {failed}, results {}",
            if correct { "correct" } else { "WRONG" }
        );
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                json.push_str(", ");
            }
            // Non-finite values are not JSON; a metric without samples
            // reads 0.
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                json,
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// Nearest-rank percentile (`p` in 0..=1) of unsorted samples; 0 when
/// there are none.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Ratio that reads 0 instead of NaN on an empty base.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64: the benchmark's own deterministic generator for schedules.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniformly shuffled `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.99), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn permutations_repeat_per_seed() {
        let a = SplitMix(7).permutation(30);
        assert_eq!(a, SplitMix(7).permutation(30));
        assert_ne!(a, SplitMix(8).permutation(30));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..30).collect::<Vec<_>>());
    }
}
