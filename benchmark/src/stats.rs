//! Sample statistics, metric-name rules and operation tallies.

/// Percentiles the latency reports choose among, highest first.
const PERCENTILES: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for even counts); `NaN`
/// for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of an ascending slice.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p).max(1) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples, in exact
/// integer arithmetic over hundredths of a percent (so `99.99` of
/// `100_000` is rank `99_990`, not one off through float rounding).
fn rank(n: usize, p: f64) -> usize {
    let hundredths = (p * 100.0).round() as usize;
    (hundredths * n).div_ceil(10_000).min(n)
}

/// How many of `n` samples lie strictly beyond nearest-rank percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest of the reported percentiles with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when even the median lacks them.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    PERCENTILES
        .into_iter()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// A metric name: starts with a letter or digit, at most 64 characters
/// from `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// How one attempted operation ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Completed with the correct output.
    Ok,
    /// Completed with a wrong output.
    Mismatch,
    /// Shed by the server (overloaded or past its deadline) after every
    /// retry was spent.
    Shed,
    /// Refused with a typed rejection, or lost to a transport error.
    Refused,
}

/// Attempted and failed operations across a run. Anything but
/// [`Outcome::Ok`] is a failure; only [`Outcome::Mismatch`] makes the
/// run's output incorrect.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that did not end [`Outcome::Ok`].
    pub failed: u64,
    /// Operations whose output was wrong.
    pub mismatched: u64,
}

impl Tally {
    /// Counts one operation.
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        if outcome != Outcome::Ok {
            self.failed += 1;
        }
        if outcome == Outcome::Mismatch {
            self.mismatched += 1;
        }
    }

    /// Adds another tally's counts.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatched += other.mismatched;
    }

    /// Failed operations over attempted ones (0 when nothing ran).
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_choice_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
        for n in [20, 100, 1_000, 5_000, 10_000, 123_456] {
            let p = highest_supported_percentile(n).unwrap();
            assert!(beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.9), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn metric_names_follow_the_contract() {
        for ok in [
            "setup_s",
            "serve.light.client.send_us",
            "a4_accuracy",
            "9x",
            "a-b",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "µs", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"x".repeat(64)));
    }

    #[test]
    fn shed_and_refused_requests_count_as_failures() {
        let mut t = Tally::default();
        for o in [
            Outcome::Ok,
            Outcome::Ok,
            Outcome::Shed,
            Outcome::Refused,
            Outcome::Mismatch,
        ] {
            t.record(o);
        }
        assert_eq!((t.attempted, t.failed, t.mismatched), (5, 3, 1));
        assert_eq!(t.fail_ratio(), 0.6);
        let mut all = Tally::default();
        assert_eq!(all.fail_ratio(), 0.0);
        all.absorb(t);
        all.record(Outcome::Ok);
        assert_eq!((all.attempted, all.failed), (6, 3));
        assert_eq!(all.fail_ratio(), 0.5);
    }
}
