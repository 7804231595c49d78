//! Order statistics over repeated samples.

/// The median of `values` (the mean of the two middle values for an even
/// count). `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// A latency tail: the highest order statistic with at least
/// [`TAIL_BEYOND`] samples above it, the percentile it sits at, and the
/// sample count it was taken from. With at most `2 × TAIL_BEYOND` samples
/// that statistic would sit at or below the median, so the tail is the
/// maximum instead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The tail value.
    pub value: f64,
    /// The percentile of `value` (100 for the maximum fallback).
    pub percentile: f64,
    /// How many samples the tail was taken from.
    pub samples: usize,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// See [`Tail`]. `NaN` value for an empty slice.
pub fn tail(values: &[f64]) -> Tail {
    let n = values.len();
    if n == 0 {
        return Tail {
            value: f64::NAN,
            percentile: f64::NAN,
            samples: 0,
        };
    }
    let sorted = sorted(values);
    if n <= 2 * TAIL_BEYOND {
        return Tail {
            value: sorted[n - 1],
            percentile: 100.0,
            samples: n,
        };
    }
    Tail {
        value: sorted[n - 1 - TAIL_BEYOND],
        percentile: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        samples: n,
    }
}

/// The median of per-unit tails: [`tail`] of each unit of work (a drain,
/// a stretch of the arrival schedule), then the median of those values, so
/// one unit hit by a host stall does not set the run's figure. Units
/// without samples are skipped.
pub fn median_tail(units: &[Vec<f64>]) -> Tail {
    let tails: Vec<Tail> = units
        .iter()
        .filter(|u| !u.is_empty())
        .map(|u| tail(u))
        .collect();
    let pick = |f: fn(&Tail) -> f64| median(&tails.iter().map(f).collect::<Vec<_>>());
    Tail {
        value: pick(|t| t.value),
        percentile: pick(|t| t.percentile),
        samples: tails.iter().map(|t| t.samples).sum(),
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Times `batch` `rounds` times and returns the median per-call time in
/// nanoseconds, where one round performs `calls` calls.
pub fn median_ns_per_call(rounds: usize, calls: usize, mut batch: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..rounds)
        .map(|_| {
            let start = std::time::Instant::now();
            batch();
            start.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values);
        assert_eq!(t.value, 90.0);
        assert_eq!(values.iter().filter(|&&v| v > t.value).count(), 10);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 100);

        let few = tail(&[5.0, 1.0, 3.0]);
        assert_eq!((few.value, few.percentile, few.samples), (5.0, 100.0, 3));
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&twenty).value, 20.0);

        let units = vec![
            values.clone(),
            values.iter().map(|v| v * 2.0).collect(),
            values,
        ];
        let t = median_tail(&units);
        assert_eq!((t.value, t.percentile, t.samples), (90.0, 90.0, 300));
    }
}
