//! Order statistics for the end-to-end timings.

/// Samples a tail percentile must have beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The median (mean of the middle two for an even count; 0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The smallest value (infinity when empty).
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// Share of the samples at or below `value`, in percent.
    pub percentile: f64,
    pub samples: usize,
}

/// The tail of `values`: with `n` samples sorted ascending, the one at
/// index `n - 11`, which has exactly ten beyond it. With ten samples or
/// fewer no percentile has ten beyond it, and the maximum is reported as
/// the 100th percentile.
pub fn tail(values: &[f64]) -> Tail {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: 0.0,
            samples: 0,
        };
    }
    let index = if n > TAIL_BEYOND {
        n - TAIL_BEYOND - 1
    } else {
        n - 1
    };
    Tail {
        value: sorted[index],
        percentile: 100.0 * (index + 1) as f64 / n as f64,
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn min_of_values() {
        assert_eq!(min(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(min(&[]), f64::INFINITY);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let values: Vec<f64> = (0..180).rev().map(f64::from).collect();
        let t = tail(&values);
        assert_eq!(t.value, 169.0);
        assert_eq!(values.iter().filter(|&&v| v > t.value).count(), TAIL_BEYOND);
        assert!((t.percentile - 100.0 * 170.0 / 180.0).abs() < 1e-12);
        assert_eq!(t.samples, 180);

        // Eleven samples: the minimum is the only one with ten beyond it.
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        let t = tail(&eleven);
        assert_eq!((t.value, t.samples), (0.0, 11));
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn tail_of_ten_or_fewer_is_the_maximum() {
        let t = tail(&[5.0, 9.0, 1.0]);
        assert_eq!((t.value, t.percentile, t.samples), (9.0, 100.0, 3));
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&ten).value, 9.0);
    }
}
