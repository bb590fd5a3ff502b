//! Percentiles of `f64` samples, one function per rank rule.
//!
//! The two rules give different answers on the same sample, and the tables
//! of the evaluation are pinned to the rule each call site uses, so the rule
//! is part of the function name rather than a parameter:
//!
//! * [`interpolated`] — linear interpolation between the two closest ranks
//!   (the fault-trace statistics, lifecycle SLOs and service sojourns);
//! * [`nearest_rank`] — the smallest sample with at least a `q` share of the
//!   sample at or below it (the DCN replay's p99 stretch).

/// Percentile `q` (in `0..=1`) of an already **sorted**, non-empty sample by
/// linear interpolation between the two closest ranks: position
/// `q * (len - 1)`, blended between its floor and ceiling neighbours.
///
/// # Panics
/// On an empty slice or a `q` outside `0..=1`.
pub fn interpolated(sorted: &[f64], q: f64) -> f64 {
    assert!(
        !sorted.is_empty(),
        "cannot take a percentile of an empty slice"
    );
    assert!((0.0..=1.0).contains(&q), "quantile must lie in [0, 1]");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// [`interpolated`] percentile of an unsorted sample, or 0.0 when the sample
/// is empty. Sorts a copy, so the caller's order is left untouched.
pub fn interpolated_or_zero(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    interpolated(&sorted, q)
}

/// Nearest-rank percentile `q` (in `0..=1`) of an already **sorted**,
/// non-empty sample: the element at rank `ceil(q * len)`, clamped to
/// `1..=len`.
///
/// # Panics
/// On an empty slice.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(
        !sorted.is_empty(),
        "cannot take a percentile of an empty slice"
    );
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1] || w[1].is_nan()));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let data = vec![0.0, 1.0, 2.0, 3.0, 4.0];
        assert_eq!(interpolated(&data, 0.0), 0.0);
        assert_eq!(interpolated(&data, 1.0), 4.0);
        assert_eq!(interpolated(&data, 0.5), 2.0);
        assert!((interpolated(&data, 0.25) - 1.0).abs() < 1e-12);
        assert!((interpolated(&data, 0.9) - 3.6).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty slice")]
    fn percentile_of_empty_slice_panics() {
        let _ = interpolated(&[], 0.5);
    }

    #[test]
    fn interpolated_or_zero_sorts_a_copy_and_is_zero_when_empty() {
        assert_eq!(interpolated_or_zero(&[], 0.99), 0.0);
        let values = [4.0, 0.0, 3.0, 1.0, 2.0];
        assert!((interpolated_or_zero(&values, 0.9) - 3.6).abs() < 1e-12);
        assert_eq!(values, [4.0, 0.0, 3.0, 1.0, 2.0]);
    }

    #[test]
    fn nearest_rank_picks_a_sample_element() {
        assert_eq!(nearest_rank(&[2.0], 0.99), 2.0);
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(nearest_rank(&v, 0.99), 99.0);
        assert_eq!(nearest_rank(&v, 0.5), 50.0);
        assert_eq!(nearest_rank(&v, 0.0), 1.0);
    }
}
