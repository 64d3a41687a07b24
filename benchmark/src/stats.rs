//! Order statistics over timing samples.

/// Samples that must lie beyond a tail percentile before it is reported
/// as measured rather than as a bound on too few samples.
pub const TAIL_FLOOR: usize = 10;

/// Median (mean of the two middle values for an even count); `None` for
/// no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let s = sorted(samples);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile `p` (1..=100) together with the number of
/// samples ranked above it; `None` for no samples. The rank is
/// `ceil(p·n/100)` in integer arithmetic, so `p = 90` over 110 samples
/// is rank 99, not a rounding-error 100.
pub fn percentile(samples: &[f64], p: usize) -> Option<(f64, usize)> {
    let s = sorted(samples);
    if s.is_empty() {
        return None;
    }
    let rank = (p * s.len()).div_ceil(100).clamp(1, s.len());
    Some((s[rank - 1], s.len() - rank))
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn nearest_rank_percentile_counts_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90), Some((90.0, 10)));
        assert_eq!(percentile(&xs, 50), Some((50.0, 50)));
        assert_eq!(percentile(&xs, 100), Some((100.0, 0)));
        // 110 samples: rank ceil(99) = 99, eleven beyond.
        let ys: Vec<f64> = (1..=110).map(f64::from).collect();
        assert_eq!(percentile(&ys, 90), Some((99.0, 11)));
        // Below 100 samples the p90 has fewer than ten beyond it.
        let zs: Vec<f64> = (1..=20).map(f64::from).collect();
        let (v, beyond) = percentile(&zs, 90).unwrap();
        assert_eq!((v, beyond), (18.0, 2));
        assert!(beyond < TAIL_FLOOR);
        assert_eq!(percentile(&[7.0], 90), Some((7.0, 0)));
        assert_eq!(percentile(&[], 90), None);
    }
}
