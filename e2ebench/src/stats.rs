//! Order statistics the benchmark reports timings with.
//!
//! A timing is reported as its median plus the highest percentile that
//! still has at least [`TAIL_MIN_BEYOND`] samples beyond it, always with
//! the sample count, so a tail figure is never read off a handful of
//! observations.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Median of `xs` (mean of the middle pair for an even count), or
/// `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `xs` together with the
/// number of samples strictly beyond its rank, or `None` when empty.
pub fn percentile(xs: &[f64], p: f64) -> Option<(f64, usize)> {
    let s = sorted(xs);
    let n = s.len();
    if n == 0 {
        return None;
    }
    // the epsilon keeps float error (0.999 * 10000 = 9990.000000000002)
    // from bumping an exact rank to the next sample
    let rank = ((p / 100.0) * n as f64 - 1e-9).ceil().clamp(1.0, n as f64) as usize;
    Some((s[rank - 1], n - rank))
}

/// A tail figure: the percentile reported, its value and how many
/// samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub beyond: usize,
}

/// The highest percentile of the ladder (99.9, 99, 95, 90, 75) that
/// has at least [`TAIL_MIN_BEYOND`] samples beyond it, or `None` when
/// the sample is too small for any of them.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    TAIL_LADDER.iter().find_map(|&p| {
        let (value, beyond) = percentile(xs, p)?;
        (beyond >= TAIL_MIN_BEYOND).then_some(Tail {
            percentile: p,
            value,
            beyond,
        })
    })
}

/// `p` if it qualifies as a tail for this sample (at least
/// [`TAIL_MIN_BEYOND`] samples beyond it), else `None`.
pub fn tail_at(xs: &[f64], p: f64) -> Option<Tail> {
    let (value, beyond) = percentile(xs, p)?;
    (beyond >= TAIL_MIN_BEYOND).then_some(Tail {
        percentile: p,
        value,
        beyond,
    })
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_is_nearest_rank_with_count_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 95.0), Some((95.0, 5)));
        assert_eq!(percentile(&xs, 50.0), Some((50.0, 50)));
        assert_eq!(percentile(&xs, 100.0), Some((100.0, 0)));
        // rank never falls below the first sample
        assert_eq!(percentile(&xs, 0.001), Some((1.0, 99)));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn p95_needs_two_hundred_samples() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&xs).expect("200 samples carry a tail");
        assert_eq!((t.percentile, t.value, t.beyond), (95.0, 190.0, 10));
        assert!(tail_at(&xs, 95.0).is_some());
        // one sample fewer and p95 has only nine beyond it: fall back to p90
        let t = tail(&xs[..199]).expect("199 samples carry a tail");
        assert_eq!((t.percentile, t.beyond), (90.0, 19));
        assert!(tail_at(&xs[..199], 95.0).is_none());
    }

    #[test]
    fn tail_ladder_and_small_samples() {
        let big: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&big).map(|t| t.percentile), Some(99.9));
        let thousand: Vec<f64> = (1..=1_000).map(f64::from).collect();
        assert_eq!(
            tail(&thousand).map(|t| (t.percentile, t.beyond)),
            Some((99.0, 10))
        );
        // 40 samples: p75 leaves exactly 10 beyond
        let forty: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(
            tail(&forty).map(|t| (t.percentile, t.beyond)),
            Some((75.0, 10))
        );
        // fewer than 40: not even p75 has ten beyond
        assert_eq!(tail(&forty[..39]), None);
        assert_eq!(tail(&[1.0, 2.0, 3.0]), None);
    }

    #[test]
    fn unsorted_input_is_handled() {
        let mut xs: Vec<f64> = (1..=200).map(f64::from).collect();
        xs.reverse();
        assert_eq!(tail(&xs).map(|t| t.value), Some(190.0));
        assert_eq!(median(&xs), Some(100.5));
    }
}
