//! Sample summaries: the median, the tail-percentile rule, and the
//! process's peak resident set.

/// Median of `xs` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;
/// Below this many samples the "tail" would be no tail: report the median.
pub const TAIL_MIN_SAMPLES: usize = 40;

/// The tail rule: with fewer than [`TAIL_MIN_SAMPLES`] samples, the
/// median; otherwise the highest nearest-rank percentile that leaves at
/// least [`TAIL_BEYOND`] samples beyond it, i.e. rank `n - 10` of `n`.
/// Returns the value and the percentile it sits at (50 for the median).
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n < TAIL_MIN_SAMPLES {
        return median(xs).map(|m| (m, 50.0));
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = n - TAIL_BEYOND; // 1-based nearest rank
    Some((v[rank - 1], 100.0 * rank as f64 / n as f64))
}

/// Peak resident set of this process, MiB (`VmHWM`). `None` where the
/// kernel does not expose it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the helpers must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn below_forty_samples_the_tail_is_the_median() {
        assert_eq!(tail(&ramp(39)), Some((20.0, 50.0)));
        assert_eq!(tail(&ramp(1)), Some((1.0, 50.0)));
    }

    #[test]
    fn forty_samples_give_p75_with_ten_beyond() {
        // 1..=40: rank 30 is 30.0, and 31..=40 are the ten beyond it.
        assert_eq!(tail(&ramp(40)), Some((30.0, 75.0)));
    }

    #[test]
    fn larger_runs_climb_towards_the_top() {
        assert_eq!(tail(&ramp(100)), Some((90.0, 90.0)));
        assert_eq!(tail(&ramp(1000)), Some((990.0, 99.0)));
        let (v, p) = tail(&ramp(4800)).unwrap_or((0.0, 0.0));
        assert_eq!(v, 4790.0);
        assert!((p - 99.7917).abs() < 1e-3);
    }

    #[test]
    fn ties_still_leave_ten_samples_by_position() {
        let mut xs = vec![1.0; 30];
        xs.extend(vec![5.0; 20]);
        // n = 50, rank 40: the value there is 5.0 — ten 5.0s follow it.
        assert_eq!(tail(&xs), Some((5.0, 80.0)));
    }
}
