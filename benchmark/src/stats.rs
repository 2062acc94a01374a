//! Sample statistics and the open-loop clock arithmetic. Everything is
//! plain `f64` so the hand-made cases in the tests pin the rules.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> Option<f64> {
    let s = sorted(v.to_vec());
    match s.len() {
        0 => None,
        n if n % 2 == 1 => Some(s[n / 2]),
        n => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First, second and third quartile by the rule of Python's
/// `statistics.quantiles(v, n=4)` (exclusive method), which is what
/// the driver applies to ten runs; `None` below two samples.
pub fn quartiles(v: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(v.to_vec());
    let n = s.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    Some([cut(1), cut(2), cut(3)])
}

/// Interquartile distance as a share of the median.
pub fn spread(v: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(v)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// When the `i`-th operation of an open loop is due, in seconds after
/// the loop's origin.
pub fn due_at(i: u64, period_s: f64) -> f64 {
    i as f64 * period_s
}

/// How late the generator started an operation (never negative: an
/// early wake-up is the sleep's rounding, not a head start).
pub fn lateness(due_s: f64, started_s: f64) -> f64 {
    (started_s - due_s).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(5.0));
        assert_eq!(percentile(&s, 90.0), Some(9.0));
        assert_eq!(percentile(&s, 99.0), Some(10.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.5], 90.0), Some(7.5));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), Some([1.0, 2.0, 4.0]));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some([7.5, 15.0, 22.5]));
        assert_eq!(quartiles(&[1.0]), None);
        let s = spread(&v).unwrap();
        assert!((s - 1.0).abs() < 1e-12, "{s}");
    }

    #[test]
    fn open_loop_times_from_due_not_from_send() {
        // Batch 3 of a 125 ms schedule is due at 375 ms. A loader that
        // was stalled until 500 ms and then needed 10 ms reports
        // 135 ms, and its lateness is 125 ms.
        let due = due_at(3, 0.125);
        assert_eq!(due, 0.375);
        assert_eq!(lateness(due, 0.5), 0.125);
        assert!(((0.510 - due) - 0.135).abs() < 1e-12);
        assert_eq!(lateness(due, 0.3749), 0.0);
    }
}
