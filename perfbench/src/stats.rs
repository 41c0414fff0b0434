//! Order statistics and metric-name validation shared by every report the
//! benchmark prints.

/// Linear-interpolated quantile of `values` at `q ∈ [0, 1]`, the
/// "inclusive" definition (`q = 0` is the minimum, `q = 1` the maximum).
/// `None` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// Median (`0.0` for an empty sample, which callers never report).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).unwrap_or(0.0)
}

/// First and third quartiles exactly as Python's
/// `statistics.quantiles(values, n=4)` (its default "exclusive" method)
/// gives them — the definition the benchmark's spread is judged by. Like
/// Python, two-value samples extrapolate past the ends. Needs at least two
/// values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let len = values.len() as i64;
    if len < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |i: i64| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1) - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// The percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 90.0, 75.0, 50.0];

/// The highest percentile of [`TAIL_LADDER`] that leaves at least ten
/// samples beyond it in a sample of `n` — the tail a run of that size can
/// actually resolve. `None` when even the median has fewer than ten
/// samples above it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        // `n·(100 − p) ≥ 1000` with slack for the inexact `100 − 99.9`.
        .find(|&p| n as f64 * (100.0 - p) >= 1000.0 - 1e-6)
}

/// Checks a metric name: 1 to 64 characters of `[A-Za-z0-9_.-]`, starting
/// with a letter or digit.
pub fn check_metric_name(name: &str) -> Result<(), String> {
    let ok_len = (1..=64).contains(&name.len());
    let ok_first = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    let ok_chars = name
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'));
    if ok_len && ok_first && ok_chars {
        Ok(())
    } else {
        Err(format!("invalid metric name {name:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quantile(&v, 0.0), Some(10.0));
        assert_eq!(quantile(&v, 1.0), Some(50.0));
        assert_eq!(quantile(&v, 0.9), Some(46.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), Some((1.25, 3.75)));
        // statistics.quantiles([5, 9], n=4) == [4.0, 7.0, 10.0]
        assert_eq!(quartiles(&[9.0, 5.0]), Some((4.0, 10.0)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn metric_names_outside_the_alphabet_are_rejected() {
        for ok in [
            "run_s",
            "loader.wait_ms_p50",
            "preprocess.hop_s.3",
            "9lives",
            "a-b",
        ] {
            assert!(check_metric_name(ok).is_ok(), "{ok}");
        }
        for bad in [
            "",
            "_leading",
            ".leading",
            "has space",
            "per/sec",
            "quote\"",
            "ünï",
            &"x".repeat(65),
        ] {
            assert!(check_metric_name(bad).is_err(), "{bad:?}");
        }
    }
}
