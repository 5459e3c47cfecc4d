//! Order statistics used by every workload and by `--compare`.

/// Samples that must lie strictly beyond a reported percentile: a tail
/// estimate resting on fewer is noise.
pub const MIN_BEYOND: usize = 10;

/// Median of `v` (mean of the middle pair for even lengths); `None` when
/// empty.
pub fn median(v: &[f64]) -> Option<f64> {
    let s = sorted(v);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile `q` in `(0, 1)`: the smallest sample with at
/// least `q·n` samples at or below it. `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond that rank.
pub fn percentile(v: &[f64], q: f64) -> Option<f64> {
    let s = sorted(v);
    let n = s.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if rank > n || n - rank < MIN_BEYOND {
        return None;
    }
    Some(s[rank - 1])
}

/// Samples needed before [`percentile`] can report `q`.
pub fn samples_for(q: f64) -> usize {
    (1..)
        .find(|&n| {
            let rank = ((q * n as f64).ceil() as usize).max(1);
            rank <= n && n - rank >= MIN_BEYOND
        })
        .expect("some sample count always suffices")
}

/// First and third quartiles by the "exclusive" method, the default of
/// Python's `statistics.quantiles(v, n=4)`; `None` below two samples.
pub fn quartiles(v: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(v);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median: the run-to-run
/// spread a bound in `BENCHMARK.json` has to exceed.
pub fn spread(v: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(v)?;
    let med = median(v)?;
    Some(if med == 0.0 {
        if q3 == q1 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (q3 - q1) / med.abs()
    })
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn nearest_rank_needs_ten_samples_beyond() {
        // 100 samples 1..=100: p90 is the 90th value with 10 beyond it.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.90), Some(90.0));
        // 99 samples: rank 90 leaves only 9 beyond.
        assert_eq!(percentile(&v[..99], 0.90), None);
        // p50 needs 20; p99 needs 1000.
        assert_eq!(percentile(&v[..19], 0.50), None);
        assert_eq!(percentile(&v[..20], 0.50), Some(10.0));
        assert_eq!(percentile(&v, 0.99), None);
        assert_eq!(samples_for(0.90), 100);
        assert_eq!(samples_for(0.50), 20);
        assert_eq!(samples_for(0.99), 1000);
    }

    #[test]
    fn nearest_rank_ignores_input_order() {
        let mut v: Vec<f64> = (1..=200).map(f64::from).collect();
        v.reverse();
        assert_eq!(percentile(&v, 0.95), Some(190.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        assert_eq!(
            quartiles(&[10.0, 20.0, 30.0, 40.0, 50.0]),
            Some((15.0, 45.0))
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = spread(&v).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[7.0; 10]), Some(0.0));
    }
}
