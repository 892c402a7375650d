//! Exact order statistics over kept samples — no histogram anywhere, so
//! a percentile never lands on a bucket edge.

/// The `q`-quantile (`0.0..=1.0`) of an ascending-sorted sample by the
/// nearest-rank rule: the smallest value with at least `q` of the sample
/// at or below it. Empty input answers 0.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `samples` in place and answers its `q`-quantile.
pub fn percentile_of(samples: &mut [u64], q: f64) -> u64 {
    samples.sort_unstable();
    percentile(samples, q)
}

/// Median of a float sample (mean of the middle pair for even sizes).
/// Empty input answers 0.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
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

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// gives them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Run-to-run spread of a metric: the distance between the first and the
/// third quartile as a share of the median. `None` below two values or
/// for a zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let med = median(values);
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// Throughput of a phase cut into equal slices: the median slice rate,
/// so one stalled slice cannot move the answer.
pub fn slice_median_rate(per_slice: &[u64], slice_secs: f64) -> f64 {
    let rates: Vec<f64> = per_slice.iter().map(|&c| c as f64 / slice_secs).collect();
    median(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_sample_values() {
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&sorted, 0.5), 500);
        assert_eq!(percentile(&sorted, 0.9), 900);
        assert_eq!(percentile(&sorted, 0.99), 990);
        assert_eq!(percentile(&sorted, 0.999), 999);
        assert_eq!(percentile(&sorted, 1.0), 1000);
        assert_eq!(percentile(&sorted, 0.0), 1);
        // Never an interpolated or bucket-edge value: always a sample.
        let odd = [3u64, 7, 7, 19, 252, 253, 254];
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert!(odd.contains(&percentile(&odd, q)));
        }
        assert_eq!(percentile(&odd, 0.99), 254);
        assert_eq!(percentile(&[], 0.5), 0);
        let mut unsorted = [9u64, 1, 5];
        assert_eq!(percentile_of(&mut unsorted, 0.5), 5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some([7.5, 15.0, 22.5]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]),
            Some([1.5, 4.0, 12.0])
        );
        assert_eq!(quartiles(&[1.0]), None);
        let s = spread(&v).unwrap();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn slice_median_ignores_one_stalled_slice() {
        // Four healthy 3-second slices and one the host stalled through.
        let rate = slice_median_rate(&[300_000, 299_000, 12, 301_000, 300_500], 3.0);
        assert_eq!(rate, 300_000.0 / 3.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
    }
}
