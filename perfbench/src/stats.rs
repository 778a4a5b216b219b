//! Order statistics and the capacity rule shared by every workload.

/// Samples a reported tail percentile must have beyond its rank.
pub const TAIL_SUPPORT: usize = 10;

/// Sorts a sample ascending (total order, so NaN cannot scramble it).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Nearest-rank percentile `p` (in percent) of an ascending sample: the
/// value at rank ⌈p·n/100⌉. Returns `None` for an empty sample, or when
/// fewer than `min_beyond` samples lie beyond that rank, so a reported tail
/// rests on observed tail samples rather than on the largest few.
pub fn percentile(sorted: &[f64], p: u32, min_beyond: usize) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || p > 100 {
        return None;
    }
    let rank = (p as usize * n).div_ceil(100).max(1);
    (n - rank >= min_beyond).then(|| sorted[rank - 1])
}

/// Median of a sample (mean of the middle pair for even sizes); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Mean of a sample; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Serving capacity in requests per second: requests served per second of
/// service time, given each request's service time in seconds. By the
/// utilization law this is the offered rate of the same mix at which one
/// shard is busy all the time, above which its backlog grows. 0 when
/// empty.
pub fn capacity_rps(service_s: &[f64]) -> f64 {
    let busy: f64 = service_s.iter().sum();
    if busy > 0.0 {
        service_s.len() as f64 / busy
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50, 0), Some(5.0));
        assert_eq!(percentile(&s, 90, 0), Some(9.0));
        assert_eq!(percentile(&s, 91, 0), Some(10.0));
        assert_eq!(percentile(&s, 100, 0), Some(10.0));
        assert_eq!(percentile(&s, 0, 0), Some(1.0));
        assert_eq!(percentile(&[], 50, 0), None);
        assert_eq!(percentile(&s, 101, 0), None);
    }

    #[test]
    fn refuses_tail_without_ten_samples_beyond() {
        let s: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(percentile(&s, 99, TAIL_SUPPORT), None);
        let s: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(percentile(&s, 99, TAIL_SUPPORT), Some(989.0));
        let s: Vec<f64> = (0..199).map(f64::from).collect();
        assert_eq!(percentile(&s, 95, TAIL_SUPPORT), None);
        let s: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(percentile(&s, 95, TAIL_SUPPORT), Some(189.0));
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn capacity_is_requests_per_busy_second() {
        // Five 4 ms alerts and one 40 ms window: 6 requests per 60 ms.
        let mix = [0.004, 0.004, 0.004, 0.004, 0.004, 0.040];
        assert!((capacity_rps(&mix) - 100.0).abs() < 1e-9);
        // Twice the service time, half the capacity.
        let slower: Vec<f64> = mix.iter().map(|s| 2.0 * s).collect();
        assert!((capacity_rps(&slower) - 50.0).abs() < 1e-9);
        assert_eq!(capacity_rps(&[]), 0.0);
    }
}
