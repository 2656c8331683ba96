//! Order statistics and process readings used by every workload.

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean over the non-empty groups of each group's median; 0 for none.
/// Samples from several inputs form clusters, one per input: a median
/// over all of them lands in whichever cluster is in the middle, while
/// this weighs each input alike.
pub fn mean_of_medians(groups: &[Vec<f64>]) -> f64 {
    let medians: Vec<f64> = groups
        .iter()
        .filter(|g| !g.is_empty())
        .map(|g| median(g))
        .collect();
    if medians.is_empty() {
        return 0.0;
    }
    medians.iter().sum::<f64>() / medians.len() as f64
}

/// Nearest-rank percentile `q` in `[0, 1]` of `values`; 0 for no values.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Share of an end-to-end time that the timed layer parts account for.
pub fn coverage(parts: &[f64], total: f64) -> f64 {
    if total <= 0.0 {
        return 0.0;
    }
    parts.iter().sum::<f64>() / total
}

/// `VmHWM` (peak resident set) in MiB from the text of `/proc/<pid>/status`.
pub fn vmhwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// This process's peak resident set in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .as_deref()
        .and_then(vmhwm_mib)
        .expect("VmHWM readable from /proc/self/status")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn mean_of_medians_weighs_groups_alike() {
        let groups = vec![vec![1.0, 9.0, 2.0], vec![], vec![4.0, 6.0]];
        assert_eq!(mean_of_medians(&groups), 3.5);
        // One slow outlier in a group moves only that group's median.
        let groups = vec![vec![2.0, 2.0, 100.0], vec![4.0]];
        assert_eq!(mean_of_medians(&groups), 3.0);
        assert_eq!(mean_of_medians(&[vec![], vec![]]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.99), 0.0);
        // A single slow sample in a thousand moves p99 no further than the
        // tenth-slowest value.
        let mut w = vec![1.0; 1000];
        w[17] = 1e6;
        assert_eq!(percentile(&w, 0.99), 1.0);
    }

    #[test]
    fn coverage_is_sum_over_total() {
        assert!((coverage(&[1.0, 2.0, 1.0], 5.0) - 0.8).abs() < 1e-12);
        assert_eq!(coverage(&[1.0], 0.0), 0.0);
    }

    #[test]
    fn vmhwm_parses_kib_line() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  300000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(vmhwm_mib(status), Some(50.0));
        assert_eq!(vmhwm_mib("Name:\tx\n"), None);
        assert!(peak_rss_mib() > 0.0);
    }
}
