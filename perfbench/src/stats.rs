//! Small numeric helpers: percentiles with their sample rule, medians,
//! guarded ratios, metric-name validation and deterministic hashing.

/// A percentile is only reported when at least this many samples lie
/// beyond it; otherwise the tail it claims to describe is a handful of
/// outliers.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Nearest-rank percentile of `samples` (`p` in `(0, 100]`), with the
/// number of samples strictly beyond the selected one. `None` when
/// `samples` is empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<(f64, usize)> {
    if samples.is_empty() || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let idx = rank.clamp(1, n) - 1;
    Some((sorted[idx], n - 1 - idx))
}

/// Like [`percentile`], but refuses a percentile with fewer than
/// [`MIN_SAMPLES_BEYOND`] samples beyond it.
pub fn checked_percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    match percentile(samples, p) {
        None => Err(format!("p{p} of an empty sample set")),
        Some((_, beyond)) if beyond < MIN_SAMPLES_BEYOND => Err(format!(
            "p{p} of {} samples has only {beyond} beyond it (need {MIN_SAMPLES_BEYOND})",
            samples.len()
        )),
        Some((v, _)) => Ok(v),
    }
}

/// Samples a nearest-rank `p` needs so that [`MIN_SAMPLES_BEYOND`] lie
/// beyond it.
pub fn samples_needed(p: f64) -> usize {
    (1..)
        .find(|&n| percentile(&vec![0.0; n], p).is_some_and(|(_, b)| b >= MIN_SAMPLES_BEYOND))
        .expect("some sample count satisfies any p below 100")
}

/// Median (mean of the middle pair for an even count); `0.0` when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// `num / den`, or `0.0` when the denominator is zero (a layer that did
/// no work on a workload reports 0, not NaN).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A metric name: non-empty, at most 64 characters of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// SplitMix64 step: derives independent sub-seeds from the command-line
/// seed.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into an FNV-1a hash.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_with_count_beyond() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some((50.0, 50)));
        assert_eq!(percentile(&s, 99.0), Some((99.0, 1)));
        assert_eq!(percentile(&s, 100.0), Some((100.0, 0)));
        assert_eq!(percentile(&[7.0], 50.0), Some((7.0, 0)));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&s, 0.0), None);
        // Order of the input does not matter.
        let rev: Vec<f64> = s.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 90.0), Some((90.0, 10)));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(checked_percentile(&s, 90.0), Ok(90.0));
        assert!(checked_percentile(&s, 99.0).is_err());
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(checked_percentile(&s, 99.0), Ok(990.0));
        assert!(checked_percentile(&[], 50.0).is_err());
        assert_eq!(samples_needed(50.0), 20);
        assert_eq!(samples_needed(90.0), 100);
        assert_eq!(samples_needed(99.0), 1000);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn ratio_guards_a_zero_denominator() {
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(0.0, 0.0), 0.0);
    }

    #[test]
    fn metric_names_are_checked() {
        for ok in [
            "wall_s",
            "ttfc_ms.p99",
            "simkernel.ns_per_event",
            "a-b",
            "9x",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", ".x", "_x", "a b", "a/b", "µs", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn splitmix_and_fnv_are_stable() {
        assert_ne!(splitmix64(0), splitmix64(1));
        assert_eq!(splitmix64(7), splitmix64(7));
        assert_eq!(fnv1a(FNV_BASIS, b""), FNV_BASIS);
        assert_eq!(fnv1a(FNV_BASIS, b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
