//! Order statistics for latency samples.
//!
//! Percentiles are nearest-rank and are refused unless at least
//! [`MIN_BEYOND`] samples lie beyond them: a p95 over 60 samples is the
//! third-worst sample, which flaps from run to run.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Sort a sample set ascending (NaN-free by construction: all samples are
/// elapsed times or counts).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Median of an ascending sample set (mean of the two middle samples for
/// an even count). `None` when empty.
pub fn median(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile `p` (0 < p < 100) of an ascending sample set:
/// the sample at rank `ceil(p/100 * n)`. `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond that rank.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} out of range");
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// A p95 that one slow spell cannot move: each time-ordered series (one
/// per client session) is cut into up to `windows` equal windows, each
/// large enough for its own p95, and the median of the windows' p95s is
/// returned. A background flush that slows 300 ms of a phase lifts one
/// window, not the result. `None` when no series supports even one p95.
pub fn windowed_p95(series: &[&[f64]], windows: usize) -> Option<f64> {
    const MIN_WINDOW: usize = 20 * MIN_BEYOND;
    let mut p95s = Vec::new();
    for s in series {
        let k = (s.len() / MIN_WINDOW).clamp(1, windows.max(1));
        for w in 0..k {
            let chunk = &s[w * s.len() / k..(w + 1) * s.len() / k];
            p95s.extend(percentile(&sorted(chunk.to_vec()), 95.0));
        }
    }
    median(&sorted(p95s))
}

/// Geometric mean of per-class medians. Every class counts the same
/// however often it ran, and — unlike a pooled median, which with
/// equal-share classes lands on a class boundary and flaps between two
/// classes — it moves smoothly when any one class moves. `None` when
/// there is no class or a median is not positive.
pub fn geomean_of_medians(classes: &[Vec<f64>]) -> Option<f64> {
    if classes.is_empty() {
        return None;
    }
    let mut log_sum = 0.0;
    for samples in classes {
        let m = median(&sorted(samples.clone()))?;
        if m <= 0.0 {
            return None;
        }
        log_sum += m.ln();
    }
    Some((log_sum / classes.len() as f64).exp())
}

/// Median of an unsorted sample set, 0 when empty (per-layer metrics
/// report 0 for "did not occur on this workload").
pub fn median_or_zero(samples: &[f64]) -> f64 {
    median(&sorted(samples.to_vec())).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[1.0, 2.0, 9.0]), Some(2.0));
        assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), Some(3.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        // rank = ceil(0.95 * 200) = 190; 10 samples lie beyond it.
        assert_eq!(percentile(&s, 95.0), Some(190.0));
        assert_eq!(percentile(&s, 50.0), Some(100.0));
    }

    #[test]
    fn percentile_refuses_thin_tails() {
        // 199 samples: rank 190, only 9 beyond.
        let s: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(percentile(&s, 95.0), None);
        assert_eq!(percentile(&s, 99.0), None);
        assert!(percentile(&s, 90.0).is_some());
        assert_eq!(percentile(&[], 95.0), None);
    }

    #[test]
    fn windowed_p95_ignores_one_slow_spell() {
        // 1000 samples of 1.0 with a 100-sample spell of 50.0: the pooled
        // p95 is 50, four of five windows never see the spell.
        let mut s = vec![1.0; 1000];
        for v in &mut s[300..400] {
            *v = 50.0;
        }
        assert_eq!(percentile(&sorted(s.clone()), 95.0), Some(50.0));
        assert_eq!(windowed_p95(&[&s], 5), Some(1.0));
        // Too short for five windows: falls back to fewer, then to none.
        assert_eq!(windowed_p95(&[&s[..399]], 5), Some(50.0));
        assert_eq!(windowed_p95(&[&s[..150]], 5), None);
        // Two sessions contribute windows side by side.
        let quiet = vec![2.0; 400];
        assert_eq!(windowed_p95(&[&s, &quiet], 2), Some(2.0));
    }

    #[test]
    fn geomean_weights_classes_equally() {
        // Medians 1, 10 and 100 → geometric mean 10, however many samples
        // each class has.
        let classes = vec![
            vec![1.0; 1000],
            vec![9.0, 10.0, 11.0],
            vec![100.0, 100.0, 50.0, 200.0, 100.0],
        ];
        let g = geomean_of_medians(&classes).unwrap();
        assert!((g - 10.0).abs() < 1e-9, "{g}");
        assert_eq!(geomean_of_medians(&[]), None);
        assert_eq!(geomean_of_medians(&[vec![]]), None);
        assert_eq!(geomean_of_medians(&[vec![0.0]]), None);
    }
}
