//! Order statistics, the tail-percentile rule and the ledger residuals.

/// Median (mean of the two middle values for an even count); 0 when
/// empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Interquartile mean: the mean of the samples left after dropping the
/// lowest and the highest quarter by rank (`⌊n/4⌋` from each end); 0 when
/// empty. Unlike the median it moves smoothly with the share of slow
/// samples, so a run that is half in a slower phase of the machine does
/// not jump from one mode of the latency mix to another.
pub fn interquartile_mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let cut = s.len() / 4;
    let mid = &s[cut..s.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Nearest-rank quantile (`q` in `[0, 1]`); 0 when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Which percentile (0–100) the value sits at.
    pub percentile: f64,
    pub value: f64,
    /// Sample count it was taken from.
    pub samples: usize,
}

/// The sample with exactly [`TAIL_BEYOND`] samples above it in rank, and
/// its percentile; `None` when there are `TAIL_BEYOND` samples or fewer
/// (no sample has ten beyond it).
pub fn tail(v: &[f64]) -> Option<Tail> {
    let n = v.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let idx = n - 1 - TAIL_BEYOND;
    Some(Tail { percentile: 100.0 * (idx + 1) as f64 / n as f64, value: s[idx], samples: n })
}

/// The lowest percentile still reported as a tail; below it the sample
/// is too small for one.
pub const TAIL_MIN_PERCENTILE: f64 = 90.0;

/// `latency_tail_ms`: the [`tail`] when it sits at or above
/// [`TAIL_MIN_PERCENTILE`], else the maximum (0 when empty). The second
/// value says which.
pub fn tail_or_max(v: &[f64]) -> (f64, Option<Tail>) {
    match tail(v).filter(|t| t.percentile >= TAIL_MIN_PERCENTILE) {
        Some(t) => (t.value, Some(t)),
        None => (v.iter().copied().fold(0.0, f64::max), None),
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Share of the service's execution time the solver layers do not
/// account for: `|Σ exec − (prep + packing solve + mixed solve)| ÷ Σ exec`.
pub fn exec_residual(exec_ms: f64, prep_ms: f64, solve_ms: f64, mixed_ms: f64) -> f64 {
    ratio((exec_ms - (prep_ms + solve_ms + mixed_ms)).abs(), exec_ms)
}

/// Share of the front end's own time that parsing and rendering do not
/// account for: `|frontend − (parse + render)| ÷ |frontend|`. The front
/// end's time is a difference of two measured sums, so where it is small
/// it can come out negative.
pub fn frontend_residual(frontend_ms: f64, parse_ms: f64, render_ms: f64) -> f64 {
    ratio((frontend_ms - (parse_ms + render_ms)).abs(), frontend_ms.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
    }

    #[test]
    fn interquartile_mean_drops_a_quarter_from_each_end() {
        assert_eq!(interquartile_mean(&[]), 0.0);
        assert_eq!(interquartile_mean(&[5.0]), 5.0);
        // Fewer than four samples: nothing is dropped.
        assert_eq!(interquartile_mean(&[1.0, 2.0, 6.0]), 3.0);
        // Four samples: the two middle ones, as the median.
        assert_eq!(interquartile_mean(&[9.0, 1.0, 3.0, 5.0]), 4.0);
        // Eight samples, unsorted, with outliers at both ends.
        let v = [1000.0, 2.0, 4.0, 0.0, 6.0, 3.0, 5.0, -1000.0];
        assert_eq!(interquartile_mean(&v), 3.5);
        // A two-mode mix: the median jumps between the modes as one
        // sample moves; the interquartile mean moves by a fraction.
        let fast = [60.0; 5];
        let slow = [100.0; 5];
        let a: Vec<f64> = fast.iter().chain(&slow[..4]).copied().collect();
        let b: Vec<f64> = fast[..4].iter().chain(&slow).copied().collect();
        assert_eq!((median(&a), median(&b)), (60.0, 100.0));
        let (ia, ib) = (interquartile_mean(&a), interquartile_mean(&b));
        assert!(ib - ia < 10.0, "{ia} {ib}");
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        assert_eq!(tail(&[]), None);
        // Eleven samples: only the smallest has ten beyond it.
        let eleven: Vec<f64> = (1..=11).rev().map(f64::from).collect();
        let t = tail(&eleven).unwrap();
        assert_eq!(t.value, 1.0);
        assert_eq!(t.samples, 11);
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn tail_is_the_eleventh_largest() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!(t.value, 990.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
        assert!((t.percentile - 99.0).abs() < 1e-12);
    }

    #[test]
    fn small_samples_report_their_maximum() {
        // 100 samples: p90 has ten beyond it, so it is the tail.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, t) = tail_or_max(&v);
        assert_eq!((value, t.map(|t| t.percentile)), (90.0, Some(90.0)));
        // 99 samples: the best percentile is below p90; report the max.
        let (value, t) = tail_or_max(&v[..99]);
        assert_eq!((value, t), (99.0, None));
        assert_eq!(tail_or_max(&[3.0, 7.0, 5.0]), (7.0, None));
        assert_eq!(tail_or_max(&[]), (0.0, None));
    }

    #[test]
    fn ledger_residuals() {
        // Execution fully explained by the solver layers.
        assert_eq!(exec_residual(100.0, 10.0, 80.0, 10.0), 0.0);
        // 25 ms of 100 unexplained; over-explaining counts the same way.
        assert!((exec_residual(100.0, 5.0, 60.0, 10.0) - 0.25).abs() < 1e-12);
        assert!((exec_residual(100.0, 5.0, 110.0, 10.0) - 0.25).abs() < 1e-12);
        assert_eq!(exec_residual(0.0, 1.0, 1.0, 1.0), 0.0);
        assert!((frontend_residual(40.0, 4.0, 26.0) - 0.25).abs() < 1e-12);
        assert_eq!(frontend_residual(40.0, 10.0, 30.0), 0.0);
        assert_eq!(frontend_residual(0.0, 1.0, 1.0), 0.0);
        assert!((frontend_residual(-10.0, 1.0, 4.0) - 1.5).abs() < 1e-12);
    }
}
