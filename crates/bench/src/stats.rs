//! Tiny statistics helpers for experiment aggregation.

/// Mean of a sample (0 for empty input).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Maximum (0 for empty input).
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}

/// Linear-regression slope of `log2(y)` against `log2(x)` — the empirical
/// polynomial degree of a scaling curve. Used to verify shapes like
/// "probes grow polylogarithmically, error grows linearly in D".
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|&&(x, y)| x > 0.0 && y > 0.0)
        .map(|&(x, y)| (x.log2(), y.log2()))
        .collect();
    if pts.len() < 2 {
        return 0.0;
    }
    let mx = mean(&pts.iter().map(|p| p.0).collect::<Vec<_>>());
    let my = mean(&pts.iter().map(|p| p.1).collect::<Vec<_>>());
    let num: f64 = pts.iter().map(|&(x, y)| (x - mx) * (y - my)).sum();
    let den: f64 = pts.iter().map(|&(x, _)| (x - mx).powi(2)).sum();
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_moments() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(max(&[1.0, 9.0, 3.0]), 9.0);
    }

    #[test]
    fn slope_of_power_law() {
        // y = x²: slope 2 in log-log.
        let pts: Vec<(f64, f64)> = (1..=8).map(|i| (i as f64, (i * i) as f64)).collect();
        assert!((loglog_slope(&pts) - 2.0).abs() < 1e-9);
        // y = const: slope 0.
        let flat: Vec<(f64, f64)> = (1..=8).map(|i| (i as f64, 7.0)).collect();
        assert!(loglog_slope(&flat).abs() < 1e-9);
    }

    #[test]
    fn slope_ignores_nonpositive() {
        assert_eq!(loglog_slope(&[(0.0, 1.0), (1.0, 0.0)]), 0.0);
    }
}
