//! Empirical sample quantiles.
//!
//! (The quantile function of a pmf on an ordered support, which the 1-D
//! Wasserstein-2 barycentre interpolates, is `otr_ot::interp::MidpointCdf`.)

use crate::error::{Result, StatsError};

/// Type-7 (linear interpolation) empirical quantile of a sample.
///
/// # Errors
/// Returns an error for an empty sample, non-finite data, or `p ∉ [0,1]`.
pub fn empirical_quantile(sample: &[f64], p: f64) -> Result<f64> {
    if sample.is_empty() {
        return Err(StatsError::EmptyInput("quantile sample"));
    }
    if !(0.0..=1.0).contains(&p) || p.is_nan() {
        return Err(StatsError::InvalidParameter {
            name: "p",
            reason: format!("must be in [0,1], got {p}"),
        });
    }
    if sample.iter().any(|x| !x.is_finite()) {
        return Err(StatsError::InvalidParameter {
            name: "sample",
            reason: "contains non-finite values".into(),
        });
    }
    let mut v = sample.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite data"));
    let idx = p * (v.len() - 1) as f64;
    let lo = idx.floor() as usize;
    let hi = idx.ceil() as usize;
    let frac = idx - lo as f64;
    Ok(v[lo] * (1.0 - frac) + v[hi] * frac)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empirical_quantile_basics() {
        let v = [3.0, 1.0, 2.0];
        assert_eq!(empirical_quantile(&v, 0.0).unwrap(), 1.0);
        assert_eq!(empirical_quantile(&v, 1.0).unwrap(), 3.0);
        assert_eq!(empirical_quantile(&v, 0.5).unwrap(), 2.0);
        // Interpolated.
        assert!((empirical_quantile(&v, 0.25).unwrap() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn empirical_quantile_rejects_bad_input() {
        assert!(empirical_quantile(&[], 0.5).is_err());
        assert!(empirical_quantile(&[1.0], -0.1).is_err());
        assert!(empirical_quantile(&[1.0], 1.5).is_err());
        assert!(empirical_quantile(&[f64::NAN], 0.5).is_err());
    }
}
