//! Discrete probability distributions on ordered real supports — the
//! `µ_s` and `ν` objects of the paper (interpolated marginal pmfs on the
//! uniform support `Q`, Equation 11).

use serde::{Deserialize, Serialize};

use crate::error::{OtError, Result};

/// The total of the mass vector `masses`, named `name` in the error.
///
/// # Errors
/// [`OtError::InvalidMass`] on a negative or NaN entry, or on a total that
/// is not positive and finite.
pub(crate) fn mass_total(masses: &[f64], name: &str) -> Result<f64> {
    let mut total = 0.0;
    for (i, &x) in masses.iter().enumerate() {
        if x < 0.0 || x.is_nan() {
            return Err(OtError::InvalidMass(format!(
                "{name}[{i}] = {x} is negative or NaN"
            )));
        }
        total += x;
    }
    if total <= 0.0 || !total.is_finite() {
        return Err(OtError::InvalidMass(format!("{name} total {total}")));
    }
    Ok(total)
}

/// `masses` scaled to unit total, checked as by [`mass_total`].
pub(crate) fn normalized_mass(masses: &[f64], name: &str) -> Result<Vec<f64>> {
    let total = mass_total(masses, name)?;
    Ok(masses.iter().map(|x| x / total).collect())
}

/// A discrete probability distribution: strictly increasing support points
/// with matching normalized masses.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiscreteDistribution {
    support: Vec<f64>,
    masses: Vec<f64>,
}

impl DiscreteDistribution {
    /// Create from a support and (possibly unnormalized) masses.
    ///
    /// # Errors
    /// * [`OtError::EmptyInput`] on empty vectors.
    /// * [`OtError::LengthMismatch`] if lengths differ.
    /// * [`OtError::UnsortedSupport`] unless the support is strictly
    ///   increasing and finite.
    /// * [`OtError::InvalidMass`] on negative/NaN mass or zero total.
    pub fn new(support: Vec<f64>, masses: Vec<f64>) -> Result<Self> {
        if support.is_empty() {
            return Err(OtError::EmptyInput("support"));
        }
        if support.len() != masses.len() {
            return Err(OtError::LengthMismatch {
                what: "support vs masses",
                left: support.len(),
                right: masses.len(),
            });
        }
        if support.iter().any(|x| !x.is_finite()) {
            return Err(OtError::UnsortedSupport(
                "support contains non-finite points",
            ));
        }
        for w in support.windows(2) {
            if !(w[0] < w[1]) {
                return Err(OtError::UnsortedSupport("support"));
            }
        }
        let total = mass_total(&masses, "mass")?;
        let masses = masses.into_iter().map(|m| m / total).collect();
        Ok(Self { support, masses })
    }

    /// Uniform (empirical) distribution on the given points.
    ///
    /// The points are sorted and **deduplicated with merged mass**, so this
    /// is the empirical measure `µ_s = n⁻¹ Σ δ_{x_i}` of Equation (4).
    ///
    /// # Errors
    /// Returns an error on empty or non-finite input.
    pub fn empirical(points: &[f64]) -> Result<Self> {
        if points.is_empty() {
            return Err(OtError::EmptyInput("empirical points"));
        }
        if points.iter().any(|x| !x.is_finite()) {
            return Err(OtError::UnsortedSupport("points contain non-finite values"));
        }
        let mut sorted = points.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite points"));
        let w = 1.0 / points.len() as f64;
        let mut support: Vec<f64> = Vec::with_capacity(sorted.len());
        let mut masses: Vec<f64> = Vec::with_capacity(sorted.len());
        for x in sorted {
            match support.last() {
                Some(&last) if last == x => {
                    *masses.last_mut().expect("same length") += w;
                }
                _ => {
                    support.push(x);
                    masses.push(w);
                }
            }
        }
        Ok(Self { support, masses })
    }

    /// Number of support points.
    #[inline]
    pub fn len(&self) -> usize {
        self.support.len()
    }

    /// True if the distribution is a single point mass.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false // construction rejects empty supports
    }

    /// The support points (strictly increasing).
    #[inline]
    pub fn support(&self) -> &[f64] {
        &self.support
    }

    /// The normalized masses (sum to 1 within round-off).
    #[inline]
    pub fn masses(&self) -> &[f64] {
        &self.masses
    }

    /// Mean `Σ p_i x_i`.
    pub fn mean(&self) -> f64 {
        self.support
            .iter()
            .zip(&self.masses)
            .map(|(x, p)| x * p)
            .sum()
    }

    /// Variance `Σ p_i (x_i − mean)²`.
    pub fn variance(&self) -> f64 {
        let m = self.mean();
        self.support
            .iter()
            .zip(&self.masses)
            .map(|(x, p)| p * (x - m) * (x - m))
            .sum()
    }

    /// Cumulative masses `P(X ≤ support[i])`.
    pub fn cdf(&self) -> Vec<f64> {
        let mut acc = 0.0;
        let mut out = Vec::with_capacity(self.masses.len());
        for &m in &self.masses {
            acc += m;
            out.push(acc);
        }
        if let Some(last) = out.last_mut() {
            *last = 1.0; // absorb round-off
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_normalizes() {
        let d = DiscreteDistribution::new(vec![0.0, 1.0], vec![1.0, 3.0]).unwrap();
        assert!((d.masses()[0] - 0.25).abs() < 1e-15);
        assert!((d.masses()[1] - 0.75).abs() < 1e-15);
    }

    #[test]
    fn new_rejects_invalid() {
        assert!(DiscreteDistribution::new(vec![], vec![]).is_err());
        assert!(DiscreteDistribution::new(vec![0.0], vec![0.5, 0.5]).is_err());
        assert!(DiscreteDistribution::new(vec![1.0, 0.0], vec![0.5, 0.5]).is_err());
        assert!(DiscreteDistribution::new(vec![0.0, 0.0], vec![0.5, 0.5]).is_err());
        assert!(DiscreteDistribution::new(vec![0.0, 1.0], vec![-0.1, 1.1]).is_err());
        assert!(DiscreteDistribution::new(vec![0.0, 1.0], vec![0.0, 0.0]).is_err());
        assert!(DiscreteDistribution::new(vec![0.0, f64::NAN], vec![0.5, 0.5]).is_err());
    }

    #[test]
    fn empirical_sorts_and_dedups() {
        let d = DiscreteDistribution::empirical(&[2.0, 1.0, 2.0, 3.0]).unwrap();
        assert_eq!(d.support(), &[1.0, 2.0, 3.0]);
        assert!((d.masses()[0] - 0.25).abs() < 1e-15);
        assert!((d.masses()[1] - 0.5).abs() < 1e-15);
        assert!((d.masses()[2] - 0.25).abs() < 1e-15);
    }

    #[test]
    fn empirical_rejects_bad_points() {
        assert!(DiscreteDistribution::empirical(&[]).is_err());
        assert!(DiscreteDistribution::empirical(&[1.0, f64::INFINITY]).is_err());
    }

    #[test]
    fn moments() {
        let d = DiscreteDistribution::new(vec![0.0, 2.0], vec![0.5, 0.5]).unwrap();
        assert!((d.mean() - 1.0).abs() < 1e-15);
        assert!((d.variance() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn cdf_ends_at_one() {
        let d = DiscreteDistribution::new(vec![0.0, 1.0, 2.0], vec![0.2, 0.3, 0.5]).unwrap();
        let cdf = d.cdf();
        assert!((cdf[0] - 0.2).abs() < 1e-15);
        assert!((cdf[1] - 0.5).abs() < 1e-15);
        assert_eq!(cdf[2], 1.0);
    }

    #[test]
    fn serde_round_trip() {
        let d = DiscreteDistribution::new(vec![0.0, 1.5], vec![0.4, 0.6]).unwrap();
        let json = serde_json::to_string(&d).unwrap();
        let back: DiscreteDistribution = serde_json::from_str(&json).unwrap();
        assert_eq!(d, back);
    }
}
