//! Cole–Cole tissue impedance models.
//!
//! The paper's Section V sweeps the injection frequency over
//! {2, 10, 50, 100} kHz because tissue impedance is dispersive: at low
//! frequency current flows only through extracellular fluid (higher
//! impedance), at high frequency it also penetrates cell membranes (lower
//! impedance) \[27\], \[30\]. The standard phenomenological model for this is
//! the Cole–Cole equation
//!
//! ```text
//! Z(f) = R∞ + (R0 − R∞) / (1 + (j·2πf·τ)^α)
//! ```
//!
//! with `R0` the zero-frequency resistance, `R∞` the infinite-frequency
//! resistance, `τ` the characteristic time constant and `α ∈ (0, 1]` the
//! dispersion broadening exponent.
//!
//! Body measurement paths are series compositions of segments
//! ([`BodyPath`]): the traditional chest setup sees essentially the thorax;
//! the hand-to-hand touch path sees arm–thorax–arm in series plus the
//! skin–electrode polarization interface ([`ElectrodePolarization`]).

use crate::PhysioError;

/// A single Cole–Cole dispersion element.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ColeCole {
    r0: f64,
    r_inf: f64,
    tau_s: f64,
    alpha: f64,
}

impl ColeCole {
    /// Creates a Cole–Cole element.
    ///
    /// # Errors
    ///
    /// Returns [`PhysioError::InvalidParameter`] unless
    /// `r0 > r_inf > 0`, `tau_s > 0` and `0 < alpha <= 1`.
    pub fn new(r0: f64, r_inf: f64, tau_s: f64, alpha: f64) -> Result<Self, PhysioError> {
        if !(r_inf > 0.0 && r0 > r_inf) {
            return Err(PhysioError::InvalidParameter {
                name: "r0/r_inf",
                value: r0,
                constraint: "must satisfy r0 > r_inf > 0",
            });
        }
        if !(tau_s > 0.0 && tau_s.is_finite()) {
            return Err(PhysioError::InvalidParameter {
                name: "tau_s",
                value: tau_s,
                constraint: "must be positive and finite",
            });
        }
        if !(alpha > 0.0 && alpha <= 1.0) {
            return Err(PhysioError::InvalidParameter {
                name: "alpha",
                value: alpha,
                constraint: "must be in (0, 1]",
            });
        }
        Ok(Self {
            r0,
            r_inf,
            tau_s,
            alpha,
        })
    }

    /// Zero-frequency resistance `R0` in ohms.
    #[must_use]
    pub fn r0(&self) -> f64 {
        self.r0
    }

    /// Infinite-frequency resistance `R∞` in ohms.
    #[must_use]
    pub fn r_inf(&self) -> f64 {
        self.r_inf
    }

    /// Complex impedance at frequency `f` hertz, as `(re, im)` ohms.
    #[must_use]
    pub fn impedance_at(&self, f: f64) -> (f64, f64) {
        if f <= 0.0 {
            return (self.r0, 0.0);
        }
        // (jωτ)^α = (ωτ)^α · e^{jαπ/2}
        let wt = (2.0 * std::f64::consts::PI * f * self.tau_s).powf(self.alpha);
        let phi = self.alpha * std::f64::consts::FRAC_PI_2;
        let (dre, dim) = (1.0 + wt * phi.cos(), wt * phi.sin());
        let den = dre * dre + dim * dim;
        let delta = self.r0 - self.r_inf;
        (self.r_inf + delta * dre / den, -delta * dim / den)
    }

    /// Impedance magnitude at frequency `f` hertz, in ohms.
    #[must_use]
    pub fn magnitude_at(&self, f: f64) -> f64 {
        let (re, im) = self.impedance_at(f);
        (re * re + im * im).sqrt()
    }
}

/// Skin–electrode polarization interface, modelled as a constant-phase
/// element `Z_ep(f) = K / (2πf)^β` in magnitude. Finger contact (dry skin,
/// small area) has a much larger `K` than gelled chest electrodes, which is
/// one of the two reasons the touch measurement differs from the
/// traditional one.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ElectrodePolarization {
    k: f64,
    beta: f64,
}

impl ElectrodePolarization {
    /// Creates a constant-phase polarization element.
    ///
    /// # Errors
    ///
    /// Returns [`PhysioError::InvalidParameter`] unless `k >= 0` and
    /// `0 < beta < 1`.
    pub fn new(k: f64, beta: f64) -> Result<Self, PhysioError> {
        if !(k >= 0.0 && k.is_finite()) {
            return Err(PhysioError::InvalidParameter {
                name: "k",
                value: k,
                constraint: "must be non-negative and finite",
            });
        }
        if !(beta > 0.0 && beta < 1.0) {
            return Err(PhysioError::InvalidParameter {
                name: "beta",
                value: beta,
                constraint: "must be in (0, 1)",
            });
        }
        Ok(Self { k, beta })
    }

    /// A zero-impedance (ideal) interface.
    #[must_use]
    pub fn ideal() -> Self {
        Self { k: 0.0, beta: 0.5 }
    }

    /// Interface magnitude at frequency `f` hertz, in ohms.
    #[must_use]
    pub fn magnitude_at(&self, f: f64) -> f64 {
        if self.k == 0.0 || f <= 0.0 {
            return if f <= 0.0 && self.k > 0.0 {
                f64::INFINITY
            } else {
                0.0
            };
        }
        self.k / (2.0 * std::f64::consts::PI * f).powf(self.beta)
    }
}

/// A series composition of tissue segments and one electrode interface —
/// the total impedance a measurement path sees.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct BodyPath {
    segments: Vec<ColeCole>,
    interface: ElectrodePolarization,
}

impl BodyPath {
    /// Builds a path from tissue `segments` in series with an electrode
    /// `interface`.
    #[must_use]
    pub fn new(segments: Vec<ColeCole>, interface: ElectrodePolarization) -> Self {
        Self {
            segments,
            interface,
        }
    }

    /// Borrow the tissue segments.
    #[must_use]
    pub fn segments(&self) -> &[ColeCole] {
        &self.segments
    }

    /// Total path magnitude at frequency `f` hertz: series sum of segment
    /// magnitudes plus the interface. (Segment phase angles in the β
    /// dispersion are small, so the magnitude-sum approximation errs below
    /// 2 % over 2–100 kHz — adequate for the Z0-level analysis the paper
    /// performs.)
    #[must_use]
    pub fn magnitude_at(&self, f: f64) -> f64 {
        let tissue: f64 = self.segments.iter().map(|s| s.magnitude_at(f)).sum();
        tissue + self.interface.magnitude_at(f)
    }
}

/// Catalogue of representative segment parameter sets (population means;
/// per-subject values are scaled from these in [`crate::subject`]).
pub mod segments {
    use super::ColeCole;

    /// Thorax as seen by a tetrapolar chest band: R0 ≈ 32 Ω, R∞ ≈ 22 Ω,
    /// fc ≈ 30 kHz.
    #[must_use]
    pub fn thorax() -> ColeCole {
        ColeCole::new(
            32.0,
            22.0,
            1.0 / (2.0 * std::f64::consts::PI * 30_000.0),
            0.65,
        )
        .expect("catalogue parameters are valid")
    }

    /// One arm, wrist-to-shoulder: R0 ≈ 230 Ω, R∞ ≈ 140 Ω, fc ≈ 40 kHz.
    #[must_use]
    pub fn arm() -> ColeCole {
        ColeCole::new(
            230.0,
            140.0,
            1.0 / (2.0 * std::f64::consts::PI * 40_000.0),
            0.7,
        )
        .expect("catalogue parameters are valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn thorax() -> ColeCole {
        segments::thorax()
    }

    #[test]
    fn cole_cole_limits() {
        let c = thorax();
        assert!((c.magnitude_at(0.0) - c.r0()).abs() < 1e-12);
        // far above the dispersion, magnitude approaches R∞
        assert!((c.magnitude_at(1e9) - c.r_inf()).abs() < 0.5);
    }

    #[test]
    fn cole_cole_monotone_decreasing() {
        let c = thorax();
        let mut prev = c.magnitude_at(100.0);
        for k in 1..60 {
            let f = 100.0 * 1.3f64.powi(k);
            let m = c.magnitude_at(f);
            assert!(m <= prev + 1e-9, "increase at {f} Hz");
            prev = m;
        }
    }

    #[test]
    fn cole_cole_reactance_negative() {
        let c = thorax();
        let (_, im) = c.impedance_at(30_000.0);
        assert!(im < 0.0, "tissue is capacitive, X must be negative");
    }

    #[test]
    fn cole_cole_rejects_bad_params() {
        assert!(ColeCole::new(10.0, 20.0, 1e-6, 0.7).is_err()); // r0 < r_inf
        assert!(ColeCole::new(20.0, 10.0, -1.0, 0.7).is_err());
        assert!(ColeCole::new(20.0, 10.0, 1e-6, 0.0).is_err());
        assert!(ColeCole::new(20.0, 10.0, 1e-6, 1.5).is_err());
    }

    #[test]
    fn polarization_decreases_with_frequency() {
        let ep = ElectrodePolarization::new(5e4, 0.8).unwrap();
        assert!(ep.magnitude_at(2_000.0) > ep.magnitude_at(10_000.0));
        assert!(ep.magnitude_at(10_000.0) > ep.magnitude_at(100_000.0));
    }

    #[test]
    fn ideal_polarization_is_zero() {
        assert_eq!(ElectrodePolarization::ideal().magnitude_at(1_000.0), 0.0);
    }

    #[test]
    fn polarization_rejects_bad_params() {
        assert!(ElectrodePolarization::new(-1.0, 0.5).is_err());
        assert!(ElectrodePolarization::new(1.0, 0.0).is_err());
        assert!(ElectrodePolarization::new(1.0, 1.0).is_err());
    }

    #[test]
    fn body_path_series_sum() {
        let p = BodyPath::new(
            vec![segments::arm(), thorax(), segments::arm()],
            ElectrodePolarization::ideal(),
        );
        let f = 50_000.0;
        let expect = 2.0 * segments::arm().magnitude_at(f) + thorax().magnitude_at(f);
        assert!((p.magnitude_at(f) - expect).abs() < 1e-9);
    }

    #[test]
    fn touch_path_much_larger_than_thorax() {
        let touch = BodyPath::new(
            vec![segments::arm(), thorax(), segments::arm()],
            ElectrodePolarization::new(5e4, 0.8).unwrap(),
        );
        let chest = BodyPath::new(vec![thorax()], ElectrodePolarization::ideal());
        // hand-to-hand impedance is an order of magnitude above the thorax
        assert!(touch.magnitude_at(50_000.0) > 8.0 * chest.magnitude_at(50_000.0));
    }
}
