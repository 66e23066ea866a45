//! Amplitude tapers.
//!
//! A uniformly fed ULA has −13 dB first sidelobes; during the alignment
//! sweep those sidelobes are what let a strong echo masquerade at the
//! wrong angle. Tapering the element amplitudes trades a little peak
//! gain and beamwidth for much lower sidelobes. The trade-off is
//! quantified in the `ablation_array` bench.

/// An amplitude taper across the array aperture.
#[derive(Debug, Clone, Copy, PartialEq)]
#[derive(Default)]
pub enum Taper {
    /// All elements fed equally: max gain, −13 dB sidelobes.
    #[default]
    Uniform,
    /// Raised cosine on a pedestal `p ∈ [0,1]`: weight =
    /// `p + (1−p)·cos²(π·(i − c)/n)` with `c` the aperture centre.
    /// `p = 1` degenerates to uniform; `p ≈ 0.3` gives ~−25 dB sidelobes.
    RaisedCosine {
        /// Pedestal height `p ∈ [0,1]`.
        pedestal: f64,
    },
    /// Binomial weights: no sidelobes at all, at a heavy beamwidth and
    /// gain cost. Mostly a reference point.
    Binomial,
}


impl Taper {
    /// The (unnormalised) feed weight of element `i` in an `n`-element
    /// array. Weights are positive; the array factor normalises by their
    /// sum.
    ///
    /// # Panics
    /// Panics if `i >= n`, `n == 0`, or a pedestal is outside `[0, 1]`.
    pub fn weight(&self, i: usize, n: usize) -> f64 {
        assert!(n >= 1, "empty array"); // lint: documented contract — arrays are validated non-empty at construction
        assert!(i < n, "element index out of range"); // lint: documented contract — all callers iterate i in 0..n
        match *self {
            Taper::Uniform => 1.0,
            Taper::RaisedCosine { pedestal } => {
                assert!( // lint: pedestal is a construction-time constant, not runtime input
                    (0.0..=1.0).contains(&pedestal),
                    "pedestal must be in [0,1]"
                );
                if n == 1 {
                    return 1.0;
                }
                let x = i as f64 / (n - 1) as f64 - 0.5; // -0.5 .. 0.5
                pedestal + (1.0 - pedestal) * (std::f64::consts::PI * x).cos().powi(2)
            }
            Taper::Binomial => {
                // C(n-1, i), normalised later. Computed iteratively to
                // stay exact for the small n arrays use.
                let mut c = 1.0f64;
                for k in 0..i {
                    c = c * (n - 1 - k) as f64 / (k + 1) as f64;
                }
                c
            }
        }
    }

    /// Taper efficiency: the peak-gain factor relative to uniform
    /// feeding, `(Σw)² / (n·Σw²)`, in `(0, 1]`.
    pub fn efficiency(&self, n: usize) -> f64 {
        let (sum, sum_sq) = (0..n)
            .map(|i| self.weight(i, n))
            .fold((0.0, 0.0), |(sum, sum_sq), w| (sum + w, sum_sq + w * w));
        sum * sum / (n as f64 * sum_sq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_weights_are_one() {
        for i in 0..10 {
            assert_eq!(Taper::Uniform.weight(i, 10), 1.0);
        }
        assert!((Taper::Uniform.efficiency(10) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn raised_cosine_is_symmetric_and_peaked_at_centre() {
        let t = Taper::RaisedCosine { pedestal: 0.3 };
        let n = 10;
        for i in 0..n {
            let a = t.weight(i, n);
            let b = t.weight(n - 1 - i, n);
            assert!((a - b).abs() < 1e-12, "symmetry at {i}");
            assert!(a > 0.0);
        }
        // Edges sit at the pedestal; the centre pair is the largest.
        assert!((t.weight(0, n) - 0.3).abs() < 1e-12);
        assert!(t.weight(4, n) > t.weight(1, n));
    }

    #[test]
    fn full_pedestal_is_uniform() {
        let t = Taper::RaisedCosine { pedestal: 1.0 };
        for i in 0..8 {
            assert!((t.weight(i, 8) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn binomial_matches_pascal() {
        let t = Taper::Binomial;
        let expect = [1.0, 4.0, 6.0, 4.0, 1.0];
        for (i, &e) in expect.iter().enumerate() {
            assert!((t.weight(i, 5) - e).abs() < 1e-9);
        }
    }

    #[test]
    fn efficiency_ordering() {
        let n = 10;
        let u = Taper::Uniform.efficiency(n);
        let rc = Taper::RaisedCosine { pedestal: 0.3 }.efficiency(n);
        let b = Taper::Binomial.efficiency(n);
        assert!(u > rc && rc > b, "u={u} rc={rc} b={b}");
        assert!(b > 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn index_bounds_checked() {
        Taper::Uniform.weight(5, 5);
    }

    #[test]
    #[should_panic(expected = "pedestal")]
    fn pedestal_bounds_checked() {
        Taper::RaisedCosine { pedestal: 1.5 }.weight(0, 4);
    }
}
