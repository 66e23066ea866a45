//! Angle bookkeeping in degrees.
//!
//! Beam angles in this workspace follow the paper's convention: degrees,
//! swept over ranges like 40°–140° (Fig. 7, Fig. 8). Angular *differences*
//! must be computed modulo 360° with the shortest-arc rule — a naive
//! subtraction would report a 358° error between 359° and 1°.

/// `deg % 360.0`, skipping the `fmod` call when `|deg| < 360`: in that
/// range the remainder is exact and is `deg` itself (±0 included), so
/// both branches return the same bits. NaN and ±∞ fail the comparison
/// and take the `%` path, which maps them to NaN as before.
#[inline]
fn rem_360(deg: f64) -> f64 {
    if deg.abs() < 360.0 {
        deg
    } else {
        deg % 360.0
    }
}

/// Wraps an angle into `(-180, 180]` degrees.
pub fn wrap_deg_180(deg: f64) -> f64 {
    let mut a = rem_360(deg);
    if a <= -180.0 {
        a += 360.0;
    } else if a > 180.0 {
        a -= 360.0;
    }
    a
}

/// Wraps an angle into `[0, 360)` degrees.
pub fn wrap_deg_360(deg: f64) -> f64 {
    let a = rem_360(deg);
    if a < 0.0 {
        a + 360.0
    } else {
        a
    }
}

/// A plane angle in degrees with shortest-arc semantics.
///
/// Thin newtype used at API boundaries where mixing up "angle" and plain
/// `f64` parameters (gains, distances) would be easy.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AngleDeg(pub f64);

impl AngleDeg {
    /// Creates an angle, wrapping into `(-180, 180]`.
    pub fn new(deg: f64) -> Self {
        AngleDeg(wrap_deg_180(deg))
    }

    /// Raw value in degrees, in `(-180, 180]`.
    pub fn deg(self) -> f64 {
        self.0
    }

    /// Value in radians.
    pub fn rad(self) -> f64 {
        self.0.to_radians()
    }

    /// Absolute shortest-arc difference to another angle, in `[0, 180]`.
    pub fn distance_to(self, other: AngleDeg) -> f64 {
        wrap_deg_180(self.0 - other.0).abs()
    }

    /// Rotates by `delta` degrees (wrapping).
    pub fn offset(self, delta: f64) -> AngleDeg {
        AngleDeg::new(self.0 + delta)
    }
}

impl std::fmt::Display for AngleDeg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.2}°", self.0)
    }
}

/// Inclusive sweep of angles from `start` to `end` with the given step,
/// mirroring the paper's "1 degree increments" exhaustive beam sweeps.
///
/// Always yields `start`; yields `end` when the span is an exact multiple
/// of `step` (within floating-point slack).
pub fn sweep_deg(start: f64, end: f64, step: f64) -> Vec<f64> {
    assert!(step > 0.0, "sweep step must be positive"); // lint: sweep bounds are experiment constants, not decoded input
    assert!(end >= start, "sweep end must not precede start"); // lint: sweep bounds are experiment constants, not decoded input
    let n = ((end - start) / step + 1e-9).floor() as usize;
    (0..=n).map(|i| start + i as f64 * step).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrap_180_range() {
        assert_eq!(wrap_deg_180(0.0), 0.0);
        assert_eq!(wrap_deg_180(180.0), 180.0);
        assert_eq!(wrap_deg_180(-180.0), 180.0);
        assert_eq!(wrap_deg_180(190.0), -170.0);
        assert_eq!(wrap_deg_180(-190.0), 170.0);
        assert_eq!(wrap_deg_180(720.0), 0.0);
        assert_eq!(wrap_deg_180(361.0), 1.0);
    }

    #[test]
    fn wrap_360_range() {
        assert_eq!(wrap_deg_360(-1.0), 359.0);
        assert_eq!(wrap_deg_360(360.0), 0.0);
        assert_eq!(wrap_deg_360(725.0), 5.0);
    }

    /// The pre-fast-path wraps, kept as the reference [`rem_360`] must
    /// reproduce bit for bit.
    fn reference_wrap_180(deg: f64) -> f64 {
        let mut a = deg % 360.0;
        if a <= -180.0 {
            a += 360.0;
        } else if a > 180.0 {
            a -= 360.0;
        }
        a
    }

    fn reference_wrap_360(deg: f64) -> f64 {
        let a = deg % 360.0;
        if a < 0.0 {
            a + 360.0
        } else {
            a
        }
    }

    fn assert_wraps_match_reference(deg: f64) {
        assert_eq!(
            wrap_deg_180(deg).to_bits(),
            reference_wrap_180(deg).to_bits(),
            "wrap_deg_180({deg:e})"
        );
        assert_eq!(
            wrap_deg_360(deg).to_bits(),
            reference_wrap_360(deg).to_bits(),
            "wrap_deg_360({deg:e})"
        );
    }

    #[test]
    fn fast_path_is_bit_identical_at_the_edges() {
        let below_360 = f64::from_bits(360.0f64.to_bits() - 1);
        let edges = [
            0.0,
            -0.0,
            below_360,
            -below_360,
            359.999_999_999,
            -359.999_999_999,
            360.0,
            -360.0,
            f64::from_bits(360.0f64.to_bits() + 1),
            720.0,
            -720.0,
            180.0,
            -180.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for deg in edges {
            assert_wraps_match_reference(deg);
        }
        // ±0 keep their sign through the fast path.
        assert_eq!(wrap_deg_180(-0.0).to_bits(), (-0.0f64).to_bits());
        assert_eq!(wrap_deg_360(-0.0).to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn fast_path_is_bit_identical_across_magnitudes() {
        let mut rng = crate::SimRng::seed_from_u64(0x57A9);
        for _ in 0..20_000 {
            // Log-uniform magnitudes from 1e-300 to 1e12 plus a dense
            // band around the ±360 boundary, both signs.
            let exponent = rng.uniform(-300.0, 12.0);
            let sign = if rng.chance(0.5) { -1.0 } else { 1.0 };
            assert_wraps_match_reference(sign * 10f64.powf(exponent));
            assert_wraps_match_reference(rng.uniform(-1_080.0, 1_080.0));
            assert_wraps_match_reference(sign * rng.uniform(359.0, 361.0));
        }
    }

    #[test]
    fn shortest_arc_distance() {
        let a = AngleDeg::new(359.0);
        let b = AngleDeg::new(1.0);
        assert!((a.distance_to(b) - 2.0).abs() < 1e-9);
        assert!((b.distance_to(a) - 2.0).abs() < 1e-9);
        assert!((AngleDeg::new(0.0).distance_to(AngleDeg::new(180.0)) - 180.0).abs() < 1e-9);
    }

    #[test]
    fn offset_wraps() {
        assert!((AngleDeg::new(170.0).offset(20.0).deg() - (-170.0)).abs() < 1e-9);
    }

    #[test]
    fn sweep_inclusive() {
        let s = sweep_deg(40.0, 140.0, 1.0);
        assert_eq!(s.len(), 101);
        assert_eq!(s[0], 40.0);
        assert_eq!(*s.last().unwrap(), 140.0);
    }

    #[test]
    fn sweep_fractional_step() {
        let s = sweep_deg(0.0, 1.0, 0.25);
        assert_eq!(s.len(), 5);
        assert!((s[2] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sweep_single_point() {
        assert_eq!(sweep_deg(5.0, 5.0, 1.0), vec![5.0]);
    }

    #[test]
    #[should_panic(expected = "step must be positive")]
    fn sweep_rejects_zero_step() {
        sweep_deg(0.0, 10.0, 0.0);
    }

    #[test]
    fn rad_conversion() {
        assert!((AngleDeg::new(180.0).rad() - std::f64::consts::PI).abs() < 1e-12);
    }
}
