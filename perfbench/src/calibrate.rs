//! Host-speed normalisation.
//!
//! On a shared VM the same binary runs up to ~1.8× slower for seconds
//! to minutes at a time (another tenant on the sibling hyperthread), so
//! raw wall times of identical runs spread by 30–40 %. Every op is
//! therefore preceded by a fixed reference kernel that belongs to the
//! benchmark, not to the program, and each op's wall time is scaled by
//! how fast the reference ran around it. The reported times read as
//! wall time on a host that runs the reference in [`REFERENCE_NS`].
//!
//! The kernel is an array-factor loop (cos/sin accumulation), the
//! instruction mix that dominates the simulator; across host slow-downs
//! it tracks the workloads' own speed to 1–3 %.

use movr_math::convert::u64_to_f64;
use movr_testkit::Timer;
use std::hint::black_box;

/// Nominal reference-kernel time, ns: what one [`reference`] call takes
/// on an unloaded 2.1 GHz Xeon vCPU. Normalised times are wall times
/// scaled to a host this fast.
pub const REFERENCE_NS: f64 = 200_000.0;

/// Ops on either side of an op whose reference readings set its scale.
const WINDOW: usize = 2;

/// One pass of the fixed reference kernel: a 16-element array factor at
/// 640 bearings.
fn kernel() -> f64 {
    let mut acc = 0.0;
    for k in 0..640u32 {
        let theta = f64::from(k) * black_box(7e-4);
        let (mut re, mut im) = (0.0f64, 0.0f64);
        for e in 0..16u32 {
            let phase = theta * f64::from(e) * std::f64::consts::PI + 0.1;
            re += phase.cos();
            im += phase.sin();
        }
        acc += re * re + im * im;
    }
    acc
}

/// Runs the reference kernel once; returns its wall time, ns.
pub fn reference() -> u64 {
    let t = Timer::start();
    black_box(kernel());
    t.elapsed_ns()
}

/// Per-op scale factors from per-op reference readings: op `i` is
/// scaled by [`REFERENCE_NS`] over the median reading in the window of
/// `WINDOW` ops around it, so one interrupted reading cannot skew it.
pub fn scales(reference_ns: &[u64]) -> Vec<f64> {
    (0..reference_ns.len())
        .map(|i| {
            let lo = i.saturating_sub(WINDOW);
            let hi = (i + WINDOW + 1).min(reference_ns.len());
            let window: Vec<f64> = reference_ns[lo..hi]
                .iter()
                .map(|&r| u64_to_f64(r))
                .collect();
            REFERENCE_NS / crate::stats::median(&window)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_host_twice_as_slow_scales_by_one_half() {
        let slow = scales(&[400_000; 9]);
        assert!(slow.iter().all(|&s| (s - 0.5).abs() < 1e-12));
    }

    #[test]
    fn one_interrupted_reading_does_not_move_the_scale() {
        let mut readings = vec![200_000u64; 9];
        readings[4] = 2_000_000;
        assert!(scales(&readings).iter().all(|&s| (s - 1.0).abs() < 1e-12));
    }

    #[test]
    fn the_kernel_takes_measurable_time() {
        assert!(reference() > 0);
    }
}
