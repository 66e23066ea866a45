//! Current-sensing gain control (§4.2).
//!
//! The amplifier gain must stay below the TX→RX leakage attenuation or
//! the feedback loop saturates — but the reflector has no receive chain
//! to measure the leakage, and the leakage moves by ~20 dB as the beams
//! steer (Fig. 7). The paper's solution exploits the amplifier's supply
//! current, which "suddenly goes high" approaching saturation:
//!
//! > set the gain to the minimum, then increase it step by step while
//! > monitoring the amplifier's current consumption ... keep the
//! > amplification gain just below this point.
//!
//! [`run_gain_control`] is that loop, operating only on what the firmware
//! can actually observe (the quantised, noisy current sensor).

use crate::reflector::MovrReflector;
use movr_obs::{Event, NullRecorder, Recorder};
use movr_sim::SimTime;

/// The most gain steps one ramp may take from the amplifier's minimum to
/// its maximum gain. The default config needs 106 (0.5 dB over 53 dB);
/// the cap leaves room for much finer steps while keeping a ramp — and
/// its trace — bounded. A step so fine that it cannot cross the range in
/// this many steps is a configuration error, rejected before the ramp
/// starts.
pub const MAX_RAMP_STEPS: usize = 10_000;

/// Gain-control loop parameters.
#[derive(Debug, Clone, Copy)]
pub struct GainControlConfig {
    /// Gain increase per step, dB. Must be positive and coarse enough to
    /// cross the amplifier's gain range in at most [`MAX_RAMP_STEPS`]
    /// steps.
    pub step_db: f64,
    /// Current jump (amperes) between consecutive steps that signals the
    /// saturation knee. Must clear sensor noise by a wide margin.
    pub jump_threshold_a: f64,
    /// Extra gain backed off below the detected knee, dB.
    pub backoff_db: f64,
    /// Sensor reads averaged per step (noise suppression).
    pub reads_per_step: usize,
}

impl Default for GainControlConfig {
    fn default() -> Self {
        GainControlConfig {
            step_db: 0.5,
            jump_threshold_a: 0.03,
            backoff_db: 1.0,
            reads_per_step: 3,
        }
    }
}

/// The outcome of one gain-control run.
#[derive(Debug, Clone)]
pub struct GainControlResult {
    /// The gain finally applied, dB.
    pub chosen_gain_db: f64,
    /// True if the loop stopped because it detected the saturation knee
    /// (false = it ran into the amplifier's own gain ceiling first).
    pub knee_detected: bool,
    /// The (gain, measured current) trajectory, for inspection/benches.
    pub trace: Vec<(f64, f64)>,
}

/// Runs the §4.2 loop on the reflector *in place*: on return, the
/// amplifier is set to the chosen safe gain.
///
/// ```
/// use movr::gain_control::{run_gain_control, GainControlConfig};
/// use movr::reflector::MovrReflector;
/// use movr_math::Vec2;
///
/// let mut reflector = MovrReflector::wall_mounted(Vec2::new(1.0, 4.75), -70.0, 1);
/// reflector.steer_rx(-102.0);
/// reflector.steer_tx(-45.0);
/// let result = run_gain_control(&mut reflector, &GainControlConfig::default());
/// // The invariant the whole design rests on: G stays below the loop
/// // leakage, without the firmware ever measuring the leakage.
/// assert!(result.chosen_gain_db < reflector.loop_attenuation_db());
/// assert!(!reflector.is_saturated());
/// ```
pub fn run_gain_control(
    reflector: &mut MovrReflector,
    config: &GainControlConfig,
) -> GainControlResult {
    run_gain_control_recorded(reflector, config, SimTime::ZERO, &mut NullRecorder)
}

/// [`run_gain_control`] with observability: wraps the ramp in a
/// `gain_ramp` span at `now`, emits one `gain_step` event per probed
/// gain setting (`gain_db`, `current_a`), and closes with either
/// `gain_backoff` (knee found; `chosen_gain_db`, `knee_gain_db`) or
/// `gain_ceiling` (`chosen_gain_db`). The loop itself is modelled as
/// instantaneous, so every event carries the same timestamp — the span
/// conveys structure, not duration. Identical control behaviour: the
/// recorder never reads the sensor or the RNG.
///
/// # Panics
/// Panics if `step_db` is not positive, if crossing the amplifier's gain
/// range takes more than [`MAX_RAMP_STEPS`] steps of `step_db`, or if
/// `reads_per_step` is 0.
pub fn run_gain_control_recorded(
    reflector: &mut MovrReflector,
    config: &GainControlConfig,
    now: SimTime,
    rec: &mut dyn Recorder,
) -> GainControlResult {
    assert!(config.step_db > 0.0, "gain step must be positive");
    assert!(config.reads_per_step >= 1, "need at least one read per step");

    let min_gain = reflector.amplifier().min_gain_db;
    let max_gain = reflector.amplifier().max_gain_db;
    let ramp_steps = (max_gain - min_gain) / config.step_db;
    assert!(
        ramp_steps.is_finite() && ramp_steps <= movr_math::convert::usize_to_f64(MAX_RAMP_STEPS),
        "gain step too fine: {ramp_steps} steps to cross the gain range, at most {MAX_RAMP_STEPS} allowed"
    );

    let read_avg = |r: &mut MovrReflector| -> f64 {
        let mut acc = 0.0;
        for _ in 0..config.reads_per_step {
            acc += r.measure_supply_current_a();
        }
        acc / movr_math::convert::usize_to_f64(config.reads_per_step)
    };

    let span = if rec.enabled() {
        Some(rec.start_span(now, "gain_ramp"))
    } else {
        None
    };
    let step = |rec: &mut dyn Recorder, gain: f64, current: f64| {
        if rec.enabled() {
            rec.record(
                Event::new(now, "gain_step")
                    .with("gain_db", gain)
                    .with("current_a", current),
            );
        }
    };

    let mut gain = reflector.set_gain_db(min_gain);
    let mut prev_current = read_avg(reflector);
    // The minimum-gain point, at most ⌈ramp_steps⌉ steps, and one more
    // for a last step that float accumulation leaves just short of the
    // ceiling.
    let mut trace = Vec::with_capacity(movr_math::convert::f64_to_usize(ramp_steps.ceil()) + 2);
    trace.push((gain, prev_current));
    step(rec, gain, prev_current);

    loop {
        if gain >= max_gain {
            // Ceiling reached without a knee: the leakage is deeper than
            // the amplifier can chase; the maximum gain is safe.
            if let Some(id) = span {
                rec.record(
                    Event::new(now, "gain_ceiling").with("chosen_gain_db", gain),
                );
                rec.end_span(now, "gain_ramp", id);
            }
            return GainControlResult {
                chosen_gain_db: gain,
                knee_detected: false,
                trace,
            };
        }
        gain = reflector.set_gain_db(gain + config.step_db);
        let current = read_avg(reflector);
        trace.push((gain, current));
        step(rec, gain, current);

        if current - prev_current > config.jump_threshold_a {
            // Knee: step back below the last safe gain with margin.
            let safe = (gain - config.step_db - config.backoff_db).max(min_gain);
            let chosen = reflector.set_gain_db(safe);
            if let Some(id) = span {
                rec.record(
                    Event::new(now, "gain_backoff")
                        .with("chosen_gain_db", chosen)
                        .with("knee_gain_db", gain),
                );
                rec.end_span(now, "gain_ramp", id);
            }
            return GainControlResult {
                chosen_gain_db: chosen,
                knee_detected: true,
                trace,
            };
        }
        prev_current = current;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use movr_math::Vec2;

    fn device(seed: u64) -> MovrReflector {
        let mut r = MovrReflector::wall_mounted(Vec2::new(4.5, 4.5), 225.0, seed);
        r.steer_both(225.0);
        r
    }

    #[test]
    fn chosen_gain_is_stable() {
        // The §4.2 invariant: the loop must land strictly below the
        // leakage attenuation, without ever having been told what it is.
        for seed in 0..20 {
            let mut r = device(seed);
            let res = run_gain_control(&mut r, &GainControlConfig::default());
            let leak = r.loop_attenuation_db();
            assert!(
                res.chosen_gain_db < leak,
                "seed={seed}: chose {} vs leakage {leak}",
                res.chosen_gain_db
            );
            assert!(!r.is_saturated());
        }
    }

    #[test]
    fn lands_close_below_the_knee() {
        // Not just safe but *efficient*: within a few dB of the leakage
        // (the algorithm maximises SNR subject to stability).
        let mut r = device(3);
        let res = run_gain_control(&mut r, &GainControlConfig::default());
        let leak = r.loop_attenuation_db();
        if res.knee_detected {
            let margin = leak - res.chosen_gain_db;
            assert!(
                (0.5..6.0).contains(&margin),
                "margin {margin} dB (leak {leak}, chose {})",
                res.chosen_gain_db
            );
        }
    }

    #[test]
    fn detects_knee_when_leakage_within_range() {
        // Default VGA tops out at 45 dB; leakage surfaces bottom out at
        // 45 dB, so most beam pairs put the knee inside the sweep.
        let mut any_knee = false;
        for seed in 0..10 {
            let mut r = device(seed);
            let res = run_gain_control(&mut r, &GainControlConfig::default());
            any_knee |= res.knee_detected;
        }
        assert!(any_knee, "expected at least one knee detection");
    }

    #[test]
    fn trace_is_monotone_in_gain() {
        let mut r = device(7);
        let res = run_gain_control(&mut r, &GainControlConfig::default());
        for w in res.trace.windows(2) {
            assert!(w[1].0 > w[0].0);
        }
        assert!(res.trace.len() >= 2);
    }

    #[test]
    fn rerun_after_beam_change_adapts() {
        // Fig. 7's point: change the beams, the leakage changes, and the
        // safe gain changes with it.
        let mut r = device(9);
        let g1 = run_gain_control(&mut r, &GainControlConfig::default()).chosen_gain_db;
        r.steer_tx(255.0);
        let g2 = run_gain_control(&mut r, &GainControlConfig::default()).chosen_gain_db;
        // Both safe...
        assert!(!r.is_saturated());
        // ...and generally different (the surfaces differ by several dB).
        assert!(
            (g1 - g2).abs() > 0.25,
            "g1={g1} g2={g2} — expected the safe gain to move"
        );
    }

    #[test]
    fn respects_gain_ceiling() {
        let mut r = device(11);
        let res = run_gain_control(&mut r, &GainControlConfig::default());
        assert!(res.chosen_gain_db <= r.amplifier().max_gain_db);
        assert!(res.chosen_gain_db >= r.amplifier().min_gain_db);
    }

    #[test]
    fn recorded_run_matches_plain_and_traces_every_step() {
        use movr_obs::MemoryRecorder;
        use movr_sim::SimTime;
        // Same seed: the recorded run must reproduce the plain run's
        // trajectory exactly, and emit one gain_step per trace point.
        let plain = run_gain_control(&mut device(5), &GainControlConfig::default());
        let mut rec = MemoryRecorder::new();
        let recorded = run_gain_control_recorded(
            &mut device(5),
            &GainControlConfig::default(),
            SimTime::from_millis(20),
            &mut rec,
        );
        assert_eq!(plain.chosen_gain_db, recorded.chosen_gain_db);
        assert_eq!(plain.knee_detected, recorded.knee_detected);
        assert_eq!(plain.trace, recorded.trace);
        assert_eq!(rec.of_kind("gain_step").count(), recorded.trace.len());
        let spans = rec.spans();
        assert_eq!(spans, [("gain_ramp", SimTime::from_millis(20), SimTime::from_millis(20))]);
        let terminal = if recorded.knee_detected {
            "gain_backoff"
        } else {
            "gain_ceiling"
        };
        assert_eq!(rec.of_kind(terminal).count(), 1);
    }

    #[test]
    #[should_panic(expected = "gain step too fine")]
    fn step_needing_more_than_the_cap_is_rejected() {
        // 53 dB in 1e-12 dB steps is ≈ 5·10¹³ steps: the sensor noise
        // sits far below the knee threshold, so nothing else would stop
        // the ramp before its trace exhausted memory.
        let mut r = device(0);
        run_gain_control(
            &mut r,
            &GainControlConfig {
                step_db: 1e-12,
                ..Default::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "gain step too fine")]
    fn subnormal_step_is_rejected() {
        // The span over a subnormal step overflows to +∞, which the
        // finiteness half of the bound catches.
        let mut r = device(0);
        run_gain_control(
            &mut r,
            &GainControlConfig {
                step_db: f64::from_bits(1),
                ..Default::default()
            },
        );
    }

    #[test]
    fn step_at_the_cap_still_runs() {
        // Exactly MAX_RAMP_STEPS steps across the default 53 dB range is
        // allowed, and the ramp stays within the bound it was sized for.
        // (Whether such a fine ramp still finds the knee is a separate
        // question: per-step current jumps shrink with the step.)
        let mut r = device(4);
        let max_gain = r.amplifier().max_gain_db;
        let min_gain = r.amplifier().min_gain_db;
        let step_db = (max_gain - min_gain) / movr_math::convert::usize_to_f64(MAX_RAMP_STEPS);
        let res = run_gain_control(
            &mut r,
            &GainControlConfig {
                step_db,
                ..Default::default()
            },
        );
        assert!(
            res.trace.len() <= MAX_RAMP_STEPS + 2,
            "trace {}",
            res.trace.len()
        );
        assert!((min_gain..=max_gain).contains(&res.chosen_gain_db));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_step_rejected() {
        let mut r = device(0);
        run_gain_control(
            &mut r,
            &GainControlConfig {
                step_db: 0.0,
                ..Default::default()
            },
        );
    }
}
