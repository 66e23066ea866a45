//! The MoVR reflector device.
//!
//! Two steerable phased arrays (receive and transmit) joined by a
//! variable-gain amplifier, plus the control-side bits the Arduino sees:
//! a DAC setting the gain, a current sensor watching the amplifier, and
//! an on/off modulator. No transmit or receive baseband chains — the
//! device can only *reflect* (§4).

use movr_analog::{CurrentSensor, LeakageSurface, VariableGainAmplifier};
use movr_math::Vec2;
use movr_phased_array::{SteeredArray, UniformLinearArray};

/// A wall-mounted MoVR reflector.
///
/// The analog state the beams and the amplifier determine — the loop
/// attenuation and the amplifier's true supply current — is recomputed
/// whenever one of its inputs changes (`steer_*`, `set_gain_db`,
/// `set_amplifier_enabled`) and read from the cache everywhere else. The
/// §4.2 ramp reads the sensor several times per gain step with the beams
/// held still; none of those reads re-evaluates the leakage surface.
#[derive(Debug, Clone)]
pub struct MovrReflector {
    position: Vec2,
    rx_array: SteeredArray,
    tx_array: SteeredArray,
    amplifier: VariableGainAmplifier,
    leakage: LeakageSurface,
    current_sensor: CurrentSensor,
    /// True while the backscatter modulator toggles the amplifier at f₂.
    modulating: bool,
    /// Both arrays' phase-shifter insertion losses, dB: fixed by the
    /// hardware at construction.
    insertion_loss_db: f64,
    /// Loop attenuation at the current beams (positive dB).
    loop_attenuation_db: f64,
    /// Noise-free amplifier supply current at the current beams, gain
    /// and power state, amperes.
    true_current_a: f64,
}

impl MovrReflector {
    /// Mounts a reflector at `position` with both arrays' broadside facing
    /// `boresight_deg` (into the room). `device_seed` individualises the
    /// leakage surface and sensor noise, as two physical units differ.
    pub fn wall_mounted(position: Vec2, boresight_deg: f64, device_seed: u64) -> Self {
        let array = UniformLinearArray::paper_array();
        // The signal crosses the shifters of both (identical) arrays.
        let insertion_loss_db =
            array.shifter().insertion_loss_db + array.shifter().insertion_loss_db;
        let mut reflector = MovrReflector {
            position,
            rx_array: SteeredArray::new(array, boresight_deg),
            tx_array: SteeredArray::new(array, boresight_deg),
            amplifier: VariableGainAmplifier::default(),
            leakage: LeakageSurface::new(device_seed),
            current_sensor: CurrentSensor::new(device_seed.wrapping_add(1)),
            modulating: false,
            insertion_loss_db,
            loop_attenuation_db: 0.0,
            true_current_a: 0.0,
        };
        reflector.beams_changed();
        reflector
    }

    /// Recomputes the loop attenuation after a steering change, then the
    /// supply current that depends on it.
    fn beams_changed(&mut self) {
        self.loop_attenuation_db = self.antenna_leakage_db() + self.insertion_loss_db;
        self.amplifier_changed();
    }

    /// Recomputes the supply current after a gain or power change.
    fn amplifier_changed(&mut self) {
        self.true_current_a = self.amplifier.supply_current_a(self.loop_attenuation_db);
    }

    /// Where the reflector is mounted.
    pub fn position(&self) -> Vec2 {
        self.position
    }

    /// The receive-side array.
    pub fn rx_array(&self) -> &SteeredArray {
        &self.rx_array
    }

    /// The transmit-side array.
    pub fn tx_array(&self) -> &SteeredArray {
        &self.tx_array
    }

    /// Steers the receive beam to an absolute bearing; returns the applied
    /// (clamped) bearing.
    pub fn steer_rx(&mut self, absolute_deg: f64) -> f64 {
        let applied = self.rx_array.steer_to(absolute_deg);
        self.beams_changed();
        applied
    }

    /// Steers the transmit beam to an absolute bearing; returns the
    /// applied (clamped) bearing.
    pub fn steer_tx(&mut self, absolute_deg: f64) -> f64 {
        let applied = self.tx_array.steer_to(absolute_deg);
        self.beams_changed();
        applied
    }

    /// Steers both beams to the same bearing — the alignment-protocol
    /// posture ("sets the reflector's receive and transmit beams to the
    /// same direction, say θ₁", §4.1).
    pub fn steer_both(&mut self, absolute_deg: f64) -> f64 {
        self.rx_array.steer_to(absolute_deg);
        let applied = self.tx_array.steer_to(absolute_deg);
        self.beams_changed();
        applied
    }

    /// The amplifier (read access).
    pub fn amplifier(&self) -> &VariableGainAmplifier {
        &self.amplifier
    }

    /// Commands the amplifier gain (clamped); returns the applied value.
    pub fn set_gain_db(&mut self, gain_db: f64) -> f64 {
        let applied = self.amplifier.set_gain_db(gain_db);
        self.amplifier_changed();
        applied
    }

    /// Powers the amplifier on/off.
    pub fn set_amplifier_enabled(&mut self, enabled: bool) {
        self.amplifier.set_enabled(enabled);
        self.amplifier_changed();
    }

    /// Starts/stops the f₂ on/off modulation used during alignment.
    pub fn set_modulating(&mut self, on: bool) {
        self.modulating = on;
    }

    /// True while modulating.
    pub fn is_modulating(&self) -> bool {
        self.modulating
    }

    /// Antenna-to-antenna TX→RX coupling attenuation (positive dB) at the
    /// current beam settings — the raw leakage surface, evaluated afresh.
    pub fn antenna_leakage_db(&self) -> f64 {
        self.leakage
            .attenuation_db(self.tx_array.steering_deg(), self.rx_array.steering_deg())
    }

    /// Total insertion loss of the signal path through both arrays'
    /// phase shifters, dB.
    pub fn insertion_loss_db(&self) -> f64 {
        self.insertion_loss_db
    }

    /// The attenuation of the full feedback loop the amplifier sees
    /// (positive dB): amplifier → TX shifters → antenna coupling → RX
    /// shifters → amplifier. This is what Fig. 7 measures terminal to
    /// terminal, and what the §4.2 criterion `G_dB < L_dB` compares
    /// against. The firmware cannot read it — only the current sensor.
    /// Cached: recomputed on every steering change.
    pub fn loop_attenuation_db(&self) -> f64 {
        self.loop_attenuation_db
    }

    /// True if the amplifier is saturated at the current gain and beams.
    pub fn is_saturated(&self) -> bool {
        self.amplifier.is_saturated(self.loop_attenuation_db)
    }

    /// The *effective* end-to-end amplification applied to a through
    /// signal, dB: the closed-loop gain when stable, minus the shifter
    /// insertion losses the signal pays crossing both arrays. `None` when
    /// saturated (output is garbage, not signal) or when the amplifier is
    /// off.
    pub fn effective_gain_db(&self) -> Option<f64> {
        if !self.amplifier.is_enabled() {
            return None;
        }
        movr_analog::FeedbackLoop::new(self.amplifier.gain_db(), self.loop_attenuation_db)
            .closed_loop_gain_db()
            .map(|g| g - self.insertion_loss_db)
    }

    /// The current sensor's noise-stream RNG state, for checkpointing.
    pub fn sensor_rng_state(&self) -> [u64; 4] {
        self.current_sensor.rng_state()
    }

    /// Restores the sensor noise stream from a
    /// [`MovrReflector::sensor_rng_state`] capture, so resumed gain-control
    /// runs draw the same measurement noise the uninterrupted device would.
    pub fn restore_sensor_rng_state(&mut self, state: [u64; 4]) {
        self.current_sensor.restore_rng_state(state);
    }

    /// What the firmware reads off the current sensor right now, amperes.
    pub fn measure_supply_current_a(&mut self) -> f64 {
        self.current_sensor.measure_a(self.true_current_a)
    }

    /// Asserts the cached loop attenuation and supply current equal a
    /// fresh evaluation from the beams, gain and power state, bit for bit.
    #[cfg(test)]
    pub(crate) fn assert_analog_cache_is_fresh(&self) {
        let insertion_db = self.rx_array.array().shifter().insertion_loss_db
            + self.tx_array.array().shifter().insertion_loss_db;
        let loop_db = self
            .leakage
            .attenuation_db(self.tx_array.steering_deg(), self.rx_array.steering_deg())
            + insertion_db;
        assert_eq!(
            self.loop_attenuation_db.to_bits(),
            loop_db.to_bits(),
            "stale loop attenuation"
        );
        let current = self.amplifier.supply_current_a(loop_db);
        assert_eq!(
            self.true_current_a.to_bits(),
            current.to_bits(),
            "stale supply current"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> MovrReflector {
        MovrReflector::wall_mounted(Vec2::new(4.5, 4.5), 225.0, 42)
    }

    /// Shortest-arc angular difference, degrees.
    fn arc(a: f64, b: f64) -> f64 {
        movr_math::wrap_deg_180(a - b).abs()
    }

    #[test]
    fn steering_both_moves_both() {
        let mut r = device();
        let applied = r.steer_both(200.0);
        assert!(arc(r.rx_array().steering_deg(), 200.0) < 1e-9);
        assert!(arc(r.tx_array().steering_deg(), 200.0) < 1e-9);
        assert!(arc(applied, 200.0) < 1e-9);
    }

    #[test]
    fn independent_beam_steering() {
        let mut r = device();
        r.steer_rx(225.0 - 30.0);
        r.steer_tx(225.0 + 30.0);
        assert!(arc(r.rx_array().steering_deg(), 195.0) < 1e-9);
        assert!(arc(r.tx_array().steering_deg(), 255.0) < 1e-9);
    }

    #[test]
    fn leakage_changes_with_beams() {
        let mut r = device();
        r.steer_both(225.0);
        let a = r.loop_attenuation_db();
        r.steer_tx(255.0);
        let b = r.loop_attenuation_db();
        assert_ne!(a, b);
    }

    #[test]
    fn saturation_follows_gain_vs_leakage() {
        let mut r = device();
        r.steer_both(225.0);
        let leak = r.loop_attenuation_db();
        r.set_gain_db(leak - 5.0);
        assert!(!r.is_saturated());
        assert!(r.effective_gain_db().is_some());
        r.set_gain_db(r.amplifier().max_gain_db.min(leak + 2.0));
        if r.amplifier().gain_db() >= leak {
            assert!(r.is_saturated());
            assert_eq!(r.effective_gain_db(), None);
        }
    }

    #[test]
    fn effective_gain_accounts_for_regeneration_and_insertion() {
        // Effective gain = closed-loop gain minus the shifter insertion
        // losses: regeneration lifts it above (G − insertion), insertion
        // keeps it below the raw closed-loop value.
        let mut r = device();
        r.steer_both(225.0);
        r.set_gain_db((r.loop_attenuation_db() - 3.0).min(r.amplifier().max_gain_db));
        let g = r.amplifier().gain_db();
        let eff = r.effective_gain_db().unwrap();
        let closed = movr_analog::FeedbackLoop::new(g, r.loop_attenuation_db())
            .closed_loop_gain_db()
            .unwrap();
        assert!(eff > g - r.insertion_loss_db(), "regeneration must help");
        assert!(eff < closed, "insertion loss must be paid");
        assert!((eff - (closed - r.insertion_loss_db())).abs() < 1e-9);
    }

    #[test]
    fn disabled_amplifier_has_no_gain() {
        let mut r = device();
        r.set_amplifier_enabled(false);
        assert_eq!(r.effective_gain_db(), None);
        assert!(!r.is_saturated());
    }

    #[test]
    fn current_rises_near_saturation() {
        // Find a beam posture whose loop attenuation the amplifier can
        // actually approach (the surface varies ~20 dB across beams).
        let mut r = device();
        let mut best = (f64::INFINITY, 225.0);
        for k in 0..=100 {
            let tx = 175.0 + k as f64;
            r.steer_rx(225.0);
            r.steer_tx(tx);
            let l = r.loop_attenuation_db();
            if l < best.0 {
                best = (l, tx);
            }
        }
        assert!(
            best.0 - 0.5 < r.amplifier().max_gain_db,
            "no reachable knee anywhere: min loop {}",
            best.0
        );
        r.steer_rx(225.0);
        r.steer_tx(best.1);
        let leak = r.loop_attenuation_db();
        r.set_gain_db(leak - 20.0);
        let far = r.measure_supply_current_a();
        r.set_gain_db(leak - 0.5);
        let near = r.measure_supply_current_a();
        assert!(near > far + 0.05, "near={near} far={far}");
    }

    #[test]
    fn analog_cache_follows_every_setter() {
        // A seeded random walk over every state-changing command; after
        // each one the cache must equal a fresh evaluation to the bit.
        let mut rng = movr_math::SimRng::seed_from_u64(0xCAC4E);
        let mut r = device();
        r.assert_analog_cache_is_fresh();
        for _ in 0..2_000 {
            match rng.uniform_usize(0, 5) {
                0 => {
                    r.steer_rx(rng.uniform(100.0, 350.0));
                }
                1 => {
                    r.steer_tx(rng.uniform(100.0, 350.0));
                }
                2 => {
                    r.steer_both(rng.uniform(-400.0, 400.0));
                }
                3 => {
                    r.set_gain_db(rng.uniform(-5.0, 60.0));
                }
                4 => r.set_amplifier_enabled(rng.chance(0.5)),
                _ => r.set_modulating(rng.chance(0.5)),
            }
            r.assert_analog_cache_is_fresh();
        }
    }

    #[test]
    fn cached_reads_match_the_uncached_formulas() {
        // The cached readers return what the old per-call formulas did.
        let mut r = device();
        let mut fresh = device();
        for (rx, tx, gain) in [
            (225.0, 200.0, 30.0),
            (210.0, 250.0, 52.0),
            (240.0, 240.0, 45.0),
        ] {
            r.steer_rx(rx);
            r.steer_tx(tx);
            r.set_gain_db(gain);
            let loop_db = r.antenna_leakage_db() + r.insertion_loss_db();
            assert_eq!(r.loop_attenuation_db().to_bits(), loop_db.to_bits());
            assert_eq!(r.is_saturated(), r.amplifier().is_saturated(loop_db));
            let effective = movr_analog::FeedbackLoop::new(r.amplifier().gain_db(), loop_db)
                .closed_loop_gain_db()
                .map(|g| g - r.insertion_loss_db());
            assert_eq!(
                r.effective_gain_db().map(f64::to_bits),
                effective.map(f64::to_bits)
            );
            // Same sensor stream, same true current: the same reading.
            fresh.restore_sensor_rng_state(r.sensor_rng_state());
            let expected = fresh
                .current_sensor
                .measure_a(r.amplifier().supply_current_a(loop_db));
            assert_eq!(r.measure_supply_current_a().to_bits(), expected.to_bits());
        }
    }

    #[test]
    fn modulation_flag() {
        let mut r = device();
        assert!(!r.is_modulating());
        r.set_modulating(true);
        assert!(r.is_modulating());
    }
}
