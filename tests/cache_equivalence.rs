//! Cached vs uncached evaluation must be **bit-identical**.
//!
//! The sweep-rate engine (traced-path caching, steering-vector reuse)
//! is a pure restructuring: every cached entry point promises the same
//! float-op order as the plain one. These tests pin that promise on the paper setup for the three load-bearing
//! evaluators — `relay_link`, `round_trip_reflection_dbm`, and the full
//! `estimate_incidence` sweep — plus the raw `LinkCache` and the hop-1
//! gain tables `MovrSystem` builds at installation.

use movr::alignment::{estimate_incidence, AlignmentConfig};
use movr::reflector::MovrReflector;
use movr::relay::{relay_link, relay_link_on, round_trip_reflection_dbm, RelayBudget};
use movr::system::{LinkMode, MovrSystem, SystemConfig};
use movr_math::{SimRng, Vec2};
use movr_motion::{PlayerState, WorldState};
use movr_phased_array::Codebook;
use movr_radio::{evaluate_link, ArrayPattern, RadioEndpoint};
use movr_rfsim::{BodyPart, LinkCache, Obstacle, PathKind, Scene};

/// The canonical relay layout: AP mid-west wall, reflector on the north
/// wall, headset in the play area, beams aimed, gain safely below leak.
fn relay_setup() -> (Scene, RadioEndpoint, MovrReflector, RadioEndpoint) {
    let scene = Scene::paper_office();
    let mut ap = RadioEndpoint::paper_radio(Vec2::new(0.5, 2.5), 20.0);
    let mut reflector = MovrReflector::wall_mounted(Vec2::new(1.0, 4.75), -70.0, 7);
    let hs_pos = Vec2::new(3.5, 1.5);
    let mut headset =
        RadioEndpoint::paper_radio(hs_pos, hs_pos.bearing_deg_to(Vec2::new(1.0, 4.75)));
    ap.steer_toward(reflector.position());
    reflector.steer_rx(reflector.position().bearing_deg_to(ap.position()));
    reflector.steer_tx(reflector.position().bearing_deg_to(headset.position()));
    headset.steer_toward(reflector.position());
    reflector.set_gain_db(reflector.loop_attenuation_db() - 6.0);
    (scene, ap, reflector, headset)
}

#[test]
fn relay_link_on_is_bit_identical_to_relay_link() {
    let (mut scene, ap, reflector, headset) = relay_setup();
    // Exercise clear and obstructed geometry.
    for obstacle in [None, Some(Obstacle::new(BodyPart::Torso, Vec2::new(2.2, 2.2)))] {
        scene.clear_obstacles();
        if let Some(o) = obstacle {
            scene.add_obstacle(o);
        }
        let plain = relay_link(&scene, &ap, &reflector, &headset);
        let hop1 = scene.trace_link(ap.position(), reflector.position());
        let hop2 = scene.trace_link(reflector.position(), headset.position());
        let cached = relay_link_on(&hop1, &hop2, &ap, &reflector, headset.array());
        assert_eq!(plain.hop1_received_dbm.to_bits(), cached.hop1_received_dbm.to_bits());
        assert_eq!(plain.hop1_snr_db.to_bits(), cached.hop1_snr_db.to_bits());
        assert_eq!(
            plain.relay_output_dbm.map(f64::to_bits),
            cached.relay_output_dbm.map(f64::to_bits)
        );
        assert_eq!(plain.hop2_received_dbm.to_bits(), cached.hop2_received_dbm.to_bits());
        assert_eq!(plain.hop2_snr_db.to_bits(), cached.hop2_snr_db.to_bits());
        assert_eq!(plain.end_snr_db.to_bits(), cached.end_snr_db.to_bits());
        assert_eq!(plain.saturated, cached.saturated);
    }
}

/// The seed-era incidence sweep: steer the live AP per candidate and
/// re-trace per probe through the plain entry points. The cached
/// `estimate_incidence` must reproduce its argmax and peak bit-for-bit.
fn uncached_incidence(
    scene: &Scene,
    mut ap: RadioEndpoint,
    mut reflector: MovrReflector,
    config: &AlignmentConfig,
    rng: &mut SimRng,
) -> (f64, f64, f64) {
    reflector.set_gain_db(config.probe_gain_db);
    reflector.set_modulating(true);
    let mut best = (f64::NEG_INFINITY, 0.0, 0.0);
    for &theta1 in config.reflector_codebook.beams() {
        reflector.steer_both(theta1);
        for &theta2 in config.ap_codebook.beams() {
            ap.steer_to(theta2);
            let reflected = round_trip_reflection_dbm(scene, &ap, &reflector)
                .unwrap_or(f64::NEG_INFINITY);
            let reading = config
                .probe
                .measure_modulated(reflected, ap.tx_power_dbm(), rng);
            if reading.power_dbm > best.0 {
                best = (reading.power_dbm, theta1, theta2);
            }
        }
    }
    best
}

#[test]
fn estimate_incidence_is_bit_identical_to_uncached_sweep() {
    let scene = Scene::paper_office();
    let ap = RadioEndpoint::paper_radio(Vec2::new(0.5, 2.5), 20.0);
    let reflector = MovrReflector::wall_mounted(Vec2::new(1.0, 4.75), -70.0, 5);
    let truth_refl = reflector.position().bearing_deg_to(ap.position());
    let truth_ap = ap.position().bearing_deg_to(reflector.position());
    // A 21×21 window keeps the double sweep fast; the bench runs the
    // full 101×101 version of this same check.
    let cfg = AlignmentConfig {
        ap_codebook: Codebook::sweep(truth_ap - 10.0, truth_ap + 10.0, 1.0),
        reflector_codebook: Codebook::sweep(truth_refl - 10.0, truth_refl + 10.0, 1.0),
        ..Default::default()
    };

    let mut rng_c = SimRng::seed_from_u64(42);
    let cached = estimate_incidence(&scene, ap, reflector.clone(), &cfg, &mut rng_c);
    let mut rng_u = SimRng::seed_from_u64(42);
    let (peak, t1, t2) = uncached_incidence(&scene, ap, reflector, &cfg, &mut rng_u);

    assert_eq!(cached.peak_power_dbm.to_bits(), peak.to_bits());
    assert_eq!(cached.reflector_angle_deg.to_bits(), t1.to_bits());
    assert_eq!(cached.ap_angle_deg.to_bits(), t2.to_bits());
    // Both RNGs must have consumed the same draws: the next sample from
    // each is identical.
    assert_eq!(rng_c.uniform(0.0, 1.0).to_bits(), rng_u.uniform(0.0, 1.0).to_bits());
}

#[test]
fn link_cache_evaluation_is_bit_identical_across_obstacle_churn() {
    let mut scene = Scene::paper_office();
    let mut ap = RadioEndpoint::paper_radio(Vec2::new(0.5, 2.5), 20.0);
    let mut hs = RadioEndpoint::paper_radio(Vec2::new(4.0, 2.0), 180.0);
    ap.steer_toward(hs.position());
    hs.steer_toward(ap.position());
    let mut cache = LinkCache::new();

    let idx = scene.add_obstacle(Obstacle::new(BodyPart::Hand, Vec2::new(2.0, 2.3)));
    for step in 0..6 {
        scene.move_obstacle(idx, Vec2::new(2.0 + 0.3 * f64::from(step), 2.3));
        let plain = evaluate_link(&scene, &ap, &hs);
        let cached = cache.evaluate(
            &scene,
            ap.position(),
            &ArrayPattern(ap.array()),
            ap.tx_power_dbm(),
            hs.position(),
            &ArrayPattern(hs.array()),
        );
        assert_eq!(plain.received_dbm.to_bits(), cached.received_dbm.to_bits(), "step={step}");
        assert_eq!(plain.snr_db.to_bits(), cached.snr_db.to_bits(), "step={step}");
    }
}

fn assert_budgets_bit_identical(a: &RelayBudget, b: &RelayBudget, what: &str) {
    assert_eq!(
        a.hop1_received_dbm.to_bits(),
        b.hop1_received_dbm.to_bits(),
        "{what}"
    );
    assert_eq!(a.hop1_snr_db.to_bits(), b.hop1_snr_db.to_bits(), "{what}");
    assert_eq!(
        a.relay_output_dbm.map(f64::to_bits),
        b.relay_output_dbm.map(f64::to_bits),
        "{what}"
    );
    assert_eq!(
        a.hop2_received_dbm.to_bits(),
        b.hop2_received_dbm.to_bits(),
        "{what}"
    );
    assert_eq!(a.hop2_snr_db.to_bits(), b.hop2_snr_db.to_bits(), "{what}");
    assert_eq!(a.end_snr_db.to_bits(), b.end_snr_db.to_bits(), "{what}");
    assert_eq!(a.saturated, b.saturated, "{what}");
}

/// `relay_link_on` over the system's own scene with every endpoint
/// steered afresh: a new AP aimed at the reflector, a copy of the
/// installed reflector re-aimed at its incidence bearing (its transmit
/// beam and gain are what the evaluation left), and a new headset for
/// the player's pose aimed at the reflector. Every antenna gain is a
/// live array query.
fn fresh_relay_budget(sys: &MovrSystem, world: &WorldState) -> RelayBudget {
    let mut reflector = sys.reflectors()[0].clone();
    let mut ap = RadioEndpoint::paper_radio(sys.ap().position(), sys.ap().array().boresight_deg());
    ap.steer_toward(reflector.position());
    reflector.steer_rx(reflector.position().bearing_deg_to(ap.position()));
    let mut hs = RadioEndpoint::paper_radio(
        world.player.receiver_position(),
        world.player.receiver_boresight_deg(),
    );
    hs.steer_toward(reflector.position());
    let hop1 = sys.scene().trace_link(ap.position(), reflector.position());
    let hop2 = sys.scene().trace_link(reflector.position(), hs.position());
    relay_link_on(&hop1, &hop2, &ap, &reflector, hs.array())
}

/// `MovrSystem` reads hop 1's antenna gains from tables built at
/// installation in the obstacle-free room. Its relay budgets must equal
/// `relay_link_on` on freshly steered endpoints bit for bit — including
/// frames where stacked bodies push the hop-1 line-of-sight path past
/// the tracer's `max_excess_loss_db` and prune it.
#[test]
fn system_relay_budgets_are_bit_identical_to_freshly_steered_endpoints() {
    let ap_pos = Vec2::new(0.5, 2.5);
    let reflector_pos = Vec2::new(1.0, 4.75);
    let center = Vec2::new(4.0, 2.5);
    let facing_ap = PlayerState::standing(center, center.bearing_deg_to(ap_pos));
    // Three torsos (30 dB each) on the AP → reflector line: 90 dB of
    // shadowing against an 80 dB pruning bound.
    let stack: Vec<Obstacle> = [0.3, 0.5, 0.7]
        .iter()
        .map(|&t| Obstacle::new(BodyPart::Torso, ap_pos + (reflector_pos - ap_pos) * t))
        .collect();
    let with_stack = |player: PlayerState| WorldState {
        player,
        others: stack.clone(),
    };
    let worlds = [
        WorldState::player_only(facing_ap.with_hand(true)),
        WorldState::player_only(facing_ap.with_yaw(100.0)),
        with_stack(facing_ap),
        with_stack(facing_ap.with_hand(true)),
        with_stack(facing_ap.with_yaw(60.0)),
    ];

    // The stack really prunes hop 1: the line-of-sight path is gone.
    let mut stacked_scene = Scene::paper_office();
    stacked_scene.set_obstacles(stack.clone());
    let clear_scene = Scene::paper_office();
    let clear_hop1 = clear_scene.trace_link(ap_pos, reflector_pos);
    let stacked_hop1 = stacked_scene.trace_link(ap_pos, reflector_pos);
    assert!(clear_hop1
        .paths()
        .iter()
        .any(|p| p.kind == PathKind::LineOfSight));
    assert!(!stacked_hop1
        .paths()
        .iter()
        .any(|p| p.kind == PathKind::LineOfSight));
    assert!(stacked_hop1.paths().len() < clear_hop1.paths().len());

    for (k, world) in worlds.iter().enumerate() {
        let mut sys = MovrSystem::paper_setup(SystemConfig::default());
        let via = sys.evaluate_via_reflector(0, world);
        assert_budgets_bit_identical(
            &via,
            &fresh_relay_budget(&sys, world),
            &format!("via, world {k}"),
        );
    }

    // The per-frame path, tracking and sweep-on-degradation alike, on a
    // system carrying state across frames: every reflector-served
    // decision's SNR is the fresh budget's end-to-end SNR.
    for use_tracking in [true, false] {
        let mut sys = MovrSystem::paper_setup(SystemConfig {
            use_tracking,
            ..Default::default()
        });
        let mut served = 0;
        for (frame, world) in worlds.iter().cycle().take(20).enumerate() {
            let decision = sys.evaluate_at(0.011 * frame as f64, world);
            if decision.mode == LinkMode::Reflector(0) {
                served += 1;
                let fresh = fresh_relay_budget(&sys, world);
                assert_eq!(
                    decision.snr_db.to_bits(),
                    fresh.end_snr_db.to_bits(),
                    "tracking={use_tracking} frame={frame}"
                );
            }
        }
        assert!(
            served >= 8,
            "tracking={use_tracking}: only {served} relayed frames"
        );
    }
}
