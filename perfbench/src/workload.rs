//! The four workloads: their seed-driven op lists, how one op runs,
//! the invariant each op's output must satisfy, and the fingerprint of
//! simulated statistics a run leaves behind.

use crate::ledger::{timed, Ledger};
use crate::stats::MIN_OPS;
use movr::alignment::{estimate_incidence, AlignmentConfig, AlignmentResult};
use movr::session::{run_session, Session, SessionConfig, SessionOutcome, Strategy};
use movr::MovrReflector;
use movr_math::convert::{f64_to_usize, u64_to_f64, usize_to_f64, usize_to_u64};
use movr_math::{wrap_deg_180, SimRng, Vec2};
use movr_motion::{HandRaise, MotionTrace, PlayerState, RandomWalk};
use movr_obs::{reduce_one_stream, MemoryRecorder, Recorder, Rollup, SessionTagged};
use movr_phased_array::{Codebook, UniformLinearArray};
use movr_radio::RadioEndpoint;
use movr_rfsim::{Room, Scene};

/// Where the AP sits in the canonical office; every player gazes at it.
const AP_POSITION: Vec2 = Vec2 { x: 0.5, y: 2.5 };
/// The AP array's boresight, degrees (as in `MovrSystem::paper_setup`).
const AP_BORESIGHT_DEG: f64 = 20.0;
/// Centre of the standing player's pose draw (3.5 m in front of the AP).
const STAND_CENTER: Vec2 = Vec2 { x: 4.0, y: 2.5 };
/// Half-width of the square the standing pose is drawn from, metres.
const STAND_JITTER_M: f64 = 0.3;
/// Beams per alignment codebook: the paper's 1° sweep over 100°.
const SWEEP_BEAMS: f64 = 101.0;
/// Largest offset of a codebook window's centre from the true bearing,
/// in whole beams: the 1° grid always holds the truth, as in Fig. 8.
const WINDOW_JITTER_BEAMS: usize = 5;
/// The §4.1 accuracy claim, degrees. Probe jitter makes it a claim about
/// most sweeps, not each one, so it is counted in the fingerprint.
const SWEEP_CLAIM_DEG: f64 = 2.0;
/// Simulated seconds between checkpoint cuts in `fleet_analytics`.
const CUT_EVERY_S: f64 = 1.0;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Standing player, clear line of sight: MoVR stays on the direct path.
    SessionLos,
    /// The same player with a hand raised throughout: every frame relays.
    SessionBlocked,
    /// One full 101×101 §4.1 incidence sweep per op.
    AlignSweep,
    /// Recorded random-walk sessions, checkpointed, encoded and reduced.
    FleetAnalytics,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::SessionLos,
        Workload::SessionBlocked,
        Workload::AlignSweep,
        Workload::FleetAnalytics,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SessionLos => "session_los",
            Workload::SessionBlocked => "session_blocked",
            Workload::AlignSweep => "align_sweep",
            Workload::FleetAnalytics => "fleet_analytics",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one unit of `work_per_s` is on this workload.
    pub fn work_unit(self) -> &'static str {
        match self {
            Workload::SessionLos | Workload::SessionBlocked => "simulated session-second",
            Workload::AlignSweep => "probe",
            Workload::FleetAnalytics => "event reduced",
        }
    }

    /// Simulated length of one session op, seconds (0 for sweeps).
    fn session_s(self) -> f64 {
        match self {
            Workload::SessionLos => 8.0,
            Workload::SessionBlocked => 3.0,
            Workload::AlignSweep => 0.0,
            Workload::FleetAnalytics => 10.0,
        }
    }

    /// Ops per second of `--seconds`: a fixed constant, sized so a run
    /// measures about that long (normalised) on a 2-vCPU 2.1 GHz Xeon
    /// KVM guest. The op count is
    /// a pure function of the arguments, never of a measured speed, so
    /// every run with the same arguments does identical work.
    fn ops_per_s(self) -> f64 {
        match self {
            Workload::SessionLos => 150.0,
            Workload::SessionBlocked => 52.0,
            Workload::AlignSweep => 95.0,
            Workload::FleetAnalytics => 25.0,
        }
    }

    /// Ops in a run of `seconds`, never fewer than [`MIN_OPS`].
    pub fn op_count(self, seconds: u64) -> usize {
        f64_to_usize((u64_to_f64(seconds) * self.ops_per_s()).ceil()).max(MIN_OPS)
    }

    /// Salt separating the workloads' input streams under one seed.
    fn salt(self) -> u64 {
        match self {
            Workload::SessionLos => 0x105,
            Workload::SessionBlocked => 0xB10C,
            Workload::AlignSweep => 0x5EE9,
            Workload::FleetAnalytics => 0xF1EE7,
        }
    }

    /// The set-up's warm-up op: the first op of seed 0's list.
    pub fn warm_up_op(self) -> Op {
        self.ops(0, 1).remove(0)
    }

    /// The run's op list: `n` ops drawn from `seed` alone.
    pub fn ops(self, seed: u64, n: usize) -> Vec<Op> {
        let mut rng = SimRng::seed_from_u64(seed ^ self.salt());
        let room = Room::paper_office();
        (0..n)
            .map(|i| match self {
                Workload::SessionLos | Workload::SessionBlocked => Op::Session(SessionOp::draw(
                    &mut rng,
                    self.session_s(),
                    self == Workload::SessionBlocked,
                )),
                Workload::AlignSweep => Op::Sweep(SweepOp::draw(&mut rng)),
                Workload::FleetAnalytics => Op::Fleet(FleetOp::draw(
                    &mut rng,
                    &room,
                    usize_to_u64(i),
                    self.session_s(),
                )),
            })
            .collect()
    }
}

/// One unit of timed work.
#[derive(Debug, Clone)]
pub enum Op {
    /// A `run_session` over a standing player.
    Session(SessionOp),
    /// A full incidence sweep.
    Sweep(SweepOp),
    /// A recorded, checkpointed, reduced random-walk session.
    Fleet(FleetOp),
}

/// A standing player gazing at the AP, hand up or down all session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionOp {
    /// The player's pose.
    pub player: PlayerState,
    /// Whether the hand is raised in front of the headset throughout.
    pub hand_up: bool,
    /// Seed of the tracker and the system's fault stream.
    pub system_seed: u64,
    /// Session length, seconds.
    pub duration_s: f64,
}

impl SessionOp {
    fn draw(rng: &mut SimRng, duration_s: f64, hand_up: bool) -> Self {
        let center = Vec2::new(
            STAND_CENTER.x + rng.uniform(-STAND_JITTER_M, STAND_JITTER_M),
            STAND_CENTER.y + rng.uniform(-STAND_JITTER_M, STAND_JITTER_M),
        );
        SessionOp {
            player: PlayerState::standing(center, center.bearing_deg_to(AP_POSITION)),
            hand_up,
            system_seed: rng.next_u64(),
            duration_s,
        }
    }

    /// The session's motion: a hand raise spanning all or none of it.
    pub fn trace(&self) -> HandRaise {
        HandRaise {
            base: self.player,
            raise_at_s: 0.0,
            lower_at_s: if self.hand_up { f64::INFINITY } else { 0.0 },
            duration_s: self.duration_s,
        }
    }

    /// Full MoVR with §6 tracking, on the op's system seed.
    pub fn config(&self) -> SessionConfig {
        movr_config(self.system_seed)
    }
}

/// One reflector mount and probe-noise stream for a 101×101 sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOp {
    /// Reflector position on the north wall.
    pub mount: Vec2,
    /// Reflector array boresight, degrees.
    pub boresight_deg: f64,
    /// The reflector unit's device seed.
    pub device_seed: u64,
    /// Seed of the AP tone meter's noise.
    pub noise_seed: u64,
    /// Offset of the AP codebook's centre from the true AP bearing.
    pub ap_window_offset_deg: f64,
    /// Offset of the reflector codebook's centre from the true incidence.
    pub reflector_window_offset_deg: f64,
}

impl SweepOp {
    /// Mounts as `tests/alignment_accuracy.rs` draws them: along the
    /// north wall, aimed at the play area with ±10° of sloppiness.
    fn draw(rng: &mut SimRng) -> Self {
        let mount = Vec2::new(rng.uniform(0.8, 3.5), 4.75);
        SweepOp {
            mount,
            boresight_deg: mount.bearing_deg_to(Vec2::new(1.8, 2.2)) + rng.uniform(-10.0, 10.0),
            device_seed: rng.next_u64(),
            noise_seed: rng.next_u64(),
            ap_window_offset_deg: beam_offset(rng),
            reflector_window_offset_deg: beam_offset(rng),
        }
    }

    /// The wall-mounted unit under test.
    pub fn reflector(&self) -> MovrReflector {
        MovrReflector::wall_mounted(self.mount, self.boresight_deg, self.device_seed)
    }

    /// Geometric truth: `(incidence at the reflector, AP bearing)`.
    pub fn truth(&self) -> (f64, f64) {
        (
            self.mount.bearing_deg_to(AP_POSITION),
            AP_POSITION.bearing_deg_to(self.mount),
        )
    }

    /// Half the paper array's half-power beamwidth at each node's true
    /// steering angle off its boresight, `(reflector, AP)`: the main
    /// lobe's half-width around truth. It widens as the beam steers away
    /// from boresight (5.1° at boresight, 9.3° at 61°).
    pub fn lobe_half_widths(&self) -> (f64, f64) {
        let (truth_refl, truth_ap) = self.truth();
        let array = UniformLinearArray::paper_array();
        let half =
            |off_boresight: f64| array.half_power_beamwidth_deg(wrap_deg_180(off_boresight)) / 2.0;
        (
            half(truth_refl - self.boresight_deg),
            half(truth_ap - AP_BORESIGHT_DEG),
        )
    }

    /// The default alignment protocol with two 101-beam 1° codebooks,
    /// each windowed on its node's true bearing plus the drawn offset.
    pub fn config(&self) -> AlignmentConfig {
        let (truth_refl, truth_ap) = self.truth();
        let window = |center: f64| {
            let half = (SWEEP_BEAMS - 1.0) / 2.0;
            Codebook::sweep(center - half, center + half, 1.0)
        };
        AlignmentConfig {
            ap_codebook: window(truth_ap + self.ap_window_offset_deg),
            reflector_codebook: window(truth_refl + self.reflector_window_offset_deg),
            ..AlignmentConfig::default()
        }
    }
}

/// A whole-beam offset in `-WINDOW_JITTER_BEAMS..=WINDOW_JITTER_BEAMS`.
fn beam_offset(rng: &mut SimRng) -> f64 {
    let beams = rng.uniform_usize(0, 2 * WINDOW_JITTER_BEAMS);
    usize_to_f64(beams) - usize_to_f64(WINDOW_JITTER_BEAMS)
}

/// One fleet session: a seeded gaze-on-AP random walk.
#[derive(Debug, Clone)]
pub struct FleetOp {
    /// Session id tagged onto every recorded event.
    pub session: u64,
    /// Seed of the walk and of the system.
    pub seed: u64,
    /// The pre-sampled walk.
    pub walk: RandomWalk,
}

impl FleetOp {
    fn draw(rng: &mut SimRng, room: &Room, session: u64, duration_s: f64) -> Self {
        let seed = rng.next_u64();
        FleetOp {
            session,
            seed,
            walk: RandomWalk::with_gaze(room, seed, duration_s, AP_POSITION),
        }
    }
}

/// Full MoVR with §6 tracking and default calibration.
fn movr_config(system_seed: u64) -> SessionConfig {
    let mut cfg = SessionConfig::with_strategy(Strategy::Movr { tracking: true });
    cfg.system.seed = system_seed;
    cfg
}

/// What one op produced: its work and whether its output checked out.
#[derive(Debug, Clone, PartialEq)]
pub struct OpOutcome {
    /// Units of work done (see [`Workload::work_unit`]).
    pub work: f64,
    /// `Err` names the invariant the output broke.
    pub check: Result<(), String>,
}

/// Simulated statistics of a run: equal across two builds exactly when
/// the simulated model is unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Session frames simulated.
    pub frames: u64,
    /// Of those, frames delivered within the latency budget.
    pub delivered: u64,
    /// Direct ↔ reflector switches.
    pub mode_switches: u64,
    /// Beam realignments.
    pub realignments: u64,
    /// Sweep probes taken.
    pub probes: u64,
    /// Sweeps whose two angles both met the §4.1 2° claim.
    pub sweeps_within_claim: u64,
    /// Events recorded and reduced.
    pub events: u64,
    /// FNV-1a over every session's mean-SNR bits, in op order.
    pub snr_hash: u64,
    /// FNV-1a over every sweep's peak probe power bits, in op order.
    pub peak_probe_hash: u64,
    /// FNV-1a of the run's final rollup JSON.
    pub rollup_hash: u64,
}

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint {
            frames: 0,
            delivered: 0,
            mode_switches: 0,
            realignments: 0,
            probes: 0,
            sweeps_within_claim: 0,
            events: 0,
            snr_hash: FNV_OFFSET,
            peak_probe_hash: FNV_OFFSET,
            rollup_hash: FNV_OFFSET,
        }
    }
}

impl Fingerprint {
    fn add_session(&mut self, out: &SessionOutcome) {
        self.frames += usize_to_u64(out.glitches.frames_total);
        self.delivered += usize_to_u64(out.glitches.frames_delivered);
        self.mode_switches += usize_to_u64(out.mode_switches);
        self.realignments += usize_to_u64(out.realignments);
        self.snr_hash = fnv1a(self.snr_hash, &out.mean_snr_db.to_bits().to_le_bytes());
    }

    fn add_sweep(&mut self, r: &AlignmentResult, truth: (f64, f64)) {
        self.probes += usize_to_u64(r.measurements);
        let (refl_err, ap_err) = sweep_errors_deg(r, truth);
        if refl_err.max(ap_err) <= SWEEP_CLAIM_DEG {
            self.sweeps_within_claim += 1;
        }
        self.peak_probe_hash = fnv1a(
            self.peak_probe_hash,
            &r.peak_power_dbm.to_bits().to_le_bytes(),
        );
    }

    /// One JSON object, keys in a fixed order.
    pub fn json(&self) -> String {
        format!(
            "{{\"frames\":{},\"delivered\":{},\"mode_switches\":{},\"realignments\":{},\"probes\":{},\"sweeps_within_claim\":{},\"events\":{},\"snr_hash\":\"{:016x}\",\"peak_probe_hash\":\"{:016x}\",\"rollup_hash\":\"{:016x}\"}}",
            self.frames,
            self.delivered,
            self.mode_switches,
            self.realignments,
            self.probes,
            self.sweeps_within_claim,
            self.events,
            self.snr_hash,
            self.peak_probe_hash,
            self.rollup_hash
        )
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Everything a run carries across ops: the canonical office, the fleet
/// rollup, and the fingerprint.
#[derive(Debug)]
pub struct RunState {
    /// Which workload the ops belong to (selects the invariant).
    workload: Workload,
    scene: Scene,
    ap: RadioEndpoint,
    /// The fleet rollup every `fleet_analytics` op merges into.
    rollup: Rollup,
    /// Simulated statistics so far.
    pub fingerprint: Fingerprint,
}

impl RunState {
    /// A fresh run over the canonical office (AP on the west wall).
    pub fn new(workload: Workload) -> Self {
        RunState {
            workload,
            scene: Scene::paper_office(),
            ap: RadioEndpoint::paper_radio(AP_POSITION, AP_BORESIGHT_DEG),
            rollup: Rollup::new(),
            fingerprint: Fingerprint::default(),
        }
    }

    /// Runs one op; with a ledger, also attributes its time to layers.
    pub fn run(&mut self, op: &Op, ledger: Option<&mut Ledger>) -> OpOutcome {
        match op {
            Op::Session(s) => self.run_session(s, ledger),
            Op::Sweep(s) => self.run_sweep(s, ledger),
            Op::Fleet(f) => self.run_fleet(f, ledger),
        }
    }

    /// Ends the run: renders the fleet rollup once (timed into `ledger`)
    /// and seals the fingerprint.
    pub fn finish(&mut self, ledger: Option<&mut Ledger>) {
        if self.workload == Workload::FleetAnalytics {
            let json = timed(ledger.map(|l| &mut l.rollup_json_ns), || {
                self.rollup.to_json()
            });
            self.fingerprint.rollup_hash = fnv1a(FNV_OFFSET, json.as_bytes());
        }
    }

    fn run_session(&mut self, op: &SessionOp, ledger: Option<&mut Ledger>) -> OpOutcome {
        let trace = op.trace();
        let cfg = op.config();
        let out = match ledger {
            None => run_session(&trace, &cfg),
            Some(l) => {
                let traced =
                    crate::ledger::drive(&trace, &cfg, &mut movr_obs::NullRecorder, None, l);
                match traced {
                    Ok(session) => session.outcome(trace.duration_s()),
                    Err(e) => {
                        return OpOutcome {
                            work: op.duration_s,
                            check: Err(e),
                        }
                    }
                }
            }
        };
        self.fingerprint.add_session(&out);
        OpOutcome {
            work: op.duration_s,
            check: check_session(self.workload, &out),
        }
    }

    fn run_sweep(&mut self, op: &SweepOp, ledger: Option<&mut Ledger>) -> OpOutcome {
        let cfg = op.config();
        let mut rng = SimRng::seed_from_u64(op.noise_seed);
        let r = match ledger {
            None => estimate_incidence(&self.scene, self.ap, op.reflector(), &cfg, &mut rng),
            Some(l) => crate::ledger::sweep(&self.scene, self.ap, op, &cfg, &mut rng, l),
        };
        self.fingerprint.add_sweep(&r, op.truth());
        OpOutcome {
            work: u64_to_f64(usize_to_u64(r.measurements)),
            check: check_sweep(&r, op.truth(), op.lobe_half_widths()),
        }
    }

    fn run_fleet(&mut self, op: &FleetOp, mut ledger: Option<&mut Ledger>) -> OpOutcome {
        let cfg = movr_config(op.seed);
        let mut mem = MemoryRecorder::new();
        let stepped = {
            let mut tagged = SessionTagged::new(&mut mem, op.session);
            match ledger.as_deref_mut() {
                None => step_with_cuts(&op.walk, &cfg, &mut tagged),
                Some(l) => crate::ledger::drive(&op.walk, &cfg, &mut tagged, Some(CUT_EVERY_S), l),
            }
        };
        let session = match stepped {
            Ok(session) => session,
            Err(e) => {
                return OpOutcome {
                    work: 0.0,
                    check: Err(e),
                }
            }
        };
        self.fingerprint
            .add_session(&session.outcome(op.walk.duration_s()));

        let jsonl = timed(ledger.as_deref_mut().map(|l| &mut l.encode_ns), || {
            mem.to_jsonl()
        });
        let label = format!("session-{}", op.session);
        let reduced = timed(ledger.as_deref_mut().map(|l| &mut l.reduce_ns), || {
            reduce_one_stream(&label, jsonl.as_bytes())
        });
        let (part, events) = match reduced {
            Ok(r) => r,
            Err(e) => {
                return OpOutcome {
                    work: 0.0,
                    check: Err(e.to_string()),
                }
            }
        };
        let merged = timed(ledger.as_deref_mut().map(|l| &mut l.merge_ns), || {
            self.rollup.merge(&part)
        });
        if let Some(l) = ledger {
            l.sim_s += op.walk.duration_s();
            l.sessions += 1;
            l.jsonl_bytes += usize_to_u64(jsonl.len());
            l.reduced += events;
        }
        self.fingerprint.events += events;
        let check = check_reduced(usize_to_u64(mem.len()), events)
            .and_then(|()| merged.map_err(|e| format!("rollup merge failed: {e}")));
        OpOutcome {
            work: u64_to_f64(events),
            check,
        }
    }
}

/// Steps a fresh session over `trace` to its end, recording into `rec`
/// and cutting it every [`CUT_EVERY_S`] simulated seconds.
fn step_with_cuts(
    trace: &dyn MotionTrace,
    cfg: &SessionConfig,
    rec: &mut dyn Recorder,
) -> Result<Session, String> {
    let mut session = Session::new(cfg);
    let mut next_cut = CUT_EVERY_S;
    while session.step_frame_recorded(trace, rec) {
        if session.now().as_secs_f64() >= next_cut {
            session = cut(&session, cfg, None)?;
            next_cut += CUT_EVERY_S;
        }
    }
    Ok(session)
}

/// A checkpoint cut: capture, restore, re-capture. The restored session
/// continues the op; its re-capture must repeat the captured bytes.
pub(crate) fn cut(
    session: &Session,
    cfg: &SessionConfig,
    mut ledger: Option<&mut Ledger>,
) -> Result<Session, String> {
    let bytes = timed(ledger.as_deref_mut().map(|l| &mut l.capture_ns), || {
        session.snapshot()
    });
    let restored = timed(ledger.as_deref_mut().map(|l| &mut l.restore_ns), || {
        Session::restore(&bytes, cfg)
    })
    .map_err(|e| format!("snapshot restore failed: {e}"))?;
    let again = timed(ledger.as_deref_mut().map(|l| &mut l.capture_ns), || {
        restored.snapshot()
    });
    if let Some(l) = ledger {
        l.captures += 2;
        l.restores += 1;
        l.snapshot_bytes += usize_to_u64(bytes.len());
    }
    check_recapture(&bytes, &again)?;
    Ok(restored)
}

/// `session_los` never leaves the direct path; `session_blocked` relays
/// every frame.
pub fn check_session(workload: Workload, out: &SessionOutcome) -> Result<(), String> {
    let f = out.reflector_fraction;
    let ok = match workload {
        Workload::SessionLos => f <= 0.0,
        Workload::SessionBlocked => f >= 1.0,
        _ => true,
    };
    if out.glitches.frames_total == 0 {
        return Err("session simulated no frames".into());
    }
    if ok {
        Ok(())
    } else {
        Err(format!("{}: reflector fraction {f}", workload.name()))
    }
}

/// A sweep's angle errors `(incidence, AP bearing)` against geometric
/// truth, degrees.
fn sweep_errors_deg(r: &AlignmentResult, truth: (f64, f64)) -> (f64, f64) {
    (
        wrap_deg_180(r.reflector_angle_deg - truth.0).abs(),
        wrap_deg_180(r.ap_angle_deg - truth.1).abs(),
    )
}

/// The full 101 × 101 probes were taken and each estimated angle lies in
/// its node's main lobe around geometric truth: within `lobes`
/// `(incidence, AP bearing)` half-widths of `truth`.
pub fn check_sweep(
    r: &AlignmentResult,
    truth: (f64, f64),
    lobes: (f64, f64),
) -> Result<(), String> {
    let full = f64_to_usize(SWEEP_BEAMS * SWEEP_BEAMS);
    if r.measurements != full {
        return Err(format!("sweep took {} probes, not {full}", r.measurements));
    }
    let (refl_err, ap_err) = sweep_errors_deg(r, truth);
    if refl_err > lobes.0 || ap_err > lobes.1 {
        return Err(format!(
            "sweep left the main lobe: incidence {refl_err}° off (half-width {}°), AP {ap_err}° off (half-width {}°)",
            lobes.0, lobes.1
        ));
    }
    Ok(())
}

/// The reducer folded every recorded event.
pub fn check_reduced(recorded: u64, reduced: u64) -> Result<(), String> {
    if recorded == reduced {
        Ok(())
    } else {
        Err(format!("recorded {recorded} events, reduced {reduced}"))
    }
}

/// A restored session re-captures to the very bytes it was restored from.
pub fn check_recapture(captured: &[u8], recaptured: &[u8]) -> Result<(), String> {
    if captured == recaptured {
        Ok(())
    } else {
        Err(format!(
            "re-capture differs: {} bytes captured, {} re-captured",
            captured.len(),
            recaptured.len()
        ))
    }
}
