//! The traced run's per-layer ledger.
//!
//! Layers are timed from outside the library only:
//!
//! * inside the op, through the public traits the library already calls
//!   — a [`TimedTrace`] around the op's [`MotionTrace`] and a
//!   [`TimingRecorder`] that times `gain_ramp` spans and `record` calls;
//! * after the op, by replaying the public calls each layer makes on the
//!   op's own inputs (the `(t, world)` sequence the session saw, the
//!   sweep's mount and codebooks) and timing each call.
//!
//! Time no named layer accounts for is reported as `*.unattributed_*`.

use crate::host::PhaseHost;
use crate::workload::{cut, SweepOp, Workload};
use movr::alignment::{estimate_incidence, AlignmentConfig, AlignmentResult};
use movr::relay::round_trip_reflection_batched;
use movr::session::{Session, SessionConfig};
use movr::{relay_link_on, MovrSystem};
use movr_math::convert::u64_to_f64;
use movr_math::SimRng;
use movr_motion::{MotionTrace, WorldState};
use movr_obs::{Event, Recorder, SpanId};
use movr_phased_array::PatternTable;
use movr_radio::{evaluate_link, RadioEndpoint};
use movr_rfsim::Scene;
use movr_sim::SimTime;
use movr_testkit::Timer;
use std::cell::{Cell, RefCell};
use std::hint::black_box;

/// Runs `f`, adding its wall time to `slot` when one is given.
pub(crate) fn timed<R>(slot: Option<&mut u64>, f: impl FnOnce() -> R) -> R {
    match slot {
        None => f(),
        Some(acc) => {
            let t = Timer::start();
            let r = f();
            *acc += t.elapsed_ns();
            r
        }
    }
}

/// Per-layer totals over every traced op of a run (nanoseconds unless
/// named otherwise).
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Wall time of the traced ops themselves, replays excluded.
    pub(crate) op_ns: u64,
    pub(crate) frames: u64,
    pub(crate) step_ns: u64,
    pub(crate) world_at_ns: u64,
    pub(crate) evaluate_ns: u64,
    pub(crate) traces: u64,
    pub(crate) direct_trace_ns: u64,
    pub(crate) hop_trace_ns: u64,
    pub(crate) link_ns: u64,
    pub(crate) relays: u64,
    pub(crate) relay_ns: u64,
    pub(crate) ramps: u64,
    pub(crate) ramp_steps: u64,
    pub(crate) ramp_ns: u64,
    /// Recorder time spent inside open `gain_ramp` spans.
    pub(crate) ramp_record_ns: u64,
    pub(crate) sweeps: u64,
    pub(crate) sweep_ns: u64,
    pub(crate) probes: u64,
    pub(crate) sweep_trace_ns: u64,
    pub(crate) page_ns: u64,
    pub(crate) row_ns: u64,
    pub(crate) tone_ns: u64,
    pub(crate) tone_probes: u64,
    pub(crate) captures: u64,
    pub(crate) restores: u64,
    pub(crate) capture_ns: u64,
    pub(crate) restore_ns: u64,
    pub(crate) snapshot_bytes: u64,
    pub(crate) recorded: u64,
    pub(crate) record_ns: u64,
    pub(crate) sessions: u64,
    pub(crate) sim_s: f64,
    pub(crate) encode_ns: u64,
    pub(crate) jsonl_bytes: u64,
    pub(crate) reduce_ns: u64,
    pub(crate) reduced: u64,
    pub(crate) merge_ns: u64,
    pub(crate) rollup_json_ns: u64,
}

/// A [`MotionTrace`] wrapper timing `world_at` and logging the
/// `(t, world)` sequence the session asked for.
pub(crate) struct TimedTrace<'a> {
    inner: &'a dyn MotionTrace,
    ns: Cell<u64>,
    log: RefCell<Vec<(f64, WorldState)>>,
}

impl<'a> TimedTrace<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a dyn MotionTrace) -> Self {
        TimedTrace {
            inner,
            ns: Cell::new(0),
            log: RefCell::new(Vec::new()),
        }
    }
}

impl MotionTrace for TimedTrace<'_> {
    fn duration_s(&self) -> f64 {
        self.inner.duration_s()
    }

    fn world_at(&self, t_s: f64) -> WorldState {
        let t = Timer::start();
        let world = self.inner.world_at(t_s);
        self.ns.set(self.ns.get() + t.elapsed_ns());
        self.log.borrow_mut().push((t_s, world.clone()));
        world
    }
}

/// A [`Recorder`] wrapper that times `gain_ramp` spans and the inner
/// recorder's `record` calls. It reports itself enabled so the library
/// opens its spans even when the op's own recorder is a `NullRecorder`;
/// events are forwarded (and counted as obs cost) only when the inner
/// recorder is enabled.
pub(crate) struct TimingRecorder<'a> {
    inner: &'a mut dyn Recorder,
    next_span: u64,
    open_ramps: Vec<(SpanId, Timer)>,
    /// Sim time at which each `gain_ramp` opened, in order.
    ramp_starts: Vec<SimTime>,
    ramp_ns: u64,
    ramp_record_ns: u64,
    ramp_steps: u64,
    record_ns: u64,
    recorded: u64,
}

impl<'a> TimingRecorder<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut dyn Recorder) -> Self {
        TimingRecorder {
            inner,
            next_span: 0,
            open_ramps: Vec::new(),
            ramp_starts: Vec::new(),
            ramp_ns: 0,
            ramp_record_ns: 0,
            ramp_steps: 0,
            record_ns: 0,
            recorded: 0,
        }
    }

    fn forward<R>(&mut self, f: impl FnOnce(&mut dyn Recorder) -> R) -> R {
        let t = Timer::start();
        let out = f(&mut *self.inner);
        let ns = t.elapsed_ns();
        self.record_ns += ns;
        self.recorded += 1;
        if !self.open_ramps.is_empty() {
            self.ramp_record_ns += ns;
        }
        out
    }
}

impl Recorder for TimingRecorder<'_> {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, event: Event) {
        if event.kind == "gain_step" {
            self.ramp_steps += 1;
        }
        if self.inner.enabled() {
            self.forward(|r| r.record(event));
        }
    }

    fn start_span(&mut self, t: SimTime, name: &'static str) -> SpanId {
        let timer = Timer::start();
        let id = if self.inner.enabled() {
            self.forward(|r| r.start_span(t, name))
        } else {
            self.next_span += 1;
            SpanId(self.next_span)
        };
        if name == "gain_ramp" {
            self.ramp_starts.push(t);
            self.open_ramps.push((id, timer));
        }
        id
    }

    fn end_span(&mut self, t: SimTime, name: &'static str, id: SpanId) {
        if self.inner.enabled() {
            self.forward(|r| r.end_span(t, name, id));
        }
        if let Some(k) = self.open_ramps.iter().rposition(|(open, _)| *open == id) {
            let (_, timer) = self.open_ramps.remove(k);
            self.ramp_ns += timer.elapsed_ns();
        }
    }
}

/// The traced session loop: steps a fresh session over `trace` with
/// `rec` to its end, timing each `step_frame`, cutting every
/// `cut_every_s` simulated seconds, then replays the frame sequence
/// through the system's layers. Op time (replays excluded) goes to
/// `ledger.op_ns`.
pub(crate) fn drive(
    trace: &dyn MotionTrace,
    cfg: &SessionConfig,
    rec: &mut dyn Recorder,
    cut_every_s: Option<f64>,
    l: &mut Ledger,
) -> Result<Session, String> {
    let timed_trace = TimedTrace::new(trace);
    let mut timing = TimingRecorder::new(rec);
    let op = Timer::start();
    let mut session = Session::new(cfg);
    let mut next_cut = cut_every_s;
    loop {
        let t = Timer::start();
        let more = session.step_frame_recorded(&timed_trace, &mut timing);
        if !more {
            break;
        }
        l.step_ns += t.elapsed_ns();
        l.frames += 1;
        if let (Some(at), Some(every)) = (next_cut, cut_every_s) {
            if session.now().as_secs_f64() >= at {
                session = cut(&session, cfg, Some(&mut *l))?;
                next_cut = Some(at + every);
            }
        }
    }
    l.op_ns += op.elapsed_ns();
    l.world_at_ns += timed_trace.ns.get();
    l.ramps += u64::try_from(timing.ramp_starts.len()).unwrap_or(u64::MAX);
    l.ramp_ns += timing.ramp_ns;
    l.ramp_record_ns += timing.ramp_record_ns;
    l.ramp_steps += timing.ramp_steps;
    l.record_ns += timing.record_ns;
    l.recorded += timing.recorded;
    replay_frames(cfg, &timed_trace.log.borrow(), &timing.ramp_starts, l);
    Ok(session)
}

/// Replays a session's `(t, world)` sequence through the public calls
/// of each layer it exercised, timing each call: the whole
/// `MovrSystem::evaluate_at`, the direct link's scene trace and
/// `evaluate_link`, and — on frames that opened a gain ramp, i.e. that
/// evaluated the reflector candidate — both relay hop traces and
/// `relay_link_on`.
fn replay_frames(
    cfg: &SessionConfig,
    frames: &[(f64, WorldState)],
    ramp_starts: &[SimTime],
    l: &mut Ledger,
) {
    let mut system = MovrSystem::paper_setup(cfg.system);
    let ap_home = *system.ap();
    let mut scene = Scene::paper_office();
    let mut ramps = ramp_starts.iter().peekable();
    for (t_s, world) in frames {
        timed(Some(&mut l.evaluate_ns), || {
            black_box(system.evaluate_at(*t_s, world))
        });

        scene.set_obstacles(world.all_obstacles());
        let player = &world.player;
        let mut hs =
            RadioEndpoint::paper_radio(player.receiver_position(), player.receiver_boresight_deg());
        let mut ap = ap_home;
        ap.steer_toward(hs.position());
        hs.steer_toward(ap.position());
        timed(Some(&mut l.direct_trace_ns), || {
            black_box(scene.paths_between(ap.position(), hs.position()))
        });
        timed(Some(&mut l.link_ns), || {
            black_box(evaluate_link(&scene, &ap, &hs))
        });
        l.traces += 1;

        let now = SimTime::from_secs_f64(*t_s);
        let mut relayed = false;
        while ramps.next_if(|&&start| start == now).is_some() {
            relayed = true;
        }
        if !relayed {
            continue;
        }
        for reflector in system.reflectors() {
            let mut ap_r = ap_home;
            ap_r.steer_toward(reflector.position());
            hs.steer_toward(reflector.position());
            let t = Timer::start();
            let hop1 = scene.trace_link(ap_r.position(), reflector.position());
            let hop2 = scene.trace_link(reflector.position(), hs.position());
            l.hop_trace_ns += t.elapsed_ns();
            l.traces += 2;
            timed(Some(&mut l.relay_ns), || {
                black_box(relay_link_on(&hop1, &hop2, &ap_r, reflector, hs.array()))
            });
            l.relays += 1;
        }
    }
}

/// One traced 101 × 101 sweep: the op itself timed whole, then its
/// layers replayed on the same mount and codebooks — both legs' scene
/// traces, the AP's `PatternTable` pages, the reflector's
/// `gain_dbi_batch` rows, and `ToneMeter::measure` over every probe's
/// reflected power. The per-probe row fold is left unattributed.
pub(crate) fn sweep(
    scene: &Scene,
    ap: RadioEndpoint,
    op: &SweepOp,
    cfg: &AlignmentConfig,
    rng: &mut SimRng,
    l: &mut Ledger,
) -> AlignmentResult {
    let r = timed(Some(&mut l.sweep_ns), || {
        estimate_incidence(scene, ap, op.reflector(), cfg, rng)
    });
    l.sweeps += 1;
    l.probes += u64::try_from(r.measurements).unwrap_or(u64::MAX);

    let mut reflector = op.reflector();
    reflector.set_gain_db(cfg.probe_gain_db);
    reflector.set_modulating(cfg.modulated);
    let (fwd, bck) = timed(Some(&mut l.sweep_trace_ns), || {
        (
            scene
                .trace_link(ap.position(), reflector.position())
                .batch(),
            scene
                .trace_link(reflector.position(), ap.position())
                .batch(),
        )
    });
    let (table, fwd_page, bck_page) = timed(Some(&mut l.page_ns), || {
        let table = PatternTable::new(ap.array(), &cfg.ap_codebook);
        let fwd_page = table.fill_page(fwd.departure_deg());
        let bck_page = table.fill_page(bck.arrival_deg());
        (table, fwd_page, bck_page)
    });
    let mut reflected = Vec::with_capacity(cfg.ap_codebook.len() * cfg.reflector_codebook.len());
    for &theta1 in cfg.reflector_codebook.beams() {
        let (rx_gains, tx_gains) = timed(Some(&mut l.row_ns), || {
            reflector.steer_both(theta1);
            (
                reflector.rx_array().gain_dbi_batch(fwd.arrival_deg()),
                reflector.tx_array().gain_dbi_batch(bck.departure_deg()),
            )
        });
        let relay_gain_db = reflector.effective_gain_db();
        for j in 0..table.len() {
            let power = round_trip_reflection_batched(
                &fwd,
                &bck,
                fwd_page.row(j),
                bck_page.row(j),
                ap.tx_power_dbm(),
                relay_gain_db,
                &rx_gains,
                &tx_gains,
            );
            reflected.push(power.unwrap_or(f64::NEG_INFINITY));
        }
    }
    let meter = if cfg.modulated {
        cfg.probe.modulated_meter(ap.tx_power_dbm())
    } else {
        cfg.probe.unmodulated_meter(ap.tx_power_dbm())
    };
    let mut tone_rng = SimRng::seed_from_u64(op.noise_seed);
    timed(Some(&mut l.tone_ns), || {
        for &power in &reflected {
            black_box(meter.measure(power, &mut tone_rng));
        }
    });
    l.tone_probes += u64::try_from(reflected.len()).unwrap_or(u64::MAX);
    r
}

/// One per-layer metric: name, unit, value.
pub type Metric = (&'static str, &'static str, f64);

fn per(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / u64_to_f64(den)
    }
}

fn us(ns: u64) -> f64 {
    u64_to_f64(ns) / 1e3
}

impl Ledger {
    /// Wall time of the traced ops, replays excluded: the session loops,
    /// sweeps and the fleet's encode/reduce/merge and final rollup.
    pub fn traced_ns(&self) -> u64 {
        self.op_ns
            + self.sweep_ns
            + self.encode_ns
            + self.reduce_ns
            + self.merge_ns
            + self.rollup_json_ns
    }

    /// Time the named leaf layers account for, nanoseconds.
    fn attributed_ns(&self) -> u64 {
        let link_self = self.link_ns.saturating_sub(self.direct_trace_ns);
        let ramp_self = self.ramp_ns.saturating_sub(self.ramp_record_ns);
        [
            self.world_at_ns,
            self.direct_trace_ns,
            self.hop_trace_ns,
            link_self,
            ramp_self,
            self.relay_ns,
            self.record_ns,
            self.capture_ns,
            self.restore_ns,
            self.encode_ns,
            self.reduce_ns,
            self.merge_ns,
            self.rollup_json_ns,
            self.sweep_trace_ns,
            self.page_ns,
            self.row_ns,
            self.tone_ns,
        ]
        .iter()
        .sum()
    }

    /// Every per-layer metric of the run, in `BENCHMARK.json` order.
    /// `untraced_work_per_s` and `traced_work_per_s` are the same op
    /// list's throughput without and with tracing.
    pub fn metrics(
        &self,
        workload: Workload,
        host: PhaseHost,
        untraced_work_per_s: f64,
        traced_work_per_s: f64,
    ) -> Vec<Metric> {
        let f = self.frames;
        let obs = workload == Workload::FleetAnalytics;
        let obs_events = if obs { self.recorded } else { 0 };
        let whole_ns = self.traced_ns();
        let unattributed_step =
            u64_to_f64(self.step_ns) - u64_to_f64(self.world_at_ns) - u64_to_f64(self.evaluate_ns);
        let unattributed_sweep = u64_to_f64(self.sweep_ns)
            - u64_to_f64(self.sweep_trace_ns + self.page_ns + self.row_ns + self.tone_ns);
        vec![
            ("session.step_us_per_frame", "us", per(us(self.step_ns), f)),
            (
                "session.unattributed_us_per_frame",
                "us",
                per(unattributed_step / 1e3, f),
            ),
            (
                "motion.world_at_us_per_frame",
                "us",
                per(us(self.world_at_ns), f),
            ),
            (
                "system.evaluate_us_per_frame",
                "us",
                per(us(self.evaluate_ns), f),
            ),
            (
                "rfsim.traces_per_frame",
                "count",
                per(u64_to_f64(self.traces), f),
            ),
            (
                "rfsim.trace_us_per_frame",
                "us",
                per(us(self.direct_trace_ns + self.hop_trace_ns), f),
            ),
            (
                "rfsim.trace_us_per_sweep",
                "us",
                per(us(self.sweep_trace_ns), self.sweeps),
            ),
            ("radio.link_us_per_frame", "us", per(us(self.link_ns), f)),
            (
                "radio.tone_ns_per_probe",
                "ns",
                per(u64_to_f64(self.tone_ns), self.tone_probes),
            ),
            (
                "phased_array.page_us_per_sweep",
                "us",
                per(us(self.page_ns), self.sweeps),
            ),
            (
                "phased_array.row_us_per_sweep",
                "us",
                per(us(self.row_ns), self.sweeps),
            ),
            (
                "gain_control.ramps_per_frame",
                "count",
                per(u64_to_f64(self.ramps), f),
            ),
            (
                "gain_control.steps_per_ramp",
                "count",
                per(u64_to_f64(self.ramp_steps), self.ramps),
            ),
            (
                "gain_control.ramp_us_per_frame",
                "us",
                per(us(self.ramp_ns), f),
            ),
            ("relay.budget_us_per_frame", "us", per(us(self.relay_ns), f)),
            (
                "alignment.probes_per_sweep",
                "count",
                per(u64_to_f64(self.probes), self.sweeps),
            ),
            (
                "alignment.unattributed_ms_per_sweep",
                "ms",
                per(unattributed_sweep / 1e6, self.sweeps),
            ),
            (
                "snapshot.bytes",
                "bytes",
                per(u64_to_f64(self.snapshot_bytes), self.restores),
            ),
            (
                "snapshot.capture_us",
                "us",
                per(us(self.capture_ns), self.captures),
            ),
            (
                "snapshot.restore_us",
                "us",
                per(us(self.restore_ns), self.restores),
            ),
            (
                "obs.events_per_sim_s",
                "1/s",
                if self.sim_s > 0.0 {
                    u64_to_f64(obs_events) / self.sim_s
                } else {
                    0.0
                },
            ),
            (
                "obs.jsonl_bytes_per_event",
                "bytes",
                per(u64_to_f64(self.jsonl_bytes), self.reduced),
            ),
            (
                "obs.record_ns_per_event",
                "ns",
                per(
                    if obs { u64_to_f64(self.record_ns) } else { 0.0 },
                    obs_events,
                ),
            ),
            (
                "obs.encode_ns_per_event",
                "ns",
                per(u64_to_f64(self.encode_ns), self.reduced),
            ),
            (
                "obs.reduce_ns_per_event",
                "ns",
                per(u64_to_f64(self.reduce_ns), self.reduced),
            ),
            (
                "obs.merge_us_per_session",
                "us",
                per(us(self.merge_ns), self.sessions),
            ),
            (
                "obs.rollup_json_ms",
                "ms",
                u64_to_f64(self.rollup_json_ns) / 1e6,
            ),
            ("host.on_cpu_share", "share", host.on_cpu_share),
            ("host.runq_wait_ms", "ms", host.runq_wait_ms),
            (
                "trace.overhead_share",
                "share",
                if untraced_work_per_s > 0.0 {
                    1.0 - traced_work_per_s / untraced_work_per_s
                } else {
                    0.0
                },
            ),
            (
                "ledger.attributed_share",
                "share",
                per(u64_to_f64(self.attributed_ns()), whole_ns),
            ),
        ]
    }
}
