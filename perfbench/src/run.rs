//! One benchmark run: parse the arguments, set up, time the op list,
//! check every output, and report.

use crate::calibrate::{reference, scales, REFERENCE_NS};
use crate::host::{peak_rss_mib, PhaseHost, SchedStat};
use crate::ledger::{Ledger, Metric};
use crate::stats::{median, percentile, MIN_OPS};
use crate::workload::{Fingerprint, Op, RunState, Workload};
use movr_math::convert::u64_to_f64;
use movr_testkit::Timer;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;

/// The command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input is drawn from.
    pub seed: u64,
    /// Nominal measuring time; fixes the op count.
    pub seconds: u64,
    /// Print the per-layer ledger instead of the end-to-end metrics.
    pub trace: bool,
}

/// Usage line for argument errors.
pub const USAGE: &str = "usage: movr-perfbench --workload <session_los|session_blocked|align_sweep|fleet_analytics> --seed <u64> --seconds <1..=60> --trace <0|1>";

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`; every flag
    /// is required.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what} `{value}`");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
                }
                "--seed" => seed = Some(value.parse().map_err(|_| bad("bad seed"))?),
                "--seconds" => {
                    let s: u64 = value.parse().map_err(|_| bad("bad seconds"))?;
                    if !(1..=60).contains(&s) {
                        return Err(bad("seconds out of 1..=60"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("trace must be 0 or 1")),
                    });
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// One pass over the op list.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Host-speed-normalised milliseconds of each op, in op order.
    pub op_ms: Vec<f64>,
    /// Work done (see [`Workload::work_unit`]).
    pub work: f64,
    /// Normalised time of the ops plus the run-end rollup render, ms.
    pub timed_ms: f64,
    /// The same, as raw wall time.
    pub wall_ms: f64,
    /// Median host speed over the pass (1.0 = the nominal host).
    pub host_speed: f64,
    /// Ops whose output broke its invariant.
    pub failed: usize,
    /// The first broken invariant, if any.
    pub first_failure: Option<String>,
    /// Simulated statistics of the pass.
    pub fingerprint: Fingerprint,
    /// On-CPU share and run-queue wait over the pass.
    pub host: PhaseHost,
}

impl Pass {
    /// Work per second of the timed phase, at nominal host speed.
    pub fn work_per_s(&self) -> f64 {
        self.work / (self.timed_ms / 1e3)
    }

    /// Work per raw wall second of the timed phase.
    pub fn wall_work_per_s(&self) -> f64 {
        self.work / (self.wall_ms / 1e3)
    }
}

/// Runs every op once, each right after one reference-kernel reading,
/// and times it; with a ledger, also traces them. Op times are scaled
/// to nominal host speed by the readings around them.
pub fn pass(workload: Workload, ops: &[Op], mut ledger: Option<&mut Ledger>) -> Pass {
    let mut state = RunState::new(workload);
    let mut op_ns = Vec::with_capacity(ops.len());
    let mut reference_ns = Vec::with_capacity(ops.len());
    let (mut work, mut failed, mut first_failure) = (0.0, 0, None);
    let before = SchedStat::now();
    let wall = Timer::start();
    for op in ops {
        reference_ns.push(reference());
        let t = Timer::start();
        let out = state.run(op, ledger.as_deref_mut());
        op_ns.push(t.elapsed_ns());
        work += out.work;
        if let Err(e) = out.check {
            failed += 1;
            first_failure.get_or_insert(e);
        }
    }
    let t = Timer::start();
    state.finish(ledger);
    let finish_ns = t.elapsed_ns();
    let host = PhaseHost::between(before, SchedStat::now(), wall.elapsed_ns());
    let scale = scales(&reference_ns);
    let op_ms: Vec<f64> = op_ns
        .iter()
        .zip(&scale)
        .map(|(&ns, s)| u64_to_f64(ns) * s / 1e6)
        .collect();
    let last_scale = scale.last().copied().unwrap_or(1.0);
    let wall_ns: u64 = op_ns.iter().sum::<u64>() + finish_ns;
    Pass {
        timed_ms: op_ms.iter().sum::<f64>() + u64_to_f64(finish_ns) * last_scale / 1e6,
        wall_ms: u64_to_f64(wall_ns) / 1e6,
        host_speed: if scale.is_empty() {
            1.0
        } else {
            median(&scale)
        },
        op_ms,
        work,
        failed,
        first_failure,
        fingerprint: state.fingerprint,
        host,
    }
}

/// Builds the run's inputs and runs one untimed warm-up op, returning
/// the op list and the set-up's wall seconds. The warm-up op is the
/// workload's [`Workload::warm_up_op`], the same for every seed, so
/// set-up does the same simulated work on every run.
pub fn setup(workload: Workload, seed: u64, n: usize) -> (Vec<Op>, f64) {
    let t = Timer::start();
    let ops = workload.ops(seed, n);
    std::hint::black_box(RunState::new(workload).run(&workload.warm_up_op(), None));
    (ops, t.elapsed_secs_f64())
}

/// What a run prints.
#[derive(Debug, Clone)]
pub struct Report {
    /// Ops timed across all passes.
    pub attempted: usize,
    /// Of those, ops whose output broke its invariant.
    pub failed: usize,
    /// The first broken invariant, if any.
    pub first_failure: Option<String>,
    /// Simulated statistics of the (first) pass.
    pub fingerprint: Fingerprint,
    /// Host diagnostics of the (first) pass.
    pub host: PhaseHost,
    /// Median host speed of the (first) pass (1.0 = nominal).
    pub host_speed: f64,
    /// Work per raw wall second of the (first) pass.
    pub wall_work_per_s: f64,
    /// `(name, unit, value)` in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
}

/// Sets up [`SETUP_REPS`] times, then times the op list: once untraced
/// for the end-to-end metrics, or (its first half) untraced and then
/// traced for the per-layer ledger. Set-up times, like op times, are
/// scaled to nominal host speed by reference readings around them.
pub fn measure(args: &Args) -> Report {
    let n = args.workload.op_count(args.seconds);
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut ops = Vec::new();
    for _ in 0..SETUP_REPS {
        let before = reference();
        let (built, secs) = setup(args.workload, args.seed, n);
        let after = reference();
        ops = built;
        setup_s.push(secs * REFERENCE_NS / (u64_to_f64(before + after) / 2.0));
    }
    if args.trace {
        // The traced pass replays every layer call after each op, so a
        // traced run times the first half of the list (never fewer than
        // MIN_OPS) twice instead of the whole list once.
        ops.truncate((ops.len() / 2).max(MIN_OPS));
    }
    let plain = pass(args.workload, &ops, None);
    let mut report = Report {
        attempted: ops.len(),
        failed: plain.failed,
        first_failure: plain.first_failure.clone(),
        fingerprint: plain.fingerprint,
        host: plain.host,
        host_speed: plain.host_speed,
        wall_work_per_s: plain.wall_work_per_s(),
        metrics: Vec::new(),
    };
    if args.trace {
        let mut ledger = Ledger::default();
        let traced = pass(args.workload, &ops, Some(&mut ledger));
        report.attempted += ops.len();
        report.failed += traced.failed;
        report.first_failure = report.first_failure.or(traced.first_failure);
        if traced.fingerprint != plain.fingerprint {
            report.failed += 1;
            report
                .first_failure
                .get_or_insert_with(|| "tracing changed the simulated statistics".into());
        }
        // Ledger time is raw wall time; scale it like the untraced pass.
        let traced_work_per_s =
            traced.work / (u64_to_f64(ledger.traced_ns()) * traced.host_speed / 1e9);
        report.metrics = ledger.metrics(
            args.workload,
            plain.host,
            plain.work_per_s(),
            traced_work_per_s,
        );
    } else {
        report.metrics = vec![
            ("work_per_s", "work/s", plain.work_per_s()),
            ("op_ms_p50", "ms", percentile(&plain.op_ms, 50)),
            ("op_ms_p90", "ms", percentile(&plain.op_ms, 90)),
            ("setup_s", "s", median(&setup_s)),
            ("peak_rss_mib", "MiB", peak_rss_mib().unwrap_or(0.0)),
        ];
    }
    report
}

impl Report {
    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite number as JSON with every digit (shortest round-trip form);
/// a non-finite one as `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}
