//! The benchmark's own contract: inputs are a pure function of the
//! seed, runs are reproducible, tracing does not perturb the model, and
//! every output check fires on a deliberately wrong input.

use movr::alignment::AlignmentResult;
use movr_perfbench::ledger::Ledger;
use movr_perfbench::run::{pass, Args};
use movr_perfbench::workload::{
    check_recapture, check_reduced, check_sweep, Op, RunState, Workload,
};
use movr_sim::SimTime;

fn debug_ops(w: Workload, seed: u64, n: usize) -> String {
    format!("{:?}", w.ops(seed, n))
}

#[test]
fn op_list_is_a_pure_function_of_the_seed() {
    for w in Workload::ALL {
        assert_eq!(debug_ops(w, 7, 20), debug_ops(w, 7, 20), "{}", w.name());
        assert_ne!(
            debug_ops(w, 7, 20),
            debug_ops(w, 8, 20),
            "{}: seeds must differ",
            w.name()
        );
        // A longer list extends a shorter one: the op count never changes
        // which inputs a seed yields.
        let long = w.ops(7, 30);
        assert_eq!(
            format!("{:?}", &long[..20]),
            debug_ops(w, 7, 20),
            "{}",
            w.name()
        );
    }
}

#[test]
fn same_seed_gives_same_fingerprint_and_tracing_leaves_it_alone() {
    for w in Workload::ALL {
        let ops = w.ops(3, 2);
        let a = pass(w, &ops, None);
        let b = pass(w, &ops, None);
        let mut ledger = Ledger::default();
        let traced = pass(w, &ops, Some(&mut ledger));
        assert_eq!(a.fingerprint, b.fingerprint, "{}", w.name());
        assert_eq!(
            a.fingerprint,
            traced.fingerprint,
            "{}: tracing changed the model",
            w.name()
        );
        assert_eq!(
            (a.failed, traced.failed),
            (0, 0),
            "{}: {:?}",
            w.name(),
            a.first_failure
        );
        assert!(a.work > 0.0, "{}", w.name());
    }
}

#[test]
fn op_count_is_fixed_by_the_arguments_and_never_below_the_minimum() {
    for w in Workload::ALL {
        assert!(w.op_count(1) >= 100, "{}", w.name());
        assert_eq!(w.op_count(12), w.op_count(12));
        assert!(w.op_count(60) > w.op_count(12));
    }
}

fn session_op(w: Workload, hand_up: bool) -> Op {
    let Op::Session(mut op) = w.ops(5, 1).remove(0) else {
        panic!("{} draws session ops", w.name());
    };
    op.hand_up = hand_up;
    op.duration_s = 0.5;
    Op::Session(op)
}

#[test]
fn session_checks_fire_on_the_wrong_posture() {
    let mut los = RunState::new(Workload::SessionLos);
    assert!(los
        .run(&session_op(Workload::SessionLos, false), None)
        .check
        .is_ok());
    let raised = los.run(&session_op(Workload::SessionLos, true), None);
    assert!(
        raised.check.is_err(),
        "a raised hand must push session_los off the direct path"
    );

    let mut blocked = RunState::new(Workload::SessionBlocked);
    assert!(blocked
        .run(&session_op(Workload::SessionBlocked, true), None)
        .check
        .is_ok());
    let lowered = blocked.run(&session_op(Workload::SessionBlocked, false), None);
    assert!(
        lowered.check.is_err(),
        "a lowered hand must take session_blocked off the reflector"
    );
}

#[test]
fn sweep_check_fires_off_the_main_lobe_and_on_a_short_sweep() {
    let r = AlignmentResult {
        reflector_angle_deg: -100.0,
        ap_angle_deg: 80.0,
        peak_power_dbm: -60.0,
        measurements: 101 * 101,
        elapsed: SimTime::ZERO,
    };
    let lobes = (5.0, 9.0);
    assert!(check_sweep(&r, (-101.0, 81.0), lobes).is_ok());
    assert!(check_sweep(&r, (-100.0, 88.5), lobes).is_ok());
    assert!(check_sweep(&r, (-106.0, 80.0), lobes).is_err());
    assert!(check_sweep(&r, (-100.0, 70.0), lobes).is_err());
    let short = AlignmentResult {
        measurements: 100,
        ..r
    };
    assert!(check_sweep(&short, (-100.0, 80.0), lobes).is_err());
}

#[test]
fn fleet_checks_fire_on_lost_events_and_changed_snapshot_bytes() {
    assert!(check_reduced(10, 10).is_ok());
    assert!(check_reduced(10, 9).is_err());
    let bytes = b"MOVRSNAP-body".to_vec();
    let mut flipped = bytes.clone();
    flipped[9] ^= 1;
    assert!(check_recapture(&bytes, &bytes).is_ok());
    assert!(check_recapture(&bytes, &flipped).is_err());
    assert!(check_recapture(&bytes, &bytes[..4]).is_err());
}

#[test]
fn arguments_are_all_required_and_validated() {
    let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
    let ok = parse("--workload align_sweep --seed 4 --seconds 12 --trace 1").expect("valid");
    assert_eq!(
        (ok.workload, ok.seed, ok.seconds, ok.trace),
        (Workload::AlignSweep, 4, 12, true)
    );
    assert!(parse("--workload align_sweep --seed 4 --seconds 12").is_err());
    assert!(parse("--workload nope --seed 4 --seconds 12 --trace 0").is_err());
    assert!(parse("--workload align_sweep --seed 4 --seconds 0 --trace 0").is_err());
    assert!(parse("--workload align_sweep --seed 4 --seconds 12 --trace 2").is_err());
}
