//! `movr-perfbench --workload W --seed N --seconds S --trace 0|1`
//!
//! Runs one workload and prints, last, one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. Earlier lines carry
//! the run's shape, host diagnostics and a fingerprint of the simulated
//! statistics.

use movr_perfbench::run::{measure, Args, USAGE};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let n = args.workload.op_count(args.seconds);
    println!(
        "workload {} seed {} ops {} work_unit \"{}\" trace {}",
        args.workload.name(),
        args.seed,
        n,
        args.workload.work_unit(),
        u8::from(args.trace)
    );
    let report = measure(&args);
    if let Some(e) = &report.first_failure {
        eprintln!(
            "{} of {} ops failed their check; first: {e}",
            report.failed, report.attempted
        );
    }
    println!(
        "host {{\"on_cpu_share\": {}, \"runq_wait_ms\": {}, \"host_speed\": {}, \"wall_work_per_s\": {}}}",
        report.host.on_cpu_share, report.host.runq_wait_ms, report.host_speed, report.wall_work_per_s
    );
    println!("fingerprint {}", report.fingerprint.json());
    println!("{}", report.json_line());
    ExitCode::SUCCESS
}
