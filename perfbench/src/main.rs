//! Command-line entry of the benchmark; see the library docs.

use naspipe_perfbench::host::{check_threads, Host};
use naspipe_perfbench::workload::Workload;
use naspipe_perfbench::{e2e, layers};
use std::process::ExitCode;

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::by_name(value)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    let host = Host::detect();
    let w = &args.workload;
    if let Err(e) = check_threads(w.name, w.compute_threads(), host.nproc) {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    let result = if args.trace {
        layers::run(w, args.seed)
    } else {
        e2e::run(w, args.seed, args.seconds)
    };
    match result {
        Ok(r) => {
            println!("{}", host.to_json());
            println!("{}", r.to_json());
            if r.correct() {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "perfbench: {} of {} subnets failed their output check",
                    r.failed, r.attempted
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
