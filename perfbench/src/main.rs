//! `perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one workload, prints its context and metrics, and ends with one
//! JSON result line. Exits with code 2 on bad arguments.

use std::process::ExitCode;

use siperf_perfbench::measure::{self, RunConfig};
use siperf_perfbench::report::{END_TO_END, PER_LAYER};
use siperf_perfbench::workloads::{Horizon, Workload, DEFAULT_SEED};

/// Host seconds each layer probe of a traced run measures for.
const PROBE_SECONDS: f64 = 0.25;

/// Host seconds an untraced run measures for when `--seconds` is not
/// given: the `run_seconds` of `BENCHMARK.json`, which the baseline used.
const DEFAULT_SECONDS: f64 = 40.0;

/// Fewest simulations an untraced run makes, so that even a short
/// `--seconds` times two repetitions after the untimed first one.
const MIN_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn names() -> String {
    Workload::ALL.map(Workload::name).join("|")
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) =
        (None, DEFAULT_SEED, DEFAULT_SECONDS, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w = Workload::from_name(&value)
                    .ok_or_else(|| format!("unknown workload `{value}`"))?;
                workload = Some(w);
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(seconds >= 0.0 && seconds.is_finite()) {
                    return Err(format!(
                        "--seconds must be a non-negative number, not {value}"
                    ));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    let workload = workload.ok_or_else(|| "--workload is required".to_string())?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                names()
            );
            return ExitCode::from(2);
        }
    };
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        min_reps: MIN_REPS,
        horizon: Horizon::Full,
        probe_seconds: PROBE_SECONDS,
    };
    let (outcome, defs) = if args.trace {
        (measure::traced(args.workload, &cfg), PER_LAYER)
    } else {
        (measure::untraced(args.workload, &cfg), END_TO_END)
    };
    println!(
        "workload {} seed {} trace {}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    for failure in &outcome.failures {
        println!("check failed: {failure}");
    }
    for (name, unit) in defs {
        println!("{name:<38} {:>18.6} {unit}", outcome.metrics[name]);
    }
    println!("{}", outcome.json(defs));
    ExitCode::SUCCESS
}
