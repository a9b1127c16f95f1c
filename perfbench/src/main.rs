//! `lazyeye-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints progress to stderr and, as the last line of stdout, one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`.

use lazyeye_perfbench::run::{run_traced, run_untraced};
use lazyeye_perfbench::workloads::{Scale, Workload, DEFAULT_SEED};

const USAGE: &str = "usage: lazyeye-perfbench --workload <campaign-sim|campaign-fastpath|\
fleet-population> [--seed <n>] [--seconds <s>] [--trace <0|1>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: invalid value {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("lazyeye-perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "lazyeye-perfbench: {} seed={} seconds={} trace={} threads={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let run = if args.trace { run_traced } else { run_untraced };
    match run(args.workload, args.seed, args.seconds, Scale::Full) {
        Ok(outcome) => {
            for why in &outcome.failures {
                eprintln!("lazyeye-perfbench: check failed: {why}");
            }
            println!("{}", outcome.to_json());
        }
        Err(e) => {
            eprintln!("lazyeye-perfbench: {e}");
            std::process::exit(1);
        }
    }
}
