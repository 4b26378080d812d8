#![forbid(unsafe_code)]

//! `dema-benchmark`: the repo's yardstick. Four workloads, each measured end
//! to end through `dema_cluster::run_cluster` and layer by layer by a traced
//! walk over every crate's public entry points. See `benchmark/README.md`.

mod child;
mod parent;
mod procfs;
mod spec;
mod stats;
mod trace;
mod walk;

use std::process::ExitCode;

use parent::RunArgs;
use spec::Workload;

const USAGE: &str = "\
dema-benchmark: measure the Dema cluster end to end and layer by layer

USAGE (from the repo root):
    cargo run --release --manifest-path benchmark/Cargo.toml -- <COMMAND> [OPTIONS]

COMMANDS:
    run      every workload: end-to-end metrics, then the traced per-layer run
    trace    every workload: only the traced run (same as `run --trace 1`)
    smoke    every workload at a tenth of the length, checks on, bounds off
    repeat   full end-to-end sets of the same code, compared within the bounds
    spec     print BENCHMARK.json as generated from the benchmark's tables

OPTIONS:
    --seed <n>        input seed [default: 1]; `repeat` takes it more than once
    --workload <w>    run: only this workload, result as one JSON line (driver mode)
    --seconds <s>     run, trace: seconds each workload measures [default: 26]
    --trace <0|1>     run: 0 end-to-end metrics only, 1 per-layer metrics only
    --sets <k>        repeat: sets per seed [default: 2]
";

/// `--flag value` pairs after the subcommand.
fn options(args: &[String]) -> Result<Vec<(&str, &str)>, String> {
    let mut pairs = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        pairs.push((flag.as_str(), value.as_str()));
    }
    Ok(pairs)
}

fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("{flag}: `{value}` is not a valid number"))
}

fn workload(value: &str) -> Result<&'static Workload, String> {
    Workload::by_name(value).ok_or_else(|| format!("unknown workload `{value}`"))
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let Some(command) = args.first() else {
        return Err("missing command".into());
    };
    let opts = options(&args[1..])?;
    let mut run = RunArgs::default();
    let mut seeds: Vec<u64> = Vec::new();
    let mut sets = 2usize;
    let mut setup_reps = 3usize;
    for &(flag, value) in &opts {
        match flag {
            "--seed" => seeds.push(number(flag, value)?),
            "--workload" => run.workload = Some(workload(value)?),
            "--seconds" => run.seconds = number(flag, value)?,
            "--trace" => run.trace = Some(number::<u8>(flag, value)? != 0),
            "--sets" => sets = number(flag, value)?,
            // Hidden: lets a test reproduce the unpaced stall above 64
            // windows per run and see the watchdog catch it.
            "--windows-per-run" => run.windows_per_run = number(flag, value)?,
            "--setup-reps" => setup_reps = number(flag, value)?,
            _ => return Err(format!("unknown option `{flag}`")),
        }
    }
    if !(run.seconds > 0.0 && run.seconds <= 60.0) || run.windows_per_run == 0 || sets == 0 || setup_reps == 0
    {
        return Err(
            "--seconds must be in (0, 60]; --windows-per-run, --sets and --setup-reps at least 1".into()
        );
    }
    run.seed = seeds.last().copied().unwrap_or(run.seed);
    match command.as_str() {
        "run" => Ok(parent::run(&run)),
        "trace" => Ok(parent::run(&RunArgs { trace: Some(true), ..run })),
        "smoke" => Ok(parent::smoke(run.seed)),
        "repeat" => Ok(parent::repeat(sets, if seeds.is_empty() { &[1] } else { &seeds })),
        "spec" => {
            print!("{}", spec::benchmark_json());
            Ok(ExitCode::SUCCESS)
        }
        "child" => {
            let args = child::ChildArgs {
                workload: run.workload.ok_or("child needs --workload")?,
                seed: run.seed,
                seconds: run.seconds,
                trace: run.trace.unwrap_or(false),
                windows_per_run: run.windows_per_run,
                setup_reps,
            };
            Ok(match child::run(&args) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    println!("error {e}");
                    ExitCode::FAILURE
                }
            })
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    dispatch(&args).unwrap_or_else(|e| {
        eprintln!("dema-benchmark: {e}\n\n{USAGE}");
        ExitCode::from(2)
    })
}
