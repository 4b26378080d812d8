//! The supervising side: one child process per workload under a wall-clock
//! watchdog, and the commands built on it (`run`, `trace`, `smoke`,
//! `repeat`).

use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

use crate::child::ChildArgs;
use crate::spec::{Better, Workload, END_TO_END, PER_LAYER, RUN_SECONDS, RUN_WINDOWS, THREADS, WORKLOADS};

/// One reported number, as the child printed it.
#[derive(Clone, Debug)]
pub struct Measured {
    pub name: String,
    pub value: f64,
    pub unit: String,
    pub samples: usize,
    pub q1: f64,
    pub q3: f64,
}

/// What one child process produced.
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub metrics: Vec<Measured>,
    pub notes: Vec<String>,
    /// Windows handed to cluster runs.
    pub attempted: u64,
    /// Windows not returned, returned degraded, or differing from the
    /// oracle; a run cut short fails all its unfinished windows.
    pub failed: u64,
    /// Why the child did not finish cleanly (watchdog, error, crash).
    pub error: Option<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.error.is_none() && self.failed == 0 && self.attempted > 0
    }

    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    pub fn get(&self, name: &str) -> Option<&Measured> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// Wall-clock limit of a child: three times what its phases should take,
/// inside the 180 seconds the driver allows one run.
fn watchdog_limit(seconds: f64) -> Duration {
    Duration::from_secs_f64((3.0 * seconds + 20.0).min(170.0))
}

/// Run one workload in a child process (this executable, `child`
/// subcommand). A child still running at the watchdog limit is killed; the
/// windows of its unfinished run count as failed.
pub fn supervise(spec: &ChildArgs) -> Outcome {
    let mut outcome = Outcome {
        workload: spec.workload.name,
        seed: spec.seed,
        metrics: Vec::new(),
        notes: Vec::new(),
        attempted: 0,
        failed: 0,
        error: None,
    };
    let spawned = std::env::current_exe().and_then(|exe| {
        Command::new(exe)
            .arg("child")
            .args(["--workload", spec.workload.name])
            .args(["--seed", &spec.seed.to_string()])
            .args(["--seconds", &spec.seconds.to_string()])
            .args(["--trace", if spec.trace { "1" } else { "0" }])
            .args(["--windows-per-run", &spec.windows_per_run.to_string()])
            .args(["--setup-reps", &spec.setup_reps.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
    });
    let mut child = match spawned {
        Ok(c) => c,
        Err(e) => {
            outcome.error = Some(format!("cannot start the child process: {e}"));
            return outcome;
        }
    };
    let stdout = child.stdout.take().expect("child stdout was piped");
    let (lines_tx, lines) = mpsc::channel::<String>();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            if lines_tx.send(line).is_err() {
                break;
            }
        }
    });

    let deadline = Instant::now() + watchdog_limit(spec.seconds);
    let (mut completed, mut done) = (0u64, false);
    loop {
        let line = match lines.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok(line) => line,
            Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => {
                outcome.error = Some(format!(
                    "watchdog: still running after {:.0} s, killed",
                    watchdog_limit(spec.seconds).as_secs_f64()
                ));
                // Already gone is fine; anything else shows up in `wait`.
                let _ = child.kill();
                break;
            }
        };
        let fields: Vec<&str> = line.split_ascii_whitespace().collect();
        match fields.as_slice() {
            ["attempted", n] => outcome.attempted += n.parse::<u64>().unwrap_or(0),
            ["completed", ok, bad] => {
                let (ok, bad) = (ok.parse::<u64>().unwrap_or(0), bad.parse::<u64>().unwrap_or(0));
                completed += ok + bad;
                outcome.failed += bad;
            }
            ["metric", name, value, unit, samples, q1, q3] => outcome.metrics.push(Measured {
                name: name.to_string(),
                value: value.parse().unwrap_or(f64::NAN),
                unit: unit.to_string(),
                samples: samples.parse().unwrap_or(0),
                q1: q1.parse().unwrap_or(f64::NAN),
                q3: q3.parse().unwrap_or(f64::NAN),
            }),
            ["note", rest @ ..] => outcome.notes.push(rest.join(" ")),
            ["error", rest @ ..] => outcome.error = Some(rest.join(" ")),
            ["done"] => done = true,
            _ => outcome.notes.push(format!("unexpected child output: {line}")),
        }
    }
    let status = child.wait();
    // The reader ends at the pipe's EOF, which the child's exit brings.
    let _ = reader.join();
    outcome.failed += outcome.attempted - completed.min(outcome.attempted);
    if outcome.error.is_none() {
        match status {
            Ok(s) if s.success() && done => {}
            Ok(s) => outcome.error = Some(format!("child ended early ({s})")),
            Err(e) => outcome.error = Some(format!("waiting for the child: {e}")),
        }
    }
    if let Some(bad) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        outcome.error.get_or_insert(format!("metric {} is not a number", bad.name));
    }
    outcome
}

/// The driver's result line — one JSON object with exactly the metrics of
/// the requested kind — and whether it says `correct`.
pub fn result_line(outcome: &Outcome, trace: bool) -> (bool, String) {
    let wanted: Vec<&str> = if trace {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    let metrics: Vec<String> = wanted
        .iter()
        .filter_map(|name| outcome.get(name))
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    let complete = metrics.len() == wanted.len();
    // The driver wants `attempted` at least 1: a child that never got to a
    // run attempted, and failed, its first window.
    let (attempted, failed) =
        if outcome.attempted == 0 { (1, 1) } else { (outcome.attempted, outcome.failed) };
    let correct = outcome.correct() && complete;
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    (correct, line)
}

/// Where, how and on what the numbers were taken.
fn environment(seconds: f64) -> Vec<(&'static str, String)> {
    let commit = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("commit", commit),
        ("profile", if cfg!(debug_assertions) { "debug" } else { "release" }.to_string()),
        ("nproc", nproc.to_string()),
        ("threads", THREADS.to_string()),
        ("seconds", seconds.to_string()),
    ]
}

fn print_table(outcome: &Outcome) {
    println!(
        "\n{}  seed {}  windows {} attempted / {} failed (failed_share {})  {}",
        outcome.workload,
        outcome.seed,
        outcome.attempted,
        outcome.failed,
        outcome.failed_share(),
        if outcome.correct() { "correct" } else { "INCORRECT" },
    );
    if let Some(e) = &outcome.error {
        println!("  error: {e}");
    }
    println!("  {:<34} {:>16} {:<10} {:>8} {:>14} {:>14}", "metric", "value", "unit", "samples", "q1", "q3");
    for m in &outcome.metrics {
        println!(
            "  {:<34} {:>16.3} {:<10} {:>8} {:>14.3} {:>14.3}",
            m.name, m.value, m.unit, m.samples, m.q1, m.q3
        );
    }
    for note in &outcome.notes {
        println!("  note: {note}");
    }
}

/// `benchmark/out/result.json`: the environment and one object per child.
fn write_result_json(env: &[(&str, String)], outcomes: &[Outcome]) -> std::io::Result<()> {
    let mut s = String::from("{\n  \"environment\": {");
    let env: Vec<String> = env.iter().map(|(k, v)| format!("\"{k}\": \"{v}\"")).collect();
    s.push_str(&env.join(", "));
    s.push_str("},\n  \"workloads\": [\n");
    for (i, o) in outcomes.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"seed\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
             \"failed_share\": {}, \"metrics\": {{\n",
            o.workload,
            o.seed,
            o.correct(),
            o.attempted,
            o.failed,
            o.failed_share()
        ));
        let finite: Vec<&Measured> = o.metrics.iter().filter(|m| m.value.is_finite()).collect();
        for (j, m) in finite.iter().enumerate() {
            s.push_str(&format!(
                "      \"{}\": {{\"value\": {}, \"unit\": \"{}\", \"samples\": {}, \"q1\": {}, \"q3\": {}}}{}\n",
                m.name,
                m.value,
                m.unit,
                m.samples,
                m.q1,
                m.q3,
                if j + 1 < finite.len() { "," } else { "" }
            ));
        }
        s.push_str(if i + 1 < outcomes.len() { "    }},\n" } else { "    }}\n" });
    }
    s.push_str("  ]\n}\n");
    std::fs::create_dir_all("benchmark/out")?;
    std::fs::write("benchmark/out/result.json", s)
}

pub struct RunArgs {
    pub workload: Option<&'static Workload>,
    pub seed: u64,
    pub seconds: f64,
    /// `Some(false)`: end-to-end metrics; `Some(true)`: the traced run's
    /// per-layer metrics; `None`: one child for each.
    pub trace: Option<bool>,
    pub windows_per_run: usize,
}

impl Default for RunArgs {
    fn default() -> RunArgs {
        RunArgs {
            workload: None,
            seed: 1,
            seconds: RUN_SECONDS as f64,
            trace: None,
            windows_per_run: RUN_WINDOWS,
        }
    }
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `run` and `trace`. With `--workload` this is the driver's entry point:
/// one child, and the result line as the last line of stdout. Without, every
/// workload runs, a table per child is printed and `result.json` written.
pub fn run(args: &RunArgs) -> ExitCode {
    let child = |workload, trace| ChildArgs {
        seconds: args.seconds,
        trace,
        windows_per_run: args.windows_per_run,
        ..ChildArgs::full(workload, args.seed)
    };
    if let Some(workload) = args.workload {
        let trace = args.trace.unwrap_or(false);
        let outcome = supervise(&child(workload, trace));
        if let Some(e) = &outcome.error {
            eprintln!("{}: {e}", workload.name);
        }
        let (correct, line) = result_line(&outcome, trace);
        println!("{line}");
        return exit_code(correct);
    }
    let env = environment(args.seconds);
    println!("{}", env.iter().map(|(k, v)| format!("{k} {v}")).collect::<Vec<_>>().join("  "));
    let mut outcomes = Vec::new();
    for workload in &WORKLOADS {
        for trace in [false, true] {
            if args.trace.is_none_or(|t| t == trace) {
                let outcome = supervise(&child(workload, trace));
                print_table(&outcome);
                outcomes.push(outcome);
            }
        }
    }
    finish(&env, &outcomes)
}

fn finish(env: &[(&str, String)], outcomes: &[Outcome]) -> ExitCode {
    if let Err(e) = write_result_json(env, outcomes) {
        eprintln!("benchmark/out/result.json: {e}");
        return ExitCode::FAILURE;
    }
    println!("\nwrote benchmark/out/result.json");
    let bad: Vec<&str> = outcomes.iter().filter(|o| !o.correct()).map(|o| o.workload).collect();
    if !bad.is_empty() {
        println!("FAILED: {}", bad.join(", "));
    }
    exit_code(bad.is_empty())
}

/// `smoke`: every workload at a tenth of the length, traced, with the oracle
/// and the byte-sum check on and no timing bound applied. A CI gate.
pub fn smoke(seed: u64) -> ExitCode {
    let seconds = RUN_SECONDS as f64 / 10.0;
    let env = environment(seconds);
    let outcomes: Vec<Outcome> = WORKLOADS
        .iter()
        .map(|workload| {
            let outcome = supervise(&ChildArgs {
                seconds,
                trace: true,
                setup_reps: 1,
                ..ChildArgs::full(workload, seed)
            });
            print_table(&outcome);
            outcome
        })
        .collect();
    finish(&env, &outcomes)
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
pub fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// `repeat`: `sets` full end-to-end sets of the same code per seed. Fails if
/// a timing differs between a seed's sets by more than its bound in either
/// direction, or if a count (`wire_bytes_per_window`, failed windows)
/// differs at all.
pub fn repeat(sets: usize, seeds: &[u64]) -> ExitCode {
    let mut offending = Vec::new();
    for &seed in seeds {
        let mut first: Vec<Outcome> = Vec::new();
        for set in 0..sets {
            for (w, workload) in WORKLOADS.iter().enumerate() {
                let outcome = supervise(&ChildArgs::full(workload, seed));
                println!("\nseed {seed}  set {set}");
                print_table(&outcome);
                if !outcome.correct() {
                    offending.push(format!("seed {seed} set {set} {}: incorrect run", workload.name));
                }
                if set == 0 {
                    first.push(outcome);
                    continue;
                }
                for m in &END_TO_END {
                    let (Some(a), Some(b)) = (first[w].get(m.name), outcome.get(m.name)) else {
                        offending
                            .push(format!("seed {seed} set {set} {} {}: missing", workload.name, m.name));
                        continue;
                    };
                    let exact = m.name == "wire_bytes_per_window";
                    let moved = worse_by(m.better, a.value, b.value);
                    if (exact && a.value != b.value) || moved.abs() > m.bound {
                        offending.push(format!(
                            "seed {seed} set {set} {:<14} {:<22} {} -> {} {} ({:+.1} %, bound {} %)",
                            workload.name,
                            m.name,
                            a.value,
                            b.value,
                            m.unit,
                            moved * 100.0,
                            if exact { 0.0 } else { m.bound * 100.0 }
                        ));
                    }
                }
                if first[w].failed != outcome.failed {
                    offending.push(format!(
                        "seed {seed} set {set} {} failed windows: {} -> {}",
                        workload.name, first[w].failed, outcome.failed
                    ));
                }
            }
        }
    }
    if offending.is_empty() {
        println!("\nrepeat: {sets} sets x {} seed(s) agree within the bounds", seeds.len());
    } else {
        println!("\nrepeat: outside the bounds:");
        for row in &offending {
            println!("  {row}");
        }
    }
    exit_code(offending.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(metrics: &[(&str, f64, &str)]) -> Outcome {
        Outcome {
            workload: "bulk-mem",
            seed: 1,
            metrics: metrics
                .iter()
                .map(|(n, v, u)| Measured {
                    name: n.to_string(),
                    value: *v,
                    unit: u.to_string(),
                    samples: 1,
                    q1: *v,
                    q3: *v,
                })
                .collect(),
            notes: Vec::new(),
            attempted: 96,
            failed: 0,
            error: None,
        }
    }

    #[test]
    fn result_line_holds_exactly_the_requested_kind() {
        let all: Vec<(&str, f64, &str)> = END_TO_END
            .iter()
            .map(|m| (m.name, 1.5, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, 2.0, m.unit)))
            .collect();
        let o = outcome(&all);
        let (correct, line) = result_line(&o, false);
        assert!(
            correct
                && line.starts_with("{\"correct\": true, \"attempted\": 96, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(!line.contains("core.sort_us"));
        let (_, traced) = result_line(&o, true);
        assert!(traced.contains("\"core.sort_us\": {\"value\": 2, \"unit\": \"us\"}"));
        assert!(!traced.contains("setup_s"));
    }

    #[test]
    fn a_missing_metric_or_a_failed_window_is_not_correct() {
        let o = outcome(&[("windows_per_s", 10.0, "windows/s")]);
        let (correct, line) = result_line(&o, false);
        assert!(!correct && line.starts_with("{\"correct\": false"));
        let mut o = outcome(&[]);
        o.failed = 3;
        assert!(!o.correct());
        assert_eq!(o.failed_share(), 3.0 / 96.0);
    }

    #[test]
    fn worse_by_follows_the_metric_direction() {
        assert_eq!(worse_by(Better::Lower, 100.0, 110.0), 0.10);
        assert_eq!(worse_by(Better::Higher, 100.0, 90.0), 0.10);
        assert!(worse_by(Better::Higher, 100.0, 120.0) < 0.0);
    }

    #[test]
    fn watchdog_limit_stays_inside_the_drivers_180_seconds() {
        assert_eq!(watchdog_limit(1.0), Duration::from_secs(23));
        assert_eq!(watchdog_limit(RUN_SECONDS as f64), Duration::from_secs(98));
        assert_eq!(watchdog_limit(60.0), Duration::from_secs(170));
    }
}
