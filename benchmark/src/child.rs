//! One workload, measured in a process of its own (so peak memory and CPU
//! time are the workload's, and the parent can kill a stalled run).
//!
//! Results go to stdout one line at a time, so that whatever was measured
//! before a stall survives the kill:
//! `attempted <windows>` before a cluster run, `completed <ok> <failed>`
//! after its windows were checked against the oracle, and at the end
//! `metric <name> <value> <unit> <samples> <q1> <q3>` lines and `done`.

use std::io::Write;
use std::time::{Duration, Instant};

use dema_cluster::{run_cluster, RunReport};
use dema_core::coordinator::quantile_ground_truth;
use dema_core::event::Event;
use dema_core::quantile::Quantile;
use dema_gen::SoccerGenerator;

use crate::procfs;
use crate::spec::{
    unit_of, Workload, P95_BLOCK, PACED_DISCARD, PACED_INPUT_BYTES, PACED_RUN_MAX, RUN_SECONDS, RUN_WINDOWS,
};
use crate::stats::{self, Summary};
use crate::trace::{self, NoSpans, Spans};
use crate::walk::{self, Layers};

pub struct ChildArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Windows per unpaced run (48 unless the hidden override is given).
    pub windows_per_run: usize,
    /// How many times set-up is repeated; its median is `setup_s`.
    pub setup_reps: usize,
}

impl ChildArgs {
    /// A full-length end-to-end run, as the driver asks for it.
    pub fn full(workload: &'static Workload, seed: u64) -> ChildArgs {
        ChildArgs {
            workload,
            seed,
            seconds: RUN_SECONDS as f64,
            trace: false,
            windows_per_run: RUN_WINDOWS,
            setup_reps: 3,
        }
    }
}

/// `inputs[leaf][window]`: every leaf replays its own seeded soccer stream
/// at scale rate 1, `events_per_leaf` events per one-second window.
pub fn generate(wl: &Workload, seed: u64, windows: usize) -> Vec<Vec<Vec<Event>>> {
    (0..wl.leaves as u64)
        .map(|leaf| {
            let leaf_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(leaf);
            SoccerGenerator::new(leaf_seed, 1, wl.events_per_leaf, 0).take_windows(windows, 1_000)
        })
        .collect()
}

/// The sort oracle's median of every window.
pub fn oracle(inputs: &[Vec<Vec<Event>>]) -> Vec<i64> {
    (0..inputs[0].len())
        .map(|w| {
            let per_leaf: Vec<Vec<Event>> = inputs.iter().map(|leaf| leaf[w].clone()).collect();
            quantile_ground_truth(&per_leaf, Quantile::MEDIAN)
                .expect("generated windows are never empty")
                .value
        })
        .collect()
}

fn say(line: std::fmt::Arguments<'_>) {
    let mut out = std::io::stdout().lock();
    // The parent going away is not something the child can report.
    let _ = writeln!(out, "{line}");
    let _ = out.flush();
}

/// One cluster run over `inputs`, announced to the parent and checked
/// against `answers` (cycled, for paced runs longer than the oracle).
fn checked_run(
    wl: &Workload,
    pace: Option<u64>,
    inputs: Vec<Vec<Vec<Event>>>,
    answers: &[i64],
) -> Result<RunReport, String> {
    let windows = inputs[0].len();
    say(format_args!("attempted {windows}"));
    let report = run_cluster(&wl.config(pace), inputs).map_err(|e| format!("cluster run: {e}"))?;
    let ok = report
        .outcomes
        .iter()
        .filter(|o| o.degraded.is_none() && o.value == Some(answers[o.window.0 as usize % answers.len()]))
        .count();
    say(format_args!("completed {ok} {}", windows - ok));
    Ok(report)
}

/// What the saturate phase's runs yield.
#[derive(Default)]
struct Saturate {
    windows_per_s: Vec<f64>,
    wire_bytes: Vec<f64>,
    cpu_s: f64,
    windows: u64,
    backlog_us: Vec<f64>,
    messages: Vec<f64>,
    sweeps: Vec<f64>,
    events_per_sweep: Vec<f64>,
    ready_depth: Vec<f64>,
    pool_acquires: u64,
    pool_reuses: u64,
    synopses: Vec<f64>,
    candidate_slices: Vec<f64>,
    candidate_events: Vec<f64>,
    gamma: Vec<f64>,
    wire_events: f64,
    model_events: f64,
    retries: u64,
    degraded: u64,
    total_bytes: u64,
}

fn saturate(
    wl: &Workload,
    inputs: &[Vec<Vec<Event>>],
    answers: &[i64],
    budget: Duration,
) -> Result<Saturate, String> {
    let mut s = Saturate::default();
    let windows = inputs[0].len() as f64;
    let phase = Instant::now();
    // Closed loop: leaves replay as fast as they can, one run after another;
    // the first is a warm-up and is not measured.
    checked_run(wl, None, inputs.to_vec(), answers)?;
    while s.windows_per_s.len() < 3 || phase.elapsed() < budget {
        let run_inputs = inputs.to_vec();
        let cpu_before = procfs::cpu_seconds()?;
        let report = checked_run(wl, None, run_inputs, answers)?;
        s.cpu_s += procfs::cpu_seconds()? - cpu_before;
        s.windows += report.outcomes.len() as u64;
        s.windows_per_s.push(windows / report.wall_time.as_secs_f64());
        let traffic = report.total_traffic();
        s.total_bytes = traffic.bytes;
        s.wire_bytes.push(traffic.bytes as f64 / windows);
        s.messages.push(traffic.messages as f64 / windows);
        s.sweeps.push(report.reactor.ticks as f64 / windows);
        s.events_per_sweep.push(report.reactor.events_per_tick());
        s.ready_depth.push(report.reactor.max_ready_depth as f64);
        s.pool_acquires += report.wire.acquires;
        s.pool_reuses += report.wire.reuses;
        s.retries += report.fault_stats.retries;
        s.degraded += report.fault_stats.degraded_windows;
        s.wire_events += traffic.events as f64;
        for o in &report.outcomes {
            s.backlog_us.push(o.latency_us as f64);
            s.synopses.push(o.synopses as f64);
            s.candidate_slices.push(o.candidate_slices as f64);
            s.candidate_events.push(o.candidate_events as f64);
            s.gamma.push(o.gamma as f64);
            // The paper's Cost(γ) = 2·l_G/γ + m·(γ−2), in events.
            let (l_g, gamma, m) = (o.total_events as f64, o.gamma as f64, o.candidate_slices as f64);
            s.model_events += 2.0 * l_g / gamma + m * (gamma - 2.0);
        }
    }
    Ok(s)
}

/// What the paced phase's runs yield.
#[derive(Default)]
struct Paced {
    latency_us: Vec<Vec<f64>>,
    max_timer_lag_us: f64,
}

fn paced(
    wl: &Workload,
    inputs: &[Vec<Vec<Event>>],
    answers: &[i64],
    budget: Duration,
) -> Result<Paced, String> {
    // Open loop: leaves close a window every `period_ms` whatever the root
    // does. Runs are as long as their inputs' memory allows; the last one is
    // cut to what is left of the budget.
    let window_bytes = wl.global_events() as usize * std::mem::size_of::<Event>();
    let per_run = PACED_RUN_MAX.min(PACED_INPUT_BYTES / window_bytes);
    let mut p = Paced::default();
    let phase = Instant::now();
    loop {
        let left_ms = budget.saturating_sub(phase.elapsed()).as_millis() as usize;
        let windows = per_run.min(left_ms / wl.period_ms as usize);
        if windows < 2 * PACED_DISCARD && !p.latency_us.is_empty() {
            return Ok(p);
        }
        let windows = windows.max(2 * PACED_DISCARD);
        let run_inputs: Vec<Vec<Vec<Event>>> =
            inputs.iter().map(|leaf| (0..windows).map(|w| leaf[w % leaf.len()].clone()).collect()).collect();
        let report = checked_run(wl, Some(wl.period_ms), run_inputs, answers)?;
        p.latency_us.push(report.outcomes.iter().map(|o| o.latency_us as f64).collect());
        p.max_timer_lag_us = p.max_timer_lag_us.max(report.reactor.max_timer_lag_us as f64);
    }
}

/// What the layer walk's passes yield.
struct Walked {
    /// One entry per window of every traced pass.
    layers: Vec<Layers>,
    overhead_ratio: f64,
    /// The last traced pass and its spans.
    last: walk::WalkPass,
    last_spans: Vec<trace::Span>,
}

fn walked(
    wl: &Workload,
    inputs: &[Vec<Vec<Event>>],
    answers: &[i64],
    budget: Duration,
) -> Result<Walked, String> {
    let windows = inputs[0].len();
    let expect: Vec<Option<i64>> = answers.iter().map(|v| Some(*v)).collect();
    let check = |pass: &walk::WalkPass| {
        if pass.values != expect || pass.replay_values != answers {
            return Err("layer walk: answers differ from the sort oracle".to_string());
        }
        Ok(())
    };
    // Warm-up pass (pool threads, allocator, sockets), then traced and
    // untraced passes in turn.
    let mut last = walk::walk(wl, inputs, &mut NoSpans)?;
    check(&last)?;
    let (mut layers, mut last_spans) = (Vec::new(), Vec::new());
    // Per window, traced time over untraced time of the same window in the
    // neighbouring pass; which of the two passes goes first alternates.
    let mut ratios = Vec::new();
    let phase = Instant::now();
    for pair in 0.. {
        if pair >= 2 && phase.elapsed() >= budget {
            break;
        }
        let mut rec = Spans::with_capacity(walk::spans_per_pass(windows));
        let (traced, untraced) = if pair % 2 == 0 {
            let traced = walk::walk(wl, inputs, &mut rec)?;
            (traced, walk::walk(wl, inputs, &mut NoSpans)?)
        } else {
            let untraced = walk::walk(wl, inputs, &mut NoSpans)?;
            (walk::walk(wl, inputs, &mut rec)?, untraced)
        };
        check(&traced)?;
        check(&untraced)?;
        ratios.extend(traced.window_ns.iter().zip(&untraced.window_ns).map(|(t, u)| *t as f64 / *u as f64));
        last_spans = rec.into_spans();
        layers.extend(Layers::from_spans(&last_spans, windows));
        last = traced;
    }
    Ok(Walked { layers, overhead_ratio: stats::median(&stats::sorted(ratios)), last, last_spans })
}

fn metric(name: &str, s: &Summary) {
    say(format_args!("metric {name} {} {} {} {} {}", s.value, unit_of(name), s.samples, s.q1, s.q3));
}

fn median_of(values: &[f64]) -> Summary {
    Summary::median_of(values.to_vec())
}

/// Run the workload and print its metrics. `Err` is a failure the parent
/// reports as an incorrect run.
pub fn run(args: &ChildArgs) -> Result<(), String> {
    let wl = args.workload;

    // Set-up, several times over: generate inputs, compute the oracle's
    // answers, and do one discarded, paced warm-up run. `peak_rss_mb` is the
    // process's peak after the first of them, while its heap has seen one
    // fixed sequence of work: later, what glibc keeps of freed memory depends
    // on how far the leaves of unpaced runs got ahead of the root, and the
    // peak varies by a third from run to run.
    let mut setup_s = Vec::new();
    let mut gen_events_per_s = Vec::new();
    let mut inputs = Vec::new();
    let mut answers = Vec::new();
    let mut peak_rss_mib = 0.0;
    for rep in 0..args.setup_reps {
        let started = Instant::now();
        inputs = generate(wl, args.seed, args.windows_per_run);
        let generated = started.elapsed().as_secs_f64();
        gen_events_per_s.push(wl.global_events() as f64 * args.windows_per_run as f64 / generated);
        answers = oracle(&inputs);
        checked_run(wl, Some(wl.period_ms), inputs.clone(), &answers)?;
        setup_s.push(started.elapsed().as_secs_f64());
        if rep == 0 {
            peak_rss_mib = procfs::peak_rss_mib()?;
        }
    }

    // The two phases share `--seconds` equally; a traced run gives the walk
    // its third.
    let phase = Duration::from_secs_f64(args.seconds * if args.trace { 1.0 / 3.0 } else { 0.5 });
    let pac = paced(wl, &inputs, &answers, phase)?;
    let sat = saturate(wl, &inputs, &answers, phase)?;
    let walked = if args.trace { Some(walked(wl, &inputs, &answers, phase)?) } else { None };

    // End-to-end metrics.
    metric("windows_per_s", &median_of(&sat.windows_per_s));
    let in_time_order = stats::pool_after_warmup(&pac.latency_us, PACED_DISCARD);
    let (p95, p95_at) = stats::blockwise_tail_percentile(&in_time_order, 0.95, P95_BLOCK);
    let latency = stats::sorted(in_time_order);
    let (q1, q3) = stats::quartiles(&latency);
    let p50 = stats::median(&latency);
    metric("latency_p50_us", &Summary { value: p50, samples: latency.len(), q1, q3 });
    metric("latency_p95_us", &Summary { value: p95, samples: latency.len(), q1, q3 });
    if p95_at < 0.95 {
        say(format_args!("note latency_p95_us is the {p95_at} quantile: too few samples for ten beyond p95"));
    }
    metric("wire_bytes_per_window", &median_of(&sat.wire_bytes));
    let cpu =
        Summary { samples: sat.windows_per_s.len(), ..Summary::single(sat.cpu_s / sat.windows as f64 * 1e3) };
    metric("cpu_s_per_kwindow", &cpu);
    metric("peak_rss_mb", &Summary::single(peak_rss_mib));
    metric("setup_s", &median_of(&setup_s));

    let Some(walked) = walked else {
        say(format_args!("done"));
        return Ok(());
    };

    // Per-layer metrics.
    let layer = |f: fn(&Layers) -> f64| Summary::median_of(walked.layers.iter().map(f).collect());
    metric("gen.events_per_s", &median_of(&gen_events_per_s));
    metric("core.sort_us", &layer(|l| l.sort));
    metric("core.slice_us", &layer(|l| l.slice));
    metric("core.select_us", &layer(|l| l.select));
    metric("core.merge_us", &layer(|l| l.merge));
    metric("wire.encode_us", &layer(|l| l.encode));
    metric("wire.decode_us", &layer(|l| l.decode));
    // The walk must put on its links exactly the bytes a cluster run reports.
    let bytes = &walked.last;
    if bytes.ident_bytes + bytes.calc_bytes + bytes.control_bytes != sat.total_bytes {
        return Err(format!(
            "wire bytes: walk {} + {} + {} != run {}",
            bytes.ident_bytes, bytes.calc_bytes, bytes.control_bytes, sat.total_bytes
        ));
    }
    let per_window = |bytes: u64| Summary::single(bytes as f64 / inputs[0].len() as f64);
    metric("wire.ident_bytes", &per_window(bytes.ident_bytes));
    metric("wire.calc_bytes", &per_window(bytes.calc_bytes));
    metric("wire.control_bytes", &per_window(bytes.control_bytes));
    let reuse = if sat.pool_acquires == 0 { 0.0 } else { sat.pool_reuses as f64 / sat.pool_acquires as f64 };
    metric("wire.pool_reuse_ratio", &Summary::single(reuse));
    metric("net.send_us", &layer(|l| l.send));
    metric("net.recv_us", &layer(|l| l.recv));
    metric("net.messages", &median_of(&sat.messages));
    metric("net.reactor_sweeps", &median_of(&sat.sweeps));
    metric("net.reactor_events_per_sweep", &median_of(&sat.events_per_sweep));
    metric("net.reactor_max_ready_depth", &median_of(&sat.ready_depth));
    metric("net.reactor_max_timer_lag_us", &Summary::single(pac.max_timer_lag_us));
    metric("cluster.local_step_us", &layer(|l| l.local_step));
    metric("cluster.root_ident_us", &layer(|l| l.root_ident));
    metric("cluster.responder_us", &layer(|l| l.responder));
    metric("cluster.root_calc_us", &layer(|l| l.root_calc));
    let walk_us = layer(|l| l.walk);
    metric("cluster.walk_us", &walk_us);
    let window_us = 1e6 / stats::median(&stats::sorted(sat.windows_per_s.clone()));
    metric("cluster.hosting_ratio", &Summary::single(window_us / walk_us.value));
    metric("cluster.synopses", &median_of(&sat.synopses));
    metric("cluster.candidate_slices", &median_of(&sat.candidate_slices));
    metric("cluster.candidate_events", &median_of(&sat.candidate_events));
    metric("cluster.gamma", &median_of(&sat.gamma));
    metric("cluster.cost_model_ratio", &Summary::single(sat.wire_events / sat.model_events));
    metric("cluster.backlog_latency_p50_us", &median_of(&sat.backlog_us));
    let over = latency.iter().filter(|&&us| us > wl.period_ms as f64 * 1e3).count();
    let over_share =
        Summary { samples: latency.len(), ..Summary::single(over as f64 / latency.len() as f64) };
    metric("cluster.paced_over_period_share", &over_share);
    metric("cluster.retries", &Summary::single(sat.retries as f64));
    metric("cluster.degraded_windows", &Summary::single(sat.degraded as f64));
    metric("trace.overhead_ratio", &Summary::single(walked.overhead_ratio));
    let self_sum = layer(|l| l.self_sum() / l.walk);
    metric("trace.self_sum_ratio", &self_sum);
    if (self_sum.value - 1.0).abs() > 0.10 {
        return Err(format!("layer walk: self times sum to {} of the window span", self_sum.value));
    }

    let dir = std::path::Path::new("benchmark/out");
    let path = dir.join(format!("trace-{}.json", wl.name));
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, trace::to_json(wl.name, args.seed, &walked.last_spans)))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    say(format_args!("note trace_file {}", path.display()));
    say(format_args!("done"));
    Ok(())
}
