//! End-to-end benchmark of the frugal-dissemination simulator.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. A run compiles the workload's scenario file
//! `perfbench/workloads/<name>.toml`, times the set-up, then sweeps the workload's seeds through
//! the library's default runner (one worker per core, one shard per world)
//! again and again for `--seconds`, as a closed loop. Every report is then
//! checked: against the report invariants, and field by field against a
//! second run of the same seeds that steps each world through
//! `World::run_until`. With `--trace 1` that second run is sequential and
//! times every call it makes into the simulator's layers, and the mobility
//! and radio calls are replayed to time them apart.
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted` and `failed` seed runs, and the end-to-end metrics (or, with
//! `--trace 1`, the per-layer metrics). The exit code is 1 when a seed run
//! failed and 2 when the benchmark could not run.

mod adapter;
mod procfs;
mod stats;

use adapter::{Outcome, Report, TracedSeed, Workload};
use stats::{median, Phase, Phases};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// The workloads, each a scenario file `<name>.toml` in [`WORKLOADS_DIR`].
const WORKLOADS: [&str; 4] = ["paper_rw", "dense_events", "large_rw", "city_sweep"];
const WORKLOADS_DIR: &str = "perfbench/workloads";

/// Set-up repetitions before the first sweep and after every sweep. The host
/// speed drifts over seconds, so `setup_s` is the median over repetitions
/// spread across the whole run, like the sweeps.
const SETUP_REPS: usize = 5;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |err: &dyn std::fmt::Display| format!("{flag} {value}: {err}");
        match flag.as_str() {
            "--workload" => parsed.workload = value,
            "--seed" => parsed.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => parsed.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(parsed.seconds.is_finite() && parsed.seconds > 0.0) {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let result = parse_args(std::env::args().skip(1)).and_then(|args| run(&args));
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(err) => {
            eprintln!("perfbench: {err}");
            ExitCode::from(2)
        }
    }
}

/// Set-up timings, one entry per repetition.
#[derive(Debug, Default)]
struct Setup {
    compile_s: Vec<f64>,
    new_s: Vec<f64>,
    reset_s: Vec<f64>,
}

impl Setup {
    /// Compile + first `World::new` of every repetition.
    fn total_s(&self) -> Vec<f64> {
        self.compile_s
            .iter()
            .zip(&self.new_s)
            .map(|(c, n)| c + n)
            .collect()
    }
}

/// Compiles the workload and builds its first world [`SETUP_REPS`] times,
/// recording the timings in `setup`.
fn set_up(args: &Args, setup: &mut Setup) -> Result<Workload, String> {
    let path = Path::new(WORKLOADS_DIR).join(format!("{}.toml", args.workload));
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let workload = adapter::compile(&path, args.seed)?;
        setup.compile_s.push(start.elapsed().as_secs_f64());
        let (new_s, reset_s) = workload.build_first_world()?;
        setup.new_s.push(new_s);
        setup.reset_s.push(reset_s);
        last = Some(workload);
    }
    Ok(last.expect("SETUP_REPS is positive"))
}

/// What the closed-loop sweeps measured.
#[derive(Debug)]
struct Sweeps {
    /// Wall seconds of every completed sweep.
    walls: Vec<f64>,
    /// Process CPU seconds spent in the sweeps.
    cpu_s: f64,
    /// Peak resident memory after the first sweep, MiB.
    peak_rss_mb: f64,
    /// The first sweep's reports.
    first: Vec<Report>,
    /// Per seed run of a sweep: how many sweeps reproduced the first
    /// sweep's report (the first included).
    agreeing: Vec<u64>,
    /// Seed runs attempted and seed runs already known to have failed.
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

/// Sweeps the workload through the default runner until `seconds` passed,
/// with a batch of set-up repetitions after every sweep.
fn sweep(args: &Args, workload: &Workload, setup: &mut Setup) -> Result<Sweeps, String> {
    let runs = workload.seed_runs();
    let mut out = Sweeps {
        walls: Vec::new(),
        cpu_s: 0.0,
        peak_rss_mb: 0.0,
        first: Vec::new(),
        agreeing: vec![0; runs],
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };
    let started = Instant::now();
    // Stop at the sweep boundary nearest to `seconds`.
    while out.attempted == 0
        || started.elapsed().as_secs_f64() + median(&out.walls) / 2.0 < args.seconds
    {
        let cpu_start = procfs::cpu_seconds()?;
        let start = Instant::now();
        let result = workload.pool_sweep();
        let wall = start.elapsed().as_secs_f64();
        out.cpu_s += procfs::cpu_seconds()? - cpu_start;
        out.attempted += runs as u64;
        let reports = match result {
            Ok(reports) => reports,
            Err(err) => {
                out.failed += runs as u64;
                out.errors.push(err);
                break;
            }
        };
        out.walls.push(wall);
        if out.first.is_empty() {
            // Peak memory of set-up plus one sweep: later sweeps only add
            // allocator noise (each spawns fresh worker threads).
            out.peak_rss_mb = procfs::peak_rss_mb()?;
            out.first = reports;
            out.agreeing.iter_mut().for_each(|n| *n = 1);
        } else {
            for (i, report) in reports.iter().enumerate() {
                match adapter::report_difference(&out.first[i], report) {
                    None => out.agreeing[i] += 1,
                    Some(diff) => {
                        out.failed += 1;
                        out.errors
                            .push(format!("repeated sweep differs in run {i}: {diff}"));
                    }
                }
            }
        }
        set_up(args, setup)?;
    }
    Ok(out)
}

/// Checks the first sweep's reports against the invariants and against the
/// traced run, charging a failure to every sweep that reproduced a bad
/// report.
fn check(workload: &Workload, sweeps: &mut Sweeps, traced: &[TracedSeed]) {
    if sweeps.first.is_empty() {
        return;
    }
    for (i, t) in traced.iter().enumerate() {
        let pooled = &sweeps.first[i];
        let verdict = match &t.result {
            Err(err) => Err(format!("traced run failed: {err}")),
            Ok((report, _)) => workload
                .check_report(t.point, t.seed, pooled)
                .and_then(|()| match adapter::report_difference(pooled, report) {
                    None => Ok(()),
                    Some(diff) => Err(format!("pool and traced run differ in {diff}")),
                }),
        };
        if let Err(err) = verdict {
            sweeps.failed += sweeps.agreeing[i];
            sweeps.errors.push(format!(
                "{} seed {}: {err}",
                workload.label(t.point),
                t.seed
            ));
        }
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn run(args: &Args) -> Result<bool, String> {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut setup = Setup::default();
    let workload = set_up(args, &mut setup)?;
    let phases: Vec<Phases> = (0..workload.point_count())
        .map(|p| Phases::from_plan(&workload.publication_plan(p), workload.end_ms(p)))
        .collect();
    let deadlines: Vec<Vec<u64>> = phases
        .iter()
        .enumerate()
        .map(|(p, phases)| phases.step_deadlines(workload.tick_ms(p), workload.end_ms(p)))
        .collect();

    let mut sweeps = sweep(args, &workload, &mut setup)?;
    let traced = workload.traced_sweep(&deadlines, if args.trace { 1 } else { workers });
    check(&workload, &mut sweeps, &traced);

    println!(
        "workload {} seed {} on {workers} cores: {} seed runs per sweep, {} sweeps",
        args.workload,
        args.seed,
        workload.seed_runs(),
        sweeps.walls.len()
    );
    print_dissemination(&workload, &sweeps.first);
    for err in sweeps.errors.iter().take(10) {
        println!("FAILED {err}");
    }
    let failed_frac = sweeps.failed as f64 / sweeps.attempted as f64;
    println!(
        "failed_frac = {failed_frac} ratio ({} of {} seed runs)",
        sweeps.failed, sweeps.attempted
    );

    let sweep_wall = if sweeps.walls.is_empty() {
        f64::NAN
    } else {
        median(&sweeps.walls)
    };
    let cpu_s_per_seed = sweeps.cpu_s / (sweeps.walls.len() * workload.seed_runs()) as f64;
    let metrics = if args.trace {
        layer_metrics(
            &workload,
            &setup,
            &phases,
            &traced,
            workers,
            sweep_wall,
            cpu_s_per_seed,
        )
    } else {
        vec![
            metric(
                "seeds_per_s",
                workload.seed_runs() as f64 / sweep_wall,
                "1/s",
            ),
            metric("setup_s", median(&setup.total_s()), "s"),
            metric("cpu_s_per_seed", cpu_s_per_seed, "s"),
            metric("peak_rss_mb", sweeps.peak_rss_mb, "MiB"),
        ]
    };
    let mut correct = sweeps.failed == 0;
    for m in &metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
        if !m.value.is_finite() {
            correct = false;
        }
    }
    let json: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                r#""{}": {{"value": {value}, "unit": "{}"}}"#,
                m.name, m.unit
            )
        })
        .collect();
    println!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        sweeps.attempted,
        sweeps.failed,
        json.join(", ")
    );
    Ok(correct)
}

/// Prints the dissemination outputs of the first sweep, per sweep point, as
/// means over seeds. They are shown for visibility, not measured.
fn print_dissemination(workload: &Workload, first: &[Report]) {
    let seeds = workload.seeds().len();
    for (p, reports) in first.chunks(seeds.max(1)).enumerate() {
        let outcomes: Vec<Outcome> = reports.iter().map(adapter::outcome).collect();
        let mean = |f: &dyn Fn(&Outcome) -> f64| {
            outcomes.iter().map(f).sum::<f64>() / outcomes.len() as f64
        };
        let per_process = |count: fn(&Outcome) -> u64| mean(&|o| count(o) as f64 / o.nodes as f64);
        println!(
            "  {}: reliability {:.4}, events sent {:.3}, duplicates {:.3}, parasites {:.3}, {:.2} kB per process",
            workload.label(p),
            mean(&|o| o.reliability),
            per_process(|o| o.events_sent),
            per_process(|o| o.duplicates),
            per_process(|o| o.parasites),
            per_process(|o| o.bytes) / 1024.0,
        );
    }
}

/// The per-layer metrics of a traced run.
fn layer_metrics(
    workload: &Workload,
    setup: &Setup,
    phases: &[Phases],
    traced: &[TracedSeed],
    workers: usize,
    sweep_wall: f64,
    cpu_s_per_seed: f64,
) -> Vec<Metric> {
    let ok: Vec<(&TracedSeed, &Report, &adapter::SeedTiming)> = traced
        .iter()
        .filter_map(|t| t.result.as_ref().ok().map(|(r, timing)| (t, r, timing)))
        .collect();
    if ok.is_empty() {
        return Vec::new();
    }
    let seed_s: Vec<f64> = ok.iter().map(|(_, _, timing)| timing.total_s()).collect();
    let tail = stats::tail(&seed_s);
    let mean = |values: &[f64]| values.iter().sum::<f64>() / values.len() as f64;

    // Host seconds per simulated second in each phase, and host seconds per
    // mobility tick of simulated time for every step.
    let (mut warm_host, mut warm_sim, mut dissem_host, mut dissem_sim) = (0.0, 0.0, 0.0, 0.0);
    let mut per_tick = Vec::new();
    for (t, _, timing) in &ok {
        let tick_ms = workload.tick_ms(t.point) as f64;
        let mut previous = 0;
        for &(deadline, host_s) in &timing.steps {
            let sim_s = (deadline - previous) as f64 / 1000.0;
            match phases[t.point].of(deadline) {
                Phase::Warmup => (warm_host, warm_sim) = (warm_host + host_s, warm_sim + sim_s),
                Phase::Dissemination => {
                    (dissem_host, dissem_sim) = (dissem_host + host_s, dissem_sim + sim_s)
                }
                Phase::Tail => {}
            }
            per_tick.push(host_s * tick_ms / (deadline - previous) as f64);
            previous = deadline;
        }
    }
    let per_tick = stats::sorted(&per_tick);

    let replays: Vec<adapter::Replay> = ok
        .iter()
        .map(|(t, _, _)| workload.replay(t.point, t.seed))
        .collect();
    let sum = |f: &dyn Fn(&adapter::Replay) -> f64| replays.iter().map(f).sum::<f64>();
    let outcomes: Vec<Outcome> = ok.iter().map(|(_, r, _)| adapter::outcome(r)).collect();
    let total = |f: fn(&Outcome) -> u64| outcomes.iter().map(f).sum::<u64>() as f64;
    let resets: Vec<f64> = ok
        .iter()
        .filter(|(_, _, timing)| !timing.fresh)
        .map(|(_, _, timing)| timing.build_s)
        .collect();
    let unattributed: Vec<f64> = ok
        .iter()
        .zip(&replays)
        .map(|((_, _, timing), r)| timing.stepping_s() - r.advance_s - r.grid_s)
        .collect();
    let reports_s: Vec<f64> = ok.iter().map(|(_, _, timing)| timing.report_s).collect();
    let traced_mean = mean(&seed_s);

    vec![
        metric("scenario_compile.compile_s", median(&setup.compile_s), "s"),
        metric("world.new_s", median(&setup.new_s), "s"),
        metric(
            "world.reset_s",
            median(if resets.is_empty() {
                &setup.reset_s
            } else {
                &resets
            }),
            "s",
        ),
        metric(
            "world.seed_s_p50",
            stats::percentile(&stats::sorted(&seed_s), 50.0),
            "s",
        ),
        metric("world.seed_s_tail", tail.value, "s"),
        metric("world.seed_s_tail_pct", tail.percentile, "pct"),
        metric("world.seed_s_samples", tail.samples as f64, "count"),
        metric("world.warmup_host_s_per_sim_s", warm_host / warm_sim, "s/s"),
        metric(
            "world.dissem_host_s_per_sim_s",
            dissem_host / dissem_sim,
            "s/s",
        ),
        metric("world.step_s_p50", stats::percentile(&per_tick, 50.0), "s"),
        metric("world.step_s_p99", stats::percentile(&per_tick, 99.0), "s"),
        metric("world.step_samples", per_tick.len() as f64, "count"),
        metric("report.build_s", median(&reports_s), "s"),
        metric(
            "runner.efficiency",
            seed_s.iter().sum::<f64>() / (workers as f64 * sweep_wall),
            "ratio",
        ),
        metric(
            "mobility.advance_s",
            sum(&|r| r.advance_s) / replays.len() as f64,
            "s",
        ),
        metric("mobility.advances", sum(&|r| r.advances as f64), "count"),
        metric(
            "mobility.skip_frac",
            sum(&|r| r.skipped as f64) / sum(&|r| r.node_ticks as f64),
            "ratio",
        ),
        metric(
            "netsim.grid_update_s",
            sum(&|r| r.grid_s) / replays.len() as f64,
            "s",
        ),
        metric(
            "netsim.tx_us_per_frame",
            sum(&|r| r.tx_s) * 1e6 / sum(&|r| r.frames as f64),
            "us",
        ),
        metric("netsim.frames_sent", total(|o| o.frames_sent), "count"),
        metric(
            "netsim.rx_per_frame",
            total(|o| o.frames_received) / total(|o| o.frames_sent),
            "ratio",
        ),
        metric(
            "netsim.collision_frac",
            total(|o| o.lost_collision)
                / total(|o| o.frames_received + o.lost_collision + o.lost_fringe),
            "ratio",
        ),
        metric("frugal.messages_sent", total(|o| o.messages_sent), "count"),
        metric("frugal.events_sent", total(|o| o.events_sent), "count"),
        metric(
            "frugal.useful_frac",
            total(|o| o.delivered) / total(|o| o.delivered + o.duplicates + o.parasites),
            "ratio",
        ),
        metric("world.unattributed_s", mean(&unattributed), "s"),
        metric(
            "trace.overhead_frac",
            traced_mean / cpu_s_per_seed - 1.0,
            "ratio",
        ),
    ]
}
