//! `perfbench`: the GNNerator reproduction's end-to-end and per-layer
//! benchmark. See `perfbench/README.md` for the workloads and metrics.
//!
//! ```text
//! perfbench --workload <sweep-cold|sweep-warm|serve-hot> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --self-check <runs> [--workload <name>] [--seconds <s>]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The exit code is non-zero when any
//! output check fails.

mod check;
mod serve;
mod stats;
mod sweep;
mod sys;
mod trace;
mod zipf;

use check::Columns;
use gnnerator::SweepRunner;
use gnnerator_serve::Json;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use trace::Tracer;

const WORKLOADS: [&str; 3] = ["sweep-cold", "sweep-warm", "serve-hot"];

/// The seed whose outputs must also equal the committed digests.
const DEFAULT_SEED: u64 = 42;

/// Combined digest of the 60 sweep points for [`DEFAULT_SEED`].
const SWEEP_DIGEST: &str = "c6bb4ab6734a7f5c";

/// Combined digest of the 36 served request kinds for [`DEFAULT_SEED`].
const SERVE_DIGEST: &str = "95da59d7a9f02fa4";

/// Fewest timed repetitions per sweep run, however short `--seconds` is.
const MIN_REPS: usize = 3;

/// Cache fills per `sweep-warm` run; `setup_s` is their median.
const FILLS: usize = 3;

/// Traced and untraced warm sweeps compared for the tracing overhead.
const OVERHEAD_PAIRS: usize = 3;

/// Prefix of the line a child process reports its repetition on.
const REP_PREFIX: &str = "PERFBENCH-REP ";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_check: Option<usize>,
    role: Option<String>,
    dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        self_check: None,
        role: None,
        dir: None,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--self-check" => {
                args.self_check = Some(value()?.parse().map_err(|e| format!("--self-check: {e}"))?)
            }
            "--role" => args.role = Some(value()?),
            "--dir" => args.dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.self_check.is_none()
        && args.role.is_none()
        && !WORKLOADS.contains(&args.workload.as_str())
    {
        return Err(format!(
            "--workload must be one of {}, got {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

/// Where runs keep their artifact caches, traces and scrapes.
fn work_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("work")
}

fn main() -> ExitCode {
    // The program reads these variables; the benchmark pins the defaults.
    for (name, _) in std::env::vars() {
        if name.starts_with("GNNERATOR_") {
            std::env::remove_var(name);
        }
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (&args.role, args.self_check) {
        (Some(role), _) => child(role, &args).map(|()| true),
        (None, Some(runs)) => self_check(&args, runs).map(|()| true),
        (None, None) => run(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::from(2)
        }
    }
}

/// Renders a verifier's per-kind outcome as `"<digest or ->:<matching>"`.
fn kinds_json(verifier: &serve::Verifier) -> String {
    let kinds: Vec<String> = verifier
        .outcome()
        .iter()
        .map(|(digest, ok)| format!("\"{}:{ok}\"", digest.map_or("-".to_string(), check::hex)))
        .collect();
    format!("[{}]", kinds.join(", "))
}

/// A child process's role: a timed sweep repetition, or a `serve-hot`
/// set-up with or without its load phase.
fn child(role: &str, args: &Args) -> Result<(), String> {
    let dir = args.dir.as_ref().ok_or("--dir is required")?;
    let line = match role {
        "sweep-rep" => {
            let rep = sweep::timed_rep(dir, args.seed)?;
            let digests: Vec<String> = rep
                .digests
                .iter()
                .map(|&d| format!("\"{}\"", check::hex(d)))
                .collect();
            format!(
                "{{\"setup_s\": {}, \"wall_s\": {}, \"peak_rss_bytes\": {}, \"digests\": [{}]}}",
                rep.setup_s,
                rep.wall_s,
                rep.peak_rss_bytes,
                digests.join(", ")
            )
        }
        "serve-setup" => {
            let kinds = serve::request_kinds(args.seed);
            let mut verifier = serve::Verifier::new(kinds.len());
            let (server, setup_s) = serve::start_warm(&kinds, dir, &mut verifier)?;
            server.shutdown();
            format!(
                "{{\"setup_s\": {setup_s}, \"attempted\": {}, \"failed\": {}, \"kinds\": {}}}",
                kinds.len(),
                verifier.failed,
                kinds_json(&verifier)
            )
        }
        "serve-load" => {
            let run = serve::run(args.seed, args.seconds, dir, None)?;
            let summary = run.load.summary()?;
            format!(
                "{{\"setup_s\": {}, \"attempted\": {}, \"failed\": {}, \"kinds\": {}, \
                 \"goodput_rps\": {}, \"p50_s\": {}, \"p99_s\": {}, \"block_s\": {}, \
                 \"samples\": {}, \"windows\": {}, \"blocks\": {}, \"peak_rss_bytes\": {}}}",
                run.setup_s,
                run.load.attempted() + run.verifier.outcome().len() as u64,
                run.verifier.failed,
                kinds_json(&run.verifier),
                summary.goodput_rps,
                summary.p50_s,
                summary.p99_s,
                summary.block_s,
                summary.samples,
                summary.windows,
                summary.blocks,
                sys::peak_rss_bytes().ok_or("no VmHWM in /proc/self/status")?
            )
        }
        other => return Err(format!("unknown role {other}")),
    };
    println!("{REP_PREFIX}{line}");
    Ok(())
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

/// The result line, or an error naming the first metric that could not
/// be measured (a NaN or infinite value, say from an empty sample or a
/// zero denominator).
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("{} could not be measured ({})", m.name, m.value));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    line.push_str("}}");
    Ok(line)
}

/// Prints the human-readable table, then the result line; returns
/// `correct`, or an error when a metric could not be measured.
fn report(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> Result<bool, String> {
    let line = result_line(correct, attempted, failed, metrics)?;
    for m in metrics {
        println!(
            "{:<40} {:>16.6} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!("attempted {attempted}, failed {failed}, correct {correct}");
    println!("{line}");
    Ok(correct)
}

fn run(args: &Args) -> Result<bool, String> {
    let dir = work_dir().join(format!("run-{}", std::process::id()));
    sys::remove_dir(&dir).map_err(|e| e.to_string())?;
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let outcome = if args.trace {
        ledger(args, &dir)
    } else {
        match args.workload.as_str() {
            "serve-hot" => serve_hot(args, &dir),
            workload => sweep_workload(args, &dir, workload == "sweep-warm"),
        }
    };
    sys::remove_dir(&dir).map_err(|e| e.to_string())?;
    outcome
}

/// Runs this program as a child with `args` and returns its report line
/// and the seconds from spawn to exit.
fn spawn_child(args: &[&str], dir: &Path) -> Result<(Json, f64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let start = Instant::now();
    let output = Command::new(exe)
        .args(args)
        .arg("--dir")
        .arg(dir)
        .output()
        .map_err(|e| format!("spawning {args:?}: {e}"))?;
    let process_s = start.elapsed().as_secs_f64();
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .find_map(|line| line.strip_prefix(REP_PREFIX))
        .ok_or_else(|| {
            format!(
                "child {args:?} failed ({}): {}",
                output.status,
                String::from_utf8_lossy(&output.stderr)
            )
        })?;
    let json = Json::parse(line).ok_or("unparseable child report")?;
    Ok((json, process_s))
}

fn number(json: &Json, key: &str) -> Result<f64, String> {
    json.get(key)
        .and_then(Json::as_f64)
        .ok_or(format!("child report has no {key}"))
}

fn strings<'a>(json: &'a Json, key: &str) -> Result<Vec<&'a str>, String> {
    json.get(key)
        .and_then(Json::as_array)
        .ok_or(format!("child report has no {key}"))?
        .iter()
        .map(|item| item.as_str().ok_or(format!("bad {key} entry")))
        .collect()
}

/// A finished sweep repetition.
struct Rep {
    setup_s: f64,
    wall_s: f64,
    peak_rss_bytes: u64,
    digests: Vec<u64>,
    /// Spawn to exit, as the parent saw it.
    process_s: f64,
}

fn spawn_rep(dir: &Path, seed: u64) -> Result<Rep, String> {
    let seed = seed.to_string();
    let (json, process_s) = spawn_child(&["--role", "sweep-rep", "--seed", &seed], dir)?;
    let digests = strings(&json, "digests")?
        .into_iter()
        .map(|d| check::parse_hex(d).ok_or("bad digest"))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Rep {
        setup_s: number(&json, "setup_s")?,
        wall_s: number(&json, "wall_s")?,
        peak_rss_bytes: number(&json, "peak_rss_bytes")? as u64,
        digests,
        process_s,
    })
}

/// Points of `rep` that differ from the reference digests.
fn mismatches(rep: &[u64], reference: &[u64]) -> u64 {
    if rep.len() != reference.len() {
        return reference.len().max(rep.len()) as u64;
    }
    rep.iter().zip(reference).filter(|(a, b)| a != b).count() as u64
}

/// Digests of the serial `run_one` reference, and whether the default
/// seed's combined digest matches the committed one.
fn sweep_reference(seed: u64) -> Result<(Vec<u64>, bool), String> {
    let scenarios = sweep::grid(seed)?;
    let digests: Vec<u64> = sweep::reference(&scenarios)?
        .iter()
        .map(|r| Columns::of(r).digest())
        .collect();
    let combined = check::hex(check::combine(&digests));
    eprintln!("sweep reference digest (seed {seed}): {combined}");
    let golden = seed != DEFAULT_SEED || combined == SWEEP_DIGEST;
    Ok((digests, golden))
}

fn median(values: &[f64]) -> f64 {
    stats::median(values).unwrap_or(f64::NAN)
}

fn sweep_workload(args: &Args, dir: &Path, warm: bool) -> Result<bool, String> {
    let cache = dir.join("cache");
    let mut setups = Vec::new();
    let mut fills = Vec::new();
    if warm {
        for _ in 0..FILLS {
            sys::remove_dir(&cache).map_err(|e| e.to_string())?;
            let fill = spawn_rep(&cache, args.seed)?;
            setups.push(fill.process_s);
            fills.push(fill);
        }
    }
    let mut reps = Vec::new();
    let start = Instant::now();
    while reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
        if !warm {
            sys::remove_dir(&cache).map_err(|e| e.to_string())?;
        }
        let rep = spawn_rep(&cache, args.seed)?;
        if !warm {
            setups.push(rep.setup_s);
        }
        reps.push(rep);
    }
    let disk_bytes = sys::dir_bytes(&cache).map_err(|e| e.to_string())?;
    let (reference, golden) = sweep_reference(args.seed)?;
    let all = fills.iter().chain(&reps);
    let attempted: u64 = all.clone().map(|rep| rep.digests.len() as u64).sum();
    let failed: u64 = all.map(|rep| mismatches(&rep.digests, &reference)).sum();
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let rates: Vec<f64> = reps
        .iter()
        .map(|r| r.digests.len() as f64 / r.wall_s)
        .collect();
    let rss: Vec<f64> = reps
        .iter()
        .map(|r| r.peak_rss_bytes as f64 / sys::MB)
        .collect();
    // One request of a sweep workload is a whole sweep, so its latency is
    // the sweep's wall time. Too few sweeps fit in a run for any percentile
    // above the median to have ten samples beyond it: the tail reported is
    // the highest that does, else the median.
    let sorted = stats::sorted(walls.clone());
    let p50 = stats::nearest_rank(&sorted, 50.0).ok_or("no repetitions")?;
    let tail = match stats::highest_supported(&sorted, &[99.0, 90.0, 50.0]) {
        Some((q, value)) => {
            eprintln!("latency_p99_ms carries p{q} of {} sweeps", sorted.len());
            value
        }
        None => {
            eprintln!(
                "latency_p99_ms carries the median: no percentile of {} sweeps has ten beyond it",
                sorted.len()
            );
            p50
        }
    };
    let metrics = [
        metric("wall_s", median(&walls), "s", walls.len()),
        metric("setup_s", median(&setups), "s", setups.len()),
        metric("peak_rss_mb", median(&rss), "MB", rss.len()),
        metric("artifact_disk_mb", disk_bytes as f64 / sys::MB, "MB", 1),
        metric("goodput_rps", median(&rates), "1/s", rates.len()),
        metric("latency_p50_ms", p50 * 1e3, "ms", sorted.len()),
        metric("latency_p99_ms", tail * 1e3, "ms", sorted.len()),
    ];
    if !golden {
        eprintln!("perfbench: the default seed's sweep digest differs from the committed one");
    }
    report(
        failed == 0 && golden,
        attempted,
        failed + u64::from(!golden),
        &metrics,
    )
}

/// Per kind digests of the serial `run_one` reference for the served mix,
/// and whether the default seed's combined digest matches.
fn serve_reference(seed: u64) -> Result<(Vec<u64>, bool), String> {
    let runner = SweepRunner::new();
    let digests = serve::request_kinds(seed)
        .iter()
        .map(|body| {
            let json = Json::parse(body).ok_or("bad request body")?;
            let scenario = gnnerator_serve::scenario_from_json(&json)?;
            let result = runner.run_one(&scenario).map_err(|e| e.to_string())?;
            Ok(Columns::of(&result).digest())
        })
        .collect::<Result<Vec<u64>, String>>()?;
    let combined = check::hex(check::combine(&digests));
    eprintln!("serve reference digest (seed {seed}): {combined}");
    Ok((digests, seed != DEFAULT_SEED || combined == SERVE_DIGEST))
}

/// Parses a child's per-kind outcome, as rendered by [`kinds_json`].
fn parse_kinds(json: &Json) -> Result<Vec<(Option<u64>, u64)>, String> {
    strings(json, "kinds")?
        .into_iter()
        .map(|kind| {
            let (digest, ok) = kind.split_once(':').ok_or("bad kind outcome")?;
            let digest = match digest {
                "-" => None,
                hex => Some(check::parse_hex(hex).ok_or("bad kind digest")?),
            };
            Ok((digest, ok.parse().map_err(|_| "bad kind count")?))
        })
        .collect()
}

/// Responses whose kind's verified columns differ from the reference
/// (every response of such a kind is wrong).
fn wrong_kinds(outcome: &[(Option<u64>, u64)], reference: &[u64]) -> Result<u64, String> {
    if outcome.len() != reference.len() {
        return Err("the per-kind outcome has the wrong number of kinds".into());
    }
    Ok(outcome
        .iter()
        .zip(reference)
        .filter(|((digest, _), expected)| digest.is_some_and(|d| d != **expected))
        .map(|((_, ok), _)| ok)
        .sum())
}

fn serve_hot(args: &Args, dir: &Path) -> Result<bool, String> {
    let seed = args.seed.to_string();
    let seconds = args.seconds.to_string();
    let mut children = Vec::new();
    for i in 1..serve::SETUPS {
        let (json, _) = spawn_child(
            &["--role", "serve-setup", "--seed", &seed],
            &dir.join(format!("setup-{i}")),
        )?;
        children.push(json);
    }
    let load_dir = dir.join("load");
    let (load, _) = spawn_child(
        &[
            "--role",
            "serve-load",
            "--seed",
            &seed,
            "--seconds",
            &seconds,
        ],
        &load_dir,
    )?;
    let disk_bytes = sys::dir_bytes(&load_dir).map_err(|e| e.to_string())?;
    children.push(load);
    let load = children.last().expect("the load child");

    let (reference, golden) = serve_reference(args.seed)?;
    let (mut attempted, mut failed) = (0, 0);
    let mut setups = Vec::new();
    for json in &children {
        attempted += number(json, "attempted")? as u64;
        failed += number(json, "failed")? as u64 + wrong_kinds(&parse_kinds(json)?, &reference)?;
        setups.push(number(json, "setup_s")?);
    }
    let served: Vec<u64> = parse_kinds(load)?.iter().map(|&(_, ok)| ok).collect();
    eprintln!(
        "serve-hot: correct responses by kind: {}",
        serve::shares(&served)
    );
    let samples = number(load, "samples")? as usize;
    eprintln!(
        "serve-hot: {samples} responses; latency percentiles are medians over {} windows, wall_s over {} blocks of {}",
        number(load, "windows")?,
        number(load, "blocks")?,
        serve::BLOCK
    );
    let metrics = [
        metric(
            "wall_s",
            number(load, "block_s")?,
            "s",
            number(load, "blocks")? as usize,
        ),
        metric("setup_s", median(&setups), "s", setups.len()),
        metric(
            "peak_rss_mb",
            number(load, "peak_rss_bytes")? / sys::MB,
            "MB",
            1,
        ),
        metric("artifact_disk_mb", disk_bytes as f64 / sys::MB, "MB", 1),
        metric(
            "goodput_rps",
            number(load, "goodput_rps")?,
            "1/s",
            serve::WINDOWS,
        ),
        metric(
            "latency_p50_ms",
            number(load, "p50_s")? * 1e3,
            "ms",
            samples,
        ),
        metric(
            "latency_p99_ms",
            number(load, "p99_s")? * 1e3,
            "ms",
            samples,
        ),
    ];
    if !golden {
        eprintln!("perfbench: the default seed's serve digest differs from the committed one");
    }
    report(
        failed == 0 && golden,
        attempted,
        failed + u64::from(!golden),
        &metrics,
    )
}

/// Median seconds of a traced and an untraced serial warm sweep, run
/// alternately.
fn trace_overhead(
    scenarios: &[gnnerator::ScenarioSpec],
    cache: &Path,
    reference: &[gnnerator::ScenarioResult],
) -> Result<(f64, f64), String> {
    let mut traced = Vec::new();
    let mut untraced = Vec::new();
    for _ in 0..OVERHEAD_PAIRS {
        for (enabled, times) in [(false, &mut untraced), (true, &mut traced)] {
            let mut tracer = Tracer::new(enabled);
            tracer.phase("overhead");
            let start = Instant::now();
            sweep::traced_sweep(&mut tracer, scenarios, cache, reference)?;
            times.push(start.elapsed().as_secs_f64());
        }
    }
    Ok((median(&traced), median(&untraced)))
}

/// The traced run: the serial sweep decomposed cold then warm, a parallel
/// warm sweep, and a traced serve-hot phase. Writes the trace and the
/// per-layer table, and reports every per-layer metric.
fn ledger(args: &Args, dir: &Path) -> Result<bool, String> {
    let cache = dir.join("cache");
    let scenarios = sweep::grid(args.seed)?;
    let reference = sweep::reference(&scenarios)?;
    let reference_digests: Vec<u64> = reference.iter().map(|r| Columns::of(r).digest()).collect();
    let mut tracer = Tracer::new(true);

    let cold_pid = tracer.phase("sweep-cold (serial, traced)");
    let cold = sweep::traced_sweep(&mut tracer, &scenarios, &cache, &reference)?;
    let warm_pid = tracer.phase("sweep-warm (serial, traced)");
    let warm = sweep::traced_sweep(&mut tracer, &scenarios, &cache, &reference)?;
    let (traced_s, untraced_s) = trace_overhead(&scenarios, &cache, &reference)?;

    let start = Instant::now();
    let runner = SweepRunner::new().with_artifact_cache(std::sync::Arc::new(
        gnnerator_graph::ArtifactCache::new(&cache),
    ));
    let parallel = runner.run(&scenarios).map_err(|e| e.to_string())?;
    let parallel_wall = start.elapsed().as_secs_f64();
    let parallel_digests: Vec<u64> = parallel.iter().map(|r| Columns::of(r).digest()).collect();
    let point_s: Vec<f64> = parallel.iter().map(|r| r.simulate_seconds).collect();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    tracer.phase("serve-hot (X-Provenance)");
    let served = serve::run(
        args.seed,
        args.seconds,
        &dir.join("serve"),
        Some(&mut tracer),
    )?;
    let (serve_reference, _) = serve_reference(args.seed)?;

    let sweep_points = (cold.points + warm.points + parallel.len()) as u64;
    let failed = (cold.mismatches + warm.mismatches) as u64
        + mismatches(&parallel_digests, &reference_digests)
        + served.verifier.failed
        + wrong_kinds(&served.verifier.outcome(), &serve_reference)?;
    let attempted = sweep_points + served.load.attempted() + serve_reference.len() as u64;

    // A span, series or percentile that is missing is an error, never a 0.
    let totals = trace::totals(tracer.spans());
    let span_s = |pid: u32, name: &str| {
        totals
            .get(&(pid, name.to_string()))
            .map(|t| t.total_s)
            .ok_or_else(|| format!("the traced run recorded no {name} span in phase {pid}"))
    };
    let before = &served.metrics_before;
    let after = &served.metrics_after;
    let delta =
        |name: &str| Ok::<f64, String>(serve::series(after, name)? - serve::series(before, name)?);
    let passes = delta("gnnerator_batches_total")? + delta("gnnerator_solo_requests_total")?;
    let requests =
        delta("gnnerator_batched_requests_total")? + delta("gnnerator_solo_requests_total")?;
    let (hits, misses) = (
        serve::series(after, "gnnerator_pool_hits_total")?,
        serve::series(after, "gnnerator_pool_misses_total")?,
    );
    let p = &served.load.provenance;
    let us = |values: &[f64], q: f64| serve::percentile_us(values, q).unwrap_or(f64::NAN);
    let walk_s = span_s(warm_pid, "core.simulator.walk")?;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { f64::NAN };
    let n = scenarios.len();
    let metrics = [
        metric(
            "graph.datasets.synthesize_s",
            span_s(cold_pid, "graph.datasets.synthesize")?,
            "s",
            cold.datasets_synthesized as usize,
        ),
        metric(
            "graph.datasets.edges",
            cold.edges_synthesized as f64,
            "count",
            1,
        ),
        metric(
            "graph.cache.store_s",
            span_s(cold_pid, "graph.cache.store")?,
            "s",
            cold.datasets_synthesized as usize,
        ),
        metric(
            "graph.cache.store_mb",
            cold.store_bytes as f64 / sys::MB,
            "MB",
            1,
        ),
        metric(
            "graph.cache.load_s",
            span_s(warm_pid, "graph.cache.load")?,
            "s",
            warm.datasets_loaded as usize,
        ),
        metric(
            "graph.cache.load_mb",
            warm.load_bytes as f64 / sys::MB,
            "MB",
            1,
        ),
        metric(
            "graph.cache.hit_ratio",
            ratio(
                warm.datasets_loaded as f64,
                (warm.datasets_loaded + warm.datasets_synthesized) as f64,
            ),
            "ratio",
            1,
        ),
        metric(
            "graph.shard.build_s",
            span_s(cold_pid, "graph.shard.build")?,
            "s",
            cold.grids_built as usize,
        ),
        metric(
            "graph.shard.grids_built",
            cold.grids_built as f64,
            "count",
            1,
        ),
        metric(
            "graph.shard.load_s",
            span_s(warm_pid, "graph.shard.load")?,
            "s",
            warm.grids_loaded as usize,
        ),
        metric(
            "graph.shard.grids_loaded",
            warm.grids_loaded as f64,
            "count",
            1,
        ),
        metric(
            "graph.plan_cache.distinct_plans",
            warm.distinct_plans as f64,
            "count",
            1,
        ),
        metric(
            "graph.plan_cache.dup_loads",
            warm.grids_loaded.saturating_sub(warm.distinct_plans) as f64,
            "count",
            1,
        ),
        metric(
            "core.session.build_s",
            span_s(warm_pid, "core.session.build")?,
            "s",
            1,
        ),
        metric(
            "core.compiler.compile_s",
            span_s(warm_pid, "core.compiler.compile")?,
            "s",
            1,
        ),
        metric("core.simulator.walk_s", walk_s, "s", 1),
        metric(
            "core.simulator.sim_cycles",
            warm.sim_cycles as f64,
            "count",
            1,
        ),
        metric(
            "core.simulator.walk_ns_per_kcycle",
            ratio(walk_s * 1e9, warm.sim_cycles as f64 / 1e3),
            "ns",
            1,
        ),
        metric(
            "baselines.estimate_s",
            span_s(warm_pid, "baselines.estimate")?,
            "s",
            1,
        ),
        metric("core.sweep.point_ms_p50", median(&point_s) * 1e3, "ms", n),
        metric(
            "core.sweep.parallel_efficiency",
            point_s.iter().sum::<f64>() / (parallel_wall * threads as f64),
            "ratio",
            1,
        ),
        metric(
            "serve.server.queue_wait_us_p50",
            us(&p.queue_wait_s, 50.0),
            "us",
            p.queue_wait_s.len(),
        ),
        metric(
            "serve.server.queue_wait_us_p99",
            us(&p.queue_wait_s, 99.0),
            "us",
            p.queue_wait_s.len(),
        ),
        metric("serve.batch.size_mean", ratio(requests, passes), "count", 1),
        metric("serve.batch.batches", passes, "count", 1),
        metric(
            "serve.pool.hit_ratio",
            ratio(hits, hits + misses),
            "ratio",
            1,
        ),
        metric(
            "serve.pool.session_build_s",
            serve::series(before, "gnnerator_session_build_seconds_sum")?,
            "s",
            1,
        ),
        metric(
            "serve.evaluate_us_p50",
            us(&p.evaluate_s, 50.0),
            "us",
            p.evaluate_s.len(),
        ),
        metric(
            "serve.json.serialize_us_p50",
            us(&p.serialize_s, 50.0),
            "us",
            p.serialize_s.len(),
        ),
        metric(
            "serve.http.transport_us_p50",
            us(&p.transport_s, 50.0),
            "us",
            p.transport_s.len(),
        ),
        metric(
            "serve.http.shed_429",
            delta("gnnerator_queue_shed_total")?,
            "count",
            1,
        ),
        metric(
            "observe.trace_overhead_pct",
            (traced_s - untraced_s) / untraced_s * 100.0,
            "%",
            OVERHEAD_PAIRS,
        ),
    ];

    let out = work_dir();
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
    let write = |name: &str, text: &str| {
        let path = out.join(format!("{}-{name}", args.workload));
        std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
        Ok::<(), String>(())
    };
    write("trace.json", &tracer.chrome_json())?;
    write("layers.txt", &layer_table(&tracer, &metrics))?;
    write("metrics-before.prom", before)?;
    write("metrics-after.prom", after)?;
    write("stats-before.json", &served.stats_before)?;
    write("stats-after.json", &served.stats_after)?;
    eprint!("{}", layer_table(&tracer, &[]));
    report(failed == 0, attempted, failed, &metrics)
}

/// Self time, total time and calls per span name and phase, then the
/// per-layer metrics.
fn layer_table(tracer: &Tracer, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{:<6} {:<36} {:>8} {:>12} {:>12}\n",
        "phase", "span", "calls", "total_s", "self_s"
    );
    for ((pid, name), t) in trace::totals(tracer.spans()) {
        let _ = writeln!(
            out,
            "{pid:<6} {name:<36} {:>8} {:>12.6} {:>12.6}",
            t.count, t.total_s, t.self_s
        );
    }
    for m in metrics {
        let _ = writeln!(out, "{:<43} {:>16.6} {}", m.name, m.value, m.unit);
    }
    out
}

/// Runs each workload `runs` times with seeds 1..=runs and prints, per
/// metric, the median, quartiles and relative spread.
fn self_check(args: &Args, runs: usize) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let workloads: Vec<&str> = if args.workload.is_empty() {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    for workload in workloads {
        let mut values: Vec<(String, String, Vec<f64>)> = Vec::new();
        for seed in 1..=runs as u64 {
            let output = Command::new(&exe)
                .args(["--workload", workload, "--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", "0"])
                .output()
                .map_err(|e| e.to_string())?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let last = stdout.lines().last().unwrap_or_default();
            let json = Json::parse(last)
                .filter(|_| output.status.success())
                .ok_or_else(|| {
                    format!(
                        "{workload} seed {seed} failed: {}",
                        String::from_utf8_lossy(&output.stderr)
                    )
                })?;
            let Some(Json::Object(fields)) = json.get("metrics") else {
                return Err("result line has no metrics".into());
            };
            for (name, value) in fields {
                let number = value
                    .get("value")
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::NAN);
                let unit = value
                    .get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string();
                match values.iter_mut().find(|(n, _, _)| n == name) {
                    Some((_, _, list)) => list.push(number),
                    None => values.push((name.clone(), unit, vec![number])),
                }
            }
            eprintln!("{workload} seed {seed}: {last}");
        }
        println!("{workload} ({runs} runs of {} s)", args.seconds);
        println!(
            "  {:<20} {:>14} {:>14} {:>14} {:>8}",
            "metric", "median", "q1", "q3", "spread"
        );
        for (name, unit, list) in &values {
            if let Some(s) = stats::spread(list) {
                println!(
                    "  {:<20} {:>14.6} {:>14.6} {:>14.6} {:>7.2}% {unit}",
                    name,
                    s.median,
                    s.q1,
                    s.q3,
                    s.relative * 100.0
                );
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_refuses_a_metric_that_was_not_measured() {
        let line = result_line(true, 3, 0, &[metric("wall_s", 1.25, "s", 3)]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        for value in [f64::NAN, f64::INFINITY] {
            let metrics = [
                metric("wall_s", 1.25, "s", 3),
                metric("serve.batch.size_mean", value, "count", 1),
            ];
            let error = result_line(true, 3, 0, &metrics).unwrap_err();
            assert!(error.contains("serve.batch.size_mean"), "{error}");
        }
    }
}
