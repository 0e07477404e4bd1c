//! The paper sweep: the 60 points of `sweep_report::sweep_scenarios`, timed
//! whole through `SweepRunner::run` in the `sweep-*` workloads, and
//! decomposed call by call in the traced ledger.

use crate::check::Columns;
use crate::sys;
use crate::trace::Tracer;
use gnnerator::{
    build_session, Backend, BaselineSeconds, GpuRooflineBackend, HygcnBackend, ScenarioResult,
    ScenarioSpec, SessionKey, SimSession, Simulator, SweepRunner,
};
use gnnerator_bench::suite::{SuiteContext, SuiteOptions};
use gnnerator_bench::sweep_report::sweep_scenarios;
use gnnerator_graph::datasets::{Dataset, DatasetSpec};
use gnnerator_graph::{ArtifactCache, GraphError};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Dataset scale of every sweep workload. Small enough that a cold sweep
/// takes seconds on two cores, large enough that ogbn-products (carried at
/// full spec times this scale: ~72k vertices / ~1.8M edges) dominates it.
pub const SWEEP_SCALE: f64 = 0.03;

fn options(seed: u64) -> SuiteOptions {
    SuiteOptions {
        seed,
        ..SuiteOptions::paper().with_scale(SWEEP_SCALE)
    }
}

/// The sweep grid for a dataset seed, enumerated on an in-memory suite.
pub fn grid(seed: u64) -> Result<Vec<ScenarioSpec>, String> {
    let ctx = SuiteContext::materialize(&options(seed)).map_err(|e| e.to_string())?;
    Ok(sweep_scenarios(&ctx))
}

/// One timed sweep in this process: what a `sweep-*` repetition reports.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Seconds of `SuiteContext::materialize_with_cache`: the suite's
    /// datasets synthesised and stored (cold) or loaded (warm).
    pub setup_s: f64,
    /// From that first library call to the last point's digest.
    pub wall_s: f64,
    pub peak_rss_bytes: u64,
    pub digests: Vec<u64>,
}

/// Materialises the suite against the artifact cache in `dir` (empty for a
/// cold run, filled for a warm one), as `all_experiments` does, then runs
/// the grid once through the suite's `SweepRunner::run`.
pub fn timed_rep(dir: &Path, seed: u64) -> Result<Rep, String> {
    let start = Instant::now();
    let cache = Arc::new(ArtifactCache::new(dir));
    let ctx =
        SuiteContext::materialize_with_cache(&options(seed), cache).map_err(|e| e.to_string())?;
    let setup_s = start.elapsed().as_secs_f64();
    let scenarios = sweep_scenarios(&ctx);
    let results = ctx.runner().run(&scenarios).map_err(|e| e.to_string())?;
    let digests: Vec<u64> = results.iter().map(|r| Columns::of(r).digest()).collect();
    let wall_s = start.elapsed().as_secs_f64();
    Ok(Rep {
        setup_s,
        wall_s,
        peak_rss_bytes: sys::peak_rss_bytes().ok_or("no VmHWM in /proc/self/status")?,
        digests,
    })
}

/// The serial `run_one` reference for the grid, on a fresh in-memory runner.
pub fn reference(scenarios: &[ScenarioSpec]) -> Result<Vec<ScenarioResult>, String> {
    SweepRunner::new()
        .run_serial(scenarios)
        .map_err(|e| e.to_string())
}

/// What the traced serial sweep counted, beyond its spans.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    pub points: usize,
    pub mismatches: usize,
    pub datasets_synthesized: u64,
    pub datasets_loaded: u64,
    pub edges_synthesized: u64,
    /// Bytes that dataset stores and grid builds added to the cache.
    pub store_bytes: u64,
    /// Bytes that dataset loads and grid loads read, from `rchar`.
    pub load_bytes: u64,
    pub grids_built: u64,
    pub grids_loaded: u64,
    pub distinct_plans: u64,
    pub sim_cycles: u64,
}

fn materialize(
    tracer: &mut Tracer,
    ledger: &mut Ledger,
    cache: &ArtifactCache,
    dir: &Path,
    spec: DatasetSpec,
    seed: u64,
) -> Result<Dataset, String> {
    let span = tracer.begin("core.sweep.materialize_dataset");
    let read = sys::read_chars()?;
    let load = tracer.begin("graph.cache.load");
    let loaded = cache.load_dataset(&spec, seed);
    tracer.end(load);
    let read = sys::read_chars()? - read;
    let dataset = match loaded {
        Ok(Some(dataset)) => {
            ledger.datasets_loaded += 1;
            ledger.load_bytes += read;
            dataset
        }
        Ok(None) | Err(GraphError::CacheArtifact { .. }) => {
            let synth = tracer.begin("graph.datasets.synthesize");
            let dataset = spec.synthesize(seed).map_err(|e| e.to_string())?;
            tracer.end(synth);
            ledger.datasets_synthesized += 1;
            ledger.edges_synthesized += dataset.edge_list.num_edges() as u64;
            let before = sys::dir_bytes(dir).map_err(|e| e.to_string())?;
            let store = tracer.begin("graph.cache.store");
            cache.store_dataset(&dataset).ok(); // best-effort, as the program does
            tracer.end(store);
            ledger.store_bytes += sys::dir_bytes(dir).map_err(|e| e.to_string())? - before;
            dataset
        }
        Err(other) => return Err(other.to_string()),
    };
    tracer.end(span);
    Ok(dataset)
}

/// Compiles one accelerator point. A compile that materialises a shard
/// grid is recorded as `graph.shard.build` or `graph.shard.load` (it is
/// almost all grid work), and its bytes stored or read are counted; the
/// point is then compiled again on the plan hit, which is what
/// `core.compiler.compile` times.
fn compile(
    tracer: &mut Tracer,
    ledger: &mut Ledger,
    dir: &Path,
    session: &SimSession,
    scenario: &ScenarioSpec,
) -> Result<gnnerator::CompiledWorkload, String> {
    let (built, loaded) = (session.shard_grids_built(), session.shard_grids_loaded());
    let disk = sys::dir_bytes(dir).map_err(|e| e.to_string())?;
    let read = sys::read_chars()?;
    let start = Instant::now();
    let compiled = session
        .compile(&scenario.config, scenario.dataflow)
        .map_err(|e| e.to_string())?;
    let seconds = start.elapsed().as_secs_f64();
    let read = sys::read_chars()? - read;
    let built = (session.shard_grids_built() - built) as u64;
    let loaded = (session.shard_grids_loaded() - loaded) as u64;
    if built + loaded == 0 {
        let at = tracer.seconds_at(start);
        tracer.record_nested("core.compiler.compile", at, seconds);
        return Ok(compiled);
    }
    ledger.grids_built += built;
    ledger.grids_loaded += loaded;
    if built > 0 {
        ledger.store_bytes += sys::dir_bytes(dir).map_err(|e| e.to_string())? - disk;
    } else {
        ledger.load_bytes += read;
    }
    let name = if built > 0 {
        "graph.shard.build"
    } else {
        "graph.shard.load"
    };
    let at = tracer.seconds_at(start);
    tracer.record_nested(name, at, seconds);
    let hit = tracer.begin("core.compiler.compile");
    let compiled = session
        .compile(&scenario.config, scenario.dataflow)
        .map_err(|e| e.to_string())?;
    tracer.end(hit);
    Ok(compiled)
}

/// Evaluates every point serially through the public calls `run_one` is
/// made of, with a span around each, and checks each point against
/// `reference` (the `run_one` results for the same grid).
pub fn traced_sweep(
    tracer: &mut Tracer,
    scenarios: &[ScenarioSpec],
    dir: &Path,
    reference: &[ScenarioResult],
) -> Result<Ledger, String> {
    let cache = Arc::new(ArtifactCache::new(dir));
    let mut ledger = Ledger::default();
    let mut datasets: HashMap<(DatasetSpec, u64), Arc<Dataset>> = HashMap::new();
    let mut sessions: HashMap<SessionKey, Arc<SimSession>> = HashMap::new();
    for (scenario, expected) in scenarios.iter().zip(reference) {
        let point = tracer.begin("core.sweep.point");
        let key = (scenario.dataset, scenario.seed);
        let dataset = match datasets.entry(key) {
            Entry::Occupied(entry) => Arc::clone(entry.get()),
            Entry::Vacant(entry) => {
                let dataset = materialize(tracer, &mut ledger, &cache, dir, key.0, key.1)?;
                Arc::clone(entry.insert(Arc::new(dataset)))
            }
        };
        let session = match sessions.get(&scenario.session_key()) {
            Some(session) => Arc::clone(session),
            None => {
                let build = tracer.begin("core.session.build");
                let session =
                    build_session(scenario, &dataset, Some(&cache)).map_err(|e| e.to_string())?;
                tracer.end(build);
                let session = Arc::new(session);
                sessions.insert(scenario.session_key(), Arc::clone(&session));
                session
            }
        };
        let matches = if scenario.backend.is_accelerator() {
            let compiled = compile(tracer, &mut ledger, dir, &session, scenario)?;
            let walk = tracer.begin("core.simulator.walk");
            let report = Simulator::execute(&compiled).map_err(|e| e.to_string())?;
            tracer.end(walk);
            ledger.sim_cycles += report.total_cycles;
            let estimate = tracer.begin("baselines.estimate");
            let baselines = BaselineSeconds::estimate(&session).map_err(|e| e.to_string())?;
            tracer.end(estimate);
            report.to_evaluation() == expected.evaluation
                && expected.report.as_ref() == Some(&report)
                && expected.baseline_seconds == Some(baselines)
        } else {
            let estimate = tracer.begin("baselines.estimate");
            let backend: Box<dyn Backend> = match scenario.backend {
                gnnerator::BackendKind::Hygcn => {
                    Box::new(HygcnBackend::for_dataset(scenario.dataset.name))
                }
                _ => Box::new(GpuRooflineBackend::rtx_2080_ti()),
            };
            let evaluation = backend
                .evaluate(session.model(), session.num_nodes(), session.num_edges())
                .map_err(|e| e.to_string())?;
            tracer.end(estimate);
            evaluation == expected.evaluation
        };
        let shape = session.num_nodes() == expected.num_nodes
            && session.num_edges() == expected.num_edges
            && *scenario == expected.scenario;
        ledger.points += 1;
        if !(matches && shape) {
            ledger.mismatches += 1;
        }
        tracer.end(point);
    }
    ledger.distinct_plans = sessions
        .values()
        .map(|session| session.cached_shard_plans() as u64)
        .sum();
    Ok(ledger)
}
