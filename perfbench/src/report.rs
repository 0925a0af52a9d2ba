//! The `report` workload: `report all --full --max-dim 18 --jobs 2`
//! through the pooled harness, and its traced single-threaded twin.

use std::collections::HashSet;
use std::time::Instant;

use hypersweep_analysis::experiments::{self, ALL_IDS};
use hypersweep_analysis::{
    execute_run, run_ids_pooled_with, Exec, ExperimentConfig, ExperimentResult, RunCache, RunKey,
};
use hypersweep_telemetry::MetricsRegistry;

use crate::stats::{dur_ns, Fnv};
use crate::trace::Tracer;

/// Worker threads of the pooled report.
pub const JOBS: usize = 2;

/// Largest dimension of the measured report (`--full --max-dim 18`).
pub const MAX_DIM: u32 = 18;

/// The report configuration: `--full --max-dim 18`, or the quick
/// configuration clamped to `H_8` as the probe.
pub fn config(probe: bool) -> ExperimentConfig {
    let mut cfg = if probe {
        ExperimentConfig::quick()
    } else {
        ExperimentConfig::full()
    };
    cfg.clamp_max_dim(if probe { 8 } else { MAX_DIM });
    cfg
}

/// What one pooled report did.
#[derive(Clone, Debug, Default)]
pub struct Pooled {
    /// Report wall time.
    pub wall_ns: u64,
    /// FNV-1a of the rendered report (what `hypersweep report` prints on
    /// stdout).
    pub hash: u64,
    /// Distinct strategy runs executed.
    pub unique_runs: u64,
    /// Run requests answered from the cache.
    pub hits: u64,
    /// Run requests that executed.
    pub misses: u64,
    /// Warm-phase wall time.
    pub warm_ns: u64,
    /// Sum of every executed run's time.
    pub run_ns: u64,
    /// The slowest single run.
    pub straggler_ns: u64,
    /// Failed runs: experiments whose rendering is empty.
    pub failed: u64,
}

impl Pooled {
    /// One whitespace-separated line.
    pub fn to_line(&self) -> String {
        format!(
            "{} {:016x} {} {} {} {} {} {} {}",
            self.wall_ns,
            self.hash,
            self.unique_runs,
            self.hits,
            self.misses,
            self.warm_ns,
            self.run_ns,
            self.straggler_ns,
            self.failed
        )
    }

    /// Inverse of [`Pooled::to_line`].
    pub fn parse(line: &str) -> Option<Pooled> {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() != 9 {
            return None;
        }
        let n = |i: usize| f[i].parse::<u64>().ok();
        Some(Pooled {
            wall_ns: n(0)?,
            hash: u64::from_str_radix(f[1], 16).ok()?,
            unique_runs: n(2)?,
            hits: n(3)?,
            misses: n(4)?,
            warm_ns: n(5)?,
            run_ns: n(6)?,
            straggler_ns: n(7)?,
            failed: n(8)?,
        })
    }
}

fn hash_results(results: &[ExperimentResult]) -> (u64, u64) {
    let mut hash = Fnv::default();
    let mut empty = 0;
    for r in results {
        let text = r.render();
        empty += u64::from(text.trim().is_empty());
        hash.write(text.as_bytes());
        hash.write(b"\n");
    }
    (hash.finish(), empty)
}

/// Run every experiment on the pooled harness, as `hypersweep report all`
/// does.
pub fn pooled(cfg: &ExperimentConfig, jobs: usize) -> Pooled {
    let t0 = Instant::now();
    let report = run_ids_pooled_with(ALL_IDS, cfg, jobs, None, &MetricsRegistry::disabled());
    let (hash, failed) = hash_results(&report.results);
    let wall_ns = dur_ns(t0.elapsed());
    let s = &report.summary;
    Pooled {
        wall_ns,
        hash,
        unique_runs: s.unique_runs as u64,
        hits: s.cache_hits,
        misses: s.cache_misses,
        warm_ns: dur_ns(s.warm_wall),
        run_ns: s.run_timings.iter().map(|(_, t)| dur_ns(*t)).sum(),
        straggler_ns: s
            .run_timings
            .iter()
            .map(|(_, t)| dur_ns(*t))
            .max()
            .unwrap_or(0),
        failed,
    }
}

/// One experiment against a shared cache (the harness's own dispatch).
pub fn experiment(id: &str, cfg: &ExperimentConfig, runs: &RunCache) -> ExperimentResult {
    match id {
        "f1" => experiments::f1_broadcast_tree(cfg, runs),
        "f2" => experiments::f2_clean_order(cfg, runs),
        "f3" => experiments::f3_msb_classes(cfg, runs),
        "f4" => experiments::f4_visibility_wavefront(cfg, runs),
        "t2" => experiments::t2_clean_agents(cfg, runs),
        "t3" => experiments::t3_clean_moves(cfg, runs),
        "t4" => experiments::t4_clean_time(cfg, runs),
        "t5" => experiments::t5_visibility_agents(cfg, runs),
        "t6" => experiments::t6_monotonicity(cfg, runs),
        "t7" => experiments::t7_visibility_time(cfg, runs),
        "t8" => experiments::t8_visibility_moves(cfg, runs),
        "t9" => experiments::t9_cloning(cfg, runs),
        "t10" => experiments::t10_synchronous_variant(cfg, runs),
        "e11" => experiments::e11_strategy_comparison(cfg, runs),
        "e12" => experiments::e12_baselines(cfg, runs),
        "e13" => experiments::e13_ablations(cfg, runs),
        "e14" => experiments::e14_open_problem(cfg, runs),
        "e15" => experiments::e15_capture_dynamics(cfg, runs),
        "e16" => experiments::e16_network_survey(cfg, runs),
        other => panic!("unknown experiment id '{other}'"),
    }
}

/// Span name of an `execute_run` call, grouped by how the run executes.
pub fn run_span(key: &RunKey) -> &'static str {
    match key.exec {
        Exec::Fast => "analysis.run.fast",
        Exec::Audited => "analysis.run.audited",
        Exec::Engine(_) => "analysis.run.engine",
    }
}

/// The report on one thread, timing `execute_run` per unique key and each
/// experiment over the warm cache. Returns the rendered report's hash,
/// which must equal the pooled report's.
pub fn traced(cfg: &ExperimentConfig, tracer: &mut Tracer) -> u64 {
    let mut seen = HashSet::new();
    let keys: Vec<RunKey> = ALL_IDS
        .iter()
        .flat_map(|id| experiments::required_runs(id, cfg))
        .filter(|k| seen.insert(*k))
        .collect();
    let cache = RunCache::new();
    for key in keys {
        let outcome = tracer.span(run_span(&key), "analysis", |_| execute_run(key));
        cache.insert_ready(key, outcome);
    }
    let results: Vec<ExperimentResult> = ALL_IDS
        .iter()
        .map(|id| {
            tracer.span("analysis.experiment", "analysis", |_| {
                experiment(id, cfg, &cache)
            })
        })
        .collect();
    hash_results(&results).0
}

/// Total milliseconds of the spans called `name`.
pub fn span_ms(tracer: &Tracer, name: &str) -> f64 {
    tracer.span_total(name).1 as f64 / 1e6
}
