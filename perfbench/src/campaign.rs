//! The `campaign` workload: `check` campaigns on the paper's strategies
//! and the scenario registry's grid/dynamic campaigns, plus the traced
//! re-drive of the checker's step loop.

use std::time::Instant;

use hypersweep_analysis::{run_campaign, CheckCampaign};
use hypersweep_check::{
    explore_schedule_in, Adversary, CheckArena, CheckConfig, CheckStrategy, EagerVisibilityAgent,
    ScheduleRun, StepOracle, ViolationKind, ViolationReport,
};
use hypersweep_core::clean::CleanAgent;
use hypersweep_core::cloning::CloningAgent;
use hypersweep_core::synchronous::SynchronousAgent;
use hypersweep_core::visibility::VisibilityAgent;
use hypersweep_core::CleanStrategy;
use hypersweep_scenario::{run_scenario_campaign, GridStrategy, ScenarioId, ScenarioOutcome};
use hypersweep_sim::{AgentProgram, Engine, EngineConfig, Policy, Role};
use hypersweep_telemetry::MetricsRegistry;
use hypersweep_topology::{GridInstance, Hypercube, Node};

use crate::stats::{dur_ns, Fnv};
use crate::trace::Tracer;

/// Schedules per campaign part: a multiple of five, so the five adversary
/// families (`schedule % 5`) get equal shares.
pub const SCHEDULES: u64 = 5;

/// The hypercube parts of the `campaign` workload. Each schedule takes
/// 30–50 ms, short enough to be timed many times per run.
pub const CAMPAIGN_PARTS: [(CheckStrategy, u32); 3] = [
    (CheckStrategy::Clean, 9),
    (CheckStrategy::Visibility, 10),
    (CheckStrategy::Cloning, 12),
];

/// The same strategies at a size that runs in milliseconds, for traced
/// runs of other workloads.
pub const PROBE_CAMPAIGN_PARTS: [(CheckStrategy, u32); 3] = [
    (CheckStrategy::Clean, 6),
    (CheckStrategy::Visibility, 7),
    (CheckStrategy::Cloning, 7),
];

/// Grid side of the scenario parts.
pub const SCENARIO_SIDE: u32 = 16;
/// Schedules per scenario part (a multiple of five).
pub const SCENARIO_SCHEDULES: u64 = 10;
/// Probe size of the scenario parts.
pub const PROBE_SCENARIO: (u32, u64) = (8, 10);

/// What one campaign part did; equal across runs with the same seed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// Part label, e.g. `visibility/d12`.
    pub part: String,
    /// Schedules explored.
    pub schedules: u64,
    /// Decision steps.
    pub steps: u64,
    /// Oracle events.
    pub events: u64,
    /// Failing schedules (violation, deadlock or step limit).
    pub violations: u64,
    /// Hash of every schedule's decision list (`0` where the runner does
    /// not expose decisions).
    pub decisions: u64,
}

impl Fingerprint {
    /// One whitespace-separated line.
    pub fn to_line(&self) -> String {
        format!(
            "{} {} {} {} {} {:016x}",
            self.part, self.schedules, self.steps, self.events, self.violations, self.decisions
        )
    }

    /// Inverse of [`Fingerprint::to_line`].
    pub fn parse(line: &str) -> Option<Fingerprint> {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() != 6 {
            return None;
        }
        Some(Fingerprint {
            part: f[0].to_string(),
            schedules: f[1].parse().ok()?,
            steps: f[2].parse().ok()?,
            events: f[3].parse().ok()?,
            violations: f[4].parse().ok()?,
            decisions: u64::from_str_radix(f[5], 16).ok()?,
        })
    }
}

/// Label of a hypercube part.
pub fn part_label(strategy: CheckStrategy, dim: u32) -> String {
    format!("{}/d{dim}", strategy.name())
}

/// One timed unit of work: a schedule, a scenario campaign, a report.
#[derive(Clone, Debug, PartialEq)]
pub struct Item {
    /// Stable name, equal across rounds.
    pub name: String,
    /// Wall time, nanoseconds.
    pub wall_ns: u64,
    /// Work done: decision steps, or runs for the report.
    pub units: u64,
}

impl Item {
    /// One whitespace-separated line.
    pub fn to_line(&self) -> String {
        format!("{} {} {}", self.name, self.wall_ns, self.units)
    }

    /// Inverse of [`Item::to_line`].
    pub fn parse(line: &str) -> Option<Item> {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f[..] {
            [name, wall, units] => Some(Item {
                name: name.to_string(),
                wall_ns: wall.parse().ok()?,
                units: units.parse().ok()?,
            }),
            _ => None,
        }
    }
}

/// One round of the `campaign` workload: every schedule of every part
/// through `explore_schedule`, the per-schedule entry point `hypersweep
/// check` runs, each timed on its own. Returns the timed schedules and
/// per-part fingerprints (with a hash of every decision list).
pub fn campaign_round(parts: &[(CheckStrategy, u32)], seed: u64) -> (Vec<Item>, Vec<Fingerprint>) {
    let mut items = Vec::new();
    let mut fps = Vec::new();
    for &(strategy, dim) in parts {
        let cfg = CheckConfig::new(strategy, dim);
        let mut arena = CheckArena::new();
        let part = part_label(strategy, dim);
        let mut fp = Fingerprint {
            part: part.clone(),
            schedules: 0,
            steps: 0,
            events: 0,
            violations: 0,
            decisions: 0,
        };
        let mut hash = Fnv::default();
        for schedule in 0..SCHEDULES {
            let t0 = Instant::now();
            let run = explore_schedule_in(&cfg, seed, schedule, &mut arena);
            items.push(Item {
                name: format!("{part}#{schedule}"),
                wall_ns: dur_ns(t0.elapsed()),
                units: run.steps,
            });
            fold_run(&mut fp, &mut hash, &run);
        }
        fp.decisions = hash.finish();
        fps.push(fp);
    }
    (items, fps)
}

/// The same campaigns through [`run_campaign`] at one job, the path
/// `hypersweep check --jobs 1` takes; its counters must equal the
/// schedule-by-schedule fingerprints (decision hashes aside).
pub fn campaign_counters(parts: &[(CheckStrategy, u32)], seed: u64) -> Vec<Fingerprint> {
    let registry = MetricsRegistry::new();
    parts
        .iter()
        .map(|&(strategy, dim)| {
            let outcome = run_campaign(
                &CheckCampaign {
                    cfg: CheckConfig::new(strategy, dim),
                    schedules: SCHEDULES,
                    seed,
                    planted: None,
                },
                1,
                &registry,
            );
            Fingerprint {
                part: part_label(strategy, dim),
                schedules: outcome.schedules_run,
                steps: outcome.steps,
                events: outcome.events,
                violations: outcome.violations,
                decisions: 0,
            }
        })
        .collect()
}

fn fold_run(fp: &mut Fingerprint, hash: &mut Fnv, run: &ScheduleRun) {
    fp.schedules += 1;
    fp.steps += run.steps;
    fp.events += run.events;
    fp.violations += u64::from(run.violation.is_some());
    hash.write_u32(run.decisions.len() as u32);
    for d in &run.decisions {
        hash.write_u32(*d);
    }
}

/// The two scenario parts: a seeded holes grid and a churning dynamic
/// graph, each `schedules` schedules at `side`.
pub fn scenario_parts(
    seed: u64,
    side: u32,
    schedules: u64,
) -> Vec<hypersweep_scenario::ScenarioCampaign> {
    [
        (ScenarioId::Grid, GridInstance::Holes(seed)),
        (ScenarioId::Dynamic, GridInstance::Full),
    ]
    .into_iter()
    .map(|(id, instance)| {
        let scenario = hypersweep_scenario::validate_scenario(id, side, instance)
            .expect("benchmark scenario sizes are valid")
            .expect("grid and dynamic are registered scenarios");
        scenario.campaign(GridStrategy::Sweep, side, instance, schedules, seed, 0)
    })
    .collect()
}

/// One scenario campaign through the `check --scenario --jobs 1` path.
pub fn scenario_run(campaign: &hypersweep_scenario::ScenarioCampaign) -> ScenarioOutcome {
    run_scenario_campaign(campaign, 1, &MetricsRegistry::new())
}

/// Fingerprint of a scenario outcome (the scenario runner does not expose
/// per-schedule decisions, so the hash covers the outcome's counters).
pub fn scenario_fingerprint(o: &ScenarioOutcome) -> Fingerprint {
    let mut hash = Fnv::default();
    for x in [
        o.moves,
        o.rounds,
        o.mutations,
        o.rejected,
        o.team_min,
        o.team_max,
    ] {
        hash.write(&x.to_le_bytes());
    }
    Fingerprint {
        part: format!("{}/{}/s{}", o.scenario, o.instance, o.side),
        schedules: o.schedules_run,
        steps: o.steps,
        events: o.events,
        violations: o.violations,
        decisions: hash.finish(),
    }
}

// ---------------------------------------------------------------------------
// Traced re-drive of `drive_async` / `drive_sync` from public calls.

/// Per-call totals the traced step loop folds into each schedule span.
#[derive(Default)]
struct StepTimes {
    /// `Engine::runnable_agents` calls and time.
    runnable: (u64, u64),
    /// Agents the runnable scans walked (`agent_count` per call).
    scanned: u64,
    /// `Engine::all_terminated` calls and time.
    terminated: (u64, u64),
    /// `Adversary::choose` calls and time.
    choose: (u64, u64),
    /// `Engine::step_agent` / `step_round` calls and time.
    step: (u64, u64),
    /// `StepOracle::observe` calls (events) and time, with `events()`.
    observe: (u64, u64),
}

const MAX_STEPS_PER_NODE_DIM: u64 = 200;

fn max_steps(cfg: &CheckConfig) -> u64 {
    if cfg.max_steps > 0 {
        return cfg.max_steps;
    }
    let n = 1u64 << cfg.dim;
    MAX_STEPS_PER_NODE_DIM * n * u64::from(cfg.dim) + 10_000
}

fn stride(cfg: &CheckConfig) -> u64 {
    cfg.stride.max(1)
}

fn engine_cfg(visibility: bool, policy: Policy) -> EngineConfig {
    EngineConfig {
        policy,
        visibility,
        record_events: true,
        ..EngineConfig::default()
    }
}

/// Re-drive schedule `schedule` of a campaign the way `explore_schedule`
/// does, timing each call into `sim` and `check`. The result must equal
/// `explore_schedule(cfg, seed, schedule)`.
pub fn traced_schedule(
    cfg: &CheckConfig,
    seed: u64,
    schedule: u64,
    tracer: &mut Tracer,
) -> ScheduleRun {
    let cube = Hypercube::new(cfg.dim);
    tracer.enter("check.schedule", "check");
    let t0 = Instant::now();
    let run = match cfg.strategy {
        CheckStrategy::Clean => {
            let mut engine = Engine::new(cube, engine_cfg(false, Policy::Fifo));
            let team = CleanStrategy::new(cube).team_size();
            engine.spawn(CleanAgent::synchronizer(), Node::ROOT, Role::Coordinator);
            for _ in 1..team {
                engine.spawn(CleanAgent::worker(), Node::ROOT, Role::Worker);
            }
            tracer.leaf("sim.spawn", "sim", 1, dur_ns(t0.elapsed()));
            drive_async(engine, cube, cfg, seed, schedule, tracer)
        }
        CheckStrategy::Visibility => {
            let mut engine = Engine::new(cube, engine_cfg(true, Policy::Fifo));
            for _ in 0..1u64 << (cfg.dim - 1) {
                engine.spawn(VisibilityAgent, Node::ROOT, Role::Worker);
            }
            tracer.leaf("sim.spawn", "sim", 1, dur_ns(t0.elapsed()));
            drive_async(engine, cube, cfg, seed, schedule, tracer)
        }
        CheckStrategy::Cloning => {
            let mut engine = Engine::new(cube, engine_cfg(true, Policy::Fifo));
            engine.spawn(CloningAgent::new(), Node::ROOT, Role::Worker);
            tracer.leaf("sim.spawn", "sim", 1, dur_ns(t0.elapsed()));
            drive_async(engine, cube, cfg, seed, schedule, tracer)
        }
        CheckStrategy::MutantEagerGuard => {
            let mut engine = Engine::new(cube, engine_cfg(true, Policy::Fifo));
            for _ in 0..1u64 << (cfg.dim - 1) {
                engine.spawn(EagerVisibilityAgent, Node::ROOT, Role::Worker);
            }
            tracer.leaf("sim.spawn", "sim", 1, dur_ns(t0.elapsed()));
            drive_async(engine, cube, cfg, seed, schedule, tracer)
        }
        CheckStrategy::Synchronous => {
            let mut engine = Engine::new(cube, engine_cfg(false, Policy::Synchronous));
            for _ in 0..1u64 << (cfg.dim - 1) {
                engine.spawn(SynchronousAgent, Node::ROOT, Role::Worker);
            }
            tracer.leaf("sim.spawn", "sim", 1, dur_ns(t0.elapsed()));
            drive_sync(engine, cube, cfg, tracer)
        }
    };
    tracer.exit();
    run
}

fn flush(tracer: &mut Tracer, t: &StepTimes) {
    tracer.leaf("sim.runnable_agents", "sim", t.runnable.0, t.runnable.1);
    tracer.leaf("sim.all_terminated", "sim", t.terminated.0, t.terminated.1);
    tracer.leaf("sim.scanned", "sim", t.scanned, 0);
    tracer.leaf("check.choose", "check", t.choose.0, t.choose.1);
    tracer.leaf("sim.step_agent", "sim", t.step.0, t.step.1);
    tracer.leaf("check.observe", "check", t.observe.0, t.observe.1);
}

fn drive_async<P: AgentProgram>(
    mut engine: Engine<P>,
    cube: Hypercube,
    cfg: &CheckConfig,
    seed: u64,
    schedule: u64,
    tracer: &mut Tracer,
) -> ScheduleRun {
    let t0 = Instant::now();
    let mut adversary = Adversary::for_schedule(seed, schedule);
    let mut oracle = StepOracle::new(&cube, Node::ROOT, stride(cfg));
    tracer.leaf("check.oracle_new", "check", 1, dur_ns(t0.elapsed()));
    let limit = max_steps(cfg);
    let mut decisions: Vec<u32> = Vec::new();
    let mut seen = 0usize;
    let mut step: u64 = 0;
    let mut t = StepTimes::default();
    let mut clock = Instant::now();
    let mut lap = |acc: &mut (u64, u64), calls: u64| {
        let now = Instant::now();
        acc.0 += calls;
        acc.1 += dur_ns(now - clock);
        clock = now;
    };
    let violation = loop {
        let done = engine.all_terminated();
        lap(&mut t.terminated, 1);
        if done {
            break oracle.finish(step).err();
        }
        let runnable = engine.runnable_agents();
        lap(&mut t.runnable, 1);
        t.scanned += engine.agent_count() as u64;
        if runnable.is_empty() {
            break Some(ViolationReport {
                step,
                event: oracle.events_applied(),
                kind: ViolationKind::Deadlock {
                    waiting: engine.live_agents() as u64,
                },
            });
        }
        if step >= limit {
            break Some(ViolationReport {
                step,
                event: oracle.events_applied(),
                kind: ViolationKind::StepLimit,
            });
        }
        let raw = adversary.choose(&runnable, step);
        lap(&mut t.choose, 1);
        let idx = (raw as usize) % runnable.len();
        decisions.push(idx as u32);
        let stepped = engine.step_agent(runnable[idx]);
        lap(&mut t.step, 1);
        if let Err(e) = stepped {
            break Some(ViolationReport {
                step,
                event: oracle.events_applied(),
                kind: ViolationKind::EngineError {
                    message: e.to_string(),
                },
            });
        }
        let (found, observed) = observe(&engine, &mut oracle, &mut seen, step);
        lap(&mut t.observe, observed);
        match found {
            Some(v) => break Some(v),
            None => step += 1,
        }
    };
    let events = oracle.events_applied();
    flush(tracer, &t);
    ScheduleRun {
        decisions,
        steps: step,
        events,
        violation,
    }
}

fn drive_sync<P: AgentProgram>(
    mut engine: Engine<P>,
    cube: Hypercube,
    cfg: &CheckConfig,
    tracer: &mut Tracer,
) -> ScheduleRun {
    let t0 = Instant::now();
    let mut oracle = StepOracle::new(&cube, Node::ROOT, stride(cfg));
    tracer.leaf("check.oracle_new", "check", 1, dur_ns(t0.elapsed()));
    let limit = max_steps(cfg);
    let mut seen = 0usize;
    let mut step: u64 = 0;
    let mut t = StepTimes::default();
    let mut clock = Instant::now();
    let mut lap = |acc: &mut (u64, u64), calls: u64| {
        let now = Instant::now();
        acc.0 += calls;
        acc.1 += dur_ns(now - clock);
        clock = now;
    };
    let violation = loop {
        if step >= limit {
            break Some(ViolationReport {
                step,
                event: oracle.events_applied(),
                kind: ViolationKind::StepLimit,
            });
        }
        let round = engine.step_round();
        lap(&mut t.step, 1);
        let outcome = match round {
            Ok(o) => o,
            Err(e) => {
                break Some(ViolationReport {
                    step,
                    event: oracle.events_applied(),
                    kind: ViolationKind::EngineError {
                        message: e.to_string(),
                    },
                });
            }
        };
        let (found, observed) = observe(&engine, &mut oracle, &mut seen, step);
        lap(&mut t.observe, observed);
        if let Some(v) = found {
            break Some(v);
        }
        if outcome.done {
            break oracle.finish(step).err();
        }
        if !outcome.acted && !outcome.wrote {
            break Some(ViolationReport {
                step,
                event: oracle.events_applied(),
                kind: ViolationKind::Deadlock {
                    waiting: engine.live_agents() as u64,
                },
            });
        }
        step += 1;
    };
    let events = oracle.events_applied();
    flush(tracer, &t);
    ScheduleRun {
        decisions: Vec::new(),
        steps: step,
        events,
        violation,
    }
}

/// Feed the engine's new events to the oracle, as `feed_oracle` does;
/// returns the first violation and how many events were observed.
fn observe<P: AgentProgram>(
    engine: &Engine<P>,
    oracle: &mut StepOracle<'_>,
    seen: &mut usize,
    step: u64,
) -> (Option<ViolationReport>, u64) {
    let before = *seen;
    let events = engine.events();
    while *seen < events.len() {
        let ev = events[*seen];
        *seen += 1;
        if let Err(v) = oracle.observe(&ev, step) {
            return (Some(v), (*seen - before) as u64);
        }
    }
    (None, (*seen - before) as u64)
}
