//! `perfbench`: runs one workload and prints one JSON result line.
//!
//! ```text
//! perfbench --workload W --seed N --seconds S --trace 0|1 --cli PATH --state-dir DIR
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics; with `--trace 1`
//! it runs the traced parts and reports the per-layer metrics. The
//! batch workloads run in worker processes it spawns from its own
//! executable (`perfbench worker ...`), so set-up time and peak memory
//! are those of the process doing the work. Exits 1 when a correctness
//! check fails, 2 on bad arguments or an environment error.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use hypersweep_check::{explore_schedule_in, CheckArena, CheckConfig};
use hypersweep_perfbench::campaign::{self, Fingerprint, Item};
use hypersweep_perfbench::report::{self, Pooled};
use hypersweep_perfbench::serve::{self, ColdTimes, Daemon, ReplayTimes};
use hypersweep_perfbench::stats::{
    allowed_cpus, fastest, median, percentile, pin_to_cpu, tail_percentile, vm_hwm_kib, ChildGuard,
};
use hypersweep_perfbench::trace::{Tracer, BENCH};
use hypersweep_server::WIRE_STRATEGIES;

const WORKLOADS: [&str; 4] = ["campaign", "report", "serve-hot", "serve-cold"];
/// Set-up samples per run for the batch workloads (worker spawns).
const BATCH_SETUPS: usize = 25;
/// Set-up samples per run for the serve workloads (daemon spawns).
const SERVE_SETUPS: usize = 15;
/// Fresh daemons per `serve-hot` run, one per CPU in turn.
const HOT_DAEMONS: usize = 2;
/// Seconds between the extra set-up samples `serve-hot` takes between its
/// windows. Spread over the run, they see its quiet and slow stretches
/// alike; taken back to back, they all land in one.
const HOT_SETUP_EVERY_S: f64 = 1.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    cli: PathBuf,
    state_dir: PathBuf,
}

/// What a run measured and checked.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: BTreeMap<String, (f64, &'static str)>,
}

impl Outcome {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.insert(name.to_string(), (value, unit));
    }

    fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    fn print(&self) -> bool {
        let correct = self.problems.is_empty() && self.failed == 0;
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, (value, unit))| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        correct
    }
}

fn usage() -> &'static str {
    "usage: perfbench --workload campaign|report|serve-hot|serve-cold \
     --seed N --seconds S --trace 0|1 --cli PATH --state-dir DIR"
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(flag.as_str(), value.as_str());
    }
    let get = |flag: &str| {
        map.get(flag)
            .copied()
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}'"));
    }
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
        },
        cli: PathBuf::from(get("--cli")?),
        state_dir: PathBuf::from(get("--state-dir")?),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("worker") {
        return match worker(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench worker: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let result = if args.trace {
        traced(&args)
    } else {
        match args.workload.as_str() {
            "campaign" | "report" => batch(&args),
            "serve-hot" => serve_hot(&args),
            _ => serve_cold(&args),
        }
    };
    match result {
        Ok(outcome) => {
            for p in &outcome.problems {
                eprintln!("perfbench: check failed: {p}");
            }
            if outcome.print() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------------------
// Worker processes for the batch workloads.

/// Work a `round` worker does before it stops repeating its round.
const WORKER_BUDGET_S: f64 = 1.0;

/// `perfbench worker <workload> <seed> <round|setup> [probe]`: build the
/// inputs, print `ready`, then (for `round`) repeat the workload's round
/// until [`WORKER_BUDGET_S`] has passed, printing every timed item, the
/// first round's fingerprints, and `mismatch` when a later round's differ.
fn worker(argv: &[String]) -> Result<(), String> {
    let [workload, seed, mode, rest @ ..] = argv else {
        return Err("usage: perfbench worker <workload> <seed> <round|setup> [probe]".into());
    };
    let seed: u64 = seed.parse().map_err(|e| format!("seed: {e}"))?;
    let probe = rest.iter().any(|a| a == "probe");
    let mut out = std::io::stdout().lock();
    let mut emit = |line: String| {
        writeln!(out, "{line}")
            .and_then(|_| out.flush())
            .map_err(|e| format!("stdout: {e}"))
    };
    // Inputs are built before `ready`, so set-up time covers them.
    let round: Box<dyn Fn() -> (Vec<Item>, Vec<String>)> = match workload.as_str() {
        "campaign" => {
            let parts: &'static [_] = if probe {
                &campaign::PROBE_CAMPAIGN_PARTS
            } else {
                &campaign::CAMPAIGN_PARTS
            };
            for (strategy, dim) in parts {
                CheckConfig::new(*strategy, *dim).validate()?;
            }
            let (side, schedules) = if probe {
                campaign::PROBE_SCENARIO
            } else {
                (campaign::SCENARIO_SIDE, campaign::SCENARIO_SCHEDULES)
            };
            let scenarios = campaign::scenario_parts(seed, side, schedules);
            Box::new(move || {
                let (mut items, fps) = campaign::campaign_round(parts, seed);
                let mut fps: Vec<String> = fps.iter().map(Fingerprint::to_line).collect();
                for c in &scenarios {
                    let t0 = Instant::now();
                    let o = campaign::scenario_run(c);
                    let wall_ns = t0.elapsed().as_nanos() as u64;
                    let fp = campaign::scenario_fingerprint(&o);
                    items.push(Item {
                        name: fp.part.clone(),
                        wall_ns,
                        units: o.steps,
                    });
                    fps.push(fp.to_line());
                }
                (items, fps)
            })
        }
        "report" => {
            let cfg = report::config(probe);
            Box::new(move || {
                let pooled = report::pooled(&cfg, report::JOBS);
                let item = Item {
                    name: "report".into(),
                    wall_ns: pooled.wall_ns,
                    units: pooled.unique_runs,
                };
                (vec![item], vec![format!("pooled {}", pooled.to_line())])
            })
        }
        other => return Err(format!("no worker for workload '{other}'")),
    };
    emit("ready".into())?;
    if mode == "round" {
        let started = Instant::now();
        let mut first: Option<Vec<String>> = None;
        // The report is one long job: one per worker.
        let repeat = workload != "report";
        loop {
            let (items, fps) = round();
            for item in items {
                emit(format!("item {}", item.to_line()))?;
            }
            match &first {
                None => {
                    for fp in &fps {
                        emit(if fp.starts_with("pooled ") {
                            fp.clone()
                        } else {
                            format!("fp {fp}")
                        })?;
                    }
                    first = Some(fps);
                }
                Some(f) if *f != fps => emit(format!("mismatch {}", fps.join(" | ")))?,
                Some(_) => {}
            }
            if !repeat || started.elapsed().as_secs_f64() >= WORKER_BUDGET_S {
                break;
            }
        }
    }
    emit(format!(
        "hwm {}",
        vm_hwm_kib(std::process::id()).unwrap_or(0)
    ))
}

/// What a worker process reported.
struct WorkerOut {
    setup_s: f64,
    lines: Vec<String>,
}

impl WorkerOut {
    fn field(&self, tag: &str) -> Option<&str> {
        self.lines
            .iter()
            .find_map(|l| l.strip_prefix(tag).and_then(|r| r.strip_prefix(' ')))
    }

    fn fingerprints(&self) -> Vec<Fingerprint> {
        self.lines
            .iter()
            .filter_map(|l| l.strip_prefix("fp ").and_then(Fingerprint::parse))
            .collect()
    }

    fn hwm_kib(&self) -> u64 {
        self.field("hwm").and_then(|v| v.parse().ok()).unwrap_or(0)
    }

    fn items(&self) -> Vec<Item> {
        self.lines
            .iter()
            .filter_map(|l| l.strip_prefix("item ").and_then(Item::parse))
            .collect()
    }
}

fn spawn_worker(workload: &str, seed: u64, mode: &str, probe: bool) -> Result<WorkerOut, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["worker", workload, &seed.to_string(), mode]);
    if probe {
        cmd.arg("probe");
    }
    let t0 = Instant::now();
    let child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn worker: {e}"))?;
    let mut guard = ChildGuard(Some(child));
    let stdout = guard
        .0
        .as_mut()
        .and_then(|c| c.stdout.take())
        .ok_or("worker has no stdout")?;
    let mut lines = BufReader::new(stdout).lines();
    let first = lines.next().transpose().map_err(|e| e.to_string())?;
    if first.as_deref() != Some("ready") {
        return Err(format!(
            "worker {workload}/{mode} did not get ready: {first:?}"
        ));
    }
    let setup_s = t0.elapsed().as_secs_f64();
    let lines: Vec<String> = lines.map_while(Result::ok).collect();
    let mut child = guard.0.take().expect("guarded worker");
    let status = child.wait().map_err(|e| e.to_string())?;
    if !status.success() {
        return Err(format!("worker {workload}/{mode} failed: {status}"));
    }
    Ok(WorkerOut { setup_s, lines })
}

/// Pin this process's main thread, and what it spawns next, to the `i`-th allowed CPU,
/// round-robin. Single-threaded samples alternate CPUs, so one CPU kept
/// busy by the host does not slow every sample of a run; a serve client
/// and its daemon share a CPU, so a round trip has no cross-CPU wake-up.
fn pin_round_robin(i: usize) {
    static WARN: std::sync::Once = std::sync::Once::new();
    let cpus = allowed_cpus();
    if cpus.is_empty() || !pin_to_cpu(cpus[i % cpus.len()]) {
        WARN.call_once(|| eprintln!("perfbench: cannot pin with taskset; running unpinned"));
    }
}

/// Whether another round fits: stop once the next one would end more than
/// half a round past the budget.
fn another_round(started: Instant, seconds: f64, rounds: &[f64]) -> bool {
    let last = rounds.last().copied().unwrap_or(0.0);
    rounds.is_empty() || started.elapsed().as_secs_f64() + last / 2.0 <= seconds
}

/// Compare this run's fingerprints with those an earlier run of the same
/// workload and seed recorded in the state directory (recording them if
/// this is the first).
fn check_stable(out: &mut Outcome, state_dir: &Path, name: &str, lines: &[String]) {
    let path = state_dir.join("fingerprints").join(format!("{name}.txt"));
    let text = lines.join("\n") + "\n";
    match std::fs::read_to_string(&path) {
        Ok(previous) => {
            let same = previous == text;
            out.check(same, || {
                format!("{name}: outputs differ from an earlier run with the same seed:\n{previous}vs\n{text}")
            });
        }
        Err(_) => {
            let written = std::fs::create_dir_all(path.parent().expect("has parent"))
                .and_then(|_| std::fs::write(&path, &text));
            if let Err(e) = written {
                out.problem(format!(
                    "cannot record fingerprints at {}: {e}",
                    path.display()
                ));
            }
        }
    }
}

/// Repeated samples of named items; an item's time is a statistic of its
/// samples, the fastest or the median (see `README.md`, "Statistics").
#[derive(Default)]
struct Samples(BTreeMap<String, (Vec<f64>, u64)>);

impl Samples {
    /// Record a sample; false when its work differs from earlier samples.
    fn add(&mut self, name: &str, seconds: f64, units: u64) -> bool {
        let entry = self
            .0
            .entry(name.to_string())
            .or_insert((Vec::new(), units));
        entry.0.push(seconds);
        entry.1 == units
    }

    /// Each item's time (`stat` of its samples) in ms, and the throughput:
    /// total work over the sum of item times.
    fn summary(&self, stat: fn(&[f64]) -> f64) -> (Vec<f64>, f64) {
        let best: Vec<(f64, u64)> = self.0.values().map(|(s, u)| (stat(s), *u)).collect();
        let round: f64 = best.iter().map(|(s, _)| s).sum();
        let units: u64 = best.iter().map(|(_, u)| u).sum();
        let ms = best.iter().map(|(s, _)| s * 1e3).collect();
        (ms, units as f64 / round)
    }

    /// Item times in ms summed per job: `clean/d9#3` belongs to the job
    /// `clean/d9`; an item without `#` is a job of its own.
    fn job_ms(&self, stat: fn(&[f64]) -> f64) -> Vec<f64> {
        let mut jobs: BTreeMap<&str, f64> = BTreeMap::new();
        for (name, (s, _)) in &self.0 {
            let job = name.split('#').next().unwrap_or(name);
            *jobs.entry(job).or_default() += stat(s) * 1e3;
        }
        jobs.into_values().collect()
    }
}

fn batch(args: &Args) -> Result<Outcome, String> {
    let w = args.workload.as_str();
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut rounds = Vec::new();
    let mut samples = Samples::default();
    let mut hwm = 0u64;
    let mut first: Option<Vec<String>> = None;
    let started = Instant::now();
    while another_round(started, args.seconds, &rounds) {
        // The report's pool uses both CPUs; the other workers are single
        // threaded.
        if w != "report" {
            pin_round_robin(rounds.len());
        }
        let r = spawn_worker(w, args.seed, "round", false)?;
        setups.push(r.setup_s);
        hwm = hwm.max(r.hwm_kib());
        let items = r.items();
        if items.is_empty() {
            return Err(format!("{w} worker reported no timed items"));
        }
        for m in r.lines.iter().filter(|l| l.starts_with("mismatch ")) {
            out.problem(format!("rounds within one worker differ: {m}"));
        }
        rounds.push(items.iter().map(|i| i.wall_ns as f64 / 1e9).sum());
        // What must repeat exactly across rounds and runs.
        let mut seen = std::collections::BTreeSet::new();
        let mut stable: Vec<String> = items
            .iter()
            .filter(|i| seen.insert(i.name.clone()))
            .map(|i| format!("{} {}", i.name, i.units))
            .collect();
        if w == "report" {
            let p = r
                .field("pooled")
                .and_then(Pooled::parse)
                .ok_or("report worker printed no pooled line")?;
            out.attempted += p.hits + p.misses;
            out.failed += p.failed;
            stable.push(format!(
                "report {:016x} unique {} hits {} misses {}",
                p.hash, p.unique_runs, p.hits, p.misses
            ));
        } else {
            for fp in r.fingerprints() {
                out.attempted += fp.schedules;
                out.failed += fp.violations;
                if fp.violations > 0 {
                    out.problem(format!("{}: {} failing schedules", fp.part, fp.violations));
                }
                stable.push(fp.to_line());
            }
        }
        for i in &items {
            out.check(
                samples.add(&i.name, i.wall_ns as f64 / 1e9, i.units),
                || format!("{}: work differs between rounds", i.name),
            );
        }
        match &first {
            None => first = Some(stable),
            Some(f) => out.check(*f == stable, || {
                format!("round outputs differ within one run:\n{f:?}\nvs\n{stable:?}")
            }),
        }
    }
    let name = if w == "report" {
        "report".to_string()
    } else {
        format!("{w}-{}", args.seed)
    };
    check_stable(&mut out, &args.state_dir, &name, &first.unwrap_or_default());
    while setups.len() < BATCH_SETUPS {
        setups.push(spawn_worker(w, args.seed, "setup", false)?.setup_s);
    }
    // A batch workload's latency is the time of one round of its jobs (a
    // campaign, a report); its tail is the slowest job. A campaign item is
    // one schedule of tens of ms with 25-40 samples, and its fastest sample
    // comes from a quiet stretch of the host. A report takes over a second,
    // longer than most quiet stretches, so its fastest sample is a lone
    // outlier and the median is the steadier statistic.
    let stat = if w == "report" { median } else { fastest };
    let (_, throughput) = samples.summary(stat);
    let jobs = samples.job_ms(stat);
    out.metric("setup_s", median(&setups), "s");
    out.metric("peak_rss_mb", hwm as f64 / 1024.0, "MB");
    out.metric("throughput_per_s", throughput, "1/s");
    out.metric("latency_ms", jobs.iter().sum::<f64>(), "ms");
    out.metric("tail_ms", percentile(&jobs, 100.0), "ms");
    Ok(out)
}

// ---------------------------------------------------------------------------
// Serve workloads.

fn io_err(e: std::io::Error) -> String {
    format!("daemon I/O: {e}")
}

/// Start offset into the `mixed_request` stream for a seed.
fn hot_offset(seed: u64) -> usize {
    (seed % 1_000_000) as usize
}

fn check_replies(out: &mut Outcome, replies: &[String]) {
    for r in replies {
        let problem = serve::reply_problem(r);
        out.attempted += 1;
        if let Some(p) = problem {
            out.failed += 1;
            if out.problems.len() < 10 {
                out.problems.push(p);
            }
        }
    }
}

fn serve_hot(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut hwm = 0;
    let offset = hot_offset(args.seed);
    // Per timed window: its median latency, its wall time, its latencies.
    let mut windows: Vec<(f64, f64, Vec<f64>)> = Vec::new();
    let started = Instant::now();
    for d in 0..HOT_DAEMONS {
        pin_round_robin(d);
        let mut daemon = Daemon::spawn(&args.cli).map_err(io_err)?;
        setups.push(daemon.setup_s);
        let warm = serve::hot_lines(offset, serve::HOT_WARMUP);
        let (_, replies) = serve::closed_loop(&mut daemon.client, &warm).map_err(io_err)?;
        check_replies(&mut out, &replies);
        let mut sent = warm.len();
        let mut last_setup = Instant::now();
        let until = args.seconds * (d + 1) as f64 / HOT_DAEMONS as f64;
        while started.elapsed().as_secs_f64() < until {
            let lines = serve::hot_lines(offset + sent, serve::HOT_WINDOW);
            let t0 = Instant::now();
            let (lat, replies) = serve::closed_loop(&mut daemon.client, &lines).map_err(io_err)?;
            let wall = t0.elapsed().as_secs_f64();
            sent += lines.len();
            windows.push((percentile(&lat, 50.0), wall, lat));
            check_replies(&mut out, &replies);
            if last_setup.elapsed().as_secs_f64() >= HOT_SETUP_EVERY_S {
                setups.push(Daemon::spawn(&args.cli).map_err(io_err)?.setup_s);
                last_setup = Instant::now();
            }
        }
        let table_hits = daemon.counter("answers.table_hits").map_err(io_err)?;
        let ratio = table_hits as f64 / sent as f64;
        out.check(ratio == 0.5, || {
            format!("table hit ratio {ratio} ({table_hits} of {sent}), expected the mix's 0.5")
        });
        hwm = hwm.max(daemon.hwm_kib());
    }
    while setups.len() < SERVE_SETUPS {
        setups.push(Daemon::spawn(&args.cli).map_err(io_err)?.setup_s);
    }
    out.metric("setup_s", median(&setups), "s");
    out.metric("peak_rss_mb", hwm as f64 / 1024.0, "MB");
    // Every window is the same work (a whole period of the mix). The
    // metrics pool the fastest windows by median latency: a shared VM host
    // can slow every round trip by about 1.5x for stretches of seconds,
    // and the windows outside those stretches show the daemon's own speed.
    if windows.is_empty() {
        return Err("serve-hot: no timed window fit in the run".into());
    }
    windows.sort_by(|a, b| a.0.total_cmp(&b.0));
    let quiet = &windows[..quiet_windows(windows.len())];
    let pooled: Vec<f64> = quiet.iter().flat_map(|w| w.2.iter().copied()).collect();
    let wall: f64 = quiet.iter().map(|w| w.1).sum();
    out.metric("throughput_per_s", pooled.len() as f64 / wall, "1/s");
    out.metric("latency_ms", percentile(&pooled, 50.0) / 1e3, "ms");
    out.metric(
        "tail_ms",
        percentile(&pooled, serve::HOT_TAIL_PERCENTILE) / 1e3,
        "ms",
    );
    Ok(out)
}

/// How many of `n` timed hot windows the hot metrics pool: the quiet
/// share, and at least one.
fn quiet_windows(n: usize) -> usize {
    ((n as f64 * serve::HOT_QUIET_SHARE).ceil() as usize).clamp(1, n)
}

/// One cold pass: every key once, in a seeded order, each answered by a
/// fresh daemon. A daemon serving many keys makes each key's cost depend
/// on what ran before it (allocator growth, caches), and so on the seed's
/// order; one daemon per key gives every key the same cold start.
struct ColdPass {
    setups: Vec<f64>,
    wall_s: f64,
    latencies: Vec<f64>,
    keys: Vec<hypersweep_server::Request>,
    replies: Vec<String>,
    hwm_kib: u64,
}

fn cold_pass(
    out: &mut Outcome,
    cli: &Path,
    mut keys: Vec<hypersweep_server::Request>,
    seed: u64,
) -> Result<ColdPass, String> {
    serve::shuffle(&mut keys, seed);
    let started = Instant::now();
    let mut pass = ColdPass {
        setups: Vec::new(),
        wall_s: 0.0,
        latencies: Vec::new(),
        keys: Vec::new(),
        replies: Vec::new(),
        hwm_kib: 0,
    };
    for key in keys {
        let mut daemon = Daemon::spawn(cli).map_err(io_err)?;
        let (latency, reply) =
            serve::closed_loop(&mut daemon.client, &[key.to_line()]).map_err(io_err)?;
        check_replies(out, &reply);
        let (hits, misses) = daemon.cache_hits_misses().map_err(io_err)?;
        let expect = u64::from(matches!(key, hypersweep_server::Request::Audit { .. }));
        out.check(hits == 0 && misses == expect, || {
            format!("{key:?} was not cold: {hits} cache hits, {misses} misses")
        });
        pass.setups.push(daemon.setup_s);
        pass.hwm_kib = pass.hwm_kib.max(daemon.hwm_kib());
        pass.latencies.extend(latency);
        pass.replies.extend(reply);
        pass.keys.push(key);
    }
    pass.wall_s = started.elapsed().as_secs_f64();
    Ok(pass)
}

fn serve_cold(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let keys = serve::cold_keys(&serve::COLD_DIMS, &serve::COLD_SIDES);
    let mut setups = Vec::new();
    let mut passes = Vec::new();
    let mut samples = Samples::default();
    let mut hwm = 0;
    let started = Instant::now();
    while another_round(started, args.seconds, &passes) {
        pin_round_robin(passes.len());
        let seed = args.seed.wrapping_add(passes.len() as u64);
        let p = cold_pass(&mut out, &args.cli, keys.clone(), seed)?;
        setups.extend(&p.setups);
        passes.push(p.wall_s);
        for (key, us) in p.keys.iter().zip(&p.latencies) {
            samples.add(&key.to_line(), us / 1e6, 1);
        }
        hwm = hwm.max(p.hwm_kib);
    }
    while setups.len() < SERVE_SETUPS {
        setups.push(Daemon::spawn(&args.cli).map_err(io_err)?.setup_s);
    }
    // One sample per key per pass, each in a fresh process: the fastest of
    // about ten is a lone outlier, the median is steadier.
    let (ms, throughput) = samples.summary(median);
    out.metric("setup_s", median(&setups), "s");
    out.metric("peak_rss_mb", hwm as f64 / 1024.0, "MB");
    out.metric("throughput_per_s", throughput, "1/s");
    out.metric("latency_ms", median(&ms), "ms");
    out.metric("tail_ms", percentile(&ms, tail_percentile(ms.len())), "ms");
    Ok(out)
}

// ---------------------------------------------------------------------------
// The traced run.

/// Every workload's traced run drives all five traced parts, so every
/// per-layer metric is measured on every workload: its own parts at full
/// size (`campaign` owns the campaign and scenario parts) and the others
/// at probe size.
fn traced(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new();
    let probe = |workload: &str| workload != args.workload;
    traced_campaign(&mut out, &mut tracer, args.seed, probe("campaign"));
    traced_scenario(&mut out, &mut tracer, args.seed, probe("campaign"));
    traced_report(&mut out, &mut tracer, probe("report"))?;
    // The serve parts share one CPU between client and daemon (the
    // report's pool above needed both).
    pin_round_robin(0);
    traced_hot(&mut out, &mut tracer, args, probe("serve-hot"))?;
    traced_cold(&mut out, &mut tracer, args, probe("serve-cold"))?;

    // `execute_run` per unique key, grouped by how it executes: the report
    // runs fast and engine keys, the cold audits the audited ones.
    for (metric, span) in [
        ("analysis.run_ms.fast", "analysis.run.fast"),
        ("analysis.run_ms.audited", "analysis.run.audited"),
        ("analysis.run_ms.engine", "analysis.run.engine"),
        ("analysis.experiments_ms", "analysis.experiment"),
    ] {
        out.metric(metric, report::span_ms(&tracer, span), "ms");
    }

    // Layer self times over the traced sections (top-level spans).
    let wall_ns: u64 = tracer
        .spans()
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    let layers = tracer.layer_self_ns();
    for layer in [
        "sim", "check", "scenario", "core", "intruder", "topology", "analysis", "server", BENCH,
    ] {
        let ns = layers.get(layer).copied().unwrap_or(0);
        out.metric(&format!("{layer}.self_ms"), ns as f64 / 1e6, "ms");
    }
    let bench_ns = layers.get(BENCH).copied().unwrap_or(0);
    out.metric("trace.wall_ms", wall_ns as f64 / 1e6, "ms");
    out.metric(
        "trace.coverage_ratio",
        1.0 - bench_ns as f64 / wall_ns.max(1) as f64,
        "ratio",
    );
    let path = args
        .state_dir
        .join("traces")
        .join(format!("{}-{}.jsonl", args.workload, args.seed));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(out)
}

fn per_call_ns(total: (u64, u64)) -> f64 {
    total.1 as f64 / total.0.max(1) as f64
}

fn traced_campaign(out: &mut Outcome, tracer: &mut Tracer, seed: u64, probe: bool) {
    let parts: &[_] = if probe {
        &campaign::PROBE_CAMPAIGN_PARTS
    } else {
        &campaign::CAMPAIGN_PARTS
    };
    let (mut untraced_ns, mut traced_ns, mut steps, mut events) = (0u64, 0u64, 0u64, 0u64);
    let mut per_part: BTreeMap<String, (u64, u64, u64, u64)> = BTreeMap::new();
    for &(strategy, dim) in parts {
        let cfg = CheckConfig::new(strategy, dim);
        let mut arena = CheckArena::new();
        for schedule in 0..campaign::SCHEDULES {
            let t0 = Instant::now();
            let reference = explore_schedule_in(&cfg, seed, schedule, &mut arena);
            untraced_ns += t0.elapsed().as_nanos() as u64;
            let tally = per_part
                .entry(campaign::part_label(strategy, dim))
                .or_default();
            tally.0 += 1;
            tally.1 += reference.steps;
            tally.2 += reference.events;
            tally.3 += u64::from(reference.violation.is_some());
            let t1 = Instant::now();
            let run = tracer.span("part.campaign", BENCH, |t| {
                campaign::traced_schedule(&cfg, seed, schedule, t)
            });
            traced_ns += t1.elapsed().as_nanos() as u64;
            steps += run.steps;
            events += run.events;
            out.check(run == reference && run.violation.is_none(), || {
                format!(
                    "{} schedule {schedule}: traced run differs from explore_schedule or fails",
                    campaign::part_label(strategy, dim)
                )
            });
        }
    }
    // The streaming campaign runner must count what the schedules did.
    for fp in campaign::campaign_counters(parts, seed) {
        let expect = per_part.get(&fp.part).copied().unwrap_or_default();
        let got = (fp.schedules, fp.steps, fp.events, fp.violations);
        out.check(got == expect, || {
            format!(
                "run_campaign {} counted {got:?}, the schedules did {expect:?}",
                fp.part
            )
        });
    }
    let runnable = tracer.leaf_total("sim.runnable_agents");
    out.metric("sim.runnable_ns", per_call_ns(runnable), "ns");
    out.metric(
        "sim.agents_scanned_per_pick",
        tracer.leaf_total("sim.scanned").0 as f64 / runnable.0.max(1) as f64,
        "count",
    );
    out.metric(
        "sim.step_ns",
        per_call_ns(tracer.leaf_total("sim.step_agent")),
        "ns",
    );
    out.metric(
        "check.adversary_ns",
        per_call_ns(tracer.leaf_total("check.choose")),
        "ns",
    );
    out.metric(
        "check.oracle_ns",
        per_call_ns(tracer.leaf_total("check.observe")),
        "ns",
    );
    out.metric(
        "check.events_per_step",
        events as f64 / steps.max(1) as f64,
        "count",
    );
    out.metric(
        "trace.overhead_ratio",
        traced_ns as f64 / untraced_ns.max(1) as f64 - 1.0,
        "ratio",
    );
}

fn traced_scenario(out: &mut Outcome, tracer: &mut Tracer, seed: u64, probe: bool) {
    let (side, schedules) = if probe {
        campaign::PROBE_SCENARIO
    } else {
        (campaign::SCENARIO_SIDE, campaign::SCENARIO_SCHEDULES)
    };
    let (mut proposed, mut accepted) = (0u64, 0u64);
    for c in campaign::scenario_parts(seed, side, schedules) {
        let label = c.scenario.label();
        let name = format!("scenario.campaign.{label}");
        let (instance, side) = (c.instance, c.side);
        let o = tracer.span("part.scenario", BENCH, |t| {
            t.span("topology.grid_build", "topology", |_| instance.build(side));
            t.span(name, "scenario", |_| campaign::scenario_run(&c))
        });
        out.check(o.violations == 0 && o.schedules_run == schedules, || {
            format!("{label} campaign: {} violations", o.violations)
        });
        // `mutations` counts the accepted proposals, `rejected` the rest.
        proposed += o.mutations + o.rejected;
        accepted += o.mutations;
    }
    for label in ["grid", "dynamic"] {
        let (n, ns) = tracer.span_total(&format!("scenario.campaign.{label}"));
        out.metric(
            &format!("scenario.{label}_ms"),
            ns as f64 / 1e6 / n.max(1) as f64,
            "ms",
        );
    }
    out.metric(
        "scenario.churn_accept_ratio",
        accepted as f64 / proposed.max(1) as f64,
        "ratio",
    );
    let (n, ns) = tracer.span_total("topology.grid_build");
    out.metric(
        "topology.grid_build_us",
        ns as f64 / 1e3 / n.max(1) as f64,
        "us",
    );
}

fn traced_report(out: &mut Outcome, tracer: &mut Tracer, probe: bool) -> Result<(), String> {
    // The untraced pooled report, in its own process, is the reference.
    let w = spawn_worker("report", 0, "round", probe)?;
    let pooled = w
        .field("pooled")
        .and_then(Pooled::parse)
        .ok_or("report worker printed no pooled line")?;
    let cfg = report::config(probe);
    let hash = tracer.span("part.report", BENCH, |t| report::traced(&cfg, t));
    out.check(hash == pooled.hash && pooled.failed == 0, || {
        format!(
            "traced report renders {hash:016x}, pooled report {:016x}",
            pooled.hash
        )
    });
    out.metric(
        "analysis.straggler_ms",
        pooled.straggler_ns as f64 / 1e6,
        "ms",
    );
    out.metric(
        "analysis.dedup_ratio",
        pooled.hits as f64 / (pooled.hits + pooled.misses).max(1) as f64,
        "ratio",
    );
    out.metric(
        "analysis.pool_busy_ratio",
        pooled.run_ns as f64 / (report::JOBS as f64 * pooled.warm_ns.max(1) as f64),
        "ratio",
    );
    Ok(())
}

fn traced_hot(
    out: &mut Outcome,
    tracer: &mut Tracer,
    args: &Args,
    probe: bool,
) -> Result<(), String> {
    let (warm_n, pass_n) = if probe {
        (400, 2_000)
    } else {
        (serve::HOT_WARMUP, serve::HOT_WINDOW * 32)
    };
    let offset = hot_offset(args.seed);
    let warm = serve::hot_lines(offset, warm_n);
    let timed = serve::hot_lines(offset + warm_n, pass_n);
    let (daemon_lat, daemon_replies) = {
        let mut daemon = Daemon::spawn(&args.cli).map_err(io_err)?;
        serve::closed_loop(&mut daemon.client, &warm).map_err(io_err)?;
        serve::closed_loop(&mut daemon.client, &timed).map_err(io_err)?
    };
    check_replies(out, &daemon_replies);
    let dispatcher = serve::dispatcher();
    serve::replay(&dispatcher, &warm, &mut ReplayTimes::default());
    let (hits0, misses0) = (dispatcher.cache().hits(), dispatcher.cache().misses());
    let mut times = ReplayTimes::default();
    let local = tracer.span("part.serve-hot", BENCH, |t| {
        let replies = serve::replay(&dispatcher, &timed, &mut times);
        t.leaf("server.parse", "server", times.parse.0, times.parse.1);
        t.leaf("server.answer_line", "server", times.table.0, times.table.1);
        t.leaf(
            "server.handle",
            "server",
            times.dispatch.0,
            times.dispatch.1,
        );
        t.leaf(
            "server.to_line",
            "server",
            times.serialize.0,
            times.serialize.1,
        );
        replies
    });
    let mismatch = serve::compare_replies(&daemon_replies, &local);
    out.check(mismatch.is_none(), || mismatch.unwrap_or_default());
    let hits = dispatcher.cache().hits() - hits0;
    let misses = dispatcher.cache().misses() - misses0;
    out.metric("server.parse_ns", per_call_ns(times.parse), "ns");
    out.metric("server.table_ns", per_call_ns(times.table), "ns");
    out.metric(
        "server.table_hit_ratio",
        times.table_hits as f64 / timed.len() as f64,
        "ratio",
    );
    out.metric("server.dispatch_ns", per_call_ns(times.dispatch), "ns");
    out.metric(
        "server.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    out.metric("server.serialize_ns", per_call_ns(times.serialize), "ns");
    out.metric(
        "server.residual_us",
        percentile(&daemon_lat, 50.0) - percentile(&times.per_request_us, 50.0),
        "us",
    );
    Ok(())
}

fn traced_cold(
    out: &mut Outcome,
    tracer: &mut Tracer,
    args: &Args,
    probe: bool,
) -> Result<(), String> {
    let keys = if probe {
        serve::cold_keys(&serve::PROBE_COLD_DIMS, &serve::COLD_SIDES[..1])
    } else {
        serve::cold_keys(&serve::COLD_DIMS, &serve::COLD_SIDES)
    };
    let pass = cold_pass(out, &args.cli, keys, args.seed)?;
    let mut times = ColdTimes::default();
    for (key, reply) in pass.keys.iter().zip(&pass.replies) {
        let verdict = tracer.span("part.serve-cold", BENCH, |t| {
            serve::traced_cold_key(key, reply, t, &mut times)
        });
        out.check(verdict.is_ok(), || verdict.err().unwrap_or_default());
    }
    for kind in WIRE_STRATEGIES {
        let ms = times
            .synth_ms
            .iter()
            .find(|(k, _)| *k == kind.label())
            .map_or(0.0, |(_, ms)| *ms);
        out.metric(&format!("core.synth_ms.{}", kind.label()), ms, "ms");
    }
    out.metric("intruder.monitor_ms", times.monitor.0, "ms");
    out.metric(
        "intruder.events_per_s",
        times.monitor.1 as f64 / (times.monitor.0 / 1e3),
        "1/s",
    );
    out.metric(
        "intruder.evader_ms",
        times.default_ms - times.monitor.0,
        "ms",
    );
    Ok(())
}
