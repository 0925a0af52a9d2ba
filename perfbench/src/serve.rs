//! The `serve-hot` and `serve-cold` workloads: a fresh `hypersweep serve`
//! daemon driven closed-loop over one loopback connection, plus the
//! in-process twins the traced run times layer by layer.

use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use hypersweep_analysis::{execute_run, RunKey, ShardedRunCache, StrategyKind};
use hypersweep_baselines::{FloodStrategy, FrontierStrategy};
use hypersweep_core::outcome::default_monitor_config;
use hypersweep_core::{
    CleanStrategy, CloningStrategy, DispatchOrder, NavigationMode, SearchOutcome, SearchStrategy,
    SynchronousStrategy, VisibilityStrategy,
};
use hypersweep_intruder::{verify_trace, MonitorConfig, Verdict};
use hypersweep_scenario::ScenarioId;
use hypersweep_server::client::mixed_request;
use hypersweep_server::{Client, Dispatcher, Request, Response, ServerLimits, WIRE_STRATEGIES};
use hypersweep_sim::Event;
use hypersweep_telemetry::MetricsRegistry;
use hypersweep_topology::{GridInstance, Hypercube, Node};

use crate::stats::{dur_ns, vm_hwm_kib, ChildGuard};
use crate::trace::{Tracer, BENCH};

/// Largest dimension in the hot mix (`mixed_request`'s `max_dim`).
pub const HOT_MAX_DIM: u32 = 8;
/// Requests in the untimed warm-up pass (a multiple of four, so the mix's
/// shares are exact).
pub const HOT_WARMUP: usize = 4_000;
/// Requests per timed hot window: one whole period of `mixed_request`, so
/// every window is the same work wherever it starts. At 20–40 µs a
/// request a window takes 10–20 ms, short enough to fall inside the
/// host's quiet stretches.
pub const HOT_WINDOW: usize = 480;
/// Share of the timed windows, the fastest by median latency, that the hot
/// metrics pool: the stretches least disturbed by the rest of the host.
pub const HOT_QUIET_SHARE: f64 = 0.01;
/// Percentile of the hot tail. At one request per 20–40 µs on one CPU,
/// about one request in a hundred shares its round trip with a timer tick
/// or a host interrupt, so p99 measures the host rather than the daemon;
/// p90 still has thousands of samples beyond it in the pooled windows.
pub const HOT_TAIL_PERCENTILE: f64 = 90.0;
/// Hypercube audit dimensions of the cold key set: 4..=16 without 10.
/// `H_10` is the largest cube audited with the greedy evader, and its
/// eight audits alone take half a pass; `H_9` keeps the evader in the set
/// and the pass short enough to repeat about eight times per run.
pub const COLD_DIMS: [u32; 12] = [4, 5, 6, 7, 8, 9, 11, 12, 13, 14, 15, 16];
/// Hypercube audit dimensions of the cold probe.
pub const PROBE_COLD_DIMS: [u32; 4] = [4, 5, 6, 7];
/// Scenario audit sides of the cold key set.
pub const COLD_SIDES: [u32; 3] = [6, 10, 14];

/// A `hypersweep serve` child on an ephemeral loopback port. Dropping it
/// kills and reaps the process, on every exit path including unwinding.
pub struct Daemon {
    child: Child,
    drain: Option<JoinHandle<()>>,
    /// A connected client.
    pub client: Client,
    /// Seconds from spawn to the first `status` reply.
    pub setup_s: f64,
}

impl Daemon {
    /// Spawn `cli serve --jobs 1` and wait until it answers `status`.
    pub fn spawn(cli: &Path) -> io::Result<Daemon> {
        let t0 = Instant::now();
        let child = Command::new(cli)
            .args(["serve", "--addr", "127.0.0.1:0", "--jobs", "1"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let mut guard = ChildGuard(Some(child));
        let stderr = guard.0.as_mut().and_then(|c| c.stderr.take());
        let mut reader = BufReader::new(stderr.ok_or_else(|| io::Error::other("no stderr"))?);
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Err(io::Error::other("daemon exited before listening"));
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                let token = rest.split_whitespace().next().unwrap_or_default();
                break token
                    .parse::<SocketAddr>()
                    .map_err(|e| io::Error::other(format!("bad address '{token}': {e}")))?;
            }
        };
        // Keep draining the daemon's log so it never blocks on a full pipe.
        let drain = std::thread::spawn(move || {
            let mut sink = String::new();
            while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
                sink.clear();
            }
        });
        let client = match Client::connect(addr) {
            Ok(c) => c,
            Err(e) => {
                drop(guard);
                let _ = drain.join();
                return Err(e);
            }
        };
        let mut daemon = Daemon {
            child: guard.0.take().expect("guarded child"),
            drain: Some(drain),
            client,
            setup_s: 0.0,
        };
        match daemon.client.request(&Request::Status)? {
            Response::Status(_) => {}
            other => return Err(io::Error::other(format!("bad status reply: {other:?}"))),
        }
        daemon.setup_s = t0.elapsed().as_secs_f64();
        Ok(daemon)
    }

    /// The daemon's peak resident set (`VmHWM`), in KiB.
    pub fn hwm_kib(&self) -> u64 {
        vm_hwm_kib(self.child.id()).unwrap_or(0)
    }

    /// A counter from the daemon's `metrics` reply.
    pub fn counter(&mut self, name: &str) -> io::Result<u64> {
        match self.client.request(&Request::Metrics)? {
            Response::Metrics(m) => Ok(m.series.counter(name).unwrap_or(0)),
            other => Err(io::Error::other(format!("bad metrics reply: {other:?}"))),
        }
    }

    /// The daemon's run-cache hits and misses, from `status`.
    pub fn cache_hits_misses(&mut self) -> io::Result<(u64, u64)> {
        match self.client.request(&Request::Status)? {
            Response::Status(s) => Ok((s.cache.hits, s.cache.misses)),
            other => Err(io::Error::other(format!("bad status reply: {other:?}"))),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// Wire lines of the hot mix, requests `start..start + n`.
pub fn hot_lines(start: usize, n: usize) -> Vec<String> {
    (start..start + n)
        .map(|seq| mixed_request(seq, HOT_MAX_DIM).to_line())
        .collect()
}

/// Send `lines` closed-loop (each waits for its reply); returns the
/// per-request latencies in microseconds and the reply lines.
pub fn closed_loop(client: &mut Client, lines: &[String]) -> io::Result<(Vec<f64>, Vec<String>)> {
    let mut latencies = Vec::with_capacity(lines.len());
    let mut replies = Vec::with_capacity(lines.len());
    for line in lines {
        let t0 = Instant::now();
        let reply = client.send_raw(line)?;
        latencies.push(t0.elapsed().as_secs_f64() * 1e6);
        replies.push(reply);
    }
    Ok((latencies, replies))
}

/// Check one reply: not an error, and an audit verdict that is monotone,
/// contiguous and all-clean. Returns a description of what is wrong.
pub fn reply_problem(line: &str) -> Option<String> {
    match Response::parse(line) {
        Err(e) => Some(format!("unparseable reply ({e}): {line}")),
        Ok(Response::Error(e)) => Some(format!("error reply: {} {}", e.kind.label(), e.message)),
        Ok(Response::Audit(a)) if !(a.monotone && a.contiguous && a.all_clean) => {
            Some(format!("audit verdict not clean: {line}"))
        }
        Ok(_) => None,
    }
}

/// The cold key set: every wire strategy at every dimension in `dims`,
/// then `grid` and `dynamic` scenario audits at `sides`.
pub fn cold_keys(dims: &[u32], sides: &[u32]) -> Vec<Request> {
    let mut keys: Vec<Request> = WIRE_STRATEGIES
        .iter()
        .flat_map(|&strategy| {
            dims.iter()
                .map(move |&dim| Request::Audit { strategy, dim })
        })
        .collect();
    for &side in sides {
        for (scenario, instance) in [
            (ScenarioId::Grid, GridInstance::Holes(42)),
            (ScenarioId::Dynamic, GridInstance::Full),
        ] {
            keys.push(Request::ScenarioAudit {
                scenario,
                side,
                instance,
            });
        }
    }
    keys
}

/// Deterministic Fisher–Yates shuffle driven by SplitMix64.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// A dispatcher configured like the daemon's (`serve` defaults).
pub fn dispatcher() -> Dispatcher {
    let limits = ServerLimits::default();
    let registry = MetricsRegistry::new();
    let cache = Arc::new(ShardedRunCache::with_capacity_and_telemetry(
        limits.cache_shards,
        limits.cache_capacity,
        &registry,
    ));
    Dispatcher::with_sharded(cache, limits.max_dim, &registry)
}

/// Per-call totals of the in-process replay.
#[derive(Default, Clone, Debug)]
pub struct ReplayTimes {
    /// `Request::parse`: calls, ns.
    pub parse: (u64, u64),
    /// `Dispatcher::answer_line`: calls, ns.
    pub table: (u64, u64),
    /// Table answers served.
    pub table_hits: u64,
    /// `Dispatcher::handle` (and the inline `status_reply`): calls, ns.
    pub dispatch: (u64, u64),
    /// `Response::to_line`: calls, ns.
    pub serialize: (u64, u64),
    /// Per-request in-process totals, in microseconds.
    pub per_request_us: Vec<f64>,
}

/// Answer `lines` the way the daemon's reactor does, in process, timing
/// each layer call. Returns the reply lines.
pub fn replay(dispatcher: &Dispatcher, lines: &[String], times: &mut ReplayTimes) -> Vec<String> {
    let mut replies = Vec::with_capacity(lines.len());
    times.per_request_us.reserve(lines.len());
    let started = Instant::now();
    for line in lines {
        let t0 = Instant::now();
        let request = Request::parse(line);
        let t1 = Instant::now();
        times.parse.0 += 1;
        times.parse.1 += dur_ns(t1 - t0);
        let reply = match request {
            Err(e) => {
                let out = Response::Error(e).to_line();
                times.serialize.0 += 1;
                times.serialize.1 += dur_ns(t1.elapsed());
                out
            }
            Ok(Request::Status) => {
                let status = dispatcher.status_reply(dur_ns(started.elapsed()) / 1_000_000, 0, 1);
                let t2 = Instant::now();
                times.dispatch.0 += 1;
                times.dispatch.1 += dur_ns(t2 - t1);
                let out = Response::Status(status).to_line();
                times.serialize.0 += 1;
                times.serialize.1 += dur_ns(t2.elapsed());
                out
            }
            Ok(request @ (Request::Plan { .. } | Request::Predict { .. })) => {
                let answer = dispatcher.answer_line(&request).map(str::to_string);
                let t2 = Instant::now();
                times.table.0 += 1;
                times.table.1 += dur_ns(t2 - t1);
                match answer {
                    Some(out) => {
                        times.table_hits += 1;
                        out
                    }
                    None => {
                        let response = dispatcher.handle(request);
                        let t3 = Instant::now();
                        times.dispatch.0 += 1;
                        times.dispatch.1 += dur_ns(t3 - t2);
                        let out = response.to_line();
                        times.serialize.0 += 1;
                        times.serialize.1 += dur_ns(t3.elapsed());
                        out
                    }
                }
            }
            Ok(request) => {
                let response = dispatcher.handle(request);
                let t2 = Instant::now();
                times.dispatch.0 += 1;
                times.dispatch.1 += dur_ns(t2 - t1);
                let out = response.to_line();
                times.serialize.0 += 1;
                times.serialize.1 += dur_ns(t2.elapsed());
                out
            }
        };
        times.per_request_us.push(t0.elapsed().as_secs_f64() * 1e6);
        replies.push(reply);
    }
    replies
}

/// Compare the in-process replies with the daemon's: byte-identical for
/// every request except `status`, whose uptime and counters legitimately
/// differ (there both must be `status` replies). Returns the first
/// mismatch.
pub fn compare_replies(daemon: &[String], local: &[String]) -> Option<String> {
    if daemon.len() != local.len() {
        return Some(format!(
            "{} daemon vs {} local replies",
            daemon.len(),
            local.len()
        ));
    }
    const STATUS: &str = "{\"type\":\"status\"";
    daemon
        .iter()
        .zip(local)
        .enumerate()
        .find(|(_, (d, l))| {
            if d.starts_with(STATUS) {
                !l.starts_with(STATUS)
            } else {
                d != l
            }
        })
        .map(|(i, (d, l))| format!("reply {i} differs:\n  daemon: {d}\n  local:  {l}"))
}

/// The strategy behind a wire audit, built as `execute_run` builds it.
fn strategy(kind: StrategyKind, cube: Hypercube) -> Option<Box<dyn SearchStrategy>> {
    Some(match kind {
        StrategyKind::Clean => Box::new(CleanStrategy::new(cube)),
        StrategyKind::CleanThroughRoot => Box::new(CleanStrategy::with_navigation(
            cube,
            NavigationMode::ThroughRoot,
        )),
        StrategyKind::Visibility => Box::new(VisibilityStrategy::new(cube)),
        StrategyKind::Cloning => Box::new(CloningStrategy::new(cube)),
        StrategyKind::CloningSmallestFirst => Box::new(CloningStrategy::with_dispatch_order(
            cube,
            DispatchOrder::SmallestSubtreeFirst,
        )),
        StrategyKind::Synchronous => Box::new(SynchronousStrategy::new(cube)),
        StrategyKind::Flood => Box::new(FloodStrategy::new(cube)),
        StrategyKind::Frontier => return None,
    })
}

/// `fast(false)`: synthesis alone.
fn synthesize_fast(kind: StrategyKind, cube: Hypercube) -> SearchOutcome {
    match strategy(kind, cube) {
        Some(s) => s.fast(false),
        None => FrontierStrategy::new(cube).outcome(false),
    }
}

/// The strategy's canonical trace, recorded.
fn record_trace(kind: StrategyKind, cube: Hypercube) -> Vec<Event> {
    let events = match kind {
        StrategyKind::Clean => CleanStrategy::new(cube).synthesize(true).1,
        StrategyKind::CleanThroughRoot => {
            CleanStrategy::with_navigation(cube, NavigationMode::ThroughRoot)
                .synthesize(true)
                .1
        }
        StrategyKind::Visibility => VisibilityStrategy::new(cube).synthesize(true).1,
        StrategyKind::Cloning => CloningStrategy::new(cube).synthesize(true).1,
        StrategyKind::CloningSmallestFirst => {
            CloningStrategy::with_dispatch_order(cube, DispatchOrder::SmallestSubtreeFirst)
                .synthesize(true)
                .1
        }
        StrategyKind::Synchronous => SynchronousStrategy::new(cube).synthesize(true).1,
        StrategyKind::Flood => FloodStrategy::new(cube).synthesize(true).1,
        StrategyKind::Frontier => FrontierStrategy::new(cube).synthesize(true).1,
    };
    events.expect("recording was requested")
}

/// The verdict fields an audit reply carries.
fn verdict_fields(v: &Verdict) -> (bool, bool, bool, Option<bool>, u64) {
    (
        v.monotone,
        v.contiguous,
        v.all_clean,
        v.capture.map(|c| c.is_captured()),
        v.violations.len() as u64,
    )
}

/// Totals of the traced cold pass.
#[derive(Default, Clone, Debug)]
pub struct ColdTimes {
    /// `fast(false)` ms per wire strategy label, summed over dimensions.
    pub synth_ms: Vec<(&'static str, f64)>,
    /// `verify_trace` without the greedy evader: ms and events.
    pub monitor: (f64, u64),
    /// `verify_trace` with the default config, ms.
    pub default_ms: f64,
}

/// Time one cold audit key in process: `execute_run` (analysis), then
/// `fast(false)` and trace recording (core), then `verify_trace` without
/// and with the greedy evader (intruder). Returns the verdict fields the
/// daemon must have replied with, or a mismatch description.
pub fn traced_cold_key(
    request: &Request,
    daemon_reply: &str,
    tracer: &mut Tracer,
    times: &mut ColdTimes,
) -> Result<(), String> {
    let reply = match Response::parse(daemon_reply) {
        Ok(Response::Audit(a)) => a,
        other => return Err(format!("daemon did not audit {request:?}: {other:?}")),
    };
    let wire = (
        reply.monotone,
        reply.contiguous,
        reply.all_clean,
        reply.captured,
        reply.violations,
    );
    match *request {
        Request::Audit {
            strategy: kind,
            dim,
        } => {
            let cube = Hypercube::new(dim);
            let run = tracer.span("analysis.run.audited", "analysis", |_| {
                execute_run(RunKey::audited(kind, dim))
            });
            let t0 = Instant::now();
            tracer.span("core.fast", "core", |_| synthesize_fast(kind, cube));
            let synth = t0.elapsed().as_secs_f64() * 1e3;
            match times.synth_ms.iter_mut().find(|(k, _)| *k == kind.label()) {
                Some((_, ms)) => *ms += synth,
                None => times.synth_ms.push((kind.label(), synth)),
            }
            let events = tracer.span("core.record_trace", "core", |_| record_trace(kind, cube));
            let default = default_monitor_config(cube);
            let plain = MonitorConfig {
                greedy_evader: false,
                ..default
            };
            let t1 = Instant::now();
            tracer.span("intruder.verify_trace.plain", "intruder", |_| {
                verify_trace(&cube, Node::ROOT, &events, plain)
            });
            let t2 = Instant::now();
            let verdict = tracer.span("intruder.verify_trace.default", "intruder", |_| {
                verify_trace(&cube, Node::ROOT, &events, default)
            });
            times.monitor.0 += (t2 - t1).as_secs_f64() * 1e3;
            times.monitor.1 += events.len() as u64;
            times.default_ms += t2.elapsed().as_secs_f64() * 1e3;
            tracer.span("bench.drop_trace", BENCH, |_| drop(events));
            for (what, fields) in [
                ("verify_trace", verdict_fields(&verdict)),
                ("execute_run", verdict_fields(&run.verdict)),
            ] {
                if fields != wire {
                    return Err(format!(
                        "{request:?}: {what} verdict {fields:?} != daemon's {wire:?}"
                    ));
                }
            }
            Ok(())
        }
        Request::ScenarioAudit {
            scenario,
            side,
            instance,
        } => {
            let resolved = hypersweep_scenario::resolve(scenario)
                .ok_or_else(|| format!("scenario {scenario:?} is not registered"))?;
            let r = tracer.span("scenario.reference", "scenario", |_| {
                resolved.reference(side, instance)
            });
            let fields = (
                r.monotone,
                r.contiguous,
                r.all_clean,
                Some(r.captured),
                r.violations,
            );
            if fields != wire {
                return Err(format!(
                    "{request:?}: reference {fields:?} != daemon's {wire:?}"
                ));
            }
            Ok(())
        }
        _ => Err(format!("not a cold audit key: {request:?}")),
    }
}
