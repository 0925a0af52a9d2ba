//! The traced runs must reproduce what they time: the re-driven step
//! loop equals `explore_schedule`, and the in-process dispatcher replay
//! equals the daemon's reply bytes.

use std::thread;

use hypersweep_check::{explore_schedule, CheckConfig, CheckStrategy};
use hypersweep_perfbench::campaign::traced_schedule;
use hypersweep_perfbench::serve::{self, ColdTimes, ReplayTimes};
use hypersweep_perfbench::trace::Tracer;
use hypersweep_server::{Client, Request, Server, ServerLimits};

const ALL_CHECK_STRATEGIES: [CheckStrategy; 5] = [
    CheckStrategy::Clean,
    CheckStrategy::Visibility,
    CheckStrategy::Cloning,
    CheckStrategy::Synchronous,
    CheckStrategy::MutantEagerGuard,
];

#[test]
fn traced_step_loop_equals_explore_schedule_for_every_check_strategy() {
    for strategy in ALL_CHECK_STRATEGIES {
        for dim in [3, 4, 5] {
            let cfg = CheckConfig::new(strategy, dim);
            for schedule in 0..10 {
                let mut tracer = Tracer::new();
                let traced = traced_schedule(&cfg, 2005, schedule, &mut tracer);
                let reference = explore_schedule(&cfg, 2005, schedule);
                assert_eq!(
                    traced,
                    reference,
                    "{} d{dim} schedule {schedule}",
                    strategy.name()
                );
                assert_eq!(tracer.spans().len(), 1, "one span per schedule");
            }
        }
    }
}

#[test]
fn mutant_violation_is_reproduced_exactly() {
    let cfg = CheckConfig::new(CheckStrategy::MutantEagerGuard, 4);
    let mut tracer = Tracer::new();
    let traced = traced_schedule(&cfg, 7, 0, &mut tracer);
    let reference = explore_schedule(&cfg, 7, 0);
    assert!(reference.violation.is_some(), "the mutant must be caught");
    assert_eq!(traced.violation, reference.violation);
    assert_eq!(traced, reference);
}

#[test]
fn step_loop_leaves_account_for_every_call() {
    let cfg = CheckConfig::new(CheckStrategy::Visibility, 5);
    let mut tracer = Tracer::new();
    let run = traced_schedule(&cfg, 1, 2, &mut tracer);
    assert_eq!(tracer.leaf_total("sim.step_agent").0, run.steps);
    assert_eq!(tracer.leaf_total("check.choose").0, run.steps);
    assert_eq!(tracer.leaf_total("check.observe").0, run.events);
    // A schedule that completes scans for runnable agents once per step.
    assert_eq!(tracer.leaf_total("sim.runnable_agents").0, run.steps);
}

/// An in-process daemon on an ephemeral port, configured like `hypersweep
/// serve --jobs 1`, shut down through the protocol when dropped.
struct InProcessDaemon {
    addr: std::net::SocketAddr,
    handle: Option<thread::JoinHandle<()>>,
}

impl InProcessDaemon {
    fn start() -> Self {
        let limits = ServerLimits {
            workers: 1,
            ..ServerLimits::default()
        };
        let server = Server::bind("127.0.0.1:0", limits).expect("bind loopback");
        let addr = server.local_addr().expect("bound address");
        let handle = thread::spawn(move || {
            server.run().expect("daemon runs");
        });
        InProcessDaemon {
            addr,
            handle: Some(handle),
        }
    }
}

impl Drop for InProcessDaemon {
    fn drop(&mut self) {
        if let Ok(mut c) = Client::connect(self.addr) {
            let _ = c.request(&Request::Shutdown);
        }
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[test]
fn dispatcher_replay_equals_the_daemon_byte_for_byte() {
    let daemon = InProcessDaemon::start();
    let mut client = Client::connect(daemon.addr).expect("connect");
    let lines = serve::hot_lines(17, 2 * serve::HOT_WINDOW);
    let (_, daemon_replies) = serve::closed_loop(&mut client, &lines).expect("daemon answers");
    let dispatcher = serve::dispatcher();
    let mut times = ReplayTimes::default();
    let local = serve::replay(&dispatcher, &lines, &mut times);
    assert_eq!(serve::compare_replies(&daemon_replies, &local), None);
    // Everything but `status` is compared byte for byte.
    let compared = daemon_replies
        .iter()
        .filter(|r| !r.starts_with("{\"type\":\"status\""))
        .count();
    assert_eq!(compared, lines.len() * 3 / 4);
    assert_eq!(times.table_hits as usize, lines.len() / 2);
    assert!(daemon_replies
        .iter()
        .all(|r| serve::reply_problem(r).is_none()));
}

#[test]
fn cold_key_verdicts_match_the_daemon() {
    let daemon = InProcessDaemon::start();
    let mut client = Client::connect(daemon.addr).expect("connect");
    let keys = serve::cold_keys(&[4, 5], &[6]);
    let lines: Vec<String> = keys.iter().map(Request::to_line).collect();
    let (_, replies) = serve::closed_loop(&mut client, &lines).expect("daemon answers");
    let mut tracer = Tracer::new();
    let mut times = ColdTimes::default();
    for (key, reply) in keys.iter().zip(&replies) {
        tracer.enter("part", hypersweep_perfbench::trace::BENCH);
        let verdict = serve::traced_cold_key(key, reply, &mut tracer, &mut times);
        tracer.exit();
        assert_eq!(verdict, Ok(()), "{key:?}");
    }
    assert_eq!(
        times.synth_ms.len(),
        hypersweep_server::WIRE_STRATEGIES.len()
    );
    assert!(times.monitor.1 > 0);
}
