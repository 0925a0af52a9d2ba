//! The greedy evader's two search paths must agree.
//!
//! On the hypercube the evader floods its component and grows guard-distance
//! layers word-parallel; on any other topology it runs two per-node BFS.
//! Hiding the hypercube behind a topology that does not report its
//! dimension forces the per-node path on the same graph, so every trace
//! below is audited twice and the evader's trail, its final capture status
//! and the violations must match. The contamination field takes its own
//! per-node spread on the hidden cube, which records one event's
//! recontaminations in queue order instead of wave order, so violations are
//! compared as per-event sets.

use std::collections::{BTreeMap, BTreeSet};

use hypersweep::core::clean::CleanAgent;
use hypersweep::core::cloning::CloningAgent;
use hypersweep::core::outcome::default_monitor_config;
use hypersweep::core::synchronous::SynchronousAgent;
use hypersweep::core::visibility::VisibilityAgent;
use hypersweep::core::NavigationMode;
use hypersweep::intruder::{check_trace, ContaminationField, Violation};
use hypersweep::prelude::*;
use hypersweep::sim::{AgentProgram, Engine, EngineConfig, Event, EventKind, Role};
use hypersweep::topology::Topology;

/// `H_d` without its dimension: the evader and the field see a generic
/// graph.
struct Opaque(Hypercube);

impl Topology for Opaque {
    fn node_count(&self) -> usize {
        self.0.node_count()
    }

    fn neighbors_into(&self, x: Node, out: &mut Vec<Node>) {
        self.0.neighbors_into(x, out);
    }
}

/// What one audit of a trace saw.
#[derive(Debug, PartialEq)]
struct Audit {
    trail: Vec<Node>,
    capture: Option<CaptureStatus>,
    /// Recontaminated nodes per event.
    recontaminated: BTreeMap<u64, BTreeSet<Node>>,
    /// Events after which contiguity was found broken.
    broken: Vec<u64>,
}

fn audit<T: Topology + ?Sized>(topo: &T, cube: Hypercube, events: &[Event]) -> Audit {
    let mut monitor = Monitor::new(topo, Node::ROOT, default_monitor_config(cube));
    monitor.observe_all(events);
    let trail = monitor
        .intruder()
        .map(|i| i.trail().to_vec())
        .unwrap_or_default();
    let verdict = monitor.verdict();
    let mut recontaminated: BTreeMap<u64, BTreeSet<Node>> = BTreeMap::new();
    let mut broken = Vec::new();
    for v in verdict.violations {
        match v {
            Violation::Recontamination { at_event, node } => {
                recontaminated.entry(at_event).or_default().insert(node);
            }
            Violation::ContiguityBroken { at_event } => broken.push(at_event),
        }
    }
    Audit {
        trail,
        capture: verdict.capture,
        recontaminated,
        broken,
    }
}

/// Audit `events` on both paths, assert they agree, and return the audit.
fn agree(cube: Hypercube, events: &[Event], label: &str) -> Audit {
    let hyper = audit(&cube, cube, events);
    let generic = audit(&Opaque(cube), cube, events);
    assert_eq!(hyper, generic, "{label}: the evader's paths disagree");
    hyper
}

fn engine_trace<P: AgentProgram>(
    cube: Hypercube,
    policy: Policy,
    visibility: bool,
    team: impl IntoIterator<Item = (P, Role)>,
) -> Vec<Event> {
    let mut engine = Engine::new(
        cube,
        EngineConfig {
            policy,
            visibility,
            ..EngineConfig::default()
        },
    );
    for (program, role) in team {
        engine.spawn(program, Node::ROOT, role);
    }
    engine.run().expect("the run completes").events
}

/// Every strategy's engine traces under the asynchronous policies (and the
/// synchronous variant's under lock-step rounds), plus every fast
/// synthesized trace, labelled.
fn traces(d: u32) -> Vec<(String, Vec<Event>)> {
    let cube = Hypercube::new(d);
    let mut out = Vec::new();
    for policy in [
        Policy::Fifo,
        Policy::Lifo,
        Policy::RoundRobin,
        Policy::Random(1),
        Policy::Random(9),
    ] {
        let team = CleanStrategy::new(cube).team_size();
        let clean = std::iter::once((CleanAgent::synchronizer(), Role::Coordinator))
            .chain((1..team).map(|_| (CleanAgent::worker(), Role::Worker)));
        out.push((
            format!("clean/{policy:?}"),
            engine_trace(cube, policy, false, clean),
        ));
        let team = VisibilityStrategy::new(cube).team_size();
        let visibility = (0..team).map(|_| (VisibilityAgent, Role::Worker));
        out.push((
            format!("visibility/{policy:?}"),
            engine_trace(cube, policy, true, visibility),
        ));
        let cloning = [(CloningAgent::new(), Role::Worker)];
        out.push((
            format!("cloning/{policy:?}"),
            engine_trace(cube, policy, true, cloning),
        ));
    }
    let team = SynchronousStrategy::new(cube).team_size();
    let synchronous = (0..team).map(|_| (SynchronousAgent, Role::Worker));
    out.push((
        "synchronous/Synchronous".into(),
        engine_trace(cube, Policy::Synchronous, false, synchronous),
    ));
    for nav in [NavigationMode::ViaMeet, NavigationMode::ThroughRoot] {
        let events = CleanStrategy::with_navigation(cube, nav).synthesize(true).1;
        out.push((format!("clean/fast/{nav:?}"), events.unwrap()));
    }
    let events = VisibilityStrategy::new(cube).synthesize(true).1;
    out.push(("visibility/fast".into(), events.unwrap()));
    let events = CloningStrategy::new(cube).synthesize(true).1;
    out.push(("cloning/fast".into(), events.unwrap()));
    out
}

/// The agent an event is about, if it is about exactly one.
fn agent_of(kind: &EventKind) -> Option<u32> {
    match *kind {
        EventKind::Spawn { agent, .. }
        | EventKind::Move { agent, .. }
        | EventKind::Terminate { agent, .. } => Some(agent),
        EventKind::CloneSpawn { .. } => None,
    }
}

#[test]
fn evader_paths_agree_on_every_strategy_trace() {
    for d in 2..=8 {
        let cube = Hypercube::new(d);
        for (label, events) in traces(d) {
            let label = format!("{label} d={d}");
            check_trace(&cube, &events).unwrap_or_else(|e| panic!("{label}: {e}"));
            let seen = agree(cube, &events, &label);
            assert!(
                seen.recontaminated.is_empty() && seen.broken.is_empty(),
                "{label}: a correct strategy's trace was flagged"
            );
            assert!(
                seen.capture.is_some_and(|c| c.is_captured()),
                "{label}: the intruder escaped"
            );
        }
    }
}

/// Deleting every event of one agent leaves each remaining move consistent
/// (an agent's position depends only on its own events) but opens holes in
/// the guard: the traces recontaminate, and both paths must follow the
/// intruder through them. Cut traces stop at `d = 6`: at `d = 7..8` the
/// per-node path takes tens of seconds in a debug build.
#[test]
fn evader_paths_agree_on_non_monotone_traces() {
    let mut non_monotone = 0;
    let mut escapes = 0;
    for d in 2..=6 {
        let cube = Hypercube::new(d);
        for (label, events) in traces(d) {
            if events
                .iter()
                .any(|e| matches!(e.kind, EventKind::CloneSpawn { .. }))
            {
                // A cloning agent's clones would lose their origin.
                continue;
            }
            let agents: BTreeSet<u32> = events.iter().filter_map(|e| agent_of(&e.kind)).collect();
            let last = *agents.last().unwrap();
            for victim in [1, agents.len() as u32 / 2, last] {
                let cut: Vec<Event> = events
                    .iter()
                    .filter(|e| agent_of(&e.kind) != Some(victim))
                    .copied()
                    .collect();
                let label = format!("{label} d={d} without agent {victim}");
                check_trace(&cube, &cut).unwrap_or_else(|e| panic!("{label}: {e}"));
                let seen = agree(cube, &cut, &label);
                non_monotone += usize::from(!seen.recontaminated.is_empty());
                escapes += usize::from(!seen.capture.is_some_and(|c| c.is_captured()));
            }
        }
    }
    assert!(
        non_monotone > 100,
        "only {non_monotone} traces recontaminated"
    );
    assert!(escapes > 0, "no cut trace let the intruder escape");
}

/// Before the first spawn no node is guarded: every node is infinitely far
/// from a guard, so both paths pick the lowest id of the component.
#[test]
fn evader_paths_agree_with_no_guards() {
    for d in 1..=8 {
        let cube = Hypercube::new(d);
        let far = Node(cube.node_count() as u32 - 1);
        let hyper_field = ContaminationField::new(&cube, Node::ROOT);
        let mut hyper = Intruder::new(far, EvaderPolicy::Greedy);
        hyper.react(&cube, &hyper_field, 0);
        let opaque = Opaque(cube);
        let generic_field = ContaminationField::new(&opaque, Node::ROOT);
        let mut generic = Intruder::new(far, EvaderPolicy::Greedy);
        generic.react(&opaque, &generic_field, 0);
        assert_eq!(hyper.trail(), generic.trail(), "d={d}");
        assert_eq!(hyper.status(), CaptureStatus::Free(Node::ROOT), "d={d}");
        assert_eq!(generic.status(), CaptureStatus::Free(Node::ROOT), "d={d}");
    }
}
