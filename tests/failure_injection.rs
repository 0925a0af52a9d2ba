//! Failure injection: deliberately broken strategies must be *caught* by
//! the monitors, not silently reported as successes. These tests establish
//! that the verification layer has teeth — without them, "all runs were
//! monotone" would be unfalsifiable.

use hypersweep::check::{StepOracle, ViolationKind, ViolationReport};
use hypersweep::core::visibility::VisBoard;
use hypersweep::intruder::{check_trace, TraceProblem};
use hypersweep::prelude::*;
use hypersweep::sim::{Action, AgentProgram, Ctx, Engine, EngineConfig, Event, EventKind, Role};
use hypersweep::topology::combinatorics as comb;
use hypersweep_testutil::{move_event, spawn_event};

/// Fold a recorded trace through the checker's per-step oracles
/// (monotonicity after every event, contiguity and frontier coverage at
/// stride 1) and return the first violation, if any.
fn first_oracle_violation(cube: &Hypercube, events: &[Event]) -> Option<ViolationReport> {
    let mut oracle = StepOracle::new(cube, Node::ROOT, 1);
    for (step, event) in events.iter().enumerate() {
        if let Err(v) = oracle.observe(event, step as u64) {
            return Some(v);
        }
    }
    None
}

/// A visibility agent with the guard condition removed: it dispatches as
/// soon as the team is complete, without checking that the smaller
/// neighbours are clean or guarded.
struct RecklessVisibilityAgent;

impl AgentProgram for RecklessVisibilityAgent {
    type Board = VisBoard;

    fn step(&mut self, ctx: &mut Ctx<'_, VisBoard>) -> Action {
        let x = ctx.node();
        let d = ctx.cube().dim();
        let k = d - x.msb_position();
        if k == 0 {
            return Action::Terminate;
        }
        if !ctx.board().dispatch_started {
            let need = comb::visibility_need(k);
            if u128::from(ctx.active_here()) < need {
                return Action::Wait;
            }
            // BUG: no smaller_neighbors_safe() check.
            ctx.board_mut().dispatch_started = true;
        }
        let slot = ctx.board().next_slot;
        ctx.board_mut().next_slot = slot + 1;
        let child_type = hypersweep::core::visibility::slot_child_type(slot);
        Action::Move(d - child_type)
    }
}

#[test]
fn reckless_dispatch_is_flagged_as_recontamination() {
    // Under a depth-first (LIFO) adversary one branch races ahead and
    // vacates nodes whose smaller neighbours are still contaminated.
    let mut caught = false;
    for d in 3..=6 {
        let cube = Hypercube::new(d);
        let mut engine = Engine::new(
            cube,
            EngineConfig {
                policy: Policy::Lifo,
                visibility: true,
                ..EngineConfig::default()
            },
        );
        for _ in 0..cube.node_count() / 2 {
            engine.spawn(RecklessVisibilityAgent, Node::ROOT, Role::Worker);
        }
        let report = engine.run().expect("the buggy strategy still terminates");
        let verdict = verify_trace(&cube, Node::ROOT, &report.events, MonitorConfig::default());
        if !verdict.monotone {
            caught = true;
            assert!(!verdict.is_complete());
            // The checker's per-step oracles must agree with the batch
            // monitor, and pin the violation to a specific event.
            let violation = first_oracle_violation(&cube, &report.events)
                .expect("d={d}: the step oracle missed what the monitor saw");
            assert!(
                matches!(violation.kind, ViolationKind::Recontamination { .. }),
                "d={d}: {violation}"
            );
            assert!(violation.event >= 1 && violation.event <= report.events.len() as u64);
        }
    }
    assert!(
        caught,
        "the monitors never flagged the reckless strategy on any dimension"
    );
}

/// A "CLEAN" that sweeps levels in *decreasing* numeric order — violating
/// the Lemma 1 prerequisite for releasing nodes safely.
#[test]
fn reverse_sweep_order_is_flagged() {
    // Hand-build the offending fragment on H_3: guard level 1 fully, then
    // dispatch from the *largest* level-1 node first and vacate it — its
    // non-tree up-neighbour is still contaminated.
    let cube = Hypercube::new(3);
    let mut events = Vec::new();
    for agent in 0..4u32 {
        events.push(spawn_event(agent));
    }
    // Guard level 1: agents 1,2,3 to nodes 1,2,4.
    events.push(move_event(1, 0, 1));
    events.push(move_event(2, 0, 2));
    events.push(move_event(3, 0, 4));
    // Reverse order: dispatch node 2 (type T(1), child 6) and vacate it,
    // while its non-tree up-neighbour 3 (child of node 1!) is still
    // contaminated → node 2 must be recontaminated.
    events.push(move_event(2, 2, 6));
    let verdict = verify_trace(&cube, Node::ROOT, &events, MonitorConfig::default());
    assert!(!verdict.monotone, "reverse sweep must recontaminate");
    assert!(matches!(
        verdict.violations[0],
        hypersweep::intruder::Violation::Recontamination { node: Node(2), .. }
    ));
    // The step oracle pins the same node on the final event.
    let violation = first_oracle_violation(&cube, &events).expect("oracle fires");
    assert_eq!(violation.event, events.len() as u64);
    assert!(matches!(
        violation.kind,
        ViolationKind::Recontamination { node: 2 }
    ));
}

/// Too few agents: the visibility strategy with n/2 − 1 agents deadlocks
/// (the last dispatch never assembles) — the engine reports it rather than
/// hanging or faking success.
#[test]
fn underprovisioned_team_deadlocks_cleanly() {
    use hypersweep::core::visibility::VisibilityAgent;
    for d in 2..=6 {
        let cube = Hypercube::new(d);
        let mut engine = Engine::new(
            cube,
            EngineConfig {
                policy: Policy::Fifo,
                visibility: true,
                ..EngineConfig::default()
            },
        );
        let team = (cube.node_count() / 2 - 1) as u32;
        for _ in 0..team {
            engine.spawn(VisibilityAgent, Node::ROOT, Role::Worker);
        }
        match engine.run() {
            Err(hypersweep::sim::RunError::Deadlock { waiting }) => {
                assert!(waiting >= 1, "d={d}");
            }
            other => panic!("d={d}: expected deadlock, got {other:?}"),
        }
    }
}

/// An abandoned search (agents terminate mid-way) fails the coverage and
/// capture checks without tripping monotonicity.
#[test]
fn premature_termination_fails_coverage_not_monotonicity() {
    // One agent anchors the homebase forever; the other advances one hop
    // and gives up. Nothing is ever vacated, so monotonicity holds — but
    // 14 of the 16 nodes stay contaminated and the evader roams free.
    struct Quitter {
        anchor: bool,
    }
    impl AgentProgram for Quitter {
        type Board = ();
        fn step(&mut self, ctx: &mut Ctx<'_, ()>) -> Action {
            if !self.anchor && ctx.node() == Node::ROOT {
                self.anchor = true; // terminate on arrival next activation
                return Action::Move(1);
            }
            Action::Terminate
        }
    }
    let cube = Hypercube::new(4);
    let mut engine = Engine::new(cube, EngineConfig::default());
    engine.spawn(Quitter { anchor: true }, Node::ROOT, Role::Worker);
    engine.spawn(Quitter { anchor: false }, Node::ROOT, Role::Worker);
    let report = engine.run().unwrap();
    let verdict = verify_trace(
        &cube,
        Node::ROOT,
        &report.events,
        MonitorConfig::with_intruder(Node(15)),
    );
    assert!(verdict.monotone, "nothing was vacated unsafely");
    assert!(!verdict.all_clean);
    assert!(matches!(verdict.capture, Some(CaptureStatus::Free(_))));
    assert!(!verdict.is_complete());

    // Per-step: no oracle fires mid-trace (the abandonment violates no
    // step invariant), but the terminal capture oracle must.
    let mut oracle = StepOracle::new(&cube, Node::ROOT, 1);
    for (step, event) in report.events.iter().enumerate() {
        oracle
            .observe(event, step as u64)
            .expect("an abandoned search breaks no per-step invariant");
    }
    let terminal = oracle
        .finish(report.events.len() as u64)
        .expect_err("the capture oracle must flag the abandoned search");
    assert!(matches!(
        terminal.kind,
        ViolationKind::CaptureEscaped { contaminated: 14 }
    ));
}

/// The engine rejects moves through non-existent ports instead of
/// corrupting state.
#[test]
fn invalid_ports_are_hard_errors() {
    struct OutOfRange;
    impl AgentProgram for OutOfRange {
        type Board = ();
        fn step(&mut self, _ctx: &mut Ctx<'_, ()>) -> Action {
            Action::Move(7) // H_3 has ports 1..=3
        }
    }
    let mut engine = Engine::new(Hypercube::new(3), EngineConfig::default());
    engine.spawn(OutOfRange, Node::ROOT, Role::Worker);
    assert!(matches!(
        engine.run(),
        Err(hypersweep::sim::RunError::InvalidAction { .. })
    ));
}

/// `CleanStrategy`'s canonical trace of `H_3` with one event rewritten:
/// the first event of the kind `pick` selects is passed to `edit`.
fn edited_h3_trace(pick: fn(&EventKind) -> bool, edit: fn(&mut EventKind)) -> (Vec<Event>, u64) {
    let mut trace = CleanStrategy::new(Hypercube::new(3))
        .synthesize(true)
        .1
        .unwrap();
    let at = trace.iter().position(|e| pick(&e.kind)).unwrap();
    edit(&mut trace[at].kind);
    (trace, at as u64 + 1)
}

/// A trace read from a file is checked before the monitor replays it. The
/// monitor trusts every event: a move from a node no agent stands on would
/// underflow that node's occupancy, leave it counted as guarded for the
/// rest of the run, and the impossible trace would audit as a correct
/// search.
#[test]
fn impossible_traces_are_rejected_at_their_first_bad_event() {
    let cube = Hypercube::new(3);
    let is_move = |k: &EventKind| matches!(k, EventKind::Move { .. });
    let is_spawn = |k: &EventKind| matches!(k, EventKind::Spawn { .. });

    let (trace, _) = edited_h3_trace(is_move, |_| {});
    assert_eq!(check_trace(&cube, &trace), Ok(()));

    let (wrong_from, at) = edited_h3_trace(is_move, |k| {
        if let EventKind::Move { from, .. } = k {
            *from = Node(7);
        }
    });
    let err = check_trace(&cube, &wrong_from).unwrap_err();
    assert_eq!(err.at_event, at);
    assert!(
        matches!(
            err.problem,
            TraceProblem::WrongSource {
                at: Node(0),
                claimed: Node(7),
                ..
            }
        ),
        "{err}"
    );

    let (out_of_range, at) = edited_h3_trace(is_spawn, |k| {
        if let EventKind::Spawn { node, .. } = k {
            *node = Node(8);
        }
    });
    let err = check_trace(&cube, &out_of_range).unwrap_err();
    assert_eq!(
        (err.at_event, err.problem),
        (at, TraceProblem::NodeOutOfRange(Node(8)))
    );

    let (unknown_agent, at) = edited_h3_trace(is_move, |k| {
        if let EventKind::Move { agent, .. } = k {
            *agent = 999;
        }
    });
    let err = check_trace(&cube, &unknown_agent).unwrap_err();
    assert_eq!(
        (err.at_event, err.problem),
        (at, TraceProblem::UnknownAgent(999))
    );
}
