//! Structural checks of a trace read from outside the system.
//!
//! The monitor trusts its input: [`ContaminationField::apply`] decrements
//! the occupancy of a move's source without asking whether an agent stands
//! there, and indexes its per-node state by the event's node ids. Traces
//! produced by the engines and synthesizers satisfy this by construction;
//! a trace loaded from a file need not. [`check_trace`] replays the agents'
//! positions once, before the monitor runs, so the monitor's hot path stays
//! unchanged and an impossible trace is rejected with the first event that
//! makes it impossible.
//!
//! [`ContaminationField::apply`]: crate::ContaminationField::apply

use std::collections::HashMap;
use std::fmt;

use hypersweep_sim::{AgentId, Event, EventKind};
use hypersweep_topology::{Node, Topology};

/// Why a trace cannot describe a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceProblem {
    /// A node id outside the topology.
    NodeOutOfRange(Node),
    /// An agent acts before it was spawned.
    UnknownAgent(AgentId),
    /// An agent is spawned (or cloned into existence) a second time.
    DuplicateSpawn(AgentId),
    /// An agent acts from a node other than the one it stands on.
    WrongSource {
        /// The acting agent.
        agent: AgentId,
        /// Where it stands.
        at: Node,
        /// Where the event claims it stands.
        claimed: Node,
    },
    /// A move or clone crosses a non-edge.
    NotAdjacent {
        /// Source node.
        from: Node,
        /// Destination node.
        to: Node,
    },
    /// An agent acts after it terminated.
    Terminated(AgentId),
}

/// The first impossible event of a trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceError {
    /// 1-based index of the event (the monitor's event numbering).
    pub at_event: u64,
    /// What is wrong with it.
    pub problem: TraceProblem,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "event {}: ", self.at_event)?;
        match self.problem {
            TraceProblem::NodeOutOfRange(x) => write!(f, "node {} is not in the topology", x.0),
            TraceProblem::UnknownAgent(a) => write!(f, "agent {a} acts before it is spawned"),
            TraceProblem::DuplicateSpawn(a) => write!(f, "agent {a} is spawned twice"),
            TraceProblem::WrongSource { agent, at, claimed } => write!(
                f,
                "agent {agent} stands on node {} but the event has it on node {}",
                at.0, claimed.0
            ),
            TraceProblem::NotAdjacent { from, to } => {
                write!(f, "nodes {} and {} are not adjacent", from.0, to.0)
            }
            TraceProblem::Terminated(a) => write!(f, "agent {a} acts after terminating"),
        }
    }
}

impl std::error::Error for TraceError {}

/// An agent's replayed state.
#[derive(Clone, Copy)]
struct Agent {
    at: Node,
    terminated: bool,
}

/// Check that `events` can describe a run on `topo`: every node exists,
/// every agent is spawned once before it acts and acts from the node it
/// stands on, every move and clone crosses an edge, and no agent acts after
/// terminating.
pub fn check_trace<T: Topology + ?Sized>(topo: &T, events: &[Event]) -> Result<(), TraceError> {
    let n = topo.node_count();
    let mut agents: HashMap<AgentId, Agent> = HashMap::new();
    let mut nbrs = Vec::new();
    for (i, event) in events.iter().enumerate() {
        let fail = |problem| TraceError {
            at_event: i as u64 + 1,
            problem,
        };
        // The acting agent with the node the event has it on, and the node
        // the event places an agent on.
        let (actor, to) = match event.kind {
            EventKind::Spawn { node, .. } => (None, Some(node)),
            EventKind::Move {
                agent, from, to, ..
            } => (Some((agent, from)), Some(to)),
            EventKind::CloneSpawn {
                parent, from, to, ..
            } => (Some((parent, from)), Some(to)),
            EventKind::Terminate { agent, node } => (Some((agent, node)), None),
        };
        let from = actor.map(|(_, at)| at);
        if let Some(x) = from.into_iter().chain(to).find(|x| x.index() >= n) {
            return Err(fail(TraceProblem::NodeOutOfRange(x)));
        }
        if let Some((agent, claimed)) = actor {
            let state = agents
                .get(&agent)
                .ok_or_else(|| fail(TraceProblem::UnknownAgent(agent)))?;
            if state.terminated {
                return Err(fail(TraceProblem::Terminated(agent)));
            }
            if state.at != claimed {
                return Err(fail(TraceProblem::WrongSource {
                    agent,
                    at: state.at,
                    claimed,
                }));
            }
        }
        if let (Some(from), Some(to)) = (from, to) {
            topo.neighbors_into(from, &mut nbrs);
            if !nbrs.contains(&to) {
                return Err(fail(TraceProblem::NotAdjacent { from, to }));
            }
        }
        match event.kind {
            EventKind::Spawn { agent, node, .. }
            | EventKind::CloneSpawn {
                child: agent,
                to: node,
                ..
            } => {
                let fresh = Agent {
                    at: node,
                    terminated: false,
                };
                if agents.insert(agent, fresh).is_some() {
                    return Err(fail(TraceProblem::DuplicateSpawn(agent)));
                }
            }
            EventKind::Move { agent, to, .. } => {
                agents.get_mut(&agent).expect("checked above").at = to;
            }
            EventKind::Terminate { agent, .. } => {
                agents.get_mut(&agent).expect("checked above").terminated = true;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersweep_sim::Role;
    use hypersweep_topology::Hypercube;

    fn ev(kind: EventKind) -> Event {
        Event { time: 0, kind }
    }

    fn spawn(agent: u32, node: u32) -> Event {
        ev(EventKind::Spawn {
            agent,
            node: Node(node),
            role: Role::Worker,
        })
    }

    fn mv(agent: u32, from: u32, to: u32) -> Event {
        ev(EventKind::Move {
            agent,
            from: Node(from),
            to: Node(to),
            role: Role::Worker,
        })
    }

    fn problem(events: &[Event]) -> Option<(u64, TraceProblem)> {
        check_trace(&Hypercube::new(3), events)
            .err()
            .map(|e| (e.at_event, e.problem))
    }

    #[test]
    fn a_legal_trace_passes() {
        let trace = [spawn(0, 0), spawn(1, 0), mv(1, 0, 1), mv(1, 1, 3)];
        assert_eq!(problem(&trace), None);
    }

    /// The wrong-source, out-of-range and unknown-agent cases are
    /// exercised on a real CLEAN trace in `tests/failure_injection.rs`.
    #[test]
    fn other_impossibilities_are_named_at_their_event() {
        use TraceProblem::*;
        assert_eq!(
            problem(&[spawn(0, 0), spawn(0, 1)]),
            Some((2, DuplicateSpawn(0)))
        );
        assert_eq!(
            problem(&[spawn(0, 0), mv(0, 0, 3)]),
            Some((
                2,
                NotAdjacent {
                    from: Node(0),
                    to: Node(3)
                }
            ))
        );
        let done = ev(EventKind::Terminate {
            agent: 0,
            node: Node(0),
        });
        assert_eq!(
            problem(&[spawn(0, 0), done, mv(0, 0, 1)]),
            Some((3, Terminated(0)))
        );
    }
}
