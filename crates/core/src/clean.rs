//! Algorithm 1 — `CLEAN` (§3.2): the synchronizer-coordinated strategy.
//!
//! One agent (the *synchronizer*) coordinates the whole process through
//! whiteboards:
//!
//! 1. **Phase 0** — it guides one distinct agent from the root to each of
//!    the root's `d` children, returning to the root each time.
//! 2. **Phase `l ≥ 1`** — before cleaning from level `l` to `l + 1` it
//!    returns to the root and posts reinforcement *claims*: `k − 1` extra
//!    agents for every level-`l` node of type `T(k)`, `k ≥ 2` (Lemma 3).
//!    Available agents at the root claim an index each and compute their own
//!    destination from `(l, index)` — the whiteboard stores only the pair of
//!    counters, keeping it at `O(log n)` bits. The synchronizer then sweeps
//!    the level-`l` nodes in increasing numeric (= lexicographic, msb-first)
//!    order:
//!    * at a **leaf** (type `T(0)`) it orders the guard back to the root —
//!      safe because, by Lemma 1, every up-neighbour of the leaf is a
//!      broadcast-tree child of an earlier level-`l` node, hence already
//!      guarded;
//!    * at a node of type `T(k)` it waits for the full team of `k` agents,
//!      then escorts one agent down each broadcast-tree edge (down with the
//!      agent, back alone — every tree edge is travelled twice by the
//!      synchronizer, Theorem 3 component 4).
//!
//!    Between consecutive level-`l` nodes it navigates *via the meet*
//!    (`x ∧ y`): first clearing surplus bits, then setting missing ones, so
//!    every intermediate node lies strictly below level `l` in already-clean
//!    territory, and the hop count is at most `2·min(l, d−l)` (Theorem 3
//!    component 3).
//! 3. After sweeping level `d` it returns to the root, posts `done`, and
//!    terminates; pooled agents terminate at the root.

use hypersweep_sim::{
    Action, AgentProgram, Board, Ctx, Engine, EngineConfig, Event, EventKind, EventSink, Metrics,
    NullSink, Policy, Role,
};
use hypersweep_topology::combinatorics as comb;
use hypersweep_topology::{Hypercube, Node};

use crate::outcome::{
    audited_outcome, streamed_outcome, synthesized_outcome, SearchOutcome, SearchStrategy,
    StrategyError,
};

/// Whiteboard of Algorithm CLEAN.
///
/// The root's board carries the claim counters and the termination flag;
/// every node's board carries the synchronizer's single-slot order. All
/// fields together are `O(log n)` bits.
#[derive(Clone, Default)]
pub struct CleanBoard {
    /// Level whose reinforcements are currently posted (root only).
    pub phase: u32,
    /// Next reinforcement claim index (root only).
    pub next_claim: u32,
    /// Total reinforcement claims of the current phase (root only).
    pub total_claims: u32,
    /// Set when the search is over; pooled agents terminate (root only).
    pub done: bool,
    /// §3.2's election: the first agent to access the root whiteboard sets
    /// this and becomes the synchronizer (root only; used by
    /// [`CleanAgent::candidate`]).
    pub sync_elected: bool,
    /// "One agent: move through this port" (written by the synchronizer,
    /// consumed atomically by one agent).
    pub order_port: Option<u32>,
    /// "Guard: return to the root" (leaf release).
    pub order_return: bool,
}

impl Board for CleanBoard {
    fn bits_used(&self) -> u32 {
        let counter_bits = |v: u32| 32 - v.leading_zeros();
        counter_bits(self.phase)
            + counter_bits(self.next_claim)
            + counter_bits(self.total_claims)
            + 1 // done
            + 1 // sync_elected
            + 1 // order_return
            + 6 // order_port: Some(1..=d), d ≤ 28 fits in 6 bits with a presence flag
    }
}

/// Successor of `x` among words with the same popcount (Gosper's hack).
/// Returns `None` when the successor would leave the `d`-bit range.
pub fn next_same_level(x: Node, d: u32) -> Option<Node> {
    let v = x.0;
    if v == 0 {
        return None;
    }
    let u = v & v.wrapping_neg();
    let w = v.wrapping_add(u);
    if w == 0 {
        return None;
    }
    let y = w | (((v ^ w) / u) >> 2);
    if u64::from(y) < (1u64 << d) {
        Some(Node(y))
    } else {
        None
    }
}

/// Total reinforcement claims of phase `l` (Lemma 3), as `u32`.
pub fn phase_claims(d: u32, l: u32) -> u32 {
    u32::try_from(comb::lemma3_extra_agents(d, l)).expect("claims fit in u32 for d ≤ 28")
}

/// The destination of reinforcement claim `idx` of phase `l`: level-`l`
/// nodes of type `T(k)`, `k ≥ 2`, each spanning `k − 1` consecutive
/// indices, in increasing numeric order. Agents recompute this locally from
/// the two whiteboard counters — `O(log n)` working memory, `O(n)` time.
pub fn claim_destination(d: u32, l: u32, mut idx: u32) -> Node {
    let mut x = Node((1u32 << l) - 1);
    loop {
        let k = d - x.msb_position();
        if k >= 2 {
            if idx < k - 1 {
                return x;
            }
            idx -= k - 1;
        }
        x = next_same_level(x, d).expect("claim index within Lemma 3 total");
    }
}

/// Worker states. `O(log n)` bits: a tag plus at most one node id.
#[derive(Clone, Debug, PartialEq, Eq)]
enum WorkerState {
    /// At the root, waiting for an escort order, a claim, or `done`.
    Idle,
    /// Ascending the broadcast-tree path to a claimed destination.
    Walking { dest: Node },
    /// Guarding a node, awaiting the synchronizer's orders.
    Guarding,
    /// Descending (clearing the msb each hop) back to the root.
    Returning,
}

/// Escort progress of the synchronizer at a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum EscortStage {
    /// Order posted; waiting for an agent to consume it (= slide down).
    Posted,
    /// We followed the agent to the child; next we return.
    AtChild,
}

/// Synchronizer states.
#[derive(Clone, Debug, PartialEq, Eq)]
enum SyncState {
    /// Phase 0: escorting one agent to each root child.
    Phase0 {
        next_port: u32,
        escort: Option<(u32, EscortStage)>,
    },
    /// Walking back to the root, then posting phase `next_phase`.
    GoRoot { next_phase: u32 },
    /// At the root: post the claims of phase `l`.
    PostPhase { l: u32 },
    /// Ascending to the first node of level `l`.
    GoFirst { l: u32 },
    /// At a level-`l` node: release a leaf guard or dispatch downwards.
    SweepNode {
        l: u32,
        next_port: u32,
        escort: Option<(u32, EscortStage)>,
        team_checked: bool,
    },
    /// Navigating via the meet to the next level-`l` node.
    Navigate { l: u32, target: Node },
    /// Everything is clean: walk home, post `done`, terminate.
    GoHome,
}

/// The CLEAN agent program: one enum so the synchronizer and the workers
/// share the whiteboard type (they are "identical agents" whose behaviour
/// diverges after the §3.2 election, which we resolve at spawn time).
pub enum CleanAgent {
    /// The coordinator.
    Synchronizer(SyncStateHolder),
    /// A team member.
    Worker(WorkerStateHolder),
    /// An as-yet-undifferentiated agent: §3.2's identical agents before the
    /// whiteboard election ("the first that gains access will become the
    /// synchronizer").
    Candidate,
}

/// Public holder so the enum can be constructed by the strategy only.
pub struct SyncStateHolder {
    state: SyncState,
}

/// Public holder so the enum can be constructed by the strategy only.
pub struct WorkerStateHolder {
    state: WorkerState,
}

impl CleanAgent {
    /// A fresh synchronizer.
    pub fn synchronizer() -> Self {
        CleanAgent::Synchronizer(SyncStateHolder {
            state: SyncState::Phase0 {
                next_port: 1,
                escort: None,
            },
        })
    }

    /// A fresh pooled worker.
    pub fn worker() -> Self {
        CleanAgent::Worker(WorkerStateHolder {
            state: WorkerState::Idle,
        })
    }

    /// A fresh undifferentiated agent that elects its role through the
    /// whiteboard on first activation.
    pub fn candidate() -> Self {
        CleanAgent::Candidate
    }
}

impl AgentProgram for CleanAgent {
    type Board = CleanBoard;

    fn step(&mut self, ctx: &mut Ctx<'_, CleanBoard>) -> Action {
        if let CleanAgent::Candidate = self {
            // The election (§3.2): activation order = whiteboard access
            // order; the first candidate claims the coordinator role.
            debug_assert_eq!(ctx.node(), Node::ROOT, "election happens at the homebase");
            if !ctx.board().sync_elected {
                ctx.board_mut().sync_elected = true;
                *self = CleanAgent::synchronizer();
            } else {
                *self = CleanAgent::worker();
            }
        }
        match self {
            CleanAgent::Worker(w) => worker_step(&mut w.state, ctx),
            CleanAgent::Synchronizer(s) => sync_step(&mut s.state, ctx),
            CleanAgent::Candidate => unreachable!("candidates differentiate above"),
        }
    }

    fn local_bits(&self) -> u32 {
        // A state tag plus at most one node id / port / level.
        8 + 32
    }
}

fn lowest_missing_bit_towards(pos: Node, dest: Node, d: u32) -> u32 {
    (1..=d)
        .find(|&p| dest.bit(p) && !pos.bit(p))
        .expect("pos is a strict subset of dest on the tree path")
}

fn worker_step(state: &mut WorkerState, ctx: &mut Ctx<'_, CleanBoard>) -> Action {
    let d = ctx.cube().dim();
    loop {
        match state.clone() {
            WorkerState::Idle => {
                debug_assert_eq!(ctx.node(), Node::ROOT);
                if let Some(p) = ctx.board().order_port {
                    ctx.board_mut().order_port = None;
                    *state = WorkerState::Guarding;
                    return Action::Move(p);
                }
                let b = ctx.board();
                if b.next_claim < b.total_claims {
                    let l = b.phase;
                    let idx = b.next_claim;
                    ctx.board_mut().next_claim = idx + 1;
                    let dest = claim_destination(d, l, idx);
                    let p = lowest_missing_bit_towards(Node::ROOT, dest, d);
                    *state = if Node::ROOT.flip(p) == dest {
                        WorkerState::Guarding
                    } else {
                        WorkerState::Walking { dest }
                    };
                    return Action::Move(p);
                }
                if ctx.board().done {
                    return Action::Terminate;
                }
                return Action::Wait;
            }
            WorkerState::Walking { dest } => {
                let pos = ctx.node();
                let p = lowest_missing_bit_towards(pos, dest, d);
                if pos.flip(p) == dest {
                    *state = WorkerState::Guarding;
                }
                return Action::Move(p);
            }
            WorkerState::Guarding => {
                if let Some(p) = ctx.board().order_port {
                    ctx.board_mut().order_port = None;
                    // Still guarding — one level deeper.
                    return Action::Move(p);
                }
                if ctx.board().order_return {
                    ctx.board_mut().order_return = false;
                    *state = WorkerState::Returning;
                    continue;
                }
                return Action::Wait;
            }
            WorkerState::Returning => {
                let pos = ctx.node();
                let m = pos.msb_position();
                debug_assert!(m >= 1, "returning worker cannot already be at the root");
                if pos.flip(m) == Node::ROOT {
                    *state = WorkerState::Idle;
                }
                return Action::Move(m);
            }
        }
    }
}

fn sync_step(state: &mut SyncState, ctx: &mut Ctx<'_, CleanBoard>) -> Action {
    let d = ctx.cube().dim();
    loop {
        match state.clone() {
            SyncState::Phase0 { next_port, escort } => {
                match escort {
                    Some((p, EscortStage::Posted)) => {
                        if ctx.board().order_port.is_some() {
                            return Action::Wait; // consumption will wake us
                        }
                        *state = SyncState::Phase0 {
                            next_port,
                            escort: Some((p, EscortStage::AtChild)),
                        };
                        return Action::Move(p); // follow the agent down
                    }
                    Some((p, EscortStage::AtChild)) => {
                        *state = SyncState::Phase0 {
                            next_port: next_port + 1,
                            escort: None,
                        };
                        return Action::Move(p); // back to the root
                    }
                    None => {
                        if next_port > d {
                            *state = SyncState::PostPhase { l: 1 };
                            continue;
                        }
                        ctx.board_mut().order_port = Some(next_port);
                        *state = SyncState::Phase0 {
                            next_port,
                            escort: Some((next_port, EscortStage::Posted)),
                        };
                        return Action::Wait; // the write keeps us runnable once
                    }
                }
            }
            SyncState::GoRoot { next_phase } => {
                let pos = ctx.node();
                if pos == Node::ROOT {
                    *state = SyncState::PostPhase { l: next_phase };
                    continue;
                }
                return Action::Move(pos.msb_position());
            }
            SyncState::PostPhase { l } => {
                debug_assert_eq!(ctx.node(), Node::ROOT);
                let total = phase_claims(d, l);
                let b = ctx.board_mut();
                b.phase = l;
                b.next_claim = 0;
                b.total_claims = total;
                *state = SyncState::GoFirst { l };
                return Action::Wait; // dirty board keeps us runnable
            }
            SyncState::GoFirst { l } => {
                let target = Node((1u32 << l) - 1);
                let pos = ctx.node();
                if pos == target {
                    *state = SyncState::SweepNode {
                        l,
                        next_port: pos.msb_position() + 1,
                        escort: None,
                        team_checked: false,
                    };
                    continue;
                }
                return Action::Move(lowest_missing_bit_towards(pos, target, d));
            }
            SyncState::SweepNode {
                l,
                next_port,
                escort,
                team_checked,
            } => {
                let x = ctx.node();
                let k = d - x.msb_position();
                match escort {
                    Some((p, EscortStage::Posted)) => {
                        if ctx.board().order_port.is_some() {
                            return Action::Wait;
                        }
                        *state = SyncState::SweepNode {
                            l,
                            next_port,
                            escort: Some((p, EscortStage::AtChild)),
                            team_checked,
                        };
                        return Action::Move(p);
                    }
                    Some((p, EscortStage::AtChild)) => {
                        *state = SyncState::SweepNode {
                            l,
                            next_port: p + 1,
                            escort: None,
                            team_checked,
                        };
                        return Action::Move(p);
                    }
                    None => {}
                }
                if k == 0 {
                    // Leaf: release the guard (Lemma 1 makes this safe).
                    ctx.board_mut().order_return = true;
                    *state = after_node(x, l, d);
                    continue;
                }
                if next_port > d {
                    // Dispatch of x complete.
                    *state = after_node(x, l, d);
                    continue;
                }
                if !team_checked {
                    // Step 2.2: wait until the k agents are on the node
                    // (ourselves included makes k + 1).
                    if u64::from(ctx.active_here()) < u64::from(k) + 1 {
                        return Action::Wait; // arrivals wake us
                    }
                    *state = SyncState::SweepNode {
                        l,
                        next_port,
                        escort: None,
                        team_checked: true,
                    };
                    continue;
                }
                ctx.board_mut().order_port = Some(next_port);
                *state = SyncState::SweepNode {
                    l,
                    next_port,
                    escort: Some((next_port, EscortStage::Posted)),
                    team_checked: true,
                };
                return Action::Wait;
            }
            SyncState::Navigate { l, target } => {
                let pos = ctx.node();
                if pos == target {
                    *state = SyncState::SweepNode {
                        l,
                        next_port: pos.msb_position() + 1,
                        escort: None,
                        team_checked: false,
                    };
                    continue;
                }
                // Via-meet: clear surplus bits (highest first), then set
                // missing bits (lowest first) — intermediates stay strictly
                // below level l.
                let surplus = pos.0 & !target.0;
                if surplus != 0 {
                    let p = 32 - surplus.leading_zeros();
                    return Action::Move(p);
                }
                return Action::Move(lowest_missing_bit_towards(pos, target, d));
            }
            SyncState::GoHome => {
                let pos = ctx.node();
                if pos == Node::ROOT {
                    ctx.board_mut().done = true;
                    return Action::Terminate;
                }
                return Action::Move(pos.msb_position());
            }
        }
    }
}

/// Where the synchronizer goes after finishing node `x` of level `l`.
fn after_node(x: Node, l: u32, d: u32) -> SyncState {
    match next_same_level(x, d) {
        Some(y) => SyncState::Navigate { l, target: y },
        None => {
            if l < d {
                SyncState::GoRoot { next_phase: l + 1 }
            } else {
                SyncState::GoHome
            }
        }
    }
}

/// How the synchronizer travels between consecutive level-`l` nodes.
///
/// The paper's strategy navigates *via the meet* (Theorem 3, component 3):
/// at most `2·min(l, d−l)` hops through already-clean lower levels. The
/// naive alternative — returning to the root between nodes — is provided
/// as an ablation to quantify what the trick saves (it turns the
/// navigation term into `Σ 2l·C(d,l) = Θ(n log n)` with a larger constant).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum NavigationMode {
    /// The paper's route: clear surplus bits, then set missing ones.
    #[default]
    ViaMeet,
    /// Ablation: descend all the way to the root, then ascend to the next
    /// node — correct but wasteful.
    ThroughRoot,
}

/// §3's strategy: Lemma 4's team plus the synchronizer.
#[derive(Clone, Copy, Debug)]
pub struct CleanStrategy {
    cube: Hypercube,
    navigation: NavigationMode,
    elect: bool,
}

impl CleanStrategy {
    /// Build the strategy for `cube` (`d ≥ 1`).
    pub fn new(cube: Hypercube) -> Self {
        assert!(cube.dim() >= 1, "H_0 has nothing to search");
        CleanStrategy {
            cube,
            navigation: NavigationMode::ViaMeet,
            elect: false,
        }
    }

    /// §3.2-faithful variant: all agents spawn identical and the
    /// synchronizer is elected through the whiteboard by the first agent to
    /// gain access. Per-role move accounting is then unavailable (the
    /// engine cannot know in advance which agent wins), but totals and
    /// correctness are unchanged.
    pub fn with_election(cube: Hypercube) -> Self {
        assert!(cube.dim() >= 1, "H_0 has nothing to search");
        CleanStrategy {
            cube,
            navigation: NavigationMode::ViaMeet,
            elect: true,
        }
    }

    /// Ablation constructor: pick the synchronizer's navigation mode
    /// (affects only its own moves; worker counts and correctness are
    /// unchanged).
    pub fn with_navigation(cube: Hypercube, navigation: NavigationMode) -> Self {
        assert!(cube.dim() >= 1, "H_0 has nothing to search");
        CleanStrategy {
            cube,
            navigation,
            elect: false,
        }
    }

    /// Exact team size (Theorem 2 / Lemma 4), synchronizer included.
    pub fn team_size(&self) -> u64 {
        u64::try_from(comb::clean_team_size(self.cube.dim())).expect("team fits in u64")
    }

    /// Synthesize the canonical sequential trace procedurally (no engine),
    /// buffering the events into a `Vec` when `record_events` is set.
    /// Thin wrapper over [`CleanStrategy::synthesize_into`] for callers
    /// that need the materialized trace (figures, `trace` export).
    pub fn synthesize(&self, record_events: bool) -> (Metrics, Option<Vec<Event>>) {
        if record_events {
            let mut events = Vec::new();
            let metrics = self.synthesize_into(&mut events);
            (metrics, Some(events))
        } else {
            (self.synthesize_into(&mut NullSink), None)
        }
    }

    /// Synthesize the canonical sequential trace procedurally (no engine),
    /// streaming every event into `sink` as it is produced.
    ///
    /// The emission order is a legal asynchronous schedule: reinforcements
    /// for a phase walk to their destinations before the sweep visits them,
    /// released guards return to the root immediately, and the synchronizer
    /// acts strictly sequentially.
    pub fn synthesize_into(&self, sink: &mut dyn EventSink) -> Metrics {
        let cube = self.cube;
        let d = cube.dim();
        let n = cube.node_count();
        let team = self.team_size();
        let mut rec = Recorder::new(sink);

        // Agent bookkeeping: pool of ids at the root; guard id per node.
        let sync_id: u32 = 0;
        let mut pool: Vec<u32> = (1..team as u32).rev().collect(); // pop() yields 1, 2, ...
        let mut guard: Vec<Option<u32>> = vec![None; n];
        // Reinforcement ids in staging order. Phase `l` stages them for the
        // level's nodes in Gosper order and its sweep visits the nodes in
        // the same order, so node `x` takes the next `k − 1` ids.
        let mut staged: Vec<u32> = Vec::new();

        rec.emit(EventKind::Spawn {
            agent: sync_id,
            node: Node::ROOT,
            role: Role::Coordinator,
        });
        for id in 1..team as u32 {
            rec.emit(EventKind::Spawn {
                agent: id,
                node: Node::ROOT,
                role: Role::Worker,
            });
        }

        // Phase 0: escort one agent to each root child.
        for p in 1..=d {
            let child = Node::ROOT.flip(p);
            let w = pool.pop().expect("pool suffices (Lemma 4)");
            rec.worker_move(w, Node::ROOT, child);
            guard[child.index()] = Some(w);
            rec.sync_move(child);
            rec.sync_move(Node::ROOT);
        }

        for l in 1..=d {
            // Reinforcements walk to their destinations. (The engine path
            // derives destinations from whiteboard counters through
            // `claim_destination`; here we enumerate them directly — same
            // multiset, O(n) per phase instead of O(n) per claim.)
            staged.clear();
            let mut cursor = Some(Node((1u32 << l) - 1));
            while let Some(dest) = cursor {
                let k = d - dest.msb_position();
                for _ in 1..k {
                    let w = pool.pop().expect("pool suffices (Lemma 4)");
                    let mut pos = Node::ROOT;
                    for hop in meet_walk(Node::ROOT, dest) {
                        rec.worker_move(w, pos, hop);
                        pos = hop;
                    }
                    debug_assert!(guard[dest.index()].is_some());
                    staged.push(w);
                }
                cursor = next_same_level(dest, d);
            }
            debug_assert_eq!(
                staged.len() as u32,
                phase_claims(d, l),
                "Lemma 3 at level {l}"
            );
            // Synchronizer: back to the root, then to the level’s first node.
            for hop in meet_walk(rec.sync_pos, Node::ROOT) {
                rec.sync_move(hop);
            }
            let first = Node((1u32 << l) - 1);
            for hop in meet_walk(rec.sync_pos, first) {
                rec.sync_move(hop);
            }
            let navigation = self.navigation;
            // Sweep.
            let mut taken = 0;
            let mut cursor = Some(first);
            while let Some(x) = cursor {
                let k = d - x.msb_position();
                if k == 0 {
                    // Release the leaf guard.
                    let w = guard[x.index()].take().expect("leaf is guarded");
                    let mut pos = x;
                    for hop in meet_walk(x, Node::ROOT) {
                        rec.worker_move(w, pos, hop);
                        pos = hop;
                    }
                    pool.push(w);
                } else {
                    // Dispatch one agent per child; the node’s own guard
                    // goes first, staged reinforcements follow.
                    let own = guard[x.index()].take().expect("node is guarded");
                    let reinforcements = &staged[taken..taken + (k - 1) as usize];
                    taken += reinforcements.len();
                    let squad = std::iter::once(own).chain(reinforcements.iter().copied());
                    for (w, p) in squad.zip(x.msb_position() + 1..=d) {
                        let child = x.flip(p);
                        rec.worker_move(w, x, child);
                        guard[child.index()] = Some(w);
                        rec.sync_move(child);
                        rec.sync_move(x);
                    }
                }
                cursor = next_same_level(x, d);
                if let Some(y) = cursor {
                    match navigation {
                        NavigationMode::ViaMeet => {
                            for hop in meet_walk(rec.sync_pos, y) {
                                rec.sync_move(hop);
                            }
                        }
                        NavigationMode::ThroughRoot => {
                            for hop in meet_walk(rec.sync_pos, Node::ROOT) {
                                rec.sync_move(hop);
                            }
                            for hop in meet_walk(rec.sync_pos, y) {
                                rec.sync_move(hop);
                            }
                        }
                    }
                }
            }
            debug_assert_eq!(taken, staged.len(), "every reinforcement is taken");
        }
        // Home: the synchronizer returns and everyone terminates.
        for hop in meet_walk(rec.sync_pos, Node::ROOT) {
            rec.sync_move(hop);
        }
        rec.emit(EventKind::Terminate {
            agent: sync_id,
            node: Node::ROOT,
        });
        for &w in &pool {
            rec.emit(EventKind::Terminate {
                agent: w,
                node: Node::ROOT,
            });
        }

        Metrics {
            worker_moves: rec.worker_moves,
            coordinator_moves: rec.sync_moves,
            team_size: team,
            peak_away: rec.peak_away,
            ideal_time: None, // measured by the DES under Policy::Synchronous
            activations: rec.worker_moves + rec.sync_moves,
            peak_board_bits: 0,
            peak_local_bits: 0,
        }
    }
}

/// Move/event recorder for the procedural trace generator: counts moves
/// and streams each event straight into the caller's sink.
struct Recorder<'s> {
    sink: &'s mut dyn EventSink,
    worker_moves: u64,
    sync_moves: u64,
    away: u64,
    peak_away: u64,
    time: u64,
    sync_pos: Node,
}

impl<'s> Recorder<'s> {
    fn new(sink: &'s mut dyn EventSink) -> Self {
        Recorder {
            sink,
            worker_moves: 0,
            sync_moves: 0,
            away: 0,
            peak_away: 0,
            time: 0,
            sync_pos: Node::ROOT,
        }
    }

    fn emit(&mut self, kind: EventKind) {
        self.time += 1;
        self.sink.emit(Event {
            time: self.time,
            kind,
        });
    }

    fn track_away(&mut self, from: Node, to: Node) {
        match (from == Node::ROOT, to == Node::ROOT) {
            (true, false) => {
                self.away += 1;
                self.peak_away = self.peak_away.max(self.away);
            }
            (false, true) => self.away -= 1,
            _ => {}
        }
    }

    fn worker_move(&mut self, id: u32, from: Node, to: Node) {
        self.worker_moves += 1;
        self.track_away(from, to);
        self.emit(EventKind::Move {
            agent: id,
            from,
            to,
            role: Role::Worker,
        });
    }

    fn sync_move(&mut self, to: Node) {
        let from = self.sync_pos;
        self.sync_moves += 1;
        self.track_away(from, to);
        self.emit(EventKind::Move {
            agent: 0,
            from,
            to,
            role: Role::Coordinator,
        });
        self.sync_pos = to;
    }
}

/// The successive nodes of the via-meet walk from `from` to `to`: clear
/// surplus bits from the highest down, then set missing bits from the
/// lowest up. From the root that is the broadcast-tree path down to `to`;
/// to the root, the tree path up.
fn meet_walk(from: Node, to: Node) -> impl Iterator<Item = Node> {
    std::iter::successors(Some(from), move |&cur| {
        let surplus = cur.0 & !to.0;
        let missing = to.0 & !cur.0;
        if surplus != 0 {
            Some(Node(cur.0 ^ (1 << (31 - surplus.leading_zeros()))))
        } else if missing != 0 {
            Some(Node(cur.0 | (missing & missing.wrapping_neg())))
        } else {
            None
        }
    })
    .skip(1)
}

impl SearchStrategy for CleanStrategy {
    fn name(&self) -> &'static str {
        "clean"
    }

    fn cube(&self) -> Hypercube {
        self.cube
    }

    fn run(&self, policy: Policy) -> Result<SearchOutcome, StrategyError> {
        let mut engine = Engine::new(
            self.cube,
            EngineConfig {
                policy,
                visibility: false,
                ..EngineConfig::default()
            },
        );
        if self.elect {
            for _ in 0..self.team_size() {
                engine.spawn(CleanAgent::candidate(), Node::ROOT, Role::Worker);
            }
        } else {
            engine.spawn(CleanAgent::synchronizer(), Node::ROOT, Role::Coordinator);
            for _ in 1..self.team_size() {
                engine.spawn(CleanAgent::worker(), Node::ROOT, Role::Worker);
            }
        }
        let report = engine.run()?;
        Ok(audited_outcome(self.cube, &report))
    }

    fn fast(&self, audit: bool) -> SearchOutcome {
        if audit {
            streamed_outcome(self.cube, |sink| self.synthesize_into(sink))
        } else {
            synthesized_outcome(self.cube, self.synthesize_into(&mut NullSink), None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictions::clean_prediction;

    #[test]
    fn gosper_enumerates_levels_in_order() {
        let cube = Hypercube::new(7);
        for l in 1..=7 {
            let expect = cube.level_nodes(l);
            let mut got = vec![Node((1u32 << l) - 1)];
            while let Some(y) = next_same_level(*got.last().unwrap(), 7) {
                got.push(y);
            }
            assert_eq!(got, expect, "level {l}");
        }
    }

    #[test]
    fn claim_destinations_cover_lemma3_exactly() {
        for d in 2..=9u32 {
            let cube = Hypercube::new(d);
            let tree = hypersweep_topology::BroadcastTree::new(cube);
            for l in 1..d {
                let total = phase_claims(d, l);
                let mut per_node: std::collections::BTreeMap<Node, u32> = Default::default();
                for idx in 0..total {
                    *per_node.entry(claim_destination(d, l, idx)).or_default() += 1;
                }
                for x in cube.level_nodes(l) {
                    let k = tree.node_type(x);
                    let expect = k.saturating_sub(1);
                    assert_eq!(
                        per_node.get(&x).copied().unwrap_or(0),
                        expect,
                        "d={d} l={l} x={x}"
                    );
                }
            }
        }
    }

    #[test]
    fn clean_completes_on_small_cubes_under_all_adversaries() {
        for d in 1..=6 {
            let s = CleanStrategy::new(Hypercube::new(d));
            for policy in Policy::adversaries(3) {
                let outcome = s
                    .run(policy)
                    .unwrap_or_else(|e| panic!("d={d} {policy:?}: {e}"));
                assert!(
                    outcome.is_complete(),
                    "d={d} {policy:?}: {:?}",
                    outcome.verdict.violations
                );
            }
        }
    }

    #[test]
    fn worker_moves_match_theorem_3_exactly() {
        for d in 1..=7 {
            let s = CleanStrategy::new(Hypercube::new(d));
            let outcome = s.run(Policy::Fifo).expect("completes");
            let p = clean_prediction(d);
            assert_eq!(
                u128::from(outcome.metrics.worker_moves),
                p.worker_moves,
                "d={d}: every leaf journey is a root round trip"
            );
        }
    }

    #[test]
    fn synchronizer_escorts_every_tree_edge_twice() {
        // Escort moves are part of the synchronizer total; the exact total
        // also includes navigation, which the fast path reproduces — here
        // we check the engine total matches the fast path exactly.
        for d in 1..=7 {
            let s = CleanStrategy::new(Hypercube::new(d));
            let engine = s.run(Policy::Fifo).expect("completes");
            let fast = s.fast(false);
            assert_eq!(
                engine.metrics.coordinator_moves, fast.metrics.coordinator_moves,
                "d={d}"
            );
            assert_eq!(
                engine.metrics.worker_moves, fast.metrics.worker_moves,
                "d={d}"
            );
        }
    }

    #[test]
    fn fast_trace_is_a_correct_search() {
        for d in 1..=8 {
            let s = CleanStrategy::new(Hypercube::new(d));
            let outcome = s.fast(true);
            assert!(
                outcome.is_complete(),
                "d={d}: {:?}",
                outcome.verdict.violations
            );
        }
    }

    #[test]
    fn through_root_navigation_is_correct_but_costlier() {
        for d in 3..=9u32 {
            let cube = Hypercube::new(d);
            let meet = CleanStrategy::new(cube);
            let naive = CleanStrategy::with_navigation(cube, NavigationMode::ThroughRoot);
            let m = meet.fast(d <= 6);
            let n = naive.fast(d <= 6);
            if d <= 6 {
                assert!(m.is_complete() && n.is_complete(), "d={d}");
            }
            // Identical worker counts, strictly more synchronizer moves.
            assert_eq!(m.metrics.worker_moves, n.metrics.worker_moves);
            assert!(
                n.metrics.coordinator_moves > m.metrics.coordinator_moves,
                "d={d}: naive {} vs via-meet {}",
                n.metrics.coordinator_moves,
                m.metrics.coordinator_moves
            );
        }
        // The gap widens with d (the ablation quantifies Theorem 3's trick).
        let gap = |d: u32| {
            let cube = Hypercube::new(d);
            let a = CleanStrategy::with_navigation(cube, NavigationMode::ThroughRoot)
                .fast(false)
                .metrics
                .coordinator_moves as f64;
            let b = CleanStrategy::new(cube)
                .fast(false)
                .metrics
                .coordinator_moves as f64;
            a / b
        };
        assert!(gap(12) > gap(6), "ratio must grow with d");
    }

    #[test]
    fn whiteboard_election_matches_preassigned_roles() {
        // §3.2: identical agents elect the synchronizer through the
        // whiteboard. Totals (and correctness) must match the preassigned
        // variant under every adversary.
        for d in 1..=6 {
            let cube = Hypercube::new(d);
            for policy in Policy::adversaries(3) {
                let elected = CleanStrategy::with_election(cube)
                    .run(policy)
                    .unwrap_or_else(|e| panic!("d={d} {policy:?}: {e}"));
                assert!(
                    elected.is_complete(),
                    "d={d} {policy:?}: {:?}",
                    elected.verdict.violations
                );
                let assigned = CleanStrategy::new(cube).run(policy).unwrap();
                assert_eq!(
                    elected.metrics.total_moves(),
                    assigned.metrics.total_moves(),
                    "d={d} {policy:?}"
                );
                assert_eq!(elected.metrics.team_size, assigned.metrics.team_size);
            }
        }
    }

    #[test]
    fn team_size_matches_lemma_4() {
        for d in 1..=10 {
            let s = CleanStrategy::new(Hypercube::new(d));
            assert_eq!(u128::from(s.team_size()), comb::clean_team_size(d));
        }
    }

    #[test]
    fn synchronous_schedule_yields_ideal_time() {
        let s = CleanStrategy::new(Hypercube::new(5));
        let outcome = s.run(Policy::Synchronous).expect("completes");
        assert!(outcome.is_complete());
        let t = outcome.metrics.ideal_time.expect("synchronous run");
        // Theorem 4: the time is dominated by the synchronizer's walk.
        assert!(t >= outcome.metrics.coordinator_moves);
    }

    #[test]
    fn whiteboards_and_local_state_stay_logarithmic() {
        let s = CleanStrategy::new(Hypercube::new(6));
        let mut engine = Engine::new(
            Hypercube::new(6),
            EngineConfig {
                policy: Policy::Random(11),
                ..EngineConfig::default()
            },
        );
        engine.spawn(CleanAgent::synchronizer(), Node::ROOT, Role::Coordinator);
        for _ in 1..s.team_size() {
            engine.spawn(CleanAgent::worker(), Node::ROOT, Role::Worker);
        }
        let report = engine.run().expect("completes");
        assert!(report.metrics.peak_board_bits <= 128);
        assert!(report.metrics.peak_local_bits <= 64);
    }
}
