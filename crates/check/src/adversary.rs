//! Adversarial activation-order policies.
//!
//! An adversary is a deterministic function from (seed, decision history)
//! to an index into the current runnable set. Five families are explored,
//! round-robin across the schedule index, so a campaign of `N` schedules
//! exercises each family `N/5` times with distinct seeds:
//!
//! * **seeded-random** — uniform choice from a splitmix64 stream;
//! * **round-robin-skew** — a rotating cursor that periodically sticks,
//!   so one agent gets activated twice in a row while another starves;
//! * **laggard-agent** — one seed-chosen agent is starved: it only runs
//!   when it is the sole runnable agent;
//! * **delayed-wakeup** — a freshly woken agent has its first activation
//!   withheld for a seed-chosen window, modelling a late wake-up delivery;
//! * **stalled-synchronizer** — agent 0 (the CLEAN synchronizer, or the
//!   seed agent of the cloning variant) is starved like a laggard.
//!
//! The adversary reads the runnable set through [`RunnableView`]: its size,
//! the agent at a rank, and the rank of an agent. "The k-th runnable agent
//! other than `skip`" is then rank arithmetic, `k + (k >= position(skip))`,
//! so a decision costs no more than the view's rank queries.

use hypersweep_sim::{AgentId, RunnableSet};

/// A runnable set as the adversary sees it: distinct agent ids in a fixed
/// order, addressed by rank.
pub trait RunnableView {
    /// Number of runnable agents.
    fn len(&self) -> usize;
    /// Whether no agent is runnable.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// The agent at rank `k < len()`.
    fn select(&self, k: usize) -> AgentId;
    /// The rank of `id`, or `None` if it is not runnable.
    fn position(&self, id: AgentId) -> Option<usize>;
}

impl RunnableView for [AgentId] {
    fn len(&self) -> usize {
        <[AgentId]>::len(self)
    }
    fn select(&self, k: usize) -> AgentId {
        self[k]
    }
    fn position(&self, id: AgentId) -> Option<usize> {
        self.iter().position(|&r| r == id)
    }
}

impl RunnableView for RunnableSet {
    fn len(&self) -> usize {
        RunnableSet::len(self)
    }
    fn select(&self, k: usize) -> AgentId {
        RunnableSet::select(self, k)
    }
    fn position(&self, id: AgentId) -> Option<usize> {
        RunnableSet::position(self, id)
    }
}

/// The adversary families (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdversaryKind {
    /// Uniform seeded-random choice.
    SeededRandom,
    /// Rotating cursor with periodic sticking.
    RoundRobinSkew,
    /// Starve one seed-chosen agent.
    Laggard,
    /// Withhold freshly runnable agents for a window of decisions.
    DelayedWakeup,
    /// Starve agent 0 — the coordinator/seed agent.
    StalledSynchronizer,
}

impl AdversaryKind {
    /// All families, in campaign rotation order.
    pub const ALL: [AdversaryKind; 5] = [
        AdversaryKind::SeededRandom,
        AdversaryKind::RoundRobinSkew,
        AdversaryKind::Laggard,
        AdversaryKind::DelayedWakeup,
        AdversaryKind::StalledSynchronizer,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            AdversaryKind::SeededRandom => "seeded-random",
            AdversaryKind::RoundRobinSkew => "round-robin-skew",
            AdversaryKind::Laggard => "laggard-agent",
            AdversaryKind::DelayedWakeup => "delayed-wakeup",
            AdversaryKind::StalledSynchronizer => "stalled-synchronizer",
        }
    }
}

/// splitmix64 — tiny, seedable, dependency-free. Used only to *generate*
/// schedules; replays never consult an RNG (the decision trace is the
/// schedule).
#[derive(Clone, Debug)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next() % n
    }
}

/// A stateful adversary: one per explored schedule.
#[derive(Clone, Debug)]
pub struct Adversary {
    kind: AdversaryKind,
    rng: SplitMix64,
    /// Round-robin cursor (RoundRobinSkew).
    cursor: usize,
    /// The starved agent (Laggard / StalledSynchronizer).
    laggard: AgentId,
    /// Delayed-wakeup state: the withheld agent and how many more
    /// decisions to withhold it for.
    delayed: Option<(AgentId, u64)>,
}

impl Adversary {
    /// Build an adversary of `kind` from a raw seed.
    pub fn new(kind: AdversaryKind, seed: u64) -> Self {
        let mut rng = SplitMix64(seed ^ 0xA076_1D64_78BD_642F);
        let laggard = match kind {
            AdversaryKind::StalledSynchronizer => 0,
            // Starve a small id: early agents carry the coordination load,
            // so starving one of them stresses the most wait conditions.
            _ => (rng.below(8)) as AgentId,
        };
        Adversary {
            kind,
            rng,
            cursor: 0,
            laggard,
            delayed: None,
        }
    }

    /// The adversary used for schedule number `schedule` of a campaign
    /// seeded with `seed`: families rotate with the schedule index and the
    /// per-schedule RNG stream is derived from both.
    pub fn for_schedule(seed: u64, schedule: u64) -> Self {
        let kind = AdversaryKind::ALL[(schedule % AdversaryKind::ALL.len() as u64) as usize];
        Adversary::new(kind, seed.wrapping_mul(0x9E37_79B9).wrapping_add(schedule))
    }

    /// The family this adversary belongs to.
    pub fn kind(&self) -> AdversaryKind {
        self.kind
    }

    /// Pick an index into `runnable` (ascending agent ids, non-empty).
    pub fn choose(&mut self, runnable: &[AgentId], step: u64) -> u32 {
        self.choose_from(runnable, step)
    }

    /// Pick a rank in `runnable` (non-empty). Equal views (same ids in the
    /// same order) get equal decisions and equal RNG consumption.
    pub fn choose_from<R: RunnableView + ?Sized>(&mut self, runnable: &R, step: u64) -> u32 {
        let len = runnable.len();
        debug_assert!(len > 0);
        if len == 1 {
            return 0;
        }
        match self.kind {
            AdversaryKind::SeededRandom => self.rng.below(len as u64) as u32,
            AdversaryKind::RoundRobinSkew => {
                let idx = self.cursor % len;
                // Stick every third decision: the same index is chosen
                // again next time while the rest of the queue ages.
                if step % 3 != 0 {
                    self.cursor += 1;
                }
                idx as u32
            }
            AdversaryKind::Laggard | AdversaryKind::StalledSynchronizer => {
                self.below_skipping(runnable, self.laggard)
            }
            AdversaryKind::DelayedWakeup => {
                // Withhold one agent for a window; everything else is
                // seeded-random. When the window closes, pick a new victim.
                match self.delayed {
                    Some((id, left)) if left > 0 => {
                        self.delayed = Some((id, left - 1));
                        self.below_skipping(runnable, id)
                    }
                    _ => {
                        let victim = runnable.select(self.rng.below(len as u64) as usize);
                        let window = 4 + self.rng.below(28);
                        self.delayed = Some((victim, window));
                        self.rng.below(len as u64) as u32
                    }
                }
            }
        }
    }

    /// A uniform rank among the runnable agents other than `skip`
    /// (`len() >= 2`, so there is at least one): draw among `len - 1`
    /// ranks and step over `skip`'s.
    fn below_skipping<R: RunnableView + ?Sized>(&mut self, runnable: &R, skip: AgentId) -> u32 {
        let len = runnable.len() as u64;
        match runnable.position(skip) {
            Some(at) => {
                let k = self.rng.below(len - 1);
                (k + u64::from(k >= at as u64)) as u32
            }
            None => self.rng.below(len) as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_decisions() {
        for kind in AdversaryKind::ALL {
            let runnable: Vec<AgentId> = (0..6).collect();
            let mut a = Adversary::new(kind, 42);
            let mut b = Adversary::new(kind, 42);
            for step in 0..100 {
                assert_eq!(a.choose(&runnable, step), b.choose(&runnable, step));
            }
        }
    }

    #[test]
    fn choices_are_in_range() {
        for kind in AdversaryKind::ALL {
            let mut a = Adversary::new(kind, 7);
            for step in 0..200 {
                let len = 1 + (step as usize % 5);
                let runnable: Vec<AgentId> = (0..len as AgentId).collect();
                let idx = a.choose(&runnable, step);
                assert!((idx as usize) < len, "{kind:?} step {step}");
            }
        }
    }

    #[test]
    fn stalled_synchronizer_never_picks_agent_zero_unless_alone() {
        let mut a = Adversary::new(AdversaryKind::StalledSynchronizer, 3);
        let runnable: Vec<AgentId> = vec![0, 2, 5];
        for step in 0..100 {
            let idx = a.choose(&runnable, step);
            assert_ne!(runnable[idx as usize], 0);
        }
        assert_eq!(a.choose(&[0], 0), 0);
    }

    /// Reference for the skipping families, by definition: collect the
    /// indices of every entry other than `skip` and draw one of them. The
    /// rank arithmetic must match it draw for draw.
    fn reference_choose(a: &mut Adversary, runnable: &[AgentId], step: u64) -> u32 {
        let len = runnable.len();
        if len == 1 {
            return 0;
        }
        let skipping = |a: &mut Adversary, skip: AgentId| {
            let others: Vec<u32> = (0..len as u32)
                .filter(|&i| runnable[i as usize] != skip)
                .collect();
            others[a.rng.below(others.len() as u64) as usize]
        };
        match a.kind {
            AdversaryKind::SeededRandom | AdversaryKind::RoundRobinSkew => a.choose(runnable, step),
            AdversaryKind::Laggard | AdversaryKind::StalledSynchronizer => skipping(a, a.laggard),
            AdversaryKind::DelayedWakeup => match a.delayed {
                Some((id, left)) if left > 0 => {
                    a.delayed = Some((id, left - 1));
                    skipping(a, id)
                }
                _ => a.choose(runnable, step),
            },
        }
    }

    /// For every family: choosing over the engine's order-statistic set,
    /// over the equal ascending slice, and with the list-building reference
    /// gives the same index sequence. The random sets churn across word
    /// boundaries and both contain and lack the starved/withheld agent, so
    /// equal decisions also pin equal RNG consumption.
    #[test]
    fn set_slice_and_reference_choose_identically() {
        for kind in AdversaryKind::ALL {
            let mut on_set = Adversary::new(kind, 0xD1FF);
            let mut on_slice = on_set.clone();
            let mut on_reference = on_set.clone();
            let mut set = RunnableSet::new();
            let mut churn = SplitMix64(kind as u64);
            let (mut with_skipped, mut without_skipped) = (0, 0);
            for step in 0..10_000 {
                for _ in 0..8 {
                    let id = churn.below(150) as AgentId;
                    if set.contains(id) && set.len() > 1 {
                        set.remove(id);
                    } else {
                        set.insert(id);
                    }
                }
                let slice: Vec<AgentId> = set.iter().collect();
                let skipped = match kind {
                    AdversaryKind::DelayedWakeup => on_set
                        .delayed
                        .and_then(|(id, left)| (left > 0).then_some(id)),
                    AdversaryKind::Laggard | AdversaryKind::StalledSynchronizer => {
                        Some(on_set.laggard)
                    }
                    _ => None,
                };
                if let Some(id) = skipped {
                    if slice.contains(&id) {
                        with_skipped += 1;
                    } else {
                        without_skipped += 1;
                    }
                }
                let want = reference_choose(&mut on_reference, &slice, step);
                assert_eq!(on_set.choose_from(&set, step), want, "{kind:?} step {step}");
                assert_eq!(on_slice.choose(&slice, step), want, "{kind:?} step {step}");
            }
            if kind != AdversaryKind::SeededRandom && kind != AdversaryKind::RoundRobinSkew {
                assert!(with_skipped > 1000 && without_skipped > 1000, "{kind:?}");
            }
        }
    }
}
