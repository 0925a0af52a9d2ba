//! The engine's runnable set: an order-statistic set over agent ids.
//!
//! External schedulers (the `hypersweep-check` adversary) pick "the k-th
//! runnable agent in ascending id order" once per activation. A scan over
//! every agent per decision made scheduling bookkeeping the dominant cost
//! of a checked schedule, so the set is kept incrementally instead: a
//! bitset over agent ids plus a Fenwick tree over the per-word popcounts.
//! Membership changes cost `O(log(ids / 64))`, and so do [`len`],
//! [`select`] and [`position`].
//!
//! [`len`]: RunnableSet::len
//! [`select`]: RunnableSet::select
//! [`position`]: RunnableSet::position

use crate::event::AgentId;

/// A set of agent ids with rank queries. The universe grows on demand:
/// inserting an id past the current words appends zeroed words.
#[derive(Clone, Debug, Default)]
pub struct RunnableSet {
    /// Membership bits, 64 ids per word.
    words: Vec<u64>,
    /// Fenwick tree over `words[i].count_ones()`: node `i` (1-based,
    /// stored at `tree[i - 1]`) sums the popcounts of words
    /// `i - lowbit(i) .. i`.
    tree: Vec<u32>,
    len: usize,
}

fn lowbit(i: usize) -> usize {
    i & i.wrapping_neg()
}

/// Bit index of the `rank`-th (0-based) set bit of `word`.
fn select_in_word(mut word: u64, rank: u32) -> u32 {
    for _ in 0..rank {
        word &= word - 1;
    }
    word.trailing_zeros()
}

impl RunnableSet {
    /// An empty set.
    pub fn new() -> Self {
        RunnableSet::default()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set has no members.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `id` is a member.
    pub fn contains(&self, id: AgentId) -> bool {
        let (w, b) = (id as usize / 64, id % 64);
        self.words.get(w).is_some_and(|word| word >> b & 1 == 1)
    }

    /// Add `id`; a no-op if it is already a member.
    pub fn insert(&mut self, id: AgentId) {
        let (w, b) = (id as usize / 64, id % 64);
        while self.words.len() <= w {
            self.push_word();
        }
        if self.words[w] >> b & 1 == 0 {
            self.words[w] |= 1 << b;
            self.add(w, 1);
            self.len += 1;
        }
    }

    /// Remove `id`; a no-op if it is not a member.
    pub fn remove(&mut self, id: AgentId) {
        if self.contains(id) {
            let (w, b) = (id as usize / 64, id % 64);
            self.words[w] &= !(1 << b);
            self.add(w, -1);
            self.len -= 1;
        }
    }

    /// The member of rank `k` (0-based, ascending ids). Panics unless
    /// `k < len()`.
    pub fn select(&self, k: usize) -> AgentId {
        assert!(k < self.len, "select({k}) on a set of {} members", self.len);
        // Fenwick descent: the largest word count `pos` whose prefix of
        // members is <= k; the member sits in word `pos`.
        let m = self.words.len();
        let mut pos = 0;
        let mut rem = k as u32;
        let mut step = 1 << m.ilog2();
        while step > 0 {
            if pos + step <= m && self.tree[pos + step - 1] <= rem {
                pos += step;
                rem -= self.tree[pos - 1];
            }
            step >>= 1;
        }
        (pos * 64) as AgentId + select_in_word(self.words[pos], rem)
    }

    /// The rank of `id` among the members, or `None` if it is not one.
    pub fn position(&self, id: AgentId) -> Option<usize> {
        if !self.contains(id) {
            return None;
        }
        let (w, b) = (id as usize / 64, id % 64);
        let below = (self.words[w] & ((1u64 << b) - 1)).count_ones();
        Some((self.prefix(w) + below) as usize)
    }

    /// Members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = AgentId> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let b = bits.trailing_zeros();
                    bits &= bits - 1;
                    (w * 64) as AgentId + b
                })
            })
        })
    }

    /// Members of words `0..w`.
    fn prefix(&self, w: usize) -> u32 {
        let mut i = w;
        let mut sum = 0;
        while i > 0 {
            sum += self.tree[i - 1];
            i -= lowbit(i);
        }
        sum
    }

    fn add(&mut self, w: usize, delta: i32) {
        let mut i = w + 1;
        while i <= self.tree.len() {
            self.tree[i - 1] = self.tree[i - 1].wrapping_add_signed(delta);
            i += lowbit(i);
        }
    }

    /// Append an empty word: its Fenwick node covers words
    /// `i - lowbit(i) .. i`, of which only the new one is empty.
    fn push_word(&mut self) {
        self.words.push(0);
        let i = self.words.len();
        let covered = self.prefix(i - 1) - self.prefix(i - lowbit(i));
        self.tree.push(covered);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Check every query against a sorted-`Vec` model.
    fn assert_matches(set: &RunnableSet, model: &[AgentId], universe: AgentId) {
        assert_eq!(set.len(), model.len());
        assert_eq!(set.is_empty(), model.is_empty());
        assert_eq!(set.iter().collect::<Vec<_>>(), model);
        for (k, &id) in model.iter().enumerate() {
            assert_eq!(set.select(k), id, "select({k})");
        }
        for id in 0..universe {
            assert_eq!(set.position(id), model.binary_search(&id).ok(), "{id}");
            assert_eq!(set.contains(id), model.binary_search(&id).is_ok());
        }
    }

    #[test]
    fn word_boundary_ids() {
        let mut set = RunnableSet::new();
        let mut model = Vec::new();
        for id in [63, 64, 127, 128, 0, 1, 191, 192] {
            set.insert(id);
            model.push(id);
            model.sort_unstable();
            assert_matches(&set, &model, 260);
        }
        for id in [64, 0, 192, 127] {
            set.remove(id);
            model.retain(|&x| x != id);
            assert_matches(&set, &model, 260);
        }
        // Re-inserting and removing twice are no-ops.
        set.insert(63);
        set.remove(64);
        assert_matches(&set, &model, 260);
    }

    #[test]
    fn random_ops_and_clone_append_growth_match_a_sorted_vec() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5e7);
        for _ in 0..20 {
            let mut set = RunnableSet::new();
            let mut model: Vec<AgentId> = Vec::new();
            // `spawned` plays the engine's agent count: clones append the
            // next id, so the universe grows across word boundaries.
            let mut spawned: AgentId = rng.random_range(1..70);
            for id in 0..spawned {
                set.insert(id);
                model.push(id);
            }
            for _ in 0..600 {
                match rng.random_range(0u32..4) {
                    0 => {
                        set.insert(spawned);
                        model.push(spawned);
                        spawned += 1;
                    }
                    1 => {
                        let id = rng.random_range(0..spawned);
                        set.insert(id);
                        if let Err(at) = model.binary_search(&id) {
                            model.insert(at, id);
                        }
                    }
                    _ => {
                        let id = rng.random_range(0..spawned);
                        set.remove(id);
                        model.retain(|&x| x != id);
                    }
                }
                assert_matches(&set, &model, spawned + 65);
            }
        }
    }
}
