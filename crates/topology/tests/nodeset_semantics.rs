//! `NodeSet` word loops against per-node semantics.
//!
//! Every bulk op and the hypercube neighbourhood expansion is checked
//! bit by bit against the per-node definition. The universes are drawn
//! from the shapes the rest of the workspace actually runs on: hypercubes
//! (`2^d` nodes), rings (any `n`), tori (`rows × cols`), cube-connected
//! cycles (`d · 2^d`), de Bruijn graphs, and random partial grids
//! (arbitrary hole-dependent live counts), so ragged last words are
//! covered throughout.

use hypersweep_topology::graph::{CubeConnectedCycles, DeBruijn, Ring, Torus};
use hypersweep_topology::grid::PartialGrid;
use hypersweep_topology::{Hypercube, Node, NodeSet, Topology};

use proptest::prelude::*;

/// Deterministic word fill from a seed (SplitMix64 mix).
fn fill(words: &mut [u64], seed: u64) {
    let mut s = seed;
    for w in words.iter_mut() {
        s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        *w = z ^ (z >> 31);
    }
}

/// A random member set over `0..n`, about half full, tail kept clean.
fn random_set(n: usize, seed: u64) -> NodeSet {
    let mut s = NodeSet::new(n);
    fill(s.words_mut(), seed);
    let tail = n & 63;
    if tail != 0 {
        if let Some(last) = s.words_mut().last_mut() {
            *last &= (1u64 << tail) - 1;
        }
    }
    s
}

/// The universe sizes induced by the workspace's graph families, most with
/// a partly filled last word.
fn family_universes() -> Vec<(&'static str, usize)> {
    vec![
        ("hypercube d=9", Hypercube::new(9).node_count()),
        ("ring 389", Ring::new(389).node_count()),
        ("torus 17x23", Torus::new(17, 23).node_count()),
        ("ccc d=5", CubeConnectedCycles::new(5).node_count()),
        ("debruijn k=9", DeBruijn::new(9).node_count()),
        (
            "grid 13x17 holes",
            PartialGrid::random_holes(13, 17, 30, 0xC0FFEE).node_count(),
        ),
        ("corridor 9x31", PartialGrid::corridor(9, 31).node_count()),
    ]
}

#[test]
fn nodeset_bulk_ops_match_per_node_semantics() {
    for (label, n) in family_universes() {
        let a0 = random_set(n, 11);
        let b = random_set(n, 22);
        let ops: [(&str, fn(&mut NodeSet, &NodeSet), fn(bool, bool) -> bool); 4] = [
            ("union", NodeSet::union_with, |x, y| x | y),
            ("intersect", NodeSet::intersect_with, |x, y| x & y),
            ("symdiff", NodeSet::symmetric_difference_with, |x, y| x ^ y),
            ("subtract", NodeSet::subtract, |x, y| x & !y),
        ];
        for (name, op, truth) in ops {
            let mut a = a0.clone();
            op(&mut a, &b);
            for i in 0..n as u32 {
                assert_eq!(
                    a.contains(Node(i)),
                    truth(a0.contains(Node(i)), b.contains(Node(i))),
                    "{label}: {name} node {i}"
                );
            }
            assert_eq!(
                a.count_ones(),
                (0..n as u32).filter(|&i| a.contains(Node(i))).count(),
                "{label}: {name} count"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The word-parallel expansion (in-word shuffles for ports ≤ 6,
    /// word-stride XOR above) agrees with per-node neighbour enumeration,
    /// on one-word cubes and multi-word cubes alike.
    #[test]
    fn hypercube_expansion_matches_per_node_neighbours(
        d in 1u32..=12,
        seed in 0u64..u64::MAX,
    ) {
        let cube = Hypercube::new(d);
        let n = cube.node_count();
        let s = random_set(n, seed);
        let mut fast = NodeSet::new(n);
        s.hypercube_expand_into(d, &mut fast);
        let mut slow = NodeSet::new(n);
        for x in s.iter() {
            for y in cube.neighbors(x) {
                slow.insert(y);
            }
        }
        prop_assert_eq!(&fast, &slow, "d = {}", d);
    }
}
