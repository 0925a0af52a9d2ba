//! Pinned event streams of every fast synthesis path.
//!
//! The metrics, verdicts and `tests/golden/f3.json` pin what a trace adds
//! up to; this suite pins the trace itself. Each strategy's
//! `synthesize_into` stream is folded event by event into a 64-bit FNV-1a
//! digest, so a rewrite of a synthesizer that reorders, renumbers or drops a
//! single event fails here with the strategy and dimension.

use hypersweep::core::{DispatchOrder, NavigationMode};
use hypersweep::prelude::*;
use hypersweep::sim::{Event, EventKind, EventSink, Role};

/// FNV-1a over a canonical little-endian encoding of each event.
struct Fnv1a {
    hash: u64,
    events: u64,
}

impl Fnv1a {
    fn new() -> Self {
        Fnv1a {
            hash: 0xcbf2_9ce4_8422_2325,
            events: 0,
        }
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u32(&mut self, x: u32) {
        self.bytes(&x.to_le_bytes());
    }

    fn role(&mut self, role: Role) {
        self.bytes(&[match role {
            Role::Coordinator => 0,
            Role::Worker => 1,
        }]);
    }
}

impl EventSink for Fnv1a {
    fn emit(&mut self, event: Event) {
        self.events += 1;
        self.bytes(&event.time.to_le_bytes());
        match event.kind {
            EventKind::Spawn { agent, node, role } => {
                self.bytes(&[0]);
                self.u32(agent);
                self.u32(node.0);
                self.role(role);
            }
            EventKind::Move {
                agent,
                from,
                to,
                role,
            } => {
                self.bytes(&[1]);
                self.u32(agent);
                self.u32(from.0);
                self.u32(to.0);
                self.role(role);
            }
            EventKind::CloneSpawn {
                parent,
                child,
                from,
                to,
            } => {
                self.bytes(&[2]);
                self.u32(parent);
                self.u32(child);
                self.u32(from.0);
                self.u32(to.0);
            }
            EventKind::Terminate { agent, node } => {
                self.bytes(&[3]);
                self.u32(agent);
                self.u32(node.0);
            }
        }
    }
}

/// `(events, digest)` of one synthesized stream.
fn fingerprint(synth: impl FnOnce(&mut dyn EventSink)) -> (u64, u64) {
    let mut sink = Fnv1a::new();
    synth(&mut sink);
    (sink.events, sink.hash)
}

/// Fingerprint `synth` at d = 1..=14 and compare against `pinned`.
fn check(name: &str, pinned: &[(u64, u64); 14], synth: impl Fn(Hypercube, &mut dyn EventSink)) {
    let got: Vec<(u64, u64)> = (1..=14u32)
        .map(|d| fingerprint(|sink| synth(Hypercube::new(d), sink)))
        .collect();
    for (i, (want, have)) in pinned.iter().zip(&got).enumerate() {
        assert_eq!(
            want,
            have,
            "{name} event stream changed at d={} (all: {got:#x?})",
            i + 1
        );
    }
}

const CLEAN_VIA_MEET: [(u64, u64); 14] = [
    (10, 0x4f62f86d44855cc5),
    (26, 0xf6207bc44939d533),
    (60, 0xfa32420addf7e628),
    (130, 0xcf19367403b2af37),
    (278, 0x6e761eed8a6c4cee),
    (582, 0x20945b1cba8d4d13),
    (1224, 0x2481b73223e78166),
    (2550, 0xc39637ae36819e60),
    (5342, 0x9000ee090b190f57),
    (11120, 0xfc25ddb16d0ade4f),
    (23236, 0x308b347122440bfa),
    (48304, 0x00ce84e4b096f5f4),
    (100658, 0xd3162e41a1ac1055),
    (208858, 0x812ce3127223bed1),
];
const CLEAN_THROUGH_ROOT: [(u64, u64); 14] = [
    (10, 0x4f62f86d44855cc5),
    (26, 0xf6207bc44939d533),
    (64, 0x2e6e94ba991d9020),
    (150, 0x736643bc9b78e17b),
    (348, 0x7cac46ff5a86bd83),
    (786, 0x9769239548858c28),
    (1764, 0x9addbdbafd8d7328),
    (3894, 0xcbfda0694d78fa12),
    (8556, 0x2bbaf00455824f4b),
    (18592, 0x013693df05e56b90),
    (40256, 0x01e85fd79376995d),
    (86476, 0xe9c9e9a076002c46),
    (185240, 0x9258150652a7829f),
    (394462, 0x9a3e449135f222ad),
];
const VISIBILITY: [(u64, u64); 14] = [
    (3, 0xb854507680c73390),
    (7, 0xcd129d7010a49e1d),
    (16, 0x9fc2b9000fa1e1d6),
    (36, 0x3f1143f34149ff89),
    (80, 0x51a1f0c2c75f47ad),
    (176, 0x2dfc6ea1b43d8c1d),
    (384, 0x516980c8603821e5),
    (832, 0xef071b4b09f9e185),
    (1792, 0xc0954bd8ad5b6c15),
    (3840, 0x92d1bba26293ca1d),
    (8192, 0x68a22a90504f31a5),
    (17408, 0x9b8e02a23b01b42d),
    (36864, 0x5e5d060c8ece8bc5),
    (77824, 0xc71b67228289f275),
];
const CLONING_LARGEST_FIRST: [(u64, u64); 14] = [
    (3, 0xb854507680c73390),
    (6, 0x081a4e624dc6b077),
    (12, 0xa7eb80fefb3dc085),
    (24, 0x413e2e0a7f2afb0d),
    (48, 0xc397e4139b3548a0),
    (96, 0xb51363acb97b4b64),
    (192, 0x13702533c16d99f5),
    (384, 0x21e4ba819da4d425),
    (768, 0x9f720e9b9ac7c9d2),
    (1536, 0x8bc9d3379af21842),
    (3072, 0x5d2c9de5316bddeb),
    (6144, 0x5d1a351db36d3ab3),
    (12288, 0x4a88867feceef7da),
    (24576, 0xda940503e35e009d),
];
// The cloning synthesizer emits the §5 canonical trace whatever the
// dispatch order (the order only steers the engine's agents), so both
// orders pin the same stream today.
const CLONING_SMALLEST_FIRST: [(u64, u64); 14] = [
    (3, 0xb854507680c73390),
    (6, 0x081a4e624dc6b077),
    (12, 0xa7eb80fefb3dc085),
    (24, 0x413e2e0a7f2afb0d),
    (48, 0xc397e4139b3548a0),
    (96, 0xb51363acb97b4b64),
    (192, 0x13702533c16d99f5),
    (384, 0x21e4ba819da4d425),
    (768, 0x9f720e9b9ac7c9d2),
    (1536, 0x8bc9d3379af21842),
    (3072, 0x5d2c9de5316bddeb),
    (6144, 0x5d1a351db36d3ab3),
    (12288, 0x4a88867feceef7da),
    (24576, 0xda940503e35e009d),
];
// The synchronous variant synthesizes the visibility strategy's trace.
const SYNCHRONOUS: [(u64, u64); 14] = [
    (3, 0xb854507680c73390),
    (7, 0xcd129d7010a49e1d),
    (16, 0x9fc2b9000fa1e1d6),
    (36, 0x3f1143f34149ff89),
    (80, 0x51a1f0c2c75f47ad),
    (176, 0x2dfc6ea1b43d8c1d),
    (384, 0x516980c8603821e5),
    (832, 0xef071b4b09f9e185),
    (1792, 0xc0954bd8ad5b6c15),
    (3840, 0x92d1bba26293ca1d),
    (8192, 0x68a22a90504f31a5),
    (17408, 0x9b8e02a23b01b42d),
    (36864, 0x5e5d060c8ece8bc5),
    (77824, 0xc71b67228289f275),
];

#[test]
fn clean_via_meet_stream_is_pinned() {
    check("clean/via-meet", &CLEAN_VIA_MEET, |cube, sink| {
        CleanStrategy::with_navigation(cube, NavigationMode::ViaMeet).synthesize_into(sink);
    });
}

#[test]
fn clean_through_root_stream_is_pinned() {
    check("clean/through-root", &CLEAN_THROUGH_ROOT, |cube, sink| {
        CleanStrategy::with_navigation(cube, NavigationMode::ThroughRoot).synthesize_into(sink);
    });
}

#[test]
fn visibility_stream_is_pinned() {
    check("visibility", &VISIBILITY, |cube, sink| {
        VisibilityStrategy::new(cube).synthesize_into(sink);
    });
}

#[test]
fn cloning_streams_are_pinned() {
    check(
        "cloning/largest-first",
        &CLONING_LARGEST_FIRST,
        |cube, sink| {
            CloningStrategy::with_dispatch_order(cube, DispatchOrder::LargestSubtreeFirst)
                .synthesize_into(sink);
        },
    );
    check(
        "cloning/smallest-first",
        &CLONING_SMALLEST_FIRST,
        |cube, sink| {
            CloningStrategy::with_dispatch_order(cube, DispatchOrder::SmallestSubtreeFirst)
                .synthesize_into(sink);
        },
    );
}

#[test]
fn synchronous_stream_is_pinned() {
    check("synchronous", &SYNCHRONOUS, |cube, sink| {
        SynchronousStrategy::new(cube).synthesize_into(sink);
    });
}
