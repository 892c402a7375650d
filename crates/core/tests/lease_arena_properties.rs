//! Property test: the slab-backed [`LeaseArena`] is observationally
//! identical to a naive `HashMap` reference model under arbitrary
//! interleavings of register/renew/leave/expire.

use nearpeer_core::{LeaseArena, PeerId};
use proptest::prelude::*;
use std::collections::HashMap;

/// The reference: one `HashMap` from peer to `(payload, last_seen)` plus
/// a monotone epoch — the pre-refactor layout, minus the path machinery.
#[derive(Default)]
struct ModelTable {
    leases: HashMap<u64, (u32, u64)>,
    epoch: u64,
}

impl ModelTable {
    fn insert(&mut self, peer: u64, value: u32) -> bool {
        if self.leases.contains_key(&peer) {
            return false;
        }
        self.leases.insert(peer, (value, self.epoch));
        true
    }

    fn renew(&mut self, peer: u64) -> bool {
        match self.leases.get_mut(&peer) {
            Some((_, seen)) => {
                *seen = self.epoch;
                true
            }
            None => false,
        }
    }

    fn remove(&mut self, peer: u64) -> Option<u32> {
        self.leases.remove(&peer).map(|(v, _)| v)
    }

    fn expire(&mut self, max_age: u64) -> Vec<(u64, u32)> {
        let cutoff = self.epoch.saturating_sub(max_age);
        let mut expired: Vec<(u64, u32)> = self
            .leases
            .iter()
            .filter(|&(_, &(_, seen))| seen < cutoff)
            .map(|(&p, &(v, _))| (p, v))
            .collect();
        expired.sort_unstable();
        for &(p, _) in &expired {
            self.leases.remove(&p);
        }
        expired
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert { peer: u8, value: u32 },
    Renew { peer: u8 },
    Remove { peer: u8 },
    AdvanceEpoch,
    Expire { max_age: u8 },
}

const PEERS: u64 = 20;

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u32>()).prop_map(|(peer, value)| Op::Insert {
            peer: peer % PEERS as u8,
            value
        }),
        any::<u8>().prop_map(|peer| Op::Renew {
            peer: peer % PEERS as u8
        }),
        any::<u8>().prop_map(|peer| Op::Remove {
            peer: peer % PEERS as u8
        }),
        Just(Op::AdvanceEpoch),
        any::<u8>().prop_map(|max_age| Op::Expire {
            max_age: max_age % 5
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn slab_arena_equals_hashmap_model(
        ops in prop::collection::vec(arb_op(), 1..120)
    ) {
        let mut arena: LeaseArena<u32> = LeaseArena::new();
        let mut model = ModelTable::default();

        for op in ops {
            match op {
                Op::Insert { peer, value } => {
                    let peer = peer as u64;
                    let got = arena.insert(PeerId(peer), value, model.epoch);
                    let want = model.insert(peer, value);
                    prop_assert_eq!(got, want, "insert {}", peer);
                }
                Op::Renew { peer } => {
                    let peer = peer as u64;
                    prop_assert_eq!(
                        arena.renew(PeerId(peer), model.epoch),
                        model.renew(peer),
                        "renew {}", peer
                    );
                }
                Op::Remove { peer } => {
                    let peer = peer as u64;
                    prop_assert_eq!(
                        arena.remove(PeerId(peer)),
                        model.remove(peer),
                        "remove {}", peer
                    );
                }
                Op::AdvanceEpoch => {
                    model.epoch += 1;
                }
                Op::Expire { max_age } => {
                    let want = model.expire(max_age as u64);
                    let cutoff = model.epoch.saturating_sub(max_age as u64);
                    let got: Vec<(u64, u32)> = arena
                        .take_due(cutoff + 1, 1, 1)
                        .expired
                        .into_iter()
                        .map(|e| (e.peer.0, e.value))
                        .collect();
                    prop_assert_eq!(&got, &want, "expire at cutoff {}", cutoff);
                }
            }

            // The arena matches the model after every operation.
            prop_assert_eq!(arena.len(), model.leases.len());
            prop_assert_eq!(arena.is_empty(), model.leases.is_empty());
            for p in 0..PEERS {
                let peer = PeerId(p);
                let want = model.leases.get(&p);
                prop_assert_eq!(arena.contains(peer), want.is_some(), "contains {}", p);
                prop_assert_eq!(arena.get(peer), want.map(|(v, _)| v), "payload {}", p);
                prop_assert_eq!(
                    arena.last_seen(peer),
                    want.map(|&(_, seen)| seen),
                    "last_seen {}",
                    p
                );
            }
        }
    }
}
