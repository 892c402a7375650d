//! Property-based tests across crates: the RouterIndex agrees with brute
//! force on arbitrary tree-consistent path populations, the wire codec
//! round-trips arbitrary messages, and topology construction invariants
//! hold for arbitrary edge sets.

use nearpeer::core::codec::{decode, encode, CodecError};
use nearpeer::core::protocol::{Message, WireNeighbor};
use nearpeer::core::{PeerId, PeerPath, RouterIndex};
use nearpeer::topology::{RouterId, TopologyBuilder};
use proptest::prelude::*;
use std::collections::HashSet;

// ---------- generators ----------

/// A tree-consistent path population: each peer's path is a leaf-to-root
/// walk in a random 4-ary tree of depth `depth` (same construction as real
/// landmark routes: shared prefixes share the suffix).
fn tree_paths(max_peers: usize, depth: u32) -> impl Strategy<Value = Vec<PeerPath>> {
    prop::collection::vec(0u64..1_000_000, 2..max_peers).prop_map(move |leaves| {
        leaves
            .into_iter()
            .enumerate()
            .map(|(i, leaf)| {
                let mut routers = vec![RouterId(u32::MAX - i as u32)];
                for level in (0..depth).rev() {
                    let prefix = leaf % 4u64.pow(level);
                    routers.push(RouterId((level << 22) | (prefix as u32 & 0x3F_FFFF)));
                }
                PeerPath::new(routers).expect("construction is loop-free")
            })
            .collect()
    })
}

fn arb_path() -> impl Strategy<Value = PeerPath> {
    prop::collection::hash_set(0u32..100_000, 1..24).prop_map(|set| {
        let routers: Vec<RouterId> = set.into_iter().map(RouterId).collect();
        PeerPath::new(routers).expect("distinct ids are loop-free")
    })
}

fn arb_neighbor() -> impl Strategy<Value = WireNeighbor> {
    (any::<u64>(), any::<u32>()).prop_map(|(p, d)| WireNeighbor {
        peer: PeerId(p),
        dtree: d,
    })
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        any::<u64>().prop_map(|nonce| Message::ProbePing { nonce }),
        any::<u64>().prop_map(|nonce| Message::ProbePong { nonce }),
        (any::<u64>(), arb_path()).prop_map(|(p, path)| Message::JoinRequest {
            peer: PeerId(p),
            path
        }),
        (
            any::<u64>(),
            prop::collection::vec(arb_neighbor(), 0..16),
            prop::option::of(any::<u64>().prop_map(PeerId))
        )
            .prop_map(|(p, neighbors, delegate)| Message::JoinReply {
                peer: PeerId(p),
                neighbors,
                delegate,
            }),
        (any::<u64>(), ".{0,64}").prop_map(|(p, reason)| Message::JoinError {
            peer: PeerId(p),
            reason,
        }),
        any::<u64>().prop_map(|p| Message::Leave { peer: PeerId(p) }),
        (any::<u64>(), arb_path()).prop_map(|(p, path)| Message::HandoverRequest {
            peer: PeerId(p),
            path
        }),
        any::<u64>().prop_map(|p| Message::Heartbeat { peer: PeerId(p) }),
        (
            any::<u64>(),
            arb_path(),
            any::<u16>(),
            prop::option::of(any::<u64>().prop_map(PeerId))
        )
            .prop_map(|(nonce, path, k, exclude)| Message::QueryRequest {
                nonce,
                path,
                k,
                exclude,
            }),
        (any::<u64>(), prop::collection::vec(arb_neighbor(), 0..16))
            .prop_map(|(nonce, neighbors)| Message::QueryReply { nonce, neighbors }),
        (any::<u64>(), any::<u32>(), any::<u16>()).prop_map(|(nonce, r, limit)| {
            Message::FillRequest {
                nonce,
                router: RouterId(r),
                limit,
            }
        }),
        (any::<u64>(), prop::collection::vec(arb_neighbor(), 0..16))
            .prop_map(|(nonce, items)| Message::FillReply { nonce, items }),
        any::<u64>().prop_map(|nonce| Message::Shutdown { nonce }),
    ]
}

// ---------- RouterIndex vs brute force ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn query_nearest_matches_brute_force(paths in tree_paths(24, 6), k in 1usize..8) {
        let mut index = RouterIndex::new();
        for (i, path) in paths.iter().enumerate() {
            index.insert(PeerId(i as u64), path.clone()).expect("unique ids");
        }
        // Query with the first peer's path, excluding itself.
        let query = &paths[0];
        let fast = index.query_nearest(query, k, Some(PeerId(0)));

        let mut brute: Vec<(u32, PeerId)> = paths
            .iter()
            .enumerate()
            .skip(1)
            .filter_map(|(i, p)| query.dtree(p).map(|(_, d)| (d, PeerId(i as u64))))
            .collect();
        brute.sort();
        brute.truncate(k);

        let fast_pairs: Vec<(u32, PeerId)> =
            fast.iter().map(|n| (n.dtree, n.peer)).collect();
        prop_assert_eq!(fast_pairs, brute);
    }

    #[test]
    fn insert_remove_is_identity(paths in tree_paths(16, 5)) {
        let mut index = RouterIndex::new();
        for (i, path) in paths.iter().enumerate() {
            index.insert(PeerId(i as u64), path.clone()).expect("unique ids");
        }
        // Remove the odd peers; the index must behave as if they never joined.
        for i in (1..paths.len()).step_by(2) {
            prop_assert!(index.remove(PeerId(i as u64)).is_some());
        }
        let mut reference = RouterIndex::new();
        for (i, path) in paths.iter().enumerate().step_by(2) {
            reference.insert(PeerId(i as u64), path.clone()).expect("unique ids");
        }
        let query = &paths[0];
        let a = index.query_nearest(query, 8, None);
        let b = reference.query_nearest(query, 8, None);
        prop_assert_eq!(a, b);
        prop_assert_eq!(index.len(), reference.len());
        prop_assert_eq!(index.n_routers(), reference.n_routers());
    }

    #[test]
    fn dtree_is_symmetric_and_nonnegative(paths in tree_paths(12, 5)) {
        for a in &paths {
            for b in &paths {
                let ab = a.dtree(b);
                let ba = b.dtree(a);
                match (ab, ba) {
                    (Some((_, d1)), Some((_, d2))) => prop_assert_eq!(d1, d2),
                    (None, None) => {}
                    other => prop_assert!(false, "asymmetric dtree: {:?}", other),
                }
            }
        }
    }
}

// ---------- codec ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn codec_round_trips(msg in arb_message()) {
        let mut buf = bytes::BytesMut::new();
        encode(&msg, &mut buf);
        let back = decode(&mut buf).expect("own encoding must decode");
        prop_assert_eq!(back, msg);
        prop_assert!(buf.is_empty());
    }

    #[test]
    fn codec_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let mut buf = bytes::BytesMut::from(&bytes[..]);
        // Decoding may error or succeed, but must never panic, and must not
        // consume anything on Incomplete.
        let before = buf.len();
        if let Err(CodecError::Incomplete) = decode(&mut buf) { prop_assert_eq!(buf.len(), before) }
    }

    /// The transport guarantee `nearpeerd` relies on: any frame stream cut
    /// into arbitrary chunks reassembles to exactly the encoded messages,
    /// no matter where the cuts land (mid-length-prefix, mid-payload, on a
    /// boundary).
    #[test]
    fn codec_reassembles_random_chunking(
        msgs in prop::collection::vec(arb_message(), 1..6),
        chunks in prop::collection::vec(1usize..9, 1..64),
    ) {
        let mut stream = bytes::BytesMut::new();
        for m in &msgs {
            encode(m, &mut stream);
        }
        let stream: Vec<u8> = stream[..].to_vec();
        let mut buf = bytes::BytesMut::new();
        let mut decoded = Vec::new();
        let mut pos = 0usize;
        let mut next_chunk = 0usize;
        while pos < stream.len() {
            let n = chunks[next_chunk % chunks.len()].min(stream.len() - pos);
            next_chunk += 1;
            buf.extend_from_slice(&stream[pos..pos + n]);
            pos += n;
            loop {
                match decode(&mut buf) {
                    Ok(m) => decoded.push(m),
                    Err(CodecError::Incomplete) => break,
                    Err(e) => prop_assert!(false, "well-formed stream decoded to {e}"),
                }
            }
        }
        prop_assert_eq!(decoded, msgs);
        prop_assert!(buf.is_empty());
    }

    #[test]
    fn codec_survives_truncation(msg in arb_message(), cut_ratio in 0.0f64..1.0) {
        let mut full = bytes::BytesMut::new();
        encode(&msg, &mut full);
        let cut = ((full.len() as f64) * cut_ratio) as usize;
        let mut partial = bytes::BytesMut::from(&full[..cut]);
        if cut < full.len() {
            prop_assert!(matches!(decode(&mut partial), Err(CodecError::Incomplete)));
        }
    }
}

// ---------- topology invariants ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn builder_invariants_hold(
        n in 2usize..40,
        edges in prop::collection::vec((0u32..40, 0u32..40, 1u32..100_000), 0..120)
    ) {
        let mut b = TopologyBuilder::with_routers(n);
        let mut accepted = 0usize;
        for (x, y, lat) in edges {
            let (a, c) = (RouterId(x % n as u32), RouterId(y % n as u32));
            if a != c {
                b.link(a, c, lat).expect("ids in range");
                accepted += 1;
            }
        }
        let topo = b.build();
        // No self-loops, no duplicates, symmetric latencies.
        let mut seen = HashSet::new();
        for (a, c, lat) in topo.links() {
            prop_assert_ne!(a, c);
            prop_assert!(seen.insert((a, c)));
            prop_assert_eq!(topo.link_latency_us(c, a), Some(lat));
        }
        prop_assert!(topo.n_links() <= accepted);
        // Degree sum = 2 * links.
        let degree_sum: usize = topo.routers().map(|r| topo.degree(r)).sum();
        prop_assert_eq!(degree_sum, 2 * topo.n_links());
    }
}
