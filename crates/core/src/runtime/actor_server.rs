//! The management server as a [`Plane`]: its request dispatch under
//! either guard, and its subscriptions as the push channel.

use super::{answer_common, to_wire, Plane};
use crate::protocol::{Message, WireNeighbor};
use crate::server::ManagementServer;
use crate::subscription::{NeighborDelta, Subscription};
use crate::telemetry::{Gauge, TelemetryRegistry};
use std::sync::Arc;

impl Plane for ManagementServer {
    fn answer(&mut self, client: Option<u64>, msg: Message) -> Option<Message> {
        match msg {
            Message::JoinRequest { peer, path } => Some(Message::join_reply(
                peer,
                self.register(peer, path).map(|out| out.neighbors),
            )),
            Message::HandoverRequest { peer, path } => Some(Message::join_reply(
                peer,
                self.handover(peer, path).map(|out| out.neighbors),
            )),
            Message::Leave { peer } => {
                let _ = self.deregister(peer);
                None
            }
            Message::Heartbeat { peer } => {
                let _ = self.heartbeat(peer);
                None
            }
            Message::Subscribe {
                nonce,
                peer,
                k,
                min_interval_ms,
            } => Some(match client {
                Some(client) => match self.subscribe(
                    client,
                    Subscription {
                        peer,
                        k: k as usize,
                        min_interval_ms: min_interval_ms as u64,
                    },
                ) {
                    Ok(initial) => Message::SubAck {
                        nonce,
                        peer,
                        neighbors: to_wire(initial),
                    },
                    Err(e) => Message::JoinError {
                        peer,
                        reason: e.to_string(),
                    },
                },
                // No push channel: there is nowhere to deliver deltas.
                None => Message::JoinError {
                    peer,
                    reason: "subscriptions need a push-capable connection".into(),
                },
            }),
            Message::Unsubscribe { nonce, peer } => {
                self.unsubscribe(peer);
                Some(Message::SubAck {
                    nonce,
                    peer,
                    neighbors: Vec::new(),
                })
            }
            read => self.answer_read(read),
        }
    }

    fn answer_read(&self, msg: Message) -> Option<Message> {
        match msg {
            Message::QueryRequest {
                nonce,
                path,
                k,
                exclude,
            } => Some(Message::QueryReply {
                nonce,
                neighbors: to_wire(self.closest_to_path(&path, k as usize, exclude)),
            }),
            Message::FillRequest {
                nonce,
                router,
                limit,
            } => Some(Message::FillReply {
                nonce,
                items: self
                    .index()
                    .peers_through(router)
                    .take(limit as usize)
                    .map(|(peer, depth)| WireNeighbor { peer, dtree: depth })
                    .collect(),
            }),
            other => answer_common(self, other),
        }
    }

    fn telemetry(&self) -> Option<Arc<TelemetryRegistry>> {
        ManagementServer::telemetry(self)
    }

    fn push_depth(&self) -> Arc<Gauge> {
        self.sub_queue_depth()
    }

    fn set_push_clock_ms(&mut self, now_ms: u64) {
        self.set_sub_clock_ms(now_ms);
    }

    fn open_push(&mut self) -> Option<u64> {
        Some(self.open_sub_client())
    }

    fn close_push(&mut self, client: u64) {
        self.close_sub_client(client);
    }

    fn drain_push(&mut self, client: u64, max: usize, out: &mut Vec<NeighborDelta>) {
        self.drain_deltas(client, max, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CoreError;
    use crate::ids::{LandmarkId, PeerId};
    use crate::path::PeerPath;
    use crate::runtime::Shared;
    use crate::server::ServerConfig;
    use nearpeer_topology::RouterId;
    use std::time::Duration;

    fn path(ids: &[u32]) -> PeerPath {
        PeerPath::new(ids.iter().map(|&i| RouterId(i)).collect()).unwrap()
    }

    fn two_landmark_server() -> Shared<ManagementServer> {
        Shared::new(
            ManagementServer::new(
                vec![RouterId(0), RouterId(100)],
                vec![vec![0, 5], vec![5, 0]],
                ServerConfig {
                    neighbor_count: 3,
                    ..ServerConfig::default()
                },
            )
            .unwrap(),
        )
    }

    #[test]
    fn invalid_configs_are_rejected_at_construction() {
        assert!(matches!(
            ManagementServer::new(Vec::new(), Vec::new(), ServerConfig::default()),
            Err(CoreError::InvalidConfig(_))
        ));
        // Two landmarks, a 1×1 matrix: the first register under the second
        // landmark would index past the matrix.
        assert!(matches!(
            ManagementServer::new(
                vec![RouterId(0), RouterId(100)],
                vec![vec![0]],
                ServerConfig::default()
            ),
            Err(CoreError::InvalidConfig(_))
        ));
        assert!(matches!(
            ManagementServer::new(
                vec![RouterId(0)],
                vec![vec![0]],
                ServerConfig {
                    neighbor_count: 0,
                    ..ServerConfig::default()
                },
            ),
            Err(CoreError::InvalidConfig(_))
        ));
        assert!(matches!(
            ManagementServer::new(
                vec![RouterId(0)],
                vec![vec![0]],
                ServerConfig {
                    adaptive_leases: Some(crate::AdaptiveLeaseConfig {
                        min_age: 8,
                        max_age: 2,
                        ..crate::AdaptiveLeaseConfig::default()
                    }),
                    ..ServerConfig::default()
                },
            ),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn register_query_handover_deregister_roundtrip() {
        let srv = two_landmark_server();
        srv.write()
            .register(PeerId(1), path(&[4, 2, 1, 0]))
            .unwrap();
        let out = srv
            .write()
            .register(PeerId(2), path(&[5, 2, 1, 0]))
            .unwrap();
        assert_eq!(out.landmark, LandmarkId(0));
        assert_eq!(out.neighbors[0].peer, PeerId(1));
        assert_eq!(out.neighbors[0].dtree, 2);
        assert!(matches!(
            srv.write().register(PeerId(1), path(&[4, 2, 1, 0])),
            Err(CoreError::DuplicatePeer(_))
        ));
        let out = srv
            .write()
            .handover(PeerId(1), path(&[110, 105, 100]))
            .unwrap();
        assert_eq!(out.landmark, LandmarkId(1));
        // Cross-landmark answer via the bridge: depth 2 + bridge 5 + depth 3.
        assert_eq!(out.neighbors[0].peer, PeerId(2));
        assert_eq!(out.neighbors[0].dtree, 10);
        assert_eq!(srv.read().peer_count(), 2);
        srv.write().deregister(PeerId(2)).unwrap();
        assert!(matches!(
            srv.write().deregister(PeerId(2)),
            Err(CoreError::UnknownPeer(_))
        ));
        assert_eq!(srv.read().peer_count(), 1);
        let stats = srv.read().stats();
        assert_eq!((stats.joins, stats.leaves, stats.handovers), (2, 1, 1));
    }

    #[test]
    fn expiry_sweeps_unrenewed_peers() {
        let srv = two_landmark_server();
        srv.write()
            .register(PeerId(1), path(&[4, 2, 1, 0]))
            .unwrap();
        srv.write()
            .register(PeerId(2), path(&[110, 105, 100]))
            .unwrap();
        for _ in 0..3 {
            srv.write().advance_epoch().unwrap();
            srv.write().heartbeat(PeerId(1)).unwrap();
        }
        assert_eq!(srv.write().expire_stale(2), vec![PeerId(2)]);
        assert_eq!(srv.read().peer_count(), 1);
        assert!(matches!(
            srv.write().heartbeat(PeerId(2)),
            Err(CoreError::UnknownPeer(_))
        ));
    }

    #[test]
    fn subscription_tracks_churn_and_matches_repoll() {
        let srv = two_landmark_server();
        srv.write()
            .register(PeerId(1), path(&[4, 2, 1, 0]))
            .unwrap();
        srv.write()
            .register(PeerId(2), path(&[5, 2, 1, 0]))
            .unwrap();
        let client = srv.write().open_sub_client();
        let initial = srv
            .write()
            .subscribe(
                client,
                Subscription {
                    peer: PeerId(1),
                    k: 3,
                    min_interval_ms: 0,
                },
            )
            .unwrap();
        let mut view = initial;
        // Churn: a closer join, a cross-landmark join, a departure.
        srv.write()
            .register(PeerId(3), path(&[9, 4, 2, 1, 0]))
            .unwrap();
        srv.write()
            .register(PeerId(4), path(&[110, 105, 100]))
            .unwrap();
        srv.write().deregister(PeerId(2)).unwrap();
        let mut deltas = Vec::new();
        srv.write().drain_deltas(client, usize::MAX, &mut deltas);
        assert!(!deltas.is_empty());
        for d in deltas {
            view.retain(|n| !d.removed.contains(&n.peer));
            for a in d.added {
                match view.iter_mut().find(|n| n.peer == a.peer) {
                    Some(n) => n.dtree = a.dtree,
                    None => view.push(a),
                }
            }
        }
        let mut expect = srv.read().neighbors_of(PeerId(1), 3).unwrap();
        view.sort_by_key(|n| n.peer);
        expect.sort_by_key(|n| n.peer);
        assert_eq!(view, expect);
        assert_eq!(srv.read().subscription_stats().active, 1);
        srv.write().close_sub_client(client);
        assert_eq!(srv.read().subscription_stats().active, 0);
    }

    #[test]
    fn rate_limited_subscription_waits_for_the_wall_clock() {
        // Long enough that no scheduling delay between two back-to-back
        // calls below can span it.
        const INTERVAL: u64 = 500;
        let srv = two_landmark_server();
        srv.write()
            .register(PeerId(1), path(&[4, 2, 1, 0]))
            .unwrap();
        let client = srv.write().open_sub_client();
        srv.write()
            .subscribe(
                client,
                Subscription {
                    peer: PeerId(1),
                    k: 3,
                    min_interval_ms: INTERVAL,
                },
            )
            .unwrap();
        let drain = || {
            let mut out = Vec::new();
            srv.write().drain_deltas(client, usize::MAX, &mut out);
            out
        };
        // The subscribe counts as the last push: wait out one interval.
        std::thread::sleep(Duration::from_millis(INTERVAL + 50));
        srv.write()
            .register(PeerId(2), path(&[5, 2, 1, 0]))
            .unwrap();
        let first = drain();
        assert_eq!(first.len(), 1, "the interval since subscribing has passed");
        assert_eq!(first[0].added[0].peer, PeerId(2));
        // A second delta inside the interval is held, not dropped ...
        srv.write()
            .register(PeerId(3), path(&[6, 2, 1, 0]))
            .unwrap();
        assert!(drain().is_empty(), "pushed inside the interval");
        // ... and goes out once the wall clock has passed it, with no
        // write in between to advance the clock.
        std::thread::sleep(Duration::from_millis(INTERVAL + 50));
        let second = drain();
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].added[0].peer, PeerId(3));
    }

    #[test]
    fn concurrent_writers_land_on_disjoint_shards() {
        let srv = Arc::new(two_landmark_server());
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let srv = Arc::clone(&srv);
                scope.spawn(move || {
                    for i in 0..50u64 {
                        let id = 1 + t * 50 + i;
                        let p = if id % 2 == 0 {
                            path(&[1000 + id as u32, 2, 1, 0])
                        } else {
                            path(&[1000 + id as u32, 105, 100])
                        };
                        srv.write().register(PeerId(id), p).unwrap();
                        srv.read().neighbors_of(PeerId(id), 3).unwrap();
                    }
                });
            }
        });
        assert_eq!(srv.read().peer_count(), 200);
        // Every peer is findable and excluded from its own answer.
        for id in 1..=200u64 {
            let n = srv.read().neighbors_of(PeerId(id), 3).unwrap();
            assert!(n.iter().all(|x| x.peer != PeerId(id)));
            assert_eq!(n.len(), 3);
        }
    }
}
