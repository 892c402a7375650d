//! The concurrent serving plane: each synchronous facade behind one
//! `RwLock`, every operation applied on the caller's thread, and the
//! wire-facing service trait `nearpeerd` serves. Nothing here spawns a
//! thread.
//!
//! The synchronous data plane ([`crate::ManagementServer`],
//! [`crate::Federation`]) reads through `&self` but writes through
//! `&mut self`. This module makes both halves `&self`, without a second
//! implementation of any operation:
//!
//! * [`ActorServer`] — a [`crate::ManagementServer`] behind one `RwLock`:
//!   a write takes the write guard and calls the facade's method, a read
//!   takes the read guard. It also owns the wall clock that rate-limits
//!   subscription pushes. On the wire it takes the lock once per burst of
//!   requests ([`WireService::handle_batch`]), not once per request;
//! * [`ActorFederation`] — a [`crate::Federation`] behind one `RwLock`,
//!   writes the same way; client queries are carried as encoded
//!   [`crate::codec`] frames (`QueryRequest`/`FillRequest` RPCs), each
//!   answered by the region-side handler under the read guard and merged
//!   order-independently;
//! * [`WireService`] — the trait both planes implement, and the only thing
//!   the `nearpeerd` TCP server needs to know about.
//!
//! A write excludes that plane's readers for its duration, and an
//! [`ActorServer`] burst that writes excludes them for the whole burst.
//! Callers on any number of threads (one per TCP connection in
//! `nearpeerd`) issue reads and writes without coordinating.

mod actor_federation;
mod actor_server;

pub use actor_federation::ActorFederation;
pub use actor_server::ActorServer;

use crate::protocol::{Message, WireNeighbor};
use crate::router_index::Neighbor;
use crate::subscription::NeighborDelta;
use crate::telemetry::TelemetryRegistry;
use std::sync::Arc;

/// One frame a burst sends back ([`WireService::handle_batch`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Outbound {
    /// A server-initiated push that was ready before the next reply.
    Push(Message),
    /// The reply to the burst's next request; `None` for a request that
    /// has none (fire-and-forget messages, stray replies).
    Reply(Option<Message>),
}

/// A directory service addressable by protocol messages — the boundary
/// between the wire (`nearpeerd`'s per-connection frame loops) and the
/// serving plane behind it ([`ActorServer`] or [`ActorFederation`]).
///
/// `handle` consumes one decoded request and returns the reply to send
/// back, or `None` for fire-and-forget messages ([`Message::Leave`],
/// [`Message::Heartbeat`]) and for messages a server ignores (stray
/// replies). [`Message::Shutdown`] is acknowledged with a
/// [`Message::ProbePong`]; acting on it (draining and exiting) is the
/// transport's business, not the service's.
///
/// Transports that keep a long-lived connection per client also get a
/// push channel: `open_client`/`close_client` bracket the connection,
/// `handle_from` routes requests that need a push channel (subscriptions)
/// to it, and `drain_pushes` collects server-initiated
/// [`Message::DeltaPush`] frames ready for that client. The defaults make
/// all of this opt-in — a service without subscriptions implements
/// `handle` alone and rejects [`Message::Subscribe`] there.
///
/// A transport that has several requests of one connection in hand at
/// once passes them to `handle_batch`, which answers them in order with
/// the pushes that fence each reply; its default is the per-request loop.
pub trait WireService: Send + Sync {
    /// Handles one request message, returning the reply, if any.
    fn handle(&self, msg: Message) -> Option<Message>;

    /// Registers a connection as a push-capable client. `None` (the
    /// default) means this service has no push channel and subscription
    /// requests will be refused by `handle`.
    fn open_client(&self) -> Option<u64> {
        None
    }

    /// Tears down a client opened by [`WireService::open_client`],
    /// dropping its subscriptions and queued pushes.
    fn close_client(&self, _client: u64) {}

    /// Handles one request on behalf of `client` (the connection's token
    /// from [`WireService::open_client`], if any). The default ignores
    /// the client and hands the message to [`WireService::handle`].
    fn handle_from(&self, _client: Option<u64>, msg: Message) -> Option<Message> {
        self.handle(msg)
    }

    /// Handles a burst of requests from `client`, draining `requests` in
    /// order. For each request it appends to `out` the pushes ready for
    /// `client` before it, then exactly one [`Outbound::Reply`], so a
    /// reply still fences every delta queued before its request.
    ///
    /// The default is the per-request loop: [`WireService::drain_pushes`],
    /// then [`WireService::handle_from`]. [`ActorServer`] overrides it to
    /// take its lock once for the whole burst, which then applies
    /// atomically with respect to every other caller.
    fn handle_batch(
        &self,
        client: Option<u64>,
        requests: &mut Vec<Message>,
        out: &mut Vec<Outbound>,
    ) {
        let mut pushes = Vec::new();
        for msg in requests.drain(..) {
            if let Some(client) = client {
                self.drain_pushes(client, usize::MAX, &mut pushes);
                out.extend(pushes.drain(..).map(Outbound::Push));
            }
            out.push(Outbound::Reply(self.handle_from(client, msg)));
        }
    }

    /// Drains up to `max` server-initiated push frames ready for
    /// `client` into `out`. The default pushes nothing.
    fn drain_pushes(&self, _client: u64, _max: usize, _out: &mut Vec<Message>) {}

    /// The telemetry registry backing this service's
    /// [`Message::StatsRequest`] answers, if one is bound. The default —
    /// `None` — makes `StatsReply.text` empty, never an error: stats are
    /// advisory and must not take a connection down.
    fn telemetry(&self) -> Option<Arc<TelemetryRegistry>> {
        None
    }
}

/// The [`Message::StatsRequest`] answer every service shares: render the
/// bound registry, or an empty exposition when none is bound.
fn stats_reply(telemetry: Option<Arc<TelemetryRegistry>>, nonce: u64) -> Message {
    Message::StatsReply {
        nonce,
        text: telemetry.map(|t| t.render_text()).unwrap_or_default(),
    }
}

/// Converts an answer list to its wire form.
fn to_wire(neighbors: Vec<Neighbor>) -> Vec<WireNeighbor> {
    neighbors
        .into_iter()
        .map(|n| WireNeighbor {
            peer: n.peer,
            dtree: n.dtree,
        })
        .collect()
}

/// A drained subscription delta as its wire push.
fn delta_push(d: NeighborDelta) -> Message {
    Message::DeltaPush {
        peer: d.peer,
        epoch: d.epoch,
        class: d.class.code(),
        added: to_wire(d.added),
        removed: d.removed,
    }
}

impl WireService for ActorFederation {
    fn handle(&self, msg: Message) -> Option<Message> {
        match msg {
            Message::ProbePing { nonce } => Some(Message::ProbePong { nonce }),
            Message::JoinRequest { peer, path } => Some(Message::join_reply(
                peer,
                self.register(peer, path).map(|out| out.neighbors),
            )),
            Message::HandoverRequest { peer, path } => Some(Message::join_reply(
                peer,
                self.handover(peer, path).map(|out| out.neighbors),
            )),
            Message::Leave { peer } => {
                self.leave_batch(&[peer]);
                None
            }
            Message::Heartbeat { peer } => {
                self.renew_batch(&[peer]);
                None
            }
            Message::QueryRequest {
                nonce,
                path,
                k,
                exclude,
            } => Some(Message::QueryReply {
                nonce,
                // Client-facing queries get the full federated answer
                // (fan-out + bridge fills); the region-side frame
                // handler's QueryRequest stays exact-candidates-only.
                neighbors: to_wire(self.closest_to_path(&path, k as usize, exclude)),
            }),
            Message::FillRequest { nonce, .. } => Some(Message::FillReply {
                nonce,
                items: Vec::new(),
            }),
            Message::Shutdown { nonce } => Some(Message::ProbePong { nonce }),
            // A federated answer is merged across regions per query; a
            // standing subscription would have to re-merge on every churn
            // event in every region. Until that exists, refuse loudly
            // rather than serve region-local (wrong) deltas.
            Message::Subscribe { peer, .. } => Some(Message::JoinError {
                peer,
                reason: "subscriptions are not supported on a federated front door".into(),
            }),
            Message::Unsubscribe { nonce, peer } => Some(Message::SubAck {
                nonce,
                peer,
                neighbors: Vec::new(),
            }),
            Message::StatsRequest { nonce } => Some(stats_reply(self.telemetry(), nonce)),
            Message::ProbePong { .. }
            | Message::JoinReply { .. }
            | Message::JoinError { .. }
            | Message::QueryReply { .. }
            | Message::FillReply { .. }
            | Message::DeltaPush { .. }
            | Message::SubAck { .. }
            | Message::StatsReply { .. } => None,
        }
    }

    fn telemetry(&self) -> Option<Arc<TelemetryRegistry>> {
        ActorFederation::telemetry(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::PeerId;
    use crate::path::PeerPath;
    use crate::ServerConfig;
    use nearpeer_topology::RouterId;

    fn path(ids: &[u32]) -> PeerPath {
        PeerPath::new(ids.iter().map(|&i| RouterId(i)).collect()).unwrap()
    }

    #[test]
    fn wire_service_maps_requests_to_replies() {
        let srv =
            ActorServer::new(vec![RouterId(0)], vec![vec![0]], ServerConfig::default()).unwrap();
        assert_eq!(
            srv.handle(Message::ProbePing { nonce: 7 }),
            Some(Message::ProbePong { nonce: 7 })
        );
        let reply = srv
            .handle(Message::JoinRequest {
                peer: PeerId(1),
                path: path(&[4, 2, 1, 0]),
            })
            .unwrap();
        assert!(matches!(
            reply,
            Message::JoinReply {
                peer: PeerId(1),
                ..
            }
        ));
        // Duplicate turns into a JoinError carried on the wire.
        let reply = srv
            .handle(Message::JoinRequest {
                peer: PeerId(1),
                path: path(&[4, 2, 1, 0]),
            })
            .unwrap();
        assert!(matches!(
            reply,
            Message::JoinError {
                peer: PeerId(1),
                ..
            }
        ));
        let reply = srv
            .handle(Message::QueryRequest {
                nonce: 9,
                path: path(&[5, 2, 1, 0]),
                k: 3,
                exclude: None,
            })
            .unwrap();
        match reply {
            Message::QueryReply { nonce, neighbors } => {
                assert_eq!(nonce, 9);
                assert_eq!(neighbors.len(), 1);
                assert_eq!(neighbors[0].peer, PeerId(1));
            }
            other => panic!("expected QueryReply, got {}", other.kind_name()),
        }
        assert_eq!(srv.handle(Message::Leave { peer: PeerId(1) }), None);
        assert_eq!(srv.peer_count(), 0);
        assert_eq!(
            srv.handle(Message::Shutdown { nonce: 3 }),
            Some(Message::ProbePong { nonce: 3 })
        );
    }

    #[test]
    fn subscribe_over_the_wire_acks_then_pushes() {
        let srv =
            ActorServer::new(vec![RouterId(0)], vec![vec![0]], ServerConfig::default()).unwrap();
        srv.handle(Message::JoinRequest {
            peer: PeerId(1),
            path: path(&[4, 2, 1, 0]),
        });
        // Clientless subscribe is refused: no push channel to deliver on.
        assert!(matches!(
            srv.handle_from(
                None,
                Message::Subscribe {
                    nonce: 1,
                    peer: PeerId(1),
                    k: 3,
                    min_interval_ms: 0,
                }
            ),
            Some(Message::JoinError { .. })
        ));
        let client = srv.open_client().expect("actor server is push-capable");
        let ack = srv
            .handle_from(
                Some(client),
                Message::Subscribe {
                    nonce: 2,
                    peer: PeerId(1),
                    k: 3,
                    min_interval_ms: 0,
                },
            )
            .unwrap();
        match ack {
            Message::SubAck {
                nonce, neighbors, ..
            } => {
                assert_eq!(nonce, 2);
                assert!(neighbors.is_empty(), "nobody else registered yet");
            }
            other => panic!("expected SubAck, got {}", other.kind_name()),
        }
        srv.handle(Message::JoinRequest {
            peer: PeerId(2),
            path: path(&[5, 2, 1, 0]),
        });
        let mut pushes = Vec::new();
        srv.drain_pushes(client, usize::MAX, &mut pushes);
        assert_eq!(pushes.len(), 1);
        match &pushes[0] {
            Message::DeltaPush {
                peer,
                class,
                added,
                removed,
                ..
            } => {
                assert_eq!(*peer, PeerId(1));
                assert_eq!(*class, crate::subscription::DeltaClass::Join.code());
                assert_eq!(added.len(), 1);
                assert_eq!(added[0].peer, PeerId(2));
                assert!(removed.is_empty());
            }
            other => panic!("expected DeltaPush, got {}", other.kind_name()),
        }
        // Unsubscribe through plain handle works (no push channel needed).
        assert!(matches!(
            srv.handle(Message::Unsubscribe {
                nonce: 3,
                peer: PeerId(1)
            }),
            Some(Message::SubAck { nonce: 3, .. })
        ));
        srv.close_client(client);
        assert_eq!(srv.subscription_stats().active, 0);
    }

    #[test]
    fn stats_request_serves_the_bound_registry() {
        let srv =
            ActorServer::new(vec![RouterId(0)], vec![vec![0]], ServerConfig::default()).unwrap();
        // Unbound: an empty exposition, never an error.
        match srv.handle(Message::StatsRequest { nonce: 1 }) {
            Some(Message::StatsReply { nonce: 1, text }) => assert!(text.is_empty()),
            other => panic!("expected StatsReply, got {other:?}"),
        }
        let reg = Arc::new(TelemetryRegistry::new());
        srv.bind_telemetry(Arc::clone(&reg));
        srv.handle(Message::JoinRequest {
            peer: PeerId(1),
            path: path(&[4, 2, 1, 0]),
        });
        srv.handle(Message::QueryRequest {
            nonce: 2,
            path: path(&[5, 2, 1, 0]),
            k: 3,
            exclude: None,
        });
        match srv.handle(Message::StatsRequest { nonce: 3 }) {
            Some(Message::StatsReply { nonce: 3, text }) => {
                // The join answers with neighbors (one query) plus the
                // explicit QueryRequest: two directory queries.
                assert_eq!(
                    crate::telemetry::find_metric(&text, "dir_queries_total"),
                    Some(2)
                );
                assert_eq!(
                    crate::telemetry::find_metric(&text, "dir_query_latency_us_count"),
                    Some(2)
                );
                assert!(
                    !text.contains("mailbox=\"shard\""),
                    "shard writes cross no mailbox, so none is exported"
                );
            }
            other => panic!("expected StatsReply, got {other:?}"),
        }
    }
}
