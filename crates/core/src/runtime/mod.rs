//! The concurrent serving plane: a synchronous facade behind one
//! `RwLock`, every operation applied on the caller's thread, and the
//! wire-facing service trait `nearpeerd` serves. Nothing here spawns a
//! thread.
//!
//! The synchronous data plane ([`crate::ManagementServer`],
//! [`crate::Federation`]) reads through `&self` but writes through
//! `&mut self`. [`Shared`] makes both halves `&self` for either of them,
//! without a second implementation of any operation:
//!
//! * [`Shared::read`] and [`Shared::write`] hand out the lock's guards,
//!   and callers call the facade's own methods under them. The write
//!   guard first advances the wall clock that rate-limits subscription
//!   pushes;
//! * on the wire ([`WireService`]) a burst of requests takes one guard:
//!   the read guard when every request only reads and no delta waits to
//!   be pushed, the write guard otherwise. A single request is a burst of
//!   one;
//! * [`Plane`] is what differs between the two facades: how a request is
//!   answered under each guard, and the push channel's hooks. A
//!   [`crate::Federation`] has no push channel and answers a client's
//!   `QueryRequest` through [`crate::Federation::closest_by_frames`],
//!   which carries the fan-out as encoded [`crate::codec`] frames.
//!
//! A write excludes the plane's readers for its duration, and a burst that
//! writes excludes them for the whole burst. Callers on any number of
//! threads (one per TCP connection in `nearpeerd`) issue reads and writes
//! without coordinating.

mod actor_federation;
mod actor_server;
mod shared;

pub use shared::Shared;

use crate::protocol::{Message, WireNeighbor};
use crate::router_index::Neighbor;
use crate::subscription::NeighborDelta;
use crate::telemetry::{Gauge, TelemetryRegistry};
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
/// serving plane behind it ([`Shared`]).
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
/// [`Message::DeltaPush`] frames ready for that client. A service without
/// subscriptions opens no client and refuses [`Message::Subscribe`].
///
/// A transport that has several requests of one connection in hand at
/// once passes them to `handle_batch`, which answers them in order with
/// the pushes that fence each reply.
pub trait WireService: Send + Sync {
    /// Handles one request message, returning the reply, if any.
    fn handle(&self, msg: Message) -> Option<Message>;

    /// Registers a connection as a push-capable client. `None` means this
    /// service has no push channel and subscription requests will be
    /// refused.
    fn open_client(&self) -> Option<u64>;

    /// Tears down a client opened by [`WireService::open_client`],
    /// dropping its subscriptions and queued pushes.
    fn close_client(&self, client: u64);

    /// Handles one request on behalf of `client` (the connection's token
    /// from [`WireService::open_client`], if any).
    fn handle_from(&self, client: Option<u64>, msg: Message) -> Option<Message>;

    /// Handles a burst of requests from `client`, draining `requests` in
    /// order. For each request it appends to `out` the pushes ready for
    /// `client` before it, then exactly one [`Outbound::Reply`], so a
    /// reply still fences every delta queued before its request. The
    /// burst applies atomically with respect to every other caller.
    fn handle_batch(
        &self,
        client: Option<u64>,
        requests: &mut Vec<Message>,
        out: &mut Vec<Outbound>,
    );

    /// Drains up to `max` server-initiated push frames ready for
    /// `client` into `out`.
    fn drain_pushes(&self, client: u64, max: usize, out: &mut Vec<Message>);

    /// The telemetry registry backing this service's
    /// [`Message::StatsRequest`] answers, if one is bound. `None` makes
    /// `StatsReply.text` empty, never an error: stats are advisory and
    /// must not take a connection down.
    fn telemetry(&self) -> Option<Arc<TelemetryRegistry>>;
}

/// What differs between the facades [`Shared`] serves: how each answers a
/// request under either guard, and the hooks of a push channel. The
/// hooks' defaults are a plane without subscriptions.
pub trait Plane: Send + Sync {
    /// Answers one request under the write guard, on behalf of `client`
    /// (the connection's push channel, if any).
    fn answer(&mut self, client: Option<u64>, msg: Message) -> Option<Message>;

    /// Answers one request that leaves the plane untouched, under either
    /// guard.
    fn answer_read(&self, msg: Message) -> Option<Message>;

    /// The registry behind [`Message::StatsRequest`] answers, if bound.
    fn telemetry(&self) -> Option<Arc<TelemetryRegistry>>;

    /// The count of subscriptions waiting to push, read without the lock.
    /// The default is a gauge nothing raises.
    fn push_depth(&self) -> Arc<Gauge> {
        Arc::default()
    }

    /// Advances the clock that rate-limits pushes to `now_ms`.
    fn set_push_clock_ms(&mut self, _now_ms: u64) {}

    /// Opens a push channel for one connection, if the plane has any.
    fn open_push(&mut self) -> Option<u64> {
        None
    }

    /// Closes a push channel opened by [`Plane::open_push`].
    fn close_push(&mut self, _client: u64) {}

    /// Drains up to `max` deltas ready for `client` into `out`.
    fn drain_push(&mut self, _client: u64, _max: usize, _out: &mut Vec<NeighborDelta>) {}
}

/// The answers every plane gives alike: pings and shutdowns are
/// acknowledged, stats render the bound registry (empty when none is
/// bound), and stray replies are dropped.
fn answer_common(plane: &impl Plane, msg: Message) -> Option<Message> {
    match msg {
        Message::ProbePing { nonce } | Message::Shutdown { nonce } => {
            Some(Message::ProbePong { nonce })
        }
        Message::StatsRequest { nonce } => Some(Message::StatsReply {
            nonce,
            text: plane
                .telemetry()
                .map(|t| t.render_text())
                .unwrap_or_default(),
        }),
        Message::ProbePong { .. }
        | Message::JoinReply { .. }
        | Message::JoinError { .. }
        | Message::QueryReply { .. }
        | Message::FillReply { .. }
        | Message::DeltaPush { .. }
        | Message::SubAck { .. }
        | Message::StatsReply { .. } => None,
        write => unreachable!("{} needs the write guard", write.kind_name()),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::PeerId;
    use crate::path::PeerPath;
    use crate::{ManagementServer, ServerConfig};
    use nearpeer_topology::RouterId;

    fn path(ids: &[u32]) -> PeerPath {
        PeerPath::new(ids.iter().map(|&i| RouterId(i)).collect()).unwrap()
    }

    fn server() -> Shared<ManagementServer> {
        Shared::new(
            ManagementServer::new(vec![RouterId(0)], vec![vec![0]], ServerConfig::default())
                .unwrap(),
        )
    }

    #[test]
    fn wire_service_maps_requests_to_replies() {
        let srv = server();
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
        assert_eq!(srv.read().peer_count(), 0);
        assert_eq!(
            srv.handle(Message::Shutdown { nonce: 3 }),
            Some(Message::ProbePong { nonce: 3 })
        );
    }

    #[test]
    fn subscribe_over_the_wire_acks_then_pushes() {
        let srv = server();
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
        assert_eq!(srv.read().subscription_stats().active, 0);
    }

    #[test]
    fn stats_request_serves_the_bound_registry() {
        let srv = server();
        // Unbound: an empty exposition, never an error.
        match srv.handle(Message::StatsRequest { nonce: 1 }) {
            Some(Message::StatsReply { nonce: 1, text }) => assert!(text.is_empty()),
            other => panic!("expected StatsReply, got {other:?}"),
        }
        let reg = Arc::new(TelemetryRegistry::new());
        srv.write().bind_telemetry(Arc::clone(&reg));
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
