//! The join-protocol messages.
//!
//! The protocol is deliberately small — it is a short paper's protocol:
//!
//! 1. newcomer → landmark: [`Message::ProbePing`] (RTT estimation to pick
//!    the closest landmark); landmark → newcomer: [`Message::ProbePong`];
//! 2. newcomer runs its traceroute (outside the message plane — it talks to
//!    routers, not peers), then newcomer → server: [`Message::JoinRequest`]
//!    carrying the discovered [`PeerPath`];
//! 3. server → newcomer: [`Message::JoinReply`] with the closest peers.
//!
//! Churn and mobility add [`Message::Leave`] and
//! [`Message::HandoverRequest`] (answered by another [`Message::JoinReply`]).

use crate::error::CoreError;
use crate::ids::PeerId;
use crate::path::PeerPath;
use crate::router_index::Neighbor;
use nearpeer_topology::RouterId;
use serde::{Deserialize, Serialize};

/// One inferred neighbor as carried on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireNeighbor {
    /// The neighbor's peer id.
    pub peer: PeerId,
    /// The server's `dtree` estimate in hops.
    pub dtree: u32,
}

/// Every message of the discovery protocol.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Message {
    /// RTT probe towards a landmark (round 1 preliminary).
    ProbePing {
        /// Echo token correlating ping and pong.
        nonce: u64,
    },
    /// The landmark's answer.
    ProbePong {
        /// The echoed token.
        nonce: u64,
    },
    /// Round 1 → 2 transition: the newcomer ships its router path.
    JoinRequest {
        /// The joining peer.
        peer: PeerId,
        /// The traceroute-discovered path to its closest landmark.
        path: PeerPath,
    },
    /// Round 2 answer: the server's "short list of peers that are the
    /// closest".
    JoinReply {
        /// The peer being answered.
        peer: PeerId,
        /// Closest peers, nearest first.
        neighbors: Vec<WireNeighbor>,
        /// A regional super-peer the newcomer may query next time. No
        /// server fills it: super-peer promotion is the W2 study's own
        /// policy, not the directory's. The field stays so the frame
        /// layout, and every client that decodes it, is unchanged.
        delegate: Option<PeerId>,
    },
    /// Join refusal (unknown landmark, malformed path, duplicate id).
    JoinError {
        /// The peer being refused.
        peer: PeerId,
        /// Human-readable reason.
        reason: String,
    },
    /// Graceful departure.
    Leave {
        /// The departing peer.
        peer: PeerId,
    },
    /// Mobility: the peer re-attached and re-traced (W3).
    HandoverRequest {
        /// The moving peer.
        peer: PeerId,
        /// Its fresh path from the new attachment point.
        path: PeerPath,
    },
    /// Soft-state refresh: "still alive" (faulty-peer management, W3).
    Heartbeat {
        /// The live peer.
        peer: PeerId,
    },
    /// Closest-peer query for an arbitrary path — the serving plane's hot
    /// read. Carried both client→server (a registered peer refreshing its
    /// neighbor list with its own stored path and `exclude = itself`) and
    /// server→server (the federation front door fanning the same query out
    /// to its regions as RPC frames).
    QueryRequest {
        /// Correlates the reply when requests are pipelined or fanned out.
        nonce: u64,
        /// The query path (a stored peer path or an arbitrary probe path).
        path: PeerPath,
        /// Neighbors wanted.
        k: u16,
        /// A peer to leave out of the answer (usually the asker).
        exclude: Option<PeerId>,
    },
    /// The answer to a [`Message::QueryRequest`].
    QueryReply {
        /// The echoed request nonce.
        nonce: u64,
        /// Closest peers, nearest first.
        neighbors: Vec<WireNeighbor>,
    },
    /// Bridge-fill RPC (server→server): the first `limit` peers of the
    /// ordered peers-through-router cursor at `router`, nearest first.
    /// The federation front door merges these prefixes exactly like the
    /// in-process k-way fill merges live cursors.
    FillRequest {
        /// Correlates the reply.
        nonce: u64,
        /// The landmark router whose cursor is requested.
        router: RouterId,
        /// Cursor prefix length wanted.
        limit: u16,
    },
    /// The answer to a [`Message::FillRequest`]: `(peer, depth)` pairs in
    /// cursor order ([`WireNeighbor::dtree`] carries the depth below the
    /// requested router, not a full tree distance).
    FillReply {
        /// The echoed request nonce.
        nonce: u64,
        /// Cursor prefix, nearest first.
        items: Vec<WireNeighbor>,
    },
    /// Administrative: ask the server to drain and exit (answered with a
    /// [`Message::ProbePong`] echoing the nonce before the socket closes).
    /// Servers may refuse it from untrusted peers by dropping it.
    Shutdown {
        /// Echo token for the acknowledging pong.
        nonce: u64,
    },
    /// Standing subscription: "push me deltas of my `k` nearest" for a
    /// registered peer (answered with a [`Message::SubAck`] carrying the
    /// initial snapshot, then server-initiated [`Message::DeltaPush`]es on
    /// the same connection as churn touches the answer).
    Subscribe {
        /// Correlates the acknowledging [`Message::SubAck`].
        nonce: u64,
        /// The subscribing peer (must be registered on this server).
        peer: PeerId,
        /// Neighbors watched.
        k: u16,
        /// Minimum milliseconds between pushes; deltas inside the window
        /// coalesce server-side.
        min_interval_ms: u32,
    },
    /// Cancels a standing subscription (answered with an empty
    /// [`Message::SubAck`]).
    Unsubscribe {
        /// Correlates the acknowledging [`Message::SubAck`].
        nonce: u64,
        /// The unsubscribing peer.
        peer: PeerId,
    },
    /// Server-initiated incremental update to a subscription's answer:
    /// drop `removed`, then upsert `added` (an entry for a peer already in
    /// the view replaces its stale `dtree`).
    DeltaPush {
        /// The subscriber this delta belongs to.
        peer: PeerId,
        /// Server epoch of the last churn event merged into this delta.
        epoch: u64,
        /// Delivery class ([`crate::subscription::DeltaClass`] code):
        /// 0 join, 1 expiry, 2 handover.
        class: u8,
        /// Peers entering the answer (or with a changed `dtree`).
        added: Vec<WireNeighbor>,
        /// Peers leaving the answer.
        removed: Vec<PeerId>,
    },
    /// Acknowledges a [`Message::Subscribe`] (with the initial answer
    /// snapshot) or an [`Message::Unsubscribe`] (empty).
    SubAck {
        /// The echoed request nonce.
        nonce: u64,
        /// The subscriber.
        peer: PeerId,
        /// Initial answer snapshot, nearest first (empty on unsubscribe).
        neighbors: Vec<WireNeighbor>,
    },
    /// Administrative: pull the server's live telemetry (answered with a
    /// [`Message::StatsReply`]). Read-only and side-effect-free, so safe
    /// to serve to any connected peer.
    StatsRequest {
        /// Correlates the reply.
        nonce: u64,
    },
    /// The answer to a [`Message::StatsRequest`]: the full registry in
    /// the stable text exposition (one `name{labels} value` per line,
    /// histograms as `_count`/`_sum`/`_max`/quantile series, slow-query
    /// ring as trailing `# slow_query …` comments).
    StatsReply {
        /// The echoed request nonce.
        nonce: u64,
        /// Rendered telemetry snapshot.
        text: String,
    },
}

impl Message {
    /// The server's reply to a join or handover: its answer, or its
    /// refusal. `delegate` is always `None`.
    pub(crate) fn join_reply(peer: PeerId, answer: Result<Vec<Neighbor>, CoreError>) -> Self {
        match answer {
            Ok(neighbors) => Message::JoinReply {
                peer,
                neighbors: neighbors
                    .into_iter()
                    .map(|n| WireNeighbor {
                        peer: n.peer,
                        dtree: n.dtree,
                    })
                    .collect(),
                delegate: None,
            },
            Err(e) => Message::JoinError {
                peer,
                reason: e.to_string(),
            },
        }
    }

    /// Largest discriminant [`Self::kind`] returns: kinds run
    /// `1..=MAX_KIND`, so a table indexed by kind needs `MAX_KIND + 1`
    /// slots.
    pub const MAX_KIND: u8 = 19;

    /// Discriminant used by the wire codec.
    pub fn kind(&self) -> u8 {
        match self {
            Message::ProbePing { .. } => 1,
            Message::ProbePong { .. } => 2,
            Message::JoinRequest { .. } => 3,
            Message::JoinReply { .. } => 4,
            Message::JoinError { .. } => 5,
            Message::Leave { .. } => 6,
            Message::HandoverRequest { .. } => 7,
            Message::Heartbeat { .. } => 8,
            Message::QueryRequest { .. } => 9,
            Message::QueryReply { .. } => 10,
            Message::FillRequest { .. } => 11,
            Message::FillReply { .. } => 12,
            Message::Shutdown { .. } => 13,
            Message::Subscribe { .. } => 14,
            Message::Unsubscribe { .. } => 15,
            Message::DeltaPush { .. } => 16,
            Message::SubAck { .. } => 17,
            Message::StatsRequest { .. } => 18,
            Message::StatsReply { .. } => 19,
        }
    }

    /// Short name for logs.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Message::ProbePing { .. } => "probe-ping",
            Message::ProbePong { .. } => "probe-pong",
            Message::JoinRequest { .. } => "join-request",
            Message::JoinReply { .. } => "join-reply",
            Message::JoinError { .. } => "join-error",
            Message::Leave { .. } => "leave",
            Message::HandoverRequest { .. } => "handover-request",
            Message::Heartbeat { .. } => "heartbeat",
            Message::QueryRequest { .. } => "query-request",
            Message::QueryReply { .. } => "query-reply",
            Message::FillRequest { .. } => "fill-request",
            Message::FillReply { .. } => "fill-reply",
            Message::Shutdown { .. } => "shutdown",
            Message::Subscribe { .. } => "subscribe",
            Message::Unsubscribe { .. } => "unsubscribe",
            Message::DeltaPush { .. } => "delta-push",
            Message::SubAck { .. } => "sub-ack",
            Message::StatsRequest { .. } => "stats-request",
            Message::StatsReply { .. } => "stats-reply",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_distinct() {
        let path = PeerPath::new(vec![RouterId(1), RouterId(0)]).unwrap();
        let msgs = vec![
            Message::ProbePing { nonce: 1 },
            Message::ProbePong { nonce: 1 },
            Message::JoinRequest {
                peer: PeerId(1),
                path: path.clone(),
            },
            Message::JoinReply {
                peer: PeerId(1),
                neighbors: vec![],
                delegate: None,
            },
            Message::JoinError {
                peer: PeerId(1),
                reason: "r".into(),
            },
            Message::Leave { peer: PeerId(1) },
            Message::HandoverRequest {
                peer: PeerId(1),
                path: path.clone(),
            },
            Message::Heartbeat { peer: PeerId(1) },
            Message::QueryRequest {
                nonce: 1,
                path,
                k: 5,
                exclude: Some(PeerId(1)),
            },
            Message::QueryReply {
                nonce: 1,
                neighbors: vec![],
            },
            Message::FillRequest {
                nonce: 2,
                router: RouterId(1),
                limit: 8,
            },
            Message::FillReply {
                nonce: 2,
                items: vec![],
            },
            Message::Shutdown { nonce: 3 },
            Message::Subscribe {
                nonce: 4,
                peer: PeerId(1),
                k: 8,
                min_interval_ms: 250,
            },
            Message::Unsubscribe {
                nonce: 5,
                peer: PeerId(1),
            },
            Message::DeltaPush {
                peer: PeerId(1),
                epoch: 9,
                class: 2,
                added: vec![],
                removed: vec![PeerId(2)],
            },
            Message::SubAck {
                nonce: 4,
                peer: PeerId(1),
                neighbors: vec![],
            },
            Message::StatsRequest { nonce: 6 },
            Message::StatsReply {
                nonce: 6,
                text: "queries_total 1\n".into(),
            },
        ];
        let mut kinds: Vec<u8> = msgs.iter().map(Message::kind).collect();
        kinds.sort();
        kinds.dedup();
        assert_eq!(kinds.len(), msgs.len());
        assert_eq!(kinds.first(), Some(&1));
        assert_eq!(kinds.last(), Some(&Message::MAX_KIND));
        for m in &msgs {
            assert!(!m.kind_name().is_empty());
        }
    }
}
