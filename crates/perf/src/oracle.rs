//! The correctness oracle: every answer the daemon gives is checked
//! against the synchronous [`Mirror`], and every way an op can go wrong
//! is counted into `fail_share`.

use crate::spec::K;
use crate::traffic::{joins, OpKind, OpRecord, QueryPool};
use nearpeer_bench::wire::Mirror;
use nearpeer_core::protocol::{Message, WireNeighbor};
use nearpeer_core::{LandmarkId, Neighbor, PeerId, ServerConfig};

/// Failure accounting of one run. `fail_share` is every kind of failure
/// over the ops attempted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Ops sent (fences and set-up traffic excluded).
    pub attempted: u64,
    /// Replies that disagreed with the mirror or broke the reply's shape.
    pub mismatched: u64,
    /// Refusals and transport errors.
    pub errored: u64,
    /// Replies (or pushes) that did not arrive within the timeout.
    pub timed_out: u64,
    /// Ops still owed a reply when their connection ended.
    pub unanswered: u64,
}

impl Tally {
    /// Ops that failed in any way.
    pub fn failed(&self) -> u64 {
        self.mismatched + self.errored + self.timed_out + self.unanswered
    }

    /// `failed / attempted` (0 when nothing was attempted).
    pub fn fail_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }

    /// Adds another tally into this one.
    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.mismatched += other.mismatched;
        self.errored += other.errored;
        self.timed_out += other.timed_out;
        self.unanswered += other.unanswered;
    }

    /// Counts one checked reply.
    pub fn record(&mut self, verdict: Verdict) {
        match verdict {
            Verdict::Ok => {}
            Verdict::Mismatch => self.mismatched += 1,
            Verdict::Error => self.errored += 1,
        }
    }
}

/// The outcome of checking one reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The reply is what the mirror says it must be.
    Ok,
    /// The reply arrived but is wrong.
    Mismatch,
    /// The daemon refused the op or answered with the wrong frame kind.
    Error,
}

/// The mirror of a daemon started with `regions` regions.
pub fn build_mirror(regions: usize) -> Mirror {
    let config = ServerConfig {
        neighbor_count: K,
        ..ServerConfig::default()
    };
    Mirror::build(crate::spec::LANDMARKS, regions, config).expect("the synthetic world is valid")
}

/// Registers `ids` in the mirror, requiring every one to be fresh.
pub fn register(mirror: &mut Mirror, ids: impl IntoIterator<Item = u64>) {
    let joins = joins();
    let items: Vec<_> = ids.into_iter().map(|id| joins.join(id)).collect();
    let want = items.len();
    assert_eq!(mirror.register_all(items), want, "mirror refused a join");
}

/// FNV-1a over an answer's `(peer, dtree)` sequence: equal hashes mean a
/// bit-identical neighbor list.
pub fn answer_hash<'a>(pairs: impl IntoIterator<Item = (&'a PeerId, &'a u32)>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (peer, dtree) in pairs {
        eat(&peer.0.to_le_bytes());
        eat(&dtree.to_le_bytes());
    }
    hash
}

fn wire_hash(neighbors: &[WireNeighbor]) -> u64 {
    answer_hash(neighbors.iter().map(|n| (&n.peer, &n.dtree)))
}

fn mirror_hash(neighbors: &[Neighbor]) -> u64 {
    answer_hash(neighbors.iter().map(|n| (&n.peer, &n.dtree)))
}

/// Expected reply hashes of a read pool, computed from the mirror before
/// timing starts so each reply is verified bit-for-bit at O(1) during it.
#[derive(Debug, Clone)]
pub struct ExpectedAnswers(Vec<u64>);

impl ExpectedAnswers {
    /// Asks the mirror every pool query once.
    pub fn compute(mirror: &Mirror, pool: &QueryPool) -> Self {
        ExpectedAnswers(
            (0..pool.len())
                .map(|i| mirror_hash(&mirror.closest_to_path(pool.path(i), K, pool.exclude(i))))
                .collect(),
        )
    }

    /// Checks the reply to pool entry `idx`.
    pub fn check(&self, idx: u64, reply: &Message) -> Verdict {
        match reply {
            Message::QueryReply { nonce, neighbors }
                if *nonce == idx && wire_hash(neighbors) == self.0[idx as usize] =>
            {
                Verdict::Ok
            }
            Message::QueryReply { .. } => Verdict::Mismatch,
            _ => Verdict::Error,
        }
    }
}

/// Applies one logged op to the mirror and answers the neighbor-list hash
/// its reply must carry (`None` for fire-and-forget ops).
pub fn replay(mirror: &mut Mirror, pool: &QueryPool, op: &OpRecord) -> Option<u64> {
    let joins = joins();
    match op.kind {
        OpKind::Query => {
            let idx = op.subject as usize;
            Some(mirror_hash(&mirror.closest_to_path(
                pool.path(idx),
                K,
                pool.exclude(idx),
            )))
        }
        OpKind::Join => {
            let (peer, path) = joins.join(op.subject);
            mirror.register_all(vec![(peer, path.clone())]);
            Some(mirror_hash(&mirror.closest_to_path(&path, K, Some(peer))))
        }
        OpKind::Leave => {
            mirror.leave_all(&[PeerId(op.subject)]);
            None
        }
        // A renewal changes no answer (no expiry sweep runs over the wire).
        OpKind::Heartbeat => None,
        OpKind::Handover => {
            let (peer, path) = joins.join_to(op.subject, LandmarkId(op.landmark));
            let neighbors = mirror
                .handover(peer, path)
                .expect("the stream only moves present peers");
            Some(mirror_hash(&neighbors))
        }
    }
}

/// Replay-verifies a single-connection stream: the order on the wire was
/// total, so applying the same ops to the mirror predicts every reply.
pub fn replay_verify(
    mirror: &mut Mirror,
    pool: &QueryPool,
    log: &[(OpRecord, Option<Message>)],
) -> Tally {
    let mut tally = Tally::default();
    for (op, reply) in log {
        let want = replay(mirror, pool, op);
        let (Some(want), Some(reply)) = (want, reply) else {
            continue;
        };
        tally.record(match (op.kind, reply) {
            (OpKind::Query, Message::QueryReply { nonce, neighbors }) => {
                verdict(*nonce == op.subject && wire_hash(neighbors) == want)
            }
            (
                OpKind::Join | OpKind::Handover,
                Message::JoinReply {
                    peer, neighbors, ..
                },
            ) => verdict(peer.0 == op.subject && wire_hash(neighbors) == want),
            _ => Verdict::Error,
        });
    }
    tally
}

fn verdict(ok: bool) -> Verdict {
    if ok {
        Verdict::Ok
    } else {
        Verdict::Mismatch
    }
}

/// Whether a neighbor list has the shape every answer must have whatever
/// the interleaving: at most `k` entries, ascending `(dtree, peer)`, and
/// the excluded peer absent.
pub fn well_formed(neighbors: &[WireNeighbor], exclude: Option<PeerId>) -> bool {
    neighbors.len() <= K
        && neighbors
            .windows(2)
            .all(|w| (w[0].dtree, w[0].peer) < (w[1].dtree, w[1].peer))
        && neighbors.iter().all(|n| Some(n.peer) != exclude)
}

/// The structural check of a two-connection phase, where concurrent
/// writers make exact answers depend on arrival order.
pub fn check_structure(pool: &QueryPool, op: &OpRecord, reply: &Message) -> Verdict {
    match (op.kind, reply) {
        (OpKind::Query, Message::QueryReply { nonce, neighbors }) => verdict(
            *nonce == op.subject && well_formed(neighbors, pool.exclude(op.subject as usize)),
        ),
        (
            OpKind::Join | OpKind::Handover,
            Message::JoinReply {
                peer, neighbors, ..
            },
        ) => verdict(peer.0 == op.subject && well_formed(neighbors, Some(*peer))),
        _ => Verdict::Error,
    }
}

/// The check every join gets whatever the interleaving: the reply is a
/// `JoinReply` echoing the joining peer.
pub fn check_join_echo(peer: u64, reply: Option<&Message>) -> Verdict {
    match reply {
        Some(Message::JoinReply { peer: echoed, .. }) => verdict(echoed.0 == peer),
        _ => Verdict::Error,
    }
}

/// Client-side view of one standing subscription.
pub type View = Vec<WireNeighbor>;

/// The client's contract for a `DeltaPush`: drop `removed`, then upsert
/// `added`.
pub fn apply_delta(view: &mut View, added: &[WireNeighbor], removed: &[PeerId]) {
    view.retain(|n| !removed.contains(&n.peer));
    for a in added {
        match view.iter_mut().find(|n| n.peer == a.peer) {
            Some(n) => n.dtree = a.dtree,
            None => view.push(*a),
        }
    }
}

/// Whether a subscription ack carries exactly the mirror's answer for
/// `peer` (ordered, bit-for-bit).
pub fn check_snapshot(mirror: &Mirror, peer: u64, snapshot: &[WireNeighbor]) -> Verdict {
    let want = mirror.closest_to_path(&joins().path(peer), K, Some(PeerId(peer)));
    verdict(wire_hash(snapshot) == mirror_hash(&want))
}

/// Compares every delta-applied view with the mirror's current answer as
/// `(peer, dtree)` sets; answers how many differ.
pub fn diverged_views(mirror: &Mirror, subscribers: &[u64], views: &[View]) -> u64 {
    let joins = joins();
    subscribers
        .iter()
        .zip(views)
        .filter(|(&s, view)| {
            let mut want: Vec<(PeerId, u32)> = mirror
                .closest_to_path(&joins.path(s), K, Some(PeerId(s)))
                .iter()
                .map(|n| (n.peer, n.dtree))
                .collect();
            let mut got: Vec<(PeerId, u32)> = view.iter().map(|n| (n.peer, n.dtree)).collect();
            want.sort_unstable();
            got.sort_unstable();
            want != got
        })
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::ChurnStream;
    use nearpeer_bench::wire::build_service;

    fn service_and_mirror(
        ids: std::ops::Range<u64>,
    ) -> (std::sync::Arc<dyn nearpeer_core::WireService>, Mirror) {
        let config = ServerConfig {
            neighbor_count: K,
            ..ServerConfig::default()
        };
        let service = build_service(crate::spec::LANDMARKS, 1, config).unwrap();
        let joins = joins();
        for id in ids.clone() {
            let (peer, path) = joins.join(id);
            service.handle(Message::JoinRequest { peer, path }).unwrap();
        }
        let mut mirror = build_mirror(1);
        register(&mut mirror, ids);
        (service, mirror)
    }

    #[test]
    fn expected_table_accepts_true_answers_and_counts_corrupted_ones() {
        let (service, mirror) = service_and_mirror(0..500);
        let pool = QueryPool::generate(2, 500);
        let expected = ExpectedAnswers::compute(&mirror, &pool);
        let mut tally = Tally::default();
        for idx in 0..200u64 {
            let request =
                nearpeer_core::codec::decode(&mut (&pool.op(idx as usize).frame[..]).into())
                    .unwrap();
            let reply = service.handle(request).unwrap();
            tally.attempted += 1;
            tally.record(expected.check(idx, &reply));
            // The same reply with one dtree off by one must not pass.
            let Message::QueryReply {
                nonce,
                mut neighbors,
            } = reply
            else {
                panic!("not a query reply")
            };
            if let Some(first) = neighbors.first_mut() {
                first.dtree += 1;
                let corrupted = Message::QueryReply { nonce, neighbors };
                assert_eq!(expected.check(idx, &corrupted), Verdict::Mismatch);
            }
        }
        assert_eq!(tally.failed(), 0);
        // A corrupted reply is counted into fail_share.
        let corrupted = Message::QueryReply {
            nonce: 0,
            neighbors: vec![WireNeighbor {
                peer: PeerId(u64::MAX),
                dtree: 1,
            }],
        };
        tally.attempted += 1;
        tally.record(expected.check(0, &corrupted));
        assert_eq!(tally.mismatched, 1);
        assert!(tally.fail_share() > 0.0);
        // A refusal where an answer was due is an error, not a mismatch.
        let refusal = Message::JoinError {
            peer: PeerId(1),
            reason: "no".into(),
        };
        assert_eq!(expected.check(0, &refusal), Verdict::Error);
    }

    #[test]
    fn replay_verifies_a_churn_stream_and_catches_a_wrong_reply() {
        let (service, mut mirror) = service_and_mirror(0..500);
        let pool = QueryPool::generate(3, 500);
        let mut stream = ChurnStream::new(3, 2, &pool, (0..500).collect(), (500..800).collect());
        let mut log = Vec::new();
        for _ in 0..3_000 {
            let op = stream.next_op();
            let request = nearpeer_core::codec::decode(&mut (&op.frame[..]).into()).unwrap();
            log.push((op.record, service.handle(request)));
        }
        let mut clean = build_mirror(1);
        register(&mut clean, 0..500);
        assert_eq!(replay_verify(&mut clean, &pool, &log).failed(), 0);
        assert_eq!(clean.peer_count(), stream.present().len());

        // Swap two different join replies: both must be flagged.
        let joins: Vec<usize> = log
            .iter()
            .enumerate()
            .filter(|(_, (op, _))| op.kind == OpKind::Join)
            .map(|(i, _)| i)
            .take(2)
            .collect();
        let (a, b) = (joins[0], joins[1]);
        let tmp = log[a].1.clone();
        log[a].1 = log[b].1.clone();
        log[b].1 = tmp;
        assert_eq!(replay_verify(&mut mirror, &pool, &log).mismatched, 2);
    }

    #[test]
    fn structure_check_rejects_unsorted_oversized_and_self_answers() {
        let n = |peer, dtree| WireNeighbor {
            peer: PeerId(peer),
            dtree,
        };
        assert!(well_formed(&[n(4, 2), n(9, 2), n(1, 4)], Some(PeerId(7))));
        assert!(
            !well_formed(&[n(9, 2), n(4, 2)], None),
            "peer order breaks ties"
        );
        assert!(!well_formed(&[n(1, 4), n(4, 2)], None), "dtree ascending");
        assert!(
            !well_formed(&[n(7, 2)], Some(PeerId(7))),
            "excluded peer present"
        );
        let six: Vec<_> = (0..6).map(|i| n(i, i as u32)).collect();
        assert!(!well_formed(&six, None), "more than k");
        let pool = QueryPool::generate(1, 100);
        let op = OpRecord {
            kind: OpKind::Join,
            subject: 7,
            landmark: 0,
        };
        let echo_wrong = Message::JoinReply {
            peer: PeerId(8),
            neighbors: vec![],
            delegate: None,
        };
        assert_eq!(check_structure(&pool, &op, &echo_wrong), Verdict::Mismatch);
        let pong = Message::ProbePong { nonce: 1 };
        assert_eq!(check_structure(&pool, &op, &pong), Verdict::Error);
    }

    #[test]
    fn a_missing_delta_leaves_a_view_diverged() {
        let (service, mut mirror) = service_and_mirror(0..200);
        let client = service.open_client().unwrap();
        let subscribers = [10u64, 11];
        let mut views: Vec<View> = Vec::new();
        for &s in &subscribers {
            let ack = service.handle_from(
                Some(client),
                Message::Subscribe {
                    nonce: s,
                    peer: PeerId(s),
                    k: K as u16,
                    min_interval_ms: 0,
                },
            );
            let Some(Message::SubAck { neighbors, .. }) = ack else {
                panic!("no ack")
            };
            assert_eq!(check_snapshot(&mirror, s, &neighbors), Verdict::Ok);
            views.push(neighbors);
        }
        // A sibling of subscriber 10 joins: its view must change.
        let sibling = 10 + 32_768;
        let (peer, path) = joins().join(sibling);
        service.handle(Message::JoinRequest { peer, path }).unwrap();
        register(&mut mirror, [sibling]);
        let mut pushes = Vec::new();
        service.drain_pushes(client, 64, &mut pushes);
        assert!(!pushes.is_empty());
        // Dropping the deltas on the floor is detected…
        assert!(diverged_views(&mirror, &subscribers, &views) >= 1);
        // …and applying them restores set equality.
        for push in &pushes {
            let Message::DeltaPush {
                peer,
                added,
                removed,
                ..
            } = push
            else {
                panic!("not a push")
            };
            let at = subscribers.iter().position(|s| *s == peer.0).unwrap();
            apply_delta(&mut views[at], added, removed);
        }
        assert_eq!(diverged_views(&mirror, &subscribers, &views), 0);
    }
}
