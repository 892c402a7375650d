//! Protocol endpoints for `nearpeer-sim` — the end-to-end join in simulated
//! time (experiments C3 and A2).
//!
//! The actors speak [`Message`] over the simulator's link model. State the
//! experiment wants back out (join time, received neighbor list) is shared
//! through `Rc<RefCell<..>>` handles, keeping the `Actor` trait free of
//! downcasting machinery (the simulator is single-threaded by design).

use crate::ids::PeerId;
use crate::path::PeerPath;
use crate::protocol::{Message, WireNeighbor};
use crate::server::ManagementServer;
use nearpeer_sim::{Actor, Context, NodeId, SimTime, TimerId};
use std::cell::RefCell;
use std::rc::Rc;

const TIMER_PROBES_DONE: TimerId = TimerId(1);
const TIMER_TRACE_DONE: TimerId = TimerId(2);

/// The management server as a simulator actor. The wrapped
/// [`ManagementServer`] stays accessible to the experiment through the
/// shared handle.
pub struct ServerActor {
    server: Rc<RefCell<ManagementServer>>,
}

impl ServerActor {
    /// Wraps a shared management server.
    pub fn new(server: Rc<RefCell<ManagementServer>>) -> Self {
        Self { server }
    }
}

impl Actor<Message> for ServerActor {
    fn on_message(&mut self, ctx: &mut Context<'_, Message>, from: NodeId, msg: Message) {
        match msg {
            Message::JoinRequest { peer, path } => {
                let outcome = self.server.borrow_mut().register(peer, path);
                ctx.send(
                    from,
                    Message::join_reply(peer, outcome.map(|out| out.neighbors)),
                );
            }
            Message::HandoverRequest { peer, path } => {
                let outcome = self.server.borrow_mut().handover(peer, path);
                ctx.send(
                    from,
                    Message::join_reply(peer, outcome.map(|out| out.neighbors)),
                );
            }
            Message::Leave { peer } => {
                // Departure of an unknown peer is not an error worth a
                // reply; drop silently (the peer is gone anyway).
                let _ = self.server.borrow_mut().deregister(peer);
            }
            Message::Heartbeat { peer } => {
                let _ = self.server.borrow_mut().heartbeat(peer);
            }
            // A server ignores probe traffic (landmarks answer that).
            _ => {}
        }
    }
}

/// A landmark endpoint: answers RTT probes.
pub struct LandmarkActor;

impl Actor<Message> for LandmarkActor {
    fn on_message(&mut self, ctx: &mut Context<'_, Message>, from: NodeId, msg: Message) {
        if let Message::ProbePing { nonce } = msg {
            ctx.send(from, Message::ProbePong { nonce });
        }
    }
}

/// What a [`PeerActor`] learned by the end of its join, shared with the
/// experiment.
#[derive(Debug, Default, Clone)]
pub struct JoinRecord {
    /// When the JoinReply arrived (the setup delay endpoint).
    pub joined_at: Option<SimTime>,
    /// When the peer started (set at `on_start`).
    pub started_at: Option<SimTime>,
    /// The landmark index the peer picked (argmin probe RTT).
    pub chosen_landmark: Option<usize>,
    /// The neighbor list received from the server.
    pub neighbors: Vec<WireNeighbor>,
    /// Probe pongs received.
    pub pongs: usize,
    /// True if the server refused the join.
    pub refused: bool,
}

impl JoinRecord {
    /// Total setup delay, if the join completed.
    pub fn setup_delay_us(&self) -> Option<u64> {
        match (self.started_at, self.joined_at) {
            (Some(s), Some(j)) => Some(j.saturating_since(s)),
            _ => None,
        }
    }
}

/// A joining peer: probes all landmarks, "runs" its traceroute (a timer of
/// the probe-accounted duration), then sends the join request for the
/// closest landmark's path.
pub struct PeerActor {
    id: PeerId,
    server: NodeId,
    landmarks: Vec<NodeId>,
    /// Per landmark: the pre-computed traceroute outcome `(path, cost_us)`
    /// (from `nearpeer-probe`); `None` if that landmark is unreachable.
    traces: Vec<Option<(PeerPath, u64)>>,
    probe_timeout_us: u64,
    probe_rtts: Vec<Option<u64>>,
    probe_sent_at: Vec<SimTime>,
    record: Rc<RefCell<JoinRecord>>,
}

impl PeerActor {
    /// Creates a joining peer.
    ///
    /// `traces[i]` is the traceroute result towards `landmarks[i]`.
    pub fn new(
        id: PeerId,
        server: NodeId,
        landmarks: Vec<NodeId>,
        traces: Vec<Option<(PeerPath, u64)>>,
        probe_timeout_us: u64,
        record: Rc<RefCell<JoinRecord>>,
    ) -> Self {
        let n = landmarks.len();
        Self {
            id,
            server,
            landmarks,
            traces,
            probe_timeout_us,
            probe_rtts: vec![None; n],
            probe_sent_at: vec![SimTime::ZERO; n],
            record,
        }
    }

    fn start_trace(&mut self, ctx: &mut Context<'_, Message>) {
        // Closest landmark by measured RTT; unprobed landmarks lose.
        let chosen = self
            .probe_rtts
            .iter()
            .enumerate()
            .filter_map(|(i, rtt)| rtt.map(|r| (r, i)))
            .min()
            .map(|(_, i)| i);
        // Fall back to the first traceable landmark if every probe was lost.
        let chosen = chosen.or_else(|| self.traces.iter().position(Option::is_some));
        let Some(idx) = chosen else {
            return; // nothing reachable: the join dies here
        };
        let Some((_, trace_cost)) = self.traces[idx].as_ref() else {
            return;
        };
        self.record.borrow_mut().chosen_landmark = Some(idx);
        ctx.set_timer(*trace_cost, TIMER_TRACE_DONE);
    }
}

impl Actor<Message> for PeerActor {
    fn on_start(&mut self, ctx: &mut Context<'_, Message>) {
        self.record.borrow_mut().started_at = Some(ctx.now());
        if self.landmarks.is_empty() {
            // Degenerate config: skip probing, trace to whatever we have.
            self.start_trace(ctx);
            return;
        }
        for (i, &lm) in self.landmarks.iter().enumerate() {
            self.probe_sent_at[i] = ctx.now();
            ctx.send(lm, Message::ProbePing { nonce: i as u64 });
        }
        ctx.set_timer(self.probe_timeout_us, TIMER_PROBES_DONE);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Message>, _from: NodeId, msg: Message) {
        match msg {
            Message::ProbePong { nonce } => {
                let i = nonce as usize;
                if i < self.probe_rtts.len() && self.probe_rtts[i].is_none() {
                    self.probe_rtts[i] = Some(ctx.now().saturating_since(self.probe_sent_at[i]));
                    let mut rec = self.record.borrow_mut();
                    rec.pongs += 1;
                    let all = rec.pongs == self.landmarks.len();
                    drop(rec);
                    if all {
                        self.start_trace(ctx);
                    }
                }
            }
            Message::JoinReply {
                peer, neighbors, ..
            } if peer == self.id => {
                let mut rec = self.record.borrow_mut();
                rec.joined_at = Some(ctx.now());
                rec.neighbors = neighbors;
            }
            Message::JoinError { peer, .. } if peer == self.id => {
                self.record.borrow_mut().refused = true;
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Message>, id: TimerId) {
        match id {
            TIMER_PROBES_DONE
                // Proceed with whatever pongs arrived, unless the trace
                // already started (all pongs in).
                if self.record.borrow().chosen_landmark.is_none() => {
                    self.start_trace(ctx);
                }
            TIMER_TRACE_DONE => {
                let Some(idx) = self.record.borrow().chosen_landmark else {
                    return;
                };
                if let Some((path, _)) = self.traces[idx].clone() {
                    ctx.send(
                        self.server,
                        Message::JoinRequest {
                            peer: self.id,
                            path,
                        },
                    );
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;
    use nearpeer_sim::links::Fixed;
    use nearpeer_sim::Simulator;
    use nearpeer_topology::RouterId;

    fn path(ids: &[u32]) -> PeerPath {
        PeerPath::new(ids.iter().map(|&i| RouterId(i)).collect()).unwrap()
    }

    fn shared_server() -> Rc<RefCell<ManagementServer>> {
        Rc::new(RefCell::new(
            ManagementServer::new(
                vec![RouterId(0), RouterId(100)],
                vec![vec![0, 4], vec![4, 0]],
                ServerConfig::default(),
            )
            .unwrap(),
        ))
    }

    #[test]
    fn full_join_sequence() {
        let server = shared_server();
        let mut sim: Simulator<Message, Fixed> = Simulator::new(Fixed(1_000), 1);
        let srv = sim.add_actor(Box::new(ServerActor::new(server.clone())));
        let lm0 = sim.add_actor(Box::new(LandmarkActor));
        let lm1 = sim.add_actor(Box::new(LandmarkActor));

        let rec = Rc::new(RefCell::new(JoinRecord::default()));
        let peer = PeerActor::new(
            PeerId(1),
            srv,
            vec![lm0, lm1],
            vec![
                Some((path(&[9, 4, 0]), 5_000)),
                Some((path(&[9, 104, 100]), 7_000)),
            ],
            50_000,
            rec.clone(),
        );
        sim.add_actor(Box::new(peer));
        sim.run_to_completion();

        let rec = rec.borrow();
        assert!(!rec.refused);
        assert_eq!(rec.pongs, 2);
        // Both landmarks have equal RTT under Fixed links; argmin picks 0.
        assert_eq!(rec.chosen_landmark, Some(0));
        // Timeline: pings out at 0, pongs at 2ms, trace 5ms -> 7ms, join
        // request lands at 8ms, reply at 9ms.
        assert_eq!(rec.joined_at, Some(nearpeer_sim::SimTime(9_000)));
        assert_eq!(rec.setup_delay_us(), Some(9_000));
        assert!(rec.neighbors.is_empty(), "first peer has no neighbors");
        assert_eq!(server.borrow().peer_count(), 1);
    }

    #[test]
    fn second_peer_receives_the_first_as_neighbor() {
        let server = shared_server();
        let mut sim: Simulator<Message, Fixed> = Simulator::new(Fixed(500), 1);
        let srv = sim.add_actor(Box::new(ServerActor::new(server.clone())));
        let lm0 = sim.add_actor(Box::new(LandmarkActor));

        let rec1 = Rc::new(RefCell::new(JoinRecord::default()));
        sim.add_actor(Box::new(PeerActor::new(
            PeerId(1),
            srv,
            vec![lm0],
            vec![Some((path(&[9, 4, 0]), 1_000))],
            10_000,
            rec1.clone(),
        )));
        sim.run_to_completion();

        let rec2 = Rc::new(RefCell::new(JoinRecord::default()));
        sim.add_actor(Box::new(PeerActor::new(
            PeerId(2),
            srv,
            vec![lm0],
            vec![Some((path(&[8, 4, 0]), 1_000))],
            10_000,
            rec2.clone(),
        )));
        sim.run_to_completion();

        let rec2 = rec2.borrow();
        assert_eq!(rec2.neighbors.len(), 1);
        assert_eq!(rec2.neighbors[0].peer, PeerId(1));
        assert_eq!(rec2.neighbors[0].dtree, 2); // meet at router 4: 1 + 1
    }

    #[test]
    fn probe_timeout_still_joins() {
        let server = shared_server();
        // Drop everything except... use a link that always drops probe
        // traffic by killing the landmark first.
        let mut sim: Simulator<Message, Fixed> = Simulator::new(Fixed(500), 1);
        let srv = sim.add_actor(Box::new(ServerActor::new(server.clone())));
        let lm0 = sim.add_actor(Box::new(LandmarkActor));
        sim.kill_at(nearpeer_sim::SimTime::ZERO, lm0);

        let rec = Rc::new(RefCell::new(JoinRecord::default()));
        sim.add_actor(Box::new(PeerActor::new(
            PeerId(1),
            srv,
            vec![lm0],
            vec![Some((path(&[9, 4, 0]), 2_000))],
            5_000,
            rec.clone(),
        )));
        sim.run_to_completion();

        let rec = rec.borrow();
        assert_eq!(rec.pongs, 0);
        assert_eq!(rec.chosen_landmark, Some(0), "fallback landmark used");
        assert!(rec.joined_at.is_some(), "join completes after timeout");
        // Timeout 5ms + trace 2ms + request 0.5ms + reply 0.5ms = 8ms.
        assert_eq!(rec.setup_delay_us(), Some(8_000));
    }

    #[test]
    fn duplicate_join_refused_via_wire() {
        let server = shared_server();
        let mut sim: Simulator<Message, Fixed> = Simulator::new(Fixed(100), 1);
        let srv = sim.add_actor(Box::new(ServerActor::new(server.clone())));
        let lm0 = sim.add_actor(Box::new(LandmarkActor));
        for _ in 0..2 {
            let rec = Rc::new(RefCell::new(JoinRecord::default()));
            sim.add_actor(Box::new(PeerActor::new(
                PeerId(7), // same id twice
                srv,
                vec![lm0],
                vec![Some((path(&[9, 4, 0]), 1_000))],
                10_000,
                rec.clone(),
            )));
            sim.run_to_completion();
            if server.borrow().peer_count() == 1 && rec.borrow().refused {
                return; // second round: refusal observed
            }
        }
        assert_eq!(server.borrow().peer_count(), 1);
    }

    #[test]
    fn leave_message_deregisters() {
        let server = shared_server();
        let mut sim: Simulator<Message, Fixed> = Simulator::new(Fixed(100), 1);
        let srv = sim.add_actor(Box::new(ServerActor::new(server.clone())));
        server
            .borrow_mut()
            .register(PeerId(5), path(&[9, 4, 0]))
            .unwrap();
        sim.inject_at(
            nearpeer_sim::SimTime(10),
            srv,
            srv,
            Message::Leave { peer: PeerId(5) },
        );
        sim.run_to_completion();
        assert_eq!(server.borrow().peer_count(), 0);
    }
}
