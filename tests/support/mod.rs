//! Protocol endpoints for `nearpeer-sim` — the end-to-end join in simulated
//! time, shared by the root integration tests that include this module.
//!
//! The actors speak [`Message`] over the simulator's link model. State the
//! test wants back out (join time, received neighbor list) is shared
//! through `Rc<RefCell<..>>` handles, keeping the `Actor` trait free of
//! downcasting machinery (the simulator is single-threaded by design).

// Each test binary that includes this module uses a different part of it.
#![allow(dead_code)]

use nearpeer::core::protocol::{Message, WireNeighbor};
use nearpeer::core::{ManagementServer, PeerId, PeerPath, Plane};
use nearpeer::sim::{Actor, Context, NodeId, SimTime, TimerId};
use std::cell::RefCell;
use std::rc::Rc;

const TIMER_PROBES_DONE: TimerId = TimerId(1);
const TIMER_TRACE_DONE: TimerId = TimerId(2);

/// The management server as a simulator actor. The wrapped
/// [`ManagementServer`] stays accessible to the test through the
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
        // The server's own request dispatch, as the wire plane runs it
        // without a push channel.
        let reply = Plane::answer(&mut *self.server.borrow_mut(), None, msg);
        if let Some(reply) = reply {
            ctx.send(from, reply);
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
