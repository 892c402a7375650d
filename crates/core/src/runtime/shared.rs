//! [`Shared`]: one facade behind one `RwLock`, and the only
//! [`WireService`].

use super::{delta_push, Outbound, Plane, WireService};
use crate::protocol::Message;
use crate::telemetry::{Gauge, TelemetryRegistry};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

/// A [`crate::ManagementServer`] or a [`crate::Federation`] served from
/// any number of threads through `&self`.
///
/// Callers take [`Self::read`] or [`Self::write`] and call the facade's
/// own methods, so every answer is the facade's by construction, and a
/// write excludes readers for its duration, so nothing can observe a peer
/// half-moved. The wrapper adds only what the facade leaves to its
/// embedder: a wall clock for subscription rate limiting, advanced each
/// time the write guard is taken, and a lock-free "nothing queued" check
/// so serve loops poll for pushes without taking the lock.
pub struct Shared<P> {
    plane: RwLock<P>,
    /// The plane's count of subscriptions waiting to push, readable
    /// without the lock.
    push_depth: Arc<Gauge>,
    /// Wall-clock origin of the plane's push clock.
    started: Instant,
}

impl<P: Plane> Shared<P> {
    /// Puts `plane` behind the lock; spawns no thread.
    pub fn new(plane: P) -> Self {
        Self {
            push_depth: plane.push_depth(),
            plane: RwLock::new(plane),
            started: Instant::now(),
        }
    }

    /// The read guard.
    pub fn read(&self) -> RwLockReadGuard<'_, P> {
        self.plane.read().expect("plane poisoned")
    }

    /// The write guard, with the push clock advanced to now.
    pub fn write(&self) -> RwLockWriteGuard<'_, P> {
        let mut plane = self.plane.write().expect("plane poisoned");
        plane.set_push_clock_ms(self.started.elapsed().as_millis() as u64);
        plane
    }

    /// Serves `frames` in order under one guard, handing `emit` each reply
    /// and, when `pushes` is set and `client` is a push channel, the
    /// deltas ready for `client` before it. `writes` says whether any
    /// frame fails [`only_reads`]. The read guard serves a burst that
    /// writes nothing while no delta waits; anything else takes the write
    /// guard, which advances the push clock once for the burst.
    fn serve_burst(
        &self,
        client: Option<u64>,
        writes: bool,
        pushes: bool,
        frames: impl Iterator<Item = Message>,
        mut emit: impl FnMut(Outbound),
    ) {
        let push_to = client.filter(|_| pushes);
        if !writes {
            let plane = self.read();
            // Read under the guard: no write can queue a delta until it
            // drops, and the guard's acquire sees every earlier write's.
            if push_to.is_none() || self.push_depth.get() == 0 {
                for msg in frames {
                    emit(Outbound::Reply(plane.answer_read(msg)));
                }
                return;
            }
        }
        let mut plane = self.write();
        let mut deltas = Vec::new();
        for msg in frames {
            if let Some(client) = push_to {
                if self.push_depth.get() > 0 {
                    plane.drain_push(client, usize::MAX, &mut deltas);
                    for d in deltas.drain(..) {
                        emit(Outbound::Push(delta_push(d)));
                    }
                }
            }
            emit(Outbound::Reply(plane.answer(client, msg)));
        }
    }
}

/// Whether `msg` leaves the directory and the subscriptions untouched, so
/// the read guard can serve it.
fn only_reads(msg: &Message) -> bool {
    !matches!(
        msg,
        Message::JoinRequest { .. }
            | Message::HandoverRequest { .. }
            | Message::Leave { .. }
            | Message::Heartbeat { .. }
            | Message::Subscribe { .. }
            | Message::Unsubscribe { .. }
    )
}

impl<P: Plane> WireService for Shared<P> {
    fn handle(&self, msg: Message) -> Option<Message> {
        self.handle_from(None, msg)
    }

    fn open_client(&self) -> Option<u64> {
        self.write().open_push()
    }

    fn close_client(&self, client: u64) {
        self.write().close_push(client);
    }

    fn handle_from(&self, client: Option<u64>, msg: Message) -> Option<Message> {
        let mut reply = None;
        let writes = !only_reads(&msg);
        self.serve_burst(client, writes, false, std::iter::once(msg), |out| {
            if let Outbound::Reply(r) = out {
                reply = r;
            }
        });
        reply
    }

    fn handle_batch(
        &self,
        client: Option<u64>,
        requests: &mut Vec<Message>,
        out: &mut Vec<Outbound>,
    ) {
        let writes = !requests.iter().all(only_reads);
        self.serve_burst(client, writes, true, requests.drain(..), |o| out.push(o));
    }

    /// Every serve-loop iteration of every connection calls this, so with
    /// no subscription dirty anywhere it returns without the lock or a
    /// clock read. `Relaxed` suffices for that gate: the dirty marks
    /// themselves are only read under the lock, and the count was raised
    /// under it before the churn op that marked them returned, which is
    /// before its reply (and so any later fencing request) exists.
    fn drain_pushes(&self, client: u64, max: usize, out: &mut Vec<Message>) {
        if self.push_depth.get() == 0 {
            return;
        }
        let mut deltas = Vec::new();
        self.write().drain_push(client, max, &mut deltas);
        out.extend(deltas.into_iter().map(delta_push));
    }

    fn telemetry(&self) -> Option<Arc<TelemetryRegistry>> {
        self.read().telemetry()
    }
}
