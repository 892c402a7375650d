//! The two load models. **Paced**: an open loop on one connection — a
//! sender thread follows a fixed schedule whatever the daemon does, a
//! receiver thread times every reply from the instant its request was
//! *due*, so a stall charges the wait to every request it delayed.
//! **Closed**: a window of requests kept in flight on every connection,
//! all of them driven from one polling thread, for throughput at
//! saturation.

use crate::conn::Conn;
use crate::daemon::REPLY_TIMEOUT;
use crate::oracle::{Tally, Verdict};
use crate::traffic::{Op, OpKind, OpRecord};
use nearpeer_core::codec;
use nearpeer_core::protocol::Message;
use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::SocketAddr;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Nonce of the `ProbePing` that closes a phase: its pong proves every
/// earlier frame on the connection — fire-and-forget ones included — was
/// handled.
pub const FENCE_NONCE: u64 = 0xFE4C_E000_0000_0001;

/// Nanoseconds since `start`.
pub fn ns_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// A fixed-rate send schedule: op `i` is due `i / rate` after the start,
/// computed from `i` each time so rounding never accumulates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Schedule {
    rate_per_s: f64,
    /// Ops the schedule holds.
    pub count: u64,
}

impl Schedule {
    /// As many ops at `rate_per_s` as fit in `duration`.
    pub fn new(rate_per_s: f64, duration: Duration) -> Self {
        Schedule {
            rate_per_s,
            count: (rate_per_s * duration.as_secs_f64()).floor() as u64,
        }
    }

    /// When op `i` is due, ns after the start.
    pub fn intended_ns(&self, i: u64) -> u64 {
        (i as f64 * 1e9 / self.rate_per_s) as u64
    }
}

/// A sent op the daemon has not yet been seen to handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pending {
    /// The op.
    pub record: OpRecord,
    /// The instant its latency counts from, ns after the phase start: the
    /// *intended* send instant in a paced phase, the actual one in a
    /// closed loop.
    pub origin_ns: u64,
}

/// Whether a connection's phase is over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Progress {
    /// More frames are expected.
    Open,
    /// The closing fence returned.
    Fenced,
}

/// Pairs the frames a connection returns with the ops sent on it (the
/// daemon answers a connection's frames in order) and keeps the books:
/// latency samples, completions per time bucket, failures.
pub struct Ledger<S> {
    pending: VecDeque<Pending>,
    owed: usize,
    sink: S,
    bucket_ns: u64,
    /// Ops completed in each time bucket after the phase start; ops that
    /// complete later than the last bucket are in none.
    pub buckets: Vec<u64>,
    /// `(kind, latency ns)` of every answered op.
    pub samples: Vec<(OpKind, u64)>,
    /// Failure accounting.
    pub tally: Tally,
}

impl<S: FnMut(&OpRecord, Option<Message>) -> Verdict> Ledger<S> {
    /// A ledger counting completions into `n_buckets` buckets of
    /// `bucket_ns`, handing every completed op to `sink` in send order
    /// (with its reply, or `None` for a fire-and-forget op).
    pub fn new(bucket_ns: u64, n_buckets: usize, sink: S) -> Self {
        Ledger {
            pending: VecDeque::new(),
            owed: 0,
            sink,
            bucket_ns: bucket_ns.max(1),
            buckets: vec![0; n_buckets],
            samples: Vec::new(),
            tally: Tally::default(),
        }
    }

    /// Books a sent op.
    pub fn push(&mut self, p: Pending) {
        self.tally.attempted += 1;
        self.owed += usize::from(p.record.kind.expects_reply());
        self.pending.push_back(p);
    }

    /// Books every op the paced sender has announced so far.
    fn push_all(&mut self, chan: &mpsc::Receiver<Pending>) {
        for p in chan.try_iter() {
            self.push(p);
        }
    }

    /// Sent ops still owed a reply frame.
    pub fn owed(&self) -> usize {
        self.owed
    }

    fn complete(&mut self, now_ns: u64) {
        if let Some(bucket) = self.buckets.get_mut((now_ns / self.bucket_ns) as usize) {
            *bucket += 1;
        }
    }

    /// Books a frame that arrived `now_ns` after the phase start. A reply
    /// completes the fire-and-forget ops sent before its request, then
    /// its own op; the fence's pong completes whatever fire-and-forget
    /// ops trail, and leaves any op still owed a reply unanswered.
    pub fn on_frame(&mut self, now_ns: u64, msg: Message) -> Progress {
        if matches!(msg, Message::ProbePong { nonce } if nonce == FENCE_NONCE) {
            for p in std::mem::take(&mut self.pending) {
                if p.record.kind.expects_reply() {
                    self.tally.unanswered += 1;
                } else {
                    self.complete(now_ns);
                    (self.sink)(&p.record, None);
                }
            }
            self.owed = 0;
            return Progress::Fenced;
        }
        loop {
            let Some(p) = self.pending.pop_front() else {
                // A frame nobody asked for.
                self.tally.errored += 1;
                return Progress::Open;
            };
            self.complete(now_ns);
            if p.record.kind.expects_reply() {
                self.owed -= 1;
                self.samples
                    .push((p.record.kind, now_ns.saturating_sub(p.origin_ns)));
                let verdict = (self.sink)(&p.record, Some(msg));
                self.tally.record(verdict);
                return Progress::Open;
            }
            (self.sink)(&p.record, None);
        }
    }

    /// The connection went silent past the reply timeout: everything
    /// outstanding timed out.
    pub fn on_timeout(&mut self) {
        self.tally.timed_out += self.pending.len() as u64;
        self.pending.clear();
        self.owed = 0;
    }

    /// The connection ended: everything outstanding stays unanswered.
    pub fn on_closed(&mut self) {
        self.tally.unanswered += self.pending.len() as u64;
        self.pending.clear();
        self.owed = 0;
    }

    /// Books the way a read failed.
    pub fn on_read_error(&mut self, e: &io::Error) {
        if matches!(
            e.kind(),
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        ) {
            self.on_timeout();
        } else {
            self.on_closed();
        }
    }
}

/// What one paced phase measured.
#[derive(Debug, Clone, Default)]
pub struct PacedOutcome {
    /// Ops on the schedule.
    pub scheduled: u64,
    /// Ops completed within one second of the schedule's end.
    pub in_time: u64,
    /// `(kind, latency from the intended send instant, ns)` per answered op.
    pub samples: Vec<(OpKind, u64)>,
    /// Furthest the sender ran behind its schedule, ns.
    pub max_lag_ns: u64,
    /// Request bytes written.
    pub bytes_sent: u64,
    /// Failure accounting.
    pub tally: Tally,
}

/// Grace after the schedule's end within which an op still counts as
/// completed in time.
pub const PACED_GRACE: Duration = Duration::from_secs(1);

/// Blocks until `target_ns` after `start`: sleeps while far, spins the
/// last stretch so the send is punctual.
fn wait_until(start: Instant, target_ns: u64) {
    const SPIN_BELOW_NS: u64 = 200_000;
    loop {
        let now = ns_since(start);
        if now >= target_ns {
            return;
        }
        let remaining = target_ns - now;
        if remaining > SPIN_BELOW_NS {
            std::thread::sleep(Duration::from_nanos(remaining - SPIN_BELOW_NS / 2));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Follows `schedule` from `start`: draws each op one slot ahead, waits
/// for its slot, and hands it to `send` with the instant it was due (ns
/// after `start`). Stops at the first send error. Answers the furthest
/// the loop ran behind its schedule, ns.
pub fn pace(
    start: Instant,
    schedule: &Schedule,
    mut source: impl FnMut() -> Op,
    mut send: impl FnMut(Op, u64) -> io::Result<()>,
) -> u64 {
    let mut max_lag_ns = 0u64;
    for i in 0..schedule.count {
        let op = source();
        let intended_ns = schedule.intended_ns(i);
        wait_until(start, intended_ns);
        max_lag_ns = max_lag_ns.max(ns_since(start) - intended_ns);
        if send(op, intended_ns).is_err() {
            break;
        }
    }
    max_lag_ns
}

fn fence_frame() -> bytes::Bytes {
    codec::encode_to_bytes(&Message::ProbePing { nonce: FENCE_NONCE })
}

/// Runs one paced phase on a fresh connection to `addr`: `source` yields
/// the ops (called on the sender thread, one op ahead of its slot),
/// `sink` checks every completed op (called on this thread, the receiver).
pub fn paced(
    addr: SocketAddr,
    rate_per_s: f64,
    duration: Duration,
    source: impl FnMut() -> Op + Send,
    sink: impl FnMut(&OpRecord, Option<Message>) -> Verdict,
) -> Result<PacedOutcome, String> {
    let schedule = Schedule::new(rate_per_s, duration);
    let mut rx = Conn::connect(addr, REPLY_TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    let mut stream = rx.writer().map_err(|e| format!("clone: {e}"))?;

    let deadline_ns = (duration + PACED_GRACE).as_nanos() as u64;
    let mut ledger = Ledger::new(deadline_ns, 1, sink);
    let (tx, chan) = mpsc::channel::<Pending>();
    let start = Instant::now();
    let (max_lag_ns, bytes_sent) = std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            let mut bytes_sent = 0u64;
            let max_lag_ns = pace(start, &schedule, source, |op, intended_ns| {
                // Booked before written, so the receiver always finds the
                // entry a reply belongs to.
                let _ = tx.send(Pending {
                    record: op.record,
                    origin_ns: intended_ns,
                });
                stream.write_all(&op.frame)?;
                bytes_sent += op.frame.len() as u64;
                Ok(())
            });
            let _ = stream.write_all(&fence_frame());
            (max_lag_ns, bytes_sent)
        });
        loop {
            let frame = rx.recv();
            let now = ns_since(start);
            ledger.push_all(&chan);
            match frame {
                Ok(Some(msg)) => {
                    if ledger.on_frame(now, msg) == Progress::Fenced {
                        break;
                    }
                }
                Ok(None) => {
                    ledger.on_closed();
                    break;
                }
                Err(e) => {
                    ledger.on_read_error(&e);
                    break;
                }
            }
        }
        // Unblocks a sender stuck writing to a daemon that stopped reading.
        if !sender.is_finished() {
            rx.close();
        }
        sender.join().expect("paced sender panicked")
    });
    // Ops the sender booked after the receiver gave up were never answered.
    ledger.push_all(&chan);
    ledger.on_closed();
    Ok(PacedOutcome {
        scheduled: schedule.count,
        in_time: ledger.buckets[0],
        samples: ledger.samples,
        max_lag_ns,
        bytes_sent,
        tally: ledger.tally,
    })
}

/// What one connection's windowed loop measured.
#[derive(Debug, Clone, Default)]
pub struct ClosedOutcome {
    /// Ops completed in each time slice after the phase start.
    pub per_slice: Vec<u64>,
    /// `(kind, latency from the send instant, ns)` per answered op.
    pub samples: Vec<(OpKind, u64)>,
    /// Request bytes written.
    pub bytes_sent: u64,
    /// Failure accounting.
    pub tally: Tally,
}

/// Checks one completed op: its record, and its reply unless the op was
/// fire-and-forget.
pub type Sink<'a> = Box<dyn FnMut(&OpRecord, Option<Message>) -> Verdict + 'a>;

/// One connection of a windowed phase: where its ops come from and what
/// checks its replies.
pub struct Lane<'a> {
    /// The connection, in blocking mode.
    pub conn: &'a mut Conn,
    /// Yields the next op to send; `None` ends the lane.
    pub source: Box<dyn FnMut() -> Option<Op> + 'a>,
    /// Checks every completed op, in send order.
    pub sink: Sink<'a>,
}

/// How often the windowed loop visits its connections. The client sleeps
/// between visits instead of blocking in `read`, so the daemon's replies
/// wake nobody: with a client thread blocked on every connection, each
/// reply woke its reader, and whether that pair happened to share a core
/// decided if the same binary served 95 k or 130 k queries a second. A
/// window of 64 covers the sleep (~260 µs with timer slack) for any
/// daemon slower than about 4 µs per op.
const POLL_EVERY: Duration = Duration::from_micros(200);

/// The closed loop, every connection driven from this one thread: each
/// visit takes the replies that have arrived and refills the connection
/// to `window` reply-bearing ops in flight with one write. A lane is
/// fenced and drained once its source runs dry or `duration` has passed.
/// Completions are counted per slice of `duration / slices`.
pub fn windowed(
    lanes: Vec<Lane<'_>>,
    duration: Duration,
    slices: usize,
    window: usize,
) -> io::Result<Vec<ClosedOutcome>> {
    struct Running<'a> {
        conn: &'a mut Conn,
        source: Box<dyn FnMut() -> Option<Op> + 'a>,
        ledger: Ledger<Sink<'a>>,
        bytes_sent: u64,
        fenced: bool,
        done: bool,
    }
    let end_ns = duration.as_nanos() as u64;
    let mut lanes: Vec<Running> = lanes
        .into_iter()
        .map(|lane| Running {
            conn: lane.conn,
            source: lane.source,
            ledger: Ledger::new(end_ns / slices as u64, slices, lane.sink),
            bytes_sent: 0,
            fenced: false,
            done: false,
        })
        .collect();
    for lane in &lanes {
        lane.conn.set_nonblocking(true)?;
    }
    let start = Instant::now();
    let mut last_frame = start;
    let mut batch: Vec<u8> = Vec::new();
    while lanes.iter().any(|lane| !lane.done) {
        for lane in lanes.iter_mut().filter(|lane| !lane.done) {
            loop {
                match lane.conn.poll() {
                    Ok(Some(msg)) => {
                        last_frame = Instant::now();
                        if lane.ledger.on_frame(ns_since(start), msg) == Progress::Fenced {
                            lane.done = true;
                            break;
                        }
                    }
                    Ok(None) => break,
                    Err(_) => {
                        lane.ledger.on_closed();
                        lane.done = true;
                        break;
                    }
                }
            }
            if lane.done || lane.fenced {
                continue;
            }
            batch.clear();
            while !lane.fenced && lane.ledger.owed() < window {
                match (lane.source)().filter(|_| ns_since(start) < end_ns) {
                    Some(op) => {
                        batch.extend_from_slice(&op.frame);
                        lane.ledger.push(Pending {
                            record: op.record,
                            origin_ns: ns_since(start),
                        });
                    }
                    None => {
                        batch.extend_from_slice(&fence_frame());
                        lane.fenced = true;
                    }
                }
            }
            lane.bytes_sent += batch.len() as u64;
            // A window of small frames fits any socket buffer; a write
            // that would block means the daemon stopped reading.
            if lane.conn.send_bytes(&batch).is_err() {
                lane.ledger.on_closed();
                lane.done = true;
            }
        }
        if last_frame.elapsed() > REPLY_TIMEOUT {
            for lane in lanes.iter_mut().filter(|lane| !lane.done) {
                lane.ledger.on_timeout();
                lane.done = true;
            }
        }
        std::thread::sleep(POLL_EVERY);
    }
    lanes
        .into_iter()
        .map(|lane| {
            lane.conn.set_nonblocking(false)?;
            Ok(ClosedOutcome {
                per_slice: lane.ledger.buckets,
                samples: lane.ledger.samples,
                bytes_sent: lane.bytes_sent,
                tally: lane.ledger.tally,
            })
        })
        .collect()
}

/// A deadline no finite list of ops reaches.
const UNTIMED: Duration = Duration::from_secs(3_600);

/// Sends fixed lists of ops, one list per connection, `window` in flight
/// on each, and checks every reply — set-up registration and the exact
/// sweeps. Answers the summed failure accounting.
pub fn pipelined(lanes: Vec<Lane<'_>>, window: usize) -> io::Result<Tally> {
    let mut tally = Tally::default();
    for outcome in windowed(lanes, UNTIMED, 1, window)? {
        tally.absorb(&outcome.tally);
    }
    Ok(tally)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(kind: OpKind, subject: u64) -> OpRecord {
        OpRecord {
            kind,
            subject,
            landmark: 0,
        }
    }

    fn reply(nonce: u64) -> Message {
        Message::QueryReply {
            nonce,
            neighbors: vec![],
        }
    }

    #[test]
    fn schedule_is_evenly_spaced_and_never_drifts() {
        let s = Schedule::new(20_000.0, Duration::from_secs(10));
        assert_eq!(s.count, 200_000);
        assert_eq!(s.intended_ns(0), 0);
        assert_eq!(s.intended_ns(1), 50_000);
        assert_eq!(s.intended_ns(199_999), 9_999_950_000);
        // A rate whose interval is not a whole number of ns.
        let s = Schedule::new(3_000.0, Duration::from_millis(1_500));
        assert_eq!(s.count, 4_500);
        assert_eq!(s.intended_ns(3_000), 1_000_000_000);
    }

    #[test]
    fn latency_counts_from_the_intended_instant_not_the_send() {
        // Op 1 was due at 50 µs but its sender was descheduled until
        // 250 µs; the daemon answered 40 µs after the real send. The wait
        // is the request's, not the generator's: latency is 240 µs.
        let mut ledger = Ledger::new(1_000_000, 1, |_: &OpRecord, _| Verdict::Ok);
        ledger.push(Pending {
            record: op(OpKind::Query, 0),
            origin_ns: 0,
        });
        ledger.push(Pending {
            record: op(OpKind::Query, 1),
            origin_ns: 50_000,
        });
        assert_eq!(ledger.on_frame(30_000, reply(0)), Progress::Open);
        assert_eq!(ledger.on_frame(290_000, reply(1)), Progress::Open);
        assert_eq!(
            ledger.samples,
            vec![(OpKind::Query, 30_000), (OpKind::Query, 240_000)]
        );
        assert_eq!(ledger.buckets, vec![2]);
        assert_eq!(ledger.tally.failed(), 0);
    }

    #[test]
    fn fire_and_forget_ops_complete_on_the_next_reply_or_the_fence() {
        let mut seen = Vec::new();
        let mut ledger = Ledger::new(100, 3, |r: &OpRecord, m: Option<Message>| {
            seen.push((r.kind, m.is_some()));
            Verdict::Ok
        });
        for (i, kind) in [
            OpKind::Leave,
            OpKind::Heartbeat,
            OpKind::Query,
            OpKind::Leave,
        ]
        .into_iter()
        .enumerate()
        {
            ledger.push(Pending {
                record: op(kind, i as u64),
                origin_ns: 0,
            });
        }
        assert_eq!(ledger.owed(), 1);
        // The query's reply vouches for the two ops ahead of it.
        ledger.on_frame(150, reply(2));
        assert_eq!(ledger.buckets, vec![0, 3, 0]);
        // The trailing leave completes when the fence returns — after the
        // last bucket, so it is in none.
        let pong = Message::ProbePong { nonce: FENCE_NONCE };
        assert_eq!(ledger.on_frame(450, pong), Progress::Fenced);
        assert_eq!(ledger.buckets, vec![0, 3, 0]);
        assert_eq!(ledger.tally.attempted, 4);
        assert_eq!(ledger.tally.failed(), 0);
        drop(ledger);
        assert_eq!(
            seen,
            vec![
                (OpKind::Leave, false),
                (OpKind::Heartbeat, false),
                (OpKind::Query, true),
                (OpKind::Leave, false)
            ]
        );
    }

    #[test]
    fn dropped_corrupted_and_late_replies_all_count_as_failures() {
        // A dropped reply: the fence returns while a query is still owed.
        let mut ledger = Ledger::new(100, 1, |_: &OpRecord, _| Verdict::Ok);
        ledger.push(Pending {
            record: op(OpKind::Query, 0),
            origin_ns: 0,
        });
        ledger.on_frame(10, Message::ProbePong { nonce: FENCE_NONCE });
        assert_eq!(ledger.tally.unanswered, 1);
        assert_eq!(ledger.tally.fail_share(), 1.0);

        // A corrupted reply: the sink's verdict is booked.
        let mut ledger = Ledger::new(100, 1, |_: &OpRecord, _| Verdict::Mismatch);
        ledger.push(Pending {
            record: op(OpKind::Query, 0),
            origin_ns: 0,
        });
        ledger.on_frame(10, reply(9));
        assert_eq!(ledger.tally.mismatched, 1);

        // A hung daemon: the read times out with ops outstanding.
        let mut ledger = Ledger::new(100, 1, |_: &OpRecord, _| Verdict::Ok);
        for i in 0..3 {
            ledger.push(Pending {
                record: op(OpKind::Query, i),
                origin_ns: 0,
            });
        }
        ledger.on_read_error(&io::Error::from(io::ErrorKind::WouldBlock));
        assert_eq!(ledger.tally.timed_out, 3);
        assert_eq!(ledger.owed(), 0);

        // A frame nobody asked for.
        let mut ledger = Ledger::new(100, 1, |_: &OpRecord, _| Verdict::Ok);
        ledger.on_frame(10, reply(0));
        assert_eq!(ledger.tally.errored, 1);
    }
}
