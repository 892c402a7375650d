//! Shared plumbing for the wire binaries (`nearpeerd`, `crates/perf`).
//!
//! Both sides of the socket rebuild the same deterministic world from
//! `(n_landmarks, regions)` — the [`SyntheticJoins`] landmark layout
//! (routers `0..n`, all pairs 4 hops apart) — so no topology ever
//! crosses the wire: the daemon serves it, the load generator mirrors
//! it locally to check the answers bit-for-bit.

use crate::SyntheticJoins;
use bytes::BytesMut;
use nearpeer_core::codec::{self, CodecError};
use nearpeer_core::protocol::Message;
use nearpeer_core::{
    ActorFederation, ActorServer, CoreError, Counter, FederatedJoin, Federation, FederationConfig,
    Histogram, JoinOutcome, ManagementServer, Neighbor, Outbound, PeerId, PeerPath, ServerConfig,
    TelemetryRegistry, WireService,
};
use nearpeer_topology::RouterId;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The synthetic landmark layout shared by server and load generator:
/// routers `0..n`, every distinct pair 4 hops apart — exactly what
/// [`SyntheticJoins::server`] builds.
pub fn synthetic_landmarks(n_landmarks: usize) -> (Vec<RouterId>, Vec<Vec<u32>>) {
    let n = n_landmarks as u32;
    let routers = (0..n).map(RouterId).collect();
    let dist = (0..n)
        .map(|i| (0..n).map(|j| if i == j { 0 } else { 4 }).collect())
        .collect();
    (routers, dist)
}

/// Builds the actorized serving plane over the synthetic landmark
/// layout: one [`ActorServer`] for a single region, an
/// [`ActorFederation`] (full fanout) otherwise.
pub fn build_service(
    n_landmarks: usize,
    regions: usize,
    config: ServerConfig,
) -> Result<Arc<dyn WireService>, CoreError> {
    let reg = Arc::new(TelemetryRegistry::new());
    let (routers, dist) = synthetic_landmarks(n_landmarks);
    if regions <= 1 {
        let srv = ActorServer::new(routers, dist, config)?;
        srv.bind_telemetry(reg);
        Ok(Arc::new(srv))
    } else {
        let fed = ActorFederation::new(
            routers,
            dist,
            regions,
            FederationConfig {
                fanout: None,
                server: config,
            },
        )?;
        fed.bind_telemetry(reg);
        Ok(Arc::new(fed))
    }
}

/// The synchronous twin of what [`build_service`] serves, used by the
/// load generator to check wire answers bit-for-bit: each concurrent
/// plane is its twin behind one lock, and `tests/actor_equivalence.rs`
/// pins the answers equal.
pub enum Mirror {
    /// Single-region twin of an [`ActorServer`].
    Single(Box<ManagementServer>),
    /// Multi-region twin of an [`ActorFederation`].
    Federated(Box<Federation>),
}

impl Mirror {
    /// Builds the mirror from the same `(n_landmarks, regions, config)`
    /// the daemon was started with.
    pub fn build(
        n_landmarks: usize,
        regions: usize,
        config: ServerConfig,
    ) -> Result<Self, CoreError> {
        let (routers, dist) = synthetic_landmarks(n_landmarks);
        if regions <= 1 {
            Ok(Mirror::Single(Box::new(ManagementServer::new(
                routers, dist, config,
            ))))
        } else {
            Ok(Mirror::Federated(Box::new(Federation::new(
                routers,
                dist,
                regions,
                FederationConfig {
                    fanout: None,
                    server: config,
                },
            )?)))
        }
    }

    /// Write-only bulk registration. Registration order does not matter:
    /// the final directory state is a pure function of the registered
    /// `(peer, path)` set, which is why the load generator can register
    /// over many concurrent connections and still mirror exactly.
    pub fn register_all(&mut self, items: Vec<(PeerId, PeerPath)>) -> usize {
        match self {
            Mirror::Single(srv) => srv.register_batch(items).joined,
            Mirror::Federated(fed) => fed.register_batch(items).joined,
        }
    }

    /// Mobility handover, answering the peer's fresh neighbor list.
    pub fn handover(&mut self, peer: PeerId, path: PeerPath) -> Result<Vec<Neighbor>, CoreError> {
        match self {
            Mirror::Single(srv) => srv.handover(peer, path).map(|o: JoinOutcome| o.neighbors),
            Mirror::Federated(fed) => fed.handover(peer, path).map(|o: FederatedJoin| o.neighbors),
        }
    }

    /// Graceful bulk departure, answering how many peers actually left.
    pub fn leave_all(&mut self, peers: &[PeerId]) -> usize {
        match self {
            Mirror::Single(srv) => srv.leave_batch(peers),
            Mirror::Federated(fed) => fed.leave_batch(peers),
        }
    }

    /// The closest registered peers to a query path.
    pub fn closest_to_path(
        &self,
        path: &PeerPath,
        k: usize,
        exclude: Option<PeerId>,
    ) -> Vec<Neighbor> {
        match self {
            Mirror::Single(srv) => srv.closest_to_path(path, k, exclude),
            Mirror::Federated(fed) => fed.closest_to_path(path, k, exclude),
        }
    }

    /// Registered peer count.
    pub fn peer_count(&self) -> usize {
        match self {
            Mirror::Single(srv) => srv.peer_count(),
            Mirror::Federated(fed) => fed.peer_count(),
        }
    }
}

/// The world both binaries derive peers and paths from.
pub fn world(n_landmarks: usize) -> SyntheticJoins {
    SyntheticJoins::new(n_landmarks)
}

/// Bytes the output queue may hold before the serve loop writes it out
/// ([`FrameConn::flush_if_full`]). Small on purpose: it caps the memory a
/// connection holds for unsent replies at `FLUSH_BYTES` plus one frame, and
/// it caps how long a finished reply waits behind later requests of the
/// same pipelined batch. A client that keeps a window of requests in
/// flight stalls when replies are held to the end of a batch: swept on the
/// 2-core bench host, bounds of 256 B–1 KiB carried 144–152 k queries/s on
/// one connection, 2 KiB 130 k, 4 KiB 90 k and "flush only before
/// blocking" 88 k, the last two below the 105–111 k of one write per reply.
pub const FLUSH_BYTES: usize = 512;

/// Most requests the serve loop hands the service as one burst
/// ([`WireService::handle_batch`]): the frame it just decoded plus every
/// complete frame already in its read buffer, up to this many. The loop
/// never waits on the socket to fill a burst. Eight 76-byte query replies
/// make about one [`FLUSH_BYTES`], so a burst holds no reply back longer
/// than the flush rule already does.
pub const BATCH_FRAMES: usize = 8;

/// Size of a connection's read buffer: one `read(2)` takes a whole
/// pipelined batch.
const READ_CHUNK: usize = 64 * 1024;

/// Largest output-queue length any connection in this test process ever
/// appended a frame to; the serve loop must keep it under [`FLUSH_BYTES`].
#[cfg(test)]
static QUEUE_PEAK: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// A blocking framed connection: length-prefixed [`codec`] frames over a
/// `TcpStream`, with reassembly across partial reads and an ordered output
/// queue for callers that batch their writes.
///
/// [`Self::send`] and [`Self::send_bytes`] write at once.
/// [`Self::queue`] only encodes; queued frames leave in order with one
/// write on [`Self::flush`], on [`Self::flush_if_full`] once
/// [`FLUSH_BYTES`] are waiting, and before [`Self::recv`] blocks in a
/// read, so a peer never waits on a frame this side is still holding.
pub struct FrameConn {
    stream: TcpStream,
    buf: BytesMut,
    /// Read buffer, allocated once per connection.
    chunk: Box<[u8]>,
    /// Output queue: frames encoded by [`Self::queue`], not yet written.
    out: BytesMut,
    /// Incremented once per write that drains `out`.
    writes: Option<Arc<Counter>>,
    /// Incremented once per undecodable frame skipped.
    bad_frames: Option<Arc<Counter>>,
    bytes_in: u64,
}

impl FrameConn {
    /// Wraps an accepted/connected stream (enables `TCP_NODELAY` — the
    /// protocol is request/reply and frames are small).
    pub fn new(stream: TcpStream) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            buf: BytesMut::with_capacity(READ_CHUNK),
            chunk: vec![0; READ_CHUNK].into_boxed_slice(),
            out: BytesMut::with_capacity(2 * FLUSH_BYTES),
            writes: None,
            bad_frames: None,
            bytes_in: 0,
        })
    }

    /// Connects to a daemon.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        Self::new(TcpStream::connect(addr)?)
    }

    /// Bounds every blocking read; `None` blocks forever. While a
    /// timeout is set, [`Self::recv`] surfaces `WouldBlock`/`TimedOut`
    /// with any partially-read frame preserved in the buffer.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Counts every write that drains the output queue into
    /// `wire_writes_total`, and every undecodable frame skipped into
    /// `wire_bad_frames_total`.
    fn count_into(&mut self, reg: &TelemetryRegistry) {
        self.writes = Some(reg.counter("wire_writes_total"));
        self.bad_frames = Some(reg.counter("wire_bad_frames_total"));
    }

    /// Encodes and writes one frame.
    pub fn send(&mut self, msg: &Message) -> io::Result<()> {
        self.stream.write_all(&codec::encode_to_bytes(msg))
    }

    /// Writes an already-encoded frame.
    pub fn send_bytes(&mut self, frame: &[u8]) -> io::Result<()> {
        self.stream.write_all(frame)
    }

    /// Encodes one frame onto the end of the output queue and returns its
    /// length. Writes nothing.
    pub fn queue(&mut self, msg: &Message) -> usize {
        let before = self.out.len();
        #[cfg(test)]
        QUEUE_PEAK.fetch_max(before, Ordering::Relaxed);
        codec::encode(msg, &mut self.out);
        self.out.len() - before
    }

    /// Writes the whole output queue with one `write_all`; a no-op when
    /// nothing is queued. The queue is empty afterwards even on error: a
    /// failed write leaves the stream unusable.
    pub fn flush(&mut self) -> io::Result<()> {
        if self.out.is_empty() {
            return Ok(());
        }
        let written = self.stream.write_all(&self.out);
        self.out.clear();
        written?;
        if let Some(writes) = &self.writes {
            writes.inc();
        }
        Ok(())
    }

    /// [`Self::flush`] once the queue holds [`FLUSH_BYTES`]. Called after
    /// every [`Self::queue`], it keeps the queue under `FLUSH_BYTES` plus
    /// one frame.
    pub fn flush_if_full(&mut self) -> io::Result<()> {
        if self.out.len() >= FLUSH_BYTES {
            self.flush()
        } else {
            Ok(())
        }
    }

    /// The next complete frame already read off the socket, or `None`
    /// when the buffer holds none; never reads. Malformed-but-consumed
    /// frames are skipped (the codec resyncs); an oversized length prefix
    /// is connection-fatal (`InvalidData`) — the stream position can no
    /// longer be trusted — and stays at the front of the buffer, so every
    /// later call reports it again.
    fn next_buffered(&mut self) -> io::Result<Option<Message>> {
        loop {
            match codec::decode(&mut self.buf) {
                Ok(msg) => return Ok(Some(msg)),
                Err(CodecError::Incomplete) => return Ok(None),
                Err(CodecError::FrameTooLarge(n)) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("frame of {n} bytes exceeds limit"),
                    ));
                }
                // Anything else consumed exactly one bad frame; resync.
                Err(_) => {
                    if let Some(bad) = &self.bad_frames {
                        bad.inc();
                    }
                }
            }
        }
    }

    /// Reads the next message: the next buffered frame, reading more off
    /// the socket until one is complete; the output queue is flushed
    /// before each read. `Ok(None)` means the peer closed cleanly on a
    /// frame boundary. Malformed frames are skipped and an oversized one
    /// is fatal, as in `next_buffered`.
    pub fn recv(&mut self) -> io::Result<Option<Message>> {
        loop {
            if let Some(msg) = self.next_buffered()? {
                return Ok(Some(msg));
            }
            self.flush()?;
            let n = self.stream.read(&mut self.chunk)?;
            if n == 0 {
                return if self.buf.is_empty() {
                    Ok(None)
                } else {
                    Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed mid-frame",
                    ))
                };
            }
            self.bytes_in += n as u64;
            self.buf.extend_from_slice(&self.chunk[..n]);
        }
    }

    /// Total bytes ever read off the socket, including bytes of a frame
    /// still being reassembled. This — not completed frames — is the
    /// liveness signal: a sender dribbling a large frame is making
    /// progress even though [`Self::recv`] has not returned yet.
    pub fn bytes_received(&self) -> u64 {
        self.bytes_in
    }

    /// Whether the receive buffer holds a partially reassembled frame.
    pub fn has_partial_frame(&self) -> bool {
        !self.buf.is_empty()
    }
}

/// Per-kind serving metrics, cached per connection so the hot loop
/// touches the registry's entry lock once per message kind seen, not
/// once per frame. The cache is an array indexed by the kind byte
/// ([`Message::kind`]), so a frame costs one index, not a hash.
struct ServeMetrics {
    reg: Arc<TelemetryRegistry>,
    per_kind: [Option<KindMetrics>; Message::MAX_KIND as usize + 1],
    /// Requests per burst handed to [`WireService::handle_batch`].
    batch_frames: Arc<Histogram>,
}

#[derive(Clone)]
struct KindMetrics {
    /// Request frames of this kind served (replied to or absorbed).
    frames: Arc<Counter>,
    /// Time from decoded request to queued reply, µs: its burst's time,
    /// any write the queue bound forces mid-burst included.
    serve_us: Arc<Histogram>,
    /// Encoded reply frame sizes, bytes (`_sum` = total bytes out).
    reply_bytes: Arc<Histogram>,
}

impl ServeMetrics {
    fn new(reg: Arc<TelemetryRegistry>) -> Self {
        Self {
            batch_frames: reg.histogram("wire_batch_frames"),
            reg,
            per_kind: Default::default(),
        }
    }

    /// The metrics of kind byte `kind`, labelled by its `name`.
    fn kind(&mut self, kind: u8, name: &'static str) -> &KindMetrics {
        self.per_kind[kind as usize].get_or_insert_with(|| {
            let label = format!("kind=\"{name}\"");
            KindMetrics {
                frames: self.reg.counter_labeled("wire_frames_total", &label),
                serve_us: self.reg.histogram_labeled("wire_serve_us", &label),
                reply_bytes: self.reg.histogram_labeled("wire_reply_bytes", &label),
            }
        })
    }
}

/// Most pushes one drain round on the idle tick takes at a time, so the
/// output queue is flushed between rounds of a subscription storm.
const PUSH_BATCH: usize = 256;

/// Read-timeout windows a draining connection grants an in-flight frame
/// after shutdown is requested, before cutting the stream mid-reassembly.
const SHUTDOWN_GRACE_WINDOWS: u32 = 8;

/// One connection's serve loop, shared by `nearpeerd` and the in-process
/// transport tests: reassemble frames, answer requests, and interleave
/// server-initiated pushes for the connection's subscription client.
///
/// Delivery rules:
///
/// * requests are served in bursts: the frame just decoded plus every
///   complete frame already buffered behind it, up to [`BATCH_FRAMES`],
///   go to [`WireService::handle_batch`] together. The loop never waits
///   on the socket to fill a burst, so a client that sends one request
///   and waits gets a burst of one; pipelining clients get longer ones. A
///   `Shutdown` ends its burst, and nothing after it is ever applied;
/// * replies and pushes go through the connection's one output queue
///   ([`FrameConn::queue`]) and leave it in order, written out (1) before
///   the loop blocks in a read, (2) as soon as [`FLUSH_BYTES`] are
///   waiting, and (3) on every way out of the loop that leaves the socket
///   writable — so a pipelined batch is answered with a few writes, and a
///   client that sends one request and waits gets its reply at once;
/// * pushes ready for this client are queued **before** each reply, so
///   any request/reply round-trip (a `ProbePing` will do) fences every
///   delta the server queued before it, including one queued by an
///   earlier request of the same burst;
/// * idle pushes flow on the read-timeout tick even when the client is
///   not talking;
/// * liveness for the idle deadline is **byte progress** (see
///   [`FrameConn::bytes_received`]), not completed frames — a client
///   dribbling one large frame is alive, a silent one is not;
/// * a shutdown requested elsewhere lets an in-flight partial frame
///   finish for a bounded grace (`SHUTDOWN_GRACE_WINDOWS` read windows)
///   instead of cutting it mid-reassembly.
pub fn serve_connection(
    stream: TcpStream,
    service: Arc<dyn WireService>,
    shutdown: Arc<AtomicBool>,
    local: SocketAddr,
    idle_deadline: Option<Duration>,
) {
    let peer = stream.peer_addr().ok();
    let mut conn = match FrameConn::new(stream) {
        Ok(conn) => conn,
        Err(_) => return,
    };
    // A bounded read lets the loop observe a shutdown requested on
    // another connection without dropping a frame mid-reassembly — and,
    // stacked up, gives the idle deadline its resolution.
    if conn
        .set_read_timeout(Some(Duration::from_millis(250)))
        .is_err()
    {
        return;
    }
    let client = service.open_client();
    serve_frames(
        &mut conn,
        &*service,
        &shutdown,
        local,
        idle_deadline,
        client,
        peer,
    );
    if let Some(client) = client {
        service.close_client(client);
    }
}

/// The loop behind [`serve_connection`], separated so the subscription
/// client is torn down on every exit path.
#[allow(clippy::too_many_arguments)]
fn serve_frames(
    conn: &mut FrameConn,
    service: &dyn WireService,
    shutdown: &AtomicBool,
    local: SocketAddr,
    idle_deadline: Option<Duration>,
    client: Option<u64>,
    peer: Option<SocketAddr>,
) {
    let mut last_progress = Instant::now();
    let mut seen_bytes = conn.bytes_received();
    let mut grace_left = SHUTDOWN_GRACE_WINDOWS;
    let mut pushes: Vec<Message> = Vec::new();
    let mut burst: Vec<Message> = Vec::with_capacity(BATCH_FRAMES);
    // Each request's kind byte and name and, once queued, its reply's
    // length.
    let mut served: Vec<(u8, &'static str, Option<usize>)> = Vec::with_capacity(BATCH_FRAMES);
    let mut out: Vec<Outbound> = Vec::new();
    let mut metrics = service.telemetry().map(ServeMetrics::new);
    if let Some(m) = &metrics {
        conn.count_into(&m.reg);
    }
    loop {
        match conn.recv() {
            Ok(Some(first)) => {
                seen_bytes = conn.bytes_received();
                last_progress = Instant::now();
                burst.push(first);
                // An oversized frame ends the burst too; the next `recv`
                // reports it.
                while burst.len() < BATCH_FRAMES
                    && !matches!(burst.last(), Some(Message::Shutdown { .. }))
                {
                    match conn.next_buffered() {
                        Ok(Some(msg)) => burst.push(msg),
                        Ok(None) | Err(_) => break,
                    }
                }
                let stop = matches!(burst.last(), Some(Message::Shutdown { .. }));
                served.clear();
                served.extend(burst.iter().map(|m| (m.kind(), m.kind_name(), None)));
                let started = metrics
                    .as_ref()
                    .filter(|m| m.reg.timing_enabled())
                    .map(|_| Instant::now());
                service.handle_batch(client, &mut burst, &mut out);
                let mut replies = served.iter_mut();
                for item in out.drain(..) {
                    match item {
                        Outbound::Push(push) => {
                            conn.queue(&push);
                        }
                        Outbound::Reply(reply) => {
                            let slot = replies.next().expect("one reply per request");
                            slot.2 = reply.map(|r| conn.queue(&r));
                        }
                    }
                    if conn.flush_if_full().is_err() {
                        return;
                    }
                }
                if let Some(m) = metrics.as_mut() {
                    m.batch_frames.record(served.len() as u64);
                    let serve_us = started.map(|s| s.elapsed().as_micros() as u64);
                    for &(kind, name, reply_len) in &served {
                        let km = m.kind(kind, name);
                        km.frames.inc();
                        if let Some(len) = reply_len {
                            km.reply_bytes.record(len as u64);
                        }
                        if let Some(us) = serve_us {
                            km.serve_us.record(us);
                        }
                    }
                }
                if stop {
                    // The ack must be on the wire before the daemon
                    // starts to drain.
                    if conn.flush().is_err() {
                        return;
                    }
                    shutdown.store(true, Ordering::Release);
                    // Unblock the accept loop so it observes the flag.
                    let _ = TcpStream::connect(local);
                    return;
                }
            }
            // Clean close on a frame boundary; `recv` flushed before the
            // read that saw it.
            Ok(None) => return,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if let Some(client) = client {
                    // Flushed here, not by the next `recv`, so the exits
                    // below leave nothing queued.
                    if queue_pushes(conn, service, client, &mut pushes).is_err()
                        || conn.flush().is_err()
                    {
                        return;
                    }
                }
                if shutdown.load(Ordering::Acquire) {
                    if !conn.has_partial_frame() || grace_left == 0 {
                        return;
                    }
                    grace_left -= 1;
                }
                if conn.bytes_received() != seen_bytes {
                    seen_bytes = conn.bytes_received();
                    last_progress = Instant::now();
                }
                if let Some(limit) = idle_deadline {
                    let idle = last_progress.elapsed();
                    if idle >= limit {
                        // A client that stopped talking without closing
                        // would otherwise pin this thread (and its fd)
                        // forever.
                        match peer {
                            Some(addr) => eprintln!(
                                "nearpeerd: evicting idle connection {addr} \
                                 ({}s without progress)",
                                idle.as_secs()
                            ),
                            None => eprintln!(
                                "nearpeerd: evicting idle connection \
                                 ({}s without progress)",
                                idle.as_secs()
                            ),
                        }
                        return;
                    }
                }
            }
            // Oversized frame or transport error: the stream position is
            // untrustworthy, drop the connection. Replies to the frames
            // before it still go out if the socket takes them.
            Err(_) => {
                let _ = conn.flush();
                return;
            }
        }
    }
}

/// Queues every push ready for `client` right now; loops while full
/// batches keep coming, stops as soon as a drain comes back short.
fn queue_pushes(
    conn: &mut FrameConn,
    service: &dyn WireService,
    client: u64,
    scratch: &mut Vec<Message>,
) -> io::Result<()> {
    loop {
        scratch.clear();
        service.drain_pushes(client, PUSH_BATCH, scratch);
        for msg in scratch.iter() {
            conn.queue(msg);
            conn.flush_if_full()?;
        }
        if scratch.len() < PUSH_BATCH {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nearpeer_core::telemetry::find_metric;
    use nearpeer_core::LandmarkId;
    use std::net::TcpListener;

    #[test]
    fn mirror_matches_wire_service_answers() {
        let config = ServerConfig {
            neighbor_count: 5,
            ..ServerConfig::default()
        };
        for regions in [1usize, 2] {
            let service = build_service(4, regions, config).unwrap();
            let mut mirror = Mirror::build(4, regions, config).unwrap();
            let joins = world(4);
            let items: Vec<_> = (0..64u64).map(|p| joins.join(p)).collect();
            for (peer, path) in &items {
                let reply = service.handle(Message::JoinRequest {
                    peer: *peer,
                    path: path.clone(),
                });
                assert!(matches!(reply, Some(Message::JoinReply { .. })));
            }
            assert_eq!(mirror.register_all(items), 64);
            for p in 0..64u64 {
                let path = joins.path(p);
                let expected = mirror.closest_to_path(&path, 5, Some(PeerId(p)));
                let got = service.handle(Message::QueryRequest {
                    nonce: p,
                    path,
                    k: 5,
                    exclude: Some(PeerId(p)),
                });
                match got {
                    Some(Message::QueryReply { nonce, neighbors }) => {
                        assert_eq!(nonce, p);
                        assert_eq!(neighbors.len(), expected.len());
                        for (w, n) in neighbors.iter().zip(&expected) {
                            assert_eq!((w.peer, w.dtree), (n.peer, n.dtree));
                        }
                    }
                    other => panic!("expected QueryReply, got {other:?}"),
                }
            }
            // A handover answers the same fresh neighbor list on both sides.
            let peer = PeerId(3);
            let dest = LandmarkId((joins.landmark_of(3).0 + 1) % 4);
            let new_path = joins.path_to(3, dest);
            let expected = mirror.handover(peer, new_path.clone()).unwrap();
            match service.handle(Message::HandoverRequest {
                peer,
                path: new_path,
            }) {
                Some(Message::JoinReply { neighbors, .. }) => {
                    assert_eq!(neighbors.len(), expected.len());
                    for (w, n) in neighbors.iter().zip(&expected) {
                        assert_eq!((w.peer, w.dtree), (n.peer, n.dtree));
                    }
                }
                other => panic!("expected JoinReply, got {other:?}"),
            }
        }
    }

    /// Spawns [`serve_connection`] over a fresh single-region service and
    /// hands back the client stream plus the shutdown flag.
    fn spawn_server(
        idle_deadline: Option<Duration>,
    ) -> (FrameConn, Arc<AtomicBool>, std::thread::JoinHandle<()>) {
        let service = build_service(2, 1, ServerConfig::default()).unwrap();
        spawn_serving(service, idle_deadline)
    }

    /// [`spawn_server`] over a given service.
    fn spawn_serving(
        service: Arc<dyn WireService>,
        idle_deadline: Option<Duration>,
    ) -> (FrameConn, Arc<AtomicBool>, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = Arc::new(AtomicBool::new(false));
        let server_shutdown = Arc::clone(&shutdown);
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            serve_connection(stream, service, server_shutdown, addr, idle_deadline);
        });
        let conn = FrameConn::connect(addr).unwrap();
        (conn, shutdown, handle)
    }

    /// The server's telemetry registry, scraped over the connection.
    fn scrape(conn: &mut FrameConn) -> String {
        conn.send(&Message::StatsRequest { nonce: 0 }).unwrap();
        match conn.recv().unwrap() {
            Some(Message::StatsReply { text, .. }) => text,
            other => panic!("expected StatsReply, got {other:?}"),
        }
    }

    /// `wire_writes_total` as the server's own scrape reports it: every
    /// write this connection's serve loop finished before it rendered the
    /// reply, so not the write that carries the `StatsReply` itself.
    fn scrape_writes(conn: &mut FrameConn) -> u64 {
        find_metric(&scrape(conn), "wire_writes_total").unwrap_or(0)
    }

    /// Registers peers `0..n` one round trip at a time.
    fn join_peers(conn: &mut FrameConn, joins: &SyntheticJoins, n: u64) {
        for p in 0..n {
            let (peer, path) = joins.join(p);
            conn.send(&Message::JoinRequest { peer, path }).unwrap();
            assert!(matches!(
                conn.recv().unwrap(),
                Some(Message::JoinReply { .. })
            ));
        }
    }

    /// `n` query frames, nonces `0..n`, encoded back to back.
    fn query_frames(joins: &SyntheticJoins, n: u64) -> BytesMut {
        let mut frames = BytesMut::new();
        for nonce in 0..n {
            let msg = Message::QueryRequest {
                nonce,
                path: joins.path(nonce % 8),
                k: 5,
                exclude: Some(PeerId(nonce % 8)),
            };
            codec::encode(&msg, &mut frames);
        }
        frames
    }

    fn expect_query_reply(conn: &mut FrameConn, want: u64) {
        match conn.recv().unwrap() {
            Some(Message::QueryReply { nonce, neighbors }) => {
                assert_eq!(nonce, want, "replies out of order");
                assert_eq!(neighbors.len(), 5);
            }
            other => panic!("expected QueryReply {want}, got {other:?}"),
        }
    }

    #[test]
    fn pipelined_batch_is_answered_in_fewer_writes_than_replies() {
        const N: u64 = 200;
        let (mut conn, _, server) = spawn_server(None);
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let joins = world(2);
        join_peers(&mut conn, &joins, 8);
        let first = scrape(&mut conn);
        let before = find_metric(&first, "wire_writes_total").unwrap_or(0);
        // One client write carries the whole batch.
        conn.stream.write_all(&query_frames(&joins, N)).unwrap();
        for nonce in 0..N {
            expect_query_reply(&mut conn, nonce);
        }
        let text = scrape(&mut conn);
        // Minus the write that carried the first scrape's reply.
        let writes = find_metric(&text, "wire_writes_total").unwrap() - before - 1;
        assert!(
            (1..N).contains(&writes),
            "{N} pipelined replies took {writes} writes"
        );
        // The queries were served in bursts, none longer than the cap;
        // minus the first scrape's own burst of one.
        let bursts = |text: &str, series: &str| {
            find_metric(text, &format!("wire_batch_frames_{series}")).unwrap()
        };
        assert_eq!(bursts(&text, "sum") - bursts(&first, "sum") - 1, N);
        let count = bursts(&text, "count") - bursts(&first, "count") - 1;
        assert!(count < N, "{N} pipelined queries took {count} bursts");
        assert!(bursts(&text, "max") <= BATCH_FRAMES as u64);
        // The same scrape accounts for every reply the client verified,
        // and the serve loop timed them.
        assert_eq!(
            find_metric(&text, "wire_frames_total{kind=\"query-request\"}"),
            Some(N)
        );
        let timed = find_metric(&text, "wire_serve_us_count{kind=\"query-request\"}");
        assert!(timed > Some(0), "serve histogram is empty: {timed:?}");
        drop(conn);
        server.join().unwrap();
    }

    #[test]
    fn ping_pong_client_gets_one_write_per_reply() {
        const N: u64 = 50;
        let (mut conn, _, server) = spawn_server(None);
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let before = scrape_writes(&mut conn);
        for nonce in 0..N {
            conn.send(&Message::ProbePing { nonce }).unwrap();
            assert_eq!(conn.recv().unwrap(), Some(Message::ProbePong { nonce }));
        }
        assert_eq!(scrape_writes(&mut conn) - before - 1, N);
        drop(conn);
        server.join().unwrap();
    }

    #[test]
    fn shutdown_ack_is_flushed_before_the_connection_closes() {
        let service = build_service(2, 1, ServerConfig::default()).unwrap();
        let (mut conn, shutdown, server) = spawn_serving(Arc::clone(&service), None);
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // The ack sits behind two pongs, far under FLUSH_BYTES, and no
        // further read happens: only the exit-path flush can deliver it.
        // The join behind the shutdown arrives in the same write, and so
        // in the same read, but is never applied.
        let (peer, path) = world(2).join(0);
        let mut burst = BytesMut::new();
        codec::encode(&Message::ProbePing { nonce: 1 }, &mut burst);
        codec::encode(&Message::ProbePing { nonce: 2 }, &mut burst);
        codec::encode(&Message::Shutdown { nonce: 3 }, &mut burst);
        let join = Message::JoinRequest { peer, path };
        codec::encode(&join, &mut burst);
        conn.stream.write_all(&burst).unwrap();
        for nonce in 1..=3 {
            assert_eq!(conn.recv().unwrap(), Some(Message::ProbePong { nonce }));
        }
        assert_eq!(conn.recv().unwrap(), None);
        server.join().unwrap();
        assert!(shutdown.load(Ordering::Acquire));
        assert!(
            matches!(service.handle(join), Some(Message::JoinReply { .. })),
            "the join after the shutdown was applied"
        );
    }

    #[test]
    fn undecodable_frames_are_skipped_and_counted() {
        let (mut conn, _, server) = spawn_server(None);
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut burst = BytesMut::new();
        codec::encode(&Message::ProbePing { nonce: 1 }, &mut burst);
        // A whole frame from an unknown protocol version: consumed, not
        // decoded.
        burst.extend_from_slice(&[0, 0, 0, 2, 0xff, 0]);
        codec::encode(&Message::ProbePing { nonce: 2 }, &mut burst);
        conn.stream.write_all(&burst).unwrap();
        for nonce in 1..=2 {
            assert_eq!(conn.recv().unwrap(), Some(Message::ProbePong { nonce }));
        }
        assert_eq!(
            find_metric(&scrape(&mut conn), "wire_bad_frames_total"),
            Some(1)
        );
        drop(conn);
        server.join().unwrap();
    }

    /// A burst's replies as `Mirror` gives them applying its requests one
    /// at a time, in order.
    fn mirror_burst(mirror: &mut Mirror, burst: &[Message]) -> Vec<Outbound> {
        let wire = |neighbors: Vec<Neighbor>| {
            neighbors
                .into_iter()
                .map(|n| nearpeer_core::protocol::WireNeighbor {
                    peer: n.peer,
                    dtree: n.dtree,
                })
                .collect()
        };
        burst
            .iter()
            .map(|msg| {
                Outbound::Reply(match msg.clone() {
                    Message::JoinRequest { peer, path } => {
                        assert_eq!(mirror.register_all(vec![(peer, path.clone())]), 1);
                        Some(Message::JoinReply {
                            peer,
                            neighbors: wire(mirror.closest_to_path(&path, 5, Some(peer))),
                            delegate: None,
                        })
                    }
                    Message::HandoverRequest { peer, path } => Some(Message::JoinReply {
                        peer,
                        neighbors: wire(mirror.handover(peer, path).expect("registered")),
                        delegate: None,
                    }),
                    Message::Leave { peer } => {
                        assert_eq!(mirror.leave_all(&[peer]), 1);
                        None
                    }
                    // Every lease is renewed at the epoch it was opened.
                    Message::Heartbeat { .. } => None,
                    Message::QueryRequest {
                        nonce,
                        path,
                        k,
                        exclude,
                    } => Some(Message::QueryReply {
                        nonce,
                        neighbors: wire(mirror.closest_to_path(&path, k as usize, exclude)),
                    }),
                    other => panic!("no mirror for {}", other.kind_name()),
                })
            })
            .collect()
    }

    #[test]
    fn a_burst_answers_as_its_requests_would_one_at_a_time() {
        let config = ServerConfig {
            neighbor_count: 5,
            ..ServerConfig::default()
        };
        let service = build_service(4, 1, config).unwrap();
        let mut mirror = Mirror::build(4, 1, config).unwrap();
        let joins = world(4);
        let items: Vec<_> = (0..32u64).map(|p| joins.join(p)).collect();
        for (peer, path) in items.clone() {
            service.handle(Message::JoinRequest { peer, path });
        }
        assert_eq!(mirror.register_all(items), 32);
        let (newcomer, near) = joins.join(40);
        let (late, late_path) = joins.join(41);
        let away = LandmarkId((joins.landmark_of(5).0 + 1) % 4);
        let query = |nonce, path, exclude| Message::QueryRequest {
            nonce,
            path,
            k: 5,
            exclude,
        };
        let burst = vec![
            Message::JoinRequest {
                peer: newcomer,
                path: near.clone(),
            },
            query(1, near, None),
            Message::Leave { peer: PeerId(3) },
            Message::HandoverRequest {
                peer: PeerId(5),
                path: joins.path_to(5, away),
            },
            Message::Heartbeat { peer: PeerId(7) },
            query(2, joins.path(3), None),
            Message::JoinRequest {
                peer: late,
                path: late_path.clone(),
            },
            query(3, late_path, Some(late)),
        ];
        assert_eq!(burst.len(), BATCH_FRAMES);
        let want = mirror_burst(&mut mirror, &burst);
        let mut requests = burst;
        let mut got = Vec::new();
        service.handle_batch(None, &mut requests, &mut got);
        assert!(requests.is_empty(), "the burst is drained");
        assert_eq!(got, want);
        // The query right behind the join already sees the newcomer.
        match &got[1] {
            Outbound::Reply(Some(Message::QueryReply { neighbors, .. })) => {
                assert_eq!(neighbors[0].peer, newcomer);
            }
            other => panic!("expected a QueryReply, got {other:?}"),
        }
    }

    #[test]
    fn a_burst_applies_atomically_with_respect_to_other_connections() {
        const BURSTS: usize = 2_000;
        let service = build_service(2, 1, ServerConfig::default()).unwrap();
        let joins = world(2);
        for p in 0..8u64 {
            let (peer, path) = joins.join(p);
            service.handle(Message::JoinRequest { peer, path });
        }
        let (peer, path) = joins.join(0);
        let done = AtomicBool::new(false);
        let torn = std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let mut torn = 0;
                while !done.load(Ordering::Acquire) {
                    let reply = service.handle(Message::QueryRequest {
                        nonce: 0,
                        path: path.clone(),
                        k: 8,
                        exclude: None,
                    });
                    match reply {
                        Some(Message::QueryReply { neighbors, .. }) => {
                            torn += usize::from(neighbors.iter().all(|n| n.peer != peer));
                        }
                        other => panic!("expected QueryReply, got {other:?}"),
                    }
                }
                torn
            });
            // Each burst takes peer 0 out and puts it back: no reader may
            // see the directory between the two.
            let mut requests = Vec::new();
            let mut out = Vec::new();
            for _ in 0..BURSTS {
                requests.push(Message::Leave { peer });
                requests.push(Message::JoinRequest {
                    peer,
                    path: path.clone(),
                });
                service.handle_batch(None, &mut requests, &mut out);
                assert!(matches!(
                    out.pop(),
                    Some(Outbound::Reply(Some(Message::JoinReply { .. })))
                ));
                out.clear();
            }
            done.store(true, Ordering::Release);
            reader.join().unwrap()
        });
        assert_eq!(torn, 0, "{torn} queries saw a burst half-applied");
    }

    #[test]
    fn unread_pipelined_replies_never_pile_up_in_the_queue() {
        const N: u64 = 40_000;
        let (mut conn, _, server) = spawn_server(None);
        conn.set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let joins = world(2);
        join_peers(&mut conn, &joins, 8);
        let frames = query_frames(&joins, N);
        let sent = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let writer = {
            let mut stream = conn.stream.try_clone().unwrap();
            let sent = Arc::clone(&sent);
            std::thread::spawn(move || {
                for chunk in frames.chunks(64 * 1024) {
                    stream.write_all(chunk).unwrap();
                    sent.fetch_add(chunk.len(), Ordering::Relaxed);
                }
            })
        };
        // Read nothing until every request is written or the writer has
        // stalled (the server sits in `write_all`, the kernel buffers are
        // full). Starting early only makes the client less hostile; none
        // of the assertions below depend on when reading starts.
        loop {
            let seen = sent.load(Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(100));
            if writer.is_finished() || sent.load(Ordering::Relaxed) == seen {
                break;
            }
        }
        for nonce in 0..N {
            expect_query_reply(&mut conn, nonce);
        }
        writer.join().unwrap();
        drop(conn);
        server.join().unwrap();
        // Process-wide, so this covers every connection of every test here.
        let peak = QUEUE_PEAK.load(Ordering::Relaxed);
        assert!(
            (1..FLUSH_BYTES).contains(&peak),
            "a frame was appended to a queue already holding {peak} bytes"
        );
    }

    #[test]
    fn dribbling_sender_survives_idle_eviction() {
        // Idle deadline shorter than the time the frame takes to arrive:
        // only byte-progress liveness keeps this connection alive.
        let (mut conn, _, server) = spawn_server(Some(Duration::from_millis(600)));
        let frame = codec::encode_to_bytes(&Message::ProbePing { nonce: 42 });
        for b in frame.iter() {
            conn.stream.write_all(&[*b]).unwrap();
            conn.stream.flush().unwrap();
            std::thread::sleep(Duration::from_millis(100));
        }
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(
            conn.recv().unwrap(),
            Some(Message::ProbePong { nonce: 42 }),
            "server evicted a sender that was making byte progress"
        );
        drop(conn);
        server.join().unwrap();
    }

    #[test]
    fn shutdown_lets_inflight_frame_finish() {
        let (mut conn, shutdown, server) = spawn_server(None);
        let frame = codec::encode_to_bytes(&Message::ProbePing { nonce: 7 });
        let (head, tail) = frame.split_at(frame.len() / 2);
        conn.stream.write_all(head).unwrap();
        conn.stream.flush().unwrap();
        // Give the serve loop a tick to buffer the partial frame, then
        // request shutdown from "another connection".
        std::thread::sleep(Duration::from_millis(400));
        shutdown.store(true, Ordering::Release);
        // Hold the tail across at least one read-timeout tick so the
        // loop provably observes shutdown with the frame half-buffered.
        std::thread::sleep(Duration::from_millis(400));
        conn.stream.write_all(tail).unwrap();
        conn.stream.flush().unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(
            conn.recv().unwrap(),
            Some(Message::ProbePong { nonce: 7 }),
            "shutdown cut a frame that was already half-received"
        );
        // With the frame answered and the flag set, the loop exits.
        assert_eq!(conn.recv().unwrap(), None);
        server.join().unwrap();
    }

    #[test]
    fn pushes_arrive_before_the_fencing_reply() {
        let (mut conn, _, server) = spawn_server(None);
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let joins = world(2);
        let (peer, path) = joins.join(0);
        conn.send(&Message::JoinRequest { peer, path }).unwrap();
        assert!(matches!(
            conn.recv().unwrap(),
            Some(Message::JoinReply { .. })
        ));
        conn.send(&Message::Subscribe {
            nonce: 1,
            peer,
            k: 3,
            min_interval_ms: 0,
        })
        .unwrap();
        assert!(matches!(conn.recv().unwrap(), Some(Message::SubAck { .. })));
        // A second join must reach the subscriber as a DeltaPush, and a
        // ProbePing round-trip fences it: pong after push, never before.
        let (peer2, path2) = joins.join(1);
        conn.send(&Message::JoinRequest {
            peer: peer2,
            path: path2,
        })
        .unwrap();
        assert!(matches!(
            conn.recv().unwrap(),
            Some(Message::JoinReply { .. })
        ));
        conn.send(&Message::ProbePing { nonce: 99 }).unwrap();
        match conn.recv().unwrap() {
            Some(Message::DeltaPush { added, .. }) => {
                assert_eq!(added.len(), 1);
                assert_eq!(added[0].peer, peer2);
            }
            other => panic!("expected DeltaPush before the pong, got {other:?}"),
        }
        assert_eq!(conn.recv().unwrap(), Some(Message::ProbePong { nonce: 99 }));
        // The same as one burst: join reply, push and fencing pong share
        // one flush, and the push still precedes the pong.
        let before = scrape_writes(&mut conn);
        let (peer3, path3) = joins.join(2);
        let mut burst = BytesMut::new();
        let join3 = Message::JoinRequest {
            peer: peer3,
            path: path3,
        };
        codec::encode(&join3, &mut burst);
        codec::encode(&Message::ProbePing { nonce: 100 }, &mut burst);
        conn.stream.write_all(&burst).unwrap();
        assert!(matches!(
            conn.recv().unwrap(),
            Some(Message::JoinReply { .. })
        ));
        match conn.recv().unwrap() {
            Some(Message::DeltaPush { added, .. }) => {
                assert_eq!(added.len(), 1);
                assert_eq!(added[0].peer, peer3);
            }
            other => panic!("expected DeltaPush before the pong, got {other:?}"),
        }
        assert_eq!(
            conn.recv().unwrap(),
            Some(Message::ProbePong { nonce: 100 })
        );
        // One write for the first scrape's reply, one for the burst.
        assert_eq!(scrape_writes(&mut conn) - before, 2);
        drop(conn);
        server.join().unwrap();
    }

    #[test]
    fn frame_conn_reassembles_partial_writes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_nodelay(true).unwrap();
            let frame = codec::encode_to_bytes(&Message::Heartbeat { peer: PeerId(9) });
            // Dribble the frame one byte at a time across the socket.
            for b in frame.iter() {
                s.write_all(&[*b]).unwrap();
                s.flush().unwrap();
            }
            s.write_all(&codec::encode_to_bytes(&Message::ProbePing { nonce: 4 }))
                .unwrap();
        });
        let (stream, _) = listener.accept().unwrap();
        let mut conn = FrameConn::new(stream).unwrap();
        assert_eq!(
            conn.recv().unwrap(),
            Some(Message::Heartbeat { peer: PeerId(9) })
        );
        assert_eq!(conn.recv().unwrap(), Some(Message::ProbePing { nonce: 4 }));
        assert_eq!(conn.recv().unwrap(), None);
        writer.join().unwrap();
    }
}
