//! The traced run: the workload's seeded request stream replayed
//! in-process through a ladder of public entry points, one rung per
//! layer, with a span around every call. Nothing inside the program is
//! instrumented — each rung is timed from outside, and a layer's own
//! cost is its rung minus the rungs below it.
//!
//! | rung | layer | what is called |
//! |---|---|---|
//! | 1 | `server` / `federation` | the synchronous `Mirror` |
//! | 2 | `runtime` | `WireService::handle` (+ `drain_pushes`) on `build_service(..)` |
//! | 3 | `codec` | the four encode/decode calls on the very frames exchanged |
//! | 4 | `wire` | a `serve_connection` thread over loopback, through `FrameConn` |
//!
//! Every rung starts from freshly built state and replays the same
//! requests, so the spans of one request share its `req` across rungs.

use crate::daemon::{scratch_dir, REPLY_TIMEOUT};
use crate::oracle;
use crate::run::Bag;
use crate::spec::{Profile, Workload, K, LANDMARKS};
use crate::stats::{median, percentile_of};
use crate::traffic::{joins, ChurnStream, Op, OpKind, QueryPool, SubsPlan};
use nearpeer_bench::wire::{build_service, serve_connection, FrameConn};
use nearpeer_core::codec;
use nearpeer_core::protocol::Message;
use nearpeer_core::{PeerId, ServerConfig, WireService};
use std::collections::HashMap;
use std::io::{BufWriter, Write};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The request this call served; all spans of one request share it.
    pub req: u64,
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// The span that caused this one.
    pub parent: Option<&'static str>,
    /// Start, ns after the trace began.
    pub start_ns: u64,
    /// End, ns after the trace began.
    pub end_ns: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans kept in memory until the trace ends.
struct Tracer {
    began: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn time<T>(
        &mut self,
        req: u64,
        name: &'static str,
        parent: Option<&'static str>,
        call: impl FnOnce() -> T,
    ) -> T {
        let start_ns = self.began.elapsed().as_nanos() as u64;
        let out = call();
        let end_ns = self.began.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            req,
            name,
            parent,
            start_ns,
            end_ns,
        });
        out
    }
}

/// What a traced run produced.
#[derive(Debug, Clone)]
pub struct TraceResult {
    /// The layer metrics only the ladder can see (source L).
    pub layers: Bag,
    /// Spans recorded.
    pub spans: usize,
    /// Where the spans were written.
    pub file: PathBuf,
}

/// The workload's request stream and the state it runs against.
struct Scenario {
    workload: Workload,
    pool: QueryPool,
    plan: Option<SubsPlan>,
    /// Ids registered before the first request.
    population: Vec<u64>,
}

impl Scenario {
    fn new(workload: Workload, seed: u64, profile: &Profile) -> Self {
        let plan = (workload == Workload::Subs1r).then(|| SubsPlan::generate(seed, profile));
        let population = match &plan {
            Some(plan) => plan.setup_ids(),
            None => (0..profile.population).collect(),
        };
        Scenario {
            workload,
            pool: QueryPool::generate(seed, profile.population),
            plan,
            population,
        }
    }

    /// The first `n` requests of the workload's paced stream.
    fn requests(&self, seed: u64, n: usize) -> Vec<Op> {
        match (&self.plan, self.workload) {
            (Some(plan), _) => {
                let mut events = plan.events();
                (0..n).map(|_| events.next_op()).collect()
            }
            (None, Workload::Churn1r) => {
                let count = self.population.len() as u64;
                let spare = (count..count + count / 2).collect();
                let mut stream =
                    ChurnStream::new(seed, 2, &self.pool, self.population.clone(), spare);
                (0..n).map(|_| stream.next_op()).collect()
            }
            (None, _) => {
                let mut stream = self.pool.stream(seed, 3);
                (0..n).map(|_| stream()).collect()
            }
        }
    }

    /// A freshly populated service; with `subscribe`, the subscribers'
    /// standing queries are opened on the returned client.
    fn service(&self, subscribe: bool) -> (Arc<dyn WireService>, Option<u64>) {
        let config = ServerConfig {
            neighbor_count: K,
            ..ServerConfig::default()
        };
        let service = build_service(LANDMARKS, self.workload.regions(), config)
            .expect("the synthetic world is valid");
        // A join is a synchronous hand-off to a shard worker: several
        // callers at once let the mailboxes batch.
        let joins = joins();
        let chunk = self.population.len().div_ceil(BUILD_THREADS).max(1);
        std::thread::scope(|scope| {
            for ids in self.population.chunks(chunk) {
                let service = &service;
                scope.spawn(move || {
                    for &id in ids {
                        let (peer, path) = joins.join(id);
                        let reply = service.handle(Message::JoinRequest { peer, path });
                        assert!(matches!(reply, Some(Message::JoinReply { .. })));
                    }
                });
            }
        });
        let client = self.plan.as_ref().filter(|_| subscribe).map(|plan| {
            let client = service
                .open_client()
                .expect("one region has a push channel");
            for &sub in &plan.subscribers {
                let ack = service.handle_from(Some(client), subscribe_request(sub));
                assert!(matches!(ack, Some(Message::SubAck { .. })));
            }
            client
        });
        (service, client)
    }

    /// Whether the request stream changes the directory, so every rung
    /// needs state of its own.
    fn mutates(&self) -> bool {
        matches!(self.workload, Workload::Churn1r | Workload::Subs1r)
    }
}

/// Threads that populate a rung's fresh service.
const BUILD_THREADS: usize = 8;

fn subscribe_request(sub: u64) -> Message {
    Message::Subscribe {
        nonce: sub,
        peer: PeerId(sub),
        k: K as u16,
        min_interval_ms: 0,
    }
}

fn decode(frame: &[u8]) -> Message {
    codec::decode(&mut frame.into()).expect("the benchmark's own frame decodes")
}

/// Requests per chunk of a rung-2 pass.
const CHUNK: usize = 100;
/// Events per block of the watched / unwatched comparison of `subs_1r`.
const WATCH_BLOCK: usize = 1_000;

/// One rung-2 pass: every request through `WireService::handle`, in
/// chunks; `traced(chunk)` says whether that chunk's calls get a span
/// each. Answers the replies and each chunk's mean wall time per request
/// (ns), tagged with whether it was traced.
fn handle_pass(
    service: &dyn WireService,
    requests: &[Message],
    tracer: &mut Tracer,
    traced: impl Fn(usize) -> bool,
) -> (Vec<Option<Message>>, Vec<(bool, f64)>) {
    let mut replies = Vec::with_capacity(requests.len());
    let mut chunk_means = Vec::new();
    for (at, chunk) in requests.chunks(CHUNK).enumerate() {
        let on = traced(at);
        let began = Instant::now();
        for (i, msg) in chunk.iter().enumerate() {
            let msg = msg.clone();
            replies.push(if on {
                let req = (at * CHUNK + i) as u64;
                tracer.time(req, "runtime.handle", Some("wire.rtt"), || {
                    service.handle(msg)
                })
            } else {
                service.handle(msg)
            });
        }
        chunk_means.push((on, began.elapsed().as_nanos() as f64 / chunk.len() as f64));
    }
    (replies, chunk_means)
}

/// An in-process `serve_connection` server: accepts exactly `conns`
/// connections, one serve thread each; the threads end when their client
/// closes.
fn serve(
    service: &Arc<dyn WireService>,
    conns: usize,
) -> std::io::Result<(Vec<FrameConn>, Vec<std::thread::JoinHandle<()>>)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let (mut clients, mut servers) = (Vec::new(), Vec::new());
    for _ in 0..conns {
        let client = FrameConn::connect(addr)?;
        client.set_read_timeout(Some(REPLY_TIMEOUT))?;
        clients.push(client);
        let (stream, _) = listener.accept()?;
        let (service, shutdown) = (Arc::clone(service), Arc::clone(&shutdown));
        servers.push(std::thread::spawn(move || {
            serve_connection(stream, service, shutdown, addr, None)
        }));
    }
    Ok((clients, servers))
}

/// Most events the push rung of `subs_1r` times: each waits for the
/// serve loop's idle read tick, so a dozen is all a run can afford.
const PUSH_EVENTS: usize = 12;
/// The serve loop's idle read tick.
const READ_TICK: Duration = Duration::from_millis(250);

/// The ladder's working state: the requests every rung replays, the
/// spans so far, and the metrics derived on the way.
struct Ladder {
    scenario: Scenario,
    /// Requests per rung.
    n: usize,
    /// The requests, as sent frames and as decoded messages.
    ops: Vec<Op>,
    requests: Vec<Message>,
    /// The stream's next `2 n` requests (empty for a read-only stream):
    /// a stream that changes the directory cannot be replayed on the same
    /// state twice, so rung 2's comparison passes continue it instead.
    continued: Vec<Message>,
    tracer: Tracer,
    layers: Bag,
}

fn transport(e: std::io::Error) -> String {
    format!("trace transport: {e}")
}

fn join_all(servers: Vec<std::thread::JoinHandle<()>>) -> Result<(), String> {
    for server in servers {
        server.join().map_err(|_| "a serve thread panicked")?;
    }
    Ok(())
}

impl Ladder {
    fn new(workload: Workload, seed: u64, profile: &Profile) -> Self {
        let scenario = Scenario::new(workload, seed, profile);
        let n = profile.ladder_ops;
        let mut ops = scenario.requests(seed, if scenario.mutates() { 3 * n } else { n });
        let continued = ops.split_off(n);
        let decode_all = |ops: &[Op]| ops.iter().map(|op| decode(&op.frame)).collect();
        Ladder {
            requests: decode_all(&ops),
            continued: decode_all(&continued),
            tracer: Tracer {
                began: Instant::now(),
                spans: Vec::with_capacity(n * 8),
            },
            layers: Bag::new(),
            scenario,
            n,
            ops,
        }
    }

    /// The span and the metric of rung 1.
    fn sync_names(&self) -> (&'static str, &'static str) {
        match self.scenario.workload {
            Workload::Query4r => ("federation.sync", "federation.sync_ns"),
            _ => ("server.sync", "server.sync_ns"),
        }
    }

    /// Rung 1 — the synchronous model the runtime wraps.
    fn rung_sync(&mut self) {
        let (name, _) = self.sync_names();
        let mut mirror = oracle::build_mirror(self.scenario.workload.regions());
        oracle::register(&mut mirror, self.scenario.population.iter().copied());
        for (req, op) in self.ops.iter().enumerate() {
            self.tracer
                .time(req as u64, name, Some("runtime.handle"), || {
                    oracle::replay(&mut mirror, &self.scenario.pool, &op.record)
                });
        }
    }

    /// Rung 2 — the actorized service, called directly. Answers the
    /// replies, which rung 3 encodes and decodes.
    fn rung_runtime(&mut self) -> Vec<Option<Message>> {
        let n = self.n;
        let (service, client) = self.scenario.service(true);
        let (replies, _) = handle_pass(&*service, &self.requests, &mut self.tracer, |_| true);
        if let Some(client) = client {
            // The deltas the events queued, drained the way the serve
            // loop's idle tick does: in batches, well after the events.
            let (mut pushes, mut drained, mut drain_ns) = (Vec::new(), 0usize, 0u64);
            loop {
                pushes.clear();
                let began = Instant::now();
                self.tracer
                    .time(n as u64 - 1, "subscription.drain", None, || {
                        service.drain_pushes(client, 256, &mut pushes)
                    });
                if pushes.is_empty() {
                    break;
                }
                drain_ns += began.elapsed().as_nanos() as u64;
                drained += pushes.len();
            }
            self.layers.insert(
                "subscription.drain_ns_per_push",
                drain_ns as f64 / drained.max(1) as f64,
            );
        }
        // A second pass on the same, now warm, service prices the tracing
        // itself: every other chunk runs with spans off.
        let again = if self.scenario.mutates() {
            &self.continued[..n]
        } else {
            &self.requests[..]
        };
        let mut scratch = Tracer {
            began: Instant::now(),
            spans: Vec::with_capacity(n / 2),
        };
        let (_, chunks) = handle_pass(&*service, again, &mut scratch, |chunk| chunk % 2 == 0);
        let side = |on: bool| {
            let means: Vec<f64> = chunks.iter().filter(|c| c.0 == on).map(|c| c.1).collect();
            median(&means)
        };
        self.layers.insert(
            "loadgen.trace_overhead_pct",
            (side(true) - side(false)) / side(false) * 100.0,
        );
        // `subs_1r`: what watching costs a join. The stream goes on in
        // blocks, every other block with all subscriptions cancelled, and
        // the two sides are compared at their tenth percentile: a join's
        // hand-off to its shard worker is three times dearer whenever the
        // two threads sit on different cores, so medians compare thread
        // placement; the cheap tail compares the work.
        if let (Some(plan), Some(client)) = (&self.scenario.plan, client) {
            let (mut watched, mut unwatched, mut pushes) = (Vec::new(), Vec::new(), Vec::new());
            for (at, block) in self.continued[n..].chunks(WATCH_BLOCK).enumerate() {
                let watching = at % 2 == 0;
                for &sub in &plan.subscribers {
                    service.handle_from(
                        Some(client),
                        if watching {
                            subscribe_request(sub)
                        } else {
                            Message::Unsubscribe {
                                nonce: sub,
                                peer: PeerId(sub),
                            }
                        },
                    );
                }
                for msg in block {
                    let began = Instant::now();
                    std::hint::black_box(service.handle(msg.clone()));
                    if matches!(msg, Message::JoinRequest { .. }) {
                        let took = began.elapsed().as_nanos() as u64;
                        if watching {
                            &mut watched
                        } else {
                            &mut unwatched
                        }
                        .push(took);
                    }
                }
                pushes.clear();
                service.drain_pushes(client, usize::MAX, &mut pushes);
            }
            self.layers.insert(
                "subscription.join_overhead_ns",
                percentile_of(&mut watched, 0.1) as f64 - percentile_of(&mut unwatched, 0.1) as f64,
            );
        }
        replies
    }

    /// Rung 3 — the codec, on the very frames rungs 2 and 4 exchange.
    fn rung_codec(&mut self, replies: &[Option<Message>]) {
        let parent = Some("wire.rtt");
        let requests = self.ops.iter().zip(&self.requests).zip(replies);
        for (req, ((op, msg), reply)) in requests.enumerate() {
            let req = req as u64;
            self.tracer.time(req, "codec.encode_req", parent, || {
                std::hint::black_box(codec::encode_to_bytes(msg))
            });
            self.tracer.time(req, "codec.decode_req", parent, || {
                std::hint::black_box(decode(&op.frame))
            });
            if let Some(reply) = reply {
                let frame = self.tracer.time(req, "codec.encode_reply", parent, || {
                    codec::encode_to_bytes(reply)
                });
                self.tracer.time(req, "codec.decode_reply", parent, || {
                    std::hint::black_box(decode(&frame))
                });
            }
        }
    }

    /// Rung 4 — the serve loop over loopback, one request at a time; then
    /// the scrape, which rides the same connection.
    fn rung_wire(&mut self) -> Result<(), String> {
        let (service, _) = self.scenario.service(true);
        let (mut conns, servers) = serve(&service, 1).map_err(transport)?;
        let conn = &mut conns[0];
        for (req, (op, msg)) in self.ops.iter().zip(&self.requests).enumerate() {
            let round_trip = |conn: &mut FrameConn| -> std::io::Result<()> {
                conn.send(msg)?;
                if op.record.kind.expects_reply() {
                    conn.recv()?;
                }
                Ok(())
            };
            self.tracer
                .time(req as u64, "wire.rtt", None, || round_trip(conn))
                .map_err(transport)?;
        }
        let mut scrapes = Vec::new();
        for _ in 0..11 {
            let began = Instant::now();
            conn.send(&Message::StatsRequest { nonce: 0 })
                .map_err(transport)?;
            let Some(Message::StatsReply { text, .. }) = conn.recv().map_err(transport)? else {
                return Err("the scrape was not answered".into());
            };
            scrapes.push(began.elapsed().as_secs_f64() * 1e3);
            self.layers
                .insert("telemetry.scrape_bytes", text.len() as f64);
        }
        self.layers.insert("telemetry.scrape_ms", median(&scrapes));
        drop(conns);
        join_all(servers)
    }

    /// `subs_1r`, rung 4 for the primary op: an event on connection C to
    /// the first push naming its peer on an otherwise idle connection S.
    /// Answers the round trips, ns (none for the other workloads).
    fn rung_push(&self) -> Result<Vec<u64>, String> {
        let Some(plan) = &self.scenario.plan else {
            return Ok(Vec::new());
        };
        let (service, _) = self.scenario.service(false);
        let (mut conns, servers) = serve(&service, 2).map_err(transport)?;
        let [s, c] = &mut conns[..] else {
            unreachable!("two connections were opened")
        };
        for &sub in &plan.subscribers {
            s.send(&subscribe_request(sub)).map_err(transport)?;
            s.recv().map_err(transport)?;
        }
        let events = PUSH_EVENTS.min(self.n / 100);
        let mut round_trips = Vec::with_capacity(events);
        for (i, (op, msg)) in self.ops.iter().zip(&self.requests).take(events).enumerate() {
            // Spread the events over the tick's phase: sent right after a
            // push they would all wait one whole tick.
            std::thread::sleep(READ_TICK.mul_f64(i as f64 / events as f64));
            let began = Instant::now();
            c.send(msg).map_err(transport)?;
            if op.record.kind.expects_reply() {
                c.recv().map_err(transport)?;
            }
            let named = |peer: &PeerId| peer.0 == op.record.subject;
            loop {
                match s.recv().map_err(transport)? {
                    Some(Message::DeltaPush { added, removed, .. })
                        if added.iter().any(|n| named(&n.peer)) || removed.iter().any(named) =>
                    {
                        break
                    }
                    Some(_) => {}
                    None => return Err("the push rung's connection S closed".into()),
                }
            }
            round_trips.push(began.elapsed().as_nanos() as u64);
        }
        drop(conns);
        join_all(servers)?;
        Ok(round_trips)
    }

    /// Durations of the `name` spans whose request is of `kind`.
    fn durations(&self, name: &str, kind: OpKind) -> Vec<u64> {
        durations(&self.tracer.spans, name, &self.ops, kind)
    }
}

/// Runs the ladder for `workload` and writes the span file.
pub fn trace(workload: Workload, seed: u64, profile: &Profile) -> Result<TraceResult, String> {
    let mut ladder = Ladder::new(workload, seed, profile);
    ladder.rung_sync();
    let replies = ladder.rung_runtime();
    ladder.rung_codec(&replies);
    ladder.rung_wire()?;
    let mut push_round_trips = ladder.rung_push()?;

    // Medians over the primary op's requests; self time is a span's
    // duration minus its child spans of the same request.
    let primary = OpKind::carrying(workload);
    let mid = |name: &str| percentile_of(&mut ladder.durations(name, primary), 0.5) as f64;
    let own = |name: &str| self_time(&ladder.tracer.spans, name, &ladder.ops, primary);
    let (sync_span, sync_metric) = ladder.sync_names();
    let mut layers = Bag::from([
        (sync_metric, mid(sync_span)),
        ("runtime.handle_ns", mid("runtime.handle")),
        ("runtime.self_ns", own("runtime.handle")),
        ("codec.encode_req_ns", mid("codec.encode_req")),
        ("codec.decode_req_ns", mid("codec.decode_req")),
        ("codec.encode_reply_ns", mid("codec.encode_reply")),
        ("codec.decode_reply_ns", mid("codec.decode_reply")),
    ]);
    if push_round_trips.is_empty() {
        layers.insert("wire.rtt_ns", mid("wire.rtt"));
        layers.insert("wire.self_ns", own("wire.rtt"));
    } else {
        // The push waits for nothing but the wire: its whole round trip,
        // less the join's handling and the codec, is the serve loop's.
        let rtt = percentile_of(&mut push_round_trips, 0.5) as f64;
        let children: f64 = ["runtime.handle", "codec.encode_req", "codec.decode_req"]
            .iter()
            .map(|name| mid(name))
            .sum();
        layers.insert("wire.rtt_ns", rtt);
        layers.insert("wire.self_ns", rtt - children);
    }
    if workload == Workload::Churn1r {
        layers.extend(crate::persist::measure(
            &ladder.scenario.population,
            &ladder.scenario.pool,
            &ladder.ops,
        )?);
    }
    layers.extend(ladder.layers);

    let spans = ladder.tracer.spans;
    let file = write_spans(workload, &spans).map_err(|e| format!("span file: {e}"))?;
    Ok(TraceResult {
        layers,
        spans: spans.len(),
        file,
    })
}

/// Durations of the `name` spans whose request is of `kind`.
fn durations(spans: &[Span], name: &str, ops: &[Op], kind: OpKind) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name && ops[s.req as usize].record.kind == kind)
        .map(Span::duration)
        .collect()
}

/// Median self time of the `name` spans whose request is of `kind`: each
/// span's duration minus the durations of its child spans of the same
/// request.
fn self_time(spans: &[Span], name: &str, ops: &[Op], kind: OpKind) -> f64 {
    let mut children: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent == Some(name)) {
        *children.entry(s.req).or_default() += s.duration();
    }
    let mut own: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == name && ops[s.req as usize].record.kind == kind)
        .map(|s| {
            s.duration()
                .saturating_sub(children.get(&s.req).copied().unwrap_or(0))
        })
        .collect();
    percentile_of(&mut own, 0.5) as f64
}

/// Writes the spans as JSON lines to `<target>/perf/trace-<workload>.jsonl`.
fn write_spans(workload: Workload, spans: &[Span]) -> std::io::Result<PathBuf> {
    let dir = scratch_dir();
    std::fs::create_dir_all(&dir)?;
    let file = dir.join(format!("trace-{}.jsonl", workload.name()));
    let mut out = BufWriter::new(std::fs::File::create(&file)?);
    for s in spans {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| format!("\"{p}\""));
        writeln!(
            out,
            "{{\"req\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.req, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()?;
    Ok(file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::OpRecord;

    #[test]
    fn self_time_is_duration_minus_child_spans_of_the_same_request() {
        let span = |req, name, parent, start_ns, end_ns| Span {
            req,
            name,
            parent,
            start_ns,
            end_ns,
        };
        let spans = [
            span(0, "wire.rtt", None, 0, 1_000),
            span(0, "runtime.handle", Some("wire.rtt"), 5_000, 5_300),
            span(0, "codec.decode_req", Some("wire.rtt"), 6_000, 6_100),
            span(0, "server.sync", Some("runtime.handle"), 7_000, 7_250),
            // Another request's children must not be charged to request 0.
            span(1, "runtime.handle", Some("wire.rtt"), 8_000, 8_900),
        ];
        let query = Op {
            record: OpRecord {
                kind: OpKind::Query,
                subject: 0,
                landmark: 0,
            },
            frame: bytes::Bytes::new(),
        };
        let ops = [query.clone(), query];
        assert_eq!(
            self_time(&spans[..4], "wire.rtt", &ops, OpKind::Query),
            600.0
        );
        assert_eq!(
            self_time(&spans[..4], "runtime.handle", &ops, OpKind::Query),
            50.0
        );
        assert_eq!(
            durations(&spans, "runtime.handle", &ops, OpKind::Query),
            vec![300, 900]
        );
        assert!(durations(&spans, "runtime.handle", &ops, OpKind::Join).is_empty());
    }
}
