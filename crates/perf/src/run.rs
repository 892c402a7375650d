//! One untraced run of one workload against a real `nearpeerd`: set up,
//! paced phase, saturate phase, verification — producing the end-to-end
//! metrics and the layer metrics that come from the wire (the daemon's
//! own registry, its `/proc` entry, and the client's samples).

use crate::conn::Conn;
use crate::daemon::{Daemon, REPLY_TIMEOUT};
use crate::loadgen::{self, ClosedOutcome, Lane, PacedOutcome, FENCE_NONCE};
use crate::oracle::{self, ExpectedAnswers, Tally, Verdict, View};
use crate::procfs::ProcSample;
use crate::spec::{
    Profile, Workload, FAIL_SHARE, SATURATE_SLICES, SATURATE_WINDOW, SETUP_CONNS, SETUP_WINDOW,
};
use crate::stats::{percentile, slice_median_rate};
use crate::traffic::{joins, ChurnStream, Op, OpKind, OpRecord, QueryPool, SubsPlan};
use nearpeer_bench::wire::Mirror;
use nearpeer_core::codec;
use nearpeer_core::protocol::Message;
use nearpeer_core::telemetry::find_metric;
use nearpeer_core::PeerId;
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Metric values by name.
pub type Bag = BTreeMap<&'static str, f64>;

/// What one run produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The workload run.
    pub workload: Workload,
    /// Its seed.
    pub seed: u64,
    /// Failure accounting over both phases and the sweeps.
    pub tally: Tally,
    /// The six end-to-end metrics.
    pub end_to_end: Bag,
    /// The layer metrics the wire run can see (sources S, P and C).
    pub layers: Bag,
}

/// A daemon with its population registered, and what that took.
struct Bed {
    daemon: Daemon,
    /// Spawn → population registered → every join confirmed served.
    setup_s: f64,
    registered: u64,
}

/// Spawns the daemon, registers `ids` over [`SETUP_CONNS`] pipelined
/// connections and confirms by scrape that every join was served.
fn set_up(workload: Workload, ids: &[u64]) -> Result<Bed, String> {
    let setup_began = Instant::now();
    let daemon = Daemon::spawn(workload.regions())?;
    let joins = joins();
    let join_op = |&id: &u64| {
        let (peer, path) = joins.join(id);
        Op {
            record: OpRecord {
                kind: OpKind::Join,
                subject: id,
                landmark: 0,
            },
            frame: codec::encode_to_bytes(&Message::JoinRequest { peer, path }),
        }
    };
    let accepted =
        |op: &OpRecord, reply: Option<Message>| oracle::check_join_echo(op.subject, reply.as_ref());
    let mut conns: Vec<Conn> = Vec::new();
    for _ in 0..SETUP_CONNS {
        conns.push(daemon.connect()?);
    }
    let chunk = ids.len().div_ceil(SETUP_CONNS).max(1);
    let lanes: Vec<Lane> = conns
        .iter_mut()
        .zip(ids.chunks(chunk))
        .map(|(conn, ids)| {
            let mut ops = ids.iter().map(join_op);
            Lane {
                conn,
                source: Box::new(move || ops.next()),
                sink: Box::new(accepted),
            }
        })
        .collect();
    let tally = loadgen::pipelined(lanes, SETUP_WINDOW).map_err(|e| format!("set-up: {e}"))?;
    if tally.failed() > 0 {
        return Err(format!(
            "set-up: {} of {} joins failed",
            tally.failed(),
            ids.len()
        ));
    }
    let served = find_metric(
        &crate::daemon::scrape(&mut conns[0])?,
        "wire_frames_total{kind=\"join-request\"}",
    );
    if served != Some(ids.len() as u64) {
        return Err(format!(
            "set-up: daemon counts {served:?} joins served, {} were sent",
            ids.len()
        ));
    }
    Ok(Bed {
        daemon,
        setup_s: setup_began.elapsed().as_secs_f64(),
        registered: ids.len() as u64,
    })
}

/// The daemon's registry at one instant.
struct Scrape(String);

impl Scrape {
    fn get(&self, name: &str) -> f64 {
        find_metric(&self.0, name).unwrap_or(0) as f64
    }

    /// Sum of a series over the mailbox labels the daemon shape has.
    fn mailboxes(&self, series: &str) -> f64 {
        ["shard", "region-write", "region-query"]
            .iter()
            .map(|label| self.get(&format!("{series}{{mailbox=\"{label}\"}}")))
            .sum()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

/// Sorted latencies (ns) of the samples of one kind — or of every kind.
fn latencies(samples: &[(OpKind, u64)], kind: Option<OpKind>) -> Vec<u64> {
    let mut out: Vec<u64> = samples
        .iter()
        .filter(|(k, _)| kind.is_none_or(|want| *k == want))
        .map(|&(_, ns)| ns)
        .collect();
    out.sort_unstable();
    out
}

/// Everything the phases of one run measured, before it becomes metrics.
struct Measured {
    /// Sorted primary-op latencies of the paced phase, ns.
    primary: Vec<u64>,
    paced: PacedOutcome,
    saturate: Vec<ClosedOutcome>,
    before: Scrape,
    after: Scrape,
    cpu_begin: ProcSample,
    cpu_end: ProcSample,
    /// Verification that happened outside the two engines.
    extra: Tally,
    /// Churn events of both phases (`subs_1r`; 0 elsewhere).
    events: u64,
}

fn finish(
    workload: Workload,
    seed: u64,
    profile: &Profile,
    bed: Bed,
    m: Measured,
) -> Result<RunResult, String> {
    let last = bed.daemon.sample()?;
    bed.daemon.shutdown()?;

    let share = ratio(m.paced.in_time as f64, m.paced.scheduled as f64);
    if share < profile.min_schedule_share {
        return Err(format!(
            "{}: the paced phase completed {:.2} % of its schedule within 1 s of its end \
             (max sender lag {:.0} us) — a failed run, not a data point",
            workload.name(),
            share * 100.0,
            us(m.paced.max_lag_ns)
        ));
    }

    let mut tally = m.extra;
    tally.absorb(&m.paced.tally);
    let mut sat = Tally::default();
    let mut per_slice = vec![0u64; SATURATE_SLICES];
    let mut sat_samples = Vec::new();
    let mut bytes_sent = m.paced.bytes_sent;
    for conn in &m.saturate {
        sat.absorb(&conn.tally);
        bytes_sent += conn.bytes_sent;
        sat_samples.extend_from_slice(&conn.samples);
        for (sum, n) in per_slice.iter_mut().zip(&conn.per_slice) {
            *sum += n;
        }
    }
    tally.absorb(&sat);
    eprintln!(
        "perf: {} seed {seed}: saturate slices {per_slice:?}, paced {}/{} in time, \
         sender lag {:.0} us, {} failed of {}",
        workload.name(),
        m.paced.in_time,
        m.paced.scheduled,
        us(m.paced.max_lag_ns),
        tally.failed(),
        tally.attempted
    );
    let sat_ops = (sat.attempted - sat.failed()) as f64;
    let timed_ops = (m.paced.tally.attempted + sat.attempted) as f64;
    let cpu = m.cpu_end.cpu.since(&m.cpu_begin.cpu);

    let mut e2e = Bag::new();
    e2e.insert("setup_s", bed.setup_s);
    e2e.insert("latency_p50_us", us(percentile(&m.primary, 0.5)));
    e2e.insert(
        "throughput_ops_s",
        slice_median_rate(
            &per_slice,
            profile.saturate.as_secs_f64() / SATURATE_SLICES as f64,
        ),
    );
    e2e.insert(
        "server_cpu_us_per_op",
        ratio(cpu.total_us() as f64, sat_ops),
    );
    e2e.insert("server_rss_mb", last.hwm_bytes as f64 / 1e6);
    e2e.insert(FAIL_SHARE, tally.fail_share());

    let mut l = Bag::new();
    l.insert("loadgen.latency_p90_us", us(percentile(&m.primary, 0.9)));
    l.insert("loadgen.latency_p99_us", us(percentile(&m.primary, 0.99)));
    l.insert("loadgen.latency_p999_us", us(percentile(&m.primary, 0.999)));
    l.insert("loadgen.sender_max_lag_us", us(m.paced.max_lag_ns));
    l.insert("loadgen.achieved_rate_share", share);
    l.insert("loadgen.samples", m.primary.len() as f64);
    l.insert(
        "loadgen.saturate_latency_p50_us",
        us(percentile(&latencies(&sat_samples, None), 0.5)),
    );
    for (name, kind) in [
        ("loadgen.join_p50_us", OpKind::Join),
        ("loadgen.handover_p50_us", OpKind::Handover),
        ("loadgen.query_p50_us", OpKind::Query),
    ] {
        let sorted = latencies(&m.paced.samples, Some(kind));
        l.insert(name, us(percentile(&sorted, 0.5)));
    }

    l.insert("nearpeerd.threads", m.cpu_end.threads as f64);
    l.insert(
        "nearpeerd.ctx_switches_per_op",
        ratio(
            m.cpu_end
                .ctx_switches
                .saturating_sub(m.cpu_begin.ctx_switches) as f64,
            sat_ops,
        ),
    );
    l.insert(
        "nearpeerd.user_cpu_share",
        ratio(cpu.user_us as f64, cpu.total_us() as f64),
    );
    l.insert(
        "nearpeerd.rss_bytes_per_peer",
        ratio(last.hwm_bytes as f64, bed.registered as f64),
    );

    let (before, after) = (&m.before, &m.after);
    let delta = |name: &str| after.get(name) - before.get(name);
    let kind = workload.primary_kind();
    for (name, q) in [("wire.serve_p50_us", "0.5"), ("wire.serve_p99_us", "0.99")] {
        l.insert(
            name,
            after.get(&format!(
                "wire_serve_us{{kind=\"{kind}\",quantile=\"{q}\"}}"
            )),
        );
    }
    l.insert(
        "wire.reply_bytes_per_op",
        ratio(
            delta(&format!("wire_reply_bytes_sum{{kind=\"{kind}\"}}")),
            delta(&format!("wire_reply_bytes_count{{kind=\"{kind}\"}}")),
        ),
    );
    l.insert(
        "wire.request_bytes_per_op",
        ratio(bytes_sent as f64, timed_ops),
    );

    let items = after.mailboxes("mailbox_items_total") - before.mailboxes("mailbox_items_total");
    let batches =
        after.mailboxes("mailbox_batches_total") - before.mailboxes("mailbox_batches_total");
    l.insert("runtime.mailbox_batch_mean", ratio(items, batches));
    l.insert("runtime.mailbox_items_per_op", ratio(items, timed_ops));
    l.insert(
        "runtime.mailbox_queue_peak",
        ["shard", "region-write", "region-query"]
            .iter()
            .map(|label| after.get(&format!("mailbox_queue_depth_peak{{mailbox=\"{label}\"}}")))
            .fold(0.0, f64::max),
    );

    l.insert(
        "directory.query_p50_us",
        after.get("dir_query_latency_us{quantile=\"0.5\"}"),
    );
    l.insert(
        "directory.cross_landmark_fill_share",
        ratio(
            delta("dir_cross_landmark_fills_total"),
            delta("dir_queries_total"),
        ),
    );
    let fed_queries = delta("fed_queries_total");
    l.insert(
        "federation.query_p50_us",
        after.get("fed_query_latency_us{quantile=\"0.5\"}"),
    );
    l.insert(
        "federation.regions_per_query",
        if fed_queries == 0.0 {
            0.0
        } else {
            1.0 + delta("fed_remote_regions_consulted_total") / fed_queries
        },
    );
    l.insert(
        "federation.cross_region_fill_share",
        ratio(delta("fed_cross_region_fills_total"), fed_queries),
    );

    let (pushed, coalesced) = (delta("sub_pushed_total"), delta("sub_coalesced_total"));
    let events = m.events as f64;
    l.insert("subscription.deltas_per_event", ratio(pushed, events));
    l.insert(
        "subscription.coalesce_ratio",
        ratio(coalesced, pushed + coalesced),
    );
    l.insert(
        "subscription.refill_share",
        ratio(delta("sub_refills_total"), events),
    );
    l.insert("subscription.queue_peak", after.get("sub_queue_depth_peak"));
    l.insert(
        "subscription.push_delay_p99_ms",
        if workload == Workload::Subs1r {
            us(percentile(&m.primary, 0.99)) / 1_000.0
        } else {
            0.0
        },
    );

    Ok(RunResult {
        workload,
        seed,
        tally,
        end_to_end: e2e,
        layers: l,
    })
}

/// Runs `workload` once, untraced.
pub fn run(workload: Workload, seed: u64, profile: &Profile) -> Result<RunResult, String> {
    match workload {
        Workload::Subs1r => run_subs(seed, profile),
        _ => run_requests(workload, seed, profile),
    }
}

/// Lets the daemon reap a just-closed connection's thread, so the
/// per-thread `/proc` sums cover the same threads at both ends of the
/// saturate phase.
fn settle() {
    std::thread::sleep(Duration::from_millis(50));
}

/// The saturate phase over `lanes`, one per connection.
fn run_saturate(profile: &Profile, lanes: Vec<Lane<'_>>) -> Result<Vec<ClosedOutcome>, String> {
    loadgen::windowed(lanes, profile.saturate, SATURATE_SLICES, SATURATE_WINDOW)
        .map_err(|e| format!("saturate phase: {e}"))
}

/// `query_1r`, `query_4r` and `churn_1r`: a paced phase on one connection,
/// then a saturate phase — on one connection for the read-only workloads,
/// on two writing disjoint id halves for `churn_1r`.
fn run_requests(workload: Workload, seed: u64, profile: &Profile) -> Result<RunResult, String> {
    let population = profile.population;
    let pool = QueryPool::generate(seed, population);
    let ids: Vec<u64> = (0..population).collect();
    let bed = set_up(workload, &ids)?;
    let daemon = &bed.daemon;
    let rate = workload.paced_rate() / profile.rate_div;

    let mut mirror = oracle::build_mirror(workload.regions());
    oracle::register(&mut mirror, ids);
    let mut extra = Tally::default();
    let before = Scrape(daemon.scrape()?);

    let (paced, saturate, cpu_begin, cpu_end, after);
    if workload == Workload::Churn1r {
        let spare = (population..population + population / 2).collect();
        let mut stream = ChurnStream::new(seed, 2, &pool, (0..population).collect(), spare);
        // One connection, so the order is total: log every op with its
        // reply and replay the lot through the mirror afterwards.
        let mut log: Vec<(OpRecord, Option<Message>)> = Vec::new();
        paced = loadgen::paced(
            daemon.addr(),
            rate,
            profile.paced,
            || stream.next_op(),
            |op, reply| {
                log.push((*op, reply));
                Verdict::Ok
            },
        )?;
        let replayed = oracle::replay_verify(&mut mirror, &pool, &log);
        extra.mismatched += replayed.mismatched;
        extra.errored += replayed.errored;
        drop(log);

        // Two connections writing disjoint id halves: replies depend on
        // the interleaving, so they are checked for shape only…
        let (mut half_a, mut half_b) = stream.split(seed);
        let (mut writes_a, mut writes_b) = (Vec::new(), Vec::new());
        settle();
        cpu_begin = daemon.sample()?;
        let [mut ca, mut cb] = [daemon.connect()?, daemon.connect()?];
        let structural = |writes: &mut Vec<OpRecord>, op: &OpRecord, reply: Option<Message>| {
            if !matches!(op.kind, OpKind::Query | OpKind::Heartbeat) {
                writes.push(*op);
            }
            reply.map_or(Verdict::Ok, |m| oracle::check_structure(&pool, op, &m))
        };
        saturate = run_saturate(
            profile,
            vec![
                Lane {
                    conn: &mut ca,
                    source: Box::new(|| Some(half_a.next_op())),
                    sink: Box::new(|op, reply| structural(&mut writes_a, op, reply)),
                },
                Lane {
                    conn: &mut cb,
                    source: Box::new(|| Some(half_b.next_op())),
                    sink: Box::new(|op, reply| structural(&mut writes_b, op, reply)),
                },
            ],
        )?;
        cpu_end = daemon.sample()?;
        after = Scrape(daemon.scrape()?);
        // …and the final state, a pure function of the op set, is checked
        // exactly: replay both halves' writes, then sweep the pool.
        for op in writes_a.iter().chain(&writes_b) {
            oracle::replay(&mut mirror, &pool, op);
        }
        let expected = ExpectedAnswers::compute(&mirror, &pool);
        let mut picks = pool.stream(seed, 6);
        let mut left = profile.sweep;
        let sweep = Lane {
            conn: &mut ca,
            source: Box::new(|| {
                left = left.checked_sub(1)?;
                Some(picks())
            }),
            sink: Box::new(|op, reply| {
                reply.map_or(Verdict::Ok, |m| expected.check(op.subject, &m))
            }),
        };
        let sweep =
            loadgen::pipelined(vec![sweep], SATURATE_WINDOW).map_err(|e| format!("sweep: {e}"))?;
        extra.absorb(&sweep);
    } else {
        // Read-only: expected reply hashes are computed before timing, so
        // every reply of both phases is verified bit-for-bit as it lands.
        let expected = ExpectedAnswers::compute(&mirror, &pool);
        let exact = |op: &OpRecord, reply: Option<Message>| {
            reply.map_or(Verdict::Ok, |m| expected.check(op.subject, &m))
        };
        paced = loadgen::paced(
            daemon.addr(),
            rate,
            profile.paced,
            pool.stream(seed, 3),
            exact,
        )?;
        settle();
        cpu_begin = daemon.sample()?;
        // One connection: its serve thread does all the work of a query,
        // and a second always-runnable serve thread beside the client on
        // two cores made throughput bimodal (130 k or 160 k ops/s, for the
        // whole run, by where the three threads had landed).
        let mut conn = daemon.connect()?;
        let mut picks = pool.stream(seed, 4);
        let lane = Lane {
            conn: &mut conn,
            source: Box::new(|| Some(picks())),
            sink: Box::new(exact),
        };
        saturate = run_saturate(profile, vec![lane])?;
        cpu_end = daemon.sample()?;
        after = Scrape(daemon.scrape()?);
    }

    let measured = Measured {
        primary: latencies(&paced.samples, Some(OpKind::carrying(workload))),
        paced,
        saturate,
        before,
        after,
        cpu_begin,
        cpu_end,
        extra,
        events: 0,
    };
    finish(workload, seed, profile, bed, measured)
}

/// One `DeltaPush` naming a churner, as the subscription connection saw it.
struct Arrival {
    peer: u64,
    joined: bool,
    at_ns: u64,
}

/// Reads connection S until `done` is raised, then fences it: applies
/// every delta to its subscriber's view and notes when each churner was
/// named.
fn listen(
    s: &mut Conn,
    plan: &SubsPlan,
    views: &mut [View],
    start: Instant,
    done: &AtomicBool,
    arrivals: &mut Vec<Arrival>,
    tally: &mut Tally,
) -> Result<(), String> {
    let timeout = |conn: &Conn, t| {
        conn.set_read_timeout(t)
            .map_err(|e| format!("set timeout: {e}"))
    };
    // Short reads, so the raised flag is seen within a tick.
    timeout(s, Duration::from_millis(20))?;
    let mut fenced = false;
    loop {
        match s.recv() {
            Ok(Some(Message::DeltaPush {
                peer,
                added,
                removed,
                ..
            })) => {
                let at_ns = loadgen::ns_since(start);
                let Some(i) = plan.subscriber_index(peer.0) else {
                    tally.errored += 1;
                    continue;
                };
                oracle::apply_delta(&mut views[i], &added, &removed);
                let named = added
                    .iter()
                    .map(|n| (n.peer, true))
                    .chain(removed.iter().map(|p| (*p, false)));
                for (PeerId(peer), joined) in named {
                    if plan.is_churner(peer) {
                        arrivals.push(Arrival {
                            peer,
                            joined,
                            at_ns,
                        });
                    }
                }
            }
            Ok(Some(Message::ProbePong { nonce: FENCE_NONCE })) if fenced => return Ok(()),
            Ok(Some(other)) => return Err(format!("unexpected {} on S", other.kind_name())),
            Ok(None) => return Err("the daemon closed connection S".into()),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if fenced {
                    return Err("the fence on connection S timed out".into());
                }
                if done.load(Ordering::Acquire) {
                    timeout(s, REPLY_TIMEOUT)?;
                    s.send(&Message::ProbePing { nonce: FENCE_NONCE })
                        .map_err(|e| format!("fence S: {e}"))?;
                    fenced = true;
                }
            }
            Err(e) => return Err(format!("connection S: {e}")),
        }
    }
}

/// Applies logged churn events to the mirror and counts the views that
/// then differ from it.
fn verify_views(
    mirror: &mut Mirror,
    plan: &SubsPlan,
    views: &[View],
    events: impl IntoIterator<Item = OpRecord>,
    tally: &mut Tally,
) {
    for op in events {
        match op.kind {
            OpKind::Join => oracle::register(mirror, [op.subject]),
            _ => {
                mirror.leave_all(&[PeerId(op.subject)]);
            }
        }
    }
    tally.attempted += views.len() as u64;
    tally.mismatched += oracle::diverged_views(mirror, &plan.subscribers, views);
}

/// `subs_1r`: connection S holds every subscription and only listens;
/// connection C joins and leaves churner ids. The primary op is the push:
/// the first `DeltaPush` on S naming the churned peer, timed from the
/// instant C's op was due.
fn run_subs(seed: u64, profile: &Profile) -> Result<RunResult, String> {
    let workload = Workload::Subs1r;
    let plan = SubsPlan::generate(seed, profile);
    let ids = plan.setup_ids();
    let mut mirror = oracle::build_mirror(1);
    oracle::register(&mut mirror, ids.iter().copied());

    let bed = set_up(workload, &ids)?;
    let daemon = &bed.daemon;
    let mut extra = Tally::default();
    let mut s = daemon.connect()?;
    let mut views: Vec<View> = Vec::with_capacity(plan.subscribers.len());
    for &sub in &plan.subscribers {
        s.send(&Message::Subscribe {
            nonce: sub,
            peer: PeerId(sub),
            k: crate::spec::K as u16,
            min_interval_ms: 0,
        })
        .map_err(|e| format!("subscribe: {e}"))?;
        match s.recv() {
            Ok(Some(Message::SubAck {
                nonce, neighbors, ..
            })) if nonce == sub => {
                extra.attempted += 1;
                extra.record(oracle::check_snapshot(&mirror, sub, &neighbors));
                views.push(neighbors);
            }
            other => return Err(format!("subscribe {sub} not acknowledged: {other:?}")),
        }
    }
    let before = Scrape(daemon.scrape()?);
    let mut events = plan.events();
    let rate = workload.paced_rate() / profile.rate_div;

    // Paced: C sends one op per slot and reads its reply; S listens.
    let schedule = loadgen::Schedule::new(rate, profile.paced);
    let mut c = daemon.connect()?;
    let done = AtomicBool::new(false);
    let mut arrivals = Vec::new();
    let start = Instant::now();
    struct Sent {
        record: OpRecord,
        intended_ns: u64,
        sent_ns: u64,
    }
    let mut paced = PacedOutcome {
        scheduled: schedule.count,
        ..PacedOutcome::default()
    };
    let sent: Vec<Sent> = std::thread::scope(|scope| -> Result<_, String> {
        let sender = scope.spawn(|| {
            let mut sent = Vec::with_capacity(schedule.count as usize);
            let mut replies = Vec::new();
            let mut bytes_sent = 0u64;
            let max_lag_ns = loadgen::pace(
                start,
                &schedule,
                || events.next_op(),
                |op, intended_ns| {
                    let sent_ns = loadgen::ns_since(start);
                    c.send_bytes(&op.frame)?;
                    bytes_sent += op.frame.len() as u64;
                    sent.push(Sent {
                        record: op.record,
                        intended_ns,
                        sent_ns,
                    });
                    if op.record.kind == OpKind::Join {
                        let reply = c.recv()?;
                        let latency = loadgen::ns_since(start).saturating_sub(intended_ns);
                        replies.push((op.record, reply, latency));
                    }
                    Ok(())
                },
            );
            // The closing fence confirms the trailing leaves.
            let fenced = c.send(&Message::ProbePing { nonce: FENCE_NONCE }).is_ok()
                && matches!(
                    c.recv(),
                    Ok(Some(Message::ProbePong { nonce: FENCE_NONCE }))
                );
            done.store(true, Ordering::Release);
            (sent, replies, bytes_sent, max_lag_ns, fenced)
        });
        let heard = listen(
            &mut s,
            &plan,
            &mut views,
            start,
            &done,
            &mut arrivals,
            &mut extra,
        );
        let (sent, replies, bytes_sent, max_lag_ns, fenced) =
            sender.join().expect("paced sender panicked");
        heard?;
        paced.max_lag_ns = max_lag_ns;
        paced.bytes_sent = bytes_sent;
        paced.tally.attempted = sent.len() as u64;
        // A join whose reply never came stopped the sender; so did a
        // fence that never returned.
        let joins_sent = sent
            .iter()
            .filter(|ev| ev.record.kind == OpKind::Join)
            .count();
        paced.tally.unanswered += (joins_sent - replies.len()) as u64 + u64::from(!fenced);
        for (record, reply, latency) in replies {
            paced.samples.push((OpKind::Join, latency));
            paced
                .tally
                .record(oracle::check_join_echo(record.subject, reply.as_ref()));
        }
        Ok(sent)
    })?;
    // Match every event with the first push naming its peer.
    let mut by_key: HashMap<(u64, bool), Vec<u64>> = HashMap::new();
    for a in &arrivals {
        by_key.entry((a.peer, a.joined)).or_default().push(a.at_ns);
    }
    let deadline_ns = (profile.paced + loadgen::PACED_GRACE).as_nanos() as u64;
    let mut primary = Vec::with_capacity(sent.len());
    for ev in &sent {
        let key = (ev.record.subject, ev.record.kind == OpKind::Join);
        let pushes = by_key.get(&key).map_or(&[][..], Vec::as_slice);
        let first = pushes.partition_point(|&at| at < ev.sent_ns);
        match pushes.get(first) {
            Some(&at) if at - ev.intended_ns <= REPLY_TIMEOUT.as_nanos() as u64 => {
                primary.push(at - ev.intended_ns);
                paced.in_time += u64::from(at <= deadline_ns);
            }
            // A missing delta: the event changed an answer nobody was told of.
            _ => paced.tally.timed_out += 1,
        }
    }
    primary.sort_unstable();
    verify_views(
        &mut mirror,
        &plan,
        &views,
        sent.iter().map(|ev| ev.record),
        &mut extra,
    );

    // Saturate: C runs a window of 64 — a storm; S keeps listening.
    settle();
    let cpu_begin = daemon.sample()?;
    let done = AtomicBool::new(false);
    let start = Instant::now();
    let mut storm = Vec::new();
    let saturate = std::thread::scope(|scope| -> Result<_, String> {
        let churner = scope.spawn(|| {
            let lane = Lane {
                conn: &mut c,
                source: Box::new(|| Some(events.next_op())),
                sink: Box::new(|op, reply| {
                    storm.push(*op);
                    match &reply {
                        None => Verdict::Ok,
                        some => oracle::check_join_echo(op.subject, some.as_ref()),
                    }
                }),
            };
            let outcome = run_saturate(profile, vec![lane]);
            done.store(true, Ordering::Release);
            outcome
        });
        let heard = listen(
            &mut s,
            &plan,
            &mut views,
            start,
            &done,
            &mut Vec::new(),
            &mut extra,
        );
        let outcome = churner.join().expect("saturate worker panicked");
        heard?;
        outcome
    })?;
    let cpu_end = daemon.sample()?;
    let after = Scrape(daemon.scrape()?);
    let events_sent = (sent.len() + storm.len()) as u64;
    verify_views(&mut mirror, &plan, &views, storm, &mut extra);

    let measured = Measured {
        primary,
        paced,
        saturate,
        before,
        after,
        cpu_begin,
        cpu_end,
        extra,
        events: events_sent,
    };
    finish(workload, seed, profile, bed, measured)
}
