//! Churn throughput: a W3 join/leave/fail trace replayed onto the
//! directory in per-epoch batches, single writes through the concurrent
//! server, and what standing subscriptions add to churn.
//!
//! Measures the directory-maintenance cost of churn (lease opens,
//! renewals piggybacked on the register path, heartbeat rounds, batched
//! departures and epoch-bucketed expiry sweeps), the workload the
//! slab-backed lease arena targets, and the per-write cost `nearpeerd`
//! pays: one server write guard per operation, or per burst of requests
//! when two connections write at once.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use nearpeer_bench::soak::{run_with_state, Churn, Scenario};
use nearpeer_bench::wire::{synthetic_landmarks, BATCH_FRAMES};
use nearpeer_bench::SyntheticJoins;
use nearpeer_core::protocol::Message;
use nearpeer_core::subscription::Subscription;
use nearpeer_core::{LandmarkId, ManagementServer, PeerId, ServerConfig, Shared, WireService};
use std::cell::RefCell;

fn soak_config(peers: usize) -> Scenario {
    Scenario::single_server(Churn {
        peers,
        cycles: 2, // cycle 2 rejoins departed peers: the renewal path
        arrival_rate: peers as f64 / 20.0,
        ..Churn::smoke()
    })
}

fn bench_churn_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("churn_throughput");
    group.sample_size(10);
    for &peers in &[2_000usize, 10_000] {
        let cfg = soak_config(peers);
        group.bench_with_input(BenchmarkId::new("batched", peers), &cfg, |b, cfg| {
            b.iter(|| run_with_state(cfg, 7).expect("valid scenario"));
        });
    }
    group.finish();
}

const PEERS: u64 = 100_000;
const LANDMARKS: usize = 8;

/// A shared server holding peers `0..PEERS` over `LANDMARKS` landmarks.
fn populated_server(joins: &SyntheticJoins) -> Shared<ManagementServer> {
    let (routers, dist) = synthetic_landmarks(LANDMARKS);
    let mut srv =
        ManagementServer::new(routers, dist, ServerConfig::default()).expect("valid config");
    for p in 0..PEERS {
        let (peer, path) = joins.join(p);
        srv.register(peer, path).expect("fresh peer");
    }
    Shared::new(srv)
}

/// One leave, join, heartbeat and handover of one peer, each under its
/// own write guard of a [`Shared`] server, on a 100 k-peer directory over 8 landmarks.
/// The peer leaves from wherever its last handover put it and rejoins at
/// home, so the population and its shape stay put across iterations.
fn bench_actor_single_ops(c: &mut Criterion) {
    let joins = SyntheticJoins::new(LANDMARKS);
    let srv = populated_server(&joins);
    let mut group = c.benchmark_group("actor_server");
    let mut next = 0u64;
    group.bench_function("single_ops", |b| {
        b.iter(|| {
            // Stride 7919 is prime, so successive peers spread over the
            // landmarks and the id space.
            let p = next.wrapping_mul(7_919) % PEERS;
            next += 1;
            let (peer, home) = joins.join(p);
            srv.write().deregister(peer).expect("registered");
            srv.write().register(peer, home).expect("just left");
            srv.write().heartbeat(peer).expect("registered");
            let away = LandmarkId(((p + 1) % LANDMARKS as u64) as u32);
            let (_, moved) = joins.join_to(p, away);
            srv.write().handover(peer, moved).expect("registered")
        });
    });
    group.finish();
}

/// Peers each writer churns per iteration.
const PEERS_PER_WRITER: u64 = 64;

/// Two threads, the two connections of `perf`'s `churn_1r`, each feeding
/// its half of the peers the same leave, join, heartbeat and handover as
/// `single_ops` through `WireService::handle_batch`, in bursts of one
/// frame and of `BATCH_FRAMES`: the lock contention between two writing
/// connections that `single_ops` (one thread) cannot see. Time is per
/// iteration of `2 × PEERS_PER_WRITER` peers, 4 requests each.
fn bench_actor_two_writers(c: &mut Criterion) {
    let joins = SyntheticJoins::new(LANDMARKS);
    let srv = populated_server(&joins);
    let mut group = c.benchmark_group("actor_server");
    let mut round = 0u64;
    for burst in [1, BATCH_FRAMES] {
        let id = BenchmarkId::new("two_writers", burst);
        group.bench_with_input(id, &burst, |b, &burst| {
            b.iter(|| {
                round += 1;
                std::thread::scope(|scope| {
                    for half in 0..2 {
                        let (srv, joins) = (&srv, &joins);
                        scope.spawn(move || churn_half(srv, joins, round, half, burst));
                    }
                });
            });
        });
    }
    group.finish();
}

/// One writer's share of a `two_writers` iteration: `PEERS_PER_WRITER`
/// peers of parity `half`, their requests handed over `burst` at a time.
fn churn_half(
    srv: &Shared<ManagementServer>,
    joins: &SyntheticJoins,
    round: u64,
    half: u64,
    burst: usize,
) {
    let mut requests = Vec::with_capacity(burst);
    let mut out = Vec::new();
    for i in 0..PEERS_PER_WRITER {
        // The stride is odd and the population even, so the two writers'
        // peers never meet.
        let n = (round * PEERS_PER_WRITER + i) * 2 + half;
        let p = n.wrapping_mul(7_919) % PEERS;
        let (peer, home) = joins.join(p);
        let away = LandmarkId(((p + 1) % LANDMARKS as u64) as u32);
        let (_, moved) = joins.join_to(p, away);
        for msg in [
            Message::Leave { peer },
            Message::JoinRequest { peer, path: home },
            Message::Heartbeat { peer },
            Message::HandoverRequest { peer, path: moved },
        ] {
            requests.push(msg);
            if requests.len() == burst {
                srv.handle_batch(None, &mut requests, &mut out);
                out.clear();
            }
        }
    }
    srv.handle_batch(None, &mut requests, &mut out);
}

/// Watchers of the `subscriptions` group, `subs_1r`'s twentieth of the
/// population; its base is the first half.
const WATCHERS: u64 = PEERS / 20;
const BASE: u64 = PEERS / 2;
/// Id stride between peers that share their level-6 router under
/// `SyntheticJoins` (branching 4: 4⁶ access positions × `LANDMARKS`).
const SIBLING_STRIDE: u64 = 4096 * LANDMARKS as u64;
/// Churner siblings per watcher: always among its five nearest.
const CHURNERS_PER_WATCHER: u64 = 4;
/// Neighbors each watcher watches, `subs_1r`'s `k`.
const WATCH_K: usize = 5;
/// Churn events between two drains: `subs_1r`'s 2 000 paced events per
/// second over the serve loop's 250 ms read tick.
const TICK_EVENTS: usize = 500;

/// `subs_1r`'s population on one shared server: the base, the watchers
/// (each subscribed on one client) and every other churner.
struct Watched {
    srv: Shared<ManagementServer>,
    joins: SyntheticJoins,
    client: u64,
    churners: Vec<u64>,
    present: Vec<bool>,
    next: usize,
}

impl Watched {
    fn new() -> Self {
        let joins = SyntheticJoins::new(LANDMARKS);
        let (routers, dist) = synthetic_landmarks(LANDMARKS);
        let config = ServerConfig {
            neighbor_count: WATCH_K,
            ..ServerConfig::default()
        };
        let mut srv = ManagementServer::new(routers, dist, config).expect("valid config");
        let watchers = BASE..BASE + WATCHERS;
        let churners: Vec<u64> = watchers
            .clone()
            .flat_map(|w| (1..=CHURNERS_PER_WATCHER).map(move |m| w + SIBLING_STRIDE * m))
            .collect();
        let present: Vec<bool> = (0..churners.len()).map(|i| i % 2 == 0).collect();
        let setup = (0..BASE).chain(watchers.clone()).chain(
            churners
                .iter()
                .zip(&present)
                .filter(|(_, &on)| on)
                .map(|(&c, _)| c),
        );
        for id in setup {
            let (peer, path) = joins.join(id);
            srv.register(peer, path).expect("fresh peer");
        }
        let client = srv.open_sub_client();
        for w in watchers {
            let sub = Subscription {
                peer: PeerId(w),
                k: WATCH_K,
                min_interval_ms: 0,
            };
            srv.subscribe(client, sub).expect("registered watcher");
        }
        Watched {
            srv: Shared::new(srv),
            joins,
            client,
            churners,
            present,
            next: 0,
        }
    }

    /// The next churner joins if absent and leaves if present, through
    /// the wire service. Stride 7919 is prime to the churner count, so
    /// the churners' order scatters over watchers and landmarks.
    fn event(&mut self) {
        let i = self.next.wrapping_mul(7_919) % self.churners.len();
        self.next += 1;
        let (peer, path) = self.joins.join(self.churners[i]);
        let msg = if self.present[i] {
            Message::Leave { peer }
        } else {
            Message::JoinRequest { peer, path }
        };
        self.present[i] = !self.present[i];
        std::hint::black_box(self.srv.handle(msg));
    }

    /// One complete drain of the client's deltas.
    fn drain(&self) -> usize {
        let mut out = Vec::new();
        self.srv
            .write()
            .drain_deltas(self.client, usize::MAX, &mut out);
        out.len()
    }
}

/// `subs_1r`'s subscription load at 100 k peers: one churn event through
/// `WireService::handle` with every subscription drained before it
/// (`observe_event`), and one complete drain after a tick's worth of
/// events (`drain_full`).
fn bench_subscriptions(c: &mut Criterion) {
    // Setup and routine both churn the one population.
    let w = RefCell::new(Watched::new());
    let mut group = c.benchmark_group("subscriptions");
    group.sample_size(1_000);
    group.bench_function("observe_event", |b| {
        b.iter_batched(
            || {
                w.borrow().drain();
            },
            |()| w.borrow_mut().event(),
            BatchSize::SmallInput,
        );
    });
    group.sample_size(10);
    group.bench_function("drain_full", |b| {
        b.iter_batched(
            || (0..TICK_EVENTS).for_each(|_| w.borrow_mut().event()),
            |()| w.borrow().drain(),
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_churn_throughput,
    bench_actor_single_ops,
    bench_actor_two_writers,
    bench_subscriptions
);
criterion_main!(benches);
