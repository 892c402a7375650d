//! The TTL walk itself.

use crate::plan::ProbePlan;
use nearpeer_routing::{RouteHop, RouteOracle};
use nearpeer_topology::RouterId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tunables of a trace — fault injection knobs included (smoltcp-style:
/// every example exposes these as command-line options).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceConfig {
    /// Which TTLs to probe.
    pub plan: ProbePlan,
    /// Probes retried per TTL before the hop is recorded as anonymous.
    pub probes_per_hop: u32,
    /// Probability that a probe (or its reply) is lost.
    pub loss_probability: f64,
    /// Probability that a router never answers TTL-exceeded (an "anonymous"
    /// hop in mapper parlance) — applied per router, consistently for all
    /// its probes within one trace.
    pub anonymous_probability: f64,
    /// Fixed per-probe processing overhead added to the wire RTT, in
    /// microseconds (packet construction, ICMP generation).
    pub per_probe_overhead_us: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            plan: ProbePlan::Full,
            probes_per_hop: 3,
            loss_probability: 0.0,
            anonymous_probability: 0.0,
            per_probe_overhead_us: 200,
        }
    }
}

/// Reusable per-thread buffers for [`Tracer::trace_with_scratch`]: the
/// annotated route, the probe plan's TTLs, and the per-router anonymous
/// coin flips. One scratch per tracing thread turns the per-trace
/// allocation cost into amortized zero — the only `Vec` a trace allocates
/// is the `hops` it returns.
#[derive(Debug, Default)]
pub struct TraceScratch {
    route: Vec<RouteHop>,
    ttls: Vec<u32>,
    anonymous: Vec<bool>,
}

impl TraceScratch {
    /// Creates an empty scratch; buffers grow to the longest route seen.
    pub fn new() -> Self {
        Self::default()
    }
}

/// One probed hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// The TTL that was probed.
    pub ttl: u32,
    /// The router that answered, or `None` for an anonymous/lost hop.
    pub router: Option<RouterId>,
    /// RTT of the successful probe, in microseconds (0 for anonymous hops).
    pub rtt_us: u64,
}

/// Result of one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceResult {
    /// The probing source (the peer's access router).
    pub source: RouterId,
    /// The trace target (the landmark's router).
    pub destination: RouterId,
    /// Probed hops in TTL order.
    pub hops: Vec<Hop>,
    /// Whether the destination itself answered.
    pub destination_reached: bool,
    /// Total probes sent (including lost ones).
    pub probes_sent: u32,
    /// Wall-clock cost of the sequential probe run, in microseconds.
    pub elapsed_us: u64,
}

impl TraceResult {
    /// The router path as the management server consumes it: the source
    /// access router followed by every *identified* hop, in order.
    /// Anonymous hops are simply skipped — the path-tree tolerates holes,
    /// it just loses some branch resolution.
    pub fn router_path(&self) -> Vec<RouterId> {
        let mut path = vec![self.source];
        for hop in &self.hops {
            if let Some(r) = hop.router {
                if path.last() != Some(&r) {
                    path.push(r);
                }
            }
        }
        path
    }

    /// Fraction of probed hops that were identified (1.0 = clean trace).
    pub fn completeness(&self) -> f64 {
        if self.hops.is_empty() {
            return 1.0;
        }
        let known = self.hops.iter().filter(|h| h.router.is_some()).count();
        known as f64 / self.hops.len() as f64
    }
}

/// Runs traces over a route oracle.
///
/// The tracer is `Send + Sync` (the oracle it borrows is shareable), so one
/// tracer serves any number of threads: the swarm builder fans round 1 out
/// over peer chunks with plain `&Tracer` references. Each trace derives all
/// of its randomness from the `seed` argument, never from shared state, so
/// concurrent traces are bit-identical to the same traces run sequentially.
pub struct Tracer<'o, 't> {
    oracle: &'o RouteOracle<'t>,
    config: TraceConfig,
}

impl<'o, 't> Tracer<'o, 't> {
    /// Creates a tracer with the given config.
    pub fn new(oracle: &'o RouteOracle<'t>, config: TraceConfig) -> Self {
        Self { oracle, config }
    }

    /// The active configuration.
    pub fn config(&self) -> &TraceConfig {
        &self.config
    }

    /// The route oracle this tracer probes against.
    pub fn oracle(&self) -> &'o RouteOracle<'t> {
        self.oracle
    }

    /// Traces from `source` towards `destination`; `None` when the two are
    /// disconnected. Deterministic per `(topology, config, seed)`.
    pub fn trace(&self, source: RouterId, destination: RouterId, seed: u64) -> Option<TraceResult> {
        self.trace_with_scratch(source, destination, seed, &mut TraceScratch::new())
    }

    /// [`Tracer::trace`] reusing caller-owned buffers — the bulk-tracing
    /// form the swarm builder uses (one [`TraceScratch`] per worker).
    /// Results are identical to [`Tracer::trace`].
    pub fn trace_with_scratch(
        &self,
        source: RouterId,
        destination: RouterId,
        seed: u64,
        scratch: &mut TraceScratch,
    ) -> Option<TraceResult> {
        let TraceScratch {
            route,
            ttls,
            anonymous,
        } = scratch;
        // One tree per trace: the destination tree yields the routers AND
        // each hop's one-way latency prefix.
        if !self.oracle.route_annotated_into(source, destination, route) {
            return None;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        // route[0] = source, route[k] = router at TTL k.
        let path_len = (route.len() - 1) as u32;
        self.config.plan.ttls_into(path_len, ttls);

        let mut hops = Vec::with_capacity(ttls.len());
        let mut probes_sent = 0u32;
        let mut elapsed_us = 0u64;
        let mut destination_reached = false;

        // Anonymous routers are drawn once per trace so retries at the same
        // TTL behave consistently. Drawn per route entry, up front, so the
        // RNG stream is identical whichever TTLs the plan selects (and
        // identical to every release since the seed).
        anonymous.clear();
        anonymous.extend(
            route
                .iter()
                .map(|_| rng.gen::<f64>() < self.config.anonymous_probability),
        );

        for &ttl in ttls.iter() {
            let hop = route[ttl as usize];
            let router = hop.router;
            let is_dst = router == destination;
            // RTT to the hop: twice the one-way latency prefix along the
            // route — already carried by the annotated hop. Whenever
            // hop-shortest paths are unique this equals
            // `RouteOracle::rtt_us(source, router)` from a tree rooted at
            // the hop (`tests/trace_properties.rs`); under equal-hop-count
            // ties that tree may pick an equally short path with a
            // different latency than the route's own prefix.
            let hop_rtt = hop.prefix_latency_us * 2;
            let mut answered = false;
            for _ in 0..self.config.probes_per_hop.max(1) {
                probes_sent += 1;
                let probe_cost = hop_rtt + self.config.per_probe_overhead_us;
                if anonymous[ttl as usize] && !is_dst {
                    // No reply will ever come: pay a timeout (modeled as the
                    // overhead plus twice the would-be RTT).
                    elapsed_us += probe_cost * 2;
                    continue;
                }
                if rng.gen::<f64>() < self.config.loss_probability {
                    elapsed_us += probe_cost * 2; // timeout
                    continue;
                }
                elapsed_us += probe_cost;
                answered = true;
                break;
            }
            if answered {
                hops.push(Hop {
                    ttl,
                    router: Some(router),
                    rtt_us: hop_rtt,
                });
                if is_dst {
                    destination_reached = true;
                }
            } else {
                hops.push(Hop {
                    ttl,
                    router: None,
                    rtt_us: 0,
                });
            }
        }

        Some(TraceResult {
            source,
            destination,
            hops,
            destination_reached,
            probes_sent,
            elapsed_us,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nearpeer_topology::generators::regular;

    fn line_oracle(n: usize) -> nearpeer_topology::Topology {
        regular::line(n)
    }

    #[test]
    fn clean_trace_recovers_route() {
        let t = line_oracle(5);
        let oracle = RouteOracle::new(&t);
        let tracer = Tracer::new(&oracle, TraceConfig::default());
        let res = tracer.trace(RouterId(0), RouterId(4), 1).unwrap();
        assert!(res.destination_reached);
        assert_eq!(res.completeness(), 1.0);
        assert_eq!(
            res.router_path(),
            vec![
                RouterId(0),
                RouterId(1),
                RouterId(2),
                RouterId(3),
                RouterId(4)
            ]
        );
        // One probe per hop when nothing is lost.
        assert_eq!(res.probes_sent, 4);
    }

    #[test]
    fn rtt_grows_with_ttl() {
        let t = line_oracle(4);
        let oracle = RouteOracle::new(&t);
        let tracer = Tracer::new(&oracle, TraceConfig::default());
        let res = tracer.trace(RouterId(0), RouterId(3), 1).unwrap();
        let rtts: Vec<u64> = res.hops.iter().map(|h| h.rtt_us).collect();
        assert!(rtts.windows(2).all(|w| w[0] < w[1]), "rtts {rtts:?}");
    }

    #[test]
    fn anonymous_hops_leave_holes_but_keep_endpoints() {
        let t = line_oracle(8);
        let oracle = RouteOracle::new(&t);
        let cfg = TraceConfig {
            anonymous_probability: 0.9,
            probes_per_hop: 1,
            ..TraceConfig::default()
        };
        let tracer = Tracer::new(&oracle, cfg);
        let res = tracer.trace(RouterId(0), RouterId(7), 42).unwrap();
        // The destination always answers (anonymous does not apply to it).
        assert!(res.destination_reached);
        assert!(res.completeness() < 1.0);
        let path = res.router_path();
        assert_eq!(path.first(), Some(&RouterId(0)));
        assert_eq!(path.last(), Some(&RouterId(7)));
    }

    #[test]
    fn loss_costs_probes_and_time() {
        let t = line_oracle(4);
        let oracle = RouteOracle::new(&t);
        let clean = Tracer::new(&oracle, TraceConfig::default())
            .trace(RouterId(0), RouterId(3), 7)
            .unwrap();
        let lossy_cfg = TraceConfig {
            loss_probability: 0.5,
            ..TraceConfig::default()
        };
        let lossy = Tracer::new(&oracle, lossy_cfg)
            .trace(RouterId(0), RouterId(3), 7)
            .unwrap();
        assert!(lossy.probes_sent >= clean.probes_sent);
        assert!(lossy.elapsed_us > clean.elapsed_us);
    }

    #[test]
    fn decreased_stride_sends_fewer_probes() {
        let t = line_oracle(12);
        let oracle = RouteOracle::new(&t);
        let full = Tracer::new(&oracle, TraceConfig::default())
            .trace(RouterId(0), RouterId(11), 3)
            .unwrap();
        let dec_cfg = TraceConfig {
            plan: ProbePlan::Stride(3),
            ..TraceConfig::default()
        };
        let dec = Tracer::new(&oracle, dec_cfg)
            .trace(RouterId(0), RouterId(11), 3)
            .unwrap();
        assert!(dec.probes_sent < full.probes_sent);
        assert!(dec.elapsed_us < full.elapsed_us);
        assert!(dec.destination_reached);
        // The decreased path is a subsequence of the full path.
        let full_path = full.router_path();
        let dec_path = dec.router_path();
        let mut it = full_path.iter();
        for r in &dec_path {
            assert!(it.any(|x| x == r), "{r} out of order");
        }
    }

    #[test]
    fn disconnected_is_none_and_self_trace_is_empty() {
        let t = nearpeer_topology::TopologyBuilder::with_routers(2).build();
        let oracle = RouteOracle::new(&t);
        let tracer = Tracer::new(&oracle, TraceConfig::default());
        assert!(tracer.trace(RouterId(0), RouterId(1), 1).is_none());

        let t2 = line_oracle(3);
        let oracle2 = RouteOracle::new(&t2);
        let tracer2 = Tracer::new(&oracle2, TraceConfig::default());
        let res = tracer2.trace(RouterId(1), RouterId(1), 1).unwrap();
        assert!(res.hops.is_empty());
        assert_eq!(res.router_path(), vec![RouterId(1)]);
        assert_eq!(res.probes_sent, 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let t = line_oracle(10);
        let oracle = RouteOracle::new(&t);
        let cfg = TraceConfig {
            loss_probability: 0.3,
            anonymous_probability: 0.2,
            ..TraceConfig::default()
        };
        let tracer = Tracer::new(&oracle, cfg);
        let a = tracer.trace(RouterId(0), RouterId(9), 5).unwrap();
        let b = tracer.trace(RouterId(0), RouterId(9), 5).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn tracer_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Tracer<'static, 'static>>();
    }

    #[test]
    fn concurrent_traces_match_sequential_traces() {
        let t = line_oracle(12);
        let oracle = RouteOracle::new(&t);
        let cfg = TraceConfig {
            loss_probability: 0.2,
            anonymous_probability: 0.1,
            ..TraceConfig::default()
        };
        let tracer = Tracer::new(&oracle, cfg);
        let sources: Vec<RouterId> = (0..11).map(RouterId).collect();
        let sequential: Vec<_> = sources
            .iter()
            .enumerate()
            .map(|(i, &src)| tracer.trace(src, RouterId(11), i as u64))
            .collect();
        let mut concurrent: Vec<Option<TraceResult>> = vec![None; sources.len()];
        std::thread::scope(|s| {
            for (chunk_idx, (srcs, out)) in
                sources.chunks(3).zip(concurrent.chunks_mut(3)).enumerate()
            {
                let tracer = &tracer;
                s.spawn(move || {
                    for (k, (&src, slot)) in srcs.iter().zip(out.iter_mut()).enumerate() {
                        *slot = tracer.trace(src, RouterId(11), (chunk_idx * 3 + k) as u64);
                    }
                });
            }
        });
        assert_eq!(concurrent, sequential);
    }
}
