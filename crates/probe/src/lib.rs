//! Simulated `traceroute` over the route oracle.
//!
//! The paper's round 1 has the newcomer run a "traceroute-like tool" towards
//! its closest landmark and ship the discovered router path to the
//! management server. §3 adds that the tool "could be a decreased version of
//! the original one because we are only interested with some routers along
//! the path" (future work W4).
//!
//! This crate models exactly the observable behaviour of that tool over the
//! simulated topology:
//!
//! * TTL-by-TTL probing along the oracle route ([`Tracer::trace`]) — the
//!   tracer is `Send + Sync` and every trace is seed-deterministic, so many
//!   newcomers trace concurrently through one shared tracer with results
//!   bit-identical to a sequential run. A trace prices every TTL off the
//!   **one** tree rooted at its destination
//!   (`RouteOracle::route_annotated`), so a 10k-peer round 1 builds
//!   O(landmarks) trees instead of one per distinct intermediate router.
//!   Bulk callers reuse [`TraceScratch`] buffers via
//!   [`Tracer::trace_with_scratch`];
//! * per-probe cost accounting (probes sent, elapsed time) so the
//!   setup-delay experiments can compare against coordinate systems;
//! * fault injection: anonymous routers (no ICMP reply) and probe loss with
//!   retries — the classic artefacts of real traceroute campaigns
//!   (Dall'Asta et al., cited by the paper);
//! * the *decreased* variants ([`ProbePlan`]): stride sampling and hard
//!   probe budgets, which trade path completeness for join speed.
//!
//! What is deliberately **not** modeled (see DESIGN.md §7): packet formats,
//! ICMP semantics, per-hop load balancing (real Paris-traceroute issues) —
//! the management server only consumes the router sequence.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod plan;
mod trace;

pub use plan::ProbePlan;
pub use trace::{Hop, TraceConfig, TraceResult, TraceScratch, Tracer};
