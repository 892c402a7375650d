//! `nearpeer-perf` — the request-journey benchmark.
//!
//! The paper's claim is a latency claim: one traceroute plus **one server
//! round trip**. This crate measures that round trip end to end and layer
//! by layer. It spawns the real `nearpeerd` as a child process, drives it
//! over loopback TCP with the real codec frames from at most two threads
//! and two connections, verifies every answer against the synchronous
//! [`nearpeer_bench::wire::Mirror`], and reports one machine-comparable
//! result schema (see `README.md` beside this crate's manifest).
//!
//! * [`spec`] — the four workloads, six end-to-end and 51 per-layer metrics;
//! * [`traffic`] — seeded request streams (same seed, same bytes);
//! * [`daemon`] / [`procfs`] / [`conn`] — the child process, what `/proc`
//!   says of it, and the client's end of a connection;
//! * [`loadgen`] — the paced (open-loop) and closed-loop engines;
//! * [`oracle`] — the correctness oracle and failure accounting;
//! * [`run`] — one untraced run of one workload;
//! * [`trace`] / [`persist`] — the traced in-process ladder;
//! * [`report`] / [`stats`] — result documents, `compare`, exact percentiles.
//!
//! Everything is measured from outside, through the program's public
//! functions; spans inside the program are a later change.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conn;
pub mod daemon;
pub mod loadgen;
pub mod oracle;
pub mod persist;
pub mod procfs;
pub mod report;
pub mod run;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod traffic;
