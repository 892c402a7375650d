//! `nearpeerd` — the discovery server on a real socket.
//!
//! Serves the concurrent plane ([`nearpeer_core::Shared`]: the
//! synchronous server, or with `--regions > 1` the federation, behind one
//! `RwLock`) over TCP:
//! one thread per connection runs a frame-reassembly loop and feeds
//! decoded messages to the shared [`nearpeer_core::WireService`]. The
//! world is the synthetic landmark layout (`--landmarks N` routers, all
//! 4 hops apart), matching what [`nearpeer_bench::wire::Mirror`] models
//! for the `crates/perf` load generator.
//!
//! Transport rules (see [`nearpeer_bench::wire::serve_connection`]):
//! partial reads reassemble; a malformed frame is skipped (the codec
//! consumed it); an oversized length prefix drops the connection;
//! replies and pushes leave through one ordered per-connection queue,
//! written before the loop blocks, at a small byte bound and on exit; idle
//! eviction counts byte progress, not completed frames; standing
//! subscriptions get server-initiated `DeltaPush` frames on their own
//! connection; a `Shutdown` frame is acked, then the daemon stops
//! accepting, drains every open connection (granting in-flight partial
//! frames a bounded grace) and exits.

use nearpeer_bench::wire::{build_service, serve_connection};
use nearpeer_core::ServerConfig;
use std::io::{self, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

struct Args {
    listen: String,
    landmarks: usize,
    regions: usize,
    neighbor_count: usize,
    /// Seconds a connection may sit idle (no complete frame) before the
    /// daemon evicts it; `0` disables the deadline.
    idle_secs: u64,
    /// Dump a compact registry snapshot to stderr every N seconds;
    /// `0` disables the dumps.
    stats_every: u64,
    /// Queries at or above this many µs land in the slow-query log;
    /// `0` keeps the log disabled.
    slow_query_us: u64,
    /// Disable latency timing (counters still count) — the A/B switch
    /// for measuring telemetry overhead.
    no_timing: bool,
}

impl Args {
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut out = Self {
            listen: "127.0.0.1:4700".into(),
            landmarks: 8,
            regions: 1,
            neighbor_count: 5,
            idle_secs: 300,
            stats_every: 0,
            slow_query_us: 0,
            no_timing: false,
        };
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            let mut value = |flag: &str| iter.next().ok_or(format!("{flag} needs a value"));
            match arg.as_str() {
                "--listen" => out.listen = value("--listen")?,
                "--landmarks" => {
                    let v = value("--landmarks")?;
                    out.landmarks = v.parse().map_err(|_| format!("bad --landmarks {v}"))?;
                }
                "--regions" => {
                    let v = value("--regions")?;
                    out.regions = v.parse().map_err(|_| format!("bad --regions {v}"))?;
                }
                "--neighbor-count" => {
                    let v = value("--neighbor-count")?;
                    out.neighbor_count =
                        v.parse().map_err(|_| format!("bad --neighbor-count {v}"))?;
                }
                "--idle-secs" => {
                    let v = value("--idle-secs")?;
                    out.idle_secs = v.parse().map_err(|_| format!("bad --idle-secs {v}"))?;
                }
                "--stats-every" => {
                    let v = value("--stats-every")?;
                    out.stats_every = v.parse().map_err(|_| format!("bad --stats-every {v}"))?;
                }
                "--slow-query-us" => {
                    let v = value("--slow-query-us")?;
                    out.slow_query_us =
                        v.parse().map_err(|_| format!("bad --slow-query-us {v}"))?;
                }
                "--no-timing" => out.no_timing = true,
                "--help" | "-h" => {
                    return Err(
                        "usage: nearpeerd [--listen ADDR] [--landmarks N] [--regions N] \
                         [--neighbor-count K] [--idle-secs S] [--stats-every S] \
                         [--slow-query-us U] [--no-timing]"
                            .into(),
                    )
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if out.landmarks == 0 || out.regions == 0 {
            return Err("--landmarks and --regions must be >= 1".into());
        }
        if out.regions > out.landmarks {
            return Err("--regions cannot exceed --landmarks".into());
        }
        Ok(out)
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let config = ServerConfig {
        neighbor_count: args.neighbor_count,
        ..ServerConfig::default()
    };
    let service = match build_service(args.landmarks, args.regions, config) {
        Ok(service) => service,
        Err(e) => {
            eprintln!("nearpeerd: cannot build serving plane: {e}");
            std::process::exit(2);
        }
    };
    let telemetry = service.telemetry();
    if let Some(reg) = &telemetry {
        if args.no_timing {
            reg.set_timing(false);
        }
        if args.slow_query_us > 0 {
            reg.slow().set_threshold_us(args.slow_query_us);
        }
    }
    let listener = match TcpListener::bind(&args.listen) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("nearpeerd: cannot bind {}: {e}", args.listen);
            std::process::exit(1);
        }
    };
    let local = listener.local_addr().expect("bound socket has an address");
    // The readiness line scripts wait for (stdout, flushed).
    println!(
        "nearpeerd listening on {local} landmarks={} regions={} k={}",
        args.landmarks, args.regions, args.neighbor_count
    );
    io::stdout().flush().ok();

    let shutdown = Arc::new(AtomicBool::new(false));
    if args.stats_every > 0 {
        if let Some(reg) = telemetry {
            let shutdown = Arc::clone(&shutdown);
            let every = Duration::from_secs(args.stats_every);
            // Exits with the process: the dump loop polls the shutdown
            // flag every second, and main does not join it.
            std::thread::spawn(move || {
                let mut since = Duration::ZERO;
                loop {
                    std::thread::sleep(Duration::from_secs(1));
                    if shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    since += Duration::from_secs(1);
                    if since >= every {
                        since = Duration::ZERO;
                        eprintln!("nearpeerd: stats {}", reg.snapshot().compact_line());
                    }
                }
            });
        }
    }
    let mut handles: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let mut accept_failing = false;
    for stream in listener.incoming() {
        if shutdown.load(Ordering::Acquire) {
            break;
        }
        let stream = match stream {
            Ok(s) => {
                accept_failing = false;
                s
            }
            Err(e) => {
                // Out of descriptors (one thread and one socket per
                // connection makes EMFILE reachable), `accept` fails at
                // once on every call: back off instead of spinning, and
                // say so once per burst.
                if !accept_failing {
                    accept_failing = true;
                    eprintln!("nearpeerd: accept failed ({e}); retrying every 50 ms");
                }
                std::thread::sleep(Duration::from_millis(50));
                continue;
            }
        };
        // Keep only live connections: a long-running daemon must not hold
        // one handle per connection it ever accepted.
        handles.retain(|h| !h.is_finished());
        let service = Arc::clone(&service);
        let shutdown = Arc::clone(&shutdown);
        let idle = (args.idle_secs > 0).then(|| Duration::from_secs(args.idle_secs));
        handles.push(std::thread::spawn(move || {
            serve_connection(stream, service, shutdown, local, idle)
        }));
    }
    // Drain: every live connection loop notices the flag within its read
    // timeout and exits. Both serving planes apply each write on its
    // connection's thread, so once the loops are joined no write is left
    // queued anywhere.
    for handle in handles {
        let _ = handle.join();
    }
    eprintln!("nearpeerd: drained, exiting");
}

#[cfg(test)]
mod tests {
    use super::Args;

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn every_flag_parses_and_bad_shapes_are_refused() {
        let d = parse("").unwrap();
        assert_eq!((d.landmarks, d.regions, d.neighbor_count), (8, 1, 5));
        assert_eq!((d.idle_secs, d.stats_every, d.slow_query_us), (300, 0, 0));
        assert!(!d.no_timing);

        let a = parse(
            "--listen 127.0.0.1:0 --landmarks 8 --regions 4 --neighbor-count 7 \
             --idle-secs 0 --stats-every 10 --slow-query-us 10000 --no-timing",
        )
        .unwrap();
        assert_eq!(a.listen, "127.0.0.1:0");
        assert_eq!((a.landmarks, a.regions, a.neighbor_count), (8, 4, 7));
        assert_eq!(
            (a.idle_secs, a.stats_every, a.slow_query_us),
            (0, 10, 10_000)
        );
        assert!(a.no_timing);

        let err = |line: &str| parse(line).err().expect("must be refused");
        assert!(err("--landmarks 2 --regions 3").contains("cannot exceed"));
        assert!(err("--regions 0").contains(">= 1"));
        assert!(err("--stats-every").contains("needs a value"));
        assert!(err("--slow-query-us fast").contains("bad --slow-query-us"));
        assert!(err("--idle-secs -1").contains("bad --idle-secs"));
        assert!(err("--wat").contains("unknown argument"));
    }
}
