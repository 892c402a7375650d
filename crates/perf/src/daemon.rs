//! The `nearpeerd` child process: found beside this executable, spawned
//! on port 0, ended with a `Shutdown` frame — and killed by a drop guard
//! if the benchmark panics, so no orphan holds a port across runs.

use crate::conn::Conn;
use crate::procfs::{self, ProcSample};
use crate::spec::{K, LANDMARKS};
use nearpeer_core::protocol::Message;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Longest any single reply may take before the op counts as timed out.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

/// The cargo target directory this executable was built into: the parent
/// of the nearest `release`/`debug` ancestor of `current_exe()`.
pub fn target_root() -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_default();
    exe.ancestors()
        .find(|dir| {
            matches!(
                dir.file_name().and_then(|n| n.to_str()),
                Some("release" | "debug")
            )
        })
        .and_then(Path::parent)
        .map_or_else(|| PathBuf::from("target"), Path::to_path_buf)
}

/// Where the benchmark may leave files: `<target>/perf/`.
pub fn scratch_dir() -> PathBuf {
    target_root().join("perf")
}

/// Finds the `nearpeerd` binary: beside this executable, else in the
/// target directory's release (preferred) or debug profile.
pub fn locate_nearpeerd() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let root = target_root();
    let candidates = [
        exe.with_file_name("nearpeerd"),
        root.join("release/nearpeerd"),
        root.join("debug/nearpeerd"),
    ];
    candidates
        .iter()
        .find(|p| p.is_file())
        .cloned()
        .ok_or_else(|| {
            format!(
                "nearpeerd not found beside {} or under {} — run `cargo build --release` first",
                exe.display(),
                root.display()
            )
        })
}

/// Parses the daemon's stdout readiness line
/// (`nearpeerd listening on <addr> landmarks=.. regions=.. k=..`).
pub fn parse_readiness(line: &str) -> Option<SocketAddr> {
    line.strip_prefix("nearpeerd listening on ")?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

/// A running `nearpeerd`. Dropping it without [`Daemon::shutdown`] kills
/// the child.
pub struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Daemon {
    /// Spawns the daemon on an ephemeral loopback port and waits for its
    /// readiness line.
    pub fn spawn(regions: usize) -> Result<Self, String> {
        let bin = locate_nearpeerd()?;
        let mut child = Command::new(&bin)
            .args(["--listen", "127.0.0.1:0"])
            .args(["--landmarks", &LANDMARKS.to_string()])
            .args(["--regions", &regions.to_string()])
            .args(["--neighbor-count", &K.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        // From here on the guard owns the child: an early return kills it.
        let mut daemon = Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        read.map_err(|e| format!("cannot read the readiness line: {e}"))?;
        daemon.addr = parse_readiness(line.trim_end())
            .ok_or_else(|| format!("unexpected readiness line {line:?}"))?;
        Ok(daemon)
    }

    /// The address the daemon listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Opens a framed connection with the per-reply timeout armed, so a
    /// hung daemon yields failures and not a hang.
    pub fn connect(&self) -> Result<Conn, String> {
        Conn::connect(self.addr, REPLY_TIMEOUT).map_err(|e| format!("connect: {e}"))
    }

    /// Reads the daemon's `/proc` entry.
    pub fn sample(&self) -> Result<ProcSample, String> {
        procfs::sample(self.pid()).ok_or_else(|| "nearpeerd is gone from /proc".to_string())
    }

    /// Pulls the daemon's telemetry registry over the wire.
    pub fn scrape(&self) -> Result<String, String> {
        scrape(&mut self.connect()?)
    }

    /// Ends the daemon with a `Shutdown` frame and requires exit code 0.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut conn = self.connect()?;
        conn.send(&Message::Shutdown { nonce: 0xD1E })
            .map_err(|e| format!("shutdown send: {e}"))?;
        match conn.recv() {
            Ok(Some(Message::ProbePong { nonce: 0xD1E })) => {}
            other => return Err(format!("shutdown not acknowledged: {other:?}")),
        }
        drop(conn);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("nearpeerd exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Ok(None) => return Err("nearpeerd did not exit after Shutdown".into()),
                Err(e) => return Err(format!("waiting for nearpeerd: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One `StatsRequest` round trip on an open connection.
pub fn scrape(conn: &mut Conn) -> Result<String, String> {
    conn.send(&Message::StatsRequest { nonce: 0x5C4A })
        .map_err(|e| format!("scrape send: {e}"))?;
    match conn.recv() {
        Ok(Some(Message::StatsReply {
            nonce: 0x5C4A,
            text,
        })) => Ok(text),
        other => Err(format!("scrape not answered: {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readiness_line_parses() {
        assert_eq!(
            parse_readiness("nearpeerd listening on 127.0.0.1:40123 landmarks=8 regions=1 k=5"),
            Some("127.0.0.1:40123".parse().unwrap())
        );
        assert_eq!(parse_readiness("nearpeerd: cannot bind"), None);
        assert_eq!(parse_readiness("nearpeerd listening on nowhere"), None);
    }

    #[test]
    fn target_root_is_above_the_profile_directory() {
        // Test executables live in <target>/<profile>/deps/.
        let root = target_root();
        let exe = std::env::current_exe().unwrap();
        assert!(exe.starts_with(&root), "{exe:?} not under {root:?}");
        assert_eq!(scratch_dir(), root.join("perf"));
    }
}
