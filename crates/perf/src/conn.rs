//! The load generator's end of a connection. Same framing as
//! `nearpeer_bench::wire::FrameConn`, but the read buffer is allocated
//! once: `FrameConn::recv` zeroes a fresh 64 KiB chunk on every call,
//! which at saturation costs the client more CPU per reply than decoding
//! and checking it — CPU the daemon under test is competing for on the
//! same two cores.

use bytes::BytesMut;
use nearpeer_core::codec::{self, CodecError};
use nearpeer_core::protocol::Message;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

/// A blocking framed client connection.
pub struct Conn {
    stream: TcpStream,
    buf: BytesMut,
    chunk: Box<[u8]>,
}

impl Conn {
    /// Connects with `TCP_NODELAY` and both timeouts set to `timeout`, so
    /// a hung daemon yields failures and not a hang.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(Conn {
            stream,
            buf: BytesMut::with_capacity(64 * 1024),
            chunk: vec![0u8; 64 * 1024].into_boxed_slice(),
        })
    }

    /// A second handle on the socket, for a thread that only writes (or
    /// only shuts the socket down).
    pub fn writer(&self) -> io::Result<TcpStream> {
        self.stream.try_clone()
    }

    /// Bounds every blocking read. A read that times out surfaces
    /// `WouldBlock`/`TimedOut` with any partial frame kept.
    pub fn set_read_timeout(&self, timeout: Duration) -> io::Result<()> {
        self.stream.set_read_timeout(Some(timeout))
    }

    /// Writes already-encoded frames.
    pub fn send_bytes(&mut self, frames: &[u8]) -> io::Result<()> {
        self.stream.write_all(frames)
    }

    /// Encodes and writes one frame.
    pub fn send(&mut self, msg: &Message) -> io::Result<()> {
        self.send_bytes(&codec::encode_to_bytes(msg))
    }

    /// Whether received bytes are waiting to be decoded — the next
    /// [`Conn::recv`] may not need the socket at all.
    pub fn buffered(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Reads the next message, reassembling across partial reads.
    /// `Ok(None)` is a clean close on a frame boundary. Any frame that
    /// does not decode is an error: the daemon never sends one.
    pub fn recv(&mut self) -> io::Result<Option<Message>> {
        loop {
            match codec::decode(&mut self.buf) {
                Ok(msg) => return Ok(Some(msg)),
                Err(CodecError::Incomplete) => {
                    let n = self.stream.read(&mut self.chunk)?;
                    if n == 0 {
                        return if self.buf.is_empty() {
                            Ok(None)
                        } else {
                            Err(io::ErrorKind::UnexpectedEof.into())
                        };
                    }
                    self.buf.extend_from_slice(&self.chunk[..n]);
                }
                Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
            }
        }
    }

    /// Switches the socket between blocking reads ([`Conn::recv`]) and
    /// polled ones ([`Conn::poll`]).
    pub fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        self.stream.set_nonblocking(nonblocking)
    }

    /// On a non-blocking socket: the next message if one has arrived,
    /// `Ok(None)` if not yet. A closed connection is an error here.
    pub fn poll(&mut self) -> io::Result<Option<Message>> {
        match self.recv() {
            Ok(Some(msg)) => Ok(Some(msg)),
            Ok(None) => Err(io::ErrorKind::UnexpectedEof.into()),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Shuts the socket down in both directions, unblocking any thread
    /// stuck on a clone of it.
    pub fn close(&self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn reassembles_dribbled_frames_and_reports_a_clean_close() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            s.set_nodelay(true).unwrap();
            let mut frames = codec::encode_to_bytes(&Message::ProbePong { nonce: 7 }).to_vec();
            frames.extend_from_slice(&codec::encode_to_bytes(&Message::ProbePong { nonce: 8 }));
            let (head, tail) = frames.split_at(5);
            s.write_all(head).unwrap();
            std::thread::sleep(Duration::from_millis(20));
            s.write_all(tail).unwrap();
        });
        let mut conn = Conn::connect(addr, Duration::from_secs(5)).unwrap();
        assert_eq!(conn.recv().unwrap(), Some(Message::ProbePong { nonce: 7 }));
        assert!(
            conn.buffered(),
            "the second frame arrived with the first's tail"
        );
        assert_eq!(conn.recv().unwrap(), Some(Message::ProbePong { nonce: 8 }));
        assert!(!conn.buffered());
        assert_eq!(conn.recv().unwrap(), None);
        server.join().unwrap();
    }

    #[test]
    fn a_silent_peer_times_out_instead_of_hanging() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut conn =
            Conn::connect(listener.local_addr().unwrap(), Duration::from_millis(30)).unwrap();
        let (_held, _) = listener.accept().unwrap();
        let err = conn.recv().unwrap_err();
        assert!(matches!(
            err.kind(),
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        ));
    }
}
