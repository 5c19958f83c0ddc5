//! Socket plumbing: address parsing, TCP/Unix listeners and streams,
//! the bounded-exponential backoff of a worker's first dial, and the
//! framed [`Conn`].
//!
//! This module is the only place in the crate that opens raw sockets —
//! every connection acquired here has a read timeout and a write timeout
//! installed before it is handed out, so no blocking read or write in the
//! crate can stall forever (the wire half of rule BORG-L013).

use crate::codec::{self, DecodeError, FrameReader, Msg};
use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::Duration;

/// Everything that can go wrong on the wire. Socket I/O in this crate
/// never panics: every failure surfaces here.
#[derive(Debug)]
pub enum NetError {
    /// An OS-level socket error, with where it happened.
    Io {
        context: &'static str,
        kind: ErrorKind,
        detail: String,
    },
    /// The peer sent bytes that do not decode.
    Decode(DecodeError),
    /// The peer sent a well-formed frame the protocol does not allow
    /// here (e.g. a `Work` frame before registration).
    Protocol(String),
    /// The dial gave up after exhausting its bounded backoff schedule.
    ConnectFailed { attempts: u32, last: String },
    /// An address string did not parse (`tcp:HOST:PORT` / `unix:PATH`).
    BadAddr(String),
    /// A result the master was blocked on never arrived.
    ResultTimeout { eval_id: u64, waited: Duration },
    /// The peer closed the connection mid-conversation.
    Disconnected { context: &'static str },
    /// Every worker died (or never registered) before the evaluation
    /// budget completed.
    AllWorkersLost { completed: u64, target: u64 },
}

impl NetError {
    pub(crate) fn io(context: &'static str, err: &std::io::Error) -> Self {
        NetError::Io {
            context,
            kind: err.kind(),
            detail: err.to_string(),
        }
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io {
                context,
                kind,
                detail,
            } => write!(f, "socket error during {context}: {kind:?}: {detail}"),
            NetError::Decode(e) => write!(f, "wire decode error: {e}"),
            NetError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            NetError::ConnectFailed { attempts, last } => {
                write!(f, "connect failed after {attempts} attempts: {last}")
            }
            NetError::BadAddr(s) => {
                write!(f, "bad address {s:?} (expected tcp:HOST:PORT or unix:PATH)")
            }
            NetError::ResultTimeout { eval_id, waited } => {
                write!(
                    f,
                    "result for eval {eval_id} not received within {waited:?}"
                )
            }
            NetError::Disconnected { context } => {
                write!(f, "peer disconnected during {context}")
            }
            NetError::AllWorkersLost { completed, target } => {
                write!(f, "all workers lost after {completed}/{target} evaluations")
            }
        }
    }
}

impl std::error::Error for NetError {}

impl From<DecodeError> for NetError {
    fn from(e: DecodeError) -> Self {
        NetError::Decode(e)
    }
}

/// A transport endpoint: `tcp:HOST:PORT` or `unix:PATH`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetAddr {
    Tcp(String),
    Unix(PathBuf),
}

impl NetAddr {
    /// Parses the `tcp:`/`unix:` prefix syntax used on the CLI.
    pub fn parse(s: &str) -> Result<Self, NetError> {
        if let Some(rest) = s.strip_prefix("tcp:") {
            if rest.is_empty() {
                return Err(NetError::BadAddr(s.to_string()));
            }
            Ok(NetAddr::Tcp(rest.to_string()))
        } else if let Some(rest) = s.strip_prefix("unix:") {
            if rest.is_empty() {
                return Err(NetError::BadAddr(s.to_string()));
            }
            Ok(NetAddr::Unix(PathBuf::from(rest)))
        } else {
            Err(NetError::BadAddr(s.to_string()))
        }
    }
}

impl fmt::Display for NetAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetAddr::Tcp(hp) => write!(f, "tcp:{hp}"),
            NetAddr::Unix(p) => write!(f, "unix:{}", p.display()),
        }
    }
}

/// How long a blocking frame write may stall before it fails. A peer that
/// stops reading fills its socket buffer; the master writes dispatches
/// while holding its state lock, so an unbounded write would stop the
/// whole run. A frame is at most a few KiB against socket buffers of tens
/// of KiB, so a healthy peer never comes near this.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// A bound listener over either address family.
pub enum NetListener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl NetListener {
    /// Binds `addr`. For Unix sockets a stale path from a previous run
    /// is removed first (bind fails otherwise).
    pub fn bind(addr: &NetAddr) -> Result<Self, NetError> {
        match addr {
            NetAddr::Tcp(hp) => TcpListener::bind(hp.as_str())
                .map(NetListener::Tcp)
                .map_err(|e| NetError::io("tcp bind", &e)),
            NetAddr::Unix(path) => {
                if path.exists() {
                    std::fs::remove_file(path).map_err(|e| NetError::io("unix unlink", &e))?;
                }
                UnixListener::bind(path)
                    .map(NetListener::Unix)
                    .map_err(|e| NetError::io("unix bind", &e))
            }
        }
    }

    /// The actual bound address (resolves `tcp:127.0.0.1:0` to the real
    /// ephemeral port so tests can connect to it).
    pub(crate) fn local_addr(&self) -> Result<NetAddr, NetError> {
        match self {
            NetListener::Tcp(l) => l
                .local_addr()
                .map(|a| NetAddr::Tcp(a.to_string()))
                .map_err(|e| NetError::io("tcp local_addr", &e)),
            NetListener::Unix(l) => {
                let addr = l
                    .local_addr()
                    .map_err(|e| NetError::io("unix local_addr", &e))?;
                match addr.as_pathname() {
                    Some(p) => Ok(NetAddr::Unix(p.to_path_buf())),
                    None => Err(NetError::Protocol("unnamed unix listener".to_string())),
                }
            }
        }
    }

    /// Puts the listener in non-blocking mode (the accept loops poll a
    /// shutdown flag between attempts instead of blocking forever).
    pub(crate) fn set_nonblocking(&self, nonblocking: bool) -> Result<(), NetError> {
        match self {
            NetListener::Tcp(l) => l.set_nonblocking(nonblocking),
            NetListener::Unix(l) => l.set_nonblocking(nonblocking),
        }
        .map_err(|e| NetError::io("set_nonblocking", &e))
    }

    /// Accepts one connection and installs `read_timeout` (and the write
    /// timeout) on it before returning. In non-blocking mode `Ok(None)`
    /// means "nobody there".
    #[expect(
        clippy::disallowed_methods,
        reason = "BORG-L013: the one raw accept; both deadlines go on before the stream escapes"
    )]
    pub fn accept(&self, read_timeout: Duration) -> Result<Option<NetStream>, NetError> {
        let stream = match self {
            NetListener::Tcp(l) => match l.accept() {
                Ok((s, _)) => NetStream::Tcp(s),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(None),
                Err(e) => return Err(NetError::io("tcp accept", &e)),
            },
            NetListener::Unix(l) => match l.accept() {
                Ok((s, _)) => NetStream::Unix(s),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(None),
                Err(e) => return Err(NetError::io("unix accept", &e)),
            },
        };
        stream.set_nonblocking(false)?;
        stream.set_read_timeout(Some(read_timeout))?;
        stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
        Ok(Some(stream))
    }
}

/// A connected socket over either address family.
#[derive(Debug)]
pub enum NetStream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl NetStream {
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> Result<(), NetError> {
        match self {
            NetStream::Tcp(s) => s.set_read_timeout(timeout),
            NetStream::Unix(s) => s.set_read_timeout(timeout),
        }
        .map_err(|e| NetError::io("set_read_timeout", &e))
    }

    pub(crate) fn set_write_timeout(&self, timeout: Option<Duration>) -> Result<(), NetError> {
        match self {
            NetStream::Tcp(s) => s.set_write_timeout(timeout),
            NetStream::Unix(s) => s.set_write_timeout(timeout),
        }
        .map_err(|e| NetError::io("set_write_timeout", &e))
    }

    pub(crate) fn set_nonblocking(&self, nonblocking: bool) -> Result<(), NetError> {
        match self {
            NetStream::Tcp(s) => s.set_nonblocking(nonblocking),
            NetStream::Unix(s) => s.set_nonblocking(nonblocking),
        }
        .map_err(|e| NetError::io("set_nonblocking", &e))
    }

    /// Clones the OS handle (reader and writer halves can then live on
    /// different threads).
    pub(crate) fn try_clone(&self) -> Result<NetStream, NetError> {
        match self {
            NetStream::Tcp(s) => s.try_clone().map(NetStream::Tcp),
            NetStream::Unix(s) => s.try_clone().map(NetStream::Unix),
        }
        .map_err(|e| NetError::io("try_clone", &e))
    }

    /// Shuts down both directions; concurrent blocked reads return EOF.
    pub fn shutdown(&self) {
        // Best-effort: the peer may already be gone.
        let _ = match self {
            NetStream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            NetStream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }
}

impl Read for NetStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            NetStream::Tcp(s) => s.read(buf),
            NetStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for NetStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            NetStream::Tcp(s) => s.write(buf),
            NetStream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            NetStream::Tcp(s) => s.flush(),
            NetStream::Unix(s) => s.flush(),
        }
    }
}

/// Bounded exponential backoff for a first dial: `base · 2^attempt`,
/// capped at `cap`, for at most `max_attempts` attempts — then gives up.
/// Bounding both the delay and the attempt count guarantees every dial
/// in the crate terminates.
#[derive(Debug, Clone, Copy)]
pub struct Backoff {
    pub base: Duration,
    pub cap: Duration,
    pub max_attempts: u32,
    attempt: u32,
}

impl Backoff {
    pub(crate) fn new(base: Duration, cap: Duration, max_attempts: u32) -> Self {
        Backoff {
            base,
            cap,
            max_attempts,
            attempt: 0,
        }
    }

    /// Default schedule: 2 ms, 4 ms, … capped at 250 ms, 12 attempts
    /// (≈2.5 s total) — long enough for a worker started just before its
    /// master binds, short enough that orphaned workers exit promptly.
    pub fn default_schedule() -> Self {
        Backoff::new(Duration::from_millis(2), Duration::from_millis(250), 12)
    }

    /// The delay to sleep before the next attempt, or `None` when the
    /// schedule is exhausted.
    pub(crate) fn next_delay(&mut self) -> Option<Duration> {
        if self.attempt >= self.max_attempts {
            return None;
        }
        let shift = self.attempt.min(16);
        let delay = self
            .base
            .checked_mul(1u32 << shift)
            .map_or(self.cap, |d| d.min(self.cap));
        self.attempt += 1;
        Some(delay)
    }

    /// Attempts consumed so far.
    pub(crate) fn attempts(&self) -> u32 {
        self.attempt
    }
}

/// One connect attempt with the read and write deadlines installed before
/// the stream is handed anywhere (the BORG-L013 contract: acquisition and
/// timeout guards live in the same place).
#[expect(
    clippy::disallowed_methods,
    reason = "BORG-L013: the one raw connect; both deadlines go on before the stream escapes"
)]
fn connect_once(addr: &NetAddr, read_timeout: Duration) -> std::io::Result<NetStream> {
    let stream = match addr {
        NetAddr::Tcp(hp) => TcpStream::connect(hp.as_str()).map(NetStream::Tcp)?,
        NetAddr::Unix(path) => UnixStream::connect(path).map(NetStream::Unix)?,
    };
    match &stream {
        NetStream::Tcp(s) => {
            s.set_read_timeout(Some(read_timeout))?;
            s.set_write_timeout(Some(WRITE_TIMEOUT))?;
        }
        NetStream::Unix(s) => {
            s.set_read_timeout(Some(read_timeout))?;
            s.set_write_timeout(Some(WRITE_TIMEOUT))?;
        }
    }
    Ok(stream)
}

/// Connects to `addr`, retrying on the given backoff schedule, and
/// installs `read_timeout` before returning. The first attempt is
/// immediate; each failure sleeps the next backoff delay.
pub fn connect_with_backoff(
    addr: &NetAddr,
    backoff: &mut Backoff,
    read_timeout: Duration,
) -> Result<NetStream, NetError> {
    loop {
        let last = match connect_once(addr, read_timeout) {
            Ok(stream) => return Ok(stream),
            Err(e) => e.to_string(),
        };
        match backoff.next_delay() {
            Some(delay) => std::thread::sleep(delay),
            None => {
                return Err(NetError::ConnectFailed {
                    attempts: backoff.attempts(),
                    last,
                })
            }
        }
    }
}

/// A framed, timeout-guarded connection: writes whole frames, reads
/// whole messages.
pub struct Conn {
    stream: NetStream,
    reader: FrameReader,
    scratch: [u8; 4096],
    /// The outgoing frame, re-encoded in place by every `send`.
    out: Vec<u8>,
}

impl Conn {
    /// Wraps a stream that already has its read timeout installed
    /// (listener `accept` and `connect_with_backoff` both guarantee it).
    pub fn new(stream: NetStream) -> Self {
        Conn {
            stream,
            reader: FrameReader::new(),
            scratch: [0u8; 4096],
            out: Vec::new(),
        }
    }

    pub fn stream(&self) -> &NetStream {
        &self.stream
    }

    /// Encodes and writes one frame. Returns the frame size in bytes.
    pub fn send(&mut self, msg: &Msg) -> Result<usize, NetError> {
        codec::encode_into(&mut self.out, msg);
        self.stream
            .write_all(&self.out)
            .map_err(|e| NetError::io("frame write", &e))?;
        Ok(self.out.len())
    }

    /// Hands back the `f64` vector of a received message the caller is
    /// done with, so the next `recv` refills it instead of allocating (see
    /// [`FrameReader::recycle`]).
    pub(crate) fn recycle(&mut self, retired: Vec<f64>) {
        self.reader.recycle(retired);
    }

    /// Reads until one complete message is available or the read timeout
    /// elapses. `Ok(None)` = timeout (no partial message consumed);
    /// `Err(Disconnected)` = orderly EOF; decode errors poison the
    /// connection and the caller must drop it.
    pub fn recv(&mut self) -> Result<Option<Msg>, NetError> {
        loop {
            if let Some(msg) = self.reader.next_msg()? {
                return Ok(Some(msg));
            }
            let n = match self.stream.read(&mut self.scratch) {
                Ok(0) => {
                    if self.reader.pending_len() > 0 {
                        return Err(NetError::Decode(DecodeError::Truncated));
                    }
                    return Err(NetError::Disconnected {
                        context: "frame read",
                    });
                }
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return Ok(None);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(NetError::io("frame read", &e)),
            };
            self.reader.feed(&self.scratch[..n]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_parse_round_trips() {
        let tcp = NetAddr::parse("tcp:127.0.0.1:7070").unwrap();
        assert_eq!(tcp.to_string(), "tcp:127.0.0.1:7070");
        let unix = NetAddr::parse("unix:/tmp/x.sock").unwrap();
        assert_eq!(unix.to_string(), "unix:/tmp/x.sock");
        assert!(NetAddr::parse("udp:nope").is_err());
        assert!(NetAddr::parse("tcp:").is_err());
        assert!(NetAddr::parse("unix:").is_err());
    }

    #[test]
    fn backoff_is_bounded_in_delay_and_attempts() {
        let mut b = Backoff::new(Duration::from_millis(2), Duration::from_millis(16), 8);
        let delays: Vec<_> = std::iter::from_fn(|| b.next_delay()).collect();
        assert_eq!(delays.len(), 8);
        assert_eq!(delays[0], Duration::from_millis(2));
        assert_eq!(delays[1], Duration::from_millis(4));
        assert!(delays.iter().all(|d| *d <= Duration::from_millis(16)));
        assert_eq!(b.next_delay(), None);
    }

    #[test]
    fn connect_with_backoff_gives_up_cleanly() {
        let addr = NetAddr::Unix(PathBuf::from("/nonexistent/borg-net-test.sock"));
        let mut backoff = Backoff::new(Duration::from_micros(10), Duration::from_micros(50), 3);
        let err = connect_with_backoff(&addr, &mut backoff, Duration::from_millis(10));
        assert!(matches!(
            err,
            Err(NetError::ConnectFailed { attempts: 3, .. })
        ));
    }

    #[test]
    fn acquired_streams_carry_both_deadlines() {
        let path = std::env::temp_dir().join(format!(
            "borg-net-transport-{}-deadlines.sock",
            std::process::id()
        ));
        let listener = NetListener::bind(&NetAddr::Unix(path.clone())).unwrap();
        let read_timeout = Duration::from_millis(40);
        let mut backoff = Backoff::default_schedule();
        let dialled =
            connect_with_backoff(&NetAddr::Unix(path.clone()), &mut backoff, read_timeout).unwrap();
        let accepted = listener.accept(read_timeout).unwrap().unwrap();
        for stream in [dialled, accepted] {
            let NetStream::Unix(s) = stream else {
                panic!("unix endpoints yield unix streams");
            };
            assert_eq!(s.read_timeout().unwrap(), Some(read_timeout));
            assert_eq!(s.write_timeout().unwrap(), Some(WRITE_TIMEOUT));
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn framed_conn_round_trips_over_a_real_socket_pair() {
        let (a, b) = UnixStream::pair().unwrap();
        a.set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        b.set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        let mut left = Conn::new(NetStream::Unix(a));
        let mut right = Conn::new(NetStream::Unix(b));
        left.send(&Msg::Heartbeat {
            worker: 5,
            ctx: None,
        })
        .unwrap();
        let got = right.recv().unwrap();
        assert_eq!(
            got,
            Some(Msg::Heartbeat {
                worker: 5,
                ctx: None
            })
        );
        // No more data: the read honours its timeout instead of hanging.
        assert!(right.recv().unwrap().is_none());
    }
}
