//! A counting RESP relay between the engine and redis-lite.
//!
//! The relay listens on a local port and forwards every byte of every
//! connection, unchanged, to the upstream server and back. On the way it
//! parses commands with [`CommandParser`] and replies with [`decode`] and
//! counts what the Redis layer really does on the wire: commands per verb,
//! round trips, bytes each way, the time a connection had a request
//! outstanding, and how many `XREADGROUP` polls came back empty. The
//! engine is pointed at it as `RedisBackend::Tcp(relay.addr())`.
//!
//! One thread serves every connection with nonblocking sockets. It sleeps
//! in `poll(2)` until a socket is ready, so an idle relay costs no CPU and
//! a ready one is served without a sweep over the others. No crate is
//! used: `poll` is declared against the C library the standard library
//! already links.

use d4py_sync::Mutex;
use redis_lite::resp::{decode, CommandParser, Frame};
use std::collections::{BTreeMap, VecDeque};
use std::ffi::{c_int, c_short, c_ulong};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long one `poll` waits before the relay checks its stop flag.
const POLL_MS: c_int = 5;

const POLLIN: c_short = 0x1;
const POLLOUT: c_short = 0x4;

/// `struct pollfd` of `poll(2)`.
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    fn new(fd: &impl AsRawFd, events: c_short) -> PollFd {
        PollFd {
            fd: fd.as_raw_fd(),
            events,
            revents: 0,
        }
    }
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// Waits until one of `fds` is ready or `POLL_MS` passes, and fills in
/// each `revents`. An error (e.g. `EINTR`) reads as "nothing ready".
fn wait_ready(fds: &mut [PollFd]) {
    // SAFETY: `fds` is a live, exclusively borrowed slice of `#[repr(C)]`
    // structs laid out as `struct pollfd`, and `nfds` is its exact length,
    // so `poll` reads and writes only inside it.
    let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, POLL_MS) };
    if n < 0 {
        fds.iter_mut().for_each(|f| f.revents = 0);
    }
}

/// What crossed the relay since it started or was last [`Relay::take`]n.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WireStats {
    /// Commands relayed.
    pub commands: u64,
    /// Commands per upper-cased verb.
    pub per_verb: BTreeMap<String, u64>,
    /// Times a connection went from no request outstanding to one.
    pub round_trips: u64,
    /// Bytes from clients to the server.
    pub bytes_up: u64,
    /// Bytes from the server to clients.
    pub bytes_down: u64,
    /// Summed over connections: time with at least one request
    /// outstanding.
    pub wait: Duration,
    /// Connections accepted.
    pub connections: u64,
    /// `XREADGROUP` replies seen.
    pub reads: u64,
    /// `XREADGROUP` replies that carried no entries.
    pub empty_reads: u64,
}

impl WireStats {
    /// Empty `XREADGROUP` replies over all `XREADGROUP` replies (0 when
    /// there were none).
    pub fn empty_read_ratio(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.empty_reads as f64 / self.reads as f64
        }
    }
}

/// A running relay. Dropping it stops and joins its thread.
pub struct Relay {
    addr: SocketAddr,
    stats: Arc<Mutex<WireStats>>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Relay {
    /// Starts a relay on an ephemeral local port in front of `upstream`.
    pub fn start(upstream: SocketAddr) -> io::Result<Relay> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stats = Arc::new(Mutex::new(WireStats::default()));
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let (stats, stop) = (stats.clone(), stop.clone());
            std::thread::Builder::new()
                .name("resp-relay".into())
                .spawn(move || serve(listener, upstream, &stats, &stop))?
        };
        Ok(Relay {
            addr,
            stats,
            stop,
            thread: Some(thread),
        })
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Returns the counts so far and starts counting from zero.
    pub fn take(&self) -> WireStats {
        std::mem::take(&mut *self.stats.lock())
    }
}

impl Drop for Relay {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// One relayed connection: the client's socket, its upstream socket, and
/// the verbs of the requests still waiting for a reply, in order.
struct Pipe {
    client: TcpStream,
    server: TcpStream,
    parser: CommandParser,
    replies: Vec<u8>,
    to_server: Vec<u8>,
    to_client: Vec<u8>,
    pending: VecDeque<String>,
    busy_since: Option<Instant>,
    open: bool,
}

impl Pipe {
    fn new(client: TcpStream, upstream: SocketAddr) -> io::Result<Pipe> {
        let server = TcpStream::connect(upstream)?;
        for s in [&client, &server] {
            s.set_nodelay(true)?;
            s.set_nonblocking(true)?;
        }
        Ok(Pipe {
            client,
            server,
            parser: CommandParser::new(),
            replies: Vec::new(),
            to_server: Vec::new(),
            to_client: Vec::new(),
            pending: VecDeque::new(),
            busy_since: None,
            open: true,
        })
    }

    /// Moves whatever is ready in both directions.
    fn pump(&mut self, stats: &mut WireStats) {
        let mut chunk = [0u8; 16 * 1024];
        // Client → relay: count the complete commands, queue the bytes.
        let n = read_ready(
            &mut self.client,
            &mut chunk,
            &mut self.to_server,
            &mut self.open,
        );
        if n > 0 {
            stats.bytes_up += n as u64;
            let start = self.to_server.len() - n;
            self.parser.feed(&self.to_server[start..]);
            match self.parser.drain() {
                Ok(cmds) => {
                    for args in cmds {
                        let verb = args
                            .first()
                            .map(|v| String::from_utf8_lossy(v).to_ascii_uppercase())
                            .unwrap_or_default();
                        stats.commands += 1;
                        *stats.per_verb.entry(verb.clone()).or_insert(0) += 1;
                        if self.pending.is_empty() {
                            stats.round_trips += 1;
                            self.busy_since = Some(Instant::now());
                        }
                        self.pending.push_back(verb);
                    }
                }
                Err(_) => self.open = false,
            }
        }
        write_ready(&mut self.server, &mut self.to_server, &mut self.open);
        // Server → relay: match every complete reply to its request.
        let n = read_ready(
            &mut self.server,
            &mut chunk,
            &mut self.to_client,
            &mut self.open,
        );
        if n > 0 {
            stats.bytes_down += n as u64;
            let start = self.to_client.len() - n;
            self.replies.extend_from_slice(&self.to_client[start..]);
            let mut used = 0;
            while let Ok(Some((frame, len))) = decode(&self.replies[used..]) {
                used += len;
                if self.pending.pop_front().as_deref() == Some("XREADGROUP") {
                    stats.reads += 1;
                    if !has_entries(&frame) {
                        stats.empty_reads += 1;
                    }
                }
                if self.pending.is_empty() {
                    if let Some(since) = self.busy_since.take() {
                        stats.wait += since.elapsed();
                    }
                }
            }
            self.replies.drain(..used);
        }
        write_ready(&mut self.client, &mut self.to_client, &mut self.open);
    }

    fn close(self, stats: &mut WireStats) {
        if let Some(since) = self.busy_since {
            stats.wait += since.elapsed();
        }
        let _ = self.client.shutdown(std::net::Shutdown::Both);
        let _ = self.server.shutdown(std::net::Shutdown::Both);
    }
}

/// True when an `XREADGROUP` reply carries at least one stream entry.
fn has_entries(reply: &Frame) -> bool {
    reply.as_array().is_some_and(|streams| {
        streams.iter().any(|s| {
            s.as_array()
                .and_then(|kv| kv.get(1))
                .and_then(Frame::as_array)
                .is_some_and(|entries| !entries.is_empty())
        })
    })
}

/// Reads what `from` has ready onto `out`; returns the byte count and
/// clears `open` on end of stream or error.
fn read_ready(from: &mut TcpStream, chunk: &mut [u8], out: &mut Vec<u8>, open: &mut bool) -> usize {
    let mut total = 0;
    loop {
        match from.read(chunk) {
            Ok(0) => {
                *open = false;
                return total;
            }
            Ok(n) => {
                out.extend_from_slice(&chunk[..n]);
                total += n;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return total,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => {
                *open = false;
                return total;
            }
        }
    }
}

/// Writes as much of `buf` as `to` accepts and drops the written prefix.
fn write_ready(to: &mut TcpStream, buf: &mut Vec<u8>, open: &mut bool) {
    let mut written = 0;
    while written < buf.len() {
        match to.write(&buf[written..]) {
            Ok(0) => {
                *open = false;
                break;
            }
            Ok(n) => written += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => {
                *open = false;
                break;
            }
        }
    }
    buf.drain(..written);
}

fn serve(listener: TcpListener, upstream: SocketAddr, stats: &Mutex<WireStats>, stop: &AtomicBool) {
    let mut pipes: Vec<Pipe> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        fds.clear();
        fds.push(PollFd::new(&listener, POLLIN));
        for p in &pipes {
            let out = |pending: &Vec<u8>| if pending.is_empty() { 0 } else { POLLOUT };
            fds.push(PollFd::new(&p.client, POLLIN | out(&p.to_client)));
            fds.push(PollFd::new(&p.server, POLLIN | out(&p.to_server)));
        }
        wait_ready(&mut fds);
        let mut s = stats.lock();
        for (i, pipe) in pipes.iter_mut().enumerate() {
            if fds[1 + 2 * i].revents != 0 || fds[2 + 2 * i].revents != 0 {
                pipe.pump(&mut s);
            }
        }
        let mut i = 0;
        while i < pipes.len() {
            if pipes[i].open {
                i += 1;
            } else {
                pipes.swap_remove(i).close(&mut s);
            }
        }
        if fds[0].revents != 0 {
            loop {
                match listener.accept() {
                    Ok((client, _)) => {
                        if let Ok(pipe) = Pipe::new(client, upstream) {
                            s.connections += 1;
                            pipes.push(pipe);
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => break,
                }
            }
        }
    }
    let mut s = stats.lock();
    for pipe in pipes {
        pipe.close(&mut s);
    }
}
