//! The event-driven TCP front-end: one reactor thread, many sockets.
//!
//! A thread per connection would burn a thread per idle client and put
//! sleep loops (an accept poll, a read timeout) on the hot path; at
//! fleet scale — thousands of mostly-idle design-space exploration
//! clients — that is the bottleneck long before the solver is. So the
//! daemon's only TCP transport is a reactor:
//!
//! * one thread owns a [`cgra_par::reactor::Poller`] (epoll on Linux,
//!   `poll(2)` on other unixes) with the listener, a waker, and every
//!   connection registered level-triggered;
//! * reads are nonblocking; NDJSON frames are reassembled across
//!   arbitrary TCP segment boundaries (a frame may arrive one byte at a
//!   time, or many frames in one segment) and dispatched through
//!   [`Service::handle_async`];
//! * responses come back on a completion queue from worker threads (or
//!   inline, for cache hits served at submission) and are flushed with
//!   backpressure: a connection whose client stops reading accumulates
//!   up to a high watermark, then has its *read* interest paused — a
//!   slow consumer throttles itself, not the daemon;
//! * connection slots carry generation counters, so a response that
//!   completes after its connection died (and the slot was reused) is
//!   dropped instead of being written into another client's stream;
//! * shutdown is event-driven too: [`Service::on_shutdown`] wakes the
//!   poller, the listener closes, and the loop exits once every
//!   connection has drained its final bytes.
//!
//! `Reactor::new` creates the poller and the waker and registers them
//! and the listener on the caller's thread, so
//! [`crate::server::spawn_tcp`] returns any setup failure to its caller
//! rather than starting a thread that cannot serve.

use crate::service::{ReactorStats, Service};
use crate::wire::{self, ErrorKind, WireError};
use cgra_par::reactor::{Event, Interest, Poller};
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
/// Hard cap on one request frame; a line that exceeds it gets a
/// typed error and the connection is drained no further.
const MAX_FRAME: usize = 32 << 20;
/// Pause reading a connection once this many response bytes are
/// queued toward a client that is not consuming them...
const HIGH_WATER: usize = 1 << 20;
/// ...and resume once the backlog drains below this.
const LOW_WATER: usize = 64 << 10;
/// Defensive heartbeat: the loop re-checks state at least this
/// often even if a wakeup is somehow lost.
const HEARTBEAT: Duration = Duration::from_millis(500);

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A finished response addressed to a connection token. `seq` is
/// the frame's dispatch number on its connection: responses are
/// delivered in request order per connection (a pipelining client
/// may correlate by position, not just by id), so an out-of-order
/// completion parks in the connection's reorder buffer.
struct Completion {
    token: u64,
    seq: u64,
    response: String,
}

/// State shared with worker threads: the completion queue and the
/// waker that interrupts [`Poller::wait`].
struct Shared {
    queue: Mutex<Vec<Completion>>,
    waker: Mutex<UnixStream>,
}

impl Shared {
    fn push(&self, token: u64, seq: u64, response: String) {
        lock(&self.queue).push(Completion {
            token,
            seq,
            response,
        });
        self.wake();
    }

    fn wake(&self) {
        // Nonblocking: a full pipe already guarantees a pending
        // wakeup, so WouldBlock is success.
        let _ = lock(&self.waker).write(&[1]);
    }
}

/// NDJSON frame reassembly that looks at each byte once. `scanned`
/// marks how far the buffer is known to hold no newline, so a frame
/// that arrives over many reads is never searched again from its start;
/// frames are handed out in place and their bytes dropped once per
/// read, not once per frame.
#[derive(Default)]
struct Framer {
    buf: Vec<u8>,
    scanned: usize,
}

impl Framer {
    /// Appends `bytes` and passes each frame they complete to `each`,
    /// without its newline.
    fn feed(&mut self, bytes: &[u8], mut each: impl FnMut(&[u8])) {
        self.buf.extend_from_slice(bytes);
        let mut start = 0;
        while let Some(i) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
            let end = self.scanned + i;
            each(&self.buf[start..end]);
            start = end + 1;
            self.scanned = start;
        }
        self.buf.drain(..start);
        self.scanned = self.buf.len();
    }
}

struct Conn {
    stream: TcpStream,
    gen: u64,
    inbuf: Framer,
    outbuf: VecDeque<u8>,
    /// Requests dispatched whose responses have not yet reached
    /// `outbuf`. The connection must outlive them.
    outstanding: usize,
    /// Dispatch sequence of the next frame read off this connection.
    next_dispatch: u64,
    /// Sequence of the next response owed to the client...
    next_deliver: u64,
    /// ...and completions that finished ahead of it.
    reorder: BTreeMap<u64, String>,
    read_closed: bool,
    paused: bool,
    interest: Interest,
    /// The frame cap tripped: everything further from this client
    /// is discarded.
    poisoned: bool,
}

impl Conn {
    /// Queues a completed response, flushing it (and any parked
    /// successors) to the outbox once it is the next one owed.
    fn complete(&mut self, seq: u64, response: String) {
        self.outstanding = self.outstanding.saturating_sub(1);
        self.reorder.insert(seq, response);
        while let Some(response) = self.reorder.remove(&self.next_deliver) {
            self.outbuf.extend(response.as_bytes());
            self.outbuf.push_back(b'\n');
            self.next_deliver += 1;
        }
    }
}

fn token_of(slot: usize, gen: u64) -> u64 {
    ((slot as u64 + 1) << 32) | (gen & 0xffff_ffff)
}

fn slot_of(token: u64) -> Option<(usize, u64)> {
    if token < (1 << 32) {
        return None;
    }
    Some(((token >> 32) as usize - 1, token & 0xffff_ffff))
}

/// The transport's OS resources, created and registered on the caller's
/// thread by [`Reactor::new`]; [`Reactor::run`] is the event loop.
pub(crate) struct Reactor {
    service: Arc<Service>,
    listener: TcpListener,
    poller: Poller,
    waker_rx: UnixStream,
    shared: Arc<Shared>,
}

impl Reactor {
    /// Makes `listener` nonblocking, creates the poller and the waker
    /// socketpair, and registers both with the poller.
    pub(crate) fn new(service: Arc<Service>, listener: TcpListener) -> io::Result<Reactor> {
        listener.set_nonblocking(true)?;
        let mut poller = Poller::new()?;
        let (waker_rx, waker_tx) = UnixStream::pair()?;
        waker_rx.set_nonblocking(true)?;
        waker_tx.set_nonblocking(true)?;
        poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        poller.register(waker_rx.as_raw_fd(), TOKEN_WAKER, Interest::READ)?;
        let shared = Arc::new(Shared {
            queue: Mutex::new(Vec::new()),
            waker: Mutex::new(waker_tx),
        });
        {
            // A `shutdown` request arriving on any connection (or an
            // in-process initiate_shutdown) must interrupt the wait.
            let shared = Arc::clone(&shared);
            service.on_shutdown(move || shared.wake());
        }
        Ok(Reactor {
            service,
            listener,
            poller,
            waker_rx,
            shared,
        })
    }

    /// Runs the reactor until the service shuts down and every
    /// connection has drained.
    pub(crate) fn run(self) {
        let Reactor {
            service,
            listener,
            mut poller,
            mut waker_rx,
            shared,
        } = self;
        let stats = service.reactor_stats();
        let mut conns: Vec<Option<Conn>> = Vec::new();
        let mut free: Vec<usize> = Vec::new();
        let mut next_gen: u64 = 0;
        let mut events: Vec<Event> = Vec::new();
        let mut dirty: Vec<usize> = Vec::new();
        let mut listening = true;

        loop {
            if let Err(e) = poller.wait(&mut events, Some(HEARTBEAT)) {
                // An unrecoverable poller failure: fail every client
                // rather than spin, and shut the service down so that
                // nothing waits on a transport that has stopped.
                eprintln!("cgra-serve: readiness polling failed: {e}");
                service.initiate_shutdown();
                break;
            }
            dirty.clear();
            let shutting_down = service.is_shutting_down();

            for ev in &events {
                let ev = *ev;
                match ev.token {
                    TOKEN_LISTENER => {
                        if listening && !shutting_down {
                            accept_all(
                                &listener,
                                &mut poller,
                                &mut conns,
                                &mut free,
                                &mut next_gen,
                                &stats,
                            );
                        }
                    }
                    TOKEN_WAKER => {
                        let mut sink = [0u8; 256];
                        while matches!(waker_rx.read(&mut sink), Ok(n) if n > 0) {}
                    }
                    token => {
                        if let Some((slot, gen)) = slot_of(token) {
                            let alive = matches!(
                                conns.get(slot),
                                Some(Some(c)) if c.gen == gen
                            );
                            if alive {
                                if ev.readable || ev.hangup {
                                    read_conn(&service, &shared, &mut conns, slot, &stats);
                                }
                                dirty.push(slot);
                            }
                        }
                    }
                }
            }

            // Deliver finished responses (from workers, or queued
            // inline during the reads above).
            let completed: Vec<Completion> = std::mem::take(&mut *lock(&shared.queue));
            for c in completed {
                if let Some((slot, gen)) = slot_of(c.token) {
                    if let Some(Some(conn)) = conns.get_mut(slot) {
                        if conn.gen == gen {
                            conn.complete(c.seq, c.response);
                            dirty.push(slot);
                        } else {
                            // A stale generation means the original
                            // client vanished and the slot was reused:
                            // dropping the response is the only correct
                            // delivery. Counted so the chaos suites can
                            // assert no response crossed connections.
                            stats.stale_completions.fetch_add(1, Ordering::Relaxed);
                        }
                    } else {
                        stats.stale_completions.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }

            if shutting_down {
                if listening {
                    let _ = poller.deregister(listener.as_raw_fd());
                    listening = false;
                }
                // Every connection gets a drain-and-close pass.
                dirty.extend(0..conns.len());
            }

            dirty.sort_unstable();
            dirty.dedup();
            for &slot in &dirty {
                pump_conn(
                    &mut poller,
                    &mut conns,
                    &mut free,
                    slot,
                    shutting_down,
                    &stats,
                );
            }

            if shutting_down && conns.iter().all(Option::is_none) {
                break;
            }
        }
    }
}

fn accept_all(
    listener: &TcpListener,
    poller: &mut Poller,
    conns: &mut Vec<Option<Conn>>,
    free: &mut Vec<usize>,
    next_gen: &mut u64,
    stats: &ReactorStats,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let slot = free.pop().unwrap_or_else(|| {
                    conns.push(None);
                    conns.len() - 1
                });
                *next_gen = next_gen.wrapping_add(1);
                let gen = *next_gen & 0xffff_ffff;
                let token = token_of(slot, gen);
                if poller
                    .register(stream.as_raw_fd(), token, Interest::READ)
                    .is_err()
                {
                    free.push(slot);
                    continue;
                }
                conns[slot] = Some(Conn {
                    stream,
                    gen,
                    inbuf: Framer::default(),
                    outbuf: VecDeque::new(),
                    outstanding: 0,
                    next_dispatch: 0,
                    next_deliver: 0,
                    reorder: BTreeMap::new(),
                    read_closed: false,
                    paused: false,
                    interest: Interest::READ,
                    poisoned: false,
                });
                stats.connections_accepted.fetch_add(1, Ordering::Relaxed);
                stats.connections_open.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => {
                eprintln!("cgra-serve: accept failed: {e}");
                break;
            }
        }
    }
}

/// Drains readable bytes, reassembles complete NDJSON frames, and
/// dispatches them. Partial frames stay buffered for the next
/// readiness event — a request split across any number of TCP
/// segments reassembles byte-exactly.
fn read_conn(
    service: &Arc<Service>,
    shared: &Arc<Shared>,
    conns: &mut [Option<Conn>],
    slot: usize,
    stats: &ReactorStats,
) {
    let Some(conn) = conns.get_mut(slot).and_then(Option::as_mut) else {
        return;
    };
    let token = token_of(slot, conn.gen);
    let mut chunk = [0u8; 64 << 10];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.read_closed = true;
                break;
            }
            Ok(n) => {
                if conn.poisoned {
                    continue; // discard: the client blew the frame cap
                }
                dispatch_frames(service, shared, conn, &chunk[..n], token, stats);
                if conn.inbuf.buf.len() > MAX_FRAME {
                    conn.poisoned = true;
                    conn.inbuf = Framer::default();
                    let err = wire::error_response(
                        None,
                        &WireError::new(
                            ErrorKind::Request,
                            format!("request frame exceeds {MAX_FRAME} bytes"),
                        ),
                    );
                    // Route through the sequencer so the error lands
                    // after every response already owed.
                    conn.outstanding += 1;
                    let seq = conn.next_dispatch;
                    conn.next_dispatch += 1;
                    conn.complete(seq, err);
                    conn.read_closed = true;
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.read_closed = true;
                break;
            }
        }
    }
}

fn dispatch_frames(
    service: &Arc<Service>,
    shared: &Arc<Shared>,
    conn: &mut Conn,
    bytes: &[u8],
    token: u64,
    stats: &ReactorStats,
) {
    conn.inbuf.feed(bytes, |frame| {
        stats.frames.fetch_add(1, Ordering::Relaxed);
        let line = String::from_utf8_lossy(frame);
        let line = line.trim();
        if line.is_empty() {
            return;
        }
        conn.outstanding += 1;
        let seq = conn.next_dispatch;
        conn.next_dispatch += 1;
        let shared = Arc::clone(shared);
        service.handle_async(
            line,
            Box::new(move |response| shared.push(token, seq, response)),
        );
    });
}

/// Flushes queued bytes, recomputes interest (backpressure pause /
/// resume, write interest while the outbox is non-empty), and
/// closes the connection once it is finished: read side closed or
/// shutdown, nothing outstanding, outbox empty.
fn pump_conn(
    poller: &mut Poller,
    conns: &mut [Option<Conn>],
    free: &mut Vec<usize>,
    slot: usize,
    shutting_down: bool,
    stats: &ReactorStats,
) {
    let Some(conn) = conns.get_mut(slot).and_then(Option::as_mut) else {
        return;
    };
    let mut dead = false;
    while !conn.outbuf.is_empty() {
        let (front, _) = conn.outbuf.as_slices();
        match conn.stream.write(front) {
            Ok(0) => {
                dead = true;
                break;
            }
            Ok(n) => {
                conn.outbuf.drain(..n);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                dead = true;
                break;
            }
        }
    }

    let drained = conn.outbuf.is_empty();
    let finished = drained && conn.outstanding == 0 && (conn.read_closed || shutting_down);
    if dead || finished {
        let _ = poller.deregister(conn.stream.as_raw_fd());
        conns[slot] = None;
        free.push(slot);
        stats.connections_open.fetch_sub(1, Ordering::Relaxed);
        return;
    }

    if !conn.paused && conn.outbuf.len() >= HIGH_WATER {
        conn.paused = true;
        stats.backpressure_events.fetch_add(1, Ordering::Relaxed);
    } else if conn.paused && conn.outbuf.len() <= LOW_WATER {
        conn.paused = false;
    }
    let want = Interest {
        read: !conn.paused && !conn.read_closed,
        write: !drained,
    };
    if want != conn.interest {
        let token = token_of(slot, conn.gen);
        if poller.modify(conn.stream.as_raw_fd(), token, want).is_ok() {
            conn.interest = want;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Framer;

    /// Feeds `chunks` one read at a time and returns the frames; after
    /// every read the scan offset has reached the buffer's end, so no
    /// byte is searched twice.
    fn feed(chunks: &[&[u8]]) -> Vec<Vec<u8>> {
        let mut framer = Framer::default();
        let mut frames = Vec::new();
        for chunk in chunks {
            framer.feed(chunk, |frame| frames.push(frame.to_vec()));
            assert_eq!(framer.scanned, framer.buf.len());
        }
        frames
    }

    #[test]
    fn a_frame_fed_in_many_chunks_is_scanned_once() {
        let line = vec![b'x'; 1000];
        let mut chunks: Vec<&[u8]> = line.chunks(7).collect();
        chunks.push(b"\n");
        assert_eq!(feed(&chunks), vec![line.clone()]);
    }

    #[test]
    fn frames_split_and_merged_across_reads_reassemble() {
        let stream = b"{\"a\":1}\n\n{\"b\":2}\n{\"c\":3}\npartial";
        let expected: Vec<&[u8]> = vec![b"{\"a\":1}", b"", b"{\"b\":2}", b"{\"c\":3}"];
        for size in 1..stream.len() {
            let chunks: Vec<&[u8]> = stream.chunks(size).collect();
            assert_eq!(feed(&chunks), expected, "chunk size {size}");
        }
    }
}
