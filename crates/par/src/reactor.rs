//! OS readiness polling for event-driven I/O, without registry deps.
//!
//! The serve daemon's reactor needs one primitive the standard library
//! does not expose: "block until any of these sockets is readable or
//! writable". The usual answer is the `mio` crate; this build
//! environment cannot download crates, so — in the same spirit as this
//! crate's `par_map` replacing rayon — [`Poller`] wraps the raw OS
//! facility directly through hand-declared FFI against the C library
//! that every Rust binary already links:
//!
//! * on Linux, `epoll_create1` / `epoll_ctl` / `epoll_wait` — O(ready)
//!   wakeups, the production path;
//! * on other unixes, POSIX `poll(2)` — O(registered) per wakeup, but
//!   portable and semantically identical at the sizes this repo runs.
//!
//! The module exists on unix only; the rest of this crate, and the
//! solver crates built on it, stay portable.
//!
//! The interface is deliberately tiny and level-triggered: register a
//! file descriptor with a `token` and read/write interest, [`wait`]
//! for [`Event`]s, re-arm by [`modify`]. Level triggering means a
//! caller that does not drain a socket simply sees it again on the
//! next wait — no edge-lost-wakeup class of bugs.
//!
//! [`wait`]: Poller::wait
//! [`modify`]: Poller::modify

use std::io;
use std::time::Duration;

/// A raw file descriptor.
pub type Fd = std::os::unix::io::RawFd;

/// Readiness interest for a registered descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the descriptor becomes readable (or a peer hangs up).
    pub read: bool,
    /// Wake when the descriptor becomes writable.
    pub write: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
    /// Write-only interest.
    pub const WRITE: Interest = Interest {
        read: false,
        write: true,
    };
    /// Read and write interest.
    pub const BOTH: Interest = Interest {
        read: true,
        write: true,
    };
}

/// One readiness event returned by [`Poller::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The token the descriptor was registered with.
    pub token: u64,
    /// The descriptor is readable (data, EOF, or an incoming connection).
    pub readable: bool,
    /// The descriptor is writable.
    pub writable: bool,
    /// The peer hung up or the descriptor is in an error state; the
    /// caller should read to completion and close.
    pub hangup: bool,
}

// ---------------------------------------------------------------------
// Linux: epoll
// ---------------------------------------------------------------------

#[cfg(target_os = "linux")]
mod sys {
    use super::{Event, Interest};
    use std::io;
    use std::time::Duration;

    // The kernel packs epoll_event on x86-64 only; other architectures
    // use natural alignment. Matching glibc's definition exactly is what
    // makes the raw syscalls safe.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLL_CLOEXEC: i32 = 0o2000000;

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    /// epoll-backed poller (see module docs).
    #[derive(Debug)]
    pub struct Poller {
        epfd: i32,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            // SAFETY: plain syscall, no pointers.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller { epfd })
        }

        fn ctl(&self, op: i32, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: mask(interest),
                data: token,
            };
            // SAFETY: `ev` outlives the call; the kernel copies it.
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn register(&mut self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        pub fn modify(&mut self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        pub fn deregister(&mut self, fd: i32) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, Interest::READ)
        }

        pub fn wait(
            &mut self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            events.clear();
            let mut buf = [EpollEvent { events: 0, data: 0 }; 64];
            let timeout_ms: i32 = match timeout {
                None => -1,
                Some(d) => d.as_millis().min(i32::MAX as u128) as i32,
            };
            // SAFETY: `buf` is a valid out-array of the declared length.
            let n =
                unsafe { epoll_wait(self.epfd, buf.as_mut_ptr(), buf.len() as i32, timeout_ms) };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(0);
                }
                return Err(e);
            }
            for raw in buf.iter().take(n as usize) {
                let bits = raw.events;
                events.push(Event {
                    token: raw.data,
                    readable: bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0,
                    writable: bits & EPOLLOUT != 0,
                    hangup: bits & (EPOLLHUP | EPOLLERR | EPOLLRDHUP) != 0,
                });
            }
            Ok(events.len())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: the fd is owned by this poller.
            unsafe { close(self.epfd) };
        }
    }

    fn mask(interest: Interest) -> u32 {
        let mut m = EPOLLRDHUP;
        if interest.read {
            m |= EPOLLIN;
        }
        if interest.write {
            m |= EPOLLOUT;
        }
        m
    }
}

// ---------------------------------------------------------------------
// Other unix: poll(2)
// ---------------------------------------------------------------------

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::{Event, Interest};
    use std::io;
    use std::time::Duration;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    // These constant values are shared by every unix this fallback can
    // compile on (POSIX reserves them identically on the BSDs/macOS).
    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;
    const POLLNVAL: i16 = 0x020;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u32, timeout: i32) -> i32;
    }

    /// poll(2)-backed poller (see module docs).
    #[derive(Debug)]
    pub struct Poller {
        fds: Vec<PollFd>,
        tokens: Vec<u64>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Ok(Poller {
                fds: Vec::new(),
                tokens: Vec::new(),
            })
        }

        fn position(&self, fd: i32) -> Option<usize> {
            self.fds.iter().position(|p| p.fd == fd)
        }

        pub fn register(&mut self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
            if self.position(fd).is_some() {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    "fd already registered",
                ));
            }
            self.fds.push(PollFd {
                fd,
                events: mask(interest),
                revents: 0,
            });
            self.tokens.push(token);
            Ok(())
        }

        pub fn modify(&mut self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
            let i = self
                .position(fd)
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))?;
            self.fds[i].events = mask(interest);
            self.tokens[i] = token;
            Ok(())
        }

        pub fn deregister(&mut self, fd: i32) -> io::Result<()> {
            let i = self
                .position(fd)
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))?;
            self.fds.swap_remove(i);
            self.tokens.swap_remove(i);
            Ok(())
        }

        pub fn wait(
            &mut self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            events.clear();
            let timeout_ms: i32 = match timeout {
                None => -1,
                Some(d) => d.as_millis().min(i32::MAX as u128) as i32,
            };
            // SAFETY: the slice is valid for the call's duration.
            let n = unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as u32, timeout_ms) };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(0);
                }
                return Err(e);
            }
            for (p, &token) in self.fds.iter().zip(&self.tokens) {
                let bits = p.revents;
                if bits == 0 {
                    continue;
                }
                events.push(Event {
                    token,
                    readable: bits & (POLLIN | POLLHUP | POLLERR | POLLNVAL) != 0,
                    writable: bits & POLLOUT != 0,
                    hangup: bits & (POLLHUP | POLLERR | POLLNVAL) != 0,
                });
            }
            Ok(events.len())
        }
    }

    fn mask(interest: Interest) -> i16 {
        let mut m = 0;
        if interest.read {
            m |= POLLIN;
        }
        if interest.write {
            m |= POLLOUT;
        }
        m
    }
}

/// A readiness poller over raw file descriptors (see module docs).
///
/// Not `Sync`: a poller belongs to the one reactor thread that waits on
/// it. Cross-thread wakeups are done by registering one end of a
/// socketpair/pipe and writing a byte from the other thread.
#[derive(Debug)]
pub struct Poller {
    inner: sys::Poller,
}

impl Poller {
    /// Creates a poller.
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            inner: sys::Poller::new()?,
        })
    }

    /// Registers `fd` under `token` with the given interest. The caller
    /// keeps ownership of the descriptor and must [`deregister`] it
    /// before closing it.
    ///
    /// [`deregister`]: Poller::deregister
    pub fn register(&mut self, fd: Fd, token: u64, interest: Interest) -> io::Result<()> {
        self.inner.register(fd, token, interest)
    }

    /// Replaces the token and interest of a registered descriptor.
    pub fn modify(&mut self, fd: Fd, token: u64, interest: Interest) -> io::Result<()> {
        self.inner.modify(fd, token, interest)
    }

    /// Removes a descriptor from the poller.
    pub fn deregister(&mut self, fd: Fd) -> io::Result<()> {
        self.inner.deregister(fd)
    }

    /// Blocks until at least one registered descriptor is ready, the
    /// timeout elapses (`Ok(0)`), or a signal interrupts the wait
    /// (`Ok(0)` — callers re-check their own state and wait again).
    /// Ready descriptors are appended to `events` (cleared first).
    pub fn wait(
        &mut self,
        events: &mut Vec<Event>,
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        self.inner.wait(events, timeout)
    }
}

/// Blocks until `fd` becomes readable (or its peer hangs up), the
/// `timeout` elapses, or `stop` is observed set. Returns `Ok(true)`
/// when the descriptor is ready, `Ok(false)` on timeout or stop.
///
/// A one-shot convenience over [`Poller`] for blocking callers that
/// need a *cancellable* wait without joining a long-lived event loop —
/// the `cgra-router` uses it while waiting for a shard's response, so a
/// router shutdown (or a per-request deadline) interrupts the wait at
/// `tick` granularity instead of pinning the connection thread on a
/// dead upstream.
pub fn wait_readable(
    fd: Fd,
    timeout: Option<Duration>,
    stop: &std::sync::atomic::AtomicBool,
    tick: Duration,
) -> io::Result<bool> {
    let mut poller = Poller::new()?;
    poller.register(fd, 0, Interest::READ)?;
    let deadline = timeout.map(|t| std::time::Instant::now() + t);
    let tick = tick.max(Duration::from_millis(1));
    let mut events = Vec::new();
    loop {
        if stop.load(std::sync::atomic::Ordering::SeqCst) {
            return Ok(false);
        }
        let wait = match deadline {
            Some(d) => {
                let left = d.saturating_duration_since(std::time::Instant::now());
                if left.is_zero() {
                    return Ok(false);
                }
                left.min(tick)
            }
            None => tick,
        };
        poller.wait(&mut events, Some(wait))?;
        if events
            .iter()
            .any(|e| e.token == 0 && (e.readable || e.hangup))
        {
            return Ok(true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::time::Duration;

    #[test]
    fn socketpair_readability_roundtrip() {
        let (mut a, mut b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        let mut poller = Poller::new().unwrap();
        poller.register(a.as_raw_fd(), 7, Interest::READ).unwrap();

        // Nothing pending: a zero timeout returns no events.
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(0)))
            .unwrap();
        assert!(events.iter().all(|e| e.token != 7 || !e.readable));

        // A byte from the far side wakes the registered token.
        b.write_all(&[42]).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        let ev = events.iter().find(|e| e.token == 7).expect("woke on data");
        assert!(ev.readable);
        let mut byte = [0u8; 1];
        a.read_exact(&mut byte).unwrap();
        assert_eq!(byte[0], 42);
        poller.deregister(a.as_raw_fd()).unwrap();
    }

    #[test]
    fn write_interest_and_modify() {
        let (a, _b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        let mut poller = Poller::new().unwrap();
        // An idle socket is immediately writable.
        poller.register(a.as_raw_fd(), 1, Interest::WRITE).unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.writable));

        // After dropping write interest the socket goes quiet.
        poller.modify(a.as_raw_fd(), 1, Interest::READ).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(!events.iter().any(|e| e.writable && e.token == 1));
        poller.deregister(a.as_raw_fd()).unwrap();
    }

    #[test]
    fn wait_readable_sees_data_timeout_and_stop() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let (a, mut b) = UnixStream::pair().unwrap();
        let stop = AtomicBool::new(false);
        // Nothing pending: a short timeout elapses as not-ready.
        let ready = wait_readable(
            a.as_raw_fd(),
            Some(Duration::from_millis(20)),
            &stop,
            Duration::from_millis(5),
        )
        .unwrap();
        assert!(!ready);
        // A byte makes the wait return ready.
        b.write_all(&[1]).unwrap();
        let ready = wait_readable(
            a.as_raw_fd(),
            Some(Duration::from_secs(5)),
            &stop,
            Duration::from_millis(5),
        )
        .unwrap();
        assert!(ready);
        // A set stop flag wins over an indefinite wait.
        let mut drain = [0u8; 1];
        (&a).read_exact(&mut drain).unwrap();
        stop.store(true, Ordering::SeqCst);
        let ready = wait_readable(a.as_raw_fd(), None, &stop, Duration::from_millis(5)).unwrap();
        assert!(!ready);
    }

    #[test]
    fn hangup_is_reported() {
        let (a, b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        let mut poller = Poller::new().unwrap();
        poller.register(a.as_raw_fd(), 3, Interest::READ).unwrap();
        drop(b);
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        let ev = events.iter().find(|e| e.token == 3).expect("hangup wakes");
        assert!(ev.readable, "EOF must read as readable");
        poller.deregister(a.as_raw_fd()).unwrap();
    }
}
