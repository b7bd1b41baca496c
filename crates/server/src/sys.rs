//! Thin, dependency-free shim over the OS readiness API.
//!
//! The reactor needs exactly three things the standard library does not
//! expose: a blocking *wait for readiness on many sockets at once*, a
//! way for worker threads to interrupt that wait when a dispatched
//! response becomes ready (a self-pipe, built here from a nonblocking
//! `UnixStream` pair so only the wait itself needs FFI), and a couple
//! of socket knobs (`listen(2)` backlog, `SO_RCVBUF`) for the
//! 10k-connection gate. Everything is raw `extern "C"` against the C
//! library the standard library already links — no `libc` crate, no
//! async runtime.
//!
//! The wait has two backends behind one `PollSet` facade:
//!
//! - **Linux: `epoll(7)`.** `poll(2)` is O(registered fds) *in the
//!   kernel* on every call — at 10k parked keep-alive connections each
//!   wakeup costs tens of milliseconds, which is the whole latency
//!   budget. Epoll's registration is persistent, so a wakeup costs
//!   O(ready). The facade keeps the rebuild-per-tick calling
//!   convention and diffs it against an fd-indexed mirror of the
//!   kernel set; the mirror self-heals from close-and-reuse races via
//!   `EPOLL_CTL_MOD`⇄`ADD` fallbacks (connection tokens are never
//!   reused, so a stale mirror entry can never alias a new
//!   connection).
//! - **Other Unix: `poll(2)`.** Portable, no registration state; the
//!   set is rebuilt and handed to the kernel on every wait. Also
//!   compiled (and unit-tested) on Linux so the fallback cannot rot.
//!
//! `unsafe` in this crate is confined to this module: the FFI
//! declarations and the handful of call sites that hand the kernel a
//! pointer derived from a live Rust value.
//!
//! Non-Unix targets are not supported: the server needs one of these
//! readiness APIs, and such a build fails here with a message saying so.

#[cfg(not(unix))]
compile_error!("crowdweb-server requires a Unix readiness API (epoll(7) or poll(2))");

use std::time::Duration;

/// Readiness reported for one registered connection.
#[derive(Debug, Clone, Copy, Default)]
pub struct Readiness {
    /// Bytes (or EOF) can be read without blocking.
    pub readable: bool,
    /// The socket can accept more response bytes.
    pub writable: bool,
    /// The kernel flagged the descriptor dead (`POLLERR` / `POLLHUP` /
    /// `POLLNVAL`) — meaningful for sockets registered with no
    /// interest, where no read/write will surface the error.
    pub dead: bool,
}

/// What the caller wants to hear about for one connection.
#[derive(Debug, Clone, Copy)]
pub struct Interest {
    /// Wake when readable.
    pub read: bool,
    /// Wake when writable.
    pub write: bool,
}

/// Longest single park. Bounds how stale the loop's view of the
/// shutdown flag can get when nothing else wakes it (the shutdown
/// handle also pokes the listener, so this is a backstop, not the
/// primary wake path).
pub const MAX_PARK: Duration = Duration::from_secs(1);

// On Linux the poll backend is compiled but not selected (epoll is),
// so outside test builds its items are unused by design.
#[cfg_attr(target_os = "linux", allow(dead_code))]
mod imp {
    use super::{Interest, Readiness, MAX_PARK};
    use std::io::{self, Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::raw::c_int;
    use std::os::unix::io::{AsRawFd, RawFd};
    use std::os::unix::net::UnixStream;
    use std::sync::Arc;
    use std::time::Duration;

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;
    const POLLNVAL: i16 = 0x020;

    /// `struct pollfd` exactly as `poll(2)` expects it.
    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: i16,
        revents: i16,
    }

    // `nfds_t` is `unsigned long` on Linux and `unsigned int` on the
    // BSD family (macOS included).
    #[cfg(target_os = "linux")]
    type Nfds = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type Nfds = std::os::raw::c_uint;

    #[allow(unsafe_code)]
    mod ffi {
        use super::{c_int, Nfds, PollFd};
        extern "C" {
            pub fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
            pub fn listen(fd: c_int, backlog: c_int) -> c_int;
            pub fn setsockopt(
                fd: c_int,
                level: c_int,
                optname: c_int,
                optval: *const c_int,
                optlen: u32,
            ) -> c_int;
        }
    }

    /// A reusable set of descriptors to wait on. Slot 0 is the
    /// listener, slot 1 the waker; connections follow, with a parallel
    /// token array mapping poll slots back to reactor connections.
    pub struct PollSet {
        fds: Vec<PollFd>,
        tokens: Vec<u64>,
    }

    impl Default for PollSet {
        fn default() -> PollSet {
            PollSet::new()
        }
    }

    impl PollSet {
        /// An empty set; reuse one across wakeups to amortize the
        /// allocation.
        pub fn new() -> PollSet {
            PollSet {
                fds: Vec::new(),
                tokens: Vec::new(),
            }
        }

        /// Empties the set for re-registration (capacity retained).
        pub fn clear(&mut self) {
            self.fds.clear();
            self.tokens.clear();
        }

        /// Registers the accept socket; must be the first registration.
        pub fn register_listener(&mut self, listener: &TcpListener) {
            debug_assert!(self.fds.is_empty(), "listener registers first");
            self.fds.push(PollFd {
                fd: listener.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            });
        }

        /// Registers the self-pipe's read end; must be the second
        /// registration.
        pub fn register_waker(&mut self, waker: &WakeReceiver) {
            debug_assert_eq!(self.fds.len(), 1, "waker registers second");
            self.fds.push(PollFd {
                fd: waker.rx.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            });
        }

        /// Registers one connection under a caller-chosen token.
        pub fn register(&mut self, stream: &TcpStream, token: u64, interest: Interest) {
            let mut events = 0;
            if interest.read {
                events |= POLLIN;
            }
            if interest.write {
                events |= POLLOUT;
            }
            // events == 0 is still useful: the kernel reports
            // POLLERR/POLLHUP/POLLNVAL regardless of interest, which is
            // how dispatched connections learn their client vanished.
            self.fds.push(PollFd {
                fd: stream.as_raw_fd(),
                events,
                revents: 0,
            });
            self.tokens.push(token);
        }

        /// Blocks until something registered is ready or `timeout`
        /// elapses (`None` parks for [`MAX_PARK`]). Returns the number
        /// of ready descriptors (0 on timeout).
        pub fn wait(&mut self, timeout: Option<Duration>) -> io::Result<usize> {
            let timeout = timeout.unwrap_or(MAX_PARK).min(MAX_PARK);
            // Ceil to whole milliseconds: rounding down would turn a
            // 300 µs remainder into a zero-timeout spin at the tail of
            // every deadline.
            let ms: c_int = timeout
                .as_millis()
                .saturating_add(u128::from(
                    !timeout.subsec_nanos().is_multiple_of(1_000_000),
                ))
                .min(c_int::MAX as u128) as c_int;
            loop {
                // SAFETY: `fds` is a live, exclusively borrowed slice
                // of `repr(C)` pollfd structs; the kernel writes only
                // `revents` within its bounds.
                #[allow(unsafe_code)]
                let rc = unsafe { ffi::poll(self.fds.as_mut_ptr(), self.fds.len() as Nfds, ms) };
                if rc >= 0 {
                    return Ok(rc as usize);
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            }
        }

        /// Whether the last wait reported a pending accept.
        pub fn listener_ready(&self) -> bool {
            self.fds.first().is_some_and(|p| p.revents != 0)
        }

        /// Whether the last wait was interrupted by the self-pipe.
        pub fn waker_ready(&self) -> bool {
            self.fds.get(1).is_some_and(|p| p.revents != 0)
        }

        /// Tokens whose descriptors reported anything, with decoded
        /// readiness.
        pub fn ready(&self) -> impl Iterator<Item = (u64, Readiness)> + '_ {
            self.fds
                .iter()
                .skip(2)
                .zip(self.tokens.iter())
                .filter(|(p, _)| p.revents != 0)
                .map(|(p, &token)| {
                    (
                        token,
                        Readiness {
                            readable: p.revents & (POLLIN | POLLHUP | POLLERR) != 0,
                            writable: p.revents & (POLLOUT | POLLHUP | POLLERR) != 0,
                            dead: p.revents & (POLLERR | POLLHUP | POLLNVAL) != 0,
                        },
                    )
                })
        }
    }

    /// The write end of the self-pipe. Not `Clone`: every worker
    /// shares the one descriptor through an `Arc`, so handing a job its
    /// waker never costs a `dup(2)` and a `close(2)`.
    pub struct Waker {
        tx: UnixStream,
    }

    impl Waker {
        /// Nudges the event loop out of `poll`. A full pipe means a
        /// wake is already pending, so `WouldBlock` is success.
        pub fn wake(&self) {
            let _ = (&self.tx).write(&[1]);
        }
    }

    /// The read end of the self-pipe, owned by the event loop.
    pub struct WakeReceiver {
        rx: UnixStream,
    }

    impl WakeReceiver {
        /// Discards every pending wake byte.
        pub fn drain(&self) {
            let mut sink = [0u8; 64];
            while matches!((&self.rx).read(&mut sink), Ok(n) if n > 0) {}
        }

        /// The pipe's read descriptor, for the epoll backend.
        #[cfg(target_os = "linux")]
        pub(super) fn raw_fd(&self) -> RawFd {
            self.rx.as_raw_fd()
        }
    }

    /// A connected nonblocking self-pipe pair; the write end comes
    /// shared, ready to hand to every worker.
    pub fn wake_pair() -> io::Result<(Arc<Waker>, WakeReceiver)> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok((Arc::new(Waker { tx }), WakeReceiver { rx }))
    }

    /// Re-issues `listen(2)` with a deeper accept backlog than the
    /// standard library's default (128) — under a 10k-connection storm
    /// the SYN backlog overflows long before the event loop misbehaves.
    pub fn boost_listen_backlog(listener: &TcpListener, backlog: i32) {
        // SAFETY: plain syscall on a descriptor we own; no memory is
        // exchanged. Failure is harmless (the default backlog stands).
        #[allow(unsafe_code)]
        let _ = unsafe { ffi::listen(listener.as_raw_fd(), backlog) };
    }

    /// Shrinks a socket's receive buffer (`SO_RCVBUF`). Test harness
    /// lever: a tiny client-side window is the portable way to force
    /// the server into deferred (would-block) writes.
    pub fn set_recv_buffer(stream: &TcpStream, bytes: i32) -> io::Result<()> {
        #[cfg(target_os = "linux")]
        const SOL_SOCKET: c_int = 1;
        #[cfg(target_os = "linux")]
        const SO_RCVBUF: c_int = 8;
        #[cfg(not(target_os = "linux"))]
        const SOL_SOCKET: c_int = 0xffff;
        #[cfg(not(target_os = "linux"))]
        const SO_RCVBUF: c_int = 0x1002;
        set_opt(stream.as_raw_fd(), SOL_SOCKET, SO_RCVBUF, bytes)
    }

    fn set_opt(fd: RawFd, level: c_int, name: c_int, value: c_int) -> io::Result<()> {
        // SAFETY: passes a pointer to a stack-local c_int with its
        // exact size; the kernel only reads it.
        #[allow(unsafe_code)]
        let rc = unsafe {
            ffi::setsockopt(fd, level, name, &value, std::mem::size_of::<c_int>() as u32)
        };
        if rc == 0 {
            Ok(())
        } else {
            Err(io::Error::last_os_error())
        }
    }
}

#[cfg(target_os = "linux")]
mod epoll {
    use super::imp::WakeReceiver;
    use super::{Interest, Readiness, MAX_PARK};
    use std::io;
    use std::net::{TcpListener, TcpStream};
    use std::os::raw::c_int;
    use std::os::unix::io::{AsRawFd, RawFd};
    use std::time::Duration;

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLL_CLOEXEC: c_int = 0x8_0000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    /// Data words reserved for the two fixed sources. Connection tokens
    /// are a monotonically increasing counter starting at zero, so they
    /// can never collide with these.
    const TOKEN_LISTENER: u64 = u64::MAX;
    const TOKEN_WAKER: u64 = u64::MAX - 1;
    /// Readiness drained per wakeup. Epoll is level-triggered here, so
    /// anything beyond this many ready descriptors simply surfaces on
    /// the next wait.
    const MAX_EVENTS: usize = 1024;

    /// `struct epoll_event` as the kernel defines it — packed on
    /// x86-64 (a 32-bit-era ABI accident the kernel preserves).
    #[derive(Clone, Copy)]
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    #[allow(unsafe_code)]
    mod ffi {
        use super::{c_int, EpollEvent};
        extern "C" {
            pub fn epoll_create1(flags: c_int) -> c_int;
            pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
            pub fn epoll_wait(
                epfd: c_int,
                events: *mut EpollEvent,
                maxevents: c_int,
                timeout: c_int,
            ) -> c_int;
            pub fn close(fd: c_int) -> c_int;
        }
    }

    /// The epoll-backed [`PollSet`]: same rebuild-per-tick calling
    /// convention as the poll backend, but registrations persist in the
    /// kernel and each tick only issues `epoll_ctl` for the diff —
    /// wakeups are O(ready), not O(registered).
    pub struct PollSet {
        epfd: RawFd,
        /// Mirror of the kernel set, indexed by fd: `(token, events)`.
        reg: Vec<Option<(u64, u32)>>,
        /// Tick stamp per fd; an fd not re-registered by the current
        /// tick is stale and gets deregistered at the next wait.
        seen: Vec<u64>,
        /// Fds believed registered, so the stale sweep never scans the
        /// whole fd-indexed table.
        live: Vec<RawFd>,
        tick: u64,
        events: Vec<EpollEvent>,
        nready: usize,
        listener_hit: bool,
        waker_hit: bool,
    }

    impl Default for PollSet {
        fn default() -> PollSet {
            PollSet::new()
        }
    }

    impl PollSet {
        /// A fresh epoll instance; reuse one across wakeups.
        pub fn new() -> PollSet {
            // SAFETY: plain syscall; no memory is exchanged.
            #[allow(unsafe_code)]
            let epfd = unsafe { ffi::epoll_create1(EPOLL_CLOEXEC) };
            assert!(
                epfd >= 0,
                "epoll_create1 failed: {}",
                io::Error::last_os_error()
            );
            PollSet {
                epfd,
                reg: Vec::new(),
                seen: Vec::new(),
                live: Vec::new(),
                tick: 0,
                events: vec![EpollEvent { events: 0, data: 0 }; MAX_EVENTS],
                nready: 0,
                listener_hit: false,
                waker_hit: false,
            }
        }

        /// Starts a new registration tick. Nothing is torn down here:
        /// sources re-registered before the next [`PollSet::wait`] keep
        /// their kernel registration untouched.
        pub fn clear(&mut self) {
            self.tick += 1;
            self.nready = 0;
            self.listener_hit = false;
            self.waker_hit = false;
        }

        /// Registers the accept socket.
        pub fn register_listener(&mut self, listener: &TcpListener) {
            self.upsert(listener.as_raw_fd(), TOKEN_LISTENER, EPOLLIN);
        }

        /// Registers the self-pipe's read end.
        pub fn register_waker(&mut self, waker: &WakeReceiver) {
            self.upsert(waker.raw_fd(), TOKEN_WAKER, EPOLLIN);
        }

        /// Registers one connection under a caller-chosen token.
        pub fn register(&mut self, stream: &TcpStream, token: u64, interest: Interest) {
            let mut events = 0;
            if interest.read {
                events |= EPOLLIN;
            }
            if interest.write {
                events |= EPOLLOUT;
            }
            // events == 0 still reports EPOLLERR/EPOLLHUP — same
            // contract as the poll backend.
            self.upsert(stream.as_raw_fd(), token, events);
        }

        /// Brings the kernel set in line with one desired registration,
        /// issuing `epoll_ctl` only when the mirror disagrees.
        fn upsert(&mut self, fd: RawFd, token: u64, events: u32) {
            let idx = fd as usize;
            if self.reg.len() <= idx {
                self.reg.resize(idx + 1, None);
                self.seen.resize(idx + 1, 0);
            }
            self.seen[idx] = self.tick;
            match self.reg[idx] {
                Some((t, e)) if t == token && e == events => {}
                Some(_) => {
                    // The usual case is an interest change on a live
                    // connection. The fallback covers the fd having
                    // been closed and reused since the mirror entry was
                    // written (the kernel auto-removed it on close); a
                    // *same-token* reuse cannot happen because tokens
                    // are never reused.
                    if self.ctl(EPOLL_CTL_MOD, fd, token, events).is_err() {
                        let _ = self.ctl(EPOLL_CTL_ADD, fd, token, events);
                    }
                    self.reg[idx] = Some((token, events));
                }
                None => {
                    if self.ctl(EPOLL_CTL_ADD, fd, token, events).is_err() {
                        let _ = self.ctl(EPOLL_CTL_MOD, fd, token, events);
                    }
                    self.reg[idx] = Some((token, events));
                    self.live.push(fd);
                }
            }
        }

        fn ctl(&self, op: c_int, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
            let mut ev = EpollEvent {
                events,
                data: token,
            };
            // SAFETY: pointer to a live stack-local `repr(C)` struct;
            // the kernel only reads it.
            #[allow(unsafe_code)]
            let rc = unsafe { ffi::epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc == 0 {
                Ok(())
            } else {
                Err(io::Error::last_os_error())
            }
        }

        /// Blocks until something registered is ready or `timeout`
        /// elapses (`None` parks for [`MAX_PARK`]). Returns the number
        /// of ready descriptors (0 on timeout).
        pub fn wait(&mut self, timeout: Option<Duration>) -> io::Result<usize> {
            // Deregister everything not renewed this tick: those
            // connections were dropped. Closing an fd already removed
            // it from the kernel set, so a failing DEL is expected.
            let mut i = 0;
            while i < self.live.len() {
                let fd = self.live[i];
                if self.seen[fd as usize] == self.tick {
                    i += 1;
                    continue;
                }
                self.live.swap_remove(i);
                self.reg[fd as usize] = None;
                let _ = self.ctl(EPOLL_CTL_DEL, fd, 0, 0);
            }
            let timeout = timeout.unwrap_or(MAX_PARK).min(MAX_PARK);
            // Ceil to whole milliseconds: rounding down would turn a
            // sub-millisecond remainder into a zero-timeout spin at the
            // tail of every deadline.
            let ms: c_int = timeout
                .as_millis()
                .saturating_add(u128::from(
                    !timeout.subsec_nanos().is_multiple_of(1_000_000),
                ))
                .min(c_int::MAX as u128) as c_int;
            loop {
                // SAFETY: `events` is a live, exclusively borrowed
                // buffer of `MAX_EVENTS` `repr(C)` structs; the kernel
                // writes at most `maxevents` entries within its bounds.
                #[allow(unsafe_code)]
                let rc = unsafe {
                    ffi::epoll_wait(
                        self.epfd,
                        self.events.as_mut_ptr(),
                        self.events.len() as c_int,
                        ms,
                    )
                };
                if rc >= 0 {
                    self.nready = rc as usize;
                    self.listener_hit = false;
                    self.waker_hit = false;
                    for ev in &self.events[..self.nready] {
                        // By-value copy first: the struct may be packed,
                        // so the field cannot be borrowed in place.
                        let data = { ev.data };
                        match data {
                            TOKEN_LISTENER => self.listener_hit = true,
                            TOKEN_WAKER => self.waker_hit = true,
                            _ => {}
                        }
                    }
                    return Ok(self.nready);
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            }
        }

        /// Whether the last wait reported a pending accept.
        pub fn listener_ready(&self) -> bool {
            self.listener_hit
        }

        /// Whether the last wait was interrupted by the self-pipe.
        pub fn waker_ready(&self) -> bool {
            self.waker_hit
        }

        /// Tokens whose descriptors reported anything, with decoded
        /// readiness.
        pub fn ready(&self) -> impl Iterator<Item = (u64, Readiness)> + '_ {
            self.events[..self.nready].iter().filter_map(|ev| {
                let (data, events) = ({ ev.data }, { ev.events });
                if data == TOKEN_LISTENER || data == TOKEN_WAKER {
                    return None;
                }
                Some((
                    data,
                    Readiness {
                        readable: events & (EPOLLIN | EPOLLHUP | EPOLLERR) != 0,
                        writable: events & (EPOLLOUT | EPOLLHUP | EPOLLERR) != 0,
                        dead: events & (EPOLLERR | EPOLLHUP) != 0,
                    },
                ))
            })
        }
    }

    impl Drop for PollSet {
        fn drop(&mut self) {
            // SAFETY: closes a descriptor this struct owns exclusively.
            #[allow(unsafe_code)]
            let _ = unsafe { ffi::close(self.epfd) };
        }
    }
}

#[cfg(target_os = "linux")]
pub use epoll::PollSet;
#[cfg(not(target_os = "linux"))]
pub use imp::PollSet;
pub use imp::{boost_listen_backlog, set_recv_buffer, wake_pair, WakeReceiver, Waker};

/// Current soft limit on open file descriptors, when discoverable
/// (`/proc/self/limits`). Scaling harnesses use it to size connection
/// counts instead of discovering `EMFILE` the hard way.
pub fn open_file_limit() -> Option<u64> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
    line.split_whitespace().nth(3)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The readiness contract, generic over the backend: on Linux the
    /// facade resolves to epoll, so the suite runs once against it and
    /// once against the poll fallback to keep both honest.
    macro_rules! readiness_suite {
        ($name:ident, $set:ty) => {
            mod $name {
                use crate::sys::{wake_pair, Interest};
                use std::io::Write;
                use std::net::{TcpListener, TcpStream};
                use std::time::{Duration, Instant};

                #[test]
                fn reports_connected_socket_writable_immediately() {
                    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                    let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
                    let (_waker, wake_rx) = wake_pair().unwrap();
                    let mut set = <$set>::new();
                    set.clear();
                    set.register_listener(&listener);
                    set.register_waker(&wake_rx);
                    set.register(
                        &stream,
                        7,
                        Interest {
                            read: false,
                            write: true,
                        },
                    );
                    let n = set.wait(Some(Duration::from_secs(2))).unwrap();
                    assert!(n >= 1, "a fresh socket's send buffer is writable");
                    let ready: Vec<_> = set.ready().collect();
                    assert!(ready.iter().any(|&(t, r)| t == 7 && r.writable));
                }

                #[test]
                fn times_out_when_nothing_is_ready() {
                    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                    let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
                    let (_accepted, _) = listener.accept().unwrap();
                    let (_waker, wake_rx) = wake_pair().unwrap();
                    let mut set = <$set>::new();
                    set.clear();
                    set.register_listener(&listener);
                    set.register_waker(&wake_rx);
                    // Read interest on a silent socket: nothing arrives.
                    set.register(
                        &stream,
                        1,
                        Interest {
                            read: true,
                            write: false,
                        },
                    );
                    let started = Instant::now();
                    set.wait(Some(Duration::from_millis(60))).unwrap();
                    // The fallback implementation parks shorter than
                    // asked; the real ones must park at least roughly
                    // the timeout.
                    if cfg!(unix) {
                        assert!(
                            started.elapsed() >= Duration::from_millis(50),
                            "wait returned after {:?} without any readiness",
                            started.elapsed()
                        );
                        assert_eq!(set.ready().count(), 0);
                    }
                }

                #[test]
                fn waker_interrupts_a_blocking_wait() {
                    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                    let (waker, wake_rx) = wake_pair().unwrap();
                    let poker = std::thread::spawn(move || {
                        std::thread::sleep(Duration::from_millis(50));
                        waker.wake();
                    });
                    let mut set = <$set>::new();
                    set.clear();
                    set.register_listener(&listener);
                    set.register_waker(&wake_rx);
                    let started = Instant::now();
                    set.wait(Some(Duration::from_secs(5))).unwrap();
                    assert!(
                        started.elapsed() < Duration::from_secs(4),
                        "wake never interrupted the park"
                    );
                    if cfg!(unix) {
                        assert!(set.waker_ready());
                    }
                    wake_rx.drain();
                    poker.join().unwrap();
                }

                #[test]
                fn listener_readiness_fires_on_pending_accept() {
                    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                    let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
                    let (_waker, wake_rx) = wake_pair().unwrap();
                    let mut set = <$set>::new();
                    set.clear();
                    set.register_listener(&listener);
                    set.register_waker(&wake_rx);
                    set.wait(Some(Duration::from_secs(2))).unwrap();
                    assert!(set.listener_ready());
                }

                #[test]
                fn readable_socket_reports_readable() {
                    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                    let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
                    let (server_side, _) = listener.accept().unwrap();
                    client.write_all(b"ping").unwrap();
                    client.flush().unwrap();
                    let (_waker, wake_rx) = wake_pair().unwrap();
                    let mut set = <$set>::new();
                    set.clear();
                    set.register_listener(&listener);
                    set.register_waker(&wake_rx);
                    set.register(
                        &server_side,
                        3,
                        Interest {
                            read: true,
                            write: false,
                        },
                    );
                    set.wait(Some(Duration::from_secs(2))).unwrap();
                    let ready: Vec<_> = set.ready().collect();
                    assert!(ready.iter().any(|&(t, r)| t == 3 && r.readable));
                }

                #[test]
                fn dropped_connection_is_forgotten_on_the_next_tick() {
                    // Register a connection, then re-register without it
                    // (the reactor's way of saying "closed"): its
                    // readiness must stop being reported even though the
                    // socket still exists client-side.
                    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                    let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
                    let (server_side, _) = listener.accept().unwrap();
                    client.write_all(b"ping").unwrap();
                    let (_waker, wake_rx) = wake_pair().unwrap();
                    let mut set = <$set>::new();
                    set.clear();
                    set.register_listener(&listener);
                    set.register_waker(&wake_rx);
                    set.register(
                        &server_side,
                        5,
                        Interest {
                            read: true,
                            write: false,
                        },
                    );
                    set.wait(Some(Duration::from_secs(2))).unwrap();
                    assert!(set.ready().any(|(t, r)| t == 5 && r.readable));
                    set.clear();
                    set.register_listener(&listener);
                    set.register_waker(&wake_rx);
                    set.wait(Some(Duration::from_millis(20))).unwrap();
                    assert_eq!(
                        set.ready().count(),
                        0,
                        "a deregistered connection must not surface readiness"
                    );
                }
            }
        };
    }

    readiness_suite!(facade, crate::sys::PollSet);
    #[cfg(target_os = "linux")]
    readiness_suite!(portable_poll, crate::sys::imp::PollSet);

    #[test]
    fn open_file_limit_is_discoverable_on_linux() {
        if cfg!(target_os = "linux") {
            let limit = open_file_limit().expect("/proc/self/limits parses");
            assert!(limit >= 64, "implausible fd limit {limit}");
        }
    }
}
