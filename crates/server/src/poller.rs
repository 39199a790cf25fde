//! A minimal readiness poller over `epoll(7)` plus an `eventfd(2)`
//! waker — the only OS-specific corner of the serving layer.
//!
//! The repo takes no external dependencies, so instead of a `libc` or
//! `mio` crate this module declares the five syscall entry points it
//! needs directly; std already links the C library, so the symbols
//! resolve with nothing added. All `unsafe` in `pc-server` lives here,
//! behind four safe types:
//!
//! * [`Poller`] — an epoll instance: register interest in a file
//!   descriptor under a caller-chosen 64-bit token, then [`Poller::wait`]
//!   for batches of [`Event`]s.
//! * [`Waker`] — an eventfd registered alongside the sockets, so shard
//!   reply threads can interrupt a blocked `wait` from outside.
//! * [`Interest`] — which readiness edges a registration cares about
//!   (readable, writable, or both).
//! * [`Event`] — one readiness notification: the token back, plus
//!   readable/writable/error flags.
//!
//! The poller is level-triggered: a socket with unread bytes (or spare
//! send-buffer space, when writable interest is armed) reports ready on
//! every `wait` until the condition clears. The event loop in
//! `server.rs` leans on this — it only arms writable interest while a
//! connection's write queue is non-empty, so idle connections cost one
//! registration and no wakeups.
//!
//! On non-Linux hosts the module compiles to a stub whose constructor
//! returns [`std::io::ErrorKind::Unsupported`], and `Server::run`
//! returns that error: the TCP daemon is Linux-only, while the rest of
//! the crate (the in-process cluster included) still builds and runs
//! there without a `cfg` spread.

#[cfg(target_os = "linux")]
pub use imp::{Poller, Waker};

#[cfg(all(test, target_os = "linux"))]
pub(crate) use imp::set_send_buffer;

#[cfg(not(target_os = "linux"))]
pub use fallback::{Poller, Waker};

/// Readiness edges a registration subscribes to.
///
/// Error/hangup conditions are always reported regardless of interest,
/// matching epoll semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interest {
    /// Wake when the fd has bytes to read (or the peer closed).
    Readable,
    /// Wake when the fd can accept writes without blocking.
    Writable,
    /// Wake on either condition.
    Both,
}

/// One readiness notification out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    /// The fd has bytes to read, or the peer half-closed.
    pub readable: bool,
    /// The fd's send buffer has room.
    pub writable: bool,
    /// Error or hangup: the connection is dead either way, and the
    /// owner should read to collect the error and then close.
    pub error: bool,
}

#[cfg(target_os = "linux")]
mod imp {
    use super::{Event, Interest};
    use std::io;
    use std::os::fd::RawFd;
    use std::os::raw::{c_int, c_uint, c_void};

    // epoll_ctl ops.
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    // Event mask bits.
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    // Creation flags.
    const EPOLL_CLOEXEC: c_int = 0x80000;
    const EFD_CLOEXEC: c_int = 0x80000;
    const EFD_NONBLOCK: c_int = 0x800;
    // setsockopt(SOL_SOCKET, SO_SNDBUF), for the partial-write tests.
    #[cfg(test)]
    const SOL_SOCKET: c_int = 1;
    #[cfg(test)]
    const SO_SNDBUF: c_int = 7;

    /// The kernel's `struct epoll_event`. On x86-64 the kernel packs it
    /// (12 bytes); elsewhere natural alignment applies.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn eventfd(initval: c_uint, flags: c_int) -> c_int;
        fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        fn close(fd: c_int) -> c_int;
        #[cfg(test)]
        fn setsockopt(
            fd: c_int,
            level: c_int,
            optname: c_int,
            optval: *const c_void,
            optlen: u32,
        ) -> c_int;
    }

    fn cvt(ret: c_int) -> io::Result<c_int> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    fn mask_of(interest: Interest) -> u32 {
        let base = EPOLLRDHUP;
        match interest {
            Interest::Readable => base | EPOLLIN,
            Interest::Writable => base | EPOLLOUT,
            Interest::Both => base | EPOLLIN | EPOLLOUT,
        }
    }

    /// A level-triggered epoll instance.
    #[derive(Debug)]
    pub struct Poller {
        epfd: RawFd,
    }

    impl Poller {
        /// Creates a fresh epoll instance (close-on-exec).
        pub fn new() -> io::Result<Poller> {
            let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            Ok(Poller { epfd })
        }

        /// Registers `fd` under `token` with the given interest.
        ///
        /// The caller keeps ownership of the fd and must [`deregister`]
        /// (or close the fd) before reusing the token.
        ///
        /// [`deregister`]: Poller::deregister
        pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: mask_of(interest),
                data: token,
            };
            cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_ADD, fd, &mut ev) })?;
            Ok(())
        }

        /// Changes the interest set of an already-registered fd.
        pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: mask_of(interest),
                data: token,
            };
            cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_MOD, fd, &mut ev) })?;
            Ok(())
        }

        /// Removes an fd from the interest set. Harmless if the fd was
        /// already closed (the kernel auto-removes on final close).
        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            // A null event pointer is fine for DEL on any kernel >= 2.6.9.
            cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, std::ptr::null_mut()) })?;
            Ok(())
        }

        /// Blocks until at least one registered fd is ready or
        /// `timeout_ms` elapses (`None` = wait forever), appending
        /// ready [`Event`]s to `out`. Returns the number appended;
        /// `0` means the timeout fired. Spurious `EINTR` wakeups are
        /// absorbed and reported as a timeout so callers see a single
        /// "nothing ready" shape.
        pub fn wait(&self, out: &mut Vec<Event>, timeout_ms: Option<u32>) -> io::Result<usize> {
            const MAX_EVENTS: usize = 256;
            let mut raw = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
            let timeout = match timeout_ms {
                Some(ms) => ms.min(c_int::MAX as u32) as c_int,
                None => -1,
            };
            let n = match cvt(unsafe {
                epoll_wait(self.epfd, raw.as_mut_ptr(), MAX_EVENTS as c_int, timeout)
            }) {
                Ok(n) => n as usize,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
                Err(e) => return Err(e),
            };
            for ev in &raw[..n] {
                let bits = ev.events;
                out.push(Event {
                    token: ev.data,
                    readable: bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0,
                    writable: bits & EPOLLOUT != 0,
                    error: bits & (EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(n)
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe { close(self.epfd) };
        }
    }

    /// An eventfd that interrupts [`Poller::wait`] from another thread.
    ///
    /// Register its [`fd`] with readable interest under a reserved
    /// token; [`wake`] makes the next (or current) `wait` report that
    /// token readable, and [`drain`] resets it. The fd is nonblocking,
    /// so `drain` never stalls the event loop.
    ///
    /// [`fd`]: Waker::fd
    /// [`wake`]: Waker::wake
    /// [`drain`]: Waker::drain
    #[derive(Debug)]
    pub struct Waker {
        efd: RawFd,
    }

    impl Waker {
        /// Creates a fresh nonblocking eventfd.
        pub fn new() -> io::Result<Waker> {
            let efd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
            Ok(Waker { efd })
        }

        /// The fd to register with the poller.
        pub fn fd(&self) -> RawFd {
            self.efd
        }

        /// Makes the poller report this waker readable. Coalesces: any
        /// number of wakes before a drain produce one readiness.
        pub fn wake(&self) {
            let one: u64 = 1;
            // An EAGAIN here means the counter is already saturated —
            // the wakeup is pending regardless, so ignore the result.
            unsafe { write(self.efd, (&one as *const u64).cast(), 8) };
        }

        /// Consumes pending wakeups so level-triggered polling quiesces.
        pub fn drain(&self) {
            let mut buf: u64 = 0;
            unsafe { read(self.efd, (&mut buf as *mut u64).cast(), 8) };
        }
    }

    impl Drop for Waker {
        fn drop(&mut self) {
            unsafe { close(self.efd) };
        }
    }

    /// Shrinks (or grows) a socket's kernel send buffer.
    ///
    /// Test-facing: a tiny `SO_SNDBUF` forces partial writes, which is
    /// how the scatter-gather flush path gets exercised without a slow
    /// network. The kernel doubles the value for bookkeeping and
    /// clamps to its floor, so the effective size is "small", not
    /// exactly `bytes`.
    #[cfg(test)]
    pub fn set_send_buffer(fd: RawFd, bytes: usize) -> io::Result<()> {
        let val: c_int = bytes.min(c_int::MAX as usize) as c_int;
        cvt(unsafe {
            setsockopt(
                fd,
                SOL_SOCKET,
                SO_SNDBUF,
                (&val as *const c_int).cast(),
                std::mem::size_of::<c_int>() as u32,
            )
        })?;
        Ok(())
    }
}

#[cfg(not(target_os = "linux"))]
mod fallback {
    use super::{Event, Interest};
    use std::io;
    use std::os::fd::RawFd;

    fn unsupported() -> io::Error {
        io::Error::new(
            io::ErrorKind::Unsupported,
            "the pc-server TCP front-end needs epoll and runs on Linux only",
        )
    }

    /// Stub poller for non-Linux hosts: construction fails with
    /// [`io::ErrorKind::Unsupported`], which `Server::run` returns.
    #[derive(Debug)]
    pub struct Poller {}

    impl Poller {
        /// Always fails on this platform.
        pub fn new() -> io::Result<Poller> {
            Err(unsupported())
        }

        /// Unreachable (no instance can exist).
        pub fn register(&self, _fd: RawFd, _token: u64, _interest: Interest) -> io::Result<()> {
            Err(unsupported())
        }

        /// Unreachable (no instance can exist).
        pub fn modify(&self, _fd: RawFd, _token: u64, _interest: Interest) -> io::Result<()> {
            Err(unsupported())
        }

        /// Unreachable (no instance can exist).
        pub fn deregister(&self, _fd: RawFd) -> io::Result<()> {
            Err(unsupported())
        }

        /// Unreachable (no instance can exist).
        pub fn wait(&self, _out: &mut Vec<Event>, _timeout_ms: Option<u32>) -> io::Result<usize> {
            Err(unsupported())
        }
    }

    /// Stub waker for non-Linux hosts.
    #[derive(Debug)]
    pub struct Waker {}

    impl Waker {
        /// Always fails on this platform.
        pub fn new() -> io::Result<Waker> {
            Err(unsupported())
        }

        /// Unreachable (no instance can exist).
        pub fn fd(&self) -> RawFd {
            -1
        }

        /// Unreachable (no instance can exist).
        pub fn wake(&self) {}

        /// Unreachable (no instance can exist).
        pub fn drain(&self) {}
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    /// A loopback pair where one side has pending bytes: the poller
    /// must report it readable, and only it.
    #[test]
    fn reports_readable_only_when_bytes_are_pending() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller
            .register(server.as_raw_fd(), 7, Interest::Readable)
            .unwrap();

        let mut events = Vec::new();
        let n = poller.wait(&mut events, Some(0)).unwrap();
        assert_eq!(n, 0, "nothing sent yet, nothing ready");

        client.write_all(b"ping").unwrap();
        let n = poller.wait(&mut events, Some(1000)).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
        assert!(!events[0].error);
    }

    /// Level-triggered semantics: readiness repeats until the bytes are
    /// consumed, then quiesces.
    #[test]
    fn level_triggered_readiness_persists_until_drained() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        client.write_all(b"x").unwrap();

        let poller = Poller::new().unwrap();
        poller
            .register(server.as_raw_fd(), 1, Interest::Readable)
            .unwrap();

        let mut events = Vec::new();
        assert_eq!(poller.wait(&mut events, Some(1000)).unwrap(), 1);
        events.clear();
        assert_eq!(
            poller.wait(&mut events, Some(100)).unwrap(),
            1,
            "unconsumed bytes must re-report under level triggering"
        );
        let mut buf = [0u8; 8];
        let _ = server.read(&mut buf).unwrap();
        events.clear();
        assert_eq!(poller.wait(&mut events, Some(0)).unwrap(), 0);
    }

    /// Writable interest toggles via `modify`, and an idle socket's
    /// send buffer reports writable immediately.
    #[test]
    fn modify_toggles_writable_interest() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller
            .register(server.as_raw_fd(), 2, Interest::Readable)
            .unwrap();
        let mut events = Vec::new();
        assert_eq!(poller.wait(&mut events, Some(0)).unwrap(), 0);

        poller
            .modify(server.as_raw_fd(), 2, Interest::Both)
            .unwrap();
        assert_eq!(poller.wait(&mut events, Some(1000)).unwrap(), 1);
        assert!(events[0].writable);

        poller
            .modify(server.as_raw_fd(), 2, Interest::Readable)
            .unwrap();
        events.clear();
        assert_eq!(poller.wait(&mut events, Some(0)).unwrap(), 0);
    }

    /// The waker interrupts a wait from another thread, coalesces, and
    /// drains clean.
    #[test]
    fn waker_interrupts_and_coalesces() {
        let poller = Poller::new().unwrap();
        let waker = std::sync::Arc::new(Waker::new().unwrap());
        poller
            .register(waker.fd(), u64::MAX, Interest::Readable)
            .unwrap();

        let remote = waker.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(30));
            remote.wake();
            remote.wake(); // coalesces with the first
        });
        let mut events = Vec::new();
        let n = poller.wait(&mut events, Some(5000)).unwrap();
        t.join().unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, u64::MAX);
        waker.drain();
        events.clear();
        assert_eq!(
            poller.wait(&mut events, Some(0)).unwrap(),
            0,
            "a drained waker must quiesce"
        );
    }

    /// Peer hangup surfaces as readable (so the owner reads the EOF)
    /// with the error flag only when the close was abortive.
    #[test]
    fn peer_close_reports_readable() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller
            .register(server.as_raw_fd(), 3, Interest::Readable)
            .unwrap();
        drop(client);
        let mut events = Vec::new();
        assert_eq!(poller.wait(&mut events, Some(1000)).unwrap(), 1);
        assert!(events[0].readable, "EOF must look like a read event");
    }

    /// `set_send_buffer` takes effect: a shrunken buffer fills after a
    /// bounded number of nonblocking writes against a non-reading peer.
    #[test]
    fn tiny_send_buffer_forces_partial_writes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        set_send_buffer(server.as_raw_fd(), 4096).unwrap();
        server.set_nonblocking(true).unwrap();

        let chunk = vec![0u8; 64 * 1024];
        let mut wrote = 0usize;
        let mut blocked = false;
        for _ in 0..64 {
            match server.write(&chunk) {
                Ok(n) => wrote += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    blocked = true;
                    break;
                }
                Err(e) => panic!("unexpected write error: {e}"),
            }
        }
        assert!(blocked, "a tiny SO_SNDBUF must fill ({wrote} bytes fit)");
        assert!(wrote < 4 * 1024 * 1024, "buffer did not shrink: {wrote}");
    }
}
