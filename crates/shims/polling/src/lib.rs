//! Minimal stand-in for the `polling` crate (offline build).
//!
//! Implements exactly what the workspace's reactor transport uses: a
//! [`Poller`] that watches raw file descriptors for read/write
//! readiness, reports them as key-tagged [`Event`]s from a blocking
//! [`Poller::wait`], and can be woken from any thread with
//! [`Poller::notify`].
//!
//! * **Linux** — a real `epoll(7)` instance via raw FFI
//!   (`epoll_create1` / `epoll_ctl` / `epoll_wait`), level-triggered,
//!   with an `eventfd(2)` registered for cross-thread wakeups.
//! * **Other unix** — a `poll(2)` fallback over a registration table,
//!   with a self-pipe for wakeups. Same semantics, O(fds) per wait.
//!
//! Registrations are level-triggered everywhere: a readable fd keeps
//! reporting until drained, so callers never lose a partial frame to a
//! missed edge.
//!
//! One addition the published crate does not have: [`readable_now`], a
//! zero-timeout `poll(2)` of a single descriptor, for callers that own
//! a blocking socket and only need to ask "is anything there?" without
//! registering it anywhere.

#![warn(missing_docs)]

use std::io;
use std::time::Duration;

/// Readiness of one registered descriptor, tagged with the caller's key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// The key the descriptor was registered under.
    pub key: usize,
    /// The descriptor has bytes to read (or a pending accept / EOF).
    pub readable: bool,
    /// The descriptor can accept more bytes.
    pub writable: bool,
}

/// Key reserved for the internal wakeup descriptor; never reported.
const NOTIFY_KEY: usize = usize::MAX;

mod poll2 {
    //! Raw `poll(2)` FFI (every unix): the one-shot probe, and the
    //! non-Linux poller's wait.
    use std::ffi::{c_int, c_ulong};

    pub const POLLIN: i16 = 0x001;

    #[repr(C)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: i16,
        pub revents: i16,
    }

    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }
}

/// Whether `fd` has bytes to read, a pending EOF or an error **right
/// now** — one zero-timeout `poll(2)`, no registration, never blocks.
pub fn readable_now(fd: i32) -> io::Result<bool> {
    loop {
        let mut pfd = poll2::PollFd {
            fd,
            events: poll2::POLLIN,
            revents: 0,
        };
        // SAFETY: `pfd` is one live `#[repr(C)]` pollfd and nfds is 1;
        // the kernel writes only its `revents`.
        let rc = unsafe { poll2::poll(&mut pfd, 1, 0) };
        if rc >= 0 {
            // Errors and hangups count as readable, as in `Poller::wait`:
            // the caller's next read observes the actual error/EOF.
            return Ok(rc > 0);
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
}

#[cfg(target_os = "linux")]
mod sys {
    //! Raw epoll + eventfd FFI (Linux).
    use std::ffi::{c_int, c_void};

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EFD_CLOEXEC: c_int = 0o2000000;
    pub const EFD_NONBLOCK: c_int = 0o0004000;

    /// `struct epoll_event`: packed on x86-64 (the kernel ABI), naturally
    /// aligned elsewhere — mirrors libc's per-arch definition.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn eventfd(initval: u32, flags: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        pub fn close(fd: c_int) -> c_int;
    }
}

/// Readiness poller over raw file descriptors. See the module docs for
/// the per-platform backing.
#[derive(Debug)]
pub struct Poller {
    #[cfg(target_os = "linux")]
    epfd: i32,
    #[cfg(target_os = "linux")]
    eventfd: i32,
    #[cfg(not(target_os = "linux"))]
    fallback: fallback::PollTable,
}

// SAFETY: the poller only holds kernel descriptors; every syscall on
// them is thread-safe (epoll_ctl/epoll_wait may race freely).
unsafe impl Send for Poller {}
unsafe impl Sync for Poller {}

#[cfg(target_os = "linux")]
impl Poller {
    /// Create an epoll instance with its wakeup eventfd registered.
    pub fn new() -> io::Result<Poller> {
        // SAFETY: no pointers cross this call; it returns a fresh fd.
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: no pointers cross this call; it returns a fresh fd.
        let efd = unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) };
        if efd < 0 {
            let e = io::Error::last_os_error();
            // SAFETY: epfd was just created above and is owned here.
            unsafe { sys::close(epfd) };
            return Err(e);
        }
        let poller = Poller { epfd, eventfd: efd };
        poller.ctl(sys::EPOLL_CTL_ADD, efd, NOTIFY_KEY, true, false)?;
        Ok(poller)
    }

    fn ctl(&self, op: i32, fd: i32, key: usize, readable: bool, writable: bool) -> io::Result<()> {
        let mut events = 0u32;
        if readable {
            events |= sys::EPOLLIN;
        }
        if writable {
            events |= sys::EPOLLOUT;
        }
        let mut ev = sys::EpollEvent {
            events,
            data: key as u64,
        };
        // SAFETY: `ev` is a live `#[repr(C)]` EpollEvent; the kernel
        // reads it within this call only.
        let rc = unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Register `fd` under `key` with the given interest.
    pub fn add(&self, fd: i32, key: usize, readable: bool, writable: bool) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, key, readable, writable)
    }

    /// Change the interest set of a registered `fd`.
    pub fn modify(&self, fd: i32, key: usize, readable: bool, writable: bool) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, key, readable, writable)
    }

    /// Remove `fd` from the poller (must happen before the fd closes).
    pub fn delete(&self, fd: i32) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_DEL, fd, 0, false, false)
    }

    /// Block until at least one registered fd is ready, `timeout`
    /// expires (`None` = forever), or [`Poller::notify`] is called.
    /// Ready events are appended to `events`; returns how many.
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        let ms: i32 = match timeout {
            None => -1,
            Some(t) => t.as_millis().min(i32::MAX as u128) as i32,
        };
        let mut raw = [sys::EpollEvent { events: 0, data: 0 }; 256];
        let n = loop {
            // SAFETY: `raw` holds 256 `#[repr(C)]` events and 256 is
            // the maxevents passed; the kernel writes only within it.
            let rc = unsafe { sys::epoll_wait(self.epfd, raw.as_mut_ptr(), 256, ms) };
            if rc >= 0 {
                break rc as usize;
            }
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        };
        let mut pushed = 0;
        for ev in &raw[..n] {
            let key = ev.data as usize;
            let bits = ev.events;
            if key == NOTIFY_KEY {
                // Drain the eventfd so the next wait blocks again.
                let mut buf = 0u64;
                // SAFETY: reads exactly 8 bytes into a live u64 — the
                // eventfd counter width.
                unsafe {
                    sys::read(self.eventfd, &mut buf as *mut u64 as *mut _, 8);
                }
                continue;
            }
            // Errors and hangups surface as readability: the caller's
            // next read observes the actual error/EOF.
            let err = bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0;
            events.push(Event {
                key,
                readable: bits & sys::EPOLLIN != 0 || err,
                writable: bits & sys::EPOLLOUT != 0 || err,
            });
            pushed += 1;
        }
        Ok(pushed)
    }

    /// Wake a concurrent [`Poller::wait`] from any thread.
    pub fn notify(&self) -> io::Result<()> {
        let one = 1u64;
        // SAFETY: writes exactly the 8 live bytes of `one`.
        let rc = unsafe { sys::write(self.eventfd, &one as *const u64 as *const _, 8) };
        // A full eventfd counter still wakes the waiter; ignore EAGAIN.
        if rc < 0 {
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::WouldBlock {
                return Err(e);
            }
        }
        Ok(())
    }
}

#[cfg(target_os = "linux")]
impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: both fds are owned by this Poller and closed once.
        unsafe {
            sys::close(self.eventfd);
            sys::close(self.epfd);
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod fallback {
    //! `poll(2)` fallback for non-Linux unix: a registration table
    //! rebuilt into a pollfd array per wait, plus a self-pipe wakeup.
    use super::poll2::{poll, PollFd, POLLIN};
    use super::{Event, NOTIFY_KEY};
    use std::collections::HashMap;
    use std::ffi::{c_int, c_ulong, c_void};
    use std::io;
    use std::sync::Mutex;
    use std::time::Duration;

    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    extern "C" {
        fn pipe(fds: *mut c_int) -> c_int;
        fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
        fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        fn close(fd: c_int) -> c_int;
    }

    #[derive(Debug)]
    pub struct PollTable {
        regs: Mutex<HashMap<i32, (usize, bool, bool)>>,
        pipe_r: i32,
        pipe_w: i32,
    }

    impl PollTable {
        pub fn new() -> io::Result<PollTable> {
            let mut fds = [0 as c_int; 2];
            // SAFETY: `fds` is a live 2-slot c_int array, exactly what
            // pipe(2) writes.
            if unsafe { pipe(fds.as_mut_ptr()) } < 0 {
                return Err(io::Error::last_os_error());
            }
            // O_NONBLOCK on both ends (F_SETFL = 4, O_NONBLOCK = 4 on
            // the BSDs/macOS this fallback targets).
            // SAFETY: no pointers cross fcntl with integer args.
            unsafe {
                fcntl(fds[0], 4, 4);
                fcntl(fds[1], 4, 4);
            }
            Ok(PollTable {
                regs: Mutex::new(HashMap::new()),
                pipe_r: fds[0],
                pipe_w: fds[1],
            })
        }

        pub fn set(&self, fd: i32, key: usize, readable: bool, writable: bool) {
            self.regs
                .lock()
                .unwrap()
                .insert(fd, (key, readable, writable));
        }

        pub fn delete(&self, fd: i32) {
            self.regs.lock().unwrap().remove(&fd);
        }

        pub fn wait(
            &self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            let mut fds: Vec<PollFd> = vec![PollFd {
                fd: self.pipe_r,
                events: POLLIN,
                revents: 0,
            }];
            let mut keys: Vec<usize> = vec![NOTIFY_KEY];
            for (&fd, &(key, r, w)) in self.regs.lock().unwrap().iter() {
                let mut ev = 0i16;
                if r {
                    ev |= POLLIN;
                }
                if w {
                    ev |= POLLOUT;
                }
                fds.push(PollFd {
                    fd,
                    events: ev,
                    revents: 0,
                });
                keys.push(key);
            }
            let ms: c_int = match timeout {
                None => -1,
                Some(t) => t.as_millis().min(c_int::MAX as u128) as c_int,
            };
            // SAFETY: `fds` is a live Vec of `#[repr(C)]` PollFd and the
            // nfds passed is its exact length.
            let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, ms) };
            if rc < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(0);
                }
                return Err(e);
            }
            let mut pushed = 0;
            for (i, pfd) in fds.iter().enumerate() {
                if pfd.revents == 0 {
                    continue;
                }
                if keys[i] == NOTIFY_KEY {
                    let mut buf = [0u8; 64];
                    // SAFETY: reads at most 64 bytes into a live
                    // 64-byte buffer.
                    unsafe {
                        read(self.pipe_r, buf.as_mut_ptr() as *mut _, 64);
                    }
                    continue;
                }
                let err = pfd.revents & (POLLERR | POLLHUP) != 0;
                events.push(Event {
                    key: keys[i],
                    readable: pfd.revents & POLLIN != 0 || err,
                    writable: pfd.revents & POLLOUT != 0 || err,
                });
                pushed += 1;
            }
            Ok(pushed)
        }

        pub fn notify(&self) -> io::Result<()> {
            let one = [1u8];
            // SAFETY: writes exactly the 1 live byte of `one`.
            unsafe {
                write(self.pipe_w, one.as_ptr() as *const _, 1);
            }
            Ok(())
        }
    }

    impl Drop for PollTable {
        fn drop(&mut self) {
            // SAFETY: both pipe fds are owned here and closed once.
            unsafe {
                close(self.pipe_r);
                close(self.pipe_w);
            }
        }
    }
}

#[cfg(not(target_os = "linux"))]
impl Poller {
    /// Create a `poll(2)`-backed poller with its wakeup pipe.
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            fallback: fallback::PollTable::new()?,
        })
    }

    /// Register `fd` under `key` with the given interest.
    pub fn add(&self, fd: i32, key: usize, readable: bool, writable: bool) -> io::Result<()> {
        self.fallback.set(fd, key, readable, writable);
        Ok(())
    }

    /// Change the interest set of a registered `fd`.
    pub fn modify(&self, fd: i32, key: usize, readable: bool, writable: bool) -> io::Result<()> {
        self.fallback.set(fd, key, readable, writable);
        Ok(())
    }

    /// Remove `fd` from the poller (must happen before the fd closes).
    pub fn delete(&self, fd: i32) -> io::Result<()> {
        self.fallback.delete(fd);
        Ok(())
    }

    /// Block until readiness, timeout, or [`Poller::notify`].
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        self.fallback.wait(events, timeout)
    }

    /// Wake a concurrent [`Poller::wait`] from any thread.
    pub fn notify(&self) -> io::Result<()> {
        self.fallback.notify()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;
    use std::time::Instant;

    #[test]
    fn reports_readable_when_bytes_arrive() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller.add(server.as_raw_fd(), 7, true, false).unwrap();

        let mut events = Vec::new();
        // Nothing to read yet: a short wait times out empty.
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert_eq!(n, 0, "{events:?}");

        client.write_all(b"ping").unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].key, 7);
        assert!(events[0].readable);

        // Level-triggered: still readable until drained.
        events.clear();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(100)))
            .unwrap();
        assert_eq!(n, 1, "undrained fd must keep reporting");
        let mut buf = [0u8; 16];
        let mut srv = &server;
        assert_eq!(srv.read(&mut buf).unwrap(), 4);

        events.clear();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert_eq!(n, 0, "drained fd is quiet");
        poller.delete(server.as_raw_fd()).unwrap();
    }

    #[test]
    fn writable_interest_and_modify() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let _server = listener.accept().unwrap();
        client.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        // Read-only interest on an idle socket: quiet.
        poller.add(client.as_raw_fd(), 3, true, false).unwrap();
        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert_eq!(n, 0);
        // Adding write interest: an empty socket buffer is writable now.
        poller.modify(client.as_raw_fd(), 3, true, true).unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        assert!(events[0].writable);
    }

    #[test]
    fn notify_wakes_a_blocked_wait() {
        let poller = std::sync::Arc::new(Poller::new().unwrap());
        let p2 = std::sync::Arc::clone(&poller);
        let waker = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            p2.notify().unwrap();
        });
        let mut events = Vec::new();
        let start = Instant::now();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(30)))
            .unwrap();
        assert_eq!(n, 0, "the wakeup itself is not an event");
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "notify must cut the wait short"
        );
        waker.join().unwrap();
    }

    #[test]
    fn readable_now_sees_bytes_and_eof_without_blocking() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        // A blocking socket with nothing on it: quiet, and at once.
        let start = Instant::now();
        assert!(!readable_now(server.as_raw_fd()).unwrap());
        assert!(start.elapsed() < Duration::from_secs(1));

        client.write_all(b"ping").unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while !readable_now(server.as_raw_fd()).unwrap() {
            assert!(Instant::now() < deadline, "bytes never became readable");
            std::thread::yield_now();
        }
        let mut buf = [0u8; 4];
        server.read_exact(&mut buf).unwrap();
        assert!(!readable_now(server.as_raw_fd()).unwrap(), "drained");

        drop(client); // EOF counts as readable: the next read returns 0
        while !readable_now(server.as_raw_fd()).unwrap() {
            assert!(Instant::now() < deadline, "EOF never became readable");
            std::thread::yield_now();
        }
        assert_eq!(server.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn closed_peer_reports_readable_for_eof() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller.add(server.as_raw_fd(), 1, true, false).unwrap();
        drop(client); // peer closes: EOF must surface as readability
        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(n >= 1);
        assert!(events.iter().any(|e| e.key == 1 && e.readable));
    }
}
