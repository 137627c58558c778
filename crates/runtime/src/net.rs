//! Readiness polling for nonblocking sockets — the event-loop substrate
//! of cp-serve.
//!
//! [`Poller`] has two backends, both bound through `extern "C"`
//! declarations against the libc that `std` already links, so the
//! workspace keeps its zero-external-crate invariant:
//!
//! * Linux: `epoll`, which scales to thousands of connections per loop
//!   thread and lets shards share a listener with `EPOLLEXCLUSIVE`.
//! * Every other unix: `poll(2)`, which rescans its registrations on each
//!   wait. It has no exclusive wakeup, so every poller sharing a listener
//!   wakes and all but one find nothing to accept. On Linux this backend
//!   is compiled under `cfg(test)` too, so the same tests cover both.
//!
//! Non-unix targets have no `Poller`.
//!
//! The surface is deliberately tiny: register a file descriptor with a
//! caller-chosen `token`, optionally arm write-readiness, and wait. All
//! registrations are level-triggered — a readable fd keeps firing until
//! drained, which composes with incremental parsers that stop at
//! `WouldBlock`.

#[cfg(unix)]
use std::{io, time::Duration};

/// A readiness event delivered by [`Poller::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PollEvent {
    /// The token the fd was registered with.
    pub token: u64,
    /// Readable, or peer-closed/errored (which reads report precisely).
    pub readable: bool,
    /// Writable (only delivered when write interest is armed).
    pub writable: bool,
}

#[cfg(target_os = "linux")]
mod sys {
    //! Raw epoll bindings. The constants mirror `<sys/epoll.h>`; the
    //! event struct is packed on x86 (kernel ABI) and natural elsewhere.

    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(C, packed))]
    #[cfg_attr(not(any(target_arch = "x86", target_arch = "x86_64")), repr(C))]
    #[derive(Clone, Copy, Debug)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        pub fn close(fd: i32) -> i32;
    }

    pub const EPOLL_CLOEXEC: i32 = 0o2000000;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    /// Wake only one of the epoll instances sharing a listener
    /// (kernel ≥ 4.5); [`super::Poller::add_exclusive`] degrades to a
    /// plain registration when the kernel rejects it.
    pub const EPOLLEXCLUSIVE: u32 = 1 << 28;
}

/// Linux epoll implementation.
#[cfg(target_os = "linux")]
mod epoll {
    use super::{ready_count, sys, timeout_ms, Duration, PollEvent};
    use std::io;
    use std::os::fd::RawFd;

    /// One epoll instance plus its reusable event buffer.
    #[derive(Debug)]
    pub struct Poller {
        epfd: RawFd,
        /// Scratch buffer reused across [`wait`](Poller::wait) calls.
        buf: Vec<sys::EpollEvent>,
    }

    /// Events deliverable per `wait` call; more stay queued in the kernel.
    const MAX_EVENTS: usize = 256;

    impl Poller {
        /// Creates an epoll instance (close-on-exec).
        pub fn new() -> io::Result<Poller> {
            // SAFETY: epoll_create1 takes a flag word and returns an fd or
            // -1; no pointers are involved.
            let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller { epfd, buf: vec![sys::EpollEvent { events: 0, data: 0 }; MAX_EVENTS] })
        }

        fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            let mut event = sys::EpollEvent { events, data: token };
            // SAFETY: `event` outlives the call; the kernel copies it.
            let rc = unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut event) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        fn interest(writable: bool) -> u32 {
            sys::EPOLLIN | sys::EPOLLRDHUP | if writable { sys::EPOLLOUT } else { 0 }
        }

        /// Registers `fd` with read interest (plus write when `writable`),
        /// level-triggered.
        pub fn add(&self, fd: RawFd, token: u64, writable: bool) -> io::Result<()> {
            self.ctl(sys::EPOLL_CTL_ADD, fd, Self::interest(writable), token)
        }

        /// Registers a shared listener with `EPOLLEXCLUSIVE` so only one
        /// of the loops polling it wakes per connection; degrades to a
        /// plain registration on kernels that reject the flag.
        pub fn add_exclusive(&self, fd: RawFd, token: u64) -> io::Result<()> {
            let events = sys::EPOLLIN | sys::EPOLLEXCLUSIVE;
            match self.ctl(sys::EPOLL_CTL_ADD, fd, events, token) {
                Err(e) if e.raw_os_error() == Some(22) => {
                    self.ctl(sys::EPOLL_CTL_ADD, fd, sys::EPOLLIN, token)
                }
                other => other,
            }
        }

        /// Rearms `fd` with read interest (plus write when `writable`).
        pub fn modify(&self, fd: RawFd, token: u64, writable: bool) -> io::Result<()> {
            self.ctl(sys::EPOLL_CTL_MOD, fd, Self::interest(writable), token)
        }

        /// Deregisters `fd`. Closing the fd also deregisters it, so this
        /// is only needed when the fd outlives its interest.
        pub fn remove(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(sys::EPOLL_CTL_DEL, fd, 0, 0)
        }

        /// Blocks until at least one registered fd is ready or `timeout`
        /// passes (`None` = forever), then appends the ready events to
        /// `events` and returns how many were delivered.
        pub fn wait(
            &mut self,
            events: &mut Vec<PollEvent>,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            let timeout = timeout_ms(timeout);
            // SAFETY: `buf` is a live, correctly-sized allocation for the
            // whole call; the kernel writes at most MAX_EVENTS entries.
            let rc = unsafe {
                sys::epoll_wait(self.epfd, self.buf.as_mut_ptr(), self.buf.len() as i32, timeout)
            };
            let n = ready_count(rc)?;
            for raw in &self.buf[..n] {
                let bits = raw.events;
                events.push(PollEvent {
                    token: raw.data,
                    readable: bits
                        & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLHUP | sys::EPOLLERR)
                        != 0,
                    writable: bits & sys::EPOLLOUT != 0,
                });
            }
            Ok(n)
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: `epfd` is a valid fd this struct owns exclusively.
            unsafe { sys::close(self.epfd) };
        }
    }
}

/// Portable `poll(2)` implementation: the registrations live in user
/// space, in the array layout the syscall takes.
#[cfg(all(unix, any(test, not(target_os = "linux"))))]
mod poll {
    use super::{ready_count, timeout_ms, Duration, PollEvent};
    use std::cell::RefCell;
    use std::io;
    use std::os::fd::RawFd;

    /// `struct pollfd` from `<poll.h>`.
    #[repr(C)]
    #[derive(Debug)]
    struct PollFd {
        fd: RawFd,
        events: i16,
        revents: i16,
    }

    /// `nfds_t`: `unsigned long` on Linux, `unsigned int` on macOS and the
    /// BSDs.
    #[cfg(target_os = "linux")]
    type Nfds = std::ffi::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type Nfds = std::ffi::c_uint;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: i32) -> i32;
    }

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    /// The registered fds, with `tokens[i]` belonging to `fds[i]`. The
    /// `RefCell`s give the `&self` registration calls the epoll backend
    /// has; only `wait` hands the array to the kernel.
    #[derive(Debug, Default)]
    pub struct Poller {
        fds: RefCell<Vec<PollFd>>,
        tokens: RefCell<Vec<u64>>,
    }

    impl Poller {
        /// Creates an empty poller; this cannot fail.
        pub fn new() -> io::Result<Poller> {
            Ok(Poller::default())
        }

        fn index(&self, fd: RawFd) -> Option<usize> {
            self.fds.borrow().iter().position(|p| p.fd == fd)
        }

        fn interest(writable: bool) -> i16 {
            POLLIN | if writable { POLLOUT } else { 0 }
        }

        /// Registers `fd`, which must not be registered already, with read
        /// interest (plus write when `writable`).
        pub fn add(&self, fd: RawFd, token: u64, writable: bool) -> io::Result<()> {
            self.fds.borrow_mut().push(PollFd { fd, events: Self::interest(writable), revents: 0 });
            self.tokens.borrow_mut().push(token);
            Ok(())
        }

        /// `poll(2)` has no exclusive wakeup: a plain read registration.
        /// Every poller sharing the listener wakes per connection, and
        /// all but the one that accepts it get `WouldBlock`.
        pub fn add_exclusive(&self, fd: RawFd, token: u64) -> io::Result<()> {
            self.add(fd, token, false)
        }

        /// Rearms `fd` with read interest (plus write when `writable`).
        pub fn modify(&self, fd: RawFd, token: u64, writable: bool) -> io::Result<()> {
            let i = self.index(fd).ok_or(io::ErrorKind::NotFound)?;
            self.fds.borrow_mut()[i].events = Self::interest(writable);
            self.tokens.borrow_mut()[i] = token;
            Ok(())
        }

        /// Deregisters `fd`. Unlike epoll, closing the fd does not, so
        /// every registered fd must be removed before it is closed.
        pub fn remove(&self, fd: RawFd) -> io::Result<()> {
            let i = self.index(fd).ok_or(io::ErrorKind::NotFound)?;
            self.fds.borrow_mut().swap_remove(i);
            self.tokens.borrow_mut().swap_remove(i);
            Ok(())
        }

        /// Blocks until at least one registered fd is ready or `timeout`
        /// passes (`None` = forever), then appends the ready events to
        /// `events` and returns how many were delivered.
        pub fn wait(
            &mut self,
            events: &mut Vec<PollEvent>,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            let (fds, tokens) = (self.fds.get_mut(), self.tokens.get_mut());
            // SAFETY: `fds` is a live array of `fds.len()` pollfd structs
            // for the whole call; the kernel writes only their `revents`.
            let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, timeout_ms(timeout)) };
            if ready_count(rc)? == 0 {
                return Ok(0);
            }
            let before = events.len();
            for (p, &token) in fds.iter().zip(tokens.iter()).filter(|(p, _)| p.revents != 0) {
                events.push(PollEvent {
                    token,
                    readable: p.revents & (POLLIN | POLLHUP | POLLERR) != 0,
                    writable: p.revents & POLLOUT != 0,
                });
            }
            Ok(events.len() - before)
        }
    }
}

/// A `wait` timeout in the milliseconds `epoll_wait` and `poll` take; `-1`
/// blocks forever.
#[cfg(unix)]
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    timeout.map_or(-1, |t| t.as_millis().min(i32::MAX as u128) as i32)
}

/// The ready count from a wait syscall's return value. A signal
/// interrupting the wait is a spurious wakeup with nothing ready.
#[cfg(unix)]
fn ready_count(rc: i32) -> io::Result<usize> {
    if rc >= 0 {
        return Ok(rc as usize);
    }
    let err = io::Error::last_os_error();
    if err.kind() == io::ErrorKind::Interrupted {
        Ok(0)
    } else {
        Err(err)
    }
}

#[cfg(target_os = "linux")]
pub use epoll::Poller;
#[cfg(all(unix, not(target_os = "linux")))]
pub use poll::Poller;

#[cfg(all(test, unix))]
mod tests {
    /// The readiness tests, instantiated once per backend: here against
    /// the exported `Poller`, and in `tests::poll` against `poll(2)` on
    /// Linux too.
    macro_rules! readiness_tests {
        () => {
            use std::io::{Read, Write};
            use std::net::{TcpListener, TcpStream};
            use std::os::fd::AsRawFd;
            use std::time::Duration;

            #[test]
            fn listener_becomes_readable_on_connect() {
                let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                listener.set_nonblocking(true).unwrap();
                let mut poller = Poller::new().unwrap();
                poller.add(listener.as_raw_fd(), 7, false).unwrap();

                let mut events = Vec::new();
                let n = poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
                assert_eq!(n, 0, "no pending connection → timeout with no events");

                let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
                let n = poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
                assert_eq!(n, 1);
                assert_eq!(events[0].token, 7);
                assert!(events[0].readable);
                assert!(!events[0].writable);
            }

            #[test]
            fn stream_reports_read_and_write_readiness() {
                let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
                let (mut server_side, _) = listener.accept().unwrap();
                client.set_nonblocking(true).unwrap();

                let mut poller = Poller::new().unwrap();
                // Write interest on an idle connected socket fires immediately
                // (the send buffer is empty).
                poller.add(client.as_raw_fd(), 1, true).unwrap();
                let mut events = Vec::new();
                poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
                assert!(events.iter().any(|e| e.token == 1 && e.writable));

                // Drop write interest, then make the socket readable.
                poller.modify(client.as_raw_fd(), 1, false).unwrap();
                server_side.write_all(b"ping").unwrap();
                events.clear();
                poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
                assert!(events.iter().any(|e| e.token == 1 && e.readable && !e.writable));

                // Level-triggered: unread bytes keep the fd ready.
                events.clear();
                poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
                assert!(events.iter().any(|e| e.token == 1 && e.readable));

                let mut sink = [0u8; 8];
                let mut reader = &client;
                assert_eq!(reader.read(&mut sink).unwrap(), 4);
                events.clear();
                let n = poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
                assert_eq!(n, 0, "drained socket is quiet again");
            }

            #[test]
            fn peer_close_is_reported_as_readable() {
                let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
                let (server_side, _) = listener.accept().unwrap();
                client.set_nonblocking(true).unwrap();

                let mut poller = Poller::new().unwrap();
                poller.add(client.as_raw_fd(), 3, false).unwrap();
                drop(server_side);
                let mut events = Vec::new();
                poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
                assert!(
                    events.iter().any(|e| e.token == 3 && e.readable),
                    "hangup must surface as readability so the read path sees EOF"
                );
            }

            #[test]
            fn remove_stops_delivery() {
                let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                listener.set_nonblocking(true).unwrap();
                let mut poller = Poller::new().unwrap();
                poller.add(listener.as_raw_fd(), 9, false).unwrap();
                poller.remove(listener.as_raw_fd()).unwrap();
                let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
                let mut events = Vec::new();
                let n = poller.wait(&mut events, Some(Duration::from_millis(50))).unwrap();
                assert_eq!(n, 0, "deregistered fds deliver nothing");
            }

            #[test]
            fn exclusive_listener_registration_is_accepted() {
                let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                listener.set_nonblocking(true).unwrap();
                let mut poller = Poller::new().unwrap();
                poller.add_exclusive(listener.as_raw_fd(), 4).unwrap();
                let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
                let mut events = Vec::new();
                poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
                assert!(events.iter().any(|e| e.token == 4 && e.readable));
            }
        };
    }

    use super::Poller;
    readiness_tests!();

    #[cfg(target_os = "linux")]
    mod poll {
        use crate::net::poll::Poller;
        readiness_tests!();
    }
}
