//! Socket readiness without crates or busy-waits.
//!
//! The reactor ([`crate::reactor`]) needs one primitive: *block until
//! one of these sockets can make progress, or a timeout passes*. On
//! Linux that is `poll(2)`, bound here through a minimal `extern "C"`
//! declaration (no new dependencies — the binding is three constants
//! and one function). On
//! every other platform the same API degrades to a **readiness scan
//! with adaptive backoff**: the caller's descriptors are all reported
//! ready after a short sleep, and the caller's nonblocking reads and
//! writes simply return `WouldBlock` for the ones that had nothing.
//! The sleep starts near zero and doubles up to a small ceiling while
//! nothing happens; [`Readiness::note_progress`] resets it, so a busy
//! mesh spins tight and an idle one converges to a few wakeups per
//! second.
//!
//! Both paths are deliberately *hint-shaped*: a descriptor reported
//! ready may still yield `WouldBlock` (spurious wakeups, the fallback
//! path always), so callers must treat readiness as permission to try,
//! never as a guarantee.

use std::io;
use std::time::Duration;

/// Raw descriptor handle. On Unix this is the real fd; elsewhere it is
/// a placeholder (the fallback scan never dereferences it).
#[cfg(unix)]
pub(crate) type Fd = std::os::unix::io::RawFd;
#[cfg(not(unix))]
pub(crate) type Fd = i32;

/// Extracts the raw descriptor of a socket-like object.
#[cfg(unix)]
pub(crate) fn fd_of<T: std::os::unix::io::AsRawFd>(t: &T) -> Fd {
    t.as_raw_fd()
}
#[cfg(not(unix))]
pub(crate) fn fd_of<T>(_t: &T) -> Fd {
    0
}

/// One descriptor's interest set going into [`Readiness::wait`] and its
/// readiness flags coming out.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Want {
    /// The descriptor to watch.
    pub fd: Fd,
    /// Wake when readable (or closed/errored — EOF must be observable).
    pub read: bool,
    /// Wake when writable.
    pub write: bool,
    /// Out: a read (or an EOF/error-revealing read) can make progress.
    pub ready_read: bool,
    /// Out: a write can make progress.
    pub ready_write: bool,
}

impl Want {
    /// Read interest on `fd`.
    pub fn readable(fd: Fd) -> Self {
        Want {
            fd,
            read: true,
            write: false,
            ready_read: false,
            ready_write: false,
        }
    }

    /// Read-and-write interest on `fd`.
    pub fn duplex(fd: Fd, write: bool) -> Self {
        Want {
            fd,
            read: true,
            write,
            ready_read: false,
            ready_write: false,
        }
    }

    /// Write-only interest on `fd`.
    pub fn writable(fd: Fd) -> Self {
        Want {
            fd,
            read: false,
            write: true,
            ready_read: false,
            ready_write: false,
        }
    }
}

#[cfg(target_os = "linux")]
mod sys {
    use std::ffi::{c_int, c_ulong};

    #[repr(C)]
    pub(super) struct PollFd {
        pub fd: c_int,
        pub events: i16,
        pub revents: i16,
    }

    pub(super) const POLLIN: i16 = 0x001;
    pub(super) const POLLOUT: i16 = 0x004;
    pub(super) const POLLERR: i16 = 0x008;
    pub(super) const POLLHUP: i16 = 0x010;

    extern "C" {
        pub(super) fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }
}

/// The adaptive-backoff scan behind the non-Linux [`Readiness`] path.
/// Kept platform-independent (and unit-tested) even where the real
/// `poll(2)` binding is used.
#[cfg(any(not(target_os = "linux"), test))]
#[derive(Debug)]
pub(crate) struct FallbackScan {
    pause: Duration,
}

/// Floor of the fallback backoff: the first sleep after progress.
#[cfg(any(not(target_os = "linux"), test))]
const BACKOFF_MIN: Duration = Duration::from_micros(50);
/// Ceiling of the fallback backoff: the idle-mesh wakeup period.
#[cfg(any(not(target_os = "linux"), test))]
const BACKOFF_MAX: Duration = Duration::from_millis(5);

#[cfg(any(not(target_os = "linux"), test))]
impl FallbackScan {
    pub fn new() -> Self {
        FallbackScan { pause: BACKOFF_MIN }
    }

    /// Sleeps out one backoff step (capped by `timeout`), doubles the
    /// next step, and optimistically marks every wanted descriptor
    /// ready — callers' nonblocking operations absorb the false
    /// positives as `WouldBlock`.
    pub fn wait(&mut self, wants: &mut [Want], timeout: Duration) -> usize {
        let pause = self.pause.min(timeout);
        if !pause.is_zero() {
            std::thread::sleep(pause);
        }
        self.pause = (self.pause * 2).min(BACKOFF_MAX);
        let mut ready = 0usize;
        for w in wants.iter_mut() {
            w.ready_read = w.read;
            w.ready_write = w.write;
            if w.ready_read || w.ready_write {
                ready += 1;
            }
        }
        ready
    }

    pub fn note_progress(&mut self) {
        self.pause = BACKOFF_MIN;
    }

    #[cfg(test)]
    fn current_pause(&self) -> Duration {
        self.pause
    }
}

/// Blocking readiness queries over a set of descriptors: `poll(2)` on
/// Linux, the adaptive [`FallbackScan`] everywhere else.
#[derive(Debug)]
pub(crate) struct Readiness {
    #[cfg(not(target_os = "linux"))]
    scan: FallbackScan,
}

impl Readiness {
    pub fn new() -> Self {
        Readiness {
            #[cfg(not(target_os = "linux"))]
            scan: FallbackScan::new(),
        }
    }

    /// Blocks until at least one wanted descriptor is (possibly) ready
    /// or `timeout` elapses, filling in the `ready_*` flags. Returns
    /// the number of descriptors flagged ready; `0` means the timeout
    /// passed (or the wait was interrupted) with nothing to do.
    #[cfg(target_os = "linux")]
    pub fn wait(&mut self, wants: &mut [Want], timeout: Duration) -> io::Result<usize> {
        for w in wants.iter_mut() {
            w.ready_read = false;
            w.ready_write = false;
        }
        let mut fds: Vec<sys::PollFd> = Vec::with_capacity(wants.len());
        let mut slots: Vec<usize> = Vec::with_capacity(wants.len());
        for (i, w) in wants.iter().enumerate() {
            let mut events = 0i16;
            if w.read {
                events |= sys::POLLIN;
            }
            if w.write {
                events |= sys::POLLOUT;
            }
            if events != 0 {
                fds.push(sys::PollFd {
                    fd: w.fd,
                    events,
                    revents: 0,
                });
                slots.push(i);
            }
        }
        if fds.is_empty() {
            if !timeout.is_zero() {
                std::thread::sleep(timeout);
            }
            return Ok(0);
        }
        // Round sub-millisecond timeouts up so a short budget blocks
        // instead of degenerating into a busy spin.
        let millis = if timeout.is_zero() {
            0
        } else {
            timeout.as_millis().clamp(1, i32::MAX as u128) as i32
        };
        let rc = unsafe { sys::poll(fds.as_mut_ptr(), fds.len() as std::ffi::c_ulong, millis) };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        let mut ready = 0usize;
        for (pf, slot) in fds.iter().zip(&slots) {
            let w = &mut wants[*slot];
            // Errors and hangups surface as read-readiness: the next
            // read observes the EOF/error, which is exactly how the
            // round engine learns a peer crashed.
            w.ready_read =
                w.read && (pf.revents & (sys::POLLIN | sys::POLLERR | sys::POLLHUP)) != 0;
            w.ready_write = w.write && (pf.revents & (sys::POLLOUT | sys::POLLERR)) != 0;
            if w.ready_read || w.ready_write {
                ready += 1;
            }
        }
        Ok(ready)
    }

    /// See the Linux variant; here the [`FallbackScan`] supplies
    /// optimistic readiness after an adaptive pause.
    #[cfg(not(target_os = "linux"))]
    pub fn wait(&mut self, wants: &mut [Want], timeout: Duration) -> io::Result<usize> {
        Ok(self.scan.wait(wants, timeout))
    }

    /// Tells the backoff that real work happened (fallback only;
    /// `poll(2)` needs no pacing hint).
    pub fn note_progress(&mut self) {
        #[cfg(not(target_os = "linux"))]
        self.scan.note_progress();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn fallback_scan_backs_off_and_resets() {
        let mut scan = FallbackScan::new();
        let mut wants = [Want::readable(0)];
        assert_eq!(scan.wait(&mut wants, Duration::from_millis(1)), 1);
        assert!(wants[0].ready_read);
        assert!(!wants[0].ready_write);
        // Idle waits double the pause up to the ceiling...
        for _ in 0..16 {
            scan.wait(&mut wants, Duration::ZERO);
        }
        assert_eq!(scan.current_pause(), BACKOFF_MAX);
        // ...and progress snaps it back to the floor.
        scan.note_progress();
        assert_eq!(scan.current_pause(), BACKOFF_MIN);
    }

    #[test]
    fn wait_times_out_on_silent_socket_and_wakes_on_data() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let mut readiness = Readiness::new();
        // Nothing written yet: on Linux the wait must report nothing
        // ready; the fallback may report optimistically, but the
        // nonblocking read below disambiguates either way.
        let mut wants = [Want::readable(fd_of(&server))];
        let _ = readiness
            .wait(&mut wants, Duration::from_millis(5))
            .unwrap();
        let mut buf = [0u8; 8];
        if wants[0].ready_read {
            let err = (&server).read(&mut buf).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        }

        client.write_all(b"ping").unwrap();
        readiness.note_progress();
        // With data in flight the wake must come quickly and the read
        // must succeed.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let mut wants = [Want::readable(fd_of(&server))];
            readiness
                .wait(&mut wants, Duration::from_millis(10))
                .unwrap();
            if wants[0].ready_read {
                match (&server).read(&mut buf) {
                    Ok(n) => {
                        assert_eq!(&buf[..n], b"ping");
                        break;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    Err(e) => panic!("read failed: {}", e),
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "data never became readable"
            );
        }
    }

    #[test]
    fn wait_reports_writability() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let _server = listener.accept().unwrap();
        client.set_nonblocking(true).unwrap();
        let mut readiness = Readiness::new();
        let mut wants = [Want::duplex(fd_of(&client), true)];
        readiness
            .wait(&mut wants, Duration::from_millis(100))
            .unwrap();
        assert!(
            wants[0].ready_write,
            "an idle socket's send buffer is writable"
        );
    }
}
