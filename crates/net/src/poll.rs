//! `poll(2)`: block until one of a set of file descriptors is ready.
//!
//! The reader shards park here — over their connection sockets plus a wake
//! channel — instead of sweeping nonblocking sockets on a timer. std links
//! libc already, so the one foreign function is declared here rather than
//! pulled in through a crate; this module is the only `unsafe` in the
//! workspace's library crates (the `store_bench` binary makes one raw
//! `setpriority` syscall of its own).

use std::ffi::{c_int, c_short};
use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

/// Readable (or the peer hung up / the socket errored: `poll` reports
/// `POLLHUP`/`POLLERR` regardless of the requested events, and the read
/// that follows surfaces them).
pub(crate) const POLLIN: c_short = 0x001;
/// Writable.
pub(crate) const POLLOUT: c_short = 0x004;

#[cfg(target_os = "linux")]
type NfdsT = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type NfdsT = std::ffi::c_uint;

/// One `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Watch `fd` for `events`.
    pub(crate) fn new(fd: RawFd, events: c_short) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// Replace the watched events.
    pub(crate) fn set_events(&mut self, events: c_short) {
        self.events = events;
    }

    /// What the last [`wait`] reported for this descriptor (0 = nothing).
    pub(crate) fn revents(&self) -> c_short {
        self.revents
    }
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
}

/// Block until a descriptor in `fds` is ready, `timeout` passes (`None` =
/// wait indefinitely), or a signal interrupts the wait. Returns how many
/// entries have non-zero `revents`; 0 on timeout or interruption — callers
/// loop and recompute their deadline either way.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let timeout_ms: c_int = match timeout {
        None => -1,
        // Round up: waking a millisecond early would spin until the
        // deadline actually passes.
        Some(d) => c_int::try_from(d.as_micros().div_ceil(1000)).unwrap_or(c_int::MAX),
    };
    // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
    // structs laid out as `struct pollfd` (int, short, short), and `nfds`
    // is exactly its length, so the kernel reads and writes only memory
    // the slice owns. A descriptor that is closed or was never open is
    // reported through `POLLNVAL` in `revents`, not dereferenced.
    let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, timeout_ms) };
    if n >= 0 {
        return Ok(n as usize);
    }
    let err = io::Error::last_os_error();
    if err.kind() == io::ErrorKind::Interrupted {
        for fd in fds.iter_mut() {
            fd.revents = 0;
        }
        return Ok(0);
    }
    Err(err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::time::Instant;

    #[test]
    fn times_out_on_a_quiet_descriptor_and_reports_a_readable_one() {
        let (mut tx, rx) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::new(rx.as_raw_fd(), POLLIN)];
        let start = Instant::now();
        assert_eq!(wait(&mut fds, Some(Duration::from_millis(20))).unwrap(), 0);
        assert!(start.elapsed() >= Duration::from_millis(20));
        assert_eq!(fds[0].revents(), 0);

        tx.write_all(&[1]).unwrap();
        assert_eq!(wait(&mut fds, None).unwrap(), 1);
        assert_ne!(fds[0].revents() & POLLIN, 0);
    }

    #[test]
    fn hangup_is_reported_without_asking_for_it() {
        let (tx, rx) = UnixStream::pair().unwrap();
        drop(tx);
        let mut fds = [PollFd::new(rx.as_raw_fd(), POLLOUT)];
        assert_eq!(wait(&mut fds, None).unwrap(), 1);
        assert_ne!(fds[0].revents(), 0);
    }
}
