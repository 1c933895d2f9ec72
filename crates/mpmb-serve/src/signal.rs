//! SIGTERM / SIGINT handling without any FFI crate.
//!
//! The workspace has no `libc` dependency, so the handler is installed
//! through the C library's `signal(2)` directly. The handler body does
//! only async-signal-safe things: it stores into a static atomic (the
//! latch idle keep-alive reads and background threads check), then
//! calls `shutdown(2)` on every registered listening socket. A server's
//! accept thread sits blocked in `accept`; shutting its listener down
//! makes that `accept` fail at once, which is how every drain — signal,
//! [`crate::Server::begin_shutdown`] or `POST /admin/shutdown` — wakes
//! it. The accept path does not poll.

use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};

/// Latched true once SIGTERM or SIGINT is delivered.
static SHUTDOWN_REQUESTED: AtomicBool = AtomicBool::new(false);

/// Raw fds of the live [`Listener`]s, `-1` for a free slot. A fixed
/// table because the handler may not allocate or lock.
static LISTENERS: [AtomicI32; 64] = [const { AtomicI32::new(-1) }; 64];

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;
/// `SHUT_RD` from `<sys/socket.h>`. On a listening socket it stops the
/// listen and fails any blocked `accept` (Linux: `EINVAL`).
const SHUT_RD: i32 = 0;

extern "C" {
    /// `signal(2)` from the C library the binary already links against.
    fn signal(signum: i32, handler: usize) -> usize;
    /// `shutdown(2)`; async-signal-safe.
    fn shutdown(fd: i32, how: i32) -> i32;
}

extern "C" fn on_signal(_signum: i32) {
    SHUTDOWN_REQUESTED.store(true, Ordering::SeqCst);
    for slot in &LISTENERS {
        let fd = slot.load(Ordering::SeqCst);
        if fd >= 0 {
            // SAFETY: `shutdown` takes no pointers; on an fd that is not
            // a socket it only fails with `ENOTSOCK`.
            unsafe { shutdown(fd, SHUT_RD) };
        }
    }
}

/// Installs the shutdown handler for SIGTERM and SIGINT. Process-global;
/// calling it more than once is harmless.
pub fn install() {
    unsafe {
        signal(SIGTERM, on_signal as *const () as usize);
        signal(SIGINT, on_signal as *const () as usize);
    }
}

/// Whether a shutdown signal has been delivered.
pub fn requested() -> bool {
    SHUTDOWN_REQUESTED.load(Ordering::SeqCst)
}

/// Clears the latch (tests re-use the process across cases).
pub fn reset() {
    SHUTDOWN_REQUESTED.store(false, Ordering::SeqCst);
}

/// A blocking listening socket whose `accept` a drain can interrupt.
///
/// It takes a slot in the signal handler's table for its lifetime and
/// frees the slot before the socket closes, so a signal delivered after
/// the drop leaves the closed fd alone. With all slots taken (more live
/// servers than any one process runs) a signal still latches but cannot
/// wake this listener; [`Listener::wake`] always can.
pub(crate) struct Listener {
    socket: TcpListener,
    slot: Option<usize>,
}

impl Listener {
    /// Registers `socket` (which must be in blocking mode) with the
    /// signal handler.
    pub(crate) fn new(socket: TcpListener) -> Listener {
        let fd = socket.as_raw_fd();
        let slot = LISTENERS.iter().position(|s| {
            s.compare_exchange(-1, fd, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
        });
        Listener { socket, slot }
    }

    /// Blocks until a connection arrives, or fails once [`Self::wake`]
    /// or a shutdown signal has shut the listener down.
    pub(crate) fn accept(&self) -> std::io::Result<TcpStream> {
        self.socket.accept().map(|(stream, _)| stream)
    }

    /// Stops listening: a blocked [`Self::accept`] returns an error, as
    /// does every later one, and new connections are refused.
    pub(crate) fn wake(&self) {
        // SAFETY: `shutdown` takes no pointers, and the fd is this
        // listener's own open socket.
        unsafe { shutdown(self.socket.as_raw_fd(), SHUT_RD) };
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Some(slot) = self.slot {
            LISTENERS[slot].store(-1, Ordering::SeqCst);
        }
        // `socket` closes after this, once the slot is free.
    }
}
