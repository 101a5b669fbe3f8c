//! The TCP shell: one thread, one `poll(2)` loop around a [`ServerCore`].
//!
//! Each turn of the loop
//!
//! 1. polls the listener and every connection, with a zero timeout while
//!    the kernel has work and blocking otherwise;
//! 2. accepts every waiting connection and reads every readable one;
//! 3. runs the kernel for one [`SLICE`] of virtual time
//!    ([`ServerCore::pump_for`]);
//! 4. writes what each socket will take of its connection's pending
//!    output without blocking, and asks for `POLLOUT` on whatever is left.
//!
//! So nothing waits on a clock: an idle shell sleeps in `poll` until a
//! socket is ready, a busy one never sleeps, and a STREAM frame leaves at
//! the end of the slice its token was produced in rather than when the
//! whole kernel has gone quiet. Output a socket does not take stays in the
//! core ([`ServerCore::pending`]), where it counts against
//! [`crate::ServeConfig::conn_outbuf_cap`]: a peer that stops reading is
//! shed as a slow client, and no write ever waits for it.
//!
//! The pacing policy is "free-run in bounded slices": virtual time runs as
//! fast as the host computes it, one slice between two looks at the
//! sockets. docs/SERVING.md ("Shell: readiness and pacing") gives the
//! ordering this guarantees and why virtual time is not paced to the wall
//! clock.

use std::collections::BTreeMap;
use std::ffi::c_ulong;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};

use symphony_rpc::READ_SIZE;

use crate::{ServerCore, SLICE};

/// How long an idle shell blocks in `poll` before it looks at `stop`
/// again, in milliseconds. Readiness ends the wait sooner.
const IDLE_WAIT_MS: i32 = 100;

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;

/// `struct pollfd`.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: i32) -> i32;
}

/// Blocks until one of `fds` is ready or `timeout_ms` passes (`0`: do not
/// block). A signal ends the wait early with nothing ready.
fn wait(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<()> {
    // SAFETY: `fds` is a live, writable slice of `repr(C)` pollfd records
    // and the count passed is its length.
    let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
    if rc >= 0 {
        return Ok(());
    }
    let err = io::Error::last_os_error();
    if err.kind() == ErrorKind::Interrupted {
        return Ok(());
    }
    Err(err)
}

/// One accepted connection.
struct Peer {
    sock: TcpStream,
    /// The peer has shut its side down; nothing more will be read.
    eof: bool,
}

/// Serves `listener` with `core` until `stop` is set and no connection
/// remains (a CLI server never sets it). Returns early only if `poll` or
/// the listener itself fails.
pub fn serve(listener: TcpListener, mut core: ServerCore, stop: &AtomicBool) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let mut peers: BTreeMap<u64, Peer> = BTreeMap::new();
    let mut fds: Vec<PollFd> = Vec::new();
    let mut buf = vec![0u8; READ_SIZE];
    let mut busy = false;
    loop {
        if stop.load(Ordering::SeqCst) && peers.is_empty() {
            return Ok(());
        }
        fds.clear();
        fds.push(PollFd {
            fd: listener.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        });
        for (&conn, peer) in &peers {
            let read = if peer.eof { 0 } else { POLLIN };
            let write = if core.pending(conn).is_empty() {
                0
            } else {
                POLLOUT
            };
            fds.push(PollFd {
                fd: peer.sock.as_raw_fd(),
                events: read | write,
                revents: 0,
            });
        }
        wait(&mut fds, if busy { 0 } else { IDLE_WAIT_MS })?;

        // `peers` is as it was polled, in the same order, until accept.
        for (fd, (&conn, peer)) in fds[1..].iter().zip(peers.iter_mut()) {
            if fd.revents & (POLLIN | POLLHUP | POLLERR) != 0 {
                read_all(peer, conn, &mut core, &mut buf);
            }
        }
        if fds[0].revents != 0 {
            accept_all(&listener, &mut core, &mut peers);
        }

        busy = !core.pump_for(SLICE);

        peers.retain(|&conn, peer| flush(peer, conn, &mut core));
    }
}

/// Accepts every connection waiting on the listener.
fn accept_all(listener: &TcpListener, core: &mut ServerCore, peers: &mut BTreeMap<u64, Peer>) {
    loop {
        match listener.accept() {
            Ok((sock, _)) => {
                // Frames leave in slices: without this, Nagle holds each
                // small write until the peer's delayed ACK of the last one.
                if sock.set_nonblocking(true).is_err() || sock.set_nodelay(true).is_err() {
                    continue;
                }
                peers.insert(core.open_conn(), Peer { sock, eof: false });
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            // WouldBlock: nothing more is waiting. Anything else (out of
            // descriptors, a peer that reset in the backlog) leaves the
            // connection in the backlog or gone; the next turn tries again.
            Err(_) => return,
        }
    }
}

/// Reads everything `peer` has sent into the core. End of stream from a
/// connection the core still serves is a drop: its sessions are cancelled.
fn read_all(peer: &mut Peer, conn: u64, core: &mut ServerCore, buf: &mut [u8]) {
    loop {
        match peer.sock.read(buf) {
            Ok(0) => {
                peer.eof = true;
                if !core.is_closed(conn) {
                    core.drop_conn(conn);
                }
                return;
            }
            Ok(n) => core.feed(conn, &buf[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => {
                peer.eof = true;
                core.drop_conn(conn);
                return;
            }
        }
    }
}

/// Writes what the socket takes of `conn`'s pending output. Returns
/// whether to keep the connection: not once a write fails, nor once the
/// core has closed it and nothing is left to write.
fn flush(peer: &mut Peer, conn: u64, core: &mut ServerCore) -> bool {
    while !core.pending(conn).is_empty() {
        match peer.sock.write(core.pending(conn)) {
            Ok(n) if n > 0 => core.consume(conn, n),
            Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            _ => {
                core.drop_conn(conn);
                return false;
            }
        }
    }
    !core.is_closed(conn)
}
