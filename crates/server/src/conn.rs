//! Per-connection state for the readiness-driven event loop: bounded
//! line reassembly, a capped backpressure-aware write queue, and the
//! waker that lets worker threads nudge the loop.
//!
//! The split of responsibilities is strict: only the event-loop thread
//! touches the socket (reads *and* writes), while worker threads touch
//! only the [`ConnHandle`] — an `Arc` holding the write queue, the
//! dead/overflow flags, and the in-flight job count. A worker "sends" a
//! response by appending it to the queue and waking the loop; the loop
//! flushes queues when `poll(2)` reports the socket writable. That makes
//! every write error observable in exactly one place (the loop's flush),
//! fixing the old reader-thread design where `ConnWriter::send_line`
//! swallowed broken pipes and workers kept rendering for dead clients.

use crate::protocol::{self, ErrorCode};
use std::collections::VecDeque;
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Upper bound on bytes queued for one connection before the server
/// gives up on the client and kills the connection. A client that stops
/// reading its socket while pipelining requests hits this cap; the
/// alternative — buffering without bound — turns one slow reader into a
/// server OOM.
pub const MAX_WRITE_QUEUE_BYTES: usize = 4 * 1024 * 1024;

/// Read chunk size for draining a readable socket.
const READ_CHUNK: usize = 16 * 1024;

/// Wakes the event loop out of `poll(2)`. One byte on a nonblocking
/// socketpair; a full pipe means a wake is already pending, which is all
/// the semantics needed.
pub(crate) struct Waker {
    tx: UnixStream,
}

impl Waker {
    /// A connected (waker, poll-side receiver) pair, both nonblocking.
    pub fn pair() -> std::io::Result<(Arc<Waker>, UnixStream)> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok((Arc::new(Waker { tx }), rx))
    }

    /// Nudges the loop; never blocks, never fails (a full buffer already
    /// guarantees a pending wakeup).
    pub fn wake(&self) {
        let _ = (&self.tx).write(&[1]);
    }
}

/// Drains all pending wake bytes; called by the loop once per iteration.
pub(crate) fn drain_waker(rx: &UnixStream) {
    let mut buf = [0u8; 64];
    while matches!((&*rx).read(&mut buf), Ok(n) if n > 0) {}
}

#[derive(Default)]
struct WriteQueue {
    bytes: VecDeque<u8>,
    /// Set when an enqueue would have exceeded [`MAX_WRITE_QUEUE_BYTES`];
    /// the loop kills the connection instead of buffering further.
    overflowed: bool,
}

/// The worker-facing half of a connection. Cheap to clone (via `Arc`),
/// safe to use after the socket is gone: operations on a dead handle are
/// no-ops that report failure.
pub(crate) struct ConnHandle {
    queue: parking_lot::Mutex<WriteQueue>,
    dead: AtomicBool,
    in_flight: AtomicUsize,
    waker: Arc<Waker>,
}

impl ConnHandle {
    pub fn new(waker: Arc<Waker>) -> Arc<ConnHandle> {
        Arc::new(ConnHandle {
            queue: parking_lot::Mutex::new(WriteQueue::default()),
            dead: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            waker,
        })
    }

    /// Queues `line` + `\n` for the event loop to flush. Returns `false`
    /// — and queues nothing — if the connection is already dead or the
    /// write queue is over its cap, so callers can tell a response was
    /// dropped rather than delivered.
    pub fn send_line(&self, line: &str) -> bool {
        if self.is_dead() {
            return false;
        }
        let sent = {
            let mut queue = self.queue.lock();
            if queue.overflowed {
                false
            } else if queue.bytes.len() + line.len() + 1 > MAX_WRITE_QUEUE_BYTES {
                queue.overflowed = true;
                false
            } else {
                queue.bytes.extend(line.as_bytes());
                queue.bytes.push_back(b'\n');
                true
            }
        };
        // Wake either way: the loop must flush the new bytes, or kill the
        // overflowed connection.
        self.waker.wake();
        sent
    }

    /// Whether a write error (or teardown) already severed this client.
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    pub fn mark_dead(&self) {
        self.dead.store(true, Ordering::Release);
    }

    /// Accounts a queued job so the loop keeps the connection open until
    /// the response exists.
    pub fn job_started(&self) {
        self.in_flight.fetch_add(1, Ordering::AcqRel);
    }

    /// Job done (response queued, or skipped for a dead client). Wakes
    /// the loop so "close when nothing is pending" conditions re-evaluate.
    pub fn job_finished(&self) {
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
        self.waker.wake();
    }

    pub fn jobs_in_flight(&self) -> usize {
        self.in_flight.load(Ordering::Acquire)
    }

    /// Bytes currently queued for flushing.
    pub fn pending_bytes(&self) -> usize {
        self.queue.lock().bytes.len()
    }

    pub fn overflowed(&self) -> bool {
        self.queue.lock().overflowed
    }
}

/// What one readiness-driven read pass produced.
#[derive(Default)]
pub(crate) struct ReadOutcome {
    /// Complete lines (without the terminating `\n`), in arrival order —
    /// several per pass when the client pipelines.
    pub lines: Vec<Vec<u8>>,
    /// The unterminated tail outgrew the per-line cap; the connection
    /// must be answered with `bad_request` and closed.
    pub overflow: bool,
    /// The peer half-closed its sending side (EOF).
    pub eof: bool,
    /// A hard read error; the connection is unusable.
    pub error: bool,
}

/// Answers a connect over the `max_conns` limit with one `busy` line,
/// in a single write, before the caller drops the socket. Best effort:
/// the socket is fresh, so the line fits the send buffer; any failure
/// just means a close with no explanation.
pub(crate) fn refuse_over_limit(mut stream: &TcpStream, max_conns: usize) {
    let line = protocol::err_line(
        0,
        ErrorCode::Busy,
        &format!("connection limit ({max_conns}) reached"),
    );
    let _ = stream.write_all(format!("{line}\n").as_bytes());
}

/// Loop-side connection state: the socket plus the line-reassembly
/// buffer and close bookkeeping. Lives exclusively on the event-loop
/// thread.
pub(crate) struct Conn {
    pub stream: TcpStream,
    pub handle: Arc<ConnHandle>,
    read_buf: Vec<u8>,
    /// Max bytes an unterminated line may accumulate before `overflow`.
    line_cap: usize,
    /// EOF observed; stop polling for reads.
    pub read_closed: bool,
    /// Close as soon as the write queue drains (terminal error sent).
    pub close_after_flush: bool,
    /// Last flush hit `WouldBlock`; wait for `POLLOUT` before retrying.
    pub write_blocked: bool,
}

/// Result of flushing one connection's write queue.
#[derive(PartialEq, Eq, Debug)]
pub(crate) enum Flush {
    /// Queue fully drained.
    Done,
    /// Socket buffer full; bytes remain queued.
    Blocked,
    /// Write failed; the handle has been marked dead.
    Error,
}

impl Conn {
    /// Wraps a socket for the event loop. Every service socket is built
    /// here: renderd's accepted clients, the router's accepted clients
    /// and the router's upstream shard sockets, so the socket options set
    /// below cannot be missed on a new path. `TCP_NODELAY` matters
    /// because replies are pipelined: with Nagle on, a reply queued while
    /// an earlier one is unacked waits for the peer's delayed ACK (up to
    /// 40 ms) on every hop.
    pub fn new(stream: TcpStream, waker: Arc<Waker>, line_cap: usize) -> std::io::Result<Conn> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            handle: ConnHandle::new(waker),
            read_buf: Vec::new(),
            line_cap,
            read_closed: false,
            close_after_flush: false,
            write_blocked: false,
        })
    }

    /// Drains the socket (until `WouldBlock`) and reassembles lines.
    ///
    /// The per-line cap is enforced on *every* accumulation path: however
    /// the bytes dribble in — one syscall, many timeouts apart, with or
    /// without a newline ever arriving — an unterminated line larger than
    /// `line_cap` trips `overflow`. The old reader-thread code only
    /// checked the cap on one rare branch, so a slow-drip client could
    /// grow the buffer without bound.
    pub fn read_ready(&mut self) -> ReadOutcome {
        let mut outcome = ReadOutcome::default();
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    outcome.eof = true;
                    self.read_closed = true;
                    break;
                }
                Ok(n) => {
                    self.read_buf.extend_from_slice(&chunk[..n]);
                    while let Some(pos) = self.read_buf.iter().position(|&b| b == b'\n') {
                        let mut line: Vec<u8> = self.read_buf.drain(..=pos).collect();
                        line.pop(); // the newline
                        outcome.lines.push(line);
                    }
                    if self.read_buf.len() > self.line_cap {
                        outcome.overflow = true;
                        self.read_buf.clear();
                        self.read_closed = true;
                        return outcome;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    outcome.error = true;
                    self.read_closed = true;
                    break;
                }
            }
        }
        outcome
    }

    /// A partial request line is sitting in the reassembly buffer.
    #[cfg(test)]
    pub fn has_partial_line(&self) -> bool {
        !self.read_buf.is_empty()
    }

    /// Writes as much of the queue as the socket accepts right now. Both
    /// halves of a wrapped queue go out in one vectored write, so a reply
    /// never costs an extra segment and an extra reader wakeup.
    pub fn flush(&mut self) -> Flush {
        let mut queue = self.handle.queue.lock();
        while !queue.bytes.is_empty() {
            let (front, back) = queue.bytes.as_slices();
            let halves = [IoSlice::new(front), IoSlice::new(back)];
            match self.stream.write_vectored(&halves) {
                Ok(0) => {
                    drop(queue);
                    self.handle.mark_dead();
                    return Flush::Error;
                }
                Ok(n) => {
                    queue.bytes.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    self.write_blocked = true;
                    return Flush::Blocked;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    drop(queue);
                    self.handle.mark_dead();
                    return Flush::Error;
                }
            }
        }
        self.write_blocked = false;
        Flush::Done
    }

    /// Bytes waiting to be flushed.
    pub fn pending_write(&self) -> bool {
        self.handle.pending_bytes() > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn conn_pair(line_cap: usize) -> (Conn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        let (waker, _rx) = Waker::pair().unwrap();
        (Conn::new(server_side, waker, line_cap).unwrap(), client)
    }

    #[test]
    fn reassembles_pipelined_lines_across_chunks() {
        let (mut conn, mut client) = conn_pair(1024);
        client.write_all(b"alpha\nbeta\ngam").unwrap();
        std::thread::sleep(std::time::Duration::from_millis(30));
        let out = conn.read_ready();
        assert_eq!(out.lines, vec![b"alpha".to_vec(), b"beta".to_vec()]);
        assert!(!out.overflow && !out.eof && !out.error);
        assert!(conn.has_partial_line());

        client.write_all(b"ma\n").unwrap();
        std::thread::sleep(std::time::Duration::from_millis(30));
        let out = conn.read_ready();
        assert_eq!(out.lines, vec![b"gamma".to_vec()]);
        assert!(!conn.has_partial_line());
    }

    #[test]
    fn slow_drip_without_newline_trips_the_cap() {
        let (mut conn, mut client) = conn_pair(64);
        // Three separate accumulation passes, no newline anywhere: the
        // cap must trip regardless of how the bytes are sliced.
        for _ in 0..3 {
            client.write_all(&[b'x'; 40]).unwrap();
            std::thread::sleep(std::time::Duration::from_millis(20));
            let out = conn.read_ready();
            assert!(out.lines.is_empty());
            if out.overflow {
                assert!(!conn.has_partial_line(), "oversized buffer discarded");
                return;
            }
        }
        panic!("120 dribbled bytes never tripped a 64-byte line cap");
    }

    #[test]
    fn eof_is_reported_after_final_lines() {
        let (mut conn, mut client) = conn_pair(1024);
        client.write_all(b"last\n").unwrap();
        drop(client);
        std::thread::sleep(std::time::Duration::from_millis(30));
        let out = conn.read_ready();
        assert_eq!(out.lines, vec![b"last".to_vec()]);
        assert!(out.eof);
        assert!(conn.read_closed);
    }

    #[test]
    fn send_line_queues_until_cap_then_overflows() {
        let (waker, _rx) = Waker::pair().unwrap();
        let handle = ConnHandle::new(waker);
        assert!(handle.send_line("hello"));
        assert_eq!(handle.pending_bytes(), 6);
        let huge = "y".repeat(MAX_WRITE_QUEUE_BYTES);
        assert!(!handle.send_line(&huge), "cap-busting line is refused");
        assert!(handle.overflowed());
        assert!(!handle.send_line("after"), "overflowed queue takes nothing");
        assert_eq!(handle.pending_bytes(), 6);
    }

    #[test]
    fn dead_handles_report_dropped_responses() {
        let (waker, _rx) = Waker::pair().unwrap();
        let handle = ConnHandle::new(waker);
        handle.mark_dead();
        assert!(!handle.send_line("too late"));
        assert_eq!(handle.pending_bytes(), 0);
    }

    #[test]
    fn flush_writes_queued_bytes_to_the_socket() {
        let (mut conn, mut client) = conn_pair(1024);
        conn.handle.send_line("ping");
        assert_eq!(conn.flush(), Flush::Done);
        let mut buf = [0u8; 8];
        client
            .set_read_timeout(Some(std::time::Duration::from_secs(5)))
            .unwrap();
        let n = client.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"ping\n");
    }

    #[test]
    fn every_conn_socket_has_nagle_off() {
        let (conn, _client) = conn_pair(1024);
        assert!(conn.stream.nodelay().unwrap());
    }

    #[test]
    fn wrapped_queue_flushes_both_halves_in_order() {
        // A pseudo-random byte stream, so a dropped, repeated or swapped
        // run of bytes cannot line up with the expected sequence.
        let mut x = 0x9e37_79b9_u32;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x as u8
        };
        // The front half is far larger than the socket buffers of an
        // unread peer, so the first flush must stop inside it.
        let (mut conn, mut client) = conn_pair(1024);
        let expected = {
            let mut queue = conn.handle.queue.lock();
            queue.bytes = VecDeque::with_capacity(16 << 20);
            let cap = queue.bytes.capacity();
            let drained = 1000;
            let sent: Vec<u8> = (0..cap + drained).map(|_| next()).collect();
            queue.bytes.extend(&sent[..cap]);
            queue.bytes.drain(..drained);
            queue.bytes.extend(&sent[cap..]);
            let (front, back) = queue.bytes.as_slices();
            assert_eq!((front.len(), back.len()), (cap - drained, drained));
            sent[drained..].to_vec()
        };

        assert_eq!(conn.flush(), Flush::Blocked);
        assert!(conn.write_blocked);
        let left = conn.handle.pending_bytes();
        assert!(
            left > 1000 && left < expected.len(),
            "stopped inside the front half: {left} left"
        );

        // Read to EOF, so a byte sent twice fails as surely as one lost.
        let reader = std::thread::spawn(move || {
            let mut got = Vec::new();
            client.read_to_end(&mut got).unwrap();
            got
        });
        while conn.flush() != Flush::Done {
            let fd = std::os::unix::io::AsRawFd::as_raw_fd(&conn.stream);
            polling::wait(&mut [polling::PollFd::new(fd, polling::POLLOUT)], 1000).unwrap();
        }
        assert!(!conn.write_blocked);
        drop(conn);
        let got = reader.join().unwrap();
        assert_eq!(got.len(), expected.len());
        assert!(got == expected, "bytes arrived out of order");
    }

    #[test]
    fn flush_to_a_closed_peer_marks_the_handle_dead() {
        let (mut conn, client) = conn_pair(1024);
        drop(client);
        // The first flush may land in the kernel buffer before the RST is
        // processed; keep flushing until the error surfaces.
        let mut saw_error = false;
        for _ in 0..50 {
            conn.handle.send_line(&"z".repeat(4096));
            match conn.flush() {
                Flush::Error => {
                    saw_error = true;
                    break;
                }
                _ => std::thread::sleep(std::time::Duration::from_millis(10)),
            }
        }
        assert!(saw_error, "write to closed peer never errored");
        assert!(conn.handle.is_dead());
        assert!(!conn.handle.send_line("dropped"));
    }

    #[test]
    fn waker_wakes_and_drains() {
        let (waker, rx) = Waker::pair().unwrap();
        waker.wake();
        waker.wake();
        let mut fds = [polling::PollFd::new(
            std::os::unix::io::AsRawFd::as_raw_fd(&rx),
            polling::POLLIN,
        )];
        assert_eq!(polling::wait(&mut fds, 1000).unwrap(), 1);
        assert!(fds[0].readable());
        drain_waker(&rx);
        let mut fds = [polling::PollFd::new(
            std::os::unix::io::AsRawFd::as_raw_fd(&rx),
            polling::POLLIN,
        )];
        assert_eq!(polling::wait(&mut fds, 50).unwrap(), 0, "fully drained");
    }

    #[test]
    fn in_flight_accounting_balances() {
        let (waker, _rx) = Waker::pair().unwrap();
        let handle = ConnHandle::new(waker);
        handle.job_started();
        handle.job_started();
        assert_eq!(handle.jobs_in_flight(), 2);
        handle.job_finished();
        handle.job_finished();
        assert_eq!(handle.jobs_in_flight(), 0);
    }
}
