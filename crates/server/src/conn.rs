//! Per-connection state for the readiness-driven event loop: bounded
//! line reassembly, a capped backpressure-aware write queue, the waker
//! that lets worker threads nudge the loop, and [`Clients`], the one
//! client-connection lifecycle both fronts (`renderd` and the router)
//! run: accept, read, flush, close and drain.
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
use kdtune_telemetry::MetricsRegistry;
use polling::{PollFd, POLLIN, POLLOUT};
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

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

    /// Flushes when there is something to send, the connection is alive
    /// and the socket has not reported `WouldBlock` since its last
    /// `POLLOUT`. True when the write failed.
    pub fn flush_failed(&mut self) -> bool {
        let due = !self.handle.is_dead() && self.pending_write() && !self.write_blocked;
        due && self.flush() == Flush::Error
    }
}

/// Every step of a client connection's life, counted under
/// `<prefix>_conn_lifecycle_total{event}`. Both fronts register the same
/// set, so their expositions are schema-complete before any traffic.
const LIFECYCLE_EVENTS: [&str; 8] = [
    "accepted",
    "closed",
    "read_eof",
    "write_error",
    "line_overflow",
    "write_overflow",
    "conn_limit",
    "drain_closed",
];

/// The series one front's client lifecycle reports into.
struct Lifecycle {
    metrics: Arc<MetricsRegistry>,
    events: String,
    write_errors: String,
    /// `<prefix>_connections`: updated on every accept and close, so
    /// `stats`/`metrics` read the live count even while a line is being
    /// dispatched from inside [`Clients::read_ready`].
    live: Arc<AtomicI64>,
}

impl Lifecycle {
    fn event(&self, event: &'static str) {
        self.metrics.add(&self.events, &[("event", event)], 1);
    }

    fn write_error(&self, event: &'static str) {
        self.metrics.add(&self.write_errors, &[], 1);
        self.event(event);
    }

    fn closed(&self, conn: &Conn) {
        conn.handle.mark_dead();
        self.event("closed");
        self.live.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The client side of an event loop: every accepted connection of one
/// front, and the policy for its whole life. The owning loop calls, once
/// per iteration, [`accept`](Clients::accept) when the listener is
/// readable, [`add_interest`](Clients::add_interest) while building the
/// poll set, then [`read_ready`](Clients::read_ready),
/// [`flush`](Clients::flush) and [`close_finished`](Clients::close_finished)
/// after `poll` returns. Dropping it tears down whatever is still open.
pub(crate) struct Clients {
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// Tokens of the connections in the current poll set, in slot order
    /// from `first_slot`.
    polled: Vec<u64>,
    first_slot: usize,
    max_conns: usize,
    waker: Arc<Waker>,
    lifecycle: Lifecycle,
}

impl Clients {
    /// An empty client set for the front whose series start with
    /// `prefix` (`renderd` or `router`); registers its lifecycle series.
    pub fn new(
        prefix: &str,
        metrics: Arc<MetricsRegistry>,
        waker: Arc<Waker>,
        max_conns: usize,
    ) -> Clients {
        let lifecycle = Lifecycle {
            events: format!("{prefix}_conn_lifecycle_total"),
            write_errors: format!("{prefix}_write_errors_total"),
            live: metrics.gauge(&format!("{prefix}_connections"), &[]),
            metrics,
        };
        for event in LIFECYCLE_EVENTS {
            lifecycle
                .metrics
                .counter(&lifecycle.events, &[("event", event)]);
        }
        lifecycle.metrics.counter(&lifecycle.write_errors, &[]);
        Clients {
            conns: HashMap::new(),
            next_token: 0,
            polled: Vec::new(),
            first_slot: 0,
            max_conns,
            waker,
            lifecycle,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.conns.is_empty()
    }

    /// Accepts until `WouldBlock`; over-limit connections get one `busy`
    /// error line and are closed immediately.
    pub fn accept(&mut self, listener: &TcpListener) {
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if self.conns.len() >= self.max_conns {
                        self.lifecycle.event("conn_limit");
                        refuse_over_limit(&stream, self.max_conns);
                        continue;
                    }
                    let waker = Arc::clone(&self.waker);
                    let Ok(conn) = Conn::new(stream, waker, protocol::MAX_LINE_BYTES) else {
                        continue;
                    };
                    self.lifecycle.event("accepted");
                    self.lifecycle.live.fetch_add(1, Ordering::Relaxed);
                    self.conns.insert(self.next_token, conn);
                    self.next_token += 1;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    /// Appends every connection that wants reads (line reassembly, while
    /// not draining) or writes (non-empty queue) to the poll set.
    /// Connections waiting only on in-flight jobs are deliberately
    /// absent — `job_finished` wakes the loop — so a hung-up peer cannot
    /// spin the loop on an unmaskable `POLLHUP`.
    pub fn add_interest(&mut self, fds: &mut Vec<PollFd>, draining: bool) {
        self.polled.clear();
        self.first_slot = fds.len();
        for (token, conn) in &self.conns {
            let mut events = 0i16;
            if !draining && !conn.read_closed && !conn.close_after_flush {
                events |= POLLIN;
            }
            if conn.pending_write() {
                events |= POLLOUT;
            }
            if events != 0 {
                fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
                self.polled.push(*token);
            }
        }
    }

    /// The readiness pass over the slots [`add_interest`] filled: failed
    /// descriptors are marked dead for the close pass, `POLLOUT` re-arms
    /// a blocked writer, and readable sockets are drained, each complete
    /// line going to `dispatch`. An oversized line is answered with
    /// `bad_request` and closes the connection once that is flushed.
    ///
    /// [`add_interest`]: Clients::add_interest
    pub fn read_ready(
        &mut self,
        fds: &[PollFd],
        mut dispatch: impl FnMut(&Arc<ConnHandle>, &[u8]),
    ) {
        let slots = &fds[self.first_slot..];
        for (pfd, token) in slots.iter().zip(&self.polled) {
            let Some(conn) = self.conns.get_mut(token) else {
                continue;
            };
            if pfd.failed() {
                conn.handle.mark_dead();
                continue;
            }
            if pfd.writable() {
                conn.write_blocked = false;
            }
            if !pfd.readable() || conn.read_closed {
                continue;
            }
            let outcome = conn.read_ready();
            for line in &outcome.lines {
                dispatch(&conn.handle, line);
            }
            if outcome.overflow {
                self.lifecycle.event("line_overflow");
                conn.handle.send_line(&protocol::err_line(
                    0,
                    ErrorCode::BadRequest,
                    &format!(
                        "request line too long (max {} bytes)",
                        protocol::MAX_LINE_BYTES
                    ),
                ));
                conn.close_after_flush = true;
            }
            if outcome.eof {
                self.lifecycle.event("read_eof");
            }
            if outcome.error {
                conn.handle.mark_dead();
            }
        }
    }

    /// Flushes everything queued (by workers since the last poll, or by
    /// dispatch just now), unless the socket reported `WouldBlock` and
    /// has not signaled writable again.
    pub fn flush(&mut self) {
        for conn in self.conns.values_mut() {
            if conn.flush_failed() {
                self.lifecycle.write_error("write_error");
            }
        }
    }

    /// Closes dead sockets, overflowed write queues, flushed terminal
    /// errors and finished peers. `drain_deadline` is set once the front
    /// drains: then anything idle closes too — a client holding a
    /// half-sent request or an idle socket must not hold up the exit —
    /// and whatever is left past the deadline is force-closed.
    pub fn close_finished(&mut self, drain_deadline: Option<Instant>) {
        let draining = drain_deadline.is_some();
        let deadline_passed = drain_deadline.is_some_and(|d| Instant::now() >= d);
        let lifecycle = &self.lifecycle;
        self.conns.retain(|_, conn| {
            let idle = !conn.pending_write() && conn.handle.jobs_in_flight() == 0;
            let close = if conn.handle.is_dead() {
                true
            } else if conn.handle.overflowed() {
                lifecycle.write_error("write_overflow");
                true
            } else if (conn.close_after_flush && !conn.pending_write())
                || (conn.read_closed && idle)
                || (draining && idle)
            {
                true
            } else if deadline_passed {
                lifecycle.event("drain_closed");
                true
            } else {
                false
            };
            if close {
                lifecycle.closed(conn);
            }
            !close
        });
    }
}

impl Drop for Clients {
    /// Teardown: anything still open (the loop broke out early) is
    /// closed and counted like any other close.
    fn drop(&mut self) {
        for conn in self.conns.values() {
            self.lifecycle.closed(conn);
        }
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
    fn clients_count_accepts_and_close_what_teardown_leaves_open() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let (waker, _rx) = Waker::pair().unwrap();
        let metrics = Arc::new(MetricsRegistry::new());
        let mut clients = Clients::new("test", Arc::clone(&metrics), waker, 8);
        let _peers: Vec<TcpStream> = (0..2)
            .map(|_| TcpStream::connect(listener.local_addr().unwrap()).unwrap())
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(30));
        clients.accept(&listener);
        let event = |e| metrics.counter_value("test_conn_lifecycle_total", &[("event", e)]);
        let live = || {
            metrics
                .gauge("test_connections", &[])
                .load(Ordering::Relaxed)
        };
        assert_eq!((event("accepted"), live()), (2, 2));
        drop(clients);
        assert_eq!((event("closed"), live()), (2, 0));
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
