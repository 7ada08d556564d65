//! The `renderd` TCP server: a single readiness-driven event loop in
//! front of a bounded work queue and a fixed worker pool.
//!
//! Threading model: ONE event-loop thread multiplexes every connection
//! with `poll(2)` (via the `polling` shim) over nonblocking `std::net`
//! sockets — no per-connection threads. The loop accepts, reassembles
//! newline-delimited requests from bounded per-connection buffers,
//! answers control commands (`stats`, `metrics`, `shutdown`) inline, and
//! pushes render/tune work onto a bounded queue drained by the worker
//! pool. A full queue is answered immediately with a structured `busy`
//! error — the service degrades by shedding load, never by buffering
//! unboundedly.
//!
//! Responses flow back through per-connection write queues
//! (`conn::ConnHandle`): workers enqueue and wake the loop, the
//! loop flushes when `poll` reports the socket writable. Write errors
//! surface in the loop's flush, mark the connection dead (workers skip
//! its remaining queued jobs), and count `renderd_write_errors_total`;
//! a client that stops reading hits the write-queue cap and is killed
//! rather than buffered without bound. Shutdown drains under a deadline:
//! connections holding half-sent requests or unread responses cannot
//! stall the exit forever.

use crate::cache::TreeCache;
use crate::conn::{self, drain_waker, Conn, ConnHandle, Flush, Waker};
use crate::protocol::{self, config_json, Command, ErrorCode, Request, SessionSpec};
use crate::session::{build_eager, run_query_batch, Objective, SessionManager};
use crate::store::ConfigStore;
use kdtune::raycast::render_with_options;
use kdtune::{build, Algorithm, BuildParams, BuiltTree, Camera, RenderOptions};
use kdtune_telemetry::trace::TraceContext;
use kdtune_telemetry::{self as telemetry, json::JsonValue, MetricsRecorder, MetricsRegistry};
use polling::{PollFd, POLLIN, POLLOUT};
use std::collections::{HashMap, VecDeque};
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// How `renderd` is configured at bind time.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address; use port 0 to bind an ephemeral port (tests).
    pub addr: String,
    /// Worker threads draining the render/tune queue.
    pub workers: usize,
    /// Maximum queued jobs before requests are answered `busy`.
    pub queue_capacity: usize,
    /// Tree cache capacity in bytes.
    pub cache_bytes: usize,
    /// Path of the JSONL tuned-config store.
    pub store_path: std::path::PathBuf,
    /// Requests whose queue+handle time reaches this threshold are
    /// captured as exemplar traces (`server.trace` events and the
    /// `slow` section of `stats`).
    pub slow_ms: u64,
    /// Maximum simultaneous connections; excess accepts are answered
    /// with a `busy` error line and closed.
    pub max_conns: usize,
    /// Shutdown drain deadline: connections still holding unflushed
    /// responses or in-flight jobs past this are force-closed.
    pub drain_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:7464".into(),
            workers: 2,
            queue_capacity: 64,
            cache_bytes: crate::cache::DEFAULT_CAPACITY_BYTES,
            store_path: "renderd_configs.jsonl".into(),
            slow_ms: 250,
            max_conns: 1024,
            drain_ms: 5000,
        }
    }
}

/// How many slow-request exemplars `stats` retains, newest first.
const SLOW_TRACE_CAP: usize = 16;

/// Poll timeout while serving; wakes are event-driven (sockets, waker),
/// so this only bounds gauge staleness between idle iterations.
const POLL_IDLE_MS: i32 = 250;

/// Poll timeout while draining, so the drain deadline is observed
/// promptly even with no socket activity.
const POLL_DRAIN_MS: i32 = 25;

/// Request counters, updated lock-free from the loop and workers.
#[derive(Default)]
struct Counters {
    received: AtomicU64,
    ok: AtomicU64,
    errors: AtomicU64,
    busy: AtomicU64,
    renders: AtomicU64,
    tunes: AtomicU64,
    queries: AtomicU64,
}

struct Job {
    request: Request,
    writer: Arc<ConnHandle>,
    received: Instant,
    trace: TraceContext,
}

enum Push {
    Queued,
    Busy,
    Closed,
}

/// Bounded MPMC queue on std primitives (the parking_lot shim has no
/// Condvar). Poisoning is recovered everywhere: a panicking worker must
/// not wedge the queue for the rest of the pool.
struct JobQueue {
    state: Mutex<QueueState>,
    available: Condvar,
    capacity: usize,
}

#[derive(Default)]
struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

impl JobQueue {
    fn new(capacity: usize) -> JobQueue {
        JobQueue {
            state: Mutex::new(QueueState::default()),
            available: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push(&self, job: Job) -> Push {
        let mut state = self.lock();
        if state.closed {
            return Push::Closed;
        }
        if state.jobs.len() >= self.capacity {
            return Push::Busy;
        }
        state.jobs.push_back(job);
        self.available.notify_one();
        Push::Queued
    }

    /// Blocks for the next job; `None` once closed *and* drained, so
    /// shutdown finishes every job accepted before the close.
    fn pop(&self) -> Option<Job> {
        let mut state = self.lock();
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self
                .available
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn close(&self) {
        self.lock().closed = true;
        self.available.notify_all();
    }

    fn depth(&self) -> usize {
        self.lock().jobs.len()
    }
}

struct ServerState {
    addr: SocketAddr,
    workers: usize,
    queue: JobQueue,
    sessions: SessionManager,
    cache: TreeCache,
    counters: Counters,
    shutting_down: AtomicBool,
    started: Instant,
    metrics: Arc<MetricsRegistry>,
    slow_us: u64,
    slow_traces: parking_lot::Mutex<VecDeque<JsonValue>>,
    /// Live connection count, maintained by the event loop.
    connections: AtomicUsize,
    max_conns: usize,
    drain_ms: u64,
    /// Wakes the event loop out of `poll` (worker responses, shutdown).
    waker: Arc<Waker>,
}

/// A bound, not-yet-running server. [`run`](RenderServer::run) blocks
/// until a `shutdown` request drains the queue.
pub struct RenderServer {
    listener: TcpListener,
    waker_rx: UnixStream,
    state: Arc<ServerState>,
}

impl RenderServer {
    /// Opens the store and binds the listen socket.
    pub fn bind(config: ServerConfig) -> std::io::Result<RenderServer> {
        let store = Arc::new(ConfigStore::open(&config.store_path)?);
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let metrics = Arc::new(MetricsRegistry::new());
        preregister_series(&metrics);
        let (waker, waker_rx) = Waker::pair()?;
        let state = Arc::new(ServerState {
            addr,
            workers: config.workers.max(1),
            queue: JobQueue::new(config.queue_capacity),
            sessions: SessionManager::new(store),
            cache: TreeCache::new(config.cache_bytes),
            counters: Counters::default(),
            shutting_down: AtomicBool::new(false),
            started: Instant::now(),
            metrics,
            slow_us: config.slow_ms.saturating_mul(1000),
            slow_traces: parking_lot::Mutex::new(VecDeque::new()),
            connections: AtomicUsize::new(0),
            max_conns: config.max_conns.max(1),
            drain_ms: config.drain_ms,
            waker,
        });
        Ok(RenderServer {
            listener,
            waker_rx,
            state,
        })
    }

    /// The actual bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Serves until shutdown: spawns the worker pool, runs the event
    /// loop on the calling thread, then joins the workers once draining
    /// finishes.
    ///
    /// While serving, a [`MetricsRecorder`] is installed as the process
    /// recorder so the full record stream (requests, cache ops, tuner
    /// steps, frames, build levels) folds into the live registry. Any
    /// recorder already installed (e.g. a `--trace` JSONL sink) keeps
    /// receiving every record via tee, and is restored on exit.
    ///
    /// `RENDERD_DISABLE_METRICS=1` skips the install, leaving the
    /// registry empty — only useful for A/B-measuring the recorder's
    /// overhead (see EXPERIMENTS.md); `stats`/`metrics` then report
    /// zeroed series.
    pub fn run(self) -> std::io::Result<()> {
        let state = self.state;
        let disable_metrics = std::env::var("RENDERD_DISABLE_METRICS").is_ok_and(|v| v == "1");
        let prev = telemetry::clear_recorder();
        if !disable_metrics {
            let recorder = match prev.clone() {
                Some(next) => MetricsRecorder::with_next(Arc::clone(&state.metrics), next),
                None => MetricsRecorder::new(Arc::clone(&state.metrics)),
            };
            telemetry::set_recorder(Arc::new(recorder));
        } else if let Some(next) = prev.clone() {
            telemetry::set_recorder(next);
        }
        telemetry::event_owned(
            "server.lifecycle",
            vec![
                ("op", "start".into()),
                ("addr", state.addr.to_string().into()),
                ("workers", state.workers.into()),
            ],
        );
        let workers: Vec<_> = (0..state.workers)
            .map(|i| {
                let state = Arc::clone(&state);
                std::thread::Builder::new()
                    .name(format!("renderd-worker-{i}"))
                    .spawn(move || worker_loop(&state))
                    .expect("spawn worker")
            })
            .collect();

        event_loop(&state, &self.listener, &self.waker_rx);

        // The event loop exits only after the queue is closed; workers
        // finish whatever was accepted before the close and stop.
        for worker in workers {
            let _ = worker.join();
        }
        telemetry::event_owned(
            "server.lifecycle",
            vec![
                ("op", "stop".into()),
                ("uptime_secs", state.started.elapsed().as_secs_f64().into()),
                (
                    "requests",
                    state.counters.received.load(Ordering::Relaxed).into(),
                ),
            ],
        );
        telemetry::flush();
        telemetry::clear_recorder();
        if let Some(prev) = prev {
            telemetry::set_recorder(prev);
        }
        Ok(())
    }
}

/// One step of `renderd_conn_lifecycle_total{event=...}`.
fn conn_event(state: &ServerState, event: &'static str) {
    state
        .metrics
        .add("renderd_conn_lifecycle_total", &[("event", event)], 1);
}

/// The readiness-driven core: accepts, reads, dispatches, flushes, and
/// closes every connection from one thread. Returns once shutdown has
/// drained (or the drain deadline force-closed the stragglers).
fn event_loop(state: &Arc<ServerState>, listener: &TcpListener, waker_rx: &UnixStream) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token: u64 = 0;
    let mut drain_deadline: Option<Instant> = None;
    let mut fds: Vec<PollFd> = Vec::new();
    let mut tokens: Vec<u64> = Vec::new();

    loop {
        let draining = state.shutting_down.load(Ordering::SeqCst);
        if draining && drain_deadline.is_none() {
            drain_deadline = Some(Instant::now() + Duration::from_millis(state.drain_ms));
        }

        // Interest set: the waker, the listener (while serving), and
        // every connection that wants reads (line reassembly) or writes
        // (non-empty queue). Connections waiting only on in-flight jobs
        // are deliberately absent — `job_finished` wakes the loop — so a
        // hung-up peer cannot spin the loop on an unmaskable `POLLHUP`.
        fds.clear();
        tokens.clear();
        fds.push(PollFd::new(waker_rx.as_raw_fd(), POLLIN));
        let accept_slot = if draining {
            None
        } else {
            fds.push(PollFd::new(listener.as_raw_fd(), POLLIN));
            Some(fds.len() - 1)
        };
        let conn_base = fds.len();
        for (token, conn) in conns.iter() {
            let mut events = 0i16;
            if !draining && !conn.read_closed && !conn.close_after_flush {
                events |= POLLIN;
            }
            if conn.pending_write() {
                events |= POLLOUT;
            }
            if events != 0 {
                fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
                tokens.push(*token);
            }
        }

        let timeout = if draining {
            POLL_DRAIN_MS
        } else {
            POLL_IDLE_MS
        };
        if polling::wait(&mut fds, timeout).is_err() {
            // poll itself failing is unrecoverable for the loop; close
            // everything and let shutdown semantics take over.
            break;
        }

        if fds[0].readable() {
            drain_waker(waker_rx);
        }
        if let Some(slot) = accept_slot {
            if fds[slot].readable() {
                accept_ready(state, listener, &mut conns, &mut next_token);
            }
        }

        // Readiness per connection: reads reassemble and dispatch lines,
        // `POLLOUT` re-arms a previously blocked writer, and failed
        // descriptors are marked dead for the close pass below.
        for (i, token) in tokens.iter().enumerate() {
            let Some(conn) = conns.get_mut(token) else {
                continue;
            };
            let pfd = &fds[conn_base + i];
            if pfd.failed() {
                conn.handle.mark_dead();
                continue;
            }
            if pfd.writable() {
                conn.write_blocked = false;
            }
            if pfd.readable() && !conn.read_closed {
                process_readable(state, conn);
            }
        }

        // Flush pass: anything queued (by workers since the last poll, or
        // by inline handling just above) goes out now unless the socket
        // reported `WouldBlock` and has not signaled writable again.
        for conn in conns.values_mut() {
            let flushable = !conn.handle.is_dead() && conn.pending_write() && !conn.write_blocked;
            if flushable && conn.flush() == Flush::Error {
                state.metrics.add("renderd_write_errors_total", &[], 1);
                conn_event(state, "write_error");
            }
        }

        // Close pass: dead sockets, overflowed write queues, flushed
        // terminal errors, finished peers, and drained/expired shutdown.
        let deadline_passed = drain_deadline.is_some_and(|d| Instant::now() >= d);
        let mut to_close: Vec<u64> = Vec::new();
        for (token, conn) in conns.iter() {
            let idle = !conn.pending_write() && conn.handle.jobs_in_flight() == 0;
            let close = if conn.handle.is_dead() {
                true
            } else if conn.handle.overflowed() {
                state.metrics.add("renderd_write_errors_total", &[], 1);
                conn_event(state, "write_overflow");
                conn.handle.mark_dead();
                true
            } else if (conn.close_after_flush && !conn.pending_write())
                || (conn.read_closed && idle)
                || (draining && idle)
            {
                // Terminal error flushed, peer finished, or — during a
                // drain — anything idle: drain completion must not wait
                // on a client holding a half-sent request or an idle
                // socket open.
                true
            } else if draining && deadline_passed {
                conn_event(state, "drain_closed");
                conn.handle.mark_dead();
                true
            } else {
                false
            };
            if close {
                to_close.push(*token);
            }
        }
        for token in to_close {
            if let Some(conn) = conns.remove(&token) {
                conn.handle.mark_dead();
                conn_event(state, "closed");
                state.connections.fetch_sub(1, Ordering::Relaxed);
            }
        }

        if draining && conns.is_empty() {
            break;
        }
    }

    // Anything still open (poll failure path) is torn down on drop.
    for (_, conn) in conns.drain() {
        conn.handle.mark_dead();
        conn_event(state, "closed");
        state.connections.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Accepts until `WouldBlock`; over-limit connections get one `busy`
/// error line and are closed immediately.
fn accept_ready(
    state: &Arc<ServerState>,
    listener: &TcpListener,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if conns.len() >= state.max_conns {
                    conn_event(state, "conn_limit");
                    conn::refuse_over_limit(&stream, state.max_conns);
                    continue;
                }
                match Conn::new(stream, Arc::clone(&state.waker), protocol::MAX_LINE_BYTES) {
                    Ok(conn) => {
                        conn_event(state, "accepted");
                        state.connections.fetch_add(1, Ordering::Relaxed);
                        let token = *next_token;
                        *next_token += 1;
                        conns.insert(token, conn);
                    }
                    Err(_) => continue,
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
}

/// Drains a readable connection: dispatches every complete line, rejects
/// oversized ones, and notes EOF / hard errors for the close pass.
fn process_readable(state: &Arc<ServerState>, conn: &mut Conn) {
    let outcome = conn.read_ready();
    for line in &outcome.lines {
        handle_line(state, &conn.handle, line);
    }
    if outcome.overflow {
        conn_event(state, "line_overflow");
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
        conn_event(state, "read_eof");
    }
    if outcome.error {
        conn.handle.mark_dead();
    }
}

/// Registers every baseline series the server exports so the `metrics`
/// exposition is schema-complete from the first scrape — CI greps for
/// these names even before traffic arrives.
fn preregister_series(metrics: &MetricsRegistry) {
    for cmd in ["render", "tune_step", "query", "stats", "metrics"] {
        metrics.counter("renderd_requests_total", &[("cmd", cmd), ("code", "ok")]);
    }
    metrics.counter("renderd_busy_total", &[]);
    metrics.counter("renderd_slow_requests_total", &[("cmd", "render")]);
    metrics.counter("renderd_write_errors_total", &[]);
    metrics.counter("renderd_jobs_skipped_total", &[]);
    for event in [
        "accepted",
        "closed",
        "read_eof",
        "write_error",
        "line_overflow",
        "write_overflow",
        "conn_limit",
        "drain_closed",
    ] {
        metrics.counter("renderd_conn_lifecycle_total", &[("event", event)]);
    }
    for op in ["hit", "miss", "evict"] {
        metrics.counter("renderd_cache_ops_total", &[("op", op)]);
    }
    metrics.counter("renderd_sessions_created_total", &[]);
    for cmd in ["render", "tune_step", "query"] {
        metrics.histogram("renderd_request_us", &[("cmd", cmd)]);
        metrics.histogram("renderd_queue_wait_us", &[("cmd", cmd)]);
    }
    for stage in ["build", "render", "serialize", "tune", "query"] {
        metrics.histogram("renderd_stage_us", &[("stage", stage)]);
    }
    metrics.histogram("renderd_query_us", &[]);
    for gauge in [
        "renderd_connections",
        "renderd_queue_depth",
        "renderd_queue_capacity",
        "renderd_workers",
        "renderd_sessions",
        "renderd_cache_entries",
        "renderd_cache_bytes",
        "renderd_uptime_seconds",
    ] {
        metrics.gauge(gauge, &[]);
    }
}

/// Refreshes point-in-time gauges from server state; called before every
/// snapshot or exposition so scrapes always see current values.
fn refresh_gauges(state: &ServerState) {
    let m = &state.metrics;
    m.gauge_set(
        "renderd_connections",
        &[],
        state.connections.load(Ordering::Relaxed) as i64,
    );
    m.gauge_set("renderd_queue_depth", &[], state.queue.depth() as i64);
    m.gauge_set("renderd_queue_capacity", &[], state.queue.capacity as i64);
    m.gauge_set("renderd_workers", &[], state.workers as i64);
    m.gauge_set("renderd_sessions", &[], state.sessions.count() as i64);
    let cache = state.cache.stats();
    m.gauge_set("renderd_cache_entries", &[], cache.entries as i64);
    m.gauge_set("renderd_cache_bytes", &[], cache.bytes as i64);
    m.gauge_set(
        "renderd_uptime_seconds",
        &[],
        state.started.elapsed().as_secs() as i64,
    );
}

fn handle_line(state: &Arc<ServerState>, writer: &Arc<ConnHandle>, raw: &[u8]) {
    let line = String::from_utf8_lossy(raw);
    let line = line.trim();
    if line.is_empty() {
        return;
    }
    state.counters.received.fetch_add(1, Ordering::Relaxed);
    let request = match protocol::parse_request(line) {
        Ok(request) => request,
        Err((id, code, message)) => {
            state.counters.errors.fetch_add(1, Ordering::Relaxed);
            request_event("parse", id, false, Some(code), 0, 0, None);
            writer.send_line(&protocol::err_line(id, code, &message));
            return;
        }
    };

    match request.cmd {
        Command::Stats => {
            let t0 = Instant::now();
            let result = stats_json(state);
            state.counters.ok.fetch_add(1, Ordering::Relaxed);
            request_event(
                "stats",
                request.id,
                true,
                None,
                t0.elapsed().as_micros() as u64,
                0,
                None,
            );
            writer.send_line(&protocol::ok_line_traced(
                request.id,
                request.trace.as_deref(),
                result,
            ));
        }
        Command::Metrics { mergeable } => {
            let t0 = Instant::now();
            refresh_gauges(state);
            // `format:"json"` (a router's fan-out) gets the bucket-level
            // snapshot that merges losslessly; plain clients get the
            // Prometheus text they always did.
            let result = if mergeable {
                JsonValue::object([("metrics", state.metrics.mergeable_json(telemetry::now_us()))])
            } else {
                let text = state.metrics.prometheus_text(telemetry::now_us());
                JsonValue::object([("text", JsonValue::from(text))])
            };
            state.counters.ok.fetch_add(1, Ordering::Relaxed);
            request_event(
                "metrics",
                request.id,
                true,
                None,
                t0.elapsed().as_micros() as u64,
                0,
                None,
            );
            writer.send_line(&protocol::ok_line_traced(
                request.id,
                request.trace.as_deref(),
                result,
            ));
        }
        Command::Shutdown => {
            state.counters.ok.fetch_add(1, Ordering::Relaxed);
            let result = JsonValue::object([
                ("draining", JsonValue::from(state.queue.depth())),
                ("sessions", state.sessions.count().into()),
            ]);
            request_event("shutdown", request.id, true, None, 0, 0, None);
            writer.send_line(&protocol::ok_line_traced(
                request.id,
                request.trace.as_deref(),
                result,
            ));
            initiate_shutdown(state);
        }
        Command::Render { .. } | Command::TuneStep { .. } | Command::Query { .. } => {
            if state.shutting_down.load(Ordering::SeqCst) {
                state.counters.errors.fetch_add(1, Ordering::Relaxed);
                writer.send_line(&protocol::err_line_traced(
                    request.id,
                    request.trace.as_deref(),
                    ErrorCode::ShuttingDown,
                    "server is draining",
                ));
                return;
            }
            let id = request.id;
            let cmd = cmd_name(&request.cmd);
            let trace = TraceContext::new(request.trace.clone());
            let client_tag = request.trace.clone();
            // Count the job before pushing: a worker may pop and finish
            // it before `push` even returns.
            writer.job_started();
            match state.queue.push(Job {
                request,
                writer: Arc::clone(writer),
                received: Instant::now(),
                trace,
            }) {
                Push::Queued => {}
                Push::Busy => {
                    writer.job_finished();
                    state.counters.busy.fetch_add(1, Ordering::Relaxed);
                    request_event(cmd, id, false, Some(ErrorCode::Busy), 0, 0, None);
                    writer.send_line(&protocol::err_line_traced(
                        id,
                        client_tag.as_deref(),
                        ErrorCode::Busy,
                        &format!("queue full (capacity {})", state.queue.capacity),
                    ));
                }
                Push::Closed => {
                    writer.job_finished();
                    state.counters.errors.fetch_add(1, Ordering::Relaxed);
                    writer.send_line(&protocol::err_line_traced(
                        id,
                        client_tag.as_deref(),
                        ErrorCode::ShuttingDown,
                        "server is draining",
                    ));
                }
            }
        }
    }
}

fn initiate_shutdown(state: &Arc<ServerState>) {
    if state.shutting_down.swap(true, Ordering::SeqCst) {
        return; // already draining
    }
    telemetry::event(
        "server.lifecycle",
        &[
            ("op", "drain".into()),
            ("queued", state.queue.depth().into()),
        ],
    );
    state.queue.close();
    // The event loop may be asleep in poll(); nudge it so it observes
    // the flag and enters the drain phase.
    state.waker.wake();
}

fn worker_loop(state: &Arc<ServerState>) {
    while let Some(mut job) = state.queue.pop() {
        // The client is already gone (write error, overflow kill, or
        // force-close): rendering for it would be pure waste.
        if job.writer.is_dead() {
            state.metrics.add("renderd_jobs_skipped_total", &[], 1);
            job.writer.job_finished();
            continue;
        }
        let queued_us = job.received.elapsed().as_micros() as u64;
        job.trace.stage("queue", queued_us);
        // While the guard lives, every record this thread dispatches
        // (request events, build spans, tuner steps) carries the trace id.
        let _guard = telemetry::trace::enter(job.trace.id);
        let t0 = Instant::now();
        let outcome = {
            let trace = &mut job.trace;
            catch_unwind(AssertUnwindSafe(|| handle_job(state, &job.request, trace)))
        };
        let result = match outcome {
            Ok(result) => result,
            Err(_) => Err((ErrorCode::Internal, "request handler panicked".to_string())),
        };
        let duration_us = t0.elapsed().as_micros() as u64;
        let cmd = cmd_name(&job.request.cmd);
        let line = match result {
            Ok(mut value) => {
                // Measure serialization on the result body (the envelope
                // adds a constant few bytes), then fold it into the
                // breakdown the client receives.
                let t_ser = Instant::now();
                let body = value.to_string();
                let serialize_us = t_ser.elapsed().as_micros() as u64;
                drop(body);
                job.trace.stage("serialize", serialize_us);
                if let JsonValue::Object(map) = &mut value {
                    map.insert("trace_id".into(), job.trace.id.into());
                    map.insert("stages".into(), job.trace.stages_json());
                }
                state.counters.ok.fetch_add(1, Ordering::Relaxed);
                request_event(
                    cmd,
                    job.request.id,
                    true,
                    None,
                    duration_us,
                    queued_us,
                    Some(&job.trace),
                );
                note_if_slow(state, cmd, &job.trace, duration_us + queued_us);
                protocol::ok_line_traced(job.request.id, job.trace.client_tag.as_deref(), value)
            }
            Err((code, message)) => {
                state.counters.errors.fetch_add(1, Ordering::Relaxed);
                request_event(
                    cmd,
                    job.request.id,
                    false,
                    Some(code),
                    duration_us,
                    queued_us,
                    Some(&job.trace),
                );
                protocol::err_line_traced(
                    job.request.id,
                    job.trace.client_tag.as_deref(),
                    code,
                    &message,
                )
            }
        };
        job.writer.send_line(&line);
        job.writer.job_finished();
    }
}

/// Captures a slow-request exemplar: a `server.trace` event for the
/// JSONL sink (and the `renderd_slow_requests_total` series), plus an
/// entry in the bounded ring `stats` exposes under `"slow"`.
fn note_if_slow(state: &Arc<ServerState>, cmd: &'static str, trace: &TraceContext, total_us: u64) {
    if total_us < state.slow_us {
        return;
    }
    let mut fields: Vec<(&'static str, telemetry::Value)> = vec![
        ("cmd", cmd.into()),
        ("trace_id", trace.id.into()),
        ("total_us", total_us.into()),
    ];
    if let Some(tag) = &trace.client_tag {
        fields.push(("client_tag", tag.clone().into()));
    }
    for (name, us) in trace.stages() {
        fields.push((stage_field_name(name), (*us).into()));
    }
    telemetry::event_owned("server.trace", fields);

    let mut exemplar = vec![
        ("cmd".to_string(), JsonValue::from(cmd)),
        ("trace_id".to_string(), trace.id.into()),
        ("total_us".to_string(), total_us.into()),
        ("stages".to_string(), trace.stages_json()),
    ];
    if let Some(tag) = &trace.client_tag {
        exemplar.push(("client_trace".to_string(), tag.as_str().into()));
    }
    let mut ring = state.slow_traces.lock();
    ring.push_front(JsonValue::Object(exemplar.into_iter().collect()));
    ring.truncate(SLOW_TRACE_CAP);
}

/// Maps a stage name to its `_us` event-field spelling. Static strings
/// because `Record` fields are `&'static str` keyed; the set of stages
/// is closed (see `TraceContext`).
fn stage_field_name(stage: &str) -> &'static str {
    match stage {
        "queue" => "queue_us",
        "build" => "build_us",
        "render" => "render_us",
        "tune" => "tune_us",
        "query" => "query_us",
        "serialize" => "serialize_us",
        _ => "stage_us",
    }
}

fn cmd_name(cmd: &Command) -> &'static str {
    match cmd {
        Command::Render { .. } => "render",
        Command::TuneStep { .. } => "tune_step",
        Command::Query { .. } => "query",
        Command::Stats => "stats",
        Command::Metrics { .. } => "metrics",
        Command::Shutdown => "shutdown",
    }
}

fn request_event(
    cmd: &'static str,
    id: i64,
    ok: bool,
    code: Option<ErrorCode>,
    duration_us: u64,
    queued_us: u64,
    trace: Option<&TraceContext>,
) {
    let mut fields: Vec<(&'static str, telemetry::Value)> = vec![
        ("cmd", cmd.into()),
        ("id", id.into()),
        ("ok", ok.into()),
        ("code", code.map(ErrorCode::as_str).unwrap_or("-").into()),
        ("duration_us", duration_us.into()),
        ("queued_us", queued_us.into()),
    ];
    if let Some(trace) = trace {
        for (name, us) in trace.stages() {
            if *name != "queue" {
                fields.push((stage_field_name(name), (*us).into()));
            }
        }
    }
    telemetry::event_owned("server.request", fields);
}

fn handle_job(
    state: &Arc<ServerState>,
    request: &Request,
    trace: &mut TraceContext,
) -> Result<JsonValue, (ErrorCode, String)> {
    match &request.cmd {
        Command::Render { spec, frame } => {
            state.counters.renders.fetch_add(1, Ordering::Relaxed);
            handle_render(state, spec, *frame, trace)
        }
        Command::TuneStep { spec, steps } => {
            state.counters.tunes.fetch_add(1, Ordering::Relaxed);
            handle_tune(state, spec, *steps, trace)
        }
        Command::Query { spec, seed } => {
            state.counters.queries.fetch_add(1, Ordering::Relaxed);
            handle_query(state, spec, *seed, trace)
        }
        // Control commands never reach the queue.
        Command::Stats | Command::Metrics { .. } | Command::Shutdown => {
            Err((ErrorCode::Internal, "control command on work queue".into()))
        }
    }
}

/// Cache key: every input that determines the packed tree bit-for-bit.
/// `r` matters only for lazy builds (query sessions cache their eager
/// expansion) but is cheap to always include. Workloads share entries on
/// purpose: the same (scene, algo, params) yields the same tree whether
/// rays or points traverse it.
fn cache_key(spec: &SessionSpec, frame: usize, params: &BuildParams) -> String {
    format!(
        "{}@{}/f{}/{}|ci{}cb{}s{}r{}",
        spec.scene,
        spec.scale,
        frame,
        spec.algo.name(),
        params.sah.ci,
        params.sah.cb,
        params.s,
        params.r,
    )
}

fn handle_render(
    state: &Arc<ServerState>,
    spec: &SessionSpec,
    frame: usize,
    trace: &mut TraceContext,
) -> Result<JsonValue, (ErrorCode, String)> {
    let session = state.sessions.get_or_create(spec)?;
    // Snapshot what we need, then drop the session lock before building
    // or rendering: render work must not serialize behind one session.
    let (params, tuned, values, scene) = {
        let mut session = session.lock();
        session.served += 1;
        let Objective::Render(pipeline) = session.objective() else {
            return Err((ErrorCode::Internal, "render on a query session".into()));
        };
        let scene = pipeline.scene().clone();
        let (params, tuned) = session.current_params();
        (params, tuned, session.best_values(), scene)
    };
    let frame = frame % scene.frame_count().max(1);
    let mesh = scene.frame(frame);
    let view = scene.view;
    let camera = Camera::look_at(
        view.eye,
        view.target,
        view.up,
        view.fov_deg,
        spec.res,
        spec.res,
    );
    let options = RenderOptions::scalar().with_packet_width(spec.packet_width);

    let build_started = Instant::now();
    let (cache, tree, build_secs) = if spec.algo == Algorithm::Lazy {
        // Lazy trees expand on demand per ray distribution; sharing one
        // across requests would leak expansion state, so bypass the cache.
        let built = build(Arc::clone(&mesh), spec.algo, &params);
        let build_secs = build_started.elapsed().as_secs_f64();
        let BuiltTree::Lazy(lazy) = built else {
            return Err((
                ErrorCode::Internal,
                "lazy build returned an eager tree".into(),
            ));
        };
        trace.stage("build", (build_secs * 1e6) as u64);
        let render_started = Instant::now();
        let (_fb, stats, _packets) =
            render_with_options(&lazy, &mesh, &camera, view.light, &options);
        let render_secs = render_started.elapsed().as_secs_f64();
        trace.stage("render", (render_secs * 1e6) as u64);
        return Ok(render_result(
            spec,
            frame,
            "bypass",
            tuned,
            &values,
            build_secs,
            render_secs,
            &stats,
        ));
    } else {
        let key = cache_key(spec, frame, &params);
        let (tree, hit) = state.cache.get_or_build(&key, || {
            match build(Arc::clone(&mesh), spec.algo, &params) {
                BuiltTree::Eager(tree) => Arc::new(tree),
                BuiltTree::Lazy(_) => unreachable!("eager algorithm produced a lazy tree"),
            }
        });
        (
            if hit { "hit" } else { "miss" },
            tree,
            build_started.elapsed().as_secs_f64(),
        )
    };

    trace.stage("build", (build_secs * 1e6) as u64);
    let render_started = Instant::now();
    let (_fb, stats, _packets) =
        render_with_options(tree.as_ref(), &mesh, &camera, view.light, &options);
    let render_secs = render_started.elapsed().as_secs_f64();
    trace.stage("render", (render_secs * 1e6) as u64);
    Ok(render_result(
        spec,
        frame,
        cache,
        tuned,
        &values,
        build_secs,
        render_secs,
        &stats,
    ))
}

#[allow(clippy::too_many_arguments)]
fn render_result(
    spec: &SessionSpec,
    frame: usize,
    cache: &str,
    tuned: bool,
    values: &Option<Vec<i64>>,
    build_secs: f64,
    render_secs: f64,
    stats: &kdtune::raycast::RenderStats,
) -> JsonValue {
    JsonValue::object([
        ("scene", JsonValue::from(spec.scene.as_str())),
        ("frame", frame.into()),
        ("algo", spec.algo.name().into()),
        ("res", spec.res.into()),
        ("cache", cache.into()),
        ("tuned", tuned.into()),
        ("config", config_json(values.as_deref())),
        ("build_ms", (build_secs * 1e3).into()),
        ("render_ms", (render_secs * 1e3).into()),
        ("primary_rays", stats.primary_rays.into()),
        ("primary_hits", stats.primary_hits.into()),
        ("shadow_rays", stats.shadow_rays.into()),
        ("occluded", stats.occluded.into()),
    ])
}

fn handle_query(
    state: &Arc<ServerState>,
    spec: &SessionSpec,
    seed: u64,
    trace: &mut TraceContext,
) -> Result<JsonValue, (ErrorCode, String)> {
    let session = state.sessions.get_or_create(spec)?;
    // Snapshot under the lock, then build and query without it: batches
    // for one session must not serialize behind each other.
    let (params, tuned, values, mesh, shape, radius) = {
        let mut session = session.lock();
        session.served += 1;
        let Objective::Query {
            mesh,
            shape,
            radius,
            ..
        } = session.objective()
        else {
            return Err((ErrorCode::Internal, "query on a render session".into()));
        };
        let (mesh, shape, radius) = (Arc::clone(mesh), *shape, *radius);
        let (params, tuned) = session.current_params();
        (params, tuned, session.best_values(), mesh, shape, radius)
    };
    // Query trees are always eager (lazy builds are force-expanded), so
    // unlike the lazy render path they are safe to cache and share.
    let build_started = Instant::now();
    let key = cache_key(spec, 0, &params);
    let (tree, hit) = state.cache.get_or_build(&key, || {
        Arc::new(build_eager(Arc::clone(&mesh), spec.algo, &params))
    });
    let build_secs = build_started.elapsed().as_secs_f64();
    trace.stage("build", (build_secs * 1e6) as u64);

    let query_started = Instant::now();
    let points = kdtune_scenes::sample_points(&mesh, shape.sampler, shape.batch as usize, seed);
    let stats = run_query_batch(tree.as_ref(), &points, shape.k as usize, radius);
    let query_secs = query_started.elapsed().as_secs_f64();
    trace.stage("query", (query_secs * 1e6) as u64);

    Ok(JsonValue::object([
        ("scene", JsonValue::from(spec.scene.as_str())),
        ("algo", spec.algo.name().into()),
        ("workload", "query".into()),
        ("sampler", shape.sampler.name().into()),
        ("batch", shape.batch.into()),
        ("k", shape.k.into()),
        ("radius_pm", shape.radius_pm.into()),
        ("seed", seed.into()),
        ("cache", if hit { "hit" } else { "miss" }.into()),
        ("tuned", tuned.into()),
        ("config", config_json(values.as_deref())),
        ("build_ms", (build_secs * 1e3).into()),
        ("query_ms", (query_secs * 1e3).into()),
        ("points", stats.points.into()),
        ("knn_results", stats.knn_results.into()),
        ("radius_results", stats.radius_results.into()),
        ("mean_knn_far_d2", stats.mean_knn_far_d2.into()),
    ]))
}

fn handle_tune(
    state: &Arc<ServerState>,
    spec: &SessionSpec,
    steps: usize,
    trace: &mut TraceContext,
) -> Result<JsonValue, (ErrorCode, String)> {
    let session = state.sessions.get_or_create(spec)?;
    let mut session = session.lock();
    let t0 = Instant::now();
    let summary = session.tune(steps, state.sessions.store());
    trace.stage("tune", t0.elapsed().as_micros() as u64);
    Ok(JsonValue::object([
        ("session", JsonValue::from(spec.id())),
        ("workload", spec.workload.name().into()),
        ("steps_run", summary.steps_run.into()),
        ("total_steps", summary.total_steps.into()),
        ("reason", summary.reason.as_str().into()),
        ("phase", summary.phase.as_str().into()),
        ("converged", summary.converged.into()),
        ("warm_started", session.warm_started().into()),
        ("persisted", summary.persisted.into()),
        ("best_config", config_json(Some(&summary.best_values))),
        ("best_cost_ms", (summary.best_cost * 1e3).into()),
    ]))
}

fn stats_json(state: &Arc<ServerState>) -> JsonValue {
    refresh_gauges(state);
    let cache = state.cache.stats();
    let counters = &state.counters;
    let slow: Vec<JsonValue> = state.slow_traces.lock().iter().cloned().collect();
    JsonValue::object([
        (
            "uptime_secs",
            JsonValue::from(state.started.elapsed().as_secs_f64()),
        ),
        ("addr", state.addr.to_string().into()),
        ("workers", state.workers.into()),
        (
            "connections",
            state.connections.load(Ordering::Relaxed).into(),
        ),
        ("max_conns", state.max_conns.into()),
        ("queue_depth", state.queue.depth().into()),
        ("queue_capacity", state.queue.capacity.into()),
        (
            "shutting_down",
            state.shutting_down.load(Ordering::SeqCst).into(),
        ),
        (
            "requests",
            JsonValue::object([
                (
                    "received",
                    JsonValue::from(counters.received.load(Ordering::Relaxed)),
                ),
                ("ok", counters.ok.load(Ordering::Relaxed).into()),
                ("errors", counters.errors.load(Ordering::Relaxed).into()),
                ("busy", counters.busy.load(Ordering::Relaxed).into()),
                ("renders", counters.renders.load(Ordering::Relaxed).into()),
                ("tune_steps", counters.tunes.load(Ordering::Relaxed).into()),
                ("queries", counters.queries.load(Ordering::Relaxed).into()),
            ]),
        ),
        (
            "cache",
            JsonValue::object([
                ("entries", JsonValue::from(cache.entries)),
                ("bytes", cache.bytes.into()),
                ("capacity_bytes", cache.capacity_bytes.into()),
                ("hits", cache.hits.into()),
                ("misses", cache.misses.into()),
                ("evictions", cache.evictions.into()),
                ("hit_rate", cache.hit_rate().into()),
            ]),
        ),
        (
            "sessions",
            JsonValue::object([
                ("count", JsonValue::from(state.sessions.count())),
                (
                    "ids",
                    state
                        .sessions
                        .ids()
                        .into_iter()
                        .map(JsonValue::from)
                        .collect::<Vec<_>>()
                        .into(),
                ),
                ("detail", JsonValue::Array(state.sessions.summaries())),
            ]),
        ),
        (
            "store",
            JsonValue::object([
                (
                    "path",
                    JsonValue::from(state.sessions.store().path().display().to_string()),
                ),
                ("entries", state.sessions.store().len().into()),
            ]),
        ),
        ("metrics", state.metrics.snapshot_json(telemetry::now_us())),
        ("slow", JsonValue::Array(slow)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_handle() -> Arc<ConnHandle> {
        let (waker, _rx) = Waker::pair().unwrap();
        ConnHandle::new(waker)
    }

    fn dummy_job(id: i64) -> Job {
        Job {
            request: Request {
                id,
                trace: None,
                cmd: Command::Stats,
            },
            writer: dummy_handle(),
            received: Instant::now(),
            trace: TraceContext::new(None),
        }
    }

    #[test]
    fn queue_rejects_overflow_with_busy_and_drains_after_close() {
        let queue = JobQueue::new(2);
        assert!(matches!(queue.push(dummy_job(1)), Push::Queued));
        assert!(matches!(queue.push(dummy_job(2)), Push::Queued));
        assert!(matches!(queue.push(dummy_job(3)), Push::Busy));
        assert_eq!(queue.depth(), 2);
        queue.close();
        assert!(matches!(queue.push(dummy_job(4)), Push::Closed));
        // Close drains: both accepted jobs still come out, then None.
        assert_eq!(queue.pop().map(|j| j.request.id), Some(1));
        assert_eq!(queue.pop().map(|j| j.request.id), Some(2));
        assert!(queue.pop().is_none());
    }

    #[test]
    fn pop_blocks_until_push_from_another_thread() {
        let queue = Arc::new(JobQueue::new(4));
        let popper = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.pop().map(|j| j.request.id))
        };
        std::thread::sleep(Duration::from_millis(30));
        assert!(matches!(queue.push(dummy_job(9)), Push::Queued));
        assert_eq!(popper.join().unwrap(), Some(9));
    }

    #[test]
    fn workers_skip_queued_jobs_for_dead_connections() {
        let store =
            std::env::temp_dir().join(format!("kdtune-skip-test-{}.jsonl", std::process::id()));
        std::fs::remove_file(&store).ok();
        let server = RenderServer::bind(ServerConfig {
            addr: "127.0.0.1:0".into(),
            store_path: store.clone(),
            ..ServerConfig::default()
        })
        .unwrap();
        let state = Arc::clone(&server.state);

        // A job whose client died while it sat in the queue.
        let mut job = dummy_job(7);
        job.writer = dummy_handle();
        let handle = Arc::clone(&job.writer);
        handle.job_started();
        handle.mark_dead();
        assert!(matches!(state.queue.push(job), Push::Queued));
        state.queue.close();
        worker_loop(&state);

        assert_eq!(
            state
                .metrics
                .counter_value("renderd_jobs_skipped_total", &[]),
            1,
            "dead-client job was skipped, not rendered"
        );
        assert_eq!(handle.jobs_in_flight(), 0, "in-flight accounting balanced");
        assert_eq!(
            handle.pending_bytes(),
            0,
            "no response was queued for the dead client"
        );
        std::fs::remove_file(&store).ok();
    }
}
