//! The `kdtune route` front: a consistent-hash router multiplexing
//! client connections over N `renderd` shard processes.
//!
//! Topology: clients speak the ordinary newline-delimited JSON protocol
//! to the router; the router classifies each request, hashes its session
//! key ([`crate::protocol::SessionSpec::id`] — scene@scale/algo/res/wN)
//! onto the shard `HashRing`, and forwards the request to the
//! owning shard over a persistent upstream connection — rewriting the
//! request id so concurrent clients multiplex safely over one upstream
//! pipe, and mapping it back on the response. Because the hash key *is*
//! the session key, each shard's byte-accounted tree cache and
//! warm-start ConfigStore only ever see their own slice of the keyspace:
//! shared-nothing partitioning in the style of distributed-memory
//! forest-of-octrees raycasting, with locality falling out of the
//! partitioning key.
//!
//! Threading model: ONE event-loop thread (the same `poll(2)`-driven
//! design as [`crate::server`], reusing the `conn` module wholesale) owns
//! every socket — downstream clients and upstream shards alike. There is
//! no worker pool: the router never renders, it only routes bytes, so a
//! single loop comfortably saturates the shards.
//!
//! Backpressure: each shard has a bounded count of router-side in-flight
//! requests and a bounded upstream write queue; when either cap is hit
//! the client gets a structured `busy` error immediately — exactly the
//! shed-don't-buffer discipline `renderd` itself applies at its queue.
//!
//! Failure semantics: a dead upstream (EOF, write error, child exit)
//! fails every request in flight on it with a structured `unavailable`
//! error — no hangs — and marks the shard down. Subsequent requests for
//! its keys re-hash clockwise to the next live shard. The router
//! reconnects (and, in spawn mode, respawns the child on a fresh
//! ephemeral port) with exponential backoff; once the shard is back, its
//! keyspace slice snaps back to it — no other key moves at any point.
//!
//! `stats` and `metrics` fan out to every live shard and merge: counters
//! summed, histograms merged bucket-by-bucket
//! ([`kdtune_telemetry::MergedMetrics`]), with a per-shard breakdown
//! under `shards` (stats) or `shard="i"`-labeled series (metrics).

use crate::conn::{self, drain_waker, Conn, ConnHandle, Flush, Waker};
use crate::protocol::{self, Command, ErrorCode, Request, SessionSpec};
use crate::shard::{HashRing, ShardProcess};
use kdtune_telemetry::{self as telemetry, json::JsonValue, MergedMetrics, MetricsRegistry};
use polling::{PollFd, POLLIN, POLLOUT};
use std::collections::{BTreeMap, HashMap};
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Upstream responses (stats with full metrics snapshots) far exceed the
/// request-line cap; shard connections get their own generous limit.
const SHARD_LINE_CAP: usize = 16 * 1024 * 1024;

/// Poll timeout while serving: short enough that reconnect/respawn
/// backoff timers fire promptly.
const POLL_IDLE_MS: i32 = 100;

/// Poll timeout while draining.
const POLL_DRAIN_MS: i32 = 25;

/// How long one upstream TCP connect attempt may block the loop. Shards
/// are same-host; a healthy one accepts instantly and a dead one refuses
/// instantly, so this only bounds the pathological half-up case.
const CONNECT_TIMEOUT_MS: u64 = 250;

/// How shards are provided to the router.
#[derive(Clone, Debug)]
pub enum ShardMode {
    /// Spawn `count` child processes from `command` (argv prefix; the
    /// router appends `--addr 127.0.0.1:0` and a per-shard `--store`
    /// path) and supervise them: a child that exits is respawned with
    /// backoff on a fresh ephemeral port.
    Spawn {
        /// Number of shard processes.
        count: usize,
        /// Argv prefix, e.g. `["/path/to/kdtune", "serve", "--workers", "1"]`.
        command: Vec<String>,
    },
    /// Attach to externally managed `renderd` processes at these
    /// addresses. The router reconnects to a lost shard but never
    /// spawns or shuts one down.
    Attach(Vec<String>),
}

/// Router configuration.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Listen address; port 0 binds an ephemeral port (tests).
    pub addr: String,
    /// Shard topology.
    pub shards: ShardMode,
    /// Maximum simultaneous client connections.
    pub max_conns: usize,
    /// Drain deadline after a `shutdown`, milliseconds.
    pub drain_ms: u64,
    /// Maximum router-side in-flight requests per shard before clients
    /// are shed with `busy`.
    pub pending_per_shard: usize,
    /// Initial reconnect/respawn backoff, milliseconds.
    pub reconnect_min_ms: u64,
    /// Backoff cap, milliseconds.
    pub reconnect_max_ms: u64,
    /// Base path for per-shard config stores in spawn mode: shard `i`
    /// gets `<base>.shard<i>.jsonl` so two shard processes never append
    /// to the same JSONL file. `None` leaves the spawned command's own
    /// default (only safe when the command already isolates stores).
    pub shard_store_base: Option<String>,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            addr: "127.0.0.1:7465".into(),
            shards: ShardMode::Attach(Vec::new()),
            max_conns: 1024,
            drain_ms: 5000,
            pending_per_shard: 256,
            reconnect_min_ms: 50,
            reconnect_max_ms: 2000,
            shard_store_base: None,
        }
    }
}

/// Where a response for a rewritten upstream id must go.
enum PendingReply {
    /// An ordinary forwarded request: restore `id`, send to the client.
    Client {
        handle: Arc<ConnHandle>,
        id: i64,
        trace: Option<String>,
    },
    /// One leg of a fanned-out `stats`/`metrics`/`shutdown`.
    Fanout { fanout: u64 },
}

enum Link {
    Up,
    Down { retry_at: Instant, backoff_ms: u64 },
}

struct ShardSlot {
    index: usize,
    addr: Option<SocketAddr>,
    conn: Option<Conn>,
    link: Link,
    /// Spawn mode: the supervised child and its respawn argv.
    process: Option<ShardProcess>,
    respawn_argv: Option<Vec<String>>,
    pid: Option<u32>,
    /// Router-side in-flight requests keyed by rewritten id.
    pending: HashMap<u64, PendingReply>,
    forwarded: u64,
    replied: u64,
    disconnects: u64,
}

impl ShardSlot {
    fn is_up(&self) -> bool {
        matches!(self.link, Link::Up)
    }

    fn state_str(&self) -> &'static str {
        if self.is_up() {
            "up"
        } else {
            "down"
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum FanKind {
    Stats,
    MetricsText,
    MetricsJson,
    Shutdown,
}

struct Fanout {
    client: Arc<ConnHandle>,
    id: i64,
    trace: Option<String>,
    kind: FanKind,
    waiting: usize,
    /// `(shard index, result object)` from each leg; `None` marks a
    /// shard that died before answering.
    results: Vec<(usize, Option<JsonValue>)>,
}

/// Plain counters — the loop is single-threaded, but `connections` is
/// shared with `stats` via the state so keep it atomic for symmetry
/// with the server.
#[derive(Default)]
struct Counters {
    received: u64,
    routed: u64,
    busy: u64,
    unavailable: u64,
    errors: u64,
    fanouts: u64,
}

/// A bound, not-yet-running router. [`run`](Router::run) blocks until a
/// `shutdown` request drains the clients.
pub struct Router {
    listener: TcpListener,
    waker: Arc<Waker>,
    waker_rx: UnixStream,
    addr: SocketAddr,
    spawn_mode: bool,
    max_conns: usize,
    drain_ms: u64,
    pending_per_shard: usize,
    reconnect_min_ms: u64,
    reconnect_max_ms: u64,
    shards: Vec<ShardSlot>,
    ring: HashRing,
    announce_tx: Sender<(usize, SocketAddr, u32)>,
    announce_rx: Receiver<(usize, SocketAddr, u32)>,
    metrics: Arc<MetricsRegistry>,
    started: Instant,
    connections: AtomicUsize,
}

impl Router {
    /// Binds the listen socket and prepares (or spawns) the shards.
    pub fn bind(config: RouterConfig) -> std::io::Result<Router> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let (waker, waker_rx) = Waker::pair()?;
        let (announce_tx, announce_rx) = channel();
        let metrics = Arc::new(MetricsRegistry::new());
        let now = Instant::now();
        let down = |backoff: u64| Link::Down {
            retry_at: now,
            backoff_ms: backoff,
        };

        let (shards, spawn_mode) = match &config.shards {
            ShardMode::Attach(addrs) => {
                if addrs.is_empty() {
                    return Err(std::io::Error::new(
                        ErrorKind::InvalidInput,
                        "router needs at least one shard (--attach or --shards)",
                    ));
                }
                let mut slots = Vec::with_capacity(addrs.len());
                for (i, a) in addrs.iter().enumerate() {
                    let resolved = a.to_socket_addrs()?.next().ok_or_else(|| {
                        std::io::Error::new(
                            ErrorKind::InvalidInput,
                            format!("shard address {a:?} resolved to nothing"),
                        )
                    })?;
                    slots.push(ShardSlot {
                        index: i,
                        addr: Some(resolved),
                        conn: None,
                        link: down(config.reconnect_min_ms),
                        process: None,
                        respawn_argv: None,
                        pid: None,
                        pending: HashMap::new(),
                        forwarded: 0,
                        replied: 0,
                        disconnects: 0,
                    });
                }
                (slots, false)
            }
            ShardMode::Spawn { count, command } => {
                if *count == 0 || command.is_empty() {
                    return Err(std::io::Error::new(
                        ErrorKind::InvalidInput,
                        "spawn mode needs a shard count >= 1 and a command",
                    ));
                }
                let mut slots = Vec::with_capacity(*count);
                for i in 0..*count {
                    let mut argv = command.clone();
                    argv.push("--addr".into());
                    argv.push("127.0.0.1:0".into());
                    if let Some(base) = &config.shard_store_base {
                        argv.push("--store".into());
                        argv.push(format!("{base}.shard{i}.jsonl"));
                    }
                    let process =
                        ShardProcess::spawn(i, &argv, announce_tx.clone(), Arc::clone(&waker))?;
                    let pid = process.pid();
                    slots.push(ShardSlot {
                        index: i,
                        addr: None,
                        conn: None,
                        link: down(config.reconnect_min_ms),
                        process: Some(process),
                        respawn_argv: Some(argv),
                        pid: Some(pid),
                        pending: HashMap::new(),
                        forwarded: 0,
                        replied: 0,
                        disconnects: 0,
                    });
                }
                (slots, true)
            }
        };
        let ring = HashRing::new(shards.len());
        preregister_router_series(&metrics, shards.len());
        Ok(Router {
            listener,
            waker,
            waker_rx,
            addr,
            spawn_mode,
            max_conns: config.max_conns.max(1),
            drain_ms: config.drain_ms,
            pending_per_shard: config.pending_per_shard.max(1),
            reconnect_min_ms: config.reconnect_min_ms.max(1),
            reconnect_max_ms: config.reconnect_max_ms.max(config.reconnect_min_ms),
            shards,
            ring,
            announce_tx,
            announce_rx,
            metrics,
            started: Instant::now(),
            connections: AtomicUsize::new(0),
        })
    }

    /// The actual bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Routes until a `shutdown` request drains the clients (and, in
    /// spawn mode, the children have been shut down).
    pub fn run(mut self) -> std::io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let mut loop_state = LoopState {
            clients: HashMap::new(),
            next_token: 0,
            next_rid: 1,
            fanouts: HashMap::new(),
            next_fanout: 1,
            counters: Counters::default(),
            draining: false,
            drain_deadline: None,
        };
        event_loop(&mut self, &mut loop_state);

        // Spawn mode: children already received the fanned-out shutdown
        // if they were up; give stragglers the drain window, then kill.
        if self.spawn_mode {
            let deadline = Instant::now() + Duration::from_millis(self.drain_ms);
            for slot in &mut self.shards {
                if let Some(process) = &mut slot.process {
                    while !process.exited() && Instant::now() < deadline {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    if !process.exited() {
                        process.kill_and_wait();
                    }
                }
            }
        }
        Ok(())
    }
}

/// Mutable per-run state kept outside `Router` so helpers can borrow the
/// router's shards and the loop's clients independently.
struct LoopState {
    clients: HashMap<u64, Conn>,
    next_token: u64,
    /// Rewritten upstream request ids, unique across all shards.
    next_rid: u64,
    fanouts: HashMap<u64, Fanout>,
    next_fanout: u64,
    counters: Counters,
    draining: bool,
    drain_deadline: Option<Instant>,
}

fn preregister_router_series(metrics: &MetricsRegistry, shards: usize) {
    for code in ["ok", "busy", "unavailable", "bad_request"] {
        metrics.counter("router_requests_total", &[("code", code)]);
    }
    for s in 0..shards {
        let label = s.to_string();
        metrics.counter("router_forwarded_total", &[("shard", &label)]);
        metrics.counter("router_shard_disconnects_total", &[("shard", &label)]);
        metrics.counter("router_shard_reconnects_total", &[("shard", &label)]);
    }
    for event in ["accepted", "closed", "conn_limit", "drain_closed"] {
        metrics.counter("router_conn_lifecycle_total", &[("event", event)]);
    }
    for gauge in ["router_connections", "router_shards_up", "router_pending"] {
        metrics.gauge(gauge, &[]);
    }
}

fn refresh_router_gauges(router: &Router) {
    let m = &router.metrics;
    m.gauge_set(
        "router_connections",
        &[],
        router.connections.load(Ordering::Relaxed) as i64,
    );
    m.gauge_set(
        "router_shards_up",
        &[],
        router.shards.iter().filter(|s| s.is_up()).count() as i64,
    );
    m.gauge_set(
        "router_pending",
        &[],
        router.shards.iter().map(|s| s.pending.len()).sum::<usize>() as i64,
    );
}

fn event_loop(router: &mut Router, ls: &mut LoopState) {
    let mut fds: Vec<PollFd> = Vec::new();
    let mut client_tokens: Vec<u64> = Vec::new();
    let mut shard_slots: Vec<usize> = Vec::new();

    loop {
        // Address announcements from spawned children (initial and
        // respawned) arrive on the channel; connect attempts follow in
        // the reconnect pass below.
        while let Ok((index, addr, pid)) = router.announce_rx.try_recv() {
            if let Some(slot) = router.shards.get_mut(index) {
                slot.addr = Some(addr);
                slot.pid = Some(pid);
                if let Link::Down { retry_at, .. } = &mut slot.link {
                    *retry_at = Instant::now();
                }
            }
        }

        supervise_shards(router, ls);

        if ls.draining && ls.drain_deadline.is_none() {
            ls.drain_deadline = Some(Instant::now() + Duration::from_millis(router.drain_ms));
        }

        // Interest set: waker, listener (while serving), clients wanting
        // reads/writes, and every live shard connection (always POLLIN —
        // a response can arrive whenever).
        fds.clear();
        client_tokens.clear();
        shard_slots.clear();
        fds.push(PollFd::new(router.waker_rx.as_raw_fd(), POLLIN));
        let accept_slot = if ls.draining {
            None
        } else {
            fds.push(PollFd::new(router.listener.as_raw_fd(), POLLIN));
            Some(fds.len() - 1)
        };
        let client_base = fds.len();
        for (token, conn) in ls.clients.iter() {
            let mut events = 0i16;
            if !ls.draining && !conn.read_closed && !conn.close_after_flush {
                events |= POLLIN;
            }
            if conn.pending_write() {
                events |= POLLOUT;
            }
            if events != 0 {
                fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
                client_tokens.push(*token);
            }
        }
        let shard_base = fds.len();
        for slot in router.shards.iter() {
            if let Some(conn) = &slot.conn {
                let mut events = POLLIN;
                if conn.pending_write() {
                    events |= POLLOUT;
                }
                fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
                shard_slots.push(slot.index);
            }
        }

        let timeout = if ls.draining {
            POLL_DRAIN_MS
        } else {
            POLL_IDLE_MS
        };
        if polling::wait(&mut fds, timeout).is_err() {
            break;
        }

        if fds[0].readable() {
            drain_waker(&router.waker_rx);
        }
        if let Some(slot) = accept_slot {
            if fds[slot].readable() {
                accept_ready(router, ls);
            }
        }

        // Client readiness.
        for (i, token) in client_tokens.iter().enumerate() {
            let pfd = &fds[client_base + i];
            let (failed, writable, readable) = (pfd.failed(), pfd.writable(), pfd.readable());
            let Some(conn) = ls.clients.get_mut(token) else {
                continue;
            };
            if failed {
                conn.handle.mark_dead();
                continue;
            }
            if writable {
                conn.write_blocked = false;
            }
            if readable && !conn.read_closed {
                let outcome = conn.read_ready();
                let handle = Arc::clone(&conn.handle);
                let overflow = outcome.overflow;
                let error = outcome.error;
                for line in &outcome.lines {
                    handle_client_line(router, ls, &handle, line);
                }
                let Some(conn) = ls.clients.get_mut(token) else {
                    continue;
                };
                if overflow {
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
                if error {
                    conn.handle.mark_dead();
                }
            }
        }

        // Shard readiness.
        for (i, index) in shard_slots.iter().enumerate() {
            let pfd = &fds[shard_base + i];
            let (failed, writable, readable) = (pfd.failed(), pfd.writable(), pfd.readable());
            if failed {
                shard_failed(router, ls, *index, "socket error");
                continue;
            }
            if writable {
                if let Some(conn) = router.shards[*index].conn.as_mut() {
                    conn.write_blocked = false;
                }
            }
            if readable {
                let outcome = match router.shards[*index].conn.as_mut() {
                    Some(conn) => conn.read_ready(),
                    None => continue,
                };
                for line in &outcome.lines {
                    handle_shard_line(router, ls, *index, line);
                }
                if outcome.eof || outcome.error || outcome.overflow {
                    shard_failed(router, ls, *index, "connection lost");
                }
            }
        }

        // Flush pass: clients then shards.
        for conn in ls.clients.values_mut() {
            let flushable = !conn.handle.is_dead() && conn.pending_write() && !conn.write_blocked;
            if flushable && conn.flush() == Flush::Error {
                router.metrics.add(
                    "router_conn_lifecycle_total",
                    &[("event", "write_error")],
                    1,
                );
            }
        }
        let mut failed_shards: Vec<usize> = Vec::new();
        for slot in router.shards.iter_mut() {
            if let Some(conn) = slot.conn.as_mut() {
                let flushable =
                    !conn.handle.is_dead() && conn.pending_write() && !conn.write_blocked;
                if flushable && conn.flush() == Flush::Error {
                    failed_shards.push(slot.index);
                }
            }
        }
        for index in failed_shards {
            shard_failed(router, ls, index, "write error");
        }

        // Close pass for clients (mirrors the server's rules).
        let deadline_passed = ls.drain_deadline.is_some_and(|d| Instant::now() >= d);
        let mut to_close: Vec<u64> = Vec::new();
        for (token, conn) in ls.clients.iter() {
            let idle = !conn.pending_write() && conn.handle.jobs_in_flight() == 0;
            let close = if conn.handle.is_dead() {
                true
            } else if conn.handle.overflowed() {
                conn.handle.mark_dead();
                true
            } else if (conn.close_after_flush && !conn.pending_write())
                || (conn.read_closed && idle)
                || (ls.draining && idle)
            {
                true
            } else if ls.draining && deadline_passed {
                router.metrics.add(
                    "router_conn_lifecycle_total",
                    &[("event", "drain_closed")],
                    1,
                );
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
            if let Some(conn) = ls.clients.remove(&token) {
                conn.handle.mark_dead();
                router
                    .metrics
                    .add("router_conn_lifecycle_total", &[("event", "closed")], 1);
                router.connections.fetch_sub(1, Ordering::Relaxed);
            }
        }

        if ls.draining && ls.clients.is_empty() && ls.fanouts.is_empty() {
            break;
        }
    }

    for (_, conn) in ls.clients.drain() {
        conn.handle.mark_dead();
        router.connections.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Per-iteration shard supervision: detect exited children, respawn
/// them (spawn mode, not draining), and attempt reconnects whose
/// backoff has elapsed.
fn supervise_shards(router: &mut Router, ls: &mut LoopState) {
    let now = Instant::now();
    let mut failures: Vec<usize> = Vec::new();
    for slot in router.shards.iter_mut() {
        if let Some(process) = &mut slot.process {
            if process.exited() {
                slot.process = None;
                slot.pid = None;
                slot.addr = None; // the replacement binds a fresh port
                if slot.is_up() || slot.conn.is_some() {
                    failures.push(slot.index);
                }
            }
        }
    }
    for index in failures {
        shard_failed(router, ls, index, "shard process exited");
    }

    if ls.draining {
        return;
    }
    let min_backoff = router.reconnect_min_ms;
    let max_backoff = router.reconnect_max_ms;
    let spawn_mode = router.spawn_mode;
    for slot in router.shards.iter_mut() {
        let Link::Down {
            retry_at,
            backoff_ms,
        } = &mut slot.link
        else {
            continue;
        };
        if now < *retry_at {
            continue;
        }
        // Spawn mode with no live child: respawn first; the address
        // arrives later via the announce channel.
        if spawn_mode && slot.process.is_none() {
            match ShardProcess::spawn(
                slot.index,
                slot.respawn_argv.as_ref().expect("spawn mode keeps argv"),
                router.announce_tx.clone(),
                Arc::clone(&router.waker),
            ) {
                Ok(process) => {
                    slot.pid = Some(process.pid());
                    slot.process = Some(process);
                }
                Err(_) => {
                    *backoff_ms = (*backoff_ms * 2).clamp(min_backoff, max_backoff);
                    *retry_at = now + Duration::from_millis(*backoff_ms);
                    continue;
                }
            }
            // Give the child a beat to bind before the first connect try.
            *retry_at = now + Duration::from_millis(min_backoff);
            continue;
        }
        let Some(addr) = slot.addr else {
            // Waiting for the announce line; check again shortly.
            *retry_at = now + Duration::from_millis(min_backoff);
            continue;
        };
        match TcpStream::connect_timeout(&addr, Duration::from_millis(CONNECT_TIMEOUT_MS)) {
            Ok(stream) => match Conn::new(stream, Arc::clone(&router.waker), SHARD_LINE_CAP) {
                Ok(conn) => {
                    slot.conn = Some(conn);
                    slot.link = Link::Up;
                    router.metrics.add(
                        "router_shard_reconnects_total",
                        &[("shard", &slot.index.to_string())],
                        1,
                    );
                }
                Err(_) => {
                    *backoff_ms = (*backoff_ms * 2).clamp(min_backoff, max_backoff);
                    *retry_at = now + Duration::from_millis(*backoff_ms);
                }
            },
            Err(_) => {
                *backoff_ms = (*backoff_ms * 2).clamp(min_backoff, max_backoff);
                *retry_at = now + Duration::from_millis(*backoff_ms);
            }
        }
    }
}

/// Accepts clients until `WouldBlock`, shedding over-limit connects
/// with one `busy` line, exactly like the server.
fn accept_ready(router: &mut Router, ls: &mut LoopState) {
    loop {
        match router.listener.accept() {
            Ok((stream, _)) => {
                if ls.clients.len() >= router.max_conns {
                    router.metrics.add(
                        "router_conn_lifecycle_total",
                        &[("event", "conn_limit")],
                        1,
                    );
                    conn::refuse_over_limit(&stream, router.max_conns);
                    continue;
                }
                match Conn::new(stream, Arc::clone(&router.waker), protocol::MAX_LINE_BYTES) {
                    Ok(conn) => {
                        router.metrics.add(
                            "router_conn_lifecycle_total",
                            &[("event", "accepted")],
                            1,
                        );
                        router.connections.fetch_add(1, Ordering::Relaxed);
                        let token = ls.next_token;
                        ls.next_token += 1;
                        ls.clients.insert(token, conn);
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

/// Rebuilds the upstream request line for a render/tune_step with the
/// rewritten id. Reconstructing from the parsed [`Request`] (rather
/// than splicing the raw line) guarantees the upstream sees exactly the
/// fields the protocol defines.
fn upstream_line(rid: u64, req: &Request) -> String {
    let mut fields: Vec<(&str, JsonValue)> = vec![("id", JsonValue::from(rid))];
    match &req.cmd {
        Command::Render { spec, frame } => {
            fields.push(("cmd", "render".into()));
            push_spec(&mut fields, spec);
            fields.push(("frame", JsonValue::from(*frame)));
        }
        Command::TuneStep { spec, steps } => {
            fields.push(("cmd", "tune_step".into()));
            push_spec(&mut fields, spec);
            fields.push(("steps", JsonValue::from(*steps)));
        }
        Command::Query { spec, seed } => {
            fields.push(("cmd", "query".into()));
            push_spec(&mut fields, spec);
            fields.push(("seed", JsonValue::from(*seed)));
        }
        Command::Stats => fields.push(("cmd", "stats".into())),
        Command::Metrics { .. } => {
            fields.push(("cmd", "metrics".into()));
            fields.push(("format", "json".into()));
        }
        Command::Shutdown => fields.push(("cmd", "shutdown".into())),
    }
    if let Some(tag) = &req.trace {
        fields.push(("trace", tag.as_str().into()));
    }
    JsonValue::object(fields).to_string()
}

fn push_spec(fields: &mut Vec<(&str, JsonValue)>, spec: &SessionSpec) {
    fields.push(("scene", spec.scene.as_str().into()));
    fields.push(("scale", spec.scale.as_str().into()));
    fields.push(("algo", spec.algo.name().into()));
    fields.push(("res", JsonValue::from(spec.res)));
    fields.push(("packet_width", JsonValue::from(spec.packet_width)));
    if let crate::protocol::Workload::Query(shape) = spec.workload {
        fields.push(("workload", "query".into()));
        fields.push(("sampler", shape.sampler.name().into()));
        fields.push(("batch", JsonValue::from(shape.batch)));
        fields.push(("k", JsonValue::from(shape.k)));
        fields.push(("radius_pm", JsonValue::from(shape.radius_pm)));
    }
}

fn reply_err(
    router: &Router,
    ls: &mut LoopState,
    client: &Arc<ConnHandle>,
    id: i64,
    trace: Option<&str>,
    code: ErrorCode,
    message: &str,
) {
    match code {
        ErrorCode::Busy => ls.counters.busy += 1,
        ErrorCode::Unavailable => ls.counters.unavailable += 1,
        _ => ls.counters.errors += 1,
    }
    router
        .metrics
        .add("router_requests_total", &[("code", code.as_str())], 1);
    client.send_line(&protocol::err_line_traced(id, trace, code, message));
}

fn handle_client_line(
    router: &mut Router,
    ls: &mut LoopState,
    client: &Arc<ConnHandle>,
    raw: &[u8],
) {
    let line = String::from_utf8_lossy(raw);
    let line = line.trim();
    if line.is_empty() {
        return;
    }
    ls.counters.received += 1;
    let request = match protocol::parse_request(line) {
        Ok(request) => request,
        Err((id, code, message)) => {
            reply_err(router, ls, client, id, None, code, &message);
            return;
        }
    };
    if ls.draining {
        reply_err(
            router,
            ls,
            client,
            request.id,
            request.trace.as_deref(),
            ErrorCode::ShuttingDown,
            "router is draining",
        );
        return;
    }
    match &request.cmd {
        Command::Render { spec, .. }
        | Command::TuneStep { spec, .. }
        | Command::Query { spec, .. } => {
            forward_request(router, ls, client, &request, &spec.id());
        }
        Command::Stats => start_fanout(router, ls, client, &request, FanKind::Stats),
        Command::Metrics { mergeable } => {
            let kind = if *mergeable {
                FanKind::MetricsJson
            } else {
                FanKind::MetricsText
            };
            start_fanout(router, ls, client, &request, kind);
        }
        Command::Shutdown => {
            if router.spawn_mode {
                // Shut the children down too; the drain flag is set when
                // the fanout completes so their replies still route.
                start_fanout(router, ls, client, &request, FanKind::Shutdown);
            } else {
                // Attached shards are externally owned: drain the router
                // only.
                ls.counters.routed += 1;
                router
                    .metrics
                    .add("router_requests_total", &[("code", "ok")], 1);
                client.send_line(&protocol::ok_line_traced(
                    request.id,
                    request.trace.as_deref(),
                    JsonValue::object([
                        ("draining", JsonValue::from(0u64)),
                        ("shards", router.shards.len().into()),
                    ]),
                ));
                ls.draining = true;
            }
        }
    }
}

/// Hash-routes one render/tune_step and forwards it, shedding with
/// `busy`/`unavailable` when the owner (or every shard) cannot take it.
fn forward_request(
    router: &mut Router,
    ls: &mut LoopState,
    client: &Arc<ConnHandle>,
    request: &Request,
    key: &str,
) {
    let shards = &router.shards;
    let target = router.ring.route(key, |s| shards[s].is_up());
    let Some(index) = target else {
        reply_err(
            router,
            ls,
            client,
            request.id,
            request.trace.as_deref(),
            ErrorCode::Unavailable,
            "no shard is available for this session key",
        );
        return;
    };
    let pending = router.shards[index].pending.len();
    if pending >= router.pending_per_shard {
        reply_err(
            router,
            ls,
            client,
            request.id,
            request.trace.as_deref(),
            ErrorCode::Busy,
            &format!("shard {index} has {pending} requests in flight"),
        );
        return;
    }
    let rid = ls.next_rid;
    ls.next_rid += 1;
    let line = upstream_line(rid, request);
    let sent = router.shards[index]
        .conn
        .as_ref()
        .map(|c| c.handle.send_line(&line))
        .unwrap_or(false);
    if !sent {
        // Upstream write queue over cap (or racing a death): shed.
        reply_err(
            router,
            ls,
            client,
            request.id,
            request.trace.as_deref(),
            ErrorCode::Busy,
            &format!("shard {index} upstream queue is full"),
        );
        return;
    }
    ls.counters.routed += 1;
    router
        .metrics
        .add("router_requests_total", &[("code", "ok")], 1);
    router.metrics.add(
        "router_forwarded_total",
        &[("shard", &index.to_string())],
        1,
    );
    client.job_started();
    let slot = &mut router.shards[index];
    slot.forwarded += 1;
    slot.pending.insert(
        rid,
        PendingReply::Client {
            handle: Arc::clone(client),
            id: request.id,
            trace: request.trace.clone(),
        },
    );
}

/// Fans one control request out to every live shard; completes
/// immediately (router-only view) when none is up.
fn start_fanout(
    router: &mut Router,
    ls: &mut LoopState,
    client: &Arc<ConnHandle>,
    request: &Request,
    kind: FanKind,
) {
    ls.counters.fanouts += 1;
    let fid = ls.next_fanout;
    ls.next_fanout += 1;
    let mut waiting = 0;
    let up: Vec<usize> = router
        .shards
        .iter()
        .filter(|s| s.is_up())
        .map(|s| s.index)
        .collect();
    client.job_started();
    ls.fanouts.insert(
        fid,
        Fanout {
            client: Arc::clone(client),
            id: request.id,
            trace: request.trace.clone(),
            kind,
            waiting: 0,
            results: Vec::new(),
        },
    );
    for index in up {
        let rid = ls.next_rid;
        ls.next_rid += 1;
        let line = upstream_line(rid, request);
        let sent = router.shards[index]
            .conn
            .as_ref()
            .map(|c| c.handle.send_line(&line))
            .unwrap_or(false);
        if sent {
            router.shards[index]
                .pending
                .insert(rid, PendingReply::Fanout { fanout: fid });
            waiting += 1;
        } else if let Some(f) = ls.fanouts.get_mut(&fid) {
            f.results.push((index, None));
        }
    }
    if let Some(f) = ls.fanouts.get_mut(&fid) {
        f.waiting = waiting;
    }
    if waiting == 0 {
        finish_fanout(router, ls, fid);
    }
}

fn handle_shard_line(router: &mut Router, ls: &mut LoopState, index: usize, raw: &[u8]) {
    let line = String::from_utf8_lossy(raw);
    let line = line.trim();
    if line.is_empty() {
        return;
    }
    let Ok(value) = telemetry::json::parse(line) else {
        return; // an unparseable upstream line correlates with nothing
    };
    let Some(rid) = value.get("id").and_then(JsonValue::as_i64) else {
        return;
    };
    let Some(entry) = router.shards[index].pending.remove(&(rid as u64)) else {
        return; // stale reply from before a reconnect
    };
    router.shards[index].replied += 1;
    match entry {
        PendingReply::Client { handle, id, trace } => {
            // Restore the client's id; the trace tag was forwarded
            // upstream and echoed back, so it is already in place.
            let line = match value {
                JsonValue::Object(mut map) => {
                    map.insert("id".into(), JsonValue::Int(id));
                    if let Some(tag) = &trace {
                        map.entry("trace".into())
                            .or_insert_with(|| JsonValue::Str(tag.clone()));
                    }
                    JsonValue::Object(map).to_string()
                }
                other => other.to_string(),
            };
            handle.send_line(&line);
            handle.job_finished();
        }
        PendingReply::Fanout { fanout } => {
            let ok = value.get("ok").and_then(JsonValue::as_bool) == Some(true);
            let result = if ok {
                value.get("result").cloned()
            } else {
                None
            };
            let done = {
                let Some(f) = ls.fanouts.get_mut(&fanout) else {
                    return;
                };
                f.results.push((index, result));
                f.waiting -= 1;
                f.waiting == 0
            };
            if done {
                finish_fanout(router, ls, fanout);
            }
        }
    }
}

/// Tears down a dead shard: fails everything in flight on it with
/// structured `unavailable` errors (no client ever hangs on a dead
/// shard) and schedules the reconnect/respawn.
fn shard_failed(router: &mut Router, ls: &mut LoopState, index: usize, reason: &str) {
    let slot = &mut router.shards[index];
    if let Some(conn) = slot.conn.take() {
        conn.handle.mark_dead();
    }
    let was_up = slot.is_up();
    slot.link = Link::Down {
        retry_at: Instant::now() + Duration::from_millis(router.reconnect_min_ms),
        backoff_ms: router.reconnect_min_ms,
    };
    let pending: Vec<(u64, PendingReply)> = slot.pending.drain().collect();
    if was_up {
        slot.disconnects += 1;
        router.metrics.add(
            "router_shard_disconnects_total",
            &[("shard", &index.to_string())],
            1,
        );
    }
    for (_, entry) in pending {
        match entry {
            PendingReply::Client { handle, id, trace } => {
                ls.counters.unavailable += 1;
                router
                    .metrics
                    .add("router_requests_total", &[("code", "unavailable")], 1);
                handle.send_line(&protocol::err_line_traced(
                    id,
                    trace.as_deref(),
                    ErrorCode::Unavailable,
                    &format!("shard {index} {reason}; retry to re-hash onto survivors"),
                ));
                handle.job_finished();
            }
            PendingReply::Fanout { fanout } => {
                let done = {
                    let Some(f) = ls.fanouts.get_mut(&fanout) else {
                        continue;
                    };
                    f.results.push((index, None));
                    f.waiting -= 1;
                    f.waiting == 0
                };
                if done {
                    finish_fanout(router, ls, fanout);
                }
            }
        }
    }
}

/// Assembles and sends the merged reply for a completed fanout.
fn finish_fanout(router: &mut Router, ls: &mut LoopState, fid: u64) {
    let Some(fanout) = ls.fanouts.remove(&fid) else {
        return;
    };
    refresh_router_gauges(router);
    let result = match fanout.kind {
        FanKind::Stats => merged_stats(router, ls, &fanout.results),
        FanKind::MetricsText | FanKind::MetricsJson => {
            let now = telemetry::now_us();
            let mut merged = MergedMetrics::new();
            // The router's own series (router_*) join the aggregate
            // unlabeled; each shard's join both the aggregate and a
            // shard="i" labeled copy.
            merged.add_snapshot(None, &router.metrics.mergeable_json(now));
            for (index, result) in &fanout.results {
                if let Some(snap) = result.as_ref().and_then(|r| r.get("metrics")) {
                    merged.add_snapshot(Some(&index.to_string()), snap);
                }
            }
            if fanout.kind == FanKind::MetricsJson {
                JsonValue::object([("metrics", merged.snapshot_json())])
            } else {
                JsonValue::object([("text", JsonValue::from(merged.prometheus_text()))])
            }
        }
        FanKind::Shutdown => {
            let draining: u64 = fanout
                .results
                .iter()
                .filter_map(|(_, r)| r.as_ref())
                .filter_map(|r| r.get("draining").and_then(JsonValue::as_u64))
                .sum();
            ls.draining = true;
            JsonValue::object([
                ("draining", JsonValue::from(draining)),
                ("shards", fanout.results.len().into()),
            ])
        }
    };
    ls.counters.routed += 1;
    router
        .metrics
        .add("router_requests_total", &[("code", "ok")], 1);
    fanout.client.send_line(&protocol::ok_line_traced(
        fanout.id,
        fanout.trace.as_deref(),
        result,
    ));
    fanout.client.job_finished();
}

/// Numeric-field sum of JSON objects: the union of keys with integer
/// values summed; non-numeric fields are dropped.
fn sum_numeric_objects<'a>(objects: impl Iterator<Item = &'a JsonValue>) -> JsonValue {
    let mut sums: BTreeMap<String, u64> = BTreeMap::new();
    for obj in objects {
        if let JsonValue::Object(map) = obj {
            for (k, v) in map {
                if let Some(n) = v.as_u64() {
                    *sums.entry(k.clone()).or_default() += n;
                }
            }
        }
    }
    JsonValue::Object(
        sums.into_iter()
            .map(|(k, v)| (k, JsonValue::from(v)))
            .collect(),
    )
}

/// The merged `stats` reply: router identity + summed shard sections +
/// a per-shard breakdown. The `requests`, `cache.{hits,misses,hit_rate}`
/// and `sessions.count` paths match single-`renderd` stats so existing
/// clients (loadgen included) work unchanged against a router.
fn merged_stats(
    router: &Router,
    ls: &LoopState,
    results: &[(usize, Option<JsonValue>)],
) -> JsonValue {
    let by_index: HashMap<usize, &JsonValue> = results
        .iter()
        .filter_map(|(i, r)| r.as_ref().map(|r| (*i, r)))
        .collect();
    let requests = sum_numeric_objects(by_index.values().filter_map(|r| r.get("requests")));
    let mut cache = sum_numeric_objects(by_index.values().filter_map(|r| r.get("cache")));
    if let JsonValue::Object(map) = &mut cache {
        let hits = map.get("hits").and_then(JsonValue::as_u64).unwrap_or(0);
        let misses = map.get("misses").and_then(JsonValue::as_u64).unwrap_or(0);
        let rate = if hits + misses > 0 {
            hits as f64 / (hits + misses) as f64
        } else {
            0.0
        };
        map.insert("hit_rate".into(), JsonValue::Float(rate));
    }
    let sessions_count: u64 = by_index
        .values()
        .filter_map(|r| r.get("sessions").and_then(|s| s.get("count")))
        .filter_map(JsonValue::as_u64)
        .sum();
    let mut session_ids: Vec<JsonValue> = Vec::new();
    for r in by_index.values() {
        if let Some(JsonValue::Array(ids)) = r.get("sessions").and_then(|s| s.get("ids")) {
            session_ids.extend(ids.iter().cloned());
        }
    }
    let shards: Vec<JsonValue> = router
        .shards
        .iter()
        .map(|slot| {
            let mut fields = vec![
                ("index", JsonValue::from(slot.index)),
                (
                    "addr",
                    slot.addr
                        .map(|a| JsonValue::from(a.to_string()))
                        .unwrap_or(JsonValue::Null),
                ),
                ("state", slot.state_str().into()),
                (
                    "pid",
                    slot.pid.map(JsonValue::from).unwrap_or(JsonValue::Null),
                ),
                ("forwarded", slot.forwarded.into()),
                ("replied", slot.replied.into()),
                ("pending", slot.pending.len().into()),
                ("disconnects", slot.disconnects.into()),
            ];
            // Embed the shard's own stats, minus the bulky metrics
            // snapshot and slow-trace exemplars (fetch those from
            // the shard directly when debugging).
            if let Some(JsonValue::Object(map)) = by_index.get(&slot.index) {
                let mut trimmed = map.clone();
                trimmed.remove("metrics");
                trimmed.remove("slow");
                fields.push(("stats", JsonValue::Object(trimmed)));
            }
            JsonValue::object(fields)
        })
        .collect();
    JsonValue::object([
        ("router", JsonValue::Bool(true)),
        (
            "uptime_secs",
            JsonValue::from(router.started.elapsed().as_secs_f64()),
        ),
        ("addr", router.addr.to_string().into()),
        (
            "connections",
            router.connections.load(Ordering::Relaxed).into(),
        ),
        ("shards_total", router.shards.len().into()),
        (
            "shards_up",
            router.shards.iter().filter(|s| s.is_up()).count().into(),
        ),
        (
            "routing",
            JsonValue::object([
                ("received", JsonValue::from(ls.counters.received)),
                ("routed", ls.counters.routed.into()),
                ("busy", ls.counters.busy.into()),
                ("unavailable", ls.counters.unavailable.into()),
                ("errors", ls.counters.errors.into()),
                ("fanouts", ls.counters.fanouts.into()),
            ]),
        ),
        ("requests", requests),
        ("cache", cache),
        (
            "sessions",
            JsonValue::object([
                ("count", JsonValue::from(sessions_count)),
                ("ids", JsonValue::Array(session_ids)),
            ]),
        ),
        ("shards", JsonValue::Array(shards)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdtune::Algorithm;

    fn render_request(id: i64, trace: Option<&str>) -> Request {
        Request {
            id,
            trace: trace.map(String::from),
            cmd: Command::Render {
                spec: SessionSpec {
                    scene: "bunny".into(),
                    scale: "tiny".into(),
                    algo: Algorithm::InPlace,
                    res: 64,
                    packet_width: 4,
                    workload: crate::protocol::Workload::Render,
                },
                frame: 3,
            },
        }
    }

    #[test]
    fn upstream_line_rewrites_id_and_keeps_spec_and_trace() {
        let line = upstream_line(99, &render_request(7, Some("c1-2")));
        let parsed = protocol::parse_request(&line).unwrap();
        assert_eq!(parsed.id, 99, "id must be the rewritten router id");
        assert_eq!(parsed.trace.as_deref(), Some("c1-2"));
        match parsed.cmd {
            Command::Render { spec, frame } => {
                assert_eq!(spec.id(), "bunny@tiny/in_place/64/w4");
                assert_eq!(frame, 3);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn upstream_line_round_trips_query_requests() {
        let spec = SessionSpec {
            scene: "bunny".into(),
            scale: "tiny".into(),
            algo: Algorithm::InPlace,
            res: 64,
            packet_width: 1,
            workload: crate::protocol::Workload::Query(crate::protocol::QueryShape {
                batch: 128,
                k: 12,
                ..crate::protocol::QueryShape::default()
            }),
        };
        let request = Request {
            id: 4,
            trace: None,
            cmd: Command::Query {
                spec: spec.clone(),
                seed: 77,
            },
        };
        let parsed = protocol::parse_request(&upstream_line(11, &request)).unwrap();
        match parsed.cmd {
            Command::Query {
                spec: round_trip,
                seed,
            } => {
                assert_eq!(round_trip.id(), spec.id());
                assert_eq!(round_trip.workload, spec.workload);
                assert_eq!(seed, 77);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn upstream_metrics_always_requests_mergeable_json() {
        for mergeable in [false, true] {
            let req = Request {
                id: 1,
                trace: None,
                cmd: Command::Metrics { mergeable },
            };
            let parsed = protocol::parse_request(&upstream_line(5, &req)).unwrap();
            assert_eq!(parsed.cmd, Command::Metrics { mergeable: true });
        }
    }

    #[test]
    fn sum_numeric_objects_unions_and_sums() {
        let a = telemetry::json::parse(r#"{"ok":3,"busy":1,"addr":"x"}"#).unwrap();
        let b = telemetry::json::parse(r#"{"ok":4,"renders":2}"#).unwrap();
        let sum = sum_numeric_objects([&a, &b].into_iter());
        assert_eq!(sum.get("ok").unwrap().as_u64(), Some(7));
        assert_eq!(sum.get("busy").unwrap().as_u64(), Some(1));
        assert_eq!(sum.get("renders").unwrap().as_u64(), Some(2));
        assert!(sum.get("addr").is_none(), "non-numeric fields dropped");
    }

    #[test]
    fn bind_rejects_empty_shard_sets() {
        for shards in [
            ShardMode::Attach(Vec::new()),
            ShardMode::Spawn {
                count: 0,
                command: vec!["x".into()],
            },
            ShardMode::Spawn {
                count: 2,
                command: Vec::new(),
            },
        ] {
            let config = RouterConfig {
                addr: "127.0.0.1:0".into(),
                shards,
                ..RouterConfig::default()
            };
            assert!(Router::bind(config).is_err());
        }
    }
}
