//! The load generator: N concurrent connections driving a `renderd`
//! instance with a deterministic mixed render/tune workload, reporting
//! throughput and latency quantiles.
//!
//! Per-connection latency histograms are combined with
//! [`Histogram::merge`], so the reported p50/p95/p99 are over *all*
//! requests, not an average of per-connection quantiles.

use kdtune_telemetry::json::JsonValue;
use kdtune_telemetry::Histogram;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Stack size for connection threads. The driver does nothing deep —
/// serialize a request, block on a socket — and curve runs spawn
/// thousands of these at once, so default 8 MiB stacks are pure waste.
const CONN_THREAD_STACK: usize = 256 * 1024;

/// Workload shape and target.
#[derive(Clone, Debug)]
pub struct LoadgenOptions {
    /// Server address, e.g. `127.0.0.1:7464`.
    pub addr: String,
    /// Concurrent connections.
    pub connections: usize,
    /// Total requests across all connections.
    pub requests: usize,
    /// Scenes cycled through round-robin.
    pub scenes: Vec<String>,
    /// Scene scale preset sent with every request.
    pub scale: String,
    /// Render resolution.
    pub res: u32,
    /// Algorithm name sent with every request.
    pub algo: String,
    /// Ray-packet width sent with every request (`1` = scalar).
    pub packet_width: u32,
    /// Distinct frame indices cycled per scene (exercises the cache).
    pub frames: usize,
    /// Every n-th request is a `tune_step` instead of a render
    /// (0 disables tuning).
    pub tune_every: usize,
    /// Steps per `tune_step` request.
    pub tune_steps: usize,
    /// Mixed-workload ratio as `(render, query)`: out of every
    /// `render + query` requests, the last `query` are point-query
    /// batches instead of renders. `None` keeps the pure render/tune
    /// workload.
    pub mix: Option<(usize, usize)>,
    /// Minimum requests per connection at each curve point. Without a
    /// floor, high-connection points degenerate into a connect burst
    /// (2 requests per client) whose wall clock measures shed latency,
    /// not sustained service rate.
    pub per_conn_floor: usize,
    /// Send `shutdown` after the run and wait for the response.
    pub shutdown_after: bool,
    /// Where to write the JSON report (`None` skips the file).
    pub out: Option<PathBuf>,
    /// The target is expected to be a `kdtune route` front: the run
    /// fails unless the final stats snapshot identifies a router, and
    /// the report carries the per-shard breakdown.
    pub expect_router: bool,
}

impl LoadgenOptions {
    /// The default mixed workload against `addr`: 4 connections,
    /// bunny + fairy_forest, mostly renders with periodic tune steps.
    pub fn defaults(addr: impl Into<String>) -> LoadgenOptions {
        LoadgenOptions {
            addr: addr.into(),
            connections: 4,
            requests: 400,
            scenes: vec!["bunny".into(), "fairy_forest".into()],
            scale: "tiny".into(),
            res: 64,
            algo: "in_place".into(),
            packet_width: 1,
            frames: 2,
            tune_every: 4,
            tune_steps: 2,
            mix: None,
            per_conn_floor: 2,
            shutdown_after: false,
            out: Some(PathBuf::from("results/BENCH_server.json")),
            expect_router: false,
        }
    }

    /// The CI smoke workload: small, fast, and self-terminating.
    pub fn smoke(addr: impl Into<String>) -> LoadgenOptions {
        LoadgenOptions {
            connections: 2,
            requests: 240,
            res: 32,
            shutdown_after: true,
            out: None,
            ..LoadgenOptions::defaults(addr)
        }
    }
}

/// What a run observed.
#[derive(Clone, Debug, Default)]
pub struct LoadgenReport {
    /// Requests sent (excluding the final stats/shutdown control pair).
    pub sent: u64,
    /// `ok:true` responses.
    pub ok: u64,
    /// Structured `busy` rejections (backpressure, not failures).
    pub busy: u64,
    /// `ok:false` responses other than `busy`.
    pub protocol_errors: u64,
    /// Wall time of the request phase in seconds.
    pub elapsed_secs: f64,
    /// Requests *sent* per second over the request phase. A shedding
    /// server inflates this number — a `busy` rejection completes fast —
    /// so compare servers on [`goodput_rps`](Self::goodput_rps).
    pub throughput_rps: f64,
    /// `ok:true` responses per second over the request phase: the
    /// throughput of work that actually rendered or tuned.
    pub goodput_rps: f64,
    /// Fraction of sent requests shed with a structured `busy`.
    pub shed_rate: f64,
    /// Latency quantiles over all requests, microseconds.
    pub p50_us: u64,
    /// 90th percentile latency.
    pub p90_us: u64,
    /// 95th percentile latency.
    pub p95_us: u64,
    /// 99th percentile latency.
    pub p99_us: u64,
    /// Mean latency in microseconds.
    pub mean_us: f64,
    /// Fastest and slowest request.
    pub min_us: u64,
    /// Slowest request.
    pub max_us: u64,
    /// Server-reported cache hits at the end of the run.
    pub cache_hits: u64,
    /// Server-reported cache misses.
    pub cache_misses: u64,
    /// Server-reported cache hit rate.
    pub cache_hit_rate: f64,
    /// Server-reported live session count.
    pub sessions: u64,
    /// Whether the final stats snapshot identified a `kdtune route`
    /// front rather than a single `renderd`.
    pub router: bool,
    /// Router-reported shard states at the end of the run, as
    /// `(index, state, forwarded)` rows. Empty against a plain `renderd`.
    pub router_shards: Vec<(u64, String, u64)>,
    /// Responses whose echoed trace tag was missing or did not match the
    /// one sent (any nonzero value means request/response pairing broke).
    pub trace_mismatches: u64,
    /// Server-reported per-stage latency histograms (queue, build,
    /// render, tune, serialize), keyed by stage name. These measure time
    /// inside the server; comparing them with the client-side latency
    /// histogram separates service time from network and protocol
    /// overhead.
    pub server_stages: BTreeMap<String, Histogram>,
    /// Per-workload breakdown keyed by command name (`render`,
    /// `tune_step`, `query`): under a `--mix` run the aggregate latency
    /// quantiles blend two very different service times, so comparisons
    /// must be made within a workload, not across the blend.
    pub per_workload: BTreeMap<String, WorkloadStats>,
    /// First few non-busy error messages, for diagnostics.
    pub first_errors: Vec<String>,
}

/// One workload's slice of a (possibly mixed) run.
#[derive(Clone, Debug, Default)]
pub struct WorkloadStats {
    /// Requests of this workload sent.
    pub sent: u64,
    /// `ok:true` responses.
    pub ok: u64,
    /// Structured `busy` rejections.
    pub busy: u64,
    /// Other `ok:false` responses.
    pub errors: u64,
    /// `ok:true` responses per second over the run's request phase.
    pub goodput_rps: f64,
    /// Latency quantiles for this workload only, microseconds.
    pub p50_us: u64,
    /// 95th percentile latency.
    pub p95_us: u64,
    /// 99th percentile latency.
    pub p99_us: u64,
    /// Mean latency in microseconds.
    pub mean_us: f64,
}

#[derive(Default)]
struct WorkloadOutcome {
    histogram: Histogram,
    ok: u64,
    busy: u64,
    errors: u64,
}

struct ConnOutcome {
    histogram: Histogram,
    ok: u64,
    busy: u64,
    errors: u64,
    trace_mismatches: u64,
    server_stages: BTreeMap<String, Histogram>,
    per_workload: BTreeMap<String, WorkloadOutcome>,
    first_errors: Vec<String>,
    /// Request-phase wall time for this connection (connect and barrier
    /// excluded), so the run's throughput is not polluted by the connect
    /// storm of high-connection-count points.
    elapsed_secs: f64,
}

/// Runs the workload. Transport failures (connect/read/write) abort the
/// run with `Err`; protocol-level errors are counted in the report.
pub fn run(options: &LoadgenOptions) -> Result<LoadgenReport, String> {
    if options.connections == 0 || options.requests == 0 {
        return Err("need at least one connection and one request".into());
    }
    if options.scenes.is_empty() {
        return Err("need at least one scene".into());
    }
    if let Some((render, query)) = options.mix {
        if render + query == 0 {
            return Err("--mix needs a nonzero render:query ratio".into());
        }
    }
    let started = Instant::now();
    // All connections are established before any request is sent: the
    // barrier releases the request phase only once every thread holds an
    // accepted socket, so a point labeled "N connections" really does
    // measure N concurrent clients, not a connect/request ramp.
    let barrier = Arc::new(Barrier::new(options.connections));
    let shared = Arc::new(options.clone());
    let mut handles = Vec::new();
    for conn in 0..options.connections {
        let per = options.requests / options.connections
            + usize::from(conn < options.requests % options.connections);
        let options = Arc::clone(&shared);
        let barrier = Arc::clone(&barrier);
        handles.push(
            std::thread::Builder::new()
                .name(format!("loadgen-{conn}"))
                .stack_size(CONN_THREAD_STACK)
                .spawn(move || drive_connection(&options, conn, per, &barrier))
                .map_err(|e| format!("spawn connection thread {conn}: {e}"))?,
        );
    }
    let mut histogram = Histogram::new();
    let mut workloads: BTreeMap<String, WorkloadOutcome> = BTreeMap::new();
    let mut report = LoadgenReport::default();
    let mut request_phase_secs: f64 = 0.0;
    for handle in handles {
        let outcome = handle
            .join()
            .map_err(|_| "loadgen connection thread panicked".to_string())??;
        histogram.merge(&outcome.histogram);
        request_phase_secs = request_phase_secs.max(outcome.elapsed_secs);
        report.ok += outcome.ok;
        report.busy += outcome.busy;
        report.protocol_errors += outcome.errors;
        report.trace_mismatches += outcome.trace_mismatches;
        for (stage, h) in outcome.server_stages {
            report
                .server_stages
                .entry(stage)
                .or_insert_with(Histogram::new)
                .merge(&h);
        }
        for (workload, w) in outcome.per_workload {
            let merged = workloads.entry(workload).or_default();
            merged.histogram.merge(&w.histogram);
            merged.ok += w.ok;
            merged.busy += w.busy;
            merged.errors += w.errors;
        }
        for msg in outcome.first_errors {
            if report.first_errors.len() < 5 {
                report.first_errors.push(msg);
            }
        }
    }
    report.elapsed_secs = if request_phase_secs > 0.0 {
        request_phase_secs
    } else {
        started.elapsed().as_secs_f64()
    };
    report.sent = histogram.count();
    report.throughput_rps = if report.elapsed_secs > 0.0 {
        report.sent as f64 / report.elapsed_secs
    } else {
        0.0
    };
    report.goodput_rps = if report.elapsed_secs > 0.0 {
        report.ok as f64 / report.elapsed_secs
    } else {
        0.0
    };
    report.shed_rate = if report.sent > 0 {
        report.busy as f64 / report.sent as f64
    } else {
        0.0
    };
    report.p50_us = histogram.percentile_us(0.50);
    report.p90_us = histogram.percentile_us(0.90);
    report.p95_us = histogram.percentile_us(0.95);
    report.p99_us = histogram.percentile_us(0.99);
    report.mean_us = histogram.mean_us();
    report.min_us = histogram.min_us();
    report.max_us = histogram.max_us();
    for (workload, w) in workloads {
        report.per_workload.insert(
            workload,
            WorkloadStats {
                sent: w.histogram.count(),
                ok: w.ok,
                busy: w.busy,
                errors: w.errors,
                goodput_rps: if report.elapsed_secs > 0.0 {
                    w.ok as f64 / report.elapsed_secs
                } else {
                    0.0
                },
                p50_us: w.histogram.percentile_us(0.50),
                p95_us: w.histogram.percentile_us(0.95),
                p99_us: w.histogram.percentile_us(0.99),
                mean_us: w.histogram.mean_us(),
            },
        );
    }

    // One control connection for the final stats snapshot (and shutdown).
    let mut control = Client::connect(&options.addr)?;
    let stats = control.roundtrip(&JsonValue::object([
        ("id", JsonValue::from(-1)),
        ("cmd", "stats".into()),
    ]))?;
    if let Some(result) = stats.get("result") {
        if let Some(cache) = result.get("cache") {
            report.cache_hits = cache.get("hits").and_then(JsonValue::as_i64).unwrap_or(0) as u64;
            report.cache_misses =
                cache.get("misses").and_then(JsonValue::as_i64).unwrap_or(0) as u64;
            report.cache_hit_rate = cache
                .get("hit_rate")
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0);
        }
        report.sessions = result
            .get("sessions")
            .and_then(|s| s.get("count"))
            .and_then(JsonValue::as_i64)
            .unwrap_or(0) as u64;
        report.router = result.get("router").and_then(JsonValue::as_bool) == Some(true);
        if let Some(JsonValue::Array(shards)) = result.get("shards") {
            for shard in shards {
                report.router_shards.push((
                    shard.get("index").and_then(JsonValue::as_u64).unwrap_or(0),
                    shard
                        .get("state")
                        .and_then(JsonValue::as_str)
                        .unwrap_or("?")
                        .to_string(),
                    shard
                        .get("forwarded")
                        .and_then(JsonValue::as_u64)
                        .unwrap_or(0),
                ));
            }
        }
    }
    if options.expect_router && !report.router {
        return Err(format!(
            "--router: {} answered stats like a plain renderd, not a kdtune route front",
            options.addr
        ));
    }
    if options.shutdown_after {
        control.roundtrip(&JsonValue::object([
            ("id", JsonValue::from(-2)),
            ("cmd", "shutdown".into()),
        ]))?;
    }

    if let Some(path) = &options.out {
        write_report(&report, options, path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(report)
}

pub(crate) struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    pub(crate) fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        Client::from_stream(stream)
    }

    /// Connect with retry/backoff. A curve point opening hundreds of
    /// connections at once can overflow the listen backlog; the kernel
    /// drops the SYN or refuses, and a short retry is the correct
    /// response rather than failing the whole run.
    pub(crate) fn connect_retry(addr: &str) -> Result<Client, String> {
        let mut delay = Duration::from_millis(10);
        let mut last_err = String::new();
        for _ in 0..8 {
            match TcpStream::connect(addr) {
                Ok(stream) => return Client::from_stream(stream),
                Err(e) => last_err = format!("connect {addr}: {e}"),
            }
            std::thread::sleep(delay);
            delay = (delay * 2).min(Duration::from_millis(250));
        }
        Err(format!("{last_err} (after retries)"))
    }

    fn from_stream(stream: TcpStream) -> Result<Client, String> {
        // Tune steps at paper scale can take a while; be generous.
        stream.set_read_timeout(Some(Duration::from_secs(300))).ok();
        // Nagle would hold a request back behind an unacked one, so the
        // client latency would measure the socket, not the server.
        stream
            .set_nodelay(true)
            .map_err(|e| format!("set TCP_NODELAY: {e}"))?;
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("clone stream: {e}"))?,
        );
        Ok(Client { stream, reader })
    }

    pub(crate) fn roundtrip(&mut self, request: &JsonValue) -> Result<JsonValue, String> {
        let line = request.to_string();
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .and_then(|()| self.stream.flush())
            .map_err(|e| format!("send: {e}"))?;
        let mut response = String::new();
        let n = self
            .reader
            .read_line(&mut response)
            .map_err(|e| format!("recv: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        kdtune_telemetry::json::parse(response.trim())
            .map_err(|e| format!("bad response JSON: {e:?}"))
    }
}

fn drive_connection(
    options: &LoadgenOptions,
    conn: usize,
    count: usize,
    barrier: &Barrier,
) -> Result<ConnOutcome, String> {
    let mut client = Client::connect_retry(&options.addr)?;
    barrier.wait();
    let phase_started = Instant::now();
    let mut outcome = ConnOutcome {
        histogram: Histogram::new(),
        ok: 0,
        busy: 0,
        errors: 0,
        trace_mismatches: 0,
        server_stages: BTreeMap::new(),
        per_workload: BTreeMap::new(),
        first_errors: Vec::new(),
        elapsed_secs: 0.0,
    };
    for i in 0..count {
        let id = (conn as i64) * 1_000_000 + i as i64;
        let trace_tag = format!("c{conn}-{i}");
        let scene = &options.scenes[(conn + i) % options.scenes.len()];
        // With `--mix R:Q`, the last Q slots of every R+Q-request cycle
        // are point-query batches; tune steps only replace render slots,
        // so the query share of traffic is exactly Q/(R+Q).
        let query = options
            .mix
            .map(|(render, q)| i % (render + q) >= render)
            .unwrap_or(false);
        let tune = !query && options.tune_every > 0 && (i + 1) % options.tune_every == 0;
        let request = if query {
            JsonValue::object([
                ("id", JsonValue::from(id)),
                ("cmd", "query".into()),
                ("trace", trace_tag.as_str().into()),
                ("scene", scene.as_str().into()),
                ("scale", options.scale.as_str().into()),
                ("algo", options.algo.as_str().into()),
                // Batch shape stays at the server defaults (photon_gather,
                // 256 points, k=8, r=50‰); the seed varies per request so
                // successive batches gather around different points.
                ("seed", id.into()),
            ])
        } else if tune {
            JsonValue::object([
                ("id", JsonValue::from(id)),
                ("cmd", "tune_step".into()),
                ("trace", trace_tag.as_str().into()),
                ("scene", scene.as_str().into()),
                ("scale", options.scale.as_str().into()),
                ("algo", options.algo.as_str().into()),
                ("res", options.res.into()),
                ("packet_width", options.packet_width.into()),
                ("steps", options.tune_steps.into()),
            ])
        } else {
            // Offset the frame cycle by the connection index so concurrent
            // clients sit at different animation times: the instantaneous
            // working set spans scenes x frames instead of collapsing onto
            // one frame in lock-step, which is what actually pressures the
            // byte-accounted tree cache.
            let frame = (conn + i / options.scenes.len()) % options.frames.max(1);
            JsonValue::object([
                ("id", JsonValue::from(id)),
                ("cmd", "render".into()),
                ("trace", trace_tag.as_str().into()),
                ("scene", scene.as_str().into()),
                ("scale", options.scale.as_str().into()),
                ("algo", options.algo.as_str().into()),
                ("res", options.res.into()),
                ("packet_width", options.packet_width.into()),
                ("frame", frame.into()),
            ])
        };
        let workload = if query {
            "query"
        } else if tune {
            "tune_step"
        } else {
            "render"
        };
        let sent = Instant::now();
        let response = client.roundtrip(&request)?;
        let latency_us = sent.elapsed().as_micros() as u64;
        outcome.histogram.record_us(latency_us);
        let per_workload = outcome
            .per_workload
            .entry(workload.to_string())
            .or_default();
        per_workload.histogram.record_us(latency_us);
        // Every response (success or structured error) must echo the
        // trace tag we stamped on the request.
        if response.get("trace").and_then(JsonValue::as_str) != Some(&trace_tag) {
            outcome.trace_mismatches += 1;
        }
        if let Some(JsonValue::Object(map)) = response.get("result").and_then(|r| r.get("stages")) {
            for (key, value) in map {
                let stage = key.strip_suffix("_us").unwrap_or(key);
                if let Some(us) = value.as_u64() {
                    outcome
                        .server_stages
                        .entry(stage.to_string())
                        .or_default()
                        .record_us(us);
                }
            }
        }
        match response.get("ok").and_then(JsonValue::as_bool) {
            Some(true) => {
                outcome.ok += 1;
                per_workload.ok += 1;
            }
            _ => {
                let code = response
                    .get("error")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("?");
                if code == "busy" {
                    outcome.busy += 1;
                    per_workload.busy += 1;
                } else {
                    outcome.errors += 1;
                    per_workload.errors += 1;
                    if outcome.first_errors.len() < 5 {
                        let message = response
                            .get("message")
                            .and_then(JsonValue::as_str)
                            .unwrap_or("");
                        outcome.first_errors.push(format!("[{code}] {message}"));
                    }
                }
            }
        }
    }
    outcome.elapsed_secs = phase_started.elapsed().as_secs_f64();
    Ok(outcome)
}

/// Runs the workload once per connection count in `points` against the
/// same server, returning `(connections, report)` per point. Each point
/// sends at least two requests per connection (scaling `requests` up for
/// large points) so every connection actually participates. The server
/// is shared across points — caches and sessions stay warm, which is the
/// realistic comparison: the curve isolates the cost of *connections*,
/// not of cold caches.
///
/// If `options.shutdown_after` is set, shutdown is sent once, after the
/// final point; if `options.out` is set, a single multi-point report is
/// written there (see [`curve_report_json`]).
pub fn run_curve(
    options: &LoadgenOptions,
    points: &[usize],
) -> Result<Vec<(usize, LoadgenReport)>, String> {
    if points.is_empty() {
        return Err("need at least one curve point".into());
    }
    let mut results = Vec::new();
    for &connections in points {
        let point = LoadgenOptions {
            connections,
            requests: options
                .requests
                .max(connections * options.per_conn_floor.max(2)),
            shutdown_after: false,
            out: None,
            ..options.clone()
        };
        let report = run(&point)?;
        results.push((connections, report));
    }
    if options.shutdown_after {
        let mut control = Client::connect(&options.addr)?;
        control.roundtrip(&JsonValue::object([
            ("id", JsonValue::from(-2)),
            ("cmd", "shutdown".into()),
        ]))?;
    }
    if let Some(path) = &options.out {
        let json = curve_report_json(options, &results);
        write_json(&json, path).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(results)
}

/// The report as JSON (the shape written to `results/BENCH_server.json`).
pub fn report_json(report: &LoadgenReport, options: &LoadgenOptions) -> JsonValue {
    JsonValue::object([
        ("bench", JsonValue::from("server")),
        (
            "workload",
            JsonValue::object([
                ("connections", JsonValue::from(options.connections)),
                ("requests", options.requests.into()),
                (
                    "scenes",
                    options
                        .scenes
                        .iter()
                        .map(|s| JsonValue::from(s.as_str()))
                        .collect::<Vec<_>>()
                        .into(),
                ),
                ("scale", options.scale.as_str().into()),
                ("res", options.res.into()),
                ("algo", options.algo.as_str().into()),
                ("frames", options.frames.into()),
                ("tune_every", options.tune_every.into()),
                ("tune_steps", options.tune_steps.into()),
                (
                    "mix",
                    match options.mix {
                        Some((render, query)) => format!("{render}:{query}").into(),
                        None => JsonValue::Null,
                    },
                ),
            ]),
        ),
        ("sent", report.sent.into()),
        ("ok", report.ok.into()),
        ("busy", report.busy.into()),
        ("protocol_errors", report.protocol_errors.into()),
        ("trace_mismatches", report.trace_mismatches.into()),
        ("elapsed_secs", report.elapsed_secs.into()),
        ("throughput_rps", report.throughput_rps.into()),
        ("goodput_rps", report.goodput_rps.into()),
        ("shed_rate", report.shed_rate.into()),
        (
            "latency_us",
            JsonValue::object([
                ("p50", JsonValue::from(report.p50_us)),
                ("p90", report.p90_us.into()),
                ("p95", report.p95_us.into()),
                ("p99", report.p99_us.into()),
                ("mean", report.mean_us.into()),
                ("min", report.min_us.into()),
                ("max", report.max_us.into()),
            ]),
        ),
        (
            "server_stage_us",
            JsonValue::Object(
                report
                    .server_stages
                    .iter()
                    .map(|(stage, h)| {
                        (
                            stage.clone(),
                            JsonValue::object([
                                ("count", JsonValue::from(h.count())),
                                ("p50", h.percentile_us(0.50).into()),
                                ("p95", h.percentile_us(0.95).into()),
                                ("p99", h.percentile_us(0.99).into()),
                                ("mean", h.mean_us().into()),
                                ("max", h.max_us().into()),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "per_workload",
            JsonValue::Object(
                report
                    .per_workload
                    .iter()
                    .map(|(workload, w)| {
                        (
                            workload.clone(),
                            JsonValue::object([
                                ("sent", JsonValue::from(w.sent)),
                                ("ok", w.ok.into()),
                                ("busy", w.busy.into()),
                                ("errors", w.errors.into()),
                                ("goodput_rps", w.goodput_rps.into()),
                                (
                                    "latency_us",
                                    JsonValue::object([
                                        ("p50", JsonValue::from(w.p50_us)),
                                        ("p95", w.p95_us.into()),
                                        ("p99", w.p99_us.into()),
                                        ("mean", w.mean_us.into()),
                                    ]),
                                ),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "server",
            JsonValue::object([
                ("cache_hits", JsonValue::from(report.cache_hits)),
                ("cache_misses", report.cache_misses.into()),
                ("cache_hit_rate", report.cache_hit_rate.into()),
                ("sessions", report.sessions.into()),
                ("router", report.router.into()),
                (
                    "shards",
                    report
                        .router_shards
                        .iter()
                        .map(|(index, state, forwarded)| {
                            JsonValue::object([
                                ("index", JsonValue::from(*index)),
                                ("state", state.as_str().into()),
                                ("forwarded", (*forwarded).into()),
                            ])
                        })
                        .collect::<Vec<_>>()
                        .into(),
                ),
            ]),
        ),
        ("threads", rayon::current_num_threads().into()),
    ])
}

/// One connections-vs-throughput/latency point of a curve report.
fn curve_point_json(connections: usize, report: &LoadgenReport) -> JsonValue {
    JsonValue::object([
        ("connections", JsonValue::from(connections)),
        ("sent", report.sent.into()),
        ("ok", report.ok.into()),
        ("busy", report.busy.into()),
        ("protocol_errors", report.protocol_errors.into()),
        ("trace_mismatches", report.trace_mismatches.into()),
        ("elapsed_secs", report.elapsed_secs.into()),
        ("throughput_rps", report.throughput_rps.into()),
        ("goodput_rps", report.goodput_rps.into()),
        ("shed_rate", report.shed_rate.into()),
        (
            "latency_us",
            JsonValue::object([
                ("p50", JsonValue::from(report.p50_us)),
                ("p90", report.p90_us.into()),
                ("p95", report.p95_us.into()),
                ("p99", report.p99_us.into()),
                ("mean", report.mean_us.into()),
                ("min", report.min_us.into()),
                ("max", report.max_us.into()),
            ]),
        ),
    ])
}

/// A multi-point curve report. The top level keeps the single-run shape
/// (filled from the *first* point, the baseline connection count) so
/// existing consumers of `BENCH_server.json` keep working, and adds a
/// `curve` array with one entry per connection count.
pub fn curve_report_json(
    options: &LoadgenOptions,
    results: &[(usize, LoadgenReport)],
) -> JsonValue {
    let (first_conns, first) = &results[0];
    let base = LoadgenOptions {
        connections: *first_conns,
        ..options.clone()
    };
    let mut json = report_json(first, &base);
    if let JsonValue::Object(map) = &mut json {
        map.insert(
            "curve".into(),
            results
                .iter()
                .map(|(connections, report)| curve_point_json(*connections, report))
                .collect::<Vec<_>>()
                .into(),
        );
    }
    json
}

fn write_json(json: &JsonValue, path: &PathBuf) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, format!("{json}\n"))
}

fn write_report(
    report: &LoadgenReport,
    options: &LoadgenOptions,
    path: &PathBuf,
) -> std::io::Result<()> {
    write_json(&report_json(report, options), path)
}

/// Human-readable run summary for the CLI.
pub fn format_summary(report: &LoadgenReport) -> String {
    let mut out = format!(
        "{} requests in {:.2}s ({:.1} sent/s, {:.1} ok/s goodput, {:.1}% shed)\n\
         ok {}  busy {}  errors {}  trace mismatches {}\n\
         latency p50 {:.2}ms  p95 {:.2}ms  p99 {:.2}ms  (mean {:.2}ms, max {:.2}ms)\n\
         cache hit rate {:.1}% ({} hits / {} misses), {} sessions",
        report.sent,
        report.elapsed_secs,
        report.throughput_rps,
        report.goodput_rps,
        report.shed_rate * 100.0,
        report.ok,
        report.busy,
        report.protocol_errors,
        report.trace_mismatches,
        report.p50_us as f64 / 1e3,
        report.p95_us as f64 / 1e3,
        report.p99_us as f64 / 1e3,
        report.mean_us / 1e3,
        report.max_us as f64 / 1e3,
        report.cache_hit_rate * 100.0,
        report.cache_hits,
        report.cache_misses,
        report.sessions,
    );
    if !report.per_workload.is_empty() {
        out.push_str("\nper workload:");
        for (workload, w) in &report.per_workload {
            out.push_str(&format!(
                "  {} {} ok ({:.1} ok/s, p50 {:.2}ms p95 {:.2}ms)",
                workload,
                w.ok,
                w.goodput_rps,
                w.p50_us as f64 / 1e3,
                w.p95_us as f64 / 1e3,
            ));
        }
    }
    if report.router {
        out.push_str("\nrouter shards:");
        for (index, state, forwarded) in &report.router_shards {
            out.push_str(&format!("  [{index}] {state} ({forwarded} fwd)"));
        }
    }
    if !report.server_stages.is_empty() {
        out.push_str("\nserver stages (p50/p95):");
        for (stage, h) in &report.server_stages {
            out.push_str(&format!(
                "  {} {:.2}/{:.2}ms",
                stage,
                h.percentile_us(0.50) as f64 / 1e3,
                h.percentile_us(0.95) as f64 / 1e3,
            ));
        }
    }
    out
}
