//! The service workload `serve_routed`. In its open-loop segments
//! requests arrive on a seeded Poisson schedule whether or not earlier
//! ones have been answered, the way independent users arrive, so a stall
//! shows as queueing.
//!
//! `kdtune route` fronts 2 spawned renderd shards with one worker and a
//! small cache each, and a fresh store. Small renders over many frames of
//! the dynamic scenes and k-NN/radius query batches arrive 1:1, plus an
//! occasional `tune_step`. The render working set is larger than a
//! shard's cache, so misses, inserts and evictions put builds on the
//! request path next to cache hits; every request crosses the router hop
//! and the event loop, and the query batches run the point kernels.
//!
//! A run alternates two kinds of segment on one pipelined connection.
//! Open-loop segments offer the nominal rate and give the latency
//! figures, counted from each request's due time. Saturation segments
//! keep a fixed number of requests in flight, each reply releasing the
//! next request, and give the throughput figure. Alternating them spreads
//! both measurements over the whole run, so a few seconds of a slow
//! shared host do not decide either one. The generator is one sender
//! thread plus one reader thread.

use crate::check::{
    check_query_reply, check_render_reply, check_tune_reply, query_reference, QueryRef, RenderRef,
};
use crate::layers::{replay_queries, QueryBatch};
use crate::trace::Tracer;
use crate::util::{mean, median, peak_rss_mb, put, quantile, ratio, Metrics, Rng};
use crate::{Opts, Outcome, SETUP_REPEATS};
use kdtune::base_build_params;
use kdtune::kdtree::{Algorithm, KdTree};
use kdtune::raycast::{render_with_options, Camera, RenderOptions};
use kdtune::scenes::{by_name, sample_points, PointSampler};
use kdtune::telemetry::json::{self, JsonValue};
use kdtune_server::session::build_eager;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Requests per second in the open-loop segments, which give the latency
/// figures: about a third of the saturation throughput here, with far
/// more than ten samples beyond the reported p90.
const NOMINAL_RATE: f64 = 100.0;
/// Requests kept in flight in the saturation segments: enough to keep
/// both shards' workers busy, far below their queue and the router's
/// pending window, so nothing is refused.
const WINDOW: usize = 8;
/// Open-loop and saturation segments alternate this many times a run.
const ROUNDS: usize = 5;
/// Share of each round spent in its open-loop segment.
const OPEN_SHARE: f64 = 0.6;
/// Open-loop segments whose generator sent its p99 request later than
/// this after its due time are invalid: the measurement, not the service,
/// fell behind. Latency counts from the due time, so a shorter lateness
/// still shows in the figures; it only makes arrivals burstier than
/// Poisson.
const MAX_SEND_LAG_MS: f64 = 50.0;
/// Backlog growth, in requests per second per request per second of
/// offered rate, above which the open-loop segments are reported as
/// overloaded.
const MAX_BACKLOG_GROWTH: f64 = 0.05;
/// How long to wait for the replies of a finished segment.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(15);

/// What a reply must contain.
#[derive(Clone, Copy)]
enum Expect {
    Render(RenderRef),
    Query(QueryRef),
    Tune,
}

/// One distinct request: its JSON body (without `id`) and its check.
struct Template {
    body: String,
    expect: Expect,
}

/// A workload's fixed shape.
struct Spec {
    name: &'static str,
    /// Worker threads across all server processes.
    workers: usize,
}

// ---------------------------------------------------------------------------
// Server processes
// ---------------------------------------------------------------------------

/// A renderd or router child process, started from this executable's
/// `serve`/`route` passthrough with a private store directory.
struct Service {
    child: Child,
    addr: SocketAddr,
    stdout: Option<JoinHandle<()>>,
    /// Shard processes behind a router (grandchildren of this process).
    shard_pids: Vec<u32>,
}

impl Service {
    fn start(store_dir: &Path) -> Result<Service, String> {
        std::fs::create_dir_all(store_dir).map_err(|e| format!("{}: {e}", store_dir.display()))?;
        let store = store_dir.join("store.jsonl").display().to_string();
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut cmd = Command::new(exe);
        let cache_mb = CACHE_MB.to_string();
        cmd.args(["route", "--addr", "127.0.0.1:0", "--shards", "2"])
            .args(["--workers", "1", "--cache-mb", &cache_mb, "--store", &store]);
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn service: {e}"))?;
        let mut lines = BufReader::new(child.stdout.take().expect("stdout was piped")).lines();
        let addr = loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(rest) = line.split("listening on ").nth(1) {
                        let token = rest.split_whitespace().next().unwrap_or("");
                        break token
                            .parse()
                            .map_err(|e| format!("bad address {token:?}: {e}"))?;
                    }
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("service exited before listening".into());
                }
            }
        };
        // Keep draining stdout so the child never blocks on a full pipe.
        let stdout = std::thread::spawn(move || for _ in lines.by_ref() {});
        let mut service = Service {
            child,
            addr,
            stdout: Some(stdout),
            shard_pids: Vec::new(),
        };
        service.wait_for_shards()?;
        Ok(service)
    }

    /// Polls the router's merged stats until both shards are up.
    fn wait_for_shards(&mut self) -> Result<(), String> {
        let mut control = Control::connect(self.addr)?;
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            let stats = control.call("\"cmd\":\"stats\"")?;
            let result = stats.get("result").cloned().unwrap_or(JsonValue::Null);
            if result.get("shards_up").and_then(JsonValue::as_u64) == Some(2) {
                self.shard_pids = shard_field(&result, "pid")
                    .into_iter()
                    .map(|p| p as u32)
                    .collect();
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        Err("router shards did not come up".into())
    }

    /// Summed peak RSS of every server process, in MiB.
    fn peak_rss_mb(&self) -> f64 {
        std::iter::once(self.child.id())
            .chain(self.shard_pids.iter().copied())
            .filter_map(peak_rss_mb)
            .sum()
    }

    /// Asks for a clean drain, then waits for every process to end.
    fn stop(mut self) -> Result<(), String> {
        let drained = Control::connect(self.addr)
            .and_then(|mut c| c.call("\"cmd\":\"shutdown\"").map(|_| ()));
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut exited = false;
        while Instant::now() < deadline {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                exited = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let shards_gone = wait_pids_gone(&self.shard_pids, Duration::from_secs(10));
        self.kill();
        drained?;
        if !exited || !shards_gone {
            return Err("service did not drain within 20 s".into());
        }
        Ok(())
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        for pid in self.shard_pids.drain(..) {
            if Path::new(&format!("/proc/{pid}")).exists() {
                let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
            }
        }
        if let Some(handle) = self.stdout.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.kill();
    }
}

fn wait_pids_gone(pids: &[u32], timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        let alive = pids
            .iter()
            .any(|pid| Path::new(&format!("/proc/{pid}")).exists());
        if !alive {
            return true;
        }
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// `shards[i].<name>` of a router's merged stats.
fn shard_field(stats: &JsonValue, name: &str) -> Vec<u64> {
    match stats.get("shards") {
        Some(JsonValue::Array(shards)) => shards
            .iter()
            .filter_map(|s| s.get(name).and_then(JsonValue::as_u64))
            .collect(),
        _ => Vec::new(),
    }
}

/// A blocking request/reply connection for set-up and control commands.
struct Control {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: i64,
}

impl Control {
    fn connect(addr: SocketAddr) -> Result<Control, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Control {
            stream,
            reader,
            next_id: 1,
        })
    }

    /// Sends one request body and returns the whole reply object.
    fn call(&mut self, body: &str) -> Result<JsonValue, String> {
        let id = self.next_id;
        self.next_id += 1;
        writeln!(self.stream, "{{\"id\":{id},{body}}}").map_err(|e| e.to_string())?;
        let mut line = String::new();
        self.reader
            .read_line(&mut line)
            .map_err(|e| e.to_string())?;
        json::parse(line.trim()).map_err(|e| format!("bad reply {line:?}: {e:?}"))
    }
}

// ---------------------------------------------------------------------------
// Workload shapes and references
// ---------------------------------------------------------------------------

/// Rendered scenes and scales. fairy_forest runs at tiny scale so that
/// every miss costs a build of similar size (~5-10 ms here): a few 60 ms
/// builds would otherwise decide the tail by chance.
const RENDER_SCENES: [(&str, &str); 3] = [
    ("toasters", "quick"),
    ("wood_doll", "quick"),
    ("fairy_forest", "tiny"),
];
const RENDER_RES: [u32; 3] = [48, 64, 80];
/// Frames 0, 2, …, 18 of every scene: a fixed working set, so that seeds
/// vary the traffic, not the amount of distinct work.
const RENDER_FRAMES: usize = 10;
/// Per-shard cache budget: smaller than each shard's share of the
/// working set, so the run exercises misses, inserts and evictions.
const CACHE_MB: usize = 2;
/// Queried scenes, at tiny scale so that a query tree evicted by the
/// render traffic costs a small rebuild like the render trees do.
const QUERY_SCENES: [&str; 2] = ["bunny", "fairy_forest"];
const QUERY_SCALE: &str = "tiny";
/// Seeded batches per (scene, sampler).
const QUERY_SEEDS: usize = 4;
const QUERY_BATCH: usize = 256;
const QUERY_K: usize = 8;
/// The service's default gather radius, per mille of the bbox diagonal.
const QUERY_RADIUS_PM: f32 = 50.0;
/// One request in this many is a `tune_step`.
const TUNE_EVERY: usize = 25;
/// Share of the other requests that are renders (the rest are query
/// batches).
const RENDER_SHARE: f64 = 0.5;

/// A point-query batch as sent: which scene's query tree it targets,
/// how its points were sampled, and the points themselves.
struct SentBatch {
    scene: usize,
    sampler: PointSampler,
    seed: u64,
    points: Vec<kdtune::geometry::Vec3>,
    radius: f32,
}

/// Everything set-up computes in-process: the distinct requests (renders,
/// then query batches, then the tune step) and what the traced replay
/// needs.
struct Inputs {
    templates: Vec<Template>,
    /// Query batches for the traced replay.
    query_points: Vec<SentBatch>,
    /// Trees the service builds for queries (in-place, C_base).
    query_trees: Vec<KdTree>,
}

fn scene(name: &str, scale: &str) -> kdtune::Scene {
    let params = kdtune_server::session::scale_params(scale).expect("known scale");
    by_name(name, &params).expect("known scene")
}

/// Reference counters for `(scene, frame)` at each resolution, from a
/// node-level C_base tree (the service builds in-place trees).
fn render_refs(scene: &kdtune::Scene, frame: usize, res: &[u32]) -> Vec<RenderRef> {
    let tree = build_eager(
        scene.frame(frame),
        Algorithm::NodeLevel,
        &base_build_params(),
    );
    let v = scene.view;
    res.iter()
        .map(|&r| {
            let cam = Camera::look_at(v.eye, v.target, v.up, v.fov_deg, r, r);
            let options = RenderOptions::default();
            render_with_options(&tree, tree.mesh(), &cam, v.light, &options)
                .1
                .into()
        })
        .collect()
}

fn inputs(seed: u64) -> Inputs {
    let mut templates = Vec::new();
    for (name, scale) in RENDER_SCENES {
        let scene = scene(name, scale);
        for frame in (0..RENDER_FRAMES).map(|i| 2 * i) {
            let refs = render_refs(&scene, frame, &RENDER_RES);
            for (res, expect) in RENDER_RES.iter().zip(refs) {
                templates.push(Template {
                    body: format!(
                        "\"cmd\":\"render\",\"scene\":\"{name}\",\"scale\":\"{scale}\",\"res\":{res},\"frame\":{frame}"
                    ),
                    expect: Expect::Render(expect),
                });
            }
        }
    }
    let mut rng = Rng::new(seed, 3);
    let mut query_points = Vec::new();
    let mut query_trees = Vec::new();
    for (si, name) in QUERY_SCENES.iter().enumerate() {
        let mesh = scene(name, QUERY_SCALE).frame(0);
        let radius = QUERY_RADIUS_PM / 1000.0 * mesh.bounds().extent().length();
        let reference = build_eager(mesh.clone(), Algorithm::NodeLevel, &base_build_params());
        query_trees.push(build_eager(
            mesh.clone(),
            Algorithm::InPlace,
            &base_build_params(),
        ));
        for sampler in PointSampler::ALL {
            for _ in 0..QUERY_SEEDS {
                let qseed = rng.next_u64() >> 16;
                let points = sample_points(&mesh, sampler, QUERY_BATCH, qseed);
                let expect = query_reference(&reference, &points, QUERY_K, radius);
                templates.push(Template {
                    body: format!(
                        "\"cmd\":\"query\",\"scene\":\"{name}\",\"scale\":\"{QUERY_SCALE}\",\"sampler\":\"{}\",\"batch\":{QUERY_BATCH},\"k\":{QUERY_K},\"seed\":{qseed}",
                        sampler.name()
                    ),
                    expect: Expect::Query(expect),
                });
                query_points.push(SentBatch {
                    scene: si,
                    sampler,
                    seed: qseed,
                    points,
                    radius,
                });
            }
        }
    }
    // A small session of its own, so tuning never changes the trees the
    // render traffic hits.
    templates.push(Template {
        body: "\"cmd\":\"tune_step\",\"scene\":\"bunny\",\"scale\":\"tiny\",\"res\":32,\"steps\":1"
            .to_string(),
        expect: Expect::Tune,
    });
    Inputs {
        templates,
        query_points,
        query_trees,
    }
}

/// Picks the template of the next request.
fn pick(inputs: &Inputs, rng: &mut Rng, n: usize) -> usize {
    let count = inputs.templates.len();
    let queries = inputs.query_points.len();
    let renders = count - queries - 1;
    if n % TUNE_EVERY == TUNE_EVERY - 1 {
        count - 1
    } else if rng.unit() < RENDER_SHARE {
        rng.below(renders)
    } else {
        renders + rng.below(queries)
    }
}

/// Checks one reply against its template; `Err` is a wrong output,
/// `Ok(false)` a `busy` refusal.
fn check_reply(expect: &Expect, reply: &JsonValue) -> Result<bool, String> {
    if reply.get("ok").and_then(JsonValue::as_bool) != Some(true) {
        let code = reply
            .get("error")
            .and_then(JsonValue::as_str)
            .unwrap_or("?");
        if code == "busy" {
            return Ok(false);
        }
        return Err(format!("error reply {reply:?}"));
    }
    let result = reply.get("result").ok_or("reply without result")?;
    match expect {
        Expect::Render(r) => check_render_reply(r, result)?,
        Expect::Query(q) => check_query_reply(q, result)?,
        Expect::Tune => check_tune_reply(result)?,
    }
    Ok(true)
}

// ---------------------------------------------------------------------------
// The open-loop generator
// ---------------------------------------------------------------------------

/// One answered request.
struct Done {
    template: usize,
    due: Instant,
    sent: Instant,
    received: Instant,
    reply: JsonValue,
}

struct InFlight {
    template: usize,
    due: Instant,
    sent: Instant,
}

/// Replies received on a load connection; the sender waits on it.
#[derive(Default)]
struct Received {
    count: Mutex<u64>,
    changed: Condvar,
}

impl Received {
    fn get(&self) -> u64 {
        *self.count.lock().expect("received lock")
    }

    fn add_one(&self) {
        *self.count.lock().expect("received lock") += 1;
        self.changed.notify_all();
    }

    /// Waits until at least `n` replies have arrived or `deadline` has
    /// passed, and returns the count.
    fn wait_for(&self, n: u64, deadline: Instant) -> u64 {
        let mut count = self.count.lock().expect("received lock");
        while *count < n {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            count = self
                .changed
                .wait_timeout(count, deadline - now)
                .expect("received lock")
                .0;
        }
        *count
    }
}

/// A pipelined load connection: the caller's thread sends, a reader
/// thread matches replies to requests by id.
struct Load {
    stream: TcpStream,
    pending: Arc<Mutex<HashMap<i64, InFlight>>>,
    done: Arc<Mutex<Vec<Done>>>,
    received: Arc<Received>,
    reader: Option<JoinHandle<Result<(), String>>>,
    next_id: i64,
}

impl Load {
    fn connect(addr: SocketAddr) -> Result<Load, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let pending: Arc<Mutex<HashMap<i64, InFlight>>> = Arc::default();
        let done: Arc<Mutex<Vec<Done>>> = Arc::default();
        let received: Arc<Received> = Arc::default();
        let reader = {
            let stream = stream.try_clone().map_err(|e| e.to_string())?;
            let (pending, done, received) = (pending.clone(), done.clone(), received.clone());
            std::thread::spawn(move || -> Result<(), String> {
                for line in BufReader::new(stream).lines() {
                    let Ok(line) = line else { break };
                    let now = Instant::now();
                    let reply = json::parse(&line).map_err(|e| format!("bad reply: {e:?}"))?;
                    let id = reply.get("id").and_then(JsonValue::as_i64).unwrap_or(-1);
                    let entry = pending.lock().expect("pending lock").remove(&id);
                    let Some(f) = entry else {
                        return Err(format!("reply to unknown id {id}"));
                    };
                    done.lock().expect("done lock").push(Done {
                        template: f.template,
                        due: f.due,
                        sent: f.sent,
                        received: now,
                        reply,
                    });
                    received.add_one();
                }
                Ok(())
            })
        };
        Ok(Load {
            stream,
            pending,
            done,
            received,
            reader: Some(reader),
            next_id: 1,
        })
    }

    /// Sends one request for `template`, due at `due`; returns the send
    /// time.
    fn send(&mut self, inputs: &Inputs, template: usize, due: Instant) -> Result<Instant, String> {
        let id = self.next_id;
        self.next_id += 1;
        let now = Instant::now();
        self.pending.lock().expect("pending lock").insert(
            id,
            InFlight {
                template,
                due,
                sent: now,
            },
        );
        let line = format!("{{\"id\":{id},{}}}\n", inputs.templates[template].body);
        self.stream
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        Ok(now)
    }

    /// Waits for the replies to `sent` requests counted from `base`, then
    /// takes every reply and the number still missing.
    fn drain(&mut self, base: u64, sent: u64) -> (Vec<Done>, usize) {
        let answered = self
            .received
            .wait_for(base + sent, Instant::now() + DRAIN_TIMEOUT)
            - base;
        let done = std::mem::take(&mut *self.done.lock().expect("done lock"));
        self.pending.lock().expect("pending lock").clear();
        (done, (sent - answered) as usize)
    }

    fn close(mut self) -> Result<(), String> {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        match self.reader.take().map(JoinHandle::join) {
            Some(Ok(result)) => result,
            Some(Err(_)) => Err("reply reader panicked".into()),
            None => Ok(()),
        }
    }
}

/// What the open-loop segments measured.
#[derive(Default)]
struct OpenLoop {
    rate: f64,
    done: Vec<Done>,
    /// Requests never answered within the drain timeout.
    lost: usize,
    send_lag_ms: Vec<f64>,
    /// Least-squares slope of outstanding requests over time, per s, of
    /// each segment.
    backlog_slopes: Vec<f64>,
    wall_s: f64,
}

impl OpenLoop {
    /// Adds a later segment at the same rate.
    fn extend(&mut self, other: OpenLoop) {
        self.rate = other.rate;
        self.done.extend(other.done);
        self.lost += other.lost;
        self.send_lag_ms.extend(other.send_lag_ms);
        self.backlog_slopes.extend(other.backlog_slopes);
        self.wall_s += other.wall_s;
    }
}

fn sleep_until(t: Instant) {
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        let left = t - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

fn slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    if points.len() < 3 {
        return 0.0;
    }
    let (mx, my) = (
        points.iter().map(|p| p.0).sum::<f64>() / n,
        points.iter().map(|p| p.1).sum::<f64>() / n,
    );
    let cov: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let var: f64 = points.iter().map(|p| (p.0 - mx).powi(2)).sum();
    ratio(cov, var)
}

/// Offers `rate` requests per second for `duration`, then waits for the
/// replies.
fn run_open(
    load: &mut Load,
    inputs: &Inputs,
    rng: &mut Rng,
    rate: f64,
    duration: Duration,
) -> Result<OpenLoop, String> {
    let start = Instant::now() + Duration::from_millis(5);
    let end = start + duration;
    let mut due = start;
    let (mut sent, mut lag) = (0u64, Vec::new());
    let base = load.received.get();
    let mut backlog = Vec::new();
    let mut next_sample = start;
    loop {
        due += rng.exp_gap(rate);
        if due >= end {
            break;
        }
        sleep_until(due);
        let template = pick(inputs, rng, sent as usize);
        let now = load.send(inputs, template, due)?;
        lag.push((now - due).as_secs_f64() * 1e3);
        sent += 1;
        if now >= next_sample {
            let answered = load.received.get() - base;
            backlog.push(((now - start).as_secs_f64(), (sent - answered) as f64));
            next_sample = now + Duration::from_millis(50);
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let (done, lost) = load.drain(base, sent);
    Ok(OpenLoop {
        rate,
        done,
        lost,
        send_lag_ms: lag,
        backlog_slopes: vec![slope(&backlog)],
        wall_s,
    })
}

/// What one saturation segment measured.
struct Saturation {
    /// Replies that arrived within the segment.
    answered: u64,
    wall_s: f64,
    done: Vec<Done>,
    lost: usize,
}

/// Keeps `window` requests in flight for `duration`, each reply
/// releasing the next request, then waits for the replies still out.
fn run_window(
    load: &mut Load,
    inputs: &Inputs,
    rng: &mut Rng,
    window: usize,
    duration: Duration,
) -> Result<Saturation, String> {
    let start = Instant::now();
    let end = start + duration;
    let base = load.received.get();
    let mut sent = 0u64;
    loop {
        let needed = (sent + 1).saturating_sub(window as u64);
        load.received.wait_for(base + needed, end);
        let now = Instant::now();
        if now >= end {
            break;
        }
        let template = pick(inputs, rng, sent as usize);
        load.send(inputs, template, now)?;
        sent += 1;
    }
    let answered = load.received.get() - base;
    let wall_s = start.elapsed().as_secs_f64();
    let (done, lost) = load.drain(base, sent);
    Ok(Saturation {
        answered,
        wall_s,
        done,
        lost,
    })
}

/// Checks every reply of a segment, counting wrong and missing ones as
/// failures, and returns each request's latency from its due time (`inf`
/// for a refusal or a wrong reply) and the number of refusals.
fn check_segment(
    spec: &Spec,
    what: &str,
    done: &[Done],
    lost: usize,
    outcome: &mut Outcome,
    inputs: &Inputs,
) -> (Vec<f64>, usize) {
    let mut latencies = Vec::with_capacity(done.len() + lost);
    let mut refused = 0;
    for d in done {
        match check_reply(&inputs.templates[d.template].expect, &d.reply) {
            Ok(true) => latencies.push((d.received - d.due).as_secs_f64() * 1e3),
            Ok(false) => {
                refused += 1;
                latencies.push(f64::INFINITY);
            }
            Err(e) => {
                outcome.fail(format!("{} {what}: {e}", spec.name));
                latencies.push(f64::INFINITY);
            }
        }
    }
    for _ in 0..lost {
        outcome.fail(format!("{} {what}: no reply", spec.name));
        latencies.push(f64::INFINITY);
    }
    // Every request must be answered correctly: the window and the
    // nominal rate are far below what makes the service shed load.
    for _ in 0..refused {
        outcome.fail(format!("{} {what}: busy", spec.name));
    }
    outcome.attempted += (done.len() + lost) as u64;
    (latencies, refused)
}

/// Latency figures of the open-loop segments.
struct Verdict {
    /// Mean over the correctly answered requests.
    mean: f64,
    p50: f64,
    p90: f64,
    p99: f64,
    lag_p99: f64,
    /// The generator kept to its schedule.
    valid: bool,
    /// Outstanding requests grew in some segment.
    growing: bool,
}

fn judge(spec: &Spec, open: &OpenLoop, outcome: &mut Outcome, inputs: &Inputs) -> Verdict {
    let what = format!("at {:.0}/s", open.rate);
    let (latencies, _) = check_segment(spec, &what, &open.done, open.lost, outcome, inputs);
    let lag_p99 = quantile(&open.send_lag_ms, 0.99);
    let answered: Vec<f64> = latencies
        .iter()
        .copied()
        .filter(|l| l.is_finite())
        .collect();
    Verdict {
        mean: mean(&answered),
        p50: quantile(&latencies, 0.5),
        p90: quantile(&latencies, 0.9),
        p99: quantile(&latencies, 0.99),
        lag_p99,
        valid: lag_p99 <= MAX_SEND_LAG_MS,
        growing: open
            .backlog_slopes
            .iter()
            .any(|&s| s > MAX_BACKLOG_GROWTH * open.rate),
    }
}

fn print_open(spec: &Spec, open: &OpenLoop, v: &Verdict) {
    let verdict = if !v.valid {
        "INVALID (generator behind)"
    } else if v.growing {
        "backlog growing"
    } else {
        "steady"
    };
    let slopes: Vec<String> = open
        .backlog_slopes
        .iter()
        .map(|s| format!("{s:+.2}"))
        .collect();
    println!(
        "{} rate {:.1}/s over {:.1} s: n={} mean={:.2}ms p50={:.2}ms p90={:.2}ms p99={:.2}ms lost={} send_lag_p99={:.3}ms backlog_slope=[{}]/s {verdict}",
        spec.name,
        open.rate,
        open.wall_s,
        open.done.len(),
        v.mean,
        v.p50,
        v.p90,
        v.p99,
        open.lost,
        v.lag_p99,
        slopes.join(" "),
    );
}

// ---------------------------------------------------------------------------
// The workloads
// ---------------------------------------------------------------------------

/// The run's private directory inside the checkout, holding one fresh
/// config store per service start; removed when the run ends, so no
/// persisted config can warm-start a later run.
struct RunDir(PathBuf);

impl RunDir {
    fn new(workload: &str) -> RunDir {
        RunDir(
            PathBuf::from("perfbench")
                .join("tmp")
                .join(format!("{workload}-{}", std::process::id())),
        )
    }

    fn start(&self, n: usize) -> PathBuf {
        self.0.join(format!("start-{n}"))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Starts the service and warms it with every distinct request once,
/// checking each reply.
fn start_and_warm(
    spec: &Spec,
    inputs: &Inputs,
    dir: &Path,
    outcome: &mut Outcome,
) -> Result<Service, String> {
    let service = Service::start(dir)?;
    let mut control = Control::connect(service.addr)?;
    for t in &inputs.templates {
        let reply = control.call(&t.body)?;
        outcome.attempted += 1;
        match check_reply(&t.expect, &reply) {
            Ok(true) => {}
            Ok(false) => outcome.fail(format!("{}: warm-up refused", spec.name)),
            Err(e) => outcome.fail(format!("{} warm-up: {e}", spec.name)),
        }
    }
    Ok(service)
}

fn stats(addr: SocketAddr) -> Result<JsonValue, String> {
    let reply = Control::connect(addr)?.call("\"cmd\":\"stats\"")?;
    reply
        .get("result")
        .cloned()
        .ok_or_else(|| "stats without result".into())
}

fn cache_counter(stats: &JsonValue, name: &str) -> f64 {
    stats
        .get("cache")
        .and_then(|c| c.get(name))
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0)
}

/// The `serve_routed` workload.
pub fn serve_routed(opts: &Opts, tracer: &mut Tracer) -> Result<Outcome, String> {
    let spec = Spec {
        name: "serve_routed",
        workers: 2,
    };
    serve(&spec, inputs(opts.seed), opts, tracer)
}

fn serve(spec: &Spec, inputs: Inputs, opts: &Opts, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let run_dir = RunDir::new(spec.name);
    // Every start but the last is drained and stopped before the next
    // one, outside the timed region.
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut service: Option<Service> = None;
    for n in 1..=SETUP_REPEATS {
        if let Some(previous) = service.take() {
            previous.stop()?;
        }
        let t0 = Instant::now();
        service = Some(start_and_warm(
            spec,
            &inputs,
            &run_dir.start(n),
            &mut outcome,
        )?);
        times.push(t0.elapsed().as_secs_f64());
    }
    let setup_s = median(&times);
    let service = service.expect("SETUP_REPEATS >= 1");

    let before = stats(service.addr)?;
    let mut load = Load::connect(service.addr)?;
    let mut rng = Rng::new(opts.seed, 5);
    let round = opts.seconds as f64 / ROUNDS as f64;
    let mut nominal = OpenLoop::default();
    let (mut answered, mut saturated_s) = (0u64, 0.0);
    for _ in 0..ROUNDS {
        let open = Duration::from_secs_f64(round * OPEN_SHARE);
        nominal.extend(run_open(&mut load, &inputs, &mut rng, NOMINAL_RATE, open)?);
        let closed = Duration::from_secs_f64(round * (1.0 - OPEN_SHARE));
        let s = run_window(&mut load, &inputs, &mut rng, WINDOW, closed)?;
        let what = format!("with {WINDOW} in flight");
        let (_, refused) = check_segment(spec, &what, &s.done, s.lost, &mut outcome, &inputs);
        println!(
            "{} {WINDOW} in flight over {:.1} s: {:.1}/s n={} refused={refused} lost={}",
            spec.name,
            s.wall_s,
            ratio(s.answered as f64, s.wall_s),
            s.done.len(),
            s.lost,
        );
        answered += s.answered;
        saturated_s += s.wall_s;
    }
    load.close()?;
    let after = stats(service.addr)?;
    let nv = judge(spec, &nominal, &mut outcome, &inputs);
    print_open(spec, &nominal, &nv);
    if !nv.valid {
        return Err(format!(
            "invalid run: the generator fell behind at the nominal rate (send lag p99 {:.3} ms > {MAX_SEND_LAG_MS} ms)",
            nv.lag_p99,
        ));
    }

    put(&mut outcome.e2e, "setup_s", setup_s, "s");
    put(
        &mut outcome.e2e,
        "peak_rss_mb",
        service.peak_rss_mb(),
        "MiB",
    );
    put(
        &mut outcome.e2e,
        "throughput_per_s",
        ratio(answered as f64, saturated_s),
        "1/s",
    );
    put(&mut outcome.e2e, "latency_ms_mean", nv.mean, "ms");
    put(&mut outcome.e2e, "latency_ms_p90", nv.p90, "ms");

    if tracer.enabled() {
        server_layers(
            spec,
            &inputs,
            &nominal,
            &before,
            &after,
            tracer,
            &mut outcome.layers,
        );
        put(
            &mut outcome.layers,
            "bench.send_lag_ms_p99",
            nv.lag_p99,
            "ms",
        );
        let overhead = tracer.overhead().as_secs_f64();
        put(
            &mut outcome.layers,
            "bench.trace_overhead_ratio",
            overhead / nominal.wall_s,
            "ratio",
        );
    }
    service.stop()?;
    Ok(outcome)
}

/// Stage durations of one reply, in ms, by stage name (`stages` holds
/// `<stage>_us` fields).
fn stages(reply: &JsonValue) -> Vec<(String, f64)> {
    match reply.get("result").and_then(|r| r.get("stages")) {
        Some(JsonValue::Object(map)) => map
            .iter()
            .filter_map(|(k, v)| {
                let name = k.strip_suffix("_us").unwrap_or(k).to_string();
                v.as_f64().map(|us| (name, us / 1e3))
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// Per-layer metrics of a service run, from the open-loop replies
/// (their `stages`), the stats snapshots around the load, and in-process
/// replays of the same query batches.
fn server_layers(
    spec: &Spec,
    inputs: &Inputs,
    nominal: &OpenLoop,
    before: &JsonValue,
    after: &JsonValue,
    tracer: &mut Tracer,
    l: &mut Metrics,
) {
    let t_trace = Instant::now();
    let mut by_stage: HashMap<String, Vec<f64>> = HashMap::new();
    let (mut residual, mut latency, mut busy_ms) = (Vec::new(), Vec::new(), 0.0);
    let mut miss_build = Vec::new();
    let mut violations = 0;
    let mut tune_replies = Vec::new();
    for (i, d) in nominal.done.iter().enumerate() {
        if d.reply.get("ok").and_then(JsonValue::as_bool) != Some(true) {
            continue;
        }
        let client_ms = (d.received - d.sent).as_secs_f64() * 1e3;
        let st = stages(&d.reply);
        let sum: f64 = st.iter().map(|s| s.1).sum();
        if sum > client_ms {
            violations += 1;
        }
        let id = tracer.record("client.request", d.sent, d.received, None, i as u64);
        // Stage spans are laid end to end from the send time: their
        // durations are the server's, their positions are not measured.
        let mut at = d.sent;
        for (name, ms) in &st {
            let end = at + Duration::from_secs_f64(ms / 1e3);
            tracer.record(stage_span(name), at, end, id, i as u64);
            at = end;
            by_stage.entry(name.clone()).or_default().push(*ms);
            if name != "queue" {
                busy_ms += ms;
            }
        }
        let result = d.reply.get("result");
        if result
            .and_then(|r| r.get("cache"))
            .and_then(JsonValue::as_str)
            == Some("miss")
        {
            if let Some((_, ms)) = st.iter().find(|s| s.0 == "build") {
                miss_build.push(*ms);
            }
        }
        if let Some(r) = result.filter(|r| r.get("steps_run").is_some()) {
            tune_replies.push(r.clone());
        }
        residual.push(client_ms - sum);
        latency.push(client_ms);
    }
    let stage = |name: &str, q: f64| quantile(by_stage.get(name).map_or(&[][..], |v| v), q);
    put(l, "server.queue_ms_p50", stage("queue", 0.5), "ms");
    put(l, "server.queue_ms_p99", stage("queue", 0.99), "ms");
    put(l, "server.build_ms_p99", stage("build", 0.99), "ms");
    put(l, "server.render_ms_p50", stage("render", 0.5), "ms");
    put(l, "server.query_ms_p50", stage("query", 0.5), "ms");
    put(l, "server.tune_ms_p50", stage("tune", 0.5), "ms");
    put(
        l,
        "server.serialize_us_p50",
        stage("serialize", 0.5) * 1e3,
        "us",
    );
    put(l, "server.residual_ms_p50", quantile(&residual, 0.5), "ms");
    put(l, "server.residual_ms_p99", quantile(&residual, 0.99), "ms");
    let residual_share = ratio(residual.iter().sum(), latency.iter().sum());
    put(l, "server.residual_share", residual_share, "ratio");
    put(l, "server.budget_violations", violations as f64, "count");
    put(l, "kdtree.build_ms_p50", quantile(&miss_build, 0.5), "ms");
    let all_build: f64 = by_stage.get("build").map_or(0.0, |v| v.iter().sum());
    let all_latency: f64 = latency.iter().sum();
    put(
        l,
        "kdtree.build_share",
        ratio(all_build, all_latency),
        "ratio",
    );
    let hits = cache_counter(after, "hits") - cache_counter(before, "hits");
    let misses = cache_counter(after, "misses") - cache_counter(before, "misses");
    put(l, "server.cache_hits", hits, "count");
    put(l, "server.cache_misses", misses, "count");
    put(
        l,
        "server.cache_evictions",
        cache_counter(after, "evictions") - cache_counter(before, "evictions"),
        "count",
    );
    put(
        l,
        "server.cache_hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
    );
    let busy = ratio(busy_ms / 1e3, spec.workers as f64 * nominal.wall_s);
    put(l, "server.busy_ratio", busy, "ratio");
    println!(
        "{} budget over {} replies at {:.0}/s: client mean {:.3} ms = server stages {:.3} ms + residual {:.3} ms ({:.1}%); {} replies whose stages exceed the client latency",
        spec.name,
        latency.len(),
        nominal.rate,
        mean(&latency),
        mean(&latency) - mean(&residual),
        mean(&residual),
        residual_share * 100.0,
        violations
    );

    let forwarded = shard_field(after, "forwarded");
    let before_fwd = shard_field(before, "forwarded");
    let fwd: Vec<f64> = forwarded
        .iter()
        .enumerate()
        .map(|(i, f)| (*f - before_fwd.get(i).copied().unwrap_or(0)) as f64)
        .collect();
    let imbalance = ratio(fwd.iter().cloned().fold(0.0, f64::max), mean(&fwd));
    put(l, "router.shard_imbalance", imbalance, "ratio");

    if !tune_replies.is_empty() {
        let last = tune_replies.last().expect("non-empty");
        let best = last
            .get("best_cost_ms")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0);
        put(l, "autotune.best_cost_ms", best, "ms");
        let converged_at = tune_replies
            .iter()
            .find(|r| r.get("converged").and_then(JsonValue::as_bool) == Some(true))
            .or(Some(last))
            .and_then(|r| r.get("total_steps").and_then(JsonValue::as_f64))
            .unwrap_or(0.0);
        put(l, "autotune.frames_to_converge", converged_at, "count");
        let exploring = tune_replies
            .iter()
            .filter(|r| r.get("phase").and_then(JsonValue::as_str) != Some("converged"))
            .count();
        put(
            l,
            "autotune.explore_frame_share",
            ratio(exploring as f64, tune_replies.len() as f64),
            "ratio",
        );
    }
    tracer.charge(t_trace.elapsed());

    if !inputs.query_points.is_empty() {
        let meshes: Vec<_> = inputs
            .query_trees
            .iter()
            .map(|t| t.mesh().clone())
            .collect();
        let mut sample_us = Vec::new();
        for b in &inputs.query_points {
            let t0 = Instant::now();
            std::hint::black_box(sample_points(
                &meshes[b.scene],
                b.sampler,
                b.points.len(),
                b.seed,
            ));
            sample_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        put(l, "scenes.sample_points_us", mean(&sample_us), "us");
        let batches: Vec<QueryBatch> = inputs
            .query_points
            .iter()
            .map(|b| QueryBatch {
                tree: &inputs.query_trees[b.scene],
                points: &b.points,
                k: QUERY_K,
                radius: b.radius,
            })
            .collect();
        replay_queries(&batches, l);
    }
}

fn stage_span(name: &str) -> &'static str {
    match name {
        "queue" => "server.queue",
        "build" => "server.build",
        "render" => "server.render",
        "query" => "server.query",
        "tune" => "server.tune",
        "serialize" => "server.serialize",
        _ => "server.other",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdtune_server::{RenderServer, ServerConfig};

    #[test]
    fn reply_stages_never_sum_to_more_than_the_client_latency() {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tmp")
            .join(format!("budget-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("test dir");
        let server = RenderServer::bind(ServerConfig {
            addr: "127.0.0.1:0".into(),
            store_path: dir.join("store.jsonl"),
            ..ServerConfig::default()
        })
        .expect("bind");
        let addr = server.local_addr();
        let running = std::thread::spawn(move || server.run());

        let inputs = inputs(7);
        let mut load = Load::connect(addr).expect("connect");
        let mut rng = Rng::new(7, 5);
        let open =
            run_open(&mut load, &inputs, &mut rng, 40.0, Duration::from_secs(1)).expect("open");
        let window =
            run_window(&mut load, &inputs, &mut rng, 4, Duration::from_secs(1)).expect("window");
        load.close().expect("reader");
        Control::connect(addr)
            .and_then(|mut c| c.call("\"cmd\":\"shutdown\""))
            .expect("shutdown");
        running.join().expect("server thread").expect("server run");
        let _ = std::fs::remove_dir_all(&dir);

        assert!(open.done.len() > 10, "{} replies", open.done.len());
        // The saturation segment kept its window full: at least as many
        // replies as a sequential client would get, all of them correct.
        assert_eq!(window.lost, 0);
        assert!(window.answered as usize <= window.done.len());
        assert!(window.answered > 10, "{} replies", window.answered);
        for d in &window.done {
            let expect = &inputs.templates[d.template].expect;
            assert_eq!(check_reply(expect, &d.reply), Ok(true));
        }
        for d in &open.done {
            assert_eq!(d.reply.get("ok").and_then(JsonValue::as_bool), Some(true));
            let client_ms = (d.received - d.sent).as_secs_f64() * 1e3;
            let stages = stages(&d.reply);
            assert!(stages.len() >= 3, "{stages:?}");
            let sum: f64 = stages.iter().map(|s| s.1).sum();
            assert!(sum <= client_ms, "stages {sum} ms > client {client_ms} ms");
        }
    }

    #[test]
    fn backlog_slope_is_least_squares() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 * i as f64 + 1.0)).collect();
        assert!((slope(&pts) - 3.0).abs() < 1e-12);
    }
}
