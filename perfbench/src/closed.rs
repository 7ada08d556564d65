//! Closed-loop workloads: the next frame starts when the previous one
//! ends, like an animation player or an interactive viewer.
//!
//! * `animate` — the paper's Fig. 4 loop (`TunedPipeline::step`) on the
//!   dynamic fairy_forest scene with the in-place builder and a cold
//!   tuner: the tree is rebuilt every frame, so builders and the tuner do
//!   most of the work.
//! * `walkthrough` — one C_base tree of static sponza, built in set-up,
//!   viewed from a seeded path of viewpoints with scalar rendering:
//!   traversal and shading do the work, nothing is built or tuned. It is
//!   the control for anything `animate` moves.

use crate::check::{check_frame, RenderRef};
use crate::layers::replay_traversal;
use crate::trace::Tracer;
use crate::util::{mean, median, median_setup, peak_rss_mb, put, quantile, ratio, Metrics, Rng};
use crate::{Opts, Outcome, SETUP_REPEATS};
use kdtune::kdtree::{Algorithm, KdTree};
use kdtune::raycast::{render_with_options, Camera, RenderOptions, RenderStats};
use kdtune::scenes::{fairy_forest, sponza, SceneParams};
use kdtune::{base_build_params, TunedPipeline, TunerPhase};
use kdtune_server::session::build_eager;
use std::time::{Duration, Instant};

/// fairy_forest size: ~11k triangles, ~50 ms frames on a 2-core host —
/// small enough for a few hundred frames per run, which averages out the
/// tuner's random search path.
const ANIMATE_COMPLEXITY: f32 = 0.1;
const ANIMATE_RES: u32 = 128;
/// Each animation frame is shown this many times, as in the paper's
/// §V-C ("repeating every frame 5 times").
const FRAME_REPEAT: usize = 5;
/// Cold starts per run, each with a fresh pipeline and tuner; pooling
/// several independent search paths steadies the frame-time figures.
const EPISODES: usize = 4;

/// sponza size: ~21k triangles.
const WALK_COMPLEXITY: f32 = 0.3;
const WALK_RES: u32 = 256;
const WALK_VIEWS: usize = 24;
/// Views replayed layer by layer in the traced run.
const REPLAY_VIEWS: usize = 4;

fn render(tree: &KdTree, camera: &Camera, light: kdtune::geometry::Vec3) -> RenderStats {
    render_with_options(tree, tree.mesh(), camera, light, &RenderOptions::default()).1
}

/// Frame-time end-to-end metrics of a closed loop.
fn closed_loop_metrics(out: &mut Metrics, walls_ms: &[f64], loop_s: f64) {
    put(
        out,
        "throughput_per_s",
        walls_ms.len() as f64 / loop_s,
        "1/s",
    );
    put(out, "latency_ms_mean", mean(walls_ms), "ms");
    put(out, "latency_ms_p90", quantile(walls_ms, 0.9), "ms");
}

/// The `animate` workload.
pub fn animate(opts: &Opts, tracer: &mut Tracer) -> Outcome {
    let params = SceneParams {
        complexity: ANIMATE_COMPLEXITY,
        seed: Rng::new(opts.seed, 1).next_u64(),
    };
    // Set-up as a player pays it: generate the scene and build the first
    // frame's tree.
    let (setup_s, scene) = median_setup(SETUP_REPEATS, || {
        let scene = fairy_forest(&params);
        std::hint::black_box(build_eager(
            scene.frame(0),
            Algorithm::InPlace,
            &base_build_params(),
        ));
        scene
    });

    let v = scene.view;
    let camera = Camera::look_at(v.eye, v.target, v.up, v.fov_deg, ANIMATE_RES, ANIMATE_RES);
    let frames = scene.frame_count();
    let refs: Vec<RenderRef> = (0..frames)
        .map(|f| {
            let tree = build_eager(scene.frame(f), Algorithm::NodeLevel, &base_build_params());
            render(&tree, &camera, v.light).into()
        })
        .collect();

    let mut outcome = Outcome::default();
    let (mut walls_ms, mut scene_ms, mut reports) = (Vec::new(), Vec::new(), Vec::new());
    let (mut converged_at, mut best_ms) = (Vec::new(), Vec::new());
    let mut last_frame = 0;
    let episode = Duration::from_secs_f64(opts.seconds as f64 / EPISODES as f64);
    let loop_start = Instant::now();
    for _ in 0..EPISODES {
        // Each episode is a cold start. The tuner keeps the pipeline's
        // default seed: the run's seed varies the scene, while the tuner
        // starts from the state a player would ship with.
        let mut pipeline = TunedPipeline::new(scene.clone(), Algorithm::InPlace)
            .resolution(ANIMATE_RES, ANIMATE_RES)
            .frame_repeat(FRAME_REPEAT);
        let first = reports.len();
        let deadline = Instant::now() + episode;
        while Instant::now() < deadline {
            let frame = pipeline.next_frame_index() % frames;
            let step = walls_ms.len() as u64;
            if tracer.enabled() {
                // `step` generates the frame's mesh internally; a second,
                // separately timed call measures that layer. Its cost is
                // tracing overhead, outside the frame wall.
                let (_, id) = tracer.time("scenes.Scene::frame", None, step, || scene.frame(frame));
                let ms = tracer.spans()[id.expect("enabled")].ms();
                tracer.charge(Duration::from_secs_f64(ms / 1e3));
                scene_ms.push(ms);
            }
            let t0 = Instant::now();
            let report = pipeline.step();
            let t1 = Instant::now();
            tracer.record("kdtune.TunedPipeline::step", t0, t1, None, step);
            walls_ms.push((t1 - t0).as_secs_f64() * 1e3);
            outcome.attempted += 1;
            if let Err(e) = check_frame(&refs[frame], &report.stats) {
                outcome.fail(format!("animate frame {frame}: {e}"));
            }
            reports.push(report);
            last_frame = frame;
        }
        let episode_reports = &reports[first..];
        converged_at.push(
            episode_reports
                .iter()
                .position(|r| r.phase == TunerPhase::Converged)
                .unwrap_or(episode_reports.len()) as f64,
        );
        let tuner = pipeline.workflow().tuner();
        best_ms.push(tuner.best().map_or(0.0, |(_, cost)| cost * 1e3));
    }
    let loop_s = loop_start.elapsed().as_secs_f64() - tracer.overhead().as_secs_f64();

    put(&mut outcome.e2e, "setup_s", setup_s, "s");
    put(
        &mut outcome.e2e,
        "peak_rss_mb",
        peak_rss_mb(std::process::id()).unwrap_or(0.0),
        "MiB",
    );
    closed_loop_metrics(&mut outcome.e2e, &walls_ms, loop_s);

    if tracer.enabled() {
        let l = &mut outcome.layers;
        let build_ms: Vec<f64> = reports.iter().map(|r| r.build_secs * 1e3).collect();
        let render_ms: Vec<f64> = reports.iter().map(|r| r.render_secs * 1e3).collect();
        let rays: u64 = reports
            .iter()
            .map(|r| r.stats.primary_rays + r.stats.shadow_rays)
            .sum();
        let wall_sum: f64 = walls_ms.iter().sum();
        let build_sum: f64 = build_ms.iter().sum();
        let render_sum: f64 = render_ms.iter().sum();
        let scene_sum: f64 = scene_ms.iter().sum();
        let n = walls_ms.len().max(1) as f64;
        let overhead = (wall_sum - build_sum - render_sum - scene_sum) / n;
        put(l, "kdtree.build_ms_p50", median(&build_ms), "ms");
        put(l, "kdtree.build_share", ratio(build_sum, wall_sum), "ratio");
        put(l, "raycast.render_ms_p50", median(&render_ms), "ms");
        put(
            l,
            "raycast.rays_per_s",
            ratio(rays as f64, render_sum / 1e3),
            "1/s",
        );
        put(l, "scenes.frame_ms_p50", median(&scene_ms), "ms");
        put(l, "autotune.overhead_ms_per_frame", overhead, "ms");
        put(
            l,
            "autotune.frames_to_converge",
            median(&converged_at),
            "count",
        );
        let exploring = reports
            .iter()
            .filter(|r| r.phase != TunerPhase::Converged)
            .count();
        put(
            l,
            "autotune.explore_frame_share",
            ratio(exploring as f64, n),
            "ratio",
        );
        put(l, "autotune.best_cost_ms", median(&best_ms), "ms");
        println!(
            "animate budget, mean ms per frame over {} frames: wall {:.3} = build {:.3} + render {:.3} + scene {:.3} + autotune overhead {:.3}",
            walls_ms.len(),
            wall_sum / n,
            build_sum / n,
            render_sum / n,
            scene_sum / n,
            overhead
        );

        // Layer replays on the last frame's tree, rebuilt with the
        // configuration that frame used.
        if let Some(last) = reports.last() {
            let mesh = scene.frame(last_frame);
            let tree = build_eager(mesh, Algorithm::InPlace, &last.params);
            put(
                l,
                "kdtree.nodes_per_tree",
                tree.node_count() as f64,
                "count",
            );
            let replay = replay_traversal(&tree, &[camera], v.light, l);
            let par = ratio(replay.layer_sum_ms_per_view, median(&render_ms));
            put(l, "raycast.par_speedup", par, "ratio");
        }
        let overhead = tracer.overhead().as_secs_f64();
        put(
            l,
            "bench.trace_overhead_ratio",
            ratio(overhead, loop_s),
            "ratio",
        );
    }
    outcome
}

/// The seeded camera path of `walkthrough`: viewpoints between the
/// scene's eye and its view target, looking at jittered points around
/// the target, kept inside the building.
fn walk_cameras(scene: &kdtune::Scene, seed: u64) -> Vec<Camera> {
    let v = scene.view;
    let bounds = scene.frame(0).bounds();
    let margin = bounds.extent() * 0.1;
    let (lo, hi) = (bounds.min + margin, bounds.max - margin);
    let mut rng = Rng::new(seed, 2);
    (0..WALK_VIEWS)
        .map(|_| {
            let s = rng.range(0.0, 0.6) as f32;
            let jitter = |rng: &mut Rng, a: f64| rng.range(-a, a) as f32;
            let eye = v.eye + (v.target - v.eye) * s;
            let eye = kdtune::geometry::Vec3::new(
                eye.x,
                eye.y + jitter(&mut rng, 0.5),
                eye.z + jitter(&mut rng, 1.5),
            )
            .max(lo)
            .min(hi);
            let target = kdtune::geometry::Vec3::new(
                v.target.x,
                v.target.y + jitter(&mut rng, 1.0),
                v.target.z + jitter(&mut rng, 3.0),
            );
            Camera::look_at(eye, target, v.up, v.fov_deg, WALK_RES, WALK_RES)
        })
        .collect()
}

/// The `walkthrough` workload.
pub fn walkthrough(opts: &Opts, tracer: &mut Tracer) -> Outcome {
    let params = SceneParams {
        complexity: WALK_COMPLEXITY,
        seed: Rng::new(opts.seed, 1).next_u64(),
    };
    // Set-up: generate the scene and build its one C_base tree.
    let (setup_s, (scene, tree)) = median_setup(SETUP_REPEATS, || {
        let scene = sponza(&params);
        let tree = build_eager(scene.frame(0), Algorithm::InPlace, &base_build_params());
        (scene, tree)
    });
    let light = scene.view.light;
    let cameras = walk_cameras(&scene, opts.seed);
    let refs: Vec<RenderRef> = {
        let reference = build_eager(scene.frame(0), Algorithm::NodeLevel, &base_build_params());
        cameras
            .iter()
            .map(|c| render(&reference, c, light).into())
            .collect()
    };

    let mut outcome = Outcome::default();
    let mut walls_ms = Vec::new();
    let mut rays = 0u64;
    let deadline = Instant::now() + Duration::from_secs(opts.seconds);
    let loop_start = Instant::now();
    while Instant::now() < deadline {
        let view = walls_ms.len() % WALK_VIEWS;
        let t0 = Instant::now();
        let stats = render(&tree, &cameras[view], light);
        let t1 = Instant::now();
        tracer.record(
            "raycast.render_with_options",
            t0,
            t1,
            None,
            walls_ms.len() as u64,
        );
        walls_ms.push((t1 - t0).as_secs_f64() * 1e3);
        rays += stats.primary_rays + stats.shadow_rays;
        outcome.attempted += 1;
        if let Err(e) = check_frame(&refs[view], &stats) {
            outcome.fail(format!("walkthrough view {view}: {e}"));
        }
    }
    let loop_s = loop_start.elapsed().as_secs_f64() - tracer.overhead().as_secs_f64();

    put(&mut outcome.e2e, "setup_s", setup_s, "s");
    put(
        &mut outcome.e2e,
        "peak_rss_mb",
        peak_rss_mb(std::process::id()).unwrap_or(0.0),
        "MiB",
    );
    closed_loop_metrics(&mut outcome.e2e, &walls_ms, loop_s);

    if tracer.enabled() {
        let l = &mut outcome.layers;
        put(
            l,
            "kdtree.nodes_per_tree",
            tree.node_count() as f64,
            "count",
        );
        put(l, "raycast.render_ms_p50", median(&walls_ms), "ms");
        let render_s = walls_ms.iter().sum::<f64>() / 1e3;
        put(l, "raycast.rays_per_s", ratio(rays as f64, render_s), "1/s");
        let replay = replay_traversal(&tree, &cameras[..REPLAY_VIEWS], light, l);
        // Parallel wall of the same views, from the measured loop.
        let replayed_wall: Vec<f64> = walls_ms
            .iter()
            .enumerate()
            .filter(|(i, _)| i % WALK_VIEWS < REPLAY_VIEWS)
            .map(|(_, ms)| *ms)
            .collect();
        let par = ratio(replay.layer_sum_ms_per_view, mean(&replayed_wall));
        put(l, "raycast.par_speedup", par, "ratio");
        let overhead = tracer.overhead().as_secs_f64();
        put(
            l,
            "bench.trace_overhead_ratio",
            ratio(overhead, loop_s),
            "ratio",
        );
    }
    outcome
}
