//! The per-frame tuning workflow (paper Fig. 4) and the one tuner loop
//! every tuned workload shares.
//!
//! Each frame: start the tuner's measurement, build the kD-tree with the
//! tuner's current configuration, render, stop the measurement (cost =
//! build + render time), advance the animation. Static scenes run the same
//! loop on a constant mesh — camera positioning, system load and other
//! environment effects still shift the optimum, which is why the paper
//! tunes online even for static geometry.
//!
//! The pieces are workload-neutral: [`register_space`] registers the
//! search space, [`build_params`] maps its values back, and
//! [`TuningWorkflow::measure`] / [`TuningWorkflow::run_budget`] are the
//! one measurement cycle and the one budget loop. A render frame
//! ([`TuningWorkflow::run_frame`]) is one measured cost; a point-query
//! batch in the render service is another.

use crate::camera::Camera;
use crate::render::{render_with_options, RenderOptions, RenderStats};
use kdtune_autotune::{Config, ParamHandle, Tuner, TunerPhase};
use kdtune_geometry::{TriangleMesh, Vec3};
use kdtune_kdtree::{build, Algorithm, BuildParams, PacketCounters, TreeStats};
use kdtune_telemetry as telemetry;
use std::sync::Arc;
use std::time::Instant;

/// Why a budgeted run stopped — distinct outcomes matter to long-running
/// callers (the render service only persists a tuned configuration to its
/// store when the tuner actually converged, never when the step budget
/// simply ran out).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The tuner's search round converged within the budget.
    Converged,
    /// The step budget elapsed first.
    FrameBudget,
}

impl StopReason {
    /// Stable lowercase name, used in telemetry events and wire responses.
    pub fn as_str(self) -> &'static str {
        match self {
            StopReason::Converged => "converged",
            StopReason::FrameBudget => "frame_budget",
        }
    }
}

/// Handles of the registered tuning parameters.
///
/// `r` is only present for the lazy algorithm (paper Table Ib); the other
/// three algorithms tune `(CI, CB, S)` (Table Ia). `packet_width` and
/// `min_active` are only present when the space was registered with
/// packets — they extend the paper's build-side search space with two
/// render-side axes.
#[derive(Clone, Copy, Debug)]
pub struct TunedHandles {
    /// Triangle intersection cost `CI`.
    pub ci: ParamHandle,
    /// Duplication cost `CB`.
    pub cb: ParamHandle,
    /// Max subtrees per thread `S`.
    pub s: ParamHandle,
    /// Minimal node resolution `R` (lazy only).
    pub r: Option<ParamHandle>,
    /// Packet width `W ∈ {1, 4, 8}` (only with tuned packets).
    pub packet_width: Option<ParamHandle>,
    /// Packet divergence threshold `MA` (only with tuned packets).
    pub min_active: Option<ParamHandle>,
}

/// Registers the paper's Table II search space on `tuner`: `CI ∈ [3, 101]`,
/// `CB ∈ [0, 60]`, `S ∈ [1, 8]`, and for the lazy algorithm `R ∈ [16, 8192]`
/// (powers of two). With `packets`, the render-side axes follow: the
/// packet width `W ∈ {1, 4, 8}` and the divergence threshold `MA ∈ [1, 8]`
/// (opt-in; the paper's spaces are 3- and 4-dimensional). Configuration
/// values come in this registration order.
pub fn register_space(tuner: &mut Tuner, algorithm: Algorithm, packets: bool) -> TunedHandles {
    TunedHandles {
        ci: tuner.register_parameter("CI", 3, 101, 1),
        cb: tuner.register_parameter("CB", 0, 60, 1),
        s: tuner.register_parameter("S", 1, 8, 1),
        r: (algorithm == Algorithm::Lazy).then(|| tuner.register_parameter_pow2("R", 16, 8192)),
        packet_width: packets.then(|| tuner.register_parameter_choices("W", &[1, 4, 8])),
        min_active: packets.then(|| tuner.register_parameter("MA", 1, 8, 1)),
    }
}

/// Build parameters for a configuration of the [`register_space`] space
/// (values in registration order; `R` is read for the lazy algorithm only,
/// the others build with the default).
pub fn build_params(algorithm: Algorithm, values: &[i64]) -> BuildParams {
    let r = match algorithm {
        Algorithm::Lazy => values[3] as u32,
        _ => BuildParams::default().r,
    };
    BuildParams::from_config(values[0] as f32, values[1] as f32, values[2] as u32, r)
}

/// Everything measured for one frame.
#[derive(Clone, Debug)]
pub struct FrameReport {
    /// Configuration that was active.
    pub config: Config,
    /// Build parameters derived from it.
    pub params: BuildParams,
    /// kD-tree construction time (`t_c`), seconds.
    pub build_secs: f64,
    /// Rendering time (`t_r`), seconds.
    pub render_secs: f64,
    /// Total measured cost fed to the tuner (`t = t_c + t_r`).
    pub total_secs: f64,
    /// Renderer counters.
    pub stats: RenderStats,
    /// Packet-traversal counters (all zero on scalar renders).
    pub packet: PacketCounters,
    /// Render options the frame actually used (reflects the tuner's
    /// packet-width choice when those axes are registered).
    pub options: RenderOptions,
    /// Tuner phase during this frame.
    pub phase: TunerPhase,
}

/// One algorithm's tuner with its registered space.
pub struct TuningWorkflow {
    algorithm: Algorithm,
    tuner: Tuner,
    handles: TunedHandles,
    render_options: RenderOptions,
}

impl TuningWorkflow {
    /// Wraps `tuner` (seed, warm start and tolerances already set; no
    /// parameters registered yet) and registers the search space on it,
    /// with the packet axes when `packets` is set (see [`register_space`]).
    pub fn new(algorithm: Algorithm, mut tuner: Tuner, packets: bool) -> TuningWorkflow {
        assert_eq!(
            tuner.space().dim(),
            0,
            "pass a tuner without registered parameters"
        );
        TuningWorkflow {
            algorithm,
            handles: register_space(&mut tuner, algorithm, packets),
            tuner,
            render_options: RenderOptions::default(),
        }
    }

    /// Selects how frames are traced (scalar per-ray queries or coherent
    /// `W`-wide ray packets — the images and [`RenderStats`] are
    /// bit-identical either way, only the frame time and the `packet`
    /// counters change). When the packet axes are tuned, the tuner's
    /// per-frame width and threshold override the values given here; the
    /// frustum toggle still applies.
    pub fn with_render_options(mut self, options: RenderOptions) -> TuningWorkflow {
        self.render_options = options;
        self
    }

    /// The active render options.
    pub fn render_options(&self) -> RenderOptions {
        self.render_options
    }

    /// The algorithm being tuned.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The underlying tuner.
    pub fn tuner(&self) -> &Tuner {
        &self.tuner
    }

    /// Registered parameter handles.
    pub fn handles(&self) -> TunedHandles {
        self.handles
    }

    /// One measurement cycle: starts the tuner's cycle, hands `measure`
    /// the tuner (candidate, phase, iteration) and the candidate's build
    /// parameters, and stops the cycle with the cost in seconds that
    /// `measure` returns next to its output.
    pub fn measure<T>(&mut self, measure: impl FnOnce(&Tuner, BuildParams) -> (f64, T)) -> T {
        self.tuner.start_cycle();
        let values = self.tuner.current().expect("cycle started").values();
        let (cost, output) = measure(&self.tuner, build_params(self.algorithm, values));
        self.tuner.stop_with(cost);
        output
    }

    /// The budget loop: runs `step` (one [`TuningWorkflow::measure`]
    /// cycle) up to `max_steps` times, stopping early once the tuner
    /// converges. It measures before it checks, so a converged tuner still
    /// takes one monitoring step per call — the measurements drift
    /// detection re-tunes on. Returns the steps run and why the loop
    /// stopped, and emits a `pipeline.run` telemetry event.
    pub fn run_budget(
        &mut self,
        max_steps: usize,
        mut step: impl FnMut(&mut TuningWorkflow),
    ) -> (usize, StopReason) {
        let mut steps = 0;
        let mut reason = StopReason::FrameBudget;
        while steps < max_steps {
            step(self);
            steps += 1;
            if self.tuner.converged() {
                reason = StopReason::Converged;
                break;
            }
        }
        telemetry::event(
            "pipeline.run",
            &[
                ("reason", reason.as_str().into()),
                ("steps", steps.into()),
                ("total_steps", self.tuner.iterations().into()),
                ("converged", self.tuner.converged().into()),
            ],
        );
        (steps, reason)
    }

    /// Runs one frame of the Fig. 4 loop: tune → build → render → report.
    pub fn run_frame(
        &mut self,
        mesh: Arc<TriangleMesh>,
        camera: &Camera,
        light: Vec3,
    ) -> FrameReport {
        let (algorithm, handles, mut options) = (self.algorithm, self.handles, self.render_options);
        self.measure(|tuner, params| {
            let config = tuner.current().expect("cycle started").clone();
            let phase = tuner.phase();
            if let Some(h) = handles.packet_width {
                options.packet_width = tuner.get(h) as u32;
            }
            if let Some(h) = handles.min_active {
                options.packet_min_active = tuner.get(h) as u32;
            }

            let t0 = Instant::now();
            let tree = build(mesh, algorithm, &params);
            let build_secs = t0.elapsed().as_secs_f64();

            let t1 = Instant::now();
            let (_, stats, packet) =
                render_with_options(&tree, tree.mesh(), camera, light, &options);
            let render_secs = t1.elapsed().as_secs_f64();

            let total_secs = build_secs + render_secs;
            if telemetry::enabled() {
                // Traversal throughput: every ray the frame cast, over the
                // render wall time (guarded against a zero-duration clock).
                let rays = stats.primary_rays + stats.shadow_rays;
                let rays_per_sec = if render_secs > 0.0 {
                    rays as f64 / render_secs
                } else {
                    0.0
                };
                let mut fields = vec![
                    ("frame", tuner.iterations().into()),
                    ("algorithm", algorithm.name().into()),
                    ("phase", phase.as_str().into()),
                    ("config", config.to_string().into()),
                    ("build_secs", build_secs.into()),
                    ("render_secs", render_secs.into()),
                    ("total_secs", total_secs.into()),
                    ("primary_rays", stats.primary_rays.into()),
                    ("primary_hits", stats.primary_hits.into()),
                    ("shadow_rays", stats.shadow_rays.into()),
                    ("occluded", stats.occluded.into()),
                    ("rays_per_sec", rays_per_sec.into()),
                    ("packets", options.uses_packets().into()),
                    (
                        "packet_width",
                        u64::from(options.packet_width.max(1)).into(),
                    ),
                    ("packet_lanes_utilized", packet.lane_utilization().into()),
                    ("packet_frustum_rate", packet.frustum_rate().into()),
                    ("packet_fallback_lanes", packet.scalar_fallback_lanes.into()),
                    ("nodes", tree.node_count().into()),
                    ("node_bytes", tree.node_bytes().into()),
                ];
                // Tree-quality metrics require a full traversal, so they are
                // computed only while a recorder is listening (and only for
                // eager trees — a lazy tree would be forced by the walk).
                if let Some(eager) = tree.as_eager() {
                    let ts = TreeStats::compute(eager);
                    fields.push(("leaves", ts.leaf_count.into()));
                    fields.push(("tree_depth", ts.max_depth.into()));
                    fields.push(("duplication", ts.duplication_factor.into()));
                    fields.push(("sah_cost", ts.sah_cost.into()));
                }
                telemetry::event_owned("workflow.frame", fields);
            }
            let report = FrameReport {
                config,
                params,
                build_secs,
                render_secs,
                total_secs,
                stats,
                packet,
                options,
                phase,
            };
            (total_secs, report)
        })
    }
}

/// Runs one *untuned* frame with explicit parameters — the baseline
/// (`C_base`) side of every speedup measurement.
pub fn run_frame_with(
    mesh: Arc<TriangleMesh>,
    algorithm: Algorithm,
    params: &BuildParams,
    camera: &Camera,
    light: Vec3,
) -> (f64, f64, RenderStats) {
    run_frame_with_options(
        mesh,
        algorithm,
        params,
        camera,
        light,
        &RenderOptions::default(),
    )
}

/// [`run_frame_with`] with explicit [`RenderOptions`], so baselines can
/// trace the same (scalar or packet) path as the tuned frames they are
/// compared against.
pub fn run_frame_with_options(
    mesh: Arc<TriangleMesh>,
    algorithm: Algorithm,
    params: &BuildParams,
    camera: &Camera,
    light: Vec3,
    options: &RenderOptions,
) -> (f64, f64, RenderStats) {
    let t0 = Instant::now();
    let tree = build(mesh, algorithm, params);
    let build_secs = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let (_, stats, _) = render_with_options(&tree, tree.mesh(), camera, light, options);
    (build_secs, t1.elapsed().as_secs_f64(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdtune_scenes::{toasters, wood_doll, SceneParams};

    fn camera_for(scene: &kdtune_scenes::Scene, px: u32) -> (Camera, Vec3) {
        let v = scene.view;
        (
            Camera::look_at(v.eye, v.target, v.up, v.fov_deg, px, px),
            v.light,
        )
    }

    fn workflow(algorithm: Algorithm, seed: u64, packets: bool) -> TuningWorkflow {
        TuningWorkflow::new(algorithm, Tuner::builder().seed(seed).build(), packets)
    }

    #[test]
    fn workflow_runs_and_records() {
        let scene = wood_doll(&SceneParams::tiny());
        let (camera, light) = camera_for(&scene, 24);
        let mut wf = workflow(Algorithm::InPlace, 1, false);
        for f in 0..10 {
            let report = wf.run_frame(scene.frame(f), &camera, light);
            assert!(report.total_secs >= report.build_secs);
            assert!(report.stats.primary_rays == 24 * 24);
            // Non-lazy algorithms tune 3 parameters.
            assert_eq!(report.config.values().len(), 3);
        }
        assert_eq!(wf.tuner().iterations(), 10);
    }

    #[test]
    fn lazy_workflow_tunes_four_parameters() {
        let scene = toasters(&SceneParams::tiny());
        let (camera, light) = camera_for(&scene, 16);
        let mut wf = workflow(Algorithm::Lazy, 2, false);
        let report = wf.run_frame(scene.frame(0), &camera, light);
        assert_eq!(report.config.values().len(), 4);
        assert!(wf.handles().r.is_some());
        let r = report.config.values()[3];
        assert!(r.count_ones() == 1 && (16..=8192).contains(&r));
        assert_eq!(report.params.r, r as u32);
    }

    #[test]
    fn build_params_honors_the_lazy_r_dimension() {
        let eager = build_params(Algorithm::InPlace, &[21, 11, 4]);
        assert_eq!((eager.s, eager.r), (4, 4096));
        assert_eq!((eager.sah.ci, eager.sah.cb), (21.0, 11.0));
        let lazy = build_params(Algorithm::Lazy, &[21, 11, 4, 256]);
        assert_eq!((lazy.s, lazy.r), (4, 256));
        // With packets, the fourth value of an eager space is `W`, not `R`.
        assert_eq!(build_params(Algorithm::InPlace, &[21, 11, 4, 8, 2]).r, 4096);
    }

    #[test]
    fn tuned_packet_axes_extend_the_space() {
        let scene = wood_doll(&SceneParams::tiny());
        let (camera, light) = camera_for(&scene, 16);
        let mut wf = workflow(Algorithm::InPlace, 5, true);
        assert!(wf.handles().packet_width.is_some());
        assert!(wf.handles().min_active.is_some());
        let mut widths = std::collections::HashSet::new();
        for f in 0..8 {
            let report = wf.run_frame(scene.frame(f), &camera, light);
            // (CI, CB, S) + (W, MA).
            assert_eq!(report.config.values().len(), 5);
            assert!(
                [1, 4, 8].contains(&report.options.packet_width),
                "{:?}",
                report.options
            );
            assert!((1..=8).contains(&report.options.packet_min_active));
            widths.insert(report.options.packet_width);
        }
        assert!(widths.len() > 1, "seeding must explore widths: {widths:?}");
    }

    #[test]
    fn configs_vary_during_seeding() {
        let scene = wood_doll(&SceneParams::tiny());
        let (camera, light) = camera_for(&scene, 16);
        let mut wf = workflow(Algorithm::NodeLevel, 3, false);
        let mut configs = std::collections::HashSet::new();
        for f in 0..8 {
            let r = wf.run_frame(scene.frame(f), &camera, light);
            configs.insert(r.config);
        }
        assert!(configs.len() >= 4, "seeding must explore: {configs:?}");
    }

    #[test]
    fn budget_loop_measures_before_it_checks() {
        let mut wf = workflow(Algorithm::InPlace, 1, false);
        // A smooth cost surface with its minimum inside the space.
        let cost = |_: &Tuner, p: BuildParams| {
            let d = (p.sah.ci - 40.0).abs() + (p.sah.cb - 20.0).abs() + p.s as f32;
            (f64::from(d), ())
        };
        assert_eq!(
            wf.run_budget(3, |wf| wf.measure(cost)),
            (3, StopReason::FrameBudget)
        );
        let (steps, reason) = wf.run_budget(400, |wf| wf.measure(cost));
        assert_eq!(reason, StopReason::Converged);
        assert!(steps < 400 && wf.tuner().converged());
        // A converged tuner still takes one monitoring measurement.
        let before = wf.tuner().iterations();
        assert_eq!(
            wf.run_budget(5, |wf| wf.measure(cost)),
            (1, StopReason::Converged)
        );
        assert_eq!(wf.tuner().iterations(), before + 1);
        assert_eq!(wf.run_budget(0, |wf| wf.measure(cost)).0, 0);
    }
}
