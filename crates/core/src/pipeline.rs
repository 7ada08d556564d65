//! High-level tuned rendering pipeline over a [`Scene`]: a scene, a
//! camera and a [`TuningWorkflow`], stepped one frame at a time (Fig. 4).
//!
//! The pipeline adds only the animation — which mesh the next step renders
//! — and the untuned baseline. The tuner, its settings and its budget loop
//! live in the workflow, each once.

use crate::config::base_build_params;
use kdtune_autotune::{Tuner, TunerBuilder};
use kdtune_geometry::Vec3;
use kdtune_kdtree::Algorithm;
use kdtune_raycast::{
    run_frame_with_options, Camera, FrameReport, RenderOptions, StopReason, TuningWorkflow,
};
use kdtune_scenes::Scene;

/// Default experiment raster (the paper does not report its resolution;
/// renders scale linearly in pixel count, so experiments pick sizes that
/// fit their time budget).
const DEFAULT_RES: u32 = 128;

/// A scene + algorithm + tuner, stepped one frame at a time (Fig. 4).
pub struct TunedPipeline {
    scene: Scene,
    workflow: TuningWorkflow,
    camera: Camera,
    light: Vec3,
    frame_repeat: usize,
}

impl TunedPipeline {
    /// Creates a pipeline rendering `scene` with the given algorithm at
    /// the default resolution.
    pub fn new(scene: Scene, algorithm: Algorithm) -> TunedPipeline {
        let v = scene.view;
        let camera = Camera::look_at(v.eye, v.target, v.up, v.fov_deg, DEFAULT_RES, DEFAULT_RES);
        TunedPipeline {
            workflow: TuningWorkflow::new(algorithm, Tuner::builder().seed(0x7e57).build(), false),
            camera,
            light: v.light,
            scene,
            frame_repeat: 1,
        }
    }

    /// Replaces the not-yet-stepped workflow's tuner with one whose
    /// settings `change` derives from the current ones, adding the packet
    /// axes when `packets` is set. Everything else carries over from the
    /// workflow itself, so every setting is stored exactly once.
    fn retune(
        mut self,
        change: impl FnOnce(TunerBuilder) -> TunerBuilder,
        packets: bool,
    ) -> TunedPipeline {
        assert_eq!(
            self.steps_taken(),
            0,
            "tuner settings must be set before stepping"
        );
        let old = &self.workflow;
        let packets = packets || old.handles().packet_width.is_some();
        let tuner = change(old.tuner().settings().clone()).build();
        self.workflow = TuningWorkflow::new(old.algorithm(), tuner, packets)
            .with_render_options(old.render_options());
        self
    }

    /// Repeats every animation frame `k` times (the paper extends the
    /// dynamic scenes this way — "we artificially extend the sequence by
    /// repeating every frame 5 times", §V-C).
    pub fn frame_repeat(mut self, k: usize) -> TunedPipeline {
        self.frame_repeat = k.max(1);
        self
    }

    /// Changes the render resolution.
    pub fn resolution(mut self, width: u32, height: u32) -> TunedPipeline {
        self.camera = self.camera.with_resolution(width, height);
        self
    }

    /// Re-seeds the tuner (fresh pipelines only — before the first step).
    ///
    /// # Panics
    /// Panics after stepping has begun.
    pub fn tuner_seed(self, seed: u64) -> TunedPipeline {
        self.retune(|t| t.seed(seed), false)
    }

    /// Warm-starts the tuner from a known-good configuration (raw
    /// parameter values in registration order — CI, CB, S, and R for the
    /// lazy builder), typically one recorded by a previous converged run
    /// on the same scene and hardware. Fresh pipelines only.
    ///
    /// # Panics
    /// Panics after stepping has begun.
    pub fn warm_start(self, values: &[i64]) -> TunedPipeline {
        self.retune(|t| t.warm_start(values), false)
    }

    /// Adds the packet axes (`W` ∈ {1, 4, 8} and `MA` = min-active lanes)
    /// to the tuning space, so the search picks a ray-packet width per
    /// scene online instead of rendering with a fixed
    /// [`TunedPipeline::render_options`] width. Fresh pipelines only.
    ///
    /// # Panics
    /// Panics after stepping has begun.
    pub fn tune_packets(self) -> TunedPipeline {
        self.retune(|t| t, true)
    }

    /// Selects scalar or packet ray tracing for tuned frames *and* the
    /// untuned baseline (pixels and [`kdtune_raycast::RenderStats`] are
    /// bit-identical either way; only frame time differs).
    pub fn render_options(mut self, options: RenderOptions) -> TunedPipeline {
        self.workflow = self.workflow.with_render_options(options);
        self
    }

    /// The scene being rendered.
    pub fn scene(&self) -> &Scene {
        &self.scene
    }

    /// The tuning workflow (tuner access, handles).
    pub fn workflow(&self) -> &TuningWorkflow {
        &self.workflow
    }

    /// Runs one tuned frame and advances the animation.
    pub fn step(&mut self) -> FrameReport {
        let mesh = self.scene.frame(self.next_frame_index());
        self.workflow.run_frame(mesh, &self.camera, self.light)
    }

    /// The animation frame index the next [`TunedPipeline::step`] renders.
    pub fn next_frame_index(&self) -> usize {
        self.steps_taken() / self.frame_repeat
    }

    /// The number of [`TunedPipeline::step`] calls taken so far (one tuner
    /// measurement each). Pipeline *step* indices (which advance every
    /// frame) and *animation* frame indices (which advance every
    /// `frame_repeat` steps) differ on repeated dynamic scenes;
    /// [`TunedPipeline::baseline_range`] takes the former.
    pub fn steps_taken(&self) -> usize {
        self.workflow.tuner().iterations()
    }

    /// Runs up to `max_steps` frames through the workflow's budget loop
    /// ([`TuningWorkflow::run_budget`]), stopping early once the tuner
    /// converges. Returns the frames run by *this* call — long-running
    /// callers invoke it repeatedly on the same pipeline — and why the run
    /// stopped.
    pub fn run_budget(&mut self, max_steps: usize) -> (usize, StopReason) {
        let TunedPipeline {
            scene,
            workflow,
            camera,
            light,
            frame_repeat,
        } = self;
        workflow.run_budget(max_steps, |wf| {
            let mesh = scene.frame(wf.tuner().iterations() / *frame_repeat);
            wf.run_frame(mesh, camera, *light);
        })
    }

    /// Runs frames until the tuner converges (or `max_frames` elapse) and
    /// returns whether it is converged. See [`TunedPipeline::run_budget`]
    /// for the stop *reason* (the boolean also covers a tuner that
    /// converged on an earlier call).
    pub fn run_until_converged(&mut self, max_frames: usize) -> bool {
        self.run_budget(max_frames);
        self.workflow.tuner().converged()
    }

    /// The animation frames pipeline steps `start .. start + n` render —
    /// each animation frame repeats `frame_repeat` times, exactly
    /// mirroring [`TunedPipeline::step`].
    fn baseline_frames(&self, start: usize, n: usize) -> impl Iterator<Item = usize> + '_ {
        (start..start + n).map(move |f| f / self.frame_repeat)
    }

    /// Baseline over pipeline *steps* `start .. start + n`: renders the
    /// same animation-frame sequence the tuned steps at those positions
    /// render (pass [`TunedPipeline::steps_taken`] as `start` to mirror a
    /// tuned window on a repeated dynamic scene — not the animation frame
    /// index, which would divide by `frame_repeat` twice). The frames run
    /// pinned to `C_base`; returns per-frame total seconds.
    pub fn baseline_range(&self, start: usize, n: usize) -> Vec<f64> {
        let params = base_build_params();
        let options = self.workflow.render_options();
        self.baseline_frames(start, n)
            .map(|frame| {
                let mesh = self.scene.frame(frame);
                let (b, r, _) = run_frame_with_options(
                    mesh,
                    self.workflow.algorithm(),
                    &params,
                    &self.camera,
                    self.light,
                    &options,
                );
                b + r
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdtune_scenes::{wood_doll, SceneParams};

    fn pipeline() -> TunedPipeline {
        TunedPipeline::new(wood_doll(&SceneParams::tiny()), Algorithm::InPlace)
            .resolution(24, 24)
            .tuner_seed(5)
    }

    #[test]
    fn convergence_loop_caps_at_max_frames() {
        let mut p = pipeline();
        p.run_until_converged(5);
        assert!(p.steps_taken() <= 5);
    }

    #[test]
    #[should_panic(expected = "before stepping")]
    fn late_seed_change_rejected() {
        let mut p = pipeline();
        p.step();
        let _ = p.tuner_seed(9);
    }

    #[test]
    #[should_panic(expected = "before stepping")]
    fn late_warm_start_rejected() {
        let mut p = pipeline();
        p.step();
        let _ = p.warm_start(&[17, 10, 3]);
    }

    #[test]
    fn run_budget_reports_only_new_frames_and_reason() {
        let mut p = pipeline();
        let (frames, reason) = p.run_budget(3);
        assert_eq!(frames, 3);
        assert_eq!(reason, StopReason::FrameBudget);
        assert_eq!(reason.as_str(), "frame_budget");
        // A second budget counts its own frames, not the accumulated run.
        let (frames, _) = p.run_budget(2);
        assert_eq!(frames, 2);
        assert_eq!(p.steps_taken(), 5);
    }

    #[test]
    fn run_budget_stops_on_convergence_with_reason() {
        let mut p = pipeline();
        let (frames, reason) = p.run_budget(400);
        assert_eq!(reason, StopReason::Converged);
        assert!(frames < 400, "converged early: {frames}");
        assert!(p.workflow().tuner().converged());
        // A zero-budget call on a converged pipeline reports FrameBudget
        // (nothing ran) while run_until_converged still answers true.
        let (frames, reason) = p.run_budget(0);
        assert_eq!(frames, 0);
        assert_eq!(reason, StopReason::FrameBudget);
        assert!(p.run_until_converged(0));
    }

    #[test]
    fn tune_packets_survives_seed_rebuild_and_extends_space() {
        let mut p = TunedPipeline::new(wood_doll(&SceneParams::tiny()), Algorithm::InPlace)
            .resolution(24, 24)
            .tune_packets()
            .tuner_seed(5);
        assert!(p.workflow().handles().packet_width.is_some());
        assert!(p.workflow().handles().min_active.is_some());
        let report = p.step();
        // (CI, CB, S) + (W, MA).
        assert_eq!(report.config.values().len(), 5);
        assert!([1, 4, 8].contains(&report.options.packet_width));
    }

    #[test]
    #[should_panic(expected = "before stepping")]
    fn late_tune_packets_rejected() {
        let mut p = pipeline();
        p.step();
        let _ = p.tune_packets();
    }

    #[test]
    fn tuner_converges_to_wide_packets_on_coherent_frames() {
        // The packet-width integration test: a coherent workload (fairy
        // forest's dense foliage keeps adjacent primary rays on shared
        // tree paths) at a resolution where ray tracing dominates tree
        // building, so the `W` axis carries a real cost signal (w=4/8
        // render ~1.2-1.4x faster than scalar here). Nelder–Mead is
        // stochastic and frame times are noisy, so accept the first of a
        // few seeds whose converged best configuration picks a non-scalar
        // width rather than pinning one seed's walk.
        use kdtune_scenes::fairy_forest;
        let found = (1..=4).any(|seed| {
            let mut p = TunedPipeline::new(fairy_forest(&SceneParams::tiny()), Algorithm::InPlace)
                .resolution(128, 128)
                .tune_packets()
                .tuner_seed(seed);
            let converged = p.run_until_converged(150);
            let (best, _) = p.workflow().tuner().best().expect("measured configs");
            // (CI, CB, S, W, MA): W is the fourth axis.
            converged && best.values()[3] > 1
        });
        assert!(found, "no seed converged to a non-scalar packet width");
    }

    #[test]
    fn warm_start_seeds_first_config() {
        let mut p = pipeline().warm_start(&[21, 11, 4]);
        p.step();
        let tuner = p.workflow().tuner();
        assert_eq!(tuner.history()[0].config.values(), &[21, 11, 4]);
    }

    #[test]
    fn warm_start_and_seed_compose_in_any_order() {
        let mut a = pipeline().warm_start(&[21, 11, 4]);
        // `pipeline()` already applied tuner_seed(5); setting the seed
        // after the warm start must not drop the warm start.
        let mut b = TunedPipeline::new(wood_doll(&SceneParams::tiny()), Algorithm::InPlace)
            .resolution(24, 24)
            .warm_start(&[21, 11, 4])
            .tuner_seed(5);
        a.step();
        b.step();
        assert_eq!(
            a.workflow().tuner().history()[0].config,
            b.workflow().tuner().history()[0].config
        );
    }

    #[test]
    fn baseline_range_mirrors_step_frames_under_frame_repeat() {
        // Regression: baseline_range takes pipeline step indices and must
        // render exactly the animation frames those steps render. The old
        // harness passed an animation frame index, dividing by the repeat
        // factor twice and comparing against the wrong window.
        let mut p = pipeline().frame_repeat(5);
        for _ in 0..7 {
            p.step();
        }
        assert_eq!(p.steps_taken(), 7);
        // Steps 7..12 render animation frames 1,1,1,2,2 …
        let frames: Vec<usize> = p.baseline_frames(p.steps_taken(), 5).collect();
        assert_eq!(frames, vec![1, 1, 1, 2, 2]);
        // … and the next tuned step agrees with the window's first frame.
        assert_eq!(p.next_frame_index(), frames[0]);
        // A fair window therefore covers frame_repeat steps per frame.
        let costs = p.baseline_range(p.steps_taken(), 2);
        assert_eq!(costs.len(), 2);
        assert!(costs.iter().all(|&c| c > 0.0));
    }
}
