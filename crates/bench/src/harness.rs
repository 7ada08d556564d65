//! Shared experiment drivers behind the figure binaries.

use crate::cli::ExperimentArgs;
use crate::stats::median;
use kdtune::{Algorithm, Config, RenderOptions, Scene, SceneParams, TunedPipeline};
use kdtune_telemetry as telemetry;

/// Sizing of an experiment run.
#[derive(Clone, Copy, Debug)]
pub struct ExperimentOpts {
    /// Scene generation scale.
    pub scene_params: SceneParams,
    /// Square render resolution in pixels.
    pub resolution: u32,
    /// Cap on tuning iterations before giving up on convergence.
    pub max_tuning_frames: usize,
    /// Frames measured at the tuned configuration after convergence.
    pub steady_window: usize,
    /// Experiment repetitions (the paper uses 15).
    pub repeats: usize,
    /// Frame-repeat factor for dynamic scenes (the paper uses 5).
    pub frame_repeat: usize,
    /// Base RNG seed; repetition `k` uses `base_seed + k`.
    pub base_seed: u64,
    /// How frames are traced (scalar by default; `--packet-width` switches
    /// every render in the experiment to the coherent packet path).
    pub render_options: RenderOptions,
}

impl ExperimentOpts {
    /// CI-friendly sizing: ~10% scenes, small raster, 3 repetitions.
    pub fn quick() -> ExperimentOpts {
        ExperimentOpts {
            scene_params: SceneParams::quick(),
            resolution: 64,
            max_tuning_frames: 150,
            steady_window: 5,
            repeats: 3,
            frame_repeat: 5,
            base_seed: 0xbe,
            render_options: RenderOptions::default(),
        }
    }

    /// Paper-scale sizing (full scenes, 15 repetitions).
    pub fn full() -> ExperimentOpts {
        ExperimentOpts {
            scene_params: SceneParams::paper(),
            resolution: 256,
            max_tuning_frames: 400,
            steady_window: 10,
            repeats: 15,
            frame_repeat: 5,
            base_seed: 0xbe,
            render_options: RenderOptions::default(),
        }
    }

    /// Builds options from parsed CLI arguments.
    pub fn from_args(args: &ExperimentArgs) -> ExperimentOpts {
        let mut opts = if args.quick {
            ExperimentOpts::quick()
        } else {
            ExperimentOpts::full()
        };
        if let Some(r) = args.repeats {
            opts.repeats = r;
        }
        if let Some(width) = args.packet_width {
            opts.render_options = opts.render_options.with_packet_width(width);
        }
        opts
    }
}

/// Result of tuning one scene with one algorithm (one repetition).
#[derive(Clone, Debug)]
pub struct TuneOutcome {
    /// Scene name.
    pub scene: &'static str,
    /// Algorithm tuned.
    pub algorithm: Algorithm,
    /// Median frame time at `C_base` over the steady window (seconds).
    pub base_median: f64,
    /// Median frame time at the tuned configuration (seconds).
    pub tuned_median: f64,
    /// `base_median / tuned_median`.
    pub speedup: f64,
    /// The configuration the tuner settled on.
    pub tuned_config: Config,
    /// Whether the search converged within the frame budget.
    pub converged: bool,
    /// Tuning iterations executed (including the steady window).
    pub iterations: usize,
    /// Per-iteration measured frame costs, in order.
    pub history: Vec<f64>,
}

/// Runs the paper's per-scene experiment once: tune to convergence, then
/// measure the steady state and the `C_base` baseline over the same
/// animation frames.
pub fn tune_scene(
    scene: &Scene,
    algorithm: Algorithm,
    opts: &ExperimentOpts,
    seed: u64,
) -> TuneOutcome {
    let mut pipeline = TunedPipeline::new(scene.clone(), algorithm)
        .resolution(opts.resolution, opts.resolution)
        .frame_repeat(if scene.is_dynamic() {
            opts.frame_repeat
        } else {
            1
        })
        .render_options(opts.render_options)
        .tuner_seed(seed);
    let converged = pipeline.run_until_converged(opts.max_tuning_frames);

    // Steady state at the tuned configuration. The baseline window starts
    // at the same pipeline *step* index, so on repeated dynamic scenes it
    // renders exactly the animation frames the tuned steps render.
    let window_start = pipeline.steps_taken();
    let mut tuned: Vec<f64> = Vec::with_capacity(opts.steady_window);
    for _ in 0..opts.steady_window {
        tuned.push(pipeline.step().total_secs);
    }
    let base = pipeline.baseline_range(window_start, opts.steady_window);

    let tuner = pipeline.workflow().tuner();
    let tuned_median = median(&tuned);
    let base_median = median(&base);
    let outcome = TuneOutcome {
        scene: scene.name,
        algorithm,
        base_median,
        tuned_median,
        speedup: base_median / tuned_median,
        tuned_config: tuner
            .best()
            .map(|(c, _)| c.clone())
            .expect("tuning ran at least one cycle"),
        converged,
        iterations: tuner.iterations(),
        history: tuner.history().iter().map(|m| m.cost).collect(),
    };
    telemetry::event(
        "bench.trial",
        &[
            ("scene", outcome.scene.into()),
            ("algorithm", algorithm.name().into()),
            ("seed", seed.into()),
            ("converged", outcome.converged.into()),
            ("iterations", outcome.iterations.into()),
            ("base_median_secs", outcome.base_median.into()),
            ("tuned_median_secs", outcome.tuned_median.into()),
            ("speedup", outcome.speedup.into()),
            ("tuned_config", outcome.tuned_config.to_string().into()),
        ],
    );
    telemetry::flush();
    outcome
}

/// Repeats [`tune_scene`] `opts.repeats` times with distinct seeds.
pub fn tune_scene_repeated(
    scene: &Scene,
    algorithm: Algorithm,
    opts: &ExperimentOpts,
) -> Vec<TuneOutcome> {
    (0..opts.repeats)
        .map(|k| tune_scene(scene, algorithm, opts, opts.base_seed + k as u64))
        .collect()
}

/// Measures the median frame time of a *fixed* configuration (used by the
/// exhaustive-search comparison). `values` are in Table II order,
/// `(CI, CB, S[, R])`.
pub fn measure_config(
    scene: &Scene,
    algorithm: Algorithm,
    values: &[i64],
    opts: &ExperimentOpts,
    frames: usize,
) -> f64 {
    use kdtune::raycast::{run_frame_with_options, Camera};
    use kdtune::BuildParams;
    let v = scene.view;
    let camera = Camera::look_at(
        v.eye,
        v.target,
        v.up,
        v.fov_deg,
        opts.resolution,
        opts.resolution,
    );
    let r = values.get(3).copied().unwrap_or(4096);
    let params = BuildParams::from_config(
        values[0] as f32,
        values[1] as f32,
        values[2] as u32,
        r as u32,
    );
    let costs: Vec<f64> = (0..frames.max(1))
        .map(|f| {
            let (b, rr, _) = run_frame_with_options(
                scene.frame(f),
                algorithm,
                &params,
                &camera,
                v.light,
                &opts.render_options,
            );
            b + rr
        })
        .collect();
    median(&costs)
}

/// Normalized (0–100) per-parameter values of a set of tuned configs —
/// the data behind the Fig. 7 boxplots.
pub fn normalized_percent(algorithm: Algorithm, configs: &[Config]) -> Vec<(String, Vec<f64>)> {
    let space = kdtune::tuning_space(algorithm);
    space
        .params()
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let values: Vec<f64> = configs
                .iter()
                .map(|c| p.normalize_percent(c.values()[i]))
                .collect();
            (p.name.clone(), values)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdtune::scenes::{toasters, wood_doll};

    fn tiny_opts() -> ExperimentOpts {
        ExperimentOpts {
            scene_params: SceneParams::tiny(),
            resolution: 16,
            max_tuning_frames: 40,
            steady_window: 3,
            repeats: 2,
            frame_repeat: 2,
            base_seed: 7,
            render_options: RenderOptions::default(),
        }
    }

    #[test]
    fn tune_scene_produces_consistent_outcome() {
        let opts = tiny_opts();
        let scene = wood_doll(&opts.scene_params);
        let out = tune_scene(&scene, Algorithm::InPlace, &opts, 1);
        assert_eq!(out.scene, "wood_doll");
        assert!(out.base_median > 0.0 && out.tuned_median > 0.0);
        assert!((out.speedup - out.base_median / out.tuned_median).abs() < 1e-12);
        assert!(out.iterations >= opts.steady_window);
        assert_eq!(out.history.len(), out.iterations);
        assert_eq!(out.tuned_config.values().len(), 3);
    }

    #[test]
    fn repeated_runs_use_distinct_seeds() {
        let opts = tiny_opts();
        let scene = toasters(&opts.scene_params);
        let outs = tune_scene_repeated(&scene, Algorithm::Lazy, &opts);
        assert_eq!(outs.len(), 2);
        // Different seeds explore differently; histories should differ.
        assert_ne!(outs[0].history, outs[1].history);
    }

    #[test]
    fn measure_config_accepts_three_and_four_values() {
        let opts = tiny_opts();
        let scene = wood_doll(&opts.scene_params);
        let a = measure_config(&scene, Algorithm::InPlace, &[17, 10, 3], &opts, 2);
        let b = measure_config(&scene, Algorithm::Lazy, &[17, 10, 3, 256], &opts, 2);
        assert!(a > 0.0 && b > 0.0);
    }

    #[test]
    fn normalized_percent_is_in_range() {
        let opts = tiny_opts();
        let scene = wood_doll(&opts.scene_params);
        let outs = tune_scene_repeated(&scene, Algorithm::InPlace, &opts);
        let configs: Vec<_> = outs.iter().map(|o| o.tuned_config.clone()).collect();
        let norm = normalized_percent(Algorithm::InPlace, &configs);
        assert_eq!(norm.len(), 3);
        for (name, vals) in &norm {
            assert!(!name.is_empty());
            assert_eq!(vals.len(), 2);
            assert!(vals.iter().all(|v| (0.0..=100.0).contains(v)));
        }
    }
}
