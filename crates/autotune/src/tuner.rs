//! The online tuner: AtuneRT's `RegisterParameter` / `Start` / `Stop`
//! client API around the seeded Nelder–Mead search, with drift detection
//! and automatic re-tuning for long-running online use.

use crate::param::{ParamHandle, ParamSpec};
use crate::search::hill_climb::HillClimb;
use crate::search::nelder_mead::NelderMeadSearch;
use crate::search::random::RandomSearch;
use crate::search::SearchStrategy;
use crate::space::{Config, SearchSpace};
use kdtune_telemetry as telemetry;
use rand::Rng;
use std::time::Instant;

/// Which search drives the tuner.
///
/// AtuneRT uses the seeded Nelder–Mead simplex (the default and the
/// paper's configuration); the baselines exist for comparisons like the
/// `extra_search_strategies` experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StrategyKind {
    /// Random sampling seeding a Nelder–Mead simplex (AtuneRT).
    NelderMead,
    /// Discrete coordinate-descent hill climbing.
    HillClimb,
    /// Pure random search with the given evaluation budget.
    Random {
        /// Evaluations before the search declares itself done.
        budget: usize,
    },
}

/// Where the tuner currently is in its lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TunerPhase {
    /// Probing random configurations to seed the simplex.
    Seeding,
    /// Following the Nelder–Mead simplex.
    Searching,
    /// Search converged; running the best configuration and watching for
    /// drift.
    Converged,
}

impl TunerPhase {
    /// Stable lowercase name, used in telemetry events and traces.
    pub fn as_str(self) -> &'static str {
        match self {
            TunerPhase::Seeding => "seeding",
            TunerPhase::Searching => "searching",
            TunerPhase::Converged => "converged",
        }
    }
}

impl std::fmt::Display for TunerPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One completed measurement cycle.
#[derive(Clone, Debug, PartialEq)]
pub struct Measurement {
    /// Zero-based index of this measurement cycle; equals this entry's
    /// position in [`Tuner::history`].
    pub iteration: usize,
    /// The configuration that was active.
    pub config: Config,
    /// Its measured cost (seconds, unless fed via
    /// [`Tuner::stop_with`]).
    pub cost: f64,
    /// Phase the tuner was in when measuring.
    pub phase: TunerPhase,
}

/// Normalized half-width of the jitter box around a warm-start center.
/// Small enough that the initial simplex is an order of magnitude tighter
/// than cold uniform seeding, large enough to correct a slightly stale
/// stored optimum.
const WARM_START_SPREAD: f64 = 0.08;

/// Configures and creates a [`Tuner`].
#[derive(Clone)]
pub struct TunerBuilder {
    seed: u64,
    seed_samples: usize,
    tol: f64,
    max_iterations: usize,
    retune_threshold: f64,
    retune_window: usize,
    measurements_per_config: usize,
    strategy: StrategyKind,
    warm_start: Option<Vec<i64>>,
}

impl Default for TunerBuilder {
    fn default() -> Self {
        TunerBuilder {
            seed: 0x5eed,
            seed_samples: 8,
            tol: 0.02,
            max_iterations: 200,
            retune_threshold: 1.3,
            retune_window: 8,
            measurements_per_config: 1,
            strategy: StrategyKind::NelderMead,
            warm_start: None,
        }
    }
}

impl TunerBuilder {
    /// RNG seed for the random sampling stage (deterministic tuning runs).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of random probes before the simplex starts (≥ dim + 1 is
    /// enforced at search construction).
    pub fn seed_samples(mut self, n: usize) -> Self {
        self.seed_samples = n;
        self
    }

    /// Normalized simplex diameter treated as converged.
    pub fn tolerance(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }

    /// Cap on Nelder–Mead iterations per search round.
    pub fn max_iterations(mut self, n: usize) -> Self {
        self.max_iterations = n;
        self
    }

    /// Once converged, a trailing-window median cost above
    /// `threshold × converged cost` triggers a re-tune. Values ≤ 1 disable
    /// drift detection.
    pub fn retune_threshold(mut self, threshold: f64) -> Self {
        self.retune_threshold = threshold;
        self
    }

    /// Window length (in measurements) for drift detection.
    pub fn retune_window(mut self, n: usize) -> Self {
        self.retune_window = n.max(2);
        self
    }

    /// Noise filter: measure each proposed configuration `k` times and
    /// report the median to the search (default 1 — every cycle advances
    /// the search, as in the paper's per-frame workflow).
    pub fn measurements_per_config(mut self, k: usize) -> Self {
        self.measurements_per_config = k.max(1);
        self
    }

    /// Selects the search strategy (default: AtuneRT's seeded
    /// Nelder–Mead).
    pub fn strategy(mut self, strategy: StrategyKind) -> Self {
        self.strategy = strategy;
        self
    }

    /// Warm-starts the Nelder–Mead search from a known-good configuration
    /// (raw parameter values, registration order; snapped to the space).
    ///
    /// Instead of `seed_samples` uniform random probes, the first search
    /// round evaluates the stored configuration plus `dim` jittered
    /// neighbours (±0.08 per normalized coordinate), so
    /// the simplex starts an order of magnitude tighter and converges in
    /// correspondingly fewer measurement cycles. Drift re-tunes ignore the
    /// warm start — a re-tune fires precisely because the stored optimum
    /// went stale. Other strategies ignore this setting.
    pub fn warm_start(mut self, values: &[i64]) -> Self {
        self.warm_start = Some(values.to_vec());
        self
    }

    /// Builds the tuner. Parameters are registered afterwards; the search
    /// is created lazily on the first [`Tuner::start`].
    pub fn build(self) -> Tuner {
        Tuner {
            space: SearchSpace::new(),
            search: None,
            current: None,
            outstanding: None,
            pending_costs: Vec::new(),
            started: None,
            history: Vec::new(),
            best: None,
            converged_cost: None,
            recent: Vec::new(),
            retunes: 0,
            last_phase: None,
            builder: self,
        }
    }
}

/// The general-purpose online autotuner (see the crate docs for the
/// workflow).
pub struct Tuner {
    space: SearchSpace,
    search: Option<Box<dyn SearchStrategy>>,
    /// Configuration currently applied to the application.
    current: Option<Config>,
    /// Point awaiting its measurement, if the active config came from the
    /// search (None once converged: we keep measuring `current` for drift
    /// detection without reporting to the search).
    outstanding: Option<Vec<f64>>,
    /// Raw costs collected for the outstanding point so far (the
    /// `measurements_per_config` noise filter).
    pending_costs: Vec<f64>,
    started: Option<Instant>,
    history: Vec<Measurement>,
    best: Option<(Config, f64)>,
    /// Cost observed when the search converged (drift reference).
    converged_cost: Option<f64>,
    /// Trailing costs measured while converged.
    recent: Vec<f64>,
    retunes: usize,
    /// Phase as of the last completed cycle, for telemetry transition
    /// events.
    last_phase: Option<TunerPhase>,
    builder: TunerBuilder,
}

impl Tuner {
    /// Starts configuring a tuner.
    pub fn builder() -> TunerBuilder {
        TunerBuilder::default()
    }

    /// A tuner with default settings.
    pub fn new() -> Tuner {
        TunerBuilder::default().build()
    }

    /// Registers a linear integer parameter over `[min, max]` with stride
    /// `step` (AtuneRT's `RegisterParameter(&var, min, max, step)`).
    ///
    /// # Panics
    /// Panics when called after the first [`Tuner::start`].
    pub fn register_parameter(
        &mut self,
        name: impl Into<String>,
        min: i64,
        max: i64,
        step: i64,
    ) -> ParamHandle {
        self.register(ParamSpec::linear(name, min, max, step))
    }

    /// Registers a power-of-two parameter over `[min, max]`.
    pub fn register_parameter_pow2(
        &mut self,
        name: impl Into<String>,
        min: i64,
        max: i64,
    ) -> ParamHandle {
        self.register(ParamSpec::pow2(name, min, max))
    }

    /// Registers a parameter whose valid values are exactly the given
    /// ascending list (e.g. the packet width `{1, 4, 8}`).
    pub fn register_parameter_choices(
        &mut self,
        name: impl Into<String>,
        choices: &[i64],
    ) -> ParamHandle {
        self.register(ParamSpec::choices(name, choices))
    }

    /// Registers an arbitrary [`ParamSpec`].
    pub fn register(&mut self, spec: ParamSpec) -> ParamHandle {
        assert!(
            self.search.is_none(),
            "parameters must be registered before the first start()"
        );
        self.space.add(spec)
    }

    /// The settings this tuner was built with, e.g. to build a fresh
    /// tuner that differs in one of them.
    pub fn settings(&self) -> &TunerBuilder {
        &self.builder
    }

    /// The search space assembled so far.
    pub fn space(&self) -> &SearchSpace {
        &self.space
    }

    /// Current value of a registered parameter.
    ///
    /// # Panics
    /// Panics before the first [`Tuner::start`].
    pub fn get(&self, handle: ParamHandle) -> i64 {
        self.current
            .as_ref()
            .expect("no configuration active before start()")
            .get(handle)
    }

    /// The full active configuration.
    pub fn current(&self) -> Option<&Config> {
        self.current.as_ref()
    }

    /// Begins a measurement cycle: selects the configuration to run (from
    /// the search, or the best known once converged) and starts the clock.
    pub fn start(&mut self) {
        self.prepare_cycle();
        self.started = Some(Instant::now());
    }

    /// Ends the measurement cycle using wall-clock time as the cost.
    ///
    /// # Panics
    /// Panics without a matching [`Tuner::start`].
    pub fn stop(&mut self) {
        let started = self.started.take().expect("stop() without start()");
        let cost = started.elapsed().as_secs_f64();
        self.finish_cycle(cost);
    }

    /// Deterministic variant: begins a cycle without starting a clock.
    /// Pair with [`Tuner::stop_with`].
    pub fn start_cycle(&mut self) {
        self.prepare_cycle();
    }

    /// Ends the cycle with an explicit cost (simulated time, counted
    /// instructions, …). Pairs with either start variant.
    pub fn stop_with(&mut self, cost: f64) {
        self.started = None;
        self.finish_cycle(cost);
    }

    fn ensure_search(&mut self) -> &mut dyn SearchStrategy {
        if self.search.is_none() {
            assert!(self.space.dim() >= 1, "register parameters before start()");
            let space = self.space.clone();
            let seed = self.builder.seed.wrapping_add(self.retunes as u64);
            // Warm starts only apply to the first round: a drift re-tune
            // means the stored optimum is stale, so re-tunes fall back to
            // cold uniform seeding.
            let warm = (self.retunes == 0)
                .then_some(self.builder.warm_start.as_ref())
                .flatten();
            let search: Box<dyn SearchStrategy> = match (self.builder.strategy, warm) {
                (StrategyKind::NelderMead, Some(values)) => {
                    let center_cfg = space.snap_values(values);
                    let center = space.normalize(&center_cfg);
                    telemetry::event(
                        "tuner.warm_start",
                        &[
                            ("config", center_cfg.to_string().into()),
                            ("spread", WARM_START_SPREAD.into()),
                        ],
                    );
                    // First probe is the stored configuration itself; the
                    // remaining `dim` probes jitter each coordinate inside
                    // the spread box (distinct points almost surely, which
                    // the search's seeding dedup requires).
                    let mut first = true;
                    let c = center;
                    Box::new(NelderMeadSearch::new(
                        space.dim(),
                        space.dim() + 1,
                        seed,
                        move |rng| {
                            if std::mem::take(&mut first) {
                                return c.clone();
                            }
                            c.iter()
                                .map(|&x| {
                                    let jitter =
                                        rng.gen_range(-WARM_START_SPREAD..WARM_START_SPREAD);
                                    (x + jitter).clamp(0.0, 1.0)
                                })
                                .collect()
                        },
                        self.builder.tol,
                        self.builder.max_iterations,
                    ))
                }
                (StrategyKind::NelderMead, None) => Box::new(NelderMeadSearch::new(
                    space.dim(),
                    self.builder.seed_samples,
                    seed,
                    move |rng| space.random_point(rng),
                    self.builder.tol,
                    self.builder.max_iterations,
                )),
                (StrategyKind::HillClimb, _) => Box::new(HillClimb::new(
                    space.params().iter().map(|p| p.count()).collect(),
                    seed,
                )),
                (StrategyKind::Random { budget }, _) => {
                    Box::new(RandomSearch::new(seed, budget, move |rng| {
                        space.random_point(rng)
                    }))
                }
            };
            self.search = Some(search);
        }
        self.search.as_deref_mut().unwrap()
    }

    fn prepare_cycle(&mut self) {
        if self.outstanding.is_some() {
            // Still collecting repeated measurements of the same
            // configuration; keep it active.
            return;
        }
        let search = self.ensure_search();
        match search.ask() {
            Some(point) => {
                self.outstanding = Some(point.clone());
                self.current = Some(self.space.snap(&point));
            }
            None => {
                // Converged: run the best configuration found.
                self.outstanding = None;
                if self.converged_cost.is_none() {
                    let best = self
                        .search
                        .as_ref()
                        .and_then(|s| s.best())
                        .expect("converged search must have a best point");
                    self.converged_cost = Some(best.1);
                    self.current = Some(self.space.snap(&best.0));
                }
            }
        }
    }

    fn finish_cycle(&mut self, cost: f64) {
        let config = self
            .current
            .clone()
            .expect("finish_cycle without an active configuration");
        let phase = self.phase();
        let iteration = self.history.len();
        telemetry::event(
            "tuner.measurement",
            &[
                ("iteration", iteration.into()),
                ("cost", cost.into()),
                ("phase", phase.as_str().into()),
                ("config", config.to_string().into()),
            ],
        );
        self.history.push(Measurement {
            iteration,
            config: config.clone(),
            cost,
            phase,
        });
        if self.best.as_ref().is_none_or(|(_, b)| cost < *b) {
            self.best = Some((config, cost));
        }
        if self.outstanding.is_some() {
            self.pending_costs.push(cost);
            if self.pending_costs.len() >= self.builder.measurements_per_config {
                let mut sorted = std::mem::take(&mut self.pending_costs);
                sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
                let aggregated = sorted[sorted.len() / 2];
                self.outstanding = None;
                self.search
                    .as_mut()
                    .expect("outstanding point implies an active search")
                    .tell(aggregated);
            }
        } else {
            // Converged monitoring: watch for drift.
            self.recent.push(cost);
            if self.recent.len() > self.builder.retune_window {
                self.recent.remove(0);
            }
            if self.should_retune() {
                if telemetry::enabled() {
                    let reference = self.converged_cost.unwrap_or(f64::NAN);
                    let mut sorted = self.recent.clone();
                    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
                    let median = sorted[sorted.len() / 2];
                    telemetry::event(
                        "tuner.retune",
                        &[
                            ("iteration", iteration.into()),
                            ("reference", reference.into()),
                            ("median", median.into()),
                            ("drift_ratio", (median / reference).into()),
                        ],
                    );
                }
                self.restart_search();
            }
        }
        // Phase transitions become visible after the cycle's bookkeeping
        // (a converging tell() or a drift restart both move the phase).
        let now = self.phase();
        if self.last_phase != Some(now) {
            telemetry::event(
                "tuner.phase",
                &[
                    (
                        "from",
                        self.last_phase.map_or("start", |p| p.as_str()).into(),
                    ),
                    ("to", now.as_str().into()),
                    ("iteration", iteration.into()),
                ],
            );
            self.last_phase = Some(now);
        }
    }

    fn should_retune(&self) -> bool {
        if self.builder.retune_threshold <= 1.0 {
            return false;
        }
        let Some(reference) = self.converged_cost else {
            return false;
        };
        if self.recent.len() < self.builder.retune_window {
            return false;
        }
        let mut sorted = self.recent.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[sorted.len() / 2];
        median > reference * self.builder.retune_threshold
    }

    fn restart_search(&mut self) {
        self.retunes += 1;
        self.search = None;
        self.converged_cost = None;
        self.recent.clear();
        // The next prepare_cycle() builds a fresh search (new RNG stream).
    }

    /// Number of probe evaluations the current Nelder–Mead round spends
    /// before the simplex starts (warm rounds use the minimal `dim + 1`).
    fn seeding_probe_count(&self) -> usize {
        if self.retunes == 0 && self.builder.warm_start.is_some() {
            self.space.dim() + 1
        } else {
            self.builder.seed_samples.max(self.space.dim() + 1)
        }
    }

    /// Current lifecycle phase.
    pub fn phase(&self) -> TunerPhase {
        match &self.search {
            None => TunerPhase::Seeding,
            Some(s) if s.converged() => TunerPhase::Converged,
            Some(s) => {
                // The Nelder–Mead strategy spends its first evaluations on
                // random probing; report that stage distinctly (the other
                // strategies have no seeding stage).
                let seeding = self.builder.strategy == StrategyKind::NelderMead
                    && s.evaluations() < self.seeding_probe_count();
                if seeding {
                    TunerPhase::Seeding
                } else {
                    TunerPhase::Searching
                }
            }
        }
    }

    /// True once the current search round has converged.
    pub fn converged(&self) -> bool {
        self.phase() == TunerPhase::Converged
    }

    /// Best `(configuration, cost)` measured so far.
    pub fn best(&self) -> Option<(&Config, f64)> {
        self.best.as_ref().map(|(c, f)| (c, *f))
    }

    /// All completed measurements, in completion order.
    ///
    /// The slice is append-only: entry `i` is the `i`-th cycle finished by
    /// [`Tuner::stop`] / [`Tuner::stop_with`], and its
    /// [`Measurement::iteration`] field always equals `i`. Re-tunes do not
    /// clear or reorder earlier entries — history spans every search round
    /// of the tuner's lifetime.
    pub fn history(&self) -> &[Measurement] {
        &self.history
    }

    /// Number of completed measurement cycles.
    pub fn iterations(&self) -> usize {
        self.history.len()
    }

    /// How many times drift detection restarted the search.
    pub fn retunes(&self) -> usize {
        self.retunes
    }
}

impl Default for Tuner {
    fn default() -> Self {
        Tuner::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic cost: a smooth bowl over two parameters, minimal at
    /// `(ci, cb) = (20, 12)`.
    fn cost_fn(c: &Config) -> f64 {
        let ci = c.values()[0] as f64;
        let cb = c.values()[1] as f64;
        1.0 + ((ci - 20.0) / 50.0).powi(2) + ((cb - 12.0) / 30.0).powi(2)
    }

    fn make_tuner(seed: u64) -> (Tuner, ParamHandle, ParamHandle) {
        let mut t = Tuner::builder().seed(seed).build();
        let ci = t.register_parameter("CI", 3, 101, 1);
        let cb = t.register_parameter("CB", 0, 60, 1);
        (t, ci, cb)
    }

    fn run(t: &mut Tuner, iters: usize) {
        for _ in 0..iters {
            t.start_cycle();
            let c = t.current().unwrap().clone();
            t.stop_with(cost_fn(&c));
        }
    }

    #[test]
    fn finds_near_optimal_configuration() {
        let (mut t, ci, cb) = make_tuner(11);
        run(&mut t, 150);
        assert!(t.converged(), "should converge within 150 iterations");
        let (best, cost) = t.best().unwrap();
        assert!(cost < 1.02, "best cost {cost}, config {best}");
        // Once converged, get() serves the best configuration.
        t.start_cycle();
        let (gci, gcb) = (t.get(ci), t.get(cb));
        t.stop_with(cost_fn(&t.current().unwrap().clone()));
        assert!((gci - 20).abs() <= 15, "CI = {gci}");
        assert!((gcb - 12).abs() <= 15, "CB = {gcb}");
    }

    #[test]
    fn deterministic_given_seed() {
        let trace = |seed| {
            let (mut t, _, _) = make_tuner(seed);
            run(&mut t, 60);
            t.history()
                .iter()
                .map(|m| m.config.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(trace(5), trace(5));
        assert_ne!(trace(5), trace(6), "different seeds explore differently");
    }

    #[test]
    fn phases_progress() {
        let (mut t, _, _) = make_tuner(1);
        assert_eq!(t.phase(), TunerPhase::Seeding);
        run(&mut t, 3);
        assert_eq!(t.phase(), TunerPhase::Seeding, "8 seed samples requested");
        run(&mut t, 20);
        assert_ne!(t.phase(), TunerPhase::Seeding);
        run(&mut t, 150);
        assert_eq!(t.phase(), TunerPhase::Converged);
        // Converged measurements are recorded with the right phase.
        assert!(t
            .history()
            .iter()
            .rev()
            .take(3)
            .all(|m| m.phase == TunerPhase::Converged));
    }

    #[test]
    fn drift_triggers_retune() {
        let mut t = Tuner::builder()
            .seed(3)
            .retune_threshold(1.2)
            .retune_window(4)
            .build();
        let h = t.register_parameter("N", 1, 32, 1);
        let _ = h;
        // Phase 1: cost favors small N.
        let mut drifted = false;
        for i in 0..400 {
            t.start_cycle();
            let n = t.current().unwrap().values()[0] as f64;
            let cost = if !drifted {
                1.0 + n / 32.0
            } else {
                2.0 + (32.0 - n) / 32.0
            };
            t.stop_with(cost);
            if t.converged() && !drifted && i > 50 {
                drifted = true; // flip the landscape once converged
            }
        }
        assert!(t.retunes() >= 1, "drift must restart the search");
    }

    #[test]
    fn history_and_iterations_track_cycles() {
        let (mut t, _, _) = make_tuner(2);
        run(&mut t, 25);
        assert_eq!(t.iterations(), 25);
        assert_eq!(t.history().len(), 25);
        assert!(t.history().iter().all(|m| m.cost.is_finite()));
        // The iteration field mirrors the entry's position in history.
        assert!(t
            .history()
            .iter()
            .enumerate()
            .all(|(i, m)| m.iteration == i));
    }

    #[test]
    fn wall_clock_interface_works() {
        let (mut t, ci, _) = make_tuner(4);
        for _ in 0..12 {
            t.start();
            let _ = t.get(ci);
            t.stop();
        }
        assert_eq!(t.iterations(), 12);
        assert!(t.history().iter().all(|m| m.cost >= 0.0));
    }

    #[test]
    #[should_panic(expected = "registered before the first start()")]
    fn late_registration_rejected() {
        let (mut t, _, _) = make_tuner(0);
        t.start_cycle();
        t.stop_with(1.0);
        let _ = t.register_parameter("late", 0, 1, 1);
    }

    #[test]
    #[should_panic(expected = "stop() without start()")]
    fn unbalanced_stop_rejected() {
        let (mut t, _, _) = make_tuner(0);
        t.stop();
    }

    #[test]
    fn alternative_strategies_drive_the_tuner() {
        for kind in [StrategyKind::HillClimb, StrategyKind::Random { budget: 60 }] {
            let mut t = Tuner::builder().seed(13).strategy(kind).build();
            let n = t.register_parameter("N", 1, 64, 1);
            for _ in 0..200 {
                t.start_cycle();
                let v = t.get(n) as f64;
                t.stop_with(1.0 + (v - 33.0).abs() / 64.0);
            }
            let (best, _) = t.best().unwrap();
            assert!((best.values()[0] - 33).abs() <= 16, "{kind:?} found {best}");
            assert!(t.converged(), "{kind:?} should converge/exhaust");
        }
    }

    #[test]
    fn repeated_measurements_hold_the_config() {
        let mut t = Tuner::builder().seed(5).measurements_per_config(3).build();
        let n = t.register_parameter("N", 1, 32, 1);
        let _ = n;
        let mut seen: Vec<Config> = Vec::new();
        for _ in 0..12 {
            t.start_cycle();
            seen.push(t.current().unwrap().clone());
            t.stop_with(1.0);
        }
        // Each proposed configuration is measured exactly 3 times in a row.
        for chunk in seen.chunks(3) {
            assert!(chunk.iter().all(|c| c == &chunk[0]), "{seen:?}");
        }
        // And the search does advance across chunks during seeding.
        assert_ne!(seen[0], seen[3]);
    }

    #[test]
    fn noisy_measurements_with_filtering_still_converge() {
        // A deterministic "noise" pattern large enough to mislead a single
        // measurement but filtered out by median-of-3.
        let mut t = Tuner::builder().seed(6).measurements_per_config(3).build();
        let n = t.register_parameter("N", 1, 64, 1);
        let mut k = 0u64;
        for _ in 0..450 {
            t.start_cycle();
            let v = t.get(n) as f64;
            let true_cost = 1.0 + (v - 40.0).abs() / 64.0;
            k += 1;
            let noise = if k.is_multiple_of(3) { 0.8 } else { 0.0 }; // one outlier per triple
            t.stop_with(true_cost + noise);
        }
        let (best, _) = t.best().unwrap();
        assert!(
            (best.values()[0] - 40).abs() <= 12,
            "filtered tuning should land near 40: {best}"
        );
    }

    #[test]
    fn warm_start_first_probe_is_the_stored_config() {
        let mut t = Tuner::builder().seed(7).warm_start(&[21, 11]).build();
        let _ = t.register_parameter("CI", 3, 101, 1);
        let _ = t.register_parameter("CB", 0, 60, 1);
        t.start_cycle();
        assert_eq!(t.current().unwrap().values(), &[21, 11]);
        t.stop_with(1.0);
    }

    #[test]
    fn warm_start_converges_in_fewer_iterations() {
        let converge = |warm: Option<&[i64]>| {
            let mut b = Tuner::builder().seed(11);
            if let Some(v) = warm {
                b = b.warm_start(v);
            }
            let mut t = b.build();
            let _ = t.register_parameter("CI", 3, 101, 1);
            let _ = t.register_parameter("CB", 0, 60, 1);
            for i in 0..300 {
                t.start_cycle();
                let c = t.current().unwrap().clone();
                t.stop_with(cost_fn(&c));
                if t.converged() {
                    return (i + 1, t.best().unwrap().1);
                }
            }
            panic!("tuner did not converge in 300 iterations");
        };
        let (cold_iters, cold_cost) = converge(None);
        // Warm-start on (a snap of) the bowl's optimum.
        let (warm_iters, warm_cost) = converge(Some(&[20, 12]));
        assert!(
            warm_iters < cold_iters,
            "warm ({warm_iters}) should beat cold ({cold_iters})"
        );
        assert!(warm_cost <= cold_cost * 1.01, "{warm_cost} vs {cold_cost}");
    }

    #[test]
    fn warm_start_is_deterministic_and_out_of_range_values_snap() {
        let trace = || {
            let mut t = Tuner::builder().seed(3).warm_start(&[1000, -5]).build();
            let _ = t.register_parameter("CI", 3, 101, 1);
            let _ = t.register_parameter("CB", 0, 60, 1);
            run(&mut t, 30);
            t.history()
                .iter()
                .map(|m| m.config.clone())
                .collect::<Vec<_>>()
        };
        let a = trace();
        assert_eq!(a, trace());
        // The out-of-range warm values were snapped into the space.
        assert_eq!(a[0].values(), &[101, 0]);
    }

    #[test]
    fn retune_ignores_warm_start() {
        // Converge warm, then flip the landscape; the drift re-tune must
        // run a cold round (uniform seeding) and still find the new
        // optimum far from the stale warm center.
        let mut t = Tuner::builder()
            .seed(9)
            .retune_threshold(1.2)
            .retune_window(4)
            .warm_start(&[2])
            .build();
        let n = t.register_parameter("N", 1, 64, 1);
        let mut drifted = false;
        for i in 0..500 {
            t.start_cycle();
            let v = t.get(n) as f64;
            let cost = if drifted {
                2.0 + (64.0 - v) / 64.0
            } else {
                1.0 + v / 64.0
            };
            t.stop_with(cost);
            if t.converged() && !drifted && i > 20 {
                drifted = true;
            }
        }
        assert!(t.retunes() >= 1, "drift must restart the search");
        assert!(t.converged(), "the cold re-tune round should re-converge");
        let final_best = t
            .history()
            .iter()
            .rev()
            .find(|m| m.phase == TunerPhase::Converged)
            .unwrap();
        assert!(
            final_best.config.values()[0] > 32,
            "re-tune stuck near the stale warm center: {}",
            final_best.config
        );
    }

    #[test]
    fn pow2_parameter_integration() {
        let mut t = Tuner::builder().seed(8).build();
        let r = t.register_parameter_pow2("R", 16, 8192);
        for _ in 0..60 {
            t.start_cycle();
            let v = t.get(r);
            assert!(v.count_ones() == 1 && (16..=8192).contains(&v));
            // Favor R = 256.
            let cost = 1.0 + ((v as f64).log2() - 8.0).abs();
            t.stop_with(cost);
        }
        let (best, _) = t.best().unwrap();
        assert_eq!(best.values()[0], 256);
    }
}
