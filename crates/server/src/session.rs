//! Sessions: one long-lived tuner per [`SessionSpec`].
//!
//! A [`Session`] owns the tuner state that makes the service worth
//! running: every `tune_step` request advances the same Nelder–Mead search
//! through the shared budget loop ([`TuningWorkflow::run_budget`]), and a
//! converged result is written to the [`ConfigStore`] exactly once, under
//! the spec's workload. New sessions consult the store first and
//! warm-start the tuner from the stored best, which is the end-to-end
//! payoff measured by the warm-vs-cold tests.
//!
//! The spec's [`Workload`] changes only what one tuner step measures (the
//! session's [`Objective`]): a render session times build plus a
//! ray-traced frame through a [`TunedPipeline`], a query session times
//! build plus a k-NN + radius-gather batch. Both tune the same parameter
//! space; because the cost surfaces differ, the two converge to different
//! trees — which is the reason the workload axis exists everywhere
//! (session map, tree cache, config store).

use crate::protocol::{config_json, ErrorCode, QueryShape, SessionSpec, Workload};
use crate::store::ConfigStore;
use kdtune::raycast::build_params;
use kdtune::{
    base_build_params, build, Algorithm, BuildParams, BuiltTree, RenderOptions, SceneParams,
    StopReason, TunedPipeline, Tuner, TunerPhase, TuningWorkflow,
};
use kdtune_geometry::{TriangleMesh, Vec3};
use kdtune_kdtree::{KdTree, Neighbor};
use kdtune_scenes::sample_points;
use kdtune_telemetry::json::JsonValue;
use kdtune_telemetry::{self as telemetry};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Fixed tuner seed for every service session. Determinism across
/// restarts matters more here than seed diversity: a client replaying the
/// same request stream gets the same tuning trajectory.
pub const SESSION_TUNER_SEED: u64 = 2016;

/// Resolves a scale preset name to scene parameters.
pub fn scale_params(scale: &str) -> Result<SceneParams, (ErrorCode, String)> {
    match scale {
        "quick" => Ok(SceneParams::quick()),
        "tiny" => Ok(SceneParams::tiny()),
        "paper" => Ok(SceneParams::paper()),
        other => Err((ErrorCode::BadRequest, format!("unknown scale {other:?}"))),
    }
}

/// What one `tune_step` request did.
#[derive(Clone, Debug)]
pub struct TuneSummary {
    /// Tuner steps actually run (may stop early on convergence).
    pub steps_run: usize,
    /// Total steps this session has run since creation.
    pub total_steps: usize,
    /// Why the budget loop stopped.
    pub reason: StopReason,
    /// Whether the tuner is converged after this call.
    pub converged: bool,
    /// Tuner phase after this call.
    pub phase: TunerPhase,
    /// Best configuration values so far (empty before first measurement).
    pub best_values: Vec<i64>,
    /// Best measured cost in seconds (0 before first measurement).
    pub best_cost: f64,
    /// Whether this call persisted the converged config to the store.
    pub persisted: bool,
}

/// What a session's tuner steps measure — the one part of a session that
/// differs by workload.
pub enum Objective {
    /// Build plus one rendered frame of the scene ([`TunedPipeline::step`]).
    Render(TunedPipeline),
    /// Build (eager) plus one point-query batch.
    Query {
        /// The mesh queries run against: the scene's first frame, since
        /// tuning needs a fixed cost surface (the samplers are
        /// deterministic by seed).
        mesh: Arc<TriangleMesh>,
        /// The batch shape.
        shape: QueryShape,
        /// Gather radius in world units (`radius_pm` × bbox diagonal / 1000).
        radius: f32,
        /// The tuner over the build parameters.
        workflow: TuningWorkflow,
    },
}

impl Objective {
    fn workflow(&self) -> &TuningWorkflow {
        match self {
            Objective::Render(pipeline) => pipeline.workflow(),
            Objective::Query { workflow, .. } => workflow,
        }
    }

    /// Runs up to `steps` measured tuner steps.
    fn run_budget(&mut self, steps: usize) -> (usize, StopReason) {
        match self {
            Objective::Render(pipeline) => pipeline.run_budget(steps),
            Objective::Query {
                mesh,
                shape,
                radius,
                workflow,
            } => {
                let algorithm = workflow.algorithm();
                workflow.run_budget(steps, |wf| {
                    wf.measure(|tuner, params| {
                        // Decorrelate batches across cycles while staying
                        // replayable.
                        let seed = SESSION_TUNER_SEED ^ tuner.iterations() as u64;
                        let t0 = Instant::now();
                        let tree = build_eager(Arc::clone(mesh), algorithm, &params);
                        let points = sample_points(mesh, shape.sampler, shape.batch as usize, seed);
                        run_query_batch(&tree, &points, shape.k as usize, *radius);
                        (t0.elapsed().as_secs_f64(), ())
                    })
                })
            }
        }
    }
}

/// One tuning session. Callers hold it behind `Arc<Mutex<_>>` via the
/// [`SessionManager`].
pub struct Session {
    spec: SessionSpec,
    objective: Objective,
    warm_started: bool,
    persisted: bool,
    /// Render or query requests served (monotonic, informational).
    pub served: u64,
    /// `tune_step` calls that stopped because the tuner converged.
    stops_converged: u64,
    /// `tune_step` calls that exhausted their step budget first.
    stops_frame_budget: u64,
}

impl Session {
    fn create(spec: SessionSpec, store: &ConfigStore) -> Result<Session, (ErrorCode, String)> {
        let params = scale_params(&spec.scale)?;
        let scene = kdtune_scenes::by_name(&spec.scene, &params).ok_or_else(|| {
            (
                ErrorCode::UnknownScene,
                format!(
                    "unknown scene {:?} (expected one of {:?})",
                    spec.scene,
                    kdtune_scenes::SCENE_NAMES
                ),
            )
        })?;
        let warm = store
            .lookup_workload(&spec.scene, spec.algo, spec.workload.name())
            .map(|stored| stored.values);
        let objective = match spec.workload {
            Workload::Render => {
                // Sessions keep a fixed packet width — the spec is part of
                // the session key, so clients pick the width per stream.
                let options = RenderOptions::scalar().with_packet_width(spec.packet_width);
                let mut pipeline = TunedPipeline::new(scene, spec.algo)
                    .resolution(spec.res, spec.res)
                    .render_options(options)
                    .tuner_seed(SESSION_TUNER_SEED);
                if let Some(values) = &warm {
                    pipeline = pipeline.warm_start(values);
                }
                Objective::Render(pipeline)
            }
            Workload::Query(shape) => {
                let mut tuner = Tuner::builder().seed(SESSION_TUNER_SEED);
                if let Some(values) = &warm {
                    tuner = tuner.warm_start(values);
                }
                let mesh = scene.frame(0);
                let radius = shape.radius_pm as f32 / 1000.0 * mesh.bounds().extent().length();
                Objective::Query {
                    mesh,
                    shape,
                    radius,
                    workflow: TuningWorkflow::new(spec.algo, tuner.build(), false),
                }
            }
        };
        telemetry::event_owned(
            "server.session",
            vec![
                ("op", "create".into()),
                ("session", spec.id().into()),
                ("workload", spec.workload.name().into()),
                ("warm_start", warm.is_some().into()),
            ],
        );
        Ok(Session {
            spec,
            objective,
            warm_started: warm.is_some(),
            persisted: false,
            served: 0,
            stops_converged: 0,
            stops_frame_budget: 0,
        })
    }

    /// The spec this session serves.
    pub fn spec(&self) -> &SessionSpec {
        &self.spec
    }

    /// What the session's tuner steps measure, with the scene, mesh or
    /// batch shape that requests against it use.
    pub fn objective(&self) -> &Objective {
        &self.objective
    }

    /// Whether the tuner was seeded from a stored configuration.
    pub fn warm_started(&self) -> bool {
        self.warm_started
    }

    /// Tuner steps taken so far.
    pub fn steps_taken(&self) -> usize {
        self.objective.workflow().tuner().iterations()
    }

    /// Best tuned values so far, if the tuner has measured anything.
    pub fn best_values(&self) -> Option<Vec<i64>> {
        let best = self.objective.workflow().tuner().best();
        best.map(|(config, _)| config.values().to_vec())
    }

    /// Build parameters for render and query requests: the tuner's best
    /// when one exists, the paper's `C_base` otherwise. The flag is `true`
    /// when the config came from the tuner.
    pub fn current_params(&self) -> (BuildParams, bool) {
        match self.best_values() {
            Some(values) => (build_params(self.spec.algo, &values), true),
            None => (base_build_params(), false),
        }
    }

    /// Runs up to `steps` tuner steps, persisting to `store` the first
    /// time the session converges.
    pub fn tune(&mut self, steps: usize, store: &ConfigStore) -> TuneSummary {
        let (steps_run, reason) = self.objective.run_budget(steps);
        match reason {
            StopReason::Converged => self.stops_converged += 1,
            StopReason::FrameBudget => self.stops_frame_budget += 1,
        }
        let tuner = self.objective.workflow().tuner();
        let converged = tuner.converged();
        let phase = tuner.phase();
        let (best_values, best_cost) = match tuner.best() {
            Some((config, cost)) => (config.values().to_vec(), cost),
            None => (Vec::new(), 0.0),
        };
        let mut persisted = false;
        if converged && !self.persisted && !best_values.is_empty() {
            self.persisted = true;
            persisted = store
                .record_workload(
                    &self.spec.scene,
                    self.spec.algo,
                    self.spec.workload.name(),
                    self.spec.res,
                    &best_values,
                    best_cost,
                    self.steps_taken() as u64,
                )
                .unwrap_or(false);
        }
        telemetry::event_owned(
            "server.session",
            vec![
                ("op", "tune".into()),
                ("session", self.spec.id().into()),
                ("workload", self.spec.workload.name().into()),
                ("steps_run", steps_run.into()),
                ("reason", reason.as_str().into()),
                ("phase", phase.as_str().into()),
                ("persisted", persisted.into()),
            ],
        );
        TuneSummary {
            steps_run,
            total_steps: self.steps_taken(),
            reason,
            converged,
            phase,
            best_values,
            best_cost,
            persisted,
        }
    }

    /// Point-in-time convergence summary, as exposed per session in the
    /// `stats` response (`sessions.detail`). Only the served-count key
    /// (`renders` or `queries`) and a query session's batch shape differ
    /// by workload.
    pub fn summary_json(&self) -> JsonValue {
        let tuner = self.objective.workflow().tuner();
        let best = tuner.best();
        let served = match self.objective {
            Objective::Render(_) => "renders",
            Objective::Query { .. } => "queries",
        };
        let mut fields = vec![
            ("id", JsonValue::from(self.spec.id())),
            ("workload", self.spec.workload.name().into()),
            ("phase", tuner.phase().as_str().into()),
            ("converged", tuner.converged().into()),
            ("steps", self.steps_taken().into()),
            ("measurements", tuner.iterations().into()),
            ("retunes", tuner.retunes().into()),
            (served, self.served.into()),
            ("warm_started", self.warm_started.into()),
            ("persisted", self.persisted.into()),
            (
                "stops",
                JsonValue::object([
                    ("converged", JsonValue::from(self.stops_converged)),
                    ("frame_budget", self.stops_frame_budget.into()),
                ]),
            ),
            ("best_config", config_json(best.map(|(c, _)| c.values()))),
            (
                "best_cost_ms",
                best.map_or(JsonValue::Null, |(_, cost)| (cost * 1e3).into()),
            ),
        ];
        if let Objective::Query { shape, .. } = &self.objective {
            fields.extend([
                ("sampler", shape.sampler.name().into()),
                ("batch", shape.batch.into()),
                ("k", shape.k.into()),
                ("radius_pm", shape.radius_pm.into()),
            ]);
        }
        JsonValue::object(fields)
    }
}

/// Aggregate results of one k-NN + radius-gather batch.
#[derive(Clone, Copy, Debug, Default)]
pub struct QueryBatchStats {
    /// Points queried.
    pub points: usize,
    /// Total neighbors returned across every k-NN query.
    pub knn_results: u64,
    /// Total prims gathered across every radius query.
    pub radius_results: u64,
    /// Mean squared distance to each query's farthest k-NN neighbor —
    /// a cheap content checksum clients can compare across configs.
    pub mean_knn_far_d2: f64,
}

/// Runs one batch of point queries against `tree`, reusing result
/// buffers so the measurement sees the kernels' zero-allocation path.
pub fn run_query_batch(tree: &KdTree, points: &[Vec3], k: usize, radius: f32) -> QueryBatchStats {
    let mut knn_buf: Vec<Neighbor> = Vec::with_capacity(k);
    let mut radius_buf: Vec<Neighbor> = Vec::new();
    let mut stats = QueryBatchStats {
        points: points.len(),
        ..QueryBatchStats::default()
    };
    let mut far_sum = 0.0f64;
    for &p in points {
        tree.knn_into(p, k, &mut knn_buf);
        stats.knn_results += knn_buf.len() as u64;
        if let Some(last) = knn_buf.last() {
            far_sum += last.d2 as f64;
        }
        tree.radius_gather_into(p, radius, &mut radius_buf);
        stats.radius_results += radius_buf.len() as u64;
    }
    if !points.is_empty() {
        stats.mean_knn_far_d2 = far_sum / points.len() as f64;
    }
    stats
}

/// Builds the eager form of a tree for query work: lazy builds are
/// force-expanded, since point queries (unlike rays) visit leaves in an
/// unbounded pattern and the expansion cost is part of what `R` tunes.
pub fn build_eager(mesh: Arc<TriangleMesh>, algorithm: Algorithm, params: &BuildParams) -> KdTree {
    match build(mesh, algorithm, params) {
        BuiltTree::Eager(tree) => tree,
        BuiltTree::Lazy(lazy) => lazy.to_eager(),
    }
}

/// Owns every live session and the store they persist to.
pub struct SessionManager {
    store: Arc<ConfigStore>,
    sessions: Mutex<HashMap<String, Arc<Mutex<Session>>>>,
}

impl SessionManager {
    /// Creates a manager over `store`.
    pub fn new(store: Arc<ConfigStore>) -> SessionManager {
        SessionManager {
            store,
            sessions: Mutex::new(HashMap::new()),
        }
    }

    /// The backing config store.
    pub fn store(&self) -> &ConfigStore {
        &self.store
    }

    /// Returns the session for `spec` (either workload), creating (and
    /// possibly warm-starting) it on first use. Scene construction runs
    /// outside the map lock; if two threads race, the first insert wins.
    pub fn get_or_create(
        &self,
        spec: &SessionSpec,
    ) -> Result<Arc<Mutex<Session>>, (ErrorCode, String)> {
        let id = spec.id();
        if let Some(session) = self.sessions.lock().get(&id) {
            return Ok(Arc::clone(session));
        }
        let session = Session::create(spec.clone(), &self.store)?;
        let mut sessions = self.sessions.lock();
        let entry = sessions
            .entry(id)
            .or_insert_with(|| Arc::new(Mutex::new(session)));
        Ok(Arc::clone(entry))
    }

    /// Number of live sessions across both workloads.
    pub fn count(&self) -> usize {
        self.sessions.lock().len()
    }

    /// Session ids across both workloads, sorted (for stats reporting).
    pub fn ids(&self) -> Vec<String> {
        let mut ids: Vec<String> = self.sessions.lock().keys().cloned().collect();
        ids.sort();
        ids
    }

    /// Per-session convergence summaries, sorted by id. Sessions busy in
    /// a worker (lock held) are reported as `{"id":…,"busy":true}` rather
    /// than blocking the stats path behind a tune step.
    pub fn summaries(&self) -> Vec<JsonValue> {
        let mut entries: Vec<(String, Arc<Mutex<Session>>)> = {
            let sessions = self.sessions.lock();
            let entries = sessions.iter().map(|(id, s)| (id.clone(), Arc::clone(s)));
            entries.collect()
        };
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        let summary = |(id, session): (String, Arc<Mutex<Session>>)| match session.try_lock() {
            Some(session) => session.summary_json(),
            None => JsonValue::object([("id", JsonValue::from(id)), ("busy", true.into())]),
        };
        entries.into_iter().map(summary).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> ConfigStore {
        let path =
            std::env::temp_dir().join(format!("kdtune-session-{tag}-{}.jsonl", std::process::id()));
        std::fs::remove_file(&path).ok();
        ConfigStore::open(path).unwrap()
    }

    fn spec(scene: &str) -> SessionSpec {
        SessionSpec {
            scene: scene.into(),
            scale: "tiny".into(),
            algo: Algorithm::InPlace,
            res: 16,
            packet_width: 1,
            workload: Workload::Render,
        }
    }

    fn query_spec(scene: &str) -> SessionSpec {
        SessionSpec {
            workload: Workload::Query(QueryShape {
                batch: 64,
                ..QueryShape::default()
            }),
            ..spec(scene)
        }
    }

    /// Tunes in steps of 8 until the session converges; returns how many
    /// of those calls persisted.
    fn tune_to_convergence(session: &mut Session, store: &ConfigStore) -> u32 {
        let mut persists = 0;
        loop {
            let summary = session.tune(8, store);
            persists += summary.persisted as u32;
            if summary.converged {
                return persists;
            }
            assert!(session.steps_taken() < 400, "tuner never converged");
        }
    }

    #[test]
    fn unknown_scene_is_a_typed_error() {
        let manager = SessionManager::new(Arc::new(temp_store("unknown")));
        let Err((code, msg)) = manager.get_or_create(&spec("klein_bottle")) else {
            panic!("unknown scene must not create a session");
        };
        assert_eq!(code, ErrorCode::UnknownScene);
        assert!(msg.contains("klein_bottle"), "{msg}");
        assert_eq!(manager.count(), 0);
    }

    #[test]
    fn sessions_are_shared_by_spec_and_isolated_across_specs() {
        let manager = SessionManager::new(Arc::new(temp_store("shared")));
        let a = manager.get_or_create(&spec("wood_doll")).unwrap();
        let b = manager.get_or_create(&spec("wood_doll")).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let c = manager
            .get_or_create(&SessionSpec {
                res: 24,
                ..spec("wood_doll")
            })
            .unwrap();
        assert!(
            !Arc::ptr_eq(&a, &c),
            "different res means a different session"
        );
        assert_eq!(manager.count(), 2);
    }

    #[test]
    fn untuned_session_renders_with_the_paper_baseline() {
        let manager = SessionManager::new(Arc::new(temp_store("baseline")));
        let session = manager.get_or_create(&spec("wood_doll")).unwrap();
        let session = session.lock();
        let (params, tuned) = session.current_params();
        assert!(!tuned);
        assert_eq!(
            (params.s, params.r),
            (base_build_params().s, base_build_params().r)
        );
        assert!(session.best_values().is_none());
    }

    #[test]
    fn tune_persists_once_per_workload_and_warm_starts_the_next_manager() {
        for (spec, other) in [
            (spec("wood_doll"), "query"),
            (query_spec("wood_doll"), "render"),
        ] {
            let workload = spec.workload.name();
            let store = Arc::new(temp_store(&format!("warm-{workload}")));
            let path = store.path().to_path_buf();
            let cold_steps;
            {
                let manager = SessionManager::new(Arc::clone(&store));
                let session = manager.get_or_create(&spec).unwrap();
                let mut session = session.lock();
                assert!(!session.warm_started());
                assert_eq!(tune_to_convergence(&mut session, manager.store()), 1);
                cold_steps = session.steps_taken();
                // Further tuning after convergence never persists again.
                assert!(!session.tune(1, manager.store()).persisted);
            }

            let store = Arc::new(ConfigStore::open(&path).unwrap());
            assert_eq!(store.len(), 1);
            assert!(
                store
                    .lookup_workload("wood_doll", Algorithm::InPlace, workload)
                    .is_some(),
                "converged config must persist under the {workload} workload"
            );
            assert!(
                store
                    .lookup_workload("wood_doll", Algorithm::InPlace, other)
                    .is_none(),
                "{workload} tuning must not pollute {other} warm starts"
            );
            let manager = SessionManager::new(store);
            let session = manager.get_or_create(&spec).unwrap();
            let mut session = session.lock();
            assert!(
                session.warm_started(),
                "stored config must warm-start the new session"
            );
            tune_to_convergence(&mut session, manager.store());
            let warm_steps = session.steps_taken();
            // Render frames converge strictly faster; a query cycle's cost
            // is noisier (each samples a new batch), so it must only never
            // be slower.
            let faster = match spec.workload {
                Workload::Render => warm_steps < cold_steps,
                Workload::Query(_) => warm_steps <= cold_steps,
            };
            assert!(
                faster,
                "{workload}: warm {warm_steps} vs cold {cold_steps} steps"
            );
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn converged_query_session_runs_one_monitoring_step() {
        let manager = SessionManager::new(Arc::new(temp_store("qmonitor")));
        let session = manager.get_or_create(&query_spec("wood_doll")).unwrap();
        let mut session = session.lock();
        tune_to_convergence(&mut session, manager.store());
        let before = session.steps_taken();
        // Like a render session, a converged one keeps measuring its best
        // configuration, which is what drift detection re-tunes on.
        let summary = session.tune(5, manager.store());
        assert_eq!(summary.steps_run, 1);
        assert_eq!(summary.reason, StopReason::Converged);
        assert_eq!(summary.total_steps, before + 1);
        std::fs::remove_file(manager.store().path()).ok();
    }

    #[test]
    fn render_and_query_sessions_are_isolated() {
        let manager = SessionManager::new(Arc::new(temp_store("isolated")));
        let _render = manager.get_or_create(&spec("wood_doll")).unwrap();
        let q1 = manager.get_or_create(&query_spec("wood_doll")).unwrap();
        let q2 = manager.get_or_create(&query_spec("wood_doll")).unwrap();
        assert!(Arc::ptr_eq(&q1, &q2), "equal query specs share a session");
        assert_eq!(manager.count(), 2);
        let ids = manager.ids();
        let query_ids = ids.iter().filter(|id| id.contains("/query/")).count();
        assert_eq!(query_ids, 1, "{ids:?}");
        let summaries = manager.summaries();
        assert_eq!(summaries.len(), 2);
        let workloads: Vec<&str> = summaries
            .iter()
            .filter_map(|s| s.get("workload").and_then(JsonValue::as_str))
            .collect();
        assert!(workloads.contains(&"render") && workloads.contains(&"query"));
    }

    #[test]
    fn query_session_runs_batches_and_reports_results() {
        let manager = SessionManager::new(Arc::new(temp_store("qbatch")));
        let session = manager.get_or_create(&query_spec("wood_doll")).unwrap();
        let session = session.lock();
        let (params, tuned) = session.current_params();
        assert!(!tuned, "fresh query session starts at C_base");
        let Objective::Query {
            mesh,
            shape,
            radius,
            ..
        } = session.objective()
        else {
            panic!("a query spec makes a query session");
        };
        let tree = build_eager(Arc::clone(mesh), Algorithm::InPlace, &params);
        let batch = |seed| {
            let points = sample_points(mesh, shape.sampler, shape.batch as usize, seed);
            run_query_batch(&tree, &points, shape.k as usize, *radius)
        };
        let stats = batch(5);
        assert_eq!(stats.points, 64);
        assert_eq!(stats.knn_results, 64 * 8, "k=8 neighbors per point");
        assert!(stats.mean_knn_far_d2 > 0.0);
        // Same seed, same batch: deterministic replay.
        let again = batch(5);
        assert_eq!(stats.knn_results, again.knn_results);
        assert_eq!(stats.radius_results, again.radius_results);
    }
}
