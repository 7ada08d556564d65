//! Wire protocol for `renderd`: one JSON object per line, both ways.
//!
//! Requests:
//!
//! ```json
//! {"id":1,"cmd":"render","scene":"bunny","scale":"tiny","algo":"in_place","res":64,"frame":0}
//! {"id":2,"cmd":"tune_step","scene":"bunny","scale":"tiny","steps":2}
//! {"id":3,"cmd":"query","scene":"bunny","sampler":"photon_gather","batch":256,"k":8,"seed":0}
//! {"id":4,"cmd":"stats"}
//! {"id":5,"cmd":"shutdown"}
//! ```
//!
//! Responses are `{"id":N,"ok":true,"result":{...}}` on success and
//! `{"id":N,"ok":false,"error":"<code>","message":"..."}` on failure.
//! The error code is machine-readable ([`ErrorCode`]); `busy` in
//! particular is the backpressure signal clients are expected to retry
//! on, not a fault.

use kdtune::Algorithm;
use kdtune_scenes::PointSampler;
use kdtune_telemetry::json::JsonValue;

/// Upper bound on a single request line; longer lines are rejected
/// before parsing so a misbehaving client cannot balloon reader memory.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Scene scales the service accepts (mirrors `SceneParams` presets).
pub const SCALES: [&str; 3] = ["quick", "tiny", "paper"];

/// The shape of a point-query batch: which point distribution the
/// session queries with and the per-query parameters. Part of the
/// session identity — different shapes stress the tree differently and
/// therefore tune separately.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct QueryShape {
    /// Point distribution queried (photon-gather vs particle cloud).
    pub sampler: PointSampler,
    /// Points per batch (wire `batch`, clamped to 1..=65536).
    pub batch: u32,
    /// Neighbors per k-NN query (wire `k`, clamped to 1..=128).
    pub k: u32,
    /// Gather radius in per-mille of the scene's bounding-box diagonal
    /// (wire `radius_pm`, clamped to 0..=1000). Stored as an integer so
    /// the spec stays `Eq + Hash`.
    pub radius_pm: u32,
}

impl Default for QueryShape {
    fn default() -> QueryShape {
        QueryShape {
            sampler: PointSampler::PhotonGather,
            batch: 256,
            k: 8,
            radius_pm: 50,
        }
    }
}

/// Which workload a session serves — and therefore which cost function
/// its tuner minimizes. Render sessions tune build parameters on frame
/// time; query sessions tune the same parameters on point-query batch
/// latency. The best tree for rays is not the best tree for neighbor
/// gathers, so the two must never share tuner state, cached trees, or
/// warm-start store entries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Ray-traced frames (`render` / `tune_step` requests).
    Render,
    /// k-NN + radius-gather batches (`query` requests).
    Query(QueryShape),
}

impl Workload {
    /// Wire/store spelling of the workload axis.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Render => "render",
            Workload::Query(_) => "query",
        }
    }
}

/// A configuration's values as a JSON array (`null` when there is none)
/// — the one encoding of `config` / `best_config` in replies and `stats`.
pub(crate) fn config_json(values: Option<&[i64]>) -> JsonValue {
    values.map_or(JsonValue::Null, |values| {
        values
            .iter()
            .copied()
            .map(JsonValue::from)
            .collect::<Vec<_>>()
            .into()
    })
}

/// Everything that identifies a tuning session. Two requests with equal
/// specs share one pipeline, one tuner, and one telemetry stream.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SessionSpec {
    /// Scene name (`kdtune_scenes::SCENE_NAMES`).
    pub scene: String,
    /// Scene scale preset: `quick`, `tiny`, or `paper`.
    pub scale: String,
    /// Tree construction algorithm.
    pub algo: Algorithm,
    /// Square render resolution in pixels.
    pub res: u32,
    /// Ray-packet width frames render with: `1` is scalar, `4`/`8`/`16`
    /// trace coherent pixel tiles. Wire field `packet_width` (integer);
    /// the legacy boolean `packets` is still accepted as an alias for
    /// width 4.
    pub packet_width: u32,
    /// Which workload the session serves (render frames or point-query
    /// batches). Sessions with different workloads never share state.
    pub workload: Workload,
}

impl SessionSpec {
    /// Packet widths the protocol accepts (`0` is normalized to `1`).
    pub const PACKET_WIDTHS: [u32; 4] = [1, 4, 8, 16];

    /// Stable string key for maps and telemetry.
    ///
    /// Render ids keep their historical shape. Query ids fold in the
    /// batch shape instead of res/packet width (which query work never
    /// uses), so distinct query workloads spread independently across a
    /// router's hash ring.
    pub fn id(&self) -> String {
        match self.workload {
            Workload::Render => format!(
                "{}@{}/{}/{}{}",
                self.scene,
                self.scale,
                self.algo.name(),
                self.res,
                if self.packet_width > 1 {
                    format!("/w{}", self.packet_width)
                } else {
                    String::new()
                }
            ),
            Workload::Query(shape) => format!(
                "{}@{}/{}/query/{}/b{}k{}r{}",
                self.scene,
                self.scale,
                self.algo.name(),
                shape.sampler.name(),
                shape.batch,
                shape.k,
                shape.radius_pm,
            ),
        }
    }
}

/// A parsed request body.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Render one frame with the session's current best build config.
    Render {
        /// Session the frame belongs to.
        spec: SessionSpec,
        /// Frame index (wrapped modulo the scene's frame count).
        frame: usize,
    },
    /// Advance the session's tuner by up to `steps` frames.
    TuneStep {
        /// Session whose tuner advances.
        spec: SessionSpec,
        /// Maximum tuner steps to run (clamped to 1..=256).
        steps: usize,
    },
    /// Run one k-NN + radius-gather batch with the query session's
    /// current best build config. Doubles as the query tuner's
    /// measurement when the session is still converging.
    Query {
        /// Session the batch belongs to (`spec.workload` is
        /// `Workload::Query`).
        spec: SessionSpec,
        /// Decorrelates the point batch between requests, the way
        /// `frame` varies render requests.
        seed: u64,
    },
    /// Snapshot server counters, cache stats, live metrics windows, and
    /// per-session tuner state.
    Stats,
    /// Exposition of the live metrics registry.
    Metrics {
        /// `false` (the default, wire `"format":"text"` or absent):
        /// Prometheus text. `true` (wire `"format":"json"`): the
        /// bucket-level mergeable snapshot a router can sum across
        /// shards.
        mergeable: bool,
    },
    /// Begin graceful shutdown: drain queued work, then exit.
    Shutdown,
}

/// A request line: client-chosen id plus the command.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Echoed verbatim in the response so clients can pipeline.
    pub id: i64,
    /// Optional client trace tag (`"trace"` field), echoed verbatim in
    /// the response envelope so clients can verify the round trip.
    pub trace: Option<String>,
    /// The command body.
    pub cmd: Command,
}

/// Machine-readable error codes carried in the `error` response field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The work queue is full; retry later.
    Busy,
    /// The request line was not valid JSON or had bad fields.
    BadRequest,
    /// The `scene` field named no known scene.
    UnknownScene,
    /// The server is draining and accepts no new work.
    ShuttingDown,
    /// A handler failed or panicked; the request may be retried.
    Internal,
    /// The shard that owns this request's session key is down and no
    /// survivor could take it (router-only). Retry later.
    Unavailable,
}

impl ErrorCode {
    /// Wire spelling of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Busy => "busy",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownScene => "unknown_scene",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Internal => "internal",
            ErrorCode::Unavailable => "unavailable",
        }
    }
}

/// Parses one request line. On failure the error carries whatever `id`
/// could be recovered (0 if none) so the response still correlates.
pub fn parse_request(line: &str) -> Result<Request, (i64, ErrorCode, String)> {
    if line.len() > MAX_LINE_BYTES {
        return Err((
            0,
            ErrorCode::BadRequest,
            format!("request line exceeds {MAX_LINE_BYTES} bytes"),
        ));
    }
    let value = kdtune_telemetry::json::parse(line)
        .map_err(|e| (0, ErrorCode::BadRequest, format!("invalid JSON: {e:?}")))?;
    let id = value.get("id").and_then(JsonValue::as_i64).unwrap_or(0);
    let fail = |msg: String| (id, ErrorCode::BadRequest, msg);

    let cmd = value
        .get("cmd")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| fail("missing string field \"cmd\"".into()))?;
    let cmd = match cmd {
        "render" => Command::Render {
            spec: parse_spec(&value).map_err(&fail)?,
            frame: non_negative(&value, "frame", 0).map_err(&fail)? as usize,
        },
        "tune_step" => {
            let mut spec = parse_spec(&value).map_err(&fail)?;
            // `workload:"query"` steps a query session's tuner; the
            // default tunes render frame time as always.
            match value.get("workload").and_then(JsonValue::as_str) {
                None | Some("render") => {}
                Some("query") => {
                    spec.workload = Workload::Query(parse_query_shape(&value).map_err(&fail)?);
                }
                Some(other) => {
                    return Err(fail(format!(
                        "unknown workload {other:?} (expected \"render\" or \"query\")"
                    )))
                }
            }
            Command::TuneStep {
                spec,
                steps: (non_negative(&value, "steps", 1).map_err(&fail)? as usize).clamp(1, 256),
            }
        }
        "query" => {
            let mut spec = parse_spec(&value).map_err(&fail)?;
            spec.workload = Workload::Query(parse_query_shape(&value).map_err(&fail)?);
            Command::Query {
                spec,
                seed: non_negative(&value, "seed", 0).map_err(&fail)? as u64,
            }
        }
        "stats" => Command::Stats,
        "metrics" => {
            let mergeable = match value.get("format").and_then(JsonValue::as_str) {
                None | Some("text") => false,
                Some("json") => true,
                Some(other) => {
                    return Err(fail(format!(
                        "unknown metrics format {other:?} (expected \"text\" or \"json\")"
                    )))
                }
            };
            Command::Metrics { mergeable }
        }
        "shutdown" => Command::Shutdown,
        other => return Err(fail(format!("unknown cmd {other:?}"))),
    };
    let trace = value
        .get("trace")
        .and_then(JsonValue::as_str)
        .map(String::from);
    Ok(Request { id, trace, cmd })
}

fn parse_spec(value: &JsonValue) -> Result<SessionSpec, String> {
    let scene = value
        .get("scene")
        .and_then(JsonValue::as_str)
        .ok_or("missing string field \"scene\"")?
        .to_string();
    let scale = value
        .get("scale")
        .and_then(JsonValue::as_str)
        .unwrap_or("quick")
        .to_string();
    if !SCALES.contains(&scale.as_str()) {
        return Err(format!(
            "unknown scale {scale:?} (expected one of {SCALES:?})"
        ));
    }
    let algo_name = value
        .get("algo")
        .and_then(JsonValue::as_str)
        .unwrap_or("in_place");
    let algo =
        Algorithm::from_name(algo_name).ok_or_else(|| format!("unknown algo {algo_name:?}"))?;
    let res = non_negative(value, "res", 128)?.clamp(8, 1024) as u32;
    // Legacy boolean `packets` selects the original 4-wide path; the
    // explicit `packet_width` field wins when both are present.
    let legacy = value
        .get("packets")
        .and_then(JsonValue::as_bool)
        .unwrap_or(false);
    let packet_width = match value.get("packet_width") {
        None => {
            if legacy {
                4
            } else {
                1
            }
        }
        Some(v) => {
            let w = v
                .as_i64()
                .ok_or("field \"packet_width\" must be an integer")?;
            let w = if w == 0 { 1 } else { w };
            if w < 0 || !SessionSpec::PACKET_WIDTHS.contains(&(w as u32)) {
                return Err(format!(
                    "field \"packet_width\" must be one of 0/1/4/8/16, got {w}"
                ));
            }
            w as u32
        }
    };
    Ok(SessionSpec {
        scene,
        scale,
        algo,
        res,
        packet_width,
        workload: Workload::Render,
    })
}

fn parse_query_shape(value: &JsonValue) -> Result<QueryShape, String> {
    let defaults = QueryShape::default();
    let sampler = match value.get("sampler").and_then(JsonValue::as_str) {
        None => defaults.sampler,
        Some(name) => PointSampler::from_name(name).ok_or_else(|| {
            let names: Vec<&str> = PointSampler::ALL.iter().map(|s| s.name()).collect();
            format!("unknown sampler {name:?} (expected one of {names:?})")
        })?,
    };
    let batch = non_negative(value, "batch", defaults.batch as i64)?.clamp(1, 65536) as u32;
    let k = non_negative(value, "k", defaults.k as i64)?.clamp(1, 128) as u32;
    let radius_pm =
        non_negative(value, "radius_pm", defaults.radius_pm as i64)?.clamp(0, 1000) as u32;
    Ok(QueryShape {
        sampler,
        batch,
        k,
        radius_pm,
    })
}

fn non_negative(value: &JsonValue, field: &str, default: i64) -> Result<i64, String> {
    match value.get(field) {
        None => Ok(default),
        Some(v) => match v.as_i64() {
            Some(n) if n >= 0 => Ok(n),
            _ => Err(format!("field {field:?} must be a non-negative integer")),
        },
    }
}

/// Serializes a success response line (no trailing newline).
pub fn ok_line(id: i64, result: JsonValue) -> String {
    ok_line_traced(id, None, result)
}

/// Serializes a success response line, echoing the client's trace tag in
/// the envelope when one was supplied.
pub fn ok_line_traced(id: i64, trace: Option<&str>, result: JsonValue) -> String {
    let mut fields = vec![("id", JsonValue::from(id)), ("ok", true.into())];
    if let Some(tag) = trace {
        fields.push(("trace", tag.into()));
    }
    fields.push(("result", result));
    JsonValue::object(fields).to_string()
}

/// Serializes an error response line (no trailing newline).
pub fn err_line(id: i64, code: ErrorCode, message: &str) -> String {
    err_line_traced(id, None, code, message)
}

/// Serializes an error response line with the client's trace tag echoed.
pub fn err_line_traced(id: i64, trace: Option<&str>, code: ErrorCode, message: &str) -> String {
    let mut fields = vec![("id", JsonValue::from(id)), ("ok", false.into())];
    if let Some(tag) = trace {
        fields.push(("trace", tag.into()));
    }
    fields.push(("error", code.as_str().into()));
    fields.push(("message", message.into()));
    JsonValue::object(fields).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_render_with_defaults() {
        let req = parse_request(r#"{"id":7,"cmd":"render","scene":"bunny"}"#).unwrap();
        assert_eq!(req.id, 7);
        match req.cmd {
            Command::Render { spec, frame } => {
                assert_eq!(spec.scene, "bunny");
                assert_eq!(spec.scale, "quick");
                assert_eq!(spec.algo, Algorithm::InPlace);
                assert_eq!(spec.res, 128);
                assert_eq!(spec.packet_width, 1);
                assert_eq!(frame, 0);
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn parses_tune_step_and_clamps() {
        let req = parse_request(
            r#"{"id":1,"cmd":"tune_step","scene":"sponza","scale":"tiny","algo":"lazy","res":4096,"steps":10000,"packets":true}"#,
        )
        .unwrap();
        match req.cmd {
            Command::TuneStep { spec, steps } => {
                assert_eq!(spec.algo, Algorithm::Lazy);
                assert_eq!(spec.res, 1024, "res clamps to 1024");
                assert_eq!(spec.packet_width, 4, "legacy packets flag means w=4");
                assert_eq!(steps, 256, "steps clamp to 256");
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn packet_width_field_parses_and_validates() {
        for (json, want) in [
            (r#"{"cmd":"render","scene":"bunny","packet_width":0}"#, 1),
            (r#"{"cmd":"render","scene":"bunny","packet_width":1}"#, 1),
            (r#"{"cmd":"render","scene":"bunny","packet_width":8}"#, 8),
            (r#"{"cmd":"render","scene":"bunny","packet_width":16}"#, 16),
            // Explicit width wins over the legacy boolean.
            (
                r#"{"cmd":"render","scene":"bunny","packets":true,"packet_width":8}"#,
                8,
            ),
        ] {
            match parse_request(json).unwrap().cmd {
                Command::Render { spec, .. } => assert_eq!(spec.packet_width, want, "{json}"),
                other => panic!("wrong command: {other:?}"),
            }
        }
        for bad in [
            r#"{"cmd":"render","scene":"bunny","packet_width":2}"#,
            r#"{"cmd":"render","scene":"bunny","packet_width":32}"#,
            r#"{"cmd":"render","scene":"bunny","packet_width":-4}"#,
            r#"{"cmd":"render","scene":"bunny","packet_width":"wide"}"#,
        ] {
            let (_, code, msg) = parse_request(bad).unwrap_err();
            assert_eq!(code, ErrorCode::BadRequest, "{bad}");
            assert!(msg.contains("packet_width"), "{msg}");
        }
    }

    #[test]
    fn control_commands_need_no_spec() {
        assert_eq!(
            parse_request(r#"{"id":2,"cmd":"stats"}"#).unwrap().cmd,
            Command::Stats
        );
        assert_eq!(
            parse_request(r#"{"id":3,"cmd":"metrics"}"#).unwrap().cmd,
            Command::Metrics { mergeable: false }
        );
        assert_eq!(
            parse_request(r#"{"cmd":"shutdown"}"#).unwrap(),
            Request {
                id: 0,
                trace: None,
                cmd: Command::Shutdown
            }
        );
    }

    #[test]
    fn metrics_format_field_selects_mergeable_snapshot() {
        assert_eq!(
            parse_request(r#"{"cmd":"metrics","format":"json"}"#)
                .unwrap()
                .cmd,
            Command::Metrics { mergeable: true }
        );
        assert_eq!(
            parse_request(r#"{"cmd":"metrics","format":"text"}"#)
                .unwrap()
                .cmd,
            Command::Metrics { mergeable: false }
        );
        let (_, code, msg) = parse_request(r#"{"cmd":"metrics","format":"xml"}"#).unwrap_err();
        assert_eq!(code, ErrorCode::BadRequest);
        assert!(msg.contains("format"), "{msg}");
    }

    #[test]
    fn unavailable_error_code_spells_out() {
        assert_eq!(ErrorCode::Unavailable.as_str(), "unavailable");
        let err = err_line(3, ErrorCode::Unavailable, "no shard owns this key");
        let v = kdtune_telemetry::json::parse(&err).unwrap();
        assert_eq!(
            v.get("error").and_then(JsonValue::as_str),
            Some("unavailable")
        );
    }

    #[test]
    fn trace_tags_parse_and_echo() {
        let req = parse_request(r#"{"id":8,"cmd":"stats","trace":"c2-17"}"#).unwrap();
        assert_eq!(req.trace.as_deref(), Some("c2-17"));

        let ok = ok_line_traced(8, Some("c2-17"), JsonValue::object::<&str>([]));
        let v = kdtune_telemetry::json::parse(&ok).unwrap();
        assert_eq!(v.get("trace").and_then(JsonValue::as_str), Some("c2-17"));
        // Untraced requests keep the old envelope shape.
        assert!(
            kdtune_telemetry::json::parse(&ok_line(8, JsonValue::object::<&str>([])))
                .unwrap()
                .get("trace")
                .is_none()
        );

        let err = err_line_traced(9, Some("c0-1"), ErrorCode::Busy, "queue full");
        let v = kdtune_telemetry::json::parse(&err).unwrap();
        assert_eq!(v.get("trace").and_then(JsonValue::as_str), Some("c0-1"));
        assert_eq!(v.get("error").and_then(JsonValue::as_str), Some("busy"));
    }

    #[test]
    fn errors_carry_the_request_id_when_recoverable() {
        let (id, code, _) = parse_request(r#"{"id":42,"cmd":"render"}"#).unwrap_err();
        assert_eq!((id, code), (42, ErrorCode::BadRequest));
        let (id, code, msg) =
            parse_request(r#"{"id":9,"cmd":"render","scene":"bunny","algo":"octree"}"#)
                .unwrap_err();
        assert_eq!((id, code), (9, ErrorCode::BadRequest));
        assert!(msg.contains("octree"), "{msg}");
        let (id, code, _) = parse_request("not json").unwrap_err();
        assert_eq!((id, code), (0, ErrorCode::BadRequest));
    }

    #[test]
    fn bad_scale_and_negative_fields_are_rejected() {
        assert!(parse_request(r#"{"cmd":"render","scene":"bunny","scale":"huge"}"#).is_err());
        assert!(parse_request(r#"{"cmd":"render","scene":"bunny","frame":-1}"#).is_err());
        assert!(parse_request(r#"{"cmd":"tune_step","scene":"bunny","steps":-3}"#).is_err());
    }

    #[test]
    fn response_lines_round_trip_through_the_parser() {
        let ok = ok_line(5, JsonValue::object([("n", JsonValue::from(3))]));
        let v = kdtune_telemetry::json::parse(&ok).unwrap();
        assert_eq!(v.get("id").and_then(JsonValue::as_i64), Some(5));
        assert_eq!(v.get("ok").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(
            v.get("result")
                .and_then(|r| r.get("n"))
                .and_then(JsonValue::as_i64),
            Some(3)
        );

        let err = err_line(6, ErrorCode::Busy, "queue full (depth 64)");
        let v = kdtune_telemetry::json::parse(&err).unwrap();
        assert_eq!(v.get("ok").and_then(JsonValue::as_bool), Some(false));
        assert_eq!(v.get("error").and_then(JsonValue::as_str), Some("busy"));
    }

    #[test]
    fn session_spec_id_distinguishes_every_field() {
        let base = SessionSpec {
            scene: "bunny".into(),
            scale: "tiny".into(),
            algo: Algorithm::InPlace,
            res: 64,
            packet_width: 1,
            workload: Workload::Render,
        };
        let mut ids = std::collections::HashSet::new();
        ids.insert(base.id());
        ids.insert(
            SessionSpec {
                scene: "sponza".into(),
                ..base.clone()
            }
            .id(),
        );
        ids.insert(
            SessionSpec {
                scale: "paper".into(),
                ..base.clone()
            }
            .id(),
        );
        ids.insert(
            SessionSpec {
                algo: Algorithm::Lazy,
                ..base.clone()
            }
            .id(),
        );
        ids.insert(
            SessionSpec {
                res: 128,
                ..base.clone()
            }
            .id(),
        );
        ids.insert(
            SessionSpec {
                packet_width: 4,
                ..base.clone()
            }
            .id(),
        );
        ids.insert(
            SessionSpec {
                packet_width: 8,
                ..base
            }
            .id(),
        );
        assert_eq!(ids.len(), 7);
    }

    #[test]
    fn parses_query_with_defaults_and_overrides() {
        let req = parse_request(r#"{"id":4,"cmd":"query","scene":"bunny"}"#).unwrap();
        match req.cmd {
            Command::Query { spec, seed } => {
                assert_eq!(spec.scene, "bunny");
                assert_eq!(seed, 0);
                assert_eq!(spec.workload, Workload::Query(QueryShape::default()));
            }
            other => panic!("wrong command: {other:?}"),
        }

        let req = parse_request(
            r#"{"id":5,"cmd":"query","scene":"sponza","scale":"tiny","algo":"nested","sampler":"particle_neighborhood","batch":100000,"k":500,"radius_pm":2000,"seed":9}"#,
        )
        .unwrap();
        match req.cmd {
            Command::Query { spec, seed } => {
                assert_eq!(spec.algo, Algorithm::Nested);
                assert_eq!(seed, 9);
                let Workload::Query(shape) = spec.workload else {
                    panic!("query request must carry a query workload");
                };
                assert_eq!(shape.sampler, PointSampler::ParticleNeighborhood);
                assert_eq!(shape.batch, 65536, "batch clamps");
                assert_eq!(shape.k, 128, "k clamps");
                assert_eq!(shape.radius_pm, 1000, "radius_pm clamps");
            }
            other => panic!("wrong command: {other:?}"),
        }

        let (_, code, msg) =
            parse_request(r#"{"cmd":"query","scene":"bunny","sampler":"voxel"}"#).unwrap_err();
        assert_eq!(code, ErrorCode::BadRequest);
        assert!(msg.contains("sampler"), "{msg}");
    }

    #[test]
    fn query_session_ids_fold_in_the_batch_shape() {
        let shape = QueryShape::default();
        let base = SessionSpec {
            scene: "bunny".into(),
            scale: "tiny".into(),
            algo: Algorithm::InPlace,
            res: 64,
            packet_width: 1,
            workload: Workload::Query(shape),
        };
        assert_eq!(
            base.id(),
            "bunny@tiny/in_place/query/photon_gather/b256k8r50"
        );
        let mut ids = std::collections::HashSet::new();
        ids.insert(base.id());
        ids.insert(
            SessionSpec {
                workload: Workload::Render,
                ..base.clone()
            }
            .id(),
        );
        for workload in [
            Workload::Query(QueryShape {
                sampler: PointSampler::ParticleNeighborhood,
                ..shape
            }),
            Workload::Query(QueryShape {
                batch: 512,
                ..shape
            }),
            Workload::Query(QueryShape { k: 16, ..shape }),
            Workload::Query(QueryShape {
                radius_pm: 100,
                ..shape
            }),
        ] {
            ids.insert(
                SessionSpec {
                    workload,
                    ..base.clone()
                }
                .id(),
            );
        }
        // Res / packet width do not affect query identity.
        ids.insert(
            SessionSpec {
                res: 128,
                packet_width: 8,
                ..base.clone()
            }
            .id(),
        );
        assert_eq!(ids.len(), 6, "{ids:?}");
    }

    #[test]
    fn oversized_lines_are_rejected_before_parsing() {
        let line = format!(
            r#"{{"cmd":"stats","pad":"{}"}}"#,
            "x".repeat(MAX_LINE_BYTES)
        );
        let (_, code, _) = parse_request(&line).unwrap_err();
        assert_eq!(code, ErrorCode::BadRequest);
    }
}
