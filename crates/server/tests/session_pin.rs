//! Pins what a tuning session does, whatever the code behind it: the
//! first configurations its tuner measures under `SESSION_TUNER_SEED`
//! (cold seeding draws and warm-start probes do not depend on measured
//! cost), the `workload` key of each persisted store line, and the key
//! set of each workload's `stats` summary. Sessions are driven over the
//! wire; the configurations come from `tuner.measurement` events, so this
//! binary holds one test (the telemetry recorder is process-global).

use kdtune::Algorithm;
use kdtune_server::server::{RenderServer, ServerConfig};
use kdtune_server::ConfigStore;
use kdtune_telemetry::json::{self, JsonValue};
use kdtune_telemetry::sinks::RingBufferRecorder;
use kdtune_telemetry::{Record, Value};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

const TUNE: &str = r#""cmd":"tune_step","scale":"tiny","res":16"#;
const QUERY: &str = r#""workload":"query","batch":64"#;

fn str_of(v: Option<&JsonValue>) -> &str {
    v.and_then(JsonValue::as_str).expect("string field")
}

#[test]
fn session_trajectories_store_lines_and_summaries_are_pinned() {
    let path = std::env::temp_dir().join(format!("kdtune-pin-{}.jsonl", std::process::id()));
    std::fs::remove_file(&path).ok();
    let store = ConfigStore::open(&path).unwrap();
    for (workload, values) in [("render", [21, 11, 4]), ("query", [40, 30, 2])] {
        let algo = Algorithm::InPlace;
        store
            .record_workload("bunny", algo, workload, 16, &values, 1.0, 1)
            .unwrap();
    }
    let ring = Arc::new(RingBufferRecorder::new(1 << 16));
    kdtune_telemetry::set_recorder(ring.clone());
    let server = RenderServer::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        store_path: path.clone(),
        workers: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let handle = std::thread::spawn(move || server.run());
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut send = |body: &str| {
        writeln!(stream, "{{\"id\":1,{body}}}").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let reply = json::parse(line.trim()).unwrap();
        assert_eq!(reply.get("ok"), Some(&JsonValue::Bool(true)), "{reply}");
        reply.get("result").cloned().unwrap_or(JsonValue::Null)
    };
    // Tunes `spec` (to convergence, or for one request) and returns the
    // configurations measured meanwhile, in order.
    let mut tune = |spec: &str, steps: usize, converge: bool| -> Vec<String> {
        ring.take();
        for _ in 0..40 {
            let reply = send(&format!("{TUNE},{spec},\"steps\":{steps}"));
            if !converge || reply.get("converged") == Some(&JsonValue::Bool(true)) {
                break;
            }
        }
        let measured = ring.take().into_iter();
        let measured = measured.filter(|r| r.name == "tuner.measurement");
        let config = |r: Record| r.fields.into_iter().find(|f| f.0 == "config");
        let config = |r| match config(r) {
            Some((_, Value::Str(s))) => s,
            other => panic!("measurement without a config: {other:?}"),
        };
        measured.map(config).collect()
    };

    let render = tune(r#""scene":"wood_doll""#, 16, true);
    let lazy = tune(r#""scene":"wood_doll","algo":"lazy""#, 8, false);
    let query = tune(&format!(r#""scene":"wood_doll",{QUERY}"#), 16, true);
    let warm_render = tune(r#""scene":"bunny""#, 4, false);
    let warm_query = tune(&format!(r#""scene":"bunny",{QUERY}"#), 4, false);
    let seeding = [
        "(72, 12, 6)",
        "(35, 26, 8)",
        "(72, 10, 2)",
        "(3, 7, 7)",
        "(93, 39, 7)",
        "(26, 31, 8)",
        "(16, 50, 7)",
        "(61, 21, 8)",
    ];
    assert_eq!(render[..8], seeding);
    assert_eq!(query[..8], seeding, "same seed, same space, same draws");
    let lazy_seeding = [
        "(72, 12, 6, 4096)",
        "(17, 19, 2, 1024)",
        "(42, 5, 4, 4096)",
        "(93, 39, 7, 8192)",
        "(58, 42, 8, 128)",
        "(59, 58, 5, 128)",
        "(59, 36, 4, 1024)",
        "(67, 20, 3, 2048)",
    ];
    assert_eq!(lazy, lazy_seeding);
    // A warm start probes the stored config, then `dim` jittered points.
    let warm = ["(21, 11, 4)", "(15, 8, 4)", "(22, 11, 5)", "(27, 14, 4)"];
    assert_eq!(warm_render, warm);
    let warm = ["(40, 30, 2)", "(34, 27, 2)", "(41, 30, 3)", "(46, 33, 2)"];
    assert_eq!(warm_query, warm);

    let stats = send(r#""cmd":"stats""#);
    let Some(JsonValue::Array(detail)) = stats.get("sessions").and_then(|s| s.get("detail")) else {
        panic!("no session detail in {stats}");
    };
    assert_eq!(detail.len(), 5);
    for summary in detail {
        let JsonValue::Object(fields) = summary else {
            panic!("summary is not an object: {summary}");
        };
        let mut keys: Vec<&str> = fields.keys().map(String::as_str).collect();
        let mut expected = vec![
            "id",
            "workload",
            "phase",
            "converged",
            "steps",
            "measurements",
            "retunes",
            "warm_started",
            "persisted",
            "stops",
            "best_config",
            "best_cost_ms",
        ];
        match str_of(summary.get("workload")) {
            "render" => expected.push("renders"),
            "query" => expected.extend(["queries", "sampler", "batch", "k", "radius_pm"]),
            other => panic!("unknown workload {other}"),
        }
        keys.sort_unstable();
        expected.sort_unstable();
        assert_eq!(keys, expected);
    }

    send(r#""cmd":"shutdown""#);
    handle.join().unwrap().unwrap();
    kdtune_telemetry::clear_recorder();
    let text = std::fs::read_to_string(&path).unwrap();
    let lines = text.lines().map(|l| json::parse(l).unwrap());
    let converged: Vec<String> = lines
        .filter(|l| str_of(l.get("scene")) == "wood_doll")
        .map(|l| str_of(l.get("workload")).to_string())
        .collect();
    assert_eq!(
        converged,
        ["render", "query"],
        "one line per converged kind"
    );
    std::fs::remove_file(&path).ok();
}
