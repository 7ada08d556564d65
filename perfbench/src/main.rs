//! The kdtune benchmark: three workloads, their end-to-end metrics, and a
//! traced run that reports per-layer metrics. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}`.
//! With `--trace 0` the metrics are the end-to-end ones, with `--trace 1`
//! the per-layer ones. Lines before it report the host, each rate of a
//! service run, the latency budgets, and any wrong output.
//!
//! `perfbench serve ...` and `perfbench route ...` run the service's own
//! `kdtune serve` / `kdtune route` entry points, so the service workloads
//! can start renderd and the router from this one binary.

mod check;
mod closed;
mod layers;
mod serve;
mod trace;
mod util;

use std::process::ExitCode;
use trace::Tracer;
use util::Metrics;

/// Set-up is repeated this many times per run and its median reported.
pub const SETUP_REPEATS: usize = 5;

/// Wrong outputs printed per run; the rest are only counted.
const MAX_REPORTED_FAILURES: usize = 10;

/// Every per-layer metric and its unit. A workload that does not
/// exercise a layer reports it as 0.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("kdtree.build_ms_p50", "ms"),
    ("kdtree.build_share", "ratio"),
    ("kdtree.nodes_per_tree", "count"),
    ("kdtree.primary_ns_per_ray", "ns"),
    ("kdtree.shadow_ns_per_ray", "ns"),
    ("kdtree.nodes_visited_per_ray", "count"),
    ("kdtree.tris_tested_per_ray", "count"),
    ("raycast.render_ms_p50", "ms"),
    ("raycast.rays_per_s", "1/s"),
    ("raycast.shade_ns_per_hit", "ns"),
    ("raycast.par_speedup", "ratio"),
    ("scenes.frame_ms_p50", "ms"),
    ("scenes.sample_points_us", "us"),
    ("point_query.knn_ns_per_point", "ns"),
    ("point_query.radius_ns_per_point", "ns"),
    ("autotune.overhead_ms_per_frame", "ms"),
    ("autotune.frames_to_converge", "count"),
    ("autotune.explore_frame_share", "ratio"),
    ("autotune.best_cost_ms", "ms"),
    ("server.queue_ms_p50", "ms"),
    ("server.queue_ms_p99", "ms"),
    ("server.build_ms_p99", "ms"),
    ("server.render_ms_p50", "ms"),
    ("server.query_ms_p50", "ms"),
    ("server.tune_ms_p50", "ms"),
    ("server.serialize_us_p50", "us"),
    ("server.residual_ms_p50", "ms"),
    ("server.residual_ms_p99", "ms"),
    ("server.residual_share", "ratio"),
    ("server.budget_violations", "count"),
    ("server.cache_hit_ratio", "ratio"),
    ("server.cache_hits", "count"),
    ("server.cache_misses", "count"),
    ("server.cache_evictions", "count"),
    ("server.busy_ratio", "ratio"),
    ("router.shard_imbalance", "ratio"),
    ("bench.send_lag_ms_p99", "ms"),
    ("bench.trace_overhead_ratio", "ratio"),
];

/// Command-line options of a benchmark run.
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Seed every input is made from.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: u64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// End-to-end metrics.
    pub e2e: Metrics,
    /// Per-layer metrics (traced runs only).
    pub layers: Metrics,
    /// Outputs produced.
    pub attempted: u64,
    /// Outputs that were wrong, refused or missing.
    pub failed: u64,
}

impl Outcome {
    /// Counts one failure and reports the first few.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failed as usize <= MAX_REPORTED_FAILURES {
            println!("FAILED: {why}");
        }
    }
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(bad)?,
            "--seconds" => opts.seconds = value.parse().map_err(bad)?,
            "--trace" => opts.trace = value.parse::<u8>().map_err(bad)? != 0,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if opts.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(opts)
}

fn run(opts: &Opts, tracer: &mut Tracer) -> Result<Outcome, String> {
    match opts.workload.as_str() {
        "animate" => Ok(closed::animate(opts, tracer)),
        "walkthrough" => Ok(closed::walkthrough(opts, tracer)),
        "serve_routed" => serve::serve_routed(opts, tracer),
        other => Err(format!(
            "unknown workload {other:?} (animate, walkthrough, serve_routed)"
        )),
    }
}

fn result_line(outcome: &Outcome, metrics: &Metrics) -> String {
    use kdtune::telemetry::json::JsonValue;
    let metrics = JsonValue::object(metrics.iter().map(|(name, (value, unit))| {
        (
            name.clone(),
            JsonValue::object([
                ("value", JsonValue::Float(*value)),
                ("unit", JsonValue::from(*unit)),
            ]),
        )
    }));
    JsonValue::object([
        ("correct", JsonValue::Bool(outcome.failed == 0)),
        ("attempted", outcome.attempted.into()),
        ("failed", outcome.failed.into()),
        ("metrics", metrics),
    ])
    .to_string()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let passthrough = match args.first().map(String::as_str) {
        Some("serve") => Some(kdtune_server::cli::serve(&args[1..])),
        Some("route") => Some(kdtune_server::cli::route(&args[1..])),
        _ => None,
    };
    if let Some(result) = passthrough {
        return match result {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let host = util::host_stamp();
    println!("host: {host}");
    let mut tracer = Tracer::new(opts.trace);
    let outcome = match run(&opts, &mut tracer) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let metrics = if opts.trace {
        let mut layers = outcome.layers.clone();
        let mut absent = Vec::new();
        for (name, unit) in LAYER_METRICS {
            if !layers.contains_key(*name) {
                absent.push(*name);
                layers.insert(name.to_string(), (0.0, unit));
            }
        }
        if !absent.is_empty() {
            println!(
                "layers not exercised by {} (reported as 0): {}",
                opts.workload,
                absent.join(", ")
            );
        }
        let path = std::path::Path::new("perfbench")
            .join("traces")
            .join(format!("{}-seed{}.jsonl", opts.workload, opts.seed));
        let header = format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"host\":{host}}}",
            opts.workload, opts.seed
        );
        match tracer.write(&path, &header) {
            Ok(()) => println!(
                "trace: {} spans written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
        layers
    } else {
        outcome.e2e.clone()
    };
    println!("{}", result_line(&outcome, &metrics));
    ExitCode::SUCCESS
}
