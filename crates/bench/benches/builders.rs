//! Construction-time micro-benchmarks: the four algorithms on two scene
//! shapes (compact blob vs dense forest slice), at the base configuration,
//! plus the forest at two Table II corners. The forest is the
//! animate-sized fairy_forest (complexity 0.1) that perfbench's `animate`
//! workload rebuilds every frame, so build-time work can be measured here
//! on the same host without running the benchmark package.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kdtune::scenes::{bunny, fairy_forest, SceneParams};
use kdtune::{build, Algorithm, BuildParams};
use std::hint::black_box;
use std::time::Duration;

fn bench_builders(c: &mut Criterion) {
    let params = SceneParams::quick();
    let scenes = [
        ("bunny", bunny(&params).frame(0)),
        ("fairy_forest", fairy_forest(&params).frame(0)),
    ];
    let mut group = c.benchmark_group("build");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));
    for (name, mesh) in &scenes {
        for algo in Algorithm::ALL {
            group.bench_with_input(
                BenchmarkId::new(algo.name(), format!("{name}/{}tris", mesh.len())),
                mesh,
                |b, mesh| {
                    b.iter(|| {
                        black_box(build(
                            mesh.clone(),
                            algo,
                            black_box(&BuildParams::default()),
                        ))
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_table2_corners(c: &mut Criterion) {
    let mesh = fairy_forest(&SceneParams::quick()).frame(0);
    // The deepest, most duplicating corner and the shallowest one.
    let corners = [("ci3_cb0", 3.0, 0.0), ("ci101_cb60", 101.0, 60.0)];
    let mut group = c.benchmark_group("build_corners");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));
    for (corner, ci, cb) in corners {
        let params = BuildParams::from_config(ci, cb, 3, 4096);
        for algo in Algorithm::ALL {
            group.bench_with_input(
                BenchmarkId::new(
                    algo.name(),
                    format!("fairy_forest/{}tris/{corner}", mesh.len()),
                ),
                &params,
                |b, params| b.iter(|| black_box(build(mesh.clone(), algo, black_box(params)))),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_builders, bench_table2_corners);
criterion_main!(benches);
