//! Tuner overhead micro-benchmarks: the paper's pitch is "little runtime
//! overhead" — a tuning cycle must be negligible next to a kD-tree build
//! (milliseconds). These benches measure the cycle cost in isolation.

use criterion::{criterion_group, criterion_main, Criterion};
use kdtune_autotune::Tuner;
use kdtune_kdtree::Algorithm;
use kdtune_raycast::register_space;
use std::hint::black_box;
use std::time::Duration;

/// One full tuned cycle on the paper's 4-parameter space with a synthetic
/// cost function (no build/render, pure tuner bookkeeping).
fn bench_tuner(c: &mut Criterion) {
    let mut group = c.benchmark_group("tuner");
    group
        .sample_size(50)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));

    group.bench_function("cycle_4params", |b| {
        let mut tuner = Tuner::builder().seed(1).build();
        let ci = register_space(&mut tuner, Algorithm::Lazy, false).ci;
        b.iter(|| {
            tuner.start_cycle();
            let v = tuner.get(ci) as f64;
            tuner.stop_with(black_box(1.0 + (v - 20.0).abs() / 100.0));
        })
    });

    group.bench_function("full_convergence_2params", |b| {
        b.iter(|| {
            let mut tuner = Tuner::builder().seed(3).build();
            let ci = tuner.register_parameter("CI", 3, 101, 1);
            let cb = tuner.register_parameter("CB", 0, 60, 1);
            let mut cycles = 0u32;
            while !tuner.converged() && cycles < 500 {
                tuner.start_cycle();
                let (x, y) = (tuner.get(ci) as f64, tuner.get(cb) as f64);
                tuner.stop_with(((x - 40.0) / 50.0).powi(2) + ((y - 20.0) / 30.0).powi(2));
                cycles += 1;
            }
            black_box(cycles)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_tuner);
criterion_main!(benches);
