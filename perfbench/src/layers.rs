//! Single-threaded replays of one layer at a time, for the traced run:
//! the same rays or points the workload sent, pushed through one public
//! kernel in a tight loop so its cost per item can be read directly.

use crate::util::{put, Metrics};
use kdtune::geometry::{Hit, Ray, Vec3};
use kdtune::kdtree::{KdTree, Neighbor};
use kdtune::raycast::{shade, Camera};
use std::hint::black_box;
use std::time::Instant;

/// The renderer's shadow-ray offset (private to `kdtune-raycast`); the
/// replay must cast the very rays a frame casts.
const SHADOW_BIAS: f32 = 1e-3;

/// Per-ray traversal and shading costs over a set of views.
pub struct TraversalReplay {
    /// Single-threaded time of primary traversal + shadow traversal +
    /// shading, per view, in ms (the layer sum of one frame).
    pub layer_sum_ms_per_view: f64,
}

/// Replays every primary ray of `cameras`, then the shadow ray of each
/// hit, then shading, each timed as its own loop; counts exact traversal
/// work with `intersect_counted`. Adds the `kdtree.*` traversal metrics
/// and `raycast.shade_ns_per_hit` to `out`.
pub fn replay_traversal(
    tree: &KdTree,
    cameras: &[Camera],
    light: Vec3,
    out: &mut Metrics,
) -> TraversalReplay {
    let mesh = tree.mesh();
    let mut primary: Vec<Ray> = Vec::new();
    for cam in cameras {
        let table = cam.ray_table();
        for y in 0..cam.height() {
            for x in 0..cam.width() {
                primary.push(table.primary_ray(x, y));
            }
        }
    }

    let mut hits: Vec<(Ray, Hit)> = Vec::with_capacity(primary.len());
    let t0 = Instant::now();
    for ray in &primary {
        if let Some(hit) = tree.intersect(black_box(ray), 0.0, f32::INFINITY) {
            hits.push((*ray, hit));
        }
    }
    let primary_s = t0.elapsed().as_secs_f64();

    let shadows: Vec<(Ray, f32, Vec3)> = hits
        .iter()
        .map(|(ray, hit)| {
            let point = ray.at(hit.t);
            let to_light = light - point;
            let dist = to_light.length();
            (
                Ray::new(point, to_light.normalized()),
                dist - SHADOW_BIAS,
                point,
            )
        })
        .collect();
    let mut occluded = Vec::with_capacity(shadows.len());
    let t1 = Instant::now();
    for (ray, t_max, _) in &shadows {
        occluded.push(tree.intersect_any(black_box(ray), SHADOW_BIAS, *t_max));
    }
    let shadow_s = t1.elapsed().as_secs_f64();

    let t2 = Instant::now();
    for (((_, hit), (_, _, point)), occ) in hits.iter().zip(&shadows).zip(&occluded) {
        black_box(shade(
            &mesh.triangle(hit.prim),
            hit.prim,
            *point,
            light,
            *occ,
        ));
    }
    let shade_s = t2.elapsed().as_secs_f64();

    let (mut nodes, mut tris) = (0u64, 0u64);
    for ray in &primary {
        let (_, counters) = tree.intersect_counted(ray, 0.0, f32::INFINITY);
        nodes += counters.inner_visited + counters.leaves_visited;
        tris += counters.tris_tested;
    }

    let n = primary.len().max(1) as f64;
    let hits_n = hits.len().max(1) as f64;
    put(out, "kdtree.primary_ns_per_ray", primary_s * 1e9 / n, "ns");
    put(
        out,
        "kdtree.shadow_ns_per_ray",
        shadow_s * 1e9 / hits_n,
        "ns",
    );
    put(
        out,
        "kdtree.nodes_visited_per_ray",
        nodes as f64 / n,
        "count",
    );
    put(out, "kdtree.tris_tested_per_ray", tris as f64 / n, "count");
    put(
        out,
        "raycast.shade_ns_per_hit",
        shade_s * 1e9 / hits_n,
        "ns",
    );
    TraversalReplay {
        layer_sum_ms_per_view: (primary_s + shadow_s + shade_s) * 1e3 / cameras.len().max(1) as f64,
    }
}

/// One point-query batch as the service runs it.
pub struct QueryBatch<'a> {
    /// Tree built with the configuration the service uses.
    pub tree: &'a KdTree,
    /// The batch's points.
    pub points: &'a [Vec3],
    /// Neighbours per k-NN query.
    pub k: usize,
    /// Gather radius in world units.
    pub radius: f32,
}

/// Replays the batches through each kernel separately and adds
/// `point_query.knn_ns_per_point` and `point_query.radius_ns_per_point`.
pub fn replay_queries(batches: &[QueryBatch], out: &mut Metrics) {
    let (mut knn_s, mut radius_s, mut points) = (0.0, 0.0, 0usize);
    let mut buf: Vec<Neighbor> = Vec::with_capacity(128);
    for b in batches {
        let t0 = Instant::now();
        for &p in b.points {
            b.tree.knn_into(black_box(p), b.k, &mut buf);
            black_box(buf.len());
        }
        knn_s += t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        for &p in b.points {
            b.tree.radius_gather_into(black_box(p), b.radius, &mut buf);
            black_box(buf.len());
        }
        radius_s += t1.elapsed().as_secs_f64();
        points += b.points.len();
    }
    let n = points.max(1) as f64;
    put(out, "point_query.knn_ns_per_point", knn_s * 1e9 / n, "ns");
    put(
        out,
        "point_query.radius_ns_per_point",
        radius_s * 1e9 / n,
        "ns",
    );
}
