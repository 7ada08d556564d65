//! Output checks. Every reference is computed during set-up with an
//! independently built tree (a different builder than the one measured);
//! render counters and query results do not depend on the tree, so any
//! difference is a wrong output and counts as a failure.

use kdtune::geometry::Vec3;
use kdtune::kdtree::{KdTree, Neighbor};
use kdtune::raycast::RenderStats;
use kdtune::telemetry::json::JsonValue;

/// Expected counters of one rendered frame or view.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RenderRef {
    /// Primary rays that hit geometry.
    pub primary_hits: u64,
    /// Shadow rays that found an occluder.
    pub occluded: u64,
}

impl From<RenderStats> for RenderRef {
    fn from(s: RenderStats) -> RenderRef {
        RenderRef {
            primary_hits: s.primary_hits,
            occluded: s.occluded,
        }
    }
}

/// Expected results of one point-query batch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueryRef {
    /// Neighbours returned over every k-NN query.
    pub knn_results: u64,
    /// Primitives gathered over every radius query.
    pub radius_results: u64,
    /// Mean squared distance to each query's farthest k-NN neighbour.
    pub mean_knn_far_d2: f64,
}

/// Computes a batch's expected results by running both kernels over the
/// points, in the order and with the sums the service reports.
pub fn query_reference(tree: &KdTree, points: &[Vec3], k: usize, radius: f32) -> QueryRef {
    let mut knn: Vec<Neighbor> = Vec::with_capacity(k);
    let mut gathered: Vec<Neighbor> = Vec::new();
    let mut reference = QueryRef {
        knn_results: 0,
        radius_results: 0,
        mean_knn_far_d2: 0.0,
    };
    let mut far_sum = 0.0f64;
    for &p in points {
        tree.knn_into(p, k, &mut knn);
        reference.knn_results += knn.len() as u64;
        if let Some(last) = knn.last() {
            far_sum += last.d2 as f64;
        }
        tree.radius_gather_into(p, radius, &mut gathered);
        reference.radius_results += gathered.len() as u64;
    }
    if !points.is_empty() {
        reference.mean_knn_far_d2 = far_sum / points.len() as f64;
    }
    reference
}

/// Checks a frame rendered in-process.
pub fn check_frame(expected: &RenderRef, got: &RenderStats) -> Result<(), String> {
    let got = RenderRef::from(*got);
    if got == *expected {
        Ok(())
    } else {
        Err(format!("frame counters {got:?}, expected {expected:?}"))
    }
}

fn field_u64(result: &JsonValue, name: &str) -> Result<u64, String> {
    result
        .get(name)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("reply lacks integer field {name:?}"))
}

/// Checks the `result` object of a `render` reply.
pub fn check_render_reply(expected: &RenderRef, result: &JsonValue) -> Result<(), String> {
    let got = RenderRef {
        primary_hits: field_u64(result, "primary_hits")?,
        occluded: field_u64(result, "occluded")?,
    };
    if got == *expected {
        Ok(())
    } else {
        Err(format!("render reply {got:?}, expected {expected:?}"))
    }
}

/// Checks the `result` object of a `query` reply.
pub fn check_query_reply(expected: &QueryRef, result: &JsonValue) -> Result<(), String> {
    let mean = result
        .get("mean_knn_far_d2")
        .and_then(JsonValue::as_f64)
        .ok_or("reply lacks number field \"mean_knn_far_d2\"")?;
    let got = QueryRef {
        knn_results: field_u64(result, "knn_results")?,
        radius_results: field_u64(result, "radius_results")?,
        mean_knn_far_d2: mean,
    };
    // Both sides sum the same f32 distances in the same order, and JSON
    // floats round-trip exactly, so the mean must match to the last bit
    // up to formatting; the tolerance only absorbs the latter.
    let mean_ok = (got.mean_knn_far_d2 - expected.mean_knn_far_d2).abs()
        <= 1e-12 * expected.mean_knn_far_d2.abs().max(1.0);
    if got.knn_results == expected.knn_results
        && got.radius_results == expected.radius_results
        && mean_ok
    {
        Ok(())
    } else {
        Err(format!("query reply {got:?}, expected {expected:?}"))
    }
}

/// Checks the `result` object of a `tune_step` reply: a step must run
/// and report a finite positive best cost.
pub fn check_tune_reply(result: &JsonValue) -> Result<(), String> {
    let steps = field_u64(result, "steps_run")?;
    let cost = result
        .get("best_cost_ms")
        .and_then(JsonValue::as_f64)
        .unwrap_or(f64::NAN);
    if steps >= 1 && cost.is_finite() && cost > 0.0 {
        Ok(())
    } else {
        Err(format!("tune reply ran {steps} steps, best cost {cost}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdtune::kdtree::{build, Algorithm, BuiltTree};
    use kdtune::raycast::{render_with_options, Camera, RenderOptions};
    use kdtune::scenes::{sample_points, PointSampler, SceneParams};
    use kdtune::{base_build_params, telemetry::json};

    fn eager(algorithm: Algorithm) -> (kdtune::Scene, KdTree) {
        let scene = kdtune::scenes::bunny(&SceneParams::tiny());
        match build(scene.frame(0), algorithm, &base_build_params()) {
            BuiltTree::Eager(tree) => (scene, tree),
            BuiltTree::Lazy(_) => unreachable!("eager builder"),
        }
    }

    #[test]
    fn corrupted_frame_is_caught() {
        let (scene, tree) = eager(Algorithm::NodeLevel);
        let v = scene.view;
        let cam = Camera::look_at(v.eye, v.target, v.up, v.fov_deg, 24, 24);
        let render = |t: &KdTree| {
            render_with_options(t, t.mesh(), &cam, v.light, &RenderOptions::default()).1
        };
        let expected = RenderRef::from(render(&tree));
        let (_, other) = eager(Algorithm::InPlace);
        let mut got = render(&other);
        assert_eq!(check_frame(&expected, &got), Ok(()));
        got.occluded += 1;
        assert!(check_frame(&expected, &got).is_err());
    }

    #[test]
    fn corrupted_replies_are_caught() {
        let (scene, tree) = eager(Algorithm::NodeLevel);
        let mesh = scene.frame(0);
        let points = sample_points(&mesh, PointSampler::PhotonGather, 64, 3);
        let radius = 0.05 * mesh.bounds().extent().length();
        let expected = query_reference(&tree, &points, 8, radius);
        let reply = |knn: u64, radius_results: u64, mean: f64| {
            json::parse(&format!(
                "{{\"knn_results\":{knn},\"radius_results\":{radius_results},\"mean_knn_far_d2\":{mean:?}}}"
            ))
            .expect("valid json")
        };
        let good = reply(
            expected.knn_results,
            expected.radius_results,
            expected.mean_knn_far_d2,
        );
        assert_eq!(check_query_reply(&expected, &good), Ok(()));
        for bad in [
            reply(
                expected.knn_results - 1,
                expected.radius_results,
                expected.mean_knn_far_d2,
            ),
            reply(
                expected.knn_results,
                expected.radius_results + 1,
                expected.mean_knn_far_d2,
            ),
            reply(
                expected.knn_results,
                expected.radius_results,
                expected.mean_knn_far_d2 * (1.0 + 1e-9),
            ),
        ] {
            assert!(check_query_reply(&expected, &bad).is_err(), "{bad:?}");
        }

        let frame = RenderRef {
            primary_hits: 100,
            occluded: 7,
        };
        let ok = json::parse("{\"primary_hits\":100,\"occluded\":7}").expect("json");
        let wrong = json::parse("{\"primary_hits\":100,\"occluded\":8}").expect("json");
        let missing = json::parse("{\"primary_hits\":100}").expect("json");
        assert_eq!(check_render_reply(&frame, &ok), Ok(()));
        assert!(check_render_reply(&frame, &wrong).is_err());
        assert!(check_render_reply(&frame, &missing).is_err());
    }

    #[test]
    fn tune_reply_needs_a_step_and_a_cost() {
        let ok = json::parse("{\"steps_run\":1,\"best_cost_ms\":3.5}").expect("json");
        let none = json::parse("{\"steps_run\":0,\"best_cost_ms\":3.5}").expect("json");
        let null = json::parse("{\"steps_run\":1,\"best_cost_ms\":null}").expect("json");
        assert_eq!(check_tune_reply(&ok), Ok(()));
        assert!(check_tune_reply(&none).is_err());
        assert!(check_tune_reply(&null).is_err());
    }
}
