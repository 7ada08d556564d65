//! Exact identity of every builder with a slow reference build.
//!
//! The reference recursion below searches each node with
//! `best_split_sweep_idx` (a fresh event sort per node) and splits it
//! with `classify`, then flattens in preorder exactly as `KdTree` does.
//! The builders sort their events once per build and partition them down
//! the tree; they must reproduce the reference node for node and
//! primitive for primitive — planes, tie-breaks and leaf order included —
//! on any pool width. The soups are chosen to stress the tie rules:
//! shared coordinates, axis-aligned planar triangles, signed zeros and
//! NaN/±inf vertices.

use kdtune_geometry::{Aabb, Axis, Triangle, TriangleMesh, Vec3};
use kdtune_kdtree::{
    best_split_sweep_idx, build, classify, Algorithm, BuildParams, KdTree, PackedNode, SahParams,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The Table II corners: CI ∈ {3, 101} × CB ∈ {0, 60}.
const CORNERS: [(f32, f32); 4] = [(3.0, 0.0), (3.0, 60.0), (101.0, 0.0), (101.0, 60.0)];

/// The reference tree in packed preorder form.
struct Reference<'a> {
    bounds: Vec<Aabb>,
    params: &'a BuildParams,
    nodes: Vec<PackedNode>,
    prims: Vec<u32>,
}

impl Reference<'_> {
    /// Builds the reference for `mesh`; with `defer`, nodes of at most that
    /// many primitives are rebuilt as independent subtrees (depth 0, their
    /// own depth cap), as a fully expanded lazy tree has them.
    fn build(
        mesh: &TriangleMesh,
        params: &BuildParams,
        defer: Option<u32>,
    ) -> (Vec<PackedNode>, Vec<u32>) {
        let mut r = Reference {
            bounds: (0..mesh.len()).map(|i| mesh.triangle(i).bounds()).collect(),
            params,
            nodes: Vec::new(),
            prims: Vec::new(),
        };
        let ids = (0..mesh.len() as u32).collect();
        let max_depth = params.effective_max_depth(mesh.len());
        r.node(ids, mesh.bounds(), 0, max_depth, defer);
        (r.nodes, r.prims)
    }

    fn node(&mut self, ids: Vec<u32>, node: Aabb, depth: u32, max_depth: u32, defer: Option<u32>) {
        if defer.is_some_and(|r| !ids.is_empty() && ids.len() as u32 <= r) {
            let max_depth = self.params.effective_max_depth(ids.len());
            return self.node(ids, node, 0, max_depth, None);
        }
        let sah: SahParams = self.params.sah;
        let plane = if ids.is_empty() || depth >= max_depth {
            None
        } else {
            best_split_sweep_idx(&self.bounds, &ids, &node, &sah)
                .filter(|p| !sah.should_stop(ids.len(), p.cost))
        };
        let Some(plane) = plane else {
            let first = self.prims.len() as u32;
            self.prims.extend_from_slice(&ids);
            self.nodes.push(PackedNode::leaf(first, ids.len() as u32));
            return;
        };
        let me = self.nodes.len();
        self.nodes.push(PackedNode::leaf(0, 0));
        let (left, right) = classify(&self.bounds, &ids, plane.axis, plane.pos);
        let (lb, rb) = node.split(plane.axis, plane.pos);
        self.node(left, lb, depth + 1, max_depth, defer);
        let right_index = self.nodes.len() as u32;
        self.node(right, rb, depth + 1, max_depth, defer);
        self.nodes[me] = PackedNode::inner(plane.axis, plane.pos, right_index);
    }
}

/// Coordinates drawn from a coarse grid (with both signed zeros), so
/// many primitives share planes and many triangles are axis-aligned.
fn grid_soup(n: usize, seed: u64) -> TriangleMesh {
    let mut rng = StdRng::seed_from_u64(seed);
    let steps = [-1.0f32, -0.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0];
    let v = |rng: &mut StdRng| {
        let mut c = || steps[rng.gen_range(0..steps.len())];
        Vec3::new(c(), c(), c())
    };
    let mut mesh = TriangleMesh::new();
    for _ in 0..n {
        mesh.push_triangle(Triangle::new(v(&mut rng), v(&mut rng), v(&mut rng)));
    }
    mesh
}

/// Random triangles, every other one flattened onto an axis-aligned plane
/// drawn from a few shared positions.
fn planar_soup(n: usize, seed: u64) -> TriangleMesh {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut mesh = TriangleMesh::new();
    for i in 0..n {
        let base = Vec3::new(
            rng.gen_range(-8.0..8.0),
            rng.gen_range(-8.0..8.0),
            rng.gen_range(-8.0..8.0),
        );
        let mut e = || {
            Vec3::new(
                rng.gen_range(-0.7..0.7),
                rng.gen_range(-0.7..0.7),
                rng.gen_range(-0.7..0.7),
            )
        };
        let mut t = Triangle::new(base, base + e(), base + e());
        if i % 2 == 0 {
            let axis = Axis::ALL[i / 2 % 3];
            let c = (i % 5) as f32 - 2.0;
            t.a[axis] = c;
            t.b[axis] = c;
            t.c[axis] = c;
        }
        mesh.push_triangle(t);
    }
    mesh
}

/// Overwrites a few vertex components of `mesh` with NaN or ±inf.
fn poisoned(mesh: TriangleMesh, seed: u64) -> TriangleMesh {
    let mut rng = StdRng::seed_from_u64(seed);
    let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
    let mut out = TriangleMesh::new();
    for i in 0..mesh.len() {
        let mut t = mesh.triangle(i);
        if rng.gen_range(0..16) == 0 {
            let v = match rng.gen_range(0..3) {
                0 => &mut t.a,
                1 => &mut t.b,
                _ => &mut t.c,
            };
            v[Axis::ALL[rng.gen_range(0..3usize)]] = specials[rng.gen_range(0..3usize)];
        }
        out.push_triangle(t);
    }
    out
}

fn pool(width: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(width)
        .build()
        .expect("pool")
}

/// Builds `mesh` with `algorithm` and returns its packed nodes and
/// primitive list; a lazy tree is fully expanded and flattened first.
fn packed(mesh: &Arc<TriangleMesh>, algorithm: Algorithm, params: &BuildParams) -> KdTree {
    let tree = build(Arc::clone(mesh), algorithm, params);
    match tree.as_lazy() {
        Some(lazy) => {
            lazy.expand_all();
            lazy.to_eager()
        }
        None => tree.as_eager().expect("eager").clone(),
    }
}

/// Asserts all four algorithms reproduce the reference on every pool
/// width, at every Table II corner.
fn assert_identical(name: &str, mesh: TriangleMesh, r: u32) {
    let mesh = Arc::new(mesh);
    for (ci, cb) in CORNERS {
        let params = BuildParams {
            r,
            ..BuildParams::from_config(ci, cb, 3, r)
        };
        let eager = Reference::build(&mesh, &params, None);
        let lazy = Reference::build(&mesh, &params, Some(r));
        for width in [1, 2, 8] {
            pool(width).install(|| {
                for algorithm in Algorithm::ALL {
                    let (nodes, prims) = if algorithm == Algorithm::Lazy {
                        (&lazy.0, &lazy.1)
                    } else {
                        (&eager.0, &eager.1)
                    };
                    let tree = packed(&mesh, algorithm, &params);
                    let at = format!("{name}: {algorithm} at CI {ci} CB {cb} on {width} threads");
                    assert!(tree.nodes() == &nodes[..], "{at}: nodes differ");
                    assert!(tree.prim_indices() == &prims[..], "{at}: prim lists differ");
                }
            });
        }
    }
}

#[test]
fn shared_coordinates_build_identically() {
    for (n, seed) in [(1, 1), (9, 2), (80, 3), (400, 4)] {
        assert_identical(&format!("grid {n}"), grid_soup(n, seed), 16);
    }
}

#[test]
fn axis_aligned_planar_triangles_build_identically() {
    for (n, seed) in [(6, 5), (120, 6), (700, 7)] {
        assert_identical(&format!("planar {n}"), planar_soup(n, seed), 32);
    }
}

#[test]
fn non_finite_vertices_build_identically() {
    for (n, seed) in [(40, 8), (300, 9)] {
        let mesh = poisoned(planar_soup(n, seed), seed);
        assert_identical(&format!("poisoned {n}"), mesh, 16);
    }
}

/// Large enough for the parallel paths: the root sorts its axes as tasks,
/// the top nodes partition their lists as tasks and fork their sweeps,
/// and the breadth-first levels fan out over several runs.
#[test]
fn large_soup_builds_identically_on_parallel_paths() {
    let mut mesh = planar_soup(17_000, 10);
    let grid = grid_soup(1_000, 11);
    for i in 0..grid.len() {
        mesh.push_triangle(grid.triangle(i));
    }
    assert_identical("large", poisoned(mesh, 12), 4096);
}
