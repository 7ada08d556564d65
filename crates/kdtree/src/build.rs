//! The four parallel construction algorithms (paper §IV) and their shared
//! parameters.
//!
//! All builders make identical split decisions — the SAH sweep (or binned
//! approximation) plus the termination test of eq. 2 — and differ only in
//! how the work is scheduled. They share one O(n log n) working set
//! (`Prims`): the three per-axis event lists are sorted once per build
//! and partitioned stably into the children at every split, next to the
//! node's primitive ids in ascending order.
//!
//! * [`Algorithm::NodeLevel`]: depth-first recursion, `rayon::join` over
//!   independent subtrees until roughly `threads · S` tasks exist.
//! * [`Algorithm::Nested`]: node-level tasking plus parallel partitioning
//!   of the primitive and event lists inside large nodes (one task per
//!   list).
//! * [`Algorithm::InPlace`]: breadth-first over an arena, one level at a
//!   time — the level's frontier nodes are decided and then partitioned
//!   as parallel tasks (grained to `threads · S`), the partition going
//!   list by list over the whole level, and child slots come from a
//!   prefix scan over the level's split decisions.
//! * [`Algorithm::Lazy`]: the breadth-first builder stopped at resolution
//!   `R`; nodes holding ≤ `R` primitives are deferred and only expanded
//!   when a ray reaches them ([`crate::LazyKdTree`]).
//!
//! Each build is wrapped in a `kdtree.build` telemetry span, the tasking
//! builders count spawned subtree tasks on `kdtree.build.tasks`, and the
//! breadth-first builders emit one `kdtree.build.level` event per level
//! (node/primitive counts) plus the `kdtree.build.levels` counter — see
//! the `kdtune-telemetry` crate.

use crate::binned::best_split_binned;
use crate::query::BuiltTree;
use crate::sah::SahParams;
use crate::scan::par_map;
use crate::split::{
    best_split_presorted, classify, event_count, partition_by_plane, sides, sorted_events, Event,
    SplitPlane,
};
use crate::tree::{BuildNode, KdTree};
use crate::LazyKdTree;
use kdtune_geometry::{Aabb, Axis, TriangleMesh};
use kdtune_telemetry as telemetry;
use std::ops::Range;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Algorithm & parameters
// ---------------------------------------------------------------------------

/// The construction algorithms evaluated by the paper (§IV-A..D).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Depth-first recursion, parallel over independent subtrees.
    NodeLevel,
    /// Node-level parallelism plus parallel in-node classification.
    Nested,
    /// Breadth-first, one level at a time, parallel over primitives.
    InPlace,
    /// In-place down to resolution `R`, rest expanded on ray contact.
    Lazy,
}

impl Algorithm {
    /// All four algorithms, in paper order.
    pub const ALL: [Algorithm; 4] = [
        Algorithm::NodeLevel,
        Algorithm::Nested,
        Algorithm::InPlace,
        Algorithm::Lazy,
    ];

    /// Stable snake_case name (CLI flag values, bench labels).
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::NodeLevel => "node_level",
            Algorithm::Nested => "nested",
            Algorithm::InPlace => "in_place",
            Algorithm::Lazy => "lazy",
        }
    }

    /// Inverse of [`Algorithm::name`].
    pub fn from_name(name: &str) -> Option<Algorithm> {
        Algorithm::ALL.into_iter().find(|a| a.name() == name)
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How candidate split planes are searched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SplitMethod {
    /// Exact O(n log n) event sweep over all extrema (Wald & Havran).
    Sweep,
    /// Approximate search over `bins` buckets per axis.
    Binned {
        /// Number of buckets per axis (clamped to at least 2).
        bins: u32,
    },
}

/// Tunable build parameters — the paper's Table I.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BuildParams {
    /// SAH costs `CT` (fixed), `CI`, `CB`.
    pub sah: SahParams,
    /// Parallel granularity: target subtree tasks per thread (`S`,
    /// paper range [1, 8]).
    pub s: u32,
    /// Lazy resolution: nodes with ≤ `R` primitives are deferred
    /// (paper range [16, 8192]; ignored by the eager algorithms).
    pub r: u32,
    /// Split-plane search strategy.
    pub split: SplitMethod,
    /// Hard depth limit override; `None` uses the standard
    /// `8 + 1.3·log2(n)` bound.
    pub max_depth: Option<u32>,
}

impl Default for BuildParams {
    /// The paper's base configuration `C_base`: `CI = 17`, `CB = 10`,
    /// `S = 3`, `R = 4096`, exact sweep.
    fn default() -> Self {
        BuildParams {
            sah: SahParams::default(),
            s: 3,
            r: 4096,
            split: SplitMethod::Sweep,
            max_depth: None,
        }
    }
}

impl BuildParams {
    /// Parameters from a tuner configuration point `(CI, CB, S, R)`.
    pub fn from_config(ci: f32, cb: f32, s: u32, r: u32) -> BuildParams {
        BuildParams {
            sah: SahParams::new(ci, cb),
            s,
            r,
            ..BuildParams::default()
        }
    }

    /// The depth cap used for a (sub)tree over `n` primitives: the
    /// conventional `8 + 1.3·log2(n)` unless overridden by `max_depth`.
    pub fn effective_max_depth(&self, n: usize) -> u32 {
        match self.max_depth {
            Some(d) => d,
            None => (8.0 + 1.3 * (n.max(1) as f64).log2()).round() as u32,
        }
    }

    /// Recursion depth down to which subtree tasks are spawned, so the
    /// task count reaches roughly `threads · S`.
    fn task_depth(&self) -> u32 {
        let tasks = (rayon::current_num_threads() as u64) * u64::from(self.s.max(1));
        // ceil(log2(tasks)): 2^depth leaves of the task tree.
        (64 - tasks.next_power_of_two().leading_zeros() - 1).min(24)
    }

    /// Target number of frontier tasks per level for the breadth-first
    /// builders — the same `threads · S` budget the tasking builders use
    /// for their subtree forks.
    fn level_tasks(&self) -> usize {
        rayon::current_num_threads().max(1) * self.s.max(1) as usize
    }
}

// ---------------------------------------------------------------------------
// Shared split decision
// ---------------------------------------------------------------------------

/// Immutable per-build state threaded through the recursions.
pub(crate) struct BuildCtx<'a> {
    /// Bounds of every primitive, indexed by primitive id.
    pub bounds: &'a [Aabb],
    /// SAH cost parameters.
    pub sah: SahParams,
    /// Hard depth cap for this (sub)tree.
    pub max_depth: u32,
    /// Spawn subtree tasks while `depth < task_depth`.
    pub task_depth: u32,
    /// Use parallel in-node classification (the Nested algorithm).
    pub nested: bool,
    /// Split-plane search strategy.
    pub split: SplitMethod,
    /// Target frontier tasks per level for the breadth-first builders
    /// (`threads · S`); irrelevant to the recursive builders.
    pub level_tasks: usize,
}

/// Node size from which a split in the recursion partitions its four
/// lists as parallel tasks (with the Nested strategy and in lazy
/// expansion), and from which the root sorts its three axes in parallel.
const PAR_NODE_MIN_PRIMS: usize = 4096;

/// Node size from which the three per-axis SAH sweeps run as parallel
/// tasks. A presorted sweep is one linear pass per axis, so a fork pays
/// only on the largest nodes.
const SWEEP_FORK_MIN_PRIMS: usize = 16_384;

/// Primitives per level task: fan a level pass out into at most
/// `level_prims / LEVEL_TASK_GRAIN + 1` tasks so no fork carries less
/// than a few milliseconds of work.
const LEVEL_TASK_GRAIN: usize = 8_192;

/// Lengths of a node's four lists: its ids, then its events on x, y, z.
type ListLens = [usize; 4];

/// A node's primitives as every builder carries them: the ids in
/// ascending order (leaf contents and the binned search) and, for the
/// exact sweep, the node's events on each axis in sweep order — sorted
/// once per build and partitioned stably at every split. Binned builds
/// carry no events. The breadth-first builder keeps a whole level's lists
/// back to back in one `Prims`.
#[derive(Default)]
pub(crate) struct Prims {
    ids: Vec<u32>,
    events: [Vec<Event>; 3],
}

/// A node's lists, borrowed.
#[derive(Clone, Copy)]
struct Lists<'a> {
    ids: &'a [u32],
    events: [&'a [Event]; 3],
}

/// One child's destination lists, exactly as long as its [`ListLens`].
struct ListsMut<'a> {
    ids: &'a mut [u32],
    events: [&'a mut [Event]; 3],
}

impl Prims {
    /// The root working set over every primitive of `bounds`: the one sort
    /// per axis of the build.
    pub(crate) fn root(bounds: &[Aabb], split: SplitMethod) -> Prims {
        let events = match split {
            SplitMethod::Sweep if bounds.len() >= PAR_NODE_MIN_PRIMS => {
                let ((x, y), z) = rayon::join(
                    || {
                        rayon::join(
                            || sorted_events(bounds, Axis::X),
                            || sorted_events(bounds, Axis::Y),
                        )
                    },
                    || sorted_events(bounds, Axis::Z),
                );
                [x, y, z]
            }
            SplitMethod::Sweep => Axis::ALL.map(|axis| sorted_events(bounds, axis)),
            SplitMethod::Binned { .. } => Default::default(),
        };
        Prims {
            ids: (0..bounds.len() as u32).collect(),
            events,
        }
    }

    /// Sets every list to its length in `lens`, reusing the capacity. The
    /// entries are placeholders for a partition to overwrite.
    fn reset(&mut self, lens: ListLens) {
        refill(&mut self.ids, lens[0], 0);
        for (list, &len) in self.events.iter_mut().zip(&lens[1..]) {
            refill(list, len, Event::default());
        }
    }

    fn lens(&self) -> ListLens {
        let [x, y, z] = &self.events;
        [self.ids.len(), x.len(), y.len(), z.len()]
    }

    fn all(&self) -> Lists<'_> {
        let [x, y, z] = &self.events;
        Lists {
            ids: &self.ids,
            events: [x, y, z],
        }
    }

    fn all_mut(&mut self) -> ListsMut<'_> {
        let [x, y, z] = &mut self.events;
        ListsMut {
            ids: &mut self.ids,
            events: [x, y, z],
        }
    }
}

impl<'a> Lists<'a> {
    /// Splits off the lists of the first node, `lens` long.
    fn take_front(&mut self, lens: ListLens) -> Lists<'a> {
        let (ids, rest) = self.ids.split_at(lens[0]);
        self.ids = rest;
        let events = std::array::from_fn(|a| {
            let (front, rest) = self.events[a].split_at(lens[a + 1]);
            self.events[a] = rest;
            front
        });
        Lists { ids, events }
    }
}

/// Refills `list` with `len` copies of `fill`. A list too short is freed
/// before it is allocated again at exactly `len`, so growing never holds
/// both buffers or doubles the capacity.
fn refill<T: Clone>(list: &mut Vec<T>, len: usize, fill: T) {
    if list.capacity() < len {
        *list = Vec::new();
        list.reserve_exact(len);
    }
    list.clear();
    list.resize(len, fill);
}

/// Element-wise sum of list lengths.
fn sum_lens(lens: impl IntoIterator<Item = ListLens>) -> ListLens {
    lens.into_iter().fold([0; 4], |mut acc, l| {
        acc.iter_mut().zip(l).for_each(|(a, l)| *a += l);
        acc
    })
}

/// The two children's list lengths under `plane`: a primitive's id and
/// events go to each side [`sides`] assigns it.
fn child_lens(bounds: &[Aabb], node: Lists<'_>, plane: &SplitPlane) -> [ListLens; 2] {
    let with_events = !node.events[0].is_empty();
    let mut lens = [[0; 4]; 2];
    for &i in node.ids {
        let b = &bounds[i as usize];
        let (l, r) = sides(b, plane.axis, plane.pos);
        let mut counts = [1, 0, 0, 0];
        if with_events {
            for axis in Axis::ALL {
                counts[axis as usize + 1] = event_count(b, axis);
            }
        }
        for (side, goes) in lens.iter_mut().zip([l, r]) {
            if goes {
                side.iter_mut().zip(counts).for_each(|(len, c)| *len += c);
            }
        }
    }
    debug_assert_eq!((lens[0][0], lens[1][0]), (plane.n_left, plane.n_right));
    lens
}

/// Partitions a node's lists into its children's windows (sized by
/// [`child_lens`]); with `par`, the four lists go as parallel tasks. The
/// children's lists come out exactly as a fresh per-node collection and
/// sort would give them.
fn partition(
    bounds: &[Aabb],
    node: Lists<'_>,
    plane: &SplitPlane,
    left: ListsMut<'_>,
    right: ListsMut<'_>,
    par: bool,
) {
    let (axis, pos) = (plane.axis, plane.pos);
    let ListsMut {
        ids: left_ids,
        events: [lx, ly, lz],
    } = left;
    let ListsMut {
        ids: right_ids,
        events: [rx, ry, rz],
    } = right;
    let ids = |l: &mut [u32], r: &mut [u32]| {
        partition_by_plane(bounds, node.ids, |i| i as usize, axis, pos, l, r)
    };
    let events = |a: usize, l: &mut [Event], r: &mut [Event]| {
        partition_by_plane(bounds, node.events[a], Event::prim, axis, pos, l, r)
    };
    if par {
        rayon::join(
            || rayon::join(|| ids(left_ids, right_ids), || events(0, lx, rx)),
            || rayon::join(|| events(1, ly, ry), || events(2, lz, rz)),
        );
    } else {
        ids(left_ids, right_ids);
        events(0, lx, rx);
        events(1, ly, ry);
        events(2, lz, rz);
    }
}

/// The split decision every algorithm shares: find the best plane and
/// apply the depth cap and the SAH termination criterion (eq. 2).
/// `None` means "make a leaf". With `fork_axes`, large nodes search the
/// three axes as parallel tasks; the selected plane is identical either
/// way.
fn choose_split(
    ctx: &BuildCtx<'_>,
    node: Lists<'_>,
    bounds: &Aabb,
    depth: u32,
    fork_axes: bool,
) -> Option<SplitPlane> {
    let n = node.ids.len();
    if n == 0 || depth >= ctx.max_depth {
        return None;
    }
    let plane = match ctx.split {
        SplitMethod::Sweep => {
            let fork = fork_axes && n >= SWEEP_FORK_MIN_PRIMS;
            best_split_presorted(node.events, n, bounds, &ctx.sah, fork)
        }
        SplitMethod::Binned { bins } => {
            best_split_binned(ctx.bounds, node.ids, bounds, &ctx.sah, bins as usize)
        }
    }?;
    if ctx.sah.should_stop(n, plane.cost) {
        return None;
    }
    Some(plane)
}

// ---------------------------------------------------------------------------
// Depth-first recursion (NodeLevel, Nested, lazy expansion)
// ---------------------------------------------------------------------------

/// Recursive SAH build over `prims`; spawns the two subtrees as parallel
/// tasks while `depth < ctx.task_depth`. Each node frees its lists as soon
/// as its children's exist.
pub(crate) fn build_recursive(
    ctx: &BuildCtx<'_>,
    prims: Prims,
    bounds: Aabb,
    depth: u32,
) -> BuildNode {
    let Some(plane) = choose_split(ctx, prims.all(), &bounds, depth, true) else {
        return BuildNode::Leaf(prims.ids);
    };
    let (mut left_prims, mut right_prims) = (Prims::default(), Prims::default());
    let [left_lens, right_lens] = child_lens(ctx.bounds, prims.all(), &plane);
    left_prims.reset(left_lens);
    right_prims.reset(right_lens);
    let par = ctx.nested && prims.ids.len() >= PAR_NODE_MIN_PRIMS;
    let (left_out, right_out) = (left_prims.all_mut(), right_prims.all_mut());
    partition(ctx.bounds, prims.all(), &plane, left_out, right_out, par);
    drop(prims);
    let (lb, rb) = bounds.split(plane.axis, plane.pos);
    let (left, right) = if depth < ctx.task_depth {
        telemetry::counter("kdtree.build.tasks").add(2);
        rayon::join(
            || build_recursive(ctx, left_prims, lb, depth + 1),
            || build_recursive(ctx, right_prims, rb, depth + 1),
        )
    } else {
        (
            build_recursive(ctx, left_prims, lb, depth + 1),
            build_recursive(ctx, right_prims, rb, depth + 1),
        )
    };
    BuildNode::Inner {
        axis: plane.axis,
        pos: plane.pos,
        left: Box::new(left),
        right: Box::new(right),
    }
}

// ---------------------------------------------------------------------------
// Breadth-first arena (InPlace, Lazy)
// ---------------------------------------------------------------------------

/// Arena node used by the breadth-first builders; `Lazy` keeps the arena
/// directly, `InPlace` converts it to a [`BuildNode`] tree.
#[derive(Debug)]
pub(crate) enum TempNode {
    /// Finished leaf holding primitive ids.
    Leaf(Vec<u32>),
    /// Inner node; children are arena indices.
    Inner {
        /// Split axis.
        axis: Axis,
        /// Split position.
        pos: f32,
        /// Arena index of the left child.
        left: u32,
        /// Arena index of the right child.
        right: u32,
    },
    /// Unexpanded subtree (lazy builds only): primitives plus node bounds.
    Deferred {
        /// Global primitive ids in this node.
        prims: Vec<u32>,
        /// The node's bounding box, boxed so that every arena slot stays
        /// 32 bytes: the arena grows while a level's event lists are alive.
        bounds: Box<Aabb>,
    },
    /// Slot allocated but not yet filled (never survives construction).
    Pending,
}

/// One undecided node on the breadth-first frontier: its arena slot,
/// bounds and depth, and the lengths of its lists, which follow the
/// previous frontier node's in the level's [`Prims`].
struct FrontierNode {
    slot: usize,
    bounds: Aabb,
    depth: u32,
    lens: ListLens,
}

/// Per-node outcome of a level's decision pass, before child slots and
/// list windows have been assigned.
enum Decision {
    /// Park the node for lazy expansion.
    Defer(Vec<u32>),
    /// Terminate with a leaf.
    Leaf(Vec<u32>),
    /// Split at `axis = pos`; the children's lists have these lengths.
    Split {
        /// Split axis.
        axis: Axis,
        /// Split position.
        pos: f32,
        /// List lengths of the left and the right child.
        lens: [ListLens; 2],
    },
}

impl Decision {
    fn child_lens(&self) -> Option<[ListLens; 2]> {
        match self {
            Decision::Split { lens, .. } => Some(*lens),
            _ => None,
        }
    }
}

/// Decides one frontier node: defer / leaf / split. Pure with respect to
/// the arena, so a whole level can run as independent parallel tasks.
/// `fork_in_node` turns on in-node axis forking — only worthwhile while
/// the level itself has too few nodes to fill the machine.
fn decide_node(
    ctx: &BuildCtx<'_>,
    node: Lists<'_>,
    bounds: &Aabb,
    depth: u32,
    defer_below: Option<u32>,
    fork_in_node: bool,
) -> Decision {
    let n = node.ids.len();
    if defer_below.is_some_and(|r| n > 0 && n as u32 <= r) {
        // Expansion sorts the subtree's own events.
        return Decision::Defer(node.ids.to_vec());
    }
    match choose_split(ctx, node, bounds, depth, fork_in_node) {
        Some(plane) => Decision::Split {
            axis: plane.axis,
            pos: plane.pos,
            lens: child_lens(ctx.bounds, node, &plane),
        },
        None => Decision::Leaf(node.ids.to_vec()),
    }
}

/// Cuts `0..masses.len()` into contiguous ranges of roughly equal mass, at
/// most `tasks` of them — splitting by count would let one huge node
/// stall its whole half.
fn mass_ranges(masses: &[usize], tasks: usize) -> Vec<Range<usize>> {
    let target = masses.iter().sum::<usize>() / tasks + 1;
    let mut ranges = Vec::with_capacity(tasks);
    let (mut start, mut acc) = (0, 0);
    for (i, m) in masses.iter().enumerate() {
        acc += m;
        if acc >= target {
            ranges.push(start..i + 1);
            (start, acc) = (i + 1, 0);
        }
    }
    if start < masses.len() {
        ranges.push(start..masses.len());
    }
    ranges
}

/// Pass 2 of a breadth-first level: the level's nodes, their decisions,
/// and the contiguous runs of nodes that go to one task each.
struct LevelPass<'a> {
    ctx: &'a BuildCtx<'a>,
    level: &'a [FrontierNode],
    decisions: &'a [Decision],
    runs: Vec<Range<usize>>,
}

impl LevelPass<'_> {
    /// Partitions the level's list `k` (ids, then the events on x, y, z)
    /// into the next level's: every split node's part goes to its
    /// children's windows of `spare`, which then takes the list's place.
    fn partition<T: Copy + Default + Send + Sync>(
        &self,
        k: usize,
        list: &mut Vec<T>,
        spare: &mut Vec<T>,
        prim: impl Fn(T) -> usize + Sync,
    ) {
        let children = |decided: &[Decision]| -> usize {
            let lens = decided.iter().filter_map(Decision::child_lens);
            lens.map(|[left, right]| left[k] + right[k]).sum()
        };
        refill(spare, children(self.decisions), T::default());
        let (mut src, mut dst): (&[T], &mut [T]) = (list, spare);
        let runs: Vec<_> = self
            .runs
            .iter()
            .map(|r| {
                let (nodes, decided) = (&self.level[r.clone()], &self.decisions[r.clone()]);
                let (run_src, rest) = src.split_at(nodes.iter().map(|f| f.lens[k]).sum());
                src = rest;
                let (run_dst, rest) = std::mem::take(&mut dst).split_at_mut(children(decided));
                dst = rest;
                (nodes, decided, run_src, run_dst)
            })
            .collect();
        let n_runs = runs.len();
        par_map(runs, n_runs, &|(nodes, decided, mut src, mut dst)| {
            for (f, decision) in nodes.iter().zip(decided) {
                let (node, rest) = src.split_at(f.lens[k]);
                src = rest;
                if let Decision::Split { axis, pos, lens } = decision {
                    let (l, rest) = std::mem::take(&mut dst).split_at_mut(lens[0][k]);
                    let (r, rest) = rest.split_at_mut(lens[1][k]);
                    dst = rest;
                    partition_by_plane(self.ctx.bounds, node, &prim, *axis, *pos, l, r);
                }
            }
        });
        std::mem::swap(list, spare);
    }
}

/// Breadth-first SAH build, level-synchronous and parallel (paper §IV-C,
/// after Choi et al.). A level's nodes keep their lists back to back in
/// one [`Prims`]; each level runs two parallel passes over contiguous
/// runs of its nodes, grouped so roughly `threads · S` tasks exist:
///
/// 1. decide every node (defer / leaf / split) and count its children's
///    list lengths;
/// 2. after a prefix scan has handed each split a consecutive pair of
///    child slots, partition every split node's lists into its
///    children's windows of the next level's lists, list by list.
///
/// The arena comes out laid out exactly as a sequential frontier walk
/// would produce it. Besides one level's lists only a single list of the
/// next is ever alive, and the buffers are reused from level to level.
///
/// Nodes with ≤ `defer_below` primitives become [`TempNode::Deferred`]
/// instead of being subdivided (`None` disables deferral — the InPlace
/// algorithm).
fn build_arena(
    ctx: &BuildCtx<'_>,
    root: Prims,
    root_bounds: Aabb,
    defer_below: Option<u32>,
) -> Vec<TempNode> {
    let mut arena: Vec<TempNode> = vec![TempNode::Pending];
    let mut frontier = vec![FrontierNode {
        slot: 0,
        bounds: root_bounds,
        depth: 0,
        lens: root.lens(),
    }];
    let mut level_lists = root;
    let (mut spare_ids, mut spare_events) = (Vec::new(), Vec::new());
    let mut levels = 0u64;
    while !frontier.is_empty() {
        let level = std::mem::take(&mut frontier);
        let masses: Vec<usize> = level.iter().map(|f| f.lens[0]).collect();
        let level_prims: usize = masses.iter().sum();
        if telemetry::enabled() {
            telemetry::event(
                "kdtree.build.level",
                &[
                    ("level", levels.into()),
                    ("nodes", level.len().into()),
                    ("prims", level_prims.into()),
                ],
            );
        }
        levels += 1;
        // Up to `threads · S` tasks (the recursive builders' task budget),
        // capped so each owns enough primitives to amortize its fork.
        let tasks = ctx
            .level_tasks
            .min(level_prims / LEVEL_TASK_GRAIN + 1)
            .max(1);

        // Pass 1: decisions. While the runs are too few to fill the
        // machine, the nodes themselves also fork their per-axis sweeps.
        let ranges = mass_ranges(&masses, tasks);
        let fork_in_node = ranges.len() < rayon::current_num_threads();
        let mut lists = level_lists.all();
        let runs: Vec<_> = ranges
            .into_iter()
            .map(|r| {
                let nodes = &level[r];
                (
                    nodes,
                    lists.take_front(sum_lens(nodes.iter().map(|f| f.lens))),
                )
            })
            .collect();
        let n_runs = runs.len();
        let mut decisions: Vec<Decision> = par_map(runs, n_runs, &|(nodes, mut lists)| {
            nodes
                .iter()
                .map(|f| {
                    let node = lists.take_front(f.lens);
                    decide_node(ctx, node, &f.bounds, f.depth, defer_below, fork_in_node)
                })
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();

        // Commit, in frontier order: an exclusive prefix scan over the
        // splits hands each a consecutive pair of child slots (exactly the
        // slots a serial `arena.push` walk would produce), and the
        // children join the next frontier with consecutive lists.
        let base = arena.len();
        let mut splits = 0;
        frontier.reserve_exact(2 * decisions.iter().filter_map(Decision::child_lens).count());
        for (f, decision) in level.iter().zip(&mut decisions) {
            match decision {
                Decision::Defer(prims) => {
                    let prims = std::mem::take(prims);
                    arena[f.slot] = TempNode::Deferred {
                        prims,
                        bounds: Box::new(f.bounds),
                    };
                }
                Decision::Leaf(prims) => arena[f.slot] = TempNode::Leaf(std::mem::take(prims)),
                Decision::Split { axis, pos, lens } => {
                    let children = base + 2 * splits;
                    splits += 1;
                    arena[f.slot] = TempNode::Inner {
                        axis: *axis,
                        pos: *pos,
                        left: children as u32,
                        right: children as u32 + 1,
                    };
                    let (lb, rb) = f.bounds.split(*axis, *pos);
                    for (k, (bounds, lens)) in
                        [(lb, lens[0]), (rb, lens[1])].into_iter().enumerate()
                    {
                        frontier.push(FrontierNode {
                            slot: children + k,
                            bounds,
                            depth: f.depth + 1,
                            lens,
                        });
                    }
                }
            }
        }
        arena.resize_with(base + 2 * splits, || TempNode::Pending);

        // Pass 2, one list at a time: every split node partitions it into
        // its children's windows of the next level's list, which then
        // takes its place. Next to this level's lists, only one list of
        // the next level is ever alive.
        let split_masses: Vec<usize> = level
            .iter()
            .zip(&decisions)
            .map(|(f, d)| d.child_lens().map_or(0, |_| f.lens[0]))
            .collect();
        let pass = LevelPass {
            ctx,
            level: &level,
            decisions: &decisions,
            runs: mass_ranges(&split_masses, tasks),
        };
        pass.partition(0, &mut level_lists.ids, &mut spare_ids, |i| i as usize);
        for (a, list) in level_lists.events.iter_mut().enumerate() {
            pass.partition(a + 1, list, &mut spare_events, Event::prim);
        }
    }
    telemetry::counter("kdtree.build.levels").add(levels);
    arena
}

/// Converts an eager arena (no deferred nodes) into a [`BuildNode`] tree.
fn arena_to_build_node(arena: &mut [TempNode], idx: u32) -> BuildNode {
    match std::mem::replace(&mut arena[idx as usize], TempNode::Pending) {
        TempNode::Leaf(prims) => BuildNode::Leaf(prims),
        TempNode::Inner {
            axis,
            pos,
            left,
            right,
        } => BuildNode::Inner {
            axis,
            pos,
            left: Box::new(arena_to_build_node(arena, left)),
            right: Box::new(arena_to_build_node(arena, right)),
        },
        TempNode::Deferred { .. } => unreachable!("deferred node in eager arena"),
        TempNode::Pending => unreachable!("pending node survived construction"),
    }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

fn prim_bounds(mesh: &TriangleMesh) -> Vec<Aabb> {
    (0..mesh.len()).map(|i| mesh.triangle(i).bounds()).collect()
}

/// Builds a kD-tree over `mesh` with the chosen algorithm and parameters.
///
/// The eager algorithms return [`BuiltTree::Eager`]; [`Algorithm::Lazy`]
/// returns [`BuiltTree::Lazy`], whose lower levels materialize on first
/// ray contact.
pub fn build(mesh: Arc<TriangleMesh>, algorithm: Algorithm, params: &BuildParams) -> BuiltTree {
    let mut span = telemetry::span("kdtree.build")
        .field("algorithm", algorithm.name())
        .field("tris", mesh.len());
    let bounds = prim_bounds(&mesh);
    let root_bounds = mesh.bounds();
    let all = Prims::root(&bounds, params.split);
    let ctx = BuildCtx {
        bounds: &bounds,
        sah: params.sah,
        max_depth: params.effective_max_depth(mesh.len()),
        task_depth: params.task_depth(),
        nested: algorithm == Algorithm::Nested,
        split: params.split,
        level_tasks: params.level_tasks(),
    };
    let tree = match algorithm {
        Algorithm::NodeLevel | Algorithm::Nested => {
            let root = build_recursive(&ctx, all, root_bounds, 0);
            BuiltTree::Eager(KdTree::from_build(mesh, root_bounds, root))
        }
        Algorithm::InPlace => {
            let mut arena = build_arena(&ctx, all, root_bounds, None);
            let root = arena_to_build_node(&mut arena, 0);
            BuiltTree::Eager(KdTree::from_build(mesh, root_bounds, root))
        }
        Algorithm::Lazy => {
            let arena = build_arena(&ctx, all, root_bounds, Some(params.r));
            BuiltTree::Lazy(LazyKdTree::from_arena(mesh, arena, *params))
        }
    };
    if span.is_active() {
        span.add_field("nodes", tree.node_count());
    }
    tree
}

/// Builds a spatial-median tree (split at the center of the longest axis)
/// with leaves of at most `leaf_size` primitives — the non-SAH baseline
/// the paper compares against.
pub fn build_median(mesh: Arc<TriangleMesh>, leaf_size: usize, params: &BuildParams) -> KdTree {
    let _span = telemetry::span("kdtree.build")
        .field("algorithm", "median")
        .field("tris", mesh.len());
    let bounds = prim_bounds(&mesh);
    let root_bounds = mesh.bounds();
    let all: Vec<u32> = (0..mesh.len() as u32).collect();
    let max_depth = params.effective_max_depth(mesh.len());
    let root = median_recursive(&bounds, all, root_bounds, 0, leaf_size.max(1), max_depth);
    KdTree::from_build(mesh, root_bounds, root)
}

fn median_recursive(
    bounds: &[Aabb],
    indices: Vec<u32>,
    node: Aabb,
    depth: u32,
    leaf_size: usize,
    max_depth: u32,
) -> BuildNode {
    if indices.len() <= leaf_size || depth >= max_depth {
        return BuildNode::Leaf(indices);
    }
    let axis = node.longest_axis();
    let pos = 0.5 * (node.min[axis] + node.max[axis]);
    let (left_idx, right_idx) = classify(bounds, &indices, axis, pos);
    // No progress: all primitives land on one side (or straddle both).
    if left_idx.len() == indices.len() || right_idx.len() == indices.len() {
        return BuildNode::Leaf(indices);
    }
    drop(indices);
    let (lb, rb) = node.split(axis, pos);
    BuildNode::Inner {
        axis,
        pos,
        left: Box::new(median_recursive(
            bounds,
            left_idx,
            lb,
            depth + 1,
            leaf_size,
            max_depth,
        )),
        right: Box::new(median_recursive(
            bounds,
            right_idx,
            rb,
            depth + 1,
            leaf_size,
            max_depth,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate;
    use kdtune_geometry::{Triangle, Vec3};

    fn grid_mesh(n: usize) -> Arc<TriangleMesh> {
        let mut mesh = TriangleMesh::new();
        for i in 0..n {
            let x = i as f32;
            mesh.push_triangle(Triangle::new(
                Vec3::new(x, 0.0, 0.0),
                Vec3::new(x + 0.8, 0.0, 0.0),
                Vec3::new(x, 1.0, 0.0),
            ));
        }
        Arc::new(mesh)
    }

    #[test]
    fn algorithm_names_round_trip() {
        for algo in Algorithm::ALL {
            assert_eq!(Algorithm::from_name(algo.name()), Some(algo));
            assert_eq!(format!("{algo}"), algo.name());
        }
        assert_eq!(Algorithm::from_name("bogus"), None);
    }

    #[test]
    fn default_params_match_paper_base_configuration() {
        let p = BuildParams::default();
        assert_eq!(p.sah.ci, 17.0);
        assert_eq!(p.sah.cb, 10.0);
        assert_eq!(p.sah.ct, 10.0);
        assert_eq!(p.s, 3);
        assert_eq!(p.r, 4096);
        assert_eq!(p.split, SplitMethod::Sweep);
        assert_eq!(p.max_depth, None);
    }

    #[test]
    fn effective_max_depth_grows_logarithmically() {
        let p = BuildParams::default();
        assert!(p.effective_max_depth(1) >= 8);
        assert!(p.effective_max_depth(1 << 20) >= 30);
        assert!(p.effective_max_depth(100) < p.effective_max_depth(100_000));
        let capped = BuildParams {
            max_depth: Some(2),
            ..BuildParams::default()
        };
        assert_eq!(capped.effective_max_depth(1 << 20), 2);
    }

    #[test]
    fn empty_mesh_builds_single_empty_leaf() {
        let mesh = Arc::new(TriangleMesh::new());
        for algo in Algorithm::ALL {
            let tree = build(Arc::clone(&mesh), algo, &BuildParams::default());
            assert_eq!(tree.node_count(), 1, "{algo}");
            if algo == Algorithm::Lazy {
                // An empty root is a leaf, not a deferred node: there is
                // nothing to expand on ray contact.
                let lazy = tree.as_lazy().unwrap();
                assert_eq!(lazy.deferred_count(), 0);
            }
        }
    }

    #[test]
    fn single_triangle_is_one_leaf() {
        let mesh = grid_mesh(1);
        let tree = build(mesh, Algorithm::NodeLevel, &BuildParams::default());
        let tree = tree.as_eager().unwrap();
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.prim_references(), 1);
    }

    #[test]
    fn eager_builders_agree_on_grid() {
        let mesh = grid_mesh(64);
        let params = BuildParams::default();
        let reference = build(Arc::clone(&mesh), Algorithm::NodeLevel, &params);
        let reference = reference.as_eager().unwrap();
        validate(reference).unwrap();
        let ref_count = reference.node_count();
        assert!(ref_count > 1, "grid must actually split");
        for algo in [Algorithm::Nested, Algorithm::InPlace] {
            let tree = build(Arc::clone(&mesh), algo, &params);
            assert_eq!(tree.node_count(), ref_count, "{algo}");
        }
    }

    #[test]
    fn lazy_root_defers_when_under_resolution() {
        let mesh = grid_mesh(32);
        let params = BuildParams {
            r: 4096, // 32 ≤ 4096: the whole tree is one deferred node
            ..BuildParams::default()
        };
        let tree = build(mesh, Algorithm::Lazy, &params);
        let lazy = tree.as_lazy().unwrap();
        assert_eq!(lazy.node_count(), 1);
        assert_eq!(lazy.deferred_count(), 1);
        assert_eq!(lazy.expanded_count(), 0);
    }

    #[test]
    fn lazy_small_r_builds_eager_top() {
        let mesh = grid_mesh(256);
        let params = BuildParams {
            r: 16,
            ..BuildParams::default()
        };
        let tree = build(mesh, Algorithm::Lazy, &params);
        let lazy = tree.as_lazy().unwrap();
        assert!(lazy.node_count() > 1, "top of the tree must be eager");
        assert!(lazy.deferred_count() > 1);
    }

    #[test]
    fn median_build_respects_leaf_size_where_divisible() {
        let mesh = grid_mesh(128);
        let tree = build_median(mesh, 8, &BuildParams::default());
        validate(&tree).unwrap();
        assert!(tree.node_count() > 1);
    }

    #[test]
    fn binned_split_produces_valid_trees() {
        let mesh = grid_mesh(100);
        let params = BuildParams {
            split: SplitMethod::Binned { bins: 8 },
            ..BuildParams::default()
        };
        for algo in [Algorithm::NodeLevel, Algorithm::InPlace] {
            let tree = build(Arc::clone(&mesh), algo, &params);
            validate(tree.as_eager().unwrap()).unwrap_or_else(|e| panic!("{algo}: {e}"));
        }
    }

    #[test]
    fn build_emits_telemetry_span_and_task_counts() {
        use kdtune_telemetry::sinks::RingBufferRecorder;
        use kdtune_telemetry::RecordKind;

        let ring = std::sync::Arc::new(RingBufferRecorder::new(65536));
        telemetry::set_recorder(ring.clone());
        let mesh = grid_mesh(64);
        let _ = build(mesh, Algorithm::NodeLevel, &BuildParams::default());
        telemetry::clear_recorder();

        // The recorder is process-global, so builds from concurrently
        // running tests may land in the ring too — find OUR span by its
        // algorithm field rather than taking the first.
        let records = ring.snapshot();
        let span = records
            .iter()
            .filter(|r| r.kind == RecordKind::Span && r.name == "kdtree.build")
            .find(|r| {
                r.fields.iter().any(|(k, v)| {
                    *k == "algorithm" && *v == kdtune_telemetry::Value::Str("node_level".into())
                })
            })
            .expect("build must emit its span");
        assert!(span.duration_us.is_some());
        assert!(span.fields.iter().any(|(k, _)| *k == "nodes"));
    }
}
