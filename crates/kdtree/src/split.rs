//! Split-plane search and primitive classification.
//!
//! The sweep here is the event-based search of Wald & Havran: for each axis
//! the candidate planes are the primitive bound extrema, visited in sorted
//! order while incrementally maintaining the left/right counts. The
//! builders sort each axis's events once per build ([`sorted_events`]) and
//! at every split partition the sorted lists stably into the two children
//! ([`partition_by_plane`]), so the whole build is O(n log n). The per-node
//! searches ([`best_split_sweep`], [`best_split_sweep_idx`]) collect and
//! sort a fresh event list on every call; they are the reference the
//! builders are tested against.

use crate::SahParams;
use kdtune_geometry::{Aabb, Axis};

/// A candidate split plane with its SAH cost and resulting child counts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SplitPlane {
    /// Axis the plane is perpendicular to.
    pub axis: Axis,
    /// Plane position along `axis`.
    pub pos: f32,
    /// SAH cost of this split (paper eq. 1).
    pub cost: f32,
    /// Number of primitives assigned to the left child (straddlers count
    /// on both sides).
    pub n_left: usize,
    /// Number of primitives assigned to the right child.
    pub n_right: usize,
}

/// Side assignment of a primitive relative to a split plane.
///
/// The rule, applied identically by the sweep and by [`classify`]:
/// a primitive goes **left** when `min < pos`, **right** when `max > pos`,
/// and a primitive lying flat *on* the plane (`min == max == pos`) goes
/// left only. Straddlers satisfy both and are duplicated.
#[inline]
pub(crate) fn sides(b: &Aabb, axis: Axis, pos: f32) -> (bool, bool) {
    let (lo, hi) = (b.min[axis], b.max[axis]);
    let left = lo < pos || (lo == pos && hi == pos);
    let right = hi > pos;
    (left, right)
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum EventKind {
    // The sweep counts all events at one position before pricing the
    // plane there, so the kind order at equal positions only fixes one
    // canonical list order; the discriminants index the sweep's counts.
    End = 0,
    Planar = 1,
    Start = 2,
}

/// Bits of an [`Event`]'s low word that hold the primitive id.
const PRIM_BITS: u32 = 30;

/// Number of primitives a build can address with packed events.
const MAX_EVENT_PRIMS: usize = 1 << PRIM_BITS;

/// One split-candidate event in 8 bytes: the high word is the position's
/// `f32::total_cmp` order key, the low word the kind (top two bits) above
/// the primitive id. Integer order is therefore the sweep order — position
/// by `total_cmp`, then End before Planar before Start — with the id as a
/// final tie-break the sweep never looks at.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Event(u64);

impl Event {
    fn new(pos: f32, kind: EventKind, prim: u32) -> Event {
        let bits = pos.to_bits();
        // Negative floats flip entirely, the rest gain the sign bit.
        let key = bits ^ ((bits as i32 >> 31) as u32 | 0x8000_0000);
        Event(u64::from(key) << 32 | u64::from(kind as u32) << PRIM_BITS | u64::from(prim))
    }

    fn pos(self) -> f32 {
        let key = (self.0 >> 32) as u32;
        f32::from_bits(key ^ ((!key as i32 >> 31) as u32 | 0x8000_0000))
    }

    fn kind(self) -> EventKind {
        match (self.0 as u32) >> PRIM_BITS {
            0 => EventKind::End,
            1 => EventKind::Planar,
            _ => EventKind::Start,
        }
    }

    pub(crate) fn prim(self) -> usize {
        (self.0 as usize) & (MAX_EVENT_PRIMS - 1)
    }
}

/// Number of events a primitive has on `axis` (see [`prim_events`]).
#[inline]
pub(crate) fn event_count(b: &Aabb, axis: Axis) -> usize {
    if b.min[axis] == b.max[axis] {
        1
    } else {
        2
    }
}

/// Emits one primitive's events on `axis`: a Start/End pair, or a single
/// Planar event when its bounds are flat along `axis`.
#[inline]
fn prim_events(b: &Aabb, axis: Axis, mut emit: impl FnMut(f32, EventKind)) {
    let (lo, hi) = (b.min[axis], b.max[axis]);
    if event_count(b, axis) == 1 {
        emit(lo, EventKind::Planar);
    } else {
        emit(lo, EventKind::Start);
        emit(hi, EventKind::End);
    }
}

/// All primitives' events on `axis`, in sweep order. The builders call
/// this once per axis per build (and per expanded lazy subtree); `bounds`
/// is indexed by primitive id and must hold fewer than
/// [`MAX_EVENT_PRIMS`] entries.
pub(crate) fn sorted_events(bounds: &[Aabb], axis: Axis) -> Vec<Event> {
    assert!(bounds.len() < MAX_EVENT_PRIMS, "too many primitives");
    let mut events = Vec::with_capacity(2 * bounds.len());
    for (i, b) in bounds.iter().enumerate() {
        prim_events(b, axis, |pos, kind| {
            events.push(Event::new(pos, kind, i as u32))
        });
    }
    events.sort_unstable();
    events
}

/// Stable partition of a node's list (its ids, or its events on one
/// axis) by the plane `axis = pos`: each item follows its primitive's
/// [`sides`] — straddlers both ways — so both outputs keep the input
/// order. `left` and `right` must be exactly as long as that assignment
/// makes them.
pub(crate) fn partition_by_plane<T: Copy>(
    bounds: &[Aabb],
    items: &[T],
    prim: impl Fn(T) -> usize,
    axis: Axis,
    pos: f32,
    left: &mut [T],
    right: &mut [T],
) {
    let (mut l, mut r) = (0, 0);
    for &item in items {
        let (to_left, to_right) = sides(&bounds[prim(item)], axis, pos);
        if to_left {
            left[l] = item;
            l += 1;
        }
        if to_right {
            right[r] = item;
            r += 1;
        }
    }
    debug_assert_eq!((l, r), (left.len(), right.len()));
}

/// Builds the sorted per-node event list for one axis from an iterator of
/// bounds (the reference searches only; the builders presort).
fn collect_events<'a>(
    bounds: impl Iterator<Item = &'a Aabb>,
    capacity: usize,
    axis: Axis,
) -> Vec<(f32, EventKind)> {
    let mut events: Vec<(f32, EventKind)> = Vec::with_capacity(2 * capacity);
    for b in bounds {
        prim_events(b, axis, |pos, kind| events.push((pos, kind)));
    }
    // total_cmp, not partial_cmp().unwrap(): NaN bounds from degenerate
    // meshes must not panic the build. NaN sorts after +inf and is
    // rejected as a candidate by the strict in-node bounds test.
    events.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then((a.1 as u8).cmp(&(b.1 as u8))));
    events
}

/// Sweeps an event list in sweep order, returning the best plane on that
/// axis. `at` reads an event's position and kind, so the builders'
/// presorted lists and the per-node reference lists share this loop.
fn sweep_events<E: Copy>(
    events: &[E],
    at: impl Fn(E) -> (f32, EventKind),
    n: usize,
    node: &Aabb,
    sah: &SahParams,
    axis: Axis,
) -> Option<SplitPlane> {
    let (node_lo, node_hi) = (node.min[axis], node.max[axis]);
    let area = node.surface_area();
    let mut best: Option<SplitPlane> = None;
    let mut n_left = 0usize;
    let mut n_right = n;
    let mut i = 0;
    while i < events.len() {
        let pos = at(events[i]).0;
        // Counted by kind without branching on it: kinds come unordered.
        let mut counts = [0usize; 3];
        while i < events.len() {
            let (p, kind) = at(events[i]);
            if p != pos {
                break;
            }
            counts[kind as usize] += 1;
            i += 1;
        }
        let [ends, planars, starts] = counts;
        n_right -= ends + planars;
        if pos > node_lo && pos < node_hi {
            let nl = n_left + planars;
            let cost = sah.split_cost_in(node, area, axis, pos, nl, n_right, n);
            if best.is_none_or(|b| cost < b.cost) {
                best = Some(SplitPlane {
                    axis,
                    pos,
                    cost,
                    n_left: nl,
                    n_right,
                });
            }
        }
        n_left += starts + planars;
    }
    best
}

/// Reduces per-axis candidates in axis order with a strict comparison, so
/// ties resolve to the earliest axis.
fn min_cost(candidates: [Option<SplitPlane>; 3]) -> Option<SplitPlane> {
    candidates
        .into_iter()
        .flatten()
        .reduce(|best, p| if p.cost < best.cost { p } else { best })
}

/// Finds the minimum-SAH-cost plane over a node's presorted per-axis event
/// lists (`n` primitives). With `fork`, the three sweeps run as rayon
/// tasks; the reduction is the same, so the plane is too.
pub(crate) fn best_split_presorted(
    events: [&[Event]; 3],
    n: usize,
    node: &Aabb,
    sah: &SahParams,
    fork: bool,
) -> Option<SplitPlane> {
    let sweep = |axis: Axis| {
        let at = |e: Event| (e.pos(), e.kind());
        sweep_events(events[axis as usize], at, n, node, sah, axis)
    };
    if fork {
        let ((x, y), z) = rayon::join(
            || rayon::join(|| sweep(Axis::X), || sweep(Axis::Y)),
            || sweep(Axis::Z),
        );
        min_cost([x, y, z])
    } else {
        min_cost(Axis::ALL.map(sweep))
    }
}

/// Finds the minimum-SAH-cost split plane over all three axes with the
/// event sweep. Returns `None` when no candidate plane lies strictly
/// inside the node (e.g. all primitives span the whole node).
pub fn best_split_sweep(bounds: &[Aabb], node: &Aabb, sah: &SahParams) -> Option<SplitPlane> {
    let indices: Vec<u32> = (0..bounds.len() as u32).collect();
    best_split_sweep_idx(bounds, &indices, node, sah)
}

/// Indexed variant of [`best_split_sweep`]: searches only the primitives in
/// `indices`, sorting their events afresh for this one node.
pub fn best_split_sweep_idx(
    bounds: &[Aabb],
    indices: &[u32],
    node: &Aabb,
    sah: &SahParams,
) -> Option<SplitPlane> {
    min_cost(Axis::ALL.map(|axis| {
        let prims = indices.iter().map(|&i| &bounds[i as usize]);
        let events = collect_events(prims, indices.len(), axis);
        sweep_events(&events, |e| e, indices.len(), node, sah, axis)
    }))
}

/// O(n²) reference implementation of the split search: evaluates the SAH at
/// every candidate plane by recounting from scratch. Used by tests to
/// validate [`best_split_sweep`]; never called on hot paths.
pub fn best_split_naive(bounds: &[Aabb], node: &Aabb, sah: &SahParams) -> Option<SplitPlane> {
    let n = bounds.len();
    let mut best: Option<SplitPlane> = None;
    for axis in Axis::ALL {
        let mut candidates: Vec<f32> = bounds
            .iter()
            .flat_map(|b| [b.min[axis], b.max[axis]])
            .filter(|&p| p > node.min[axis] && p < node.max[axis])
            .collect();
        candidates.sort_unstable_by(|a, b| a.total_cmp(b));
        candidates.dedup();
        for pos in candidates {
            let mut n_left = 0;
            let mut n_right = 0;
            for b in bounds {
                let (l, r) = sides(b, axis, pos);
                n_left += l as usize;
                n_right += r as usize;
            }
            let cost = sah.split_cost(node, axis, pos, n_left, n_right, n);
            if best.is_none_or(|b| cost < b.cost) {
                best = Some(SplitPlane {
                    axis,
                    pos,
                    cost,
                    n_left,
                    n_right,
                });
            }
        }
    }
    best
}

/// Partitions primitive indices by a split plane. Straddlers appear in both
/// outputs; the assignment rule matches the sweep exactly, so the returned
/// list lengths equal the plane's `n_left`/`n_right`.
pub fn classify(bounds: &[Aabb], indices: &[u32], axis: Axis, pos: f32) -> (Vec<u32>, Vec<u32>) {
    let mut left = Vec::with_capacity(indices.len());
    let mut right = Vec::with_capacity(indices.len());
    for &i in indices {
        let (l, r) = sides(&bounds[i as usize], axis, pos);
        if l {
            left.push(i);
        }
        if r {
            right.push(i);
        }
    }
    (left, right)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdtune_geometry::Vec3;
    use proptest::prelude::*;

    fn unit() -> Aabb {
        Aabb::new(Vec3::ZERO, Vec3::ONE)
    }

    fn slab(axis: Axis, lo: f32, hi: f32) -> Aabb {
        let mut b = unit();
        b.min[axis] = lo;
        b.max[axis] = hi;
        b
    }

    #[test]
    fn separable_prims_split_between_clusters() {
        // Two clusters along x: [0.0, 0.2] and [0.8, 1.0].
        let bounds = vec![
            slab(Axis::X, 0.0, 0.2),
            slab(Axis::X, 0.05, 0.18),
            slab(Axis::X, 0.8, 1.0),
            slab(Axis::X, 0.85, 0.95),
        ];
        let plane = best_split_sweep(&bounds, &unit(), &SahParams::default()).unwrap();
        assert_eq!(plane.axis, Axis::X);
        assert!(plane.pos >= 0.2 && plane.pos <= 0.8, "pos = {}", plane.pos);
        assert_eq!(plane.n_left, 2);
        assert_eq!(plane.n_right, 2);
    }

    #[test]
    fn no_candidates_when_all_prims_span_node() {
        let bounds = vec![unit(), unit()];
        assert!(best_split_sweep(&bounds, &unit(), &SahParams::default()).is_none());
        assert!(best_split_naive(&bounds, &unit(), &SahParams::default()).is_none());
    }

    #[test]
    fn empty_input_yields_none() {
        assert!(best_split_sweep(&[], &unit(), &SahParams::default()).is_none());
    }

    #[test]
    fn straddler_counted_on_both_sides() {
        let bounds = vec![
            slab(Axis::X, 0.0, 0.3),
            slab(Axis::X, 0.2, 0.8), // straddles any plane in (0.3, 0.7)
            slab(Axis::X, 0.7, 1.0),
        ];
        let plane = best_split_sweep(&bounds, &unit(), &SahParams::new(17.0, 0.0)).unwrap();
        let (l, r) = classify(&bounds, &[0, 1, 2], plane.axis, plane.pos);
        assert_eq!(l.len(), plane.n_left);
        assert_eq!(r.len(), plane.n_right);
        assert!(l.len() + r.len() >= 3);
    }

    #[test]
    fn planar_prims_go_left() {
        let flat = slab(Axis::X, 0.5, 0.5);
        let (l, r) = sides(&flat, Axis::X, 0.5);
        assert!(l && !r);
        // And straddlers go both ways.
        let wide = slab(Axis::X, 0.2, 0.8);
        let (l, r) = sides(&wide, Axis::X, 0.5);
        assert!(l && r);
    }

    #[test]
    fn classification_matches_plane_counts_with_planars() {
        let bounds = vec![
            slab(Axis::X, 0.5, 0.5),
            slab(Axis::X, 0.0, 0.5),
            slab(Axis::X, 0.5, 1.0),
            slab(Axis::X, 0.1, 0.9),
        ];
        let idx: Vec<u32> = (0..4).collect();
        let plane = best_split_sweep(&bounds, &unit(), &SahParams::default()).unwrap();
        let (l, r) = classify(&bounds, &idx, plane.axis, plane.pos);
        assert_eq!(l.len(), plane.n_left, "plane {plane:?}");
        assert_eq!(r.len(), plane.n_right, "plane {plane:?}");
    }

    #[test]
    fn high_duplication_cost_avoids_straddling_planes() {
        // Prims overlap around x = 0.45; with CB = 0 a straddling split can
        // win, with a huge CB the search must pick the duplication-free
        // plane at x = 0.55.
        let bounds = vec![
            slab(Axis::X, 0.0, 0.45),
            slab(Axis::X, 0.4, 0.55),
            slab(Axis::X, 0.55, 1.0),
        ];
        let cheap = best_split_sweep(&bounds, &unit(), &SahParams::new(17.0, 0.0)).unwrap();
        let costly = best_split_sweep(&bounds, &unit(), &SahParams::new(17.0, 1000.0)).unwrap();
        let dup_cheap = cheap.n_left + cheap.n_right - 3;
        let dup_costly = costly.n_left + costly.n_right - 3;
        assert!(dup_costly <= dup_cheap);
        assert_eq!(dup_costly, 0);
    }

    /// Packed events order exactly as (`total_cmp` position, kind,
    /// primitive) and give back their position bit for bit.
    #[test]
    fn packed_events_keep_total_order_and_bits() {
        let positions = [
            f32::NEG_INFINITY,
            -1.5,
            -0.0,
            0.0,
            1e-30,
            2.5,
            f32::INFINITY,
            f32::NAN,
            -f32::NAN,
        ];
        let kinds = [EventKind::End, EventKind::Planar, EventKind::Start];
        let mut events = Vec::new();
        for (i, &pos) in positions.iter().enumerate() {
            for kind in kinds {
                let e = Event::new(pos, kind, i as u32);
                assert_eq!(e.pos().to_bits(), pos.to_bits());
                assert_eq!((e.kind(), e.prim()), (kind, i));
                events.push((e, pos, kind, i));
            }
        }
        for (a, pa, ka, ia) in &events {
            for (b, pb, kb, ib) in &events {
                let expected = pa
                    .total_cmp(pb)
                    .then((*ka as u8).cmp(&(*kb as u8)))
                    .then(ia.cmp(ib));
                assert_eq!(a.cmp(b), expected, "{pa} {ka:?} vs {pb} {kb:?}");
            }
        }
    }

    fn arb_bounds(n: usize) -> impl Strategy<Value = Vec<Aabb>> {
        proptest::collection::vec(
            (
                (0.0f32..1.0, 0.0f32..1.0, 0.0f32..1.0),
                (0.0f32..1.0, 0.0f32..1.0, 0.0f32..1.0),
            )
                .prop_map(|((ax, ay, az), (bx, by, bz))| {
                    let a = Vec3::new(ax, ay, az);
                    let b = Vec3::new(bx, by, bz);
                    Aabb::new(a.min(b), a.max(b))
                }),
            1..n,
        )
    }

    proptest! {
        /// The sweep finds the same minimum cost as the O(n²) reference.
        #[test]
        fn sweep_matches_naive(bounds in arb_bounds(24)) {
            let sah = SahParams::default();
            let node = unit();
            let s = best_split_sweep(&bounds, &node, &sah);
            let n = best_split_naive(&bounds, &node, &sah);
            match (s, n) {
                (None, None) => {}
                (Some(s), Some(n)) => {
                    prop_assert!((s.cost - n.cost).abs() <= 1e-3 * n.cost.max(1.0),
                        "sweep {s:?} vs naive {n:?}");
                }
                (s, n) => prop_assert!(false, "sweep {s:?} vs naive {n:?}"),
            }
        }

        /// Plane counts always agree with classify, and every primitive
        /// lands on at least one side.
        #[test]
        fn counts_agree_with_classification(bounds in arb_bounds(24)) {
            let sah = SahParams::default();
            let node = unit();
            if let Some(p) = best_split_sweep(&bounds, &node, &sah) {
                let idx: Vec<u32> = (0..bounds.len() as u32).collect();
                let (l, r) = classify(&bounds, &idx, p.axis, p.pos);
                prop_assert_eq!(l.len(), p.n_left);
                prop_assert_eq!(r.len(), p.n_right);
                prop_assert!(l.len() + r.len() >= bounds.len());
                // The plane strictly subdivides the node.
                prop_assert!(p.pos > node.min[p.axis] && p.pos < node.max[p.axis]);
            }
        }

        /// The sweep over presorted lists, forked over the axes or not,
        /// selects exactly the per-node reference plane.
        #[test]
        fn presorted_sweep_matches_per_node_sweep(bounds in arb_bounds(24)) {
            let sah = SahParams::default();
            let node = unit();
            let idx: Vec<u32> = (0..bounds.len() as u32).collect();
            let events = Axis::ALL.map(|axis| sorted_events(&bounds, axis));
            let lists = [&events[0][..], &events[1][..], &events[2][..]];
            let reference = best_split_sweep_idx(&bounds, &idx, &node, &sah);
            for fork in [false, true] {
                let p = best_split_presorted(lists, bounds.len(), &node, &sah, fork);
                prop_assert_eq!(p, reference);
            }
        }

        /// Lowering CB can only lower (or keep) the optimal cost.
        #[test]
        fn cost_monotone_in_cb(bounds in arb_bounds(16)) {
            let node = unit();
            let lo = best_split_sweep(&bounds, &node, &SahParams::new(17.0, 0.0));
            let hi = best_split_sweep(&bounds, &node, &SahParams::new(17.0, 60.0));
            if let (Some(lo), Some(hi)) = (lo, hi) {
                prop_assert!(lo.cost <= hi.cost + 1e-3);
            }
        }
    }
}
