//! The builders' and the renderer's fork-join substrate.
//!
//! Choi et al. describe the nested and in-place algorithms as "essentially
//! a sequence of parallel prefix operations". Here the builders' in-node
//! parallelism is the partition of a node's presorted lists (one task per
//! list, see `build.rs`), and the breadth-first builder fans each level's
//! decisions out through [`par_map`] before a sequential prefix scan
//! hands out the child slots.
//!
//! All fan-out is built on `rayon::join` (the one primitive guaranteed to
//! fork real tasks) via [`par_map`], rather than on parallel-iterator
//! combinators — so results stay element-for-element deterministic because
//! the halves are recombined in order.

/// Join-based ordered parallel map: splits `items` in halves down to
/// roughly `tasks` leaf tasks, maps each leaf sequentially, and
/// concatenates the results in input order. With `tasks <= 1` this is an
/// ordinary sequential map.
///
/// Public because the renderer fans its tiles out through the same
/// primitive: `rayon::join` is the one operation the thread pool
/// guarantees to fork, so build and render share one parallel substrate.
pub fn par_map<T, O, F>(mut items: Vec<T>, tasks: usize, f: &F) -> Vec<O>
where
    T: Send,
    O: Send,
    F: Fn(T) -> O + Sync,
{
    if tasks <= 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let right = items.split_off(items.len() / 2);
    let (mut left, right) = rayon::join(
        || par_map(items, tasks / 2, f),
        || par_map(right, tasks - tasks / 2, f),
    );
    left.extend(right);
    left
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The regression this PR exists for: the breadth-first fan-out must
    /// actually run on multiple OS threads when the pool is wide, and
    /// stay on the calling thread when it is not.
    #[test]
    fn par_map_fans_out_onto_real_threads() {
        use std::collections::HashSet;
        use std::sync::{Condvar, Mutex};
        use std::thread::ThreadId;
        use std::time::Duration;

        let wide = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        // Two leaves, one join: the shim publishes the right leaf (item
        // 1) to the pool and runs the left (item 0) inline. The inline
        // leaf blocks until the published leaf reports which thread it
        // started on, so the two leaves *must* overlap on distinct
        // threads — no worker ever starting it is a timed-out failure,
        // not a silent pass, and no outcome depends on sleep timing.
        let started: (Mutex<Option<ThreadId>>, Condvar) = (Mutex::new(None), Condvar::new());
        let ids: Vec<ThreadId> = wide.install(|| {
            par_map(vec![0usize, 1], 2, &|item| {
                let me = std::thread::current().id();
                if item == 1 {
                    *started.0.lock().unwrap() = Some(me);
                    started.1.notify_all();
                } else {
                    let (slot, timeout) = started
                        .1
                        .wait_timeout_while(
                            started.0.lock().unwrap(),
                            Duration::from_secs(30),
                            |s| s.is_none(),
                        )
                        .unwrap();
                    assert!(
                        !timeout.timed_out(),
                        "no pool worker ever picked up the published leaf"
                    );
                    assert_ne!(
                        slot.expect("signalled"),
                        me,
                        "the published leaf ran on the submitting thread"
                    );
                }
                me
            })
        });
        assert_eq!(ids.iter().collect::<HashSet<_>>().len(), 2);

        let narrow = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let items: Vec<usize> = (0..64).collect();
        let ids: Vec<ThreadId> =
            narrow.install(|| par_map(items, 4, &|_| std::thread::current().id()));
        assert!(
            ids.iter().collect::<HashSet<_>>().len() == 1,
            "1-thread pool must run everything on the calling thread"
        );
    }

    /// Order preservation: results line up with inputs whatever the split.
    #[test]
    fn par_map_preserves_order() {
        for tasks in [1, 2, 3, 7, 64] {
            let out = par_map((0..100).collect::<Vec<i32>>(), tasks, &|x| x * 2);
            assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<i32>>());
        }
    }
}
