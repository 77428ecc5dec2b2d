//! A std-only deterministic worker pool for independent benchmark cells.
//!
//! The lineup and robustness runners fan out over independent
//! (scaler × trace × fault-class) cells. Each cell is a pure function of
//! its inputs — the simulator draws every random number from per-run
//! seeds — so running cells on worker threads changes *when* a cell is
//! computed but never *what* it computes. [`parallel_map`] preserves that
//! guarantee structurally:
//!
//! * results are written into per-index slots and read back in input
//!   order, so the output order is independent of thread scheduling, and
//! * the closure receives the item by shared reference and must not
//!   mutate shared state, which the `Fn` bound enforces.
//!
//! No work-stealing library is used (the workspace is offline and
//! dependency-free by policy); a shared atomic cursor hands out the next
//! index, which is all the scheduling these long, coarse cells need.

/// A sensible worker count for CPU-bound cells: the machine's available
/// parallelism, or 1 when it cannot be determined.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Maps `f` over `items` on up to `threads` worker threads and returns
/// the results **in input order**, regardless of which thread finished
/// which item when.
///
/// `f` is called exactly once per item in the common case; should a
/// result slot be unreadable (a poisoned lock after a worker panic), the
/// item is recomputed on the calling thread rather than panicking — `f`
/// must therefore be idempotent, which pure benchmark cells are.
///
/// With `threads <= 1` (or fewer than two items) everything runs on the
/// calling thread with no synchronization at all.
#[expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "the one home for threads and shared state; results merge in input order"
)]
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    if threads <= 1 || items.len() < 2 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let workers = threads.min(items.len());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else {
                    break;
                };
                let result = f(i, item);
                if let Ok(mut slot) = slots[i].lock() {
                    *slot = Some(result);
                }
            });
        }
    });
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.into_inner()
                .ok()
                .flatten()
                // Poisoned or empty slot: recompute sequentially instead
                // of panicking (f is pure, so the value is identical).
                .unwrap_or_else(|| f(i, &items[i]))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_input_order() {
        let items: Vec<u64> = (0..100).collect();
        // Uneven work so completion order differs from input order.
        let out = parallel_map(&items, 8, |i, &x| {
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            x * 2
        });
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<u64>>());
    }

    #[test]
    fn parallel_equals_sequential() {
        let items: Vec<u64> = (0..64).collect();
        let seq = parallel_map(&items, 1, |i, &x| x.wrapping_mul(31).wrapping_add(i as u64));
        let par = parallel_map(&items, 6, |i, &x| x.wrapping_mul(31).wrapping_add(i as u64));
        assert_eq!(seq, par);
    }

    #[test]
    #[expect(clippy::disallowed_types, reason = "counts the workers' calls")]
    fn each_item_computed_once() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let calls = AtomicU64::new(0);
        let items: Vec<u32> = (0..50).collect();
        let out = parallel_map(&items, 4, |_, &x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 50);
        assert_eq!(calls.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn degenerate_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(&empty, 4, |_, &x| x).is_empty());
        assert_eq!(parallel_map(&[7u32], 4, |_, &x| x + 1), vec![8]);
        assert_eq!(parallel_map(&[1u32, 2], 0, |_, &x| x), vec![1, 2]);
    }
}
