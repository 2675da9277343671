//! The one block fan-out: independent slots split into contiguous
//! chunks, one chunk per scoped thread.
//!
//! Column generation prices its `K` blocks, seeds its decay columns and
//! runs its constraint-graph Dijkstras slot by slot, and the Eq. 19
//! cost build fills its matrix row by row. Each slot reads shared
//! inputs and writes only itself, so a slot runs the same float
//! operations in the same order on any thread, and no result depends on
//! how the slots are split.

use vlp_obs::failpoint;

/// Threads a fan-out over `n` slots uses: the available parallelism
/// capped at `n`, or 1 when `parallel` is off.
pub(crate) fn threads(n: usize, parallel: bool) -> usize {
    if parallel {
        std::thread::available_parallelism()
            .map(|t| t.get())
            .unwrap_or(1)
            .min(n.max(1))
    } else {
        1
    }
}

/// Runs `work(i, &mut slots[i], scratch)` for every slot and collects
/// the results in slot order. With `threads > 1` the slots are split
/// into `threads` contiguous chunks, each run on its own scoped thread
/// with its own `scratch()` and the caller's failpoint scope
/// ([`vlp_obs::failpoint::current`]); otherwise they run inline on the
/// caller's thread with one scratch. Sites without per-slot state pass
/// unit slots (`&mut vec![(); n]`, which allocates nothing).
///
/// Inline, the collection is lazy: collecting into a `Result` stops at
/// the first error, as a serial loop would. Threads run every slot of
/// their chunk, and the first error in slot order wins.
///
/// # Panics
///
/// Re-raises a panic from any worker thread.
pub(crate) fn run<T, S, R, C>(
    threads: usize,
    slots: &mut [T],
    scratch: impl Fn() -> S + Sync,
    work: impl Fn(usize, &mut T, &mut S) -> R + Sync,
) -> C
where
    T: Send,
    R: Send,
    C: FromIterator<R>,
{
    if threads <= 1 || slots.len() <= 1 {
        let mut s = scratch();
        return slots
            .iter_mut()
            .enumerate()
            .map(|(i, slot)| work(i, slot, &mut s))
            .collect();
    }
    let chunk = slots.len().div_ceil(threads);
    let (scratch, work) = (&scratch, &work);
    let faults = failpoint::current();
    std::thread::scope(|scope| {
        let handles: Vec<_> = slots
            .chunks_mut(chunk)
            .enumerate()
            .map(|(t, part)| {
                let faults = faults.clone();
                scope.spawn(move || {
                    let _faults = faults.map(|(plan, key)| failpoint::activate(plan, key));
                    let mut s = scratch();
                    part.iter_mut()
                        .enumerate()
                        .map(|(off, slot)| work(t * chunk + off, slot, &mut s))
                        .collect::<Vec<R>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("fan-out worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use vlp_obs::failpoint::{self, FaultMode, FaultPlan};

    #[test]
    fn workers_inherit_the_callers_failpoint_scope() {
        let plan = Arc::new(FaultPlan::new(3).with("test.fan_out", FaultMode::Always));
        let fired: Vec<bool> = failpoint::scope(plan, 11, || {
            super::run(
                2,
                &mut [(); 6],
                || (),
                |_, _, _| failpoint::should_fail("test.fan_out"),
            )
        });
        assert_eq!(fired, [true; 6]);
    }
}
