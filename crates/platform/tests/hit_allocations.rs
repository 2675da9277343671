//! A cache hit allocates nothing on the submitting thread. A counting
//! global allocator counts the allocations this thread makes while
//! armed, and 10,000 warm `submit` calls must make none, in full mode
//! and in locally-relevant mode.
//!
//! The services run without trace budgets: with a budget the ledger
//! inserts one map entry per new vehicle by design.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

use platform::{LocalConfig, MechanismService, Response, Served, ServiceConfig, WorkerId};
use rand::SeedableRng;
use roadnet::{generators, EdgeId, Location};

/// The system allocator, counting what the current thread allocates
/// while it is armed.
struct Counting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            ALLOCATIONS.with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the counter
// never touches the allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` with this thread's allocations counted, returning the count.
fn allocations_in(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|n| n.set(0));
    ARMED.with(|armed| armed.set(true));
    f();
    ARMED.with(|armed| armed.set(false));
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn cache_hits_allocate_nothing() {
    let map = || generators::grid(3, 4, 0.4, true);
    let full = ServiceConfig {
        n_shards: 2,
        delta: 0.2,
        solve_deadline: Duration::ZERO,
        ..ServiceConfig::default()
    };
    let local = ServiceConfig {
        radius: 0.5,
        local: Some(LocalConfig { rho: 0.4 }),
        ..full.clone()
    };
    for (mode, config) in [("full", full), ("local", local)] {
        let mut svc = MechanismService::new(map(), config);
        // One request per on-map edge and ε: every key these requests
        // route to.
        let requests: Vec<(WorkerId, Location, f64)> = (0..map().edge_count())
            .map(|e| Location::new(EdgeId(e), 0.1))
            .filter(|&loc| svc.partition().to_local(loc).is_some())
            .flat_map(|loc| [2.0, 5.0].map(|eps| (loc, eps)))
            .enumerate()
            .map(|(i, (loc, eps))| (WorkerId(i), loc, eps))
            .collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for &(worker, loc, eps) in &requests {
            svc.submit(worker, loc, eps, &mut rng);
        }
        svc.quiesce();

        let allocations = allocations_in(|| {
            for i in 0..10_000 {
                let (worker, loc, eps) = requests[i % requests.len()];
                let response = svc.submit(worker, loc, eps, &mut rng);
                assert!(
                    matches!(
                        response,
                        Response::Served(o) if o.served == Served::Optimal { cached: true }
                    ),
                    "{mode} submit {i} was not a cache hit"
                );
            }
        });
        assert_eq!(allocations, 0, "{mode} mode: 10,000 cache hits allocated");
        svc.shutdown();
    }
}
