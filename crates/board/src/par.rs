//! Runs execute inline; one coarse fan-out forks, under one thread budget.
//!
//! Every step of Figures 1–2 has the shape "all players do X". The paper
//! counts *probes*, not wall-clock, and its phases are synchronous over a
//! free billboard, so the order a phase visits its players in carries no
//! semantics. The rule here: **a run executes on the thread that entered
//! it**. Its phases are plain loops, and its meters (the oracle's ledger
//! and memo, the board, the candidate meter) are single-thread cells, so
//! the compiler rejects sharing one run between threads. [`par_map_coarse`]
//! is the only place the workspace forks for compute, over whole runs and
//! sweep points (CI enforces it). A phase-level fork never paid on any
//! measured workload (DESIGN.md §4.10).
//!
//! # The budget
//!
//! Coarse regions nest: the bench engine fans out over experiments, an
//! experiment over sweep points. A per-level worker cap would multiply
//! across levels; instead every region draws its *extra* workers from one
//! process-wide counter capped at `budget − 1` (a region's calling thread
//! is free: it is the root thread or a worker that already holds a
//! permit). A region takes what is available when it starts, without
//! waiting, and each worker returns its permit the moment the region runs
//! out of items — unwinding included — so freed workers flow to whichever
//! region starts next. Total live workers never exceed the budget at any
//! nesting depth, and no acquisition blocks, so the budget cannot
//! deadlock.
//!
//! The budget defaults to all available cores and can be capped
//! process-wide with [`set_thread_limit`] (plumbed from the bench CLI's
//! `--threads` flag). Results are collected *by item index*, so the cap
//! affects only speed, never results (see `tests/determinism.rs`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Process-wide cap on total workers; 0 means "no cap" (use all
/// available cores).
static THREAD_LIMIT: AtomicUsize = AtomicUsize::new(0);

/// Cap the total number of worker threads across every nested coarse
/// region (`None` restores the default of all available cores).
///
/// The cap is global and takes effect for subsequently started regions;
/// results are identical under any cap by construction. `Some(0)` is
/// clamped to `Some(1)` (fully sequential) — zero is the internal
/// "uncapped" sentinel and must not invert a caller's request for
/// minimal parallelism.
pub fn set_thread_limit(limit: Option<usize>) {
    THREAD_LIMIT.store(limit.map_or(0, |n| n.max(1)), Ordering::Relaxed);
}

/// The current cap set by [`set_thread_limit`], if any.
pub fn thread_limit() -> Option<usize> {
    match THREAD_LIMIT.load(Ordering::Relaxed) {
        0 => None,
        n => Some(n),
    }
}

/// Extra workers currently live across every level of the region
/// hierarchy (beyond each region's own calling thread).
static EXTRA_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// The effective worker budget: the cap, or all available cores.
fn budget() -> usize {
    thread_limit().unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |v| v.get()))
}

/// One extra worker's share of the budget. Dropping returns it, so a
/// worker that unwinds out of a panicking item cannot leak it.
struct Permit;

impl Permit {
    /// Take a permit if the budget has one free; never waits.
    fn try_acquire() -> Option<Permit> {
        let pool = budget().saturating_sub(1);
        // Relaxed: the counter bounds a head count and publishes no data.
        EXTRA_WORKERS
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |live| {
                (live < pool).then_some(live + 1)
            })
            .ok()
            .map(|_| Permit)
    }
}

impl Drop for Permit {
    fn drop(&mut self) {
        EXTRA_WORKERS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Apply `f` to each item on up to `budget` threads, preserving order —
/// the workspace's one compute fork, for *coarse* work items (whole
/// experiments, protocol runs, sweep points) where even two items are
/// worth a thread each. Workers claim items one at a time from a shared
/// cursor and results land by index, so output is bit-identical under any
/// thread count; nested regions share the one budget (module docs), so
/// nesting never multiplies worker counts. A panicking item propagates
/// once every worker of the region has been joined.
pub fn par_map_coarse<I, T, F>(items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    // Each slot is locked once, by the worker that claimed its index; the
    // Mutex only hands the result back across threads.
    let slots: Vec<Mutex<Option<T>>> = items.iter().map(|_| Mutex::new(None)).collect();
    // Relaxed: the cursor only deals out indices; results are published
    // by the slot mutexes and the scope's join.
    let cursor = AtomicUsize::new(0);
    let work = || loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(item) = items.get(i) else { return };
        let out = f(item);
        *slots[i].lock().expect("slot locked only by its claimant") = Some(out);
    };
    std::thread::scope(|scope| {
        for _ in 1..items.len() {
            let Some(permit) = Permit::try_acquire() else {
                break;
            };
            let work = &work;
            scope.spawn(move || {
                let _permit = permit;
                work();
            });
        }
        // The calling thread is always a worker (it holds no permit).
        work();
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().ok().flatten().expect("slot filled"))
        .collect()
}

/// `f` over `0..n`, in order. Kept only because the `perf/` benchmark
/// still calls it; product code writes the loop.
#[doc(hidden)]
pub fn par_map_players<T, F>(n: usize, f: F) -> Vec<T>
where
    F: FnMut(usize) -> T,
{
    (0..n).map(f).collect()
}

/// `f` over `items`, in order. Kept only because the `perf/` benchmark
/// still calls it; product code writes the loop.
#[doc(hidden)]
pub fn par_map_items<I, T, F>(items: &[I], f: F) -> Vec<T>
where
    F: FnMut(&I) -> T,
{
    items.iter().map(f).collect()
}

/// `f(i, &mut items[i])` for every item, in order. Kept only because the
/// `perf/` benchmark still calls it; product code writes the loop.
#[doc(hidden)]
pub fn par_update_items<T, F>(items: &mut [T], mut f: F)
where
    F: FnMut(usize, &mut T),
{
    for (i, item) in items.iter_mut().enumerate() {
        f(i, item);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::thread;
    use std::time::{Duration, Instant};

    /// The thread limit and the extra-worker counter are process-global;
    /// tests that set one or assert on the other must not interleave.
    /// (Poisoning is ignored: a panicked holder already failed its own
    /// assertions.)
    static LIMIT_GATE: Mutex<()> = Mutex::new(());

    fn gate() -> std::sync::MutexGuard<'static, ()> {
        LIMIT_GATE.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// An item body that returns `true` only once two items are running
    /// at the same time, i.e. the region really has a second worker.
    fn rendezvous(arrived: &AtomicUsize) -> bool {
        arrived.fetch_add(1, Ordering::SeqCst);
        let deadline = Instant::now() + Duration::from_secs(10);
        while arrived.load(Ordering::SeqCst) < 2 {
            if Instant::now() > deadline {
                return false;
            }
            thread::yield_now();
        }
        true
    }

    #[test]
    fn results_in_player_order() {
        let out = par_map_players(1000, |p| p * 2);
        assert_eq!(out.len(), 1000);
        for (p, v) in out.iter().enumerate() {
            assert_eq!(*v, p * 2);
        }
    }

    #[test]
    fn each_player_called_once() {
        let calls = AtomicUsize::new(0);
        let out = par_map_players(257, |p| {
            calls.fetch_add(1, Ordering::Relaxed);
            p
        });
        assert_eq!(calls.load(Ordering::Relaxed), 257);
        assert_eq!(out.len(), 257);
    }

    #[test]
    fn empty_and_tiny() {
        assert!(par_map_players(0, |p| p).is_empty());
        assert_eq!(par_map_players(1, |p| p + 1), vec![1]);
        assert!(par_map_coarse(&[] as &[usize], |&i| i).is_empty());
        assert_eq!(par_map_coarse(&[7usize], |&i| i + 1), vec![8]);
    }

    #[test]
    fn par_map_items_preserves_order() {
        let items: Vec<u64> = (0..500).collect();
        let out = par_map_items(&items, |&x| x * x);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i * i) as u64);
        }
    }

    #[test]
    fn matches_sequential_results() {
        let seq: Vec<usize> = (0..300usize).map(|p| p.wrapping_mul(31) ^ 7).collect();
        let par = par_map_players(300, |p: usize| p.wrapping_mul(31) ^ 7);
        assert_eq!(seq, par);
    }

    #[test]
    fn phases_run_in_index_order_on_the_calling_thread() {
        let caller = thread::current().id();
        let seen = Mutex::new(Vec::new());
        let visit = |i: usize| {
            assert_eq!(thread::current().id(), caller, "a phase left its thread");
            seen.lock().unwrap().push(i);
        };
        let items: Vec<usize> = (0..100).collect();
        par_map_players(100, visit);
        par_map_items(&items, |&i| visit(i));
        par_update_items(&mut items.clone(), |i, _| visit(i));
        let expected: Vec<usize> = (0..100).chain(0..100).chain(0..100).collect();
        assert_eq!(*seen.lock().unwrap(), expected);
    }

    #[test]
    fn nested_regions_share_one_pool() {
        // Coarse inside coarse, as `bench/cli.rs::collect` over
        // experiments → `Session::run_sweep` over sweep points: live
        // workers never exceed the budget at either level, and results
        // equal the sequential composition whatever the budget hands out.
        let _gate = gate();
        set_thread_limit(Some(3));
        let (live, high_water) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let outer: Vec<usize> = (0..6).collect();
        let inner: Vec<usize> = (0..4).collect();
        let nested = par_map_coarse(&outer, |&i| {
            par_map_coarse(&inner, |&p| {
                let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                high_water.fetch_max(now, Ordering::SeqCst);
                // Widens the overlap; the bound below holds without it.
                thread::sleep(Duration::from_millis(1));
                live.fetch_sub(1, Ordering::SeqCst);
                p * i
            })
            .into_iter()
            .sum::<usize>()
        });
        set_thread_limit(None);
        let flat: Vec<usize> = outer
            .iter()
            .map(|&i| inner.iter().map(|&p| p * i).sum::<usize>())
            .collect();
        assert_eq!(nested, flat);
        let peak = high_water.load(Ordering::SeqCst);
        assert!(peak <= 3, "{peak} live workers under a budget of 3");
    }

    #[test]
    fn a_panicking_item_returns_its_permit() {
        // The server survives barrier panics by design, so a leaked
        // permit would shrink the budget for the life of the process.
        let _gate = gate();
        set_thread_limit(Some(2));
        let before = EXTRA_WORKERS.load(Ordering::Relaxed);
        let caller = thread::current().id();
        let arrived = AtomicUsize::new(0);
        // Both items are running before the one on the extra worker (the
        // permit holder) panics.
        let crashed = catch_unwind(AssertUnwindSafe(|| {
            par_map_coarse(&[0, 1], |_| {
                let met = rendezvous(&arrived);
                if met && thread::current().id() != caller {
                    panic!("item on the extra worker fails");
                }
                met
            })
        }));
        assert!(crashed.is_err(), "the region swallowed its worker's panic");
        assert_eq!(
            EXTRA_WORKERS.load(Ordering::Relaxed),
            before,
            "the panicking worker leaked its permit"
        );
        let arrived = AtomicUsize::new(0);
        let met = par_map_coarse(&[0, 1], |_| rendezvous(&arrived));
        set_thread_limit(None);
        assert_eq!(met, [true, true], "the next region lost its second worker");
    }

    #[test]
    fn par_update_items_mutates_in_place_once_each() {
        let mut items: Vec<usize> = (0..1000).collect();
        let calls = AtomicUsize::new(0);
        par_update_items(&mut items, |i, v| {
            calls.fetch_add(1, Ordering::Relaxed);
            *v += i;
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1000);
        for (i, v) in items.iter().enumerate() {
            assert_eq!(*v, 2 * i);
        }
        let mut small = vec![7usize; 3];
        par_update_items(&mut small, |i, v| *v += i);
        assert_eq!(small, vec![7, 8, 9]);
        par_update_items(&mut [] as &mut [usize], |_, _: &mut usize| {});
    }
}
