//! # cgra-par — minimal data parallelism on scoped threads
//!
//! The benchmark sweeps want rayon-style `par_iter().map()`, but the
//! build environment cannot download crates, so this crate provides the
//! one primitive the repository needs: an order-preserving parallel map
//! with a bounded worker count, built on `std::thread::scope`.
//!
//! Work distribution is dynamic (a shared atomic cursor), so a sweep
//! whose items have wildly different runtimes — exactly the shape of a
//! benchmark × architecture feasibility matrix, where one cell times out
//! at the full budget while its neighbours finish in milliseconds — keeps
//! every worker busy until the queue drains.
//!
//! On unix, the `reactor` module is the same idea applied to I/O: a
//! minimal readiness `reactor::Poller` (epoll on Linux, `poll(2)` on
//! other unixes) standing in for `mio`, used by the `cgra-serve`
//! daemon's event loop.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

#[cfg(unix)]
pub mod reactor;

use std::sync::atomic::{AtomicUsize, Ordering};

/// The number of workers to use when the caller does not say: the
/// machine's available parallelism, or `fallback` when that cannot be
/// determined.
pub fn default_jobs(fallback: usize) -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(fallback)
        .max(1)
}

/// Maps `f` over `items` on up to `jobs` worker threads, preserving input
/// order in the output.
///
/// Items are claimed one at a time from a shared cursor, so long-running
/// items do not serialise behind each other. With `jobs <= 1` (or a
/// single item) the map runs inline on the calling thread — no threads
/// are spawned, which keeps single-job runs identical to a plain
/// sequential loop.
///
/// # Panics
///
/// Panics if any invocation of `f` panics (the panic is propagated after
/// all workers have stopped).
///
/// # Examples
///
/// ```
/// let inputs: Vec<u64> = (0..100).collect();
/// let squares = cgra_par::par_map(4, &inputs, |&x| x * x);
/// assert_eq!(squares[7], 49);
/// assert_eq!(squares.len(), 100);
/// ```
pub fn par_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if jobs <= 1 || n <= 1 {
        return items.iter().map(f).collect();
    }
    let workers = jobs.min(n);
    let cursor = AtomicUsize::new(0);
    let mut per_worker: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(&items[i])));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(local) => local,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for local in &mut per_worker {
        for (i, r) in local.drain(..) {
            results[i] = Some(r);
        }
    }
    results
        .into_iter()
        .map(|r| r.expect("every index was processed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let inputs: Vec<i64> = (0..1000).collect();
        let out = par_map(8, &inputs, |&x| x * 2);
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_job_runs_inline() {
        let tid = std::thread::current().id();
        let out = par_map(1, &[(); 4], |()| std::thread::current().id());
        assert!(out.iter().all(|&t| t == tid));
    }

    #[test]
    fn uneven_work_completes() {
        let inputs: Vec<u64> = (0..32).collect();
        let out = par_map(4, &inputs, |&x| {
            if x % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            x + 1
        });
        assert_eq!(out, (1..=32).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = par_map(4, &[] as &[u32], |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs(4) >= 1);
    }
}
