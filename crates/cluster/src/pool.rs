//! The one bounded task pool (DESIGN.md "Write pipeline"): `count`
//! indexed tasks claimed by at most `width` threads, results in index
//! order. Scans, load and delete-vector uploads, the per-peer cache
//! ship and both architectures' query participants all fan out through
//! [`run_indexed`], so the claim rule, the cancel check and the
//! stop-on-failure rule exist once — and this is the one place that
//! decides how a task gets a thread.
//!
//! The calling thread is worker 0 and runs task 0 itself — a query's
//! coordinator runs its own fragment inline. Only `width.min(count) -
//! 1` threads are spawned, so a single slot or a single task runs the
//! same claim loop inline: there is no separate serial implementation
//! to keep in step with the parallel one.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

use eon_obs::Histogram;
use eon_types::{CancelToken, Result};
use parking_lot::Mutex;

/// Run `f(0..count)` on at most `width` threads (the caller included)
/// and return one entry per index: `Some(result)` for every task that
/// was claimed, `None` for the unclaimed suffix.
///
/// * Task 0 is the calling thread's; the others are claimed in index
///   order, so the claimed indices are always a prefix `0..k`.
/// * After any task fails no new task is claimed; tasks already running
///   finish and report (an upload in flight still reaches the store and
///   its caller must hear about it).
/// * A fired `cancel` token is a failure at the claim boundary: the
///   claimed index records the `Err`, so a caller folding the results
///   sees an error, never a truncated success.
/// * `queue_wait`, when given, observes how long after the call each
///   task was claimed, in microseconds.
/// * A panicking task propagates to the caller once the other workers
///   have finished (the guarantee of [`std::thread::scope`]).
pub fn run_indexed<T, F>(
    width: usize,
    count: usize,
    cancel: Option<&CancelToken>,
    queue_wait: Option<&Histogram>,
    f: F,
) -> Vec<Option<Result<T>>>
where
    T: Send,
    F: Fn(usize) -> Result<T> + Sync,
{
    let started = Instant::now();
    // Relaxed on both: the fetch_add alone makes claims unique, `failed`
    // only stops further claims, and results are published through the
    // per-index mutexes and the scope's join. Task 0 is the caller's.
    let next = AtomicUsize::new(1);
    let failed = AtomicBool::new(false);
    let results: Vec<Mutex<Option<Result<T>>>> = (0..count).map(|_| Mutex::new(None)).collect();
    let run = |i: usize| {
        let r = match cancel.map(|c| c.check("pool task claim")) {
            Some(Err(e)) => Err(e),
            _ => {
                if let Some(h) = queue_wait {
                    h.observe(started.elapsed().as_micros() as u64);
                }
                f(i)
            }
        };
        if r.is_err() {
            failed.store(true, Ordering::Relaxed);
        }
        *results[i].lock() = Some(r);
    };
    let worker = || {
        while !failed.load(Ordering::Relaxed) {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= count {
                break;
            }
            run(i);
        }
    };
    std::thread::scope(|s| {
        for _ in 1..width.min(count) {
            s.spawn(worker);
        }
        if count > 0 {
            run(0);
        }
        worker();
    });
    results.into_iter().map(Mutex::into_inner).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use eon_types::EonError;
    use std::sync::Barrier;
    use std::thread::{self, ThreadId};

    #[test]
    fn results_come_back_in_index_order() {
        for width in [1, 2, 8] {
            for count in [0, 1, 7] {
                let out = run_indexed(width, count, None, None, |i| Ok(i * 10));
                let got: Vec<usize> = out.into_iter().map(|r| r.unwrap().unwrap()).collect();
                let want: Vec<usize> = (0..count).map(|i| i * 10).collect();
                assert_eq!(got, want, "width {width} count {count}");
            }
        }
    }

    /// The structural proof that there is no serial twin: one slot, or
    /// one task, runs the claim loop on the thread that called.
    #[test]
    fn one_slot_or_one_task_runs_on_the_calling_thread() {
        let me = thread::current().id();
        for (width, count) in [(1, 5), (8, 1), (0, 3)] {
            let ran_on: Vec<ThreadId> =
                run_indexed(width, count, None, None, |_| Ok(thread::current().id()))
                    .into_iter()
                    .map(|r| r.unwrap().unwrap())
                    .collect();
            assert_eq!(ran_on, vec![me; count], "width {width} count {count}");
        }
    }

    #[test]
    fn the_calling_thread_runs_task_zero() {
        let me = thread::current().id();
        for _ in 0..20 {
            let ran_on = run_indexed(4, 4, None, None, |_| Ok(thread::current().id()));
            assert_eq!(ran_on[0].as_ref().unwrap().as_ref().unwrap(), &me);
        }
    }

    #[test]
    fn wide_pool_spawns_width_minus_one_threads() {
        // Every worker claims one task and waits for the others, so all
        // `width` workers are provably distinct live threads — and the
        // caller is one of them.
        const WIDTH: usize = 4;
        let barrier = Barrier::new(WIDTH);
        let ran_on: Vec<ThreadId> = run_indexed(WIDTH, WIDTH, None, None, |_| {
            barrier.wait();
            Ok(thread::current().id())
        })
        .into_iter()
        .map(|r| r.unwrap().unwrap())
        .collect();
        let distinct: std::collections::HashSet<_> = ran_on.iter().collect();
        assert_eq!(distinct.len(), WIDTH);
        assert!(ran_on.contains(&thread::current().id()));
    }

    #[test]
    fn failure_stops_claims_and_leaves_a_none_suffix() {
        for width in [1, 2, 8] {
            let out = run_indexed(width, 40, None, None, |i| {
                if i == 3 {
                    Err(EonError::Internal("task 3".into()))
                } else {
                    Ok(i)
                }
            });
            let claimed = out.iter().take_while(|r| r.is_some()).count();
            assert!(claimed > 3, "width {width}: the failing task was claimed");
            assert!(
                out[claimed..].iter().all(|r| r.is_none()),
                "width {width}: claimed indices must be a prefix"
            );
            assert!(matches!(out[3], Some(Err(EonError::Internal(_)))));
            if width == 1 {
                assert_eq!(claimed, 4, "one worker stops at the failure");
            }
        }
    }

    #[test]
    fn token_fired_mid_run_is_an_err_at_a_claimed_index() {
        for width in [1, 3] {
            let cancel = CancelToken::new();
            let out = run_indexed(width, 20, Some(&cancel), None, |i| {
                if i == 2 {
                    cancel.cancel();
                }
                // Later tasks claimed before the token fires stay in
                // flight until it does, so some claim comes after it.
                while i > 2 && !cancel.is_cancelled() {
                    thread::yield_now();
                }
                Ok(i)
            });
            let claimed = out.iter().take_while(|r| r.is_some()).count();
            assert!(claimed < 20, "width {width}: cancel must stop the pool");
            assert!(
                out[..claimed]
                    .iter()
                    .any(|r| matches!(r, Some(Err(EonError::Cancelled(_))))),
                "width {width}: a cancelled run must not look like a short success"
            );
            assert!(out[claimed..].iter().all(|r| r.is_none()));
        }
    }

    #[test]
    fn panicking_task_propagates() {
        for width in [1, 4] {
            let caught = std::panic::catch_unwind(|| {
                run_indexed(width, 4, None, None, |i| -> Result<usize> {
                    if i == 1 {
                        panic!("task 1 panicked");
                    }
                    Ok(i)
                })
            });
            assert!(caught.is_err(), "width {width}");
        }
    }
}
