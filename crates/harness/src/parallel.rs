//! Deterministic parallel trial engine.
//!
//! Every multi-trial experiment in this crate is embarrassingly parallel:
//! trial `i` is fully determined by `(program, detector, seed_i)`, and the
//! per-trial seeds are pure functions of the trial index. This module fans
//! those trials out over `jobs` workers — the calling thread and
//! `jobs - 1` scoped threads — while keeping the *merged* output
//! bit-identical to a sequential run:
//!
//! * each worker claims the next unclaimed index from one shared atomic
//!   counter, so a worker busy with a slow trial never holds up the
//!   others and there is no static partitioning skew;
//! * each worker keeps its `(index, result)` pairs, and the caller writes
//!   them into index-order slots — the folded aggregation never depends
//!   on thread scheduling;
//! * errors are reported for the lowest failing index, matching what a
//!   sequential loop would have returned first.
//!
//! The worker count is a process-wide setting ([`set_jobs`]) so existing
//! experiment entry points keep their signatures; the CLI's `--jobs N`
//! flag writes it once at startup. The default is `1` (fully sequential).
//!
//! A panic inside `f` propagates out of `run_indexed` with its payload
//! (the other workers first finish the indices left) and takes the whole
//! campaign with it; callers that need to survive per-trial failures
//! should wrap their closures with the [`resilient`](crate::resilient)
//! layer, which catches unwinds per attempt and quarantines persistent
//! failures instead.
//!
//! Resource-governed trials keep the contract: the governor
//! (`pacer-governor`) is a pure function of the per-trial event stream,
//! so its rate steps, breaches, and cancellations land in the trial's own
//! result slot and merge in index order like every other outcome —
//! governed campaigns stay byte-identical at any `--jobs N`.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide worker count for [`run_indexed`]. 0 is treated as 1.
static JOBS: AtomicUsize = AtomicUsize::new(1);

/// Sets the number of worker threads used by [`run_indexed`].
///
/// `1` (the default) runs every task inline on the calling thread. The
/// merged results are identical for any value — only wall-clock time
/// changes.
pub fn set_jobs(jobs: usize) {
    JOBS.store(jobs.max(1), Ordering::Relaxed);
}

/// The currently configured worker count.
pub fn jobs() -> usize {
    JOBS.load(Ordering::Relaxed).max(1)
}

/// Runs `f(0), f(1), …, f(count - 1)` on the configured worker pool and
/// returns the results **in index order**.
///
/// `f` must be a pure function of its index (trial seeds derived from the
/// index, not from shared mutable state); under that contract the returned
/// vector is byte-identical for every `jobs` setting.
pub fn run_indexed<T, F>(count: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_claimed(jobs(), count, f)
}

/// [`run_indexed`] on exactly `workers` workers (at most one per index),
/// the calling thread among them, whatever [`jobs`] says.
pub(crate) fn run_claimed<T, F>(workers: usize, count: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.min(count);
    if workers <= 1 {
        return (0..count).map(f).collect();
    }
    // The counter publishes no data, only which index is whose: results
    // reach the caller through the joins below.
    let next = AtomicUsize::new(0);
    let claim = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= count {
                return done;
            }
            done.push((i, f(i)));
        }
    };
    let mut slots: Vec<Option<T>> = Vec::with_capacity(count);
    slots.resize_with(count, || None);
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(claim)).collect();
        let mut done = claim();
        for helper in helpers {
            match helper.join() {
                Ok(theirs) => done.extend(theirs),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        for (i, value) in done {
            slots[i] = Some(value);
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every index is claimed exactly once"))
        .collect()
}

/// [`run_indexed`] for fallible tasks: returns all results in index order,
/// or the error produced by the **lowest** failing index — exactly what a
/// sequential `for` loop with `?` would have reported first.
///
/// # Errors
///
/// Returns the lowest-index error when any task fails.
pub fn try_run_indexed<T, E, F>(count: usize, f: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    let mut out = Vec::with_capacity(count);
    for result in run_indexed(count, f) {
        out.push(result?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    use super::*;

    /// `set_jobs` writes a process-wide global shared across the test
    /// binary's threads, so every test that changes it runs under this
    /// lock and restores the default on exit.
    static JOBS_GUARD: Mutex<()> = Mutex::new(());

    fn with_jobs<R>(jobs: usize, f: impl FnOnce() -> R) -> R {
        let _guard = JOBS_GUARD.lock().unwrap_or_else(|e| e.into_inner());
        set_jobs(jobs);
        let out = f();
        set_jobs(1);
        out
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let sequential = with_jobs(1, || run_indexed(100, |i| i * i));
        let parallel = with_jobs(4, || run_indexed(100, |i| i * i));
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn results_are_in_index_order() {
        let out = with_jobs(8, || {
            run_indexed(50, |i| {
                // Stagger completion so late indices can finish first.
                if i % 7 == 0 {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                i
            })
        });
        assert_eq!(out, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_counts_work() {
        assert!(run_indexed(0, |i| i).is_empty());
        assert_eq!(run_indexed(1, |i| i + 1), vec![1]);
    }

    #[test]
    fn lowest_index_error_wins() {
        let result: Result<Vec<usize>, usize> = with_jobs(4, || {
            try_run_indexed(64, |i| if i % 10 == 3 { Err(i) } else { Ok(i) })
        });
        assert_eq!(result.unwrap_err(), 3, "same error a sequential loop hits");
    }

    #[test]
    fn the_caller_is_one_of_at_most_jobs_workers() {
        // Every task holds its worker until the caller has run one (or
        // 10 s pass), so the helpers cannot drain the indices first.
        let caller = std::thread::current().id();
        let caller_ran = std::sync::atomic::AtomicBool::new(false);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let ran_on = with_jobs(4, || {
            run_indexed(64, |_| {
                let me = std::thread::current().id();
                if me == caller {
                    caller_ran.store(true, Ordering::SeqCst);
                }
                while !caller_ran.load(Ordering::SeqCst) && std::time::Instant::now() < deadline {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                me
            })
        });
        let threads: std::collections::HashSet<_> = ran_on.into_iter().collect();
        assert!(threads.len() <= 4, "{} workers at --jobs 4", threads.len());
        assert!(threads.contains(&caller), "the caller claims indices too");
    }

    #[test]
    fn a_task_panic_reraises_its_payload() {
        let payload = with_jobs(4, || {
            std::panic::catch_unwind(|| {
                run_indexed(32, |i| {
                    if i == 17 {
                        std::panic::panic_any("task 17 failed");
                    }
                    i
                })
            })
        })
        .unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"task 17 failed"));
    }

    #[test]
    fn a_slow_index_does_not_stall_the_others() {
        // Index 0 holds its worker until every other index is done (or
        // 10 s pass): that happens only if no index is queued behind it.
        let done = AtomicUsize::new(0);
        let saw = with_jobs(2, || {
            run_indexed(40, |i| {
                if i > 0 {
                    done.fetch_add(1, Ordering::SeqCst);
                    return 0;
                }
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
                while done.load(Ordering::SeqCst) < 39 && std::time::Instant::now() < deadline {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                done.load(Ordering::SeqCst)
            })
        });
        assert_eq!(saw[0], 39, "the idle worker absorbs every other index");
    }

    #[test]
    fn zero_jobs_is_clamped_to_one() {
        let _guard = JOBS_GUARD.lock().unwrap_or_else(|e| e.into_inner());
        set_jobs(0);
        assert_eq!(jobs(), 1);
        set_jobs(1);
    }
}
