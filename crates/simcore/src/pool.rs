//! Deterministic parallel execution of independent simulation tasks.
//!
//! Every study in this workspace fans out over *independent* design
//! points, scenarios, or servers: each task seeds its own [`SimRng`]
//! stream (see [`SimRng::stream`]) and shares no mutable state with its
//! siblings. That independence makes parallelism trivial to get right —
//! as long as the executor never lets scheduling order leak into
//! results. [`ThreadPool::par_map`] guarantees exactly that: results come
//! back in **input order**, each task sees only its own index and input,
//! and therefore the output is bit-identical at any thread count,
//! including one.
//!
//! The pool is std-only (scoped threads, no work-stealing runtime):
//! tasks here are coarse — whole simulator runs taking milliseconds to
//! seconds — so an atomic-counter work queue is both simple and within
//! noise of fancier schedulers.
//!
//! # Example
//! ```
//! use wcs_simcore::pool::ThreadPool;
//! use wcs_simcore::SimRng;
//!
//! let seeds: Vec<u64> = (0..16).collect();
//! let serial = ThreadPool::serial();
//! let parallel = ThreadPool::new(4).unwrap();
//! let f = |i: usize, &seed: &u64| SimRng::stream(seed, i as u64).next_u64();
//! assert_eq!(serial.par_map(&seeds, f), parallel.par_map(&seeds, f));
//! ```

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::error::ConfigError;
use crate::watchdog::{CancelToken, Watchdog};

/// A boxed one-shot job for [`ThreadPool::par_tasks`].
pub type Task<'a, R> = Box<dyn FnOnce() -> R + Send + 'a>;

/// A worker panic caught and isolated to its own cell by one of the
/// `*_isolated` / `*_watched` pool entry points.
///
/// Panics in this workspace's tasks are pure functions of `(index, item)` —
/// tasks share no mutable state — so whether a cell panics is deterministic
/// and thread-count invariant, even though *when* it panics is not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPanic {
    /// Input-order index of the cell that panicked.
    pub index: usize,
    /// Rendered panic payload (the `panic!` message when it was a string).
    pub message: String,
    /// True when this panic came from the retry attempt — i.e. the cell
    /// failed twice and is being reported as permanently poisoned.
    pub retried: bool,
}

impl fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let attempt = if self.retried {
            "panicked twice"
        } else {
            "panicked"
        };
        write!(f, "task {} {attempt}: {}", self.index, self.message)
    }
}

impl std::error::Error for TaskPanic {}

/// Recovery counters aggregated across one isolated pool call.
///
/// `panics_caught` counts every caught unwind (first attempts and retries);
/// `retries` counts retry attempts made. Both are pure functions of the
/// input cells, so they are deterministic across thread counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolRecovery {
    /// Worker panics caught by `catch_unwind` (includes failed retries).
    pub panics_caught: u64,
    /// Retry attempts made after a first-attempt panic.
    pub retries: u64,
}

impl PoolRecovery {
    /// Combine counters from two calls.
    pub fn merge(self, other: PoolRecovery) -> PoolRecovery {
        PoolRecovery {
            panics_caught: self.panics_caught + other.panics_caught,
            retries: self.retries + other.retries,
        }
    }
}

/// Lock a mutex, recovering from poisoning: every slot mutation here is a
/// single `*guard = Some(..)` store, so a panic while holding the lock
/// cannot leave partially-written data behind.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Render a panic payload into a human-readable message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A scoped-thread work pool executing independent tasks with
/// order-preserving results.
///
/// Cheap to construct and to clone (it holds only a thread count);
/// threads are spawned per call and joined before the call returns, so
/// borrowed data flows into tasks freely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// A pool with exactly `threads` workers.
    ///
    /// # Errors
    /// Rejects a zero thread count.
    pub fn new(threads: usize) -> Result<Self, ConfigError> {
        if threads == 0 {
            return Err(ConfigError::ZeroCount { param: "threads" });
        }
        Ok(ThreadPool { threads })
    }

    /// A single-threaded pool: every call runs inline on the caller's
    /// thread. The deterministic reference all other thread counts are
    /// measured against.
    pub fn serial() -> Self {
        ThreadPool { threads: 1 }
    }

    /// A pool sized to the machine's available parallelism (1 when the
    /// runtime cannot tell).
    pub fn available() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ThreadPool { threads }
    }

    /// The worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `items` on the pool, returning results in **input
    /// order**.
    ///
    /// `f` receives each item's index alongside the item so tasks can
    /// derive per-task seeds ([`SimRng::stream`](crate::SimRng::stream))
    /// without sharing a generator. Because tasks only depend on
    /// `(index, item)`, the output is bit-identical for every thread
    /// count.
    ///
    /// # Panics
    /// Propagates the first worker panic after all threads join.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let workers = self.threads.min(items.len());
        if workers <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let r = f(i, &items[i]);
                    *lock_recover(&slots[i]) = Some(r);
                });
            }
        });
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .expect("worker filled every slot")
            })
            .collect()
    }

    /// Runs heterogeneous one-shot jobs on the pool, returning their
    /// results in input order.
    ///
    /// The fan-out counterpart of [`par_map`](Self::par_map) for stages
    /// whose tasks differ in *kind*, not just input — e.g. a fault
    /// study's scenario runs next to its blade-outage assessments.
    ///
    /// # Panics
    /// Propagates the first worker panic after all threads join.
    pub fn par_tasks<'a, R: Send>(&self, tasks: Vec<Task<'a, R>>) -> Vec<R> {
        let workers = self.threads.min(tasks.len());
        if workers <= 1 {
            return tasks.into_iter().map(|t| t()).collect();
        }
        let n = tasks.len();
        let next = AtomicUsize::new(0);
        let jobs: Vec<Mutex<Option<Task<'a, R>>>> =
            tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let task = lock_recover(&jobs[i]).take().expect("each job taken once");
                    let r = task();
                    *lock_recover(&slots[i]) = Some(r);
                });
            }
        });
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .expect("worker filled every slot")
            })
            .collect()
    }

    /// Like [`par_map`](Self::par_map) but each cell runs under
    /// `catch_unwind`: a panicking cell becomes `Err(TaskPanic)` in its own
    /// slot while every other cell completes normally. A cell that panics
    /// on the first attempt is retried exactly once (tasks are pure, so a
    /// second failure means the cell is deterministically poisoned).
    pub fn par_map_isolated<T, R, F>(
        &self,
        items: &[T],
        f: F,
    ) -> (Vec<Result<R, TaskPanic>>, PoolRecovery)
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.par_map_watched(items, None, |i, item, _token| f(i, item))
    }

    /// [`par_map_isolated`](Self::par_map_isolated) with an optional
    /// deadline [`Watchdog`]: each attempt of each cell is registered with
    /// the watchdog and handed a [`CancelToken`] that the monitor thread
    /// sets once the cell overruns its budget. Cancellation is cooperative
    /// — `f` polls the token at convenient boundaries and returns a
    /// degraded result; the pool never kills a thread.
    ///
    /// With `watchdog: None` every cell receives a never-firing token, so
    /// results stay pure functions of `(index, item)` and bit-identical
    /// across thread counts.
    pub fn par_map_watched<T, R, F>(
        &self,
        items: &[T],
        watchdog: Option<&Watchdog>,
        f: F,
    ) -> (Vec<Result<R, TaskPanic>>, PoolRecovery)
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T, &CancelToken) -> R + Sync,
    {
        let panics = AtomicU64::new(0);
        let retries = AtomicU64::new(0);
        let run_cell = |i: usize| -> Result<R, TaskPanic> {
            let attempt = |retried: bool| -> Result<R, TaskPanic> {
                let guard = watchdog.map(|w| w.watch());
                let token = guard
                    .as_ref()
                    .map(|g| g.token().clone())
                    .unwrap_or_default();
                match catch_unwind(AssertUnwindSafe(|| f(i, &items[i], &token))) {
                    Ok(r) => Ok(r),
                    Err(payload) => {
                        panics.fetch_add(1, Ordering::Relaxed);
                        Err(TaskPanic {
                            index: i,
                            message: panic_message(payload.as_ref()),
                            retried,
                        })
                    }
                }
            };
            match attempt(false) {
                Ok(r) => Ok(r),
                Err(_first) => {
                    retries.fetch_add(1, Ordering::Relaxed);
                    attempt(true)
                }
            }
        };
        let workers = self.threads.min(items.len());
        let results: Vec<Result<R, TaskPanic>> = if workers <= 1 {
            (0..items.len()).map(run_cell).collect()
        } else {
            let next = AtomicUsize::new(0);
            let slots: Vec<Mutex<Option<Result<R, TaskPanic>>>> =
                items.iter().map(|_| Mutex::new(None)).collect();
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        *lock_recover(&slots[i]) = Some(run_cell(i));
                    });
                }
            });
            slots
                .into_iter()
                .map(|m| {
                    m.into_inner()
                        .unwrap_or_else(PoisonError::into_inner)
                        .expect("worker filled every slot")
                })
                .collect()
        };
        let recovery = PoolRecovery {
            panics_caught: panics.load(Ordering::Relaxed),
            retries: retries.load(Ordering::Relaxed),
        };
        (results, recovery)
    }

    /// Maps a fallible `f` over `items`, returning either every result in
    /// input order or the error of the **lowest-indexed** failing item —
    /// the same error a serial loop would have surfaced first, regardless
    /// of which worker finished when.
    ///
    /// # Panics
    /// Propagates the first worker panic after all threads join.
    pub fn try_par_map<T, R, E, F>(&self, items: &[T], f: F) -> Result<Vec<R>, E>
    where
        T: Sync,
        R: Send,
        E: Send,
        F: Fn(usize, &T) -> Result<R, E> + Sync,
    {
        let mut out = Vec::with_capacity(items.len());
        for r in self.par_map(items, f) {
            out.push(r?);
        }
        Ok(out)
    }
}

impl Default for ThreadPool {
    fn default() -> Self {
        Self::available()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<u64> = (0..257).collect();
        for threads in [1, 2, 3, 8, 64] {
            let pool = ThreadPool::new(threads).unwrap();
            let out = pool.par_map(&items, |i, &x| {
                // Uneven task costs so completion order scrambles.
                let spin = (x * 37) % 101;
                let mut acc = 0u64;
                for k in 0..spin * 50 {
                    acc = acc.wrapping_add(k);
                }
                std::hint::black_box(acc);
                (i as u64, x * 2)
            });
            assert_eq!(out.len(), items.len());
            for (i, (idx, doubled)) in out.iter().enumerate() {
                assert_eq!(*idx, i as u64, "threads={threads}");
                assert_eq!(*doubled, items[i] * 2);
            }
        }
    }

    #[test]
    fn results_are_thread_count_invariant() {
        let seeds: Vec<u64> = (0..40).collect();
        let f = |i: usize, &s: &u64| {
            let mut rng = SimRng::stream(s, i as u64);
            (0..100)
                .map(|_| rng.next_u64())
                .fold(0u64, u64::wrapping_add)
        };
        let reference = ThreadPool::serial().par_map(&seeds, f);
        for threads in [2, 4, 8] {
            let got = ThreadPool::new(threads).unwrap().par_map(&seeds, f);
            assert_eq!(reference, got, "threads={threads}");
        }
    }

    #[test]
    fn par_tasks_orders_heterogeneous_jobs() {
        let pool = ThreadPool::new(4).unwrap();
        let tasks: Vec<Task<'_, u64>> = (0..20u64)
            .map(|i| Box::new(move || i * i) as Task<'_, u64>)
            .collect();
        let out = pool.par_tasks(tasks);
        assert_eq!(out, (0..20u64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn try_par_map_reports_first_error_in_input_order() {
        let items: Vec<u64> = (0..64).collect();
        let pool = ThreadPool::new(8).unwrap();
        let r: Result<Vec<u64>, u64> =
            pool.try_par_map(&items, |_, &x| if x % 7 == 3 { Err(x) } else { Ok(x) });
        // Serial would fail at x = 3 first; parallel must agree.
        assert_eq!(r.unwrap_err(), 3);
        let ok: Result<Vec<u64>, u64> = pool.try_par_map(&items, |_, &x| Ok(x + 1));
        assert_eq!(ok.unwrap(), (1..65).collect::<Vec<_>>());
    }

    #[test]
    fn rejects_zero_threads() {
        assert!(matches!(
            ThreadPool::new(0),
            Err(ConfigError::ZeroCount { param: "threads" })
        ));
        assert!(ThreadPool::available().threads() >= 1);
    }

    #[test]
    fn panicking_cell_is_isolated_and_others_complete() {
        let items: Vec<u64> = (0..64).collect();
        for threads in [1, 2, 8] {
            let pool = ThreadPool::new(threads).unwrap();
            let (out, recovery) = pool.par_map_isolated(&items, |_, &x| {
                if x % 13 == 5 {
                    panic!("poisoned cell {x}");
                }
                x * 3
            });
            assert_eq!(out.len(), items.len());
            for (i, r) in out.iter().enumerate() {
                if items[i] % 13 == 5 {
                    let e = r.as_ref().unwrap_err();
                    assert_eq!(e.index, i);
                    assert!(e.retried, "second attempt also panics");
                    assert!(e.message.contains("poisoned cell"));
                } else {
                    assert_eq!(*r.as_ref().unwrap(), items[i] * 3, "threads={threads}");
                }
            }
            // 5 poisoned cells (5, 18, 31, 44, 57): each panics twice.
            assert_eq!(recovery.retries, 5, "threads={threads}");
            assert_eq!(recovery.panics_caught, 10, "threads={threads}");
        }
    }

    #[test]
    fn retry_once_recovers_flaky_cell() {
        use std::sync::atomic::AtomicU64;
        // A cell that panics on its first attempt only; the retry succeeds.
        let attempts = AtomicU64::new(0);
        let items = [7u64];
        let pool = ThreadPool::serial();
        let (out, recovery) = pool.par_map_isolated(&items, |_, &x| {
            if attempts.fetch_add(1, Ordering::Relaxed) == 0 {
                panic!("transient failure");
            }
            x + 1
        });
        assert_eq!(out[0].as_ref().unwrap(), &8);
        assert_eq!(
            recovery,
            PoolRecovery {
                panics_caught: 1,
                retries: 1
            }
        );
    }

    #[test]
    fn isolated_results_are_thread_count_invariant() {
        let items: Vec<u64> = (0..40).collect();
        let f = |i: usize, &s: &u64| {
            if s % 11 == 7 {
                panic!("cell {i} poisoned");
            }
            SimRng::stream(s, i as u64).next_u64()
        };
        let (reference, ref_rec) = ThreadPool::serial().par_map_isolated(&items, f);
        for threads in [2, 8] {
            let (got, rec) = ThreadPool::new(threads)
                .unwrap()
                .par_map_isolated(&items, f);
            assert_eq!(reference, got, "threads={threads}");
            assert_eq!(ref_rec, rec, "threads={threads}");
        }
    }

    #[test]
    fn watched_token_cancels_cooperatively() {
        use crate::watchdog::Watchdog;
        use std::time::Duration;
        let wd = Watchdog::new(Duration::from_millis(5));
        let pool = ThreadPool::new(2).unwrap();
        let items = [0u64, 1];
        let (out, _) = pool.par_map_watched(&items, Some(&wd), |_, &x, token| {
            if x == 0 {
                return "fast";
            }
            // Slow cell: loop until the watchdog cancels us.
            let start = std::time::Instant::now();
            while !token.is_cancelled() {
                if start.elapsed() > Duration::from_secs(10) {
                    return "watchdog never fired";
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            "degraded"
        });
        assert_eq!(out[0].as_ref().unwrap(), &"fast");
        assert_eq!(out[1].as_ref().unwrap(), &"degraded");
        assert!(wd.deadline_cancels() >= 1);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let pool = ThreadPool::new(8).unwrap();
        let out: Vec<u64> = pool.par_map(&[] as &[u64], |_, &x| x);
        assert!(out.is_empty());
        let out = pool.par_tasks(Vec::<Task<'_, u64>>::new());
        assert!(out.is_empty());
    }
}
