//! Deterministic scoped-thread fan-out for embarrassingly parallel jobs.
//!
//! Simulation cells (platform × workload, or sweep points) share no
//! state: each builds its own [`System`](crate::system::System) from a
//! cloned config. Running them on scoped threads therefore produces
//! *bit-identical* results to the serial path — every job computes the
//! same `SimReport` regardless of which worker runs it or when — and
//! [`par_map_indexed`] additionally returns results in input order.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use ohm_sim::{ExponentialBackoff, Ps};

/// The default worker count: the machine's available parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Index of the most recently reported panicked cell, offset by one so 0
/// means "none yet". Diagnostic only — read by tests to assert the
/// failing-cell report fires on every path.
static LAST_PANICKED_CELL: AtomicUsize = AtomicUsize::new(0);

/// Reports a panicking cell on stderr before it is rethrown (strict
/// paths) or converted into a [`CellError`] (the `try` paths). Every
/// execution path funnels through here so the "failing cell index"
/// report is guaranteed regardless of `threads`.
fn report_cell_panic(i: usize, action: &str) {
    LAST_PANICKED_CELL.store(i + 1, Ordering::Relaxed);
    eprintln!("par_map_indexed: job for cell {i} panicked; {action}");
}

/// Renders a caught panic payload as a message: the `&str` / `String`
/// payloads `panic!` produces pass through verbatim, anything else
/// becomes a placeholder.
fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic payload>".to_string())
}

#[cfg(test)]
fn last_panicked_cell() -> Option<usize> {
    LAST_PANICKED_CELL.load(Ordering::Relaxed).checked_sub(1)
}

/// Maps `job` over `0..n` on up to `threads` scoped worker threads,
/// returning results in index order.
///
/// Workers pull the next index from a shared counter (dynamic load
/// balancing — simulation cells vary widely in cost) and tag each result
/// with its index; the tags scatter results back into input order, so
/// the output is independent of scheduling. With `threads <= 1` (or a
/// single job) the map runs inline on the caller's thread.
///
/// # Panics
///
/// If a job panics, the failing cell index is reported on stderr and the
/// job's *original* panic payload is rethrown (`resume_unwind`) after
/// the remaining workers wind down, so the caller sees the real failure
/// rather than a generic join error.
pub fn par_map_indexed<R, F>(n: usize, threads: usize, job: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 {
        // Inline path: same panic protocol as the threaded path below —
        // report the failing cell index, then rethrow the original payload.
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            match catch_unwind(AssertUnwindSafe(|| job(i))) {
                Ok(r) => out.push(r),
                Err(payload) => {
                    report_cell_panic(i, "rethrowing");
                    resume_unwind(payload);
                }
            }
        }
        return out;
    }

    let next = AtomicUsize::new(0);
    // A panicked cell flips this so the other workers stop pulling new
    // indices instead of burning through the rest of the grid.
    let poisoned = AtomicBool::new(false);
    let mut tagged: Vec<(usize, R)> = Vec::with_capacity(n);
    let mut failures: Vec<(usize, Box<dyn std::any::Any + Send>)> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let next = &next;
                let poisoned = &poisoned;
                let job = &job;
                s.spawn(move || {
                    let mut local = Vec::new();
                    let mut caught = None;
                    loop {
                        if poisoned.load(Ordering::Relaxed) {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        match catch_unwind(AssertUnwindSafe(|| job(i))) {
                            Ok(r) => local.push((i, r)),
                            Err(payload) => {
                                poisoned.store(true, Ordering::Relaxed);
                                caught = Some((i, payload));
                                break;
                            }
                        }
                    }
                    (local, caught)
                })
            })
            .collect();
        for h in handles {
            let (local, caught) = h.join().expect("worker thread itself panicked");
            tagged.extend(local);
            failures.extend(caught);
        }
    });
    if !failures.is_empty() {
        // Several workers can panic in the same scheduling window; every
        // failing index must be reported, not just whichever worker was
        // joined first.
        failures.sort_by_key(|(i, _)| *i);
        for (i, _) in &failures {
            report_cell_panic(*i, "rethrowing");
        }
        if failures.len() == 1 {
            // Single failure: rethrow the job's original payload so the
            // caller sees the real panic, not a wrapper.
            resume_unwind(failures.pop().expect("non-empty").1);
        }
        let detail: Vec<String> = failures
            .iter()
            .map(|(i, p)| format!("cell {i}: {}", payload_message(p.as_ref())))
            .collect();
        resume_unwind(Box::new(format!(
            "{} cells panicked — {}",
            failures.len(),
            detail.join("; ")
        )));
    }

    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in tagged {
        debug_assert!(slots[i].is_none(), "index {i} produced twice");
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|r| r.expect("every index produces exactly one result"))
        .collect()
}

/// [`par_map_indexed`] that additionally measures the wall-clock time of
/// each job, returning `(result, elapsed)` pairs in index order.
///
/// The timing is harness-side profiling only — it never feeds back into
/// simulated results, which stay deterministic.
pub fn par_map_indexed_profiled<R, F>(n: usize, threads: usize, job: F) -> Vec<(R, Duration)>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    par_map_indexed(n, threads, |i| {
        let t0 = std::time::Instant::now();
        let r = job(i);
        (r, t0.elapsed())
    })
}

/// A cell that could not produce a result: it panicked on every allowed
/// attempt, or ran past the wall-clock deadline.
///
/// Produced by [`par_try_map_indexed`]; surfaced by the runner as a
/// quarantined or timed-out [`CellOutcome`](crate::runner::CellOutcome).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellError {
    /// The cell's index in `0..n` (row-major grid order in the runner).
    pub index: usize,
    /// The panic payload rendered as text (or a deadline message).
    pub payload: String,
    /// How many attempts were made before giving up.
    pub attempts: u32,
    /// `true` when the cell was abandoned for exceeding the deadline
    /// rather than panicking. Timed-out cells are never retried.
    pub timed_out: bool,
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cell {} failed after {} attempt{}: {}",
            self.index,
            self.attempts,
            if self.attempts == 1 { "" } else { "s" },
            self.payload
        )
    }
}

impl std::error::Error for CellError {}

/// Fault-isolation policy for [`par_try_map_indexed`]: how often a
/// panicking cell is retried, how retries are spaced, and how long any
/// single attempt may run.
///
/// The backoff schedule is the simulator's own [`ExponentialBackoff`],
/// re-used here for *wall-clock* waits: a [`Ps`] delay is slept as the
/// same span of real time (truncated to the nanosecond, `Duration`'s
/// resolution) — `Ps::from_ms(50)` means 50 ms of wall clock here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries allowed after the first attempt (0 = one attempt only).
    pub max_retries: u32,
    /// Wall-clock spacing between attempts (1-based, attempt 0 free).
    pub backoff: ExponentialBackoff,
    /// Wall-clock budget for a single attempt; `None` disables the
    /// watchdog entirely (no monitor thread is spawned).
    pub deadline: Option<Duration>,
}

impl RetryPolicy {
    /// One attempt, no waiting, no watchdog — pure panic-to-error
    /// conversion.
    pub const NONE: RetryPolicy = RetryPolicy {
        max_retries: 0,
        backoff: ExponentialBackoff::NONE,
        deadline: None,
    };
}

/// Converts a [`Ps`] backoff delay into the wall-clock sleep it stands
/// for in a [`RetryPolicy`]: the same span of real time, truncated to
/// `Duration`'s nanosecond resolution.
fn wall(d: Ps) -> Duration {
    Duration::from_nanos(d.as_ps() / 1_000)
}

/// What a single watchdogged attempt produced.
enum AttemptError {
    Panicked(String),
    TimedOut(Duration),
}

/// Runs one attempt of `job(i)`, catching panics; with a deadline the
/// job runs on a detached monitor thread and the attempt is abandoned
/// (the thread leaks until the job returns — see [`par_try_map_indexed`])
/// when the deadline passes.
fn run_attempt<R, F>(job: &Arc<F>, i: usize, deadline: Option<Duration>) -> Result<R, AttemptError>
where
    R: Send + 'static,
    F: Fn(usize) -> R + Send + Sync + 'static,
{
    let Some(limit) = deadline else {
        return catch_unwind(AssertUnwindSafe(|| job(i)))
            .map_err(|p| AttemptError::Panicked(payload_message(p.as_ref())));
    };
    let (tx, rx) = mpsc::channel();
    let job = Arc::clone(job);
    std::thread::Builder::new()
        .name(format!("ohm-cell-{i}"))
        .spawn(move || {
            let r = catch_unwind(AssertUnwindSafe(|| job(i)));
            // The receiver may be gone (deadline already passed) — that
            // is fine, the result is simply dropped.
            let _ = tx.send(r.map_err(|p| payload_message(p.as_ref())));
        })
        .expect("spawn watchdogged cell thread");
    match rx.recv_timeout(limit) {
        Ok(Ok(r)) => Ok(r),
        Ok(Err(msg)) => Err(AttemptError::Panicked(msg)),
        Err(mpsc::RecvTimeoutError::Timeout) => Err(AttemptError::TimedOut(limit)),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            Err(AttemptError::Panicked("cell worker vanished".to_string()))
        }
    }
}

/// Runs one cell to completion under `policy`: panics are retried with
/// backoff up to the cap, a deadline overrun gives up immediately.
fn try_cell<R, F>(job: &Arc<F>, i: usize, policy: &RetryPolicy) -> Result<R, CellError>
where
    R: Send + 'static,
    F: Fn(usize) -> R + Send + Sync + 'static,
{
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        match run_attempt(job, i, policy.deadline) {
            Ok(r) => return Ok(r),
            Err(AttemptError::TimedOut(limit)) => {
                // A runaway cell is assumed deterministic — re-running it
                // would burn another full deadline for the same outcome.
                eprintln!("par_try_map_indexed: cell {i} exceeded {limit:?} deadline; abandoning");
                return Err(CellError {
                    index: i,
                    payload: format!("exceeded {limit:?} wall-clock deadline"),
                    attempts,
                    timed_out: true,
                });
            }
            Err(AttemptError::Panicked(msg)) => {
                let last = attempts > policy.max_retries;
                report_cell_panic(i, if last { "quarantining" } else { "retrying" });
                if last {
                    return Err(CellError {
                        index: i,
                        payload: msg,
                        attempts,
                        timed_out: false,
                    });
                }
                let delay = policy.backoff.delay(attempts);
                if delay > Ps::ZERO {
                    std::thread::sleep(wall(delay));
                }
            }
        }
    }
}

/// Fault-isolated [`par_map_indexed`]: maps `job` over `0..n` on up to
/// `threads` workers, converting each failing cell into a typed
/// [`CellError`] instead of tearing down the whole map.
///
/// A panicking cell is retried with the policy's backoff until the retry
/// cap, then quarantined; a cell that outlives `policy.deadline` is
/// marked timed out immediately (no retry). Healthy cells are unaffected
/// either way — the map always drains all `n` indices and returns one
/// `Result` per cell in index order.
///
/// The `'static` bounds (absent from the strict variant) pay for the
/// watchdog: with a deadline set, each attempt runs on a detached
/// monitor thread so the caller can give up on it. An abandoned attempt
/// **leaks its thread** until the job eventually returns — acceptable
/// for a simulation cell stuck in a long event loop, but it means a
/// deadline is a reporting mechanism, not a resource cap.
pub fn par_try_map_indexed<R, F>(
    n: usize,
    threads: usize,
    policy: RetryPolicy,
    job: F,
) -> Vec<Result<R, CellError>>
where
    R: Send + 'static,
    F: Fn(usize) -> R + Send + Sync + 'static,
{
    let job = Arc::new(job);
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 {
        return (0..n).map(|i| try_cell(&job, i, &policy)).collect();
    }

    // Same dynamic-load-balancing pool as the strict path, but errors
    // are data: nothing poisons the counter, the grid always drains.
    let next = AtomicUsize::new(0);
    let mut tagged: Vec<(usize, Result<R, CellError>)> = Vec::with_capacity(n);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let next = &next;
                let job = &job;
                let policy = &policy;
                s.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, try_cell(job, i, policy)));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            tagged.extend(h.join().expect("worker thread itself panicked"));
        }
    });

    let mut slots: Vec<Option<Result<R, CellError>>> = (0..n).map(|_| None).collect();
    for (i, r) in tagged {
        debug_assert!(slots[i].is_none(), "index {i} produced twice");
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|r| r.expect("every index produces exactly one result"))
        .collect()
}

/// [`par_try_map_indexed`] with per-cell wall-clock timing, mirroring
/// [`par_map_indexed_profiled`]. Failed cells carry no duration — their
/// wall time is retry/deadline noise, not a cell cost.
pub fn par_try_map_indexed_profiled<R, F>(
    n: usize,
    threads: usize,
    policy: RetryPolicy,
    job: F,
) -> Vec<Result<(R, Duration), CellError>>
where
    R: Send + 'static,
    F: Fn(usize) -> R + Send + Sync + 'static,
{
    par_try_map_indexed(n, threads, policy, move |i| {
        let t0 = std::time::Instant::now();
        let r = job(i);
        (r, t0.elapsed())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes the panic-protocol tests: they share the global
    /// LAST_PANICKED_CELL marker and would race under the parallel test
    /// runner.
    static PANIC_TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn preserves_input_order() {
        for threads in [1, 2, 4, 7] {
            let out = par_map_indexed(13, threads, |i| i * i);
            assert_eq!(out, (0..13).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn handles_empty_and_single() {
        assert_eq!(par_map_indexed(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_indexed(1, 4, |i| i + 1), vec![1]);
    }

    #[test]
    fn panic_resumes_with_original_payload() {
        let _guard = PANIC_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let caught = std::panic::catch_unwind(|| {
            par_map_indexed(8, 2, |i| {
                if i == 5 {
                    panic!("cell five exploded");
                }
                i
            })
        })
        .expect_err("panic must propagate");
        let msg = caught
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| caught.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("");
        assert!(
            msg.contains("cell five exploded"),
            "original payload lost: {msg:?}"
        );
    }

    #[test]
    fn inline_path_reports_failing_cell_at_one_thread() {
        // The threads=1 path used to skip catch_unwind entirely, so a
        // panicking cell was never identified. The report marker must now
        // fire before the payload is rethrown.
        let _guard = PANIC_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        LAST_PANICKED_CELL.store(0, Ordering::Relaxed);
        let caught = std::panic::catch_unwind(|| {
            par_map_indexed(4, 1, |i| {
                if i == 2 {
                    panic!("cell two exploded");
                }
                i
            })
        })
        .expect_err("panic must propagate");
        assert_eq!(last_panicked_cell(), Some(2), "report did not fire inline");
        let msg = caught
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| caught.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("");
        assert!(
            msg.contains("cell two exploded"),
            "original payload lost: {msg:?}"
        );
    }

    #[test]
    fn profiled_map_preserves_results() {
        let out = par_map_indexed_profiled(6, 3, |i| i * 2);
        assert_eq!(
            out.iter().map(|(r, _)| *r).collect::<Vec<_>>(),
            vec![0, 2, 4, 6, 8, 10]
        );
    }

    #[test]
    fn concurrent_panics_all_reported() {
        // Two workers, two cells, both panic in the same window (a
        // barrier guarantees neither worker sees the poison flag before
        // pulling its index). The rethrown payload must name BOTH cells
        // — the old code kept the first and eprintln-dropped the rest.
        let _guard = PANIC_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let started = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            par_map_indexed(2, 2, |i| {
                started.fetch_add(1, Ordering::SeqCst);
                while started.load(Ordering::SeqCst) < 2 {
                    std::hint::spin_loop();
                }
                panic!("cell {i} exploded");
            })
        }))
        .expect_err("panic must propagate");
        let msg = caught.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("2 cells panicked"), "got: {msg:?}");
        assert!(
            msg.contains("cell 0: cell 0 exploded") && msg.contains("cell 1: cell 1 exploded"),
            "a concurrent panic was dropped: {msg:?}"
        );
    }

    #[test]
    fn profiled_panic_contract_matches_unprofiled() {
        // The profiled wrapper must preserve the strict panic protocol at
        // every thread count: original payload rethrown, failing cell
        // reported.
        let _guard = PANIC_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for threads in [1, 2] {
            LAST_PANICKED_CELL.store(0, Ordering::Relaxed);
            let caught = std::panic::catch_unwind(|| {
                par_map_indexed_profiled(4, threads, |i| {
                    if i == 3 {
                        panic!("profiled cell three exploded");
                    }
                    i
                })
            })
            .expect_err("panic must propagate through the profiled path");
            assert_eq!(
                last_panicked_cell(),
                Some(3),
                "report did not fire at threads={threads}"
            );
            let msg = caught
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| caught.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("");
            assert!(
                msg.contains("profiled cell three exploded"),
                "original payload lost at threads={threads}: {msg:?}"
            );
        }
    }

    #[test]
    fn try_map_quarantines_without_killing_the_map() {
        for threads in [1, 3] {
            let out = par_try_map_indexed(8, threads, RetryPolicy::NONE, |i| {
                if i == 5 {
                    panic!("cell five exploded");
                }
                i * 10
            });
            assert_eq!(out.len(), 8);
            for (i, r) in out.iter().enumerate() {
                if i == 5 {
                    let e = r.as_ref().unwrap_err();
                    assert_eq!(e.index, 5);
                    assert_eq!(e.attempts, 1);
                    assert!(!e.timed_out);
                    assert!(e.payload.contains("cell five exploded"), "{e}");
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i * 10, "healthy cell {i} lost");
                }
            }
        }
    }

    #[test]
    fn try_map_retries_until_success() {
        let failures_left = AtomicUsize::new(2);
        let policy = RetryPolicy {
            max_retries: 3,
            backoff: ExponentialBackoff::NONE,
            deadline: None,
        };
        let out = par_try_map_indexed(1, 1, policy, move |i| {
            if failures_left
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
                .is_ok()
            {
                panic!("transient failure");
            }
            i + 1
        });
        assert_eq!(out, vec![Ok(1)], "third attempt should have succeeded");
    }

    #[test]
    fn try_map_reports_attempt_count_on_exhaustion() {
        let policy = RetryPolicy {
            max_retries: 2,
            backoff: ExponentialBackoff::NONE,
            deadline: None,
        };
        let out = par_try_map_indexed(1, 1, policy, |_| -> usize { panic!("always") });
        let e = out[0].as_ref().unwrap_err();
        assert_eq!(e.attempts, 3, "1 initial + 2 retries");
        assert!(!e.timed_out);
        assert!(e.payload.contains("always"));
    }

    #[test]
    fn watchdog_times_out_runaway_cells() {
        let policy = RetryPolicy {
            max_retries: 5, // must NOT apply to timeouts
            backoff: ExponentialBackoff::NONE,
            deadline: Some(Duration::from_millis(40)),
        };
        let t0 = std::time::Instant::now();
        let out = par_try_map_indexed(3, 2, policy, |i| {
            if i == 1 {
                // A runaway cell: sleeps far past the deadline. The
                // watchdog abandons it (the thread leaks until the sleep
                // ends; the test binary exits without joining it).
                std::thread::sleep(Duration::from_secs(10));
            }
            i
        });
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "watchdog failed to abandon the runaway cell"
        );
        assert_eq!(out[0], Ok(0));
        assert_eq!(out[2], Ok(2));
        let e = out[1].as_ref().unwrap_err();
        assert!(e.timed_out);
        assert_eq!(e.attempts, 1, "timeouts must not be retried");
        assert!(e.payload.contains("deadline"), "{e}");
    }

    #[test]
    fn try_map_profiled_preserves_results_and_errors() {
        let out = par_try_map_indexed_profiled(4, 2, RetryPolicy::NONE, |i| {
            if i == 2 {
                panic!("profiled quarantine");
            }
            i
        });
        for (i, r) in out.iter().enumerate() {
            if i == 2 {
                assert_eq!(r.as_ref().unwrap_err().index, 2);
            } else {
                assert_eq!(r.as_ref().unwrap().0, i);
            }
        }
    }

    #[test]
    fn backoff_delay_maps_to_wall_clock() {
        assert_eq!(wall(Ps::from_ps(0)), Duration::ZERO);
        assert_eq!(wall(Ps::from_ms(2)), Duration::from_millis(2));
        // Sub-nanosecond remainders truncate.
        assert_eq!(wall(Ps::from_ps(1_999)), Duration::from_nanos(1));
    }

    #[test]
    fn balances_uneven_jobs() {
        // Jobs of wildly different cost still land in order.
        let out = par_map_indexed(8, 3, |i| {
            let spin = if i % 3 == 0 { 20_000 } else { 10 };
            (0..spin).fold(i as u64, |acc, _| acc.wrapping_mul(31).wrapping_add(7))
        });
        let serial: Vec<u64> = (0..8)
            .map(|i| {
                let spin = if i % 3 == 0 { 20_000 } else { 10 };
                (0..spin).fold(i as u64, |acc, _| acc.wrapping_mul(31).wrapping_add(7))
            })
            .collect();
        assert_eq!(out, serial);
    }
}
