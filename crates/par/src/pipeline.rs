//! Bounded-depth speculative work pipeline: the asynchronous half of the
//! crawl session's speculation step.
//!
//! [`run_pipeline`] spins up worker threads under `std::thread::scope`
//! (the same discipline as `par_chunks`: scoped spawns, panics re-raised
//! on the calling thread, `SMARTCRAWL_THREADS` as the budget) and hands
//! the caller a [`PipelineHandle`] with three operations:
//!
//! * [`PipelineHandle::submit`] — enqueue an item for a worker, returning
//!   a ticket;
//! * [`PipelineHandle::take`] — block until that ticket's result is
//!   ready and return it;
//! * [`PipelineHandle::forget`] — discard a ticket whose result will
//!   never be taken (a mispredicted speculation).
//!
//! Determinism is the caller's contract, made easy by construction: the
//! pipeline never decides *order*. Workers race over which pending item
//! to grab, but every result is keyed by its submission ticket, so the
//! caller commits results in exactly the order it chooses — completion
//! order is unobservable. The job must be pure (a function of its input
//! alone); side-effectful accounting belongs on the calling thread at
//! commit time. Under that contract the caller's output is byte-identical
//! at every pipeline depth and thread count, including the sequential
//! fallback.
//!
//! The sequential fallback: with a thread budget of 1, from inside a
//! `par_*` worker (single-level fan-out, as everywhere in this crate), or
//! at depth ≤ 1, no threads spawn and `submit` computes the job inline.
//! Results are still ticketed, so callers never branch on the mode.
//!
//! [`with_pipeline_depth`] / [`current_pipeline_depth`] mirror
//! [`with_threads`](crate::with_threads): a scoped, thread-local override
//! (default depth 1 = sequential) that benchmarks and property tests use
//! to sweep depths in one process, and that the crawl driver reads to
//! decide whether to pipeline at all.

use crate::budget::{current_threads, IN_WORKER};
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex};

/// Upper bound on the pipeline depth — a guard against a typo'd depth;
/// beyond a handful of in-flight queries speculation accuracy, not slot
/// count, is the limiter.
pub const MAX_PIPELINE_DEPTH: usize = 64;

thread_local! {
    /// Scoped override installed by [`with_pipeline_depth`].
    static DEPTH_OVERRIDE: std::cell::Cell<Option<usize>> =
        const { std::cell::Cell::new(None) };
}

/// Runs `f` with the pipeline depth overridden to `depth` (clamped to
/// `1..=MAX_PIPELINE_DEPTH`) on the calling thread. Nestable; the
/// previous override is restored on exit, including on panic.
pub fn with_pipeline_depth<R>(depth: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            DEPTH_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let clamped = depth.clamp(1, MAX_PIPELINE_DEPTH);
    let prev = DEPTH_OVERRIDE.with(|c| c.replace(Some(clamped)));
    let _restore = Restore(prev);
    f()
}

/// The pipeline depth in effect on the calling thread: the innermost
/// [`with_pipeline_depth`] override if any, else 1 (sequential).
pub fn current_pipeline_depth() -> usize {
    DEPTH_OVERRIDE.with(|c| c.get()).unwrap_or(1)
}

/// One job's completion: the result, or the panic payload to re-raise at
/// `take` time.
type Completion<U> = Result<U, Box<dyn std::any::Any + Send + 'static>>;

/// State shared between the driver thread and the workers, guarded by one
/// mutex. Tickets are dense sequence numbers, so membership tests are
/// linear scans over at-most-depth-sized vectors — no keyed containers.
struct State<T, U> {
    /// Submitted, not yet claimed by a worker: `(ticket, input)`.
    pending: VecDeque<(u64, T)>,
    /// Finished: `(ticket, completion)`.
    done: Vec<(u64, Completion<U>)>,
    /// Tickets claimed by a worker whose results are no longer wanted.
    forgotten: Vec<u64>,
    /// Set once the driver closure returns: workers drain and exit.
    shutdown: bool,
}

struct Shared<T, U> {
    state: Mutex<State<T, U>>,
    /// Signaled when `pending` gains an item or `shutdown` is set.
    work_ready: Condvar,
    /// Signaled when `done` gains an item.
    done_ready: Condvar,
}

/// The driver's handle into a running pipeline. Lives only inside the
/// `drive` closure of [`run_pipeline`].
pub struct PipelineHandle<'p, T, U> {
    shared: &'p Shared<T, U>,
    /// `None` in threaded mode; `Some(job)` in the inline fallback, where
    /// `submit` computes eagerly on the calling thread.
    inline_job: Option<&'p (dyn Fn(T) -> U + Sync)>,
    next_ticket: std::cell::Cell<u64>,
}

impl<T, U> PipelineHandle<'_, T, U> {
    /// Enqueues `item` for a worker (or computes it inline in the
    /// sequential fallback) and returns its ticket.
    pub fn submit(&self, item: T) -> u64 {
        let ticket = self.next_ticket.get();
        self.next_ticket.set(ticket + 1);
        match self.inline_job {
            Some(job) => {
                let completion = catch_unwind(AssertUnwindSafe(|| job(item)));
                let mut state = self.shared.state.lock().expect("pipeline lock");
                state.done.push((ticket, completion));
            }
            None => {
                let mut state = self.shared.state.lock().expect("pipeline lock");
                state.pending.push_back((ticket, item));
                drop(state);
                self.shared.work_ready.notify_one();
            }
        }
        ticket
    }

    /// Blocks until `ticket`'s job finishes and returns its result. A
    /// panic inside the job is re-raised here with the original payload.
    pub fn take(&self, ticket: u64) -> U {
        let mut state = self.shared.state.lock().expect("pipeline lock");
        loop {
            if let Some(i) = state.done.iter().position(|(t, _)| *t == ticket) {
                let completion = state.done.swap_remove(i).1;
                // Release the lock before unwinding so a propagated job
                // panic can't poison the pipeline mutex under the workers.
                drop(state);
                match completion {
                    Ok(result) => return result,
                    Err(payload) => resume_unwind(payload),
                }
            }
            state = self.shared.done_ready.wait(state).expect("pipeline lock");
        }
    }

    /// Declares that `ticket`'s result will never be taken: drops it if
    /// already computed, cancels it if still pending, and marks it to be
    /// dropped on completion if a worker already claimed it. A panic in a
    /// forgotten job is still re-raised (at the end of `run_pipeline`).
    pub fn forget(&self, ticket: u64) {
        let mut state = self.shared.state.lock().expect("pipeline lock");
        if let Some(i) = state.done.iter().position(|(t, _)| *t == ticket) {
            let completion = state.done.swap_remove(i).1;
            drop(state);
            if let Err(payload) = completion {
                resume_unwind(payload);
            }
            return;
        }
        if let Some(i) = state.pending.iter().position(|(t, _)| *t == ticket) {
            state.pending.remove(i);
            return;
        }
        state.forgotten.push(ticket);
    }
}

/// Runs `drive` with a [`PipelineHandle`] backed by up to `depth` worker
/// threads executing `job`, and returns `drive`'s result.
///
/// Worker count is `min(depth, thread budget − 1)`: one core stays with
/// the driver, which has its own work to overlap. With no budget to
/// spare, from inside a `par_*` worker, or at `depth <= 1`, the pipeline
/// degrades to the inline sequential mode — same API, no threads.
pub fn run_pipeline<T, U, R>(
    depth: usize,
    job: impl Fn(T) -> U + Sync,
    drive: impl FnOnce(&PipelineHandle<'_, T, U>) -> R,
) -> R
where
    T: Send,
    U: Send,
{
    let depth = depth.clamp(1, MAX_PIPELINE_DEPTH);
    let workers = depth.min(current_threads().saturating_sub(1));
    let shared: Shared<T, U> = Shared {
        state: Mutex::new(State {
            pending: VecDeque::new(),
            done: Vec::new(),
            forgotten: Vec::new(),
            shutdown: false,
        }),
        work_ready: Condvar::new(),
        done_ready: Condvar::new(),
    };
    if workers == 0 || depth <= 1 || IN_WORKER.with(|w| w.get()) {
        let handle = PipelineHandle {
            shared: &shared,
            inline_job: Some(&job),
            // lint:allow(send-sync-boundary) driver-thread-only ticket counter
            // inside the !Sync handle; prefetch workers never touch it
            next_ticket: std::cell::Cell::new(0),
        };
        return drive(&handle);
    }

    /// Sets `shutdown` and wakes every worker when the drive closure
    /// exits — on the normal path *and* when it unwinds (e.g. a job panic
    /// re-raised by `take`). Without this, `std::thread::scope` would
    /// join workers that are still parked on `work_ready` forever.
    struct ShutdownOnExit<'s, T, U>(&'s Shared<T, U>);
    impl<T, U> Drop for ShutdownOnExit<'_, T, U> {
        fn drop(&mut self) {
            let mut state = match self.0.state.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            state.shutdown = true;
            state.pending.clear();
            drop(state);
            self.0.work_ready.notify_all();
        }
    }

    let result = std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                IN_WORKER.with(|w| w.set(true));
                loop {
                    let mut state = shared.state.lock().expect("pipeline lock");
                    let (ticket, item) = loop {
                        if let Some(work) = state.pending.pop_front() {
                            break work;
                        }
                        if state.shutdown {
                            return;
                        }
                        state = shared.work_ready.wait(state).expect("pipeline lock");
                    };
                    drop(state);
                    let completion = catch_unwind(AssertUnwindSafe(|| job(item)));
                    let mut state = shared.state.lock().expect("pipeline lock");
                    if let Some(i) = state.forgotten.iter().position(|&t| t == ticket) {
                        state.forgotten.swap_remove(i);
                        // A mispredicted job's result is dropped, but its
                        // panic still surfaces after `drive` returns.
                        if let Err(payload) = completion {
                            state.done.push((ticket, Err(payload)));
                            drop(state);
                            shared.done_ready.notify_all();
                        }
                        continue;
                    }
                    state.done.push((ticket, completion));
                    drop(state);
                    shared.done_ready.notify_all();
                }
            });
        }
        let handle = PipelineHandle {
            shared: &shared,
            inline_job: None,
            // lint:allow(send-sync-boundary) driver-thread-only ticket counter
            // inside the !Sync handle; prefetch workers never touch it
            next_ticket: std::cell::Cell::new(0),
        };
        let _shutdown = ShutdownOnExit(&shared);
        drive(&handle)
        // Scope exit joins the workers; the guard has already woken them.
    });
    // Surface any panic from a job whose result was never taken (the
    // driver forgot it, or shut down before taking it).
    let mut state = shared.state.lock().expect("pipeline lock");
    for (_, completion) in state.done.drain(..) {
        if let Err(payload) = completion {
            resume_unwind(payload);
        }
    }
    drop(state);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::with_threads;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn depth_override_installs_and_restores() {
        assert_eq!(current_pipeline_depth(), 1);
        with_pipeline_depth(4, || {
            assert_eq!(current_pipeline_depth(), 4);
            with_pipeline_depth(2, || assert_eq!(current_pipeline_depth(), 2));
            assert_eq!(current_pipeline_depth(), 4);
        });
        assert_eq!(current_pipeline_depth(), 1);
    }

    #[test]
    fn depth_override_is_clamped_and_panic_safe() {
        with_pipeline_depth(0, || assert_eq!(current_pipeline_depth(), 1));
        with_pipeline_depth(usize::MAX, || {
            assert_eq!(current_pipeline_depth(), MAX_PIPELINE_DEPTH)
        });
        let caught = std::panic::catch_unwind(|| {
            with_pipeline_depth(8, || panic!("boom"));
        });
        assert!(caught.is_err());
        assert_eq!(current_pipeline_depth(), 1);
    }

    /// Results come back by ticket regardless of submit/take interleaving
    /// or completion order, at every depth and thread budget.
    #[test]
    fn takes_return_results_by_ticket_in_any_order() {
        for threads in [1, 2, 8] {
            for depth in [1, 2, 4, 8] {
                let got = with_threads(threads, || {
                    run_pipeline(
                        depth,
                        |x: u64| x.wrapping_mul(2654435761),
                        |pipe| {
                            let tickets: Vec<u64> = (0..20).map(|x| pipe.submit(x)).collect();
                            // Take in reverse submission order.
                            tickets
                                .iter()
                                .rev()
                                .map(|&t| pipe.take(t))
                                .collect::<Vec<u64>>()
                        },
                    )
                });
                let expect: Vec<u64> = (0..20u64)
                    .rev()
                    .map(|x| x.wrapping_mul(2654435761))
                    .collect();
                assert_eq!(got, expect, "threads {threads}, depth {depth}");
            }
        }
    }

    #[test]
    fn interleaved_submit_and_take_pipelines_correctly() {
        let got = with_threads(4, || {
            run_pipeline(
                3,
                |x: usize| x * 10,
                |pipe| {
                    let mut out = Vec::new();
                    let mut window: VecDeque<u64> = VecDeque::new();
                    for x in 0..50 {
                        window.push_back(pipe.submit(x));
                        if window.len() == 3 {
                            out.push(pipe.take(window.pop_front().expect("nonempty")));
                        }
                    }
                    while let Some(t) = window.pop_front() {
                        out.push(pipe.take(t));
                    }
                    out
                },
            )
        });
        assert_eq!(got, (0..50).map(|x| x * 10).collect::<Vec<usize>>());
    }

    #[test]
    fn forget_discards_pending_executing_and_done_results() {
        for threads in [1, 4] {
            let taken = with_threads(threads, || {
                run_pipeline(
                    4,
                    |x: u32| x + 1,
                    |pipe| {
                        let keep = pipe.submit(10);
                        let drop_a = pipe.submit(20);
                        let drop_b = pipe.submit(30);
                        pipe.forget(drop_a);
                        let v = pipe.take(keep);
                        pipe.forget(drop_b);
                        v
                    },
                )
            });
            assert_eq!(taken, 11, "threads {threads}");
        }
    }

    #[test]
    fn job_panic_propagates_at_take_with_payload() {
        for threads in [1, 4] {
            let result = std::panic::catch_unwind(|| {
                with_threads(threads, || {
                    run_pipeline(
                        2,
                        |x: u32| {
                            if x == 7 {
                                panic!("job 7");
                            }
                            x
                        },
                        |pipe| {
                            let ok = pipe.submit(1);
                            let bad = pipe.submit(7);
                            assert_eq!(pipe.take(ok), 1);
                            pipe.take(bad)
                        },
                    )
                })
            });
            let payload = result.expect_err("panic must propagate");
            let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
            assert_eq!(msg, "job 7", "threads {threads}");
        }
    }

    #[test]
    fn untaken_job_panic_surfaces_after_drive_returns() {
        let result = std::panic::catch_unwind(|| {
            with_threads(4, || {
                run_pipeline(
                    2,
                    |_: u32| -> u32 { panic!("never taken") },
                    |pipe| {
                        let t = pipe.submit(1);
                        // Give the worker time to claim before forgetting,
                        // then return without taking.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        pipe.forget(t);
                    },
                )
            })
        });
        assert!(result.is_err(), "a forgotten job's panic must not vanish");
    }

    /// Nested inside a `par_*` worker the pipeline runs inline — no
    /// nested thread explosion, same results.
    #[test]
    fn pipeline_inside_par_worker_degrades_to_inline() {
        let items: Vec<u32> = (0..40).collect();
        let got = with_threads(4, || {
            crate::par_map(&items, |&x| {
                run_pipeline(
                    4,
                    |y: u32| y + x,
                    |pipe| {
                        let t = pipe.submit(100);
                        pipe.take(t)
                    },
                )
            })
        });
        let expect: Vec<u32> = items.iter().map(|&x| 100 + x).collect();
        assert_eq!(got, expect);
    }

    /// The threaded pipeline genuinely overlaps: two slow jobs on two
    /// workers finish in roughly one job's wall time. (Loose bound — this
    /// is a smoke check, not a benchmark.)
    #[test]
    fn workers_actually_run_concurrently() {
        let concurrent_peak = AtomicUsize::new(0);
        let running = AtomicUsize::new(0);
        with_threads(4, || {
            run_pipeline(
                2,
                |_: u32| {
                    let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                    concurrent_peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(30));
                    running.fetch_sub(1, Ordering::SeqCst);
                },
                |pipe| {
                    let a = pipe.submit(1);
                    let b = pipe.submit(2);
                    pipe.take(a);
                    pipe.take(b);
                },
            )
        });
        assert_eq!(concurrent_peak.load(Ordering::SeqCst), 2);
    }
}
