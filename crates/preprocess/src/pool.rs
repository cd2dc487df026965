//! The worker pool the landmark sweeps (`atis_graph::sssp`'s kernel) run
//! on: scoped threads, as many as [`std::thread::available_parallelism`]
//! reports. A sweep's labels are a fixed point of the graph, so a pooled
//! build equals the serial one, bit for bit, on any number of workers.

use std::num::NonZeroUsize;
use std::sync::Mutex;

/// How many threads the pooled passes use: what
/// [`std::thread::available_parallelism`] reports, one if it cannot say.
pub(crate) fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// One unit of pooled work. It returns nothing: it writes its result
/// through the `&mut` it captured, so no result is ever matched back to
/// its job.
pub(crate) type Job<'a> = Box<dyn FnOnce() + Send + 'a>;

/// Runs every job across `workers` threads, the calling thread one of
/// them. Jobs are taken off a shared queue one at a time, so an uneven
/// mix balances itself; one worker runs them all, in order, on the
/// calling thread.
pub(crate) fn pooled(workers: usize, jobs: Vec<Job<'_>>) {
    let helpers = workers.min(jobs.len()).saturating_sub(1);
    let queue = Mutex::new(jobs.into_iter());
    let work = || loop {
        // The lock is held to take a job, never while one runs, so a
        // panicking job cannot poison it; it surfaces from `join`.
        let Some(job) = queue.lock().ok().and_then(|mut jobs| jobs.next()) else {
            return;
        };
        job();
    };
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (0..helpers).map(|_| scope.spawn(work)).collect();
        work();
        for helper in helpers {
            if let Err(panic) = helper.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pooled_jobs_each_run_once_on_any_worker_count() {
        for workers in [1, 2, 5, 64] {
            let mut squares = vec![0u64; 37];
            let jobs = (squares.iter_mut().zip(0u64..))
                .map(|(slot, j)| Box::new(move || *slot = j * j) as Job)
                .collect();
            pooled(workers, jobs);
            assert_eq!(squares, (0..37).map(|j| j * j).collect::<Vec<_>>());
        }
        pooled(3, Vec::new());
    }
}
