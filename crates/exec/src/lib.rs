//! # lazyeye-exec — the shared deterministic fan-out layer
//!
//! Both measurement engines — the local-testbed campaign
//! (`lazyeye-campaign`) and the population-scale web-tool fleet
//! (`lazyeye-fleet`) — need the same thing: execute `N` independent,
//! index-addressed jobs across worker threads and get the outputs back
//! **in index order**, so everything derived from them is byte-identical
//! whatever the worker count. This crate is that extracted common core:
//!
//! - [`execute_indexed`] / [`execute_indexed_with`] — a work-stealing
//!   pool of `jobs` threads in total over jobs `0..total`: the calling
//!   thread is worker 0 and `jobs − 1` scoped threads are its peers, so
//!   `--jobs 2` puts two threads on two cores, not three. Each worker's
//!   deque starts as one contiguous block of indices, so neighbouring
//!   jobs — a campaign cell's repetitions — run on one worker, one after
//!   another. A worker drains its own deque from the front and, when
//!   empty, steals the back half of the longest other deque, which keeps
//!   stolen work contiguous too. Between its own jobs the caller drains
//!   finished peer results without blocking and runs the hooks on them;
//!   it parks on the result channel only once it has no job left. Results are keyed by job
//!   index, so the output vector is independent of scheduling.
//! - [`Shard`] — the `--shard i/n` arithmetic (`index % n == i`) both
//!   CLIs use for multi-machine splits, with its JSON mapping.
//! - [`write_atomic`] — the temp-file + rename write every partial state
//!   saves through.
//! - [`partial`] — the partial-state layer behind checkpoints, shards,
//!   merges and resumes: one [`Partial`] state type with its JSON writer,
//!   parser and atomic save, one [`merge_partials`], one shard loop
//!   ([`Partial::run_pending`]), one stitch of stored outputs back onto
//!   the plan ([`run_stitched`]) and one stored-output kind check
//!   ([`check_kinds`]).
//!
//! The engines keep their domain glue: plans, execution contexts,
//! reports, and a [`Study`] that maps their spec and output types to
//! JSON. The scheduling and the partial-state machinery live here.

//! **Arena reuse.** Worker threads live for the whole `execute_indexed`
//! call, and the simulator keeps a per-thread `lazyeye_sim::SimPool`:
//! the first run on a worker allocates a simulation arena (task slab,
//! timer wheel, queues), and every subsequent run on that worker recycles
//! it via `Sim::reset` — one allocation storm per *worker* instead of one
//! per *run*. Worker 0 is the calling thread, so its `SimPool` also
//! survives across calls: a campaign's refinement pass, or the next
//! campaign in the same process, reuses the caller's arena, and only the
//! `jobs − 1` spawned peers start cold. This file only needs to keep
//! threads alive across jobs (which `std::thread::scope` does); the
//! pooling itself lives in `lazyeye-sim` and the testbed topologies.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::VecDeque;
use std::io::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

pub mod partial;

pub use partial::{check_kinds, merge_partials, run_stitched, Partial, Study};

/// Registry handles for the executor's scheduling metrics. Everything
/// here is wall-clock: steal outcomes and job latencies depend on host
/// scheduling and worker count, so none of it may feed report bytes.
struct ExecMetrics {
    steal_attempts: &'static lazyeye_obs::Counter,
    steal_hits: &'static lazyeye_obs::Counter,
    jobs_completed: &'static lazyeye_obs::Counter,
    worker_busy_us: &'static lazyeye_obs::Counter,
    job_wall_us: &'static lazyeye_obs::Histogram,
    steal_queue_depth: &'static lazyeye_obs::Histogram,
}

fn metrics() -> &'static ExecMetrics {
    static METRICS: OnceLock<ExecMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        use lazyeye_obs::Clock::Wall;
        ExecMetrics {
            steal_attempts: lazyeye_obs::counter("exec.steal_attempts", Wall),
            steal_hits: lazyeye_obs::counter("exec.steal_hits", Wall),
            jobs_completed: lazyeye_obs::counter("exec.jobs_completed", Wall),
            worker_busy_us: lazyeye_obs::counter("exec.worker_busy_us", Wall),
            job_wall_us: lazyeye_obs::histogram("exec.job_wall_us", Wall),
            steal_queue_depth: lazyeye_obs::histogram("exec.steal_queue_depth", Wall),
        }
    })
}

/// One worker's side of an `execute_indexed_with` call: its progress
/// track and its busy time. Busy time is summed in nanoseconds and added
/// to `exec.worker_busy_us` once, when the worker retires (or unwinds),
/// so jobs shorter than a microsecond are not each cut down to whole
/// microseconds.
struct Worker {
    id: u32,
    busy_ns: u64,
}

impl Worker {
    fn new(id: u32) -> Worker {
        Worker { id, busy_ns: 0 }
    }

    /// Runs one job with wall-clock scheduling metrics (busy time,
    /// latency histogram, completion count), and with per-item progress
    /// attribution while `--progress` is armed.
    fn timed<O>(&mut self, run: impl FnOnce() -> O) -> O {
        let progress = lazyeye_obs::progress::enabled();
        if progress {
            lazyeye_obs::progress::item_start(self.id);
        }
        let _job_span = lazyeye_obs::trace::wall_span("exec.job");
        let started = Instant::now();
        let out = run();
        let elapsed = started.elapsed();
        self.busy_ns = self
            .busy_ns
            .saturating_add(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
        let m = metrics();
        m.job_wall_us
            .record(u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX));
        m.jobs_completed.inc();
        if progress {
            lazyeye_obs::progress::item_done(self.id);
        }
        out
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        metrics().worker_busy_us.add(self.busy_ns / 1_000);
    }
}

/// A `--shard i/n` restriction: this process executes only jobs whose
/// `job_index % count == shard.index`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shard {
    /// Shard position, `0 ≤ index < count`.
    pub index: u64,
    /// Total shard count.
    pub count: u64,
}

lazyeye_json::impl_json_struct!(Shard { index, count });

impl Shard {
    /// Parses the CLI form `i/n` (e.g. `"0/4"`).
    pub fn parse(s: &str) -> Result<Shard, String> {
        let Some((i, n)) = s.split_once('/') else {
            return Err(format!("shard {s:?}: expected i/n (e.g. 0/4)"));
        };
        let (Ok(index), Ok(count)) = (i.parse::<u64>(), n.parse::<u64>()) else {
            return Err(format!("shard {s:?}: expected two integers i/n"));
        };
        if count == 0 || index >= count {
            return Err(format!("shard {s:?}: need 0 <= i < n"));
        }
        Ok(Shard { index, count })
    }

    /// Whether this shard owns job `index`.
    pub fn owns(&self, index: u64) -> bool {
        index % self.count == self.index
    }
}

/// Writes `bytes` to `path` atomically: a sibling `.tmp` file is written,
/// synced to disk and renamed over `path`, so a kill mid-save never leaves
/// a truncated file behind.
pub fn write_atomic(path: &str, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = format!("{path}.tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// A worker's job deque plus a lock-free length hint, so victim selection
/// reads one atomic per queue instead of taking every lock per steal
/// attempt (the old scan serialized all workers through all locks exactly
/// when the pool was busiest — the end-of-campaign tail).
struct WorkQueue {
    jobs: Mutex<VecDeque<usize>>,
    /// Advisory length, maintained under `jobs`' lock; may lag reads.
    len: AtomicUsize,
}

impl WorkQueue {
    fn new(jobs: VecDeque<usize>) -> WorkQueue {
        let len = AtomicUsize::new(jobs.len());
        WorkQueue {
            jobs: Mutex::new(jobs),
            len,
        }
    }

    fn pop_front(&self) -> Option<usize> {
        let mut q = self.jobs.lock().ok()?;
        let job = q.pop_front();
        self.len.store(q.len(), Ordering::Relaxed);
        job
    }
}

/// Steals the back half of the longest foreign deque into `mine`,
/// returning one job to run immediately. Returns `None` once every
/// foreign length hint reads zero — a worker may then retire while a
/// lagging owner still holds jobs, but owners always drain their own
/// deque before retiring, so every job still runs exactly once. A victim
/// drained between the snapshot and the lock triggers a re-scan.
fn steal(queues: &[WorkQueue], me: usize) -> Option<usize> {
    let m = metrics();
    m.steal_attempts.inc();
    loop {
        // Pick the victim with the most remaining work (an atomic
        // snapshot; rechecked under the victim's lock).
        let (victim, snapshot_len) = queues
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != me)
            .map(|(i, q)| (i, q.len.load(Ordering::Relaxed)))
            .max_by_key(|&(_, len)| len)?;
        m.steal_queue_depth.record(snapshot_len as u64);
        if snapshot_len == 0 {
            return None;
        }
        let mut stolen = {
            let mut v = queues[victim].jobs.lock().ok()?;
            if v.is_empty() {
                // Lost the race to the victim's owner; look again.
                queues[victim].len.store(0, Ordering::Relaxed);
                continue;
            }
            let keep = v.len() / 2;
            let stolen = v.split_off(keep);
            queues[victim].len.store(v.len(), Ordering::Relaxed);
            stolen
        };
        let job = stolen.pop_front();
        if !stolen.is_empty() {
            if let Ok(mut mine) = queues[me].jobs.lock() {
                mine.extend(stolen);
                queues[me].len.store(mine.len(), Ordering::Relaxed);
            }
        }
        if job.is_some() {
            m.steal_hits.inc();
        }
        return job;
    }
}

/// The initial deal of jobs `0..total` to `jobs` workers: worker `w`
/// gets one contiguous block, the blocks cover `0..total` in order, and
/// their lengths differ by at most one. Neighbouring jobs then run on
/// one worker in index order, not on different workers at the same
/// moment: a job that waits on its neighbour's shared result (the
/// campaign's cell memo) finds it already done.
fn deal(total: usize, jobs: usize) -> Vec<std::ops::Range<usize>> {
    (0..jobs)
        .map(|w| w * total / jobs..(w + 1) * total / jobs)
        .collect()
}

/// Executes jobs `0..total` with `run(index)`, fanning out over `jobs`
/// worker threads (the calling thread plus `jobs − 1` spawned ones), and
/// returns the outputs **in index order**. A panicking job fails the
/// call with that panic.
///
/// `progress` is invoked on the calling thread after every finished job
/// with `(finished_so_far, total)` — wire it to a progress bar or ETA
/// display; it has no effect on the results.
pub fn execute_indexed<O: Send>(
    total: usize,
    jobs: usize,
    run: impl Fn(usize) -> O + Sync,
    progress: impl FnMut(usize, usize),
) -> Vec<O> {
    execute_indexed_with(total, jobs, run, progress, |_, _| {})
}

/// Restores the calling thread's worker tag when dropped, so a call that
/// unwinds from a panicking job still hands back the caller's track.
struct WorkerTag(u32);

impl WorkerTag {
    fn enter(worker: u32) -> WorkerTag {
        let prev = lazyeye_obs::trace::worker();
        lazyeye_obs::trace::set_worker(worker);
        WorkerTag(prev)
    }
}

impl Drop for WorkerTag {
    fn drop(&mut self) {
        lazyeye_obs::trace::set_worker(self.0);
    }
}

/// Worker `me`'s next job: the front of its own deque, else a steal.
fn next_job(queues: &[WorkQueue], me: usize) -> Option<usize> {
    queues[me].pop_front().or_else(|| steal(queues, me))
}

/// [`execute_indexed`] with a per-result hook: `on_result(index, output)`
/// fires on the calling thread as each job finishes. Completion order is
/// scheduling-dependent — the hook is for side channels (checkpoints,
/// logs), never for anything that feeds a deterministic report. The
/// calling thread is also worker 0, so time spent in a hook is time that
/// worker runs no job: hand blocking I/O (a checkpoint's disk sync) to
/// another thread rather than waiting for it in the hook.
pub fn execute_indexed_with<O: Send>(
    total: usize,
    jobs: usize,
    run: impl Fn(usize) -> O + Sync,
    mut progress: impl FnMut(usize, usize),
    mut on_result: impl FnMut(usize, &O),
) -> Vec<O> {
    let jobs = jobs.max(1).min(total.max(1));
    // The caller thread IS worker 0 for the duration of the call, so
    // spans and progress annotations attribute to its track.
    let _tag = WorkerTag::enter(0);
    if jobs == 1 {
        let mut worker = Worker::new(0);
        return (0..total)
            .map(|index| {
                let out = worker.timed(|| run(index));
                on_result(index, &out);
                progress(index + 1, total);
                out
            })
            .collect();
    }

    // One contiguous block per worker; stealing rebalances the tail.
    let queues: Vec<WorkQueue> = deal(total, jobs)
        .into_iter()
        .map(|block| WorkQueue::new(block.collect()))
        .collect();
    // Take job 0 before any peer exists to steal it: it always runs on
    // the caller.
    let first = queues[0].pop_front();

    let mut results: Vec<Option<O>> = (0..total).map(|_| None).collect();
    let (tx, rx) = mpsc::channel::<(usize, O)>();
    std::thread::scope(|scope| {
        // Owned by this closure, so a panic on the caller drops the
        // receiver and the peers stop at their next send.
        let rx = rx;
        for me in 1..jobs {
            let tx = tx.clone();
            let queues = &queues;
            let run = &run;
            scope.spawn(move || {
                let me32 = u32::try_from(me).unwrap_or(u32::MAX - 1);
                lazyeye_obs::trace::set_worker(me32);
                let _worker_span = lazyeye_obs::trace::wall_span(format!("exec.worker-{me}"));
                let mut worker = Worker::new(me32);
                while let Some(job) = next_job(queues, me) {
                    let out = worker.timed(|| run(job));
                    if tx.send((job, out)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        let mut done = 0;
        let mut finish = |idx: usize, out: O| {
            on_result(idx, &out);
            results[idx] = Some(out);
            done += 1;
            progress(done, total);
        };
        {
            let _worker_span = lazyeye_obs::trace::wall_span("exec.worker-0");
            let mut worker = Worker::new(0);
            let mut job = first;
            while let Some(idx) = job {
                let out = worker.timed(|| run(idx));
                finish(idx, out);
                // Hand peers' finished jobs to the hooks without parking.
                while let Ok((idx, out)) = rx.try_recv() {
                    finish(idx, out);
                }
                job = next_job(&queues, 0);
            }
        }
        // Out of work: wait for the peers' last jobs.
        while let Ok((idx, out)) = rx.recv() {
            finish(idx, out);
        }
    });
    results
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.unwrap_or_else(|| panic!("job {i} produced no output")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outputs_come_back_in_index_order() {
        for jobs in [1, 2, 3, 8, 64] {
            let out = execute_indexed(37, jobs, |i| i * i, |_, _| {});
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>(), "{jobs}");
        }
    }

    #[test]
    fn progress_reaches_total_exactly_once_per_job() {
        let mut last = 0;
        let mut calls = 0;
        let _ = execute_indexed(
            11,
            3,
            |i| i,
            |done, total| {
                assert!(done <= total);
                last = done;
                calls += 1;
            },
        );
        assert_eq!(last, 11);
        assert_eq!(calls, 11);
    }

    #[test]
    fn zero_jobs_and_zero_total() {
        let out: Vec<usize> = execute_indexed(0, 8, |i| i, |_, _| panic!("no progress"));
        assert!(out.is_empty());
        // jobs = 0 clamps to 1.
        let out = execute_indexed(3, 0, |i| i + 1, |_, _| {});
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn on_result_fires_once_per_job_with_matching_output() {
        let mut seen = vec![0u32; 23];
        let out = execute_indexed_with(
            23,
            4,
            |i| i * 10,
            |_, _| {},
            |idx, o| {
                seen[idx] += 1;
                assert_eq!(*o, idx * 10);
            },
        );
        assert_eq!(out.len(), 23);
        assert!(seen.iter().all(|&c| c == 1), "hook fired {seen:?}");
    }

    #[test]
    fn the_initial_deal_is_one_contiguous_block_per_worker() {
        for jobs in 1..=8 {
            for total in [0, 1, jobs - 1, jobs, jobs + 1, 3 * jobs + 2, 100] {
                let blocks = deal(total, jobs);
                assert_eq!(blocks.len(), jobs, "total {total}, jobs {jobs}");
                // In order and gap-free, so every index is dealt once.
                let mut next = 0;
                for block in &blocks {
                    assert_eq!(block.start, next, "total {total}, jobs {jobs}: {blocks:?}");
                    next = block.end;
                }
                assert_eq!(next, total, "total {total}, jobs {jobs}: {blocks:?}");
                let lens = blocks.iter().map(ExactSizeIterator::len);
                let (min, max) = (lens.clone().min(), lens.max());
                assert!(
                    max.unwrap() - min.unwrap() <= 1,
                    "total {total}, jobs {jobs}: {blocks:?}"
                );
            }
        }
    }

    #[test]
    fn heavy_oversubscription_still_runs_everything() {
        // total barely above jobs forces steal races; total below jobs
        // clamps the pool.
        for (total, jobs) in [(9, 8), (9, 9), (3, 64), (100, 7)] {
            let out = execute_indexed(total, jobs, |i| i, |_, _| {});
            assert_eq!(out, (0..total).collect::<Vec<_>>());
        }
    }

    #[test]
    fn hooks_run_on_the_caller_and_jobs_on_at_most_jobs_threads() {
        use std::collections::HashSet;
        use std::thread::{self, ThreadId};
        let caller = thread::current().id();
        for jobs in [1, 2, 4] {
            lazyeye_obs::trace::set_worker(77);
            let ran_on: Mutex<Vec<(usize, ThreadId, u32)>> = Mutex::new(Vec::new());
            let mut progress_threads = HashSet::new();
            let mut result_threads = HashSet::new();
            let out = execute_indexed_with(
                64,
                jobs,
                |i| {
                    let tag = lazyeye_obs::trace::worker();
                    ran_on
                        .lock()
                        .unwrap()
                        .push((i, thread::current().id(), tag));
                    i
                },
                |_, _| {
                    progress_threads.insert(thread::current().id());
                },
                |_, _| {
                    result_threads.insert(thread::current().id());
                },
            );
            assert_eq!(out, (0..64).collect::<Vec<_>>());
            assert_eq!(progress_threads, HashSet::from([caller]), "jobs {jobs}");
            assert_eq!(result_threads, HashSet::from([caller]), "jobs {jobs}");
            let ran_on = ran_on.into_inner().unwrap();
            let threads: HashSet<ThreadId> = ran_on.iter().map(|&(_, t, _)| t).collect();
            assert!(
                threads.len() <= jobs,
                "jobs {jobs}: {} threads",
                threads.len()
            );
            // Job 0 never leaves the caller's deque, so the caller is
            // always one of the workers, and it runs as worker 0.
            assert!(ran_on.contains(&(0, caller, 0)), "jobs {jobs}");
            for &(i, thread, tag) in &ran_on {
                assert!((tag as usize) < jobs, "jobs {jobs}: job {i} on track {tag}");
                assert_eq!(thread == caller, tag == 0, "jobs {jobs}: job {i}");
            }
            assert_eq!(lazyeye_obs::trace::worker(), 77, "jobs {jobs}");
        }
    }

    #[test]
    fn a_panicking_job_fails_the_call_without_hanging() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::time::Duration;
        // Job 0 runs on the caller; job 31 is the back of the last
        // spawned worker's deque.
        for jobs in [1, 2, 4] {
            for bad in [0, 31] {
                let (tx, rx) = mpsc::channel();
                std::thread::spawn(move || {
                    lazyeye_obs::trace::set_worker(77);
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        execute_indexed(
                            32,
                            jobs,
                            |i| {
                                assert_ne!(i, bad, "job {bad} fails on purpose");
                                i
                            },
                            |_, _| {},
                        )
                    }));
                    let _ = tx.send((result.is_err(), lazyeye_obs::trace::worker()));
                });
                let (failed, tag_after) = rx
                    .recv_timeout(Duration::from_secs(30))
                    .unwrap_or_else(|_| panic!("jobs {jobs}, bad job {bad}: hung"));
                assert!(failed, "jobs {jobs}, bad job {bad}: call returned Ok");
                assert_eq!(
                    tag_after, 77,
                    "jobs {jobs}, bad job {bad}: tag not restored"
                );
            }
        }
    }

    #[test]
    fn busy_time_keeps_sub_microsecond_remainders() {
        use std::time::Duration;
        // 2,000 jobs of at least 1.5 µs are at least 3,000 µs busy; each
        // worker may drop under 1 µs of remainder. Truncating every job
        // to whole microseconds would book about 2,000. Concurrent tests
        // only add to the shared counter, so they cannot fail this.
        let busy = lazyeye_obs::counter("exec.worker_busy_us", lazyeye_obs::Clock::Wall);
        for jobs in [1, 2] {
            let before = busy.get();
            execute_indexed(
                2_000,
                jobs,
                |_| {
                    let started = Instant::now();
                    while started.elapsed() < Duration::from_nanos(1_500) {
                        std::hint::spin_loop();
                    }
                },
                |_, _| {},
            );
            let added = busy.get() - before;
            assert!(added >= 2_900, "jobs {jobs}: {added} µs busy");
        }
    }

    #[test]
    fn shard_parsing_and_ownership() {
        let s = Shard::parse("2/4").unwrap();
        assert!(s.owns(2) && s.owns(6));
        assert!(!s.owns(0) && !s.owns(3));
        assert!(Shard::parse("4/4").is_err());
        assert!(Shard::parse("0/0").is_err());
        assert!(Shard::parse("1").is_err());
        assert!(Shard::parse("a/b").is_err());
    }

    #[test]
    fn write_atomic_replaces_the_file_and_leaves_no_temp() {
        let path = std::env::temp_dir().join(format!("lazyeye-exec-{}.json", std::process::id()));
        let path = path.to_str().unwrap();
        write_atomic(path, b"first, longer contents").unwrap();
        write_atomic(path, b"second").unwrap();
        assert_eq!(std::fs::read(path).unwrap(), b"second");
        assert!(!std::path::Path::new(&format!("{path}.tmp")).exists());
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn shard_json_roundtrip() {
        use lazyeye_json::{FromJson, ToJson};
        let s = Shard { index: 1, count: 3 };
        let back = Shard::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
    }
}
