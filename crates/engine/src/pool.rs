//! The persistent work-stealing worker pool behind
//! [`crate::Engine::parse_many`].
//!
//! The original batch path spun up a fresh [`std::thread::scope`] per
//! call — correct, but a serving engine pays thread spawn/join (tens of
//! microseconds each) on *every* batch. The pool here is created once
//! per [`crate::Engine`] (lazily, on the first submitted batch) and
//! keeps its workers alive across batches:
//!
//! * one double-ended job queue **per worker** (the crossbeam deque
//!   shape, built from `std` primitives — this workspace vendors no
//!   lock-free deque): submissions land round-robin on the per-worker
//!   queues, an idle worker pops its own queue from the back and, when
//!   that runs dry, *steals* from the front of a sibling's queue, so an
//!   unlucky shard distribution still keeps every core busy;
//! * a single parking lot (`Mutex` + `Condvar` around a queued-job
//!   counter) for sleep/wake — workers spin only across the
//!   nanosecond-scale window between a queue push and its counter
//!   update, and park otherwise;
//! * batches are split into contiguous *shards* of the input range and
//!   reassembled in input order on the calling thread, so pool results
//!   are indistinguishable (modulo timings) from the scoped-thread
//!   baseline — the property suites assert exactly that.
//!
//! **The caller runs its own batch.** The submitting thread would
//! otherwise sit blocked while its shards wait for a free worker, so it
//! queues every shard but the first, runs the first inline, and then
//! *claims* every shard of its batch that no worker has started yet
//! (pulling it out of whichever queue it sits in) and runs that too. It
//! blocks only on shards a worker already started, and it never runs
//! another batch's work: queued jobs carry their batch's id. A batch
//! therefore completes even when every worker is busy elsewhere, and a
//! two-shard batch on two cores keeps both busy instead of sometimes
//! leaving one worker to run both shards back to back.
//!
//! **A panicking item fails alone.** Every item runs under
//! [`std::panic::catch_unwind`], on workers and on the caller alike: a
//! caught panic becomes that item's `Err(message)` (the engine turns it
//! into a `Failed` report), the rest of the batch still returns, the
//! worker thread survives, and [`PoolStats::panics`] counts it.
//!
//! The pool is not reentrant: a job must never submit a batch to the
//! pool that runs it. The engine only submits from caller threads.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A queued shard: the id of the batch it belongs to (so its submitter
/// can claim it back) and the work itself.
struct Job {
    batch: u64,
    run: Box<dyn FnOnce() + Send + 'static>,
}

/// Observability counters for the engine's persistent worker pool (see
/// [`crate::Engine::engine_stats`]). All zero until the first batch
/// forces the pool into existence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Worker threads kept alive by the pool.
    pub workers: usize,
    /// Request shards submitted across all batches.
    pub submitted: u64,
    /// Shards executed to completion, by a pool worker or by the
    /// submitting thread.
    pub executed: u64,
    /// Shards a worker stole from a sibling's queue.
    pub steals: u64,
    /// Batches run through the pool.
    pub batches: u64,
    /// Items whose job panicked; each came back as a failed result.
    pub panics: u64,
}

/// The sleep/wake state shared by all workers.
#[derive(Debug)]
struct Park {
    /// Jobs pushed but not yet grabbed. Transiently negative when a
    /// grab races ahead of its submission's counter update — the wait
    /// condition is `queued <= 0`, so the race costs a yield, never a
    /// lost wakeup.
    queued: i64,
    shutdown: bool,
}

struct Shared {
    queues: Vec<Mutex<VecDeque<Job>>>,
    park: Mutex<Park>,
    signal: Condvar,
    submitted: AtomicU64,
    executed: AtomicU64,
    steals: AtomicU64,
    batches: AtomicU64,
    panics: AtomicU64,
    /// Round-robin cursor for shard placement.
    next_queue: AtomicUsize,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Jobs are opaque closures; show the observable counters.
        f.debug_struct("Shared")
            .field("queues", &self.queues.len())
            .field("submitted", &self.submitted)
            .field("executed", &self.executed)
            .field("steals", &self.steals)
            .field("batches", &self.batches)
            .field("panics", &self.panics)
            .finish_non_exhaustive()
    }
}

impl Shared {
    /// Pops from `me`'s own queue (back), then steals from siblings
    /// (front), oldest-first from the queue after `me`.
    fn grab(&self, me: usize) -> Option<Job> {
        if let Some(job) = self.queues[me]
            .lock()
            .expect("pool queue poisoned")
            .pop_back()
        {
            return Some(job);
        }
        let n = self.queues.len();
        for d in 1..n {
            let victim = (me + d) % n;
            if let Some(job) = self.queues[victim]
                .lock()
                .expect("pool queue poisoned")
                .pop_front()
            {
                self.steals.fetch_add(1, Ordering::Relaxed);
                return Some(job);
            }
        }
        None
    }

    /// Takes every still-queued job of `batch` out of the queues, for
    /// its submitter to run: none of them has started.
    fn claim(&self, batch: u64) -> Vec<Job> {
        let mut mine = Vec::new();
        for q in &self.queues {
            let mut q = q.lock().expect("pool queue poisoned");
            let mut i = 0;
            while i < q.len() {
                if q[i].batch == batch {
                    mine.extend(q.remove(i));
                } else {
                    i += 1;
                }
            }
        }
        if !mine.is_empty() {
            self.park.lock().expect("pool park poisoned").queued -= mine.len() as i64;
        }
        mine
    }

    fn worker_loop(&self, me: usize) {
        loop {
            match self.grab(me) {
                Some(job) => {
                    self.park.lock().expect("pool park poisoned").queued -= 1;
                    (job.run)();
                }
                None => {
                    let park = self.park.lock().expect("pool park poisoned");
                    if park.shutdown {
                        return;
                    }
                    if park.queued <= 0 {
                        let _unused = self.signal.wait(park).expect("pool park poisoned");
                    } else {
                        // Counter says work exists but the push has not
                        // landed in a queue yet (or its submitter is
                        // claiming it back): yield and rescan.
                        drop(park);
                        std::thread::yield_now();
                    }
                }
            }
        }
    }

    /// Runs `f` over one shard's items, each under `catch_unwind`, and
    /// counts the shard as executed.
    fn run_shard<T, R>(
        &self,
        f: &impl Fn(usize, &T) -> R,
        base: usize,
        chunk: &[T],
    ) -> Vec<Result<R, String>> {
        let out = chunk
            .iter()
            .enumerate()
            .map(|(i, item)| {
                catch_unwind(AssertUnwindSafe(|| f(base + i, item))).map_err(|p| {
                    self.panics.fetch_add(1, Ordering::Relaxed);
                    panic_message(&*p)
                })
            })
            .collect();
        // Count completion before the result is handed back: the caller
        // reads `executed` as soon as every shard is in, so a later
        // increment could still be in flight and make
        // `submitted == executed` flicker.
        self.executed.fetch_add(1, Ordering::Relaxed);
        out
    }
}

/// The text of a caught panic's payload.
fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "a pool job panicked".to_owned())
}

/// A fixed-size pool of long-lived worker threads with per-worker
/// stealable job queues.
#[derive(Debug)]
pub(crate) struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads (0 = one per available core).
    pub(crate) fn new(workers: usize) -> WorkerPool {
        let n = if workers == 0 {
            std::thread::available_parallelism().map_or(1, |p| p.get())
        } else {
            workers
        };
        let shared = Arc::new(Shared {
            queues: (0..n).map(|_| Mutex::new(VecDeque::new())).collect(),
            park: Mutex::new(Park {
                queued: 0,
                shutdown: false,
            }),
            signal: Condvar::new(),
            submitted: AtomicU64::new(0),
            executed: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            next_queue: AtomicUsize::new(0),
        });
        let handles = (0..n)
            .map(|me| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("lambek-pool-{me}"))
                    .spawn(move || shared.worker_loop(me))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    pub(crate) fn workers(&self) -> usize {
        self.handles.len()
    }

    pub(crate) fn stats(&self) -> PoolStats {
        PoolStats {
            workers: self.handles.len(),
            submitted: self.shared.submitted.load(Ordering::Relaxed),
            executed: self.shared.executed.load(Ordering::Relaxed),
            steals: self.shared.steals.load(Ordering::Relaxed),
            batches: self.shared.batches.load(Ordering::Relaxed),
            panics: self.shared.panics.load(Ordering::Relaxed),
        }
    }

    /// Instantaneous per-shard queue depths (jobs pushed but not yet
    /// grabbed), one entry per worker. Each queue is locked briefly in
    /// turn, so the vector is per-queue exact but not a cross-queue
    /// atomic snapshot — the gauge semantics exporters expect.
    pub(crate) fn queue_depths(&self) -> Vec<usize> {
        self.shared
            .queues
            .iter()
            .map(|q| q.lock().expect("pool queue poisoned").len())
            .collect()
    }

    /// Runs `f` over every item, sharded across the pool and the calling
    /// thread, and returns the results in item order. `shards_hint`
    /// bounds the shard count (0 = one per worker); an empty item list
    /// submits nothing. An item whose `f` panicked comes back as
    /// `Err(panic message)`.
    ///
    /// `f` receives the item's global index in the batch, so reports
    /// can carry it without threading state through the shards.
    pub(crate) fn run_batch<T, R, F>(
        &self,
        items: Vec<T>,
        shards_hint: usize,
        f: F,
    ) -> Vec<Result<R, String>>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(usize, &T) -> R + Send + Sync + 'static,
    {
        if items.is_empty() {
            return Vec::new();
        }
        let shards = if shards_hint == 0 {
            self.workers()
        } else {
            shards_hint
        }
        .clamp(1, items.len());
        let per = items.len().div_ceil(shards);
        let f = Arc::new(f);
        // Peel each shard off as an owned contiguous chunk (no clones);
        // the chunk remembers its base index for report numbering.
        let mut chunks: Vec<(usize, Vec<T>)> = Vec::with_capacity(shards);
        let mut start = 0;
        let mut rest = items;
        for _ in 0..shards {
            let take = per.min(rest.len());
            let tail = rest.split_off(take);
            chunks.push((start, rest));
            start += take;
            rest = tail;
            if rest.is_empty() {
                break;
            }
        }
        let submitted = chunks.len();
        let batch = self.shared.batches.fetch_add(1, Ordering::Relaxed);
        self.shared
            .submitted
            .fetch_add(submitted as u64, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel::<(usize, Vec<Result<R, String>>)>();
        let mut chunks = chunks.into_iter();
        let (_, own) = chunks.next().expect("a non-empty batch has a shard");
        // Queue every shard but the first, which this thread runs.
        for (shard_idx, (base, chunk)) in chunks.enumerate() {
            let f = f.clone();
            let tx = tx.clone();
            let shared = self.shared.clone();
            let run = Box::new(move || {
                let out = shared.run_shard(&*f, base, &chunk);
                // The receiver only disappears if the caller panicked;
                // a dead letter is then irrelevant.
                let _unused = tx.send((shard_idx + 1, out));
            });
            let q = self.shared.next_queue.fetch_add(1, Ordering::Relaxed) % self.workers();
            self.shared.queues[q]
                .lock()
                .expect("pool queue poisoned")
                .push_back(Job { batch, run });
        }
        drop(tx);
        let queued = submitted - 1;
        if queued > 0 {
            self.shared.park.lock().expect("pool park poisoned").queued += queued as i64;
            for _ in 0..queued.min(self.workers()) {
                self.shared.signal.notify_one();
            }
        }
        let mut slots: Vec<Option<Vec<Result<R, String>>>> = (0..submitted).map(|_| None).collect();
        slots[0] = Some(self.shared.run_shard(&*f, 0, &own));
        if queued > 0 {
            // Before blocking, take back whatever no worker has started.
            for job in self.shared.claim(batch) {
                (job.run)();
            }
        }
        for _ in 0..queued {
            let (shard_idx, out) = rx.recv().expect("every queued shard reports");
            slots[shard_idx] = Some(out);
        }
        slots
            .into_iter()
            .flat_map(|s| s.expect("every shard reported"))
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut park = self.shared.park.lock().expect("pool park poisoned");
            park.shutdown = true;
        }
        self.shared.signal.notify_all();
        for h in self.handles.drain(..) {
            let _unused = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Condvar;
    use std::thread::ThreadId;
    use std::time::Duration;

    /// Unwraps a batch that is known not to panic.
    fn ok<R>(results: Vec<Result<R, String>>) -> Vec<R> {
        results
            .into_iter()
            .map(|r| r.expect("no item panics"))
            .collect()
    }

    #[test]
    fn results_come_back_in_item_order() {
        let pool = WorkerPool::new(4);
        let items: Vec<u64> = (0..257).collect();
        let out = ok(pool.run_batch(items, 0, |i, x| (i as u64, x * 2)));
        assert_eq!(out.len(), 257);
        for (i, (idx, doubled)) in out.iter().enumerate() {
            assert_eq!(*idx, i as u64);
            assert_eq!(*doubled, i as u64 * 2);
        }
        let stats = pool.stats();
        assert_eq!(stats.batches, 1);
        assert!(stats.submitted >= 1 && stats.submitted <= 4);
        assert_eq!(stats.submitted, stats.executed);
    }

    #[test]
    fn empty_batch_submits_nothing() {
        let pool = WorkerPool::new(2);
        let out: Vec<u64> = ok(pool.run_batch(Vec::<u64>::new(), 3, |_, x| *x));
        assert!(out.is_empty());
        assert_eq!(pool.stats().submitted, 0);
        assert_eq!(pool.stats().batches, 0);
    }

    #[test]
    fn pool_survives_many_batches_from_many_threads() {
        let pool = Arc::new(WorkerPool::new(3));
        std::thread::scope(|scope| {
            for t in 0..6 {
                let pool = pool.clone();
                scope.spawn(move || {
                    for round in 0..20 {
                        let items: Vec<u64> = (0..17).map(|i| i + t * 1000 + round).collect();
                        let expect: Vec<u64> = items.iter().map(|x| x + 1).collect();
                        assert_eq!(ok(pool.run_batch(items, 0, |_, x| x + 1)), expect);
                    }
                });
            }
        });
        let stats = pool.stats();
        assert_eq!(stats.batches, 120);
        assert_eq!(stats.submitted, stats.executed);
    }

    #[test]
    fn single_worker_pool_still_drains() {
        let pool = WorkerPool::new(1);
        let out = ok(pool.run_batch((0..50u64).collect(), 8, |_, x| x * x));
        assert_eq!(out[49], 49 * 49);
        assert_eq!(pool.stats().steals, 0);
    }

    #[test]
    fn queue_depths_are_per_worker_and_drain_to_zero() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.queue_depths(), vec![0, 0, 0]);
        let out = ok(pool.run_batch((0..40u64).collect(), 0, |_, x| x + 1));
        assert_eq!(out.len(), 40);
        // run_batch returns only after every shard was received, and
        // every shard was grabbed or claimed off its queue first.
        assert_eq!(pool.queue_depths(), vec![0, 0, 0]);
    }

    /// Threads that arrived at a rendezvous, waited for up to 30 s.
    #[derive(Default)]
    struct Arrivals {
        seen: Mutex<HashSet<ThreadId>>,
        changed: Condvar,
    }

    impl Arrivals {
        /// Records the calling thread, then waits until `n` distinct
        /// threads have arrived (or the timeout passes); returns how
        /// many did.
        fn meet(&self, n: usize) -> usize {
            let mut seen = self.seen.lock().unwrap();
            seen.insert(std::thread::current().id());
            self.changed.notify_all();
            let (seen, _) = self
                .changed
                .wait_timeout_while(seen, Duration::from_secs(30), |s| s.len() < n)
                .unwrap();
            seen.len()
        }
    }

    /// Runs one shard per worker plus the caller's, every item waiting
    /// until all of those threads have arrived: true iff every worker
    /// (and the caller) took part.
    fn every_worker_takes_part(pool: &WorkerPool) -> bool {
        let n = pool.workers() + 1;
        let arrivals = Arc::new(Arrivals::default());
        let met = ok(pool.run_batch((0..n).collect(), n, move |_, _| arrivals.meet(n)));
        met.iter().all(|&m| m == n)
    }

    #[test]
    fn a_panicking_item_fails_alone_and_every_worker_survives() {
        let pool = WorkerPool::new(2);
        for bad in [0, 5, 11] {
            // Item 0 sits in the caller's shard, the others in queued
            // shards: both sides contain the panic.
            let out = pool.run_batch((0..12u64).collect(), 3, move |i, x| {
                assert!(i != bad, "item {i} is poisoned");
                x * 3
            });
            assert_eq!(out.len(), 12);
            for (i, r) in out.iter().enumerate() {
                if i == bad {
                    let msg = r.as_ref().unwrap_err();
                    assert!(msg.contains(&format!("item {bad} is poisoned")), "{msg}");
                } else {
                    assert_eq!(r.as_ref().ok(), Some(&(i as u64 * 3)));
                }
            }
        }
        let stats = pool.stats();
        assert_eq!(stats.panics, 3);
        assert_eq!(stats.submitted, stats.executed);
        assert_eq!(pool.queue_depths(), vec![0, 0]);
        // No worker died with its panic: the next batch needs them all.
        assert!(every_worker_takes_part(&pool), "a worker is gone");
    }

    /// Occupies every worker of `pool` (and one extra caller thread)
    /// with items blocked on a channel; returns the release handle and
    /// the blocked batch's thread.
    fn block_every_worker(
        pool: &Arc<WorkerPool>,
    ) -> (mpsc::Sender<()>, std::thread::JoinHandle<Vec<u64>>) {
        let n = pool.workers() + 1;
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = Arc::new(Mutex::new(release_rx));
        let (started_tx, started_rx) = mpsc::channel::<ThreadId>();
        let started_tx = Mutex::new(started_tx);
        let blocker = {
            let pool = pool.clone();
            std::thread::spawn(move || {
                ok(pool.run_batch((0..n as u64).collect(), n, move |_, x| {
                    let me = std::thread::current().id();
                    started_tx.lock().unwrap().send(me).unwrap();
                    release_rx.lock().unwrap().recv().unwrap();
                    *x
                }))
            })
        };
        let started: HashSet<ThreadId> = (0..n)
            .map(|_| started_rx.recv_timeout(Duration::from_secs(30)).unwrap())
            .collect();
        assert_eq!(started.len(), n, "every worker and the caller are blocked");
        (release_tx, blocker)
    }

    type Recorded = (ThreadId, Vec<ThreadId>);

    /// Submits `items` from a fresh thread; each result is the id of
    /// the thread that ran the item, sent back with the submitting
    /// thread's id. Item 0 sits in the caller's own shard and waits at
    /// `queued`, so every caller sharing that barrier has queued its
    /// other shards before any of them claims.
    fn submit_recording(
        pool: &Arc<WorkerPool>,
        items: usize,
        queued: Arc<std::sync::Barrier>,
    ) -> (mpsc::Receiver<Recorded>, std::thread::JoinHandle<()>) {
        let (tx, rx) = mpsc::channel();
        let pool = pool.clone();
        let caller = std::thread::spawn(move || {
            let ran = ok(pool.run_batch((0..items).collect(), 0, move |i, _| {
                if i == 0 {
                    queued.wait();
                }
                std::thread::current().id()
            }));
            tx.send((std::thread::current().id(), ran)).unwrap();
        });
        (rx, caller)
    }

    #[test]
    fn a_batch_completes_while_every_worker_is_blocked() {
        let pool = Arc::new(WorkerPool::new(2));
        let (release, blocker) = block_every_worker(&pool);
        let (done, caller) = submit_recording(&pool, 8, Arc::new(std::sync::Barrier::new(1)));
        let got = done.recv_timeout(Duration::from_secs(30));
        for _ in 0..=pool.workers() {
            release.send(()).unwrap();
        }
        caller.join().unwrap();
        let (caller, ran) = got.expect("the batch finished on its caller");
        assert_eq!(ran.len(), 8);
        assert!(ran.iter().all(|&t| t == caller));
        assert_eq!(blocker.join().unwrap(), vec![0, 1, 2]);
        let stats = pool.stats();
        assert_eq!(stats.submitted, stats.executed);
        assert_eq!(pool.queue_depths(), vec![0, 0]);
    }

    #[test]
    fn concurrent_callers_run_only_their_own_items() {
        let pool = Arc::new(WorkerPool::new(2));
        let (release, blocker) = block_every_worker(&pool);
        let queued = Arc::new(std::sync::Barrier::new(2));
        let callers = [
            submit_recording(&pool, 16, queued.clone()),
            submit_recording(&pool, 16, queued),
        ];
        let got = callers
            .each_ref()
            .map(|(rx, _)| rx.recv_timeout(Duration::from_secs(30)));
        for _ in 0..=pool.workers() {
            release.send(()).unwrap();
        }
        for (_, caller) in callers {
            caller.join().unwrap();
        }
        for got in got {
            let (caller, ran) = got.expect("each batch finished on its caller");
            assert_eq!(ran.len(), 16);
            assert!(
                ran.iter().all(|&t| t == caller),
                "a caller ran another batch's item"
            );
        }
        blocker.join().unwrap();
        // With the workers free again, a caller's items run on it or on
        // a worker, never on another caller.
        let queued = Arc::new(std::sync::Barrier::new(2));
        let [(a, ja), (b, jb)] = [
            submit_recording(&pool, 64, queued.clone()),
            submit_recording(&pool, 64, queued),
        ];
        let (ca, ra) = a.recv_timeout(Duration::from_secs(30)).unwrap();
        let (cb, rb) = b.recv_timeout(Duration::from_secs(30)).unwrap();
        ja.join().unwrap();
        jb.join().unwrap();
        assert!(!ra.contains(&cb) && !rb.contains(&ca));
        let stats = pool.stats();
        assert_eq!(stats.submitted, stats.executed);
        assert!(stats.steals <= stats.executed);
        assert_eq!(pool.queue_depths(), vec![0, 0]);
    }
}
