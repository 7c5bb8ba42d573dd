//! The serving executor: one work-stealing worker pool that both
//! coordinators — single-tenant [`serve`](crate::serve::serve) and the
//! multi-tenant [`serve_fleet`](crate::fleet::serve_fleet) — run their
//! epochs on.
//!
//! ```text
//!  coordinator (calling thread)          workers (per-worker deques)
//!  ┌───────────────────────────┐ inject ┌────────┐┌────────┐
//!  │ epoch e: tasks, each      │───────►│worker 0││worker 1│…
//!  │ carrying Arc<Publication> │        └───┬────┘└───┬────┘
//!  │                           │◄───────────┴─steal───┘
//!  │ collect exactly e's slots │  bounded mpsc, one Observation per seq
//!  │ merge on (tenant, seq)    │
//!  │ caller's boundary step    │
//!  └───────────────────────────┘
//! ```
//!
//! The executor knows no tuning policy. A coordinator hands
//! [`Epochs::run`] one epoch's tasks and the number of sequence slots they
//! cover, and gets that epoch's observations back in logical-clock order.
//! What happens next — serve's per-boundary diagnosis, the fleet's
//! admission and regret-directed tuner slot — stays with the caller.
//!
//! * **No publication slot.** Epochs are bulk-synchronous by
//!   construction: epoch `e+1`'s tasks exist only after every epoch-`e`
//!   observation has been collected. So each task carries its epoch's
//!   `Arc<Publication>`, and workers read no shared mutable state.
//! * **Work stealing.** Tasks are spread round-robin over per-worker
//!   deques ([`StealPool`]); an idle worker steals the back half of a
//!   victim's deque. Which worker ran a statement never shows: the merge
//!   on `(tenant, seq)` erases arrival order.
//! * **Crash safety.** Statements run inside `catch_unwind`; a caught
//!   panic becomes a `Panicked` observation for its slot. A worker past
//!   its panic budget hands the rest of its task back to the front of its
//!   own deque (where a thief finds it first) and retires. Idle workers
//!   park with a *bounded* wait, so a remainder is never stranded behind
//!   a sleeping peer; if every worker retired, the coordinator drains the
//!   pool inline with an unlimited budget, so each epoch completes.
//! * **Coordinator panics.** A panic on the coordinator's side (a tuning
//!   round, a boundary) is caught; the workers are released and joined
//!   and [`run`] returns the panic, so a run never hangs.

use crate::fastpath::{BindScratch, Bound, FastPathCache};
use crate::system::AutoIndex;
use autoindex_estimator::CostEstimator;
use autoindex_sql::parse_statement;
use autoindex_storage::shape::QueryShape;
use autoindex_storage::{DbSnapshot, ExecOutcome, SimDb, UsageDelta};
use autoindex_support::obs::{Counter, MetricsRegistry, ShardCell, ShardedCounter};
use autoindex_support::rng::derive_seed;
use autoindex_support::steal::StealPool;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// Domain-separation salt for the statement → shard assignment stream.
const SHARD_SALT: u64 = 0x51a4_d000_0b5e_55ed;

/// Statement → shard assignment: a pure function of `(seed, seq)`, so the
/// partition of a stream is identical at any worker count. The fleet
/// derives a per-tenant seed first.
pub(crate) fn shard_of(seed: u64, seq: u64, shards: u64) -> u64 {
    derive_seed(seed ^ SHARD_SALT, seq) % shards
}

/// Resolve a `workers` setting: `0` means one per available core.
pub(crate) fn resolve_workers(workers: usize) -> usize {
    if workers > 0 {
        workers
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

// --------------------------------------------------------- observations

/// Why a sequence slot produced no [`ExecOutcome`].
#[derive(Debug, Clone)]
pub enum ObservationPayload {
    /// The statement executed against the epoch snapshot.
    Executed {
        outcome: ExecOutcome,
        delta: UsageDelta,
        /// Fingerprint hash when the compiled-template fast path served
        /// the statement; `None` on the full parse path. Never rendered
        /// into a transcript (hit *routing* is an implementation detail),
        /// but the coordinator uses it to skip re-fingerprinting and the
        /// reports tally it.
        fp: Option<u64>,
    },
    /// The statement did not parse; the slot is accounted but empty.
    ParseFailed,
    /// The executing worker panicked on this statement (the panic was
    /// caught; the slot is accounted but empty).
    Panicked,
}

/// One statement's result, stamped with its logical-clock position.
#[derive(Debug, Clone)]
pub struct Observation {
    /// Tenant whose stream the statement belongs to (always 0 under
    /// single-tenant `serve`).
    pub tenant: u32,
    /// Sequence number of the statement in its tenant's stream — the
    /// logical clock coordinators merge on.
    pub seq: u64,
    /// Epoch the statement was executed under.
    pub epoch: u64,
    pub payload: ObservationPayload,
}

/// Restore logical-clock order over a batch of observations.
///
/// This is the serving merge operator: whatever arrival order N workers
/// produce, sorting on `(tenant, seq)` yields the sequence a single
/// worker would have produced — the permutation invariance the
/// determinism contract rests on (property-tested in
/// `crates/core/tests/serving.rs`).
pub fn logical_merge(batch: &mut [Observation]) {
    batch.sort_unstable_by_key(|o| (o.tenant, o.seq));
}

// ---------------------------------------------------------- publication

/// What one epoch publishes for one database: the immutable snapshot plus
/// the epoch-frozen compiled-template cache built against that snapshot's
/// catalog. Both are read-only for workers, so fast-path behaviour is a
/// pure function of `(stream, publications)` — invariant under worker
/// count.
pub(crate) struct Publication {
    pub(crate) snap: DbSnapshot,
    pub(crate) cache: FastPathCache,
}

impl Publication {
    /// Snapshot `db` as `epoch` and compile the advisor's templates
    /// against it (an empty cache with the fast path off).
    pub(crate) fn build<E: CostEstimator>(
        db: &SimDb,
        advisor: &AutoIndex<E>,
        epoch: u64,
        fastpath: bool,
    ) -> Arc<Publication> {
        let snap = db.snapshot(epoch);
        let cache = if fastpath {
            FastPathCache::build(advisor.templates().entries(), snap.catalog())
        } else {
            FastPathCache::empty()
        };
        Arc::new(Publication { snap, cache })
    }
}

/// One unit of executor work: tenant `tenant`'s statements in
/// `[start, end)` that map to `shard`, executed against `publication`.
/// A worker that retires mid-task hands back the same task with `start`
/// moved past the statements it already ran.
pub(crate) struct Task {
    pub(crate) tenant: u32,
    pub(crate) epoch: u64,
    pub(crate) start: u64,
    pub(crate) end: u64,
    pub(crate) shard: u64,
    pub(crate) publication: Arc<Publication>,
}

// -------------------------------------------------------------- scratch

/// Per-worker reusable fast-path state: the bind scratch (literal buffer,
/// one bindable skeleton clone per compiled template, selectivity
/// buffers) and the worker's counter cells. Cloned skeletons are only
/// valid against the cache they were cloned from, so they are dropped
/// whenever the pinned publication changes (a new epoch or another
/// tenant). At steady state — same publication, repeat templates —
/// executing a statement through [`execute_statement`] performs **zero
/// heap allocations** (integer/float literals; string literals clone into
/// reused `Value`s).
pub(crate) struct WorkerScratch {
    bind: BindScratch,
    /// `(tenant, epoch)` of the publication the skeletons were cloned from.
    pinned: (u64, u64),
    hits: ShardCell,
    misses: ShardCell,
    fallbacks: ShardCell,
}

impl WorkerScratch {
    fn new(metrics: &ExecMetrics, slot: usize) -> Self {
        WorkerScratch {
            bind: BindScratch::default(),
            pinned: (u64::MAX, u64::MAX),
            hits: metrics.fastpath_hits.cell(slot),
            misses: metrics.fastpath_misses.cell(slot),
            fallbacks: metrics.fastpath_fallbacks.cell(slot),
        }
    }

    /// Re-pin the scratch to a `(tenant, epoch)` publication,
    /// invalidating cached skeleton clones built against any other
    /// publication's cache (fingerprints collide across tenants, so the
    /// tenant id is part of the key).
    fn pin(&mut self, key: (u64, u64)) {
        if self.pinned != key {
            self.bind.clear();
            self.pinned = key;
        }
    }
}

/// Execute one statement against a publication. Reads only the
/// publication and the query text; mutates only the worker's own scratch.
///
/// Fast path: fingerprint-scan the statement (collecting its literals),
/// look the hash up in the publication's compiled-template cache, bind
/// the literals into the worker's reusable skeleton clone, execute. Any
/// miss or tripped bind guard falls back to the full parse + extract —
/// which also reproduces parse failures exactly where the slow path
/// reports them. A hit returns `fp: Some(hash)` so the coordinator can
/// skip re-fingerprinting.
fn execute_statement(
    publication: &Publication,
    sql: &str,
    seq: u64,
    fastpath: bool,
    scratch: &mut WorkerScratch,
) -> ObservationPayload {
    let snap = &publication.snap;

    if fastpath {
        match scratch.bind.bind(&publication.cache, sql) {
            Bound::Hit { hash, shape } => {
                scratch.hits.incr();
                let (outcome, delta) = snap.execute_shape_at(shape, seq);
                return ObservationPayload::Executed {
                    outcome,
                    delta,
                    fp: Some(hash),
                };
            }
            Bound::Fallback => {
                scratch.fallbacks.incr();
                scratch.misses.incr();
            }
            Bound::Miss(_) => scratch.misses.incr(),
        }
    }

    let stmt = match parse_statement(sql) {
        Ok(s) => s,
        Err(_) => return ObservationPayload::ParseFailed,
    };
    let shape = QueryShape::extract(&stmt, snap.catalog());
    let (outcome, delta) = snap.execute_shape_at(&shape, seq);
    ObservationPayload::Executed {
        outcome,
        delta,
        fp: None,
    }
}

// --------------------------------------------------------------- run

/// Executor metric handles. `<prefix>.worker_panics` and
/// `<prefix>.workers_retired` carry the caller's namespace; the
/// `sql.fastpath.*` counters are sharded, one cache-line-padded cell per
/// worker on the per-statement hot path, summed at snapshot time.
pub(crate) struct ExecMetrics {
    worker_panics: Counter,
    workers_retired: Counter,
    fastpath_hits: ShardedCounter,
    fastpath_misses: ShardedCounter,
    fastpath_fallbacks: ShardedCounter,
}

impl ExecMetrics {
    pub(crate) fn bind(m: &MetricsRegistry, prefix: &str) -> Self {
        ExecMetrics {
            worker_panics: m.counter(&format!("{prefix}.worker_panics")),
            workers_retired: m.counter(&format!("{prefix}.workers_retired")),
            fastpath_hits: m.sharded_counter("sql.fastpath.hits"),
            fastpath_misses: m.sharded_counter("sql.fastpath.misses"),
            fastpath_fallbacks: m.sharded_counter("sql.fastpath.fallbacks"),
        }
    }
}

/// What a run is executed over. `queries` and `seeds` are indexed by
/// [`Task::tenant`].
pub(crate) struct ExecSpec<'a> {
    /// Worker threads (already resolved, at least one).
    pub(crate) workers: usize,
    pub(crate) shards: u64,
    /// Bound of the observation channel (backpressure on workers).
    pub(crate) channel_capacity: usize,
    pub(crate) fastpath: bool,
    /// Caught panics a worker absorbs before retiring.
    pub(crate) max_worker_panics: u64,
    /// `(tenant, seq)` pairs at which the executing worker panics (test
    /// knob; seq-keyed, so injected crashes reproduce at any worker
    /// count).
    pub(crate) panic_on: Vec<(u32, u64)>,
    pub(crate) queries: Vec<&'a [String]>,
    /// Per-tenant shard-assignment seeds.
    pub(crate) seeds: Vec<u64>,
    pub(crate) metrics: ExecMetrics,
}

/// Scheduler-dependent facts about a finished run (observability only).
pub(crate) struct ExecStats {
    pub(crate) workers_retired: usize,
    /// Successful steal grabs.
    pub(crate) steals: u64,
    /// Tasks moved by those grabs.
    pub(crate) stolen_tasks: u64,
}

/// State shared by the workers and the coordinator.
struct Shared<'a> {
    spec: ExecSpec<'a>,
    pool: StealPool<Task>,
    done: AtomicBool,
    park_lock: Mutex<()>,
    park_cv: Condvar,
    /// Workers still running: when it reaches zero with work queued, the
    /// coordinator drains the pool itself.
    live: AtomicUsize,
    retired: AtomicUsize,
}

/// The coordinator's handle on a running executor; see [`Epochs::run`].
pub(crate) struct Epochs<'s, 'a> {
    shared: &'s Shared<'a>,
    rx: Receiver<Observation>,
    scratch: WorkerScratch,
}

/// Spawn `spec.workers` workers, run `coordinator` on the calling thread,
/// then stop and join the workers. A coordinator panic is caught and
/// returned as `Err` after the workers have been released and joined.
pub(crate) fn run<R>(
    spec: ExecSpec<'_>,
    coordinator: impl FnOnce(&mut Epochs<'_, '_>) -> R,
) -> (std::thread::Result<R>, ExecStats) {
    let workers = spec.workers;
    let (tx, rx) = mpsc::sync_channel::<Observation>(spec.channel_capacity);
    let shared = Shared {
        spec,
        pool: StealPool::new(workers),
        done: AtomicBool::new(false),
        park_lock: Mutex::new(()),
        park_cv: Condvar::new(),
        live: AtomicUsize::new(workers),
        retired: AtomicUsize::new(0),
    };
    let result = std::thread::scope(|s| {
        for slot in 0..workers {
            let tx = tx.clone();
            let shared = &shared;
            s.spawn(move || shared.worker(&tx, slot));
        }
        drop(tx); // the coordinator only receives
        let mut epochs = Epochs {
            shared: &shared,
            rx,
            scratch: WorkerScratch::new(&shared.spec.metrics, workers),
        };
        let result = catch_unwind(AssertUnwindSafe(|| coordinator(&mut epochs)));
        // Release the workers whether or not the coordinator finished:
        // dropping the receiver unblocks a worker stuck on a full channel,
        // and the done flag ends every worker loop, so the scope joins.
        drop(epochs);
        shared.done.store(true, Ordering::Release);
        shared.wake_all();
        result
    });
    let stats = ExecStats {
        workers_retired: shared.retired.load(Ordering::SeqCst),
        steals: shared.pool.steals(),
        stolen_tasks: shared.pool.stolen_tasks(),
    };
    (result, stats)
}

impl Epochs<'_, '_> {
    /// Run one epoch: inject `tasks`, receive exactly `expected`
    /// observations (one per sequence slot the tasks cover) and return
    /// them merged into logical-clock order. If every worker has retired
    /// with tasks still queued, drain the pool inline (unlimited panic
    /// budget — each slot panics at most once) so the epoch completes.
    pub(crate) fn run(&mut self, tasks: Vec<Task>, expected: u64) -> Vec<Observation> {
        let shared = self.shared;
        shared.pool.inject(tasks);
        shared.wake_all();
        let mut got: Vec<Observation> = Vec::with_capacity(expected as usize);
        while (got.len() as u64) < expected {
            if let Ok(o) = self.rx.recv_timeout(Duration::from_millis(20)) {
                got.push(o);
                continue;
            }
            got.extend(self.rx.try_iter());
            if shared.live.load(Ordering::SeqCst) == 0 && (got.len() as u64) < expected {
                let mut panics = 0u64;
                let mut emit = |o: Observation| {
                    got.push(o);
                    true
                };
                while let Some(task) = shared.pool.pop(0) {
                    let left =
                        shared.run_task(task, &mut self.scratch, &mut panics, u64::MAX, &mut emit);
                    debug_assert!(left.is_none(), "unlimited budget never retires");
                }
            }
        }
        logical_merge(&mut got);
        got
    }
}

impl Shared<'_> {
    fn wake_all(&self) {
        let _g = self
            .park_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        self.park_cv.notify_all();
    }

    /// Bounded nap (≤ 2 ms): a wake-up may be missed between a failed pop
    /// and the park (the coordinator injects and notifies concurrently),
    /// so the timeout — not the notification — is the liveness guarantee.
    fn park(&self) {
        let g = self
            .park_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if self.done.load(Ordering::Acquire) {
            return;
        }
        let _ = self
            .park_cv
            .wait_timeout(g, Duration::from_millis(2))
            .unwrap_or_else(PoisonError::into_inner);
    }

    /// The worker loop: pop (or steal) a task, run it, park briefly when
    /// the pool is dry. Retires after exhausting the panic budget, handing
    /// the task remainder to the front of its own deque.
    fn worker(&self, tx: &SyncSender<Observation>, slot: usize) {
        let mut scratch = WorkerScratch::new(&self.spec.metrics, slot);
        let max = self.spec.max_worker_panics;
        let mut panics = 0u64;
        let mut emit = |o: Observation| tx.send(o).is_ok();
        while !self.done.load(Ordering::Acquire) {
            let Some(task) = self.pool.pop(slot) else {
                self.park();
                continue;
            };
            if let Some(rest) = self.run_task(task, &mut scratch, &mut panics, max, &mut emit) {
                self.pool.push_front(slot, rest);
            }
            if panics > max {
                // Peers poll with bounded parks, so the remainder is
                // picked up without an explicit wake.
                self.spec.metrics.workers_retired.incr();
                self.retired.fetch_add(1, Ordering::SeqCst);
                break;
            }
        }
        self.live.fetch_sub(1, Ordering::SeqCst);
    }

    /// Execute the statements of one task, emitting one observation per
    /// sequence slot. Returns the unfinished remainder when the panic
    /// budget runs out mid-task, `None` otherwise. `emit` returning
    /// `false` means the coordinator is gone.
    fn run_task(
        &self,
        task: Task,
        scratch: &mut WorkerScratch,
        panics: &mut u64,
        max_panics: u64,
        emit: &mut dyn FnMut(Observation) -> bool,
    ) -> Option<Task> {
        let spec = &self.spec;
        let queries = spec.queries[task.tenant as usize];
        let seed = spec.seeds[task.tenant as usize];
        scratch.pin((task.tenant as u64, task.publication.snap.epoch));
        for seq in task.start..task.end {
            if shard_of(seed, seq, spec.shards) != task.shard {
                continue;
            }
            let payload = match catch_unwind(AssertUnwindSafe(|| {
                if spec.panic_on.contains(&(task.tenant, seq)) {
                    panic!("injected worker panic at tenant {} seq {seq}", task.tenant);
                }
                let sql = &queries[seq as usize];
                execute_statement(&task.publication, sql, seq, spec.fastpath, scratch)
            })) {
                Ok(p) => p,
                Err(_) => {
                    spec.metrics.worker_panics.incr();
                    *panics += 1;
                    ObservationPayload::Panicked
                }
            };
            let panicked = matches!(payload, ObservationPayload::Panicked);
            let observation = Observation {
                tenant: task.tenant,
                seq,
                epoch: task.epoch,
                payload,
            };
            if !emit(observation) {
                return None;
            }
            if panicked && *panics > max_panics {
                return (seq + 1 < task.end).then_some(Task {
                    start: seq + 1,
                    ..task
                });
            }
        }
        None
    }
}

/// The message of a caught panic payload, for error reports.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}
