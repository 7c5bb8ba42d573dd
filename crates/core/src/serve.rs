//! Concurrent online serving for one database: executor workers plus a
//! coordinator that tunes at every epoch boundary.
//!
//! The paper's online loop ([`crate::online`]) observes queries, diagnoses
//! drift and retunes *while the workload keeps running* — but our
//! single-threaded [`OnlineAutoIndex`](crate::online::OnlineAutoIndex)
//! interleaves execution and tuning on one thread, which caps the
//! "heavy traffic" deployment shape. [`serve`] is the multi-worker
//! front-end:
//!
//! ```text
//!             shards 0..S        ┌────────────────────────────┐
//!  queries ──► tasks (epoch e) ──► work-stealing executor pool │
//!  (seq-numbered                 └─────────────┬──────────────┘
//!   logical clock)                             │ observations
//!        ▲                                     ▼
//!        │ Arc<Publication>    ┌────────────────────────────────┐
//!        └─────────────────────┤ coordinator (calling thread):   │
//!          (epoch e+1)         │ merge on seq, absorb, diagnose, │
//!                              │ TuningSession, republish        │
//!                              └────────────────────────────────┘
//! ```
//!
//! * **Executors** are the shared serving executor (`executor.rs`), the
//!   same work-stealing pool the multi-tenant [`crate::fleet`] runs on.
//!   Each epoch the coordinator injects one task per shard; every task
//!   carries the epoch's immutable
//!   [`DbSnapshot`](autoindex_storage::DbSnapshot) and compiled-template
//!   cache, so the per-statement read path takes no lock.
//! * **Observations** (execution outcome + detached usage delta, stamped
//!   with the statement's sequence number) flow back over a bounded
//!   channel; the coordinator collects exactly one per slot of the epoch.
//! * **The coordinator** owns the live [`SimDb`] and the advisor. It
//!   merges observations on the logical clock ([`logical_merge`]), absorbs
//!   their side effects in sequence order, diagnoses at every epoch
//!   boundary and runs the existing
//!   [`TuningSession`](crate::session::TuningSession) (optionally
//!   [`Guard`](crate::guard::Guard)ed) pipeline — then publishes the new
//!   configuration as the next epoch's snapshot. Config swaps are **only**
//!   visible at epoch boundaries.
//!
//! # Determinism contract
//!
//! A run is *byte-identical in its decisions* regardless of worker count:
//! diagnoses, tuning decisions and the per-epoch `ConfigSet` fingerprints
//! in [`ServeReport::transcript`] are equal for 1 and N workers. Three
//! mechanisms make this hold (see `docs/SERVING.md`):
//!
//! 1. statement → shard assignment is a pure function of `(seed, seq)`,
//! 2. measurement noise is derived per-`seq` (never from a shared RNG
//!    stream), so an outcome does not depend on which thread computed it,
//! 3. epochs are bulk-synchronous: epoch-*e* tasks carry the epoch-*e*
//!    snapshot and exist only after epoch *e − 1* is fully merged, and the
//!    coordinator merges each epoch's observations in `seq` order before
//!    absorbing them.
//!
//! Worker count then only changes *which thread* computes each outcome —
//! never the outcome itself. `scripts/verify.sh` compares the 1-worker and
//! 4-worker transcripts byte-for-byte.
//!
//! # Crash safety
//!
//! Every statement executes inside `catch_unwind`; a panicking statement
//! increments `serve.worker_panics` and yields a `Panicked` observation
//! for its slot (keeping epoch accounting exact). Beyond
//! [`ServeConfig::max_worker_panics`] a worker retires after handing the
//! unfinished remainder of its task back; the surviving workers (or, in
//! the limit, the coordinator itself) finish the stream. A panic on the
//! coordinator's side ends the run with an `Err`, never a hang.

use crate::error::{invalid, AutoIndexError};
use crate::executor::{
    self, panic_message, resolve_workers, shard_of, ExecMetrics, ExecSpec, Publication, Task,
};
use crate::guard::GuardConfig;
use crate::mcts::{ConfigSet, Universe};
use crate::system::AutoIndex;
use autoindex_estimator::CostEstimator;
use autoindex_storage::{SimDb, UsageDelta};
use autoindex_support::obs::{Counter, Gauge, MetricsRegistry};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use crate::executor::{logical_merge, Observation, ObservationPayload};

// --------------------------------------------------------------- config

/// Configuration of the serving pipeline. Prefer
/// [`ServeConfig::builder`], which validates every field.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Executor threads. `0` means "one per available core"
    /// (`std::thread::available_parallelism`), mirroring the greedy
    /// ranker's convention.
    pub workers: usize,
    /// Logical shards the stream is split into. More shards than workers
    /// gives the scheduler slack to balance uneven statement costs.
    pub shards: u64,
    /// Statements per epoch: the cadence of observation merging,
    /// diagnosis and (potential) config swaps.
    pub epoch_interval: u64,
    /// Bound of the observation channel (backpressure on executors).
    pub channel_capacity: usize,
    /// Seed of the shard-assignment stream.
    pub seed: u64,
    /// Quiet epochs required strictly between two tuning rounds: after a
    /// round at epoch `t`, the next becomes eligible at `t + this + 1`.
    /// See [`tuning_cooldown_over`] for the pinned comparison.
    pub tuning_cooldown_epochs: u64,
    /// Reset usage counters after each tuning round (fresh measurement
    /// window for the new configuration), like the online loop.
    pub reset_usage_after_tuning: bool,
    /// Run tuning rounds through the guard pipeline (shadow admission,
    /// snapshot, fault-safe DDL, automatic rollback).
    pub guard: Option<GuardConfig>,
    /// Panics a worker absorbs before retiring (graceful degradation).
    /// `0` retires a worker on its first panic.
    pub max_worker_panics: u64,
    /// Test knob: sequence numbers at which the executing worker panics
    /// (inside its `catch_unwind` fence). Seq-keyed, so injected crashes
    /// reproduce identically at any worker count.
    pub panic_on: Vec<u64>,
    /// Use the compiled-template fast path ([`crate::fastpath`]): repeat
    /// statements skip parsing + extraction entirely. Decisions and
    /// transcripts are byte-identical either way (CI-checked); off is for
    /// benchmarking the slow path and belt-and-braces debugging.
    pub fastpath: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 1,
            shards: 16,
            epoch_interval: 1_000,
            channel_capacity: 1_024,
            seed: 42,
            tuning_cooldown_epochs: 1,
            reset_usage_after_tuning: true,
            guard: None,
            max_worker_panics: 0,
            panic_on: Vec::new(),
            fastpath: true,
        }
    }
}

impl ServeConfig {
    /// Validated builder (preferred over struct-literal construction).
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder {
            cfg: ServeConfig::default(),
        }
    }
}

/// Builder for [`ServeConfig`]; `build()` validates every field.
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    cfg: ServeConfig,
}

impl ServeConfigBuilder {
    pub fn workers(mut self, v: usize) -> Self {
        self.cfg.workers = v;
        self
    }
    pub fn shards(mut self, v: u64) -> Self {
        self.cfg.shards = v;
        self
    }
    pub fn epoch_interval(mut self, v: u64) -> Self {
        self.cfg.epoch_interval = v;
        self
    }
    pub fn channel_capacity(mut self, v: usize) -> Self {
        self.cfg.channel_capacity = v;
        self
    }
    pub fn seed(mut self, v: u64) -> Self {
        self.cfg.seed = v;
        self
    }
    pub fn tuning_cooldown_epochs(mut self, v: u64) -> Self {
        self.cfg.tuning_cooldown_epochs = v;
        self
    }
    pub fn reset_usage_after_tuning(mut self, v: bool) -> Self {
        self.cfg.reset_usage_after_tuning = v;
        self
    }
    pub fn guard(mut self, v: impl Into<Option<GuardConfig>>) -> Self {
        self.cfg.guard = v.into();
        self
    }
    pub fn max_worker_panics(mut self, v: u64) -> Self {
        self.cfg.max_worker_panics = v;
        self
    }
    pub fn panic_on(mut self, v: Vec<u64>) -> Self {
        self.cfg.panic_on = v;
        self
    }
    pub fn fastpath(mut self, v: bool) -> Self {
        self.cfg.fastpath = v;
        self
    }

    /// Validate and build.
    pub fn build(self) -> Result<ServeConfig, AutoIndexError> {
        let c = self.cfg;
        if c.shards == 0 {
            return Err(invalid("serve.shards", "must be >= 1"));
        }
        if c.epoch_interval == 0 {
            return Err(invalid(
                "serve.epoch_interval",
                "must be >= 1 (a zero-length epoch never completes)",
            ));
        }
        if c.channel_capacity == 0 {
            return Err(invalid(
                "serve.channel_capacity",
                "must be >= 1 (a zero-capacity channel deadlocks rendezvous-style)",
            ));
        }
        Ok(c)
    }
}

// --------------------------------------------------------------- metrics

/// Cached `serve.*` coordinator metric handles (the executor binds
/// `serve.worker_panics`, `serve.workers_retired` and `sql.fastpath.*`).
struct ServeMetrics {
    executed: Counter,
    parse_failures: Counter,
    tuning_rounds: Counter,
    epochs: Counter,
    workers: Gauge,
}

impl ServeMetrics {
    fn bind(m: &MetricsRegistry) -> Self {
        ServeMetrics {
            executed: m.counter("serve.executed"),
            parse_failures: m.counter("serve.parse_failures"),
            tuning_rounds: m.counter("serve.tuning_rounds"),
            epochs: m.counter("serve.epochs"),
            workers: m.gauge("serve.workers"),
        }
    }
}

// ---------------------------------------------------------------- report

/// What one epoch boundary decided. The formatted fields of this record
/// are the determinism contract's observable surface.
#[derive(Debug, Clone)]
pub struct EpochRecord {
    pub epoch: u64,
    /// Sequence slots accounted in this epoch (executed + failed + panicked).
    pub statements: u64,
    /// Statements that actually executed.
    pub executed: u64,
    pub parse_failures: u64,
    pub panics: u64,
    /// Whether diagnosis fired at this boundary.
    pub diagnosis_fired: bool,
    /// The diagnosis problem ratio.
    pub problem_ratio: f64,
    /// Canonical rendering of the tuning decision (`none`, `cooldown`,
    /// `noop`, `applied(+a,-d)`, `rolled_back`, `shadow_rejected`).
    pub decision: String,
    /// `ConfigSet` fingerprint of the real index set *after* the boundary.
    pub config_fingerprint: u64,
    /// Real indexes after the boundary.
    pub index_count: usize,
    /// Summed simulated latency of the epoch's executed statements, ms
    /// (accumulated in `seq` order — deterministic).
    pub sim_latency_ms: f64,
}

impl EpochRecord {
    /// One transcript line. Everything here is decision-relevant and
    /// deterministic; wall-clock never appears.
    fn line(&self) -> String {
        format!(
            "epoch {}: stmts={} exec={} parse_err={} panics={} diag={} ratio={:.6} \
             decision={} indexes={} fp={:016x} sim_ms={:.6}",
            self.epoch,
            self.statements,
            self.executed,
            self.parse_failures,
            self.panics,
            if self.diagnosis_fired {
                "fired"
            } else {
                "quiet"
            },
            self.problem_ratio,
            self.decision,
            self.index_count,
            self.config_fingerprint,
            self.sim_latency_ms,
        )
    }
}

/// Aggregate result of a [`serve`] run.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Statements that executed against a snapshot.
    pub executed: u64,
    pub parse_failures: u64,
    /// Caught worker panics (injected or real).
    pub panics: u64,
    /// Executor threads the run started with.
    pub workers: usize,
    /// Executors that retired after exhausting their panic budget.
    pub workers_retired: usize,
    /// Tuning rounds the coordinator ran (including no-op recommendations).
    pub tuning_rounds: u64,
    /// Per-epoch boundary records, in epoch order.
    pub epochs: Vec<EpochRecord>,
    /// Sum of all executed statements' simulated latencies, ms.
    pub total_sim_latency_ms: f64,
    /// Deterministic simulated fleet makespan, ms: per epoch, the
    /// per-shard simulated-latency totals are packed onto the worker
    /// slots with a greedy longest-processing-time schedule, and the
    /// busiest slot's load is summed over epochs (the epoch barrier is a
    /// synchronisation point). A pure function of
    /// `(stream, seed, shards, workers)` — byte-stable across runs,
    /// unlike the racy *actual* task pickup.
    pub sim_makespan_ms: f64,
    /// Executed statements served by the compiled-template fast path.
    /// Deliberately **not** part of [`ServeReport::transcript`] — routing
    /// is an implementation detail — but worker-count invariant all the
    /// same (caches are epoch-frozen; `verify.sh` smoke-checks a non-zero
    /// hit rate).
    pub fastpath_hits: u64,
    /// Executed statements that took the full parse path (cache miss,
    /// bind-guard fallback, or fast path disabled).
    pub fastpath_misses: u64,
    /// Real wall-clock time of the whole run.
    pub wall: Duration,
}

impl ServeReport {
    /// Simulated fleet makespan (see [`ServeReport::sim_makespan_ms`]):
    /// the time the executor fleet would take if every worker really
    /// slept its statements' simulated latencies, under the canonical
    /// deterministic shard → slot schedule. With perfect sharding this is
    /// `total_sim_latency_ms / workers`; skew shows up as a longer
    /// makespan.
    pub fn makespan_ms(&self) -> f64 {
        self.sim_makespan_ms
    }

    /// Serving throughput in the simulation's time domain:
    /// executed statements per simulated second of makespan. This is the
    /// metric `BENCH_PR5.json` sweeps over worker counts (see
    /// `docs/SERVING.md` for why wall-clock on the build host is not it).
    pub fn simulated_qps(&self) -> f64 {
        let mk = self.makespan_ms();
        if mk <= 0.0 {
            0.0
        } else {
            self.executed as f64 * 1000.0 / mk
        }
    }

    /// The determinism contract's byte-comparable surface: stream totals,
    /// every epoch boundary's diagnosis + decision + `ConfigSet`
    /// fingerprint, and the final configuration. Contains no wall-clock
    /// and no per-worker data, so any two runs that made the same
    /// decisions render identically — `verify.sh` diffs the 1-worker and
    /// 4-worker transcripts byte-for-byte.
    pub fn transcript(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "serve: executed={} parse_failures={} panics={} tuning_rounds={} epochs={} \
             total_sim_ms={:.6}\n",
            self.executed,
            self.parse_failures,
            self.panics,
            self.tuning_rounds,
            self.epochs.len(),
            self.total_sim_latency_ms,
        ));
        for e in &self.epochs {
            out.push_str(&e.line());
            out.push('\n');
        }
        if let Some(last) = self.epochs.last() {
            out.push_str(&format!(
                "final: indexes={} fp={:016x}\n",
                last.index_count, last.config_fingerprint
            ));
        }
        out
    }
}

/// Everything [`serve`] hands back: the evolved database and advisor
/// (tuned state, templates, policy tree) plus the run report.
pub struct ServeOutcome<E: CostEstimator> {
    pub db: SimDb,
    pub advisor: AutoIndex<E>,
    pub report: ServeReport,
}

// ------------------------------------------- steps both coordinators share

/// Deterministic epoch makespan: pack per-shard simulated-latency totals
/// onto `workers` slots, longest first, each onto the least-loaded slot
/// (greedy LPT). Returns the busiest slot's load.
///
/// This models the fleet's parallel execution time in the *simulated*
/// time domain as a pure function of the shard totals, instead of
/// measuring which thread happened to win the race for which task —
/// which is scheduler-dependent and would make the throughput bench
/// (`BENCH_PR5.json` / `scripts/check_bench.sh`) flaky.
pub(crate) fn lpt_makespan(mut shard_ms: Vec<f64>, workers: usize) -> f64 {
    if workers <= 1 {
        return shard_ms.iter().sum();
    }
    // Descending; ties keep the deterministic shard order (stable sort).
    shard_ms.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
    let mut slots = vec![0.0f64; workers];
    for ms in shard_ms {
        let i = slots
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0);
        slots[i] += ms;
    }
    slots.iter().cloned().fold(0.0, f64::max)
}

/// `ConfigSet` fingerprint of `db`'s real index set, interned (sorted by
/// key, so slot assignment is deterministic) into a run-persistent
/// universe.
pub(crate) fn config_fingerprint(db: &SimDb, universe: &mut Universe) -> u64 {
    let mut defs: Vec<_> = db.indexes().map(|(_, d)| d.clone()).collect();
    defs.sort_by_key(|d| d.key());
    let mut set = ConfigSet::default();
    for d in &defs {
        set.insert(universe.intern(d));
    }
    set.fingerprint()
}

/// Absorb one executed statement into the live database and the
/// advisor's template store. Fast-path hits already carry the fingerprint
/// hash: the store's prehashed entry point skips the scan and, on a store
/// hit, the re-parse. Its bookkeeping is mutation-for-mutation identical
/// to `observe` (tested in `templates.rs`), keeping fast-path-on and -off
/// tuner state byte-identical.
pub(crate) fn absorb_executed<E: CostEstimator>(
    db: &mut SimDb,
    advisor: &mut AutoIndex<E>,
    sql: &str,
    delta: &UsageDelta,
    fp: Option<u64>,
) {
    db.absorb(delta);
    let _ = match fp {
        Some(h) => advisor.observe_prehashed(h, sql, db),
        None => advisor.observe(sql, db),
    };
}

/// Run one tuning round through the session pipeline (guarded when
/// `guard` is set), optionally reset usage for a fresh measurement
/// window, and render the decision canonically: `noop`,
/// `applied(+a,-d)`, `rolled_back`, `shadow_rejected` or `error(..)`.
pub(crate) fn tuning_round<E: CostEstimator>(
    advisor: &mut AutoIndex<E>,
    db: &mut SimDb,
    guard: Option<GuardConfig>,
    reset_usage: bool,
) -> String {
    let session = advisor.session(db);
    let run = match guard {
        Some(g) => session.guarded(g).run(),
        None => session.run(),
    };
    let decision = match run {
        Err(e) => format!("error({e})"),
        Ok(out) if out.shadow_rejected() => "shadow_rejected".to_string(),
        Ok(out) if out.rolled_back() => "rolled_back".to_string(),
        Ok(out) if out.report.recommendation.is_noop() => "noop".to_string(),
        Ok(out) => format!(
            "applied(+{},-{})",
            out.report.created.len(),
            out.report.dropped.len()
        ),
    };
    if reset_usage {
        db.reset_usage();
    }
    decision
}

// ----------------------------------------------------------- coordinator

/// The single-tenant coordinator: owns the live database and advisor and
/// runs the boundary step after each merged epoch.
struct Coordinator<'a, E: CostEstimator> {
    cfg: &'a ServeConfig,
    queries: &'a [String],
    metrics: ServeMetrics,
    /// Resolved executor count — the slot count of the canonical makespan
    /// schedule (see [`lpt_makespan`]).
    workers: usize,
    db: SimDb,
    advisor: AutoIndex<E>,
    universe: Universe,
    /// The current epoch's snapshot + compiled-template cache.
    publication: Arc<Publication>,
    epochs: Vec<EpochRecord>,
    executed: u64,
    parse_failures: u64,
    panics: u64,
    tuning_rounds: u64,
    total_sim_latency_ms: f64,
    sim_makespan_ms: f64,
    fastpath_hits: u64,
    fastpath_misses: u64,
    last_tuned_epoch: Option<u64>,
}

impl<E: CostEstimator> Coordinator<'_, E> {
    /// Absorb one epoch's merged observations, then run the boundary:
    /// diagnose → (maybe) tune → record → publish the next snapshot.
    fn boundary(&mut self, epoch: u64, batch: Vec<Observation>) {
        let cfg = self.cfg;
        let mut rec = EpochRecord {
            epoch,
            statements: batch.len() as u64,
            executed: 0,
            parse_failures: 0,
            panics: 0,
            diagnosis_fired: false,
            problem_ratio: 0.0,
            decision: String::new(),
            config_fingerprint: 0,
            index_count: 0,
            sim_latency_ms: 0.0,
        };
        let mut shard_ms = vec![0.0f64; cfg.shards as usize];
        for obs in &batch {
            match &obs.payload {
                ObservationPayload::Executed { outcome, delta, fp } => {
                    let sql = &self.queries[obs.seq as usize];
                    absorb_executed(&mut self.db, &mut self.advisor, sql, delta, *fp);
                    match fp {
                        Some(_) => self.fastpath_hits += 1,
                        None => self.fastpath_misses += 1,
                    }
                    rec.executed += 1;
                    rec.sim_latency_ms += outcome.latency_ms;
                    shard_ms[shard_of(cfg.seed, obs.seq, cfg.shards) as usize] +=
                        outcome.latency_ms;
                    self.metrics.executed.incr();
                }
                ObservationPayload::ParseFailed => {
                    rec.parse_failures += 1;
                    self.metrics.parse_failures.incr();
                }
                ObservationPayload::Panicked => rec.panics += 1,
            }
        }
        // Epoch boundaries are synchronisation points, so the canonical
        // fleet makespan sums per-epoch LPT makespans.
        self.sim_makespan_ms += lpt_makespan(shard_ms, self.workers);

        let diagnosis = self.advisor.diagnose(&self.db);
        rec.diagnosis_fired = diagnosis.should_tune;
        rec.problem_ratio = diagnosis.problem_ratio;
        rec.decision = if !diagnosis.should_tune {
            "none".to_string()
        } else if !tuning_cooldown_over(self.last_tuned_epoch, epoch, cfg.tuning_cooldown_epochs) {
            "cooldown".to_string()
        } else {
            self.tuning_rounds += 1;
            self.metrics.tuning_rounds.incr();
            self.last_tuned_epoch = Some(epoch);
            tuning_round(
                &mut self.advisor,
                &mut self.db,
                cfg.guard.clone(),
                cfg.reset_usage_after_tuning,
            )
        };

        rec.config_fingerprint = config_fingerprint(&self.db, &mut self.universe);
        rec.index_count = self.db.index_count();
        self.executed += rec.executed;
        self.parse_failures += rec.parse_failures;
        self.panics += rec.panics;
        self.total_sim_latency_ms += rec.sim_latency_ms;
        self.epochs.push(rec);
        self.metrics.epochs.incr();

        // Publish the (possibly re-tuned) configuration for the next
        // epoch — the only point a config swap becomes visible. The
        // compiled-template cache is rebuilt against the new snapshot's
        // catalog (statistics moved; a tuning round may have fired), so
        // each epoch's fast-path behaviour is frozen at this boundary.
        self.publication = Publication::build(&self.db, &self.advisor, epoch + 1, cfg.fastpath);
    }
}

// ----------------------------------------------------------------- serve

/// Run the concurrent serving pipeline over `queries`: executor workers
/// drain the sharded stream against epoch snapshots of `db` while the
/// calling thread coordinates — absorbing their observations and
/// re-tuning the live database, publishing config swaps at epoch
/// boundaries. See the [module docs](self) for the architecture,
/// determinism contract and crash-safety story.
///
/// Consumes and returns `db` and `advisor`; afterwards they carry the
/// tuned state. A panic on the coordinator's side (for example inside a
/// tuning round) is reported as an `Err` once the workers have stopped.
pub fn serve<E: CostEstimator>(
    db: SimDb,
    advisor: AutoIndex<E>,
    queries: &[String],
    config: ServeConfig,
) -> Result<ServeOutcome<E>, AutoIndexError> {
    // Re-validate (serve is callable with a struct-literal config).
    let config = ServeConfigBuilder { cfg: config }.build()?;
    let workers = resolve_workers(config.workers);
    let n = queries.len() as u64;

    let spec = ExecSpec {
        workers,
        shards: config.shards,
        channel_capacity: config.channel_capacity,
        fastpath: config.fastpath,
        max_worker_panics: config.max_worker_panics,
        panic_on: config.panic_on.iter().map(|&seq| (0, seq)).collect(),
        queries: vec![queries],
        seeds: vec![config.seed],
        metrics: ExecMetrics::bind(db.metrics(), "serve"),
    };
    let metrics = ServeMetrics::bind(db.metrics());
    metrics.workers.set(workers as f64);
    let mut co = Coordinator {
        cfg: &config,
        queries,
        metrics,
        workers,
        publication: Publication::build(&db, &advisor, 0, config.fastpath),
        db,
        advisor,
        universe: Universe::new(),
        epochs: Vec::new(),
        executed: 0,
        parse_failures: 0,
        panics: 0,
        tuning_rounds: 0,
        total_sim_latency_ms: 0.0,
        sim_makespan_ms: 0.0,
        fastpath_hits: 0,
        fastpath_misses: 0,
        last_tuned_epoch: None,
    };

    let started = Instant::now();
    let (result, stats) = executor::run(spec, |epochs| {
        for epoch in 0..n.div_ceil(config.epoch_interval) {
            let start = epoch * config.epoch_interval;
            let end = (start + config.epoch_interval).min(n);
            let tasks = (0..config.shards)
                .map(|shard| Task {
                    tenant: 0,
                    epoch,
                    start,
                    end,
                    shard,
                    publication: Arc::clone(&co.publication),
                })
                .collect();
            let batch = epochs.run(tasks, end - start);
            co.boundary(epoch, batch);
        }
    });
    if let Err(payload) = result {
        return Err(invalid(
            "serve.tuner",
            format!(
                "the coordinator panicked ({}); the run was aborted",
                panic_message(&*payload)
            ),
        ));
    }

    let report = ServeReport {
        executed: co.executed,
        parse_failures: co.parse_failures,
        panics: co.panics,
        workers,
        workers_retired: stats.workers_retired,
        tuning_rounds: co.tuning_rounds,
        epochs: co.epochs,
        total_sim_latency_ms: co.total_sim_latency_ms,
        sim_makespan_ms: co.sim_makespan_ms,
        fastpath_hits: co.fastpath_hits,
        fastpath_misses: co.fastpath_misses,
        wall: started.elapsed(),
    };
    Ok(ServeOutcome {
        db: co.db,
        advisor: co.advisor,
        report,
    })
}

/// Whether the tuning cooldown has elapsed at `epoch`.
///
/// `cooldown` is [`ServeConfig::tuning_cooldown_epochs`]: the number of
/// epoch boundaries that must pass *strictly between* two tuning rounds.
/// A round at epoch `t` makes the next one eligible at `t + cooldown + 1`
/// (the strict `>` is deliberate — `cooldown = 0` still forbids two
/// rounds at the same epoch, and `cooldown = 1` leaves exactly one
/// quiet epoch between rounds). Before the first round there is nothing
/// to cool down from.
///
/// This comparison is pinned by a regression test: relaxing `>` to `>=`
/// would shift every tuning round one epoch earlier and change serve
/// transcripts, which are CI-checked byte-for-byte.
pub fn tuning_cooldown_over(last_tuned: Option<u64>, epoch: u64, cooldown: u64) -> bool {
    match last_tuned {
        None => true,
        Some(t) => epoch.saturating_sub(t) > cooldown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::AutoIndexConfig;
    use autoindex_estimator::NativeCostEstimator;
    use autoindex_storage::catalog::{Catalog, Column, TableBuilder};
    use autoindex_storage::SimDbConfig;

    fn db() -> SimDb {
        let mut c = Catalog::new();
        c.add_table(
            TableBuilder::new("t", 800_000)
                .column(Column::int("id", 800_000))
                .column(Column::int("a", 400_000))
                .column(Column::int("b", 4_000))
                .primary_key(&["id"])
                .build()
                .unwrap(),
        );
        SimDb::with_metrics(c, SimDbConfig::default(), MetricsRegistry::new())
    }

    fn advisor() -> AutoIndex<NativeCostEstimator> {
        AutoIndex::new(AutoIndexConfig::default(), NativeCostEstimator)
    }

    fn point_lookups(n: usize) -> Vec<String> {
        (0..n)
            .map(|i| format!("SELECT * FROM t WHERE a = {i}"))
            .collect()
    }

    #[test]
    fn builder_validates() {
        assert!(ServeConfig::builder().build().is_ok());
        assert!(ServeConfig::builder().shards(0).build().is_err());
        assert!(ServeConfig::builder().epoch_interval(0).build().is_err());
        assert!(ServeConfig::builder().channel_capacity(0).build().is_err());
        let c = ServeConfig::builder().workers(3).seed(7).build().unwrap();
        assert_eq!(c.workers, 3);
        assert_eq!(c.seed, 7);
    }

    // Regression (PR7 satellite): the guard-cooldown comparison is
    // *strict* — `epoch - last > cooldown`, not `>=`. Relaxing it would
    // fire every tuning round one epoch early and silently change every
    // CI-pinned transcript, so the exact boundary is locked in here.
    #[test]
    fn tuning_cooldown_boundary_is_strict() {
        // Never tuned: always eligible.
        assert!(tuning_cooldown_over(None, 0, 0));
        assert!(tuning_cooldown_over(None, 0, 100));
        // cooldown = 0 still forbids a second round at the same epoch.
        assert!(!tuning_cooldown_over(Some(5), 5, 0));
        assert!(tuning_cooldown_over(Some(5), 6, 0));
        // cooldown = 1 (the default): one quiet epoch between rounds.
        assert!(!tuning_cooldown_over(Some(5), 6, 1));
        assert!(tuning_cooldown_over(Some(5), 7, 1));
        // No underflow when the clock looks backwards.
        assert!(!tuning_cooldown_over(Some(9), 3, 1));
    }

    #[test]
    fn empty_stream_yields_empty_report() {
        let out = serve(db(), advisor(), &[], ServeConfig::default()).unwrap();
        assert_eq!(out.report.executed, 0);
        assert!(out.report.epochs.is_empty());
        assert_eq!(out.report.simulated_qps(), 0.0);
        assert!(out.report.transcript().starts_with("serve: executed=0"));
    }

    #[test]
    fn logical_merge_restores_seq_order() {
        let mk = |seq| Observation {
            tenant: 0,
            seq,
            epoch: 0,
            payload: ObservationPayload::ParseFailed,
        };
        let mut batch = vec![mk(3), mk(0), mk(2), mk(1)];
        logical_merge(&mut batch);
        let seqs: Vec<u64> = batch.iter().map(|o| o.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn shard_assignment_covers_all_shards_and_is_stable() {
        let shards = 8;
        let mut seen = vec![0u64; shards as usize];
        for seq in 0..1_000 {
            let s = shard_of(42, seq, shards);
            assert_eq!(s, shard_of(42, seq, shards), "pure function");
            seen[s as usize] += 1;
        }
        assert!(seen.iter().all(|&c| c > 50), "balanced-ish: {seen:?}");
    }

    #[test]
    fn lpt_makespan_is_deterministic_and_bounded() {
        let loads = vec![5.0, 3.0, 3.0, 2.0, 2.0, 1.0];
        let total: f64 = loads.iter().sum();
        // One slot: the makespan is the serial total.
        assert!((lpt_makespan(loads.clone(), 1) - total).abs() < 1e-12);
        for workers in 2..=4 {
            let mk = lpt_makespan(loads.clone(), workers);
            // Same inputs, same schedule — byte-stable.
            assert_eq!(mk.to_bits(), lpt_makespan(loads.clone(), workers).to_bits());
            // Classic packing bounds: no better than a perfect split, no
            // worse than serial, and at least the single longest shard.
            assert!(mk >= total / workers as f64 - 1e-12);
            assert!(mk <= total + 1e-12);
            assert!(mk >= 5.0 - 1e-12);
        }
        // Perfectly splittable case packs perfectly.
        assert!((lpt_makespan(vec![2.0, 2.0, 2.0, 2.0], 2) - 4.0).abs() < 1e-12);
        assert_eq!(lpt_makespan(Vec::new(), 3), 0.0);
    }

    #[test]
    fn serving_executes_everything_and_tunes() {
        let queries = point_lookups(600);
        let cfg = ServeConfig::builder()
            .workers(2)
            .epoch_interval(200)
            .build()
            .unwrap();
        let out = serve(db(), advisor(), &queries, cfg).unwrap();
        assert_eq!(out.report.executed, 600);
        assert_eq!(out.report.epochs.len(), 3);
        assert!(out.report.tuning_rounds >= 1, "{}", out.report.transcript());
        assert!(
            out.db.indexes().any(|(_, d)| d.key() == "t(a)"),
            "tuner should have built t(a)"
        );
        assert!(out.db.metrics().counter_value("serve.executed") == 600);
        assert!(out.report.makespan_ms() > 0.0);
        assert!(out.report.simulated_qps() > 0.0);
    }

    #[test]
    fn deterministic_mode_is_worker_count_invariant() {
        let queries = point_lookups(450);
        let run = |workers: usize| {
            let cfg = ServeConfig::builder()
                .workers(workers)
                .epoch_interval(150)
                .build()
                .unwrap();
            serve(db(), advisor(), &queries, cfg)
                .unwrap()
                .report
                .transcript()
        };
        let one = run(1);
        assert_eq!(one, run(2), "1-worker vs 2-worker transcript");
        assert_eq!(one, run(3), "1-worker vs 3-worker transcript");
    }

    #[test]
    fn unparseable_statements_are_counted_not_fatal() {
        let mut queries = point_lookups(100);
        queries[13] = "garbage ~ sql".to_string();
        queries[77] = "also not sql".to_string();
        let cfg = ServeConfig::builder().epoch_interval(50).build().unwrap();
        let out = serve(db(), advisor(), &queries, cfg).unwrap();
        assert_eq!(out.report.executed, 98);
        assert_eq!(out.report.parse_failures, 2);
    }

    #[test]
    fn total_sim_latency_matches_epoch_sum() {
        let queries = point_lookups(200);
        let cfg = ServeConfig::builder().epoch_interval(64).build().unwrap();
        let out = serve(db(), advisor(), &queries, cfg).unwrap();
        let sum: f64 = out.report.epochs.iter().map(|e| e.sim_latency_ms).sum();
        assert!((sum - out.report.total_sim_latency_ms).abs() < 1e-9);
        let stmts: u64 = out.report.epochs.iter().map(|e| e.statements).sum();
        assert_eq!(stmts, 200);
    }
}
