//! `fleet_oltp`: the multi-tenant banking fleet through `serve_fleet`.
//!
//! 64 tenants × 8,000 statements, one executor worker (plus the
//! coordinator: two threads), fast path on, and the fleet bench's fixed
//! admission capacity, under which admission both defers and sheds
//! slices. Each pass serves a freshly built fleet over the same generated
//! streams, so every pass must produce the same transcript digest.
//!
//! The traced run replays the same streams single-threaded through the
//! public calls `serve_fleet` makes, in epoch order, and rebuilds the
//! fleet transcript from the replay: the replay digest must equal the
//! served digest, which shows the replay did the same work.

use crate::stats::{median, per, Ratio};
use crate::trace::Tracer;
use crate::workloads::{layer_metrics, write_trace, LayerInputs, Tally};
use crate::{
    pass_distribution, peak_rss_mb, snapshot_counter, stream_properties, timed, Args, Domain,
    Metric, Outcome, DEFAULT_SEED, SECOND_SEED,
};
use autoindex_core::mcts::{ConfigSet, Universe};
use autoindex_core::serve::tuning_cooldown_over;
use autoindex_core::{
    decide_admission, serve_fleet, Admission, AdmissionCandidate, AutoIndex, AutoIndexConfig,
    FastPathCache, FleetConfig, FleetEpochRecord, FleetReport, FleetTenant, TenantReport,
    TenantSliceRecord, TenantSpec,
};
use autoindex_estimator::NativeCostEstimator;
use autoindex_sql::fingerprint::{scan_fingerprint, LiteralBuf};
use autoindex_sql::parse_statement;
use autoindex_storage::shape::QueryShape;
use autoindex_storage::{DbSnapshot, SimDb, SimDbConfig};
use autoindex_support::obs::MetricsRegistry;
use autoindex_workloads::fleet::{fleet_workload, TenantWorkload};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const TENANTS: usize = 64;
const STATEMENTS_PER_TENANT: usize = 8_000;
const EPOCH_INTERVAL: u64 = 2_048;
const SHARDS: u64 = 4;
/// The `fleet` bench's frozen admission capacity (simulated ms per epoch).
const EPOCH_CAPACITY_MS: f64 = 88_000.0;

/// Transcript digests pinned for the documented seeds.
const PINNED: [(u64, u64); 2] = [
    (DEFAULT_SEED, 0x0d9e_beaf_c962_c28e),
    (SECOND_SEED, 0x8ebb_12a8_86e7_d2f7),
];

type Estimator = NativeCostEstimator;

fn config(seed: u64) -> FleetConfig {
    FleetConfig::builder()
        .workers(1)
        .shards(SHARDS)
        .epoch_interval(EPOCH_INTERVAL)
        .epoch_capacity_ms(EPOCH_CAPACITY_MS)
        .shed_floor_priority(1)
        .fastpath(true)
        .seed(seed)
        .build()
        .expect("static fleet config")
}

fn clone_workloads(ws: &[TenantWorkload]) -> Vec<TenantWorkload> {
    ws.iter()
        .map(|w| TenantWorkload {
            name: w.name.clone(),
            priority: w.priority,
            slo_p50_ms: w.slo_p50_ms,
            slo_p99_ms: w.slo_p99_ms,
            accounts: w.accounts,
            catalog: w.catalog.clone(),
            dba_indexes: w.dba_indexes.clone(),
            queries: w.queries.clone(),
            seed: w.seed,
        })
        .collect()
}

/// Build the fleet the way the `fleet` bench does: one database per
/// tenant with its DBA indexes, a default advisor over the native
/// estimator.
fn build_fleet(ws: Vec<TenantWorkload>) -> Vec<FleetTenant<Estimator>> {
    ws.into_iter()
        .map(|w| {
            let cfg = SimDbConfig {
                seed: w.seed,
                ..Default::default()
            };
            let mut db = SimDb::with_metrics(w.catalog, cfg, MetricsRegistry::new());
            for d in w.dba_indexes {
                let _ = db.create_index(d);
            }
            FleetTenant {
                spec: TenantSpec {
                    name: w.name,
                    priority: w.priority,
                    slo_p50_ms: w.slo_p50_ms,
                    slo_p99_ms: w.slo_p99_ms,
                },
                db,
                advisor: AutoIndex::new(AutoIndexConfig::default(), Estimator::default()),
                queries: Arc::new(w.queries),
            }
        })
        .collect()
}

/// One served pass: wall seconds, the report and the fleet registry's
/// fast-path tallies `(hits, misses, fallbacks)`.
struct Served {
    wall_s: f64,
    report: FleetReport,
    fastpath: (u64, u64, u64),
}

fn serve_pass(fleet: Vec<FleetTenant<Estimator>>, seed: u64) -> Served {
    let cfg = config(seed);
    let start = Instant::now();
    let out = serve_fleet(fleet, cfg).expect("fleet run");
    let wall_s = start.elapsed().as_secs_f64();
    let m = [&out.metrics];
    let fastpath = (
        snapshot_counter(&m, "sql.fastpath.hits"),
        snapshot_counter(&m, "sql.fastpath.misses"),
        snapshot_counter(&m, "sql.fastpath.fallbacks"),
    );
    Served {
        wall_s,
        report: out.report,
        fastpath,
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    // The properties and the replay read these streams; every pass
    // generates and builds its own fleet as its timed set-up.
    let ws = fleet_workload(TENANTS, STATEMENTS_PER_TENANT, args.seed);
    let offered = (TENANTS * STATEMENTS_PER_TENANT) as u64;
    stream_properties(&mut out, ws.iter().map(|w| w.queries.as_slice()));
    out.property("tenants", TENANTS);
    out.property("epoch_interval", EPOCH_INTERVAL);

    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut setup_secs: Vec<f64> = Vec::new();
    let mut served: Vec<Served> = Vec::new();
    let mut replays: Vec<f64> = Vec::new();
    let mut traced: Vec<f64> = Vec::new();
    let mut tracer = Tracer::new(true);
    let mut replay_tally = Tally::default();
    let mut replay_regs: Vec<MetricsRegistry> = Vec::new();
    let mut replay_digests: Vec<u64> = Vec::new();
    loop {
        let cycle = Instant::now();
        let fleet = timed(&mut setup_secs, || {
            build_fleet(fleet_workload(TENANTS, STATEMENTS_PER_TENANT, args.seed))
        });
        served.push(serve_pass(fleet, args.seed));
        if args.trace {
            let mut off = Tracer::new(false);
            let (wall, _, _, _) = replay(&ws, args.seed, &mut off);
            replays.push(wall);
            let (wall, digest, tally, regs) = replay(&ws, args.seed, &mut tracer);
            traced.push(wall);
            replay_digests.push(digest);
            replay_tally.add(&tally);
            replay_regs = regs;
        }
        let spent = started.elapsed();
        if spent + cycle.elapsed() > budget {
            break;
        }
    }

    // ---- output checks
    let first = &served[0].report;
    let digest = first.transcript_digest();
    let bad_accounting: Vec<String> = served
        .iter()
        .map(|s| &s.report)
        .filter(|r| r.executed + r.parse_failures + r.panics + r.shed != offered)
        .map(|r| {
            format!(
                "{}+{}+{}+{}",
                r.executed, r.parse_failures, r.panics, r.shed
            )
        })
        .collect();
    out.check(
        "passes.accounting",
        bad_accounting.is_empty(),
        format!(
            "executed {} + parse_failures {} + panics {} + shed {} = offered {offered} in {} passes {}",
            first.executed,
            first.parse_failures,
            first.panics,
            first.shed,
            served.len(),
            bad_accounting.join(" ")
        ),
    );
    let digests: Vec<u64> = served
        .iter()
        .map(|s| s.report.transcript_digest())
        .collect();
    out.check(
        "passes.digest",
        digests.iter().all(|d| *d == digest),
        format!("{} passes: {digests:016x?}", digests.len()),
    );
    out.check(
        "admission.sheds_and_defers",
        first.shed_slices > 0 && first.deferred_slices > 0,
        format!(
            "shed_slices {} deferred_slices {}",
            first.shed_slices, first.deferred_slices
        ),
    );
    if let Some(&(_, pinned)) = PINNED.iter().find(|(s, _)| *s == args.seed) {
        out.check(
            "digest.pinned",
            pinned == digest,
            format!("{digest:016x} (pinned {pinned:016x})"),
        );
    }
    if args.trace {
        out.check(
            "replays.digest",
            replay_digests.iter().all(|d| *d == digest),
            format!(
                "{} traced replays: {replay_digests:016x?}",
                replay_digests.len()
            ),
        );
    }

    // ---- end-to-end metrics
    let sim = per(first.total_sim_latency_ms, first.executed);
    let qps: Vec<f64> = served
        .iter()
        .map(|s| s.report.executed as f64 / s.wall_s)
        .collect();
    pass_distribution(&mut out, "stmts_per_s_passes", &qps);
    out.attempted = offered;
    out.failed = first.parse_failures + first.panics;
    let fail = Ratio::new(first.parse_failures + first.panics + first.shed, offered);
    out.metrics = vec![
        Metric::new(
            "stmts_per_s",
            "1/s",
            Domain::Wall,
            median(&qps).unwrap_or(0.0),
        )
        .note(format!("median of {} serve_fleet passes", qps.len())),
        Metric::new("sim_ms_per_stmt", "ms", Domain::Sim, sim),
        Metric::new(
            "setup_s",
            "s",
            Domain::Wall,
            median(&setup_secs).unwrap_or(0.0),
        )
        .note(format!(
            "median of {} set-ups, one per pass",
            setup_secs.len()
        )),
        Metric::new("peak_rss_mb", "MiB", Domain::Wall, peak_rss_mb()),
    ];
    out.extra = vec![
        Metric::new("fail_frac", "ratio", Domain::Count, fail.value()).note(format!(
            "(parse {} + panics {} + shed {}) / offered {offered}",
            first.parse_failures, first.panics, first.shed
        )),
    ];
    out.property("transcript_digest", format!("{digest:016x}"));
    out.property("rounds", first.tuning_visits);
    out.property("epochs", first.epochs.len());

    if args.trace {
        let (hits, misses, fallbacks) = served[0].fastpath;
        out.check(
            "replay.fastpath_counts",
            replay_tally.hits == hits * traced.len() as u64
                && replay_tally.misses == misses * traced.len() as u64,
            format!(
                "replay hits {} misses {} vs served {hits} {misses} per pass",
                replay_tally.hits, replay_tally.misses
            ),
        );
        let regs: Vec<&MetricsRegistry> = replay_regs.iter().collect();
        let passes = traced.len() as u64;
        out.metrics = layer_metrics(&LayerInputs {
            tracer: &tracer,
            registries: regs,
            fastpath: Ratio::of_hits(hits, misses),
            fallbacks,
            diagnosis: Ratio::new(replay_tally.fired, replay_tally.diagnoses),
            registry_rounds: replay_tally.rounds / passes.max(1),
            tally: replay_tally,
            steals: served[0].report.steals,
            train_ms: 0.0,
            traced_s: traced,
            replay_s: replays,
            real_s: served.iter().map(|s| s.wall_s).collect(),
        });
        write_trace(&tracer, args);
    }
    out
}

// ------------------------------------------------------------------ replay

/// Coordinator-side state of one tenant, mirroring `serve_fleet`'s.
struct Tenant {
    spec: TenantSpec,
    db: SimDb,
    advisor: AutoIndex<Estimator>,
    queries: Arc<Vec<String>>,
    universe: Universe,
    snap: DbSnapshot,
    cache: FastPathCache,
    cursor: u64,
    slices: Vec<TenantSliceRecord>,
    executed: u64,
    shed: u64,
    parse_failures: u64,
    deferrals: u64,
    slo_violations: u64,
    tuning_visits: u64,
    fastpath_hits: u64,
    fastpath_misses: u64,
    total_sim_latency_ms: f64,
    last_mean_ms: Option<f64>,
    best_mean_ms: f64,
    last_tuned_epoch: Option<u64>,
}

impl Tenant {
    fn len(&self) -> u64 {
        self.queries.len() as u64
    }

    fn config_fingerprint(&mut self) -> u64 {
        let mut defs: Vec<_> = self.db.indexes().map(|(_, d)| d.clone()).collect();
        defs.sort_by_key(|d| d.key());
        let mut set = ConfigSet::default();
        for d in &defs {
            set.insert(self.universe.intern(d));
        }
        set.fingerprint()
    }
}

/// Per-statement scratch, re-pinned per (tenant, epoch) like a worker's.
#[derive(Default)]
struct Scratch {
    lits: LiteralBuf,
    shapes: HashMap<u64, QueryShape>,
    sels: Vec<f64>,
    stack: Vec<f64>,
}

/// The fleet's nearest-rank slice percentile (its SLO convention).
fn slice_percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Replay one pass. Returns wall seconds, the rebuilt transcript digest,
/// the tally and the tenants' registries.
fn replay(
    ws: &[TenantWorkload],
    seed: u64,
    t: &mut Tracer,
) -> (f64, u64, Tally, Vec<MetricsRegistry>) {
    let cfg = config(seed);
    let mut states: Vec<Tenant> = build_fleet(clone_workloads(ws))
        .into_iter()
        .map(|f| {
            let snap = f.db.snapshot(0);
            let cache = FastPathCache::build(f.advisor.templates().entries(), snap.catalog());
            Tenant {
                spec: f.spec,
                db: f.db,
                advisor: f.advisor,
                queries: f.queries,
                universe: Universe::new(),
                snap,
                cache,
                cursor: 0,
                slices: Vec::new(),
                executed: 0,
                shed: 0,
                parse_failures: 0,
                deferrals: 0,
                slo_violations: 0,
                tuning_visits: 0,
                fastpath_hits: 0,
                fastpath_misses: 0,
                total_sim_latency_ms: 0.0,
                last_mean_ms: None,
                best_mean_ms: f64::INFINITY,
                last_tuned_epoch: None,
            }
        })
        .collect();
    let started = Instant::now();
    let mut tally = Tally::default();
    let mut scratch = Scratch::default();
    let mut epochs: Vec<FleetEpochRecord> = Vec::new();
    let (mut admitted_slices, mut deferred_slices, mut shed_slices, mut saturated_epochs) =
        (0u64, 0u64, 0u64, 0u64);
    let mut latencies: Vec<f64> = Vec::new();
    let mut epoch = 0u64;
    loop {
        // ---- admission
        t.begin_request("request.epoch_head", epoch);
        let candidates: Vec<AdmissionCandidate> = states
            .iter()
            .enumerate()
            .filter(|(_, st)| st.cursor < st.len())
            .map(|(i, st)| AdmissionCandidate {
                tenant: i as u32,
                priority: st.spec.priority,
                est_cost_ms: st.last_mean_ms.unwrap_or(cfg.assumed_stmt_cost_ms)
                    * cfg.epoch_interval.min(st.len() - st.cursor) as f64,
            })
            .collect();
        let decisions = t.span("core.fleet.admission", |_| {
            decide_admission(&candidates, cfg.epoch_capacity_ms, cfg.shed_floor_priority)
        });
        t.end_request();
        if candidates.is_empty() {
            break;
        }
        tally.epochs += 1;
        let mut rec = FleetEpochRecord {
            epoch,
            admitted: 0,
            deferred: 0,
            shed: 0,
            statements: 0,
            saturated: false,
            visit: "idle".to_string(),
        };
        let mut pending: Vec<(usize, TenantSliceRecord)> = Vec::new();
        let mut touched = vec![false; states.len()];
        for d in &decisions {
            let i = d.tenant as usize;
            let st = &mut states[i];
            let take = cfg.epoch_interval.min(st.len() - st.cursor);
            let mut record = TenantSliceRecord {
                slice: st.slices.len() as u64,
                epoch,
                statements: take,
                executed: 0,
                parse_failures: 0,
                panics: 0,
                shed: 0,
                p50_ms: 0.0,
                p99_ms: 0.0,
                slo_ok: true,
                decision: "admit".to_string(),
                config_fingerprint: 0,
                index_count: 0,
                sim_latency_ms: 0.0,
            };
            match d.admission {
                Admission::Admit => {
                    let (start, end) = (st.cursor, st.cursor + take);
                    st.cursor = end;
                    rec.admitted += 1;
                    rec.statements += take;
                    admitted_slices += 1;
                    touched[i] = true;
                    scratch.shapes.clear();
                    latencies.clear();
                    for seq in start..end {
                        match replay_statement(t, st, &mut scratch, seq, &mut tally) {
                            Some(ms) => {
                                record.executed += 1;
                                record.sim_latency_ms += ms;
                                latencies.push(ms);
                            }
                            None => record.parse_failures += 1,
                        }
                    }
                    t.begin_request("request.slice_stats", epoch);
                    t.span("core.fleet.slice_stats", |_| {
                        latencies
                            .sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
                        record.p50_ms = slice_percentile(&latencies, 0.50);
                        record.p99_ms = slice_percentile(&latencies, 0.99);
                        if record.executed > 0 {
                            record.slo_ok = record.p50_ms <= st.spec.slo_p50_ms
                                && record.p99_ms <= st.spec.slo_p99_ms;
                            if !record.slo_ok {
                                st.slo_violations += 1;
                            }
                            let mean = record.sim_latency_ms / record.executed as f64;
                            st.last_mean_ms = Some(mean);
                            st.best_mean_ms = st.best_mean_ms.min(mean);
                        }
                    });
                    t.end_request();
                    pending.push((i, record));
                }
                Admission::Shed => {
                    st.cursor += take;
                    st.shed += take;
                    st.slo_violations += 1;
                    shed_slices += 1;
                    rec.shed += 1;
                    rec.statements += take;
                    record.shed = take;
                    record.slo_ok = false;
                    record.decision = "shed".to_string();
                    pending.push((i, record));
                }
                Admission::Defer => {
                    st.deferrals += 1;
                    deferred_slices += 1;
                    rec.deferred += 1;
                }
            }
        }
        rec.saturated = rec.deferred > 0 || rec.shed > 0;
        saturated_epochs += rec.saturated as u64;

        // ---- the tuner slot, slice finalization and republication
        t.begin_request("request.epoch_tail", epoch);
        let mut pick: Option<(usize, f64)> = None;
        for (i, st) in states.iter().enumerate() {
            let Some(last) = st.last_mean_ms else {
                continue;
            };
            if !st.best_mean_ms.is_finite() || st.best_mean_ms <= 0.0 {
                continue;
            }
            let regret = (last - st.best_mean_ms) / st.best_mean_ms;
            if regret > cfg.regret_threshold
                && tuning_cooldown_over(st.last_tuned_epoch, epoch, cfg.tuning_cooldown_epochs)
                && pick.is_none_or(|(_, r)| regret > r)
            {
                pick = Some((i, regret));
            }
        }
        if let Some((i, regret)) = pick {
            tally.visits += 1;
            let decision = t.span("core.fleet.tuner", |t| {
                visit(t, &mut states[i], &cfg, epoch, &mut tally)
            });
            rec.visit = format!(
                "tenant={} regret={regret:.6} decision={decision}",
                states[i].spec.name
            );
            touched[i] = true;
        }
        t.span("core.fleet.finalize", |_| {
            for (i, mut record) in pending {
                let st = &mut states[i];
                record.config_fingerprint = st.config_fingerprint();
                record.index_count = st.db.index_count();
                st.executed += record.executed;
                st.parse_failures += record.parse_failures;
                st.total_sim_latency_ms += record.sim_latency_ms;
                st.slices.push(record);
            }
        });
        for (st, _) in states.iter_mut().zip(&touched).filter(|(_, t)| **t) {
            st.snap = t.span("storage.db.snapshot", |_| st.db.snapshot(epoch + 1));
            st.cache = t.span("core.fastpath.build", |_| {
                FastPathCache::build(st.advisor.templates().entries(), st.snap.catalog())
            });
        }
        t.end_request();
        epochs.push(rec);
        epoch += 1;
    }
    let wall = started.elapsed().as_secs_f64();

    let tenant_reports: Vec<TenantReport> = states
        .iter()
        .map(|st| TenantReport {
            name: st.spec.name.clone(),
            priority: st.spec.priority,
            slo_p50_ms: st.spec.slo_p50_ms,
            slo_p99_ms: st.spec.slo_p99_ms,
            executed: st.executed,
            shed: st.shed,
            parse_failures: st.parse_failures,
            panics: 0,
            deferrals: st.deferrals,
            slo_violations: st.slo_violations,
            tuning_visits: st.tuning_visits,
            fastpath_hits: st.fastpath_hits,
            fastpath_misses: st.fastpath_misses,
            total_sim_latency_ms: st.total_sim_latency_ms,
            slices: st.slices.clone(),
        })
        .collect();
    let report = FleetReport {
        tenants: tenant_reports.len(),
        workers: 1,
        executed: tenant_reports.iter().map(|t| t.executed).sum(),
        shed: tenant_reports.iter().map(|t| t.shed).sum(),
        parse_failures: tenant_reports.iter().map(|t| t.parse_failures).sum(),
        panics: 0,
        admitted_slices,
        deferred_slices,
        shed_slices,
        saturated_epochs,
        slo_violations: tenant_reports.iter().map(|t| t.slo_violations).sum(),
        tuning_visits: tenant_reports.iter().map(|t| t.tuning_visits).sum(),
        workers_retired: 0,
        steals: 0,
        stolen_tasks: 0,
        total_sim_latency_ms: tenant_reports.iter().map(|t| t.total_sim_latency_ms).sum(),
        sim_makespan_ms: 0.0,
        epochs,
        tenant_reports,
        wall: Duration::from_secs_f64(wall),
    };
    let regs = states.iter().map(|s| s.db.metrics().clone()).collect();
    (wall, report.transcript_digest(), tally, regs)
}

/// One statement through the calls a fleet worker makes (scan, template
/// lookup and bind, or parse and extract; execute on the snapshot), then
/// the coordinator's absorb and observe. Returns the simulated latency,
/// or `None` when the statement did not parse.
fn replay_statement(
    t: &mut Tracer,
    st: &mut Tenant,
    sc: &mut Scratch,
    seq: u64,
    tally: &mut Tally,
) -> Option<f64> {
    let queries = Arc::clone(&st.queries);
    let sql = queries[seq as usize].as_str();
    t.begin_request("request.stmt", seq);
    let hash = t.span("sql.scan", |_| scan_fingerprint(sql, &mut sc.lits));
    let mut bound: Option<u64> = None;
    if let Some(h) = hash {
        let ok = t.span("core.fastpath.bind", |_| {
            st.cache.get(h).map(|compiled| {
                let shape = sc
                    .shapes
                    .entry(h)
                    .or_insert_with(|| compiled.skeleton().clone());
                compiled.bind_into(
                    &sc.lits,
                    st.cache.stats(),
                    shape,
                    &mut sc.sels,
                    &mut sc.stack,
                )
            })
        });
        if ok == Some(true) {
            bound = Some(h);
        }
    }
    let executed = match bound {
        Some(h) => {
            tally.hits += 1;
            let shape = &sc.shapes[&h];
            Some(t.span("storage.db.execute", |_| {
                st.snap.execute_shape_at(shape, seq)
            }))
        }
        None => {
            tally.misses += 1;
            match t.span("sql.parse", |_| parse_statement(sql)) {
                Err(_) => None,
                Ok(stmt) => {
                    let shape = t.span("storage.shape.extract", |_| {
                        QueryShape::extract(&stmt, st.snap.catalog())
                    });
                    Some(t.span("storage.db.execute", |_| {
                        st.snap.execute_shape_at(&shape, seq)
                    }))
                }
            }
        }
    };
    let Some((outcome, delta)) = executed else {
        t.end_request();
        return None;
    };
    tally.stmts += 1;
    tally.index_used += !outcome.indexes_used.is_empty() as u64;
    t.span("storage.db.absorb", |_| st.db.absorb(&delta));
    let _ = t.span("core.templates.observe", |_| match bound {
        Some(h) => st.advisor.observe_prehashed(h, sql, &st.db),
        None => st.advisor.observe(sql, &st.db),
    });
    match bound {
        Some(_) => st.fastpath_hits += 1,
        None => st.fastpath_misses += 1,
    }
    t.end_request();
    Some(outcome.latency_ms)
}

/// One tuner visit, as the fleet makes it: diagnose, then (if it fired)
/// recommend and apply in two session calls. Returns the decision string.
fn visit(
    t: &mut Tracer,
    st: &mut Tenant,
    cfg: &FleetConfig,
    epoch: u64,
    tally: &mut Tally,
) -> String {
    st.tuning_visits += 1;
    st.last_tuned_epoch = Some(epoch);
    let diagnosis = t.span("core.diagnosis", |_| st.advisor.diagnose(&st.db));
    tally.diagnoses += 1;
    let decision = if diagnosis.should_tune {
        tally.fired += 1;
        tally.rounds += 1;
        match super::recommend_then_apply(t, &mut st.advisor, &mut st.db, cfg.guard.clone()) {
            Err(e) => format!("error({e})"),
            Ok(out) => {
                if out.shadow_rejected() {
                    "shadow_rejected".to_string()
                } else if out.rolled_back() {
                    "rolled_back".to_string()
                } else if out.report.recommendation.is_noop() {
                    "noop".to_string()
                } else {
                    format!(
                        "applied(+{},-{})",
                        out.report.created.len(),
                        out.report.dropped.len()
                    )
                }
            }
        }
    } else {
        "quiet".to_string()
    };
    if cfg.reset_usage_after_tuning {
        st.db.reset_usage();
    }
    decision
}
