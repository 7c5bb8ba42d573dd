//! `online_drift`: the four drift scenarios fed one statement at a time
//! through `OnlineAutoIndex::feed`, default `OnlineConfig` with the
//! default guard, one thread. Every statement takes the full parse →
//! execute → observe path with no fast path; diagnosis and guarded tuning
//! rounds run in line.
//!
//! The traced run replays the calls `feed` makes (parse, extract, execute,
//! observe, guard poll, diagnosis, recommend, guarded apply) with a guard
//! of its own, and its per-scenario event digests must equal `feed`'s.

use crate::stats::{median, per, report_percentiles, sorted, Ratio};
use crate::trace::Tracer;
use crate::workloads::{layer_metrics, recommend, write_trace, LayerInputs, Tally};
use crate::{
    fnv1a, pass_distribution, peak_rss_mb, snapshot_counter, stream_properties, timed, Args,
    Domain, Metric, Outcome, DEFAULT_SEED, FNV_OFFSET, SECOND_SEED,
};
use autoindex_core::ApplyVerdict;
use autoindex_core::{
    AutoIndex, AutoIndexConfig, Guard, GuardConfig, GuardEvent, GuardPhase, OnlineAutoIndex,
    OnlineConfig, OnlineEvent, Recommendation, RollbackReason,
};
use autoindex_estimator::NativeCostEstimator;
use autoindex_sql::parse_statement;
use autoindex_storage::index::IndexDef;
use autoindex_storage::shape::QueryShape;
use autoindex_storage::{SimDb, SimDbConfig};
use autoindex_support::obs::MetricsRegistry;
use autoindex_support::rng::derive_seed;
use autoindex_workloads::drift::{drift_scenarios, DriftScenario};
use std::time::{Duration, Instant};

/// Statements per scenario stream.
const STATEMENTS: usize = 3_000;

/// Combined event digests pinned for the documented seeds.
const PINNED: [(u64, u64); 2] = [
    (DEFAULT_SEED, 0x316e_6870_9ba9_e748),
    (SECOND_SEED, 0xac46_e796_f142_835f),
];

type Estimator = NativeCostEstimator;

fn online_config() -> OnlineConfig {
    OnlineConfig {
        guard: Some(GuardConfig::default()),
        ..OnlineConfig::default()
    }
}

fn build_db(s: &DriftScenario, seed: u64, i: usize) -> SimDb {
    let cfg = SimDbConfig {
        seed: derive_seed(seed, i as u64),
        ..Default::default()
    };
    let mut db = SimDb::with_metrics(s.catalog.clone(), cfg, MetricsRegistry::new());
    for d in &s.start_indexes {
        let _ = db.create_index(d.clone());
    }
    db
}

fn advisor() -> AutoIndex<Estimator> {
    AutoIndex::new(AutoIndexConfig::default(), Estimator::default())
}

fn keys(defs: &[IndexDef]) -> String {
    defs.iter().map(|d| d.key()).collect::<Vec<_>>().join(",")
}

fn rec_line(rec: &Recommendation) -> String {
    format!("+[{}] -[{}]", keys(&rec.add), keys(&rec.remove))
}

/// Canonical line for one non-trivial control-loop event; `None` for a
/// plain execution. Both the real loop and the replay render events
/// through this, so their digests compare the same surface.
fn event_line(seq: usize, ev: &OnlineEvent) -> Option<String> {
    let body = match ev {
        OnlineEvent::Executed => return None,
        OnlineEvent::DiagnosedHealthy(_) => "healthy".to_string(),
        OnlineEvent::Tuned { report, .. } => format!(
            "tuned {} created={} dropped={}",
            rec_line(&report.recommendation),
            report.created.len(),
            report.dropped.len()
        ),
        OnlineEvent::GuardApplied {
            report,
            probation_until,
            ..
        } => format!(
            "applied {} created={} dropped={} until={probation_until}",
            rec_line(&report.recommendation),
            report.created.len(),
            report.dropped.len()
        ),
        OnlineEvent::ShadowRejected {
            improvement,
            required,
            ..
        } => format!("shadow_rejected {improvement:.6} {required:.6}"),
        OnlineEvent::RolledBack(RollbackReason::ApplyFaults {
            build_faults,
            restored_fingerprint,
        }) => format!("rolled_back faults={build_faults} fp={restored_fingerprint:016x}"),
        OnlineEvent::RolledBack(RollbackReason::ProbationRegression {
            baseline_ms,
            probation_ms,
            regression,
            restored_fingerprint,
        }) => format!(
            "rolled_back {baseline_ms:.6} {probation_ms:.6} {regression:.6} fp={restored_fingerprint:016x}"
        ),
        OnlineEvent::ProbationPassed {
            baseline_ms,
            probation_ms,
        } => format!("probation_passed {baseline_ms:.6} {probation_ms:.6}"),
        OnlineEvent::CooldownEnded => "cooldown_ended".to_string(),
        OnlineEvent::ObserveOnlyEntered => "observe_only".to_string(),
        other => format!("other {other:?}"),
    };
    Some(format!("{seq}: {body}\n"))
}

/// One scenario's result: the event digest, simulated latency total,
/// statements executed, parse/observe failures and per-feed wall µs.
#[derive(Default)]
struct ScenarioRun {
    digest: u64,
    sim_ms: f64,
    executed: u64,
    failed: u64,
    tuning_rounds: u64,
    feed_us: Vec<f64>,
}

/// Set-up of one pass: generate the scenarios and build each one's
/// database and online loop, up to where the first statement could run.
fn build_loops(seed: u64) -> Vec<(DriftScenario, OnlineAutoIndex<Estimator>)> {
    drift_scenarios(seed, STATEMENTS)
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            let online = OnlineAutoIndex::new(build_db(&s, seed, i), advisor(), online_config());
            (s, online)
        })
        .collect()
}

/// Feed one scenario through the real online loop.
fn feed_scenario(
    s: &DriftScenario,
    mut online: OnlineAutoIndex<Estimator>,
    timed: bool,
) -> (ScenarioRun, SimDb) {
    let mut run = ScenarioRun {
        digest: FNV_OFFSET,
        feed_us: Vec::with_capacity(if timed { s.queries.len() } else { 0 }),
        ..Default::default()
    };
    for (seq, sql) in s.queries.iter().enumerate() {
        let t = Instant::now();
        let fed = online.feed(sql);
        if timed {
            run.feed_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        match &fed.outcome {
            Some(o) => {
                run.executed += 1;
                run.sim_ms += o.latency_ms;
            }
            None => run.failed += 1,
        }
        if fed.outcome.is_some() && fed.error.is_some() {
            run.failed += 1;
        }
        if let Some(line) = event_line(seq, &fed.event) {
            run.digest = fnv1a(run.digest, line.as_bytes());
        }
    }
    run.tuning_rounds = snapshot_counter(&[online.db().metrics()], "online.tuning_rounds");
    let (db, _) = online.into_parts();
    (run, db)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    // The properties and the replay read these streams; every pass
    // generates its own scenarios and loops as its timed set-up.
    let scenarios = drift_scenarios(args.seed, STATEMENTS);
    let mut setup_secs: Vec<f64> = Vec::new();
    stream_properties(&mut out, scenarios.iter().map(|s| s.queries.as_slice()));
    out.property("scenarios", scenarios.len());

    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut passes: Vec<Vec<ScenarioRun>> = Vec::new();
    let mut pass_walls: Vec<f64> = Vec::new();
    let mut replay_walls: Vec<f64> = Vec::new();
    let mut traced_walls: Vec<f64> = Vec::new();
    let mut tracer = Tracer::new(true);
    let mut tally = Tally::default();
    let mut replay_digests: Vec<Vec<u64>> = Vec::new();
    let mut replay_dbs: Vec<SimDb> = Vec::new();
    let mut real_dbs: Vec<SimDb> = Vec::new();
    let mut feed_pcts: Vec<Vec<(f64, f64)>> = Vec::new();
    let mut feed_samples = 0usize;
    loop {
        let cycle = Instant::now();
        let loops = timed(&mut setup_secs, || build_loops(args.seed));
        let t = Instant::now();
        let mut runs = Vec::new();
        real_dbs.clear();
        for (s, online) in loops {
            let (run, db) = feed_scenario(&s, online, !args.trace);
            runs.push(run);
            real_dbs.push(db);
        }
        pass_walls.push(t.elapsed().as_secs_f64());
        // Per-pass feed percentiles; the samples are dropped so memory
        // does not grow with the number of passes.
        let feed = sorted(
            runs.iter_mut()
                .flat_map(|r| std::mem::take(&mut r.feed_us))
                .collect(),
        );
        if !feed.is_empty() {
            feed_pcts.push(report_percentiles(&feed, 0.99));
            feed_samples += feed.len();
        }
        passes.push(runs);
        if args.trace {
            let mut off = Tracer::new(false);
            let t = Instant::now();
            for (i, s) in scenarios.iter().enumerate() {
                replay_scenario(s, args.seed, i, &mut off, &mut Tally::default());
            }
            replay_walls.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let mut digests = Vec::new();
            replay_dbs.clear();
            for (i, s) in scenarios.iter().enumerate() {
                let (digest, db) = replay_scenario(s, args.seed, i, &mut tracer, &mut tally);
                digests.push(digest);
                replay_dbs.push(db);
            }
            traced_walls.push(t.elapsed().as_secs_f64());
            replay_digests.push(digests);
        }
        if started.elapsed() + cycle.elapsed() > budget {
            break;
        }
    }

    // ---- output checks
    let first = &passes[0];
    let digests: Vec<u64> = first.iter().map(|r| r.digest).collect();
    let combined = digests
        .iter()
        .fold(FNV_OFFSET, |h, d| fnv1a(h, &d.to_le_bytes()));
    let executed: u64 = first.iter().map(|r| r.executed).sum();
    let sim_total: f64 = first.iter().map(|r| r.sim_ms).sum();
    let sim = per(sim_total, executed);
    let pass_digests: Vec<Vec<u64>> = passes
        .iter()
        .map(|runs| runs.iter().map(|r| r.digest).collect())
        .collect();
    out.check(
        "passes.event_digests",
        pass_digests.iter().all(|d| *d == digests),
        format!("{} passes agree on {digests:016x?}", pass_digests.len()),
    );
    let sims: Vec<f64> = passes
        .iter()
        .map(|runs| {
            per(
                runs.iter().map(|r| r.sim_ms).sum(),
                runs.iter().map(|r| r.executed).sum(),
            )
        })
        .collect();
    out.check(
        "passes.sim_ms_per_stmt",
        sims.iter().all(|s| s.to_bits() == sim.to_bits()),
        format!("{} passes agree on {sim:.9}", sims.len()),
    );
    if args.trace {
        out.check(
            "replays.event_digests",
            replay_digests.iter().all(|d| *d == digests),
            format!("{} traced replays", replay_digests.len()),
        );
    }
    if let Some(&(_, pinned)) = PINNED.iter().find(|(s, _)| *s == args.seed) {
        out.check(
            "digest.pinned",
            pinned == combined,
            format!("{combined:016x} (pinned {pinned:016x})"),
        );
    }

    // ---- end-to-end metrics
    let offered = (scenarios.iter().map(|s| s.queries.len()).sum::<usize>()) as u64;
    let failed: u64 = first.iter().map(|r| r.failed).sum();
    out.attempted = offered;
    out.failed = failed;
    let qps: Vec<f64> = pass_walls.iter().map(|w| offered as f64 / w).collect();
    out.metrics = vec![
        Metric::new(
            "stmts_per_s",
            "1/s",
            Domain::Wall,
            median(&qps).unwrap_or(0.0),
        )
        .note(format!(
            "median of {} passes over {} scenarios",
            qps.len(),
            scenarios.len()
        )),
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
    let mut extra = vec![Metric::new(
        "fail_frac",
        "ratio",
        Domain::Count,
        per(failed as f64, offered),
    )
    .note(format!(
        "(parse + observe failures {failed}) / offered {offered}"
    ))];
    // Each pass reports the same percentiles (same sample count); the
    // run reports their medians over passes.
    if let Some(pcts) = feed_pcts.first() {
        for (k, &(q, _)) in pcts.iter().enumerate() {
            let vals: Vec<f64> = feed_pcts.iter().map(|p| p[k].1).collect();
            let name = match q {
                0.5 => "feed_us_p50",
                0.99 => "feed_us_p99",
                _ => "feed_us_tail",
            };
            extra.push(
                Metric::new(name, "us", Domain::Wall, median(&vals).unwrap_or(0.0)).note(format!(
                    "p{} per pass, median of {} passes, n={feed_samples}",
                    q * 100.0,
                    vals.len()
                )),
            );
        }
    }
    pass_distribution(&mut out, "stmts_per_s_passes", &qps);
    out.property("event_digest", format!("{combined:016x}"));
    out.extra = extra;
    let rounds: u64 = first.iter().map(|r| r.tuning_rounds).sum();
    out.property("rounds", rounds);

    if args.trace {
        let regs: Vec<&MetricsRegistry> = real_dbs.iter().map(|d| d.metrics()).collect();
        let replay_regs: Vec<&MetricsRegistry> = replay_dbs.iter().map(|d| d.metrics()).collect();
        out.check(
            "replay.registry_matches",
            snapshot_counter(&regs, "db.whatif_calls")
                == snapshot_counter(&replay_regs, "db.whatif_calls"),
            "db.whatif_calls equal in feed and replay",
        );
        let passes_traced = traced_walls.len() as u64;
        out.metrics = layer_metrics(&LayerInputs {
            tracer: &tracer,
            registries: regs.clone(),
            fastpath: Ratio::default(),
            fallbacks: 0,
            diagnosis: Ratio::new(
                snapshot_counter(&regs, "online.diagnoses_fired"),
                snapshot_counter(&regs, "online.diagnoses_run"),
            ),
            registry_rounds: tally.rounds / passes_traced.max(1),
            tally,
            steals: 0,
            train_ms: 0.0,
            traced_s: traced_walls,
            replay_s: replay_walls,
            real_s: pass_walls,
        });
        write_trace(&tracer, args);
    }
    out
}

// ------------------------------------------------------------------ replay

/// Replay `feed` for one scenario through its public calls. Returns the
/// event digest and the database.
fn replay_scenario(
    s: &DriftScenario,
    seed: u64,
    i: usize,
    t: &mut Tracer,
    tally: &mut Tally,
) -> (u64, SimDb) {
    let cfg = online_config();
    let db = build_db(s, seed, i);
    let guard = Guard::new(cfg.guard.clone().expect("guarded config"), db.metrics());
    let mut feed = FeedReplay {
        db,
        advisor: advisor(),
        guard,
        cfg,
        executed: 0,
        last_tuning_at: None,
    };
    let mut digest = FNV_OFFSET;
    for (seq, sql) in s.queries.iter().enumerate() {
        t.begin_request("request.feed", seq as u64);
        let event = feed.feed(t, sql, tally);
        t.end_request();
        if let Some(line) = event.as_ref().and_then(|e| event_line(seq, e)) {
            digest = fnv1a(digest, line.as_bytes());
        }
    }
    (digest, feed.db)
}

/// The state `OnlineAutoIndex` keeps, driven through public calls.
struct FeedReplay {
    db: SimDb,
    advisor: AutoIndex<Estimator>,
    guard: Guard,
    cfg: OnlineConfig,
    executed: u64,
    last_tuning_at: Option<u64>,
}

impl FeedReplay {
    /// The body of `OnlineAutoIndex::feed` with a guard, call for call.
    /// `None` means the statement did not parse.
    fn feed(&mut self, t: &mut Tracer, sql: &str, tally: &mut Tally) -> Option<OnlineEvent> {
        let (db, advisor, g) = (&mut self.db, &mut self.advisor, &mut self.guard);
        let stmt = t.span("sql.parse", |_| parse_statement(sql)).ok()?;
        let shape = t.span("storage.shape.extract", |_| {
            QueryShape::extract(&stmt, db.catalog())
        });
        let outcome = t.span("storage.db.execute", |_| db.execute_shape(&shape));
        let _ = t.span("core.templates.observe", |_| advisor.observe(sql, db));
        self.executed += 1;
        let executed = self.executed;
        tally.stmts += 1;
        tally.index_used += !outcome.indexes_used.is_empty() as u64;

        let polled = t.span("core.guard.poll", |_| {
            g.record_latency(outcome.latency_ms);
            g.poll(executed, db)
        });
        if let Some(ev) = polled {
            return Some(match ev {
                GuardEvent::ProbationPassed {
                    baseline_ms,
                    probation_ms,
                } => OnlineEvent::ProbationPassed {
                    baseline_ms,
                    probation_ms,
                },
                GuardEvent::RolledBack {
                    baseline_ms,
                    probation_ms,
                    regression,
                    restored_fingerprint,
                } => OnlineEvent::RolledBack(RollbackReason::ProbationRegression {
                    baseline_ms,
                    probation_ms,
                    regression,
                    restored_fingerprint,
                }),
                GuardEvent::CooldownEnded => OnlineEvent::CooldownEnded,
                GuardEvent::EnteredObserveOnly => OnlineEvent::ObserveOnlyEntered,
            });
        }
        let cooling = self
            .last_tuning_at
            .is_some_and(|at| executed - at < self.cfg.tuning_cooldown);
        if !executed.is_multiple_of(self.cfg.diagnosis_interval.max(1)) || cooling || !g.can_tune()
        {
            return Some(OnlineEvent::Executed);
        }
        let diagnosis = t.span("core.diagnosis", |_| advisor.diagnose(db));
        if !diagnosis.should_tune {
            return Some(OnlineEvent::DiagnosedHealthy(diagnosis));
        }

        // One tuning round: `feed` applies through its own guard
        // (probation armed at the current statement count), not through
        // a one-shot session guard.
        tally.rounds += 1;
        self.last_tuning_at = Some(executed);
        let mut report = recommend(t, advisor, db).expect("recommendation");
        let noop = report.recommendation.is_noop();
        let (created, dropped, verdict) = t.span("core.guard.apply", |_| {
            g.apply(db, &report.recommendation, executed)
        });
        let event = match verdict {
            ApplyVerdict::Applied => {
                report.created = created;
                report.dropped = dropped;
                match g.phase() {
                    _ if noop => OnlineEvent::Tuned { diagnosis, report },
                    GuardPhase::Probation { until } => OnlineEvent::GuardApplied {
                        diagnosis,
                        report,
                        probation_until: *until,
                    },
                    _ => OnlineEvent::GuardApplied {
                        diagnosis,
                        report,
                        probation_until: executed,
                    },
                }
            }
            ApplyVerdict::ShadowRejected {
                improvement,
                required,
            } => OnlineEvent::ShadowRejected {
                diagnosis,
                improvement,
                required,
            },
            ApplyVerdict::RolledBack {
                build_faults,
                restored_fingerprint,
            } => OnlineEvent::RolledBack(RollbackReason::ApplyFaults {
                build_faults,
                restored_fingerprint,
            }),
        };
        if self.cfg.reset_usage_after_tuning {
            db.reset_usage();
        }
        Some(event)
    }
}
