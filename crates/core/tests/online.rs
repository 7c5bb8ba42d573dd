//! Pinned transcripts of the online loop (`OnlineAutoIndex::feed`).
//!
//! Every [`FeedOutcome`] — the measured latency's bits, the plan's cost
//! features, the indexes it used, the control-loop event and any error —
//! is folded into one FNV-1a digest per stream. The constants were
//! recorded before `feed` gained its compiled-template fast path, so they
//! pin that the fast path (late-bound statistics, the in-place refresh on
//! INSERT growth, the rebuild after a catalog edit, bind-guard fallbacks)
//! changes no byte of what the loop reports.

use autoindex_core::{
    AutoIndex, AutoIndexConfig, FeedOutcome, GuardConfig, OnlineAutoIndex, OnlineConfig,
    OnlineEvent, RollbackReason, TuningReport,
};
use autoindex_estimator::NativeCostEstimator;
use autoindex_storage::catalog::{Catalog, Column, TableBuilder};
use autoindex_storage::index::IndexDef;
use autoindex_storage::{SimDb, SimDbConfig};
use autoindex_support::obs::MetricsRegistry;
use autoindex_support::rng::derive_seed;
use autoindex_workloads::drift::{drift_scenarios, DriftScenario};

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The deterministic part of a tuning report (its wall-clock durations
/// are left out).
fn report_line(r: &TuningReport) -> String {
    format!(
        "{:?} created={:?} dropped={:?} cands={} nodes={} evals={} search={} hits={}",
        r.recommendation,
        r.created,
        r.dropped,
        r.candidates_generated,
        r.tree_nodes,
        r.evaluations,
        r.search_evaluations,
        r.eval_cache_hits
    )
}

fn event_line(ev: &OnlineEvent) -> String {
    match ev {
        OnlineEvent::Executed => "executed".to_string(),
        OnlineEvent::DiagnosedHealthy(d) => format!("healthy {d:?}"),
        OnlineEvent::Tuned { diagnosis, report } => {
            format!("tuned {diagnosis:?} {}", report_line(report))
        }
        OnlineEvent::BanditArmApplied {
            diagnosis,
            report,
            arms,
        } => format!("bandit {diagnosis:?} {} {arms:?}", report_line(report)),
        OnlineEvent::StrategySwitched { from, to } => format!("switched {from:?} {to:?}"),
        OnlineEvent::GuardApplied {
            diagnosis,
            report,
            probation_until,
        } => format!(
            "applied {diagnosis:?} {} until={probation_until}",
            report_line(report)
        ),
        OnlineEvent::ShadowRejected {
            diagnosis,
            improvement,
            required,
        } => format!(
            "shadow_rejected {diagnosis:?} {:016x} {:016x}",
            improvement.to_bits(),
            required.to_bits()
        ),
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
            "rolled_back {:016x} {:016x} {:016x} fp={restored_fingerprint:016x}",
            baseline_ms.to_bits(),
            probation_ms.to_bits(),
            regression.to_bits()
        ),
        OnlineEvent::ProbationPassed {
            baseline_ms,
            probation_ms,
        } => format!(
            "probation_passed {:016x} {:016x}",
            baseline_ms.to_bits(),
            probation_ms.to_bits()
        ),
        OnlineEvent::CooldownEnded => "cooldown_ended".to_string(),
        OnlineEvent::ObserveOnlyEntered => "observe_only".to_string(),
    }
}

/// One statement's transcript line: everything `feed` reported.
fn outcome_line(seq: usize, fed: &FeedOutcome) -> String {
    let outcome = match &fed.outcome {
        Some(o) => format!(
            "{:016x} {:?} {:?}",
            o.latency_ms.to_bits(),
            o.features,
            o.indexes_used
        ),
        None => "none".to_string(),
    };
    let error = match &fed.error {
        Some(e) => e.to_string(),
        None => "ok".to_string(),
    };
    format!("{seq} {outcome} | {} | {error}\n", event_line(&fed.event))
}

type Online = OnlineAutoIndex<NativeCostEstimator>;

fn guarded_config() -> OnlineConfig {
    OnlineConfig {
        guard: Some(GuardConfig::default()),
        ..OnlineConfig::default()
    }
}

fn advisor() -> AutoIndex<NativeCostEstimator> {
    AutoIndex::new(AutoIndexConfig::default(), NativeCostEstimator)
}

/// A drift scenario's loop, set up the way the `online_drift` benchmark
/// sets it up: per-scenario database seed, the DBA's starting indexes,
/// the default guard.
fn drift_loop(s: &DriftScenario, seed: u64, i: usize) -> Online {
    let cfg = SimDbConfig {
        seed: derive_seed(seed, i as u64),
        ..Default::default()
    };
    let mut db = SimDb::with_metrics(s.catalog.clone(), cfg, MetricsRegistry::new());
    for d in &s.start_indexes {
        let _ = db.create_index(d.clone());
    }
    OnlineAutoIndex::new(db, advisor(), guarded_config())
}

fn feed_digest(online: &mut Online, queries: &[String]) -> u64 {
    queries.iter().enumerate().fold(FNV_OFFSET, |h, (seq, q)| {
        fnv1a(h, outcome_line(seq, &online.feed(q)).as_bytes())
    })
}

/// Per-scenario digests of the four drift streams at `seed`.
fn drift_digests(seed: u64) -> Vec<(&'static str, u64)> {
    drift_scenarios(seed, 3_000)
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut online = drift_loop(s, seed, i);
            (s.name, feed_digest(&mut online, &s.queries))
        })
        .collect()
}

#[test]
fn drift_transcripts_match_pinned_digests_seed_2024() {
    assert_eq!(
        drift_digests(2024),
        vec![
            ("flash_crowd", 0x7373_608c_d85c_0f35),
            ("seasonal_shift", 0x3f05_5148_5afc_9986),
            ("schema_migration", 0x6b7c_39a1_5102_8412),
            ("adhoc_bursts", 0xcf6f_84b2_4400_7924),
        ]
    );
}

#[test]
fn drift_transcripts_match_pinned_digests_seed_7() {
    assert_eq!(
        drift_digests(7),
        vec![
            ("flash_crowd", 0x3984_b1db_ba56_6f77),
            ("seasonal_shift", 0x185c_5477_f013_e0e4),
            ("schema_migration", 0x3861_852a_1d52_fc0a),
            ("adhoc_bursts", 0x0738_3024_6bb4_e7b3),
        ]
    );
}

fn edge_catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add_table(
        TableBuilder::new("t", 50_000)
            .column(Column::int("id", 50_000))
            .column(Column::int("a", 20_000))
            .column(Column::int("b", 40))
            .column(Column::float("x", 45_000, -500.0, 9_000.0))
            .column(Column::text("name", 30_000, 16).with_null_frac(0.1))
            .primary_key(&["id"])
            .build()
            .unwrap(),
    );
    c
}

/// The edge-case stream: eligible point and range templates on
/// near-unique columns interleaved with INSERTs (so statistics grow under
/// the compiled templates), ineligible templates (`IN`, `OR`, `LIKE`),
/// statements that trip a bind guard (colliding duplicate atoms, a
/// negative or fractional `LIMIT`, a negated string) and plain parse
/// errors.
fn edge_statement(i: i64) -> String {
    match i % 16 {
        0 | 1 => format!("SELECT * FROM t WHERE id = {}", i * 7 % 50_000),
        2 => format!(
            "SELECT a, b FROM t WHERE id > {} AND b = {}",
            40_000 + i,
            i % 40
        ),
        3 => format!(
            "SELECT * FROM t WHERE x BETWEEN {} AND {}",
            i % 900,
            i % 900 + 250
        ),
        4 | 5 => format!(
            "INSERT INTO t (id, a, b, x, name) VALUES ({}, {}, {}, {}.5, 'n{i}')",
            50_000 + i,
            i % 20_000,
            i % 40,
            i % 9_000
        ),
        6 => format!(
            "SELECT * FROM t WHERE b IN ({}, {}, 3)",
            i % 40,
            (i + 1) % 40
        ),
        7 => format!(
            "SELECT id FROM t WHERE a = {} OR b = {}",
            i % 20_000,
            i % 40
        ),
        8 => format!("SELECT id FROM t WHERE name LIKE 'n{}%'", i % 100),
        9 => {
            // Duplicate atoms: distinct values bind, equal values collide
            // and must take the parse path, which dedups them.
            let v = i % 40;
            let w = if i % 3 == 0 { v } else { (v + 1) % 40 };
            format!("SELECT * FROM t WHERE b = {v} AND b = {w}")
        }
        10 => match i % 3 {
            0 => format!("SELECT a FROM t WHERE a > {} LIMIT {}", i % 20_000, i % 50),
            1 => format!(
                "SELECT a FROM t WHERE a > {} LIMIT -{}",
                i % 20_000,
                i % 50 + 1
            ),
            _ => format!("SELECT a FROM t WHERE a > {} LIMIT 2.5", i % 20_000),
        },
        11 => match i % 2 {
            0 => format!("SELECT * FROM t WHERE x > -{}", i % 500),
            _ => "SELECT * FROM t WHERE x > -'abc'".to_string(),
        },
        12 => format!("UPDATE t SET b = {} WHERE a = {}", i % 40, i % 20_000),
        13 => format!("DELETE FROM t WHERE id = {}", 60_000 + i),
        14 => format!("SELEKT * FROM t WHERE id = {i}"),
        _ => format!(
            "SELECT name FROM t WHERE name IS NULL AND x < {}.25",
            i % 9_000
        ),
    }
}

fn edge_loop(guard: Option<GuardConfig>) -> Online {
    let mut db = SimDb::with_metrics(
        edge_catalog(),
        SimDbConfig {
            seed: 11,
            ..Default::default()
        },
        MetricsRegistry::new(),
    );
    db.create_index(IndexDef::new("t", &["id"])).unwrap();
    OnlineAutoIndex::new(
        db,
        advisor(),
        OnlineConfig {
            diagnosis_interval: 150,
            tuning_cooldown: 300,
            reset_usage_after_tuning: true,
            guard,
        },
    )
}

/// Feed the edge-case stream; halfway through, edit the catalog's
/// statistics behind the loop's back (a grown row count and a new NDV on
/// `a`) — what a statistics refresh by an operator looks like.
fn edge_digest(guard: Option<GuardConfig>) -> u64 {
    let mut online = edge_loop(guard);
    let first: Vec<String> = (0..1_200).map(edge_statement).collect();
    let mut h = feed_digest(&mut online, &first);
    {
        let t = online.db_mut().catalog_mut().table_mut("t").unwrap();
        t.rows *= 3;
        for c in &mut t.columns {
            if c.name == "a" {
                c.stats.ndv = 55_000.0;
                c.stats.max = 60_000.0;
            }
        }
    }
    let second: Vec<String> = (1_200..2_400).map(edge_statement).collect();
    h = fnv1a(h, &feed_digest(&mut online, &second).to_le_bytes());
    h
}

#[test]
fn edge_stream_transcripts_match_pinned_digests() {
    assert_eq!(
        [edge_digest(None), edge_digest(Some(GuardConfig::default()))],
        [0xa18e_f647_cbf5_b2ef, 0x00cf_9db5_6841_36f8]
    );
}

/// `sql.fastpath.*` on one loop's registry: `(hits, misses, fallbacks)`.
fn fastpath_counts(online: &Online) -> (u64, u64, u64) {
    let m = online.db().metrics();
    (
        m.counter_value("sql.fastpath.hits"),
        m.counter_value("sql.fastpath.misses"),
        m.counter_value("sql.fastpath.fallbacks"),
    )
}

/// Every drift stream runs on compiled templates: each template misses
/// once, on its first statement, and never again — so neither the
/// streams' INSERT growth nor the tuning rounds' DDL recompiles anything.
#[test]
fn drift_streams_miss_once_per_template() {
    use autoindex_sql::fingerprint::{scan_fingerprint, LiteralBuf};
    for seed in [2024, 7] {
        for (i, s) in drift_scenarios(seed, 3_000).iter().enumerate() {
            let mut online = drift_loop(s, seed, i);
            for q in &s.queries {
                online.feed(q);
            }
            let mut lits = LiteralBuf::default();
            let mut templates: Vec<u64> = s
                .queries
                .iter()
                .map(|q| scan_fingerprint(q, &mut lits).expect("generated SQL scans"))
                .collect();
            templates.sort_unstable();
            templates.dedup();
            let (hits, misses, fallbacks) = fastpath_counts(&online);
            assert_eq!(hits + misses, s.queries.len() as u64, "{}", s.name);
            assert_eq!(misses, templates.len() as u64, "{} seed {seed}", s.name);
            assert_eq!(fallbacks, 0, "{}", s.name);
            assert!(
                hits as f64 / (hits + misses) as f64 >= 0.99,
                "{}: {hits} hits, {misses} misses",
                s.name
            );
        }
    }
}

/// The edge-case stream exercises every way off the fast path: ineligible
/// templates miss on every statement, colliding duplicates, bad `LIMIT`s
/// and negated strings trip bind guards, and the mid-stream catalog edit
/// drops the compiled templates — while eligible repeats still hit.
#[test]
fn edge_stream_takes_every_fallback() {
    let mut online = edge_loop(None);
    let ineligible = (0..1_200).filter(|i| matches!(i % 16, 6..=8)).count() as u64;
    for i in 0..1_200 {
        online.feed(&edge_statement(i));
    }
    let (hits, misses, fallbacks) = fastpath_counts(&online);
    assert!(hits > 600, "{hits} hits");
    assert!(fallbacks >= 40, "{fallbacks} fallbacks");
    assert!(misses >= ineligible + fallbacks, "{misses} misses");
    online.db_mut().catalog_mut().table_mut("t").unwrap().rows *= 2;
    for i in 1_200..1_216 {
        online.feed(&edge_statement(i));
    }
    let (_, after, _) = fastpath_counts(&online);
    assert!(
        after - misses >= 8,
        "each eligible template misses once more after the catalog edit"
    );
}
