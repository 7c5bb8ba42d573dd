//! The three workloads and the per-layer metric table they share.

pub mod banking;
pub mod drift;
pub mod fleet;

use crate::stats::{median, per, Ratio};
use crate::trace::Tracer;
use crate::{snapshot_counter, Domain, Metric};
use autoindex_core::{AutoIndex, AutoIndexError, GuardConfig, SessionReport, TuningReport};
use autoindex_estimator::CostEstimator;
use autoindex_storage::SimDb;
use autoindex_support::obs::MetricsRegistry;
use std::time::Duration;

/// Span names that are request roots: their self time is the replay's own
/// glue, not a layer's.
pub const ROOT_PREFIX: &str = "request.";

/// `session().recommend_only()` in a span, with the candidate-generation
/// and search phases the session reports placed inside it as child spans
/// (candgen first, then search, as the strategy runs them).
pub fn recommend<E: CostEstimator>(
    t: &mut Tracer,
    advisor: &mut AutoIndex<E>,
    db: &mut SimDb,
) -> Result<TuningReport, AutoIndexError> {
    t.span("core.strategy.recommend", |t| {
        let r = advisor.session(db).recommend_only().run()?;
        t.reported_child("core.candgen", Duration::ZERO, r.report.candgen_time);
        t.reported_child(
            "core.mcts.search",
            r.report.candgen_time,
            r.report.search_time,
        );
        Ok(r.report)
    })
}

/// One `session().run()` split into its two halves, each its own span:
/// [`recommend`], then `with_recommendation` applying that exact
/// recommendation, guarded when `guard` is set. Performs the same DDL as
/// the single call.
pub fn recommend_then_apply<E: CostEstimator>(
    t: &mut Tracer,
    advisor: &mut AutoIndex<E>,
    db: &mut SimDb,
    guard: Option<GuardConfig>,
) -> Result<SessionReport, AutoIndexError> {
    let rec = recommend(t, advisor, db)?.recommendation;
    let name = if guard.is_some() {
        "core.guard.apply"
    } else {
        "core.session.apply"
    };
    t.span(name, |_| {
        let session = advisor.session(db).with_recommendation(rec);
        match guard {
            Some(g) => session.guarded(g).run(),
            None => session.run(),
        }
    })
}

/// What the replays counted where the program keeps no counter (or, for
/// fast-path hits, to cross-check the one it keeps).
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub stmts: u64,
    pub index_used: u64,
    pub hits: u64,
    pub misses: u64,
    pub diagnoses: u64,
    pub fired: u64,
    pub rounds: u64,
    pub epochs: u64,
    pub visits: u64,
}

impl Tally {
    pub fn add(&mut self, o: &Tally) {
        self.stmts += o.stmts;
        self.index_used += o.index_used;
        self.hits += o.hits;
        self.misses += o.misses;
        self.diagnoses += o.diagnoses;
        self.fired += o.fired;
        self.rounds += o.rounds;
        self.epochs += o.epochs;
        self.visits += o.visits;
    }
}

/// Write the traced run's kept spans to
/// `perfbench/out/trace_<workload>_seed<seed>.jsonl` (relative to the
/// working directory, the repository root). A write failure is reported
/// and does not fail the run.
pub fn write_trace(tracer: &Tracer, args: &crate::Args) {
    let path = std::path::PathBuf::from(format!(
        "perfbench/out/trace_{}_seed{}.jsonl",
        args.workload, args.seed
    ));
    if let Err(e) = tracer.write_jsonl(&path) {
        eprintln!("could not write {}: {e}", path.display());
    }
}

/// What a traced replay measured, beyond its spans.
pub struct LayerInputs<'a> {
    pub tracer: &'a Tracer,
    /// Registries of every database the replay drove.
    pub registries: Vec<&'a MetricsRegistry>,
    /// Totals over every traced replay pass: statements, index-using
    /// statements, tuning rounds that computed a recommendation, fleet
    /// epochs and tuner visits.
    pub tally: Tally,
    /// Fast-path hits over attempts, and bind fallbacks (fleet only).
    pub fastpath: Ratio,
    pub fallbacks: u64,
    /// Diagnoses that fired over diagnoses run.
    pub diagnosis: Ratio,
    /// Tuning rounds within the passes `registries` cover (divides
    /// registry counts; span times divide by `tally.rounds`).
    pub registry_rounds: u64,
    pub steals: u64,
    /// Estimator training time during set-up, ms (tune_banking only).
    pub train_ms: f64,
    /// Wall seconds of every traced replay pass (the spans cover all of
    /// them), of every untraced replay pass, and of every pass of the real
    /// (untraced) path the replay mirrors.
    pub traced_s: Vec<f64>,
    pub replay_s: Vec<f64>,
    pub real_s: Vec<f64>,
}

/// Every per-layer metric, in `BENCHMARK.json` order. Timings are self
/// time from the traced replay (`*_per_stmt` divides by every replayed
/// statement, so the per-statement figures add up); composite per-round /
/// per-visit figures are inclusive span time; counts and ratios come from
/// the registry snapshots or, where the program keeps no counter, from
/// the replay's own tally.
pub fn layer_metrics(inp: &LayerInputs) -> Vec<Metric> {
    let t = inp.tracer;
    let n = &inp.tally;
    let self_per = |name: &str, n: u64, scale: f64| per(t.agg(name).self_ns as f64 / scale, n);
    let total_per = |name: &str, n: u64, scale: f64| per(t.agg(name).total_ns as f64 / scale, n);
    let calls = |name: &str| t.agg(name).calls;
    let counter = |name: &str| snapshot_counter(&inp.registries, name);
    let (us, ms) = (1e3, 1e6);
    // Layer self time of one traced pass, against the median pass of each
    // kind; coverage compares totals over the same traced passes.
    let layer_s = t.layer_self_ns(ROOT_PREFIX) as f64 / 1e9;
    let passes = inp.traced_s.len().max(1) as f64;
    let layer_pass_s = layer_s / passes;
    let traced_total: f64 = inp.traced_s.iter().sum();
    let traced_s = median(&inp.traced_s).unwrap_or(0.0);
    let replay_s = median(&inp.replay_s).unwrap_or(0.0);
    let real_s = median(&inp.real_s).unwrap_or(0.0);
    let hits = |h: &str, m: &str| Ratio::of_hits(counter(h), counter(m));
    let cost_cache = hits("estimator.cost_cache.hits", "estimator.cost_cache.misses");
    let eval_cache = hits("mcts.eval_cache.hits", "mcts.eval_cache.misses");
    let index_used = Ratio::new(n.index_used, n.stmts);
    let ratio = |name: &'static str, r: Ratio| {
        Metric::new(name, "ratio", Domain::Count, r.value()).note(format!("{}/{}", r.num, r.den))
    };
    let count = |name: &'static str, v: f64| Metric::new(name, "count", Domain::Count, v);
    let wall =
        |name: &'static str, unit: &'static str, v: f64| Metric::new(name, unit, Domain::Wall, v);
    vec![
        wall(
            "sql.scan.ns_per_stmt",
            "ns",
            self_per("sql.scan", n.stmts, 1.0),
        ),
        wall(
            "sql.parse.us_per_stmt",
            "us",
            self_per("sql.parse", n.stmts, us),
        ),
        ratio("core.fastpath.hit_rate", inp.fastpath),
        count("core.fastpath.fallbacks", inp.fallbacks as f64),
        wall(
            "core.fastpath.bind.ns_per_stmt",
            "ns",
            self_per("core.fastpath.bind", n.stmts, 1.0),
        ),
        wall(
            "core.fastpath.build.us_per_publication",
            "us",
            self_per("core.fastpath.build", calls("core.fastpath.build"), us),
        ),
        wall(
            "storage.db.snapshot.us_per_publication",
            "us",
            self_per("storage.db.snapshot", calls("storage.db.snapshot"), us),
        ),
        wall(
            "storage.shape.extract.us_per_stmt",
            "us",
            self_per("storage.shape.extract", n.stmts, us),
        ),
        wall(
            "storage.db.execute.us_per_stmt",
            "us",
            self_per("storage.db.execute", n.stmts, us),
        ),
        ratio("storage.db.index_used_share", index_used),
        wall(
            "storage.db.absorb.us_per_stmt",
            "us",
            self_per("storage.db.absorb", n.stmts, us),
        ),
        count(
            "storage.db.whatif_calls_per_round",
            per(counter("db.whatif_calls") as f64, inp.registry_rounds),
        )
        .note(format!("{} rounds", inp.registry_rounds)),
        wall(
            "core.templates.observe.us_per_stmt",
            "us",
            self_per("core.templates.observe", n.stmts, us),
        ),
        wall(
            "core.guard.poll.us_per_stmt",
            "us",
            self_per("core.guard.poll", n.stmts, us),
        ),
        wall(
            "core.diagnosis.us_per_call",
            "us",
            self_per("core.diagnosis", calls("core.diagnosis"), us),
        ),
        ratio("core.diagnosis.fire_rate", inp.diagnosis),
        wall(
            "core.candgen.ms_per_round",
            "ms",
            self_per("core.candgen", n.rounds, ms),
        ),
        count(
            "core.candgen.candidates_per_round",
            per(
                counter("system.candidates_generated") as f64,
                inp.registry_rounds,
            ),
        ),
        wall(
            "core.strategy.recommend.ms_per_round",
            "ms",
            self_per("core.strategy.recommend", n.rounds, ms),
        ),
        Metric::new("estimator.train.ms", "ms", Domain::Wall, inp.train_ms),
        ratio("estimator.cost_cache.hit_rate", cost_cache),
        count(
            "estimator.inference_calls_per_round",
            per(
                counter("estimator.inference_calls") as f64,
                inp.registry_rounds,
            ),
        ),
        wall(
            "core.mcts.search.ms_per_round",
            "ms",
            self_per("core.mcts.search", n.rounds, ms),
        ),
        count(
            "core.mcts.iterations_per_round",
            per(counter("mcts.iterations") as f64, inp.registry_rounds),
        ),
        ratio("core.mcts.eval_cache.hit_rate", eval_cache),
        wall(
            "core.guard.apply.ms_per_round",
            "ms",
            total_per("core.guard.apply", n.rounds, ms),
        ),
        count("core.guard.rollbacks", counter("guard.rollbacks") as f64),
        count(
            "core.guard.shadow_rejects",
            counter("guard.shadow_rejects") as f64,
        ),
        wall(
            "core.fleet.admission.us_per_epoch",
            "us",
            self_per("core.fleet.admission", n.epochs, us),
        ),
        wall(
            "core.fleet.tuner.ms_per_visit",
            "ms",
            total_per("core.fleet.tuner", n.visits, ms),
        ),
        count("core.fleet.steals", inp.steals as f64),
        Metric::new(
            "trace.unattributed_share",
            "ratio",
            Domain::Wall,
            if real_s > 0.0 {
                1.0 - layer_pass_s / real_s
            } else {
                0.0
            },
        )
        .note(format!(
            "layer self {layer_pass_s:.4} s per traced pass vs untraced {real_s:.4} s"
        )),
        Metric::new(
            "trace.coverage",
            "ratio",
            Domain::Wall,
            if traced_total > 0.0 {
                layer_s / traced_total
            } else {
                0.0
            },
        )
        .note(format!(
            "layer self {layer_s:.4} s of traced {traced_total:.4} s"
        )),
        Metric::new(
            "trace.overhead",
            "ratio",
            Domain::Wall,
            if replay_s > 0.0 {
                traced_s / replay_s - 1.0
            } else {
                0.0
            },
        )
        .note(format!(
            "median traced pass {traced_s:.4} s vs untraced replay {replay_s:.4} s"
        )),
    ]
}
