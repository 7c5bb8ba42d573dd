//! The repository benchmark. One binary runs one workload for a fixed
//! number of seconds and prints every metric by name, unit and domain,
//! then one JSON result line. See `perfbench/README.md` for the workloads,
//! the metric map and how to run it.
//!
//! Every layer is measured from outside: the benchmark times calls into
//! the crates' public functions and reads the public `MetricsRegistry`
//! snapshots; no program code is instrumented.

pub mod stats;
pub mod trace;
pub mod workloads;

use autoindex_support::json::Json;
use autoindex_support::obs::MetricsRegistry;
use std::time::Instant;

/// The seed a run uses when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 2024;
/// The documented second seed: its pinned digests are checked too.
pub const SECOND_SEED: u64 = 7;

/// Time domain of a metric: measured on this host (`wall`) or produced by
/// the simulator (`sim`, deterministic, must repeat exactly).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    Wall,
    Sim,
    /// A count or ratio of events (deterministic unless noted).
    Count,
}

impl Domain {
    pub fn as_str(&self) -> &'static str {
        match self {
            Domain::Wall => "wall",
            Domain::Sim => "sim",
            Domain::Count => "count",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub domain: Domain,
    pub value: f64,
    /// Free-form context printed beside the value (sample count, base
    /// counts, percentile actually used).
    pub note: String,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, domain: Domain, value: f64) -> Self {
        Metric {
            name,
            unit,
            domain,
            value,
            note: String::new(),
        }
    }

    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations offered (statements, or statements plus sessions).
    pub attempted: u64,
    /// Operations that failed (parse failures, panics, session errors).
    pub failed: u64,
    /// Output checks: name, passed, detail.
    pub checks: Vec<(String, bool, String)>,
    /// Workload properties: name, value.
    pub properties: Vec<(String, String)>,
    /// Metrics emitted in the JSON result line.
    pub metrics: Vec<Metric>,
    /// Metrics printed for reading only (workload-specific latencies,
    /// `fail_frac`, digests).
    pub extra: Vec<Metric>,
}

impl Outcome {
    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.checks.push((name.into(), ok, detail.into()));
    }

    pub fn property(&mut self, name: impl Into<String>, value: impl std::fmt::Display) {
        self.properties.push((name.into(), value.to_string()));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.1)
    }
}

/// FNV-1a over `bytes`, continuing from `h` (start with [`FNV_OFFSET`]).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Run `f`, appending its wall seconds to `secs`. Every pass sets up its
/// own input this way, so set-up is sampled across the whole run rather
/// than in one burst.
pub fn timed<T>(secs: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let v = f();
    secs.push(t.elapsed().as_secs_f64());
    v
}

/// Peak resident set size of this process, MiB (`VmHWM`), or 0 when the
/// platform does not expose it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Counter values summed over several registries' snapshots.
pub fn snapshot_counter(registries: &[&MetricsRegistry], name: &str) -> u64 {
    registries
        .iter()
        .map(|r| {
            r.snapshot()
                .get("counters")
                .and_then(|c| c.get(name))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        })
        .sum()
}

/// Record the distribution of per-pass values as a property:
/// `min q1 median q3 max (n passes)`.
pub fn pass_distribution(out: &mut Outcome, name: &str, values: &[f64]) {
    let s = stats::sorted(values.to_vec());
    let (Some(lo), Some(hi)) = (s.first(), s.last()) else {
        return;
    };
    let (q1, med, q3) = stats::quartiles(&s).unwrap_or((*lo, *lo, *lo));
    out.property(
        name,
        format!(
            "{lo:.1} {q1:.1} {med:.1} {q3:.1} {hi:.1} ({} passes)",
            s.len()
        ),
    );
}

/// Is this statement a write (INSERT, UPDATE or DELETE)?
fn is_write(sql: &str) -> bool {
    let head = sql.trim_start();
    ["INSERT", "UPDATE", "DELETE"]
        .iter()
        .any(|k| head.len() >= k.len() && head[..k.len()].eq_ignore_ascii_case(k))
}

/// Input properties of a set of statement streams: write share, distinct
/// templates (by `fingerprint`), and the share of statements whose
/// `scan_fingerprint` template already occurred earlier in the same
/// stream (what a per-stream compiled-template cache could serve).
pub fn stream_properties<'a>(out: &mut Outcome, streams: impl IntoIterator<Item = &'a [String]>) {
    let mut templates = std::collections::BTreeSet::new();
    let (mut total, mut writes, mut repeats) = (0u64, 0u64, 0u64);
    let mut lits = autoindex_sql::fingerprint::LiteralBuf::new();
    for stream in streams {
        let mut seen = std::collections::HashSet::new();
        for sql in stream {
            total += 1;
            writes += is_write(sql) as u64;
            if let Ok(fp) = autoindex_sql::fingerprint::fingerprint(sql) {
                templates.insert(fp.hash);
            }
            if let Some(h) = autoindex_sql::fingerprint::scan_fingerprint(sql, &mut lits) {
                repeats += !seen.insert(h) as u64;
            }
        }
    }
    out.property("statements", total);
    out.property(
        "write_share",
        format!("{:.4}", stats::per(writes as f64, total)),
    );
    out.property("templates", templates.len());
    out.property(
        "fastpath_eligible_share",
        format!("{:.4}", stats::per(repeats as f64, total)),
    );
}
