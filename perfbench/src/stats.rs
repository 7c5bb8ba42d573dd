//! Summary statistics used by every workload: percentiles with the
//! "enough samples beyond it" rule, Python-compatible quartiles, span self
//! time and ratios that keep their base counts.

/// Standard tail percentiles, highest first, that [`tail_percentile`]
/// chooses from.
pub const TAIL_CANDIDATES: [f64; 6] = [0.999, 0.99, 0.95, 0.90, 0.75, 0.50];

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of ascending `sorted` samples, `q` in `[0, 1]`:
/// the smallest sample with at least `ceil(q * n)` samples at or below it.
/// Returns `None` for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// 1-based nearest rank of percentile `q` among `n > 0` samples. The
/// small slack keeps a product like `0.999 * 10_000` that lands a hair
/// above an integer from rounding up a whole rank.
fn rank(n: usize, q: f64) -> usize {
    ((q.clamp(0.0, 1.0) * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Number of samples strictly beyond the nearest-rank percentile `q`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// The highest percentile of [`TAIL_CANDIDATES`] that still has at least
/// [`MIN_BEYOND`] samples beyond it among `n` samples, or `None` when even
/// the median does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .find(|&q| samples_beyond(n, q) >= MIN_BEYOND)
}

/// `(q, value)` pairs to report for an ascending latency sample: the
/// median, the `named` percentile when at least [`MIN_BEYOND`] samples lie
/// beyond it, and the highest percentile [`tail_percentile`] supports
/// when that is a different one.
pub fn report_percentiles(sorted: &[f64], named: f64) -> Vec<(f64, f64)> {
    let n = sorted.len();
    let mut qs = vec![0.5];
    if named != 0.5 && samples_beyond(n, named) >= MIN_BEYOND {
        qs.push(named);
    }
    qs.extend(tail_percentile(n).filter(|q| !qs.contains(q)));
    qs.into_iter()
        .filter_map(|q| percentile(sorted, q).map(|v| (q, v)))
        .collect()
}

/// Sort a sample vector ascending (total order; NaN sorts last).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted samples (`None` when empty).
pub fn median(v: &[f64]) -> Option<f64> {
    quartiles(v).map(|q| q.1).or_else(|| v.first().copied())
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the default
/// "exclusive" method). Needs at least two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let data = sorted(values.to_vec());
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Self time of a span `[start, end)`: its duration minus the length of
/// the union of its children's intervals, each clipped to the span.
/// Children may overlap one another (concurrent work); overlap is counted
/// once.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let duration = end.saturating_sub(start);
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0u64;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = current {
        covered += ce - cs;
    }
    duration - covered
}

/// A share that keeps its base counts, so a report can print both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Ratio {
    /// Useful outcomes (hits, fired diagnoses, ...).
    pub num: u64,
    /// Attempts the share is taken over.
    pub den: u64,
}

impl Ratio {
    pub fn new(num: u64, den: u64) -> Self {
        Ratio { num, den }
    }

    /// Hit/miss style ratio: `hits / (hits + misses)`.
    pub fn of_hits(hits: u64, misses: u64) -> Self {
        Ratio::new(hits, hits + misses)
    }

    /// The share; 0 when there were no attempts.
    pub fn value(&self) -> f64 {
        if self.den == 0 {
            0.0
        } else {
            self.num as f64 / self.den as f64
        }
    }
}

/// `total / count` as a per-unit mean; 0 when `count` is 0.
pub fn per(total: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}
