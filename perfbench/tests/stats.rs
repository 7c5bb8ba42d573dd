//! Tests for the benchmark's own statistics: percentiles and the tail
//! rule, quartiles, span self time, ratios and the tracer's fold.

use autoindex_perfbench::stats::{
    median, per, percentile, quartiles, report_percentiles, samples_beyond, self_time,
    tail_percentile, Ratio, MIN_BEYOND,
};
use autoindex_perfbench::trace::Tracer;
use std::time::Duration;

fn ascending(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn percentile_is_nearest_rank() {
    let v = ascending(100);
    assert_eq!(percentile(&v, 0.5), Some(50.0));
    assert_eq!(percentile(&v, 0.99), Some(99.0));
    assert_eq!(percentile(&v, 1.0), Some(100.0));
    assert_eq!(percentile(&v, 0.0), Some(1.0));
    assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
    assert_eq!(percentile(&[], 0.5), None);
    // Rank rounds up: p50 of four samples is the second.
    assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), Some(2.0));
}

#[test]
fn samples_beyond_counts_strictly_greater_ranks() {
    assert_eq!(samples_beyond(100, 0.9), 10);
    assert_eq!(samples_beyond(1000, 0.99), 10);
    assert_eq!(samples_beyond(999, 0.99), 9);
    assert_eq!(samples_beyond(0, 0.5), 0);
}

#[test]
fn tail_percentile_needs_ten_samples_beyond() {
    assert_eq!(MIN_BEYOND, 10);
    // Fewer than 20 samples: not even the median has ten beyond it.
    assert_eq!(tail_percentile(19), None);
    assert_eq!(tail_percentile(20), Some(0.5));
    assert_eq!(tail_percentile(40), Some(0.75));
    assert_eq!(tail_percentile(99), Some(0.75));
    assert_eq!(tail_percentile(100), Some(0.90));
    assert_eq!(tail_percentile(199), Some(0.90));
    assert_eq!(tail_percentile(200), Some(0.95));
    assert_eq!(tail_percentile(999), Some(0.95));
    assert_eq!(tail_percentile(1_000), Some(0.99));
    assert_eq!(tail_percentile(10_000), Some(0.999));
    for n in [20usize, 100, 1_000, 12_345] {
        let q = tail_percentile(n).unwrap();
        assert!(samples_beyond(n, q) >= MIN_BEYOND, "n={n} q={q}");
    }
}

#[test]
fn report_percentiles_names_what_the_sample_supports() {
    let qs = |n: usize, named: f64| -> Vec<f64> {
        report_percentiles(&ascending(n), named)
            .into_iter()
            .map(|(q, _)| q)
            .collect()
    };
    // 960 samples: p90 is supported and named; p95 is the highest tail.
    assert_eq!(qs(960, 0.9), vec![0.5, 0.9, 0.95]);
    // 50 samples: p90 has only 5 beyond it, so only the median and p75.
    assert_eq!(qs(50, 0.9), vec![0.5, 0.75]);
    // 10,000 samples: p99 named, p99.9 the tail.
    assert_eq!(qs(10_000, 0.99), vec![0.5, 0.99, 0.999]);
    // 1,000 samples: p99 is both the named and the highest percentile.
    assert_eq!(qs(1_000, 0.99), vec![0.5, 0.99]);
    assert_eq!(
        report_percentiles(&ascending(100), 0.9),
        vec![(0.5, 50.0), (0.9, 90.0)]
    );
    assert!(report_percentiles(&[], 0.9).is_empty());
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    assert_eq!(quartiles(&ascending(10)), Some((2.75, 5.5, 8.25)));
    // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
    assert_eq!(quartiles(&ascending(5)), Some((1.5, 3.0, 4.5)));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
    // Order does not matter.
    let shuffled = [7.0, 1.0, 9.0, 3.0, 5.0, 2.0, 10.0, 4.0, 8.0, 6.0];
    assert_eq!(quartiles(&shuffled), quartiles(&ascending(10)));
    assert_eq!(quartiles(&[1.0]), None);
}

#[test]
fn median_of_odd_and_even_samples() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    assert_eq!(median(&[5.0]), Some(5.0));
    assert_eq!(median(&[]), None);
}

#[test]
fn self_time_without_children_is_the_duration() {
    assert_eq!(self_time(10, 50, &[]), 40);
}

#[test]
fn self_time_subtracts_disjoint_children() {
    assert_eq!(self_time(0, 100, &[(10, 20), (30, 60)]), 60);
}

#[test]
fn self_time_counts_overlapping_children_once() {
    // [10, 40) and [30, 60) overlap on [30, 40): the union is [10, 60).
    assert_eq!(self_time(0, 100, &[(10, 40), (30, 60)]), 50);
    // A child nested in another adds nothing.
    assert_eq!(self_time(0, 100, &[(10, 90), (20, 30)]), 20);
    // Touching intervals merge.
    assert_eq!(self_time(0, 100, &[(10, 20), (20, 30)]), 80);
    // Unsorted input.
    assert_eq!(self_time(0, 100, &[(70, 80), (10, 40), (35, 50)]), 50);
}

#[test]
fn self_time_clips_children_to_the_span() {
    assert_eq!(self_time(10, 50, &[(0, 20), (40, 90)]), 20);
    assert_eq!(self_time(10, 50, &[(60, 90)]), 40);
    assert_eq!(self_time(10, 50, &[(0, 100)]), 0);
}

#[test]
fn ratio_keeps_its_base_counts() {
    let r = Ratio::of_hits(3, 1);
    assert_eq!((r.num, r.den), (3, 4));
    assert_eq!(r.value(), 0.75);
    let empty = Ratio::new(0, 0);
    assert_eq!((empty.num, empty.den, empty.value()), (0, 0, 0.0));
    assert_eq!(Ratio::new(5, 10).value(), 0.5);
}

#[test]
fn per_divides_or_returns_zero() {
    assert_eq!(per(10.0, 4), 2.5);
    assert_eq!(per(10.0, 0), 0.0);
}

#[test]
fn tracer_folds_self_time_per_name() {
    let mut t = Tracer::new(true);
    t.begin_request("request.test", 1);
    t.span("outer", |t| {
        std::thread::sleep(Duration::from_millis(2));
        t.span("inner", |_| std::thread::sleep(Duration::from_millis(2)));
        t.reported_child("reported", Duration::ZERO, Duration::from_millis(1));
    });
    t.end_request();
    let outer = t.agg("outer");
    let inner = t.agg("inner");
    let reported = t.agg("reported");
    assert_eq!((outer.calls, inner.calls, reported.calls), (1, 1, 1));
    assert!(inner.self_ns >= 2_000_000);
    assert_eq!(reported.self_ns, 1_000_000);
    // Outer's self time excludes the union of its children.
    assert!(outer.total_ns >= outer.self_ns + inner.total_ns);
    // Layer time excludes the request root; every nanosecond of the root
    // is covered by layer self time plus the root's own self time.
    let root = t.agg("request.test");
    assert_eq!(
        t.layer_self_ns("request.") + root.self_ns,
        root.total_ns,
        "self times partition the request"
    );
}

#[test]
fn disabled_tracer_records_nothing() {
    let mut t = Tracer::new(false);
    t.begin_request("request.test", 1);
    let v = t.span("outer", |_| 42);
    t.end_request();
    assert_eq!(v, 42);
    assert_eq!(t.agg("outer").calls, 0);
    assert_eq!(t.layer_self_ns("request."), 0);
}
