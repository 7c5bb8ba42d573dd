//! `perfbench --workload <fleet_oltp|online_drift|tune_banking> [--seed N]
//! [--seconds S] [--trace 0|1]`
//!
//! Prints the workload's properties, every output check, every metric
//! with its unit and domain, and as the last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the per-layer ones
//! from the traced replay. Exits 1 when an output check fails.

use autoindex_perfbench::workloads::{banking, drift, fleet};
use autoindex_perfbench::{Args, Metric, Outcome, DEFAULT_SEED};
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["fleet_oltp", "online_drift", "tune_banking"];

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {flag} value {value:?}: {what}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("not an integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("not a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err(bad("must be in (0, 3600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn print_metric(kind: &str, m: &Metric) {
    println!(
        "{kind} {} = {} {} [{}]{}",
        m.name,
        json_number(m.value),
        m.unit,
        m.domain.as_str(),
        if m.note.is_empty() {
            String::new()
        } else {
            format!(" ({})", m.note)
        }
    );
}

fn result_line(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={nproc}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut out = match args.workload.as_str() {
        "fleet_oltp" => fleet::run(&args),
        "online_drift" => drift::run(&args),
        _ => banking::run(&args),
    };
    if out.metrics.iter().any(|m| !m.value.is_finite()) {
        out.check("metrics.finite", false, "a metric is not a finite number");
    }
    for (k, v) in &out.properties {
        println!("property {k} = {v}");
    }
    for (name, ok, detail) in &out.checks {
        println!(
            "check {name} {} {detail}",
            if *ok { "ok" } else { "FAILED" }
        );
    }
    for m in &out.extra {
        print_metric("info", m);
    }
    for m in &out.metrics {
        print_metric("metric", m);
    }
    println!("{}", result_line(&out));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
