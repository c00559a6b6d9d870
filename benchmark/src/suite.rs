//! Runs several workloads, plain and traced, each as a process of its own,
//! and prints what they reported side by side. With `--repeat N` it prints
//! the spread of every metric over the N runs.

use crate::metrics::{self, MetricDef};
use crate::stats::{median, quartiles};
use crate::{Args, DEFAULT_SECONDS, DEFAULT_SEED};
use reorderlab_trace::Json;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};

struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    values: BTreeMap<String, f64>,
}

fn parse_result(line: &str) -> Option<RunResult> {
    let doc = Json::parse(line).ok()?;
    let values = doc
        .get("metrics")?
        .as_obj()?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Some(RunResult {
        correct: matches!(doc.get("correct"), Some(Json::Bool(true))),
        attempted: doc.get("attempted")?.as_u64()?,
        failed: doc.get("failed")?.as_u64()?,
        values,
    })
}

/// One run in a process of its own. Its output is passed through; its last
/// line is the result.
fn run_process(
    args: &Args,
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Option<RunResult> {
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let mut command = Command::new(exe);
    command
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&args.out_dir)
        .stdout(Stdio::piped());
    if args.smoke {
        command.arg("--smoke");
    }
    let mut child = command.spawn().ok()?;
    let mut last = String::new();
    for line in BufReader::new(child.stdout.take()?).lines().map_while(Result::ok) {
        if !line.starts_with("{\"correct\"") {
            println!("{line}");
        }
        last = line;
    }
    let status = child.wait().ok()?;
    status.success().then(|| parse_result(&last)).flatten()
}

fn print_summary(
    title: &str,
    defs: &[MetricDef],
    runs: &BTreeMap<String, Vec<RunResult>>,
    repeat: usize,
) {
    println!("\n{title}");
    let workloads: Vec<&str> =
        metrics::WORKLOADS.iter().copied().filter(|w| runs.contains_key(*w)).collect();
    let values_of = |w: &str, name: &str| -> Vec<f64> {
        runs[w].iter().filter_map(|r| r.values.get(name).copied()).collect()
    };
    print!("  {:<44} {:<6}", "metric", "unit");
    workloads.iter().for_each(|w| print!(" {w:>16}"));
    println!();
    for d in defs {
        print!("  {:<44} {:<6}", d.name, d.unit);
        for w in &workloads {
            print!(" {:>16.6}", median(&values_of(w, &d.name)));
        }
        println!();
    }
    if repeat < 2 {
        return;
    }
    println!("\nspread over {repeat} runs: (max - min) / median, and (Q3 - Q1) / median");
    for d in defs {
        print!("  {:<44}", d.name);
        for w in &workloads {
            let values = values_of(w, &d.name);
            let mid = median(&values);
            let (lo, hi) =
                values.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            let iqr = quartiles(&values).map_or(0.0, |(q1, _, q3)| q3 - q1);
            if mid == 0.0 || values.is_empty() {
                print!(" {:>16}", "-");
            } else {
                print!(
                    " {:>7.2}% {:>6.2}%",
                    100.0 * (hi - lo) / mid.abs(),
                    100.0 * iqr / mid.abs()
                );
            }
        }
        println!();
    }
}

pub fn run(args: &Args) -> ExitCode {
    let workloads: Vec<String> = match &args.workload {
        Some(w) => vec![w.clone()],
        None => metrics::WORKLOADS.iter().map(|w| w.to_string()).collect(),
    };
    let traces: Vec<bool> = args.trace.map_or(vec![false, true], |t| vec![t]);
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let mut plain: BTreeMap<String, Vec<RunResult>> = BTreeMap::new();
    let mut traced: BTreeMap<String, Vec<RunResult>> = BTreeMap::new();
    let mut all_correct = true;
    for rep in 0..args.repeat {
        let seed = seed + rep as u64 * args.seed_step;
        for workload in &workloads {
            for &trace in &traces {
                match run_process(args, workload, seed, seconds, trace) {
                    Some(result) => {
                        all_correct &= result.correct;
                        if trace { &mut traced } else { &mut plain }
                            .entry(workload.clone())
                            .or_default()
                            .push(result);
                    }
                    None => {
                        eprintln!("{workload} (trace {}) gave no result", u8::from(trace));
                        all_correct = false;
                    }
                }
            }
        }
    }
    if !plain.is_empty() {
        print_summary(
            "end-to-end metrics (tracing off), median over runs",
            &metrics::end_to_end(),
            &plain,
            args.repeat,
        );
    }
    if !traced.is_empty() {
        print_summary(
            "per-layer metrics (traced runs), median over runs",
            &metrics::per_layer(),
            &traced,
            args.repeat,
        );
    }
    println!("\noperations, summed over runs:");
    for (kind, runs) in [("plain", &plain), ("traced", &traced)] {
        for (workload, results) in runs {
            let attempted: u64 = results.iter().map(|r| r.attempted).sum();
            let failed: u64 = results.iter().map(|r| r.failed).sum();
            let correct = results.iter().all(|r| r.correct);
            println!("  {workload:<16} {kind:<7} attempted {attempted:>7} failed {failed:>5} correct {correct}");
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
