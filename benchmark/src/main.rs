//! Outside-in benchmark of reorderlab. See `README.md` beside this package.
//!
//! One run is one workload. The process the command starts generates the
//! inputs from the seed and writes them as containers, several times, and
//! then runs the workload in a child process that sees only the files, so
//! that `VmHWM` is the workload's own. Without `--workload` every workload
//! runs, plain and traced.

mod checks;
mod compare;
mod inputs;
mod metrics;
mod pipeline;
mod rng;
mod serve_load;
mod spans;
mod stats;
mod suite;
mod zipf;

use metrics::Metrics;
use reorderlab_trace::Json;
use spans::Tracer;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 18.0;
pub const DEFAULT_SEED: u64 = 42;

/// Set-up passes of one run; `setup_s` takes their median.
const SETUP_REPEATS: usize = 3;

#[derive(Debug, Clone, Default)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: Option<u64>,
    pub seconds: Option<f64>,
    /// `Some(true)`: traced runs only. `Some(false)`: plain runs only.
    pub trace: Option<bool>,
    pub smoke: bool,
    pub repeat: usize,
    pub seed_step: u64,
    pub out_dir: PathBuf,
    child_dir: Option<PathBuf>,
}

const USAGE: &str =
    "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
              [--repeat N [--seed-step K]] [--out-dir DIR]
       run.sh compare A.json B.json
       run.sh metrics
  With --workload, --seed, --seconds and --trace all given, one run is made and the
  last line of the output is its result as one JSON object. Otherwise every
  workload (or the one named) runs plain and traced (or as --trace says), and
  a summary follows; --repeat N repeats that and prints the spread of each metric.
  workloads: reorder_heavy kernel_flat kernel_csrz serve_zipf";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args { repeat: 1, out_dir: PathBuf::from("benchmark/out"), ..Args::default() };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i).cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
        text.parse().map_err(|_| format!("{flag} takes a number, got {text:?}"))
    }
    while i < argv.len() {
        let flag = argv[i].as_str();
        match flag {
            "--workload" => {
                let name = value(&mut i, flag)?;
                if !metrics::WORKLOADS.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload {name:?}; try {}",
                        metrics::WORKLOADS.join(" ")
                    ));
                }
                args.workload = Some(name);
            }
            "--seed" => args.seed = Some(number(flag, &value(&mut i, flag)?)?),
            "--seconds" => {
                let s: f64 = number(flag, &value(&mut i, flag)?)?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds takes a value in (0, 60]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => match argv.get(i + 1).map(String::as_str) {
                Some("0") => {
                    args.trace = Some(false);
                    i += 1;
                }
                Some("1") => {
                    args.trace = Some(true);
                    i += 1;
                }
                _ => args.trace = Some(true),
            },
            "--smoke" => args.smoke = true,
            "--repeat" => args.repeat = number::<usize>(flag, &value(&mut i, flag)?)?.max(1),
            "--seed-step" => args.seed_step = number(flag, &value(&mut i, flag)?)?,
            "--out-dir" => args.out_dir = PathBuf::from(value(&mut i, flag)?),
            "--child-dir" => args.child_dir = Some(PathBuf::from(value(&mut i, flag)?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    Ok(args)
}

/// What the workload process is told.
pub struct ChildConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Threads of the pool the pipeline workloads run under: min(nproc, 4).
    pub threads: usize,
    /// The directory that holds the generated containers.
    pub dir: PathBuf,
    pub out_dir: PathBuf,
    /// What the parent measured during set-up.
    pub setup: Metrics,
    /// `csr_digest` of every generated graph, as hex.
    pub digests: Vec<(String, String)>,
}

/// What a workload hands back.
pub struct Outcome {
    pub metrics: Metrics,
    /// Operations in the timed region: a cell or a request is one.
    pub attempted: usize,
    pub failed: usize,
    /// Failed checks before the timed region: the warm-up pass, or the first
    /// reply for a template.
    pub setup_failures: usize,
    pub failures: Vec<String>,
    pub tracer: Tracer,
}

/// The layers that ran in the parent process during set-up.
pub fn setup_layer_metrics(cfg: &ChildConfig, m: &mut Metrics) {
    for name in
        ["datasets.generate_s", "graph.write_csrbin_s", "graph.encode_s", "graph.write_csrz_s"]
    {
        if !m.values.contains_key(name) {
            m.set_n(name, cfg.setup.get(name), cfg.setup.samples.get(name).copied().unwrap_or(0));
        }
    }
}

fn setup_file(dir: &Path) -> PathBuf {
    dir.join("setup.tsv")
}

/// The parent: set up several times, then run the workload in a child.
fn run_one(args: &Args, workload: &str, seed: u64, seconds: f64, trace: bool) -> ExitCode {
    let nproc = inputs::nproc();
    println!(
        "== {workload}: seed {seed}, {seconds} s, trace {}{}",
        u8::from(trace),
        if args.smoke { ", smoke" } else { "" }
    );
    println!(
        "nproc {nproc}, pipeline threads T = {}, caches of cpu0: {}",
        nproc.min(4),
        inputs::cache_sizes().join(", ")
    );

    let dir = args.out_dir.join(format!("inputs-{workload}-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return ExitCode::from(1);
    }
    let mut tracer = Tracer::new(Instant::now());
    tracer.set_enabled(true);
    let mut passes = Vec::new();
    let mut generated = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        generated = inputs::set_up(&dir, seed, args.smoke, &mut tracer);
        passes.push(t0.elapsed().as_secs_f64());
    }
    let mut table = format!("setup_parent_s\t{}\t{}\n", stats::median(&passes), passes.len());
    for span in ["datasets.generate", "graph.write_csrbin", "graph.encode", "graph.write_csrz"] {
        let d = tracer.durations(span);
        table.push_str(&format!("{span}_s\t{}\t{}\n", stats::median(&d), d.len()));
    }
    for (graph, digest, n, arcs) in &generated {
        println!(
            "{graph}: n={n} arcs={arcs} csr_digest={digest:016x}; computed array bytes: neighbours {} offsets {}",
            4 * arcs,
            8 * (n + 1)
        );
        table.push_str(&format!("digest.{graph}\t{digest:016x}\n"));
    }
    println!("set-up passes (generate, jitter, write both containers): {passes:.3?} s");
    if let Err(e) = std::fs::write(setup_file(&dir), table) {
        eprintln!("cannot write the set-up table: {e}");
        return ExitCode::from(1);
    }

    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let mut child = Command::new(exe);
    child
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
        .arg("--child-dir")
        .arg(&dir);
    if args.smoke {
        child.arg("--smoke");
    }
    let status = child.status();
    let _ = std::fs::remove_dir_all(&dir);
    match status {
        Ok(s) if s.success() => ExitCode::SUCCESS,
        Ok(s) => {
            eprintln!("the workload process ended with {s}");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("cannot start the workload process: {e}");
            ExitCode::from(1)
        }
    }
}

fn read_setup(dir: &Path) -> (Metrics, Vec<(String, String)>) {
    let text = std::fs::read_to_string(setup_file(dir)).expect("the parent wrote the set-up table");
    let (mut setup, mut digests) = (Metrics::default(), Vec::new());
    for line in text.lines() {
        let fields: Vec<&str> = line.split('\t').collect();
        match (fields[0].strip_prefix("digest."), fields.as_slice()) {
            (Some(graph), [_, digest]) => digests.push((graph.to_string(), digest.to_string())),
            (None, [name, value, samples]) => {
                let value = value.parse().expect("set-up values are numbers");
                setup.set_n(name, value, samples.parse().expect("sample counts are numbers"));
            }
            _ => panic!("malformed set-up line {line:?}"),
        }
    }
    (setup, digests)
}

/// The child: run the workload on the files, print and store the result.
fn run_child(args: &Args, dir: &Path) -> ExitCode {
    let (setup, digests) = read_setup(dir);
    let cfg = ChildConfig {
        workload: args.workload.clone().expect("the parent names the workload"),
        seed: args.seed.expect("the parent passes the seed"),
        seconds: args.seconds.expect("the parent passes the seconds"),
        trace: args.trace.expect("the parent passes the trace flag"),
        smoke: args.smoke,
        threads: inputs::nproc().min(4),
        dir: dir.to_path_buf(),
        out_dir: args.out_dir.clone(),
        setup,
        digests,
    };
    let outcome = match cfg.workload.as_str() {
        "serve_zipf" => serve_load::run(&cfg),
        name => pipeline::run(name, &cfg),
    };
    for failure in outcome.failures.iter().take(20) {
        println!("FAILED {failure}");
    }
    let defs = if cfg.trace { metrics::per_layer() } else { metrics::end_to_end() };
    println!("{} metrics of {}:", if cfg.trace { "per-layer" } else { "end-to-end" }, cfg.workload);
    outcome.metrics.print(&defs);
    println!(
        "operations: {} attempted, {} failed; {} failed checks before the timed region",
        outcome.attempted, outcome.failed, outcome.setup_failures
    );
    if cfg.trace {
        let path = cfg.out_dir.join(format!("trace-{}.jsonl", cfg.workload));
        match outcome.tracer.write_jsonl(&path) {
            Ok(()) => {
                println!("{} spans written to {}", outcome.tracer.spans().len(), path.display())
            }
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
    let correct = outcome.failed == 0 && outcome.setup_failures == 0;
    let result = vec![
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::Num(outcome.attempted as f64)),
        ("failed".to_string(), Json::Num(outcome.failed as f64)),
        ("metrics".to_string(), outcome.metrics.to_json(&defs)),
    ];
    // The stored result also says what was measured, so that `compare` can
    // refuse two files that did different work.
    let mut stored = vec![
        ("workload".to_string(), Json::Str(cfg.workload.clone())),
        ("seed".to_string(), Json::Num(cfg.seed as f64)),
        ("seconds".to_string(), Json::Num(cfg.seconds)),
        ("trace".to_string(), Json::Bool(cfg.trace)),
        ("smoke".to_string(), Json::Bool(cfg.smoke)),
        ("nproc".to_string(), Json::Num(inputs::nproc() as f64)),
        (
            "digests".to_string(),
            Json::Obj(cfg.digests.iter().map(|(g, d)| (g.clone(), Json::Str(d.clone()))).collect()),
        ),
    ];
    stored.extend(result.iter().cloned());
    let path = cfg.out_dir.join(format!(
        "result-{}-trace{}-seed{}{}.json",
        cfg.workload,
        u8::from(cfg.trace),
        cfg.seed,
        if cfg.smoke { "-smoke" } else { "" }
    ));
    if let Err(e) = std::fs::write(&path, Json::Obj(stored).to_pretty() + "\n") {
        eprintln!("cannot write {}: {e}", path.display());
    }
    println!("{}", Json::Obj(result).to_line());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().is_some_and(|a| a == "compare") {
        return compare::main(&argv[1..]);
    }
    if argv.first().is_some_and(|a| a == "metrics") {
        for (kind, defs) in
            [("end_to_end", metrics::end_to_end()), ("per_layer", metrics::per_layer())]
        {
            defs.iter().for_each(|d| println!("{kind}\t{}\t{}\t{}", d.name, d.unit, d.better));
        }
        return ExitCode::SUCCESS;
    }
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("cannot create {}: {e}", args.out_dir.display());
        return ExitCode::from(1);
    }
    if let Some(dir) = &args.child_dir {
        return run_child(&args, dir);
    }
    match (&args.workload, args.seed, args.seconds, args.trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) if args.repeat == 1 => {
            run_one(&args, workload, seed, seconds, trace)
        }
        _ => suite::run(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Result<Args, String> {
        parse_args(&text.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_form_and_the_bare_trace_flag_both_parse() {
        let a = parse("--workload kernel_flat --seed 7 --seconds 18 --trace 0").unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("kernel_flat"), Some(7), Some(18.0), Some(false))
        );
        assert_eq!(parse("--trace 1 --smoke").unwrap().trace, Some(true));
        let bare = parse("--trace --workload serve_zipf").unwrap();
        assert_eq!((bare.trace, bare.workload.as_deref()), (Some(true), Some("serve_zipf")));
        assert_eq!(parse("").unwrap().trace, None);
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse("--workload gorder").unwrap_err().contains("unknown workload"));
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--seconds 61").is_err());
        assert!(parse("--seed x").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--frob").is_err());
    }
}
