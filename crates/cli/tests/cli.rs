//! End-to-end tests of the `reorderlab` binary.

use reorderlab_core::Provenance::Extension;
use reorderlab_ops::{execute, run_with_threads, FsResolver, GraphSource, OpReport, OpRequest};
use std::path::PathBuf;
use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reorderlab")).args(args).output().expect("binary runs")
}

fn tmp(name: &str) -> (PathBuf, String) {
    let path = std::env::temp_dir().join(format!("reorderlab_cli_{}_{name}", std::process::id()));
    let s = path.to_string_lossy().to_string();
    (path, s)
}

#[test]
fn help_lists_commands_and_schemes() {
    let out = run(&["help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "generate",
        "reorder",
        "measure",
        "stats",
        "rcm",
        "grappolo",
        "slashburn",
        "dbg",
        "comm-bfs",
        "adaptive",
    ] {
        assert!(text.contains(needle), "help missing {needle}");
    }
}

#[test]
fn list_names_all_34_instances() {
    let out = run(&["list"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("chicago_road"));
    assert!(text.contains("orkut"));
    assert!(text.contains("scaled 1/64"));
}

#[test]
fn unknown_command_fails_cleanly() {
    let out = run(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn generate_stats_reorder_roundtrip() {
    let (p1, f1) = tmp("g.mtx");
    let (p2, f2) = tmp("g2.mtx");
    let (p3, f3) = tmp("pi.txt");

    let out = run(&["generate", "euroroad", "--out", &f1]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(p1.exists());

    let out = run(&["stats", "--input", &f1]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("vertices:               1190"), "{text}");
    // The edge count depends on the generator's RNG stream, so capture it
    // rather than pinning a constant.
    let edges_line = text
        .lines()
        .find(|l| l.trim_start().starts_with("edges:"))
        .expect("stats reports an edge count")
        .to_string();

    let out = run(&["reorder", "--scheme", "rcm", "--input", &f1, "--out", &f2, "--perm", &f3]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    // The permutation file has one rank per vertex and is a bijection.
    let perm: Vec<u32> =
        std::fs::read_to_string(&p3).unwrap().lines().map(|l| l.parse().unwrap()).collect();
    assert_eq!(perm.len(), 1190);
    let mut sorted = perm.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), 1190, "permutation must be a bijection");
    // The reordered graph has the same size.
    let out = run(&["stats", "--input", &f2]);
    assert!(String::from_utf8_lossy(&out.stdout).contains(&edges_line));

    for p in [p1, p2, p3] {
        let _ = std::fs::remove_file(p);
    }
}

/// What `reorderlab` prints is the `render_text` of a local `execute` at
/// the same width, as the daemon's `--render` is (`crates/serve/tests`),
/// and a `--perm` file is `Permutation::write_text` byte for byte.
#[test]
fn stdout_is_the_render_text_of_a_local_execute() {
    let euroroad = || GraphSource::Instance("euroroad".into());
    let (source, workload) = (euroroad(), "pagerank".into());
    let memsim = OpRequest::Memsim { source, scheme: None, workload, kernel: None };
    let schemes = vec!["rcm".into(), "dbg".into()];
    let measure = OpRequest::Measure { source: euroroad(), schemes };
    let cases = [
        ("stats", None, OpRequest::Stats { source: euroroad() }),
        ("measure --scheme rcm --scheme dbg --threads 2", Some(2), measure),
        ("memsim --workload pagerank", None, memsim),
    ];
    for (args, threads, request) in cases {
        let out = run(&format!("{args} --instance euroroad").split(' ').collect::<Vec<_>>());
        assert!(out.status.success(), "{args}: {}", String::from_utf8_lossy(&out.stderr));
        let local = run_with_threads(threads, || execute(&request, &FsResolver)).unwrap();
        let text = match &local.report {
            OpReport::Stats(s) => s.render_text(),
            OpReport::Measure(m) => m.render_text(),
            OpReport::Memsim(m) => m.render_text(),
            other => panic!("no rendering for {other:?}"),
        };
        assert_eq!(String::from_utf8_lossy(&out.stdout), format!("{text}\n"), "{args}");
    }

    let (path, file) = tmp("rcm.perm");
    let out = run(&["reorder", "--instance", "euroroad", "--scheme", "rcm", "--perm", &file]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let (scheme, source) = (Some("rcm".into()), euroroad());
    let request = OpRequest::Reorder { source, scheme, apply_perm: None, return_perm: false };
    let mut expected = Vec::new();
    let local = execute(&request, &FsResolver).unwrap().permutation;
    local.expect("a computed permutation").write_text(&mut expected).unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), expected, "the --perm file is not write_text");
    let _ = std::fs::remove_file(path);
}

#[test]
fn measure_reports_requested_schemes() {
    let out =
        run(&["measure", "--instance", "chicago_road", "--scheme", "rcm", "--scheme", "random:3"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("RCM"));
    assert!(text.contains("Random"));
    assert!(!text.contains("Gorder"), "only requested schemes should run");
}

#[test]
fn compression_tabulates_bits_per_edge() {
    let out = run(&[
        "compression",
        "--instance",
        "chicago_road",
        "--scheme",
        "natural",
        "--scheme",
        "rcm",
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("compression footprint on chicago_road"), "{text}");
    assert!(text.contains("bits/edge"), "{text}");
    assert!(text.contains("Natural"), "{text}");
    assert!(text.contains("RCM"), "{text}");
    // --json emits one manifest line per scheme, each carrying gap_bytes.
    let out = run(&["compression", "--instance", "chicago_road", "--scheme", "rcm", "--json"]);
    assert!(out.status.success());
    let json = String::from_utf8_lossy(&out.stdout);
    assert_eq!(json.lines().count(), 1, "{json}");
    assert!(json.contains("gap_bytes"), "{json}");
    assert!(json.contains("bits_per_edge"), "{json}");
}

#[test]
fn csrz_files_work_end_to_end_and_typos_are_rejected() {
    let (p, f) = tmp("g.csrz");
    let out = run(&["generate", "euroroad", "--out", &f]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(p.exists());
    // Compressed input feeds every op through the same resolver.
    let out = run(&["stats", "--input", &f]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("vertices:               1190"));
    // Unrecognized extensions are a usage error (exit 2) naming the
    // accepted set — never a silent edge-list fallthrough.
    let (p2, f2) = tmp("g.weird");
    std::fs::write(&p2, "0 1\n").unwrap();
    let out = run(&["stats", "--input", &f2]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains(".csrz"), "{err}");
    assert!(err.contains(".el"), "{err}");
    for p in [p, p2] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn bad_scheme_is_reported() {
    let out = run(&["measure", "--instance", "chicago_road", "--scheme", "bogus"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown scheme"));
}

#[test]
fn lightweight_and_adaptive_family_reorders_end_to_end() {
    // Every extension row: the lightweight and adaptive family, plus
    // ascending Degree Sort and CDFS.
    let extensions = reorderlab_core::SCHEMES.iter().filter(|d| d.provenance == Extension);
    for scheme in extensions.map(|d| d.spec) {
        let (p, f) = tmp(&format!("{scheme}.perm"));
        let out = run(&["reorder", "--scheme", scheme, "--input", GOLDEN, "--perm", &f]);
        assert!(out.status.success(), "{scheme}: {}", String::from_utf8_lossy(&out.stderr));
        let perm: Vec<u32> =
            std::fs::read_to_string(&p).unwrap().lines().map(|l| l.parse().unwrap()).collect();
        let n = perm.len();
        let mut sorted = perm;
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), n, "{scheme}: permutation must be a bijection");
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn unknown_scheme_error_lists_every_accepted_name_exactly() {
    let out = run(&["measure", "--instance", "chicago_road", "--scheme", "bogus"]);
    assert_eq!(out.status.code(), Some(2));
    let expected = format!(
        "error: unknown scheme \"bogus\"; accepted schemes: {}\n",
        reorderlab_core::SCHEMES.iter().map(|d| d.spec).collect::<Vec<_>>().join(", ")
    );
    assert_eq!(String::from_utf8_lossy(&out.stderr), expected);
}

#[test]
fn missing_input_is_reported() {
    let out = run(&["stats"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--input"));
}

/// The committed golden fixture (the `rovira` instance written once to
/// Matrix Market) pins the end-to-end behavior of `reorder`/`measure`
/// independently of the generator RNG streams.
const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/golden.mtx");

/// Parses a `measure` table into `(scheme, avg_gap, bandwidth)` rows.
fn parse_measure(stdout: &str) -> Vec<(String, f64, u64)> {
    stdout
        .lines()
        .skip_while(|l| !l.starts_with("scheme"))
        .skip(1)
        .filter_map(|l| {
            let mut cols = l.split_whitespace();
            let name = cols.next()?.to_string();
            let avg_gap: f64 = cols.next()?.parse().ok()?;
            let bandwidth: u64 = cols.next()?.parse().ok()?;
            Some((name, avg_gap, bandwidth))
        })
        .collect()
}

#[test]
fn golden_fixture_measure_invariants_per_scheme() {
    let out = run(&[
        "measure",
        "--input",
        GOLDEN,
        "--scheme",
        "random:3",
        "--scheme",
        "rcm",
        "--scheme",
        "cdfs",
        "--scheme",
        "slashburn",
        "--scheme",
        "gorder",
        "--scheme",
        "rabbit",
        "--scheme",
        "metis",
        "--scheme",
        "grappolo",
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    let rows = parse_measure(&text);
    assert_eq!(rows.len(), 8, "one row per requested scheme:\n{text}");
    for (name, avg_gap, _) in &rows {
        assert!(avg_gap.is_finite() && *avg_gap > 0.0, "{name}: ξ̂ = {avg_gap} not finite");
    }
    let find = |n: &str| rows.iter().find(|(name, ..)| name == n).unwrap();
    let (_, random_gap, random_bw) = find("Random").clone();
    // Bandwidth-minimizing schemes must beat a random arrangement on β.
    for name in ["RCM", "CDFS"] {
        let (_, _, bw) = find(name);
        assert!(*bw < random_bw, "{name} bandwidth {bw} >= Random {random_bw}");
    }
    // Locality schemes must beat Random on the average gap ξ̂.
    for name in ["Rabbit", "METIS", "Grappolo"] {
        let (_, gap, _) = find(name);
        assert!(*gap < random_gap, "{name} ξ̂ {gap} >= Random {random_gap}");
    }
}

#[test]
fn golden_fixture_measure_reproducible_across_runs_and_threads() {
    let args = [
        "measure", "--input", GOLDEN, "--scheme", "rcm", "--scheme", "rabbit", "--scheme", "metis",
    ];
    let base = run(&args);
    assert!(base.status.success());
    let again = run(&args);
    assert_eq!(base.stdout, again.stdout, "repeated run diverged");
    for t in ["1", "2", "7"] {
        let mut with_threads: Vec<&str> = args.to_vec();
        with_threads.extend_from_slice(&["--threads", t]);
        let out = run(&with_threads);
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        assert_eq!(out.stdout, base.stdout, "output changed at {t} threads");
    }
}

#[test]
fn golden_fixture_reorder_permutation_identical_at_any_thread_count() {
    let mut perms: Vec<String> = Vec::new();
    for t in ["1", "2", "7"] {
        let (p, f) = tmp(&format!("golden_pi_{t}.txt"));
        let out = run(&[
            "reorder",
            "--scheme",
            "slashburn",
            "--input",
            GOLDEN,
            "--perm",
            &f,
            "--threads",
            t,
        ]);
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        perms.push(std::fs::read_to_string(&p).unwrap());
        let _ = std::fs::remove_file(p);
    }
    assert_eq!(perms[0], perms[1], "permutation changed between 1 and 2 threads");
    assert_eq!(perms[0], perms[2], "permutation changed between 1 and 7 threads");
}

#[test]
fn threads_flag_is_global_to_every_command() {
    // The pair must never be taken for a file or an instance name.
    let reference = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/reference_manifests.jsonl");
    let out = run(&["manifest-check", "--threads", "2", reference]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let (p, f) = tmp("threads_generate.el");
    let out = run(&["generate", "--threads", "2", "euroroad", "--out", &f]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(p.exists());
    let _ = std::fs::remove_file(p);
}

/// `results/reference_manifests.jsonl` is what the regeneration command in
/// DESIGN.md §7 writes: the same four runs on the golden fixture, from the
/// repository root so the graph id is the relative path, must reproduce
/// every field but the wall times.
#[test]
fn reference_manifests_regenerate_equal_apart_from_times() {
    use reorderlab_trace::Manifest;
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let golden = "crates/cli/tests/fixtures/golden.mtx";
    let (p, f) = tmp("reference_manifests.jsonl");
    let _ = std::fs::remove_file(&p);
    let measure = [
        "measure",
        "--input",
        golden,
        "--scheme",
        "rcm",
        "--scheme",
        "grappolo",
        "--scheme",
        "metis:parts=32,seed=42",
        "--threads",
        "2",
        "--manifest",
        &f,
    ];
    let reorder =
        ["reorder", "--scheme", "rcm", "--input", golden, "--threads", "2", "--manifest", &f];
    for args in [&measure[..], &reorder[..]] {
        let out = Command::new(env!("CARGO_BIN_EXE_reorderlab"))
            .args(args)
            .current_dir(root)
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    }
    let without_times = |text: &str| -> Vec<Manifest> {
        text.lines()
            .map(|line| {
                let mut m = Manifest::parse(line).expect("each line is a manifest");
                m.phases.iter_mut().for_each(|phase| phase.wall_s = 0.0);
                m.measures.retain(|(name, _)| name != "reorder_wall_s");
                m
            })
            .collect()
    };
    let fresh = without_times(&std::fs::read_to_string(&p).unwrap());
    let _ = std::fs::remove_file(p);
    let stored = without_times(
        &std::fs::read_to_string(format!("{root}/results/reference_manifests.jsonl")).unwrap(),
    );
    assert_eq!(fresh.len(), 4, "three measure rows and one reorder");
    assert_eq!(fresh, stored, "regenerate results/reference_manifests.jsonl (DESIGN.md §7)");
}

#[test]
fn zero_threads_is_rejected() {
    let out = run(&["measure", "--input", GOLDEN, "--scheme", "rcm", "--threads", "0"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--threads"));
}

#[test]
fn exit_codes_distinguish_usage_from_runtime_failures() {
    // Usage and scheme mistakes: exit code 2.
    assert_eq!(run(&["frobnicate"]).status.code(), Some(2));
    assert_eq!(run(&["stats"]).status.code(), Some(2));
    assert_eq!(run(&["measure", "--input", GOLDEN, "--scheme", "bogus"]).status.code(), Some(2));
    assert_eq!(
        run(&["measure", "--input", GOLDEN, "--scheme", "gorder:window=0"]).status.code(),
        Some(2)
    );
    // Runtime failures: exit code 1.
    assert_eq!(run(&["stats", "--input", "/nonexistent/g.mtx"]).status.code(), Some(1));
    let out = run(&["measure", "--input", GOLDEN, "--scheme", "metis:parts=100000"]);
    assert_eq!(out.status.code(), Some(2), "parts > n is a scheme error");
    assert!(String::from_utf8_lossy(&out.stderr).contains("exceed"));
}

#[cfg(target_os = "linux")]
#[test]
fn a_full_disk_fails_reorder_perm_instead_of_reporting_success() {
    // `/dev/full` accepts the open and fails every write with ENOSPC; the
    // golden fixture's permutation fits the writer's buffer, so only the
    // final flush can see the error.
    let (path, perm) = tmp("full_pi.txt");
    let _ = std::fs::remove_file(&path);
    std::os::unix::fs::symlink("/dev/full", &path).unwrap();
    let out = run(&["reorder", "--scheme", "rcm", "--input", GOLDEN, "--perm", &perm]);
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(!stderr.contains("wrote permutation"), "{stderr}");
}

#[test]
fn stats_json_emits_a_valid_manifest() {
    let out = run(&["stats", "--input", GOLDEN, "--json"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    let m = reorderlab_trace::Manifest::parse(&text).expect("stdout parses as one manifest");
    assert_eq!(m.command, "stats");
    assert!(m.measure("triangles").is_some());
    assert!(m.phases.iter().any(|p| p.name == "stats"), "stats phase timed");
    // --json replaces the plain-text report entirely.
    assert!(!text.contains("clustering coefficient:"), "plain text leaked into --json: {text}");
}

#[test]
fn reorder_json_manifest_carries_scheme_and_measures() {
    let out = run(&["reorder", "--scheme", "grappolo", "--input", GOLDEN, "--json"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let m = reorderlab_trace::Manifest::parse(&String::from_utf8_lossy(&out.stdout))
        .expect("stdout parses as one manifest");
    assert_eq!(m.command, "reorder");
    let scheme = m.scheme.as_ref().expect("scheme recorded");
    assert_eq!(scheme.name, "Grappolo");
    assert_eq!(scheme.spec, "grappolo");
    assert!(m.graph.vertices > 0 && m.graph.edges > 0);
    for key in ["avg_gap", "bandwidth", "avg_bandwidth", "avg_log_gap", "reorder_wall_s"] {
        assert!(m.measure(key).is_some(), "manifest missing measure {key}");
    }
    assert!(m.phases.iter().any(|p| p.name == "reorder"), "reorder phase timed");
    assert!(m.counter("louvain/phases").unwrap_or(0) >= 1, "louvain trajectory recorded");
}

#[test]
fn measure_json_is_one_manifest_line_per_scheme() {
    let out =
        run(&["measure", "--input", GOLDEN, "--scheme", "rcm", "--scheme", "random:3", "--json"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    let manifests: Vec<_> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| reorderlab_trace::Manifest::parse(l).expect("each line is a manifest"))
        .collect();
    assert_eq!(manifests.len(), 2, "one JSONL line per scheme:\n{text}");
    assert_eq!(manifests[0].scheme.as_ref().unwrap().name, "RCM");
    assert_eq!(manifests[1].scheme.as_ref().unwrap().name, "Random");
    assert_eq!(manifests[1].seed, 3, "seed comes from the scheme spec");
    assert!(manifests.iter().all(|m| m.measure("avg_gap").is_some()));
}

#[test]
fn manifest_file_appends_and_checks_clean() {
    let (p, f) = tmp("runs.jsonl");
    let _ = std::fs::remove_file(&p);
    for scheme in ["rcm", "cdfs"] {
        let out = run(&["measure", "--input", GOLDEN, "--scheme", scheme, "--manifest", &f]);
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    }
    let out = run(&["reorder", "--scheme", "rcm", "--input", GOLDEN, "--manifest", &f]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let lines = std::fs::read_to_string(&p).unwrap();
    assert_eq!(lines.lines().count(), 3, "three runs appended:\n{lines}");
    let out = run(&["manifest-check", &f]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("3 manifest(s) ok"));
    let _ = std::fs::remove_file(p);
}

#[test]
fn manifest_check_rejects_garbage() {
    let (p, f) = tmp("bad.jsonl");
    std::fs::write(&p, "{\"not\": \"a manifest\"}\n").unwrap();
    let out = run(&["manifest-check", &f]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("invalid manifest"));
    let _ = std::fs::remove_file(p);
}

/// The adversarial ingestion corpus at the repo root: every file is
/// malformed on purpose and must be rejected with a line-numbered error.
const ADVERSARIAL: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures/adversarial");

/// A valid Matrix Market file with CRLF line endings and trailing
/// whitespace — legal input, must validate clean.
const CRLF: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/crlf.mtx");

#[test]
fn validate_accepts_clean_files() {
    let out = run(&["validate", GOLDEN, CRLF]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("|V|=1133"), "golden size reported: {text}");
    assert!(text.contains("|V|=4"), "crlf fixture size reported: {text}");
    assert!(text.contains("2 file(s) ok"), "{text}");
}

#[test]
fn validate_rejects_every_adversarial_fixture_with_a_line_number() {
    let fixtures: Vec<std::path::PathBuf> = std::fs::read_dir(ADVERSARIAL)
        .expect("adversarial corpus exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "mtx" || x == "el" || x == "graph"))
        .collect();
    assert!(fixtures.len() >= 15, "corpus unexpectedly small: {fixtures:?}");
    for path in fixtures {
        let p = path.to_string_lossy().to_string();
        let out = run(&["validate", &p]);
        assert_eq!(out.status.code(), Some(2), "{p} must exit 2");
        let text = String::from_utf8_lossy(&out.stderr);
        assert!(text.contains("parse error at line "), "{p}: no line-numbered error:\n{text}");
        assert!(text.contains("malformed"), "{p}: verdict missing:\n{text}");
    }
}

/// `validate FILE` in a child whose address space is capped at ~1.5 GB, so
/// that a reader which sizes an allocation by the file fails to allocate
/// here instead of touching the memory on a host that has it.
fn validate_under_memory_cap(file: &str) -> Output {
    Command::new("sh")
        .args(["-c", "ulimit -v 1500000; exec \"$0\" \"$@\""])
        .args([env!("CARGO_BIN_EXE_reorderlab"), "validate", file])
        .output()
        .expect("sh runs")
}

/// A size line that declares 2·10⁹ vertices and one entry asks for 16 GB of
/// row offsets; an edge list's largest id sizes the graph the same way.
/// Both are refused with the line that set the size, not aborted.
#[test]
fn validate_refuses_a_graph_too_large_to_allocate_with_its_size_line() {
    for (name, text, line) in [
        (
            "huge_header.mtx",
            "%%MatrixMarket matrix coordinate pattern general\n2000000000 2000000000 1\n1 2\n",
            2,
        ),
        ("huge_id.el", "0 4000000000\n", 1),
    ] {
        let (path, p) = tmp(name);
        std::fs::write(&path, text).unwrap();
        let out = validate_under_memory_cap(&p);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
        assert!(
            stderr.contains(&format!("parse error at line {line}: cannot allocate")),
            "{name}: {stderr}"
        );
        assert!(stderr.contains("malformed"), "{name}: {stderr}");
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn validate_exit_codes_rank_malformed_over_unreadable() {
    // A missing file alone: I/O problem, exit 1.
    let out = run(&["validate", "/nonexistent/g.mtx"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unreadable"));
    // Malformed beats unreadable and clean when files are mixed.
    let bad = format!("{ADVERSARIAL}/bad_banner.mtx");
    let out = run(&["validate", GOLDEN, "/nonexistent/g.mtx", &bad]);
    assert_eq!(out.status.code(), Some(2));
    // No files at all is a usage mistake.
    let out = run(&["validate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn validate_json_and_manifest_report_per_file_status() {
    let (p, f) = tmp("validate.jsonl");
    let _ = std::fs::remove_file(&p);
    let bad = format!("{ADVERSARIAL}/truncated_entries.mtx");
    let out = run(&["validate", GOLDEN, &bad, "--json", "--manifest", &f]);
    assert_eq!(out.status.code(), Some(2));
    let text = String::from_utf8_lossy(&out.stdout);
    let manifests: Vec<_> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| reorderlab_trace::Manifest::parse(l).expect("each line is a manifest"))
        .collect();
    assert_eq!(manifests.len(), 2, "one manifest per file:\n{text}");
    assert!(manifests.iter().all(|m| m.command == "validate"));
    let note = |m: &reorderlab_trace::Manifest, key: &str| -> Option<String> {
        m.notes.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
    };
    assert_eq!(note(&manifests[0], "status").as_deref(), Some("ok"));
    assert_eq!(note(&manifests[1], "status").as_deref(), Some("malformed"));
    let err = note(&manifests[1], "error").expect("malformed file carries the error");
    assert!(err.contains("parse error at line 2"), "line number preserved: {err}");
    // The JSONL sidecar holds the same two manifests and passes the checker.
    let appended = std::fs::read_to_string(&p).unwrap();
    assert_eq!(appended.lines().count(), 2, "{appended}");
    let out = run(&["manifest-check", &f]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let _ = std::fs::remove_file(p);
}

#[test]
fn manifest_outputs_are_thread_invariant_apart_from_timings() {
    use reorderlab_trace::Manifest;
    // Everything except wall times and the thread count must agree.
    fn fingerprint(m: &Manifest) -> String {
        let mut measures: Vec<String> =
            m.measures.iter().map(|(k, v)| format!("{k}={v}")).collect();
        measures.sort();
        let counters: Vec<String> = m.counters.iter().map(|(k, v)| format!("{k}={v}")).collect();
        format!(
            "{:?} {} {measures:?} {counters:?}",
            m.scheme.as_ref().map(|s| (&s.name, &s.spec)),
            m.seed
        )
    }
    let mut explicit: Vec<String> = Vec::new();
    let mut default_suite: Vec<String> = Vec::new();
    for t in ["1", "2", "7"] {
        let out =
            run(&["measure", "--input", GOLDEN, "--scheme", "grappolo", "--json", "--threads", t]);
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let m = Manifest::parse(&String::from_utf8_lossy(&out.stdout)).expect("one manifest line");
        explicit.push(fingerprint(&m));

        // With no --scheme the default suite's Grappolo rows follow
        // --threads too, under the same width-free specs.
        let out = run(&["measure", "--input", GOLDEN, "--json", "--threads", t]);
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let rows: Vec<Manifest> = String::from_utf8_lossy(&out.stdout)
            .lines()
            .map(|line| Manifest::parse(line).expect("one manifest per line"))
            .collect();
        let row = |spec: &str| {
            let m = rows
                .iter()
                .find(|m| m.scheme.as_ref().is_some_and(|s| s.spec == spec))
                .unwrap_or_else(|| panic!("no {spec:?} row at {t} threads"));
            assert_eq!(m.threads.to_string(), t, "{spec} manifest must report the width that ran");
            fingerprint(m)
        };
        default_suite.push(format!("{} | {}", row("grappolo"), row("grappolo-rcm")));
    }
    for prints in [&explicit, &default_suite] {
        assert_eq!(prints[0], prints[1], "manifest changed between 1 and 2 threads");
        assert_eq!(prints[0], prints[2], "manifest changed between 1 and 7 threads");
    }
}
