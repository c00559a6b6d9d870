//! Minimal argument handling shared by all harness binaries.

use reorderlab_graph::build_pool;

/// Options common to every figure/table binary.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HarnessArgs {
    /// Run a reduced instance set for smoke testing.
    pub quick: bool,
    /// Worker threads for parallel stages (0 = rayon default).
    pub threads: usize,
    /// Optional path to also write results as CSV.
    pub csv: Option<String>,
    /// Optional path to append per-run manifests as JSON Lines.
    pub manifests: Option<String>,
    /// Run the serial (1-thread) variant where the experiment offers one.
    pub serial: bool,
}

impl HarnessArgs {
    /// Parses `std::env::args`-style input. Unknown flags abort with a
    /// usage message; `--help` prints `description` and exits.
    pub fn parse<I: Iterator<Item = String>>(mut args: I, description: &str) -> Self {
        let mut out = HarnessArgs::default();
        let program = args.next().unwrap_or_else(|| "bench".into());
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => out.quick = true,
                "--serial" => out.serial = true,
                "--threads" => {
                    let v = args.next().unwrap_or_else(|| usage(&program, description));
                    out.threads = v.parse().unwrap_or_else(|_| usage(&program, description));
                }
                "--csv" => {
                    out.csv = Some(args.next().unwrap_or_else(|| usage(&program, description)));
                }
                "--manifests" => {
                    out.manifests =
                        Some(args.next().unwrap_or_else(|| usage(&program, description)));
                }
                "--help" | "-h" => {
                    println!("{description}");
                    println!(
                        "usage: {program} [--quick] [--serial] [--threads N] [--csv FILE] [--manifests FILE]"
                    );
                    std::process::exit(0);
                }
                _ => usage(&program, description),
            }
        }
        out
    }

    /// Parses the process's actual arguments.
    pub fn from_env(description: &str) -> Self {
        HarnessArgs::parse(std::env::args(), description)
    }

    /// Runs `f` in the pool the flags ask for: `--serial` means one
    /// worker, `--threads N` means `N`, neither means the ambient pool.
    pub fn in_pool<R>(&self, f: impl FnOnce() -> R) -> R {
        match if self.serial { 1 } else { self.threads } {
            0 => f(),
            t => build_pool(t).install(f),
        }
    }
}

fn usage(program: &str, description: &str) -> ! {
    eprintln!("{description}");
    eprintln!(
        "usage: {program} [--quick] [--serial] [--threads N] [--csv FILE] [--manifests FILE]"
    );
    std::process::exit(2);
}

/// Writes rows as CSV to `path` when `path` is `Some`, silently doing
/// nothing otherwise. Errors abort with a message (harness context).
pub fn maybe_write_csv(path: &Option<String>, header: &str, rows: &[String]) {
    let Some(path) = path else { return };
    let mut text = String::with_capacity(rows.len() * 32 + header.len() + 1);
    text.push_str(header);
    text.push('\n');
    for r in rows {
        text.push_str(r);
        text.push('\n');
    }
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("failed to write {path}: {e}");
        std::process::exit(1);
    }
    println!("(wrote {path})");
}

/// Appends run manifests as JSON Lines to `path` when `path` is `Some`,
/// silently doing nothing otherwise. Errors abort (harness context).
pub fn maybe_append_manifests(path: &Option<String>, manifests: &[reorderlab_trace::Manifest]) {
    let Some(path) = path else { return };
    for m in manifests {
        if let Err(e) = m.append_jsonl(path) {
            eprintln!("failed to append manifest to {path}: {e}");
            std::process::exit(1);
        }
    }
    println!("(appended {} manifests to {path})", manifests.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> HarnessArgs {
        HarnessArgs::parse(
            std::iter::once("prog".to_string()).chain(v.iter().map(|s| s.to_string())),
            "test",
        )
    }

    #[test]
    fn defaults() {
        let a = parse(&[]);
        assert!(!a.quick);
        assert!(!a.serial);
        assert_eq!(a.threads, 0);
        assert!(a.csv.is_none());
        assert!(a.manifests.is_none());
    }

    #[test]
    fn parses_flags() {
        let a = parse(&[
            "--quick",
            "--threads",
            "4",
            "--csv",
            "out.csv",
            "--serial",
            "--manifests",
            "runs.jsonl",
        ]);
        assert!(a.quick);
        assert!(a.serial);
        assert_eq!(a.threads, 4);
        assert_eq!(a.csv.as_deref(), Some("out.csv"));
        assert_eq!(a.manifests.as_deref(), Some("runs.jsonl"));
    }

    #[test]
    fn in_pool_maps_flags_to_width() {
        let ambient = rayon::current_num_threads();
        assert_eq!(parse(&[]).in_pool(rayon::current_num_threads), ambient);
        assert_eq!(parse(&["--threads", "3"]).in_pool(rayon::current_num_threads), 3);
        assert_eq!(parse(&["--serial", "--threads", "3"]).in_pool(rayon::current_num_threads), 1);
    }

    #[test]
    fn manifest_appender_noop_without_path() {
        maybe_append_manifests(&None, &[]);
    }

    #[test]
    fn manifest_appender_appends_parseable_lines() {
        let path = std::env::temp_dir().join("reorderlab_args_manifests.jsonl");
        let _ = std::fs::remove_file(&path);
        let p = path.to_string_lossy().to_string();
        let m = reorderlab_trace::Manifest::new("test", "toy", 4, 3);
        maybe_append_manifests(&Some(p.clone()), &[m.clone(), m]);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            reorderlab_trace::Manifest::parse(line).expect("line parses back");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn csv_writer_noop_without_path() {
        maybe_write_csv(&None, "a,b", &["1,2".into()]);
    }

    #[test]
    fn csv_writer_writes() {
        let path = std::env::temp_dir().join("reorderlab_args_test.csv");
        let p = path.to_string_lossy().to_string();
        maybe_write_csv(&Some(p.clone()), "a,b", &["1,2".into(), "3,4".into()]);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "a,b\n1,2\n3,4\n");
        let _ = std::fs::remove_file(&path);
    }
}
