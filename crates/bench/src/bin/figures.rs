//! `figures --out DIR [ID...]`: writes `DIR/<id>.txt` for each registered
//! figure named, or for every one when no id is given. The worker count is
//! the ambient one (`RAYON_NUM_THREADS`). A figure that cannot be built
//! exits 2 naming it; a file that cannot be written exits 1.

use reorderlab_bench::{Ctx, FIGURES};
use std::path::PathBuf;
use std::time::Instant;

fn usage() -> ! {
    let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
    eprintln!("usage: figures --out DIR [ID...]\nids: {}", ids.join(" "));
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut out = None;
    let mut ids = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out = Some(PathBuf::from(args.next().unwrap_or_else(|| usage()))),
            id if FIGURES.iter().any(|f| f.id == id) => ids.push(arg),
            _ => usage(),
        }
    }
    let Some(out) = out else { usage() };
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("figures: {}: {e}", out.display());
        std::process::exit(1);
    }

    let ctx = Ctx::default();
    for figure in FIGURES.iter().filter(|f| ids.is_empty() || ids.iter().any(|id| id == f.id)) {
        let start = Instant::now();
        let text = (figure.run)(&ctx).unwrap_or_else(|e| {
            eprintln!("figures: {}: {e}", figure.id);
            std::process::exit(2);
        });
        let path = out.join(format!("{}.txt", figure.id));
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("figures: {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("wrote {} ({:.1} s)", path.display(), start.elapsed().as_secs_f64());
    }
}
