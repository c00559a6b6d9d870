//! `reorderlab-serve` — the daemon front-end.
//!
//! ```text
//! reorderlab-serve prepare --dir DIR --instances NAME[,NAME...] [--compressed]
//! reorderlab-serve run --corpus DIR [--addr HOST:PORT] [--shards N]
//!                      [--queue-cap N] [--cache-cap N] [--audit FILE]
//! reorderlab-serve request --addr HOST:PORT --json LINE [--render]
//! ```

use reorderlab_graph::{BINARY_CSR_EXTENSION, COMPRESSED_CSR_EXTENSION};
use reorderlab_ops::args::{flag_value, has_flag};
use reorderlab_ops::OpError;
use reorderlab_serve::{exchange, prepare_corpus, serve, Corpus, Response, ServerConfig};
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "usage: reorderlab-serve <prepare|run|request> [options]
  prepare --dir DIR --instances NAME[,NAME...] [--compressed]
                                                 write a corpus (.csrbin, or
                                                 .csrz with --compressed)
  run --corpus DIR [--addr HOST:PORT] [--shards N] [--queue-cap N]
      [--cache-cap N] [--audit FILE]             serve the corpus
  request --addr HOST:PORT --json LINE [--render] send one request line";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("reorderlab-serve: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

fn run(args: &[String]) -> Result<(), OpError> {
    match args.first().map(String::as_str) {
        Some("prepare") => cmd_prepare(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("request") => cmd_request(&args[1..]),
        _ => Err(OpError::Usage(USAGE.into())),
    }
}

fn cmd_prepare(args: &[String]) -> Result<(), OpError> {
    let dir = flag_value(args, "--dir")
        .ok_or_else(|| OpError::Usage("prepare needs --dir DIR".into()))?;
    let instances: Vec<String> = flag_value(args, "--instances")
        .map(|s| s.split(',').map(str::trim).filter(|s| !s.is_empty()).map(String::from).collect())
        .ok_or_else(|| OpError::Usage("prepare needs --instances NAME[,NAME...]".into()))?;
    if instances.is_empty() {
        return Err(OpError::Usage("prepare needs at least one instance name".into()));
    }
    let extension = if has_flag(args, "--compressed") {
        COMPRESSED_CSR_EXTENSION
    } else {
        BINARY_CSR_EXTENSION
    };
    let made = prepare_corpus(Path::new(&dir), &instances, extension)?;
    for (name, digest) in made {
        println!("{name}: digest {digest:#018x}");
    }
    Ok(())
}

fn parse_num(args: &[String], flag: &str, default: usize) -> Result<usize, OpError> {
    match flag_value(args, flag) {
        None => Ok(default),
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| OpError::Usage(format!("{flag} needs a non-negative integer, got {v:?}"))),
    }
}

fn cmd_run(args: &[String]) -> Result<(), OpError> {
    let dir = flag_value(args, "--corpus")
        .ok_or_else(|| OpError::Usage("run needs --corpus DIR".into()))?;
    let corpus = Corpus::load_dir(Path::new(&dir))?;
    let config = ServerConfig {
        addr: flag_value(args, "--addr").unwrap_or_else(|| "127.0.0.1:0".into()),
        shards: parse_num(args, "--shards", 4)?,
        queue_cap: parse_num(args, "--queue-cap", 32)?,
        cache_cap: parse_num(args, "--cache-cap", 64)?,
        audit_path: flag_value(args, "--audit"),
    };
    let names = corpus.names().join(", ");
    let mut handle = serve(Arc::new(corpus), config)?;
    println!("listening on {}", handle.addr());
    println!("corpus: {names}");
    std::io::stdout().flush().map_err(|e| OpError::Io(format!("cannot flush stdout: {e}")))?;
    handle.wait();
    Ok(())
}

fn cmd_request(args: &[String]) -> Result<(), OpError> {
    let addr = flag_value(args, "--addr")
        .ok_or_else(|| OpError::Usage("request needs --addr HOST:PORT".into()))?;
    let line = flag_value(args, "--json")
        .ok_or_else(|| OpError::Usage("request needs --json LINE".into()))?;
    let stream = TcpStream::connect(&addr)
        .map_err(|e| OpError::Io(format!("cannot connect to {addr}: {e}")))?;
    let _ = stream.set_nodelay(true);
    let reading =
        stream.try_clone().map_err(|e| OpError::Io(format!("cannot clone connection: {e}")))?;
    let mut writer = stream;
    let mut reader = BufReader::new(reading);
    let resp = exchange(&mut writer, &mut reader, &line)?;
    if !has_flag(args, "--render") {
        println!("{resp}");
        return Ok(());
    }
    // Render the report exactly as the CLI would, so daemon output can be
    // diffed against `reorderlab` output byte-for-byte.
    match Response::parse(&resp)? {
        Response::Ok(report) => {
            use reorderlab_ops::OpReport;
            match *report {
                OpReport::Stats(s) => println!("{}", s.render_text()),
                OpReport::Reorder(r) => println!("{}", r.summary_line()),
                OpReport::Measure(m) => println!("{}", m.render_text()),
                OpReport::Compression(c) => println!("{}", c.render_text()),
                OpReport::Memsim(m) => println!("{}", m.render_text()),
                OpReport::Validate(v) => {
                    for file in &v.files {
                        println!("{}", file.verdict_line());
                    }
                    println!("{}", v.overall()?);
                }
            }
            Ok(())
        }
        Response::Ack(v) => {
            println!("{}", v.to_line());
            Ok(())
        }
        Response::Err(e) => Err(e),
    }
}
