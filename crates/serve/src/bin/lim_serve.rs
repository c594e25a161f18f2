//! `lim-serve`: the synthesis-as-a-service daemon.
//!
//! ```text
//! lim-serve [--addr HOST] [--port N] [--max-in-flight N]
//!           [--cache-bytes N] [--cache-dir PATH]
//!           [--idle-timeout-secs N] [--addr-file PATH] [--quiet]
//! ```
//!
//! Binds a `lim-serve-v1` NDJSON endpoint (port 0 picks an ephemeral
//! port; `--addr-file` then publishes the actual address for scripts to
//! poll). Obs collection is enabled so `server.stats` carries live span
//! and counter data. The process exits after a `server.shutdown`
//! request has drained all connections.
//!
//! `--cache-dir` points at the persistent compile cache: replies
//! written by earlier runs are served from it, so a restarted daemon
//! answers repeated requests byte-identically without recompiling. A
//! cold request compiles its bricks on demand, as in a fresh daemon.
//! `--idle-timeout-secs` closes connections that stay silent that long
//! (off by default; idle connections are cheap under the poll loop).

use lim_serve::{ServeConfig, Server};
use std::process::ExitCode;

struct Args {
    addr: String,
    port: u16,
    config: ServeConfig,
    addr_file: Option<String>,
    quiet: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: lim-serve [--addr HOST] [--port N] [--max-in-flight N] \
         [--cache-bytes N] [--cache-dir PATH] [--idle-timeout-secs N] \
         [--addr-file PATH] [--quiet]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: "127.0.0.1".into(),
        port: 7117,
        config: ServeConfig::default(),
        addr_file: None,
        quiet: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| -> String {
            argv.next().unwrap_or_else(|| {
                eprintln!("lim-serve: {flag} needs {what}");
                usage();
            })
        };
        match flag.as_str() {
            "--addr" => args.addr = value("a host"),
            "--port" => match value("a port number").parse() {
                Ok(p) => args.port = p,
                Err(_) => usage(),
            },
            "--max-in-flight" => match value("a count").parse() {
                Ok(n) if n > 0 => args.config.max_in_flight = n,
                _ => usage(),
            },
            "--cache-bytes" => match value("a byte budget").parse() {
                Ok(n) => args.config.cache_bytes = n,
                Err(_) => usage(),
            },
            "--cache-dir" => args.config.disk_dir = Some(value("a directory").into()),
            "--idle-timeout-secs" => match value("a duration in seconds").parse() {
                Ok(n) if n > 0 => {
                    args.config.idle_timeout = Some(std::time::Duration::from_secs(n));
                }
                _ => usage(),
            },
            "--addr-file" => args.addr_file = Some(value("a path")),
            "--quiet" => args.quiet = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("lim-serve: unknown flag {other:?}");
                usage();
            }
        }
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    lim_obs::set_enabled(true);
    let bind = format!("{}:{}", args.addr, args.port);
    let server = match Server::bind(&bind, &args.config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("lim-serve: cannot bind {bind}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = server.local_addr();
    if let Some(path) = &args.addr_file {
        if let Err(e) = std::fs::write(path, format!("{addr}\n")) {
            eprintln!("lim-serve: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if !args.quiet {
        println!(
            "lim-serve listening on {addr} ({}, max-in-flight {}, cache {} bytes{})",
            lim_serve::PROTOCOL,
            args.config.max_in_flight,
            args.config.cache_bytes,
            match &args.config.disk_dir {
                Some(dir) => format!(", disk cache {}", dir.display()),
                None => String::new(),
            }
        );
    }
    match server.run() {
        Ok(()) => {
            if !args.quiet {
                println!("lim-serve: drained, bye");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("lim-serve: accept loop failed: {e}");
            ExitCode::FAILURE
        }
    }
}
