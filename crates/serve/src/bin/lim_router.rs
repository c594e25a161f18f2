//! `lim-router`: thin cluster front end for `lim-serve` shards.
//!
//! ```text
//! lim-router --shards HOST:PORT,HOST:PORT[,...]
//!            [--addr HOST] [--port N] [--addr-file PATH] [--quiet]
//! ```
//!
//! Speaks `lim-serve-v1` on the client side and consistent-hashes each
//! request's routing key onto one of the configured shards: every
//! stack height of one brick lands on the shard that already compiled
//! it, `batch` requests are scattered across shards and gathered in
//! key order (byte-identical to a single shard answering alone), and
//! `server.shutdown` drains the router and is broadcast to every
//! shard; the reply comes once each shard has answered. Shards that
//! cannot be reached surface as 502 error responses; the router holds
//! no synthesis state of its own.

use lim_serve::router::Router;
use std::process::ExitCode;

struct Args {
    addr: String,
    port: u16,
    shards: Vec<String>,
    addr_file: Option<String>,
    quiet: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: lim-router --shards HOST:PORT,HOST:PORT[,...] \
         [--addr HOST] [--port N] [--addr-file PATH] [--quiet]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: "127.0.0.1".into(),
        port: 7118,
        shards: Vec::new(),
        addr_file: None,
        quiet: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| -> String {
            argv.next().unwrap_or_else(|| {
                eprintln!("lim-router: {flag} needs {what}");
                usage();
            })
        };
        match flag.as_str() {
            "--addr" => args.addr = value("a host"),
            "--port" => match value("a port number").parse() {
                Ok(p) => args.port = p,
                Err(_) => usage(),
            },
            "--shards" => args.shards.extend(
                value("a comma-separated shard list")
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_owned),
            ),
            "--addr-file" => args.addr_file = Some(value("a path")),
            "--quiet" => args.quiet = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("lim-router: unknown flag {other:?}");
                usage();
            }
        }
    }
    if args.shards.is_empty() {
        eprintln!("lim-router: at least one --shards entry is required");
        usage();
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    let bind = format!("{}:{}", args.addr, args.port);
    let router = match Router::bind(&bind, &args.shards) {
        Ok(router) => router,
        Err(e) => {
            eprintln!("lim-router: cannot bind {bind}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = router.local_addr();
    if let Some(path) = &args.addr_file {
        if let Err(e) = std::fs::write(path, format!("{addr}\n")) {
            eprintln!("lim-router: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if !args.quiet {
        println!(
            "lim-router listening on {addr} ({}, {} shards: {})",
            lim_serve::PROTOCOL,
            args.shards.len(),
            args.shards.join(", ")
        );
    }
    match router.run() {
        Ok(()) => {
            if !args.quiet {
                println!("lim-router: drained, bye");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("lim-router: accept loop failed: {e}");
            ExitCode::FAILURE
        }
    }
}
