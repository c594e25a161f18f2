//! `lim-client`: one-shot caller and load generator for `lim-serve`.
//!
//! ```text
//! lim-client --addr HOST:PORT --method M [--params JSON]   # one request
//! lim-client --addr HOST:PORT --stats                      # server.stats
//! lim-client --addr HOST:PORT --shutdown                   # drain server
//! lim-client --addr HOST:PORT --concurrency N --requests M # load gen
//! ```
//!
//! Single-shot mode prints the raw response line and exits nonzero on
//! an error response. Load-generator mode opens one connection per
//! worker, drives a request mix (either `--method/--params` or a
//! built-in mixed workload), and reports throughput plus latency
//! percentiles. Shed responses (429) are counted separately and do not
//! fail the run — they are the server's backpressure working as
//! designed; any other error does.
//!
//! `--source-file PATH` reads a file and splices its text into the
//! request as the `"source"` param — the ergonomic way to drive
//! `rtl.infer` with a Verilog file.
//!
//! Telemetry flags:
//!
//! - `--trace` (single-shot) mints a trace id, sends it with the
//!   request, then fetches the server-side span tree via `server.trace`
//!   and renders it indented.
//! - `--latency-export PATH` (load gen) writes client-observed
//!   p50/p90/p99 as `lim-obs-v1` bench rows.
//! - `--telemetry-export PATH` fetches `server.telemetry` and writes
//!   the returned `lim-obs-v1` lines verbatim (pipe into `obs_check`).

use lim_obs::json::Value;
use lim_obs::TraceId;
use lim_serve::net::{percentile, write_line, LineReader};
use lim_serve::protocol::ERR_OVERLOADED;
use lim_serve::ring::route_key;
use lim_serve::HashRing;
use std::io;
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::{Duration, Instant};

struct Args {
    addr: String,
    shards: Vec<String>,
    method: Option<String>,
    params: String,
    source_file: Option<String>,
    concurrency: usize,
    requests: usize,
    quiet: bool,
    trace: bool,
    latency_export: Option<String>,
    telemetry_export: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: lim-client (--addr HOST:PORT | --shards H:P,H:P[,...]) \
         (--method M [--params JSON] [--source-file PATH] [--trace] | --stats | \
         --shutdown | --concurrency N --requests M [--method M [--params JSON]] \
         [--latency-export PATH] | --telemetry-export PATH)"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: "127.0.0.1:7117".into(),
        shards: Vec::new(),
        method: None,
        params: "{}".into(),
        source_file: None,
        concurrency: 0,
        requests: 0,
        quiet: false,
        trace: false,
        latency_export: None,
        telemetry_export: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| -> String {
            argv.next().unwrap_or_else(|| {
                eprintln!("lim-client: {flag} needs {what}");
                usage();
            })
        };
        match flag.as_str() {
            "--addr" => args.addr = value("host:port"),
            "--shards" => args.shards.extend(
                value("a comma-separated shard list")
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_owned),
            ),
            "--method" => args.method = Some(value("a method name")),
            "--params" => args.params = value("a JSON object"),
            "--source-file" => args.source_file = Some(value("a Verilog file path")),
            "--stats" => args.method = Some("server.stats".into()),
            "--shutdown" => args.method = Some("server.shutdown".into()),
            "--concurrency" => match value("a worker count").parse() {
                Ok(n) if n > 0 => args.concurrency = n,
                _ => usage(),
            },
            "--requests" => match value("a request count").parse() {
                Ok(n) if n > 0 => args.requests = n,
                _ => usage(),
            },
            "--quiet" => args.quiet = true,
            "--trace" => args.trace = true,
            "--latency-export" => args.latency_export = Some(value("an output path")),
            "--telemetry-export" => args.telemetry_export = Some(value("an output path")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("lim-client: unknown flag {other:?}");
                usage();
            }
        }
    }
    args
}

/// One request/response round trip over an established connection.
fn roundtrip(
    writer: &mut TcpStream,
    reader: &mut LineReader,
    id: usize,
    method: &str,
    params: &str,
) -> io::Result<String> {
    roundtrip_traced(writer, reader, id, method, params, None)
}

/// [`roundtrip`] with an optional client-minted trace id carried in the
/// request line.
fn roundtrip_traced(
    writer: &mut TcpStream,
    reader: &mut LineReader,
    id: usize,
    method: &str,
    params: &str,
    trace: Option<TraceId>,
) -> io::Result<String> {
    let trace_member = match trace {
        Some(t) => format!(",\"trace\":\"{}\"", t.render()),
        None => String::new(),
    };
    write_line(
        writer,
        &format!("{{\"id\":{id},\"method\":\"{method}\"{trace_member},\"params\":{params}}}"),
    )?;
    reader
        .read_line()?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed connection"))
}

/// Reads `path` and splices its text into the params object as the
/// `"source"` member (for `rtl.infer`, whose source argument is
/// unwieldy to pass inline on a command line).
fn inject_source(params: &str, path: &str) -> io::Result<String> {
    let text = std::fs::read_to_string(path)?;
    let mut parsed = Value::parse(params)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("--params: {e}")))?;
    match &mut parsed {
        Value::Object(members) => {
            members.retain(|(k, _)| k != "source");
            members.push(("source".to_owned(), Value::String(text)));
        }
        _ => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "--params must be a JSON object",
            ))
        }
    }
    Ok(lim_obs::json::render(&parsed))
}

fn connect(addr: &str) -> io::Result<(TcpStream, LineReader)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let reader = LineReader::new(stream.try_clone()?);
    Ok((stream, reader))
}

fn is_ok(response: &str) -> bool {
    Value::parse(response)
        .ok()
        .and_then(|v| v.get("ok").cloned())
        == Some(Value::Bool(true))
}

/// The shard a request belongs on — the same ring `lim-router` uses,
/// so a router-less `--shards` client routes identically. Falls back
/// to `--addr` when no shard list was given.
fn target_addr(args: &Args, ring: Option<&HashRing>, method: &str, params: &str) -> String {
    match ring {
        Some(ring) => {
            let params = Value::parse(params).unwrap_or_else(|_| Value::Object(Vec::new()));
            args.shards[ring.shard_for(route_key(method, &params))].clone()
        }
        None => args.addr.clone(),
    }
}

fn single_shot(args: &Args, method: &str) -> io::Result<bool> {
    // Control methods address the whole cluster, not one shard.
    if !args.shards.is_empty() && matches!(method, "server.stats" | "server.shutdown") {
        let mut all_ok = true;
        for shard in &args.shards {
            let (mut writer, mut reader) = connect(shard)?;
            let response = roundtrip(&mut writer, &mut reader, 0, method, &args.params)?;
            println!("{response}");
            all_ok &= is_ok(&response);
        }
        return Ok(all_ok);
    }
    let ring = (!args.shards.is_empty()).then(|| HashRing::new(&args.shards));
    let addr = target_addr(args, ring.as_ref(), method, &args.params);
    let (mut writer, mut reader) = connect(&addr)?;
    let trace = args.trace.then(TraceId::mint);
    let response = roundtrip_traced(&mut writer, &mut reader, 0, method, &args.params, trace)?;
    println!("{response}");
    let ok = is_ok(&response);
    if ok {
        if let Some(id) = trace {
            print_trace(&mut writer, &mut reader, id)?;
        }
    }
    Ok(ok)
}

/// Fetches the retained span tree for `id` via `server.trace` and
/// renders it indented by span depth, one line per span.
fn print_trace(writer: &mut TcpStream, reader: &mut LineReader, id: TraceId) -> io::Result<()> {
    let params = format!("{{\"id\":\"{}\"}}", id.render());
    let response = roundtrip(writer, reader, 1, "server.trace", &params)?;
    let parsed = Value::parse(&response)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let traces = parsed
        .get("result")
        .and_then(|r| r.get("traces"))
        .and_then(Value::as_array);
    let Some(Some(trace)) = traces.map(|t| t.first()) else {
        println!("trace {}: not retained by the server", id.render());
        return Ok(());
    };
    let method = trace.get("method").and_then(Value::as_str).unwrap_or("?");
    let total_us = trace
        .get("total_ns")
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
        / 1e3;
    println!("trace {} method={method} total={total_us:.1}us", id.render());
    for span in trace
        .get("spans")
        .and_then(Value::as_array)
        .into_iter()
        .flatten()
    {
        let depth = span.get("depth").and_then(Value::as_f64).unwrap_or(0.0) as usize;
        let name = span.get("name").and_then(Value::as_str).unwrap_or("?");
        let calls = span.get("calls").and_then(Value::as_f64).unwrap_or(0.0);
        let span_us = span.get("total_ns").and_then(Value::as_f64).unwrap_or(0.0) / 1e3;
        println!(
            "{}{name} calls={calls:.0} total={span_us:.1}us",
            "  ".repeat(depth + 1)
        );
    }
    Ok(())
}

/// Writes client-observed latency percentiles as `lim-obs-v1` bench
/// rows (suite `lim_client_load`), one row per percentile with
/// min = median = p95 pinned to the observed value.
fn export_latency(path: &str, latencies_us: &[u64]) -> io::Result<()> {
    let mut out = String::new();
    for (name, q) in [
        ("latency_p50", 0.50),
        ("latency_p90", 0.90),
        ("latency_p99", 0.99),
    ] {
        let d = Duration::from_micros(percentile(latencies_us, q));
        out.push_str(&lim_obs::bench_json_line(
            "lim_client_load",
            name,
            d,
            d,
            d,
            latencies_us.len(),
            1,
        ));
        out.push('\n');
    }
    std::fs::write(path, out)
}

/// Fetches `server.telemetry` and writes the returned `lim-obs-v1`
/// lines verbatim to `path` (suitable for `obs_check` validation).
fn export_telemetry(addr: &str, path: &str) -> io::Result<()> {
    let (mut writer, mut reader) = connect(addr)?;
    let response = roundtrip(&mut writer, &mut reader, 0, "server.telemetry", "{}")?;
    let parsed = Value::parse(&response)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let lines = parsed
        .get("result")
        .and_then(|r| r.get("lines"))
        .and_then(Value::as_str)
        .ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, "server.telemetry returned no lines")
        })?
        .to_owned();
    std::fs::write(path, lines + "\n")
}

/// The built-in mixed workload: cache-friendly estimates, a DSE sweep,
/// a full flow run and a ping, cycled per request.
const MIX: &[(&str, &str)] = &[
    ("brick.estimate", "{\"words\":16,\"bits\":10,\"stack\":4}"),
    ("brick.estimate", "{\"words\":32,\"bits\":12,\"stack\":2}"),
    (
        "dse.explore",
        "{\"memories\":[[128,16]],\"brick_words\":[16,32,64]}",
    ),
    ("server.ping", "{}"),
    (
        "flow.run",
        "{\"words\":64,\"bits\":10,\"partitions\":1,\"brick_words\":16}",
    ),
];

#[derive(Default)]
struct WorkerTally {
    latencies_us: Vec<u64>,
    ok: u64,
    shed: u64,
    errors: u64,
}

fn classify(response: &str, tally: &mut WorkerTally) {
    let parsed = Value::parse(response).ok();
    let ok = parsed.as_ref().and_then(|v| v.get("ok").cloned()) == Some(Value::Bool(true));
    if ok {
        tally.ok += 1;
        return;
    }
    let code = parsed
        .as_ref()
        .and_then(|v| v.get("error"))
        .and_then(|e| e.get("code"))
        .and_then(Value::as_f64);
    if code == Some(f64::from(ERR_OVERLOADED)) {
        tally.shed += 1;
    } else {
        tally.errors += 1;
    }
}

fn load_generator(args: &Args) -> io::Result<bool> {
    let mix: Vec<(String, String)> = match &args.method {
        Some(m) => vec![(m.clone(), args.params.clone())],
        None => MIX
            .iter()
            .map(|&(m, p)| (m.to_owned(), p.to_owned()))
            .collect(),
    };
    let workers = args.concurrency.min(args.requests);
    // Shard targets (just `--addr` without `--shards`) and, since the
    // mix is fixed, each mix entry's target precomputed off the ring.
    let targets: Vec<String> = if args.shards.is_empty() {
        vec![args.addr.clone()]
    } else {
        args.shards.clone()
    };
    let ring = HashRing::new(&targets);
    let route: Vec<usize> = mix
        .iter()
        .map(|(method, params)| {
            let params = Value::parse(params).unwrap_or_else(|_| Value::Object(Vec::new()));
            ring.shard_for(route_key(method, &params))
        })
        .collect();
    let started = Instant::now();
    let tallies: Vec<io::Result<WorkerTally>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let mix = &mix;
                let targets = &targets;
                let route = &route;
                // Split the request budget evenly; early workers take
                // the remainder.
                let share = args.requests / workers + usize::from(w < args.requests % workers);
                s.spawn(move || -> io::Result<WorkerTally> {
                    let mut tally = WorkerTally::default();
                    // One lazily opened connection per shard.
                    let mut conns: Vec<Option<(TcpStream, LineReader)>> =
                        (0..targets.len()).map(|_| None).collect();
                    for i in 0..share {
                        let k = (w + i) % mix.len();
                        let (method, params) = &mix[k];
                        let t = route[k];
                        if conns[t].is_none() {
                            conns[t] = Some(connect(&targets[t])?);
                        }
                        let (writer, reader) = conns[t].as_mut().expect("just connected");
                        let sw = Instant::now();
                        let response = roundtrip(writer, reader, i, method, params)?;
                        tally.latencies_us.push(sw.elapsed().as_micros() as u64);
                        classify(&response, &mut tally);
                    }
                    Ok(tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });
    let elapsed = started.elapsed();
    let mut all = WorkerTally::default();
    for tally in tallies {
        let tally = tally?;
        all.latencies_us.extend(tally.latencies_us);
        all.ok += tally.ok;
        all.shed += tally.shed;
        all.errors += tally.errors;
    }
    all.latencies_us.sort_unstable();
    let total = all.latencies_us.len();
    if !args.quiet {
        println!(
            "lim-client: {total} requests over {workers} connections in {:.1} ms \
             ({:.0} req/s)",
            elapsed.as_secs_f64() * 1e3,
            total as f64 / elapsed.as_secs_f64().max(1e-9),
        );
        println!(
            "  ok {} | shed {} | errors {}",
            all.ok, all.shed, all.errors
        );
        println!(
            "  latency µs: p50 {} | p90 {} | p99 {} | max {}",
            percentile(&all.latencies_us, 0.50),
            percentile(&all.latencies_us, 0.90),
            percentile(&all.latencies_us, 0.99),
            all.latencies_us.last().copied().unwrap_or(0),
        );
    }
    if let Some(path) = &args.latency_export {
        export_latency(path, &all.latencies_us)?;
        if !args.quiet {
            println!("  latency rows written to {path}");
        }
    }
    Ok(all.errors == 0)
}

fn main() -> ExitCode {
    let mut args = parse_args();
    if let Some(path) = args.source_file.take() {
        match inject_source(&args.params, &path) {
            Ok(p) => args.params = p,
            Err(e) => {
                eprintln!("lim-client: --source-file {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let outcome = if args.concurrency > 0 && args.requests > 0 {
        load_generator(&args)
    } else {
        match args.method.as_deref() {
            Some(method) => single_shot(&args, method),
            // --telemetry-export alone is a valid single-purpose run.
            None if args.telemetry_export.is_some() => Ok(true),
            None => usage(),
        }
    };
    let outcome = outcome.and_then(|ok| {
        if let Some(path) = &args.telemetry_export {
            // With --shards, telemetry comes from the first shard (the
            // export file holds one server's worth of lines).
            let addr = args.shards.first().unwrap_or(&args.addr);
            export_telemetry(addr, path)?;
            if !args.quiet {
                println!("telemetry written to {path}");
            }
        }
        Ok(ok)
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("lim-client: {e}");
            ExitCode::FAILURE
        }
    }
}
