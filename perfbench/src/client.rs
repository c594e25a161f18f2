//! The over-the-wire side: the `lim-serve` child process, closed-loop
//! client connections, and the cheap per-reply checks.

use crate::gen::{Expect, Req};
use lim_obs::json::Value;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One client connection speaking `lim-serve-v1`.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A hung daemon fails the run instead of hanging it.
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            reader: BufReader::with_capacity(1 << 16, stream.try_clone()?),
            writer: stream,
            buf: Vec::with_capacity(1 << 16),
        })
    }

    /// Sends one request line and reads its reply line. The latency runs
    /// from the write to the reply's last byte.
    pub fn call(&mut self, line: &str) -> io::Result<(&str, Duration)> {
        self.buf.clear();
        let start = Instant::now();
        self.writer.write_all(line.as_bytes())?;
        self.reader.read_until(b'\n', &mut self.buf)?;
        let latency = start.elapsed();
        if self.buf.pop() != Some(b'\n') {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-reply",
            ));
        }
        let text = std::str::from_utf8(&self.buf)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        Ok((text, latency))
    }
}

/// The members of a reply line the checks look at, sliced without
/// parsing the (possibly megabyte) result.
pub struct Reply<'a> {
    pub line: &'a str,
    pub ok: bool,
    pub cached: bool,
    pub result: Option<&'a str>,
}

impl<'a> Reply<'a> {
    pub fn split(line: &'a str) -> Reply<'a> {
        let head = line.find(",\"ok\":").map_or("", |i| &line[i..]);
        Reply {
            line,
            ok: head.starts_with(",\"ok\":true"),
            cached: head.starts_with(",\"ok\":true,\"cached\":true"),
            result: lim_serve::protocol::result_slice(line),
        }
    }

    /// `code message` of an error reply.
    fn error(&self) -> String {
        Value::parse(self.line)
            .ok()
            .and_then(|v| v.get("error").cloned())
            .map_or_else(
                || format!("malformed reply: {:.120}", self.line),
                |e| {
                    format!(
                        "{} {}",
                        e.get("code").and_then(Value::as_f64).unwrap_or(0.0),
                        e.get("message").and_then(Value::as_str).unwrap_or("")
                    )
                },
            )
    }
}

fn num(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("reply lacks numeric `{key}`"))
}

/// `(wirelength_um, fmax_mhz)` of a rendered block report; fails
/// unless fmax is positive.
pub fn block_of(report: &Value) -> Result<(f64, f64), String> {
    let fmax = num(report, "fmax_mhz")?;
    if !(fmax > 0.0 && fmax.is_finite()) {
        return Err(format!("fmax_mhz {fmax} is not positive"));
    }
    Ok((num(report, "wirelength_um")?, fmax))
}

/// The summary members of an `rtl.infer` result (everything ahead of
/// the Verilog text) and the Verilog part, split without parsing it.
pub fn infer_summary(result: &str) -> Result<(Value, &str), String> {
    const VERILOG: &str = ",\"verilog\":";
    let cut = result
        .find(VERILOG)
        .ok_or("rtl.infer reply lacks verilog")?;
    let summary = Value::parse(&format!("{}}}", &result[..cut]))
        .map_err(|e| format!("rtl.infer summary: {e}"))?;
    Ok((summary, &result[cut..]))
}

/// Checks one reply against what its request expects and returns how
/// many golden entries fell outside Table 1's 10% / 6% / 8% error
/// bands. `primed` holds the priming replies a `repeat_mix` pick must
/// reproduce.
pub fn check(req: &Req, reply: &Reply, primed: &[String]) -> Result<u64, String> {
    if !reply.ok {
        return Err(reply.error());
    }
    let result = reply.result.ok_or("success reply without a result")?;
    let mut out_of_band = 0;
    match &req.expect {
        Expect::Infer { module, mems } => {
            let (summary, verilog) = infer_summary(result)?;
            if summary.get("module").and_then(Value::as_str) != Some(module) {
                return Err(format!("module name is not {module}"));
            }
            let plans = summary
                .get("memories")
                .and_then(Value::as_array)
                .ok_or("reply lacks memories")?;
            if plans.len() != mems.len() {
                return Err(format!("{} memories, expected {}", plans.len(), mems.len()));
            }
            for (plan, &(words, lanes)) in plans.iter().zip(mems) {
                let (bw, stack) = (num(plan, "brick_words")?, num(plan, "stack")?);
                if bw * stack != words as f64 || num(plan, "words")? != words as f64 {
                    return Err(format!("brick_words {bw} x stack {stack} != {words} words"));
                }
                let entries = plan.get("entries").and_then(Value::as_array);
                let lane_list = plan.get("lanes").and_then(Value::as_array);
                if entries.map(<[Value]>::len) != Some(lanes)
                    || lane_list.map(<[Value]>::len) != Some(lanes)
                {
                    return Err(format!("expected one entry per lane ({lanes})"));
                }
            }
            block_of(summary.get("report").ok_or("reply lacks report")?)?;
            if !verilog.contains(&format!("module {module} (")) {
                return Err(format!("verilog lacks `module {module} (`"));
            }
        }
        Expect::Flow { name } => {
            let v = Value::parse(result).map_err(|e| format!("flow.run reply: {e}"))?;
            if v.get("name").and_then(Value::as_str) != Some(name) {
                return Err(format!("design name is not {name}"));
            }
            block_of(&v)?;
        }
        Expect::Golden { entries } => {
            let v = Value::parse(result).map_err(|e| format!("batch reply: {e}"))?;
            let results = v
                .get("results")
                .and_then(Value::as_array)
                .ok_or("batch reply lacks results")?;
            if results.len() != *entries {
                return Err(format!(
                    "{} batch entries, expected {entries}",
                    results.len()
                ));
            }
            for r in results {
                if r.get("ok") != Some(&Value::Bool(true)) {
                    return Err(format!("golden entry failed: {}", lim_obs::json::render(r)));
                }
                let err = r
                    .get("result")
                    .and_then(|x| x.get("error"))
                    .ok_or("golden entry lacks error")?;
                let (d, re, we) = (
                    num(err, "delay")?,
                    num(err, "read_energy")?,
                    num(err, "write_energy")?,
                );
                if !(d.is_finite() && re.is_finite() && we.is_finite()) {
                    return Err("golden entry has non-finite errors".into());
                }
                if d.abs() >= 0.10 || re.abs() >= 0.06 || we.abs() >= 0.08 {
                    out_of_band += 1;
                }
            }
        }
        Expect::Ok => {}
        Expect::Primed(idx) => {
            if !reply.cached {
                return Err("repeat_mix reply not flagged cached".into());
            }
            if primed.get(*idx).map(String::as_str) != Some(result) {
                return Err(format!("reply differs from priming reply {idx}"));
            }
        }
    }
    Ok(out_of_band)
}

/// When a closed-loop phase stops.
#[derive(Clone, Copy)]
pub enum Budget {
    /// Send exactly this many requests.
    Count(usize),
    /// Keep sending until this instant; requests in flight complete.
    Until(Instant),
}

/// One completed request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub latency: Duration,
    pub bytes: usize,
    pub ok: bool,
}

/// Everything one closed-loop phase observed.
#[derive(Debug, Default)]
pub struct Phase {
    pub samples: Vec<Sample>,
    pub elapsed: Duration,
    /// Result bytes of every request whose index is below `keep`.
    pub kept: Vec<(usize, String)>,
    pub out_of_band: u64,
    pub failures: Vec<String>,
}

impl Phase {
    pub fn failed(&self) -> usize {
        self.samples.iter().filter(|s| !s.ok).count()
    }
}

/// Drives `conns` closed-loop clients: each sends its next request
/// only after the previous reply arrived. Request `i` is `gen(i)`.
pub fn closed_loop(
    addr: SocketAddr,
    conns: usize,
    budget: Budget,
    gen: &(dyn Fn(usize) -> Req + Sync),
    primed: &[String],
    keep: usize,
) -> Phase {
    let next = AtomicUsize::new(0);
    let phase = Mutex::new(Phase::default());
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..conns {
            s.spawn(|| {
                let record = |f: &dyn Fn(&mut Phase)| f(&mut phase.lock().expect("phase lock"));
                let mut conn = match Conn::connect(addr) {
                    Ok(c) => c,
                    Err(e) => {
                        record(&|p| p.failures.push(format!("connect: {e}")));
                        return;
                    }
                };
                loop {
                    let i = match budget {
                        Budget::Count(n) => {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            i
                        }
                        Budget::Until(t) => {
                            if Instant::now() >= t {
                                break;
                            }
                            next.fetch_add(1, Ordering::Relaxed)
                        }
                    };
                    let req = gen(i);
                    let line = req.line(i as u64);
                    let (latency, bytes, outcome, kept) = match conn.call(&line) {
                        Ok((text, latency)) => {
                            let reply = Reply::split(text);
                            let kept = (i < keep).then(|| reply.result.unwrap_or("").to_owned());
                            (latency, text.len(), check(&req, &reply, primed), kept)
                        }
                        Err(e) => (Duration::ZERO, 0, Err(format!("transport: {e}")), None),
                    };
                    let broken = outcome.as_ref().is_err_and(|e| e.starts_with("transport"));
                    let mut p = phase.lock().expect("phase lock");
                    p.samples.push(Sample {
                        latency,
                        bytes,
                        ok: outcome.is_ok(),
                    });
                    match outcome {
                        Ok(n) => p.out_of_band += n,
                        Err(e) => p
                            .failures
                            .push(format!("request {i} ({}): {e}", req.method)),
                    }
                    if let Some(k) = kept {
                        p.kept.push((i, k));
                    }
                    drop(p);
                    if broken {
                        break;
                    }
                }
            });
        }
    });
    let mut phase = phase.into_inner().expect("phase lock");
    phase.elapsed = start.elapsed();
    phase.kept.sort_by_key(|k| k.0);
    phase
}

/// A `lim-serve` child process on an ephemeral loopback port.
pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
}

impl Daemon {
    /// Starts the daemon on `cache_dir` and waits until it answers.
    pub fn spawn(bin: &Path, cache_dir: &Path, threads: usize) -> Result<Daemon, String> {
        let addr_file = cache_dir.with_extension("addr");
        let _ = std::fs::remove_file(&addr_file);
        let child = Command::new(bin)
            .arg("--port")
            .arg("0")
            .arg("--cache-dir")
            .arg(cache_dir)
            .arg("--addr-file")
            .arg(&addr_file)
            .arg("--quiet")
            .env("LIM_PAR_THREADS", threads.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut daemon = Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                if let Ok(addr) = text.trim().parse() {
                    daemon.addr = addr;
                    if daemon.request("server.ping", "{}").is_ok() {
                        return Ok(daemon);
                    }
                }
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("lim-serve exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("lim-serve did not come up within 30 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// One request on a fresh connection; returns the result bytes.
    pub fn request(&self, method: &str, params: &str) -> Result<String, String> {
        let mut conn = Conn::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        let line = format!("{{\"id\":0,\"method\":\"{method}\",\"params\":{params}}}\n");
        let (text, _) = conn.call(&line).map_err(|e| format!("{method}: {e}"))?;
        let reply = Reply::split(text);
        match (reply.ok, reply.result) {
            (true, Some(r)) => Ok(r.to_owned()),
            _ => Err(format!("{method}: {}", reply.error())),
        }
    }

    pub fn stats(&self) -> Result<Value, String> {
        Value::parse(&self.request("server.stats", "{}")?).map_err(|e| format!("stats: {e}"))
    }

    /// Peak resident set (`VmHWM`) of the daemon, in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("reading daemon status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in daemon status".into())
    }

    /// Asks the daemon to drain and exit. A daemon that is still alive
    /// ten seconds later is killed and reported as a failure.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = self.request("server.shutdown", "{}");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return asked.map(drop),
                Ok(Some(status)) => return Err(format!("lim-serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("lim-serve outlived server.shutdown; killed".into());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Reached on error paths: never leave a daemon behind.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
