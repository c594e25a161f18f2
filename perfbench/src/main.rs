//! `perfbench`: the over-the-wire benchmark for `lim-serve`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload compile_cold|golden_sweep|repeat_mix --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. It builds the release `lim-serve` (and
//! `obs_check`) from source, spawns the daemon as a child on a loopback
//! port with a fresh cache directory, and drives it with a closed loop
//! of two client connections for `--seconds`, checking every reply.
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1`
//! it runs the same served phase, then replays the seeded requests
//! in-process under spans and prints the per-layer metrics. The last
//! stdout line is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (name → value and unit); the line before it records the run
//! context. See `perfbench/README.md` for the metric definitions.

mod client;
mod gen;
mod replay;

use client::{block_of, closed_loop, infer_summary, Budget, Daemon, Phase};
use gen::{Expect, Req, Workload};
use lim_obs::json::{self, Value};
use replay::{ReqFacts, State, Tracer, ROOT};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// Daemon start-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Client connections: one per core of the 2-core reference box.
const CONNS: usize = 2;

/// End-to-end metrics, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("throughput_rps", "req/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("success_rate", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("wirelength_um", "um"),
    ("fmax_mhz", "MHz"),
];

/// Per-layer metrics, printed with `--trace 1`. Times are self time per
/// replayed request; counts are per replayed request or block.
const PER_LAYER: [(&str, &str); 45] = [
    ("rtl.parse_ms", "ms"),
    ("rtl.infer_ms", "ms"),
    ("rtl.lower_ms", "ms"),
    ("rtl.emit_ms", "ms"),
    ("rtl.map_ms", "ms"),
    ("rtl.gates", "count"),
    ("rtl.emit_kb", "KiB"),
    ("physical.floorplan_ms", "ms"),
    ("physical.place_ms", "ms"),
    ("physical.route_ms", "ms"),
    ("physical.sta_ms", "ms"),
    ("physical.clock_tree_ms", "ms"),
    ("physical.power_ms", "ms"),
    ("physical.place_moves", "count"),
    ("physical.analytic_iters", "count"),
    ("physical.legalize_displacement_um", "um"),
    ("core.dse_ms", "ms"),
    ("core.lib_register_ms", "ms"),
    ("core.generate_ms", "ms"),
    ("core.unattributed_ms", "ms"),
    ("serve.decode_ms", "ms"),
    ("serve.memo_lookup_ms", "ms"),
    ("serve.library_sync_ms", "ms"),
    ("serve.render_ms", "ms"),
    ("serve.cache_write_ms", "ms"),
    ("serve.wire_ms", "ms"),
    ("serve.memo_hit_ratio", "ratio"),
    ("serve.disk_hit_ratio", "ratio"),
    ("serve.disk_read_ms", "ms"),
    ("serve.memo_evictions", "count"),
    ("serve.response_kb", "KiB"),
    ("serve.shed", "count"),
    ("brick.compile_ms", "ms"),
    ("brick.library_hit_ratio", "ratio"),
    ("golden.solve_ms", "ms"),
    ("golden.panel_occupancy", "ratio"),
    ("golden.sims", "count"),
    ("golden.out_of_band", "count"),
    ("golden.solve_share", "ratio"),
    ("layers.rtl_physical_share", "ratio"),
    ("layers.rtl_physical_share_min", "ratio"),
    ("replay.request_ms", "ms"),
    ("replay.requests", "count"),
    ("trace.overhead_pct", "%"),
    ("error_rate", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => args.trace = value.parse::<u8>().map_err(bad)? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Paths and settings shared by every phase of one run.
struct Env {
    root: PathBuf,
    target: PathBuf,
    work: PathBuf,
    serve_bin: PathBuf,
    threads: usize,
}

impl Drop for Env {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.work);
    }
}

/// Builds the release daemon and `obs_check` from the checkout's own
/// sources into the shared target directory.
fn build(root: &Path) -> Result<(), String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .current_dir(root)
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "lim-serve", "--bin", "lim-serve"])
        .args(["-p", "lim-obs", "--bin", "obs_check"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("building lim-serve failed: {status}"))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((context, result)) => {
            println!("{context}");
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One metric value with the number of samples behind it.
struct Metric {
    value: f64,
    samples: usize,
}

/// Requests sent, requests failed, and the failure messages.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    failures: Vec<String>,
}

impl Tally {
    fn add(&mut self, phase: &Phase) {
        self.attempted += phase.samples.len();
        self.failed += phase.failed();
        self.failures.extend(phase.failures.iter().cloned());
    }

    fn fail(&mut self, why: String) {
        self.failures.push(why);
    }
}

fn run(args: &Args) -> Result<(String, String), String> {
    let wl = Workload::new(&args.workload, args.seed).ok_or(format!(
        "unknown workload {:?}; expected compile_cold, golden_sweep or repeat_mix",
        args.workload
    ))?;
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    build(&root)?;
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("target"),
    };
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let env = Env {
        work: target.join("perfbench").join(format!(
            "{}-{}-{}",
            args.workload,
            args.seed,
            std::process::id()
        )),
        serve_bin: target.join("release").join("lim-serve"),
        root,
        target,
        threads,
    };
    let _ = std::fs::remove_dir_all(&env.work);
    std::fs::create_dir_all(&env.work).map_err(|e| format!("work dir: {e}"))?;

    let keep = if args.trace { replay_count(&wl) } else { 0 };
    let mut tally = Tally::default();
    let served = serve(&env, &wl, args.seconds, keep, &mut tally)?;
    let metrics = if args.trace {
        per_layer(&env, args, &wl, &served, &mut tally)?
    } else {
        end_to_end(&served, &tally)
    };
    for f in tally.failures.iter().take(20) {
        eprintln!("perfbench: check failed: {f}");
    }
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut rendered = Vec::new();
    let mut samples = Vec::new();
    for (name, unit) in table {
        let m = metrics
            .get(name)
            .ok_or(format!("metric {name} was not computed"))?;
        if !m.value.is_finite() {
            return Err(format!("metric {name} is not finite: {}", m.value));
        }
        rendered.push(format!(
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            m.value
        ));
        samples.push(((*name).to_owned(), Value::Number(m.samples as f64)));
    }
    let correct = tally.failures.is_empty();
    let result = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.attempted.max(1),
        tally.failed.max(usize::from(!correct)),
        rendered.join(",")
    );
    let context = Value::Object(vec![(
        "context".into(),
        Value::Object(vec![
            ("workload".into(), Value::String(args.workload.clone())),
            ("seed".into(), Value::Number(args.seed as f64)),
            ("seconds".into(), Value::Number(args.seconds as f64)),
            ("trace".into(), Value::Bool(args.trace)),
            ("nproc".into(), Value::Number(threads as f64)),
            ("lim_par_threads".into(), Value::Number(threads as f64)),
            ("connections".into(), Value::Number(CONNS as f64)),
            ("git_revision".into(), git_revision(&env.root)),
            (
                "source_digest".into(),
                Value::String(source_digest(&env.root)),
            ),
            ("samples".into(), Value::Object(samples)),
        ]),
    )]);
    Ok((json::render(&context), result))
}

/// What the served phases observed.
struct Served {
    setups: Vec<f64>,
    quality: Vec<(f64, f64)>,
    measured: Phase,
    before: Value,
    after: Value,
    peak_rss_mib: f64,
    primed: Vec<String>,
    cache_dir: PathBuf,
}

/// Requests the traced run keeps and replays in-process.
fn replay_count(wl: &Workload) -> usize {
    match wl {
        Workload::CompileCold(_) => 24,
        Workload::GoldenSweep(_) => 6,
        Workload::RepeatMix(_) => 3000,
    }
}

/// `(wirelength_um, fmax_mhz)` of every quality-set reply.
fn quality_figures(set: &[Req], phase: &Phase) -> Result<Vec<(f64, f64)>, String> {
    if phase.kept.len() != set.len() {
        return Err("quality set incomplete".into());
    }
    set.iter()
        .zip(&phase.kept)
        .map(|(req, (_, result))| {
            if req.method == "rtl.infer" {
                let (summary, _) = infer_summary(result)?;
                block_of(summary.get("report").ok_or("no report")?)
            } else {
                block_of(&Value::parse(result).map_err(|e| e.to_string())?)
            }
        })
        .collect()
}

/// Waits until a daemon booted on a populated cache dir has recompiled
/// every persisted library key.
fn wait_rewarm(daemon: &Daemon, dir: &Path) -> Result<(), String> {
    let keys = std::fs::read_dir(dir.join("lib"))
        .map_err(|e| format!("cache dir: {e}"))?
        .filter(|e| {
            e.as_ref()
                .is_ok_and(|e| e.path().extension().is_some_and(|x| x == "key"))
        })
        .count() as f64;
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let stats = daemon.stats()?;
        if stat(&stats, &["library", "entries"]) >= keys {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err("disk re-warm did not finish within 60 s".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The served phases: priming (`repeat_mix`), [`SETUPS`] timed
/// start-ups each ending with the quality set, then the measured
/// closed loop on the last daemon.
fn serve(
    env: &Env,
    wl: &Workload,
    seconds: u64,
    keep: usize,
    tally: &mut Tally,
) -> Result<Served, String> {
    let quality = gen::quality_set();
    let shared_dir = env.work.join("cache");
    let mut primed = Vec::new();
    if let Workload::RepeatMix(rm) = wl {
        let daemon = Daemon::spawn(&env.serve_bin, &shared_dir, env.threads)?;
        let n = rm.population.len();
        let phase = closed_loop(
            daemon.addr,
            CONNS,
            Budget::Count(n),
            &|i| rm.population[i].clone(),
            &[],
            n,
        );
        daemon.shutdown()?;
        tally.add(&phase);
        if phase.kept.len() != n {
            return Err("priming did not complete".into());
        }
        primed = phase.kept.into_iter().map(|(_, r)| r).collect();
    }
    let repeat = matches!(wl, Workload::RepeatMix(_));
    // In repeat_mix the quality set is the head of the population, so
    // its replies must be the primed bytes.
    let quality_req = |i: usize| -> Req {
        let mut req = quality[i].clone();
        if repeat {
            req.expect = Expect::Primed(i);
        }
        req
    };
    let mut setups = Vec::new();
    let mut figures: Option<Vec<(f64, f64)>> = None;
    let mut last = None;
    let mut cache_dir = shared_dir.clone();
    for k in 0..SETUPS {
        if !repeat {
            cache_dir = env.work.join(format!("cache-{k}"));
        }
        let start = Instant::now();
        let daemon = Daemon::spawn(&env.serve_bin, &cache_dir, env.threads)?;
        if repeat {
            wait_rewarm(&daemon, &cache_dir)?;
        }
        let phase = closed_loop(
            daemon.addr,
            CONNS,
            Budget::Count(quality.len()),
            &quality_req,
            &primed,
            quality.len(),
        );
        setups.push(start.elapsed().as_secs_f64());
        tally.add(&phase);
        let figs = quality_figures(&quality, &phase)?;
        if figures.as_ref().is_some_and(|f| *f != figs) {
            tally.fail("quality-set figures differ between start-ups".into());
        }
        figures = Some(figs);
        if k + 1 < SETUPS {
            daemon.shutdown()?;
        } else {
            last = Some(daemon);
        }
    }
    let daemon = last.expect("at least one start-up");
    let before = daemon.stats()?;
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let measured = closed_loop(
        daemon.addr,
        CONNS,
        Budget::Until(deadline),
        &|i| wl.get(i),
        &primed,
        keep,
    );
    let after = daemon.stats()?;
    let peak_rss_mib = daemon.peak_rss_mib()?;
    daemon.shutdown()?;
    tally.add(&measured);
    Ok(Served {
        setups,
        quality: figures.unwrap_or_default(),
        measured,
        before,
        after,
        peak_rss_mib,
        primed,
        cache_dir,
    })
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of sorted values.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn end_to_end(s: &Served, tally: &Tally) -> BTreeMap<&'static str, Metric> {
    let mut lat: Vec<f64> = s
        .measured
        .samples
        .iter()
        .filter(|x| x.ok)
        .map(|x| x.latency.as_secs_f64() * 1e3)
        .collect();
    lat.sort_by(f64::total_cmp);
    if lat.is_empty() {
        lat.push(f64::NAN);
    }
    let p95 = percentile(&lat, 0.95);
    let tail = lat.iter().filter(|&&x| x > p95).count();
    if tail < 10 {
        eprintln!("perfbench: only {tail} samples above p95; lengthen --seconds");
    }
    let n = s.measured.samples.len();
    let q = s.quality.len();

    let m = |value, samples| Metric { value, samples };
    BTreeMap::from([
        ("setup_s", m(median(s.setups.clone()), s.setups.len())),
        (
            "throughput_rps",
            m(n as f64 / s.measured.elapsed.as_secs_f64(), n),
        ),
        ("latency_p50_ms", m(percentile(&lat, 0.50), lat.len())),
        ("latency_p95_ms", m(p95, lat.len())),
        (
            "success_rate",
            m(
                1.0 - tally.failed as f64 / tally.attempted.max(1) as f64,
                tally.attempted,
            ),
        ),
        ("peak_rss_mb", m(s.peak_rss_mib, 1)),
        ("wirelength_um", m(s.quality.iter().map(|f| f.0).sum(), q)),
        (
            "fmax_mhz",
            m(
                (s.quality.iter().map(|f| f.1.ln()).sum::<f64>() / q.max(1) as f64).exp(),
                q,
            ),
        ),
    ])
}

/// A number at `path` in a stats object (0 when absent).
fn stat(v: &Value, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(v, |v, k| v.get(k))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One replay pass over the first `count` measured requests, on fresh
/// service state. Returns the tracer and each request's facts; a reply
/// that differs from the served bytes is a failure.
fn replay_pass(
    env: &Env,
    wl: &Workload,
    s: &Served,
    traced: bool,
    pass: usize,
    tally: &mut Tally,
) -> Result<(Tracer, Vec<ReqFacts>), String> {
    let repeat = matches!(wl, Workload::RepeatMix(_));
    let dir = if repeat {
        s.cache_dir.clone()
    } else {
        env.work.join(format!("replay-{pass}"))
    };
    let mut state = State::new(&dir)?;
    if !repeat {
        // The daemon answered the quality set before the measured phase.
        let mut off = Tracer::new(false);
        for (i, q) in gen::quality_set().iter().enumerate() {
            state.replay(
                &mut off,
                i as u64,
                &q.line(i as u64),
                &mut ReqFacts::default(),
            )?;
        }
    }
    let count = if repeat {
        replay_count(wl)
    } else {
        s.measured.kept.len()
    };
    let mut tracer = Tracer::new(traced);
    let mut facts = Vec::with_capacity(count);
    for i in 0..count {
        let req = wl.get(i);
        let mut f = ReqFacts {
            method: req.method,
            ..ReqFacts::default()
        };
        let got = state.replay(&mut tracer, i as u64, &req.line(i as u64), &mut f)?;
        let want = match req.expect {
            Expect::Primed(idx) => s.primed.get(idx),
            _ => s.measured.kept.get(i).filter(|k| k.0 == i).map(|k| &k.1),
        };
        if want != Some(&got) {
            tally.fail(format!(
                "replayed reply {i} ({}) differs from the served one",
                req.method
            ));
        }
        facts.push(f);
    }
    Ok((tracer, facts))
}

fn per_layer(
    env: &Env,
    args: &Args,
    wl: &Workload,
    s: &Served,
    tally: &mut Tally,
) -> Result<BTreeMap<&'static str, Metric>, String> {
    let (b, a) = (&s.before, &s.after);
    let delta = |path: &[&str]| stat(a, path) - stat(b, path);
    let n_measured = s.measured.samples.len();

    // Served-side figures over the measured phase.
    let mut server_us = 0.0;
    let mut server_n = 0.0;
    for m in wl.methods() {
        let (ca, cb) = (
            stat(a, &["endpoints", m, "count"]),
            stat(b, &["endpoints", m, "count"]),
        );
        server_us +=
            ca * stat(a, &["endpoints", m, "mean_us"]) - cb * stat(b, &["endpoints", m, "mean_us"]);
        server_n += ca - cb;
    }
    let client_ms = s
        .measured
        .samples
        .iter()
        .map(|x| x.latency.as_secs_f64() * 1e3)
        .sum::<f64>()
        / n_measured.max(1) as f64;
    let bytes = s.measured.samples.iter().map(|x| x.bytes).sum::<usize>() as f64;

    // A discarded warm-up pass, then untraced and traced twins in
    // ABBA order so drift cancels; the last traced pass is kept.
    let mut untraced = Duration::ZERO;
    let mut traced = Duration::ZERO;
    let mut last = None;
    for (pass, on) in [false, false, true, true, false].into_iter().enumerate() {
        let (tracer, facts) = replay_pass(env, wl, s, on, pass, tally)?;
        let total: Duration = facts.iter().map(|f| f.total).sum();
        if pass == 0 {
            continue;
        }
        if on {
            traced += total;
            last = Some((tracer, facts));
        } else {
            untraced += total;
        }
    }
    let (tracer, facts) = last.expect("two traced passes");

    // Spans out as lim-obs-v1 trace lines, validated by obs_check.
    let methods: BTreeMap<u64, &'static str> = facts
        .iter()
        .enumerate()
        .map(|(i, f)| (i as u64, f.method))
        .collect();
    let trace_file = env
        .target
        .join("perfbench")
        .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    std::fs::write(&trace_file, tracer.obs_lines(&methods)).map_err(|e| e.to_string())?;
    let check = Command::new(env.target.join("release").join("obs_check"))
        .arg(&trace_file)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run obs_check: {e}"))?;
    if !check.success() {
        tally.fail(format!("obs_check rejected {}", trace_file.display()));
    }

    // Self time per layer, per replayed request.
    let n = facts.len();
    let per_req = |x: f64| x / n.max(1) as f64;
    let mut self_ms: BTreeMap<&str, f64> = BTreeMap::new();
    let mut req_rp: BTreeMap<u64, f64> = BTreeMap::new();
    for (span, own) in tracer.spans.iter().zip(tracer.self_times()) {
        let ms = own.as_secs_f64() * 1e3;
        *self_ms.entry(span.name).or_default() += ms;
        if span.name.starts_with("rtl.") || span.name.starts_with("physical.") {
            *req_rp.entry(span.request).or_default() += ms;
        }
    }
    let root_ms: Vec<f64> = tracer
        .spans
        .iter()
        .filter(|sp| sp.name == ROOT)
        .map(|sp| (sp.end - sp.start).as_secs_f64() * 1e3)
        .collect();
    let root_total: f64 = root_ms.iter().sum();
    let shares: Vec<f64> = root_ms
        .iter()
        .enumerate()
        .map(|(i, &t)| ratio(req_rp.get(&(i as u64)).copied().unwrap_or(0.0), t))
        .collect();
    let layer = |name: &str| per_req(self_ms.get(name).copied().unwrap_or(0.0));
    let mean_of = |f: &dyn Fn(&ReqFacts) -> Option<f64>| {
        let xs: Vec<f64> = facts.iter().filter_map(f).collect();
        ratio(xs.iter().sum(), xs.len() as f64)
    };
    let compile_n = facts.iter().filter(|f| f.place.is_some()).count();
    let infer_n = facts.iter().filter(|f| f.gates.is_some()).count();

    let mut out: BTreeMap<&'static str, Metric> = BTreeMap::new();
    let mut put = |name: &'static str, value: f64, samples: usize| {
        out.insert(name, Metric { value, samples });
    };
    for (name, _) in PER_LAYER {
        if let Some(span) = name.strip_suffix("_ms") {
            put(name, layer(span), n);
        }
    }
    put("core.unattributed_ms", layer(ROOT), n);
    put(
        "rtl.gates",
        mean_of(&|f| f.gates.map(|g| g as f64)),
        infer_n,
    );
    put(
        "rtl.emit_kb",
        mean_of(&|f| f.emit_bytes.map(|b| b as f64 / 1024.0)),
        infer_n,
    );
    put(
        "physical.place_moves",
        mean_of(&|f| f.place.map(|p| p.0 as f64)),
        compile_n,
    );
    put(
        "physical.analytic_iters",
        mean_of(&|f| f.place.map(|p| p.1 as f64)),
        compile_n,
    );
    put(
        "physical.legalize_displacement_um",
        mean_of(&|f| f.place.map(|p| p.2)),
        compile_n,
    );
    put(
        "serve.wire_ms",
        client_ms - ratio(server_us, server_n) / 1e3,
        n_measured,
    );
    put(
        "serve.memo_hit_ratio",
        ratio(
            delta(&["cache", "hits"]),
            delta(&["cache", "hits"]) + delta(&["cache", "misses"]),
        ),
        n_measured,
    );
    put(
        "serve.disk_hit_ratio",
        ratio(
            delta(&["disk", "hits"]),
            delta(&["disk", "hits"]) + delta(&["disk", "misses"]),
        ),
        n_measured,
    );
    put(
        "serve.memo_evictions",
        delta(&["cache", "evictions"]),
        n_measured,
    );
    put(
        "serve.response_kb",
        ratio(bytes / 1024.0, n_measured as f64),
        n_measured,
    );
    put("serve.shed", stat(a, &["shed"]), n_measured);
    put(
        "brick.library_hit_ratio",
        ratio(
            delta(&["library", "hits"]),
            delta(&["library", "hits"]) + delta(&["library", "misses"]),
        ),
        n_measured,
    );
    put(
        "golden.panel_occupancy",
        ratio(
            delta(&["golden", "sims"]),
            delta(&["golden", "panel_groups"]),
        ),
        n_measured,
    );
    put(
        "golden.sims",
        ratio(delta(&["golden", "sims"]), delta(&["golden", "batches"])),
        n_measured,
    );
    put(
        "golden.out_of_band",
        s.measured.out_of_band as f64,
        n_measured,
    );
    put(
        "golden.solve_share",
        ratio(
            self_ms.get("golden.solve").copied().unwrap_or(0.0),
            root_total,
        ),
        n,
    );
    put(
        "layers.rtl_physical_share",
        ratio(req_rp.values().fold(0.0, |acc, x| acc + x), root_total),
        n,
    );
    put(
        "layers.rtl_physical_share_min",
        shares
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
            .clamp(0.0, 1.0),
        n,
    );
    put("replay.request_ms", per_req(root_total), n);
    put("replay.requests", n as f64, n);
    put(
        "trace.overhead_pct",
        100.0 * (traced.as_secs_f64() - untraced.as_secs_f64()) / untraced.as_secs_f64(),
        2 * n,
    );
    put(
        "error_rate",
        ratio(tally.failed as f64, tally.attempted as f64),
        tally.attempted,
    );
    Ok(out)
}

/// `git rev-parse HEAD` of the checkout, or null outside a repository.
fn git_revision(root: &Path) -> Value {
    Command::new("git")
        .current_dir(root)
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or(Value::Null, |o| {
            Value::String(String::from_utf8_lossy(&o.stdout).trim().to_owned())
        })
}

/// FNV-1a over the workspace manifests and every source file under
/// `crates/`, in path order: identifies the measured code where no git
/// revision is available.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files[2..].sort();
    let mut bytes = Vec::new();
    for f in files {
        bytes.extend_from_slice(
            f.strip_prefix(root)
                .unwrap_or(&f)
                .to_string_lossy()
                .as_bytes(),
        );
        bytes.extend(std::fs::read(&f).unwrap_or_default());
    }
    format!("{:016x}", lim_serve::protocol::fnv1a(&bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let v = Value::parse(&text).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            v.get(key)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Value::as_str).unwrap().to_owned();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.95), 95.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
