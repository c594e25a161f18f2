//! Cross-crate observability tests: a full LimFlow run with `lim-obs`
//! enabled must emit the documented stage-span tree (floorplan, place,
//! route, STA, power under `physical`) with nonzero counters, the
//! captured report must serialize to schema-valid `lim-obs-v1` JSON
//! lines, a rolling window's lifetime histogram must hold identical
//! bucket counts regardless of how many workers recorded into it, and
//! the serve layer's connection accounting must balance.

use lim::flow::LimFlow;
use lim::sram::SramConfig;
use lim_obs::{Histogram, Report, RollingWindow};

/// Serializes tests that mutate `LIM_PAR_THREADS`: the process
/// environment is global, so concurrent test threads would race (same
/// pattern as `tests/determinism.rs`).
static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn full_flow_emits_stage_span_tree_and_counters() {
    lim_obs::set_enabled(true);
    lim_obs::reset();

    let mut flow = LimFlow::cmos65();
    let cfg = SramConfig::new(64, 10, 2, 16).unwrap();
    let block = flow.synthesize_sram(&cfg).unwrap();
    assert!(block.report.fmax.value() > 0.0);

    let report = Report::capture_as("observability-test");

    // The stage-span tree: every physical stage of the paper's Fig. 2
    // flow shows up, nested under lim_flow/physical, with >=1 call and
    // nonzero accumulated time at the root.
    let root = report.span("lim_flow").expect("lim_flow root span");
    assert_eq!(root.depth, 0);
    assert!(root.calls >= 1);
    assert!(root.total.as_nanos() > 0, "root span has no time");
    report.span("lim_flow/generate").expect("generate span");
    report.span("lim_flow/map").expect("map span");
    for stage in ["floorplan", "place", "route", "sta", "clock_tree", "power"] {
        let path = format!("lim_flow/physical/{stage}");
        let s = report.span(&path).unwrap_or_else(|| panic!("missing {path}"));
        assert!(s.calls >= 1, "{path} recorded no calls");
    }

    // Counters from several layers of the stack are nonzero.
    for counter in [
        "brick.compiles",
        "flow.blocks",
        "place.moves",
        "route.nets",
        "sta.endpoints",
    ] {
        let v = report
            .counter(counter)
            .unwrap_or_else(|| panic!("missing counter {counter}"));
        assert!(v > 0, "counter {counter} is zero");
    }

    // The serialized report is valid lim-obs-v1 JSON lines.
    let lines = report.to_json_lines();
    let n = lim_obs::json::validate_lines(&lines).expect("valid JSON lines");
    assert!(n > 10, "expected a substantial report, got {n} lines");
    assert!(lines.starts_with("{\"type\":\"meta\",\"schema\":\"lim-obs-v1\""));

    lim_obs::reset();
}

#[test]
fn window_lifetime_buckets_are_identical_across_worker_counts() {
    // The determinism contract for telemetry: bucket counts are a pure
    // function of the recorded values, never of which thread recorded
    // them or in what order. Record the same latency set under 1 worker
    // and 4 workers and demand identical lifetime histograms.
    let _env = ENV_LOCK.lock().unwrap();
    let inputs: Vec<u64> = (0..4096u64)
        .map(|i| (i.wrapping_mul(0x9e37_79b9_7f4a_7c15)) >> 44)
        .collect();
    let run = |threads: &str| -> Histogram {
        std::env::set_var(lim_par::ENV_THREADS, threads);
        let window = RollingWindow::new();
        lim_par::par_map(inputs.clone(), |ns| {
            window.record(std::time::Duration::from_nanos(ns));
        });
        std::env::remove_var(lim_par::ENV_THREADS);
        window.lifetime()
    };
    let one = run("1");
    let four = run("4");
    assert_eq!(
        one.buckets().as_slice(),
        four.buckets().as_slice(),
        "lifetime bucket counts must not depend on the worker count"
    );
    assert_eq!(one.count(), 4096);
    assert_eq!(one.count(), four.count());
    assert_eq!(one.sum_ns(), four.sum_ns());
    assert_eq!(one.max_ns(), four.max_ns());
    for q in [0.50, 0.90, 0.99] {
        assert_eq!(one.percentile_ns(q), four.percentile_ns(q));
    }
}

#[test]
fn server_connection_accounting_balances_and_reports_timeouts() {
    // The `connections` object in `server.stats` must tell the truth:
    // `accepted == open + closed` at quiescent moments, the open gauge
    // tracks live sockets, and idle-timed-out connections show up in
    // `timed_out` (and in `closed` — a timeout is also a close).
    use lim_obs::json::Value;
    use lim_serve::net::{write_line, LineReader};
    use lim_serve::{ServeConfig, Server};
    use std::net::TcpStream;
    use std::time::{Duration, Instant};

    let server = Server::bind(
        "127.0.0.1:0",
        &ServeConfig {
            max_in_flight: 2,
            cache_bytes: 1 << 16,
            idle_timeout: Some(Duration::from_millis(300)),
            ..ServeConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = server.spawn();

    let stats = |writer: &mut TcpStream, reader: &mut LineReader| -> (u64, u64, u64, u64) {
        write_line(writer, "{\"id\":0,\"method\":\"server.stats\",\"params\":{}}")
            .expect("stats request");
        let line = reader
            .read_line()
            .expect("stats read")
            .expect("stats line");
        let v = Value::parse(&line).expect("stats parse");
        let conns = v
            .get("result")
            .and_then(|r| r.get("connections"))
            .unwrap_or_else(|| panic!("connections object missing: {line}"))
            .clone();
        let get = |k: &str| conns.get(k).and_then(Value::as_f64).expect(k) as u64;
        (
            get("open"),
            get("accepted"),
            get("closed"),
            get("timed_out"),
        )
    };

    // One live connection: itself.
    let probe = TcpStream::connect(addr).expect("probe connect");
    probe.set_nodelay(true).unwrap();
    let mut reader = LineReader::new(probe.try_clone().unwrap());
    let mut writer = probe;
    let (open, accepted, closed, timed_out) = stats(&mut writer, &mut reader);
    assert_eq!(open, 1, "the stats connection itself");
    assert_eq!(accepted, 1);
    assert_eq!(closed, 0);
    assert_eq!(timed_out, 0);

    // Two more connections come and go cleanly; a third goes silent and
    // must be reaped by the idle timeout.
    for _ in 0..2 {
        let extra = TcpStream::connect(addr).expect("extra connect");
        drop(extra);
    }
    let silent = TcpStream::connect(addr).expect("silent connect");
    let deadline = Instant::now() + Duration::from_secs(10);
    let (open, accepted, closed, timed_out) = loop {
        let snap = stats(&mut writer, &mut reader);
        if snap.3 >= 1 && snap.1 == snap.0 + snap.2 {
            break snap;
        }
        assert!(
            Instant::now() < deadline,
            "idle connection never timed out: {snap:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(accepted, 4, "stats conn + 2 dropped + 1 silent");
    assert_eq!(timed_out, 1, "exactly the silent connection timed out");
    assert_eq!(closed, 3, "2 dropped + 1 timed out");
    assert_eq!(open, 1, "the stats connection keeps talking");
    assert_eq!(accepted, open + closed, "accounting must balance");

    // The reaped socket really is closed: reads see EOF.
    use std::io::Read;
    let mut silent = silent;
    silent
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut buf = [0u8; 8];
    assert_eq!(
        silent.read(&mut buf).expect("EOF, not a timeout"),
        0,
        "server must close a timed-out connection"
    );

    handle.shutdown_and_join().expect("clean drain");
}

#[test]
fn traced_disk_hit_attributes_the_cache_tiers() {
    // A memo budget below the ~1 MB `rtl.infer` reply keeps it out of
    // the memo, so the repeat is served from the disk tier, and its
    // trace must say so: a `serve.memo_lookup` span with a
    // `serve.disk_read` child that took measurable time.
    use lim_obs::json::Value;
    use lim_obs::TraceId;
    use lim_serve::{ServeConfig, Service};

    let dir = std::env::temp_dir().join(format!("lim_obs_disk_hit_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    lim_obs::set_enabled(true);
    let svc = Service::new(&ServeConfig {
        cache_bytes: 64 << 10,
        disk_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let params = Value::Object(vec![
        (
            "source".to_owned(),
            Value::String(include_str!("../examples/smart_mem.v").to_owned()),
        ),
        (
            "brick_words".to_owned(),
            Value::parse("[16,32,64]").unwrap(),
        ),
    ]);
    let cold = svc.call("rtl.infer", &params);
    assert!(!cold.cached);
    let cold = cold.result.expect("the example infers");
    assert!(cold.len() > 64 << 10, "the reply must not fit the memo");
    let trace = TraceId::mint();
    let warm = svc.call_traced("rtl.infer", &params, Some(trace));
    assert!(warm.cached, "the repeat must come off the disk tier");
    assert_eq!(warm.result.as_deref(), Ok(cold.as_str()));
    assert_eq!(svc.disk().expect("disk tier").stats().hits, 1);

    let found = svc
        .call(
            "server.trace",
            &Value::Object(vec![("id".to_owned(), Value::String(trace.render()))]),
        )
        .result
        .expect("server.trace answers");
    let found = Value::parse(&found).unwrap();
    let spans = found
        .get("traces")
        .and_then(Value::as_array)
        .and_then(|t| t.first())
        .and_then(|t| t.get("spans"))
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("trace {} not retained", trace.render()));
    let total_ns = |path: &str| -> f64 {
        spans
            .iter()
            .find(|s| s.get("path").and_then(Value::as_str) == Some(path))
            .and_then(|s| s.get("total_ns"))
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("no {path} span in {spans:?}"))
    };
    let lookup = total_ns("serve.request/serve.memo_lookup");
    let read = total_ns("serve.request/serve.memo_lookup/serve.disk_read");
    assert!(read > 0.0, "serve.disk_read recorded no time");
    assert!(
        read <= lookup,
        "the read ({read} ns) is part of the lookup ({lookup} ns)"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
