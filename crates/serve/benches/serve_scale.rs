//! Bench: the scale-out paths added with the persistent compile cache
//! and the poll loop.
//!
//! `serve_startup` measures boot-to-first-answer for a `golden.compare`
//! request: `cold_first_request` boots on an empty cache directory and
//! pays the full compile + transient solve, `warm_first_request` boots
//! on a directory populated by an earlier run and must answer from the
//! disk tier. The gap is what a shard restart costs with and without
//! the persistent cache. `disk_hit_rtl_infer` serves the ~1 MB
//! `rtl.infer` reply of `examples/smart_mem.v` from a daemon whose
//! memo is smaller than the reply, so every iteration reads, checks
//! and frames the disk entry.
//!
//! `serve_idle_conns` measures the ping round trip on an active
//! connection while 1000 idle connections are parked on the same
//! shard — the poll loop's claim that idle sockets are ~free must show
//! up as a ping latency comparable to `ping_alone` (the idle-conn row
//! batches 10 pings per sample to average out scheduler noise).
//!
//! `serve_library` measures a `nocache` `flow.run` on a daemon whose
//! brick library already holds 400 entries, the state a long-lived
//! shard reaches. Each run checks the library out and folds
//! it back, so this row shows what that costs as the library grows.

use lim_serve::net::{write_line, LineReader};
use lim_serve::{ServeConfig, Server};
use lim_testkit::bench::{black_box, Bench};
use std::net::TcpStream;
use std::path::{Path, PathBuf};

const GOLDEN: &str =
    "{\"method\":\"golden.compare\",\"params\":{\"words\":24,\"bits\":9,\"stack\":2}}";

struct Conn {
    writer: TcpStream,
    reader: LineReader,
}

impl Conn {
    fn open(addr: std::net::SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).unwrap();
        Conn {
            reader: LineReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn roundtrip(&mut self, line: &str) -> String {
        write_line(&mut self.writer, line).expect("write");
        self.reader
            .read_line()
            .expect("read")
            .expect("response")
    }
}

fn disk_config(dir: &Path) -> ServeConfig {
    ServeConfig {
        max_in_flight: 4,
        cache_bytes: 1 << 20,
        disk_dir: Some(dir.to_path_buf()),
        ..ServeConfig::default()
    }
}

/// Boot a server on `dir`, answer one golden compare, drain. Returns
/// the response line so callers can assert the cache tier that served
/// it.
fn boot_and_answer(dir: &Path) -> String {
    let server = Server::bind("127.0.0.1:0", &disk_config(dir)).expect("bind");
    let addr = server.local_addr();
    let handle = server.spawn();
    let mut conn = Conn::open(addr);
    let response = conn.roundtrip(GOLDEN);
    drop(conn);
    handle.shutdown_and_join().expect("drain");
    response
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("lim-serve-scale-{tag}-{}", std::process::id()))
}

fn main() {
    // --- serve_startup: cold vs warm first answer across a restart ---
    let mut c = Bench::from_args("serve_startup");

    let cold_dir = temp_dir("cold");
    c.bench_function("cold_first_request", |b| {
        b.iter(|| {
            let _ = std::fs::remove_dir_all(&cold_dir);
            black_box(boot_and_answer(&cold_dir).len())
        })
    });
    let _ = std::fs::remove_dir_all(&cold_dir);

    let warm_dir = temp_dir("warm");
    let _ = std::fs::remove_dir_all(&warm_dir);
    let seeded = boot_and_answer(&warm_dir);
    assert!(seeded.contains("\"cached\":false"), "seed run: {seeded}");
    // Warm the measured path explicitly (thread spawn, file cache) so
    // no-warmup smoke runs measure the same steady state as full runs.
    for _ in 0..3 {
        boot_and_answer(&warm_dir);
    }
    c.bench_function("warm_first_request", |b| {
        b.iter(|| {
            let response = boot_and_answer(&warm_dir);
            debug_assert!(response.contains("\"cached\":true"), "{response}");
            black_box(response.len())
        })
    });
    let _ = std::fs::remove_dir_all(&warm_dir);

    let hit_dir = temp_dir("disk-hit");
    let _ = std::fs::remove_dir_all(&hit_dir);
    let server = Server::bind(
        "127.0.0.1:0",
        &ServeConfig {
            cache_bytes: 64 << 10,
            ..disk_config(&hit_dir)
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    let handle = server.spawn();
    let mut conn = Conn::open(addr);
    let infer = format!(
        "{{\"method\":\"rtl.infer\",\"params\":{{\"source\":{},\"brick_words\":[16,32,64]}}}}",
        lim_obs::json::string(include_str!("../../../examples/smart_mem.v"))
    );
    let cold = conn.roundtrip(&infer);
    assert!(
        cold.contains("\"cached\":false"),
        "{}",
        &cold[..cold.len().min(400)]
    );
    for _ in 0..3 {
        conn.roundtrip(&infer);
    }
    c.bench_function("disk_hit_rtl_infer", |b| {
        b.iter(|| black_box(conn.roundtrip(&infer).len()))
    });
    let warm = conn.roundtrip(&infer);
    assert_eq!(warm, cold.replace("\"cached\":false", "\"cached\":true"));
    drop(conn);
    handle.shutdown_and_join().expect("drain");
    let _ = std::fs::remove_dir_all(&hit_dir);
    c.finish();

    // --- serve_idle_conns: ping latency with 1000 parked sockets ---
    let mut c = Bench::from_args("serve_idle_conns");
    let server = Server::bind(
        "127.0.0.1:0",
        &ServeConfig {
            max_in_flight: 4,
            cache_bytes: 1 << 20,
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    let handle = server.spawn();
    let mut conn = Conn::open(addr);
    conn.roundtrip("{\"method\":\"server.ping\"}");

    c.bench_function("ping_alone", |b| {
        b.iter(|| black_box(conn.roundtrip("{\"method\":\"server.ping\"}").len()))
    });

    let idle: Vec<TcpStream> = (0..1000)
        .map(|i| TcpStream::connect(addr).unwrap_or_else(|e| panic!("idle conn {i}: {e}")))
        .collect();
    // Let the server accept the whole backlog before measuring: poll
    // the open-connections gauge until all 1001 sockets are in, then
    // warm the measured path (smoke runs skip the harness warmup).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        let stats = conn.roundtrip("{\"method\":\"server.stats\"}");
        let open = lim_obs::json::Value::parse(&stats)
            .ok()
            .and_then(|v| {
                v.get("result")?
                    .get("connections")?
                    .get("open")?
                    .as_f64()
            })
            .unwrap_or(0.0);
        if open >= 1001.0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "idle backlog never settled: open={open}"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    for _ in 0..20 {
        conn.roundtrip("{\"method\":\"server.ping\"}");
    }
    // Batch 10 pings per sample: the per-ping cost here is one 1001-fd
    // poll scan (~60 µs), small enough that single-ping samples on a
    // busy one-core box are dominated by scheduler hiccups. Divide the
    // row by 10 for the per-ping figure.
    c.bench_function("ping_x10_under_1000_idle", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for _ in 0..10 {
                total += conn.roundtrip("{\"method\":\"server.ping\"}").len();
            }
            black_box(total)
        })
    });
    drop(idle);

    handle.shutdown_and_join().expect("drain");
    c.finish();

    // --- serve_library: compile against a 400-entry library ---
    let mut c = Bench::from_args("serve_library");
    let lib_dir = temp_dir("library");
    let _ = std::fs::remove_dir_all(&lib_dir);
    let server = Server::bind("127.0.0.1:0", &disk_config(&lib_dir)).expect("bind");
    let addr = server.local_addr();
    let handle = server.spawn();
    let mut conn = Conn::open(addr);
    // 20 specs × 20 stack heights, compiled through the ordinary
    // endpoint.
    let estimates: Vec<String> = [8, 16, 32, 64]
        .iter()
        .flat_map(|words| [4, 6, 8, 12, 24].map(|bits| (words, bits)))
        .flat_map(|(words, bits)| {
            (1..=20).map(move |stack| {
                format!(
                    "{{\"method\":\"brick.estimate\",\"params\":{{\"words\":{words},\"bits\":{bits},\"stack\":{stack}}}}}"
                )
            })
        })
        .collect();
    let warmed = conn.roundtrip(&format!(
        "{{\"method\":\"batch\",\"params\":{{\"requests\":[{}]}}}}",
        estimates.join(",")
    ));
    assert!(!warmed.contains("\"ok\":false"), "library warm-up failed");
    const FLOW: &str = "{\"method\":\"flow.run\",\"params\":{\"words\":32,\"bits\":10,\
        \"partitions\":1,\"brick_words\":16,\"nocache\":true}}";
    for _ in 0..3 {
        conn.roundtrip(FLOW);
    }
    c.bench_function("flow_run_nocache_lib400", |b| {
        b.iter(|| {
            let response = conn.roundtrip(FLOW);
            debug_assert!(response.contains("\"cached\":false"), "{response}");
            black_box(response.len())
        })
    });
    drop(conn);
    handle.shutdown_and_join().expect("drain");
    let _ = std::fs::remove_dir_all(&lib_dir);
    c.finish();
}
