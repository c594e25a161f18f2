//! Thread budgets of the two front ends, counted in a process of their
//! own.
//!
//! `/proc/self/status` counts every thread of the process, so this
//! binary runs without the libtest harness: `main` runs its checks one
//! after another, and no sibling test starts or stops servers while
//! they count.

mod common;

use common::{boot, connect, roundtrip, FRONT_ENDS};
use lim_obs::json::Value;
use lim_serve::router::Router;
use lim_serve::{ServeConfig, Server};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

fn main() {
    for (name, check) in [
        (
            "a_booted_router_adds_only_its_event_thread",
            a_booted_router_adds_only_its_event_thread as fn(),
        ),
        (
            "a_thousand_idle_connections_cost_no_threads",
            a_thousand_idle_connections_cost_no_threads,
        ),
    ] {
        check();
        println!("test {name} ... ok");
    }
}

fn thread_count() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .expect("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads: line")
        .trim()
        .parse()
        .expect("thread count parses")
}

/// The router answers every request on its event thread, so booting one
/// adds that thread and no worker pool.
fn a_booted_router_adds_only_its_event_thread() {
    let shard = Server::bind("127.0.0.1:0", &ServeConfig::default()).expect("bind shard");
    let shard_addr = shard.local_addr();
    let shard = shard.spawn();
    // An answer means the shard's loop is up, and its workers with it.
    let (mut writer, mut reader) = connect(shard_addr);
    roundtrip(&mut writer, &mut reader, 0, "server.stats", "{}");
    let before = thread_count();

    let router = Router::bind("127.0.0.1:0", &[shard_addr.to_string()]).expect("bind router");
    let router_addr = router.local_addr();
    let router = router.spawn();
    // The router answers `server.stats` itself: no relay, so no connect
    // thread either.
    let (mut writer, mut reader) = connect(router_addr);
    roundtrip(&mut writer, &mut reader, 1, "server.stats", "{}");
    let after = thread_count();
    assert_eq!(after, before + 1, "a router's threads: {before} -> {after}");

    router.shutdown_and_join().expect("router drain");
    shard.shutdown_and_join().expect("shard drain");
}

/// The poll loop's reason to exist: idle connections are slab slots,
/// not threads.
fn a_thousand_idle_connections_cost_no_threads() {
    // Open 1000, verify the process thread count is flat and the
    // server still answers promptly, then drop them and watch the
    // accounting drain.
    let config = ServeConfig {
        max_in_flight: 4,
        cache_bytes: 1 << 20,
        ..ServeConfig::default()
    };
    for kind in FRONT_ENDS {
        let (addr, handles) = boot(kind, &config);
        idle_connections_on(kind, addr);
        for handle in handles {
            handle.shutdown_and_join().expect("clean drain");
        }
    }
}

fn idle_connections_on(kind: &str, addr: SocketAddr) {
    fn connections(stats: &str) -> (u64, u64, u64) {
        let v = Value::parse(stats).expect("stats parse");
        let conns = v
            .get("result")
            .and_then(|r| r.get("connections"))
            .expect("connections object")
            .clone();
        let get = |k: &str| conns.get(k).and_then(Value::as_f64).expect(k) as u64;
        (get("open"), get("accepted"), get("closed"))
    }

    let (mut writer, mut reader) = connect(addr);
    roundtrip(&mut writer, &mut reader, 0, "server.ping", "{}");
    let before = thread_count();

    const IDLE: usize = 1000;
    let idle: Vec<TcpStream> = (0..IDLE)
        .map(|i| TcpStream::connect(addr).unwrap_or_else(|e| panic!("idle connect {i}: {e}")))
        .collect();
    // Wait for the server to accept them all (it batches accepts per
    // poll wakeup).
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = roundtrip(&mut writer, &mut reader, 1, "server.stats", "{}");
        let (open, _, _) = connections(&stats);
        if open >= (IDLE + 1) as u64 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "{kind} accepted only {open} connections: {stats}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    let after = thread_count();
    assert!(
        after <= before + 4,
        "{kind}: idle connections must not spawn threads: {before} -> {after}"
    );
    // Still responsive with 1000 idle connections parked.
    let started = Instant::now();
    let pong = roundtrip(&mut writer, &mut reader, 2, "server.ping", "{}");
    assert!(pong.contains("\"pong\":true"), "{kind}: {pong}");
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "{kind}: ping under idle load took {:?}",
        started.elapsed()
    );

    drop(idle);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = roundtrip(&mut writer, &mut reader, 3, "server.stats", "{}");
        let (open, accepted, closed) = connections(&stats);
        if open <= 1 {
            assert_eq!(accepted, closed + open, "{kind}: accounting must balance");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "{kind}: dropped connections not reaped: {stats}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}
