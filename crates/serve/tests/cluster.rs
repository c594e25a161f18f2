//! Cluster-mode integration: a `lim-router` over two in-process shards
//! must be indistinguishable on the wire — byte for byte — from one
//! fresh shard answering alone, for single requests and for scattered
//! `batch` requests alike.

use lim_obs::json::Value;
use lim_serve::net::{write_line, LineReader};
use lim_serve::router::Router;
use lim_serve::{ServeConfig, Server};
use std::net::TcpStream;

fn config() -> ServeConfig {
    ServeConfig {
        max_in_flight: 4,
        cache_bytes: 1 << 20,
        ..ServeConfig::default()
    }
}

fn connect(addr: std::net::SocketAddr) -> (TcpStream, LineReader) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    let reader = LineReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

fn roundtrip(
    writer: &mut TcpStream,
    reader: &mut LineReader,
    id: usize,
    method: &str,
    params: &str,
) -> String {
    write_line(
        writer,
        &format!("{{\"id\":{id},\"method\":\"{method}\",\"params\":{params}}}"),
    )
    .expect("request written");
    reader
        .read_line()
        .expect("socket read")
        .expect("one response line")
}

/// Distinct requests only: within one cold run every response is
/// `cached:false` on a single shard and on every routed shard alike,
/// so the byte-identity comparison is exact. (Repeats would also
/// agree — the ring sends a repeated key to the same shard — but
/// distinct entries keep the reasoning trivial.)
const SINGLES: &[(&str, &str)] = &[
    ("server.ping", "{}"),
    ("brick.estimate", "{\"words\":16,\"bits\":10,\"stack\":4}"),
    ("brick.estimate", "{\"words\":64,\"bits\":12,\"stack\":2}"),
    (
        "brick.estimate",
        "{\"words\":32,\"bits\":8,\"stack\":1,\"bitcell\":\"6t\"}",
    ),
    ("golden.compare", "{\"words\":16,\"bits\":10,\"stack\":2}"),
    (
        "dse.explore",
        "{\"memories\":[[128,8],[128,16]],\"brick_words\":[16,32]}",
    ),
];

/// A batch mixing ok entries, an unknown method and a bad spec: the
/// router must scatter it across shards and gather a response line
/// byte-identical to a lone shard's, errors in place included.
const BATCH_PARAMS: &str = "{\"requests\":[\
    {\"method\":\"server.ping\"},\
    {\"method\":\"brick.estimate\",\"params\":{\"words\":24,\"bits\":9,\"stack\":2}},\
    {\"method\":\"golden.compare\",\"params\":{\"words\":40,\"bits\":8,\"stack\":2}},\
    {\"method\":\"golden.compare\",\"params\":{\"words\":48,\"bits\":8,\"stack\":2}},\
    {\"method\":\"no.such_method\"},\
    {\"method\":\"brick.estimate\",\"params\":{\"words\":0,\"bits\":9}},\
    {\"method\":\"brick.estimate\",\"params\":{\"words\":128,\"bits\":12,\"stack\":4}}\
    ]}";

#[test]
fn router_over_two_shards_is_byte_identical_to_one_shard() {
    let shard1 = Server::bind("127.0.0.1:0", &config()).expect("bind shard 1");
    let shard2 = Server::bind("127.0.0.1:0", &config()).expect("bind shard 2");
    let shard_addrs = [
        shard1.local_addr().to_string(),
        shard2.local_addr().to_string(),
    ];
    let h1 = shard1.spawn();
    let h2 = shard2.spawn();
    let router = Router::bind("127.0.0.1:0", &shard_addrs).expect("bind router");
    let router_addr = router.local_addr();
    let rh = router.spawn();

    // The reference: one fresh shard, same config, seeing the same
    // request sequence alone.
    let single = Server::bind("127.0.0.1:0", &config()).expect("bind single shard");
    let single_addr = single.local_addr();
    let sh = single.spawn();

    let (mut rw, mut rr) = connect(router_addr);
    let (mut sw, mut sr) = connect(single_addr);

    for (i, (method, params)) in SINGLES.iter().enumerate() {
        let routed = roundtrip(&mut rw, &mut rr, i, method, params);
        let direct = roundtrip(&mut sw, &mut sr, i, method, params);
        assert_eq!(routed, direct, "{method} differs through the router");
    }

    let routed = roundtrip(&mut rw, &mut rr, 100, "batch", BATCH_PARAMS);
    let direct = roundtrip(&mut sw, &mut sr, 100, "batch", BATCH_PARAMS);
    assert_eq!(routed, direct, "scattered batch differs from lone shard");
    // Sanity on the shared content: ok entries and in-place errors.
    let v = Value::parse(&routed).expect("batch response parses");
    assert_eq!(v.get("ok"), Some(&Value::Bool(true)), "{routed}");
    let results = v
        .get("result")
        .and_then(|r| r.get("results"))
        .and_then(Value::as_array)
        .expect("results array");
    assert_eq!(results.len(), 7);
    assert_eq!(results[4].get("ok"), Some(&Value::Bool(false)), "{routed}");
    assert_eq!(results[5].get("ok"), Some(&Value::Bool(false)), "{routed}");
    assert_eq!(results[6].get("ok"), Some(&Value::Bool(true)), "{routed}");

    // Both shards did real work: the scatter actually spread load.
    let stats = roundtrip(&mut rw, &mut rr, 101, "server.stats", "{}");
    let v = Value::parse(&stats).expect("router stats parse");
    let result = v.get("result").expect("router stats result");
    assert_eq!(
        result.get("router"),
        Some(&Value::Bool(true)),
        "router identifies itself: {stats}"
    );
    let shards = result
        .get("shards")
        .and_then(Value::as_array)
        .expect("shards array");
    assert_eq!(shards.len(), 2);
    let scattered = result
        .get("scattered")
        .and_then(Value::as_f64)
        .expect("scattered counter");
    assert!(scattered >= 1.0, "batch was not scattered: {stats}");

    // server.shutdown through the router broadcasts to every shard and
    // then drains the router itself.
    let bye = roundtrip(&mut rw, &mut rr, 102, "server.shutdown", "{}");
    assert!(bye.contains("\"draining\":true"), "{bye}");
    rh.shutdown_and_join().expect("router drains");
    h1.shutdown_and_join().expect("shard 1 drains");
    h2.shutdown_and_join().expect("shard 2 drains");
    sh.shutdown_and_join().expect("single shard drains");
}

#[test]
fn routed_repeats_hit_one_shards_memo() {
    // The ring pins a request key to one shard, so the second send of
    // the same request must come back cached:true — shared-nothing
    // shards still give cluster-wide memo behavior for repeats.
    let shard1 = Server::bind("127.0.0.1:0", &config()).expect("bind shard 1");
    let shard2 = Server::bind("127.0.0.1:0", &config()).expect("bind shard 2");
    let shard_addrs = [
        shard1.local_addr().to_string(),
        shard2.local_addr().to_string(),
    ];
    let h1 = shard1.spawn();
    let h2 = shard2.spawn();
    let router = Router::bind("127.0.0.1:0", &shard_addrs).expect("bind router");
    let router_addr = router.local_addr();
    let rh = router.spawn();

    let (mut w, mut r) = connect(router_addr);
    let params = "{\"words\":56,\"bits\":11,\"stack\":2}";
    let first = roundtrip(&mut w, &mut r, 0, "golden.compare", params);
    assert!(first.contains("\"cached\":false"), "{first}");
    let second = roundtrip(&mut w, &mut r, 0, "golden.compare", params);
    assert_eq!(
        second,
        first.replace("\"cached\":false", "\"cached\":true"),
        "repeat must hit the owning shard's memo"
    );

    rh.shutdown_and_join().expect("router drains");
    h1.shutdown_and_join().expect("shard 1 drains");
    h2.shutdown_and_join().expect("shard 2 drains");
}

#[test]
fn router_survives_a_shard_reaping_its_pooled_connection() {
    // The shard closes idle connections after a second, the router's
    // pooled upstream among them; the next routed request must still
    // be answered, not fail on the dead socket.
    let shard_config = ServeConfig {
        idle_timeout: Some(std::time::Duration::from_secs(1)),
        ..config()
    };
    let shard = Server::bind("127.0.0.1:0", &shard_config).expect("bind shard");
    let shard_addr = shard.local_addr();
    let sh = shard.spawn();
    let router = Router::bind("127.0.0.1:0", &[shard_addr.to_string()]).expect("bind router");
    let router_addr = router.local_addr();
    let rh = router.spawn();

    let (mut w, mut r) = connect(router_addr);
    let first = roundtrip(&mut w, &mut r, 1, "server.ping", "{}");
    assert!(first.contains("\"ok\":true"), "{first}");
    // Wait for the reap: the shard's only idle connection is the
    // router's pooled one (this stats connection stays busy).
    let (mut sw, mut sr) = connect(shard_addr);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let stats = Value::parse(&roundtrip(&mut sw, &mut sr, 3, "server.stats", "{}")).unwrap();
        let timed_out = stats
            .get("result")
            .and_then(|r| r.get("connections"))
            .and_then(|c| c.get("timed_out"))
            .and_then(Value::as_f64)
            .unwrap();
        if timed_out >= 1.0 {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "no reap: {stats:?}");
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    let second = roundtrip(&mut w, &mut r, 2, "server.ping", "{}");
    assert!(second.contains("\"ok\":true"), "{second}");

    rh.shutdown_and_join().expect("router drains");
    sh.shutdown_and_join().expect("shard drains");
}

#[test]
fn router_retries_a_pooled_connection_that_dies_before_replying() {
    // A stand-in shard answers the first request, then closes that
    // connection on reading the second without replying — a reap
    // racing the request. The router must resend on a new connection.
    // Once the stand-in is gone, requests fail with a 502.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let shard_addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        let (first, _) = listener.accept().unwrap();
        let mut first_reader = LineReader::new(first.try_clone().unwrap());
        let mut first = first;
        first_reader.read_line().unwrap().unwrap();
        write_line(&mut first, "{\"id\":1,\"ok\":true,\"result\":\"first\"}").unwrap();
        first_reader.read_line().unwrap().unwrap();
        drop((first, first_reader));
        let (mut second, _) = listener.accept().unwrap();
        let mut second_reader = LineReader::new(second.try_clone().unwrap());
        second_reader.read_line().unwrap().unwrap();
        write_line(&mut second, "{\"id\":2,\"ok\":true,\"result\":\"second\"}").unwrap();
    });
    let router = Router::bind("127.0.0.1:0", &[shard_addr.to_string()]).expect("bind router");
    let router_addr = router.local_addr();
    let rh = router.spawn();

    let (mut w, mut r) = connect(router_addr);
    let first = roundtrip(&mut w, &mut r, 1, "server.ping", "{}");
    assert_eq!(first, "{\"id\":1,\"ok\":true,\"result\":\"first\"}");
    let second = roundtrip(&mut w, &mut r, 2, "server.ping", "{}");
    assert_eq!(second, "{\"id\":2,\"ok\":true,\"result\":\"second\"}");
    fake.join().unwrap();

    let third = roundtrip(&mut w, &mut r, 3, "server.ping", "{}");
    let third = Value::parse(&third).unwrap();
    let code = third
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Value::as_f64);
    assert_eq!(code, Some(502.0), "{third:?}");
    let stats = Value::parse(&roundtrip(&mut w, &mut r, 4, "server.stats", "{}")).unwrap();
    let errors = stats
        .get("result")
        .and_then(|r| r.get("errors"))
        .and_then(Value::as_f64);
    assert_eq!(
        errors,
        Some(1.0),
        "only the unreachable shard counts: {stats:?}"
    );

    rh.shutdown_and_join().expect("router drains");
}
