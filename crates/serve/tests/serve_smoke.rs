//! End-to-end smoke test: a real TCP server on an ephemeral port under
//! mixed multi-threaded traffic, checked byte-for-byte against direct
//! in-process library calls.

mod common;

use common::{boot, connect, roundtrip, FRONT_ENDS};
use lim_obs::json::Value;
use lim_serve::net::{write_line, MAX_LINE_BYTES};
use lim_serve::protocol::{result_slice, ERR_BAD_REQUEST, ERR_OVERLOADED};
use lim_serve::{ServeConfig, Server, Service};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// The mixed workload: every serving endpoint, several spec shapes.
const TRAFFIC: &[(&str, &str)] = &[
    ("brick.estimate", "{\"words\":16,\"bits\":10,\"stack\":4}"),
    (
        "brick.estimate",
        "{\"words\":32,\"bits\":12,\"stack\":2,\"bitcell\":\"6t\"}",
    ),
    ("golden.compare", "{\"words\":16,\"bits\":10,\"stack\":2}"),
    (
        "flow.run",
        "{\"words\":32,\"bits\":10,\"partitions\":1,\"brick_words\":16}",
    ),
    (
        "dse.explore",
        "{\"memories\":[[128,8],[128,16]],\"brick_words\":[16,32]}",
    ),
    (
        "batch",
        "{\"requests\":[{\"method\":\"server.ping\"},\
         {\"method\":\"brick.estimate\",\"params\":{\"words\":16,\"bits\":10,\"stack\":4}}]}",
    ),
    ("server.ping", "{}"),
];

#[test]
fn concurrent_traffic_matches_direct_calls_and_warms_caches() {
    // The daemon binary enables obs itself; in-process servers inherit
    // the ambient flag, so turn collection on for the adoption check.
    lim_obs::set_enabled(true);
    let server = Server::bind(
        "127.0.0.1:0",
        &ServeConfig {
            max_in_flight: 8,
            cache_bytes: 1 << 20,
            ..ServeConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = server.spawn();

    // Reference results from a direct, in-process service: what the
    // library returns without any transport in between.
    let reference = Service::new(&ServeConfig::default());
    let expected: Vec<String> = TRAFFIC
        .iter()
        .map(|(method, params)| {
            reference
                .call(method, &Value::parse(params).unwrap())
                .result
                .expect("reference call succeeds")
        })
        .collect();

    // Four client threads, two passes each, interleaved over one
    // connection per thread.
    std::thread::scope(|s| {
        for t in 0..4 {
            let expected = &expected;
            s.spawn(move || {
                let (mut writer, mut reader) = connect(addr);
                for round in 0..2 {
                    for (i, (method, params)) in TRAFFIC.iter().enumerate() {
                        let id = t * 1000 + round * 100 + i;
                        let response = roundtrip(&mut writer, &mut reader, id, method, params);
                        let v = Value::parse(&response).expect("response parses");
                        assert_eq!(
                            v.get("ok"),
                            Some(&Value::Bool(true)),
                            "{method}: {response}"
                        );
                        assert_eq!(
                            v.get("id").and_then(Value::as_f64),
                            Some(id as f64),
                            "id echoed"
                        );
                        // Byte-identical to the direct library call.
                        assert_eq!(
                            result_slice(&response).expect("result member"),
                            expected[i],
                            "{method} result differs from direct call"
                        );
                    }
                }
            });
        }
    });

    // 4 threads x 2 rounds of the same 7 requests: the memo must have
    // warmed (only the first arrival of each deterministic request
    // computes; batches and pings always execute).
    let (mut writer, mut reader) = connect(addr);
    let stats_line = roundtrip(&mut writer, &mut reader, 9000, "server.stats", "{}");
    let stats = Value::parse(&stats_line).expect("stats parse");
    let result = stats.get("result").expect("stats result");
    let cache_hits = result
        .get("cache")
        .and_then(|c| c.get("hits"))
        .and_then(Value::as_f64)
        .expect("cache hits");
    assert!(cache_hits >= 1.0, "repeat traffic must hit the memo");
    let lib_entries = result
        .get("library")
        .and_then(|l| l.get("entries"))
        .and_then(Value::as_f64)
        .expect("library entries");
    assert!(lib_entries >= 2.0, "shared library warmed: {stats_line}");
    assert_eq!(
        result
            .get("shed")
            .and_then(Value::as_f64)
            .expect("shed count"),
        0.0,
        "nothing shed below the in-flight limit"
    );
    // Obs adoption: request spans from connection threads landed in the
    // service-wide report.
    let spans = result
        .get("obs")
        .and_then(|o| o.get("spans"))
        .and_then(Value::as_array)
        .expect("obs spans");
    assert!(
        spans
            .iter()
            .any(|row| row.get("path").and_then(Value::as_str) == Some("serve.request")),
        "adopted request spans missing: {stats_line}"
    );

    // Malformed input gets a 400 on the same connection, which stays
    // usable afterwards.
    write_line(&mut writer, "this is not json").unwrap();
    let response = reader.read_line().unwrap().unwrap();
    let v = Value::parse(&response).unwrap();
    assert_eq!(v.get("ok"), Some(&Value::Bool(false)));
    assert_eq!(
        v.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Value::as_f64),
        Some(f64::from(ERR_BAD_REQUEST))
    );
    let pong = roundtrip(&mut writer, &mut reader, 9001, "server.ping", "{}");
    assert!(pong.contains("\"pong\":true"));

    handle.shutdown_and_join().expect("clean drain");
}

#[test]
fn overload_is_shed_with_explicit_errors() {
    // One execution slot; six simultaneous slow requests released by a
    // barrier: at least one must be shed, at least one must finish.
    let server = Server::bind(
        "127.0.0.1:0",
        &ServeConfig {
            max_in_flight: 1,
            cache_bytes: 1 << 16,
            ..ServeConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = server.spawn();
    let barrier = Barrier::new(6);

    let (ok, shed): (u64, u64) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..6)
            .map(|i| {
                let barrier = &barrier;
                s.spawn(move || {
                    let (mut writer, mut reader) = connect(addr);
                    barrier.wait();
                    let response =
                        roundtrip(&mut writer, &mut reader, i, "debug.sleep", "{\"ms\":150}");
                    let v = Value::parse(&response).unwrap();
                    if v.get("ok") == Some(&Value::Bool(true)) {
                        (1, 0)
                    } else {
                        let code = v
                            .get("error")
                            .and_then(|e| e.get("code"))
                            .and_then(Value::as_f64);
                        assert_eq!(
                            code,
                            Some(f64::from(ERR_OVERLOADED)),
                            "only 429s expected: {response}"
                        );
                        (0, 1)
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .fold((0, 0), |(o, s2), (a, b)| (o + a, s2 + b))
    });
    assert!(ok >= 1, "at least one request must be admitted");
    assert!(shed >= 1, "overload must shed with explicit errors");
    assert_eq!(ok + shed, 6);

    // The shed counter is visible in the stats.
    let (mut writer, mut reader) = connect(addr);
    let stats_line = roundtrip(&mut writer, &mut reader, 0, "server.stats", "{}");
    let stats = Value::parse(&stats_line).unwrap();
    let reported = stats
        .get("result")
        .and_then(|r| r.get("shed"))
        .and_then(Value::as_f64)
        .expect("shed stat");
    assert_eq!(reported as u64, shed);

    handle.shutdown_and_join().expect("clean drain");
}

#[test]
fn oversized_line_gets_an_error_response_before_close() {
    // A client that streams past MAX_LINE_BYTES without a newline must
    // get a well-formed 400 error line back — not a silent reset — and
    // then the connection closes.
    let config = ServeConfig {
        max_in_flight: 2,
        cache_bytes: 1 << 16,
        ..ServeConfig::default()
    };
    for kind in FRONT_ENDS {
        let (addr, handles) = boot(kind, &config);
        oversized_line_on(kind, addr);
        for handle in handles {
            handle.shutdown_and_join().expect("clean drain");
        }
    }
}

fn oversized_line_on(kind: &str, addr: SocketAddr) {
    let (mut writer, mut reader) = connect(addr);
    let chunk = vec![b'x'; 64 << 10];
    let mut sent = 0usize;
    while sent <= MAX_LINE_BYTES {
        writer.write_all(&chunk).expect("oversized write accepted");
        sent += chunk.len();
    }
    // Half-close so the server's discard phase sees EOF promptly.
    writer
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let response = reader
        .read_line()
        .unwrap_or_else(|e| panic!("{kind}: error line unreadable: {e}"))
        .expect("one error line before close");
    let v = Value::parse(&response).expect("well-formed JSON error line");
    assert_eq!(v.get("ok"), Some(&Value::Bool(false)), "{kind}: {response}");
    assert_eq!(
        v.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Value::as_f64),
        Some(f64::from(ERR_BAD_REQUEST)),
        "{kind}: {response}"
    );
    assert!(
        response.contains("MAX_LINE_BYTES"),
        "{kind}: error names the limit: {response}"
    );
    // Then EOF: the connection is closed, nothing else arrives.
    assert_eq!(reader.read_line().expect("clean close"), None, "{kind}");

    // The server survives and stays responsive.
    let (mut writer, mut reader) = connect(addr);
    let pong = roundtrip(&mut writer, &mut reader, 1, "server.ping", "{}");
    assert!(pong.contains("\"pong\":true"), "{kind}: {pong}");
}

#[test]
fn restart_on_warm_disk_answers_cached_and_byte_identical() {
    // Boot on a persistent cache dir, compute a golden compare, shut
    // down; reboot on the same dir and demand the first repeat comes
    // back cached:true with byte-identical result bytes — the restart
    // warm-path acceptance for the disk tier, end to end over TCP.
    let dir = std::env::temp_dir().join(format!("lim-serve-smoke-disk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServeConfig {
        max_in_flight: 2,
        cache_bytes: 1 << 20,
        disk_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    const METHOD: &str = "golden.compare";
    const PARAMS: &str = "{\"words\":24,\"bits\":9,\"stack\":2}";

    let server = Server::bind("127.0.0.1:0", &config).expect("bind cold server");
    let addr = server.local_addr();
    let handle = server.spawn();
    let (mut writer, mut reader) = connect(addr);
    let cold = roundtrip(&mut writer, &mut reader, 7, METHOD, PARAMS);
    assert!(cold.contains("\"cached\":false"), "first compute: {cold}");
    handle.shutdown_and_join().expect("cold drain");

    let server = Server::bind("127.0.0.1:0", &config).expect("bind warm server");
    let addr = server.local_addr();
    let handle = server.spawn();
    let (mut writer, mut reader) = connect(addr);
    let warm = roundtrip(&mut writer, &mut reader, 7, METHOD, PARAMS);
    assert_eq!(
        warm,
        cold.replace("\"cached\":false", "\"cached\":true"),
        "restart answer must come from disk, byte-identical"
    );
    handle.shutdown_and_join().expect("warm drain");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn memories_past_the_decoder_bound_get_a_prompt_400() {
    // A million 16-word banks (stack 1, a valid brick) and 17 memories
    // of 4096 words each both need more wordline AND trees than the
    // largest single-lane memory rtl.infer lowers, so both are refused
    // before any netlist is built, instead of building millions of
    // cells.
    let mut source = "module wide (\n  input wire clk,\n  input wire we,\n  \
                      input wire [11:0] waddr,\n  input wire [11:0] raddr,\n  \
                      input wire [7:0] din"
        .to_owned();
    for i in 0..17 {
        source += &format!(",\n  output reg [7:0] q{i}");
    }
    source += "\n);\n";
    for i in 0..17 {
        source += &format!("  reg [7:0] m{i} [4095:0];\n");
    }
    source += "  always @(posedge clk) begin\n";
    for i in 0..17 {
        source += &format!("    if (we) m{i}[waddr] <= din;\n    q{i} <= m{i}[raddr];\n");
    }
    source += "  end\nendmodule\n";
    let rtl_params =
        lim_obs::json::render(&Value::Object(vec![("source".to_owned(), Value::String(source))]));
    let requests = [
        (
            "flow.run",
            "{\"words\":16777216,\"bits\":1,\"partitions\":1048576,\"brick_words\":16}",
        ),
        ("rtl.infer", rtl_params.as_str()),
    ];

    for kind in FRONT_ENDS {
        let (addr, handles) = boot(kind, &ServeConfig::default());
        let (mut writer, mut reader) = connect(addr);
        for (id, (method, params)) in requests.iter().enumerate() {
            let started = Instant::now();
            let response = roundtrip(&mut writer, &mut reader, id, method, params);
            let v = Value::parse(&response).expect("response parses");
            let err = v.get("error").expect("an error response");
            assert_eq!(
                err.get("code").and_then(Value::as_f64),
                Some(ERR_BAD_REQUEST as f64),
                "{kind} {method}: {response}"
            );
            assert!(
                err.get("message")
                    .and_then(Value::as_str)
                    .is_some_and(|m| m.contains("wordline AND trees")),
                "{kind} {method}: {response}"
            );
            assert!(
                started.elapsed() < Duration::from_secs(5),
                "{kind} {method} took {:?}",
                started.elapsed()
            );
        }
        for handle in handles {
            handle.shutdown_and_join().expect("clean drain");
        }
    }
}

#[test]
fn golden_work_past_the_bound_gets_a_prompt_400() {
    // A dual-port 1024x256 bank of 64 bricks needs ~1.1e11 golden
    // node-steps, many minutes of solving. It is refused before any
    // solve, alone and in place in a batch beside a valid entry.
    let big = "{\"bitcell\":\"2p\",\"words\":1024,\"bits\":256,\"stack\":64}";
    let batch = format!(
        "{{\"requests\":[{{\"method\":\"golden.compare\",\"params\":{big}}},\
         {{\"method\":\"golden.compare\",\"params\":{{\"words\":16,\"bits\":10,\"stack\":1}}}}]}}"
    );
    let bound = lim_brick::golden::MAX_NODE_STEPS.to_string();
    let bad_request = |err: Option<&Value>, what: &str| {
        let err = err.unwrap_or_else(|| panic!("{what}: an error"));
        assert_eq!(
            err.get("code").and_then(Value::as_f64),
            Some(ERR_BAD_REQUEST as f64),
            "{what}"
        );
        assert!(
            err.get("message")
                .and_then(Value::as_str)
                .is_some_and(|m| m.contains(&bound)),
            "{what}: the message names the bound"
        );
    };
    for kind in FRONT_ENDS {
        let (addr, handles) = boot(kind, &ServeConfig::default());
        let (mut writer, mut reader) = connect(addr);
        let started = Instant::now();
        let response = roundtrip(&mut writer, &mut reader, 1, "golden.compare", big);
        let v = Value::parse(&response).expect("response parses");
        bad_request(v.get("error"), &format!("{kind} single: {response}"));

        let response = roundtrip(&mut writer, &mut reader, 2, "batch", &batch);
        let v = Value::parse(&response).expect("response parses");
        let results = v
            .get("result")
            .and_then(|r| r.get("results"))
            .and_then(Value::as_array)
            .expect("results array");
        bad_request(results[0].get("error"), &format!("{kind} batch: {response}"));
        assert_eq!(results[1].get("ok"), Some(&Value::Bool(true)), "{kind}: {response}");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "{kind} took {:?}",
            started.elapsed()
        );
        for handle in handles {
            handle.shutdown_and_join().expect("clean drain");
        }
    }
}

#[test]
fn shutdown_request_drains_the_server() {
    let server = Server::bind("127.0.0.1:0", &ServeConfig::default()).expect("bind");
    let addr = server.local_addr();
    let join = std::thread::spawn(move || server.run());

    let (mut writer, mut reader) = connect(addr);
    let response = roundtrip(&mut writer, &mut reader, 1, "server.shutdown", "{}");
    assert!(response.contains("\"draining\":true"), "{response}");
    // run() must return once the drain completes.
    join.join().expect("server thread").expect("clean exit");
    // And the port is released: a fresh connect must fail.
    assert!(TcpStream::connect(addr).is_err() || {
        // Some platforms accept then reset; either way no server answers.
        let (mut w, mut r) = connect(addr);
        write_line(&mut w, "{\"method\":\"server.ping\"}").ok();
        r.read_line().ok().flatten().is_none()
    });
}

/// A small inferable memory: `words` × `bits`, written and read
/// through separate addresses.
fn mem_source(name: &str, words: usize, bits: usize) -> String {
    let a = words.trailing_zeros() as usize;
    format!(
        "module {name} (\n  input wire clk,\n  input wire we,\n  \
         input wire [{ah}:0] waddr,\n  input wire [{ah}:0] raddr,\n  \
         input wire [{bh}:0] din,\n  output reg [{bh}:0] dout\n);\n  \
         reg [{bh}:0] mem [{dh}:0];\n  always @(posedge clk) begin\n    \
         if (we)\n      mem[waddr] <= din;\n    dout <= mem[raddr];\n  end\nendmodule\n",
        ah = a - 1,
        bh = bits - 1,
        dh = words - 1
    )
}

#[test]
fn drain_persists_every_reply_sent_before_its_disk_write() {
    // Workers hand each cold reply to the event thread before they
    // write and sync its disk entries, and a cold reply the event
    // thread answers itself (`brick.estimate`) has its entry written on
    // a worker after it is sent. Once the drain has joined the pool,
    // every answered request must be on disk all the same: one response
    // entry per reply and nothing else, recovered by a restart as cached
    // answers.
    let dir = std::env::temp_dir().join(format!("lim-serve-smoke-drain-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServeConfig {
        max_in_flight: 4,
        cache_bytes: 1 << 20,
        disk_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let mut requests: Vec<(&str, String)> = [(16, 6), (16, 8), (32, 4), (32, 10), (64, 6)]
        .iter()
        .enumerate()
        .map(|(i, &(words, bits))| {
            let source = mem_source(&format!("drain_mem{i}"), words, bits);
            let params = format!(
                "{{\"source\":{},\"brick_words\":[8,16]}}",
                lim_obs::json::string(&source)
            );
            ("rtl.infer", params)
        })
        .collect();
    for (words, bits, brick_words) in [(32, 10, 16), (64, 8, 16), (64, 12, 32)] {
        requests.push((
            "flow.run",
            format!(
                "{{\"words\":{words},\"bits\":{bits},\"partitions\":1,\
                 \"brick_words\":{brick_words}}}"
            ),
        ));
    }
    // 6T bricks: no library entry shared with the 8T requests above.
    for (words, bits, stack) in [(24, 7, 3), (40, 9, 5), (56, 11, 2), (72, 5, 4)] {
        requests.push((
            "brick.estimate",
            format!(
                "{{\"words\":{words},\"bits\":{bits},\"stack\":{stack},\
                 \"bitcell\":\"6t\"}}"
            ),
        ));
    }

    const CLIENTS: usize = 3;
    let send_all = |addr| -> Vec<String> {
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let requests = &requests;
                    s.spawn(move || {
                        let (mut writer, mut reader) = connect(addr);
                        (c..requests.len())
                            .step_by(CLIENTS)
                            .map(|i| {
                                let (method, params) = &requests[i];
                                let reply = roundtrip(&mut writer, &mut reader, i, method, params);
                                (i, reply)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let mut replies = vec![String::new(); requests.len()];
            for w in workers {
                for (i, reply) in w.join().expect("client thread") {
                    replies[i] = reply;
                }
            }
            replies
        })
    };

    let server = Server::bind("127.0.0.1:0", &config).expect("bind cold server");
    let service = server.service();
    let handle = server.spawn();
    let cold = send_all(handle.addr());
    for reply in &cold {
        assert!(
            reply.contains("\"ok\":true") && reply.contains("\"cached\":false"),
            "cold reply: {}",
            &reply[..reply.len().min(300)]
        );
    }
    handle.shutdown_and_join().expect("cold drain");
    assert!(
        !service.library().is_empty(),
        "the cold replies compiled no library entry"
    );
    let disk = service.disk().expect("disk tier enabled");
    assert_eq!(disk.stats().writes as usize, cold.len());

    let server = Server::bind("127.0.0.1:0", &config).expect("bind warm server");
    let handle = server.spawn();
    let warm = send_all(handle.addr());
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(*w, c.replace("\"cached\":false", "\"cached\":true"));
    }
    handle.shutdown_and_join().expect("warm drain");
    let _ = std::fs::remove_dir_all(&dir);
}
