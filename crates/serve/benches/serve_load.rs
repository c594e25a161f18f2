//! Bench: request round-trip cost through the full TCP + memo stack.
//!
//! Boots an in-process server on an ephemeral port and measures three
//! paths over a persistent connection: the protocol floor (`ping`), a
//! memo hit (`estimate_hit`), and the compute path with the memo
//! bypassed but the brick library warm (`estimate_nocache`).

use lim_serve::net::{write_line, LineReader};
use lim_serve::{ServeConfig, Server};
use lim_testkit::bench::{black_box, Bench};
use std::net::TcpStream;

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

fn main() {
    let mut c = Bench::from_args("serve_load");
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
    let mut conn = Conn::open(addr);

    // Warm the memo and the library before measuring.
    conn.roundtrip("{\"method\":\"brick.estimate\",\"params\":{\"words\":16,\"bits\":10,\"stack\":4}}");

    c.bench_function("ping_roundtrip", |b| {
        b.iter(|| black_box(conn.roundtrip("{\"method\":\"server.ping\"}").len()))
    });
    c.bench_function("estimate_memo_hit", |b| {
        b.iter(|| {
            black_box(
                conn.roundtrip(
                    "{\"method\":\"brick.estimate\",\
                     \"params\":{\"words\":16,\"bits\":10,\"stack\":4}}",
                )
                .len(),
            )
        })
    });
    c.bench_function("estimate_warm_nocache", |b| {
        b.iter(|| {
            black_box(
                conn.roundtrip(
                    "{\"method\":\"brick.estimate\",\
                     \"params\":{\"words\":16,\"bits\":10,\"stack\":4,\"nocache\":true}}",
                )
                .len(),
            )
        })
    });

    handle.shutdown_and_join().expect("clean drain");
    c.finish();
}
