//! Helpers shared by the serve test binaries.

use lim_serve::net::{write_line, LineReader};
use lim_serve::router::Router;
use lim_serve::{ServeConfig, Server, ServerHandle};
use std::net::{SocketAddr, TcpStream};

pub fn connect(addr: std::net::SocketAddr) -> (TcpStream, LineReader) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    let reader = LineReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

/// The front ends every connection-handling test runs against.
pub const FRONT_ENDS: [&str; 2] = ["shard", "router"];

/// Boots a front end: a lone shard, or a router over one shard. Returns
/// its address and every handle to shut down afterwards.
pub fn boot(kind: &str, config: &ServeConfig) -> (SocketAddr, Vec<ServerHandle>) {
    let shard = Server::bind("127.0.0.1:0", config).expect("bind shard");
    if kind == "shard" {
        return (shard.local_addr(), vec![shard.spawn()]);
    }
    let router =
        Router::bind("127.0.0.1:0", &[shard.local_addr().to_string()]).expect("bind router");
    (router.local_addr(), vec![router.spawn(), shard.spawn()])
}

pub fn roundtrip(
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
