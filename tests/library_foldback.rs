//! The shared brick library's checkout / fold-back contract, and what a
//! `--cache-dir` service persists: a checkout shares every entry with
//! the shared library by pointer, a cold request writes its reply entry
//! and nothing else, a `nocache` compile writes nothing, and a restart
//! recovers every reply entry whichever endpoint wrote it, answering
//! each repeat from disk without re-warming the library.

use lim_brick::{BitcellKind, BrickSpec, LibraryEntry, SharedBrickLibrary};
use lim_obs::json::Value;
use lim_serve::{ServeConfig, Service};
use lim_tech::Technology;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const SMALL_MEM: &str = "\
module small_mem (
  input wire clk,
  input wire we,
  input wire [3:0] waddr,
  input wire [3:0] raddr,
  input wire [5:0] din,
  output reg [5:0] dout
);
  reg [5:0] mem [15:0];
  always @(posedge clk) begin
    if (we)
      mem[waddr] <= din;
    dout <= mem[raddr];
  end
endmodule
";

fn params(text: &str) -> Value {
    Value::parse(text).expect("test params are valid JSON")
}

fn disk_service(tag: &str) -> (ServeConfig, PathBuf) {
    let dir = std::env::temp_dir().join(format!("lim_foldback_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServeConfig {
        disk_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    (config, dir)
}

/// Entry names in insertion order.
fn entry_names(library: &SharedBrickLibrary) -> Vec<String> {
    let mut names = Vec::new();
    library.for_each_entry(|e: &LibraryEntry| names.push(e.name.clone()));
    names
}

/// One cold request for each endpoint that compiles bricks into the
/// shared library.
fn compiling_requests() -> [(&'static str, String); 3] {
    [
        (
            "brick.estimate",
            r#"{"words":16,"bits":10,"stack":4}"#.to_owned(),
        ),
        (
            "flow.run",
            r#"{"words":64,"bits":10,"partitions":1,"brick_words":32}"#.to_owned(),
        ),
        (
            "rtl.infer",
            format!(
                r#"{{"source":{},"brick_words":[16]}}"#,
                lim_obs::json::string(SMALL_MEM)
            ),
        ),
    ]
}

/// Every file under `dir`, as a path relative to it, sorted.
fn files_under(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut todo = vec![dir.to_path_buf()];
    while let Some(at) = todo.pop() {
        for entry in std::fs::read_dir(&at).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                todo.push(path);
            } else {
                files.push(path.strip_prefix(dir).unwrap().to_path_buf());
            }
        }
    }
    files.sort();
    files
}

#[test]
fn snapshot_shares_entries_and_absorb_adds_only_new_ones() {
    let tech = Technology::cmos65();
    let shared = SharedBrickLibrary::default();
    let resident_spec = BrickSpec::new(BitcellKind::Sram8T, 8, 4).unwrap();
    for stack in 1..=8 {
        shared
            .with_entry(&tech, &resident_spec, stack, |_| ())
            .unwrap();
    }
    let mut resident: Vec<*const LibraryEntry> = Vec::new();
    shared.for_each_entry(|e| resident.push(e));

    let mut run = shared.snapshot();
    let other = shared.snapshot();
    assert_eq!(run.len(), 8);
    for (i, e) in run.entries().iter().enumerate() {
        assert!(Arc::ptr_eq(e, &other.entries()[i]), "entry {i} was copied");
        assert!(Arc::ptr_eq(&e.brick, &other.entries()[i].brick));
        assert_eq!(
            Arc::as_ptr(e),
            resident[i],
            "entry {i} is not the shared one"
        );
    }

    // The run appends two entries; folding it back adds exactly those,
    // after the resident ones, and folding back a checkout that
    // appended nothing adds none.
    let mut names = entry_names(&shared);
    let spec = BrickSpec::new(BitcellKind::Sram8T, 16, 10).unwrap();
    run.get_or_insert(&tech, &spec, 2).unwrap();
    run.get_or_insert(&tech, &spec, 4).unwrap();
    shared.absorb(run);
    names.extend([
        "brick_8t_16_10_x2".to_owned(),
        "brick_8t_16_10_x4".to_owned(),
    ]);
    assert_eq!(entry_names(&shared), names);
    shared.absorb(other);
    assert_eq!(entry_names(&shared), names);
    assert_eq!(shared.len(), 10);
}

#[test]
fn cold_requests_persist_only_their_replies() {
    let (config, dir) = disk_service("replies");
    let svc = Service::new(&config);
    for (method, p) in compiling_requests() {
        let out = svc.call(method, &params(&p));
        assert!(!out.cached, "{method} was not cold");
        out.result.expect("request succeeds");
    }
    assert!(svc.library().len() >= 3, "{:?}", entry_names(svc.library()));
    let files = files_under(&dir);
    assert_eq!(files.len(), 3, "one file per reply: {files:?}");
    assert!(files.iter().all(|f| f.starts_with("resp")), "{files:?}");
    assert_eq!(svc.disk().expect("disk tier configured").stats().writes, 3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn nocache_flow_run_persists_none_of_the_entries_it_compiled() {
    let (config, dir) = disk_service("flow");
    let svc = Service::new(&config);
    let disk = svc.disk().expect("disk tier configured");

    // A `nocache` run has no reply entry to persist, and library
    // entries are not persisted: neither the run that compiles new
    // bricks nor its repeat writes a file.
    let run = params(r#"{"words":256,"bits":10,"partitions":2,"brick_words":32,"nocache":true}"#);
    for expect_new in [true, false] {
        let (writes, entries) = (disk.stats().writes, svc.library().len());
        svc.call("flow.run", &run)
            .result
            .expect("flow.run succeeds");
        let k = svc.library().len() - entries;
        assert_eq!(k > 0, expect_new, "compiled {k} new entries");
        assert_eq!(disk.stats().writes, writes, "a nocache run wrote a file");
    }
    assert!(files_under(&dir).is_empty(), "{:?}", files_under(&dir));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every persisted entry is a reply: a restarted service recovers the
/// one each endpoint wrote and answers its repeat from it, byte-identical,
/// while its library stays empty.
#[test]
fn restart_recovers_every_entry_from_every_endpoint() {
    let (config, dir) = disk_service("restart");
    let requests = compiling_requests();
    let cold: Vec<String> = {
        let svc = Service::new(&config);
        requests
            .iter()
            .map(|(method, p)| {
                svc.call(method, &params(p))
                    .result
                    .expect("request succeeds")
            })
            .collect()
    };

    let restarted = Service::new(&config);
    for ((method, p), cold) in requests.iter().zip(&cold) {
        let again = restarted.call(method, &params(p));
        assert!(again.cached, "{method} was not answered from disk");
        assert_eq!(&again.result.expect("request succeeds"), cold, "{method}");
    }
    assert_eq!(restarted.disk().unwrap().stats().hits, 3);
    assert_eq!(
        restarted.library().len(),
        0,
        "the restart re-warmed entries"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
