//! The shared brick library's checkout / fold-back contract: a checkout
//! shares every entry with the shared library by pointer, a compile run
//! persists only the entries it appended, and a restart recovers every
//! persisted entry whichever endpoint added it.

use lim_brick::{BitcellKind, BrickSpec, LibraryEntry, SharedBrickLibrary};
use lim_obs::json::Value;
use lim_serve::{ServeConfig, Service};
use lim_tech::Technology;
use std::path::PathBuf;
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

/// 400 distinct `(spec, stack)` keys: 20 specs × stacks 1..=20.
fn warm_keys() -> Vec<(BrickSpec, usize)> {
    let mut keys = Vec::new();
    for words in [8, 16, 32, 64] {
        for bits in [4, 6, 8, 12, 24] {
            let spec = BrickSpec::new(BitcellKind::Sram8T, words, bits).unwrap();
            keys.extend((1..=20).map(|stack| (spec, stack)));
        }
    }
    keys
}

fn entry_names(library: &SharedBrickLibrary) -> Vec<String> {
    let mut names = Vec::new();
    library.for_each_entry(|e: &LibraryEntry| names.push(e.name.clone()));
    names.sort();
    names
}

#[test]
fn snapshot_shares_entries_and_absorb_returns_only_new_ones() {
    let tech = Technology::cmos65();
    let shared = SharedBrickLibrary::default();
    for &(spec, stack) in &warm_keys()[..8] {
        shared.with_entry(&tech, &spec, stack, |_| ()).unwrap();
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
    // and folding back a checkout that appended nothing adds none.
    let spec = BrickSpec::new(BitcellKind::Sram8T, 16, 10).unwrap();
    run.get_or_insert(&tech, &spec, 2).unwrap();
    run.get_or_insert(&tech, &spec, 4).unwrap();
    let added = shared.absorb(run);
    let added: Vec<&str> = added.iter().map(|e| e.name.as_str()).collect();
    assert_eq!(added, ["brick_8t_16_10_x2", "brick_8t_16_10_x4"]);
    assert!(shared.absorb(other).is_empty());
    assert_eq!(shared.len(), 10);
}

#[test]
fn nocache_flow_run_persists_exactly_the_entries_it_compiled() {
    let (config, dir) = disk_service("flow");
    let svc = Service::new(&config);
    let tech = Technology::cmos65();
    for (spec, stack) in warm_keys() {
        svc.library()
            .with_entry(&tech, &spec, stack, |_| ())
            .unwrap();
    }
    assert_eq!(svc.library().len(), 400);
    let disk = svc.disk().expect("disk tier configured");

    let run = params(r#"{"words":256,"bits":10,"partitions":2,"brick_words":32,"nocache":true}"#);
    for expect_new in [true, false] {
        let (writes, entries) = (disk.stats().writes, svc.library().len());
        svc.call("flow.run", &run)
            .result
            .expect("flow.run succeeds");
        let k = svc.library().len() - entries;
        assert_eq!(k > 0, expect_new, "compiled {k} new entries");
        assert_eq!(
            disk.stats().writes - writes,
            k as u64,
            "one key file per new entry"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restart_recovers_every_entry_from_every_endpoint() {
    let (config, dir) = disk_service("restart");
    let before = {
        let svc = Service::new(&config);
        for (method, p) in [
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
        ] {
            svc.call(method, &params(&p))
                .result
                .expect("request succeeds");
        }
        entry_names(svc.library())
    };
    assert!(before.len() >= 3, "{before:?}");
    assert!(
        before.iter().any(|n| n == "brick_8t_16_10_x4"),
        "{before:?}"
    );

    let restarted = Service::new(&config);
    assert_eq!(restarted.warm_from_disk(), before.len());
    assert_eq!(entry_names(restarted.library()), before);
    let _ = std::fs::remove_dir_all(&dir);
}
