//! Bench: placement in isolation on small/medium/large netlists,
//! pinning the incremental-cost annealer's win independently of the
//! flow-level number.
//!
//! The plain rows run the flow default — analytic B2B seed plus short
//! refinement — so they are the numbers `physical_flow` inherits.
//! `analytic_solve` isolates the seed itself (solve + legalization, a
//! zero move budget so no annealing).

use lim_brick::BrickLibrary;
use lim_physical::floorplan::{Floorplan, FloorplanOptions};
use lim_physical::place::{place, PlaceEffort};
use lim_rtl::generators::decoder;
use lim_tech::Technology;
use lim_testkit::bench::{black_box, Bench};

fn main() {
    let mut c = Bench::from_args("place_anneal");
    let tech = Technology::cmos65();
    let lib = BrickLibrary::new();
    let mut group = c.benchmark_group("place_anneal");
    group.sample_size(10);
    for (name, bits, words) in [
        ("small_dec4x16", 4usize, 16usize),
        ("medium_dec6x64", 6, 64),
        ("large_dec8x256", 8, 256),
    ] {
        let n = decoder("dec", bits, words, true).unwrap();
        let fp = Floorplan::build(&tech, &n, &lib, &FloorplanOptions::default()).unwrap();
        group.bench_function(name, |b| {
            b.iter(|| black_box(place(&tech, &n, &fp, 7, PlaceEffort::default()).unwrap().hpwl))
        });
    }
    // The analytic seed alone: B2B solve + Tetris legalization on the
    // large netlist.
    let n = decoder("dec", 8, 256, true).unwrap();
    let fp = Floorplan::build(&tech, &n, &lib, &FloorplanOptions::default()).unwrap();
    group.bench_function("analytic_solve", |b| {
        b.iter(|| black_box(place(&tech, &n, &fp, 7, PlaceEffort::new(0.0)).unwrap().hpwl))
    });
    group.finish();
    c.finish();
}
