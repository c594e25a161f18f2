//! Bench: the placement annealer in isolation (small/medium/large
//! netlists plus a multi-start variant), pinning the incremental-cost
//! annealer's win independently of the flow-level number.
//!
//! The plain rows run the flow default — analytic B2B seed plus short
//! refinement — so they are the numbers `physical_flow` inherits. The
//! `*_cold` rows keep the full cold anneal visible for comparison, and
//! `analytic_solve` isolates the seed itself (solve + legalization, no
//! annealing).

use lim_brick::BrickLibrary;
use lim_physical::analytic::analytic_place;
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
    for (name, cold_name, bits, words) in [
        ("small_dec4x16", "small_dec4x16_cold", 4usize, 16usize),
        ("medium_dec6x64", "medium_dec6x64_cold", 6, 64),
        ("large_dec8x256", "large_dec8x256_cold", 8, 256),
    ] {
        let n = decoder("dec", bits, words, true).unwrap();
        let fp = Floorplan::build(&tech, &n, &lib, &FloorplanOptions::default()).unwrap();
        group.bench_function(name, |b| {
            b.iter(|| black_box(place(&tech, &n, &fp, 7, PlaceEffort::default()).unwrap().hpwl))
        });
        group.bench_function(cold_name, |b| {
            b.iter(|| {
                black_box(
                    place(&tech, &n, &fp, 7, PlaceEffort::default().cold())
                        .unwrap()
                        .hpwl,
                )
            })
        });
    }
    // Multi-start on the medium design: 4 seeds, lowest HPWL wins. The
    // default shares one analytic solve across all four refinements.
    let n = decoder("dec", 6, 64, true).unwrap();
    let fp = Floorplan::build(&tech, &n, &lib, &FloorplanOptions::default()).unwrap();
    // Untimed warm-up, as in `serve_scale`: a no-warmup smoke run then
    // does not time this row's first calls.
    for _ in 0..3 {
        black_box(place(&tech, &n, &fp, 7, PlaceEffort::starts(4)).unwrap().hpwl);
    }
    group.bench_function("medium_dec6x64_starts4", |b| {
        b.iter(|| black_box(place(&tech, &n, &fp, 7, PlaceEffort::starts(4)).unwrap().hpwl))
    });
    group.bench_function("medium_dec6x64_starts4_cold", |b| {
        b.iter(|| {
            black_box(
                place(&tech, &n, &fp, 7, PlaceEffort::starts(4).cold())
                    .unwrap()
                    .hpwl,
            )
        })
    });
    // The analytic seed alone: B2B reweighted solve + Tetris
    // legalization on the large netlist.
    let n = decoder("dec", 8, 256, true).unwrap();
    let fp = Floorplan::build(&tech, &n, &lib, &FloorplanOptions::default()).unwrap();
    group.bench_function("analytic_solve", |b| {
        b.iter(|| black_box(analytic_place(&tech, &n, &fp).unwrap().hpwl))
    });
    group.finish();
    c.finish();
}
