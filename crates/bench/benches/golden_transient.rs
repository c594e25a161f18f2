//! Bench: analytic estimator vs golden transient solve.
//!
//! Quantifies the speed gap that justifies the paper's methodology — the
//! estimator must be orders of magnitude cheaper than the SPICE-class
//! reference while staying within the Table 1 error bands — and tracks
//! the batched golden panel path: validating many configurations at
//! once must amortize far below the per-run cost.

use lim_brick::golden::{compare_batch_results, measure_bank};
use lim_brick::{BitcellKind, BrickCompiler, BrickSpec};
use lim_tech::Technology;
use lim_testkit::bench::{black_box, Bench};

fn bench_tool_vs_golden(c: &mut Bench) {
    let tech = Technology::cmos65();
    let brick = BrickCompiler::new(&tech)
        .compile(&BrickSpec::new(BitcellKind::Sram8T, 16, 10).unwrap())
        .unwrap();

    c.bench_function("estimator_16x10_x4", |b| {
        b.iter(|| black_box(brick.estimate_bank(4).unwrap()))
    });

    let mut group = c.benchmark_group("golden");
    group.sample_size(10);
    group.bench_function("golden_16x10_x4", |b| {
        b.iter(|| black_box(measure_bank(&brick, 4).unwrap()))
    });
    group.finish();

    // Batched golden validation, end-to-end (compile + panel solves +
    // finish). Row names carry the entry count: divide the median by it
    // to compare per-configuration cost against golden_16x10_x4 above.
    let kinds = [
        BitcellKind::Sram6T,
        BitcellKind::Sram8T,
        BitcellKind::Cam,
        BitcellKind::Edram,
        BitcellKind::DualPort,
    ];
    // A service-shaped batch: every bitcell at 16x10 x4 plus repeated
    // requests for three of them (duplicates are validated once; the
    // sims share size-sorted lockstep panels).
    let mixed: Vec<(BrickSpec, usize)> = kinds
        .iter()
        .chain([BitcellKind::Sram8T, BitcellKind::Sram6T, BitcellKind::Cam].iter())
        .map(|&k| (BrickSpec::new(k, 16, 10).unwrap(), 4usize))
        .collect();
    // All-distinct configurations of one shape.
    let unique: Vec<(BrickSpec, usize)> = kinds
        .iter()
        .map(|&k| (BrickSpec::new(k, 16, 10).unwrap(), 4usize))
        .collect();
    // A `golden_sweep`-shaped batch: four configurations that differ in
    // bitcell, words, bits and stack, so every sim has its own time
    // step and length.
    let unlike: Vec<(BrickSpec, usize)> = [
        (BitcellKind::Sram6T, 16, 24, 8usize),
        (BitcellKind::Sram8T, 32, 12, 2),
        (BitcellKind::Edram, 64, 16, 1),
        (BitcellKind::DualPort, 32, 30, 4),
    ]
    .iter()
    .map(|&(k, words, bits, stack)| (BrickSpec::new(k, words, bits).unwrap(), stack))
    .collect();

    let mut group = c.benchmark_group("golden_batch");
    group.sample_size(10);
    group.bench_function("mixed_8_configs_16x10_x4", |b| {
        b.iter(|| black_box(compare_batch_results(&tech, &mixed)))
    });
    group.bench_function("unique_5_configs_16x10_x4", |b| {
        b.iter(|| black_box(compare_batch_results(&tech, &unique)))
    });
    group.bench_function("unlike_4_configs", |b| {
        b.iter(|| black_box(compare_batch_results(&tech, &unlike)))
    });
    group.finish();
}

fn main() {
    let mut c = Bench::from_args("golden_transient");
    bench_tool_vs_golden(&mut c);
    c.finish();
}
