//! Regenerates Fig. 6: latency and energy of the LiM CAM-SpGEMM chip vs
//! the heap/FIFO baseline across the sparse-matrix benchmark suite.
//!
//! Paper silicon: LiM 475 MHz / 72 mW, baseline 725 MHz / 96 mW;
//! completion 7x–250x faster and 10x–310x more energy-efficient for LiM.
//!
//! Run with `cargo run --release -p lim-bench --bin fig6`.
//! Pass `--self-derived` to use operating points from our own physical
//! synthesis of the two cores instead of the paper's measured silicon.
//! Pass `--json` for machine-readable table output; set `LIM_OBS_OUT`
//! to capture span/counter telemetry of the run.

use lim::cam::SpgemmCoreConfig;
use lim::flow::LimFlow;
use lim_bench::{finish, say, Table};
use lim_obs::Span;
use lim_spgemm::accel::heap::HeapAccelerator;
use lim_spgemm::accel::lim_cam::LimCamAccelerator;
use lim_spgemm::energy::{ChipComparison, ChipPowerModel};
use lim_spgemm::suite::{fig6_suite, SuiteScale};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let self_derived = std::env::args().any(|a| a == "--self-derived");
    let _run = Span::enter("fig6");

    let (lim_chip, heap_chip) = if self_derived {
        let _synth = Span::enter("synthesize_cores");
        say("synthesizing both cores (32 columns, 16x10b CAMs)...");
        let mut flow = LimFlow::cmos65();
        flow.options.effort = lim_physical::place::PlaceEffort::new(0.2);
        let cfg = SpgemmCoreConfig::paper();
        let lim_block = flow.synthesize_lim_spgemm(&cfg)?;
        let heap_block = flow.synthesize_heap_spgemm(&cfg)?;
        say(&format!(
            "  LiM core:  {:.0} MHz, {:.1} mW   (paper: 475 MHz, 72 mW)",
            lim_block.report.fmax.value(),
            lim_block.report.power.total().value()
        ));
        say(&format!(
            "  heap core: {:.0} MHz, {:.1} mW   (paper: 725 MHz, 96 mW)",
            heap_block.report.fmax.value(),
            heap_block.report.power.total().value()
        ));
        (
            ChipPowerModel::from_block(&lim_block),
            ChipPowerModel::from_block(&heap_block),
        )
    } else {
        (ChipPowerModel::paper_lim(), ChipPowerModel::paper_heap())
    };

    let lim_accel = LimCamAccelerator::paper_chip();
    let heap_accel = HeapAccelerator::paper_chip();

    say("Fig. 6 — SpGEMM completion latency & energy, LiM vs non-LiM");
    say(&format!(
        "chips: LiM {:.0} MHz / {:.1} mW | baseline {:.0} MHz / {:.1} mW",
        lim_chip.fmax.value(),
        lim_chip.power.value(),
        heap_chip.fmax.value(),
        heap_chip.power.value()
    ));
    say("paper bands: speedup 7x-250x | energy saving 10x-310x\n");

    let table = Table::new(
        "fig6",
        &[
            ("bench", 9),
            ("n", 8),
            ("nnz", 10),
            ("maxcol", 11),
            ("limcyc", 11),
            ("heapcyc", 11),
            ("lim[µs]", 11),
            ("speedup", 9),
            ("energy", 9),
        ],
    );

    let suite = fig6_suite(SuiteScale::Full);
    let mut speedups = Vec::new();
    let mut savings = Vec::new();
    for bench in suite {
        let _bench_span = Span::enter(bench.name);
        let m = &bench.matrix;
        let lim = lim_accel.multiply(m, m)?;
        let heap = heap_accel.multiply(m, m)?;
        assert!(
            lim.product.approx_eq(&heap.product, 1e-9),
            "accelerators disagree on {}",
            bench.name
        );
        let cmp = ChipComparison::new(&lim_chip, lim.stats.cycles, &heap_chip, heap.stats.cycles);
        speedups.push(cmp.speedup());
        savings.push(cmp.energy_saving());
        let stats = bench.stats();
        table.add_row(&[
            bench.name.into(),
            format!("{}", stats.n),
            format!("{}", stats.nnz),
            format!("{}", stats.max_col_nnz),
            format!("{}", lim.stats.cycles),
            format!("{}", heap.stats.cycles),
            format!("{:.1}", cmp.lim_latency_us),
            format!("{:.1}x", cmp.speedup()),
            format!("{:.1}x", cmp.energy_saving()),
        ]);
    }

    let min_s = speedups.iter().cloned().fold(f64::INFINITY, f64::min);
    let max_s = speedups.iter().cloned().fold(0.0, f64::max);
    let min_e = savings.iter().cloned().fold(f64::INFINITY, f64::min);
    let max_e = savings.iter().cloned().fold(0.0, f64::max);
    say(&format!(
        "\nmeasured range: speedup {min_s:.1}x – {max_s:.1}x (paper 7x-250x), \
         energy {min_e:.1}x – {max_e:.1}x (paper 10x-310x)"
    ));
    drop(_run);
    finish("fig6");
    Ok(())
}
