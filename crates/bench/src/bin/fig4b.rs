//! Regenerates Fig. 4b: chip measurements vs library-based simulation for
//! the taped-out SRAM configurations A–E.
//!
//! | Config | SRAM | partitions | stack of 16x10b bricks |
//! |---|---|---|---|
//! | A | 16x10   | 1 | 1x |
//! | B | 32x10   | 1 | 2x |
//! | C | 64x10   | 1 | 4x |
//! | D | 128x10  | 1 | 8x |
//! | E | 128x10  | 4 | 2x per bank |
//!
//! Expected trends (paper §3): perf A>B>C>D, B>E>D; energy grows A→D with
//! E below D (bank gating); area(E) > area(D).
//!
//! Run with `cargo run --release -p lim-bench --bin fig4b`.
//! Pass `--json` for machine-readable table output.

use lim::chip::SiliconEmulation;
use lim::flow::LimFlow;
use lim::sram::SramConfig;
use lim_bench::{finish, say, Table};
use lim_obs::Span;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let run = Span::enter("fig4b");
    let mut flow = LimFlow::cmos65();
    let tech = flow.technology().clone();

    let configs: [(&str, SramConfig); 5] = [
        ("A", SramConfig::new(16, 10, 1, 16)?),
        ("B", SramConfig::new(32, 10, 1, 16)?),
        ("C", SramConfig::new(64, 10, 1, 16)?),
        ("D", SramConfig::new(128, 10, 1, 16)?),
        ("E", SramConfig::new(128, 10, 4, 16)?),
    ];

    say("Fig. 4b — chip measurement (sampled dies) vs library simulation");
    say("performance in GHz; energy per access normalized to config A\n");

    let table = Table::new(
        "fig4b",
        &[
            ("cfg", 3),
            ("organization", 22),
            ("sim[GHz]", 10),
            ("corners[GHz]", 16),
            ("chip[GHz]", 10),
            ("chip range", 16),
            ("E/acc", 9),
            ("area", 9),
        ],
    );

    let mut base_energy: Option<f64> = None;
    let mut base_area: Option<f64> = None;
    for (i, (name, cfg)) in configs.iter().enumerate() {
        let block = flow.synthesize_sram(cfg)?;
        let emu = SiliconEmulation::new(&tech, 1000 + i as u64);
        let lot = emu.measure_lot(&block.report, 12);
        let corners = emu.simulation_corners(&block.report);

        // Energy per access at fmax: dynamic energy per cycle.
        let energy = block.report.energy_per_cycle.value();
        let base_e = *base_energy.get_or_insert(energy);
        let area = block.report.die_area.value();
        let base_a = *base_area.get_or_insert(area);

        table.add_row(&[
            (*name).into(),
            format!(
                "{}x10 p{} x{}",
                cfg.words(),
                cfg.partitions(),
                cfg.stack()
            ),
            format!("{:.2}", block.report.fmax.to_gigahertz().value()),
            format!(
                "{:.2}/{:.2}",
                corners.worst.to_gigahertz().value(),
                corners.best.to_gigahertz().value()
            ),
            format!("{:.2}", lot.fmax_mean.to_gigahertz().value()),
            format!(
                "{:.2}-{:.2}",
                lot.fmax_min.to_gigahertz().value(),
                lot.fmax_max.to_gigahertz().value()
            ),
            format!("{:.2}", energy / base_e),
            format!("{:.2}", area / base_a),
        ]);
    }
    say("\ntrends to check: perf A>B>C>D and B>E>D; energy(E) < energy(D); area(E) > area(D)");
    drop(run);
    finish("fig4b");
    Ok(())
}
