//! Regenerates Table 1: tool estimation vs SPICE (golden transient) for
//! read delay and read/write energy, on 16x10 b and 32x12 b 8T bricks at
//! 1x / 4x / 8x stacking, reading a word of alternating bits.
//!
//! Run with `cargo run --release -p lim-bench --bin table1`.
//! Pass `--json` for machine-readable table output.

use lim_bench::{finish, pct, say, Table};
use lim_obs::Span;
use lim_brick::golden::compare_batch_results;
use lim_brick::{BitcellKind, BrickSpec};
use lim_tech::Technology;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let run = Span::enter("table1");
    let tech = Technology::cmos65();

    let bricks = [
        BrickSpec::new(BitcellKind::Sram8T, 16, 10)?,
        BrickSpec::new(BitcellKind::Sram8T, 32, 12)?,
    ];
    let stacks = [1usize, 4, 8];

    say("Table 1 — Tool estimation vs golden transient (\"SPICE\")");
    say("Paper bands: delay 2-7% | read energy 0-4% | write energy 0-2%\n");

    let table = Table::new(
        "table1",
        &[
            ("brick", 14),
            ("stack", 6),
            ("tool[ps]", 11),
            ("gold[ps]", 11),
            ("err", 7),
            ("toolE[pJ]", 11),
            ("goldE[pJ]", 11),
            ("errR", 7),
            ("errW", 7),
        ],
    );

    let configs: Vec<(BrickSpec, usize)> = bricks
        .iter()
        .flat_map(|&spec| stacks.iter().map(move |&stack| (spec, stack)))
        .collect();
    let results = compare_batch_results(&tech, &configs).results;
    for ((spec, stack), cmp) in configs.iter().zip(results) {
        let cmp = cmp?;
        table.add_row(&[
            format!("{}x{}b", spec.words(), spec.bits()),
            format!("{stack}x"),
            format!("{:.0}", cmp.tool.read_delay.value()),
            format!("{:.0}", cmp.golden.read_delay.value()),
            pct(cmp.delay_error()),
            format!("{:.2}", cmp.tool.read_energy.to_picojoules().value()),
            format!("{:.2}", cmp.golden.read_energy.to_picojoules().value()),
            pct(cmp.read_energy_error()),
            pct(cmp.write_energy_error()),
        ]);
    }
    drop(run);
    finish("table1");
    Ok(())
}
