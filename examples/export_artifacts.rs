//! Exports the flow's side artifacts to `target/artifacts/`: the Liberty
//! library of generated bricks, an SVG of a placed SRAM, and a VCD of a
//! golden brick read — the files a downstream EDA user would pull out of
//! the flow.
//!
//! Run with `cargo run --release --example export_artifacts`.

use lim_repro::lim::sram::{self, SramConfig};
use lim_repro::lim_brick::compiler::SENSE_INPUT_CAP;
use lim_repro::lim_brick::{liberty, BitcellKind, BrickCompiler, BrickLibrary, BrickSpec};
use lim_repro::lim_circuit::extract::append_ladder;
use lim_repro::lim_circuit::{vcd, Circuit, TransientSim};
use lim_repro::lim_physical::floorplan::{Floorplan, FloorplanOptions};
use lim_repro::lim_physical::place::{place, PlaceEffort};
use lim_repro::lim_physical::svg;
use lim_repro::lim_tech::units::{Picoseconds, Volts};
use lim_repro::lim_tech::Technology;
use std::fs;
use std::path::Path;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out = Path::new("target/artifacts");
    fs::create_dir_all(out)?;
    let tech = Technology::cmos65();

    // 1. Liberty library of a small brick family.
    let specs = [
        BrickSpec::new(BitcellKind::Sram8T, 16, 10)?,
        BrickSpec::new(BitcellKind::Cam, 16, 10)?,
    ];
    let lib = BrickLibrary::generate(&tech, &specs, &[1, 2, 4])?;
    let lib_text = liberty::emit_library("lim_bricks", &lib);
    fs::write(out.join("lim_bricks.lib"), &lib_text)?;
    println!(
        "wrote {} ({} cells, {} bytes)",
        out.join("lim_bricks.lib").display(),
        lib.len(),
        lib_text.len()
    );

    // 2. SVG of a placed 64x10 two-bank SRAM.
    let mut lib2 = BrickLibrary::new();
    let cfg = SramConfig::new(64, 10, 2, 16)?;
    let netlist = sram::generate(&tech, &cfg, &mut lib2)?;
    let fp = Floorplan::build(&tech, &netlist, &lib2, &FloorplanOptions::default())?;
    let pl = place(&tech, &netlist, &fp, 7, PlaceEffort::default())?;
    let svg_text = svg::render(&netlist, &fp, &pl);
    fs::write(out.join("sram_64x10.svg"), &svg_text)?;
    println!(
        "wrote {} ({:.0} x {:.0} µm die)",
        out.join("sram_64x10.svg").display(),
        fp.width.value(),
        fp.height.value()
    );

    // 3. VCD of a read on the brick's extracted ladders: a step at the
    // wordline's near end charges it; once the far cell's gate passes
    // Vdd/2 its read stack discharges the precharged read bitline,
    // sensed at the bitline's near end.
    let brick = BrickCompiler::new(&tech).compile(&specs[0])?;
    let vdd = tech.vdd;
    let mut ckt = Circuit::new();
    let wl_drv = ckt.add_node("wl.drv");
    let wl = append_ladder(&mut ckt, Some(wl_drv), "wl", &brick.wl_ladder(), None);
    let wl_src = ckt.add_source(wl_drv, brick.wl_driver_resistance(), Volts::ZERO);
    ckt.schedule(wl_src, Picoseconds::ZERO, vdd);
    let sense = ckt.add_node("rbl.sense");
    ckt.add_cap(sense, SENSE_INPUT_CAP);
    ckt.set_initial(sense, vdd);
    let rbl = append_ladder(&mut ckt, Some(sense), "rbl", &brick.rbl_ladder(), Some(vdd));
    let (wl_at_cell, bl_at_cell) = (wl[wl.len() - 1], rbl[rbl.len() - 1]);
    let half = Volts::new(vdd.value() / 2.0);
    ckt.add_vc_switch_to_ground(bl_at_cell, brick.cell().read_stack_r, wl_at_cell, half);
    let dt = Picoseconds::new(0.1);
    let res = TransientSim::new(&ckt).run(Picoseconds::new(400.0), dt)?;
    let nodes = [wl_at_cell, bl_at_cell, sense];
    let vcd_text = vcd::dump_vcd(&ckt, &res, &nodes, dt, 5);
    fs::write(out.join("brick_read.vcd"), &vcd_text)?;
    println!("wrote {}", out.join("brick_read.vcd").display());
    // Confirm the read actually happened in the dump.
    let final_sense = res.final_voltage(sense);
    println!(
        "  (sense node discharged to {:.2} — the read completed)",
        final_sense
    );
    Ok(())
}
