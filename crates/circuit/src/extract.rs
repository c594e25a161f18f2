//! Parasitic extraction: RC ladders stitched into circuits.
//!
//! An extracted wordline or bitline is a uniform RC ladder
//! ([`RcLadder`]), the equivalent of the paper's "RC extracted bitcell
//! array layouts" that its SPICE validation runs on. `lim-brick` supplies
//! the numbers (from bitcell geometry and technology constants);
//! [`append_ladder`] turns a ladder into circuit elements, and
//! [`recharge_energy`] charges a read for restoring its precharged nodes.

use crate::netlist::{Circuit, NodeId};
use crate::transient::TransientResult;
use lim_tech::units::{Femtojoules, Volts};
use lim_tech::wire::RcLadder;

/// Appends `ladder` to `circuit` behind node `from` and returns its taps,
/// near end first.
///
/// Tap `i` is a node named `{name}[i]`. Element by element, it gets one
/// segment resistance to the tap before it (tap 0 to `from`; with
/// `from = None` tap 0 is the near end and has none), one segment's wire
/// capacitance, one tap load and, when `precharge` is given, that initial
/// voltage.
pub fn append_ladder(
    circuit: &mut Circuit,
    from: Option<NodeId>,
    name: &str,
    ladder: &RcLadder,
    precharge: Option<Volts>,
) -> Vec<NodeId> {
    let mut prev = from;
    (0..ladder.segments)
        .map(|i| {
            let tap = circuit.add_node(format!("{name}[{i}]"));
            if let Some(p) = prev {
                circuit.add_resistor(p, tap, ladder.r_segment);
            }
            circuit.add_cap(tap, ladder.c_segment);
            circuit.add_cap(tap, ladder.c_tap);
            if let Some(v) = precharge {
                circuit.set_initial(tap, v);
            }
            prev = Some(tap);
            tap
        })
        .collect()
}

/// Energy needed to restore the given (partially discharged) nodes to
/// `vdd`: `Σ C_i · Vdd · (Vdd − V_final,i)`.
///
/// This is how bitline precharge energy is charged to a read: the supply
/// pays on the restore edge.
pub fn recharge_energy(
    circuit: &Circuit,
    result: &TransientResult,
    nodes: &[NodeId],
    vdd: Volts,
) -> Femtojoules {
    let mut e = 0.0;
    for &n in nodes {
        let c = circuit.cap_at(n).value();
        let dv = (vdd.value() - result.final_voltage(n).value()).max(0.0);
        e += c * vdd.value() * dv;
    }
    Femtojoules::new(e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transient::TransientSim;
    use crate::waveform::Edge;
    use lim_tech::units::{Femtofarads, KiloOhms, Picoseconds};

    const VDD: f64 = 1.2;

    fn ladder(segments: usize, r: f64, c_segment: f64, c_tap: f64) -> RcLadder {
        RcLadder {
            segments,
            r_segment: KiloOhms::new(r),
            c_segment: Femtofarads::new(c_segment),
            c_tap: Femtofarads::new(c_tap),
        }
    }

    /// A read path: a driven 10-tap wordline whose cell at `column`, once
    /// its gate passes Vdd/2, discharges a precharged 16-tap bitline at
    /// `row`, sensed at the bitline's near end. Returns the circuit, the
    /// cell's wordline tap, and the bitline nodes (sense node first).
    fn read_circuit(column: usize, row: usize) -> (Circuit, NodeId, Vec<NodeId>) {
        let vdd = Volts::new(VDD);
        let mut ckt = Circuit::new();
        let drv = ckt.add_node("wl.drv");
        let wl = append_ladder(
            &mut ckt,
            Some(drv),
            "wl",
            &ladder(10, 0.01, 0.05, 0.2),
            None,
        );
        let src = ckt.add_source(drv, KiloOhms::new(1.0), Volts::ZERO);
        ckt.schedule(src, Picoseconds::ZERO, vdd);
        let sense = ckt.add_node("bl.sense");
        ckt.add_cap(sense, Femtofarads::new(2.0));
        ckt.set_initial(sense, vdd);
        let mut bitline = vec![sense];
        let bl = ladder(16, 0.005, 0.03, 0.15);
        bitline.extend(append_ladder(&mut ckt, Some(sense), "bl", &bl, Some(vdd)));
        let threshold = Volts::new(VDD / 2.0);
        ckt.add_vc_switch_to_ground(bitline[row + 1], KiloOhms::new(8.0), wl[column], threshold);
        (ckt, wl[column], bitline)
    }

    #[test]
    fn append_ladder_stamps_each_segment_in_order() {
        let spec = ladder(3, 0.02, 0.1, 0.25);
        let mut ckt = Circuit::new();
        let drv = ckt.add_node("drv");
        let taps = append_ladder(&mut ckt, Some(drv), "bl", &spec, Some(Volts::new(VDD)));
        assert_eq!(taps.len(), 3);
        let names: Vec<&str> = taps.iter().map(|&t| ckt.node_name(t)).collect();
        assert_eq!(names, ["bl[0]", "bl[1]", "bl[2]"]);
        let ends: Vec<(usize, usize)> = ckt.resistors.iter().map(|r| (r.a, r.b)).collect();
        assert_eq!(
            ends,
            [
                (drv.0, taps[0].0),
                (taps[0].0, taps[1].0),
                (taps[1].0, taps[2].0)
            ]
        );
        for &t in &taps {
            assert_eq!(ckt.cap_at(t).value(), 0.1 + 0.25);
            assert_eq!(ckt.initial_v[t.0], VDD);
        }
        assert_eq!(ckt.initial_v[drv.0], 0.0);

        // Without a node in front, tap 0 is the near end: no resistor.
        let mut ckt = Circuit::new();
        let taps = append_ladder(&mut ckt, None, "arbl", &spec, None);
        let ends: Vec<(usize, usize)> = ckt.resistors.iter().map(|r| (r.a, r.b)).collect();
        assert_eq!(ends, [(taps[0].0, taps[1].0), (taps[1].0, taps[2].0)]);
        assert!(ckt.initial_v.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn driven_ladder_reaches_vdd() {
        let mut ckt = Circuit::new();
        let drv = ckt.add_node("wl.drv");
        let taps = append_ladder(&mut ckt, Some(drv), "wl", &ladder(8, 0.02, 0.1, 0.25), None);
        let src = ckt.add_source(drv, KiloOhms::new(2.0), Volts::ZERO);
        ckt.schedule(src, Picoseconds::ZERO, Volts::new(VDD));
        let res = TransientSim::new(&ckt)
            .run(Picoseconds::new(200.0), Picoseconds::new(0.05))
            .unwrap();
        let far = *taps.last().unwrap();
        assert!((res.final_voltage(far).value() - VDD).abs() < 0.01);
        // Farther taps cross later.
        let half = Volts::new(VDD / 2.0);
        let t_near = res.cross_time(taps[0], half, Edge::Rising).unwrap();
        let t_far = res.cross_time(far, half, Edge::Rising).unwrap();
        assert!(t_far > t_near);
    }

    #[test]
    fn read_path_causally_discharges_bitline() {
        let (ckt, wl_at_cell, bitline) = read_circuit(9, 15);
        let res = TransientSim::new(&ckt)
            .run(Picoseconds::new(800.0), Picoseconds::new(0.1))
            .unwrap();
        let half = Volts::new(VDD / 2.0);
        let t_wl = res
            .cross_time(wl_at_cell, half, Edge::Rising)
            .expect("wordline rises");
        let t_sense = res
            .cross_time(bitline[0], half, Edge::Falling)
            .expect("sense node falls");
        assert!(
            t_sense > t_wl,
            "bitline cannot discharge before the wordline arrives"
        );
        // Recharge energy is positive and bounded by full-swing C·Vdd².
        let e = recharge_energy(&ckt, &res, &bitline, Volts::new(VDD));
        let cap: f64 = bitline.iter().map(|&n| ckt.cap_at(n).value()).sum();
        assert!(e.value() > 0.0);
        assert!(e.value() <= cap * VDD * VDD + 1e-9);
    }

    #[test]
    fn farther_cell_reads_slower() {
        let read = |column, row| {
            let (ckt, _, bitline) = read_circuit(column, row);
            let res = TransientSim::new(&ckt)
                .run(Picoseconds::new(800.0), Picoseconds::new(0.1))
                .unwrap();
            res.cross_time(bitline[0], Volts::new(VDD / 2.0), Edge::Falling)
                .unwrap()
        };
        assert!(read(9, 15) > read(0, 0));
    }
}
