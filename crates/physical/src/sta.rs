//! Static timing analysis (the PrimeTime stand-in).
//!
//! Slew-aware arrival propagation over the mapped netlist using the
//! NLDM-lite gate model of `lim-rtl::stdcell` and the generated brick
//! LUTs of `lim-brick::library`. Endpoints are flip-flop data pins
//! (constant setup), macro input pins (library setup) and primary
//! outputs; the worst endpoint sets the minimum clock period.

use crate::error::PhysicalError;
use crate::route::NetRoute;
use lim_brick::BrickLibrary;
use lim_rtl::{CellKind, NetId, Netlist};
use lim_tech::units::{Megahertz, Picoseconds};
use lim_tech::Technology;

/// Setup requirement of a standard-cell flip-flop.
pub const DFF_SETUP: Picoseconds = Picoseconds::new(20.0);
/// Hold requirement of a standard-cell flip-flop.
pub const DFF_HOLD: Picoseconds = Picoseconds::new(5.0);
/// External input delay assumed for the hold pass: primary inputs are
/// launched by upstream registers, so they cannot change before this
/// offset after the clock edge (the SDC `set_input_delay -min`).
pub const INPUT_MIN_DELAY: Picoseconds = Picoseconds::new(15.0);
/// Slew assumed at clock pins (an idealized clock tree).
pub const CLOCK_SLEW: Picoseconds = Picoseconds::new(20.0);
/// Slew of macro outputs (the brick's output buffer).
pub const MACRO_OUT_SLEW: Picoseconds = Picoseconds::new(30.0);

/// Result of timing analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingReport {
    /// Minimum clock period satisfying every endpoint.
    pub min_period: Picoseconds,
    /// Maximum clock frequency.
    pub fmax: Megahertz,
    /// The binding endpoint's name.
    pub worst_endpoint: String,
    /// Data arrival at the binding endpoint.
    pub worst_arrival: Picoseconds,
    /// Instance names from launch to capture along the critical path.
    pub critical_path: Vec<String>,
    /// Worst hold slack over all clocked endpoints (positive = clean;
    /// `None` when the design has no clocked endpoint).
    pub worst_hold_slack: Option<Picoseconds>,
    /// Number of timing endpoints evaluated.
    pub endpoints: usize,
}

#[derive(Debug, Clone, Copy)]
struct Arrival {
    time: f64,
    slew: f64,
    /// Index of the predecessor net on the worst path (for traceback).
    pred: Option<usize>,
}

/// Runs STA on a validated netlist with routed parasitics.
///
/// # Errors
///
/// * [`PhysicalError::Rtl`] for netlist validation failures.
/// * [`PhysicalError::Brick`] for missing library entries.
/// * [`PhysicalError::NoEndpoints`] when nothing constrains the clock.
pub fn analyze(
    tech: &Technology,
    netlist: &Netlist,
    routes: &[NetRoute],
    library: &BrickLibrary,
    input_slew: Picoseconds,
) -> Result<TimingReport, PhysicalError> {
    // Validation returns the topological order, which serves both the
    // max (setup) and min (hold) passes.
    let order = netlist.validate()?;
    let n_nets = netlist.net_count();
    let mut arrivals: Vec<Option<Arrival>> = vec![None; n_nets];
    // Which cell drives each net and its name (for traceback labels).
    let driver = netlist.driver_map();

    // Per-net wire delay, computed once up front instead of on every
    // pin visit of both passes.
    let wire_delays: Vec<f64> = routes
        .iter()
        .map(|r| r.wire_res.value() * (r.wire_cap.value() / 2.0 + r.pin_cap.value()))
        .collect();

    // Launch points: primary inputs at t=0, sequential outputs at clk-to-q.
    for &pi in netlist.primary_inputs() {
        arrivals[pi.index()] = Some(Arrival {
            time: 0.0,
            slew: if Some(pi) == netlist.clock() {
                CLOCK_SLEW.value()
            } else {
                input_slew.value()
            },
            pred: None,
        });
    }
    for cell in netlist.cells() {
        match &cell.kind {
            CellKind::Gate { kind, drive } if kind.is_sequential() => {
                let q = cell.outputs[0];
                let load = routes[q.index()].total_cap();
                let d = kind.delay(tech, *drive, load, CLOCK_SLEW);
                arrivals[q.index()] = Some(Arrival {
                    time: d.value(),
                    slew: kind.output_slew(tech, *drive, load).value(),
                    pred: None,
                });
            }
            CellKind::Macro { lib_name } => {
                let entry = library.get(lib_name)?;
                for &o in &cell.outputs {
                    let load = routes[o.index()].total_cap();
                    let d = entry.clk_to_q(load, CLOCK_SLEW);
                    arrivals[o.index()] = Some(Arrival {
                        time: d.value(),
                        slew: MACRO_OUT_SLEW.value(),
                        pred: None,
                    });
                }
            }
            CellKind::Tie { .. } => {
                arrivals[cell.outputs[0].index()] = Some(Arrival {
                    time: 0.0,
                    slew: 0.0,
                    pred: None,
                });
            }
            _ => {}
        }
    }

    let wire_delay = |net: NetId| -> f64 { wire_delays[net.index()] };

    // Propagate through combinational cells in topological order.
    for &cid in &order {
        let cell = netlist.cell(cid);
        let (kind, drive) = match &cell.kind {
            CellKind::Gate { kind, drive } if !kind.is_sequential() => (kind, *drive),
            _ => continue,
        };
        let mut worst: Option<Arrival> = None;
        for &input in &cell.inputs {
            let Some(a) = arrivals[input.index()] else {
                continue;
            };
            let at_pin = a.time + wire_delay(input);
            if worst.is_none_or(|w| at_pin > w.time) {
                worst = Some(Arrival {
                    time: at_pin,
                    slew: a.slew,
                    pred: Some(input.index()),
                });
            }
        }
        let Some(w) = worst else { continue };
        let out = cell.outputs[0];
        let load = routes[out.index()].total_cap();
        let delay = kind.delay(tech, drive, load, Picoseconds::new(w.slew));
        arrivals[out.index()] = Some(Arrival {
            time: w.time + delay.value(),
            slew: kind.output_slew(tech, drive, load).value(),
            pred: w.pred,
        });
    }

    // Endpoints. Names are derived lazily — only the binding endpoint
    // is ever formatted, so collecting thousands of endpoints does not
    // build thousands of strings.
    enum EndpointKind {
        /// D pin of the flip-flop at this cell index.
        DffD(usize),
        /// Non-clock input pin of the macro at this cell index.
        MacroPin(usize, NetId),
        /// Internal cycle bound of the macro at this cell index.
        MacroInternal(usize),
        /// Primary output.
        Po(NetId),
    }
    struct Endpoint {
        kind: EndpointKind,
        required: f64,
        via_net: usize,
    }
    impl EndpointKind {
        fn name(&self, netlist: &Netlist) -> String {
            match *self {
                EndpointKind::DffD(c) => format!("{}/D", netlist.cells()[c].name),
                EndpointKind::MacroPin(c, net) => {
                    format!("{}/{}", netlist.cells()[c].name, netlist.net_name(net))
                }
                EndpointKind::MacroInternal(c) => {
                    format!("{}/internal", netlist.cells()[c].name)
                }
                EndpointKind::Po(net) => format!("PO {}", netlist.net_name(net)),
            }
        }
    }
    let mut endpoints: Vec<Endpoint> = Vec::new();
    for (ci, cell) in netlist.cells().iter().enumerate() {
        match &cell.kind {
            CellKind::Gate { kind, .. } if kind.is_sequential() => {
                for &input in &cell.inputs {
                    if let Some(a) = arrivals[input.index()] {
                        endpoints.push(Endpoint {
                            kind: EndpointKind::DffD(ci),
                            required: a.time + wire_delay(input) + DFF_SETUP.value(),
                            via_net: input.index(),
                        });
                    }
                }
            }
            CellKind::Macro { lib_name } => {
                let entry = library.get(lib_name)?;
                for &input in &cell.inputs {
                    if Some(input) == netlist.clock() {
                        continue;
                    }
                    if let Some(a) = arrivals[input.index()] {
                        endpoints.push(Endpoint {
                            kind: EndpointKind::MacroPin(ci, input),
                            required: a.time
                                + wire_delay(input)
                                + entry.estimate.setup.value(),
                            via_net: input.index(),
                        });
                    }
                }
                // The macro's internal cycle also bounds the period.
                endpoints.push(Endpoint {
                    kind: EndpointKind::MacroInternal(ci),
                    required: entry.estimate.min_cycle().value(),
                    via_net: cell.outputs.first().map(|o| o.index()).unwrap_or(0),
                });
            }
            _ => {}
        }
    }
    for &po in netlist.primary_outputs() {
        if let Some(a) = arrivals[po.index()] {
            endpoints.push(Endpoint {
                kind: EndpointKind::Po(po),
                required: a.time + wire_delay(po),
                via_net: po.index(),
            });
        }
    }
    lim_obs::counter_add("sta.endpoints", endpoints.len() as u64);
    let worst = endpoints
        .iter()
        .max_by(|a, b| a.required.total_cmp(&b.required))
        .ok_or(PhysicalError::NoEndpoints)?;

    // ---- Hold analysis: earliest data arrival at clocked endpoints ----
    // Min-arrival propagation mirrors the max pass. Same delay model
    // (single corner); the structural short-path question is whether any
    // launch reaches a capture input faster than the hold window.
    let mut min_arrivals: Vec<Option<f64>> = vec![None; n_nets];
    for &pi in netlist.primary_inputs() {
        min_arrivals[pi.index()] = Some(INPUT_MIN_DELAY.value());
    }
    for cell in netlist.cells() {
        match &cell.kind {
            CellKind::Gate { kind, drive } if kind.is_sequential() => {
                let q = cell.outputs[0];
                let load = routes[q.index()].total_cap();
                min_arrivals[q.index()] =
                    Some(kind.delay(tech, *drive, load, CLOCK_SLEW).value());
            }
            CellKind::Macro { lib_name } => {
                let entry = library.get(lib_name)?;
                for &o in &cell.outputs {
                    let load = routes[o.index()].total_cap();
                    min_arrivals[o.index()] = Some(entry.clk_to_q(load, CLOCK_SLEW).value());
                }
            }
            CellKind::Tie { .. } => {
                min_arrivals[cell.outputs[0].index()] = Some(0.0);
            }
            _ => {}
        }
    }
    for &cid in &order {
        let cell = netlist.cell(cid);
        let (kind, drive) = match &cell.kind {
            CellKind::Gate { kind, drive } if !kind.is_sequential() => (kind, *drive),
            _ => continue,
        };
        let earliest = cell
            .inputs
            .iter()
            .filter_map(|&i| min_arrivals[i.index()].map(|a| a + wire_delay(i)))
            .fold(f64::INFINITY, f64::min);
        if earliest.is_finite() {
            let out = cell.outputs[0];
            let load = routes[out.index()].total_cap();
            let delay = kind.delay(tech, drive, load, CLOCK_SLEW);
            min_arrivals[out.index()] = Some(earliest + delay.value());
        }
    }
    let mut worst_hold_slack: Option<f64> = None;
    for cell in netlist.cells() {
        match &cell.kind {
            CellKind::Gate { kind, .. } if kind.is_sequential() => {
                for &input in &cell.inputs {
                    if let Some(a) = min_arrivals[input.index()] {
                        let slack = a + wire_delay(input) - DFF_HOLD.value();
                        worst_hold_slack =
                            Some(worst_hold_slack.map_or(slack, |w: f64| w.min(slack)));
                    }
                }
            }
            CellKind::Macro { lib_name } => {
                let entry = library.get(lib_name)?;
                for &input in &cell.inputs {
                    if Some(input) == netlist.clock() {
                        continue;
                    }
                    if let Some(a) = min_arrivals[input.index()] {
                        let slack =
                            a + wire_delay(input) - entry.estimate.hold.value();
                        worst_hold_slack =
                            Some(worst_hold_slack.map_or(slack, |w: f64| w.min(slack)));
                    }
                }
            }
            _ => {}
        }
    }

    // Trace the critical path back through predecessor nets.
    let mut path = Vec::new();
    let mut cur = Some(worst.via_net);
    let mut guard = 0;
    while let Some(net) = cur {
        if let Some(d) = driver[net] {
            path.push(netlist.cell(d).name.clone());
        } else {
            path.push(format!("PI {}", netlist.net_name(NetId::from_index(net))));
        }
        cur = arrivals[net].and_then(|a| a.pred);
        guard += 1;
        if guard > n_nets {
            break;
        }
    }
    path.reverse();

    let min_period = Picoseconds::new(worst.required.max(1.0));
    Ok(TimingReport {
        min_period,
        fmax: min_period.to_frequency(),
        worst_endpoint: worst.kind.name(netlist),
        worst_arrival: Picoseconds::new(worst.required),
        critical_path: path,
        worst_hold_slack: worst_hold_slack.map(Picoseconds::new),
        endpoints: endpoints.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::{Floorplan, FloorplanOptions};
    use crate::place::{place, PlaceEffort};
    use crate::route::estimate;
    use lim_brick::{BitcellKind, BrickSpec};
    use lim_rtl::generators::{decoder, ripple_adder};

    fn run_sta(netlist: &Netlist, library: &BrickLibrary) -> TimingReport {
        let tech = Technology::cmos65();
        let fp =
            Floorplan::build(&tech, netlist, library, &FloorplanOptions::default()).unwrap();
        let pl = place(&tech, netlist, &fp, 3, PlaceEffort::default()).unwrap();
        let routes = estimate(&tech, netlist, &pl, &fp, library).unwrap();
        analyze(&tech, netlist, &routes, library, Picoseconds::new(20.0)).unwrap()
    }

    #[test]
    fn decoder_timing_reasonable() {
        let dec = decoder("dec", 5, 32, true).unwrap();
        let rep = run_sta(&dec, &BrickLibrary::new());
        // A handful of gate levels: tens to a few hundred ps.
        assert!(rep.min_period.value() > 10.0 && rep.min_period.value() < 1000.0,
            "period {}", rep.min_period);
        assert!(!rep.critical_path.is_empty());
        assert!(rep.worst_endpoint.starts_with("PO"));
    }

    #[test]
    fn wider_adder_is_slower() {
        let a4 = run_sta(&ripple_adder("a4", 4).unwrap(), &BrickLibrary::new());
        let a16 = run_sta(&ripple_adder("a16", 16).unwrap(), &BrickLibrary::new());
        assert!(a16.min_period > a4.min_period);
        // The ripple carry chain dominates: path length grows with width.
        assert!(a16.critical_path.len() > a4.critical_path.len());
    }

    #[test]
    fn macro_bounds_period() {
        let tech = Technology::cmos65();
        let spec = BrickSpec::new(BitcellKind::Sram8T, 16, 10).unwrap();
        let lib = BrickLibrary::generate(&tech, &[spec], &[2]).unwrap();
        let mut n = Netlist::new("mem");
        let clk = n.add_clock("clk");
        let en = n.add_input("en");
        let outs = n.add_macro("u_b", "brick_8t_16_10_x2", &[clk, en], 10, "arbl");
        for o in outs {
            n.mark_output(o);
        }
        let rep = run_sta(&n, &lib);
        let entry = lib.get("brick_8t_16_10_x2").unwrap();
        assert!(rep.min_period >= entry.estimate.min_cycle());
    }

    #[test]
    fn hold_analysis_reports_slack() {
        // A registered pipeline with a gate between flops: the short path
        // (Q → inverter → D) comfortably exceeds the hold window.
        let mut n = Netlist::new("hold");
        n.add_clock("clk");
        let d = n.add_input("d");
        let q1 = n.add_dff(d, 1.0, "q1");
        let inv = n
            .add_gate(lim_rtl::StdCellKind::Inv, 1.0, &[q1], "inv")
            .unwrap();
        let q2 = n.add_dff(inv, 1.0, "q2");
        n.mark_output(q2);
        let rep = run_sta(&n, &BrickLibrary::new());
        let slack = rep.worst_hold_slack.expect("clocked endpoints exist");
        assert!(slack.value() > 0.0, "hold slack {slack}");
    }

    #[test]
    fn combinational_design_has_no_hold_endpoints() {
        let dec = decoder("dec", 3, 8, false).unwrap();
        let rep = run_sta(&dec, &BrickLibrary::new());
        assert!(rep.worst_hold_slack.is_none());
    }

    #[test]
    fn registered_design_has_dff_endpoints() {
        let mut n = Netlist::new("reg");
        n.add_clock("clk");
        let d = n.add_input("d");
        let inv = n
            .add_gate(lim_rtl::StdCellKind::Inv, 1.0, &[d], "inv")
            .unwrap();
        let q = n.add_dff(inv, 1.0, "q");
        n.mark_output(q);
        let rep = run_sta(&n, &BrickLibrary::new());
        // Endpoint could be the DFF D pin or the PO; period covers both.
        assert!(rep.min_period.value() >= DFF_SETUP.value());
    }
}
