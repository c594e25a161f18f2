//! Global-routing wire estimation (the `.spef` of the flow).
//!
//! Each net's length is its half-perimeter wirelength scaled by a
//! Steiner-tree correction for multi-pin nets; RC parasitics follow from
//! the technology wire constants, and sink pin capacitances come from the
//! standard-cell and brick libraries.

use crate::floorplan::Floorplan;
use crate::place::{hpwl, Placement};
use lim_brick::BrickLibrary;
use lim_rtl::{CellKind, NetId, Netlist};
use lim_tech::units::{Femtofarads, KiloOhms, Microns};
use lim_tech::Technology;

/// Wire and load estimate for one net.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetRoute {
    /// Estimated routed length.
    pub length: Microns,
    /// Wire capacitance.
    pub wire_cap: Femtofarads,
    /// Wire resistance.
    pub wire_res: KiloOhms,
    /// Total sink pin capacitance.
    pub pin_cap: Femtofarads,
}

impl NetRoute {
    /// Total load a driver of this net sees.
    pub fn total_cap(&self) -> Femtofarads {
        self.wire_cap + self.pin_cap
    }
}

/// Steiner correction: HPWL is exact for 2–3 pins; larger nets grow.
fn steiner_factor(pins: usize) -> f64 {
    if pins <= 3 {
        1.0
    } else {
        1.0 + 0.18 * ((pins - 3) as f64).sqrt()
    }
}

/// Pin positions of every net, built in one pass over the netlist and
/// stored flat (CSR), so per-net queries are slice lookups instead of
/// fresh allocations and full-netlist rescans.
///
/// Matches [`net_pin_positions`](crate::place::net_pin_positions) pin
/// for pin: one pin per (cell, net) incidence regardless of how many
/// cell pins the net drives, cells without a resolvable position
/// skipped, port pins appended last.
#[derive(Debug, Clone, PartialEq)]
pub struct NetPinIndex {
    offsets: Vec<usize>,
    pos: Vec<(f64, f64)>,
}

impl NetPinIndex {
    /// Builds the index for `netlist` under `placement`.
    pub fn build(netlist: &Netlist, placement: &Placement, floorplan: &Floorplan) -> Self {
        let n_nets = netlist.net_count();
        let cells = netlist.cells();

        // Resolve each cell's position once: placed std cells by their
        // slot, macros by the floorplan's center.
        let cell_pos: Vec<Option<(f64, f64)>> = cells
            .iter()
            .enumerate()
            .map(|(i, cell)| {
                placement.cell_pos[i].or_else(|| {
                    floorplan
                        .macros
                        .iter()
                        .find(|m| m.instance == cell.name)
                        .map(|m| {
                            let (x, y) = m.center();
                            (x.value(), y.value())
                        })
                })
            })
            .collect();

        // Count pass. `seen` stamps deduplicate nets within one cell
        // (a net on both an input and an output pin counts once).
        let mut count = vec![0usize; n_nets];
        let mut seen = vec![u32::MAX; n_nets];
        for (i, cell) in cells.iter().enumerate() {
            if cell_pos[i].is_none() {
                continue;
            }
            for &net in cell.inputs.iter().chain(cell.outputs.iter()) {
                if seen[net.index()] != i as u32 {
                    seen[net.index()] = i as u32;
                    count[net.index()] += 1;
                }
            }
        }
        for (net, _) in &placement.input_pins {
            count[net.index()] += 1;
        }
        for (net, _) in &placement.output_pins {
            count[net.index()] += 1;
        }

        let mut offsets = vec![0usize; n_nets + 1];
        for n in 0..n_nets {
            offsets[n + 1] = offsets[n] + count[n];
        }
        let mut cursor = offsets[..n_nets].to_vec();
        let mut pos = vec![(0.0, 0.0); offsets[n_nets]];

        // Fill pass, same order as the count: cells first, then ports.
        seen.fill(u32::MAX);
        for (i, cell) in cells.iter().enumerate() {
            let Some(p) = cell_pos[i] else { continue };
            for &net in cell.inputs.iter().chain(cell.outputs.iter()) {
                if seen[net.index()] != i as u32 {
                    seen[net.index()] = i as u32;
                    pos[cursor[net.index()]] = p;
                    cursor[net.index()] += 1;
                }
            }
        }
        for (net, p) in &placement.input_pins {
            pos[cursor[net.index()]] = *p;
            cursor[net.index()] += 1;
        }
        for (net, p) in &placement.output_pins {
            pos[cursor[net.index()]] = *p;
            cursor[net.index()] += 1;
        }
        NetPinIndex { offsets, pos }
    }

    /// Pin positions of one net.
    pub fn pins(&self, net: NetId) -> &[(f64, f64)] {
        &self.pos[self.offsets[net.index()]..self.offsets[net.index() + 1]]
    }
}

/// Estimates every net of the design. Indexed by net index.
///
/// # Errors
///
/// Propagates missing brick-library entries.
pub fn estimate(
    tech: &Technology,
    netlist: &Netlist,
    placement: &Placement,
    floorplan: &Floorplan,
    library: &BrickLibrary,
) -> Result<Vec<NetRoute>, crate::PhysicalError> {
    let mut routes = Vec::with_capacity(netlist.net_count());
    // Pin cap contributions per net.
    let mut pin_caps = vec![0.0f64; netlist.net_count()];
    for cell in netlist.cells() {
        match &cell.kind {
            CellKind::Gate { kind, drive } => {
                for &input in &cell.inputs {
                    pin_caps[input.index()] += kind.input_cap(tech, *drive).value();
                }
                if kind.is_sequential() {
                    if let Some(clk) = netlist.clock() {
                        pin_caps[clk.index()] += kind.clock_cap(tech, *drive).value();
                    }
                }
            }
            CellKind::Macro { lib_name } => {
                let entry = library.get(lib_name)?;
                for &input in &cell.inputs {
                    if Some(input) == netlist.clock() {
                        pin_caps[input.index()] += entry.clk_pin_cap.value();
                    } else {
                        pin_caps[input.index()] += entry.dwl_pin_cap.value();
                    }
                }
            }
            CellKind::Tie { .. } => {}
        }
    }

    let index = NetPinIndex::build(netlist, placement, floorplan);
    for (n, &pin_cap) in pin_caps.iter().enumerate() {
        let pins = index.pins(NetId::from_index(n));
        let length = Microns::new(hpwl(pins).value() * steiner_factor(pins.len()));
        routes.push(NetRoute {
            length,
            wire_cap: Femtofarads::new(tech.wire_c_per_um.value() * length.value()),
            wire_res: KiloOhms::new(tech.wire_r_per_um.value() * length.value()),
            pin_cap: Femtofarads::new(pin_cap),
        });
    }
    lim_obs::counter_add("route.nets", routes.len() as u64);
    Ok(routes)
}

/// Total routed wirelength.
pub fn total_wirelength(routes: &[NetRoute]) -> Microns {
    Microns::new(routes.iter().map(|r| r.length.value()).sum())
}

/// A coarse congestion map: routed demand per grid tile versus the
/// tile's track supply.
#[derive(Debug, Clone, PartialEq)]
pub struct CongestionMap {
    tiles_x: usize,
    tiles_y: usize,
    /// Demand in µm of wire per tile.
    demand: Vec<f64>,
    /// Routing supply per tile, µm of track.
    supply_per_tile: f64,
}

impl CongestionMap {
    /// Grid dimensions.
    pub fn dims(&self) -> (usize, usize) {
        (self.tiles_x, self.tiles_y)
    }

    /// Utilization of one tile (demand / supply).
    pub fn utilization(&self, x: usize, y: usize) -> f64 {
        self.demand[y * self.tiles_x + x] / self.supply_per_tile
    }

    /// The most congested tile's utilization.
    pub fn peak_utilization(&self) -> f64 {
        self.demand
            .iter()
            .fold(0.0f64, |m, &d| m.max(d / self.supply_per_tile))
    }

    /// Fraction of tiles above 100 % utilization (overflow).
    pub fn overflow_fraction(&self) -> f64 {
        if self.demand.is_empty() {
            return 0.0;
        }
        self.demand
            .iter()
            .filter(|&&d| d > self.supply_per_tile)
            .count() as f64
            / self.demand.len() as f64
    }
}

/// Builds the congestion map by spreading each net's wirelength uniformly
/// over the tiles its bounding box covers.
pub fn congestion(
    netlist: &Netlist,
    placement: &crate::place::Placement,
    floorplan: &Floorplan,
    routes: &[NetRoute],
    tile_um: f64,
) -> CongestionMap {
    let tiles_x = (floorplan.width.value() / tile_um).ceil().max(1.0) as usize;
    let tiles_y = (floorplan.height.value() / tile_um).ceil().max(1.0) as usize;
    let mut demand = vec![0.0f64; tiles_x * tiles_y];
    // Supply: ~1 track per 0.2 µm pitch on each of 2 layers across the
    // tile, i.e. tile_um/0.2 tracks × tile_um length × 2.
    let supply_per_tile = (tile_um / 0.2) * tile_um * 2.0;

    let index = NetPinIndex::build(netlist, placement, floorplan);
    for (n, route) in routes.iter().enumerate() {
        let pins = index.pins(NetId::from_index(n));
        if pins.len() < 2 {
            continue;
        }
        let (mut x0, mut x1, mut y0, mut y1) = (f64::MAX, f64::MIN, f64::MAX, f64::MIN);
        for &(x, y) in pins {
            x0 = x0.min(x);
            x1 = x1.max(x);
            y0 = y0.min(y);
            y1 = y1.max(y);
        }
        let tx0 = ((x0 / tile_um) as usize).min(tiles_x - 1);
        let tx1 = ((x1 / tile_um) as usize).min(tiles_x - 1);
        let ty0 = ((y0 / tile_um) as usize).min(tiles_y - 1);
        let ty1 = ((y1 / tile_um) as usize).min(tiles_y - 1);
        let n_tiles = ((tx1 - tx0 + 1) * (ty1 - ty0 + 1)) as f64;
        let per_tile = route.length.value() / n_tiles;
        for ty in ty0..=ty1 {
            for tx in tx0..=tx1 {
                demand[ty * tiles_x + tx] += per_tile;
            }
        }
    }
    CongestionMap {
        tiles_x,
        tiles_y,
        demand,
        supply_per_tile,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::FloorplanOptions;
    use crate::place::{place, PlaceEffort};
    use lim_rtl::generators::decoder;

    #[test]
    fn routes_cover_every_net() {
        let tech = Technology::cmos65();
        let dec = decoder("dec", 4, 16, true).unwrap();
        let lib = BrickLibrary::new();
        let fp = Floorplan::build(&tech, &dec, &lib, &FloorplanOptions::default()).unwrap();
        let pl = place(&tech, &dec, &fp, 1, PlaceEffort::default()).unwrap();
        let routes = estimate(&tech, &dec, &pl, &fp, &lib).unwrap();
        assert_eq!(routes.len(), dec.net_count());
        assert!(total_wirelength(&routes).value() > 0.0);
        // Loaded nets have pin cap; every driven net with sinks has load.
        let fanout = dec.fanout();
        for (i, r) in routes.iter().enumerate() {
            if fanout.count(NetId::from_index(i)) > 0 {
                assert!(r.pin_cap.value() > 0.0, "net {i} has sinks but no pin cap");
            }
        }
    }

    #[test]
    fn pin_index_matches_per_net_scan() {
        let tech = Technology::cmos65();
        let dec = decoder("dec", 5, 32, true).unwrap();
        let lib = BrickLibrary::new();
        let fp = Floorplan::build(&tech, &dec, &lib, &FloorplanOptions::default()).unwrap();
        let pl = place(&tech, &dec, &fp, 3, PlaceEffort::default()).unwrap();
        let index = NetPinIndex::build(&dec, &pl, &fp);
        for n in 0..dec.net_count() {
            let net = NetId::from_index(n);
            let scanned = crate::place::net_pin_positions(&dec, &pl, &fp, net);
            assert_eq!(index.pins(net), scanned.as_slice(), "net {n}");
        }
    }

    #[test]
    fn steiner_grows_with_pins() {
        assert_eq!(steiner_factor(2), 1.0);
        assert_eq!(steiner_factor(3), 1.0);
        assert!(steiner_factor(10) > steiner_factor(4));
    }

    #[test]
    fn congestion_map_sane() {
        let tech = Technology::cmos65();
        let dec = decoder("dec", 5, 32, true).unwrap();
        let lib = BrickLibrary::new();
        let fp = Floorplan::build(&tech, &dec, &lib, &FloorplanOptions::default()).unwrap();
        let pl = place(&tech, &dec, &fp, 2, PlaceEffort::default()).unwrap();
        let routes = estimate(&tech, &dec, &pl, &fp, &lib).unwrap();
        let map = congestion(&dec, &pl, &fp, &routes, 10.0);
        let (tx, ty) = map.dims();
        assert!(tx >= 1 && ty >= 1);
        assert!(map.peak_utilization() > 0.0);
        // A small decoder should route cleanly.
        assert!(
            map.overflow_fraction() < 0.25,
            "overflow {}",
            map.overflow_fraction()
        );
        // Total demand conserved: sum over tiles = total wirelength of
        // multi-pin nets.
        let fanout = dec.fanout();
        let ml_total: f64 = (0..dec.net_count())
            .filter(|&i| {
                let pins = fanout.count(NetId::from_index(i))
                    + dec.primary_inputs().iter().filter(|&&n| n.index() == i).count()
                    + dec.primary_outputs().iter().filter(|&&n| n.index() == i).count()
                    + 1;
                pins >= 2
            })
            .map(|i| routes[i].length.value())
            .sum();
        let mapped: f64 = (0..ty)
            .flat_map(|y| (0..tx).map(move |x| (x, y)))
            .map(|(x, y)| map.utilization(x, y) * (10.0 / 0.2) * 10.0 * 2.0)
            .sum();
        // Driverless/singleton nets may differ slightly; allow 20 %.
        assert!(
            (mapped - ml_total).abs() / ml_total.max(1.0) < 0.2,
            "mapped {mapped} vs total {ml_total}"
        );
    }
}
