//! The one-call physical synthesis pipeline.
//!
//! Floorplan → place → route → STA → power, producing a [`BlockReport`]
//! with the quantities the paper's figures plot: maximum frequency,
//! energy per operation, and area.

use crate::clock::{self, ClockTreeReport};
use crate::error::PhysicalError;
use crate::floorplan::{Floorplan, FloorplanOptions};
use crate::place::{place, PlaceEffort, Placement};
use crate::power::{self, MacroActivity, PowerReport};
use crate::route::{self, NetRoute};
use crate::sta::{self, TimingReport};
use lim_brick::BrickLibrary;
use lim_rtl::{Netlist, SwitchingActivity};
use lim_tech::units::{Femtojoules, Megahertz, Microns, Picoseconds, SquareMicrons};
use lim_tech::Technology;
use std::time::Duration;

/// Options controlling one flow run.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowOptions {
    /// Floorplanning knobs.
    pub floorplan: FloorplanOptions,
    /// Placement seed (deterministic for a given seed).
    pub seed: u64,
    /// Placement effort.
    pub effort: PlaceEffort,
    /// Input pin slew assumption.
    pub input_slew: Picoseconds,
    /// Switching activity; `None` uses a uniform default profile.
    pub activity: Option<SwitchingActivity>,
    /// Uniform toggle rate when no activity is given.
    pub default_toggle_rate: f64,
    /// Macro access rates for power.
    pub macro_activity: MacroActivity,
}

impl Default for FlowOptions {
    fn default() -> Self {
        FlowOptions {
            floorplan: FloorplanOptions::default(),
            seed: 1,
            effort: PlaceEffort::default(),
            input_slew: Picoseconds::new(20.0),
            activity: None,
            default_toggle_rate: 0.15,
            macro_activity: MacroActivity::default(),
        }
    }
}

/// Per-stage wall-clock timings and effort counters for one flow run.
///
/// Durations are always measured (one `Instant` pair per stage), so
/// they are valid whether or not `lim-obs` collection is enabled; when
/// it is, the same stages also appear as spans named `floorplan`,
/// `place`, `route`, `sta`, `clock_tree` and `power` under `physical`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlowStats {
    /// Time in [`Floorplan::build`].
    pub floorplan: Duration,
    /// Time in placement: the analytic seed plus the refinement anneal.
    pub place: Duration,
    /// Time in route estimation.
    pub route: Duration,
    /// Time in static timing analysis.
    pub sta: Duration,
    /// Time in clock-tree synthesis.
    pub clock_tree: Duration,
    /// Time in power analysis.
    pub power: Duration,
    /// Annealing moves the placer actually evaluated (zero when the
    /// design had nothing to anneal).
    pub place_moves: usize,
    /// Annealing moves the placer accepted.
    pub place_accepted: usize,
    /// Refinement anneals the placer ran: 1 when the refinement ran, 0
    /// otherwise.
    pub place_starts: usize,
    /// Whether the analytic B2B seed ran (false only for designs with
    /// fewer than two cells to place).
    pub place_seeded: bool,
    /// Conjugate-gradient iterations the analytic seed spent (both
    /// axes; zero when unseeded).
    pub place_analytic_iters: usize,
    /// Legalization displacement of the analytic seed, rounded to whole
    /// µm (integer so `FlowStats` stays `Eq`; zero when unseeded).
    pub place_legalize_displacement_um: u64,
    /// Nets the router estimated.
    pub nets_routed: usize,
    /// Timing endpoints STA evaluated.
    pub sta_endpoints: usize,
}

impl FlowStats {
    /// Sum of all stage durations.
    pub fn total(&self) -> Duration {
        self.floorplan + self.place + self.route + self.sta + self.clock_tree + self.power
    }
}

/// Complete result of physically synthesizing one block.
#[derive(Debug, Clone)]
pub struct BlockReport {
    /// Design name.
    pub name: String,
    /// Maximum clock frequency.
    pub fmax: Megahertz,
    /// Minimum clock period.
    pub min_period: Picoseconds,
    /// Die area including macros and rows.
    pub die_area: SquareMicrons,
    /// Area of brick macros alone.
    pub macro_area: SquareMicrons,
    /// Standard-cell area.
    pub stdcell_area: SquareMicrons,
    /// Guard area charged for pattern incompatibility (non-LiM flows).
    pub guard_area: SquareMicrons,
    /// Total routed wirelength.
    pub wirelength: Microns,
    /// Dynamic + leakage power at fmax.
    pub power: PowerReport,
    /// Dynamic energy per clock cycle.
    pub energy_per_cycle: Femtojoules,
    /// Timing details.
    pub timing: TimingReport,
    /// Clock-tree estimate (`None` for purely combinational designs).
    pub clock_tree: Option<ClockTreeReport>,
    /// Per-stage timings and effort counters.
    pub stats: FlowStats,
}

/// The physical synthesis engine.
#[derive(Debug, Clone)]
pub struct PhysicalSynthesis<'a> {
    tech: &'a Technology,
    library: &'a BrickLibrary,
}

impl<'a> PhysicalSynthesis<'a> {
    /// Creates a flow over a technology and a brick library.
    pub fn new(tech: &'a Technology, library: &'a BrickLibrary) -> Self {
        PhysicalSynthesis { tech, library }
    }

    /// Runs the full pipeline on `netlist`.
    ///
    /// # Errors
    ///
    /// Propagates any stage failure (floorplan fit, validation, missing
    /// library entries, timing without endpoints).
    pub fn run(&self, netlist: &Netlist, options: &FlowOptions) -> Result<BlockReport, PhysicalError> {
        let _span = lim_obs::Span::enter("physical");
        lim_obs::counter_add("flow.blocks", 1);
        let mut stats = FlowStats::default();
        let (fp, placement, routes, timing) = self.stages(netlist, options, &mut stats)?;

        // Clock-tree synthesis: refine the clock load for power and fold
        // insertion skew into the reported period margin.
        let (clock_tree, elapsed) = lim_obs::timed("clock_tree", || {
            clock::build(self.tech, netlist, &placement, &fp, self.library)
        });
        stats.clock_tree = elapsed;
        let clock_tree = clock_tree?;
        let clock_cap = clock_tree.as_ref().map(|ct| {
            let fallback = netlist
                .clock()
                .map(|c| routes[c.index()])
                .unwrap_or(routes[0]);
            clock::clock_cap_for_power(ct, &fallback)
        });

        let activity = options.activity.clone().unwrap_or_else(|| {
            SwitchingActivity::uniform(netlist.net_count(), options.default_toggle_rate, 100)
        });
        let (power, elapsed) = lim_obs::timed("power", || {
            power::analyze(
                self.tech,
                netlist,
                &routes,
                &activity,
                self.library,
                timing.fmax,
                &options.macro_activity,
                clock_cap,
            )
        });
        stats.power = elapsed;
        let power = power?;

        Ok(BlockReport {
            name: netlist.name().to_owned(),
            fmax: timing.fmax,
            min_period: timing.min_period,
            die_area: fp.die_area(),
            macro_area: fp.macro_area(),
            stdcell_area: netlist.stdcell_area(self.tech),
            guard_area: fp.guard_area,
            wirelength: route::total_wirelength(&routes),
            energy_per_cycle: power.energy_per_cycle,
            power,
            timing,
            clock_tree,
            stats,
        })
    }

    /// Floorplan → place → route → STA, timing each stage into `stats`.
    fn stages(
        &self,
        netlist: &Netlist,
        options: &FlowOptions,
        stats: &mut FlowStats,
    ) -> Result<(Floorplan, Placement, Vec<NetRoute>, TimingReport), PhysicalError> {
        let (fp, elapsed) = lim_obs::timed("floorplan", || {
            Floorplan::build(self.tech, netlist, self.library, &options.floorplan)
        });
        stats.floorplan = elapsed;
        let fp = fp?;

        let (placement, elapsed) = lim_obs::timed("place", || {
            place(self.tech, netlist, &fp, options.seed, options.effort)
        });
        stats.place = elapsed;
        let placement = placement?;
        stats.place_moves = placement.moves;
        stats.place_accepted = placement.accepted;
        stats.place_starts = placement.starts;
        stats.place_seeded = placement.seeded;
        stats.place_analytic_iters = placement.analytic_iters;
        stats.place_legalize_displacement_um = placement.legalize_displacement.round() as u64;

        let (routes, elapsed) = lim_obs::timed("route", || {
            route::estimate(self.tech, netlist, &placement, &fp, self.library)
        });
        stats.route = elapsed;
        let routes = routes?;
        stats.nets_routed = routes.len();

        let (timing, elapsed) = lim_obs::timed("sta", || {
            sta::analyze(self.tech, netlist, &routes, self.library, options.input_slew)
        });
        stats.sta = elapsed;
        let timing = timing?;
        stats.sta_endpoints = timing.endpoints;

        Ok((fp, placement, routes, timing))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lim_brick::{BitcellKind, BrickSpec};
    use lim_rtl::generators::{array_multiplier, decoder};

    #[test]
    fn decoder_end_to_end() {
        let tech = Technology::cmos65();
        let lib = BrickLibrary::new();
        let dec = decoder("dec5to32", 5, 32, true).unwrap();
        let rep = PhysicalSynthesis::new(&tech, &lib)
            .run(&dec, &FlowOptions::default())
            .unwrap();
        assert!(rep.fmax.value() > 100.0, "fmax {}", rep.fmax);
        assert!(rep.die_area.value() > 0.0);
        assert!(rep.power.total().value() > 0.0);
        assert!(rep.wirelength.value() > 0.0);
        assert_eq!(rep.guard_area.value(), 0.0);
        // Stage stats are populated regardless of the obs enable flag.
        assert!(rep.stats.place_moves > 0);
        assert!(rep.stats.place_accepted <= rep.stats.place_moves);
        assert_eq!(rep.stats.place_starts, 1);
        assert!(rep.stats.place_seeded);
        assert!(rep.stats.place_analytic_iters > 0);
        assert!(rep.stats.nets_routed > 0);
        assert!(rep.stats.sta_endpoints > 0);
        assert_eq!(rep.stats.sta_endpoints, rep.timing.endpoints);
        assert!(rep.stats.total() > Duration::ZERO);
    }

    #[test]
    fn multiplier_slower_than_decoder() {
        let tech = Technology::cmos65();
        let lib = BrickLibrary::new();
        let opts = FlowOptions::default();
        let flow = PhysicalSynthesis::new(&tech, &lib);
        let dec = flow
            .run(&decoder("dec", 4, 16, false).unwrap(), &opts)
            .unwrap();
        let mul = flow
            .run(&array_multiplier("mul8", 8).unwrap(), &opts)
            .unwrap();
        assert!(mul.min_period > dec.min_period);
        assert!(mul.stdcell_area > dec.stdcell_area);
    }

    #[test]
    fn memory_block_end_to_end() {
        let tech = Technology::cmos65();
        let spec = BrickSpec::new(BitcellKind::Sram8T, 16, 10).unwrap();
        let lib = BrickLibrary::generate(&tech, &[spec], &[2]).unwrap();
        let mut n = Netlist::new("mem32x10");
        let clk = n.add_clock("clk");
        let en = n.add_input("en");
        let outs = n.add_macro("u_bank", "brick_8t_16_10_x2", &[clk, en], 10, "arbl");
        for o in outs {
            n.mark_output(o);
        }
        let rep = PhysicalSynthesis::new(&tech, &lib)
            .run(&n, &FlowOptions::default())
            .unwrap();
        let entry = lib.get("brick_8t_16_10_x2").unwrap();
        assert!(rep.min_period >= entry.estimate.min_cycle());
        assert!(rep.macro_area.value() > 0.0);
        assert!(rep.power.macros.value() > 0.0);
    }

    #[test]
    fn deterministic_reports() {
        let tech = Technology::cmos65();
        let lib = BrickLibrary::new();
        let dec = decoder("dec", 4, 16, true).unwrap();
        let flow = PhysicalSynthesis::new(&tech, &lib);
        let a = flow.run(&dec, &FlowOptions::default()).unwrap();
        let b = flow.run(&dec, &FlowOptions::default()).unwrap();
        assert_eq!(a.fmax.value(), b.fmax.value());
        assert_eq!(a.wirelength.value(), b.wirelength.value());
    }
}
