//! Placement-quality gates on the flow-bench netlists.
//!
//! The two SRAM designs the `physical_flow` bench runs (64x10 in two
//! partitions, 128x10 in four) are the quality contract for the
//! analytic-seeded placer: mapped netlists with none of the generated
//! decoders' built-in near-optimal ordering. Two gates:
//!
//! * seeded refinement (the default) must finish at or below the HPWL
//!   of the full cold anneal, pinned below, while spending a fraction
//!   of its moves, and
//! * the absolute HPWL must stay within the pinned bounds recorded when
//!   the analytic placer landed (tier1.sh runs this file as the
//!   quality gate, so a placer regression fails CI even if it is
//!   "consistently worse" on both arms).

use lim::sram::{self, SramConfig};
use lim_brick::BrickLibrary;
use lim_physical::floorplan::{Floorplan, FloorplanOptions};
use lim_physical::place::{place, PlaceEffort, Placement};
use lim_tech::Technology;

/// Pinned HPWL ceilings (µm) for the two flow-bench netlists, from the
/// cold-anneal values the repo shipped before analytic seeding (PR 4
/// bench report). The seeded placer currently lands ~9% under the cold
/// anneal, so these hold with wide margin; loosen only with a bench
/// report justifying the regression.
const HPWL_BOUND_SRAM_64X10_P2: f64 = 9605.0;
const HPWL_BOUND_SRAM_128X10_P4: f64 = 25402.0;

/// HPWL (µm) and evaluated moves of the full cold anneal (ordered
/// start, whole move budget, full temperature and window) at seed 1
/// and default effort, recorded before that placement mode was
/// deleted. Identical in debug and release builds.
const COLD_SRAM_64X10_P2: (f64, usize) = (9605.248868025816, 12126);
const COLD_SRAM_128X10_P4: (f64, usize) = (22387.435092388598, 24057);

/// Builds the mapped netlist + floorplan of one flow-bench SRAM and
/// places it with flow-default seed/effort.
fn place_flow_netlist(words: usize, bits: usize, parts: usize) -> Placement {
    let tech = Technology::cmos65();
    let mut lib = BrickLibrary::new();
    let config = SramConfig::new(words, bits, parts, 16).unwrap();
    let raw = sram::generate(&tech, &config, &mut lib).unwrap();
    let (netlist, _) = lim_rtl::mapping::optimize(&raw).unwrap();
    let fp = Floorplan::build(&tech, &netlist, &lib, &FloorplanOptions::default()).unwrap();
    place(&tech, &netlist, &fp, 1, PlaceEffort::default()).unwrap()
}

#[test]
fn seeded_refine_no_worse_than_cold_anneal_on_flow_netlists() {
    for (words, bits, parts, (cold_hpwl, cold_moves)) in [
        (64, 10, 2, COLD_SRAM_64X10_P2),
        (128, 10, 4, COLD_SRAM_128X10_P4),
    ] {
        let seeded = place_flow_netlist(words, bits, parts);
        assert!(seeded.seeded && seeded.analytic_iters > 0);
        assert!(
            seeded.hpwl <= cold_hpwl,
            "sram_{words}x{bits}_p{parts}: seeded {} worse than cold {cold_hpwl}",
            seeded.hpwl
        );
        // The win must not come from secretly spending the cold budget.
        assert!(
            seeded.moves < cold_moves / 2,
            "sram_{words}x{bits}_p{parts}: refinement spent {} of {cold_moves} cold moves",
            seeded.moves
        );
    }
}

#[test]
fn flow_netlist_hpwl_within_pinned_bounds() {
    for (words, bits, parts, bound) in [
        (64, 10, 2, HPWL_BOUND_SRAM_64X10_P2),
        (128, 10, 4, HPWL_BOUND_SRAM_128X10_P4),
    ] {
        let seeded = place_flow_netlist(words, bits, parts);
        assert!(
            seeded.hpwl <= bound,
            "sram_{words}x{bits}_p{parts}: HPWL {} exceeds pinned bound {bound}",
            seeded.hpwl
        );
    }
}
