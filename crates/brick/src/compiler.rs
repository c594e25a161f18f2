//! The brick compiler: formulized circuit design of the brick periphery.
//!
//! "We have developed a formulized circuit design methodology based on
//! logical effort calculations and RC delay estimations to automatically
//! size the peripheral blocks within the brick" (§3). Given a
//! [`BrickSpec`], the compiler:
//!
//! 1. extracts the wordline / read-bitline RC ladders from the bitcell
//!    geometry,
//! 2. sizes the wordline driver chain, local sense and output driver by
//!    logical effort,
//! 3. generates the pitch-matched [`BrickLayout`].
//!
//! The result is a [`CompiledBrick`], from which the analytic estimator
//! ([`estimate_bank`](CompiledBrick::estimate_bank)) and the golden
//! transient reference ([`measure_bank`](crate::golden::measure_bank))
//! both derive: they read the same extracted ladders and one model of
//! the pre-array periphery, and differ only in how they treat the array.

use crate::error::BrickError;
use crate::geometry::BrickLayout;
use crate::BrickSpec;
use lim_tech::logical_effort::buffer_chain;
use lim_tech::params::BitcellElectrical;
use lim_tech::units::{Femtofarads, KiloOhms, Microns};
use lim_tech::wire::RcLadder;
use lim_tech::Technology;

/// Junction + via load each brick adds to the shared array read bitline.
pub(crate) const ARBL_TAP_CAP: Femtofarads = Femtofarads::new(8.0);
/// Load each brick's write-bitline segment adds per cell (write access
/// transistor drain).
pub(crate) const WBL_TAP_FACTOR: f64 = 0.8;
/// Clock pin load of one brick's control block.
pub(crate) const CLK_LOAD_PER_BRICK: Femtofarads = Femtofarads::new(9.0);
/// Input capacitance of a decoded-wordline (DWL) pin: the control block's
/// enable NAND.
pub(crate) const DWL_PIN_CAP: Femtofarads = Femtofarads::new(2.8);
/// Sense-amplifier input (trip inverter) capacitance.
pub const SENSE_INPUT_CAP: Femtofarads = Femtofarads::new(2.8);

/// Maximum supported stack count for a bank.
pub const MAX_STACK: usize = 64;

/// The brick compiler, parameterized by a technology.
#[derive(Debug, Clone)]
pub struct BrickCompiler<'t> {
    tech: &'t Technology,
}

impl<'t> BrickCompiler<'t> {
    /// Creates a compiler for `tech`.
    pub fn new(tech: &'t Technology) -> Self {
        BrickCompiler { tech }
    }

    /// Compiles `spec` into a sized brick with generated layout.
    ///
    /// # Errors
    ///
    /// Returns [`BrickError::Tech`] if the technology fails validation.
    pub fn compile(&self, spec: &BrickSpec) -> Result<CompiledBrick, BrickError> {
        let _span = lim_obs::Span::enter("brick_compile");
        lim_obs::counter_add("brick.compiles", 1);
        self.tech.validate()?;
        let cell = spec.bitcell().electrical_in(self.tech);

        // Wordline: spans the columns; loaded by each cell's gate cap.
        let wl_length = Microns::new(cell.width.value() * spec.bits() as f64);
        let wl_ladder =
            RcLadder::from_wire(self.tech, wl_length, spec.bits(), cell.wl_cap_per_cell);
        let wl_load = wl_ladder.total_cap();

        // Size the wordline driver chain from the DWL pin to the WL load.
        let wl_chain = buffer_chain(DWL_PIN_CAP, wl_load, false);
        let wl_driver_drive = (wl_load.value() / (4.0 * self.tech.c_unit.value())).max(1.0);

        // Local sense: trip inverter plus an output driver sized for a
        // nominal 8x-stack ARBL (the layout is stack-agnostic; drive is
        // re-derived per stack at estimation time).
        let nominal_arbl = Self::arbl_cap_static(self.tech, &cell, spec, 8);
        let sense_drive = (nominal_arbl.value() / (4.0 * self.tech.c_unit.value())).max(2.0);

        let layout = BrickLayout::generate_with_cell(
            spec.bitcell(),
            &cell,
            spec.words(),
            spec.bits(),
            wl_driver_drive,
            sense_drive,
            self.tech.bitcell_scale,
        );

        Ok(CompiledBrick {
            tech: self.tech.clone(),
            spec: *spec,
            cell,
            wl_driver_drive,
            wl_chain_stages: wl_chain.len(),
            sense_drive,
            layout,
        })
    }

    fn arbl_cap_static(
        tech: &Technology,
        cell: &BitcellElectrical,
        spec: &BrickSpec,
        stack: usize,
    ) -> Femtofarads {
        let brick_height = cell.height.value() * spec.words() as f64 + 2.6;
        let length = brick_height * stack as f64;
        Femtofarads::new(
            tech.wire_c_per_um.value() * length + ARBL_TAP_CAP.value() * stack as f64,
        )
    }
}

/// A compiled brick: sized periphery, extracted ladders and layout.
#[derive(Debug, Clone)]
pub struct CompiledBrick {
    pub(crate) tech: Technology,
    pub(crate) spec: BrickSpec,
    pub(crate) cell: BitcellElectrical,
    /// Final wordline-driver drive strength (multiples of the unit
    /// inverter).
    pub wl_driver_drive: f64,
    /// Number of stages in the wordline driver chain.
    pub wl_chain_stages: usize,
    /// Local sense output drive strength (sized for the nominal stack).
    pub sense_drive: f64,
    /// Generated pitch-matched layout.
    pub layout: BrickLayout,
}

impl CompiledBrick {
    /// The spec this brick was compiled from.
    pub fn spec(&self) -> &BrickSpec {
        &self.spec
    }

    /// The technology the brick was compiled for.
    pub fn technology(&self) -> &Technology {
        &self.tech
    }

    /// The bitcell electricals in use.
    pub fn cell(&self) -> &BitcellElectrical {
        &self.cell
    }

    /// Extracted wordline RC ladder (across the columns).
    pub fn wl_ladder(&self) -> RcLadder {
        let length = Microns::new(self.cell.width.value() * self.spec.bits() as f64);
        RcLadder::from_wire(&self.tech, length, self.spec.bits(), self.cell.wl_cap_per_cell)
    }

    /// Extracted local read-bitline RC ladder (down the rows).
    pub fn rbl_ladder(&self) -> RcLadder {
        let length = Microns::new(self.cell.height.value() * self.spec.words() as f64);
        RcLadder::from_wire(&self.tech, length, self.spec.words(), self.cell.bl_cap_per_cell)
    }

    /// Extracted match-line RC ladder for CAM bricks (across the columns).
    ///
    /// # Errors
    ///
    /// Returns [`BrickError::NotACam`] for non-CAM bricks.
    pub fn matchline_ladder(&self) -> Result<RcLadder, BrickError> {
        if !self.spec.bitcell().is_cam() {
            return Err(BrickError::NotACam {
                brick: self.spec.instance_name(),
            });
        }
        let length = Microns::new(self.cell.width.value() * self.spec.bits() as f64);
        Ok(RcLadder::from_wire(
            &self.tech,
            length,
            self.spec.bits(),
            self.cell.match_cap_per_cell,
        ))
    }

    /// Height of one brick including its periphery strips.
    pub fn brick_height(&self) -> Microns {
        self.layout.height()
    }

    /// The shared array-read-bitline ladder for a bank of `stack` bricks.
    pub fn arbl_ladder(&self, stack: usize) -> RcLadder {
        let length = Microns::new(self.brick_height().value() * stack as f64);
        RcLadder::from_wire(&self.tech, length, stack, ARBL_TAP_CAP)
    }

    /// The shared write-bitline ladder for a bank of `stack` bricks: one
    /// tap per row of every stacked brick.
    pub fn wbl_ladder(&self, stack: usize) -> RcLadder {
        let length = Microns::new(self.brick_height().value() * stack as f64);
        let taps = self.spec.words() * stack;
        let c_tap = self.cell.bl_cap_per_cell * WBL_TAP_FACTOR;
        RcLadder::from_wire(&self.tech, length, taps, c_tap)
    }

    /// Output resistance of the final wordline driver stage.
    pub fn wl_driver_resistance(&self) -> KiloOhms {
        self.tech.drive_resistance(self.wl_driver_drive)
    }

    /// Output resistance of the sense/ARBL driver.
    ///
    /// The driver is a fixed leaf cell sized once for a shallow (2x)
    /// bank — it cannot grow with the stack, which is exactly why tall
    /// stacks pay on the shared ARBL (the paper's config-D slowdown).
    /// The `stack` parameter is accepted for interface stability but
    /// does not change the sizing.
    pub fn sense_driver_resistance(&self, _stack: usize) -> KiloOhms {
        self.tech.drive_resistance(self.sense_driver_drive())
    }

    /// Drive strength of the sense/ARBL driver, sized for a 2x bank.
    pub(crate) fn sense_driver_drive(&self) -> f64 {
        (self.arbl_ladder(2).total_cap().value() / (4.0 * self.tech.c_unit.value())).max(2.0)
    }

    /// Validates a stack count.
    ///
    /// # Errors
    ///
    /// Returns [`BrickError::InvalidStack`] outside `1..=MAX_STACK`.
    pub fn check_stack(&self, stack: usize) -> Result<(), BrickError> {
        if stack == 0 || stack > MAX_STACK {
            return Err(BrickError::InvalidStack(stack));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BitcellKind;

    fn brick_16x10() -> CompiledBrick {
        let tech = Technology::cmos65();
        let spec = BrickSpec::new(BitcellKind::Sram8T, 16, 10).unwrap();
        BrickCompiler::new(&tech).compile(&spec).unwrap()
    }

    #[test]
    fn compile_produces_positive_sizing() {
        let b = brick_16x10();
        assert!(b.wl_driver_drive >= 1.0);
        assert!(b.sense_drive >= 2.0);
        assert!(b.wl_chain_stages >= 1);
        assert!(b.layout.area().value() > 0.0);
    }

    #[test]
    fn ladders_match_geometry() {
        let b = brick_16x10();
        assert_eq!(b.wl_ladder().segments, 10);
        assert_eq!(b.rbl_ladder().segments, 16);
        assert_eq!(b.arbl_ladder(4).segments, 4);
        assert_eq!(b.wbl_ladder(4).segments, 64);
    }

    #[test]
    fn bigger_array_sizes_bigger_driver() {
        let tech = Technology::cmos65();
        let small = BrickCompiler::new(&tech)
            .compile(&BrickSpec::new(BitcellKind::Sram8T, 16, 8).unwrap())
            .unwrap();
        let wide = BrickCompiler::new(&tech)
            .compile(&BrickSpec::new(BitcellKind::Sram8T, 16, 64).unwrap())
            .unwrap();
        assert!(wide.wl_driver_drive > small.wl_driver_drive);
    }

    #[test]
    fn matchline_only_for_cam() {
        let b = brick_16x10();
        assert!(matches!(
            b.matchline_ladder(),
            Err(BrickError::NotACam { .. })
        ));
        let tech = Technology::cmos65();
        let cam = BrickCompiler::new(&tech)
            .compile(&BrickSpec::new(BitcellKind::Cam, 16, 10).unwrap())
            .unwrap();
        let ml = cam.matchline_ladder().unwrap();
        assert_eq!(ml.segments, 10);
        assert!(ml.c_tap.value() > 0.0);
    }

    #[test]
    fn deeper_stack_bigger_arbl_with_fixed_driver() {
        let b = brick_16x10();
        assert!(b.arbl_ladder(8).total_cap() > b.arbl_ladder(1).total_cap());
        // The sense driver is a fixed leaf cell: same resistance at any
        // stack — tall banks pay RC on the shared line.
        assert_eq!(
            b.sense_driver_resistance(8).value(),
            b.sense_driver_resistance(1).value()
        );
    }

    #[test]
    fn stack_bounds_checked() {
        let b = brick_16x10();
        assert!(b.check_stack(1).is_ok());
        assert!(b.check_stack(64).is_ok());
        assert_eq!(b.check_stack(0).unwrap_err(), BrickError::InvalidStack(0));
        assert_eq!(b.check_stack(65).unwrap_err(), BrickError::InvalidStack(65));
    }
}
