//! The analytic performance-estimation tool (Table 1's "Tool" column).
//!
//! Delay is composed from logical-effort stage delays plus Elmore ladder
//! delays scaled by fitted step-response coefficients; energy is composed
//! from switched capacitance. The fitted coefficients (`K_*` below) play
//! the role of the paper's "curve fitting" calibration against the golden
//! reference — they are fixed once, not per-configuration.
//!
//! Energy convention follows Table 1's measurement setup: reading/writing a
//! word of alternating bits `<1010…10>`, i.e. half of the data columns
//! switch.
//!
//! The pre-array periphery is one model, read by this estimator and the
//! golden reference alike; only the array terms differ between them.

use crate::compiler::{CompiledBrick, CLK_LOAD_PER_BRICK, DWL_PIN_CAP, SENSE_INPUT_CAP};
use crate::error::BrickError;
use crate::BrickSpec;
use lim_tech::logical_effort::{GateKind, Path, Stage};
use lim_tech::units::{Femtofarads, Femtojoules, Milliwatts, Picoseconds, SquareMicrons};

/// Fitted 50 %-crossing coefficient for a driven RC ladder, relative to
/// its Elmore delay. Calibrated once against the transient solver.
pub(crate) const K_LADDER_RESPONSE: f64 = 0.78;
/// Fitted 50 %-crossing coefficient for a bitline discharged through a
/// cell's read stack (includes the latching turn-on behaviour).
pub(crate) const K_DISCHARGE: f64 = 0.72;
/// External write-driver drive strength assumed for write timing.
pub(crate) const WRITE_DRIVER_DRIVE: f64 = 16.0;
/// eDRAM cell retention time at nominal conditions, microseconds: every
/// row must be rewritten within this window.
pub(crate) const EDRAM_RETENTION_US: f64 = 40.0;
/// Output buffer load assumed when no library load is specified.
pub(crate) const NOMINAL_OUT_LOAD_X: f64 = 4.0;

/// Per-stage delay breakdown of the critical read path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayBreakdown {
    /// Clock buffer + enable gating in the control block.
    pub control: Picoseconds,
    /// Wordline driver chain (all stages before the final driver).
    pub wl_chain: Picoseconds,
    /// Wordline wire to the far column.
    pub wl_wire: Picoseconds,
    /// Cell read-stack discharge of the local read bitline.
    pub cell_rbl: Picoseconds,
    /// Local sense stage.
    pub sense: Picoseconds,
    /// Shared array read bitline across the stack.
    pub arbl: Picoseconds,
    /// Output buffer.
    pub output: Picoseconds,
}

impl DelayBreakdown {
    /// Sum of all components.
    pub fn total(&self) -> Picoseconds {
        self.control + self.wl_chain + self.wl_wire + self.cell_rbl + self.sense + self.arbl
            + self.output
    }
}

/// Complete estimate for a bank of stacked bricks — the contents of one
/// generated library entry.
#[derive(Debug, Clone, PartialEq)]
pub struct BankEstimate {
    /// The brick spec estimated.
    pub spec: BrickSpec,
    /// Stack count of the bank.
    pub stack: usize,
    /// Critical read path, clock to data out.
    pub read_delay: Picoseconds,
    /// Write path, clock to cell contents stable.
    pub write_delay: Picoseconds,
    /// Required input stability before the clock edge.
    pub setup: Picoseconds,
    /// Required input stability after the clock edge.
    pub hold: Picoseconds,
    /// Energy of one read access (alternating data word).
    pub read_energy: Femtojoules,
    /// Energy of one write access (alternating data word).
    pub write_energy: Femtojoules,
    /// CAM match delay (CAM bricks only).
    pub match_delay: Option<Picoseconds>,
    /// CAM match energy, worst case all-but-one miss (CAM bricks only).
    pub match_energy: Option<Femtojoules>,
    /// Bank footprint.
    pub area: SquareMicrons,
    /// Static leakage power.
    pub leakage: Milliwatts,
    /// Background refresh power (eDRAM bricks only): every row rewritten
    /// within the retention window.
    pub refresh_power: Option<Milliwatts>,
    /// Read-path delay breakdown.
    pub breakdown: DelayBreakdown,
}

impl BankEstimate {
    /// Minimum clock period implied by the slower of read and write, plus
    /// setup.
    pub fn min_cycle(&self) -> Picoseconds {
        (self.read_delay.max(self.write_delay)) + self.setup
    }

    /// Maximum operating frequency.
    pub fn max_frequency(&self) -> lim_tech::units::Megahertz {
        self.min_cycle().to_frequency()
    }
}

/// The pre-array periphery of a bank: every gate-level term the
/// estimator and the golden reference share. Each side composes these
/// with its own array terms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Periphery {
    /// Clock buffer + enable/DWL gating in the control block.
    pub control: Picoseconds,
    /// Wordline driver chain (all stages before the final driver).
    pub wl_chain: Picoseconds,
    /// Local sense: trip inverter driving the ARBL driver gate.
    pub sense: Picoseconds,
    /// Output buffer into the nominal library load.
    pub output: Picoseconds,
    /// Gate capacitance of the ARBL sense driver.
    pub sense_driver_in: Femtofarads,
    /// Clock energy of the bank's control blocks.
    pub clock_energy: Femtojoules,
    /// DWL pin plus driver-chain capacitance switched per access.
    pub chain_cap: Femtofarads,
}

impl CompiledBrick {
    /// The pre-array periphery of a bank of `stack` bricks.
    pub(crate) fn periphery(&self, stack: usize) -> Periphery {
        let tech = &self.tech;
        let c_unit = tech.c_unit;
        // Control: clock buffer inverter + enable/DWL gating NAND.
        let control = Path::new()
            .push(Stage::new(GateKind::Inv))
            .push(Stage::new(GateKind::Nand2))
            .min_delay(tech, c_unit * 2.0, DWL_PIN_CAP);
        // Wordline driver chain: all stages before the final driver.
        let final_in = Femtofarads::new(self.wl_driver_drive * c_unit.value());
        let wl_chain = if self.wl_chain_stages > 1 {
            Path::inverter_chain(self.wl_chain_stages - 1).min_delay(tech, DWL_PIN_CAP, final_in)
        } else {
            Picoseconds::ZERO
        };
        let sense_driver_in = Femtofarads::new(self.sense_driver_drive() * c_unit.value());
        Periphery {
            control,
            wl_chain,
            sense: Path::inverter_chain(1).min_delay(tech, SENSE_INPUT_CAP, sense_driver_in),
            output: Path::inverter_chain(1).min_delay(
                tech,
                c_unit * 2.0,
                c_unit * (2.0 * NOMINAL_OUT_LOAD_X),
            ),
            sense_driver_in,
            clock_energy: (CLK_LOAD_PER_BRICK * stack as f64).switch_energy(tech.vdd),
            chain_cap: Femtofarads::new(
                DWL_PIN_CAP.value() * 1.5 + self.wl_driver_drive * c_unit.value(),
            ),
        }
    }

    /// Runs the analytic estimator for a bank of `stack` bricks.
    ///
    /// # Errors
    ///
    /// Returns [`BrickError::InvalidStack`] for stack counts outside
    /// `1..=64`.
    pub fn estimate_bank(&self, stack: usize) -> Result<BankEstimate, BrickError> {
        let _span = lim_obs::Span::enter("brick_characterize");
        lim_obs::counter_add("brick.characterizations", 1);
        self.check_stack(stack)?;
        let tech = &self.tech;
        let vdd = tech.vdd;
        let c_unit = tech.c_unit;
        let p = self.periphery(stack);

        // ---- Read path ---------------------------------------------------
        // Final driver into the wordline ladder.
        let wl = self.wl_ladder();
        let t_wl = wl.elmore_to_end(self.wl_driver_resistance()) * K_LADDER_RESPONSE;

        // Cell read-stack discharging the local RBL toward the sense input.
        let rbl = self.rbl_ladder();
        let c_rbl_total = rbl.total_cap() + SENSE_INPUT_CAP;
        let t_cell = Picoseconds::new(
            K_DISCHARGE
                * (self.cell.read_stack_r.value() * c_rbl_total.value()
                    + rbl.total_resistance().value()
                        * (0.5 * rbl.total_cap().value() + SENSE_INPUT_CAP.value())),
        );

        // ARBL across the stack, driven by the (re-sized) sense driver.
        let arbl = self.arbl_ladder(stack);
        let t_arbl = arbl.elmore_to_end(self.sense_driver_resistance(stack)) * K_LADDER_RESPONSE;

        let breakdown = DelayBreakdown {
            control: p.control,
            wl_chain: p.wl_chain,
            wl_wire: t_wl,
            cell_rbl: t_cell,
            sense: p.sense,
            arbl: t_arbl,
            output: p.output,
        };
        let read_delay = breakdown.total();

        // ---- Write path --------------------------------------------------
        let wbl = self.wbl_ladder(stack);
        let r_write = tech.drive_resistance(WRITE_DRIVER_DRIVE);
        let t_wbl = wbl.elmore_to_end(r_write) * K_LADDER_RESPONSE;
        let t_flip = Picoseconds::new(
            K_DISCHARGE
                * self.cell.read_stack_r.value() / 2.0
                * self.cell.write_internal_cap.value(),
        );
        let write_delay = p.control + p.wl_chain + t_wl + t_wbl + t_flip;

        // ---- Energy (alternating data word: half the columns switch) -----
        let sc = 1.0 + tech.short_circuit_fraction;
        let bits = self.spec.bits() as f64;

        let e_wl = (wl.total_cap() + p.chain_cap).switch_energy(vdd);
        let e_rbl_col = (rbl.total_cap() + SENSE_INPUT_CAP).switch_energy(vdd);
        let e_arbl_col = (arbl.total_cap() + p.sense_driver_in + c_unit * NOMINAL_OUT_LOAD_X)
            .switch_energy(vdd);
        let read_energy = Femtojoules::new(
            sc * (p.clock_energy.value()
                + e_wl.value()
                + 0.5 * bits * (e_rbl_col.value() + e_arbl_col.value())),
        );

        let e_wbl_col = wbl.total_cap().switch_energy(vdd);
        let e_cell_flip = self.cell.write_internal_cap.switch_energy(vdd);
        let write_energy = Femtojoules::new(
            sc * (p.clock_energy.value()
                + e_wl.value()
                + 0.5 * bits * (e_wbl_col.value() + e_cell_flip.value())),
        );

        // ---- CAM match ---------------------------------------------------
        let (match_delay, match_energy) = if self.spec.bitcell().is_cam() {
            let ml = self.matchline_ladder().expect("CAM brick has a matchline");
            // Search-line broadcast down the rows.
            let sl_len = lim_tech::units::Microns::new(
                self.cell.height.value() * self.spec.words() as f64,
            );
            let sl = lim_tech::wire::RcLadder::from_wire(
                tech,
                sl_len,
                self.spec.words(),
                self.cell.match_cap_per_cell * 0.5,
            );
            let r_sl_driver = tech.drive_resistance(8.0);
            let t_sl = sl.elmore_to_end(r_sl_driver) * K_LADDER_RESPONSE;
            // Matchline discharge through one mismatching cell.
            let t_ml = Picoseconds::new(
                K_DISCHARGE * self.cell.read_stack_r.value() * ml.total_cap().value(),
            );
            // Match-detection stage (priority-decode input).
            let t_det = Path::inverter_chain(1).min_delay(tech, c_unit * 2.0, c_unit * 6.0);
            let t_match = p.control + t_sl + t_ml + t_det;

            // Worst case: all words but the matching one discharge their
            // matchline; every search line toggles with activity 1/2.
            let words = self.spec.words() as f64;
            let e_sl = Femtojoules::new(0.5 * bits * sl.total_cap().switch_energy(vdd).value());
            let e_ml =
                Femtojoules::new((words - 1.0).max(1.0) * ml.total_cap().switch_energy(vdd).value());
            let e_match =
                Femtojoules::new(sc * (p.clock_energy.value() + e_sl.value() + e_ml.value()));
            (Some(t_match), Some(e_match))
        } else {
            (None, None)
        };

        // ---- Static -------------------------------------------------------
        let setup = p.control + Picoseconds::new(10.0);
        let hold = Picoseconds::new(5.0);
        let cells = (self.spec.cells() * stack) as f64;
        let periph_drive = self.wl_driver_drive
            + self.sense_drive
            + 8.0; // control block
        let leak_nw =
            cells * self.cell.leakage_nw + stack as f64 * periph_drive * tech.leakage_per_unit_drive_nw;
        let leakage = Milliwatts::new(leak_nw * 1e-6);

        // ARBL routing overhead on top of the tiled bricks.
        let area = SquareMicrons::new(self.layout.area().value() * stack as f64 * 1.02);

        // eDRAM banks burn background refresh: every row of every stacked
        // brick rewritten once per retention window. One row rewrite
        // costs one write access.
        let refresh_power = if self.spec.bitcell() == crate::BitcellKind::Edram {
            let rows = (self.spec.words() * stack) as f64;
            let refreshes_per_second = rows / (EDRAM_RETENTION_US * 1e-6);
            // fJ × 1/s = 10⁻¹⁵ W; to mW multiply by 10⁻¹².
            Some(Milliwatts::new(
                write_energy.value() * refreshes_per_second * 1e-12,
            ))
        } else {
            None
        };

        Ok(BankEstimate {
            spec: self.spec,
            stack,
            read_delay,
            write_delay,
            setup,
            hold,
            read_energy,
            write_energy,
            match_delay,
            match_energy,
            area,
            leakage,
            refresh_power,
            breakdown,
        })
    }

    /// The read delay of `est`, a bank of this brick, re-evaluated for an
    /// explicit output load and input slew, used when tabulating library
    /// LUTs. The estimate assumes the nominal load and a sharp input edge.
    pub(crate) fn read_delay_with(
        &self,
        est: &BankEstimate,
        out_load: Femtofarads,
        in_slew: Picoseconds,
    ) -> Picoseconds {
        let r_out = self.tech.drive_resistance(2.0 * NOMINAL_OUT_LOAD_X);
        let nominal = self.tech.c_unit * (2.0 * NOMINAL_OUT_LOAD_X);
        let extra_load = Picoseconds::new(
            r_out.value() * (out_load.value() - nominal.value()).max(-nominal.value() * 0.5),
        );
        // Slew degradation of the first (control) stage.
        let slew_term = in_slew * 0.15;
        est.read_delay + extra_load + slew_term
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitcell::BitcellKind;
    use crate::compiler::BrickCompiler;
    use lim_tech::Technology;

    fn compiled(kind: BitcellKind, words: usize, bits: usize) -> CompiledBrick {
        let tech = Technology::cmos65();
        BrickCompiler::new(&tech)
            .compile(&BrickSpec::new(kind, words, bits).unwrap())
            .unwrap()
    }

    #[test]
    fn estimate_is_positive_and_consistent() {
        let est = compiled(BitcellKind::Sram8T, 16, 10).estimate_bank(1).unwrap();
        assert!(est.read_delay.value() > 0.0);
        assert!(est.write_delay.value() > 0.0);
        assert!(est.read_energy.value() > 0.0);
        assert!(est.write_energy.value() > 0.0);
        assert!(est.min_cycle() > est.read_delay);
        let total = est.breakdown.total();
        assert!((total.value() - est.read_delay.value()).abs() < 1e-9);
    }

    #[test]
    fn table1_trend_delay_and_energy_grow_with_stack() {
        let b = compiled(BitcellKind::Sram8T, 16, 10);
        let mut prev_d = Picoseconds::ZERO;
        let mut prev_e = Femtojoules::ZERO;
        for stack in [1usize, 4, 8] {
            let est = b.estimate_bank(stack).unwrap();
            assert!(est.read_delay > prev_d, "stack {stack}");
            assert!(est.read_energy > prev_e, "stack {stack}");
            prev_d = est.read_delay;
            prev_e = est.read_energy;
        }
    }

    #[test]
    fn bigger_brick_slower_and_hungrier() {
        let small = compiled(BitcellKind::Sram8T, 16, 10).estimate_bank(1).unwrap();
        let big = compiled(BitcellKind::Sram8T, 32, 12).estimate_bank(1).unwrap();
        assert!(big.read_delay > small.read_delay);
        assert!(big.read_energy > small.read_energy);
        assert!(big.area > small.area);
    }

    #[test]
    fn read_delay_in_65nm_regime() {
        // Table 1 reports 247–353 ps for these bricks; our absolute numbers
        // should land in the same few-hundred-ps regime.
        let est = compiled(BitcellKind::Sram8T, 16, 10).estimate_bank(1).unwrap();
        assert!(
            est.read_delay.value() > 120.0 && est.read_delay.value() < 500.0,
            "read delay {} outside the plausible 65 nm window",
            est.read_delay
        );
        assert!(
            est.read_energy.value() > 100.0 && est.read_energy.value() < 3000.0,
            "read energy {} fJ outside the plausible window",
            est.read_energy.value()
        );
    }

    #[test]
    fn cam_has_match_arcs_and_sram_does_not() {
        let cam = compiled(BitcellKind::Cam, 16, 10).estimate_bank(1).unwrap();
        assert!(cam.match_delay.is_some());
        assert!(cam.match_energy.is_some());
        let sram = compiled(BitcellKind::Sram8T, 16, 10).estimate_bank(1).unwrap();
        assert!(sram.match_delay.is_none());
        assert!(sram.match_energy.is_none());
    }

    #[test]
    fn cam_slower_and_bigger_than_sram() {
        let cam = compiled(BitcellKind::Cam, 16, 10).estimate_bank(1).unwrap();
        let sram = compiled(BitcellKind::Sram8T, 16, 10).estimate_bank(1).unwrap();
        assert!(cam.area > sram.area);
        assert!(cam.read_delay > sram.read_delay);
        // Match burns more than a read (the 1.94 vs 0.87 mW contrast).
        assert!(cam.match_energy.unwrap() > cam.read_energy);
    }

    #[test]
    fn load_and_slew_increase_library_delay() {
        let b = compiled(BitcellKind::Sram8T, 16, 10);
        let est = b.estimate_bank(1).unwrap();
        let base = b.read_delay_with(&est, Femtofarads::new(11.2), Picoseconds::ZERO);
        let loaded = b.read_delay_with(&est, Femtofarads::new(50.0), Picoseconds::ZERO);
        let slewed = b.read_delay_with(&est, Femtofarads::new(11.2), Picoseconds::new(100.0));
        assert!(loaded > base);
        assert!(slewed > base);
    }

    #[test]
    fn edram_pays_refresh_and_srams_do_not() {
        let edram = compiled(BitcellKind::Edram, 64, 16).estimate_bank(4).unwrap();
        let sram = compiled(BitcellKind::Sram8T, 64, 16).estimate_bank(4).unwrap();
        let refresh = edram.refresh_power.expect("eDRAM refreshes");
        assert!(refresh.value() > 0.0);
        assert!(sram.refresh_power.is_none());
        // eDRAM buys density: much smaller bank for the same capacity.
        assert!(edram.area.value() < sram.area.value() * 0.6);
        // Refresh scales with the row population.
        let bigger = compiled(BitcellKind::Edram, 64, 16).estimate_bank(8).unwrap();
        assert!(bigger.refresh_power.unwrap() > refresh);
    }

    #[test]
    fn invalid_stack_rejected() {
        let b = compiled(BitcellKind::Sram8T, 16, 10);
        assert!(matches!(
            b.estimate_bank(0),
            Err(BrickError::InvalidStack(0))
        ));
    }
}
