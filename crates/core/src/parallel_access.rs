//! Parallel-access smart memory (paper §2.2, after Murachi et al. \[7\]).
//!
//! The motivating example the paper gives for application-specific smart
//! memories before introducing its flow: a `K x L` pixel store that
//! serves an `m x n` window per cycle.
//!
//! * **Conventional ASIC approach**: pixels are spread over `m·n`
//!   independent banks for conflict-free access, each bank carrying its
//!   own full decoder — it "does not exploit the address pattern
//!   commonality between the accessed pixels" and "area and energy
//!   penalties are incurred".
//! * **LiM smart memory**: the same banks, but with *shared, customized*
//!   decoders — one row decoder per bank row activates the adjacent
//!   wordlines of all `n` banks in its group, and a single column
//!   decoder selects per group — so decode logic is built once instead
//!   of `m·n` times.
//!
//! Both generators target identical brick macros; the difference is
//! exactly the synthesized periphery, which is what the flow lets you
//! customize. The conventional variant is additionally floorplanned as a
//! conventional (non-pattern-construct) design, paying guard spacing at
//! every memory/logic boundary.

use crate::error::LimError;
use crate::flow::{LimBlock, LimFlow};
use lim_brick::{BitcellKind, BrickLibrary, BrickSpec};
use lim_rtl::generators::{burst_decoder, complement_rails, minterm};
use lim_rtl::{NetId, Netlist, StdCellKind};
use lim_tech::Technology;

/// Geometry of the pixel store and access window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParallelAccessConfig {
    /// Image rows (K).
    pub image_rows: usize,
    /// Image columns (L).
    pub image_cols: usize,
    /// Window rows (m) — also the number of bank rows.
    pub window_rows: usize,
    /// Window columns (n) — also the number of banks per row group.
    pub window_cols: usize,
    /// Bits per pixel.
    pub pixel_bits: usize,
}

impl ParallelAccessConfig {
    /// A motion-estimation-style default: 32x32 image, 4x4 window,
    /// 8-bit pixels.
    pub fn motion_estimation() -> Self {
        ParallelAccessConfig {
            image_rows: 32,
            image_cols: 32,
            window_rows: 4,
            window_cols: 4,
            pixel_bits: 8,
        }
    }

    /// Validates divisibility and sizes.
    ///
    /// # Errors
    ///
    /// Returns [`LimError::BadConfig`] when the window does not tile the
    /// image or any dimension is zero.
    pub fn validate(&self) -> Result<(), LimError> {
        if self.image_rows == 0
            || self.image_cols == 0
            || self.window_rows == 0
            || self.window_cols == 0
            || self.pixel_bits == 0
        {
            return Err(LimError::BadConfig {
                reason: "parallel-access dimensions must be non-zero".into(),
            });
        }
        if !self.image_rows.is_multiple_of(self.window_rows) || !self.image_cols.is_multiple_of(self.window_cols) {
            return Err(LimError::BadConfig {
                reason: format!(
                    "window {}x{} does not tile image {}x{}",
                    self.window_rows, self.window_cols, self.image_rows, self.image_cols
                ),
            });
        }
        if !self.words_per_bank().is_power_of_two() {
            return Err(LimError::BadConfig {
                reason: format!(
                    "{} words per bank must be a power of two",
                    self.words_per_bank()
                ),
            });
        }
        Ok(())
    }

    /// Total banks (`m · n`).
    pub fn banks(&self) -> usize {
        self.window_rows * self.window_cols
    }

    /// Pixels (words) per bank.
    pub fn words_per_bank(&self) -> usize {
        self.image_rows * self.image_cols / self.banks()
    }

    /// Address bits of one bank.
    pub fn bank_addr_bits(&self) -> usize {
        usize::BITS as usize - (self.words_per_bank() - 1).leading_zeros() as usize
    }

    /// The brick spec each bank stacks (16-word bricks).
    ///
    /// # Errors
    ///
    /// Propagates brick validation.
    pub fn bank_brick(&self) -> Result<BrickSpec, LimError> {
        let brick_words = self.words_per_bank().min(16);
        Ok(BrickSpec::new(
            BitcellKind::Sram8T,
            brick_words,
            self.pixel_bits,
        )?)
    }

    /// Bricks stacked per bank.
    pub fn bank_stack(&self) -> usize {
        self.words_per_bank() / self.words_per_bank().min(16)
    }
}

fn ensure_bank_entry(
    tech: &Technology,
    cfg: &ParallelAccessConfig,
    library: &mut BrickLibrary,
) -> Result<String, LimError> {
    let spec = cfg.bank_brick()?;
    let name = format!("{}_x{}", spec.instance_name(), cfg.bank_stack());
    library.get_or_insert(tech, &spec, cfg.bank_stack())?;
    Ok(name)
}

/// The bank address bus and its complement rails.
fn add_inputs(
    n: &mut Netlist,
    cfg: &ParallelAccessConfig,
) -> Result<(Vec<NetId>, Vec<NetId>), LimError> {
    let bits = cfg.bank_addr_bits();
    let addr: Vec<NetId> = (0..bits).map(|i| n.add_input(format!("addr[{i}]"))).collect();
    let addr_n = complement_rails(n, &addr, "addr")?;
    Ok((addr, addr_n))
}

fn instantiate_bank(
    n: &mut Netlist,
    clk: NetId,
    en: NetId,
    dwl: &[NetId],
    pixel_bits: usize,
    entry: &str,
    index: usize,
) -> Vec<NetId> {
    let mut inputs = vec![clk, en];
    inputs.extend(dwl);
    inputs.extend(dwl); // write port mirrors the read port structurally
    // Write data tied off: this memory is read-dominated (image loaded
    // once per frame).
    let zeros: Vec<NetId> = (0..pixel_bits)
        .map(|b| n.add_tie(false, format!("wd{index}_{b}")))
        .collect();
    inputs.extend(&zeros);
    n.add_macro(
        format!("u_bank{index}"),
        entry,
        &inputs,
        pixel_bits,
        &format!("q{index}"),
    )
}

/// Generates the LiM parallel-access memory: shared burst row decoders
/// (one per bank row, reused by all `n` banks of the group) and a single
/// column-select stage.
///
/// # Errors
///
/// Propagates configuration, brick and netlist errors.
pub fn generate_lim(
    tech: &Technology,
    cfg: &ParallelAccessConfig,
    library: &mut BrickLibrary,
) -> Result<Netlist, LimError> {
    cfg.validate()?;
    let entry = ensure_bank_entry(tech, cfg, library)?;
    let mut n = Netlist::new(format!(
        "pam_lim_{}x{}_w{}x{}",
        cfg.image_rows, cfg.image_cols, cfg.window_rows, cfg.window_cols
    ));
    let clk = n.add_clock("clk");
    let en = n.add_input("en");
    let (addr, addr_n) = add_inputs(&mut n, cfg)?;

    // One shared burst decoder per bank row ("adjacent activation": a
    // window straddling two rows reads both); its wordlines fan out to
    // all n banks of the group.
    for row in 0..cfg.window_rows {
        let dwl = burst_decoder(&mut n, &addr, &addr_n, cfg.words_per_bank(), &format!("r{row}_"))?;
        for col in 0..cfg.window_cols {
            let index = row * cfg.window_cols + col;
            let outs = instantiate_bank(&mut n, clk, en, &dwl, cfg.pixel_bits, &entry, index);
            for (b, &o) in outs.iter().enumerate() {
                let q = n.add_gate(
                    StdCellKind::Buf,
                    2.0,
                    &[o],
                    format!("pix{index}[{b}]"),
                )?;
                n.mark_output(q);
            }
        }
    }
    n.validate()?;
    Ok(n)
}

/// Generates the conventional parallel-access memory: every one of the
/// `m·n` banks carries its own full decoder (no shared customization).
///
/// # Errors
///
/// Propagates configuration, brick and netlist errors.
pub fn generate_conventional(
    tech: &Technology,
    cfg: &ParallelAccessConfig,
    library: &mut BrickLibrary,
) -> Result<Netlist, LimError> {
    cfg.validate()?;
    let entry = ensure_bank_entry(tech, cfg, library)?;
    let mut n = Netlist::new(format!(
        "pam_conv_{}x{}_w{}x{}",
        cfg.image_rows, cfg.image_cols, cfg.window_rows, cfg.window_cols
    ));
    let clk = n.add_clock("clk");
    let en = n.add_input("en");
    let (addr, addr_n) = add_inputs(&mut n, cfg)?;

    for index in 0..cfg.banks() {
        // Private one-hot decoder per bank — the duplicated logic the
        // smart memory eliminates.
        let dwl = (0..cfg.words_per_bank())
            .map(|w| minterm(&mut n, &addr, &addr_n, w, &format!("b{index}_d{w}")))
            .collect::<Result<Vec<_>, _>>()?;
        let gated: Vec<NetId> = dwl
            .iter()
            .enumerate()
            .map(|(w, &d)| {
                n.add_gate(StdCellKind::And2, 1.0, &[d, en], format!("b{index}_g{w}"))
            })
            .collect::<Result<_, _>>()?;
        let outs = instantiate_bank(&mut n, clk, en, &gated, cfg.pixel_bits, &entry, index);
        for (b, &o) in outs.iter().enumerate() {
            let q = n.add_gate(StdCellKind::Buf, 2.0, &[o], format!("pix{index}[{b}]"))?;
            n.mark_output(q);
        }
    }
    n.validate()?;
    Ok(n)
}

/// Side-by-side synthesis of both variants — the §2.2 comparison.
#[derive(Debug, Clone)]
pub struct ParallelAccessComparison {
    /// The LiM smart memory.
    pub lim: LimBlock,
    /// The conventional m·n-bank design.
    pub conventional: LimBlock,
}

impl ParallelAccessComparison {
    /// Die-area advantage of the LiM variant (> 1 means smaller).
    pub fn area_advantage(&self) -> f64 {
        self.conventional.report.die_area.value() / self.lim.report.die_area.value()
    }

    /// Energy-per-access advantage of the LiM variant (> 1 means less).
    pub fn energy_advantage(&self) -> f64 {
        self.conventional.report.energy_per_cycle.value()
            / self.lim.report.energy_per_cycle.value()
    }
}

impl LimFlow {
    /// Synthesizes both parallel-access variants; the conventional one is
    /// floorplanned as a non-pattern-construct design (guard spacing).
    ///
    /// # Errors
    ///
    /// Propagates generation and synthesis failures.
    pub fn compare_parallel_access(
        &mut self,
        cfg: &ParallelAccessConfig,
    ) -> Result<ParallelAccessComparison, LimError> {
        let lim = {
            let netlist = {
                let tech = self.technology().clone();
                generate_lim(&tech, cfg, self.library_mut())?
            };
            self.synthesize(&netlist)?
        };
        let conventional = {
            let tech = self.technology().clone();
            let netlist = generate_conventional(&tech, cfg, self.library_mut())?;
            let saved = self.options.clone();
            self.options.floorplan.conventional_logic = true;
            let block = self.synthesize(&netlist);
            self.options = saved;
            block?
        };
        Ok(ParallelAccessComparison { lim, conventional })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ParallelAccessConfig {
        ParallelAccessConfig::motion_estimation()
    }

    #[test]
    fn config_validation() {
        assert!(cfg().validate().is_ok());
        let mut bad = cfg();
        bad.window_rows = 3;
        assert!(bad.validate().is_err());
        bad = cfg();
        bad.pixel_bits = 0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn derived_geometry() {
        let c = cfg();
        assert_eq!(c.banks(), 16);
        assert_eq!(c.words_per_bank(), 64);
        assert_eq!(c.bank_addr_bits(), 6);
        assert_eq!(c.bank_stack(), 4);
    }

    #[test]
    fn both_netlists_generate_and_validate() {
        let tech = Technology::cmos65();
        let mut lib = BrickLibrary::new();
        let lim = generate_lim(&tech, &cfg(), &mut lib).unwrap();
        let conv = generate_conventional(&tech, &cfg(), &mut lib).unwrap();
        assert!(lim.validate().is_ok());
        assert!(conv.validate().is_ok());
        // Same macro population, same outputs.
        let macros = |n: &Netlist| {
            n.cells()
                .iter()
                .filter(|c| matches!(c.kind, lim_rtl::CellKind::Macro { .. }))
                .count()
        };
        assert_eq!(macros(&lim), macros(&conv));
        assert_eq!(lim.primary_outputs().len(), conv.primary_outputs().len());
        // The conventional design duplicates decode logic m·n times.
        assert!(
            conv.cell_count() > 2 * lim.cell_count(),
            "conv {} vs lim {}",
            conv.cell_count(),
            lim.cell_count()
        );
    }

    #[test]
    fn lim_wins_area_and_energy() {
        let mut flow = LimFlow::cmos65();
        let cmp = flow.compare_parallel_access(&cfg()).unwrap();
        assert!(
            cmp.area_advantage() > 1.0,
            "area advantage {}",
            cmp.area_advantage()
        );
        assert!(
            cmp.energy_advantage() > 1.0,
            "energy advantage {}",
            cmp.energy_advantage()
        );
    }
}
