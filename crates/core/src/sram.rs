//! 1R1W SRAM smart-memory generation (paper Fig. 3 / Fig. 4).
//!
//! An SRAM is assembled from stacked memory bricks plus synthesized
//! standard-cell periphery: per-partition read/write decoders gated by
//! bank enables, and a registered output mux across partitions. The
//! paper's test-chip configurations map directly:
//!
//! | Config | words x bits | partitions | brick | stack |
//! |---|---|---|---|---|
//! | A | 16x10  | 1 | 16x10 | 1x |
//! | B | 32x10  | 1 | 16x10 | 2x |
//! | C | 64x10  | 1 | 16x10 | 4x |
//! | D | 128x10 | 1 | 16x10 | 8x |
//! | E | 128x10 | 4 | 16x10 | 2x |

use crate::error::LimError;
use lim_brick::compiler::MAX_STACK;
use lim_brick::{BitcellKind, BrickLibrary, BrickSpec};
use lim_rtl::generators::{complement_rails, minterm, predecode, word_line};
use lim_rtl::{NetId, Netlist, StdCellKind};
use lim_tech::Technology;
use std::fmt;

/// Most wordline AND trees one request may build: those of the largest
/// single-lane memory `rtl.infer` lowers (a read and a write line per
/// word of a full stack of the deepest bricks).
pub const MAX_WORDLINE_TREES: usize = 2 * BrickSpec::MAX_WORDS * MAX_STACK;

/// Rejects memories needing more than [`MAX_WORDLINE_TREES`] wordline
/// AND trees, before any netlist is built. `trees` is words × (1 + write
/// lanes), summed over the memories.
pub(crate) fn check_wordline_budget(trees: usize) -> Result<(), LimError> {
    if trees > MAX_WORDLINE_TREES {
        return Err(LimError::BadConfig {
            reason: format!(
                "memories need {trees} wordline AND trees, more than the \
                 {MAX_WORDLINE_TREES} of the largest single-lane memory"
            ),
        });
    }
    Ok(())
}

/// Configuration of a generated 1R1W SRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SramConfig {
    words: usize,
    bits: usize,
    partitions: usize,
    brick_words: usize,
    bitcell: BitcellKind,
}

impl SramConfig {
    /// Creates a configuration: `words x bits` total, split into
    /// `partitions` banks, each built from stacked `brick_words x bits`
    /// bricks (8T bitcells).
    ///
    /// # Errors
    ///
    /// Returns [`LimError::BadConfig`] unless `partitions` is a power of
    /// two, `words` divides evenly into `partitions · brick_words`
    /// stacks, and the decoders need at most [`MAX_WORDLINE_TREES`]
    /// wordlines.
    pub fn new(
        words: usize,
        bits: usize,
        partitions: usize,
        brick_words: usize,
    ) -> Result<Self, LimError> {
        Self::with_bitcell(words, bits, partitions, brick_words, BitcellKind::Sram8T)
    }

    /// Like [`new`](Self::new) with an explicit bitcell flavor.
    ///
    /// # Errors
    ///
    /// Same conditions as [`new`](Self::new).
    pub fn with_bitcell(
        words: usize,
        bits: usize,
        partitions: usize,
        brick_words: usize,
        bitcell: BitcellKind,
    ) -> Result<Self, LimError> {
        if words == 0 || bits == 0 || partitions == 0 || brick_words == 0 {
            return Err(LimError::BadConfig {
                reason: "all dimensions must be non-zero".into(),
            });
        }
        if !partitions.is_power_of_two() {
            return Err(LimError::BadConfig {
                reason: format!("partitions {partitions} must be a power of two"),
            });
        }
        if !words.is_multiple_of(partitions * brick_words) {
            return Err(LimError::BadConfig {
                reason: format!(
                    "{words} words do not divide into {partitions} partitions of \
                     {brick_words}-word bricks"
                ),
            });
        }
        if partitions > 1 && !(words / partitions).is_power_of_two() {
            return Err(LimError::BadConfig {
                reason: format!(
                    "{} words per partition must be a power of two for bank decoding",
                    words / partitions
                ),
            });
        }
        check_wordline_budget(words.saturating_mul(2))?;
        Ok(SramConfig {
            words,
            bits,
            partitions,
            brick_words,
            bitcell,
        })
    }

    /// Total words.
    pub fn words(&self) -> usize {
        self.words
    }

    /// Word width.
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Number of banks.
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// Words per brick.
    pub fn brick_words(&self) -> usize {
        self.brick_words
    }

    /// Bitcell flavor.
    pub fn bitcell(&self) -> BitcellKind {
        self.bitcell
    }

    /// Bricks stacked per partition.
    pub fn stack(&self) -> usize {
        self.words / (self.partitions * self.brick_words)
    }

    /// Words per partition.
    pub fn words_per_partition(&self) -> usize {
        self.words / self.partitions
    }

    /// Address width.
    pub fn addr_bits(&self) -> usize {
        if self.words <= 1 {
            1
        } else {
            usize::BITS as usize - (self.words - 1).leading_zeros() as usize
        }
    }

    /// Bank-select address bits.
    pub fn bank_bits(&self) -> usize {
        self.partitions.trailing_zeros() as usize
    }

    /// The brick spec each partition stacks.
    ///
    /// # Errors
    ///
    /// Propagates brick spec validation.
    pub fn brick_spec(&self) -> Result<BrickSpec, LimError> {
        Ok(BrickSpec::new(self.bitcell, self.brick_words, self.bits)?)
    }

    /// Library entry name of the per-partition bank macro.
    pub fn bank_entry_name(&self) -> Result<String, LimError> {
        Ok(format!("{}_x{}", self.brick_spec()?.instance_name(), self.stack()))
    }

    /// Design name, e.g. `sram_128x10_p4_b16`.
    pub fn design_name(&self) -> String {
        format!(
            "sram_{}x{}_p{}_b{}",
            self.words, self.bits, self.partitions, self.brick_words
        )
    }
}

impl fmt::Display for SramConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{}b SRAM, {} partition(s) of {}x {}x{}b bricks",
            self.words,
            self.bits,
            self.partitions,
            self.stack(),
            self.brick_words,
            self.bits
        )
    }
}

/// Generates the SRAM netlist, registering the needed bank macro in
/// `library` if absent.
///
/// Inputs (in order): `clk`, `raddr[..]`, `waddr[..]`, `we`,
/// `din[..]`. Outputs: `dout[..]`.
///
/// # Errors
///
/// Propagates configuration, brick and netlist errors.
pub fn generate(
    tech: &Technology,
    config: &SramConfig,
    library: &mut BrickLibrary,
) -> Result<Netlist, LimError> {
    let entry_name = config.bank_entry_name()?;
    library.get_or_insert(tech, &config.brick_spec()?, config.stack())?;

    let mut n = Netlist::new(config.design_name());
    let clk = n.add_clock("clk");
    let addr_bits = config.addr_bits();
    let raddr: Vec<NetId> = (0..addr_bits)
        .map(|i| n.add_input(format!("raddr[{i}]")))
        .collect();
    let waddr: Vec<NetId> = (0..addr_bits)
        .map(|i| n.add_input(format!("waddr[{i}]")))
        .collect();
    let we = n.add_input("we");
    let din: Vec<NetId> = (0..config.bits())
        .map(|i| n.add_input(format!("din[{i}]")))
        .collect();

    let raddr_n = complement_rails(&mut n, &raddr, "raddr")?;
    let waddr_n = complement_rails(&mut n, &waddr, "waddr")?;

    let local_bits = addr_bits - config.bank_bits();
    let wpp = config.words_per_partition();

    // Shared predecode of the local address bits, built once per port
    // and reused by every bank — the structure real SRAM decoders use,
    // and what keeps the single-bank configuration's decoder from
    // dwarfing the partitioned one.
    let r_groups = predecode(&mut n, &raddr[..local_bits], &raddr_n[..local_bits], "rpd")?;
    let w_groups = predecode(&mut n, &waddr[..local_bits], &waddr_n[..local_bits], "wpd")?;

    let mut bank_outputs: Vec<Vec<NetId>> = Vec::with_capacity(config.partitions());
    for p in 0..config.partitions() {
        let (r_en, w_en) = if config.bank_bits() == 0 {
            // Single bank: reads are unconditional, writes gate on `we`
            // alone (no tie-AND for the optimizer to chew on).
            (None, we)
        } else {
            // Bank enables from the high address bits.
            let bank = |n: &mut Netlist, addr: &[NetId], addr_n: &[NetId]| {
                let label = format!("bank{p}");
                minterm(n, &addr[local_bits..], &addr_n[local_bits..], p, &label)
            };
            let r_en = bank(&mut n, &raddr, &raddr_n)?;
            let w_en_bank = bank(&mut n, &waddr, &waddr_n)?;
            let w_en = n.add_gate(
                StdCellKind::And2,
                1.0,
                &[w_en_bank, we],
                format!("bank{p}_wen"),
            )?;
            (Some(r_en), w_en)
        };

        // Local decoders: AND of this word's predecode lines with the bank
        // enables.
        let mut rdwl = Vec::with_capacity(wpp);
        let mut wdwl = Vec::with_capacity(wpp);
        for w in 0..wpp {
            let (r_label, w_label) = (format!("rdwl{p}_{w}"), format!("wdwl{p}_{w}"));
            rdwl.push(word_line(&mut n, &r_groups, w, r_en.as_slice(), &r_label)?);
            wdwl.push(word_line(&mut n, &w_groups, w, &[w_en], &w_label)?);
        }

        // Per-bank write-data drivers: every bank's write bitlines need
        // their own driver column.
        let bank_din: Vec<NetId> = din
            .iter()
            .enumerate()
            .map(|(b, &d)| n.add_gate(StdCellKind::Buf, 4.0, &[d], format!("wdrv{p}_{b}")))
            .collect::<Result<_, _>>()?;

        // The bank macro: clk, enable, decoded wordlines, write data.
        let en_pin = match r_en {
            Some(e) => e,
            None => n.add_tie(true, format!("bank{p}_en")),
        };
        let mut macro_inputs = vec![clk, en_pin];
        macro_inputs.extend(&rdwl);
        macro_inputs.extend(&wdwl);
        macro_inputs.extend(&bank_din);
        let outs = n.add_macro(
            format!("u_bank{p}"),
            entry_name.clone(),
            &macro_inputs,
            config.bits(),
            &format!("arbl{p}"),
        );
        bank_outputs.push(outs);
    }

    // Output stage: single partition buffers straight out; multiple
    // partitions mux on the registered bank-select bits (read data is a
    // cycle behind the address).
    if config.partitions() == 1 {
        for (b, &o) in bank_outputs[0].iter().enumerate() {
            let out = n.add_gate(StdCellKind::Buf, 2.0, &[o], format!("dout[{b}]"))?;
            n.mark_output(out);
        }
    } else {
        let sel_q: Vec<NetId> = (0..config.bank_bits())
            .map(|b| n.add_dff(raddr[local_bits + b], 1.0, format!("rsel_q[{b}]")))
            .collect();
        for b in 0..config.bits() {
            // Per-bank output buffers ahead of the mux column (each bank's
            // ARBL needs its own receiver).
            let mut layer: Vec<NetId> = bank_outputs
                .iter()
                .enumerate()
                .map(|(p, o)| {
                    n.add_gate(StdCellKind::Buf, 2.0, &[o[b]], format!("obuf{p}_{b}"))
                })
                .collect::<Result<_, _>>()?;
            for (level, &sel) in sel_q.iter().enumerate() {
                let mut next = Vec::with_capacity(layer.len().div_ceil(2));
                for (i, pair) in layer.chunks(2).enumerate() {
                    if pair.len() == 2 {
                        next.push(n.add_gate(
                            StdCellKind::Mux2,
                            1.0,
                            &[pair[0], pair[1], sel],
                            format!("omux{b}_l{level}_{i}"),
                        )?);
                    } else {
                        next.push(pair[0]);
                    }
                }
                layer = next;
            }
            let out = n.add_gate(StdCellKind::Buf, 2.0, &[layer[0]], format!("dout[{b}]"))?;
            n.mark_output(out);
        }
    }

    n.validate()?;
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lim_rtl::testbench::{Ports, SramBrickModel, Testbench};
    use lim_rtl::RtlError;

    #[test]
    fn config_validation() {
        assert!(SramConfig::new(128, 10, 4, 16).is_ok());
        assert!(SramConfig::new(128, 10, 3, 16).is_err()); // not a power of 2
        assert!(SramConfig::new(100, 10, 4, 16).is_err()); // not divisible
        assert!(SramConfig::new(0, 10, 1, 16).is_err());
        // The largest single-lane memory rtl.infer lowers fits the
        // decoder bound.
        assert!(SramConfig::new(65_536, 1, 1, 1024).is_ok());
    }

    fn sram(words: usize, partitions: usize) -> Netlist {
        let cfg = SramConfig::new(words, 10, partitions, 16).unwrap();
        generate(&Technology::cmos65(), &cfg, &mut BrickLibrary::new()).unwrap()
    }

    fn ports(pairs: &[(&str, u64)]) -> Ports {
        pairs.iter().map(|&(k, v)| (k.to_owned(), v)).collect()
    }

    /// Writes `din` at `addr` (one cycle).
    fn write(tb: &mut Testbench<'_>, addr: u64, din: u64) {
        tb.cycle(&ports(&[("we", 1), ("waddr", addr), ("din", din)]))
            .unwrap();
    }

    /// Reads `addr`: the word comes out after the edge that launches it.
    fn read(tb: &mut Testbench<'_>, addr: u64) -> u64 {
        tb.cycle(&ports(&[("raddr", addr)])).unwrap()["dout"]
    }

    #[test]
    fn write_then_read_back_single_bank() {
        let n = sram(32, 1);
        let mut tb = Testbench::new(&n, SramBrickModel::for_cell).unwrap();
        write(&mut tb, 5, 0b10_1101_0011);
        write(&mut tb, 17, 0x2aa);
        assert_eq!(read(&mut tb, 5), 0b10_1101_0011);
        assert_eq!(read(&mut tb, 17), 0x2aa);
        // Unwritten location reads zero.
        assert_eq!(read(&mut tb, 3), 0);
    }

    #[test]
    fn partitioned_sram_reads_through_the_bank_mux() {
        let n = sram(128, 4);
        let mut tb = Testbench::new(&n, SramBrickModel::for_cell).unwrap();
        // One address in every bank, a distinct 10-bit word each.
        let addrs = [2u64, 40, 70, 100];
        let data = |i: usize| (0x111 * (i as u64 + 1)) & 0x3ff;
        for (i, &addr) in addrs.iter().enumerate() {
            write(&mut tb, addr, data(i));
        }
        for (i, &addr) in addrs.iter().enumerate() {
            assert_eq!(read(&mut tb, addr), data(i), "bank {i}");
        }
    }

    #[test]
    fn writes_do_not_alias_across_banks() {
        let n = sram(128, 4);
        let mut tb = Testbench::new(&n, SramBrickModel::for_cell).unwrap();
        // Same local offset in all four banks: distinct values survive.
        for bank in 0..4u64 {
            write(&mut tb, bank * 32 + 7, 0x100 + bank);
        }
        for bank in 0..4u64 {
            assert_eq!(read(&mut tb, bank * 32 + 7), 0x100 + bank);
        }
    }

    #[test]
    fn simultaneous_read_write_different_addresses() {
        let n = sram(32, 1);
        let mut tb = Testbench::new(&n, SramBrickModel::for_cell).unwrap();
        write(&mut tb, 9, 0x155);
        // Read 9 while writing 10.
        let both = ports(&[("raddr", 9), ("we", 1), ("waddr", 10), ("din", 0x2bb)]);
        assert_eq!(tb.cycle(&both).unwrap()["dout"], 0x155);
        assert_eq!(read(&mut tb, 10), 0x2bb);
    }

    #[test]
    fn mismatched_netlist_rejected() {
        // A CAM macro's pins are no SRAM brick's.
        let cam = crate::cam::generate_cam_block(
            &Technology::cmos65(),
            &crate::cam::CamConfig::spgemm_paper(),
            &mut BrickLibrary::new(),
        )
        .unwrap();
        assert!(matches!(
            Testbench::new(&cam, SramBrickModel::for_cell),
            Err(RtlError::MacroModel { .. })
        ));
    }

    #[test]
    fn derived_quantities() {
        let e = SramConfig::new(128, 10, 4, 16).unwrap();
        assert_eq!(e.stack(), 2);
        assert_eq!(e.words_per_partition(), 32);
        assert_eq!(e.addr_bits(), 7);
        assert_eq!(e.bank_bits(), 2);
        assert_eq!(e.bank_entry_name().unwrap(), "brick_8t_16_10_x2");
        assert_eq!(e.design_name(), "sram_128x10_p4_b16");
        let d = SramConfig::new(128, 10, 1, 16).unwrap();
        assert_eq!(d.stack(), 8);
        assert_eq!(d.bank_bits(), 0);
    }

    #[test]
    fn generated_netlists_validate() {
        let tech = Technology::cmos65();
        let mut lib = BrickLibrary::new();
        for (w, p) in [(16usize, 1usize), (32, 1), (128, 1), (128, 4)] {
            let cfg = SramConfig::new(w, 10, p, 16).unwrap();
            let n = generate(&tech, &cfg, &mut lib).unwrap();
            assert!(n.validate().is_ok(), "{w} words {p} partitions");
            assert_eq!(n.primary_outputs().len(), 10);
            // One macro per partition.
            let macros = n
                .cells()
                .iter()
                .filter(|c| matches!(c.kind, lim_rtl::CellKind::Macro { .. }))
                .count();
            assert_eq!(macros, p);
        }
        // Library was populated with the needed entries.
        assert!(lib.get("brick_8t_16_10_x8").is_ok());
        assert!(lib.get("brick_8t_16_10_x2").is_ok());
    }

    #[test]
    fn partitioned_has_more_logic_area() {
        // Banking pays in periphery: per-bank write drivers, output
        // buffers and the read mux outweigh the narrower local decode.
        let tech = Technology::cmos65();
        let mut lib = BrickLibrary::new();
        let d = generate(&tech, &SramConfig::new(128, 10, 1, 16).unwrap(), &mut lib).unwrap();
        let e = generate(&tech, &SramConfig::new(128, 10, 4, 16).unwrap(), &mut lib).unwrap();
        assert!(e.stdcell_area(&tech) > d.stdcell_area(&tech));
    }
}
