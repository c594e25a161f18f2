//! Bit pins of the Table 1 path. For 30 bank configurations (every
//! bitcell, 16×10 and 64×16 bricks, stacks 1, 4 and 16) each number
//! `lim-brick` reports is folded, by its `to_bits`, into an FNV-1a
//! digest: the bank estimate, the library entry's clk-to-q LUT at its
//! grid points, and the golden measurement. A change to the estimator,
//! the library or the golden layer that is meant to move no number must
//! leave every digest as recorded.

use lim_brick::estimator::BankEstimate;
use lim_brick::golden::{compare_batch_results, GoldenMeasurement};
use lim_brick::library::entry_name;
use lim_brick::BitcellKind::{self, Cam, DualPort, Edram, Sram6T, Sram8T};
use lim_brick::{BrickLibrary, BrickSpec, LibraryEntry};
use lim_tech::Technology;

/// FNV-1a over 64-bit words, each fed as its 8 little-endian bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn float(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    /// A tag word (0 for `None`, 1 for `Some`), then the value.
    fn opt(&mut self, v: Option<f64>) {
        match v {
            Some(v) => {
                self.word(1);
                self.float(v);
            }
            None => self.word(0),
        }
    }

    fn spec(&mut self, spec: &BrickSpec, stack: usize) {
        for b in spec.bitcell().short_name().bytes() {
            self.word(u64::from(b));
        }
        for n in [spec.words(), spec.bits(), stack] {
            self.word(n as u64);
        }
    }
}

fn estimate_digest(e: &BankEstimate) -> u64 {
    let mut h = Fnv::new();
    h.spec(&e.spec, e.stack);
    for v in [
        e.read_delay.value(),
        e.write_delay.value(),
        e.setup.value(),
        e.hold.value(),
        e.read_energy.value(),
        e.write_energy.value(),
    ] {
        h.float(v);
    }
    h.opt(e.match_delay.map(|v| v.value()));
    h.opt(e.match_energy.map(|v| v.value()));
    h.float(e.area.value());
    h.float(e.leakage.value());
    h.opt(e.refresh_power.map(|v| v.value()));
    let b = &e.breakdown;
    for v in [b.control, b.wl_chain, b.wl_wire, b.cell_rbl, b.sense, b.arbl, b.output] {
        h.float(v.value());
    }
    h.0
}

/// The LUT's axes, then its value at every (load, slew) knot, row by
/// row of slew. A lookup at a knot returns the stored value exactly.
fn lut_digest(e: &LibraryEntry) -> u64 {
    let (loads, slews) = (e.clk_to_q.xs(), e.clk_to_q.ys());
    assert_eq!((loads.len(), slews.len()), (5, 4), "{}", e.name);
    let mut h = Fnv::new();
    for &v in loads.iter().chain(slews) {
        h.float(v);
    }
    for &slew in slews {
        for &load in loads {
            h.float(e.clk_to_q.lookup(load, slew));
        }
    }
    h.0
}

fn golden_digest(g: &GoldenMeasurement) -> u64 {
    let mut h = Fnv::new();
    h.spec(&g.spec, g.stack);
    for v in [
        g.read_delay.value(),
        g.read_energy.value(),
        g.write_delay.value(),
        g.write_energy.value(),
    ] {
        h.float(v);
    }
    h.0
}

/// One pinned configuration: `(bitcell, words, bits, stack)` and the
/// digests of its estimate, its clk-to-q LUT and its golden measurement,
/// recorded before the estimator and golden layer shared one periphery
/// model.
type Pin = (BitcellKind, usize, usize, usize, u64, u64, u64);

const PINS: [Pin; 30] = [
    (Sram6T, 16, 10, 1, 0xf57d_d360_42e0_9398, 0x8286_7826_5e40_a4a8, 0xcd82_21bf_4bd7_59a8),
    (Sram6T, 16, 10, 4, 0xff96_9c4d_bd51_4832, 0xb5d5_c226_b1a8_01ef, 0x16bc_7b3f_3755_1d77),
    (Sram6T, 16, 10, 16, 0xd9e8_5dc5_7998_844d, 0xc212_768a_c8ee_a809, 0x995a_5084_3c7b_a92e),
    (Sram6T, 64, 16, 1, 0xafb9_7bae_4028_df6d, 0xa032_294b_a414_4cd5, 0x66ce_37b6_e3d7_d5ab),
    (Sram6T, 64, 16, 4, 0x882e_803e_3759_a945, 0x3fb0_d742_60ed_268c, 0xec4e_563f_2f4d_5a25),
    (Sram6T, 64, 16, 16, 0x0b95_f303_84bc_b0bc, 0xc2e2_f36f_79f7_94bd, 0x5747_c87d_a7b6_bdae),
    (Sram8T, 16, 10, 1, 0xc35b_39f2_2e34_89dc, 0xc38f_bf55_e9cd_4f79, 0x6760_cd14_e17b_6f06),
    (Sram8T, 16, 10, 4, 0xda90_30f3_7603_e053, 0x7dc1_a711_08a9_575a, 0x714a_3313_9212_d25f),
    (Sram8T, 16, 10, 16, 0xc8c8_5f1b_0d58_6755, 0x0fe8_d72c_c6db_a0e9, 0xdd22_c279_3933_7998),
    (Sram8T, 64, 16, 1, 0xc7d5_2ea3_b40d_bde8, 0x9017_6905_1e6b_3edd, 0x6959_0495_d8c3_8eac),
    (Sram8T, 64, 16, 4, 0x26d2_4b72_58b2_bbbd, 0x33ab_2794_2c3f_8f6d, 0x36a7_6cec_21ef_c138),
    (Sram8T, 64, 16, 16, 0xc2ed_8e6b_c295_ac98, 0xc194_5d7a_1a0a_c69a, 0x42bd_cd73_74ec_3c8f),
    (Cam, 16, 10, 1, 0xc55d_bd22_f55c_f2a4, 0x7882_3902_7fd3_2c28, 0xf1e9_e2fd_0293_2a2d),
    (Cam, 16, 10, 4, 0x89e4_a0ab_c058_2b9a, 0x7882_3902_7fd3_2c28, 0x6eeb_d49d_a5bc_ab46),
    (Cam, 16, 10, 16, 0xbd98_c9e8_c317_5479, 0x7882_3902_7fd3_2c28, 0xee2d_1627_7c35_d886),
    (Cam, 64, 16, 1, 0x8ad5_af43_2d24_4aa5, 0xd77b_1c07_bc4a_1fe6, 0xce4f_7ecc_f011_9e4b),
    (Cam, 64, 16, 4, 0xaadd_ea10_0a81_6eac, 0xd77b_1c07_bc4a_1fe6, 0x9dd7_240a_3e57_d697),
    (Cam, 64, 16, 16, 0x51f4_0bc9_808e_2f92, 0x744e_edc0_8b03_1263, 0xf6ea_06f0_becf_a595),
    (Edram, 16, 10, 1, 0xa1cd_3732_f68e_66a1, 0xeb5a_e871_d95c_c358, 0x473d_35ba_7f69_9a67),
    (Edram, 16, 10, 4, 0x034d_0c06_e037_6080, 0x5041_e5fd_4dd2_7998, 0x42ce_20eb_270a_5ddb),
    (Edram, 16, 10, 16, 0xc4d7_48aa_1fd9_bc99, 0xff2f_de9e_8abf_2faf, 0xda18_62f9_3d09_1ae9),
    (Edram, 64, 16, 1, 0x86d0_9b7d_55c2_70b1, 0xe494_7d75_6833_6199, 0xddbb_6fee_e90f_45c4),
    (Edram, 64, 16, 4, 0x64dc_c1f9_a57e_4c3e, 0xda6a_01ed_f1a7_456f, 0xf50f_c3de_e759_ea4e),
    (Edram, 64, 16, 16, 0xfb37_b7bc_0691_10aa, 0xb75e_ff1e_d06e_5a43, 0x57a3_7ceb_523e_b436),
    (DualPort, 16, 10, 1, 0x1626_348e_644d_006e, 0x4d9d_0dca_1978_ffd5, 0x15ed_4c1b_4784_79b0),
    (DualPort, 16, 10, 4, 0x8a24_c404_fc21_f293, 0xb708_c1c4_47eb_5584, 0xb271_5153_e7ef_6b52),
    (DualPort, 16, 10, 16, 0xbf02_baf4_cd46_642b, 0x6b39_e7d3_2afe_2e28, 0x6495_de69_04b7_2bf4),
    (DualPort, 64, 16, 1, 0xbaf6_f50b_942d_ba23, 0x4437_cb9d_cfd0_279f, 0x3793_dfe0_99a3_53fa),
    (DualPort, 64, 16, 4, 0xdcf9_528f_ce83_4ba9, 0x92b2_f94e_2762_6b62, 0x9d32_d74f_6f12_5b24),
    (DualPort, 64, 16, 16, 0xb33b_9898_837a_5940, 0x4c88_4829_02ab_5693, 0x8920_a1d5_ecb6_cb38),
];

fn configs() -> Vec<(BrickSpec, usize)> {
    PINS.iter()
        .map(|&(kind, words, bits, stack, ..)| (BrickSpec::new(kind, words, bits).unwrap(), stack))
        .collect()
}

/// Fails listing every pin that moved, each as the row it now reads.
fn check(column: &str, got: &[u64], want: impl Fn(&Pin) -> u64) {
    let moved: Vec<String> = PINS
        .iter()
        .zip(got)
        .filter(|&(pin, &got)| want(pin) != got)
        .map(|(&(kind, words, bits, stack, ..), got)| {
            format!("{kind:?} {words}x{bits} x{stack}: {got:#018x}")
        })
        .collect();
    assert!(moved.is_empty(), "{column} digests moved:\n{}", moved.join("\n"));
}

/// Every library entry of the pinned configurations, in pin order.
fn entries(tech: &Technology) -> Vec<LibraryEntry> {
    let mut specs: Vec<BrickSpec> = configs().iter().map(|&(s, _)| s).collect();
    specs.dedup();
    let lib = BrickLibrary::generate(tech, &specs, &[1, 4, 16]).unwrap();
    configs()
        .iter()
        .map(|(spec, stack)| lib.get(&entry_name(spec, *stack)).unwrap().clone())
        .collect()
}

#[test]
fn bank_estimates_are_pinned() {
    let got: Vec<u64> = entries(&Technology::cmos65())
        .iter()
        .map(|e| estimate_digest(&e.estimate))
        .collect();
    check("estimate", &got, |p| p.4);
}

#[test]
fn library_clk_to_q_luts_are_pinned() {
    let got: Vec<u64> = entries(&Technology::cmos65()).iter().map(lut_digest).collect();
    check("clk-to-q LUT", &got, |p| p.5);
}

#[test]
fn golden_measurements_are_pinned() {
    // All 30 configurations are one batch; each tool figure must be the
    // library entry's estimate to the bit.
    let tech = Technology::cmos65();
    let report = compare_batch_results(&tech, &configs());
    let got: Vec<u64> = report
        .results
        .iter()
        .zip(entries(&tech))
        .map(|(r, e)| {
            let cmp = r.as_ref().unwrap();
            assert_eq!(cmp.tool, e.estimate, "{}", e.name);
            golden_digest(&cmp.golden)
        })
        .collect();
    check("golden", &got, |p| p.6);
}
