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
/// digests of its estimate, its clk-to-q LUT and its golden measurement.
/// The first two were recorded before the estimator and golden layer
/// shared one periphery model, the golden digests when each row of the
/// panel solver's two-ended sweep became one fused multiply-add (the
/// one-ended LU figures of `LU_GOLDEN` are the drift reference).
type Pin = (BitcellKind, usize, usize, usize, u64, u64, u64);

const PINS: [Pin; 30] = [
    (Sram6T, 16, 10, 1, 0xf57d_d360_42e0_9398, 0x8286_7826_5e40_a4a8, 0x2037_1a70_6de5_c22c),
    (Sram6T, 16, 10, 4, 0xff96_9c4d_bd51_4832, 0xb5d5_c226_b1a8_01ef, 0x3ba1_de61_6e22_edfb),
    (Sram6T, 16, 10, 16, 0xd9e8_5dc5_7998_844d, 0xc212_768a_c8ee_a809, 0x378b_b3ef_416e_e6f7),
    (Sram6T, 64, 16, 1, 0xafb9_7bae_4028_df6d, 0xa032_294b_a414_4cd5, 0x3b47_710c_bda4_49f6),
    (Sram6T, 64, 16, 4, 0x882e_803e_3759_a945, 0x3fb0_d742_60ed_268c, 0xe1c9_c7e0_6d9d_0066),
    (Sram6T, 64, 16, 16, 0x0b95_f303_84bc_b0bc, 0xc2e2_f36f_79f7_94bd, 0x69d5_c702_0dc7_d920),
    (Sram8T, 16, 10, 1, 0xc35b_39f2_2e34_89dc, 0xc38f_bf55_e9cd_4f79, 0x16f7_4f94_da9d_8afc),
    (Sram8T, 16, 10, 4, 0xda90_30f3_7603_e053, 0x7dc1_a711_08a9_575a, 0x6a2c_0b69_56b7_cc54),
    (Sram8T, 16, 10, 16, 0xc8c8_5f1b_0d58_6755, 0x0fe8_d72c_c6db_a0e9, 0xfbf3_8545_1bee_a92d),
    (Sram8T, 64, 16, 1, 0xc7d5_2ea3_b40d_bde8, 0x9017_6905_1e6b_3edd, 0x4277_b614_b52c_7324),
    (Sram8T, 64, 16, 4, 0x26d2_4b72_58b2_bbbd, 0x33ab_2794_2c3f_8f6d, 0x9913_8c74_95ab_0de9),
    (Sram8T, 64, 16, 16, 0xc2ed_8e6b_c295_ac98, 0xc194_5d7a_1a0a_c69a, 0xd9b9_d5c6_1494_51d9),
    (Cam, 16, 10, 1, 0xc55d_bd22_f55c_f2a4, 0x7882_3902_7fd3_2c28, 0xb7c0_4d68_ed1d_68bf),
    (Cam, 16, 10, 4, 0x89e4_a0ab_c058_2b9a, 0x7882_3902_7fd3_2c28, 0x2d62_b202_9ac6_68a9),
    (Cam, 16, 10, 16, 0xbd98_c9e8_c317_5479, 0x7882_3902_7fd3_2c28, 0x38e3_059b_83e4_c700),
    (Cam, 64, 16, 1, 0x8ad5_af43_2d24_4aa5, 0xd77b_1c07_bc4a_1fe6, 0xd186_69f4_bd49_186a),
    (Cam, 64, 16, 4, 0xaadd_ea10_0a81_6eac, 0xd77b_1c07_bc4a_1fe6, 0xccc6_180e_2de0_e7b1),
    (Cam, 64, 16, 16, 0x51f4_0bc9_808e_2f92, 0x744e_edc0_8b03_1263, 0x3051_464e_e63c_1a7b),
    (Edram, 16, 10, 1, 0xa1cd_3732_f68e_66a1, 0xeb5a_e871_d95c_c358, 0x98ed_78b6_ddf2_9a37),
    (Edram, 16, 10, 4, 0x034d_0c06_e037_6080, 0x5041_e5fd_4dd2_7998, 0x23b5_d3f7_d60f_08fa),
    (Edram, 16, 10, 16, 0xc4d7_48aa_1fd9_bc99, 0xff2f_de9e_8abf_2faf, 0xc06a_cdfd_b01c_8fc6),
    (Edram, 64, 16, 1, 0x86d0_9b7d_55c2_70b1, 0xe494_7d75_6833_6199, 0x8296_1b79_ff3c_9582),
    (Edram, 64, 16, 4, 0x64dc_c1f9_a57e_4c3e, 0xda6a_01ed_f1a7_456f, 0x2ee9_5e80_44ea_47b7),
    (Edram, 64, 16, 16, 0xfb37_b7bc_0691_10aa, 0xb75e_ff1e_d06e_5a43, 0x0801_cfe2_5b2e_9bc6),
    (DualPort, 16, 10, 1, 0x1626_348e_644d_006e, 0x4d9d_0dca_1978_ffd5, 0x1bc9_0925_9702_477c),
    (DualPort, 16, 10, 4, 0x8a24_c404_fc21_f293, 0xb708_c1c4_47eb_5584, 0xe010_9bbf_98b9_9732),
    (DualPort, 16, 10, 16, 0xbf02_baf4_cd46_642b, 0x6b39_e7d3_2afe_2e28, 0x9f79_4884_b6a9_50e7),
    (DualPort, 64, 16, 1, 0xbaf6_f50b_942d_ba23, 0x4437_cb9d_cfd0_279f, 0x57d7_de06_6bef_670d),
    (DualPort, 64, 16, 4, 0xdcf9_528f_ce83_4ba9, 0x92b2_f94e_2762_6b62, 0x6344_4e47_af1c_a0f5),
    (DualPort, 64, 16, 16, 0xb33b_9898_837a_5940, 0x4c88_4829_02ab_5693, 0xe1f0_3f3a_bcbe_e14a),
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

#[test]
fn golden_figures_stay_within_the_drift_bound_of_the_lu_engine() {
    // The golden solver's elimination order may change the last bits of
    // its figures, never the physics: every figure must stay within
    // 1e-9 relative of the one-ended LU engine's, recorded below before
    // the two-ended sweep replaced it, and every Table 1 error must read
    // the same to 0.01%.
    let tech = Technology::cmos65();
    let report = compare_batch_results(&tech, &configs());
    let percent = |tool: f64, golden: f64| format!("{:.2}", 100.0 * (tool - golden) / golden);
    for ((r, want), (spec, stack)) in report.results.iter().zip(&LU_GOLDEN).zip(configs()) {
        let cmp = r.as_ref().unwrap();
        let g = &cmp.golden;
        let got = [
            g.read_delay.value(),
            g.read_energy.value(),
            g.write_delay.value(),
            g.write_energy.value(),
        ];
        let want = want.map(f64::from_bits);
        let at = format!(
            "{:?} {}x{} x{stack}",
            spec.bitcell(),
            spec.words(),
            spec.bits()
        );
        for (figure, (got, want)) in got.iter().zip(want).enumerate() {
            let drift = ((got - want) / want).abs();
            assert!(
                drift <= 1e-9,
                "{at} figure {figure}: {got} vs {want} ({drift:.1e})"
            );
        }
        let t = &cmp.tool;
        let tool = [
            t.read_delay.value(),
            t.read_energy.value(),
            t.write_energy.value(),
        ];
        for (i, (&tool, figure)) in tool.iter().zip([0, 1, 3]).enumerate() {
            assert_eq!(
                percent(tool, got[figure]),
                percent(tool, want[figure]),
                "{at} error {i}"
            );
        }
    }
}

/// The golden figures (read delay, read energy, write delay, write
/// energy, as `to_bits`) of the pinned configurations, in pin order, as
/// the one-ended LU panel sweep computed them.
const LU_GOLDEN: [[u64; 4]; 30] = [
    [0x406e_94ab_7f8a_9d8e, 0x406f_e6e0_c708_4fdf, 0x4049_60f9_3aed_987a, 0x4051_cf50_2d11_efb3], // Sram6T 16x10 x1
    [0x4070_a0d3_f9e3_993e, 0x4081_0ed2_84a3_2a4f, 0x404a_fb75_7675_c4d1, 0x406b_8a8e_5469_0d4e], // Sram6T 16x10 x4
    [0x4076_71ca_814b_b425, 0x409a_acd9_45cc_aae2, 0x4050_bf0b_f160_ab54, 0x4089_8589_d321_13e7], // Sram6T 16x10 x16
    [0x4080_462c_cfc8_ebda, 0x4084_59c6_5b2a_070d, 0x404c_0f4d_2b13_666a, 0x406e_d8e6_9780_06be], // Sram6T 64x16 x1
    [0x4081_0316_96be_d202, 0x4094_3d5c_05ce_2152, 0x4050_c9aa_2e80_2218, 0x408c_0698_c499_4b10], // Sram6T 64x16 x4
    [0x4085_0f4d_cbbb_5bb2, 0x40ae_3dee_754c_2648, 0x4061_ed20_403e_0ff4, 0x40ab_4d49_cf09_2cfb], // Sram6T 64x16 x16
    [0x406a_857d_3e73_7e14, 0x4070_3a76_7be9_fcae, 0x4049_07a2_d8f0_0539, 0x4051_e0fb_48a5_8c16], // Sram8T 16x10 x1
    [0x406d_36a8_c3e2_0fcb, 0x4081_8e6f_b2b0_e963, 0x404a_a24a_7326_1109, 0x406b_8046_07a8_c168], // Sram8T 16x10 x4
    [0x4074_93b4_eabe_14c6, 0x409b_a308_3c31_1e75, 0x4050_bd56_7ed9_a386, 0x4089_6fd9_e540_500f], // Sram8T 16x10 x16
    [0x407a_bf06_35fb_f125, 0x4085_549e_1321_5244, 0x404b_e2cf_8d56_40fd, 0x406e_c464_d26e_ea98], // Sram8T 64x16 x1
    [0x407c_48b7_8c2f_2d2e, 0x4095_e2a4_cd95_ce94, 0x4050_d8f2_22e8_0730, 0x408b_e2e2_291a_0771], // Sram8T 64x16 x4
    [0x4082_c3fd_cd09_d97c, 0x40b0_af24_688f_09ec, 0x4063_559d_d1e4_28da, 0x40ab_2361_e8af_d888], // Sram8T 64x16 x16
    [0x4070_f026_b423_06ea, 0x4070_b75d_50f7_0898, 0x404b_98bf_72d4_8635, 0x4054_16a8_df53_8ecd], // Cam 16x10 x1
    [0x4072_4a50_7c3a_5e72, 0x4081_cd9a_0b4b_092b, 0x404d_716d_2cdd_61d8, 0x406d_5dc1_27ee_702f], // Cam 16x10 x4
    [0x4078_42a8_a308_026e, 0x409b_c68a_36c2_c778, 0x4052_8aa1_a899_6f62, 0x408a_a9dd_0232_9d2b], // Cam 16x10 x16
    [0x4082_9919_43f6_1740, 0x4085_fbe6_c87c_5240, 0x404e_4f02_f8eb_d346, 0x4070_e84a_b149_ad54], // Cam 64x16 x1
    [0x4083_5e7e_c976_a347, 0x4096_36db_fc3d_b2e2, 0x4052_7149_f23b_e850, 0x408d_dd5b_a173_a950], // Cam 64x16 x4
    [0x4087_fcce_1eb5_d5f8, 0x40b0_c64c_f759_c257, 0x4064_d481_aecb_d0ec, 0x40ac_d7db_a718_8d51], // Cam 64x16 x16
    [0x4070_a694_11b0_3d56, 0x406d_291b_7f2f_dd54, 0x4047_9141_0896_340e, 0x404d_8aa6_4c2e_7cd4], // Edram 16x10 x1
    [0x4071_fa31_f4a6_eb23, 0x4080_02fa_6e3a_de84, 0x4048_de65_4ae5_810e, 0x4066_4b78_0347_6336], // Edram 16x10 x4
    [0x4077_a4ee_b5fd_352c, 0x4099_6f25_1add_67d1, 0x404e_2566_eed6_1c62, 0x4084_7bac_7109_d471], // Edram 16x10 x16
    [0x4080_ed2b_853b_22c4, 0x4080_b9f4_911e_cc30, 0x404a_2c00_e7ed_0d32, 0x4066_558c_68d5_ca96], // Edram 64x16 x1
    [0x4081_a3d1_4360_72f3, 0x4091_43b5_0897_b66d, 0x404e_85f3_5bc9_87a4, 0x4083_ef35_bcf6_3ab8], // Edram 64x16 x4
    [0x4085_3292_d225_b0c9, 0x40aa_6e1e_9091_a308, 0x405a_9deb_cf8f_28f4, 0x40a3_5565_fab1_22a9], // Edram 64x16 x16
    [0x406b_725f_d526_4d0d, 0x4070_958a_70a7_452d, 0x404a_3079_2cd0_ec0e, 0x4052_e3a2_9c79_94a4], // DualPort 16x10 x1
    [0x406e_256a_3337_1227, 0x4081_dae7_86aa_0ec8, 0x404b_ea3a_2843_d724, 0x406c_de4f_7661_1f0f], // DualPort 16x10 x4
    [0x4075_18ba_4d18_a28a, 0x409c_076f_925f_687a, 0x4051_ae85_70d3_1018, 0x408a_a412_0596_e5f3], // DualPort 16x10 x16
    [0x407c_2581_d7fc_7efc, 0x4086_443b_1513_f926, 0x404c_7782_d66d_1ad0, 0x4070_8256_2330_6cd6], // DualPort 64x16 x1
    [0x407d_b7f2_aed3_6870, 0x4096_bdab_d0b7_8398, 0x4051_6b58_94f0_00d5, 0x408d_d416_da4b_22ad], // DualPort 64x16 x4
    [0x4083_af81_22fb_5576, 0x40b1_4940_21e9_35ed, 0x4064_ee08_ce17_feac, 0x40ac_fce4_f689_29b7], // DualPort 64x16 x16
];
