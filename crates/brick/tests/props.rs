//! Property tests for the brick compiler and estimator, on the hermetic
//! `lim-testkit` harness.

use lim_brick::golden::{compare, compare_batch_results};
use lim_brick::{BitcellKind, BrickCompiler, BrickSpec};
use lim_tech::Technology;
use lim_testkit::prop::{check, check_with, PropConfig};
use lim_testkit::TestRng;

const KINDS: [BitcellKind; 5] = [
    BitcellKind::Sram6T,
    BitcellKind::Sram8T,
    BitcellKind::Cam,
    BitcellKind::Edram,
    BitcellKind::DualPort,
];

fn any_kind(rng: &mut TestRng) -> BitcellKind {
    KINDS[rng.gen_range(0..KINDS.len())]
}

#[test]
fn every_valid_spec_compiles_and_estimates() {
    check("every_valid_spec_compiles_and_estimates", |rng| {
        let kind = any_kind(rng);
        let words = rng.gen_range(1usize..128);
        let bits = rng.gen_range(1usize..64);
        let stack = rng.gen_range(1usize..8);
        let tech = Technology::cmos65();
        let spec = BrickSpec::new(kind, words, bits).unwrap();
        let brick = BrickCompiler::new(&tech).compile(&spec).unwrap();
        let est = brick.estimate_bank(stack).unwrap();
        assert!(est.read_delay.value() > 0.0);
        assert!(est.write_delay.value() > 0.0);
        assert!(est.read_energy.value() > 0.0);
        assert!(est.area.value() > 0.0);
        assert!(est.leakage.value() > 0.0);
        assert!(est.setup > est.hold);
        assert_eq!(est.match_delay.is_some(), kind == BitcellKind::Cam);
        assert_eq!(est.refresh_power.is_some(), kind == BitcellKind::Edram);
    });
}

#[test]
fn estimator_monotone_in_array_dimensions() {
    check("estimator_monotone_in_array_dimensions", |rng| {
        let words = rng.gen_range(8usize..64);
        let bits = rng.gen_range(4usize..32);
        let tech = Technology::cmos65();
        let compile = |w, b| {
            BrickCompiler::new(&tech)
                .compile(&BrickSpec::new(BitcellKind::Sram8T, w, b).unwrap())
                .unwrap()
                .estimate_bank(1)
                .unwrap()
        };
        let base = compile(words, bits);
        let taller = compile(words * 2, bits);
        let wider = compile(words, bits * 2);
        // More rows: longer bitlines, slower and bigger.
        assert!(taller.read_delay > base.read_delay);
        assert!(taller.area > base.area);
        // More columns: more energy per access and more area.
        assert!(wider.read_energy > base.read_energy);
        assert!(wider.area > base.area);
    });
}

#[test]
fn library_lut_is_monotone_in_load_and_slew() {
    check("library_lut_is_monotone_in_load_and_slew", |rng| {
        use lim_tech::units::{Femtofarads, Picoseconds};
        let load_a = rng.gen_range(2.0f64..150.0);
        let load_extra = rng.gen_range(1.0f64..50.0);
        let slew_a = rng.gen_range(0.0f64..250.0);
        let slew_extra = rng.gen_range(1.0f64..100.0);
        let tech = Technology::cmos65();
        let spec = BrickSpec::new(BitcellKind::Sram8T, 16, 10).unwrap();
        let lib = lim_brick::BrickLibrary::generate(&tech, &[spec], &[2]).unwrap();
        let e = lib.get("brick_8t_16_10_x2").unwrap();
        let d0 = e.clk_to_q(Femtofarads::new(load_a), Picoseconds::new(slew_a));
        let d1 = e.clk_to_q(Femtofarads::new(load_a + load_extra), Picoseconds::new(slew_a));
        let d2 = e.clk_to_q(Femtofarads::new(load_a), Picoseconds::new(slew_a + slew_extra));
        assert!(d1 >= d0);
        assert!(d2 >= d0);
    });
}

/// A size in `1..=max` (`max` a power of two), drawn uniformly below a
/// random power of two so the smallest sizes come up often.
fn any_size(rng: &mut TestRng, max: usize) -> usize {
    let top = 1usize << rng.gen_range(0..=max.trailing_zeros());
    rng.gen_range(1..=top)
}

#[test]
fn batched_golden_matches_lone_compare() {
    // Bricks of every bitcell from 1 word × 1 bit up to 64 × 32 at
    // stacks 1–8: the smallest build circuits of a few nodes, the largest
    // a 512-tap write bitline. Each case validates 1–3 of them as one
    // batch, and every entry must equal a lone `compare` to the bit
    // (`ToolVsGolden` holds floats and derives `PartialEq`).
    let cases = PropConfig::with_cases(16);
    check_with(cases, "batched_golden_matches_lone_compare", |rng| {
        let tech = Technology::cmos65();
        let configs: Vec<(BrickSpec, usize)> = (0..rng.gen_range(1..=3))
            .map(|_| {
                let spec = BrickSpec::new(any_kind(rng), any_size(rng, 64), any_size(rng, 32));
                (spec.unwrap(), any_size(rng, 8))
            })
            .collect();
        let batch = compare_batch_results(&tech, &configs).results;
        let compiler = BrickCompiler::new(&tech);
        for (got, &(spec, stack)) in batch.iter().zip(&configs) {
            let want = compare(&compiler.compile(&spec).unwrap(), stack).unwrap();
            assert_eq!(got.as_ref().unwrap(), &want, "{spec:?} stack {stack}");
        }
    });
}

#[test]
fn invalid_specs_are_rejected() {
    check("invalid_specs_are_rejected", |rng| {
        let words = rng.gen_range(1025usize..4096);
        let bits = rng.gen_range(257usize..1024);
        assert!(BrickSpec::new(BitcellKind::Sram8T, words, 8).is_err());
        assert!(BrickSpec::new(BitcellKind::Sram8T, 8, bits).is_err());
    });
}
