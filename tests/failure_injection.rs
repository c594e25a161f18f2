//! Failure-injection tests: every layer's error paths return typed
//! errors (no panics) on malformed inputs.

use lim::sram::SramConfig;
use lim::LimError;
use lim_brick::{BitcellKind, BrickCompiler, BrickError, BrickSpec};
use lim_circuit::{Circuit, CircuitError, TransientSim};
use lim_physical::floorplan::{Floorplan, FloorplanOptions};
use lim_physical::PhysicalError;
use lim_rtl::generators::decoder;
use lim_rtl::{Netlist, RtlError, Simulator, StdCellKind};
use lim_spgemm::matrix::Triplets;
use lim_spgemm::SpgemmError;
use lim_tech::units::{Femtofarads, KiloOhms, Picoseconds, Volts};
use lim_tech::{TechError, Technology};

#[test]
fn invalid_technology_is_caught_before_compilation() {
    let mut tech = Technology::cmos65();
    tech.c_unit = Femtofarads::ZERO;
    assert!(matches!(
        tech.validate(),
        Err(TechError::NonPositiveParameter { name: "c_unit", .. })
    ));
    let spec = BrickSpec::new(BitcellKind::Sram8T, 16, 10).unwrap();
    assert!(matches!(
        BrickCompiler::new(&tech).compile(&spec),
        Err(BrickError::Tech(_))
    ));
}

#[test]
fn circuit_rejects_degenerate_simulations() {
    let mut ckt = Circuit::new();
    let n = ckt.add_node("n");
    ckt.add_cap(n, Femtofarads::new(1.0));
    // Negative step.
    assert!(matches!(
        TransientSim::new(&ckt).run(Picoseconds::new(10.0), Picoseconds::new(-1.0)),
        Err(CircuitError::BadTimeStep { .. })
    ));
    // End before the first step.
    assert!(matches!(
        TransientSim::new(&ckt).run(Picoseconds::new(0.01), Picoseconds::new(0.1)),
        Err(CircuitError::BadTimeStep { .. })
    ));
    // Floating (capacitance-free, undriven) node is singular.
    let mut floating = Circuit::new();
    let _ = floating.add_node("float");
    assert!(matches!(
        TransientSim::new(&floating).run(Picoseconds::new(1.0), Picoseconds::new(0.1)),
        Err(CircuitError::SingularSystem { .. })
    ));
    let _ = Volts::ZERO;
    let _ = KiloOhms::new(1.0);
}

#[test]
fn netlist_validation_catches_structural_damage() {
    // Double driver.
    let mut n = Netlist::new("dd");
    let a = n.add_input("a");
    let x = n.add_gate(StdCellKind::Inv, 1.0, &[a], "x").unwrap();
    n.splice_cell(lim_rtl::ir::Cell {
        name: "dup".into(),
        kind: lim_rtl::CellKind::Gate {
            kind: StdCellKind::Buf,
            drive: 1.0,
        },
        inputs: vec![a],
        outputs: vec![x],
    });
    n.mark_output(x);
    assert!(matches!(n.validate(), Err(RtlError::MultipleDrivers { .. })));
    assert!(Simulator::new(&n).is_err());
}

#[test]
fn simulator_rejects_wrong_stimulus_width() {
    let dec = decoder("dec", 3, 8, true).unwrap();
    let mut sim = Simulator::new(&dec).unwrap();
    assert!(matches!(
        sim.eval(&[true, false]),
        Err(RtlError::WrongInputCount {
            expected: 4,
            got: 2
        })
    ));
}

#[test]
fn floorplan_rejects_impossible_utilization_and_missing_macros() {
    let tech = Technology::cmos65();
    let dec = decoder("dec", 3, 8, false).unwrap();
    for bad in [0.0, -0.5, 1.5] {
        let err = Floorplan::build(
            &tech,
            &dec,
            &lim_brick::BrickLibrary::new(),
            &FloorplanOptions {
                utilization: bad,
                ..FloorplanOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, PhysicalError::BadOption { .. }), "{bad}");
    }
}

#[test]
fn sram_configs_reject_every_inconsistency() {
    for (w, b, p, bw) in [
        (0usize, 10usize, 1usize, 16usize), // zero words
        (128, 0, 1, 16),                    // zero bits
        (128, 10, 0, 16),                   // zero partitions
        (128, 10, 3, 16),                   // non-power-of-two banks
        (100, 10, 1, 16),                   // indivisible
        (96, 10, 2, 16),                    // 48 words/bank not a power of 2
        (16_777_216, 1, 1_048_576, 16),     // 33.5M wordlines, past the decoder bound
    ] {
        assert!(
            matches!(SramConfig::new(w, b, p, bw), Err(LimError::BadConfig { .. })),
            "{w}x{b} p{p} bw{bw} should be rejected"
        );
    }
}

#[test]
fn spgemm_layers_reject_shape_mismatches() {
    let a = Triplets::new(4, 5).to_csc();
    let b = Triplets::new(4, 5).to_csc();
    assert!(matches!(
        lim_spgemm::reference::spgemm(&a, &b),
        Err(SpgemmError::DimensionMismatch { .. })
    ));
    assert!(matches!(
        lim_spgemm::accel::lim_cam::LimCamAccelerator::paper_chip().multiply(&a, &b),
        Err(SpgemmError::DimensionMismatch { .. })
    ));
    assert!(matches!(
        lim_spgemm::accel::heap::HeapAccelerator::paper_chip().multiply(&a, &b),
        Err(SpgemmError::DimensionMismatch { .. })
    ));
    assert!(matches!(
        lim_spgemm::apps::spmv(lim_spgemm::apps::Chip::LimCam, &a, &[1.0; 2]),
        Err(SpgemmError::DimensionMismatch { .. })
    ));
}

#[test]
fn error_types_are_std_errors_with_sources() {
    fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
    assert_err::<TechError>();
    assert_err::<CircuitError>();
    assert_err::<BrickError>();
    assert_err::<RtlError>();
    assert_err::<PhysicalError>();
    assert_err::<LimError>();
    assert_err::<SpgemmError>();

    // Wrapped errors expose their sources through the chain.
    let mut tech = Technology::cmos65();
    tech.tau = Picoseconds::ZERO;
    let spec = BrickSpec::new(BitcellKind::Sram8T, 16, 10).unwrap();
    let err = BrickCompiler::new(&tech).compile(&spec).unwrap_err();
    let source = std::error::Error::source(&err).expect("brick error wraps tech error");
    assert!(source.to_string().contains("tau"));
}
