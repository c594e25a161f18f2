//! The golden transient reference (Table 1's "SPICE" column).
//!
//! The brick's extracted parasitics — the same ladders the analytic
//! estimator consumes (`CompiledBrick::{wl,rbl,arbl,wbl}_ladder`) — are
//! appended to explicit RC circuits with [`append_ladder`] and
//! integrated with the backward-Euler engine of `lim-circuit`:
//!
//! * the wordline driver's final stage steps the wordline ladder,
//! * the far cell's read stack (a latching voltage-controlled switch)
//!   discharges the precharged local read bitline,
//! * the local sense (a falling-threshold switch) pulls the shared array
//!   read bitline, which is measured at its far end.
//!
//! The pre-array periphery (clock/control gating, the driver chain up to
//! its final stage, the local sense and output stages, the clock and
//! chain loads) is not simulated: it is the estimator's own periphery
//! model, computed once per bank and read by both sides, mirroring the
//! paper's setup where only the bitcell array is RC-extracted.
//! Consequently the reported tool-vs-golden error isolates the array
//! modeling gap, exactly what Table 1 quantifies. The estimate that
//! sizes a bank's simulation windows is the comparison's tool column,
//! so each bank is estimated once.
//!
//! # Batched validation
//!
//! Each configuration contributes two independent transients (read and
//! write). [`compare_batch_results`] drops repeated configurations,
//! compiles each distinct spec once, builds every circuit up front,
//! sorts all the simulations by size (rows, then steps, largest first)
//! and cuts them into panels of [`PANEL_LANES`]; each panel is one
//! [`run_probed_batch`] call, whose columns advance in lockstep whatever
//! their time step or length, and the panels fan out over `lim-par`.
//! [`compare`] and [`measure_bank`] solve one bank through the same
//! routine. A batch's results are bit-identical to lone [`compare`]
//! calls: the panel solver applies the exact same operations in the
//! exact same order to each column whatever its panel-mates.
//!
//! A configuration whose simulations would integrate more than
//! [`MAX_NODE_STEPS`] node-steps is refused before anything is solved.

use crate::compiler::{BrickCompiler, CompiledBrick, SENSE_INPUT_CAP};
use crate::error::BrickError;
use crate::estimator::{BankEstimate, Periphery, NOMINAL_OUT_LOAD_X, WRITE_DRIVER_DRIVE};
use crate::BrickSpec;
use lim_circuit::extract::{append_ladder, recharge_energy};
use lim_circuit::waveform::Edge;
use lim_circuit::{
    run_probed_batch, BatchRun, Circuit, CircuitError, NodeId, SourceId, TransientResult,
    PANEL_LANES,
};
use lim_tech::units::{Femtojoules, Picoseconds, Volts};

pub use lim_circuit::sparse::panel_kernel;

/// Golden (transient-simulated) figures for a bank of stacked bricks.
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenMeasurement {
    /// The measured spec.
    pub spec: BrickSpec,
    /// Stack count.
    pub stack: usize,
    /// Critical read path, clock to data out.
    pub read_delay: Picoseconds,
    /// Energy of one read access (alternating data word).
    pub read_energy: Femtojoules,
    /// Write path, clock to far cell written.
    pub write_delay: Picoseconds,
    /// Energy of one write access (alternating data word).
    pub write_energy: Femtojoules,
}

/// The most golden work one configuration may ask for: node-steps
/// (circuit rows × time steps), summed over its read and write
/// simulations. Every configuration of up to 256 words fits (the
/// largest, a dual-port 256×256 bank of 64 bricks, needs ~1.8e9); a
/// 1024×256 bank of 64 needs ~1.1e11, many minutes of solving.
pub const MAX_NODE_STEPS: u64 = 1 << 31;

/// The two golden circuits of one bank configuration, built but not yet
/// integrated, together with the estimate that sized them (the tool
/// side of the comparison) and the periphery the finishing pass adds to
/// the simulated array.
struct BankSims {
    tool: BankEstimate,
    periphery: Periphery,
    // Read transient.
    read_ckt: Circuit,
    read_probes: [NodeId; 2], // [arbl_far, wl_far]
    t_end: Picoseconds,
    dt: Picoseconds,
    wl_src: SourceId,
    wl_far: NodeId,
    arbl_far: NodeId,
    rbl_nodes: Vec<NodeId>,
    arbl_nodes: Vec<NodeId>,
    // Write transient.
    write_ckt: Circuit,
    write_probes: [NodeId; 1], // [cell_int]
    w_end: Picoseconds,
    wdt: Picoseconds,
    wbl_src: SourceId,
    cell_int: NodeId,
}

impl BankSims {
    fn read_run(&self) -> BatchRun<'_> {
        BatchRun {
            circuit: &self.read_ckt,
            probes: &self.read_probes,
            t_end: self.t_end,
            dt: self.dt,
        }
    }

    fn write_run(&self) -> BatchRun<'_> {
        BatchRun {
            circuit: &self.write_ckt,
            probes: &self.write_probes,
            t_end: self.w_end,
            dt: self.wdt,
        }
    }

    /// Node-steps of the read and write simulations together.
    fn node_steps(&self) -> u64 {
        [self.read_run(), self.write_run()]
            .iter()
            .map(|r| (r.circuit.node_count() as u64).saturating_mul(r.steps() as u64))
            .fold(0, u64::saturating_add)
    }
}

/// Estimates a bank and builds its read and write circuits, without
/// running anything, and refuses a bank whose simulations exceed
/// [`MAX_NODE_STEPS`].
fn build_sims(brick: &CompiledBrick, stack: usize) -> Result<BankSims, BrickError> {
    // The estimate checks the stack count and sizes both windows.
    let tool = brick.estimate_bank(stack)?;
    let tech = brick.technology();
    let vdd = tech.vdd;
    let half = Volts::new(vdd.value() / 2.0);

    // ---- Read circuit ---------------------------------------------------
    let mut ckt = Circuit::new();

    // Wordline ladder driven by the final driver stage.
    let wl_drv = ckt.add_node("wl.drv");
    let wl = append_ladder(&mut ckt, Some(wl_drv), "wl", &brick.wl_ladder(), None);
    let wl_far = *wl.last().unwrap_or(&wl_drv);
    let wl_src = ckt.add_source(wl_drv, brick.wl_driver_resistance(), Volts::ZERO);
    ckt.schedule(wl_src, Picoseconds::ZERO, vdd);

    // Local read bitline, precharged; sense node at the near end.
    let sense_node = ckt.add_node("rbl.sense");
    ckt.add_cap(sense_node, SENSE_INPUT_CAP);
    ckt.set_initial(sense_node, vdd);
    let mut rbl_nodes = vec![sense_node];
    rbl_nodes.extend(append_ladder(
        &mut ckt,
        Some(sense_node),
        "rbl",
        &brick.rbl_ladder(),
        Some(vdd),
    ));
    let rbl_far = *rbl_nodes.last().expect("the sense node heads the bitline");
    // Far cell's read stack, gated by the far wordline tap.
    ckt.add_vc_switch_to_ground(rbl_far, brick.cell().read_stack_r, wl_far, half);

    // Shared ARBL, precharged, pulled down by the sense driver when the
    // local bitline trips.
    let arbl_nodes = append_ladder(&mut ckt, None, "arbl", &brick.arbl_ladder(stack), Some(vdd));
    let (arbl_near, arbl_far) = (arbl_nodes[0], arbl_nodes[arbl_nodes.len() - 1]);
    // Output buffer input load at the far end (the same nominal load the
    // estimator assumes).
    ckt.add_cap(arbl_far, tech.c_unit * NOMINAL_OUT_LOAD_X);
    ckt.add_vc_low_switch_to_ground(
        arbl_near,
        brick.sense_driver_resistance(stack),
        sense_node,
        half,
    );

    // Simulation window sized from the analytic estimate. Only the two
    // crossing-measurement nodes need waveforms; energies come from
    // per-node final voltages, which the probed runs keep for every node.
    let t_end = Picoseconds::new(tool.read_delay.value() * 3.0 + 300.0);
    let dt = Picoseconds::new((tool.read_delay.value() / 3000.0).clamp(0.02, 0.5));

    // ---- Write circuit ---------------------------------------------------
    let mut wckt = Circuit::new();
    let wbl_drv = wckt.add_node("wbl.drv");
    let wbl = append_ladder(
        &mut wckt,
        Some(wbl_drv),
        "wbl",
        &brick.wbl_ladder(stack),
        None,
    );
    let wbl_far = *wbl.last().unwrap_or(&wbl_drv);
    // Far cell's write port: internal storage cap behind the access device.
    let cell_int = wckt.add_node("cell.int");
    wckt.add_resistor(
        wbl_far,
        cell_int,
        lim_tech::units::KiloOhms::new(brick.cell().read_stack_r.value() / 2.0),
    );
    wckt.add_cap(cell_int, brick.cell().write_internal_cap);
    let wbl_src = wckt.add_source(
        wbl_drv,
        tech.drive_resistance(WRITE_DRIVER_DRIVE),
        Volts::ZERO,
    );
    wckt.schedule(wbl_src, Picoseconds::ZERO, vdd);

    let w_end = Picoseconds::new(tool.write_delay.value() * 3.0 + 300.0);
    let wdt = Picoseconds::new((tool.write_delay.value() / 3000.0).clamp(0.02, 0.5));

    let sims = BankSims {
        tool,
        periphery: brick.periphery(stack),
        read_ckt: ckt,
        read_probes: [arbl_far, wl_far],
        t_end,
        dt,
        wl_src,
        wl_far,
        arbl_far,
        rbl_nodes,
        arbl_nodes,
        write_ckt: wckt,
        write_probes: [cell_int],
        w_end,
        wdt,
        wbl_src,
        cell_int,
    };
    let node_steps = sims.node_steps();
    if node_steps > MAX_NODE_STEPS {
        return Err(BrickError::GoldenTooLarge { node_steps });
    }
    Ok(sims)
}

/// Turns the raw read/write transients of one bank into delays and
/// energies.
fn finish(
    brick: &CompiledBrick,
    sims: &BankSims,
    res: &TransientResult,
    wres: &TransientResult,
) -> Result<GoldenMeasurement, BrickError> {
    let tech = brick.technology();
    let vdd = tech.vdd;
    let half = Volts::new(vdd.value() / 2.0);
    let p = &sims.periphery;

    let t_array = res
        .cross_time(sims.arbl_far, half, Edge::Falling)
        .ok_or(BrickError::Golden(CircuitError::BadTimeStep {
            dt: sims.dt.value(),
            t_end: sims.t_end.value(),
        }))?;
    let read_delay = p.control + p.wl_chain + t_array + p.sense + p.output;

    // Read energy: simulated wordline + per-column bitline recharges, plus
    // the periphery's clock, chain and sense-driver gate terms. The output
    // load is already a node cap in the simulated ARBL.
    let sc = 1.0 + tech.short_circuit_fraction;
    let bits = brick.spec().bits() as f64;
    let e_chain = p.chain_cap.switch_energy(vdd);
    let e_col_gates = p.sense_driver_in.switch_energy(vdd);
    let e_wl_sim = res.source_energy(sims.wl_src);
    let e_rbl_sim = recharge_energy(&sims.read_ckt, res, &sims.rbl_nodes, vdd);
    let e_arbl_sim = recharge_energy(&sims.read_ckt, res, &sims.arbl_nodes, vdd);
    let read_energy = Femtojoules::new(
        sc * (p.clock_energy.value()
            + e_chain.value()
            + e_wl_sim.value()
            + 0.5 * bits * (e_rbl_sim.value() + e_arbl_sim.value() + e_col_gates.value())),
    );

    let t_cell_written = wres
        .cross_time(sims.cell_int, half, Edge::Rising)
        .ok_or(BrickError::Golden(CircuitError::BadTimeStep {
            dt: sims.wdt.value(),
            t_end: sims.w_end.value(),
        }))?;
    // Wordline arrival is shared with the read simulation.
    let t_wl_sim = res
        .cross_time(sims.wl_far, half, Edge::Rising)
        .unwrap_or(Picoseconds::ZERO);
    let write_delay = p.control + p.wl_chain + t_wl_sim + t_cell_written;

    let e_wbl_sim = wres.source_energy(sims.wbl_src);
    let e_cell_flip = brick.cell().write_internal_cap.switch_energy(vdd);
    let write_energy = Femtojoules::new(
        sc * (p.clock_energy.value()
            + e_chain.value()
            + e_wl_sim.value()
            + 0.5 * bits * (e_wbl_sim.value() + e_cell_flip.value())),
    );

    Ok(GoldenMeasurement {
        spec: sims.tool.spec,
        stack: sims.tool.stack,
        read_delay,
        read_energy,
        write_delay,
        write_energy,
    })
}

/// Runs the golden transient measurement of a bank: [`compare`] without
/// the tool figures.
///
/// # Errors
///
/// Returns [`BrickError::InvalidStack`] for unsupported stack counts,
/// [`BrickError::GoldenTooLarge`] past [`MAX_NODE_STEPS`], or
/// [`BrickError::Golden`] if the transient solver rejects the circuit.
pub fn measure_bank(brick: &CompiledBrick, stack: usize) -> Result<GoldenMeasurement, BrickError> {
    compare(brick, stack).map(|cmp| cmp.golden)
}

/// Tool-vs-golden comparison for one configuration — one row of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct ToolVsGolden {
    /// The analytic estimate.
    pub tool: BankEstimate,
    /// The transient measurement.
    pub golden: GoldenMeasurement,
}

impl ToolVsGolden {
    /// Relative critical-path error, `(tool − golden) / golden`.
    pub fn delay_error(&self) -> f64 {
        (self.tool.read_delay.value() - self.golden.read_delay.value())
            / self.golden.read_delay.value()
    }

    /// Relative read-energy error.
    pub fn read_energy_error(&self) -> f64 {
        (self.tool.read_energy.value() - self.golden.read_energy.value())
            / self.golden.read_energy.value()
    }

    /// Relative write-energy error.
    pub fn write_energy_error(&self) -> f64 {
        (self.tool.write_energy.value() - self.golden.write_energy.value())
            / self.golden.write_energy.value()
    }
}

/// Runs both the estimator and the golden reference on a bank: a batch
/// of one.
///
/// # Errors
///
/// Propagates any estimator or golden failure.
pub fn compare(brick: &CompiledBrick, stack: usize) -> Result<ToolVsGolden, BrickError> {
    solve([Ok((brick, stack))]).results.remove(0)
}

/// Outcome of a batched golden validation, with panel statistics.
#[derive(Debug)]
pub struct GoldenBatchReport {
    /// Per-configuration outcomes, in input order.
    pub results: Vec<Result<ToolVsGolden, BrickError>>,
    /// Transient simulations integrated: two per distinct, successfully
    /// built configuration.
    pub sims: usize,
    /// Panels those simulations were cut into. `sims / groups` is the
    /// mean panel occupancy: how many runs each lockstep sweep advanced
    /// at once.
    pub groups: usize,
}

/// Validates a whole batch of `(spec, stack)` configurations — the
/// Table 1 workload — through the lockstep panel solver.
///
/// Repeated configurations are validated once, and each distinct spec
/// is compiled once on the calling thread and shared by its stacks.
/// All read and write circuits are built up front, sorted by size
/// (rows, then steps, largest first) so panel-mates pad and retire
/// little, and cut into panels of [`PANEL_LANES`]; each panel is one
/// [`run_probed_batch`] call, and the panels fan out across the
/// `lim-par` pool. Per-configuration failures (bad stack, work bound,
/// compile or solver errors) are reported in place without aborting the
/// rest of the batch. Results come back in input order regardless of
/// worker count, bit-identical to sequential [`compare`] calls.
pub fn compare_batch_results(
    tech: &lim_tech::Technology,
    configs: &[(BrickSpec, usize)],
) -> GoldenBatchReport {
    let _span = lim_obs::Span::enter("golden_batch");
    let mut distinct: Vec<(BrickSpec, usize)> = Vec::new();
    let slot: Vec<usize> = configs
        .iter()
        .map(|c| {
            distinct.iter().position(|d| d == c).unwrap_or_else(|| {
                distinct.push(*c);
                distinct.len() - 1
            })
        })
        .collect();

    // Each distinct spec compiles once; its stacks borrow the brick.
    let compiler = BrickCompiler::new(tech);
    let mut bricks: Vec<(BrickSpec, Result<CompiledBrick, BrickError>)> = Vec::new();
    for &(spec, _) in &distinct {
        if bricks.iter().all(|(s, _)| *s != spec) {
            bricks.push((spec, compiler.compile(&spec)));
        }
    }
    let banks = distinct.iter().map(|&(spec, stack)| {
        let (_, brick) = bricks.iter().find(|(s, _)| *s == spec).expect("every spec compiled");
        brick.as_ref().map(|b| (b, stack)).map_err(Clone::clone)
    });
    let mut report = solve(banks);
    report.results = slot.iter().map(|&d| report.results[d].clone()).collect();
    report
}

/// Validates `banks` (each a compiled brick and a stack count, or the
/// error that stopped its compile) through the lockstep panel solver;
/// results come back in input order.
fn solve<'a>(
    banks: impl IntoIterator<Item = Result<(&'a CompiledBrick, usize), BrickError>>,
) -> GoldenBatchReport {
    let built: Vec<Result<(&CompiledBrick, BankSims), BrickError>> = banks
        .into_iter()
        .map(|bank| {
            let (brick, stack) = bank?;
            Ok((brick, build_sims(brick, stack)?))
        })
        .collect();

    // Every sim, largest first, cut into panels.
    struct Job<'a> {
        bank: usize,
        write: bool,
        run: BatchRun<'a>,
    }
    let mut jobs: Vec<Job<'_>> = built
        .iter()
        .enumerate()
        .filter_map(|(bank, b)| Some((bank, &b.as_ref().ok()?.1)))
        .flat_map(|(bank, sims)| {
            [(false, sims.read_run()), (true, sims.write_run())]
                .map(|(write, run)| Job { bank, write, run })
        })
        .collect();
    jobs.sort_by_key(|j| std::cmp::Reverse((j.run.circuit.node_count(), j.run.steps())));
    let panels: Vec<&[Job<'_>]> = jobs.chunks(PANEL_LANES).collect();
    let (sims, groups) = (jobs.len(), panels.len());

    // One solve per panel, fanned across the worker pool. A panel
    // failure falls back to per-sim solves so the error lands only on
    // the configuration that caused it.
    let solved = lim_par::par_map(panels, |jobs| {
        let runs: Vec<BatchRun<'_>> = jobs.iter().map(|j| j.run).collect();
        let outs: Vec<Result<TransientResult, CircuitError>> = match run_probed_batch(&runs) {
            Ok(rs) => rs.into_iter().map(Ok).collect(),
            Err(_) => runs
                .iter()
                .map(|r| {
                    run_probed_batch(std::slice::from_ref(r))
                        .map(|mut v| v.pop().expect("one run yields one result"))
                })
                .collect(),
        };
        jobs.iter()
            .zip(outs)
            .map(|(j, r)| (j.bank, j.write, r))
            .collect::<Vec<_>>()
    });
    // Each bank's read and write results, in that order.
    let mut outs: Vec<[Option<Result<TransientResult, CircuitError>>; 2]> =
        built.iter().map(|_| [None, None]).collect();
    for (bank, write, r) in solved.into_iter().flatten() {
        outs[bank][usize::from(write)] = Some(r);
    }

    let results = built
        .into_iter()
        .zip(outs)
        .map(|(b, outs)| {
            let (brick, sims) = b?;
            let [res, wres] = outs
                .map(|r| r.expect("every built bank was simulated").map_err(BrickError::Golden));
            let golden = finish(brick, &sims, &res?, &wres?)?;
            Ok(ToolVsGolden {
                tool: sims.tool,
                golden,
            })
        })
        .collect();
    GoldenBatchReport {
        results,
        sims,
        groups,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitcell::BitcellKind;
    use crate::compiler::BrickCompiler;
    use lim_tech::Technology;

    fn compiled(words: usize, bits: usize) -> CompiledBrick {
        let tech = Technology::cmos65();
        BrickCompiler::new(&tech)
            .compile(&BrickSpec::new(BitcellKind::Sram8T, words, bits).unwrap())
            .unwrap()
    }

    #[test]
    fn golden_read_is_measurable_and_positive() {
        let g = measure_bank(&compiled(16, 10), 1).unwrap();
        assert!(g.read_delay.value() > 0.0);
        assert!(g.read_energy.value() > 0.0);
        assert!(g.write_delay.value() > 0.0);
        assert!(g.write_energy.value() > 0.0);
    }

    #[test]
    fn golden_grows_with_stack() {
        let b = compiled(16, 10);
        let g1 = measure_bank(&b, 1).unwrap();
        let g8 = measure_bank(&b, 8).unwrap();
        assert!(g8.read_delay > g1.read_delay);
        assert!(g8.read_energy > g1.read_energy);
    }

    #[test]
    fn compare_batch_matches_sequential_compare() {
        // Bit-identity pin: `GoldenMeasurement` and `BankEstimate` carry
        // floats and derive `PartialEq`, so `assert_eq!` here demands the
        // batched panel solves reproduce the sequential results to the
        // last bit — including the duplicated configuration, which the
        // batch validates once and clones.
        let tech = Technology::cmos65();
        let spec = BrickSpec::new(BitcellKind::Sram8T, 16, 10).unwrap();
        let spec32 = BrickSpec::new(BitcellKind::Sram8T, 32, 12).unwrap();
        let configs = [(spec, 1usize), (spec, 4), (spec32, 1), (spec, 4)];
        let batch = compare_batch_results(&tech, &configs).results;
        assert_eq!(batch.len(), 4);
        let compiler = BrickCompiler::new(&tech);
        for (got, &(spec, stack)) in batch.iter().zip(&configs) {
            let got = got.as_ref().unwrap();
            let brick = compiler.compile(&spec).unwrap();
            let want = compare(&brick, stack).unwrap();
            assert_eq!(got.golden, want.golden, "{spec:?} stack {stack}");
            assert_eq!(got.tool, want.tool, "{spec:?} stack {stack}");
        }
    }

    #[test]
    fn each_distinct_config_is_estimated_once() {
        // A bank's estimate sizes its simulation windows and is its tool
        // column: N distinct configurations run the estimator N times
        // however often they repeat, and each spec compiles once.
        lim_obs::set_enabled(true);
        lim_obs::reset();
        let tech = Technology::cmos65();
        let spec = BrickSpec::new(BitcellKind::Sram8T, 16, 10).unwrap();
        let spec32 = BrickSpec::new(BitcellKind::Sram8T, 32, 12).unwrap();
        let configs = [(spec, 1usize), (spec, 4), (spec32, 1), (spec, 4)];
        let report = compare_batch_results(&tech, &configs);
        assert!(report.results.iter().all(Result::is_ok));
        let counts = lim_obs::Report::capture();
        assert_eq!(counts.counter("brick.characterizations"), Some(3));
        assert_eq!(counts.counter("brick.compiles"), Some(2));
        // A lone comparison is a batch of one.
        let brick = compiled(16, 10);
        lim_obs::reset();
        compare(&brick, 2).unwrap();
        let counts = lim_obs::Report::capture();
        assert_eq!(counts.counter("brick.characterizations"), Some(1));
    }

    #[test]
    fn batch_report_counts_sims_and_groups() {
        let tech = Technology::cmos65();
        let spec = BrickSpec::new(BitcellKind::Sram8T, 16, 10).unwrap();
        let configs = [(spec, 1usize), (spec, 4), (spec, 4)];
        let report = compare_batch_results(&tech, &configs);
        assert_eq!(report.results.len(), 3);
        assert!(report.results.iter().all(|r| r.is_ok()));
        // The duplicated stack-4 configuration is validated once, so
        // two distinct configurations contribute four sims, which fill
        // one panel.
        assert_eq!(report.sims, 4);
        assert_eq!(report.groups, 1);
    }

    #[test]
    fn batch_reports_errors_in_place() {
        let tech = Technology::cmos65();
        let spec = BrickSpec::new(BitcellKind::Sram8T, 16, 10).unwrap();
        let report = compare_batch_results(&tech, &[(spec, 99), (spec, 1)]);
        assert!(matches!(
            report.results[0],
            Err(BrickError::InvalidStack(99))
        ));
        assert!(report.results[1].is_ok());
        // The bad entry never produced sims.
        assert_eq!(report.sims, 2);
    }

    #[test]
    fn work_bound_admits_256_words_and_refuses_1024() {
        // Counted from the built circuits, without solving: the largest
        // bank of up to 256 words fits under the bound, a 1024-word one
        // does not, and measuring it fails before any solve.
        let tech = Technology::cmos65();
        let compiler = BrickCompiler::new(&tech);
        let dual = |words| {
            compiler
                .compile(&BrickSpec::new(BitcellKind::DualPort, words, 256).unwrap())
                .unwrap()
        };
        let admitted = build_sims(&dual(256), 64).unwrap().node_steps();
        assert!(admitted > MAX_NODE_STEPS / 2 && admitted <= MAX_NODE_STEPS, "{admitted}");
        let big = dual(1024);
        let Err(BrickError::GoldenTooLarge { node_steps }) = build_sims(&big, 64) else {
            panic!("a 1024x256 bank of 64 must exceed the work bound");
        };
        assert!(node_steps > 40 * MAX_NODE_STEPS, "{node_steps}");
        let started = std::time::Instant::now();
        let err = measure_bank(&big, 64).unwrap_err();
        assert_eq!(err, BrickError::GoldenTooLarge { node_steps });
        assert!(err.to_string().contains(&MAX_NODE_STEPS.to_string()), "{err}");
        assert!(started.elapsed() < std::time::Duration::from_secs(5));
    }

    #[test]
    fn tool_tracks_golden_within_table1_band() {
        // Table 1 reports 2–7 % delay error and 0–4 % energy error; allow
        // a slightly wider band for our reproduction.
        for (words, bits, stack) in [(16usize, 10usize, 1usize), (16, 10, 4), (32, 12, 1)] {
            let cmp = compare(&compiled(words, bits), stack).unwrap();
            assert!(
                cmp.delay_error().abs() < 0.15,
                "{words}x{bits} stack {stack}: delay error {:.1}%",
                cmp.delay_error() * 100.0
            );
            assert!(
                cmp.read_energy_error().abs() < 0.15,
                "{words}x{bits} stack {stack}: read energy error {:.1}%",
                cmp.read_energy_error() * 100.0
            );
        }
    }
}
