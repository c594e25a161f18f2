//! Bench: the RTL memory-inference frontend on the committed
//! `examples/smart_mem.v` design (1024x16) — parse alone, the full
//! parse→infer→lower pipeline, structural Verilog emission of the
//! lowered netlist alone, mapping (`optimize`) of the lowered netlist,
//! static timing of the mapped, placed and routed netlist, and
//! `rtl.infer`'s whole `infer_and_synthesize` path through physical
//! synthesis.

use lim::flow::LimFlow;
use lim::rtl_infer::infer_and_synthesize;
use lim_brick::{BitcellKind, BrickSpec};
use lim_physical::floorplan::Floorplan;
use lim_physical::{place, route, sta};
use lim_rtl::infer::infer;
use lim_rtl::mapping::optimize;
use lim_rtl::smartmem::{lower, MemLowering};
use lim_testkit::bench::{black_box, Bench};
use std::collections::BTreeMap;

const SRC: &str = include_str!("../../../examples/smart_mem.v");

fn bench_rtl_infer(c: &mut Bench) {
    let mut group = c.benchmark_group("rtl_infer");
    group.bench_function("parse_1024x16", |b| {
        b.iter(|| black_box(lim_rtl::parse(SRC).unwrap().source_lines))
    });
    // The pinned decomposition `rtl.infer` picks for this design.
    let plans: BTreeMap<String, MemLowering> = [(
        "mem".to_owned(),
        MemLowering {
            brick_words: 64,
            entry_names: vec!["brick_8t_64_16_x16".to_owned()],
        },
    )]
    .into_iter()
    .collect();
    group.bench_function("frontend_1024x16", |b| {
        // Parse → infer → lower, measuring the frontend alone (no DSE
        // sweep, no physical flow).
        b.iter(|| {
            let module = lim_rtl::parse(SRC).unwrap();
            let inference = infer(&module);
            let netlist = lower(&module, &inference, &plans).unwrap();
            black_box(netlist.net_count())
        })
    });
    let module = lim_rtl::parse(SRC).unwrap();
    let lowered = lower(&module, &infer(&module), &plans).unwrap();
    group.bench_function("emit_1024x16", |b| {
        b.iter(|| black_box(lim_rtl::verilog::emit(&lowered).len()))
    });
    group.bench_function("map_1024x16", |b| {
        b.iter(|| black_box(optimize(&lowered).unwrap().0.cell_count()))
    });
    // STA alone on the mapped netlist, placed and routed the way the
    // flow does it, against the pinned brick entry.
    let mut flow = LimFlow::cmos65();
    let tech = flow.technology().clone();
    let spec = BrickSpec::new(BitcellKind::Sram8T, 64, 16).unwrap();
    flow.library_mut().get_or_insert(&tech, &spec, 16).unwrap();
    let (mapped, _) = optimize(&lowered).unwrap();
    let opts = &flow.options;
    let library = flow.library();
    let fp = Floorplan::build(&tech, &mapped, library, &opts.floorplan).unwrap();
    let placement = place::place(&tech, &mapped, &fp, opts.seed, opts.effort).unwrap();
    let routes = route::estimate(&tech, &mapped, &placement, &fp, library).unwrap();
    group.bench_function("sta_1024x16", |b| {
        b.iter(|| {
            let timing = sta::analyze(&tech, &mapped, &routes, library, opts.input_slew).unwrap();
            black_box(timing.fmax.value())
        })
    });
    group.sample_size(10);
    group.bench_function("flow_1024x16", |b| {
        b.iter(|| {
            let mut flow = LimFlow::cmos65();
            let report = infer_and_synthesize(&mut flow, SRC, &[16, 32, 64]).unwrap();
            black_box(report.block.report.fmax.value())
        })
    });
    group.finish();
}

fn main() {
    let mut c = Bench::from_args("rtl_infer");
    bench_rtl_infer(&mut c);
    c.finish();
}
