//! Property-based tests spanning the workspace: accelerator correctness
//! on arbitrary matrices, LUT interpolation laws, logical-effort
//! monotonicity, unit algebra, and SRAM-config robustness. Runs on the
//! hermetic `lim-testkit` harness (seeded cases, failing-seed reporting).

use lim_brick::lut::Lut2D;
use lim_brick::BrickLibrary;
use lim_physical::floorplan::{Floorplan, FloorplanOptions};
use lim_physical::place::{place_audited, PlaceEffort};
use lim_rtl::{Netlist, Simulator, StdCellKind};
use lim_spgemm::accel::heap::HeapAccelerator;
use lim_spgemm::accel::lim_cam::LimCamAccelerator;
use lim_spgemm::matrix::Triplets;
use lim_spgemm::reference::spgemm;
use lim_tech::logical_effort::Path;
use lim_tech::units::{Femtofarads, Femtojoules, Megahertz, Picoseconds};
use lim_tech::Technology;
use lim_testkit::prop::{check, check_with};
use lim_testkit::TestRng;

fn any_matrix(rng: &mut TestRng, n: usize, max_entries: usize) -> lim_spgemm::Csc {
    let entries = rng.gen_range(0usize..max_entries);
    let mut t = Triplets::new(n, n);
    for _ in 0..entries {
        let (r, c) = (rng.gen_range(0..n), rng.gen_range(0..n));
        t.push(r, c, rng.gen_range(0.1f64..2.0)).expect("in range");
    }
    t.to_csc()
}

/// Builds a random feed-forward netlist; every new gate's inputs draw
/// from already-existing nets, so the result is a DAG by construction.
fn any_netlist(rng: &mut TestRng, n_inputs: usize, max_gates: usize) -> Netlist {
    let kinds = [
        StdCellKind::Inv,
        StdCellKind::Buf,
        StdCellKind::Nand2,
        StdCellKind::Nor2,
        StdCellKind::And2,
        StdCellKind::Or2,
        StdCellKind::Xor2,
        StdCellKind::Aoi21,
        StdCellKind::Mux2,
    ];
    let gates = rng.gen_range(1usize..max_gates);
    let mut n = Netlist::new("fuzz");
    let mut nets: Vec<lim_rtl::NetId> = (0..n_inputs)
        .map(|i| n.add_input(format!("in{i}")))
        .collect();
    // A couple of constants spice up the folding paths.
    nets.push(n.add_tie(false, "t0"));
    nets.push(n.add_tie(true, "t1"));
    for g in 0..gates {
        let kind = kinds[rng.gen_range(0..kinds.len())];
        let ins: Vec<lim_rtl::NetId> = (0..kind.input_count())
            .map(|_| nets[rng.gen_range(0..nets.len())])
            .collect();
        let out = n
            .add_gate(kind, 1.0, &ins, format!("g{g}"))
            .expect("arity matches");
        nets.push(out);
    }
    // Observe the last few nets so the design isn't all dead.
    for &o in nets.iter().rev().take(4) {
        n.mark_output(o);
    }
    n
}

#[test]
fn incremental_placement_cost_matches_fresh_recompute() {
    // The annealer maintains its HPWL incrementally (per-net cached
    // perimeters updated under swap moves); `place_audited` compares
    // that running cost against a from-scratch recompute after every
    // accepted move and reports the worst relative divergence. On any
    // random netlist it must stay at floating-point-roundoff scale.
    let tech = Technology::cmos65();
    check("incremental_placement_cost_matches_fresh_recompute", |rng| {
        let netlist = any_netlist(rng, 6, 48);
        let fp = Floorplan::build(&tech, &netlist, &BrickLibrary::new(), &FloorplanOptions::default())
            .unwrap();
        let seed = rng.next_u64();
        let (placement, drift) =
            place_audited(&tech, &netlist, &fp, seed, PlaceEffort::default()).unwrap();
        assert!(
            drift <= 1e-9,
            "incremental cost drifted {drift:e} from a fresh recompute (seed {seed})"
        );
        assert!(placement.hpwl.is_finite() && placement.hpwl >= 0.0);
    });
}

#[test]
fn optimization_preserves_function_on_random_netlists() {
    check("optimization_preserves_function_on_random_netlists", |rng| {
        let netlist = any_netlist(rng, 5, 40);
        let stimuli: Vec<Vec<bool>> = (0..4)
            .map(|_| (0..5).map(|_| rng.gen::<bool>()).collect())
            .collect();
        let (optimized, _) = lim_rtl::mapping::optimize(&netlist).unwrap();
        let mut before = Simulator::new(&netlist).unwrap();
        let mut after = Simulator::new(&optimized).unwrap();
        for input in &stimuli {
            assert_eq!(before.eval(input).unwrap(), after.eval(input).unwrap());
        }
    });
}

#[test]
fn accelerators_match_oracle_on_arbitrary_matrices() {
    check("accelerators_match_oracle_on_arbitrary_matrices", |rng| {
        let a = any_matrix(rng, 24, 120);
        let b = any_matrix(rng, 24, 120);
        let oracle = spgemm(&a, &b).unwrap();
        let lim = LimCamAccelerator::paper_chip().multiply(&a, &b).unwrap();
        let heap = HeapAccelerator::paper_chip().multiply(&a, &b).unwrap();
        assert!(lim.product.approx_eq(&oracle, 1e-9));
        assert!(heap.product.approx_eq(&oracle, 1e-9));
        assert_eq!(lim.stats.multiplies, heap.stats.multiplies);
        // The LiM chip never does worse than serial one-per-product
        // plus bounded overheads.
        let bound = lim.stats.multiplies
            + 2 * lim.stats.new_entries
            + 32 * lim.stats.overflow_flushes
            + oracle.nnz() as u64
            + 64;
        assert!(lim.stats.cycles <= bound);
    });
}

#[test]
fn transpose_is_an_involution() {
    check("transpose_is_an_involution", |rng| {
        let a = any_matrix(rng, 16, 80);
        assert!(a.transpose().transpose().approx_eq(&a, 0.0));
        assert_eq!(a.transpose().nnz(), a.nnz());
    });
}

#[test]
fn lut_bilinear_is_exact_on_planes() {
    check("lut_bilinear_is_exact_on_planes", |rng| {
        let kx = rng.gen_range(0.01f64..5.0);
        let ky = rng.gen_range(0.01f64..5.0);
        let c = rng.gen_range(-10.0f64..10.0);
        let x = rng.gen_range(0.0f64..100.0);
        let y = rng.gen_range(0.0f64..100.0);
        let lut = Lut2D::tabulate(
            vec![0.0, 30.0, 70.0, 100.0],
            vec![0.0, 25.0, 100.0],
            |px, py| kx * px + ky * py + c,
        )
        .unwrap();
        let expect = kx * x + ky * y + c;
        assert!((lut.lookup(x, y) - expect).abs() < 1e-9);
    });
}

#[test]
fn lut_lookup_is_bounded_by_grid_values() {
    check("lut_lookup_is_bounded_by_grid_values", |rng| {
        let vals: Vec<f64> = (0..6).map(|_| rng.gen_range(0.0f64..100.0)).collect();
        let x = rng.gen_range(-10.0f64..40.0);
        let y = rng.gen_range(-10.0f64..40.0);
        let lut = Lut2D::new(vec![0.0, 10.0, 30.0], vec![0.0, 20.0], vals.clone()).unwrap();
        let v = lut.lookup(x, y);
        let lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
    });
}

#[test]
fn logical_effort_delay_monotone_in_load() {
    check("logical_effort_delay_monotone_in_load", |rng| {
        let stages = rng.gen_range(1usize..5);
        let c1 = rng.gen_range(1.0f64..50.0);
        let extra = rng.gen_range(0.1f64..50.0);
        let tech = Technology::cmos65();
        let path = Path::inverter_chain(stages);
        let cin = Femtofarads::new(1.4);
        let d1 = path.min_delay(&tech, cin, Femtofarads::new(c1));
        let d2 = path.min_delay(&tech, cin, Femtofarads::new(c1 + extra));
        assert!(d2 > d1);
    });
}

#[test]
fn unit_algebra_roundtrips() {
    check("unit_algebra_roundtrips", |rng| {
        let e_fj = rng.gen_range(1.0f64..1e9);
        let f_mhz = rng.gen_range(1.0f64..5000.0);
        let e = Femtojoules::new(e_fj);
        let f = Megahertz::new(f_mhz);
        let p = e.average_power(f);
        let back = p.energy_per_cycle(f);
        assert!((back.value() - e.value()).abs() / e.value() < 1e-12);

        let t = Picoseconds::new(1e6 / f_mhz);
        assert!((t.to_frequency().value() - f_mhz).abs() / f_mhz < 1e-12);
    });
}

#[test]
fn estimator_monotone_in_stack() {
    check("estimator_monotone_in_stack", |rng| {
        let stack = rng.gen_range(1usize..16);
        let tech = Technology::cmos65();
        let brick = lim_brick::BrickCompiler::new(&tech)
            .compile(&lim_brick::BrickSpec::new(lim_brick::BitcellKind::Sram8T, 16, 10).unwrap())
            .unwrap();
        let a = brick.estimate_bank(stack).unwrap();
        let b = brick.estimate_bank(stack + 1).unwrap();
        assert!(b.read_delay >= a.read_delay);
        assert!(b.read_energy > a.read_energy);
        assert!(b.area > a.area);
    });
}

#[test]
fn pareto_front_members_are_not_dominated() {
    check("pareto_front_members_are_not_dominated", |rng| {
        // Build a synthetic DSE population from seeds and check the
        // front invariant.
        let n_seeds = rng.gen_range(3usize..8);
        let seeds: Vec<u64> = (0..n_seeds).map(|_| rng.gen_range(0u64..1000)).collect();
        let tech = Technology::cmos65();
        let depths: Vec<usize> = vec![16, 32];
        let mems: Vec<(usize, usize)> = seeds
            .iter()
            .map(|s| (64 << (s % 2), 8 + (s % 3) as usize * 4))
            .collect();
        let points = lim::dse::explore(&tech, &mems, &depths).unwrap();
        let front = lim::dse::pareto_front(&points);
        assert!(!front.is_empty());
        for &i in &front {
            for (j, q) in points.iter().enumerate() {
                if i == j {
                    continue;
                }
                let p = &points[i];
                let dominates = q.delay.value() <= p.delay.value()
                    && q.energy.value() <= p.energy.value()
                    && q.area.value() <= p.area.value()
                    && (q.delay.value() < p.delay.value()
                        || q.energy.value() < p.energy.value()
                        || q.area.value() < p.area.value());
                assert!(!dominates);
            }
        }
    });
}

/// Behavioral source of a memory inside the inferable RTL subset:
/// `words` deep and `bits` wide, optionally split at bit `split` into
/// two byte-enable lanes, with a registered read port.
fn mem_source(words: usize, bits: usize, split: Option<usize>) -> String {
    let abits = usize::BITS as usize - (words - 1).leading_zeros() as usize;
    let we_decl = if split.is_some() {
        "input wire [1:0] we"
    } else {
        "input wire we"
    };
    let writes = match split {
        Some(s) => format!(
            "    if (we[0]) mem[waddr][{lo}:0] <= din[{lo}:0];\n\
             \x20   if (we[1]) mem[waddr][{hi}:{s}] <= din[{hi}:{s}];\n",
            lo = s - 1,
            hi = bits - 1,
        ),
        None => "    if (we)\n      mem[waddr] <= din;\n".to_owned(),
    };
    format!(
        "module fuzzmem (\n\
         \x20 input wire clk,\n\
         \x20 {we_decl},\n\
         \x20 input wire [{a}:0] waddr,\n\
         \x20 input wire [{a}:0] raddr,\n\
         \x20 input wire [{b}:0] din,\n\
         \x20 output reg [{b}:0] dout\n\
         );\n\
         \x20 reg [{b}:0] mem [{d}:0];\n\
         \x20 always @(posedge clk) begin\n\
         {writes}\
         \x20   dout <= mem[raddr];\n\
         \x20 end\n\
         endmodule\n",
        a = abits - 1,
        b = bits - 1,
        d = words - 1,
    )
}

/// A random behavioral memory design inside the inferable RTL subset:
/// power-of-two depth, random word width, optionally split into two
/// byte-enable lanes. Returns the source plus (words, bits, lanes).
fn any_mem_source(rng: &mut TestRng) -> (String, usize, usize, usize) {
    let words = [8usize, 16, 32][rng.gen_range(0usize..3)];
    let bits = rng.gen_range(2usize..=12);
    let split = rng.gen_bool(0.5).then(|| rng.gen_range(1..bits));
    let lanes = if split.is_some() { 2 } else { 1 };
    (mem_source(words, bits, split), words, bits, lanes)
}

/// A random configuration `sram::generate` accepts: 1, 2, 4 or 8 banks
/// (a power of two deep when banked), a random width, and a brick
/// depth that tiles a bank within the stack bound.
fn any_sram(rng: &mut TestRng) -> lim::SramConfig {
    let partitions = 1usize << rng.gen_range(0u32..4);
    let per_bank = if partitions == 1 {
        rng.gen_range(2usize..=48)
    } else {
        1 << rng.gen_range(1u32..=5)
    };
    let depths: Vec<usize> = (1..=per_bank)
        .filter(|&d| per_bank % d == 0 && per_bank / d <= 64)
        .collect();
    let brick_words = depths[rng.gen_range(0..depths.len())];
    let bits = rng.gen_range(1usize..=12);
    lim::SramConfig::new(partitions * per_bank, bits, partitions, brick_words)
        .expect("drawn inside the accepted space")
}

/// Both memory builders against the behavioral interpreter: a lowered
/// random design, or a generated SRAM next to the single-lane module it
/// implements, stepped through the SRAM-brick model with same-address
/// collisions in the trace.
#[test]
fn rtl_infer_roundtrip_is_cycle_exact() {
    use lim_rtl::smartmem::{lower, MemLowering};
    use lim_rtl::testbench::{Ports, SramBrickModel, Testbench};
    use std::collections::BTreeMap;

    let config = lim_testkit::prop::PropConfig::with_cases(64);
    check_with(config, "rtl_infer_roundtrip_is_cycle_exact", |rng| {
        let (src, netlist, words, bits, lanes) = if rng.gen_bool(0.5) {
            let (src, words, bits, lanes) = any_mem_source(rng);
            let module = lim_rtl::parse(&src).expect("generated source is in the subset");
            let inference = lim_rtl::infer::infer(&module);
            assert!(
                inference.rejected.is_empty(),
                "generated design rejected: {:?}\n{src}",
                inference.rejected
            );
            assert_eq!(inference.memories.len(), 1);
            let mem = &inference.memories[0];
            assert_eq!(
                (mem.words, mem.bits, mem.lanes().len()),
                (words, bits, lanes)
            );

            // Any depth divisor is a valid decomposition for lowering; the
            // cycle behavior must not depend on which one DSE would pick.
            let brick_words = (words >> rng.gen_range(0usize..3)).max(2);
            let stack = words / brick_words;
            let plan = MemLowering {
                brick_words,
                entry_names: mem
                    .lanes()
                    .iter()
                    .map(|l| format!("brick_8t_{brick_words}_{}_x{stack}", l.width()))
                    .collect(),
            };
            let plans: BTreeMap<String, MemLowering> =
                [(mem.name.clone(), plan)].into_iter().collect();
            let netlist = lower(&module, &inference, &plans).expect("lowering succeeds");
            (src, netlist, words, bits, lanes)
        } else {
            let sram = any_sram(rng);
            let netlist =
                lim::sram::generate(&Technology::cmos65(), &sram, &mut BrickLibrary::new())
                    .expect("generation succeeds");
            let src = mem_source(sram.words(), sram.bits(), None);
            (src, netlist, sram.words(), sram.bits(), 1)
        };

        let module = lim_rtl::parse(&src).expect("generated source is in the subset");
        let mut tb = Testbench::new(&netlist, SramBrickModel::for_cell).unwrap();
        let mut gold = lim_rtl::BehavInterp::new(&module).unwrap();
        for cycle in 0..16 {
            let waddr = rng.gen_range(0u64..words as u64);
            // A quarter of the cycles read the word being written.
            let raddr = if rng.gen_bool(0.25) {
                waddr
            } else {
                rng.gen_range(0u64..words as u64)
            };
            let inputs: Ports = [
                ("we".to_owned(), rng.gen_range(0u64..(1 << lanes))),
                ("waddr".to_owned(), waddr),
                ("raddr".to_owned(), raddr),
                ("din".to_owned(), rng.gen_range(0u64..(1 << bits))),
            ]
            .into_iter()
            .collect();
            // Registered outputs hold between edges whatever the inputs do.
            assert_eq!(
                tb.settle(&inputs).unwrap(),
                gold.outputs(&inputs),
                "cycle {cycle} moved before its edge on {inputs:?}\n{src}"
            );
            assert_eq!(
                tb.cycle(&inputs).unwrap(),
                gold.step(&inputs),
                "cycle {cycle} diverged on {inputs:?}\n{src}"
            );
        }
    });
}

#[test]
fn rtl_parser_survives_hostile_input() {
    check("rtl_parser_survives_hostile_input", |rng| {
        let input = match rng.gen_range(0usize..4) {
            // Raw character soup, heavy on Verilog punctuation.
            0 => {
                let palette = [
                    'm', 'o', 'd', 'u', 'l', 'e', 'r', 'g', 'b', 'i', 'n', '(', ')', '[', ']',
                    ':', ';', ',', '@', '.', '<', '=', '/', '*', '0', '9', '_', ' ', '\n',
                    '\u{0}', 'é',
                ];
                (0..rng.gen_range(0usize..96))
                    .map(|_| palette[rng.gen_range(0..palette.len())])
                    .collect()
            }
            // Valid designs truncated mid-flight.
            1 => {
                let (full, ..) = any_mem_source(rng);
                let cut = rng.gen_range(0..=full.len());
                full.chars().take(cut).collect()
            }
            // `if` nesting far past the parser's recursion bound.
            2 => format!(
                "module m (input clk, input a, output reg q);\n\
                 always @(posedge clk) {}q <= a;\nendmodule",
                "if (a) ".repeat(rng.gen_range(1usize..512))
            ),
            // Valid designs with one random character garbled.
            _ => {
                let (mut text, ..) = any_mem_source(rng);
                let boundaries: Vec<usize> = text.char_indices().map(|(i, _)| i).collect();
                let at = boundaries[rng.gen_range(0..boundaries.len())];
                let garble = ['\\', '"', ']', 'x', '\u{7}', '<'][rng.gen_range(0usize..6)];
                let tail: String = text[at..].chars().skip(1).collect();
                text.truncate(at);
                text.push(garble);
                text.push_str(&tail);
                text
            }
        };
        // The property: parsing must return, never panic or overflow,
        // and every diagnostic must carry a real source position.
        if let Err(e) = lim_rtl::parse(&input) {
            assert!(e.line >= 1, "{e}");
            assert!(e.col >= 1, "{e}");
            assert!(!e.msg.is_empty());
        }
    });
}

/// A random syntactically valid JSON document (bounded depth/width),
/// used as raw material for truncation and mutation below.
fn any_json_text(rng: &mut TestRng, depth: usize) -> String {
    let kind = if depth == 0 {
        rng.gen_range(0usize..4)
    } else {
        rng.gen_range(0usize..6)
    };
    match kind {
        0 => "null".into(),
        1 => if rng.gen_bool(0.5) { "true" } else { "false" }.into(),
        2 => format!("{:.3}", rng.gen_range(-1.0e6..1.0e6)),
        3 => {
            let palette = ['a', 'Z', '0', ' ', '"', '\\', '\n', '\u{1f}', 'µ', '汉'];
            let s: String = (0..rng.gen_range(0usize..12))
                .map(|_| palette[rng.gen_range(0..palette.len())])
                .collect();
            lim_obs::json::string(&s)
        }
        4 => {
            let items: Vec<String> = (0..rng.gen_range(0usize..4))
                .map(|_| any_json_text(rng, depth - 1))
                .collect();
            format!("[{}]", items.join(","))
        }
        _ => {
            let members: Vec<String> = (0..rng.gen_range(0usize..4))
                .map(|i| format!("\"k{i}\":{}", any_json_text(rng, depth - 1)))
                .collect();
            format!("{{{}}}", members.join(","))
        }
    }
}

#[test]
fn json_parser_survives_hostile_input() {
    check("json_parser_survives_hostile_input", |rng| {
        let input = match rng.gen_range(0usize..4) {
            // Raw character soup, heavy on JSON punctuation.
            0 => {
                let palette = [
                    '{', '}', '[', ']', '"', ':', ',', '\\', 'e', '-', '+', '.', '0', '9', 'n',
                    't', 'f', ' ', '\n', 'u', '\u{0}', 'é',
                ];
                (0..rng.gen_range(0usize..64))
                    .map(|_| palette[rng.gen_range(0..palette.len())])
                    .collect()
            }
            // Valid documents truncated mid-flight.
            1 => {
                let full = any_json_text(rng, 3);
                let cut = rng.gen_range(0..=full.len());
                full.chars().take(cut).collect()
            }
            // Nesting far past the parser's depth bound.
            2 => {
                let depth = rng.gen_range(1usize..4 * lim_obs::json::MAX_DEPTH);
                if rng.gen_bool(0.5) {
                    "[".repeat(depth)
                } else {
                    "{\"a\":".repeat(depth)
                }
            }
            // Valid documents with one random byte swapped in.
            _ => {
                let mut text = any_json_text(rng, 3);
                if !text.is_empty() {
                    let boundaries: Vec<usize> =
                        text.char_indices().map(|(i, _)| i).collect();
                    let at = boundaries[rng.gen_range(0..boundaries.len())];
                    let garble = ['\\', '"', '}', 'x', '\u{7}'][rng.gen_range(0usize..5)];
                    let tail: String = text[at..].chars().skip(1).collect();
                    text.truncate(at);
                    text.push(garble);
                    text.push_str(&tail);
                }
                text
            }
        };
        // The property: parsing must return, never panic or overflow.
        // Accepted documents must round-trip to a render fixed point.
        match lim_obs::json::Value::parse(&input) {
            Ok(v) => {
                let rendered = lim_obs::json::render(&v);
                let again = lim_obs::json::Value::parse(&rendered)
                    .expect("render output must re-parse");
                assert_eq!(lim_obs::json::render(&again), rendered);
            }
            Err(e) => {
                assert!(!e.to_string().is_empty());
            }
        }
    });
}

/// Test-only reference: the name-keyed emitter `lim_rtl::verilog::emit`
/// replaced. It resolves identifiers through a table keyed on the
/// original name string, building every pin list as owned `String`s.
/// Where no two nets (or two cells) share an original name, both
/// emitters must agree byte for byte.
mod reference_emit {
    use lim_rtl::{CellKind, NetId, Netlist};
    use std::collections::{HashMap, HashSet};

    fn ident(name: &str) -> String {
        name.chars()
            .map(|c| {
                if c.is_alphanumeric() || c == '_' {
                    c
                } else {
                    '_'
                }
            })
            .collect()
    }

    #[derive(Debug, Default)]
    struct NameTable {
        assigned: HashMap<String, String>,
        used: HashSet<String>,
    }

    impl NameTable {
        fn resolve(&mut self, original: &str) -> String {
            if let Some(done) = self.assigned.get(original) {
                return done.clone();
            }
            let base = ident(original);
            let name = if self.used.insert(base.clone()) {
                base
            } else {
                let mut k = 2usize;
                loop {
                    let candidate = format!("{base}_{k}");
                    if self.used.insert(candidate.clone()) {
                        break candidate;
                    }
                    k += 1;
                }
            };
            self.assigned.insert(original.to_owned(), name.clone());
            name
        }
    }

    pub fn emit(netlist: &Netlist) -> String {
        use std::fmt::Write as _;
        let mut net_names = NameTable::default();
        let mut inst_names = NameTable::default();
        let net = |id: NetId, t: &mut NameTable| t.resolve(netlist.net_name(id));

        let mut v = String::new();
        let _ = writeln!(
            v,
            "// Auto-generated structural netlist: {}",
            netlist.name()
        );
        let _ = writeln!(v, "module {} (", ident(netlist.name()));
        let mut ports: Vec<String> = Vec::new();
        for &pi in netlist.primary_inputs() {
            ports.push(format!("  input  wire {}", net(pi, &mut net_names)));
        }
        for &po in netlist.primary_outputs() {
            ports.push(format!("  output wire {}", net(po, &mut net_names)));
        }
        let _ = writeln!(v, "{}", ports.join(",\n"));
        let _ = writeln!(v, ");");
        for i in 0..netlist.net_count() {
            let id = NetId::from_index(i);
            if !netlist.primary_inputs().contains(&id) && !netlist.primary_outputs().contains(&id) {
                let _ = writeln!(v, "  wire {};", net(id, &mut net_names));
            }
        }
        for cell in netlist.cells() {
            let pins = |t: &mut NameTable| -> Vec<String> {
                cell.inputs
                    .iter()
                    .chain(cell.outputs.iter())
                    .map(|&n| net(n, t))
                    .collect()
            };
            match &cell.kind {
                CellKind::Gate { kind, drive } => {
                    let pins = pins(&mut net_names);
                    let _ = writeln!(
                        v,
                        "  {}_X{} {} ({});",
                        kind.name(),
                        (*drive).round() as i64,
                        inst_names.resolve(&cell.name),
                        pins.join(", ")
                    );
                }
                CellKind::Macro { lib_name } => {
                    let pins = pins(&mut net_names);
                    let _ = writeln!(
                        v,
                        "  {} {} ({});",
                        ident(lib_name),
                        inst_names.resolve(&cell.name),
                        pins.join(", ")
                    );
                }
                CellKind::Tie { value } => {
                    let _ = writeln!(
                        v,
                        "  assign {} = 1'b{};",
                        net(cell.outputs[0], &mut net_names),
                        *value as u8
                    );
                }
            }
        }
        let _ = writeln!(v, "endmodule");
        v
    }
}

/// True when no two nets and no two cells carry the same original name
/// (the precondition under which the reference emitter is exact).
fn names_are_distinct(n: &Netlist) -> bool {
    let mut nets = std::collections::HashSet::new();
    let mut cells = std::collections::HashSet::new();
    (0..n.net_count()).all(|i| nets.insert(n.net_name(lim_rtl::NetId::from_index(i))))
        && n.cells().iter().all(|c| cells.insert(c.name.as_str()))
}

/// A netlist whose distinct names collide once sanitized: every net
/// and instance name is drawn (without replacement) from families like
/// `a[0]` / `a_0_` / `a_0__2`, so uniquifying suffixes stack up.
fn collision_netlist(rng: &mut TestRng) -> Netlist {
    let mut pool: Vec<String> = [
        "a[0]",
        "a_0_",
        "a_0__2",
        "a_0__2_2",
        "a.0.",
        "a 0 ",
        "x[1][2]",
        "x_1__2_",
        "x_1_[2]",
        "x_1__2__2",
        "é[0]",
        "é_0_",
        "b",
        "b_2",
        "b-2",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();
    // Fisher-Yates over the pool so arrival order varies per case.
    for i in (1..pool.len()).rev() {
        pool.swap(i, rng.gen_range(0..=i));
    }
    let inputs = rng.gen_range(2usize..5);
    let mut n = Netlist::new("clash[top]");
    let mut nets: Vec<lim_rtl::NetId> = pool[..inputs]
        .iter()
        .map(|s| n.add_input(s.as_str()))
        .collect();
    for name in &pool[inputs..] {
        let kind =
            [StdCellKind::Inv, StdCellKind::And2, StdCellKind::Dff][rng.gen_range(0usize..3)];
        let ins: Vec<lim_rtl::NetId> = (0..kind.input_count())
            .map(|_| nets[rng.gen_range(0..nets.len())])
            .collect();
        let out = if kind == StdCellKind::Dff {
            n.add_dff(ins[0], 1.0, name.as_str())
        } else {
            n.add_gate(kind, 1.0, &ins, name.as_str())
                .expect("arity matches")
        };
        nets.push(out);
    }
    let pins: Vec<lim_rtl::NetId> = nets.iter().rev().take(3).copied().collect();
    let outs = n.add_macro("u_a[0]x", "brick-8t.16x4", &pins, 2, "q[m]");
    n.mark_output(outs[1]);
    for _ in 0..rng.gen_range(1usize..4) {
        n.mark_output(nets[rng.gen_range(0..nets.len())]);
    }
    n
}

#[test]
fn verilog_emit_matches_name_keyed_reference() {
    use lim_rtl::smartmem::{lower, MemLowering};
    use std::collections::BTreeMap;

    check("verilog_emit_matches_name_keyed_reference", |rng| {
        let netlist = match rng.gen_range(0usize..3) {
            0 => {
                let inputs = rng.gen_range(1usize..6);
                any_netlist(rng, inputs, 40)
            }
            1 => {
                let (src, words, ..) = any_mem_source(rng);
                let module = lim_rtl::parse(&src).expect("generated source is in the subset");
                let inference = lim_rtl::infer::infer(&module);
                let mem = &inference.memories[0];
                let brick_words = (words >> rng.gen_range(0usize..3)).max(2);
                let plan = MemLowering {
                    brick_words,
                    entry_names: mem
                        .lanes()
                        .iter()
                        .map(|l| {
                            format!(
                                "brick_8t_{brick_words}_{}_x{}",
                                l.width(),
                                words / brick_words
                            )
                        })
                        .collect(),
                };
                let plans: BTreeMap<String, MemLowering> =
                    [(mem.name.clone(), plan)].into_iter().collect();
                lower(&module, &inference, &plans).expect("lowering succeeds")
            }
            _ => collision_netlist(rng),
        };
        assert!(names_are_distinct(&netlist), "generator repeated a name");
        assert_eq!(
            lim_rtl::verilog::emit(&netlist),
            reference_emit::emit(&netlist)
        );
    });
}

#[test]
fn verilog_emit_digest_is_pinned_on_the_example() {
    use lim_rtl::smartmem::{lower, MemLowering};
    use std::collections::BTreeMap;

    // The `rtl_infer/frontend_1024x16` plan on `examples/smart_mem.v`;
    // digest and length recorded from the name-keyed emitter.
    let src = include_str!("../examples/smart_mem.v");
    let plans: BTreeMap<String, MemLowering> = [(
        "mem".to_owned(),
        MemLowering {
            brick_words: 64,
            entry_names: vec!["brick_8t_64_16_x16".to_owned()],
        },
    )]
    .into_iter()
    .collect();
    let module = lim_rtl::parse(src).unwrap();
    let netlist = lower(&module, &lim_rtl::infer::infer(&module), &plans).unwrap();
    let text = lim_rtl::verilog::emit(&netlist);
    assert_eq!(text.len(), 1_051_749);
    assert_eq!(
        lim_serve::protocol::fnv1a(text.as_bytes()),
        0xd9ee_23b4_5b99_6c14
    );
}

/// Char-by-char JSON string escaping: the specification
/// `lim_obs::json::escape` must match.
fn reference_escape(s: &str) -> String {
    let mut out = String::new();
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[test]
fn json_escape_matches_char_by_char_reference() {
    use lim_obs::json::{self, Value};

    check("json_escape_matches_char_by_char_reference", |rng| {
        // Every control byte, the two JSON metacharacters, plain ASCII
        // runs and multibyte characters of every UTF-8 length.
        let mut palette: Vec<char> = (0u8..0x20).map(char::from).collect();
        palette.extend(['"', '\\', '/', 'a', 'Z', '0', ' ', '\u{7f}', 'é', '汉', '𝄞']);
        let s: String = (0..rng.gen_range(0usize..64))
            .map(|_| {
                if rng.gen_bool(0.3) {
                    "plain text run ".to_owned()
                } else {
                    palette[rng.gen_range(0..palette.len())].to_string()
                }
            })
            .collect();
        let want = reference_escape(&s);
        assert_eq!(json::escape(&s), want);
        assert_eq!(json::string(&s), format!("\"{want}\""));
        let value = Value::Object(vec![(s.clone(), Value::String(s.clone()))]);
        assert_eq!(json::render(&value), format!("{{\"{want}\":\"{want}\"}}"));
        let rendered = json::render(&Value::String(s.clone()));
        assert_eq!(Value::parse(&rendered), Ok(Value::String(s)));
    });
}

/// The structural check and topological sort as they stood before the
/// flat connectivity pass: a driver map and one load `Vec` per net, and
/// an O(cells) scan for each undriven net. Orders are cell indices.
mod reference_connectivity {
    use lim_rtl::{CellKind, NetId, Netlist, RtlError};

    fn driver_map(n: &Netlist) -> Vec<Option<usize>> {
        let mut map = vec![None; n.net_count()];
        for (i, cell) in n.cells().iter().enumerate() {
            for &o in &cell.outputs {
                map[o.index()] = Some(i);
            }
        }
        map
    }

    fn fanout_map(n: &Netlist) -> Vec<Vec<(usize, usize)>> {
        let mut map = vec![Vec::new(); n.net_count()];
        for (i, cell) in n.cells().iter().enumerate() {
            for (pin, &net) in cell.inputs.iter().enumerate() {
                map[net.index()].push((i, pin));
            }
        }
        map
    }

    pub fn validate(n: &Netlist) -> Result<Vec<usize>, RtlError> {
        let mut drivers = vec![0usize; n.net_count()];
        for &pi in n.primary_inputs() {
            drivers[pi.index()] += 1;
        }
        for cell in n.cells() {
            if let CellKind::Gate { kind, .. } = &cell.kind {
                let expected = kind.input_count();
                if cell.inputs.len() != expected {
                    return Err(RtlError::WrongPinCount {
                        cell: kind.name(),
                        expected,
                        got: cell.inputs.len(),
                    });
                }
            }
            for &o in &cell.outputs {
                if o.index() >= n.net_count() {
                    return Err(RtlError::UnknownNet(o.index()));
                }
                drivers[o.index()] += 1;
            }
            for &i in &cell.inputs {
                if i.index() >= n.net_count() {
                    return Err(RtlError::UnknownNet(i.index()));
                }
            }
        }
        for (i, &d) in drivers.iter().enumerate() {
            let net = NetId::from_index(i);
            if d > 1 {
                return Err(RtlError::MultipleDrivers {
                    net: n.net_name(net).to_owned(),
                });
            }
            let used = n.primary_outputs().contains(&net)
                || n.cells().iter().any(|c| c.inputs.contains(&net));
            if d == 0 && used {
                return Err(RtlError::Undriven {
                    net: n.net_name(net).to_owned(),
                });
            }
        }
        topo_order(n)
    }

    pub fn topo_order(n: &Netlist) -> Result<Vec<usize>, RtlError> {
        let cells = n.cells();
        let driver = driver_map(n);
        let is_comb = |i: usize| !cells[i].kind.is_sequential();
        let mut indeg = vec![0usize; cells.len()];
        for (i, cell) in cells.iter().enumerate() {
            if !is_comb(i) {
                continue;
            }
            for &input in &cell.inputs {
                if let Some(d) = driver[input.index()] {
                    if is_comb(d) {
                        indeg[i] += 1;
                    }
                }
            }
        }
        let fanout = fanout_map(n);
        let mut stack: Vec<usize> = (0..cells.len())
            .filter(|&i| is_comb(i) && indeg[i] == 0)
            .collect();
        let mut order = Vec::new();
        while let Some(i) = stack.pop() {
            order.push(i);
            for &out in &cells[i].outputs {
                for &(load, _) in &fanout[out.index()] {
                    if is_comb(load) {
                        indeg[load] -= 1;
                        if indeg[load] == 0 {
                            stack.push(load);
                        }
                    }
                }
            }
        }
        let comb_total = (0..cells.len()).filter(|&i| is_comb(i)).count();
        if order.len() != comb_total {
            let stuck = (0..cells.len())
                .find(|&i| is_comb(i) && indeg[i] > 0)
                .expect("some cell is on the loop");
            return Err(RtlError::CombinationalLoop {
                cell: cells[stuck].name.clone(),
            });
        }
        Ok(order)
    }
}

/// Faults [`any_connectivity_netlist`] can inject.
#[derive(Debug, Clone, Copy, Default)]
struct Faults {
    comb_loop: bool,
    double_driver: bool,
    undriven_used: bool,
    unknown_net: bool,
    wrong_arity: bool,
}

/// A random netlist mixing gates, DFFs (some closing sequential
/// feedback), ties, macros and dangling nets, optionally with injected
/// faults. Feedback drivers and faulty cells are spliced in after the
/// cells that read their nets, and several faults can coexist, so both
/// the LIFO order and the first-error contract are exercised.
fn any_connectivity_netlist(rng: &mut TestRng) -> (Netlist, Faults) {
    use lim_rtl::ir::Cell;
    use lim_rtl::{CellKind, NetId};
    let gate = |kind: StdCellKind, inputs: Vec<NetId>, outputs: Vec<NetId>, name: String| Cell {
        name,
        kind: CellKind::Gate { kind, drive: 1.0 },
        inputs,
        outputs,
    };
    let kinds = [
        StdCellKind::Inv,
        StdCellKind::Buf,
        StdCellKind::Nand2,
        StdCellKind::Nor2,
        StdCellKind::Xor2,
        StdCellKind::Aoi21,
        StdCellKind::Mux2,
    ];
    let mut n = Netlist::new("conn");
    n.add_clock("clk");
    let mut nets: Vec<NetId> = (0..rng.gen_range(1usize..5))
        .map(|i| n.add_input(format!("in{i}")))
        .collect();
    // Nets created before their driver: sequential feedback targets
    // and, under a loop fault, combinational ones.
    let feedback: Vec<NetId> = (0..rng.gen_range(0usize..3))
        .map(|i| n.add_net(format!("fb{i}")))
        .collect();
    nets.extend(&feedback);
    for i in 0..rng.gen_range(0usize..3) {
        n.add_net(format!("dangling{i}"));
    }
    let mut faults = Faults::default();
    let pick = |rng: &mut TestRng, nets: &[NetId]| nets[rng.gen_range(0..nets.len())];
    for g in 0..rng.gen_range(1usize..40) {
        let out = match rng.gen_range(0usize..10) {
            0 => n.add_tie(rng.gen_bool(0.5), format!("t{g}")),
            1 => {
                let d = pick(rng, &nets);
                n.add_dff(d, 1.0, format!("q{g}"))
            }
            2 => {
                let (d, en) = (pick(rng, &nets), pick(rng, &nets));
                n.add_dff_en(d, en, 1.0, format!("qe{g}"))
            }
            3 => {
                let pins: Vec<NetId> = (0..rng.gen_range(1usize..4))
                    .map(|_| pick(rng, &nets))
                    .collect();
                let outs = n.add_macro(format!("u_m{g}"), "brick", &pins, 2, &format!("m{g}"));
                nets.push(outs[1]);
                outs[0]
            }
            _ => {
                let kind = kinds[rng.gen_range(0..kinds.len())];
                let ins: Vec<NetId> = (0..kind.input_count()).map(|_| pick(rng, &nets)).collect();
                n.add_gate(kind, 1.0, &ins, format!("g{g}"))
                    .expect("arity matches")
            }
        };
        nets.push(out);
    }
    for (i, &fb) in feedback.iter().enumerate() {
        let src = pick(rng, &nets);
        if rng.gen_bool(0.3) {
            // Combinational feedback: a loop whenever `src` reads `fb`.
            faults.comb_loop = true;
            n.splice_cell(gate(
                StdCellKind::Inv,
                vec![src],
                vec![fb],
                format!("u_fb{i}"),
            ));
        } else {
            n.splice_cell(gate(
                StdCellKind::Dff,
                vec![src],
                vec![fb],
                format!("u_fb{i}"),
            ));
        }
    }
    if rng.gen_bool(0.2) {
        faults.double_driver = true;
        let victim = pick(rng, &nets);
        n.splice_cell(Cell {
            name: "u_second_driver".into(),
            kind: CellKind::Tie { value: true },
            inputs: Vec::new(),
            outputs: vec![victim],
        });
    }
    if rng.gen_bool(0.2) {
        faults.undriven_used = true;
        let floating = n.add_net("floating");
        if rng.gen_bool(0.5) {
            n.mark_output(floating);
        } else {
            let other = pick(rng, &nets);
            let out = n.add_net("reads_floating");
            n.splice_cell(gate(
                StdCellKind::Nand2,
                vec![other, floating],
                vec![out],
                "u_reads_floating".into(),
            ));
        }
    }
    if rng.gen_bool(0.2) {
        faults.unknown_net = true;
        let ghost = NetId::from_index(n.net_count() + rng.gen_range(0usize..3));
        match rng.gen_range(0usize..4) {
            0 => n.mark_output(ghost),
            1 => {
                // Both pins unknown: the output is reported first.
                let other = NetId::from_index(ghost.index() + 1);
                n.splice_cell(gate(
                    StdCellKind::Inv,
                    vec![other],
                    vec![ghost],
                    "u_ghosts".into(),
                ));
            }
            2 => {
                let out = n.add_net("ghost_in");
                n.splice_cell(gate(
                    StdCellKind::Inv,
                    vec![ghost],
                    vec![out],
                    "u_ghost_in".into(),
                ));
            }
            _ => {
                let src = pick(rng, &nets);
                n.splice_cell(gate(
                    StdCellKind::Inv,
                    vec![src],
                    vec![ghost],
                    "u_ghost_out".into(),
                ));
            }
        }
    }
    if rng.gen_bool(0.2) {
        faults.wrong_arity = true;
        let ins: Vec<NetId> = (0..[1usize, 3][rng.gen_range(0usize..2)])
            .map(|_| pick(rng, &nets))
            .collect();
        let out = n.add_net("bad_arity");
        n.splice_cell(gate(
            StdCellKind::Nand2,
            ins,
            vec![out],
            "u_bad_arity".into(),
        ));
    }
    for _ in 0..rng.gen_range(1usize..4) {
        let o = pick(rng, &nets);
        n.mark_output(o);
    }
    (n, faults)
}

#[test]
fn netlist_connectivity_matches_per_net_reference() {
    use lim_rtl::smartmem::{lower, MemLowering};
    use std::collections::BTreeMap;

    let indices = |r: Result<Vec<lim_rtl::CellId>, lim_rtl::RtlError>| {
        r.map(|order| order.iter().map(|c| c.index()).collect::<Vec<_>>())
    };
    // Cheap cases, rare fault combinations: run many.
    let config = lim_testkit::prop::PropConfig::with_cases(512);
    check_with(
        config,
        "netlist_connectivity_matches_per_net_reference",
        |rng| {
            let (netlist, faults) = if rng.gen_bool(0.2) {
                let (src, words, ..) = any_mem_source(rng);
                let module = lim_rtl::parse(&src).expect("generated source is in the subset");
                let inference = lim_rtl::infer::infer(&module);
                let mem = &inference.memories[0];
                let brick_words = (words >> rng.gen_range(0usize..3)).max(2);
                let plan = MemLowering {
                    brick_words,
                    entry_names: mem
                        .lanes()
                        .iter()
                        .map(|l| {
                            format!(
                                "brick_8t_{brick_words}_{}_x{}",
                                l.width(),
                                words / brick_words
                            )
                        })
                        .collect(),
                };
                let plans: BTreeMap<String, MemLowering> =
                    [(mem.name.clone(), plan)].into_iter().collect();
                let lowered = lower(&module, &inference, &plans).expect("lowering succeeds");
                let netlist = if rng.gen_bool(0.5) {
                    lim_rtl::mapping::optimize(&lowered)
                        .expect("lowered netlist maps")
                        .0
                } else {
                    lowered
                };
                (netlist, Faults::default())
            } else {
                any_connectivity_netlist(rng)
            };
            let want = reference_connectivity::validate(&netlist);
            assert_eq!(indices(netlist.validate()), want, "{faults:?}");
            // The reference sort assumes one driver per net and in-range
            // ids (it panics otherwise); within that domain both sorts must
            // agree whatever else is wrong.
            if !faults.double_driver && !faults.unknown_net {
                assert_eq!(
                    indices(netlist.topo_order()),
                    reference_connectivity::topo_order(&netlist),
                    "{faults:?}"
                );
            }
            if !(faults.comb_loop
                || faults.double_driver
                || faults.undriven_used
                || faults.unknown_net
                || faults.wrong_arity)
            {
                assert!(want.is_ok(), "clean netlist rejected: {want:?}");
            }
        },
    );
}

#[test]
fn rtl_infer_reply_digest_is_pinned_on_the_example() {
    use lim_obs::json::Value;
    use lim_serve::protocol::fnv1a;
    use lim_serve::{ServeConfig, Service};

    // Length and FNV-1a of the rendered `rtl.infer` reply (DSE choice,
    // lowering, mapping, emitted Verilog and every physical figure),
    // recorded before the flat connectivity pass replaced the per-net
    // fanout lists.
    let src = include_str!("../examples/smart_mem.v");
    for (brick_words, len, digest) in [
        ("[16,32,64]", 1_067_181, 0x921f_22f0_9c2d_8854u64),
        ("[8,16]", 1_067_182, 0x8ff0_d7db_69be_414f),
    ] {
        let params = Value::Object(vec![
            ("source".to_owned(), Value::String(src.to_owned())),
            ("brick_words".to_owned(), Value::parse(brick_words).unwrap()),
        ]);
        let reply = Service::new(&ServeConfig::default())
            .call("rtl.infer", &params)
            .result
            .expect("the example infers");
        assert_eq!(
            (reply.len(), fnv1a(reply.as_bytes())),
            (len, digest),
            "brick_words {brick_words}"
        );
    }

    // The SRAM generator's side: Fig. 4b A–E through `flow.run`, and
    // the structural Verilog of each generated netlist, recorded before
    // the generator and the lowering shared their decoder helpers.
    let tech = Technology::cmos65();
    for (config, words, partitions, flow_run, verilog) in [
        ("A", 16, 1, (461, 0xa05d_f71a_fbe8_52deu64), (11_490, 0xedeb_9ef7_9eb9_a4bdu64)),
        ("B", 32, 1, (458, 0xea00_b53e_8716_2d09), (18_604, 0x7a66_f42c_d12b_a091)),
        ("C", 64, 1, (456, 0x073b_d095_0975_0620), (33_062, 0x8822_68d2_b601_3cc6)),
        ("D", 128, 1, (461, 0x10b8_d87d_48a0_c2bc), (84_666, 0x77b3_395f_9cab_68fb)),
        ("E", 128, 4, (462, 0x2649_6da1_32aa_81fc), (77_856, 0x7490_7dfe_4e65_2306)),
    ] {
        let params = Value::parse(&format!(
            "{{\"words\":{words},\"bits\":10,\"partitions\":{partitions},\"brick_words\":16}}"
        ))
        .unwrap();
        let reply = Service::new(&ServeConfig::default())
            .call("flow.run", &params)
            .result
            .expect("Fig. 4b configurations synthesize");
        assert_eq!((reply.len(), fnv1a(reply.as_bytes())), flow_run, "flow.run {config}");
        let sram = lim::SramConfig::new(words, 10, partitions, 16).unwrap();
        let netlist = lim::sram::generate(&tech, &sram, &mut BrickLibrary::new()).unwrap();
        let text = lim_rtl::verilog::emit(&netlist);
        assert_eq!((text.len(), fnv1a(text.as_bytes())), verilog, "Verilog {config}");
    }
}
