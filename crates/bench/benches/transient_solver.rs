//! Bench: transient solver scaling with ladder size.
//!
//! The golden reference's cost grows with node count (a tridiagonal LU
//! per topology change, an O(n) serial substitution per step); this
//! bench pins the scaling so regressions in the solver show up.

use lim_circuit::{Circuit, TransientSim};
use lim_tech::units::{Femtofarads, KiloOhms, Picoseconds, Volts};
use lim_testkit::bench::{black_box, Bench};

fn ladder(n: usize) -> Circuit {
    let mut ckt = Circuit::new();
    let mut prev = ckt.add_node("n0");
    ckt.add_cap(prev, Femtofarads::new(1.0));
    let src = ckt.add_source(prev, KiloOhms::new(0.5), Volts::ZERO);
    ckt.schedule(src, Picoseconds::ZERO, Volts::new(1.2));
    for i in 1..n {
        let node = ckt.add_node(format!("n{i}"));
        ckt.add_resistor(prev, node, KiloOhms::new(0.05));
        ckt.add_cap(node, Femtofarads::new(1.0));
        prev = node;
    }
    ckt
}

fn bench_ladders(c: &mut Bench) {
    let mut group = c.benchmark_group("transient_ladder");
    group.sample_size(10);
    for n in [16usize, 64, 160] {
        let ckt = ladder(n);
        group.bench_with_input(&n.to_string(), &ckt, |b, ckt| {
            b.iter(|| {
                let res = TransientSim::new(ckt)
                    .run(Picoseconds::new(200.0), Picoseconds::new(0.1))
                    .unwrap();
                black_box(res.supply_energy().value())
            })
        });
    }
    group.finish();
}

fn main() {
    let mut c = Bench::from_args("transient_solver");
    bench_ladders(&mut c);
    c.finish();
}
