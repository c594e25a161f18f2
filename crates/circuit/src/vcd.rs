//! VCD (Value Change Dump) emission for transient results.
//!
//! The golden solver's waveforms become inspectable in any standard
//! waveform viewer: node voltages are dumped as VCD `real` variables.
//! Useful when debugging why a brick's golden measurement disagrees with
//! the estimator. Times are whole femtoseconds, so a dump sampled finer
//! than a picosecond keeps one distinct timestamp per emitted sample.

use crate::netlist::{Circuit, NodeId};
use crate::transient::TransientResult;
use lim_tech::units::Picoseconds;
use std::fmt::Write as _;

/// Identifier characters available for VCD shortcodes.
const ID_CHARS: &[u8] = b"!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~";

fn shortcode(mut index: usize) -> String {
    let mut code = String::new();
    loop {
        code.push(ID_CHARS[index % ID_CHARS.len()] as char);
        index /= ID_CHARS.len();
        if index == 0 {
            break;
        }
    }
    code
}

/// Dumps the waveforms of `nodes` as VCD text, emitting every `stride`-th
/// sample.
///
/// # Panics
///
/// Panics if `stride == 0` or `nodes` is empty.
pub fn dump_vcd(
    circuit: &Circuit,
    result: &TransientResult,
    nodes: &[NodeId],
    dt: Picoseconds,
    stride: usize,
) -> String {
    dump_vcd_with_tolerance(circuit, result, nodes, dt, stride, 1e-4)
}

/// Like [`dump_vcd`] with an explicit re-emission tolerance in volts.
///
/// # Panics
///
/// Panics if `stride == 0` or `nodes` is empty.
pub fn dump_vcd_with_tolerance(
    circuit: &Circuit,
    result: &TransientResult,
    nodes: &[NodeId],
    dt: Picoseconds,
    stride: usize,
    tolerance: f64,
) -> String {
    assert!(stride > 0, "stride must be positive");
    assert!(!nodes.is_empty(), "need at least one node to dump");

    let mut s = String::new();
    let _ = writeln!(s, "$comment lim-circuit transient dump $end");
    let _ = writeln!(s, "$timescale 1fs $end");
    let _ = writeln!(s, "$scope module lim $end");
    let codes: Vec<String> = nodes.iter().enumerate().map(|(i, _)| shortcode(i)).collect();
    for (node, code) in nodes.iter().zip(&codes) {
        let name: String = circuit
            .node_name(*node)
            .chars()
            .map(|c| if c.is_whitespace() { '_' } else { c })
            .collect();
        let _ = writeln!(s, "$var real 64 {code} {name} $end");
    }
    let _ = writeln!(s, "$upscope $end");
    let _ = writeln!(s, "$enddefinitions $end");

    let samples = result.waveform(nodes[0]).len();
    let mut last: Vec<Option<f64>> = vec![None; nodes.len()];
    for i in (0..samples).step_by(stride) {
        let mut changes = String::new();
        for ((node, code), prev) in nodes.iter().zip(&codes).zip(last.iter_mut()) {
            let v = result.waveform(*node).at(i).value();
            if prev.is_none_or(|p| (p - v).abs() > tolerance) {
                let _ = writeln!(changes, "r{v} {code}");
                *prev = Some(v);
            }
        }
        if !changes.is_empty() {
            let t = (i as f64 * dt.value() * 1e3).round() as u64; // fs
            let _ = writeln!(s, "#{t}");
            s.push_str(&changes);
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transient::TransientSim;
    use lim_tech::units::{Femtofarads, KiloOhms, Volts};

    fn charged() -> (Circuit, NodeId, TransientResult, Picoseconds) {
        let mut ckt = Circuit::new();
        let n = ckt.add_node("out node");
        ckt.add_cap(n, Femtofarads::new(10.0));
        let s = ckt.add_source(n, KiloOhms::new(1.0), Volts::ZERO);
        ckt.schedule(s, Picoseconds::ZERO, Volts::new(1.2));
        let dt = Picoseconds::new(0.5);
        let res = TransientSim::new(&ckt).run(Picoseconds::new(150.0), dt).unwrap();
        (ckt, n, res, dt)
    }

    #[test]
    fn vcd_structure_is_well_formed() {
        let (ckt, n, res, dt) = charged();
        let vcd = dump_vcd(&ckt, &res, &[n], dt, 10);
        assert!(vcd.contains("$timescale 1fs $end"));
        assert!(vcd.contains("$var real 64 ! out_node $end"));
        assert!(vcd.contains("$enddefinitions $end"));
        // Timestamps strictly increase.
        let times: Vec<u64> = vcd
            .lines()
            .filter(|l| l.starts_with('#'))
            .map(|l| l[1..].parse().unwrap())
            .collect();
        assert!(times.windows(2).all(|w| w[1] > w[0]));
        assert!(times.len() > 3, "expected several sample points");
    }

    #[test]
    fn unchanged_values_are_not_re_emitted() {
        let (ckt, n, res, dt) = charged();
        // After a few RC the node sits within tolerance of Vdd: the tail
        // emits nothing at a 1 mV tolerance.
        let vcd = dump_vcd_with_tolerance(&ckt, &res, &[n], dt, 2, 1e-3);
        let last_time: u64 = vcd
            .lines()
            .rfind(|l| l.starts_with('#'))
            .unwrap()[1..]
            .parse()
            .unwrap();
        // 1 mV of headroom remains after ~71 ps (10 ps RC, 1.2 V swing).
        assert!(last_time < 120_000, "tail should be quiescent, last #{last_time}");
    }

    #[test]
    fn sub_picosecond_samples_keep_distinct_timestamps() {
        // The `export_artifacts` dump: 0.1 ps steps, every fifth sample.
        // Whole-picosecond stamps would read #0, #1, #1, #2, #2, …
        let mut ckt = Circuit::new();
        let n = ckt.add_node("out");
        ckt.add_cap(n, Femtofarads::new(10.0));
        let s = ckt.add_source(n, KiloOhms::new(1.0), Volts::ZERO);
        ckt.schedule(s, Picoseconds::ZERO, Volts::new(1.2));
        let dt = Picoseconds::new(0.1);
        let res = TransientSim::new(&ckt).run(Picoseconds::new(20.0), dt).unwrap();
        let vcd = dump_vcd_with_tolerance(&ckt, &res, &[n], dt, 5, 0.0);
        let times: Vec<u64> = vcd
            .lines()
            .filter(|l| l.starts_with('#'))
            .map(|l| l[1..].parse().unwrap())
            .collect();
        assert_eq!(times.len(), 41, "every fifth of 201 samples changes");
        assert!(times.windows(2).all(|w| w[1] > w[0]), "{times:?}");
        assert_eq!(times[..4], [0, 500, 1000, 1500]);
    }

    #[test]
    fn shortcodes_are_unique_across_many_nodes() {
        let mut set = std::collections::HashSet::new();
        for i in 0..500 {
            assert!(set.insert(shortcode(i)), "collision at {i}");
        }
    }
}
