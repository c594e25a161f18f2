//! Parameterized netlist generators.
//!
//! These are the "different RTLs … generated by scripts to explore
//! different corners of the algorithm" (§3): decoders with enable, mux
//! trees, equality comparators, priority encoders, ripple adders, array
//! multipliers, one-hot sequencers and register banks — every block the
//! smart-memory generators in `lim` compose around bricks. The address
//! decoder pieces ([`complement_rails`], [`minterm`], [`predecode`],
//! [`word_line`]) are shared by both memory builders, `lim::sram` and
//! [`crate::smartmem`].
//!
//! All generators produce validated gate-level [`Netlist`]s with inputs in
//! a documented order (always LSB first for buses).

use crate::error::RtlError;
use crate::ir::{NetId, Netlist};
use crate::stdcell::StdCellKind;

/// Builds a balanced AND tree over `nets`, returning the root net.
///
/// # Panics
///
/// Panics if `nets` is empty.
pub fn and_tree(n: &mut Netlist, nets: &[NetId], label: &str) -> Result<NetId, RtlError> {
    assert!(!nets.is_empty(), "and_tree needs at least one input");
    let mut layer: Vec<NetId> = nets.to_vec();
    let mut level = 0usize;
    while layer.len() > 1 {
        let mut next = Vec::with_capacity(layer.len().div_ceil(2));
        for (i, pair) in layer.chunks(2).enumerate() {
            if pair.len() == 2 {
                next.push(n.add_gate(
                    StdCellKind::And2,
                    1.0,
                    pair,
                    format!("{label}_and_l{level}_{i}"),
                )?);
            } else {
                next.push(pair[0]);
            }
        }
        layer = next;
        level += 1;
    }
    Ok(layer[0])
}

/// Builds a balanced OR tree over `nets`, returning the root net.
///
/// # Panics
///
/// Panics if `nets` is empty.
pub fn or_tree(n: &mut Netlist, nets: &[NetId], label: &str) -> Result<NetId, RtlError> {
    assert!(!nets.is_empty(), "or_tree needs at least one input");
    let mut layer: Vec<NetId> = nets.to_vec();
    let mut level = 0usize;
    while layer.len() > 1 {
        let mut next = Vec::with_capacity(layer.len().div_ceil(2));
        for (i, pair) in layer.chunks(2).enumerate() {
            if pair.len() == 2 {
                next.push(n.add_gate(
                    StdCellKind::Or2,
                    1.0,
                    pair,
                    format!("{label}_or_l{level}_{i}"),
                )?);
            } else {
                next.push(pair[0]);
            }
        }
        layer = next;
        level += 1;
    }
    Ok(layer[0])
}

/// Complement rails of an address bus: one inverter per bit, named
/// `{prefix}_n[i]`.
pub fn complement_rails(
    n: &mut Netlist,
    addr: &[NetId],
    prefix: &str,
) -> Result<Vec<NetId>, RtlError> {
    addr.iter()
        .enumerate()
        .map(|(i, &a)| n.add_gate(StdCellKind::Inv, 2.0, &[a], format!("{prefix}_n[{i}]")))
        .collect()
}

/// The AND tree (named `label`) that is high when `addr` holds `value`:
/// the true rail of every set bit, the complement rail of every clear
/// one, LSB first.
pub fn minterm(
    n: &mut Netlist,
    addr: &[NetId],
    addr_n: &[NetId],
    value: usize,
    label: &str,
) -> Result<NetId, RtlError> {
    let literals: Vec<NetId> = (0..addr.len())
        .map(|b| if (value >> b) & 1 == 1 { addr[b] } else { addr_n[b] })
        .collect();
    and_tree(n, &literals, label)
}

/// Predecodes `addr` in groups of up to three bits, LSB group first:
/// the group starting at bit `base` holds one minterm per value `v`,
/// named `{label}_g{base}_{v}`.
pub fn predecode(
    n: &mut Netlist,
    addr: &[NetId],
    addr_n: &[NetId],
    label: &str,
) -> Result<Vec<Vec<NetId>>, RtlError> {
    let mut groups = Vec::new();
    let mut base = 0usize;
    while base < addr.len() {
        let bits = base..(base + 3).min(addr.len());
        let lines = (0..1usize << bits.len())
            .map(|v| {
                let name = format!("{label}_g{base}_{v}");
                minterm(n, &addr[bits.clone()], &addr_n[bits.clone()], v, &name)
            })
            .collect::<Result<_, _>>()?;
        groups.push(lines);
        base = bits.end;
    }
    Ok(groups)
}

/// Word line `word` behind [`predecode`]d `groups`: the AND tree (named
/// `label`) of the word's line from every group, then of `enables`.
pub fn word_line(
    n: &mut Netlist,
    groups: &[Vec<NetId>],
    word: usize,
    enables: &[NetId],
    label: &str,
) -> Result<NetId, RtlError> {
    let mut ins = Vec::with_capacity(groups.len() + enables.len());
    let mut base = 0usize;
    for g in groups {
        ins.push(g[(word >> base) & (g.len() - 1)]);
        base += g.len().trailing_zeros() as usize;
    }
    ins.extend_from_slice(enables);
    and_tree(n, &ins, label)
}

/// Generates an `addr_bits`-to-`words` one-hot decoder.
///
/// Inputs: `addr[0..addr_bits]` (LSB first), then `en` when
/// `with_enable`. Outputs: `out[0..words]`, one-hot (or all-zero when
/// disabled). `words` may be any value up to `2^addr_bits` — the paper's
/// flow explicitly supports non-power-of-two memories.
///
/// # Errors
///
/// Returns [`RtlError::BadGeneratorParams`] when `words` is zero or does
/// not fit in `addr_bits`, or `addr_bits == 0`.
pub fn decoder(
    name: &str,
    addr_bits: usize,
    words: usize,
    with_enable: bool,
) -> Result<Netlist, RtlError> {
    if addr_bits == 0 || addr_bits > 20 {
        return Err(RtlError::BadGeneratorParams {
            generator: "decoder",
            reason: format!("addr_bits {addr_bits} outside 1..=20"),
        });
    }
    if words == 0 || words > (1usize << addr_bits) {
        return Err(RtlError::BadGeneratorParams {
            generator: "decoder",
            reason: format!("words {words} does not fit in {addr_bits} address bits"),
        });
    }
    let mut n = Netlist::new(name);
    let addr: Vec<NetId> = (0..addr_bits).map(|i| n.add_input(format!("addr[{i}]"))).collect();
    let en = with_enable.then(|| n.add_input("en"));

    let addr_n = complement_rails(&mut n, &addr, "addr")?;
    for w in 0..words {
        let mut hot = minterm(&mut n, &addr, &addr_n, w, &format!("w{w}"))?;
        if let Some(en) = en {
            hot = n.add_gate(StdCellKind::And2, 1.0, &[hot, en], format!("out[{w}]"))?;
        } else {
            hot = n.add_gate(StdCellKind::Buf, 1.0, &[hot], format!("out[{w}]"))?;
        }
        n.mark_output(hot);
    }
    n.validate()?;
    Ok(n)
}

/// Generates an `n_inputs`-to-1 single-bit mux tree.
///
/// Inputs: `in[0..n_inputs]`, then `sel[0..ceil(log2 n)]` (LSB first).
/// Output: `out`.
///
/// # Errors
///
/// Returns [`RtlError::BadGeneratorParams`] when `n_inputs < 2`.
pub fn mux_tree(name: &str, n_inputs: usize) -> Result<Netlist, RtlError> {
    if n_inputs < 2 {
        return Err(RtlError::BadGeneratorParams {
            generator: "mux_tree",
            reason: format!("need ≥ 2 inputs, got {n_inputs}"),
        });
    }
    let sel_bits = usize::BITS as usize - (n_inputs - 1).leading_zeros() as usize;
    let mut n = Netlist::new(name);
    let ins: Vec<NetId> = (0..n_inputs).map(|i| n.add_input(format!("in[{i}]"))).collect();
    let sels: Vec<NetId> = (0..sel_bits).map(|i| n.add_input(format!("sel[{i}]"))).collect();

    let mut layer = ins;
    for (level, &sel) in sels.iter().enumerate() {
        let mut next = Vec::with_capacity(layer.len().div_ceil(2));
        for (i, pair) in layer.chunks(2).enumerate() {
            if pair.len() == 2 {
                next.push(n.add_gate(
                    StdCellKind::Mux2,
                    1.0,
                    &[pair[0], pair[1], sel],
                    format!("mux_l{level}_{i}"),
                )?);
            } else {
                next.push(pair[0]);
            }
        }
        layer = next;
    }
    n.mark_output(layer[0]);
    n.validate()?;
    Ok(n)
}

/// Generates a `bits`-wide equality comparator.
///
/// Inputs: `a[0..bits]`, `b[0..bits]` (LSB first). Output: `eq`.
///
/// # Errors
///
/// Returns [`RtlError::BadGeneratorParams`] when `bits == 0`.
pub fn comparator(name: &str, bits: usize) -> Result<Netlist, RtlError> {
    if bits == 0 {
        return Err(RtlError::BadGeneratorParams {
            generator: "comparator",
            reason: "bits must be ≥ 1".into(),
        });
    }
    let mut n = Netlist::new(name);
    let a: Vec<NetId> = (0..bits).map(|i| n.add_input(format!("a[{i}]"))).collect();
    let b: Vec<NetId> = (0..bits).map(|i| n.add_input(format!("b[{i}]"))).collect();
    let eq_bits: Vec<NetId> = (0..bits)
        .map(|i| n.add_gate(StdCellKind::Xnor2, 1.0, &[a[i], b[i]], format!("eq[{i}]")))
        .collect::<Result<_, _>>()?;
    let eq = and_tree(&mut n, &eq_bits, "cmp")?;
    let out = n.add_gate(StdCellKind::Buf, 2.0, &[eq], "eq")?;
    n.mark_output(out);
    n.validate()?;
    Ok(n)
}

/// Generates an `n`-input priority encoder producing one-hot grants
/// (lowest index wins).
///
/// Inputs: `req[0..n]`. Outputs: `grant[0..n]`.
///
/// # Errors
///
/// Returns [`RtlError::BadGeneratorParams`] when `n == 0`.
pub fn priority_encoder(name: &str, n_inputs: usize) -> Result<Netlist, RtlError> {
    if n_inputs == 0 {
        return Err(RtlError::BadGeneratorParams {
            generator: "priority_encoder",
            reason: "need ≥ 1 input".into(),
        });
    }
    let mut n = Netlist::new(name);
    let reqs: Vec<NetId> = (0..n_inputs).map(|i| n.add_input(format!("req[{i}]"))).collect();

    // grant[0] = req[0]; grant[i] = req[i] & !any(req[0..i]).
    let g0 = n.add_gate(StdCellKind::Buf, 1.0, &[reqs[0]], "grant[0]")?;
    n.mark_output(g0);
    let mut any_so_far = reqs[0];
    for (i, &req) in reqs.iter().enumerate().skip(1) {
        let blocked = n.add_gate(StdCellKind::Inv, 1.0, &[any_so_far], format!("nblk{i}"))?;
        let g = n.add_gate(
            StdCellKind::And2,
            1.0,
            &[req, blocked],
            format!("grant[{i}]"),
        )?;
        n.mark_output(g);
        if i + 1 < n_inputs {
            any_so_far = n.add_gate(
                StdCellKind::Or2,
                1.0,
                &[any_so_far, req],
                format!("any{i}"),
            )?;
        }
    }
    n.validate()?;
    Ok(n)
}

/// Generates a `bits`-wide ripple-carry adder.
///
/// Inputs: `a[0..bits]`, `b[0..bits]`, `cin`. Outputs: `sum[0..bits]`,
/// `cout`.
///
/// # Errors
///
/// Returns [`RtlError::BadGeneratorParams`] when `bits == 0`.
pub fn ripple_adder(name: &str, bits: usize) -> Result<Netlist, RtlError> {
    if bits == 0 {
        return Err(RtlError::BadGeneratorParams {
            generator: "ripple_adder",
            reason: "bits must be ≥ 1".into(),
        });
    }
    let mut n = Netlist::new(name);
    let a: Vec<NetId> = (0..bits).map(|i| n.add_input(format!("a[{i}]"))).collect();
    let b: Vec<NetId> = (0..bits).map(|i| n.add_input(format!("b[{i}]"))).collect();
    let mut carry = n.add_input("cin");
    for i in 0..bits {
        let s = n.add_gate(
            StdCellKind::FaSum,
            1.0,
            &[a[i], b[i], carry],
            format!("sum[{i}]"),
        )?;
        n.mark_output(s);
        carry = n.add_gate(
            StdCellKind::FaCarry,
            1.0,
            &[a[i], b[i], carry],
            format!("c{}", i + 1),
        )?;
    }
    let cout = n.add_gate(StdCellKind::Buf, 1.0, &[carry], "cout")?;
    n.mark_output(cout);
    n.validate()?;
    Ok(n)
}

/// Generates a `bits`-wide Kogge–Stone (parallel-prefix) adder — the
/// fast-arithmetic alternative the paper's co-design loop can swap in
/// for the ripple adder ("varying … choice of the used arithmetic
/// blocks").
///
/// Inputs: `a[0..bits]`, `b[0..bits]`, `cin`. Outputs: `sum[0..bits]`,
/// `cout`. Logic depth is `O(log bits)` instead of `O(bits)`.
///
/// # Errors
///
/// Returns [`RtlError::BadGeneratorParams`] when `bits` is 0 or > 128.
pub fn kogge_stone_adder(name: &str, bits: usize) -> Result<Netlist, RtlError> {
    if bits == 0 || bits > 128 {
        return Err(RtlError::BadGeneratorParams {
            generator: "kogge_stone_adder",
            reason: format!("bits {bits} outside 1..=128"),
        });
    }
    let mut n = Netlist::new(name);
    let a: Vec<NetId> = (0..bits).map(|i| n.add_input(format!("a[{i}]"))).collect();
    let b: Vec<NetId> = (0..bits).map(|i| n.add_input(format!("b[{i}]"))).collect();
    let cin = n.add_input("cin");

    // Bit-level generate/propagate.
    let mut g: Vec<NetId> = (0..bits)
        .map(|i| n.add_gate(StdCellKind::And2, 1.0, &[a[i], b[i]], format!("g0_{i}")))
        .collect::<Result<_, _>>()?;
    let p_bits: Vec<NetId> = (0..bits)
        .map(|i| n.add_gate(StdCellKind::Xor2, 1.0, &[a[i], b[i]], format!("p_{i}")))
        .collect::<Result<_, _>>()?;
    let mut p = p_bits.clone();

    // Fold the carry-in as a generate at position -1 by augmenting g[0]:
    // g0' = g0 | (p0 & cin).
    let pc = n.add_gate(StdCellKind::And2, 1.0, &[p[0], cin], "p0cin")?;
    g[0] = n.add_gate(StdCellKind::Or2, 1.0, &[g[0], pc], "g0_cin")?;

    // Prefix levels: span doubles each level.
    let mut span = 1usize;
    let mut level = 1usize;
    while span < bits {
        let mut g_next = g.clone();
        let mut p_next = p.clone();
        for i in span..bits {
            let lo = i - span;
            let t = n.add_gate(
                StdCellKind::And2,
                1.0,
                &[p[i], g[lo]],
                format!("t{level}_{i}"),
            )?;
            g_next[i] = n.add_gate(
                StdCellKind::Or2,
                1.0,
                &[g[i], t],
                format!("g{level}_{i}"),
            )?;
            p_next[i] = n.add_gate(
                StdCellKind::And2,
                1.0,
                &[p[i], p[lo]],
                format!("pp{level}_{i}"),
            )?;
        }
        g = g_next;
        p = p_next;
        span *= 2;
        level += 1;
    }

    // Sums: s_i = p_i ^ carry_{i-1}, where carry_{i-1} = g[i-1] (prefix
    // generate including cin) and carry_{-1} = cin.
    for i in 0..bits {
        let carry_in = if i == 0 { cin } else { g[i - 1] };
        let s = n.add_gate(
            StdCellKind::Xor2,
            1.0,
            &[p_bits[i], carry_in],
            format!("sum[{i}]"),
        )?;
        n.mark_output(s);
    }
    let cout = n.add_gate(StdCellKind::Buf, 1.0, &[g[bits - 1]], "cout")?;
    n.mark_output(cout);
    n.validate()?;
    Ok(n)
}

/// Generates a `bits x bits` unsigned array multiplier.
///
/// Inputs: `a[0..bits]`, `b[0..bits]`. Outputs: `p[0..2·bits]`.
///
/// Classic carry-save array: AND partial products, rows of full adders,
/// final ripple for the top carries.
///
/// # Errors
///
/// Returns [`RtlError::BadGeneratorParams`] when `bits` is 0 or > 32.
pub fn array_multiplier(name: &str, bits: usize) -> Result<Netlist, RtlError> {
    if bits == 0 || bits > 32 {
        return Err(RtlError::BadGeneratorParams {
            generator: "array_multiplier",
            reason: format!("bits {bits} outside 1..=32"),
        });
    }
    let mut n = Netlist::new(name);
    let a: Vec<NetId> = (0..bits).map(|i| n.add_input(format!("a[{i}]"))).collect();
    let b: Vec<NetId> = (0..bits).map(|i| n.add_input(format!("b[{i}]"))).collect();
    let zero = n.add_tie(false, "tie0");

    // Partial products pp[j][i] = a[i] & b[j].
    let pp: Vec<Vec<NetId>> = (0..bits)
        .map(|j| {
            (0..bits)
                .map(|i| {
                    n.add_gate(StdCellKind::And2, 1.0, &[a[i], b[j]], format!("pp{j}_{i}"))
                })
                .collect::<Result<Vec<_>, _>>()
        })
        .collect::<Result<_, _>>()?;

    // Row-by-row carry-propagate accumulation (simple and correct; the
    // mapper can later retime). Running sum starts as row 0.
    let mut sum: Vec<NetId> = pp[0].clone();
    let mut outputs: Vec<NetId> = Vec::with_capacity(2 * bits);
    for (j, pp_row) in pp.iter().enumerate().skip(1) {
        // Bit 0 of the current sum retires to the product.
        outputs.push(sum[0]);
        // Add pp[j] to sum >> 1.
        let mut next = Vec::with_capacity(bits);
        let mut carry = zero;
        for (i, &pp_bit) in pp_row.iter().enumerate() {
            // `sum` may carry one extra top bit from the previous row.
            let addend = sum.get(i + 1).copied().unwrap_or(zero);
            let s = n.add_gate(
                StdCellKind::FaSum,
                1.0,
                &[pp_bit, addend, carry],
                format!("s{j}_{i}"),
            )?;
            carry = n.add_gate(
                StdCellKind::FaCarry,
                1.0,
                &[pp_bit, addend, carry],
                format!("c{j}_{i}"),
            )?;
            next.push(s);
        }
        next.push(carry);
        // next has bits+1 entries; keep low `bits`, fold top carry in by
        // extending the sum vector (bit `bits` is the carry).
        sum = next;
    }
    // Retire the remaining sum bits.
    outputs.extend(sum);
    // Pad or trim to exactly 2*bits outputs.
    while outputs.len() < 2 * bits {
        outputs.push(zero);
    }
    outputs.truncate(2 * bits);
    for (i, &o) in outputs.iter().enumerate() {
        let buffered = n.add_gate(StdCellKind::Buf, 1.0, &[o], format!("p[{i}]"))?;
        n.mark_output(buffered);
    }
    n.validate()?;
    Ok(n)
}

/// Generates an `n`-state one-hot sequencer (self-starting ring counter),
/// the CAM-peripheral "sequencer instead of a decoder" of §4.
///
/// Inputs: `clk`. Outputs: `state[0..n]`; after the first clock edge
/// exactly one state bit is hot, advancing each cycle.
///
/// # Errors
///
/// Returns [`RtlError::BadGeneratorParams`] when `n < 2`.
pub fn sequencer(name: &str, n_states: usize) -> Result<Netlist, RtlError> {
    if n_states < 2 {
        return Err(RtlError::BadGeneratorParams {
            generator: "sequencer",
            reason: "need ≥ 2 states".into(),
        });
    }
    let mut n = Netlist::new(name);
    n.add_clock("clk");

    // States live in DFFs; d[0] = NOR(all states) | state[n-1] makes the
    // ring self-start from the all-zero reset state.
    let state_nets: Vec<NetId> = (0..n_states).map(|i| n.add_net(format!("state[{i}]"))).collect();
    let none = {
        let any = or_tree(&mut n, &state_nets, "seq")?;
        n.add_gate(StdCellKind::Inv, 1.0, &[any], "none_hot")?
    };
    let d0 = n.add_gate(
        StdCellKind::Or2,
        1.0,
        &[none, state_nets[n_states - 1]],
        "d0",
    )?;

    // Splice DFFs onto the pre-created state nets.
    use crate::ir::{Cell, CellKind};
    for i in 0..n_states {
        let d = if i == 0 { d0 } else { state_nets[i - 1] };
        n.splice_cell(Cell {
            name: format!("u_state{i}"),
            kind: CellKind::Gate {
                kind: StdCellKind::Dff,
                drive: 1.0,
            },
            inputs: vec![d],
            outputs: vec![state_nets[i]],
        });
        n.mark_output(state_nets[i]);
    }
    n.validate()?;
    Ok(n)
}

/// Generates a `bits`-wide register bank with write enable.
///
/// Inputs: `clk`, `en`, `d[0..bits]`. Outputs: `q[0..bits]`.
///
/// # Errors
///
/// Returns [`RtlError::BadGeneratorParams`] when `bits == 0`.
pub fn register(name: &str, bits: usize) -> Result<Netlist, RtlError> {
    if bits == 0 {
        return Err(RtlError::BadGeneratorParams {
            generator: "register",
            reason: "bits must be ≥ 1".into(),
        });
    }
    let mut n = Netlist::new(name);
    n.add_clock("clk");
    let en = n.add_input("en");
    let d: Vec<NetId> = (0..bits).map(|i| n.add_input(format!("d[{i}]"))).collect();
    for (i, &di) in d.iter().enumerate() {
        let q = n.add_dff_en(di, en, 1.0, format!("q[{i}]"));
        n.mark_output(q);
    }
    n.validate()?;
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;

    #[test]
    fn decoder_is_one_hot_for_every_address() {
        let dec = decoder("dec3to8", 3, 8, true).unwrap();
        let mut sim = Simulator::new(&dec).unwrap();
        for addr in 0..8usize {
            let mut inputs: Vec<bool> = (0..3).map(|b| (addr >> b) & 1 == 1).collect();
            inputs.push(true); // en
            let outs = sim.eval(&inputs).unwrap();
            for (w, &o) in outs.iter().enumerate() {
                assert_eq!(o, w == addr, "addr {addr} word {w}");
            }
        }
        // Disabled: all cold.
        let outs = sim.eval(&[true, true, true, false]).unwrap();
        assert!(outs.iter().all(|&o| !o));
    }

    #[test]
    fn decoder_supports_non_power_of_two() {
        let dec = decoder("dec5to20", 5, 20, false).unwrap();
        let mut sim = Simulator::new(&dec).unwrap();
        let outs = sim
            .eval(&[true, false, false, true, false]) // addr 9
            .unwrap();
        assert_eq!(outs.len(), 20);
        assert!(outs[9]);
        assert_eq!(outs.iter().filter(|&&b| b).count(), 1);
    }

    #[test]
    fn decoder_rejects_overflow() {
        assert!(decoder("bad", 3, 9, false).is_err());
        assert!(decoder("bad", 0, 1, false).is_err());
    }

    #[test]
    fn mux_tree_selects() {
        let mux = mux_tree("mux4", 4).unwrap();
        let mut sim = Simulator::new(&mux).unwrap();
        for sel in 0..4usize {
            for hot in 0..4usize {
                let mut inputs: Vec<bool> = (0..4).map(|i| i == hot).collect();
                inputs.push(sel & 1 == 1);
                inputs.push(sel >> 1 & 1 == 1);
                let outs = sim.eval(&inputs).unwrap();
                assert_eq!(outs[0], sel == hot, "sel {sel} hot {hot}");
            }
        }
    }

    #[test]
    fn comparator_equality() {
        let cmp = comparator("cmp10", 10).unwrap();
        let mut sim = Simulator::new(&cmp).unwrap();
        let a = 0b1011001101usize;
        let mk = |x: usize, y: usize| -> Vec<bool> {
            (0..10)
                .map(|i| (x >> i) & 1 == 1)
                .chain((0..10).map(|i| (y >> i) & 1 == 1))
                .collect()
        };
        assert!(sim.eval(&mk(a, a)).unwrap()[0]);
        assert!(!sim.eval(&mk(a, a ^ 0b1000)).unwrap()[0]);
    }

    #[test]
    fn priority_encoder_lowest_wins() {
        let pe = priority_encoder("pe4", 4).unwrap();
        let mut sim = Simulator::new(&pe).unwrap();
        let outs = sim.eval(&[false, true, true, false]).unwrap();
        assert_eq!(outs, vec![false, true, false, false]);
        let outs = sim.eval(&[false, false, false, false]).unwrap();
        assert!(outs.iter().all(|&o| !o));
    }

    #[test]
    fn adder_exhaustive_4bit() {
        let add = ripple_adder("add4", 4).unwrap();
        let mut sim = Simulator::new(&add).unwrap();
        for a in 0..16usize {
            for b in 0..16usize {
                for cin in 0..2usize {
                    let inputs: Vec<bool> = (0..4)
                        .map(|i| (a >> i) & 1 == 1)
                        .chain((0..4).map(|i| (b >> i) & 1 == 1))
                        .chain(std::iter::once(cin == 1))
                        .collect();
                    let outs = sim.eval(&inputs).unwrap();
                    let sum: usize = outs[..4]
                        .iter()
                        .enumerate()
                        .map(|(i, &s)| (s as usize) << i)
                        .sum::<usize>()
                        + ((outs[4] as usize) << 4);
                    assert_eq!(sum, a + b + cin, "{a}+{b}+{cin}");
                }
            }
        }
    }

    #[test]
    fn kogge_stone_exhaustive_4bit() {
        let add = kogge_stone_adder("ks4", 4).unwrap();
        let mut sim = Simulator::new(&add).unwrap();
        for a in 0..16usize {
            for b in 0..16usize {
                for cin in 0..2usize {
                    let inputs: Vec<bool> = (0..4)
                        .map(|i| (a >> i) & 1 == 1)
                        .chain((0..4).map(|i| (b >> i) & 1 == 1))
                        .chain(std::iter::once(cin == 1))
                        .collect();
                    let outs = sim.eval(&inputs).unwrap();
                    let sum: usize = outs[..4]
                        .iter()
                        .enumerate()
                        .map(|(i, &s)| (s as usize) << i)
                        .sum::<usize>()
                        + ((outs[4] as usize) << 4);
                    assert_eq!(sum, a + b + cin, "{a}+{b}+{cin}");
                }
            }
        }
    }

    #[test]
    fn kogge_stone_matches_ripple_on_random_16bit() {
        let ks = kogge_stone_adder("ks16", 16).unwrap();
        let rp = ripple_adder("rp16", 16).unwrap();
        let mut s1 = Simulator::new(&ks).unwrap();
        let mut s2 = Simulator::new(&rp).unwrap();
        let mut rng = lim_testkit::TestRng::seed_from_u64(0x1234_5678);
        for _ in 0..50 {
            let a = rng.gen_range(0usize..1 << 16);
            let b = rng.gen_range(0usize..1 << 16);
            let cin = rng.gen::<bool>();
            let inputs: Vec<bool> = (0..16)
                .map(|i| (a >> i) & 1 == 1)
                .chain((0..16).map(|i| (b >> i) & 1 == 1))
                .chain(std::iter::once(cin))
                .collect();
            assert_eq!(
                s1.eval(&inputs).unwrap(),
                s2.eval(&inputs).unwrap(),
                "{a}+{b}+{cin}"
            );
        }
    }

    #[test]
    fn kogge_stone_is_shallower_than_ripple() {
        // Compare worst-case logic depth via the topological structure:
        // count the longest combinational chain.
        fn depth(n: &Netlist) -> usize {
            let order = n.topo_order().unwrap();
            let driver = n.driver_map();
            let mut d = vec![0usize; n.cell_count()];
            let mut max = 0;
            for cid in order {
                let cell = n.cell(cid);
                let mut best = 0;
                for &input in &cell.inputs {
                    if let Some(dc) = driver[input.index()] {
                        best = best.max(d[dc.index()] + 1);
                    }
                }
                d[cid.index()] = best;
                max = max.max(best);
            }
            max
        }
        let ks = depth(&kogge_stone_adder("ks32", 32).unwrap());
        let rp = depth(&ripple_adder("rp32", 32).unwrap());
        assert!(ks < rp / 2, "kogge-stone depth {ks} vs ripple {rp}");
    }

    #[test]
    fn multiplier_random_cases() {
        let mul = array_multiplier("mul6", 6).unwrap();
        let mut sim = Simulator::new(&mul).unwrap();
        for (a, b) in [(0usize, 0usize), (1, 63), (63, 63), (21, 37), (45, 18), (7, 9)] {
            let inputs: Vec<bool> = (0..6)
                .map(|i| (a >> i) & 1 == 1)
                .chain((0..6).map(|i| (b >> i) & 1 == 1))
                .collect();
            let outs = sim.eval(&inputs).unwrap();
            let p: usize = outs
                .iter()
                .enumerate()
                .map(|(i, &s)| (s as usize) << i)
                .sum();
            assert_eq!(p, a * b, "{a}*{b}");
        }
    }

    #[test]
    fn sequencer_walks_one_hot() {
        let seq = sequencer("seq4", 4).unwrap();
        let mut sim = Simulator::new(&seq).unwrap();
        // After the first edge state[0] is hot, then it walks.
        for cycle in 0..8usize {
            let outs = sim.step(&[]).unwrap();
            let hot: Vec<usize> = outs
                .iter()
                .enumerate()
                .filter(|(_, &b)| b)
                .map(|(i, _)| i)
                .collect();
            assert_eq!(hot, vec![cycle % 4], "cycle {cycle}");
        }
    }

    #[test]
    fn register_holds_without_enable() {
        let reg = register("reg2", 2).unwrap();
        let mut sim = Simulator::new(&reg).unwrap();
        // Write 0b01 with en.
        let outs = sim.step(&[true, true, false]).unwrap();
        assert_eq!(outs, vec![true, false]);
        // Change d without enable: holds.
        let outs = sim.step(&[false, false, true]).unwrap();
        assert_eq!(outs, vec![true, false]);
    }
}
