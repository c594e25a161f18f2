//! Regression: the structural Verilog `rtl.infer` returns must give
//! every net and every instance its own identifier, even when the
//! lowering names an object exactly like one the source already uses.

use lim::flow::LimFlow;
use lim::rtl_infer::infer_and_synthesize;
use std::collections::HashSet;

/// A write enable called `mem_l0_en`: the lowering's constant lane
/// enable for lane 0 of `mem` carries the same name.
const PORT_CLASH: &str = "\
module port_clash (
  input wire clk,
  input wire mem_l0_en,
  input wire [3:0] waddr,
  input wire [3:0] raddr,
  input wire [7:0] din,
  output reg [7:0] dout
);
  reg [7:0] mem [15:0];
  always @(posedge clk) begin
    if (mem_l0_en)
      mem[waddr] <= din;
    dout <= mem[raddr];
  end
endmodule
";

/// A residual register called `mem_l0`: its flip-flop instance and the
/// brick macro of lane 0 of `mem` are both named `u_mem_l0`.
const INSTANCE_CLASH: &str = "\
module instance_clash (
  input wire clk,
  input wire we,
  input wire [3:0] waddr,
  input wire [3:0] raddr,
  input wire [7:0] din,
  output reg [7:0] dout,
  output reg mem_l0
);
  reg [7:0] mem [15:0];
  always @(posedge clk) begin
    if (we)
      mem[waddr] <= din;
    dout <= mem[raddr];
    mem_l0 <= we;
  end
endmodule
";

fn structural_verilog(source: &str) -> String {
    let mut flow = LimFlow::cmos65();
    infer_and_synthesize(&mut flow, source, &[16])
        .expect("design is inferable")
        .verilog
}

/// Declared net identifiers (ports and wires) and instance names, in
/// text order.
fn declarations(verilog: &str) -> (Vec<&str>, Vec<&str>) {
    let mut nets = Vec::new();
    let mut instances = Vec::new();
    for line in verilog.lines() {
        let line = line.trim();
        let decl = ["input  wire ", "output wire ", "wire "]
            .iter()
            .find_map(|p| line.strip_prefix(p));
        if let Some(name) = decl {
            nets.push(name.trim_end_matches([',', ';']));
        } else if line.ends_with(");") && line.contains(" (") && !line.starts_with("module") {
            instances.push(line.split(' ').nth(1).expect("cell instance name"));
        }
    }
    (nets, instances)
}

fn assert_unique(kind: &str, names: &[&str], verilog: &str) {
    let mut seen = HashSet::new();
    for name in names {
        assert!(
            seen.insert(*name),
            "{kind} `{name}` declared twice:\n{verilog}"
        );
    }
}

#[test]
fn port_sharing_a_lowering_net_name_keeps_its_own_identifier() {
    let v = structural_verilog(PORT_CLASH);
    let (nets, instances) = declarations(&v);
    assert_unique("net", &nets, &v);
    assert_unique("instance", &instances, &v);
    // The port keeps its name; the constant lane enable moves aside and
    // is what the macro's enable pin sees.
    assert!(v.contains("  input  wire mem_l0_en,\n"), "{v}");
    assert!(v.contains("  assign mem_l0_en_2 = 1'b1;\n"), "{v}");
    assert!(v.contains(" u_mem_l0 (clk, mem_l0_en_2, "), "{v}");
}

#[test]
fn register_sharing_a_macro_instance_name_keeps_its_own_instance() {
    let v = structural_verilog(INSTANCE_CLASH);
    let (nets, instances) = declarations(&v);
    assert_unique("net", &nets, &v);
    assert_unique("instance", &instances, &v);
    // First comer (the macro, lowered before residual logic) keeps the
    // plain name.
    assert!(v.contains("brick_8t_16_8_x1 u_mem_l0 (clk, "), "{v}");
    assert!(v.contains("DFF_X1 u_mem_l0_2 (we, mem_l0);"), "{v}");
}
