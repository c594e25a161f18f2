//! Behavioral IR for the memory-inference frontend.
//!
//! [`crate::parse()`] produces a [`BehavModule`] from a behavioral Verilog
//! subset; [`crate::infer`] recognizes the 2-D register arrays in it and
//! [`crate::smartmem`] lowers the whole module to a brick-backed
//! structural [`crate::Netlist`]. This module also carries the *reference
//! semantics*: [`BehavInterp`] executes a module cycle by cycle with
//! standard non-blocking-assignment ordering (every right-hand side
//! samples pre-edge state, then all updates commit together), which is
//! what the lowered smart memory is checked against for cycle-exactness.

use std::collections::BTreeMap;

/// Direction of a module port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortDir {
    /// Driven from outside the module.
    Input,
    /// Driven by the module.
    Output,
}

/// One ANSI-style module port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Port {
    /// Port name.
    pub name: String,
    /// Bit width (1 for scalar ports).
    pub width: usize,
    /// Direction.
    pub dir: PortDir,
    /// Declared `output reg` (required for synchronous read data).
    pub is_reg: bool,
    /// 1-based source line of the declaration.
    pub line: usize,
    /// 1-based source column of the declaration.
    pub col: usize,
}

/// One 2-D register array: `reg [width-1:0] name [depth-1:0];`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemDecl {
    /// Array name.
    pub name: String,
    /// Word width in bits.
    pub width: usize,
    /// Number of words.
    pub depth: usize,
    /// 1-based source line of the declaration.
    pub line: usize,
    /// 1-based source column of the declaration.
    pub col: usize,
}

/// A constant part-select `[hi:lo]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartSelect {
    /// Most significant selected bit.
    pub hi: usize,
    /// Least significant selected bit.
    pub lo: usize,
}

impl PartSelect {
    /// Selected width in bits.
    pub fn width(&self) -> usize {
        self.hi - self.lo + 1
    }
}

/// A right-hand side of an assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rvalue {
    /// A signal, with an optional constant part-select.
    Signal {
        /// Signal name.
        name: String,
        /// Optional `[hi:lo]` slice.
        sel: Option<PartSelect>,
    },
    /// An array read `mem[addr]`, with an optional part-select on the
    /// read word.
    MemRead {
        /// Array name.
        mem: String,
        /// Address signal name.
        addr: String,
        /// Optional `[hi:lo]` slice of the read word.
        sel: Option<PartSelect>,
    },
}

/// A condition guarding a clocked statement: a scalar signal or one bit
/// of a vector (`we` / `we[2]`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cond {
    /// Enable signal name.
    pub signal: String,
    /// Selected bit for vector enables.
    pub bit: Option<usize>,
}

/// One statement inside a clocked `always` block.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `dst <= rhs;` — a register update.
    RegWrite {
        /// Destination register (an `output reg` port).
        dst: String,
        /// Value.
        rhs: Rvalue,
        /// 1-based source line.
        line: usize,
        /// 1-based source column.
        col: usize,
    },
    /// `mem[addr] <= data;` or `mem[addr][hi:lo] <= data[hi:lo];`.
    MemWrite {
        /// Array name.
        mem: String,
        /// Address signal name.
        addr: String,
        /// Optional lane slice of the written word.
        sel: Option<PartSelect>,
        /// Data right-hand side.
        rhs: Rvalue,
        /// 1-based source line.
        line: usize,
        /// 1-based source column.
        col: usize,
    },
    /// `if (cond) …` (no `else` in the subset).
    If {
        /// Guard condition.
        cond: Cond,
        /// Guarded statements.
        body: Vec<Stmt>,
        /// 1-based source line.
        line: usize,
        /// 1-based source column.
        col: usize,
    },
}

/// One `always @(posedge clk)` block.
#[derive(Debug, Clone, PartialEq)]
pub struct AlwaysBlock {
    /// Clock signal name.
    pub clock: String,
    /// Statements, in source order.
    pub body: Vec<Stmt>,
    /// 1-based source line of the `always` keyword.
    pub line: usize,
    /// 1-based source column.
    pub col: usize,
}

/// One continuous assignment `assign dst = rhs;`.
#[derive(Debug, Clone, PartialEq)]
pub struct Assign {
    /// Destination (an output wire port).
    pub dst: String,
    /// Value.
    pub rhs: Rvalue,
    /// 1-based source line.
    pub line: usize,
    /// 1-based source column.
    pub col: usize,
}

/// A parsed behavioral module.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BehavModule {
    /// Module name.
    pub name: String,
    /// Ports in declaration order.
    pub ports: Vec<Port>,
    /// 2-D register arrays.
    pub mems: Vec<MemDecl>,
    /// Clocked blocks.
    pub always: Vec<AlwaysBlock>,
    /// Continuous assignments.
    pub assigns: Vec<Assign>,
    /// Source lines consumed by the parser (for observability).
    pub source_lines: usize,
}

impl BehavModule {
    /// Looks a port up by name.
    pub fn port(&self, name: &str) -> Option<&Port> {
        self.ports.iter().find(|p| p.name == name)
    }

    /// Looks a memory up by name.
    pub fn mem(&self, name: &str) -> Option<&MemDecl> {
        self.mems.iter().find(|m| m.name == name)
    }
}

fn mask(width: usize) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Reference interpreter over a [`BehavModule`] with standard
/// non-blocking semantics: on each [`step`](Self::step), every
/// right-hand side samples the pre-edge state (a read of the word being
/// written returns the *old* contents), then all register and array
/// updates commit at once. Continuous assignments are recomputed from
/// post-edge state.
///
/// Widths are capped at 64 bits (word values are `u64`); the inference
/// pass rejects wider memories before lowering for the same reason.
#[derive(Debug, Clone)]
pub struct BehavInterp<'m> {
    module: &'m BehavModule,
    mems: BTreeMap<String, Vec<u64>>,
    regs: BTreeMap<String, u64>,
}

impl<'m> BehavInterp<'m> {
    /// Builds zero-initialized state for `module`.
    ///
    /// # Errors
    ///
    /// Returns a message when any port or array is wider than 64 bits.
    pub fn new(module: &'m BehavModule) -> Result<Self, String> {
        for p in &module.ports {
            if p.width > 64 {
                return Err(format!("port `{}` wider than 64 bits", p.name));
            }
        }
        let mut mems = BTreeMap::new();
        for m in &module.mems {
            if m.width > 64 {
                return Err(format!("memory `{}` wider than 64 bits", m.name));
            }
            mems.insert(m.name.clone(), vec![0u64; m.depth]);
        }
        let mut regs = BTreeMap::new();
        for p in &module.ports {
            if p.dir == PortDir::Output && p.is_reg {
                regs.insert(p.name.clone(), 0u64);
            }
        }
        Ok(BehavInterp {
            module,
            mems,
            regs,
        })
    }

    fn input_of(&self, inputs: &BTreeMap<String, u64>, name: &str) -> u64 {
        let width = self.module.port(name).map_or(64, |p| p.width);
        inputs.get(name).copied().unwrap_or(0) & mask(width)
    }

    /// Current value of `name` (input from `inputs`, register from
    /// state).
    fn signal(&self, inputs: &BTreeMap<String, u64>, name: &str) -> u64 {
        match self.regs.get(name) {
            Some(&v) => v,
            None => self.input_of(inputs, name),
        }
    }

    fn rvalue(&self, inputs: &BTreeMap<String, u64>, rhs: &Rvalue) -> u64 {
        let (raw, sel) = match rhs {
            Rvalue::Signal { name, sel } => (self.signal(inputs, name), sel),
            Rvalue::MemRead { mem, addr, sel } => {
                let a = self.signal(inputs, addr) as usize;
                let words = &self.mems[mem];
                (words.get(a).copied().unwrap_or(0), sel)
            }
        };
        match sel {
            Some(s) => (raw >> s.lo) & mask(s.width()),
            None => raw,
        }
    }

    fn run_block(
        &self,
        inputs: &BTreeMap<String, u64>,
        body: &[Stmt],
        reg_updates: &mut Vec<(String, u64, usize)>,
        mem_updates: &mut Vec<(String, usize, Option<PartSelect>, u64)>,
    ) {
        for stmt in body {
            match stmt {
                Stmt::RegWrite { dst, rhs, .. } => {
                    let width = self.module.port(dst).map_or(64, |p| p.width);
                    reg_updates.push((dst.clone(), self.rvalue(inputs, rhs), width));
                }
                Stmt::MemWrite {
                    mem,
                    addr,
                    sel,
                    rhs,
                    ..
                } => {
                    let a = self.signal(inputs, addr) as usize;
                    mem_updates.push((mem.clone(), a, *sel, self.rvalue(inputs, rhs)));
                }
                Stmt::If { cond, body, .. } => {
                    let v = self.signal(inputs, &cond.signal);
                    let bit = cond.bit.unwrap_or(0);
                    if (v >> bit) & 1 == 1 {
                        self.run_block(inputs, body, reg_updates, mem_updates);
                    }
                }
            }
        }
    }

    /// One clock cycle: samples `inputs`, commits all non-blocking
    /// updates, and returns every output port's post-edge value.
    pub fn step(&mut self, inputs: &BTreeMap<String, u64>) -> BTreeMap<String, u64> {
        let mut reg_updates = Vec::new();
        let mut mem_updates = Vec::new();
        for block in &self.module.always {
            self.run_block(inputs, &block.body, &mut reg_updates, &mut mem_updates);
        }
        // Commit phase: later statements win on a same-target collision,
        // matching Verilog's last-assignment-wins NBA ordering.
        for (mem, addr, sel, value) in mem_updates {
            let decl_width = self.module.mem(&mem).map_or(64, |m| m.width);
            let words = self.mems.get_mut(&mem).expect("mem state exists");
            if addr >= words.len() {
                continue; // out-of-range write is dropped, like real RTL
            }
            match sel {
                Some(s) => {
                    let m = mask(s.width()) << s.lo;
                    words[addr] = (words[addr] & !m) | ((value << s.lo) & m);
                }
                None => words[addr] = value & mask(decl_width),
            }
        }
        for (dst, value, width) in reg_updates {
            self.regs.insert(dst, value & mask(width));
        }
        self.outputs(inputs)
    }

    /// Every output port's current value (registers from state,
    /// continuous assigns recomputed).
    pub fn outputs(&self, inputs: &BTreeMap<String, u64>) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for p in &self.module.ports {
            if p.dir != PortDir::Output {
                continue;
            }
            if let Some(&v) = self.regs.get(&p.name) {
                out.insert(p.name.clone(), v);
            }
        }
        for a in &self.module.assigns {
            let width = self.module.port(&a.dst).map_or(64, |p| p.width);
            out.insert(a.dst.clone(), self.rvalue(inputs, &a.rhs) & mask(width));
        }
        out
    }

    /// Direct read of one array word (for tests).
    pub fn mem_word(&self, mem: &str, addr: usize) -> Option<u64> {
        self.mems.get(mem).and_then(|w| w.get(addr)).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn memory_module() -> BehavModule {
        // module top(input clk, input we, input [3:0] waddr, raddr,
        //            input [7:0] din, output reg [7:0] dout);
        //   reg [7:0] mem [15:0];
        //   always @(posedge clk) begin
        //     if (we) mem[waddr] <= din;
        //     dout <= mem[raddr];
        //   end
        let port = |name: &str, width, dir, is_reg| Port {
            name: name.into(),
            width,
            dir,
            is_reg,
            line: 1,
            col: 1,
        };
        BehavModule {
            name: "top".into(),
            ports: vec![
                port("clk", 1, PortDir::Input, false),
                port("we", 1, PortDir::Input, false),
                port("waddr", 4, PortDir::Input, false),
                port("raddr", 4, PortDir::Input, false),
                port("din", 8, PortDir::Input, false),
                port("dout", 8, PortDir::Output, true),
            ],
            mems: vec![MemDecl {
                name: "mem".into(),
                width: 8,
                depth: 16,
                line: 2,
                col: 3,
            }],
            always: vec![AlwaysBlock {
                clock: "clk".into(),
                body: vec![
                    Stmt::If {
                        cond: Cond {
                            signal: "we".into(),
                            bit: None,
                        },
                        body: vec![Stmt::MemWrite {
                            mem: "mem".into(),
                            addr: "waddr".into(),
                            sel: None,
                            rhs: Rvalue::Signal {
                                name: "din".into(),
                                sel: None,
                            },
                            line: 4,
                            col: 13,
                        }],
                        line: 4,
                        col: 5,
                    },
                    Stmt::RegWrite {
                        dst: "dout".into(),
                        rhs: Rvalue::MemRead {
                            mem: "mem".into(),
                            addr: "raddr".into(),
                            sel: None,
                        },
                        line: 5,
                        col: 5,
                    },
                ],
                line: 3,
                col: 3,
            }],
            assigns: Vec::new(),
            source_lines: 7,
        }
    }

    fn inputs(pairs: &[(&str, u64)]) -> BTreeMap<String, u64> {
        pairs.iter().map(|&(k, v)| (k.to_owned(), v)).collect()
    }

    #[test]
    fn write_then_read_back() {
        let m = memory_module();
        let mut interp = BehavInterp::new(&m).unwrap();
        interp.step(&inputs(&[("we", 1), ("waddr", 5), ("din", 0xAB)]));
        let out = interp.step(&inputs(&[("raddr", 5)]));
        assert_eq!(out["dout"], 0xAB);
        assert_eq!(interp.mem_word("mem", 5), Some(0xAB));
    }

    #[test]
    fn same_address_collision_reads_old_value() {
        let m = memory_module();
        let mut interp = BehavInterp::new(&m).unwrap();
        interp.step(&inputs(&[("we", 1), ("waddr", 3), ("din", 0x11)]));
        // Read addr 3 while overwriting it: NBA samples the old word.
        let out = interp.step(&inputs(&[
            ("we", 1),
            ("waddr", 3),
            ("din", 0x22),
            ("raddr", 3),
        ]));
        assert_eq!(out["dout"], 0x11, "read must sample pre-edge state");
        assert_eq!(interp.mem_word("mem", 3), Some(0x22));
    }

    #[test]
    fn disabled_write_is_dropped_and_values_are_masked() {
        let m = memory_module();
        let mut interp = BehavInterp::new(&m).unwrap();
        interp.step(&inputs(&[("we", 0), ("waddr", 2), ("din", 0xFF)]));
        assert_eq!(interp.mem_word("mem", 2), Some(0));
        // Widths mask: din is 8 bits.
        interp.step(&inputs(&[("we", 1), ("waddr", 2), ("din", 0x1FF)]));
        assert_eq!(interp.mem_word("mem", 2), Some(0xFF));
    }
}
