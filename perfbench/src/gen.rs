//! Seeded inputs for the three workloads.
//!
//! Every request is a pure function of the workload seed and its
//! position, so one seed gives the same request sequence on every run
//! and the daemon only ever sees the generated lines. The generators
//! stay inside the inputs the service accepts: every module parses and
//! infers without rejection, every SRAM configuration is accepted by
//! `SramConfig`, and every golden configuration by `BrickSpec` (the
//! self-tests at the bottom pin this), so a failed request means a
//! server problem, not a generator bug.

use lim_obs::json::{self, Value};
use lim_testkit::TestRng;

/// Bitcell short names the service accepts.
pub const BITCELLS: [&str; 5] = ["6t", "8t", "2p", "edram", "cam"];
/// Brick-depth candidates `rtl.infer` and `dse.explore` choose among.
const BRICK_WORDS: [usize; 4] = [8, 16, 32, 64];
/// Deepest brick stack the service tiles a memory with.
const MAX_STACK: usize = 64;
/// Requests in the `repeat_mix` population.
pub const POPULATION: usize = 256;
/// Entries per `golden_sweep` batch.
pub const GOLDEN_BATCH: usize = 4;
/// The `repeat_mix` population and rank order do not depend on the run
/// seed, so every run primes the same cache; the seed drives the picks.
const POPULATION_SEED: u64 = 0x5eed_0f2b_adca_fe00;

/// What the client checks a reply against.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// `rtl.infer`: module name, then `(words, lanes)` per memory.
    Infer {
        module: String,
        mems: Vec<(usize, usize)>,
    },
    /// `flow.run`: the design name the SRAM generator gives.
    Flow { name: String },
    /// A `batch` of this many `golden.compare` entries.
    Golden { entries: usize },
    /// `brick.estimate` / `dse.explore`: a well-formed success.
    Ok,
    /// A `repeat_mix` pick: a memo or disk hit, byte-identical to the
    /// priming reply of this population member.
    Primed(usize),
}

/// One generated request.
#[derive(Debug, Clone, PartialEq)]
pub struct Req {
    pub method: &'static str,
    pub params: Value,
    pub expect: Expect,
}

impl Req {
    /// The request as one `lim-serve-v1` line, newline included.
    pub fn line(&self, id: u64) -> String {
        format!(
            "{{\"id\":{id},\"method\":\"{}\",\"params\":{}}}\n",
            self.method,
            json::render(&self.params)
        )
    }
}

fn obj(members: Vec<(&str, Value)>) -> Value {
    Value::Object(
        members
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

fn num(x: usize) -> Value {
    Value::Number(x as f64)
}

fn nums(xs: &[usize]) -> Value {
    Value::Array(xs.iter().map(|&x| num(x)).collect())
}

/// Independent stream for item `i` of a seeded sequence.
fn rng_for(seed: u64, salt: u64, i: u64) -> TestRng {
    let mut s = seed ^ salt.rotate_left(17) ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    TestRng::seed_from_u64(lim_testkit::rng::splitmix64(&mut s))
}

/// One memory array of a generated module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemShape {
    pub words: usize,
    pub bits: usize,
    pub lanes: usize,
}

/// Behavioral Verilog for `mems` in the inferable subset: one clocked
/// write port (a plain enable, or `lanes` byte-enable lanes splitting
/// the word evenly) and one registered read port per memory.
pub fn module_source(name: &str, mems: &[MemShape]) -> String {
    let mut ports = vec!["  input wire clk".to_owned()];
    let mut body = String::new();
    for (k, m) in mems.iter().enumerate() {
        let a = m.words.trailing_zeros() as usize - 1;
        let b = m.bits - 1;
        ports.push(if m.lanes == 1 {
            format!("  input wire we{k}")
        } else {
            format!("  input wire [{}:0] we{k}", m.lanes - 1)
        });
        ports.push(format!("  input wire [{a}:0] waddr{k}"));
        ports.push(format!("  input wire [{a}:0] raddr{k}"));
        ports.push(format!("  input wire [{b}:0] din{k}"));
        ports.push(format!("  output reg [{b}:0] dout{k}"));
        body.push_str(&format!(
            "  reg [{b}:0] mem{k} [{}:0];\n  always @(posedge clk) begin\n",
            m.words - 1
        ));
        if m.lanes == 1 {
            body.push_str(&format!(
                "    if (we{k})\n      mem{k}[waddr{k}] <= din{k};\n"
            ));
        } else {
            for j in 0..m.lanes {
                let lo = j * m.bits / m.lanes;
                let hi = (j + 1) * m.bits / m.lanes - 1;
                body.push_str(&format!(
                    "    if (we{k}[{j}]) mem{k}[waddr{k}][{hi}:{lo}] <= din{k}[{hi}:{lo}];\n"
                ));
            }
        }
        body.push_str(&format!("    dout{k} <= mem{k}[raddr{k}];\n  end\n"));
    }
    format!(
        "module {name} (\n{}\n);\n{body}endmodule\n",
        ports.join(",\n")
    )
}

/// Brick depths that tile a `words`-deep memory within the stack bound.
fn tiles(words: usize, bw: usize) -> bool {
    bw <= words && words.is_multiple_of(bw) && words / bw <= MAX_STACK
}

/// The subset of [`BRICK_WORDS`] selected by the non-zero 4-bit `mask`,
/// made to tile every memory (the deepest fitting candidate is added
/// where the subset left a memory untileable).
fn brick_words_for(mask: u32, depths: &[usize]) -> Vec<usize> {
    let mut bws: Vec<usize> = BRICK_WORDS
        .iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, &bw)| bw)
        .collect();
    for &d in depths {
        if !bws.iter().any(|&bw| tiles(d, bw)) {
            let fit = *BRICK_WORDS
                .iter()
                .rev()
                .find(|&&bw| tiles(d, bw))
                .expect("every generated depth has a tiling brick");
            bws.push(fit);
        }
    }
    bws.sort_unstable();
    bws.dedup();
    bws
}

/// An `rtl.infer` request for `mems` named `name`.
pub fn infer_req(name: &str, mems: &[MemShape], brick_words: &[usize]) -> Req {
    Req {
        method: "rtl.infer",
        params: obj(vec![
            ("source", Value::String(module_source(name, mems))),
            ("brick_words", nums(brick_words)),
        ]),
        expect: Expect::Infer {
            module: name.to_owned(),
            mems: mems.iter().map(|m| (m.words, m.lanes)).collect(),
        },
    }
}

/// An inferable module around `main`, plus (when `second`) a smaller
/// second memory of 32..=256 words, 4–16 bits and 1–2 lanes, offering
/// the brick depths `mask` selects.
fn module_around(rng: &mut TestRng, name: &str, main: MemShape, second: bool, mask: u32) -> Req {
    let mut mems = vec![main];
    if second {
        mems.push(MemShape {
            words: 32 << rng.gen_range(0usize..4),
            bits: rng.gen_range(4usize..=16),
            lanes: rng.gen_range(1usize..=2),
        });
    }
    let depths: Vec<usize> = mems.iter().map(|m| m.words).collect();
    infer_req(name, &mems, &brick_words_for(mask, &depths))
}

/// A seeded inferable module whose main memory is `depth` deep: 4–32
/// bits in 1–4 lanes, and in one module of four a second memory.
fn random_module(rng: &mut TestRng, name: &str, depth: usize) -> Req {
    let main = MemShape {
        words: depth,
        bits: rng.gen_range(4usize..=32),
        lanes: rng.gen_range(1usize..=4),
    };
    let second = rng.gen_bool(0.25);
    let mask = rng.gen_range(1u32..16);
    module_around(rng, name, main, second, mask)
}

/// Main-memory word widths of `compile_cold`, in four bins.
const WIDTH_BINS: [(usize, usize); 4] = [(4, 10), (11, 17), (18, 24), (25, 32)];
/// `brick_words` subsets of `compile_cold` as [`BRICK_WORDS`] masks: all
/// four, {16, 32}, {8, 64} and {16, 64}. Which depths a module offers
/// decides the decomposition DSE picks, and so its netlist size.
const BRICK_MASKS: [u32; 4] = [0b1111, 0b0110, 0b1001, 0b1010];

/// One `flow.run` SRAM configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowCfg {
    pub words: usize,
    pub bits: usize,
    pub partitions: usize,
    pub brick_words: usize,
}

impl FlowCfg {
    pub fn req(self, nocache: bool) -> Req {
        let mut members = vec![
            ("words", num(self.words)),
            ("bits", num(self.bits)),
            ("partitions", num(self.partitions)),
            ("brick_words", num(self.brick_words)),
        ];
        if nocache {
            members.push(("nocache", Value::Bool(true)));
        }
        Req {
            method: "flow.run",
            params: obj(members),
            expect: Expect::Flow {
                name: format!(
                    "sram_{}x{}_p{}_b{}",
                    self.words, self.bits, self.partitions, self.brick_words
                ),
            },
        }
    }
}

/// The fixed quality set every workload sends during set-up: the
/// designs `wirelength_um` and `fmax_mhz` are read from. It does not
/// depend on the seed, so those two metrics repeat exactly.
pub fn quality_set() -> Vec<Req> {
    let m = |words, bits, lanes| MemShape { words, bits, lanes };
    let mut set = vec![
        infer_req("q_rtl_0", &[m(64, 8, 1)], &[8, 16, 32]),
        infer_req("q_rtl_1", &[m(128, 16, 2)], &[16, 32]),
        infer_req("q_rtl_2", &[m(256, 32, 4), m(64, 8, 1)], &[16, 32, 64]),
        infer_req("q_rtl_3", &[m(512, 12, 1)], &[32, 64]),
    ];
    set.extend(QUALITY_FLOWS.iter().map(|c| c.req(false)));
    set
}

const QUALITY_FLOWS: [FlowCfg; 4] = [
    FlowCfg {
        words: 64,
        bits: 8,
        partitions: 1,
        brick_words: 16,
    },
    FlowCfg {
        words: 128,
        bits: 16,
        partitions: 2,
        brick_words: 32,
    },
    FlowCfg {
        words: 256,
        bits: 12,
        partitions: 4,
        brick_words: 16,
    },
    FlowCfg {
        words: 512,
        bits: 32,
        partitions: 1,
        brick_words: 64,
    },
];

/// Every SRAM configuration the workloads draw from (the quality set
/// excluded, so a drawn configuration never hits the memo).
pub fn flow_space() -> Vec<FlowCfg> {
    let mut out = Vec::new();
    for words in [32, 64, 128, 256, 512] {
        for bits in (4..=32).step_by(4) {
            for partitions in [1, 2, 4] {
                for brick_words in BRICK_WORDS {
                    let c = FlowCfg {
                        words,
                        bits,
                        partitions,
                        brick_words,
                    };
                    let per_bank = words / partitions;
                    if per_bank.is_multiple_of(brick_words)
                        && per_bank / brick_words <= MAX_STACK
                        && brick_words <= per_bank
                        && !QUALITY_FLOWS.contains(&c)
                    {
                        out.push(c);
                    }
                }
            }
        }
    }
    out
}

fn shuffled<T>(mut items: Vec<T>, seed: u64, salt: u64) -> Vec<T> {
    rng_for(seed, salt, 0).shuffle(&mut items);
    items
}

/// `compile_cold`: three `rtl.infer` requests then one `flow.run` in
/// every four, all unique. Modules come in blocks of 24 that are
/// stratified so every block costs about the same: each block holds
/// every (depth, lanes) pair once — depths 32..=1024, log-uniform;
/// 1–4 byte-enable lanes — gives each depth one main width from each
/// quarter of 4..=32 bits and each of the four [`BRICK_MASKS`], and
/// puts a second memory in 6 of its 24 modules. SRAM configurations
/// are drawn without replacement (a run that exhausts them continues
/// with `nocache` repeats, still cold).
pub struct CompileCold {
    seed: u64,
    flows: Vec<FlowCfg>,
}

impl CompileCold {
    pub fn new(seed: u64) -> Self {
        CompileCold {
            seed,
            flows: shuffled(flow_space(), seed, 1),
        }
    }

    pub fn get(&self, i: usize) -> Req {
        if i % 4 == 3 {
            let k = i / 4;
            return self.flows[k % self.flows.len()].req(k >= self.flows.len());
        }
        let r = (i / 4 * 3 + i % 4) as u64;
        let mut block = rng_for(self.seed, 2, r / 24);
        let mut slots: Vec<(usize, usize)> =
            (0..6).flat_map(|d| (1..=4).map(move |l| (d, l))).collect();
        block.shuffle(&mut slots);
        let mut bins = [[0usize, 1, 2, 3]; 6];
        let mut masks = [BRICK_MASKS; 6];
        for (b, m) in bins.iter_mut().zip(&mut masks) {
            block.shuffle(b);
            block.shuffle(m);
        }
        let mut second = [false; 24];
        second[..6].fill(true);
        block.shuffle(&mut second);
        let pos = (r % 24) as usize;
        let (depth, lanes) = slots[pos];
        let (lo, hi) = WIDTH_BINS[bins[depth][lanes - 1]];
        let mut rng = rng_for(self.seed, 3, r);
        let main = MemShape {
            words: 32 << depth,
            bits: rng.gen_range(lo..=hi),
            lanes,
        };
        let name = format!("cc_{:x}_{r}", self.seed);
        module_around(&mut rng, &name, main, second[pos], masks[depth][lanes - 1])
    }
}

/// One `golden.compare` configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GoldenCfg {
    pub bitcell: &'static str,
    pub words: usize,
    pub bits: usize,
    pub stack: usize,
}

/// bitcell × words {16, 32, 64} × bits 8..=32 × stack {1, 2, 4, 8}.
pub fn golden_space() -> Vec<GoldenCfg> {
    let mut out = Vec::new();
    for bitcell in BITCELLS {
        for words in [16, 32, 64] {
            for bits in 8..=32 {
                for stack in [1, 2, 4, 8] {
                    out.push(GoldenCfg {
                        bitcell,
                        words,
                        bits,
                        stack,
                    });
                }
            }
        }
    }
    out
}

/// `golden_sweep`: batches of [`GOLDEN_BATCH`] `golden.compare` entries
/// drawn without replacement (`nocache` once the space is exhausted).
pub struct GoldenSweep {
    configs: Vec<GoldenCfg>,
}

impl GoldenSweep {
    pub fn new(seed: u64) -> Self {
        GoldenSweep {
            configs: shuffled(golden_space(), seed, 4),
        }
    }

    pub fn get(&self, i: usize) -> Req {
        let n = self.configs.len();
        let entries = (0..GOLDEN_BATCH)
            .map(|j| {
                let k = i * GOLDEN_BATCH + j;
                let c = self.configs[k % n];
                let mut params = vec![
                    ("bitcell", Value::String(c.bitcell.into())),
                    ("words", num(c.words)),
                    ("bits", num(c.bits)),
                    ("stack", num(c.stack)),
                ];
                if k >= n {
                    params.push(("nocache", Value::Bool(true)));
                }
                obj(vec![
                    ("method", Value::String("golden.compare".into())),
                    ("params", obj(params)),
                ])
            })
            .collect();
        Req {
            method: "batch",
            params: obj(vec![("requests", Value::Array(entries))]),
            expect: Expect::Golden {
                entries: GOLDEN_BATCH,
            },
        }
    }
}

/// `repeat_mix`: a fixed population of [`POPULATION`] memoizable
/// requests (40% `brick.estimate`, 20% each `dse.explore`, `flow.run`
/// and `rtl.infer`, the quality set included) and Zipf(s = 1) picks
/// over a fixed rank order.
pub struct RepeatMix {
    pub population: Vec<Req>,
    /// Population index of each Zipf rank.
    ranks: Vec<usize>,
    /// Cumulative Zipf weights, normalized to 1.
    cdf: Vec<f64>,
    seed: u64,
}

impl RepeatMix {
    pub fn new(seed: u64) -> Self {
        let population = population();
        let ranks = shuffled((0..population.len()).collect(), POPULATION_SEED, 5);
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=population.len())
            .map(|k| {
                acc += 1.0 / k as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        RepeatMix {
            population,
            ranks,
            cdf,
            seed,
        }
    }

    /// Population index of pick `i`.
    pub fn pick(&self, i: usize) -> usize {
        let u = rng_for(self.seed, 6, i as u64).unit_f64();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        self.ranks[rank]
    }

    pub fn get(&self, i: usize) -> Req {
        let idx = self.pick(i);
        Req {
            expect: Expect::Primed(idx),
            ..self.population[idx].clone()
        }
    }
}

fn population() -> Vec<Req> {
    let seed = POPULATION_SEED;
    let mut pop = quality_set();
    let n_estimate = POPULATION * 2 / 5;
    let n_dse = POPULATION / 5;
    let n_flow = POPULATION / 5 - QUALITY_FLOWS.len();
    let n_infer = POPULATION - pop.len() - n_estimate - n_dse - n_flow;

    let mut estimates = Vec::new();
    for bitcell in BITCELLS {
        for words in [16, 32, 64, 128] {
            for bits in 8..=32 {
                for stack in [1, 2, 4, 8] {
                    estimates.push((bitcell, words, bits, stack));
                }
            }
        }
    }
    for (bitcell, words, bits, stack) in shuffled(estimates, seed, 7).into_iter().take(n_estimate) {
        pop.push(Req {
            method: "brick.estimate",
            params: obj(vec![
                ("bitcell", Value::String(bitcell.into())),
                ("words", num(words)),
                ("bits", num(bits)),
                ("stack", num(stack)),
            ]),
            expect: Expect::Ok,
        });
    }

    for r in 0..n_dse {
        let mut rng = rng_for(seed, 8, r as u64);
        let n = rng.gen_range(1usize..=3);
        let memories: Vec<(usize, usize)> = (0..n)
            .map(|_| (64 << rng.gen_range(0usize..5), rng.gen_range(8usize..=32)))
            .collect();
        let depths: Vec<usize> = memories.iter().map(|m| m.0).collect();
        let mut bws = brick_words_for(rng.gen_range(1u32..16), &depths);
        // dse.explore needs every candidate to tile every memory.
        bws.retain(|&bw| depths.iter().all(|&d| tiles(d, bw)));
        if bws.is_empty() {
            bws.push(64);
        }
        pop.push(Req {
            method: "dse.explore",
            params: obj(vec![
                (
                    "memories",
                    Value::Array(memories.iter().map(|&(w, b)| nums(&[w, b])).collect()),
                ),
                ("brick_words", nums(&bws)),
            ]),
            expect: Expect::Ok,
        });
    }

    pop.extend(
        shuffled(flow_space(), seed, 9)
            .into_iter()
            .take(n_flow)
            .map(|c| c.req(false)),
    );

    for r in 0..n_infer {
        // Main depth 64..=1024 (replies of ~20 KB to ~1 MB), cycling
        // through the five depths.
        let mut rng = rng_for(seed, 10, r as u64);
        pop.push(random_module(&mut rng, &format!("rm_{r}"), 64 << (r % 5)));
    }
    pop
}

/// A workload's request stream.
pub enum Workload {
    CompileCold(CompileCold),
    GoldenSweep(GoldenSweep),
    RepeatMix(RepeatMix),
}

impl Workload {
    pub fn new(name: &str, seed: u64) -> Option<Workload> {
        Some(match name {
            "compile_cold" => Workload::CompileCold(CompileCold::new(seed)),
            "golden_sweep" => Workload::GoldenSweep(GoldenSweep::new(seed)),
            "repeat_mix" => Workload::RepeatMix(RepeatMix::new(seed)),
            _ => return None,
        })
    }

    /// Methods the measured phase sends at top level.
    pub fn methods(&self) -> &'static [&'static str] {
        match self {
            Workload::CompileCold(_) => &["rtl.infer", "flow.run"],
            Workload::GoldenSweep(_) => &["batch"],
            Workload::RepeatMix(_) => &["brick.estimate", "dse.explore", "flow.run", "rtl.infer"],
        }
    }

    /// Measured request `i`.
    pub fn get(&self, i: usize) -> Req {
        match self {
            Workload::CompileCold(w) => w.get(i),
            Workload::GoldenSweep(w) => w.get(i),
            Workload::RepeatMix(w) => w.get(i),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lim::SramConfig;
    use lim_brick::{BitcellKind, BrickSpec};

    fn source(req: &Req) -> &str {
        req.params.get("source").and_then(Value::as_str).unwrap()
    }

    fn brick_words(req: &Req) -> Vec<usize> {
        req.params
            .get("brick_words")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|v| v.as_f64().unwrap() as usize)
            .collect()
    }

    /// Parses and infers a generated module: zero rejections, the
    /// expected memories, and a tiling brick depth for each.
    fn assert_inferable(req: &Req) {
        let Expect::Infer { module, mems } = &req.expect else {
            panic!("not an rtl.infer request");
        };
        let src = source(req);
        let parsed = lim_rtl::parse(src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        assert_eq!(&parsed.name, module);
        let inference = lim_rtl::infer::infer(&parsed);
        assert!(
            inference.rejected.is_empty(),
            "{:?}\n{src}",
            inference.rejected
        );
        assert_eq!(inference.memories.len(), mems.len(), "{src}");
        let bws = brick_words(req);
        for (m, &(words, lanes)) in inference.memories.iter().zip(mems) {
            assert_eq!(m.words, words);
            assert_eq!(m.lanes().len(), lanes, "{src}");
            assert!(bws.iter().any(|&bw| tiles(words, bw)), "{bws:?} vs {words}");
        }
    }

    fn assert_flow_accepted(req: &Req) {
        let p = |k: &str| req.params.get(k).and_then(Value::as_f64).unwrap() as usize;
        let config = SramConfig::new(p("words"), p("bits"), p("partitions"), p("brick_words"))
            .unwrap_or_else(|e| panic!("{e}: {:?}", req.params));
        assert!((1..=MAX_STACK).contains(&config.stack()));
        config.brick_spec().unwrap();
        assert_eq!(
            req.expect,
            Expect::Flow {
                name: config.design_name()
            }
        );
    }

    fn bitcell(name: &str) -> BitcellKind {
        BitcellKind::all()
            .into_iter()
            .find(|k| k.short_name() == name)
            .unwrap()
    }

    #[test]
    fn same_seed_same_requests_other_seed_other_requests() {
        for name in ["compile_cold", "golden_sweep", "repeat_mix"] {
            let a = Workload::new(name, 7).unwrap();
            let b = Workload::new(name, 7).unwrap();
            let c = Workload::new(name, 8).unwrap();
            let seq = |w: &Workload| (0..64).map(|i| w.get(i)).collect::<Vec<_>>();
            assert_eq!(seq(&a), seq(&b), "{name}");
            assert_ne!(seq(&a), seq(&c), "{name}");
        }
        assert!(Workload::new("nope", 1).is_none());
    }

    #[test]
    fn compile_cold_requests_are_inferable_unique_and_log_uniform() {
        for seed in [1, 2, 3] {
            let w = CompileCold::new(seed);
            let mut lines = std::collections::BTreeSet::new();
            let mut depth_counts = [0usize; 6];
            let mut lane_counts = [0usize; 4];
            let mut seconds = 0;
            for i in 0..128 {
                let req = w.get(i);
                assert!(lines.insert(req.line(0)), "duplicate request {i}");
                match req.method {
                    "rtl.infer" => {
                        assert_inferable(&req);
                        let Expect::Infer { mems, .. } = &req.expect else {
                            unreachable!()
                        };
                        depth_counts[mems[0].0.trailing_zeros() as usize - 5] += 1;
                        lane_counts[mems[0].1 - 1] += 1;
                        seconds += mems.len() - 1;
                    }
                    "flow.run" => {
                        assert_eq!(i % 4, 3);
                        assert_flow_accepted(&req);
                    }
                    other => panic!("unexpected method {other}"),
                }
            }
            // Four blocks of 24 modules: every depth 16 times, every
            // lane count 24 times, a second memory in a quarter.
            assert_eq!(depth_counts, [16; 6]);
            assert_eq!(lane_counts, [24; 4]);
            assert_eq!(seconds, 24);
        }
    }

    #[test]
    fn every_flow_configuration_is_accepted() {
        let space = flow_space();
        assert!(space.len() > 300, "{}", space.len());
        for c in space {
            assert_flow_accepted(&c.req(false));
        }
    }

    #[test]
    fn every_golden_configuration_is_accepted() {
        let space = golden_space();
        assert_eq!(space.len(), 1500);
        for c in &space {
            BrickSpec::new(bitcell(c.bitcell), c.words, c.bits).unwrap();
            assert!((1..=MAX_STACK).contains(&c.stack));
        }
        // Batches draw without replacement until the space runs out.
        let w = GoldenSweep::new(5);
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..space.len() / GOLDEN_BATCH {
            let req = w.get(i);
            for e in req
                .params
                .get("requests")
                .and_then(Value::as_array)
                .unwrap()
            {
                assert!(seen.insert(json::render(e)));
                assert!(e.get("params").unwrap().get("nocache").is_none());
            }
        }
        let wrapped = w.get(space.len() / GOLDEN_BATCH);
        assert!(json::render(&wrapped.params).contains("\"nocache\":true"));
    }

    #[test]
    fn repeat_mix_population_is_valid_distinct_and_fixed() {
        let a = RepeatMix::new(1);
        let b = RepeatMix::new(2);
        assert_eq!(a.population, b.population, "population ignores the seed");
        assert_eq!(a.population.len(), POPULATION);
        let count = |m: &str| a.population.iter().filter(|r| r.method == m).count();
        assert_eq!(count("brick.estimate"), 102);
        assert_eq!(count("dse.explore"), 51);
        assert_eq!(count("flow.run"), 51);
        assert_eq!(count("rtl.infer"), 52);
        let keys: std::collections::BTreeSet<u64> = a
            .population
            .iter()
            .map(|r| lim_serve::protocol::cache_key(r.method, &r.params))
            .collect();
        assert_eq!(keys.len(), POPULATION, "population members are distinct");
        let tech = lim_tech::Technology::cmos65();
        for req in &a.population {
            match req.method {
                "rtl.infer" => assert_inferable(req),
                "flow.run" => assert_flow_accepted(req),
                "brick.estimate" => {
                    let p = |k: &str| req.params.get(k).and_then(Value::as_f64).unwrap();
                    let cell = req.params.get("bitcell").and_then(Value::as_str).unwrap();
                    BrickSpec::new(bitcell(cell), p("words") as usize, p("bits") as usize).unwrap();
                }
                "dse.explore" => {
                    let mems: Vec<(usize, usize)> = req
                        .params
                        .get("memories")
                        .and_then(Value::as_array)
                        .unwrap()
                        .iter()
                        .map(|m| {
                            let m = m.as_array().unwrap();
                            (
                                m[0].as_f64().unwrap() as usize,
                                m[1].as_f64().unwrap() as usize,
                            )
                        })
                        .collect();
                    lim::dse::explore(&tech, &mems, &brick_words(req)).unwrap();
                }
                other => panic!("unexpected method {other}"),
            }
        }
    }

    #[test]
    fn zipf_picks_favour_low_ranks() {
        let w = RepeatMix::new(3);
        let mut hits = vec![0usize; POPULATION];
        for i in 0..20_000 {
            hits[w.pick(i)] += 1;
        }
        let top = hits[w.ranks[0]] as f64 / 20_000.0;
        // Zipf(1) over 256 ranks: the top rank draws 1/H(256) ≈ 16%.
        assert!((0.14..0.18).contains(&top), "{top}");
        assert!(hits[w.ranks[0]] > hits[w.ranks[1]]);
        assert!(hits[w.ranks[1]] > hits[w.ranks[10]]);
    }
}
