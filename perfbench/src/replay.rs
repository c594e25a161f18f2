//! The traced replay: a workload's seeded requests executed in-process
//! on one thread, calling each crate's public stage functions in the
//! order the service calls them, every call wrapped in a span owned by
//! this benchmark (request id, name, start, end, parent).
//!
//! The replay renders each reply the way the service does, so the
//! caller can require it to equal the served bytes exactly: that proves
//! the replay measures the same program the daemon runs. Spans never
//! come from inside the program; where one call covers two layers (the
//! golden batch compiles its bricks before solving), the inner layer is
//! timed by a twin call outside the request and recorded as a child.

use lim::rtl_infer::DEFAULT_BRICK_WORDS;
use lim::{dse, LimBlock, LimFlow, MemoryPlan, SramConfig};
use lim_brick::compiler::BrickCompiler;
use lim_brick::library::{entry_name, LibraryEntry};
use lim_brick::{golden, BankEstimate, BitcellKind, BrickSpec, SharedBrickLibrary};
use lim_obs::json::{self, Value};
use lim_obs::{SpanRow, Trace, TraceId};
use lim_physical::floorplan::Floorplan;
use lim_physical::power::MacroActivity;
use lim_physical::{clock, place, power, route, sta, BlockReport, FlowOptions};
use lim_rtl::mapping::optimize;
use lim_rtl::smartmem::{lower, MemLowering};
use lim_rtl::{verilog, CellKind, Netlist, SwitchingActivity};
use lim_serve::disk::LibKey;
use lim_serve::protocol::{cache_key, fnv1a, ok_line, Request};
use lim_serve::{DiskCache, ResponseCache};
use lim_tech::units::{Femtojoules, Picoseconds, SquareMicrons};
use lim_tech::Technology;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Memo budget of a default daemon.
const MEMO_BYTES: usize = 4 << 20;
/// Deepest brick stack `rtl.infer` considers.
const MAX_STACK: usize = 64;
/// Name of every request's root span.
pub const ROOT: &str = "request";

/// One recorded span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub request: u64,
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
}

/// Span recorder. When off, entering and leaving cost one branch, which
/// is what the twin replay without spans runs.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    request: u64,
    pub spans: Vec<SpanRec>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            request: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn enter(&mut self, name: &'static str) {
        if self.on {
            self.stack.push(self.spans.len());
            self.spans.push(SpanRec {
                request: self.request,
                name,
                start: self.epoch.elapsed(),
                end: Duration::ZERO,
                parent: None,
            });
            let me = self.spans.len() - 1;
            self.spans[me].parent = self.stack.iter().rev().nth(1).copied();
        }
    }

    fn exit(&mut self) {
        if self.on {
            let i = self.stack.pop().expect("span exit without enter");
            self.spans[i].end = self.epoch.elapsed();
        }
    }

    fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// A child of the open span whose duration was measured by a twin
    /// call outside the request.
    fn measured_child(&mut self, name: &'static str, d: Duration) {
        if self.on {
            let start = self.epoch.elapsed();
            self.spans.push(SpanRec {
                request: self.request,
                name,
                start,
                end: start + d,
                parent: self.stack.last().copied(),
            });
        }
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut own: Vec<Duration> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end - s.start);
            }
        }
        own
    }

    /// The spans as `lim-obs-v1` lines: a `meta` line, then one `trace`
    /// line per request with its spans in pre-order.
    pub fn obs_lines(&self, methods: &BTreeMap<u64, &'static str>) -> String {
        let mut out = String::from(
            "{\"type\":\"meta\",\"schema\":\"lim-obs-v1\",\"source\":\"perfbench\"}\n",
        );
        let mut depth = vec![0usize; self.spans.len()];
        let mut path = vec![String::new(); self.spans.len()];
        let mut traces: BTreeMap<u64, Trace> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            (depth[i], path[i]) = match s.parent {
                Some(p) => (depth[p] + 1, format!("{}/{}", path[p], s.name)),
                None => (0, s.name.to_owned()),
            };
            let trace = traces.entry(s.request).or_insert_with(|| Trace {
                id: TraceId(s.request + 1),
                method: methods.get(&s.request).copied().unwrap_or("").to_owned(),
                total: s.end - s.start,
                spans: Vec::new(),
            });
            trace.spans.push(SpanRow {
                path: path[i].clone(),
                name: s.name.to_owned(),
                depth: depth[i],
                calls: 1,
                total: s.end - s.start,
            });
        }
        for t in traces.values() {
            out.push_str(&lim_obs::trace_json_line(t));
            out.push('\n');
        }
        out
    }
}

/// Counts a replayed request reports beside its spans.
#[derive(Debug, Default, Clone)]
pub struct ReqFacts {
    pub method: &'static str,
    /// Root span time (or wall time of the untraced twin).
    pub total: Duration,
    pub gates: Option<usize>,
    pub emit_bytes: Option<usize>,
    /// `(place moves, analytic iterations, legalization µm)`.
    pub place: Option<(usize, usize, f64)>,
}

/// The service state one replay pass runs against: fresh per pass, so
/// every pass does the same work.
pub struct State {
    tech: Technology,
    library: SharedBrickLibrary,
    memo: ResponseCache,
    disk: DiskCache,
}

impl State {
    pub fn new(cache_dir: &Path) -> Result<State, String> {
        Ok(State {
            tech: Technology::cmos65(),
            library: SharedBrickLibrary::default(),
            memo: ResponseCache::new(MEMO_BYTES),
            disk: DiskCache::open(cache_dir).map_err(|e| format!("replay cache: {e}"))?,
        })
    }

    /// Replays one request line as request `id` and returns the result
    /// bytes the service would send.
    pub fn replay(
        &mut self,
        t: &mut Tracer,
        id: u64,
        line: &str,
        facts: &mut ReqFacts,
    ) -> Result<String, String> {
        t.request = id;
        // The golden batch's brick compile is timed by a twin call
        // before the request starts, so the request itself does exactly
        // the work the service does.
        let golden_compile = if t.on && line.contains("\"method\":\"batch\"") {
            Some(twin_compile(&self.tech, line)?)
        } else {
            None
        };
        let start = Instant::now();
        t.enter(ROOT);
        let rq = t
            .span("serve.decode", || Request::parse(line))
            .map_err(|e| e.to_string())?;
        let result = match rq.method.as_str() {
            "rtl.infer" | "flow.run" => self.compile(t, &rq, facts),
            "batch" => self.golden_batch(t, &rq, golden_compile.unwrap_or_default()),
            _ => self.cached(t, &rq),
        };
        if let Ok((r, cached)) = &result {
            t.span("serve.render", || {
                std::hint::black_box(ok_line(&rq.id, *cached, r))
            });
        }
        t.exit();
        facts.total = start.elapsed();
        result.map(|(r, _)| r)
    }

    /// Memo, then the disk tier (promoting a disk hit into the memo):
    /// the stored reply bytes on a hit.
    fn lookup(&mut self, t: &mut Tracer, key: u64) -> Option<String> {
        let memo = &mut self.memo;
        let hit = t.span("serve.memo_lookup", || {
            memo.contains(key);
            memo.get(key).map(str::to_owned)
        });
        if hit.is_some() {
            return hit;
        }
        let body = t.span("serve.disk_read", || self.disk.load_response(key))?;
        let memo = &mut self.memo;
        t.span("serve.cache_write", || memo.insert(key, body.clone()));
        Some(body)
    }

    fn store(&mut self, t: &mut Tracer, key: u64, method: &str, rendered: &str) {
        let (memo, disk) = (&mut self.memo, &self.disk);
        t.span("serve.cache_write", || {
            memo.insert(key, rendered.to_owned());
            disk.store_response(key, method, rendered);
        });
    }

    /// A memoizable request expected to hit (`repeat_mix`).
    fn cached(&mut self, t: &mut Tracer, rq: &Request) -> Result<(String, bool), String> {
        let key = cache_key(&rq.method, &rq.params);
        self.lookup(t, key)
            .map(|b| (b, true))
            .ok_or_else(|| format!("{} missed both cache tiers", rq.method))
    }

    /// `rtl.infer` and `flow.run`: memo miss, library checkout, the
    /// compile stages, library fold-back, render, cache write.
    fn compile(
        &mut self,
        t: &mut Tracer,
        rq: &Request,
        facts: &mut ReqFacts,
    ) -> Result<(String, bool), String> {
        let key = cache_key(&rq.method, &rq.params);
        if let Some(hit) = self.lookup(t, key) {
            return Ok((hit, true));
        }
        let library = &self.library;
        let tech = &self.tech;
        let mut flow = t.span("serve.library_sync", || {
            LimFlow::with_library(tech.clone(), library.snapshot())
        });
        let rendered_value = if rq.method == "rtl.infer" {
            let (value, block, verilog_len) = rtl_infer(t, &mut flow, &rq.params)?;
            facts.gates = Some(block.gate_count);
            facts.emit_bytes = Some(verilog_len);
            facts.place = Some(place_facts(&block.report));
            value
        } else {
            let block = flow_run(t, &mut flow, &rq.params)?;
            facts.place = Some(place_facts(&block.report));
            block_value(&block)
        };
        t.span("serve.library_sync", || {
            library.absorb(flow.into_library());
            persist_library(library, &self.disk);
        });
        let rendered = t.span("serve.render", || json::render(&rendered_value));
        self.store(t, key, &rq.method, &rendered);
        Ok((rendered, false))
    }

    /// A `batch` of `golden.compare` entries: per-entry memo probes, one
    /// panel solve for the misses, per-entry render and cache write.
    fn golden_batch(
        &mut self,
        t: &mut Tracer,
        rq: &Request,
        compile: Duration,
    ) -> Result<(String, bool), String> {
        let entries = golden_entries(&rq.params)?;
        let mut slots: Vec<Option<String>> = vec![None; entries.len()];
        let mut misses: Vec<(usize, BrickSpec, usize, u64)> = Vec::new();
        for (i, (params, spec, stack)) in entries.iter().enumerate() {
            let key = cache_key("golden.compare", params);
            match self.lookup(t, key) {
                Some(hit) => slots[i] = Some(entry_ok(true, &hit)),
                None => misses.push((i, *spec, *stack, key)),
            }
        }
        if !misses.is_empty() {
            let configs: Vec<(BrickSpec, usize)> = misses
                .iter()
                .map(|&(_, spec, stack, _)| (spec, stack))
                .collect();
            t.enter("golden.solve");
            t.measured_child("brick.compile", compile);
            let report = golden::compare_batch_results(&self.tech, &configs);
            t.exit();
            for ((i, spec, stack, key), res) in misses.into_iter().zip(report.results) {
                let cmp = res.map_err(|e| format!("golden entry {i}: {e}"))?;
                let rendered = t.span("serve.render", || render_golden(&spec, stack, &cmp));
                self.store(t, key, "golden.compare", &rendered);
                slots[i] = Some(t.span("serve.render", || entry_ok(false, &rendered)));
            }
        }
        let results: Vec<String> = slots.into_iter().map(Option::unwrap_or_default).collect();
        Ok((
            t.span("serve.render", || {
                format!("{{\"results\":[{}]}}", results.join(","))
            }),
            false,
        ))
    }
}

fn place_facts(r: &BlockReport) -> (usize, usize, f64) {
    (
        r.stats.place_moves,
        r.stats.place_analytic_iters,
        r.stats.place_legalize_displacement_um as f64,
    )
}

fn golden_entries(params: &Value) -> Result<Vec<(Value, BrickSpec, usize)>, String> {
    params
        .get("requests")
        .and_then(Value::as_array)
        .ok_or("batch without requests")?
        .iter()
        .map(|e| {
            let p = e
                .get("params")
                .cloned()
                .unwrap_or(Value::Object(Vec::new()));
            let cell = p.get("bitcell").and_then(Value::as_str).unwrap_or("8t");
            let bitcell = BitcellKind::all()
                .into_iter()
                .find(|k| k.short_name() == cell)
                .ok_or_else(|| format!("unknown bitcell {cell}"))?;
            let spec = BrickSpec::new(bitcell, usize_of(&p, "words")?, usize_of(&p, "bits")?)
                .map_err(|e| e.to_string())?;
            let stack = usize_of(&p, "stack")?;
            Ok((p, spec, stack))
        })
        .collect()
}

/// Compiles the distinct bricks of a golden batch, as the batch solve
/// does before it builds its circuits, and returns the time it took.
fn twin_compile(tech: &Technology, line: &str) -> Result<Duration, String> {
    let rq = Request::parse(line).map_err(|e| e.to_string())?;
    let mut specs: Vec<BrickSpec> = Vec::new();
    for (_, spec, _) in golden_entries(&rq.params)? {
        if !specs.contains(&spec) {
            specs.push(spec);
        }
    }
    let compiler = BrickCompiler::new(tech);
    let start = Instant::now();
    for spec in &specs {
        std::hint::black_box(compiler.compile(spec).map_err(|e| e.to_string())?);
    }
    Ok(start.elapsed())
}

fn usize_of(params: &Value, key: &str) -> Result<usize, String> {
    params
        .get(key)
        .and_then(Value::as_f64)
        .map(|x| x as usize)
        .ok_or_else(|| format!("missing {key}"))
}

/// `LimFlow::synthesize` on an already generated netlist: map, then
/// the physical stages one call each.
fn synthesize(
    t: &mut Tracer,
    flow: &LimFlow,
    netlist: &Netlist,
    options: &FlowOptions,
) -> Result<LimBlock, String> {
    let (mapped, _) = t
        .span("rtl.map", || optimize(netlist))
        .map_err(|e| e.to_string())?;
    let report = physical(t, flow, &mapped, options).map_err(|e| e.to_string())?;
    let macro_count = mapped
        .cells()
        .iter()
        .filter(|c| matches!(c.kind, CellKind::Macro { .. }))
        .count();
    Ok(LimBlock {
        name: mapped.name().to_owned(),
        gate_count: mapped.cell_count() - macro_count,
        macro_count,
        report,
    })
}

/// `PhysicalSynthesis::run`, stage by stage.
fn physical(
    t: &mut Tracer,
    flow: &LimFlow,
    netlist: &Netlist,
    options: &FlowOptions,
) -> Result<BlockReport, lim_physical::PhysicalError> {
    let (tech, library) = (flow.technology(), flow.library());
    let mut stats = lim_physical::FlowStats::default();
    let fp = t.span("physical.floorplan", || {
        Floorplan::build(tech, netlist, library, &options.floorplan)
    })?;
    let placement = t.span("physical.place", || {
        place::place(tech, netlist, &fp, options.seed, options.effort)
    })?;
    stats.place_moves = placement.moves;
    stats.place_accepted = placement.accepted;
    stats.place_starts = placement.starts;
    stats.place_seeded = placement.seeded;
    stats.place_analytic_iters = placement.analytic_iters;
    stats.place_legalize_displacement_um = placement.legalize_displacement.round() as u64;
    let routes = t.span("physical.route", || {
        route::estimate(tech, netlist, &placement, &fp, library)
    })?;
    stats.nets_routed = routes.len();
    let timing = t.span("physical.sta", || {
        sta::analyze(tech, netlist, &routes, library, options.input_slew)
    })?;
    stats.sta_endpoints = timing.endpoints;
    let clock_tree = t.span("physical.clock_tree", || {
        clock::build(tech, netlist, &placement, &fp, library)
    })?;
    let clock_cap = clock_tree.as_ref().map(|ct| {
        let fallback = netlist
            .clock()
            .map(|c| routes[c.index()])
            .unwrap_or(routes[0]);
        clock::clock_cap_for_power(ct, &fallback)
    });
    let activity = options.activity.clone().unwrap_or_else(|| {
        SwitchingActivity::uniform(netlist.net_count(), options.default_toggle_rate, 100)
    });
    let power = t.span("physical.power", || {
        power::analyze(
            tech,
            netlist,
            &routes,
            &activity,
            library,
            timing.fmax,
            &options.macro_activity,
            clock_cap,
        )
    })?;
    Ok(BlockReport {
        name: netlist.name().to_owned(),
        fmax: timing.fmax,
        min_period: timing.min_period,
        die_area: fp.die_area(),
        macro_area: fp.macro_area(),
        stdcell_area: netlist.stdcell_area(tech),
        guard_area: fp.guard_area,
        wirelength: route::total_wirelength(&routes),
        energy_per_cycle: power.energy_per_cycle,
        power,
        timing,
        clock_tree,
        stats,
    })
}

/// `flow.run`: SRAM generation, then synthesis with bank-gated macro
/// activity.
fn flow_run(t: &mut Tracer, flow: &mut LimFlow, params: &Value) -> Result<LimBlock, String> {
    let config = SramConfig::new(
        usize_of(params, "words")?,
        usize_of(params, "bits")?,
        usize_of(params, "partitions")?,
        usize_of(params, "brick_words")?,
    )
    .map_err(|e| e.to_string())?;
    let tech = flow.technology().clone();
    let netlist = t
        .span("core.generate", || {
            lim::sram::generate(&tech, &config, flow.library_mut())
        })
        .map_err(|e| e.to_string())?;
    let mut options = flow.options.clone();
    options.macro_activity = MacroActivity {
        read_rate: 1.0 / config.partitions() as f64,
        write_rate: 0.0,
        match_rate: 0.0,
    };
    synthesize(t, flow, &netlist, &options)
}

/// `rtl.infer`: parse, infer, per-memory DSE and library registration,
/// lower, emit, synthesize. Returns the reply value, the block and the
/// emitted Verilog length.
fn rtl_infer(
    t: &mut Tracer,
    flow: &mut LimFlow,
    params: &Value,
) -> Result<(Value, LimBlock, usize), String> {
    let source = params
        .get("source")
        .and_then(Value::as_str)
        .ok_or("no source")?;
    let options: Vec<usize> = match params.get("brick_words").and_then(Value::as_array) {
        Some(items) => items
            .iter()
            .filter_map(Value::as_f64)
            .map(|x| x as usize)
            .collect(),
        None => Vec::new(),
    };
    let options = if options.is_empty() {
        DEFAULT_BRICK_WORDS.to_vec()
    } else {
        options
    };
    let module = t
        .span("rtl.parse", || lim_rtl::parse(source))
        .map_err(|e| format!("parse error at {e}"))?;
    let inference = t.span("rtl.infer", || lim_rtl::infer::infer(&module));
    if !inference.rejected.is_empty() || inference.memories.is_empty() {
        return Err(format!("not inferable: {:?}", inference.rejected));
    }
    let mut lowering: BTreeMap<String, MemLowering> = BTreeMap::new();
    let mut plans = Vec::with_capacity(inference.memories.len());
    for mem in &inference.memories {
        let plan = t.span("core.dse", || {
            choose_decomposition(flow.technology(), mem, &options)
        })?;
        let tech = flow.technology().clone();
        let library = flow.library_mut();
        t.span("core.lib_register", || {
            plan.lane_bits.iter().try_for_each(|&w| {
                let spec = BrickSpec::new(BitcellKind::Sram8T, plan.brick_words, w)?;
                library.get_or_insert(&tech, &spec, plan.stack).map(drop)
            })
        })
        .map_err(|e| e.to_string())?;
        lowering.insert(
            mem.name.clone(),
            MemLowering {
                brick_words: plan.brick_words,
                entry_names: plan.entry_names.clone(),
            },
        );
        plans.push(plan);
    }
    let netlist = t
        .span("rtl.lower", || lower(&module, &inference, &lowering))
        .map_err(|e| e.to_string())?;
    let structural = t.span("rtl.emit", || verilog::emit(&netlist));
    let mut options = flow.options.clone();
    options.macro_activity = MacroActivity {
        read_rate: 1.0,
        write_rate: 0.0,
        match_rate: 0.0,
    };
    let block = synthesize(t, flow, &netlist, &options)?;
    let emitted = structural.len();
    let value = obj(vec![
        ("module", Value::String(module.name.clone())),
        ("parse_lines", num(module.source_lines as f64)),
        (
            "memories",
            Value::Array(plans.iter().map(memory_plan_value).collect()),
        ),
        ("report", block_value(&block)),
        ("verilog", Value::String(structural)),
    ]);
    Ok((value, block, emitted))
}

/// The service's brick-depth choice for one memory: every candidate
/// that tiles it is swept through the analytic DSE and the
/// delay·energy·area minimum wins (ties to the shallower brick).
fn choose_decomposition(
    tech: &Technology,
    mem: &lim_rtl::InferredMemory,
    brick_options: &[usize],
) -> Result<MemoryPlan, String> {
    let lane_bits: Vec<usize> = mem.lanes().iter().map(|l| l.width()).collect();
    let widest = *lane_bits.iter().max().ok_or("memory without lanes")?;
    let candidates: Vec<usize> = brick_options
        .iter()
        .copied()
        .filter(|&bw| {
            bw > 0
                && mem.words.is_multiple_of(bw)
                && (1..=MAX_STACK).contains(&(mem.words / bw))
                && BrickSpec::new(BitcellKind::Sram8T, bw, widest).is_ok()
        })
        .collect();
    if candidates.is_empty() {
        return Err(format!("no brick depth tiles memory `{}`", mem.name));
    }
    let mut widths = lane_bits.clone();
    widths.sort_unstable();
    widths.dedup();
    let memories: Vec<(usize, usize)> = widths.iter().map(|&w| (mem.words, w)).collect();
    let points = dse::explore(tech, &memories, &candidates).map_err(|e| e.to_string())?;
    let point = |bw: usize, bits: usize| {
        points
            .iter()
            .find(|p| p.brick_words == bw && p.bits == bits)
            .expect("sweep covers the (bw, width) grid")
    };
    let figures = |bw: usize| {
        let delay = lane_bits
            .iter()
            .map(|&w| point(bw, w).delay.value())
            .fold(0.0f64, f64::max);
        let energy: f64 = lane_bits.iter().map(|&w| point(bw, w).energy.value()).sum();
        let area: f64 = lane_bits.iter().map(|&w| point(bw, w).area.value()).sum();
        (delay, energy, area)
    };
    let mut best: Option<(f64, usize)> = None;
    for &bw in &candidates {
        let (d, e, a) = figures(bw);
        if best.is_none_or(|(s, _)| d * e * a < s) {
            best = Some((d * e * a, bw));
        }
    }
    let (_, brick_words) = best.expect("candidates is non-empty");
    let stack = mem.words / brick_words;
    let entry_names = lane_bits
        .iter()
        .map(|&w| {
            BrickSpec::new(BitcellKind::Sram8T, brick_words, w)
                .map(|s| format!("{}_x{stack}", s.instance_name()))
                .map_err(|e| e.to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    let (delay, energy, area) = figures(brick_words);
    Ok(MemoryPlan {
        name: mem.name.clone(),
        words: mem.words,
        bits: mem.bits,
        lane_bits,
        brick_words,
        stack,
        entry_names,
        delay: Picoseconds::new(delay),
        energy: Femtojoules::new(energy),
        area: SquareMicrons::new(area),
        candidates: candidates.len(),
    })
}

/// Records every library entry's key in the persistent tier, as the
/// service does after each compile.
fn persist_library(library: &SharedBrickLibrary, disk: &DiskCache) {
    let mut entries: Vec<(BrickSpec, usize, BankEstimate)> = Vec::new();
    library.for_each_entry(|e: &LibraryEntry| {
        entries.push((*e.brick.spec(), e.stack, e.estimate.clone()));
    });
    for (spec, stack, estimate) in entries {
        disk.store_lib_key(
            &entry_name(&spec, stack),
            &LibKey {
                bitcell: spec.bitcell().short_name().into(),
                words: spec.words(),
                bits: spec.bits(),
                stack,
                fingerprint: fnv1a(
                    json::render(&estimate_value(&spec, stack, &estimate)).as_bytes(),
                ),
            },
        );
    }
}

// The renderers below reproduce the service's reply layout member for
// member; the byte-for-byte comparison with served replies pins them.

fn obj(members: Vec<(&str, Value)>) -> Value {
    Value::Object(
        members
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

fn num(x: f64) -> Value {
    Value::Number(x)
}

fn entry_ok(cached: bool, rendered: &str) -> String {
    format!("{{\"ok\":true,\"cached\":{cached},\"result\":{rendered}}}")
}

fn block_value(block: &LimBlock) -> Value {
    let r = &block.report;
    obj(vec![
        ("name", Value::String(block.name.clone())),
        ("gate_count", num(block.gate_count as f64)),
        ("macro_count", num(block.macro_count as f64)),
        ("fmax_mhz", num(r.fmax.value())),
        ("min_period_ps", num(r.min_period.value())),
        ("die_area_um2", num(r.die_area.value())),
        ("macro_area_um2", num(r.macro_area.value())),
        ("stdcell_area_um2", num(r.stdcell_area.value())),
        ("wirelength_um", num(r.wirelength.value())),
        (
            "power_mw",
            obj(vec![
                ("logic", num(r.power.logic_dynamic.value())),
                ("clock", num(r.power.clock.value())),
                ("macros", num(r.power.macros.value())),
                ("leakage", num(r.power.leakage.value())),
                ("total", num(r.power.total().value())),
            ]),
        ),
        ("energy_per_cycle_fj", num(r.energy_per_cycle.value())),
    ])
}

fn memory_plan_value(m: &MemoryPlan) -> Value {
    obj(vec![
        ("name", Value::String(m.name.clone())),
        ("words", num(m.words as f64)),
        ("bits", num(m.bits as f64)),
        (
            "lanes",
            Value::Array(m.lane_bits.iter().map(|&w| num(w as f64)).collect()),
        ),
        ("brick_words", num(m.brick_words as f64)),
        ("stack", num(m.stack as f64)),
        (
            "entries",
            Value::Array(
                m.entry_names
                    .iter()
                    .map(|e| Value::String(e.clone()))
                    .collect(),
            ),
        ),
        ("candidates", num(m.candidates as f64)),
        ("delay_ps", num(m.delay.value())),
        ("energy_fj", num(m.energy.value())),
        ("area_um2", num(m.area.value())),
    ])
}

fn render_golden(spec: &BrickSpec, stack: usize, cmp: &golden::ToolVsGolden) -> String {
    let bank = |rd: f64, re: f64, wd: f64, we: f64| {
        obj(vec![
            ("read_delay_ps", num(rd)),
            ("read_energy_fj", num(re)),
            ("write_delay_ps", num(wd)),
            ("write_energy_fj", num(we)),
        ])
    };
    json::render(&obj(vec![
        ("spec", Value::String(spec.to_string())),
        ("stack", num(stack as f64)),
        (
            "tool",
            bank(
                cmp.tool.read_delay.value(),
                cmp.tool.read_energy.value(),
                cmp.tool.write_delay.value(),
                cmp.tool.write_energy.value(),
            ),
        ),
        (
            "golden",
            bank(
                cmp.golden.read_delay.value(),
                cmp.golden.read_energy.value(),
                cmp.golden.write_delay.value(),
                cmp.golden.write_energy.value(),
            ),
        ),
        (
            "error",
            obj(vec![
                ("delay", num(cmp.delay_error())),
                ("read_energy", num(cmp.read_energy_error())),
                ("write_energy", num(cmp.write_energy_error())),
            ]),
        ),
    ]))
}

fn estimate_value(spec: &BrickSpec, stack: usize, est: &BankEstimate) -> Value {
    let mut members = vec![
        ("bitcell", Value::String(spec.bitcell().short_name().into())),
        ("words", num(spec.words() as f64)),
        ("bits", num(spec.bits() as f64)),
        ("stack", num(stack as f64)),
        ("name", Value::String(entry_name(spec, stack))),
        ("read_delay_ps", num(est.read_delay.value())),
        ("write_delay_ps", num(est.write_delay.value())),
        ("setup_ps", num(est.setup.value())),
        ("hold_ps", num(est.hold.value())),
        ("min_cycle_ps", num(est.min_cycle().value())),
        ("fmax_mhz", num(est.max_frequency().value())),
        ("read_energy_fj", num(est.read_energy.value())),
        ("write_energy_fj", num(est.write_energy.value())),
        ("area_um2", num(est.area.value())),
        ("leakage_mw", num(est.leakage.value())),
    ];
    if let Some(d) = est.match_delay {
        members.push(("match_delay_ps", num(d.value())));
    }
    if let Some(e) = est.match_energy {
        members.push(("match_energy_fj", num(e.value())));
    }
    obj(members)
}
