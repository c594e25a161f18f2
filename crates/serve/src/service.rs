//! Transport-independent request execution: the method handlers, the
//! shared warm [`SharedBrickLibrary`], the content-addressed response
//! memo, per-endpoint latency accounting, and obs span adoption.
//!
//! A memoizable reply is the one thing the service persists: with a
//! cache dir, each one computed is queued as a response entry for the
//! disk tier ([`crate::disk`]) under the memo. The brick library lives
//! in memory only and fills as cold requests compile, in a restarted
//! service as in a fresh one.
//!
//! Every telemetry name comes from the code. A call's method is looked
//! up in the method table once, as the call enters; the row it finds
//! (or none) is passed down to the memo key, dispatch, trace retention
//! and the endpoint record. Latency is kept in one slot per table row
//! plus one `unknown` slot for every other method, and in one histogram
//! per fixed compile stage; the dispatch span and the retained trace
//! take the row's name, or `unknown`. Request span trees fold into one
//! service-wide [`Collector`], the same aggregate each thread collects
//! into. So a client that invents method names costs a 404 each and no
//! memory.
//!
//! A [`Service`] is what both the TCP server and in-process callers
//! (tests, benches) talk to, which is how the smoke test can assert
//! that a response that crossed the wire is byte-identical to a direct
//! library call: both sides are the same [`Service::call`]. `Shard`,
//! after the `Service` impl, is how a shard's event loop serves it.
//!
//! A request is resolved once, as it enters: one `Call` value holds its
//! table row, its memo key and its trace id, and the same value decides
//! whether the event thread answers it, then answers it there or on a
//! worker. [`Service::call`] resolves its call the same way.

use crate::cache::ResponseCache;
use crate::disk::{DiskCache, PendingWrite};
use crate::gate::Gate;
use crate::protocol::{
    cache_key, error_line, ok_line, ok_line_traced, Request, ServeError, PROTOCOL,
};
use crate::server::{Answer, Backend, ServerShared};
use lim::dse::{self, DsePoint};
use lim::{LimBlock, LimError, LimFlow, MemoryPlan, SramConfig};
use lim_brick::compiler::MAX_STACK;
use lim_brick::{golden, BankEstimate, BitcellKind, BrickError, BrickSpec, SharedBrickLibrary};
use lim_obs::json::{self, Value};
use lim_obs::trace::{trace_json_line, Trace, TraceBuffer, TraceId, TraceScope};
use lim_obs::{hist_json_line, window_json_line, Collector, Histogram, Report, RollingWindow};
use lim_tech::Technology;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Traces retained per set (N most recent + N slowest).
const TRACE_RETAIN: usize = 16;

/// Most entries one `batch` request may carry.
pub(crate) const MAX_BATCH: usize = 1024;

type Handler = fn(&Service, &Value, &mut Vec<PendingWrite>) -> Result<String, ServeError>;

/// One served method: its handler and how the service treats it.
struct Method {
    name: &'static str,
    handler: Handler,
    /// Deterministic: answered from the response memo and persisted to
    /// the disk tier, unless the params carry `"nocache":true`.
    memo: bool,
    /// Cheap enough to run on the event thread even on a memo miss.
    inline: bool,
    /// Retained in `server.trace`; introspection methods are not, so a
    /// monitoring poller cannot evict the traces it came to read.
    traced: bool,
}

/// Every method the service answers; anything else is a 404.
static METHODS: &[Method] = &[
    Method {
        name: "server.ping",
        handler: |_, _, _| {
            Ok(format!(
                "{{\"pong\":true,\"protocol\":{}}}",
                json::string(PROTOCOL)
            ))
        },
        memo: false,
        inline: true,
        traced: true,
    },
    Method {
        name: "brick.estimate",
        handler: |svc, params, _| svc.brick_estimate(params),
        memo: true,
        inline: true,
        traced: true,
    },
    Method {
        name: "golden.compare",
        handler: |svc, params, _| svc.golden_batch(&[svc.spec_of(params)?]).remove(0),
        memo: true,
        inline: false,
        traced: true,
    },
    Method {
        name: "flow.run",
        handler: |svc, params, _| svc.flow_run(params),
        memo: true,
        inline: false,
        traced: true,
    },
    Method {
        name: "dse.explore",
        handler: |svc, params, _| svc.dse_explore(params),
        memo: true,
        inline: false,
        traced: true,
    },
    Method {
        name: "rtl.infer",
        handler: |svc, params, _| svc.rtl_infer(params),
        memo: true,
        inline: false,
        traced: true,
    },
    Method {
        name: "batch",
        handler: Service::batch,
        memo: false,
        inline: false,
        traced: true,
    },
    Method {
        name: "server.trace",
        handler: |svc, params, _| svc.server_trace(params),
        memo: false,
        inline: false,
        traced: false,
    },
    Method {
        name: "server.telemetry",
        handler: |svc, _, _| Ok(svc.telemetry_report()),
        memo: false,
        inline: false,
        traced: false,
    },
    Method {
        name: "debug.sleep",
        handler: |_, params, _| debug_sleep(params),
        memo: false,
        inline: false,
        traced: true,
    },
];

/// The label of every method outside [`METHODS`] in endpoint
/// telemetry, spans and traces.
const UNKNOWN: &str = "unknown";

/// A method resolved against [`METHODS`]: its row's index, or
/// `METHODS.len()` for any other name. It is also the method's slot in
/// [`Service`]'s endpoint telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Endpoint(usize);

impl Endpoint {
    fn of(method: &str) -> Endpoint {
        Endpoint(
            METHODS
                .iter()
                .position(|m| m.name == method)
                .unwrap_or(METHODS.len()),
        )
    }

    fn row(self) -> Option<&'static Method> {
        METHODS.get(self.0)
    }

    /// The row's name, or [`UNKNOWN`].
    fn name(self) -> &'static str {
        self.row().map_or(UNKNOWN, |m| m.name)
    }
}

/// The response-memo key of a request the memo may answer: a `memo`
/// method without `"nocache":true`.
fn memo_key(endpoint: Endpoint, params: &Value) -> Option<u64> {
    let m = endpoint.row().filter(|m| m.memo)?;
    (params.get("nocache") != Some(&Value::Bool(true))).then(|| cache_key(m.name, params))
}

/// A request resolved once, as it enters: its table row, its memo key
/// when the memo may answer it, and its trace id (the client's, or one
/// minted here).
#[derive(Debug, Clone, Copy)]
struct Call {
    endpoint: Endpoint,
    key: Option<u64>,
    trace: TraceId,
}

impl Call {
    fn of(method: &str, params: &Value, trace: Option<TraceId>) -> Call {
        let endpoint = Endpoint::of(method);
        Call {
            endpoint,
            key: memo_key(endpoint, params),
            trace: trace.unwrap_or_else(TraceId::mint),
        }
    }
}

/// The compile stages whose latency `server.stats` reports.
const STAGES: [&str; 9] = [
    "flow.clock_tree",
    "flow.floorplan",
    "flow.place",
    "flow.power",
    "flow.route",
    "flow.sta",
    "rtl.infer",
    "rtl.lower",
    "rtl.parse",
];

/// The errors of each computed `golden.compare`, in parts per million,
/// that `server.stats` reports under `golden`: `|delay_error|`,
/// `|read_energy_error|` and `|write_energy_error|`.
const GOLDEN_ERRORS: [&str; 3] = [
    "delay_error_ppm",
    "read_energy_error_ppm",
    "write_energy_error_ppm",
];

/// Tuning knobs shared by the service and the server front end.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Maximum concurrently executing requests; excess is shed with a
    /// 429-style error.
    pub max_in_flight: usize,
    /// Byte budget of the response memo.
    pub cache_bytes: usize,
    /// Root of the persistent compile cache; `None` disables disk
    /// persistence entirely.
    pub disk_dir: Option<PathBuf>,
    /// Close connections idle longer than this; `None` keeps them
    /// forever (clients are expected to hold connections open).
    pub idle_timeout: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            // Twice the worker pool: enough to keep the pool fed while
            // requests park briefly on the library lock.
            max_in_flight: lim_par::threads().saturating_mul(2).clamp(2, 64),
            cache_bytes: 4 << 20,
            disk_dir: None,
            idle_timeout: None,
        }
    }
}

/// Latency telemetry for one endpoint: the rolling 1 m / 5 m windows
/// with the lifetime histogram inside them, and an error counter.
#[derive(Debug, Default)]
struct EndpointTelemetry {
    errors: AtomicU64,
    window: RollingWindow,
}

impl EndpointTelemetry {
    fn record(&self, d: Duration, error: bool) {
        self.window.record(d);
        if error {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Outcome of one [`Service::call`]: the rendered result (or error) and
/// whether it was served from the response memo.
#[derive(Debug)]
pub struct CallOutcome {
    /// Rendered result JSON on success.
    pub result: Result<String, ServeError>,
    /// True when the response came out of the memo.
    pub cached: bool,
    /// The request's trace id (client-provided or server-minted).
    pub trace: TraceId,
}

/// The resident synthesis service.
#[derive(Debug)]
pub struct Service {
    tech: Technology,
    library: SharedBrickLibrary,
    cache: Mutex<ResponseCache>,
    /// Persistent tier under the memo; `None` when no cache dir is set.
    disk: Option<Arc<DiskCache>>,
    /// One slot per [`METHODS`] row plus the `unknown` slot, indexed
    /// by [`Endpoint`], each made on its endpoint's first request.
    endpoints: Box<[OnceLock<EndpointTelemetry>]>,
    /// Lifetime latency per [`STAGES`] entry, fed from each compile's
    /// own stage timings.
    stages: [Mutex<Histogram>; STAGES.len()],
    traces: TraceBuffer,
    obs: Mutex<Collector>,
    requests: AtomicU64,
    golden_batches: AtomicU64,
    golden_sims: AtomicU64,
    golden_groups: AtomicU64,
    /// One histogram per [`GOLDEN_ERRORS`] entry.
    golden_errors: Mutex<[Histogram; GOLDEN_ERRORS.len()]>,
}

impl Service {
    /// A service over the 65 nm-class technology.
    pub fn new(config: &ServeConfig) -> Self {
        Self::with_technology(Technology::cmos65(), config)
    }

    /// A service over an explicit technology.
    pub fn with_technology(tech: Technology, config: &ServeConfig) -> Self {
        // A cache dir that cannot be opened degrades to no persistence
        // rather than refusing to serve: disk is an accelerator tier,
        // never a correctness dependency.
        let disk = config.disk_dir.as_deref().and_then(|dir| {
            DiskCache::open(dir)
                .map_err(|e| eprintln!("lim-serve: disabling disk cache at {dir:?}: {e}"))
                .ok()
                .map(Arc::new)
        });
        Service {
            tech,
            library: SharedBrickLibrary::default(),
            cache: Mutex::new(ResponseCache::new(config.cache_bytes)),
            disk,
            endpoints: (0..=METHODS.len()).map(|_| OnceLock::new()).collect(),
            stages: std::array::from_fn(|_| Mutex::new(Histogram::new())),
            traces: TraceBuffer::new(TRACE_RETAIN),
            obs: Mutex::new(Collector::default()),
            requests: AtomicU64::new(0),
            golden_batches: AtomicU64::new(0),
            golden_sims: AtomicU64::new(0),
            golden_groups: AtomicU64::new(0),
            golden_errors: Mutex::new(std::array::from_fn(|_| Histogram::new())),
        }
    }

    /// The shared warm brick library behind all endpoints.
    pub fn library(&self) -> &SharedBrickLibrary {
        &self.library
    }

    /// Total calls accepted (including memo hits and failed handlers).
    pub fn request_count(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// [`Service::call_traced`] with a server-minted trace id.
    pub fn call(&self, method: &str, params: &Value) -> CallOutcome {
        self.call_traced(method, params, None)
    }

    /// Executes one request: memo lookup, handler dispatch, per-endpoint
    /// latency accounting, and — when obs collection is enabled — folds
    /// the calling thread's span/counter state into the service-wide
    /// report, retains the request's span tree as a trace, and clears
    /// the thread's collector. Every disk entry the request produced is
    /// published before this returns.
    ///
    /// The trace id (client-provided via `trace`, or minted here) is the
    /// thread's active id for the whole request, so `lim-par` workers
    /// inherit it across `batch` fan-out.
    pub fn call_traced(
        &self,
        method: &str,
        params: &Value,
        trace: Option<TraceId>,
    ) -> CallOutcome {
        let call = Call::of(method, params, trace);
        let mut writes = Vec::new();
        let (result, cached) = self.call_deferred(call, None, method, params, &mut writes);
        self.publish(writes);
        CallOutcome {
            result: result.map(Arc::unwrap_or_clone),
            cached,
            trace: call.trace,
        }
    }

    /// [`Service::call_traced`] of a resolved call, minus the disk
    /// writes: the entries the request produced go to `writes`
    /// rendered, in the order it produced them, so a server can send
    /// the reply before it [`publish`](Service::publish)es them. The
    /// memo is already updated, and the result still shares its buffer
    /// with it. `resident` is the memo entry the caller already took for
    /// this call ([`Shard::place`]), answered without a second lookup.
    fn call_deferred(
        &self,
        call: Call,
        resident: Option<Arc<String>>,
        method: &str,
        params: &Value,
        writes: &mut Vec<PendingWrite>,
    ) -> (Result<Arc<String>, ServeError>, bool) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let endpoint = call.endpoint;
        let sw = lim_obs::Stopwatch::start();
        let (result, cached) = {
            let _trace = TraceScope::enter(call.trace);
            let _rq = lim_obs::Span::enter("serve.request");
            lim_obs::counter_add("serve.requests", 1);
            self.call_cached(endpoint, call.key, resident, method, params, writes)
        };
        let elapsed = sw.elapsed();
        if lim_obs::enabled() {
            let thread_report = Report::capture();
            if endpoint.row().is_none_or(|m| m.traced) {
                self.traces.push(Trace::from_report(
                    call.trace,
                    endpoint.name(),
                    elapsed,
                    &thread_report,
                ));
            }
            self.obs
                .lock()
                .expect("obs report lock poisoned")
                .absorb(&thread_report);
            lim_obs::reset();
        }
        self.record_endpoint(endpoint, elapsed, result.is_err());
        (result, cached)
    }

    /// Memo layer: a request with a memo `key` ([`memo_key`]) is served
    /// from the response cache (`resident`, when the caller already
    /// took its entry); one without runs its handler. Disk entries go
    /// to `writes`.
    fn call_cached(
        &self,
        endpoint: Endpoint,
        key: Option<u64>,
        resident: Option<Arc<String>>,
        method: &str,
        params: &Value,
        writes: &mut Vec<PendingWrite>,
    ) -> (Result<Arc<String>, ServeError>, bool) {
        if let Some(hit) = key.and_then(|key| self.memo_lookup(key, resident)) {
            return (Ok(hit), true);
        }
        let result = self
            .dispatch(endpoint, method, params, writes)
            .map(Arc::new);
        if let (Some(key), Ok(rendered)) = (key, &result) {
            self.memo_store(key, endpoint.name(), rendered, writes);
        }
        (result, false)
    }

    /// Looks `key` up in the memo, then in the persistent tier, and
    /// counts the hit or miss. A disk hit is promoted into the memo and
    /// served as `cached` — byte-identical to a cold compile because
    /// the stored bytes *are* a cold compile's rendering. Neither tier
    /// copies the body: the memo shares it, and the disk tier reads it
    /// straight into the buffer the memo then shares. A `resident`
    /// entry, taken from the memo by the caller's own lookup, is the
    /// hit: the memo is not searched again, so an eviction since then
    /// cannot turn it into a disk read or a handler run.
    fn memo_lookup(&self, key: u64, resident: Option<Arc<String>>) -> Option<Arc<String>> {
        let _span = lim_obs::Span::enter("serve.memo_lookup");
        let hit = {
            let mut cache = self.cache.lock().expect("response cache lock poisoned");
            match resident {
                Some(hit) => {
                    cache.count_hit();
                    Some(hit)
                }
                None => cache.get_shared(key),
            }
        };
        if hit.is_some() {
            lim_obs::counter_add("serve.cache_hits", 1);
            return hit;
        }
        let body = self.disk.as_ref().and_then(|disk| {
            let _span = lim_obs::Span::enter("serve.disk_read");
            disk.load_response(key)
        });
        let Some(body) = body else {
            lim_obs::counter_add("serve.cache_misses", 1);
            return None;
        };
        lim_obs::counter_add("serve.disk_hits", 1);
        let body = Arc::new(body);
        self.cache
            .lock()
            .expect("response cache lock poisoned")
            .insert_shared(key, Arc::clone(&body));
        Some(body)
    }

    /// Memoizes a freshly computed reply and queues its disk entry.
    fn memo_store(
        &self,
        key: u64,
        method: &'static str,
        rendered: &Arc<String>,
        writes: &mut Vec<PendingWrite>,
    ) {
        self.cache
            .lock()
            .expect("response cache lock poisoned")
            .insert_shared(key, Arc::clone(rendered));
        if self.disk.is_some() {
            writes.push(PendingWrite::new(key, method, rendered));
        }
    }

    /// Runs the row's handler under a span named for the row; `method`
    /// is only quoted back in the 404 of a method the table lacks.
    fn dispatch(
        &self,
        endpoint: Endpoint,
        method: &str,
        params: &Value,
        writes: &mut Vec<PendingWrite>,
    ) -> Result<String, ServeError> {
        let _span = lim_obs::Span::enter(endpoint.name());
        match endpoint.row() {
            Some(m) => (m.handler)(self, params, writes),
            None => Err(ServeError::unknown_method(method)),
        }
    }

    fn record_endpoint(&self, endpoint: Endpoint, d: Duration, error: bool) {
        self.endpoints[endpoint.0]
            .get_or_init(EndpointTelemetry::default)
            .record(d, error);
    }

    fn record_stage(&self, stage: &str, d: Duration) {
        let i = STAGES
            .iter()
            .position(|&s| s == stage)
            .expect("every recorded stage is listed in STAGES");
        self.stages[i]
            .lock()
            .expect("stage histogram lock poisoned")
            .record(d);
    }

    /// The endpoint slots that have seen a request, in name order.
    fn endpoint_slots(&self) -> Vec<(&'static str, &EndpointTelemetry)> {
        let mut slots: Vec<_> = self
            .endpoints
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.get().map(|t| (Endpoint(i).name(), t)))
            .collect();
        slots.sort_unstable_by_key(|&(name, _)| name);
        slots
    }

    /// Snapshots of the stage histograms that have seen a sample, in
    /// name order.
    fn stage_slots(&self) -> Vec<(&'static str, Histogram)> {
        let mut slots: Vec<_> = STAGES
            .iter()
            .zip(&self.stages)
            .map(|(&name, h)| {
                let h = h.lock().expect("stage histogram lock poisoned");
                (name, h.clone())
            })
            .filter(|(_, h)| h.count() > 0)
            .collect();
        slots.sort_unstable_by_key(|&(name, _)| name);
        slots
    }

    fn spec_of(&self, params: &Value) -> Result<(BrickSpec, usize), ServeError> {
        let bitcell = bitcell_param(params)?;
        let words = req_usize(params, "words")?;
        let bits = req_usize(params, "bits")?;
        let stack = opt_usize(params, "stack")?.unwrap_or(1);
        if !(1..=MAX_STACK).contains(&stack) {
            return Err(ServeError::bad_request(format!(
                "\"stack\" {stack} is outside the supported range 1..={MAX_STACK}"
            )));
        }
        let spec = BrickSpec::new(bitcell, words, bits)
            .map_err(|e| ServeError::bad_request(e.to_string()))?;
        Ok((spec, stack))
    }

    fn brick_estimate(&self, params: &Value) -> Result<String, ServeError> {
        let (spec, stack) = self.spec_of(params)?;
        let estimate = self
            .library
            .with_entry(&self.tech, &spec, stack, |e| e.estimate.clone())
            .map_err(ServeError::internal)?;
        Ok(json::render(&estimate_value(&spec, stack, &estimate)))
    }

    /// Every `golden.compare` reply, in input order, from one golden
    /// batch, counted in `golden.*`: a lone request is a batch of one.
    /// Each distinct configuration it compares records its errors in
    /// the [`GOLDEN_ERRORS`] histograms. The batch compiles its own
    /// bricks, so the shared library stays as it was.
    fn golden_batch(&self, configs: &[(BrickSpec, usize)]) -> Vec<Result<String, ServeError>> {
        let report = golden::compare_batch_results(&self.tech, configs);
        self.golden_batches.fetch_add(1, Ordering::Relaxed);
        self.golden_sims.fetch_add(report.sims as u64, Ordering::Relaxed);
        self.golden_groups.fetch_add(report.groups as u64, Ordering::Relaxed);
        let mut hists = self
            .golden_errors
            .lock()
            .expect("golden error histograms lock poisoned");
        for (i, r) in report.results.iter().enumerate() {
            let Ok(cmp) = r else { continue };
            if configs[..i].contains(&configs[i]) {
                continue;
            }
            let errors = [
                cmp.delay_error(),
                cmp.read_energy_error(),
                cmp.write_energy_error(),
            ];
            // The histograms bucket any integer; these are ppm, not ns.
            for (h, e) in hists.iter_mut().zip(errors) {
                h.record_ns((e.abs() * 1e6).round() as u64);
            }
        }
        drop(hists);
        report
            .results
            .into_iter()
            .map(|r| r.map(|cmp| render_golden(&cmp)).map_err(golden_error))
            .collect()
    }

    /// The persistent tier, when one is configured.
    pub fn disk(&self) -> Option<&DiskCache> {
        self.disk.as_deref()
    }

    /// Writes deferred disk entries in order (`write_all`, `sync_all`,
    /// atomic rename each).
    fn publish(&self, writes: Vec<PendingWrite>) {
        if let Some(disk) = &self.disk {
            for entry in writes {
                disk.write(entry);
            }
        }
    }

    fn flow_run(&self, params: &Value) -> Result<String, ServeError> {
        let bitcell = bitcell_param(params)?;
        let words = req_usize(params, "words")?;
        let bits = req_usize(params, "bits")?;
        let partitions = opt_usize(params, "partitions")?.unwrap_or(1);
        let brick_words = req_usize(params, "brick_words")?;
        let config = SramConfig::with_bitcell(words, bits, partitions, brick_words, bitcell)
            .map_err(|e| ServeError::bad_request(e.to_string()))?;
        // Check the warm library out, run, fold the grown library back:
        // cached entries are byte-identical to fresh compiles, so a warm
        // run reports exactly what a cold run would.
        let mut flow = LimFlow::with_library(self.tech.clone(), self.library.snapshot());
        let block = flow
            .synthesize_sram(&config)
            .map_err(ServeError::internal)?;
        self.library.absorb(flow.into_library());
        self.record_flow_stages(&block);
        Ok(json::render(&block_value(&block)))
    }

    /// Per-stage latency: a synthesized block's own stage timings feed
    /// the `flow.<stage>` histograms, so `server.stats` can localize a
    /// slow run to the stage that caused it.
    fn record_flow_stages(&self, block: &LimBlock) {
        let s = &block.report.stats;
        for (stage, d) in [
            ("flow.floorplan", s.floorplan),
            ("flow.place", s.place),
            ("flow.route", s.route),
            ("flow.sta", s.sta),
            ("flow.clock_tree", s.clock_tree),
            ("flow.power", s.power),
        ] {
            self.record_stage(stage, d);
        }
    }

    /// Behavioral-RTL entry point: parses `params["source"]`, infers
    /// its register arrays, picks each one's brick decomposition by
    /// analytic DSE, lowers the module to a brick-backed smart memory
    /// and drives the full physical flow. `"brick_words"` (optional
    /// array) narrows the depth candidates. Responses go through the
    /// memo like `flow.run`; parse and inference rejections come back
    /// as bad-request errors carrying `line:col` diagnostics and are
    /// never cached.
    fn rtl_infer(&self, params: &Value) -> Result<String, ServeError> {
        let source = match params.get("source") {
            Some(Value::String(s)) => s,
            Some(_) => return Err(ServeError::bad_request("\"source\" must be a string")),
            None => {
                return Err(ServeError::bad_request(
                    "missing \"source\": behavioral Verilog text",
                ))
            }
        };
        if source.len() > (1 << 20) {
            return Err(ServeError::bad_request(
                "\"source\" larger than 1 MiB; split the design",
            ));
        }
        let brick_words = match params.get("brick_words") {
            None => Vec::new(),
            Some(Value::Array(items)) => items
                .iter()
                .map(|v| value_usize(v, "brick_words[..]"))
                .collect::<Result<Vec<_>, _>>()?,
            Some(_) => {
                return Err(ServeError::bad_request(
                    "\"brick_words\" must be an array of brick depths",
                ))
            }
        };
        let mut flow = LimFlow::with_library(self.tech.clone(), self.library.snapshot());
        let report =
            lim::infer_and_synthesize(&mut flow, source, &brick_words).map_err(|e| match e {
                LimError::BadConfig { .. } => ServeError::bad_request(e.to_string()),
                other => ServeError::internal(other),
            })?;
        self.library.absorb(flow.into_library());
        for (stage, d) in [
            ("rtl.parse", report.timings.parse),
            ("rtl.infer", report.timings.infer),
            ("rtl.lower", report.timings.lower),
        ] {
            self.record_stage(stage, d);
        }
        self.record_flow_stages(&report.block);
        Ok(json::render(&obj(vec![
            ("module", Value::String(report.module)),
            ("parse_lines", num(report.parse_lines as f64)),
            (
                "memories",
                Value::Array(report.memories.iter().map(memory_plan_value).collect()),
            ),
            ("report", block_value(&report.block)),
            ("verilog", Value::String(report.verilog)),
        ])))
    }

    fn dse_explore(&self, params: &Value) -> Result<String, ServeError> {
        let memories = match params.get("memories") {
            Some(Value::Array(items)) => items
                .iter()
                .map(|pair| match pair.as_array() {
                    Some([w, b]) => {
                        let w = value_usize(w, "memories[..][0]")?;
                        let b = value_usize(b, "memories[..][1]")?;
                        Ok((w, b))
                    }
                    _ => Err(ServeError::bad_request(
                        "\"memories\" must be an array of [words, bits] pairs",
                    )),
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => {
                return Err(ServeError::bad_request(
                    "missing \"memories\": array of [words, bits] pairs",
                ))
            }
        };
        let brick_words = match params.get("brick_words") {
            Some(Value::Array(items)) => items
                .iter()
                .map(|v| value_usize(v, "brick_words[..]"))
                .collect::<Result<Vec<_>, _>>()?,
            _ => {
                return Err(ServeError::bad_request(
                    "missing \"brick_words\": array of brick depths",
                ))
            }
        };
        if memories.is_empty() || brick_words.is_empty() {
            return Err(ServeError::bad_request(
                "\"memories\" and \"brick_words\" must be non-empty",
            ));
        }
        if memories.len() * brick_words.len() > 4096 {
            return Err(ServeError::bad_request(
                "sweep larger than 4096 points; split the request",
            ));
        }
        let points =
            dse::explore(&self.tech, &memories, &brick_words).map_err(|e| ServeError {
                code: crate::protocol::ERR_BAD_REQUEST,
                message: e.to_string(),
            })?;
        let pareto = dse::pareto_front(&points);
        Ok(json::render(&obj(vec![
            (
                "points",
                Value::Array(points.iter().map(point_value).collect()),
            ),
            (
                "pareto",
                Value::Array(pareto.iter().map(|&i| num(i as f64)).collect()),
            ),
        ])))
    }

    /// Fans a list of sub-requests across the `lim-par` pool. Each entry
    /// goes through the memo individually; results come back in input
    /// order. Nested batches are rejected.
    fn batch(&self, params: &Value, writes: &mut Vec<PendingWrite>) -> Result<String, ServeError> {
        let requests = match params.get("requests") {
            Some(Value::Array(items)) => items,
            _ => {
                return Err(ServeError::bad_request(
                    "missing \"requests\": array of {method, params} objects",
                ))
            }
        };
        if requests.len() > MAX_BATCH {
            return Err(ServeError::bad_request(format!(
                "batch larger than {MAX_BATCH} requests; split it"
            )));
        }
        let jobs: Vec<(String, Value)> = requests
            .iter()
            .map(|rq| {
                let method = match rq.get("method") {
                    Some(Value::String(m)) => m.clone(),
                    _ => {
                        return Err(ServeError::bad_request(
                            "each batch entry needs a string \"method\"",
                        ))
                    }
                };
                if method == "batch" {
                    return Err(ServeError::bad_request("nested batches are not allowed"));
                }
                let params = match rq.get("params") {
                    None => Value::Object(Vec::new()),
                    Some(p @ Value::Object(_)) => p.clone(),
                    Some(_) => {
                        return Err(ServeError::bad_request(
                            "batch entry \"params\" must be an object",
                        ))
                    }
                };
                Ok((method, params))
            })
            .collect::<Result<Vec<_>, _>>()?;
        // `golden.compare` entries that miss the memo are peeled off and
        // solved together: the whole sub-batch becomes one golden batch,
        // its sims advancing four to a lockstep panel. Everything else
        // fans out entry-by-entry.
        let golden = Endpoint::of("golden.compare");
        let mut slots: Vec<Option<String>> = vec![None; jobs.len()];
        let mut goldens: Vec<(usize, (BrickSpec, usize), Option<u64>)> = Vec::new();
        let mut others: Vec<(usize, Endpoint, String, Value)> = Vec::new();
        for (i, (method, params)) in jobs.into_iter().enumerate() {
            let endpoint = Endpoint::of(&method);
            if endpoint != golden {
                others.push((i, endpoint, method, params));
                continue;
            }
            let sw = lim_obs::Stopwatch::start();
            match self.spec_of(&params) {
                Err(e) => {
                    self.record_endpoint(golden, sw.elapsed(), true);
                    slots[i] = Some(entry_err(&e));
                }
                Ok(config) => {
                    let key = memo_key(golden, &params);
                    match key.and_then(|key| self.memo_lookup(key, None)) {
                        Some(hit) => {
                            self.record_endpoint(golden, sw.elapsed(), false);
                            slots[i] = Some(entry_ok(true, &hit));
                        }
                        None => goldens.push((i, config, key)),
                    }
                }
            }
        }
        if !goldens.is_empty() {
            let _span = lim_obs::Span::enter("golden.compare");
            let sw = lim_obs::Stopwatch::start();
            let configs: Vec<(BrickSpec, usize)> =
                goldens.iter().map(|&(_, config, _)| config).collect();
            let results = self.golden_batch(&configs);
            // The panel solve is shared work; each entry is billed its
            // mean share of it.
            let share = sw.elapsed() / goldens.len() as u32;
            for ((i, _, key), res) in goldens.iter().zip(results) {
                self.record_endpoint(golden, share, res.is_err());
                slots[*i] = Some(match res {
                    Ok(rendered) => {
                        let rendered = Arc::new(rendered);
                        if let Some(key) = key {
                            self.memo_store(*key, "golden.compare", &rendered, writes);
                        }
                        entry_ok(false, &rendered)
                    }
                    Err(e) => entry_err(&e),
                });
            }
        }
        let other_results = lim_par::par_map(others, |(i, endpoint, method, params)| {
            let sw = lim_obs::Stopwatch::start();
            let mut entry_writes = Vec::new();
            let key = memo_key(endpoint, &params);
            let (result, cached) =
                self.call_cached(endpoint, key, None, &method, &params, &mut entry_writes);
            self.record_endpoint(endpoint, sw.elapsed(), result.is_err());
            let rendered = match result {
                Ok(rendered) => entry_ok(cached, &rendered),
                Err(e) => entry_err(&e),
            };
            (i, rendered, entry_writes)
        });
        for (i, rendered, entry_writes) in other_results {
            slots[i] = Some(rendered);
            writes.extend(entry_writes);
        }
        let results: Vec<String> = slots
            .into_iter()
            .map(|s| s.expect("every batch entry was answered"))
            .collect();
        Ok(format!("{{\"results\":[{}]}}", results.join(",")))
    }

    /// Serves retained request traces. Params: `"id"` looks one trace up
    /// by hex id; otherwise `"order"` of `"slowest"` (default) or
    /// `"recent"` with `"n"` (default 5, max [`TRACE_RETAIN`]) picks a
    /// set. Each returned trace is a complete `lim-obs-v1` `trace`
    /// object (span tree in pre-order).
    ///
    /// Traces are only retained while obs collection is enabled (the
    /// daemon enables it; an embedded service must opt in).
    fn server_trace(&self, params: &Value) -> Result<String, ServeError> {
        let traces = match params.get("id") {
            Some(Value::String(s)) => {
                let id = TraceId::parse(s).ok_or_else(|| {
                    ServeError::bad_request(format!("\"id\" is not a hex trace id: {s:?}"))
                })?;
                self.traces.find(id).into_iter().collect()
            }
            Some(_) => return Err(ServeError::bad_request("\"id\" must be a string")),
            None => {
                let n = opt_usize(params, "n")?.unwrap_or(5).clamp(1, TRACE_RETAIN);
                match params.get("order").and_then(Value::as_str) {
                    None | Some("slowest") => self.traces.slowest(n),
                    Some("recent") => self.traces.recent(n),
                    Some(other) => {
                        return Err(ServeError::bad_request(format!(
                            "unknown \"order\" {other:?}; expected slowest or recent"
                        )))
                    }
                }
            }
        };
        let rendered: Vec<String> = traces.iter().map(|t| trace_json_line(t)).collect();
        Ok(format!("{{\"traces\":[{}]}}", rendered.join(",")))
    }

    /// Renders the full telemetry report as `lim-obs-v1` JSON lines —
    /// per-endpoint `hist` + `window` lines, per-flow-stage `hist`
    /// lines, and the retained `trace` lines — packed into one response
    /// member so clients can write it straight to a file for
    /// `obs_check`.
    fn telemetry_report(&self) -> String {
        let mut lines = String::from(
            "{\"type\":\"meta\",\"schema\":\"lim-obs-v1\",\"source\":\"lim-serve\"}\n",
        );
        for (name, t) in self.endpoint_slots() {
            lines.push_str(&hist_json_line(name, &t.window.lifetime().summary()));
            lines.push('\n');
            for (secs, summary) in t.window.summaries() {
                lines.push_str(&window_json_line(name, secs, &summary));
                lines.push('\n');
            }
        }
        for (name, h) in self.stage_slots() {
            lines.push_str(&hist_json_line(name, &h.summary()));
            lines.push('\n');
        }
        let mut seen = Vec::new();
        for t in self
            .traces
            .slowest(TRACE_RETAIN)
            .into_iter()
            .chain(self.traces.recent(TRACE_RETAIN))
        {
            if seen.contains(&t.id) {
                continue;
            }
            seen.push(t.id);
            lines.push_str(&trace_json_line(&t));
            lines.push('\n');
        }
        format!(
            "{{\"schema\":\"lim-obs-v1\",\"lines\":{}}}",
            json::string(&lines)
        )
    }

    /// Service-side statistics (memo, library, per-endpoint latency, and
    /// the merged obs report). The TCP server wraps this with transport
    /// figures (in-flight, shed, uptime).
    pub fn stats_value(&self) -> Value {
        let cache = self.cache.lock().expect("response cache lock poisoned");
        let cache_v = obj(vec![
            ("hits", num(cache.hits() as f64)),
            ("misses", num(cache.misses() as f64)),
            ("entries", num(cache.len() as f64)),
            ("bytes", num(cache.bytes() as f64)),
            ("budget", num(cache.budget() as f64)),
            ("evictions", num(cache.evictions() as f64)),
        ]);
        drop(cache);
        let disk_v = match &self.disk {
            Some(disk) => {
                let s = disk.stats();
                obj(vec![
                    ("enabled", Value::Bool(true)),
                    ("hits", num(s.hits as f64)),
                    ("misses", num(s.misses as f64)),
                    ("writes", num(s.writes as f64)),
                    ("corrupt", num(s.corrupt as f64)),
                    ("stale", num(s.stale as f64)),
                ])
            }
            None => obj(vec![("enabled", Value::Bool(false))]),
        };
        let library_v = obj(vec![
            ("entries", num(self.library.len() as f64)),
            ("compiled", num(self.library.compiled_count() as f64)),
            ("hits", num(self.library.cache_hits() as f64)),
            ("misses", num(self.library.cache_misses() as f64)),
        ]);
        let batches = self.golden_batches.load(Ordering::Relaxed);
        let sims = self.golden_sims.load(Ordering::Relaxed);
        let groups = self.golden_groups.load(Ordering::Relaxed);
        let mut golden_members = vec![
            ("batches", num(batches as f64)),
            ("sims", num(sims as f64)),
            ("panel_groups", num(groups as f64)),
            (
                // Mean right-hand sides advanced per banded panel; 1.0
                // means batching never found sims to share a panel.
                "panel_occupancy",
                num(if groups == 0 {
                    0.0
                } else {
                    sims as f64 / groups as f64
                }),
            ),
            // The copy of the panel step this CPU runs: `portable` is
            // the same bits, ~11x slower on x86-64 without FMA3.
            ("kernel", Value::String(golden::panel_kernel().into())),
        ];
        let hists = self
            .golden_errors
            .lock()
            .expect("golden error histograms lock poisoned")
            .clone();
        for (name, h) in GOLDEN_ERRORS.into_iter().zip(hists) {
            let s = h.summary();
            golden_members.push((
                name,
                obj(vec![
                    ("count", num(s.count as f64)),
                    ("p50", num(s.p50_ns as f64)),
                    ("p99", num(s.p99_ns as f64)),
                    ("max", num(s.max_ns as f64)),
                ]),
            ));
        }
        let golden_v = obj(golden_members);
        let endpoints_v = Value::Object(
            self.endpoint_slots()
                .into_iter()
                .map(|(name, t)| {
                    let errors = t.errors.load(Ordering::Relaxed);
                    let latency = latency_value(&t.window.lifetime(), errors, Some(&t.window));
                    (name.to_owned(), latency)
                })
                .collect(),
        );
        let stages_v = Value::Object(
            self.stage_slots()
                .into_iter()
                .map(|(name, h)| (name.to_owned(), latency_value(&h, 0, None)))
                .collect(),
        );
        let report = self.obs_report();
        let obs_v = obj(vec![
            (
                "counters",
                Value::Object(
                    report
                        .counters
                        .iter()
                        .map(|(name, v)| (name.clone(), num(*v as f64)))
                        .collect(),
                ),
            ),
            (
                "gauges",
                Value::Object(
                    report
                        .gauges
                        .iter()
                        .map(|(name, v)| (name.clone(), num(*v)))
                        .collect(),
                ),
            ),
            (
                "spans",
                Value::Array(
                    report
                        .spans
                        .iter()
                        .map(|row| {
                            obj(vec![
                                ("path", Value::String(row.path.clone())),
                                ("calls", num(row.calls as f64)),
                                ("total_ns", num(row.total.as_nanos() as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        obj(vec![
            ("requests", num(self.request_count() as f64)),
            ("cache", cache_v),
            ("disk", disk_v),
            ("library", library_v),
            ("golden", golden_v),
            ("endpoints", endpoints_v),
            ("flow_stages", stages_v),
            (
                "traces",
                obj(vec![
                    ("retained", num(self.traces.recent_len() as f64)),
                    ("capacity", num(TRACE_RETAIN as f64)),
                ]),
            ),
            ("obs", obs_v),
        ])
    }

    /// The service-wide obs report: every request thread's spans,
    /// counters and gauges, absorbed into one aggregate.
    pub fn obs_report(&self) -> Report {
        self.obs
            .lock()
            .expect("obs report lock poisoned")
            .report("lim-serve")
    }
}

/// A shard as its event loop serves it: the [`Service`] behind the
/// admission gate.
pub(crate) struct Shard {
    pub(crate) service: Arc<Service>,
    pub(crate) gate: Arc<Gate>,
}

/// Where a shard answers a call.
enum Place {
    /// On the event thread: an `inline` method, or a memo hit in memory
    /// with the entry the deciding lookup took.
    Now(Option<Arc<String>>),
    /// On a worker.
    Worker,
}

impl Shard {
    /// An `inline` method, or a memo hit in memory, is cheaper to answer
    /// on the event thread than to hand to a worker. The memo is looked
    /// up once, here, and a hit is answered from the entry this lookup
    /// returns however the memo changes before the reply is built; a
    /// call that is not in memory goes to a worker, even when its body
    /// is on disk. Deciding refreshes a hit's recency but counts
    /// nothing (the answer counts its hit), and never reads the disk.
    fn place(&self, call: &Call) -> Place {
        if call.endpoint.row().is_some_and(|m| m.inline) {
            return Place::Now(None);
        }
        let peek = |key| {
            let cache = self.service.cache.lock();
            cache
                .expect("response cache lock poisoned")
                .peek_shared(key)
        };
        match call.key.and_then(peek) {
            Some(hit) => Place::Now(Some(hit)),
            None => Place::Worker,
        }
    }

    /// Full shard statistics: the transport and gate figures followed
    /// by the service view, with the live state mirrored into the obs
    /// gauges and counters.
    fn stats(&self, server: &ServerShared) -> Value {
        let (open, accepted, closed, timed_out) = server.conns.snapshot();
        {
            let mut obs = self.service.obs.lock().expect("obs report lock poisoned");
            obs.set_gauge("serve.in_flight", self.gate.in_flight() as f64);
            obs.set_gauge("serve.shed", self.gate.shed_count() as f64);
            obs.set_gauge("serve.conns_open", open as f64);
            obs.set_counter("serve.conns_accepted", accepted);
            obs.set_counter("serve.conns_closed", closed);
            obs.set_counter("serve.conns_timed_out", timed_out);
        }
        let mut members = server.stats_members(Some(&self.gate));
        if let Value::Object(service_members) = self.service.stats_value() {
            members.extend(service_members);
        }
        Value::Object(members)
    }
}

/// Transport stats and drain as control methods, ahead of the gate;
/// `inline` methods and memo hits on the event thread; everything else
/// on a worker, which admits and answers the call resolved here.
impl Backend for Shard {
    fn serve(&self, rq: &Request, _line: String, server: &ServerShared) -> Answer {
        let line = match rq.method.as_str() {
            "server.shutdown" => server.drain(&rq.id),
            "server.stats" => ok_line(&rq.id, false, &json::render(&self.stats(server))),
            _ => {
                // A client-minted trace id (already hex-validated by the
                // parser) becomes the request's id and is echoed back;
                // untraced requests get a server-minted id that stays
                // server-side, keeping their responses byte-stable.
                let trace = rq.trace.as_deref().and_then(TraceId::parse);
                let call = Call::of(&rq.method, &rq.params, trace);
                let Place::Now(resident) = self.place(&call) else {
                    let (gate, service) = (Arc::clone(&self.gate), Arc::clone(&self.service));
                    return Answer::Work(Box::new(move |rq| {
                        admit(&gate, &service, rq, call, None)
                    }));
                };
                let (line, writes) = admit(&self.gate, &self.service, rq, call, resident);
                return Answer::Reply(line, writes);
            }
        };
        Answer::Reply(line, Vec::new())
    }

    fn publish(&self, writes: Vec<PendingWrite>) {
        self.service.publish(writes);
    }
}

/// Admits a resolved call through the gate and answers it (from
/// `resident`, the memo entry [`Shard::place`] took, when it took one),
/// or sheds it with a 429 when the gate is full. The permit covers the
/// call only. The reply frame is the one copy of the result on its way
/// out: built at its exact size from the buffer the memo shares.
fn admit(
    gate: &Gate,
    service: &Service,
    rq: &Request,
    call: Call,
    resident: Option<Arc<String>>,
) -> (String, Vec<PendingWrite>) {
    let Some(permit) = gate.try_acquire() else {
        return (error_line(&rq.id, &ServeError::overloaded()), Vec::new());
    };
    let mut writes = Vec::new();
    let (result, cached) =
        service.call_deferred(call, resident, &rq.method, &rq.params, &mut writes);
    drop(permit);
    let line = match &result {
        Ok(result) => ok_line_traced(&rq.id, cached, rq.trace.as_deref(), result),
        Err(e) => error_line(&rq.id, e),
    };
    (line, writes)
}

/// Microsecond view of a nanosecond figure (stats are reported in µs to
/// match the pre-telemetry `mean_us`/`max_us` fields).
fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

/// Renders one latency entry for `server.stats`: the lifetime
/// count/errors/mean/max plus p50/p90/p99, and (for endpoints) a
/// `last1m`/`last5m` window pair so "slow now" and "slow ever" are
/// separately visible.
fn latency_value(lifetime: &Histogram, errors: u64, window: Option<&RollingWindow>) -> Value {
    let s = lifetime.summary();
    let mut members = vec![
        ("count", num(s.count as f64)),
        ("errors", num(errors as f64)),
        ("mean_us", num(lifetime.mean_ns() / 1_000.0)),
        ("max_us", num(us(s.max_ns))),
        ("p50_us", num(us(s.p50_ns))),
        ("p90_us", num(us(s.p90_ns))),
        ("p99_us", num(us(s.p99_ns))),
    ];
    for (secs, w) in window.map(RollingWindow::summaries).unwrap_or_default() {
        let label = if secs == 60 { "last1m" } else { "last5m" };
        members.push((
            label,
            obj(vec![
                ("count", num(w.count as f64)),
                ("p50_us", num(us(w.p50_ns))),
                ("p90_us", num(us(w.p90_ns))),
                ("p99_us", num(us(w.p99_ns))),
                ("max_us", num(us(w.max_ns))),
            ]),
        ));
    }
    obj(members)
}

/// Wraps a rendered handler reply as one batch-entry object.
fn entry_ok(cached: bool, rendered: &str) -> String {
    format!("{{\"ok\":true,\"cached\":{cached},\"result\":{rendered}}}")
}

/// Wraps a handler error as one batch-entry object.
fn entry_err(e: &ServeError) -> String {
    format!(
        "{{\"ok\":false,\"error\":{{\"code\":{},\"message\":{}}}}}",
        e.code,
        json::string(&e.message)
    )
}

/// A golden failure as served: asking for more work than
/// [`golden::MAX_NODE_STEPS`] is the caller's error, anything else the
/// service's.
fn golden_error(e: BrickError) -> ServeError {
    match e {
        BrickError::GoldenTooLarge { .. } => ServeError::bad_request(e.to_string()),
        e => ServeError::internal(e),
    }
}

/// Renders one tool-vs-golden comparison as its `golden.compare` reply.
fn render_golden(cmp: &golden::ToolVsGolden) -> String {
    let bank = |rd: f64, re: f64, wd: f64, we: f64| {
        obj(vec![
            ("read_delay_ps", num(rd)),
            ("read_energy_fj", num(re)),
            ("write_delay_ps", num(wd)),
            ("write_energy_fj", num(we)),
        ])
    };
    json::render(&obj(vec![
        ("spec", Value::String(cmp.tool.spec.to_string())),
        ("stack", num(cmp.tool.stack as f64)),
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

fn debug_sleep(params: &Value) -> Result<String, ServeError> {
    let ms = opt_usize(params, "ms")?.unwrap_or(10).min(5_000);
    std::thread::sleep(std::time::Duration::from_millis(ms as u64));
    Ok(format!("{{\"slept_ms\":{ms}}}"))
}

/// Renders one synthesized block's physical report. `flow.run` and
/// `rtl.infer` both go through this, so the report member set and order
/// are identical across endpoints.
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

/// Renders one inferred memory's DSE-chosen decomposition.
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

fn point_value(p: &DsePoint) -> Value {
    obj(vec![
        ("label", Value::String(p.label.clone())),
        ("words", num(p.words as f64)),
        ("bits", num(p.bits as f64)),
        ("brick_words", num(p.brick_words as f64)),
        ("stack", num(p.stack as f64)),
        ("delay_ps", num(p.delay.value())),
        ("energy_fj", num(p.energy.value())),
        ("area_um2", num(p.area.value())),
    ])
}

fn estimate_value(spec: &BrickSpec, stack: usize, est: &BankEstimate) -> Value {
    let mut members = vec![
        ("bitcell", Value::String(spec.bitcell().short_name().into())),
        ("words", num(spec.words() as f64)),
        ("bits", num(spec.bits() as f64)),
        ("stack", num(stack as f64)),
        (
            "name",
            Value::String(lim_brick::library::entry_name(spec, stack)),
        ),
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

fn value_usize(v: &Value, what: &str) -> Result<usize, ServeError> {
    match v.as_f64() {
        Some(x) if x >= 0.0 && x.fract() == 0.0 && x <= 1e15 => Ok(x as usize),
        _ => Err(ServeError::bad_request(format!(
            "{what} must be a non-negative integer"
        ))),
    }
}

fn req_usize(params: &Value, key: &str) -> Result<usize, ServeError> {
    match params.get(key) {
        Some(v) => value_usize(v, &format!("\"{key}\"")),
        None => Err(ServeError::bad_request(format!("missing \"{key}\""))),
    }
}

fn opt_usize(params: &Value, key: &str) -> Result<Option<usize>, ServeError> {
    match params.get(key) {
        Some(v) => value_usize(v, &format!("\"{key}\"")).map(Some),
        None => Ok(None),
    }
}

fn bitcell_param(params: &Value) -> Result<BitcellKind, ServeError> {
    match params.get("bitcell") {
        None => Ok(BitcellKind::Sram8T),
        Some(Value::String(s)) => BitcellKind::all()
            .into_iter()
            .find(|k| k.short_name() == s)
            .ok_or_else(|| {
                ServeError::bad_request(format!(
                    "unknown bitcell {s:?}; expected one of 6t, 8t, cam, edram, 2p"
                ))
            }),
        Some(_) => Err(ServeError::bad_request("\"bitcell\" must be a string")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{ERR_BAD_REQUEST, ERR_UNKNOWN_METHOD};

    fn params(text: &str) -> Value {
        Value::parse(text).unwrap()
    }

    #[test]
    fn ping_and_unknown_method() {
        let svc = Service::new(&ServeConfig::default());
        let out = svc.call("server.ping", &params("{}"));
        assert!(out.result.unwrap().contains("\"pong\":true"));
        let out = svc.call("no.such", &params("{}"));
        assert_eq!(out.result.unwrap_err().code, ERR_UNKNOWN_METHOD);
    }

    #[test]
    fn estimate_is_memoized_and_param_order_insensitive() {
        let svc = Service::new(&ServeConfig::default());
        let a = svc.call(
            "brick.estimate",
            &params("{\"words\":16,\"bits\":10,\"stack\":4}"),
        );
        assert!(!a.cached);
        let b = svc.call(
            "brick.estimate",
            &params("{\"stack\":4,\"bits\":10,\"words\":16}"),
        );
        assert!(b.cached, "member order must not defeat the memo");
        assert_eq!(a.result.unwrap(), b.result.unwrap());
        assert_eq!(svc.library().cache_misses(), 1);

        // nocache bypasses the memo but still hits the warm library.
        let c = svc.call(
            "brick.estimate",
            &params("{\"words\":16,\"bits\":10,\"stack\":4,\"nocache\":true}"),
        );
        assert!(!c.cached);
        assert_eq!(svc.library().cache_hits(), 1);
    }

    #[test]
    fn estimate_rejects_bad_specs() {
        // Both spec endpoints, alone and as a `batch` entry.
        let svc = Service::new(&ServeConfig::default());
        for p in [
            "{}",
            "{\"words\":16}",
            "{\"words\":0,\"bits\":10}",
            "{\"words\":16,\"bits\":10,\"stack\":0}",
            "{\"words\":16,\"bits\":10,\"stack\":65}",
            "{\"words\":16,\"bits\":10,\"bitcell\":\"9t\"}",
            "{\"words\":1.5,\"bits\":10}",
        ] {
            for method in ["brick.estimate", "golden.compare"] {
                let out = svc.call(method, &params(p));
                assert_eq!(out.result.unwrap_err().code, ERR_BAD_REQUEST, "{method} {p}");
                let batch = format!(
                    "{{\"requests\":[{{\"method\":\"{method}\",\"params\":{p}}}]}}"
                );
                let v = Value::parse(&svc.call("batch", &params(&batch)).result.unwrap()).unwrap();
                let entry = &v.get("results").and_then(Value::as_array).unwrap()[0];
                assert_eq!(
                    entry.get("error").and_then(|e| e.get("code")).and_then(Value::as_f64),
                    Some(f64::from(ERR_BAD_REQUEST)),
                    "batch {method} {p}"
                );
            }
        }
        let out = svc.call("golden.compare", &params("{\"words\":16,\"bits\":10,\"stack\":99}"));
        assert!(out.result.unwrap_err().message.contains("1..=64"));
    }

    #[test]
    fn batch_fans_out_and_preserves_order() {
        let svc = Service::new(&ServeConfig::default());
        let out = svc.call(
            "batch",
            &params(
                "{\"requests\":[\
                 {\"method\":\"brick.estimate\",\"params\":{\"words\":16,\"bits\":10}},\
                 {\"method\":\"server.ping\"},\
                 {\"method\":\"no.such\"}]}",
            ),
        );
        let rendered = out.result.unwrap();
        let v = Value::parse(&rendered).unwrap();
        let results = v.get("results").and_then(Value::as_array).unwrap();
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].get("ok"), Some(&Value::Bool(true)));
        assert!(results[1].get("result").and_then(|r| r.get("pong")).is_some());
        assert_eq!(
            results[2]
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Value::as_f64),
            Some(f64::from(ERR_UNKNOWN_METHOD))
        );
        // A nested batch is refused outright.
        let out = svc.call(
            "batch",
            &params("{\"requests\":[{\"method\":\"batch\"}]}"),
        );
        assert_eq!(out.result.unwrap_err().code, ERR_BAD_REQUEST);
    }

    #[test]
    fn batch_golden_goes_through_panel_solver_and_matches_single() {
        // Single endpoint on one service; batched path on a fresh one.
        let single = Service::new(&ServeConfig::default());
        let lone = single
            .call("golden.compare", &params("{\"words\":16,\"bits\":10,\"stack\":1}"))
            .result
            .unwrap();

        let svc = Service::new(&ServeConfig::default());
        let out = svc.call(
            "batch",
            &params(
                "{\"requests\":[\
                 {\"method\":\"golden.compare\",\"params\":{\"words\":16,\"bits\":10,\"stack\":1}},\
                 {\"method\":\"golden.compare\",\"params\":{\"words\":16,\"bits\":10,\"stack\":4}},\
                 {\"method\":\"server.ping\"},\
                 {\"method\":\"golden.compare\",\"params\":{\"words\":16,\"bits\":10,\"stack\":1}}]}",
            ),
        );
        let v = Value::parse(&out.result.unwrap()).unwrap();
        let results = v.get("results").and_then(Value::as_array).unwrap();
        assert_eq!(results.len(), 4);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.get("ok"), Some(&Value::Bool(true)), "entry {i}");
        }
        // The batched reply matches the single-endpoint reply, and the
        // duplicated entry matches the first.
        assert_eq!(results[0].get("result"), Value::parse(&lone).ok().as_ref());
        assert_eq!(results[3].get("result"), results[0].get("result"));

        // The batch populated the shared memo: a follow-up single call
        // with the same params is a hit.
        let again = svc.call(
            "golden.compare",
            &params("{\"words\":16,\"bits\":10,\"stack\":4}"),
        );
        assert!(again.cached, "batch results must land in the memo");

        // Panel statistics: three golden entries (two distinct stacks
        // plus a duplicate, validated once) = four sims in one panel.
        let stats = svc.stats_value();
        let golden = stats.get("golden").unwrap();
        assert_eq!(golden.get("batches").and_then(Value::as_f64), Some(1.0));
        assert_eq!(golden.get("sims").and_then(Value::as_f64), Some(4.0));
        assert_eq!(golden.get("panel_groups").and_then(Value::as_f64), Some(1.0));
        assert_eq!(
            golden.get("panel_occupancy").and_then(Value::as_f64),
            Some(4.0)
        );
    }

    #[test]
    fn golden_error_histograms_count_each_computed_comparison() {
        // Three distinct configurations and a repeat of the first in one
        // batch: each histogram counts the three comparisons, and its
        // max is the largest error the replies carry, in ppm. A memo hit
        // afterwards adds nothing.
        let svc = Service::new(&ServeConfig::default());
        let out = svc.call(
            "batch",
            &params(
                "{\"requests\":[\
                 {\"method\":\"golden.compare\",\"params\":{\"words\":16,\"bits\":10,\"stack\":1}},\
                 {\"method\":\"golden.compare\",\"params\":{\"bitcell\":\"8t\",\"words\":16,\"bits\":12,\"stack\":2}},\
                 {\"method\":\"golden.compare\",\"params\":{\"bitcell\":\"cam\",\"words\":32,\"bits\":9,\"stack\":4}},\
                 {\"method\":\"golden.compare\",\"params\":{\"words\":16,\"bits\":10,\"stack\":1}}]}",
            ),
        );
        let v = Value::parse(&out.result.unwrap()).unwrap();
        let results = v.get("results").and_then(Value::as_array).unwrap();
        let figures = ["delay", "read_energy", "write_energy"];
        let mut want = [0.0f64; 3];
        for r in results {
            let error = r.get("result").and_then(|r| r.get("error")).unwrap();
            for (w, figure) in want.iter_mut().zip(figures) {
                let e = error.get(figure).and_then(Value::as_f64).unwrap();
                *w = w.max((e.abs() * 1e6).round());
            }
        }
        let check = |svc: &Service| {
            let stats = svc.stats_value();
            let golden = stats.get("golden").unwrap();
            let kernel = golden.get("kernel").and_then(Value::as_str);
            assert!(matches!(kernel, Some("fma" | "portable")), "{kernel:?}");
            for (name, want) in GOLDEN_ERRORS.into_iter().zip(want) {
                let h = golden.get(name).unwrap();
                let field = |f| h.get(f).and_then(Value::as_f64).unwrap();
                assert_eq!(field("count"), 3.0, "{name}");
                assert_eq!(field("max"), want, "{name}");
                assert!(field("p50") <= field("p99") && field("p99") <= want, "{name}");
            }
        };
        check(&svc);
        let again = svc.call(
            "golden.compare",
            &params("{\"bitcell\":\"8t\",\"words\":16,\"bits\":12,\"stack\":2}"),
        );
        assert!(again.cached);
        check(&svc);
    }

    #[test]
    fn batch_golden_reports_bad_entries_in_place() {
        let svc = Service::new(&ServeConfig::default());
        let out = svc.call(
            "batch",
            &params(
                "{\"requests\":[\
                 {\"method\":\"golden.compare\",\"params\":{\"words\":16,\"bits\":10,\"stack\":99}},\
                 {\"method\":\"golden.compare\",\"params\":{\"words\":16,\"bits\":10}}]}",
            ),
        );
        let v = Value::parse(&out.result.unwrap()).unwrap();
        let results = v.get("results").and_then(Value::as_array).unwrap();
        assert_eq!(results[0].get("ok"), Some(&Value::Bool(false)));
        assert!(results[0]
            .get("error")
            .and_then(|e| e.get("message"))
            .is_some());
        assert_eq!(results[1].get("ok"), Some(&Value::Bool(true)));
    }

    #[test]
    fn stats_reflect_traffic() {
        let svc = Service::new(&ServeConfig::default());
        svc.call("server.ping", &params("{}"));
        svc.call(
            "brick.estimate",
            &params("{\"words\":16,\"bits\":10}"),
        );
        svc.call(
            "brick.estimate",
            &params("{\"words\":16,\"bits\":10}"),
        );
        let stats = svc.stats_value();
        assert_eq!(
            stats.get("requests").and_then(Value::as_f64),
            Some(3.0)
        );
        let cache = stats.get("cache").unwrap();
        assert_eq!(cache.get("hits").and_then(Value::as_f64), Some(1.0));
        assert_eq!(cache.get("entries").and_then(Value::as_f64), Some(1.0));
        let eps = stats.get("endpoints").unwrap();
        assert_eq!(
            eps.get("brick.estimate")
                .and_then(|e| e.get("count"))
                .and_then(Value::as_f64),
            Some(2.0)
        );
        // The stats value renders as valid JSON.
        let rendered = json::render(&stats);
        Value::parse(&rendered).unwrap();
    }

    #[test]
    fn flow_run_matches_direct_flow_and_warms_library() {
        let svc = Service::new(&ServeConfig::default());
        let out = svc.call(
            "flow.run",
            &params("{\"words\":32,\"bits\":10,\"partitions\":1,\"brick_words\":16}"),
        );
        let rendered = out.result.unwrap();
        let v = Value::parse(&rendered).unwrap();

        let mut flow = LimFlow::cmos65();
        let block = flow
            .synthesize_sram(&SramConfig::new(32, 10, 1, 16).unwrap())
            .unwrap();
        assert_eq!(
            v.get("fmax_mhz").and_then(Value::as_f64),
            Some(block.report.fmax.value())
        );
        assert_eq!(
            v.get("gate_count").and_then(Value::as_f64),
            Some(block.gate_count as f64)
        );
        // The run folded its bricks back into the shared library.
        assert_eq!(svc.library().len(), 1);
    }

    #[test]
    fn rtl_infer_runs_end_to_end_memoizes_and_rejects_bad_source() {
        const SRC: &str = "\
module spram (
  input wire clk,
  input wire we,
  input wire [4:0] waddr,
  input wire [4:0] raddr,
  input wire [9:0] din,
  output reg [9:0] dout
);
  reg [9:0] mem [31:0];
  always @(posedge clk) begin
    if (we)
      mem[waddr] <= din;
    dout <= mem[raddr];
  end
endmodule
";
        let svc = Service::new(&ServeConfig::default());
        let p = Value::Object(vec![
            ("source".to_owned(), Value::String(SRC.to_owned())),
            (
                "brick_words".to_owned(),
                Value::Array(vec![num(8.0), num(16.0), num(32.0)]),
            ),
        ]);
        let cold = svc.call("rtl.infer", &p);
        assert!(!cold.cached);
        let rendered = cold.result.unwrap();
        let v = Value::parse(&rendered).unwrap();
        assert_eq!(v.get("module"), Some(&Value::String("spram".into())));
        let mems = v.get("memories").and_then(Value::as_array).unwrap();
        assert_eq!(mems.len(), 1);
        let m = &mems[0];
        let bw = m.get("brick_words").and_then(Value::as_f64).unwrap();
        let stack = m.get("stack").and_then(Value::as_f64).unwrap();
        assert_eq!(bw * stack, 32.0);
        let report = v.get("report").unwrap();
        assert!(report.get("fmax_mhz").and_then(Value::as_f64).unwrap() > 0.0);
        assert_eq!(report.get("macro_count").and_then(Value::as_f64), Some(1.0));
        assert!(v
            .get("verilog")
            .and_then(Value::as_str)
            .unwrap()
            .contains("module spram ("));
        // The run registered its bank entries in the shared library.
        assert!(!svc.library().is_empty());

        // Repeat is a memo hit, byte-identical.
        let warm = svc.call("rtl.infer", &p);
        assert!(warm.cached, "rtl.infer must be memoized");
        assert_eq!(warm.result.unwrap(), rendered);

        // Parse failures are bad requests carrying line:col, not cached.
        let bad = Value::Object(vec![(
            "source".to_owned(),
            Value::String("module busted".to_owned()),
        )]);
        let err = svc.call("rtl.infer", &bad).result.unwrap_err();
        assert_eq!(err.code, ERR_BAD_REQUEST);
        assert!(err.message.contains("parse error"), "{}", err.message);
        let again = svc.call("rtl.infer", &bad);
        assert!(!again.cached, "errors must not be cached");

        let err = svc.call("rtl.infer", &params("{}")).result.unwrap_err();
        assert_eq!(err.code, ERR_BAD_REQUEST);
        assert!(err.message.contains("source"), "{}", err.message);
    }

    #[test]
    fn repeated_brick_words_depths_are_swept_once() {
        // Two lane widths, so each listed depth is two sweep points.
        const SRC: &str = "\
module lanes (
  input wire clk,
  input wire [1:0] we,
  input wire [3:0] waddr,
  input wire [3:0] raddr,
  input wire [15:0] din,
  output reg [15:0] dout
);
  reg [15:0] mem [15:0];
  always @(posedge clk) begin
    if (we[0]) mem[waddr][11:0] <= din[11:0];
    if (we[1]) mem[waddr][15:12] <= din[15:12];
    dout <= mem[raddr];
  end
endmodule
";
        let svc = Service::new(&ServeConfig::default());
        let reply = |copies: usize| {
            let p = Value::Object(vec![
                ("source".to_owned(), Value::String(SRC.to_owned())),
                (
                    "brick_words".to_owned(),
                    Value::Array(vec![num(16.0); copies]),
                ),
            ]);
            let out = svc.call("rtl.infer", &p);
            assert!(!out.cached);
            out.result.unwrap()
        };
        let once = reply(1);
        assert!(once.contains("\"candidates\":1,"), "{}", &once[..400]);
        assert_eq!(reply(2000), once);
    }

    fn disk_config(tag: &str) -> (ServeConfig, PathBuf) {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "lim_service_{tag}_{}_{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServeConfig {
            disk_dir: Some(dir.clone()),
            ..ServeConfig::default()
        };
        (config, dir)
    }

    #[test]
    fn restart_on_populated_disk_serves_cached_byte_identical() {
        let (config, dir) = disk_config("restart");
        let p = params("{\"words\":16,\"bits\":10,\"stack\":4}");

        // Cold process: compute, memoize, persist.
        let cold = Service::new(&config);
        let first = cold.call("brick.estimate", &p);
        assert!(!first.cached);
        let cold_bytes = first.result.unwrap();
        drop(cold);

        // "Restarted" process on the same cache dir: the first repeat
        // answers from disk, flagged cached, byte-identical to cold.
        let warm = Service::new(&config);
        let again = warm.call("brick.estimate", &p);
        assert!(again.cached, "restart must hit the persistent tier");
        assert_eq!(again.result.unwrap(), cold_bytes);
        let disk = warm.disk().expect("disk tier configured");
        assert_eq!(disk.stats().hits, 1);

        // The hit was promoted into the memo: a second repeat is served
        // without another disk read.
        let third = warm.call("brick.estimate", &p);
        assert!(third.cached);
        assert_eq!(disk.stats().hits, 1, "memo now fronts the disk");

        // The restart served the reply alone: nothing re-warmed the
        // library and nothing was compiled.
        assert!(warm.library().is_empty(), "a restart re-warms no entry");
        assert_eq!(warm.library().cache_misses(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batch_golden_probes_and_populates_the_disk_tier() {
        let (config, dir) = disk_config("batch");
        let batch = params(
            "{\"requests\":[\
             {\"method\":\"golden.compare\",\"params\":{\"words\":16,\"bits\":10,\"stack\":1}},\
             {\"method\":\"golden.compare\",\"params\":{\"words\":16,\"bits\":10,\"stack\":2}}]}",
        );
        let cold = Service::new(&config);
        let cold_out = cold.call("batch", &batch).result.unwrap();
        assert_eq!(cold.disk().unwrap().stats().writes, 2);
        drop(cold);

        let warm = Service::new(&config);
        let warm_out = warm.call("batch", &batch).result.unwrap();
        assert_eq!(warm.disk().unwrap().stats().hits, 2);
        // Same entry bytes, now flagged cached.
        assert_eq!(
            warm_out,
            cold_out.replace("\"cached\":false", "\"cached\":true")
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Every file under `dir`, as (path relative to `dir`, contents),
    /// sorted by path.
    fn tree(dir: &std::path::Path) -> Vec<(PathBuf, Vec<u8>)> {
        let mut files = Vec::new();
        let mut todo = vec![dir.to_path_buf()];
        while let Some(at) = todo.pop() {
            for entry in std::fs::read_dir(&at).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    todo.push(path);
                } else {
                    let rel = path.strip_prefix(dir).unwrap().to_path_buf();
                    files.push((rel, std::fs::read(&path).unwrap()));
                }
            }
        }
        files.sort();
        files
    }

    #[test]
    fn lone_golden_compare_is_a_batch_of_one() {
        // A lone `golden.compare` and the same config as the only entry
        // of a `batch` leave two `--cache-dir` services in the same
        // state: the same reply bytes, the same disk files, the same
        // `golden.*` counts, and no library entry.
        let p = "{\"words\":24,\"bits\":9,\"stack\":2}";
        let (lone_config, lone_dir) = disk_config("lone_golden");
        let lone = Service::new(&lone_config);
        let reply = lone.call("golden.compare", &params(p)).result.unwrap();
        let (batch_config, batch_dir) = disk_config("batched_golden");
        let batched = Service::new(&batch_config);
        let batch = format!("{{\"requests\":[{{\"method\":\"golden.compare\",\"params\":{p}}}]}}");
        let batch_reply = batched.call("batch", &params(&batch)).result.unwrap();
        assert_eq!(batch_reply, format!("{{\"results\":[{}]}}", entry_ok(false, &reply)));

        for svc in [&lone, &batched] {
            assert_eq!(svc.library().len(), 0, "golden.compare adds no library entry");
            let stats = svc.stats_value();
            let golden = stats.get("golden").unwrap();
            let count = |member| golden.get(member).and_then(Value::as_f64);
            assert_eq!(
                (count("batches"), count("sims"), count("panel_groups")),
                (Some(1.0), Some(2.0), Some(1.0))
            );
        }
        let files = tree(&lone_dir);
        assert_eq!(files.len(), 1, "one response entry: {files:?}");
        assert_eq!(files, tree(&batch_dir));
        std::fs::remove_dir_all(&lone_dir).unwrap();
        std::fs::remove_dir_all(&batch_dir).unwrap();
    }

    fn request(method: &str, params: &Value) -> Request {
        Request {
            id: Value::Null,
            method: method.to_owned(),
            params: params.clone(),
            trace: None,
        }
    }

    /// A shard over `svc` as its event loop serves it, and the loop
    /// state its entry point reads.
    fn shard(svc: &Arc<Service>) -> (Arc<Shard>, ServerShared) {
        let shard = Arc::new(Shard {
            service: Arc::clone(svc),
            gate: Arc::new(Gate::new(4)),
        });
        let server = ServerShared::new(Arc::clone(&shard) as Arc<dyn Backend>, None);
        (shard, server)
    }

    /// The shard's answer to `method`+`params`.
    fn serve(shard: &Shard, server: &ServerShared, method: &str, params: &Value) -> Answer {
        shard.serve(&request(method, params), String::new(), server)
    }

    /// The reply line of an answer sent from the event thread.
    fn now_line(answer: Answer) -> String {
        match answer {
            Answer::Reply(line, _) => line,
            _ => panic!("expected a reply from the event thread"),
        }
    }

    #[test]
    fn deciding_where_a_request_runs_reads_the_memo_without_counting() {
        let svc = Arc::new(Service::new(&ServeConfig::default()));
        let (shard, server) = shard(&svc);
        let counts = || {
            let stats = svc.stats_value();
            let cache = stats.get("cache").unwrap();
            let count = |member| cache.get(member).and_then(Value::as_f64).unwrap();
            (count("hits"), count("misses"))
        };
        // `golden.compare` is not an inline method: cold, it goes to a
        // worker, and deciding that counts nothing.
        let p = params("{\"words\":16,\"bits\":10,\"stack\":1}");
        let Answer::Work(work) = serve(&shard, &server, "golden.compare", &p) else {
            panic!("a cold golden.compare must run on a worker");
        };
        assert_eq!(counts(), (0.0, 0.0));
        // The worker's answer counts exactly one miss.
        let (cold, _) = work(&request("golden.compare", &p));
        assert!(cold.contains("\"cached\":false"), "{cold}");
        assert_eq!(counts(), (0.0, 1.0));
        // Resident now: the repeat is answered on the event thread and
        // counts exactly one hit and no miss.
        let warm = now_line(serve(&shard, &server, "golden.compare", &p));
        assert_eq!(warm, cold.replace("\"cached\":false", "\"cached\":true"));
        assert_eq!(counts(), (1.0, 1.0));
        // A nocache request is never a memo hit: it goes to a worker,
        // and deciding so counts nothing.
        let nocache = params("{\"words\":16,\"bits\":10,\"stack\":1,\"nocache\":true}");
        let answer = serve(&shard, &server, "golden.compare", &nocache);
        assert!(matches!(answer, Answer::Work(_)));
        assert_eq!(counts(), (1.0, 1.0));
    }

    /// The memo's lifetime hit and miss counts.
    fn memo_counts(svc: &Service) -> (u64, u64) {
        let cache = svc.cache.lock().unwrap();
        (cache.hits(), cache.misses())
    }

    #[test]
    fn an_event_thread_hit_is_answered_from_the_entry_that_decided_it() {
        // The entry is evicted between the decision and the reply: the
        // reply is still the memo's bytes, counted as one hit, with no
        // handler run and no disk entry written on the event thread.
        let svc = Arc::new(Service::new(&ServeConfig {
            cache_bytes: 64 << 10,
            ..ServeConfig::default()
        }));
        let (shard, server) = shard(&svc);
        let p = params("{\"words\":16,\"bits\":10,\"stack\":1}");
        let Answer::Work(work) = serve(&shard, &server, "golden.compare", &p) else {
            panic!("a cold golden.compare must run on a worker");
        };
        let (cold, _) = work(&request("golden.compare", &p));
        assert_eq!(memo_counts(&svc), (0, 1));
        let call = Call::of("golden.compare", &p, None);
        let Place::Now(Some(resident)) = shard.place(&call) else {
            panic!("a resident hit is answered on the event thread");
        };
        assert_eq!(memo_counts(&svc), (0, 1), "deciding counts nothing");
        {
            let mut cache = svc.cache.lock().unwrap();
            let key = call.key.unwrap();
            for filler in 1.. {
                cache.insert(key ^ filler, "x".repeat(1 << 10));
                if !cache.contains(key) {
                    break;
                }
            }
        }
        let (line, writes) = admit(
            &shard.gate,
            &svc,
            &request("golden.compare", &p),
            call,
            Some(resident),
        );
        assert_eq!(line, cold.replace("\"cached\":false", "\"cached\":true"));
        assert!(writes.is_empty());
        assert_eq!(memo_counts(&svc), (1, 1));
    }

    #[test]
    fn a_memoized_call_only_on_disk_goes_to_a_worker() {
        // Every memoized method the table keeps off the event thread,
        // with its body in `resp/` and not in memory: deciding reads no
        // disk and counts nothing, the worker's answer is one disk hit.
        let dir = std::env::temp_dir().join(format!("lim_serve_place_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let svc = Arc::new(Service::new(&ServeConfig {
            disk_dir: Some(dir.clone()),
            ..ServeConfig::default()
        }));
        let (shard, server) = shard(&svc);
        let disk = Arc::clone(svc.disk.as_ref().expect("the cache dir opens"));
        let p = params("{\"words\":16,\"bits\":10,\"stack\":1}");
        let off_thread: Vec<&Method> = METHODS.iter().filter(|m| m.memo && !m.inline).collect();
        assert!(off_thread.len() >= 4, "golden, flow, dse and rtl");
        for (done, m) in off_thread.iter().enumerate() {
            let key = Call::of(m.name, &p, None)
                .key
                .expect("a memoized call has a key");
            disk.store_response(key, m.name, "{\"stored\":true}");
            let Answer::Work(work) = serve(&shard, &server, m.name, &p) else {
                panic!("{}: a body only on disk must be read on a worker", m.name);
            };
            assert_eq!(
                (disk.stats().hits, memo_counts(&svc)),
                (done as u64, (0, done as u64))
            );
            let (line, _) = work(&request(m.name, &p));
            assert!(
                line.contains("\"cached\":true,\"result\":{\"stored\":true}"),
                "{line}"
            );
            assert_eq!(
                (disk.stats().hits, memo_counts(&svc)),
                (done as u64 + 1, (0, done as u64 + 1))
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Serializes the tests that flip the process-wide obs switch.
    static OBS_SWITCH: Mutex<()> = Mutex::new(());

    #[test]
    fn method_table_drives_dispatch_memo_traces_and_inline() {
        let _obs = OBS_SWITCH.lock().unwrap_or_else(|e| e.into_inner());
        let svc = Arc::new(Service::new(&ServeConfig::default()));
        let (shard, server) = shard(&svc);
        let empty = params("{}");
        let answered_now = |method: &str, params: &Value| {
            !matches!(serve(&shard, &server, method, params), Answer::Work(_))
        };
        for m in METHODS {
            // Cold: only the inline flag can put a request on the event
            // thread.
            assert_eq!(answered_now(m.name, &empty), m.inline, "{}", m.name);
        }
        lim_obs::set_enabled(true);
        for m in METHODS {
            for _ in 0..2 {
                let out = svc.call(m.name, &empty);
                if let Err(e) = &out.result {
                    assert_ne!(e.code, ERR_UNKNOWN_METHOD, "{} must dispatch", m.name);
                }
                if !m.memo {
                    assert!(!out.cached, "{} is not memoized", m.name);
                    // Never memoized, so never a memo hit either.
                    assert_eq!(answered_now(m.name, &empty), m.inline, "{}", m.name);
                }
            }
        }
        let out = svc.call("no.such", &empty);
        assert_eq!(out.result.unwrap_err().code, ERR_UNKNOWN_METHOD);
        // Memo methods with valid params: the repeat is a memo hit, and
        // a hit runs inline even for a method the table keeps off the
        // event thread.
        for (method, p) in [
            ("brick.estimate", "{\"words\":16,\"bits\":10}"),
            ("golden.compare", "{\"words\":16,\"bits\":10,\"stack\":1}"),
        ] {
            let p = params(p);
            assert!(!svc.call(method, &p).cached, "{method} cold");
            assert!(svc.call(method, &p).cached, "{method} repeat");
            let line = now_line(serve(&shard, &server, method, &p));
            assert!(line.contains("\"cached\":true"), "{method}: {line}");
        }
        // Traced methods are retained in `server.trace`, untraced ones
        // never are.
        for m in METHODS.iter().filter(|m| !m.traced) {
            svc.call(m.name, &empty);
        }
        svc.call("server.ping", &empty);
        let traces = svc
            .call("server.trace", &params("{\"order\":\"recent\",\"n\":16}"))
            .result
            .unwrap();
        let traces = Value::parse(&traces).unwrap();
        let methods: Vec<&str> = traces
            .get("traces")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .filter_map(|t| t.get("method").and_then(Value::as_str))
            .collect();
        assert!(methods.contains(&"server.ping"), "{methods:?}");
        for m in METHODS.iter().filter(|m| !m.traced) {
            assert!(
                !methods.contains(&m.name),
                "{} retained: {methods:?}",
                m.name
            );
        }
    }

    #[test]
    fn client_chosen_names_never_become_telemetry_keys() {
        let _obs = OBS_SWITCH.lock().unwrap_or_else(|e| e.into_inner());
        let svc = Service::new(&ServeConfig::default());
        lim_obs::set_enabled(true);
        lim_obs::reset();
        let empty = params("{}");
        let unknown = |i: usize| {
            let out = svc.call(&format!("made.up.{i}"), &empty);
            assert_eq!(
                out.result.unwrap_err().code,
                ERR_UNKNOWN_METHOD,
                "made.up.{i}"
            );
        };
        // A one-memory module whose module and array names are new each
        // time; returns the plan the reply reports.
        let infer = |k: usize, addr: usize, width: usize| -> Value {
            let src = format!(
                "module m{k} (input wire clk, input wire we, \
                 input wire [{a}:0] waddr, input wire [{a}:0] raddr, \
                 input wire [{w}:0] din, output reg [{w}:0] dout);\n\
                 reg [{w}:0] array_{k} [{d}:0];\n\
                 always @(posedge clk) begin\n\
                 if (we) array_{k}[waddr] <= din;\n\
                 dout <= array_{k}[raddr];\nend\nendmodule\n",
                a = addr - 1,
                w = width - 1,
                d = (1 << addr) - 1,
            );
            let p = Value::Object(vec![("source".to_owned(), Value::String(src))]);
            let reply = Value::parse(&svc.call("rtl.infer", &p).result.unwrap()).unwrap();
            reply.get("memories").and_then(Value::as_array).unwrap()[0].clone()
        };
        let sizes = || {
            let r = svc.obs_report();
            (r.spans.len(), r.gauges.len())
        };
        unknown(0);
        infer(0, 4, 8);
        let first = sizes();
        for i in 1..2000 {
            unknown(i);
        }
        let mut last = Value::Null;
        for (k, addr, width) in [(1, 5, 10), (2, 6, 6), (3, 7, 4)] {
            last = infer(k, addr, width);
        }
        assert_eq!(sizes(), first, "spans and gauges grew with client names");
        let spans_before = svc.obs_report().spans;
        let entries: Vec<String> = (2000..2200)
            .map(|i| format!("{{\"method\":\"made.up.{i}\"}}"))
            .collect();
        let batch = format!("{{\"requests\":[{}]}}", entries.join(","));
        let reply = Value::parse(&svc.call("batch", &params(&batch)).result.unwrap()).unwrap();
        let results = reply.get("results").and_then(Value::as_array).unwrap();
        assert_eq!(results.len(), 200);
        for r in results {
            let code = r
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Value::as_f64);
            assert_eq!(code, Some(f64::from(ERR_UNKNOWN_METHOD)), "{r:?}");
        }
        // The batch adds its own code-named rows and nothing per entry.
        let report = svc.obs_report();
        let added: Vec<&str> = report
            .spans
            .iter()
            .map(|row| row.path.as_str())
            .filter(|path| spans_before.iter().all(|row| row.path != *path))
            .collect();
        assert_eq!(
            added,
            ["serve.request/batch", "serve.request/batch/unknown"]
        );
        for name in report
            .counters
            .iter()
            .map(|c| &c.0)
            .chain(report.gauges.iter().map(|g| &g.0))
        {
            assert!(
                !name.contains("made.up") && !name.contains("array_"),
                "{name}"
            );
        }
        // The fixed per-memory gauges hold the last memory placed.
        for key in ["words", "bits", "brick_words", "stack"] {
            assert_eq!(
                report.gauge(&format!("rtl.infer.{key}")),
                last.get(key).and_then(Value::as_f64),
                "rtl.infer.{key}"
            );
        }
        assert_eq!(report.gauge("rtl.infer.words"), Some(128.0));

        let stats = svc.stats_value();
        let Some(Value::Object(endpoints)) = stats.get("endpoints") else {
            panic!("no endpoints in {stats:?}");
        };
        for (name, _) in endpoints {
            assert!(
                name == UNKNOWN || METHODS.iter().any(|m| m.name == name),
                "endpoint key {name:?}"
            );
        }
        let unknown_v = stats.get("endpoints").and_then(|e| e.get(UNKNOWN)).unwrap();
        for member in ["count", "errors"] {
            assert_eq!(
                unknown_v.get(member).and_then(Value::as_f64),
                Some(2200.0),
                "{member}"
            );
        }
        for order in ["recent", "slowest"] {
            let q = format!("{{\"order\":\"{order}\",\"n\":{TRACE_RETAIN}}}");
            let traces =
                Value::parse(&svc.call("server.trace", &params(&q)).result.unwrap()).unwrap();
            let traces = traces.get("traces").and_then(Value::as_array).unwrap();
            assert!(!traces.is_empty());
            for t in traces {
                let method = t.get("method").and_then(Value::as_str).unwrap();
                assert!(
                    method == UNKNOWN || METHODS.iter().any(|m| m.name == method),
                    "trace method {method:?}"
                );
            }
        }
        lim_obs::set_enabled(false);
        lim_obs::reset();
    }

    #[test]
    fn obs_adoption_folds_request_spans_into_service_report() {
        let _obs = OBS_SWITCH.lock().unwrap_or_else(|e| e.into_inner());
        let svc = Service::new(&ServeConfig::default());
        lim_obs::set_enabled(true);
        lim_obs::reset();
        svc.call("server.ping", &params("{}"));
        svc.call("brick.estimate", &params("{\"words\":16,\"bits\":10}"));
        lim_obs::set_enabled(false);
        let report = svc.obs_report();
        assert!(report.span("serve.request").is_some());
        assert!(report
            .spans
            .iter()
            .any(|row| row.path.contains("brick.estimate")));
        assert_eq!(report.counter("serve.requests"), Some(2));
    }
}
