//! `lim-par`: a zero-dependency scoped work-stealing pool.
//!
//! The LiM flow's hot loops — DSE point sweeps, per-configuration golden
//! validation, brick-library batch compiles, benchmark-suite generation
//! — are embarrassingly parallel: independent items, no shared mutable
//! state, results wanted in input order. This crate fans such loops
//! across `std::thread::scope` workers with no external dependencies:
//!
//! * Items are split into **chunks** (the deque granularity) and dealt
//!   round-robin onto per-worker deques. Each worker drains its own
//!   deque from the front and, when empty, **steals** from the back of a
//!   sibling's deque, so stragglers re-balance automatically.
//! * Results carry their chunk index, so [`par_map`] returns them in
//!   **input order** — output is bit-identical for any worker count,
//!   which keeps seeded tests and golden reports stable.
//! * The worker count honours the `LIM_PAR_THREADS` environment
//!   variable, defaulting to [`std::thread::available_parallelism`].
//!   Valid values are positive integers; they are clamped to `1..=64`
//!   (so `LIM_PAR_THREADS=4096` runs 64 workers). `LIM_PAR_THREADS=1`
//!   is an exact serial execution on the calling thread. Invalid values
//!   — `0`, empty, or non-numeric — are **rejected**, not silently
//!   coerced: the pool falls back to the default worker count, logs a
//!   one-time warning to stderr, and bumps the `par.env_invalid` obs
//!   counter so CI can catch a typoed override.
//! * Per-pool-invocation `lim-obs` counters (`par.tasks`,
//!   `par.chunks_stolen`, `par.busy_us`, per-worker
//!   `par.worker<N>.busy_us`) are aggregated on the **calling** thread
//!   after the join, so they land in the caller's thread-local report
//!   even though the work ran elsewhere.
//! * **Trace and span adoption**: each worker inherits the calling
//!   thread's `lim-obs` trace id for its lifetime, so a request id
//!   minted before the fan-out is visible (`lim_obs::trace::current()`)
//!   inside every task. When obs collection is enabled, each worker's
//!   captured span tree is grafted back under the caller's currently
//!   open span after the join — in worker-index order, so the adopted
//!   tree is deterministic for a fixed worker count.
//!
//! The surface is the ordered map ([`par_map`], [`par_map_with_threads`],
//! [`par_for_each`]) and the worker count ([`threads`]); code that
//! needs ad-hoc spawning calls [`std::thread::scope`] directly.
//!
//! # Examples
//!
//! ```
//! let squares = lim_par::par_map((0..100u64).collect(), |x| x * x);
//! assert_eq!(squares[7], 49);
//! ```

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Environment variable overriding the worker count (clamped `1..=64`).
pub const ENV_THREADS: &str = "LIM_PAR_THREADS";

/// Upper bound on workers regardless of the override.
const MAX_THREADS: usize = 64;

/// Chunks dealt per worker when splitting a batch; more chunks means
/// finer-grained stealing at slightly higher bookkeeping cost.
const CHUNKS_PER_WORKER: usize = 4;

/// How the `LIM_PAR_THREADS` environment value classified.
#[derive(Debug, Clone, PartialEq, Eq)]
enum EnvThreads {
    /// Variable not present: use the machine default.
    Unset,
    /// A positive integer, already clamped to `1..=MAX_THREADS`.
    Valid(usize),
    /// Present but unusable (`0`, empty, or non-numeric): warn and use
    /// the machine default.
    Invalid(String),
}

/// Strictly classifies a raw `LIM_PAR_THREADS` value. `0` is invalid
/// (a pool cannot have zero workers, and silently running serial would
/// mask the typo); values above [`MAX_THREADS`] clamp.
fn classify_env(raw: Option<&str>) -> EnvThreads {
    let Some(raw) = raw else {
        return EnvThreads::Unset;
    };
    match raw.trim().parse::<usize>() {
        Ok(0) | Err(_) => EnvThreads::Invalid(raw.to_owned()),
        Ok(n) => EnvThreads::Valid(n.min(MAX_THREADS)),
    }
}

/// The machine's available parallelism, clamped to `1..=MAX_THREADS`.
fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, MAX_THREADS)
}

/// The worker count [`par_map`] and [`par_for_each`] use: the
/// `LIM_PAR_THREADS` override when set and valid, otherwise the
/// machine's available parallelism. An invalid override (`0`, empty,
/// non-numeric) falls back to the default with a one-time stderr
/// warning and a `par.env_invalid` counter bump.
pub fn threads() -> usize {
    let raw = std::env::var(ENV_THREADS).ok();
    match classify_env(raw.as_deref()) {
        EnvThreads::Valid(n) => n,
        EnvThreads::Unset => default_threads(),
        EnvThreads::Invalid(raw) => {
            static WARN_ONCE: std::sync::Once = std::sync::Once::new();
            WARN_ONCE.call_once(|| {
                eprintln!(
                    "lim-par: ignoring invalid {ENV_THREADS}=`{raw}` \
                     (expected an integer in 1..={MAX_THREADS}); \
                     using {} worker(s)",
                    default_threads()
                );
                lim_obs::counter_add("par.env_invalid", 1);
            });
            default_threads()
        }
    }
}

/// A chunk of work: the flat index of its first item plus the items.
struct Chunk<T> {
    id: usize,
    items: Vec<T>,
}

/// Maps `f` over `items` on the shared pool, returning results in input
/// order (identical to `items.into_iter().map(f).collect()` for every
/// worker count).
///
/// `f` may run on any worker thread; panics propagate to the caller
/// after all workers have joined.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    par_map_with_threads(threads(), items, f)
}

/// [`par_map`] with an explicit worker count (bypasses the
/// `LIM_PAR_THREADS` lookup; used by determinism tests).
pub fn par_map_with_threads<T, R, F>(workers: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n_items = items.len();
    let workers = workers.clamp(1, MAX_THREADS).min(n_items.max(1));
    if workers <= 1 || n_items <= 1 {
        lim_obs::counter_add("par.tasks", n_items as u64);
        return items.into_iter().map(f).collect();
    }

    // Deal chunks round-robin onto per-worker deques.
    let chunk_len = n_items.div_ceil(workers * CHUNKS_PER_WORKER).max(1);
    let mut deques: Vec<Mutex<VecDeque<Chunk<T>>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    {
        let mut items = items.into_iter();
        let mut id = 0usize;
        let mut w = 0usize;
        loop {
            let chunk: Vec<T> = items.by_ref().take(chunk_len).collect();
            if chunk.is_empty() {
                break;
            }
            deques[w]
                .get_mut()
                .expect("fresh mutex cannot be poisoned")
                .push_back(Chunk { id, items: chunk });
            id = id.saturating_add(1);
            w = (w + 1) % workers;
        }
    }

    struct WorkerStats {
        busy: Duration,
        steals: u64,
        /// The worker's captured thread-local obs state (spans opened by
        /// `f`, counters it bumped), adopted by the caller after join.
        report: Option<lim_obs::Report>,
    }

    let results: Mutex<Vec<(usize, Vec<R>)>> = Mutex::new(Vec::new());
    let stats: Mutex<Vec<(usize, WorkerStats)>> = Mutex::new(Vec::new());
    let deques = &deques;
    let f = &f;
    let results_ref = &results;
    let stats_ref = &stats;
    let obs_on = lim_obs::enabled();
    let trace = lim_obs::trace::current();

    std::thread::scope(|scope| {
        for w in 0..workers {
            scope.spawn(move || {
                // Inherit the caller's request trace id: worker threads
                // are fresh, so this is their id for the whole lifetime.
                lim_obs::trace::set_current(trace);
                let mut busy = Duration::ZERO;
                let mut steals = 0u64;
                loop {
                    // Own deque first (front), then steal (back).
                    let mut chunk = deques[w]
                        .lock()
                        .expect("worker panicked holding deque lock")
                        .pop_front();
                    if chunk.is_none() {
                        for offset in 1..workers {
                            let victim = (w + offset) % workers;
                            let stolen = deques[victim]
                                .lock()
                                .expect("worker panicked holding deque lock")
                                .pop_back();
                            if stolen.is_some() {
                                steals += 1;
                                chunk = stolen;
                                break;
                            }
                        }
                    }
                    // No task spawns new tasks, so all-empty means done.
                    let Some(chunk) = chunk else { break };
                    let start = Instant::now();
                    let out: Vec<R> = chunk.items.into_iter().map(f).collect();
                    busy += start.elapsed();
                    results_ref
                        .lock()
                        .expect("worker panicked holding results lock")
                        .push((chunk.id, out));
                }
                let report = obs_on.then(|| lim_obs::Report::capture_as("lim-par-worker"));
                stats_ref
                    .lock()
                    .expect("worker panicked holding stats lock")
                    .push((
                        w,
                        WorkerStats {
                            busy,
                            steals,
                            report,
                        },
                    ));
            });
        }
    });

    // Aggregate observability on the calling thread: worker threads have
    // their own (discarded) thread-local obs state.
    let mut stats = stats.into_inner().expect("scope joined all workers");
    stats.sort_unstable_by_key(|(w, _)| *w);
    let mut total_busy = Duration::ZERO;
    let mut total_steals = 0u64;
    for (w, s) in &stats {
        total_busy += s.busy;
        total_steals += s.steals;
        lim_obs::counter_add(&format!("par.worker{w}.busy_us"), s.busy.as_micros() as u64);
        // Graft the worker's spans/counters under the caller's open
        // span, in worker-index order for a deterministic merged tree.
        if let Some(report) = &s.report {
            lim_obs::absorb_report(report);
        }
    }
    lim_obs::counter_add("par.tasks", n_items as u64);
    lim_obs::counter_add("par.chunks_stolen", total_steals);
    lim_obs::counter_add("par.busy_us", total_busy.as_micros() as u64);
    lim_obs::gauge_set("par.workers", workers as f64);

    let mut chunks = results.into_inner().expect("scope joined all workers");
    chunks.sort_unstable_by_key(|(id, _)| *id);
    let mut out = Vec::with_capacity(n_items);
    for (_, mut part) in chunks {
        out.append(&mut part);
    }
    out
}

/// Runs `f` over `items` on the shared pool for its side effects.
pub fn par_for_each<T, F>(items: Vec<T>, f: F)
where
    T: Send,
    F: Fn(T) + Sync,
{
    par_map(items, f);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_input_order() {
        for workers in [1usize, 2, 3, 8] {
            let got = par_map_with_threads(workers, (0..257u64).collect(), |x| x * 3);
            let want: Vec<u64> = (0..257).map(|x| x * 3).collect();
            assert_eq!(got, want, "workers = {workers}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        assert_eq!(par_map(Vec::<u32>::new(), |x| x), Vec::<u32>::new());
        assert_eq!(par_map(vec![9u32], |x| x + 1), vec![10]);
    }

    #[test]
    fn serial_and_parallel_results_are_identical() {
        let serial = par_map_with_threads(1, (0..100u64).collect(), |x| x.wrapping_mul(x));
        let parallel = par_map_with_threads(8, (0..100u64).collect(), |x| x.wrapping_mul(x));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn uneven_work_rebalances_via_stealing() {
        // Front-loaded cost: without stealing, worker 0 would own nearly
        // all the work. The result must still come back in order.
        let got = par_map_with_threads(4, (0..64u32).collect(), |x| {
            if x < 8 {
                // Spin a little to make early chunks slow.
                let mut acc = 0u64;
                for i in 0..200_000u64 {
                    acc = acc.wrapping_add(i ^ u64::from(x));
                }
                std::hint::black_box(acc);
            }
            x
        });
        assert_eq!(got, (0..64).collect::<Vec<u32>>());
    }

    #[test]
    fn par_for_each_visits_every_item() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let sum = AtomicU64::new(0);
        par_for_each((1..=100u64).collect(), |x| {
            sum.fetch_add(x, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 5050);
    }

    /// Serializes tests that toggle the process-global obs flag.
    static OBS_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn steal_counters_land_on_calling_thread() {
        let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        lim_obs::set_enabled(true);
        lim_obs::reset();
        let _ = par_map_with_threads(4, (0..64u32).collect(), |x| x);
        let report = lim_obs::Report::capture();
        assert_eq!(report.counter("par.tasks"), Some(64));
        // Steal count is scheduling-dependent; the counter just has to
        // exist once a parallel invocation ran.
        assert!(report.counter("par.chunks_stolen").is_some());
        lim_obs::set_enabled(false);
    }

    #[test]
    fn workers_inherit_trace_id_and_spans_are_adopted() {
        use lim_obs::trace::{self, TraceId};
        let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        lim_obs::set_enabled(true);
        lim_obs::reset();
        let _scope_guard = trace::TraceScope::enter(TraceId(0xfeed));
        let seen: Vec<Option<TraceId>> = {
            let _fan = lim_obs::Span::enter("fan");
            par_map_with_threads(4, (0..64u32).collect(), |_| {
                let _s = lim_obs::Span::enter("task");
                trace::current()
            })
        };
        // Every task, on whatever worker it landed, saw the caller's id.
        assert!(seen.iter().all(|&t| t == Some(TraceId(0xfeed))), "{seen:?}");
        // Worker-side spans were grafted under the caller's open span.
        let report = lim_obs::Report::capture();
        let task = report.span("fan/task").expect("adopted worker span");
        assert_eq!(task.calls, 64);
        lim_obs::set_enabled(false);
        lim_obs::reset();
    }

    #[test]
    fn thread_count_is_clamped() {
        let n = par_map_with_threads(usize::MAX, vec![1u8, 2, 3], |x| x);
        assert_eq!(n, vec![1, 2, 3]);
        assert!(threads() >= 1);
    }

    #[test]
    fn env_override_classification_is_strict() {
        assert_eq!(classify_env(None), EnvThreads::Unset);
        assert_eq!(classify_env(Some("1")), EnvThreads::Valid(1));
        assert_eq!(classify_env(Some("8")), EnvThreads::Valid(8));
        assert_eq!(classify_env(Some(" 16 ")), EnvThreads::Valid(16));
        // Above the cap clamps rather than errors.
        assert_eq!(classify_env(Some("4096")), EnvThreads::Valid(MAX_THREADS));
        // Zero, empty and non-numeric values are invalid, not coerced.
        for bad in ["0", "", "  ", "four", "-2", "3.5", "0x8"] {
            assert_eq!(
                classify_env(Some(bad)),
                EnvThreads::Invalid(bad.to_owned()),
                "`{bad}` must be rejected"
            );
        }
    }
}
