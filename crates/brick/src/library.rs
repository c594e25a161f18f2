//! Dynamically generated brick libraries.
//!
//! "Once the corresponding netlist has been generated, a parameterized
//! library model for the brick is created that includes the critical path,
//! energy, area, and setup & hold times that are needed for use in the
//! subsequent synthesis flow" (§3). A [`BrickLibrary`] is that artifact:
//! one [`LibraryEntry`] per (spec, stack) pair, with NLDM-style
//! clock-to-output LUTs, energies, pin capacitances, area and blockage,
//! ready for `lim-rtl` mapping and `lim-physical` timing. A new entry
//! runs the estimator once and tabulates its LUT from that estimate.

use crate::compiler::{BrickCompiler, CLK_LOAD_PER_BRICK, DWL_PIN_CAP};
use crate::error::BrickError;
use crate::estimator::BankEstimate;
use crate::lut::Lut2D;
use crate::{BrickSpec, CompiledBrick};
use lim_tech::patterns::PatternClass;
use lim_tech::units::{Femtofarads, Microns, Picoseconds};
use lim_tech::Technology;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// The macro name of a `(spec, stack)` library entry — the cache key
/// used by [`BrickLibrary::get_or_insert`] and
/// [`SharedBrickLibrary::with_entry`].
pub fn entry_name(spec: &BrickSpec, stack: usize) -> String {
    format!("{}_x{}", spec.instance_name(), stack)
}

/// One generated library cell: a bank of stacked bricks as a macro.
/// Entries are immutable once built; libraries hold them behind `Arc`
/// so every clone of a library shares them.
#[derive(Debug, Clone)]
pub struct LibraryEntry {
    /// Macro name, e.g. `brick_8t_16_10_x4`.
    pub name: String,
    /// The compiled brick this entry models, shared with every other
    /// stack count of the same spec.
    pub brick: Arc<CompiledBrick>,
    /// Stack count of the bank.
    pub stack: usize,
    /// The scalar estimate (delay/energy/area/setup/hold/leakage).
    pub estimate: BankEstimate,
    /// Clock-to-output delay vs (output load fF, input slew ps).
    pub clk_to_q: Lut2D,
    /// Clock pin capacitance of the whole bank.
    pub clk_pin_cap: Femtofarads,
    /// Capacitance of one decoded-wordline input pin.
    pub dwl_pin_cap: Femtofarads,
    /// Bank outline width.
    pub width: Microns,
    /// Bank outline height.
    pub height: Microns,
}

impl LibraryEntry {
    /// Lithography pattern class (always bitcell-array for bricks).
    pub fn pattern_class(&self) -> PatternClass {
        PatternClass::BitcellArray
    }

    /// Clock-to-output delay for a given load and input slew.
    pub fn clk_to_q(&self, load: Femtofarads, slew: Picoseconds) -> Picoseconds {
        Picoseconds::new(self.clk_to_q.lookup(load.value(), slew.value()))
    }
}

/// A collection of generated brick macros, addressable by name.
///
/// The library doubles as a cache: [`BrickLibrary::get_or_insert`]
/// returns an existing entry by reference on a hit and only compiles +
/// characterizes on a miss. Compiled bricks are additionally cached per
/// spec, so adding a new stack count of an already-compiled spec skips
/// the compiler entirely. Hits and misses are tracked on the library
/// ([`BrickLibrary::cache_hits`]) and as the obs counters
/// `brick_lib.hits` / `brick_lib.misses`.
///
/// Entries and compiled bricks live behind `Arc`, so cloning a library
/// copies pointers, never bricks: a checkout of a warm shared library
/// costs O(entries) pointer copies.
#[derive(Debug, Clone, Default)]
pub struct BrickLibrary {
    /// Entries in insertion order.
    entries: Vec<Arc<LibraryEntry>>,
    /// Position in `entries` by macro name.
    by_name: HashMap<Arc<str>, usize>,
    /// Per-spec compile cache: stack-agnostic, so `(spec, 1)` and
    /// `(spec, 8)` share one compiled brick.
    compiled: HashMap<BrickSpec, Arc<CompiledBrick>>,
    hits: u64,
    misses: u64,
}

impl BrickLibrary {
    /// An empty library.
    pub fn new() -> Self {
        Self::default()
    }

    /// Generates a library covering every `(spec, stack)` combination.
    ///
    /// This is the paper's "instantaneous generation of the necessary
    /// synthesis files": each spec is compiled once, and each entry runs
    /// the estimator once and tabulates its NLDM LUT from the estimate.
    ///
    /// # Errors
    ///
    /// Propagates compiler and estimator failures.
    pub fn generate(
        tech: &Technology,
        specs: &[BrickSpec],
        stacks: &[usize],
    ) -> Result<Self, BrickError> {
        let _span = lim_obs::Span::enter("library_generate");
        let compiler = BrickCompiler::new(tech);
        // One job per spec: compile + characterize every stack count.
        // Specs are independent, so they fan across the pool; per_spec
        // preserves input order, keeping entry order (and thus library
        // serialization) identical for any worker count.
        let per_spec = lim_par::par_map(
            specs.to_vec(),
            |spec| -> Result<(Arc<CompiledBrick>, Vec<LibraryEntry>), BrickError> {
                let brick = Arc::new(compiler.compile(&spec)?);
                let entries = stacks
                    .iter()
                    .map(|&stack| Self::entry(&brick, stack))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok((brick, entries))
            },
        );
        let mut library = BrickLibrary::new();
        for result in per_spec {
            let (brick, spec_entries) = result?;
            for entry in spec_entries {
                library.push(Arc::new(entry));
            }
            library.compiled.insert(*brick.spec(), brick);
        }
        Ok(library)
    }

    /// Appends `entry`; the name index keeps the first entry of a name.
    fn push(&mut self, entry: Arc<LibraryEntry>) -> &LibraryEntry {
        let at = self.entries.len();
        self.by_name.entry(entry.name.as_str().into()).or_insert(at);
        self.entries.push(entry);
        &self.entries[at]
    }

    fn entry(brick: &Arc<CompiledBrick>, stack: usize) -> Result<LibraryEntry, BrickError> {
        let estimate = brick.estimate_bank(stack)?;
        let loads = vec![2.0, 8.0, 24.0, 64.0, 160.0];
        let slews = vec![0.0, 40.0, 120.0, 300.0];
        // Tabulate the estimate's read delay across the grid. CAM bricks
        // time their slower match operation, which is what downstream
        // logic waits for.
        let cam_offset = estimate
            .match_delay
            .map(|m| (m.value() - estimate.read_delay.value()).max(0.0))
            .unwrap_or(0.0);
        let clk_to_q = Lut2D::tabulate(loads, slews, |load, slew| {
            let (load, slew) = (Femtofarads::new(load), Picoseconds::new(slew));
            brick.read_delay_with(&estimate, load, slew).value() + cam_offset
        })
        .expect("static axes are well-formed");

        let layout = &brick.layout;
        Ok(LibraryEntry {
            name: entry_name(brick.spec(), stack),
            brick: Arc::clone(brick),
            stack,
            estimate,
            clk_to_q,
            clk_pin_cap: CLK_LOAD_PER_BRICK * stack as f64,
            dwl_pin_cap: DWL_PIN_CAP,
            width: layout.width(),
            height: Microns::new(layout.height().value() * stack as f64),
        })
    }

    /// Adds a single entry for `(spec, stack)`.
    ///
    /// # Errors
    ///
    /// Propagates compiler and estimator failures.
    pub fn add(
        &mut self,
        tech: &Technology,
        spec: &BrickSpec,
        stack: usize,
    ) -> Result<&LibraryEntry, BrickError> {
        let brick = self.compile_cached(tech, spec)?;
        let entry = Self::entry(&brick, stack)?;
        Ok(self.push(Arc::new(entry)))
    }

    /// Returns the entry for `(spec, stack)`, generating it on first
    /// use. On a hit the existing entry is returned by reference —
    /// neither the compiler nor the estimator runs.
    ///
    /// # Errors
    ///
    /// Propagates compiler and estimator failures on a miss.
    pub fn get_or_insert(
        &mut self,
        tech: &Technology,
        spec: &BrickSpec,
        stack: usize,
    ) -> Result<&LibraryEntry, BrickError> {
        let name = entry_name(spec, stack);
        if let Some(&i) = self.by_name.get(name.as_str()) {
            self.hits = self.hits.saturating_add(1);
            lim_obs::counter_add("brick_lib.hits", 1);
            return Ok(&self.entries[i]);
        }
        self.misses = self.misses.saturating_add(1);
        lim_obs::counter_add("brick_lib.misses", 1);
        let brick = self.compile_cached(tech, spec)?;
        let entry = Self::entry(&brick, stack)?;
        Ok(self.push(Arc::new(entry)))
    }

    /// Compiles `spec`, reusing the per-spec cache when possible.
    fn compile_cached(
        &mut self,
        tech: &Technology,
        spec: &BrickSpec,
    ) -> Result<Arc<CompiledBrick>, BrickError> {
        if let Some(brick) = self.compiled.get(spec) {
            return Ok(Arc::clone(brick));
        }
        let brick = Arc::new(BrickCompiler::new(tech).compile(spec)?);
        self.compiled.insert(*spec, Arc::clone(&brick));
        Ok(brick)
    }

    /// Folds every entry of `other` that this library does not already
    /// hold (by macro name) into `self`, together with the compiled
    /// brick each one models. Hit/miss counters are summed.
    ///
    /// This is how a resident server merges the library a checked-out
    /// flow run grew back into its shared warm cache:
    /// snapshot out, run, absorb back. A checkout begins with the very
    /// entries (by pointer) of the library it came from, so that
    /// common prefix is skipped without a name probe and the cost is
    /// one probe per entry the run appended.
    pub fn absorb(&mut self, other: BrickLibrary) {
        let common = self
            .entries
            .iter()
            .zip(&other.entries)
            .take_while(|(a, b)| Arc::ptr_eq(a, b))
            .count();
        for entry in other.entries.into_iter().skip(common) {
            if !self.by_name.contains_key(entry.name.as_str()) {
                self.compiled
                    .entry(*entry.brick.spec())
                    .or_insert_with(|| Arc::clone(&entry.brick));
                self.push(entry);
            }
        }
        self.hits = self.hits.saturating_add(other.hits);
        self.misses = self.misses.saturating_add(other.misses);
    }

    /// Times [`BrickLibrary::get_or_insert`] found an existing entry.
    pub fn cache_hits(&self) -> u64 {
        self.hits
    }

    /// Number of distinct specs that went through the brick compiler
    /// (each spec compiles at most once, whatever its stack counts).
    pub fn compiled_count(&self) -> usize {
        self.compiled.len()
    }

    /// Times [`BrickLibrary::get_or_insert`] had to generate an entry.
    pub fn cache_misses(&self) -> u64 {
        self.misses
    }

    /// All entries, in insertion order.
    pub fn entries(&self) -> &[Arc<LibraryEntry>] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the library holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up an entry by macro name.
    ///
    /// # Errors
    ///
    /// Returns [`BrickError::UnknownEntry`] when absent.
    pub fn get(&self, name: &str) -> Result<&LibraryEntry, BrickError> {
        self.by_name
            .get(name)
            .map(|&i| &*self.entries[i])
            .ok_or_else(|| BrickError::UnknownEntry(name.to_owned()))
    }
}

/// A process-wide, thread-safe brick library: the warm compile cache of
/// a resident synthesis service.
///
/// Concurrent readers proceed in parallel; a miss takes the write lock,
/// re-checks under it (another thread may have compiled the same key
/// while this one waited), and only then compiles — so each `(spec,
/// stack)` entry is characterized **exactly once** no matter how many
/// threads request it simultaneously. Hits and misses are counted with
/// atomics ([`SharedBrickLibrary::cache_hits`]) and mirrored to the
/// `brick_lib.shared_hits` / `brick_lib.shared_misses` obs counters.
#[derive(Debug, Default)]
pub struct SharedBrickLibrary {
    inner: RwLock<BrickLibrary>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl SharedBrickLibrary {
    /// Wraps an existing (possibly pre-warmed) library.
    pub fn new(library: BrickLibrary) -> Self {
        SharedBrickLibrary {
            inner: RwLock::new(library),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Runs `f` on the `(spec, stack)` entry, compiling it first if no
    /// thread has yet. The closure runs under the library lock (read
    /// lock on a hit, write lock on a miss), so it should be cheap —
    /// extract what you need and return it.
    ///
    /// # Errors
    ///
    /// Propagates compiler and estimator failures on a miss.
    pub fn with_entry<R>(
        &self,
        tech: &Technology,
        spec: &BrickSpec,
        stack: usize,
        f: impl FnOnce(&LibraryEntry) -> R,
    ) -> Result<R, BrickError> {
        let name = entry_name(spec, stack);
        {
            let lib = self.inner.read().expect("library lock poisoned");
            if let Ok(entry) = lib.get(&name) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                lim_obs::counter_add("brick_lib.shared_hits", 1);
                return Ok(f(entry));
            }
        }
        let mut lib = self.inner.write().expect("library lock poisoned");
        // Double-check: a racing thread may have filled the entry
        // between our read unlock and write lock.
        if lib.get(&name).is_ok() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            lim_obs::counter_add("brick_lib.shared_hits", 1);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            lim_obs::counter_add("brick_lib.shared_misses", 1);
        }
        let entry = lib.get_or_insert(tech, spec, stack)?;
        Ok(f(entry))
    }

    /// Checks the current library out for a single-threaded flow run:
    /// the copy shares every entry and compiled brick with the shared
    /// library by pointer, so only the pointers are copied.
    pub fn snapshot(&self) -> BrickLibrary {
        self.inner.read().expect("library lock poisoned").clone()
    }

    /// Visits every entry under the read lock without cloning the
    /// library. Keep `f` cheap: it blocks writers.
    pub fn for_each_entry(&self, mut f: impl FnMut(&LibraryEntry)) {
        let lib = self.inner.read().expect("library lock poisoned");
        for entry in lib.entries() {
            f(entry);
        }
    }

    /// Folds `grown` back into the shared library: the entries the run
    /// appended past its checkout that no other run folded back first;
    /// see [`BrickLibrary::absorb`].
    pub fn absorb(&self, grown: BrickLibrary) {
        self.inner
            .write()
            .expect("library lock poisoned")
            .absorb(grown);
    }

    /// Times [`SharedBrickLibrary::with_entry`] found an existing entry.
    pub fn cache_hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Times [`SharedBrickLibrary::with_entry`] had to generate one.
    pub fn cache_misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.inner.read().expect("library lock poisoned").len()
    }

    /// True when no entries are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of distinct specs compiled so far.
    pub fn compiled_count(&self) -> usize {
        self.inner
            .read()
            .expect("library lock poisoned")
            .compiled_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitcell::BitcellKind;

    fn tech() -> Technology {
        Technology::cmos65()
    }

    #[test]
    fn generate_cross_product() {
        let specs = [
            BrickSpec::new(BitcellKind::Sram8T, 16, 10).unwrap(),
            BrickSpec::new(BitcellKind::Sram8T, 32, 12).unwrap(),
        ];
        let lib = BrickLibrary::generate(&tech(), &specs, &[1, 4, 8]).unwrap();
        assert_eq!(lib.len(), 6);
        let e = lib.get("brick_8t_16_10_x4").unwrap();
        assert_eq!(e.stack, 4);
        assert!(lib.get("missing").is_err());
    }

    #[test]
    fn lut_consistent_with_estimate_at_nominal() {
        let specs = [BrickSpec::new(BitcellKind::Sram8T, 16, 10).unwrap()];
        let lib = BrickLibrary::generate(&tech(), &specs, &[1]).unwrap();
        let e = &lib.entries()[0];
        // At the nominal load (8 · c_unit = 11.2 fF) and zero slew the LUT
        // should reproduce the scalar estimate closely.
        let got = e.clk_to_q(Femtofarads::new(11.2), Picoseconds::ZERO);
        let expect = e.estimate.read_delay;
        assert!(
            (got.value() - expect.value()).abs() / expect.value() < 0.05,
            "lut {got} vs estimate {expect}"
        );
        // Heavier load is slower, slower input slew is slower.
        assert!(e.clk_to_q(Femtofarads::new(160.0), Picoseconds::ZERO) > got);
        assert!(e.clk_to_q(Femtofarads::new(11.2), Picoseconds::new(300.0)) > got);
    }

    #[test]
    fn a_new_entry_runs_the_estimator_once() {
        // The clk-to-q LUT is tabulated from the estimate the entry
        // holds, and a hit runs nothing.
        lim_obs::set_enabled(true);
        lim_obs::reset();
        let mut lib = BrickLibrary::new();
        let spec = BrickSpec::new(BitcellKind::Cam, 16, 10).unwrap();
        lib.get_or_insert(&tech(), &spec, 4).unwrap();
        lib.get_or_insert(&tech(), &spec, 4).unwrap();
        let report = lim_obs::Report::capture();
        assert_eq!(report.counter("brick.characterizations"), Some(1));
        assert_eq!(report.counter("brick.compiles"), Some(1));
    }

    #[test]
    fn bank_height_scales_with_stack() {
        let specs = [BrickSpec::new(BitcellKind::Sram8T, 16, 10).unwrap()];
        let lib = BrickLibrary::generate(&tech(), &specs, &[1, 8]).unwrap();
        let h1 = lib.get("brick_8t_16_10_x1").unwrap().height;
        let h8 = lib.get("brick_8t_16_10_x8").unwrap().height;
        assert!((h8.value() / h1.value() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn get_or_insert_caches() {
        let mut lib = BrickLibrary::new();
        let spec = BrickSpec::new(BitcellKind::Sram8T, 16, 10).unwrap();
        let name = lib.get_or_insert(&tech(), &spec, 4).unwrap().name.clone();
        assert_eq!((lib.cache_hits(), lib.cache_misses()), (0, 1));
        // Second request for the same (spec, stack) is a pure hit.
        let again = lib.get_or_insert(&tech(), &spec, 4).unwrap();
        assert_eq!(again.name, name);
        assert_eq!((lib.cache_hits(), lib.cache_misses()), (1, 1));
        assert_eq!(lib.len(), 1);
        // A new stack of the same spec misses the entry cache but reuses
        // the compiled brick.
        lib.get_or_insert(&tech(), &spec, 8).unwrap();
        assert_eq!((lib.cache_hits(), lib.cache_misses()), (1, 2));
        assert_eq!(lib.len(), 2);
        assert_eq!(lib.compiled.len(), 1);
    }

    #[test]
    fn absorb_merges_without_duplicating() {
        let t = tech();
        let spec_a = BrickSpec::new(BitcellKind::Sram8T, 16, 10).unwrap();
        let spec_b = BrickSpec::new(BitcellKind::Sram8T, 32, 12).unwrap();
        let mut base = BrickLibrary::new();
        base.get_or_insert(&t, &spec_a, 1).unwrap();
        let mut grown = base.clone();
        grown.get_or_insert(&t, &spec_a, 4).unwrap(); // new stack, shared spec
        grown.get_or_insert(&t, &spec_b, 1).unwrap(); // new spec
        base.absorb(grown);
        assert_eq!(base.len(), 3);
        assert_eq!(base.compiled_count(), 2);
        assert!(base.get("brick_8t_16_10_x4").is_ok());
        assert!(base.get("brick_8t_32_12_x1").is_ok());
        // Absorbing the same content again changes nothing.
        let snapshot = base.clone();
        base.absorb(snapshot);
        assert_eq!(base.len(), 3);
        assert_eq!(base.compiled_count(), 2);
    }

    #[test]
    fn shared_library_hammer_compiles_each_key_exactly_once() {
        // N threads race on a small key set; every (spec, stack) must be
        // characterized exactly once, every spec compiled exactly once,
        // and hits + misses must account for every request.
        let t = tech();
        let shared = SharedBrickLibrary::default();
        let keys = [
            (BrickSpec::new(BitcellKind::Sram8T, 16, 10).unwrap(), 1usize),
            (BrickSpec::new(BitcellKind::Sram8T, 16, 10).unwrap(), 4),
            (BrickSpec::new(BitcellKind::Sram8T, 32, 12).unwrap(), 2),
            (BrickSpec::new(BitcellKind::Cam, 16, 8).unwrap(), 1),
        ];
        const THREADS: usize = 8;
        const ROUNDS: usize = 16;
        std::thread::scope(|scope| {
            for worker in 0..THREADS {
                let shared = &shared;
                let t = &t;
                let keys = &keys;
                scope.spawn(move || {
                    for round in 0..ROUNDS {
                        // Walk the keys in a worker-dependent order so
                        // contention hits every key from the start.
                        let (spec, stack) = keys[(round + worker) % keys.len()];
                        let name = shared
                            .with_entry(t, &spec, stack, |e| e.name.clone())
                            .unwrap();
                        assert_eq!(name, entry_name(&spec, stack));
                    }
                });
            }
        });
        assert_eq!(shared.len(), keys.len(), "one entry per key");
        assert_eq!(shared.compiled_count(), 3, "one compile per distinct spec");
        assert_eq!(shared.cache_misses(), keys.len() as u64);
        assert_eq!(
            shared.cache_hits() + shared.cache_misses(),
            (THREADS * ROUNDS) as u64,
            "every request is either a hit or a miss"
        );
    }

    #[test]
    fn incremental_add() {
        let mut lib = BrickLibrary::new();
        assert!(lib.is_empty());
        let spec = BrickSpec::new(BitcellKind::Cam, 16, 10).unwrap();
        let name = lib.add(&tech(), &spec, 1).unwrap().name.clone();
        assert_eq!(name, "brick_cam_16_10_x1");
        assert_eq!(lib.len(), 1);
        assert!(lib.get(&name).unwrap().estimate.match_delay.is_some());
    }
}
