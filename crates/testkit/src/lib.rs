//! Hermetic test infrastructure for the LiM synthesis workspace.
//!
//! The build environment has no network registry, so the workspace cannot
//! pull `rand`, `proptest` or `criterion` from crates.io. Everything the
//! flow's validation needs is small and well-understood, so this crate
//! provides self-contained, dependency-free replacements:
//!
//! - [`rng`] — a SplitMix64-seeded xoshiro256++ generator with the subset
//!   of the `rand` API the workspace uses (`gen_range`, `gen`, `gen_bool`,
//!   `shuffle`). Deterministic per seed, stable across platforms and
//!   releases: seeded experiment results (Table 1 error bounds, Fig. 4
//!   configurations, Fig. 6 sweeps) are byte-reproducible.
//! - [`prop`] — a minimal property-testing harness: N seeded cases per
//!   property, failing-seed reporting, environment overrides for
//!   reproduction (`LIM_TESTKIT_SEED`, `LIM_TESTKIT_CASES`).
//! - [`bench`](mod@bench) — a wall-clock timing harness (warmup, auto-batched
//!   samples, median/p95 report) for `harness = false` bench targets.
//!
//! Nothing here depends on anything outside `std`.

#![warn(missing_docs)]

pub mod bench;
pub mod prop;
pub mod rng;

pub use bench::{black_box, Bench, Bencher};
pub use prop::{check, check_with, PropConfig};
pub use rng::TestRng;
