//! # fmsa-workloads — synthetic benchmarks calibrated to the paper
//!
//! The paper evaluates on C/C++ SPEC CPU2006 and MiBench, which require
//! proprietary sources and a C compiler. This crate substitutes seeded
//! synthetic IR modules whose *statistics are calibrated to Tables I and
//! II*: per-benchmark function counts, size distributions, and — crucially
//! — controlled *clone families* whose mergeability class matches what
//! each technique can exploit:
//!
//! | family kind | mergeable by |
//! |---|---|
//! | exact clones | Identical, SOA, FMSA |
//! | same-CFG body mutations | SOA, FMSA |
//! | type-theme clones (Fig. 1) | FMSA only |
//! | extra-block clones (Fig. 2) | FMSA only |
//! | signature mutations | FMSA only |
//!
//! so the qualitative results (who wins, by what factor, and where) carry
//! over to the reproduction. See DESIGN.md §1 for the substitution
//! rationale.

#![warn(missing_docs)]

pub mod driver;
pub mod gen;
pub mod motivating;
pub mod suite;
pub mod swarm;
pub mod wasm_fixtures;

pub use driver::{add_driver, DriverConfig};
pub use gen::{generate_function, GenConfig, TypeTheme, Variant};
pub use suite::{build_module, mibench_suite, spec_suite, BenchDesc, FamilyMix, Suite, SCALE};
pub use swarm::{calling_swarm, clone_swarm_module, stream_chunks, ChunkSpec, SwarmConfig};
pub use wasm_fixtures::{wasm_fixture_bytes, WasmFixtureConfig};
