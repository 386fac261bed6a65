//! Large-module "clone swarm" generator for search-scalability work.
//!
//! The suite descriptors ([`crate::suite`]) are calibrated to the paper's
//! benchmarks and therefore top out at a few thousand functions. The
//! candidate-search subsystem targets modules one to two orders of
//! magnitude larger, so this generator builds modules with a controlled
//! shape at arbitrary scale: many small *clone families* (members of one
//! family share a seed and differ by body-mutation variants, so FMSA can
//! merge them) buried in *noise* functions with unique seeds (mergeable
//! only by accident). That makes the quadratic→near-linear crossover of
//! `ExactSearch` vs `LshSearch` measurable while keeping a realistic mix
//! of productive and unproductive candidates.

use crate::gen::{generate_function, GenConfig, Variant};
use fmsa_ir::{FuncBuilder, Linkage, Module, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shape of a generated clone-swarm module.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwarmConfig {
    /// Total number of functions to generate.
    pub functions: usize,
    /// Members per clone family.
    pub family_size: usize,
    /// Fraction of `functions` that belong to clone families (the rest is
    /// noise), in `[0, 1]`.
    pub clone_fraction: f64,
    /// Approximate instructions per function.
    pub target_size: usize,
    /// Master seed; everything else derives from it deterministically.
    pub seed: u64,
}

impl Default for SwarmConfig {
    fn default() -> Self {
        SwarmConfig {
            functions: 1000,
            family_size: 2,
            clone_fraction: 0.5,
            target_size: 40,
            seed: 0x5aa5_0001,
        }
    }
}

impl SwarmConfig {
    /// Convenience: a swarm of `functions` functions with the default mix.
    pub fn with_functions(functions: usize) -> SwarmConfig {
        SwarmConfig { functions, ..SwarmConfig::default() }
    }

    /// Number of complete clone families this configuration yields.
    pub fn families(&self) -> usize {
        let clones = (self.functions as f64 * self.clone_fraction) as usize;
        clones / self.family_size.max(2)
    }
}

/// Builds the module described by `cfg`.
pub fn clone_swarm_module(cfg: &SwarmConfig) -> Module {
    let mut module = Module::new(format!("swarm-{}", cfg.functions));
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let family_size = cfg.family_size.max(2);
    let families = cfg.families();
    let family_fns = families * family_size;
    let noise = cfg.functions.saturating_sub(family_fns);

    let gen_cfg = |size: usize| GenConfig { target_size: size, ..GenConfig::default() };
    // Family members share one seed; non-exact members get body variants so
    // the family is FMSA-mergeable but not byte-identical.
    for fam in 0..families {
        let fam_seed: u64 = rng.gen();
        let size = cfg.target_size / 2 + (fam_seed as usize % cfg.target_size.max(1));
        for member in 0..family_size {
            let variant = if member == 0 { Variant::exact() } else { Variant::body(member as u64) };
            generate_function(
                &mut module,
                &format!("fam{fam}_m{member}"),
                fam_seed,
                &gen_cfg(size),
                &variant,
            );
        }
    }
    for k in 0..noise {
        let seed: u64 = rng.gen();
        let size = cfg.target_size / 2 + (seed as usize % cfg.target_size.max(1));
        generate_function(
            &mut module,
            &format!("noise{k}"),
            seed,
            &gen_cfg(size),
            &Variant::exact(),
        );
    }
    module
}

/// One chunk of a streamed corpus: a generation *recipe*, not a module.
///
/// Million-function experiments cannot hold the whole corpus in memory;
/// [`stream_chunks`] yields descriptors and the caller materializes one
/// chunk at a time ([`ChunkSpec::materialize`]), processes it, and drops
/// it — peak memory is bounded by one chunk regardless of corpus size.
#[derive(Debug, Clone, PartialEq)]
pub enum ChunkSpec {
    /// A clone-swarm chunk generated directly as IR.
    Swarm(SwarmConfig),
    /// A wasm-fixture chunk: serialized to real wasm bytes, then decoded
    /// and lowered through the frontend — the corpus mixes in binaries
    /// the full parse→lower path has to chew through.
    Wasm(crate::wasm_fixtures::WasmFixtureConfig),
}

impl ChunkSpec {
    /// Number of functions this chunk will contain.
    pub fn functions(&self) -> usize {
        match self {
            ChunkSpec::Swarm(c) => c.functions,
            ChunkSpec::Wasm(c) => c.functions,
        }
    }

    /// Builds the chunk's module. Wasm chunks round-trip through real
    /// bytes: encode → parse → lower.
    pub fn materialize(&self) -> Module {
        match self {
            ChunkSpec::Swarm(c) => clone_swarm_module(c),
            ChunkSpec::Wasm(c) => {
                let bytes = crate::wasm_fixtures::wasm_fixture_bytes(c);
                fmsa_wasm::load_wasm(&bytes, &format!("wasm-chunk-{:x}", c.seed))
                    .expect("generated fixtures stay within the supported subset")
            }
        }
    }
}

/// Splitmix64-style seed derivation so chunks are decorrelated but the
/// whole stream is a pure function of the master seed.
fn derive_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed.wrapping_add(k.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Streams a `total`-function corpus as chunk descriptors of at most
/// `chunk` functions each. Every eighth chunk is a wasm-fixture binary
/// (repeated with per-chunk seed variation); the rest are clone swarms.
/// The stream is deterministic in `(total, chunk, seed)` and covers
/// exactly `total` functions.
pub fn stream_chunks(total: usize, chunk: usize, seed: u64) -> impl Iterator<Item = ChunkSpec> {
    let chunk = chunk.max(2);
    let chunks = total.div_ceil(chunk);
    (0..chunks).map(move |k| {
        let n = chunk.min(total - k * chunk);
        let chunk_seed = derive_seed(seed, k as u64);
        if k % 8 == 7 {
            ChunkSpec::Wasm(crate::wasm_fixtures::WasmFixtureConfig {
                functions: n,
                seed: chunk_seed,
                ..Default::default()
            })
        } else {
            ChunkSpec::Swarm(SwarmConfig {
                functions: n,
                seed: chunk_seed,
                ..SwarmConfig::default()
            })
        }
    })
}

/// Families of near-clones with cross-calls and mixed linkage: deletable
/// sides with live callers and thunked (external) sides force the
/// batched commit's conflict fallback, while caller-less families
/// exercise the deferred path — both in one module. `families ×
/// members` functions `fam{f}_m{k}`, each a chain of adds and muls,
/// about 40 % of them calling a random member, 20 % externally linked.
pub fn calling_swarm(seed: u64, families: usize, members: usize) -> Module {
    let mut m = Module::new("calling_swarm");
    let i32t = m.types.i32();
    let fn_ty = m.types.func(i32t, vec![i32t]);
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut ids = Vec::new();
    for fam in 0..families {
        for mem in 0..members {
            let f = m.create_function(format!("fam{fam}_m{mem}"), fn_ty);
            if next() % 100 < 20 {
                m.func_mut(f).linkage = Linkage::External;
            }
            ids.push(f);
        }
    }
    for (k, &f) in ids.iter().enumerate().collect::<Vec<_>>() {
        let fam = k / members;
        let callee = ids[(next() as usize) % ids.len()];
        let cross_call = next() % 100 < 40 && callee != f;
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.block("entry");
        b.switch_to(e);
        let mut v = Value::Param(0);
        for j in 0..10 {
            v = b.add(v, b.const_i32((fam * 3 + j) as i32));
            v = b.mul(v, Value::Param(0));
        }
        if cross_call {
            v = b.call(callee, vec![v]);
        }
        v = b.xor(v, b.const_i32((k % members) as i32));
        b.ret(Some(v));
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swarm_has_requested_count_and_verifies() {
        let cfg = SwarmConfig { functions: 60, ..SwarmConfig::default() };
        let m = clone_swarm_module(&cfg);
        assert_eq!(m.func_count(), 60);
        let errs = fmsa_ir::verify_module(&m);
        assert!(errs.is_empty(), "{errs:?}");
    }

    #[test]
    fn swarm_is_deterministic() {
        let cfg = SwarmConfig { functions: 40, ..SwarmConfig::default() };
        let a = fmsa_ir::printer::print_module(&clone_swarm_module(&cfg));
        let b = fmsa_ir::printer::print_module(&clone_swarm_module(&cfg));
        assert_eq!(a, b);
    }

    #[test]
    fn family_count_matches_config() {
        let cfg = SwarmConfig {
            functions: 100,
            family_size: 2,
            clone_fraction: 0.5,
            ..SwarmConfig::default()
        };
        assert_eq!(cfg.families(), 25);
        let m = clone_swarm_module(&cfg);
        let fam_members =
            m.func_ids().iter().filter(|&&f| m.func(f).name.starts_with("fam")).count();
        assert_eq!(fam_members, 50);
    }

    #[test]
    fn stream_covers_total_exactly_and_mixes_kinds() {
        let specs: Vec<ChunkSpec> = stream_chunks(2_500, 200, 42).collect();
        assert_eq!(specs.len(), 13, "ceil(2500/200)");
        assert_eq!(specs.iter().map(ChunkSpec::functions).sum::<usize>(), 2_500);
        assert_eq!(specs.last().map(ChunkSpec::functions), Some(100), "remainder chunk");
        assert!(specs.iter().any(|s| matches!(s, ChunkSpec::Swarm(_))));
        assert!(specs.iter().any(|s| matches!(s, ChunkSpec::Wasm(_))));
        // Chunks are decorrelated: no two share a seed.
        let mut seeds: Vec<u64> = specs
            .iter()
            .map(|s| match s {
                ChunkSpec::Swarm(c) => c.seed,
                ChunkSpec::Wasm(c) => c.seed,
            })
            .collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 13);
        // Determinism: the stream is a pure function of its inputs.
        let again: Vec<ChunkSpec> = stream_chunks(2_500, 200, 42).collect();
        assert_eq!(specs, again);
    }

    #[test]
    fn stream_chunks_materialize_and_verify() {
        for spec in stream_chunks(130, 16, 7) {
            let m = spec.materialize();
            assert_eq!(m.func_count(), spec.functions());
            let errs = fmsa_ir::verify_module(&m);
            assert!(errs.is_empty(), "{spec:?}: {errs:?}");
        }
    }

    #[test]
    fn larger_family_sizes_supported() {
        let cfg = SwarmConfig {
            functions: 30,
            family_size: 3,
            clone_fraction: 0.6,
            ..SwarmConfig::default()
        };
        let m = clone_swarm_module(&cfg);
        assert_eq!(m.func_count(), 30);
        assert!(fmsa_ir::verify_module(&m).is_empty());
    }
}
