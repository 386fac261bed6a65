//! Linearization of CFGs into sequences (paper §III-B).
//!
//! "It takes the CFG of the function, specifies a traversal order of the
//! basic blocks, and for each block outputs its label and its instructions.
//! ... We empirically chose a reverse post-order traversal with a canonical
//! ordering of successor basic blocks."

use crate::equivalence::{class_keys, ClassKey};
use fmsa_ir::{cfg, BlockId, FuncId, Function, InstId, Module};
use std::collections::HashMap;
use std::sync::Arc;

/// One element of a linearized function: the alphabet of the sequence
/// alignment is "all possible typed instructions and labels" (§III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Entry {
    /// A basic-block label.
    Label(BlockId),
    /// An instruction.
    Inst(InstId),
}

impl Entry {
    /// The block id, if this is a label.
    pub fn as_label(&self) -> Option<BlockId> {
        match self {
            Entry::Label(b) => Some(*b),
            Entry::Inst(_) => None,
        }
    }

    /// The instruction id, if this is an instruction.
    pub fn as_inst(&self) -> Option<InstId> {
        match self {
            Entry::Inst(i) => Some(*i),
            Entry::Label(_) => None,
        }
    }
}

/// Linearizes `f`: reverse post-order over reachable blocks, emitting each
/// block's label followed by its instructions in block order. Instruction
/// order inside blocks is preserved, and CFG edges stay implicit in branch
/// operands, exactly as in the paper's Fig. 4.
pub fn linearize(f: &Function) -> Vec<Entry> {
    let mut out = Vec::with_capacity(f.inst_count() + f.block_count());
    for b in cfg::reverse_post_order(f) {
        out.push(Entry::Label(b));
        out.extend(f.block(b).insts.iter().map(|&i| Entry::Inst(i)));
    }
    out
}

/// One function's linearization and the class ids of its entries.
#[derive(Debug)]
pub struct Linearized {
    entries: Vec<Entry>,
    ids: Vec<u32>,
}

impl Linearized {
    /// The linearized entries (§III-B).
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// `ids()[k]` is the interned §III-D class of `entries()[k]`: an
    /// entry of one function is equivalent to an entry of another exactly
    /// when their ids, from the same [`LinearizationCache`], are equal.
    /// Ids are only ever compared for equality; their numbering depends
    /// on the order the cache saw functions in.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }
}

/// A cache of linearizations, with their class ids, keyed by function id.
///
/// The sequential pass linearizes both functions of every merge attempt,
/// so a function that appears as a candidate of many subjects is
/// re-linearized once per attempt. The pipeline keeps one
/// [`LinearizationCache`] for the whole pass and invalidates entries only
/// when a commit mutates the function (thunked originals, rewritten
/// callers), so each function is linearized once per *generation* instead.
///
/// Beside each linearization the cache keeps the entries' class ids: the
/// canonical key of every entry under the §III-D relation, interned
/// through one interner the cache owns. Alignment then compares `u32`s,
/// and the relation is evaluated once per instruction instead of once
/// per DP cell.
///
/// Entries are `Arc<Linearized>` so the read-only parallel prepare stage
/// can share them across workers without cloning; the cache itself is
/// filled sequentially (it hands out shared references once populated).
#[derive(Debug, Clone, Default)]
pub struct LinearizationCache {
    map: HashMap<FuncId, Arc<Linearized>>,
    classes: HashMap<ClassKey, u32>,
}

impl LinearizationCache {
    /// An empty cache.
    pub fn new() -> LinearizationCache {
        LinearizationCache::default()
    }

    /// The linearization of `f` with its class ids, computing, interning
    /// and caching them on a miss.
    pub fn get(&mut self, module: &Module, f: FuncId) -> Arc<Linearized> {
        if let Some(lin) = self.map.get(&f) {
            return Arc::clone(lin);
        }
        let (entries, keys) = linearize_with_keys(module, f);
        let lin = Arc::new(Linearized { entries, ids: self.intern(keys) });
        self.map.insert(f, Arc::clone(&lin));
        lin
    }

    /// The cached linearization of `f`, if present (lock-free read path
    /// for workers; the scheduler pre-fills entries before a generation).
    pub fn cached(&self, f: FuncId) -> Option<Arc<Linearized>> {
        self.map.get(&f).map(Arc::clone)
    }

    /// Fills the cache for every function of `funcs` not already present,
    /// computing the missing linearizations and class keys on `pool`
    /// (inline on a single-thread pool) and interning the keys
    /// sequentially, in input order. Returns the summed per-function
    /// compute time — the stage's CPU time, reported against its
    /// wall-clock by the pipeline. [`linearize`] is deterministic, so a
    /// pre-filled cache holds the same sequences as one filled by
    /// sequential [`LinearizationCache::get`] calls, and its ids induce
    /// the same equalities.
    pub fn prefill(
        &mut self,
        module: &Module,
        funcs: &[FuncId],
        pool: &rayon::ThreadPool,
    ) -> std::time::Duration {
        let mut misses: Vec<FuncId> = Vec::new();
        let mut seen: std::collections::HashSet<FuncId> = std::collections::HashSet::new();
        for &f in funcs {
            if !self.map.contains_key(&f) && seen.insert(f) {
                misses.push(f);
            }
        }
        let cpu = std::sync::atomic::AtomicU64::new(0);
        let computed = pool.par_map(&misses, |_, &f| {
            let t = std::time::Instant::now();
            let lin = linearize_with_keys(module, f);
            cpu.fetch_add(t.elapsed().as_nanos() as u64, std::sync::atomic::Ordering::Relaxed);
            (f, lin)
        });
        for (f, (entries, keys)) in computed {
            let ids = self.intern(keys);
            self.map.insert(f, Arc::new(Linearized { entries, ids }));
        }
        std::time::Duration::from_nanos(cpu.into_inner())
    }

    /// The ids of `keys`, assigning the next free id to each new class.
    fn intern(&mut self, keys: Vec<ClassKey>) -> Vec<u32> {
        keys.into_iter()
            .map(|key| {
                let next = u32::try_from(self.classes.len()).expect("fewer than 2^32 classes");
                *self.classes.entry(key).or_insert(next)
            })
            .collect()
    }

    /// Drops the entry for `f`, linearization and ids together (call when
    /// the function body changed or the function was removed).
    pub fn invalidate(&mut self, f: FuncId) {
        self.map.remove(&f);
    }

    /// Number of cached functions.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// `f`'s linearization and the class key of each entry.
fn linearize_with_keys(module: &Module, f: FuncId) -> (Vec<Entry>, Vec<ClassKey>) {
    let entries = linearize(module.func(f));
    let keys = class_keys(module, f, &entries);
    (entries, keys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmsa_ir::{FuncBuilder, IntPredicate, Module, Value};

    fn diamond_module() -> (Module, fmsa_ir::FuncId) {
        let mut m = Module::new("m");
        let i32t = m.types.i32();
        let fn_ty = m.types.func(i32t, vec![i32t]);
        let f = m.create_function("f", fn_ty);
        let mut b = FuncBuilder::new(&mut m, f);
        let entry = b.block("entry");
        let t = b.block("t");
        let e = b.block("e");
        let join = b.block("join");
        b.switch_to(entry);
        let c = b.icmp(IntPredicate::Sgt, Value::Param(0), b.const_i32(0));
        b.condbr(c, t, e);
        b.switch_to(t);
        b.br(join);
        b.switch_to(e);
        b.br(join);
        b.switch_to(join);
        b.ret(Some(Value::Param(0)));
        (m, f)
    }

    #[test]
    fn label_then_instructions() {
        let (m, f) = diamond_module();
        let seq = linearize(m.func(f));
        // 4 labels + 5 instructions.
        assert_eq!(seq.len(), 9);
        assert!(matches!(seq[0], Entry::Label(_)));
        assert!(matches!(seq[1], Entry::Inst(_))); // icmp
        assert!(matches!(seq[2], Entry::Inst(_))); // condbr
        assert!(matches!(seq[3], Entry::Label(_))); // then
        let labels = seq.iter().filter(|e| e.as_label().is_some()).count();
        assert_eq!(labels, 4);
    }

    #[test]
    fn instruction_order_within_blocks_preserved() {
        let (m, f) = diamond_module();
        let seq = linearize(m.func(f));
        let func = m.func(f);
        // For each block, the instruction subsequence after its label must
        // equal the block's instruction list.
        let mut idx = 0;
        while idx < seq.len() {
            let Entry::Label(b) = seq[idx] else { panic!("expected label at {idx}") };
            let insts = &func.block(b).insts;
            for (k, &expect) in insts.iter().enumerate() {
                assert_eq!(seq[idx + 1 + k], Entry::Inst(expect));
            }
            idx += 1 + insts.len();
        }
    }

    #[test]
    fn deterministic_linearization() {
        let (m, f) = diamond_module();
        assert_eq!(linearize(m.func(f)), linearize(m.func(f)));
    }

    #[test]
    fn declarations_linearize_empty() {
        let mut m = Module::new("m");
        let fn_ty = m.types.func(m.types.void(), vec![]);
        let f = m.create_function("decl", fn_ty);
        assert!(linearize(m.func(f)).is_empty());
    }

    #[test]
    fn prefill_matches_sequential_gets() {
        let (m, f) = diamond_module();
        let pool = rayon::ThreadPoolBuilder::new().num_threads(4).build().expect("pool");
        let mut cache = LinearizationCache::new();
        cache.prefill(&m, &[f, f], &pool);
        assert_eq!(cache.len(), 1, "duplicates collapse to one entry");
        let mut seq_cache = LinearizationCache::new();
        let pre = cache.cached(f).expect("pre-filled");
        let got = seq_cache.get(&m, f);
        assert_eq!(pre.entries(), got.entries());
        assert_eq!(pre.ids(), got.ids());
        // Pre-filling again is a no-op on hits.
        cache.prefill(&m, &[f], &pool);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn cache_returns_same_sequence_and_invalidates() {
        let (m, f) = diamond_module();
        let mut cache = LinearizationCache::new();
        assert!(cache.cached(f).is_none());
        let a = cache.get(&m, f);
        assert_eq!(a.entries(), &linearize(m.func(f))[..]);
        assert_eq!(a.ids().len(), a.entries().len());
        // Second fetch shares the same allocation.
        let b = cache.get(&m, f);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
        assert!(cache.cached(f).is_some());
        cache.invalidate(f);
        assert!(cache.cached(f).is_none());
        assert!(cache.is_empty());
    }
}
