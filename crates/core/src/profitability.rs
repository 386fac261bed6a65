//! The profitability cost model (paper §IV-A).
//!
//! ```text
//! Δ({f1,f2}, f1,2) = (c(f1) + c(f2)) − (c(f1,2) + ε)
//! ε = δ(f1, f1,2) + δ(f2, f1,2)
//! ```
//!
//! where `c` is the target-specific code-size cost (our TTI stand-in,
//! [`fmsa_target::CostModel`]) and `δ` covers "(1) the cases where we need
//! to keep the original functions with a call to the merged function; and
//! (2) for the cases where we update the call graph, there might be an
//! extra cost with a call to the merged function due to the increased
//! number of arguments."

use crate::callsites::{outgoing_calls, CallSiteIndex};
use crate::linearize::Entry;
use crate::merge::MergeInfo;
use crate::thunks::{can_delete, count_call_sites};
use fmsa_align::{Alignment, Step};
use fmsa_ir::{FuncId, Module, Type};
use fmsa_target::CostModel;

/// Detailed outcome of the Δ computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfitReport {
    /// `c(f1)` in bytes.
    pub size_f1: u64,
    /// `c(f2)` in bytes.
    pub size_f2: u64,
    /// `c(f1,2)` in bytes.
    pub size_merged: u64,
    /// The ε extra-cost term in bytes.
    pub epsilon: u64,
    /// The Δ profit; positive means merging shrinks the program.
    pub delta: i64,
}

impl ProfitReport {
    /// "We consider that the merge operation is profitable if Δ > 0."
    pub fn is_profitable(&self) -> bool {
        self.delta > 0
    }
}

/// Evaluates Δ for a completed (but not yet committed) merge.
///
/// Like the paper, `c(f)` sums per-instruction TTI code-size costs — the
/// fixed prologue/epilogue overhead of the symbol is *not* credited, which
/// keeps merges of dissimilar functions (whose merged body exceeds the sum
/// of the originals) unprofitable.
pub fn evaluate(module: &Module, cm: &CostModel, info: &MergeInfo) -> ProfitReport {
    evaluate_counted(module, cm, info, &|f| count_call_sites(module, f))
}

/// [`evaluate`] with call sites answered by a [`CallSiteIndex`] instead of
/// a whole-module scan — `O(f1 + f2 + merged)` instead of `O(module)`.
///
/// `sites` must reflect the *committed* module (it does not know the
/// still-uncommitted merged function); the merged function's own direct
/// calls are counted here from its body, so the result equals what
/// [`evaluate`] would compute over the same module state.
pub fn evaluate_indexed(
    module: &Module,
    cm: &CostModel,
    info: &MergeInfo,
    sites: &CallSiteIndex,
) -> ProfitReport {
    let merged_out = outgoing_calls(module.func(info.merged));
    evaluate_counted(module, cm, info, &|f| {
        sites.count(f) + merged_out.get(&f).copied().unwrap_or(0)
    })
}

fn evaluate_counted(
    module: &Module,
    cm: &CostModel,
    info: &MergeInfo,
    sites_of: &dyn Fn(FuncId) -> usize,
) -> ProfitReport {
    let size_f1 = cm.body_size(module, info.f1);
    let size_f2 = cm.body_size(module, info.f2);
    let size_merged = cm.body_size(module, info.merged);
    let epsilon = delta_cost(module, cm, info, true, sites_of)
        + delta_cost(module, cm, info, false, sites_of);
    let delta = (size_f1 + size_f2) as i64 - (size_merged + epsilon) as i64;
    ProfitReport { size_f1, size_f2, size_merged, epsilon, delta }
}

/// The δ(f_i, f1,2) term for one side.
fn delta_cost(
    module: &Module,
    cm: &CostModel,
    info: &MergeInfo,
    first: bool,
    sites_of: &dyn Fn(FuncId) -> usize,
) -> u64 {
    let func: FuncId = if first { info.f1 } else { info.f2 };
    let ret_orig = if first { info.ret.ty1 } else { info.ret.ty2 };
    let merged_params = info.params.merged_tys.len() as u64;
    let orig_params = module.func(func).params().len() as u64;
    let extra_args = merged_params.saturating_sub(orig_params);
    let ret_cast = if ret_orig == info.ret.base || matches!(module.types.get(ret_orig), Type::Void)
    {
        0
    } else {
        // A short bitcast/trunc chain at each use of the result.
        4
    };
    if can_delete(module, func) {
        // Call-graph update: every call site passes extra arguments and may
        // convert the result.
        let sites = sites_of(func) as u64;
        sites * (extra_args * cm.per_arg_call_cost() + ret_cast)
    } else {
        // Thunk body left in the original symbol: a call forwarding every
        // merged argument plus the return.
        cm.call_cost() + merged_params * cm.per_arg_call_cost() + ret_cast + 1
    }
}

/// An *optimistic* upper bound on the Δ a merge of `f1` and `f2` under
/// `alignment` could achieve, computable before code generation.
///
/// The bound underestimates `c(f1,2)`: every match column emits at least
/// one shared clone (costed at the cheaper side) and every gap/mismatch
/// column clones its instructions into a divergent region, while all of
/// codegen's additions — guard branches, operand selects, demotion
/// slots — and the entire ε term are optimistically taken as zero. So if
/// this bound is ≤ 0, the real Δ of [`evaluate`] is guaranteed ≤ 0 and
/// code generation can be skipped without changing any merge decision;
/// the pipeline uses it as a sound pre-codegen gate.
///
/// Sound, but loose: on the 768-function seed-7 `wasm-batch` corpus the
/// gate skipped none of 2 653 attempts (`gate_skipped=0`), while 2 425 of
/// them (91 %) came out unprofitable after codegen.
pub fn optimistic_delta(
    module: &Module,
    cm: &CostModel,
    f1: FuncId,
    f2: FuncId,
    seq1: &[Entry],
    seq2: &[Entry],
    alignment: &Alignment,
) -> i64 {
    let fa = module.func(f1);
    let fb = module.func(f2);
    let cost1 = |e: &Entry| match e {
        Entry::Inst(i) => cm.inst_cost(fa.inst(*i)),
        Entry::Label(_) => 0,
    };
    let cost2 = |e: &Entry| match e {
        Entry::Inst(i) => cm.inst_cost(fb.inst(*i)),
        Entry::Label(_) => 0,
    };
    let mut lower_bound_merged = 0u64;
    for step in &alignment.steps {
        match *step {
            Step::Both { i, j, matched: true } => {
                lower_bound_merged += cost1(&seq1[i]).min(cost2(&seq2[j]));
            }
            Step::Both { i, j, matched: false } => {
                lower_bound_merged += cost1(&seq1[i]) + cost2(&seq2[j]);
            }
            Step::Left(i) => lower_bound_merged += cost1(&seq1[i]),
            Step::Right(j) => lower_bound_merged += cost2(&seq2[j]),
        }
    }
    let size_f1 = cm.body_size(module, f1);
    let size_f2 = cm.body_size(module, f2);
    (size_f1 + size_f2) as i64 - lower_bound_merged as i64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::{merge_pair, MergeConfig};
    use fmsa_ir::{FuncBuilder, Linkage, Value};
    use fmsa_target::TargetArch;

    /// A pair of near-identical medium functions; merging should win.
    fn similar_pair(m: &mut fmsa_ir::Module) -> (FuncId, FuncId) {
        let i32t = m.types.i32();
        let fn_ty = m.types.func(i32t, vec![i32t, i32t]);
        let mut out = Vec::new();
        for (name, c) in [("fa", 3), ("fb", 4)] {
            let f = m.create_function(name, fn_ty);
            let mut b = FuncBuilder::new(m, f);
            let e = b.block("entry");
            b.switch_to(e);
            let mut v = Value::Param(0);
            for k in 0..10 {
                v = b.add(v, b.const_i32(k));
                v = b.mul(v, Value::Param(1));
            }
            v = b.add(v, b.const_i32(c)); // the single difference
            b.ret(Some(v));
            out.push(f);
        }
        (out[0], out[1])
    }

    #[test]
    fn near_identical_pair_is_profitable() {
        let mut m = fmsa_ir::Module::new("m");
        let (fa, fb) = similar_pair(&mut m);
        let info = merge_pair(&mut m, fa, fb, &MergeConfig::default()).expect("merges");
        let cm = CostModel::new(TargetArch::X86_64);
        let report = evaluate(&m, &cm, &info);
        assert!(report.is_profitable(), "{report:?}");
        assert!(report.size_merged < report.size_f1 + report.size_f2);
    }

    #[test]
    fn dissimilar_pair_is_unprofitable() {
        let mut m = fmsa_ir::Module::new("m");
        let i32t = m.types.i32();
        let f64t = m.types.f64();
        let fn1 = m.types.func(i32t, vec![i32t]);
        let fn2 = m.types.func(f64t, vec![f64t]);
        let fa = m.create_function("fa", fn1);
        {
            let mut b = FuncBuilder::new(&mut m, fa);
            let e = b.block("entry");
            b.switch_to(e);
            let mut v = Value::Param(0);
            for k in 0..8 {
                v = b.xor(v, b.const_i32(k));
            }
            b.ret(Some(v));
        }
        let fb = m.create_function("fb", fn2);
        {
            let mut b = FuncBuilder::new(&mut m, fb);
            let e = b.block("entry");
            b.switch_to(e);
            let mut v = Value::Param(0);
            for _ in 0..8 {
                v = b.fdiv(v, b.const_f64(1.5));
            }
            b.ret(Some(v));
        }
        let info = merge_pair(&mut m, fa, fb, &MergeConfig::default()).expect("merge builds");
        let cm = CostModel::new(TargetArch::X86_64);
        let report = evaluate(&m, &cm, &info);
        assert!(!report.is_profitable(), "{report:?}");
    }

    #[test]
    fn evaluate_indexed_matches_direct_scan() {
        let mut m = fmsa_ir::Module::new("m");
        let (fa, fb) = similar_pair(&mut m);
        // A caller of fa so the call-site count is non-trivial.
        let i32t = m.types.i32();
        let fn_ty = m.types.func(i32t, vec![i32t]);
        let caller = m.create_function("caller", fn_ty);
        {
            let mut b = FuncBuilder::new(&mut m, caller);
            let e = b.block("entry");
            b.switch_to(e);
            let r = b.call(fa, vec![Value::Param(0), Value::Param(0)]);
            b.ret(Some(r));
        }
        let idx = crate::callsites::CallSiteIndex::build(&m);
        let info = merge_pair(&mut m, fa, fb, &MergeConfig::default()).expect("merges");
        let cm = CostModel::new(TargetArch::X86_64);
        // The index was built before the (uncommitted) merged function was
        // added; evaluate_indexed must still agree with the direct scan.
        assert_eq!(evaluate_indexed(&m, &cm, &info, &idx), evaluate(&m, &cm, &info));
    }

    #[test]
    fn optimistic_delta_bounds_real_delta() {
        use crate::linearize::linearize;
        use crate::merge::align_with;
        let mut m = fmsa_ir::Module::new("m");
        let (fa, fb) = similar_pair(&mut m);
        let cfg = MergeConfig::default();
        let cm = CostModel::new(TargetArch::X86_64);
        let seq1 = linearize(m.func(fa));
        let seq2 = linearize(m.func(fb));
        let al = align_with(&m, fa, fb, &seq1, &seq2, &cfg.scoring, cfg.algorithm);
        let optimistic = optimistic_delta(&m, &cm, fa, fb, &seq1, &seq2, &al);
        let info = merge_pair(&mut m, fa, fb, &cfg).expect("merges");
        let report = evaluate(&m, &cm, &info);
        assert!(
            optimistic >= report.delta,
            "optimistic {optimistic} must bound real {}",
            report.delta
        );
        // A near-identical pair must look promising to the gate.
        assert!(optimistic > 0);
    }

    #[test]
    fn external_linkage_pays_thunk_costs() {
        let mut m = fmsa_ir::Module::new("m");
        let (fa, fb) = similar_pair(&mut m);
        let info = merge_pair(&mut m, fa, fb, &MergeConfig::default()).expect("merges");
        let cm = CostModel::new(TargetArch::X86_64);
        let deletable = evaluate(&m, &cm, &info);
        m.func_mut(fa).linkage = Linkage::External;
        m.func_mut(fb).linkage = Linkage::External;
        let thunked = evaluate(&m, &cm, &info);
        assert!(
            thunked.epsilon > deletable.epsilon,
            "thunks cost more than call-graph updates with no callers"
        );
        assert!(thunked.delta < deletable.delta);
    }
}
