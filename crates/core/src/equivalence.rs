//! The equivalence relation over linearized entries (paper §III-D).
//!
//! Two instructions are equivalent if (1) their opcodes are equivalent,
//! (2) their result types are equivalent, and (3) they have pairwise
//! operands with equivalent types, where types are equivalent when they can
//! be bitcast losslessly. Labels of normal blocks are always equivalent to
//! each other; landing-block labels require identical landing-pad
//! instructions.
//!
//! Deviations from the paper, both conservative (they only *reject* merges
//! the paper might accept):
//!
//! * matched calls/invokes must target the *same* callee — selecting
//!   between two callees at runtime would need indirect calls, which the
//!   interpreter substrate does not model;
//! * `getelementptr` pairs must agree on the source element type and on
//!   every struct-field index (field offsets are compile-time constants
//!   and cannot be selected at runtime).
//!
//! Apart from entries equivalent to nothing (φ-nodes, GEPs with a bad
//! struct index), the relation is an equivalence, so each entry has a
//! canonical class key, computed once per entry by `class_keys`, and two
//! entries of different functions have equal keys exactly when
//! [`EquivCtx::entries_equivalent`] holds. The
//! [`crate::LinearizationCache`] interns the keys into `u32` ids, which
//! the pipeline aligns instead of evaluating the predicate per DP cell.
//! [`EquivCtx`] stays the reference: the reference driver uses it, and
//! tests check the keys against it.

use crate::linearize::Entry;
use fmsa_ir::{
    BlockId, ExtraData, FloatPredicate, FuncId, Function, Inst, IntPredicate, Module, Opcode, TyId,
    Type, TypeStore, Value,
};

/// Equivalence context: the module plus the two functions being aligned.
#[derive(Debug, Clone, Copy)]
pub struct EquivCtx<'a> {
    /// The module owning both functions.
    pub module: &'a Module,
    /// First function.
    pub f1: &'a Function,
    /// Second function.
    pub f2: &'a Function,
}

impl<'a> EquivCtx<'a> {
    /// Builds a context for aligning `f1` against `f2`.
    pub fn new(module: &'a Module, f1: &'a Function, f2: &'a Function) -> EquivCtx<'a> {
        EquivCtx { module, f1, f2 }
    }

    /// The §III-D equivalence over linearized entries.
    pub fn entries_equivalent(&self, e1: &Entry, e2: &Entry) -> bool {
        match (e1, e2) {
            (Entry::Label(b1), Entry::Label(b2)) => self.labels_equivalent(*b1, *b2),
            (Entry::Inst(i1), Entry::Inst(i2)) => {
                self.insts_equivalent(self.f1.inst(*i1), self.f2.inst(*i2))
            }
            _ => false,
        }
    }

    /// "Labels of normal basic blocks are ignored during code equivalence
    /// evaluation, but we cannot do the same for landing blocks."
    pub fn labels_equivalent(&self, b1: fmsa_ir::BlockId, b2: fmsa_ir::BlockId) -> bool {
        let l1 = self.f1.is_landing_block(b1);
        let l2 = self.f2.is_landing_block(b2);
        match (l1, l2) {
            (false, false) => true,
            (true, true) => {
                let p1 = self.f1.inst(self.f1.block(b1).insts[0]);
                let p2 = self.f2.inst(self.f2.block(b2).insts[0]);
                self.landingpads_identical(p1, p2)
            }
            _ => false,
        }
    }

    /// "Landing-pad instructions are equivalent if they have exactly the
    /// same type and also encode identical lists of exception and cleanup
    /// handlers."
    fn landingpads_identical(&self, p1: &Inst, p2: &Inst) -> bool {
        p1.opcode == Opcode::LandingPad
            && p2.opcode == Opcode::LandingPad
            && p1.ty == p2.ty
            && p1.extra == p2.extra
    }

    /// Instruction equivalence (§III-D).
    pub fn insts_equivalent(&self, i1: &Inst, i2: &Inst) -> bool {
        let ts = &self.module.types;
        // (1) Opcode equivalence. We use exact opcode equality; the IR has
        // no instruction flags, so there are no distinct-but-equivalent
        // opcodes to unify.
        if i1.opcode != i2.opcode {
            return false;
        }
        // φ-nodes are assumed demoted before merging (§III); never merge
        // any that remain.
        if i1.opcode == Opcode::Phi {
            return false;
        }
        // (2) Equivalent result types.
        if !ts.can_lossless_bitcast(i1.ty, i2.ty) {
            return false;
        }
        // (3) Pairwise operands with equivalent types.
        if i1.operands.len() != i2.operands.len() {
            return false;
        }
        for (&o1, &o2) in i1.operands.iter().zip(&i2.operands) {
            let label1 = matches!(o1, Value::Block(_));
            let label2 = matches!(o2, Value::Block(_));
            if label1 != label2 {
                return false;
            }
            if label1 {
                continue; // label operands are resolved by codegen
            }
            let (t1, t2) = (self.op_ty1(o1), self.op_ty2(o2));
            match (t1, t2) {
                (Some(a), Some(b)) if ts.can_lossless_bitcast(a, b) => {}
                _ => return false,
            }
        }
        // Opcode-specific payloads.
        match (&i1.extra, &i2.extra) {
            (ExtraData::None, ExtraData::None) => {}
            (ExtraData::ICmp(a), ExtraData::ICmp(b)) if a == b => {}
            (ExtraData::FCmp(a), ExtraData::FCmp(b)) if a == b => {}
            (ExtraData::Alloca { allocated: a }, ExtraData::Alloca { allocated: b }) => {
                // Merged allocas must reserve the same amount of memory and
                // alignment; identical size suffices since loads/stores go
                // through bitcast-equivalent pointers.
                if ts.byte_size(*a) != ts.byte_size(*b) || ts.align_of(*a) != ts.align_of(*b) {
                    return false;
                }
            }
            (ExtraData::Gep { source_elem: a }, ExtraData::Gep { source_elem: b }) => {
                if a != b || !self.gep_struct_indices_identical(i1, i2, *a) {
                    return false;
                }
            }
            (ExtraData::LandingPad { .. }, ExtraData::LandingPad { .. }) => {
                if !self.landingpads_identical(i1, i2) {
                    return false;
                }
            }
            (ExtraData::AggIndices(a), ExtraData::AggIndices(b)) => {
                if a != b || i1.ty != i2.ty {
                    return false;
                }
            }
            _ => return false,
        }
        // Switch case values are immediate constants in the encoding; they
        // cannot be selected at runtime, so matched switches must agree on
        // every case constant (targets may differ — codegen selects labels
        // through divergent control flow).
        if i1.opcode == Opcode::Switch {
            for (k, (&o1, &o2)) in i1.operands.iter().zip(&i2.operands).enumerate() {
                let is_case_const = k >= 2 && k % 2 == 0;
                if is_case_const && o1 != o2 {
                    return false;
                }
            }
        }
        // Calls: "type equivalence means that both instructions have
        // identical function types" — and (see module docs) we further
        // require the same callee to stay within direct calls.
        if matches!(i1.opcode, Opcode::Call | Opcode::Invoke) {
            if i1.operands[0] != i2.operands[0] {
                return false;
            }
            // Invoke: unwind landing blocks must carry identical pads.
            if i1.opcode == Opcode::Invoke {
                let u1 = i1.operands[i1.operands.len() - 1].as_block();
                let u2 = i2.operands[i2.operands.len() - 1].as_block();
                match (u1, u2) {
                    (Some(u1), Some(u2)) => {
                        if !self.labels_equivalent(u1, u2) {
                            return false;
                        }
                    }
                    _ => return false,
                }
            }
        }
        true
    }

    /// Struct-field GEP indices must be identical constants (they select
    /// compile-time offsets); array/pointer indices may differ (codegen
    /// selects them at runtime).
    fn gep_struct_indices_identical(&self, i1: &Inst, i2: &Inst, source: fmsa_ir::TyId) -> bool {
        let ts = &self.module.types;
        let mut cur = source;
        // operands[1] indexes the source element itself (array semantics);
        // subsequent operands walk into the type.
        for (k, (&o1, &o2)) in i1.operands[1..].iter().zip(&i2.operands[1..]).enumerate() {
            if k > 0 {
                match ts.get(cur) {
                    Type::Struct { fields, .. } => {
                        if o1 != o2 {
                            return false;
                        }
                        let Value::ConstInt { bits, .. } = o1 else { return false };
                        match fields.get(bits as usize) {
                            Some(&f) => cur = f,
                            None => return false,
                        }
                        continue;
                    }
                    Type::Array { elem, .. } => {
                        cur = *elem;
                    }
                    _ => return false,
                }
            }
        }
        true
    }

    fn op_ty1(&self, v: Value) -> Option<fmsa_ir::TyId> {
        self.operand_ty(self.f1, v)
    }

    fn op_ty2(&self, v: Value) -> Option<fmsa_ir::TyId> {
        self.operand_ty(self.f2, v)
    }

    fn operand_ty(&self, f: &Function, v: Value) -> Option<fmsa_ir::TyId> {
        match v {
            Value::Func(g) => Some(self.module.func(g).fn_ty()),
            Value::Block(_) => None,
            _ => Some(f.value_ty(v, &self.module.types)),
        }
    }
}

/// A type's class under [`fmsa_ir::TypeStore::can_lossless_bitcast`],
/// which is an equivalence: any two pointers are interchangeable, ints
/// and floating-point types are interchangeable at equal bit width, and
/// every other type (aggregates, `void`, labels, function types) only
/// matches itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum TyClass {
    Ptr,
    Bits(u64),
    Exact(TyId),
}

fn ty_class(ts: &TypeStore, ty: TyId) -> TyClass {
    match ts.get(ty) {
        Type::Ptr { .. } => TyClass::Ptr,
        Type::Int(_) | Type::Half | Type::Float | Type::Double => {
            TyClass::Bits(ts.bit_size(ty).expect("scalar types have a bit size"))
        }
        _ => TyClass::Exact(ty),
    }
}

/// What [`EquivCtx::labels_equivalent`] compares of a label: normal
/// labels all match, a landing label matches pads of the same type and
/// clauses.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum LabelKey {
    Normal,
    Landing { ty: TyId, extra: ExtraData },
}

fn label_key(f: &Function, b: BlockId) -> LabelKey {
    if f.is_landing_block(b) {
        let pad = f.inst(f.block(b).insts[0]);
        LabelKey::Landing { ty: pad.ty, extra: pad.extra.clone() }
    } else {
        LabelKey::Normal
    }
}

/// The opcode-specific payload [`EquivCtx::insts_equivalent`] compares.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum ExtraKey {
    None,
    ICmp(IntPredicate),
    FCmp(FloatPredicate),
    Alloca {
        size: Option<u64>,
        align: Option<u64>,
    },
    /// The source element type and the constants at struct positions.
    Gep {
        source: TyId,
        struct_indices: Vec<Value>,
    },
    LandingPad {
        ty: TyId,
        extra: ExtraData,
    },
    Agg {
        indices: Vec<u32>,
        ty: TyId,
    },
}

/// Everything [`EquivCtx::insts_equivalent`] compares of one instruction.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct InstKey {
    opcode: Opcode,
    ty: TyClass,
    /// Per operand: `None` for a label, else its type class.
    operands: Vec<Option<TyClass>>,
    extra: ExtraKey,
    /// A switch's case constants.
    cases: Vec<Value>,
    /// A call's or invoke's raw callee operand.
    callee: Option<Value>,
    /// An invoke's unwind label.
    unwind: Option<LabelKey>,
}

/// The canonical key of one linearized entry: entries of two different
/// functions have equal keys exactly when
/// [`EquivCtx::entries_equivalent`] holds for them, so an alignment can
/// compare interned keys instead of evaluating the relation per cell.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum ClassKey {
    Label(LabelKey),
    Inst(Box<InstKey>),
    /// An entry equivalent to nothing (a φ-node, a GEP whose struct walk
    /// fails): keyed by its own function, so it never equals an entry of
    /// another function.
    Unique(FuncId),
}

/// The class keys of `func`'s linearization `seq`, in order. Only keys of
/// different functions are ever compared (a function is never its own
/// merge candidate).
pub(crate) fn class_keys(module: &Module, func: FuncId, seq: &[Entry]) -> Vec<ClassKey> {
    let f = module.func(func);
    seq.iter()
        .map(|entry| match *entry {
            Entry::Label(b) => ClassKey::Label(label_key(f, b)),
            Entry::Inst(i) => inst_key(module, f, f.inst(i))
                .map_or(ClassKey::Unique(func), |k| ClassKey::Inst(Box::new(k))),
        })
        .collect()
}

/// The key of an instruction, or `None` when it is equivalent to nothing.
fn inst_key(module: &Module, f: &Function, inst: &Inst) -> Option<InstKey> {
    let ts = &module.types;
    if inst.opcode == Opcode::Phi {
        return None;
    }
    let operands = inst
        .operands
        .iter()
        .map(|&v| match v {
            Value::Block(_) => None,
            Value::Func(g) => Some(ty_class(ts, module.func(g).fn_ty())),
            _ => Some(ty_class(ts, f.value_ty(v, ts))),
        })
        .collect();
    let extra = match &inst.extra {
        ExtraData::None => ExtraKey::None,
        ExtraData::ICmp(p) => ExtraKey::ICmp(*p),
        ExtraData::FCmp(p) => ExtraKey::FCmp(*p),
        ExtraData::Alloca { allocated } => {
            ExtraKey::Alloca { size: ts.byte_size(*allocated), align: ts.align_of(*allocated) }
        }
        ExtraData::Gep { source_elem } => ExtraKey::Gep {
            source: *source_elem,
            struct_indices: gep_struct_indices(ts, inst, *source_elem)?,
        },
        ExtraData::LandingPad { .. } if inst.opcode == Opcode::LandingPad => {
            ExtraKey::LandingPad { ty: inst.ty, extra: inst.extra.clone() }
        }
        ExtraData::AggIndices(indices) => ExtraKey::Agg { indices: indices.clone(), ty: inst.ty },
        ExtraData::LandingPad { .. } | ExtraData::Phi { .. } => return None,
    };
    let cases = match inst.opcode {
        Opcode::Switch => inst
            .operands
            .iter()
            .enumerate()
            .filter(|(k, _)| k % 2 == 0 && *k >= 2)
            .map(|(_, &v)| v)
            .collect(),
        _ => Vec::new(),
    };
    let (callee, unwind) = match inst.opcode {
        Opcode::Call => (inst.operands.first().copied(), None),
        Opcode::Invoke => {
            (inst.operands.first().copied(), Some(label_key(f, inst.operands.last()?.as_block()?)))
        }
        _ => (None, None),
    };
    Some(InstKey {
        opcode: inst.opcode,
        ty: ty_class(ts, inst.ty),
        operands,
        extra,
        cases,
        callee,
        unwind,
    })
}

/// The constants a GEP indexes structs with, walking `source` the way
/// [`EquivCtx::insts_equivalent`] does; `None` when the walk fails
/// (a non-constant or out-of-range struct index, or a non-aggregate step),
/// which makes the GEP equivalent to nothing.
fn gep_struct_indices(ts: &TypeStore, inst: &Inst, source: TyId) -> Option<Vec<Value>> {
    let mut cur = source;
    let mut out = Vec::new();
    // operands[1] indexes the source element itself; later ones walk in.
    for &o in inst.operands.iter().skip(2) {
        match ts.get(cur) {
            Type::Struct { fields, .. } => {
                let Value::ConstInt { bits, .. } = o else { return None };
                cur = *fields.get(bits as usize)?;
                out.push(o);
            }
            Type::Array { elem, .. } => cur = *elem,
            _ => return None,
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmsa_ir::{FuncBuilder, IntPredicate, LandingPadClause, Module, Value};

    /// The class ids of a [`crate::LinearizationCache`] agree with the
    /// relation on every entry pair of every two distinct functions of
    /// `m`.
    fn assert_keys_exact(m: &Module) {
        let mut cache = crate::LinearizationCache::new();
        let funcs = m.func_ids();
        for &f1 in &funcs {
            for &f2 in &funcs {
                if f1 == f2 {
                    continue;
                }
                let (l1, l2) = (cache.get(m, f1), cache.get(m, f2));
                let ctx = EquivCtx::new(m, m.func(f1), m.func(f2));
                for (e1, id1) in l1.entries().iter().zip(l1.ids()) {
                    for (e2, id2) in l2.entries().iter().zip(l2.ids()) {
                        assert_eq!(id1 == id2, ctx.entries_equivalent(e1, e2), "{e1:?} vs {e2:?}");
                    }
                }
            }
        }
    }

    /// Builds two functions with a few instructions each and returns the
    /// module for ad-hoc equivalence probing.
    fn two_fns(
        build: impl Fn(&mut FuncBuilder<'_>, bool),
    ) -> (Module, fmsa_ir::FuncId, fmsa_ir::FuncId) {
        let mut m = Module::new("m");
        let i32t = m.types.i32();
        let f64t = m.types.f64();
        let fn_ty = m.types.func(i32t, vec![i32t, f64t]);
        let f1 = m.create_function("f1", fn_ty);
        let f2 = m.create_function("f2", fn_ty);
        {
            let mut b = FuncBuilder::new(&mut m, f1);
            let e = b.block("entry");
            b.switch_to(e);
            build(&mut b, true);
        }
        {
            let mut b = FuncBuilder::new(&mut m, f2);
            let e = b.block("entry");
            b.switch_to(e);
            build(&mut b, false);
        }
        (m, f1, f2)
    }

    fn first_insts(m: &Module, f1: fmsa_ir::FuncId, f2: fmsa_ir::FuncId) -> (Entry, Entry) {
        let e1 = Entry::Inst(m.func(f1).inst_ids()[0]);
        let e2 = Entry::Inst(m.func(f2).inst_ids()[0]);
        (e1, e2)
    }

    #[test]
    fn identical_adds_are_equivalent() {
        let (m, f1, f2) = two_fns(|b, _| {
            let v = b.add(Value::Param(0), b.const_i32(1));
            b.ret(Some(v));
        });
        let ctx = EquivCtx::new(&m, m.func(f1), m.func(f2));
        let (e1, e2) = first_insts(&m, f1, f2);
        assert!(ctx.entries_equivalent(&e1, &e2));
        assert_keys_exact(&m);
    }

    #[test]
    fn different_opcodes_not_equivalent() {
        let (m, f1, f2) = two_fns(|b, first| {
            let v = if first {
                b.add(Value::Param(0), b.const_i32(1))
            } else {
                b.sub(Value::Param(0), b.const_i32(1))
            };
            b.ret(Some(v));
        });
        let ctx = EquivCtx::new(&m, m.func(f1), m.func(f2));
        let (e1, e2) = first_insts(&m, f1, f2);
        assert!(!ctx.entries_equivalent(&e1, &e2));
        assert_keys_exact(&m);
    }

    #[test]
    fn bitcastable_types_are_equivalent() {
        // i32 add vs i32 add whose operands come from a float bitcast —
        // same types; then check i32 vs f32 stores via alloca of same size.
        let mut m = Module::new("m");
        let i32t = m.types.i32();
        let f32t = m.types.f32();
        let fn1 = m.types.func(m.types.void(), vec![i32t]);
        let fn2 = m.types.func(m.types.void(), vec![f32t]);
        let f1 = m.create_function("f1", fn1);
        let f2 = m.create_function("f2", fn2);
        {
            let mut b = FuncBuilder::new(&mut m, f1);
            let e = b.block("entry");
            b.switch_to(e);
            let s = b.alloca(i32t);
            b.store(Value::Param(0), s);
            b.ret(None);
        }
        {
            let mut b = FuncBuilder::new(&mut m, f2);
            let e = b.block("entry");
            b.switch_to(e);
            let s = b.alloca(f32t);
            b.store(Value::Param(0), s);
            b.ret(None);
        }
        let ctx = EquivCtx::new(&m, m.func(f1), m.func(f2));
        let i1 = m.func(f1).inst_ids();
        let i2 = m.func(f2).inst_ids();
        // alloca i32 vs alloca f32: same size/align -> equivalent.
        assert!(ctx.entries_equivalent(&Entry::Inst(i1[0]), &Entry::Inst(i2[0])));
        // store i32 vs store f32: operand types bitcastable -> equivalent.
        assert!(ctx.entries_equivalent(&Entry::Inst(i1[1]), &Entry::Inst(i2[1])));
        // ret void vs ret void.
        assert!(ctx.entries_equivalent(&Entry::Inst(i1[2]), &Entry::Inst(i2[2])));
        assert_keys_exact(&m);
    }

    #[test]
    fn different_widths_not_equivalent() {
        let mut m = Module::new("m");
        let i32t = m.types.i32();
        let f64t = m.types.f64();
        let fn1 = m.types.func(m.types.void(), vec![i32t]);
        let fn2 = m.types.func(m.types.void(), vec![f64t]);
        let f1 = m.create_function("f1", fn1);
        let f2 = m.create_function("f2", fn2);
        {
            let mut b = FuncBuilder::new(&mut m, f1);
            let e = b.block("entry");
            b.switch_to(e);
            let s = b.alloca(i32t);
            b.store(Value::Param(0), s);
            b.ret(None);
        }
        {
            let mut b = FuncBuilder::new(&mut m, f2);
            let e = b.block("entry");
            b.switch_to(e);
            let s = b.alloca(f64t);
            b.store(Value::Param(0), s);
            b.ret(None);
        }
        let ctx = EquivCtx::new(&m, m.func(f1), m.func(f2));
        let i1 = m.func(f1).inst_ids();
        let i2 = m.func(f2).inst_ids();
        assert!(
            !ctx.entries_equivalent(&Entry::Inst(i1[0]), &Entry::Inst(i2[0])),
            "4-byte vs 8-byte alloca"
        );
        assert!(
            !ctx.entries_equivalent(&Entry::Inst(i1[1]), &Entry::Inst(i2[1])),
            "store of differing widths"
        );
        assert_keys_exact(&m);
    }

    #[test]
    fn icmp_predicates_must_match() {
        let (m, f1, f2) = two_fns(|b, first| {
            let p = if first { IntPredicate::Slt } else { IntPredicate::Sgt };
            let v = b.icmp(p, Value::Param(0), b.const_i32(0));
            let z = b.zext(v, b.module().types.i32());
            b.ret(Some(z));
        });
        let ctx = EquivCtx::new(&m, m.func(f1), m.func(f2));
        let (e1, e2) = first_insts(&m, f1, f2);
        assert!(!ctx.entries_equivalent(&e1, &e2));
        assert_keys_exact(&m);
    }

    #[test]
    fn normal_labels_always_equivalent() {
        let (m, f1, f2) = two_fns(|b, _| {
            b.ret(Some(b.const_i32(0)));
        });
        let ctx = EquivCtx::new(&m, m.func(f1), m.func(f2));
        let b1 = m.func(f1).entry();
        let b2 = m.func(f2).entry();
        assert!(ctx.entries_equivalent(&Entry::Label(b1), &Entry::Label(b2)));
        assert_keys_exact(&m);
    }

    #[test]
    fn landing_labels_require_identical_pads() {
        let mut m = Module::new("m");
        let void = m.types.void();
        let thr_ty = m.types.func(void, vec![]);
        let thr = m.create_function("thrower", thr_ty);
        let fn_ty = m.types.func(void, vec![]);
        let mk = |m: &mut Module, name: &str, clause: &str| {
            let f = m.create_function(name, fn_ty);
            let mut b = FuncBuilder::new(m, f);
            let entry = b.block("entry");
            let normal = b.block("normal");
            let lpad = b.block("lpad");
            b.switch_to(entry);
            b.invoke(thr, vec![], normal, lpad);
            b.switch_to(normal);
            b.ret(None);
            b.switch_to(lpad);
            let pad = b.landingpad(vec![LandingPadClause::Catch(clause.into())], false);
            b.resume(pad);
            f
        };
        let fa = mk(&mut m, "fa", "TypeA");
        let fb = mk(&mut m, "fb", "TypeA");
        let fc = mk(&mut m, "fc", "TypeB");
        let get_lpad = |f: fmsa_ir::FuncId| {
            m.func(f)
                .block_ids()
                .find(|&b| m.func(f).is_landing_block(b))
                .expect("has landing block")
        };
        let (la, lb, lc) = (get_lpad(fa), get_lpad(fb), get_lpad(fc));
        let ctx_ab = EquivCtx::new(&m, m.func(fa), m.func(fb));
        assert!(ctx_ab.entries_equivalent(&Entry::Label(la), &Entry::Label(lb)));
        let ctx_ac = EquivCtx::new(&m, m.func(fa), m.func(fc));
        assert!(!ctx_ac.entries_equivalent(&Entry::Label(la), &Entry::Label(lc)));
        // Normal label vs landing label: never equivalent.
        let na = m.func(fa).entry();
        assert!(!ctx_ab.entries_equivalent(&Entry::Label(na), &Entry::Label(lb)));
        // Matched invokes with equivalent pads are equivalent.
        let inv_a = Entry::Inst(
            m.func(fa)
                .inst_ids()
                .into_iter()
                .find(|&i| m.func(fa).inst(i).opcode == fmsa_ir::Opcode::Invoke)
                .expect("invoke"),
        );
        let inv_c = Entry::Inst(
            m.func(fc)
                .inst_ids()
                .into_iter()
                .find(|&i| m.func(fc).inst(i).opcode == fmsa_ir::Opcode::Invoke)
                .expect("invoke"),
        );
        assert!(
            !ctx_ac.entries_equivalent(&inv_a, &inv_c),
            "invokes with different landing pads must not match"
        );
        assert_keys_exact(&m);
    }

    #[test]
    fn calls_require_same_callee() {
        let mut m = Module::new("m");
        let i32t = m.types.i32();
        let g_ty = m.types.func(i32t, vec![i32t]);
        let g1 = m.create_function("g1", g_ty);
        let g2 = m.create_function("g2", g_ty);
        let fn_ty = m.types.func(i32t, vec![i32t]);
        let f1 = m.create_function("f1", fn_ty);
        let f2 = m.create_function("f2", fn_ty);
        {
            let mut b = FuncBuilder::new(&mut m, f1);
            let e = b.block("entry");
            b.switch_to(e);
            let v = b.call(g1, vec![Value::Param(0)]);
            b.ret(Some(v));
        }
        {
            let mut b = FuncBuilder::new(&mut m, f2);
            let e = b.block("entry");
            b.switch_to(e);
            let v = b.call(g2, vec![Value::Param(0)]);
            b.ret(Some(v));
        }
        let ctx = EquivCtx::new(&m, m.func(f1), m.func(f2));
        let (e1, e2) = first_insts(&m, f1, f2);
        assert!(!ctx.entries_equivalent(&e1, &e2), "different callees");
        assert_keys_exact(&m);
    }

    #[test]
    fn label_vs_inst_never_equivalent() {
        let (m, f1, f2) = two_fns(|b, _| {
            b.ret(Some(b.const_i32(0)));
        });
        let ctx = EquivCtx::new(&m, m.func(f1), m.func(f2));
        let lbl = Entry::Label(m.func(f1).entry());
        let inst = Entry::Inst(m.func(f2).inst_ids()[0]);
        assert!(!ctx.entries_equivalent(&lbl, &inst));
        assert_keys_exact(&m);
    }
}
