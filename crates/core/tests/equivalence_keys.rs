//! The class ids of the linearization cache are exact: for every pair of
//! distinct functions, two entries get equal ids if and only if the
//! §III-D relation ([`EquivCtx::entries_equivalent`]) holds for them.
//!
//! The fixtures put, for every part of the class key, two functions that
//! differ in that part alone next to each other, so a key that forgot
//! the part would give equal ids to inequivalent entries.

use fmsa_core::{EquivCtx, LinearizationCache};
use fmsa_ir::{
    BlockId, ExtraData, FloatPredicate, FuncBuilder, FuncId, Inst, IntPredicate, LandingPadClause,
    Module, Opcode, TyId, Value,
};
use fmsa_workloads::{calling_swarm, wasm_fixture_bytes, WasmFixtureConfig};

/// Checks key exactness over every entry pair of every ordered pair of
/// distinct functions with a body, and returns how many entry pairs were
/// equivalent and how many were not.
fn assert_keys_exact(m: &Module) -> (usize, usize) {
    let mut cache = LinearizationCache::new();
    let funcs: Vec<FuncId> =
        m.func_ids().into_iter().filter(|&f| !m.func(f).is_declaration()).collect();
    let lins: Vec<_> = funcs.iter().map(|&f| cache.get(m, f)).collect();
    let (mut same, mut differ) = (0, 0);
    for (&f1, l1) in funcs.iter().zip(&lins) {
        for (&f2, l2) in funcs.iter().zip(&lins) {
            if f1 == f2 {
                continue;
            }
            let ctx = EquivCtx::new(m, m.func(f1), m.func(f2));
            for (e1, id1) in l1.entries().iter().zip(l1.ids()) {
                for (e2, id2) in l2.entries().iter().zip(l2.ids()) {
                    let equivalent = ctx.entries_equivalent(e1, e2);
                    assert_eq!(
                        id1 == id2,
                        equivalent,
                        "{}:{e1:?} vs {}:{e2:?}",
                        m.func(f1).name,
                        m.func(f2).name
                    );
                    if equivalent {
                        same += 1;
                    } else {
                        differ += 1;
                    }
                }
            }
        }
    }
    (same, differ)
}

/// Adds a function `name` of type `(params) -> ret` whose entry block
/// `build` fills.
fn add_fn(
    m: &mut Module,
    name: &str,
    ret: TyId,
    params: Vec<TyId>,
    build: impl FnOnce(&mut FuncBuilder<'_>),
) -> FuncId {
    let fn_ty = m.types.func(ret, params);
    let f = m.create_function(name, fn_ty);
    let mut b = FuncBuilder::new(m, f);
    let entry = b.block("entry");
    b.switch_to(entry);
    build(&mut b);
    f
}

/// Appends `inst` at the builder's insertion point, bypassing the
/// builder's typing rules.
fn raw(b: &mut FuncBuilder<'_>, inst: Inst) -> Value {
    let (f, block) = (b.func_id(), b.current_block());
    Value::Inst(b.module_mut().func_mut(f).append_inst(block, inst))
}

/// Pairs that differ in one scalar aspect each: opcode, result and
/// operand type classes, compare predicates, alloca size and alignment,
/// pointer pointees, i32 vs float.
#[test]
fn scalar_fixtures() {
    let mut m = Module::new("scalar");
    let (i32t, i64t, f32t, f64t, i8t) =
        (m.types.i32(), m.types.i64(), m.types.f32(), m.types.f64(), m.types.i8());
    let void = m.types.void();
    for (name, op) in [("add", Opcode::Add), ("sub", Opcode::Sub)] {
        add_fn(&mut m, name, i32t, vec![i32t], |b| {
            let v = b.binary(op, Value::Param(0), b.const_i32(1));
            b.ret(Some(v));
        });
    }
    // Stores and loads of i32, float (equivalent) and double (not);
    // loads of i32 vs i64 differ in their result type only.
    for (name, t) in [("mem_i32", i32t), ("mem_f32", f32t), ("mem_f64", f64t), ("mem_i64", i64t)] {
        add_fn(&mut m, name, void, vec![t], |b| {
            let s = b.alloca(t);
            b.store(Value::Param(0), s);
            let _ = b.load(s);
            b.ret(None);
        });
    }
    // Allocas: equal size different type ([4 x i8] vs i32 also differ in
    // alignment), equal alignment different size ([2 x i32]).
    let i8x4 = m.types.array(i8t, 4);
    let i32x2 = m.types.array(i32t, 2);
    for (name, t) in [("alloca_i8x4", i8x4), ("alloca_i32x2", i32x2)] {
        add_fn(&mut m, name, void, vec![], |b| {
            let _ = b.alloca(t);
            b.ret(None);
        });
    }
    for (name, p) in [("icmp_slt", IntPredicate::Slt), ("icmp_sgt", IntPredicate::Sgt)] {
        add_fn(&mut m, name, i32t, vec![i32t], |b| {
            let c = b.icmp(p, Value::Param(0), b.const_i32(0));
            let z = b.zext(c, i32t);
            b.ret(Some(z));
        });
    }
    for (name, p) in [("fcmp_olt", FloatPredicate::Olt), ("fcmp_ogt", FloatPredicate::Ogt)] {
        add_fn(&mut m, name, i32t, vec![f64t], |b| {
            let c = b.fcmp(p, Value::Param(0), b.const_f64(0.0));
            let z = b.zext(c, i32t);
            b.ret(Some(z));
        });
    }
    // Pointers with different pointees are interchangeable.
    let (p8, p32) = (m.types.ptr(i8t), m.types.ptr(i32t));
    for (name, p) in [("ret_i8p", p8), ("ret_i32p", p32)] {
        add_fn(&mut m, name, p, vec![p], |b| b.ret(Some(Value::Param(0))));
    }
    let (same, differ) = assert_keys_exact(&m);
    assert!(same > 0 && differ > 0, "{same} equivalent, {differ} not");
}

/// GEPs: same and different struct fields, non-constant and out-of-range
/// struct indices, array indices (free to differ), different source types.
#[test]
fn gep_fixtures() {
    let mut m = Module::new("gep");
    let (i32t, i64t, f32t) = (m.types.i32(), m.types.i64(), m.types.f32());
    let arr = m.types.array(i32t, 4);
    let farr = m.types.array(f32t, 4);
    let st = m.types.struct_(vec![i32t, f32t, arr]);
    let void = m.types.void();
    let idx = |k: u64| Value::ConstInt { ty: i32t, bits: k };
    let zero = Value::ConstInt { ty: i64t, bits: 0 };
    let cases: Vec<(&str, TyId, Vec<Value>, TyId)> = vec![
        ("field1_a", st, vec![zero, idx(1)], f32t),
        ("field1_b", st, vec![zero, idx(1)], f32t),
        ("field0", st, vec![zero, idx(0)], i32t),
        ("field_param", st, vec![zero, Value::Param(1)], i32t),
        ("field_oob", st, vec![zero, idx(7)], i32t),
        ("nested_const", st, vec![zero, idx(2), idx(3)], i32t),
        ("nested_param", st, vec![zero, idx(2), Value::Param(1)], i32t),
        ("arr_i32", arr, vec![zero, idx(2)], i32t),
        ("arr_f32", farr, vec![zero, idx(2)], f32t),
    ];
    for (name, source, indices, pointee) in cases {
        let ptr = m.types.ptr(source);
        add_fn(&mut m, name, void, vec![ptr, i32t], |b| {
            let _ = b.gep(source, Value::Param(0), indices, pointee);
            b.ret(None);
        });
    }
    let (same, differ) = assert_keys_exact(&m);
    assert!(same > 0 && differ > 0, "{same} equivalent, {differ} not");
}

/// Switches, phis, aggregate indices and direct and indirect calls.
#[test]
fn control_and_call_fixtures() {
    let mut m = Module::new("ctl");
    let (i32t, f32t) = (m.types.i32(), m.types.f32());
    let void = m.types.void();
    // Same case constants with different targets match; different case
    // constants do not.
    for (name, c1, swap) in [("sw_12", 1, false), ("sw_12_swapped", 1, true), ("sw_13", 3, false)] {
        add_fn(&mut m, name, void, vec![i32t], |b| {
            let (x, y) = (b.block("x"), b.block("y"));
            let (t1, t2) = if swap { (y, x) } else { (x, y) };
            b.switch(Value::Param(0), x, vec![(b.const_i32(2), t1), (b.const_i32(c1), t2)]);
            b.switch_to(x);
            b.ret(None);
            b.switch_to(y);
            b.ret(None);
        });
    }
    // Identical φ-nodes never match, with or without their payload.
    for (name, payload) in
        [("phi_a", true), ("phi_b", true), ("phi_bare_a", false), ("phi_bare_b", false)]
    {
        add_fn(&mut m, name, i32t, vec![i32t], |b| {
            let entry = b.current_block();
            let join = b.block("join");
            b.br(join);
            b.switch_to(join);
            let v = if payload {
                b.phi(i32t, vec![(Value::Param(0), entry)])
            } else {
                raw(b, Inst::new(Opcode::Phi, i32t, vec![Value::Param(0)]))
            };
            b.ret(Some(v));
        });
    }
    // extractvalue: different indices, and one result type vs another of
    // the same width.
    let pair = m.types.struct_(vec![i32t, i32t]);
    for (name, k, ty) in [("ev0", 0, i32t), ("ev1", 1, i32t), ("ev0_as_f32", 0, f32t)] {
        add_fn(&mut m, name, void, vec![pair], |b| {
            let _ = b.extract_value(Value::Param(0), vec![k], ty);
            b.ret(None);
        });
    }
    // Direct calls to two callees of one type; indirect calls through the
    // same and through another function-pointer parameter.
    let callee_ty = m.types.func(i32t, vec![i32t]);
    let g1 = add_fn(&mut m, "g1", i32t, vec![i32t], |b| b.ret(Some(Value::Param(0))));
    let g2 = add_fn(&mut m, "g2", i32t, vec![i32t], |b| b.ret(Some(Value::Param(0))));
    for (name, g) in [("call_g1", g1), ("call_g2", g2)] {
        add_fn(&mut m, name, i32t, vec![i32t], |b| {
            let v = b.call(g, vec![Value::Param(0)]);
            b.ret(Some(v));
        });
    }
    let fptr = m.types.ptr(callee_ty);
    for (name, via) in [("icall_p0_a", 0), ("icall_p0_b", 0), ("icall_p1", 1)] {
        add_fn(&mut m, name, i32t, vec![fptr, fptr, i32t], |b| {
            let v = raw(b, Inst::new(Opcode::Call, i32t, vec![Value::Param(via), Value::Param(2)]));
            b.ret(Some(v));
        });
    }
    let (same, differ) = assert_keys_exact(&m);
    assert!(same > 0 && differ > 0, "{same} equivalent, {differ} not");
}

/// Landing labels, landing pads and invokes whose callees or unwind pads
/// agree or differ (pads in their clauses or in their type).
#[test]
fn exception_fixtures() {
    let mut m = Module::new("eh");
    let (void, i8t, i32t) = (m.types.void(), m.types.i8(), m.types.i32());
    let thrower = add_fn(&mut m, "thrower", void, vec![], |b| b.ret(None));
    let thrower2 = add_fn(&mut m, "thrower2", void, vec![], |b| b.ret(None));
    let pair = {
        let i8p = m.types.ptr(i8t);
        m.types.struct_(vec![i8p, i32t])
    };
    let (p8, p32) = (m.types.ptr(i8t), m.types.ptr(i32t));
    for (name, callee, clause, pad_ty) in [
        ("eh_a1", thrower, "TypeA", pair),
        ("eh_a2", thrower, "TypeA", pair),
        ("eh_a_thrower2", thrower2, "TypeA", pair),
        ("eh_b", thrower, "TypeB", pair),
        ("eh_a_p8", thrower, "TypeA", p8),
        ("eh_a_p32", thrower, "TypeA", p32),
    ] {
        add_fn(&mut m, name, void, vec![], |b| {
            let (normal, lpad) = (b.block("normal"), b.block("lpad"));
            b.invoke(callee, vec![], normal, lpad);
            b.switch_to(normal);
            b.ret(None);
            b.switch_to(lpad);
            let extra = ExtraData::LandingPad {
                clauses: vec![LandingPadClause::Catch(clause.into())],
                cleanup: false,
            };
            let pad = raw(b, Inst::with_extra(Opcode::LandingPad, pad_ty, vec![], extra));
            b.resume(pad);
        });
    }
    let (same, differ) = assert_keys_exact(&m);
    assert!(same > 0 && differ > 0, "{same} equivalent, {differ} not");
    // The fixture really has landing labels on both sides of the check.
    let f = m.func_by_name("eh_b").expect("built");
    assert!(m.func(f).block_ids().any(|b: BlockId| m.func(f).is_landing_block(b)));
}

/// A call-heavy swarm of near-clones.
#[test]
fn calling_swarm_keys_are_exact() {
    let (same, differ) = assert_keys_exact(&calling_swarm(0x0ba7_c4ed, 6, 3));
    assert!(same > 0 && differ > 0, "{same} equivalent, {differ} not");
}

/// A lowered 96-function wasm corpus.
#[test]
fn wasm_corpus_keys_are_exact() {
    let bytes = wasm_fixture_bytes(&WasmFixtureConfig::with_functions(96));
    let m = fmsa_wasm::load_wasm(&bytes, "wasm").expect("fixture decodes and lowers");
    let (same, differ) = assert_keys_exact(&m);
    assert!(same > 0 && differ > 0, "{same} equivalent, {differ} not");
}
