//! The register VM.
//!
//! [`Vm`] mirrors [`crate::interp::Interp`]'s public shape (globals,
//! captured output, step counter, optional fuel) and its exact observable
//! semantics: same values, same mutations of shared `Rc` state, same
//! diagnostics with the same spans, same variable-map contents on exit —
//! including the interpreter's quirk of leaving `vars` empty when a slice
//! errors (it `mem::take`s the map and never restores it on the error
//! path).
//!
//! A frame is three register files (`Frame`): boxed `Value`s, `f64`s and
//! `i64`s, with the receiver in the `Value` register [`CodeBlock::this`].
//! Typed ops read and write the unboxed files directly; a value is boxed
//! only where it leaves typed code (write-back to `vars`, stores into
//! arrays, fields and globals, generic calls, `print`).
//!
//! The fuel accounting differs by design: the interpreter ticks per AST
//! node, the VM per loop back-edge and per call (an inlined call's
//! [`Op::Guard`] ticks where the call would), so the two engines exhaust
//! a given budget at different points but both stop every runaway loop
//! or recursion. Plan execution never sets fuel; it is a safety valve for
//! tests.

use super::*;
use crate::error::{interp_err, Diagnostic, LangResult};
use crate::interp::HostEnv;
use crate::span::Span;
use crate::value::{ArrayVal, ObjectVal, Value};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// How a frame finished.
enum VmFlow {
    /// Fell off the end of the op sequence (or `Halt` in a slice).
    Done,
    /// Method `return`; a value, if any, is in the VM's return cells.
    Ret,
    /// `break`/`continue` escaped a statement slice.
    Escape(Span),
}

/// Per-slot frame state. `BOUND` is a live local (seeded var, declaration,
/// loop variable) that write-back returns to the caller's var map;
/// `CACHED` is a memoized read of a provably-constant global
/// ([`CodeBlock::cacheable`]) — readable like a local, invisible to
/// write-back. No op unbinds a slot.
const UNBOUND: u8 = 0;
const BOUND: u8 = 1;
const CACHED: u8 = 2;

/// One activation's registers: the three files share one numbering
/// ([`Reg`]) and the named slots' bound states.
#[derive(Default)]
struct Frame {
    v: Vec<Value>,
    f: Vec<f64>,
    i: Vec<i64>,
    bound: Vec<u8>,
}

impl Frame {
    /// Size the files for `code`, unbind every slot and load the constant
    /// registers. Registers keep whatever a recycled frame left in them:
    /// the lowering writes every temporary before reading it, and reads an
    /// unbound slot only through its fallback.
    fn enter(&mut self, code: &CodeBlock) {
        let n = code.n_regs as usize;
        if self.v.len() < n {
            self.v.resize(n, Value::Void);
        }
        if self.f.len() < n {
            self.f.resize(n, 0.0);
        }
        if self.i.len() < n {
            self.i.resize(n, 0);
        }
        self.bound.clear();
        self.bound.resize(code.slot_count(), UNBOUND);
        for &(r, x) in &code.f_consts {
            self.f[r as usize] = x;
        }
        for &(r, x) in &code.i_consts {
            self.i[r as usize] = x;
        }
    }
}

/// A value read out of a container on a cold path, in the file its op
/// names (the typed ops' hot arms write their register directly).
enum Out {
    F(f64),
    I(i64),
    V(Value),
}

impl Out {
    /// `x` as `repr` wants it, if its tag agrees (strict: the value comes
    /// from outside typed code).
    #[inline]
    fn of(repr: Repr, x: &Value) -> Option<Out> {
        Some(match (repr, x) {
            (Repr::F, Value::Double(d)) => Out::F(*d),
            (Repr::I, Value::Int(n)) => Out::I(*n),
            (Repr::B, Value::Bool(b)) => Out::I(i64::from(*b)),
            (Repr::V, x) => Out::V(x.clone()),
            _ => return None,
        })
    }

    #[inline]
    fn store(self, v: &mut [Value], f: &mut [f64], ir: &mut [i64], dst: Reg) {
        match self {
            Out::F(x) => f[dst as usize] = x,
            Out::I(x) => ir[dst as usize] = x,
            Out::V(x) => v[dst as usize] = x,
        }
    }
}

/// The diagnostic for a value from outside typed code whose tag disagrees
/// with its static type.
fn mismatch(span: Span, what: impl std::fmt::Display, want: Repr, got: &Value) -> Diagnostic {
    interp_err(
        span,
        format!(
            "{what} holds `{got}` where a {} is declared",
            want.type_name()
        ),
    )
}

/// Register `src` of `repr`'s file, boxed.
#[inline]
fn boxed(v: &[Value], f: &[f64], ir: &[i64], repr: Repr, src: Reg) -> Value {
    let s = src as usize;
    match repr {
        Repr::F => Value::Double(f[s]),
        Repr::I => Value::Int(ir[s]),
        Repr::B => Value::Bool(ir[s] != 0),
        Repr::V => v[s].clone(),
    }
}

/// Bytecode executor. One instance per filter step, like the interpreter.
pub struct Vm<'p> {
    prog: &'p ProgramCode,
    /// Extern / runtime_define values.
    pub globals: HashMap<String, Value>,
    /// Captured `print()` output.
    pub output: Vec<String>,
    /// Loop back-edges and calls executed (the fuel clock).
    pub steps: u64,
    /// Optional budget of back-edges and calls; exceeding it aborts with
    /// an error.
    pub fuel: Option<u64>,
    /// Recycled call frames, so a method call in a hot loop does not
    /// allocate.
    frames: Vec<Frame>,
    /// What the last `Ret` returned, in its repr's cell.
    ret_v: Value,
    ret_f: f64,
    ret_i: i64,
}

impl<'p> Vm<'p> {
    pub fn new(prog: &'p ProgramCode, host: HostEnv) -> Self {
        Vm {
            prog,
            globals: host.values,
            output: Vec::new(),
            steps: 0,
            fuel: None,
            frames: Vec::new(),
            ret_v: Value::Void,
            ret_f: 0.0,
            ret_i: 0,
        }
    }

    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = Some(fuel);
        self
    }

    /// Allocate a default-initialized instance of `class`.
    pub fn instantiate(&self, class: &str) -> LangResult<Rc<RefCell<ObjectVal>>> {
        match self.prog.class_map.get(class) {
            Some(ci) => Ok(Rc::new(RefCell::new(
                self.prog.classes[*ci as usize].instantiate(),
            ))),
            None => Err(interp_err(
                Span::synthetic(),
                format!("unknown class `{class}`"),
            )),
        }
    }

    /// Execute a lowered statement slice against `vars` — the bytecode
    /// analogue of `Interp::exec_stmts_with_vars`, with identical
    /// semantics for bindings, write-back, and error behavior. A seeded
    /// value whose tag disagrees with its slot's static type is rejected
    /// by name.
    pub fn exec_slice(
        &mut self,
        code: &CodeBlock,
        vars: &mut HashMap<String, Value>,
    ) -> LangResult<()> {
        let this = self.instantiate(&code.class)?;
        let mut fr = Frame::default();
        fr.enter(code);
        let mut taken = std::mem::take(vars);
        for (s, nid) in code.slot_names.iter().enumerate() {
            let name = code.name(*nid);
            if let Some(x) = taken.get(name) {
                let repr = code.slot_repr[s];
                let out = Out::of(repr, x).ok_or_else(|| {
                    mismatch(Span::synthetic(), format_args!("`{name}`"), repr, x)
                })?;
                out.store(&mut fr.v, &mut fr.f, &mut fr.i, s as Reg);
                fr.bound[s] = BOUND;
            }
        }
        fr.v[code.this as usize] = Value::Object(this);
        let flow = self.run(code, &mut fr)?;
        // Write back every bound slot; `CACHED` slots are memoized
        // globals, not locals, and must not leak into the var map.
        for (s, nid) in code.slot_names.iter().enumerate() {
            if fr.bound[s] == BOUND {
                let x = match code.slot_repr[s] {
                    Repr::V => std::mem::replace(&mut fr.v[s], Value::Void),
                    repr => boxed(&fr.v, &fr.f, &fr.i, repr, s as Reg),
                };
                taken.insert(code.name(*nid).to_string(), x);
            }
        }
        *vars = taken;
        match flow {
            VmFlow::Done | VmFlow::Ret => Ok(()),
            VmFlow::Escape(span) => Err(interp_err(span, "break/continue escaped statement slice")),
        }
        // A `?`-propagated error drops `taken`, leaving `vars` empty —
        // exactly what the interpreter's `mem::take` does on that path.
    }

    /// Call `class::method` on `this` with `args` — the bytecode analogue
    /// of `Interp::call_method`, with the same unknown-method and arity
    /// diagnostics and the same int→double coercion of arguments and
    /// result.
    pub fn call_method(
        &mut self,
        class: &str,
        method: &str,
        this: Option<Rc<RefCell<ObjectVal>>>,
        args: Vec<Value>,
    ) -> LangResult<Value> {
        let mi = self.prog.method_id(class, method).ok_or_else(|| {
            interp_err(
                Span::synthetic(),
                format!("unknown method `{class}::{method}`"),
            )
        })?;
        let this = this.map_or(Value::Void, Value::Object);
        self.invoke_values(mi as usize, this, &args)
    }

    #[inline]
    fn tick(&mut self, span: Span) -> LangResult<()> {
        self.steps += 1;
        match self.fuel {
            Some(fuel) if self.steps > fuel => Err(interp_err(span, "interpreter fuel exhausted")),
            _ => Ok(()),
        }
    }

    fn arity(&self, mi: usize, argc: usize) -> LangResult<()> {
        let m = &self.prog.methods[mi];
        if argc == self.prog.sigs[mi].params.len() {
            return Ok(());
        }
        Err(interp_err(
            m.decl_span,
            format!("arity mismatch calling `{}::{}`", m.class, m.name),
        ))
    }

    /// Run method `mi` on receiver `this` (`Void` for none) in a recycled
    /// frame whose parameters `bind` fills; its result is left in the
    /// return cells.
    fn invoke(
        &mut self,
        mi: usize,
        this: Value,
        bind: impl FnOnce(&mut Frame) -> LangResult<()>,
    ) -> LangResult<()> {
        let prog = self.prog;
        let code = &prog.methods[mi].code;
        let mut fr = self.frames.pop().unwrap_or_default();
        fr.enter(code);
        fr.v[code.this as usize] = this;
        let flow = bind(&mut fr).and_then(|()| self.run(code, &mut fr));
        self.frames.push(fr);
        match flow? {
            VmFlow::Ret => Ok(()),
            // Falling off the end, which the checker allows only in a
            // void method (`Escape` cannot occur in method code).
            VmFlow::Done | VmFlow::Escape(_) => {
                self.ret_v = Value::Void;
                Ok(())
            }
        }
    }

    /// A call from lowered code: the arguments sit in the caller's
    /// registers `argb..`, each already in its parameter's repr.
    #[allow(clippy::too_many_arguments)]
    fn call_typed(
        &mut self,
        mi: usize,
        this: Value,
        v: &[Value],
        f: &[f64],
        ir: &[i64],
        argb: Reg,
        argc: u8,
        span: Span,
    ) -> LangResult<()> {
        self.arity(mi, argc as usize)?;
        self.tick(span)?;
        let prog = self.prog;
        let params = &prog.sigs[mi].params;
        self.invoke(mi, this, |fr| {
            for (p, repr) in params.iter().enumerate() {
                let a = argb as usize + p;
                match repr {
                    Repr::F => fr.f[p] = f[a],
                    Repr::I | Repr::B => fr.i[p] = ir[a],
                    Repr::V => fr.v[p] = v[a].clone(),
                }
                fr.bound[p] = BOUND;
            }
            Ok(())
        })
    }

    /// A call with boxed arguments (the external entry, and dispatch the
    /// lowering could not resolve): each argument is coerced as the
    /// interpreter does and unboxed into its parameter; the result comes
    /// back boxed.
    fn invoke_values(&mut self, mi: usize, this: Value, args: &[Value]) -> LangResult<Value> {
        self.arity(mi, args.len())?;
        let prog = self.prog;
        let m = &prog.methods[mi];
        self.tick(m.decl_span)?;
        let sig = &prog.sigs[mi];
        self.invoke(mi, this, |fr| {
            for (p, (repr, a)) in sig.params.iter().zip(args).enumerate() {
                let a = match (repr, a) {
                    (Repr::F, Value::Int(n)) => Value::Double(*n as f64),
                    _ => a.clone(),
                };
                let name = m.code.name(m.code.slot_names[p]);
                Out::of(*repr, &a)
                    .ok_or_else(|| mismatch(m.decl_span, format_args!("`{name}`"), *repr, &a))?
                    .store(&mut fr.v, &mut fr.f, &mut fr.i, p as Reg);
                fr.bound[p] = BOUND;
            }
            Ok(())
        })?;
        Ok(match sig.ret {
            None | Some(Repr::V) => std::mem::replace(&mut self.ret_v, Value::Void),
            Some(Repr::F) => Value::Double(self.ret_f),
            Some(Repr::I) => Value::Int(self.ret_i),
            Some(Repr::B) => Value::Bool(self.ret_i != 0),
        })
    }

    /// Move method `mi`'s result from the return cells into `dst`.
    #[inline]
    fn take_ret(&mut self, mi: usize, v: &mut [Value], f: &mut [f64], ir: &mut [i64], dst: Reg) {
        let d = dst as usize;
        match self.prog.sigs[mi].ret {
            None | Some(Repr::V) => v[d] = std::mem::replace(&mut self.ret_v, Value::Void),
            Some(Repr::F) => f[d] = self.ret_f,
            Some(Repr::I) | Some(Repr::B) => ir[d] = self.ret_i,
        }
    }

    fn run(&mut self, code: &CodeBlock, fr: &mut Frame) -> LangResult<VmFlow> {
        let prog = self.prog;
        let ops = &code.ops[..];
        let Frame { v, f, i, bound } = fr;
        let (v, f, ir, bound) = (&mut v[..], &mut f[..], &mut i[..], &mut bound[..]);
        let mut pc = 0usize;
        while pc < ops.len() {
            match ops[pc] {
                // -- typed arithmetic, hottest first --------------------
                Op::AddF { dst, l, r } => f[dst as usize] = f[l as usize] + f[r as usize],
                Op::SubF { dst, l, r } => f[dst as usize] = f[l as usize] - f[r as usize],
                Op::MulF { dst, l, r } => f[dst as usize] = f[l as usize] * f[r as usize],
                Op::DivF { dst, l, r } => f[dst as usize] = f[l as usize] / f[r as usize],
                Op::RemF { dst, l, r } => f[dst as usize] = f[l as usize] % f[r as usize],
                Op::AddI { dst, l, r } => {
                    ir[dst as usize] = ir[l as usize].wrapping_add(ir[r as usize])
                }
                Op::SubI { dst, l, r } => {
                    ir[dst as usize] = ir[l as usize].wrapping_sub(ir[r as usize])
                }
                Op::MulI { dst, l, r } => {
                    ir[dst as usize] = ir[l as usize].wrapping_mul(ir[r as usize])
                }
                Op::DivI { dst, l, r } => {
                    let b = ir[r as usize];
                    if b == 0 {
                        return Err(interp_err(code.spans[pc], "integer division by zero"));
                    }
                    ir[dst as usize] = ir[l as usize].wrapping_div(b);
                }
                Op::RemI { dst, l, r } => {
                    let b = ir[r as usize];
                    if b == 0 {
                        return Err(interp_err(code.spans[pc], "integer remainder by zero"));
                    }
                    ir[dst as usize] = ir[l as usize].wrapping_rem(b);
                }
                Op::NegF { dst, src } => f[dst as usize] = -f[src as usize],
                Op::NegI { dst, src } => ir[dst as usize] = ir[src as usize].wrapping_neg(),
                Op::NotB { dst, src } => ir[dst as usize] = i64::from(ir[src as usize] == 0),
                Op::IToF { dst, src } => f[dst as usize] = ir[src as usize] as f64,
                Op::CmpF { cmp, dst, l, r } => {
                    ir[dst as usize] = i64::from(cmp.holds(f[l as usize], f[r as usize]))
                }
                Op::CmpI { cmp, dst, l, r } => {
                    ir[dst as usize] =
                        i64::from(cmp.holds(ir[l as usize] as f64, ir[r as usize] as f64))
                }
                Op::BrF { cmp, l, r, to } => {
                    if cmp.holds(f[l as usize], f[r as usize]) {
                        pc = to as usize;
                        continue;
                    }
                }
                Op::BrI { cmp, l, r, to } => {
                    if cmp.holds(ir[l as usize] as f64, ir[r as usize] as f64) {
                        pc = to as usize;
                        continue;
                    }
                }
                Op::BranchB { cond, when, to } => {
                    if (ir[cond as usize] != 0) == when {
                        pc = to as usize;
                        continue;
                    }
                }
                Op::MoveF { dst, src } => f[dst as usize] = f[src as usize],
                Op::MoveI { dst, src } => ir[dst as usize] = ir[src as usize],
                Op::CombineF { dst, src, mode } => {
                    f[dst as usize] = combine_f(mode, f[dst as usize], f[src as usize])
                }
                Op::CombineI { dst, src, mode } => {
                    ir[dst as usize] = combine_i(mode, ir[dst as usize], ir[src as usize])
                }
                Op::Box { dst, src, repr } => v[dst as usize] = boxed(v, f, ir, repr, src),
                Op::Unbox { dst, src, repr } => {
                    let d = dst as usize;
                    match (repr, &v[src as usize]) {
                        (Repr::F, Value::Double(x)) => f[d] = *x,
                        (Repr::F, Value::Int(x)) => f[d] = *x as f64,
                        (Repr::I, Value::Int(x)) => ir[d] = *x,
                        (Repr::B, Value::Bool(x)) => ir[d] = i64::from(*x),
                        (Repr::V, x) => v[d] = x.clone(),
                        (Repr::I, _) => return Err(interp_err(code.spans[pc], "expected an int")),
                        (Repr::B, _) => {
                            return Err(interp_err(code.spans[pc], "expected a boolean"))
                        }
                        (Repr::F, _) => {
                            return Err(interp_err(code.spans[pc], "expected a double"))
                        }
                    }
                }
                Op::Math1F { dst, src, f: which } => {
                    let x = f[src as usize];
                    f[dst as usize] = match which {
                        BuiltinFn::Sqrt => x.sqrt(),
                        BuiltinFn::Floor => x.floor(),
                        BuiltinFn::Ceil => x.ceil(),
                        BuiltinFn::Exp => x.exp(),
                        BuiltinFn::Log => x.ln(),
                        _ => x.abs(),
                    };
                }
                Op::MinF { dst, l, r } => f[dst as usize] = f[l as usize].min(f[r as usize]),
                Op::MaxF { dst, l, r } => f[dst as usize] = f[l as usize].max(f[r as usize]),
                Op::MinI { dst, l, r } => ir[dst as usize] = ir[l as usize].min(ir[r as usize]),
                Op::MaxI { dst, l, r } => ir[dst as usize] = ir[l as usize].max(ir[r as usize]),
                Op::PowF { dst, l, r } => f[dst as usize] = f[l as usize].powf(f[r as usize]),
                Op::FToI { dst, src } => ir[dst as usize] = f[src as usize] as i64,
                Op::AbsI { dst, src } => ir[dst as usize] = ir[src as usize].wrapping_abs(),
                // -- containers -------------------------------------------
                Op::LoadElem {
                    dst,
                    base,
                    idx,
                    repr,
                } => {
                    let (k, d) = (ir[idx as usize], dst as usize);
                    let hit = match (repr, base) {
                        (Repr::V, _) => {
                            let x = match base {
                                Base::Reg(b) => elem_value(&v[b as usize], k),
                                Base::This(t, name) => {
                                    field_of(code, pc, &v[t as usize], name, |a| elem_value(a, k))
                                }
                            };
                            x.map(|x| v[d] = x).is_some()
                        }
                        (_, Base::Reg(b)) => elem_into(&v[b as usize], k, repr, f, ir, d),
                        (_, Base::This(t, name)) => field_of(code, pc, &v[t as usize], name, |a| {
                            elem_into(a, k, repr, f, ir, d).then_some(())
                        })
                        .is_some(),
                    };
                    if !hit {
                        self.load_elem(code, pc, (v, f, ir), dst, base, k, repr)?;
                    }
                }
                Op::StoreElem {
                    base,
                    idx,
                    src,
                    mode,
                    repr,
                } => {
                    let k = ir[idx as usize];
                    let (x, n) = (f[src as usize], ir[src as usize]);
                    let store = |b: &Value| match b {
                        Value::Array(arr) => store_num(&mut arr.borrow_mut(), k, mode, repr, x, n),
                        _ => false,
                    };
                    let done = match base {
                        Base::Reg(b) => store(&v[b as usize]),
                        Base::This(t, name) => {
                            field_of(code, pc, &v[t as usize], name, |b| store(b).then_some(()))
                                .is_some()
                        }
                    };
                    if !done {
                        self.store_elem(code, pc, (v, f, ir), base, k, src, mode, repr)?;
                    }
                }
                Op::LoadField {
                    dst,
                    base,
                    name,
                    repr,
                } => {
                    // Both bases read the object in register `b`; they
                    // differ only off the fast path.
                    let (Base::Reg(b) | Base::This(b, _)) = base;
                    let (x, d) = (&v[b as usize], dst as usize);
                    let hit = match repr {
                        Repr::V => field_of(code, pc, x, name, |x| Some(x.clone()))
                            .map(|x| v[d] = x)
                            .is_some(),
                        _ => field_of(code, pc, x, name, |x| {
                            scalar_into(repr, x, f, ir, d).then_some(())
                        })
                        .is_some(),
                    };
                    if !hit {
                        self.load_field(code, pc, (v, f, ir), dst, base, name, repr)?;
                    }
                }
                Op::StoreField {
                    base,
                    name,
                    src,
                    mode,
                    repr,
                } => {
                    let fname = || code.name(name);
                    let (x, n) = (f[src as usize], ir[src as usize]);
                    let store = |o: &mut ObjectVal| -> bool {
                        let shape = o.shape();
                        let Some(i) = code.caches.resolve(pc, shape, || shape.slot_of(fname()))
                        else {
                            return false;
                        };
                        match (repr, o.slot_mut(i)) {
                            (Repr::F, Some(old @ Value::Double(_))) => {
                                let Value::Double(a) = *old else {
                                    unreachable!()
                                };
                                *old = Value::Double(combine_f(mode, a, x));
                                true
                            }
                            (Repr::I, Some(old @ Value::Int(_))) => {
                                let Value::Int(a) = *old else { unreachable!() };
                                *old = Value::Int(combine_i(mode, a, n));
                                true
                            }
                            _ => false,
                        }
                    };
                    let (Base::Reg(b) | Base::This(b, _)) = base;
                    let done = match &v[b as usize] {
                        Value::Object(obj) => store(&mut obj.borrow_mut()),
                        _ => false,
                    };
                    if !done {
                        self.store_field(code, pc, (v, f, ir), base, name, src, mode, repr)?;
                    }
                }
                Op::LoadElemField {
                    dst,
                    arr,
                    idx,
                    name,
                    repr,
                } => {
                    let (x, k, d) = (&v[arr as usize], ir[idx as usize], dst as usize);
                    let hit = match repr {
                        Repr::V => elem_field_of(code, pc, x, k, name, |y| Some(y.clone()))
                            .map(|y| v[d] = y)
                            .is_some(),
                        _ => elem_field_of(code, pc, x, k, name, |y| {
                            scalar_into(repr, y, f, ir, d).then_some(())
                        })
                        .is_some(),
                    };
                    if !hit {
                        self.load_elem_field(code, pc, (v, f, ir), dst, arr, k, name, repr)?;
                    }
                }
                Op::Intrinsic { dst, base, fast } => {
                    let n = match base {
                        Base::Reg(b) => fast_intrinsic(&v[b as usize], fast),
                        Base::This(t, name) => {
                            field_of(code, pc, &v[t as usize], name, |x| fast_intrinsic(x, fast))
                        }
                    };
                    ir[dst as usize] = match n {
                        Some(n) => n,
                        None => {
                            let span = code.spans[pc];
                            self.with_base(code, pc, v, base, |b| intrinsic(b, fast, span))??
                        }
                    };
                }
                // -- slots ------------------------------------------------
                Op::Const { dst, k } => {
                    v[dst as usize] = code.consts[k as usize].to_value();
                }
                Op::ReadSlot { dst, slot } => {
                    let s = slot as usize;
                    if bound[s] == UNBOUND {
                        self.read_fallback(code, pc, (v, f, ir), dst, slot)?;
                        if dst == slot && code.cacheable[s] {
                            // Provably-constant global: memoize so hot
                            // loops stop re-hashing the name.
                            bound[s] = CACHED;
                        }
                    } else if dst != slot {
                        match code.slot_repr[s] {
                            Repr::F => f[dst as usize] = f[s],
                            Repr::I | Repr::B => ir[dst as usize] = ir[s],
                            Repr::V => v[dst as usize] = v[s].clone(),
                        }
                    }
                }
                Op::Bind { slot } => bound[slot as usize] = BOUND,
                Op::BindDefault { slot, k } => {
                    let s = slot as usize;
                    let x = code.consts[k as usize].to_value();
                    let repr = code.slot_repr[s];
                    Out::of(repr, &x)
                        .ok_or_else(|| mismatch(code.spans[pc], "a default", repr, &x))?
                        .store(v, f, ir, slot);
                    bound[s] = BOUND;
                }
                Op::AssignSlot { slot, src, mode } => {
                    let span = code.spans[pc];
                    let s = slot as usize;
                    let repr = code.slot_repr[s];
                    if bound[s] == BOUND {
                        match (repr, mode) {
                            (Repr::F, _) => f[s] = combine_f(mode, f[s], f[src as usize]),
                            (Repr::I, _) => ir[s] = combine_i(mode, ir[s], ir[src as usize]),
                            (Repr::B, AssignOp::Set) => ir[s] = ir[src as usize],
                            _ => {
                                let old = boxed(v, f, ir, repr, slot);
                                let rhs = boxed(v, f, ir, repr, src);
                                let nv = combine(mode, &old, widen(&old, rhs), span)?;
                                Out::of(repr, &nv)
                                    .ok_or_else(|| mismatch(span, "an assignment", repr, &nv))?
                                    .store(v, f, ir, slot);
                            }
                        }
                    } else {
                        let rhs = boxed(v, f, ir, repr, src);
                        let name = code.name(code.slot_names[s]);
                        let skip_this = code.slot_kinds[s] == SlotKind::Global;
                        let this = receiver(&v[code.this as usize]);
                        self.write_name(code, pc, name, skip_this, this, rhs, mode)?;
                    }
                }
                Op::LoadThis { dst, this } => {
                    if receiver(&v[this as usize]).is_none() {
                        return Err(interp_err(
                            code.spans[pc],
                            "`this` outside an instance method",
                        ));
                    }
                    v[dst as usize] = v[this as usize].clone();
                }
                Op::MoveV { dst, src } => v[dst as usize] = v[src as usize].clone(),
                Op::CheckDomainPipe { src } => {
                    if !matches!(v[src as usize], Value::Domain(..)) {
                        return Err(interp_err(
                            code.spans[pc],
                            "PipelinedLoop over non-domain value",
                        ));
                    }
                }
                // -- generic (boxed) -------------------------------------
                Op::Neg { dst, src } => {
                    let x = match &v[src as usize] {
                        Value::Int(n) => Value::Int(n.wrapping_neg()),
                        Value::Double(d) => Value::Double(-d),
                        _ => return Err(interp_err(code.spans[pc], "negating non-numeric")),
                    };
                    v[dst as usize] = x;
                }
                Op::Not { dst, src } => {
                    let x = match &v[src as usize] {
                        Value::Bool(b) => Value::Bool(!b),
                        _ => return Err(interp_err(code.spans[pc], "logical not on non-boolean")),
                    };
                    v[dst as usize] = x;
                }
                Op::Bin { op, dst, l, r } => {
                    let x = bin_vals(op, &v[l as usize], &v[r as usize], code.spans[pc])?;
                    v[dst as usize] = x;
                }
                Op::Jump { to } => {
                    if to as usize <= pc {
                        self.tick(code.spans[pc])?;
                    }
                    pc = to as usize;
                    continue;
                }
                Op::BranchTrue { cond, to } => match &v[cond as usize] {
                    Value::Bool(b) => {
                        if *b {
                            pc = to as usize;
                            continue;
                        }
                    }
                    _ => return Err(interp_err(code.spans[pc], "expected a boolean")),
                },
                Op::BranchFalse { cond, to } => match &v[cond as usize] {
                    Value::Bool(b) => {
                        if !*b {
                            pc = to as usize;
                            continue;
                        }
                    }
                    _ => return Err(interp_err(code.spans[pc], "expected a boolean")),
                },
                // -- loops ------------------------------------------------
                Op::ForeachBegin { dom, var, cur, end } => {
                    let (lo, hi) = match &v[dom as usize] {
                        Value::Domain(lo, hi) => (*lo, *hi),
                        _ => {
                            return Err(interp_err(code.spans[pc], "foreach over non-domain value"))
                        }
                    };
                    if lo > hi {
                        pc = end as usize;
                        continue;
                    }
                    let c = cur as usize;
                    ir[c] = lo;
                    ir[c + 1] = hi;
                    ir[var as usize] = lo;
                }
                Op::ForeachNext { var, cur, body } => {
                    let c = cur as usize;
                    let at = ir[c];
                    if at < ir[c + 1] {
                        self.tick(code.spans[pc])?;
                        ir[c] = at + 1;
                        ir[var as usize] = at + 1;
                        pc = body as usize;
                        continue;
                    }
                }
                Op::PipeBegin {
                    dom,
                    n,
                    var,
                    p,
                    end,
                } => {
                    let span = code.spans[pc];
                    let (lo, hi) = match &v[dom as usize] {
                        Value::Domain(lo, hi) => (*lo, *hi),
                        _ => return Err(interp_err(span, "PipelinedLoop over non-domain value")),
                    };
                    let np = ir[n as usize];
                    if np <= 0 {
                        return Err(interp_err(span, "num_packets must be positive"));
                    }
                    let total = (hi - lo + 1).max(0);
                    if total == 0 {
                        pc = end as usize;
                        continue;
                    }
                    let nc = np.min(total);
                    ir[n as usize] = nc;
                    ir[p as usize] = 0;
                    v[var as usize] = packet_domain(lo, total, nc, 0);
                    bound[var as usize] = BOUND;
                }
                Op::PipeNext {
                    dom,
                    n,
                    var,
                    p,
                    body,
                } => {
                    let (lo, hi) = match &v[dom as usize] {
                        Value::Domain(lo, hi) => (*lo, *hi),
                        _ => return Err(interp_err(code.spans[pc], "corrupt pipelined state")),
                    };
                    let total = (hi - lo + 1).max(0);
                    let nc = ir[n as usize];
                    let pi = ir[p as usize] + 1;
                    if pi < nc {
                        self.tick(code.spans[pc])?;
                        ir[p as usize] = pi;
                        v[var as usize] = packet_domain(lo, total, nc, pi);
                        pc = body as usize;
                        continue;
                    }
                }
                // -- calls and allocation ---------------------------------
                Op::CallStatic {
                    dst,
                    mi,
                    name,
                    argb,
                    argc,
                } => {
                    if mi == UNRESOLVED {
                        return Err(interp_err(
                            Span::synthetic(),
                            format!("unknown method `{}::{}`", code.class, code.name(name)),
                        ));
                    }
                    let (m, this) = (mi as usize, v[code.this as usize].clone());
                    self.call_typed(m, this, v, f, ir, argb, argc, code.spans[pc])?;
                    self.take_ret(m, v, f, ir, dst);
                }
                Op::CallMethod {
                    dst,
                    recv,
                    name,
                    mi,
                    argb,
                    argc,
                } => {
                    if resolves_to(prog, code, pc, &v[recv as usize], code.name(name), mi) {
                        let (m, this) = (mi as usize, v[recv as usize].clone());
                        self.call_typed(m, this, v, f, ir, argb, argc, code.spans[pc])?;
                        self.take_ret(m, v, f, ir, dst);
                    } else {
                        self.call_method_dynamic(
                            code,
                            pc,
                            (v, f, ir),
                            dst,
                            recv,
                            name,
                            mi,
                            argb,
                            argc,
                        )?;
                    }
                }
                Op::Guard { recv, mi, hit } => {
                    let typed = recv.is_none_or(|r| {
                        let name = &prog.methods[mi as usize].name;
                        resolves_to(prog, code, pc, &v[r as usize], name, mi)
                    });
                    if typed {
                        self.tick(code.spans[pc])?;
                        pc = hit as usize;
                        continue;
                    }
                }
                Op::CallBuiltin {
                    dst,
                    f: which,
                    argb,
                    argc,
                } => {
                    let b = argb as usize;
                    let x = self.builtin(which, &v[b..b + argc as usize], code.spans[pc])?;
                    v[dst as usize] = x;
                }
                Op::New { dst, ci, name } => {
                    if ci == UNRESOLVED {
                        return Err(interp_err(
                            Span::synthetic(),
                            format!("unknown class `{}`", code.name(name)),
                        ));
                    }
                    v[dst as usize] = Value::Object(Rc::new(RefCell::new(
                        prog.classes[ci as usize].instantiate(),
                    )));
                }
                Op::NewArray { dst, len, k } => {
                    let n = ir[len as usize];
                    if n < 0 {
                        return Err(interp_err(code.spans[pc], "negative array length"));
                    }
                    v[dst as usize] =
                        Value::new_array(n as usize, code.consts[k as usize].to_value());
                }
                Op::NewDomain { dst, lo, hi } => {
                    v[dst as usize] = Value::Domain(ir[lo as usize], ir[hi as usize]);
                }
                Op::Ret { src, repr } => {
                    let s = src as usize;
                    match repr {
                        Repr::F => self.ret_f = f[s],
                        Repr::I | Repr::B => self.ret_i = ir[s],
                        Repr::V => self.ret_v = std::mem::replace(&mut v[s], Value::Void),
                    }
                    return Ok(VmFlow::Ret);
                }
                Op::RetVoid => {
                    self.ret_v = Value::Void;
                    return Ok(VmFlow::Ret);
                }
                Op::Halt => return Ok(VmFlow::Done),
                Op::FailEscape => return Ok(VmFlow::Escape(code.spans[pc])),
            }
            pc += 1;
        }
        Ok(VmFlow::Done)
    }

    /// `LoadElem` off its fast path: a `this` field that falls back to a
    /// global, an element whose tag disagrees, or a diagnostic.
    #[cold]
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn load_elem(
        &self,
        code: &CodeBlock,
        pc: usize,
        (v, f, ir): (&mut [Value], &mut [f64], &mut [i64]),
        dst: Reg,
        base: Base,
        k: i64,
        repr: Repr,
    ) -> LangResult<()> {
        let span = code.spans[pc];
        let out = self.with_base(code, pc, v, base, |b| {
            let Value::Array(arr) = b else {
                return Err(interp_err(span, "indexing non-array"));
            };
            let x = element(&arr.borrow(), k, span)?;
            Out::of(repr, &x)
                .ok_or_else(|| mismatch(span, format_args!("array element {k}"), repr, &x))
        })??;
        out.store(v, f, ir, dst);
        Ok(())
    }

    /// `StoreElem` off its fast path: the interpreter's widen-and-combine
    /// on boxed values (a generic source, a boxed element of another tag,
    /// a `this` field that falls back to a global), or a diagnostic.
    #[cold]
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn store_elem(
        &self,
        code: &CodeBlock,
        pc: usize,
        (v, f, ir): (&mut [Value], &mut [f64], &mut [i64]),
        base: Base,
        k: i64,
        src: Reg,
        mode: AssignOp,
        repr: Repr,
    ) -> LangResult<()> {
        let span = code.spans[pc];
        let rhs = boxed(v, f, ir, repr, src);
        self.with_base(code, pc, v, base, |b| {
            let Value::Array(arr) = b else {
                return Err(interp_err(span, "index assignment on non-array"));
            };
            let mut arr = arr.borrow_mut();
            let old = element(&arr, k, span)?;
            let nv = combine(mode, &old, widen(&old, rhs), span)?;
            arr.set(k as usize, nv)
                .map_err(|what| interp_err(span, what))
        })?
    }

    /// `LoadField` off its fast path: an absent field of `this` (then a
    /// global), a non-object, a tag mismatch or a missing field.
    #[cold]
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn load_field(
        &self,
        code: &CodeBlock,
        pc: usize,
        (v, f, ir): (&mut [Value], &mut [f64], &mut [i64]),
        dst: Reg,
        base: Base,
        name: u16,
        repr: Repr,
    ) -> LangResult<()> {
        let span = code.spans[pc];
        let fname = code.name(name);
        let out = match base {
            Base::Reg(b) => {
                let Value::Object(obj) = &v[b as usize] else {
                    return Err(interp_err(span, "field access on non-object"));
                };
                let o = obj.borrow();
                let shape = o.shape();
                let x = code
                    .caches
                    .resolve(pc, shape, || shape.slot_of(fname))
                    .and_then(|s| o.slot(s))
                    .ok_or_else(|| interp_err(span, format!("no field `{fname}`")))?;
                Out::of(repr, x)
                    .ok_or_else(|| mismatch(span, format_args!("field `{fname}`"), repr, x))?
            }
            Base::This(t, _) => self.with_name(
                code,
                pc,
                fname,
                false,
                || span,
                receiver(&v[t as usize]),
                |x| {
                    Out::of(repr, x)
                        .ok_or_else(|| mismatch(span, format_args!("`{fname}`"), repr, x))
                },
            )??,
        };
        out.store(v, f, ir, dst);
        Ok(())
    }

    /// `StoreField` off its fast path: the interpreter's widen-and-combine
    /// on boxed values, an absent field of `this` (then a global), or a
    /// diagnostic.
    #[cold]
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn store_field(
        &mut self,
        code: &CodeBlock,
        pc: usize,
        (v, f, ir): (&mut [Value], &mut [f64], &mut [i64]),
        base: Base,
        name: u16,
        src: Reg,
        mode: AssignOp,
        repr: Repr,
    ) -> LangResult<()> {
        let span = code.spans[pc];
        let rhs = boxed(v, f, ir, repr, src);
        let fname = code.name(name);
        match base {
            Base::Reg(b) => {
                let Value::Object(obj) = &v[b as usize] else {
                    return Err(interp_err(span, "field assignment on non-object"));
                };
                let mut o = obj.borrow_mut();
                let shape = o.shape();
                let slot = code
                    .caches
                    .resolve(pc, shape, || shape.slot_of(fname))
                    .and_then(|s| o.slot_mut(s).as_mut())
                    .ok_or_else(|| interp_err(span, format!("no field `{fname}`")))?;
                *slot = combine(mode, slot, widen(slot, rhs), span)?;
                Ok(())
            }
            Base::This(t, _) => {
                let this = receiver(&v[t as usize]);
                self.write_name(code, pc, fname, false, this, rhs, mode)
            }
        }
    }

    /// `LoadElemField` off its fast path: the diagnostic of the index or
    /// of the field, or a boxed field value.
    #[cold]
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn load_elem_field(
        &self,
        code: &CodeBlock,
        pc: usize,
        (v, f, ir): (&mut [Value], &mut [f64], &mut [i64]),
        dst: Reg,
        arr: Reg,
        k: i64,
        name: u16,
        repr: Repr,
    ) -> LangResult<()> {
        let span = code.spans[pc];
        let at = code.name_span(pc);
        let Value::Array(a) = &v[arr as usize] else {
            return Err(interp_err(at, "indexing non-array"));
        };
        let Value::Object(obj) = element(&a.borrow(), k, at)? else {
            return Err(interp_err(span, "field access on non-object"));
        };
        let o = obj.borrow();
        let fname = code.name(name);
        let shape = o.shape();
        let x = code
            .caches
            .resolve(pc, shape, || shape.slot_of(fname))
            .and_then(|s| o.slot(s))
            .ok_or_else(|| interp_err(span, format!("no field `{fname}`")))?;
        let out = Out::of(repr, x)
            .ok_or_else(|| mismatch(span, format_args!("field `{fname}`"), repr, x))?;
        drop(o);
        out.store(v, f, ir, dst);
        Ok(())
    }

    /// `ReadSlot` of an unbound slot: the interpreter's fallback chain,
    /// unboxed into `dst`.
    #[cold]
    #[inline(never)]
    fn read_fallback(
        &self,
        code: &CodeBlock,
        pc: usize,
        (v, f, ir): (&mut [Value], &mut [f64], &mut [i64]),
        dst: Reg,
        slot: Reg,
    ) -> LangResult<()> {
        let s = slot as usize;
        let repr = code.slot_repr[s];
        let name = code.name(code.slot_names[s]);
        let skip_this = code.slot_kinds[s] == SlotKind::Global;
        let span = code.spans[pc];
        let out = self.with_name(
            code,
            pc,
            name,
            skip_this,
            || span,
            receiver(&v[code.this as usize]),
            |x| Out::of(repr, x).ok_or_else(|| mismatch(span, format_args!("`{name}`"), repr, x)),
        )??;
        out.store(v, f, ir, dst);
        Ok(())
    }

    /// `CallMethod` when the receiver is not an object of the class the
    /// lowering resolved: the interpreter's dynamic dispatch on boxed
    /// arguments, domain and array intrinsics by name, or its diagnostic.
    #[cold]
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn call_method_dynamic(
        &mut self,
        code: &CodeBlock,
        pc: usize,
        (v, f, ir): (&mut [Value], &mut [f64], &mut [i64]),
        dst: Reg,
        recv: Reg,
        name: u16,
        mi: u32,
        argb: Reg,
        argc: u8,
    ) -> LangResult<()> {
        let prog = self.prog;
        let span = code.spans[pc];
        let mname = code.name(name);
        // The expected method's parameters placed the arguments (boxed,
        // when unresolved).
        let expected = prog.sigs.get(mi as usize);
        let result = match &v[recv as usize] {
            Value::Object(obj) => {
                let actual = {
                    let o = obj.borrow();
                    code.caches.resolve(pc, o.shape(), || {
                        prog.method_id(o.class(), mname).map(|m| m as usize)
                    })
                };
                let Some(actual) = actual else {
                    let cls = obj.borrow().class().to_string();
                    return Err(interp_err(
                        Span::synthetic(),
                        format!("unknown method `{cls}::{mname}`"),
                    ));
                };
                let args: Vec<Value> = (0..argc as usize)
                    .map(|p| {
                        let repr = expected
                            .and_then(|s| s.params.get(p).copied())
                            .unwrap_or(Repr::V);
                        boxed(v, f, ir, repr, argb + p as Reg)
                    })
                    .collect();
                let this = Value::Object(Rc::clone(obj));
                self.invoke_values(actual, this, &args)?
            }
            Value::Domain(lo, hi) => match mname {
                "lo" => Value::Int(*lo),
                "hi" => Value::Int(*hi),
                "size" => Value::Int((hi - lo + 1).max(0)),
                _ => {
                    return Err(interp_err(
                        span,
                        format!("RectDomain has no method `{mname}`"),
                    ))
                }
            },
            Value::Array(arr) => match mname {
                "length" => Value::Int(arr.borrow().len() as i64),
                _ => return Err(interp_err(span, format!("arrays have no method `{mname}`"))),
            },
            other => {
                return Err(interp_err(
                    span,
                    format!("cannot call `{mname}` on value `{other}`"),
                ))
            }
        };
        // Into the register the lowering placed for the expected result.
        let repr = expected.and_then(|s| s.ret).unwrap_or(Repr::V);
        let result = match (repr, result) {
            (Repr::F, Value::Int(n)) => Value::Double(n as f64),
            (_, x) => x,
        };
        Out::of(repr, &result)
            .ok_or_else(|| mismatch(span, format_args!("`{mname}`'s result"), repr, &result))?
            .store(v, f, ir, dst);
        Ok(())
    }

    /// The value of a bare name outside the frame's slots: a field of
    /// `this` (through op `pc`'s shape cache) unless `skip_this`, then a
    /// global, else the interpreter's unknown-variable diagnostic at
    /// `span()`. `look` sees the value in place.
    #[allow(clippy::too_many_arguments)]
    fn with_name<R>(
        &self,
        code: &CodeBlock,
        pc: usize,
        name: &str,
        skip_this: bool,
        span: impl FnOnce() -> Span,
        this: Option<&Rc<RefCell<ObjectVal>>>,
        look: impl FnOnce(&Value) -> R,
    ) -> LangResult<R> {
        if !skip_this {
            if let Some(t) = this {
                let t = t.borrow();
                let shape = t.shape();
                let i = code.caches.resolve(pc, shape, || shape.slot_of(name));
                if let Some(x) = i.and_then(|i| t.slot(i)) {
                    return Ok(look(x));
                }
            }
        }
        if let Some(x) = self.globals.get(name) {
            return Ok(look(x));
        }
        Err(interp_err(span(), format!("unknown variable `{name}`")))
    }

    /// An array or domain operand in place: a register, or a field of
    /// `this` by name (the interpreter's lookup chain, diagnosed at the
    /// name's span).
    fn with_base<R>(
        &self,
        code: &CodeBlock,
        pc: usize,
        v: &[Value],
        base: Base,
        look: impl FnOnce(&Value) -> R,
    ) -> LangResult<R> {
        match base {
            Base::Reg(r) => Ok(look(&v[r as usize])),
            Base::This(t, name) => self.with_name(
                code,
                pc,
                code.name(name),
                false,
                || code.name_span(pc),
                receiver(&v[t as usize]),
                look,
            ),
        }
    }

    /// Assignment to a bare name outside the frame's slots, mirroring the
    /// interpreter's write order: field of `this` (in place, through op
    /// `pc`'s shape cache) unless `skip_this`, then global, then error.
    #[allow(clippy::too_many_arguments)]
    fn write_name(
        &mut self,
        code: &CodeBlock,
        pc: usize,
        name: &str,
        skip_this: bool,
        this: Option<&Rc<RefCell<ObjectVal>>>,
        rhs: Value,
        mode: AssignOp,
    ) -> LangResult<()> {
        let span = code.spans[pc];
        if !skip_this {
            if let Some(t) = this {
                let mut t = t.borrow_mut();
                let shape = t.shape();
                let i = code.caches.resolve(pc, shape, || shape.slot_of(name));
                if let Some(old) = i.and_then(|i| t.slot_mut(i).as_mut()) {
                    *old = combine(mode, old, widen(old, rhs), span)?;
                    return Ok(());
                }
            }
        }
        if let Some(old) = self.globals.get_mut(name) {
            *old = combine(mode, old, widen(old, rhs), span)?;
            return Ok(());
        }
        Err(interp_err(
            span,
            format!("assignment to unknown variable `{name}`"),
        ))
    }

    fn builtin(&mut self, f: BuiltinFn, args: &[Value], span: Span) -> LangResult<Value> {
        let num = |v: &Value| -> LangResult<f64> {
            v.as_f64()
                .ok_or_else(|| interp_err(span, "numeric argument expected"))
        };
        let arg = |i: usize| -> LangResult<&Value> {
            args.get(i)
                .ok_or_else(|| interp_err(span, "numeric argument expected"))
        };
        match f {
            BuiltinFn::Sqrt => Ok(Value::Double(num(arg(0)?)?.sqrt())),
            BuiltinFn::Floor => Ok(Value::Double(num(arg(0)?)?.floor())),
            BuiltinFn::Ceil => Ok(Value::Double(num(arg(0)?)?.ceil())),
            BuiltinFn::Exp => Ok(Value::Double(num(arg(0)?)?.exp())),
            BuiltinFn::Log => Ok(Value::Double(num(arg(0)?)?.ln())),
            BuiltinFn::Abs => match arg(0)? {
                Value::Int(i) => Ok(Value::Int(i.wrapping_abs())),
                Value::Double(d) => Ok(Value::Double(d.abs())),
                _ => Err(interp_err(span, "numeric argument expected")),
            },
            BuiltinFn::Min | BuiltinFn::Max => {
                let take_min = f == BuiltinFn::Min;
                match (arg(0)?, arg(1)?) {
                    (Value::Int(a), Value::Int(b)) => {
                        Ok(Value::Int(if take_min { *a.min(b) } else { *a.max(b) }))
                    }
                    _ => {
                        let a = num(arg(0)?)?;
                        let b = num(arg(1)?)?;
                        Ok(Value::Double(if take_min { a.min(b) } else { a.max(b) }))
                    }
                }
            }
            BuiltinFn::Pow => Ok(Value::Double(num(arg(0)?)?.powf(num(arg(1)?)?))),
            BuiltinFn::ToInt => match arg(0)? {
                Value::Int(i) => Ok(Value::Int(*i)),
                Value::Double(d) => Ok(Value::Int(*d as i64)),
                _ => Err(interp_err(span, "numeric argument expected")),
            },
            BuiltinFn::ToDouble => Ok(Value::Double(num(arg(0)?)?)),
            BuiltinFn::Print => {
                let s = arg(0)?.to_string();
                self.output.push(s);
                Ok(Value::Void)
            }
        }
    }
}

/// The object a `this` register holds, if any.
#[inline]
fn receiver(x: &Value) -> Option<&Rc<RefCell<ObjectVal>>> {
    match x {
        Value::Object(o) => Some(o),
        _ => None,
    }
}

/// Does a call of `name` on `recv` take method `mi`'s typed path: is it an
/// object whose class resolves to `mi` through op `pc`'s shape cache?
#[inline]
fn resolves_to(
    prog: &ProgramCode,
    code: &CodeBlock,
    pc: usize,
    recv: &Value,
    name: &str,
    mi: u32,
) -> bool {
    let Value::Object(obj) = recv else {
        return false;
    };
    let o = obj.borrow();
    let actual = code.caches.resolve(pc, o.shape(), || {
        prog.method_id(o.class(), name).map(|m| m as usize)
    });
    actual == Some(mi as usize)
}

/// Field `name` of the object in `x`, through op `pc`'s shape cache, seen
/// in place by `look`; `None` when `x` is no object or has no such field.
#[inline]
fn field_of<R>(
    code: &CodeBlock,
    pc: usize,
    x: &Value,
    name: u16,
    look: impl FnOnce(&Value) -> Option<R>,
) -> Option<R> {
    let Value::Object(obj) = x else {
        return None;
    };
    let o = obj.borrow();
    let shape = o.shape();
    let i = code
        .caches
        .resolve(pc, shape, || shape.slot_of(code.name(name)))?;
    look(o.slot(i)?)
}

/// Field `name` of the object at element `k` of the array in `x` — an
/// object array's element field — seen in place by `look`.
#[inline]
fn elem_field_of<R>(
    code: &CodeBlock,
    pc: usize,
    x: &Value,
    k: i64,
    name: u16,
    look: impl FnOnce(&Value) -> Option<R>,
) -> Option<R> {
    let Value::Array(a) = x else {
        return None;
    };
    match &*a.borrow() {
        ArrayVal::Boxed(a) => field_of(code, pc, a.get(k as usize)?, name, look),
        _ => None,
    }
}

/// A typed read's fast path: scalar `x` into register `d` of `repr`'s
/// file, when its tag agrees (strict: the value comes from outside typed
/// code); `false` leaves the read to the cold path.
#[inline(always)]
fn scalar_into(repr: Repr, x: &Value, f: &mut [f64], ir: &mut [i64], d: usize) -> bool {
    match (repr, x) {
        (Repr::F, Value::Double(x)) => f[d] = *x,
        (Repr::I, Value::Int(n)) => ir[d] = *n,
        (Repr::B, Value::Bool(b)) => ir[d] = i64::from(*b),
        _ => return false,
    }
    true
}

/// [`scalar_into`] of element `k` of array `x`, when in range; a dense
/// array's elements agree with their own repr.
#[inline(always)]
fn elem_into(x: &Value, k: i64, repr: Repr, f: &mut [f64], ir: &mut [i64], d: usize) -> bool {
    let Value::Array(a) = x else {
        return false;
    };
    let k = k as usize;
    match (&*a.borrow(), repr) {
        (ArrayVal::F64(a), Repr::F) => match a.get(k) {
            Some(x) => f[d] = *x,
            None => return false,
        },
        (ArrayVal::I64(a), Repr::I) => match a.get(k) {
            Some(x) => ir[d] = *x,
            None => return false,
        },
        (ArrayVal::Boxed(a), _) => return a.get(k).is_some_and(|x| scalar_into(repr, x, f, ir, d)),
        _ => return false,
    }
    true
}

/// Element `k` of array `x`, boxed, when in range.
#[inline]
fn elem_value(x: &Value, k: i64) -> Option<Value> {
    match x {
        Value::Array(a) => a.borrow().get(k as usize),
        _ => None,
    }
}

/// `a[k] op= x` (a `double` source) or `op= n` (an `int`) in place, when
/// `k` is in range and the storage holds the result: dense storage of the
/// source's kind, a `double[]` for an `int` (widened), or a boxed element
/// of the source's tag. `false` leaves the store to the cold path.
#[inline]
fn store_num(a: &mut ArrayVal, k: i64, mode: AssignOp, repr: Repr, x: f64, n: i64) -> bool {
    let k = k as usize;
    match (a, repr) {
        (ArrayVal::F64(a), Repr::F | Repr::I) => {
            let Some(o) = a.get_mut(k) else { return false };
            let b = if matches!(repr, Repr::F) { x } else { n as f64 };
            *o = combine_f(mode, *o, b);
        }
        (ArrayVal::I64(a), Repr::I) => {
            let Some(o) = a.get_mut(k) else { return false };
            *o = combine_i(mode, *o, n);
        }
        (ArrayVal::Boxed(a), Repr::F) => {
            let Some(Value::Double(o)) = a.get_mut(k) else {
                return false;
            };
            *o = combine_f(mode, *o, x);
        }
        (ArrayVal::Boxed(a), Repr::I) => {
            let Some(Value::Int(o)) = a.get_mut(k) else {
                return false;
            };
            *o = combine_i(mode, *o, n);
        }
        _ => return false,
    }
    true
}

/// Element `k` of an array, boxed, or the interpreter's bounds diagnostic.
#[inline]
fn element(arr: &ArrayVal, k: i64, span: Span) -> LangResult<Value> {
    usize::try_from(k)
        .ok()
        .and_then(|i| arr.get(i))
        .ok_or_else(|| {
            interp_err(
                span,
                format!("array index {k} out of bounds (len {})", arr.len()),
            )
        })
}

/// `lo()`/`hi()`/`size()`/`length()` of a value of the right kind.
#[inline]
fn fast_intrinsic(x: &Value, fast: FastMeth) -> Option<i64> {
    match (x, fast) {
        (Value::Domain(lo, _), FastMeth::DomLo) => Some(*lo),
        (Value::Domain(_, hi), FastMeth::DomHi) => Some(*hi),
        (Value::Domain(lo, hi), FastMeth::DomSize) => Some((hi - lo + 1).max(0)),
        (Value::Array(a), FastMeth::ArrLen) => Some(a.borrow().len() as i64),
        _ => None,
    }
}

/// [`fast_intrinsic`], with the interpreter's diagnostics for a receiver
/// of the wrong kind.
fn intrinsic(x: &Value, fast: FastMeth, span: Span) -> LangResult<i64> {
    fast_intrinsic(x, fast).ok_or_else(|| {
        let m = fast.name();
        let what = match x {
            Value::Domain(..) => format!("RectDomain has no method `{m}`"),
            Value::Array(_) => format!("arrays have no method `{m}`"),
            other => format!("cannot call `{m}` on value `{other}`"),
        };
        interp_err(span, what)
    })
}

/// Packet `p` of `split_domain(lo, lo + total - 1, nc)`, computed
/// arithmetically (first `rem` packets take one extra element).
fn packet_domain(lo: i64, total: i64, nc: i64, p: i64) -> Value {
    let base = total / nc;
    let rem = total % nc;
    let len = base + i64::from(p < rem);
    let start = lo + p * base + p.min(rem);
    Value::Domain(start, start + len - 1)
}

/// Implicit int→double widening against the current target value —
/// applied before `combine` for every assignment, including plain `=`.
fn widen(old: &Value, rhs: Value) -> Value {
    match (old, &rhs) {
        (Value::Double(_), Value::Int(i)) => Value::Double(*i as f64),
        _ => rhs,
    }
}

/// The interpreter's compound assignment on doubles.
#[inline]
fn combine_f(mode: AssignOp, a: f64, b: f64) -> f64 {
    match mode {
        AssignOp::Set => b,
        AssignOp::Add => a + b,
        AssignOp::Sub => a - b,
    }
}

/// The interpreter's compound assignment on ints (wrapping).
#[inline]
fn combine_i(mode: AssignOp, a: i64, b: i64) -> i64 {
    match mode {
        AssignOp::Set => b,
        AssignOp::Add => a.wrapping_add(b),
        AssignOp::Sub => a.wrapping_sub(b),
    }
}

/// The interpreter's compound-assignment combine, verbatim.
fn combine(mode: AssignOp, old: &Value, rhs: Value, span: Span) -> LangResult<Value> {
    match mode {
        AssignOp::Set => Ok(rhs),
        AssignOp::Add | AssignOp::Sub => match (old, &rhs) {
            (Value::Int(a), Value::Int(b)) => Ok(Value::Int(combine_i(mode, *a, *b))),
            _ => {
                let a = old
                    .as_f64()
                    .ok_or_else(|| interp_err(span, "compound assignment on non-numeric target"))?;
                let b = rhs.as_f64().ok_or_else(|| {
                    interp_err(span, "compound assignment with non-numeric value")
                })?;
                Ok(Value::Double(combine_f(mode, a, b)))
            }
        },
    }
}

/// The interpreter's non-logical binary evaluation, verbatim (wrapping
/// integer arithmetic, mixed operands through f64, identity comparison
/// for objects).
fn bin_vals(op: BinOp, lv: &Value, rv: &Value, span: Span) -> LangResult<Value> {
    if op.is_arith() {
        match (lv, rv) {
            (Value::Int(a), Value::Int(b)) => {
                let v = match op {
                    BinOp::Add => a.wrapping_add(*b),
                    BinOp::Sub => a.wrapping_sub(*b),
                    BinOp::Mul => a.wrapping_mul(*b),
                    BinOp::Div => {
                        if *b == 0 {
                            return Err(interp_err(span, "integer division by zero"));
                        }
                        a.wrapping_div(*b)
                    }
                    BinOp::Rem => {
                        if *b == 0 {
                            return Err(interp_err(span, "integer remainder by zero"));
                        }
                        a.wrapping_rem(*b)
                    }
                    _ => unreachable!(),
                };
                Ok(Value::Int(v))
            }
            _ => {
                let a = lv
                    .as_f64()
                    .ok_or_else(|| interp_err(span, "non-numeric operand"))?;
                let b = rv
                    .as_f64()
                    .ok_or_else(|| interp_err(span, "non-numeric operand"))?;
                let v = match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    BinOp::Div => a / b,
                    BinOp::Rem => a % b,
                    _ => unreachable!(),
                };
                Ok(Value::Double(v))
            }
        }
    } else {
        let res = match (lv, rv) {
            (Value::Bool(a), Value::Bool(b)) => match op {
                BinOp::Eq => a == b,
                BinOp::Ne => a != b,
                _ => return Err(interp_err(span, "ordering comparison on booleans")),
            },
            (Value::Null, Value::Null) => matches!(op, BinOp::Eq),
            (Value::Null, Value::Object(_)) | (Value::Object(_), Value::Null) => {
                matches!(op, BinOp::Ne)
            }
            (Value::Object(a), Value::Object(b)) => {
                let same = Rc::ptr_eq(a, b);
                match op {
                    BinOp::Eq => same,
                    BinOp::Ne => !same,
                    _ => return Err(interp_err(span, "ordering comparison on objects")),
                }
            }
            _ => {
                let a = lv
                    .as_f64()
                    .ok_or_else(|| interp_err(span, "non-numeric operand"))?;
                let b = rv
                    .as_f64()
                    .ok_or_else(|| interp_err(span, "non-numeric operand"))?;
                Cmp::of(op).expect("comparison").holds(a, b)
            }
        };
        Ok(Value::Bool(res))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend;
    use crate::interp::Interp;

    /// Run `main`'s body as a slice through both engines and demand
    /// identical vars (deep), output, and globals.
    fn run_both(src: &str, host: HostEnv) -> (HashMap<String, Value>, Vec<String>) {
        let tp = frontend(src).unwrap();
        let (class, method) = tp.program.main().unwrap();
        let (cname, stmts) = (class.name.clone(), method.body.stmts.clone());

        let mut it = Interp::new(&tp, host.clone());
        let mut ivars = HashMap::new();
        it.exec_stmts_with_vars(&cname, &stmts, &mut ivars).unwrap();

        let prog = ProgramCode::lower(&tp);
        let slice = prog.lower_slice(&tp, &cname, &stmts);
        let mut vm = Vm::new(&prog, host);
        let mut vvars = HashMap::new();
        vm.exec_slice(&slice, &mut vvars).unwrap();

        assert_eq!(it.output, vm.output, "print output diverged");
        assert_eq!(
            ivars.len(),
            vvars.len(),
            "vars key sets diverged: {:?} vs {:?}",
            ivars.keys().collect::<Vec<_>>(),
            vvars.keys().collect::<Vec<_>>()
        );
        for (k, v) in &ivars {
            let w = vvars.get(k).unwrap_or_else(|| panic!("missing var {k}"));
            assert!(v.deep_eq(w), "var {k}: {v} vs {w}");
        }
        let ig = it.globals;
        let vg = vm.globals;
        assert_eq!(ig.len(), vg.len(), "globals diverged");
        for (k, v) in &ig {
            assert!(v.deep_eq(&vg[k]), "global {k} diverged");
        }
        (vvars, vm.output)
    }

    /// Both engines must fail with the *same* diagnostic.
    fn err_both(src: &str, host: HostEnv) -> crate::error::Diagnostic {
        let tp = frontend(src).unwrap();
        let (class, method) = tp.program.main().unwrap();
        let (cname, stmts) = (class.name.clone(), method.body.stmts.clone());

        let mut it = Interp::new(&tp, host.clone());
        let mut ivars = HashMap::new();
        let ie = it
            .exec_stmts_with_vars(&cname, &stmts, &mut ivars)
            .unwrap_err();

        let prog = ProgramCode::lower(&tp);
        let slice = prog.lower_slice(&tp, &cname, &stmts);
        let mut vm = Vm::new(&prog, host);
        let mut vvars = HashMap::new();
        let ve = vm.exec_slice(&slice, &mut vvars).unwrap_err();

        assert_eq!(ie, ve, "diagnostics diverged");
        assert_eq!(ivars.len(), vvars.len(), "post-error vars diverged");
        ie
    }

    #[test]
    fn arithmetic_and_control_flow() {
        let (_, out) = run_both(
            r#"class A { void main() {
                int sum = 0;
                for (int i = 1; i <= 10; i += 1) { sum += i; }
                print(sum);
            } }"#,
            HostEnv::new(),
        );
        assert_eq!(out, vec!["55"]);
    }

    #[test]
    fn foreach_sums_domain() {
        let (_, out) = run_both(
            r#"class A { void main() {
                RectDomain<1> d = [3 : 7];
                int sum = 0;
                foreach (i in d) { sum += i; }
                print(sum);
            } }"#,
            HostEnv::new(),
        );
        assert_eq!(out, vec!["25"]);
    }

    #[test]
    fn cached_global_reads_do_not_leak_into_vars() {
        // `w` is read every iteration and never assigned anywhere, so the
        // VM memoizes it in the frame — the memo must not surface as a
        // local in the written-back vars (run_both compares key sets).
        let (vars, out) = run_both(
            r#"extern int w;
            class A { void main() {
                int s = 0;
                for (int i = 0; i < 5; i += 1) { s += w; }
                print(s);
            } }"#,
            HostEnv::new().bind("w", Value::Int(3)),
        );
        assert_eq!(out, vec!["15"]);
        assert!(!vars.contains_key("w"), "memoized global leaked: {vars:?}");
    }

    #[test]
    fn global_written_by_callee_is_never_stale() {
        // `g` is assigned inside a method, which puts it in the lowered
        // program's assigned-name set and disables memoization: each read
        // in the loop must observe the callee's latest write.
        let (_, out) = run_both(
            r#"extern int g;
            class A {
                void bump() { g = g + 1; }
                void main() {
                    int s = 0;
                    for (int i = 0; i < 4; i += 1) { bump(); s += g; }
                    print(s);
                }
            }"#,
            HostEnv::new().bind("g", Value::Int(0)),
        );
        assert_eq!(out, vec!["10"]);
    }

    #[test]
    fn empty_foreach_leaves_var_unbound() {
        let (vars, _) = run_both(
            r#"class A { void main() {
                RectDomain<1> d = [5 : 2];
                int sum = 0;
                foreach (i in d) { sum += i; }
            } }"#,
            HostEnv::new(),
        );
        assert!(!vars.contains_key("i"), "loop var must not leak: {vars:?}");
        assert_eq!(vars["sum"].as_i64(), Some(0));
    }

    #[test]
    fn pipelined_loop_matches_for_all_packet_counts() {
        for np in [1, 3, 7, 100] {
            let (_, out) = run_both(
                r#"runtime_define int num_packets;
                class A { void main() {
                    RectDomain<1> d = [0 : 99];
                    int sum = 0;
                    PipelinedLoop (pkt in d; num_packets) {
                        foreach (i in pkt) { sum += i; }
                    }
                    print(sum);
                } }"#,
                HostEnv::new().bind("num_packets", Value::Int(np)),
            );
            assert_eq!(out, vec!["4950"], "num_packets={np}");
        }
    }

    #[test]
    fn interprocedural_recursion() {
        let (_, out) = run_both(
            r#"class A {
                int fib(int n) {
                    if (n < 2) { return n; }
                    return fib(n - 1) + fib(n - 2);
                }
                void main() { print(fib(12)); }
            }"#,
            HostEnv::new(),
        );
        assert_eq!(out, vec!["144"]);
    }

    #[test]
    fn objects_methods_and_reduction() {
        let (_, out) = run_both(
            r#"class Acc implements Reducinterface {
                double total;
                void reduce(Acc other) { total = total + other.total; }
                void add(double x) { total = total + x; }
            }
            class A { void main() {
                Acc acc = new Acc();
                RectDomain<1> d = [1 : 4];
                foreach (i in d) { acc.add(toDouble(i)); }
                print(acc.total);
            } }"#,
            HostEnv::new(),
        );
        assert_eq!(out, vec!["10"]);
    }

    #[test]
    fn short_circuit_evaluation() {
        let (_, out) = run_both(
            r#"class A {
                int boom() { int x = 1 / 0; return x; }
                void main() {
                    boolean b = false && boom() > 0;
                    boolean c = true || boom() > 0;
                    print(b);
                    print(c);
                } }"#,
            HostEnv::new(),
        );
        assert_eq!(out, vec!["false", "true"]);
    }

    #[test]
    fn extern_arrays_shared_in_place() {
        // Each engine gets its own array (a shared Rc would let the first
        // run's mutations leak into the second); contents must converge.
        let src = r#"extern double[] xs;
            class A { void main() {
                xs[0] = xs[1] + 2.5;
                xs[2] += 4.0;
                print(xs[0]);
                print(xs[2]);
            } }"#;
        let fresh = || Value::array(ArrayVal::F64(vec![0.0, 1.0, 0.0]));
        let tp = frontend(src).unwrap();
        let (class, method) = tp.program.main().unwrap();

        let ia = fresh();
        let mut it = Interp::new(&tp, HostEnv::new().bind("xs", ia.clone()));
        let mut ivars = HashMap::new();
        it.exec_stmts_with_vars(&class.name, &method.body.stmts, &mut ivars)
            .unwrap();

        let va = fresh();
        let prog = ProgramCode::lower(&tp);
        let slice = prog.lower_slice(&tp, &class.name, &method.body.stmts);
        let mut vm = Vm::new(&prog, HostEnv::new().bind("xs", va.clone()));
        let mut vvars = HashMap::new();
        vm.exec_slice(&slice, &mut vvars).unwrap();

        assert_eq!(it.output, vm.output);
        assert!(ia.deep_eq(&va), "array contents diverged: {ia} vs {va}");
    }

    #[test]
    fn global_scalar_mutation_lands_in_globals() {
        run_both(
            r#"extern int n;
            class A { void main() {
                n += 5;
                print(n);
            } }"#,
            HostEnv::new().bind("n", Value::Int(10)),
        );
    }

    #[test]
    fn ternary_and_builtins() {
        let (_, out) = run_both(
            r#"class A { void main() {
                double x = min(3.0, 2.0);
                double y = max(1, 5);
                int z = toInt(x < y ? pow(2.0, 3.0) : 0.0);
                print(z);
                print(abs(-4));
                print(floor(2.9));
                print(ceil(2.1));
                print(sqrt(16.0));
                print(log(exp(1.0)));
            } }"#,
            HostEnv::new(),
        );
        assert_eq!(out[0], "8");
    }

    #[test]
    fn compound_assign_widens_on_all_paths() {
        run_both(
            r#"class Box { double d; }
            class A { void main() {
                double x = 1.5;
                x += 2;
                Box b = new Box();
                b.d = 1;
                b.d += 2;
                double[] a = new double[2];
                a[0] = 3;
                a[0] += 1;
                print(x);
                print(b.d);
                print(a[0]);
            } }"#,
            HostEnv::new(),
        );
    }

    #[test]
    fn while_break_continue() {
        let (_, out) = run_both(
            r#"class A { void main() {
                int i = 0;
                int acc = 0;
                while (true) {
                    i += 1;
                    if (i > 20) { break; }
                    if (i % 3 == 0) { continue; }
                    acc += i;
                }
                print(acc);
            } }"#,
            HostEnv::new(),
        );
        assert_eq!(out, vec!["147"]);
    }

    #[test]
    fn domain_and_array_methods() {
        run_both(
            r#"class A { void main() {
                RectDomain<1> d = [2 : 11];
                print(d.lo());
                print(d.hi());
                print(d.size());
                int[] a = new int[7];
                print(a.length());
            } }"#,
            HostEnv::new(),
        );
    }

    #[test]
    fn slice_return_stops_early_and_writes_back() {
        let src = r#"class A { void main() {
            int a = 1;
            return;
            int b = 2;
        } }"#;
        let (vars, _) = run_both(src, HostEnv::new());
        assert_eq!(vars["a"].as_i64(), Some(1));
        assert!(!vars.contains_key("b"));
    }

    #[test]
    fn int_min_divided_by_minus_one_wraps() {
        // Every other int op wraps; `/` and `%` overflow only here.
        let (_, out) = run_both(
            r#"class A { void main() {
                int m = 0 - 9223372036854775807 - 1;
                print(m / (0 - 1));
                print(m % (0 - 1));
                int k = 0 - 1;
                print(m / k);
                print(m % k);
            } }"#,
            HostEnv::new(),
        );
        assert_eq!(
            out,
            ["-9223372036854775808", "0", "-9223372036854775808", "0"]
        );
    }

    #[test]
    fn int_compares_go_through_f64() {
        // 2^53 + 1 and 2^53 are one double apart: equal as `f64`.
        let (_, out) = run_both(
            r#"class A { void main() {
                int big = 9007199254740992;
                int next = big + 1;
                print(next > big);
                print(next == big);
                boolean b = next > big;
                if (next > big) { print(1); } else { print(2); }
            } }"#,
            HostEnv::new(),
        );
        assert_eq!(out, ["false", "true", "2"]);
    }

    #[test]
    fn nan_and_negative_zero_follow_rust_rules() {
        let (_, out) = run_both(
            r#"class A { void main() {
                double nan = 0.0 / 0.0;
                double nz = 0.0 - 0.0;
                nz = -0.0;
                print(min(nan, 1.0));
                print(max(1.0, nan));
                print(nan < 1.0);
                print(!(nan < 1.0));
                print(nan != nan);
                print(nz == 0.0);
                print(min(nz, 0.0));
                print(toInt(nan));
                print(toInt(1.0e300));
                if (nan >= 1.0) { print(1); } else { print(2); }
                if (!(nan < 1.0)) { print(3); }
            } }"#,
            HostEnv::new(),
        );
        assert_eq!(out[..6], ["1", "1", "false", "true", "true", "true"]);
    }

    #[test]
    fn mixed_ternary_keeps_each_branch_tag() {
        let (_, out) = run_both(
            r#"class A { void main() {
                boolean c = true;
                print((c ? 1 : 2.0) / 2);
                print((c ? 7 : 2.0) % 2);
                double x = c ? 1 : 2.0;
                print(x / 2);
                print(min(c ? 3 : 2.5, 4));
            } }"#,
            HostEnv::new(),
        );
        assert_eq!(out, ["0", "1", "0.5", "3"]);
    }

    #[test]
    fn typed_calls_coerce_arguments_and_results() {
        let (_, out) = run_both(
            r#"class A {
                double half(double x) { return x / 2; }
                double one() { return 1; }
                int twice(int x) { return x * 2; }
                boolean pos(double x) { return x > 0.0; }
                void main() {
                    print(half(3));
                    print(one() / 2);
                    print(twice(21));
                    print(pos(0 - 1));
                    double y = half(twice(2)) + one();
                    print(y);
                }
            }"#,
            HostEnv::new(),
        );
        assert_eq!(out, ["1.5", "0.5", "42", "false", "3"]);
    }

    #[test]
    fn a_host_value_of_the_wrong_tag_is_named() {
        // `extern double q` bound to an int: the interpreter would divide
        // as ints; the VM's unboxing names the value instead.
        let src = "extern double q; class A { void main() { print(q / 2); } }";
        let tp = frontend(src).unwrap();
        let (class, method) = tp.program.main().unwrap();
        let prog = ProgramCode::lower(&tp);
        let slice = prog.lower_slice(&tp, &class.name, &method.body.stmts);
        let mut vm = Vm::new(&prog, HostEnv::new().bind("q", Value::Int(3)));
        let err = vm.exec_slice(&slice, &mut HashMap::new()).unwrap_err();
        assert!(err.message.contains("`q` holds `3`"), "{}", err.message);
    }

    #[test]
    fn a_store_dense_storage_cannot_hold_is_named_on_both_engines() {
        // A slice does not check its host: `xs` is declared `double[]`
        // but bound to a dense `int[]`, so `1.5` has nowhere to go.
        let host = HostEnv::new().bind("xs", Value::array(ArrayVal::I64(vec![0, 0])));
        let d = err_both(
            "extern double[] xs; class A { void main() { xs[1] = 1.5; } }",
            host.clone(),
        );
        assert_eq!(d.message, "`int[]` element 1 cannot hold `1.5`");
        // An int into a dense `double[]` widens on both engines (the two
        // runs share `xs`, so the stores are idempotent).
        let xs = Value::array(ArrayVal::F64(vec![0.5, 0.5]));
        let (_, out) = run_both(
            "extern double[] xs; class A { void main() { xs[1] = 2; xs[0] = 3; print(xs[0] / xs[1]); } }",
            HostEnv::new().bind("xs", xs.clone()),
        );
        assert_eq!(out, ["1.5"]);
        assert!(xs.deep_eq(&Value::array(ArrayVal::F64(vec![3.0, 2.0]))));
    }

    #[test]
    fn first_iterations_run_apart_and_loops_still_agree() {
        // Peeled first iterations: memoized globals, declarations and
        // breaks in the first pass and in the rest.
        let (_, out) = run_both(
            r#"extern double w;
            class A { void main() {
                RectDomain<1> d = [0 : 9];
                double s = 0.0;
                foreach (i in d) {
                    double t = w * toDouble(i);
                    if (t > 20.0) { break; }
                    s += t;
                }
                int k = 0;
                while (k < 5) { int z = k * 2; k += 1; s += toDouble(z); }
                for (int q = 0; q < 3; q += 1) { double u = w; s -= u; }
                print(s);
            } }"#,
            HostEnv::new().bind("w", Value::Double(2.5)),
        );
        assert_eq!(out, ["102.5"]);
    }

    #[test]
    fn division_by_zero_matches() {
        let d = err_both("class A { void main() { int x = 1 / 0; } }", HostEnv::new());
        assert_eq!(d.message, "integer division by zero");
    }

    #[test]
    fn oob_index_matches() {
        let d = err_both(
            r#"class A { void main() {
                double[] xs = new double[2];
                xs[5] = 1.0;
            } }"#,
            HostEnv::new(),
        );
        assert!(d.message.contains("out of bounds"));
    }

    #[test]
    fn unbound_extern_matches() {
        // Declared externs pass the type checker; reading one the host
        // never bound is the runtime unknown-variable path.
        let d = err_both(
            "extern int m; class A { void main() { int x = m + 1; } }",
            HostEnv::new(),
        );
        assert_eq!(d.message, "unknown variable `m`");
    }

    #[test]
    fn unbound_extern_write_matches() {
        let d = err_both(
            "extern int m; class A { void main() { m = 3; } }",
            HostEnv::new(),
        );
        assert_eq!(d.message, "assignment to unknown variable `m`");
    }

    #[test]
    fn negative_array_length_matches() {
        let d = err_both(
            "class A { void main() { int[] a = new int[0 - 3]; } }",
            HostEnv::new(),
        );
        assert_eq!(d.message, "negative array length");
    }

    #[test]
    fn void_method_falls_off_end() {
        let (_, out) = run_both(
            r#"class A {
                void f(int n) { int x = n * 2; }
                void main() {
                    f(3);
                    print(1);
                } }"#,
            HostEnv::new(),
        );
        assert_eq!(out, vec!["1"]);
    }

    #[test]
    fn fuel_limits_runaway_loops() {
        let tp = frontend("class A { void main() { while (true) { int x = 0; } } }").unwrap();
        let (class, method) = tp.program.main().unwrap();
        let prog = ProgramCode::lower(&tp);
        let slice = prog.lower_slice(&tp, &class.name, &method.body.stmts);
        let mut vm = Vm::new(&prog, HostEnv::new()).with_fuel(10_000);
        let mut vars = HashMap::new();
        let err = vm.exec_slice(&slice, &mut vars).unwrap_err();
        assert!(err.message.contains("fuel"));
    }

    #[test]
    fn inlined_calls_tick_and_run_out_of_fuel_like_calls() {
        let src = r#"class Acc {
                int n;
                void add(int x) { for (int j = 0; j < 2; j += 1) { n += x; } }
            }
            class A { void main() {
                Acc acc = new Acc();
                RectDomain<1> d = [0 : 4];
                foreach (i in d) { acc.add(i); print(acc.n); }
            } }"#;
        let tp = frontend(src).unwrap();
        let (class, method) = tp.program.main().unwrap();
        let prog = ProgramCode::lower(&tp);
        let slice = prog.lower_slice(&tp, &class.name, &method.body.stmts);
        assert!(
            slice.ops.iter().any(|o| matches!(o, Op::Guard { .. })),
            "`add` is inlined: {:?}",
            slice.ops
        );
        let run = |fuel: Option<u64>| {
            let mut vm = Vm::new(&prog, HostEnv::new());
            vm.fuel = fuel;
            let r = vm.exec_slice(&slice, &mut HashMap::new());
            (r, vm.output, vm.steps)
        };
        // 4 foreach back-edges, 5 calls, and per call 2 back-edges of
        // `add`'s loop.
        let (r, out, steps) = run(None);
        r.unwrap();
        assert_eq!(steps, 4 + 5 + 5 * 2);
        assert_eq!(out, ["0", "2", "6", "12", "20"]);
        // Ticks 1-3 are the first call and its loop; 4 the foreach
        // back-edge; 5 the second call; 6 its loop's first back-edge.
        for (fuel, at) in [(3, "foreach"), (4, "acc.add(i)"), (5, "for (int j")] {
            let (r, out, _) = run(Some(fuel));
            let err = r.unwrap_err();
            assert_eq!(err.message, "interpreter fuel exhausted");
            assert!(
                src[err.span.start..err.span.end].starts_with(at),
                "fuel {fuel}: stopped at {:?}",
                &src[err.span.start..err.span.end]
            );
            assert_eq!(out, ["0"], "fuel {fuel}");
        }
    }

    #[test]
    fn a_guard_sends_a_receiver_of_another_class_to_its_own_method() {
        // `ps` is declared `P[]` but the host binds a `Q` too: the call
        // inlines `P.get`, and the `Q` must still run `Q.get`.
        let src = r#"extern P[] ps;
            class P { int a; int get() { return a; } }
            class Q { int a; int get() { return a + 100; } }
            class A { void main() {
                RectDomain<1> d = [0 : 2];
                foreach (i in d) { P p = ps[i]; print(p.get()); }
            } }"#;
        let obj = |class: &str, a: i64| {
            Value::new_object(class, HashMap::from([("a".to_string(), Value::Int(a))]))
        };
        let ps = vec![obj("P", 1), obj("Q", 2), obj("P", 3)];
        let host = HostEnv::new().bind("ps", Value::array(ArrayVal::Boxed(ps)));
        let (_, out) = run_both(src, host);
        assert_eq!(out, ["1", "102", "3"]);
    }

    #[test]
    fn a_null_receiver_misses_the_guard_and_raises_the_calls_diagnostic() {
        let d = err_both(
            r#"class P { int a; int get() { return a; } }
            class A { void main() { P p; print(p.get()); } }"#,
            HostEnv::new(),
        );
        assert_eq!(d.message, "cannot call `get` on value `null`");
    }

    #[test]
    fn vars_seed_overrides_like_interpreter() {
        // The stepper seeds slice vars externally; the slot binding must
        // see those values, not defaults.
        let tp = frontend(
            r#"class A { void main() {
                int a = 1;
                int b = a + 2;
            } }"#,
        )
        .unwrap();
        let (class, method) = tp.program.main().unwrap();
        let prog = ProgramCode::lower(&tp);
        let slice = prog.lower_slice(&tp, &class.name, &method.body.stmts[1..2]);
        let mut vm = Vm::new(&prog, HostEnv::new());
        let mut vars = HashMap::new();
        vars.insert("a".to_string(), Value::Int(41));
        vm.exec_slice(&slice, &mut vars).unwrap();
        assert_eq!(vars["b"].as_i64(), Some(43));
        assert_eq!(vars["a"].as_i64(), Some(41));
    }
}
