//! Tree-walking interpreter for the dialect.
//!
//! Two uses:
//!
//! 1. **Sequential oracle** — [`Interp::run_main`] executes a whole program
//!    with the paper's sequential semantics (a `PipelinedLoop` simply runs
//!    its packets one after another). Decomposed, pipelined executions are
//!    validated against this.
//! 2. **Filter bodies (Path A)** — the compiler-generated filters execute
//!    statement slices of `main` via [`Interp::exec_stmts_with_vars`], with
//!    variable bindings seeded from unpacked stream buffers.

use crate::ast::*;
use crate::error::{interp_err, LangResult};
use crate::span::Span;
use crate::types::TypedProgram;
use crate::value::{ArrayVal, ObjectVal, Shape, Value};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

/// Host-supplied bindings for `extern` and `runtime_define` globals.
#[derive(Debug, Clone, Default)]
pub struct HostEnv {
    pub values: HashMap<String, Value>,
}

impl HostEnv {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn bind(mut self, name: impl Into<String>, value: Value) -> Self {
        self.values.insert(name.into(), value);
        self
    }
}

/// Check every extern `values` binds against its declared type in `tp`:
/// scalars by tag, dense arrays by their storage, boxed arrays element by
/// element, objects by class and present field (one level deep). A run
/// calls this once, where it binds the host, so typed code never meets a
/// value whose tag disagrees with its declaration; the error names the
/// extern.
pub fn check_host(tp: &TypedProgram, values: &HashMap<String, Value>) -> LangResult<()> {
    for e in &tp.program.externs {
        if let Some(v) = values.get(&e.name) {
            if let Err(what) = conforms(tp, &e.ty, v, true) {
                return Err(interp_err(
                    e.span,
                    format!("extern `{}` is declared `{}` but {what}", e.name, e.ty),
                ));
            }
        }
    }
    Ok(())
}

/// Does `v` carry the tags of type `ty`? `Err` describes where it does
/// not. Objects' fields are checked when `deep`, without descending
/// further (host data may be cyclic).
fn conforms(tp: &TypedProgram, ty: &Type, v: &Value, deep: bool) -> Result<(), String> {
    let ok = match (ty, v) {
        (Type::Int, Value::Int(_))
        | (Type::Double, Value::Double(_))
        | (Type::Bool, Value::Bool(_))
        | (Type::RectDomain(_), Value::Domain(..))
        | (Type::Array(_) | Type::Class(_), Value::Null) => true,
        (Type::Array(elem), Value::Array(a)) => {
            let a = a.borrow();
            let a = match (&**elem, &*a) {
                // Dense storage proves its element tag.
                (Type::Double, ArrayVal::F64(_)) | (Type::Int, ArrayVal::I64(_)) => return Ok(()),
                (_, ArrayVal::F64(_) | ArrayVal::I64(_)) => {
                    return Err(format!("holds a dense `{}`", a.type_name()))
                }
                (_, ArrayVal::Boxed(a)) => a,
            };
            let bad = match &**elem {
                // The common host arrays, in one pass each.
                Type::Double => a.iter().position(|x| !matches!(x, Value::Double(_))),
                Type::Int => a.iter().position(|x| !matches!(x, Value::Int(_))),
                // Host object arrays share a few shapes: resolve each
                // shape's declared field types once, not per object.
                Type::Class(c) if deep => {
                    let class = tp.program.class(c);
                    let mut table: Option<(u64, Vec<Option<&Type>>)> = None;
                    for (i, x) in a.iter().enumerate() {
                        let Value::Object(o) = x else {
                            conforms(tp, elem, x, deep).map_err(|w| of_element(i, &w))?;
                            continue;
                        };
                        let o = o.borrow();
                        if o.class() != c {
                            return Err(format!(
                                "element {i} holds an object of class `{}`",
                                o.class()
                            ));
                        }
                        let shape = o.shape();
                        if table.as_ref().map(|(id, _)| *id) != Some(shape.id()) {
                            let types = shape
                                .names()
                                .iter()
                                .map(|n| class.and_then(|k| k.field(n)).map(|f| &f.ty))
                                .collect();
                            table = Some((shape.id(), types));
                        }
                        let types = &table.as_ref().expect("filled above").1;
                        for (s, ty) in types.iter().enumerate() {
                            if let (Some(ty), Some(x)) = (ty, o.slot(s)) {
                                if matches!(
                                    (ty, x),
                                    (Type::Double, Value::Double(_)) | (Type::Int, Value::Int(_))
                                ) {
                                    continue;
                                }
                                conforms(tp, ty, x, false).map_err(|_| {
                                    format!(
                                        "element {i}'s field `{}` holds `{x}`",
                                        shape.names()[s]
                                    )
                                })?;
                            }
                        }
                    }
                    None
                }
                elem => {
                    for (i, x) in a.iter().enumerate() {
                        conforms(tp, elem, x, deep).map_err(|w| of_element(i, &w))?;
                    }
                    None
                }
            };
            if let Some(i) = bad {
                return Err(format!("element {i} holds `{}`", a[i]));
            }
            true
        }
        (Type::Class(c), Value::Object(o)) => {
            let o = o.borrow();
            if o.class() != c {
                return Err(format!("holds an object of class `{}`", o.class()));
            }
            if deep {
                let class = tp.program.class(c);
                for (name, x) in o.fields() {
                    if let Some(f) = class.and_then(|k| k.field(name)) {
                        conforms(tp, &f.ty, x, false)
                            .map_err(|_| format!("field `{name}` holds `{x}`"))?;
                    }
                }
            }
            true
        }
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        Err(format!("holds `{v}`"))
    }
}

/// Where element `i` disagrees: `element 3 holds …` or `element 3's
/// field …`.
fn of_element(i: usize, what: &str) -> String {
    if what.starts_with("field") {
        format!("element {i}'s {what}")
    } else {
        format!("element {i} {what}")
    }
}

/// Split the inclusive domain `[lo, hi]` into `n` contiguous, balanced,
/// non-overlapping packets covering it exactly. Used identically by the
/// sequential interpreter, the compiler and the runtime, so all three agree
/// on packet boundaries.
pub fn split_domain(lo: i64, hi: i64, n: usize) -> Vec<(i64, i64)> {
    assert!(n > 0, "cannot split into zero packets");
    let total = (hi - lo + 1).max(0);
    if total == 0 {
        return Vec::new();
    }
    let n = (n as i64).min(total);
    let base = total / n;
    let rem = total % n;
    let mut out = Vec::with_capacity(n as usize);
    let mut start = lo;
    for p in 0..n {
        let len = base + if p < rem { 1 } else { 0 };
        out.push((start, start + len - 1));
        start += len;
    }
    out
}

/// Control-flow result of executing a statement.
enum Flow {
    Normal,
    Break,
    Continue,
    Return(Value),
}

/// One activation record.
struct Frame {
    class: String,
    this_obj: Option<Rc<RefCell<ObjectVal>>>,
    vars: HashMap<String, Value>,
}

/// The interpreter. See module docs.
pub struct Interp<'p> {
    tp: &'p TypedProgram,
    /// Extern / runtime_define values.
    pub globals: HashMap<String, Value>,
    /// Captured `print()` output.
    pub output: Vec<String>,
    /// Executed statement+expression step counter (cost/debug aid).
    pub steps: u64,
    /// Optional step budget; exceeding it aborts with an error.
    pub fuel: Option<u64>,
    /// One shape per instantiated class, fields in declaration order.
    shapes: HashMap<String, Arc<Shape>>,
}

impl<'p> Interp<'p> {
    pub fn new(tp: &'p TypedProgram, host: HostEnv) -> Self {
        Interp {
            tp,
            globals: host.values,
            output: Vec::new(),
            steps: 0,
            fuel: None,
            shapes: HashMap::new(),
        }
    }

    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = Some(fuel);
        self
    }

    fn tick(&mut self, span: Span) -> LangResult<()> {
        self.steps += 1;
        if let Some(fuel) = self.fuel {
            if self.steps > fuel {
                return Err(interp_err(span, "interpreter fuel exhausted"));
            }
        }
        Ok(())
    }

    /// Check all externs are bound, then run `main`. Returns the frame's
    /// final local variables (useful for inspecting results in tests).
    pub fn run_main(&mut self) -> LangResult<HashMap<String, Value>> {
        for e in &self.tp.program.externs {
            if !self.globals.contains_key(&e.name) {
                return Err(interp_err(
                    e.span,
                    format!("extern `{}` was not bound by the host", e.name),
                ));
            }
        }
        check_host(self.tp, &self.globals)?;
        let (class, method) = self
            .tp
            .program
            .main()
            .ok_or_else(|| interp_err(Span::synthetic(), "program has no `main` method"))?;
        let (class_name, method_name) = (class.name.clone(), method.name.clone());
        let this_obj = self.instantiate(&class_name)?;
        let mut frame = Frame {
            class: class_name.clone(),
            this_obj: Some(this_obj),
            vars: HashMap::new(),
        };
        let body = self
            .tp
            .program
            .method(&class_name, &method_name)
            .expect("main exists")
            .body
            .clone();
        self.exec_block(&mut frame, &body)?;
        Ok(frame.vars)
    }

    /// Execute a statement slice in the context of `class::method`, using
    /// `vars` as the live local bindings (mutated in place). This is the
    /// Path-A filter execution entry point: the caller unpacks ReqComm
    /// values into `vars` beforehand and packs the needed survivors after.
    pub fn exec_stmts_with_vars(
        &mut self,
        class: &str,
        stmts: &[Stmt],
        vars: &mut HashMap<String, Value>,
    ) -> LangResult<()> {
        let this_obj = self.instantiate(class)?;
        let mut frame = Frame {
            class: class.to_string(),
            this_obj: Some(this_obj),
            vars: std::mem::take(vars),
        };
        for s in stmts {
            match self.exec_stmt(&mut frame, s)? {
                Flow::Normal => {}
                Flow::Return(_) => break,
                Flow::Break | Flow::Continue => {
                    *vars = frame.vars;
                    return Err(interp_err(s.span, "break/continue escaped statement slice"));
                }
            }
        }
        *vars = frame.vars;
        Ok(())
    }

    /// Allocate a default-initialized instance of `class`.
    pub fn instantiate(&mut self, class: &str) -> LangResult<Rc<RefCell<ObjectVal>>> {
        let c = self
            .tp
            .program
            .class(class)
            .ok_or_else(|| interp_err(Span::synthetic(), format!("unknown class `{class}`")))?;
        let shape = self.shapes.entry(class.to_string()).or_insert_with(|| {
            Shape::new(class, c.fields.iter().map(|f| f.name.clone()).collect())
        });
        let slots = c
            .fields
            .iter()
            .map(|f| Some(Self::default_value(&f.ty)))
            .collect();
        Ok(Rc::new(RefCell::new(ObjectVal::new(
            Arc::clone(shape),
            slots,
        ))))
    }

    fn default_value(ty: &Type) -> Value {
        match ty {
            Type::Int => Value::Int(0),
            Type::Double => Value::Double(0.0),
            Type::Bool => Value::Bool(false),
            Type::RectDomain(_) => Value::Domain(0, -1),
            _ => Value::Null,
        }
    }

    /// Call `class::method` on `this_obj` with `args`.
    pub fn call_method(
        &mut self,
        class: &str,
        method: &str,
        this_obj: Option<Rc<RefCell<ObjectVal>>>,
        args: Vec<Value>,
    ) -> LangResult<Value> {
        let m = self
            .tp
            .program
            .method(class, method)
            .ok_or_else(|| {
                interp_err(
                    Span::synthetic(),
                    format!("unknown method `{class}::{method}`"),
                )
            })?
            .clone();
        if m.params.len() != args.len() {
            return Err(interp_err(
                m.span,
                format!("arity mismatch calling `{class}::{method}`"),
            ));
        }
        let mut frame = Frame {
            class: class.to_string(),
            this_obj,
            vars: HashMap::new(),
        };
        for (p, a) in m.params.iter().zip(args) {
            let a = Self::coerce(&p.ty, a);
            frame.vars.insert(p.name.clone(), a);
        }
        match self.exec_block(&mut frame, &m.body)? {
            Flow::Return(v) => Ok(Self::coerce(&m.ret, v)),
            _ => Ok(Value::Void),
        }
    }

    /// Implicit int→double widening at assignment/call boundaries.
    fn coerce(want: &Type, v: Value) -> Value {
        match (want, &v) {
            (Type::Double, Value::Int(i)) => Value::Double(*i as f64),
            _ => v,
        }
    }

    fn exec_block(&mut self, frame: &mut Frame, block: &Block) -> LangResult<Flow> {
        for s in &block.stmts {
            match self.exec_stmt(frame, s)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, frame: &mut Frame, stmt: &Stmt) -> LangResult<Flow> {
        self.tick(stmt.span)?;
        match &stmt.kind {
            StmtKind::VarDecl { name, ty, init } => {
                let v = match init {
                    Some(e) => Self::coerce(ty, self.eval(frame, e)?),
                    None => Self::default_value(ty),
                };
                frame.vars.insert(name.clone(), v);
                Ok(Flow::Normal)
            }
            StmtKind::Assign { target, op, value } => {
                let rhs = self.eval(frame, value)?;
                self.assign(frame, target, *op, rhs, stmt.span)?;
                Ok(Flow::Normal)
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let c = self.eval_bool(frame, cond)?;
                if c {
                    self.exec_block(frame, then_blk)
                } else if let Some(e) = else_blk {
                    self.exec_block(frame, e)
                } else {
                    Ok(Flow::Normal)
                }
            }
            StmtKind::While { cond, body } => {
                while self.eval_bool(frame, cond)? {
                    self.tick(stmt.span)?;
                    match self.exec_block(frame, body)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(i) = init {
                    self.exec_stmt(frame, i)?;
                }
                loop {
                    if let Some(c) = cond {
                        if !self.eval_bool(frame, c)? {
                            break;
                        }
                    }
                    self.tick(stmt.span)?;
                    match self.exec_block(frame, body)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                    if let Some(s) = step {
                        self.exec_stmt(frame, s)?;
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::Foreach { var, domain, body } => {
                let d = self.eval(frame, domain)?;
                let Value::Domain(lo, hi) = d else {
                    return Err(interp_err(stmt.span, "foreach over non-domain value"));
                };
                for i in lo..=hi {
                    self.tick(stmt.span)?;
                    frame.vars.insert(var.clone(), Value::Int(i));
                    match self.exec_block(frame, body)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::Pipelined {
                var,
                domain,
                num_packets,
                body,
            } => {
                let d = self.eval(frame, domain)?;
                let Value::Domain(lo, hi) = d else {
                    return Err(interp_err(stmt.span, "PipelinedLoop over non-domain value"));
                };
                let n = self.eval_int(frame, num_packets)?;
                if n <= 0 {
                    return Err(interp_err(stmt.span, "num_packets must be positive"));
                }
                for (plo, phi) in split_domain(lo, hi, n as usize) {
                    self.tick(stmt.span)?;
                    frame.vars.insert(var.clone(), Value::Domain(plo, phi));
                    match self.exec_block(frame, body)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::Return(value) => {
                let v = match value {
                    Some(e) => self.eval(frame, e)?,
                    None => Value::Void,
                };
                Ok(Flow::Return(v))
            }
            StmtKind::Expr(e) => {
                self.eval(frame, e)?;
                Ok(Flow::Normal)
            }
            StmtKind::Block(b) => self.exec_block(frame, b),
            StmtKind::Break => Ok(Flow::Break),
            StmtKind::Continue => Ok(Flow::Continue),
        }
    }

    fn assign(
        &mut self,
        frame: &mut Frame,
        target: &LValue,
        op: AssignOp,
        rhs: Value,
        span: Span,
    ) -> LangResult<()> {
        let combine = |old: &Value, rhs: Value| -> LangResult<Value> {
            match op {
                AssignOp::Set => Ok(rhs),
                AssignOp::Add | AssignOp::Sub => match (old, &rhs) {
                    (Value::Int(a), Value::Int(b)) => Ok(Value::Int(if op == AssignOp::Add {
                        a.wrapping_add(*b)
                    } else {
                        a.wrapping_sub(*b)
                    })),
                    _ => {
                        let a = old.as_f64().ok_or_else(|| {
                            interp_err(span, "compound assignment on non-numeric target")
                        })?;
                        let b = rhs.as_f64().ok_or_else(|| {
                            interp_err(span, "compound assignment with non-numeric value")
                        })?;
                        Ok(Value::Double(if op == AssignOp::Add {
                            a + b
                        } else {
                            a - b
                        }))
                    }
                },
            }
        };
        match target {
            LValue::Var(name) => {
                // Writing order mirrors lookup: local, then field of `this`,
                // then global extern.
                if let Some(slot) = frame.vars.get(name) {
                    let widened = match (slot, &rhs) {
                        (Value::Double(_), Value::Int(i)) => Value::Double(*i as f64),
                        _ => rhs,
                    };
                    let nv = combine(slot, widened)?;
                    frame.vars.insert(name.clone(), nv);
                    return Ok(());
                }
                if let Some(this_obj) = &frame.this_obj {
                    let old = this_obj.borrow().get(name).cloned();
                    if let Some(old) = old {
                        let widened = match (&old, &rhs) {
                            (Value::Double(_), Value::Int(i)) => Value::Double(*i as f64),
                            _ => rhs,
                        };
                        let nv = combine(&old, widened)?;
                        *this_obj
                            .borrow_mut()
                            .get_mut(name)
                            .expect("field read above") = nv;
                        return Ok(());
                    }
                }
                if let Some(old) = self.globals.get(name).cloned() {
                    let widened = match (&old, &rhs) {
                        (Value::Double(_), Value::Int(i)) => Value::Double(*i as f64),
                        _ => rhs,
                    };
                    let nv = combine(&old, widened)?;
                    self.globals.insert(name.clone(), nv);
                    return Ok(());
                }
                Err(interp_err(
                    span,
                    format!("assignment to unknown variable `{name}`"),
                ))
            }
            LValue::Field(base, field) => {
                let b = self.eval(frame, base)?;
                let Value::Object(obj) = b else {
                    return Err(interp_err(span, "field assignment on non-object"));
                };
                let old = obj
                    .borrow()
                    .get(field)
                    .cloned()
                    .ok_or_else(|| interp_err(span, format!("no field `{field}`")))?;
                let widened = match (&old, &rhs) {
                    (Value::Double(_), Value::Int(i)) => Value::Double(*i as f64),
                    _ => rhs,
                };
                let nv = combine(&old, widened)?;
                *obj.borrow_mut().get_mut(field).expect("field read above") = nv;
                Ok(())
            }
            LValue::Index(base, idx) => {
                let b = self.eval(frame, base)?;
                let i = self.eval_int(frame, idx)?;
                let Value::Array(arr) = b else {
                    return Err(interp_err(span, "index assignment on non-array"));
                };
                let len = arr.borrow().len();
                if i < 0 || i as usize >= len {
                    return Err(interp_err(
                        span,
                        format!("array index {i} out of bounds (len {len})"),
                    ));
                }
                let old = arr.borrow().get(i as usize).expect("index checked above");
                let widened = match (&old, &rhs) {
                    (Value::Double(_), Value::Int(v)) => Value::Double(*v as f64),
                    _ => rhs,
                };
                let nv = combine(&old, widened)?;
                let stored = arr.borrow_mut().set(i as usize, nv);
                stored.map_err(|what| interp_err(span, what))
            }
        }
    }

    fn eval_bool(&mut self, frame: &mut Frame, e: &Expr) -> LangResult<bool> {
        self.eval(frame, e)?
            .as_bool()
            .ok_or_else(|| interp_err(e.span, "expected a boolean"))
    }

    fn eval_int(&mut self, frame: &mut Frame, e: &Expr) -> LangResult<i64> {
        self.eval(frame, e)?
            .as_i64()
            .ok_or_else(|| interp_err(e.span, "expected an int"))
    }

    fn lookup(&self, frame: &Frame, name: &str, span: Span) -> LangResult<Value> {
        if let Some(v) = frame.vars.get(name) {
            return Ok(v.clone());
        }
        if let Some(this_obj) = &frame.this_obj {
            if let Some(v) = this_obj.borrow().get(name) {
                return Ok(v.clone());
            }
        }
        if let Some(v) = self.globals.get(name) {
            return Ok(v.clone());
        }
        Err(interp_err(span, format!("unknown variable `{name}`")))
    }

    fn eval(&mut self, frame: &mut Frame, e: &Expr) -> LangResult<Value> {
        self.tick(e.span)?;
        match &e.kind {
            ExprKind::IntLit(v) => Ok(Value::Int(*v)),
            ExprKind::DoubleLit(v) => Ok(Value::Double(*v)),
            ExprKind::BoolLit(v) => Ok(Value::Bool(*v)),
            ExprKind::Null => Ok(Value::Null),
            ExprKind::Var(name) => self.lookup(frame, name, e.span),
            ExprKind::This => frame
                .this_obj
                .clone()
                .map(Value::Object)
                .ok_or_else(|| interp_err(e.span, "`this` outside an instance method")),
            ExprKind::Field(base, field) => {
                let b = self.eval(frame, base)?;
                match b {
                    Value::Object(obj) => obj
                        .borrow()
                        .get(field)
                        .cloned()
                        .ok_or_else(|| interp_err(e.span, format!("no field `{field}`"))),
                    _ => Err(interp_err(e.span, "field access on non-object")),
                }
            }
            ExprKind::Index(base, idx) => {
                let b = self.eval(frame, base)?;
                let i = self.eval_int(frame, idx)?;
                match b {
                    Value::Array(arr) => {
                        let arr = arr.borrow();
                        if i < 0 || i as usize >= arr.len() {
                            Err(interp_err(
                                e.span,
                                format!("array index {i} out of bounds (len {})", arr.len()),
                            ))
                        } else {
                            Ok(arr.get(i as usize).expect("index checked above"))
                        }
                    }
                    _ => Err(interp_err(e.span, "indexing non-array")),
                }
            }
            ExprKind::Unary(op, inner) => {
                let v = self.eval(frame, inner)?;
                match op {
                    UnOp::Neg => match v {
                        Value::Int(i) => Ok(Value::Int(i.wrapping_neg())),
                        Value::Double(d) => Ok(Value::Double(-d)),
                        _ => Err(interp_err(e.span, "negating non-numeric")),
                    },
                    UnOp::Not => match v {
                        Value::Bool(b) => Ok(Value::Bool(!b)),
                        _ => Err(interp_err(e.span, "logical not on non-boolean")),
                    },
                }
            }
            ExprKind::Binary(op, l, r) => self.eval_binary(frame, e.span, *op, l, r),
            ExprKind::Ternary(c, a, b) => {
                if self.eval_bool(frame, c)? {
                    self.eval(frame, a)
                } else {
                    self.eval(frame, b)
                }
            }
            ExprKind::Call { recv, method, args } => {
                self.eval_call(frame, e.span, recv, method, args)
            }
            ExprKind::New(cname) => Ok(Value::Object(self.instantiate(cname)?)),
            ExprKind::NewArray(elem, len) => {
                let n = self.eval_int(frame, len)?;
                if n < 0 {
                    return Err(interp_err(e.span, "negative array length"));
                }
                Ok(Value::new_array(n as usize, Self::default_value(elem)))
            }
            ExprKind::DomainLit(lo, hi) => {
                let lo = self.eval_int(frame, lo)?;
                let hi = self.eval_int(frame, hi)?;
                Ok(Value::Domain(lo, hi))
            }
        }
    }

    fn eval_binary(
        &mut self,
        frame: &mut Frame,
        span: Span,
        op: BinOp,
        l: &Expr,
        r: &Expr,
    ) -> LangResult<Value> {
        // Short-circuit logic first.
        if op == BinOp::And {
            return Ok(Value::Bool(
                self.eval_bool(frame, l)? && self.eval_bool(frame, r)?,
            ));
        }
        if op == BinOp::Or {
            return Ok(Value::Bool(
                self.eval_bool(frame, l)? || self.eval_bool(frame, r)?,
            ));
        }
        let lv = self.eval(frame, l)?;
        let rv = self.eval(frame, r)?;
        if op.is_arith() {
            match (&lv, &rv) {
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
            // comparison
            let res = match (&lv, &rv) {
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
                    match op {
                        BinOp::Lt => a < b,
                        BinOp::Le => a <= b,
                        BinOp::Gt => a > b,
                        BinOp::Ge => a >= b,
                        BinOp::Eq => a == b,
                        BinOp::Ne => a != b,
                        _ => unreachable!(),
                    }
                }
            };
            Ok(Value::Bool(res))
        }
    }

    fn eval_call(
        &mut self,
        frame: &mut Frame,
        span: Span,
        recv: &Option<Box<Expr>>,
        method: &str,
        args: &[Expr],
    ) -> LangResult<Value> {
        let mut argv = Vec::with_capacity(args.len());
        for a in args {
            argv.push(self.eval(frame, a)?);
        }
        match recv {
            None => {
                if is_builtin(method) {
                    return self.eval_builtin(span, method, argv);
                }
                let this_obj = frame.this_obj.clone();
                let class = frame.class.clone();
                self.call_method(&class, method, this_obj, argv)
            }
            Some(r) => {
                let rv = self.eval(frame, r)?;
                match rv {
                    Value::Domain(lo, hi) => match method {
                        "lo" => Ok(Value::Int(lo)),
                        "hi" => Ok(Value::Int(hi)),
                        "size" => Ok(Value::Int((hi - lo + 1).max(0))),
                        _ => Err(interp_err(
                            span,
                            format!("RectDomain has no method `{method}`"),
                        )),
                    },
                    Value::Array(arr) => match method {
                        "length" => Ok(Value::Int(arr.borrow().len() as i64)),
                        _ => Err(interp_err(
                            span,
                            format!("arrays have no method `{method}`"),
                        )),
                    },
                    Value::Object(obj) => {
                        let class = obj.borrow().class().to_string();
                        self.call_method(&class, method, Some(obj), argv)
                    }
                    other => Err(interp_err(
                        span,
                        format!("cannot call `{method}` on value `{other}`"),
                    )),
                }
            }
        }
    }

    fn eval_builtin(&mut self, span: Span, name: &str, args: Vec<Value>) -> LangResult<Value> {
        let f = |v: &Value| -> LangResult<f64> {
            v.as_f64()
                .ok_or_else(|| interp_err(span, "numeric argument expected"))
        };
        match name {
            "sqrt" => Ok(Value::Double(f(&args[0])?.sqrt())),
            "floor" => Ok(Value::Double(f(&args[0])?.floor())),
            "ceil" => Ok(Value::Double(f(&args[0])?.ceil())),
            "exp" => Ok(Value::Double(f(&args[0])?.exp())),
            "log" => Ok(Value::Double(f(&args[0])?.ln())),
            "abs" => match &args[0] {
                Value::Int(i) => Ok(Value::Int(i.wrapping_abs())),
                Value::Double(d) => Ok(Value::Double(d.abs())),
                _ => Err(interp_err(span, "numeric argument expected")),
            },
            "min" | "max" => {
                let take_min = name == "min";
                match (&args[0], &args[1]) {
                    (Value::Int(a), Value::Int(b)) => {
                        Ok(Value::Int(if take_min { *a.min(b) } else { *a.max(b) }))
                    }
                    _ => {
                        let a = f(&args[0])?;
                        let b = f(&args[1])?;
                        Ok(Value::Double(if take_min { a.min(b) } else { a.max(b) }))
                    }
                }
            }
            "pow" => Ok(Value::Double(f(&args[0])?.powf(f(&args[1])?))),
            "toInt" => match &args[0] {
                Value::Int(i) => Ok(Value::Int(*i)),
                Value::Double(d) => Ok(Value::Int(*d as i64)),
                _ => Err(interp_err(span, "numeric argument expected")),
            },
            "toDouble" => Ok(Value::Double(f(&args[0])?)),
            "print" => {
                let s = args[0].to_string();
                self.output.push(s);
                Ok(Value::Void)
            }
            _ => Err(interp_err(span, format!("unknown builtin `{name}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::types::check;

    fn run(src: &str, host: HostEnv) -> (HashMap<String, Value>, Vec<String>) {
        let tp = check(parse(src).unwrap()).unwrap();
        let mut it = Interp::new(&tp, host);
        let vars = it.run_main().unwrap();
        (vars, it.output)
    }

    #[test]
    fn split_domain_covers_exactly() {
        let parts = split_domain(0, 9, 3);
        assert_eq!(parts, vec![(0, 3), (4, 6), (7, 9)]);
        let parts = split_domain(5, 5, 4);
        assert_eq!(parts, vec![(5, 5)]);
        assert!(split_domain(3, 2, 2).is_empty());
    }

    #[test]
    fn split_domain_more_packets_than_elements() {
        // n > domain size: exactly one single-element packet per element,
        // never an empty packet.
        let parts = split_domain(0, 3, 100);
        assert_eq!(parts, vec![(0, 0), (1, 1), (2, 2), (3, 3)]);
        assert!(parts.iter().all(|(a, b)| a <= b), "empty packet emitted");
    }

    #[test]
    fn split_domain_single_element_domain() {
        for n in 1..8usize {
            assert_eq!(split_domain(7, 7, n), vec![(7, 7)], "n={n}");
        }
        // Single element at a negative coordinate.
        assert_eq!(split_domain(-3, -3, 5), vec![(-3, -3)]);
    }

    #[test]
    fn split_domain_negative_lo() {
        // Bounds straddling zero keep coverage, order, and balance.
        let parts = split_domain(-7, 4, 3);
        assert_eq!(parts, vec![(-7, -4), (-3, 0), (1, 4)]);
        // Entirely negative domain, uneven split: the remainder packets
        // come first, exactly like the non-negative case.
        let parts = split_domain(-10, -4, 3);
        assert_eq!(parts, vec![(-10, -8), (-7, -6), (-5, -4)]);
        // Empty domain expressed with negative bounds stays empty.
        assert!(split_domain(-2, -3, 4).is_empty());
    }

    #[test]
    fn split_domain_balanced() {
        for total in 1..50i64 {
            for n in 1..10usize {
                let parts = split_domain(0, total - 1, n);
                let sum: i64 = parts.iter().map(|(a, b)| b - a + 1).sum();
                assert_eq!(sum, total);
                let min = parts.iter().map(|(a, b)| b - a + 1).min().unwrap();
                let max = parts.iter().map(|(a, b)| b - a + 1).max().unwrap();
                assert!(max - min <= 1, "unbalanced split: {parts:?}");
                for w in parts.windows(2) {
                    assert_eq!(w[0].1 + 1, w[1].0, "non-contiguous: {parts:?}");
                }
            }
        }
    }

    #[test]
    fn arithmetic_and_control_flow() {
        let src = r#"
            class A { void main() {
                int sum = 0;
                for (int i = 1; i <= 10; i += 1) { sum += i; }
                print(sum);
            } }
        "#;
        let (_, out) = run(src, HostEnv::new());
        assert_eq!(out, vec!["55"]);
    }

    #[test]
    fn foreach_sums_domain() {
        let src = r#"
            class A { void main() {
                RectDomain<1> d = [3 : 7];
                int sum = 0;
                foreach (i in d) { sum += i; }
                print(sum);
            } }
        "#;
        let (_, out) = run(src, HostEnv::new());
        assert_eq!(out, vec!["25"]);
    }

    #[test]
    fn pipelined_loop_equals_plain_loop() {
        let src = r#"
            runtime_define int num_packets;
            class A { void main() {
                RectDomain<1> d = [0 : 99];
                int sum = 0;
                PipelinedLoop (pkt in d; num_packets) {
                    foreach (i in pkt) { sum += i; }
                }
                print(sum);
            } }
        "#;
        for np in [1, 3, 7, 100] {
            let (_, out) = run(src, HostEnv::new().bind("num_packets", Value::Int(np)));
            assert_eq!(out, vec!["4950"], "num_packets={np}");
        }
    }

    #[test]
    fn extern_arrays_are_readable_and_writable() {
        let src = r#"
            extern double[] xs;
            class A { void main() {
                xs[0] = xs[1] + 2.5;
                print(xs[0]);
            } }
        "#;
        let arr = Value::array(ArrayVal::F64(vec![0.0, 1.0]));
        let (_, out) = run(src, HostEnv::new().bind("xs", arr.clone()));
        assert_eq!(out, vec!["3.5"]);
        assert!(arr.deep_eq(&Value::array(ArrayVal::F64(vec![3.5, 1.0]))));
    }

    #[test]
    fn unbound_extern_is_error() {
        let src = "extern int n; class A { void main() { } }";
        let tp = check(parse(src).unwrap()).unwrap();
        let mut it = Interp::new(&tp, HostEnv::new());
        assert!(it.run_main().is_err());
    }

    #[test]
    fn objects_methods_and_reduction() {
        let src = r#"
            class Acc implements Reducinterface {
                double total;
                void reduce(Acc other) { total = total + other.total; }
                void add(double x) { total = total + x; }
            }
            class A { void main() {
                Acc acc = new Acc();
                RectDomain<1> d = [1 : 4];
                foreach (i in d) { acc.add(toDouble(i)); }
                print(acc.total);
            } }
        "#;
        let (_, out) = run(src, HostEnv::new());
        assert_eq!(out, vec!["10"]);
    }

    #[test]
    fn interprocedural_calls() {
        let src = r#"
            class A {
                int fib(int n) {
                    if (n < 2) { return n; }
                    return fib(n - 1) + fib(n - 2);
                }
                void main() { print(fib(12)); }
            }
        "#;
        let (_, out) = run(src, HostEnv::new());
        assert_eq!(out, vec!["144"]);
    }

    #[test]
    fn short_circuit_evaluation() {
        let src = r#"
            class A {
                int boom() { int x = 1 / 0; return x; }
                void main() {
                    boolean b = false && boom() > 0;
                    print(b);
                }
            }
        "#;
        let (_, out) = run(src, HostEnv::new());
        assert_eq!(out, vec!["false"]);
    }

    #[test]
    fn division_by_zero_is_error() {
        let src = "class A { void main() { int x = 1 / 0; } }";
        let tp = check(parse(src).unwrap()).unwrap();
        let mut it = Interp::new(&tp, HostEnv::new());
        assert!(it.run_main().is_err());
    }

    #[test]
    fn fuel_limits_runaway_loops() {
        let src = "class A { void main() { while (true) { int x = 0; } } }";
        let tp = check(parse(src).unwrap()).unwrap();
        let mut it = Interp::new(&tp, HostEnv::new()).with_fuel(10_000);
        let err = it.run_main().unwrap_err();
        assert!(err.message.contains("fuel"));
    }

    #[test]
    fn exec_stmts_with_vars_runs_slices() {
        let src = r#"
            class A { void main() {
                int a = 1;
                int b = a + 2;
                print(b);
            } }
        "#;
        let tp = check(parse(src).unwrap()).unwrap();
        let main = tp.program.main().unwrap().1.body.clone();
        let mut it = Interp::new(&tp, HostEnv::new());
        // run only the second statement, with `a` seeded externally
        let mut vars = HashMap::new();
        vars.insert("a".to_string(), Value::Int(41));
        it.exec_stmts_with_vars("A", &main.stmts[1..2], &mut vars)
            .unwrap();
        assert_eq!(vars["b"].as_i64(), Some(43));
    }

    #[test]
    fn array_oob_is_error() {
        let src = r#"
            class A { void main() {
                double[] xs = new double[2];
                xs[5] = 1.0;
            } }
        "#;
        let tp = check(parse(src).unwrap()).unwrap();
        let mut it = Interp::new(&tp, HostEnv::new());
        let err = it.run_main().unwrap_err();
        assert!(err.message.contains("out of bounds"));
    }

    #[test]
    fn ternary_and_builtins() {
        let src = r#"
            class A { void main() {
                double x = min(3.0, 2.0);
                double y = max(1, 5);
                int z = toInt(x < y ? pow(2.0, 3.0) : 0.0);
                print(z);
            } }
        "#;
        let (_, out) = run(src, HostEnv::new());
        assert_eq!(out, vec!["8"]);
    }

    #[test]
    fn host_objects_are_checked_field_by_field() {
        let src = r#"
            extern P[] ps;
            class P { int a; double b; }
            class Q { int a; }
            class A { void main() { } }
        "#;
        let tp = check(parse(src).unwrap()).unwrap();
        let p = |a: Value, b: Value| {
            let mut f = HashMap::new();
            f.insert("a".to_string(), a);
            f.insert("b".to_string(), b);
            Value::new_object("P", f)
        };
        let ps = |elems: Vec<Value>| {
            let mut host = HashMap::new();
            host.insert("ps".to_string(), Value::array(ArrayVal::Boxed(elems)));
            check_host(&tp, &host).map_err(|e| e.message)
        };
        let good = p(Value::Int(1), Value::Double(2.0));
        assert_eq!(ps(vec![good.clone(), Value::Null]), Ok(()));
        assert_eq!(
            ps(vec![good.clone(), p(Value::Int(1), Value::Int(2))]),
            Err("extern `ps` is declared `P[]` but element 1's field `b` holds `2`".into())
        );
        let q = Value::new_object("Q", HashMap::from([("a".to_string(), Value::Int(1))]));
        assert_eq!(
            ps(vec![q]),
            Err("extern `ps` is declared `P[]` but element 0 holds an object of class `Q`".into())
        );
    }

    #[test]
    fn compound_assign_widens() {
        let src = r#"
            class A { void main() {
                double x = 1.5;
                x += 2;
                print(x);
            } }
        "#;
        let (_, out) = run(src, HostEnv::new());
        assert_eq!(out, vec!["3.5"]);
    }
}
