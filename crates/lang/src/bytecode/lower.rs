//! Lowering from typed AST to register bytecode.
//!
//! The pass is total: any typed program lowers. Names that cannot be
//! resolved at lower time (a method or class the checker would have
//! rejected) lower to [`UNRESOLVED`] ops that raise the interpreter's
//! runtime diagnostic when executed, so lowering never changes *when* an
//! error surfaces.
//!
//! Evaluation order is preserved exactly — the op sequence is the
//! interpreter's recursion unrolled: assignment evaluates its right-hand
//! side before the target, calls evaluate arguments before the receiver,
//! `&&`/`||` short-circuit through branches, and every implicit int or
//! boolean check carries the operand's span so diagnostics point where the
//! tree-walker points.
//!
//! One walk does three jobs. It carries each expression's static type
//! (`St`) and register file ([`Repr`]), so typed operands meet typed ops
//! and only unproved values are boxed. It tracks, flow-sensitively, which
//! slots are definitely bound (`Lowerer::bound`), so their registers are
//! operands with no check. And a pre-pass over the block collects its
//! names, declared types and literals, so slots and constant registers are
//! numbered before the first op is emitted.

use super::*;
use crate::ast::*;
use crate::span::Span;
use crate::symbols::MethodScope;
use crate::types::TypedProgram;
use std::cell::Cell;
use std::collections::{HashMap, HashSet};

/// An expression's static type, as far as the lowering needs it: the
/// register file, a receiver's class, an array's element kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum St {
    Int,
    Double,
    Bool,
    Domain,
    Arr(Elem),
    /// Object of a class id (or [`UNRESOLVED`]).
    Obj(u32),
    Void,
    Unknown,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Elem {
    Int,
    Double,
    Bool,
    Obj(u32),
    Other,
}

impl St {
    fn repr(self) -> Repr {
        match self {
            St::Int => Repr::I,
            St::Double => Repr::F,
            St::Bool => Repr::B,
            _ => Repr::V,
        }
    }

    fn elem(self) -> St {
        match self {
            St::Arr(Elem::Int) => St::Int,
            St::Arr(Elem::Double) => St::Double,
            St::Arr(Elem::Bool) => St::Bool,
            St::Arr(Elem::Obj(c)) => St::Obj(c),
            _ => St::Unknown,
        }
    }
}

/// Where a lowered expression's value is: a register, its static type and
/// the file it is in (`V` when the tag is not proved, whatever `st` says).
#[derive(Debug, Clone, Copy)]
struct Val {
    reg: Reg,
    st: St,
    r: Repr,
}

/// What every block of one program lowers against.
struct Ctx<'a> {
    tp: &'a TypedProgram,
    methods_by_class: &'a HashMap<String, HashMap<String, u32>>,
    class_map: &'a HashMap<String, u32>,
    sigs: &'a [Sig],
    /// Names assigned as plain variables in some method body.
    method_assigned: &'a HashSet<String>,
}

impl ProgramCode {
    /// Lower every method of every class. Two-phase: methods and their
    /// signatures are enumerated first so bodies can pre-resolve their
    /// own calls (including recursion and forward references).
    pub fn lower(tp: &TypedProgram) -> ProgramCode {
        let mut classes = Vec::new();
        let mut class_map = HashMap::new();
        let mut methods_by_class: HashMap<String, HashMap<String, u32>> = HashMap::new();
        let mut order: Vec<(&ClassDecl, &MethodDecl)> = Vec::new();
        let mut sigs = Vec::new();
        let mut assigned_names = HashSet::new();
        for c in &tp.program.classes {
            class_map.insert(c.name.clone(), classes.len() as u32);
            classes.push(ClassCode::new(
                &c.name,
                c.fields
                    .iter()
                    .map(|f| (f.name.clone(), ConstVal::default_for(&f.ty)))
                    .collect(),
            ));
            let per = methods_by_class.entry(c.name.clone()).or_default();
            for m in &c.methods {
                per.insert(m.name.clone(), order.len() as u32);
                order.push((c, m));
                sigs.push(Sig {
                    params: m.params.iter().map(|p| Repr::of(&p.ty)).collect(),
                    ret: (m.ret != Type::Void).then(|| Repr::of(&m.ret)),
                    ret_ty: m.ret.clone(),
                });
                // A slot fallback-assignment can land on a global, so
                // every plain-variable target counts, whatever it
                // resolves to.
                m.body.visit(&mut |s| {
                    if let StmtKind::Assign {
                        target: LValue::Var(n),
                        ..
                    } = &s.kind
                    {
                        assigned_names.insert(n.clone());
                    }
                });
            }
        }
        let cx = Ctx {
            tp,
            methods_by_class: &methods_by_class,
            class_map: &class_map,
            sigs: &sigs,
            method_assigned: &assigned_names,
        };
        let methods = order
            .iter()
            .enumerate()
            .map(|(mi, (c, m))| {
                let mut lw = Lowerer::new(&cx, &c.name, Some(m));
                lw.ret = cx.sigs[mi].ret;
                for p in &m.params {
                    lw.note_decl(&p.name, &p.ty);
                    lw.note_name(&p.name);
                }
                lw.collect_stmts(&m.body.stmts);
                lw.seal();
                for s in &m.body.stmts {
                    lw.stmt(s);
                }
                MethodCode {
                    code: lw.finish(),
                    decl_span: m.span,
                    class: c.name.clone(),
                    name: m.name.clone(),
                }
            })
            .collect();
        let mut prog = ProgramCode {
            methods,
            sigs,
            classes,
            methods_by_class,
            class_map,
            assigned_names,
        };
        // A callee qualifies by its own lowering: a leaf makes no call,
        // so it is never rewritten, and a body that calls keeps its call
        // ops (as miss targets), so it stays no leaf.
        for mi in 0..prog.methods.len() {
            if prog.methods[mi].code.ops.iter().any(is_call) {
                prog.methods[mi].code = prog.inline_leaves(prog.methods[mi].code.clone());
            }
        }
        prog
    }

    /// Lower a statement slice of `class`'s `main` — the bytecode
    /// analogue of `Interp::exec_stmts_with_vars`. Names the slice does
    /// not declare take their types from `main`'s declarations: the
    /// caller seeds them from earlier slices.
    pub fn lower_slice(&self, tp: &TypedProgram, class: &str, stmts: &[Stmt]) -> CodeBlock {
        let cx = Ctx {
            tp,
            methods_by_class: &self.methods_by_class,
            class_map: &self.class_map,
            sigs: &self.sigs,
            method_assigned: &self.assigned_names,
        };
        let mut lw = Lowerer::new(&cx, class, None);
        lw.collect_stmts(stmts);
        lw.seal();
        for s in stmts {
            // `break`/`continue` escaping a slice diagnose at the
            // enclosing *top-level* statement, as the interpreter does.
            lw.top_span = s.span;
            lw.stmt(s);
        }
        self.inline_leaves(lw.finish())
    }
}

/// `c`'s index in the constant pool `consts`, added if new.
fn intern_const(consts: &mut Vec<ConstVal>, c: ConstVal) -> u16 {
    if let Some(i) = consts.iter().position(|k| k.same(&c)) {
        return i as u16;
    }
    let id = u16::try_from(consts.len()).expect("bytecode const pool exceeds 65535 entries");
    consts.push(c);
    id
}

/// A slot's register holds its value: it is bound or memoized.
const READABLE: u8 = 1;
/// A slot is bound (a declaration, parameter or loop variable ran).
const DECLARED: u8 = 2;

struct LoopFrame {
    /// Jumps to patch to the loop exit.
    breaks: Vec<usize>,
    /// Jumps to patch to the continue target.
    continues: Vec<usize>,
}

struct Lowerer<'a> {
    cx: &'a Ctx<'a>,
    class: String,
    class_decl: Option<&'a ClassDecl>,
    /// The method being lowered; `None` for a slice.
    method: Option<&'a MethodDecl>,
    /// For a slice, the declarations of its class's `main`.
    main_scope: Option<&'a MethodScope>,
    /// The method's return repr (`None`: void, or a slice).
    ret: Option<Repr>,
    top_span: Span,

    ops: Vec<Op>,
    spans: Vec<Span>,
    name_spans: Vec<(u32, Span)>,
    consts: Vec<ConstVal>,
    names: Vec<String>,
    name_ids: HashMap<String, u16>,

    // Pre-pass results.
    /// Every name used as a plain variable, in first-use order.
    seen: Vec<String>,
    seen_set: HashSet<String>,
    /// Declared type per name declared in this block (`None`: two types).
    decls: HashMap<String, Option<St>>,
    assigned_here: HashSet<String>,
    int_lits: Vec<i64>,
    dbl_lits: Vec<f64>,

    // Slots.
    slot_of: HashMap<String, Reg>,
    slot_names: Vec<u16>,
    slot_kinds: Vec<SlotKind>,
    slot_repr: Vec<Repr>,
    slot_st: Vec<St>,
    cacheable: Vec<bool>,
    /// Per slot, what is certain at the current point: nothing,
    /// [`READABLE`] (bound or memoized) or [`DECLARED`] (bound).
    bound: Vec<u8>,
    /// Bare names that are fields of `this` in a method body.
    this_names: HashMap<String, St>,
    /// The `Value` register that holds the receiver.
    this: Reg,

    f_consts: Vec<(Reg, f64)>,
    i_consts: Vec<(Reg, i64)>,
    f_const_of: HashMap<u64, Reg>,
    i_const_of: HashMap<i64, Reg>,

    /// First free temporary register (watermark-scoped).
    next_tmp: u16,
    max_regs: u16,
    loops: Vec<LoopFrame>,
}

impl<'a> Lowerer<'a> {
    fn new(cx: &'a Ctx<'a>, class: &str, method: Option<&'a MethodDecl>) -> Self {
        Lowerer {
            cx,
            class: class.to_string(),
            class_decl: cx.tp.program.class(class),
            method,
            main_scope: match method {
                None => cx.tp.symbols.scope(class, "main"),
                Some(_) => None,
            },
            ret: None,
            top_span: Span::synthetic(),
            ops: Vec::new(),
            spans: Vec::new(),
            name_spans: Vec::new(),
            consts: Vec::new(),
            names: Vec::new(),
            name_ids: HashMap::new(),
            seen: Vec::new(),
            seen_set: HashSet::new(),
            decls: HashMap::new(),
            assigned_here: HashSet::new(),
            int_lits: Vec::new(),
            dbl_lits: Vec::new(),
            slot_of: HashMap::new(),
            slot_names: Vec::new(),
            slot_kinds: Vec::new(),
            slot_repr: Vec::new(),
            slot_st: Vec::new(),
            cacheable: Vec::new(),
            bound: Vec::new(),
            this_names: HashMap::new(),
            this: 0,
            f_consts: Vec::new(),
            i_consts: Vec::new(),
            f_const_of: HashMap::new(),
            i_const_of: HashMap::new(),
            next_tmp: 0,
            max_regs: 0,
            loops: Vec::new(),
        }
    }

    // -- static types -----------------------------------------------------

    fn st_of(&self, ty: &Type) -> St {
        let class = |c: &str| self.cx.class_map.get(c).copied().unwrap_or(UNRESOLVED);
        match ty {
            Type::Int => St::Int,
            Type::Double => St::Double,
            Type::Bool => St::Bool,
            Type::RectDomain(_) => St::Domain,
            Type::Class(c) => St::Obj(class(c)),
            Type::Void => St::Void,
            Type::Array(e) => St::Arr(match &**e {
                Type::Int => Elem::Int,
                Type::Double => Elem::Double,
                Type::Bool => Elem::Bool,
                Type::Class(c) => Elem::Obj(class(c)),
                _ => Elem::Other,
            }),
        }
    }

    fn class_decl_of(&self, ci: u32) -> Option<&'a ClassDecl> {
        self.cx.tp.program.classes.get(ci as usize)
    }

    fn field_st(&self, st: St, field: &str) -> St {
        match st {
            St::Obj(ci) => self
                .class_decl_of(ci)
                .and_then(|c| c.field(field))
                .map_or(St::Unknown, |f| self.st_of(&f.ty)),
            _ => St::Unknown,
        }
    }

    /// The method a call on a receiver of static type `st` resolves to.
    fn method_of(&self, st: St, method: &str) -> Option<u32> {
        let St::Obj(ci) = st else { return None };
        let c = self.class_decl_of(ci)?;
        self.cx.methods_by_class.get(&c.name)?.get(method).copied()
    }

    fn ret_st(&self, mi: u32) -> St {
        self.st_of(&self.cx.sigs[mi as usize].ret_ty)
    }

    /// The static type of `e` without lowering it (call receivers, whose
    /// class fixes the arguments' conversions but which evaluate after
    /// them).
    fn peek_st(&self, e: &Expr) -> St {
        match &e.kind {
            ExprKind::IntLit(_) => St::Int,
            ExprKind::DoubleLit(_) => St::Double,
            ExprKind::BoolLit(_) => St::Bool,
            ExprKind::Var(n) => match (self.this_names.get(n), self.slot_of.get(n)) {
                (Some(st), _) => *st,
                (None, Some(s)) => self.slot_st[*s as usize],
                (None, None) => St::Unknown,
            },
            ExprKind::This => St::Obj(
                self.cx
                    .class_map
                    .get(&self.class)
                    .copied()
                    .unwrap_or(UNRESOLVED),
            ),
            ExprKind::Field(b, f) => self.field_st(self.peek_st(b), f),
            ExprKind::Index(b, _) => self.peek_st(b).elem(),
            ExprKind::Call { recv, method, .. } => match recv {
                None => self
                    .cx
                    .methods_by_class
                    .get(&self.class)
                    .and_then(|m| m.get(method))
                    .filter(|_| !is_builtin(method))
                    .map_or(St::Unknown, |mi| self.ret_st(*mi)),
                Some(r) => match self.peek_st(r) {
                    St::Domain | St::Arr(_) => St::Int,
                    st => self
                        .method_of(st, method)
                        .map_or(St::Unknown, |mi| self.ret_st(mi)),
                },
            },
            ExprKind::New(c) => self.st_of(&Type::Class(c.clone())),
            ExprKind::NewArray(t, _) => self.st_of(&Type::array_of(t.clone())),
            ExprKind::DomainLit(..) => St::Domain,
            ExprKind::Ternary(_, a, b) => {
                let (x, y) = (self.peek_st(a), self.peek_st(b));
                if x == y {
                    x
                } else {
                    St::Unknown
                }
            }
            _ => St::Unknown,
        }
    }

    // -- pre-pass ---------------------------------------------------------

    fn note_name(&mut self, name: &str) {
        if !self.seen_set.contains(name) {
            self.seen_set.insert(name.to_string());
            self.seen.push(name.to_string());
        }
    }

    fn note_decl(&mut self, name: &str, ty: &Type) {
        let st = self.st_of(ty);
        match self.decls.get(name) {
            Some(Some(prev)) if *prev != st => {
                self.decls.insert(name.to_string(), None);
            }
            Some(_) => {}
            None => {
                self.decls.insert(name.to_string(), Some(st));
            }
        }
    }

    fn collect_stmts(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            self.collect_stmt(s);
        }
    }

    fn collect_stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::VarDecl { name, init, ty } => {
                self.note_decl(name, ty);
                self.note_name(name);
                if let Some(e) = init {
                    self.collect_expr(e);
                }
            }
            StmtKind::Assign { target, value, .. } => {
                match target {
                    LValue::Var(name) => {
                        self.note_name(name);
                        self.assigned_here.insert(name.clone());
                    }
                    LValue::Field(base, _) => self.collect_expr(base),
                    LValue::Index(base, idx) => {
                        self.collect_expr(base);
                        self.collect_expr(idx);
                    }
                }
                self.collect_expr(value);
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                self.collect_expr(cond);
                self.collect_stmts(&then_blk.stmts);
                if let Some(e) = else_blk {
                    self.collect_stmts(&e.stmts);
                }
            }
            StmtKind::While { cond, body } => {
                self.collect_expr(cond);
                self.collect_stmts(&body.stmts);
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(i) = init {
                    self.collect_stmt(i);
                }
                if let Some(c) = cond {
                    self.collect_expr(c);
                }
                if let Some(st) = step {
                    self.collect_stmt(st);
                }
                self.collect_stmts(&body.stmts);
            }
            StmtKind::Foreach { var, domain, body } => {
                self.note_decl(var, &Type::Int);
                self.note_name(var);
                self.collect_expr(domain);
                self.collect_stmts(&body.stmts);
            }
            StmtKind::Pipelined {
                var,
                domain,
                num_packets,
                body,
            } => {
                self.note_decl(var, &Type::RectDomain(1));
                self.note_name(var);
                self.collect_expr(domain);
                self.collect_expr(num_packets);
                self.collect_stmts(&body.stmts);
            }
            StmtKind::Return(Some(e)) | StmtKind::Expr(e) => self.collect_expr(e),
            StmtKind::Return(None) | StmtKind::Break | StmtKind::Continue => {}
            StmtKind::Block(b) => self.collect_stmts(&b.stmts),
        }
    }

    fn collect_expr(&mut self, e: &Expr) {
        match &e.kind {
            ExprKind::Var(name) => self.note_name(name),
            ExprKind::IntLit(v) => self.int_lits.push(*v),
            ExprKind::DoubleLit(v) => self.dbl_lits.push(*v),
            ExprKind::BoolLit(b) => self.int_lits.push(i64::from(*b)),
            ExprKind::Field(base, _) => self.collect_expr(base),
            ExprKind::Index(base, idx) => {
                self.collect_expr(base);
                self.collect_expr(idx);
            }
            ExprKind::Unary(op, inner) => {
                // `-literal` folds to a constant.
                match (op, &inner.kind) {
                    (UnOp::Neg, ExprKind::IntLit(v)) => self.int_lits.push(v.wrapping_neg()),
                    (UnOp::Neg, ExprKind::DoubleLit(v)) => self.dbl_lits.push(-v),
                    _ => {}
                }
                self.collect_expr(inner)
            }
            ExprKind::Binary(op, l, r) => {
                if op.is_logic() {
                    // Materializing `&&`/`||` moves a constant 0 or 1.
                    self.int_lits.extend([0, 1]);
                }
                self.collect_expr(l);
                self.collect_expr(r);
            }
            ExprKind::Ternary(c, a, b) => {
                self.collect_expr(c);
                self.collect_expr(a);
                self.collect_expr(b);
            }
            ExprKind::Call { recv, args, .. } => {
                for a in args {
                    self.collect_expr(a);
                }
                if let Some(r) = recv {
                    self.collect_expr(r);
                }
            }
            ExprKind::NewArray(_, len) => self.collect_expr(len),
            ExprKind::DomainLit(lo, hi) => {
                self.collect_expr(lo);
                self.collect_expr(hi);
            }
            ExprKind::Null | ExprKind::This | ExprKind::New(_) => {}
        }
    }

    /// Number the slots and constant registers the pre-pass found, type
    /// the slots, and open the temporary region above them.
    fn seal(&mut self) {
        let seen = std::mem::take(&mut self.seen);
        for name in &seen {
            let field = self.class_decl.and_then(|c| c.field(name));
            match (self.method, field) {
                // In a method body a bare name that is no local or
                // parameter is a field of `this`: it has no slot.
                (Some(_), Some(f)) if !self.decls.contains_key(name) => {
                    let st = self.st_of(&f.ty);
                    self.this_names.insert(name.clone(), st);
                }
                _ => {
                    self.declare_slot(name);
                }
            }
        }
        if let Some(m) = self.method {
            for p in &m.params {
                let s = self.slot_of[&p.name];
                self.bound[s as usize] = DECLARED;
            }
        }
        self.next_tmp = self.slot_names.len() as u16;
        self.this = self.alloc();
        for v in std::mem::take(&mut self.int_lits) {
            if !self.i_const_of.contains_key(&v) {
                let r = self.alloc();
                self.i_const_of.insert(v, r);
                self.i_consts.push((r, v));
            }
            // The same literal, widened where a double is wanted.
            self.dbl_lits.push(v as f64);
        }
        for v in std::mem::take(&mut self.dbl_lits) {
            if !self.f_const_of.contains_key(&v.to_bits()) {
                let r = self.alloc();
                self.f_const_of.insert(v.to_bits(), r);
                self.f_consts.push((r, v));
            }
        }
    }

    /// The declared type of a name in this block's scope: its own
    /// declarations, then (slices) `main`'s, then a field of the class,
    /// then an extern. A name declared with two types stays `Unknown`.
    fn slot_type(&self, name: &str) -> St {
        let mut found: Option<St> = None;
        let mut meet = |st: St| {
            found = Some(match found {
                Some(prev) if prev != st => St::Unknown,
                _ => st,
            })
        };
        if let Some(d) = self.decls.get(name) {
            meet(d.unwrap_or(St::Unknown));
        }
        if let Some(t) = self.main_scope.and_then(|s| s.get(name)) {
            meet(self.st_of(t));
        }
        if let Some(st) = found {
            return st;
        }
        if let Some(f) = self.class_decl.and_then(|c| c.field(name)) {
            return self.st_of(&f.ty);
        }
        self.cx
            .tp
            .symbols
            .externs
            .get(name)
            .map_or(St::Unknown, |t| self.st_of(t))
    }

    fn declare_slot(&mut self, name: &str) -> Reg {
        if let Some(r) = self.slot_of.get(name) {
            return *r;
        }
        let r = self.slot_names.len() as Reg;
        let nid = self.name_id(name);
        self.slot_of.insert(name.to_string(), r);
        self.slot_names.push(nid);
        let is_field = self.class_decl.is_some_and(|c| c.field(name).is_some());
        let kind = if is_field {
            SlotKind::ThisField
        } else if self.cx.tp.symbols.externs.contains_key(name) {
            SlotKind::Global
        } else {
            SlotKind::Dynamic
        };
        self.slot_kinds.push(kind);
        let st = self.slot_type(name);
        self.slot_st.push(st);
        self.slot_repr.push(st.repr());
        // Unassigned here and in every method, a name that is no field of
        // `this` reads the same global (or fails the same way) all frame
        // long, until a declaration binds it.
        self.cacheable.push(
            kind != SlotKind::ThisField
                && !self.assigned_here.contains(name)
                && !self.cx.method_assigned.contains(name),
        );
        self.bound.push(0);
        r
    }

    // -- small helpers ------------------------------------------------------

    fn emit(&mut self, op: Op, span: Span) -> usize {
        self.ops.push(op);
        self.spans.push(span);
        self.ops.len() - 1
    }

    /// Record the span of the identifier a [`Base::This`] operand of op
    /// `at` reads (or the index expression of a fused element field).
    fn name_span_at(&mut self, at: usize, span: Span) {
        self.name_spans.push((at as u32, span));
    }

    fn here(&self) -> u32 {
        self.ops.len() as u32
    }

    fn patch(&mut self, at: usize, to: u32) {
        match &mut self.ops[at] {
            Op::Jump { to: t }
            | Op::BranchTrue { to: t, .. }
            | Op::BranchFalse { to: t, .. }
            | Op::BranchB { to: t, .. }
            | Op::BrF { to: t, .. }
            | Op::BrI { to: t, .. }
            | Op::ForeachBegin { end: t, .. }
            | Op::PipeBegin { end: t, .. } => *t = to,
            other => unreachable!("patching non-jump op {other:?}"),
        }
    }

    fn patch_here(&mut self, jumps: Vec<usize>) {
        let to = self.here();
        for at in jumps {
            self.patch(at, to);
        }
    }

    fn alloc(&mut self) -> Reg {
        let r = self.next_tmp;
        self.next_tmp = self
            .next_tmp
            .checked_add(1)
            .expect("bytecode frame exceeds 65535 registers");
        self.max_regs = self.max_regs.max(self.next_tmp);
        r
    }

    fn name_id(&mut self, name: &str) -> u16 {
        if let Some(id) = self.name_ids.get(name) {
            return *id;
        }
        let id = u16::try_from(self.names.len()).expect("bytecode name pool exceeds 65535 entries");
        self.names.push(name.to_string());
        self.name_ids.insert(name.to_string(), id);
        id
    }

    fn konst(&mut self, c: ConstVal) -> u16 {
        intern_const(&mut self.consts, c)
    }

    fn slot(&self, name: &str) -> Reg {
        // The pre-pass gave every name a slot before any temporary or
        // constant register was numbered.
        self.slot_of[name]
    }

    /// The field type of a bare name that is a field of `this` here.
    fn this_name(&self, name: &str) -> Option<St> {
        self.this_names.get(name).copied()
    }

    /// A join of two paths: what is certain on both.
    fn meet(&mut self, other: &[u8]) {
        for (b, o) in self.bound.iter_mut().zip(other) {
            *b = (*b).min(*o);
        }
    }

    fn finish(self) -> CodeBlock {
        let caches = ShapeCache::new(self.ops.len());
        CodeBlock {
            class: self.class,
            ops: self.ops,
            spans: self.spans,
            name_spans: self.name_spans,
            this: self.this,
            consts: self.consts,
            names: self.names,
            slot_names: self.slot_names,
            slot_kinds: self.slot_kinds,
            slot_repr: self.slot_repr,
            cacheable: self.cacheable,
            f_consts: self.f_consts,
            i_consts: self.i_consts,
            n_regs: self.max_regs.max(self.next_tmp),
            caches,
        }
    }

    // -- statements ---------------------------------------------------------

    fn stmts(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            self.stmt(s);
        }
    }

    /// Open a loop: its entry state is what the body may assume on every
    /// iteration; the state after it is the same (the body may not run).
    fn loop_body(&mut self, body: &[Stmt]) -> LoopFrame {
        self.loops.push(LoopFrame {
            breaks: Vec::new(),
            continues: Vec::new(),
        });
        self.stmts(body);
        self.loops.pop().expect("pushed above")
    }

    /// Should a loop whose first iteration started from `before` run that
    /// iteration as its own copy? When the body is innermost, has no
    /// `continue` (which would enter the next iteration from elsewhere)
    /// and its first pass proved a slot readable or bound that was not,
    /// the copy for the remaining iterations starts from that proof: no
    /// memoizing reads, no re-binding of declarations.
    fn peels(&self, body: &[Stmt], before: &[u8]) -> bool {
        fn innermost(stmts: &[Stmt]) -> bool {
            stmts.iter().all(|s| match &s.kind {
                StmtKind::While { .. }
                | StmtKind::For { .. }
                | StmtKind::Foreach { .. }
                | StmtKind::Pipelined { .. }
                | StmtKind::Continue => false,
                StmtKind::If {
                    then_blk, else_blk, ..
                } => {
                    innermost(&then_blk.stmts)
                        && else_blk.as_ref().is_none_or(|e| innermost(&e.stmts))
                }
                StmtKind::Block(b) => innermost(&b.stmts),
                _ => true,
            })
        }
        self.bound.as_slice() != before && innermost(body)
    }

    /// `while (cond) body`, or (`step` set) the test, body and step of a
    /// `for` whose init already ran. The first iteration may be peeled
    /// ([`Lowerer::peels`]): its copy falls through into the loop proper.
    fn cond_loop(
        &mut self,
        cond: Option<&Expr>,
        step: Option<Option<&Stmt>>,
        body: &Block,
        span: Span,
    ) {
        let entry = self.bound.clone();
        let mut exits = Vec::new();
        let mut first = true;
        loop {
            let head = self.here();
            if let Some(c) = cond {
                exits.extend(self.branch(c, false));
            }
            let before = self.bound.clone();
            let frame = self.loop_body(&body.stmts);
            // `continue` in a for loop runs the step, then re-tests.
            let cont_at = self.here();
            if let Some(Some(st)) = step {
                self.stmt(st);
            }
            exits.extend(frame.breaks);
            let peel = first && self.peels(&body.stmts, &before);
            if peel {
                first = false;
                continue;
            }
            self.emit(Op::Jump { to: head }, span);
            for at in frame.continues {
                self.patch(at, if step.is_some() { cont_at } else { head });
            }
            break;
        }
        self.patch_here(exits);
        self.bound = entry;
    }

    fn stmt(&mut self, s: &Stmt) {
        let save = self.next_tmp;
        match &s.kind {
            StmtKind::VarDecl { name, ty, init } => {
                let slot = self.slot(name);
                match init {
                    Some(e) => {
                        let want = self.slot_repr[slot as usize];
                        let v = self.expr(e, Some(slot));
                        // The declaration's own widening comes first: a
                        // boxed slot of declared type double still holds
                        // a double.
                        let v = if *ty == Type::Double && v.r == Repr::I {
                            let reg = self.float_reg(v, e, Some(slot));
                            Val {
                                reg,
                                st: St::Double,
                                r: Repr::F,
                            }
                        } else {
                            v
                        };
                        self.convert_into(v, want, slot, e);
                        if self.bound[slot as usize] < DECLARED {
                            self.emit(Op::Bind { slot }, s.span);
                        }
                    }
                    None => {
                        let k = self.konst(ConstVal::default_for(ty));
                        self.emit(Op::BindDefault { slot, k }, s.span);
                    }
                }
                self.bound[slot as usize] = DECLARED;
            }
            StmtKind::Assign { target, op, value } => self.assign(target, *op, value, s.span),
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let jf = self.branch(cond, false);
                let before = self.bound.clone();
                self.stmts(&then_blk.stmts);
                match else_blk {
                    Some(e) => {
                        let jend = self.emit(Op::Jump { to: 0 }, s.span);
                        let after_then = std::mem::replace(&mut self.bound, before);
                        self.patch_here(jf);
                        self.stmts(&e.stmts);
                        self.meet(&after_then);
                        self.patch_here(vec![jend]);
                    }
                    None => {
                        self.patch_here(jf);
                        self.bound = before;
                    }
                }
            }
            StmtKind::While { cond, body } => self.cond_loop(Some(cond), None, body, s.span),
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(i) = init {
                    self.stmt(i);
                }
                let step = Some(step.as_deref());
                self.cond_loop(cond.as_ref(), step, body, s.span)
            }
            StmtKind::Foreach { var, domain, body } => {
                let slot = self.slot(var);
                let dom = self.expr_as(domain, Repr::V);
                let cur = self.alloc();
                self.alloc(); // `cur + 1`: the domain's upper bound
                let typed = self.slot_repr[slot as usize] == Repr::I;
                let var_reg = if typed { slot } else { self.alloc() };
                let begin = self.emit(
                    Op::ForeachBegin {
                        dom,
                        var: var_reg,
                        cur,
                        end: 0,
                    },
                    s.span,
                );
                if self.bound[slot as usize] < DECLARED {
                    // Once, on entry: the back-edge jumps past it.
                    self.emit(Op::Bind { slot }, s.span);
                }
                let entry = self.bound.clone();
                self.bound[slot as usize] = DECLARED;
                let mut exits = vec![begin];
                let mut first = true;
                loop {
                    let body_at = self.here();
                    if !typed {
                        self.emit(
                            Op::Box {
                                dst: slot,
                                src: var_reg,
                                repr: Repr::I,
                            },
                            s.span,
                        );
                    }
                    let before = self.bound.clone();
                    let frame = self.loop_body(&body.stmts);
                    let next_at = self.here();
                    exits.extend(frame.breaks);
                    for at in frame.continues {
                        self.patch(at, next_at);
                    }
                    let peel = first && self.peels(&body.stmts, &before);
                    self.emit(
                        Op::ForeachNext {
                            var: var_reg,
                            cur,
                            body: if peel { next_at + 2 } else { body_at },
                        },
                        s.span,
                    );
                    if !peel {
                        break;
                    }
                    // The first iteration ran apart; the rest reuse what
                    // it proved.
                    exits.push(self.emit(Op::Jump { to: 0 }, s.span));
                    first = false;
                }
                for at in exits {
                    let end = self.here();
                    self.patch(at, end);
                }
                self.bound = entry;
            }
            StmtKind::Pipelined {
                var,
                domain,
                num_packets,
                body,
            } => {
                let slot = self.slot(var);
                // Copies: the back-edge re-reads both after the body ran.
                let dom = self.alloc();
                self.expr_to(domain, Repr::V, dom);
                // Domain-ness is checked before num_packets evaluates,
                // matching the interpreter's order.
                self.emit(Op::CheckDomainPipe { src: dom }, s.span);
                let n = self.alloc();
                self.expr_to(num_packets, Repr::I, n);
                let p = self.alloc();
                let begin = self.emit(
                    Op::PipeBegin {
                        dom,
                        n,
                        var: slot,
                        p,
                        end: 0,
                    },
                    s.span,
                );
                let entry = self.bound.clone();
                let body_at = self.here();
                self.bound[slot as usize] = DECLARED;
                let frame = self.loop_body(&body.stmts);
                let next_at = self.here();
                self.emit(
                    Op::PipeNext {
                        dom,
                        n,
                        var: slot,
                        p,
                        body: body_at,
                    },
                    s.span,
                );
                let end = self.here();
                self.patch(begin, end);
                for at in frame.breaks {
                    self.patch(at, end);
                }
                for at in frame.continues {
                    self.patch(at, next_at);
                }
                self.bound = entry;
            }
            StmtKind::Return(value) => match (value, self.method.is_some()) {
                (Some(e), true) => {
                    let repr = self.ret.unwrap_or(Repr::V);
                    let v = self.expr(e, None);
                    let src = if v.r == repr {
                        v.reg
                    } else {
                        let t = self.alloc();
                        self.convert_into(v, repr, t, e);
                        t
                    };
                    self.emit(Op::Ret { src, repr }, s.span);
                }
                (None, true) => {
                    self.emit(Op::RetVoid, s.span);
                }
                // In a slice, `return` stops the slice after evaluating
                // its operand (for effects/errors); the value is
                // discarded.
                (Some(e), false) => {
                    self.expr(e, None);
                    self.emit(Op::Halt, s.span);
                }
                (None, false) => {
                    self.emit(Op::Halt, s.span);
                }
            },
            StmtKind::Expr(e) => {
                self.expr(e, None);
            }
            StmtKind::Block(b) => self.stmts(&b.stmts),
            StmtKind::Break | StmtKind::Continue => {
                let is_break = matches!(s.kind, StmtKind::Break);
                if self.loops.is_empty() {
                    if self.method.is_some() {
                        // The interpreter folds a loose break/continue in
                        // a method body to a `Void` return.
                        self.emit(Op::RetVoid, s.span);
                    } else {
                        self.emit(Op::FailEscape, self.top_span);
                    }
                } else {
                    let j = self.emit(Op::Jump { to: 0 }, s.span);
                    let frame = self.loops.last_mut().expect("non-empty");
                    if is_break {
                        frame.breaks.push(j);
                    } else {
                        frame.continues.push(j);
                    }
                }
            }
        }
        self.next_tmp = save;
    }

    fn assign(&mut self, target: &LValue, op: AssignOp, value: &Expr, span: Span) {
        match target {
            LValue::Var(name) => {
                if self.this_name(name).is_some() {
                    // Right-hand side first; the op widens and combines
                    // against the field (or global) as the interpreter
                    // does.
                    let src = self.expr(value, None);
                    let nid = self.name_id(name);
                    self.emit(
                        Op::StoreField {
                            base: Base::This(self.this, nid),
                            name: nid,
                            src: src.reg,
                            mode: op,
                            repr: src.r,
                        },
                        span,
                    );
                    return;
                }
                let slot = self.slot(name);
                let want = self.slot_repr[slot as usize];
                let typed = matches!(want, Repr::I | Repr::F | Repr::B);
                // An assigned slot is never memoized, so readable means
                // bound here.
                match (self.bound[slot as usize] >= READABLE && typed, op) {
                    (true, AssignOp::Set) => self.expr_to(value, want, slot),
                    (true, _) if want != Repr::B => {
                        let src = self.expr_as(value, want);
                        let combine = if want == Repr::F {
                            Op::CombineF {
                                dst: slot,
                                src,
                                mode: op,
                            }
                        } else {
                            Op::CombineI {
                                dst: slot,
                                src,
                                mode: op,
                            }
                        };
                        self.emit(combine, span);
                    }
                    _ => {
                        let src = self.alloc();
                        self.expr_to(value, want, src);
                        self.emit(
                            Op::AssignSlot {
                                slot,
                                src,
                                mode: op,
                            },
                            span,
                        );
                    }
                }
            }
            LValue::Field(base, field) => {
                // Right-hand side first, exactly like the interpreter.
                let src = self.expr(value, None);
                let b = self.expr_as(base, Repr::V);
                let name = self.name_id(field);
                self.emit(
                    Op::StoreField {
                        base: Base::Reg(b),
                        name,
                        src: src.reg,
                        mode: op,
                        repr: src.r,
                    },
                    span,
                );
            }
            LValue::Index(base, idx) => {
                let src = self.expr(value, None);
                let (base, name_span) = self.array_base(base, idx);
                let i = self.expr_as(idx, Repr::I);
                let at = self.emit(
                    Op::StoreElem {
                        base,
                        idx: i,
                        src: src.reg,
                        mode: op,
                        repr: src.r,
                    },
                    span,
                );
                if let Some(sp) = name_span {
                    self.name_span_at(at, sp);
                }
            }
        }
    }

    /// An array operand: a field of `this` named by a bare identifier is
    /// read by the consuming op itself when nothing evaluated in between
    /// (the index) can fail or act; anything else is lowered to a `Value`
    /// register first.
    fn array_base(&mut self, base: &Expr, idx: &Expr) -> (Base, Option<Span>) {
        if let ExprKind::Var(name) = &base.kind {
            if self.this_name(name).is_some() && self.quiet(idx) {
                let nid = self.name_id(name);
                return (Base::This(self.this, nid), Some(base.span));
            }
        }
        (Base::Reg(self.expr_as(base, Repr::V)), None)
    }

    /// Does lowering `e` emit nothing that can fail or be observed?
    fn quiet(&self, e: &Expr) -> bool {
        match &e.kind {
            ExprKind::IntLit(_) => true,
            ExprKind::Var(n) => self.slot_of.get(n).is_some_and(|s| {
                let s = *s as usize;
                self.bound[s] >= READABLE && self.slot_repr[s] == Repr::I
            }),
            ExprKind::Unary(UnOp::Neg, a) => self.quiet(a),
            ExprKind::Binary(BinOp::Add | BinOp::Sub | BinOp::Mul, a, b) => {
                self.quiet(a) && self.quiet(b)
            }
            _ => false,
        }
    }

    // -- conditions ---------------------------------------------------------

    /// Emit code that jumps when `e` evaluates to `when` and falls through
    /// otherwise; returns the jumps to patch to the target.
    fn branch(&mut self, e: &Expr, when: bool) -> Vec<usize> {
        let save = self.next_tmp;
        let jumps = match &e.kind {
            ExprKind::BoolLit(b) => {
                if *b == when {
                    vec![self.emit(Op::Jump { to: 0 }, e.span)]
                } else {
                    Vec::new()
                }
            }
            ExprKind::Unary(UnOp::Not, inner) if self.typed_bool(inner) => {
                self.branch(inner, !when)
            }
            ExprKind::Binary(op @ (BinOp::And | BinOp::Or), l, r) => {
                // `a && b` is false as soon as `a` is; `a || b` is true as
                // soon as `a` is.
                let short = *op == BinOp::Or;
                let first = self.branch(l, short);
                let before = self.bound.clone();
                let jumps = if when == short {
                    let mut j = first;
                    j.extend(self.branch(r, when));
                    j
                } else {
                    let j = self.branch(r, when);
                    self.patch_here(first);
                    j
                };
                self.bound = before;
                jumps
            }
            ExprKind::Binary(op, l, r) if op.is_cmp() => {
                let a = self.expr(l, None);
                let b = self.expr(r, None);
                let cmp = Cmp::of(*op).expect("comparison");
                let cmp = if when { cmp } else { cmp.negate() };
                match (a.r, b.r) {
                    (Repr::I, Repr::I) | (Repr::B, Repr::B) => vec![self.emit(
                        Op::BrI {
                            cmp,
                            l: a.reg,
                            r: b.reg,
                            to: 0,
                        },
                        e.span,
                    )],
                    (Repr::I | Repr::F, Repr::I | Repr::F) => {
                        let x = self.float_reg(a, l, None);
                        let y = self.float_reg(b, r, None);
                        vec![self.emit(
                            Op::BrF {
                                cmp,
                                l: x,
                                r: y,
                                to: 0,
                            },
                            e.span,
                        )]
                    }
                    _ => {
                        let t = self.generic_bin(*op, a, b, l, r, None, e.span);
                        vec![self.generic_branch(t, when, e.span)]
                    }
                }
            }
            _ => {
                let v = self.expr(e, None);
                match v.r {
                    Repr::B => vec![self.emit(
                        Op::BranchB {
                            cond: v.reg,
                            when,
                            to: 0,
                        },
                        e.span,
                    )],
                    _ => {
                        let c = self.boxed(v, e);
                        vec![self.generic_branch(c, when, e.span)]
                    }
                }
            }
        };
        self.next_tmp = save;
        jumps
    }

    /// Is `e` a boolean whose branch lowering raises exactly what its
    /// value lowering would? Then `!e` may flip the branch instead of
    /// computing `!` (which must keep the interpreter's "logical not on
    /// non-boolean" check for a boxed operand).
    fn typed_bool(&self, e: &Expr) -> bool {
        match &e.kind {
            ExprKind::BoolLit(_) => true,
            ExprKind::Binary(op, ..) => op.is_cmp() || op.is_logic(),
            ExprKind::Unary(UnOp::Not, inner) => self.typed_bool(inner),
            ExprKind::Var(n) => match (self.this_names.get(n), self.slot_of.get(n)) {
                (Some(st), _) => *st == St::Bool,
                (None, Some(s)) => self.slot_repr[*s as usize] == Repr::B,
                (None, None) => false,
            },
            _ => false,
        }
    }

    fn generic_branch(&mut self, cond: Reg, when: bool, span: Span) -> usize {
        let op = if when {
            Op::BranchTrue { cond, to: 0 }
        } else {
            Op::BranchFalse { cond, to: 0 }
        };
        self.emit(op, span)
    }

    // -- expressions --------------------------------------------------------

    /// Lower `e` into `dst`, converted to `want`.
    fn expr_to(&mut self, e: &Expr, want: Repr, dst: Reg) {
        let v = self.expr(e, Some(dst));
        self.convert_into(v, want, dst, e);
    }

    /// Lower `e` to a register of `want`'s file (possibly a slot or a
    /// constant register, which the caller must not write).
    fn expr_as(&mut self, e: &Expr, want: Repr) -> Reg {
        let v = self.expr(e, None);
        if v.r == want {
            return v.reg;
        }
        let t = self.alloc();
        self.convert_into(v, want, t, e);
        t
    }

    /// Move or convert `v` into register `dst` of `want`'s file, with the
    /// interpreter's implicit int→double widening.
    fn convert_into(&mut self, v: Val, want: Repr, dst: Reg, e: &Expr) {
        let span = e.span;
        match (v.r, want) {
            (a, b) if a == b => {
                if v.reg != dst {
                    let op = match want {
                        Repr::F => Op::MoveF { dst, src: v.reg },
                        Repr::I | Repr::B => Op::MoveI { dst, src: v.reg },
                        Repr::V => Op::MoveV { dst, src: v.reg },
                    };
                    self.emit(op, span);
                }
            }
            (Repr::I, Repr::F) => {
                self.float_reg(v, e, Some(dst));
            }
            (_, Repr::V) => {
                self.box_into(v, e, dst);
            }
            (Repr::V, _) => {
                self.emit(
                    Op::Unbox {
                        dst,
                        src: v.reg,
                        repr: want,
                    },
                    span,
                );
            }
            // A typed value of another kind (the checker rules these
            // out): through a box, whose unboxing raises.
            _ => {
                let t = self.alloc();
                self.box_into(v, e, t);
                self.emit(
                    Op::Unbox {
                        dst,
                        src: t,
                        repr: want,
                    },
                    span,
                );
            }
        }
    }

    fn box_into(&mut self, v: Val, e: &Expr, dst: Reg) {
        let lit = match (&e.kind, v.r) {
            (ExprKind::IntLit(x), Repr::I) => Some(ConstVal::Int(*x)),
            (ExprKind::DoubleLit(x), Repr::F) => Some(ConstVal::Double(*x)),
            (ExprKind::BoolLit(x), Repr::B) => Some(ConstVal::Bool(*x)),
            _ => None,
        };
        match (lit, v.r) {
            (Some(c), _) => {
                let k = self.konst(c);
                self.emit(Op::Const { dst, k }, e.span);
            }
            (None, Repr::V) => {
                if v.reg != dst {
                    self.emit(Op::MoveV { dst, src: v.reg }, e.span);
                }
            }
            (None, repr) => {
                self.emit(
                    Op::Box {
                        dst,
                        src: v.reg,
                        repr,
                    },
                    e.span,
                );
            }
        }
    }

    /// `v` in a `Value` register.
    fn boxed(&mut self, v: Val, e: &Expr) -> Reg {
        if v.r == Repr::V {
            return v.reg;
        }
        let t = self.alloc();
        self.box_into(v, e, t);
        t
    }

    /// An `int` or `double` operand as `f64`: literals widen at lower time.
    fn float_reg(&mut self, v: Val, e: &Expr, dst: Option<Reg>) -> Reg {
        if v.r == Repr::F {
            return v.reg;
        }
        let lit = match &e.kind {
            ExprKind::IntLit(x) => Some(*x),
            ExprKind::Unary(UnOp::Neg, inner) => match inner.kind {
                ExprKind::IntLit(x) => Some(x.wrapping_neg()),
                _ => None,
            },
            _ => None,
        };
        if let Some(r) = lit.and_then(|x| self.f_const_of.get(&(x as f64).to_bits()).copied()) {
            return match dst {
                Some(d) => {
                    self.emit(Op::MoveF { dst: d, src: r }, e.span);
                    d
                }
                None => r,
            };
        }
        let d = dst.unwrap_or_else(|| self.alloc());
        self.emit(Op::IToF { dst: d, src: v.reg }, e.span);
        d
    }

    /// Lower `e`. Its value ends in the returned register: `hint` when
    /// the expression computes a fresh value (the hint is written once, by
    /// the last op on each path, after every read of the expression's
    /// operands), else a slot, constant or temporary register.
    fn expr(&mut self, e: &Expr, hint: Option<Reg>) -> Val {
        match &e.kind {
            ExprKind::IntLit(v) => {
                return Val {
                    reg: self.i_const_of[v],
                    st: St::Int,
                    r: Repr::I,
                }
            }
            ExprKind::DoubleLit(v) => {
                return Val {
                    reg: self.f_const_of[&v.to_bits()],
                    st: St::Double,
                    r: Repr::F,
                }
            }
            ExprKind::BoolLit(b) => {
                return Val {
                    reg: self.i_const_of[&i64::from(*b)],
                    st: St::Bool,
                    r: Repr::B,
                }
            }
            ExprKind::Unary(UnOp::Neg, inner) => match inner.kind {
                ExprKind::IntLit(v) => {
                    return Val {
                        reg: self.i_const_of[&v.wrapping_neg()],
                        st: St::Int,
                        r: Repr::I,
                    }
                }
                ExprKind::DoubleLit(v) => {
                    return Val {
                        reg: self.f_const_of[&(-v).to_bits()],
                        st: St::Double,
                        r: Repr::F,
                    }
                }
                _ => {}
            },
            ExprKind::Var(name) => {
                if let Some(s) = self.slot_of.get(name).copied() {
                    let (st, r) = (self.slot_st[s as usize], self.slot_repr[s as usize]);
                    if self.bound[s as usize] >= READABLE {
                        return Val { reg: s, st, r };
                    }
                    if self.cacheable[s as usize] {
                        // Memoized once; an operand from here on.
                        self.emit(Op::ReadSlot { dst: s, slot: s }, e.span);
                        self.bound[s as usize] = READABLE;
                        return Val { reg: s, st, r };
                    }
                }
            }
            _ => {}
        }
        let dst = hint.unwrap_or_else(|| self.alloc());
        let save = self.next_tmp;
        let v = self.compute(e, dst);
        self.next_tmp = save;
        v
    }

    /// The expressions that compute a fresh value into `dst`.
    fn compute(&mut self, e: &Expr, dst: Reg) -> Val {
        let span = e.span;
        let val = |reg, st: St, r| Val { reg, st, r };
        match &e.kind {
            ExprKind::IntLit(_) | ExprKind::DoubleLit(_) | ExprKind::BoolLit(_) => {
                unreachable!("literals are constant registers")
            }
            ExprKind::Null => {
                let k = self.konst(ConstVal::Null);
                self.emit(Op::Const { dst, k }, span);
                val(dst, St::Unknown, Repr::V)
            }
            ExprKind::Var(name) => {
                if let Some(st) = self.this_name(name) {
                    let nid = self.name_id(name);
                    let repr = st.repr();
                    self.emit(
                        Op::LoadField {
                            dst,
                            base: Base::This(self.this, nid),
                            name: nid,
                            repr,
                        },
                        span,
                    );
                    return val(dst, st, repr);
                }
                let slot = self.slot(name);
                self.emit(Op::ReadSlot { dst, slot }, span);
                val(
                    dst,
                    self.slot_st[slot as usize],
                    self.slot_repr[slot as usize],
                )
            }
            ExprKind::This => {
                self.emit(
                    Op::LoadThis {
                        dst,
                        this: self.this,
                    },
                    span,
                );
                let st = St::Obj(
                    self.cx
                        .class_map
                        .get(&self.class)
                        .copied()
                        .unwrap_or(UNRESOLVED),
                );
                val(dst, st, Repr::V)
            }
            ExprKind::Field(base, field) => {
                let name = self.name_id(field);
                if let ExprKind::Index(arr, idx) = &base.kind {
                    if let St::Arr(Elem::Obj(ci)) = self.peek_st(arr) {
                        let a = self.expr_as(arr, Repr::V);
                        let i = self.expr_as(idx, Repr::I);
                        let st = self.field_st(St::Obj(ci), field);
                        let repr = st.repr();
                        let at = self.emit(
                            Op::LoadElemField {
                                dst,
                                arr: a,
                                idx: i,
                                name,
                                repr,
                            },
                            span,
                        );
                        self.name_span_at(at, base.span);
                        return val(dst, st, repr);
                    }
                }
                let b = self.expr(base, None);
                let st = self.field_st(b.st, field);
                let breg = self.boxed(b, base);
                let repr = st.repr();
                self.emit(
                    Op::LoadField {
                        dst,
                        base: Base::Reg(breg),
                        name,
                        repr,
                    },
                    span,
                );
                val(dst, st, repr)
            }
            ExprKind::Index(base, idx) => {
                let st = self.peek_st(base).elem();
                let (b, name_span) = self.array_base(base, idx);
                let i = self.expr_as(idx, Repr::I);
                let repr = st.repr();
                let at = self.emit(
                    Op::LoadElem {
                        dst,
                        base: b,
                        idx: i,
                        repr,
                    },
                    span,
                );
                if let Some(sp) = name_span {
                    self.name_span_at(at, sp);
                }
                val(dst, st, repr)
            }
            ExprKind::Unary(op, inner) => {
                let v = self.expr(inner, None);
                match (op, v.r) {
                    (UnOp::Neg, Repr::I) => {
                        self.emit(Op::NegI { dst, src: v.reg }, span);
                        val(dst, St::Int, Repr::I)
                    }
                    (UnOp::Neg, Repr::F) => {
                        self.emit(Op::NegF { dst, src: v.reg }, span);
                        val(dst, St::Double, Repr::F)
                    }
                    (UnOp::Not, Repr::B) => {
                        self.emit(Op::NotB { dst, src: v.reg }, span);
                        val(dst, St::Bool, Repr::B)
                    }
                    _ => {
                        let src = self.boxed(v, inner);
                        let op = match op {
                            UnOp::Neg => Op::Neg { dst, src },
                            UnOp::Not => Op::Not { dst, src },
                        };
                        self.emit(op, span);
                        val(dst, v.st, Repr::V)
                    }
                }
            }
            ExprKind::Binary(BinOp::And | BinOp::Or, ..) => {
                // Materialized through branches into a fresh register:
                // `dst` may be a slot the right operand still reads.
                let t = self.alloc();
                let falls = self.branch(e, false);
                let one = self.i_const_of[&1];
                self.emit(Op::MoveI { dst: t, src: one }, span);
                let jend = self.emit(Op::Jump { to: 0 }, span);
                self.patch_here(falls);
                let zero = self.i_const_of[&0];
                self.emit(Op::MoveI { dst: t, src: zero }, span);
                self.patch_here(vec![jend]);
                self.emit(Op::MoveI { dst, src: t }, span);
                val(dst, St::Bool, Repr::B)
            }
            ExprKind::Binary(op, l, r) => {
                let a = self.expr(l, None);
                let b = self.expr(r, None);
                if op.is_arith() {
                    match (a.r, b.r) {
                        (Repr::I, Repr::I) => {
                            let (l, r) = (a.reg, b.reg);
                            let op = match op {
                                BinOp::Add => Op::AddI { dst, l, r },
                                BinOp::Sub => Op::SubI { dst, l, r },
                                BinOp::Mul => Op::MulI { dst, l, r },
                                BinOp::Div => Op::DivI { dst, l, r },
                                _ => Op::RemI { dst, l, r },
                            };
                            self.emit(op, span);
                            val(dst, St::Int, Repr::I)
                        }
                        (Repr::I | Repr::F, Repr::I | Repr::F) => {
                            let x = self.float_reg(a, l, None);
                            let y = self.float_reg(b, r, None);
                            let (l, r) = (x, y);
                            let op = match op {
                                BinOp::Add => Op::AddF { dst, l, r },
                                BinOp::Sub => Op::SubF { dst, l, r },
                                BinOp::Mul => Op::MulF { dst, l, r },
                                BinOp::Div => Op::DivF { dst, l, r },
                                _ => Op::RemF { dst, l, r },
                            };
                            self.emit(op, span);
                            val(dst, St::Double, Repr::F)
                        }
                        _ => {
                            let st = if a.st == St::Int && b.st == St::Int {
                                St::Int
                            } else {
                                St::Unknown
                            };
                            self.generic_bin(*op, a, b, l, r, Some(dst), span);
                            val(dst, st, Repr::V)
                        }
                    }
                } else {
                    let cmp = Cmp::of(*op).expect("comparison");
                    match (a.r, b.r) {
                        (Repr::I, Repr::I) | (Repr::B, Repr::B) => {
                            self.emit(
                                Op::CmpI {
                                    cmp,
                                    dst,
                                    l: a.reg,
                                    r: b.reg,
                                },
                                span,
                            );
                            val(dst, St::Bool, Repr::B)
                        }
                        (Repr::I | Repr::F, Repr::I | Repr::F) => {
                            let x = self.float_reg(a, l, None);
                            let y = self.float_reg(b, r, None);
                            self.emit(
                                Op::CmpF {
                                    cmp,
                                    dst,
                                    l: x,
                                    r: y,
                                },
                                span,
                            );
                            val(dst, St::Bool, Repr::B)
                        }
                        _ => {
                            self.generic_bin(*op, a, b, l, r, Some(dst), span);
                            val(dst, St::Bool, Repr::V)
                        }
                    }
                }
            }
            ExprKind::Ternary(c, a, b) => {
                let jelse = self.branch(c, false);
                let before = self.bound.clone();
                let va = self.expr(a, Some(dst));
                self.settle(va, dst, a);
                let ja = self.emit(Op::Jump { to: 0 }, span);
                self.bound = before.clone();
                self.patch_here(jelse);
                let vb = self.expr(b, Some(dst));
                self.settle(vb, dst, b);
                self.bound = before;
                if va.r == vb.r {
                    self.patch_here(vec![ja]);
                    let st = if va.st == vb.st { va.st } else { St::Unknown };
                    return val(dst, st, va.r);
                }
                // Tags differ (`c ? 1 : 2.0`): the interpreter keeps
                // each branch's own, so the value is boxed on both paths.
                if vb.r != Repr::V {
                    self.emit(
                        Op::Box {
                            dst,
                            src: dst,
                            repr: vb.r,
                        },
                        span,
                    );
                }
                let jb = self.emit(Op::Jump { to: 0 }, span);
                self.patch_here(vec![ja]);
                if va.r != Repr::V {
                    self.emit(
                        Op::Box {
                            dst,
                            src: dst,
                            repr: va.r,
                        },
                        span,
                    );
                }
                self.patch_here(vec![jb]);
                let st = if va.st == St::Int && vb.st == St::Double
                    || va.st == St::Double && vb.st == St::Int
                {
                    St::Double
                } else {
                    St::Unknown
                };
                val(dst, st, Repr::V)
            }
            ExprKind::Call { recv, method, args } => {
                self.call(e, recv.as_deref(), method, args, dst)
            }
            ExprKind::New(cname) => {
                let ci = self.cx.class_map.get(cname).copied().unwrap_or(UNRESOLVED);
                let name = self.name_id(cname);
                self.emit(Op::New { dst, ci, name }, span);
                val(dst, St::Obj(ci), Repr::V)
            }
            ExprKind::NewArray(elem, len) => {
                let l = self.expr_as(len, Repr::I);
                let k = self.konst(ConstVal::default_for(elem));
                self.emit(Op::NewArray { dst, len: l, k }, span);
                val(dst, self.st_of(&Type::array_of(elem.clone())), Repr::V)
            }
            ExprKind::DomainLit(lo, hi) => {
                let a = self.expr_as(lo, Repr::I);
                let b = self.expr_as(hi, Repr::I);
                self.emit(Op::NewDomain { dst, lo: a, hi: b }, span);
                val(dst, St::Domain, Repr::V)
            }
        }
    }

    /// Leave a ternary branch's value in `dst`, in its own repr.
    fn settle(&mut self, v: Val, dst: Reg, e: &Expr) {
        if v.reg != dst {
            self.convert_into(v, v.r, dst, e);
        }
    }

    /// A comparison or arithmetic op on boxed operands: the interpreter's
    /// evaluation, verbatim.
    #[allow(clippy::too_many_arguments)]
    fn generic_bin(
        &mut self,
        op: BinOp,
        a: Val,
        b: Val,
        l: &Expr,
        r: &Expr,
        dst: Option<Reg>,
        span: Span,
    ) -> Reg {
        let x = self.boxed(a, l);
        let y = self.boxed(b, r);
        let d = dst.unwrap_or_else(|| self.alloc());
        self.emit(
            Op::Bin {
                op,
                dst: d,
                l: x,
                r: y,
            },
            span,
        );
        d
    }

    fn call(
        &mut self,
        e: &Expr,
        recv: Option<&Expr>,
        method: &str,
        args: &[Expr],
        dst: Reg,
    ) -> Val {
        let span = e.span;
        let argc = u8::try_from(args.len()).expect("more than 255 call arguments");
        let name = self.name_id(method);
        let result = |this: &Self, mi: u32| match this.cx.sigs.get(mi as usize) {
            Some(sig) => Val {
                reg: dst,
                st: this.ret_st(mi),
                r: sig.ret.unwrap_or(Repr::V),
            },
            None => Val {
                reg: dst,
                st: St::Unknown,
                r: Repr::V,
            },
        };
        match recv {
            None => {
                if let Some(f) = is_builtin(method)
                    .then(|| BuiltinFn::from_name(method))
                    .flatten()
                {
                    return self.builtin(f, args, span, dst);
                }
                let mi = self
                    .cx
                    .methods_by_class
                    .get(&self.class)
                    .and_then(|m| m.get(method))
                    .copied()
                    .unwrap_or(UNRESOLVED);
                let argb = self.args(args, mi);
                self.emit(
                    Op::CallStatic {
                        dst,
                        mi,
                        name,
                        argb,
                        argc,
                    },
                    span,
                );
                result(self, mi)
            }
            Some(r) => {
                let rst = self.peek_st(r);
                let fast = FastMeth::from_name(method).filter(|f| {
                    matches!(
                        (rst, f),
                        (
                            St::Domain,
                            FastMeth::DomLo | FastMeth::DomHi | FastMeth::DomSize
                        ) | (St::Arr(_), FastMeth::ArrLen)
                    )
                });
                if let Some(fast) = fast {
                    // Arguments evaluate before the receiver (the checker
                    // admits none here).
                    for a in args {
                        self.expr(a, None);
                    }
                    let (base, name_span) = match &r.kind {
                        ExprKind::Var(n) if self.this_name(n).is_some() => {
                            (Base::This(self.this, self.name_id(n)), Some(r.span))
                        }
                        _ => (Base::Reg(self.expr_as(r, Repr::V)), None),
                    };
                    let at = self.emit(Op::Intrinsic { dst, base, fast }, span);
                    if let Some(sp) = name_span {
                        self.name_span_at(at, sp);
                    }
                    return Val {
                        reg: dst,
                        st: St::Int,
                        r: Repr::I,
                    };
                }
                // Arguments evaluate before the receiver — the
                // interpreter's order.
                let mi = self.method_of(rst, method).unwrap_or(UNRESOLVED);
                let argb = self.args(args, mi);
                let rv = self.expr_as(r, Repr::V);
                self.emit(
                    Op::CallMethod {
                        dst,
                        recv: rv,
                        name,
                        mi,
                        argb,
                        argc,
                    },
                    span,
                );
                result(self, mi)
            }
        }
    }

    /// Lower call arguments into consecutive fresh registers, each in its
    /// parameter's repr (boxed when the callee is not resolved).
    fn args(&mut self, args: &[Expr], mi: u32) -> Reg {
        let argb = self.next_tmp;
        let regs: Vec<Reg> = args.iter().map(|_| self.alloc()).collect();
        for (p, (a, t)) in args.iter().zip(regs).enumerate() {
            let want = self
                .cx
                .sigs
                .get(mi as usize)
                .and_then(|s| s.params.get(p).copied())
                .unwrap_or(Repr::V);
            self.expr_to(a, want, t);
        }
        argb
    }

    fn builtin(&mut self, f: BuiltinFn, args: &[Expr], span: Span, dst: Reg) -> Val {
        let vals: Vec<Val> = args.iter().map(|a| self.expr(a, None)).collect();
        let numeric = |v: &Val| matches!(v.r, Repr::I | Repr::F);
        let typed = match f {
            BuiltinFn::Print => false,
            BuiltinFn::Min | BuiltinFn::Max | BuiltinFn::Pow => {
                vals.len() == 2 && vals.iter().all(numeric)
            }
            _ => vals.len() == 1 && numeric(&vals[0]),
        };
        if !typed {
            let argb = self.next_tmp;
            let regs: Vec<Reg> = vals.iter().map(|_| self.alloc()).collect();
            for ((v, a), t) in vals.iter().zip(args).zip(regs) {
                self.box_into(*v, a, t);
            }
            let argc = vals.len() as u8;
            self.emit(Op::CallBuiltin { dst, f, argb, argc }, span);
            let st = match f {
                BuiltinFn::Print => St::Void,
                BuiltinFn::ToInt => St::Int,
                BuiltinFn::Min | BuiltinFn::Max | BuiltinFn::Abs => St::Unknown,
                _ => St::Double,
            };
            return Val {
                reg: dst,
                st,
                r: Repr::V,
            };
        }
        let fv = |v: Val| Val {
            reg: dst,
            st: v.st,
            r: v.r,
        };
        let dbl = Val {
            reg: dst,
            st: St::Double,
            r: Repr::F,
        };
        let int = Val {
            reg: dst,
            st: St::Int,
            r: Repr::I,
        };
        let a = vals[0];
        match f {
            BuiltinFn::Abs if a.r == Repr::I => {
                self.emit(Op::AbsI { dst, src: a.reg }, span);
                fv(a)
            }
            BuiltinFn::Sqrt
            | BuiltinFn::Floor
            | BuiltinFn::Ceil
            | BuiltinFn::Exp
            | BuiltinFn::Log
            | BuiltinFn::Abs => {
                let x = self.float_reg(a, &args[0], None);
                self.emit(Op::Math1F { dst, src: x, f }, span);
                dbl
            }
            BuiltinFn::Min | BuiltinFn::Max => {
                let b = vals[1];
                let max = f == BuiltinFn::Max;
                if a.r == Repr::I && b.r == Repr::I {
                    let (l, r) = (a.reg, b.reg);
                    let op = if max {
                        Op::MaxI { dst, l, r }
                    } else {
                        Op::MinI { dst, l, r }
                    };
                    self.emit(op, span);
                    return int;
                }
                let l = self.float_reg(a, &args[0], None);
                let r = self.float_reg(b, &args[1], None);
                let op = if max {
                    Op::MaxF { dst, l, r }
                } else {
                    Op::MinF { dst, l, r }
                };
                self.emit(op, span);
                dbl
            }
            BuiltinFn::Pow => {
                let l = self.float_reg(a, &args[0], None);
                let r = self.float_reg(vals[1], &args[1], None);
                self.emit(Op::PowF { dst, l, r }, span);
                dbl
            }
            BuiltinFn::ToInt => {
                if a.r == Repr::I {
                    self.settle(a, dst, &args[0]);
                } else {
                    self.emit(Op::FToI { dst, src: a.reg }, span);
                }
                int
            }
            BuiltinFn::ToDouble => {
                if a.r == Repr::F {
                    self.settle(a, dst, &args[0]);
                } else {
                    self.float_reg(a, &args[0], Some(dst));
                }
                dbl
            }
            BuiltinFn::Print => unreachable!("print is generic"),
        }
    }
}

impl ProgramCode {
    /// `code` with every resolved call of a leaf method ([`is_leaf`])
    /// inlined. A call becomes
    ///
    /// ```text
    ///        Guard  (hit: body)
    ///        the original call op, which a miss falls through to
    ///        Jump   end
    /// body:  moves of the arguments into the callee's parameter registers
    ///        the callee's ops
    ///        (void) Const Void into the call's result register
    /// end:
    /// ```
    ///
    /// The callee's registers move into a window above the caller's, one
    /// per distinct callee, except its `this`, which becomes the call's
    /// receiver register (the caller's own for a receiver-less call).
    /// `Bind`s are dropped (a leaf never reads a bound state), and `Ret`
    /// becomes a move into the call's result register and a jump to
    /// `end`. Inlined ops keep the callee's spans; the rest take the
    /// call's.
    fn inline_leaves(&self, code: CodeBlock) -> CodeBlock {
        // The callees, each with its register window, and the one each
        // op calls, if any.
        let mut windows: Vec<(usize, Reg)> = Vec::new();
        let mut top = code.n_regs;
        let sites: Vec<Option<usize>> = code
            .ops
            .iter()
            .map(|op| {
                let (Op::CallStatic { mi, argc, .. } | Op::CallMethod { mi, argc, .. }) = *op
                else {
                    return None;
                };
                let (mi, m) = (mi as usize, self.methods.get(mi as usize)?);
                if self.sigs[mi].params.len() != argc as usize {
                    return None;
                }
                if let Some(w) = windows.iter().position(|&(c, _)| c == mi) {
                    return Some(w);
                }
                if !is_leaf(&m.code) {
                    return None;
                }
                let next = top.checked_add(m.code.n_regs)?;
                windows.push((mi, top));
                top = next;
                Some(windows.len() - 1)
            })
            .collect();
        if windows.is_empty() {
            return code;
        }
        let CodeBlock {
            class,
            ops,
            spans,
            name_spans,
            this,
            mut consts,
            mut names,
            slot_names,
            slot_kinds,
            slot_repr,
            cacheable,
            mut f_consts,
            mut i_consts,
            ..
        } = code;
        let callees: Vec<Inlinee> = windows
            .iter()
            .map(|&(mi, base)| {
                let callee = &self.methods[mi].code;
                // Only the names its ops read: inlined code never falls
                // back to a slot by name.
                let used: Vec<Cell<bool>> = callee.names.iter().map(|_| Cell::new(false)).collect();
                let probe = Renumber {
                    reg: |r| r,
                    name: |n: u16| {
                        used[n as usize].set(true);
                        n
                    },
                    konst: |k| k,
                    to: |t| t,
                };
                callee.ops.iter().for_each(|op| {
                    probe.op(*op);
                });
                let nmap = callee
                    .names
                    .iter()
                    .zip(&used)
                    .map(|(n, u)| {
                        if u.get() {
                            intern_name(&mut names, n)
                        } else {
                            u16::MAX
                        }
                    })
                    .collect();
                let kmap = callee
                    .consts
                    .iter()
                    .map(|c| intern_const(&mut consts, *c))
                    .collect();
                f_consts.extend(callee.f_consts.iter().map(|&(r, x)| (r + base, x)));
                i_consts.extend(callee.i_consts.iter().map(|&(r, x)| (r + base, x)));
                let void = self.sigs[mi].ret.is_none();
                let void_k = void.then(|| intern_const(&mut consts, ConstVal::Void));
                let params = self.sigs[mi].params.len();
                Inlinee::new(mi, callee, params, base, nmap, kmap, void_k)
            })
            .collect();
        // Where each of the caller's ops lands.
        let mut new_at = Vec::with_capacity(ops.len() + 1);
        let mut at = 0u32;
        for site in &sites {
            new_at.push(at);
            at += match site {
                Some(c) => 3 + callees[*c].len,
                None => 1,
            };
        }
        new_at.push(at);
        let caller = Renumber {
            reg: |r| r,
            name: |n| n,
            konst: |k| k,
            to: |t: u32| new_at[t as usize],
        };
        let mut out = Splice {
            ops: Vec::with_capacity(at as usize),
            spans: Vec::with_capacity(at as usize),
            name_spans: Vec::new(),
        };
        for (i, (&op, site)) in ops.iter().zip(&sites).enumerate() {
            let span = spans[i];
            let Some(c) = site else {
                out.push(caller.op(op), span);
                continue;
            };
            let callee = &callees[*c];
            let (dst, recv, argb) = match op {
                Op::CallMethod {
                    dst, recv, argb, ..
                } => (dst, Some(recv), argb),
                Op::CallStatic { dst, argb, .. } => (dst, None, argb),
                _ => unreachable!("only calls are sites"),
            };
            let body = new_at[i] + 3;
            let end = new_at[i + 1];
            out.push(
                Op::Guard {
                    recv,
                    mi: callee.mi as u32,
                    hit: body,
                },
                span,
            );
            out.push(op, span);
            out.push(Op::Jump { to: end }, span);
            callee.emit(
                &mut out,
                &self.methods[callee.mi].code,
                &self.sigs[callee.mi],
                Call {
                    dst,
                    this: recv.unwrap_or(this),
                    argb,
                    body,
                    span,
                },
            );
        }
        for &(i, sp) in &name_spans {
            let i = i as usize;
            let at = new_at[i] + u32::from(sites[i].is_some());
            out.name_spans.push((at, sp));
        }
        out.name_spans.sort_by_key(|(at, _)| *at);
        CodeBlock {
            class,
            caches: ShapeCache::new(out.ops.len()),
            ops: out.ops,
            spans: out.spans,
            name_spans: out.name_spans,
            this,
            consts,
            names,
            slot_names,
            slot_kinds,
            slot_repr,
            cacheable,
            f_consts,
            i_consts,
            n_regs: top,
        }
    }
}

/// The most ops a method's own lowering may have and still be inlined.
const INLINE_MAX_OPS: usize = 256;

/// Is `code`, a method's own lowering, a leaf: no call (builtins aside),
/// no slot fallback — so every slot it reads is an operand and its bound
/// states are never read — no pipelined loop (whose header marks a slot
/// bound), and at most [`INLINE_MAX_OPS`] ops?
fn is_leaf(code: &CodeBlock) -> bool {
    code.ops.len() <= INLINE_MAX_OPS
        && !code.ops.iter().any(|op| {
            is_call(op)
                || matches!(
                    op,
                    Op::ReadSlot { .. }
                        | Op::AssignSlot { .. }
                        | Op::BindDefault { .. }
                        | Op::PipeBegin { .. }
                        | Op::PipeNext { .. }
                )
        })
}

/// A call of a method.
fn is_call(op: &Op) -> bool {
    matches!(op, Op::CallStatic { .. } | Op::CallMethod { .. })
}

/// `name`'s index in the name pool `names`, added if new.
fn intern_name(names: &mut Vec<String>, name: &str) -> u16 {
    let i = names.iter().position(|n| n == name).unwrap_or_else(|| {
        names.push(name.to_string());
        names.len() - 1
    });
    u16::try_from(i).expect("bytecode name pool exceeds 65535 entries")
}

/// Ops, spans and identifier spans of a block being spliced.
struct Splice {
    ops: Vec<Op>,
    spans: Vec<Span>,
    name_spans: Vec<(u32, Span)>,
}

impl Splice {
    fn push(&mut self, op: Op, span: Span) {
        self.ops.push(op);
        self.spans.push(span);
    }
}

/// One inlined call site: where the result goes, the receiver register
/// that stands for the callee's `this`, the arguments, and where the
/// inlined body starts.
struct Call {
    dst: Reg,
    this: Reg,
    argb: Reg,
    body: u32,
    span: Span,
}

/// A leaf laid out for inlining, the same at every site: its register
/// window, its pool indices in the caller's pools, and where each of its
/// ops lands relative to the body's start.
struct Inlinee {
    /// The method.
    mi: usize,
    base: Reg,
    nmap: Vec<u16>,
    kmap: Vec<u16>,
    /// The pooled `Void` a void callee leaves in the result register.
    void_k: Option<u16>,
    /// Per callee op (and one past the last), its offset from the body's
    /// start.
    at: Vec<u32>,
    /// The body's length: moves, ops and the void tail.
    len: u32,
}

impl Inlinee {
    fn new(
        mi: usize,
        code: &CodeBlock,
        params: usize,
        base: Reg,
        nmap: Vec<u16>,
        kmap: Vec<u16>,
        void_k: Option<u16>,
    ) -> Inlinee {
        let last = code.ops.len().saturating_sub(1);
        let mut at = Vec::with_capacity(code.ops.len() + 1);
        let mut next = params as u32;
        for (j, op) in code.ops.iter().enumerate() {
            at.push(next);
            // A return that is the last op falls through to the exit.
            next += match op {
                Op::Bind { .. } => 0,
                Op::Ret { .. } => 1 + u32::from(j != last),
                Op::RetVoid => u32::from(j != last),
                _ => 1,
            };
        }
        at.push(next);
        Inlinee {
            mi,
            base,
            nmap,
            kmap,
            void_k,
            at,
            len: next + u32::from(void_k.is_some()),
        }
    }

    /// Emit the body for `call`: argument moves, the callee's renumbered
    /// ops, and the void tail.
    fn emit(&self, out: &mut Splice, code: &CodeBlock, sig: &Sig, call: Call) {
        let base = self.base;
        let reg = |r: Reg| if r == code.this { call.this } else { r + base };
        let callee = Renumber {
            reg,
            name: |n: u16| self.nmap[n as usize],
            konst: |k: u16| self.kmap[k as usize],
            to: |t: u32| call.body + self.at[t as usize],
        };
        for (p, repr) in sig.params.iter().enumerate() {
            let (dst, src) = (base + p as Reg, call.argb + p as Reg);
            out.push(move_op(*repr, dst, src), call.span);
        }
        // Falling off the end, or a void return: the tail.
        let exit = call.body + self.at[code.ops.len()];
        let end = call.body + self.len;
        let last = code.ops.len().saturating_sub(1);
        for (j, &op) in code.ops.iter().enumerate() {
            let span = code.spans[j];
            match op {
                Op::Bind { .. } => {}
                Op::Ret { src, repr } => {
                    out.push(move_op(repr, call.dst, reg(src)), span);
                    if j != last {
                        out.push(Op::Jump { to: end }, span);
                    }
                }
                Op::RetVoid => {
                    if j != last {
                        out.push(Op::Jump { to: exit }, span);
                    }
                }
                op => out.push(callee.op(op), span),
            }
        }
        for &(j, sp) in &code.name_spans {
            out.name_spans.push((call.body + self.at[j as usize], sp));
        }
        if let Some(k) = self.void_k {
            out.push(Op::Const { dst: call.dst, k }, call.span);
        }
    }
}

/// A move between registers of `repr`'s file.
fn move_op(repr: Repr, dst: Reg, src: Reg) -> Op {
    match repr {
        Repr::F => Op::MoveF { dst, src },
        Repr::I | Repr::B => Op::MoveI { dst, src },
        Repr::V => Op::MoveV { dst, src },
    }
}

/// How an op is renumbered when it moves into another block: its
/// registers, name and constant pool indices, and jump targets.
struct Renumber<R, N, K, T> {
    reg: R,
    name: N,
    konst: K,
    to: T,
}

impl<R, N, K, T> Renumber<R, N, K, T>
where
    R: Fn(Reg) -> Reg,
    N: Fn(u16) -> u16,
    K: Fn(u16) -> u16,
    T: Fn(u32) -> u32,
{
    fn base(&self, b: Base) -> Base {
        match b {
            Base::Reg(r) => Base::Reg((self.reg)(r)),
            Base::This(t, n) => Base::This((self.reg)(t), (self.name)(n)),
        }
    }

    fn op(&self, mut op: Op) -> Op {
        let (reg, name, konst, to) = (&self.reg, &self.name, &self.konst, &self.to);
        match &mut op {
            Op::AddF { dst, l, r }
            | Op::SubF { dst, l, r }
            | Op::MulF { dst, l, r }
            | Op::DivF { dst, l, r }
            | Op::RemF { dst, l, r }
            | Op::AddI { dst, l, r }
            | Op::SubI { dst, l, r }
            | Op::MulI { dst, l, r }
            | Op::DivI { dst, l, r }
            | Op::RemI { dst, l, r }
            | Op::MinF { dst, l, r }
            | Op::MaxF { dst, l, r }
            | Op::MinI { dst, l, r }
            | Op::MaxI { dst, l, r }
            | Op::PowF { dst, l, r }
            | Op::Bin { dst, l, r, .. }
            | Op::CmpF { dst, l, r, .. }
            | Op::CmpI { dst, l, r, .. }
            | Op::NewDomain { dst, lo: l, hi: r } => {
                (*dst, *l, *r) = (reg(*dst), reg(*l), reg(*r));
            }
            Op::MoveV { dst, src }
            | Op::MoveF { dst, src }
            | Op::MoveI { dst, src }
            | Op::Neg { dst, src }
            | Op::Not { dst, src }
            | Op::NegF { dst, src }
            | Op::NegI { dst, src }
            | Op::NotB { dst, src }
            | Op::IToF { dst, src }
            | Op::FToI { dst, src }
            | Op::AbsI { dst, src }
            | Op::CombineF { dst, src, .. }
            | Op::CombineI { dst, src, .. }
            | Op::Box { dst, src, .. }
            | Op::Unbox { dst, src, .. }
            | Op::Math1F { dst, src, .. }
            | Op::ReadSlot { dst, slot: src }
            | Op::AssignSlot { slot: dst, src, .. }
            | Op::LoadThis { dst, this: src } => (*dst, *src) = (reg(*dst), reg(*src)),
            Op::Bind { slot: r } | Op::CheckDomainPipe { src: r } | Op::Ret { src: r, .. } => {
                *r = reg(*r)
            }
            Op::Const { dst, k } | Op::BindDefault { slot: dst, k } => {
                (*dst, *k) = (reg(*dst), konst(*k));
            }
            Op::NewArray { dst, len, k } => (*dst, *len, *k) = (reg(*dst), reg(*len), konst(*k)),
            Op::New { dst, name: n, .. } => (*dst, *n) = (reg(*dst), name(*n)),
            Op::LoadField {
                dst, base, name: n, ..
            }
            | Op::StoreField {
                base,
                name: n,
                src: dst,
                ..
            } => (*dst, *base, *n) = (reg(*dst), self.base(*base), name(*n)),
            Op::LoadElem { dst, base, idx, .. }
            | Op::StoreElem {
                base,
                idx,
                src: dst,
                ..
            } => {
                (*dst, *base, *idx) = (reg(*dst), self.base(*base), reg(*idx));
            }
            Op::Intrinsic { dst, base, .. } => (*dst, *base) = (reg(*dst), self.base(*base)),
            Op::LoadElemField {
                dst,
                arr,
                idx,
                name: n,
                ..
            } => (*dst, *arr, *idx, *n) = (reg(*dst), reg(*arr), reg(*idx), name(*n)),
            Op::Jump { to: t } => *t = to(*t),
            Op::BranchTrue { cond, to: t }
            | Op::BranchFalse { cond, to: t }
            | Op::BranchB { cond, to: t, .. } => (*cond, *t) = (reg(*cond), to(*t)),
            Op::BrF { l, r, to: t, .. } | Op::BrI { l, r, to: t, .. } => {
                (*l, *r, *t) = (reg(*l), reg(*r), to(*t));
            }
            Op::ForeachBegin { dom, var, cur, end } => {
                (*dom, *var, *cur, *end) = (reg(*dom), reg(*var), reg(*cur), to(*end));
            }
            Op::ForeachNext { var, cur, body } => {
                (*var, *cur, *body) = (reg(*var), reg(*cur), to(*body));
            }
            Op::PipeBegin {
                dom,
                n,
                var,
                p,
                end: t,
            }
            | Op::PipeNext {
                dom,
                n,
                var,
                p,
                body: t,
            } => (*dom, *n, *var, *p, *t) = (reg(*dom), reg(*n), reg(*var), reg(*p), to(*t)),
            Op::CallStatic {
                dst, name: n, argb, ..
            } => (*dst, *n, *argb) = (reg(*dst), name(*n), reg(*argb)),
            Op::CallMethod {
                dst,
                recv,
                name: n,
                argb,
                ..
            } => (*dst, *recv, *n, *argb) = (reg(*dst), reg(*recv), name(*n), reg(*argb)),
            Op::Guard { recv, hit, .. } => (*recv, *hit) = (recv.map(reg), to(*hit)),
            Op::CallBuiltin { dst, argb, .. } => (*dst, *argb) = (reg(*dst), reg(*argb)),
            Op::RetVoid | Op::Halt | Op::FailEscape => {}
        }
        op
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend;

    fn lower_main(src: &str) -> (ProgramCode, CodeBlock) {
        let tp = frontend(src).unwrap();
        let prog = ProgramCode::lower(&tp);
        let (class, method) = tp.program.main().unwrap();
        let slice = prog.lower_slice(&tp, &class.name, &method.body.stmts);
        (prog, slice)
    }

    /// Ops that move or compute on boxed values — what a typed hot loop
    /// must not contain.
    fn is_generic(op: &Op) -> bool {
        matches!(
            op,
            Op::Bin { .. }
                | Op::Neg { .. }
                | Op::Not { .. }
                | Op::BranchTrue { .. }
                | Op::BranchFalse { .. }
                | Op::Box { .. }
                | Op::Unbox { .. }
                | Op::MoveV { .. }
                | Op::AssignSlot { .. }
                | Op::CallBuiltin { .. }
        ) || matches!(
            op,
            Op::LoadElem { repr: Repr::V, .. }
                | Op::StoreElem { repr: Repr::V, .. }
                | Op::LoadField { repr: Repr::V, .. }
                | Op::StoreField { repr: Repr::V, .. }
        )
    }

    #[test]
    fn locals_become_slots_not_hash_lookups() {
        let (_, slice) = lower_main(
            r#"class A { void main() {
                int a = 1;
                int b = a + 2;
                a = b - 1;
            } }"#,
        );
        assert_eq!(slice.slot_count(), 2, "a and b");
        assert_eq!(slice.slot_repr, vec![Repr::I, Repr::I]);
        // Bound locals are operands: `b = a + 2` adds slot 0 to a
        // constant straight into slot 1, and `a = b - 1` writes slot 0.
        assert!(slice
            .ops
            .iter()
            .any(|o| matches!(o, Op::AddI { dst: 1, l: 0, .. })));
        assert!(slice
            .ops
            .iter()
            .any(|o| matches!(o, Op::SubI { dst: 0, l: 1, .. })));
        assert!(!slice.ops.iter().any(is_generic), "{:?}", slice.ops);
    }

    #[test]
    fn foreach_lowers_to_fused_loop() {
        let (_, slice) = lower_main(
            r#"class A { void main() {
                RectDomain<1> d = [0 : 9];
                int sum = 0;
                foreach (i in d) { sum += i; }
            } }"#,
        );
        let begin = slice
            .ops
            .iter()
            .position(|o| matches!(o, Op::ForeachBegin { .. }))
            .expect("fused foreach header");
        let next = slice
            .ops
            .iter()
            .position(|o| matches!(o, Op::ForeachNext { .. }))
            .expect("fused foreach back-edge");
        assert!(begin < next);
        // The accumulate is one typed read-modify-write op.
        assert!(slice.ops.iter().any(|o| matches!(
            o,
            Op::CombineI {
                mode: AssignOp::Add,
                ..
            }
        )));
        // The header jumps past the back-edge when the domain is empty.
        let Op::ForeachBegin { end, .. } = slice.ops[begin] else {
            unreachable!()
        };
        assert_eq!(end as usize, next + 1);
    }

    #[test]
    fn array_accumulate_is_one_store_op() {
        let (_, slice) = lower_main(
            r#"extern double[] xs;
               class A { void main() {
                xs[0] += 2.5;
            } }"#,
        );
        assert!(slice.ops.iter().any(|o| matches!(
            o,
            Op::StoreElem {
                mode: AssignOp::Add,
                repr: Repr::F,
                ..
            }
        )));
    }

    #[test]
    fn a_typed_statement_is_its_arithmetic() {
        // `double dx = px[i] - qx;` in a foreach: the first iteration
        // memoizes `px` and `qx` and binds `dx`; the loop proper is the
        // element load and the subtraction into `dx`'s register.
        let (_, slice) = lower_main(
            r#"extern double[] px;
               extern double qx;
               class A { void main() {
                RectDomain<1> d = [0 : 9];
                foreach (i in d) { double dx = px[i] - qx; }
            } }"#,
        );
        let dx = slice
            .slot_names
            .iter()
            .position(|n| slice.name(*n) == "dx")
            .unwrap() as Reg;
        let (at, body) = slice
            .ops
            .iter()
            .enumerate()
            .find_map(|(at, o)| match o {
                Op::ForeachNext { body, .. } if (*body as usize) < at => Some((at, *body)),
                _ => None,
            })
            .expect("a back-edge to the loop proper");
        let steady = &slice.ops[body as usize..at];
        assert!(
            matches!(
                steady,
                [
                    Op::LoadElem { repr: Repr::F, .. },
                    Op::SubF { dst, .. }
                ] if *dst == dx
            ),
            "{steady:?}"
        );
    }

    #[test]
    fn domain_methods_pre_resolve() {
        let (_, slice) = lower_main(
            r#"class A { void main() {
                RectDomain<1> d = [0 : 9];
                int n = d.size();
                int l = d.lo();
            } }"#,
        );
        assert!(slice.ops.iter().any(|o| matches!(
            o,
            Op::Intrinsic {
                fast: FastMeth::DomSize,
                ..
            }
        )));
        assert!(slice.ops.iter().any(|o| matches!(
            o,
            Op::Intrinsic {
                fast: FastMeth::DomLo,
                ..
            }
        )));
    }

    #[test]
    fn static_calls_resolve_to_method_ids() {
        let (prog, slice) = lower_main(
            r#"class A {
                int f(int x) { return x + 1; }
                void main() { int y = f(2); }
            }"#,
        );
        let fid = prog.method_id("A", "f").unwrap();
        assert!(slice
            .ops
            .iter()
            .any(|o| matches!(o, Op::CallStatic { mi, .. } if *mi == fid)));
        assert_eq!(prog.sigs[fid as usize].params, vec![Repr::I]);
        assert_eq!(prog.sigs[fid as usize].ret, Some(Repr::I));
    }

    #[test]
    fn extern_names_classify_as_global_slots() {
        let (_, slice) = lower_main(
            r#"extern int n;
               class A { void main() {
                int m = n + 1;
            } }"#,
        );
        let n_slot = slice
            .slot_names
            .iter()
            .position(|id| slice.name(*id) == "n")
            .unwrap();
        assert_eq!(slice.slot_kinds[n_slot], SlotKind::Global);
        assert!(slice.cacheable[n_slot]);
    }

    #[test]
    fn field_names_classify_as_this_slots() {
        // In a slice of `main`, a field of the main class is a slot whose
        // fallback probes `this` first, and it is never memoized.
        let (_, slice) = lower_main(
            r#"class A {
                double total;
                void main() { total = total + 1.0; }
            }"#,
        );
        let t_slot = slice
            .slot_names
            .iter()
            .position(|id| slice.name(*id) == "total")
            .unwrap();
        assert_eq!(slice.slot_kinds[t_slot], SlotKind::ThisField);
        assert_eq!(slice.slot_repr[t_slot], Repr::F);
        assert!(!slice.cacheable[t_slot]);
    }

    #[test]
    fn field_names_in_methods_read_this_directly() {
        let tp = frontend(
            r#"class Acc {
                double total;
                void add(double x) { total = total + x; }
            }
            class A { void main() { } }"#,
        )
        .unwrap();
        let prog = ProgramCode::lower(&tp);
        let mid = prog.method_id("Acc", "add").unwrap();
        let code = &prog.methods[mid as usize].code;
        assert_eq!(code.slot_count(), 1, "only the parameter has a slot");
        assert!(code.ops.iter().any(|o| matches!(
            o,
            Op::LoadField {
                base: Base::This(..),
                repr: Repr::F,
                ..
            }
        )));
        assert!(code.ops.iter().any(|o| matches!(
            o,
            Op::StoreField {
                base: Base::This(..),
                repr: Repr::F,
                ..
            }
        )));
    }

    #[test]
    fn mixed_ternaries_stay_boxed() {
        let (_, slice) = lower_main(
            r#"class A { void main() {
                boolean c = true;
                print((c ? 1 : 2.0) / 2);
            } }"#,
        );
        // `Int(1) / 2` is an integer division in the interpreter, so the
        // division must see the boxed tag.
        assert!(slice
            .ops
            .iter()
            .any(|o| matches!(o, Op::Bin { op: BinOp::Div, .. })));
    }

    #[test]
    fn temporaries_are_reused_across_statements() {
        let (_, slice) = lower_main(
            r#"class A { void main() {
                int a = 1 + 2 * 3;
                int b = 4 + 5 * 6;
                int c = a + b;
            } }"#,
        );
        // Each statement's temporaries reuse the same registers
        // (watermark per statement): the frame is the slots, the constant
        // registers and one statement's two temporaries, not the sum over
        // all statements.
        let consts = slice.i_consts.len() + slice.f_consts.len();
        assert_eq!(consts, 12, "six int literals, each also widened");
        assert!(
            slice.n_regs as usize <= 3 + consts + 2,
            "frame too large: {} regs",
            slice.n_regs
        );
    }

    #[test]
    fn leaf_calls_are_inlined_behind_guards() {
        let big = "s += 1.5 * x; ".repeat(150);
        let (prog, slice) = lower_main(&format!(
            r#"class P {{
                int a;
                int get() {{ return a; }}
                int fib(int k) {{ if (k < 2) {{ return k; }} return fib(k - 1) + fib(k - 2); }}
                double big(double x) {{ double s = x; {big} return s; }}
                int both() {{ return get() + fib(3); }}
            }}
            class A {{ void main() {{
                P p = new P();
                int x = p.get() + p.fib(4) + p.both();
                double y = p.big(1.0);
            }} }}"#
        ));
        let id = |m: &str| prog.method_id("P", m).unwrap();
        let guards = |code: &CodeBlock| -> Vec<(Option<Reg>, u32)> {
            code.ops
                .iter()
                .filter_map(|o| match o {
                    Op::Guard { recv, mi, .. } => Some((*recv, *mi)),
                    _ => None,
                })
                .collect()
        };
        // Only the leaf: `fib` recurses, `big` is over the op budget and
        // `both` calls; they stay calls.
        let inlined = guards(&slice);
        assert!(
            matches!(inlined[..], [(Some(_), mi)] if mi == id("get")),
            "{inlined:?}"
        );
        for m in ["fib", "big", "both"] {
            assert!(
                slice
                    .ops
                    .iter()
                    .any(|o| matches!(o, Op::CallMethod { mi, .. } if *mi == id(m))),
                "{m} is called"
            );
        }
        // The guard falls through to the original call and jumps past it
        // and the jump to the exit.
        let at = slice
            .ops
            .iter()
            .position(|o| matches!(o, Op::Guard { .. }))
            .unwrap();
        let (Op::Guard { hit, .. }, Op::CallMethod { mi, .. }, Op::Jump { to: end }) =
            (slice.ops[at], slice.ops[at + 1], slice.ops[at + 2])
        else {
            panic!("{:?}", &slice.ops[at..at + 3]);
        };
        assert_eq!((hit as usize, mi), (at + 3, id("get")));
        assert!(slice.ops[hit as usize..end as usize]
            .iter()
            .all(|o| !matches!(o, Op::CallMethod { .. } | Op::CallStatic { .. })));
        // A method body inlines its receiver-less leaf call, with its own
        // `this`, and is itself no leaf.
        let both = &prog.methods[id("both") as usize].code;
        assert_eq!(guards(both), [(None, id("get"))]);
        assert!(guards(&prog.methods[id("fib") as usize].code).is_empty());
    }

    #[test]
    fn jumps_stay_in_bounds() {
        let (prog, slice) = lower_main(
            r#"extern int n;
               class A {
                int fib(int k) { if (k < 2) { return k; } return fib(k - 1) + fib(k - 2); }
                int one(int k) { for (int j = 0; j < k; j += 1) { if (j > 3) { return j; } } return k; }
                void main() {
                    int acc = 0;
                    for (int i = 0; i < n; i += 1) {
                        if (i % 2 == 0) { continue; }
                        if (i > 40 || acc < 0 && !(i == 3)) { break; }
                        acc += fib(i % 7) + one(i);
                    }
                    while (acc > 100) { acc -= 3; }
                } }"#,
        );
        let check = |code: &CodeBlock| {
            for op in &code.ops {
                let to = match op {
                    Op::Jump { to }
                    | Op::BranchTrue { to, .. }
                    | Op::BranchFalse { to, .. }
                    | Op::BranchB { to, .. }
                    | Op::BrF { to, .. }
                    | Op::BrI { to, .. }
                    | Op::ForeachBegin { end: to, .. }
                    | Op::PipeBegin { end: to, .. } => *to,
                    Op::ForeachNext { body, .. } | Op::PipeNext { body, .. } => *body,
                    Op::Guard { hit, .. } => *hit,
                    _ => continue,
                };
                assert!(
                    (to as usize) <= code.ops.len(),
                    "jump target {to} out of bounds ({} ops)",
                    code.ops.len()
                );
            }
        };
        check(&slice);
        for m in &prog.methods {
            check(&m.code);
        }
    }
}
