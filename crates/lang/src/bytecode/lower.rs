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
//! `&&`/`||` short-circuit through branches, and every implicit
//! int/boolean check is emitted as a separate op carrying the operand's
//! span so diagnostics point where the tree-walker points.

use super::*;
use crate::ast::*;
use crate::span::Span;
use crate::types::TypedProgram;
use std::collections::{HashMap, HashSet};

impl ProgramCode {
    /// Lower every method of every class. Two-phase: methods are
    /// enumerated first so bodies can pre-resolve their own calls
    /// (including recursion and forward references).
    pub fn lower(tp: &TypedProgram) -> ProgramCode {
        let mut classes = Vec::new();
        let mut class_map = HashMap::new();
        let mut methods_by_class: HashMap<String, HashMap<String, u32>> = HashMap::new();
        let mut order: Vec<(String, usize)> = Vec::new();
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
            for (mi, m) in c.methods.iter().enumerate() {
                per.insert(m.name.clone(), order.len() as u32);
                order.push((c.name.clone(), mi));
            }
        }
        let mut methods = Vec::with_capacity(order.len());
        for (cname, mi) in &order {
            let c = tp.program.class(cname).expect("enumerated above");
            let m = &c.methods[*mi];
            let mut lw = Lowerer::new(tp, &methods_by_class, &class_map, cname, true);
            for p in &m.params {
                lw.declare_slot(&p.name);
            }
            let params = m.params.len() as u16;
            lw.collect_stmts(&m.body.stmts);
            lw.seal_slots();
            // Implicit int→double widening of arguments happens at the
            // call boundary in the interpreter; here it is the method
            // prologue, which is observationally identical.
            for (i, p) in m.params.iter().enumerate() {
                if p.ty == Type::Double {
                    lw.emit(Op::CoerceDouble { reg: i as Reg }, m.span);
                }
            }
            for s in &m.body.stmts {
                lw.stmt(s);
            }
            methods.push(MethodCode {
                code: lw.finish(),
                params,
                coerce_ret: m.ret == Type::Double,
                decl_span: m.span,
                class: cname.clone(),
                name: m.name.clone(),
            });
        }
        // Globals a method could write through a slot-assignment fallback:
        // any `AssignSlot` target name, conservatively regardless of slot
        // kind (an unbound this-field slot falls through to globals too).
        let mut assigned_names = HashSet::new();
        for m in &methods {
            for op in &m.code.ops {
                if let Op::AssignSlot { slot, .. } = op {
                    let nid = m.code.slot_names[*slot as usize];
                    assigned_names.insert(m.code.names[nid as usize].clone());
                }
            }
        }
        for m in &mut methods {
            mark_cacheable(&mut m.code, &assigned_names);
        }
        ProgramCode {
            methods,
            classes,
            methods_by_class,
            class_map,
            assigned_names,
        }
    }

    /// Lower a statement slice executed in `class` scope — the bytecode
    /// analogue of `Interp::exec_stmts_with_vars`.
    pub fn lower_slice(&self, tp: &TypedProgram, class: &str, stmts: &[Stmt]) -> CodeBlock {
        let mut lw = Lowerer::new(tp, &self.methods_by_class, &self.class_map, class, false);
        lw.collect_stmts(stmts);
        lw.seal_slots();
        for s in stmts {
            // `break`/`continue` escaping a slice diagnose at the
            // enclosing *top-level* statement, as the interpreter does.
            lw.top_span = s.span;
            lw.stmt(s);
        }
        let mut code = lw.finish();
        mark_cacheable(&mut code, &self.assigned_names);
        code
    }
}

/// Mark global-kind slots whose fallback read the VM may memoize in the
/// frame: the block itself never assigns them, and no method body assigns
/// their name (methods are the only code that can run inside this frame's
/// lifetime, so nothing can change the global mid-frame).
fn mark_cacheable(code: &mut CodeBlock, method_assigned: &HashSet<String>) {
    let mut local_assigned = vec![false; code.slot_count()];
    for op in &code.ops {
        if let Op::AssignSlot { slot, .. } = op {
            local_assigned[*slot as usize] = true;
        }
    }
    for (s, assigned) in local_assigned.iter().enumerate() {
        code.cacheable[s] = code.slot_kinds[s] == SlotKind::Global
            && !assigned
            && !method_assigned.contains(code.name(code.slot_names[s]));
    }
}

struct LoopFrame {
    /// `Jump` ops to patch to the loop exit.
    breaks: Vec<usize>,
    /// `Jump` ops to patch to the continue target.
    continues: Vec<usize>,
}

struct Lowerer<'a> {
    tp: &'a TypedProgram,
    methods_by_class: &'a HashMap<String, HashMap<String, u32>>,
    class_map: &'a HashMap<String, u32>,
    class: String,
    class_fields: HashSet<String>,
    in_method: bool,
    top_span: Span,

    ops: Vec<Op>,
    spans: Vec<Span>,
    consts: Vec<ConstVal>,
    names: Vec<String>,
    name_ids: HashMap<String, u16>,
    slot_of: HashMap<String, Reg>,
    slot_names: Vec<u16>,
    slot_kinds: Vec<SlotKind>,
    /// First free temporary register (watermark-scoped).
    next_tmp: u16,
    max_regs: u16,
    loops: Vec<LoopFrame>,
}

impl<'a> Lowerer<'a> {
    fn new(
        tp: &'a TypedProgram,
        methods_by_class: &'a HashMap<String, HashMap<String, u32>>,
        class_map: &'a HashMap<String, u32>,
        class: &str,
        in_method: bool,
    ) -> Self {
        let class_fields = tp
            .program
            .class(class)
            .map(|c| c.fields.iter().map(|f| f.name.clone()).collect())
            .unwrap_or_default();
        Lowerer {
            tp,
            methods_by_class,
            class_map,
            class: class.to_string(),
            class_fields,
            in_method,
            top_span: Span::synthetic(),
            ops: Vec::new(),
            spans: Vec::new(),
            consts: Vec::new(),
            names: Vec::new(),
            name_ids: HashMap::new(),
            slot_of: HashMap::new(),
            slot_names: Vec::new(),
            slot_kinds: Vec::new(),
            next_tmp: 0,
            max_regs: 0,
            loops: Vec::new(),
        }
    }

    // -- slot discovery -----------------------------------------------------

    fn declare_slot(&mut self, name: &str) -> Reg {
        if let Some(r) = self.slot_of.get(name) {
            return *r;
        }
        let r = self.slot_names.len() as Reg;
        let nid = self.name_id(name);
        self.slot_of.insert(name.to_string(), r);
        self.slot_names.push(nid);
        let kind = if self.class_fields.contains(name) {
            SlotKind::ThisField
        } else if self.tp.symbols.externs.contains_key(name) {
            SlotKind::Global
        } else {
            SlotKind::Dynamic
        };
        self.slot_kinds.push(kind);
        r
    }

    /// Every name the code can read or write as a plain variable gets a
    /// slot — including names that resolve to fields or globals at run
    /// time (those stay unbound and take the fallback chain).
    fn collect_stmts(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            self.collect_stmt(s);
        }
    }

    fn collect_stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::VarDecl { name, init, .. } => {
                self.declare_slot(name);
                if let Some(e) = init {
                    self.collect_expr(e);
                }
            }
            StmtKind::Assign { target, value, .. } => {
                match target {
                    LValue::Var(name) => {
                        self.declare_slot(name);
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
                self.declare_slot(var);
                self.collect_expr(domain);
                self.collect_stmts(&body.stmts);
            }
            StmtKind::Pipelined {
                var,
                domain,
                num_packets,
                body,
            } => {
                self.declare_slot(var);
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
            ExprKind::Var(name) => {
                self.declare_slot(name);
            }
            ExprKind::Field(base, _) => self.collect_expr(base),
            ExprKind::Index(base, idx) => {
                self.collect_expr(base);
                self.collect_expr(idx);
            }
            ExprKind::Unary(_, inner) => self.collect_expr(inner),
            ExprKind::Binary(_, l, r) => {
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
            ExprKind::IntLit(_)
            | ExprKind::DoubleLit(_)
            | ExprKind::BoolLit(_)
            | ExprKind::Null
            | ExprKind::This
            | ExprKind::New(_) => {}
        }
    }

    /// Freeze the named-slot region: temporaries allocate above it.
    fn seal_slots(&mut self) {
        self.next_tmp = self.slot_names.len() as u16;
        self.max_regs = self.next_tmp;
    }

    // -- small helpers ------------------------------------------------------

    fn emit(&mut self, op: Op, span: Span) -> usize {
        self.ops.push(op);
        self.spans.push(span);
        self.ops.len() - 1
    }

    fn here(&self) -> u32 {
        self.ops.len() as u32
    }

    fn patch(&mut self, at: usize, to: u32) {
        match &mut self.ops[at] {
            Op::Jump { to: t }
            | Op::BranchTrue { to: t, .. }
            | Op::BranchFalse { to: t, .. }
            | Op::ForeachBegin { end: t, .. }
            | Op::PipeBegin { end: t, .. } => *t = to,
            other => unreachable!("patching non-jump op {other:?}"),
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
        if let Some(i) = self.consts.iter().position(|k| k.same(&c)) {
            return i as u16;
        }
        let id =
            u16::try_from(self.consts.len()).expect("bytecode const pool exceeds 65535 entries");
        self.consts.push(c);
        id
    }

    fn slot(&mut self, name: &str) -> Reg {
        // The collect pre-pass declared every name; `declare_slot` is
        // idempotent so this is a plain lookup.
        self.declare_slot(name)
    }

    fn finish(self) -> CodeBlock {
        let cacheable = vec![false; self.slot_names.len()];
        let caches = ShapeCache::new(self.ops.len());
        CodeBlock {
            class: self.class,
            ops: self.ops,
            spans: self.spans,
            consts: self.consts,
            names: self.names,
            slot_names: self.slot_names,
            slot_kinds: self.slot_kinds,
            cacheable,
            n_regs: self.max_regs,
            caches,
        }
    }

    // -- statements ---------------------------------------------------------

    fn stmts(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        let save = self.next_tmp;
        match &s.kind {
            StmtKind::VarDecl { name, ty, init } => {
                let slot = self.slot(name);
                match init {
                    Some(e) => {
                        let t = self.alloc();
                        self.expr(e, t);
                        if *ty == Type::Double {
                            self.emit(Op::CoerceDouble { reg: t }, s.span);
                        }
                        self.emit(Op::BindSlot { slot, src: t }, s.span);
                    }
                    None => {
                        let k = self.konst(ConstVal::default_for(ty));
                        self.emit(Op::BindDefault { slot, k }, s.span);
                    }
                }
            }
            StmtKind::Assign { target, op, value } => {
                // Right-hand side first, exactly like the interpreter.
                let src = self.alloc();
                self.expr(value, src);
                match target {
                    LValue::Var(name) => {
                        let slot = self.slot(name);
                        self.emit(
                            Op::AssignSlot {
                                slot,
                                src,
                                mode: *op,
                            },
                            s.span,
                        );
                    }
                    LValue::Field(base, field) => {
                        let tb = self.alloc();
                        self.expr(base, tb);
                        let name = self.name_id(field);
                        self.emit(
                            Op::StoreField {
                                base: tb,
                                name,
                                src,
                                mode: *op,
                            },
                            s.span,
                        );
                    }
                    LValue::Index(base, idx) => {
                        let tb = self.alloc();
                        self.expr(base, tb);
                        let ti = self.alloc();
                        self.expr(idx, ti);
                        self.emit(Op::CheckInt { src: ti }, idx.span);
                        self.emit(
                            Op::StoreIndex {
                                base: tb,
                                idx: ti,
                                src,
                                mode: *op,
                            },
                            s.span,
                        );
                    }
                }
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let tc = self.alloc();
                self.expr(cond, tc);
                let jf = self.emit(Op::BranchFalse { cond: tc, to: 0 }, cond.span);
                self.stmts(&then_blk.stmts);
                match else_blk {
                    Some(e) => {
                        let jend = self.emit(Op::Jump { to: 0 }, s.span);
                        let else_at = self.here();
                        self.patch(jf, else_at);
                        self.stmts(&e.stmts);
                        let end = self.here();
                        self.patch(jend, end);
                    }
                    None => {
                        let end = self.here();
                        self.patch(jf, end);
                    }
                }
            }
            StmtKind::While { cond, body } => {
                let head = self.here();
                let tc = self.alloc();
                self.expr(cond, tc);
                let jexit = self.emit(Op::BranchFalse { cond: tc, to: 0 }, cond.span);
                self.loops.push(LoopFrame {
                    breaks: vec![jexit],
                    continues: Vec::new(),
                });
                self.stmts(&body.stmts);
                self.emit(Op::Jump { to: head }, s.span);
                let end = self.here();
                let frame = self.loops.pop().expect("pushed above");
                for at in frame.breaks {
                    self.patch(at, end);
                }
                for at in frame.continues {
                    self.patch(at, head);
                }
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(i) = init {
                    self.stmt(i);
                }
                let head = self.here();
                let mut jexit = None;
                if let Some(c) = cond {
                    let tc = self.alloc();
                    self.expr(c, tc);
                    jexit = Some(self.emit(Op::BranchFalse { cond: tc, to: 0 }, c.span));
                }
                self.loops.push(LoopFrame {
                    breaks: jexit.into_iter().collect(),
                    continues: Vec::new(),
                });
                self.stmts(&body.stmts);
                // `continue` in a for loop runs the step, then re-tests.
                let cont_at = self.here();
                if let Some(st) = step {
                    self.stmt(st);
                }
                self.emit(Op::Jump { to: head }, s.span);
                let end = self.here();
                let frame = self.loops.pop().expect("pushed above");
                for at in frame.breaks {
                    self.patch(at, end);
                }
                for at in frame.continues {
                    self.patch(at, cont_at);
                }
            }
            StmtKind::Foreach { var, domain, body } => {
                let slot = self.slot(var);
                let dom = self.alloc();
                self.expr(domain, dom);
                let cur = self.alloc();
                let begin = self.emit(
                    Op::ForeachBegin {
                        dom,
                        var: slot,
                        cur,
                        end: 0,
                    },
                    s.span,
                );
                let body_at = self.here();
                self.loops.push(LoopFrame {
                    breaks: Vec::new(),
                    continues: Vec::new(),
                });
                self.stmts(&body.stmts);
                let next_at = self.here();
                self.emit(
                    Op::ForeachNext {
                        var: slot,
                        cur,
                        dom,
                        body: body_at,
                    },
                    s.span,
                );
                let end = self.here();
                self.patch(begin, end);
                let frame = self.loops.pop().expect("pushed above");
                for at in frame.breaks {
                    self.patch(at, end);
                }
                for at in frame.continues {
                    self.patch(at, next_at);
                }
            }
            StmtKind::Pipelined {
                var,
                domain,
                num_packets,
                body,
            } => {
                let slot = self.slot(var);
                let dom = self.alloc();
                self.expr(domain, dom);
                // Domain-ness is checked before num_packets evaluates,
                // matching the interpreter's order.
                self.emit(Op::CheckDomainPipe { src: dom }, s.span);
                let n = self.alloc();
                self.expr(num_packets, n);
                self.emit(Op::CheckInt { src: n }, num_packets.span);
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
                let body_at = self.here();
                self.loops.push(LoopFrame {
                    breaks: Vec::new(),
                    continues: Vec::new(),
                });
                self.stmts(&body.stmts);
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
                let frame = self.loops.pop().expect("pushed above");
                for at in frame.breaks {
                    self.patch(at, end);
                }
                for at in frame.continues {
                    self.patch(at, next_at);
                }
            }
            StmtKind::Return(value) => {
                match (value, self.in_method) {
                    (Some(e), true) => {
                        let t = self.alloc();
                        self.expr(e, t);
                        self.emit(Op::Ret { src: t }, s.span);
                    }
                    (None, true) => {
                        self.emit(Op::RetVoid, s.span);
                    }
                    // In a slice, `return` stops the slice after
                    // evaluating its operand (for effects/errors); the
                    // value is discarded.
                    (Some(e), false) => {
                        let t = self.alloc();
                        self.expr(e, t);
                        self.emit(Op::Halt, s.span);
                    }
                    (None, false) => {
                        self.emit(Op::Halt, s.span);
                    }
                }
            }
            StmtKind::Expr(e) => {
                let t = self.alloc();
                self.expr(e, t);
            }
            StmtKind::Block(b) => self.stmts(&b.stmts),
            StmtKind::Break => {
                if self.loops.is_empty() {
                    if self.in_method {
                        // The interpreter folds a loose break in a method
                        // body to a `Void` return.
                        self.emit(Op::RetVoid, s.span);
                    } else {
                        self.emit(Op::FailEscape, self.top_span);
                    }
                } else {
                    let j = self.emit(Op::Jump { to: 0 }, s.span);
                    self.loops.last_mut().expect("non-empty").breaks.push(j);
                }
            }
            StmtKind::Continue => {
                if self.loops.is_empty() {
                    if self.in_method {
                        self.emit(Op::RetVoid, s.span);
                    } else {
                        self.emit(Op::FailEscape, self.top_span);
                    }
                } else {
                    let j = self.emit(Op::Jump { to: 0 }, s.span);
                    self.loops.last_mut().expect("non-empty").continues.push(j);
                }
            }
        }
        self.next_tmp = save;
    }

    // -- expressions --------------------------------------------------------

    /// Lower `e` so its value lands in `dst`. Temporaries allocated for
    /// subexpressions are released on return.
    fn expr(&mut self, e: &Expr, dst: Reg) {
        let save = self.next_tmp;
        match &e.kind {
            ExprKind::IntLit(v) => {
                let k = self.konst(ConstVal::Int(*v));
                self.emit(Op::Const { dst, k }, e.span);
            }
            ExprKind::DoubleLit(v) => {
                let k = self.konst(ConstVal::Double(*v));
                self.emit(Op::Const { dst, k }, e.span);
            }
            ExprKind::BoolLit(v) => {
                let k = self.konst(ConstVal::Bool(*v));
                self.emit(Op::Const { dst, k }, e.span);
            }
            ExprKind::Null => {
                let k = self.konst(ConstVal::Null);
                self.emit(Op::Const { dst, k }, e.span);
            }
            ExprKind::Var(name) => {
                let slot = self.slot(name);
                self.emit(Op::ReadSlot { dst, slot }, e.span);
            }
            ExprKind::This => {
                self.emit(Op::LoadThis { dst }, e.span);
            }
            ExprKind::Field(base, field) => {
                let tb = self.alloc();
                self.expr(base, tb);
                let name = self.name_id(field);
                self.emit(
                    Op::LoadField {
                        dst,
                        base: tb,
                        name,
                    },
                    e.span,
                );
            }
            ExprKind::Index(base, idx) => {
                let tb = self.alloc();
                self.expr(base, tb);
                let ti = self.alloc();
                self.expr(idx, ti);
                self.emit(Op::CheckInt { src: ti }, idx.span);
                self.emit(
                    Op::LoadIndex {
                        dst,
                        base: tb,
                        idx: ti,
                    },
                    e.span,
                );
            }
            ExprKind::Unary(op, inner) => {
                let t = self.alloc();
                self.expr(inner, t);
                match op {
                    UnOp::Neg => self.emit(Op::Neg { dst, src: t }, e.span),
                    UnOp::Not => self.emit(Op::Not { dst, src: t }, e.span),
                };
            }
            ExprKind::Binary(op, l, r) => match op {
                BinOp::And => {
                    self.expr(l, dst);
                    let jshort = self.emit(Op::BranchFalse { cond: dst, to: 0 }, l.span);
                    self.expr(r, dst);
                    self.emit(Op::CheckBool { src: dst }, r.span);
                    let jend = self.emit(Op::Jump { to: 0 }, e.span);
                    let short_at = self.here();
                    self.patch(jshort, short_at);
                    let k = self.konst(ConstVal::Bool(false));
                    self.emit(Op::Const { dst, k }, e.span);
                    let end = self.here();
                    self.patch(jend, end);
                }
                BinOp::Or => {
                    self.expr(l, dst);
                    let jshort = self.emit(Op::BranchTrue { cond: dst, to: 0 }, l.span);
                    self.expr(r, dst);
                    self.emit(Op::CheckBool { src: dst }, r.span);
                    let jend = self.emit(Op::Jump { to: 0 }, e.span);
                    let short_at = self.here();
                    self.patch(jshort, short_at);
                    let k = self.konst(ConstVal::Bool(true));
                    self.emit(Op::Const { dst, k }, e.span);
                    let end = self.here();
                    self.patch(jend, end);
                }
                _ => {
                    let tl = self.alloc();
                    self.expr(l, tl);
                    let tr = self.alloc();
                    self.expr(r, tr);
                    self.emit(
                        Op::Bin {
                            op: *op,
                            dst,
                            l: tl,
                            r: tr,
                        },
                        e.span,
                    );
                }
            },
            ExprKind::Ternary(c, a, b) => {
                let tc = self.alloc();
                self.expr(c, tc);
                let jelse = self.emit(Op::BranchFalse { cond: tc, to: 0 }, c.span);
                self.expr(a, dst);
                let jend = self.emit(Op::Jump { to: 0 }, e.span);
                let else_at = self.here();
                self.patch(jelse, else_at);
                self.expr(b, dst);
                let end = self.here();
                self.patch(jend, end);
            }
            ExprKind::Call { recv, method, args } => {
                let argc = u8::try_from(args.len()).expect("more than 255 call arguments");
                let argb = self.next_tmp;
                for a in args {
                    let t = self.alloc();
                    self.expr(a, t);
                }
                match recv {
                    None => {
                        if let Some(f) = is_builtin(method)
                            .then(|| BuiltinFn::from_name(method))
                            .flatten()
                        {
                            self.emit(Op::CallBuiltin { dst, f, argb, argc }, e.span);
                        } else {
                            let mi = self
                                .methods_by_class
                                .get(&self.class)
                                .and_then(|m| m.get(method))
                                .copied()
                                .unwrap_or(UNRESOLVED);
                            let name = self.name_id(method);
                            self.emit(
                                Op::CallStatic {
                                    dst,
                                    mi,
                                    name,
                                    argb,
                                    argc,
                                },
                                e.span,
                            );
                        }
                    }
                    Some(r) => {
                        // Arguments evaluate before the receiver — the
                        // interpreter's order.
                        let tr = self.alloc();
                        self.expr(r, tr);
                        // By name only: the interpreter's domain/array
                        // intrinsics ignore arity.
                        let fast = match method.as_str() {
                            "lo" => FastMeth::DomLo,
                            "hi" => FastMeth::DomHi,
                            "size" => FastMeth::DomSize,
                            "length" => FastMeth::ArrLen,
                            _ => FastMeth::None,
                        };
                        let name = self.name_id(method);
                        self.emit(
                            Op::CallMethod {
                                dst,
                                recv: tr,
                                name,
                                fast,
                                argb,
                                argc,
                            },
                            e.span,
                        );
                    }
                }
            }
            ExprKind::New(cname) => {
                let ci = self.class_map.get(cname).copied().unwrap_or(UNRESOLVED);
                let name = self.name_id(cname);
                self.emit(Op::New { dst, ci, name }, e.span);
            }
            ExprKind::NewArray(elem, len) => {
                let tl = self.alloc();
                self.expr(len, tl);
                self.emit(Op::CheckInt { src: tl }, len.span);
                let k = self.konst(ConstVal::default_for(elem));
                self.emit(Op::NewArray { dst, len: tl, k }, e.span);
            }
            ExprKind::DomainLit(lo, hi) => {
                let ta = self.alloc();
                self.expr(lo, ta);
                self.emit(Op::CheckInt { src: ta }, lo.span);
                let tb = self.alloc();
                self.expr(hi, tb);
                self.emit(Op::CheckInt { src: tb }, hi.span);
                self.emit(
                    Op::NewDomain {
                        dst,
                        lo: ta,
                        hi: tb,
                    },
                    e.span,
                );
            }
        }
        self.next_tmp = save;
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
        // Reads of `a` and writes of both land on slot ops.
        assert!(slice
            .ops
            .iter()
            .any(|o| matches!(o, Op::ReadSlot { slot: 0, .. })));
        assert!(slice
            .ops
            .iter()
            .any(|o| matches!(o, Op::AssignSlot { slot: 0, .. })));
        assert!(slice
            .ops
            .iter()
            .any(|o| matches!(o, Op::BindSlot { slot: 1, .. })));
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
        // The reduction accumulate is one fused op with its mode.
        assert!(slice.ops.iter().any(|o| matches!(
            o,
            Op::AssignSlot {
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
            Op::StoreIndex {
                mode: AssignOp::Add,
                ..
            }
        )));
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
            Op::CallMethod {
                fast: FastMeth::DomSize,
                ..
            }
        )));
        assert!(slice.ops.iter().any(|o| matches!(
            o,
            Op::CallMethod {
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
    }

    #[test]
    fn field_names_classify_as_this_slots() {
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
        let t_slot = code
            .slot_names
            .iter()
            .position(|id| code.name(*id) == "total")
            .unwrap();
        assert_eq!(code.slot_kinds[t_slot], SlotKind::ThisField);
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
        // Three named slots; the expression temps for each statement
        // occupy the same registers (watermark resets per statement), so
        // the frame is bounded by one statement's peak (5 temps for the
        // nested binop tree), not the sum over all statements (~12).
        assert!(
            slice.n_regs <= 3 + 5,
            "frame too large: {} regs",
            slice.n_regs
        );
    }

    #[test]
    fn jumps_stay_in_bounds() {
        let (prog, slice) = lower_main(
            r#"extern int n;
               class A {
                int fib(int k) { if (k < 2) { return k; } return fib(k - 1) + fib(k - 2); }
                void main() {
                    int acc = 0;
                    for (int i = 0; i < n; i += 1) {
                        if (i % 2 == 0) { continue; }
                        if (i > 40) { break; }
                        acc += fib(i % 7);
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
                    | Op::ForeachBegin { end: to, .. }
                    | Op::PipeBegin { end: to, .. } => *to,
                    Op::ForeachNext { body, .. } | Op::PipeNext { body, .. } => *body,
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
