//! One-pass Gen/Cons analysis of code segments (Section 4.2, Figure 2).
//!
//! For a code segment `b` between two candidate boundaries:
//!
//! - `Gen(b)` — values defined in `b` and still live at its end
//!   (**must**-definitions only);
//! - `Cons(b)` — values used in `b` but not defined in it
//!   (**may**-uses).
//!
//! The segment is traversed in *reverse* statement order:
//!
//! - an assignment adds its LHS to `Gen`, removes it from `Cons`, and adds
//!   its RHS places to `Cons`;
//! - a conditional contributes its branches' `Cons` but **not** their `Gen`
//!   (definitions under a condition are not must-defs);
//! - a loop's body sets are computed first; places indexed by a function of
//!   the loop variable are widened to rectilinear sections derived from the
//!   loop bounds (`a[2i+1]` over `i ∈ [lo,hi]` → `a[2lo+1 : 2hi+1 : 2]`);
//!   the paper's ≥1-iteration assumption lets `Gen(body)` join `Gen(b)`;
//! - calls are analyzed interprocedurally and **context-sensitively**: the
//!   callee body is re-analyzed per call site with formals renamed to
//!   actuals (and `this`/field roots renamed to the receiver).

use crate::error::{CompileError, CompileResult};
use crate::graph::AtomCode;
use crate::normalize::NormalizedPipeline;
use crate::place::{Place, PlaceSet, Section, Sectioning, SymExpr};
use cgp_lang::ast::*;
use std::collections::{HashMap, HashSet};
use std::sync::LazyLock;

static NO_CONSTS: LazyLock<HashMap<String, i64>> = LazyLock::new(HashMap::new);

/// Result of analyzing one code segment.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SegmentSets {
    pub gen: PlaceSet,
    pub cons: PlaceSet,
}

/// Recursion cut-off for context-sensitive interprocedural analysis.
const MAX_CALL_DEPTH: usize = 16;

/// Analyze one atomic filter's code, folding known extern-scalar values
/// (workload metadata such as image widths) into symbolic index
/// expressions — this is what keeps 2-D indexing like
/// `pixels[y*width + x]` rectilinear instead of degrading to whole-array.
pub fn analyze_atom_with(
    np: &NormalizedPipeline,
    code: &AtomCode,
    consts: &HashMap<String, i64>,
) -> CompileResult<SegmentSets> {
    let mut an = Analyzer::new_with(np, consts);
    match code {
        AtomCode::Straight(stmts) => an.segment(stmts),
        AtomCode::Foreach(stmt) => an.segment(std::slice::from_ref(stmt)),
        AtomCode::CondSelect {
            var, domain, cond, ..
        } => {
            // Evaluates `cond` once per point: consumes cond's places widened
            // over the domain; defines nothing visible.
            let mut sets = SegmentSets::default();
            an.enter_loop(var, domain)?;
            let reads = an.places_read(cond)?;
            an.exit_loop();
            let (lo, hi) = an.domain_bounds(domain)?;
            for p in reads {
                sets.cons.insert(widen_place(p, var, &lo, &hi));
            }
            sets.cons.kill(&Place::var(var.clone()));
            for p in an.places_read(domain)? {
                sets.cons.insert(p);
            }
            Ok(sets)
        }
        AtomCode::CondBody {
            var, domain, body, ..
        } => {
            // Conservatively analyzed as if every point passed the filter.
            let fe = Stmt::new(
                NodeId(u32::MAX),
                cgp_lang::span::Span::synthetic(),
                StmtKind::Foreach {
                    var: var.clone(),
                    domain: domain.clone(),
                    body: body.clone(),
                },
            );
            an.segment(std::slice::from_ref(&fe))
        }
    }
}

/// Analyze an arbitrary statement slice (prologue, epilogue, tests).
pub fn analyze_stmts(np: &NormalizedPipeline, stmts: &[Stmt]) -> CompileResult<SegmentSets> {
    Analyzer::new(np).segment(stmts)
}

/// Names of reduction-variable roots declared in the prologue (or main
/// scope); these are excluded from per-packet communication because the
/// runtime replicates them and merges copies via `reduce`.
pub fn reduction_roots(np: &NormalizedPipeline) -> HashSet<String> {
    let mut out = HashSet::new();
    let is_reduction = |ty: &Type| match ty {
        Type::Class(c) => np.typed.symbols.is_reduction_class(c),
        _ => false,
    };
    for s in &np.prologue {
        if let StmtKind::VarDecl { name, ty, .. } = &s.kind {
            if is_reduction(ty) {
                out.insert(name.clone());
            }
        }
    }
    for e in &np.typed.program.externs {
        if is_reduction(&e.ty) {
            out.insert(e.name.clone());
        }
    }
    out
}

/// Names declared in the prologue (replicated at filter init, hence never
/// communicated per packet).
pub fn prologue_roots(np: &NormalizedPipeline) -> HashSet<String> {
    let mut out = HashSet::new();
    for s in &np.prologue {
        if let StmtKind::VarDecl { name, .. } = &s.kind {
            out.insert(name.clone());
        }
    }
    out
}

// ---------------------------------------------------------------------------

struct Analyzer<'a> {
    np: &'a NormalizedPipeline,
    /// Known extern-scalar values folded into symbolic expressions.
    consts: &'a HashMap<String, i64>,
    /// Enclosing loop bindings: (var, lo, hi).
    loops: Vec<(String, SymExpr, SymExpr)>,
    /// Call stack of `Class::method` for recursion cut-off.
    call_stack: Vec<String>,
    /// Current class context for resolving unqualified names/methods.
    class_ctx: Vec<String>,
}

impl<'a> Analyzer<'a> {
    fn new(np: &'a NormalizedPipeline) -> Self {
        Self::new_with(np, &NO_CONSTS)
    }

    fn new_with(np: &'a NormalizedPipeline, consts: &'a HashMap<String, i64>) -> Self {
        Analyzer {
            np,
            consts,
            loops: Vec::new(),
            call_stack: Vec::new(),
            class_ctx: vec![np.class.clone()],
        }
    }

    fn current_class(&self) -> &str {
        self.class_ctx.last().expect("class context never empty")
    }

    /// Analyze a statement slice in reverse, per Figure 2.
    fn segment(&mut self, stmts: &[Stmt]) -> CompileResult<SegmentSets> {
        let mut sets = SegmentSets::default();
        for s in stmts.iter().rev() {
            self.stmt(&mut sets, s)?;
        }
        Ok(sets)
    }

    /// Apply one statement's effects to the running (reverse-order) sets.
    fn stmt(&mut self, sets: &mut SegmentSets, s: &Stmt) -> CompileResult<()> {
        match &s.kind {
            StmtKind::VarDecl { name, init, .. } => {
                let lhs = Place::var(name.clone());
                sets.gen.insert(lhs.clone());
                sets.cons.kill(&lhs);
                if let Some(e) = init {
                    self.add_reads(sets, e)?;
                }
            }
            StmtKind::Assign { target, op, value } => {
                let (lhs, must) = self.lvalue_place(target)?;
                if must {
                    sets.gen.insert(lhs.clone());
                    sets.cons.kill(&lhs);
                }
                if *op != AssignOp::Set {
                    sets.cons.insert(lhs);
                }
                // Index / base expressions of the lvalue are reads.
                match target {
                    LValue::Field(b, _) => self.add_reads(sets, b)?,
                    LValue::Index(b, i) => {
                        self.add_reads_base(sets, b)?;
                        self.add_reads(sets, i)?;
                    }
                    LValue::Var(_) => {}
                }
                self.add_reads(sets, value)?;
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                // Branch Gen is NOT added (conditional defs are may-defs);
                // branch Cons is added. A value both defined and used inside
                // the branch stays out of Cons because each branch is
                // analyzed independently first.
                let t = self.clone_ctx().segment(&then_blk.stmts)?;
                sets.cons.extend(&t.cons);
                if let Some(e) = else_blk {
                    let f = self.clone_ctx().segment(&e.stmts)?;
                    sets.cons.extend(&f.cons);
                }
                self.add_reads(sets, cond)?;
            }
            StmtKind::While { cond, body } => {
                let b = self.clone_ctx().segment(&body.stmts)?;
                let (g, c) = (conservative_widen(b.gen), conservative_widen(b.cons));
                sets.gen.extend(&g);
                sets.cons.kill_all(&g);
                sets.cons.extend(&c);
                self.add_reads(sets, cond)?;
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                // Canonical `for (int v = A; v < B; v += 1)` gets precise
                // section widening; anything else is conservative.
                if let Some((var, lo, hi)) = self.canonical_for_bounds(init, cond, step) {
                    self.loops.push((var.clone(), lo.clone(), hi.clone()));
                    let b = self.clone_ctx().segment(&body.stmts)?;
                    self.loops.pop();
                    let g = widen_set(b.gen, &var, &lo, &hi);
                    let c = widen_set(b.cons, &var, &lo, &hi);
                    sets.gen.extend(&g);
                    sets.cons.kill_all(&g);
                    sets.cons.extend(&c);
                    // loop var is loop-local
                    sets.cons.kill(&Place::var(var));
                } else {
                    let b = self.clone_ctx().segment(&body.stmts)?;
                    let (g, c) = (conservative_widen(b.gen), conservative_widen(b.cons));
                    sets.gen.extend(&g);
                    sets.cons.kill_all(&g);
                    sets.cons.extend(&c);
                }
                // Reverse order: `init` runs before the first `cond`, so
                // its definition must kill `cond`'s reads of the loop var.
                if let Some(c) = cond {
                    self.add_reads(sets, c)?;
                }
                if let Some(i) = init {
                    self.stmt(sets, i)?;
                }
                if let Some(st) = step {
                    // step reads/writes its var; the var is loop-local.
                    let _ = st;
                }
            }
            StmtKind::Foreach { var, domain, body } => {
                self.enter_loop(var, domain)?;
                let b = self.clone_ctx().segment(&body.stmts)?;
                self.exit_loop();
                let (lo, hi) = self.domain_bounds(domain)?;
                let g = widen_set(b.gen, var, &lo, &hi);
                let c = widen_set(b.cons, var, &lo, &hi);
                sets.gen.extend(&g);
                sets.cons.kill_all(&g);
                sets.cons.extend(&c);
                sets.cons.kill(&Place::var(var.clone()));
                self.add_reads(sets, domain)?;
            }
            StmtKind::Pipelined { .. } => {
                return Err(CompileError::at(s.span, "nested PipelinedLoop in segment"));
            }
            StmtKind::Return(v) => {
                if let Some(e) = v {
                    self.add_reads(sets, e)?;
                }
            }
            StmtKind::Expr(e) => {
                // Statement-level call: apply its must-defs too.
                if let ExprKind::Call { recv, method, args } = &e.kind {
                    let eff = self.call_effects(recv, method, args)?;
                    for gp in eff.gen.iter() {
                        sets.gen.insert(gp.clone());
                        sets.cons.kill(gp);
                    }
                    sets.cons.extend(&eff.cons);
                } else {
                    self.add_reads(sets, e)?;
                }
            }
            StmtKind::Block(b) => {
                let inner = self.clone_ctx().segment(&b.stmts)?;
                sets.gen.extend(&inner.gen);
                sets.cons.kill_all(&inner.gen);
                sets.cons.extend(&inner.cons);
            }
            StmtKind::Break | StmtKind::Continue => {}
        }
        Ok(())
    }

    /// A fresh analyzer sharing loop/class/call context (cheap clone; the
    /// inner analysis must not disturb the outer running sets).
    fn clone_ctx(&self) -> Analyzer<'a> {
        Analyzer {
            np: self.np,
            consts: self.consts,
            loops: self.loops.clone(),
            call_stack: self.call_stack.clone(),
            class_ctx: self.class_ctx.clone(),
        }
    }

    fn enter_loop(&mut self, var: &str, domain: &Expr) -> CompileResult<()> {
        let (lo, hi) = self.domain_bounds(domain)?;
        self.loops.push((var.to_string(), lo, hi));
        Ok(())
    }

    fn exit_loop(&mut self) {
        self.loops.pop();
    }

    /// Symbolic bounds of a domain expression.
    fn domain_bounds(&self, domain: &Expr) -> CompileResult<(SymExpr, SymExpr)> {
        match &domain.kind {
            ExprKind::Var(d) => Ok((
                SymExpr::sym(format!("{d}.lo")),
                SymExpr::sym(format!("{d}.hi")),
            )),
            ExprKind::DomainLit(lo, hi) => Ok((self.expr_to_sym(lo), self.expr_to_sym(hi))),
            _ => Ok((SymExpr::unknown(), SymExpr::unknown())),
        }
    }

    /// Convert an int expression to a symbolic affine form. Loop variables
    /// and plain names become symbols; unsupported shapes become opaque.
    fn expr_to_sym(&self, e: &Expr) -> SymExpr {
        match &e.kind {
            ExprKind::IntLit(v) => SymExpr::konst(*v),
            ExprKind::Var(n) => {
                // Fold extern scalars with known values (workload metadata).
                if self.np.typed.symbols.externs.contains_key(n) {
                    if let Some(v) = self.consts.get(n) {
                        return SymExpr::konst(*v);
                    }
                }
                SymExpr::sym(n.clone())
            }
            ExprKind::Unary(UnOp::Neg, x) => self.expr_to_sym(x).scale(-1),
            ExprKind::Binary(BinOp::Add, l, r) => self.expr_to_sym(l).add(&self.expr_to_sym(r)),
            ExprKind::Binary(BinOp::Sub, l, r) => self.expr_to_sym(l).sub(&self.expr_to_sym(r)),
            ExprKind::Binary(BinOp::Mul, l, r) => self.expr_to_sym(l).mul(&self.expr_to_sym(r)),
            ExprKind::Binary(BinOp::Div, l, r) => {
                // Exact only when both sides fold to constants.
                let (a, b) = (self.expr_to_sym(l), self.expr_to_sym(r));
                match (a.is_const(), b.is_const()) {
                    (Some(x), Some(y)) if y != 0 => SymExpr::konst(x / y),
                    _ => SymExpr::unknown(),
                }
            }
            ExprKind::Call {
                recv: Some(r),
                method,
                args,
            } if args.is_empty() => {
                if let ExprKind::Var(d) = &r.kind {
                    match method.as_str() {
                        "lo" => SymExpr::sym(format!("{d}.lo")),
                        "hi" => SymExpr::sym(format!("{d}.hi")),
                        "size" => SymExpr::sym(format!("{d}.hi"))
                            .sub(&SymExpr::sym(format!("{d}.lo")))
                            .add(&SymExpr::konst(1)),
                        _ => SymExpr::unknown(),
                    }
                } else {
                    SymExpr::unknown()
                }
            }
            _ => SymExpr::unknown(),
        }
    }

    /// Resolve an lvalue to a place and whether the def is a must-def.
    fn lvalue_place(&mut self, lv: &LValue) -> CompileResult<(Place, bool)> {
        match lv {
            LValue::Var(n) => Ok((Place::var(n.clone()), true)),
            LValue::Field(b, f) => match self.resolve_base(b) {
                Some(mut p) => {
                    p.fields.push(f.clone());
                    // A def through a sectioned element is must only if the
                    // section is precise.
                    let must = !matches!(p.sect, Sectioning::All);
                    Ok((p, must))
                }
                None => Ok((Place::var("?unknown"), false)),
            },
            LValue::Index(b, i) => match self.resolve_base(b) {
                Some(mut p) if p.fields.is_empty() && matches!(p.sect, Sectioning::NotIndexed) => {
                    let sect = self.index_section(i);
                    let must = matches!(sect, Sectioning::Range(_));
                    p.sect = sect;
                    Ok((p, must))
                }
                _ => Ok((Place::var("?unknown"), false)),
            },
        }
    }

    /// Resolve an expression to a place when it is a simple chain
    /// `var (.field)* ([affine])? (.field)*` — one level of array
    /// sectioning on the root; `None` otherwise.
    fn resolve_base(&self, e: &Expr) -> Option<Place> {
        match &e.kind {
            ExprKind::Var(n) => Some(Place::var(n.clone())),
            ExprKind::This => Some(Place::var("this")),
            ExprKind::Field(b, f) => {
                let mut p = self.resolve_base(b)?;
                p.fields.push(f.clone());
                Some(p)
            }
            ExprKind::Index(b, i) => {
                let mut p = self.resolve_base(b)?;
                // Only the root collection may be sectioned in our place
                // model (`tri[pkt].x`, not `obj.arr[i]`).
                if !p.fields.is_empty() || !matches!(p.sect, Sectioning::NotIndexed) {
                    return None;
                }
                p.sect = self.index_section(i);
                Some(p)
            }
            _ => None,
        }
    }

    /// Sectioning for an index expression: affine in symbols → a point
    /// section; otherwise the whole array.
    fn index_section(&self, idx: &Expr) -> Sectioning {
        let s = self.expr_to_sym(idx);
        if s.opaque {
            Sectioning::All
        } else {
            Sectioning::Range(Section::dense(s.clone(), s))
        }
    }

    /// Add all read places of `e` to `sets.cons` (may-uses), including
    /// interprocedural effects of calls.
    fn add_reads(&mut self, sets: &mut SegmentSets, e: &Expr) -> CompileResult<()> {
        for p in self.places_read(e)? {
            sets.cons.insert(p);
        }
        Ok(())
    }

    /// Reads of an array base expression (`a` in `a[i] = ...`): the binding
    /// is read, but the elements are not.
    fn add_reads_base(&mut self, sets: &mut SegmentSets, e: &Expr) -> CompileResult<()> {
        if self.resolve_base(e).is_some() {
            return Ok(()); // simple chain: writing through it, no element read
        }
        self.add_reads(sets, e)
    }

    /// All places read by an expression.
    fn places_read(&mut self, e: &Expr) -> CompileResult<Vec<Place>> {
        let mut out = Vec::new();
        self.collect_reads(e, &mut out)?;
        Ok(out)
    }

    fn collect_reads(&mut self, e: &Expr, out: &mut Vec<Place>) -> CompileResult<()> {
        match &e.kind {
            ExprKind::IntLit(_)
            | ExprKind::DoubleLit(_)
            | ExprKind::BoolLit(_)
            | ExprKind::Null
            | ExprKind::This => {}
            ExprKind::Var(n) => out.push(Place::var(n.clone())),
            ExprKind::Field(..) => match self.resolve_base(e) {
                Some(p) => out.push(p),
                None => {
                    if let ExprKind::Field(b, _) = &e.kind {
                        self.collect_reads(b, out)?;
                    }
                }
            },
            ExprKind::Index(b, i) => {
                match self.resolve_base(e) {
                    Some(p) => out.push(p),
                    None => self.collect_reads(b, out)?,
                }
                self.collect_reads(i, out)?;
            }
            ExprKind::Unary(_, x) => self.collect_reads(x, out)?,
            ExprKind::Binary(_, l, r) => {
                self.collect_reads(l, out)?;
                self.collect_reads(r, out)?;
            }
            ExprKind::Ternary(c, a, b) => {
                self.collect_reads(c, out)?;
                self.collect_reads(a, out)?;
                self.collect_reads(b, out)?;
            }
            ExprKind::Call { recv, method, args } => {
                let eff = self.call_effects(recv, method, args)?;
                // In expression position only the consumption escapes; the
                // callee's defs act like conditional defs (value-producing
                // calls in larger expressions are not segment-level kills).
                out.extend(eff.cons.iter().cloned());
            }
            ExprKind::New(_) => {}
            ExprKind::NewArray(_, len) => self.collect_reads(len, out)?,
            ExprKind::DomainLit(lo, hi) => {
                self.collect_reads(lo, out)?;
                self.collect_reads(hi, out)?;
            }
        }
        Ok(())
    }

    /// Interprocedural, context-sensitive effects of a call.
    fn call_effects(
        &mut self,
        recv: &Option<Box<Expr>>,
        method: &str,
        args: &[Expr],
    ) -> CompileResult<SegmentSets> {
        let mut eff = SegmentSets::default();
        // Arguments are always consumed as values.
        for a in args {
            for p in self.places_read(a)? {
                eff.cons.insert(p);
            }
        }
        // Builtins: pure; domain/array methods: receiver binding read.
        if recv.is_none() && is_builtin(method) {
            return Ok(eff);
        }
        let (callee_class, recv_place) = match recv {
            None => (self.current_class().to_string(), Some(Place::var("this"))),
            Some(r) => {
                if DOMAIN_METHODS.contains(&method) || ARRAY_METHODS.contains(&method) {
                    // d.lo() / a.length(): reads the binding only.
                    if let Some(p) = self.resolve_base(r) {
                        eff.cons.insert(p);
                    } else {
                        for p in self.places_read(r)? {
                            eff.cons.insert(p);
                        }
                    }
                    return Ok(eff);
                }
                let rt = self.receiver_class(r);
                match rt {
                    Some(c) => (c, self.resolve_base(r)),
                    None => {
                        // Unknown receiver class: consume the receiver
                        // conservatively and give up on its defs.
                        for p in self.places_read(r)? {
                            eff.cons.insert(p);
                        }
                        return Ok(eff);
                    }
                }
            }
        };
        // Receiver binding itself is consumed.
        if let Some(rp) = &recv_place {
            if rp.root != "this" {
                eff.cons.insert(rp.clone());
            }
        }

        let key = format!("{callee_class}::{method}");
        if self.call_stack.contains(&key) || self.call_stack.len() >= MAX_CALL_DEPTH {
            // Recursion cut-off: consume whole argument objects, no defs.
            for a in args {
                if let Some(p) = self.resolve_base(a) {
                    eff.cons.insert(p);
                }
            }
            return Ok(eff);
        }
        let Some(m) = self.np.typed.program.method(&callee_class, method) else {
            return Ok(eff);
        };
        let m = m.clone();
        self.call_stack.push(key);
        self.class_ctx.push(callee_class.clone());
        let body_sets = self.clone_ctx().segment(&m.body.stmts)?;
        self.class_ctx.pop();
        self.call_stack.pop();

        // Canonicalize: roots that are fields of the callee class become
        // `this.<field>` paths.
        let canon = |p: &Place| -> Place {
            let class_decl = self.np.typed.program.class(&callee_class);
            if let Some(cd) = class_decl {
                if cd.field(&p.root).is_some() {
                    let mut q = Place::var("this");
                    q.fields.push(p.root.clone());
                    q.fields.extend(p.fields.iter().cloned());
                    q.sect = p.sect.clone();
                    return q;
                }
            }
            p.clone()
        };

        // Map a callee-context place to the caller context.
        let map_place = |p: &Place, is_def: bool| -> Option<Place> {
            let p = canon(p);
            if p.root == "this" {
                // substitute receiver
                let rp = recv_place.clone()?;
                if rp.root == "?unknown" {
                    return None;
                }
                let mut q = rp;
                q.fields.extend(p.fields.iter().cloned());
                // sect of p applies to the innermost value; only valid when
                // receiver itself is unsectioned
                if matches!(q.sect, Sectioning::NotIndexed) {
                    q.sect = p.sect.clone();
                } else if !matches!(p.sect, Sectioning::NotIndexed) {
                    return None;
                }
                return Some(q);
            }
            // formal parameter?
            if let Some(pos) = m.params.iter().position(|fp| fp.name == p.root) {
                let actual = &args[pos];
                if let Some(ap) = self.resolve_base(actual) {
                    let mut q = ap;
                    q.fields.extend(p.fields.iter().cloned());
                    if matches!(q.sect, Sectioning::NotIndexed) {
                        q.sect = p.sect.clone();
                    } else if !matches!(p.sect, Sectioning::NotIndexed) {
                        return None;
                    }
                    // Defs of the formal's *binding* (scalar copy) do not
                    // escape; defs through fields/sections do.
                    if is_def
                        && q.fields.len() == ap_len(&q)
                        && matches!(q.sect, Sectioning::NotIndexed)
                    {
                        // plain rebinding of the copy — does not escape
                        return None;
                    }
                    return Some(q);
                }
                return None; // complex actual: its reads were added already
            }
            // callee locals do not escape; globals (externs) pass through
            if self.np.typed.symbols.externs.contains_key(&p.root) {
                return Some(p);
            }
            None
        };
        // Helper: q.fields length equal to "no extra fields added"? We need
        // the original path length of the actual — recompute inline instead.
        fn ap_len(_q: &Place) -> usize {
            usize::MAX // sentinel: never equal → defs through params escape
        }

        for p in body_sets.cons.iter() {
            if let Some(q) = map_place(p, false) {
                eff.cons.insert(q);
            }
        }
        for p in body_sets.gen.iter() {
            // A def escapes only if it writes through the receiver or a
            // field/section of a parameter object (reference semantics).
            let escapes = {
                let cp = canon(p);
                cp.root == "this"
                    || (m.params.iter().any(|fp| fp.name == cp.root)
                        && (!cp.fields.is_empty() || !matches!(cp.sect, Sectioning::NotIndexed)))
                    || self.np.typed.symbols.externs.contains_key(&cp.root)
            };
            if !escapes {
                continue;
            }
            if let Some(q) = map_place(p, true) {
                eff.gen.insert(q);
            }
        }
        Ok(eff)
    }

    /// Static class of a method receiver, resolved syntactically: local /
    /// param / field / extern of class type, or `new C()`.
    fn receiver_class(&self, r: &Expr) -> Option<String> {
        let ty = self.type_of_chain(r)?;
        match ty {
            Type::Class(c) => Some(c),
            _ => None,
        }
    }

    fn type_of_chain(&self, e: &Expr) -> Option<Type> {
        match &e.kind {
            ExprKind::Var(n) => self.lookup_type(n),
            ExprKind::This => Some(Type::Class(self.current_class().to_string())),
            ExprKind::New(c) => Some(Type::Class(c.clone())),
            ExprKind::Field(b, f) => {
                let bt = self.type_of_chain(b)?;
                if let Type::Class(c) = bt {
                    self.np
                        .typed
                        .program
                        .class(&c)
                        .and_then(|cd| cd.field(f))
                        .map(|fd| fd.ty.clone())
                } else {
                    None
                }
            }
            ExprKind::Index(b, _) => {
                let bt = self.type_of_chain(b)?;
                if let Type::Array(el) = bt {
                    Some(*el)
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// Look a name up in: current method scopes (any method of the current
    /// class — segments come from `main`, callees from their own methods),
    /// class fields, externs.
    fn lookup_type(&self, name: &str) -> Option<Type> {
        let class = self.current_class();
        let prog = &self.np.typed.program;
        let cd = prog.class(class)?;
        for m in &cd.methods {
            if let Some(sc) = self.np.typed.symbols.scope(class, &m.name) {
                if let Some(t) = sc.get(name) {
                    return Some(t.clone());
                }
            }
        }
        if let Some(f) = cd.field(name) {
            return Some(f.ty.clone());
        }
        self.np.typed.symbols.externs.get(name).cloned()
    }
}

// ---- widening --------------------------------------------------------------

/// Widen one place over loop variable `v ∈ [lo, hi]`.
fn widen_place(p: Place, v: &str, lo: &SymExpr, hi: &SymExpr) -> Place {
    let Sectioning::Range(sec) = &p.sect else {
        return p;
    };
    let coef = |e: &SymExpr| {
        e.terms
            .iter()
            .find(|(s, _)| s == v)
            .map(|(_, c)| *c)
            .unwrap_or(0)
    };
    let (clo, chi) = (coef(&sec.lo), coef(&sec.hi));
    if clo == 0 && chi == 0 {
        return p;
    }
    // Point sections a[f(v)] have lo == hi; general sections substitute per
    // bound according to the sign of v's coefficient.
    let sub = |e: &SymExpr, c: i64, want_low: bool| {
        let with = if (c > 0) == want_low { lo } else { hi };
        e.subst(v, with)
    };
    let stride = if sec.lo == sec.hi {
        clo.abs().max(1)
    } else {
        1
    };
    let mut q = p.clone();
    q.sect = Sectioning::Range(Section {
        lo: sub(&sec.lo, if clo != 0 { clo } else { chi }, true),
        hi: sub(&sec.hi, if chi != 0 { chi } else { clo }, false),
        stride,
    });
    q
}

/// Widen every section in the set over `v ∈ [lo, hi]`.
fn widen_set(set: PlaceSet, v: &str, lo: &SymExpr, hi: &SymExpr) -> PlaceSet {
    set.iter()
        .map(|p| widen_place(p.clone(), v, lo, hi))
        .collect()
}

/// Conservative widening for loops without known bounds: sectioned places
/// whose bounds are not loop-independent become whole-array.
fn conservative_widen(set: PlaceSet) -> PlaceSet {
    set.iter()
        .map(|p| {
            let mut q = p.clone();
            if let Sectioning::Range(sec) = &q.sect {
                if !sec.lo.terms.is_empty() || !sec.hi.terms.is_empty() {
                    q.sect = Sectioning::All;
                }
            }
            q
        })
        .collect()
}

impl Analyzer<'_> {
    /// Detect `for (int v = A; v < B; v += 1)` / `v <= B` and return
    /// `(v, lo, hi)` symbolically (with known constants folded).
    fn canonical_for_bounds(
        &self,
        init: &Option<Box<Stmt>>,
        cond: &Option<Expr>,
        step: &Option<Box<Stmt>>,
    ) -> Option<(String, SymExpr, SymExpr)> {
        let init = init.as_ref()?;
        let StmtKind::VarDecl {
            name,
            ty: Type::Int,
            init: Some(lo_e),
        } = &init.kind
        else {
            return None;
        };
        let cond = cond.as_ref()?;
        let ExprKind::Binary(op, l, r) = &cond.kind else {
            return None;
        };
        let ExprKind::Var(cv) = &l.kind else {
            return None;
        };
        if cv != name {
            return None;
        }
        let step = step.as_ref()?;
        let StmtKind::Assign {
            target: LValue::Var(sv),
            op: AssignOp::Add,
            value,
        } = &step.kind
        else {
            return None;
        };
        if sv != name || !matches!(value.kind, ExprKind::IntLit(1)) {
            return None;
        }
        let lo = self.expr_to_sym(lo_e);
        let hi = match op {
            BinOp::Lt => self.expr_to_sym(r).sub(&SymExpr::konst(1)),
            BinOp::Le => self.expr_to_sym(r),
            _ => return None,
        };
        if lo.opaque || hi.opaque {
            return None;
        }
        Some((name.clone(), lo, hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::build_graph;
    use crate::normalize::normalize;
    use cgp_lang::frontend;

    fn pipeline(src: &str) -> NormalizedPipeline {
        normalize(&frontend(src).unwrap()).unwrap()
    }

    fn fmt(set: &PlaceSet) -> String {
        set.to_string()
    }

    const BASE: &str = r#"
        extern int n;
        extern double[] data;
        class Acc implements Reducinterface {
            double total;
            void reduce(Acc other) { total = total + other.total; }
            void add(double x) { total = total + x; }
        }
        class A {
            void main() {
                RectDomain<1> all = [0 : n - 1];
                Acc acc = new Acc();
                PipelinedLoop (pkt in all; 4) {
                    foreach (i in pkt) {
                        double v = data[i] * 2.0;
                        if (v > 1.0) {
                            acc.add(v);
                        }
                    }
                }
                print(acc.total);
            }
        }
    "#;

    #[test]
    fn foreach_reads_become_sections() {
        let np = pipeline(BASE);
        let g = build_graph(&np).unwrap();
        // Find the compute atom (defines v__x from data).
        let compute = g
            .atoms
            .iter()
            .find(|a| matches!(&a.code, AtomCode::Foreach(_)))
            .expect("compute atom");
        let sets = analyze_atom_with(&np, &compute.code, &NO_CONSTS).unwrap();
        let cons = fmt(&sets.cons);
        assert!(cons.contains("data[pkt.lo : pkt.hi]"), "cons = {cons}");
        // The expanded array is must-defined over the whole packet.
        let gen = fmt(&sets.gen);
        assert!(
            gen.contains("v__x[0 : pkt.hi - pkt.lo]") || gen.contains("v__x["),
            "gen = {gen}"
        );
    }

    #[test]
    fn cond_select_consumes_condition_places() {
        let np = pipeline(BASE);
        let g = build_graph(&np).unwrap();
        let sel = g
            .atoms
            .iter()
            .find(|a| matches!(&a.code, AtomCode::CondSelect { .. }))
            .expect("select atom");
        let sets = analyze_atom_with(&np, &sel.code, &NO_CONSTS).unwrap();
        let cons = fmt(&sets.cons);
        assert!(cons.contains("v__x"), "cons = {cons}");
        assert!(sets.gen.is_empty());
    }

    #[test]
    fn cond_body_consumes_but_reduction_root_tracked() {
        let np = pipeline(BASE);
        let g = build_graph(&np).unwrap();
        let body = g
            .atoms
            .iter()
            .find(|a| matches!(&a.code, AtomCode::CondBody { .. }))
            .expect("body atom");
        let sets = analyze_atom_with(&np, &body.code, &NO_CONSTS).unwrap();
        let cons = fmt(&sets.cons);
        assert!(cons.contains("v__x"), "cons = {cons}");
        // acc is consumed (and updated) — it's there in raw sets, and the
        // reduction_roots() helper identifies it for exclusion downstream.
        assert!(cons.contains("acc"), "cons = {cons}");
        assert!(reduction_roots(&np).contains("acc"));
    }

    #[test]
    fn straight_line_gen_kills_cons() {
        // y uses x; x defined before → segment consumes only `a`.
        let src = r#"
            extern int n;
            class Acc implements Reducinterface {
                double t;
                void reduce(Acc o) { t = t + o.t; }
                void add(double x) { t = t + x; }
            }
            class A { void main() {
                RectDomain<1> all = [0 : n - 1];
                Acc acc = new Acc();
                PipelinedLoop (pkt in all; 2) {
                    int a = pkt.size();
                    int x = a + 1;
                    int y = x * 2;
                    acc.add(toDouble(y));
                }
                print(acc.t);
            } }
        "#;
        let np = pipeline(src);
        let sets = analyze_stmts(&np, &np.body_stmts()).unwrap();
        let cons = fmt(&sets.cons);
        assert!(!cons.contains("x"), "cons = {cons}");
        assert!(!cons.contains("y"), "cons = {cons}");
        assert!(cons.contains("pkt"), "cons = {cons}");
        let gen = fmt(&sets.gen);
        assert!(
            gen.contains("x") && gen.contains("y") && gen.contains("a"),
            "gen = {gen}"
        );
    }

    #[test]
    fn conditional_defs_are_not_must() {
        let src = r#"
            extern int n;
            class Acc implements Reducinterface {
                int t;
                void reduce(Acc o) { t = t + o.t; }
                void add(int x) { t = t + x; }
            }
            class A { void main() {
                RectDomain<1> all = [0 : n - 1];
                Acc acc = new Acc();
                PipelinedLoop (pkt in all; 2) {
                    int x = 0;
                    if (pkt.size() > 5) {
                        x = 1;
                    }
                    acc.add(x);
                }
                print(acc.t);
            } }
        "#;
        let np = pipeline(src);
        // Analyze only the conditional statement: its def of x must not be
        // a must-def.
        let body = np.body_stmts();
        let cond_stmt = body
            .iter()
            .find(|s| matches!(s.kind, StmtKind::If { .. }))
            .unwrap()
            .clone();
        let sets = analyze_stmts(&np, &[cond_stmt]).unwrap();
        assert!(sets.gen.is_empty(), "gen = {}", fmt(&sets.gen));
        assert!(fmt(&sets.cons).contains("pkt"));
    }

    #[test]
    fn interprocedural_field_reads_mapped_to_receiver() {
        let src = r#"
            extern int n;
            extern double[] xs;
            class P {
                double x;
                double y;
                double norm() { return sqrt(x * x + y * y); }
            }
            class Acc implements Reducinterface {
                double t;
                void reduce(Acc o) { t = t + o.t; }
                void add(double v) { t = t + v; }
            }
            class A { void main() {
                RectDomain<1> all = [0 : n - 1];
                Acc acc = new Acc();
                P p = new P();
                PipelinedLoop (pkt in all; 2) {
                    foreach (i in pkt) {
                        double d = p.norm() + xs[i];
                        acc.add(d);
                    }
                }
                print(acc.t);
            } }
        "#;
        let np = pipeline(src);
        let sets = analyze_stmts(&np, &np.body_stmts()).unwrap();
        let cons = fmt(&sets.cons);
        assert!(cons.contains("p.x") || cons.contains("p"), "cons = {cons}");
        assert!(cons.contains("xs[pkt.lo : pkt.hi]"), "cons = {cons}");
    }

    #[test]
    fn interprocedural_defs_through_receiver_escape() {
        let src = r#"
            extern int n;
            class P {
                double x;
                void setx(double v) { x = v; }
            }
            class Acc implements Reducinterface {
                double t;
                void reduce(Acc o) { t = t + o.t; }
                void add(double v) { t = t + v; }
            }
            class A { void main() {
                RectDomain<1> all = [0 : n - 1];
                Acc acc = new Acc();
                PipelinedLoop (pkt in all; 2) {
                    P p = new P();
                    p.setx(1.5);
                    acc.add(p.x);
                }
                print(acc.t);
            } }
        "#;
        let np = pipeline(src);
        // The statements after `P p = new P()` — analyze only the call and
        // the use, so the def of p.x must kill the later use.
        let body = np.body_stmts();
        let sets = analyze_stmts(&np, &body[1..]).unwrap();
        let cons = fmt(&sets.cons);
        // p.x is defined by setx (must) before being read by acc.add → the
        // only cons on p should be the binding `p` itself (receiver read).
        assert!(!cons.contains("p.x"), "cons = {cons}");
        let gen = fmt(&sets.gen);
        assert!(gen.contains("p.x"), "gen = {gen}");
    }

    #[test]
    fn strided_access_widens_with_stride() {
        let src = r#"
            extern int n;
            extern double[] xs;
            class Acc implements Reducinterface {
                double t;
                void reduce(Acc o) { t = t + o.t; }
                void add(double v) { t = t + v; }
            }
            class A { void main() {
                RectDomain<1> all = [0 : n - 1];
                Acc acc = new Acc();
                PipelinedLoop (pkt in all; 2) {
                    foreach (i in pkt) {
                        acc.add(xs[2 * i + 1]);
                    }
                }
                print(acc.t);
            } }
        "#;
        let np = pipeline(src);
        let sets = analyze_stmts(&np, &np.body_stmts()).unwrap();
        let cons = fmt(&sets.cons);
        assert!(
            cons.contains("xs[1 + 2*pkt.lo : 1 + 2*pkt.hi : 2]"),
            "cons = {cons}"
        );
    }

    #[test]
    fn canonical_for_loop_widens_precisely() {
        let src = r#"
            extern int n;
            extern double[] xs;
            class Acc implements Reducinterface {
                double t;
                void reduce(Acc o) { t = t + o.t; }
                void add(double v) { t = t + v; }
            }
            class A { void main() {
                RectDomain<1> all = [0 : n - 1];
                Acc acc = new Acc();
                PipelinedLoop (pkt in all; 2) {
                    double s = 0.0;
                    for (int k = 0; k < 8; k += 1) {
                        s += xs[k];
                    }
                    acc.add(s);
                }
                print(acc.t);
            } }
        "#;
        let np = pipeline(src);
        let sets = analyze_stmts(&np, &np.body_stmts()).unwrap();
        let cons = fmt(&sets.cons);
        assert!(cons.contains("xs[0 : 7]"), "cons = {cons}");
    }

    #[test]
    fn for_var_declared_under_a_condition_stays_loop_local() {
        // vmscope's shape: a `for` declared inside an `if` inside a
        // `foreach`. `init` runs before `cond`, so the loop variable is
        // defined before its first read and must not leak into any Cons
        // or ReqComm (where `pack` would look for it in the upstream
        // frame).
        let src = r#"
            extern int n;
            extern int w;
            extern double[] px;
            class Acc implements Reducinterface {
                double t;
                void reduce(Acc o) { t = t + o.t; }
                void add(double v) { t = t + v; }
            }
            class A { void main() {
                RectDomain<1> rows = [0 : n - 1];
                Acc acc = new Acc();
                PipelinedLoop (pkt in rows; 4) {
                    foreach (y in pkt) {
                        if (y % 2 == 0) {
                            for (int sx = 0; sx < w; sx += 1) {
                                acc.add(px[y * 4 + sx]);
                            }
                        }
                    }
                }
                print(acc.t);
            } }
        "#;
        let np = pipeline(src);
        let g = build_graph(&np).unwrap();
        let ca = crate::reqcomm::analyze_chain(&np, &g).unwrap();
        let leaks = |set: &PlaceSet| set.iter().any(|p| p.root == "sx");
        for (a, sets) in ca.atom_sets.iter().enumerate() {
            assert!(!leaks(&sets.cons), "atom {a} Cons = {}", sets.cons);
        }
        for (b, set) in ca.reqcomm_raw.iter().enumerate() {
            assert!(!leaks(set), "ReqComm(b{b}) = {set}");
        }
        assert!(!leaks(&ca.input_set), "input set = {}", ca.input_set);
    }

    #[test]
    fn unknown_index_is_whole_array() {
        let src = r#"
            extern int n;
            extern double[] xs;
            extern int[] perm;
            class Acc implements Reducinterface {
                double t;
                void reduce(Acc o) { t = t + o.t; }
                void add(double v) { t = t + v; }
            }
            class A { void main() {
                RectDomain<1> all = [0 : n - 1];
                Acc acc = new Acc();
                PipelinedLoop (pkt in all; 2) {
                    foreach (i in pkt) {
                        acc.add(xs[perm[i]]);
                    }
                }
                print(acc.t);
            } }
        "#;
        let np = pipeline(src);
        let sets = analyze_stmts(&np, &np.body_stmts()).unwrap();
        let cons = fmt(&sets.cons);
        assert!(cons.contains("xs[*]"), "cons = {cons}");
        assert!(cons.contains("perm[pkt.lo : pkt.hi]"), "cons = {cons}");
    }
}
